//! The four FP-INT GeMM module types and per-module codec assignment.

use anda_quant::ActivationCodec;

/// The four activation-tensor positions the paper distinguishes (Fig. 3):
/// each names the FP activation feeding one class of FP-INT GeMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// `A_qkv` — input to the fused Q/K/V projections.
    Qkv,
    /// `A_o` — input to the attention output projection.
    OutProj,
    /// `A_u` — input to the FFN up (and gate) projection.
    Up,
    /// `A_d` — input to the FFN down projection.
    Down,
}

impl ModuleKind {
    /// All module kinds in the paper's canonical tuple order
    /// `[M_qkv, M_o, M_u, M_d]`.
    pub const ALL: [ModuleKind; 4] = [
        ModuleKind::Qkv,
        ModuleKind::OutProj,
        ModuleKind::Up,
        ModuleKind::Down,
    ];

    /// Position of this module in the canonical 4-tuple.
    pub fn index(self) -> usize {
        match self {
            ModuleKind::Qkv => 0,
            ModuleKind::OutProj => 1,
            ModuleKind::Up => 2,
            ModuleKind::Down => 3,
        }
    }

    /// Paper notation, e.g. `"A_qkv"`.
    pub fn label(self) -> &'static str {
        match self {
            ModuleKind::Qkv => "A_qkv",
            ModuleKind::OutProj => "A_o",
            ModuleKind::Up => "A_u",
            ModuleKind::Down => "A_d",
        }
    }
}

/// A 4-tuple of mantissa lengths `[M_qkv, M_o, M_u, M_d]` — the search
/// space of Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrecisionCombo(pub [u32; 4]);

impl PrecisionCombo {
    /// The uniform combination `[m, m, m, m]`.
    pub fn uniform(m: u32) -> Self {
        PrecisionCombo([m; 4])
    }

    /// Mantissa length for a module.
    pub fn mantissa_for(&self, kind: ModuleKind) -> u32 {
        self.0[kind.index()]
    }

    /// The candidates generated by relaxing this combination: each module's
    /// mantissa decreased by one (staying ≥ 1), others unchanged
    /// (Algorithm 1, step 3).
    pub fn relaxations(&self) -> Vec<PrecisionCombo> {
        let mut out = Vec::with_capacity(4);
        for i in 0..4 {
            if self.0[i] > 1 {
                let mut next = self.0;
                next[i] -= 1;
                out.push(PrecisionCombo(next));
            }
        }
        out
    }
}

impl core::fmt::Display for PrecisionCombo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}, {}, {}, {}]",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Per-module activation codec assignment used by a forward pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodecAssignment {
    /// Codec for `A_qkv`.
    pub qkv: ActivationCodec,
    /// Codec for `A_o`.
    pub o: ActivationCodec,
    /// Codec for `A_u`.
    pub u: ActivationCodec,
    /// Codec for `A_d`.
    pub d: ActivationCodec,
}

impl CodecAssignment {
    /// The same codec everywhere.
    pub fn uniform(codec: ActivationCodec) -> Self {
        CodecAssignment {
            qkv: codec,
            o: codec,
            u: codec,
            d: codec,
        }
    }

    /// FP16 activations everywhere (the W4A16 baseline).
    pub fn fp16() -> Self {
        Self::uniform(ActivationCodec::Fp16)
    }

    /// Anda codecs at the mantissa lengths of `combo`.
    pub fn from_combo(combo: PrecisionCombo) -> Self {
        CodecAssignment {
            qkv: ActivationCodec::anda(combo.0[0]),
            o: ActivationCodec::anda(combo.0[1]),
            u: ActivationCodec::anda(combo.0[2]),
            d: ActivationCodec::anda(combo.0[3]),
        }
    }

    /// Replaces one module's codec, returning the modified assignment.
    pub fn with_module(mut self, kind: ModuleKind, codec: ActivationCodec) -> Self {
        match kind {
            ModuleKind::Qkv => self.qkv = codec,
            ModuleKind::OutProj => self.o = codec,
            ModuleKind::Up => self.u = codec,
            ModuleKind::Down => self.d = codec,
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_matches_indices() {
        for (i, kind) in ModuleKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn relaxations_decrement_each_coordinate() {
        let c = PrecisionCombo([6, 7, 5, 5]);
        let r = c.relaxations();
        assert_eq!(
            r,
            vec![
                PrecisionCombo([5, 7, 5, 5]),
                PrecisionCombo([6, 6, 5, 5]),
                PrecisionCombo([6, 7, 4, 5]),
                PrecisionCombo([6, 7, 5, 4]),
            ]
        );
    }

    #[test]
    fn relaxations_stop_at_one_bit() {
        let c = PrecisionCombo([1, 2, 1, 1]);
        assert_eq!(c.relaxations(), vec![PrecisionCombo([1, 1, 1, 1])]);
    }

    #[test]
    fn combo_display() {
        assert_eq!(PrecisionCombo([7, 7, 6, 5]).to_string(), "[7, 7, 6, 5]");
    }

    #[test]
    fn assignment_from_combo() {
        let a = CodecAssignment::from_combo(PrecisionCombo([7, 6, 5, 4]));
        assert_eq!(a.qkv, ActivationCodec::anda(7));
        assert_eq!(a.o, ActivationCodec::anda(6));
        assert_eq!(a.u, ActivationCodec::anda(5));
        assert_eq!(a.d, ActivationCodec::anda(4));
    }

    #[test]
    fn with_module_replaces_single_codec() {
        let a = CodecAssignment::fp16().with_module(ModuleKind::Down, ActivationCodec::anda(5));
        assert_eq!(a.qkv, ActivationCodec::Fp16);
        assert_eq!(a.d, ActivationCodec::anda(5));
    }
}
