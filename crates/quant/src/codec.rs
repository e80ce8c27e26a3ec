//! Activation codecs: the comparison baselines of Table II.
//!
//! An [`ActivationCodec`] describes how FP activations are represented on
//! their way into an FP-INT GeMM. `apply` performs quantize→dequantize
//! ("fake quantization"), which is numerically what the corresponding
//! hardware datapath computes.

use anda_format::align::fake_quantize_in_place;
use anda_format::anda::AndaConfig;
use anda_fp::batch::saturate_f16_widen_in_place;
use anda_tensor::Matrix;

/// Hardware group size shared by all grouped codecs (paper §V-A sets the
/// BFP group size uniformly to 64).
pub const GROUP_SIZE: usize = 64;

/// Mantissa length used by the FIGNA baseline: wide enough to be
/// near-lossless after alignment (Table I lists 14 bits of compute
/// mantissa; 13 preserved magnitude bits + sign matches its BOPs budget).
pub const FIGNA_MANTISSA_BITS: u32 = 13;

/// Mantissa length of the VS-Quant baseline (4-bit per-vector format).
pub const VSQUANT_MANTISSA_BITS: u32 = 4;

/// How activations are encoded on the way into an FP-INT GeMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivationCodec {
    /// Exact `f32` passthrough: the accuracy ceiling (used to measure the
    /// full-precision model; not a deployable activation path).
    Exact,
    /// FP16 storage and FP16 math — the GPU FP-FP baseline (Fig. 8a/b) and
    /// the Omniquant W4A16 accuracy reference.
    Fp16,
    /// Group-shared exponent with the given mantissa length — the Anda
    /// format (and, at fixed lengths, the FIGNA/VS-Quant baselines).
    Grouped {
        /// Mantissa length in bits (1..=16).
        mantissa_bits: u32,
        /// Shared-exponent group size.
        group_size: usize,
    },
}

impl ActivationCodec {
    /// The Anda codec at mantissa length `m` with the 64-lane hardware group.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `1..=16`.
    pub fn anda(m: u32) -> Self {
        assert!(
            (1..=16).contains(&m),
            "Anda mantissa length {m} outside 1..=16"
        );
        ActivationCodec::Grouped {
            mantissa_bits: m,
            group_size: GROUP_SIZE,
        }
    }

    /// The FIGNA baseline: wide-mantissa BFP conversion at compute time.
    pub fn figna() -> Self {
        Self::anda(FIGNA_MANTISSA_BITS)
    }

    /// The VS-Quant baseline: aggressive 4-bit mantissa BFP without
    /// retraining.
    pub fn vs_quant() -> Self {
        Self::anda(VSQUANT_MANTISSA_BITS)
    }

    /// Mantissa bits carried through the GeMM datapath, used by the BOPs
    /// model: FP16 counts as 16 (11-bit significand padded to the FP16
    /// datapath; one FP16×INT4 MAC ≈ 64 BOPs per the paper's convention).
    pub fn compute_mantissa_bits(&self) -> u32 {
        match self {
            ActivationCodec::Exact | ActivationCodec::Fp16 => 16,
            ActivationCodec::Grouped { mantissa_bits, .. } => *mantissa_bits,
        }
    }

    /// Storage bits per activation element in memory: for a grouped
    /// codec the mantissa, a sign bit and the group's share of its 5-bit
    /// shared exponent. This is the one definition of Anda's storage cost;
    /// the simulator's activation and KV traffic and Fig. 8's memory row
    /// call it.
    pub fn storage_bits_per_element(&self) -> f64 {
        match self {
            ActivationCodec::Exact => 32.0,
            ActivationCodec::Fp16 => 16.0,
            ActivationCodec::Grouped {
                mantissa_bits,
                group_size,
            } => f64::from(*mantissa_bits) + 1.0 + 5.0 / *group_size as f64,
        }
    }

    /// Applies the codec to a flat slice (quantize → dequantize).
    ///
    /// # Panics
    ///
    /// As [`ActivationCodec::apply_matrix_in_place`].
    pub fn apply(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        self.apply_rows_in_place(&mut out, values.len());
        out
    }

    /// [`ActivationCodec::apply`] into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.len()`.
    pub fn apply_into(&self, values: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), values.len(), "apply_into length mismatch");
        out.copy_from_slice(values);
        self.apply_rows_in_place(out, values.len());
    }

    /// Applies the codec independently to every row of a matrix (groups
    /// never straddle rows: activation rows are separate dot-product
    /// operands).
    pub fn apply_matrix(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.apply_matrix_in_place(&mut out);
        out
    }

    /// [`ActivationCodec::apply_matrix`] into a caller-provided matrix,
    /// resizing it to `x`'s shape while reusing its allocation.
    pub fn apply_matrix_into(&self, x: &Matrix, out: &mut Matrix) {
        out.copy_from(x);
        self.apply_matrix_in_place(out);
    }

    /// [`ActivationCodec::apply_matrix`] where the rows lie — what the
    /// transformer step runs on each GeMM input block. No heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if a [`ActivationCodec::Grouped`] codec was built with
    /// `mantissa_bits` outside `1..=16` or a zero `group_size` (the
    /// format quantiser checks both on every row).
    pub fn apply_matrix_in_place(&self, x: &mut Matrix) {
        let cols = x.cols();
        self.apply_rows_in_place(x.as_mut_slice(), cols);
    }

    /// The one application: `block` is row-major, `cols` wide.
    fn apply_rows_in_place(&self, block: &mut [f32], cols: usize) {
        match *self {
            ActivationCodec::Exact => {}
            // Elementwise, so row-agnostic: one flat SIMD pass.
            ActivationCodec::Fp16 => saturate_f16_widen_in_place(block),
            // Per row, so shared exponents never straddle activation rows.
            ActivationCodec::Grouped {
                mantissa_bits,
                group_size,
            } => {
                for row in block.chunks_mut(cols.max(1)) {
                    fake_quantize_in_place(row, group_size, mantissa_bits);
                }
            }
        }
    }

    /// The equivalent `AndaConfig` when the codec is hardware-realizable
    /// (grouped with ≤ 64 lanes).
    pub fn anda_config(&self) -> Option<AndaConfig> {
        match self {
            ActivationCodec::Grouped {
                mantissa_bits,
                group_size,
            } if *group_size <= 64 => AndaConfig::new(*group_size, *mantissa_bits).ok(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_identity() {
        let vals = [1.234f32, -0.001, 7.7];
        assert_eq!(ActivationCodec::Exact.apply(&vals), vals);
    }

    #[test]
    fn fp16_rounds_elements() {
        let vals = [1.0f32 + 1e-5];
        let out = ActivationCodec::Fp16.apply(&vals);
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn grouped_matches_bfp() {
        let vals: Vec<f32> = (0..130).map(|i| (i as f32 - 65.0) * 0.07).collect();
        let codec = ActivationCodec::anda(6);
        let mut direct = vals.clone();
        fake_quantize_in_place(&mut direct, 64, 6);
        assert_eq!(codec.apply(&vals), direct);
        let mut into = vec![0.0; vals.len()];
        codec.apply_into(&vals, &mut into);
        assert_eq!(into, direct);
    }

    #[test]
    #[should_panic(expected = "Anda mantissa length 0 outside 1..=16")]
    fn anda_rejects_a_zero_mantissa() {
        let _ = ActivationCodec::anda(0);
    }

    #[test]
    #[should_panic(expected = "Anda mantissa length 17 outside 1..=16")]
    fn anda_rejects_a_mantissa_past_sixteen() {
        let _ = ActivationCodec::anda(17);
    }

    #[test]
    #[should_panic(expected = "got mantissa_bits 17, group_size 0")]
    fn apply_names_the_offending_grouped_fields() {
        let codec = ActivationCodec::Grouped {
            mantissa_bits: 17,
            group_size: 0,
        };
        let _ = codec.apply(&[1.0]);
    }

    #[test]
    fn in_place_rows_match_the_copying_form() {
        // Rows of 96 lanes: a full group and a partial one per row.
        let vals: Vec<f32> = (0..3 * 96).map(|i| (i as f32 - 150.0) * 0.31).collect();
        let x = Matrix::from_vec(3, 96, vals);
        for codec in [
            ActivationCodec::Exact,
            ActivationCodec::Fp16,
            ActivationCodec::anda(5),
        ] {
            let mut in_place = x.clone();
            codec.apply_matrix_in_place(&mut in_place);
            for r in 0..x.rows() {
                assert_eq!(in_place.row(r), codec.apply(x.row(r)), "{codec:?} row {r}");
            }
            let mut into = Matrix::zeros(1, 1);
            codec.apply_matrix_into(&x, &mut into);
            assert_eq!(into, in_place);
        }
    }

    #[test]
    fn baseline_parameters() {
        assert_eq!(ActivationCodec::figna().compute_mantissa_bits(), 13);
        assert_eq!(ActivationCodec::vs_quant().compute_mantissa_bits(), 4);
        assert_eq!(ActivationCodec::Fp16.compute_mantissa_bits(), 16);
    }

    #[test]
    fn storage_bits_ordering() {
        let anda5 = ActivationCodec::anda(5).storage_bits_per_element();
        let figna = ActivationCodec::figna().storage_bits_per_element();
        let fp16 = ActivationCodec::Fp16.storage_bits_per_element();
        assert!(anda5 < figna && figna < fp16);
        assert!((anda5 - (6.0 + 5.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn apply_matrix_rows_are_independent() {
        // A row of big values must not influence another row's exponents.
        let x = Matrix::from_rows(&[&[1000.0; 64], &[0.001; 64]]);
        let codec = ActivationCodec::anda(4);
        let out = codec.apply_matrix(&x);
        // Small row survives because it has its own group.
        assert!((out[(1, 0)] - 0.001).abs() < 1e-4);
    }

    #[test]
    fn anda_config_only_for_hardware_groups() {
        assert!(ActivationCodec::anda(8).anda_config().is_some());
        let big = ActivationCodec::Grouped {
            mantissa_bits: 8,
            group_size: 128,
        };
        assert!(big.anda_config().is_none());
        assert!(ActivationCodec::Fp16.anda_config().is_none());
    }
}
