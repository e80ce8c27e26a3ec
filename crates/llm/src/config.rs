//! Model architecture configuration.

use crate::modules::ModuleKind;
use crate::opcount::module_macs_all_layers;

/// Transformer family: determines norms, FFN shape and position encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// OPT-style: LayerNorm (gain+bias), ReLU FFN (`4·d` hidden), learned
    /// absolute position embeddings.
    Opt,
    /// LLaMA-style: RMSNorm, SwiGLU FFN, rotary position embeddings.
    Llama,
}

impl Family {
    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Opt => "OPT",
            Family::Llama => "LLaMA",
        }
    }
}

/// Architecture description of a (real or simulated) model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Display name, e.g. `"OPT-6.7B"` or `"OPT-1.3B-sim"`.
    pub name: String,
    /// Architecture family.
    pub family: Family,
    /// Hidden size.
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Attention heads (`d_model % n_heads == 0`).
    pub n_heads: usize,
    /// FFN hidden size (`4·d_model` for OPT; ≈`8/3·d_model` for LLaMA).
    pub d_ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length supported.
    pub max_seq: usize,
}

impl ModelConfig {
    /// Head dimension.
    pub fn d_head(&self) -> usize {
        debug_assert_eq!(self.d_model % self.n_heads, 0);
        self.d_model / self.n_heads
    }

    /// The FP-INT GeMM that `kind`'s activation feeds, as `(k, n,
    /// instances per layer)` of `x(·×k) · W(k×n)` — the one statement of
    /// the four shapes; [`crate::opcount`]'s per-module MACs (and so the
    /// sum below) and the simulator's workload extraction derive from it.
    pub fn fp_int_gemm_shape(&self, kind: ModuleKind) -> (usize, usize, usize) {
        let (d, ffn) = (self.d_model, self.d_ffn);
        match kind {
            ModuleKind::Qkv => (d, 3 * d, 1),
            ModuleKind::OutProj => (d, d, 1),
            ModuleKind::Up => match self.family {
                Family::Opt => (d, ffn, 1),
                // LLaMA's gate and up projections share the A_u activation.
                Family::Llama => (d, ffn, 2),
            },
            ModuleKind::Down => (ffn, d, 1),
        }
    }

    /// FP-INT GeMM MAC count for one token passing through all blocks
    /// (the four quantized module types only) — the one sum of
    /// [`module_macs_all_layers`] over [`ModuleKind::ALL`], which
    /// [`crate::opcount::decode_ops`] reads.
    pub fn fp_int_macs_per_token(&self) -> u64 {
        ModuleKind::ALL
            .iter()
            .map(|&kind| module_macs_all_layers(self, kind))
            .sum()
    }

    /// Attention (activation-activation, non-quantized) MAC count for one
    /// token attending over a prefix of `context` tokens: `QKᵀ` plus `P·V`.
    pub fn attention_macs_at(&self, context: u64) -> u64 {
        2 * self.d_model as u64 * context * self.n_layers as u64
    }
}

#[cfg(test)]
impl ModelConfig {
    /// Total parameter count of the dense weights (embeddings + blocks),
    /// used for sanity checks on the real-dimension catalog. A token
    /// meets every block weight in exactly one MAC, so the blocks hold
    /// [`ModelConfig::fp_int_macs_per_token`] parameters.
    pub(crate) fn param_count(&self) -> u64 {
        (self.vocab * self.d_model) as u64 + self.fp_int_macs_per_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(family: Family) -> ModelConfig {
        ModelConfig {
            name: "toy".into(),
            family,
            d_model: 64,
            n_layers: 2,
            n_heads: 4,
            d_ffn: 256,
            vocab: 100,
            max_seq: 128,
        }
    }

    #[test]
    fn head_dim() {
        assert_eq!(toy(Family::Opt).d_head(), 16);
    }

    #[test]
    fn param_count_formulas() {
        let opt = toy(Family::Opt);
        // embed 100·64 + 2·(3·64² + 64² + 2·64·256)
        assert_eq!(opt.param_count(), 6400 + 2 * (4 * 4096 + 2 * 16384));
        let llama = toy(Family::Llama);
        assert_eq!(llama.param_count(), 6400 + 2 * (4 * 4096 + 3 * 16384));
    }

    #[test]
    fn llama_has_more_ffn_macs_per_token() {
        let opt = toy(Family::Opt).fp_int_macs_per_token();
        let llama = toy(Family::Llama).fp_int_macs_per_token();
        assert!(llama > opt);
    }

    #[test]
    fn attention_macs_grow_with_context() {
        let m = toy(Family::Opt);
        assert_eq!(m.attention_macs_at(10) * 2, m.attention_macs_at(20));
    }
}
