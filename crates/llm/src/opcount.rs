//! Analytical operation counting for text generation (paper Fig. 2).
//!
//! Counts total operations (1 MAC = 2 ops) for generating a sequence of
//! `context` tokens with a weight-only quantized LLM, split into:
//!
//! - **FP-INT GeMM** — the four quantized projection types (`A_qkv`, `A_o`,
//!   `A_u`, `A_d`), constant per token;
//! - **attention** — `QKᵀ` and `P·V` (activation-activation, FP16), growing
//!   linearly with the attended prefix;
//! - **other** — LM head (FP-FP GeMM over the tied embedding), norms,
//!   softmax and element-wise work.

use crate::config::ModelConfig;
use crate::modules::ModuleKind;

/// Operation totals for one generation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpBreakdown {
    /// FP-INT GeMM operations.
    pub fp_int_gemm: u64,
    /// Attention score/value operations (FP16).
    pub attention: u64,
    /// Everything else (LM head, norms, softmax, element-wise).
    pub other: u64,
}

impl OpBreakdown {
    /// Total operations.
    pub fn total(&self) -> u64 {
        self.fp_int_gemm + self.attention + self.other
    }

    /// Fraction of operations that are FP-INT GeMMs.
    pub fn fp_int_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.fp_int_gemm as f64 / self.total() as f64
        }
    }

    /// Total in tera-operations.
    pub fn total_tops(&self) -> f64 {
        self.total() as f64 / 1e12
    }
}

/// MACs of one token through one instance of the given module type.
pub fn module_macs_per_token(cfg: &ModelConfig, kind: ModuleKind) -> u64 {
    let (k, n, count) = cfg.fp_int_gemm_shape(kind);
    (k * n * count) as u64
}

/// MACs of one token through all layers of the given module type.
pub fn module_macs_all_layers(cfg: &ModelConfig, kind: ModuleKind) -> u64 {
    cfg.n_layers as u64 * module_macs_per_token(cfg, kind)
}

/// Op breakdown for *decoding* `n_new` tokens with a KV cache already
/// holding `context` tokens — the paper's Fig. 2 text-generation setting
/// (its TOPs magnitudes correspond to a ~128-token generation budget, with
/// "context length" naming the attended prefix).
pub fn decode_ops(cfg: &ModelConfig, context: u64, n_new: u64) -> OpBreakdown {
    let d = cfg.d_model as u64;
    let layers = cfg.n_layers as u64;
    let vocab = cfg.vocab as u64;

    // Per-token constants.
    let fp_int_macs: u64 = ModuleKind::ALL
        .iter()
        .map(|&k| module_macs_all_layers(cfg, k))
        .sum();
    let lm_head_macs = d * vocab;
    let elementwise = layers * 12 * d; // norms, residuals, activations

    // Attention per generated token attends over context + position.
    let mut attn_macs = 0u64;
    for i in 0..n_new {
        attn_macs += layers * 2 * d * (context + i);
    }

    OpBreakdown {
        fp_int_gemm: 2 * fp_int_macs * n_new,
        attention: 2 * attn_macs,
        other: 2 * (lm_head_macs + elementwise) * n_new,
    }
}

/// The Fig. 2 generation budget (tokens produced per run).
pub const FIG2_GENERATED_TOKENS: u64 = 128;

/// Op breakdown for generating `context`-prefix text with the Fig. 2
/// budget of [`FIG2_GENERATED_TOKENS`] new tokens.
pub fn generation_ops(cfg: &ModelConfig, context: u64) -> OpBreakdown {
    decode_ops(cfg, context, FIG2_GENERATED_TOKENS)
}

/// Op breakdown for a full prefill over `seq` tokens (used by the hardware
/// simulator's workload sanity checks).
pub fn prefill_ops(cfg: &ModelConfig, seq: u64) -> OpBreakdown {
    let d = cfg.d_model as u64;
    let layers = cfg.n_layers as u64;
    let vocab = cfg.vocab as u64;
    let fp_int_macs: u64 = ModuleKind::ALL
        .iter()
        .map(|&k| module_macs_all_layers(cfg, k))
        .sum();
    let attn_macs = layers * 2 * d * (seq * (seq + 1) / 2);
    OpBreakdown {
        fp_int_gemm: 2 * fp_int_macs * seq,
        attention: 2 * attn_macs,
        other: 2 * (d * vocab + layers * 12 * d) * seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn fp_int_dominates_at_short_context() {
        // Paper: >90% of ops for sub-4K sequences on average.
        for cfg in zoo::real_models() {
            let b = generation_ops(&cfg, 1024);
            assert!(
                b.fp_int_fraction() > 0.85,
                "{}: {:.3}",
                cfg.name,
                b.fp_int_fraction()
            );
        }
    }

    #[test]
    fn fp_int_fraction_decreases_with_context() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let f1 = generation_ops(&cfg, 1024).fp_int_fraction();
        let f16 = generation_ops(&cfg, 16384).fp_int_fraction();
        assert!(f1 > f16);
        // Paper: remains substantial at 10K+ tokens.
        assert!(f16 > 0.35, "{f16}");
    }

    #[test]
    fn fig2_magnitudes_match_paper_axis() {
        // Paper Fig. 2 y-axis tops out near 14 TOPs (OPT-30B).
        let big = generation_ops(&zoo::real_model("OPT-30B").unwrap(), 16384);
        assert!(
            big.total_tops() > 8.0 && big.total_tops() < 25.0,
            "{}",
            big.total_tops()
        );
        let small = generation_ops(&zoo::real_model("OPT-1.3B").unwrap(), 1024);
        assert!(small.total_tops() < 2.0, "{}", small.total_tops());
    }

    #[test]
    fn prefill_ops_scale_quadratically_in_attention() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let a = prefill_ops(&cfg, 1024).attention;
        let b = prefill_ops(&cfg, 2048).attention;
        assert!(b > 3 * a && b < 5 * a);
    }

    #[test]
    fn totals_scale_with_model_size() {
        let small = generation_ops(&zoo::real_model("OPT-1.3B").unwrap(), 2048);
        let large = generation_ops(&zoo::real_model("OPT-30B").unwrap(), 2048);
        assert!(large.total() > 10 * small.total());
    }

    #[test]
    fn module_macs_match_config_totals() {
        for cfg in zoo::real_models() {
            let per_modules: u64 = ModuleKind::ALL
                .iter()
                .map(|&k| module_macs_all_layers(&cfg, k))
                .sum();
            assert_eq!(per_modules, cfg.fp_int_macs_per_token(), "{}", cfg.name);
        }
    }

    #[test]
    fn qkv_is_largest_attention_module() {
        let cfg = zoo::real_model("LLaMA-7B").unwrap();
        assert!(
            module_macs_per_token(&cfg, ModuleKind::Qkv)
                > module_macs_per_token(&cfg, ModuleKind::OutProj)
        );
    }

    #[test]
    fn opt_6_7b_total_magnitude_plausible() {
        // Fig. 2 shows low-single-digit TOPs totals at 2K context for
        // mid-size models under the decode budget.
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let b = generation_ops(&cfg, 2048);
        assert!(
            b.total_tops() > 0.5 && b.total_tops() < 10.0,
            "{}",
            b.total_tops()
        );
    }
}
