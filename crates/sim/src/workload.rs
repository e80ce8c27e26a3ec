//! GeMM workload extraction from LLM configurations.
//!
//! System-level evaluation follows the paper's setup (§V-A): batch size 1,
//! the maximum acceptable input sequence length, and only the dominant
//! FP-INT GeMMs are timed (non-GeMM operators and the KV cache stay FP16 on
//! the shared vector unit and are identical across all compared systems).

use anda_llm::config::ModelConfig;
use anda_llm::modules::ModuleKind;

/// One FP-INT GeMM: `x(m×k) · W(k×n)` with INT4 weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gemm {
    /// Which activation module feeds this GeMM.
    pub module: ModuleKind,
    /// Rows (sequence length under batch-1 prefill).
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// How many identical instances run per inference (layers ×
    /// projections).
    pub count: usize,
}

impl Gemm {
    /// MACs of one instance.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// MACs across all instances.
    pub fn total_macs(&self) -> u64 {
        self.macs() * self.count as u64
    }
}

/// The FP-INT GeMMs of one full inference over `seq` tokens (prefill).
pub fn llm_gemms(cfg: &ModelConfig, seq: usize) -> Vec<Gemm> {
    ModuleKind::ALL
        .map(|module| {
            let (k, n, per_layer) = cfg.fp_int_gemm_shape(module);
            Gemm {
                module,
                m: seq,
                k,
                n,
                count: per_layer * cfg.n_layers,
            }
        })
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_llm::zoo;

    #[test]
    fn gemm_macs_match_opcount_model() {
        for cfg in zoo::real_models() {
            let seq = 2048;
            let total: u64 = llm_gemms(&cfg, seq).iter().map(Gemm::total_macs).sum();
            assert_eq!(
                total,
                cfg.fp_int_macs_per_token() * seq as u64,
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn qkv_is_three_wide() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let gemms = llm_gemms(&cfg, 128);
        let qkv = gemms.iter().find(|g| g.module == ModuleKind::Qkv).unwrap();
        assert_eq!(qkv.n, 3 * cfg.d_model);
        assert_eq!(qkv.count, cfg.n_layers);
    }

    #[test]
    fn llama_up_runs_twice_per_layer() {
        let cfg = zoo::real_model("LLaMA-7B").unwrap();
        let up = llm_gemms(&cfg, 128)
            .into_iter()
            .find(|g| g.module == ModuleKind::Up)
            .unwrap();
        assert_eq!(up.count, 2 * cfg.n_layers);
    }

    #[test]
    fn all_four_modules_present() {
        let cfg = zoo::real_model("OPT-1.3B").unwrap();
        let gemms = llm_gemms(&cfg, 64);
        assert_eq!(gemms.len(), 4);
        for kind in ModuleKind::ALL {
            assert!(gemms.iter().any(|g| g.module == kind));
        }
    }
}
