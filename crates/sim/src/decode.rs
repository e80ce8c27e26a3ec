//! Decode-phase system simulation: token-by-token generation.
//!
//! The prefill model in [`crate::system`] matches the paper's §V setup
//! (batch 1, maximum-sequence input). Text generation additionally runs a
//! *decode* phase — GeMV-shaped FP-INT workloads (`m = 1`) that are DRAM-
//! bound on weight streaming, plus attention reads over the growing KV
//! cache. This module simulates that phase, including the §VI extension:
//! storing the KV cache in the Anda format shrinks its DRAM traffic by
//! `16 / (M_kv + 1 + 5/64)`.

use anda_llm::config::ModelConfig;
use anda_llm::modules::PrecisionCombo;
use anda_quant::ActivationCodec;

use crate::arch::Accelerator;
use crate::engine::{simulate_gemm, GemmReport};
use crate::pe::PeKind;
use crate::workload::llm_gemms;

/// KV-cache storage policy for decode simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvPolicy {
    /// FP16 cache (the paper's §V configuration).
    Fp16,
    /// Anda-compressed cache at the given mantissa length (§VI extension).
    Anda {
        /// Mantissa length (1..=16).
        mantissa_bits: u32,
    },
}

impl KvPolicy {
    /// Stored bits per cached element.
    pub fn bits_per_element(self) -> f64 {
        match self {
            KvPolicy::Fp16 => 16.0,
            KvPolicy::Anda { mantissa_bits } => {
                ActivationCodec::anda(mantissa_bits).storage_bits_per_element()
            }
        }
    }
}

/// Aggregate result of a decode-phase simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecodeReport {
    /// FP-INT GeMV totals (projections).
    pub gemm: GemmReport,
    /// KV-cache DRAM traffic in bits (reads of K and V during attention).
    pub kv_dram_bits: f64,
    /// KV-cache DRAM energy in pJ.
    pub kv_energy_pj: f64,
    /// Wall-clock seconds including KV streaming.
    pub time_s: f64,
}

impl DecodeReport {
    /// Total energy in pJ.
    pub fn energy_pj(&self) -> f64 {
        self.gemm.energy_pj() + self.kv_energy_pj
    }

    /// Speedup versus a baseline decode report.
    pub fn speedup_vs(&self, baseline: &DecodeReport) -> f64 {
        baseline.time_s / self.time_s
    }

    /// Energy-efficiency gain versus a baseline decode report.
    pub fn energy_efficiency_vs(&self, baseline: &DecodeReport) -> f64 {
        baseline.energy_pj() / self.energy_pj()
    }
}

/// Simulates decoding `n_new` tokens with an existing `context`-token KV
/// cache on the given architecture.
///
/// Per generated token, the four FP-INT projection GeMVs run at the
/// per-module mantissa lengths of `combo`; attention reads the full K and V
/// caches (all layers) from memory under `kv_policy`.
pub fn simulate_decode(
    cfg: &ModelConfig,
    context: usize,
    n_new: usize,
    kind: PeKind,
    combo: PrecisionCombo,
    kv_policy: KvPolicy,
) -> DecodeReport {
    assert!(n_new > 0, "must decode at least one token");
    let arch = Accelerator::paper(kind);

    // Projection GeMVs: one token at a time → m = 1, n_new repetitions.
    let mut gemm_totals = GemmReport::default();
    let mut gemm_time = 0.0f64;
    for mut g in llm_gemms(cfg, 1) {
        g.count *= n_new;
        let m_bits = match kind.datapath_mantissa_bits() {
            Some(m) => m,
            None => combo.mantissa_for(g.module),
        };
        let r = simulate_gemm(&g, &arch, m_bits);
        gemm_time += r.time_s;
        gemm_totals.accumulate(&r);
    }
    gemm_totals.time_s = gemm_time;

    // KV-cache streaming: token i reads K and V for (context + i) positions
    // across every layer; baselines use FP16, the §VI extension uses Anda.
    let kv_bits_per_elem = match kind {
        PeKind::Anda => kv_policy.bits_per_element(),
        _ => 16.0,
    };
    let d = cfg.d_model as f64;
    let layers = cfg.n_layers as f64;
    let mut positions_read = 0.0f64;
    for i in 0..n_new {
        positions_read += (context + i) as f64;
    }
    let kv_dram_bits = 2.0 * d * layers * positions_read * kv_bits_per_elem;
    let kv_energy_pj = kv_dram_bits * arch.dram_pj_per_bit;
    let kv_time = kv_dram_bits / arch.dram_bits_per_s;

    DecodeReport {
        gemm: gemm_totals,
        kv_dram_bits,
        kv_energy_pj,
        time_s: gemm_totals.time_s + kv_time,
    }
}

/// Convenience: the FP-FP decode baseline.
pub fn simulate_decode_baseline(cfg: &ModelConfig, context: usize, n_new: usize) -> DecodeReport {
    simulate_decode(
        cfg,
        context,
        n_new,
        PeKind::FpFp,
        PrecisionCombo::uniform(16),
        KvPolicy::Fp16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_llm::zoo::real_model;

    fn cfg() -> ModelConfig {
        real_model("LLaMA-13B").unwrap()
    }

    #[test]
    fn decode_is_memory_bound() {
        // GeMV decode streams all weights per token: DRAM time dominates.
        let r = simulate_decode_baseline(&cfg(), 2048, 16);
        let arch = Accelerator::paper(PeKind::FpFp);
        let compute_time = r.gemm.compute_cycles / arch.clock_hz;
        assert!(r.time_s > 3.0 * compute_time, "decode must be DRAM-bound");
    }

    #[test]
    fn anda_decode_gains_are_modest_without_kv_compression() {
        // Weights dominate decode traffic and are INT4 everywhere, so the
        // Anda speedup shrinks versus the compute-bound prefill.
        let base = simulate_decode_baseline(&cfg(), 2048, 16);
        let anda = simulate_decode(
            &cfg(),
            2048,
            16,
            PeKind::Anda,
            PrecisionCombo::uniform(6),
            KvPolicy::Fp16,
        );
        let s = anda.speedup_vs(&base);
        assert!(s > 1.0 && s < 2.0, "decode speedup {s}");
    }

    #[test]
    fn kv_compression_helps_long_contexts() {
        // §VI synergy: at long contexts the KV stream grows linearly, and
        // compressing it buys real decode time.
        let combo = PrecisionCombo::uniform(6);
        let fp16_kv = simulate_decode(&cfg(), 16384, 32, PeKind::Anda, combo, KvPolicy::Fp16);
        let anda_kv = simulate_decode(
            &cfg(),
            16384,
            32,
            PeKind::Anda,
            combo,
            KvPolicy::Anda { mantissa_bits: 6 },
        );
        assert!(anda_kv.kv_dram_bits < 0.5 * fp16_kv.kv_dram_bits);
        assert!(anda_kv.time_s < fp16_kv.time_s);
        assert!(anda_kv.energy_pj() < fp16_kv.energy_pj());
    }

    #[test]
    fn kv_traffic_grows_with_context() {
        let short = simulate_decode_baseline(&cfg(), 1024, 8);
        let long = simulate_decode_baseline(&cfg(), 8192, 8);
        assert!(long.kv_dram_bits > 6.0 * short.kv_dram_bits);
        // Projections are context-independent.
        assert_eq!(long.gemm.macs, short.gemm.macs);
    }

    #[test]
    fn kv_policy_only_applies_on_anda_hardware() {
        // Baselines have no BPC: the Anda KV policy must not change them.
        let a = simulate_decode(
            &cfg(),
            4096,
            8,
            PeKind::Figna,
            PrecisionCombo::uniform(16),
            KvPolicy::Fp16,
        );
        let b = simulate_decode(
            &cfg(),
            4096,
            8,
            PeKind::Figna,
            PrecisionCombo::uniform(16),
            KvPolicy::Anda { mantissa_bits: 4 },
        );
        assert_eq!(a.kv_dram_bits, b.kv_dram_bits);
    }

    #[test]
    fn bits_per_element_accounting() {
        assert_eq!(KvPolicy::Fp16.bits_per_element(), 16.0);
        let m5 = KvPolicy::Anda { mantissa_bits: 5 }.bits_per_element();
        assert!((m5 - (6.0 + 5.0 / 64.0)).abs() < 1e-12);
    }
}
