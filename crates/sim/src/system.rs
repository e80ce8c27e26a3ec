//! Whole-model system simulation: speedup, area efficiency and energy
//! efficiency versus the FP-FP baseline (Figs. 16–18).

use anda_llm::config::ModelConfig;
use anda_llm::modules::PrecisionCombo;

use crate::engine::{simulate_gemms, GemmReport};
use crate::floorplan;
use crate::pe::PeKind;
use crate::workload::llm_gemms;

/// Aggregated system-level result for one model inference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemReport {
    /// Architecture simulated.
    pub kind: PeKind,
    /// Aggregate per-GeMM totals.
    pub totals: GemmReport,
    /// Total accelerator area in mm² (PE array + buffers + extras).
    pub area_mm2: f64,
}

impl SystemReport {
    /// Wall-clock seconds of the FP-INT GeMM portion of one inference.
    pub fn time_s(&self) -> f64 {
        self.totals.time_s
    }

    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.totals.energy_pj() * 1e-12
    }

    /// Speedup of this system versus a baseline report.
    pub fn speedup_vs(&self, baseline: &SystemReport) -> f64 {
        baseline.time_s() / self.time_s()
    }

    /// Energy-efficiency improvement versus a baseline report.
    pub fn energy_efficiency_vs(&self, baseline: &SystemReport) -> f64 {
        baseline.energy_j() / self.energy_j()
    }

    /// Area-efficiency (throughput/area) improvement versus a baseline.
    pub fn area_efficiency_vs(&self, baseline: &SystemReport) -> f64 {
        self.speedup_vs(baseline) * baseline.area_mm2 / self.area_mm2
    }

    /// Fraction of energy spent in (compute, SRAM, DRAM).
    pub fn energy_split(&self) -> (f64, f64, f64) {
        let total = self.totals.energy_pj();
        (
            self.totals.energy_compute_pj / total,
            self.totals.energy_sram_pj / total,
            self.totals.energy_dram_pj / total,
        )
    }
}

/// Simulates the FP-INT GeMMs of one inference (batch 1, `seq`-token
/// prefill) on the given architecture, with per-module mantissa lengths
/// taken from `combo` (ignored by fixed-width baselines).
pub fn simulate_model(
    cfg: &ModelConfig,
    seq: usize,
    kind: PeKind,
    combo: PrecisionCombo,
) -> SystemReport {
    SystemReport {
        kind,
        totals: simulate_gemms(&llm_gemms(cfg, seq), kind, combo, true),
        area_mm2: floorplan::total_area_mm2(kind),
    }
}

/// Convenience: simulate the FP-FP baseline for a model.
pub fn simulate_baseline(cfg: &ModelConfig, seq: usize) -> SystemReport {
    simulate_model(cfg, seq, PeKind::FpFp, PrecisionCombo::uniform(16))
}

/// Geometric mean helper for cross-model aggregates (the paper's Geo. Mean
/// bars).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_llm::zoo;

    fn llama13b() -> ModelConfig {
        zoo::real_model("LLaMA-13B").unwrap()
    }

    #[test]
    fn parallel_baselines_have_unit_speedup() {
        let cfg = llama13b();
        let base = simulate_baseline(&cfg, 2048);
        for kind in [PeKind::FpInt, PeKind::Ifpu, PeKind::Figna] {
            let r = simulate_model(&cfg, 2048, kind, PrecisionCombo::uniform(16));
            let s = r.speedup_vs(&base);
            assert!((s - 1.0).abs() < 1e-9, "{kind:?} speedup {s}");
        }
    }

    #[test]
    fn figna_m_variants_reproduce_fig16_speedups() {
        let cfg = llama13b();
        let base = simulate_baseline(&cfg, 2048);
        let m11 = simulate_model(&cfg, 2048, PeKind::FignaM11, PrecisionCombo::uniform(11));
        let m8 = simulate_model(&cfg, 2048, PeKind::FignaM8, PrecisionCombo::uniform(8));
        assert!((m11.speedup_vs(&base) - 16.0 / 11.0).abs() < 0.01);
        assert!((m8.speedup_vs(&base) - 2.0).abs() < 0.01);
    }

    #[test]
    fn anda_speedup_in_paper_range() {
        // Fig. 16: Anda 1% geo-mean speedup 2.49x (per-model 2.1–3.3).
        let cfg = llama13b();
        let base = simulate_baseline(&cfg, 2048);
        let anda = simulate_model(&cfg, 2048, PeKind::Anda, PrecisionCombo([7, 5, 6, 6]));
        let s = anda.speedup_vs(&base);
        assert!(s > 2.0 && s < 3.2, "speedup {s}");
    }

    #[test]
    fn anda_energy_efficiency_in_paper_range() {
        // Fig. 16: Anda energy-efficiency geo-mean 3.07–3.16x.
        let cfg = llama13b();
        let base = simulate_baseline(&cfg, 2048);
        let anda = simulate_model(&cfg, 2048, PeKind::Anda, PrecisionCombo([7, 5, 6, 6]));
        let e = anda.energy_efficiency_vs(&base);
        assert!(e > 2.2 && e < 4.5, "energy efficiency {e}");
    }

    #[test]
    fn anda_area_efficiency_in_paper_range() {
        // Fig. 16: Anda area-efficiency geo-mean 3.47–4.03x.
        let cfg = llama13b();
        let base = simulate_baseline(&cfg, 2048);
        let anda = simulate_model(&cfg, 2048, PeKind::Anda, PrecisionCombo([6, 4, 5, 4]));
        let a = anda.area_efficiency_vs(&base);
        assert!(a > 3.0 && a < 5.0, "area efficiency {a}");
    }

    #[test]
    fn fpfp_energy_split_roughly_matches_fig17() {
        // Paper: FP-FP ≈ 42% compute / 11% SRAM / 48% DRAM.
        let cfg = llama13b();
        let base = simulate_baseline(&cfg, 2048);
        let (c, s, d) = base.energy_split();
        assert!(c > 0.20 && c < 0.55, "compute {c}");
        assert!(s > 0.05 && s < 0.25, "sram {s}");
        assert!(d > 0.35 && d < 0.70, "dram {d}");
    }

    #[test]
    fn anda_reduces_every_energy_component() {
        let cfg = llama13b();
        let base = simulate_baseline(&cfg, 2048);
        let anda = simulate_model(&cfg, 2048, PeKind::Anda, PrecisionCombo([6, 5, 6, 6]));
        assert!(anda.totals.energy_compute_pj < 0.2 * base.totals.energy_compute_pj);
        assert!(anda.totals.energy_sram_pj < 0.7 * base.totals.energy_sram_pj);
        assert!(anda.totals.energy_dram_pj < 0.7 * base.totals.energy_dram_pj);
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }
}
