//! The bit-operations (BOPs) cost model.
//!
//! BOPs estimate computational cost as the total number of single-bit
//! multiply operations: a MAC of an `a`-bit operand with a `b`-bit operand
//! costs `a·b` BOPs. The paper's convention (§V-A) prices one FP16×INT4 MAC
//! at 64 BOPs (a 16-bit effective datapath against 4-bit weights); an
//! Anda/BFP MAC with an M-bit mantissa costs `4·M`.

use anda_llm::config::ModelConfig;
use anda_llm::modules::{ModuleKind, PrecisionCombo};
use anda_llm::opcount::module_macs_all_layers;

/// BOPs of one FP16×INT4 MAC (the paper's normalization constant).
pub const BOPS_PER_FP16_INT4_MAC: u64 = 64;

/// Weight bit width assumed by the cost model (W4A16).
pub const WEIGHT_BITS: u64 = 4;

/// BOPs per MAC at a given activation mantissa length.
#[inline]
pub fn bops_per_mac(mantissa_bits: u32) -> u64 {
    WEIGHT_BITS * u64::from(mantissa_bits)
}

/// Total FP-INT GeMM BOPs for one token under a precision combination.
pub fn bops_per_token(cfg: &ModelConfig, combo: PrecisionCombo) -> u64 {
    ModuleKind::ALL
        .iter()
        .map(|&k| module_macs_all_layers(cfg, k) * bops_per_mac(combo.mantissa_for(k)))
        .sum()
}

/// BOPs saving factor versus the FP16-activation baseline (Table II green
/// numbers): `baseline / combo`, the baseline being the uniform 16-bit
/// combination (the Omniquant/GPU W4A16 setting).
pub fn bops_saving(cfg: &ModelConfig, combo: PrecisionCombo) -> f64 {
    bops_per_token(cfg, PrecisionCombo::uniform(16)) as f64 / bops_per_token(cfg, combo) as f64
}

/// BOPs saving of a *uniform* mantissa length (the FIGNA/VS-Quant rows).
pub fn uniform_bops_saving(m: u32) -> f64 {
    BOPS_PER_FP16_INT4_MAC as f64 / bops_per_mac(m) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_llm::zoo;

    #[test]
    fn paper_normalization_constants() {
        // FIGNA: M=13 → 1.23×; VS-Quant: M=4 → 4.00×.
        assert!((uniform_bops_saving(13) - 1.2308).abs() < 1e-3);
        assert!((uniform_bops_saving(4) - 4.0).abs() < 1e-12);
        assert!((uniform_bops_saving(16) - 1.0).abs() < 1e-12);
        assert_eq!(bops_per_mac(16), BOPS_PER_FP16_INT4_MAC);
    }

    #[test]
    fn uniform_combo_matches_uniform_saving() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        for m in [4u32, 8, 13] {
            let via_combo = bops_saving(&cfg, PrecisionCombo::uniform(m));
            assert!((via_combo - uniform_bops_saving(m)).abs() < 1e-9);
        }
    }

    #[test]
    fn mixed_combo_weights_modules_by_macs() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        // Lowering only A_d (a big module: ffn·d) must save more than
        // lowering only A_o (d·d).
        let base = PrecisionCombo::uniform(8);
        let low_d = PrecisionCombo([8, 8, 8, 4]);
        let low_o = PrecisionCombo([8, 4, 8, 8]);
        assert!(bops_per_token(&cfg, low_d) < bops_per_token(&cfg, low_o));
        assert!(bops_per_token(&cfg, low_d) < bops_per_token(&cfg, base));
    }

    #[test]
    fn savings_in_paper_range_for_typical_combos() {
        // Fig. 14 WikiText2 1% combos average ~5–6 bits → savings ~2.4–3.3×.
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let s = bops_saving(&cfg, PrecisionCombo([6, 4, 5, 4]));
        assert!(s > 2.4 && s < 4.0, "saving {s}");
    }

    #[test]
    fn bops_strictly_monotone_in_each_coordinate() {
        let cfg = zoo::real_model("LLaMA-7B").unwrap();
        let base = PrecisionCombo([7, 7, 7, 7]);
        for relaxed in base.relaxations() {
            assert!(bops_per_token(&cfg, relaxed) < bops_per_token(&cfg, base));
        }
    }
}
