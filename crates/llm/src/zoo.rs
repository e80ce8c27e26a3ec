//! The model catalog.
//!
//! Two parallel catalogs, per the substitution the crate docs describe
//! ([`crate`]; README, "Crate map"):
//!
//! - [`real_models`] — the *true* architecture dimensions of the paper's
//!   nine benchmark LLMs (plus OPT-125M used by Fig. 9). These parameterize
//!   op counting (Fig. 2) and the hardware simulator's GeMM workloads
//!   (Figs. 16–18); their weights are never materialized.
//! - [`sim_models`] — scaled-down simulated counterparts with synthesized
//!   weights, used for every accuracy experiment. Each carries a calibrated
//!   [`SensitivityProfile`] reproducing the paper's observed orderings:
//!   OPT models tolerate more mantissa truncation than LLaMA models, larger
//!   OPTs tolerate more than OPT-1.3B, and `A_qkv` is the most sensitive
//!   module while `A_d` is the least (for OPT).

use crate::config::{Family, ModelConfig};
use crate::model::Model;
use crate::synth::{OutlierSpec, SensitivityProfile};

/// A simulated model: scaled-down config + sensitivity profile + seed,
/// paired with the real-dimension config it stands in for.
#[derive(Clone, Debug)]
pub struct SimModelSpec {
    /// The simulated (small) architecture.
    pub sim: ModelConfig,
    /// The real model it substitutes (dimensions used for op counting and
    /// hardware workloads).
    pub real: ModelConfig,
    /// Activation-outlier calibration.
    pub profile: SensitivityProfile,
    /// Weight synthesis seed.
    pub seed: u64,
}

impl SimModelSpec {
    /// Synthesizes the FP16 model (deterministic).
    pub fn build(&self) -> Model {
        Model::synthesize(self.sim.clone(), &self.profile, self.seed)
    }
}

#[allow(clippy::too_many_arguments)]
fn cfg(
    name: &str,
    family: Family,
    d: usize,
    layers: usize,
    heads: usize,
    ffn: usize,
    vocab: usize,
    max_seq: usize,
) -> ModelConfig {
    ModelConfig {
        name: name.to_owned(),
        family,
        d_model: d,
        n_layers: layers,
        n_heads: heads,
        d_ffn: ffn,
        vocab,
        max_seq,
    }
}

/// Real architecture dimensions of the paper's benchmark models.
///
/// Order matches the paper's tables: OPT-1.3B, OPT-2.7B, OPT-6.7B,
/// LLaMA-7B, LLaMA2-7B, OPT-13B, LLaMA-13B, LLaMA2-13B, OPT-30B.
pub fn real_models() -> Vec<ModelConfig> {
    vec![
        cfg("OPT-1.3B", Family::Opt, 2048, 24, 32, 8192, 50272, 2048),
        cfg("OPT-2.7B", Family::Opt, 2560, 32, 32, 10240, 50272, 2048),
        cfg("OPT-6.7B", Family::Opt, 4096, 32, 32, 16384, 50272, 2048),
        cfg("LLaMA-7B", Family::Llama, 4096, 32, 32, 11008, 32000, 2048),
        cfg("LLaMA2-7B", Family::Llama, 4096, 32, 32, 11008, 32000, 4096),
        cfg("OPT-13B", Family::Opt, 5120, 40, 40, 20480, 50272, 2048),
        cfg("LLaMA-13B", Family::Llama, 5120, 40, 40, 13824, 32000, 2048),
        cfg(
            "LLaMA2-13B",
            Family::Llama,
            5120,
            40,
            40,
            13824,
            32000,
            4096,
        ),
        cfg("OPT-30B", Family::Opt, 7168, 48, 56, 28672, 50272, 2048),
    ]
}

/// The real OPT-125M config (used by the Fig. 9 search-trace experiment).
pub fn real_opt_125m() -> ModelConfig {
    cfg("OPT-125M", Family::Opt, 768, 12, 12, 3072, 50272, 2048)
}

/// Looks up a real model config by name.
pub fn real_model(name: &str) -> Option<ModelConfig> {
    if name == "OPT-125M" {
        return Some(real_opt_125m());
    }
    real_models().into_iter().find(|m| m.name == name)
}

const SIM_VOCAB: usize = 512;
const SIM_SEQ: usize = 640;

fn opt_profile(scale: f32, sharpness: f32) -> SensitivityProfile {
    SensitivityProfile {
        qkv: OutlierSpec::new(16, 5.0 * scale),
        o: OutlierSpec::new(10, 2.5 * scale),
        u: OutlierSpec::new(16, 3.2 * scale),
        d: OutlierSpec::new(10, 2.0 * scale),
        logit_sharpness: sharpness,
        weight_std: 1.0,
    }
}

fn llama_profile(scale: f32, sharpness: f32) -> SensitivityProfile {
    SensitivityProfile {
        qkv: OutlierSpec::new(16, 8.0 * scale),
        o: OutlierSpec::new(10, 3.5 * scale),
        u: OutlierSpec::new(16, 4.5 * scale),
        d: OutlierSpec::new(10, 4.0 * scale),
        logit_sharpness: sharpness,
        weight_std: 1.0,
    }
}

/// Simulated counterparts of the nine benchmark models (same order as
/// [`real_models`]).
pub fn sim_models() -> Vec<SimModelSpec> {
    let reals = real_models();
    let find = |name: &str| reals.iter().find(|m| m.name == name).unwrap().clone();

    let sim_of = |real: &ModelConfig, d: usize, layers: usize, ffn: usize| ModelConfig {
        name: format!("{}-sim", real.name),
        family: real.family,
        d_model: d,
        n_layers: layers,
        n_heads: 4,
        d_ffn: ffn,
        vocab: SIM_VOCAB,
        max_seq: SIM_SEQ,
    };

    let mut specs = Vec::new();
    // OPT family: larger models are *less* sensitive (paper Fig. 6) —
    // encode that as a decreasing outlier scale with model size.
    for (name, scale, sharp, seed) in [
        ("OPT-1.3B", 1.30, 1.7, 1001u64),
        ("OPT-2.7B", 0.85, 1.8, 1002),
        ("OPT-6.7B", 0.80, 1.8, 1003),
        ("OPT-13B", 0.72, 1.9, 1006),
        ("OPT-30B", 0.62, 1.9, 1009),
    ] {
        let real = find(name);
        let sim = sim_of(&real, 128, 2, 512);
        specs.push(SimModelSpec {
            sim,
            real,
            profile: opt_profile(scale, sharp),
            seed,
        });
    }
    // LLaMA family: more sensitive overall.
    for (name, scale, sharp, seed) in [
        ("LLaMA-7B", 1.00, 2.0, 1004u64),
        ("LLaMA2-7B", 1.35, 2.0, 1005),
        ("LLaMA-13B", 0.95, 2.1, 1007),
        ("LLaMA2-13B", 0.90, 2.1, 1008),
    ] {
        let real = find(name);
        let sim = sim_of(&real, 128, 2, 384);
        specs.push(SimModelSpec {
            sim,
            real,
            profile: llama_profile(scale, sharp),
            seed,
        });
    }
    // Restore paper ordering.
    let order = [
        "OPT-1.3B",
        "OPT-2.7B",
        "OPT-6.7B",
        "LLaMA-7B",
        "LLaMA2-7B",
        "OPT-13B",
        "LLaMA-13B",
        "LLaMA2-13B",
        "OPT-30B",
    ];
    specs.sort_by_key(|s| {
        order
            .iter()
            .position(|&n| s.real.name == n)
            .unwrap_or(usize::MAX)
    });
    specs.push(opt_125m_sim());
    specs
}

/// The simulated OPT-125M (Fig. 9 search-trace model).
pub fn opt_125m_sim() -> SimModelSpec {
    let real = real_opt_125m();
    SimModelSpec {
        sim: ModelConfig {
            name: "OPT-125M-sim".into(),
            family: Family::Opt,
            d_model: 128,
            n_layers: 2,
            n_heads: 4,
            d_ffn: 512,
            vocab: SIM_VOCAB,
            max_seq: SIM_SEQ,
        },
        real,
        profile: opt_profile(1.45, 1.9),
        seed: 1000,
    }
}

/// Looks up a simulated model spec by real-model name (e.g. `"OPT-6.7B"`).
pub fn sim_model(name: &str) -> Option<SimModelSpec> {
    sim_models().into_iter().find(|s| s.real.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_catalog_has_paper_order() {
        let names: Vec<String> = real_models().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec![
                "OPT-1.3B",
                "OPT-2.7B",
                "OPT-6.7B",
                "LLaMA-7B",
                "LLaMA2-7B",
                "OPT-13B",
                "LLaMA-13B",
                "LLaMA2-13B",
                "OPT-30B"
            ]
        );
    }

    #[test]
    fn real_param_counts_match_nominal_sizes() {
        // Dense parameter count should land within ~25% of the nominal
        // billions (embeddings + blocks; biases/norms excluded).
        let expect = [
            ("OPT-1.3B", 1.3e9),
            ("OPT-2.7B", 2.7e9),
            ("OPT-6.7B", 6.7e9),
            ("LLaMA-7B", 6.7e9),
            ("OPT-13B", 13.0e9),
            ("LLaMA-13B", 13.0e9),
            ("OPT-30B", 30.0e9),
        ];
        for (name, nominal) in expect {
            let m = real_model(name).unwrap();
            let p = m.param_count() as f64;
            assert!(
                (p - nominal).abs() / nominal < 0.25,
                "{name}: {p:.3e} vs nominal {nominal:.1e}"
            );
        }
    }

    #[test]
    fn sim_catalog_mirrors_real_catalog() {
        let sims = sim_models();
        assert_eq!(sims.len(), 10); // 9 benchmarks + OPT-125M
        for s in &sims[..9] {
            assert_eq!(s.sim.family, s.real.family);
            assert!(s.sim.name.ends_with("-sim"));
            assert_eq!(s.sim.d_model % 64, 0);
            assert_eq!(s.sim.d_ffn % 64, 0);
        }
    }

    #[test]
    fn llama_profiles_are_more_sensitive_than_opt() {
        let opt = sim_model("OPT-6.7B").unwrap().profile;
        let llama = sim_model("LLaMA-7B").unwrap().profile;
        assert!(llama.qkv.gain > opt.qkv.gain);
        assert!(llama.d.gain > opt.d.gain);
    }

    #[test]
    fn qkv_is_most_sensitive_module_in_profiles() {
        for s in sim_models() {
            assert!(s.profile.qkv.gain >= s.profile.u.gain);
            assert!(s.profile.u.gain >= s.profile.d.gain || s.sim.family == Family::Llama);
        }
    }

    #[test]
    fn specs_build_deterministically() {
        let spec = sim_model("OPT-2.7B").unwrap();
        let a = spec.build();
        let b = spec.build();
        let ta = a.forward(&[1, 2, 3], &crate::modules::CodecAssignment::fp16());
        let tb = b.forward(&[1, 2, 3], &crate::modules::CodecAssignment::fp16());
        assert_eq!(ta, tb);
    }

    #[test]
    fn lookup_by_name() {
        assert!(sim_model("OPT-13B").is_some());
        assert!(sim_model("GPT-4").is_none());
        assert!(real_model("OPT-125M").is_some());
    }
}
