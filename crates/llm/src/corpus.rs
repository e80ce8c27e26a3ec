//! Synthetic evaluation corpora (the WikiText-2 / PTB / C4 substitutes).
//!
//! Each corpus is generated *by the FP16 reference model itself* via
//! temperature sampling. The reference model is therefore near-optimal on
//! its own corpus, and any activation-format degradation raises perplexity
//! smoothly — the same monotone response the paper measures on real
//! datasets (see the crate docs, [`crate`]). The three corpora differ in
//! sampling temperature and seed, giving each model three distinct
//! perplexity baselines, analogous to the dataset spread in Table II.

use anda_tensor::Rng;

use crate::model::Model;

/// A corpus recipe: name, sampling temperature, seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorpusSpec {
    /// Display name, e.g. `"wikitext2-sim"`.
    pub name: &'static str,
    /// Sampling temperature used at generation time.
    pub temperature: f32,
    /// Base RNG seed (combined with the model seed).
    pub seed: u64,
}

/// The three corpora standing in for WikiText-2, PTB and C4.
pub const CORPORA: [CorpusSpec; 3] = [
    CorpusSpec {
        name: "wikitext2-sim",
        temperature: 0.85,
        seed: 11,
    },
    CorpusSpec {
        name: "ptb-sim",
        temperature: 1.05,
        seed: 22,
    },
    CorpusSpec {
        name: "c4-sim",
        temperature: 0.95,
        seed: 33,
    },
];

/// Looks up a corpus spec by name.
pub fn corpus(name: &str) -> Option<CorpusSpec> {
    CORPORA.into_iter().find(|c| c.name == name)
}

/// Token streams produced for one (model, corpus) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneratedCorpus {
    /// Calibration split (reused by weight quantization *and* the precision
    /// search, per the paper's one-shot calibration methodology).
    pub calibration: Vec<usize>,
    /// Held-out validation split used to report perplexity.
    pub validation: Vec<usize>,
}

impl CorpusSpec {
    /// Generates calibration and validation splits with the given lengths.
    ///
    /// Generation happens in independent chunks of ≤ 256 tokens (fresh
    /// random prompt each) so corpora can exceed the model's `max_seq`.
    pub fn generate(
        &self,
        model: &Model,
        calibration_len: usize,
        validation_len: usize,
    ) -> GeneratedCorpus {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xA5A5));
        GeneratedCorpus {
            calibration: self.stream(model, calibration_len, &mut rng),
            validation: self.stream(model, validation_len, &mut rng),
        }
    }

    fn stream(&self, model: &Model, len: usize, rng: &mut Rng) -> Vec<usize> {
        const CHUNK: usize = 256;
        const PROMPT: usize = 8;
        let vocab = model.config().vocab;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let want = (len - out.len()).min(CHUNK);
            let prompt: Vec<usize> = (0..PROMPT.min(want)).map(|_| rng.below(vocab)).collect();
            let n_new = want.saturating_sub(prompt.len());
            let tokens = model.generate(&prompt, n_new, self.temperature, rng);
            out.extend(tokens);
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn three_distinct_corpora() {
        assert_eq!(CORPORA.len(), 3);
        assert!(corpus("wikitext2-sim").is_some());
        assert!(corpus("ptb-sim").is_some());
        assert!(corpus("c4-sim").is_some());
        assert!(corpus("imagenet").is_none());
    }

    #[test]
    fn generation_produces_requested_lengths() {
        let model = zoo::opt_125m_sim().build();
        let c = corpus("wikitext2-sim").unwrap().generate(&model, 64, 100);
        assert_eq!(c.calibration.len(), 64);
        assert_eq!(c.validation.len(), 100);
        assert!(c.validation.iter().all(|&t| t < model.config().vocab));
    }

    #[test]
    fn corpora_are_deterministic() {
        let model = zoo::opt_125m_sim().build();
        let spec = corpus("c4-sim").unwrap();
        let a = spec.generate(&model, 32, 32);
        let b = spec.generate(&model, 32, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn different_corpora_differ() {
        let model = zoo::opt_125m_sim().build();
        let a = corpus("wikitext2-sim").unwrap().generate(&model, 0, 64);
        let b = corpus("ptb-sim").unwrap().generate(&model, 0, 64);
        assert_ne!(a.validation, b.validation);
    }

    #[test]
    fn calibration_differs_from_validation() {
        let model = zoo::opt_125m_sim().build();
        let c = corpus("ptb-sim").unwrap().generate(&model, 64, 64);
        assert_ne!(c.calibration, c.validation);
    }
}
