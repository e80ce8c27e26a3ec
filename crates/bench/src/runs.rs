//! Shared experiment state: one construction of each model, corpus and
//! search, however many artefacts read it.
//!
//! [`Prepared`] is one (model, corpus) experiment context — synthesized
//! weights, their W4 quantization, both logit-scale calibrations and the
//! generated token splits; building one is the expensive step every
//! accuracy artefact starts with. [`Ctx`] is what the `figures` registry
//! runs over, and the only thing here that memoises. It holds, per
//! (model, corpus), the `Prepared`; per (model, corpus, δ), the
//! [`SearchOutcome`] of Algorithm 1; and per (model, corpus, combination),
//! the calibration perplexity — shared between searches at different δ,
//! which walk the same uniform ladder and overlapping relaxations. So
//! Table II, Fig. 14, Fig. 16, Fig. 17 and Fig. 18 report the same
//! searched combinations because they read the same `SearchOutcome`, not
//! because each recomputed it. [`Ctx::counts`] reads the memos' sizes.
//!
//! Sizes follow the paper's methodology scaled to the sim models: 128
//! calibration sequences of length 2048 become one calibration split, and
//! validation perplexity uses non-overlapping windows.

use std::collections::HashMap;
use std::rc::Rc;

use anda_llm::corpus::{corpus, CorpusSpec, GeneratedCorpus};
use anda_llm::eval::perplexity;
use anda_llm::model::Model;
use anda_llm::modules::{CodecAssignment, PrecisionCombo};
use anda_llm::zoo::{sim_model, sim_models, SimModelSpec};
use anda_quant::WeightQuantConfig;
use anda_search::search::{
    adaptive_precision_search, AccuracyEvaluator, PplEvaluator, SearchConfig, SearchOutcome,
};

/// Evaluation window for sim models.
pub const WINDOW: usize = 128;
/// Calibration split length (tokens). The paper calibrates on 128×2048
/// tokens; scaled to the sim models this still needs to be large enough
/// that PPL sampling noise sits well below the search tolerances.
pub const CALIBRATION_LEN: usize = 768;
/// Validation split length (tokens).
pub const VALIDATION_LEN: usize = 768;

/// A prepared (model, corpus) experiment context.
pub struct Prepared {
    /// The simulated model spec.
    pub spec: SimModelSpec,
    /// FP16-weight reference model.
    pub fp16_model: Model,
    /// Weight-only quantized (W4A16-style) model.
    pub quant_model: Model,
    /// The corpus recipe.
    pub corpus: CorpusSpec,
    /// Generated calibration/validation token streams.
    pub data: GeneratedCorpus,
}

impl Prepared {
    /// Builds the context for one (model, corpus) pair.
    ///
    /// No step here calls the allocating `Model::forward`: logit-scale
    /// calibration holds one `ForwardScratch` across its whole grid, and
    /// [`Prepared::search`]'s `PplEvaluator` holds one across the whole
    /// search, so steady-state evaluation reuses every forward buffer.
    pub fn new(spec: SimModelSpec, corpus: CorpusSpec) -> Self {
        let mut fp16_model = spec.build();
        let data = corpus.generate(&fp16_model, CALIBRATION_LEN, VALIDATION_LEN);
        let mut quant_model = fp16_model.quantize_weights(WeightQuantConfig::w4_sim());
        // One-parameter temperature calibration on the calibration split
        // (see Model::calibrate_logit_scale) — both models, same data.
        fp16_model.calibrate_logit_scale(&data.calibration, WINDOW);
        quant_model.calibrate_logit_scale(&data.calibration, WINDOW);
        Prepared {
            spec,
            fp16_model,
            quant_model,
            corpus,
            data,
        }
    }

    /// Validation perplexity of the weight-quantized model under `codecs`.
    pub fn validation_ppl(&self, codecs: &CodecAssignment) -> f64 {
        perplexity(&self.quant_model, codecs, &self.data.validation, WINDOW)
    }

    /// Runs the adaptive precision search at tolerance δ on the calibration
    /// split of this context.
    pub fn search(&self, tolerance: f64) -> SearchOutcome {
        let mut evaluator = PplEvaluator::new(&self.quant_model, &self.data.calibration, WINDOW);
        adaptive_precision_search(
            &self.spec.sim,
            &mut evaluator,
            &SearchConfig::with_tolerance(tolerance),
        )
    }
}

/// How much a [`Ctx`] has built so far: the sizes of its memos.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// (model, corpus) contexts prepared ([`Prepared::new`] calls).
    pub prepared: usize,
    /// (model, corpus, δ) searches run.
    pub searched: usize,
    /// Calibration perplexities evaluated: one per (model, corpus,
    /// combination), plus each searched context's FP16 baseline.
    pub evaluated: usize,
}

/// One prepared context and everything searched on it.
struct Context {
    prepared: Rc<Prepared>,
    /// Calibration perplexity per combination; `None` is the
    /// FP16-activation baseline.
    calibration_ppl: HashMap<Option<PrecisionCombo>, f64>,
    /// Outcomes by tolerance δ.
    searches: Vec<(f64, SearchOutcome)>,
}

/// [`PplEvaluator`] behind a context's calibration-perplexity memo: a
/// combination any earlier search of the context scored is not run again.
struct MemoEvaluator<'a> {
    inner: PplEvaluator<'a>,
    memo: &'a mut HashMap<Option<PrecisionCombo>, f64>,
}

impl AccuracyEvaluator for MemoEvaluator<'_> {
    fn baseline(&mut self) -> f64 {
        let Self { inner, memo } = self;
        *memo.entry(None).or_insert_with(|| inner.baseline())
    }

    fn evaluate(&mut self, combo: PrecisionCombo) -> f64 {
        let Self { inner, memo } = self;
        *memo
            .entry(Some(combo))
            .or_insert_with(|| inner.evaluate(combo))
    }

    fn evaluations(&self) -> usize {
        self.inner.evaluations()
    }
}

/// The memoising context the artefacts of the `figures` registry share
/// (see the module docs for what is memoised).
pub struct Ctx {
    models: Option<usize>,
    /// By (real model name, corpus name).
    contexts: HashMap<(String, String), Context>,
}

impl Ctx {
    /// A context whose model-limited artefacts cover the first `models`
    /// benchmark models (all nine when `None`).
    pub fn new(models: Option<usize>) -> Self {
        Ctx {
            models,
            contexts: HashMap::new(),
        }
    }

    /// The benchmark models a model-limited artefact covers, in paper
    /// order.
    pub fn models(&self) -> Vec<SimModelSpec> {
        sim_models()
            .into_iter()
            .filter(|s| s.sim.name != "OPT-125M-sim")
            .take(self.models.unwrap_or(usize::MAX))
            .collect()
    }

    /// How much has been built so far.
    pub fn counts(&self) -> Counts {
        let contexts = self.contexts.values();
        Counts {
            prepared: contexts.len(),
            searched: contexts.clone().map(|c| c.searches.len()).sum(),
            evaluated: contexts.map(|c| c.calibration_ppl.len()).sum(),
        }
    }

    fn context(&mut self, model: &str, corpus_name: &str) -> &mut Context {
        self.contexts
            .entry((model.into(), corpus_name.into()))
            .or_insert_with(|| {
                let spec = sim_model(model).unwrap_or_else(|| panic!("no zoo model {model}"));
                let corpus =
                    corpus(corpus_name).unwrap_or_else(|| panic!("no corpus {corpus_name}"));
                Context {
                    prepared: Rc::new(Prepared::new(spec, corpus)),
                    calibration_ppl: HashMap::new(),
                    searches: Vec::new(),
                }
            })
    }

    /// The context of a zoo model (by its real name, e.g. `"OPT-6.7B"`)
    /// on a catalog corpus, prepared on first use.
    ///
    /// # Panics
    ///
    /// Panics if either name is not in its catalog.
    pub fn prepared(&mut self, model: &str, corpus: &str) -> Rc<Prepared> {
        Rc::clone(&self.context(model, corpus).prepared)
    }

    /// [`Prepared::search`] at tolerance δ on that context, run on first
    /// use: equal to it in `best`, `best_bops`, `baseline_ppl` and
    /// `trace`; `evaluations` counts only what the memo did not hold.
    ///
    /// # Panics
    ///
    /// Panics if either name is not in its catalog.
    pub fn search(&mut self, model: &str, corpus: &str, tolerance: f64) -> SearchOutcome {
        let context = self.context(model, corpus);
        if let Some((_, outcome)) = context.searches.iter().find(|(t, _)| *t == tolerance) {
            return outcome.clone();
        }
        let p = &context.prepared;
        let outcome = adaptive_precision_search(
            &p.spec.sim,
            &mut MemoEvaluator {
                inner: PplEvaluator::new(&p.quant_model, &p.data.calibration, WINDOW),
                memo: &mut context.calibration_ppl,
            },
            &SearchConfig::with_tolerance(tolerance),
        );
        context.searches.push((tolerance, outcome.clone()));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_context_is_consistent() {
        let p = Ctx::new(None).prepared("OPT-1.3B", "wikitext2-sim");
        assert_eq!(p.data.calibration.len(), CALIBRATION_LEN);
        assert_eq!(p.data.validation.len(), VALIDATION_LEN);
        assert_eq!(p.quant_model.mode(), anda_llm::model::WeightMode::Int4);
    }

    #[test]
    fn model_limit_bounds_the_benchmark_models() {
        let names = |limit| -> Vec<String> {
            let models = Ctx::new(limit).models();
            models.into_iter().map(|s| s.real.name).collect()
        };
        assert_eq!(names(Some(2)), ["OPT-1.3B", "OPT-2.7B"]);
        assert_eq!(names(Some(0)), [""; 0]);
        let all = names(None);
        assert_eq!(all.len(), 9);
        assert!(!all.contains(&"OPT-125M".to_string()));
    }
}
