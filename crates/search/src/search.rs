//! The adaptive precision combination search (paper Algorithm 1, §III-C).
//!
//! A best-first search over 4-tuples `[M_qkv, M_o, M_u, M_d]`:
//!
//! 1. **Initialize** the priority queue with uniform combinations `[4,4,4,4]`
//!    … `[13,13,13,13]`.
//! 2. **Check** the queued combination with the lowest BOPs on the
//!    calibration set.
//! 3. **Update & relax**: if it beats the current best BOPs while staying
//!    within the accuracy tolerance, it becomes the best and its relaxations
//!    (each module decremented by one) are enqueued.
//!
//! The search is training-free and reuses the weight-quantization
//! calibration data; each iteration costs one forward pass over that data.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use anda_llm::config::ModelConfig;
use anda_llm::eval::perplexity_with_scratch;
use anda_llm::model::{ForwardScratch, Model};
use anda_llm::modules::{CodecAssignment, PrecisionCombo};

use crate::bops::bops_per_token;

/// Search hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchConfig {
    /// Relative accuracy-loss tolerance δ (e.g. `0.01` for 1%).
    pub tolerance: f64,
    /// Maximum iterations N (the paper limits deployment runs to 32).
    pub max_iterations: usize,
    /// Inclusive mantissa range of the uniform starting points.
    pub init_range: (u32, u32),
}

impl SearchConfig {
    /// The paper's deployment configuration at tolerance δ.
    pub fn with_tolerance(tolerance: f64) -> Self {
        SearchConfig {
            tolerance,
            max_iterations: 32,
            init_range: (4, 13),
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::with_tolerance(0.01)
    }
}

/// One search iteration record (the Fig. 9 trace rows).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchStep {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Combination evaluated this iteration.
    pub combo: PrecisionCombo,
    /// Its BOPs per token.
    pub bops: u64,
    /// Measured calibration perplexity.
    pub ppl: f64,
    /// Whether it became the new best.
    pub accepted: bool,
    /// Best combination after this iteration (None until one is found).
    pub best_after: Option<PrecisionCombo>,
}

/// Search result: best combination plus the full trace.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The optimized combination (None if nothing met the tolerance).
    pub best: Option<PrecisionCombo>,
    /// BOPs per token of the best combination.
    pub best_bops: u64,
    /// Baseline (FP16-activation) perplexity used for the tolerance check.
    pub baseline_ppl: f64,
    /// Per-iteration records.
    pub trace: Vec<SearchStep>,
    /// Number of accuracy evaluations performed (cache misses).
    pub evaluations: usize,
}

impl SearchOutcome {
    /// BOPs saving of the best combination versus the FP16 baseline.
    pub fn bops_saving(&self, cfg: &ModelConfig) -> Option<f64> {
        self.best.map(|b| crate::bops::bops_saving(cfg, b))
    }
}

/// Anything that can score a precision combination on calibration data.
///
/// The production implementation is [`PplEvaluator`]; tests use synthetic
/// landscapes.
pub trait AccuracyEvaluator {
    /// Perplexity of the FP16-activation baseline (lower is better).
    fn baseline(&mut self) -> f64;
    /// Perplexity under the given combination.
    fn evaluate(&mut self, combo: PrecisionCombo) -> f64;
    /// Number of (uncached) evaluations performed so far.
    fn evaluations(&self) -> usize;
}

/// Calibration-perplexity evaluator over a quantized model, with caching.
pub struct PplEvaluator<'a> {
    model: &'a Model,
    calibration: &'a [usize],
    window: usize,
    cache: HashMap<PrecisionCombo, f64>,
    baseline: Option<f64>,
    evaluations: usize,
    /// One forward scratch reused across every evaluation of the search.
    scratch: ForwardScratch,
}

impl<'a> PplEvaluator<'a> {
    /// Creates an evaluator over `calibration` tokens with the given
    /// evaluation window.
    pub fn new(model: &'a Model, calibration: &'a [usize], window: usize) -> Self {
        PplEvaluator {
            model,
            calibration,
            window,
            cache: HashMap::new(),
            baseline: None,
            evaluations: 0,
            scratch: ForwardScratch::new(),
        }
    }
}

impl AccuracyEvaluator for PplEvaluator<'_> {
    fn baseline(&mut self) -> f64 {
        if let Some(b) = self.baseline {
            return b;
        }
        let b = perplexity_with_scratch(
            self.model,
            &CodecAssignment::fp16(),
            self.calibration,
            self.window,
            &mut self.scratch,
        );
        self.baseline = Some(b);
        b
    }

    fn evaluate(&mut self, combo: PrecisionCombo) -> f64 {
        if let Some(&p) = self.cache.get(&combo) {
            return p;
        }
        let p = perplexity_with_scratch(
            self.model,
            &CodecAssignment::from_combo(combo),
            self.calibration,
            self.window,
            &mut self.scratch,
        );
        self.cache.insert(combo, p);
        self.evaluations += 1;
        p
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// Runs Algorithm 1 and returns the optimized combination with its trace.
pub fn adaptive_precision_search(
    model_cfg: &ModelConfig,
    evaluator: &mut dyn AccuracyEvaluator,
    search_cfg: &SearchConfig,
) -> SearchOutcome {
    // S1: initialize uniform starting points.
    let mut queue: BinaryHeap<Reverse<(u64, PrecisionCombo)>> = BinaryHeap::new();
    let (lo, hi) = search_cfg.init_range;
    for m in lo..=hi {
        let combo = PrecisionCombo::uniform(m);
        queue.push(Reverse((bops_per_token(model_cfg, combo), combo)));
    }

    let baseline_ppl = evaluator.baseline();
    let threshold = baseline_ppl * (1.0 + search_cfg.tolerance);

    let mut visited: HashSet<PrecisionCombo> = HashSet::new();
    let mut best: Option<PrecisionCombo> = None;
    let mut best_bops = u64::MAX;
    let mut trace = Vec::new();
    let mut iterations = 0usize;

    while iterations < search_cfg.max_iterations {
        // S2: pop the promising (lowest-BOPs) combination.
        let Some(Reverse((bops, combo))) = queue.pop() else {
            break;
        };
        if !visited.insert(combo) {
            continue; // duplicate queue entry, does not consume an iteration
        }
        // The queue pops in BOPs order and relaxations of an accepted combo
        // are strictly cheaper, so once a popped combination cannot beat the
        // best BOPs nothing remaining can either: terminate early.
        if best.is_some() && bops >= best_bops {
            break;
        }
        iterations += 1;
        let ppl = evaluator.evaluate(combo);

        // S3: update and relax.
        let accepted = bops < best_bops && ppl <= threshold;
        if accepted {
            best = Some(combo);
            best_bops = bops;
            for n in combo.relaxations() {
                if !visited.contains(&n) {
                    queue.push(Reverse((bops_per_token(model_cfg, n), n)));
                }
            }
        }
        trace.push(SearchStep {
            iteration: iterations,
            combo,
            bops,
            ppl,
            accepted,
            best_after: best,
        });
    }

    SearchOutcome {
        best,
        best_bops,
        baseline_ppl,
        trace,
        evaluations: evaluator.evaluations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_llm::zoo;

    /// Synthetic landscape: a combo is "accurate enough" iff every module
    /// meets a per-module minimum mantissa.
    struct ThresholdLandscape {
        minima: [u32; 4],
        evals: usize,
    }

    impl AccuracyEvaluator for ThresholdLandscape {
        fn baseline(&mut self) -> f64 {
            10.0
        }
        fn evaluate(&mut self, combo: PrecisionCombo) -> f64 {
            self.evals += 1;
            let ok = combo.0.iter().zip(&self.minima).all(|(&m, &min)| m >= min);
            if ok {
                10.0
            } else {
                20.0
            }
        }
        fn evaluations(&self) -> usize {
            self.evals
        }
    }

    fn search_cfg() -> SearchConfig {
        SearchConfig::with_tolerance(0.01)
    }

    #[test]
    fn finds_exact_minima_on_threshold_landscape() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let mut land = ThresholdLandscape {
            minima: [7, 7, 6, 5],
            evals: 0,
        };
        let mut scfg = search_cfg();
        scfg.max_iterations = 64;
        let out = adaptive_precision_search(&cfg, &mut land, &scfg);
        assert_eq!(out.best, Some(PrecisionCombo([7, 7, 6, 5])));
    }

    #[test]
    fn fig9_trace_shape_uniform_then_relaxed() {
        let cfg = zoo::real_opt_125m();
        let mut land = ThresholdLandscape {
            minima: [7, 7, 6, 5],
            evals: 0,
        };
        let out = adaptive_precision_search(&cfg, &mut land, &search_cfg());
        // First iterations walk the uniform ladder until [7,7,7,7] passes.
        assert_eq!(out.trace[0].combo, PrecisionCombo::uniform(4));
        assert!(!out.trace[0].accepted);
        let first_accept = out.trace.iter().find(|s| s.accepted).unwrap();
        assert_eq!(first_accept.combo, PrecisionCombo::uniform(7));
        // And the search refines below the uniform solution.
        let best = out.best.unwrap();
        assert!(best.0.iter().sum::<u32>() < 28, "best {best}");
    }

    #[test]
    fn respects_iteration_limit() {
        let cfg = zoo::real_model("LLaMA-7B").unwrap();
        let mut land = ThresholdLandscape {
            minima: [5, 5, 5, 5],
            evals: 0,
        };
        let mut scfg = search_cfg();
        scfg.max_iterations = 3;
        let out = adaptive_precision_search(&cfg, &mut land, &scfg);
        assert!(out.trace.len() <= 3);
    }

    #[test]
    fn infeasible_landscape_returns_none() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let mut land = ThresholdLandscape {
            minima: [16, 16, 16, 16], // nothing in 4..=13 passes
            evals: 0,
        };
        let out = adaptive_precision_search(&cfg, &mut land, &search_cfg());
        assert_eq!(out.best, None);
        assert!(out.trace.iter().all(|s| !s.accepted));
    }

    #[test]
    fn never_evaluates_a_combo_twice() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let mut land = ThresholdLandscape {
            minima: [6, 5, 5, 4],
            evals: 0,
        };
        let mut scfg = search_cfg();
        scfg.max_iterations = 64;
        let out = adaptive_precision_search(&cfg, &mut land, &scfg);
        let mut seen = std::collections::HashSet::new();
        for s in &out.trace {
            assert!(seen.insert(s.combo), "revisited {}", s.combo);
        }
    }

    #[test]
    fn accepted_steps_have_decreasing_bops() {
        let cfg = zoo::real_model("OPT-13B").unwrap();
        let mut land = ThresholdLandscape {
            minima: [6, 6, 5, 5],
            evals: 0,
        };
        let mut scfg = search_cfg();
        scfg.max_iterations = 64;
        let out = adaptive_precision_search(&cfg, &mut land, &scfg);
        let accepted: Vec<u64> = out
            .trace
            .iter()
            .filter(|s| s.accepted)
            .map(|s| s.bops)
            .collect();
        assert!(accepted.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn best_is_feasible_and_minimal_among_trace() {
        let cfg = zoo::real_model("OPT-6.7B").unwrap();
        let mut land = ThresholdLandscape {
            minima: [7, 6, 6, 5],
            evals: 0,
        };
        let mut scfg = search_cfg();
        scfg.max_iterations = 64;
        let out = adaptive_precision_search(&cfg, &mut land, &scfg);
        let best = out.best.unwrap();
        // Feasible:
        assert!(best.0.iter().zip(&[7, 6, 6, 5]).all(|(&m, &min)| m >= min));
        // Minimal among evaluated feasible combos:
        let min_feasible = out
            .trace
            .iter()
            .filter(|s| s.ppl <= 10.0 * 1.01)
            .map(|s| s.bops)
            .min()
            .unwrap();
        assert_eq!(out.best_bops, min_feasible);
    }

    #[test]
    fn ppl_evaluator_caches() {
        let spec = zoo::opt_125m_sim();
        let model = spec.build();
        let tokens: Vec<usize> = (0..96).map(|i| (i * 7) % 500).collect();
        let mut ev = PplEvaluator::new(&model, &tokens, 48);
        let c = PrecisionCombo::uniform(8);
        let a = ev.evaluate(c);
        let b = ev.evaluate(c);
        assert_eq!(a, b);
        assert_eq!(ev.evaluations(), 1);
    }
}
