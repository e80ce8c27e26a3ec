//! The `precision_search` workload: the paper's adaptive precision
//! search on zoo models, then validation and the simulator.
//!
//! Per model: `Prepared::new` (set-up), `search(0.001)` and
//! `search(0.01)`, validation-split perplexity of each found
//! combination, then `simulate_model` on the real-dimension config with
//! it. Nothing of `serve` or `kv` runs — this is the tensor, quant and
//! format layers in their other mode (batch GEMM plus the fake-quant
//! codec instead of GEMV plus the row codec). The `--seed` picks the
//! calibration and validation text.

use std::time::Instant;

use anda_bench::runs::{Prepared, WINDOW};
use anda_llm::corpus::corpus;
use anda_llm::zoo::sim_model;
use anda_llm::{perplexity, relative_accuracy_loss, CodecAssignment, PrecisionCombo};
use anda_search::{
    adaptive_precision_search, AccuracyEvaluator, PplEvaluator, SearchConfig, SearchOutcome,
};
use anda_sim::system::{geo_mean, simulate_baseline, simulate_model};
use anda_sim::PeKind;

use crate::report::{Metrics, WorkloadReport, SEARCH_END_TO_END, SEARCH_PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Rng, PRECISION_SEARCH};

const MODELS: [&str; 3] = ["OPT-1.3B", "OPT-6.7B", "LLaMA-7B"];
const TOLERANCES: [f64; 2] = [0.001, 0.01];

/// A [`PplEvaluator`] whose every uncached evaluation is a span.
struct SpannedEvaluator<'a, 't> {
    inner: PplEvaluator<'a>,
    tracer: &'t mut Tracer,
}

impl AccuracyEvaluator for SpannedEvaluator<'_, '_> {
    fn baseline(&mut self) -> f64 {
        let Self { inner, tracer } = self;
        tracer.span("search.eval", None, || inner.baseline())
    }

    fn evaluate(&mut self, combo: PrecisionCombo) -> f64 {
        let Self { inner, tracer } = self;
        tracer.span("search.eval", None, || inner.evaluate(combo))
    }

    fn evaluations(&self) -> usize {
        self.inner.evaluations()
    }
}

/// One search through the front door (`Prepared::search`) when untraced,
/// through the spanned evaluator when traced; the algorithm and its
/// inputs are the same.
fn search(p: &Prepared, tolerance: f64, tracer: &mut Tracer) -> SearchOutcome {
    if !tracer.enabled() {
        return p.search(tolerance);
    }
    let mut evaluator = SpannedEvaluator {
        inner: PplEvaluator::new(&p.quant_model, &p.data.calibration, WINDOW),
        tracer,
    };
    adaptive_precision_search(
        &p.spec.sim,
        &mut evaluator,
        &SearchConfig::with_tolerance(tolerance),
    )
}

#[derive(Default)]
struct Searched {
    search_s: f64,
    attempted: usize,
    failed: usize,
    savings: Vec<f64>,
    worst_loss_pct: f64,
    evaluations: usize,
    iterations: usize,
    speedups: Vec<f64>,
    energy_effs: Vec<f64>,
    simulate_ms: Vec<f64>,
    digest: u64,
}

/// Set-up: synthesizes, quantizes and calibrates each model on the
/// seed's text. `--quick` keeps the first model only.
fn prepare(seed: u64, quick: bool) -> Vec<Prepared> {
    let models = if quick { &MODELS[..1] } else { &MODELS[..] };
    let mut text = corpus("wikitext2-sim").expect("wikitext2-sim is in the corpus catalog");
    text.seed ^= Rng::new(seed).next_u64();
    models
        .iter()
        .map(|name| Prepared::new(sim_model(name).expect("zoo model"), text))
        .collect()
}

/// The timed region: every search, its validation and its simulation.
fn search_all(prepared: &[Prepared], quick: bool, tracer: &mut Tracer) -> Searched {
    let tolerances = if quick {
        &TOLERANCES[1..]
    } else {
        &TOLERANCES[..]
    };
    let mut out = Searched {
        worst_loss_pct: f64::NEG_INFINITY,
        digest: 0xcbf2_9ce4_8422_2325,
        ..Searched::default()
    };

    let t = Instant::now();
    for p in prepared {
        let baseline = perplexity(
            &p.quant_model,
            &CodecAssignment::fp16(),
            &p.data.validation,
            WINDOW,
        );
        for &tolerance in tolerances {
            out.attempted += 1;
            let span = tracer.begin("search.search", None);
            let outcome = search(p, tolerance, tracer);
            tracer.end(span);
            out.evaluations += outcome.evaluations;
            out.iterations += outcome.trace.len();
            let (Some(combo), Some(saving)) = (outcome.best, outcome.bops_saving(&p.spec.sim))
            else {
                out.failed += 1;
                continue;
            };
            out.savings.push(saving);
            for m in combo.0 {
                out.digest = (out.digest ^ m as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let validated = perplexity(
                &p.quant_model,
                &CodecAssignment::from_combo(combo),
                &p.data.validation,
                WINDOW,
            );
            out.worst_loss_pct = out
                .worst_loss_pct
                .max(relative_accuracy_loss(baseline, validated) * 100.0);

            let real = &p.spec.real;
            let seq = real.max_seq.min(2048);
            let span = tracer.begin("sim.simulate_model", None);
            let sim_started = Instant::now();
            let base = simulate_baseline(real, seq);
            let anda = simulate_model(real, seq, PeKind::Anda, combo);
            out.simulate_ms
                .push(sim_started.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            out.speedups.push(anda.speedup_vs(&base));
            out.energy_effs.push(anda.energy_efficiency_vs(&base));
        }
    }
    out.search_s = t.elapsed().as_secs_f64();
    out
}

/// Runs the workload and reports its end-to-end metrics (untraced) or
/// its per-layer metrics (traced; the untraced run is repeated first so
/// the tracing overhead is the difference between the two).
pub fn run(seed: u64, quick: bool, traced: bool, tracer: &mut Tracer) -> WorkloadReport {
    let t = Instant::now();
    let prepared = prepare(seed, quick);
    let setup_s = t.elapsed().as_secs_f64();
    let untraced = search_all(&prepared, quick, &mut Tracer::off());
    let (result, metrics) = if traced {
        let result = search_all(&prepared, quick, tracer);
        let mut m = Metrics::new(&SEARCH_PER_LAYER);
        let mut evals = tracer.durations_ms("search.eval");
        let mut sims = result.simulate_ms.clone();
        m.put("search.evaluations", result.evaluations as f64, 1);
        m.put("search.iterations", result.iterations as f64, 1);
        m.put("search.eval_ms_p50", stats::median(&mut evals), evals.len());
        // One evaluation forwards the calibration split window by window.
        let windows = anda_bench::runs::CALIBRATION_LEN.div_ceil(WINDOW);
        m.put(
            "llm.forward_ms",
            stats::median(&mut evals) / windows as f64,
            evals.len() * windows,
        );
        m.put(
            "sim.simulate_model_ms",
            stats::median(&mut sims),
            sims.len(),
        );
        m.put(
            "sim.speedup_vs_fpfp",
            geo_mean(&result.speedups),
            result.speedups.len(),
        );
        m.put(
            "sim.energy_eff_vs_fpfp",
            geo_mean(&result.energy_effs),
            result.energy_effs.len(),
        );
        m.put(
            "bench.trace_overhead_pct",
            (result.search_s - untraced.search_s) / untraced.search_s * 100.0,
            1,
        );
        (result, m.finish())
    } else {
        let mut m = Metrics::new(&SEARCH_END_TO_END);
        m.put("setup_s", setup_s, 1);
        m.put("search_s", untraced.search_s, untraced.attempted);
        m.put(
            "search_bops_saving",
            geo_mean(&untraced.savings),
            untraced.savings.len(),
        );
        m.put(
            "search_ppl_loss_pct",
            untraced.worst_loss_pct,
            untraced.savings.len(),
        );
        let metrics = m.finish();
        (untraced, metrics)
    };
    WorkloadReport {
        workload: PRECISION_SEARCH.to_string(),
        seed,
        traced,
        passes: 1,
        attempted: result.attempted,
        failed: result.failed,
        verified: result.attempted - result.failed,
        tokens_digest: result.digest,
        reference_slowdown: None,
        metrics,
    }
}
