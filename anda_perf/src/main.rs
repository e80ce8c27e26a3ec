//! `anda_perf` — the repo's seeded benchmark (see README.md beside
//! `Cargo.toml` for workloads, metrics and how to compare two commits).
//!
//! ```text
//! anda_perf --workload <name|all> --seed <u64> [--seconds S] [--trace 0|1]
//!           [--threads N] [--quick] [--fp16-twin]
//!           [--out report.json] [--trace-file spans.json]
//! anda_perf --compare a.json b.json
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with
//! tracing off; `--trace 1` is the separate traced run that yields the
//! per-layer metrics. Either way the last line of standard output is the
//! result line described in `report.rs`.

mod api;
mod layers;
mod probes;
mod refclock;
mod report;
mod search;
mod serving;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use anda_llm::Model;
use rayon_lite::ThreadPool;

use refclock::RefClock;
use report::{Measured, Metrics, Report, WorkloadReport, SERVING_END_TO_END};
use serving::{check_pass, run_pass, tokens_digest, Check, Pass};
use trace::Tracer;
use workloads::{pass_seed, shape_seed, GenRequest, Pages, Workload};

/// Set-ups timed before the warm-up. The untraced run times one more
/// after every measured pass, so `setup_s` — the median of them all — is
/// sampled across the whole run like every other metric.
const SETUP_REPEATS: usize = 3;

/// Shares of a traced run's `--seconds`: traced passes with their
/// untraced references, then the layer ladder.
const TRACED_PASSES_SHARE: f64 = 0.7;
const LADDER_SHARE: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
    threads: usize,
    quick: bool,
    fp16_twin: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: anda_perf --workload <name|all> --seed <u64> [--seconds S] [--trace 0|1] \
     [--threads N] [--quick] [--fp16-twin] [--out report.json] [--trace-file spans.json]\n       \
     anda_perf --compare a.json b.json"
        .to_string()
}

fn parse_args(argv: &[String], nproc: usize) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 26.0,
        trace: false,
        trace_file: None,
        threads: 1,
        quick: false,
        fp16_twin: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 || args.threads > nproc {
                    return Err(format!(
                        "--threads {} refused: this machine has {nproc} processors",
                        args.threads
                    ));
                }
            }
            "--quick" => args.quick = true,
            "--fp16-twin" => args.fp16_twin = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// Calls `round(k)` for k = 0, 1, … until the `seconds` budget is used:
/// another round starts only while the time spent plus a typical round
/// still fits, and at least one always runs.
fn fill_budget(seconds: f64, mut round: impl FnMut(usize)) {
    let started = Instant::now();
    for k in 0.. {
        round(k);
        let spent = started.elapsed().as_secs_f64();
        if spent + spent / (k + 1) as f64 > seconds {
            return;
        }
    }
}

/// One pass with its requests: shape `shape_seed(k)`, content
/// `pass_seed(seed, k)`.
struct Run {
    requests: Vec<GenRequest>,
    pass: Pass,
}

fn one_run(
    model: &Model,
    w: &Workload,
    pool: &ThreadPool,
    seed: u64,
    k: usize,
    stop_after: Option<u64>,
    tracer: &mut Tracer,
) -> Run {
    let shape = shape_seed(k);
    let requests = w.requests(shape, pass_seed(seed, k));
    let pass = run_pass(model, w, pool, &requests, shape, stop_after, tracer);
    Run { requests, pass }
}

/// Structural check of every pass, oracle re-generation on pass 0.
fn check_runs(model: &Model, w: &Workload, runs: &[Run], threads: usize) -> Check {
    let mut total = Check::default();
    for (k, run) in runs.iter().enumerate() {
        let c = check_pass(model, w, &run.requests, &run.pass, k == 0, threads);
        total.attempted += c.attempted;
        total.failed += c.failed;
        total.verified += c.verified;
    }
    total
}

/// The median over passes of one statistic of a pass.
fn median_over_passes(runs: &[Run], stat: impl Fn(&Pass) -> f64) -> f64 {
    let mut per_pass: Vec<f64> = runs.iter().map(|r| stat(&r.pass)).collect();
    stats::median(&mut per_pass)
}

/// The end-to-end metrics of the untraced passes, whose times are
/// already at reference speed. Rates are the median over passes; latency
/// percentiles are taken over the samples of all passes together.
fn end_to_end(
    w: &Workload,
    model: &Model,
    runs: &[Run],
    setups: &mut [f64],
    check: &Check,
) -> Vec<Measured> {
    let mut m = Metrics::new(&SERVING_END_TO_END);
    m.put("setup_s", stats::median(setups), setups.len());
    m.put(
        "output_tokens_per_s",
        median_over_passes(runs, |p| p.output_tokens() as f64 / p.wall_s),
        runs.len(),
    );
    m.put(
        "prompt_tokens_per_s",
        median_over_passes(runs, |p| p.prompt_positions() as f64 / p.wall_s),
        runs.len(),
    );
    let outcomes = || runs.iter().flat_map(|r| r.pass.outcomes.iter());
    let mut ttft: Vec<f64> = outcomes()
        .filter(|o| !o.tokens.is_empty())
        .map(|o| o.ttft_ms)
        .collect();
    stats::sort(&mut ttft);
    m.put("ttft_ms_p50", stats::percentile(&ttft, 50.0), ttft.len());
    let mut gaps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.pass.gaps_ms.iter().copied())
        .collect();
    stats::sort(&mut gaps);
    m.put("tpot_ms_p50", stats::percentile(&gaps, 50.0), gaps.len());
    m.put("tpot_ms_p99", stats::percentile(&gaps, 99.0), gaps.len());
    // Share of requests sent that met both limits, over the whole run; a
    // request that was refused, came back short or differed from the
    // oracle misses.
    let sent = outcomes().count();
    let met = outcomes()
        .filter(|o| {
            !o.tokens.is_empty()
                && o.ttft_ms <= w.slo_ms.0
                && (o.mean_tpot_ms.is_nan() || o.mean_tpot_ms <= w.slo_ms.1)
        })
        .count()
        .saturating_sub(check.failed);
    m.put("slo_attainment", met as f64 / sent as f64, sent);
    // Exact: pass 0 serves the same schedule on every run and seed.
    m.put(
        "kv_peak_mib",
        (runs[0].pass.counters.peak_pages_in_use * api::page_bits(w, model)) as f64
            / 8.0
            / (1 << 20) as f64,
        1,
    );
    m.finish()
}

/// One set-up — model synthesis, weight quantization, engine
/// construction — timed into `setups` (s, at reference speed like every
/// end-to-end time: reference slices run between the three calls) and
/// `quantize_ms` (as measured).
fn timed_setup(
    w: &Workload,
    pool: &ThreadPool,
    setups: &mut Vec<f64>,
    quantize_ms: &mut Vec<f64>,
) -> Model {
    let mut clock = RefClock::start();
    let fp16 = api::synthesize_bench_m();
    clock.tick();
    let q = clock.now();
    let built = api::quantize_w4(&fp16);
    quantize_ms.push((clock.now() - q) * 1e3);
    clock.tick();
    drop(api::Served::new(&built, w, pool));
    let took = clock.now();
    clock.tick();
    setups.push(took / clock.slowdown());
    built
}

fn run_serving(
    w: &Workload,
    args: &Args,
    pool: &ThreadPool,
    tracer: &mut Tracer,
) -> WorkloadReport {
    let mut w = if args.quick {
        w.scaled(w.requests_per_pass / 10)
    } else {
        *w
    };
    if args.fp16_twin {
        w.pages = Pages::Fp16;
    }
    let seconds = if args.quick { 0.0 } else { args.seconds };

    let (mut setups, mut quantize_ms) = (Vec::new(), Vec::new());
    let mut model = timed_setup(&w, pool, &mut setups, &mut quantize_ms);
    for _ in 1..SETUP_REPEATS {
        model = timed_setup(&w, pool, &mut setups, &mut quantize_ms);
    }

    // Untimed warm-up: a short pass fills caches and finishes lazy set-up.
    let warm = w.scaled(w.requests_per_pass / 8);
    one_run(
        &model,
        &warm,
        pool,
        args.seed,
        usize::MAX,
        None,
        &mut Tracer::off(),
    );

    let (runs, slowdown, check, metrics) = if !args.trace {
        let mut untraced: Vec<Run> = Vec::new();
        let mut slowdowns = Vec::new();
        fill_budget(seconds, |k| {
            let mut off = Tracer::off();
            let mut run = one_run(&model, &w, pool, args.seed, k, None, &mut off);
            let (slowdown, wall_s) = (run.pass.slowdown, run.pass.wall_s);
            slowdowns.push(slowdown);
            run.pass = run.pass.at_reference_speed();
            println!(
                "pass {k}: {wall_s:.3} s on the wall, slowdown {slowdown:.3}, \
                 at reference speed {:.3} s, {:.1} output tok/s",
                run.pass.wall_s,
                run.pass.output_tokens() as f64 / run.pass.wall_s
            );
            untraced.push(run);
            timed_setup(&w, pool, &mut setups, &mut quantize_ms);
        });
        let check = check_runs(&model, &w, &untraced, args.threads);
        let metrics = end_to_end(&w, &model, &untraced, &mut setups, &check);
        (untraced, stats::median(&mut slowdowns), check, metrics)
    } else {
        // The traced run: each pass traced, then the first third of its
        // steps again with tracing off — the schedule repeats exactly, so
        // the time the same steps took either way is the tracing
        // overhead — then the ladder.
        let mut traced: Vec<Run> = Vec::new();
        let mut slowdowns = Vec::new();
        let mut rows_decoded = 0;
        fill_budget(seconds * TRACED_PASSES_SHARE, |k| {
            let before = probes::rows_decoded();
            let run = one_run(&model, &w, pool, args.seed, k, None, tracer);
            if k == 0 {
                rows_decoded = probes::rows_decoded() - before;
            }
            let third = (run.pass.steps.len() / 3).max(1);
            let mut off = Tracer::off();
            let reference = one_run(&model, &w, pool, args.seed, k, Some(third as u64), &mut off);
            slowdowns.push(run.pass.steps[third - 1].done_at_s / reference.pass.wall_s);
            traced.push(run);
        });
        let passes: Vec<&Pass> = traced.iter().map(|r| &r.pass).collect();
        let batch = layers::decode_batch(passes[0]).unwrap_or(w.max_batch);
        let ladder = probes::run_ladder(&model, pool, &w, batch, seconds * LADDER_SHARE, tracer);
        let check = check_runs(&model, &w, &traced, args.threads);
        // Per-layer times stay as measured, like the ladder's; the
        // machine's slowdown is reported beside them.
        let slowdown = stats::median(&mut passes.iter().map(|p| p.slowdown).collect::<Vec<_>>());
        let metrics = layers::per_layer(&layers::Traced {
            passes: &passes,
            tracer,
            ladder: &ladder,
            reference_slowdown: slowdown,
            trace_overhead_pct: (stats::median(&mut slowdowns) - 1.0) * 100.0,
            quantize_weights_ms: stats::median(&mut quantize_ms),
            rows_decoded,
            batch,
        });
        (traced, slowdown, check, metrics)
    };

    WorkloadReport {
        workload: w.name.to_string(),
        seed: args.seed,
        traced: args.trace,
        passes: runs.len(),
        attempted: check.attempted,
        failed: check.failed,
        verified: check.verified,
        tokens_digest: tokens_digest(&runs[0].pass.outcomes),
        reference_slowdown: Some(slowdown),
        metrics,
    }
}

/// The commit being measured: `GITHUB_SHA` when set, else what
/// `.git/HEAD` of the working directory points at (read directly — the
/// benchmark starts no process and looks at nothing above its checkout),
/// else `unknown`.
fn commit_id() -> String {
    let from_git = || {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).ok(),
            None => Some(head.to_string()),
        }
    };
    std::env::var("GITHUB_SHA")
        .ok()
        .or_else(from_git)
        .map(|s| s.trim().chars().take(12).collect::<String>())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv else {
            return Err(usage());
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let cmp = report::compare(&read(a)?, &read(b)?)?;
        print!("{}", cmp.text);
        return Ok(if cmp.breaches == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let args = parse_args(argv, nproc)?;
    let names: Vec<&str> = if args.workload == "all" {
        workloads::SERVING
            .iter()
            .map(|w| w.name)
            .chain([workloads::PRECISION_SEARCH])
            .collect()
    } else {
        vec![args.workload.as_str()]
    };
    if let Some(unknown) = names
        .iter()
        .find(|n| **n != workloads::PRECISION_SEARCH && workloads::serving(n).is_none())
    {
        return Err(format!(
            "unknown workload {unknown}; known: {}, {}, all",
            workloads::SERVING.map(|w| w.name).join(", "),
            workloads::PRECISION_SEARCH
        ));
    }

    // Pin the library's global pool to the same width as the explicit
    // one, before the first library call can create it.
    std::env::set_var("ANDA_THREADS", args.threads.to_string());
    let pool = ThreadPool::new(args.threads);
    let (simd_leg, cpu_features) = api::simd_leg_and_cpu_features();
    let mut report = Report {
        commit: commit_id(),
        threads: args.threads,
        nproc,
        simd_leg: simd_leg.to_string(),
        cpu_features,
        workloads: Vec::new(),
    };
    println!(
        "anda_perf commit {} threads {} nproc {} simd {} cpu [{}]",
        report.commit, report.threads, report.nproc, report.simd_leg, report.cpu_features
    );

    // One tracer per workload, on a shared clock: each becomes a lane
    // of the trace file.
    let origin = Instant::now();
    let mut tracers: Vec<(&str, Tracer)> = Vec::new();
    for name in names {
        let mut tracer = Tracer::new(args.trace, origin);
        let result = match workloads::serving(name) {
            Some(w) => run_serving(w, &args, &pool, &mut tracer),
            None => search::run(args.seed, args.quick, args.trace, &mut tracer),
        };
        print!("{}", result.table());
        println!("{}", result.result_line());
        report.workloads.push(result);
        tracers.push((name, tracer));
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.trace_file {
        let lanes: Vec<(&str, &[trace::Span])> =
            tracers.iter().map(|(n, t)| (*n, t.spans())).collect();
        std::fs::write(path, trace::chrome_trace_json(&lanes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // A run that printed its result lines succeeded as a measurement;
    // failed operations are in the lines (`correct`, `failed`).
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Json, MetricDef, SEARCH_END_TO_END, SEARCH_PER_LAYER, SERVING_PER_LAYER};

    fn quick_args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.0,
            trace,
            trace_file: None,
            threads: 1,
            quick: true,
            fp16_twin: false,
            out: None,
        }
    }

    fn assert_complete(report: &WorkloadReport, defs: &[MetricDef]) {
        let names: Vec<&str> = report.metrics.iter().map(|m| m.def.name).collect();
        let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, expected, "{}", report.workload);
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{}: {}", report.workload, m.def.name);
        }
        assert!(report.attempted > 0, "{}", report.workload);
        assert_eq!(report.failed, 0, "{}", report.workload);
        assert!(report.verified > 0, "{}", report.workload);
        assert!(report::parse_json(&report.result_line()).is_ok());
    }

    /// Every workload at a tenth of its size, untraced and traced: every
    /// named metric present and finite, nothing failed.
    #[test]
    fn quick_smoke_reports_every_metric_and_fails_nothing() {
        let pool = ThreadPool::new(1);
        for w in &workloads::SERVING {
            let untraced = run_serving(w, &quick_args(w.name, false), &pool, &mut Tracer::off());
            assert_complete(&untraced, &SERVING_END_TO_END);
            for m in &untraced.metrics {
                assert!(m.value > 0.0, "{}: {} is never 0", w.name, m.def.name);
            }
            let mut tracer = Tracer::new(true, Instant::now());
            let traced = run_serving(w, &quick_args(w.name, true), &pool, &mut tracer);
            assert_complete(&traced, &SERVING_PER_LAYER);
            let hit = traced
                .metrics
                .iter()
                .find(|m| m.def.name == "serve.prefix_hit_ratio")
                .map(|m| m.value);
            // Only the prefix-cache workload may hit (at this size even it
            // may not: three requests can draw three different prefixes).
            assert!(w.auto_prefix || hit == Some(0.0), "{}", w.name);
            assert!(tracer.spans().iter().any(|s| s.name == "serve.step"));
            assert!(tracer.spans().iter().any(|s| s.name == "bench.ladder"));
            assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        }
    }

    #[test]
    fn quick_smoke_precision_search() {
        let untraced = search::run(3, true, false, &mut Tracer::off());
        assert_complete(&untraced, &SEARCH_END_TO_END);
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = search::run(3, true, true, &mut tracer);
        assert_complete(&traced, &SEARCH_PER_LAYER);
        assert_eq!(untraced.tokens_digest, traced.tokens_digest);
    }

    /// Same seed, same pass: the served schedule and tokens repeat
    /// exactly. Another seed serves other tokens on the same schedule;
    /// another pass has another schedule.
    #[test]
    fn passes_repeat_exactly_on_a_seed() {
        let pool = ThreadPool::new(1);
        let model = api::quantize_w4(&api::synthesize_bench_m());
        let w = workloads::serving("serve_mixed").unwrap().scaled(12);
        let run = |seed, k| one_run(&model, &w, &pool, seed, k, None, &mut Tracer::off());
        let (a, b, c, d) = (run(5, 0), run(5, 0), run(6, 0), run(5, 1));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.pass.counters, b.pass.counters);
        assert_eq!(
            tokens_digest(&a.pass.outcomes),
            tokens_digest(&b.pass.outcomes)
        );
        assert_ne!(
            tokens_digest(&a.pass.outcomes),
            tokens_digest(&c.pass.outcomes)
        );
        assert_eq!(a.pass.counters, c.pass.counters);
        assert_ne!(a.pass.counters, d.pass.counters);
        let steps = |k| {
            api::Arrivals::poisson(shape_seed(k), 0.12, 12)
                .steps()
                .to_vec()
        };
        assert_eq!(steps(0), steps(0));
        assert_ne!(steps(0), steps(1));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(
            &argv("--workload serve_mixed --seed 9 --seconds 3 --trace 1"),
            2,
        )
        .unwrap();
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace, ok.threads),
            (9, 3.0, true, 1)
        );
        assert_eq!(parse_args(&argv("--workload x"), 1).unwrap().threads, 1);
        assert!(parse_args(&argv("--workload x --threads 3"), 2).is_err());
        assert!(parse_args(&argv("--workload x --threads 0"), 2).is_err());
        assert!(parse_args(&argv("--workload x --trace 2"), 2).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0"), 2).is_err());
        assert!(parse_args(&argv("--seed 1"), 2).is_err());
        assert!(parse_args(&argv("--workload x --bogus"), 2).is_err());
        assert!(run(&argv("--workload nope --seed 1")).is_err());
    }

    /// `BENCHMARK.json` at the repo root names exactly the workloads and
    /// metrics this program reports, with the same units, directions
    /// and bounds.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = report::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = workloads::SERVING
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));

        for (key, defs) in [
            ("end_to_end", &SERVING_END_TO_END[..]),
            ("per_layer", &SERVING_PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(text(entry, "name"), def.name);
                assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(entry, "better"), def.better.name(), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(
            seconds,
            parse_args(&["--workload".into(), "x".into()], 2)
                .unwrap()
                .seconds
        );
    }
}
