//! Serving throughput: aggregate decode tokens/s vs batch width.
//!
//! Continuous batching rides the `rayon-lite` pool: each engine iteration
//! advances the whole batch through one grouped batched-attention call
//! and runs the LM head as one batched dispatch, so wider batches
//! amortize both the pool dispatch and the per-iteration bookkeeping.
//! Every stream's tokens are bit-identical to its solo `Model::generate`
//! (enforced by `crates/serve/tests/batched_exact.rs`), so this bench is
//! pure throughput.
//!
//! The acceptance bar for the serving work is higher aggregate tokens/s
//! at `--batch 4` than at `--batch 1` on the default synth model (needs
//! >1 pool thread, of course; the pool is sized by `ANDA_THREADS`).
//!
//! A second scenario measures what a bounded prefill budget buys: a
//! short request is mid-decode when a long prompt arrives, and the
//! short stream's TTFT and TPOT (p50/p99) are reported for the
//! unbounded budget (`prefill_chunk_tokens: None`, the whole prompt in
//! one span — the `monolithic` keys) vs a chunk budget (the `chunked`
//! keys). It is a budget comparison through one code path. The chunked
//! leg doubles as a structural check — the short stream must sample on
//! every step the long prompt is still prefilling, and
//! `stalled_prefill_tokens` must stay zero.
//!
//! The third scenario is the SLO harness: mixed-priority requests
//! arrive on a seeded Poisson schedule and are served through the
//! [`Engine`] front door against a page-bounded pool, reporting
//! per-priority-class TTFT/TPOT p50/p99 and goodput in *virtual steps*
//! (deterministic across machines). A FIFO leg replays the identical
//! arrivals with priorities and preemption off; the smoke run enforces
//! that priority admission leaves high-priority TTFT p99 no worse than
//! FIFO.
//!
//! Usage: `serve_throughput [--smoke] [--enforce] [--batch A,B,…]
//!         [--requests N] [--new T] [--prompt P]`
//!
//! `--enforce` turns the `batch4_vs_batch1 >= 1.0` bar into the exit
//! code (skipped on a single-threaded pool or a timesliced single
//! core, where no speedup is possible).

use std::time::Instant;

use anda_bench::{arg_val, workload_prompt, BenchReport, Table};
use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_serve::{
    ArrivalSchedule, Engine, KvPoolConfig, Priority, Replay, Request, RequestState, Scheduler,
    SchedulerConfig,
};

/// The benchmark workload: `n` requests with staggered prompts and seeds.
fn workload(model: &Model, n: usize, prompt_len: usize, max_new: usize) -> Vec<Request> {
    let vocab = model.config().vocab;
    (0..n)
        .map(|i| {
            Request::builder(workload_prompt(i, prompt_len, vocab))
                .max_new(max_new)
                .temperature(0.8)
                .seed(i as u64)
                .build()
                .unwrap()
        })
        .collect()
}

/// Wall time and sampled-token count of serving `reqs` at `max_batch`.
fn serve_once(model: &Model, reqs: &[Request], max_batch: usize) -> (f64, u64) {
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch,
            kv: KvPoolConfig::default(),
            ..SchedulerConfig::default()
        },
    );
    for r in reqs {
        sched.submit(r.clone()).expect("bench workload is servable");
    }
    let t = Instant::now();
    let done = sched.run_to_completion();
    let elapsed = t.elapsed().as_secs_f64();
    assert_eq!(done.len(), reqs.len());
    (elapsed, sched.stats().sampled_tokens)
}

/// Latency scenario: a short request is mid-decode when a long prompt
/// arrives. Steps the engine by hand, polling
/// [`Scheduler::generated_len`], and returns the short stream's
/// per-token completion times (seconds since its submission) plus the
/// scheduler's stalled-prefill counter. With a bounded `chunk` budget
/// the long prompt is worked off over several steps and the short
/// stream must advance every single one of them — asserted here, so the
/// smoke run is a structural no-stall check, not a timing one.
fn serve_long_arrival(
    model: &Model,
    long_prompt_len: usize,
    short_new: usize,
    chunk: Option<usize>,
) -> (Vec<f64>, u64) {
    let vocab = model.config().vocab;
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig::default(),
            prefill_chunk_tokens: chunk,
            ..SchedulerConfig::default()
        },
    );
    let mk = |i: usize, prompt_len: usize, max_new: usize| {
        Request::builder(workload_prompt(i, prompt_len, vocab))
            .max_new(max_new)
            .temperature(0.8)
            .seed(i as u64)
            .build()
            .unwrap()
    };
    let t0 = Instant::now();
    let short_id = sched.submit(mk(0, 8, short_new)).unwrap();
    let mut long_id = None;
    let mut times = Vec::with_capacity(short_new);
    let mut seen = 0usize;
    while !sched.is_idle() {
        // The long prompt lands once the short stream is two tokens in.
        if long_id.is_none() && seen >= 2 {
            long_id = Some(sched.submit(mk(1, long_prompt_len, 4)).unwrap());
        }
        let short_active = seen == 0 || sched.generated_len(short_id).is_some();
        let long_prefilling =
            chunk.is_some() && long_id.is_some_and(|id| sched.generated_len(id) == Some(0));
        sched.step();
        let t = t0.elapsed().as_secs_f64();
        let now = match sched.generated_len(short_id) {
            Some(g) => g,
            // The short stream retires on the step its last token lands.
            None if short_active => seen + 1,
            None => seen,
        };
        if now > seen {
            times.push(t);
            seen = now;
        } else if long_prefilling && short_active {
            panic!("chunked prefill stalled the co-scheduled short stream");
        }
    }
    assert_eq!(times.len(), short_new);
    (times, sched.stats().stalled_prefill_tokens)
}

/// Nearest-rank percentile of an ascending-sorted sample set.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Priority classes of the SLO harness, in report-key order. Request
/// `i` belongs to class `i % 3`, so every class sees the same share of
/// the arrival process.
const CLASSES: [(&str, Priority); 3] = [
    ("high", Priority::High),
    ("normal", Priority::Normal),
    ("low", Priority::Low),
];

/// Per-class latency distributions of one SLO-harness leg, all in
/// virtual steps (see [`serve_slo`]).
struct SloLeg {
    /// Per-class TTFT samples: steps from arrival to first token.
    ttft: [Vec<f64>; 3],
    /// Per-class TPOT samples: mean inter-token steps after the first.
    tpot: [Vec<f64>; 3],
    /// Per-class tokens-per-step from requests whose TTFT met the SLO.
    goodput: [f64; 3],
    /// Virtual steps the leg ran end to end.
    steps: u64,
    preemptions: u64,
}

/// One SLO-harness leg: `n` requests arrive on a seeded Poisson
/// schedule and are served through the [`Engine`] front door, with
/// every latency measured in *virtual steps* (`Engine::steps`) — the
/// numbers are exactly reproducible on any machine at any thread
/// count. The KV pool is sized to hold only ~3 resident requests, so
/// admission runs under genuine page pressure. With `priorities` the
/// requests cycle High/Normal/Low and preemption is on: a High arrival
/// that cannot get pages suspends the lowest-priority incumbent.
/// Without, every request is Normal and preemption is off — the FIFO
/// baseline under identical pressure. Class accounting always uses the
/// would-be class (`i % 3`), so the same population is compared across
/// legs.
fn serve_slo(
    model: &Model,
    n: usize,
    prompt_len: usize,
    max_new: usize,
    mean_gap: f64,
    priorities: bool,
) -> SloLeg {
    let vocab = model.config().vocab;
    let n_layers = model.config().n_layers;
    let page_positions = 8usize;
    let per_request = (prompt_len + max_new).div_ceil(page_positions);
    let engine = Engine::new(
        model,
        SchedulerConfig {
            max_batch: 6,
            kv: KvPoolConfig {
                page_positions,
                max_pages: Some(n_layers * (3 * per_request + 1)),
                ..KvPoolConfig::default()
            },
            preemption: priorities,
            ..SchedulerConfig::default()
        },
    );
    let reqs: Vec<Request> = (0..n)
        .map(|i| {
            let prio = if priorities {
                CLASSES[i % 3].1
            } else {
                Priority::Normal
            };
            Request::builder(workload_prompt(i, prompt_len, vocab))
                .max_new(max_new)
                .temperature(0.8)
                .seed(i as u64)
                .priority(prio)
                .build()
                .unwrap()
        })
        .collect();

    struct Track<'a> {
        handle: anda_serve::SubmitHandle<'a>,
        class: usize,
        arrival: u64,
        first: Option<u64>,
        finish: Option<u64>,
        generated: usize,
    }
    let mut replay = Replay::new(ArrivalSchedule::poisson(0xA17DA, mean_gap, n));
    let mut tracks: Vec<Track> = Vec::with_capacity(n);
    while !(replay.exhausted() && engine.is_idle()) {
        let now = engine.steps();
        for i in replay.due(now) {
            let handle = engine
                .submit(reqs[i].clone())
                .expect("slo load is servable");
            tracks.push(Track {
                handle,
                class: i % 3,
                arrival: now,
                first: None,
                finish: None,
                generated: 0,
            });
        }
        engine.step();
        let now = engine.steps();
        for t in &mut tracks {
            if t.finish.is_some() {
                continue;
            }
            let fresh = t.handle.try_next_tokens();
            if !fresh.is_empty() {
                t.generated += fresh.len();
                t.first.get_or_insert(now);
            }
            if t.handle.state() == RequestState::Finished {
                t.finish = Some(now);
            }
        }
    }
    let steps = engine.steps();
    let preemptions = engine.scheduler().stats().preemptions;

    // A request is "good" when its first token landed within the SLO
    // deadline; goodput counts only those requests' tokens.
    let slo_ttft = 4.0 * mean_gap;
    let mut leg = SloLeg {
        ttft: Default::default(),
        tpot: Default::default(),
        goodput: [0.0; 3],
        steps,
        preemptions,
    };
    for t in &tracks {
        let (first, finish) = (t.first.expect("every request sampled"), t.finish.unwrap());
        let ttft = (first - t.arrival) as f64;
        leg.ttft[t.class].push(ttft);
        if t.generated > 1 {
            leg.tpot[t.class].push((finish - first) as f64 / (t.generated - 1) as f64);
        }
        if ttft <= slo_ttft {
            leg.goodput[t.class] += t.generated as f64 / steps as f64;
        }
    }
    for class in 0..3 {
        leg.ttft[class].sort_by(f64::total_cmp);
        leg.tpot[class].sort_by(f64::total_cmp);
    }
    leg
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce");
    let batches: Vec<usize> = arg_val(&args, "--batch")
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| if smoke { vec![1, 4] } else { vec![1, 2, 4, 8] });
    let requests: usize = arg_val(&args, "--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 4 } else { 8 });
    let max_new: usize = arg_val(&args, "--new")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 8 } else { 48 });
    let prompt_len: usize = arg_val(&args, "--prompt")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 8 } else { 24 });
    let reps = 3;

    let model = opt_125m_sim().build();
    let reqs = workload(&model, requests, prompt_len, max_new);
    println!(
        "Serving throughput — {} requests × (prompt {prompt_len} + {max_new} new) on {}, \
         pool threads: {}",
        requests,
        model.config().name,
        rayon_lite::global().threads()
    );
    println!(
        "SIMD dispatch: {} leg (detected: {})\n",
        anda_fp::active_leg().name(),
        anda_fp::cpu_features()
    );

    let mut measured = Vec::new();
    for &b in &batches {
        let mut best = f64::INFINITY;
        let mut tokens = 0;
        for _ in 0..reps {
            let (elapsed, sampled) = serve_once(&model, &reqs, b);
            best = best.min(elapsed);
            tokens = sampled;
        }
        measured.push((b, tokens, best, tokens as f64 / best));
    }

    // Normalize against the batch-1 row when present (the batch list is
    // caller-chosen and need not start at 1), else the first row.
    let base_tps = measured
        .iter()
        .find(|(b, ..)| *b == 1)
        .or_else(|| measured.first())
        .map_or(1.0, |&(.., tps)| tps);
    let mut table = Table::new(&["batch", "decode tok", "best s", "tok/s", "vs batch 1"]);
    for &(b, tokens, best, tps) in &measured {
        table.row_owned(vec![
            b.to_string(),
            tokens.to_string(),
            format!("{best:.4}"),
            format!("{tps:.0}"),
            format!("{:.2}x", tps / base_tps),
        ]);
    }
    println!("{}", table.render());

    let mut report = BenchReport::new("serve_throughput");
    for &(b, _, _, tps) in &measured {
        report.metric(&format!("batch{b}_tokens_per_s"), tps);
    }

    // Long-prompt arrival latency: TTFT and TPOT of a short request
    // that is already decoding when a long prompt shows up. The
    // unbounded budget lands the whole prompt as one span in one step —
    // the short stream's inter-token gap spikes by the entire prefill —
    // while a chunk budget works it off at `prefill_chunk_tokens`/step
    // alongside the short stream's decodes.
    let long_len = if smoke { 48 } else { 256 };
    let short_new = if smoke { 12 } else { 48 };
    let chunk_budget = if smoke { 8 } else { 16 };
    let lat_reps = if smoke { 1 } else { reps };
    let mut mono_times: Vec<f64> = Vec::new();
    let mut chunked_times: Vec<f64> = Vec::new();
    let mut mono_ttft = f64::INFINITY;
    let mut chunked_ttft = f64::INFINITY;
    let mut mono_stalled = 0u64;
    for _ in 0..lat_reps {
        let (times, stalled) = serve_long_arrival(&model, long_len, short_new, None);
        mono_ttft = mono_ttft.min(times[0]);
        mono_times.extend(times.windows(2).map(|w| w[1] - w[0]));
        mono_stalled = stalled;
        let (times, stalled) = serve_long_arrival(&model, long_len, short_new, Some(chunk_budget));
        assert_eq!(stalled, 0, "a bounded budget must never stall");
        chunked_ttft = chunked_ttft.min(times[0]);
        chunked_times.extend(times.windows(2).map(|w| w[1] - w[0]));
    }
    assert_eq!(
        mono_stalled, long_len as u64,
        "the unbounded budget must account its stall"
    );
    mono_times.sort_by(f64::total_cmp);
    chunked_times.sort_by(f64::total_cmp);
    let (mono_p50, mono_p99) = (percentile(&mono_times, 0.5), percentile(&mono_times, 0.99));
    let (chk_p50, chk_p99) = (
        percentile(&chunked_times, 0.5),
        percentile(&chunked_times, 0.99),
    );
    println!(
        "long-prompt arrival ({long_len} tokens) against a short decode: \
         monolithic TTFT {:.2}ms TPOT p50/p99 {:.2}/{:.2}ms | \
         chunked({chunk_budget}) TTFT {:.2}ms TPOT p50/p99 {:.2}/{:.2}ms",
        mono_ttft * 1e3,
        mono_p50 * 1e3,
        mono_p99 * 1e3,
        chunked_ttft * 1e3,
        chk_p50 * 1e3,
        chk_p99 * 1e3,
    );
    report.metric("short_ttft_monolithic_s", mono_ttft);
    report.metric("short_ttft_chunked_s", chunked_ttft);
    report.metric("short_tpot_p50_monolithic_s", mono_p50);
    report.metric("short_tpot_p99_monolithic_s", mono_p99);
    report.metric("short_tpot_p50_chunked_s", chk_p50);
    report.metric("short_tpot_p99_chunked_s", chk_p99);
    report.metric("short_tpot_p99_chunked_vs_monolithic", chk_p99 / mono_p99);

    // SLO harness: mixed-priority Poisson traffic through the Engine
    // front door, measured in virtual steps (fully deterministic — the
    // priority-vs-FIFO comparison is exact, not a timing race). The
    // priority leg runs WRR admission + page-pressure preemption; the
    // FIFO leg serves the identical arrival process with every request
    // Normal and preemption off.
    let slo_n = if smoke { 9 } else { 18 };
    let slo_prompt = if smoke { 8 } else { 24 };
    let slo_new = if smoke { 8 } else { 24 };
    let slo_gap = 2.0;
    let pri = serve_slo(&model, slo_n, slo_prompt, slo_new, slo_gap, true);
    let fifo = serve_slo(&model, slo_n, slo_prompt, slo_new, slo_gap, false);
    println!(
        "\nSLO harness — {slo_n} requests, Poisson mean gap {slo_gap} steps, \
         prompt {slo_prompt} + {slo_new} new, pool holds ~3 residents \
         ({} preemptions on the priority leg, {} steps vs {} FIFO)",
        pri.preemptions, pri.steps, fifo.steps
    );
    let mut slo_table = Table::new(&[
        "class",
        "ttft p50/p99 (steps)",
        "tpot p50/p99 (steps)",
        "goodput tok/step",
    ]);
    for (class, &(name, _)) in CLASSES.iter().enumerate() {
        for (leg, tag) in [(&pri, "priority"), (&fifo, "fifo")] {
            slo_table.row_owned(vec![
                format!("{name} ({tag})"),
                format!(
                    "{:.0} / {:.0}",
                    percentile(&leg.ttft[class], 0.5),
                    percentile(&leg.ttft[class], 0.99)
                ),
                format!(
                    "{:.2} / {:.2}",
                    percentile(&leg.tpot[class], 0.5),
                    percentile(&leg.tpot[class], 0.99)
                ),
                format!("{:.3}", leg.goodput[class]),
            ]);
        }
    }
    println!("{}", slo_table.render());
    for (class, &(name, _)) in CLASSES.iter().enumerate() {
        report.metric(
            &format!("slo_{name}_ttft_p50_steps"),
            percentile(&pri.ttft[class], 0.5),
        );
        report.metric(
            &format!("slo_{name}_ttft_p99_steps"),
            percentile(&pri.ttft[class], 0.99),
        );
        report.metric(
            &format!("slo_{name}_tpot_p50_steps"),
            percentile(&pri.tpot[class], 0.5),
        );
        report.metric(
            &format!("slo_{name}_tpot_p99_steps"),
            percentile(&pri.tpot[class], 0.99),
        );
        report.metric(
            &format!("slo_{name}_goodput_tokens_per_step"),
            pri.goodput[class],
        );
        report.metric(
            &format!("slo_fifo_{name}_ttft_p99_steps"),
            percentile(&fifo.ttft[class], 0.99),
        );
    }
    report.metric("slo_preemptions", pri.preemptions as f64);
    let pri_high_p99 = percentile(&pri.ttft[0], 0.99);
    let fifo_high_p99 = percentile(&fifo.ttft[0], 0.99);
    report.metric("slo_high_ttft_p99_vs_fifo", pri_high_p99 / fifo_high_p99);
    // Acceptance: priority admission must actually buy the High class
    // latency — its TTFT p99 may not be worse than under FIFO. Virtual
    // time makes this exact, so the smoke run enforces it outright.
    if (smoke || enforce) && pri_high_p99 > fifo_high_p99 {
        report.write_and_announce();
        eprintln!(
            "FAIL: high-priority TTFT p99 ({pri_high_p99} steps) must be no worse than \
             FIFO ({fifo_high_p99} steps)"
        );
        std::process::exit(1);
    }

    let b1 = measured.iter().find(|(b, ..)| *b == 1);
    let b4 = measured.iter().find(|(b, ..)| *b == 4);
    if let (Some(&(.., t1)), Some(&(.., t4))) = (b1, b4) {
        report.metric("batch4_vs_batch1", t4 / t1);
        println!(
            "batch 4 vs batch 1: {:.2}x aggregate tokens/s{}",
            t4 / t1,
            if t4 > t1 {
                ""
            } else {
                " (no speedup — is the pool single-threaded?)"
            }
        );
        // With a multi-threaded pool on real cores the batched scope
        // must win; under --enforce (CI's multi-core leg) a regression
        // fails the run. A pool that merely timeslices one core
        // (ANDA_THREADS > available cores) cannot speed anything up, so
        // it is skipped like the single-threaded pool.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if enforce && rayon_lite::global().threads() > 1 && cores > 1 && t4 <= t1 {
            report.write_and_announce();
            eprintln!("FAIL: batch 4 must beat batch 1 on a multi-threaded pool");
            std::process::exit(1);
        }
    }
    report.write_and_announce();
}
