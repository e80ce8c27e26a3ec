//! KV prefix-sharing study: the memory and admission effect of serving
//! N streams over one pinned prompt prefix whose pages every stream
//! forks, versus the same prompts on private caches.
//!
//! Part 1 serves a fixed batch at several prefix lengths on unbounded
//! pools and reports, for shared vs private, the prefill tokens
//! actually computed (the prefix's whole pages are prefilled once when
//! pinned; a stream re-prefills only the `P mod page` tokens past them)
//! and the peak physical KV pages leased (pinned pages count once).
//!
//! Part 2 is the admission identity as an executable fact: a pool sized
//! to exactly `pages(P) + N·pages(private)` compressed pages runs the
//! shared batch fully concurrently, while the identical prompts with
//! nothing pinned — demanding `N·pages(P + private)` — must serialize
//! behind the free-page watermark. Outputs are asserted
//! token-identical either way, and the peak page count is asserted to
//! hit the shared identity exactly, in `--smoke` (CI) and full runs
//! alike.
//!
//! Usage: `kv_sharing [--smoke] [--prefixes A,B,…] [--batch N]`

use anda_bench::{arg_val, workload_prompt, BenchReport, Table};
use anda_llm::kv::{KvPoolConfig, KvStorage};
use anda_llm::zoo::opt_125m_sim;
use anda_serve::{FinishedRequest, Request, Scheduler, SchedulerConfig};

/// The workload: `prefix` followed by a distinct private prompt per
/// stream, distinct seeds.
fn requests(
    prefix: &[usize],
    batch: usize,
    prompt_len: usize,
    max_new: usize,
    vocab: usize,
) -> Vec<Request> {
    (0..batch)
        .map(|i| {
            Request::builder([prefix, &workload_prompt(i, prompt_len, vocab)].concat())
                .max_new(max_new)
                .temperature(0.8)
                .seed(i as u64)
                .build()
                .unwrap()
        })
        .collect()
}

fn sorted(mut done: Vec<FinishedRequest>) -> Vec<Vec<usize>> {
    done.sort_by_key(|f| f.id);
    done.into_iter().map(|f| f.tokens).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let batch: usize = arg_val(&args, "--batch")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let prefixes: Vec<usize> = arg_val(&args, "--prefixes")
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| {
            if smoke {
                vec![48]
            } else {
                // 45 is off the page grid: its row shows the
                // `N·(P mod page)` tokens streams prefill themselves.
                vec![16, 45, 48, 96, 192]
            }
        });

    let model = opt_125m_sim().build();
    let cfg = model.config().clone();
    let pp = 8usize;
    let storage = KvStorage::Anda { mantissa_bits: 5 };
    let prompt_len = 8usize;
    let max_new = if smoke { 16 } else { 24 };

    println!(
        "KV prefix sharing — {batch} streams on {} (d={}, {} layers), \
         Anda M=5 pages of {pp} positions\n",
        cfg.name, cfg.d_model, cfg.n_layers
    );

    // --- Part 1: unbounded pools, shared vs private side by side ---
    let mut table = Table::new(&[
        "prefix",
        "mode",
        "prefill tok",
        "peak pages",
        "peak KV Mbit",
        "forks",
    ]);
    for &prefix_len in &prefixes {
        let prefix: Vec<usize> = (0..prefix_len).map(|i| (i * 29 + 11) % cfg.vocab).collect();
        let kv = KvPoolConfig {
            storage,
            page_positions: pp,
            max_pages: None,
        };
        let page_bits = kv.page_bits(cfg.d_model);
        let mut results = Vec::new();
        for shared in [true, false] {
            let mut sched = Scheduler::new(
                &model,
                SchedulerConfig {
                    max_batch: batch,
                    kv,
                    ..SchedulerConfig::default()
                },
            );
            let _pin = shared.then(|| sched.pin_prefix(&prefix).unwrap());
            for r in requests(&prefix, batch, prompt_len, max_new, cfg.vocab) {
                sched.submit(r).unwrap();
            }
            let done = sched.run_to_completion();
            assert_eq!(done.len(), batch);
            let stats = sched.stats();
            table.row_owned(vec![
                prefix_len.to_string(),
                if shared { "shared" } else { "private" }.to_string(),
                stats.prefill_tokens.to_string(),
                stats.peak_pages_in_use.to_string(),
                format!("{:.2}", (stats.peak_pages_in_use * page_bits) as f64 / 1e6),
                stats.prefix_forks.to_string(),
            ]);
            results.push((sorted(done), stats));
        }
        let (shared_out, shared_stats) = &results[0];
        let (private_out, private_stats) = &results[1];
        assert_eq!(
            shared_out, private_out,
            "shared-prefix serving must be token-identical to private caches"
        );
        // The prefix's whole pages are prefilled once instead of
        // `batch` times…
        let whole = prefix_len / pp;
        assert_eq!(
            shared_stats.prefill_tokens + (batch - 1) as u64 * (whole * pp) as u64,
            private_stats.prefill_tokens,
            "sharing must skip re-prefilling the pinned pages"
        );
        // …and leased once instead of `batch` times.
        assert_eq!(
            shared_stats.peak_pages_in_use + (batch - 1) * cfg.n_layers * whole,
            private_stats.peak_pages_in_use,
            "pinned prefix pages must be physically deduplicated"
        );
    }
    println!("{}", table.render());

    // --- Part 2: the admission gap on an exactly shared-sized pool ---
    // Page-aligned prefix (longest requested, rounded down to whole
    // pages) so the page identities below are exact.
    let prefix_len = (prefixes.last().expect("at least one prefix length") / pp).max(1) * pp;
    let prefix: Vec<usize> = (0..prefix_len).map(|i| (i * 29 + 11) % cfg.vocab).collect();
    let shared_pages = cfg.n_layers * (prefix_len / pp);
    let private_per_stream =
        cfg.n_layers * ((prefix_len + prompt_len + max_new).div_ceil(pp) - prefix_len / pp);
    let capacity = shared_pages + batch * private_per_stream;
    let unshared_per_stream = cfg.n_layers * (prefix_len + prompt_len + max_new).div_ceil(pp);
    println!(
        "\nAdmission on a {capacity}-page pool — {batch} streams × {prefix_len}-token prefix: \
         shared demand {shared_pages} + {batch}×{private_per_stream}, \
         private demand {batch}×{unshared_per_stream}:"
    );

    let kv = KvPoolConfig {
        storage,
        page_positions: pp,
        max_pages: Some(capacity),
    };
    let mut admission = Table::new(&[
        "mode",
        "accepted",
        "peak active",
        "peak pages",
        "decode tok",
    ]);
    let mut outcomes = Vec::new();
    for shared in [true, false] {
        let mut sched = Scheduler::new(
            &model,
            SchedulerConfig {
                max_batch: batch,
                kv,
                ..SchedulerConfig::default()
            },
        );
        let _pin = shared.then(|| sched.pin_prefix(&prefix).unwrap());
        let mut accepted = 0usize;
        for r in requests(&prefix, batch, prompt_len, max_new, cfg.vocab) {
            if sched.submit(r).is_ok() {
                accepted += 1;
            }
        }
        let done = sched.run_to_completion();
        assert_eq!(done.len(), accepted);
        let stats = sched.stats();
        admission.row_owned(vec![
            if shared { "shared" } else { "private" }.to_string(),
            format!("{accepted}/{batch}"),
            stats.peak_active.to_string(),
            stats.peak_pages_in_use.to_string(),
            stats.sampled_tokens.to_string(),
        ]);
        outcomes.push((accepted, stats, sorted(done)));
    }
    println!("{}", admission.render());

    let (shared_accepted, shared_stats, shared_out) = &outcomes[0];
    let (_, private_stats, private_out) = &outcomes[1];
    // The batch is admissible *only* under sharing: the shared pool
    // holds all N streams at once and consumes exactly
    // `pages(P) + N·pages(private)` physical pages…
    assert_eq!(
        *shared_accepted, batch,
        "the shared pool must accept the batch"
    );
    assert_eq!(
        shared_stats.peak_active, batch,
        "the shared batch must run fully concurrently"
    );
    assert_eq!(
        shared_stats.peak_pages_in_use, capacity,
        "peak pages must equal pages(P) + N·pages(private)"
    );
    assert!(
        batch * unshared_per_stream > capacity,
        "scenario too easy: N·pages(P + private) fits the pool"
    );
    // …while the same workload with private caches must serialize (or
    // reject) behind the watermark on this pool.
    assert!(
        private_stats.peak_active < batch,
        "private full prompts must not fit concurrently"
    );
    // And sharing never changes a token.
    assert_eq!(
        shared_out, private_out,
        "shared and private completions must be identical"
    );
    println!(
        "(shared: {} streams concurrent at {} pages; private: watermark held {} \
         — sharing turned the same pool into batch headroom)",
        shared_stats.peak_active, shared_stats.peak_pages_in_use, private_stats.peak_active
    );

    // Perf trajectory: the admission-gap numbers from part 2.
    let mut report = BenchReport::new("kv_sharing");
    report.metric("batch", batch as f64);
    report.metric("prefix_len", prefix_len as f64);
    report.metric("pool_pages", capacity as f64);
    report.metric("shared_peak_active", shared_stats.peak_active as f64);
    report.metric("private_peak_active", private_stats.peak_active as f64);
    report.metric("shared_peak_pages", shared_stats.peak_pages_in_use as f64);
    report.metric("private_peak_pages", private_stats.peak_pages_in_use as f64);
    report.metric("shared_prefill_tokens", shared_stats.prefill_tokens as f64);
    report.metric(
        "private_prefill_tokens",
        private_stats.prefill_tokens as f64,
    );
    report.metric("shared_pages_decoded", shared_stats.pages_decoded as f64);
    report.write_and_announce();
}
