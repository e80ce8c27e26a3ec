//! KV prefix-sharing study: the memory and admission effect of serving
//! N streams over one shared prompt prefix with copy-on-write pages,
//! versus the same workload as private full prompts.
//!
//! Part 1 serves a fixed batch at several prefix lengths on unbounded
//! pools and reports, for shared vs private, the prefill tokens
//! actually computed (the prefix is prefilled once when shared) and the
//! peak physical KV pages leased (shared prefix pages count once).
//!
//! Part 2 is the admission identity as an executable fact: a pool sized
//! to exactly `pages(P) + N·pages(private)` compressed pages runs the
//! shared batch fully concurrently, while the identical workload as
//! private full prompts — demanding `N·pages(P + private)` — must
//! serialize behind the free-page watermark. Outputs are asserted
//! token-identical either way, and the peak page count is asserted to
//! hit the shared identity exactly, in `--smoke` (CI) and full runs
//! alike.
//!
//! Usage: `kv_sharing [--smoke] [--prefixes A,B,…] [--batch N]`

use anda_bench::{arg_val, workload_prompt, BenchReport, Table};
use anda_llm::kv::{KvPoolConfig, KvStorage};
use anda_llm::zoo::opt_125m_sim;
use anda_serve::{FinishedRequest, Request, Scheduler, SchedulerConfig};

/// The request-private parts of the workload: distinct prompts, seeds.
fn private_parts(batch: usize, prompt_len: usize, max_new: usize, vocab: usize) -> Vec<Request> {
    (0..batch)
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
                vec![16, 48, 96, 192]
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
            if shared {
                sched.register_prefix("sys", prefix.clone()).unwrap();
            }
            for mut r in private_parts(batch, prompt_len, max_new, cfg.vocab) {
                if shared {
                    r.prefix = Some("sys".into());
                } else {
                    let mut full = prefix.clone();
                    full.extend_from_slice(&r.prompt);
                    r.prompt = full;
                }
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
        // The prefix is prefilled once instead of `batch` times…
        assert_eq!(
            shared_stats.prefill_tokens + (batch as u64 - 1) * prefix_len as u64,
            private_stats.prefill_tokens,
            "sharing must skip re-prefilling the prefix"
        );
        // …and its whole pages are leased once instead of `batch` times.
        // A page-misaligned prefix pins one extra page per layer in the
        // shared run: the registry's partial tail, which every stream
        // additionally privatizes via copy-on-write.
        let whole = cfg.n_layers * (prefix_len / pp);
        let pinned_tail = if prefix_len.is_multiple_of(pp) {
            0
        } else {
            cfg.n_layers
        };
        assert_eq!(
            shared_stats.peak_pages_in_use + (batch - 1) * whole,
            private_stats.peak_pages_in_use + pinned_tail,
            "shared whole prefix pages must be physically deduplicated"
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
        if shared {
            sched.register_prefix("sys", prefix.clone()).unwrap();
        }
        let mut accepted = 0usize;
        for mut r in private_parts(batch, prompt_len, max_new, cfg.vocab) {
            if shared {
                r.prefix = Some("sys".into());
            } else {
                let mut full = prefix.clone();
                full.extend_from_slice(&r.prompt);
                r.prompt = full;
            }
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

    // --- Part 3: automatic prefix caching vs the explicit registry ---
    // The same page-aligned prefix workload, but nobody names the
    // prefix: requests arrive as full prompts and the radix tree must
    // discover the sharing on its own. On an aligned prefix the
    // automatic path must match the explicit fast path's prefill
    // exactly — the prefix is computed once, every later stream forks
    // it from the tree — and the hit accounting is closed-form. A
    // prompt becomes shareable the step its last chunk lands, so the
    // first request gets one step's head start in both legs.
    let kv = KvPoolConfig {
        storage,
        page_positions: pp,
        max_pages: None,
    };
    let mut auto_results = Vec::new();
    for auto in [false, true] {
        let mut sched = Scheduler::new(
            &model,
            SchedulerConfig {
                max_batch: batch,
                kv,
                auto_prefix: auto,
                ..SchedulerConfig::default()
            },
        );
        if !auto {
            sched.register_prefix("sys", prefix.clone()).unwrap();
        }
        let parts = private_parts(batch, prompt_len, max_new, cfg.vocab);
        for (i, mut r) in parts.into_iter().enumerate() {
            if auto {
                let mut full = prefix.clone();
                full.extend_from_slice(&r.prompt);
                r.prompt = full;
            } else {
                r.prefix = Some("sys".into());
            }
            sched.submit(r).unwrap();
            if i == 0 {
                sched.step();
            }
        }
        let done = sched.run_to_completion();
        assert_eq!(done.len(), batch);
        auto_results.push((sorted(done), sched.stats()));
    }
    let (explicit_out, explicit_stats) = &auto_results[0];
    let (auto_out, auto_stats) = &auto_results[1];
    assert_eq!(
        auto_out, explicit_out,
        "automatic prefix caching must be token-identical to the registry"
    );
    let auto_hits = (batch as u64 - 1) * prefix_len as u64;
    assert_eq!(
        auto_stats.cache_hit_tokens, auto_hits,
        "every stream after the first must hit the whole aligned prefix"
    );
    assert_eq!(
        auto_stats.prefill_tokens, explicit_stats.prefill_tokens,
        "on an aligned prefix the automatic path prefills exactly what the registry does"
    );
    let prompt_tokens = (batch * (prefix_len + prompt_len)) as u64;
    let hit_rate = auto_stats.cache_hit_tokens as f64 / prompt_tokens as f64;
    println!(
        "\nAutomatic prefix cache, unnamed {prefix_len}-token prefix × {batch} streams: \
         {} of {prompt_tokens} prompt tokens served from cache ({:.0}% hit rate), \
         prefill {} vs registry {}",
        auto_stats.cache_hit_tokens,
        hit_rate * 100.0,
        auto_stats.prefill_tokens,
        explicit_stats.prefill_tokens
    );

    // Perf trajectory: the admission-gap numbers from part 2 and the
    // automatic-vs-explicit hit accounting from part 3.
    let mut report = BenchReport::new("kv_sharing");
    report.metric("auto_cache_hit_tokens", auto_stats.cache_hit_tokens as f64);
    report.metric("auto_hit_rate", hit_rate);
    report.metric("auto_prefill_tokens", auto_stats.prefill_tokens as f64);
    report.metric(
        "explicit_prefill_tokens",
        explicit_stats.prefill_tokens as f64,
    );
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
