//! Acceptance suite for automatic prefix caching
//! ([`SchedulerConfig::auto_prefix`]): token- and logit-bit-exact
//! against unshared decodes across every KV storage policy, exact
//! hit-rate accounting, survival of LRU eviction under page pressure,
//! and coexistence with pinned prefixes.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_serve::{FinishedRequest, Request, Scheduler, SchedulerConfig};
use anda_tensor::Rng;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

/// A workload of prompts sharing a 24-token family prefix to varying
/// depths, plus one unrelated prompt and one exact repeat — greedy and
/// sampled, one EOS user.
fn workload() -> Vec<Request> {
    let family: Vec<usize> = (0..24).map(|i| (i * 29 + 11) % 500).collect();
    let with_tail = |depth: usize, tail: &[usize]| {
        let mut p = family[..depth].to_vec();
        p.extend_from_slice(tail);
        p
    };
    vec![
        Request::builder(with_tail(24, &[7, 8, 9]))
            .max_new(8)
            .build()
            .unwrap(),
        Request::builder(with_tail(24, &[7, 8, 9]))
            .max_new(8)
            .build()
            .unwrap(), // exact repeat
        Request::builder(with_tail(16, &[300, 301]))
            .max_new(6)
            .temperature(0.9)
            .seed(7)
            .build()
            .unwrap(),
        Request::builder(with_tail(8, &[42]))
            .max_new(10)
            .eos(40)
            .temperature(1.1)
            .seed(99)
            .build()
            .unwrap(),
        Request::builder(vec![450, 451, 452, 453])
            .max_new(5)
            .build()
            .unwrap(), // unrelated
    ]
}

fn sorted_outputs(mut done: Vec<FinishedRequest>) -> Vec<FinishedRequest> {
    done.sort_by_key(|f| (f.id, f.sample_index));
    done
}

fn run(
    storage: KvStorage,
    auto: bool,
    max_pages: Option<usize>,
    reqs: Vec<Request>,
) -> (Vec<FinishedRequest>, u64, u64) {
    let mut sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 3,
            kv: KvPoolConfig {
                storage,
                page_positions: 8,
                max_pages,
            },
            auto_prefix: auto,
            ..SchedulerConfig::default()
        },
    );
    for r in reqs {
        sched.submit(r).unwrap();
    }
    let done = sorted_outputs(sched.run_to_completion());
    let stats = sched.stats();
    (done, stats.cache_hit_tokens, stats.prefill_tokens)
}

/// The tentpole exactness bar: automatic prefix caching must change
/// page traffic, never content — token-identical to the unshared run
/// for every storage policy, while provably serving prompt tokens from
/// the cache (fewer prefilled tokens, nonzero hit count).
#[test]
fn auto_prefix_is_bit_exact_across_storages() {
    for storage in [
        KvStorage::Fp32,
        KvStorage::Fp16,
        KvStorage::Anda { mantissa_bits: 6 },
        KvStorage::Anda { mantissa_bits: 11 },
    ] {
        let (plain, plain_hits, plain_prefill) = run(storage, false, None, workload());
        let (auto_, auto_hits, auto_prefill) = run(storage, true, None, workload());
        for (a, b) in auto_.iter().zip(&plain) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.tokens, b.tokens, "auto prefix diverged: {storage:?}");
            assert_eq!(a.prompt_len, b.prompt_len);
            assert_eq!(a.reason, b.reason);
        }
        assert_eq!(plain_hits, 0, "the cache is off by default");
        assert!(auto_hits > 0, "the shared family must hit: {storage:?}");
        assert!(
            auto_prefill < plain_prefill,
            "hits must shrink prefill work: {auto_prefill} vs {plain_prefill}"
        );
    }
}

/// Exact hit accounting on a repeat prompt: a 17-token prompt aligns
/// to 16 cached positions (the lookup cap always leaves the last
/// prompt token to prefill), so the second submission prefills exactly
/// one token. A prompt becomes shareable the step its last chunk
/// lands, so the repeat arrives one step after the original.
#[test]
fn repeat_prompt_hit_accounting_is_exact() {
    let prompt: Vec<usize> = (0..17).map(|i| (i * 13 + 2) % 500).collect();
    let mut sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                storage: KvStorage::Fp16,
                page_positions: 8,
                max_pages: None,
            },
            auto_prefix: true,
            ..SchedulerConfig::default()
        },
    );
    sched
        .submit(Request::builder(prompt.clone()).max_new(4).build().unwrap())
        .unwrap();
    sched.step();
    sched
        .submit(Request::builder(prompt.clone()).max_new(4).build().unwrap())
        .unwrap();
    let done = sched.run_to_completion();
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].tokens, done[1].tokens);
    let stats = sched.stats();
    assert_eq!(stats.cache_hit_tokens, 16);
    assert_eq!(stats.prefill_tokens, 17 + 1);
    assert_eq!(stats.prefix_forks, 1);
    // The tree retains the prompt's whole pages after the drain; an
    // explicit flush returns the pool to empty.
    assert!(sched.pool_snapshot().radix_resident_pages > 0);
    assert_eq!(
        sched.kv_pool().pages_in_use(),
        sched.pool_snapshot().radix_resident_pages
    );
    sched.flush_prefix_cache();
    assert_eq!(sched.kv_pool().pages_in_use(), 0);
}

/// Eviction under genuine page pressure: a pool too small to retain
/// wave A's cache alongside wave B forces LRU eviction between waves,
/// and every token stays bit-identical to the unshared reference.
#[test]
fn eviction_under_page_pressure_stays_bit_exact() {
    let storage = KvStorage::Anda { mantissa_bits: 6 };
    let n_layers = model().config().n_layers;
    // Room for roughly one wave's pages plus slack — retaining two
    // waves' worth of 20+-token prompts is impossible.
    let max_pages = Some(n_layers * 6);
    let wave = |tag: usize| -> Vec<Request> {
        (0..3)
            .map(|i| {
                let mut p: Vec<usize> = (0..18).map(|j| (j * 31 + tag * 101 + 13) % 500).collect();
                p.push(tag * 10 + i);
                Request::builder(p).max_new(4).build().unwrap()
            })
            .collect()
    };

    let mut sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                storage,
                page_positions: 8,
                max_pages,
            },
            auto_prefix: true,
            ..SchedulerConfig::default()
        },
    );
    let mut auto_done = Vec::new();
    for tag in 1..=3 {
        for r in wave(tag) {
            sched.submit(r).unwrap();
        }
        auto_done.extend(sched.run_to_completion());
    }
    assert!(
        sched.stats().radix_evictions > 0,
        "the pool is sized to force eviction"
    );
    assert!(sched.stats().cache_hit_tokens > 0, "waves share prefixes");

    // Unshared reference: same requests, cache off, unbounded pool.
    let mut plain = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                storage,
                page_positions: 8,
                max_pages: None,
            },
            ..SchedulerConfig::default()
        },
    );
    for tag in 1..=3 {
        for r in wave(tag) {
            plain.submit(r).unwrap();
        }
    }
    let plain_done = sorted_outputs(plain.run_to_completion());
    let auto_done = sorted_outputs(auto_done);
    assert_eq!(auto_done.len(), plain_done.len());
    for (a, b) in auto_done.iter().zip(&plain_done) {
        assert_eq!(a.tokens, b.tokens, "eviction corrupted a stream");
        assert_eq!(a.reason, b.reason);
    }
}

/// Declared and discovered prefixes share one tree: prompts behind a
/// pinned prefix fork the pin (and, with the cache on, extend it with
/// evictable nodes of their own), plain prompts ride the automatic
/// cache, and both drain cleanly.
#[test]
fn auto_prefix_coexists_with_pinned_prefixes() {
    let run_mixed = |auto: bool| -> (Vec<FinishedRequest>, u64) {
        let mut sched = Scheduler::new(
            model(),
            SchedulerConfig {
                max_batch: 3,
                kv: KvPoolConfig {
                    storage: KvStorage::Fp16,
                    page_positions: 8,
                    max_pages: None,
                },
                auto_prefix: auto,
                ..SchedulerConfig::default()
            },
        );
        let prefix: Vec<usize> = (0..16).map(|i| (i * 7 + 3) % 500).collect();
        let pin = sched.pin_prefix(&prefix).unwrap();
        for r in workload() {
            let mut prefixed = r.clone();
            prefixed.prompt = [&prefix[..], &r.prompt].concat();
            sched.submit(prefixed).unwrap();
            sched.submit(r).unwrap();
        }
        let done = sorted_outputs(sched.run_to_completion());
        let hits = sched.stats().cache_hit_tokens;
        // Under pressure only the pinned path survives; once the pin is
        // dropped too, a flush empties the pool.
        sched.flush_prefix_cache();
        assert_eq!(sched.kv_pool().pages_in_use(), pin.pages());
        sched.unpin_prefix(pin);
        sched.flush_prefix_cache();
        assert_eq!(sched.kv_pool().pages_in_use(), 0);
        (done, hits)
    };
    let (plain, pin_hits) = run_mixed(false);
    assert_eq!(pin_hits, 5 * 16, "every prefixed prompt hits the whole pin");
    let (auto_, hits) = run_mixed(true);
    assert!(hits > pin_hits, "plain requests must still ride the tree");
    assert_eq!(auto_.len(), plain.len());
    for (a, b) in auto_.iter().zip(&plain) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tokens, b.tokens, "pinned/auto mix diverged");
        assert_eq!(a.reason, b.reason);
    }
}

/// Concurrent same-prefix prompts under a chunk budget each prefill
/// their own copy of the prefix before any of them is shareable. The
/// tree must lease only what it accounts — the first lander's prefix
/// pages plus every prompt's own edge — so the later landers' private
/// prefix copies die with their streams (regression: a new leaf used
/// to lease its source's whole prefix, 54 pages in use against 22
/// accounted on this shape, and a bounded pool ran dry mid-step).
#[test]
fn concurrent_same_prefix_prompts_lease_what_the_tree_accounts() {
    let n_layers = model().config().n_layers;
    let shared: Vec<usize> = (0..32).map(|i| (i * 23 + 5) % 500).collect();
    let prompt = |tag: usize| {
        let mut p = shared.clone();
        p.extend((0..5).map(|j| (tag * 41 + j * 3 + 1) % 500));
        p
    };
    let mut sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 3,
            kv: KvPoolConfig {
                storage: KvStorage::Fp16,
                page_positions: 4,
                // Three private worst cases (37 + 4 positions each) and
                // nothing to spare for unaccounted leases.
                max_pages: Some(n_layers * 3 * 11),
            },
            auto_prefix: true,
            prefill_chunk_tokens: Some(8),
            ..SchedulerConfig::default()
        },
    );
    for tag in 0..3 {
        sched
            .submit(Request::builder(prompt(tag)).max_new(4).build().unwrap())
            .unwrap();
    }
    let done = sched.run_to_completion();
    assert_eq!(done.len(), 3);
    assert_eq!(sched.stats().cache_hit_tokens, 0, "all three miss");
    // Shared 8 pages once + three 1-page edges, per layer.
    let resident = sched.pool_snapshot().radix_resident_pages;
    assert_eq!(resident, n_layers * (8 + 3));
    assert_eq!(sched.kv_pool().pages_in_use(), resident);
}

/// The shared-prefix serving shape on a pool bounded to about half its
/// unbounded page peak: a few multi-page prefixes, unique suffixes,
/// eight concurrent streams, a chunk budget smaller than the prefix.
/// Same-prefix prompts prefill concurrently, so the tree sees inserts
/// from sources carrying their own prefix copies while eviction and
/// admission run at the watermark. Every request must complete,
/// bit-equal to solo decode, with the page-ledger invariant — leased
/// pages never outgrow pins + reservations + tree residency — holding
/// after every step.
#[test]
fn shared_prefix_shape_drains_a_half_sized_pool() {
    let storage = KvStorage::Anda { mantissa_bits: 8 };
    let pp = 4usize;
    let prefixes: Vec<Vec<usize>> = (0..3)
        .map(|f| (0..48).map(|i| (f * 157 + i * 19 + 3) % 500).collect())
        .collect();
    let reqs: Vec<Request> = (0..16)
        .map(|i| {
            let mut p = prefixes[i % 3].clone();
            p.extend((0..3 + i % 5).map(|j| (i * 37 + j * 11 + 7) % 500));
            Request::builder(p)
                .max_new(3 + i % 3)
                .temperature(0.7)
                .seed(i as u64)
                .build()
                .unwrap()
        })
        .collect();
    let serve = |max_pages: Option<usize>| {
        let mut sched = Scheduler::new(
            model(),
            SchedulerConfig {
                max_batch: 8,
                kv: KvPoolConfig {
                    storage,
                    page_positions: pp,
                    max_pages,
                },
                auto_prefix: true,
                prefill_chunk_tokens: Some(8),
                ..SchedulerConfig::default()
            },
        );
        for r in &reqs {
            sched.submit(r.clone()).unwrap();
        }
        while !sched.is_idle() {
            sched.step();
            let snap = sched.pool_snapshot();
            assert!(
                snap.pages_in_use
                    <= snap.pinned_pages + snap.reserved_pages + snap.radix_resident_pages,
                "step {}: the pool leases pages nobody accounts: {snap:?}",
                sched.stats().steps
            );
        }
        (sorted_outputs(sched.take_finished()), sched.stats())
    };
    let (_, unbounded) = serve(None);
    let (done, bounded) = serve(Some(unbounded.peak_pages_in_use / 2));
    assert!(bounded.radix_evictions > 0, "the bound must bite");
    assert_eq!(done.len(), reqs.len());
    for (fin, req) in done.iter().zip(&reqs) {
        let mut cache = PagePool::new(KvPoolConfig {
            storage,
            page_positions: pp,
            max_pages: None,
        })
        .new_cache(model().config().n_layers);
        let solo = model().generate_with_cache(
            &req.prompt,
            req.max_new,
            req.sampling.temperature,
            &mut Rng::new(req.sampling.seed),
            &mut cache,
        );
        assert_eq!(fin.tokens, solo, "{} diverged from solo decode", fin.id);
    }
}
