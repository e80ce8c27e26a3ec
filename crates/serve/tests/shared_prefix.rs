//! Shared-prefix serving: a scheduler whose streams fork a pinned
//! prefix out of the radix tree is token/logit bit-exact against fully
//! private caches, charges each stream only its unshared pages, and
//! returns every page (pinned ones included) once the pin is dropped
//! and the work drains.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage};
use anda_llm::zoo::{opt_125m_sim, sim_model};
use anda_llm::Model;
use anda_serve::{FinishedRequest, Request, Scheduler, SchedulerConfig, SubmitError};
use rayon_lite::ThreadPool;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn llama() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| sim_model("LLaMA-7B").unwrap().build())
}

/// `req` with `prefix` leading its prompt — how every request over a
/// shared prefix is spelled: the full prompt, no key.
fn behind(prefix: &[usize], mut req: Request) -> Request {
    req.prompt = [prefix, &req.prompt].concat();
    req
}

/// The private parts of a batch over one shared prefix: varied
/// prompts, budgets, temperatures and one EOS user.
fn private_parts() -> Vec<Request> {
    vec![
        Request::builder(vec![1, 2, 3]).max_new(10).build().unwrap(),
        Request::builder(vec![400, 5])
            .max_new(8)
            .temperature(0.9)
            .seed(7)
            .build()
            .unwrap(),
        Request::builder(vec![9, 9, 12])
            .max_new(12)
            .eos(40)
            .temperature(1.1)
            .seed(99)
            .build()
            .unwrap(),
    ]
}

fn sorted(mut done: Vec<FinishedRequest>) -> Vec<FinishedRequest> {
    done.sort_by_key(|f| f.id);
    done
}

/// Runs the same full-prompt workload twice — once with the prefix
/// pinned, once on fully private caches — and demands bit-identical
/// completions, for every storage policy, page size and thread count,
/// with the prefix deliberately not page-aligned at page size 8: the
/// pin then covers one page per layer and each stream prefills the
/// remaining `13 mod 8 = 5` prefix tokens itself.
#[test]
fn shared_prefix_serving_is_bit_exact_vs_private_caches() {
    let prefix: Vec<usize> = (0..13).map(|i| (i * 29 + 11) % 500).collect();
    for m in [model(), llama()] {
        for storage in [
            KvStorage::Fp32,
            KvStorage::Fp16,
            KvStorage::Anda { mantissa_bits: 6 },
            KvStorage::Anda { mantissa_bits: 11 },
        ] {
            for (threads, page_positions) in [(1, 1), (1, 8), (4, 8)] {
                let pool = ThreadPool::new(threads);
                let kv = KvPoolConfig {
                    storage,
                    page_positions,
                    max_pages: None,
                };
                let cfg = SchedulerConfig {
                    max_batch: 3,
                    kv,
                    ..SchedulerConfig::default()
                };

                let mut shared = Scheduler::with_pool(m, cfg, &pool);
                let pin = shared.pin_prefix(&prefix).unwrap();
                let pinned_tokens = prefix.len() / page_positions * page_positions;
                assert_eq!(
                    pin.pages(),
                    m.config().n_layers * (pinned_tokens / page_positions),
                    "whole pages only"
                );
                assert_eq!(shared.pool_snapshot().pinned_pages, pin.pages());
                for r in private_parts() {
                    shared.submit(behind(&prefix, r)).unwrap();
                }
                let shared_done = sorted(shared.run_to_completion());
                assert_eq!(shared.stats().prefix_forks, 3);

                let mut private = Scheduler::with_pool(m, cfg, &pool);
                for r in private_parts() {
                    private.submit(behind(&prefix, r)).unwrap();
                }
                let private_done = sorted(private.run_to_completion());

                for (s, p) in shared_done.iter().zip(&private_done) {
                    assert_eq!(
                        s.tokens, p.tokens,
                        "{storage:?} pp={page_positions} threads={threads}: \
                         shared-prefix stream {} diverged from its private twin",
                        s.id
                    );
                    assert_eq!(s.prompt_len, p.prompt_len);
                    assert_eq!(s.reason, p.reason);
                }
                // The pinned pages are prefilled once; every stream
                // skips exactly them and re-prefills the sub-page rest.
                assert_eq!(
                    shared.stats().prefill_tokens + 2 * pinned_tokens as u64,
                    private.stats().prefill_tokens,
                    "3 streams skip the pinned tokens, the pin prefills them once"
                );
                assert_eq!(
                    shared.stats().cache_hit_tokens,
                    3 * pinned_tokens as u64,
                    "pinned hits count like discovered ones"
                );
                // The shared run deduplicated real pages: it never
                // leased more than the private run, and at pp=8 the
                // whole-page prefix savings are strict.
                let (su, pu) = (
                    shared.stats().peak_pages_in_use,
                    private.stats().peak_pages_in_use,
                );
                assert!(su <= pu, "sharing must not cost pages ({su} > {pu})");
                if page_positions == 8 {
                    assert!(su < pu, "whole-page prefix sharing must save pages");
                }
                assert_eq!(
                    shared.unpin_prefix(pin),
                    m.config().n_layers * pinned_tokens / page_positions
                );
                assert_eq!(shared.kv_pool().pages_in_use(), 0, "all pages drained");
            }
        }
    }
}

/// The admission discount as an executable fact, with its numbers
/// pinned: 4 streams × (8-token private prompt, 16 new) over a
/// `P`-token prefix at 8-position pages, 2 layers. On a pool of exactly
/// `pinned + 4·pages(private)` pages the shared batch runs fully
/// concurrently and peaks at the pool size; the same prompts on private
/// caches serialize behind the watermark. Aligned `P = 48`: 12 pages
/// pinned, 80 tokens prefilled (48 + 4·8), 36-page pool, private twin
/// 224 tokens / 72 pages unbounded / 2 concurrent. Misaligned `P = 45`:
/// the pin covers 5 pages per layer (10), every stream re-prefills
/// `45 mod 8 = 5` tokens (92 = 40 + 4·13) and the pool is 42 pages.
/// At every length from 16 to 192 tokens (2 to 24 whole pages per
/// layer), what sharing saves is exactly the `N − 1` further copies of
/// the prefix's whole pages, in prefill tokens and in physical pages.
/// Tokens are bit-equal to private caches under every storage policy,
/// with `auto_prefix` on and off.
#[test]
fn admission_charges_only_unshared_pages() {
    let m = model();
    let n_layers = m.config().n_layers;
    assert_eq!(n_layers, 2);
    let (batch, pp) = (4usize, 8usize);
    let mk_req = |i: usize| {
        Request::builder(
            (0..8)
                .map(|j| (i * 131 + j * 17 + 1) % 500)
                .collect::<Vec<_>>(),
        )
        .max_new(16)
        .temperature(0.8)
        .seed(i as u64)
        .build()
        .unwrap()
    };
    // (P, pinned pages, shared prefill tokens, pool pages, private
    // streams that pool holds at once)
    for (prefix_len, pinned, shared_prefill, capacity, private_concurrent) in [
        (16usize, 4usize, 48u64, 28usize, 2usize),
        (45, 10, 92, 42, 2),
        (48, 12, 80, 36, 2),
        (96, 24, 128, 48, 1),
        (192, 48, 224, 72, 1),
    ] {
        let whole = prefix_len / pp;
        let prefix: Vec<usize> = (0..prefix_len).map(|i| (i * 7 + 1) % 500).collect();
        for storage in [
            KvStorage::Fp32,
            KvStorage::Fp16,
            KvStorage::Anda { mantissa_bits: 6 },
            KvStorage::Anda { mantissa_bits: 11 },
        ] {
            let run = |pin: bool, auto: bool, max_pages: Option<usize>| {
                let mut sched = Scheduler::new(
                    m,
                    SchedulerConfig {
                        max_batch: batch,
                        kv: KvPoolConfig {
                            storage,
                            page_positions: pp,
                            max_pages,
                        },
                        auto_prefix: auto,
                        ..SchedulerConfig::default()
                    },
                );
                if pin {
                    let pin = sched.pin_prefix(&prefix).unwrap();
                    assert_eq!(pin.pages(), pinned);
                    assert_eq!(sched.pool_snapshot().pinned_pages, pinned);
                }
                for i in 0..batch {
                    let req = behind(&prefix, mk_req(i));
                    if pin {
                        // Each stream is charged its pages past the pin.
                        assert_eq!(sched.pages_needed(&req), (capacity - pinned) / batch);
                    }
                    sched.submit(req).unwrap();
                }
                let done = sorted(sched.run_to_completion());
                assert_eq!(done.len(), batch, "serialized at worst, never starved");
                let tokens: Vec<_> = done.into_iter().map(|f| f.tokens).collect();
                (tokens, sched.stats())
            };

            let (private_tokens, private) = run(false, false, None);
            assert_eq!(private.prefill_tokens, (batch * (prefix_len + 8)) as u64);
            assert_eq!(
                private.peak_pages_in_use,
                batch * n_layers * (prefix_len + 8 + 16).div_ceil(pp)
            );
            let (_, private_bounded) = run(false, false, Some(capacity));
            assert_eq!(
                private_bounded.peak_active, private_concurrent,
                "private prompts serialize"
            );

            for auto in [false, true] {
                let (tokens, shared) = run(true, auto, Some(capacity));
                assert_eq!(
                    tokens, private_tokens,
                    "{storage:?} P={prefix_len} auto={auto}"
                );
                assert_eq!(shared.prefill_tokens, shared_prefill);
                assert_eq!(
                    shared.peak_active, batch,
                    "the shared batch runs concurrently"
                );
                // `pages(P) + N·pages(private)`, not `N·pages(P+private)`.
                assert_eq!(shared.peak_pages_in_use, capacity);
                assert_eq!(shared.prefix_forks, batch as u64);
                // The prefix's whole pages are prefilled once instead
                // of N times, and leased once instead of N times.
                assert_eq!(
                    shared.prefill_tokens + ((batch - 1) * whole * pp) as u64,
                    private.prefill_tokens
                );
                assert_eq!(
                    shared.peak_pages_in_use + (batch - 1) * n_layers * whole,
                    private.peak_pages_in_use
                );
            }
        }
    }
}

/// Pin lifecycle: validation, page granularity, nesting, and the two
/// unpins with dependents — while one is queued and while one is
/// decoding. Both return at once, the dependents finish with the tokens
/// of an unshared run, and the drained scheduler holds only ordinary
/// evictable cache.
#[test]
fn pin_lifecycle_and_page_drain() {
    let m = model();
    let n_layers = m.config().n_layers;
    let cfg = SchedulerConfig {
        max_batch: 2,
        kv: KvPoolConfig {
            storage: KvStorage::Fp16,
            page_positions: 4,
            max_pages: Some(n_layers * 40),
        },
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::new(m, cfg);
    let vocab = m.config().vocab;
    assert_eq!(sched.pin_prefix(&[]).unwrap_err(), SubmitError::EmptyPrompt);
    assert_eq!(
        sched.pin_prefix(&[vocab]).unwrap_err(),
        SubmitError::TokenOutOfVocab {
            token: vocab,
            vocab
        }
    );
    // Shorter than a page: nothing to pin, nothing prefilled.
    let empty = sched.pin_prefix(&[5, 6, 7]).unwrap();
    assert_eq!(empty.pages(), 0);
    assert_eq!(sched.stats().prefill_tokens, 0);
    assert_eq!(sched.unpin_prefix(empty), 0);

    let prefix = [5, 6, 7, 8, 9];
    let dependent = |tail: &[usize]| {
        Request::builder([&prefix[..], tail].concat())
            .max_new(3)
            .build()
            .unwrap()
    };
    let pin = sched.pin_prefix(&prefix).unwrap();
    assert_eq!(pin.pages(), n_layers, "5 tokens → 1 whole page per layer");
    assert_eq!(sched.pool_snapshot().pinned_pages, n_layers);
    assert_eq!(sched.kv_pool().pages_in_use(), n_layers);
    // Pinning the same prefix again nests: no new pages, no prefill.
    let again = sched.pin_prefix(&prefix).unwrap();
    assert_eq!(sched.pool_snapshot().pinned_pages, n_layers);
    assert_eq!(sched.stats().prefill_tokens, 4);
    assert_eq!(
        sched.unpin_prefix(again),
        0,
        "the first pin still covers it"
    );

    // Unpin while the dependent is still queued: nobody reads the
    // pages, so they go back to the pool at once.
    let queued = sched.submit(dependent(&[1, 2])).unwrap();
    assert_eq!(sched.unpin_prefix(pin), n_layers);
    assert_eq!(sched.pool_snapshot().pinned_pages, 0);
    assert_eq!(sched.kv_pool().pages_in_use(), 0);

    // Unpin while a dependent decodes on the pages: they stay, as
    // resident cache, for as long as the stream holds them.
    let pin = sched.pin_prefix(&prefix).unwrap();
    let active = sched.submit(dependent(&[3])).unwrap();
    sched.step();
    assert!(
        sched.generated_len(active).is_some(),
        "admitted and decoding"
    );
    assert_eq!(sched.unpin_prefix(pin), n_layers);
    let snap = sched.pool_snapshot();
    assert_eq!(
        (snap.pinned_pages, snap.radix_resident_pages),
        (0, n_layers)
    );

    let done = sorted(sched.run_to_completion());
    assert_eq!(done.len(), 2);
    let mut private = Scheduler::new(m, cfg);
    private.submit(dependent(&[1, 2])).unwrap();
    private.submit(dependent(&[3])).unwrap();
    let reference = sorted(private.run_to_completion());
    for (s, p) in done.iter().zip(&reference) {
        assert_eq!(s.tokens, p.tokens, "stream {} diverged", s.id);
    }
    assert_eq!(done[0].id, queued);
    assert_eq!(done[0].prompt_len, 7);

    // Drained: what is left is evictable cache, and a flush empties it.
    let snap = sched.pool_snapshot();
    assert_eq!(snap.reserved_pages, 0);
    assert_eq!(snap.pages_in_use, snap.radix_resident_pages);
    sched.flush_prefix_cache();
    assert_eq!(sched.kv_pool().pages_in_use(), 0, "all pages drained");
}

/// A request that fits the pool only thanks to a pin's discount is
/// accepted and finishes — and still finishes when the pin is dropped
/// while it waits, because the unpin hands back at least the pages the
/// discount assumed.
#[test]
fn request_admissible_only_through_a_pin_survives_its_unpin() {
    let m = model();
    let n_layers = m.config().n_layers;
    // 3 pages per layer: a 2-page pin and one page beside it.
    let mk = || {
        Scheduler::new(
            m,
            SchedulerConfig {
                max_batch: 2,
                kv: KvPoolConfig {
                    storage: KvStorage::Fp16,
                    page_positions: 4,
                    max_pages: Some(n_layers * 3),
                },
                ..SchedulerConfig::default()
            },
        )
    };
    let prefix: Vec<usize> = (0..8).map(|i| (i * 11 + 5) % 512).collect();
    // 8 shared + 1 private + 1 new position: 3 pages per layer, 2 of
    // them the pin's.
    let req = || {
        Request::builder([&prefix[..], &[42]].concat())
            .max_new(1)
            .build()
            .unwrap()
    };
    for unpin_while_pending in [false, true] {
        let mut sched = mk();
        let pin = sched.pin_prefix(&prefix).unwrap();
        assert_eq!(pin.pages(), n_layers * 2);
        // Without the discount the request would be refused outright.
        let stranger = Request::builder((100..109).collect::<Vec<_>>())
            .max_new(1)
            .build()
            .unwrap();
        assert_eq!(
            sched.submit(stranger),
            Err(SubmitError::PoolSaturated {
                pages: n_layers * 3,
                available: n_layers
            })
        );
        assert_eq!(sched.pages_needed(&req()), n_layers);
        sched.submit(req()).unwrap();
        if unpin_while_pending {
            assert_eq!(sched.unpin_prefix(pin), n_layers * 2);
        }
        let done = sched.run_to_completion();
        assert_eq!(done.len(), 1, "accepted work always finishes");
        let mut private = mk();
        private.submit(req()).unwrap();
        assert_eq!(done[0].tokens, private.run_to_completion()[0].tokens);
    }
}

/// Mixed batches — streams over either of two live pins and one over
/// neither, decoding side by side — stay bit-exact.
#[test]
fn mixed_and_multi_prefix_batches_are_exact() {
    let m = model();
    let cfg = SchedulerConfig {
        max_batch: 4,
        kv: KvPoolConfig {
            storage: KvStorage::Anda { mantissa_bits: 8 },
            page_positions: 8,
            max_pages: None,
        },
        ..SchedulerConfig::default()
    };
    let prefix_a: Vec<usize> = (0..11).map(|i| (i * 3 + 2) % 500).collect();
    let prefix_b: Vec<usize> = (0..19).map(|i| (i * 13 + 5) % 500).collect();
    let requests = || {
        [
            ([prefix_a.clone(), vec![1, 2]].concat(), 6),
            ([prefix_b.clone(), vec![3, 4]].concat(), 6),
            (vec![5, 6], 6),
            ([prefix_a.clone(), vec![7]].concat(), 5),
        ]
        .map(|(prompt, max_new)| Request::builder(prompt).max_new(max_new).build().unwrap())
    };

    let mut sched = Scheduler::new(m, cfg);
    let pin_a = sched.pin_prefix(&prefix_a).unwrap();
    let pin_b = sched.pin_prefix(&prefix_b).unwrap();
    assert_eq!(
        sched.pool_snapshot().pinned_pages,
        pin_a.pages() + pin_b.pages()
    );
    for r in requests() {
        sched.submit(r).unwrap();
    }
    let done = sorted(sched.run_to_completion());
    assert_eq!(sched.stats().prefix_forks, 3);

    let mut reference = Scheduler::new(m, cfg);
    for r in requests() {
        reference.submit(r).unwrap();
    }
    let ref_done = sorted(reference.run_to_completion());
    for (s, p) in done.iter().zip(&ref_done) {
        assert_eq!(s.tokens, p.tokens, "stream {} diverged", s.id);
    }
    sched.unpin_prefix(pin_a);
    sched.unpin_prefix(pin_b);
    assert_eq!(sched.kv_pool().pages_in_use(), 0);
}

/// A pin ordered *after* an accepted submit must not strand it: a pin
/// that would leave the pending request permanently unadmittable is
/// refused, the request still completes, and the same pin is accepted
/// once the queue has drained.
#[test]
fn late_pin_cannot_strand_accepted_requests() {
    let m = model();
    let n_layers = m.config().n_layers;
    // Capacity: exactly one 4-token request (2 pages/layer at pp=2).
    let mut sched = Scheduler::new(
        m,
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                storage: KvStorage::Fp16,
                page_positions: 2,
                max_pages: Some(n_layers * 2),
            },
            ..SchedulerConfig::default()
        },
    );
    sched
        .submit(Request::builder(vec![1, 2, 3]).max_new(1).build().unwrap())
        .unwrap();
    // Pinning even one page/layer now would make the queued request's
    // 2-page demand unadmittable forever — must be refused.
    let err = sched.pin_prefix(&[5, 6]).unwrap_err();
    // Transient refusal: the pool *could* hold the pin once the queue
    // drains (shown below), so this is saturation, not a capacity error.
    assert_eq!(
        err,
        SubmitError::PoolSaturated {
            pages: n_layers,
            available: 0
        },
        "a pin that strands the queue must be refused"
    );
    assert_eq!(
        sched.pool_snapshot().pinned_pages,
        0,
        "refused pins charge nothing"
    );
    assert_eq!(sched.stats().prefill_tokens, 0, "and prefill nothing");
    let done = sched.run_to_completion();
    assert_eq!(done.len(), 1, "the accepted request still terminates");
    // With the queue drained the same pin fits.
    let pin = sched.pin_prefix(&[5, 6]).unwrap();
    assert_eq!(sched.unpin_prefix(pin), n_layers);
}
