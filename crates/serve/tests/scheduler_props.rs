//! Scheduler property suite: random arrival/length mixes must respect
//! the page-accounted admission invariants at every iteration.
//!
//! - **Page accounting**: active reservations never exceed the pool
//!   capacity, the pages actually leased never exceed the reservations,
//!   and the pool never creates more pages than its capacity.
//! - **No starvation**: every accepted request finishes (FIFO admission
//!   with no overtaking guarantees the queue head always drains).
//! - **Exact termination**: an accepted request generates exactly
//!   `min(max_new, first EOS position + 1)` tokens, and its output equals
//!   the solo `Model::generate` reference.
//! - **Policy independence**: the scheduling configuration (batch width,
//!   page size, pool capacity) changes only throughput, never content.
//! - **Page recycling**: after the schedule drains, every page is back
//!   on the free list, and freed pages were reused before growth.

use std::sync::OnceLock;

use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_serve::{
    FinishReason, FinishedRequest, KvPoolConfig, Priority, Request, SamplingMode, SamplingParams,
    Scheduler, SchedulerConfig, SubmitError,
};
use anda_tensor::Rng;
use proptest::prelude::*;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

/// (prompt, max_new, eos?, temperature>0?, seed) tuples drawn small: the
/// invariants are about scheduling, not model quality.
type RawReq = (Vec<usize>, usize, bool, usize, u64);

fn build_request((prompt, max_new, has_eos, eos, seed): RawReq, hot: bool) -> Request {
    let mut builder = Request::builder(prompt)
        .max_new(max_new)
        .temperature(if hot { 0.9 } else { 0.0 })
        .seed(seed);
    if has_eos {
        builder = builder.eos(eos);
    }
    builder.build().unwrap()
}

/// `req` with `prefix` leading its prompt.
fn behind(prefix: &[usize], req: &Request) -> Request {
    Request {
        prompt: [prefix, &req.prompt].concat(),
        ..req.clone()
    }
}

/// The solo reference, truncated at the first EOS.
fn reference(model: &Model, req: &Request) -> Vec<usize> {
    let mut rng = Rng::new(req.sampling.seed);
    let full = model.generate(&req.prompt, req.max_new, req.sampling.temperature, &mut rng);
    if let Some(eos) = req.eos {
        let p = req.prompt.len();
        if let Some(i) = full[p..].iter().position(|&t| t == eos) {
            return full[..p + i + 1].to_vec();
        }
    }
    full
}

/// The page-accounting invariants that must hold between any two
/// scheduler calls.
fn check_accounting(sched: &Scheduler<'_>) {
    let snap = sched.pool_snapshot();
    if let Some(cap) = snap.capacity {
        assert!(
            snap.reserved_pages <= cap,
            "reservations {} exceed the pool capacity {cap}",
            snap.reserved_pages
        );
        assert!(
            snap.pages_created <= cap,
            "pool created {} pages past its capacity {cap}",
            snap.pages_created
        );
    }
    assert!(
        snap.pages_in_use <= snap.reserved_pages + snap.pinned_pages + snap.radix_resident_pages,
        "leased pages {} outgrew the reservations {} + pinned {} + cache-resident {}",
        snap.pages_in_use,
        snap.reserved_pages,
        snap.pinned_pages,
        snap.radix_resident_pages
    );
    assert!(
        sched.stats().peak_pages_in_use >= snap.pages_in_use,
        "peak watermark fell behind the live page count"
    );
    assert!(
        sched.active_len() <= sched.config().max_batch,
        "slot overflow"
    );
}

/// Runs `sched` to completion while checking the per-iteration
/// invariants, with a hard step cap standing in for "does not starve".
fn run_checked(sched: &mut Scheduler<'_>) -> Vec<FinishedRequest> {
    let mut steps = 0usize;
    while !sched.is_idle() {
        sched.step();
        steps += 1;
        check_accounting(sched);
        assert!(
            steps <= 10_000,
            "scheduler starved: no completion in 10k steps"
        );
    }
    // Drained: every page the radix tree does not hold (pinned or
    // resident) is back on the free list for the next wave.
    assert_eq!(
        sched.kv_pool().pages_in_use(),
        sched.pool_snapshot().pinned_pages + sched.pool_snapshot().radix_resident_pages,
        "pages leaked at drain"
    );
    assert_eq!(
        sched.pool_snapshot().reserved_pages,
        0,
        "reservations leaked at drain"
    );
    sched.take_finished()
}

fn check_termination(model: &Model, req: &Request, fin: &FinishedRequest) {
    assert_eq!(
        &fin.tokens[..fin.prompt_len],
        &req.prompt[..],
        "prompt prefix must be preserved"
    );
    let generated = fin.generated();
    assert!(generated.len() <= req.max_new);
    match fin.reason {
        FinishReason::Length => {
            assert_eq!(
                generated.len(),
                req.max_new,
                "Length-finished stream must use its whole budget"
            );
            if let Some(eos) = req.eos {
                assert!(
                    !generated.contains(&eos),
                    "an EOS sample must finish the stream as Eos"
                );
            }
        }
        FinishReason::Eos => {
            let eos = req.eos.expect("Eos reason requires an EOS token");
            assert_eq!(*generated.last().unwrap(), eos);
            assert_eq!(
                generated.iter().filter(|&&t| t == eos).count(),
                1,
                "the stream must stop at the first EOS"
            );
        }
    }
    // Exactness: min(max_new, first EOS + 1), token for token.
    assert_eq!(
        fin.tokens,
        reference(model, req),
        "diverged from solo generate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mixes of arrivals, lengths, temperatures and EOS tokens
    /// over a bounded page pool: page accounting respected each
    /// iteration, nobody starves, terminations are exact, and a second
    /// scheduler with a different policy produces byte-identical outputs.
    #[test]
    fn random_mixes_respect_page_accounting_and_terminate_exactly(
        raw in prop::collection::vec(
            (
                prop::collection::vec(0usize..512, 1..6),
                0usize..5,
                any::<bool>(),
                0usize..512,
                0u64..100_000,
            ),
            1..8,
        ),
        hot in any::<bool>(),
        max_batch in 1usize..5,
        page_positions in 1usize..6,
        capacity_tokens in 6usize..48,
    ) {
        let model = model();
        // Capacity expressed in worst-case positions, converted to whole
        // pages per layer so every page size yields a servable pool.
        let max_pages =
            model.config().n_layers * capacity_tokens.div_ceil(page_positions);
        let kv = KvPoolConfig {
            page_positions,
            max_pages: Some(max_pages),
            ..KvPoolConfig::default()
        };
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig { max_batch, kv, ..SchedulerConfig::default() },
            rayon_lite::global(),
        );
        let mut accepted = Vec::new();
        for r in raw {
            let req = build_request(r, hot);
            let demand =
                model.config().n_layers * req.reserve_tokens().div_ceil(page_positions);
            match sched.submit(req.clone()) {
                Ok(id) => {
                    prop_assert!(demand <= max_pages, "admitted an oversized request");
                    accepted.push((id, req));
                }
                Err(e) => {
                    // Only over-capacity requests may be turned away here
                    // (prompts are in-vocab and far below max_seq), and
                    // rejection must be justified.
                    prop_assert_eq!(e, SubmitError::ExceedsPoolCapacity {
                        pages: demand,
                        capacity: max_pages,
                    });
                    prop_assert!(demand > max_pages);
                }
            }
        }

        let finished = run_checked(&mut sched);
        // No starvation: exactly the accepted set finishes.
        let mut done_ids: Vec<_> = finished.iter().map(|f| f.id).collect();
        done_ids.sort();
        let submitted_ids: Vec<_> = accepted.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(done_ids, submitted_ids);

        for fin in &finished {
            let (_, req) = accepted
                .iter()
                .find(|(id, _)| *id == fin.id)
                .expect("finished id was accepted");
            check_termination(model, req, fin);
        }

        // Policy independence: a serial scheduler with an unbounded pool
        // and a different page size over the same accepted requests
        // produces identical tokens per id.
        let mut solo = Scheduler::with_pool(
            model,
            SchedulerConfig { max_batch: 1, kv: KvPoolConfig::default(), ..SchedulerConfig::default() },
            rayon_lite::global(),
        );
        for (_, req) in &accepted {
            solo.submit(req.clone()).unwrap();
        }
        let mut solo_done = solo.run_to_completion();
        solo_done.sort_by_key(|f| f.id);
        let mut batched_done = finished;
        batched_done.sort_by_key(|f| f.id);
        for (a, b) in batched_done.iter().zip(&solo_done) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.tokens, &b.tokens);
            prop_assert_eq!(a.reason, b.reason);
        }
    }

    /// Random mixes where a subset of prompts starts with one pinned
    /// prefix: the page-accounting invariants hold with the pin
    /// included, nobody starves, and every completion is bit-identical
    /// to the same prompts served with nothing pinned.
    #[test]
    fn prefix_routed_mixes_stay_exact_and_account_pinned_pages(
        raw in prop::collection::vec(
            (
                prop::collection::vec(0usize..512, 1..5),
                0usize..5,
                any::<bool>(),
                0usize..512,
                0u64..100_000,
            ),
            1..6,
        ),
        route in prop::collection::vec(any::<bool>(), 6),
        prefix_len in 1usize..14,
        hot in any::<bool>(),
        max_batch in 1usize..4,
        page_positions in 1usize..6,
    ) {
        let model = model();
        let n_layers = model.config().n_layers;
        let prefix: Vec<usize> = (0..prefix_len).map(|i| (i * 37 + 3) % 512).collect();
        // Capacity: the prefix pin plus room for a couple of worst-case
        // streams, so admission really has to wait on the watermark.
        let per_layer = (prefix_len + 10).div_ceil(page_positions);
        let max_pages = n_layers * (per_layer * 2 + prefix_len.div_ceil(page_positions));
        let kv = KvPoolConfig {
            page_positions,
            max_pages: Some(max_pages),
            ..KvPoolConfig::default()
        };
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig { max_batch, kv, ..SchedulerConfig::default() },
            rayon_lite::global(),
        );
        let pin = sched.pin_prefix(&prefix).unwrap();
        prop_assert_eq!(pin.pages(), n_layers * (prefix_len / page_positions));
        prop_assert_eq!(sched.pool_snapshot().pinned_pages, pin.pages());

        let mut accepted = Vec::new();
        for (i, r) in raw.into_iter().enumerate() {
            let private = build_request(r, hot);
            let req = if route[i] { behind(&prefix, &private) } else { private };
            if let Ok(id) = sched.submit(req.clone()) {
                accepted.push((id, req));
            }
        }
        let finished = run_checked(&mut sched);
        prop_assert_eq!(finished.len(), accepted.len(), "someone starved");

        // Reference: the same prompts through a serial unbounded
        // scheduler with nothing pinned.
        let mut solo = Scheduler::with_pool(
            model,
            SchedulerConfig { max_batch: 1, kv: KvPoolConfig::default(), ..SchedulerConfig::default() },
            rayon_lite::global(),
        );
        let mut expect = Vec::new();
        for (id, req) in &accepted {
            expect.push((*id, solo.submit(req.clone()).unwrap()));
        }
        let mut solo_done = solo.run_to_completion();
        solo_done.sort_by_key(|f| f.id);
        let mut batched = finished;
        batched.sort_by_key(|f| f.id);
        for ((shared_id, solo_id), s) in expect.iter().zip(&batched) {
            prop_assert_eq!(*shared_id, s.id);
            let solo_fin = solo_done
                .iter()
                .find(|f| f.id == *solo_id)
                .expect("solo twin finished");
            prop_assert_eq!(&s.tokens, &solo_fin.tokens, "diverged from private twin");
            prop_assert_eq!(s.prompt_len, solo_fin.prompt_len);
        }

        // The pin outlives the wave and unpins cleanly.
        let pinned = pin.pages();
        prop_assert_eq!(sched.unpin_prefix(pin), pinned);
        prop_assert_eq!(sched.kv_pool().pages_in_use(), 0);
    }

    /// Random interleavings of every entry point that moves pages —
    /// `pin_prefix`, `unpin_prefix`, `submit`, `step`, `cancel`,
    /// `flush_prefix_cache` — on a bounded pool, prompts drawn from one
    /// family so pins, discovered cache and streams overlap: the
    /// accounting invariants hold after every call (and the scheduler's
    /// own per-step ledger `debug_assert` never fires), every accepted,
    /// uncancelled request finishes bit-equal to its solo reference,
    /// and the drained pool holds exactly the tree's pages.
    #[test]
    fn op_interleavings_keep_the_ledger_and_stay_exact(
        ops in prop::collection::vec((0usize..8, 0usize..64, 0u64..100_000), 8..40),
        auto_prefix in any::<bool>(),
        max_batch in 1usize..4,
        page_positions in 1usize..6,
        capacity_tokens in 24usize..64,
    ) {
        let model = model();
        let family: Vec<usize> = (0..16).map(|i| (i * 37 + 3) % 512).collect();
        let max_pages = model.config().n_layers * capacity_tokens.div_ceil(page_positions);
        let kv = KvPoolConfig {
            page_positions,
            max_pages: Some(max_pages),
            ..KvPoolConfig::default()
        };
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig { max_batch, kv, auto_prefix, ..SchedulerConfig::default() },
            rayon_lite::global(),
        );
        let refusal_is_about_pages = |e: SubmitError| {
            matches!(
                e,
                SubmitError::PoolSaturated { .. } | SubmitError::ExceedsPoolCapacity { .. }
            )
        };
        let prios = [Priority::High, Priority::Normal, Priority::Low];
        let mut pins = Vec::new();
        let mut accepted = Vec::new();
        let mut cancelled = Vec::new();
        for (op, a, b) in ops {
            match op {
                0 => match sched.pin_prefix(&family[..1 + a % 16]) {
                    Ok(pin) => pins.push(pin),
                    Err(e) => prop_assert!(refusal_is_about_pages(e), "{e}"),
                },
                1 if !pins.is_empty() => {
                    let pin = pins.swap_remove(a % pins.len());
                    prop_assert!(sched.unpin_prefix(pin) <= max_pages);
                }
                2 | 3 => {
                    let mut prompt = family[..a % 17].to_vec();
                    prompt.extend((0..1 + a % 3).map(|j| (b as usize + j * 7) % 512));
                    let mut req =
                        build_request((prompt, b as usize % 5, false, 0, b), b % 2 == 0);
                    req.priority = prios[a % 3];
                    match sched.submit(req.clone()) {
                        Ok(id) => accepted.push((id, req)),
                        Err(e) => prop_assert!(refusal_is_about_pages(e), "{e}"),
                    }
                }
                4 | 5 => {
                    sched.step();
                }
                6 if !accepted.is_empty() => {
                    let (id, _) = accepted[a % accepted.len()];
                    if sched.cancel(id).is_ok() {
                        cancelled.push(id);
                    }
                }
                _ => {
                    sched.flush_prefix_cache();
                }
            }
            check_accounting(&sched);
        }

        let finished = run_checked(&mut sched);
        let mut done_ids: Vec<_> = finished.iter().map(|f| f.id).collect();
        done_ids.sort();
        let mut expect_ids: Vec<_> = accepted
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| !cancelled.contains(id))
            .collect();
        expect_ids.sort();
        prop_assert_eq!(done_ids, expect_ids, "accepted work must finish exactly once");
        for fin in &finished {
            let (_, req) = accepted
                .iter()
                .find(|(id, _)| *id == fin.id)
                .expect("finished id was accepted");
            check_termination(model, req, fin);
        }

        // Dropping every pin and flushing hands the whole pool back.
        for pin in pins {
            sched.unpin_prefix(pin);
        }
        sched.flush_prefix_cache();
        let snap = sched.pool_snapshot();
        prop_assert_eq!(
            (snap.pages_in_use, snap.pinned_pages, snap.radix_resident_pages),
            (0, 0, 0)
        );
    }

    /// Random prompt families over an auto-prefix scheduler on a
    /// bounded pool: the radix cache keeps the lease invariant
    /// (checked each iteration by `run_checked`), LRU eviction under
    /// page pressure never corrupts a stream, and every completion is
    /// bit-identical to the solo reference even when its prompt was
    /// served from a cached prefix.
    #[test]
    fn auto_prefix_mixes_stay_exact_under_eviction(
        family in prop::collection::vec(0usize..512, 8..24),
        raw in prop::collection::vec(
            (
                0usize..=16,                              // shared family depth
                prop::collection::vec(0usize..512, 1..5), // private tail
                0usize..5,
                0u64..100_000,
            ),
            2..8,
        ),
        hot in any::<bool>(),
        max_batch in 1usize..4,
        page_positions in 1usize..6,
        capacity_tokens in 24usize..64,
    ) {
        let model = model();
        let max_pages =
            model.config().n_layers * capacity_tokens.div_ceil(page_positions);
        let kv = KvPoolConfig {
            page_positions,
            max_pages: Some(max_pages),
            ..KvPoolConfig::default()
        };
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig {
                max_batch,
                kv,
                auto_prefix: true,
                ..SchedulerConfig::default()
            },
            rayon_lite::global(),
        );
        let mut accepted = Vec::new();
        for (depth, tail, max_new, seed) in raw {
            let depth = depth.min(family.len());
            let mut prompt = family[..depth].to_vec();
            prompt.extend_from_slice(&tail);
            let req = build_request((prompt, max_new, false, 0, seed), hot);
            // Worst-case demand fits the pool by construction:
            // depth (<=16) + tail (<=4) + max_new (<=4) stays within
            // capacity_tokens' floor of 24.
            let id = sched.submit(req.clone()).unwrap();
            accepted.push((id, req));
        }

        let finished = run_checked(&mut sched);
        let mut done_ids: Vec<_> = finished.iter().map(|f| f.id).collect();
        done_ids.sort();
        let submitted_ids: Vec<_> = accepted.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(done_ids, submitted_ids, "someone starved");
        for fin in &finished {
            let (_, req) = accepted
                .iter()
                .find(|(id, _)| *id == fin.id)
                .expect("finished id was accepted");
            check_termination(model, req, fin);
        }

        // The cache accounts its residency exactly, and flushing it
        // returns the pool to empty (nothing pinned here).
        let resident = sched.pool_snapshot().radix_resident_pages;
        prop_assert_eq!(sched.kv_pool().pages_in_use(), resident);
        sched.flush_prefix_cache();
        prop_assert_eq!(sched.pool_snapshot().radix_resident_pages, 0);
        prop_assert_eq!(sched.kv_pool().pages_in_use(), 0);
    }

    /// With chunked prefill enabled, an admitted decode stream never
    /// stalls: once a stream has sampled at least once, **every**
    /// subsequent step advances it by exactly one token until it
    /// finishes — long-prompt arrivals included — so the per-admission
    /// stall budget is zero, not just "at most one step". Outputs stay
    /// bit-identical to the solo reference.
    #[test]
    fn chunked_prefill_never_stalls_decode_streams(
        raw in prop::collection::vec(
            (
                prop::collection::vec(0usize..512, 1..24),
                1usize..6,
                any::<bool>(),
                0usize..512,
                0u64..100_000,
            ),
            1..7,
        ),
        hot in any::<bool>(),
        max_batch in 2usize..5,
        chunk in 0usize..7,
        page_positions in 1usize..6,
    ) {
        let model = model();
        let kv = KvPoolConfig { page_positions, ..KvPoolConfig::default() };
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig {
                max_batch,
                kv,
                prefill_chunk_tokens: Some(chunk),
                ..SchedulerConfig::default()
            },
            rayon_lite::global(),
        );
        let mut accepted = Vec::new();
        for r in raw {
            let req = build_request(r, hot);
            let id = sched.submit(req.clone()).unwrap();
            accepted.push((id, req));
        }

        let mut steps = 0usize;
        while !sched.is_idle() {
            let decoding: Vec<_> = accepted
                .iter()
                .filter_map(|(id, _)| {
                    sched.generated_len(*id).filter(|&g| g > 0).map(|g| (*id, g))
                })
                .collect();
            sched.step();
            for (id, before) in decoding {
                // Still active after the step → it must have sampled.
                if let Some(after) = sched.generated_len(id) {
                    prop_assert_eq!(after, before + 1, "decode stream stalled");
                }
            }
            steps += 1;
            prop_assert!(steps <= 10_000, "scheduler starved");
        }
        prop_assert_eq!(sched.stats().stalled_prefill_tokens, 0);

        let mut finished = sched.take_finished();
        finished.sort_by_key(|f| f.id);
        prop_assert_eq!(finished.len(), accepted.len(), "someone starved");
        for fin in &finished {
            let (_, req) = accepted
                .iter()
                .find(|(id, _)| *id == fin.id)
                .expect("finished id was accepted");
            check_termination(model, req, fin);
        }
    }
}

/// With one slot, completion order is exactly submission order — the
/// FIFO guarantee in its purest observable form.
#[test]
fn single_slot_completes_in_fifo_order() {
    let model = model();
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 1,
            kv: KvPoolConfig {
                page_positions: 4,
                max_pages: Some(model.config().n_layers * 16),
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    let lengths = [5usize, 1, 3, 2];
    for (i, &n) in lengths.iter().enumerate() {
        sched
            .submit(
                Request::builder(vec![(i * 17 + 1) % 512])
                    .max_new(n)
                    .build()
                    .unwrap(),
            )
            .unwrap();
    }
    let finished = sched.run_to_completion();
    let order: Vec<u64> = finished.iter().map(|f| f.id.0).collect();
    assert_eq!(order, vec![0, 1, 2, 3]);
}

/// Unservable requests are rejected up front with the right reason —
/// queueing them would break the no-starvation guarantee.
#[test]
fn submit_rejects_unservable_requests() {
    let model = model();
    let max_seq = model.config().max_seq;
    let n_layers = model.config().n_layers;
    let vocab = model.config().vocab;
    let page_positions = 4;
    let max_pages = n_layers * 8; // 32 worst-case positions per layer
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                page_positions,
                max_pages: Some(max_pages),
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    // The builder refuses an empty prompt at build time; the scheduler
    // still guards against hand-built requests.
    assert_eq!(
        sched.submit(Request {
            prompt: vec![],
            max_new: 4,
            eos: None,
            sampling: SamplingParams::greedy(),
            priority: Priority::Normal,
            mode: SamplingMode::Single,
        }),
        Err(SubmitError::EmptyPrompt)
    );
    assert_eq!(
        sched.submit(Request::builder(vec![vocab]).max_new(4).build().unwrap()),
        Err(SubmitError::TokenOutOfVocab {
            token: vocab,
            vocab
        })
    );
    assert_eq!(
        sched.submit(Request {
            prompt: vec![1],
            max_new: 2,
            eos: Some(vocab + 7),
            sampling: SamplingParams::greedy(),
            priority: Priority::Normal,
            mode: SamplingMode::Single,
        }),
        Err(SubmitError::TokenOutOfVocab {
            token: vocab + 7,
            vocab
        })
    );
    assert_eq!(
        sched.submit(Request::builder(vec![1]).max_new(max_seq).build().unwrap()),
        Err(SubmitError::ExceedsMaxSeq {
            total: max_seq + 1,
            max_seq
        })
    );
    // An absurd max_new must not wrap the reservation past the checks.
    assert_eq!(
        sched.submit(
            Request::builder(vec![1, 2])
                .max_new(usize::MAX)
                .build()
                .unwrap()
        ),
        Err(SubmitError::ExceedsMaxSeq {
            total: usize::MAX,
            max_seq
        })
    );
    // 41 worst-case positions → 11 pages per layer > the pool's 8.
    assert_eq!(
        sched.submit(Request::builder(vec![1]).max_new(40).build().unwrap()),
        Err(SubmitError::ExceedsPoolCapacity {
            pages: n_layers * 41usize.div_ceil(page_positions),
            capacity: max_pages
        })
    );
    // A servable request still goes through afterwards.
    assert!(sched
        .submit(Request::builder(vec![1, 2]).max_new(4).build().unwrap())
        .is_ok());
    assert_eq!(sched.run_to_completion().len(), 1);
}

/// A `max_new == 0` request retires at admission without touching the
/// model: its tokens are its prompt and no page is ever leased. A
/// one-token request is prefilled, sampled and retired inside a single
/// step, so its pages never survive to the next one — the peak
/// watermark must still record the footprint (it is sampled before the
/// step retires its finished streams).
#[test]
fn peak_watermark_sees_a_single_step_request() {
    let model = model();
    let pp = 4usize;
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                page_positions: pp,
                max_pages: None,
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    let prompt: Vec<usize> = (0..9).map(|i| (i * 7 + 1) % 512).collect();
    sched
        .submit(Request::builder(prompt.clone()).max_new(0).build().unwrap())
        .unwrap();
    let done = sched.run_to_completion();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].tokens, prompt);
    assert_eq!(sched.stats().prefill_tokens, 0);
    assert_eq!(sched.stats().peak_pages_in_use, 0);

    sched
        .submit(Request::builder(prompt.clone()).max_new(1).build().unwrap())
        .unwrap();
    assert_eq!(sched.step(), 1);
    assert!(sched.is_idle(), "one step serves the whole request");
    assert_eq!(sched.kv_pool().pages_in_use(), 0);
    assert_eq!(
        sched.stats().peak_pages_in_use,
        model.config().n_layers * prompt.len().div_ceil(pp),
    );
}

/// Pinning the whole pool must degrade the submit-time headroom to
/// zero, never underflow it: a fully pinned pool refuses any request
/// with `PoolSaturated { available: 0 }` — the *transient* refusal,
/// distinct from `ExceedsPoolCapacity` (which means the raw pool could
/// never hold the request) — instead of panicking: the headroom
/// beside the pins is saturating arithmetic.
#[test]
fn fully_pinned_pool_rejects_without_underflow() {
    let model = model();
    let n_layers = model.config().n_layers;
    let pp = 4usize;
    let max_pages = n_layers * 2; // exactly one 8-token prefix
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                page_positions: pp,
                max_pages: Some(max_pages),
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    let prefix: Vec<usize> = (0..8).map(|i| (i * 37 + 3) % 512).collect();
    let pin = sched.pin_prefix(&prefix).unwrap();
    assert_eq!(pin.pages(), max_pages);
    assert_eq!(
        sched.submit(Request::builder(vec![1]).max_new(1).build().unwrap()),
        Err(SubmitError::PoolSaturated {
            pages: n_layers,
            available: 0
        })
    );
    // A second prefix cannot be pinned beside the first either.
    assert_eq!(
        sched.pin_prefix(&[9, 9, 9, 9]).unwrap_err(),
        SubmitError::PoolSaturated {
            pages: n_layers,
            available: 0
        }
    );
    // Dropping the pin restores the headroom and the request fits.
    assert_eq!(sched.unpin_prefix(pin), max_pages);
    assert!(sched
        .submit(Request::builder(vec![1]).max_new(1).build().unwrap())
        .is_ok());
    assert_eq!(sched.run_to_completion().len(), 1);
}

/// Boundary arithmetic around the page-demand discount: a pinned,
/// exactly page-aligned prefix discounts all of its whole pages without
/// underflow, and a request whose demand is exactly the remaining
/// headroom is admitted (the watermark is `<=`, not `<`).
#[test]
fn aligned_prefix_discount_and_exact_fit_admit() {
    let model = model();
    let n_layers = model.config().n_layers;
    let pp = 4usize;
    // Prefix pins 2 pages/layer; one exact-fit stream needs 1 more.
    let max_pages = n_layers * 3;
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                page_positions: pp,
                max_pages: Some(max_pages),
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    let prefix: Vec<usize> = (0..8).map(|i| (i * 11 + 5) % 512).collect();
    let _pin = sched.pin_prefix(&prefix).unwrap();
    // prompt 1 + max_new 0 on top of 8 shared positions: pages_for(9)
    // = 3 minus the 2 shared whole pages — exactly one private page.
    let req = Request::builder([&prefix[..], &[42]].concat())
        .max_new(0)
        .build()
        .unwrap();
    assert_eq!(sched.pages_needed(&req), n_layers);
    // That demand equals the post-pin headroom exactly: admitted.
    sched.submit(req).unwrap();
    let done = sched.run_to_completion();
    assert_eq!(done.len(), 1);
    assert_eq!(
        sched.kv_pool().pages_in_use(),
        sched.pool_snapshot().pinned_pages
    );
}

/// With one slot and all three classes backlogged, grants follow the
/// 4:2:1 weighted-round-robin schedule with no overtaking inside a
/// class — the starvation bound in its exact observable form.
#[test]
fn single_slot_grants_follow_the_wrr_schedule() {
    let model = model();
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        },
    );
    // Three requests per class, max_new 1: admission is serial, so the
    // finish order *is* the grant order.
    for (class, prio) in [Priority::High, Priority::Normal, Priority::Low]
        .into_iter()
        .enumerate()
    {
        for j in 0..3 {
            sched
                .submit(
                    Request::builder(vec![(class * 31 + j * 7 + 1) % 512])
                        .max_new(1)
                        .priority(prio)
                        .build()
                        .unwrap(),
                )
                .unwrap();
        }
    }
    let order: Vec<u64> = sched.run_to_completion().iter().map(|f| f.id.0).collect();
    // Ids 0-2 High, 3-5 Normal, 6-8 Low. The H,N,H,L,H,N,H cycle grants
    // 4:2:1 while all classes are backlogged, then degenerates
    // gracefully as classes drain — FIFO within each class throughout.
    assert_eq!(order, vec![0, 3, 1, 6, 2, 4, 5, 7, 8]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The WRR starvation bound over random priority mixes: with every
    /// class backlogged, no class waits more than one full schedule
    /// cycle (7 grants) between consecutive grants.
    #[test]
    fn no_class_waits_more_than_one_wrr_cycle(
        classes in prop::collection::vec(0usize..3, 2..12),
    ) {
        let model = model();
        let mut sched = Scheduler::new(
            model,
            SchedulerConfig { max_batch: 1, ..SchedulerConfig::default() },
        );
        let prios = [Priority::High, Priority::Normal, Priority::Low];
        for (i, &c) in classes.iter().enumerate() {
            sched
                .submit(
                    Request::builder(vec![(i * 13 + 1) % 512])
                        .max_new(1)
                        .priority(prios[c])
                        .build()
                        .unwrap(),
                )
                .unwrap();
        }
        let finished = sched.run_to_completion();
        prop_assert_eq!(finished.len(), classes.len());
        // Serial: finish order == grant order. While a class still has
        // queued work, its next grant comes within 7 grants.
        let grant_classes: Vec<usize> =
            finished.iter().map(|f| classes[f.id.0 as usize]).collect();
        for c in 0..3 {
            let total = classes.iter().filter(|&&x| x == c).count();
            let mut seen = 0usize;
            let mut last = None::<usize>;
            for (pos, &g) in grant_classes.iter().enumerate() {
                if g != c {
                    continue;
                }
                let since = last.map_or(pos + 1, |l| pos - l);
                prop_assert!(
                    since <= 7,
                    "class {c} waited {since} grants with work pending"
                );
                last = Some(pos);
                seen += 1;
                if seen == total {
                    break;
                }
            }
            prop_assert_eq!(seen, total);
        }
    }

    /// Random priority mixes with staggered arrivals over a bounded
    /// pool: preemption may fire freely, yet the page watermark holds
    /// every iteration, every accepted request (suspended ones
    /// included) finishes with tokens bit-identical to its solo
    /// reference, and every suspension is matched by a resume.
    #[test]
    fn priority_mixes_preempt_safely_and_stay_exact(
        raw in prop::collection::vec(
            (
                prop::collection::vec(0usize..512, 1..6),
                0usize..5,
                any::<bool>(),
                0usize..512,
                0u64..100_000,
            ),
            2..8,
        ),
        classes in prop::collection::vec(0usize..3, 8),
        hot in any::<bool>(),
        max_batch in 1usize..4,
        page_positions in 1usize..6,
        capacity_tokens in 10usize..40,
    ) {
        let model = model();
        let max_pages =
            model.config().n_layers * capacity_tokens.div_ceil(page_positions);
        let kv = KvPoolConfig {
            page_positions,
            max_pages: Some(max_pages),
            ..KvPoolConfig::default()
        };
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig { max_batch, kv, ..SchedulerConfig::default() },
            rayon_lite::global(),
        );
        let prios = [Priority::High, Priority::Normal, Priority::Low];
        let mut accepted = Vec::new();
        // Stagger arrivals so later (possibly higher-priority) requests
        // land on a busy pool and preemption genuinely fires.
        for (i, r) in raw.into_iter().enumerate() {
            let mut req = build_request(r, hot);
            req.priority = prios[classes[i]];
            let id = sched.submit(req.clone()).unwrap();
            accepted.push((id, req));
            if i % 2 == 1 {
                sched.step();
            }
        }
        let finished = run_checked(&mut sched);

        // No starvation: exactly the accepted set finishes — preempted
        // and resumed streams included.
        let mut done_ids: Vec<_> = finished.iter().map(|f| f.id).collect();
        done_ids.sort();
        let mut submitted_ids: Vec<_> = accepted.iter().map(|(id, _)| *id).collect();
        submitted_ids.sort();
        prop_assert_eq!(done_ids, submitted_ids);

        for fin in &finished {
            let (_, req) = accepted
                .iter()
                .find(|(id, _)| *id == fin.id)
                .expect("finished id was accepted");
            check_termination(model, req, fin);
        }

        // Every suspension was resumed (nothing stranded, nothing
        // cancelled here), and the pool drained clean.
        let stats = sched.stats();
        prop_assert_eq!(stats.preemptions, stats.resumes);
        prop_assert_eq!(sched.suspended_len(), 0);
    }
}
