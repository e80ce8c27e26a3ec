//! The serving front door: [`Engine`] / [`SubmitHandle`] lifecycle,
//! incremental token polling, await semantics, and the deterministic
//! virtual-time workload generators ([`ArrivalSchedule`] / [`Replay`]),
//! and the SLO harness built on them: mixed-priority Poisson traffic on
//! a page-bounded pool against a FIFO leg over the same arrivals.
//! Everything here runs in virtual step time — no wall clock anywhere —
//! so every assertion is exact.

use std::sync::OnceLock;

use anda_llm::kv::KvPoolConfig;
use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_serve::{
    ArrivalSchedule, CancelError, Cancelled, Engine, Priority, Replay, Request, RequestState,
    Scheduler, SchedulerConfig, SubmitHandle,
};

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

/// Reference: the same requests run straight through a scheduler.
fn reference(reqs: &[Request]) -> Vec<Vec<usize>> {
    let mut sched = Scheduler::new(model(), SchedulerConfig::default());
    for r in reqs {
        sched.submit(r.clone()).unwrap();
    }
    let mut done = sched.run_to_completion();
    done.sort_by_key(|f| (f.id, f.sample_index));
    done.into_iter().map(|f| f.tokens).collect()
}

/// Polling returns exactly the tokens generated since the last poll:
/// per-step polls concatenate to the stream's full generated sequence,
/// empty polls mean no progress, and two handles never see each other's
/// tokens.
#[test]
fn polls_accumulate_to_the_exact_stream() {
    let reqs = vec![
        Request::builder(vec![1, 2, 3]).max_new(6).build().unwrap(),
        Request::builder(vec![7, 8])
            .max_new(9)
            .temperature(0.9)
            .seed(3)
            .build()
            .unwrap(),
    ];
    let expect = reference(&reqs);

    let engine = Engine::new(model(), SchedulerConfig::default());
    let mut handles: Vec<_> = reqs
        .iter()
        .map(|r| engine.submit(r.clone()).unwrap())
        .collect();
    // Nothing stepped yet: polling is non-blocking and empty.
    assert!(handles[0].try_next_tokens().is_empty());
    assert_eq!(handles[0].state(), RequestState::Pending);

    let mut streamed: Vec<Vec<usize>> = vec![Vec::new(); reqs.len()];
    while !engine.is_idle() {
        engine.step();
        for (h, out) in handles.iter_mut().zip(&mut streamed) {
            let fresh = h.try_next_tokens();
            out.extend(fresh);
        }
    }
    for (i, (h, out)) in handles.iter_mut().zip(&mut streamed).enumerate() {
        assert_eq!(h.state(), RequestState::Finished);
        let results = h.await_finished();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].tokens, expect[i], "handle {i} diverged");
        // The incremental polls add up to exactly the generated suffix.
        assert_eq!(out, &results[0].generated(), "handle {i} streamed wrong");
        // Once collected, the handle stays Finished and polls are empty.
        assert_eq!(h.state(), RequestState::Finished);
        assert!(h.try_next_tokens().is_empty());
    }
}

/// `await_finished` drives the whole engine: co-submitted requests
/// finish too, a parallel request returns its samples in sample order,
/// and best-of returns exactly the winner.
#[test]
fn await_finished_returns_ordered_results() {
    let engine = Engine::new(model(), SchedulerConfig::default());
    let mut par = engine
        .submit(
            Request::builder(vec![3, 1, 4])
                .max_new(5)
                .temperature(0.8)
                .seed(11)
                .parallel(3)
                .build()
                .unwrap(),
        )
        .unwrap();
    let mut best = engine
        .submit(
            Request::builder(vec![1, 5, 9])
                .max_new(5)
                .temperature(0.8)
                .seed(12)
                .best_of(2)
                .build()
                .unwrap(),
        )
        .unwrap();
    let results = par.await_finished();
    assert_eq!(results.len(), 3, "one result per parallel sample");
    assert_eq!(
        results.iter().map(|r| r.sample_index).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    // Awaiting one handle advanced the other request too.
    assert_eq!(best.state(), RequestState::Finished);
    let winner = best.await_finished();
    assert_eq!(winner.len(), 1, "best-of returns only the winner");
    assert!(engine.is_idle());
}

/// A best-of handle polls nothing while its group runs and the winner
/// whole once it finishes, so its polls concatenate to the awaited
/// winner. The winner scores by cumulative log-probability, so it can be
/// shorter than sample 0: this request's winner stops at `eos` after one
/// token while sample 0 runs on, which a poll at sample 0's cursor would
/// slice past.
#[test]
fn best_of_polls_concatenate_to_the_winner() {
    let engine = Engine::new(model(), SchedulerConfig::default());
    let mut best = engine
        .submit(
            Request::builder(vec![1, 5, 9])
                .max_new(12)
                .temperature(1.0)
                .seed(0)
                .eos(251)
                .best_of(2)
                .build()
                .unwrap(),
        )
        .unwrap();
    let mut polls = Vec::new();
    while !engine.is_idle() {
        engine.step();
        polls.push((best.state(), best.try_next_tokens()));
    }
    let winner = best.await_finished();
    assert_eq!(winner.len(), 1);
    for (state, fresh) in &polls {
        if *state != RequestState::Finished {
            assert!(fresh.is_empty(), "polled {fresh:?} before the winner");
        }
    }
    let streamed: Vec<usize> = polls.into_iter().flat_map(|(_, fresh)| fresh).collect();
    assert_eq!(streamed, winner[0].generated());
}

/// Awaiting a request whose results are already gone — a second await
/// on the same handle — returns the empty vector at once instead of
/// stepping an idle engine forever.
#[test]
fn await_after_collection_returns_empty_without_stepping() {
    let engine = Engine::new(model(), SchedulerConfig::default());
    let req = Request::builder(vec![2, 7, 1]).max_new(3).build().unwrap();
    let mut first = engine.submit(req).unwrap();
    assert_eq!(first.await_finished().len(), 1);
    let steps = engine.steps();
    assert!(first.await_finished().is_empty(), "already collected");
    assert_eq!(engine.steps(), steps, "an idle engine is not stepped");
    assert_eq!(first.state(), RequestState::Finished);
}

/// The handle walks the documented lifecycle: Pending before a slot
/// opens, Prefilling while chunking a long prompt, Decoding,
/// Suspended under preemption, then Finished.
#[test]
fn states_walk_the_lifecycle() {
    let n_layers = model().config().n_layers;
    let engine = Engine::new(
        model(),
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                page_positions: 4,
                max_pages: Some(n_layers * 5),
                ..KvPoolConfig::default()
            },
            prefill_chunk_tokens: Some(4),
            ..SchedulerConfig::default()
        },
    );
    // A Low victim with a long prompt: 24 positions = 6 pages/layer at
    // 4/page — the pool (5/layer) only ever holds one of the two.
    let victim = engine
        .submit(
            Request::builder((0..14).map(|j| j * 3 + 1).collect::<Vec<_>>())
                .max_new(4)
                .priority(Priority::Low)
                .build()
                .unwrap(),
        )
        .unwrap();
    assert_eq!(victim.state(), RequestState::Pending);
    engine.step();
    assert_eq!(victim.state(), RequestState::Prefilling);

    // A High arrival preempts it mid-prefill.
    let high = engine
        .submit(
            Request::builder(vec![1, 2, 3, 4, 5, 6, 7, 8])
                .max_new(8)
                .priority(Priority::High)
                .build()
                .unwrap(),
        )
        .unwrap();
    engine.step();
    assert_eq!(victim.state(), RequestState::Suspended);
    engine.step();
    assert_eq!(high.state(), RequestState::Decoding);

    engine.run_until_idle();
    assert_eq!(victim.state(), RequestState::Finished);
    assert_eq!(high.state(), RequestState::Finished);
    assert_eq!(engine.scheduler().stats().preemptions, 1);
}

/// Cancellation through the handle is terminal: the state flips to
/// Cancelled, `await_finished` returns nothing, a second cancel reports
/// the request as already cancelled, and the engine serves everyone
/// else to completion.
#[test]
fn handle_cancel_is_terminal() {
    let engine = Engine::new(model(), SchedulerConfig::default());
    let mut doomed = engine
        .submit(Request::builder(vec![9, 9, 9]).max_new(20).build().unwrap())
        .unwrap();
    let mut survivor = engine
        .submit(Request::builder(vec![1, 2, 3]).max_new(5).build().unwrap())
        .unwrap();
    engine.step();
    engine.step();
    assert_eq!(doomed.state(), RequestState::Decoding);
    doomed.cancel().unwrap();
    assert_eq!(doomed.state(), RequestState::Cancelled);
    assert!(doomed.await_finished().is_empty());
    assert_eq!(
        doomed.cancel(),
        Err(CancelError::Cancelled(doomed.id())),
        "cancel must be idempotent-with-error"
    );
    // Cancelling by bare id through the engine works the same way.
    assert_eq!(
        engine.cancel(doomed.id()),
        Err(CancelError::Cancelled(doomed.id()))
    );
    let results = survivor.await_finished();
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].tokens,
        reference(&[Request::builder(vec![1, 2, 3]).max_new(5).build().unwrap()])[0]
    );
    assert!(engine.is_idle());
}

/// A finished request is not cancelled, neither through its handle nor
/// by bare id: both report it already finished while its result waits,
/// and the result stays collectable.
#[test]
fn cancel_after_finish_reports_already_finished() {
    let engine = Engine::new(model(), SchedulerConfig::default());
    let mut h = engine
        .submit(Request::builder(vec![1, 2, 3]).max_new(2).build().unwrap())
        .unwrap();
    while h.state() != RequestState::Finished {
        engine.step();
    }
    let id = h.id();
    assert_eq!(h.cancel(), Err(CancelError::AlreadyFinished(id)));
    assert_eq!(engine.cancel(id), Err(CancelError::AlreadyFinished(id)));
    let results = h.await_finished();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].generated().len(), 2);
}

/// A cancelled handle polls nothing — not even a sample of its group
/// that finished before the cancel — and awaits nothing.
#[test]
fn a_cancelled_handle_polls_nothing() {
    let engine = Engine::new(model(), SchedulerConfig::default());
    let mut h = engine
        .submit(
            Request::builder(vec![1, 2, 3])
                .max_new(20)
                .temperature(1.0)
                .seed(7)
                .eos(1)
                .parallel(2)
                .build()
                .unwrap(),
        )
        .unwrap();
    for _ in 0..13 {
        engine.step();
    }
    // Sample 1 stopped at EOS; sample 0 still decodes.
    assert_eq!(engine.scheduler().active_len(), 1);
    assert_eq!(h.cancel(), Ok(Cancelled::Active { streams: 1 }));
    assert_eq!(h.state(), RequestState::Cancelled);
    assert!(h.try_next_tokens().is_empty());
    assert!(h.await_finished().is_empty());
}

/// Virtual time: `steps()` counts exactly the scheduler iterations the
/// engine ran, whether stepped by hand or driven by a handle.
#[test]
fn virtual_time_counts_engine_steps() {
    let engine = Engine::new(model(), SchedulerConfig::default());
    assert_eq!(engine.steps(), 0);
    let mut h = engine
        .submit(Request::builder(vec![2, 4, 6]).max_new(3).build().unwrap())
        .unwrap();
    engine.step();
    assert_eq!(engine.steps(), 1);
    h.await_finished();
    // Admission step sampled token 1; two more decode steps + the
    // retirement sweep bound the total.
    assert!(engine.steps() >= 3);
    let now = engine.steps();
    engine.run_until_idle();
    assert_eq!(engine.steps(), now, "idle engine must not consume time");
}

/// Poisson arrival schedules are seeded and fully deterministic: same
/// seed, same steps; different seeds diverge; the empirical mean gap
/// tracks the requested one; and schedules are non-decreasing.
#[test]
fn poisson_schedules_are_deterministic() {
    let a = ArrivalSchedule::poisson(42, 3.0, 256);
    let b = ArrivalSchedule::poisson(42, 3.0, 256);
    assert_eq!(a.steps(), b.steps(), "same seed must replay identically");
    let c = ArrivalSchedule::poisson(43, 3.0, 256);
    assert_ne!(a.steps(), c.steps(), "different seeds must diverge");
    assert_eq!(a.len(), 256);
    assert!(a.steps().windows(2).all(|w| w[0] <= w[1]));
    let mean = *a.steps().last().unwrap() as f64 / a.len() as f64;
    assert!(
        (1.5..=4.5).contains(&mean),
        "empirical mean gap {mean} is far from the requested 3.0"
    );
}

/// `Replay` surfaces each arrival exactly once, in order, as virtual
/// time passes its step — including several arrivals landing on one
/// step — and reports exhaustion.
#[test]
fn replay_yields_each_arrival_once() {
    let sched = ArrivalSchedule::trace(vec![0, 0, 2, 5, 5, 5]);
    let mut replay = Replay::new(sched);
    assert_eq!(replay.due(0), 0..2);
    assert_eq!(replay.due(1), 2..2, "nothing due between arrivals");
    assert_eq!(replay.due(4), 2..3, "catch-up covers skipped steps");
    assert!(!replay.exhausted());
    assert_eq!(replay.due(5), 3..6);
    assert!(replay.exhausted());
    assert_eq!(replay.due(100), 6..6);

    let uniform = ArrivalSchedule::uniform(4, 3);
    assert_eq!(uniform.steps(), &[0, 4, 8]);
}

/// The engine serves a replayed Poisson workload: submissions land at
/// their scheduled virtual steps, everyone finishes, and the outputs
/// are exactly the all-at-once reference (arrival timing never changes
/// tokens).
#[test]
fn replayed_workload_is_served_exactly() {
    let reqs: Vec<Request> = (0..6)
        .map(|i| {
            Request::builder(vec![5 + i, 10 + i, 15 + i])
                .max_new(4 + i % 3)
                .temperature(0.9)
                .seed(60 + i as u64)
                .build()
                .unwrap()
        })
        .collect();
    let expect = reference(&reqs);

    let engine = Engine::new(
        model(),
        SchedulerConfig {
            max_batch: 3,
            ..SchedulerConfig::default()
        },
    );
    let mut replay = Replay::new(ArrivalSchedule::poisson(7, 2.0, reqs.len()));
    let mut handles = Vec::new();
    while !(replay.exhausted() && engine.is_idle() && handles.len() == reqs.len()) {
        for i in replay.due(engine.steps()) {
            handles.push(engine.submit(reqs[i].clone()).unwrap());
        }
        engine.step();
    }
    for (i, h) in handles.iter_mut().enumerate() {
        let results = h.await_finished();
        assert_eq!(results[0].tokens, expect[i], "arrival {i} diverged");
    }
}

/// One leg of the SLO harness, in virtual steps throughout.
struct SloLeg {
    /// `Engine::steps` when the last request retired.
    steps: u64,
    preemptions: u64,
    /// Per would-be class (High, Normal, Low): nearest-rank TTFT
    /// (p50, p99), steps from arrival to the step the first token landed.
    ttft: [(u64, u64); 3],
}

/// Nine requests of 8 + 8 tokens arrive on a seeded Poisson schedule
/// (mean gap 2 steps) at a pool that holds three of them plus a page
/// per layer, so admission runs under page pressure from the fourth
/// arrival on. With `priorities` request `i` is High / Normal / Low by
/// `i % 3` and preemption is on; without, every request is `Normal` and
/// preemption is off — FIFO under the same pressure. Latencies are
/// booked to the would-be class `i % 3` on both legs, so the same three
/// requests are compared.
fn slo_leg(priorities: bool) -> SloLeg {
    const CLASSES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
    let (n, prompt_len, max_new, page_positions) = (9usize, 8usize, 8usize, 8usize);
    let cfg = model().config();
    let per_request = (prompt_len + max_new).div_ceil(page_positions);
    let engine = Engine::new(
        model(),
        SchedulerConfig {
            max_batch: 6,
            kv: KvPoolConfig {
                page_positions,
                max_pages: Some(cfg.n_layers * (3 * per_request + 1)),
                ..KvPoolConfig::default()
            },
            preemption: priorities,
            ..SchedulerConfig::default()
        },
    );
    let request = |i: usize| {
        let prompt: Vec<usize> = (0..prompt_len)
            .map(|j| (i * 131 + j * 17 + 1) % cfg.vocab)
            .collect();
        Request::builder(prompt)
            .max_new(max_new)
            .temperature(0.8)
            .seed(i as u64)
            .priority(if priorities {
                CLASSES[i % 3]
            } else {
                Priority::Normal
            })
            .build()
            .unwrap()
    };

    // (handle, arrival step, tokens polled, step of the first token)
    let mut tracks: Vec<(SubmitHandle, u64, usize, Option<u64>)> = Vec::new();
    let mut replay = Replay::new(ArrivalSchedule::poisson(0xA17DA, 2.0, n));
    while !(replay.exhausted() && engine.is_idle()) {
        let now = engine.steps();
        for i in replay.due(now) {
            tracks.push((engine.submit(request(i)).unwrap(), now, 0, None));
        }
        engine.step();
        for (handle, _, polled, first) in &mut tracks {
            let fresh = handle.try_next_tokens().len();
            *polled += fresh;
            if fresh > 0 {
                first.get_or_insert(engine.steps());
            }
        }
    }

    let mut per_class: [Vec<u64>; 3] = Default::default();
    for (i, (handle, arrival, polled, first)) in tracks.iter().enumerate() {
        assert_eq!(handle.state(), RequestState::Finished, "request {i}");
        assert_eq!(*polled, max_new, "request {i} came back short");
        per_class[i % 3].push(first.unwrap() - arrival);
    }
    let preemptions = engine.scheduler().stats().preemptions;
    SloLeg {
        steps: engine.steps(),
        preemptions,
        ttft: per_class.map(|mut ttft| {
            ttft.sort_unstable();
            let rank = |q: f64| ttft[((ttft.len() - 1) as f64 * q).round() as usize];
            (rank(0.5), rank(0.99))
        }),
    }
}

/// The SLO harness: priority admission (weighted round-robin over
/// classes plus page-pressure preemption) must buy the High class its
/// latency — TTFT p99 no worse than when the same arrivals are served
/// FIFO — and every request finishes on both legs (checked per request
/// in [`slo_leg`]). Below that, the whole table as it stands is pinned,
/// so a change of admission or preemption policy has to edit it on
/// purpose: High jumps the queue (TTFT 1 step instead of 7), Normal is
/// untouched, Low pays for it, one stream is suspended once, and both
/// legs drain in the same 27 steps.
#[test]
fn slo_harness_priority_beats_fifo_for_the_high_class() {
    let (priority, fifo) = (slo_leg(true), slo_leg(false));
    let (high_p99, fifo_high_p99) = (priority.ttft[0].1, fifo.ttft[0].1);
    assert!(
        high_p99 <= fifo_high_p99,
        "High TTFT p99 {high_p99} steps under priority admission, {fifo_high_p99} under FIFO"
    );

    // (p50, p99) per class: High, Normal, Low.
    assert_eq!(priority.ttft, [(1, 1), (4, 6), (7, 9)]);
    assert_eq!(fifo.ttft, [(7, 7), (4, 6), (3, 5)]);
    assert_eq!((priority.steps, fifo.steps), (27, 27));
    assert_eq!((priority.preemptions, fifo.preemptions), (1, 0));
}
