//! Cancellation coverage: a cancel must tear the request down wherever
//! it lives — queued, suspended, or mid-decode — free its resources
//! *immediately* (queue slot or KV pages, the same step), never produce
//! a result, and never perturb co-batched survivors (their tokens stay
//! bit-exact versus a run where the cancelled request existed to the
//! end, and versus one where it never existed at all).

use std::sync::OnceLock;

use anda_llm::kv::KvPoolConfig;
use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_serve::{
    CancelError, Cancelled, Priority, Request, RequestId, RequestState, Scheduler, SchedulerConfig,
};

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn req(prompt: Vec<usize>, max_new: usize) -> Request {
    Request::builder(prompt)
        .max_new(max_new)
        .temperature(0.9)
        .seed(17)
        .build()
        .unwrap()
}

/// Solo reference tokens for `r`.
fn solo(r: &Request) -> Vec<usize> {
    let mut sched = Scheduler::new(model(), SchedulerConfig::default());
    sched.submit(r.clone()).unwrap();
    sched.run_to_completion().remove(0).tokens
}

/// Cancelling a queued request frees its queue slot: the request behind
/// it is admitted instead, the cancelled one never produces a result,
/// and the accounting records exactly one cancellation.
#[test]
fn cancel_pending_frees_the_queue_slot() {
    let mut sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        },
    );
    let active = sched.submit(req(vec![1, 2, 3], 8)).unwrap();
    sched.step();
    let doomed = sched.submit(req(vec![4, 5, 6], 8)).unwrap();
    let behind = sched.submit(req(vec![7, 8, 9], 8)).unwrap();
    assert_eq!(sched.pending_len(), 2);

    assert_eq!(sched.cancel(doomed), Ok(Cancelled::Pending));
    assert_eq!(sched.pending_len(), 1, "queue slot freed immediately");
    assert!(sched.is_cancelled(doomed));

    let finished = sched.run_to_completion();
    assert_eq!(
        finished.iter().map(|f| f.id).collect::<Vec<_>>(),
        vec![active, behind],
        "the request behind the cancelled one takes its turn"
    );
    assert_eq!(sched.stats().cancelled, 1);
}

/// Cancelling mid-decode releases the stream's KV pages in the very
/// same call (no step needed), and every surviving co-batched stream
/// still produces tokens identical to a run where the cancelled stream
/// never existed.
#[test]
fn cancel_mid_decode_releases_pages_and_keeps_survivors_exact() {
    let a = req(vec![10, 20, 30], 12);
    let doomed = req(vec![40, 50], 20);
    let c = req(vec![60, 70, 80, 90], 10);

    let mut sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 3,
            ..SchedulerConfig::default()
        },
    );
    let aid = sched.submit(a.clone()).unwrap();
    let did = sched.submit(doomed.clone()).unwrap();
    let cid = sched.submit(c.clone()).unwrap();
    sched.step();
    sched.step();
    sched.step();

    let before = sched.pool_snapshot();
    let reserved_before = before.reserved_pages;
    assert_eq!(sched.cancel(did), Ok(Cancelled::Active { streams: 1 }));
    let after = sched.pool_snapshot();
    assert!(
        after.pages_in_use < before.pages_in_use,
        "physical pages must come back in the cancel call itself"
    );
    assert!(
        after.reserved_pages < reserved_before,
        "reservation dropped"
    );
    assert_eq!(sched.generated_len(did), None, "stream is gone");

    let finished = sched.run_to_completion();
    assert_eq!(finished.len(), 2, "the cancelled stream never finishes");
    for f in &finished {
        let r = if f.id == aid {
            &a
        } else {
            assert_eq!(f.id, cid);
            &c
        };
        assert_eq!(f.tokens, solo(r), "survivor {} perturbed by cancel", f.id);
    }
    assert!(!finished.iter().any(|f| f.id == did));
    assert_eq!(sched.stats().cancelled, 1);
}

/// Cancelling a best-of request retires the whole sibling ledger at
/// once: every candidate stream is torn down in the same call, the
/// group's shared pages are released, and no winner is ever selected —
/// whether the group is decoding, or its primary is still prefilling
/// while the siblings hold their slots waiting to fork.
#[test]
fn cancel_best_of_group_retires_the_whole_ledger() {
    for (budget, steps, status) in [
        (None, 2, RequestState::Decoding),
        (Some(2), 1, RequestState::Prefilling),
    ] {
        let mut sched = Scheduler::new(
            model(),
            SchedulerConfig {
                max_batch: 4,
                prefill_chunk_tokens: budget,
                ..SchedulerConfig::default()
            },
        );
        let group = sched
            .submit(
                Request::builder(vec![2, 7, 1, 8])
                    .max_new(15)
                    .temperature(0.8)
                    .seed(28)
                    .best_of(3)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let bystander = sched.submit(req(vec![3, 1, 4], 6)).unwrap();
        for _ in 0..steps {
            sched.step();
        }
        assert_eq!(sched.status(group), Some(status));
        assert_eq!(sched.active_len(), 4, "every sibling holds a slot");
        assert!(sched.pool_snapshot().reserved_pages > 0);

        assert_eq!(sched.cancel(group), Ok(Cancelled::Active { streams: 3 }));
        assert_eq!(sched.generated_len(group), None);
        assert_eq!(sched.active_len(), 1, "the held slots are free again");

        let finished = sched.run_to_completion();
        assert_eq!(
            finished.iter().map(|f| f.id).collect::<Vec<_>>(),
            vec![bystander],
            "no best-of winner may surface after a group cancel"
        );
        // With the bystander retired too, every reservation (the
        // group's shared ledger included) is back.
        let snap = sched.pool_snapshot();
        assert_eq!(snap.reserved_pages, 0);
        assert_eq!(snap.pages_in_use, 0);
        assert_eq!(sched.stats().cancelled, 1);
        assert_eq!(
            sched.stats().sample_forks,
            if budget.is_none() { 2 } else { 0 }
        );
    }
}

/// Cancelling a preempted (suspended) request drops its parked resume
/// item: it never comes back, and the accounting shows a preemption
/// without a resume.
#[test]
fn cancel_suspended_drops_the_resume() {
    let n_layers = model().config().n_layers;
    let mut sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                page_positions: 4,
                max_pages: Some(n_layers * 5),
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    let victim = sched
        .submit(
            Request::builder(vec![10, 11, 12, 13, 14, 15])
                .max_new(10)
                .priority(Priority::Low)
                .build()
                .unwrap(),
        )
        .unwrap();
    sched.step();
    let high = Request::builder(vec![1, 2, 3, 4, 5, 6, 7, 8])
        .max_new(8)
        .priority(Priority::High)
        .build()
        .unwrap();
    let hid = sched.submit(high.clone()).unwrap();
    sched.step();
    assert_eq!(sched.suspended_len(), 1);

    assert_eq!(sched.cancel(victim), Ok(Cancelled::Suspended));
    assert_eq!(sched.suspended_len(), 0);

    let finished = sched.run_to_completion();
    assert_eq!(finished.iter().map(|f| f.id).collect::<Vec<_>>(), vec![hid]);
    assert_eq!(finished[0].tokens, solo(&high));
    let stats = sched.stats();
    assert_eq!((stats.preemptions, stats.resumes), (1, 0));
    assert_eq!(stats.cancelled, 1);
}

/// The error surface: unknown ids, repeat cancels, and cancels of
/// finished (result-pending or drained) requests each report their own
/// distinct, displayable error.
#[test]
fn cancel_errors_name_their_cause() {
    let mut sched = Scheduler::new(model(), SchedulerConfig::default());
    let id = sched.submit(req(vec![1, 2], 3)).unwrap();

    let ghost = RequestId(999);
    assert_eq!(sched.cancel(ghost), Err(CancelError::Unknown(ghost)));

    sched.run_to_completion();
    // Finished (results already drained): the id is no longer live.
    assert_eq!(sched.cancel(id), Err(CancelError::Unknown(id)));

    // Finished but not yet drained: distinct error, results survive.
    let id2 = sched.submit(req(vec![3, 4], 3)).unwrap();
    while sched.status(id2).is_some() {
        sched.step();
    }
    assert_eq!(sched.cancel(id2), Err(CancelError::AlreadyFinished(id2)));
    assert_eq!(sched.take_finished().len(), 1, "results must survive");

    // Repeat cancel: the first succeeds, the second names the cancel.
    let id3 = sched.submit(req(vec![5, 6], 10)).unwrap();
    sched.step();
    assert_eq!(sched.cancel(id3), Ok(Cancelled::Active { streams: 1 }));
    assert_eq!(sched.cancel(id3), Err(CancelError::Cancelled(id3)));
    assert_eq!(sched.stats().cancelled, 1, "failed cancels are not counted");

    // The errors display as readable sentences.
    for (err, needle) in [
        (CancelError::Unknown(ghost), "not live"),
        (CancelError::AlreadyFinished(id2), "finished"),
        (CancelError::Cancelled(id3), "cancelled"),
    ] {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
        let _: &dyn std::error::Error = &err;
    }
}
