//! Preemption under pressure: when a higher-priority arrival cannot get
//! slots or pages, the scheduler suspends strictly-outranked victims
//! (releasing their KV pages the same step) and later resumes them by
//! re-prefilling their full generated-so-far sequence with their saved
//! live RNG. Because prefill and decode share one bit-exact kernel path,
//! a suspended-and-resumed stream must produce **exactly** the tokens of
//! a never-preempted twin — across every KV storage policy, including
//! the compressed Anda formats. This suite pins that matrix, plus the
//! priority rules (who may preempt whom), the mid-chunked-prefill
//! suspend path, and the admission watermark under preemption churn.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage};
use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_serve::{Priority, Request, RequestId, RequestState, Scheduler, SchedulerConfig};

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

const POLICIES: [KvStorage; 4] = [
    KvStorage::Fp32,
    KvStorage::Fp16,
    KvStorage::Anda { mantissa_bits: 6 },
    KvStorage::Anda { mantissa_bits: 11 },
];

/// The never-preempted twin: the request served alone, same KV storage
/// policy, unbounded pool — nothing to preempt it. Token equality over
/// temperature-sampled draws is the observable face of logit
/// bit-equality (the compressed policies legitimately differ from an
/// fp32 [`Model::generate`], so the twin must share the policy).
fn twin(model: &Model, storage: KvStorage, req: &Request) -> Vec<usize> {
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 1,
            kv: KvPoolConfig {
                storage,
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    sched.submit(req.clone()).unwrap();
    let finished = sched.run_to_completion();
    finished.into_iter().next().unwrap().tokens
}

/// A temperature-sampled low-priority stream: the preemption victim.
/// Sampling (not greedy) makes the twin check also pin RNG-state
/// survival across suspend/resume.
fn victim_req() -> Request {
    Request::builder(vec![10, 11, 12, 13, 14, 15])
        .max_new(10)
        .temperature(0.9)
        .seed(7)
        .priority(Priority::Low)
        .build()
        .unwrap()
}

fn high_req() -> Request {
    Request::builder(vec![1, 2, 3, 4, 5, 6, 7, 8])
        .max_new(8)
        .temperature(1.1)
        .seed(99)
        .priority(Priority::High)
        .build()
        .unwrap()
}

/// Page-pressure preemption matrix: a Low victim decodes, a High arrival
/// needs pages the watermark cannot grant, the victim is suspended the
/// same step (pages released immediately) and resumed after the High
/// stream retires — and both streams' tokens are identical to their solo
/// twins under every KV storage policy.
#[test]
fn page_pressure_preemption_is_bit_exact() {
    let model = model();
    let n_layers = model.config().n_layers;
    let victim = victim_req();
    let high = high_req();
    // Both requests reserve 16 positions = 4 pages/layer at 4 positions
    // per page; capacity 5 pages/layer holds either one, never both.
    let cap = n_layers * 5;
    for storage in POLICIES {
        let mut sched = Scheduler::new(
            model,
            SchedulerConfig {
                max_batch: 2,
                kv: KvPoolConfig {
                    storage,
                    page_positions: 4,
                    max_pages: Some(cap),
                },
                ..SchedulerConfig::default()
            },
        );
        let vid = sched.submit(victim.clone()).unwrap();
        sched.step();
        sched.step();
        assert_eq!(sched.generated_len(vid), Some(2), "{storage:?}");

        let hid = sched.submit(high.clone()).unwrap();
        sched.step();
        let stats = sched.stats();
        assert_eq!(stats.preemptions, 1, "{storage:?}: victim not suspended");
        assert_eq!(sched.suspended_len(), 1);
        assert_eq!(sched.status(vid), Some(RequestState::Suspended));
        assert_eq!(sched.status(hid), Some(RequestState::Decoding));
        // The suspend released the victim's pages this very step: only
        // the High stream's reservation remains.
        let snap = sched.pool_snapshot();
        assert_eq!(snap.reserved_pages, n_layers * 4, "{storage:?}");
        // The suspended stream still reports its progress so far.
        assert_eq!(sched.generated_len(vid), Some(2));

        let finished = sched.run_to_completion();
        assert_eq!(finished.len(), 2);
        // The High stream retired first; the victim could only resume
        // after its pages came back.
        assert_eq!(finished[0].id, hid);
        assert_eq!(finished[1].id, vid);
        for f in &finished {
            let req = if f.id == vid { &victim } else { &high };
            assert_eq!(
                f.tokens,
                twin(model, storage, req),
                "{storage:?}: stream {} diverged from its never-preempted twin",
                f.id
            );
        }
        let stats = sched.stats();
        assert_eq!(stats.resumes, 1);
        // The resume re-prefilled prompt (6) + generated-so-far (2).
        assert_eq!(stats.resumed_prefill_tokens, 8, "{storage:?}");
    }
}

/// Preemption is a *page-pressure* mechanism only. Slot pressure parks
/// the arrival instead — slots turn over every few steps, so suspending
/// an incumbent (and paying a full re-prefill) for one would be waste,
/// and admission keeps its weighted-round-robin starvation bound.
#[test]
fn slot_pressure_parks_instead_of_preempting() {
    let model = model();
    let victim = victim_req();
    let high = high_req();
    for storage in [KvStorage::Fp32, KvStorage::Anda { mantissa_bits: 6 }] {
        let mut sched = Scheduler::new(
            model,
            SchedulerConfig {
                max_batch: 1,
                kv: KvPoolConfig {
                    storage,
                    ..KvPoolConfig::default()
                },
                ..SchedulerConfig::default()
            },
        );
        let vid = sched.submit(victim.clone()).unwrap();
        sched.step();
        let hid = sched.submit(high.clone()).unwrap();
        sched.step();
        assert_eq!(sched.stats().preemptions, 0, "{storage:?}");
        assert_eq!(sched.status(vid), Some(RequestState::Decoding));
        assert_eq!(sched.status(hid), Some(RequestState::Pending));
        let finished = sched.run_to_completion();
        assert_eq!(finished.len(), 2);
        // The incumbent kept its slot to the end; the High arrival took
        // over afterwards, and neither stream's tokens were disturbed.
        assert_eq!(
            finished.iter().map(|f| f.id).collect::<Vec<_>>(),
            vec![vid, hid],
            "{storage:?}"
        );
        for f in &finished {
            let req = if f.id == vid { &victim } else { &high };
            assert_eq!(f.tokens, twin(model, storage, req), "{storage:?}");
        }
        assert_eq!(sched.stats().resumes, 0);
    }
}

/// A stream suspended *mid-chunked-prefill* (no tokens generated yet)
/// resumes chunked and still matches its twin; the resume accounting
/// records the full re-prefill.
#[test]
fn mid_chunked_prefill_suspend_is_bit_exact() {
    let model = model();
    let n_layers = model.config().n_layers;
    let long: Vec<usize> = (0..23).map(|j| (j * 17 + 7) % 500).collect();
    let victim = Request::builder(long)
        .max_new(5)
        .temperature(0.9)
        .seed(13)
        .priority(Priority::Low)
        .build()
        .unwrap();
    let high = high_req();
    // Victim: 28 positions = 4 pages/layer at 8/page; High: 16 = 2.
    // Capacity 5 pages/layer forces the preemption.
    let cap = n_layers * 5;
    for storage in [KvStorage::Fp16, KvStorage::Anda { mantissa_bits: 6 }] {
        let mut sched = Scheduler::new(
            model,
            SchedulerConfig {
                max_batch: 2,
                kv: KvPoolConfig {
                    storage,
                    page_positions: 8,
                    max_pages: Some(cap),
                },
                prefill_chunk_tokens: Some(4),
                ..SchedulerConfig::default()
            },
        );
        let vid = sched.submit(victim.clone()).unwrap();
        sched.step();
        // One chunk in: the victim is still working off its prompt.
        assert_eq!(sched.status(vid), Some(RequestState::Prefilling));
        assert_eq!(sched.generated_len(vid), Some(0));

        let hid = sched.submit(high.clone()).unwrap();
        sched.step();
        assert_eq!(sched.stats().preemptions, 1, "{storage:?}");
        assert_eq!(sched.status(vid), Some(RequestState::Suspended));

        let finished = sched.run_to_completion();
        assert_eq!(finished.len(), 2);
        for f in &finished {
            let req = if f.id == vid { &victim } else { &high };
            assert_eq!(f.tokens, twin(model, storage, req), "{storage:?}");
        }
        let stats = sched.stats();
        assert_eq!(stats.resumes, 1);
        // Nothing was generated before the suspend: the resume replays
        // exactly the 23 prompt tokens.
        assert_eq!(stats.resumed_prefill_tokens, 23, "{storage:?}");
        assert_eq!(sched.status(hid), None);
    }
}

/// The priority rules: an arrival only suspends *strictly* outranked
/// streams. Equal-priority pressure parks the arrival (old FIFO
/// behaviour), and a Normal arrival never touches a High incumbent.
#[test]
fn only_strictly_outranked_streams_are_preempted() {
    let model = model();
    let n_layers = model.config().n_layers;
    let cap = n_layers * 5;
    let tight = || SchedulerConfig {
        max_batch: 2,
        kv: KvPoolConfig {
            page_positions: 4,
            max_pages: Some(cap),
            ..KvPoolConfig::default()
        },
        ..SchedulerConfig::default()
    };
    // Equal priority: incumbent Normal, arrival Normal — no preemption,
    // arrival waits its turn, FIFO order preserved.
    let mut sched = Scheduler::new(model, tight());
    let first = sched
        .submit(
            Request::builder(vec![10, 11, 12, 13, 14, 15])
                .max_new(10)
                .build()
                .unwrap(),
        )
        .unwrap();
    sched.step();
    let second = sched
        .submit(
            Request::builder(vec![1, 2, 3, 4, 5, 6, 7, 8])
                .max_new(8)
                .build()
                .unwrap(),
        )
        .unwrap();
    sched.step();
    assert_eq!(sched.stats().preemptions, 0);
    assert_eq!(sched.status(second), Some(RequestState::Pending));
    let finished = sched.run_to_completion();
    assert_eq!(
        finished.iter().map(|f| f.id).collect::<Vec<_>>(),
        vec![first, second]
    );

    // Inverted ranks: a Normal arrival must not suspend a High
    // incumbent (and a Low arrival outranks nobody at all).
    let mut sched = Scheduler::new(model, tight());
    let incumbent = sched
        .submit(
            Request::builder(vec![10, 11, 12, 13, 14, 15])
                .max_new(10)
                .priority(Priority::High)
                .build()
                .unwrap(),
        )
        .unwrap();
    sched.step();
    let normal = sched
        .submit(
            Request::builder(vec![1, 2, 3, 4, 5, 6, 7, 8])
                .max_new(8)
                .priority(Priority::Normal)
                .build()
                .unwrap(),
        )
        .unwrap();
    let low = sched
        .submit(
            Request::builder(vec![9, 9])
                .max_new(2)
                .priority(Priority::Low)
                .build()
                .unwrap(),
        )
        .unwrap();
    sched.step();
    assert_eq!(sched.stats().preemptions, 0);
    assert_eq!(sched.status(incumbent), Some(RequestState::Decoding));
    assert_eq!(sched.status(normal), Some(RequestState::Pending));
    assert_eq!(sched.status(low), Some(RequestState::Pending));
    assert_eq!(sched.run_to_completion().len(), 3);
}

/// `preemption: false` turns the whole mechanism off: the same
/// page-pressure scenario parks the High arrival instead, the Low
/// incumbent finishes first, and both streams still match their twins.
#[test]
fn preemption_gate_defaults_can_be_disabled() {
    let model = model();
    let n_layers = model.config().n_layers;
    let victim = victim_req();
    let high = high_req();
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 2,
            kv: KvPoolConfig {
                page_positions: 4,
                max_pages: Some(n_layers * 5),
                ..KvPoolConfig::default()
            },
            preemption: false,
            ..SchedulerConfig::default()
        },
    );
    let vid = sched.submit(victim.clone()).unwrap();
    sched.step();
    sched.step();
    let hid = sched.submit(high.clone()).unwrap();
    sched.step();
    assert_eq!(sched.stats().preemptions, 0);
    assert_eq!(sched.status(vid), Some(RequestState::Decoding));
    assert_eq!(sched.status(hid), Some(RequestState::Pending));
    let finished = sched.run_to_completion();
    // FIFO outcome: the incumbent retired first.
    assert_eq!(
        finished.iter().map(|f| f.id).collect::<Vec<_>>(),
        vec![vid, hid]
    );
    for f in &finished {
        let req = if f.id == vid { &victim } else { &high };
        assert_eq!(f.tokens, twin(model, KvStorage::Fp32, req));
    }
    assert_eq!(sched.stats().resumes, 0);
}

/// Watermark safety under churn: across a multi-wave priority workload
/// with repeated preemptions, `pinned + reserved + radix_resident` never
/// exceeds capacity, physical pages never exceed capacity, and every
/// stream — preempted or not — still matches its solo twin.
#[test]
fn watermark_holds_under_preemption_churn() {
    let model = model();
    let n_layers = model.config().n_layers;
    let cap = n_layers * 6;
    let reqs: Vec<Request> = (0..6)
        .map(|i| {
            let prio = [Priority::Low, Priority::Normal, Priority::High][i % 3];
            Request::builder(vec![30 + i, 60 + i, 90 + i])
                .max_new(6 + (i % 3) * 4)
                .temperature(0.8)
                .seed(100 + i as u64)
                .priority(prio)
                .build()
                .unwrap()
        })
        .collect();
    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 3,
            kv: KvPoolConfig {
                page_positions: 4,
                max_pages: Some(cap),
                ..KvPoolConfig::default()
            },
            ..SchedulerConfig::default()
        },
    );
    let mut ids: Vec<RequestId> = Vec::new();
    let mut queue = reqs.iter();
    // Stagger arrivals two at a time so later High arrivals land on a
    // busy pool.
    for _ in 0..3 {
        for r in queue.by_ref().take(2) {
            ids.push(sched.submit(r.clone()).unwrap());
        }
        for _ in 0..2 {
            sched.step();
            let snap = sched.pool_snapshot();
            let claimed = snap.pinned_pages + snap.reserved_pages + snap.radix_resident_pages;
            assert!(
                claimed <= cap,
                "watermark exceeded: {claimed} > {cap} pages claimed"
            );
            assert!(snap.pages_in_use <= cap, "physical pages over capacity");
        }
    }
    let mut guard = 0;
    while !sched.is_idle() {
        sched.step();
        let snap = sched.pool_snapshot();
        let claimed = snap.pinned_pages + snap.reserved_pages + snap.radix_resident_pages;
        assert!(claimed <= cap);
        guard += 1;
        assert!(guard < 500, "scheduler failed to drain: starvation?");
    }
    let finished = sched.run_to_completion();
    assert_eq!(finished.len(), reqs.len(), "every stream must finish");
    for f in &finished {
        let req = &reqs[ids.iter().position(|&i| i == f.id).unwrap()];
        assert_eq!(
            f.tokens,
            twin(model, KvStorage::Fp32, req),
            "stream {} diverged",
            f.id
        );
    }
    let stats = sched.stats();
    assert_eq!(stats.preemptions, stats.resumes, "every suspend resumed");
}
