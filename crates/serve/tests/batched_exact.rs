//! Batched-vs-sequential bit-exactness for the continuous-batching
//! scheduler.
//!
//! Every stream a [`Scheduler`] serves must produce exactly the tokens a
//! solo [`Model::generate`] produces for the same request — independent
//! of batch composition, arrival staggering, budget-induced admission
//! waves, and thread count. Token ids are discrete, so token equality
//! across hundreds of temperature-sampled draws is the observable face of
//! logit bit-equality (which `crates/llm/tests/kv_api.rs` additionally
//! pins at the `f32::to_bits` level for the batched LM head and the
//! serial/pooled decode kernels).

use std::sync::OnceLock;

use anda_llm::zoo::{opt_125m_sim, sim_model};
use anda_llm::Model;
use anda_serve::{FinishReason, KvPoolConfig, Request, RequestId, Scheduler, SchedulerConfig};
use anda_tensor::Rng;
use rayon_lite::ThreadPool;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn llama() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| sim_model("LLaMA2-7B").unwrap().build())
}

/// The sequential reference: the request run alone through
/// [`Model::generate`], truncated at the first EOS like the scheduler
/// truncates.
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

/// A mixed workload: ≥3 concurrent streams with different prompts,
/// lengths, temperatures and seeds.
fn workload() -> Vec<Request> {
    vec![
        Request::builder(vec![1, 2, 3]).max_new(12).build().unwrap(),
        Request::builder(vec![400, 5])
            .max_new(9)
            .temperature(0.9)
            .seed(7)
            .build()
            .unwrap(),
        Request::builder(vec![9, 9, 9, 12, 40])
            .max_new(15)
            .temperature(1.2)
            .seed(99)
            .build()
            .unwrap(),
        Request::builder(vec![17, 250, 3])
            .max_new(6)
            .temperature(0.7)
            .seed(12345)
            .build()
            .unwrap(),
    ]
}

fn check_against_reference(model: &Model, reqs: &[Request], finished: &[(RequestId, Vec<usize>)]) {
    assert_eq!(finished.len(), reqs.len(), "every request must finish");
    for (id, tokens) in finished {
        let req = &reqs[id.0 as usize];
        let expect = reference(model, req);
        assert_eq!(
            tokens, &expect,
            "stream {id} diverged from its solo Model::generate"
        );
    }
}

fn drain(sched: &mut Scheduler<'_>) -> Vec<(RequestId, Vec<usize>)> {
    sched
        .run_to_completion()
        .into_iter()
        .map(|f| (f.id, f.tokens))
        .collect()
}

/// ≥3 concurrent streams, batched together from the start, at pool sizes
/// 1 and 4: every stream reproduces its solo generate exactly.
#[test]
fn batched_decode_matches_sequential_generate() {
    let model = model();
    let reqs = workload();
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig {
                max_batch: reqs.len(),
                kv: KvPoolConfig::default(),
                ..SchedulerConfig::default()
            },
            &pool,
        );
        for r in &reqs {
            sched.submit(r.clone()).unwrap();
        }
        let finished = drain(&mut sched);
        assert!(sched.stats().peak_active >= 3, "streams must overlap");
        check_against_reference(model, &reqs, &finished);
    }
}

/// Arrival staggering — requests joining mid-flight, in several different
/// orders — never changes any stream's tokens.
#[test]
fn staggered_arrival_orders_are_bit_exact() {
    let model = model();
    let reqs = workload();
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        // Stagger A: 0 alone, then 1 and 2 mid-flight, then 3 later.
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig {
                max_batch: 4,
                kv: KvPoolConfig::default(),
                ..SchedulerConfig::default()
            },
            &pool,
        );
        sched.submit(reqs[0].clone()).unwrap();
        sched.step();
        sched.step();
        sched.submit(reqs[1].clone()).unwrap();
        sched.submit(reqs[2].clone()).unwrap();
        sched.step();
        sched.submit(reqs[3].clone()).unwrap();
        let finished = drain(&mut sched);
        check_against_reference(model, &reqs, &finished);

        // Stagger B: reverse submission order (ids map by submission, so
        // rebuild the id→request mapping accordingly).
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig {
                max_batch: 2,
                kv: KvPoolConfig::default(),
                ..SchedulerConfig::default()
            },
            &pool,
        );
        let reversed: Vec<Request> = reqs.iter().rev().cloned().collect();
        for r in &reversed {
            sched.submit(r.clone()).unwrap();
        }
        let finished = drain(&mut sched);
        check_against_reference(model, &reversed, &finished);
    }
}

/// A tight page pool forces admission waves, slot reuse and page
/// recycling; outputs still match the solo references.
#[test]
fn budget_constrained_admission_waves_stay_exact() {
    let model = model();
    let reqs = workload();
    let max_reserve = reqs.iter().map(Request::reserve_tokens).max().unwrap();
    let page_positions = 4;
    let pages_per_req = model.config().n_layers * max_reserve.div_ceil(page_positions);
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig {
                max_batch: 2,
                // Room for roughly one and a half requests: streams must
                // queue, finish, and hand their slots/pages over.
                kv: KvPoolConfig {
                    page_positions,
                    max_pages: Some(pages_per_req + pages_per_req / 2),
                    ..KvPoolConfig::default()
                },
                ..SchedulerConfig::default()
            },
            &pool,
        );
        for r in &reqs {
            sched.submit(r.clone()).unwrap();
        }
        let finished = drain(&mut sched);
        check_against_reference(model, &reqs, &finished);
    }
}

/// The RoPE (LLaMA) family goes through the same scheduler bit-exactly.
#[test]
fn llama_family_batched_decode_is_exact() {
    let model = llama();
    let reqs = vec![
        Request::builder(vec![4, 8, 15]).max_new(8).build().unwrap(),
        Request::builder(vec![16, 23])
            .max_new(10)
            .temperature(1.0)
            .seed(2024)
            .build()
            .unwrap(),
        Request::builder(vec![42, 108, 3, 7])
            .max_new(5)
            .temperature(0.6)
            .seed(31337)
            .build()
            .unwrap(),
    ];
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        let mut sched = Scheduler::with_pool(
            model,
            SchedulerConfig {
                max_batch: 3,
                kv: KvPoolConfig::default(),
                ..SchedulerConfig::default()
            },
            &pool,
        );
        for r in &reqs {
            sched.submit(r.clone()).unwrap();
        }
        let finished = drain(&mut sched);
        check_against_reference(model, &reqs, &finished);
    }
}

/// EOS termination: the scheduler stops a stream exactly where the solo
/// reference first emits the EOS token, and reports the right reason —
/// also when that is the very first generated token.
#[test]
fn eos_truncation_matches_reference() {
    let model = model();
    let base = Request::builder(vec![30, 60, 90])
        .max_new(10)
        .temperature(1.1)
        .seed(555)
        .build()
        .unwrap();
    let solo = reference(model, &base);
    // Use as EOS the token the reference generates first, then the one
    // it generates third — so the EOS path fires on the first sampled
    // token and mid-stream.
    for nth in [0, 2] {
        let eos_tok = solo[base.prompt.len() + nth];
        let req = Request {
            eos: Some(eos_tok),
            ..base.clone()
        };

        let mut sched = Scheduler::new(
            model,
            SchedulerConfig {
                max_batch: 3,
                kv: KvPoolConfig::default(),
                ..SchedulerConfig::default()
            },
        );
        // Run it alongside unrelated traffic to prove batching does not
        // perturb the truncation point.
        sched.submit(req.clone()).unwrap();
        sched
            .submit(Request::builder(vec![1, 2]).max_new(6).build().unwrap())
            .unwrap();
        let finished = sched.run_to_completion();
        let hit = finished.iter().find(|f| f.id == RequestId(0)).unwrap();
        assert_eq!(hit.tokens, reference(model, &req), "EOS = token {nth}");
        assert_eq!(*hit.tokens.last().unwrap(), eos_tok);
        assert!(hit.generated().len() <= nth + 1);
        if nth == 0 {
            assert_eq!(hit.generated(), [eos_tok]);
        }
        assert_eq!(hit.reason, FinishReason::Eos);
    }
}
