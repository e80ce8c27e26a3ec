//! Compressed-KV serving: the scheduler on an FP16 or Anda page pool is
//! bit-exact against solo [`Model::generate_with_cache`] on a
//! same-policy cache, and Anda page accounting admits long-context
//! batches that FP32 accounting of the same memory budget must reject.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::zoo::{opt_125m_sim, sim_model};
use anda_llm::Model;
use anda_serve::{Request, Scheduler, SchedulerConfig, SubmitError};
use anda_tensor::Rng;
use rayon_lite::ThreadPool;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn llama() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| sim_model("LLaMA-7B").unwrap().build())
}

/// Solo reference under an arbitrary storage policy: the request run
/// alone on a fresh same-policy cache, truncated at the first EOS like
/// the scheduler truncates.
fn reference(model: &Model, req: &Request, storage: KvStorage) -> Vec<usize> {
    let pool = PagePool::new(KvPoolConfig::unbounded(storage));
    let mut cache = pool.new_cache(model.config().n_layers);
    let mut rng = Rng::new(req.sampling.seed);
    let full = model.generate_with_cache(
        &req.prompt,
        req.max_new,
        req.sampling.temperature,
        &mut rng,
        &mut cache,
    );
    if let Some(eos) = req.eos {
        let p = req.prompt.len();
        if let Some(i) = full[p..].iter().position(|&t| t == eos) {
            return full[..p + i + 1].to_vec();
        }
    }
    full
}

fn workload() -> Vec<Request> {
    vec![
        Request::builder([1, 2, 3]).max_new(12).build().unwrap(),
        Request::builder([400, 5])
            .max_new(9)
            .temperature(0.9)
            .seed(7)
            .build()
            .unwrap(),
        Request::builder([9, 9, 9, 12, 40])
            .max_new(15)
            .temperature(1.2)
            .seed(99)
            .build()
            .unwrap(),
    ]
}

/// Serving over a compressed page pool reproduces the same-policy solo
/// reference token for token, for every policy, page size 1 and the
/// default, and pool sizes 1 and 4 — on both model families.
#[test]
fn compressed_serving_matches_same_policy_solo_generate() {
    for m in [model(), llama()] {
        for storage in [
            KvStorage::Fp16,
            KvStorage::Anda { mantissa_bits: 6 },
            KvStorage::Anda { mantissa_bits: 11 },
        ] {
            let reqs = workload();
            for (threads, page_positions) in [(1, 1), (4, 1), (1, 8), (4, 8)] {
                let pool = ThreadPool::new(threads);
                let mut sched = Scheduler::with_pool(
                    m,
                    SchedulerConfig {
                        max_batch: reqs.len(),
                        kv: KvPoolConfig {
                            storage,
                            page_positions,
                            max_pages: None,
                        },
                        ..SchedulerConfig::default()
                    },
                    &pool,
                );
                for r in &reqs {
                    sched.submit(r.clone()).unwrap();
                }
                let finished = sched.run_to_completion();
                assert!(sched.stats().peak_active >= 3, "streams must overlap");
                assert_eq!(finished.len(), reqs.len());
                for fin in &finished {
                    let req = &reqs[fin.id.0 as usize];
                    assert_eq!(
                        fin.tokens,
                        reference(m, req, storage),
                        "{storage:?} pp={page_positions} threads={threads} \
                         stream {} diverged from its solo reference",
                        fin.id
                    );
                }
            }
        }
    }
}

/// The §VI long-context headroom, as an admission fact: a batch of
/// streams whose summed worst-case FP32 KV exceeds a memory budget — so
/// an FP32 pool rejects them outright or serves them queued behind its
/// watermark — fits entirely in an Anda pool of the *same* budget, which
/// then actually serves the whole batch concurrently within its page
/// capacity.
#[test]
fn anda_pool_admits_a_batch_fp32_accounting_rejects() {
    let model = model();
    let cfg = model.config();
    let batch = 4usize;
    let prompt_len = 24usize;
    let max_new = 40usize;
    let worst_positions = prompt_len + max_new;
    let page_positions = 8usize;

    // Budget: 1.5 requests' worth of FP32 KV. Anda M=5 compresses rows
    // ~5.3x vs FP32, so the same bits hold the whole 4-stream batch.
    let fp32_req_bits = cfg.n_layers * 2 * worst_positions * KvStorage::Fp32.row_bits(cfg.d_model);
    let budget_bits = fp32_req_bits * 3 / 2;
    let anda = KvStorage::Anda { mantissa_bits: 5 };

    let reqs: Vec<Request> = (0..batch)
        .map(|i| {
            Request::builder(
                (0..prompt_len)
                    .map(|j| (i * 131 + j * 17 + 1) % cfg.vocab)
                    .collect::<Vec<_>>(),
            )
            .max_new(max_new)
            .temperature(0.8)
            .seed(i as u64)
            .build()
            .unwrap()
        })
        .collect();

    // FP32 accounting over this budget cannot even hold two streams at
    // once; with a single-request budget it must reject at submit time.
    let fp32_pool = KvPoolConfig {
        storage: KvStorage::Fp32,
        page_positions,
        max_pages: None,
    }
    .with_memory_budget(fp32_req_bits / 2, cfg.d_model);
    let mut fp32_sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: batch,
            kv: fp32_pool,
            ..SchedulerConfig::default()
        },
    );
    let err = fp32_sched.submit(reqs[0].clone()).unwrap_err();
    assert!(
        matches!(err, SubmitError::ExceedsPoolCapacity { .. }),
        "half a request's FP32 budget must reject at submit: {err}"
    );

    // The same total budget under Anda holds the entire batch at once.
    let anda_cfg = KvPoolConfig {
        storage: anda,
        page_positions,
        max_pages: None,
    }
    .with_memory_budget(budget_bits, cfg.d_model);
    let pages_per_req = cfg.n_layers * worst_positions.div_ceil(page_positions);
    assert!(
        anda_cfg.max_pages.unwrap() >= batch * pages_per_req,
        "the compressed pool must hold the whole batch's worst case \
         ({} pages < {} needed)",
        anda_cfg.max_pages.unwrap(),
        batch * pages_per_req
    );

    // And under FP32, the same budget provably cannot:
    let fp32_budget_cfg = KvPoolConfig {
        storage: KvStorage::Fp32,
        page_positions,
        max_pages: None,
    }
    .with_memory_budget(budget_bits, cfg.d_model);
    assert!(
        fp32_budget_cfg.max_pages.unwrap() < batch * pages_per_req,
        "the scenario must be out of reach for FP32 accounting"
    );
    // Served, not just counted: whatever the FP32 pool accepts finishes,
    // but queued behind the watermark — never the whole batch at once.
    let mut fp32_served = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: batch,
            kv: fp32_budget_cfg,
            ..SchedulerConfig::default()
        },
    );
    let mut accepted = 0;
    for r in &reqs {
        match fp32_served.submit(r.clone()) {
            Ok(_) => accepted += 1,
            Err(SubmitError::ExceedsPoolCapacity { .. }) => {}
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert_eq!(fp32_served.run_to_completion().len(), accepted);
    assert!(
        fp32_served.stats().peak_active < batch,
        "scenario too easy: the FP32 pool held the whole batch concurrently"
    );

    let mut sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: batch,
            kv: anda_cfg,
            ..SchedulerConfig::default()
        },
    );
    for r in &reqs {
        sched.submit(r.clone()).unwrap();
    }
    let finished = sched.run_to_completion();
    assert_eq!(finished.len(), batch);
    assert_eq!(
        sched.stats().peak_active,
        batch,
        "the whole batch must run concurrently"
    );
    assert!(sched.stats().peak_pages_in_use <= anda_cfg.max_pages.unwrap());
    // Each stream still matches its solo compressed reference.
    for fin in &finished {
        let req = &reqs[fin.id.0 as usize];
        assert_eq!(fin.tokens, reference(model, req, anda));
    }
}
