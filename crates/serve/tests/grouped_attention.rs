//! Scheduler-level tests for grouped batched attention: the scheduler's
//! one step path must serve token streams bit-identical to the
//! per-stream oracle (each request alone through solo
//! [`Model::generate_with_cache`] on a same-policy cache), and
//! [`SchedulerStats::pages_decoded`] must prove the decode-once
//! guarantee — each physical Anda page decodes exactly once per layer
//! per step no matter how many forked streams attend through it.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::zoo::{opt_125m_sim, sim_model};
use anda_llm::Model;
use anda_serve::{Request, Scheduler, SchedulerConfig};
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

/// A mixed workload: staggered prompt lengths, budgets, greedy and
/// sampled streams, one EOS user.
fn workload() -> Vec<Request> {
    vec![
        Request::builder([1, 2, 3]).max_new(10).build().unwrap(),
        Request::builder([17]).max_new(6).build().unwrap(),
        Request::builder([400, 5, 77, 8])
            .max_new(8)
            .temperature(0.9)
            .seed(7)
            .build()
            .unwrap(),
        Request::builder([9, 9, 12])
            .max_new(12)
            .eos(40)
            .temperature(1.1)
            .seed(99)
            .build()
            .unwrap(),
    ]
}

/// The 16-token shared prefix of the `with_prefix` legs.
fn prefix() -> Vec<usize> {
    (0..16).map(|i| (i * 29 + 11) % 500).collect()
}

fn kv(storage: KvStorage, page_positions: usize) -> KvPoolConfig {
    KvPoolConfig {
        storage,
        page_positions,
        max_pages: None,
    }
}

/// Runs `workload` (optionally behind the pinned shared prefix) to
/// completion and returns finished requests sorted by id.
fn run(
    m: &Model,
    storage: KvStorage,
    page_positions: usize,
    threads: usize,
    with_prefix: bool,
) -> Vec<(Vec<usize>, usize)> {
    let pool = ThreadPool::new(threads);
    let cfg = SchedulerConfig {
        max_batch: 4,
        kv: kv(storage, page_positions),
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::with_pool(m, cfg, &pool);
    let _pin = with_prefix.then(|| sched.pin_prefix(&prefix()).unwrap());
    for mut r in workload() {
        if with_prefix {
            r.prompt = [prefix(), r.prompt].concat();
        }
        sched.submit(r).unwrap();
    }
    let mut done = sched.run_to_completion();
    done.sort_by_key(|r| r.id);
    done.into_iter().map(|r| (r.tokens, r.prompt_len)).collect()
}

/// The per-stream oracle: every `workload` request decoded alone by
/// solo [`Model::generate_with_cache`] on a fresh same-policy cache
/// (the prefix, if any, simply leads the prompt), truncated at the
/// first EOS like the scheduler truncates.
fn oracle(
    m: &Model,
    storage: KvStorage,
    page_positions: usize,
    with_prefix: bool,
) -> Vec<(Vec<usize>, usize)> {
    let lead = if with_prefix { prefix() } else { Vec::new() };
    workload()
        .iter()
        .map(|r| {
            let prompt = [lead.as_slice(), &r.prompt].concat();
            let mut cache =
                PagePool::new(kv(storage, page_positions)).new_cache(m.config().n_layers);
            let mut tokens = m.generate_with_cache(
                &prompt,
                r.max_new,
                r.sampling.temperature,
                &mut Rng::new(r.sampling.seed),
                &mut cache,
            );
            let eos = tokens[prompt.len()..]
                .iter()
                .position(|&t| Some(t) == r.eos);
            if let Some(i) = eos {
                tokens.truncate(prompt.len() + i + 1);
            }
            (tokens, prompt.len())
        })
        .collect()
}

/// Grouped serving emits the same tokens as the per-stream oracle for
/// every storage policy, page size and thread count, with and without
/// a shared prefix.
#[test]
fn grouped_serving_matches_per_stream_oracle() {
    for storage in [
        KvStorage::Fp32,
        KvStorage::Fp16,
        KvStorage::Anda { mantissa_bits: 6 },
        KvStorage::Anda { mantissa_bits: 11 },
    ] {
        for (threads, page_positions) in [(1, 1), (1, 8), (4, 8)] {
            for with_prefix in [false, true] {
                let grouped = run(model(), storage, page_positions, threads, with_prefix);
                assert_eq!(
                    grouped,
                    oracle(model(), storage, page_positions, with_prefix),
                    "grouped serving diverged: {storage:?}, pp {page_positions}, \
                     {threads} threads, prefix {with_prefix}"
                );
            }
        }
    }
}

/// Same through the LLaMA family (RoPE staging in the grouped path).
#[test]
fn grouped_serving_matches_oracle_for_llama() {
    let storage = KvStorage::Anda { mantissa_bits: 6 };
    let grouped = run(llama(), storage, 8, 4, true);
    assert_eq!(grouped, oracle(llama(), storage, 8, true));
}

/// The decode-once proof: N streams forked from a page-aligned shared
/// prefix cost its pages **once** per layer per step, not N times.
///
/// With a 16-token prefix on 8-position pages the two prefix pages stay
/// fully shared (appends open fresh private pages). Pinning prefills
/// the prefix as one span, decoding its own two pages per layer. Step 1 then admits every stream and lands its whole prompt as
/// one span; each later step appends one decoded token. Either way
/// stream `i` holds `prompt_i + (s - 1)` private rows after step `s`'s
/// KV append, so the whole batch decodes exactly
/// `n_layers × (2 + Σ_i ceil((prompt_i + s - 1) / 8))`
/// pages — against `n_layers × Σ_i (2 + ceil(...))` for a per-stream
/// walk, which would re-decode the shared pages once per attending
/// stream.
#[test]
fn shared_prefix_pages_decode_once_per_step() {
    let prompts = [1usize, 3, 5, 8];
    let pp = 8usize;
    let n_layers = model().config().n_layers as u64;

    let pool = ThreadPool::new(4);
    let cfg = SchedulerConfig {
        max_batch: 4,
        kv: kv(KvStorage::Anda { mantissa_bits: 6 }, pp),
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::with_pool(model(), cfg, &pool);
    let _pin = sched.pin_prefix(&prefix()).unwrap();
    for (i, &p) in prompts.iter().enumerate() {
        let private = (0..p).map(|j| (i * 31 + j * 13 + 5) % 500);
        let prompt: Vec<usize> = prefix().into_iter().chain(private).collect();
        sched
            .submit(Request::builder(prompt).max_new(6).build().unwrap())
            .unwrap();
    }
    let mut prev = sched.stats().pages_decoded;
    assert_eq!(prev, n_layers * 2, "the prefix span decodes its own pages");

    for s in 1..=5u64 {
        sched.step();
        let now = sched.stats().pages_decoded;
        let shared_once: u64 = 2 + prompts
            .iter()
            .map(|&p| (p as u64 + s - 1).div_ceil(pp as u64))
            .sum::<u64>();
        let per_stream: u64 = prompts
            .iter()
            .map(|&p| 2 + (p as u64 + s - 1).div_ceil(pp as u64))
            .sum::<u64>();
        assert_eq!(
            now - prev,
            n_layers * shared_once,
            "step {s}: shared prefix pages must decode once for the batch"
        );
        // The guarantee is meaningful: a per-stream walk decodes more.
        assert!(shared_once < per_stream);
        prev = now;
    }
}

/// Float-policy pages are read in place: a grouped scheduler over FP16
/// never decodes a page.
#[test]
fn float_policy_grouped_serving_decodes_nothing() {
    let pool = ThreadPool::new(2);
    let cfg = SchedulerConfig {
        max_batch: 4,
        kv: kv(KvStorage::Fp16, 8),
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::with_pool(model(), cfg, &pool);
    for r in workload() {
        sched.submit(r).unwrap();
    }
    let done = sched.run_to_completion();
    assert_eq!(done.len(), 4);
    assert_eq!(sched.stats().pages_decoded, 0);
}
