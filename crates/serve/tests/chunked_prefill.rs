//! Chunked prefill: with [`SchedulerConfig::prefill_chunk_tokens`] set,
//! prompts are worked off as per-step grouped-batch chunks; the `None`
//! budget is unbounded — each prompt lands as one monolithic span the
//! step it is admitted. The token streams must be **bit-identical**
//! whatever the budget, across every KV storage policy, chunk size
//! (including chunks landing mid-page), thread count, under the
//! automatic prefix cache, and interleaved with live decodes — and the
//! stall accounting must show a bounded budget removes the stall.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage};
use anda_llm::zoo::{opt_125m_sim, sim_model};
use anda_llm::Model;
use anda_serve::{Request, Scheduler, SchedulerConfig};
use rayon_lite::ThreadPool;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn llama() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| sim_model("LLaMA-7B").unwrap().build())
}

const POLICIES: [KvStorage; 4] = [
    KvStorage::Fp32,
    KvStorage::Fp16,
    KvStorage::Anda { mantissa_bits: 6 },
    KvStorage::Anda { mantissa_bits: 11 },
];

/// Long-prompt length used across the suite; page size is 8, so chunk
/// sizes 1 / 3 / 8 / `LONG - 1` cover single-token chunks, chunks that
/// land mid-page, page-aligned chunks and one near-monolithic chunk.
const LONG: usize = 23;

fn long_prompt(salt: usize) -> Vec<usize> {
    (0..LONG).map(|j| (salt * 131 + j * 17 + 7) % 500).collect()
}

/// Mixed workload around one long prompt: short greedy streams, a
/// temperature-sampled stream, and an EOS user — the decodes the chunks
/// must interleave with.
fn workload() -> Vec<Request> {
    vec![
        Request::builder([1, 2, 3]).max_new(10).build().unwrap(),
        Request::builder(long_prompt(1)).max_new(8).build().unwrap(),
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

/// Runs `workload` with the first request admitted and decoding for two
/// steps before the rest (the long prompt included) arrives, so chunks
/// genuinely interleave with live decode traffic. Returns finished
/// `(tokens, prompt_len)` sorted by request id.
fn run(
    m: &Model,
    storage: KvStorage,
    threads: usize,
    chunk: Option<usize>,
    auto_prefix: bool,
) -> Vec<(Vec<usize>, usize)> {
    let pool = ThreadPool::new(threads);
    let cfg = SchedulerConfig {
        max_batch: 4,
        kv: KvPoolConfig {
            storage,
            page_positions: 8,
            max_pages: None,
        },
        auto_prefix,
        prefill_chunk_tokens: chunk,
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::with_pool(m, cfg, &pool);
    let mut reqs = workload().into_iter();
    sched
        .submit(reqs.next().expect("workload is non-empty"))
        .unwrap();
    sched.step();
    sched.step();
    for r in reqs {
        sched.submit(r).unwrap();
    }
    let mut done = sched.run_to_completion();
    done.sort_by_key(|r| r.id);
    done.into_iter().map(|r| (r.tokens, r.prompt_len)).collect()
}

/// The exactness matrix: every storage policy × chunk size (1,
/// mid-page, page, prompt−1) × thread count serves token streams
/// bit-identical to monolithic admission — for the chunked long prompt
/// *and* for every co-scheduled decode stream.
#[test]
fn chunked_serving_matches_monolithic() {
    for storage in POLICIES {
        let oracle = run(model(), storage, 1, None, false);
        for chunk in [1, 3, 8, LONG - 1] {
            for threads in [1, 4] {
                let chunked = run(model(), storage, threads, Some(chunk), false);
                assert_eq!(
                    chunked, oracle,
                    "chunked serving diverged: {storage:?}, chunk {chunk}, {threads} threads"
                );
            }
        }
    }
}

/// Same exactness through the LLaMA family (RoPE staging inside chunk
/// spans).
#[test]
fn chunked_matches_monolithic_for_llama() {
    let storage = KvStorage::Anda { mantissa_bits: 6 };
    let oracle = run(llama(), storage, 1, None, false);
    for threads in [1, 4] {
        assert_eq!(run(llama(), storage, threads, Some(3), false), oracle);
    }
}

/// Chunked prefill under the automatic prefix cache: tokens stay
/// bit-identical to monolithic, and because completed prompts are
/// inserted into the radix tree (insert-on-completion), a repeat of the
/// long prompt still hits the cache.
#[test]
fn chunked_composes_with_auto_prefix() {
    for storage in [KvStorage::Fp16, KvStorage::Anda { mantissa_bits: 6 }] {
        let oracle = run(model(), storage, 1, None, true);
        let chunked = run(model(), storage, 4, Some(3), true);
        assert_eq!(chunked, oracle, "auto_prefix chunked diverged: {storage:?}");
    }

    // Insert-on-completion really feeds the tree: serve the long prompt
    // chunked, then resubmit it and observe a cache hit.
    let pool = ThreadPool::new(2);
    let cfg = SchedulerConfig {
        max_batch: 2,
        kv: KvPoolConfig {
            storage: KvStorage::Anda { mantissa_bits: 6 },
            page_positions: 8,
            max_pages: None,
        },
        auto_prefix: true,
        prefill_chunk_tokens: Some(4),
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::with_pool(model(), cfg, &pool);
    sched
        .submit(Request::builder(long_prompt(1)).max_new(4).build().unwrap())
        .unwrap();
    let first = sched.run_to_completion();
    assert_eq!(sched.stats().cache_hit_tokens, 0);
    sched
        .submit(Request::builder(long_prompt(1)).max_new(4).build().unwrap())
        .unwrap();
    let second = sched.run_to_completion();
    assert!(
        sched.stats().cache_hit_tokens > 0,
        "completed chunked prompt never entered the prefix cache"
    );
    assert_eq!(first[0].tokens, second[0].tokens);
}

/// Sampling groups prefill their primary through the same chunk budget
/// (siblings fork once its last chunk lands), and mixing them with
/// chunked singles stays exact at every budget.
#[test]
fn groups_prefill_through_spans_alongside_chunked_singles() {
    let serve = |chunk: Option<usize>| {
        let pool = ThreadPool::new(2);
        let cfg = SchedulerConfig {
            max_batch: 4,
            kv: KvPoolConfig::default(),
            prefill_chunk_tokens: chunk,
            ..SchedulerConfig::default()
        };
        let mut sched = Scheduler::with_pool(model(), cfg, &pool);
        sched
            .submit(
                Request::builder(vec![3, 1, 4, 1, 5])
                    .max_new(6)
                    .temperature(0.8)
                    .seed(11)
                    .parallel(2)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        sched
            .submit(Request::builder(long_prompt(2)).max_new(6).build().unwrap())
            .unwrap();
        let mut done: Vec<_> = sched
            .run_to_completion()
            .into_iter()
            .map(|r| (r.id, r.sample_index, r.tokens))
            .collect();
        done.sort();
        done
    };
    let oracle = serve(None);
    for chunk in [1, 3, 1024] {
        assert_eq!(
            serve(Some(chunk)),
            oracle,
            "group diverged at budget {chunk}"
        );
    }
}

/// The structural no-stall guarantee: while a long prompt is worked off
/// chunk by chunk, the already-active stream samples exactly one token
/// **every step**, the long stream samples its first token the same
/// step its final chunk lands, and `stalled_prefill_tokens` stays zero
/// (monolithic admission of the same workload records the stall).
#[test]
fn long_arrival_never_stalls_active_decodes() {
    let chunk = 4usize;
    let pool = ThreadPool::new(2);
    let cfg = SchedulerConfig {
        max_batch: 2,
        kv: KvPoolConfig::default(),
        prefill_chunk_tokens: Some(chunk),
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::with_pool(model(), cfg, &pool);
    let short = sched
        .submit(Request::builder(vec![5, 6]).max_new(40).build().unwrap())
        .unwrap();
    sched.step();
    assert_eq!(sched.generated_len(short), Some(1));
    let long = sched
        .submit(Request::builder(long_prompt(3)).max_new(5).build().unwrap())
        .unwrap();

    // ceil(LONG / chunk) steps of prefill; the final chunk's step also
    // samples the long stream's first token. The short stream advances
    // by exactly one token in every single one of them.
    let prefill_steps = LONG.div_ceil(chunk);
    for s in 1..=prefill_steps {
        let before = sched.generated_len(short).expect("short stream is active");
        sched.step();
        assert_eq!(
            sched.generated_len(short),
            Some(before + 1),
            "active stream stalled at chunk step {s}"
        );
        let expect_long = if s < prefill_steps { 0 } else { 1 };
        assert_eq!(
            sched.generated_len(long),
            Some(expect_long),
            "long stream sampled at the wrong step ({s}/{prefill_steps})"
        );
    }
    let stats = sched.stats();
    assert_eq!(stats.stalled_prefill_tokens, 0, "chunked admission stalled");
    // +1: the short prompt was itself admitted as a single chunk.
    assert_eq!(stats.prefill_chunks as usize, prefill_steps + 1);
    assert_eq!(stats.prefill_tokens as usize, 2 + LONG);
    sched.run_to_completion();

    // The monolithic control records exactly the stall chunking removed.
    let cfg = SchedulerConfig {
        max_batch: 2,
        kv: KvPoolConfig::default(),
        ..SchedulerConfig::default()
    };
    let mut sched = Scheduler::with_pool(model(), cfg, &pool);
    sched
        .submit(Request::builder(vec![5, 6]).max_new(40).build().unwrap())
        .unwrap();
    sched.step();
    sched
        .submit(Request::builder(long_prompt(3)).max_new(5).build().unwrap())
        .unwrap();
    sched.step();
    assert_eq!(
        sched.stats().stalled_prefill_tokens as usize,
        LONG,
        "monolithic admission must account its stall"
    );
    sched.run_to_completion();
}

/// A budget of 0 still makes progress (clamped to one token per step),
/// and a chunk budget far above every prompt degenerates to one chunk
/// per admission — both ends of the knob serve exact tokens.
#[test]
fn budget_extremes_stay_exact() {
    let oracle = run(model(), KvStorage::Fp32, 1, None, false);
    for chunk in [0, 1024] {
        let chunked = run(model(), KvStorage::Fp32, 2, Some(chunk), false);
        assert_eq!(chunked, oracle, "budget {chunk} diverged");
    }
}
