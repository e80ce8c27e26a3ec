//! Acceptance suite for mid-stream-fork sampling modes
//! ([`SamplingMode::Parallel`] / [`SamplingMode::BestOf`]): every
//! sibling stream is bit-identical to a standalone request with the
//! derived seed, best-of selection is a pure function of the sampled
//! logits, and both survive automatic-prefix eviction under page
//! pressure unchanged.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage};
use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_serve::{Request, RequestError, SamplingMode, Scheduler, SchedulerConfig, SubmitError};

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn cfg(
    storage: KvStorage,
    max_batch: usize,
    max_pages: Option<usize>,
    auto: bool,
) -> SchedulerConfig {
    SchedulerConfig {
        max_batch,
        kv: KvPoolConfig {
            storage,
            page_positions: 8,
            max_pages,
        },
        auto_prefix: auto,
        ..SchedulerConfig::default()
    }
}

fn request(prompt: Vec<usize>, max_new: usize, seed: u64, mode: SamplingMode) -> Request {
    Request::builder(prompt)
        .max_new(max_new)
        .eos(40)
        .temperature(0.9)
        .seed(seed)
        .mode(mode)
        .build()
        .unwrap()
}

fn prompt(tag: usize, len: usize) -> Vec<usize> {
    (0..len).map(|j| (j * 31 + tag * 101 + 13) % 500).collect()
}

/// Standalone twins: the same request as `n` independent `Single`
/// submissions with the derived seeds, run to completion.
fn standalone(storage: KvStorage, req: &Request, n: usize) -> Vec<Vec<usize>> {
    let mut sched = Scheduler::new(model(), cfg(storage, 1, None, false));
    for i in 0..n {
        let mut solo = req.clone();
        solo.mode = SamplingMode::Single;
        solo.sampling.seed = req.sampling.seed.wrapping_add(i as u64);
        sched.submit(solo).unwrap();
    }
    let mut done = sched.run_to_completion();
    done.sort_by_key(|f| f.id);
    done.into_iter().map(|f| f.tokens).collect()
}

/// The prefill budgets every group test runs under: unbounded (the
/// prompt lands in the admission step), a chunk that splits the prompt
/// over several steps (siblings wait in their slots meanwhile), and a
/// budget far above the prompt.
const BUDGETS: [Option<usize>; 3] = [None, Some(3), Some(1024)];

fn budgeted(storage: KvStorage, budget: Option<usize>) -> SchedulerConfig {
    SchedulerConfig {
        prefill_chunk_tokens: budget,
        ..cfg(storage, 4, None, false)
    }
}

/// A `Parallel { n }` request yields `n` streams, each bit-identical to
/// a standalone request seeded `seed + i` — one shared prefill, `n`
/// forked decodes, no content change. Exercised across float and
/// Anda-compressed storage and every prefill budget.
#[test]
fn parallel_samples_match_standalone_requests() {
    for storage in [KvStorage::Fp32, KvStorage::Anda { mantissa_bits: 6 }] {
        let req = request(prompt(1, 11), 8, 42, SamplingMode::Parallel { n: 3 });
        let twins = standalone(storage, &req, 3);
        for budget in BUDGETS {
            let mut sched = Scheduler::new(model(), budgeted(storage, budget));
            let id = sched.submit(req.clone()).unwrap();
            let mut done = sched.run_to_completion();
            done.sort_by_key(|f| f.sample_index);
            assert_eq!(done.len(), 3);
            assert_eq!(sched.stats().sample_forks, 2, "n - 1 sibling forks");
            assert_eq!(sched.stats().prefill_tokens, 11, "one shared prefill");

            for (i, fin) in done.iter().enumerate() {
                assert_eq!(fin.id, id);
                assert_eq!(fin.sample_index, i);
                assert_eq!(
                    fin.tokens, twins[i],
                    "sample {i} diverged from its standalone twin: {storage:?}, budget {budget:?}"
                );
                assert!(
                    fin.cumulative_logprob.is_some(),
                    "grouped samples report their score"
                );
            }
        }
        // A Single request reports no score.
        let mut solo = Scheduler::new(model(), cfg(storage, 1, None, false));
        solo.submit(request(prompt(1, 11), 2, 42, SamplingMode::Single))
            .unwrap();
        assert_eq!(solo.run_to_completion()[0].cumulative_logprob, None);
    }
}

/// `BestOf { n }` returns exactly the `Parallel { n }` member with the
/// highest cumulative logprob (ties to the lowest sample index), score
/// included — selection is observable, deterministic, and consistent
/// between the two modes and across prefill budgets.
#[test]
fn best_of_picks_the_max_logprob_parallel_sample() {
    let storage = KvStorage::Anda { mantissa_bits: 6 };
    let make = |mode| request(prompt(2, 9), 6, 7, mode);

    let mut par = Scheduler::new(model(), cfg(storage, 4, None, false));
    par.submit(make(SamplingMode::Parallel { n: 3 })).unwrap();
    let mut samples = par.run_to_completion();
    samples.sort_by_key(|f| f.sample_index);
    assert_eq!(samples.len(), 3);
    let expect = samples
        .iter()
        .max_by(|a, b| {
            a.cumulative_logprob
                .partial_cmp(&b.cumulative_logprob)
                .unwrap()
                .then(b.sample_index.cmp(&a.sample_index))
        })
        .unwrap();

    for budget in BUDGETS {
        let mut best = Scheduler::new(model(), budgeted(storage, budget));
        best.submit(make(SamplingMode::BestOf { n: 3 })).unwrap();
        let done = best.run_to_completion();
        assert_eq!(done.len(), 1, "best-of returns only the winner");
        assert_eq!(done[0].tokens, expect.tokens, "budget {budget:?}");
        assert_eq!(done[0].sample_index, expect.sample_index);
        assert_eq!(done[0].cumulative_logprob, expect.cumulative_logprob);
    }

    // The score itself is batch-independent: a serial scheduler
    // reproduces every sample's logprob bit for bit.
    let mut serial = Scheduler::new(model(), cfg(storage, 4, None, false));
    serial
        .submit(make(SamplingMode::Parallel { n: 3 }))
        .unwrap();
    let mut again = serial.run_to_completion();
    again.sort_by_key(|f| f.sample_index);
    for (a, b) in samples.iter().zip(&again) {
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.cumulative_logprob, b.cumulative_logprob);
    }
}

/// Sampling groups under a bounded pool with the automatic prefix
/// cache on: sibling forks ride radix hits (waves revisiting a prompt
/// family fork its cached pages), a cold family under page pressure
/// evicts the LRU family mid-run, and every sample — hit, miss, or
/// re-prefilled after eviction — stays bit-identical to its standalone
/// twin.
#[test]
fn sampling_stays_exact_across_eviction_under_pressure() {
    let storage = KvStorage::Anda { mantissa_bits: 6 };
    let n_layers = model().config().n_layers;
    // Room for two 16-token family prefixes plus one group's demand —
    // the third family cannot fit without evicting the coldest.
    let mut sched = Scheduler::new(model(), cfg(storage, 4, Some(n_layers * 6), true));
    let mut waves = Vec::new();
    for (wave, tag) in [1usize, 2, 1, 2, 3, 1].into_iter().enumerate() {
        let mut p = prompt(tag, 16);
        p.extend_from_slice(&[450 + wave, tag]);
        let req = request(p, 4, wave as u64 * 17, SamplingMode::Parallel { n: 2 });
        sched.submit(req.clone()).unwrap();
        let mut done = sched.run_to_completion();
        done.sort_by_key(|f| f.sample_index);
        waves.push((req, done));
    }
    assert!(
        sched.stats().radix_evictions > 0,
        "the cold family must evict the LRU one"
    );
    assert!(
        sched.stats().cache_hit_tokens > 0,
        "revisited families must fork the cached prefix"
    );
    for (req, done) in &waves {
        let twins = standalone(storage, req, 2);
        assert_eq!(done.len(), 2);
        for (i, fin) in done.iter().enumerate() {
            assert_eq!(fin.tokens, twins[i], "sample {i} diverged across eviction");
        }
    }
}

/// Submit-time validation of sample counts: zero samples and groups
/// wider than the batch are rejected up front with dedicated errors.
#[test]
fn submit_validates_sample_counts() {
    let mut sched = Scheduler::new(model(), cfg(KvStorage::Fp16, 4, None, false));
    // The builder rejects zero samples at build time; the scheduler
    // still guards hand-built requests.
    assert_eq!(
        Request::builder(vec![1, 2])
            .parallel(0)
            .build()
            .unwrap_err(),
        RequestError::ZeroSamples
    );
    let mut zero = request(vec![1, 2], 4, 0, SamplingMode::Single);
    zero.mode = SamplingMode::Parallel { n: 0 };
    assert_eq!(sched.submit(zero), Err(SubmitError::InvalidSampleCount));
    assert_eq!(
        sched.submit(request(vec![1, 2], 4, 0, SamplingMode::BestOf { n: 5 })),
        Err(SubmitError::SamplesExceedBatch { n: 5, max_batch: 4 })
    );
    // The boundary case fits: n == max_batch.
    sched
        .submit(request(vec![1, 2], 4, 0, SamplingMode::Parallel { n: 4 }))
        .unwrap();
    assert_eq!(sched.run_to_completion().len(), 4);
}
