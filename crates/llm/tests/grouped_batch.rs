//! Bit-exactness and decode-once tests for grouped variable-length
//! batched attention ([`Model::decode_hidden_batch`]) against the
//! per-stream path ([`Model::decode_hidden`]). Both attend through the
//! same page walk — a batch of lanes here, a single lane there — whose
//! arithmetic `page_walk.rs` pins to a scalar reference.
//!
//! The serving layer's grouped decode path is only admissible if it is
//! a pure scheduling change: every stream's hidden state must be
//! `f32::to_bits`-identical to a solo per-stream step, under every KV
//! storage policy, page size, thread count and context stagger —
//! including a stream sitting exactly on a page boundary and streams
//! forked from a shared Anda-compressed prefix. On top of bit-identity,
//! the grouped path must deliver the fix it exists for: a physical Anda
//! page attended by N streams decodes **once** per step, not N times.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::model::BatchEntry;
use anda_llm::zoo::{opt_125m_sim, sim_model};
use anda_llm::{DecodeScratch, KvCache, Model, ModuleKind, PageDecodeCache};
use proptest::prelude::*;
use rayon_lite::ThreadPool;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn llama() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| sim_model("LLaMA-7B").unwrap().build())
}

fn bits<V: AsRef<[f32]>>(v: V) -> Vec<u32> {
    v.as_ref().iter().map(|x| x.to_bits()).collect()
}

/// Every storage policy the pool supports, spanning in-place float
/// pages and decode-on-read Anda pages at two mantissa widths.
const POLICIES: [KvStorage; 4] = [
    KvStorage::Fp32,
    KvStorage::Fp16,
    KvStorage::Anda { mantissa_bits: 6 },
    KvStorage::Anda { mantissa_bits: 11 },
];

/// GEMMs one step dispatches by the cost model: one per weight instance
/// per layer, as [`anda_llm::ModelConfig::fp_int_gemm_shape`] counts them.
fn ledger_gemms(model: &Model) -> u64 {
    let cfg = model.config();
    let per_layer: usize = ModuleKind::ALL
        .iter()
        .map(|&kind| cfg.fp_int_gemm_shape(kind).2)
        .sum();
    (per_layer * cfg.n_layers) as u64
}

/// Deterministic per-stream token pattern so streams differ from each
/// other but runs are reproducible.
fn tok(stream: usize, j: usize, vocab: usize) -> usize {
    (stream * 37 + j * 11 + 3) % vocab
}

/// Prefills `lens[i]` tokens per stream on one shared pool, then
/// advances every stream by one hidden-state step — grouped
/// (`decode_hidden_batch`) or per-stream (`decode_hidden`) — and
/// returns each stream's hidden-state bits.
fn step_hidden(
    model: &Model,
    storage: KvStorage,
    page_positions: usize,
    threads: usize,
    lens: &[usize],
    grouped: bool,
) -> Vec<Vec<u32>> {
    let vocab = model.config().vocab;
    let n_layers = model.config().n_layers;
    let pool = PagePool::new(KvPoolConfig {
        storage,
        page_positions,
        max_pages: None,
    });

    let mut caches: Vec<KvCache> = Vec::new();
    let mut scratches: Vec<DecodeScratch> = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let mut cache = pool.new_cache(n_layers);
        let mut s = DecodeScratch::new();
        let tokens: Vec<usize> = (0..len).map(|j| tok(i, j, vocab)).collect();
        model.prefill(&tokens, &mut cache, &mut s);
        caches.push(cache);
        scratches.push(s);
    }

    let next: Vec<usize> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| tok(i, len, vocab))
        .collect();
    if grouped {
        let mut entries: Vec<BatchEntry<'_>> = caches
            .iter_mut()
            .zip(scratches.iter_mut())
            .zip(lens.iter().zip(&next))
            .map(|((cache, scratch), (&pos, token))| BatchEntry {
                tokens: std::slice::from_ref(token),
                pos,
                cache,
                scratch,
            })
            .collect();
        let mut decode_cache = PageDecodeCache::new();
        let workers = ThreadPool::new(threads);
        model.decode_hidden_batch(&mut entries, &mut decode_cache, &workers);
    } else {
        for ((cache, scratch), (&pos, &token)) in caches
            .iter_mut()
            .zip(scratches.iter_mut())
            .zip(lens.iter().zip(&next))
        {
            model.decode_hidden(token, pos, cache, scratch);
        }
    }
    scratches.iter().map(|s| bits(s.hidden_state())).collect()
}

/// Shared-prefix variant: one donor cache is prefilled with
/// `prefix_len` tokens, each stream forks it and prefills its own
/// suffix (possibly empty — that stream then decodes right at the fork
/// point), then one step runs. Returns the per-stream hidden bits and
/// the grouped step's `pages_decoded` count (0 for the oracle path).
fn step_hidden_forked(
    model: &Model,
    storage: KvStorage,
    page_positions: usize,
    threads: usize,
    prefix_len: usize,
    suffixes: &[usize],
    grouped: bool,
) -> (Vec<Vec<u32>>, u64) {
    let vocab = model.config().vocab;
    let n_layers = model.config().n_layers;
    let pool = PagePool::new(KvPoolConfig {
        storage,
        page_positions,
        max_pages: None,
    });

    let mut donor = pool.new_cache(n_layers);
    let mut donor_scratch = DecodeScratch::new();
    let prefix: Vec<usize> = (0..prefix_len).map(|j| tok(0, j, vocab)).collect();
    model.prefill(&prefix, &mut donor, &mut donor_scratch);

    let mut caches: Vec<KvCache> = Vec::new();
    let mut scratches: Vec<DecodeScratch> = Vec::new();
    for (i, &suffix) in suffixes.iter().enumerate() {
        let mut cache = donor.fork_prefix(prefix_len);
        let mut s = DecodeScratch::new();
        if suffix > 0 {
            let tokens: Vec<usize> = (0..suffix)
                .map(|j| tok(i + 1, prefix_len + j, vocab))
                .collect();
            model.prefill(&tokens, &mut cache, &mut s);
        }
        caches.push(cache);
        scratches.push(s);
    }

    let lens: Vec<usize> = suffixes.iter().map(|&s| prefix_len + s).collect();
    let next: Vec<usize> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| tok(i + 1, len, vocab))
        .collect();
    let mut decoded = 0;
    if grouped {
        let mut entries: Vec<BatchEntry<'_>> = caches
            .iter_mut()
            .zip(scratches.iter_mut())
            .zip(lens.iter().zip(&next))
            .map(|((cache, scratch), (&pos, token))| BatchEntry {
                tokens: std::slice::from_ref(token),
                pos,
                cache,
                scratch,
            })
            .collect();
        let mut decode_cache = PageDecodeCache::new();
        let workers = ThreadPool::new(threads);
        model.decode_hidden_batch(&mut entries, &mut decode_cache, &workers);
        decoded = decode_cache.pages_decoded();
    } else {
        for ((cache, scratch), (&pos, &token)) in caches
            .iter_mut()
            .zip(scratches.iter_mut())
            .zip(lens.iter().zip(&next))
        {
            model.decode_hidden(token, pos, cache, scratch);
        }
    }
    let out = scratches.iter().map(|s| bits(s.hidden_state())).collect();
    (out, decoded)
}

/// The full deterministic matrix: every policy × page sizes {1, 8} ×
/// pool sizes {1, 4}, with staggered context lengths including a stream
/// whose cache is exactly one full page at `page_positions = 8` (its
/// decode step opens a fresh page).
#[test]
fn grouped_step_is_bit_identical_across_the_matrix() {
    let lens = [5usize, 8, 13, 1];
    for &storage in &POLICIES {
        for &pp in &[1usize, 8] {
            let want = step_hidden(model(), storage, pp, 1, &lens, false);
            for &threads in &[1usize, 4] {
                let got = step_hidden(model(), storage, pp, threads, &lens, true);
                assert_eq!(
                    got, want,
                    "grouped != per-stream under {storage:?}, page_positions {pp}, {threads} threads"
                );
            }
        }
    }
}

/// Same check through the LLaMA family (RMSNorm + SwiGLU + rotary
/// embeddings), so the RoPE staging shared by both paths is covered.
#[test]
fn grouped_step_is_bit_identical_for_llama() {
    let lens = [7usize, 16, 3];
    let storage = KvStorage::Anda { mantissa_bits: 6 };
    let want = step_hidden(llama(), storage, 8, 1, &lens, false);
    let got = step_hidden(llama(), storage, 8, 4, &lens, true);
    assert_eq!(got, want);
}

/// A single-stream batch must degenerate to exactly the solo step.
#[test]
fn singleton_batch_matches_solo_decode() {
    for &storage in &POLICIES {
        let want = step_hidden(model(), storage, 4, 1, &[9], false);
        let got = step_hidden(model(), storage, 4, 4, &[9], true);
        assert_eq!(got, want, "singleton batch diverged under {storage:?}");
    }
}

/// Streams forked from one shared prefix — the workload the grouped
/// path exists for — stay bit-identical to per-stream decode, with one
/// stream decoding right at the fork point (zero-length suffix).
#[test]
fn grouped_step_matches_oracle_on_shared_prefixes() {
    let suffixes = [0usize, 3, 5, 8];
    for &storage in &[
        KvStorage::Fp16,
        KvStorage::Anda { mantissa_bits: 6 },
        KvStorage::Anda { mantissa_bits: 11 },
    ] {
        let (want, _) = step_hidden_forked(model(), storage, 8, 1, 16, &suffixes, false);
        for &threads in &[1usize, 4] {
            let (got, _) = step_hidden_forked(model(), storage, 8, threads, 16, &suffixes, true);
            assert_eq!(
                got, want,
                "forked-prefix grouped != per-stream under {storage:?}, {threads} threads"
            );
        }
    }
}

/// The decode-once guarantee, counted exactly: with a 16-position
/// prefix on 8-position pages, the two shared prefix pages decode once
/// per layer for the whole batch, plus each stream's private pages.
/// Suffixes {0, 3, 5, 8} give contexts {17, 20, 22, 25} after the
/// step's KV append → {3, 3, 3, 4} pages per stream, of which 2 are the
/// shared prefix: 2 + (1 + 1 + 1 + 2) = 7 distinct pages per layer. A
/// per-stream walk would decode 13 per layer.
#[test]
fn shared_prefix_pages_decode_once_per_step() {
    let n_layers = model().config().n_layers as u64;
    let (_, decoded) = step_hidden_forked(
        model(),
        KvStorage::Anda { mantissa_bits: 6 },
        8,
        4,
        16,
        &[0, 3, 5, 8],
        true,
    );
    assert_eq!(decoded, 7 * n_layers);
}

/// Multi-token batch entries (prefill chunks) are bit-identical to
/// monolithic [`Model::prefill`]: feeding a prompt as grouped chunk
/// spans — packed next to a live one-token decode stream — leaves the
/// same final hidden state as one prefill call, and the co-scheduled
/// decode stream stays bit-identical to its solo oracle.
#[test]
fn chunk_spans_match_monolithic_prefill() {
    let model = model();
    let vocab = model.config().vocab;
    let n_layers = model.config().n_layers;
    let prompt: Vec<usize> = (0..10).map(|j| tok(2, j, vocab)).collect();
    let co_prompt: Vec<usize> = (0..5).map(|j| tok(3, j, vocab)).collect();
    for &storage in &POLICIES {
        for &(pp, split) in &[(4usize, 1usize), (4, 5), (8, 3), (8, 9)] {
            let n_chunks = prompt.len().div_ceil(split);

            // Oracle: monolithic prefill; the co-stream decodes solo.
            let pool = PagePool::new(KvPoolConfig {
                storage,
                page_positions: pp,
                max_pages: None,
            });
            let mut oracle_cache = pool.new_cache(n_layers);
            let mut oracle_s = DecodeScratch::new();
            model.prefill(&prompt, &mut oracle_cache, &mut oracle_s);
            let want_hidden = bits(oracle_s.hidden_state());
            let mut co_cache = pool.new_cache(n_layers);
            let mut co_s = DecodeScratch::new();
            model.prefill(&co_prompt, &mut co_cache, &mut co_s);
            for step in 0..n_chunks {
                model.decode_hidden(tok(3, 5 + step, vocab), 5 + step, &mut co_cache, &mut co_s);
            }
            let want_co = bits(co_s.hidden_state());

            // Chunked: the prompt arrives `split` tokens per grouped
            // step, packed next to the co-stream's one-token decodes.
            let pool = PagePool::new(KvPoolConfig {
                storage,
                page_positions: pp,
                max_pages: None,
            });
            let mut chunk_cache = pool.new_cache(n_layers);
            let mut chunk_s = DecodeScratch::new();
            let mut co_cache = pool.new_cache(n_layers);
            let mut co_s = DecodeScratch::new();
            model.prefill(&co_prompt, &mut co_cache, &mut co_s);
            let co_next: Vec<usize> = (0..n_chunks).map(|step| tok(3, 5 + step, vocab)).collect();
            let mut decode_cache = PageDecodeCache::new();
            let workers = ThreadPool::new(4);
            for (step, chunk) in prompt.chunks(split).enumerate() {
                let mut entries = vec![
                    BatchEntry {
                        tokens: chunk,
                        pos: step * split,
                        cache: &mut chunk_cache,
                        scratch: &mut chunk_s,
                    },
                    BatchEntry {
                        tokens: std::slice::from_ref(&co_next[step]),
                        pos: 5 + step,
                        cache: &mut co_cache,
                        scratch: &mut co_s,
                    },
                ];
                model.decode_hidden_batch(&mut entries, &mut decode_cache, &workers);
            }
            assert_eq!(
                bits(chunk_s.hidden_state()),
                want_hidden,
                "chunked prefill diverged under {storage:?}, pp {pp}, split {split}"
            );
            assert_eq!(
                bits(co_s.hidden_state()),
                want_co,
                "co-decoded stream diverged under {storage:?}, pp {pp}, split {split}"
            );
        }
    }
}

/// One ragged step — decode spans beside prefill chunks of several
/// sizes — followed by one decode step per stream (which attends every
/// K/V row the ragged step appended, at every layer). Returns each
/// stream's hidden bits after both steps and the projection GEMMs the
/// ragged step dispatched (0 on the oracle path, which advances every
/// stream token by token with solo [`Model::decode_hidden`]).
fn ragged_step(
    model: &Model,
    storage: KvStorage,
    threads: usize,
    grouped: bool,
) -> (Vec<Vec<u32>>, u64) {
    /// `(cached context, span)` per stream: two plain decodes, a full
    /// chunk opening a prompt, a short chunk continuing one, a decode
    /// deep in its context.
    const STREAMS: [(usize, usize); 5] = [(9, 1), (16, 1), (0, 64), (5, 7), (33, 1)];
    let vocab = model.config().vocab;
    let pool = PagePool::new(KvPoolConfig {
        storage,
        page_positions: 8,
        max_pages: None,
    });
    let tokens: Vec<Vec<usize>> = STREAMS
        .iter()
        .enumerate()
        .map(|(i, &(ctx, span))| (0..ctx + span + 1).map(|j| tok(i, j, vocab)).collect())
        .collect();
    let mut caches: Vec<KvCache> = Vec::new();
    let mut scratches: Vec<DecodeScratch> = Vec::new();
    for (toks, &(ctx, _)) in tokens.iter().zip(&STREAMS) {
        let mut cache = pool.new_cache(model.config().n_layers);
        let mut s = DecodeScratch::new();
        for (pos, &token) in toks[..ctx].iter().enumerate() {
            model.decode_hidden(token, pos, &mut cache, &mut s);
        }
        caches.push(cache);
        scratches.push(s);
    }

    let mut gemms = 0;
    if grouped {
        let workers = ThreadPool::new(threads);
        let mut decode_cache = PageDecodeCache::new();
        for second in [false, true] {
            let mut entries: Vec<BatchEntry<'_>> = caches
                .iter_mut()
                .zip(scratches.iter_mut())
                .zip(tokens.iter().zip(&STREAMS))
                .map(|((cache, scratch), (toks, &(ctx, span)))| {
                    let span = if second {
                        ctx + span..ctx + span + 1
                    } else {
                        ctx..ctx + span
                    };
                    BatchEntry {
                        pos: span.start,
                        tokens: &toks[span],
                        cache,
                        scratch,
                    }
                })
                .collect();
            model.decode_hidden_batch(&mut entries, &mut decode_cache, &workers);
            if !second {
                gemms = decode_cache.gemm_dispatches();
            }
        }
    } else {
        for ((cache, s), (toks, &(ctx, _))) in caches
            .iter_mut()
            .zip(scratches.iter_mut())
            .zip(tokens.iter().zip(&STREAMS))
        {
            for (pos, &token) in toks.iter().enumerate().skip(ctx) {
                model.decode_hidden(token, pos, cache, s);
            }
        }
    }
    let hidden = scratches.iter().map(|s| bits(s.hidden_state())).collect();
    (hidden, gemms)
}

/// Spans {1, 1, 64, 7, 1} in one call are bit-identical to per-token
/// solo decode on both families, float and Anda pages, at every pool
/// width — and the step dispatches exactly one GEMM per weight per
/// layer however many entries and spans it carries.
#[test]
fn ragged_steps_match_per_token_solo_decode() {
    for (name, model) in [("opt", model()), ("llama", llama())] {
        for storage in [KvStorage::Fp16, KvStorage::Anda { mantissa_bits: 8 }] {
            let (want, _) = ragged_step(model, storage, 1, false);
            for threads in [1usize, 2, 4] {
                let (got, gemms) = ragged_step(model, storage, threads, true);
                assert_eq!(got, want, "{name} {storage:?} {threads} threads");
                assert_eq!(
                    gemms,
                    ledger_gemms(model),
                    "{name}: one GEMM per weight per layer per step"
                );
            }
        }
    }
}

/// The GEMM count does not depend on the step's composition: one
/// stream or five, spans of one or sixty-four.
#[test]
fn a_step_dispatches_one_gemm_per_weight_whatever_it_carries() {
    let model = model();
    let n_layers = model.config().n_layers;
    let workers = ThreadPool::new(2);
    let mut decode_cache = PageDecodeCache::new();
    let mut before = 0;
    for spans in [
        &[1usize][..],
        &[3, 1],
        &[1, 1, 1, 1, 1, 1, 1, 1],
        &[40, 2, 1],
    ] {
        let mut caches: Vec<KvCache> = spans.iter().map(|_| KvCache::new(n_layers)).collect();
        let mut scratches: Vec<DecodeScratch> =
            spans.iter().map(|_| DecodeScratch::new()).collect();
        let tokens: Vec<Vec<usize>> = spans
            .iter()
            .enumerate()
            .map(|(i, &span)| (0..span).map(|j| tok(i, j, model.config().vocab)).collect())
            .collect();
        let mut entries: Vec<BatchEntry<'_>> = caches
            .iter_mut()
            .zip(scratches.iter_mut())
            .zip(&tokens)
            .map(|((cache, scratch), tokens)| BatchEntry {
                tokens,
                pos: 0,
                cache,
                scratch,
            })
            .collect();
        model.decode_hidden_batch(&mut entries, &mut decode_cache, &workers);
        let after = decode_cache.gemm_dispatches();
        assert_eq!(after - before, ledger_gemms(model), "spans {spans:?}");
        before = after;
    }
}

/// Float-policy pages are read in place; the grouped path must not
/// decode anything for them.
#[test]
fn float_policies_never_touch_the_decode_arena() {
    for &storage in &[KvStorage::Fp32, KvStorage::Fp16] {
        let (_, decoded) = step_hidden_forked(model(), storage, 8, 4, 16, &[0, 3, 5, 8], true);
        assert_eq!(decoded, 0, "{storage:?} pages must be read in place");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized stagger: any batch shape at any policy/page-size/pool
    /// combination is bit-identical to the per-stream oracle.
    #[test]
    fn grouped_step_is_bit_identical_prop(
        policy in 0usize..POLICIES.len(),
        pp_idx in 0usize..3,
        threads_idx in 0usize..2,
        lens in prop::collection::vec(1usize..24, 1..5),
    ) {
        let storage = POLICIES[policy];
        let pp = [1usize, 3, 8][pp_idx];
        let threads = [1usize, 4][threads_idx];
        let want = step_hidden(model(), storage, pp, 1, &lens, false);
        let got = step_hidden(model(), storage, pp, threads, &lens, true);
        prop_assert_eq!(got, want);
    }
}
