//! Zero-allocation guarantee for the KV decode hot path, enforced with a
//! counting global allocator.
//!
//! After warm-up — `DecodeScratch::reserve`, `KvCache::reserve`, and
//! `PagePool::preallocate` — a decode step performs **no** heap
//! allocation at all: K/V rows are written straight into the tail page
//! (FP16-rounded or Anda bit-plane-encoded in place), page leases pop
//! the pool's free list, and compressed reads decode into the reserved
//! scratch. The same holds for a **batched** step
//! (`Model::decode_hidden_batch` on a one-thread pool, decode-only or
//! chunk + decode) once `PageDecodeCache::reserve` has sized the
//! step-wide row block, and for a full-sequence
//! `Model::forward_with_scratch` — the same step body — at a length its
//! scratch has seen, when the global pool has one thread. This file is
//! its own test binary so the allocation counter sees only this suite's
//! traffic, and each test counts its own thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::model::BatchEntry;
use anda_llm::zoo::opt_125m_sim;
use anda_llm::PrecisionCombo;
use anda_llm::{CodecAssignment, DecodeScratch, ForwardScratch, KvCache, PageDecodeCache};
use rayon_lite::ThreadPool;

/// Counts every allocation (fresh and growing) the *current thread*
/// passes to the system allocator. Per-thread counting keeps the
/// measured window honest: the global compute pool's worker threads
/// finish their lazy startup allocations at their own pace, and the
/// decode path under test runs entirely on this thread (serial kernels).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

fn bump() {
    // `const`-initialized Cell TLS never allocates on first access, so
    // counting from inside the allocator cannot recurse.
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_decode_steps_allocate_zero_kv_path_heap() {
    let model = opt_125m_sim().build();
    let cfg = model.config().clone();
    // Deliberately NOT a multiple of the page size: the decode must stay
    // allocation-free through the last, partially filled page too.
    let max_len: usize = 33;
    let page_positions: usize = 4;

    for storage in [
        KvStorage::Fp32,
        KvStorage::Fp16,
        KvStorage::Anda { mantissa_bits: 6 },
    ] {
        let pool = PagePool::new(KvPoolConfig {
            storage,
            page_positions,
            max_pages: None,
        });
        // Warm everything: pages for the whole context, page tables,
        // every scratch buffer.
        pool.preallocate(cfg.n_layers * max_len.div_ceil(page_positions), cfg.d_model);
        let mut cache = pool.new_cache(cfg.n_layers);
        cache.reserve(max_len);
        let mut scratch = DecodeScratch::new();
        scratch.reserve(&cfg, max_len);

        // Prefill a prompt; the first steps may still fault in lazily
        // sized buffers, which is exactly what the reservation plus this
        // warm-up is for.
        let prompt: Vec<usize> = (0..8).map(|i| (i * 37 + 3) % cfg.vocab).collect();
        model.prefill(&prompt, &mut cache, &mut scratch);

        // Measured region: decode to the reserved maximum, crossing
        // several page boundaries and ending inside a partial page
        // (serial kernels — the thread pool is not involved, so every
        // count below is KV-path or scratch traffic).
        let steps = max_len - prompt.len();
        let before = thread_allocs();
        for pos in prompt.len()..max_len {
            let token = (pos * 13 + 1) % cfg.vocab;
            model.decode_hidden(token, pos, &mut cache, &mut scratch);
        }
        let after = thread_allocs();
        assert_eq!(
            after - before,
            0,
            "{storage:?}: decode allocated {} times over {steps} warmed steps",
            after - before
        );
        assert!(cache.len() > page_positions, "steps crossed page bounds");
        assert!(
            !cache.len().is_multiple_of(page_positions),
            "the run must end inside a partial page"
        );
    }
}

/// One batched step over four streams: stream 0 advances by
/// `tokens[0]` (a chunk when longer than one), the others by one token.
fn batched_step(
    model: &anda_llm::Model,
    tokens: [&[usize]; 4],
    caches: &mut [KvCache; 4],
    scratches: &mut [DecodeScratch; 4],
    decode_cache: &mut PageDecodeCache,
    workers: &ThreadPool,
) {
    let [c0, c1, c2, c3] = caches;
    let [s0, s1, s2, s3] = scratches;
    fn entry<'s>(
        tokens: &'s [usize],
        cache: &'s mut KvCache,
        scratch: &'s mut DecodeScratch,
    ) -> BatchEntry<'s> {
        BatchEntry {
            tokens,
            pos: cache.len(),
            cache,
            scratch,
        }
    }
    let mut entries = [
        entry(tokens[0], c0, s0),
        entry(tokens[1], c1, s1),
        entry(tokens[2], c2, s2),
        entry(tokens[3], c3, s3),
    ];
    model.decode_hidden_batch(&mut entries, decode_cache, workers);
}

#[test]
fn warmed_batched_steps_allocate_zero() {
    let model = opt_125m_sim().build();
    let cfg = model.config().clone();
    const CHUNK: usize = 16;
    let max_len: usize = 61;
    let page_positions: usize = 4;
    // A one-thread pool runs every job inline: what is counted is the
    // step's own buffers, not the pool's job boxes.
    let workers = ThreadPool::new(1);
    let toks: Vec<usize> = (0..max_len).map(|i| (i * 29 + 7) % cfg.vocab).collect();

    for storage in [KvStorage::Fp16, KvStorage::Anda { mantissa_bits: 8 }] {
        let pool = PagePool::new(KvPoolConfig {
            storage,
            page_positions,
            max_pages: None,
        });
        pool.preallocate(
            4 * cfg.n_layers * max_len.div_ceil(page_positions),
            cfg.d_model,
        );
        let mut caches: [KvCache; 4] = std::array::from_fn(|_| {
            let mut cache = pool.new_cache(cfg.n_layers);
            cache.reserve(max_len);
            cache
        });
        let mut scratches: [DecodeScratch; 4] = std::array::from_fn(|_| {
            let mut s = DecodeScratch::new();
            s.reserve(&cfg, max_len);
            s
        });
        let mut decode_cache = PageDecodeCache::new();
        decode_cache.reserve(&cfg, CHUNK + 3, max_len);

        // Warm-up: one step of each kind (the walk's tile is sized by
        // the first page it decodes).
        let ones = |at: usize| [&toks[at..at + 1]; 4];
        batched_step(
            &model,
            ones(0),
            &mut caches,
            &mut scratches,
            &mut decode_cache,
            &workers,
        );
        let mut mixed = ones(1);
        mixed[0] = &toks[1..1 + CHUNK];
        batched_step(
            &model,
            mixed,
            &mut caches,
            &mut scratches,
            &mut decode_cache,
            &workers,
        );

        // Measured: two more chunk + decode steps, then decode-only
        // steps across several page boundaries.
        let before = thread_allocs();
        for _ in 0..2 {
            let at = caches[0].len();
            let mut mixed = ones(caches[1].len());
            mixed[0] = &toks[at..at + CHUNK];
            batched_step(
                &model,
                mixed,
                &mut caches,
                &mut scratches,
                &mut decode_cache,
                &workers,
            );
        }
        for _ in 0..11 {
            let at = caches[1].len();
            batched_step(
                &model,
                ones(at),
                &mut caches,
                &mut scratches,
                &mut decode_cache,
                &workers,
            );
        }
        let after = thread_allocs();
        assert_eq!(
            after - before,
            0,
            "{storage:?}: batched steps allocated {} times",
            after - before
        );
        assert_eq!(caches[0].len(), 1 + 3 * CHUNK + 11);
        assert!(!caches[1].len().is_multiple_of(page_positions));
    }
}

#[test]
fn warmed_forward_allocates_zero_on_a_one_thread_pool() {
    let model = opt_125m_sim().build();
    let tokens: Vec<usize> = (0..70)
        .map(|i| (i * 31 + 9) % model.config().vocab)
        .collect();
    let mut scratch = ForwardScratch::new();
    for codecs in [
        CodecAssignment::fp16(),
        CodecAssignment::from_combo(PrecisionCombo([8, 6, 7, 5])),
    ] {
        // Warm-up: the longest pass sizes the row block, the logits and
        // the private cache's page tables; the next pass's reset grows
        // the pool's free list to hold those pages.
        for _ in 0..2 {
            model.forward_with_scratch(&tokens, &codecs, &mut scratch);
        }

        let before = thread_allocs();
        model.forward_with_scratch(&tokens, &codecs, &mut scratch);
        model.forward_with_scratch(&tokens[..23], &codecs, &mut scratch);
        let logits = model.forward_with_scratch(&tokens, &codecs, &mut scratch);
        assert_eq!(logits.shape(), (tokens.len(), model.config().vocab));
        let after = thread_allocs();
        // `forward` runs on the global pool, and a pool of several
        // threads boxes every job it dispatches: the zero holds where
        // dispatch is inline (CI's `ANDA_THREADS=1` leg).
        if rayon_lite::global().threads() == 1 {
            assert_eq!(
                after - before,
                0,
                "{codecs:?}: warmed forward passes allocated {} times",
                after - before
            );
        }
    }
}
