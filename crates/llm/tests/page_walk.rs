//! The page walk ([`PageDecodeCache::attend`]) against a scalar reference
//! built from nothing but [`LayerKv::key_into`] / [`LayerKv::value_into`]
//! and the per-head operation order the walk promises to keep: one
//! ascending-`c` `q·k` sum per score, the max-shifted log-softmax, then
//! `out += p·v` in position order. The walk runs those sums side by side
//! on the GEMM register tile — sixteen positions of a page, four lanes of
//! a group — and that must never show.
//!
//! Every lane of every scenario must come out `f32::to_bits`-identical,
//! under every storage policy, page size, thread count and SIMD leg —
//! private caches, `fork_prefix` siblings sharing pages, a truncated fork
//! masking a shared tail, a `fork_spliced` page table, chunk spans whose
//! lanes attend causal windows shorter than the table, and random mixes
//! of all of them at head widths ragged against the tile. On top of that
//! the walk must deliver what it exists for: each distinct physical Anda
//! page decodes once per walk, however many lanes view it and however
//! many threads walk it, and a warmed walk allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anda_format::metrics::rows_decoded;
use anda_fp::simd::available_legs;
use anda_llm::config::{Family, ModelConfig};
use anda_llm::kv::{AttendLane, KvPoolConfig, KvReadScratch, KvStorage, LayerKv, PagePool};
use anda_llm::{KvCache, PageDecodeCache};
use anda_tensor::Rng;
use proptest::prelude::*;
use rayon_lite::ThreadPool;

/// Counts the allocations of the *current thread* (as `kv_alloc.rs`
/// does), so parallel test threads do not disturb each other's windows.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const POLICIES: [KvStorage; 4] = [
    KvStorage::Fp16,
    KvStorage::Anda { mantissa_bits: 5 },
    KvStorage::Anda { mantissa_bits: 8 },
    KvStorage::Anda { mantissa_bits: 11 },
];
const PAGE_SIZES: [usize; 3] = [1, 3, 16];
const THREADS: [usize; 3] = [1, 2, 4];
/// `(dim, n_heads)`: heads as wide as an Anda group (four column jobs)
/// and heads four to a group (two).
const SHAPES: [(usize, usize); 2] = [(256, 4), (128, 8)];

/// Bit patterns, every NaN as one: which payload survives the sum of two
/// different NaNs is the compiler's choice of operand order, in the
/// reference too.
fn bits(v: &[f32]) -> Vec<u32> {
    let canonical = |x: &f32| if x.is_nan() { f32::NAN } else { *x }.to_bits();
    v.iter().map(canonical).collect()
}

fn floats(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.normal_with(0.0, 1.0)).collect()
}

fn pool(storage: KvStorage, page_positions: usize) -> PagePool {
    PagePool::new(KvPoolConfig {
        storage,
        page_positions,
        max_pages: None,
    })
}

fn append(cache: &mut KvCache, rng: &mut Rng, positions: usize, dim: usize) {
    for _ in 0..positions {
        let (k, v) = (floats(rng, dim), floats(rng, dim));
        cache.append_row(0, &k, &v);
    }
}

/// One head at a time, one row at a time: the operation order of the
/// per-head kernel the walk replaced, reading rows only through the
/// public single-row accessors.
fn reference(layer: &LayerKv, t: usize, q: &[f32], n_heads: usize) -> Vec<f32> {
    let dim = q.len();
    let dh = dim / n_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut row = vec![0.0f32; dim];
    let mut out = vec![0.0f32; dim];
    for head in 0..n_heads {
        let cols = head * dh..(head + 1) * dh;
        let qh = &q[cols.clone()];
        let mut scores = vec![0.0f32; t];
        for (pos, score) in scores.iter_mut().enumerate() {
            layer.key_into(pos, &mut row);
            let kh = &row[cols.clone()];
            *score = qh.iter().zip(kh).map(|(&a, &b)| a * b).sum::<f32>() * scale;
        }
        let max = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let log_sum: f32 = scores.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
        let log_probs: Vec<f32> = scores.iter().map(|&s| s - max - log_sum).collect();
        for (pos, l) in log_probs.iter().enumerate() {
            let p = l.exp();
            layer.value_into(pos, &mut row);
            for (a, &vv) in out[cols.clone()].iter_mut().zip(&row[cols.clone()]) {
                *a += p * vv;
            }
        }
    }
    out
}

/// Walks `views` — `(layer, window)` pairs, each with its own random
/// query — serially and on every pool width, on every SIMD leg the host
/// runs, checks every lane against the reference, and returns the Anda
/// pages each walk decoded (which must depend on neither).
fn check_walk(views: &[(&LayerKv, usize)], n_heads: usize, rng: &mut Rng, ctx: &str) -> u64 {
    let dim = views[0].0.dim();
    let queries: Vec<Vec<f32>> = views.iter().map(|_| floats(rng, dim)).collect();
    check_walk_on(views, &queries, n_heads, &THREADS, ctx)
}

/// [`check_walk`] with the lanes' queries and the pool widths given.
fn check_walk_on(
    views: &[(&LayerKv, usize)],
    queries: &[Vec<f32>],
    n_heads: usize,
    threads: &[usize],
    ctx: &str,
) -> u64 {
    let dim = views[0].0.dim();
    let expect: Vec<Vec<u32>> = views
        .iter()
        .zip(queries)
        .map(|(&(layer, t), q)| bits(&reference(layer, t, q, n_heads)))
        .collect();

    let pools: Vec<ThreadPool> = threads.iter().map(|&n| ThreadPool::new(n)).collect();
    let widths = std::iter::once(None).chain(pools.iter().map(Some));
    let mut per_walk = None;
    for (workers, leg) in widths.flat_map(|w| available_legs().into_iter().map(move |l| (w, l))) {
        let mut walk = PageDecodeCache::new();
        // Stale garbage in the outputs and score lanes must not matter.
        let mut outs: Vec<Vec<f32>> = views.iter().map(|_| vec![f32::NAN; dim]).collect();
        let mut scores: Vec<Vec<f32>> = views
            .iter()
            .map(|&(_, t)| vec![f32::NAN; n_heads * t])
            .collect();
        let mut lanes: Vec<AttendLane<'_>> = views
            .iter()
            .zip(queries)
            .zip(outs.iter_mut().zip(scores.iter_mut()))
            .map(|((&(layer, t), q), (out, scores))| AttendLane {
                layer,
                t,
                q,
                scores,
                out,
            })
            .collect();
        let rows_before = rows_decoded();
        walk.attend_with_leg(&mut lanes, n_heads, workers, leg);
        let at = format!(
            "{} threads, leg {}",
            workers.map_or(0, ThreadPool::threads),
            leg.name()
        );
        for (i, (out, want)) in outs.iter().zip(&expect).enumerate() {
            assert_eq!(&bits(out), want, "{ctx}: lane {i}, {at}");
        }
        let decoded = walk.pages_decoded();
        assert_eq!(
            *per_walk.get_or_insert(decoded),
            decoded,
            "{ctx}: pages decoded must not depend on the thread count or the leg ({at})"
        );
        // The global row counter saw at least K and V of one row per
        // decoded page (`>=`: it is shared with concurrent tests).
        assert!(rows_decoded() - rows_before >= 2 * decoded, "{ctx}");
    }
    per_walk.expect("at least one walk ran")
}

/// What the walk may decode: every Anda page the pool has leased, once.
/// Holds when the pool is single-layer and every live cache is attended
/// through a window that reaches its last page.
fn leased_anda_pages(pool: &PagePool) -> u64 {
    if pool.config().storage.reads_in_place() {
        0
    } else {
        pool.pages_in_use() as u64
    }
}

fn for_each_config(mut case: impl FnMut(KvStorage, usize, usize, usize, &str)) {
    for storage in POLICIES {
        for pp in PAGE_SIZES {
            for (dim, n_heads) in SHAPES {
                let ctx = format!("{storage:?} page {pp} dim {dim} heads {n_heads}");
                case(storage, pp, dim, n_heads, &ctx);
            }
        }
    }
}

#[test]
fn private_caches_match_the_reference() {
    for_each_config(|storage, pp, dim, n_heads, ctx| {
        let pool = pool(storage, pp);
        let mut rng = Rng::new(11);
        // Staggered lengths: one position, exactly one 16-position page,
        // and two ragged multi-page contexts.
        let caches: Vec<KvCache> = [1usize, 16, 37, 50]
            .iter()
            .map(|&len| {
                let mut cache = pool.new_cache(1);
                append(&mut cache, &mut rng, len, dim);
                cache
            })
            .collect();
        let views: Vec<_> = caches.iter().map(|c| (c.layer(0), c.len())).collect();
        let decoded = check_walk(&views, n_heads, &mut rng, ctx);
        assert_eq!(decoded, leased_anda_pages(&pool), "{ctx}");
    });
}

#[test]
fn fork_prefix_siblings_decode_each_shared_page_once() {
    for_each_config(|storage, pp, dim, n_heads, ctx| {
        let pool = pool(storage, pp);
        let mut rng = Rng::new(12);
        let mut donor = pool.new_cache(1);
        append(&mut donor, &mut rng, 35, dim);
        // Siblings fork the whole prefix (its partial tail page included)
        // and diverge: the first append copies the tail out, the prefix's
        // full pages stay shared. One sibling decodes right at the fork.
        let mut siblings: Vec<KvCache> = (0..3).map(|_| donor.fork_prefix(35)).collect();
        for (sibling, extra) in siblings.iter_mut().zip([0usize, 1, 9]) {
            append(sibling, &mut rng, extra, dim);
        }
        let shared_before = pool.pages_in_use();
        let mut views = vec![(donor.layer(0), donor.len())];
        views.extend(siblings.iter().map(|c| (c.layer(0), c.len())));
        let decoded = check_walk(&views, n_heads, &mut rng, ctx);
        assert_eq!(pool.pages_in_use(), shared_before, "a walk leases nothing");
        assert_eq!(
            decoded,
            leased_anda_pages(&pool),
            "{ctx}: four lanes over one prefix decode each physical page once"
        );
    });
}

#[test]
fn truncated_fork_masks_the_shared_tail() {
    for_each_config(|storage, pp, dim, n_heads, ctx| {
        let pool = pool(storage, pp);
        let mut rng = Rng::new(13);
        let mut donor = pool.new_cache(1);
        append(&mut donor, &mut rng, 23, dim);
        // The fork views two rows fewer than the tail page it shares
        // physically holds; donor rows past the fork point must not leak
        // into its lane, alone or walked together with the donor.
        let child = donor.fork_prefix(21);
        let alone = check_walk(&[(child.layer(0), 21)], n_heads, &mut rng, ctx);
        let both = [(donor.layer(0), 23), (child.layer(0), 21)];
        let together = check_walk(&both, n_heads, &mut rng, ctx);
        assert_eq!(together, leased_anda_pages(&pool), "{ctx}");
        let child_pages = pool.pages_for(21) as u64;
        assert_eq!(
            alone,
            together.min(child_pages),
            "{ctx}: the child leases donor pages"
        );
    });
}

#[test]
fn spliced_fork_reads_each_range_from_its_donor() {
    for_each_config(|storage, pp, dim, n_heads, ctx| {
        let pool = pool(storage, pp);
        let mut rng = Rng::new(14);
        let split = 2 * pp.max(8).div_ceil(pp) * pp; // page-aligned, >= 16
        let mut path = pool.new_cache(1);
        append(&mut path, &mut rng, split, dim);
        // The tail donor holds its own copy of other rows for 0..split,
        // so the splice is visible: the fork must read the path's rows
        // there and the tail's rows past it.
        let mut tail = pool.new_cache(1);
        append(&mut tail, &mut rng, split + 11, dim);
        let fork = path.fork_spliced(split, &mut tail, split + 7);
        let views = [
            (path.layer(0), split),
            (tail.layer(0), split + 11),
            (fork.layer(0), split + 7),
        ];
        let decoded = check_walk(&views, n_heads, &mut rng, ctx);
        assert_eq!(decoded, leased_anda_pages(&pool), "{ctx}");
    });
}

#[test]
fn chunk_span_lanes_attend_causal_windows() {
    for_each_config(|storage, pp, dim, n_heads, ctx| {
        let pool = pool(storage, pp);
        let mut rng = Rng::new(15);
        // A prefill chunk of six tokens at position 30: the table holds
        // all 36 rows, lane j attends 31 + j of them. A decode lane of
        // another stream rides in the same walk.
        let mut chunked = pool.new_cache(1);
        append(&mut chunked, &mut rng, 36, dim);
        let mut other = pool.new_cache(1);
        append(&mut other, &mut rng, 20, dim);
        let mut views: Vec<_> = (31..=36).map(|t| (chunked.layer(0), t)).collect();
        views.push((other.layer(0), 20));
        let decoded = check_walk(&views, n_heads, &mut rng, ctx);
        assert_eq!(
            decoded,
            leased_anda_pages(&pool),
            "{ctx}: six lanes of one span share every page's one decode"
        );
    });
}

#[test]
fn warmed_walks_allocate_nothing() {
    let (dim, n_heads) = (256, 4);
    for storage in POLICIES {
        let pool = pool(storage, 16);
        let mut rng = Rng::new(16);
        let mut a = pool.new_cache(1);
        append(&mut a, &mut rng, 40, dim);
        let b = a.fork_prefix(33);
        let q = floats(&mut rng, dim);

        // Solo lane through the public single-query entry point.
        let mut scratch = KvReadScratch::new();
        let mut out = vec![0.0f32; dim];
        a.layer(0).attend_into(&q, n_heads, &mut out, &mut scratch);
        let before = thread_allocs();
        a.layer(0).attend_into(&q, n_heads, &mut out, &mut scratch);
        assert_eq!(
            thread_allocs() - before,
            0,
            "{storage:?}: warmed attend_into"
        );

        // A serial multi-lane walk: tile and sort buffer are warm too.
        let mut walk = PageDecodeCache::new();
        let (mut out_a, mut out_b) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        let (mut s_a, mut s_b) = (vec![0.0f32; n_heads * 40], vec![0.0f32; n_heads * 33]);
        for round in 0..2 {
            let before = thread_allocs();
            let mut lanes = [
                AttendLane {
                    layer: a.layer(0),
                    t: 40,
                    q: &q,
                    scores: &mut s_a,
                    out: &mut out_a,
                },
                AttendLane {
                    layer: b.layer(0),
                    t: 33,
                    q: &q,
                    scores: &mut s_b,
                    out: &mut out_b,
                },
            ];
            walk.attend(&mut lanes, n_heads, None);
            if round == 1 {
                assert_eq!(thread_allocs() - before, 0, "{storage:?}: warmed walk");
            }
        }

        // A chunk span: `reserve` sizes the lane blocks of a page group's
        // products for as many rows as a step may carry, so once a small
        // walk has sized the tile a twelve-lane span allocates nothing.
        let config = ModelConfig {
            name: "walk".into(),
            family: Family::Opt,
            d_model: dim,
            n_layers: 1,
            n_heads,
            d_ffn: dim,
            vocab: 1,
            max_seq: 40,
        };
        let mut walk = PageDecodeCache::new();
        walk.reserve(&config, 12, 40);
        let mut outs = vec![vec![0.0f32; dim]; 12];
        let mut scores: Vec<Vec<f32>> = (29..=40).map(|t| vec![0.0; n_heads * t]).collect();
        for span in [1, 12] {
            let mut lanes: Vec<AttendLane<'_>> = (29..=40)
                .zip(outs.iter_mut().zip(scores.iter_mut()))
                .take(span)
                .map(|(t, (out, scores))| AttendLane {
                    layer: a.layer(0),
                    t,
                    q: &q,
                    scores,
                    out,
                })
                .collect();
            let before = thread_allocs();
            walk.attend(&mut lanes, n_heads, None);
            if span == 12 {
                assert_eq!(thread_allocs() - before, 0, "{storage:?}: warmed span");
            }
        }
    }
}

#[test]
#[should_panic(expected = "attended window 6 outside layer 0's 5 positions")]
fn a_window_past_the_layer_is_refused() {
    let pool = pool(KvStorage::Fp16, 4);
    let mut cache = pool.new_cache(1);
    append(&mut cache, &mut Rng::new(17), 5, 64);
    let lane = AttendLane {
        layer: cache.layer(0),
        t: 6,
        q: &[0.0; 64],
        scores: &mut [0.0; 24],
        out: &mut [0.0; 64],
    };
    PageDecodeCache::new().attend(&mut [lane], 4, None);
}

/// Page sizes below, at and off the tile's sixteen columns; head widths
/// below one strip, off the pack's four-`k` blocks and at the served 64.
const RAGGED_PAGE_SIZES: [usize; 4] = [1, 5, 8, 16];
const RAGGED_HEAD_WIDTHS: [usize; 4] = [4, 8, 24, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random lane mixes over one pool: a donor stream, forks of it cut at
    /// random depths (so one physical page is viewed at several — some
    /// forks then append, copying the shared tail out), a spliced fork,
    /// and chunk spans whose causal windows end mid-page over a table with
    /// a part-filled tail.
    #[test]
    fn random_lane_mixes_match_the_reference(seed in any::<u64>()) {
        for storage in POLICIES {
            for pp in RAGGED_PAGE_SIZES {
                for dh in RAGGED_HEAD_WIDTHS {
                    let mut rng = Rng::new(seed ^ (pp * 131 + dh) as u64);
                    let n_heads = 1 + rng.below(256 / dh).min(15);
                    let dim = dh * n_heads;
                    let ctx = format!("{storage:?} page {pp} dh {dh} heads {n_heads} seed {seed}");
                    let pool = pool(storage, pp);
                    let reach = 3 * pp.max(6);

                    let mut donor = pool.new_cache(1);
                    let len = 1 + rng.below(reach);
                    append(&mut donor, &mut rng, len, dim);
                    let mut caches: Vec<KvCache> = Vec::new();
                    // `(cache, first window, last window)`; the donor is
                    // `usize::MAX`.
                    let mut spans = vec![(usize::MAX, donor.len(), donor.len())];
                    for _ in 0..rng.below(4) {
                        let depth = 1 + rng.below(donor.len());
                        let mut fork = donor.fork_prefix(depth);
                        let chunk = rng.below(2) * rng.below(pp + 3);
                        append(&mut fork, &mut rng, chunk, dim);
                        spans.push((caches.len(), depth + chunk.min(1), depth + chunk));
                        caches.push(fork);
                    }
                    if donor.len() >= pp {
                        let split = pp * (1 + rng.below(donor.len() / pp));
                        let mut tail = pool.new_cache(1);
                        let len = split + 1 + rng.below(2 * pp);
                        append(&mut tail, &mut rng, len, dim);
                        let depth = split + 1 + rng.below(tail.len() - split);
                        let fork = donor.fork_spliced(split, &mut tail, depth);
                        spans.push((caches.len(), tail.len(), tail.len()));
                        spans.push((caches.len() + 1, depth, depth));
                        caches.extend([tail, fork]);
                    }
                    let mut chunked = pool.new_cache(1);
                    let (at, chunk) = (rng.below(reach), 1 + rng.below(2 * pp + 2));
                    append(&mut chunked, &mut rng, at + chunk, dim);
                    spans.push((caches.len(), at + 1, at + chunk));
                    caches.push(chunked);

                    let views: Vec<(&LayerKv, usize)> = spans
                        .iter()
                        .flat_map(|&(cache, first, last)| {
                            let layer = caches.get(cache).unwrap_or(&donor).layer(0);
                            (first..=last).map(move |t| (layer, t))
                        })
                        .collect();
                    let queries: Vec<Vec<f32>> =
                        views.iter().map(|_| floats(&mut rng, dim)).collect();
                    check_walk_on(&views, &queries, n_heads, &[1, 2, 3], &ctx);
                }
            }
        }
    }
}

/// Raw `f32` pages keep what the rounding policies would saturate away.
fn fp32_rows(rows: &[(Vec<f32>, Vec<f32>)], pp: usize) -> KvCache {
    let mut cache = pool(KvStorage::Fp32, pp).new_cache(1);
    for (k, v) in rows {
        cache.append_row(0, k, v);
    }
    cache
}

#[test]
fn rows_past_a_window_never_reach_its_lane() {
    // Masking is structural: the rows a lane's window does not reach are
    // in the page tile its group's products run over — here every one of
    // them is ±inf or NaN, K and V — and take no part in any of its sums.
    // Multiplied by a zero weight instead they would poison the mix.
    let (dim, n_heads) = (48, 2);
    for pp in [5, 16] {
        let mut rng = Rng::new(18);
        let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let rows: Vec<_> = (0..23)
            .map(|pos| match pos < 18 {
                true => (floats(&mut rng, dim), floats(&mut rng, dim)),
                false => (vec![poison[pos % 3]; dim], vec![poison[(pos + 1) % 3]; dim]),
            })
            .collect();
        let mut cache = fp32_rows(&rows, pp);
        let fork = cache.fork_prefix(17);
        // Span lanes ending before the poison, mid-page and on a page
        // boundary, next to a fork that shares those pages.
        let mut views: Vec<_> = (11..=18).map(|t| (cache.layer(0), t)).collect();
        views.push((fork.layer(0), 17));
        let queries: Vec<Vec<f32>> = views.iter().map(|_| floats(&mut rng, dim)).collect();
        for (&(layer, t), q) in views.iter().zip(&queries) {
            assert!(reference(layer, t, q, n_heads)
                .iter()
                .all(|x| x.is_finite()));
        }
        check_walk_on(&views, &queries, n_heads, &THREADS, &format!("page {pp}"));
    }
}

#[test]
fn a_zero_weight_still_multiplies_its_value_row() {
    // Inside the window nothing is skipped either: a softmax weight that
    // underflowed to exactly 0 against an infinite V element is a NaN in
    // the reference's `out += p * v`, so it is one in the walk — the GEMM
    // kernels' zero-skipping row walk is not the one attention runs.
    let (dim, n_heads) = (8, 1);
    let key = |x: f32| [vec![x], vec![0.0; dim - 1]].concat();
    let mut v1 = vec![1.0; dim];
    (v1[0], v1[3]) = (f32::INFINITY, f32::NEG_INFINITY);
    let cache = fp32_rows(&[(key(20.0), vec![0.5; dim]), (key(-20.0), v1)], 4);
    let q = key(20.0);
    let out = reference(cache.layer(0), 2, &q, n_heads);
    assert!(
        out[0].is_nan() && out[3].is_nan() && out[1] == 0.5,
        "{out:?}"
    );
    check_walk_on(
        &[(cache.layer(0), 2)],
        &[q],
        n_heads,
        &THREADS,
        "zero weight",
    );
}

#[test]
fn the_sign_of_an_all_zero_score_is_erased_by_the_softmax() {
    // The one representational difference between the walk and the
    // reference: `Iterator::sum` starts at -0.0, the register tile at
    // +0.0, so a score whose every product is -0.0 is -0.0 there and +0.0
    // here. The max-shifted softmax maps both to the same weight.
    let (dim, n_heads) = (64, 1);
    let mut rng = Rng::new(19);
    let k = vec![-0.0f32; dim];
    let q = vec![0.0f32; dim];
    let summed: f32 = q.iter().zip(&k).map(|(&a, &b)| a * b).sum();
    assert!(summed == 0.0 && summed.is_sign_negative());
    for t in [1, 3] {
        let rows: Vec<_> = (0..t).map(|_| (k.clone(), floats(&mut rng, dim))).collect();
        let cache = fp32_rows(&rows, 16);
        let ctx = format!("-0.0 scores, t = {t}");
        check_walk_on(
            &[(cache.layer(0), t)],
            std::slice::from_ref(&q),
            n_heads,
            &THREADS,
            &ctx,
        );
    }
}
