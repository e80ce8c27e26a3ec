//! The page walk ([`PageDecodeCache::attend`]) against a scalar reference
//! built from nothing but [`LayerKv::key_into`] / [`LayerKv::value_into`]
//! and the per-head operation order the walk promises to keep: one
//! ascending-`c` `q·k` sum per score, the max-shifted log-softmax (its
//! `exp` the workspace's port, `anda_fp::exp::expf`), then `out += p·v`
//! in position order. The walk runs those sums side by side
//! on the GEMM register tile — sixteen positions of a page, four lanes of
//! a group — and that must never show.
//!
//! Every lane of every scenario must come out `f32::to_bits`-identical,
//! under every storage policy, page size, thread count and SIMD leg —
//! private caches, `fork_prefix` siblings sharing pages, a truncated fork
//! holding a copy of its partial tail, a `fork_spliced` page table,
//! chunk spans whose lanes attend causal windows shorter than the table,
//! and random mixes of all of them at head widths ragged against the
//! tile. On top of that
//! the walk must deliver what it exists for: each distinct physical Anda
//! page decodes once per walk, however many lanes view it and however
//! many threads walk it, and a warmed walk allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anda_format::metrics::rows_decoded;
use anda_fp::exp::expf;
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
/// Page sizes below, at and one past a block of sixteen positions.
const PAGE_SIZES: [usize; 4] = [1, 3, 16, 17];
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

/// The classes of softmax weights the reference met on this thread, which
/// the V pass runs each row of a page by (`anda_tensor::RowClass`): heads'
/// blocks of sixteen positions whose every weight is `+0.0`, `+0.0`
/// weights in other blocks, the subnormal binades, and normal weights
/// below `2^-102`.
#[derive(Default)]
struct Tally {
    zero_blocks: usize,
    scattered_zeros: usize,
    binades: std::collections::BTreeSet<u32>,
    tiny_normals: usize,
}

thread_local! {
    static TALLY: std::cell::RefCell<Tally> = std::cell::RefCell::default();
}

/// Adds one head's weights to this thread's [`Tally`].
fn tally(weights: &[f32]) {
    TALLY.with_borrow_mut(|tally| {
        for block in weights.chunks(16) {
            let zeros = block.iter().filter(|&&p| p.to_bits() == 0).count();
            match zeros == block.len() {
                true => tally.zero_blocks += 1,
                false => tally.scattered_zeros += zeros,
            }
        }
        for &p in weights {
            match p.to_bits() {
                0 => {}
                b if b < 1 << 23 => _ = tally.binades.insert(b.ilog2()),
                b if b < 25 << 23 => tally.tiny_normals += 1,
                _ => {}
            }
        }
    })
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
        let log_sum: f32 = scores.iter().map(|&x| expf(x - max)).sum::<f32>().ln();
        let log_probs: Vec<f32> = scores.iter().map(|&s| s - max - log_sum).collect();
        tally(&log_probs.iter().map(|&l| expf(l)).collect::<Vec<_>>());
        for (pos, l) in log_probs.iter().enumerate() {
            let p = expf(*l);
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

/// How much [`check_walk_on`] scales its queries up by for its second
/// round: scores spread over hundreds, so that a head's softmax weights
/// hold whole pages of `+0.0`, scattered zeros, subnormals and normal
/// weights below `2^-102` beside its large ones — every class of row the
/// V pass runs by.
const WIDE_SCORES: f32 = 150.0;

/// [`check_walk`] with the lanes' queries and the pool widths given, and
/// again with the queries scaled by [`WIDE_SCORES`].
fn check_walk_on(
    views: &[(&LayerKv, usize)],
    queries: &[Vec<f32>],
    n_heads: usize,
    threads: &[usize],
    ctx: &str,
) -> u64 {
    let wide: Vec<Vec<f32>> = queries
        .iter()
        .map(|q| q.iter().map(|&x| x * WIDE_SCORES).collect())
        .collect();
    let decoded = check_walk_once(views, queries, n_heads, threads, ctx);
    let ctx = format!("{ctx}, queries scaled by {WIDE_SCORES}");
    assert_eq!(
        check_walk_once(views, &wide, n_heads, threads, &ctx),
        decoded,
        "{ctx}: pages decoded must not depend on the weights"
    );
    decoded
}

/// One round of [`check_walk_on`].
fn check_walk_once(
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
    let widths = std::iter::once(rayon_lite::serial()).chain(&pools);
    let mut per_walk = None;
    for (workers, leg) in widths.flat_map(|w| available_legs().into_iter().map(move |l| (w, l))) {
        let mut walk = PageDecodeCache::new();
        // Stale garbage in the outputs must not matter.
        let mut outs: Vec<Vec<f32>> = views.iter().map(|_| vec![f32::NAN; dim]).collect();
        let mut lanes: Vec<AttendLane<'_>> = views
            .iter()
            .zip(queries)
            .zip(outs.iter_mut())
            .map(|((&(layer, t), q), out)| AttendLane { layer, t, q, out })
            .collect();
        let rows_before = rows_decoded();
        walk.attend_with_leg(&mut lanes, n_heads, workers, leg);
        let at = format!("{} threads, leg {}", workers.threads(), leg.name());
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
    match pool.config().storage {
        KvStorage::Anda { .. } => pool.pages_in_use() as u64,
        KvStorage::Fp32 | KvStorage::Fp16 => 0,
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
        // Siblings fork the whole prefix and diverge: each takes a copy of
        // the partial tail page as it forks, the prefix's full pages stay
        // shared. One sibling decodes right at the fork.
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
fn truncated_fork_reads_only_its_prefix() {
    for_each_config(|storage, pp, dim, n_heads, ctx| {
        let pool = pool(storage, pp);
        let mut rng = Rng::new(13);
        let mut donor = pool.new_cache(1);
        append(&mut donor, &mut rng, 23, dim);
        // The fork views two rows fewer than its donor: it shares the
        // donor's whole pages and, where 21 ends mid-page, holds a copy of
        // that page's first rows. Donor rows past the fork point must not
        // leak into its lane, alone or walked together with the donor.
        let child = donor.fork_prefix(21);
        let alone = check_walk(&[(child.layer(0), 21)], n_heads, &mut rng, ctx);
        let both = [(donor.layer(0), 23), (child.layer(0), 21)];
        let together = check_walk(&both, n_heads, &mut rng, ctx);
        assert_eq!(together, leased_anda_pages(&pool), "{ctx}");
        let child_pages = pool.pages_for(21) as u64;
        assert_eq!(
            alone,
            together.min(child_pages),
            "{ctx}: the child decodes its own pages"
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

/// Each pass streams the page it reads next — a group's furthest-reaching
/// viewer's page at the next index — while it works on this one, and what
/// it streams must never show. Under every storage policy, on every leg, at pools of
/// one to four threads (jobs of four, two and one heads, so the batched
/// tiles run one to four rows): a one-page layer; a lane whose window
/// ends on its table's last page, a whole one, and one whose window ends
/// a page short of it; forks past a shared prefix, one private tail
/// partial and one running onto a second page; and a chunk span of ten
/// lanes over them, whose shared windows run whole tiles. Each lane is
/// walked alone too, with nothing but its own pages to stream.
#[test]
fn what_the_walk_streams_never_shows() {
    let (dim, n_heads) = (256, 4);
    for storage in [KvStorage::Fp32].into_iter().chain(POLICIES) {
        let pool = pool(storage, 16);
        let mut rng = Rng::new(18);
        let mut one_page = pool.new_cache(1);
        append(&mut one_page, &mut rng, 9, dim);
        let mut whole = pool.new_cache(1);
        append(&mut whole, &mut rng, 48, dim);
        let mut donor = pool.new_cache(1);
        append(&mut donor, &mut rng, 32, dim);
        let forks: Vec<KvCache> = [5, 21]
            .into_iter()
            .map(|tail| {
                let mut fork = donor.fork_prefix(32);
                append(&mut fork, &mut rng, tail, dim);
                fork
            })
            .collect();
        let mut views = vec![
            (one_page.layer(0), 9),
            (whole.layer(0), 48),
            (whole.layer(0), 31),
        ];
        views.extend(forks.iter().map(|fork| (fork.layer(0), fork.len())));
        views.extend((44..=53).map(|t| (forks[1].layer(0), t)));
        let queries: Vec<Vec<f32>> = views.iter().map(|_| floats(&mut rng, dim)).collect();
        let threads = [1, 2, 3, 4];
        let ctx = format!("{storage:?}, every lane");
        check_walk_on(&views, &queries, n_heads, &threads, &ctx);
        for (lane, (view, q)) in views.iter().zip(&queries).enumerate() {
            let ctx = format!("{storage:?}, lane {lane} alone");
            check_walk_on(&[*view], std::slice::from_ref(q), n_heads, &threads, &ctx);
        }
    }
}

/// On the AVX-512 leg at `M <= 8` an Anda page is read in place — the
/// products' register tile widens its bit planes as it loads them — and
/// at `M > 8`, and on every other leg, it is decoded into the walk's tile
/// first. Every route must keep every bit: `M` 1, 6 and 8 in place, 9, 11
/// and 16 through the tile, heads of 64 columns, of 32 (two to a group)
/// and of 128 (two groups, two k panels), each against the scalar
/// reference on every leg and at pools of one to four threads, lane by
/// lane and all at once: lanes whose last page holds one and fifteen of
/// its sixteen slots, on pages recycled from a retired stream, so that
/// their stale tails hold that stream's words; forks of a shared prefix
/// with private tails; chunk spans of eight lanes (read in place, one
/// eight-row tile per window), nine and 64 (their pages decoded once).
#[test]
fn anda_pages_read_in_place_keep_every_bit() {
    for (m, (dim, n_heads)) in [1, 6, 8, 9, 11, 16]
        .into_iter()
        .flat_map(|m| [(256, 4), (128, 4), (256, 2)].map(|shape| (m, shape)))
    {
        let ctx = format!("M {m} dim {dim} heads {n_heads}");
        let pool = pool(KvStorage::Anda { mantissa_bits: m }, 16);
        let mut rng = Rng::new(19);
        let mut retired = pool.new_cache(1);
        append(&mut retired, &mut rng, 64, dim);
        retired.reset();
        let mut one = pool.new_cache(1);
        append(&mut one, &mut rng, 33, dim);
        let mut fifteen = pool.new_cache(1);
        append(&mut fifteen, &mut rng, 47, dim);
        let mut donor = pool.new_cache(1);
        append(&mut donor, &mut rng, 48, dim);
        let forks: Vec<KvCache> = [3, 21]
            .into_iter()
            .map(|tail| {
                let mut fork = donor.fork_prefix(48);
                append(&mut fork, &mut rng, tail, dim);
                fork
            })
            .collect();
        let mut views = vec![(one.layer(0), 33), (fifteen.layer(0), 47)];
        views.extend(forks.iter().map(|fork| (fork.layer(0), fork.len())));
        views.push((donor.layer(0), 48));
        let mut chunked = pool.new_cache(1);
        append(&mut chunked, &mut rng, 320, dim);
        let mut check = |views: &[(&LayerKv, usize)], at: &str| {
            let queries: Vec<Vec<f32>> = views.iter().map(|_| floats(&mut rng, dim)).collect();
            check_walk_on(
                views,
                &queries,
                n_heads,
                &[1, 2, 3, 4],
                &format!("{ctx}, {at}"),
            );
        };
        for (lane, view) in views.iter().enumerate() {
            check(&[*view], &format!("lane {lane} alone"));
        }
        check(&views, "every lane");
        for lanes in [8, 9, 64] {
            let span: Vec<_> = (321 - lanes..=320).map(|t| (chunked.layer(0), t)).collect();
            check(&span, &format!("a {lanes}-lane chunk span"));
        }
    }
    // The scaled queries gave the V pass every class of row to run.
    TALLY.with_borrow(|tally| {
        assert!(tally.zero_blocks > 0 && tally.scattered_zeros > 0);
        assert!(
            tally.tiny_normals > 0 && tally.binades.len() >= 16,
            "{:?}",
            tally.binades
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
        for round in 0..2 {
            let before = thread_allocs();
            let mut lanes = [
                AttendLane {
                    layer: a.layer(0),
                    t: 40,
                    q: &q,
                    out: &mut out_a,
                },
                AttendLane {
                    layer: b.layer(0),
                    t: 33,
                    q: &q,
                    out: &mut out_b,
                },
            ];
            walk.attend(&mut lanes, n_heads, rayon_lite::serial());
            if round == 1 {
                assert_eq!(thread_allocs() - before, 0, "{storage:?}: warmed walk");
            }
        }

        // A chunk span: `reserve` sizes the blocks the walk stacks a
        // step's lanes' queries, score rows and head mixes in (the score
        // rows once the first walk knows the page size), so that a 64-lane
        // span then allocates nothing.
        let config = ModelConfig {
            name: "walk".into(),
            family: Family::Opt,
            d_model: dim,
            n_layers: 1,
            n_heads,
            d_ffn: dim,
            vocab: 1,
            max_seq: 80,
        };
        let mut c = pool.new_cache(1);
        append(&mut c, &mut rng, 80, dim);
        let mut walk = PageDecodeCache::new();
        walk.reserve(&config, 64, 80);
        let mut outs = vec![vec![0.0f32; dim]; 64];
        for span in [1, 64] {
            let mut lanes: Vec<AttendLane<'_>> = (17..=80)
                .zip(outs.iter_mut())
                .take(span)
                .map(|(t, out)| AttendLane {
                    layer: c.layer(0),
                    t,
                    q: &q,
                    out,
                })
                .collect();
            let before = thread_allocs();
            walk.attend(&mut lanes, n_heads, rayon_lite::serial());
            if span == 64 {
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
        out: &mut [0.0; 64],
    };
    PageDecodeCache::new().attend(&mut [lane], 4, rayon_lite::serial());
}

/// Page sizes below, at and off the tile's sixteen columns; head widths
/// below one strip, off the pack's four-`k` blocks and at the served 64.
const RAGGED_PAGE_SIZES: [usize; 4] = [1, 5, 8, 16];
const RAGGED_HEAD_WIDTHS: [usize; 4] = [4, 8, 24, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random lane mixes over one pool: a donor stream, forks of it cut at
    /// random depths (so one physical page is viewed by several tables,
    /// and a fork cut mid-page holds a copy of its tail, into which some
    /// forks then append), a spliced fork, and chunk spans whose causal
    /// windows end mid-page over a table with a part-filled tail.
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

/// Head counts off the batched tile's four rows and job splits that hand a
/// job an odd number of heads.
const SOLO_HEADS: [usize; 6] = [1, 2, 3, 4, 5, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Private streams only, so every page has exactly one viewer — a
    /// decode batch's shape — at head counts off the batched tile's four
    /// rows. The pages are recycled from a stream that filled every slot
    /// with ±inf and NaN (raw on `Fp32` pages, saturated by the others),
    /// and each stream ends in a partial tail page: slots past `used` must
    /// never reach a sum.
    #[test]
    fn lanes_viewing_their_pages_alone_match_the_reference(seed in any::<u64>()) {
        for storage in [KvStorage::Fp32, POLICIES[0], POLICIES[1], POLICIES[3]] {
            for pp in RAGGED_PAGE_SIZES {
                for dh in RAGGED_HEAD_WIDTHS {
                    let mut rng = Rng::new(seed ^ (pp * 131 + dh) as u64);
                    let n_heads = SOLO_HEADS[rng.below(SOLO_HEADS.len())];
                    let dim = dh * n_heads;
                    let ctx = format!("{storage:?} page {pp} dh {dh} heads {n_heads} seed {seed}");
                    let pool = pool(storage, pp);
                    // Full pages, then a tail of 1..pp rows (or one row on
                    // one-position pages).
                    let lens: Vec<usize> = (0..1 + rng.below(3))
                        .map(|_| pp * rng.below(80 / pp + 1) + 1 + rng.below(pp.max(2) - 1))
                        .collect();
                    let pages: usize = lens.iter().map(|&len| pool.pages_for(len)).sum();
                    let mut poisoned = pool.new_cache(1);
                    let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
                    for pos in 0..pages * pp {
                        let (k, v) = (vec![poison[pos % 3]; dim], vec![poison[(pos + 1) % 3]; dim]);
                        poisoned.append_row(0, &k, &v);
                    }
                    drop(poisoned);
                    let created = pool.pages_created();
                    let caches: Vec<KvCache> = lens
                        .iter()
                        .map(|&len| {
                            let mut cache = pool.new_cache(1);
                            append(&mut cache, &mut rng, len, dim);
                            cache
                        })
                        .collect();
                    prop_assert_eq!(pool.pages_created(), created, "{} recycles", &ctx);
                    let views: Vec<_> = caches.iter().map(|c| (c.layer(0), c.len())).collect();
                    let queries: Vec<Vec<f32>> = views.iter().map(|_| floats(&mut rng, dim)).collect();
                    let decoded = check_walk_on(&views, &queries, n_heads, &[1, 2, 3], &ctx);
                    prop_assert_eq!(decoded, leased_anda_pages(&pool), "{}", &ctx);
                }
            }
        }
    }
}

#[test]
fn viewers_past_two_full_tiles_match_the_reference_on_poisoned_pages() {
    // One walk of 69 lanes: a 64-lane chunk span whose windows end
    // mid-page, four `fork_prefix` siblings of its cache (sharing its
    // whole pages, each with a copy of the partial tail, some appended to)
    // and one private decode lane. A shared page so has up to 68 viewers —
    // products of several full shared tiles and a batched remainder, at
    // one to eight heads a job — and its viewers' windows end at every
    // row of it. Every page was first filled with ±inf and NaN, so a
    // slot past a window or a fill that reached a sum would show.
    for storage in [KvStorage::Fp32, POLICIES[0], POLICIES[1], POLICIES[3]] {
        for pp in [5, 16] {
            for (dim, n_heads) in SHAPES {
                let ctx = format!("{storage:?} page {pp} dim {dim} heads {n_heads}");
                let pool = pool(storage, pp);
                let mut rng = Rng::new(20);
                let (at, chunk) = (37, 64);
                let mut poisoned = pool.new_cache(1);
                let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
                for pos in 0..2 * pool.pages_for(at + chunk + 40) * pp {
                    let (k, v) = (vec![poison[pos % 3]; dim], vec![poison[(pos + 1) % 3]; dim]);
                    poisoned.append_row(0, &k, &v);
                }
                drop(poisoned);
                let created = pool.pages_created();
                let mut chunked = pool.new_cache(1);
                append(&mut chunked, &mut rng, at + chunk, dim);
                let mut siblings: Vec<KvCache> =
                    (0..4).map(|_| chunked.fork_prefix(at + chunk)).collect();
                for (sibling, extra) in siblings.iter_mut().zip([0usize, 1, 3, 9]) {
                    append(sibling, &mut rng, extra, dim);
                }
                let mut private = pool.new_cache(1);
                append(&mut private, &mut rng, 29, dim);
                assert_eq!(pool.pages_created(), created, "{ctx}: recycles");

                let mut views: Vec<_> = (at + 1..=at + chunk)
                    .map(|t| (chunked.layer(0), t))
                    .collect();
                views.extend(siblings.iter().map(|c| (c.layer(0), c.len())));
                views.push((private.layer(0), private.len()));
                let queries: Vec<Vec<f32>> = views.iter().map(|_| floats(&mut rng, dim)).collect();
                let decoded = check_walk_on(&views, &queries, n_heads, &[1, 2, 3], &ctx);
                assert_eq!(decoded, leased_anda_pages(&pool), "{ctx}");
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
    // Inside the window nothing is skipped on an `f32` page either: a
    // softmax weight that underflowed to exactly 0 against an infinite V
    // element is a NaN in the reference's `out += p * v`, so it is one in
    // the walk — also where the page's every weight is `+0.0` (one
    // position a page), which the V pass skips on the pages that hold
    // finite values only.
    let (dim, n_heads) = (8, 1);
    let key = |x: f32| [vec![x], vec![0.0; dim - 1]].concat();
    let mut v1 = vec![1.0; dim];
    (v1[0], v1[3]) = (f32::INFINITY, f32::NEG_INFINITY);
    for pp in [4, 1] {
        let cache = fp32_rows(&[(key(20.0), vec![0.5; dim]), (key(-20.0), v1.clone())], pp);
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
            &format!("zero weight, page {pp}"),
        );
    }
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
