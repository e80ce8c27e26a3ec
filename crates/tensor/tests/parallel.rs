//! Cross-thread-count bit-exactness suite for the parallel GeMM kernels.
//!
//! The threading contract (see the repo README and vendor/rayon-lite):
//! sharding the output — by row ranges or by column strips — across any
//! number of threads must leave every `f32` output bit identical to the
//! serial kernel, because each output element keeps its own accumulator
//! walked over k in a fixed order.
//! These tests compare raw bits (`f32::to_bits`), not `==`, so even a
//! `-0.0` vs `+0.0` divergence fails.

use anda_tensor::{Matrix, PackedMatrix};
use proptest::prelude::*;
use rayon_lite::ThreadPool;

/// Thread counts exercised everywhere: serial, even, odd, and more
/// threads than most test shapes have rows.
const THREADS: [usize; 4] = [1, 2, 3, 7];

/// Adversarial shapes `(m, k, n)`: single row, single column, single
/// element, sizes around the i-tile (32) and k-tile (256) boundaries, and
/// sizes not divisible by any tested thread count; then the LM-head shape,
/// whole strips under one to three rows, a second k panel accumulating
/// onto a whole strip (`k > 256`), small odd `k`, `k = 0`, and a tile of
/// seven rows over a ragged strip across a second k panel.
const SHAPES: [(usize, usize, usize); 18] = [
    (1, 64, 5),
    (5, 64, 1),
    (1, 1, 1),
    (3, 300, 7),
    (33, 17, 9),
    (32, 256, 4),
    (31, 257, 13),
    (7, 7, 7),
    (2, 513, 3),
    (64, 5, 29),
    (8, 256, 512),
    (1, 300, 48),
    (5, 513, 40),
    (3, 8, 16),
    (2, 7, 33),
    (2, 3, 16),
    (4, 0, 16),
    (7, 300, 40),
];

fn deterministic(rows: usize, cols: usize, seed: u32) -> Matrix {
    // Mix of magnitudes, signs, and exact zeros (which no kernel skips).
    let data = (0..rows * cols)
        .map(|i| {
            let x = ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) as f32;
            let v = (x / 1e6).sin() * 10.0f32.powi((i % 7) as i32 - 3);
            if i % 11 == 0 {
                0.0
            } else if i % 5 == 0 {
                -v
            } else {
                v
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: element {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn matmul_pool_is_bit_identical_to_serial_on_adversarial_shapes() {
    for (m, k, n) in SHAPES {
        let a = deterministic(m, k, 1);
        let b = deterministic(k, n, 2);
        let mut serial = Matrix::zeros(m, n);
        a.matmul_into_on(&b, &mut serial, rayon_lite::serial());
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Matrix::zeros(m, n);
            par.as_mut_slice().fill(f32::NAN); // stale contents must be overwritten
            a.matmul_into_pool(&b, &mut par, &pool);
            assert_bits_eq(&par, &serial, &format!("matmul {m}x{k}x{n} @ {threads}t"));
        }
    }
}

/// A product by a transpose — the packed product over
/// `PackedMatrix::pack_transposed` on every leg, and
/// `matmul_transposed_into_pool` on every pool — against the per-element
/// dot, on `rhs` held `n × k`.
#[test]
fn matmul_transposed_pool_is_bit_identical_to_serial_on_adversarial_shapes() {
    for (m, k, n) in SHAPES {
        let a = deterministic(m, k, 3);
        let b = deterministic(n, k, 4);
        transposed_products_match_the_dots(&a, &b, &format!("{m}x{k}x{n}"));
    }
}

/// `a · btᵀ` on every leg (packed over `bt`'s transposed pack, stale
/// output overwritten) and through `matmul_transposed_into_pool` on every
/// pool, against [`per_element_dots`].
fn transposed_products_match_the_dots(a: &Matrix, bt: &Matrix, at: &str) {
    let (m, n) = (a.rows(), bt.rows());
    let oracle = per_element_dots(a, bt);
    let packed = PackedMatrix::pack_transposed(bt);
    for leg in anda_fp::simd::available_legs() {
        let mut out = Matrix::zeros(m, n);
        out.as_mut_slice().fill(f32::NAN);
        a.matmul_packed_into_serial_with_leg(&packed, &mut out, leg);
        assert_bits_eq(
            &out,
            &oracle,
            &format!("transposed {at} leg {}", leg.name()),
        );
    }
    for threads in THREADS {
        let pool = ThreadPool::new(threads);
        let mut out = Matrix::zeros(m, n);
        out.as_mut_slice().fill(f32::NAN);
        a.matmul_transposed_into_pool(bt, &mut out, &pool);
        assert_bits_eq(&out, &oracle, &format!("transposed {at} @ {threads}t"));
    }
}

#[test]
fn auto_dispatch_matches_serial_above_and_below_the_threshold() {
    // 160×160×160 = 4.1M mul-adds clears the parallel threshold;
    // 8×8×8 stays under it. Either way the public entry point must
    // equal the serial kernel bit-for-bit.
    for (m, k, n) in [(160, 160, 160), (8, 8, 8)] {
        let a = deterministic(m, k, 5);
        let b = deterministic(k, n, 6);
        let mut auto = Matrix::zeros(m, n);
        a.matmul_into_on(&b, &mut auto, rayon_lite::global());
        let mut serial = Matrix::zeros(m, n);
        a.matmul_into_on(&b, &mut serial, rayon_lite::serial());
        assert_bits_eq(&auto, &serial, &format!("auto matmul {m}x{k}x{n}"));

        // The LM head's product: packed over a table held `n × k`.
        let bt = PackedMatrix::pack_transposed(&deterministic(n, k, 7));
        let mut auto_t = Matrix::zeros(m, n);
        a.matmul_packed_into_on(&bt, &mut auto_t, rayon_lite::global());
        let mut serial_t = Matrix::zeros(m, n);
        a.matmul_packed_into_on(&bt, &mut serial_t, rayon_lite::serial());
        assert_bits_eq(&auto_t, &serial_t, &format!("auto packed_t {m}x{k}x{n}"));
    }
}

#[test]
fn degenerate_zero_dimension_shapes_survive_every_thread_count() {
    for threads in THREADS {
        let pool = ThreadPool::new(threads);
        let a = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(2, 0);
        a.matmul_into_pool(&Matrix::zeros(3, 0), &mut out, &pool);
        let mut out = Matrix::zeros(0, 4);
        Matrix::zeros(0, 3).matmul_into_pool(&Matrix::zeros(3, 4), &mut out, &pool);
        let mut out = Matrix::zeros(2, 0);
        a.matmul_transposed_into_pool(&Matrix::zeros(0, 3), &mut out, &pool);
        let empty_k = Matrix::zeros(2, 0);
        let mut out = Matrix::zeros(2, 4);
        empty_k.matmul_into_pool(&Matrix::zeros(0, 4), &mut out, &pool);
        assert_eq!(out, Matrix::zeros(2, 4), "threads {threads}");
        out.as_mut_slice().fill(1.0);
        let packed = PackedMatrix::pack(&Matrix::zeros(0, 4));
        empty_k.matmul_packed_into_pool(&packed, &mut out, &pool);
        assert_eq!(out, Matrix::zeros(2, 4), "packed, threads {threads}");
        let mut out = Matrix::zeros(2, 0);
        a.matmul_packed_into_pool(&PackedMatrix::pack(&Matrix::zeros(3, 0)), &mut out, &pool);
    }
}

/// The packed product — the walk every projection of a served step runs —
/// against the naive ascending-`k` dot on the unpacked matrix, on every
/// leg and every pool width, and the row-major entry (a pack per call)
/// and the products by a transpose against the same dot: every
/// tile height from one row to eight (so every tile of the four-row and
/// the eight-row legs) and nine, row counts
/// on both sides of the thread counts' tile multiples and of 32 and 64 (so
/// row sharding and column sharding both run: two threads split the
/// columns of every product under 16 rows on AVX-512, under 8 on AVX2),
/// widths of one
/// strip and of strip pairs with no column, one column, fifteen or
/// sixteen past them (an odd last strip, a ragged pair, a ragged single
/// strip — the zero-padded strip read in place), and `k` below the
/// prefetch distance, around one 256-deep panel and four panels deep. The
/// lhs is ReLU-sparse, as the down projection's is.
#[test]
fn packed_matmul_matches_the_scalar_oracle_on_every_leg_and_pool() {
    let pools: Vec<ThreadPool> = THREADS.iter().map(|&t| ThreadPool::new(t)).collect();
    for k in [1usize, 7, 255, 256, 257, 1024] {
        for n in [15usize, 16, 17, 31, 32, 33, 47, 48, 49, 64, 65, 80, 100] {
            let b = deterministic(k, n, 8);
            let bt = b.transposed();
            let packed = PackedMatrix::pack(&b);
            let packed_t = PackedMatrix::pack_transposed(&bt);
            assert_bits_eq(&packed.to_matrix(), &b, &format!("pack round trip {k}x{n}"));
            for m in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 32, 33, 64, 65] {
                let mut a = deterministic(m, k, 9);
                a.map_inplace(|x| x.max(0.0));
                let oracle = per_element_dots(&a, &bt);
                // Every layout's product into `out`, on `leg` or `pool`,
                // against its oracle; stale contents must be overwritten.
                let check = |at: &str, run: &dyn Fn(&mut Matrix), oracle: &Matrix| {
                    let mut out = Matrix::zeros(m, n);
                    out.as_mut_slice().fill(f32::NAN);
                    run(&mut out);
                    assert_bits_eq(&out, oracle, &format!("{at} {m}x{k}x{n}"));
                };
                for leg in anda_fp::simd::available_legs() {
                    let name = leg.name();
                    let run =
                        |out: &mut Matrix| a.matmul_packed_into_serial_with_leg(&packed, out, leg);
                    check(&format!("packed leg {name}"), &run, &oracle);
                    let run = |out: &mut Matrix| {
                        a.matmul_packed_into_serial_with_leg(&packed_t, out, leg)
                    };
                    check(&format!("transposed leg {name}"), &run, &oracle);
                }
                for (threads, pool) in THREADS.iter().zip(&pools) {
                    let run = |out: &mut Matrix| a.matmul_packed_into_pool(&packed, out, pool);
                    check(&format!("packed @ {threads}t"), &run, &oracle);
                    let run = |out: &mut Matrix| a.matmul_into_pool(&b, out, pool);
                    check(&format!("row-major @ {threads}t"), &run, &oracle);
                    let run = |out: &mut Matrix| a.matmul_transposed_into_pool(&bt, out, pool);
                    check(&format!("transposed @ {threads}t"), &run, &oracle);
                }
            }
        }
    }
}

/// A hostile `m × k` lhs and finite `k × n` rhs for the tiled kernel,
/// drawn from `seed`. Row `i` of the lhs is one of: dense; zero-heavy
/// (nine in ten exact zeros of either sign — the oracle and the
/// tiles multiply them); subnormal-scaled; or *cancelling* — `+x` and
/// `-x` against two identical rhs rows and zeros elsewhere, so the exact
/// result is `+0.0` in every column. The rhs mixes magnitudes, both
/// zeros and subnormals.
fn hostile_operands(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut value = move || {
        let r = next();
        let v = ((r >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 10.0f32.powi((r % 7) as i32 - 3);
        match r % 23 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1 + (r >> 50) as u32),
            3 => -f32::MIN_POSITIVE * 0.5,
            _ => v,
        }
    };
    let mut b = Matrix::zeros(k, n);
    b.as_mut_slice().iter_mut().for_each(|x| *x = value());
    // Rows 0 and k-1 of the rhs are identical, for the cancelling rows.
    let first: Vec<f32> = b.row(0).to_vec();
    b.row_mut(k - 1).copy_from_slice(&first);
    let mut a = Matrix::zeros(m, k);
    for i in 0..m {
        let kind = (seed >> (i % 60)) as usize % 4 + i % 2;
        for (kk, x) in a.row_mut(i).iter_mut().enumerate() {
            *x = match kind {
                0 => value(),
                1 | 4 => match value() {
                    v if kk % 10 == 3 => v,
                    v if v < 0.0 => -0.0,
                    _ => 0.0,
                },
                2 => value() * 1e-38,
                _ => 0.0,
            };
        }
        if kind == 3 && k > 1 {
            a.row_mut(i)[0] = 1.75;
            a.row_mut(i)[k - 1] = -1.75;
        }
    }
    (a, b)
}

/// The oracle of every product: element `(i, j)` is the plain
/// ascending-`k` dot of `a`'s row `i` and `bt`'s row `j` — `a · btᵀ`, so
/// over a `k × n` `rhs` `b` it is called with `b.transposed()`.
fn per_element_dots(a: &Matrix, bt: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), bt.rows());
    for i in 0..a.rows() {
        for j in 0..bt.rows() {
            let mut acc = 0.0f32;
            for (&x, &y) in a.row(i).iter().zip(bt.row(j)) {
                acc += x * y;
            }
            out[(i, j)] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The register-tiled GEMM against the naive ascending-`k` dot: every
    /// available leg of the serial kernel and every pool width, over row
    /// counts on both sides of the tile height and of `4 × threads` (so
    /// tile interiors, the partial last tile, one- to three-row tiles, row
    /// sharding and column-strip sharding all run), `k` across the
    /// 256-deep panel boundary, and column counts with every kind of strip
    /// tail — with `rhs` packed once (read in place) and through the
    /// row-major entry (a pack per call). The same operands held `n × k`
    /// and packed transposed, as the tied embedding is, must equal the dot
    /// too. Every third `rhs` column holds an infinity or a NaN: nothing
    /// skips a zero, the scalar leg included, so every product equals the
    /// dot on every input — a zero `lhs` row against an infinity is a NaN
    /// in both.
    #[test]
    fn tiled_matmul_matches_the_scalar_oracle(
        m in 1usize..=70,
        k in 1usize..=300,
        strips in 0usize..=6,
        tail in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = (16 * strips + [0, 1, 8, 15][tail]).max(1);
        let (a, mut b) = hostile_operands(m, k, n, seed);
        // One non-finite element in every third column; the columns
        // between stay finite.
        for j in (seed as usize % 3..n).step_by(3) {
            let at = (seed >> 8) as usize % k;
            b[((at + j) % k, j)] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j / 3 % 3];
        }
        let oracle = per_element_dots(&a, &b.transposed());
        let packed = PackedMatrix::pack(&b);
        for leg in anda_fp::simd::available_legs() {
            let mut out = Matrix::zeros(m, n);
            out.as_mut_slice().fill(f32::NAN);
            a.matmul_packed_into_serial_with_leg(&packed, &mut out, leg);
            assert_bits_eq(&out, &oracle, &format!("packed {m}x{k}x{n} leg {}", leg.name()));
        }
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            let mut out = Matrix::zeros(m, n);
            out.as_mut_slice().fill(f32::NAN);
            a.matmul_into_pool(&b, &mut out, &pool);
            assert_bits_eq(&out, &oracle, &format!("{m}x{k}x{n} @ {threads}t"));
            out.as_mut_slice().fill(f32::NAN);
            a.matmul_packed_into_pool(&packed, &mut out, &pool);
            assert_bits_eq(&out, &oracle, &format!("packed {m}x{k}x{n} @ {threads}t"));
        }
        transposed_products_match_the_dots(&a, &b.transposed(), &format!("{m}x{k}x{n}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and values: the pool kernels are bit-identical to
    /// the serial kernels at every thread count.
    #[test]
    fn random_matmul_bit_identical(
        m in 1usize..24,
        k in 1usize..80,
        n in 1usize..24,
        seed in any::<u32>(),
    ) {
        let a = deterministic(m, k, seed);
        let b = deterministic(k, n, seed.wrapping_add(1));
        let mut serial = Matrix::zeros(m, n);
        a.matmul_into_on(&b, &mut serial, rayon_lite::serial());
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Matrix::zeros(m, n);
            a.matmul_into_pool(&b, &mut par, &pool);
            assert_bits_eq(&par, &serial, &format!("random {m}x{k}x{n} @ {threads}t"));
        }
    }

    /// Same property for a product by a transpose, against the
    /// per-element dot.
    #[test]
    fn random_matmul_transposed_bit_identical(
        m in 1usize..24,
        k in 1usize..80,
        n in 1usize..24,
        seed in any::<u32>(),
    ) {
        let a = deterministic(m, k, seed);
        let b = deterministic(n, k, seed.wrapping_add(2));
        transposed_products_match_the_dots(&a, &b, &format!("random {m}x{k}x{n}"));
    }
}
