//! Cross-thread-count bit-exactness suite for the parallel GeMM kernels.
//!
//! The threading contract (see the repo README and vendor/rayon-lite):
//! sharding the output — by row ranges or by column strips — across any
//! number of threads must leave every `f32` output bit identical to the
//! serial kernel, because each output element keeps its own accumulator
//! walked over k in a fixed order.
//! These tests compare raw bits (`f32::to_bits`), not `==`, so even a
//! `-0.0` vs `+0.0` divergence fails.

use anda_tensor::Matrix;
use proptest::prelude::*;
use rayon_lite::ThreadPool;

/// Thread counts exercised everywhere: serial, even, odd, and more
/// threads than most test shapes have rows.
const THREADS: [usize; 4] = [1, 2, 3, 7];

/// Adversarial shapes `(m, k, n)`: single row, single column, single
/// element, sizes around the i-tile (32) and k-tile (256) boundaries, and
/// sizes not divisible by any tested thread count; then the LM-head shape
/// and what the transposed pack adds — whole strips under one to three
/// rows, a second k panel accumulating onto a whole strip (`k > 256`), a
/// `k` of whole 4-wide transpose blocks, off them and below one, and
/// `k = 0`.
const SHAPES: [(usize, usize, usize); 17] = [
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
];

fn deterministic(rows: usize, cols: usize, seed: u32) -> Matrix {
    // Mix of magnitudes, signs, and exact zeros (the kernel skips a == 0).
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
        a.matmul_into_on(&b, &mut serial, None);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Matrix::zeros(m, n);
            par.as_mut_slice().fill(f32::NAN); // stale contents must be overwritten
            a.matmul_into_pool(&b, &mut par, &pool);
            assert_bits_eq(&par, &serial, &format!("matmul {m}x{k}x{n} @ {threads}t"));
        }
    }
}

#[test]
fn matmul_transposed_pool_is_bit_identical_to_serial_on_adversarial_shapes() {
    for (m, k, n) in SHAPES {
        let a = deterministic(m, k, 3);
        let b = deterministic(n, k, 4);
        let mut serial = Matrix::zeros(m, n);
        a.matmul_transposed_into_on(&b, &mut serial, None);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Matrix::zeros(m, n);
            par.as_mut_slice().fill(f32::NAN);
            a.matmul_transposed_into_pool(&b, &mut par, &pool);
            assert_bits_eq(
                &par,
                &serial,
                &format!("matmul_transposed {m}x{k}x{n} @ {threads}t"),
            );
        }
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
        a.matmul_into(&b, &mut auto);
        let mut serial = Matrix::zeros(m, n);
        a.matmul_into_on(&b, &mut serial, None);
        assert_bits_eq(&auto, &serial, &format!("auto matmul {m}x{k}x{n}"));

        let bt = deterministic(n, k, 7);
        let mut auto_t = Matrix::zeros(m, n);
        a.matmul_transposed_into(&bt, &mut auto_t);
        let mut serial_t = Matrix::zeros(m, n);
        a.matmul_transposed_into_on(&bt, &mut serial_t, None);
        assert_bits_eq(&auto_t, &serial_t, &format!("auto matmul_t {m}x{k}x{n}"));
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
    }
}

/// A hostile `m × k` lhs and finite `k × n` rhs for the tiled kernel,
/// drawn from `seed`. Row `i` of the lhs is one of: dense; zero-heavy
/// (nine in ten exact zeros of either sign — the oracle skips them, the
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

/// The oracle of the transposed product: element `(i, j)` is the plain
/// ascending-`k` dot of `a`'s row `i` and `bt`'s row `j`.
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

    /// The register-tiled GEMM against the scalar oracle: every
    /// available leg of the serial kernel and every pool width, over row
    /// counts on both sides of the tile height, of `4 × threads` and of
    /// the 32 rows where the panel order switches (so tile interiors, the
    /// partial last tile, the sub-tile axpy walk, the shallow and the
    /// deep panel walk, row sharding and column-strip sharding all run),
    /// `k` across the 8- and 256-deep panel boundaries, and column counts
    /// with every kind of strip tail, wide enough for the shallow walk's
    /// prefetch to stay in the row as well as to wrap into the next
    /// panel.
    ///
    /// The transposed product takes the same operands (`rhs` held
    /// `n × k`) with an infinity or a NaN in every third `rhs` row: it
    /// skips no zero, so it must equal the per-element dot on every
    /// input — a zero `lhs` row against an infinity is NaN in both —
    /// where the row-major contract stops at finite `rhs`.
    #[test]
    fn tiled_matmul_matches_the_scalar_oracle(
        m in 1usize..=70,
        k in 1usize..=300,
        strips in 0usize..=6,
        tail in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = (16 * strips + [0, 1, 8, 15][tail]).max(1);
        let (a, b) = hostile_operands(m, k, n, seed);
        let mut oracle = Matrix::zeros(m, n);
        a.matmul_into_serial_with_leg(&b, &mut oracle, anda_fp::SimdLeg::Scalar);
        for leg in anda_fp::simd::available_legs() {
            let mut out = Matrix::zeros(m, n);
            out.as_mut_slice().fill(f32::NAN);
            a.matmul_into_serial_with_leg(&b, &mut out, leg);
            assert_bits_eq(&out, &oracle, &format!("{m}x{k}x{n} leg {}", leg.name()));
        }
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            let mut out = Matrix::zeros(m, n);
            out.as_mut_slice().fill(f32::NAN);
            a.matmul_into_pool(&b, &mut out, &pool);
            assert_bits_eq(&out, &oracle, &format!("{m}x{k}x{n} @ {threads}t"));
        }

        // One non-finite element in every third `rhs` row (output column);
        // the columns between stay finite and are compared bit for bit.
        let mut bt = b.transposed();
        for j in (seed as usize % 3..n).step_by(3) {
            let at = (seed >> 8) as usize % k;
            bt.row_mut(j)[(at + j) % k] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j / 3 % 3];
        }
        let oracle_t = per_element_dots(&a, &bt);
        for leg in anda_fp::simd::available_legs() {
            let mut out = Matrix::zeros(m, n);
            out.as_mut_slice().fill(1.0);
            a.matmul_transposed_into_serial_with_leg(&bt, &mut out, leg);
            assert_bits_eq(&out, &oracle_t, &format!("t {m}x{k}x{n} leg {}", leg.name()));
        }
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            let mut out = Matrix::zeros(m, n);
            out.as_mut_slice().fill(1.0);
            a.matmul_transposed_into_pool(&bt, &mut out, &pool);
            assert_bits_eq(&out, &oracle_t, &format!("t {m}x{k}x{n} @ {threads}t"));
        }
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
        a.matmul_into_on(&b, &mut serial, None);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Matrix::zeros(m, n);
            a.matmul_into_pool(&b, &mut par, &pool);
            assert_bits_eq(&par, &serial, &format!("random {m}x{k}x{n} @ {threads}t"));
        }
    }

    /// Same property for the transposed kernel.
    #[test]
    fn random_matmul_transposed_bit_identical(
        m in 1usize..24,
        k in 1usize..80,
        n in 1usize..24,
        seed in any::<u32>(),
    ) {
        let a = deterministic(m, k, seed);
        let b = deterministic(n, k, seed.wrapping_add(2));
        let mut serial = Matrix::zeros(m, n);
        a.matmul_transposed_into_on(&b, &mut serial, None);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Matrix::zeros(m, n);
            a.matmul_transposed_into_pool(&b, &mut par, &pool);
            assert_bits_eq(&par, &serial, &format!("random_t {m}x{k}x{n} @ {threads}t"));
        }
    }
}
