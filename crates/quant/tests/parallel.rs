//! Cross-thread-count bit-exactness suite for the parallel FP-INT GeMMs.
//!
//! `gemm_anda` shards output rows across the pool with per-shard
//! conversion buffers; `gemm_fake_quant` rides on the parallel
//! `Matrix::matmul`.
//! In both cases every output element must be bit-identical
//! (`f32::to_bits`) to the serial kernel at every thread count.

use anda_fp::simd::available_legs;
use anda_quant::gemm::{gemm_anda, gemm_anda_into, gemm_anda_into_pool, gemm_fake_quant};
use anda_quant::{ActivationCodec, IntWeightMatrix, WeightQuantConfig};
use anda_tensor::{Matrix, Rng};
use proptest::prelude::*;
use rayon_lite::ThreadPool;

const THREADS: [usize; 4] = [1, 2, 3, 7];

/// Adversarial shapes `(m, k, n)`: single row, single column, a trailing
/// 32-lane remainder group (k = 96), k at the weight-group boundary, and
/// row counts not divisible by any tested thread count.
const SHAPES: [(usize, usize, usize); 6] = [
    (1, 64, 5),
    (5, 128, 1),
    (2, 96, 3),
    (7, 256, 4),
    (13, 64, 2),
    (3, 320, 9),
];

fn random_case(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, IntWeightMatrix) {
    let mut rng = Rng::new(seed);
    let mut x = Matrix::zeros(m, k);
    rng.fill_normal(x.as_mut_slice(), 1.0);
    // Sprinkle exact zeros, which the dense kernels multiply through.
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        if i % 13 == 0 {
            *v = 0.0;
        }
    }
    let mut w = Matrix::zeros(k, n);
    rng.fill_normal(w.as_mut_slice(), 0.05);
    let wq = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 64));
    (x, wq)
}

/// `a · b` as the naive loop: element `(i, j)` is the ascending-`k` sum
/// of `a[i][k] · b[k][j]` from `+0.0`, multiply then add.
fn naive(a: &Matrix, b: &Matrix) -> Matrix {
    // Column `j` of `b` is row `j` of its transpose, read in `k` order.
    let bt = b.transposed();
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for (&x, &y) in a.row(i).iter().zip(bt.row(j)) {
                acc += x * y;
            }
            out[(i, j)] = acc;
        }
    }
    out
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

/// A W4 weight held as INT4 codes ([`IntWeightMatrix::pack`]), which the
/// register tile dequantizes as it loads them, multiplies as the `f32`
/// matrix [`IntWeightMatrix::dequantize`] makes, bit for bit: on every leg
/// (the scalar one dequantizes a row, then runs the packed walk) and at
/// pools of 1, 2 and 4 threads, against the naive ascending-`k` loop over
/// that matrix.
/// Rows from one to seventeen cross the four- and eight-row tiles and the
/// first row tile's panel fill (a tile follows it), 64 is a prefill chunk;
/// `k` is odd, below, on and across a group and a panel, 1024 four panels
/// deep; `n` one column, ragged strips and strip pairs, and a projection's
/// width; the group sizes divide the panel depth or do not (96).
#[test]
fn an_int4_weight_multiplies_as_its_dequantisation() {
    let pools = [1, 2, 4].map(ThreadPool::new);
    for group in [64, 128, 96] {
        for k in [1usize, 2, 63, 64, 130, 256, 257, 1024] {
            for n in [1usize, 15, 17, 33, 768] {
                let mut rng = Rng::new((group * k * n) as u64);
                let mut w = Matrix::zeros(k, n);
                rng.fill_normal(w.as_mut_slice(), 0.05);
                let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, group));
                let (dequantized, packed) = (q.dequantize(), q.pack());
                let at = format!("{k}x{n} in groups of {group}");
                assert_bits_eq(&packed.to_matrix(), &dequantized, &at);
                for m in (1..=17).chain([64]) {
                    let mut x = Matrix::zeros(m, k);
                    rng.fill_normal(x.as_mut_slice(), 1.0);
                    x.map_inplace(|v| if v < -1.0 { 0.0 } else { v });
                    let oracle = naive(&x, &dequantized);
                    let check = |run: &dyn Fn(&mut Matrix), on: &str| {
                        let mut out = Matrix::zeros(m, n);
                        out.as_mut_slice().fill(f32::NAN);
                        run(&mut out);
                        assert_bits_eq(&out, &oracle, &format!("{m} rows · {at} {on}"));
                    };
                    for leg in available_legs() {
                        let run = |out: &mut Matrix| {
                            x.matmul_packed_into_serial_with_leg(&packed, out, leg)
                        };
                        check(&run, &format!("leg {}", leg.name()));
                    }
                    for pool in &pools {
                        let run = |out: &mut Matrix| x.matmul_packed_into_pool(&packed, out, pool);
                        check(&run, &format!("@ {}t", pool.threads()));
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_anda_pool_is_bit_identical_to_serial_on_adversarial_shapes() {
    for (m, k, n) in SHAPES {
        let (x, w) = random_case(m, k, n, 100 + (m * k * n) as u64);
        for m_bits in [4u32, 8, 16] {
            // gemm_anda on a 1×N input never parallelizes, so this is the
            // serial reference whatever ANDA_THREADS says; for m > 1 the
            // auto path must match it too (checked below via pool(1)).
            let serial = {
                let mut out = Matrix::zeros(m, n);
                gemm_anda_into_pool(&x, &w, m_bits, &mut out, &ThreadPool::new(1));
                out
            };
            assert_bits_eq(
                &gemm_anda(&x, &w, m_bits),
                &serial,
                &format!("gemm_anda auto {m}x{k}x{n} M{m_bits}"),
            );
            for threads in THREADS {
                let pool = ThreadPool::new(threads);
                let mut par = Matrix::zeros(m, n);
                par.as_mut_slice().fill(f32::NAN);
                gemm_anda_into_pool(&x, &w, m_bits, &mut par, &pool);
                assert_bits_eq(
                    &par,
                    &serial,
                    &format!("gemm_anda {m}x{k}x{n} M{m_bits} @ {threads}t"),
                );
            }
        }
    }
}

#[test]
fn gemm_into_variants_match_allocating_paths_at_every_thread_count() {
    // The fake-quant path is the codec, then `matmul` on the global
    // pool: the same product sharded over every pool width must stay
    // bit-identical to it under every codec.
    for (m, k, n) in SHAPES {
        let (x, w) = random_case(m, k, n, 200 + (m + k + n) as u64);
        let dequant = w.dequantize();
        for codec in [ActivationCodec::Exact, ActivationCodec::anda(8)] {
            let want = gemm_fake_quant(&x, &w, &codec);
            let act = codec.apply_matrix(&x);
            for threads in THREADS {
                let mut out = Matrix::zeros(m, n);
                act.matmul_into_pool(&dequant, &mut out, &ThreadPool::new(threads));
                assert_bits_eq(&out, &want, &format!("{codec:?} {m}x{k}x{n} @ {threads}t"));
            }
        }
    }
}

#[test]
fn gemm_anda_into_matches_gemm_anda() {
    let (x, w) = random_case(5, 256, 6, 300);
    let mut out = Matrix::zeros(5, 6);
    out.as_mut_slice().fill(f32::NAN);
    gemm_anda_into(&x, &w, 8, &mut out);
    assert_bits_eq(&out, &gemm_anda(&x, &w, 8), "gemm_anda_into 5x256x6");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes (k snapped to the 64-lane group), random mantissa
    /// lengths: parallel gemm_anda is bit-identical to serial.
    #[test]
    fn random_gemm_anda_bit_identical(
        m in 1usize..10,
        k64 in 1usize..6,
        n in 1usize..8,
        m_bits in 3u32..=16,
        seed in any::<u64>(),
    ) {
        let (x, w) = random_case(m, k64 * 64, n, seed);
        let mut serial = Matrix::zeros(m, n);
        gemm_anda_into_pool(&x, &w, m_bits, &mut serial, &ThreadPool::new(1));
        for threads in [2usize, 3, 7] {
            let pool = ThreadPool::new(threads);
            let mut par = Matrix::zeros(m, n);
            gemm_anda_into_pool(&x, &w, m_bits, &mut par, &pool);
            assert_bits_eq(&par, &serial, &format!("random anda {m}x{}x{n} M{m_bits} @ {threads}t", k64 * 64));
        }
    }
}
