//! Cross-thread-count bit-exactness suite for the parallel FP-INT GeMMs.
//!
//! `gemm_anda` shards output rows across the pool with per-shard
//! conversion buffers; `gemm_fake_quant` rides on the parallel
//! `Matrix::matmul`.
//! In both cases every output element must be bit-identical
//! (`f32::to_bits`) to the serial kernel at every thread count.

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
    // Sprinkle exact zeros: the dense kernels skip a == 0 terms.
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
