//! FP-INT GeMM operators (paper Fig. 8).
//!
//! Both operators compute `x(m×k) · W(k×n)` where `W` is an
//! [`IntWeightMatrix`]. They differ in how the FP activations are treated:
//!
//! - [`gemm_fake_quant`] — activations passed through any codec
//!   (quantize→dequantize), then `f32` math against dequantized weights.
//!   [`ActivationCodec::Exact`] is the accuracy ceiling of the W4A16 model
//!   (the Omniquant baseline), [`ActivationCodec::Fp16`] the GPU FP-FP
//!   path of Fig. 8(a); for the Anda codec it is numerically equivalent
//!   to the integer path and is what the accuracy sweeps run.
//! - [`gemm_anda`] — the Anda path of Fig. 8(d): activations converted to
//!   64-lane Anda groups along k, integer group dots (bit-serial schedule),
//!   rescale by shared exponent × weight scale, FP32 accumulation across
//!   groups.

use anda_format::anda::AndaConfig;
use anda_format::dot::{dot_group_int_flat, rescale_int_dot};
use anda_format::rowcodec::{encode_row_into, groups_per_row, plane_words_per_row};
use anda_tensor::Matrix;
use rayon_lite::ThreadPool;

use crate::codec::ActivationCodec;
use crate::weights::IntWeightMatrix;

/// Below this many output-element group-dots the Anda GeMM runs serially
/// even when the global pool has threads. The bit-serial dot is far more
/// expensive per element than an FP mul-add, so the bar is much lower
/// than the dense-matmul threshold in `anda-tensor`.
const ANDA_PAR_MIN_WORK: usize = 16 * 1024;

/// Reusable buffers for the FP-INT GeMM operators.
///
/// One scratch serves any sequence of GeMM calls of any shape: buffers are
/// resized (allocation reused) per call. A per-token transformer forward
/// pass holds one scratch and stops reallocating per layer.
#[derive(Clone, Debug, Default)]
pub struct GemmScratch {
    /// Codec-processed activations.
    act: Matrix,
    /// Dequantized weight panel.
    dequant: Matrix,
}

impl GemmScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fake-quantized GeMM: activations pass through `codec`, then `f32` math.
///
/// # Panics
///
/// Panics if `x.cols() != w.k()`.
pub fn gemm_fake_quant(x: &Matrix, w: &IntWeightMatrix, codec: &ActivationCodec) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.n());
    gemm_fake_quant_into(x, w, codec, &mut GemmScratch::new(), &mut out);
    out
}

/// [`gemm_fake_quant`] writing into a preallocated output via `scratch`.
///
/// # Panics
///
/// Panics if `x.cols() != w.k()` or `out` is not `x.rows() × w.n()`.
pub fn gemm_fake_quant_into(
    x: &Matrix,
    w: &IntWeightMatrix,
    codec: &ActivationCodec,
    scratch: &mut GemmScratch,
    out: &mut Matrix,
) {
    assert_eq!(x.cols(), w.k(), "gemm shape mismatch");
    codec.apply_matrix_into(x, &mut scratch.act);
    w.dequantize_into(&mut scratch.dequant);
    scratch.act.matmul_into(&scratch.dequant, out);
}

/// The Anda integer GeMM: bit-serial group dot products with FP32
/// cross-group accumulation, exactly as the APU array executes it.
///
/// Requirements checked at runtime:
/// - `x.cols() == w.k()`
/// - the weight group size is a multiple of the 64-lane activation group
///   (so one weight scale covers each Anda group), unless a group is the
///   trailing remainder.
///
/// # Panics
///
/// Panics when the shape or group-compatibility requirements are violated.
pub fn gemm_anda(x: &Matrix, w: &IntWeightMatrix, mantissa_bits: u32) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.n());
    gemm_anda_into(x, w, mantissa_bits, &mut out);
    out
}

/// [`gemm_anda`] writing into a preallocated output.
///
/// Large GeMMs are sharded by output rows across the global
/// [`rayon_lite`] pool (sized by `ANDA_THREADS`); each thread converts
/// and accumulates its own rows with private buffers. Because every
/// output element is produced by the identical per-row group-dot walk,
/// results are bit-identical to the serial path at every thread count.
///
/// # Panics
///
/// Panics on shape/group-compatibility violations (see [`gemm_anda`]) or
/// if `out` is not `x.rows() × w.n()`.
pub fn gemm_anda_into(x: &Matrix, w: &IntWeightMatrix, mantissa_bits: u32, out: &mut Matrix) {
    let pool = rayon_lite::global();
    let work = x.rows() * x.cols() * w.n();
    if pool.threads() > 1 && x.rows() > 1 && work >= ANDA_PAR_MIN_WORK {
        gemm_anda_into_pool(x, w, mantissa_bits, out, pool);
    } else {
        anda_check_shapes(x, w, out);
        let cfg = AndaConfig::new(ANDA_LANES, mantissa_bits).expect("valid mantissa bits");
        anda_rows(x, w, &cfg, out.as_mut_slice(), 0);
    }
}

/// [`gemm_anda_into`] on an explicit pool, always sharding the output
/// rows across its threads (used by the cross-thread-count bit-exactness
/// tests; production code calls [`gemm_anda_into`], which picks the
/// global pool).
///
/// # Panics
///
/// Same conditions as [`gemm_anda_into`].
pub fn gemm_anda_into_pool(
    x: &Matrix,
    w: &IntWeightMatrix,
    mantissa_bits: u32,
    out: &mut Matrix,
    pool: &ThreadPool,
) {
    anda_check_shapes(x, w, out);
    let cfg = AndaConfig::new(ANDA_LANES, mantissa_bits).expect("valid mantissa bits");
    let n = w.n();
    if n == 0 {
        return;
    }
    let rows_per_chunk = x.rows().div_ceil(pool.threads()).max(1);
    pool.par_chunks_mut(out.as_mut_slice(), rows_per_chunk * n, |idx, chunk| {
        anda_rows(x, w, &cfg, chunk, idx * rows_per_chunk);
    });
}

/// The 64-lane Anda activation group width.
const ANDA_LANES: usize = 64;

fn anda_check_shapes(x: &Matrix, w: &IntWeightMatrix, out: &Matrix) {
    assert_eq!(x.cols(), w.k(), "gemm shape mismatch");
    assert_eq!(out.shape(), (x.rows(), w.n()), "gemm output shape mismatch");
    assert!(
        w.config().group_size.is_multiple_of(ANDA_LANES),
        "weight group size {} must be a multiple of the {ANDA_LANES}-lane Anda group",
        w.config().group_size
    );
}

/// The Anda GeMM kernel over output rows `[row0, row0 + rows_here)`,
/// where `rows_here = out_rows.len() / w.n()`. Each activation row is
/// encoded once into flat, reused sign/exponent/plane buffers through
/// the SIMD-dispatched row codec (no per-group allocation), and every
/// group dot runs through the allocation-free dispatched integer kernel.
/// Buffers are private to the call, so concurrent shards never share
/// state; the per-element accumulation (FP32 across groups, groups in
/// ascending k order) is independent of the sharding, which keeps the
/// parallel result bit-identical to the serial one. The flat codec is
/// pinned bit-identical to the owning `align_group`/`BitPlaneGroup`
/// construction and the integer dot is exact, so this kernel reproduces
/// the bit-serial reference path bit for bit (the unit test below pins
/// it).
fn anda_rows(x: &Matrix, w: &IntWeightMatrix, cfg: &AndaConfig, out_rows: &mut [f32], row0: usize) {
    let lanes = ANDA_LANES;
    let k = x.cols();
    let n = w.n();
    if n == 0 {
        return;
    }
    let rows_here = out_rows.len() / n;
    if k == 0 {
        // Empty-k product: every dot is empty (and the row codec rejects
        // empty rows).
        out_rows.fill(0.0);
        return;
    }

    // Flat encode buffers hoisted out of the row loop: one allocation set
    // serves the whole shard.
    let m = cfg.mantissa_bits() as usize;
    let g = groups_per_row(k, *cfg);
    let mut signs = vec![0u64; g];
    let mut exps = vec![0u16; g];
    let mut planes = vec![0u64; plane_words_per_row(k, *cfg)];
    let mut weights: Vec<i8> = Vec::with_capacity(lanes);

    for li in 0..rows_here {
        let row = row0 + li;
        encode_row_into(x.row(row), *cfg, &mut signs, &mut exps, &mut planes);
        let out_row = &mut out_rows[li * n..(li + 1) * n];
        for (col, out_val) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for gi in 0..g {
                let k_start = gi * lanes;
                let k_end = (k_start + lanes).min(k);
                weights.clear();
                weights.extend((k_start..k_end).map(|r| w.value(r, col)));
                let int_dot =
                    dot_group_int_flat(signs[gi], &planes[gi * m..(gi + 1) * m], &weights);
                let scale = w.scale_at(k_start, col);
                acc += rescale_int_dot(int_dot, exps[gi], cfg.mantissa_bits(), scale);
            }
            *out_val = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightQuantConfig;
    use anda_tensor::Rng;

    fn random_case(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, IntWeightMatrix) {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(m, k);
        rng.fill_normal(x.as_mut_slice(), 1.0);
        let mut w = Matrix::zeros(k, n);
        rng.fill_normal(w.as_mut_slice(), 0.05);
        let wq = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128));
        (x, wq)
    }

    #[test]
    fn anda_gemm_matches_fake_quant_path() {
        let (x, w) = random_case(3, 256, 5, 10);
        for m_bits in [4u32, 7, 11, 16] {
            let codec = ActivationCodec::anda(m_bits);
            let fake = gemm_fake_quant(&x, &w, &codec);
            let int = gemm_anda(&x, &w, m_bits);
            for i in 0..3 {
                for j in 0..5 {
                    let (a, b) = (fake[(i, j)], int[(i, j)]);
                    assert!(
                        (a - b).abs() <= a.abs().max(1.0) * 2e-5,
                        "m={m_bits} ({i},{j}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_mantissa_approaches_f16_reference() {
        let (x, w) = random_case(2, 128, 4, 11);
        let f16_ref = gemm_fake_quant(&x, &w, &ActivationCodec::Fp16);
        let anda = gemm_anda(&x, &w, 16);
        for i in 0..2 {
            for j in 0..4 {
                let (a, b) = (f16_ref[(i, j)], anda[(i, j)]);
                assert!(
                    (a - b).abs() <= a.abs().max(1.0) * 1e-2,
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn narrow_mantissa_increases_output_error() {
        let (x, w) = random_case(4, 256, 8, 12);
        let reference = gemm_fake_quant(&x, &w, &ActivationCodec::Exact);
        let err = |m_bits: u32| {
            let out = gemm_anda(&x, &w, m_bits);
            let mut total = 0.0f64;
            for i in 0..4 {
                for j in 0..8 {
                    total += f64::from((out[(i, j)] - reference[(i, j)]).abs());
                }
            }
            total
        };
        // Aggregate output error at M=3 must dominate M=11 clearly.
        assert!(err(3) > 4.0 * err(11), "{} vs {}", err(3), err(11));
    }

    #[test]
    fn partial_trailing_group_supported() {
        let (x, w) = random_case(2, 96, 3, 13); // 96 = 64 + 32 remainder
        let codec = ActivationCodec::anda(8);
        let fake = gemm_fake_quant(&x, &w, &codec);
        let int = gemm_anda(&x, &w, 8);
        for i in 0..2 {
            for j in 0..3 {
                assert!((fake[(i, j)] - int[(i, j)]).abs() < 1e-3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the 64-lane")]
    fn incompatible_weight_groups_panic() {
        let (x, w) = {
            let mut rng = Rng::new(14);
            let mut x = Matrix::zeros(1, 96);
            rng.fill_normal(x.as_mut_slice(), 1.0);
            let mut wm = Matrix::zeros(96, 2);
            rng.fill_normal(wm.as_mut_slice(), 0.05);
            (
                x,
                IntWeightMatrix::quantize(&wm, WeightQuantConfig::rtn(4, 96)),
            )
        };
        let _ = gemm_anda(&x, &w, 8);
    }

    #[test]
    fn into_variants_are_bit_identical_across_reused_scratch() {
        // One scratch drives GeMMs of different shapes back-to-back, the
        // way a layer loop does; every result must equal the allocating
        // path bit-for-bit.
        let mut scratch = GemmScratch::new();
        let codecs = [
            ActivationCodec::Exact,
            ActivationCodec::Fp16,
            ActivationCodec::anda(8),
        ];
        for (shape_seed, (m, k, n)) in
            [(20u64, (3, 256, 5)), (21, (2, 128, 9)), (22, (5, 64, 2))].into_iter()
        {
            let (x, w) = random_case(m, k, n, shape_seed);
            let mut out = Matrix::zeros(m, n);
            for codec in &codecs {
                gemm_fake_quant_into(&x, &w, codec, &mut scratch, &mut out);
                assert_eq!(out, gemm_fake_quant(&x, &w, codec));
            }
        }
    }

    #[test]
    fn flat_codec_kernel_is_bit_identical_to_bit_serial_reference() {
        // `anda_rows` runs on the flat SIMD-dispatched row codec and the
        // allocation-free integer dot. Pin it bit-for-bit against an
        // inline reference built the original way: saturate to FP16,
        // align each 64-lane group, build owning bit planes, bit-serial
        // dot, identical rescale/accumulation.
        use anda_format::align::align_group;
        use anda_format::bitplane::BitPlaneGroup;
        use anda_format::dot::dot_group_bit_serial;
        use anda_fp::saturate_to_f16;

        for (seed, (rows, k, n)) in [
            (30u64, (1, 64, 1)),
            (31, (3, 96, 5)), // partial trailing group
            (32, (2, 256, 7)),
            (33, (4, 129, 3)), // lone-element trailing group
        ] {
            let (x, w) = random_case(rows, k, n, seed);
            for m_bits in [1u32, 4, 8, 11, 16] {
                let fast = gemm_anda(&x, &w, m_bits);

                let mut reference = Matrix::zeros(rows, n);
                for i in 0..rows {
                    let acts: Vec<_> = x.row(i).iter().map(|&v| saturate_to_f16(v)).collect();
                    let groups: Vec<BitPlaneGroup> = acts
                        .chunks(ANDA_LANES)
                        .map(|chunk| {
                            let aligned = align_group(chunk, m_bits).expect("finite");
                            BitPlaneGroup::from_aligned(&aligned)
                        })
                        .collect();
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for (g, group) in groups.iter().enumerate() {
                            let k_start = g * ANDA_LANES;
                            let k_end = (k_start + group.len()).min(k);
                            let weights: Vec<i8> =
                                (k_start..k_end).map(|r| w.value(r, j)).collect();
                            let (int_dot, _) = dot_group_bit_serial(group, &weights);
                            acc += rescale_int_dot(
                                int_dot,
                                group.shared_exp(),
                                group.mantissa_bits(),
                                w.scale_at(k_start, j),
                            );
                        }
                        reference[(i, j)] = acc;
                    }
                }

                for i in 0..rows {
                    for j in 0..n {
                        assert_eq!(
                            fast[(i, j)].to_bits(),
                            reference[(i, j)].to_bits(),
                            "m={m_bits} ({i},{j}): {} vs {}",
                            fast[(i, j)],
                            reference[(i, j)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f16_path_differs_from_reference_only_by_rounding() {
        let (x, w) = random_case(2, 128, 2, 15);
        let a = gemm_fake_quant(&x, &w, &ActivationCodec::Exact);
        let b = gemm_fake_quant(&x, &w, &ActivationCodec::Fp16);
        for i in 0..2 {
            for j in 0..2 {
                assert!((a[(i, j)] - b[(i, j)]).abs() < a[(i, j)].abs() * 0.01 + 0.05);
            }
        }
    }
}
