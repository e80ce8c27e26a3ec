//! Property-based tests for weight quantization and FP-INT GeMM operators.

use anda_quant::gemm::{gemm_anda, gemm_fake_quant};
use anda_quant::{ActivationCodec, IntWeightMatrix, WeightQuantConfig};
use anda_tensor::Matrix;
use proptest::prelude::*;

/// Strategy: a k×n weight matrix with values in a realistic range.
fn weights(k: usize, n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-0.5f32..0.5, k * n).prop_map(move |v| Matrix::from_vec(k, n, v))
}

fn acts(m: usize, k: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-20.0f32..20.0, m * k).prop_map(move |v| Matrix::from_vec(m, k, v))
}

/// `Fp16` runs the SIMD batch rounding; it must equal the scalar
/// expression it replaced on every class of input, through every entry
/// point.
#[test]
fn fp16_codec_equals_the_scalar_rounding() {
    use anda_fp::f16::saturate_to_f16;
    let mut vals = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    // Subnormal halves (and the f32 values around the smallest of them).
    vals.extend([5.96e-8, -5.96e-8, 2.9e-8, 3.1e-8, 6.09e-5, -6.1e-5, 1e-40]);
    // The ±65504 neighbourhood: last finite half, the rounding boundary
    // at 65520, and past it.
    for v in [65503.0f32, 65504.0, 65505.0, 65519.0, 65520.0, 65521.0, 7e4] {
        vals.extend([v, -v]);
    }
    // Ordinary values, enough of them to fill whole SIMD vectors and
    // leave a tail.
    vals.extend((0..203).map(|i| (i as f32 - 101.0) * 0.3371));
    let want: Vec<u32> = vals
        .iter()
        .map(|&v| saturate_to_f16(v).to_f32().to_bits())
        .collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

    let codec = ActivationCodec::Fp16;
    assert_eq!(bits(&codec.apply(&vals)), want);
    let x = Matrix::from_vec(1, vals.len(), vals);
    let mut out = Matrix::zeros(0, 0);
    codec.apply_matrix_into(&x, &mut out);
    assert_eq!(bits(out.as_slice()), want);
    let mut in_place = x.clone();
    codec.apply_matrix_in_place(&mut in_place);
    assert_eq!(bits(in_place.as_slice()), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RTN reconstruction error is bounded by half the group scale.
    #[test]
    fn rtn_error_bounded(w in weights(128, 4)) {
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 64));
        let d = q.dequantize();
        for r in 0..128 {
            for c in 0..4 {
                let err = (w[(r, c)] - d[(r, c)]).abs();
                prop_assert!(err <= q.scale_at(r, c) * 0.5 + 1e-6);
            }
        }
    }

    /// Quantized values always fit the signed bit range.
    #[test]
    fn values_in_range(w in weights(64, 3), bits in 2u32..=8) {
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(bits, 64));
        let q_max = (1i16 << (bits - 1)) - 1;
        for r in 0..64 {
            for c in 0..3 {
                let v = i16::from(q.value(r, c));
                prop_assert!((-q_max - 1..=q_max).contains(&v), "{v} at bits {bits}");
            }
        }
    }

    /// Quantization is idempotent: re-quantizing the dequantized weights
    /// reproduces the same integers (same scales found).
    #[test]
    fn quantization_idempotent(w in weights(64, 2)) {
        let cfg = WeightQuantConfig::rtn(4, 64);
        let q1 = IntWeightMatrix::quantize(&w, cfg);
        let q2 = IntWeightMatrix::quantize(&q1.dequantize(), cfg);
        prop_assert_eq!(q2.dequantize(), q1.dequantize());
    }

    /// The clip grid never increases squared reconstruction error versus
    /// plain RTN.
    #[test]
    fn clip_search_helps(w in weights(128, 2)) {
        let rtn = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128));
        let lite = IntWeightMatrix::quantize(&w, WeightQuantConfig::w4_g128());
        let sq_err = |q: &IntWeightMatrix| {
            let d = q.dequantize();
            w.as_slice()
                .iter()
                .zip(d.as_slice())
                .map(|(&a, &b)| f64::from((a - b) * (a - b)))
                .sum::<f64>()
        };
        prop_assert!(sq_err(&lite) <= sq_err(&rtn) + 1e-9);
    }

    /// The integer Anda GeMM matches the fake-quantized f32 GeMM.
    #[test]
    fn hardware_software_gemm_agree(
        x in acts(2, 128),
        w in weights(128, 3),
        m_bits in 2u32..=16,
    ) {
        let wq = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128));
        let hw = gemm_anda(&x, &wq, m_bits);
        let sw = gemm_fake_quant(&x, &wq, &ActivationCodec::anda(m_bits));
        for i in 0..2 {
            for j in 0..3 {
                let (a, b) = (hw[(i, j)], sw[(i, j)]);
                prop_assert!((a - b).abs() <= a.abs().max(1.0) * 1e-4,
                    "m={m_bits} ({i},{j}): {a} vs {b}");
            }
        }
    }

    /// Exact codec leaves the GeMM unchanged.
    #[test]
    fn exact_codec_is_identity(x in acts(2, 64), w in weights(64, 2)) {
        let wq = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 64));
        let a = x.matmul(&wq.dequantize());
        let b = gemm_fake_quant(&x, &wq, &ActivationCodec::Exact);
        prop_assert_eq!(a, b);
    }

    /// Codec storage accounting is monotone in mantissa length.
    #[test]
    fn storage_monotone(m in 1u32..16) {
        let a = ActivationCodec::anda(m).storage_bits_per_element();
        let b = ActivationCodec::anda(m + 1).storage_bits_per_element();
        prop_assert!(b > a);
        prop_assert!(a < 32.0);
    }
}
