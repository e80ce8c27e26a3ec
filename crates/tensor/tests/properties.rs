//! Property-based tests for the tensor substrate.

use anda_tensor::{ops, Matrix, Rng};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product(a in matrix(4, 6), b in matrix(6, 3)) {
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        for r in 0..3 {
            for c in 0..4 {
                prop_assert!((lhs[(r, c)] - rhs[(r, c)]).abs() < 1e-3);
            }
        }
    }

    /// A·I = I·A = A.
    #[test]
    fn identity_neutral(a in matrix(5, 5)) {
        let i = Matrix::identity(5);
        prop_assert_eq!(a.matmul(&i), a.clone());
        prop_assert_eq!(i.matmul(&a), a);
    }

    /// matmul_transposed(a, b) == a · bᵀ.
    #[test]
    fn matmul_transposed_equivalence(a in matrix(3, 8), b in matrix(5, 8)) {
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transposed());
        for r in 0..3 {
            for c in 0..5 {
                prop_assert!((fast[(r, c)] - slow[(r, c)]).abs() < 1e-3);
            }
        }
    }

    /// Softmax rows (`exp` of the log-softmax) are probability
    /// distributions, invariant to shifts.
    #[test]
    fn softmax_distribution(rows in matrix(4, 7), shift in -50.0f32..50.0) {
        let softmax = |row: &[f32]| -> Vec<f32> {
            ops::log_softmax(row).into_iter().map(f32::exp).collect()
        };
        for r in 0..4 {
            let p = softmax(rows.row(r));
            let shifted: Vec<f32> = rows.row(r).iter().map(|x| x + shift).collect();
            let q = softmax(&shifted);
            let sum: f32 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            for c in 0..7 {
                prop_assert!(p[c] >= 0.0);
                prop_assert!((p[c] - q[c]).abs() < 1e-4);
            }
        }
    }

    /// LayerNorm output has zero mean and unit variance (gain 1, bias 0).
    #[test]
    fn layer_norm_standardizes(mut m in matrix(3, 16)) {
        let gain = vec![1.0f32; 16];
        let bias = vec![0.0f32; 16];
        ops::layer_norm(&mut m, &gain, &bias, 1e-6);
        for r in 0..3 {
            let mean: f32 = m.row(r).iter().sum::<f32>() / 16.0;
            let var: f32 = m.row(r).iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 16.0;
            prop_assert!(mean.abs() < 1e-4, "mean {mean}");
            // Constant rows normalize to zero variance; others to ~1.
            prop_assert!(var < 1.2, "var {var}");
        }
    }

    /// Cross-entropy is minimized by the true distribution: predicting the
    /// target with high confidence yields lower loss than uniform.
    #[test]
    fn cross_entropy_ordering(target in 0usize..8) {
        let uniform = Matrix::zeros(1, 8);
        let mut confident = Matrix::zeros(1, 8);
        confident[(0, target)] = 8.0;
        let lu = ops::cross_entropy(&uniform, &[target]);
        let lc = ops::cross_entropy(&confident, &[target]);
        prop_assert!(lc < lu);
    }

    /// Deterministic RNG: same seed, same stream; streams are in-range.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..16 {
            let u = a.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// slice_cols/concat_cols round-trips arbitrary splits.
    #[test]
    fn col_slicing_round_trip(a in matrix(4, 12), split in 1usize..11) {
        let left = a.slice_cols(0, split);
        let right = a.slice_cols(split, 12 - split);
        prop_assert_eq!(Matrix::concat_cols(&[&left, &right]), a);
    }

    /// Both GEMM kernels are `to_bits`-identical across every available
    /// SIMD dispatch leg, on arbitrary shapes crossing the vector-lane
    /// boundaries (the scalar leg is the oracle).
    #[test]
    fn gemm_legs_are_bit_identical(
        m in 1usize..10,
        k in 1usize..40,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut a = Matrix::zeros(m, k);
        Rng::new(seed).fill_normal(a.as_mut_slice(), 1.0);
        let mut b = Matrix::zeros(k, n);
        Rng::new(seed ^ 1).fill_normal(b.as_mut_slice(), 1.0);
        let mut bt = Matrix::zeros(n, k);
        Rng::new(seed ^ 2).fill_normal(bt.as_mut_slice(), 1.0);
        // Zero-heavy A exercises the skip-zero fast path on every leg.
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }

        let mut oracle = Matrix::zeros(m, n);
        a.matmul_into_serial_with_leg(&b, &mut oracle, anda_fp::SimdLeg::Scalar);
        let mut oracle_t = Matrix::zeros(m, n);
        a.matmul_transposed_into_serial_with_leg(&bt, &mut oracle_t, anda_fp::SimdLeg::Scalar);
        let bits = |mat: &Matrix| -> Vec<u32> {
            mat.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        for leg in anda_fp::available_legs() {
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_serial_with_leg(&b, &mut out, leg);
            prop_assert_eq!(bits(&out), bits(&oracle), "matmul leg={}", leg.name());
            a.matmul_transposed_into_serial_with_leg(&bt, &mut out, leg);
            prop_assert_eq!(bits(&out), bits(&oracle_t), "matmul_t leg={}", leg.name());
        }
    }
}
