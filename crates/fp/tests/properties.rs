//! Property-based tests for the software FP16 implementation.

use anda_fp::rounding::shift_right_round;
use anda_fp::F16;
use proptest::prelude::*;

proptest! {
    /// f32 -> f16 -> f32 must be the identity whenever the f32 is exactly
    /// representable in binary16 (construct such values from f16 bits).
    #[test]
    fn representable_f32_round_trips(bits in any::<u16>()) {
        let x = F16::from_bits(bits);
        prop_assume!(!x.is_nan());
        let via = F16::from_f32(x.to_f32());
        prop_assert_eq!(via.to_bits(), bits);
    }

    /// Conversion error from f32 is at most half a ULP of the f16 result
    /// (round-to-nearest), for values inside the finite f16 range.
    #[test]
    fn conversion_error_is_half_ulp(v in -60000.0f32..60000.0) {
        let h = F16::from_f32(v);
        prop_assert!(h.is_finite());
        let back = h.to_f32();
        // ULP at the magnitude of the result.
        let exp = if h.is_zero() || h.is_subnormal() {
            -24
        } else {
            i32::from(h.biased_exponent()) - 15 - 10
        };
        let ulp = (2.0f32).powi(exp);
        prop_assert!((back - v).abs() <= ulp / 2.0 + f32::EPSILON,
            "v={v} back={back} ulp={ulp}");
    }

    /// The significand decomposition reconstructs the value exactly.
    #[test]
    fn significand_is_lossless(bits in any::<u16>()) {
        let x = F16::from_bits(bits);
        prop_assume!(x.is_finite());
        let s = x.significand();
        prop_assert_eq!(s.to_f32(), x.to_f32());
        prop_assert!(s.magnitude < 2048);
        prop_assert!((1..=30).contains(&s.biased_exp));
    }

    /// Negation only toggles the sign bit.
    #[test]
    fn neg_toggles_sign(bits in any::<u16>()) {
        let x = F16::from_bits(bits);
        prop_assert_eq!((-x).to_bits(), bits ^ 0x8000);
        prop_assert_eq!((-(-x)).to_bits(), bits);
    }

    /// total_cmp is a total order consistent with partial_cmp on numbers.
    #[test]
    fn total_cmp_consistent(a in any::<u16>(), b in any::<u16>()) {
        let (x, y) = (F16::from_bits(a), F16::from_bits(b));
        if let Some(ord) = x.partial_cmp(&y) {
            if x.to_f32() != 0.0 || y.to_f32() != 0.0 {
                prop_assert_eq!(ord, x.total_cmp(&y));
            }
        }
        // Antisymmetry always holds.
        prop_assert_eq!(x.total_cmp(&y), y.total_cmp(&x).reverse());
    }

    /// The nearest-even shift is the exact quotient `value / 2^shift`
    /// rounded: within half of it, and on an exact half, the even one.
    #[test]
    fn nearest_even_shift_brackets_the_exact_quotient(value in any::<u32>(), shift in 0u32..40) {
        let r = shift_right_round(u64::from(value), shift);
        // Twice |r - value / 2^shift|, in units of 2^-shift: exact in u128.
        let twice_dist = (u128::from(r) << shift).abs_diff(u128::from(value)) * 2;
        prop_assert!(twice_dist <= 1u128 << shift, "value {value} shift {shift} -> {r}");
        if twice_dist == 1u128 << shift {
            prop_assert_eq!(r % 2, 0, "tie of {} >> {} not even", value, shift);
        }
    }

    /// Arithmetic through f32 is commutative for add/mul on finite values.
    #[test]
    fn add_mul_commute(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        let (x, y) = (F16::from_f32(a), F16::from_f32(b));
        prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
        prop_assert_eq!((x * y).to_bits(), (y * x).to_bits());
    }
}
