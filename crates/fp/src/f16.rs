//! The [`F16`] type: a bit-exact software IEEE 754 binary16 value.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};

use crate::rounding::{shift_right_round, RoundingMode};

/// Number of explicit fraction (mantissa-field) bits in binary16.
pub const FRAC_BITS: u32 = 10;
/// Number of significand bits including the hidden bit.
pub const SIG_BITS: u32 = FRAC_BITS + 1;
/// Exponent bias of binary16.
pub const EXP_BIAS: i32 = 15;
/// Maximum biased exponent of a finite binary16 value.
pub const EXP_MAX: u16 = 30;

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const FRAC_MASK: u16 = 0x03FF;
const HIDDEN_BIT: u16 = 0x0400;

/// An IEEE 754 binary16 (half precision) floating-point number.
///
/// `F16` stores the raw 16-bit encoding and converts to/from `f32` with
/// round-to-nearest-even semantics, including subnormals, infinities and NaN.
/// All arithmetic operators are implemented by computing in `f32` and rounding
/// the result back to binary16, which matches the behaviour of a scalar FP16
/// FMA-free datapath.
///
/// # Example
///
/// ```
/// use anda_fp::F16;
///
/// let a = F16::from_f32(0.1);
/// let b = F16::from_f32(0.2);
/// let c = a + b;
/// assert!((c.to_f32() - 0.3).abs() < 1e-3);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value (-65504).
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value (2^-24).
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw IEEE 754 binary16 bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw IEEE 754 binary16 bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `F16` with round-to-nearest-even.
    ///
    /// Values overflowing binary16 become infinities; tiny values round to
    /// subnormals or (signed) zero; NaNs stay NaN.
    pub fn from_f32(value: f32) -> Self {
        F16(f32_to_f16_bits(value))
    }

    /// Converts this value to `f32` exactly (binary16 ⊂ binary32).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Converts this value to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Returns the sign bit (`true` for negative, including `-0.0`).
    #[inline]
    pub const fn is_sign_negative(self) -> bool {
        self.0 & SIGN_MASK != 0
    }

    /// Returns `true` if the sign bit is clear.
    #[inline]
    pub const fn is_sign_positive(self) -> bool {
        !self.is_sign_negative()
    }

    /// Returns the biased exponent field (0..=31).
    #[inline]
    pub const fn biased_exponent(self) -> u16 {
        (self.0 & EXP_MASK) >> FRAC_BITS
    }

    /// Returns the raw 10-bit fraction field.
    #[inline]
    pub const fn fraction(self) -> u16 {
        self.0 & FRAC_MASK
    }

    /// Returns `true` for NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & FRAC_MASK != 0
    }

    /// Returns `true` for ±∞.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & FRAC_MASK == 0
    }

    /// Returns `true` for any finite value (normal, subnormal or zero).
    #[inline]
    pub const fn is_finite(self) -> bool {
        self.0 & EXP_MASK != EXP_MASK
    }

    /// Returns `true` for subnormal values (biased exponent 0, fraction ≠ 0).
    #[inline]
    pub const fn is_subnormal(self) -> bool {
        self.0 & EXP_MASK == 0 && self.0 & FRAC_MASK != 0
    }

    /// Returns `true` for ±0.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 & !SIGN_MASK == 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub const fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// Decomposes a finite value into its [`Significand`] fixed-point view.
    ///
    /// The hidden bit is made explicit: normals yield an 11-bit significand
    /// `1024 | fraction` with their biased exponent, subnormals (and zero)
    /// yield `fraction` with an *effective* biased exponent of 1, so that
    /// every finite value satisfies
    /// `value = (-1)^sign · sig · 2^(exp_eff - 25)`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is NaN or infinite; block floating point has no
    /// representation for specials and `anda-format` rejects them upstream.
    pub fn significand(self) -> Significand {
        assert!(
            self.is_finite(),
            "cannot decompose a non-finite F16 ({self:?}) into a significand"
        );
        let e = self.biased_exponent();
        let (sig, exp_eff) = if e == 0 {
            (self.fraction(), 1)
        } else {
            (HIDDEN_BIT | self.fraction(), e)
        };
        Significand {
            negative: self.is_sign_negative(),
            magnitude: sig,
            biased_exp: exp_eff,
        }
    }

    /// Reconstructs an `F16` from a significand view produced by
    /// [`F16::significand`]. Lossless for all finite values.
    pub fn from_significand(sig: Significand) -> Self {
        let value = sig.to_f32();
        Self::from_f32(value)
    }

    /// IEEE 754 `totalOrder`-style comparison usable for sorting.
    ///
    /// Orders `-NaN < -∞ < … < -0 < +0 < … < +∞ < +NaN`.
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        let key = |b: u16| -> i32 {
            let v = i32::from(b);
            if b & SIGN_MASK != 0 {
                !v & 0xFFFF
            } else {
                v | 0x1_0000
            }
        };
        key(self.0).cmp(&key(other.0))
    }
}

/// Fixed-point decomposition of a finite [`F16`]: explicit-hidden-bit
/// significand plus effective biased exponent.
///
/// Satisfies `value = (-1)^negative · magnitude · 2^(biased_exp - 25)` where
/// `magnitude` occupies at most 11 bits. This is the representation that
/// block-floating-point alignment operates on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Significand {
    /// Sign: `true` when the value is negative.
    pub negative: bool,
    /// 11-bit magnitude with the hidden bit explicit (0..=2047).
    pub magnitude: u16,
    /// Effective biased exponent (1..=30); subnormals report 1.
    pub biased_exp: u16,
}

impl Significand {
    /// The power-of-two weight of the least-significant magnitude bit:
    /// `2^(biased_exp - 25)`.
    pub fn ulp(&self) -> f32 {
        exp2i(i32::from(self.biased_exp) - 25)
    }

    /// Reconstructs the exact `f32` value of this decomposition.
    pub fn to_f32(&self) -> f32 {
        let mag = f32::from(self.magnitude) * self.ulp();
        if self.negative {
            -mag
        } else {
            mag
        }
    }
}

/// Computes `2^e` for small integer `e` without `powi` (exact for the binary16
/// exponent range).
#[inline]
pub fn exp2i(e: i32) -> f32 {
    debug_assert!((-126..=127).contains(&e));
    f32::from_bits(((e + 127) as u32) << 23)
}

/// Rounds an `f32` to FP16, clamping overflow to ±65504 (finite) and mapping
/// NaN to `+0` — the saturation convention shared by the block-floating-point
/// compressors in `anda-format` and the rounded KV row policies in `anda-llm`.
pub fn saturate_to_f16(v: f32) -> F16 {
    if v.is_nan() {
        return F16::ZERO;
    }
    let clamped = v.clamp(-65504.0, 65504.0);
    let h = F16::from_f32(clamped);
    if h.is_infinite() {
        // RNE can still round 65504 < |v| ≤ 65504+ε to ∞; force the max.
        if h.is_sign_negative() {
            F16::MIN
        } else {
            F16::MAX
        }
    } else {
        h
    }
}

fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf or NaN. Preserve a NaN payload bit so NaN stays NaN.
        return if frac == 0 {
            sign | EXP_MASK
        } else {
            sign | EXP_MASK | 0x0200 | ((frac >> 13) as u16 & FRAC_MASK)
        };
    }

    // Unbiased exponent of the f32 value.
    let unbiased = exp - 127;
    // Target biased exponent in binary16.
    let e16 = unbiased + EXP_BIAS;

    if e16 >= 31 {
        // Overflow to infinity.
        return sign | EXP_MASK;
    }

    if e16 <= 0 {
        // Subnormal or zero in binary16.
        if e16 < -10 {
            // Rounds to zero even with RNE (magnitude < 2^-25, or exactly
            // 2^-25 which ties to even zero).
            return sign;
        }
        // Build the 24-bit significand (hidden bit explicit) and shift it so
        // that bit 0 has weight 2^-24.
        let sig = if exp == 0 { frac } else { frac | 0x0080_0000 };
        let shift = (14 - e16) as u32; // 14..=24
        let rounded = shift_right_round(u64::from(sig), shift, RoundingMode::NearestEven);
        return sign | (rounded as u16);
    }

    // Normal case: round 23-bit fraction to 10 bits with RNE; a fraction
    // carry-out bumps the exponent (possibly to infinity) correctly because
    // the exponent and fraction fields are adjacent.
    let base = (u32::from(sign) << 16) as u64;
    let joined = ((e16 as u64) << 23) | u64::from(frac);
    let rounded = shift_right_round(joined, 13, RoundingMode::NearestEven);
    (base >> 16) as u16 | (rounded as u16)
}

fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits & SIGN_MASK) << 16;
    let exp = (bits & EXP_MASK) >> FRAC_BITS;
    let frac = u32::from(bits & FRAC_MASK);

    if exp == 0x1F {
        // Inf / NaN.
        return f32::from_bits(sign | 0x7F80_0000 | (frac << 13));
    }
    if exp == 0 {
        if frac == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: value = frac · 2^-24. Normalize into an f32 normal whose
        // unbiased exponent is the position of frac's MSB minus 24.
        let msb = 31 - frac.leading_zeros(); // 0..=9
        let e32 = 103 + msb; // (msb - 24) + 127
        let mant = ((frac << (10 - msb)) & 0x03FF) << 13;
        return f32::from_bits(sign | (e32 << 23) | mant);
    }
    let e32 = u32::from(exp) + 127 - 15;
    f32::from_bits(sign | (e32 << 23) | (frac << 13))
}

impl From<f32> for F16 {
    fn from(value: f32) -> Self {
        F16::from_f32(value)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> Self {
        value.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(value: F16) -> Self {
        value.to_f64()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

macro_rules! impl_f16_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_f16_binop!(Add, add, +);
impl_f16_binop!(Sub, sub, -);
impl_f16_binop!(Mul, mul, *);
impl_f16_binop!(Div, div, /);

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({} = {:#06x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn simple_values_round_trip() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1.5, 100.0, -0.375, 65504.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn every_f16_bit_pattern_round_trips_through_f32() {
        for bits in 0..=u16::MAX {
            let x = F16::from_bits(bits);
            let back = F16::from_f32(x.to_f32());
            if x.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(back.to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10; even is 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9; even is 1+2^-9.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway_up).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Just above halfway rounds up.
        assert_eq!(
            F16::from_f32(1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20)).to_f32(),
            1.0 + 2.0f32.powi(-10)
        );
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(F16::from_f32(-1e6).is_infinite());
        assert!(F16::from_f32(-1e6).is_sign_negative());
        // 65520 is the rounding boundary: ties to even = infinity.
        assert!(F16::from_f32(65520.0).is_infinite());
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0);
    }

    #[test]
    fn underflow_produces_subnormals_then_zero() {
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert!(F16::from_f32(tiny).is_subnormal());
        // Half the smallest subnormal ties to even zero.
        assert_eq!(F16::from_f32(tiny / 2.0).to_bits(), 0x0000);
        // Slightly above half rounds to the smallest subnormal.
        assert_eq!(F16::from_f32(tiny * 0.6).to_bits(), 0x0001);
        // Sign is preserved on underflow-to-zero.
        assert_eq!(F16::from_f32(-tiny / 4.0).to_bits(), 0x8000);
    }

    #[test]
    fn specials_are_classified() {
        assert!(F16::NAN.is_nan());
        assert!(!F16::NAN.is_finite());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::INFINITY).is_infinite());
        assert!(F16::ZERO.is_zero() && F16::NEG_ZERO.is_zero());
    }

    #[test]
    fn significand_decomposition_is_exact_for_all_finite_values() {
        for bits in 0..=u16::MAX {
            let x = F16::from_bits(bits);
            if !x.is_finite() {
                continue;
            }
            let s = x.significand();
            assert!(s.magnitude <= 2047);
            assert_eq!(s.to_f32(), x.to_f32(), "bits {bits:#06x}");
            let back = F16::from_significand(s);
            assert_eq!(back.to_f32(), x.to_f32());
        }
    }

    #[test]
    fn significand_of_one() {
        let s = F16::ONE.significand();
        assert_eq!(s.magnitude, 1024);
        assert_eq!(s.biased_exp, 15);
        assert!(!s.negative);
    }

    #[test]
    fn significand_of_subnormal_uses_effective_exponent_one() {
        let s = F16::MIN_POSITIVE_SUBNORMAL.significand();
        assert_eq!(s.magnitude, 1);
        assert_eq!(s.biased_exp, 1);
        assert_eq!(s.to_f32(), 2.0f32.powi(-24));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn significand_of_nan_panics() {
        let _ = F16::NAN.significand();
    }

    #[test]
    fn arithmetic_is_f32_arithmetic_rounded_to_f16() {
        let a = F16::from_f32(1.0 / 3.0);
        let b = F16::from_f32(2.0 / 3.0);
        let sum = a + b;
        assert_eq!(sum, F16::from_f32(a.to_f32() + b.to_f32()));
        assert_eq!(-F16::ONE, F16::NEG_ONE);
        assert_eq!(F16::ONE * F16::from_f32(2.0), F16::from_f32(2.0));
        assert_eq!(F16::ONE / F16::from_f32(2.0), F16::from_f32(0.5));
        assert_eq!(F16::ONE - F16::ONE, F16::ZERO);
    }

    #[test]
    fn total_cmp_orders_signed_zeros_and_nans() {
        let mut v = [
            F16::NAN,
            F16::INFINITY,
            F16::ONE,
            F16::ZERO,
            F16::NEG_ZERO,
            F16::NEG_ONE,
            F16::NEG_INFINITY,
        ];
        v.sort_by(F16::total_cmp);
        assert_eq!(v[0], F16::NEG_INFINITY);
        assert_eq!(v[1], F16::NEG_ONE);
        assert_eq!(v[2].to_bits(), F16::NEG_ZERO.to_bits());
        assert_eq!(v[3].to_bits(), F16::ZERO.to_bits());
        assert_eq!(v[4], F16::ONE);
        assert_eq!(v[5], F16::INFINITY);
        assert!(v[6].is_nan());
    }

    #[test]
    fn exp2i_is_exact() {
        assert_eq!(exp2i(0), 1.0);
        assert_eq!(exp2i(-24), 2.0f32.powi(-24));
        assert_eq!(exp2i(15), 32768.0);
    }
}
