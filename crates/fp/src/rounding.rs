//! Shift-right-with-rounding primitives.

/// How to dispose of bits shifted out of a fixed-point value.
///
/// [`RoundingMode::NearestEven`] is what narrowing `f32` to [`crate::F16`]
/// uses (both the normal and the subnormal case of `F16::from_f32`).
/// [`RoundingMode::Truncate`] is the reference for the mode the paper
/// specifies for grouped conversion ("bits exceeding the specified mantissa
/// length are truncated", §II-B): `anda-format` aligns with a plain shift
/// and offers no other mode, and this crate's property tests check that
/// the two modes bracket the exact quotient.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RoundingMode {
    /// Drop the shifted-out bits (round toward zero on magnitudes) — what
    /// the Anda format's mantissa alignment does.
    #[default]
    Truncate,
    /// Round to nearest, ties to even — IEEE default rounding, used by the
    /// `f32` → FP16 conversion.
    NearestEven,
}

/// Shifts `value` right by `shift` bits under the given rounding mode.
///
/// `shift >= 64` yields 0 for [`RoundingMode::Truncate`]; for
/// [`RoundingMode::NearestEven`] it also yields 0 (any `u64` magnitude is
/// below half of `2^64`... except exactly-half cases which cannot round up to
/// a representable value anyway at that distance for our ≤16-bit operands).
///
/// # Examples
///
/// ```
/// use anda_fp::{shift_right_round, RoundingMode};
///
/// assert_eq!(shift_right_round(0b1011, 2, RoundingMode::Truncate), 0b10);
/// assert_eq!(shift_right_round(0b1011, 2, RoundingMode::NearestEven), 0b11);
/// assert_eq!(shift_right_round(0b1010, 2, RoundingMode::NearestEven), 0b10);
/// ```
#[inline]
pub fn shift_right_round(value: u64, shift: u32, mode: RoundingMode) -> u64 {
    if shift == 0 {
        return value;
    }
    if shift >= 64 {
        return 0;
    }
    let truncated = value >> shift;
    match mode {
        RoundingMode::Truncate => truncated,
        RoundingMode::NearestEven => {
            let rem = value & ((1u64 << shift) - 1);
            let half = 1u64 << (shift - 1);
            if rem > half || (rem == half && truncated & 1 == 1) {
                truncated + 1
            } else {
                truncated
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shift_is_identity() {
        for mode in [RoundingMode::Truncate, RoundingMode::NearestEven] {
            assert_eq!(shift_right_round(12345, 0, mode), 12345);
        }
    }

    #[test]
    fn truncate_drops_low_bits() {
        assert_eq!(shift_right_round(0xFF, 4, RoundingMode::Truncate), 0xF);
        assert_eq!(shift_right_round(1, 1, RoundingMode::Truncate), 0);
    }

    #[test]
    fn nearest_even_ties() {
        // 0b110 >> 1: remainder 0 tie? value=6 shift=1: rem=0 -> 3.
        assert_eq!(shift_right_round(6, 1, RoundingMode::NearestEven), 3);
        // value=5 shift=1: rem=1=half, truncated=2 even -> stays 2.
        assert_eq!(shift_right_round(5, 1, RoundingMode::NearestEven), 2);
        // value=7 shift=1: rem=1=half, truncated=3 odd -> 4.
        assert_eq!(shift_right_round(7, 1, RoundingMode::NearestEven), 4);
    }

    #[test]
    fn huge_shift_yields_zero() {
        assert_eq!(shift_right_round(u64::MAX, 64, RoundingMode::Truncate), 0);
        assert_eq!(
            shift_right_round(u64::MAX, 80, RoundingMode::NearestEven),
            0
        );
    }

    #[test]
    fn nearest_even_matches_manual_reference() {
        for value in 0u64..256 {
            for shift in 1..10u32 {
                let exact = value as f64 / f64::from(1u32 << shift);
                let expect = {
                    // round-half-even reference via f64 (exact in this range)
                    let floor = exact.floor();
                    let frac = exact - floor;
                    let f = floor as u64;
                    if frac > 0.5 || (frac == 0.5 && f % 2 == 1) {
                        f + 1
                    } else {
                        f
                    }
                };
                assert_eq!(
                    shift_right_round(value, shift, RoundingMode::NearestEven),
                    expect,
                    "value {value} shift {shift}"
                );
            }
        }
    }
}
