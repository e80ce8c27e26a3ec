//! The nearest-even right shift `F16` narrowing rounds with.

/// Shifts `value` right by `shift` bits, rounding to nearest with ties to
/// even — IEEE default rounding, what narrowing `f32` to [`crate::F16`]
/// does in both its normal and its subnormal case. (The Anda format's
/// mantissa alignment truncates instead, with a plain `>>`: "bits
/// exceeding the specified mantissa length are truncated", §II-B.)
///
/// `shift >= 64` yields 0 (`F16` narrowing shifts by at most 24).
///
/// # Examples
///
/// ```
/// use anda_fp::rounding::shift_right_round;
///
/// assert_eq!(shift_right_round(0b1011, 2), 0b11);
/// assert_eq!(shift_right_round(0b1010, 2), 0b10);
/// assert_eq!(shift_right_round(0b1110, 2), 0b100);
/// ```
#[inline]
pub fn shift_right_round(value: u64, shift: u32) -> u64 {
    if shift == 0 {
        return value;
    }
    if shift >= 64 {
        return 0;
    }
    let truncated = value >> shift;
    let rem = value & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    if rem > half || (rem == half && truncated & 1 == 1) {
        truncated + 1
    } else {
        truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shift_is_identity() {
        assert_eq!(shift_right_round(12345, 0), 12345);
    }

    #[test]
    fn nearest_even_ties() {
        // 0b110 >> 1: remainder 0 tie? value=6 shift=1: rem=0 -> 3.
        assert_eq!(shift_right_round(6, 1), 3);
        // value=5 shift=1: rem=1=half, truncated=2 even -> stays 2.
        assert_eq!(shift_right_round(5, 1), 2);
        // value=7 shift=1: rem=1=half, truncated=3 odd -> 4.
        assert_eq!(shift_right_round(7, 1), 4);
    }

    #[test]
    fn huge_shift_yields_zero() {
        assert_eq!(shift_right_round(u64::MAX, 64), 0);
        assert_eq!(shift_right_round(u64::MAX, 80), 0);
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
                    shift_right_round(value, shift),
                    expect,
                    "value {value} shift {shift}"
                );
            }
        }
    }
}
