//! Order statistics the report is built from: medians over passes,
//! percentiles over pooled samples, and the rule for which percentile a
//! sample count can support.

/// Percentiles a report may name, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// `true` when `n` samples leave [`MIN_BEYOND`] beyond percentile `p`
/// (counted in tenths of a percent, so 99.9 of 10 000 is exact).
pub fn supports(n: usize, p: f64) -> bool {
    let beyond_per_mille = 1000 - (p * 10.0).round() as usize;
    n * beyond_per_mille >= MIN_BEYOND * 1000
}

/// The highest percentile of [`LADDER`] that still leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when not even the
/// median does (`n < 20`).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&p| supports(n, p))
}

/// Percentile `p` (0..=100) of `sorted` (ascending) with linear
/// interpolation between closest ranks — the definition Python's
/// `statistics.quantiles(..., method="inclusive")` and numpy share.
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `samples` ascending in place (total order, so a stray NaN
/// sorts last instead of poisoning the comparison).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of `samples` (sorted in place). `NaN` when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    percentile(samples, 50.0)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        for n in [20, 100, 200, 1000, 10_000] {
            let p = highest_supported_percentile(n).unwrap();
            assert!(supports(n, p));
            assert!(!supports(n - 1, p));
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((mean(&[1.0, 2.0, 6.0]) - 3.0).abs() < 1e-12);
    }
}
