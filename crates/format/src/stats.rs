//! Quantization-error metrics shared by the experiments.

/// Maximum absolute elementwise error.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_abs_err(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_err length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Signal-to-quantization-noise ratio in dB: `10·log10(‖a‖² / ‖a-b‖²)`.
///
/// Returns `f64::INFINITY` when the error is exactly zero.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sqnr_db(signal: &[f32], quantized: &[f32]) -> f64 {
    assert_eq!(signal.len(), quantized.len(), "sqnr length mismatch");
    let sig_pow: f64 = signal.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    let err_pow: f64 = signal
        .iter()
        .zip(quantized)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum();
    if err_pow == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (sig_pow / err_pow).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_err_picks_largest() {
        assert_eq!(max_abs_err(&[1.0, 5.0], &[1.5, 4.0]), 1.0);
    }

    #[test]
    fn sqnr_infinite_for_exact() {
        assert!(sqnr_db(&[1.0, 2.0], &[1.0, 2.0]).is_infinite());
    }

    #[test]
    fn sqnr_drops_with_noise() {
        let sig = [1.0f32; 100];
        let small: Vec<f32> = sig.iter().map(|x| x + 0.01).collect();
        let large: Vec<f32> = sig.iter().map(|x| x + 0.1).collect();
        assert!(sqnr_db(&sig, &small) > sqnr_db(&sig, &large));
        assert!((sqnr_db(&sig, &small) - 40.0).abs() < 0.5);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(max_abs_err(&[], &[]), 0.0);
        assert!(sqnr_db(&[], &[]).is_infinite());
    }
}
