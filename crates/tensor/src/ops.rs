//! Neural-network primitives: log-softmax, normalization, activations, argmax.

use crate::Matrix;

/// Numerically-stable log-softmax of a single row, into a new vector.
///
/// Not on the served path: the form the suites read, e.g. `anda-llm`'s
/// `kv_api.rs` rebuilding perplexity's NLL token by token.
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    log_softmax_into(row, &mut out);
    out
}

/// [`log_softmax`] into a caller-provided buffer (cleared and refilled),
/// for per-token hot paths that must not reallocate.
pub fn log_softmax_into(row: &[f32], out: &mut Vec<f32>) {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    out.clear();
    out.extend(row.iter().map(|&x| x - max - log_sum));
}

/// LayerNorm over each row: `gain ⊙ (x - mean)/sqrt(var + eps) + bias`.
///
/// # Panics
///
/// Panics if `gain`/`bias` lengths differ from the column count.
pub fn layer_norm(m: &mut Matrix, gain: &[f32], bias: &[f32], eps: f32) {
    let cols = m.cols();
    assert_eq!(gain.len(), cols, "layer_norm gain length");
    assert_eq!(bias.len(), cols, "layer_norm bias length");
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for ((x, &g), &b) in row.iter_mut().zip(gain).zip(bias) {
            *x = (*x - mean) * inv * g + b;
        }
    }
}

/// RMSNorm over each row: `gain ⊙ x / sqrt(mean(x²) + eps)` (LLaMA-style).
///
/// # Panics
///
/// Panics if `gain` length differs from the column count.
pub fn rms_norm(m: &mut Matrix, gain: &[f32], eps: f32) {
    let cols = m.cols();
    assert_eq!(gain.len(), cols, "rms_norm gain length");
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let ms = row.iter().map(|&x| x * x).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (x, &g) in row.iter_mut().zip(gain) {
            *x = *x * inv * g;
        }
    }
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Sigmoid-weighted linear unit (`x · σ(x)`), the LLaMA FFN activation.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    /// The softmax the workspace runs: `exp` of [`log_softmax`] (sampling,
    /// and the same form as the KV page walk's).
    fn softmax(row: &[f32]) -> Vec<f32> {
        log_softmax(row).into_iter().map(f32::exp).collect()
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        for r in 0..m.rows() {
            assert_close(softmax(m.row(r)).iter().sum(), 1.0, 1e-6);
        }
        // Monotone: larger logit → larger probability.
        let p = softmax(m.row(0));
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for c in 0..3 {
            assert_close(a[c], b[c], 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        // The textbook form: exponentials over their sum.
        let row = [0.5f32, -1.0, 2.0];
        let sum: f32 = row.iter().map(|x| x.exp()).sum();
        let ls = log_softmax(&row);
        for c in 0..3 {
            assert_close(ls[c], (row[c].exp() / sum).ln(), 1e-5);
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let gain = vec![1.0; 4];
        let bias = vec![0.0; 4];
        layer_norm(&mut m, &gain, &bias, 1e-5);
        assert_close(m.row(0).iter().sum::<f32>(), 0.0, 1e-5);
        let var: f32 = m.row(0).iter().map(|x| x * x).sum::<f32>() / 4.0;
        assert_close(var, 1.0, 1e-3);
    }

    #[test]
    fn layer_norm_gain_bias_applied() {
        let mut m = Matrix::from_rows(&[&[1.0, -1.0]]);
        layer_norm(&mut m, &[2.0, 2.0], &[1.0, 1.0], 0.0);
        // normalized = [1, -1]; gain 2 bias 1 -> [3, -1]
        assert_close(m[(0, 0)], 3.0, 1e-5);
        assert_close(m[(0, 1)], -1.0, 1e-5);
    }

    #[test]
    fn rms_norm_preserves_direction() {
        let mut m = Matrix::from_rows(&[&[3.0, 4.0]]);
        rms_norm(&mut m, &[1.0, 1.0], 0.0);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert_close(m[(0, 0)], 3.0 / rms, 1e-5);
        assert_close(m[(0, 1)], 4.0 / rms, 1e-5);
    }

    #[test]
    fn activations_match_references() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_close(silu(0.0), 0.0, 1e-7);
        assert_close(silu(10.0), 10.0, 1e-3);
    }

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    /// A target's cross-entropy, `-log_softmax(row)[target]` — the term
    /// perplexity sums (`anda_llm::eval`).
    fn nll(row: &[f32], target: usize) -> f32 {
        -log_softmax(row)[target]
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_vocab() {
        for t in 0..8 {
            assert_close(nll(&[0.0; 8], t), 8f32.ln(), 1e-6);
        }
    }

    #[test]
    fn cross_entropy_rewards_correct_confidence() {
        let mut logits = [0.0f32; 4];
        logits[2] = 10.0;
        assert!(nll(&logits, 2) < 0.01);
        assert!(nll(&logits, 1) > 5.0);
    }
}
