//! Neural-network primitives: softmax, log-softmax, normalization,
//! activations, argmax.

use crate::Matrix;
use anda_fp::exp::exp_in_place_with_leg;
use anda_fp::{active_leg, SimdLeg};

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
/// for per-token hot paths that must not reallocate: `x − max − ln Σ
/// exp(x − max)`, with the sum [`softmax_rows_in_place_with_leg`] takes.
pub fn log_softmax_into(row: &[f32], out: &mut Vec<f32>) {
    let [(max, log_sum)] = max_and_log_sum(active_leg(), [row]);
    out.clear();
    out.extend(row.iter().map(|&x| x - max - log_sum));
}

/// The softmax of each row in place, on `leg`: `x ← exp(x − max − ln Σ
/// exp(x − max))`, the `exp` of [`log_softmax`] (the attention walk's
/// score rows, the sampler's probabilities). The rows are
/// `scores.chunks_mut(stride)`, row `r` its first `len(r)` scores; every
/// `exp` is [`anda_fp::exp::expf`]'s bits, and each row's sum is one
/// `f32` add chain in index order, so a row's result depends neither on
/// the leg nor on the rows beside it.
///
/// # Panics
///
/// Panics if row `r` is shorter than `len(r)`.
pub fn softmax_rows_in_place_with_leg(
    leg: SimdLeg,
    scores: &mut [f32],
    stride: usize,
    len: impl Fn(usize) -> usize,
) {
    let (mut first, mut rest) = (0, scores);
    while !rest.is_empty() {
        // The widest group of 8, 4, 2 or 1 rows that is left.
        let rows = match rest.len().div_ceil(stride) {
            8.. => 8,
            n => 1 << n.ilog2(),
        };
        let (group, tail) = rest.split_at_mut(rest.len().min(rows * stride));
        let len = |g| len(first + g);
        match rows {
            8 => softmax_group::<8>(leg, group, stride, len),
            4 => softmax_group::<4>(leg, group, stride, len),
            2 => softmax_group::<2>(leg, group, stride, len),
            _ => softmax_group::<1>(leg, group, stride, len),
        }
        (first, rest) = (first + rows, tail);
    }
}

/// [`softmax_rows_in_place_with_leg`] on the `N` rows of `group`.
fn softmax_group<const N: usize>(
    leg: SimdLeg,
    group: &mut [f32],
    stride: usize,
    len: impl Fn(usize) -> usize,
) {
    let rows: [&[f32]; N] = std::array::from_fn(|g| &group[g * stride..][..len(g)]);
    let stats = max_and_log_sum(leg, rows);
    for (g, (row, (max, log_sum))) in group.chunks_mut(stride).zip(stats).enumerate() {
        let row = &mut row[..len(g)];
        for x in row.iter_mut() {
            *x = *x - max - log_sum;
        }
        exp_in_place_with_leg(leg, row);
    }
}

/// Scores of a row that [`max_and_log_sum`] exponentiates at a time, into
/// a stack chunk.
const CHUNK: usize = 64;

/// Each row's max and `ln Σ exp(x − max)`, the `exp`s on `leg`. A row's
/// sum is one add chain in index order, as `Iterator::sum` makes it; the
/// `N` rows' chains run side by side, a shorter row's padded with `+0`
/// terms after its own. No term is `−0`, so the padding changes no sum
/// but an empty row's `−0`, and `ln` maps `±0` alike.
fn max_and_log_sum<const N: usize>(leg: SimdLeg, rows: [&[f32]; N]) -> [(f32, f32); N] {
    let max = rows.map(|row| row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)));
    let len = rows.iter().map(|row| row.len()).max().unwrap_or(0);
    let (mut sum, mut chunk) = ([-0f32; N], [[0f32; CHUNK]; N]);
    for start in (0..len).step_by(CHUNK) {
        let n = CHUNK.min(len - start);
        for ((chunk, row), m) in chunk.iter_mut().zip(rows).zip(max) {
            let (terms, pad) = chunk[..n].split_at_mut(row.len().saturating_sub(start).min(n));
            for (c, &x) in terms.iter_mut().zip(&row[start.min(row.len())..]) {
                *c = x - m;
            }
            exp_in_place_with_leg(leg, terms);
            pad.fill(0.0);
        }
        for k in 0..n {
            for (s, chunk) in sum.iter_mut().zip(&chunk) {
                *s += chunk[k];
            }
        }
    }
    std::array::from_fn(|g| (max[g], sum[g].ln()))
}

/// `hidden ← hidden · silu(gate)`, the LLaMA FFN's gated activation,
/// with `silu(g) = g / (1 + exp(−g))` and the `exp`s on `leg`, a stack
/// chunk at a time.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn silu_mul_in_place_with_leg(leg: SimdLeg, hidden: &mut [f32], gate: &[f32]) {
    assert_eq!(hidden.len(), gate.len(), "silu gate length");
    let mut e = [0f32; CHUNK];
    for (hidden, gate) in hidden.chunks_mut(CHUNK).zip(gate.chunks(CHUNK)) {
        let e = &mut e[..gate.len()];
        for (e, &g) in e.iter_mut().zip(gate) {
            *e = -g;
        }
        exp_in_place_with_leg(leg, e);
        for ((u, &g), &e) in hidden.iter_mut().zip(gate).zip(&*e) {
            *u *= g / (1.0 + e);
        }
    }
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

    /// The softmax the workspace runs (sampling, the KV page walk).
    fn softmax(row: &[f32]) -> Vec<f32> {
        let mut p = row.to_vec();
        softmax_rows_in_place_with_leg(active_leg(), &mut p, row.len(), |_| row.len());
        p
    }

    /// Whether the host's `f32::exp` is the port's build: glibc's x86-64
    /// `expf` runs its fused build only where the CPU has FMA.
    fn libm_is_the_port() -> bool {
        #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
        return std::arch::is_x86_feature_detected!("fma");
        #[allow(unreachable_code)]
        false
    }

    /// The softmax the walk and the sampler ran before they shared one:
    /// `exp` of the log-softmax, two libm `exp`s per score. Where the host
    /// libm may round differently from the port, the port stands in for
    /// it.
    fn two_exp_softmax(row: &[f32]) -> Vec<f32> {
        let exp = |x: f32| match libm_is_the_port() {
            true => x.exp(),
            false => anda_fp::exp::expf(x),
        };
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let log_sum: f32 = row.iter().map(|&x| exp(x - max)).sum::<f32>().ln();
        row.iter().map(|&x| exp(x - max - log_sum)).collect()
    }

    #[test]
    fn the_one_softmax_is_the_two_exp_formula_on_every_leg() {
        let mut rng = crate::Rng::new(41);
        for len in [1usize, 2, 9, 64, 65, 300] {
            // Rows of three lengths (a window of one, or none, among them).
            let row_len = |r: usize| len.saturating_sub(r % 3 * 7);
            for rows in 1..=11 {
                let stride = len + 5;
                // Scores from −150 to +10, so rows spread past −104 below
                // their max, where `exp` is 0; every 7th is −inf.
                let mut scores: Vec<f32> = (0..rows * stride)
                    .map(|i| match i % 7 {
                        3 => f32::NEG_INFINITY,
                        _ => (rng.uniform() * 160.0 - 150.0) as f32,
                    })
                    .collect();
                // Row 1 is −inf throughout; row 2's max is −0 and +0.
                if rows > 2 {
                    scores[stride..2 * stride].fill(f32::NEG_INFINITY);
                    let row = &mut scores[2 * stride..3 * stride];
                    row.iter_mut().for_each(|x| *x = x.min(-1.0));
                    row[0] = -0.0;
                    row[row_len(2).saturating_sub(1)] = 0.0;
                }
                let want: Vec<Vec<f32>> = scores
                    .chunks(stride)
                    .enumerate()
                    .map(|(r, row)| two_exp_softmax(&row[..row_len(r)]))
                    .collect();
                for leg in anda_fp::available_legs() {
                    let mut got = scores.clone();
                    softmax_rows_in_place_with_leg(leg, &mut got, stride, row_len);
                    let rows = got.chunks(stride).zip(scores.chunks(stride)).zip(&want);
                    for (r, ((got, was), want)) in rows.enumerate() {
                        let (got, kept) = got.split_at(row_len(r));
                        let got = got.iter().map(|x| x.to_bits());
                        let want = want.iter().map(|x| x.to_bits());
                        assert!(got.eq(want), "{} len {len} row {r}", leg.name());
                        // Past its length a row is left as it was.
                        let was = was[row_len(r)..].iter().map(|x| x.to_bits());
                        assert!(kept.iter().map(|x| x.to_bits()).eq(was));
                    }
                }
            }
        }
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
        let mut hidden = [1.0; 2];
        silu_mul_in_place_with_leg(active_leg(), &mut hidden, &[0.0, 10.0]);
        assert_close(hidden[0], 0.0, 1e-7);
        assert_close(hidden[1], 10.0, 1e-3);
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
