//! Deterministic synthetic weight generation with controllable activation
//! outlier structure.
//!
//! The paper's accuracy results hinge on *where* FP activations have wide
//! intra-group dynamic range: outlier channels force large shared exponents,
//! so small group members lose mantissa bits when truncated (Fig. 4). The
//! LLM literature locates these outliers in specific hidden channels,
//! amplified by LayerNorm gains. [`SensitivityProfile`] exposes exactly that
//! dial per module type: channels with boosted norm gains feed `A_qkv`/`A_u`,
//! boosted value-projection columns shape `A_o`, and boosted up-projection
//! columns shape `A_d`. Profiles are calibrated per simulated model so the
//! family-level orderings reported by the paper (OPT more tolerant than
//! LLaMA; `A_qkv` most sensitive) emerge from the same mechanism.

use core::ops::Range;

use anda_tensor::{Matrix, PackedMatrix, Rng};

/// Outlier-channel specification: `count` channels get their magnitude
/// multiplied by `gain`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutlierSpec {
    /// Number of boosted channels.
    pub count: usize,
    /// Multiplicative boost applied to those channels.
    pub gain: f32,
}

impl OutlierSpec {
    /// No outliers.
    pub const NONE: OutlierSpec = OutlierSpec {
        count: 0,
        gain: 1.0,
    };

    /// Convenience constructor.
    pub const fn new(count: usize, gain: f32) -> Self {
        OutlierSpec { count, gain }
    }
}

/// Per-model activation-outlier calibration (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensitivityProfile {
    /// Outliers in the attention-input norm gain (drives `A_qkv` range).
    pub qkv: OutlierSpec,
    /// Outliers in value-projection output channels (drives `A_o` range).
    pub o: OutlierSpec,
    /// Outliers in the FFN-input norm gain (drives `A_u` range).
    pub u: OutlierSpec,
    /// Outliers in up-projection output channels (drives `A_d` range).
    pub d: OutlierSpec,
    /// Scale applied to the embedding table; larger values sharpen the
    /// output distribution (lower reference perplexity, higher sensitivity
    /// of PPL to logit noise).
    pub logit_sharpness: f32,
    /// Base standard deviation of dense weights.
    pub weight_std: f32,
}

/// Boosts `spec.count` deterministic channels of `values` by `spec.gain`.
pub fn apply_outliers(values: &mut [f32], spec: OutlierSpec, rng: &mut Rng) {
    if spec.count == 0 || values.is_empty() {
        return;
    }
    for _ in 0..spec.count {
        let idx = rng.below(values.len());
        values[idx] *= spec.gain;
    }
}

/// Samples a norm gain vector around 1.0 with outlier channels.
pub fn norm_gain(dim: usize, spec: OutlierSpec, rng: &mut Rng) -> Vec<f32> {
    let mut gain: Vec<f32> = (0..dim).map(|_| 1.0 + rng.normal_with(0.0, 0.15)).collect();
    apply_outliers(&mut gain, spec, rng);
    gain
}

/// Samples a small bias vector.
pub fn norm_bias(dim: usize, rng: &mut Rng) -> Vec<f32> {
    (0..dim).map(|_| rng.normal_with(0.0, 0.02)).collect()
}

/// Samples a dense weight matrix with std `std / sqrt(rows)` (variance-
/// preserving fan-in scaling).
pub fn dense(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    dense_into(&mut m, rows, cols, std, rng);
    m
}

/// [`dense`] into `m`, reshaped to `rows × cols` and reusing its
/// allocation.
pub fn dense_into(m: &mut Matrix, rows: usize, cols: usize, std: f32, rng: &mut Rng) {
    m.resize(rows, cols);
    let scaled = std / (rows as f32).sqrt();
    rng.fill_normal(m.as_mut_slice(), scaled);
}

/// Boosts `spec.count` output columns of a weight matrix, drawn from
/// `cols`, by `spec.gain` (creates outlier channels in that projection's
/// *output* activation).
pub fn boost_columns(m: &mut PackedMatrix, cols: Range<usize>, spec: OutlierSpec, rng: &mut Rng) {
    for _ in 0..spec.count {
        let c = cols.start + rng.below(cols.len());
        m.col_mut(c).for_each(|w| *w *= spec.gain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outliers_boost_selected_channels() {
        let mut rng = Rng::new(1);
        let mut v = vec![1.0f32; 100];
        apply_outliers(&mut v, OutlierSpec::new(3, 10.0), &mut rng);
        let boosted = v.iter().filter(|&&x| x > 5.0).count();
        assert!((1..=3).contains(&boosted));
    }

    #[test]
    fn none_spec_is_identity() {
        let mut rng = Rng::new(2);
        let mut v = vec![2.0f32; 10];
        apply_outliers(&mut v, OutlierSpec::NONE, &mut rng);
        assert_eq!(v, vec![2.0f32; 10]);
    }

    #[test]
    fn norm_gain_centers_near_one() {
        let mut rng = Rng::new(3);
        let g = norm_gain(1000, OutlierSpec::NONE, &mut rng);
        let mean = g.iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn norm_gain_with_outliers_has_wide_range() {
        let mut rng = Rng::new(4);
        let g = norm_gain(256, OutlierSpec::new(4, 20.0), &mut rng);
        let max = g.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        assert!(max > 10.0);
    }

    #[test]
    fn dense_uses_fan_in_scaling() {
        let mut rng = Rng::new(5);
        let m = dense(400, 50, 1.0, &mut rng);
        let var = m.as_slice().iter().map(|x| x * x).sum::<f32>() / m.len() as f32;
        assert!((var - 1.0 / 400.0).abs() < 0.3 / 400.0 * 10.0, "var {var}");
    }

    #[test]
    fn boost_columns_scales_whole_columns() {
        let mut rng = Rng::new(6);
        // Three rows of 34 columns, the last two in a strip of their own;
        // the boost draws from those two.
        let mut m = PackedMatrix::pack(&Matrix::from_vec(3, 34, vec![1.0; 102]));
        boost_columns(&mut m, 32..34, OutlierSpec::new(1, 5.0), &mut rng);
        // Exactly one column is 5.0s, every other one 1.0s.
        let m = m.to_matrix();
        let boosted: Vec<usize> = (0..34).filter(|&c| m[(0, c)] == 5.0).collect();
        assert!(boosted == [32] || boosted == [33], "{boosted:?}");
        for c in 0..34 {
            assert!((0..3).all(|r| m[(r, c)] == m[(0, c)]), "column {c}");
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = dense(10, 10, 1.0, &mut Rng::new(7));
        let b = dense(10, 10, 1.0, &mut Rng::new(7));
        assert_eq!(a, b);
    }
}
