//! Group-wise weight-only integer quantization.
//!
//! Implements the W4A16g128 scheme the paper uses as its starting point
//! (Omniquant \[66\] in the paper's Table II): weights are quantized to
//! signed 4-bit integers with one scale per group of 128 input channels.
//! The scale search is a small grid over clip ratios minimizing group MSE —
//! a cheap stand-in for Omniquant's learned clipping that serves the same
//! role (a strong PTQ baseline all activation formats start from).
//!
//! [`IntWeightMatrix::quantize`] walks the row-major `k × n` matrix in
//! memory order: for each group it sweeps the group's rows in ascending
//! order, once for the per-column maxima, once per clip ratio and once to
//! assign the integers, keeping one `n`-wide accumulator per quantity.
//! Every column therefore sees exactly the float operations, in exactly
//! the order, of a per-column loop (the test module keeps that
//! column-major walk as the oracle and pins values and scales to it,
//! scales `to_bits`): the quantised weights are what every `tokens_digest`
//! and perplexity is computed from, so not one bit may move. Rounding is
//! [`f32::round`]'s half-away-from-zero done in two float adds instead of
//! a libm call, so the loops vectorise.

use anda_tensor::{Matrix, PackedMatrix};

/// Configuration for weight quantization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightQuantConfig {
    /// Integer bit width (2..=8). The paper's deployments use 4.
    pub bits: u32,
    /// Group size along the input-channel (k) dimension.
    pub group_size: usize,
    /// Clip ratios searched when fitting each group's scale; `&[1.0]`
    /// degenerates to plain round-to-nearest (RTN).
    pub clip_ratios: &'static [f32],
}

/// Clip grid used by the omniquant-lite search.
pub const CLIP_GRID: &[f32] = &[1.0, 0.95, 0.9, 0.85, 0.8];

impl WeightQuantConfig {
    /// The paper's W4A16g128 configuration with clip search.
    pub fn w4_g128() -> Self {
        WeightQuantConfig {
            bits: 4,
            group_size: 128,
            clip_ratios: CLIP_GRID,
        }
    }

    /// W4 with 64-wide groups: the proportional scaling of W4A16g128 for
    /// the small simulated models (their hidden dims are 16-32x smaller than
    /// the real checkpoints, so a 64-wide group matches the real models'
    /// group-to-width ratio far better than 128 would).
    pub fn w4_sim() -> Self {
        WeightQuantConfig {
            bits: 4,
            group_size: 64,
            clip_ratios: CLIP_GRID,
        }
    }

    /// Plain round-to-nearest at the given bits/group size (no clip search).
    pub fn rtn(bits: u32, group_size: usize) -> Self {
        WeightQuantConfig {
            bits,
            group_size,
            clip_ratios: &[1.0],
        }
    }

    /// Largest representable magnitude: `2^(bits-1) - 1` (symmetric).
    pub fn q_max(&self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }
}

impl Default for WeightQuantConfig {
    fn default() -> Self {
        Self::w4_g128()
    }
}

/// A weight matrix quantized to signed integers with per-(group, column)
/// scales, stored `k × n` (input-major) to match `x(m×k) · W(k×n)` GeMMs.
#[derive(Clone, Debug, PartialEq)]
pub struct IntWeightMatrix {
    k: usize,
    n: usize,
    config: WeightQuantConfig,
    /// Quantized values, row-major `k × n`.
    values: Vec<i8>,
    /// Scales indexed `[group * n + col]`, `group = k_index / group_size`.
    scales: Vec<f32>,
}

impl IntWeightMatrix {
    /// Quantizes an `f32` weight matrix (`k × n`) group-wise.
    ///
    /// Each (group, column) gets a symmetric scale chosen from
    /// `config.clip_ratios` to minimize the group's squared reconstruction
    /// error (omniquant-lite).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `config` has unsupported bits.
    pub fn quantize(weights: &Matrix, config: WeightQuantConfig) -> Self {
        assert!(
            (2..=8).contains(&config.bits),
            "supported weight bits are 2..=8, got {}",
            config.bits
        );
        assert!(config.group_size > 0, "group size must be positive");
        let (k, n) = weights.shape();
        assert!(k > 0 && n > 0, "cannot quantize an empty weight matrix");

        let q_max = config.q_max() as f32;
        let mut values = vec![0i8; k * n];
        let mut scales = vec![0.0f32; k.div_ceil(config.group_size) * n];
        // Per-column state of the group being fitted.
        let mut max_abs = vec![0.0f32; n];
        let mut trial = vec![0.0f32; n];
        let mut err = vec![0.0f32; n];
        let mut best_err = vec![0.0f32; n];

        for (g, best_scale) in scales.chunks_exact_mut(n).enumerate() {
            let rows = g * config.group_size..((g + 1) * config.group_size).min(k);

            max_abs.fill(0.0);
            for r in rows.clone() {
                for (m, &w) in max_abs.iter_mut().zip(weights.row(r)) {
                    *m = m.max(w.abs());
                }
            }

            // Clip-ratio grid search minimizing squared error.
            best_err.fill(f32::INFINITY);
            for (s, &m) in best_scale.iter_mut().zip(&max_abs) {
                *s = m / q_max;
            }
            for &ratio in config.clip_ratios {
                for (s, &m) in trial.iter_mut().zip(&max_abs) {
                    *s = (m * ratio) / q_max;
                }
                err.fill(0.0);
                for r in rows.clone() {
                    for ((e, &w), &s) in err.iter_mut().zip(weights.row(r)).zip(&trial) {
                        let d = w - quantize_one(w, s, q_max) * s;
                        *e += d * d;
                    }
                }
                for (((best_e, best_s), &e), &s) in best_err
                    .iter_mut()
                    .zip(&mut *best_scale)
                    .zip(&err)
                    .zip(&trial)
                {
                    if e < *best_e {
                        (*best_e, *best_s) = (e, s);
                    }
                }
            }

            // Degenerate all-zero (or all-NaN) columns: scale 1, and their
            // ±0 / NaN weights then quantise to 0.
            for (s, &m) in best_scale.iter_mut().zip(&max_abs) {
                if m == 0.0 {
                    *s = 1.0;
                }
            }
            for r in rows {
                let out = &mut values[r * n..(r + 1) * n];
                for ((v, &w), &s) in out.iter_mut().zip(weights.row(r)).zip(&*best_scale) {
                    *v = quantize_one(w, s, q_max) as i8;
                }
            }
        }

        IntWeightMatrix {
            k,
            n,
            config,
            values,
            scales,
        }
    }

    /// Input dimension (rows).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The quantization configuration.
    pub fn config(&self) -> &WeightQuantConfig {
        &self.config
    }

    /// Quantized integer at `(row, col)`.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> i8 {
        self.values[row * self.n + col]
    }

    /// Row `r` of quantized integers.
    #[inline]
    pub fn row(&self, r: usize) -> &[i8] {
        &self.values[r * self.n..(r + 1) * self.n]
    }

    /// Scale of the group containing `k_index` for `col`.
    #[inline]
    pub fn scale_at(&self, k_index: usize, col: usize) -> f32 {
        self.scales[(k_index / self.config.group_size) * self.n + col]
    }

    /// Dequantizes back to a dense `f32` matrix, `f32::from(v) · s` per
    /// element: the values every product over [`IntWeightMatrix::pack`]
    /// multiplies by.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.k, self.n);
        let group_size = self.config.group_size;
        for r in 0..self.k {
            let scales = &self.scales[(r / group_size) * self.n..(r / group_size + 1) * self.n];
            let values = &self.values[r * self.n..(r + 1) * self.n];
            for ((slot, &v), &s) in out.row_mut(r).iter_mut().zip(values).zip(scales) {
                *slot = f32::from(v) * s;
            }
        }
        out
    }

    /// The weight as a model holds it: its codes and scales in the
    /// register tile's strip order ([`PackedMatrix::pack_int4`]), no `f32`
    /// copy. Every product over it equals, bit for bit, the one over
    /// [`IntWeightMatrix::dequantize`].
    ///
    /// # Panics
    ///
    /// Panics if the values are wider than 4 bits.
    pub fn pack(&self) -> PackedMatrix {
        let (k, n, bits) = (self.k, self.n, self.config.bits);
        assert!(bits <= 4, "a {bits}-bit weight does not pack as INT4");
        PackedMatrix::pack_int4(k, n, self.config.group_size, &self.values, &self.scales)
    }

    /// Storage footprint in bits: values at `bits` each plus FP16 scales.
    pub fn storage_bits(&self) -> usize {
        self.values.len() * self.config.bits as usize + self.scales.len() * 16
    }
}

/// `w / scale` rounded to the nearest integer in `[-q_max - 1, q_max]`.
///
/// Clamping before rounding equals rounding before clamping (the bounds
/// are integers; `±0` and NaN pass both unchanged) and keeps every input
/// of [`round_half_away`] within ±128, where it is exact.
#[inline]
fn quantize_one(w: f32, scale: f32, q_max: f32) -> f32 {
    round_half_away((w / scale).clamp(-q_max - 1.0, q_max))
}

/// [`f32::round`] — nearest integer, ties away from zero — without its
/// libm call, `to_bits`-equal for `|x| < 2^22` and on NaN (still NaN)
/// and `±inf`. Adding `2^23` rounds `|x|` to the nearest integer with
/// ties to even, and in that range subtracting it back is exact, as is
/// `|x| − r`; a tie that went down (`|x| − r == 0.5`) is bumped up.
#[inline]
fn round_half_away(x: f32) -> f32 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let a = x.abs();
    let r = (a + TWO_POW_23) - TWO_POW_23;
    let r = if a - r == 0.5 { r + 1.0 } else { r };
    r.copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_tensor::Rng;
    use proptest::prelude::*;

    fn random_weights(k: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let mut m = Matrix::zeros(k, n);
        rng.fill_normal(m.as_mut_slice(), 0.05);
        m
    }

    /// The column-major walk `quantize` replaced: one column at a time,
    /// one group at a time, `f32::round`. The oracle of the row-major one.
    fn quantize_column_major(weights: &Matrix, config: WeightQuantConfig) -> IntWeightMatrix {
        let (k, n) = weights.shape();
        let n_groups = k.div_ceil(config.group_size);
        let q_max = config.q_max() as f32;
        let mut values = vec![0i8; k * n];
        let mut scales = vec![0.0f32; n_groups * n];
        for col in 0..n {
            for g in 0..n_groups {
                let k_start = g * config.group_size;
                let k_end = (k_start + config.group_size).min(k);
                let max_abs = (k_start..k_end)
                    .map(|r| weights[(r, col)].abs())
                    .fold(0.0f32, f32::max);
                if max_abs == 0.0 {
                    scales[g * n + col] = 1.0;
                    continue;
                }
                let mut best = (f32::INFINITY, max_abs / q_max);
                for &ratio in config.clip_ratios {
                    let scale = (max_abs * ratio) / q_max;
                    let mut err = 0.0f32;
                    for r in k_start..k_end {
                        let w = weights[(r, col)];
                        let q = (w / scale).round().clamp(-q_max - 1.0, q_max);
                        let d = w - q * scale;
                        err += d * d;
                    }
                    if err < best.0 {
                        best = (err, scale);
                    }
                }
                let scale = best.1;
                scales[g * n + col] = scale;
                for r in k_start..k_end {
                    let q = (weights[(r, col)] / scale)
                        .round()
                        .clamp(-q_max - 1.0, q_max);
                    values[r * n + col] = q as i8;
                }
            }
        }
        IntWeightMatrix {
            k,
            n,
            config,
            values,
            scales,
        }
    }

    /// `k × n` weights whose every (group, column) block is, at random,
    /// normal, all zero, normal plus one outlier, subnormal only, or
    /// `q_max · s` plus values on the `(j + 0.5) · s` ties of the RTN
    /// scale `s = 2^e` (exact, so ratio 1.0 meets real ties).
    fn adversarial_weights(k: usize, n: usize, group_size: usize, q_max: i32, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let mut w = Matrix::zeros(k, n);
        for g in 0..k.div_ceil(group_size) {
            let rows = g * group_size..((g + 1) * group_size).min(k);
            for c in 0..n {
                let kind = rng.below(5);
                let s = 2.0f32.powi(-(rng.below(12) as i32));
                let outlier = rows.start + rng.below(rows.len());
                for r in rows.clone() {
                    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                    w[(r, c)] = match kind {
                        0 => rng.normal_with(0.0, 0.05),
                        1 => 0.0 * sign,
                        2 if r == outlier => sign * 2.0,
                        2 => rng.normal_with(0.0, 0.05),
                        3 => sign * f32::from_bits(1 + rng.below(0x007F_FFFF) as u32),
                        _ if r == outlier => sign * q_max as f32 * s,
                        _ => sign * (rng.below(q_max as usize) as f32 + 0.5) * s,
                    };
                }
            }
        }
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        /// The row-major walk is the column-major one, bit for bit.
        #[test]
        fn row_major_quantiser_equals_the_column_major_oracle(
            bits in 2u32..=8,
            group in 0usize..4,
            k in 1usize..=200,
            n in 1usize..=40,
            clip in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let group_size = [1, 7, 64, 128][group];
            let config = if clip {
                WeightQuantConfig { bits, group_size, clip_ratios: CLIP_GRID }
            } else {
                WeightQuantConfig::rtn(bits, group_size)
            };
            let w = adversarial_weights(k, n, group_size, config.q_max(), seed);
            let (fast, oracle) = (IntWeightMatrix::quantize(&w, config), quantize_column_major(&w, config));
            prop_assert_eq!(&fast.values, &oracle.values);
            let bits = |q: &IntWeightMatrix| q.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast), bits(&oracle));
        }
    }

    #[test]
    fn round_half_away_is_f32_round() {
        let check = |x: f32| {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
        };
        for j in 0..1u32 << 16 {
            let tie = j as f32 + 0.5;
            for t in [tie, tie.next_up(), tie.next_down()] {
                check(t);
                check(-t);
            }
        }
        let mut rng = Rng::new(26);
        for _ in 0..1_000_000 {
            let x = (rng.uniform() * 2.0 - 1.0) as f32 * 2.0f32.powi(rng.below(23) as i32);
            check(x);
        }
        for x in [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ] {
            check(x);
        }
        assert!(round_half_away(f32::NAN).is_nan());
    }

    #[test]
    fn q_max_per_bits() {
        assert_eq!(WeightQuantConfig::rtn(4, 128).q_max(), 7);
        assert_eq!(WeightQuantConfig::rtn(8, 128).q_max(), 127);
        assert_eq!(WeightQuantConfig::rtn(2, 128).q_max(), 1);
    }

    #[test]
    fn rtn_error_bounded_by_half_scale() {
        let w = random_weights(256, 16, 1);
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128));
        let wq = q.dequantize();
        for r in 0..256 {
            for c in 0..16 {
                let err = (w[(r, c)] - wq[(r, c)]).abs();
                assert!(
                    err <= q.scale_at(r, c) * 0.5 + 1e-7,
                    "r={r} c={c} err={err}"
                );
            }
        }
    }

    #[test]
    fn values_fit_bit_range() {
        let w = random_weights(128, 8, 2);
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::w4_g128());
        for r in 0..128 {
            for c in 0..8 {
                let v = q.value(r, c);
                assert!((-8..=7).contains(&v), "v={v}");
            }
        }
    }

    #[test]
    fn clip_search_never_worse_than_rtn() {
        let mut w = random_weights(128, 4, 3);
        // Inject outliers so clipping helps.
        w[(5, 0)] = 2.0;
        w[(77, 2)] = -3.0;
        let rtn = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128));
        let lite = IntWeightMatrix::quantize(&w, WeightQuantConfig::w4_g128());
        let err = |q: &IntWeightMatrix| {
            let d = q.dequantize();
            w.as_slice()
                .iter()
                .zip(d.as_slice())
                .map(|(&a, &b)| f64::from((a - b) * (a - b)))
                .sum::<f64>()
        };
        assert!(err(&lite) <= err(&rtn) + 1e-9);
    }

    #[test]
    fn group_scales_are_local() {
        // Two groups with very different magnitudes get different scales.
        let mut w = Matrix::zeros(256, 1);
        for r in 0..128 {
            w[(r, 0)] = 1.0;
        }
        for r in 128..256 {
            w[(r, 0)] = 0.001;
        }
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128));
        assert!(q.scale_at(0, 0) > 100.0 * q.scale_at(128, 0));
        // Small group survives quantization thanks to its own scale.
        let d = q.dequantize();
        assert!((d[(200, 0)] - 0.001).abs() < 0.0005);
    }

    #[test]
    fn partial_last_group_handled() {
        let w = random_weights(100, 4, 4); // 100 = 128·0 + remainder
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 64));
        let d = q.dequantize();
        assert_eq!(d.shape(), (100, 4));
    }

    #[test]
    fn all_zero_group_round_trips() {
        let w = Matrix::zeros(128, 2);
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::w4_g128());
        assert_eq!(q.dequantize(), w);
    }

    #[test]
    fn storage_accounting() {
        let w = random_weights(128, 4, 5);
        let q = IntWeightMatrix::quantize(&w, WeightQuantConfig::w4_g128());
        assert_eq!(q.storage_bits(), 128 * 4 * 4 + 4 * 16);
    }
}
