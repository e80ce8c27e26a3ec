//! Deterministic pseudo-random number generation (xoshiro256\*\*).
//!
//! Synthetic model weights, calibration corpora and workload generators must
//! be bit-reproducible across runs and platforms, so this module implements a
//! small, seedable generator with uniform and Gaussian sampling instead of
//! depending on `rand`'s distribution stack.

/// A seedable xoshiro256\*\* generator with convenience samplers.
///
/// # Example
///
/// ```
/// use anda_tensor::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng {
            state,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Multiply-shift bounded sampling (Lemire); the tiny modulo bias of
        // the plain approach is irrelevant here but this is just as cheap.
        let x = self.next_u64();
        ((u128::from(x) * n as u128) >> 64) as usize
    }

    /// Standard normal sample (Box–Muller, cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u in (0,1] to avoid ln(0).
        let u = 1.0 - self.uniform();
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = core::f64::consts::TAU * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation, as `f32`.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal() as f32
    }

    /// Student-t-like heavy-tailed sample: normal scaled by an inverse-chi
    /// style factor. `tail` in (0, 1]: smaller = heavier tails. Used to model
    /// activation outlier channels.
    pub fn heavy_tailed(&mut self, scale: f32, tail: f32) -> f32 {
        let z = self.normal() as f32;
        let u = self.uniform() as f32;
        // With probability `tail`, boost the magnitude substantially.
        if u < tail {
            z * scale * 8.0
        } else {
            z * scale
        }
    }

    /// Samples an index from a discrete probability distribution.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty.
    pub fn categorical(&mut self, probs: &[f32]) -> usize {
        assert!(!probs.is_empty(), "categorical over empty distribution");
        let target = self.uniform() as f32 * probs.iter().sum::<f32>();
        let mut acc = 0.0f32;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if target < acc {
                return i;
            }
        }
        probs.len() - 1
    }

    /// Fills a slice with standard normal samples scaled by `std`.
    pub fn fill_normal(&mut self, out: &mut [f32], std: f32) {
        for x in out {
            *x = self.normal_with(0.0, std);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut r = Rng::new(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let i = r.below(8);
            assert!(i < 8);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Rng::new(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn heavy_tailed_has_larger_extremes_than_normal() {
        let mut r = Rng::new(6);
        let max_heavy = (0..5000)
            .map(|_| r.heavy_tailed(1.0, 0.02).abs())
            .fold(0.0f32, f32::max);
        let mut r2 = Rng::new(6);
        let max_norm = (0..5000)
            .map(|_| r2.normal_with(0.0, 1.0).abs())
            .fold(0.0f32, f32::max);
        assert!(max_heavy > max_norm, "{max_heavy} vs {max_norm}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = Rng::new(8);
        let probs = [0.1f32, 0.0, 0.9];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[r.categorical(&probs)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn categorical_handles_unnormalized_weights() {
        let mut r = Rng::new(9);
        let idx = r.categorical(&[0.0, 5.0, 0.0]);
        assert_eq!(idx, 1);
    }
}
