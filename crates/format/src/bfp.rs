//! Classic block floating point (BFP) with arbitrary group size.
//!
//! This is the design space explored in §II of the paper (Figs. 4–7): FP16
//! tensors are split into groups of `group_size` consecutive elements, each
//! group shares its maximum exponent, and mantissas are right-shifted and
//! truncated to `mantissa_bits`. The hardware-oriented [`crate::anda`] format
//! restricts the group size to ≤ 64 lanes and adds the bit-plane layout; this
//! module has no such restriction and is what the accuracy sweeps use.

use anda_fp::{RoundingMode, F16};

use crate::align::{align_group, AlignedGroup};
use crate::error::FormatError;

/// Configuration of a BFP conversion: group size, mantissa length, rounding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfpConfig {
    group_size: usize,
    mantissa_bits: u32,
    rounding: RoundingMode,
}

impl BfpConfig {
    /// Creates a configuration with truncation rounding (the paper's mode).
    ///
    /// # Errors
    ///
    /// Returns an error for a zero group size or a mantissa length outside
    /// 1..=16.
    pub fn new(group_size: usize, mantissa_bits: u32) -> Result<Self, FormatError> {
        Self::with_rounding(group_size, mantissa_bits, RoundingMode::Truncate)
    }

    /// Creates a configuration with an explicit rounding mode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BfpConfig::new`].
    pub fn with_rounding(
        group_size: usize,
        mantissa_bits: u32,
        rounding: RoundingMode,
    ) -> Result<Self, FormatError> {
        if group_size == 0 {
            return Err(FormatError::InvalidGroupSize {
                requested: 0,
                max: usize::MAX,
            });
        }
        if !(1..=16).contains(&mantissa_bits) {
            return Err(FormatError::InvalidMantissaBits {
                requested: mantissa_bits,
                range: (1, 16),
            });
        }
        Ok(BfpConfig {
            group_size,
            mantissa_bits,
            rounding,
        })
    }

    /// Elements per shared-exponent group.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Mantissa length in bits.
    #[inline]
    pub fn mantissa_bits(&self) -> u32 {
        self.mantissa_bits
    }

    /// Rounding mode applied during alignment.
    #[inline]
    pub fn rounding(&self) -> RoundingMode {
        self.rounding
    }
}

/// One shared-exponent group of BFP elements.
pub type BfpGroup = AlignedGroup;

/// A tensor stored in BFP format: consecutive groups over a flat buffer.
///
/// The final group may be shorter than `group_size` when the element count is
/// not a multiple of the group size.
#[derive(Clone, Debug, PartialEq)]
pub struct BfpTensor {
    config: BfpConfig,
    groups: Vec<BfpGroup>,
    len: usize,
}

impl BfpTensor {
    /// Quantizes a slice of FP16 values.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::NonFinite`] (with the *global* element index)
    /// if the input contains NaN or infinity.
    pub fn from_f16(values: &[F16], config: BfpConfig) -> Result<Self, FormatError> {
        let mut groups = Vec::with_capacity(values.len().div_ceil(config.group_size));
        for (gi, chunk) in values.chunks(config.group_size).enumerate() {
            let group =
                align_group(chunk, config.mantissa_bits, config.rounding).map_err(|e| match e {
                    FormatError::NonFinite { index } => FormatError::NonFinite {
                        index: gi * config.group_size + index,
                    },
                    other => other,
                })?;
            groups.push(group);
        }
        Ok(BfpTensor {
            config,
            groups,
            len: values.len(),
        })
    }

    /// Quantizes `f32` values by first rounding them to FP16 (the W4A16
    /// activation path: FP32 accumulator output → FP16 → BFP).
    ///
    /// Values outside the FP16 range are clamped to ±65504 so that activation
    /// spikes degrade gracefully instead of erroring, mirroring saturating
    /// hardware casts.
    pub fn from_f32_saturating(values: &[f32], config: BfpConfig) -> Self {
        let f16s: Vec<F16> = values.iter().map(|&v| saturate_to_f16(v)).collect();
        Self::from_f16(&f16s, config).expect("saturated values are always finite")
    }

    /// The conversion configuration.
    pub fn config(&self) -> &BfpConfig {
        &self.config
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared-exponent groups.
    pub fn groups(&self) -> &[BfpGroup] {
        &self.groups
    }

    /// Dequantizes the whole tensor back to `f32`.
    pub fn to_f32(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.write_f32(&mut out);
        out
    }

    /// Dequantizes into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn write_f32(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "write_f32 length mismatch");
        let mut offset = 0usize;
        for g in &self.groups {
            let ulp = g.ulp();
            for (e, slot) in g.elements.iter().zip(&mut out[offset..]) {
                *slot = e.dequantize(ulp);
            }
            offset += g.elements.len();
        }
    }

    /// Total storage footprint in bits: per group, one sign bit per element,
    /// a 5-bit shared exponent, and M bits per element mantissa.
    pub fn storage_bits(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.elements.len() * (1 + self.config.mantissa_bits as usize) + 5)
            .sum()
    }

    /// Mean bits per element (FP16 would be 16.0).
    pub fn bits_per_element(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.storage_bits() as f64 / self.len as f64
        }
    }
}

/// Rounds an `f32` to FP16, clamping overflow to ±65504 (finite).
///
/// Re-exported from `anda-fp` so the SIMD batch kernels there and the
/// format/KV layers here agree on one saturation definition.
pub use anda_fp::f16::saturate_to_f16;

/// Convenience: quantize → dequantize an `f32` slice through BFP, returning
/// the values a BFP-converted activation tensor would carry.
pub fn fake_quantize_f32(values: &[f32], config: BfpConfig) -> Vec<f32> {
    BfpTensor::from_f32_saturating(values, config).to_f32()
}

/// [`fake_quantize_f32`] in place — the per-layer activation codecs' hot
/// path.
///
/// This streams group by group with **no heap allocation**: the shared
/// exponent comes from a first pass over the group, each element is then
/// aligned and dequantized where it lies. The saturating FP16 cast
/// runs twice per element, trading a little redundant bit math for zero
/// allocations; results are bit-identical to the [`BfpTensor`] path.
pub fn fake_quantize_f32_in_place(values: &mut [f32], config: BfpConfig) {
    let m = config.mantissa_bits;
    for chunk in values.chunks_mut(config.group_size) {
        let shared_exp = chunk
            .iter()
            .map(|&v| saturate_to_f16(v).significand().biased_exp)
            .max()
            .unwrap_or(1);
        let ulp = crate::align::exp2f(i32::from(shared_exp) - 14 - m as i32);
        for v in chunk {
            let sig = saturate_to_f16(*v).significand();
            let e = crate::align::align_element(sig, shared_exp, m, config.rounding);
            *v = e.dequantize(ulp);
        }
    }
}

/// Re-export for group element access.
pub use crate::align::SignMag as BfpElement;

#[cfg(test)]
mod tests {
    use super::*;

    fn f16s(vals: &[f32]) -> Vec<F16> {
        vals.iter().map(|&v| F16::from_f32(v)).collect()
    }

    #[test]
    fn streaming_fake_quantize_is_bit_identical_to_tensor_path() {
        // Mix of zeros, signs, subnormals, spread exponents, saturation.
        let mut vals: Vec<f32> = (0..200)
            .map(|i| ((i as f32) - 100.0) * ((i as f32 * 0.7).sin() * 37.5))
            .collect();
        vals.extend_from_slice(&[0.0, -0.0, 1e-7, -1e-7, 7e4, -7e4, 65504.0]);
        for (gs, m) in [(64usize, 4u32), (64, 8), (3, 1), (7, 16), (128, 11)] {
            let cfg = BfpConfig::new(gs, m).unwrap();
            let via_tensor = fake_quantize_f32(&vals, cfg);
            let mut streamed = vals.clone();
            fake_quantize_f32_in_place(&mut streamed, cfg);
            for (i, (&a, &b)) in via_tensor.iter().zip(&streamed).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "gs={gs} m={m} i={i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(BfpConfig::new(0, 8).is_err());
        assert!(BfpConfig::new(64, 0).is_err());
        assert!(BfpConfig::new(64, 17).is_err());
        let c = BfpConfig::new(64, 8).unwrap();
        assert_eq!(c.group_size(), 64);
        assert_eq!(c.mantissa_bits(), 8);
    }

    #[test]
    fn grouping_splits_with_remainder() {
        let vals = f16s(&[1.0; 10]);
        let t = BfpTensor::from_f16(&vals, BfpConfig::new(4, 8).unwrap()).unwrap();
        assert_eq!(t.groups().len(), 3);
        assert_eq!(t.groups()[2].elements.len(), 2);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn paper_fig4_case1_gs3_m6() {
        // Fig. 4 case 1: GS=3, M=6. Values with exponents 15,16,12: the
        // shared exponent is 16 and the e=12 element is shifted by 4.
        let vals = [
            F16::from_bits((1 << 15) | (15 << 10) | 0b1011010110), // -1.x · 2^0
            F16::from_bits((16 << 10) | 0b1000110001),             // +1.x · 2^1
            F16::from_bits((12 << 10) | 0b1000110011),             // +1.x · 2^-3
        ];
        let t = BfpTensor::from_f16(&vals, BfpConfig::new(3, 6).unwrap()).unwrap();
        let g = &t.groups()[0];
        assert_eq!(g.shared_exp, 16);
        // Element 0: sig=0b11011010110 (11 bits), shift 1 → top 6 of
        // 0b011011010110… = sig·2^6 >> 11+1: 0b110110101 10 >>… compute:
        let sig0: u64 = 0b11011010110;
        assert_eq!(u64::from(g.elements[0].magnitude), (sig0 << 6) >> 12);
        assert!(g.elements[0].negative);
        // Element 2: shift 4.
        let sig2: u64 = 0b11000110011;
        assert_eq!(u64::from(g.elements[2].magnitude), (sig2 << 6) >> 15);
    }

    #[test]
    fn round_trip_error_bounded_by_group_ulp() {
        let vals: Vec<f32> = (0..256)
            .map(|i| ((i * 37) % 101) as f32 * 0.11 - 5.0)
            .collect();
        for (gs, m) in [(8, 4), (32, 7), (64, 10), (128, 13)] {
            let cfg = BfpConfig::new(gs, m).unwrap();
            let t = BfpTensor::from_f32_saturating(&vals, cfg);
            let deq = t.to_f32();
            for (gi, g) in t.groups().iter().enumerate() {
                let bound = g.ulp();
                for i in 0..g.elements.len() {
                    let idx = gi * gs + i;
                    let orig = F16::from_f32(vals[idx]).to_f32();
                    assert!((deq[idx] - orig).abs() <= bound, "gs={gs} m={m} idx={idx}");
                }
            }
        }
    }

    #[test]
    fn larger_mantissa_never_increases_error() {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 30.0) * 0.317).collect();
        let mut prev_err = f64::INFINITY;
        for m in [2u32, 4, 6, 8, 10, 12, 14, 16] {
            let cfg = BfpConfig::new(64, m).unwrap();
            let deq = fake_quantize_f32(&vals, cfg);
            let err: f64 = vals
                .iter()
                .zip(&deq)
                .map(|(&a, &b)| f64::from((F16::from_f32(a).to_f32() - b).abs()))
                .sum();
            assert!(err <= prev_err + 1e-9, "m={m}: {err} > {prev_err}");
            prev_err = err;
        }
    }

    #[test]
    fn smaller_groups_never_increase_error() {
        let vals: Vec<f32> = (0..128)
            .map(|i| if i % 17 == 0 { 50.0 } else { 0.01 * i as f32 })
            .collect();
        let mut prev_err = f64::INFINITY;
        for gs in [128usize, 64, 32, 16, 8, 1] {
            let cfg = BfpConfig::new(gs, 6).unwrap();
            let deq = fake_quantize_f32(&vals, cfg);
            let err: f64 = vals
                .iter()
                .zip(&deq)
                .map(|(&a, &b)| f64::from((F16::from_f32(a).to_f32() - b).abs()))
                .sum();
            assert!(err <= prev_err + 1e-9, "gs={gs}: {err} > {prev_err}");
            prev_err = err;
        }
    }

    #[test]
    fn outlier_forces_small_values_to_zero() {
        // One huge element with a tight mantissa wipes out tiny peers —
        // the failure mode motivating variable-length mantissas (§II-B).
        let vals = [1000.0f32, 0.001, 0.002, -0.0015];
        let cfg = BfpConfig::new(4, 4).unwrap();
        let deq = fake_quantize_f32(&vals, cfg);
        assert!((deq[0] - 1000.0).abs() < 64.0);
        assert_eq!(&deq[1..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn storage_accounting() {
        let vals = f16s(&[1.0; 64]);
        let t = BfpTensor::from_f16(&vals, BfpConfig::new(64, 7).unwrap()).unwrap();
        assert_eq!(t.storage_bits(), 64 * 8 + 5);
        assert!((t.bits_per_element() - (8.0 + 5.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn saturation_clamps_overflow_and_nan() {
        assert_eq!(saturate_to_f16(1e9).to_f32(), 65504.0);
        assert_eq!(saturate_to_f16(-1e9).to_f32(), -65504.0);
        assert_eq!(saturate_to_f16(f32::NAN).to_f32(), 0.0);
        assert_eq!(saturate_to_f16(1.5).to_f32(), 1.5);
    }

    #[test]
    fn non_finite_reports_global_index() {
        let mut vals = f16s(&[1.0; 10]);
        vals[7] = F16::INFINITY;
        let err = BfpTensor::from_f16(&vals, BfpConfig::new(4, 8).unwrap()).unwrap_err();
        assert_eq!(err, FormatError::NonFinite { index: 7 });
    }

    #[test]
    fn empty_tensor() {
        let t = BfpTensor::from_f16(&[], BfpConfig::new(4, 8).unwrap()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.to_f32(), Vec::<f32>::new());
        assert_eq!(t.bits_per_element(), 0.0);
    }
}
