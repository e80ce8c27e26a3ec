//! The Anda data format (paper §III): variable-length grouped activations.
//!
//! An [`AndaTensor`] stores FP16-derived activations as consecutive groups of
//! up to 64 lanes. Each group shares its maximum exponent and keeps one sign
//! bit plus an `M`-bit mantissa per element, physically organized in the
//! transposed bit-plane layout of [`crate::bitplane`]. `M` is chosen *per
//! tensor* (1..=16) by the adaptive precision search — this is the
//! "variable-length" property distinguishing Anda from uni-length formats
//! like VS-Quant/FIGNA and multi-length formats like FAST/DaCapo (Table I).

use anda_fp::{saturate_to_f16, F16};

use crate::align::align_group;
use crate::bitplane::{BitPlaneGroup, LANES};
use crate::error::FormatError;

/// Configuration of an Anda conversion.
///
/// # Example
///
/// ```
/// use anda_format::AndaConfig;
///
/// let cfg = AndaConfig::new(64, 7).unwrap();
/// assert_eq!(cfg.group_size(), 64);
/// assert_eq!(cfg.mantissa_bits(), 7);
/// assert!(AndaConfig::new(65, 7).is_err()); // beyond the 64-lane hardware
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AndaConfig {
    group_size: usize,
    mantissa_bits: u32,
}

impl AndaConfig {
    /// Creates a configuration: `group_size` lanes share an exponent and
    /// every mantissa is truncated to `mantissa_bits`.
    ///
    /// # Errors
    ///
    /// Returns an error when `group_size` is 0 or exceeds the 64-lane
    /// hardware word, or when `mantissa_bits` is outside 1..=16.
    pub fn new(group_size: usize, mantissa_bits: u32) -> Result<Self, FormatError> {
        if group_size == 0 || group_size > LANES {
            return Err(FormatError::InvalidGroupSize {
                requested: group_size,
                max: LANES,
            });
        }
        if !(1..=16).contains(&mantissa_bits) {
            return Err(FormatError::InvalidMantissaBits {
                requested: mantissa_bits,
                range: (1, 16),
            });
        }
        Ok(AndaConfig {
            group_size,
            mantissa_bits,
        })
    }

    /// The paper's hardware configuration: 64 lanes, mantissa length `m`.
    ///
    /// # Errors
    ///
    /// Returns an error when `m` is outside 1..=16.
    pub fn hardware(m: u32) -> Result<Self, FormatError> {
        Self::new(LANES, m)
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
}

/// One Anda group: bit-plane storage plus cached lane count.
pub type AndaGroup = BitPlaneGroup;

/// A tensor in the Anda format: bit-plane groups over a flat buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct AndaTensor {
    config: AndaConfig,
    groups: Vec<AndaGroup>,
    len: usize,
}

impl AndaTensor {
    /// Assembles a tensor from pre-built groups (the compressor's output
    /// path); the caller guarantees group/config consistency.
    pub(crate) fn from_parts(config: AndaConfig, groups: Vec<AndaGroup>, len: usize) -> Self {
        AndaTensor {
            config,
            groups,
            len,
        }
    }

    /// Converts FP16 activations to the Anda format.
    ///
    /// Non-finite inputs are saturated to ±65504 first (hardware casts
    /// saturate rather than trap), so conversion always succeeds.
    pub fn from_f16(values: &[F16], config: AndaConfig) -> Self {
        let sane: Vec<F16> = values
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    v
                } else {
                    saturate_to_f16(v.to_f32())
                }
            })
            .collect();
        let groups = sane
            .chunks(config.group_size)
            .filter(|c| !c.is_empty())
            .map(|chunk| {
                let aligned = align_group(chunk, config.mantissa_bits)
                    .expect("saturated finite inputs cannot fail alignment");
                BitPlaneGroup::from_aligned(&aligned)
            })
            .collect();
        AndaTensor {
            config,
            groups,
            len: values.len(),
        }
    }

    /// Converts `f32` activations (rounding through FP16 with saturation).
    pub fn from_f32(values: &[f32], config: AndaConfig) -> Self {
        let f16s: Vec<F16> = values.iter().map(|&v| saturate_to_f16(v)).collect();
        Self::from_f16(&f16s, config)
    }

    /// The conversion configuration.
    pub fn config(&self) -> &AndaConfig {
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

    /// The bit-plane groups.
    pub fn groups(&self) -> &[AndaGroup] {
        &self.groups
    }

    /// Dequantizes the whole tensor back to `f32`.
    pub fn to_f32(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.decode_into(&mut out);
        out
    }

    /// Dequantizes into a caller-owned slice without allocating — the
    /// read primitive the KV-cache hot paths are built on. Bit-identical
    /// to [`AndaTensor::to_f32`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "decode width mismatch");
        let mut chunks = out.chunks_mut(self.config.group_size());
        for g in &self.groups {
            let chunk = chunks.next().expect("group/len consistency");
            g.decode_into(chunk);
        }
    }

    /// Total storage footprint in bits.
    pub fn storage_bits(&self) -> usize {
        self.groups.iter().map(BitPlaneGroup::storage_bits).sum()
    }

    /// Mean bits per element (FP16 would be 16.0). Includes zero-padded
    /// lanes of a trailing partial group, as the hardware would.
    pub fn bits_per_element(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.storage_bits() as f64 / self.len as f64
        }
    }

    /// Compression ratio versus FP16 element storage.
    pub fn compression_vs_f16(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            (self.len * 16) as f64 / self.storage_bits() as f64
        }
    }
}

/// Extension helpers on groups.
impl AndaGroup {
    /// The weight of one mantissa LSB for this group.
    pub fn ulp(&self) -> f32 {
        crate::align::exp2f(i32::from(self.shared_exp()) - 14 - self.mantissa_bits() as i32)
    }

    /// Dequantizes this group's occupied lanes into `out` without
    /// allocating (bit-identical to `to_aligned().dequantize_all()`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "group decode width mismatch");
        crate::rowcodec::decode_group_into(self.signs(), self.ulp(), self.planes(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rejects_hardware_violations() {
        assert!(AndaConfig::new(0, 8).is_err());
        assert!(AndaConfig::new(65, 8).is_err());
        assert!(AndaConfig::new(64, 0).is_err());
        assert!(AndaConfig::new(64, 17).is_err());
        assert!(AndaConfig::hardware(16).is_ok());
    }

    #[test]
    fn round_trip_error_bounded() {
        let vals: Vec<f32> = (0..200)
            .map(|i| ((i * 13) % 41) as f32 * 0.21 - 4.0)
            .collect();
        let cfg = AndaConfig::new(64, 8).unwrap();
        let t = AndaTensor::from_f32(&vals, cfg);
        assert_eq!(t.len(), 200);
        assert_eq!(t.groups().len(), 4);
        let deq = t.to_f32();
        for (gi, g) in t.groups().iter().enumerate() {
            for i in 0..g.len() {
                let idx = gi * 64 + i;
                let orig = F16::from_f32(vals[idx]).to_f32();
                assert!((deq[idx] - orig).abs() <= g.ulp(), "idx={idx}");
            }
        }
    }

    #[test]
    fn matches_bfp_semantics_at_same_parameters() {
        let vals: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.05).collect();
        let anda = AndaTensor::from_f32(&vals, AndaConfig::new(64, 6).unwrap()).to_f32();
        let mut streamed = vals;
        crate::align::fake_quantize_in_place(&mut streamed, 64, 6);
        assert_eq!(anda, streamed, "Anda is BFP + layout; values must agree");
    }

    #[test]
    fn non_finite_inputs_saturate() {
        let t = AndaTensor::from_f32(
            &[f32::INFINITY, -1e30, 1.0],
            AndaConfig::new(64, 11).unwrap(),
        );
        let deq = t.to_f32();
        assert!((deq[0] - 65504.0).abs() < 65504.0 * 0.01);
        assert!((deq[1] + 65504.0).abs() < 65504.0 * 0.01);
    }

    #[test]
    fn storage_shrinks_with_mantissa_bits() {
        let vals = vec![1.0f32; 640];
        let wide = AndaTensor::from_f32(&vals, AndaConfig::new(64, 12).unwrap());
        let narrow = AndaTensor::from_f32(&vals, AndaConfig::new(64, 5).unwrap());
        assert!(narrow.storage_bits() < wide.storage_bits());
        // M=5: ≈ 6.08 bits/element → ~2.6x compression vs FP16.
        assert!((narrow.bits_per_element() - (5.0 + 1.0 + 5.0 / 64.0)).abs() < 1e-9);
        assert!(narrow.compression_vs_f16() > 2.5);
    }

    #[test]
    fn empty_tensor_is_well_formed() {
        let t = AndaTensor::from_f32(&[], AndaConfig::new(64, 8).unwrap());
        assert!(t.is_empty());
        assert_eq!(t.groups().len(), 0);
        assert_eq!(t.compression_vs_f16(), 1.0);
    }
}
