//! Functional model of the on-the-fly bit-plane compressor (BPC, Fig. 12).
//!
//! The BPC converts FP16 values (e.g. MXU or vector-unit outputs) into
//! bit-plane Anda groups *on the fly*. Each of its 16 lanes processes one
//! 64-element group:
//!
//! 1. **FP field extractor** — splits each FP16 input into sign, exponent
//!    and mantissa (hidden bit made explicit).
//! 2. **Max-exponent catcher** — finds the group's maximum exponent and each
//!    element's difference to it.
//! 3. **Parallel-to-serial mantissa aligner** — per cycle, every element
//!    whose remaining exponent difference is zero shifts out its mantissa
//!    MSB; others emit 0 and decrement their difference. The 64 emitted bits
//!    form one mantissa plane. After `M` cycles the configured number of
//!    planes has been produced.
//! 4. **Data packager** — assembles sign plane, shared exponent and mantissa
//!    planes into the memory layout.
//!
//! The model is cycle-faithful (one plane per cycle per lane) and is proven
//! equivalent to the direct conversion path ([`crate::align::align_group`])
//! in the tests — the serial aligner *is* alignment + truncation, computed
//! one bit at a time.

use anda_fp::{saturate_to_f16, F16};

use crate::anda::{AndaConfig, AndaTensor};
use crate::bitplane::{BitPlaneGroup, LANES};

/// Number of parallel group lanes in the hardware BPC.
pub const BPC_LANES: usize = 16;

/// Cycle and throughput statistics of one compression run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompressorReport {
    /// Number of 64-element groups compressed.
    pub groups: usize,
    /// Total BPC cycles: groups are processed [`BPC_LANES`] at a time, each
    /// batch costing `M` aligner cycles plus [`PIPELINE_OVERHEAD`].
    pub cycles: u64,
    /// Total output bits produced (signs + exponents + mantissa planes).
    pub output_bits: usize,
    /// Total input bits consumed (16 per element).
    pub input_bits: usize,
}

impl CompressorReport {
    /// Achieved compression ratio (input bits / output bits).
    pub fn compression_ratio(&self) -> f64 {
        if self.output_bits == 0 {
            1.0
        } else {
            self.input_bits as f64 / self.output_bits as f64
        }
    }
}

/// Fixed per-batch pipeline overhead: extractor + max-exponent catcher +
/// packager stages.
pub const PIPELINE_OVERHEAD: u64 = 3;

/// The on-the-fly bit-plane compressor.
///
/// # Example
///
/// ```
/// use anda_format::{AndaConfig, BitPlaneCompressor};
///
/// let bpc = BitPlaneCompressor::new(AndaConfig::hardware(6).unwrap());
/// let acts: Vec<f32> = (0..256).map(|i| (i as f32).sin()).collect();
/// let (tensor, report) = bpc.compress_f32(&acts);
/// assert_eq!(report.groups, 4);
/// assert!(report.compression_ratio() > 2.0);
/// assert_eq!(tensor.to_f32().len(), 256);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BitPlaneCompressor {
    config: AndaConfig,
}

impl BitPlaneCompressor {
    /// Creates a compressor for the given output configuration.
    pub fn new(config: AndaConfig) -> Self {
        BitPlaneCompressor { config }
    }

    /// The output configuration.
    pub fn config(&self) -> &AndaConfig {
        &self.config
    }

    /// Compresses one group (≤ 64 elements) through the cycle-by-cycle
    /// serial aligner, returning the bit-plane group.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or exceeds 64 lanes.
    pub fn compress_group(&self, values: &[F16]) -> BitPlaneGroup {
        assert!(
            !values.is_empty() && values.len() <= LANES,
            "BPC lane holds 1..=64 values, got {}",
            values.len()
        );
        let m = self.config.mantissa_bits();

        // 1. FP field extractor (saturating non-finite inputs like the
        //    upstream FP32→FP16 converter would).
        let sigs: Vec<_> = values
            .iter()
            .map(|&v| {
                let v = if v.is_finite() {
                    v
                } else {
                    saturate_to_f16(v.to_f32())
                };
                v.significand()
            })
            .collect();

        // 2. Max-exponent catcher.
        let shared_exp = sigs.iter().map(|s| s.biased_exp).max().unwrap_or(1);
        let mut exp_diff: Vec<u16> = sigs.iter().map(|s| shared_exp - s.biased_exp).collect();

        // Sign plane.
        let mut signs = 0u64;
        for (i, s) in sigs.iter().enumerate() {
            if s.negative {
                signs |= 1 << i;
            }
        }

        // 3. Parallel-to-serial mantissa aligner: 11-bit registers, MSB out.
        let mut regs: Vec<u16> = sigs.iter().map(|s| s.magnitude).collect();
        let mut planes = Vec::with_capacity(m as usize);
        for _cycle in 0..m {
            let mut plane = 0u64;
            for i in 0..regs.len() {
                if exp_diff[i] == 0 {
                    let msb = (regs[i] >> 10) & 1;
                    plane |= u64::from(msb) << i;
                    regs[i] = (regs[i] << 1) & 0x7FF;
                } else {
                    exp_diff[i] -= 1;
                    // emit 0 for this lane this cycle
                }
            }
            planes.push(plane);
        }

        // 4. Data packager.
        BitPlaneGroup::from_raw(values.len(), signs, shared_exp, planes)
    }

    /// Compresses a full FP16 tensor, modelling the 16-lane batching, and
    /// returns the Anda tensor plus cycle/throughput statistics.
    pub fn compress(&self, values: &[F16]) -> (AndaTensor, CompressorReport) {
        let gs = self.config.group_size();
        let groups: Vec<BitPlaneGroup> = values
            .chunks(gs)
            .filter(|c| !c.is_empty())
            .map(|chunk| self.compress_group(chunk))
            .collect();

        let n_groups = groups.len();
        let batches = n_groups.div_ceil(BPC_LANES) as u64;
        let m = u64::from(self.config.mantissa_bits());
        let output_bits: usize = groups.iter().map(BitPlaneGroup::storage_bits).sum();
        let report = CompressorReport {
            groups: n_groups,
            cycles: batches * (m + PIPELINE_OVERHEAD),
            output_bits,
            input_bits: values.len() * 16,
        };
        let tensor = AndaTensor::from_parts(self.config, groups, values.len());
        (tensor, report)
    }

    /// Convenience: compress `f32` values (saturating FP16 rounding first).
    pub fn compress_f32(&self, values: &[f32]) -> (AndaTensor, CompressorReport) {
        let f16s: Vec<F16> = values.iter().map(|&v| saturate_to_f16(v)).collect();
        self.compress(&f16s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_fp::F16;

    fn f16s(vals: &[f32]) -> Vec<F16> {
        vals.iter().map(|&v| F16::from_f32(v)).collect()
    }

    #[test]
    fn serial_aligner_matches_direct_conversion() {
        let vals: Vec<f32> = (0..64)
            .map(|i| ((i * 31) % 97) as f32 * 0.37 - 15.0)
            .collect();
        for m in 1..=16u32 {
            let cfg = AndaConfig::hardware(m).unwrap();
            let bpc = BitPlaneCompressor::new(cfg);
            let serial = bpc.compress_group(&f16s(&vals));
            let direct = AndaTensor::from_f32(&vals, cfg);
            assert_eq!(&serial, &direct.groups()[0], "m={m}");
        }
    }

    #[test]
    fn fig12_walkthrough_three_cycles() {
        // Three elements with exponent differences 1, 0, 2 (cf. Fig. 12):
        // cycle 1 emits only element 1's MSB; cycle 2 emits elements 0,1;
        // cycle 3 emits all three.
        let vals = [1.0f32, 2.0, 0.5]; // exponents 15, 16, 14 → diffs 1,0,2
        let bpc = BitPlaneCompressor::new(AndaConfig::new(64, 3).unwrap());
        let g = bpc.compress_group(&f16s(&vals));
        // Mantissas are all 1.0…0 (sig = 0b10000000000).
        assert_eq!(g.planes()[0], 0b010); // only element 1 aligned
        assert_eq!(g.planes()[1], 0b001); // element 0's hidden bit arrives
        assert_eq!(g.planes()[2], 0b100); // element 2's hidden bit arrives
    }

    #[test]
    fn whole_tensor_compression_and_cycles() {
        let vals: Vec<f32> = (0..64 * 33).map(|i| (i as f32 * 0.01).cos()).collect();
        let bpc = BitPlaneCompressor::new(AndaConfig::hardware(5).unwrap());
        let (tensor, report) = bpc.compress_f32(&vals);
        assert_eq!(report.groups, 33);
        // 33 groups → 3 batches of 16 lanes; each batch M + overhead cycles.
        assert_eq!(report.cycles, 3 * (5 + PIPELINE_OVERHEAD));
        assert_eq!(tensor.len(), vals.len());
        // M=5 → ~6.08 bits/elem vs 16: ratio ≈ 2.6.
        assert!(report.compression_ratio() > 2.5);
    }

    #[test]
    fn zero_group_compresses_to_zero_planes() {
        let bpc = BitPlaneCompressor::new(AndaConfig::hardware(4).unwrap());
        let g = bpc.compress_group(&f16s(&[0.0; 64]));
        assert!(g.planes().iter().all(|&p| p == 0));
        assert_eq!(g.shared_exp(), 1);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn empty_group_panics() {
        let bpc = BitPlaneCompressor::new(AndaConfig::hardware(4).unwrap());
        let _ = bpc.compress_group(&[]);
    }
}
