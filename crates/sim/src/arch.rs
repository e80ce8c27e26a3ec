//! Accelerator configuration (paper §V-A).
//!
//! All compared systems share clock frequency, peak per-cycle throughput and
//! on-chip memory capacity; they differ only in PE type and activation
//! storage format. DRAM is HBM2 modeled at 3.9 pJ/bit and 256 GB/s.

use anda_quant::ActivationCodec;

use crate::pe::PeKind;

/// An accelerator instance under the paper's normalization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Accelerator {
    /// PE/datapath type.
    pub kind: PeKind,
    /// Units along each array dimension (16×16 in the paper).
    pub array_dim: usize,
    /// Lanes per unit (one 64-element group dot per pass).
    pub lanes: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Weight buffer capacity in bits.
    pub weight_buffer_bits: u64,
    /// Activation buffer capacity in bits (mantissa + exponent arrays).
    pub act_buffer_bits: u64,
    /// DRAM bandwidth in bits/second.
    pub dram_bits_per_s: f64,
    /// DRAM access energy in pJ/bit.
    pub dram_pj_per_bit: f64,
    /// On-chip SRAM access energy in pJ/bit.
    pub sram_pj_per_bit: f64,
}

impl Accelerator {
    /// The paper's configuration for a given PE kind: 16×16 units, 64 lanes,
    /// 285 MHz, 1 MB weight buffer, 1.125 MB activation buffer, HBM2.
    pub fn paper(kind: PeKind) -> Self {
        Accelerator {
            kind,
            array_dim: 16,
            lanes: 64,
            clock_hz: 285.0e6,
            weight_buffer_bits: 8 * 1024 * 1024, // 1 MiB
            act_buffer_bits: 9 * 1024 * 1024,    // 1 MiB mantissa + 0.125 MiB exponent
            dram_bits_per_s: 256.0e9 * 8.0,
            dram_pj_per_bit: 3.9,
            sram_pj_per_bit: 0.35,
        }
    }

    /// Total units in the array.
    pub fn units(&self) -> usize {
        self.array_dim * self.array_dim
    }

    /// Activation storage bits per element for this architecture at the
    /// given Anda mantissa length (baselines always store FP16).
    pub fn act_bits_per_element(&self, mantissa_bits: u32) -> f64 {
        if self.kind.stores_anda_activations() {
            ActivationCodec::Grouped {
                mantissa_bits,
                group_size: self.lanes,
            }
            .storage_bits_per_element()
        } else {
            16.0
        }
    }

    /// Group-dot latency in cycles for this architecture at the given
    /// mantissa length: `M_eff/16` for bit-parallel datapaths (equal peak
    /// BOPs/cycle), `(M+1)/16` of a full pass for the bit-serial APU.
    pub fn cycles_per_group(&self, mantissa_bits: u32) -> f64 {
        match self.kind.datapath_mantissa_bits() {
            Some(m_eff) => f64::from(m_eff) / 16.0,
            None => f64::from(mantissa_bits + 1) / 16.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_constants() {
        let a = Accelerator::paper(PeKind::FpFp);
        assert_eq!(a.units(), 256);
        assert_eq!(a.clock_hz, 285.0e6);
        assert_eq!(a.dram_pj_per_bit, 3.9);
    }

    #[test]
    fn baselines_store_fp16_activations() {
        for kind in [PeKind::FpFp, PeKind::Figna, PeKind::FignaM8] {
            let a = Accelerator::paper(kind);
            assert_eq!(a.act_bits_per_element(5), 16.0, "{kind:?}");
        }
        let anda = Accelerator::paper(PeKind::Anda);
        assert!((anda.act_bits_per_element(5) - (6.0 + 5.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn group_latency_reproduces_speedup_ratios() {
        let fpfp = Accelerator::paper(PeKind::FpFp);
        let m11 = Accelerator::paper(PeKind::FignaM11);
        let m8 = Accelerator::paper(PeKind::FignaM8);
        let anda = Accelerator::paper(PeKind::Anda);
        assert_eq!(fpfp.cycles_per_group(16), 1.0);
        // FIGNA-M11 speedup 16/11 ≈ 1.45; M8 → 2.0 (Fig. 16).
        assert!((fpfp.cycles_per_group(16) / m11.cycles_per_group(11) - 1.4545).abs() < 1e-3);
        assert!((fpfp.cycles_per_group(16) / m8.cycles_per_group(8) - 2.0).abs() < 1e-12);
        // Anda at M=5: 16/6 ≈ 2.67.
        assert!((fpfp.cycles_per_group(16) / anda.cycles_per_group(5) - 16.0 / 6.0).abs() < 1e-9);
    }
}
