//! The bit-plane data layout scheme (paper Fig. 10).
//!
//! Anda values have variable-length mantissas, so an element-atomic layout
//! would produce irregular memory accesses. Instead, the layout is
//! *transposed*: bits of equal significance across a group of up to 64
//! elements are packed into one 64-bit memory word (a *bit plane*). A group
//! occupies:
//!
//! - one sign plane (64 bits),
//! - one shared-exponent entry (5 bits, stored in a separate exponent array),
//! - `M` mantissa planes, most-significant plane first.
//!
//! Changing M only changes the *address depth* of a group — never the word
//! width — so memory bandwidth utilization is constant, exactly as Fig. 10
//! argues.

use crate::align::{AlignedGroup, SignMag};

/// Hardware lane width: elements per group, bits per plane word.
pub const LANES: usize = 64;

/// One Anda group in the transposed bit-plane memory layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitPlaneGroup {
    /// Number of occupied lanes (1..=64); trailing lanes are zero-padded.
    len: usize,
    /// Sign plane: bit `i` set ⇔ element `i` is negative.
    signs: u64,
    /// Shared biased exponent (5-bit field, 1..=30).
    shared_exp: u16,
    /// Mantissa planes, **most-significant first**: `planes[0]` holds bit
    /// `M-1` of every element's mantissa.
    planes: Vec<u64>,
}

impl BitPlaneGroup {
    /// Transposes an aligned group into bit-plane layout.
    ///
    /// # Panics
    ///
    /// Panics if the group holds more than [`LANES`] elements (the hardware
    /// word width); `anda-format` enforces this upstream.
    pub fn from_aligned(group: &AlignedGroup) -> Self {
        let len = group.elements.len();
        assert!(
            len <= LANES,
            "bit-plane groups hold at most {LANES} elements, got {len}"
        );
        let m = group.mantissa_bits;
        let mut signs = 0u64;
        let mut planes = vec![0u64; m as usize];
        for (i, e) in group.elements.iter().enumerate() {
            if e.negative {
                signs |= 1 << i;
            }
            for b in 0..m {
                // plane 0 = MSB (bit m-1) … plane m-1 = LSB (bit 0)
                let bit = (e.magnitude >> (m - 1 - b)) & 1;
                planes[b as usize] |= u64::from(bit) << i;
            }
        }
        BitPlaneGroup {
            len,
            signs,
            shared_exp: group.shared_exp,
            planes,
        }
    }

    /// Reconstructs the element-major [`AlignedGroup`] view.
    pub fn to_aligned(&self) -> AlignedGroup {
        let m = self.planes.len() as u32;
        let elements = (0..self.len)
            .map(|i| {
                let mut mag = 0u16;
                for (b, plane) in self.planes.iter().enumerate() {
                    mag |= (((plane >> i) & 1) as u16) << (m as usize - 1 - b);
                }
                SignMag {
                    negative: (self.signs >> i) & 1 == 1,
                    magnitude: mag,
                }
            })
            .collect();
        AlignedGroup {
            shared_exp: self.shared_exp,
            mantissa_bits: m,
            elements,
        }
    }

    /// Creates a group directly from raw planes (used by the compressor).
    ///
    /// # Panics
    ///
    /// Panics if `len > LANES` or `planes` is empty.
    pub fn from_raw(len: usize, signs: u64, shared_exp: u16, planes: Vec<u64>) -> Self {
        assert!(len <= LANES && len > 0, "invalid lane count {len}");
        assert!(!planes.is_empty(), "a group needs at least one plane");
        BitPlaneGroup {
            len,
            signs,
            shared_exp,
            planes,
        }
    }

    /// Number of occupied lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no lanes are occupied (never for constructed groups).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mantissa length in bits (= number of mantissa planes).
    #[inline]
    pub fn mantissa_bits(&self) -> u32 {
        self.planes.len() as u32
    }

    /// The sign plane word.
    #[inline]
    pub fn signs(&self) -> u64 {
        self.signs
    }

    /// The shared biased exponent.
    #[inline]
    pub fn shared_exp(&self) -> u16 {
        self.shared_exp
    }

    /// Mantissa planes, most-significant first.
    #[inline]
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// Memory words occupied in the activation buffer: one sign word plus
    /// one word per mantissa plane (the shared exponent lives in a separate
    /// narrow array, cf. Fig. 10's split mantissa/exponent address spaces).
    pub fn mantissa_words(&self) -> usize {
        1 + self.planes.len()
    }

    /// Exact storage footprint in bits: signs + exponent + mantissa planes.
    pub fn storage_bits(&self) -> usize {
        LANES + 5 + LANES * self.planes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::align_group;
    use anda_fp::F16;

    fn aligned(vals: &[f32], m: u32) -> AlignedGroup {
        let f16s: Vec<F16> = vals.iter().map(|&v| F16::from_f32(v)).collect();
        align_group(&f16s, m).unwrap()
    }

    #[test]
    fn round_trip_full_group() {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.37).collect();
        for m in [1u32, 4, 8, 11, 16] {
            let g = aligned(&vals, m);
            let bp = BitPlaneGroup::from_aligned(&g);
            assert_eq!(bp.to_aligned(), g, "m={m}");
        }
    }

    #[test]
    fn round_trip_partial_group() {
        let g = aligned(&[1.0, -2.0, 0.5], 8);
        let bp = BitPlaneGroup::from_aligned(&g);
        assert_eq!(bp.len(), 3);
        assert_eq!(bp.to_aligned(), g);
    }

    #[test]
    fn plane_zero_is_msb() {
        // Single element with mantissa 0b100 (M=3): only plane 0 has the bit.
        let g = AlignedGroup {
            shared_exp: 15,
            mantissa_bits: 3,
            elements: vec![SignMag {
                negative: false,
                magnitude: 0b100,
            }],
        };
        let bp = BitPlaneGroup::from_aligned(&g);
        assert_eq!(bp.planes(), &[1, 0, 0]);
    }

    #[test]
    fn sign_plane_packs_signs() {
        let g = aligned(&[1.0, -1.0, 1.0, -1.0], 4);
        let bp = BitPlaneGroup::from_aligned(&g);
        assert_eq!(bp.signs() & 0xF, 0b1010);
    }

    #[test]
    fn storage_matches_fig10_accounting() {
        // 4-bit mantissa group: 1 sign word + 4 planes = 5 words; 5b exponent.
        let g = aligned(&[0.5; 64], 4);
        let bp = BitPlaneGroup::from_aligned(&g);
        assert_eq!(bp.mantissa_words(), 5);
        assert_eq!(bp.storage_bits(), 64 + 5 + 4 * 64);
        // 5-bit mantissa group occupies one more word, same word width.
        let g5 = aligned(&[0.5; 64], 5);
        let bp5 = BitPlaneGroup::from_aligned(&g5);
        assert_eq!(bp5.mantissa_words(), 6);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_group_panics() {
        let g = aligned(&vec![1.0; 65], 4);
        let _ = BitPlaneGroup::from_aligned(&g);
    }

    #[test]
    fn variable_length_groups_coexist() {
        // Fig. 10: group #0 with 4-bit mantissas next to group #1 with 5-bit
        // mantissas — only the address depth differs.
        let a = BitPlaneGroup::from_aligned(&aligned(&[1.0; 64], 4));
        let b = BitPlaneGroup::from_aligned(&aligned(&[1.0; 64], 5));
        assert_eq!(a.mantissa_words() + 1, b.mantissa_words());
        assert_eq!(a.storage_bits() + 64, b.storage_bits());
    }
}
