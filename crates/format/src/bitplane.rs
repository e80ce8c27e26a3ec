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
//!
//! The words themselves live in one place, the flat sign / exponent /
//! plane arrays of [`crate::AndaTensor`] (or any buffer laid out the same
//! way, like the functional simulator's activation buffer). A
//! [`BitPlaneGroup`] is a borrowed view of one group in them.

use crate::align::{AlignedGroup, SignMag};

/// Hardware lane width: elements per group, bits per plane word.
pub const LANES: usize = 64;

/// A view of one Anda group in the transposed bit-plane memory layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitPlaneGroup<'a> {
    /// Number of occupied lanes (1..=64); trailing lanes are zero-padded.
    len: usize,
    /// Sign plane: bit `i` set ⇔ element `i` is negative.
    signs: u64,
    /// Shared biased exponent (5-bit field, 1..=30).
    shared_exp: u16,
    /// Mantissa planes, **most-significant first**: `planes[0]` holds bit
    /// `M-1` of every element's mantissa.
    planes: &'a [u64],
}

impl<'a> BitPlaneGroup<'a> {
    /// Views one group: `len` occupied lanes, its sign word, shared
    /// exponent and MSB-first mantissa planes.
    ///
    /// # Panics
    ///
    /// Panics if the group holds more than [`LANES`] elements (the hardware
    /// word width).
    pub fn new(len: usize, signs: u64, shared_exp: u16, planes: &'a [u64]) -> Self {
        assert!(
            len <= LANES,
            "bit-plane groups hold at most {LANES} elements, got {len}"
        );
        BitPlaneGroup {
            len,
            signs,
            shared_exp,
            planes,
        }
    }

    /// Reconstructs the element-major [`AlignedGroup`] view — the bridge
    /// to the element-level oracles ([`crate::dot::dot_group_reference`],
    /// [`AlignedGroup::dequantize_all`]).
    ///
    /// Not on the served path: the format suites reach the element-level
    /// oracles through it.
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

    /// Number of occupied lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no lanes are occupied (never for a tensor's groups).
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
    pub fn planes(&self) -> &'a [u64] {
        self.planes
    }

    /// The weight of one mantissa LSB for this group.
    pub fn ulp(&self) -> f32 {
        anda_fp::f16::exp2i(i32::from(self.shared_exp) - 14 - self.mantissa_bits() as i32)
    }

    /// Memory words occupied in the activation buffer: one sign word plus
    /// one word per mantissa plane (the shared exponent lives in a separate
    /// narrow array, cf. Fig. 10's split mantissa/exponent address spaces)
    /// — also the APU cycles of one bit-serial group dot: a setup cycle
    /// latching the signs, then one per plane.
    pub fn mantissa_words(&self) -> usize {
        1 + self.planes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::align_group;
    use crate::anda::{AndaConfig, AndaTensor};
    use anda_fp::F16;

    fn aligned(vals: &[f32], m: u32) -> AlignedGroup {
        let f16s: Vec<F16> = vals.iter().map(|&v| F16::from_f32(v)).collect();
        align_group(&f16s, m).unwrap()
    }

    /// `vals` (at most 64) as one group at mantissa length `m`.
    fn tensor(vals: &[f32], m: u32) -> AndaTensor {
        AndaTensor::from_f32(vals, AndaConfig::hardware(m).unwrap())
    }

    fn group(t: &AndaTensor) -> BitPlaneGroup<'_> {
        t.groups().next().expect("one group")
    }

    #[test]
    fn round_trip_full_group() {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.37).collect();
        for m in [1u32, 4, 8, 11, 16] {
            assert_eq!(
                group(&tensor(&vals, m)).to_aligned(),
                aligned(&vals, m),
                "m={m}"
            );
        }
    }

    #[test]
    fn round_trip_partial_group() {
        let vals = [1.0, -2.0, 0.5];
        let t = AndaTensor::from_f32(&vals, AndaConfig::hardware(8).unwrap());
        let bp = group(&t);
        assert_eq!(bp.len(), 3);
        assert_eq!(bp.to_aligned(), aligned(&vals, 8));
    }

    #[test]
    fn plane_zero_is_msb() {
        // Single element with mantissa 0b100 (M=3): only plane 0 has the bit.
        let t = tensor(&[1.0], 3);
        assert_eq!(group(&t).to_aligned().elements[0].magnitude, 0b100);
        assert_eq!(group(&t).planes(), &[1, 0, 0]);
    }

    #[test]
    fn sign_plane_packs_signs() {
        let t = tensor(&[1.0, -1.0, 1.0, -1.0], 4);
        assert_eq!(group(&t).signs() & 0xF, 0b1010);
    }

    #[test]
    fn storage_matches_fig10_accounting() {
        // 4-bit mantissa group: 1 sign word + 4 planes = 5 words; 5b exponent.
        let t = tensor(&[0.5; 64], 4);
        assert_eq!(group(&t).mantissa_words(), 5);
        assert_eq!(t.storage_bits(), 64 + 5 + 4 * 64);
        // 5-bit mantissa group occupies one more word, same word width.
        assert_eq!(group(&tensor(&[0.5; 64], 5)).mantissa_words(), 6);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_group_panics() {
        let _ = BitPlaneGroup::new(65, 0, 15, &[0; 4]);
    }

    #[test]
    fn variable_length_groups_coexist() {
        // Fig. 10: group #0 with 4-bit mantissas next to group #1 with 5-bit
        // mantissas — only the address depth differs.
        let (a, b) = (tensor(&[1.0; 64], 4), tensor(&[1.0; 64], 5));
        assert_eq!(group(&a).mantissa_words() + 1, group(&b).mantissa_words());
        assert_eq!(a.storage_bits() + 64, b.storage_bits());
    }
}
