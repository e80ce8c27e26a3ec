//! Group dot-product kernels: reference sign-magnitude integer dot and the
//! bit-serial schedule of the Anda processing element (paper Fig. 11).
//!
//! The APU computes the dot product of one Anda group (≤ 64 activations)
//! with INT weights in three steps:
//!
//! 1. **Per bit-plane reduction** — for each mantissa plane (MSB first), an
//!    adder tree sums the sign-applied weights of the lanes whose plane bit
//!    is set ("first-element-then-bit-plane" reduction: one partial sum per
//!    plane instead of one running value per element).
//! 2. **Shift-accumulate** — plane partial sums are accumulated with a
//!    left-shift per plane, producing the exact integer dot product.
//! 3. **Rescale** — the integer result is scaled by `2^(E - 14 - M)` and the
//!    weight group's scale factor, then accumulated in FP32 across groups.
//!
//! [`dot_group_bit_serial`] is proven equal to [`dot_group_reference`] for
//! every input (see the property tests), which is the correctness argument
//! for the hardware schedule.

use crate::align::{exp2f, AlignedGroup};
use crate::bitplane::BitPlaneGroup;

/// Reference integer dot product of an aligned group with INT weights:
/// `Σ (-1)^{s_i} · m_i · w_i`.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the group's element count.
pub fn dot_group_reference(group: &AlignedGroup, weights: &[i8]) -> i64 {
    assert_eq!(
        group.elements.len(),
        weights.len(),
        "group/weight length mismatch"
    );
    group
        .elements
        .iter()
        .zip(weights)
        .map(|(e, &w)| i64::from(e.signed()) * i64::from(w))
        .sum()
}

/// Execution trace of one bit-serial group dot product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSerialTrace {
    /// Partial sum produced by the adder tree for each plane (MSB first).
    pub plane_partials: Vec<i64>,
    /// Total APU cycles: one per mantissa plane plus one setup cycle for
    /// latching signs and the shared exponent.
    pub cycles: u64,
}

/// Bit-serial dot product over bit-plane storage, returning the integer
/// result and the per-plane execution trace.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the group's lane count.
pub fn dot_group_bit_serial(group: &BitPlaneGroup, weights: &[i8]) -> (i64, BitSerialTrace) {
    assert_eq!(group.len(), weights.len(), "group/weight length mismatch");
    // Cycle 0 (setup): latch signs, apply them to the weights once.
    let signs = group.signs();
    let signed_weights: Vec<i64> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let w = i64::from(w);
            if (signs >> i) & 1 == 1 {
                -w
            } else {
                w
            }
        })
        .collect();

    let m = group.mantissa_bits();
    let mut plane_partials = Vec::with_capacity(m as usize);
    let mut acc = 0i64;
    for plane in group.planes() {
        // Adder tree: sum the signed weights of set lanes.
        let mut partial = 0i64;
        let mut bits = *plane;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            partial += signed_weights[lane];
            bits &= bits - 1;
        }
        plane_partials.push(partial);
        // Shift-accumulate: planes arrive MSB first.
        acc = (acc << 1) + partial;
    }
    (
        acc,
        BitSerialTrace {
            plane_partials,
            cycles: u64::from(m) + 1,
        },
    )
}

/// Allocation-free integer group dot over flat bit-plane storage (sign
/// word + MSB-first planes, as written by [`crate::rowcodec`]), on the
/// active SIMD dispatch leg. Equal to [`dot_group_bit_serial`]'s integer
/// result for the same group — the dot is exact integer arithmetic, so
/// every summation order (bit-serial, scalar, vector) produces the same
/// value — but without building the trace or allocating.
///
/// Lanes at or beyond `weights.len()` must have zero plane and sign bits
/// (the row codec guarantees this for trailing lanes).
///
/// # Panics
///
/// Panics if `weights` holds more than [`crate::bitplane::LANES`] lanes.
pub fn dot_group_int_flat(sign_word: u64, planes: &[u64], weights: &[i8]) -> i64 {
    dot_group_int_flat_on(anda_fp::simd::active_leg(), sign_word, planes, weights)
}

/// [`dot_group_int_flat`] on an explicit leg (oracle tests and benches).
///
/// # Panics
///
/// As [`dot_group_int_flat`], or if the leg is unavailable on this host.
pub fn dot_group_int_flat_with_leg(
    leg: anda_fp::simd::SimdLeg,
    sign_word: u64,
    planes: &[u64],
    weights: &[i8],
) -> i64 {
    leg.assert_available();
    dot_group_int_flat_on(leg, sign_word, planes, weights)
}

/// The dispatch of [`dot_group_int_flat_with_leg`]. `leg` must be
/// available on this host: it is `active_leg()`, or the entry above
/// asserted it.
fn dot_group_int_flat_on(
    leg: anda_fp::simd::SimdLeg,
    sign_word: u64,
    planes: &[u64],
    weights: &[i8],
) -> i64 {
    use anda_fp::simd::SimdLeg;
    match leg {
        SimdLeg::Scalar => dot_group_int_flat_scalar(sign_word, planes, weights),
        // SAFETY (both legs): the CPU runs `leg` — this function's
        // precondition.
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 => unsafe { dot_group_int_flat_avx2(sign_word, planes, weights) },
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe { dot_group_int_flat_neon(sign_word, planes, weights) },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// The scalar oracle of [`dot_group_int_flat`]: the bit-serial schedule
/// with signs applied on the fly instead of staged into a buffer.
pub fn dot_group_int_flat_scalar(sign_word: u64, planes: &[u64], weights: &[i8]) -> i64 {
    assert!(
        weights.len() <= crate::bitplane::LANES,
        "a group holds at most 64 lanes"
    );
    let mut acc = 0i64;
    for plane in planes {
        let mut partial = 0i64;
        let mut bits = *plane;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            let w = i64::from(weights[lane]);
            partial += if (sign_word >> lane) & 1 == 1 { -w } else { w };
            bits &= bits - 1;
        }
        acc = (acc << 1) + partial;
    }
    acc
}

/// AVX2 leg of [`dot_group_int_flat`]: signs are applied to the weights
/// once into an i16 staging array; each plane then expands 16 plane bits
/// at a time into full-lane masks (compare-against-bit-mask), ANDs them
/// with the signed weights and pairwise-sums with `_mm256_madd_epi16` —
/// the adder tree of the paper's APU, four chunks wide.
///
/// # Safety
///
/// Requires AVX2 (callers go through the dispatch layer).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_group_int_flat_avx2(sign_word: u64, planes: &[u64], weights: &[i8]) -> i64 {
    use core::arch::x86_64::*;
    assert!(
        weights.len() <= crate::bitplane::LANES,
        "a group holds at most 64 lanes"
    );
    // Lanes beyond the group tail keep weight 0, so stray reads are inert.
    let mut sw = [0i16; crate::bitplane::LANES];
    for (i, &w) in weights.iter().enumerate() {
        let w = i16::from(w);
        sw[i] = if (sign_word >> i) & 1 == 1 { -w } else { w };
    }
    let lane_bits = _mm256_setr_epi16(
        1,
        1 << 1,
        1 << 2,
        1 << 3,
        1 << 4,
        1 << 5,
        1 << 6,
        1 << 7,
        1 << 8,
        1 << 9,
        1 << 10,
        1 << 11,
        1 << 12,
        1 << 13,
        1 << 14,
        i16::MIN, // 1 << 15 as i16
    );
    let mut acc = 0i64;
    for plane in planes {
        let mut sums = _mm256_setzero_si256();
        for chunk in 0..4 {
            let bits16 = _mm256_set1_epi16(((plane >> (chunk * 16)) & 0xFFFF) as i16);
            let hit = _mm256_cmpeq_epi16(_mm256_and_si256(bits16, lane_bits), lane_bits);
            let w = _mm256_loadu_si256(sw.as_ptr().add(chunk * 16).cast());
            let masked = _mm256_and_si256(hit, w);
            // Pairwise i16·1 + i16·1 → i32 partial sums (no i16 overflow).
            sums = _mm256_add_epi32(sums, _mm256_madd_epi16(masked, _mm256_set1_epi16(1)));
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sums);
        let partial: i64 = lanes.iter().map(|&x| i64::from(x)).sum();
        acc = (acc << 1) + partial;
    }
    acc
}

/// NEON leg of [`dot_group_int_flat`]: the 8-lane i16 mirror of the AVX2
/// leg using `vaddlvq_s16` for the per-chunk adder tree.
///
/// # Safety
///
/// Requires NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_group_int_flat_neon(sign_word: u64, planes: &[u64], weights: &[i8]) -> i64 {
    use core::arch::aarch64::*;
    assert!(
        weights.len() <= crate::bitplane::LANES,
        "a group holds at most 64 lanes"
    );
    let mut sw = [0i16; crate::bitplane::LANES];
    for (i, &w) in weights.iter().enumerate() {
        let w = i16::from(w);
        sw[i] = if (sign_word >> i) & 1 == 1 { -w } else { w };
    }
    let lane_bits = {
        let bits: [u16; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
        vld1q_u16(bits.as_ptr())
    };
    let mut acc = 0i64;
    for plane in planes {
        let mut partial = 0i64;
        for chunk in 0..8 {
            let bits8 = vdupq_n_u16(((plane >> (chunk * 8)) & 0xFF) as u16);
            let hit = vceqq_u16(vandq_u16(bits8, lane_bits), lane_bits);
            let w = vld1q_s16(sw.as_ptr().add(chunk * 8));
            let masked = vandq_s16(w, vreinterpretq_s16_u16(hit));
            partial += i64::from(vaddlvq_s16(masked));
        }
        acc = (acc << 1) + partial;
    }
    acc
}

/// Applies the Anda output scaling: `dot · 2^(E - 14 - M) · weight_scale`.
#[inline]
pub fn rescale_int_dot(
    int_dot: i64,
    shared_exp: u16,
    mantissa_bits: u32,
    weight_scale: f32,
) -> f32 {
    int_dot as f32 * exp2f(i32::from(shared_exp) - 14 - mantissa_bits as i32) * weight_scale
}

/// FP16-activation reference dot product (the FP-FP baseline computation):
/// `Σ a_i · w_i · weight_scale`, accumulated in `f32`.
pub fn dot_f16_int_reference(acts: &[anda_fp::F16], weights: &[i8], weight_scale: f32) -> f32 {
    assert_eq!(acts.len(), weights.len(), "length mismatch");
    let mut acc = 0.0f32;
    for (a, &w) in acts.iter().zip(weights) {
        acc += a.to_f32() * f32::from(w);
    }
    acc * weight_scale
}

/// Hardware-cost accounting of the APU's "first-element-then-bit-plane"
/// reduction versus a naive per-element shift-accumulate (paper §IV-B):
/// the plane-first order needs a *single* shared accumulator instead of one
/// wide register per lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionCosts {
    /// Additions performed by the plane-first schedule.
    pub plane_adds: u64,
    /// Accumulator storage bits of the plane-first schedule.
    pub plane_register_bits: u64,
    /// Additions performed by the naive per-element schedule.
    pub naive_adds: u64,
    /// Accumulator storage bits of the naive schedule.
    pub naive_register_bits: u64,
}

impl ReductionCosts {
    /// Register-storage saving factor of the plane-first schedule.
    pub fn register_saving(&self) -> f64 {
        self.naive_register_bits as f64 / self.plane_register_bits as f64
    }
}

/// Computes both schedules' costs for an `lanes`-element group dot at
/// mantissa length `m` with `weight_bits`-wide weights.
pub fn reduction_costs(m: u32, lanes: u32, weight_bits: u32) -> ReductionCosts {
    let m = u64::from(m);
    let lanes = u64::from(lanes);
    let wb = u64::from(weight_bits);
    // Plane partial sums need weight_bits + log2(lanes) bits; the shared
    // shift-accumulator needs that plus m.
    let partial_bits = wb + 64 - (lanes - 1).leading_zeros() as u64;
    ReductionCosts {
        // Per plane: adder tree (lanes-1) + one shift-add into the shared
        // accumulator.
        plane_adds: m * (lanes - 1) + m,
        plane_register_bits: partial_bits + (partial_bits + m),
        // Naive: every element keeps a private shift-accumulator updated
        // every cycle, plus a final cross-element adder tree.
        naive_adds: m * lanes + (lanes - 1),
        naive_register_bits: lanes * (wb + m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::align_group;
    use anda_fp::F16;

    fn group_of(vals: &[f32], m: u32) -> (AlignedGroup, BitPlaneGroup) {
        let f16s: Vec<F16> = vals.iter().map(|&v| F16::from_f32(v)).collect();
        let g = align_group(&f16s, m).unwrap();
        let bp = BitPlaneGroup::from_aligned(&g);
        (g, bp)
    }

    /// The APU's result for one group, composed as `gemm_anda` does:
    /// the bit-serial integer dot, rescaled.
    fn dot_group_f32(bp: &BitPlaneGroup, weights: &[i8], weight_scale: f32) -> f32 {
        let (int_dot, _) = dot_group_bit_serial(bp, weights);
        rescale_int_dot(int_dot, bp.shared_exp(), bp.mantissa_bits(), weight_scale)
    }

    #[test]
    fn bit_serial_equals_reference_simple() {
        let (g, bp) = group_of(&[1.0, -2.0, 0.5, 4.0], 8);
        let weights = [3i8, -1, 7, 2];
        let reference = dot_group_reference(&g, &weights);
        let (serial, trace) = dot_group_bit_serial(&bp, &weights);
        assert_eq!(serial, reference);
        assert_eq!(trace.cycles, 9);
        assert_eq!(trace.plane_partials.len(), 8);
    }

    #[test]
    fn bit_serial_equals_reference_across_mantissa_lengths() {
        let vals: Vec<f32> = (0..64)
            .map(|i| ((i * 29) % 63) as f32 * 0.13 - 4.0)
            .collect();
        let weights: Vec<i8> = (0..64).map(|i| ((i * 11) % 15) as i8 - 7).collect();
        for m in 1..=16u32 {
            let (g, bp) = group_of(&vals, m);
            assert_eq!(
                dot_group_bit_serial(&bp, &weights).0,
                dot_group_reference(&g, &weights),
                "m={m}"
            );
        }
    }

    #[test]
    fn plane_partials_reconstruct_dot() {
        let (_, bp) = group_of(&[2.5, -1.25, 8.0], 6);
        let weights = [5i8, 3, -2];
        let (dot, trace) = dot_group_bit_serial(&bp, &weights);
        let m = trace.plane_partials.len() as u32;
        let manual: i64 = trace
            .plane_partials
            .iter()
            .enumerate()
            .map(|(b, &p)| p << (m - 1 - b as u32))
            .sum();
        assert_eq!(manual, dot);
    }

    #[test]
    fn rescaled_dot_approaches_fp_reference_with_wide_mantissa() {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 30.0) * 0.043).collect();
        let f16s: Vec<F16> = vals.iter().map(|&v| F16::from_f32(v)).collect();
        let weights: Vec<i8> = (0..64).map(|i| ((i * 7) % 15) as i8 - 7).collect();
        let scale = 0.02f32;

        let reference = dot_f16_int_reference(&f16s, &weights, scale);
        let (_, bp) = group_of(&vals, 16);
        let anda = dot_group_f32(&bp, &weights, scale);
        assert!(
            (anda - reference).abs() <= reference.abs() * 1e-4 + 1e-4,
            "{anda} vs {reference}"
        );
    }

    #[test]
    fn narrower_mantissa_gives_larger_dot_error() {
        let vals: Vec<f32> = (0..64)
            .map(|i| {
                if i == 0 {
                    30.0
                } else {
                    ((i * 29) % 63) as f32 * 0.01
                }
            })
            .collect();
        let f16s: Vec<F16> = vals.iter().map(|&v| F16::from_f32(v)).collect();
        let weights: Vec<i8> = (0..64).map(|i| ((i * 5) % 15) as i8 - 7).collect();
        let reference = dot_f16_int_reference(&f16s, &weights, 1.0);

        // Individual dot errors are not strictly monotone in M (signed terms
        // can cancel), but the wide-mantissa error must be far below the
        // aggressive-truncation error.
        let err_at = |m: u32| {
            let (_, bp) = group_of(&vals, m);
            (dot_group_f32(&bp, &weights, 1.0) - reference).abs()
        };
        assert!(
            err_at(16) < 0.05 * err_at(2).max(1.0),
            "{} vs {}",
            err_at(16),
            err_at(2)
        );
        assert!(err_at(11) <= err_at(2));
    }

    #[test]
    fn zero_weights_give_zero_dot() {
        let (_, bp) = group_of(&[1.0, 2.0, 3.0], 8);
        let (dot, _) = dot_group_bit_serial(&bp, &[0, 0, 0]);
        assert_eq!(dot, 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weight_length_mismatch_panics() {
        let (_, bp) = group_of(&[1.0, 2.0], 8);
        let _ = dot_group_bit_serial(&bp, &[1]);
    }

    #[test]
    fn plane_first_reduction_saves_registers() {
        // Paper §IV-B: one shared accumulator instead of per-element
        // intermediate results.
        let c = reduction_costs(8, 64, 4);
        assert!(c.register_saving() > 20.0, "saving {}", c.register_saving());
        // Add counts are comparable (same asymptotic work).
        let ratio = c.plane_adds as f64 / c.naive_adds as f64;
        assert!(ratio > 0.8 && ratio < 1.2, "ratio {ratio}");
    }

    #[test]
    fn reduction_costs_scale_with_mantissa() {
        let narrow = reduction_costs(4, 64, 4);
        let wide = reduction_costs(12, 64, 4);
        assert!(wide.plane_adds > 2 * narrow.plane_adds);
        assert!(wide.naive_register_bits > narrow.naive_register_bits);
    }

    #[test]
    fn flat_dot_matches_bit_serial_on_every_leg() {
        let vals: Vec<f32> = (0..64)
            .map(|i| ((i * 37) % 61) as f32 * 0.21 - 6.0)
            .collect();
        let weights: Vec<i8> = (0..64).map(|i| ((i * 13) % 255) as i8).collect();
        for leg in anda_fp::simd::available_legs() {
            for m in [1u32, 4, 8, 11, 16] {
                for len in [1usize, 7, 16, 33, 64] {
                    let (_, bp) = group_of(&vals[..len], m);
                    let expected = dot_group_bit_serial(&bp, &weights[..len]).0;
                    let flat =
                        dot_group_int_flat_with_leg(leg, bp.signs(), bp.planes(), &weights[..len]);
                    assert_eq!(flat, expected, "leg={} m={m} len={len}", leg.name());
                }
            }
        }
    }

    #[test]
    fn flat_dot_extreme_weights_all_lanes() {
        // ±127 on all 64 lanes at m=16 stresses the widest partials.
        let vals = vec![65504.0f32; 64];
        let weights: Vec<i8> = (0..64)
            .map(|i| if i % 2 == 0 { 127 } else { -128 })
            .collect();
        let (_, bp) = group_of(&vals, 16);
        let expected = dot_group_bit_serial(&bp, &weights).0;
        for leg in anda_fp::simd::available_legs() {
            assert_eq!(
                dot_group_int_flat_with_leg(leg, bp.signs(), bp.planes(), &weights),
                expected,
                "leg={}",
                leg.name()
            );
        }
    }

    #[test]
    fn int4_weight_extremes() {
        let (g, bp) = group_of(&[65504.0, -65504.0], 16);
        let weights = [-8i8, 7];
        assert_eq!(
            dot_group_bit_serial(&bp, &weights).0,
            dot_group_reference(&g, &weights)
        );
    }
}
