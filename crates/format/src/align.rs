//! Shared-exponent alignment: the one quantiser behind every grouped path.
//!
//! Every finite FP16 value satisfies `x = (-1)^s · sig · 2^(e - 25)` with an
//! 11-bit significand `sig` (hidden bit explicit) and effective biased
//! exponent `e` (see [`anda_fp::Significand`]). A group shares `E = max e`;
//! an element's M-bit mantissa `m` is the significand aligned to `E` and
//! *truncated* to M bits ("bits exceeding the specified mantissa length are
//! truncated", §II-B — the Fig. 12 compressor shifts mantissas out
//! MSB-first and can do nothing else), so that the dequantized value is
//!
//! ```text
//! x̂ = (-1)^s · m · 2^(E - 14 - M)
//! ```
//!
//! For `M ≤ 11` this truncates precision even for the largest element; for
//! `M > 11` the extra bits absorb alignment shift, approaching lossless
//! storage as M grows (FIGNA's 14-bit mode and Flexpoint's 16-bit mode are
//! points in this space, cf. Table I).
//!
//! [`align_group`] is the owning oracle for every group size: the §II
//! design-space sweeps (Figs. 4–7, group sizes 1…d) and the 64-lane
//! hardware format of [`crate::anda`] go through the same function.
//! [`fake_quantize_in_place`] is its streaming twin — quantize →
//! dequantize where the values lie, no allocation — and the only thing the
//! activation codecs call.

use anda_fp::{saturate_to_f16, F16};

use crate::error::FormatError;

/// A sign-magnitude mantissa produced by group alignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SignMag {
    /// Sign: `true` when negative.
    pub negative: bool,
    /// M-bit magnitude (`0 ..= 2^M - 1`).
    pub magnitude: u16,
}

impl SignMag {
    /// The signed integer value of this mantissa.
    #[inline]
    pub fn signed(self) -> i32 {
        let m = i32::from(self.magnitude);
        if self.negative {
            -m
        } else {
            m
        }
    }

    /// Dequantizes this mantissa given its group's mantissa-LSB weight
    /// (see [`AlignedGroup::ulp`]). The single definition of the
    /// sign/magnitude dequant rule shared by every conversion path.
    #[inline]
    pub fn dequantize(self, ulp: f32) -> f32 {
        let v = f32::from(self.magnitude) * ulp;
        if self.negative {
            -v
        } else {
            v
        }
    }
}

/// Result of aligning one group of FP16 values to a shared exponent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignedGroup {
    /// Shared (maximum) effective biased exponent of the group, 1..=30.
    pub shared_exp: u16,
    /// Mantissa length in bits (1..=16).
    pub mantissa_bits: u32,
    /// One aligned mantissa per input element.
    pub elements: Vec<SignMag>,
}

impl AlignedGroup {
    /// The power-of-two weight of one mantissa LSB: `2^(shared_exp - 14 - M)`.
    pub fn ulp(&self) -> f32 {
        exp2f(i32::from(self.shared_exp) - 14 - self.mantissa_bits as i32)
    }

    /// Dequantizes element `i` to `f32`.
    pub fn dequantize(&self, i: usize) -> f32 {
        self.elements[i].dequantize(self.ulp())
    }

    /// Dequantizes the whole group.
    pub fn dequantize_all(&self) -> Vec<f32> {
        (0..self.elements.len())
            .map(|i| self.dequantize(i))
            .collect()
    }
}

/// `2^e` as f32 for exponents representable in f32 (|e| ≤ 126 here).
#[inline]
pub fn exp2f(e: i32) -> f32 {
    anda_fp::f16::exp2i(e)
}

/// Aligns a group of finite FP16 values to their shared maximum exponent and
/// truncates each mantissa to `mantissa_bits`.
///
/// # Errors
///
/// Returns [`FormatError::NonFinite`] if any element is NaN or infinite, and
/// [`FormatError::InvalidMantissaBits`] for `mantissa_bits` outside 1..=16.
pub fn align_group(values: &[F16], mantissa_bits: u32) -> Result<AlignedGroup, FormatError> {
    if !(1..=16).contains(&mantissa_bits) {
        return Err(FormatError::InvalidMantissaBits {
            requested: mantissa_bits,
            range: (1, 16),
        });
    }
    if let Some(index) = values.iter().position(|v| !v.is_finite()) {
        return Err(FormatError::NonFinite { index });
    }

    let sigs: Vec<_> = values.iter().map(|v| v.significand()).collect();
    let shared_exp = sigs.iter().map(|s| s.biased_exp).max().unwrap_or(1);

    let elements = sigs
        .iter()
        .map(|s| align_element(*s, shared_exp, mantissa_bits))
        .collect();

    Ok(AlignedGroup {
        shared_exp,
        mantissa_bits,
        elements,
    })
}

/// Aligns one significand to a group's shared exponent and truncates its
/// mantissa to `mantissa_bits`: the per-element step of [`align_group`],
/// exposed so streaming converters can quantize without building an
/// [`AlignedGroup`].
#[inline]
pub fn align_element(sig: anda_fp::Significand, shared_exp: u16, mantissa_bits: u32) -> SignMag {
    // m = sig · 2^(M - 11 - (E - e)), truncated: (sig << M) >> (11 + E - e).
    // `sig < 2^11` and the shift is 11..=40, so the result fits M bits.
    let shift = 11 + u32::from(shared_exp - sig.biased_exp);
    SignMag {
        negative: sig.negative,
        magnitude: ((u64::from(sig.magnitude) << mantissa_bits) >> shift) as u16,
    }
}

/// Quantize → dequantize `values` in place, in consecutive groups of
/// `group_size` (the last may be shorter): the values a tensor converted
/// to the grouped format would carry, bit-identical to [`align_group`]'s
/// `dequantize_all` per group and to the flat row codec at 64 lanes.
/// Inputs round through FP16 with saturation first (NaN → 0, overflow →
/// ±65504), as the FP32 accumulator → FP16 → grouped activation path does.
///
/// This is the per-layer activation codecs' hot path. It streams group by
/// group with **no heap allocation**: the shared exponent comes from a
/// first pass over the group, each element is then aligned and dequantized
/// where it lies. The saturating FP16 cast runs twice per element, trading
/// a little redundant bit math for zero allocations.
///
/// # Panics
///
/// Panics if `group_size` is 0 or `mantissa_bits` is outside 1..=16.
pub fn fake_quantize_in_place(values: &mut [f32], group_size: usize, mantissa_bits: u32) {
    assert!(
        (1..=16).contains(&mantissa_bits) && group_size > 0,
        "grouped quantisation needs mantissa_bits in 1..=16 and a non-zero \
         group_size (got mantissa_bits {mantissa_bits}, group_size {group_size})"
    );
    for chunk in values.chunks_mut(group_size) {
        let shared_exp = chunk
            .iter()
            .map(|&v| saturate_to_f16(v).significand().biased_exp)
            .max()
            .unwrap_or(1);
        let ulp = exp2f(i32::from(shared_exp) - 14 - mantissa_bits as i32);
        for v in chunk {
            let sig = saturate_to_f16(*v).significand();
            *v = align_element(sig, shared_exp, mantissa_bits).dequantize(ulp);
        }
    }
}

/// Upper bound on the absolute quantization error of any element in a group
/// aligned with truncation: one mantissa ULP, `2^(E - 14 - M)`.
pub fn truncation_error_bound(shared_exp: u16, mantissa_bits: u32) -> f32 {
    exp2f(i32::from(shared_exp) - 14 - mantissa_bits as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f16s(vals: &[f32]) -> Vec<F16> {
        vals.iter().map(|&v| F16::from_f32(v)).collect()
    }

    #[test]
    fn single_element_full_mantissa_is_lossless() {
        let vals = f16s(&[1.5]);
        let g = align_group(&vals, 11).unwrap();
        assert_eq!(g.dequantize(0), 1.5);
    }

    #[test]
    fn equal_exponents_no_shift() {
        // 1.0 and 1.5 share exponent 15; M=11 keeps both exactly.
        let vals = f16s(&[1.0, 1.5, -1.25]);
        let g = align_group(&vals, 11).unwrap();
        assert_eq!(g.shared_exp, 15);
        assert_eq!(g.dequantize_all(), vec![1.0, 1.5, -1.25]);
    }

    #[test]
    fn smaller_elements_lose_alignment_bits() {
        // 8.0 (e=18) dominates 0.0625 (e=11): diff 7. With M=11 the small
        // element keeps 11-7=4 significant bits — 0.0625 = 2^-4 survives.
        let vals = f16s(&[8.0, 0.0625]);
        let g = align_group(&vals, 11).unwrap();
        assert_eq!(g.shared_exp, 18);
        assert_eq!(g.dequantize(0), 8.0);
        assert_eq!(g.dequantize(1), 0.0625);
        // With M=4, the small element underflows to zero entirely:
        // m_exact = 1024 · 2^(4-11-7) = 2^-4 → truncates to 0.
        let g4 = align_group(&vals, 4).unwrap();
        assert_eq!(g4.dequantize(1), 0.0);
    }

    #[test]
    fn truncation_error_within_one_ulp() {
        let vals = f16s(&[3.1, 0.02, -1.7, 0.9]);
        for m in 1..=16 {
            let g = align_group(&vals, m).unwrap();
            let bound = truncation_error_bound(g.shared_exp, m);
            for (i, v) in vals.iter().enumerate() {
                let err = (g.dequantize(i) - v.to_f32()).abs();
                assert!(err <= bound, "m={m} i={i} err={err} bound={bound}");
            }
        }
    }

    #[test]
    fn truncation_never_increases_magnitude() {
        let vals = f16s(&[0.3, -0.7, 12.0, -0.001]);
        for m in 1..=16 {
            let g = align_group(&vals, m).unwrap();
            for (i, v) in vals.iter().enumerate() {
                assert!(g.dequantize(i).abs() <= v.to_f32().abs() + f32::EPSILON);
            }
        }
    }

    #[test]
    fn wide_mantissa_absorbs_alignment_shift() {
        // Exponent spread of 4; M=15 ≥ 11+4 keeps everything lossless.
        let vals = f16s(&[16.0, 1.0]);
        let g = align_group(&vals, 15).unwrap();
        assert_eq!(g.dequantize_all(), vec![16.0, 1.0]);
    }

    #[test]
    fn all_zero_group() {
        let vals = f16s(&[0.0, -0.0]);
        let g = align_group(&vals, 8).unwrap();
        assert_eq!(g.shared_exp, 1);
        assert_eq!(g.dequantize_all(), vec![0.0, 0.0]);
    }

    #[test]
    fn subnormals_align_correctly() {
        let tiny = 2.0f32.powi(-24); // smallest subnormal
        let vals = f16s(&[tiny, 2.0f32.powi(-14)]);
        let g = align_group(&vals, 11).unwrap();
        assert_eq!(g.dequantize(1), 2.0f32.powi(-14));
        assert_eq!(g.dequantize(0), tiny);
    }

    #[test]
    fn rejects_non_finite() {
        let err = align_group(&[F16::NAN], 8).unwrap_err();
        assert_eq!(err, FormatError::NonFinite { index: 0 });
        let err = align_group(&[F16::ONE, F16::INFINITY], 8).unwrap_err();
        assert_eq!(err, FormatError::NonFinite { index: 1 });
    }

    #[test]
    fn rejects_bad_mantissa_bits() {
        for bad in [0u32, 17, 100] {
            let err = align_group(&[F16::ONE], bad).unwrap_err();
            assert!(matches!(err, FormatError::InvalidMantissaBits { .. }));
        }
    }

    #[test]
    fn signed_helper() {
        assert_eq!(
            SignMag {
                negative: true,
                magnitude: 5
            }
            .signed(),
            -5
        );
        assert_eq!(
            SignMag {
                negative: false,
                magnitude: 5
            }
            .signed(),
            5
        );
    }

    /// Quantize → dequantize through the owning oracle, group by group.
    fn via_align_group(vals: &[f32], group_size: usize, m: u32) -> Vec<f32> {
        let f16s: Vec<F16> = vals.iter().map(|&v| saturate_to_f16(v)).collect();
        f16s.chunks(group_size)
            .flat_map(|chunk| align_group(chunk, m).unwrap().dequantize_all())
            .collect()
    }

    fn fake_quantize(vals: &[f32], group_size: usize, m: u32) -> Vec<f32> {
        let mut out = vals.to_vec();
        fake_quantize_in_place(&mut out, group_size, m);
        out
    }

    /// Sum of absolute errors against the FP16-rounded inputs.
    fn total_error(vals: &[f32], deq: &[f32]) -> f64 {
        vals.iter()
            .zip(deq)
            .map(|(&a, &b)| f64::from((F16::from_f32(a).to_f32() - b).abs()))
            .sum()
    }

    #[test]
    fn streaming_fake_quantize_is_bit_identical_to_align_group() {
        // Mix of zeros, signs, subnormals, spread exponents, saturation.
        let mut vals: Vec<f32> = (0..200)
            .map(|i| ((i as f32) - 100.0) * ((i as f32 * 0.7).sin() * 37.5))
            .collect();
        vals.extend_from_slice(&[0.0, -0.0, 1e-7, -1e-7, 7e4, -7e4, 65504.0, f32::NAN]);
        for (gs, m) in [(64usize, 4u32), (64, 8), (3, 1), (7, 16), (128, 11)] {
            let owned = via_align_group(&vals, gs, m);
            let streamed = fake_quantize(&vals, gs, m);
            for (i, (&a, &b)) in owned.iter().zip(&streamed).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "gs={gs} m={m} i={i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fake_quantize_rejects_bad_parameters() {
        for (gs, m) in [(0usize, 8u32), (64, 0), (64, 17)] {
            let bad = std::panic::catch_unwind(|| fake_quantize(&[1.0], gs, m));
            assert!(bad.is_err(), "gs={gs} m={m}");
        }
        assert_eq!(fake_quantize(&[1.0], 64, 8), [1.0]);
    }

    #[test]
    fn grouping_splits_with_remainder() {
        // 10 values in groups of 4: the 2-lane tail is its own group, so
        // the outlier in the first group does not reach it.
        let mut vals = [0.01f32; 10];
        vals[0] = 1000.0;
        let deq = fake_quantize(&vals, 4, 4);
        assert_eq!(&deq[1..4], &[0.0; 3]);
        assert!(deq[4..].iter().all(|&v| v > 0.0));
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
        let g = align_group(&vals, 6).unwrap();
        assert_eq!(g.shared_exp, 16);
        // Element 0: 11-bit significand, shift 1 → its top 5 bits.
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
        for (gs, m) in [(8usize, 4u32), (32, 7), (64, 10), (128, 13)] {
            let deq = fake_quantize(&vals, gs, m);
            for (gi, chunk) in vals.chunks(gs).enumerate() {
                let bound = align_group(&f16s(chunk), m).unwrap().ulp();
                for (i, &v) in chunk.iter().enumerate() {
                    let idx = gi * gs + i;
                    let orig = F16::from_f32(v).to_f32();
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
            let err = total_error(&vals, &fake_quantize(&vals, 64, m));
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
            let err = total_error(&vals, &fake_quantize(&vals, gs, 6));
            assert!(err <= prev_err + 1e-9, "gs={gs}: {err} > {prev_err}");
            prev_err = err;
        }
    }

    #[test]
    fn outlier_forces_small_values_to_zero() {
        // One huge element with a tight mantissa wipes out tiny peers —
        // the failure mode motivating variable-length mantissas (§II-B).
        let deq = fake_quantize(&[1000.0, 0.001, 0.002, -0.0015], 4, 4);
        assert!((deq[0] - 1000.0).abs() < 64.0);
        assert_eq!(&deq[1..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn saturation_clamps_overflow_and_nan() {
        // M = 11 in single-lane groups keeps every FP16 value exactly.
        let deq = fake_quantize(&[1e9, -1e9, f32::NAN, f32::INFINITY, 1.5], 1, 11);
        assert_eq!(deq, [65504.0, -65504.0, 0.0, 65504.0, 1.5]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(fake_quantize(&[], 4, 8), Vec::<f32>::new());
        let g = align_group(&[], 8).unwrap();
        assert_eq!((g.shared_exp, g.dequantize_all()), (1, vec![]));
    }
}
