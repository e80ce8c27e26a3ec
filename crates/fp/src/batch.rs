//! Batched FP16 rounding of `f32` rows with runtime SIMD dispatch.
//!
//! The KV cache's rounded row policy (`Fp16` in `anda-llm`) rounds whole
//! `d_model`-wide rows per cached position, and the FP16 activation
//! codec rounds every block between GEMMs — per-element calls
//! into the branchy scalar converters dominate those paths. The slice
//! kernels here process 8 (AVX2) or 4 (NEON) lanes per step using
//! branchless bit manipulation (masked selects instead of per-element
//! branches on subnormals/NaN), and every kernel is `to_bits`-identical
//! to its scalar twin — the twin *is* the oracle, enforced by the
//! property suites on every available [`SimdLeg`].

use crate::f16::saturate_to_f16;
use crate::simd::{active_leg, SimdLeg};

/// Rounds every element through saturating binary16 and widens it back:
/// `dst[i] = saturate_to_f16(src[i]).to_f32()` — the `Fp16` KV row
/// policy's push-path kernel — on the active dispatch leg.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn saturate_f16_widen_slice(src: &[f32], dst: &mut [f32]) {
    saturate_f16_widen_on(active_leg(), src, dst);
}

/// [`saturate_f16_widen_slice`] on an explicit leg.
///
/// # Panics
///
/// Panics if the slice lengths differ or the leg is unavailable on this
/// host.
pub fn saturate_f16_widen_slice_with_leg(leg: SimdLeg, src: &[f32], dst: &mut [f32]) {
    leg.assert_available();
    saturate_f16_widen_on(leg, src, dst)
}

/// The dispatch of [`saturate_f16_widen_slice_with_leg`]. `leg` must be
/// available on this host: it is `active_leg()`, or the entry above
/// asserted it.
fn saturate_f16_widen_on(leg: SimdLeg, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    match leg {
        SimdLeg::Scalar => saturate_f16_widen_scalar(src, dst),
        // SAFETY: the CPU runs `leg` (this function's precondition); both
        // slices hold `src.len()` valid elements (asserted above) and,
        // being `&` and `&mut`, do not overlap.
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 => unsafe {
            saturate_f16_widen_avx2(src.as_ptr(), dst.as_mut_ptr(), src.len())
        },
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe {
            saturate_f16_widen_neon(src.as_ptr(), dst.as_mut_ptr(), src.len())
        },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// The scalar oracle of [`saturate_f16_widen_slice`].
pub fn saturate_f16_widen_scalar(src: &[f32], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = saturate_to_f16(s).to_f32();
    }
}

/// [`saturate_f16_widen_slice`] in place: `v[i] =
/// saturate_to_f16(v[i]).to_f32()` — the FP16 activation rounding
/// between decode GEMMs — on the active dispatch leg.
pub fn saturate_f16_widen_in_place(v: &mut [f32]) {
    saturate_f16_widen_in_place_on(active_leg(), v);
}

/// [`saturate_f16_widen_in_place`] on an explicit leg.
///
/// # Panics
///
/// Panics if the leg is unavailable on this host.
pub fn saturate_f16_widen_in_place_with_leg(leg: SimdLeg, v: &mut [f32]) {
    leg.assert_available();
    saturate_f16_widen_in_place_on(leg, v)
}

/// The dispatch of [`saturate_f16_widen_in_place_with_leg`]. `leg` must be
/// available on this host: it is `active_leg()`, or the entry above
/// asserted it.
fn saturate_f16_widen_in_place_on(leg: SimdLeg, v: &mut [f32]) {
    let (ptr, len) = (v.as_mut_ptr(), v.len());
    match leg {
        SimdLeg::Scalar => saturate_f16_widen_in_place_scalar(v),
        // SAFETY: the CPU runs `leg` (this function's precondition);
        // source and destination are the same `len` valid elements, and
        // the kernels read each element (or vector of elements) before
        // writing it.
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 => unsafe { saturate_f16_widen_avx2(ptr, ptr, len) },
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe { saturate_f16_widen_neon(ptr, ptr, len) },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// The scalar oracle of [`saturate_f16_widen_in_place`].
pub fn saturate_f16_widen_in_place_scalar(v: &mut [f32]) {
    for x in v.iter_mut() {
        *x = saturate_to_f16(*x).to_f32();
    }
}

/// # Safety
///
/// Requires AVX2; `src` and `dst` must each be valid for `len` elements
/// and either be the same pointer or not overlap (every element is read
/// before its slot is written).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn saturate_f16_widen_avx2(src: *const f32, dst: *mut f32, len: usize) {
    use core::arch::x86_64::*;
    let max = _mm256_set1_ps(65504.0);
    let neg_max = _mm256_set1_ps(-65504.0);
    let chunks = len / 8;
    for c in 0..chunks {
        let v = _mm256_loadu_ps(src.add(c * 8));
        // NaN lanes become +0 (the saturation convention); the clamp
        // keeps every remaining lane finite so the f16 conversion can
        // never produce an infinity.
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
        let clamped = _mm256_andnot_ps(nan, _mm256_max_ps(_mm256_min_ps(v, max), neg_max));
        let h = crate::simd::x86::f32x8_to_f16_bits(clamped);
        let w = crate::simd::x86::f16_bits_to_f32x8(h);
        _mm256_storeu_ps(dst.add(c * 8), w);
    }
    for i in chunks * 8..len {
        *dst.add(i) = saturate_to_f16(*src.add(i)).to_f32();
    }
}

/// # Safety
///
/// Requires NEON; pointer contract as the AVX2 twin.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn saturate_f16_widen_neon(src: *const f32, dst: *mut f32, len: usize) {
    use core::arch::aarch64::*;
    let max = vdupq_n_f32(65504.0);
    let neg_max = vdupq_n_f32(-65504.0);
    let chunks = len / 4;
    for c in 0..chunks {
        let v = vld1q_f32(src.add(c * 4));
        let nan = vmvnq_u32(vceqq_f32(v, v));
        let clamped = vreinterpretq_f32_u32(vbicq_u32(
            vreinterpretq_u32_f32(vmaxq_f32(vminq_f32(v, max), neg_max)),
            nan,
        ));
        let h = crate::simd::neon::f32x4_to_f16_bits(clamped);
        let w = crate::simd::neon::f16_bits_to_f32x4(h);
        vst1q_f32(dst.add(c * 4), w);
    }
    for i in chunks * 4..len {
        *dst.add(i) = saturate_to_f16(*src.add(i)).to_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::available_legs;

    #[test]
    fn every_with_leg_entry_refuses_an_unavailable_leg() {
        // Neon on x86-64, Avx2 on aarch64 — or Avx2 on an x86-64 CPU
        // without it, where a missing check would be an illegal
        // instruction from safe code.
        let leg = [SimdLeg::Avx2, SimdLeg::Neon]
            .into_iter()
            .find(|leg| !leg.is_available())
            .expect("no host runs both vector legs");
        let want = format!("SIMD leg {} unavailable on this host", leg.name());
        let src = [1.0f32; 16];
        type Entry<'a> = (&'a str, &'a dyn Fn());
        let entries: [Entry; 2] = [
            ("saturate_f16_widen_slice_with_leg", &|| {
                saturate_f16_widen_slice_with_leg(leg, &src, &mut src.clone())
            }),
            ("saturate_f16_widen_in_place_with_leg", &|| {
                saturate_f16_widen_in_place_with_leg(leg, &mut src.clone())
            }),
        ];
        for (name, entry) in entries {
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry)).expect_err(name);
            assert_eq!(panic.downcast_ref::<String>(), Some(&want), "{name}");
        }
    }

    fn adversarial_values() -> Vec<f32> {
        let mut v: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.5,
            65504.0,
            -65504.0,
            65520.0,
            1e-8,
            -2.0f32.powi(-25),
            2.0f32.powi(-24),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
        ];
        // Deterministic pseudo-random bit patterns (all classes).
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..300 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v.push(f32::from_bits(state as u32));
        }
        v
    }

    #[test]
    fn all_legs_match_scalar_on_adversarial_lengths() {
        let vals = adversarial_values();
        for leg in available_legs() {
            // Lengths below one vector width, exactly one, and ragged tails.
            for len in [0usize, 1, 3, 4, 7, 8, 9, 16, 31, 300] {
                let src = &vals[..len.min(vals.len())];
                let mut a = vec![0.0f32; src.len()];
                let mut b = vec![0.0f32; src.len()];
                saturate_f16_widen_scalar(src, &mut a);
                saturate_f16_widen_slice_with_leg(leg, src, &mut b);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "f16 widen leg {}", leg.name());
                }
                b.copy_from_slice(src);
                saturate_f16_widen_in_place_with_leg(leg, &mut b);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "in-place leg {}", leg.name());
                }
            }
        }
    }

    #[test]
    fn dispatched_entry_points_run() {
        let src = [1.0f32, -2.5, f32::NAN, 1e9];
        let mut out = [0.0f32; 4];
        saturate_f16_widen_slice(&src, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], 65504.0);
    }
}
