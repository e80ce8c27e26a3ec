//! Batched FP16 conversion of `f32` rows with runtime SIMD dispatch.
//!
//! Two kernels, one per direction: [`narrow`] rounds `f32` to saturated
//! binary16 bits and [`widen`] turns binary16 bits back into `f32`. The
//! FP16 KV page policy (`Fp16` in `anda-llm`) narrows every row it caches
//! and widens a page's rows into the walk's scratch; the FP16 activation
//! codec and model synthesis round through both
//! ([`saturate_f16_widen_in_place`], [`saturate_f16_widen_slice`]). Each
//! kernel has one body per leg, 8 (AVX2) or 4 (NEON) lanes a step. The
//! AVX2 leg is F16C: [`narrow`] zeroes NaN lanes and clamps the rest to
//! ±65504 before `vcvtps2ph`, so nothing it writes is NaN, which is what
//! lets [`widen`] use `vcvtph2ps` (it would quieten a signalling NaN the
//! scalar widen keeps). The NEON leg converts with branchless bit
//! manipulation. Every kernel is `to_bits`-identical to its scalar twin —
//! the twin *is* the oracle, enforced by the property suites on every
//! available [`SimdLeg`].

use crate::f16::{saturate_to_f16, F16};
use crate::simd::{active_leg, SimdLeg};

/// Rounds every element to saturating binary16 bits: `dst[i] =
/// saturate_to_f16(src[i]).to_bits()` (NaN becomes +0, the rest clamps
/// to ±65504 and rounds nearest-even) on the active dispatch leg. The
/// result is never a NaN pattern.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn narrow(src: &[f32], dst: &mut [u16]) {
    narrow_on(active_leg(), src, dst);
}

/// [`narrow`] on an explicit leg.
///
/// # Panics
///
/// Panics if the slice lengths differ or the leg is unavailable on this
/// host.
pub fn narrow_with_leg(leg: SimdLeg, src: &[f32], dst: &mut [u16]) {
    leg.assert_available();
    narrow_on(leg, src, dst)
}

/// The dispatch of [`narrow_with_leg`]. `leg` must be available on this
/// host: it is `active_leg()`, or the entry above asserted it.
fn narrow_on(leg: SimdLeg, src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    match leg {
        SimdLeg::Scalar => narrow_scalar(src, dst),
        // SAFETY: the CPU runs `leg` (this function's precondition; a CPU
        // that runs `Avx512` runs `Avx2`); `dst` is as long as `src`
        // (asserted above).
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 | SimdLeg::Avx512 => unsafe { narrow_avx2(src, dst) },
        // SAFETY: as above, for NEON.
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe { narrow_neon(src, dst) },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// The scalar oracle of [`narrow`].
pub fn narrow_scalar(src: &[f32], dst: &mut [u16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = saturate_to_f16(s).to_bits();
    }
}

/// Widens binary16 bits to `f32`: `dst[i] = F16::from_bits(src[i]).to_f32()`
/// on the active dispatch leg.
///
/// Its input is [`narrow`]'s output, which is never NaN: on a NaN pattern
/// the legs may differ, because F16C's `vcvtph2ps` quietens a signalling
/// NaN that the scalar widen keeps. Every other pattern widens exactly,
/// on every leg.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn widen(src: &[u16], dst: &mut [f32]) {
    widen_on(active_leg(), src, dst);
}

/// [`widen`] on an explicit leg (same input contract).
///
/// # Panics
///
/// Panics if the slice lengths differ or the leg is unavailable on this
/// host.
pub fn widen_with_leg(leg: SimdLeg, src: &[u16], dst: &mut [f32]) {
    leg.assert_available();
    widen_on(leg, src, dst)
}

/// The dispatch of [`widen_with_leg`]. `leg` must be available on this
/// host: it is `active_leg()`, or the entry above asserted it.
fn widen_on(leg: SimdLeg, src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    match leg {
        SimdLeg::Scalar => widen_scalar(src, dst),
        // SAFETY: the CPU runs `leg` (this function's precondition; a CPU
        // that runs `Avx512` runs `Avx2`); `dst` is as long as `src`
        // (asserted above).
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 | SimdLeg::Avx512 => unsafe { widen_avx2(src, dst) },
        // SAFETY: as above, for NEON.
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe { widen_neon(src, dst) },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// The scalar oracle of [`widen`].
pub fn widen_scalar(src: &[u16], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_bits(s).to_f32();
    }
}

/// Lanes the round trips below narrow at a time, into a stack buffer they
/// then widen.
const ROUND_LANES: usize = 64;

/// Rounds every element through saturating binary16 and widens it back:
/// `dst[i] = saturate_to_f16(src[i]).to_f32()`, [`narrow`] then
/// [`widen`] on the active dispatch leg.
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

/// The loop of [`saturate_f16_widen_slice_with_leg`]. `leg` must be
/// available on this host.
fn saturate_f16_widen_on(leg: SimdLeg, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    let mut bits = [0u16; ROUND_LANES];
    for (src, dst) in src.chunks(ROUND_LANES).zip(dst.chunks_mut(ROUND_LANES)) {
        let bits = &mut bits[..src.len()];
        narrow_on(leg, src, bits);
        widen_on(leg, bits, dst);
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

/// The loop of [`saturate_f16_widen_in_place_with_leg`]. `leg` must be
/// available on this host.
fn saturate_f16_widen_in_place_on(leg: SimdLeg, v: &mut [f32]) {
    let mut bits = [0u16; ROUND_LANES];
    for v in v.chunks_mut(ROUND_LANES) {
        let bits = &mut bits[..v.len()];
        narrow_on(leg, v, bits);
        widen_on(leg, bits, v);
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
/// Requires AVX2 and F16C; `dst` must be at least as long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn narrow_avx2(src: &[f32], dst: &mut [u16]) {
    use core::arch::x86_64::*;
    let chunks = src.len() / 8;
    for c in 0..chunks {
        let h = crate::simd::x86::saturate_f32x8_to_f16(_mm256_loadu_ps(src.as_ptr().add(c * 8)));
        _mm_storeu_si128(dst.as_mut_ptr().add(c * 8).cast(), h);
    }
    narrow_scalar(&src[chunks * 8..], &mut dst[chunks * 8..]);
}

/// # Safety
///
/// Requires AVX2 and F16C; `dst` must be at least as long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn widen_avx2(src: &[u16], dst: &mut [f32]) {
    use core::arch::x86_64::*;
    let chunks = src.len() / 8;
    for c in 0..chunks {
        let h = _mm_loadu_si128(src.as_ptr().add(c * 8).cast());
        _mm256_storeu_ps(dst.as_mut_ptr().add(c * 8), _mm256_cvtph_ps(h));
    }
    widen_scalar(&src[chunks * 8..], &mut dst[chunks * 8..]);
}

/// # Safety
///
/// Requires NEON; `dst` must be at least as long as `src`.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn narrow_neon(src: &[f32], dst: &mut [u16]) {
    use core::arch::aarch64::*;
    let max = vdupq_n_f32(65504.0);
    let neg_max = vdupq_n_f32(-65504.0);
    let chunks = src.len() / 4;
    for c in 0..chunks {
        let v = vld1q_f32(src.as_ptr().add(c * 4));
        let nan = vmvnq_u32(vceqq_f32(v, v));
        let clamped = vreinterpretq_f32_u32(vbicq_u32(
            vreinterpretq_u32_f32(vmaxq_f32(vminq_f32(v, max), neg_max)),
            nan,
        ));
        let h = crate::simd::neon::f32x4_to_f16_bits(clamped);
        vst1_u16(dst.as_mut_ptr().add(c * 4), vmovn_u32(h));
    }
    narrow_scalar(&src[chunks * 4..], &mut dst[chunks * 4..]);
}

/// # Safety
///
/// Requires NEON; `dst` must be at least as long as `src`.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn widen_neon(src: &[u16], dst: &mut [f32]) {
    use core::arch::aarch64::*;
    let chunks = src.len() / 4;
    for c in 0..chunks {
        let h = vmovl_u16(vld1_u16(src.as_ptr().add(c * 4)));
        vst1q_f32(
            dst.as_mut_ptr().add(c * 4),
            crate::simd::neon::f16_bits_to_f32x4(h),
        );
    }
    widen_scalar(&src[chunks * 4..], &mut dst[chunks * 4..]);
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
        let entries: [Entry; 4] = [
            ("saturate_f16_widen_slice_with_leg", &|| {
                saturate_f16_widen_slice_with_leg(leg, &src, &mut src.clone())
            }),
            ("saturate_f16_widen_in_place_with_leg", &|| {
                saturate_f16_widen_in_place_with_leg(leg, &mut src.clone())
            }),
            ("narrow_with_leg", &|| {
                narrow_with_leg(leg, &src, &mut [0; 16])
            }),
            ("widen_with_leg", &|| {
                widen_with_leg(leg, &[0; 16], &mut src.clone())
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
        // Every pattern `widen` takes: all but the NaNs.
        let patterns: Vec<u16> = (0..=u16::MAX)
            .filter(|&h| !F16::from_bits(h).to_f32().is_nan())
            .collect();
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
                let (mut want, mut got) = (vec![0u16; src.len()], vec![1u16; src.len()]);
                narrow_scalar(src, &mut want);
                narrow_with_leg(leg, src, &mut got);
                assert_eq!(got, want, "narrow leg {}", leg.name());
            }
            // Every pattern, starting at each lane of a vector.
            for start in 0..8 {
                let src = &patterns[start..];
                let (mut want, mut got) = (vec![0.0f32; src.len()], vec![1.0f32; src.len()]);
                widen_scalar(src, &mut want);
                widen_with_leg(leg, src, &mut got);
                for ((x, y), h) in want.iter().zip(&got).zip(src) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "widen {h:#06x} leg {}",
                        leg.name()
                    );
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
        let mut bits = [0u16; 4];
        narrow(&src, &mut bits);
        assert_eq!(bits, [0x3C00, 0xC100, 0, 0x7BFF]);
        widen(&bits, &mut out);
        assert_eq!(out, [1.0, -2.5, 0.0, 65504.0]);
    }
}
