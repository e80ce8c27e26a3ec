//! Runtime SIMD dispatch for the workspace's vector kernels.
//!
//! Every hot-path kernel in the workspace (the `anda-format` row codec,
//! the batch FP16 conversions in this crate, the GeMM inner loops in
//! `anda-tensor`/`anda-quant`) exists in two or three *legs*: a scalar
//! reference implementation and `std::arch` vector implementations for
//! AVX2 (x86-64) and NEON (aarch64). This module is the single place that
//! decides which leg runs:
//!
//! - CPU features are detected once per process (`is_x86_feature_detected!`
//!   / `is_aarch64_feature_detected!`).
//! - The `ANDA_SIMD` environment variable overrides the choice:
//!   `auto` (default), `avx2`, `neon` or `scalar`. Requesting a leg the
//!   host cannot run falls back to `scalar` with a warning — it never
//!   silently runs the wrong instructions. The variable is read once;
//!   set it before the first kernel call.
//!
//! The scalar leg is not a degraded mode: it is the *oracle*. Every
//! vector kernel is required to produce `f32::to_bits`-identical results
//! to its scalar twin on every input (the property suites enforce this),
//! because bit-exact decode under every KV policy is the invariant the
//! serving stack's copy-on-write sharing and batched-vs-sequential
//! equality are built on.

use std::sync::OnceLock;

/// One dispatchable kernel implementation family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLeg {
    /// Portable scalar Rust — the bit-exactness oracle, always available.
    Scalar,
    /// 256-bit AVX2 integer/float vectors (x86-64).
    Avx2,
    /// 128-bit NEON vectors (aarch64).
    Neon,
}

impl SimdLeg {
    /// The name used by `ANDA_SIMD` and printed by benches/CI logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdLeg::Scalar => "scalar",
            SimdLeg::Avx2 => "avx2",
            SimdLeg::Neon => "neon",
        }
    }

    /// `true` when the current host can execute this leg.
    pub fn is_available(self) -> bool {
        match self {
            SimdLeg::Scalar => true,
            SimdLeg::Avx2 => avx2_available(),
            SimdLeg::Neon => neon_available(),
        }
    }

    /// The check every public `*_with_leg` kernel entry makes before it
    /// dispatches: a vector leg's kernels are `unsafe` to run on a CPU
    /// without its feature, and the entries are safe functions.
    ///
    /// # Panics
    ///
    /// Panics if the current host cannot execute this leg.
    #[inline]
    pub fn assert_available(self) {
        assert!(
            self.is_available(),
            "SIMD leg {} unavailable on this host",
            self.name()
        );
    }
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn neon_available() -> bool {
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        false
    }
}

/// The fastest leg the host supports (what `ANDA_SIMD=auto` picks).
pub fn best_available_leg() -> SimdLeg {
    if avx2_available() {
        SimdLeg::Avx2
    } else if neon_available() {
        SimdLeg::Neon
    } else {
        SimdLeg::Scalar
    }
}

/// Every leg the host can execute, scalar first. Property suites iterate
/// this list so the vector legs are exercised wherever they exist.
pub fn available_legs() -> Vec<SimdLeg> {
    let mut legs = vec![SimdLeg::Scalar];
    if avx2_available() {
        legs.push(SimdLeg::Avx2);
    }
    if neon_available() {
        legs.push(SimdLeg::Neon);
    }
    legs
}

/// The leg every dispatched kernel runs, decided once per process from
/// CPU feature detection and the `ANDA_SIMD` override (see the module
/// docs for the override grammar and fallback rules). Inlined into the
/// other crates' dispatchers: after the first call it is one load and a
/// branch, which a per-group caller (`anda_quant::gemm`) pays per group.
#[inline]
pub fn active_leg() -> SimdLeg {
    static ACTIVE: OnceLock<SimdLeg> = OnceLock::new();
    *ACTIVE.get_or_init(choose_leg)
}

fn choose_leg() -> SimdLeg {
    let requested = std::env::var("ANDA_SIMD").ok();
    match requested.as_deref() {
        None | Some("") | Some("auto") => best_available_leg(),
        Some("scalar") => SimdLeg::Scalar,
        Some("avx2") => {
            if avx2_available() {
                SimdLeg::Avx2
            } else {
                eprintln!("ANDA_SIMD=avx2 requested but AVX2 is unavailable; using scalar");
                SimdLeg::Scalar
            }
        }
        Some("neon") => {
            if neon_available() {
                SimdLeg::Neon
            } else {
                eprintln!("ANDA_SIMD=neon requested but NEON is unavailable; using scalar");
                SimdLeg::Scalar
            }
        }
        Some(other) => {
            eprintln!("unrecognized ANDA_SIMD={other:?} (want auto|avx2|neon|scalar); using auto");
            best_available_leg()
        }
    }
}

/// One-line description of the host's detected vector features, for
/// bench smokes and CI logs (so logs show which kernels actually ran).
pub fn cpu_features() -> String {
    fn yn(b: bool) -> &'static str {
        if b {
            "yes"
        } else {
            "no"
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        format!(
            "x86_64 (avx2={} fma={} f16c={} avx512f={})",
            yn(std::arch::is_x86_feature_detected!("avx2")),
            yn(std::arch::is_x86_feature_detected!("fma")),
            yn(std::arch::is_x86_feature_detected!("f16c")),
            yn(std::arch::is_x86_feature_detected!("avx512f")),
        )
    }
    #[cfg(target_arch = "aarch64")]
    {
        format!(
            "aarch64 (neon={})",
            yn(std::arch::is_aarch64_feature_detected!("neon"))
        )
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = yn;
        "unknown architecture (scalar only)".to_string()
    }
}

/// AVX2 lane primitives shared by this crate's batch conversions and the
/// `anda-format` row codec. All functions here compile with the `avx2`
/// target feature and must only be called after runtime detection.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use core::arch::x86_64::*;

    /// Converts 8 `f32` lanes to binary16 bit patterns (in the low 16 bits
    /// of each `i32` lane), bit-identical to [`crate::F16::from_f32`] for
    /// every input including subnormals, infinities and NaN payloads.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn f32x8_to_f16_bits(v: __m256) -> __m256i {
        let bits = _mm256_castps_si256(v);
        let zero = _mm256_setzero_si256();
        let sign = _mm256_and_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(0x8000));
        let exp = _mm256_and_si256(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(0xFF));
        let frac = _mm256_and_si256(bits, _mm256_set1_epi32(0x007F_FFFF));
        // Target binary16 biased exponent: e16 = exp - 127 + 15.
        let e16 = _mm256_sub_epi32(exp, _mm256_set1_epi32(112));

        // Normal path (1 <= e16 <= 30): round the adjacent exponent|fraction
        // word right by 13 with nearest-even, exactly `round_shift_rne`:
        // (joined + 0xFFF + lsb) >> 13. A fraction carry bumps the exponent
        // (possibly to infinity) because the fields are adjacent.
        let joined = _mm256_or_si256(_mm256_slli_epi32(e16, 23), frac);
        let lsb = _mm256_and_si256(_mm256_srli_epi32(joined, 13), _mm256_set1_epi32(1));
        let normal = _mm256_srli_epi32(
            _mm256_add_epi32(joined, _mm256_add_epi32(_mm256_set1_epi32(0xFFF), lsb)),
            13,
        );

        // Subnormal path (-10 <= e16 <= 0): shift the 24-bit significand
        // (hidden bit explicit for normals) right by 14 - e16 with RNE.
        let hidden = _mm256_andnot_si256(
            _mm256_cmpeq_epi32(exp, zero),
            _mm256_set1_epi32(0x0080_0000),
        );
        let sig = _mm256_or_si256(frac, hidden);
        let shift = _mm256_sub_epi32(_mm256_set1_epi32(14), e16); // 14..=24 where selected
        let half_m1 = _mm256_sub_epi32(
            _mm256_sllv_epi32(
                _mm256_set1_epi32(1),
                _mm256_sub_epi32(shift, _mm256_set1_epi32(1)),
            ),
            _mm256_set1_epi32(1),
        );
        let sub_lsb = _mm256_and_si256(_mm256_srlv_epi32(sig, shift), _mm256_set1_epi32(1));
        let subnormal = _mm256_srlv_epi32(
            _mm256_add_epi32(sig, _mm256_add_epi32(half_m1, sub_lsb)),
            shift,
        );

        // Special path (exp == 0xFF): infinity keeps a zero fraction, NaN
        // keeps its payload's top bits and a set quiet bit.
        let frac_nz = _mm256_xor_si256(_mm256_cmpeq_epi32(frac, zero), _mm256_set1_epi32(-1));
        let nan_bits = _mm256_and_si256(
            frac_nz,
            _mm256_or_si256(
                _mm256_set1_epi32(0x0200),
                _mm256_and_si256(_mm256_srli_epi32(frac, 13), _mm256_set1_epi32(0x03FF)),
            ),
        );
        let special = _mm256_or_si256(_mm256_set1_epi32(0x7C00), nan_bits);

        // Select: underflow-to-zero default, then subnormal, normal,
        // overflow-to-infinity, and specials (exp == 0xFF also satisfies
        // e16 > 30, so the special blend must come last).
        let ge1 = _mm256_cmpgt_epi32(e16, zero);
        let ge_m10 = _mm256_cmpgt_epi32(e16, _mm256_set1_epi32(-11));
        let gt30 = _mm256_cmpgt_epi32(e16, _mm256_set1_epi32(30));
        let mut h = zero;
        h = _mm256_blendv_epi8(h, subnormal, _mm256_andnot_si256(ge1, ge_m10));
        h = _mm256_blendv_epi8(h, normal, _mm256_andnot_si256(gt30, ge1));
        h = _mm256_blendv_epi8(h, _mm256_set1_epi32(0x7C00), gt30);
        h = _mm256_blendv_epi8(h, special, _mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0xFF)));
        _mm256_or_si256(h, sign)
    }

    /// Converts 8 binary16 bit patterns (low 16 bits of each `i32` lane)
    /// to `f32` lanes, bit-identical to [`crate::F16::to_f32`].
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn f16_bits_to_f32x8(h: __m256i) -> __m256 {
        let zero = _mm256_setzero_si256();
        let sign = _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x8000)), 16);
        let exp = _mm256_and_si256(_mm256_srli_epi32(h, 10), _mm256_set1_epi32(0x1F));
        let frac = _mm256_and_si256(h, _mm256_set1_epi32(0x03FF));
        let frac13 = _mm256_slli_epi32(frac, 13);

        // Normal: rebase the exponent. Special: force exponent 0xFF.
        let normal = _mm256_or_si256(
            _mm256_slli_epi32(_mm256_add_epi32(exp, _mm256_set1_epi32(112)), 23),
            frac13,
        );
        let special = _mm256_or_si256(_mm256_set1_epi32(0x7F80_0000), frac13);
        // Subnormal (or zero): the value is exactly frac · 2^-24, and both
        // the i32→f32 convert and the power-of-two multiply are exact.
        let subnormal = _mm256_castps_si256(_mm256_mul_ps(
            _mm256_cvtepi32_ps(frac),
            _mm256_set1_ps(f32::from_bits((127 - 24) << 23)),
        ));

        let mut out = normal;
        out = _mm256_blendv_epi8(out, subnormal, _mm256_cmpeq_epi32(exp, zero));
        out = _mm256_blendv_epi8(
            out,
            special,
            _mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0x1F)),
        );
        _mm256_castsi256_ps(_mm256_or_si256(out, sign))
    }
}

/// NEON lane primitives, mirroring [`x86`] at 128-bit width.
#[cfg(target_arch = "aarch64")]
pub mod neon {
    use core::arch::aarch64::*;

    /// Converts 4 `f32` lanes to binary16 bit patterns (low 16 bits of
    /// each `u32` lane), bit-identical to [`crate::F16::from_f32`].
    ///
    /// # Safety
    ///
    /// The caller must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn f32x4_to_f16_bits(v: float32x4_t) -> uint32x4_t {
        let bits = vreinterpretq_u32_f32(v);
        let sign = vandq_u32(vshrq_n_u32(bits, 16), vdupq_n_u32(0x8000));
        let exp = vandq_u32(vshrq_n_u32(bits, 23), vdupq_n_u32(0xFF));
        let frac = vandq_u32(bits, vdupq_n_u32(0x007F_FFFF));
        let e16 = vsubq_s32(vreinterpretq_s32_u32(exp), vdupq_n_s32(112));

        // Normal path: (joined + 0xFFF + lsb) >> 13, nearest-even.
        let joined = vorrq_u32(vreinterpretq_u32_s32(vshlq_n_s32(e16, 23)), frac);
        let lsb = vandq_u32(vshrq_n_u32(joined, 13), vdupq_n_u32(1));
        let normal = vshrq_n_u32(vaddq_u32(joined, vaddq_u32(vdupq_n_u32(0xFFF), lsb)), 13);

        // Subnormal path: RNE right shift of the explicit significand by
        // 14 - e16 (clamped to the lane width for the unselected lanes).
        let hidden = vbicq_u32(vdupq_n_u32(0x0080_0000), vceqzq_u32(exp));
        let sig = vorrq_u32(frac, hidden);
        let shift = vminq_s32(
            vmaxq_s32(vsubq_s32(vdupq_n_s32(14), e16), vdupq_n_s32(0)),
            vdupq_n_s32(31),
        );
        let neg_shift = vnegq_s32(shift);
        let half_m1 = vsubq_u32(
            vshlq_u32(vdupq_n_u32(1), vsubq_s32(shift, vdupq_n_s32(1))),
            vdupq_n_u32(1),
        );
        let sub_lsb = vandq_u32(vshlq_u32(sig, neg_shift), vdupq_n_u32(1));
        let subnormal = vshlq_u32(vaddq_u32(sig, vaddq_u32(half_m1, sub_lsb)), neg_shift);

        // Specials (exp == 0xFF).
        let frac_nz = vmvnq_u32(vceqzq_u32(frac));
        let nan_bits = vandq_u32(
            frac_nz,
            vorrq_u32(
                vdupq_n_u32(0x0200),
                vandq_u32(vshrq_n_u32(frac, 13), vdupq_n_u32(0x03FF)),
            ),
        );
        let special = vorrq_u32(vdupq_n_u32(0x7C00), nan_bits);

        let ge1 = vcgtq_s32(e16, vdupq_n_s32(0));
        let ge_m10 = vcgtq_s32(e16, vdupq_n_s32(-11));
        let gt30 = vcgtq_s32(e16, vdupq_n_s32(30));
        let mut h = vdupq_n_u32(0);
        h = vbslq_u32(vbicq_u32(ge_m10, ge1), subnormal, h);
        h = vbslq_u32(vbicq_u32(ge1, gt30), normal, h);
        h = vbslq_u32(gt30, vdupq_n_u32(0x7C00), h);
        h = vbslq_u32(vceqq_u32(exp, vdupq_n_u32(0xFF)), special, h);
        vorrq_u32(h, sign)
    }

    /// Converts 4 binary16 bit patterns (low 16 bits of each `u32` lane)
    /// to `f32` lanes, bit-identical to [`crate::F16::to_f32`].
    ///
    /// # Safety
    ///
    /// The caller must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn f16_bits_to_f32x4(h: uint32x4_t) -> float32x4_t {
        let sign = vshlq_n_u32(vandq_u32(h, vdupq_n_u32(0x8000)), 16);
        let exp = vandq_u32(vshrq_n_u32(h, 10), vdupq_n_u32(0x1F));
        let frac = vandq_u32(h, vdupq_n_u32(0x03FF));
        let frac13 = vshlq_n_u32(frac, 13);

        let normal = vorrq_u32(vshlq_n_u32(vaddq_u32(exp, vdupq_n_u32(112)), 23), frac13);
        let special = vorrq_u32(vdupq_n_u32(0x7F80_0000), frac13);
        let subnormal = vreinterpretq_u32_f32(vmulq_f32(
            vcvtq_f32_u32(frac),
            vdupq_n_f32(f32::from_bits((127 - 24) << 23)),
        ));

        let mut out = normal;
        out = vbslq_u32(vceqzq_u32(exp), subnormal, out);
        out = vbslq_u32(vceqq_u32(exp, vdupq_n_u32(0x1F)), special, out);
        vreinterpretq_f32_u32(vorrq_u32(out, sign))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(SimdLeg::Scalar.is_available());
        assert_eq!(available_legs()[0], SimdLeg::Scalar);
    }

    #[test]
    fn active_leg_is_available() {
        assert!(active_leg().is_available());
    }

    #[test]
    fn names_round_trip() {
        for leg in [SimdLeg::Scalar, SimdLeg::Avx2, SimdLeg::Neon] {
            assert!(!leg.name().is_empty());
        }
    }

    #[test]
    fn cpu_features_mentions_the_architecture() {
        let s = cpu_features();
        assert!(!s.is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_f16_conversion_lanes_match_scalar() {
        if !SimdLeg::Avx2.is_available() {
            return;
        }
        use core::arch::x86_64::*;
        // Every binary16 bit pattern widens identically, and converting
        // the widened value back reproduces the scalar round trip.
        for base in (0..=u16::MAX).step_by(8) {
            let mut h = [0u32; 8];
            for (i, hi) in h.iter_mut().enumerate() {
                *hi = u32::from(base.wrapping_add(i as u16));
            }
            unsafe {
                let hv = _mm256_loadu_si256(h.as_ptr().cast());
                let wide = x86::f16_bits_to_f32x8(hv);
                let mut w = [0f32; 8];
                _mm256_storeu_ps(w.as_mut_ptr(), wide);
                let back = x86::f32x8_to_f16_bits(wide);
                let mut b = [0u32; 8];
                _mm256_storeu_si256(b.as_mut_ptr().cast(), back);
                for i in 0..8 {
                    let bits = h[i] as u16;
                    let scalar_wide = crate::F16::from_bits(bits).to_f32();
                    assert_eq!(w[i].to_bits(), scalar_wide.to_bits(), "widen {bits:#06x}");
                    let scalar_back = crate::F16::from_f32(scalar_wide).to_bits();
                    assert_eq!(b[i] as u16, scalar_back, "narrow {bits:#06x}");
                }
            }
        }
    }
}
