//! Runtime SIMD dispatch for the workspace's vector kernels.
//!
//! Every hot-path kernel in the workspace (the `anda-format` row codec,
//! the batch FP16 conversions in this crate, the GeMM inner loops in
//! `anda-tensor`/`anda-quant`) exists in two or three *legs*: a scalar
//! reference implementation and `std::arch` vector implementations for
//! AVX2 (x86-64) and NEON (aarch64). The AVX2 leg also requires F16C and
//! FMA: its FP16 lane primitive (`x86::saturate_f32x8_to_f16`) narrows on
//! F16C and is saturating, so the F16C widen never sees a NaN, and its
//! `expf` body ([`crate::exp`]) runs the port's fused multiply-adds as
//! `vfmadd`. NEON converts FP16 in software and runs the scalar `expf`
//! port, whose `mul_add` is the baseline `fmadd` there.
//!
//! A fourth leg, [`LegKind::Avx512`], is the AVX2 leg plus AVX-512
//! F/BW/VBMI and GFNI. It owns four kernel bodies: the `anda-format` group
//! decode at `M <= 8`, which its one page loop runs for every row and
//! page decode, and where one `vpermb` and one `vgf2p8affineqb`
//! transpose a group's bit planes into 64 magnitude bytes; the
//! position-minor K-page decode at the same `M`; the `anda-tensor`
//! register tile, eight rows of one 512-bit vector each, that every GEMM
//! and attention product runs on; and the `expf` slice kernel, eight
//! `f64` lanes per vector with its table held in registers. Every other
//! dispatch site runs its AVX2 body under it, in the same match arm, and
//! a host without VBMI + GFNI runs exactly the AVX2 leg's code.
//!
//! This module is the single place that decides which leg runs:
//!
//! - A leg is a [`SimdLeg`]: a proof that the current host runs it. The
//!   four names are a [`LegKind`], and only [`LegKind::available`] (which
//!   asks the CPU), [`available_legs`], [`active_leg`] and
//!   [`SimdLeg::SCALAR`] hand out a leg, so a kernel given one runs its
//!   bodies without checking the CPU again. A dispatch site matches on
//!   [`SimdLeg::kind`].
//! - CPU features are detected once per process (`is_x86_feature_detected!`
//!   / `is_aarch64_feature_detected!`).
//! - The `ANDA_SIMD` environment variable overrides the choice:
//!   `auto` (default; the fastest leg the host runs), `avx512`, `avx2`,
//!   `neon` or `scalar`. Requesting a leg the host cannot run falls back
//!   to `scalar` with a warning — it never silently runs the wrong
//!   instructions; an unknown value warns and means `auto`. The variable
//!   is read once; set it before the first kernel call.
//!
//! The scalar leg is not a degraded mode: it is the *oracle*. Every
//! vector kernel is required to produce `f32::to_bits`-identical results
//! to its scalar twin on every input (the property suites enforce this),
//! because bit-exact decode under every KV policy is the invariant the
//! serving stack's prefix sharing and batched-vs-sequential equality are
//! built on.

use std::sync::OnceLock;

/// The four dispatchable kernel implementation families, by name: what
/// `ANDA_SIMD` parses and what a dispatch site matches on
/// ([`SimdLeg::kind`]). Naming a kind proves nothing about the host; a
/// kernel runs only a [`SimdLeg`], which [`LegKind::available`] hands out
/// for the kinds this CPU runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LegKind {
    /// Portable scalar Rust — the bit-exactness oracle, always available.
    Scalar,
    /// 256-bit AVX2 integer/float vectors plus F16C conversions and FMA
    /// (x86-64).
    Avx2,
    /// The AVX2 leg plus AVX-512 F/BW/VBMI and GFNI (x86-64): its own
    /// bodies are the `M <= 8` group decode (of every row and page
    /// decode), the `M <= 8` position-minor K-page decode, the
    /// eight-row register tile and the `expf` slice kernel; every other
    /// kernel is the AVX2 one.
    Avx512,
    /// 128-bit NEON vectors (aarch64).
    Neon,
}

impl LegKind {
    /// Every kind, each architecture's slowest first: `auto` picks the
    /// last one the host runs.
    const ALL: [LegKind; 4] = [
        LegKind::Scalar,
        LegKind::Avx2,
        LegKind::Avx512,
        LegKind::Neon,
    ];

    /// The name used by `ANDA_SIMD` and printed by benches/CI logs.
    pub fn name(self) -> &'static str {
        match self {
            LegKind::Scalar => "scalar",
            LegKind::Avx2 => "avx2",
            LegKind::Avx512 => "avx512",
            LegKind::Neon => "neon",
        }
    }

    /// This kind as a leg the kernels may run, or `None` when the current
    /// host lacks a feature it needs — the one place a [`SimdLeg`] other
    /// than [`SimdLeg::SCALAR`] is made.
    pub fn available(self) -> Option<SimdLeg> {
        let runs = match self {
            LegKind::Scalar => true,
            LegKind::Avx2 => avx2_available(),
            LegKind::Avx512 => avx512_available(),
            LegKind::Neon => neon_available(),
        };
        runs.then_some(SimdLeg(self))
    }
}

/// A kernel implementation family **the current host runs**. The field is
/// private, so a value is a proof: outside this module one comes only from
/// [`active_leg`], [`available_legs`], [`SimdLeg::SCALAR`] (which every
/// CPU runs) or [`LegKind::available`], which asks the CPU. That is what
/// makes the workspace's safe `*_with_leg` kernel entries sound without a
/// check of their own: a vector leg's bodies are `unsafe` to run on a CPU
/// without its features, and no caller can name such a leg.
///
/// ```compile_fail,E0423
/// use anda_fp::simd::{LegKind, SimdLeg};
///
/// // A kind is not a leg: only `LegKind::available` turns one into it.
/// let leg = SimdLeg(LegKind::Avx512);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdLeg(LegKind);

impl SimdLeg {
    /// The scalar leg, which every host runs.
    pub const SCALAR: SimdLeg = SimdLeg(LegKind::Scalar);

    /// Which family this leg is: what a dispatch site matches on.
    #[inline]
    pub fn kind(self) -> LegKind {
        self.0
    }

    /// The name used by `ANDA_SIMD` and printed by benches/CI logs.
    pub fn name(self) -> &'static str {
        self.0.name()
    }
}

/// The AVX2 leg is AVX2 plus F16C (its FP16 conversions are `vcvtps2ph` /
/// `vcvtph2ps`) and FMA (its `expf` is the port's fused multiply-adds),
/// so one check covers every instruction its kernels use.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("f16c")
            && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX-512 leg runs the AVX2 leg's bodies too, so it needs everything
/// that leg does, plus `vpermb` (VBMI, on BW's byte masks) and
/// `vgf2p8affineqb` (GFNI) for its decode.
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
            && std::arch::is_x86_feature_detected!("gfni")
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

/// Whether the host runs `kind`: the `runs` of [`choose_leg`]'s parse.
fn runs_here(kind: LegKind) -> bool {
    kind.available().is_some()
}

/// The fastest kind `runs` admits.
fn best_leg(runs: impl Fn(LegKind) -> bool) -> LegKind {
    LegKind::ALL
        .into_iter()
        .rev()
        .find(|&kind| runs(kind))
        .unwrap_or(LegKind::Scalar)
}

/// Every leg the host can execute, scalar first. Property suites iterate
/// this list so the vector legs are exercised wherever they exist.
pub fn available_legs() -> Vec<SimdLeg> {
    LegKind::ALL
        .into_iter()
        .filter_map(LegKind::available)
        .collect()
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

/// Reads `ANDA_SIMD` (once: [`active_leg`] caches the result), prints
/// the parse's warning, if any, and turns the kind it picked into a leg.
fn choose_leg() -> SimdLeg {
    let requested = std::env::var("ANDA_SIMD").ok();
    let (kind, warning) = parse_leg(requested.as_deref(), runs_here);
    if let Some(warning) = warning {
        eprintln!("{warning}");
    }
    kind.available().unwrap_or(SimdLeg::SCALAR)
}

/// The kind an `ANDA_SIMD` value selects on a host that runs the kinds
/// `runs` admits, and the warning to print when the value is not honoured
/// as written: unset, empty or `auto` is the fastest kind; a kind's
/// [`LegKind::name`] is that kind, or `scalar` if the host lacks it; any
/// other value is `auto`.
fn parse_leg(value: Option<&str>, runs: impl Fn(LegKind) -> bool) -> (LegKind, Option<String>) {
    let name = match value {
        None | Some("") | Some("auto") => return (best_leg(runs), None),
        Some(name) => name,
    };
    match LegKind::ALL.into_iter().find(|kind| kind.name() == name) {
        Some(kind) if runs(kind) => (kind, None),
        Some(_) => (
            LegKind::Scalar,
            Some(format!(
                "ANDA_SIMD={name} requested but this host cannot run it; using scalar"
            )),
        ),
        None => {
            let names: Vec<_> = LegKind::ALL.iter().map(|kind| kind.name()).collect();
            let want = names.join("|");
            (
                best_leg(runs),
                Some(format!(
                    "unrecognized ANDA_SIMD={name:?} (want auto|{want}); using auto"
                )),
            )
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
            "x86_64 (avx2={} fma={} f16c={} avx512f={} avx512vbmi={} gfni={})",
            yn(std::arch::is_x86_feature_detected!("avx2")),
            yn(std::arch::is_x86_feature_detected!("fma")),
            yn(std::arch::is_x86_feature_detected!("f16c")),
            yn(std::arch::is_x86_feature_detected!("avx512f")),
            yn(std::arch::is_x86_feature_detected!("avx512vbmi")),
            yn(std::arch::is_x86_feature_detected!("gfni")),
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

/// The AVX2 leg's FP16 lane primitive, shared by this crate's batch
/// conversion and the `anda-format` row codec. It compiles with the
/// `avx2` and `f16c` target features — [`LegKind::Avx2`] requires both —
/// and must only be called on that leg: holding a [`SimdLeg`] of kind
/// `Avx2` or `Avx512` is the proof the CPU has them.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use core::arch::x86_64::*;

    /// Rounds 8 `f32` lanes through saturating binary16: lane `i` of the
    /// result is `saturate_to_f16(v[i]).to_bits()` (NaN lanes become +0,
    /// the rest are clamped to ±65504, then F16C narrows them with
    /// nearest-even). Widen with `_mm256_cvtph_ps`, which is then exact:
    /// the saturation is what makes it so, since F16C quietens the
    /// signalling NaNs the scalar widen keeps, and no NaN gets this far.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and F16C (a [`SimdLeg`](crate::SimdLeg)
    /// of kind `Avx2` or `Avx512` proves it).
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn saturate_f32x8_to_f16(v: __m256) -> __m128i {
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
        let clamped = _mm256_max_ps(
            _mm256_min_ps(v, _mm256_set1_ps(65504.0)),
            _mm256_set1_ps(-65504.0),
        );
        _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_andnot_ps(nan, clamped))
    }
}

/// NEON lane primitives: the FP16 conversions in software, 4 lanes wide,
/// bit-identical to the scalar [`crate::F16`] converters on every input.
#[cfg(target_arch = "aarch64")]
pub mod neon {
    use core::arch::aarch64::*;

    /// Converts 4 `f32` lanes to binary16 bit patterns (low 16 bits of
    /// each `u32` lane), bit-identical to [`crate::F16::from_f32`].
    ///
    /// # Safety
    ///
    /// The CPU must support NEON (a [`SimdLeg`](crate::SimdLeg) of kind
    /// `Neon` proves it).
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
    /// The CPU must support NEON (a [`SimdLeg`](crate::SimdLeg) of kind
    /// `Neon` proves it).
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
        assert_eq!(LegKind::Scalar.available(), Some(SimdLeg::SCALAR));
        assert_eq!(available_legs()[0], SimdLeg::SCALAR);
    }

    /// The contract every `*_with_leg` kernel entry relies on: a kind
    /// becomes a leg exactly when the host reports the features its
    /// bodies use, asked here of the CPU directly.
    #[test]
    fn a_kind_is_a_leg_exactly_when_the_host_reports_its_features() {
        #[cfg(target_arch = "x86_64")]
        let reports = |kind: LegKind| {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2") && has!("f16c") && has!("fma");
            match kind {
                LegKind::Scalar => true,
                LegKind::Avx2 => avx2,
                LegKind::Avx512 => {
                    avx2 && has!("avx512f")
                        && has!("avx512bw")
                        && has!("avx512vbmi")
                        && has!("gfni")
                }
                LegKind::Neon => false,
            }
        };
        #[cfg(target_arch = "aarch64")]
        let reports = |kind: LegKind| match kind {
            LegKind::Scalar => true,
            LegKind::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            LegKind::Avx2 | LegKind::Avx512 => false,
        };
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let reports = |kind: LegKind| kind == LegKind::Scalar;

        // Slowest first, architecture by architecture.
        let order = [
            LegKind::Scalar,
            LegKind::Avx2,
            LegKind::Avx512,
            LegKind::Neon,
        ];
        for kind in order {
            let leg = kind.available();
            assert_eq!(leg.is_some(), reports(kind), "{}", kind.name());
            assert!(leg.is_none_or(|leg| leg.kind() == kind), "{}", kind.name());
        }
        let listed: Vec<_> = available_legs().iter().map(|leg| leg.kind()).collect();
        let want: Vec<_> = order.into_iter().filter(|&kind| reports(kind)).collect();
        assert_eq!(listed, want);
        assert_eq!(listed[0], LegKind::Scalar);
        assert!(available_legs().contains(&active_leg()));
    }

    #[test]
    fn names_round_trip() {
        for leg in available_legs() {
            assert_eq!(parse_leg(Some(leg.name()), runs_here), (leg.kind(), None));
        }
    }

    #[test]
    fn a_leg_the_host_lacks_falls_back_to_scalar_with_a_warning() {
        // A host that runs only the oracle lacks every vector leg,
        // `avx512` included; this host lacks at least one.
        let scalar_only = |kind: LegKind| kind == LegKind::Scalar;
        let hosts: [&dyn Fn(LegKind) -> bool; 2] = [&scalar_only, &runs_here];
        for runs in hosts {
            for kind in LegKind::ALL.into_iter().filter(|&kind| !runs(kind)) {
                let (chosen, warning) = parse_leg(Some(kind.name()), runs);
                assert_eq!(chosen, LegKind::Scalar, "{}", kind.name());
                let want = format!("ANDA_SIMD={} requested", kind.name());
                assert!(
                    warning.is_some_and(|w| w.starts_with(&want)),
                    "{}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn an_unknown_or_empty_value_selects_auto() {
        let auto = best_leg(runs_here);
        for value in [None, Some(""), Some("auto")] {
            assert_eq!(parse_leg(value, runs_here), (auto, None));
        }
        for value in ["avx-512", "AVX2", "sse4"] {
            let (chosen, warning) = parse_leg(Some(value), runs_here);
            assert_eq!(chosen, auto, "{value}");
            assert!(warning.is_some_and(|w| w.contains("want auto|scalar|avx2|avx512|neon")));
        }
        let scalar_only = |kind: LegKind| kind == LegKind::Scalar;
        assert_eq!(parse_leg(Some("auto"), scalar_only).0, LegKind::Scalar);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_avx512_leg_requires_the_avx2_leg() {
        if LegKind::Avx512.available().is_some() {
            assert!(LegKind::Avx2.available().is_some());
            assert_eq!(best_leg(runs_here), LegKind::Avx512);
        }
    }

    #[test]
    fn cpu_features_mentions_the_architecture() {
        let s = cpu_features();
        assert!(!s.is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_avx2_leg_requires_f16c() {
        if LegKind::Avx2.available().is_some() {
            assert!(std::arch::is_x86_feature_detected!("f16c"));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_f16_conversion_lanes_match_scalar() {
        if LegKind::Avx2.available().is_none() {
            return;
        }
        use crate::{saturate_to_f16, F16};
        use core::arch::x86_64::*;
        // Every finite binary16 value, every midpoint of two adjacent ones
        // and its ±1-ulp f32 neighbours, the overflow edge, infinities,
        // NaN payloads and f32 subnormals — each with both signs.
        let mut inputs = vec![65504.0, 65520.0, f32::INFINITY, f32::MAX];
        for bits in 0..0x7C00u16 {
            let x = F16::from_bits(bits).to_f32();
            inputs.push(x);
            let mid = (x + F16::from_bits(bits + 1).to_f32()) * 0.5;
            inputs.extend([mid, mid.next_down(), mid.next_up()]);
        }
        for payload in [1, 0x1FFF, 0x2000, 0x0040_0000, 0x0040_0001, 0x007F_FFFF] {
            inputs.push(f32::from_bits(0x7F80_0000 | payload));
        }
        for sub in [1, 2, 0x1000, 0x0040_0000, 0x007F_FFFF] {
            inputs.push(f32::from_bits(sub));
        }
        inputs.extend(inputs.clone().into_iter().map(|x| -x));
        for lanes in inputs.chunks(8) {
            let mut v = [0f32; 8];
            v[..lanes.len()].copy_from_slice(lanes);
            let (mut narrow, mut wide) = ([0u16; 8], [0f32; 8]);
            // SAFETY: the host runs the AVX2 leg (so AVX2 and F16C); the
            // loads and stores cover 8-lane local arrays.
            unsafe {
                let h = x86::saturate_f32x8_to_f16(_mm256_loadu_ps(v.as_ptr()));
                _mm_storeu_si128(narrow.as_mut_ptr().cast(), h);
                _mm256_storeu_ps(wide.as_mut_ptr(), _mm256_cvtph_ps(h));
            }
            for i in 0..8 {
                let scalar = saturate_to_f16(v[i]);
                let x = v[i].to_bits();
                assert_eq!(narrow[i], scalar.to_bits(), "narrow {x:#010x}");
                assert_eq!(
                    wide[i].to_bits(),
                    scalar.to_f32().to_bits(),
                    "round trip {x:#010x}"
                );
            }
        }
    }
}
