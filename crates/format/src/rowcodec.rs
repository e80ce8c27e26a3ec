//! Allocation-free Anda row codec for fixed-width rows.
//!
//! The KV cache stores one `dim`-wide row per cached position. Encoding a
//! row through [`crate::AndaTensor`] allocates a fresh group vector (plus
//! one plane vector per group) per call — unacceptable on the per-token
//! decode path. This module provides the same conversion over *flat,
//! caller-owned* buffers: a row of `g = ceil(dim / group_size)` groups
//! occupies `g` sign words, `g` shared-exponent entries and `g · M`
//! mantissa-plane words, laid out group-major exactly like
//! [`crate::bitplane`]'s transposed layout (plane 0 = MSB).
//!
//! Both directions are bit-exact with the owning-tensor path:
//! `encode_row_into` followed by `decode_row_into` reproduces
//! `AndaTensor::from_f32(row, cfg).to_f32()` bit for bit (the property
//! suite pins this), so callers can mix the two freely.
//!
//! # SIMD
//!
//! The codec is the per-token hot path, so encode and decode carry AVX2
//! and NEON legs behind [`anda_fp::simd`]'s runtime dispatch. The
//! bit-plane layout is plane-parallel by construction, and decode
//! transposes planes back into lanes in the narrowest integer lanes
//! that hold a magnitude: for `M <= 8` a plane's bits are spread over
//! **byte** lanes (a byte shuffle puts plane byte `j / 8` in lane `j`,
//! a compare against the per-lane bit turns it into 0 / −1) and the
//! MSB-first planes fold Horner-style, `mag = 2·mag − hit` — 32 lanes
//! per op on AVX2, 16 on NEON; `M` 9..=16 does the same in 16-bit
//! lanes. Only then do the magnitudes widen to 32-bit lanes for one
//! exact `i32→f32` convert, one multiply by the group ULP and a
//! sign-bit XOR — no per-lane branches, and ragged tails stay in vector
//! code. Every vector leg is `f32::to_bits`-identical to the `*_scalar`
//! twin (its oracle), which the property suites assert on every
//! available leg, for every `M`, around every step width.
//!
//! # Page-level decode
//!
//! [`decode_rows_into`] decodes a *column slice* (a range of groups) of
//! consecutive encoded rows into a row-major tile — what the KV page
//! walk calls once per page and pass, and what lets parallel readers of
//! a page split its decode by columns instead of repeating it.

use anda_fp::simd::{active_leg, SimdLeg};
use anda_fp::{saturate_to_f16, F16};

use crate::align::{align_element, exp2f};
use crate::anda::AndaConfig;
use crate::bitplane::LANES;

/// Number of shared-exponent groups in a `len`-element row under `cfg`.
#[inline]
pub fn groups_per_row(len: usize, cfg: AndaConfig) -> usize {
    len.div_ceil(cfg.group_size())
}

/// Mantissa-plane words a `len`-element row occupies under `cfg`
/// (`groups · M`; the sign words and exponent entries are one per group).
#[inline]
pub fn plane_words_per_row(len: usize, cfg: AndaConfig) -> usize {
    groups_per_row(len, cfg) * cfg.mantissa_bits() as usize
}

/// Exact storage footprint in bits of a `len`-element encoded row:
/// per group one sign plane, a 5-bit exponent and `M` mantissa planes
/// (zero-padded trailing lanes included, as the hardware would).
#[inline]
pub fn row_storage_bits(len: usize, cfg: AndaConfig) -> usize {
    groups_per_row(len, cfg) * (LANES + 5 + LANES * cfg.mantissa_bits() as usize)
}

/// Encodes one row into flat caller-owned buffers without allocating,
/// on the active SIMD dispatch leg.
///
/// Inputs round through FP16 with saturation (non-finite values become
/// ±65504), exactly like [`crate::AndaTensor::from_f32`]. Buffers are
/// fully overwritten for the row's `groups_per_row` prefix.
///
/// # Panics
///
/// Panics if `values` is empty or any destination slice is shorter than
/// the row requires ([`groups_per_row`] / [`plane_words_per_row`]).
pub fn encode_row_into(
    values: &[f32],
    cfg: AndaConfig,
    signs: &mut [u64],
    exps: &mut [u16],
    planes: &mut [u64],
) {
    encode_row_on(active_leg(), values, cfg, signs, exps, planes);
}

/// [`encode_row_into`] on an explicit leg (oracle tests and benches).
///
/// # Panics
///
/// As [`encode_row_into`], or if the leg is unavailable on this host.
pub fn encode_row_into_with_leg(
    leg: SimdLeg,
    values: &[f32],
    cfg: AndaConfig,
    signs: &mut [u64],
    exps: &mut [u16],
    planes: &mut [u64],
) {
    leg.assert_available();
    encode_row_on(leg, values, cfg, signs, exps, planes)
}

/// The dispatch of [`encode_row_into_with_leg`]. `leg` must be
/// available on this host: it is `active_leg()`, or the entry above
/// asserted it.
fn encode_row_on(
    leg: SimdLeg,
    values: &[f32],
    cfg: AndaConfig,
    signs: &mut [u64],
    exps: &mut [u16],
    planes: &mut [u64],
) {
    match leg {
        SimdLeg::Scalar => encode_row_into_scalar(values, cfg, signs, exps, planes),
        // SAFETY (both legs): the CPU runs `leg` — this function's
        // precondition.
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 => unsafe { avx2::encode_row(values, cfg, signs, exps, planes) },
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe { neon::encode_row(values, cfg, signs, exps, planes) },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// The scalar oracle of [`encode_row_into`].
///
/// # Panics
///
/// As [`encode_row_into`].
pub fn encode_row_into_scalar(
    values: &[f32],
    cfg: AndaConfig,
    signs: &mut [u64],
    exps: &mut [u16],
    planes: &mut [u64],
) {
    check_encode_buffers(values, cfg, signs, exps, planes);
    let m = cfg.mantissa_bits();
    let mut f16s = [F16::from_bits(0); LANES];
    for (gi, chunk) in values.chunks(cfg.group_size()).enumerate() {
        let staged = &mut f16s[..chunk.len()];
        for (s, &v) in staged.iter_mut().zip(chunk) {
            *s = saturate_to_f16(v);
        }
        // Shared exponent = max effective biased exponent of the group
        // (saturated values are finite, so `significand` cannot panic).
        let shared_exp = staged
            .iter()
            .map(|v| v.significand().biased_exp)
            .max()
            .unwrap_or(1);
        let group_planes = &mut planes[gi * m as usize..(gi + 1) * m as usize];
        group_planes.fill(0);
        let mut sign_word = 0u64;
        for (i, v) in staged.iter().enumerate() {
            let e = align_element(v.significand(), shared_exp, m);
            if e.negative {
                sign_word |= 1 << i;
            }
            for b in 0..m {
                // plane 0 = MSB (bit m-1) … plane m-1 = LSB (bit 0)
                let bit = (e.magnitude >> (m - 1 - b)) & 1;
                group_planes[b as usize] |= u64::from(bit) << i;
            }
        }
        signs[gi] = sign_word;
        exps[gi] = shared_exp;
    }
}

fn check_encode_buffers(
    values: &[f32],
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
) {
    assert!(!values.is_empty(), "cannot encode an empty row");
    let g = groups_per_row(values.len(), cfg);
    let m = cfg.mantissa_bits();
    assert!(signs.len() >= g, "sign buffer too small");
    assert!(exps.len() >= g, "exponent buffer too small");
    assert!(planes.len() >= g * m as usize, "plane buffer too small");
}

/// Decodes a row previously written by [`encode_row_into`] into `out`
/// without allocating, on the active SIMD dispatch leg. `out.len()`
/// determines the row width.
///
/// # Panics
///
/// Panics if `out` is empty or a source slice is shorter than the row
/// requires.
pub fn decode_row_into(
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    out: &mut [f32],
) {
    crate::metrics::note_rows_decoded(1);
    decode_row_uncounted(active_leg(), cfg, signs, exps, planes, out);
}

/// [`decode_row_into`] on an explicit leg (oracle tests and benches).
///
/// # Panics
///
/// As [`decode_row_into`], or if the leg is unavailable on this host.
pub fn decode_row_into_with_leg(
    leg: SimdLeg,
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    out: &mut [f32],
) {
    leg.assert_available();
    crate::metrics::note_rows_decoded(1);
    decode_row_uncounted(leg, cfg, signs, exps, planes, out);
}

/// The dispatch of [`decode_row_into_with_leg`], not counted. `leg` must
/// be available on this host: it is `active_leg()`, or the entry above
/// asserted it.
fn decode_row_uncounted(
    leg: SimdLeg,
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    out: &mut [f32],
) {
    match leg {
        SimdLeg::Scalar => decode_row_into_scalar(cfg, signs, exps, planes, out),
        // SAFETY (both legs): the CPU runs `leg` — this function's
        // precondition.
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 => unsafe { avx2::decode_row(cfg, signs, exps, planes, out) },
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe { neon::decode_row(cfg, signs, exps, planes, out) },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// Page-level decode: `signs`/`exps`/`planes` hold consecutive
/// `row_len`-wide encoded rows (row `r`'s groups start at
/// `r · groups_per_row`), `tile` is the matching row-major
/// `rows × row_len` float tile (`rows = tile.len() / row_len`), and only
/// the columns of groups `groups` of every row are decoded into it —
/// bit-identical to the same columns of [`decode_row_into`]. Column
/// slices are what lets parallel readers of one page split its decode
/// instead of repeating it.
///
/// Unlike [`decode_row_into`] this does **not** bump
/// [`crate::metrics::rows_decoded`]: a page's rows may be decoded in
/// several column slices, so the caller notes them once per page
/// ([`crate::metrics::note_rows_decoded`]).
///
/// # Panics
///
/// Panics if `tile` is not a whole number of rows, `groups` exceeds the
/// row's groups, or a source slice is shorter than the rows require.
pub fn decode_rows_into(
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    groups: std::ops::Range<usize>,
    row_len: usize,
    tile: &mut [f32],
) {
    let g = groups_per_row(row_len, cfg);
    let m = cfg.mantissa_bits() as usize;
    assert!(
        tile.len().is_multiple_of(row_len),
        "tile must hold whole rows"
    );
    assert!(
        groups.start < groups.end && groups.end <= g,
        "group range {groups:?} outside a {g}-group row"
    );
    let leg = active_leg();
    let cols = groups.start * cfg.group_size()..(groups.end * cfg.group_size()).min(row_len);
    for (r, row) in tile.chunks_exact_mut(row_len).enumerate() {
        let (g0, g1) = (r * g + groups.start, r * g + groups.end);
        decode_row_uncounted(
            leg,
            cfg,
            &signs[g0..g1],
            &exps[g0..g1],
            &planes[g0 * m..g1 * m],
            &mut row[cols.clone()],
        );
    }
}

/// The scalar oracle of [`decode_row_into`].
///
/// # Panics
///
/// As [`decode_row_into`].
pub fn decode_row_into_scalar(
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    out: &mut [f32],
) {
    check_decode_buffers(cfg, signs, exps, planes, out);
    let m = cfg.mantissa_bits();
    for (gi, chunk) in out.chunks_mut(cfg.group_size()).enumerate() {
        let ulp = exp2f(i32::from(exps[gi]) - 14 - m as i32);
        decode_group_into_scalar(
            signs[gi],
            ulp,
            &planes[gi * m as usize..(gi + 1) * m as usize],
            chunk,
        );
    }
}

fn check_decode_buffers(cfg: AndaConfig, signs: &[u64], exps: &[u16], planes: &[u64], out: &[f32]) {
    assert!(!out.is_empty(), "cannot decode into an empty row");
    let g = groups_per_row(out.len(), cfg);
    let m = cfg.mantissa_bits();
    assert!(signs.len() >= g, "sign buffer too small");
    assert!(exps.len() >= g, "exponent buffer too small");
    assert!(planes.len() >= g * m as usize, "plane buffer too small");
}

/// Dequantizes one bit-plane group (sign word, mantissa-LSB weight,
/// MSB-first planes) into `out` — the single definition of the plane
/// transpose + sign/magnitude dequant rule, shared by the flat row
/// codec and [`crate::AndaTensor`]'s in-place decode. Dispatches on the
/// active SIMD leg.
///
/// # Panics
///
/// Panics if `out` holds more than [`LANES`] elements.
pub fn decode_group_into(sign_word: u64, ulp: f32, planes: &[u64], out: &mut [f32]) {
    decode_group_on(active_leg(), sign_word, ulp, planes, out);
}

/// [`decode_group_into`] on an explicit leg (oracle tests and benches).
///
/// # Panics
///
/// As [`decode_group_into`], or if the leg is unavailable on this host.
pub fn decode_group_into_with_leg(
    leg: SimdLeg,
    sign_word: u64,
    ulp: f32,
    planes: &[u64],
    out: &mut [f32],
) {
    leg.assert_available();
    decode_group_on(leg, sign_word, ulp, planes, out)
}

/// The dispatch of [`decode_group_into_with_leg`]. `leg` must be
/// available on this host: it is `active_leg()`, or the entry above
/// asserted it.
fn decode_group_on(leg: SimdLeg, sign_word: u64, ulp: f32, planes: &[u64], out: &mut [f32]) {
    match leg {
        SimdLeg::Scalar => decode_group_into_scalar(sign_word, ulp, planes, out),
        // SAFETY (both legs): the CPU runs `leg` — this function's
        // precondition.
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 => unsafe { avx2::decode_group(sign_word, ulp, planes, out) },
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => unsafe { neon::decode_group(sign_word, ulp, planes, out) },
        #[allow(unreachable_patterns)]
        other => unreachable!("SIMD leg {} was not checked", other.name()),
    }
}

/// The scalar oracle of [`decode_group_into`].
///
/// # Panics
///
/// As [`decode_group_into`].
pub fn decode_group_into_scalar(sign_word: u64, ulp: f32, planes: &[u64], out: &mut [f32]) {
    assert!(out.len() <= LANES, "a group holds at most {LANES} lanes");
    let m = planes.len();
    for (i, o) in out.iter_mut().enumerate() {
        let mut mag = 0u16;
        for (b, plane) in planes.iter().enumerate() {
            mag |= (((plane >> i) & 1) as u16) << (m - 1 - b);
        }
        // Same sign/magnitude dequant rule as `SignMag::dequantize`.
        let v = f32::from(mag) * ulp;
        *o = if (sign_word >> i) & 1 == 1 { -v } else { v };
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Spreads bits `32·half..32·half + 32` of a plane word over 32 byte
    /// lanes: lane `j` is `0xFF` where the bit is set, else 0. The qword
    /// broadcast puts all eight plane bytes in every 128-bit lane,
    /// `shuffle_epi8` copies byte `4·half + j / 8` into lane `j`, and the
    /// `0x8040201008040201` mask picks bit `j % 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn byte_hits(word: u64, half: usize) -> __m256i {
        let spread = _mm256_add_epi8(
            _mm256_setr_epi8(
                0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3,
                3, 3, 3, 3,
            ),
            _mm256_set1_epi8(4 * half as i8),
        );
        let lane_bits = _mm256_set1_epi64x(0x8040_2010_0804_0201u64 as i64);
        let bytes = _mm256_shuffle_epi8(_mm256_set1_epi64x(word as i64), spread);
        _mm256_cmpeq_epi8(_mm256_and_si256(bytes, lane_bits), lane_bits)
    }

    /// The 16-lane mirror of [`byte_hits`]: 16-bit lane `j` is `0xFFFF`
    /// where bit `j` of `bits` is set.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn word_hits(bits: u16) -> __m256i {
        #[rustfmt::skip]
        let lane_bits = _mm256_setr_epi16(
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, i16::MIN,
        );
        let words = _mm256_set1_epi16(bits as i16);
        _mm256_cmpeq_epi16(_mm256_and_si256(words, lane_bits), lane_bits)
    }

    /// Dequantizes 8 widened lanes — integer magnitudes in `mags`, the
    /// sign in bit 0 of `neg` — into `dst` (`<= 8` lanes; a short `dst`
    /// is a group tail). The `i32→f32` convert is exact (magnitudes
    /// < 2^16) and the sign is a sign-bit XOR, as in the scalar oracle.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn finish8(mags: __m256i, neg: __m256i, ulp: __m256, dst: &mut [f32]) {
        let v = _mm256_mul_ps(_mm256_cvtepi32_ps(mags), ulp);
        let signed = _mm256_xor_ps(v, _mm256_castsi256_ps(_mm256_slli_epi32::<31>(neg)));
        if dst.len() == 8 {
            _mm256_storeu_ps(dst.as_mut_ptr(), signed);
        } else {
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), signed);
            dst.copy_from_slice(&lanes[..dst.len()]);
        }
    }

    /// AVX2 leg of [`decode_group_into`]. The plane→lane transpose runs
    /// in the narrowest integer lanes that hold a magnitude: for `M <= 8`
    /// a plane's 32 bits become 32 **byte** lanes per step
    /// ([`byte_hits`]), for `M` 9..=16 a plane's 16 bits become 16
    /// 16-bit lanes ([`word_hits`]). A hit is all-ones (−1), so the
    /// MSB-first planes fold Horner-style — `mag = 2·mag − hit` — with no
    /// per-plane weight constant. Magnitudes then widen to 32-bit lanes
    /// 8 at a time and dequantize in [`finish8`], so every lane matches
    /// the scalar oracle bit for bit; a ragged tail stores through a
    /// stack buffer instead of dropping to scalar code.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (callers go through the dispatch layer, which only
    /// selects this leg when the CPU reports it).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_group(sign_word: u64, ulp: f32, planes: &[u64], out: &mut [f32]) {
        assert!(out.len() <= LANES, "a group holds at most {LANES} lanes");
        assert!(planes.len() <= 16, "a magnitude holds at most 16 planes");
        let ulp_v = _mm256_set1_ps(ulp);
        if planes.len() <= 8 {
            for (c, block) in out.chunks_mut(32).enumerate() {
                let mut mags = _mm256_setzero_si256();
                for &plane in planes {
                    mags = _mm256_sub_epi8(_mm256_add_epi8(mags, mags), byte_hits(plane, c));
                }
                let neg = byte_hits(sign_word, c);
                let halves = [
                    (_mm256_castsi256_si128(mags), _mm256_castsi256_si128(neg)),
                    (
                        _mm256_extracti128_si256::<1>(mags),
                        _mm256_extracti128_si256::<1>(neg),
                    ),
                ];
                for (half, (m16, n16)) in block.chunks_mut(16).zip(halves) {
                    let (lo, hi) = half.split_at_mut(half.len().min(8));
                    finish8(
                        _mm256_cvtepu8_epi32(m16),
                        _mm256_cvtepu8_epi32(n16),
                        ulp_v,
                        lo,
                    );
                    if !hi.is_empty() {
                        finish8(
                            _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(m16)),
                            _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(n16)),
                            ulp_v,
                            hi,
                        );
                    }
                }
            }
        } else {
            for (c, block) in out.chunks_mut(16).enumerate() {
                let mut mags = _mm256_setzero_si256();
                for plane in planes {
                    let hit = word_hits((plane >> (c * 16)) as u16);
                    mags = _mm256_sub_epi16(_mm256_add_epi16(mags, mags), hit);
                }
                let neg = word_hits((sign_word >> (c * 16)) as u16);
                let (lo, hi) = block.split_at_mut(block.len().min(8));
                finish8(
                    _mm256_cvtepu16_epi32(_mm256_castsi256_si128(mags)),
                    _mm256_cvtepu16_epi32(_mm256_castsi256_si128(neg)),
                    ulp_v,
                    lo,
                );
                if !hi.is_empty() {
                    finish8(
                        _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(mags)),
                        _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(neg)),
                        ulp_v,
                        hi,
                    );
                }
            }
        }
    }

    /// AVX2 leg of [`decode_row_into`].
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_row(
        cfg: AndaConfig,
        signs: &[u64],
        exps: &[u16],
        planes: &[u64],
        out: &mut [f32],
    ) {
        check_decode_buffers(cfg, signs, exps, planes, out);
        let m = cfg.mantissa_bits();
        for (gi, chunk) in out.chunks_mut(cfg.group_size()).enumerate() {
            let ulp = exp2f(i32::from(exps[gi]) - 14 - m as i32);
            decode_group(
                signs[gi],
                ulp,
                &planes[gi * m as usize..(gi + 1) * m as usize],
                chunk,
            );
        }
    }

    /// AVX2 leg of [`encode_row_into`]: two passes of 8 lanes per step.
    ///
    /// Pass 1 saturates to FP16 (NaN→0, clamp to ±65504 — matching
    /// `saturate_to_f16`), decomposes the f16 bits into explicit-hidden-bit
    /// magnitudes and effective biased exponents with masked selects, and
    /// keeps a running vector max for the shared exponent. Pass 2 replays
    /// `align_element` branchlessly: the variable truncating right shift is
    /// `_mm256_srlv_epi32` with the shift clamped to 28 (magnitudes are
    /// < 2^27, so every shift ≥ 28 yields 0), then scatters mantissa bits
    /// into the MSB-first planes via sign-bit movemasks.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_row(
        values: &[f32],
        cfg: AndaConfig,
        signs: &mut [u64],
        exps: &mut [u16],
        planes: &mut [u64],
    ) {
        check_encode_buffers(values, cfg, signs, exps, planes);
        let m = cfg.mantissa_bits();
        let max_f16 = _mm256_set1_ps(65504.0);
        let min_f16 = _mm256_set1_ps(-65504.0);
        let one = _mm256_set1_epi32(1);
        let m_v = _mm256_set1_epi32(m as i32);
        for (gi, chunk) in values.chunks(cfg.group_size()).enumerate() {
            let full = chunk.len() / 8;
            let mut mags = [0i32; LANES];
            let mut lane_exps = [0i32; LANES];
            let mut sign_word = 0u64;
            let mut max_v = one;
            // Pass 1: saturate → f16 bits → (magnitude, effective exponent).
            for c in 0..full {
                let v = _mm256_loadu_ps(chunk.as_ptr().add(c * 8));
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
                let clamped =
                    _mm256_andnot_ps(nan, _mm256_max_ps(_mm256_min_ps(v, max_f16), min_f16));
                let h = anda_fp::simd::x86::f32x8_to_f16_bits(clamped);
                // f16 sign bit 15 → lane bit 31 → movemask byte.
                let neg = _mm256_slli_epi32(h, 16);
                let smask = _mm256_movemask_ps(_mm256_castsi256_ps(neg)) as u64;
                sign_word |= (smask & 0xFF) << (c * 8);
                let e = _mm256_and_si256(_mm256_srli_epi32(h, 10), _mm256_set1_epi32(0x1F));
                let frac = _mm256_and_si256(h, _mm256_set1_epi32(0x3FF));
                let subnormal = _mm256_cmpeq_epi32(e, _mm256_setzero_si256());
                let mag = _mm256_or_si256(
                    frac,
                    _mm256_andnot_si256(subnormal, _mm256_set1_epi32(0x400)),
                );
                let be = _mm256_max_epi32(e, one);
                _mm256_storeu_si256(mags.as_mut_ptr().add(c * 8).cast(), mag);
                _mm256_storeu_si256(lane_exps.as_mut_ptr().add(c * 8).cast(), be);
                max_v = _mm256_max_epi32(max_v, be);
            }
            let mut lanes8 = [0i32; 8];
            _mm256_storeu_si256(lanes8.as_mut_ptr().cast(), max_v);
            let mut shared = lanes8.iter().copied().max().unwrap_or(1);
            for i in full * 8..chunk.len() {
                let sig = saturate_to_f16(chunk[i]).significand();
                if sig.negative {
                    sign_word |= 1 << i;
                }
                mags[i] = i32::from(sig.magnitude);
                lane_exps[i] = i32::from(sig.biased_exp);
                shared = shared.max(i32::from(sig.biased_exp));
            }
            // Pass 2: align to the shared exponent and scatter bit-planes.
            let group_planes = &mut planes[gi * m as usize..(gi + 1) * m as usize];
            group_planes.fill(0);
            let shared_v = _mm256_set1_epi32(shared);
            for c in 0..full {
                let mag = _mm256_loadu_si256(mags.as_ptr().add(c * 8).cast());
                let be = _mm256_loadu_si256(lane_exps.as_ptr().add(c * 8).cast());
                let shift = _mm256_min_epi32(
                    _mm256_add_epi32(_mm256_set1_epi32(11), _mm256_sub_epi32(shared_v, be)),
                    _mm256_set1_epi32(28),
                );
                let aligned = _mm256_srlv_epi32(_mm256_sllv_epi32(mag, m_v), shift);
                for b in 0..m {
                    // Move mantissa bit (m-1-b) to lane bit 31, movemask it.
                    let shifted_up =
                        _mm256_sllv_epi32(aligned, _mm256_set1_epi32((32 - m + b) as i32));
                    let byte = _mm256_movemask_ps(_mm256_castsi256_ps(shifted_up)) as u64 & 0xFF;
                    group_planes[b as usize] |= byte << (c * 8);
                }
            }
            for i in full * 8..chunk.len() {
                let shift = (11 + (shared - lane_exps[i])) as u32;
                let aligned = (((mags[i] as u64) << m) >> shift) as u16;
                for b in 0..m {
                    let bit = (aligned >> (m - 1 - b)) & 1;
                    group_planes[b as usize] |= u64::from(bit) << i;
                }
            }
            signs[gi] = sign_word;
            exps[gi] = shared as u16;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::*;
    use core::arch::aarch64::*;

    /// Spreads 16 plane bits over 16 byte lanes: lane `j` is `0xFF` where
    /// bit `j` of `bits` is set, else 0 (each plane byte duplicated
    /// across 8 lanes, then `vtstq_u8` against the per-lane bit).
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn byte_hits(bits: u16) -> uint8x16_t {
        let lane_bits: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];
        let bytes = vcombine_u8(vdup_n_u8(bits as u8), vdup_n_u8((bits >> 8) as u8));
        vtstq_u8(bytes, vld1q_u8(lane_bits.as_ptr()))
    }

    /// The 8-lane mirror of [`byte_hits`]: 16-bit lane `j` is `0xFFFF`
    /// where bit `j` of `bits` is set.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn word_hits(bits: u8) -> uint16x8_t {
        let lane_bits: [u16; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
        vtstq_u16(vdupq_n_u16(u16::from(bits)), vld1q_u16(lane_bits.as_ptr()))
    }

    /// Dequantizes 4 widened lanes — integer magnitudes in `mags`, the
    /// sign in bit 0 of `neg` — into `dst` (`<= 4` lanes; a short `dst`
    /// is a group tail): exact `u32→f32` convert, one multiply by the
    /// group ULP, sign-bit XOR, as in the scalar oracle.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn finish4(mags: uint32x4_t, neg: uint32x4_t, ulp: float32x4_t, dst: &mut [f32]) {
        let v = vmulq_f32(vcvtq_f32_u32(mags), ulp);
        let signed =
            vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(v), vshlq_n_u32::<31>(neg)));
        if dst.len() == 4 {
            vst1q_f32(dst.as_mut_ptr(), signed);
        } else {
            let mut lanes = [0.0f32; 4];
            vst1q_f32(lanes.as_mut_ptr(), signed);
            dst.copy_from_slice(&lanes[..dst.len()]);
        }
    }

    /// [`finish4`] over 8 lanes held as 16-bit magnitudes / sign hits.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn finish8(mags: uint16x8_t, neg: uint16x8_t, ulp: float32x4_t, dst: &mut [f32]) {
        let (lo, hi) = dst.split_at_mut(dst.len().min(4));
        finish4(
            vmovl_u16(vget_low_u16(mags)),
            vmovl_u16(vget_low_u16(neg)),
            ulp,
            lo,
        );
        if !hi.is_empty() {
            finish4(
                vmovl_u16(vget_high_u16(mags)),
                vmovl_u16(vget_high_u16(neg)),
                ulp,
                hi,
            );
        }
    }

    /// NEON leg of [`decode_group_into`], the 128-bit mirror of the AVX2
    /// leg: for `M <= 8` a plane's 16 bits become 16 **byte** lanes per
    /// step ([`byte_hits`]), for `M` 9..=16 a plane byte becomes 8
    /// 16-bit lanes ([`word_hits`]). A hit is all-ones (−1), so the
    /// MSB-first planes fold Horner-style — `mag = 2·mag − hit` — and the
    /// magnitudes widen to 32-bit lanes only for the dequant
    /// ([`finish4`]); ragged tails store through a stack buffer.
    ///
    /// # Safety
    ///
    /// Requires NEON.
    #[inline]
    #[target_feature(enable = "neon")]
    pub unsafe fn decode_group(sign_word: u64, ulp: f32, planes: &[u64], out: &mut [f32]) {
        assert!(out.len() <= LANES, "a group holds at most {LANES} lanes");
        assert!(planes.len() <= 16, "a magnitude holds at most 16 planes");
        let ulp_v = vdupq_n_f32(ulp);
        if planes.len() <= 8 {
            for (c, block) in out.chunks_mut(16).enumerate() {
                let mut mags = vdupq_n_u8(0);
                for plane in planes {
                    let hit = byte_hits((plane >> (c * 16)) as u16);
                    mags = vsubq_u8(vaddq_u8(mags, mags), hit);
                }
                let neg = byte_hits((sign_word >> (c * 16)) as u16);
                let (lo, hi) = block.split_at_mut(block.len().min(8));
                finish8(
                    vmovl_u8(vget_low_u8(mags)),
                    vmovl_u8(vget_low_u8(neg)),
                    ulp_v,
                    lo,
                );
                if !hi.is_empty() {
                    finish8(
                        vmovl_u8(vget_high_u8(mags)),
                        vmovl_u8(vget_high_u8(neg)),
                        ulp_v,
                        hi,
                    );
                }
            }
        } else {
            for (c, block) in out.chunks_mut(8).enumerate() {
                let mut mags = vdupq_n_u16(0);
                for plane in planes {
                    let hit = word_hits((plane >> (c * 8)) as u8);
                    mags = vsubq_u16(vaddq_u16(mags, mags), hit);
                }
                let neg = word_hits((sign_word >> (c * 8)) as u8);
                finish8(mags, neg, ulp_v, block);
            }
        }
    }

    /// NEON leg of [`decode_row_into`].
    ///
    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn decode_row(
        cfg: AndaConfig,
        signs: &[u64],
        exps: &[u16],
        planes: &[u64],
        out: &mut [f32],
    ) {
        check_decode_buffers(cfg, signs, exps, planes, out);
        let m = cfg.mantissa_bits();
        for (gi, chunk) in out.chunks_mut(cfg.group_size()).enumerate() {
            let ulp = exp2f(i32::from(exps[gi]) - 14 - m as i32);
            decode_group(
                signs[gi],
                ulp,
                &planes[gi * m as usize..(gi + 1) * m as usize],
                chunk,
            );
        }
    }

    /// NEON leg of [`encode_row_into`]: the 4-lane mirror of the AVX2
    /// leg (see that leg for the two-pass structure and the shift-clamp
    /// argument; NEON variable shifts use `vshlq_u32` with negated
    /// counts, which is well-defined for the clamped range).
    ///
    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn encode_row(
        values: &[f32],
        cfg: AndaConfig,
        signs: &mut [u64],
        exps: &mut [u16],
        planes: &mut [u64],
    ) {
        check_encode_buffers(values, cfg, signs, exps, planes);
        let m = cfg.mantissa_bits();
        let max_f16 = vdupq_n_f32(65504.0);
        let min_f16 = vdupq_n_f32(-65504.0);
        let one = vdupq_n_u32(1);
        let lane_weights = {
            let w: [u32; 4] = [1, 2, 4, 8];
            vld1q_u32(w.as_ptr())
        };
        for (gi, chunk) in values.chunks(cfg.group_size()).enumerate() {
            let full = chunk.len() / 4;
            let mut mags = [0u32; LANES];
            let mut lane_exps = [0u32; LANES];
            let mut sign_word = 0u64;
            let mut max_v = one;
            for c in 0..full {
                let v = vld1q_f32(chunk.as_ptr().add(c * 4));
                let nan = vmvnq_u32(vceqq_f32(v, v));
                let clamped = vreinterpretq_f32_u32(vbicq_u32(
                    vreinterpretq_u32_f32(vmaxq_f32(vminq_f32(v, max_f16), min_f16)),
                    nan,
                ));
                let h = anda_fp::simd::neon::f32x4_to_f16_bits(clamped);
                let neg = vshrq_n_u32(h, 15); // f16 sign bit → 0/1
                let snib = vaddvq_u32(vmulq_u32(neg, lane_weights)) as u64;
                sign_word |= snib << (c * 4);
                let e = vandq_u32(vshrq_n_u32(h, 10), vdupq_n_u32(0x1F));
                let frac = vandq_u32(h, vdupq_n_u32(0x3FF));
                let subnormal = vceqq_u32(e, vdupq_n_u32(0));
                let mag = vorrq_u32(frac, vbicq_u32(vdupq_n_u32(0x400), subnormal));
                let be = vmaxq_u32(e, one);
                vst1q_u32(mags.as_mut_ptr().add(c * 4), mag);
                vst1q_u32(lane_exps.as_mut_ptr().add(c * 4), be);
                max_v = vmaxq_u32(max_v, be);
            }
            let mut shared = vmaxvq_u32(max_v);
            for i in full * 4..chunk.len() {
                let sig = saturate_to_f16(chunk[i]).significand();
                if sig.negative {
                    sign_word |= 1 << i;
                }
                mags[i] = u32::from(sig.magnitude);
                lane_exps[i] = u32::from(sig.biased_exp);
                shared = shared.max(u32::from(sig.biased_exp));
            }
            let group_planes = &mut planes[gi * m as usize..(gi + 1) * m as usize];
            group_planes.fill(0);
            let shared_v = vdupq_n_u32(shared);
            for c in 0..full {
                let mag = vld1q_u32(mags.as_ptr().add(c * 4));
                let be = vld1q_u32(lane_exps.as_ptr().add(c * 4));
                let shift = vminq_u32(
                    vaddq_u32(vdupq_n_u32(11), vsubq_u32(shared_v, be)),
                    vdupq_n_u32(28),
                );
                let value = vshlq_u32(mag, vdupq_n_s32(m as i32));
                let neg_shift = vnegq_s32(vreinterpretq_s32_u32(shift));
                let aligned = vshlq_u32(value, neg_shift);
                for b in 0..m {
                    let bit =
                        vandq_u32(vshlq_u32(aligned, vdupq_n_s32(-((m - 1 - b) as i32))), one);
                    let nib = vaddvq_u32(vmulq_u32(bit, lane_weights)) as u64;
                    group_planes[b as usize] |= nib << (c * 4);
                }
            }
            for i in full * 4..chunk.len() {
                let shift = 11 + (shared - lane_exps[i]);
                let aligned = ((u64::from(mags[i]) << m) >> shift) as u16;
                for b in 0..m {
                    let bit = (aligned >> (m - 1 - b)) & 1;
                    group_planes[b as usize] |= u64::from(bit) << i;
                }
            }
            signs[gi] = sign_word;
            exps[gi] = shared as u16;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AndaTensor;
    use anda_fp::simd::available_legs;

    #[test]
    fn every_with_leg_entry_refuses_an_unavailable_leg() {
        // Neon on x86-64, Avx2 on aarch64 — or Avx2 on an x86-64 CPU
        // without it, where a missing check would be an illegal
        // instruction from safe code. Covers the crate: this module's
        // three entries and `dot`'s one.
        let leg = [SimdLeg::Avx2, SimdLeg::Neon]
            .into_iter()
            .find(|leg| !leg.is_available())
            .expect("no host runs both vector legs");
        let want = format!("SIMD leg {} unavailable on this host", leg.name());
        let cfg = AndaConfig::new(LANES, 8).unwrap();
        let values = row(LANES, 1);
        let (signs, exps, planes) = ([0u64; 1], [0u16; 1], [0u64; 8]);
        type Entry<'a> = (&'a str, &'a dyn Fn());
        let entries: [Entry; 4] = [
            ("encode_row_into_with_leg", &|| {
                let (mut s, mut e, mut p) = (signs, exps, planes);
                encode_row_into_with_leg(leg, &values, cfg, &mut s, &mut e, &mut p)
            }),
            ("decode_row_into_with_leg", &|| {
                decode_row_into_with_leg(leg, cfg, &signs, &exps, &planes, &mut values.clone())
            }),
            ("decode_group_into_with_leg", &|| {
                decode_group_into_with_leg(leg, 0, 1.0, &planes, &mut values.clone())
            }),
            ("dot_group_int_flat_with_leg", &|| {
                crate::dot::dot_group_int_flat_with_leg(leg, 0, &planes, &[1i8; LANES]);
            }),
        ];
        for (name, entry) in entries {
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry)).expect_err(name);
            assert_eq!(panic.downcast_ref::<String>(), Some(&want), "{name}");
        }
    }

    fn row(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 16) as i32 % 4001) as f32 * 0.01 - 2.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn flat_codec_matches_owning_tensor_bit_for_bit() {
        for (len, m) in [(64usize, 4u32), (128, 8), (100, 6), (1, 11), (320, 1)] {
            let cfg = AndaConfig::hardware(m).unwrap();
            let data = row(len, (len * 31 + m as usize) as u64);
            let g = groups_per_row(len, cfg);
            let mut signs = vec![0u64; g];
            let mut exps = vec![0u16; g];
            let mut planes = vec![0u64; plane_words_per_row(len, cfg)];
            encode_row_into(&data, cfg, &mut signs, &mut exps, &mut planes);

            let tensor = AndaTensor::from_f32(&data, cfg);
            for (gi, group) in tensor.groups().iter().enumerate() {
                assert_eq!(signs[gi], group.signs(), "len={len} m={m} group {gi}");
                assert_eq!(exps[gi], group.shared_exp());
                assert_eq!(
                    &planes[gi * m as usize..(gi + 1) * m as usize],
                    group.planes()
                );
            }

            let mut out = vec![0.0f32; len];
            decode_row_into(cfg, &signs, &exps, &planes, &mut out);
            assert_eq!(bits(&out), bits(&tensor.to_f32()), "len={len} m={m}");

            let mut out2 = vec![0.0f32; len];
            tensor.decode_into(&mut out2);
            assert_eq!(bits(&out2), bits(&out));
        }
    }

    #[test]
    fn non_finite_inputs_saturate_like_the_tensor_path() {
        let cfg = AndaConfig::hardware(9).unwrap();
        let data = [f32::INFINITY, -1e30, f32::NEG_INFINITY, 1.0];
        let mut signs = [0u64; 1];
        let mut exps = [0u16; 1];
        let mut planes = [0u64; 9];
        encode_row_into(&data, cfg, &mut signs, &mut exps, &mut planes);
        let mut out = [0.0f32; 4];
        decode_row_into(cfg, &signs, &exps, &planes, &mut out);
        assert_eq!(bits(&out), bits(&AndaTensor::from_f32(&data, cfg).to_f32()));
    }

    #[test]
    fn storage_accounting_matches_bitplane_groups() {
        let cfg = AndaConfig::hardware(5).unwrap();
        let data = row(192, 7);
        assert_eq!(
            row_storage_bits(192, cfg),
            AndaTensor::from_f32(&data, cfg).storage_bits()
        );
        // Partial trailing group still occupies full planes.
        let cfg8 = AndaConfig::hardware(8).unwrap();
        assert_eq!(row_storage_bits(65, cfg8), 2 * (64 + 5 + 8 * 64));
    }

    #[test]
    #[should_panic(expected = "plane buffer too small")]
    fn short_plane_buffer_panics() {
        let cfg = AndaConfig::hardware(8).unwrap();
        let mut signs = [0u64; 1];
        let mut exps = [0u16; 1];
        let mut planes = [0u64; 7];
        encode_row_into(&[1.0; 64], cfg, &mut signs, &mut exps, &mut planes);
    }

    /// Adversarial inputs: zeros, subnormal-f16 magnitudes, huge dynamic
    /// range inside one group, NaN/∞ (saturated), negative zero.
    fn adversarial_row(len: usize, seed: u64) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            6.0e-8,  // f16 subnormal range
            -5.0e-5, // near the f16 normal/subnormal boundary
            65504.0,
            -65504.0,
            1.0e-3,
            123.456,
        ];
        let mut state = seed | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if i % 3 == 0 {
                    specials[(state as usize) % specials.len()]
                } else {
                    f32::from_bits((state as u32) & 0x7FFF_FFFF | ((state as u32) & 0x8000_0000))
                }
            })
            .collect()
    }

    /// Group sizes on both sides of every vector width a leg steps by
    /// (8, 16 and 32 lanes) plus the hardware's 64.
    const GROUP_SIZES: [usize; 9] = [1, 7, 8, 9, 31, 32, 33, 63, 64];

    /// Every `M` × group size × row length (one group, whole groups, and
    /// a partial trailing group where the group size allows one): `M <= 8`
    /// runs the byte-lane transpose, `M > 8` the 16-bit-lane one, and the
    /// group sizes put a ragged tail behind every step width.
    fn sweep(mut case: impl FnMut(AndaConfig, usize)) {
        for m in 1..=16 {
            for gs in GROUP_SIZES {
                let cfg = AndaConfig::new(gs, m).unwrap();
                for len in [gs, 3 * gs, 2 * gs + gs.div_ceil(2)] {
                    case(cfg, len);
                }
            }
        }
    }

    #[test]
    fn every_leg_matches_the_scalar_oracle() {
        for leg in available_legs() {
            sweep(|cfg, len| {
                let m = cfg.mantissa_bits();
                let data = adversarial_row(len, (len * 131 + m as usize) as u64);
                let g = groups_per_row(len, cfg);
                let pw = plane_words_per_row(len, cfg);
                let mut s = (vec![0u64; g], vec![0u16; g], vec![0u64; pw]);
                let mut v = (vec![!0u64; g], vec![!0u16; g], vec![!0u64; pw]);
                encode_row_into_scalar(&data, cfg, &mut s.0, &mut s.1, &mut s.2);
                encode_row_into_with_leg(leg, &data, cfg, &mut v.0, &mut v.1, &mut v.2);
                let ctx = format!("leg={} len={len} {cfg:?}", leg.name());
                assert_eq!(s, v, "encode {ctx}");

                let mut s_out = vec![0.0f32; len];
                decode_row_into_scalar(cfg, &s.0, &s.1, &s.2, &mut s_out);
                let mut v_out = vec![1.0f32; len];
                decode_row_into_with_leg(leg, cfg, &s.0, &s.1, &s.2, &mut v_out);
                assert_eq!(bits(&s_out), bits(&v_out), "decode {ctx}");
            });
        }
    }

    /// Buffers no encoder input reaches together: all-ones planes (the
    /// largest magnitude of each lane width, `2^M − 1`, bits set past the
    /// row's last lane too), all-negative and all-positive sign words,
    /// and the smallest and largest shared exponents side by side.
    #[test]
    fn small_group_sizes_match_on_every_leg() {
        for leg in available_legs() {
            sweep(|cfg, len| {
                let g = groups_per_row(len, cfg);
                let planes = vec![!0u64; plane_words_per_row(len, cfg)];
                let exps: Vec<u16> = (0..g).map(|gi| if gi % 2 == 0 { 30 } else { 1 }).collect();
                for sign_word in [!0u64, 0, 0xA5A5_5A5A_F00F_0FF0] {
                    let signs = vec![sign_word; g];
                    let mut s_out = vec![0.0f32; len];
                    decode_row_into_scalar(cfg, &signs, &exps, &planes, &mut s_out);
                    let mut v_out = vec![1.0f32; len];
                    decode_row_into_with_leg(leg, cfg, &signs, &exps, &planes, &mut v_out);
                    assert_eq!(
                        bits(&s_out),
                        bits(&v_out),
                        "leg={} len={len} signs={sign_word:#x} {cfg:?}",
                        leg.name()
                    );
                }
            });
        }
    }

    /// The page-level decode reproduces per-row decodes bit for bit on
    /// the columns it is asked for and leaves the others alone, without
    /// touching the row counter's per-row path.
    #[test]
    fn page_decode_matches_row_decode_on_its_columns() {
        for (dim, m) in [(256usize, 8u32), (192, 5), (100, 11)] {
            let cfg = AndaConfig::hardware(m).unwrap();
            let (g, pw) = (groups_per_row(dim, cfg), plane_words_per_row(dim, cfg));
            let rows = 5;
            let mut page = (
                vec![0u64; rows * g],
                vec![0u16; rows * g],
                vec![0u64; rows * pw],
            );
            let mut expect = vec![0.0f32; rows * dim];
            for r in 0..rows {
                let (sr, er, pr) = (r * g..(r + 1) * g, r * g..(r + 1) * g, r * pw..(r + 1) * pw);
                encode_row_into(
                    &row(dim, (r * 7 + dim) as u64),
                    cfg,
                    &mut page.0[sr.clone()],
                    &mut page.1[er.clone()],
                    &mut page.2[pr.clone()],
                );
                let out = &mut expect[r * dim..(r + 1) * dim];
                decode_row_into(cfg, &page.0[sr], &page.1[er], &page.2[pr], out);
            }
            for groups in [0..g, 0..1, g - 1..g] {
                let cols = groups.start * LANES..(groups.end * LANES).min(dim);
                let mut tile = vec![f32::NAN; rows * dim];
                decode_rows_into(cfg, &page.0, &page.1, &page.2, groups, dim, &mut tile);
                for (r, (got, want)) in tile.chunks(dim).zip(expect.chunks(dim)).enumerate() {
                    assert_eq!(
                        bits(&got[cols.clone()]),
                        bits(&want[cols.clone()]),
                        "row {r}"
                    );
                    let outside = got[..cols.start].iter().chain(&got[cols.end..]);
                    assert!(
                        outside.copied().all(f32::is_nan),
                        "row {r} wrote outside {cols:?}"
                    );
                }
            }
        }
    }
}
