//! The Anda row codec: encode/decode of one fixed-width row over flat,
//! caller-owned buffers.
//!
//! A row of `g = ceil(len / 64)` groups of [`LANES`] lanes (the last one
//! holding what is left) occupies `g` sign words,
//! `g` shared-exponent entries and `g · M` mantissa-plane words, laid out
//! group-major exactly like [`crate::bitplane`]'s transposed layout
//! (plane 0 = MSB). [`crate::AndaTensor`] holds rows of that layout back
//! to back and its row methods are these functions over its slices; this
//! module owns the index math inside one row and the SIMD legs, and is
//! the oracle surface the property suites pin every leg on.
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
//! code.
//!
//! Decode at `M <= 8` is an 8×8 bit-matrix transpose per lane byte, which
//! GFNI does in one instruction, so the AVX-512 leg (AVX2 + AVX-512
//! F/BW/VBMI + GFNI) has a group body of its own there: a masked load of
//! the group's `M` plane words, one `vpermb` that gathers byte `j` of
//! every plane into qword `j` (zero-padded so that plane 0 lands as bit
//! `M − 1`), and one `vgf2p8affineqb` against the unit bytes
//! `0x8040201008040201` turn the planes into 64 magnitude bytes in lane
//! order; then per 16 lanes one `vpermb` into the mantissas of `2^23`, one
//! fused multiply-subtract by the ULP (`(2^23 + mag)·ulp − 2^23·ulp`, the
//! exact `mag·ulp`), a masked sign-bit XOR and (on a ragged group) a
//! masked store. Everything else (encode, and decode at `M` 9..=16) runs
//! the AVX2 body under the AVX-512 leg.
//!
//! Those AVX-512 steps, the scalar lane rule ([`decode_group_into_scalar`]
//! is it over a group) and the byte transposes are `anda_fp::planes`'
//! lane primitives, not this module's: the KV page walk's register tile
//! (`anda_tensor`) widens an Anda page's bit planes with the same bodies
//! as it loads them, so a page read in place and a page decoded here
//! hold the same `f32`, bit for bit.
//!
//! A row, a page and each group the position-minor fallback decodes (see
//! below) all run one page loop, generic over a leg's group body: each
//! vector leg enters it once per call from a function compiled with the
//! leg's features, so the group body inlines into that leg's copy.
//!
//! Every vector leg is `f32::to_bits`-identical to the `*_scalar`
//! twin (its oracle), which the property suites assert on every
//! available leg, for every `M`, around every step width.
//!
//! # Page-level decode
//!
//! [`decode_rows_into_with_leg`] decodes a *column slice* (a range of
//! groups) of consecutive encoded rows into a row-major tile — the KV page
//! walk's V tile, once per page and pass — and lets parallel readers of a
//! page split its decode by columns instead of repeating it.
//! [`decode_row_into`] is that decode over a page of one row.
//! [`decode_rows_transposed_into_with_leg`] decodes the same slice
//! *position-minor* (column `c` of row `p` at `c · ld + p`), the order
//! the walk's K product reads keys in, so no transpose follows it. At
//! `M <= 8` its AVX2 and AVX-512 bodies decode sixteen positions of a
//! group at a time as magnitude bytes (the byte fold, or the GF(2)
//! transpose), transpose those bytes in registers — four rounds of
//! unpacks leave one column's sixteen positions per 128-bit lane — and
//! only then widen: per column a convert and a multiply by the
//! positions' ULPs (on the AVX-512 leg one `vpermb` into the mantissas of
//! `2^23` and one fused multiply-subtract, exact alike), a sign-bit XOR
//! and a store of sixteen keys. A block short of sixteen positions
//! stores through a mask. The AVX-512 body's first half is
//! `anda_fp::planes::avx512::columns`, from which the register tile
//! writes the position-minor block it widens a K page from when the page
//! walk reads the page in place. Every other leg and `M` decodes each group as
//! a page of one group and puts the values in place, which is also why
//! its oracle is [`decode_rows_into_with_leg`] permuted.
//!
//! Both page decodes take the words of the page decoded next ([`Words`]),
//! which the AVX2 and AVX-512 bodies stream toward the cache while they
//! decode their own: per (row, group) of the row-major loop or (group,
//! position) of the position-minor ones, the same group's plane words of
//! the next page and, at a row's first group, its sign and exponent words
//! — one line at a time, spread over the decode. A KV page
//! is a heap allocation of its own, where the hardware prefetchers stop,
//! and a burst of a page's lines up front would wait on the L1's few fill
//! buffers instead. A walk job streams only its own column groups. The
//! scalar and NEON legs ignore the next page.

use anda_fp::simd::{active_leg, LegKind, SimdLeg};
use anda_fp::{saturate_to_f16, F16};

use anda_fp::planes::group_ulp;

use crate::align::align_element;
use crate::anda::AndaConfig;
use crate::bitplane::LANES;

/// Number of [`LANES`]-lane shared-exponent groups in a `len`-element row
/// (the same under every `M`).
#[inline]
pub fn groups_per_row(len: usize, _cfg: AndaConfig) -> usize {
    len.div_ceil(LANES)
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
/// ±65504). Buffers are fully overwritten for the row's `groups_per_row`
/// prefix.
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
    encode_row_into_with_leg(active_leg(), values, cfg, signs, exps, planes);
}

/// [`encode_row_into`] on an explicit leg (oracle tests and benches).
///
/// # Panics
///
/// As [`encode_row_into`].
pub fn encode_row_into_with_leg(
    leg: SimdLeg,
    values: &[f32],
    cfg: AndaConfig,
    signs: &mut [u64],
    exps: &mut [u16],
    planes: &mut [u64],
) {
    match leg.kind() {
        LegKind::Scalar => encode_row_into_scalar(values, cfg, signs, exps, planes),
        // SAFETY (every leg): the CPU runs `leg` — a `SimdLeg` is that
        // proof — and a CPU that runs `Avx512` runs `Avx2`.
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx2 | LegKind::Avx512 => unsafe {
            avx2::encode_row(values, cfg, signs, exps, planes)
        },
        #[cfg(target_arch = "aarch64")]
        LegKind::Neon => unsafe { neon::encode_row(values, cfg, signs, exps, planes) },
        #[allow(unreachable_patterns)]
        other => unreachable!("no host runs SIMD leg {}", other.name()),
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
    for (gi, chunk) in values.chunks(LANES).enumerate() {
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
    decode_row_into_with_leg(active_leg(), cfg, signs, exps, planes, out);
}

/// [`decode_row_into`] on an explicit leg (oracle tests and benches): the
/// page decode of a page of one row, counted once in
/// [`crate::metrics::rows_decoded`].
///
/// # Panics
///
/// As [`decode_row_into`].
pub fn decode_row_into_with_leg(
    leg: SimdLeg,
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    out: &mut [f32],
) {
    check_decode_buffers(cfg, signs, exps, planes, out);
    crate::metrics::note_rows_decoded(1);
    let groups = 0..groups_per_row(out.len(), cfg);
    Page::new(cfg, signs, exps, planes, groups, out.len()).decode_on(leg, out);
}

/// Page-level decode on `leg`: `signs`/`exps`/`planes` hold consecutive
/// `row_len`-wide encoded rows (row `r`'s groups start at
/// `r · groups_per_row`), `tile` is the matching row-major
/// `rows × row_len` float tile (`rows = tile.len() / row_len`), and only
/// the columns of groups `groups` of every row are decoded into it —
/// bit-identical to the same columns of [`decode_row_into`]. Column
/// slices are what lets parallel readers of one page split its decode
/// instead of repeating it. The KV page walk's V decode, oracle tests
/// and benches call it.
///
/// Unlike [`decode_row_into`] this does **not** bump
/// [`crate::metrics::rows_decoded`]: a page's rows may be decoded in
/// several column slices, so the caller notes them once per page
/// ([`crate::metrics::note_rows_decoded`]).
///
/// `next`, the rows decoded next in the same layout, is streamed toward
/// the cache while these decode ([`Words`]); it changes no value.
///
/// # Panics
///
/// Panics if `tile` is not a whole number of rows, `groups` exceeds the
/// row's groups, or a source slice is shorter than the rows require.
#[allow(clippy::too_many_arguments)]
pub fn decode_rows_into_with_leg(
    leg: SimdLeg,
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    groups: std::ops::Range<usize>,
    row_len: usize,
    tile: &mut [f32],
    next: Option<Words<'_>>,
) {
    assert!(
        tile.len().is_multiple_of(row_len),
        "tile must hold whole rows"
    );
    let page = Page::new(cfg, signs, exps, planes, groups, row_len);
    Page { next, ..page }.decode_on(leg, tile);
}

/// The words of encoded rows held back to back, as a page decode reads
/// them: the rows a walk decodes next, which a vector leg's page decode
/// (not the scalar or NEON one) streams toward the cache while it decodes
/// its own — per (row, group) or (group, position) it decodes, the same
/// group's plane words of these rows and, at a row's first group, that
/// row's sign and exponent words: one line at a time. A prefetch never
/// faults and reads only inside these slices; no value depends on what it
/// streams.
#[derive(Clone, Copy, Debug)]
pub struct Words<'a> {
    pub signs: &'a [u64],
    pub exps: &'a [u16],
    pub planes: &'a [u64],
}

impl Words<'_> {
    /// Streams group `gi`'s plane words (`m` a group) and, when it opens a
    /// row, that row's sign and exponent words.
    #[inline(always)]
    fn stream(&self, gi: usize, m: usize, opens_row: bool) {
        prefetch(self.planes, gi * m);
        if opens_row {
            prefetch(self.signs, gi);
            prefetch(self.exps, gi);
        }
    }
}

/// Hints that `words[i]`'s cache line is about to be read, when `words`
/// holds it: a prefetch on x86-64, nothing elsewhere (stable Rust has no
/// aarch64 one, so there the arguments go unused).
#[inline(always)]
fn prefetch<T>(_words: &[T], _i: usize) {
    #[cfg(target_arch = "x86_64")]
    if _i < _words.len() {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is baseline x86-64, and a prefetch of an address
        // inside `words` reads nothing architecturally.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(_words.as_ptr().wrapping_add(_i).cast()) }
    }
}

/// The encoded rows a page decode reads: `row_len`-wide rows back to
/// back, of which the groups `groups` are decoded, and the page decoded
/// next, which a vector leg streams.
#[derive(Clone)]
struct Page<'a> {
    cfg: AndaConfig,
    signs: &'a [u64],
    exps: &'a [u16],
    planes: &'a [u64],
    groups: std::ops::Range<usize>,
    row_len: usize,
    next: Option<Words<'a>>,
}

impl<'a> Page<'a> {
    /// The groups `groups` of each of the `row_len`-wide rows held back to
    /// back in `signs`, `exps` and `planes`, with no next page.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or exceeds a row's groups.
    #[inline(always)]
    fn new(
        cfg: AndaConfig,
        signs: &'a [u64],
        exps: &'a [u16],
        planes: &'a [u64],
        groups: std::ops::Range<usize>,
        row_len: usize,
    ) -> Self {
        let g = groups_per_row(row_len, cfg);
        assert!(
            groups.start < groups.end && groups.end <= g,
            "group range {groups:?} outside a {g}-group row"
        );
        Page {
            cfg,
            signs,
            exps,
            planes,
            groups,
            row_len,
            next: None,
        }
    }

    /// Decodes the page into the row-major `tile` (whole rows) on `leg`.
    #[inline(always)]
    fn decode_on(&self, leg: SimdLeg, tile: &mut [f32]) {
        match leg.kind() {
            LegKind::Scalar => {
                let page = Page {
                    next: None,
                    ..self.clone()
                };
                page.decode_into(tile, decode_group_into_scalar)
            }
            // SAFETY (every leg): the CPU runs `leg` — a `SimdLeg` is that
            // proof — and a CPU that runs `Avx512` runs `Avx2`.
            #[cfg(target_arch = "x86_64")]
            LegKind::Avx512 if self.cfg.mantissa_bits() <= 8 => unsafe {
                avx512::decode_rows(self, tile)
            },
            #[cfg(target_arch = "x86_64")]
            LegKind::Avx2 | LegKind::Avx512 => unsafe { avx2::decode_rows(self, tile) },
            #[cfg(target_arch = "aarch64")]
            LegKind::Neon => unsafe { neon::decode_rows(self, tile) },
            #[allow(unreachable_patterns)]
            other => unreachable!("no host runs SIMD leg {}", other.name()),
        }
    }

    /// The one page loop of every leg's decode: per row of `tile`, per
    /// group, `group(sign word, ULP, plane words, lanes)` decodes that
    /// group's lanes, and the next page's same row and group stream in.
    /// Each vector leg calls it from one function compiled with its
    /// features, so its group body inlines into that leg's copy.
    #[inline(always)]
    fn decode_into(&self, tile: &mut [f32], mut group: impl FnMut(u64, f32, &[u64], &mut [f32])) {
        let m = self.cfg.mantissa_bits() as usize;
        let (start, n) = (self.groups.start, self.groups.len());
        let g = groups_per_row(self.row_len, self.cfg);
        let cols = start * LANES..(self.groups.end * LANES).min(self.row_len);
        // Index arithmetic rather than `chunks`: their lengths cost two
        // divisions per row, measured at a third of this loop's time.
        for (r, row) in tile.chunks_exact_mut(self.row_len).enumerate() {
            let g0 = r * g + start;
            let (signs, exps) = (&self.signs[g0..g0 + n], &self.exps[g0..g0 + n]);
            let words = &self.planes[g0 * m..(g0 + n) * m];
            let row = &mut row[cols.clone()];
            for k in 0..n {
                if let Some(next) = &self.next {
                    next.stream(g0 + k, m, k == 0);
                }
                let out = &mut row[k * LANES..((k + 1) * LANES).min(cols.len())];
                let ulp = group_ulp(exps[k], m);
                group(signs[k], ulp, &words[k * m..(k + 1) * m], out);
            }
        }
    }
}

/// Position-minor page decode on `leg`: [`decode_rows_into_with_leg`]
/// over the first `rows` encoded rows, written transposed — column `c` of
/// row `p` lands at `keys[(c − cols.start) · ld + p]`, `cols` being the
/// columns of groups `groups`. That is the order the KV page walk reads a
/// page's keys in, so the walk's K tile is decoded straight into it. Each
/// column's slots `rows..ld` are left alone. The values are
/// [`decode_rows_into_with_leg`]'s, bit for bit: only where they land
/// differs. Not counted, like [`decode_rows_into_with_leg`]. At `M <= 8`
/// the AVX2 and AVX-512 legs decode sixteen positions at a time and
/// transpose their magnitude bytes before they widen; everything else
/// decodes each group as a page of one group and puts it in place. The
/// AVX2 and AVX-512 bodies stream `next` as [`decode_rows_into_with_leg`]
/// does; the rest ignore it.
///
/// # Panics
///
/// Panics if `rows` exceeds `ld`, `groups` exceeds the row's groups,
/// `keys` cannot hold the columns' runs, or a source slice is shorter
/// than the rows require.
#[allow(clippy::too_many_arguments)]
pub fn decode_rows_transposed_into_with_leg(
    leg: SimdLeg,
    cfg: AndaConfig,
    signs: &[u64],
    exps: &[u16],
    planes: &[u64],
    groups: std::ops::Range<usize>,
    row_len: usize,
    rows: usize,
    keys: &mut [f32],
    ld: usize,
    next: Option<Words<'_>>,
) {
    let g = groups_per_row(row_len, cfg);
    let page = Page::new(cfg, signs, exps, planes, groups.clone(), row_len);
    let n_cols = (groups.end * LANES).min(row_len) - groups.start * LANES;
    assert!(
        rows <= ld && (rows == 0 || (n_cols - 1) * ld + rows <= keys.len()),
        "{n_cols} columns of {rows} positions at stride {ld} do not fit {} elements",
        keys.len()
    );
    let last = rows.saturating_sub(1) * g + groups.end;
    let m = cfg.mantissa_bits() as usize;
    assert!(
        rows == 0 || (signs.len() >= last && exps.len() >= last && planes.len() >= last * m),
        "source slices shorter than {rows} rows"
    );
    match leg.kind() {
        // SAFETY (both legs): the CPU runs `leg`, as a `SimdLeg` proves,
        // and a CPU that runs `Avx512` runs `Avx2`; the asserts above are
        // the bodies' bounds.
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx512 if m <= 8 => unsafe {
            avx512::decode_rows_transposed(&Page { next, ..page }, rows, keys, ld)
        },
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx2 | LegKind::Avx512 if m <= 8 => unsafe {
            avx2::decode_rows_transposed(&Page { next, ..page }, rows, keys, ld)
        },
        _ => {
            // Each group of each row decoded as a page of one group, then
            // put in place: a permutation of the row-major page decode.
            let mut lanes = [0.0f32; LANES];
            for p in 0..rows {
                for (k, col0) in groups.clone().zip((0..).step_by(LANES)) {
                    let gi = p * g + k;
                    let out = &mut lanes[..(n_cols - col0).min(LANES)];
                    let (sign, exp, words) = (&signs[gi..], &exps[gi..], &planes[gi * m..]);
                    Page::new(cfg, sign, exp, words, 0..1, out.len()).decode_on(leg, out);
                    for (c, &x) in out.iter().enumerate() {
                        keys[(col0 + c) * ld + p] = x;
                    }
                }
            }
        }
    }
}

/// The scalar oracle of [`decode_row_into`], which the suites hold every
/// leg's row and page decodes to (no production path calls it).
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
    for (gi, chunk) in out.chunks_mut(LANES).enumerate() {
        let ulp = group_ulp(exps[gi], m as usize);
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
/// transpose + sign/magnitude dequant rule, and the scalar oracle of the
/// vector legs' group decode inside [`decode_row_into`].
///
/// # Panics
///
/// Panics if `out` holds more than [`LANES`] elements.
pub fn decode_group_into_scalar(sign_word: u64, ulp: f32, planes: &[u64], out: &mut [f32]) {
    assert!(out.len() <= LANES, "a group holds at most {LANES} lanes");
    for (i, o) in out.iter_mut().enumerate() {
        *o = anda_fp::planes::lane(sign_word, ulp, planes, i);
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

    /// AVX2 leg of [`decode_group_into_scalar`]. The plane→lane transpose
    /// runs in the narrowest integer lanes that hold a magnitude: for
    /// `M <= 8` a plane's 32 bits become 32 **byte** lanes per step
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
    /// Requires AVX2 (callers run on a `SimdLeg` of kind `Avx2` or
    /// `Avx512`, which proves it).
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

    /// AVX2 leg of [`decode_rows_into_with_leg`], after its checks:
    /// [`Page::decode_into`] compiled with AVX2, so [`decode_group`] inlines
    /// into it.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_rows(page: &Page, tile: &mut [f32]) {
        page.decode_into(tile, |sign, ulp, words, out| {
            decode_group(sign, ulp, words, out)
        });
    }

    /// AVX2 leg of [`decode_rows_transposed_into_with_leg`] at `M <= 8`,
    /// after its checks. Per group, 32 columns and sixteen positions: each
    /// position's magnitudes fold into 32 bytes as in [`decode_group`],
    /// `anda_fp::planes::avx2::transpose_bytes` turns the sixteen vectors
    /// into one lane of
    /// sixteen positions per column, and each column's lane widens eight
    /// positions at a time, converts, multiplies by those positions' ULPs
    /// and flips sign bits: the column's bit of the positions' sign words,
    /// shifted to bit 31. A block short of sixteen positions stores
    /// through a lane mask.
    ///
    /// # Safety
    ///
    /// Requires AVX2; the caller checked the bounds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_rows_transposed(page: &Page, rows: usize, keys: &mut [f32], ld: usize) {
        let (cfg, groups, row_len, next) = (page.cfg, &page.groups, page.row_len, page.next);
        let (g, m) = (groups_per_row(row_len, cfg), cfg.mantissa_bits() as usize);
        let n_cols = (groups.end * LANES).min(row_len) - groups.start * LANES;
        let sign_bit = _mm256_set1_epi32(i32::MIN);
        for (k, col0) in groups.clone().zip((0..).step_by(LANES)) {
            let width = (n_cols - col0).min(LANES);
            for p0 in (0..rows).step_by(16) {
                let n = (rows - p0).min(16);
                let (mut ulps, mut keep) = ([0.0f32; 16], [0i32; 16]);
                for p in 0..n {
                    if let Some(next) = &next {
                        next.stream((p0 + p) * g + k, m, k == groups.start);
                    }
                    ulps[p] = group_ulp(page.exps[(p0 + p) * g + k], m);
                    keep[p] = -1;
                }
                let ulp = [
                    _mm256_loadu_ps(ulps.as_ptr()),
                    _mm256_loadu_ps(ulps[8..].as_ptr()),
                ];
                let keep = [
                    _mm256_loadu_si256(keep.as_ptr().cast()),
                    _mm256_loadu_si256(keep[8..].as_ptr().cast()),
                ];
                for half in 0..width.div_ceil(32) {
                    let mut mags = [_mm256_setzero_si256(); 16];
                    let mut words = [0u32; 16];
                    for p in 0..n {
                        let gi = (p0 + p) * g + k;
                        for &plane in &page.planes[gi * m..(gi + 1) * m] {
                            let hit = byte_hits(plane, half);
                            mags[p] = _mm256_sub_epi8(_mm256_add_epi8(mags[p], mags[p]), hit);
                        }
                        words[p] = (page.signs[gi] >> (32 * half)) as u32;
                    }
                    anda_fp::planes::avx2::transpose_bytes(&mut mags);
                    let words = [
                        _mm256_loadu_si256(words.as_ptr().cast()),
                        _mm256_loadu_si256(words[8..].as_ptr().cast()),
                    ];
                    let mut bytes = [[0u8; 32]; 16];
                    for (lanes, mags) in bytes.iter_mut().zip(mags) {
                        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), mags);
                    }
                    for (cc, lanes) in bytes.iter().enumerate() {
                        for (lane, column) in lanes.chunks_exact(16).enumerate() {
                            let c = 16 * lane + cc;
                            if 32 * half + c >= width {
                                break;
                            }
                            let shift = _mm_cvtsi32_si128(31 - c as i32);
                            let dst = keys.as_mut_ptr().add((col0 + 32 * half + c) * ld + p0);
                            for i in 0..2 {
                                if 8 * i >= n {
                                    break;
                                }
                                let mags = _mm_loadl_epi64(column[8 * i..].as_ptr().cast());
                                let v = _mm256_mul_ps(
                                    _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(mags)),
                                    ulp[i],
                                );
                                let sign =
                                    _mm256_and_si256(_mm256_sll_epi32(words[i], shift), sign_bit);
                                let signed = _mm256_xor_ps(v, _mm256_castsi256_ps(sign));
                                // `8·i < n`: the lane's first position is in
                                // the column's run; the mask stops at `n`.
                                match n {
                                    16 => _mm256_storeu_ps(dst.add(8 * i), signed),
                                    _ => _mm256_maskstore_ps(dst.add(8 * i), keep[i], signed),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// AVX2 leg of [`encode_row_into`]: two passes of 8 lanes per step.
    ///
    /// Pass 1 saturates to FP16 on F16C (`anda_fp`'s saturating lane
    /// primitive — `saturate_to_f16`'s bits), decomposes the f16 bits into
    /// explicit-hidden-bit magnitudes and effective biased exponents with
    /// masked selects, and keeps a running vector max for the shared
    /// exponent. Pass 2 replays
    /// `align_element` branchlessly: the variable truncating right shift is
    /// `_mm256_srlv_epi32` with the shift clamped to 28 (magnitudes are
    /// < 2^27, so every shift ≥ 28 yields 0), then scatters mantissa bits
    /// into the MSB-first planes via sign-bit movemasks.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn encode_row(
        values: &[f32],
        cfg: AndaConfig,
        signs: &mut [u64],
        exps: &mut [u16],
        planes: &mut [u64],
    ) {
        check_encode_buffers(values, cfg, signs, exps, planes);
        let m = cfg.mantissa_bits();
        let one = _mm256_set1_epi32(1);
        let m_v = _mm256_set1_epi32(m as i32);
        for (gi, chunk) in values.chunks(LANES).enumerate() {
            let full = chunk.len() / 8;
            let mut mags = [0i32; LANES];
            let mut lane_exps = [0i32; LANES];
            let mut sign_word = 0u64;
            let mut max_v = one;
            // Pass 1: saturate → f16 bits → (magnitude, effective exponent).
            for c in 0..full {
                let v = _mm256_loadu_ps(chunk.as_ptr().add(c * 8));
                let h = _mm256_cvtepu16_epi32(anda_fp::simd::x86::saturate_f32x8_to_f16(v));
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

/// The AVX-512 leg's bodies: the `M <= 8` decodes as a GF(2) bit-matrix
/// transpose, over `anda_fp::planes::avx512`'s primitives (see the module
/// docs).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use anda_fp::planes::avx512::{columns, gather, magnitudes, quarter, widen};
    use core::arch::x86_64::*;

    /// One group: `words` are the group's `M <= 8` plane words, `gather`
    /// is `gather(M)`, `out` holds at most 64 lanes. Per 16 lanes of its
    /// [`magnitudes`]: the mantissas of `2^23` ([`quarter`]), [`widen`] by
    /// the ULP and the lanes' sign bits, and a masked store that writes
    /// only `out`'s lanes.
    ///
    /// # Safety
    ///
    /// As [`magnitudes`] (memory is only touched through `words` and
    /// `out`).
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    unsafe fn decode_group(
        sign_word: u64,
        ulp: f32,
        words: &[u64],
        gather: __m512i,
        out: &mut [f32],
    ) {
        let mags = magnitudes(words.as_ptr(), words.len(), gather);
        let ulp = _mm512_set1_ps(ulp);
        let keep = match out.len() {
            n @ 0..64 => (1u64 << n) - 1,
            _ => u64::MAX,
        };
        for q in 0..4 {
            let lanes = (keep >> (16 * q)) as u16;
            if lanes == 0 {
                break;
            }
            let v = widen(quarter(mags, q), ulp, (sign_word >> (16 * q)) as u16);
            // Lane 16·q is inside `out`, and the mask stops at its end.
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(16 * q), lanes, v);
        }
    }

    /// AVX-512 leg of [`decode_rows_into_with_leg`] at `M <= 8`, after its
    /// checks: [`Page::decode_into`] compiled with the leg's features, so
    /// [`decode_group`] inlines into it, `gather(M)` loaded once.
    ///
    /// # Safety
    ///
    /// Requires AVX2, AVX-512 F/BW/VBMI and GFNI.
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn decode_rows(page: &Page, tile: &mut [f32]) {
        let m = page.cfg.mantissa_bits() as usize;
        assert!(m <= 8, "the transpose holds at most 8 planes");
        let gather = gather(m);
        page.decode_into(tile, |sign, ulp, words, out| {
            decode_group(sign, ulp, words, gather, out)
        });
    }

    /// AVX-512 leg of [`decode_rows_transposed_into_with_leg`] at
    /// `M <= 8`, after its checks. Per group and sixteen positions, their
    /// [`columns`] — each position's GF(2) magnitudes transposed in
    /// registers so that each 128-bit lane holds one column's sixteen
    /// positions, a sign mask per column, the positions' ULPs — then per
    /// column [`quarter`] writes its sixteen bytes into the mantissas of
    /// `2^23`, [`widen`] takes the exact `mag·ulp` and flips the sign bits,
    /// and a store masked to the block's positions finishes it.
    ///
    /// # Safety
    ///
    /// As [`decode_rows`]; the caller checked the bounds.
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn decode_rows_transposed(page: &Page, rows: usize, keys: &mut [f32], ld: usize) {
        let (cfg, groups, row_len, next) = (page.cfg, &page.groups, page.row_len, page.next);
        let (g, m) = (groups_per_row(row_len, cfg), cfg.mantissa_bits() as usize);
        assert!(m <= 8, "the transpose holds at most 8 planes");
        let n_cols = (groups.end * LANES).min(row_len) - groups.start * LANES;
        let (mut mags, mut masks) = ([_mm512_setzero_si512(); 16], [0u16; LANES]);
        for (k, col0) in groups.clone().zip((0..).step_by(LANES)) {
            let width = (n_cols - col0).min(LANES);
            for p0 in (0..rows).step_by(16) {
                let n = (rows - p0).min(16);
                for p in 0..n {
                    if let Some(next) = &next {
                        next.stream((p0 + p) * g + k, m, k == groups.start);
                    }
                }
                // SAFETY: `gi` is a group of a row below `rows`, which the
                // caller checked every source slice holds.
                let group = |p| {
                    let gi = (p0 + p) * g + k;
                    let sign = *page.signs.get_unchecked(gi);
                    let exp = *page.exps.get_unchecked(gi);
                    (sign, exp, page.planes.as_ptr().add(gi * m))
                };
                let ulp = columns(n, m, group, &mut mags, &mut masks);
                let keep = (u32::MAX >> (32 - n)) as u16;
                for (cc, &bytes) in mags.iter().enumerate() {
                    for lane in 0..4 {
                        let c = 16 * lane + cc;
                        if c >= width {
                            break;
                        }
                        let v = widen(quarter(bytes, lane), ulp, masks[c]);
                        // Position `p0` of column `col0 + c` is in `keys`
                        // (the caller's bounds), and the mask stops at `n`.
                        let dst = keys.as_mut_ptr().add((col0 + c) * ld + p0);
                        _mm512_mask_storeu_ps(dst, keep, v);
                    }
                }
            }
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

    /// NEON leg of [`decode_group_into_scalar`], the 128-bit mirror of the
    /// AVX2 leg: for `M <= 8` a plane's 16 bits become 16 **byte** lanes per
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

    /// NEON leg of [`decode_rows_into_with_leg`], after its checks:
    /// [`Page::decode_into`] compiled with NEON, so [`decode_group`] inlines
    /// into it.
    ///
    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn decode_rows(page: &Page, tile: &mut [f32]) {
        page.decode_into(tile, |sign, ulp, words, out| {
            decode_group(sign, ulp, words, out)
        });
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
        for (gi, chunk) in values.chunks(LANES).enumerate() {
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
            for (gi, group) in tensor.groups().enumerate() {
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
        let per_group: usize = AndaTensor::from_f32(&data, cfg)
            .groups()
            .map(|g| 5 + LANES * g.mantissa_words())
            .sum();
        assert_eq!(row_storage_bits(192, cfg), per_group);
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

    /// Row lengths of the sweeps: one group of every length — every
    /// ragged tail 1..=63, so one on both sides of every vector width a
    /// leg steps by (8, 16 and 32 lanes), and the whole 64 — then rows of
    /// several groups: a one-lane second group, tails of 36 and 2 lanes
    /// behind one and two whole groups, and the serving model's `d_model`.
    fn row_lens() -> impl Iterator<Item = usize> {
        (1..=LANES).chain([65, 100, 130, 256])
    }

    /// Every `M` × [`row_lens`]: `M <= 8` runs the byte-lane transpose
    /// (the GF(2) one on the AVX-512 leg), `M > 8` the 16-bit-lane one.
    fn sweep(mut case: impl FnMut(AndaConfig, usize)) {
        for m in 1..=16 {
            let cfg = AndaConfig::hardware(m).unwrap();
            row_lens().for_each(|len| case(cfg, len));
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
                // A lane past the row, which a store past its last group
                // would reach.
                let mut v_out = vec![1.0f32; len + 1];
                decode_row_into_with_leg(leg, cfg, &s.0, &s.1, &s.2, &mut v_out[..len]);
                s_out.push(1.0);
                assert_eq!(bits(&s_out), bits(&v_out), "decode {ctx}");
            });
        }
    }

    /// The bit-plane primitives the row codec and the register tile share
    /// (`anda_fp::planes::avx512`), pinned to the scalar group rule on
    /// their own, at every `M` 1..=8 and shared exponent 0..=31, under
    /// all-zero, all-one and mixed sign words, over random, all-zero (a
    /// lane under a set sign is −0.0) and all-one planes: a group's four
    /// row-major quarters (`magnitudes` → `quarter` → `widen`) and, for
    /// sixteen such groups as the positions of a position-minor block, every
    /// column of the block (`write_block` → `block_column`), with all
    /// sixteen positions, fifteen or one (the rest zero, with clear signs);
    /// partial last groups compare their prefix. Needs the AVX-512 leg.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_shared_plane_primitives_are_the_scalar_group_rule() {
        use anda_fp::planes::avx512::{block_column, gather, magnitudes, quarter};
        use anda_fp::planes::avx512::{widen, write_block};
        use anda_fp::planes::BLOCK_BYTES;
        use core::arch::x86_64::*;
        if !available_legs().iter().any(|l| l.kind() == LegKind::Avx512) {
            return;
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for m in 1..=8 {
            // `(sign word, exponent, planes)` of every case at this `M`.
            let mut groups = Vec::new();
            for exp in 0..=31u16 {
                for signs in [0, !0, next()] {
                    for fill in [None, Some(0), Some(!0)] {
                        let planes: Vec<u64> =
                            (0..m).map(|_| fill.unwrap_or_else(&mut next)).collect();
                        groups.push((signs, exp, planes));
                    }
                }
            }
            for (signs, exp, planes) in &groups {
                let ulp = group_ulp(*exp, m);
                let mut got = [0.0f32; LANES];
                // SAFETY: the host runs the AVX-512 leg (checked above),
                // `planes` holds `m` words and `got` four quarters.
                unsafe {
                    let mags = magnitudes(planes.as_ptr(), m, gather(m));
                    for q in 0..4 {
                        let v = widen(
                            quarter(mags, q),
                            _mm512_set1_ps(ulp),
                            (signs >> (16 * q)) as u16,
                        );
                        _mm512_storeu_ps(got[16 * q..].as_mut_ptr(), v);
                    }
                }
                for n in [1, 17, LANES] {
                    let mut want = vec![0.0f32; n];
                    decode_group_into_scalar(*signs, ulp, planes, &mut want);
                    let ctx =
                        format!("M {m} exp {exp} signs {signs:#x} planes {planes:x?} lanes {n}");
                    assert_eq!(bits(&got[..n]), bits(&want), "row-major, {ctx}");
                }
            }
            for (b, block) in groups.chunks_exact(16).enumerate() {
                for n in [16, 15, 1] {
                    let mut words = [0u8; BLOCK_BYTES];
                    let mut got = [[0.0f32; 16]; LANES];
                    // SAFETY: as above; `words` holds a block, and each
                    // position's planes `m` words.
                    unsafe {
                        write_block(words.as_mut_ptr(), n, m, |p| {
                            let (sign, exp, planes) = &block[p];
                            (*sign, *exp, planes.as_ptr())
                        });
                        for (c, column) in got.iter_mut().enumerate() {
                            _mm512_storeu_ps(column.as_mut_ptr(), block_column(words.as_ptr(), c));
                        }
                    }
                    for (p, (signs, exp, planes)) in block.iter().enumerate() {
                        let mut want = [0.0f32; LANES];
                        if p < n {
                            decode_group_into_scalar(*signs, group_ulp(*exp, m), planes, &mut want);
                        }
                        let column: Vec<f32> = got.iter().map(|column| column[p]).collect();
                        let ctx = format!("M {m} block {b} of {n} positions, position {p}");
                        assert_eq!(bits(&column), bits(&want), "position-minor, {ctx}");
                    }
                }
            }
        }
    }

    /// Buffers no encoder input reaches together: all-ones planes (the
    /// largest magnitude of each lane width, `2^M − 1`, bits set past the
    /// row's last lane too) and all-zero planes (every lane under a set
    /// sign bit is −0.0), all-negative and all-positive sign words, and
    /// the smallest and largest shared exponents side by side — behind
    /// every ragged tail.
    #[test]
    fn raw_words_match_on_every_leg_and_tail() {
        for leg in available_legs() {
            sweep(|cfg, len| {
                let g = groups_per_row(len, cfg);
                let exps: Vec<u16> = (0..g).map(|gi| if gi % 2 == 0 { 30 } else { 1 }).collect();
                for plane_word in [!0u64, 0] {
                    let planes = vec![plane_word; plane_words_per_row(len, cfg)];
                    for sign_word in [!0u64, 0, 0xA5A5_5A5A_F00F_0FF0] {
                        let signs = vec![sign_word; g];
                        let mut s_out = vec![0.0f32; len];
                        decode_row_into_scalar(cfg, &signs, &exps, &planes, &mut s_out);
                        let mut v_out = vec![1.0f32; len + 1];
                        let out = &mut v_out[..len];
                        decode_row_into_with_leg(leg, cfg, &signs, &exps, &planes, out);
                        s_out.push(1.0);
                        assert_eq!(
                            bits(&s_out),
                            bits(&v_out),
                            "leg={} len={len} planes={plane_word:#x} signs={sign_word:#x} \
                             {cfg:?}",
                            leg.name()
                        );
                    }
                }
            });
        }
    }

    /// A page's sign, exponent and plane words.
    type PageWords = (Vec<u64>, Vec<u16>, Vec<u64>);

    /// `rows` adversarial rows of `dim` encoded back to back, as a page
    /// holds them, and their scalar row decode (row-major).
    fn page(dim: usize, cfg: AndaConfig, rows: usize) -> (PageWords, Vec<f32>) {
        let (g, pw) = (groups_per_row(dim, cfg), plane_words_per_row(dim, cfg));
        let mut page = (
            vec![0u64; rows * g],
            vec![0u16; rows * g],
            vec![0u64; rows * pw],
        );
        let mut expect = vec![0.0f32; rows * dim];
        for r in 0..rows {
            let (sr, er, pr) = (r * g..(r + 1) * g, r * g..(r + 1) * g, r * pw..(r + 1) * pw);
            encode_row_into_scalar(
                &adversarial_row(dim, (r * 7 + dim) as u64),
                cfg,
                &mut page.0[sr.clone()],
                &mut page.1[er.clone()],
                &mut page.2[pr.clone()],
            );
            let out = &mut expect[r * dim..(r + 1) * dim];
            decode_row_into_scalar(cfg, &page.0[sr], &page.1[er], &page.2[pr], out);
        }
        (page, expect)
    }

    /// Group ranges from the first group, the last, and mid-row, as the
    /// walk's column split asks for them; each once (the equal ones of a
    /// short row are adjacent), so the one-group rows decode one range.
    fn group_ranges(g: usize) -> Vec<std::ops::Range<usize>> {
        let mut ranges = vec![0..g, 0..1, g - 1..g, g / 2..g, g / 2..g / 2 + 1];
        ranges.dedup();
        ranges
    }

    /// The page-level decode reproduces the scalar row decode bit for bit
    /// on every leg, row length and `M`, on the columns it is asked for —
    /// group ranges from the first group or from mid-row, over a full or a
    /// partly filled page — and leaves the others alone. The tile it
    /// decodes into is the prefix of a buffer one group of guard lanes
    /// longer, so a vector leg that stores past a ragged last group fails
    /// here instead of corrupting the heap.
    #[test]
    fn page_decode_matches_row_decode_on_its_columns() {
        sweep(|cfg, dim| {
            let rows = 5;
            let (page, expect) = page(dim, cfg, rows);
            let ranges = group_ranges(groups_per_row(dim, cfg));
            for leg in available_legs() {
                for (groups, filled) in ranges.iter().flat_map(|gr| [(gr, rows), (gr, 2)]) {
                    let cols = groups.start * LANES..(groups.end * LANES).min(dim);
                    let ctx = format!("leg={} {groups:?} filled={filled} {cfg:?}", leg.name());
                    let mut guarded = vec![f32::NAN; filled * dim + LANES];
                    let (tile, guard) = guarded.split_at_mut(filled * dim);
                    let (signs, exps, planes) = (&page.0, &page.1, &page.2);
                    let groups = groups.clone();
                    decode_rows_into_with_leg(
                        leg, cfg, signs, exps, planes, groups, dim, tile, None,
                    );
                    let untouched = guard.iter().all(|x| x.to_bits() == f32::NAN.to_bits());
                    assert!(untouched, "guard lanes past the tile written, {ctx}");
                    for (r, (got, want)) in tile.chunks(dim).zip(expect.chunks(dim)).enumerate() {
                        let (got_cols, want_cols) = (&got[cols.clone()], &want[cols.clone()]);
                        assert_eq!(bits(got_cols), bits(want_cols), "row {r} {ctx}");
                        let outside = got[..cols.start].iter().chain(&got[cols.end..]);
                        assert!(outside.copied().all(f32::is_nan), "row {r} outside, {ctx}");
                    }
                }
            }
        });
    }

    /// The position-minor twin of the test above: on every leg, over the
    /// same rows, `M` and group ranges, at page sizes 16 and 32 filled
    /// with 1, 3, 8, 15, 16 or 17 positions (short of, at and past a
    /// block of sixteen), each column's run holds the scalar row decode's
    /// column bit for bit, and the slots past the fill and past the
    /// columns stay untouched.
    #[test]
    fn position_minor_page_decode_is_the_row_decode_transposed() {
        sweep(|cfg, dim| {
            let (page, expect) = page(dim, cfg, 32);
            let (signs, exps, planes) = (&page.0, &page.1, &page.2);
            for leg in available_legs() {
                for groups in group_ranges(groups_per_row(dim, cfg)) {
                    let cols = groups.start * LANES..(groups.end * LANES).min(dim);
                    for (ld, rows) in [16, 32].into_iter().flat_map(|ld| {
                        [1, 3, 8, 15, 16, 17]
                            .into_iter()
                            .filter(move |&r| r <= ld)
                            .map(move |r| (ld, r))
                    }) {
                        let ctx = format!("leg={} {groups:?} {rows}/{ld} {cfg:?}", leg.name());
                        let mut keys = vec![f32::NAN; (cols.len() + 1) * ld];
                        decode_rows_transposed_into_with_leg(
                            leg,
                            cfg,
                            signs,
                            exps,
                            planes,
                            groups.clone(),
                            dim,
                            rows,
                            &mut keys,
                            ld,
                            None,
                        );
                        for (i, run) in keys.chunks(ld).enumerate() {
                            let Some(c) = cols.clone().nth(i) else {
                                assert!(run.iter().all(|x| x.is_nan()), "past the columns, {ctx}");
                                continue;
                            };
                            let want: Vec<f32> = (0..rows).map(|p| expect[p * dim + c]).collect();
                            assert_eq!(bits(&run[..rows]), bits(&want), "column {c} {ctx}");
                            assert!(
                                run[rows..].iter().all(|x| x.is_nan()),
                                "column {c} past the fill, {ctx}"
                            );
                        }
                    }
                }
            }
        });
    }

    /// What a page decode streams changes no bit: both page decodes, on
    /// every leg, `M`, row length and group range, come out `to_bits`-equal
    /// with no next page, with one of fewer rows, with one whose words end
    /// inside its first row (a different group range than the decode's)
    /// and with one of more rows.
    #[test]
    fn streaming_the_next_page_changes_no_bit() {
        sweep(|cfg, dim| {
            let (g, m) = (groups_per_row(dim, cfg), cfg.mantissa_bits() as usize);
            let ((this, _), (other, _)) = (page(dim, cfg, 17), page(dim, cfg, 20));
            let (signs, exps, planes) = (&this.0, &this.1, &this.2);
            let rows_of = |rows: usize, groups: usize| Words {
                signs: &other.0[..rows * g + groups],
                exps: &other.1[..rows * g + groups],
                planes: &other.2[..(rows * g + groups) * m],
            };
            let nexts = [
                None,
                Some(rows_of(3, 0)),
                Some(rows_of(0, g / 2)),
                Some(rows_of(20, 0)),
            ];
            for leg in available_legs() {
                for groups in group_ranges(g) {
                    let n_cols = (groups.end * LANES).min(dim) - groups.start * LANES;
                    let decode = |next: Option<Words>| {
                        let mut tile = vec![f32::NAN; 17 * dim];
                        let gr = groups.clone();
                        decode_rows_into_with_leg(
                            leg, cfg, signs, exps, planes, gr, dim, &mut tile, next,
                        );
                        let mut keys = vec![f32::NAN; n_cols * 32];
                        let (gr, ld) = (groups.clone(), 32);
                        decode_rows_transposed_into_with_leg(
                            leg, cfg, signs, exps, planes, gr, dim, 17, &mut keys, ld, next,
                        );
                        (bits(&tile), bits(&keys))
                    };
                    let alone = decode(None);
                    for next in nexts {
                        let streams = next.map(|n| n.planes.len());
                        let ctx = format!("leg={} {groups:?} {cfg:?} next {streams:?}", leg.name());
                        assert!(decode(next) == alone, "{ctx}");
                    }
                }
            }
        });
    }
}
