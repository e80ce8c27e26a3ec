//! The bit-plane lane primitives of an Anda group decode, shared by the
//! row codec (`anda-format`'s `rowcodec`, which writes decoded rows) and
//! the register tile (`anda-tensor`'s `tile.rs`, which multiplies a KV
//! page's words where they lie): one body for the per-lane rule, one for
//! each AVX-512 step.
//!
//! A group is [`LANES`] lanes of one row: a sign word (bit `i` lane `i`'s
//! sign), a shared exponent `e` and `M` mantissa-plane words, MSB first
//! (bit `i` of plane `b` is bit `M − 1 − b` of lane `i`'s magnitude).
//! Lane `i` is `±mag · 2^(e − 14 − M)` ([`group_ulp`]), negated by a set
//! sign bit — so a zero magnitude under one is `−0.0`.
//!
//! At `M <= 8` a magnitude is a byte, and the plane-to-lane transpose is an
//! 8 × 8 bit-matrix transpose per lane byte, which GFNI does in one
//! instruction ([`avx512`]): a masked load of the `M` plane words, one
//! `vpermb` that gathers byte `j` of every plane into qword `j`, and one
//! `vgf2p8affineqb` against the unit bytes leave the 64 magnitude bytes in
//! lane order. A magnitude byte written into the mantissa of `2^23` and one
//! fused multiply-subtract, `(2^23 + mag) · ulp − 2^23 · ulp`, is the exact
//! `mag · ulp`; a masked sign-bit XOR finishes the lane.

use crate::f16::exp2i;

/// Lanes of one group.
pub const LANES: usize = 64;

/// The weight of a group's magnitude LSB at exponent `exp` and `m`
/// mantissa planes: `2^(exp − 14 − m)`, a normal `f32` for every exponent
/// a group holds (0..=31) and `m` in 1..=16.
#[inline(always)]
pub fn group_ulp(exp: u16, m: usize) -> f32 {
    exp2i(i32::from(exp) - 14 - m as i32)
}

/// Lane `i` of a group, the scalar rule every vector body equals bit for
/// bit: the lane's magnitude gathered from the MSB-first `planes`, times
/// `ulp`, negated when bit `i` of `sign_word` is set.
#[inline(always)]
pub fn lane(sign_word: u64, ulp: f32, planes: &[u64], i: usize) -> f32 {
    let m = planes.len();
    let mut mag = 0u16;
    for (b, plane) in planes.iter().enumerate() {
        mag |= (((plane >> i) & 1) as u16) << (m - 1 - b);
    }
    let v = f32::from(mag) * ulp;
    if (sign_word >> i) & 1 == 1 {
        -v
    } else {
        v
    }
}

/// Bytes of one position-minor block (`avx512::write_block`): sixteen
/// positions' magnitude bytes for every column (1 KiB, column after
/// column), one 16-bit sign mask per column, the positions' sixteen ULPs
/// and those times `2^23`.
pub const BLOCK_BYTES: usize = LANES * 16 + LANES * 2 + 2 * 16 * 4;

/// The in-lane 16 × 16 byte transpose of the position-minor decodes:
/// `$x[p]` holds position `p`'s magnitude bytes, one per column, and
/// afterwards `$x[c]` holds in its 128-bit lane `L` the bytes of column
/// `16·L + c`, positions 0 to 15. Four rounds of sixteen interleaves —
/// bytes, words, dwords, qwords — each halving the runs still apart;
/// the idents name the leg's low and high unpack of each width.
#[cfg(target_arch = "x86_64")]
macro_rules! transpose_lanes {
    ($x:ident, $lo8:ident, $hi8:ident, $lo16:ident, $hi16:ident,
     $lo32:ident, $hi32:ident, $lo64:ident, $hi64:ident) => {{
        let mut t = *$x;
        for i in 0..8 {
            t[i] = $lo8($x[2 * i], $x[2 * i + 1]);
            t[i + 8] = $hi8($x[2 * i], $x[2 * i + 1]);
        }
        for i in 0..4 {
            for o in [0, 8] {
                $x[o + i] = $lo16(t[o + 2 * i], t[o + 2 * i + 1]);
                $x[o + i + 4] = $hi16(t[o + 2 * i], t[o + 2 * i + 1]);
            }
        }
        for b in (0..16).step_by(4) {
            t[b] = $lo32($x[b], $x[b + 1]);
            t[b + 1] = $lo32($x[b + 2], $x[b + 3]);
            t[b + 2] = $hi32($x[b], $x[b + 1]);
            t[b + 3] = $hi32($x[b + 2], $x[b + 3]);
        }
        for b in (0..16).step_by(2) {
            $x[b] = $lo64(t[b], t[b + 1]);
            $x[b + 1] = $hi64(t[b], t[b + 1]);
        }
    }};
}

/// The AVX2 leg's byte transpose.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use core::arch::x86_64::*;

    /// The in-lane byte transpose on sixteen 256-bit vectors: afterwards `x[c]`
    /// holds in its 128-bit lane `L` the bytes of column `16·L + c`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_bytes(x: &mut [__m256i; 16]) {
        #[rustfmt::skip]
        transpose_lanes!(
            x,
            _mm256_unpacklo_epi8, _mm256_unpackhi_epi8,
            _mm256_unpacklo_epi16, _mm256_unpackhi_epi16,
            _mm256_unpacklo_epi32, _mm256_unpackhi_epi32,
            _mm256_unpacklo_epi64, _mm256_unpackhi_epi64
        );
    }
}

/// The AVX-512 (F/BW/VBMI + GFNI) bodies of the `M <= 8` group decode:
/// the GF(2) plane transpose ([`avx512::magnitudes`]), the widen of
/// sixteen lanes ([`avx512::quarter`], [`avx512::widen`]) and the
/// position-minor block of sixteen positions ([`avx512::write_block`],
/// [`avx512::block_column`]). Every function needs
/// those features — a `SimdLeg` of kind `Avx512` proves them — and is
/// inlined into callers compiled with them.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::{group_ulp, LANES};
    use core::arch::x86_64::*;

    /// `vpermb` indices per `M` (row `M − 1`): byte `b` of qword `j` of
    /// the gathered vector is byte `j` of plane `b − (8 − M)`, so the
    /// transpose puts plane 0 at magnitude bit `M − 1`; the `8 − M` low
    /// bytes read byte 63, in qword 7, which the masked load zeroed.
    const GATHER: [[u8; 64]; 8] = {
        let mut table = [[63u8; 64]; 8];
        let mut m = 1;
        while m <= 8 {
            let mut i = 0;
            while i < 64 {
                let (j, b) = (i / 8, i % 8);
                if b + m >= 8 {
                    table[m - 1][i] = (8 * (b + m - 8) + j) as u8;
                }
                i += 1;
            }
            m += 1;
        }
        table
    };

    /// `vpermb` indices that put byte `j` of word `7 − b` at byte `8j + b`:
    /// eight sign words laid out as [`sign_masks`]' GF(2) transpose wants
    /// its matrix.
    const SIGN_GATHER: [u8; 64] = {
        let mut table = [0u8; 64];
        let mut i = 0;
        while i < 64 {
            table[i] = (8 * (7 - i % 8) + i / 8) as u8;
            i += 1;
        }
        table
    };

    /// `vpermt2b` indices interleaving two vectors' bytes into 16-bit
    /// lanes, low byte from the first: lanes 0..32, then lanes 32..64.
    const ZIP: [[u8; 64]; 2] = {
        let mut table = [[0u8; 64]; 2];
        let mut i = 0;
        while i < 64 {
            table[0][i] = (i / 2 + 64 * (i % 2)) as u8;
            table[1][i] = table[0][i] + 32;
            i += 1;
        }
        table
    };

    /// `vpermb` indices that put byte `16·q + i` of a vector in the low
    /// byte of dword `i`: with [`WIDEN_BYTES`] as the write mask, lanes
    /// `16q .. 16q + 16` of a group's magnitude bytes widen into the
    /// mantissas of `2^23`.
    const WIDEN: [[u8; 64]; 4] = {
        let mut table = [[0u8; 64]; 4];
        let mut i = 0;
        while i < 256 {
            table[i / 64][i % 64] = (16 * (i / 64) + i % 64 / 4) as u8;
            i += 1;
        }
        table
    };

    /// The low byte of every dword.
    const WIDEN_BYTES: u64 = 0x1111_1111_1111_1111;

    /// `2^23`: an integer below it, written into its mantissa, reads as
    /// `2^23` plus that integer.
    const TWO_23: f32 = 8_388_608.0;

    /// Where a block keeps its sign masks, its ULPs and their biases.
    const MASKS_AT: usize = LANES * 16;
    const ULPS_AT: usize = MASKS_AT + LANES * 2;
    const BIAS_AT: usize = ULPS_AT + 16 * 4;

    /// The unit bytes `0x8040201008040201`: as the byte operand of
    /// `vgf2p8affineqb`, they make it an 8 × 8 bit-matrix transpose per
    /// qword — bit `i` of result byte `k` is bit `k` of matrix byte
    /// `7 − i`.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    unsafe fn unit() -> __m512i {
        _mm512_set1_epi64(0x8040_2010_0804_0201u64 as i64)
    }

    /// The gather indices [`magnitudes`] takes for `m` planes (1..=8).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn gather(m: usize) -> __m512i {
        _mm512_loadu_si512(GATHER[m - 1].as_ptr().cast())
    }

    /// One group's magnitudes as bytes, lane `j` in byte `j`: `words`
    /// points at its `m` (1..=8) plane words (MSB first), `gather` is
    /// [`gather`]`(m)`, and the transpose puts bit `k` of plane byte `j`'s
    /// qword in magnitude byte `8j + k`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VBMI and GFNI; `words[..m]` readable (the
    /// masked load touches nothing else).
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn magnitudes(words: *const u64, m: usize, gather: __m512i) -> __m512i {
        let planes = _mm512_maskz_loadu_epi64(u8::MAX >> (8 - m), words.cast());
        _mm512_gf2p8affine_epi64_epi8::<0>(unit(), _mm512_permutexvar_epi8(gather, planes))
    }

    /// Lanes `16q .. 16q + 16` of a group's [`magnitudes`] as the `f32`
    /// bits of `2^23 + mag`, one per dword.
    ///
    /// # Safety
    ///
    /// As [`magnitudes`]; `q < 4`.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn quarter(mags: __m512i, q: usize) -> __m512i {
        let magic = _mm512_set1_epi32(TWO_23.to_bits() as i32);
        let widen = _mm512_loadu_si512(WIDEN[q].as_ptr().cast());
        _mm512_mask_permutexvar_epi8(magic, WIDEN_BYTES, widen, mags)
    }

    /// Sixteen lanes from the `f32` bits of `2^23 + mag` in `x`: one fused
    /// `(2^23 + mag) · ulp − 2^23 · ulp`, the exact `mag · ulp` the scalar
    /// rule's convert and multiply give (`+0.0` for a zero magnitude), then
    /// the sign bit flipped where `sign` is set — so a zero magnitude under
    /// a set sign is `−0.0`, as the scalar negation gives.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn widen(x: __m512i, ulp: __m512, sign: u16) -> __m512 {
        widen_biased(x, ulp, bias(ulp), sign)
    }

    /// `ulp · 2^23`, exactly: the bias [`widen`] subtracts.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn bias(ulp: __m512) -> __m512 {
        _mm512_mul_ps(ulp, _mm512_set1_ps(TWO_23))
    }

    /// [`widen`] with its bias, `ulp · 2^23`, at hand.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    unsafe fn widen_biased(x: __m512i, ulp: __m512, bias: __m512, sign: u16) -> __m512 {
        let v = _mm512_castps_si512(_mm512_fmsub_ps(_mm512_castsi512_ps(x), ulp, bias));
        let signed = _mm512_mask_xor_epi32(v, sign, v, _mm512_set1_epi32(i32::MIN));
        _mm512_castsi512_ps(signed)
    }

    /// Sixteen positions' sign words as one mask per lane: bit `p` of
    /// `masks[c]` is bit `c` of `words[p]`. Each half of the words is one
    /// GF(2) transpose per qword (byte `c` of the result holds the eight
    /// positions' bits of lane `c`), and the halves interleave into
    /// 16-bit lanes.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    unsafe fn sign_masks(words: &[u64; 16], masks: *mut u16) {
        let gather = _mm512_loadu_si512(SIGN_GATHER.as_ptr().cast());
        let lo = _mm512_loadu_si512(words.as_ptr().cast());
        let hi = _mm512_loadu_si512(words[8..].as_ptr().cast());
        let lo = _mm512_gf2p8affine_epi64_epi8::<0>(unit(), _mm512_permutexvar_epi8(gather, lo));
        let hi = _mm512_gf2p8affine_epi64_epi8::<0>(unit(), _mm512_permutexvar_epi8(gather, hi));
        for (half, zip) in ZIP.iter().enumerate() {
            let lanes = _mm512_permutex2var_epi8(lo, _mm512_loadu_si512(zip.as_ptr().cast()), hi);
            _mm512_storeu_si512(masks.add(32 * half).cast(), lanes);
        }
    }

    /// The in-lane byte transpose on sixteen 512-bit vectors: afterwards `x[c]`
    /// holds in its 128-bit lane `L` the bytes of column `16·L + c`.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    unsafe fn transpose_bytes(x: &mut [__m512i; 16]) {
        #[rustfmt::skip]
        transpose_lanes!(
            x,
            _mm512_unpacklo_epi8, _mm512_unpackhi_epi8,
            _mm512_unpacklo_epi16, _mm512_unpackhi_epi16,
            _mm512_unpacklo_epi32, _mm512_unpackhi_epi32,
            _mm512_unpacklo_epi64, _mm512_unpackhi_epi64
        );
    }

    /// Sixteen positions of one group, position-minor: `group(p)` is
    /// position `p`'s sign word, exponent and plane words. Each position's
    /// [`magnitudes`] are transposed in registers so that lane `L` of
    /// `mags[c]` holds column `16·L + c`'s magnitude bytes, positions 0 to
    /// 15, and the sign words become one mask per column: bit `p` of
    /// `masks[c]` is position `p`'s sign of column `c`. Returns the
    /// positions' ULPs. Positions `n..16` are zero magnitudes with clear
    /// signs. Column `c = 16·L + cc` widens as
    /// [`widen`]`(`[`quarter`]`(mags[cc], L), ulp, masks[c])`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VBMI and GFNI; `n <= 16` and each `group(p)`'s
    /// plane words readable for `m` (1..=8) words.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn columns(
        n: usize,
        m: usize,
        group: impl Fn(usize) -> (u64, u16, *const u64),
        mags: &mut [__m512i; 16],
        masks: &mut [u16; LANES],
    ) -> __m512 {
        let gather = gather(m);
        let (mut words, mut ulps) = ([0u64; 16], [0.0f32; 16]);
        for (p, mag) in mags.iter_mut().enumerate() {
            *mag = _mm512_setzero_si512();
            if p < n {
                let (sign, exp, planes) = group(p);
                *mag = magnitudes(planes, m, gather);
                (words[p], ulps[p]) = (sign, group_ulp(exp, m));
            }
        }
        sign_masks(&words, masks.as_mut_ptr());
        transpose_bytes(mags);
        _mm512_loadu_ps(ulps.as_ptr())
    }

    /// Writes the [`columns`] of `n` (`<= 16`) positions of one group to
    /// `dst` ([`BLOCK_BYTES`](super::BLOCK_BYTES)) as a position-minor
    /// block, column after column, which [`block_column`] widens a column
    /// of.
    ///
    /// # Safety
    ///
    /// As [`columns`], and `dst` writable for
    /// [`BLOCK_BYTES`](super::BLOCK_BYTES).
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn write_block(
        dst: *mut u8,
        n: usize,
        m: usize,
        group: impl Fn(usize) -> (u64, u16, *const u64),
    ) {
        let (mut mags, mut masks) = ([_mm512_setzero_si512(); 16], [0u16; LANES]);
        let ulp = columns(n, m, group, &mut mags, &mut masks);
        // `mags[c]`'s 128-bit lane `L` is column `16·L + c`: a 4 × 4
        // transpose of the lanes of each four vectors puts columns `4j ..
        // 4j + 4` in one, so that the columns lie in order.
        for a in 0..4 {
            let x = &mags[4 * a..4 * a + 4];
            let t = [
                _mm512_shuffle_i64x2::<0b01_00_01_00>(x[0], x[1]),
                _mm512_shuffle_i64x2::<0b11_10_11_10>(x[0], x[1]),
                _mm512_shuffle_i64x2::<0b01_00_01_00>(x[2], x[3]),
                _mm512_shuffle_i64x2::<0b11_10_11_10>(x[2], x[3]),
            ];
            let y = [
                _mm512_shuffle_i64x2::<0b10_00_10_00>(t[0], t[2]),
                _mm512_shuffle_i64x2::<0b11_01_11_01>(t[0], t[2]),
                _mm512_shuffle_i64x2::<0b10_00_10_00>(t[1], t[3]),
                _mm512_shuffle_i64x2::<0b11_01_11_01>(t[1], t[3]),
            ];
            for (l, y) in y.into_iter().enumerate() {
                _mm512_storeu_si512(dst.add(64 * (a + 4 * l)).cast(), y);
            }
        }
        dst.add(MASKS_AT)
            .cast::<[u16; LANES]>()
            .write_unaligned(masks);
        _mm512_storeu_ps(dst.add(ULPS_AT).cast(), ulp);
        _mm512_storeu_ps(dst.add(BIAS_AT).cast(), bias(ulp));
    }

    /// Column `c` (`< 64`) of a block [`write_block`] wrote, its sixteen
    /// positions widened.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `block` readable for [`BLOCK_BYTES`](super::BLOCK_BYTES).
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    pub unsafe fn block_column(block: *const u8, c: usize) -> __m512 {
        let bytes = _mm_loadu_si128(block.add(16 * c).cast());
        let magic = _mm512_set1_epi32(TWO_23.to_bits() as i32);
        let x = _mm512_or_si512(_mm512_cvtepu8_epi32(bytes), magic);
        let sign = block.add(MASKS_AT + 2 * c).cast::<u16>().read_unaligned();
        let ulp = _mm512_loadu_ps(block.add(ULPS_AT).cast());
        widen_biased(x, ulp, _mm512_loadu_ps(block.add(BIAS_AT).cast()), sign)
    }
}
