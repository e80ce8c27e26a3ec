//! `expf`, owned: the optimized-routines single-precision exponential
//! (the algorithm glibc 2.28+ runs), ported so its bits are this crate's
//! and not the host libm's, with one body per SIMD leg.
//!
//! [`expf`] is the port and the oracle. It splits `x·32/ln 2` into an
//! integer `k` and a remainder `r`, takes `2^(k/32)` from a 32-entry
//! table of `f64` bit patterns, and `2^(r/32)` from a degree-3 polynomial,
//! all in `f64`; each of its five multiply-adds is one fused, single-rounding
//! `f64::mul_add`. That is the contracted build of the C source, the one
//! x86-64 glibc (2.28+) selects on a CPU with FMA, and there it equals
//! `f32::exp` `to_bits` on all 2³² inputs (the ignored `exhaustive_scan`
//! test checks it). The unfused build, glibc's choice without FMA,
//! differs at two inputs (`32.564632` and `−63.09946`).
//!
//! [`exp_in_place_with_leg`] runs it over a slice. The AVX2 leg (AVX2 +
//! FMA) computes four `f64` lanes per `ymm` and gathers the table; the
//! AVX-512 leg computes eight per `zmm` and holds the table in four
//! registers (two `vpermt2q` and a blend on bit 4 of the index), which
//! runs the chunk scene's softmax 1.3× as fast as the AVX2 body on the
//! same CPU (`kernels step`, 15 alternating runs). The
//! scalar and NEON legs call [`expf`]. On aarch64 its `mul_add` is an
//! `fmadd`; on x86-64, built for the baseline target, it is a libm `fma`
//! call, so the scalar leg is slow there (about 20 ns per `exp`), and
//! only its bits are promised.

use crate::simd::{LegKind, SimdLeg};

/// `32 / ln 2`: `x · INV_LN2_N = k + r` with `k` an integer.
const INV_LN2_N: f64 = f64::from_bits(0x3FF7_1547_652B_82FE) * 32.0;
/// `1.5 · 2^52`: added to `x · INV_LN2_N`, rounds it to the integer `k`,
/// which the sum's low bits hold.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The polynomial `2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1`.
const C0: f64 = f64::from_bits(0x3FAC_6AF8_4B91_2394) / 32768.0;
const C1: f64 = f64::from_bits(0x3FCE_BFCE_50FA_C4F3) / 1024.0;
const C2: f64 = f64::from_bits(0x3FE6_2E42_FF0C_52D6) / 32.0;
/// `T[i] = (2^(i/32)).to_bits() − (i << 47)`, so `T[k % 32] + (k << 47)`
/// is the bit pattern of `2^(k/32)`.
#[rustfmt::skip]
const T: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `exp(x)` is `+inf` above this (`≈ 88.72`, `ln(2^128)`).
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `exp(x)` rounds to `+0` below this (`≈ −103.97`, `ln(2^−150)`).
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// `e^x`, `to_bits`-equal to x86-64 glibc's `expf` on an FMA CPU on every
/// input (NaN payloads included): the oracle of every leg of
/// [`exp_in_place_with_leg`].
pub fn expf(x: f32) -> f32 {
    let bits = x.to_bits();
    // |x| >= 88, ±inf or NaN: the specials, or the main path's edges.
    if (bits >> 20) & 0x7ff >= 0x42b {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if (bits >> 20) & 0x7ff >= 0x7f8 {
            return x + x;
        }
        if x > OVERFLOW {
            return f32::INFINITY;
        }
        if x < UNDERFLOW {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let r = INV_LN2_N.mul_add(xd, -(kd - SHIFT));
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C0.mul_add(r, C1).mul_add(r * r, C2.mul_add(r, 1.0));
    (y * s) as f32
}

/// `x = expf(x)` for every element, on `leg`: `to_bits`-equal to
/// [`expf`] on every leg.
pub fn exp_in_place_with_leg(leg: SimdLeg, xs: &mut [f32]) {
    match leg.kind() {
        LegKind::Scalar | LegKind::Neon => xs.iter_mut().for_each(|x| *x = expf(*x)),
        // SAFETY: the CPU runs `leg` (a `SimdLeg` is that proof), so AVX2
        // and FMA.
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx2 => unsafe { x86::exp_avx2(xs) },
        // SAFETY: as above: AVX-512 F, and the AVX2 leg's features.
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx512 => unsafe { x86::exp_avx512(xs) },
        #[allow(unreachable_patterns)]
        other => unreachable!("no host runs SIMD leg {}", other.name()),
    }
}

/// The x86-64 bodies. Each computes the main path on every lane; when a
/// lane is one [`expf`] checks for specials (`|x| >= 88` or NaN), it then
/// overwrites the lanes [`expf`] answers early: `x > OVERFLOW` (`+inf`
/// included) with `+inf`, `x < UNDERFLOW` (`−inf` included) with `+0`
/// and NaN with `x + x`. Every other input takes the main path in
/// [`expf`] too.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// [`expf`]'s main path on four lanes, before the narrowing to `f32`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn scaled_poly_x4(xd: __m256d) -> __m256d {
        let kd = _mm256_fmadd_pd(_mm256_set1_pd(INV_LN2_N), xd, _mm256_set1_pd(SHIFT));
        let ki = _mm256_castpd_si256(kd);
        let kd_int = _mm256_sub_pd(kd, _mm256_set1_pd(SHIFT));
        let r = _mm256_fmsub_pd(_mm256_set1_pd(INV_LN2_N), xd, kd_int);
        // Every index is below 32, so the gather reads inside `T`.
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), index);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
        let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y);
        _mm256_mul_pd(y, s)
    }

    /// [`expf`] on eight lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_x8(x: __m256) -> __m256 {
        let lo = scaled_poly_x4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = scaled_poly_x4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        let y = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
        let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x);
        if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NLT_UQ>(abs, _mm256_set1_ps(88.0))) == 0 {
            return y;
        }
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(OVERFLOW));
        let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
        let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(UNDERFLOW));
        let y = _mm256_andnot_ps(under, y);
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan)
    }

    /// # Safety
    ///
    /// Requires AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_avx2(xs: &mut [f32]) {
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            let y = exp_x8(_mm256_loadu_ps(c.as_ptr()));
            _mm256_storeu_ps(c.as_mut_ptr(), y);
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut lanes = [0f32; 8];
            lanes[..rest.len()].copy_from_slice(rest);
            _mm256_storeu_ps(lanes.as_mut_ptr(), exp_x8(_mm256_loadu_ps(lanes.as_ptr())));
            rest.copy_from_slice(&lanes[..rest.len()]);
        }
    }

    /// The table, a quarter per register.
    type Table = [__m512i; 4];

    /// [`expf`]'s main path on eight lanes, before the narrowing to
    /// `f32`: `vpermt2q` picks `T[k % 16]` and `T[16 + k % 16]`, bit 4 of
    /// `k` the one of the two.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and FMA.
    #[inline]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn scaled_poly_x8(xd: __m512d, table: &Table) -> __m512d {
        let kd = _mm512_fmadd_pd(_mm512_set1_pd(INV_LN2_N), xd, _mm512_set1_pd(SHIFT));
        let ki = _mm512_castpd_si512(kd);
        let kd_int = _mm512_sub_pd(kd, _mm512_set1_pd(SHIFT));
        let r = _mm512_fmsub_pd(_mm512_set1_pd(INV_LN2_N), xd, kd_int);
        let low = _mm512_permutex2var_epi64(table[0], ki, table[1]);
        let high = _mm512_permutex2var_epi64(table[2], ki, table[3]);
        let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
        let t = _mm512_mask_blend_epi64(upper, low, high);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        let z = _mm512_fmadd_pd(_mm512_set1_pd(C0), r, _mm512_set1_pd(C1));
        let y = _mm512_fmadd_pd(_mm512_set1_pd(C2), r, _mm512_set1_pd(1.0));
        let y = _mm512_fmadd_pd(z, _mm512_mul_pd(r, r), y);
        _mm512_mul_pd(y, s)
    }

    /// [`expf`] on sixteen lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and FMA.
    #[inline]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn exp_x16(x: __m512, table: &Table) -> __m512 {
        let halves = _mm512_castps_pd(x);
        let lo = _mm256_castpd_ps(_mm512_castpd512_pd256(halves));
        let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(halves));
        let lo = _mm512_cvtpd_ps(scaled_poly_x8(_mm512_cvtps_pd(lo), table));
        let hi = _mm512_cvtpd_ps(scaled_poly_x8(_mm512_cvtps_pd(hi), table));
        let y = _mm512_insertf64x4::<1>(
            _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
            _mm256_castps_pd(hi),
        );
        let y = _mm512_castpd_ps(y);
        if _mm512_cmp_ps_mask::<_CMP_NLT_UQ>(_mm512_abs_ps(x), _mm512_set1_ps(88.0)) == 0 {
            return y;
        }
        let over = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_set1_ps(OVERFLOW));
        let y = _mm512_mask_mov_ps(y, over, _mm512_set1_ps(f32::INFINITY));
        let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(UNDERFLOW));
        let y = _mm512_mask_mov_ps(y, under, _mm512_setzero_ps());
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
        _mm512_mask_add_ps(y, nan, x, x)
    }

    /// # Safety
    ///
    /// Requires AVX-512 F and FMA.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) unsafe fn exp_avx512(xs: &mut [f32]) {
        // Each load reads `T[i..i + 8]`.
        let table = [0, 8, 16, 24].map(|i| _mm512_loadu_si512(T[i..].as_ptr().cast()));
        for c in xs.chunks_mut(16) {
            // The mask reads and writes `c.len()` lanes, all inside `c`.
            let keep = u16::MAX >> (16 - c.len());
            let y = exp_x16(_mm512_maskz_loadu_ps(keep, c.as_ptr()), &table);
            _mm512_mask_storeu_ps(c.as_mut_ptr(), keep, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::available_legs;

    /// The inputs where the port's edges are: ±0, ±inf, NaNs with
    /// payloads, ±1 ulp around the two thresholds and 88.0 (where the
    /// early branch starts), the band whose results are subnormal, and the
    /// two inputs an unfused port gets wrong.
    fn edges() -> Vec<f32> {
        let mut edges = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            32.564632,
            -63.09946,
        ];
        for nan in [
            0x7fc0_0000,
            0x7fc0_0001,
            0x7f80_0001,
            0x7fbf_ffff,
            0x7fff_ffff,
        ] {
            edges.extend([f32::from_bits(nan), -f32::from_bits(nan)]);
        }
        for edge in [OVERFLOW, UNDERFLOW, 88.0, -88.0] {
            edges.extend([edge.next_down(), edge, edge.next_up()]);
        }
        // exp(x) is subnormal for x in (−103.97, −87.34).
        let mut x = -87.4f32;
        while x > -104.0 {
            edges.push(x);
            x -= 0.01;
        }
        edges
    }

    /// `leg` against [`expf`] on `inputs`, at every offset of a vector
    /// and slice lengths 0..=17 from each, then on the whole slice.
    fn assert_leg_matches(leg: SimdLeg, inputs: &[f32]) {
        let check = |xs: &[f32]| {
            let mut got = xs.to_vec();
            exp_in_place_with_leg(leg, &mut got);
            for (&x, y) in xs.iter().zip(got) {
                let want = expf(x).to_bits();
                assert_eq!(y.to_bits(), want, "{} at {:#010x}", leg.name(), x.to_bits());
            }
        };
        for start in 0..16.min(inputs.len()) {
            for len in 0..=17.min(inputs.len() - start) {
                check(&inputs[start..start + len]);
            }
            check(&inputs[start..]);
        }
    }

    #[test]
    fn every_leg_of_expf_matches_the_port() {
        let mut inputs = edges();
        inputs.extend((0..1u32 << 20).map(|i| f32::from_bits(i << 12)));
        for leg in available_legs() {
            assert_leg_matches(leg, &edges());
            // Every 4096th bit pattern, in vector-sized pieces at an odd
            // offset.
            for piece in inputs[5..].chunks(4099) {
                let mut got = piece.to_vec();
                exp_in_place_with_leg(leg, &mut got);
                for (&x, y) in piece.iter().zip(got) {
                    let want = expf(x).to_bits();
                    assert_eq!(y.to_bits(), want, "{} at {:#010x}", leg.name(), x.to_bits());
                }
            }
        }
    }

    #[test]
    fn the_port_answers_the_specials_as_the_c_source_does() {
        assert_eq!(expf(0.0).to_bits(), 1f32.to_bits());
        assert_eq!(expf(-0.0).to_bits(), 1f32.to_bits());
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert_eq!(expf(OVERFLOW.next_up()), f32::INFINITY);
        assert!(expf(OVERFLOW).is_finite());
        assert_eq!(expf(UNDERFLOW.next_down()).to_bits(), 0);
        assert!(expf(UNDERFLOW) > 0.0);
        // A signalling NaN comes back quiet, payload and sign kept.
        assert_eq!(expf(f32::from_bits(0xff80_0001)).to_bits(), 0xffc0_0001);
        assert_eq!(expf(1.0), std::f32::consts::E);
    }

    /// Block `b` of the 2³² bit patterns, `BLOCK` of them: every leg
    /// against the port (asserted); returns how many inputs the host's
    /// `f32::exp` answers differently from the port.
    fn scan_block(legs: &[SimdLeg], b: u64) -> usize {
        let xs: Vec<f32> = (b * BLOCK..(b + 1) * BLOCK)
            .map(|i| f32::from_bits(i as u32))
            .collect();
        let want: Vec<f32> = xs.iter().map(|&x| expf(x)).collect();
        for &leg in legs {
            let mut got = xs.clone();
            exp_in_place_with_leg(leg, &mut got);
            for ((x, w), g) in xs.iter().zip(&want).zip(got) {
                let x = x.to_bits();
                assert_eq!(g.to_bits(), w.to_bits(), "{} at {x:#010x}", leg.name());
            }
        }
        let libm = xs.iter().map(|x| x.exp().to_bits());
        libm.zip(&want).filter(|&(l, w)| l != w.to_bits()).count()
    }

    /// Bit patterns per block of [`exhaustive_scan`].
    const BLOCK: u64 = 1 << 16;

    /// All 2³² inputs: every leg against the port, and (on x86-64 glibc
    /// with FMA, see [`libm_is_the_port`]) the port against the host's
    /// `f32::exp`. Takes minutes; CI runs it in release (`cargo test
    /// --release -p anda-fp -- --ignored`). Elsewhere it prints how many
    /// inputs the host libm answers differently.
    #[test]
    #[ignore]
    fn exhaustive_scan() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        let (legs, blocks) = (available_legs(), (1u64 << 32) / BLOCK);
        let libm_differs: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let legs = &legs;
                    scope.spawn(move || {
                        let mine = (t..blocks).step_by(threads as usize);
                        mine.map(|b| scan_block(legs, b)).sum::<usize>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a scan thread panicked"))
                .sum()
        });
        println!("inputs where the host libm's expf differs from the port: {libm_differs} of 2^32");
        if libm_is_the_port() {
            assert_eq!(libm_differs, 0);
        }
    }

    /// Whether the host's `f32::exp` is the port's build: glibc's x86-64
    /// `expf` runs its fused build only where the CPU has FMA.
    fn libm_is_the_port() -> bool {
        #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
        return std::arch::is_x86_feature_detected!("fma");
        #[allow(unreachable_code)]
        false
    }
}
