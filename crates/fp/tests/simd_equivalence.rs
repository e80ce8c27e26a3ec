//! Property-based scalar↔SIMD equivalence for the batch conversion
//! kernels: on every dispatch leg available on this host, every batch
//! kernel must produce `to_bits`-identical output to its scalar twin —
//! the oracle contract behind the runtime dispatch layer.
//!
//! Lengths are drawn adversarially (empty, sub-lane, lane-exact,
//! lane+1, long) so the vector bodies and their scalar tails are both
//! exercised, and values include the hard cases: NaN, infinities,
//! subnormals, signed zero, and the FP16 saturation boundary.

use anda_fp::batch::{
    narrow_scalar, narrow_with_leg, saturate_f16_widen_in_place_scalar,
    saturate_f16_widen_in_place_with_leg, saturate_f16_widen_scalar,
    saturate_f16_widen_slice_with_leg, widen_scalar, widen_with_leg,
};
use anda_fp::{available_legs, F16};
use proptest::prelude::*;

/// `widen` on every leg against its scalar oracle over every binary16
/// pattern it takes (all but the NaNs, which `narrow` never writes), each
/// run starting at a different lane of a vector.
#[test]
fn widen_matches_scalar_on_every_non_nan_pattern_and_leg() {
    let patterns: Vec<u16> = (0..=u16::MAX)
        .filter(|&h| !F16::from_bits(h).to_f32().is_nan())
        .collect();
    for leg in available_legs() {
        for start in 0..8 {
            let src = &patterns[start..];
            let (mut want, mut got) = (vec![0.0f32; src.len()], vec![1.0f32; src.len()]);
            widen_scalar(src, &mut want);
            widen_with_leg(leg, src, &mut got);
            for ((x, y), h) in want.iter().zip(&got).zip(src) {
                assert_eq!(x.to_bits(), y.to_bits(), "leg={} h={h:#06x}", leg.name());
            }
        }
    }
}

/// Strategy: arbitrary f32 bit patterns (covers NaN payloads, infs,
/// subnormals and signed zero). The full length range 0..=67 crosses
/// every 4/8-lane boundary many times per run, so the vector bodies and
/// their scalar tails are both exercised.
fn any_bits_vec() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..=67)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The saturating FP16 round-trip (the KV `Fp16` policy's append
    /// kernel) matches its scalar twin on every leg — into a second
    /// buffer and in place (the activation rounding between GEMMs).
    #[test]
    fn saturate_f16_widen_matches_scalar_on_all_legs(bits in any_bits_vec()) {
        let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut oracle = vec![0.0f32; src.len()];
        saturate_f16_widen_scalar(&src, &mut oracle);
        let mut oracle_in_place = src.clone();
        saturate_f16_widen_in_place_scalar(&mut oracle_in_place);
        for leg in available_legs() {
            let mut got = vec![1.0f32; src.len()];
            saturate_f16_widen_slice_with_leg(leg, &src, &mut got);
            let mut got_in_place = src.clone();
            saturate_f16_widen_in_place_with_leg(leg, &mut got_in_place);
            for (i, want) in oracle.iter().enumerate() {
                prop_assert_eq!(got[i].to_bits(), want.to_bits(),
                    "leg={} i={i} src={:#010x}", leg.name(), bits[i]);
                prop_assert_eq!(got_in_place[i].to_bits(), want.to_bits(),
                    "in place: leg={} i={i} src={:#010x}", leg.name(), bits[i]);
                prop_assert_eq!(oracle_in_place[i].to_bits(), want.to_bits());
            }
        }
    }

    /// `narrow` (the FP16 page's append kernel) matches its scalar twin
    /// on every leg, and never writes a NaN pattern.
    #[test]
    fn narrow_matches_scalar_on_all_legs(bits in any_bits_vec()) {
        let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut oracle = vec![0u16; src.len()];
        narrow_scalar(&src, &mut oracle);
        for (i, &h) in oracle.iter().enumerate() {
            prop_assert!(!F16::from_bits(h).to_f32().is_nan(), "src={:#010x}", bits[i]);
        }
        for leg in available_legs() {
            let mut got = vec![1u16; src.len()];
            narrow_with_leg(leg, &src, &mut got);
            prop_assert_eq!(&got, &oracle, "leg={}", leg.name());
        }
    }
}
