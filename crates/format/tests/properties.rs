//! Property-based tests for the Anda format: the invariants that make the
//! hardware schedule correct, and the identities that make it *one* format
//! — every encoder (owning, flat on every SIMD leg, the BPC model) and the
//! streaming activation quantiser agree bit for bit.

use anda_format::align::{align_group, fake_quantize_in_place, truncation_error_bound};
use anda_format::dot::{dot_group_bit_serial, dot_group_reference};
use anda_format::rowcodec::{
    decode_row_into_with_leg, encode_row_into_with_leg, groups_per_row, plane_words_per_row,
};
use anda_format::{AndaConfig, AndaTensor, BitPlaneCompressor, BitPlaneGroup};
use anda_fp::{available_legs, saturate_to_f16, F16};
use proptest::prelude::*;

/// Strategy: a vector of finite f32 values inside the FP16 range.
fn finite_vals(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-6.0e4f32..6.0e4, 1..=max_len)
}

fn to_f16(vals: &[f32]) -> Vec<F16> {
    vals.iter().map(|&v| F16::from_f32(v)).collect()
}

/// One adversarial element: half the selectors pick a special (NaN, ±inf,
/// the ±65504 saturation edge, signed zeros, FP16 subnormals and the
/// normal/subnormal boundary, values past the FP16 range), the rest scale
/// `v` down by a random power of two so one group spans the whole FP16
/// exponent range.
fn adversarial(sel: u32, v: f32) -> f32 {
    match sel % 24 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 65504.0,
        4 => -65504.0,
        5 => 0.0,
        6 => -0.0,
        7 => 6.0e-8,                                       // smallest FP16 subnormal
        8 => -5.0e-5,                                      // just under the smallest FP16 normal
        9 => 6.2e-5,                                       // just above it
        10 => 1.0e30,                                      // saturates
        11 => f32::from_bits(sel | 1) * f32::MIN_POSITIVE, // f32-tiny: rounds to ±0
        _ => v * 0.5f32.powi(((sel >> 8) % 30) as i32),
    }
}

/// Strategy: a row of adversarial values plus a seed that may blank one
/// whole group to zeros.
fn adversarial_row(
    len: impl Into<prop::collection::SizeRange>,
) -> impl Strategy<Value = (Vec<f32>, u64)> {
    let element = (any::<u32>(), -70000.0f32..70000.0).prop_map(|(sel, v)| adversarial(sel, v));
    (prop::collection::vec(element, len), any::<u64>())
}

/// Zeroes one whole group of `row` (chosen by `seed`) three times in four.
fn blank_a_group(row: &mut [f32], group_size: usize, seed: u64) {
    if !seed.is_multiple_of(4) {
        let groups = row.len().div_ceil(group_size);
        let g = (seed / 4) as usize % groups;
        let end = ((g + 1) * group_size).min(row.len());
        row[g * group_size..end].fill(0.0);
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Every element's round-trip error is bounded by one group ULP.
    #[test]
    fn bfp_error_bounded_by_ulp(vals in finite_vals(64), m in 1u32..=16) {
        let f16s = to_f16(&vals);
        let g = align_group(&f16s, m).unwrap();
        let bound = truncation_error_bound(g.shared_exp, m);
        for (i, h) in f16s.iter().enumerate() {
            let err = (g.dequantize(i) - h.to_f32()).abs();
            prop_assert!(err <= bound, "i={i} err={err} bound={bound}");
        }
    }

    /// Truncation shrinks magnitudes (round-toward-zero on magnitudes).
    #[test]
    fn truncation_never_grows_magnitude(vals in finite_vals(64), m in 1u32..=16) {
        let f16s = to_f16(&vals);
        let g = align_group(&f16s, m).unwrap();
        for (i, h) in f16s.iter().enumerate() {
            prop_assert!(g.dequantize(i).abs() <= h.to_f32().abs());
            // Sign is preserved (or the value became zero).
            let d = g.dequantize(i);
            prop_assert!(d == 0.0 || d.is_sign_negative() == h.is_sign_negative());
        }
    }

    /// M = 16 with a single-element group is lossless (no alignment shift,
    /// 16 ≥ 11 significand bits).
    #[test]
    fn single_element_wide_mantissa_lossless(v in -6.0e4f32..6.0e4) {
        let h = F16::from_f32(v);
        let g = align_group(&[h], 16).unwrap();
        prop_assert_eq!(g.dequantize(0), h.to_f32());
    }

    /// Bit-plane transposition is a lossless permutation of storage.
    #[test]
    fn bitplane_round_trip(vals in finite_vals(64), m in 1u32..=16) {
        let f16s = to_f16(&vals);
        let g = align_group(&f16s, m).unwrap();
        let bp = BitPlaneGroup::from_aligned(&g);
        prop_assert_eq!(bp.to_aligned(), g);
    }

    /// The bit-serial APU schedule computes exactly the reference integer
    /// dot product, for every mantissa length and weight pattern.
    #[test]
    fn bit_serial_dot_equals_reference(
        vals in finite_vals(64),
        m in 1u32..=16,
        wseed in any::<u64>(),
    ) {
        let f16s = to_f16(&vals);
        let g = align_group(&f16s, m).unwrap();
        let bp = BitPlaneGroup::from_aligned(&g);
        // INT4 weights derived deterministically from the seed.
        let weights: Vec<i8> = (0..vals.len())
            .map(|i| {
                let h = wseed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                ((h >> 33) % 16) as i8 - 8
            })
            .collect();
        let (serial, trace) = dot_group_bit_serial(&bp, &weights);
        prop_assert_eq!(serial, dot_group_reference(&g, &weights));
        prop_assert_eq!(trace.cycles, u64::from(m) + 1);
    }

    /// The cycle-by-cycle BPC serial aligner produces exactly the same
    /// bit-plane groups as the direct conversion path.
    #[test]
    fn compressor_equals_direct_conversion(vals in finite_vals(256), m in 1u32..=16) {
        let cfg = AndaConfig::hardware(m).unwrap();
        let (via_bpc, report) = BitPlaneCompressor::new(cfg).compress_f32(&vals);
        let direct = AndaTensor::from_f32(&vals, cfg);
        prop_assert_eq!(&via_bpc, &direct);
        prop_assert_eq!(report.groups, vals.len().div_ceil(64));
    }

    /// The activation codec and the KV page codec are one format: for every
    /// mantissa length and widths around every vector step, the streaming
    /// quantiser at 64 lanes is `to_bits`-equal to the flat row codec's
    /// encode → decode on every available leg, and to the owning
    /// `align_group` per group. (The oracle a SIMD activation codec is held
    /// to.)
    #[test]
    fn streaming_quantiser_row_codec_and_align_group_are_one_format(input in adversarial_row(256)) {
        let (mut full, seed) = input;
        blank_a_group(&mut full, 64, seed);
        for m in 1..=16u32 {
            let cfg = AndaConfig::hardware(m).unwrap();
            for width in [1usize, 7, 8, 9, 63, 64, 65, 130, 256] {
                let row = &full[..width];
                let mut streamed = row.to_vec();
                fake_quantize_in_place(&mut streamed, 64, m);

                let f16s: Vec<F16> = row.iter().map(|&v| saturate_to_f16(v)).collect();
                let owned: Vec<f32> = f16s
                    .chunks(64)
                    .flat_map(|chunk| align_group(chunk, m).unwrap().dequantize_all())
                    .collect();
                prop_assert_eq!(bits(&streamed), bits(&owned), "align_group m={m} width={width}");

                let (g, pw) = (groups_per_row(width, cfg), plane_words_per_row(width, cfg));
                for leg in available_legs() {
                    let (mut signs, mut exps, mut planes) =
                        (vec![!0u64; g], vec![!0u16; g], vec![!0u64; pw]);
                    encode_row_into_with_leg(leg, row, cfg, &mut signs, &mut exps, &mut planes);
                    let mut decoded = vec![1.0f32; width];
                    decode_row_into_with_leg(leg, cfg, &signs, &exps, &planes, &mut decoded);
                    prop_assert_eq!(
                        bits(&streamed), bits(&decoded),
                        "leg={} m={m} width={width}", leg.name()
                    );
                }
            }
        }
    }

    /// Every encoder of the format agrees for every constructible config:
    /// the BPC's serial aligner, the owning tensor and the flat row codec
    /// on every available leg produce the same signs, exponents and
    /// planes — over every group size and mantissa length, on adversarial
    /// inputs (NaN, ±inf, subnormals, ±65504, all-zero groups, ragged
    /// tails).
    #[test]
    fn every_encoder_produces_the_same_signs_exponents_and_planes(
        input in adversarial_row(1..=200),
        m in 1u32..=16,
        gs in 1usize..=64,
    ) {
        let (mut vals, seed) = input;
        blank_a_group(&mut vals, gs, seed);
        let cfg = AndaConfig::new(gs, m).unwrap();
        let direct = AndaTensor::from_f32(&vals, cfg);
        let (via_bpc, _) = BitPlaneCompressor::new(cfg).compress_f32(&vals);
        prop_assert_eq!(&via_bpc, &direct, "BPC vs owning tensor, gs={gs} m={m}");

        let (g, pw) = (groups_per_row(vals.len(), cfg), plane_words_per_row(vals.len(), cfg));
        prop_assert_eq!(direct.groups().len(), g);
        for leg in available_legs() {
            let (mut signs, mut exps, mut planes) =
                (vec![!0u64; g], vec![!0u16; g], vec![!0u64; pw]);
            encode_row_into_with_leg(leg, &vals, cfg, &mut signs, &mut exps, &mut planes);
            for (gi, group) in direct.groups().iter().enumerate() {
                let ctx = format!("leg={} gs={gs} m={m} group {gi}", leg.name());
                prop_assert_eq!(signs[gi], group.signs(), "signs {ctx}");
                prop_assert_eq!(exps[gi], group.shared_exp(), "exponent {ctx}");
                let words = &planes[gi * m as usize..(gi + 1) * m as usize];
                prop_assert_eq!(words, group.planes(), "planes {ctx}");
            }
        }
    }

    /// The owning tensor and the streaming quantiser agree numerically at
    /// identical (group size, mantissa) parameters: Anda is grouped
    /// shared-exponent quantisation plus a layout.
    #[test]
    fn anda_matches_bfp(
        vals in finite_vals(200),
        m in 1u32..=16,
        gs in 1usize..=64,
    ) {
        let anda = AndaTensor::from_f32(&vals, AndaConfig::new(gs, m).unwrap());
        let mut streamed = vals.clone();
        fake_quantize_in_place(&mut streamed, gs, m);
        prop_assert_eq!(anda.to_f32(), streamed);
    }

    /// Quantizing an already-quantized tensor is idempotent.
    #[test]
    fn requantization_is_idempotent(vals in finite_vals(128), m in 1u32..=11) {
        let cfg = AndaConfig::hardware(m).unwrap();
        let once = AndaTensor::from_f32(&vals, cfg).to_f32();
        let twice = AndaTensor::from_f32(&once, cfg).to_f32();
        prop_assert_eq!(once, twice);
    }

    /// Storage accounting: bits/element is exactly M + 1 + 5/64 for full
    /// 64-lane groups.
    #[test]
    fn storage_bits_formula(m in 1u32..=16, n_groups in 1usize..=8) {
        let vals = vec![1.0f32; 64 * n_groups];
        let t = AndaTensor::from_f32(&vals, AndaConfig::hardware(m).unwrap());
        let expect = (64 + 5 + 64 * m as usize) * n_groups;
        prop_assert_eq!(t.storage_bits(), expect);
    }
}
