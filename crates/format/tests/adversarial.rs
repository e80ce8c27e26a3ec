//! Adversarial scenario tests for the format kernels: patterns chosen to
//! stress sign handling, alignment extremes, and plane packing.

use anda_format::align::align_group;
use anda_format::bitplane::BitPlaneGroup;
use anda_format::compressor::BitPlaneCompressor;
use anda_format::dot::{dot_group_bit_serial, dot_group_reference};
use anda_format::{AndaConfig, AndaTensor};
use anda_fp::F16;

fn f16s(vals: &[f32]) -> Vec<F16> {
    vals.iter().map(|&v| F16::from_f32(v)).collect()
}

fn check_dot_equivalence(vals: &[f32], weights: &[i8], m: u32) {
    let g = align_group(&f16s(vals), m).unwrap();
    let bp = BitPlaneGroup::from_aligned(&g);
    assert_eq!(
        dot_group_bit_serial(&bp, weights).0,
        dot_group_reference(&g, weights),
        "m={m}"
    );
}

#[test]
fn alternating_signs_full_group() {
    let vals: Vec<f32> = (0..64)
        .map(|i| if i % 2 == 0 { 1.5 } else { -1.5 })
        .collect();
    let weights: Vec<i8> = (0..64).map(|i| if i % 3 == 0 { -8 } else { 7 }).collect();
    for m in [1, 2, 11, 16] {
        check_dot_equivalence(&vals, &weights, m);
    }
}

#[test]
fn maximum_exponent_spread() {
    // Largest normal next to smallest subnormal: 29-step exponent gap.
    let mut vals = vec![2.0f32.powi(-24); 64];
    vals[0] = 65504.0;
    let weights = vec![7i8; 64];
    for m in [1, 8, 16] {
        check_dot_equivalence(&vals, &weights, m);
    }
    // Dequantization: everything but the outlier collapses to zero even at
    // the widest mantissa (gap exceeds 16 bits).
    let t = AndaTensor::from_f32(&vals, AndaConfig::hardware(16).unwrap());
    let deq = t.to_f32();
    assert_eq!(deq[0], 65504.0);
    assert!(deq[1..].iter().all(|&x| x == 0.0));
}

#[test]
fn all_ones_mantissa_patterns() {
    // Significand 0b11111111111 at every lane: every plane fully populated.
    let v = F16::from_bits(0x3BFF).to_f32(); // sig = 2047
    let vals = vec![v; 64];
    let t = AndaTensor::from_f32(&vals, AndaConfig::hardware(11).unwrap());
    let g = &t.groups()[0];
    for plane in g.planes() {
        assert_eq!(*plane, u64::MAX);
    }
    let weights: Vec<i8> = (0..64).map(|i| (i % 16) as i8 - 8).collect();
    check_dot_equivalence(&vals, &weights, 11);
}

#[test]
fn negative_zero_inputs() {
    let vals = vec![-0.0f32, 0.0, -0.0, 1.0];
    let g = align_group(&f16s(&vals), 8).unwrap();
    assert_eq!(g.dequantize(0), 0.0);
    assert_eq!(g.dequantize(1), 0.0);
    // Sign-magnitude zero contributes nothing to dots regardless of sign bit.
    let bp = BitPlaneGroup::from_aligned(&g);
    let (dot, _) = dot_group_bit_serial(&bp, &[5, 5, 5, 5]);
    assert_eq!(dot, dot_group_reference(&g, &[5, 5, 5, 5]));
}

#[test]
fn single_lane_group() {
    for v in [0.0f32, -1.0, 42.5, 6.1e-5] {
        let t = AndaTensor::from_f32(&[v], AndaConfig::new(1, 11).unwrap());
        let deq = t.to_f32();
        let expect = F16::from_f32(v).to_f32();
        assert!((deq[0] - expect).abs() <= expect.abs() * 2.0f32.powi(-10) + 1e-7);
    }
}

#[test]
fn compressor_handles_adversarial_groups() {
    let patterns: Vec<Vec<f32>> = vec![
        vec![65504.0; 64],
        vec![-65504.0; 64],
        (0..64)
            .map(|i| (-1.0f32).powi(i) * 2.0f32.powi(i % 30 - 14))
            .collect(),
        vec![2.0f32.powi(-24); 64],
    ];
    for (pi, pattern) in patterns.iter().enumerate() {
        for m in [1u32, 7, 16] {
            let cfg = AndaConfig::hardware(m).unwrap();
            let direct = AndaTensor::from_f32(pattern, cfg);
            let (via_bpc, _) = BitPlaneCompressor::new(cfg).compress_f32(pattern);
            assert_eq!(via_bpc, direct, "pattern {pi} m={m}");
        }
    }
}

#[test]
fn extreme_weights_do_not_overflow() {
    // 64 lanes × max mantissa (2^16-1) × max weight (-8): |dot| ≤ 2^25·64,
    // comfortably inside i64 — but make sure the schedule agrees.
    let vals = vec![65504.0f32; 64];
    let weights = vec![-8i8; 64];
    check_dot_equivalence(&vals, &weights, 16);
}

#[test]
fn plane_order_is_msb_first_for_power_pattern() {
    // Values 2^0 and 2^-1 in one group: after alignment the smaller value's
    // hidden bit appears exactly one plane later.
    let t = AndaTensor::from_f32(&[1.0, 0.5], AndaConfig::new(2, 4).unwrap());
    let g = &t.groups()[0];
    assert_eq!(g.planes()[0] & 0b11, 0b01); // lane 0 MSB set
    assert_eq!(g.planes()[1] & 0b11, 0b10); // lane 1 one plane later
}
