//! Property-based scalar↔SIMD equivalence for the row codec and the
//! flat integer group dot: on every dispatch leg available on this
//! host, every kernel must reproduce its scalar oracle bit for bit —
//! encoded sign/exponent/plane words `==`-identical, decoded rows
//! `f32::to_bits`-identical, integer dots exactly equal.
//!
//! Row lengths sweep across the 64-lane group boundary, so a row's
//! ragged last group sits on both sides of every vector step width (8,
//! 16, 32 lanes); mantissa widths cover the full 1..=16 range — the byte-lane (`M <= 8`) and 16-bit-lane decode
//! transposes both, and the AVX-512 leg's GF(2) one — and inputs include
//! non-finite values (the codec saturates them like the scalar path must)
//! as well as raw plane, sign and exponent words no encoder produces
//! together. The page-level decodes, row-major and position-minor, are
//! held to the same oracle on multi-row pages, partly filled, over group
//! ranges starting mid-row.

use anda_format::bitplane::LANES;
use anda_format::dot::{dot_group_int_flat_scalar, dot_group_int_flat_with_leg};
use anda_format::rowcodec::{
    decode_row_into_scalar, decode_row_into_with_leg, decode_rows_into_with_leg,
    decode_rows_transposed_into_with_leg, encode_row_into_scalar, encode_row_into_with_leg,
    groups_per_row, plane_words_per_row, Words,
};
use anda_format::AndaConfig;
use anda_fp::available_legs;
use proptest::prelude::*;

/// Strategy: a row of f32 values from a mix of scales, with occasional
/// specials (NaN, infinities, subnormals, the FP16 saturation edge),
/// crossing the 64-lane group boundary.
fn row() -> impl Strategy<Value = Vec<f32>> {
    let element = (any::<u32>(), -70000.0f32..70000.0).prop_map(|(sel, v)| match sel % 16 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 65504.0,
        4 => -65504.0,
        5 => 0.0,
        6 => -0.0,
        7 => f32::from_bits(sel | 1) * f32::MIN_POSITIVE, // tiny / subnormal-ish
        _ => v,
    });
    prop::collection::vec(element, 1..=150)
}

/// Row widths drawn besides the random ones: one lane, a ragged 16-lane
/// step, one lane short of and past a 64-lane group, partial second and
/// third groups and the serving model's `d_model`.
const ROW_WIDTHS: [usize; 7] = [1, 17, 63, 65, 100, 130, 256];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encode on every leg produces word-identical sign/exponent/plane
    /// buffers, and decode on every leg reproduces the scalar decode of
    /// those buffers bit for bit.
    #[test]
    fn rowcodec_matches_scalar_on_all_legs(
        values in row(),
        m in 1u32..=16,
    ) {
        let cfg = AndaConfig::hardware(m).unwrap();
        let g = groups_per_row(values.len(), cfg);
        let pw = plane_words_per_row(values.len(), cfg);

        let mut signs0 = vec![0u64; g];
        let mut exps0 = vec![0u16; g];
        let mut planes0 = vec![0u64; pw];
        encode_row_into_scalar(&values, cfg, &mut signs0, &mut exps0, &mut planes0);
        let mut out0 = vec![0.0f32; values.len()];
        decode_row_into_scalar(cfg, &signs0, &exps0, &planes0, &mut out0);

        for leg in available_legs() {
            let mut signs = vec![!0u64; g];
            let mut exps = vec![!0u16; g];
            let mut planes = vec![!0u64; pw];
            encode_row_into_with_leg(leg, &values, cfg, &mut signs, &mut exps, &mut planes);
            prop_assert_eq!(&signs, &signs0, "leg={} m={m} signs", leg.name());
            prop_assert_eq!(&exps, &exps0, "leg={} m={m} exps", leg.name());
            prop_assert_eq!(&planes, &planes0, "leg={} m={m} planes", leg.name());

            let mut out = vec![1.0f32; values.len()];
            decode_row_into_with_leg(leg, cfg, &signs0, &exps0, &planes0, &mut out);
            for (i, (a, b)) in out.iter().zip(&out0).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "leg={} m={m} i={i}: {} vs {}", leg.name(), a, b);
            }
        }
    }

    /// Decode of arbitrary stored words — random planes and signs with
    /// all-ones and all-zero words (zero magnitudes under set sign bits
    /// decode to −0.0), all-negative sign words and the smallest/largest
    /// shared exponents mixed in — matches the scalar decode on every
    /// leg, for every lane width and every ragged tail. The same words as
    /// a page of `rows` rows, `filled` of them decoded over a group range
    /// that may start mid-row, match the scalar decode of those columns,
    /// row-major and position-minor (on a stride one past the fill, whose
    /// last slot stays untouched).
    #[test]
    fn decode_of_raw_words_matches_scalar_on_all_legs(
        words in prop::collection::vec((any::<u64>(), 0u32..5), 17 * 3),
        len in 1usize..=200,
        width in 0..ROW_WIDTHS.len() + 1,
        m in 1u32..=16,
        page in (1usize..=17, 1usize..=17, any::<u64>()),
    ) {
        let cfg = AndaConfig::hardware(m).unwrap();
        let len = ROW_WIDTHS.get(width).copied().unwrap_or(len);
        let (rows, filled, range_seed) = (page.0, page.0.min(page.1), page.2);
        let g = groups_per_row(len, cfg);
        let pw = plane_words_per_row(len, cfg);
        let word = |i: usize| match words[i % words.len()] {
            (_, 0) => !0u64,
            (_, 3) => 0,
            (w, _) => w,
        };
        let signs: Vec<u64> = (0..rows * g).map(word).collect();
        let planes: Vec<u64> = (0..rows * pw).map(|i| word(rows * g + i)).collect();
        let exps: Vec<u16> = (0..rows * g)
            .map(|i| match words[i % words.len()] {
                (_, 1) => 1,
                (_, 2) => 30,
                (w, _) => 1 + (w % 30) as u16,
            })
            .collect();

        let mut page0 = vec![0.0f32; rows * len];
        for (r, out0) in page0.chunks_mut(len).enumerate() {
            let (gr, pr) = (r * g..(r + 1) * g, r * pw..(r + 1) * pw);
            decode_row_into_scalar(cfg, &signs[gr.clone()], &exps[gr], &planes[pr], out0);
        }
        let out0 = &page0[..len];
        let start = (range_seed % g as u64) as usize;
        let end = start + 1 + ((range_seed >> 32) % (g - start) as u64) as usize;
        let cols = start * LANES..(end * LANES).min(len);
        for leg in available_legs() {
            let mut out = vec![1.0f32; len];
            decode_row_into_with_leg(leg, cfg, &signs, &exps, &planes, &mut out);
            for (i, (a, b)) in out.iter().zip(out0).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "leg={} m={m} len={len} i={i}: {} vs {}", leg.name(), a, b);
            }

            // Both page decodes stream the page's own words as the next
            // page's, which must change nothing.
            let next = Some(Words { signs: &signs, exps: &exps, planes: &planes });
            let mut tile = vec![f32::NAN; filled * len];
            decode_rows_into_with_leg(
                leg, cfg, &signs, &exps, &planes, start..end, len, &mut tile, next,
            );
            for (r, (got, want)) in tile.chunks(len).zip(page0.chunks(len)).enumerate() {
                for i in cols.clone() {
                    prop_assert_eq!(got[i].to_bits(), want[i].to_bits(),
                        "leg={} m={m} len={len} groups {start}..{end} row {r} i={i}",
                        leg.name());
                }
                let outside = got[..cols.start].iter().chain(&got[cols.end..]);
                prop_assert!(outside.copied().all(f32::is_nan), "row {r} outside {cols:?}");
            }

            let ld = filled + 1;
            let mut keys = vec![f32::NAN; cols.len() * ld];
            decode_rows_transposed_into_with_leg(
                leg, cfg, &signs, &exps, &planes, start..end, len, filled, &mut keys, ld, next,
            );
            for (run, c) in keys.chunks(ld).zip(cols.clone()) {
                for (p, got) in run[..filled].iter().enumerate() {
                    prop_assert_eq!(got.to_bits(), page0[p * len + c].to_bits(),
                        "position-minor leg={} m={m} len={len} groups {start}..{end} row {p} i={c}",
                        leg.name());
                }
                prop_assert!(run[filled].is_nan(), "column {c} past the fill");
            }
        }
    }

    /// The flat integer group dot is exactly equal to its scalar
    /// bit-serial oracle on every leg, including INT8 weight extremes.
    #[test]
    fn flat_dot_matches_scalar_on_all_legs(
        values in prop::collection::vec(-100.0f32..100.0, 1..=64),
        weights in prop::collection::vec(any::<i8>(), 1..=64),
        m in 1u32..=16,
    ) {
        let n = values.len().min(weights.len());
        let values = &values[..n];
        let weights = &weights[..n];
        let cfg = AndaConfig::hardware(m).unwrap();
        let mut signs = vec![0u64; 1];
        let mut exps = vec![0u16; 1];
        let mut planes = vec![0u64; m as usize];
        encode_row_into_scalar(values, cfg, &mut signs, &mut exps, &mut planes);

        let oracle = dot_group_int_flat_scalar(signs[0], &planes, weights);
        for leg in available_legs() {
            let got = dot_group_int_flat_with_leg(leg, signs[0], &planes, weights);
            prop_assert_eq!(got, oracle, "leg={} m={m}", leg.name());
        }
    }
}
