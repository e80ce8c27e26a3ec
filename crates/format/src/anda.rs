//! The Anda data format (paper §III): variable-length grouped activations.
//!
//! An [`AndaTensor`] stores FP16-derived activations as `rows` rows of
//! `width` elements, each row cut into consecutive groups of up to 64
//! lanes. Each group shares its maximum exponent and keeps one sign bit
//! plus an `M`-bit mantissa per element, physically organized in the
//! transposed bit-plane layout of [`crate::bitplane`] over three flat
//! arrays — sign words, shared exponents, mantissa planes — exactly what
//! [`crate::rowcodec`] reads and writes. `M` is chosen *per tensor*
//! (1..=16) by the adaptive precision search — this is the
//! "variable-length" property distinguishing Anda from uni-length formats
//! like VS-Quant/FIGNA and multi-length formats like FAST/DaCapo (Table I).

use anda_fp::simd::{active_leg, SimdLeg};
use anda_fp::F16;

use crate::bitplane::{BitPlaneGroup, LANES};
use crate::error::FormatError;
use crate::rowcodec;

/// Configuration of an Anda conversion: the mantissa length. The group is
/// the hardware's, [`LANES`] elements sharing one exponent — one bit per
/// lane of a plane word (Fig. 10) and one BPC lane's group (Fig. 12) —
/// and a row's last group holds what is left of it.
///
/// # Example
///
/// ```
/// use anda_format::AndaConfig;
///
/// let cfg = AndaConfig::hardware(7).unwrap();
/// assert_eq!(cfg.mantissa_bits(), 7);
/// assert!(AndaConfig::hardware(17).is_err()); // beyond the 16-bit magnitude
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AndaConfig {
    mantissa_bits: u32,
}

impl AndaConfig {
    /// The paper's hardware configuration: 64-lane groups, mantissa
    /// length `m`.
    ///
    /// # Errors
    ///
    /// Returns an error when `m` is outside 1..=16.
    pub fn hardware(m: u32) -> Result<Self, FormatError> {
        if !(1..=16).contains(&m) {
            return Err(FormatError::InvalidMantissaBits {
                requested: m,
                range: (1, 16),
            });
        }
        Ok(AndaConfig { mantissa_bits: m })
    }

    /// Mantissa length in bits.
    #[inline]
    pub fn mantissa_bits(&self) -> u32 {
        self.mantissa_bits
    }
}

/// A `rows × width` tensor in the Anda format: row `r`'s
/// `g = ceil(width / 64)` groups own sign words and exponents
/// `r·g .. (r+1)·g` and plane words `r·g·M .. (r+1)·g·M`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AndaTensor {
    config: AndaConfig,
    rows: usize,
    width: usize,
    // Boxed slices, not `Vec`s: the size is fixed at `zeros`, and two
    // tensors sit inline in every KV page (`kv.rs`'s page-table enum).
    signs: Box<[u64]>,
    exps: Box<[u16]>,
    planes: Box<[u64]>,
}

impl AndaTensor {
    /// A tensor of `rows` all-zero rows of `width` elements.
    pub fn zeros(rows: usize, width: usize, config: AndaConfig) -> Self {
        let g = rows * rowcodec::groups_per_row(width, config);
        AndaTensor {
            config,
            rows,
            width,
            signs: vec![0; g].into(),
            exps: vec![0; g].into(),
            planes: vec![0; g * config.mantissa_bits() as usize].into(),
        }
    }

    /// Converts `f32` activations to a one-row tensor (rounding through
    /// FP16 with saturation: non-finite inputs become ±65504, as hardware
    /// casts saturate rather than trap, so conversion always succeeds).
    pub fn from_f32(values: &[f32], config: AndaConfig) -> Self {
        let mut tensor = Self::zeros(1, values.len(), config);
        if !values.is_empty() {
            tensor.encode_row(0, values);
        }
        tensor
    }

    /// Converts FP16 activations to a one-row tensor (see
    /// [`AndaTensor::from_f32`]; every finite FP16 value is exact in `f32`).
    ///
    /// For callers holding FP16 activations: the constructor the crate
    /// docs' example shows.
    pub fn from_f16(values: &[F16], config: AndaConfig) -> Self {
        let widened: Vec<f32> = values.iter().map(|v| v.to_f32()).collect();
        Self::from_f32(&widened, config)
    }

    /// The conversion configuration.
    pub fn config(&self) -> &AndaConfig {
        &self.config
    }

    /// Logical element count (`rows · width`).
    pub fn len(&self) -> usize {
        self.rows * self.width
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the sign, exponent and plane buffers. Each group's
    /// exponent is held in a `u16`: 11 bits past the 5 that
    /// [`rowcodec::row_storage_bits`] accounts.
    ///
    /// Not on the served path: the KV accounting test in `anda-llm`'s
    /// `kv.rs` reads it to pin a page's bits.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&*self.signs) + size_of_val(&*self.exps) + size_of_val(&*self.planes)
    }

    /// Groups per row.
    fn row_groups(&self) -> usize {
        rowcodec::groups_per_row(self.width, self.config)
    }

    /// Row `r`'s sign/exponent index range and plane index range.
    fn row_spans(&self, r: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        assert!(r < self.rows, "row {r} of a {}-row tensor", self.rows);
        let (g, m) = (self.row_groups(), self.config.mantissa_bits() as usize);
        (r * g..(r + 1) * g, r * g * m..(r + 1) * g * m)
    }

    /// Encodes `values` into row `r` without allocating (the row codec on
    /// the active SIMD leg).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `values` is not `width` wide.
    pub fn encode_row(&mut self, r: usize, values: &[f32]) {
        assert_eq!(values.len(), self.width, "row width");
        let (groups, planes) = self.row_spans(r);
        rowcodec::encode_row_into(
            values,
            self.config,
            &mut self.signs[groups.clone()],
            &mut self.exps[groups],
            &mut self.planes[planes],
        );
    }

    /// Decodes row `r` into `out` without allocating, counted once in
    /// [`crate::metrics::rows_decoded`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `out` is not `width` wide.
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.width, "row width");
        let (groups, planes) = self.row_spans(r);
        rowcodec::decode_row_into(
            self.config,
            &self.signs[groups.clone()],
            &self.exps[groups],
            &self.planes[planes],
            out,
        );
    }

    /// Decodes the columns of groups `groups` of the first
    /// `tile.len() / width` rows into the row-major `tile` on `leg`
    /// ([`rowcodec::decode_rows_into_with_leg`]; not counted — the caller
    /// notes a page once, however many column slices read it), streaming
    /// `next`.
    ///
    /// # Panics
    ///
    /// As [`rowcodec::decode_rows_into_with_leg`].
    pub fn decode_rows_into(
        &self,
        leg: SimdLeg,
        groups: std::ops::Range<usize>,
        tile: &mut [f32],
        next: Option<rowcodec::Words<'_>>,
    ) {
        rowcodec::decode_rows_into_with_leg(
            leg,
            self.config,
            &self.signs,
            &self.exps,
            &self.planes,
            groups,
            self.width,
            tile,
            next,
        );
    }

    /// Decodes the columns of groups `groups` of the first `rows` rows
    /// position-minor on `leg`: column `c` of row `p` at
    /// `keys[(c − first column) · ld + p]`
    /// ([`rowcodec::decode_rows_transposed_into_with_leg`]; not counted),
    /// streaming `next`.
    ///
    /// # Panics
    ///
    /// As [`rowcodec::decode_rows_transposed_into_with_leg`].
    pub fn decode_rows_transposed_into(
        &self,
        leg: SimdLeg,
        groups: std::ops::Range<usize>,
        rows: usize,
        keys: &mut [f32],
        ld: usize,
        next: Option<rowcodec::Words<'_>>,
    ) {
        rowcodec::decode_rows_transposed_into_with_leg(
            leg,
            self.config,
            &self.signs,
            &self.exps,
            &self.planes,
            groups,
            self.width,
            rows,
            keys,
            ld,
            next,
        );
    }

    /// The words of the first `rows` rows, as a page decode streams them
    /// ([`rowcodec::Words`]).
    pub fn words(&self, rows: usize) -> rowcodec::Words<'_> {
        let g = rows * self.row_groups();
        rowcodec::Words {
            signs: &self.signs[..g],
            exps: &self.exps[..g],
            planes: &self.planes[..g * self.config.mantissa_bits() as usize],
        }
    }

    /// Copies the first `rows` rows of `src` bitwise — no decode/re-encode
    /// round trip, so they read back `f32::to_bits`-identical.
    ///
    /// # Panics
    ///
    /// Panics if the configs or widths differ or either tensor holds
    /// fewer than `rows` rows.
    pub fn copy_rows_from(&mut self, src: &AndaTensor, rows: usize) {
        assert_eq!(self.config, src.config, "copy between configs");
        assert_eq!(self.width, src.width, "copy between row widths");
        let g = rows * self.row_groups();
        let p = g * self.config.mantissa_bits() as usize;
        self.signs[..g].copy_from_slice(&src.signs[..g]);
        self.exps[..g].copy_from_slice(&src.exps[..g]);
        self.planes[..p].copy_from_slice(&src.planes[..p]);
    }

    /// Every group, row-major: views into the tensor's words.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = BitPlaneGroup<'_>> + '_ {
        let (g, m) = (self.row_groups(), self.config.mantissa_bits() as usize);
        (0..self.rows * g).map(move |i| {
            let start = (i % g) * LANES;
            BitPlaneGroup::new(
                LANES.min(self.width - start),
                self.signs[i],
                self.exps[i],
                &self.planes[i * m..(i + 1) * m],
            )
        })
    }

    /// Write access to group `i`'s sign word, exponent and planes (the
    /// BPC model's packager).
    pub(crate) fn group_mut(&mut self, i: usize) -> (&mut u64, &mut u16, &mut [u64]) {
        let m = self.config.mantissa_bits() as usize;
        (
            &mut self.signs[i],
            &mut self.exps[i],
            &mut self.planes[i * m..(i + 1) * m],
        )
    }

    /// Dequantizes the whole tensor back to `f32`, row-major.
    pub fn to_f32(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.decode_into(&mut out);
        out
    }

    /// Dequantizes every row into a caller-owned slice without allocating
    /// (not counted). Bit-identical to [`AndaTensor::to_f32`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "decode width mismatch");
        if !self.is_empty() {
            self.decode_rows_into(active_leg(), 0..self.row_groups(), out, None);
        }
    }

    /// Total storage footprint in bits: per group one sign plane, a 5-bit
    /// exponent and `M` mantissa planes.
    pub fn storage_bits(&self) -> usize {
        self.rows * rowcodec::row_storage_bits(self.width, self.config)
    }

    /// Mean bits per element (FP16 would be 16.0). Includes zero-padded
    /// lanes of a trailing partial group, as the hardware would.
    pub fn bits_per_element(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.storage_bits() as f64 / self.len() as f64
        }
    }

    /// Compression ratio versus FP16 element storage.
    pub fn compression_vs_f16(&self) -> f64 {
        if self.is_empty() {
            1.0
        } else {
            (self.len() * 16) as f64 / self.storage_bits() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `rows` deterministic rows of `width` values with a spread of
    /// magnitudes (so groups get different shared exponents).
    fn rows_of(rows: usize, width: usize) -> Vec<Vec<f32>> {
        (0..rows)
            .map(|r| {
                (0..width)
                    .map(|i| ((i * 37 + r * 11) % 97) as f32 * 0.013 * (1 + i % 5) as f32 - 0.6)
                    .collect()
            })
            .collect()
    }

    fn encoded(data: &[Vec<f32>], width: usize, cfg: AndaConfig) -> AndaTensor {
        let mut t = AndaTensor::zeros(data.len(), width, cfg);
        for (r, row) in data.iter().enumerate() {
            t.encode_row(r, row);
        }
        t
    }

    #[test]
    fn config_rejects_hardware_violations() {
        assert!(AndaConfig::hardware(0).is_err());
        assert!(AndaConfig::hardware(17).is_err());
        assert!(AndaConfig::hardware(1).is_ok());
        assert!(AndaConfig::hardware(16).is_ok());
    }

    #[test]
    fn round_trip_error_bounded() {
        let vals: Vec<f32> = (0..200)
            .map(|i| ((i * 13) % 41) as f32 * 0.21 - 4.0)
            .collect();
        let cfg = AndaConfig::hardware(8).unwrap();
        let t = AndaTensor::from_f32(&vals, cfg);
        assert_eq!(t.len(), 200);
        assert_eq!(t.groups().len(), 4);
        let deq = t.to_f32();
        for (gi, g) in t.groups().enumerate() {
            for i in 0..g.len() {
                let idx = gi * 64 + i;
                let orig = F16::from_f32(vals[idx]).to_f32();
                assert!((deq[idx] - orig).abs() <= g.ulp(), "idx={idx}");
            }
        }
    }

    #[test]
    fn matches_bfp_semantics_at_same_parameters() {
        let vals: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.05).collect();
        let anda = AndaTensor::from_f32(&vals, AndaConfig::hardware(6).unwrap()).to_f32();
        let mut streamed = vals;
        crate::align::fake_quantize_in_place(&mut streamed, 64, 6);
        assert_eq!(anda, streamed, "Anda is BFP + layout; values must agree");
    }

    #[test]
    fn non_finite_inputs_saturate() {
        let t = AndaTensor::from_f32(
            &[f32::INFINITY, -1e30, 1.0],
            AndaConfig::hardware(11).unwrap(),
        );
        let deq = t.to_f32();
        assert!((deq[0] - 65504.0).abs() < 65504.0 * 0.01);
        assert!((deq[1] + 65504.0).abs() < 65504.0 * 0.01);
    }

    #[test]
    fn storage_shrinks_with_mantissa_bits() {
        let vals = vec![1.0f32; 640];
        let wide = AndaTensor::from_f32(&vals, AndaConfig::hardware(12).unwrap());
        let narrow = AndaTensor::from_f32(&vals, AndaConfig::hardware(5).unwrap());
        assert!(narrow.storage_bits() < wide.storage_bits());
        // M=5: ≈ 6.08 bits/element → ~2.6x compression vs FP16.
        assert!((narrow.bits_per_element() - (5.0 + 1.0 + 5.0 / 64.0)).abs() < 1e-9);
        assert!(narrow.compression_vs_f16() > 2.5);
    }

    #[test]
    fn empty_tensor_is_well_formed() {
        let t = AndaTensor::from_f32(&[], AndaConfig::hardware(8).unwrap());
        assert!(t.is_empty());
        assert_eq!(t.groups().len(), 0);
        assert_eq!(t.compression_vs_f16(), 1.0);
        assert!(t.to_f32().is_empty());
    }

    /// A multi-row tensor's groups are, row after row, the groups each
    /// row's `from_f32` tensor holds — partial trailing groups included.
    #[test]
    fn multi_row_groups_are_each_rows_from_f32_groups() {
        for (width, m) in [(100usize, 7u32), (64, 1), (65, 16), (9, 5), (130, 3)] {
            let cfg = AndaConfig::hardware(m).unwrap();
            let data = rows_of(3, width);
            let t = encoded(&data, width, cfg);
            let singles: Vec<AndaTensor> = data
                .iter()
                .map(|row| AndaTensor::from_f32(row, cfg))
                .collect();
            let want: Vec<BitPlaneGroup> = singles.iter().flat_map(AndaTensor::groups).collect();
            let got: Vec<BitPlaneGroup> = t.groups().collect();
            assert_eq!(got, want, "width={width} m={m}");
        }
    }

    /// A copied prefix reads back `to_bits`-equal to the source rows; the
    /// rows past it are untouched.
    #[test]
    fn copy_rows_from_a_prefix_decodes_bit_identically() {
        let (width, cfg) = (130, AndaConfig::hardware(6).unwrap());
        let src = encoded(&rows_of(5, width), width, cfg);
        for rows in 1..=5 {
            let mut dst = AndaTensor::zeros(5, width, cfg);
            dst.copy_rows_from(&src, rows);
            let (mut got, mut want) = (vec![0.0; width], vec![0.0; width]);
            for r in 0..5 {
                dst.decode_row_into(r, &mut got);
                src.decode_row_into(r, &mut want);
                if r < rows {
                    assert_eq!(bits(&got), bits(&want), "rows={rows} row {r}");
                } else {
                    assert!(got.iter().all(|&v| v == 0.0), "rows={rows} row {r}");
                }
            }
        }
    }

    /// `decode_rows_into` over any group range writes exactly those
    /// columns of the leading rows, equal to `decode_row_into`'s.
    #[test]
    fn decode_rows_into_any_group_range_equals_those_columns_of_decode_row_into() {
        for width in [200usize, 33] {
            let cfg = AndaConfig::hardware(9).unwrap();
            let t = encoded(&rows_of(4, width), width, cfg);
            let g = width.div_ceil(LANES);
            let mut row = vec![0.0; width];
            for start in 0..g {
                for end in start + 1..=g {
                    let cols = start * LANES..(end * LANES).min(width);
                    for rows in 1..=4 {
                        let mut tile = vec![f32::NAN; rows * width];
                        t.decode_rows_into(active_leg(), start..end, &mut tile, None);
                        for (r, got) in tile.chunks(width).enumerate() {
                            t.decode_row_into(r, &mut row);
                            let ctx = format!("width={width} groups {start}..{end} row {r}");
                            assert_eq!(bits(&got[cols.clone()]), bits(&row[cols.clone()]), "{ctx}");
                            let outside = got[..cols.start].iter().chain(&got[cols.end..]);
                            assert!(outside.copied().all(f32::is_nan), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}
