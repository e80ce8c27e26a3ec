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

use anda_fp::F16;

use crate::bitplane::{BitPlaneGroup, LANES};
use crate::error::FormatError;
use crate::rowcodec;

/// Configuration of an Anda conversion.
///
/// # Example
///
/// ```
/// use anda_format::AndaConfig;
///
/// let cfg = AndaConfig::new(64, 7).unwrap();
/// assert_eq!(cfg.group_size(), 64);
/// assert_eq!(cfg.mantissa_bits(), 7);
/// assert!(AndaConfig::new(65, 7).is_err()); // beyond the 64-lane hardware
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AndaConfig {
    group_size: usize,
    mantissa_bits: u32,
}

impl AndaConfig {
    /// Creates a configuration: `group_size` lanes share an exponent and
    /// every mantissa is truncated to `mantissa_bits`.
    ///
    /// # Errors
    ///
    /// Returns an error when `group_size` is 0 or exceeds the 64-lane
    /// hardware word, or when `mantissa_bits` is outside 1..=16.
    pub fn new(group_size: usize, mantissa_bits: u32) -> Result<Self, FormatError> {
        if group_size == 0 || group_size > LANES {
            return Err(FormatError::InvalidGroupSize {
                requested: group_size,
                max: LANES,
            });
        }
        if !(1..=16).contains(&mantissa_bits) {
            return Err(FormatError::InvalidMantissaBits {
                requested: mantissa_bits,
                range: (1, 16),
            });
        }
        Ok(AndaConfig {
            group_size,
            mantissa_bits,
        })
    }

    /// The paper's hardware configuration: 64 lanes, mantissa length `m`.
    ///
    /// # Errors
    ///
    /// Returns an error when `m` is outside 1..=16.
    pub fn hardware(m: u32) -> Result<Self, FormatError> {
        Self::new(LANES, m)
    }

    /// Elements per shared-exponent group.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Mantissa length in bits.
    #[inline]
    pub fn mantissa_bits(&self) -> u32 {
        self.mantissa_bits
    }
}

/// A `rows × width` tensor in the Anda format: row `r`'s
/// `g = ceil(width / group_size)` groups own sign words and exponents
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
    /// `tile.len() / width` rows into the row-major `tile`
    /// ([`rowcodec::decode_rows_into`]; not counted — the caller notes a
    /// page once, however many column slices read it).
    ///
    /// # Panics
    ///
    /// As [`rowcodec::decode_rows_into`].
    pub fn decode_rows_into(&self, groups: std::ops::Range<usize>, tile: &mut [f32]) {
        rowcodec::decode_rows_into(
            self.config,
            &self.signs,
            &self.exps,
            &self.planes,
            groups,
            self.width,
            tile,
        );
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
        let (g, gs, m) = (
            self.row_groups(),
            self.config.group_size(),
            self.config.mantissa_bits() as usize,
        );
        (0..self.rows * g).map(move |i| {
            let start = (i % g) * gs;
            BitPlaneGroup::new(
                gs.min(self.width - start),
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
            self.decode_rows_into(0..self.row_groups(), out);
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
        assert!(AndaConfig::new(0, 8).is_err());
        assert!(AndaConfig::new(65, 8).is_err());
        assert!(AndaConfig::new(64, 0).is_err());
        assert!(AndaConfig::new(64, 17).is_err());
        assert!(AndaConfig::hardware(16).is_ok());
    }

    #[test]
    fn round_trip_error_bounded() {
        let vals: Vec<f32> = (0..200)
            .map(|i| ((i * 13) % 41) as f32 * 0.21 - 4.0)
            .collect();
        let cfg = AndaConfig::new(64, 8).unwrap();
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
        let anda = AndaTensor::from_f32(&vals, AndaConfig::new(64, 6).unwrap()).to_f32();
        let mut streamed = vals;
        crate::align::fake_quantize_in_place(&mut streamed, 64, 6);
        assert_eq!(anda, streamed, "Anda is BFP + layout; values must agree");
    }

    #[test]
    fn non_finite_inputs_saturate() {
        let t = AndaTensor::from_f32(
            &[f32::INFINITY, -1e30, 1.0],
            AndaConfig::new(64, 11).unwrap(),
        );
        let deq = t.to_f32();
        assert!((deq[0] - 65504.0).abs() < 65504.0 * 0.01);
        assert!((deq[1] + 65504.0).abs() < 65504.0 * 0.01);
    }

    #[test]
    fn storage_shrinks_with_mantissa_bits() {
        let vals = vec![1.0f32; 640];
        let wide = AndaTensor::from_f32(&vals, AndaConfig::new(64, 12).unwrap());
        let narrow = AndaTensor::from_f32(&vals, AndaConfig::new(64, 5).unwrap());
        assert!(narrow.storage_bits() < wide.storage_bits());
        // M=5: ≈ 6.08 bits/element → ~2.6x compression vs FP16.
        assert!((narrow.bits_per_element() - (5.0 + 1.0 + 5.0 / 64.0)).abs() < 1e-9);
        assert!(narrow.compression_vs_f16() > 2.5);
    }

    #[test]
    fn empty_tensor_is_well_formed() {
        let t = AndaTensor::from_f32(&[], AndaConfig::new(64, 8).unwrap());
        assert!(t.is_empty());
        assert_eq!(t.groups().len(), 0);
        assert_eq!(t.compression_vs_f16(), 1.0);
        assert!(t.to_f32().is_empty());
    }

    /// A multi-row tensor's groups are, row after row, the groups each
    /// row's `from_f32` tensor holds — partial trailing groups included.
    #[test]
    fn multi_row_groups_are_each_rows_from_f32_groups() {
        for (width, gs, m) in [
            (100usize, 64usize, 7u32),
            (64, 64, 1),
            (65, 64, 16),
            (9, 4, 5),
        ] {
            let cfg = AndaConfig::new(gs, m).unwrap();
            let data = rows_of(3, width);
            let t = encoded(&data, width, cfg);
            let singles: Vec<AndaTensor> = data
                .iter()
                .map(|row| AndaTensor::from_f32(row, cfg))
                .collect();
            let want: Vec<BitPlaneGroup> = singles.iter().flat_map(AndaTensor::groups).collect();
            let got: Vec<BitPlaneGroup> = t.groups().collect();
            assert_eq!(got, want, "width={width} gs={gs} m={m}");
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
        for (width, gs) in [(200usize, 64usize), (33, 8)] {
            let cfg = AndaConfig::new(gs, 9).unwrap();
            let t = encoded(&rows_of(4, width), width, cfg);
            let g = width.div_ceil(gs);
            let mut row = vec![0.0; width];
            for start in 0..g {
                for end in start + 1..=g {
                    let cols = start * gs..(end * gs).min(width);
                    for rows in 1..=4 {
                        let mut tile = vec![f32::NAN; rows * width];
                        t.decode_rows_into(start..end, &mut tile);
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
