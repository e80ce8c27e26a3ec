//! Functional (cycle-by-cycle) model of the Anda datapath (paper Fig. 13).
//!
//! The analytical model in [`crate::engine`] predicts performance; this
//! module *executes* an FP-INT GeMM on the modeled hardware, word by word:
//!
//! - an [`ActivationBuffer`] holding bit-plane groups at variable address
//!   depth, filled through the address map of Fig. 10;
//! - an [`AddressGenerator`] that walks sign/mantissa-plane words for
//!   variable-length groups;
//! - a 16×16 APU array with output-stationary dataflow: weights broadcast
//!   row-wise by the dispatcher, activation bit-planes shared column-wise;
//! - the BPC compressing MXU outputs back to Anda groups.
//!
//! Activations live in the one bit-plane layout: the BPC writes each row
//! into an [`AndaTensor`], the buffer stores its group views, and every
//! APU dot is the bit-serial schedule
//! ([`anda_format::dot::dot_group_int_flat_scalar`]) over the words the
//! address generator walks. Its outputs are verified (in tests) to be
//! `f32::to_bits`-identical to the `anda-quant` integer GeMM, and its
//! cycle counts to agree with the analytical model — the "cycle-accurate
//! simulator, rigorously verified against functional simulations"
//! methodology of §V-A.

use anda_format::anda::{AndaConfig, AndaTensor};
use anda_format::bitplane::BitPlaneGroup;
use anda_format::compressor::BitPlaneCompressor;
use anda_format::dot::{dot_group_int_flat_scalar, rescale_int_dot};
use anda_quant::IntWeightMatrix;
use anda_tensor::Matrix;

/// One word of the activation buffer (64 lanes).
pub type Word = u64;

/// Address map entry for one stored group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupAddress {
    /// Word address of the sign plane; mantissa planes follow contiguously.
    pub base: usize,
    /// Number of mantissa planes (M).
    pub planes: u32,
    /// Index into the exponent array.
    pub exp_index: usize,
}

/// The on-chip activation buffer in bit-plane layout: a flat word array for
/// sign/mantissa planes plus a narrow exponent array (Fig. 10's split
/// address spaces).
#[derive(Clone, Debug, Default)]
pub struct ActivationBuffer {
    words: Vec<Word>,
    exponents: Vec<u16>,
    /// Directory: one address record per stored group, in store order.
    directory: Vec<GroupAddress>,
    /// Occupied lanes per group (trailing group may be partial); only
    /// [`ActivationBuffer::load_group`] reads them.
    #[cfg(test)]
    lane_counts: Vec<usize>,
}

impl ActivationBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a bit-plane group, returning its directory index.
    pub fn store(&mut self, group: BitPlaneGroup<'_>) -> usize {
        let base = self.words.len();
        self.words.push(group.signs());
        self.words.extend_from_slice(group.planes());
        self.exponents.push(group.shared_exp());
        self.directory.push(GroupAddress {
            base,
            planes: group.mantissa_bits(),
            exp_index: self.exponents.len() - 1,
        });
        #[cfg(test)]
        self.lane_counts.push(group.len());
        self.directory.len() - 1
    }

    /// Stores every group of a tensor, returning the directory index range.
    pub fn store_tensor(&mut self, tensor: &AndaTensor) -> std::ops::Range<usize> {
        let start = self.directory.len();
        for g in tensor.groups() {
            self.store(g);
        }
        start..self.directory.len()
    }

    /// Total occupied words (address depth consumed).
    #[cfg(test)]
    fn occupied_words(&self) -> usize {
        self.words.len()
    }

    /// Reads one word.
    pub fn read_word(&self, addr: usize) -> Word {
        self.words[addr]
    }

    /// Reads a group's shared exponent.
    pub fn read_exponent(&self, index: usize) -> u16 {
        self.exponents[index]
    }

    /// The directory entry of group `g`.
    pub fn address_of(&self, g: usize) -> GroupAddress {
        self.directory[g]
    }

    /// A view of stored group `g`, in place (verification path).
    #[cfg(test)]
    fn load_group(&self, g: usize) -> BitPlaneGroup<'_> {
        let a = self.directory[g];
        BitPlaneGroup::new(
            self.lane_counts[g],
            self.words[a.base],
            self.exponents[a.exp_index],
            &self.words[a.base + 1..a.base + 1 + a.planes as usize],
        )
    }
}

/// Walks the word addresses of one group: sign word first, then mantissa
/// planes MSB-first — the access pattern the address generator of Fig. 13
/// produces for the activation dispatcher.
#[derive(Clone, Debug)]
pub struct AddressGenerator {
    next: usize,
    end: usize,
}

impl AddressGenerator {
    /// Creates the walk for a directory entry.
    pub fn for_group(addr: GroupAddress) -> Self {
        AddressGenerator {
            next: addr.base,
            end: addr.base + 1 + addr.planes as usize,
        }
    }
}

impl Iterator for AddressGenerator {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.next < self.end {
            let a = self.next;
            self.next += 1;
            Some(a)
        } else {
            None
        }
    }
}

/// Cycle statistics of one functional GeMM execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// MXU cycles: one per buffer word fed to the array (sign + planes per
    /// group, per k-group, per output tile pass).
    pub mxu_cycles: u64,
    /// Activation-buffer words read.
    pub act_words_read: u64,
    /// Weight values dispatched (before row broadcast).
    pub weights_dispatched: u64,
    /// BPC cycles spent compressing outputs.
    pub bpc_cycles: u64,
    /// Output tiles processed.
    pub tiles: u64,
}

/// The functional MXU executor: a 16×16 APU array with output-stationary
/// dataflow.
#[derive(Clone, Copy, Debug)]
pub struct MxuExecutor {
    /// Array dimension (16 in the paper).
    pub array_dim: usize,
    /// Activation mantissa length for conversion.
    pub mantissa_bits: u32,
}

impl MxuExecutor {
    /// The paper's 16×16 configuration at mantissa length `m`.
    pub fn paper(m: u32) -> Self {
        MxuExecutor {
            array_dim: 16,
            mantissa_bits: m,
        }
    }

    /// Executes `x(m×k) · W(k×n)` on the modeled datapath.
    ///
    /// Activations are converted row-wise to Anda groups (64 lanes along k)
    /// by the BPC, staged in an [`ActivationBuffer`], and consumed by the
    /// APU array in output-stationary tiles of `array_dim × array_dim`.
    /// Outputs are returned as `f32` along with cycle statistics and the
    /// BPC-compressed output tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if the weight group size is not a
    /// multiple of 64.
    pub fn execute(&self, x: &Matrix, w: &IntWeightMatrix) -> (Matrix, AndaTensor, ExecutionStats) {
        assert_eq!(x.cols(), w.k(), "gemm shape mismatch");
        assert!(
            w.config().group_size.is_multiple_of(64),
            "weight group size must be a multiple of the 64-lane group"
        );
        let (rows, k) = x.shape();
        let n = w.n();
        let cfg = AndaConfig::hardware(self.mantissa_bits).expect("valid mantissa");
        let bpc = BitPlaneCompressor::new(cfg);
        let mut stats = ExecutionStats::default();

        // Stage activations: one buffer region per activation row.
        let mut buffer = ActivationBuffer::new();
        let mut row_ranges = Vec::with_capacity(rows);
        for r in 0..rows {
            let (tensor, report) = bpc.compress_f32(x.row(r));
            stats.bpc_cycles += report.cycles;
            row_ranges.push(buffer.store_tensor(&tensor));
        }

        let mut out = Matrix::zeros(rows, n);
        let dim = self.array_dim;

        // Output-stationary tiling over (row, col) blocks.
        for row_tile in (0..rows).step_by(dim) {
            for col_tile in (0..n).step_by(dim) {
                stats.tiles += 1;
                let tile_rows = dim.min(rows - row_tile);
                let tile_cols = dim.min(n - col_tile);
                // FP32 accumulators, one per APU in the tile.
                let mut acc = vec![0.0f32; tile_rows * tile_cols];

                let n_groups = k.div_ceil(64);
                for g in 0..n_groups {
                    let k_start = g * 64;
                    // Weight dispatcher: fetch this k-group's weights for
                    // the tile columns once; broadcast across rows.
                    let k_end = (k_start + 64).min(k);
                    let mut tile_weights: Vec<Vec<i8>> = Vec::with_capacity(tile_cols);
                    for c in 0..tile_cols {
                        let col = col_tile + c;
                        let wcol: Vec<i8> = (k_start..k_end).map(|r| w.value(r, col)).collect();
                        stats.weights_dispatched += wcol.len() as u64;
                        tile_weights.push(wcol);
                    }
                    let scale_row = k_start;

                    // Activation dispatcher: for each tile row, walk the
                    // group's words (sign plane + M planes); each word is
                    // one MXU cycle, shared across the 16 columns.
                    for tr in 0..tile_rows {
                        let row = row_tile + tr;
                        let dir_index = row_ranges[row].start + g;
                        let addr = buffer.address_of(dir_index);
                        let words: Vec<Word> = AddressGenerator::for_group(addr)
                            .map(|a| {
                                stats.act_words_read += 1;
                                buffer.read_word(a)
                            })
                            .collect();
                        stats.mxu_cycles += words.len() as u64;
                        let signs = words[0];
                        let exponent = buffer.read_exponent(addr.exp_index);

                        // Each APU column computes its bit-serial dot.
                        for (c, wcol) in tile_weights.iter().enumerate() {
                            let int_acc = dot_group_int_flat_scalar(signs, &words[1..], wcol);
                            let scale = w.scale_at(scale_row, col_tile + c);
                            acc[tr * tile_cols + c] +=
                                rescale_int_dot(int_acc, exponent, self.mantissa_bits, scale);
                        }
                    }
                }

                for tr in 0..tile_rows {
                    for c in 0..tile_cols {
                        out[(row_tile + tr, col_tile + c)] = acc[tr * tile_cols + c];
                    }
                }
            }
        }

        // BPC-compress the outputs (the write-back path of Fig. 13 step 5).
        let (out_tensor, out_report) = bpc.compress_f32(out.as_slice());
        stats.bpc_cycles += out_report.cycles;

        (out, out_tensor, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_quant::gemm::gemm_anda;
    use anda_quant::WeightQuantConfig;
    use anda_tensor::Rng;

    fn case(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, IntWeightMatrix) {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(m, k);
        rng.fill_normal(x.as_mut_slice(), 1.5);
        let mut w = Matrix::zeros(k, n);
        rng.fill_normal(w.as_mut_slice(), 0.05);
        (
            x,
            IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 64)),
        )
    }

    #[test]
    fn functional_result_matches_reference_gemm() {
        let (x, w) = case(5, 192, 7, 1);
        for m in [4u32, 8, 12] {
            let exec = MxuExecutor::paper(m);
            let (out, _, _) = exec.execute(&x, &w);
            let reference = gemm_anda(&x, &w, m);
            for i in 0..5 {
                for j in 0..7 {
                    let (a, b) = (out[(i, j)], reference[(i, j)]);
                    assert_eq!(a.to_bits(), b.to_bits(), "m={m} ({i},{j}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn cycle_count_matches_group_walks() {
        // Each (tile row, k-group) pass reads 1 sign + M plane words.
        let (x, w) = case(16, 128, 16, 2);
        let m = 6u32;
        let exec = MxuExecutor::paper(m);
        let (_, _, stats) = exec.execute(&x, &w);
        let groups_per_row = 2; // 128 / 64
        let expect = 16u64 * groups_per_row * u64::from(m + 1); // one output tile
        assert_eq!(stats.mxu_cycles, expect);
        assert_eq!(stats.act_words_read, expect);
        assert_eq!(stats.tiles, 1);
    }

    #[test]
    fn cycles_scale_with_mantissa_and_tiles() {
        let (x, w) = case(20, 128, 40, 3);
        let cycles = |m: u32| MxuExecutor::paper(m).execute(&x, &w).2.mxu_cycles;
        // (M+1) scaling.
        assert_eq!(cycles(8) * 5, cycles(4) * 9);
        // Tile count: ceil(20/16)·ceil(40/16) = 2·3.
        let (_, _, stats) = MxuExecutor::paper(4).execute(&x, &w);
        assert_eq!(stats.tiles, 6);
    }

    #[test]
    fn buffer_round_trips_groups_and_tracks_depth() {
        let mut buffer = ActivationBuffer::new();
        let vals: Vec<f32> = (0..64).map(|i| i as f32 * 0.3 - 9.0).collect();
        let t4 = AndaTensor::from_f32(&vals, AndaConfig::hardware(4).unwrap());
        let t9 = AndaTensor::from_f32(&vals, AndaConfig::hardware(9).unwrap());
        let (g4, g9) = (t4.groups().next().unwrap(), t9.groups().next().unwrap());
        let (i4, i9) = (buffer.store(g4), buffer.store(g9));
        // Variable address depth: 1+4 words then 1+9 words.
        assert_eq!(buffer.occupied_words(), 5 + 10);
        assert_eq!(buffer.load_group(i4), g4);
        assert_eq!(buffer.load_group(i9), g9);
    }

    #[test]
    fn address_generator_walks_contiguously() {
        let addr = GroupAddress {
            base: 10,
            planes: 3,
            exp_index: 0,
        };
        let walked: Vec<usize> = AddressGenerator::for_group(addr).collect();
        assert_eq!(walked, vec![10, 11, 12, 13]);
    }

    #[test]
    fn output_tensor_is_bpc_compression_of_results() {
        let (x, w) = case(3, 64, 5, 4);
        let exec = MxuExecutor::paper(7);
        let (out, out_tensor, _) = exec.execute(&x, &w);
        let flat: Vec<f32> = (0..3).flat_map(|r| out.row(r).to_vec()).collect();
        let direct = AndaTensor::from_f32(&flat, AndaConfig::hardware(7).unwrap());
        assert_eq!(out_tensor, direct);
    }

    #[test]
    fn functional_agrees_with_analytical_group_latency() {
        use crate::arch::Accelerator;
        use crate::pe::PeKind;
        // The analytical model charges (M+1)/16 of a full array pass per
        // group; the functional model walks M+1 words per (row, group) pair
        // shared across 16 columns. For a full 16×16 tile they coincide.
        let (x, w) = case(16, 256, 16, 5);
        let m = 5u32;
        let (_, _, stats) = MxuExecutor::paper(m).execute(&x, &w);
        let arch = Accelerator::paper(PeKind::Anda);
        let analytical = 16.0 * 16.0 * (256.0 / 64.0) * arch.cycles_per_group(m) * 16.0 / 16.0;
        // stats.mxu_cycles counts word feeds per row (shared over columns):
        // 16 rows × 4 groups × (M+1) words.
        assert_eq!(stats.mxu_cycles as f64, 16.0 * 4.0 * f64::from(m + 1));
        // Analytical group-dot cycles for the same tile: 16·16·4·(M+1)/16
        // array-cycles = 16·4·(M+1) — identical.
        assert_eq!(analytical, stats.mxu_cycles as f64);
    }
}
