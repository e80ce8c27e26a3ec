//! Row-major `f32` matrices.
//!
//! The GeMM kernels carry AVX2/NEON legs behind [`anda_fp::simd`]'s
//! runtime dispatch. `matmul_into`'s legs are an output-stationary
//! register tile (4 rows × 16 columns of accumulators walked over `k`,
//! `rhs` column strips packed contiguous — `tile.rs`); the transposed
//! kernel's transpose 8×8 (4×4) blocks of `rhs` in registers. In both,
//! each vector lane owns one output element and accumulates over `k` in
//! the same ascending order as the scalar kernel, with separate multiply
//! and add (no FMA contraction) — so every leg is `f32::to_bits`-
//! identical to the scalar oracle for finite operands, preserving the
//! bit-exactness invariant the serving stack is built on.

use core::fmt;
use core::ops::{Index, IndexMut};

use anda_fp::simd::{active_leg, SimdLeg};
use rayon_lite::ThreadPool;

use crate::tile::{self, OutBlock, TILE_COLS, TILE_ROWS};

/// Below this many multiply-adds a GeMM runs serially even when the
/// pool has threads: dispatch overhead (a mutex push plus a condvar
/// wakeup per chunk) would exceed the compute — the bound is about
/// 20 µs of the tiled kernel. Results are unaffected — the parallel
/// kernels are bit-identical to the serial ones.
const PAR_MIN_MULADDS: usize = 512 * 1024;

/// A dense, row-major `f32` matrix.
///
/// # Example
///
/// ```
/// use anda_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.cols,
            "col {c} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix multiplication `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix multiplication writing into a preallocated output, on the
    /// global [`rayon_lite`] pool (sized by `ANDA_THREADS`); see
    /// [`Matrix::matmul_into_on`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_into_on(rhs, out, Some(rayon_lite::global()));
    }

    /// [`Matrix::matmul_into`] on the caller's pool: large products are
    /// sharded across it ([`Matrix::matmul_into_pool`]), small ones — and
    /// everything when `pool` is `None` — run the serial kernel. Every
    /// output element accumulates over k in the same order either way,
    /// so results are bit-identical to [`Matrix::matmul_into_serial`] at
    /// every thread count.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into_on(&self, rhs: &Matrix, out: &mut Matrix, pool: Option<&ThreadPool>) {
        let muladds = self.rows * self.cols * rhs.cols;
        match pool {
            Some(pool) if pool.threads() > 1 && muladds >= PAR_MIN_MULADDS => {
                self.matmul_into_pool(rhs, out, pool)
            }
            _ => self.matmul_into_serial(rhs, out),
        }
    }

    /// The serial blocked GeMM kernel behind [`Matrix::matmul_into`].
    ///
    /// Blocked ikj loop order: `rhs` row panels stay cache-resident across
    /// an i-tile instead of being re-streamed for every output row. The
    /// per-element accumulation order over k is unchanged from the naive
    /// ikj kernel, so results are bit-identical to [`Matrix::matmul`] on
    /// any input.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into_serial(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_into_serial_with_leg(rhs, out, active_leg());
    }

    /// [`Matrix::matmul_into_serial`] on an explicit SIMD leg (oracle
    /// tests and benches; production code lets the dispatch layer pick).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, or if the leg is unavailable on
    /// this host.
    pub fn matmul_into_serial_with_leg(&self, rhs: &Matrix, out: &mut Matrix, leg: SimdLeg) {
        self.matmul_check_shapes(rhs, out);
        if rhs.cols == 0 {
            // Degenerate m×0 output: nothing to accumulate (and the
            // kernel's chunks_exact requires a non-zero width).
            return;
        }
        self.matmul_rows_leg(rhs, &mut out.data, 0, leg);
    }

    /// [`Matrix::matmul_into`] on an explicit pool, always sharding
    /// across its threads (the cross-thread-count bit-exactness tests
    /// and the threading bench call it directly). With at least one
    /// register tile of rows per thread the output is split into row
    /// ranges on tile boundaries; with fewer rows — a decode step — the
    /// vector legs split it into column-strip ranges instead, so every
    /// thread streams its own share of `rhs` once. Both are bit-identical
    /// to the serial kernel.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into_pool(&self, rhs: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        self.matmul_check_shapes(rhs, out);
        let n = rhs.cols;
        if n == 0 {
            return;
        }
        let leg = active_leg();
        let threads = pool.threads();
        if leg == SimdLeg::Scalar || self.rows >= TILE_ROWS * threads {
            let rows_per_chunk = self.rows.div_ceil(threads).next_multiple_of(TILE_ROWS);
            pool.par_chunks_mut(&mut out.data, rows_per_chunk * n, |idx, chunk| {
                self.matmul_rows_leg(rhs, chunk, idx * rows_per_chunk, leg);
            });
            return;
        }
        let cols_per_job = n.div_ceil(threads).next_multiple_of(TILE_COLS);
        let ptr = out.data.as_mut_ptr();
        pool.scope(|s| {
            for c0 in (0..n).step_by(cols_per_job) {
                let block = OutBlock {
                    ptr,
                    row0: 0,
                    rows: self.rows,
                    cols: c0..(c0 + cols_per_job).min(n),
                };
                // SAFETY: `out` is exclusively borrowed until the scope
                // joins, holds `rows` rows of `n`, and the jobs' column
                // ranges are disjoint.
                s.spawn(move || unsafe { self.matmul_block_leg(rhs, &block, leg) });
            }
        });
    }

    fn matmul_check_shapes(&self, rhs: &Matrix, out: &Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "matmul output shape mismatch"
        );
    }

    /// Output rows `[row0, row0 + rows_here)`, where `rows_here =
    /// out_rows.len() / rhs.cols`, on `leg`. Each output element
    /// accumulates over k in ascending order regardless of `row0`, the
    /// leg or any tile boundary, which is what makes every sharding
    /// bit-identical to the full-range serial call.
    fn matmul_rows_leg(&self, rhs: &Matrix, out_rows: &mut [f32], row0: usize, leg: SimdLeg) {
        if leg == SimdLeg::Scalar {
            return self.matmul_rows_scalar(rhs, out_rows, row0);
        }
        let block = OutBlock {
            ptr: out_rows.as_mut_ptr(),
            row0,
            rows: out_rows.len() / rhs.cols,
            cols: 0..rhs.cols,
        };
        // SAFETY: `out_rows` is exclusively borrowed and holds exactly
        // `rows` full output rows, so the block covers memory this call
        // owns.
        unsafe { self.matmul_block_leg(rhs, &block, leg) }
    }

    /// Runs the register-tiled kernel of a vector leg over `block`.
    ///
    /// # Safety
    ///
    /// `block.ptr` must be valid for writes of `block.rows` rows of
    /// `rhs.cols` elements, and nothing else may access the block's
    /// columns of those rows during the call.
    unsafe fn matmul_block_leg(&self, rhs: &Matrix, block: &OutBlock, leg: SimdLeg) {
        match leg {
            #[cfg(target_arch = "x86_64")]
            SimdLeg::Avx2 => {
                <tile::Avx2 as tile::Leg>::block(&self.data, self.cols, &rhs.data, rhs.cols, block)
            }
            #[cfg(target_arch = "aarch64")]
            SimdLeg::Neon => {
                <tile::Neon as tile::Leg>::block(&self.data, self.cols, &rhs.data, rhs.cols, block)
            }
            #[allow(unreachable_patterns)]
            other => panic!("SIMD leg {} has no tiled kernel on this host", other.name()),
        }
    }

    /// The scalar oracle every vector leg is pinned to: a blocked ikj
    /// axpy walk, `out[i][j] += a[i][k] · b[k][j]` for ascending `k`,
    /// one rounding per multiply and per add.
    ///
    /// It skips `a == 0`. That is an optimisation, not part of the
    /// contract the legs share: an accumulator that starts at `+0.0`
    /// never becomes `-0.0` under round-to-nearest (a sum is `-0.0` only
    /// when both addends are), so adding `0 · b = ±0` is the identity
    /// for every finite `rhs` and a kernel that does not skip produces
    /// the same bits.
    fn matmul_rows_scalar(&self, rhs: &Matrix, out_rows: &mut [f32], row0: usize) {
        // Tile sizes: an i-tile of output rows shares one pass over a
        // KB-row panel of rhs (≈ KB·cols f32 ≤ a few hundred KiB, L2-sized).
        const IB: usize = 32;
        const KB: usize = 256;
        let n = rhs.cols;
        let rows_here = out_rows.len() / n;
        out_rows.fill(0.0);
        for li0 in (0..rows_here).step_by(IB) {
            let li1 = (li0 + IB).min(rows_here);
            for k0 in (0..self.cols).step_by(KB) {
                let k1 = (k0 + KB).min(self.cols);
                for li in li0..li1 {
                    let i = row0 + li;
                    let a_row = &self.data[i * self.cols + k0..i * self.cols + k1];
                    let out_row = &mut out_rows[li * n..(li + 1) * n];
                    let b_panel = rhs.data[k0 * n..k1 * n].chunks_exact(n);
                    for (&a, b_row) in a_row.iter().zip(b_panel) {
                        if a == 0.0 {
                            continue;
                        }
                        for (o, &b) in out_row.iter_mut().zip(b_row) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
    }

    /// Multiplication by the transpose of `rhs`: `self · rhsᵀ`.
    ///
    /// Useful for weight matrices stored output-major, and for attention
    /// scores `Q · Kᵀ`.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transposed_into(rhs, &mut out);
        out
    }

    /// `self · rhsᵀ` writing into a preallocated output.
    ///
    /// Large products are sharded by output rows across the global
    /// [`rayon_lite`] pool; small ones run serially. Both paths are
    /// bit-identical to [`Matrix::matmul_transposed_into_serial`] because
    /// every output element is a plain sequential dot over k whichever
    /// rows a thread owns.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transposed_into(&self, rhs: &Matrix, out: &mut Matrix) {
        let pool = rayon_lite::global();
        let muladds = self.rows * self.cols * rhs.rows;
        if pool.threads() > 1 && self.rows > 1 && muladds >= PAR_MIN_MULADDS {
            self.matmul_transposed_into_pool(rhs, out, pool);
        } else {
            self.matmul_transposed_into_serial(rhs, out);
        }
    }

    /// The serial kernel behind [`Matrix::matmul_transposed_into`].
    ///
    /// Blocked dot-product kernel: output is computed in 4×4 register
    /// tiles so each loaded `self`/`rhs` row participates in four dots per
    /// pass. Every output element keeps its own accumulator walked over k
    /// in order, so results match the naive per-element dot product
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transposed_into_serial(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_transposed_into_serial_with_leg(rhs, out, active_leg());
    }

    /// [`Matrix::matmul_transposed_into_serial`] on an explicit SIMD leg
    /// (oracle tests and benches).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, or if the leg is unavailable on
    /// this host.
    pub fn matmul_transposed_into_serial_with_leg(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        leg: SimdLeg,
    ) {
        self.matmul_transposed_check_shapes(rhs, out);
        if rhs.rows == 0 {
            return;
        }
        self.matmul_transposed_rows_leg(rhs, &mut out.data, 0, leg);
    }

    /// [`Matrix::matmul_transposed_into`] on an explicit pool, always
    /// sharding the output rows across its threads (bit-exactness tests
    /// and the threading bench).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transposed_into_pool(&self, rhs: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        self.matmul_transposed_check_shapes(rhs, out);
        let n = rhs.rows;
        if n == 0 {
            return;
        }
        let rows_per_chunk = self.rows.div_ceil(pool.threads()).max(1);
        pool.par_chunks_mut(&mut out.data, rows_per_chunk * n, |idx, chunk| {
            self.matmul_transposed_rows(rhs, chunk, idx * rows_per_chunk);
        });
    }

    fn matmul_transposed_check_shapes(&self, rhs: &Matrix, out: &Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transposed shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.rows),
            "matmul_transposed output shape mismatch"
        );
    }

    /// The 4×4-tiled dot-product kernel over output rows
    /// `[row0, row0 + out_rows.len() / rhs.rows)`. Each output element is
    /// one accumulator walked over k in ascending order — in the tiles and
    /// in the edge fallback alike — so where the 4×4 tile boundaries fall
    /// within a shard cannot change any value, and row sharding is
    /// bit-identical to the full-range serial call.
    fn matmul_transposed_rows(&self, rhs: &Matrix, out_rows: &mut [f32], row0: usize) {
        self.matmul_transposed_rows_leg(rhs, out_rows, row0, active_leg());
    }

    fn matmul_transposed_rows_leg(
        &self,
        rhs: &Matrix,
        out_rows: &mut [f32],
        row0: usize,
        leg: SimdLeg,
    ) {
        match leg {
            SimdLeg::Scalar => self.matmul_transposed_rows_scalar(rhs, out_rows, row0),
            #[cfg(target_arch = "x86_64")]
            SimdLeg::Avx2 => unsafe { self.matmul_transposed_rows_avx2(rhs, out_rows, row0) },
            #[cfg(target_arch = "aarch64")]
            SimdLeg::Neon => unsafe { self.matmul_transposed_rows_neon(rhs, out_rows, row0) },
            #[allow(unreachable_patterns)]
            other => panic!("SIMD leg {} unavailable on this host", other.name()),
        }
    }

    fn matmul_transposed_rows_scalar(&self, rhs: &Matrix, out_rows: &mut [f32], row0: usize) {
        const T: usize = 4;
        let k = self.cols;
        let n = rhs.rows;
        let rows_here = out_rows.len() / n;
        let mi = rows_here - rows_here % T;
        let nj = n - n % T;
        for li0 in (0..mi).step_by(T) {
            let i0 = row0 + li0;
            for j0 in (0..nj).step_by(T) {
                let mut acc = [[0.0f32; T]; T];
                let a = [
                    self.row(i0),
                    self.row(i0 + 1),
                    self.row(i0 + 2),
                    self.row(i0 + 3),
                ];
                let b = [
                    rhs.row(j0),
                    rhs.row(j0 + 1),
                    rhs.row(j0 + 2),
                    rhs.row(j0 + 3),
                ];
                for kk in 0..k {
                    let av = [a[0][kk], a[1][kk], a[2][kk], a[3][kk]];
                    let bv = [b[0][kk], b[1][kk], b[2][kk], b[3][kk]];
                    for (accr, &ai) in acc.iter_mut().zip(&av) {
                        for (accv, &bj) in accr.iter_mut().zip(&bv) {
                            *accv += ai * bj;
                        }
                    }
                }
                for (di, accr) in acc.iter().enumerate() {
                    out_rows[(li0 + di) * n + j0..(li0 + di) * n + j0 + T].copy_from_slice(accr);
                }
            }
        }
        // Edge rows/columns fall back to plain sequential dots (same
        // accumulation order as the tiles).
        let edge_dot = |i: usize, j: usize| -> f32 {
            let mut acc = 0.0f32;
            for (&x, &y) in self.row(i).iter().zip(rhs.row(j)) {
                acc += x * y;
            }
            acc
        };
        for li in 0..rows_here {
            let j_start = if li < mi { nj } else { 0 };
            for j in j_start..n {
                out_rows[li * n + j] = edge_dot(row0 + li, j);
            }
        }
    }

    /// AVX2 leg of the transposed kernel: up to 4 output rows × 8 output
    /// columns of vector accumulators (the last one to three rows of a
    /// range run the same tile at their own height, so an LM head over a
    /// handful of streams never leaves the vector path). Per 8-wide
    /// k-tile the 8×8 block
    /// of `rhs` is loaded row-wise and transposed in registers, after
    /// which lane `j` of every accumulator walks k in ascending order
    /// with separate multiply and add — the same per-element operation
    /// sequence as the scalar kernel, hence bit-identical. Ragged
    /// columns fall back to the scalar edge dot.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (callers go through the dispatch layer).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_transposed_rows_avx2(&self, rhs: &Matrix, out_rows: &mut [f32], row0: usize) {
        use core::arch::x86_64::*;

        /// In-register 8×8 f32 transpose (unpack/shuffle/permute ladder).
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn transpose8(r: &mut [__m256; 8]) {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            r[0] = _mm256_permute2f128_ps::<0x20>(s0, s4);
            r[1] = _mm256_permute2f128_ps::<0x20>(s1, s5);
            r[2] = _mm256_permute2f128_ps::<0x20>(s2, s6);
            r[3] = _mm256_permute2f128_ps::<0x20>(s3, s7);
            r[4] = _mm256_permute2f128_ps::<0x31>(s0, s4);
            r[5] = _mm256_permute2f128_ps::<0x31>(s1, s5);
            r[6] = _mm256_permute2f128_ps::<0x31>(s2, s6);
            r[7] = _mm256_permute2f128_ps::<0x31>(s3, s7);
        }

        /// `R` output rows × every whole 8-column block.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn row_tile<const R: usize>(
            lhs: &Matrix,
            rhs: &Matrix,
            out_rows: &mut [f32],
            li0: usize,
            i0: usize,
        ) {
            let k = lhs.cols;
            let n = rhs.rows;
            let nj = n - n % 8;
            let kb = k - k % 8;
            for j0 in (0..nj).step_by(8) {
                let mut acc = [_mm256_setzero_ps(); R];
                for k0 in (0..kb).step_by(8) {
                    let mut bt = [
                        _mm256_loadu_ps(rhs.data.as_ptr().add(j0 * k + k0)),
                        _mm256_loadu_ps(rhs.data.as_ptr().add((j0 + 1) * k + k0)),
                        _mm256_loadu_ps(rhs.data.as_ptr().add((j0 + 2) * k + k0)),
                        _mm256_loadu_ps(rhs.data.as_ptr().add((j0 + 3) * k + k0)),
                        _mm256_loadu_ps(rhs.data.as_ptr().add((j0 + 4) * k + k0)),
                        _mm256_loadu_ps(rhs.data.as_ptr().add((j0 + 5) * k + k0)),
                        _mm256_loadu_ps(rhs.data.as_ptr().add((j0 + 6) * k + k0)),
                        _mm256_loadu_ps(rhs.data.as_ptr().add((j0 + 7) * k + k0)),
                    ];
                    transpose8(&mut bt);
                    for (t, &bv) in bt.iter().enumerate() {
                        for (di, accv) in acc.iter_mut().enumerate() {
                            let a = lhs.data[(i0 + di) * k + k0 + t];
                            *accv = _mm256_add_ps(*accv, _mm256_mul_ps(_mm256_set1_ps(a), bv));
                        }
                    }
                }
                for kk in kb..k {
                    let bv = _mm256_setr_ps(
                        rhs.data[j0 * k + kk],
                        rhs.data[(j0 + 1) * k + kk],
                        rhs.data[(j0 + 2) * k + kk],
                        rhs.data[(j0 + 3) * k + kk],
                        rhs.data[(j0 + 4) * k + kk],
                        rhs.data[(j0 + 5) * k + kk],
                        rhs.data[(j0 + 6) * k + kk],
                        rhs.data[(j0 + 7) * k + kk],
                    );
                    for (di, accv) in acc.iter_mut().enumerate() {
                        let a = lhs.data[(i0 + di) * k + kk];
                        *accv = _mm256_add_ps(*accv, _mm256_mul_ps(_mm256_set1_ps(a), bv));
                    }
                }
                for (di, &accv) in acc.iter().enumerate() {
                    _mm256_storeu_ps(out_rows.as_mut_ptr().add((li0 + di) * n + j0), accv);
                }
            }
        }

        let n = rhs.rows;
        let rows_here = out_rows.len() / n;
        for li0 in (0..rows_here).step_by(4) {
            let i0 = row0 + li0;
            match rows_here - li0 {
                1 => row_tile::<1>(self, rhs, out_rows, li0, i0),
                2 => row_tile::<2>(self, rhs, out_rows, li0, i0),
                3 => row_tile::<3>(self, rhs, out_rows, li0, i0),
                _ => row_tile::<4>(self, rhs, out_rows, li0, i0),
            }
        }
        // The ragged column tail is plain sequential dots (same
        // accumulation order as the tiles).
        for li in 0..rows_here {
            for j in n - n % 8..n {
                let mut acc = 0.0f32;
                for (&x, &y) in self.row(row0 + li).iter().zip(rhs.row(j)) {
                    acc += x * y;
                }
                out_rows[li * n + j] = acc;
            }
        }
    }

    /// NEON leg of the transposed kernel: up to 4 output rows × 4 output
    /// columns of vector accumulators with an in-register 4×4 `rhs`
    /// transpose per k-tile; same ascending-k multiply-then-add order as
    /// the scalar kernel.
    ///
    /// # Safety
    ///
    /// Requires NEON.
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn matmul_transposed_rows_neon(&self, rhs: &Matrix, out_rows: &mut [f32], row0: usize) {
        use core::arch::aarch64::*;

        /// `R` output rows × every whole 4-column block.
        #[inline]
        #[target_feature(enable = "neon")]
        unsafe fn row_tile<const R: usize>(
            lhs: &Matrix,
            rhs: &Matrix,
            out_rows: &mut [f32],
            li0: usize,
            i0: usize,
        ) {
            let k = lhs.cols;
            let n = rhs.rows;
            let nj = n - n % 4;
            let kb = k - k % 4;
            for j0 in (0..nj).step_by(4) {
                let mut acc = [vdupq_n_f32(0.0); R];
                for k0 in (0..kb).step_by(4) {
                    let r0 = vld1q_f32(rhs.data.as_ptr().add(j0 * k + k0));
                    let r1 = vld1q_f32(rhs.data.as_ptr().add((j0 + 1) * k + k0));
                    let r2 = vld1q_f32(rhs.data.as_ptr().add((j0 + 2) * k + k0));
                    let r3 = vld1q_f32(rhs.data.as_ptr().add((j0 + 3) * k + k0));
                    let t01 = vtrnq_f32(r0, r1);
                    let t23 = vtrnq_f32(r2, r3);
                    let bt = [
                        vcombine_f32(vget_low_f32(t01.0), vget_low_f32(t23.0)),
                        vcombine_f32(vget_low_f32(t01.1), vget_low_f32(t23.1)),
                        vcombine_f32(vget_high_f32(t01.0), vget_high_f32(t23.0)),
                        vcombine_f32(vget_high_f32(t01.1), vget_high_f32(t23.1)),
                    ];
                    for (t, &bv) in bt.iter().enumerate() {
                        for (di, accv) in acc.iter_mut().enumerate() {
                            let a = lhs.data[(i0 + di) * k + k0 + t];
                            // vaddq+vmulq, not vfmaq: match scalar rounding.
                            *accv = vaddq_f32(*accv, vmulq_f32(vdupq_n_f32(a), bv));
                        }
                    }
                }
                for kk in kb..k {
                    let b: [f32; 4] = [
                        rhs.data[j0 * k + kk],
                        rhs.data[(j0 + 1) * k + kk],
                        rhs.data[(j0 + 2) * k + kk],
                        rhs.data[(j0 + 3) * k + kk],
                    ];
                    let bv = vld1q_f32(b.as_ptr());
                    for (di, accv) in acc.iter_mut().enumerate() {
                        let a = lhs.data[(i0 + di) * k + kk];
                        *accv = vaddq_f32(*accv, vmulq_f32(vdupq_n_f32(a), bv));
                    }
                }
                for (di, &accv) in acc.iter().enumerate() {
                    vst1q_f32(out_rows.as_mut_ptr().add((li0 + di) * n + j0), accv);
                }
            }
        }

        let n = rhs.rows;
        let rows_here = out_rows.len() / n;
        for li0 in (0..rows_here).step_by(4) {
            let i0 = row0 + li0;
            match rows_here - li0 {
                1 => row_tile::<1>(self, rhs, out_rows, li0, i0),
                2 => row_tile::<2>(self, rhs, out_rows, li0, i0),
                3 => row_tile::<3>(self, rhs, out_rows, li0, i0),
                _ => row_tile::<4>(self, rhs, out_rows, li0, i0),
            }
        }
        for li in 0..rows_here {
            for j in n - n % 4..n {
                let mut acc = 0.0f32;
                for (&x, &y) in self.row(row0 + li).iter().zip(rhs.row(j)) {
                    acc += x * y;
                }
                out_rows[li * n + j] = acc;
            }
        }
    }

    /// Reshapes in place to `rows × cols`, reusing the existing allocation
    /// when capacity allows. Contents are unspecified afterwards — callers
    /// must overwrite every element, which every kernel `_into` method
    /// does.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Grows the allocation so that a later [`Matrix::resize`] to
    /// `rows × cols` (or anything smaller) does not allocate. Shape and
    /// contents are untouched.
    pub fn reserve(&mut self, rows: usize, cols: usize) {
        self.data
            .reserve((rows * cols).saturating_sub(self.data.len()));
    }

    /// Copies `src` into `self`, adopting its shape and reusing the
    /// existing allocation when capacity allows.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Element-wise `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_inplace(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_inplace shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary combination.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_with shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `bias` (length = cols) to every row.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length must equal cols");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Scales all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Extracts the sub-matrix of columns `[start, start+width)`.
    pub fn slice_cols(&self, start: usize, width: usize) -> Matrix {
        assert!(
            start + width <= self.cols,
            "column slice {start}..{} out of bounds for {} cols",
            start + width,
            self.cols
        );
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Concatenates matrices horizontally (same row count).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols row mismatch");
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|x| format!("{x:9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -2.0, 0.0]]);
        assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transposed()));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().shape(), (3, 2));
        assert_eq!(a.transposed()[(2, 1)], 6.0);
    }

    #[test]
    fn add_bias_applies_per_row() {
        let mut a = Matrix::zeros(2, 2);
        a.add_bias(&[1.0, -1.0]);
        assert_eq!(a, Matrix::from_rows(&[&[1.0, -1.0], &[1.0, -1.0]]));
    }

    #[test]
    fn slice_and_concat_cols_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]);
        let left = a.slice_cols(0, 2);
        let right = a.slice_cols(2, 2);
        assert_eq!(Matrix::concat_cols(&[&left, &right]), a);
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = Matrix::from_rows(&[&[10.0, 10.0]]);
        assert_eq!(
            a.zip_with(&b, |x, y| x + y),
            Matrix::from_rows(&[&[11.0, 8.0]])
        );
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.mean(), -0.5);
    }

    #[test]
    fn col_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn matmul_transposed_blocked_matches_naive_all_shapes() {
        // Cover tile interiors plus both edge cases (m % 4, n % 4 ≠ 0).
        for (m, k, n) in [(1, 3, 1), (4, 8, 4), (5, 7, 6), (9, 16, 11)] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i as f32).sin()).collect());
            let b = Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32).cos()).collect());
            let blocked = a.matmul_transposed(&b);
            let naive = a.matmul(&b.transposed());
            assert_eq!(blocked, naive, "shape {m}x{k}·({n}x{k})ᵀ");
        }
    }

    #[test]
    fn every_simd_leg_matches_the_scalar_oracle() {
        use anda_fp::simd::available_legs;
        // Adversarial shapes: below one vector width, exact multiples,
        // ragged tails in every dimension, and a zero-heavy A (exercises
        // the sparsity skip).
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 12),
            (8, 16, 17),
            (9, 33, 31),
            (13, 40, 25),
        ] {
            let mut a = Matrix::from_vec(
                m,
                k,
                (0..m * k)
                    .map(|i| ((i as f32) * 0.37).sin() * 3.0)
                    .collect(),
            );
            for i in (0..m * k).step_by(3) {
                a.as_mut_slice()[i] = 0.0;
            }
            let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect());
            let bt = Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32 * 0.23).sin()).collect());
            let mut reference = Matrix::zeros(m, n);
            a.matmul_into_serial_with_leg(&b, &mut reference, anda_fp::SimdLeg::Scalar);
            let mut reference_t = Matrix::zeros(m, n);
            a.matmul_transposed_into_serial_with_leg(
                &bt,
                &mut reference_t,
                anda_fp::SimdLeg::Scalar,
            );
            for leg in available_legs() {
                let mut out = Matrix::zeros(m, n);
                a.matmul_into_serial_with_leg(&b, &mut out, leg);
                let same = out
                    .as_slice()
                    .iter()
                    .zip(reference.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "matmul leg={} shape {m}x{k}x{n}", leg.name());

                let mut out_t = Matrix::zeros(m, n);
                a.matmul_transposed_into_serial_with_leg(&bt, &mut out_t, leg);
                let same_t = out_t
                    .as_slice()
                    .iter()
                    .zip(reference_t.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same_t, "matmul_t leg={} shape {m}x{k}x{n}", leg.name());
            }
        }
    }

    #[test]
    fn multiplying_by_a_zero_equals_skipping_it() {
        // The scalar oracle skips `a == 0`; the register tiles (four or
        // more rows) multiply through. Accumulators start at +0.0 and can
        // never become -0.0, so `acc + 0·b` is `acc` for every finite
        // `b`: all-zero rows of either sign give +0.0 everywhere, and
        // zeros scattered through a dense row change nothing.
        use anda_fp::simd::available_legs;
        let (m, k, n) = (6, 40, 33);
        let mut a = Matrix::from_vec(
            m,
            k,
            (0..m * k)
                .map(|i| match (i / k, i % 3) {
                    (0, _) => 0.0,
                    (1, _) => -0.0,
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    _ => (i as f32 * 0.7).cos(),
                })
                .collect(),
        );
        a.row_mut(5).iter_mut().for_each(|x| *x = x.abs() + 0.5);
        let b = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|i| (i as f32 * 0.3).sin() * 1e3).collect(),
        );
        let mut oracle = Matrix::zeros(m, n);
        a.matmul_into_serial_with_leg(&b, &mut oracle, anda_fp::SimdLeg::Scalar);
        assert!(oracle.as_slice()[..2 * n].iter().all(|x| x.to_bits() == 0));
        for leg in available_legs() {
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_serial_with_leg(&b, &mut out, leg);
            let same = out
                .as_slice()
                .iter()
                .zip(oracle.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "leg {}", leg.name());
        }
    }

    #[test]
    fn matmul_into_reuses_output_and_matches() {
        let a = Matrix::from_vec(5, 6, (0..30).map(|i| i as f32 * 0.3 - 4.0).collect());
        let b = Matrix::from_vec(6, 7, (0..42).map(|i| 2.0 - i as f32 * 0.1).collect());
        let mut out = Matrix::zeros(5, 7);
        out.as_mut_slice().fill(99.0); // stale contents must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn resize_reuses_allocation() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let cap = m.data.capacity();
        // Shrinking and same-count reshapes stay within the allocation
        // (contents are unspecified; callers overwrite).
        m.resize(1, 3);
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(m.data.capacity(), cap);
        m.resize(3, 1);
        assert_eq!(m.shape(), (3, 1));
        assert_eq!(m.data.capacity(), cap);
        // Growing within capacity also avoids reallocation.
        m.resize(2, 2);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.data.capacity(), cap);
    }

    #[test]
    fn zero_dimension_matmuls_are_valid() {
        // Degenerate shapes must produce empty results, not panic.
        let a = Matrix::zeros(2, 3);
        assert_eq!(a.matmul(&Matrix::zeros(3, 0)).shape(), (2, 0));
        assert_eq!(
            Matrix::zeros(0, 3).matmul(&Matrix::zeros(3, 4)).shape(),
            (0, 4)
        );
        assert_eq!(a.matmul_transposed(&Matrix::zeros(0, 3)).shape(), (2, 0));
        let empty_k = Matrix::zeros(2, 0);
        assert_eq!(empty_k.matmul(&Matrix::zeros(0, 4)), Matrix::zeros(2, 4));
        assert_eq!(
            empty_k.matmul_transposed(&Matrix::zeros(5, 0)),
            Matrix::zeros(2, 5)
        );
    }

    #[test]
    fn copy_from_adopts_shape_and_contents() {
        let src = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut dst = Matrix::zeros(4, 4);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn add_inplace_matches_zip_with() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, 1.0], &[-1.5, 2.0]]);
        let mut c = a.clone();
        c.add_inplace(&b);
        assert_eq!(c, a.zip_with(&b, |x, y| x + y));
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let rows: Vec<&[f32]> = a.rows_iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }
}
