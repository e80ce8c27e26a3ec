//! Row-major `f32` matrices.
//!
//! Both products, `lhs · rhs` and `lhs · rhsᵀ`, run one kernel behind
//! [`anda_fp::simd`]'s runtime dispatch: on the AVX2/NEON legs an
//! output-stationary register tile (4 rows × 16 columns of accumulators
//! walked over `k`, `rhs` column strips packed contiguous — `tile.rs`,
//! whose pack is the only code that knows which way `rhs` is held), on
//! the scalar leg the oracles at the end of the `impl`. One sharding rule
//! and one auto-dispatch threshold serve both. Each vector lane owns one
//! output element and accumulates over `k` in the same ascending order as
//! the scalar kernel, with separate multiply and add (no FMA
//! contraction) — so every leg is `f32::to_bits`-identical to the scalar
//! oracle (row-major: for finite `rhs`; transposed: always), preserving
//! the bit-exactness invariant the serving stack is built on.
//!
//! [`Strided`] runs the same kernel over windows of buffers a caller owns
//! for other reasons, with explicit row strides and an accumulate flag:
//! the attention page walk's per-head `q · Kᵀ` and `p · V` blocks.

use core::fmt;
use core::ops::{Index, IndexMut};

use anda_fp::simd::{active_leg, SimdLeg};
use rayon_lite::ThreadPool;

use crate::tile::{self, Layout, Operands, OutBlock, TILE_COLS, TILE_ROWS};

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
    /// so results are bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into_on(&self, rhs: &Matrix, out: &mut Matrix, pool: Option<&ThreadPool>) {
        self.product_on(rhs, Layout::RowMajor, out, pool);
    }

    /// The serial kernel behind [`Matrix::matmul_into`] on an explicit
    /// SIMD leg (oracle tests and the `kernels` bin; production code lets
    /// the dispatch layer pick): the register tile of `tile.rs` on a
    /// vector leg, a blocked ikj axpy walk on the scalar one. Every output
    /// element accumulates over `k` in ascending order, so results are
    /// bit-identical to the naive ikj kernel for finite `rhs`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, or if the leg is unavailable on
    /// this host.
    pub fn matmul_into_serial_with_leg(&self, rhs: &Matrix, out: &mut Matrix, leg: SimdLeg) {
        leg.assert_available();
        self.product_serial(rhs, Layout::RowMajor, out, leg);
    }

    /// [`Matrix::matmul_into`] on an explicit pool, always sharding
    /// across its threads (the cross-thread-count bit-exactness tests
    /// and the `kernels` bin call it directly). With at least one
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
        self.product_pool(rhs, Layout::RowMajor, out, pool);
    }

    /// Multiplication by the transpose of `rhs`: `self · rhsᵀ`, for a
    /// weight matrix stored output-major — the tied LM head's embedding
    /// table.
    ///
    /// It is the same kernel as [`Matrix::matmul`] with a transposing
    /// panel pack, and nothing in it skips a zero: every output element is
    /// the plain ascending-`k` dot `Σ_k self[i][k] · rhs[j][k]` from
    /// `+0.0`, bit for bit, on every input — non-finite `rhs` included —
    /// at every SIMD leg and thread count.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transposed_into(rhs, &mut out);
        out
    }

    /// `self · rhsᵀ` writing into a preallocated output, on the global
    /// [`rayon_lite`] pool; see [`Matrix::matmul_transposed_into_on`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transposed_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_transposed_into_on(rhs, out, Some(rayon_lite::global()));
    }

    /// [`Matrix::matmul_transposed_into`] on the caller's pool, under
    /// [`Matrix::matmul_into_on`]'s rule: large products are sharded
    /// ([`Matrix::matmul_transposed_into_pool`]), small ones — a one-row
    /// LM head over a 512-token vocabulary — and everything when `pool`
    /// is `None` run serially. Bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transposed_into_on(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        pool: Option<&ThreadPool>,
    ) {
        self.product_on(rhs, Layout::Transposed, out, pool);
    }

    /// The serial kernel behind [`Matrix::matmul_transposed_into`] on an
    /// explicit SIMD leg (oracle tests and the `kernels` bin): the
    /// register tile over transposing panel packs on a vector leg, plain
    /// per-element dots on the scalar one.
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
        leg.assert_available();
        self.product_serial(rhs, Layout::Transposed, out, leg);
    }

    /// [`Matrix::matmul_transposed_into`] on an explicit pool, always
    /// sharding across its threads the way [`Matrix::matmul_into_pool`]
    /// does (bit-exactness tests and the `kernels` bin).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transposed_into_pool(&self, rhs: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        self.product_pool(rhs, Layout::Transposed, out, pool);
    }

    /// `(k, n)` of `self` as the `rhs` of a product, read through `layout`.
    fn rhs_shape(&self, layout: Layout) -> (usize, usize) {
        match layout {
            Layout::RowMajor => (self.rows, self.cols),
            Layout::Transposed => (self.cols, self.rows),
        }
    }

    /// Checks the shapes of `out = self · rhs` and returns the output
    /// width `n`.
    fn product_check_shapes(&self, rhs: &Matrix, layout: Layout, out: &Matrix) -> usize {
        let (k, n) = rhs.rhs_shape(layout);
        let (name, t) = match layout {
            Layout::RowMajor => ("matmul", ""),
            Layout::Transposed => ("matmul_transposed", "ᵀ"),
        };
        assert_eq!(
            self.cols, k,
            "{name} shape mismatch: {}x{} · ({}x{}){t}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, n),
            "{name} output shape mismatch"
        );
        n
    }

    /// The one auto-dispatch rule of both layouts.
    fn product_on(
        &self,
        rhs: &Matrix,
        layout: Layout,
        out: &mut Matrix,
        pool: Option<&ThreadPool>,
    ) {
        let muladds = self.len() * out.cols;
        match pool {
            Some(pool) if pool.threads() > 1 && muladds >= PAR_MIN_MULADDS => {
                self.product_pool(rhs, layout, out, pool)
            }
            _ => self.product_serial(rhs, layout, out, active_leg()),
        }
    }

    fn product_serial(&self, rhs: &Matrix, layout: Layout, out: &mut Matrix, leg: SimdLeg) {
        if self.product_check_shapes(rhs, layout, out) == 0 {
            // Degenerate m×0 output: nothing to accumulate (and the
            // kernels divide by the width).
            return;
        }
        self.product_rows(rhs, layout, &mut out.data, 0, leg);
    }

    /// The one sharding rule of both layouts; see
    /// [`Matrix::matmul_into_pool`].
    fn product_pool(&self, rhs: &Matrix, layout: Layout, out: &mut Matrix, pool: &ThreadPool) {
        let n = self.product_check_shapes(rhs, layout, out);
        if n == 0 {
            return;
        }
        let leg = active_leg();
        let threads = pool.threads();
        if leg == SimdLeg::Scalar || self.rows >= TILE_ROWS * threads {
            let rows_per_chunk = self.rows.div_ceil(threads).next_multiple_of(TILE_ROWS);
            pool.par_chunks_mut(&mut out.data, rows_per_chunk * n, |idx, chunk| {
                self.product_rows(rhs, layout, chunk, idx * rows_per_chunk, leg);
            });
            return;
        }
        let cols_per_job = n.div_ceil(threads).next_multiple_of(TILE_COLS);
        let ptr = out.data.as_mut_ptr();
        let ops = &self.operands(rhs, layout);
        pool.scope(|s| {
            for c0 in (0..n).step_by(cols_per_job) {
                let block = OutBlock {
                    ptr,
                    row0: 0,
                    rows: self.rows,
                    cols: c0..(c0 + cols_per_job).min(n),
                };
                // SAFETY: `out` is exclusively borrowed until the scope
                // joins, holds `rows` rows of `n` (shapes checked above),
                // and the jobs' column ranges are disjoint; `leg` is the
                // active one, which the CPU runs.
                s.spawn(move || unsafe { block_on_leg(ops, &block, leg) });
            }
        });
    }

    /// Output rows `[row0, row0 + out_rows.len() / n)` on `leg`, `n` being
    /// the output width `layout` gives. Each output element accumulates
    /// over k in ascending order regardless of `row0`, the leg or any
    /// tile boundary, which is what makes every sharding bit-identical to
    /// the full-range serial call.
    fn product_rows(
        &self,
        rhs: &Matrix,
        layout: Layout,
        out_rows: &mut [f32],
        row0: usize,
        leg: SimdLeg,
    ) {
        let (_, n) = rhs.rhs_shape(layout);
        if leg == SimdLeg::Scalar {
            return match layout {
                Layout::RowMajor => self.matmul_rows_scalar(rhs, out_rows, row0),
                Layout::Transposed => self.matmul_transposed_rows_scalar(rhs, out_rows, row0),
            };
        }
        let block = OutBlock {
            ptr: out_rows.as_mut_ptr(),
            row0,
            rows: out_rows.len() / n,
            cols: 0..n,
        };
        // SAFETY: `out_rows` is exclusively borrowed and holds exactly
        // `rows` full output rows, so the block covers memory this call
        // owns; the callers checked the shapes, and pass `active_leg()`
        // or a leg a `_with_leg` entry asserted available.
        unsafe { block_on_leg(&self.operands(rhs, layout), &block, leg) }
    }

    /// `self · rhs` (through `layout`) as the kernel takes it: every stride
    /// is the width of its matrix, every sum starts at `+0.0`, and `rhs`
    /// streams from memory.
    fn operands<'a>(&'a self, rhs: &'a Matrix, layout: Layout) -> Operands<'a> {
        Operands {
            lhs: &self.data,
            lda: self.cols,
            rhs: &rhs.data,
            ldb: rhs.cols,
            layout,
            k: self.cols,
            ldc: rhs.rhs_shape(layout).1,
            accumulate: false,
            resident: false,
        }
    }

    /// The scalar oracle every vector leg of the row-major product is
    /// pinned to: a blocked ikj axpy walk, `out[i][j] += a[i][k] · b[k][j]`
    /// for ascending `k`, one rounding per multiply and per add.
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

    /// The scalar oracle of the transposed product: one plain
    /// ascending-`k` dot per output element.
    fn matmul_transposed_rows_scalar(&self, rhs: &Matrix, out_rows: &mut [f32], row0: usize) {
        for (li, out_row) in out_rows.chunks_exact_mut(rhs.rows).enumerate() {
            let a_row = self.row(row0 + li);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = tile::dot(0.0, a_row, rhs.row(j));
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

/// Runs the register-tiled kernel of a vector leg over `block`.
///
/// # Safety
///
/// [`tile::Leg::block`]'s contract — `ops` and `block` must describe
/// memory the caller may read and exclusively write — and the CPU must run
/// `leg`.
unsafe fn block_on_leg(ops: &Operands, block: &OutBlock, leg: SimdLeg) {
    match leg {
        #[cfg(target_arch = "x86_64")]
        SimdLeg::Avx2 => <tile::Avx2 as tile::Leg>::block(ops, block),
        #[cfg(target_arch = "aarch64")]
        SimdLeg::Neon => <tile::Neon as tile::Leg>::block(ops, block),
        #[allow(unreachable_patterns)]
        other => panic!("SIMD leg {} has no tiled kernel on this host", other.name()),
    }
}

/// A `rows × cols` row-major window of a longer buffer: row `r` is
/// `data[r · ld ..][.. cols]`. The operand type of the products a caller
/// runs over pieces of buffers it owns for other reasons — the attention
/// page walk multiplies one head's columns of a block of queries by one
/// head's columns of a cached page — where the window is small and
/// cache-resident and the call count is high.
///
/// Both products run the register tile of every [`Matrix`] product
/// (`tile.rs`) at every row count, on one thread, and skip nothing: output
/// element `(i, j)` is the ascending-`k` sum of `lhs[i][k] · rhs[k][j]`,
/// multiply then add, started from `+0.0` or — accumulating — from the
/// element's current value, `f32::to_bits`-identical on every leg **and
/// every input**, non-finite ones included. Output columns past the
/// product's width are never written.
#[derive(Clone, Copy, Debug)]
pub struct Strided<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    ld: usize,
}

/// Elements from the first of a `rows × cols` window of stride `ld` to its
/// last.
fn strided_span(rows: usize, cols: usize, ld: usize) -> usize {
    match rows.min(cols) {
        0 => 0,
        _ => (rows - 1) * ld + cols,
    }
}

impl<'a> Strided<'a> {
    /// The window of `data` starting at its first element.
    ///
    /// # Panics
    ///
    /// Panics if `cols > ld` or the window runs past `data`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(
            cols <= ld && strided_span(rows, cols, ld) <= data.len(),
            "a {rows}x{cols} window of stride {ld} does not fit {} elements",
            data.len()
        );
        Strided {
            data,
            rows,
            cols,
            ld,
        }
    }

    /// `out (+)= self · rhs` on `leg`, `out`'s rows `ldc` apart; sums start
    /// from `out`'s contents when `accumulate`.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch, if `out` cannot hold the product, or if
    /// `leg` is unavailable on this host.
    pub fn matmul_into(
        &self,
        rhs: Strided<'_>,
        out: &mut [f32],
        ldc: usize,
        accumulate: bool,
        leg: SimdLeg,
    ) {
        self.product(rhs, Layout::RowMajor, out, ldc, accumulate, leg);
    }

    /// `out (+)= self · rhsᵀ`; see [`Strided::matmul_into`].
    ///
    /// # Panics
    ///
    /// As [`Strided::matmul_into`].
    pub fn matmul_transposed_into(
        &self,
        rhs: Strided<'_>,
        out: &mut [f32],
        ldc: usize,
        accumulate: bool,
        leg: SimdLeg,
    ) {
        self.product(rhs, Layout::Transposed, out, ldc, accumulate, leg);
    }

    fn product(
        &self,
        rhs: Strided<'_>,
        layout: Layout,
        out: &mut [f32],
        ldc: usize,
        accumulate: bool,
        leg: SimdLeg,
    ) {
        let (k, n) = match layout {
            Layout::RowMajor => (rhs.rows, rhs.cols),
            Layout::Transposed => (rhs.cols, rhs.rows),
        };
        assert_eq!(self.cols, k, "strided product shape mismatch");
        assert!(
            n <= ldc && strided_span(self.rows, n, ldc) <= out.len(),
            "a {}x{n} product of stride {ldc} does not fit {} elements",
            self.rows,
            out.len()
        );
        leg.assert_available();
        let ops = Operands {
            lhs: self.data,
            lda: self.ld,
            rhs: rhs.data,
            ldb: rhs.ld,
            layout,
            k,
            ldc,
            accumulate,
            resident: true,
        };
        if leg == SimdLeg::Scalar {
            return tile::resident_block_scalar(&ops, self.rows, n, out);
        }
        let block = OutBlock {
            ptr: out.as_mut_ptr(),
            row0: 0,
            rows: self.rows,
            cols: 0..n,
        };
        // SAFETY: `out` is exclusively borrowed and, as asserted, holds
        // the block's rows at stride `ldc`; `Strided::new` checked that
        // both windows lie inside their buffers, and the shapes agree;
        // `leg` was asserted available.
        unsafe { block_on_leg(&ops, &block, leg) }
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
            // The transposed form's oracle is the per-element dot, on
            // every input: it skips no zero, so a non-finite `rhs` is
            // within its contract (0 · ∞ is NaN in kernel and oracle).
            let mut bt =
                Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32 * 0.23).sin()).collect());
            bt[(0, 0)] = f32::INFINITY;
            bt[(n / 2, k - 1)] = f32::NAN;
            bt[(n - 1, k / 2)] = f32::NEG_INFINITY;
            let mut reference = Matrix::zeros(m, n);
            a.matmul_into_serial_with_leg(&b, &mut reference, anda_fp::SimdLeg::Scalar);
            let mut reference_t = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for (&x, &y) in a.row(i).iter().zip(bt.row(j)) {
                        acc += x * y;
                    }
                    reference_t[(i, j)] = acc;
                }
            }
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
    fn every_simd_leg_of_the_strided_products_matches_the_scalar_loops() {
        use anda_fp::simd::available_legs;
        // Windows of wider buffers (every stride exceeds its width), every
        // tile height and its remainders, `k` off the pack's 4-blocks,
        // widths around one strip, sums started from `+0.0` and from a
        // non-zero `out`. Nothing may skip: a zero `lhs` element against a
        // non-finite `rhs` one is a NaN in the loops and in every leg, and
        // what lies between the windows' rows must never be read as data
        // nor written. (NaNs compare as one value: which payload survives
        // the sum of two different NaNs depends on the operand order the
        // compiler picked for a commutative add, in the loops too.)
        let wave = |len: usize, f: f32| -> Vec<f32> {
            (0..len).map(|i| (i as f32 * f).sin() * 2.0).collect()
        };
        let bits = |v: &[f32]| -> Vec<u32> {
            let canonical = |x: &f32| if x.is_nan() { f32::NAN } else { *x }.to_bits();
            v.iter().map(canonical).collect()
        };
        for m in 1..=9usize {
            for (k, n) in [
                (1usize, 1usize),
                (5, 7),
                (16, 64),
                (7, 16),
                (13, 24),
                (22, 37),
            ] {
                let (lda, ldb_rm, ldb_t, ldc) = (k + 3, n + 5, k + 2, n + 1);
                let mut a = wave(m * lda, 0.37);
                a.iter_mut().step_by(3).for_each(|x| *x = 0.0);
                let mut b_rm = wave(k * ldb_rm, 0.11);
                let mut b_t = wave(n * ldb_t, 0.23);
                for b in [&mut b_rm, &mut b_t] {
                    let len = b.len();
                    b[0] = f32::INFINITY;
                    b[len / 2] = f32::NAN;
                }
                let lhs = Strided::new(&a, m, k, lda);
                for transposed in [false, true] {
                    let rhs = match transposed {
                        false => Strided::new(&b_rm, k, n, ldb_rm),
                        true => Strided::new(&b_t, n, k, ldb_t),
                    };
                    for accumulate in [false, true] {
                        let run = |leg: SimdLeg| {
                            let mut out = wave(m * ldc, 0.71);
                            match transposed {
                                false => lhs.matmul_into(rhs, &mut out, ldc, accumulate, leg),
                                true => {
                                    lhs.matmul_transposed_into(rhs, &mut out, ldc, accumulate, leg)
                                }
                            }
                            bits(&out)
                        };
                        // The loops themselves, spelled out once more.
                        let mut want = wave(m * ldc, 0.71);
                        for i in 0..m {
                            for j in 0..n {
                                let mut acc = if accumulate { want[i * ldc + j] } else { 0.0 };
                                for kk in 0..k {
                                    let b = match transposed {
                                        false => b_rm[kk * ldb_rm + j],
                                        true => b_t[j * ldb_t + kk],
                                    };
                                    acc += a[i * lda + kk] * b;
                                }
                                want[i * ldc + j] = acc;
                            }
                        }
                        let want = bits(&want);
                        for leg in available_legs() {
                            assert_eq!(
                                run(leg),
                                want,
                                "leg={} {m}x{k}x{n} transposed={transposed} accumulate={accumulate}",
                                leg.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_with_leg_entry_refuses_an_unavailable_leg() {
        // Neon on x86-64, Avx2 on aarch64 — or Avx2 on an x86-64 CPU
        // without it, where a missing check would be an illegal
        // instruction from safe code.
        let leg = [SimdLeg::Avx2, SimdLeg::Neon]
            .into_iter()
            .find(|leg| !leg.is_available())
            .expect("no host runs both vector legs");
        let want = format!("SIMD leg {} unavailable on this host", leg.name());
        let a = Matrix::identity(4);
        type Entry<'a> = (&'a str, &'a dyn Fn());
        let entries: [Entry; 2] = [
            ("matmul_into_serial_with_leg", &|| {
                a.matmul_into_serial_with_leg(&a, &mut Matrix::zeros(4, 4), leg)
            }),
            ("matmul_transposed_into_serial_with_leg", &|| {
                a.matmul_transposed_into_serial_with_leg(&a, &mut Matrix::zeros(4, 4), leg)
            }),
        ];
        for (name, entry) in entries {
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry)).expect_err(name);
            assert_eq!(panic.downcast_ref::<String>(), Some(&want), "{name}");
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
