//! Row-major `f32` matrices, and the [`PackedMatrix`] a weight is held as.
//!
//! Every [`Matrix`] product multiplies by a [`PackedMatrix`]: a served
//! model holds its weights packed once, and the `Matrix · Matrix` entries
//! ([`Matrix::matmul`], [`Matrix::matmul_into_on`],
//! [`Matrix::matmul_into_pool`]) pack their `rhs` per call. The product
//! runs one kernel behind [`anda_fp::simd`]'s runtime dispatch: on the
//! vector legs an output-stationary register tile (16 columns of
//! accumulators by 4 rows on AVX2 and NEON, 32 by 8 on AVX-512, walked
//! over `k`; one walk order over `rhs` column-strip panels — `tile.rs`,
//! whose panel source is the only code that knows how `rhs` is held:
//! `f32` strips read in place, INT4 codes dequantized in the register),
//! on the scalar leg an axpy loop over the same strips. One sharding
//! rule and one auto-dispatch threshold serve both forms, on whatever
//! pool the caller passes — [`rayon_lite::serial`] keeps a product on the
//! calling thread. Each vector lane owns one output element and
//! accumulates over `k` in the same ascending order as the scalar loop,
//! with separate multiply and add (no FMA contraction), and no kernel
//! skips a zero — so every leg is `f32::to_bits`-identical to the naive
//! ascending-`k` loop the suites hold, non-finite `rhs` included (which
//! payload survives where two different NaNs meet in one sum is the
//! compiler's pick of operand order), preserving the bit-exactness
//! invariant the serving stack is built on.
//! A product by a transpose (the tied LM head's `hidden · embedᵀ`) is the
//! packed product over [`PackedMatrix::pack_transposed`].
//!
//! [`Strided`] runs the same kernel over windows of buffers a caller owns
//! for other reasons, with explicit row strides, an accumulate flag and
//! the windows its rows cycle through: the attention page walk's `q · K`
//! and `p · V` blocks over position-minor keys and row-major values, every
//! head of every lane viewing a page at once.

use core::fmt;
use core::ops::{Index, IndexMut};

use anda_fp::simd::{active_leg, LegKind, SimdLeg};
use rayon_lite::ThreadPool;

use crate::tile::{
    self, BitPlanes, Element, Int4, Layout, Operands, OutBlock, Planes, STRIP_COLS, TILE_ROWS,
};

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
    /// For doc examples and test fixtures: a matrix written out literally.
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

    /// Matrix multiplication `self · rhs`, on the global [`rayon_lite`]
    /// pool (sized by `ANDA_THREADS`): [`Matrix::matmul_into_on`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into_on(rhs, &mut out, rayon_lite::global());
        out
    }

    /// Matrix multiplication writing into a preallocated output on the
    /// caller's pool: [`PackedMatrix::pack`] per call, then
    /// [`Matrix::matmul_packed_into_on`] over it. Served code holds its
    /// weights packed and packs nothing per call; this entry is for an
    /// operand made on the fly (the fake-quant GeMM's dequantised weight).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into_on(&self, rhs: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        self.matmul_packed_into_on(&PackedMatrix::pack(rhs), out, pool);
    }

    /// [`Matrix::matmul_into_on`] always sharding across `pool`'s threads:
    /// [`PackedMatrix::pack`] per call, then
    /// [`Matrix::matmul_packed_into_pool`] over it. Served code holds its
    /// weights packed; this entry is what `anda_perf`'s
    /// `tensor.matmul_gflops_*` probes time.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into_pool(&self, rhs: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        self.matmul_packed_into_pool(&PackedMatrix::pack(rhs), out, pool);
    }

    /// `self · rhs` over a weight held packed, writing into a
    /// preallocated output on the caller's pool — the product a model's
    /// projections run. Large products are sharded across the pool
    /// ([`Matrix::matmul_packed_into_pool`]); small ones, and everything
    /// on [`rayon_lite::serial`], run the serial kernel. The tile reads
    /// `rhs`'s strips where they lie, so nothing is packed per call. Every
    /// output element is the ascending-`k` sum `Σ_k self[i][k] · rhs[k][j]`
    /// from `+0.0`, multiply then add, over [`PackedMatrix::to_matrix`] —
    /// an INT4 weight's dequantisation — bit for bit, at every SIMD leg and
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_packed_into_on(&self, rhs: &PackedMatrix, out: &mut Matrix, pool: &ThreadPool) {
        if pool.threads() > 1 && self.len() * out.cols >= PAR_MIN_MULADDS {
            self.matmul_packed_into_pool(rhs, out, pool)
        } else {
            self.matmul_packed_into_serial_with_leg(rhs, out, active_leg())
        }
    }

    /// The serial kernel behind [`Matrix::matmul_packed_into_on`] on an
    /// explicit SIMD leg (oracle tests and the `kernels` bin; production
    /// code lets the dispatch layer pick): the register tile of `tile.rs`
    /// over the strips in place on a vector leg, an axpy walk over the
    /// strips on the scalar one.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_packed_into_serial_with_leg(
        &self,
        rhs: &PackedMatrix,
        out: &mut Matrix,
        leg: SimdLeg,
    ) {
        if self.product_check_shapes(rhs, out) == 0 {
            // Degenerate m×0 output: nothing to accumulate (and the
            // kernels divide by the width).
            return;
        }
        self.product_rows(rhs, &mut out.data, 0, leg);
    }

    /// [`Matrix::matmul_packed_into_on`] on an explicit pool, always
    /// sharding across its threads (the cross-thread-count bit-exactness
    /// tests and the `kernels` bin call it directly). With at least one
    /// register tile of rows per thread the output is split into row
    /// ranges on tile boundaries; with fewer rows — a decode step — the
    /// vector legs split it into column ranges on tile boundaries (strip
    /// pairs on AVX-512) instead, so every thread streams its own share of
    /// `rhs` once. Both are bit-identical to the serial kernel.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_packed_into_pool(&self, rhs: &PackedMatrix, out: &mut Matrix, pool: &ThreadPool) {
        let n = self.product_check_shapes(rhs, out);
        if n == 0 {
            return;
        }
        let leg = active_leg();
        let threads = pool.threads();
        let (tile_rows, tile_cols) = streamed_tile(leg);
        if leg == SimdLeg::SCALAR || self.rows >= tile_rows * threads {
            let rows_per_chunk = self.rows.div_ceil(threads).next_multiple_of(tile_rows);
            pool.par_chunks_mut(&mut out.data, rows_per_chunk * n, |idx, chunk| {
                self.product_rows(rhs, chunk, idx * rows_per_chunk, leg);
            });
            return;
        }
        let cols_per_job = n.div_ceil(threads).next_multiple_of(tile_cols);
        let ptr = out.data.as_mut_ptr();
        let ops = &self.operands(rhs);
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
                // and the jobs' column ranges are disjoint and start on
                // strip boundaries.
                s.spawn(move || unsafe { block_on_leg(ops, &block, leg) });
            }
        });
    }

    /// `self · rhsᵀ` on an explicit pool, for an `rhs` held `n × k`:
    /// [`PackedMatrix::pack_transposed`] per call, then
    /// [`Matrix::matmul_packed_into_pool`] over it. Every output element is
    /// the ascending-`k` dot `Σ_k self[i][k] · rhs[j][k]` from `+0.0`, bit
    /// for bit, at every SIMD leg and thread count.
    ///
    /// Not on the served path (the tied LM head holds its table packed
    /// once): what `anda_perf`'s `tensor.matmul_t_gflops_lmhead` times.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transposed_into_pool(&self, rhs: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        self.matmul_packed_into_pool(&PackedMatrix::pack_transposed(rhs), out, pool);
    }

    /// Checks the shapes of `out = self · rhs` and returns the output
    /// width `n`.
    fn product_check_shapes(&self, rhs: &PackedMatrix, out: &Matrix) -> usize {
        let (k, n) = rhs.shape();
        // Formatted only on a mismatch: a served step checks its shapes
        // without allocating.
        let form = match rhs.form {
            Form::F32(..) => "packed",
            Form::Int4(..) => "INT4",
        };
        assert_eq!(
            self.cols, k,
            "matmul_packed shape mismatch: {}x{} · {k}x{n} {form}",
            self.rows, self.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, n),
            "matmul_packed output shape mismatch"
        );
        n
    }

    /// Output rows `[row0, row0 + out_rows.len() / n)` on `leg`, `n` being
    /// `rhs`'s width. Each output element accumulates over k in ascending
    /// order regardless of `row0`, the leg or any tile boundary, which is
    /// what makes every sharding bit-identical to the full-range serial
    /// call.
    fn product_rows(&self, rhs: &PackedMatrix, out_rows: &mut [f32], row0: usize, leg: SimdLeg) {
        if leg == SimdLeg::SCALAR {
            return self.matmul_packed_rows_scalar(rhs, out_rows, row0);
        }
        let block = OutBlock {
            ptr: out_rows.as_mut_ptr(),
            row0,
            rows: out_rows.len() / rhs.n,
            cols: 0..rhs.n,
        };
        // SAFETY: `out_rows` is exclusively borrowed and holds exactly
        // `rows` full output rows, so the block covers memory this call
        // owns, and the callers checked the shapes.
        unsafe { block_on_leg(&self.operands(rhs), &block, leg) }
    }

    /// `self · rhs` as the kernel takes it: `self`'s stride is its width,
    /// every sum starts at `+0.0`, and `rhs` streams from memory, its `f32`
    /// strips read in place or its INT4 codes dequantized as they load.
    fn operands<'a>(&'a self, rhs: &'a PackedMatrix) -> Operands<'a> {
        let (data, layout) = match &rhs.form {
            Form::F32(data) => (&data[..], Layout::Packed),
            Form::Int4(..) => (&[][..], Layout::Int4),
        };
        Operands {
            lhs: &self.data,
            lda: self.cols,
            rhs: data,
            layout,
            k: self.cols,
            ldc: rhs.n,
            int4: rhs.int4(),
            ..Operands::default()
        }
    }

    /// The scalar leg of every `Matrix` product: an axpy walk, one strip of
    /// `rhs` and one row of it at a time, `out[i][j] += a[i][k] · b[k][j]`
    /// for ascending `k` from `+0.0`, one rounding per multiply and per
    /// add, skipping nothing — so a zero `a` against a non-finite `b` is a
    /// NaN here as in every tile. An INT4 row is dequantized first, into
    /// the values [`PackedMatrix::to_matrix`] holds.
    fn matmul_packed_rows_scalar(&self, rhs: &PackedMatrix, out_rows: &mut [f32], row0: usize) {
        let n = rhs.n;
        out_rows.fill(0.0);
        for (s, j0) in (0..n).step_by(STRIP_COLS).enumerate() {
            for kk in 0..rhs.k {
                let line = rhs.line(s, kk);
                for (li, out_row) in out_rows.chunks_exact_mut(n).enumerate() {
                    let a = self.data[(row0 + li) * self.cols + kk];
                    for (o, &b) in out_row[j0..].iter_mut().take(STRIP_COLS).zip(&line) {
                        *o += a * b;
                    }
                }
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
    ///
    /// Not on the served path: the suites build the operands of their
    /// GEMM oracles with it.
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

    /// Scales all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
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

/// A `k × n` matrix held the way the register tile reads a `rhs`: ⌈n/16⌉
/// strips of `k × 16` back to back, strip `s` holding columns `16s ..
/// 16s + 16` row by row (`m[r][16s + j]` at `(s · k + r) · 16 + j`), the
/// last strip zero-padded past column `n`.
///
/// It is the one copy of every projection weight and the tied embedding a
/// model holds, in one of two forms in that strip order:
///
/// * **`f32`** ([`PackedMatrix::pack`]): each weight of an FP16-mode model
///   is sampled row-major into a reused buffer and packed from it once,
///   the embedding table packed transposed
///   ([`PackedMatrix::pack_transposed`]: token `t` is column `t`, read by
///   [`PackedMatrix::col`]).
/// * **INT4** ([`PackedMatrix::pack_int4`]): a W4 weight is its signed
///   4-bit integers, biased by 8 and two to a byte, and one `f32` scale
///   per (group of rows, column) — an eighth of the bytes. The tile
///   dequantizes each element as it loads it, to `f32::from(v) · scale`,
///   so no `f32` copy of the weight exists and every product is the one
///   over the dequantised matrix ([`PackedMatrix::to_matrix`]), bit for
///   bit.
///
/// Every product over it ([`Matrix::matmul_packed_into_on`]) reads its
/// panels where they lie, walking the matrix front to back.
///
/// # Example
///
/// ```
/// use anda_tensor::{Matrix, PackedMatrix};
///
/// let w = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// let packed = PackedMatrix::pack(&w);
/// assert_eq!(packed.to_matrix(), w);
/// let x = Matrix::from_rows(&[&[1.0, -1.0]]);
/// let mut y = Matrix::zeros(1, 3);
/// x.matmul_packed_into_on(&packed, &mut y, rayon_lite::serial());
/// assert_eq!(y, x.matmul(&w));
///
/// // The same shape as INT4 codes, one scale per column (a group of 2 rows).
/// let q = PackedMatrix::pack_int4(2, 3, 2, &[1, -2, 7, -8, 0, 3], &[0.5, 1.0, 0.25]);
/// assert_eq!(q.to_matrix(), Matrix::from_rows(&[&[0.5, -2.0, 1.75], &[-4.0, 0.0, 0.75]]));
/// x.matmul_packed_into_on(&q, &mut y, rayon_lite::serial());
/// assert_eq!(y, x.matmul(&q.to_matrix()));
/// ```
#[derive(Clone, PartialEq)]
pub struct PackedMatrix {
    k: usize,
    n: usize,
    form: Form,
}

/// The form a [`PackedMatrix`] holds its strips in.
#[derive(Clone, PartialEq)]
enum Form {
    /// The values.
    F32(Vec<f32>),
    /// [`crate::tile::Int4`]'s codes, scales and group size, owned.
    Int4(Vec<u8>, Vec<f32>, usize),
}

impl PackedMatrix {
    /// Packs a row-major `k × n` matrix, writing the strips in memory order.
    pub fn pack(m: &Matrix) -> Self {
        let (k, n) = m.shape();
        let mut data = Vec::with_capacity(n.div_ceil(STRIP_COLS) * k * STRIP_COLS);
        for j0 in (0..n).step_by(STRIP_COLS) {
            let width = STRIP_COLS.min(n - j0);
            for row in m.data.chunks_exact(n) {
                data.extend_from_slice(&row[j0..][..width]);
                data.extend_from_slice(&[0.0; STRIP_COLS][width..]);
            }
        }
        PackedMatrix {
            k,
            n,
            form: Form::F32(data),
        }
    }

    /// Packs the transpose of a row-major `n × k` matrix — the `k × n`
    /// matrix whose column `j` is `m`'s row `j` —, writing the strips in
    /// memory order: a strip is sixteen of `m`'s rows side by side.
    pub fn pack_transposed(m: &Matrix) -> Self {
        let (n, k) = m.shape();
        let mut data = Vec::with_capacity(n.div_ceil(STRIP_COLS) * k * STRIP_COLS);
        for rows in m.data.chunks(STRIP_COLS * k.max(1)) {
            for r in 0..k {
                let mut line = [0.0; STRIP_COLS];
                for (x, row) in line.iter_mut().zip(rows.chunks_exact(k)) {
                    *x = row[r];
                }
                data.extend_from_slice(&line);
            }
        }
        PackedMatrix {
            k,
            n,
            form: Form::F32(data),
        }
    }

    /// Packs the `k × n` matrix whose element `(r, c)` is `f32::from(v) ·
    /// s` for the signed 4-bit `v = values[r · n + c]` and `s = scales[r /
    /// group · n + c]` — a group-wise quantised weight — as its INT4 form:
    /// the codes `v + 8`, two to a byte, and the scales, each in strip
    /// order. A padding column is code 8 at scale 0.
    ///
    /// # Panics
    ///
    /// Panics if `group` is 0, if `values` does not hold `k · n` integers in
    /// `-8..=7` or `scales` `⌈k / group⌉ · n` scales.
    pub fn pack_int4(k: usize, n: usize, group: usize, values: &[i8], scales: &[f32]) -> Self {
        assert!(group > 0, "an INT4 group holds at least one row");
        let groups = k.div_ceil(group);
        assert_eq!(values.len(), k * n, "INT4 values of a {k}x{n} matrix");
        assert_eq!(scales.len(), groups * n, "INT4 scales of {groups} groups");
        let (mut codes, mut strip_scales) = (Vec::new(), Vec::new());
        for j0 in (0..n).step_by(STRIP_COLS) {
            let width = STRIP_COLS.min(n - j0);
            for row in values.chunks_exact(n) {
                // Every code 8 to start with: a padding column's.
                let mut word = 0x8888_8888_8888_8888u64;
                for (j, &v) in row[j0..][..width].iter().enumerate() {
                    assert!((-8..=7).contains(&v), "{v} is not a signed 4-bit integer");
                    let shift = 4 * tile::code_nibble(j);
                    word = word & !(0xf << shift) | ((v + 8) as u64) << shift;
                }
                codes.extend(word.to_le_bytes());
            }
            for group_scales in scales.chunks_exact(n) {
                strip_scales.extend_from_slice(&group_scales[j0..][..width]);
                strip_scales.extend_from_slice(&[0.0; STRIP_COLS][width..]);
            }
        }
        let form = Form::Int4(codes, strip_scales, group);
        PackedMatrix { k, n, form }
    }

    /// Number of rows, `k`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Number of columns, `n`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Elements held, the last strip's padding included: `k · 16 ·
    /// ⌈n/16⌉`, in either form.
    ///
    /// Not on the served path: `tests/simulator_consistency.rs` pins the
    /// held weight elements with `==`.
    #[inline]
    pub fn stored_len(&self) -> usize {
        match &self.form {
            Form::F32(data) => data.len(),
            Form::Int4(codes, ..) => codes.len() * 2,
        }
    }

    /// Bytes the matrix holds: four per element in the `f32` form; half
    /// a byte per element plus four per scale in the INT4 form.
    pub fn resident_bytes(&self) -> usize {
        match &self.form {
            Form::F32(data) => core::mem::size_of_val(&data[..]),
            Form::Int4(codes, scales, _) => codes.len() + core::mem::size_of_val(&scales[..]),
        }
    }

    /// The `f32` form's values.
    ///
    /// # Panics
    ///
    /// Panics on the INT4 form, which holds none.
    fn values(&self) -> &[f32] {
        match &self.form {
            Form::F32(data) => data,
            Form::Int4(..) => panic!("an INT4 PackedMatrix holds no f32 values"),
        }
    }

    /// Every stored value in packed order, the zero padding included: for
    /// element-wise updates, which the layout does not change.
    ///
    /// # Panics
    ///
    /// Panics on the INT4 form, which holds no `f32` values.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        match &mut self.form {
            Form::F32(data) => data,
            Form::Int4(..) => panic!("an INT4 PackedMatrix holds no f32 values"),
        }
    }

    /// Column `c`, top to bottom: one element of each sixteen-float line
    /// of its strip.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`, or on the INT4 form.
    pub fn col(&self, c: usize) -> impl Iterator<Item = &f32> {
        let (strip, j) = self.strip_of(c);
        let lines = self.values()[strip].chunks_exact(STRIP_COLS);
        lines.map(move |line| &line[j])
    }

    /// Column `c`, top to bottom, for writing.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`, or on the INT4 form.
    pub fn col_mut(&mut self, c: usize) -> impl Iterator<Item = &mut f32> {
        let (strip, j) = self.strip_of(c);
        let lines = self.as_mut_slice()[strip].chunks_exact_mut(STRIP_COLS);
        lines.map(move |line| &mut line[j])
    }

    /// Where column `c`'s strip is stored, and the column's place in it.
    fn strip_of(&self, c: usize) -> (core::ops::Range<usize>, usize) {
        assert!(c < self.n, "col {c} out of bounds for {} cols", self.n);
        let len = self.k * STRIP_COLS;
        let start = c / STRIP_COLS * len;
        (start..start + len, c % STRIP_COLS)
    }

    /// The row-major matrix this one packs, bit for bit — of the INT4 form,
    /// the dequantised values every product multiplies by.
    ///
    /// Not on the served path: the suites' pack round-trip oracle.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::default();
        self.to_matrix_into(&mut m);
        m
    }

    /// [`PackedMatrix::to_matrix`] into `out`, reshaped to `k × n` and
    /// reusing its allocation; the strips are read in memory order.
    pub fn to_matrix_into(&self, out: &mut Matrix) {
        let (k, n) = self.shape();
        out.resize(k, n);
        if k == 0 {
            return;
        }
        for (s, j0) in (0..n).step_by(STRIP_COLS).enumerate() {
            let width = STRIP_COLS.min(n - j0);
            for (r, dst) in out.data[j0..].chunks_mut(n).take(k).enumerate() {
                dst[..width].copy_from_slice(&self.line(s, r)[..width]);
            }
        }
    }

    /// The INT4 form as the tile reads it; of the `f32` form, no codes.
    fn int4(&self) -> Int4<'_> {
        match &self.form {
            Form::F32(..) => Int4::default(),
            Form::Int4(codes, scales, group) => Int4 {
                codes,
                scales,
                group: *group,
                k: self.k,
            },
        }
    }

    /// Row `r` of strip `s`, as `f32`: an INT4 one's dequantized.
    fn line(&self, s: usize, r: usize) -> [f32; STRIP_COLS] {
        match &self.form {
            Form::F32(data) => data[(s * self.k + r) * STRIP_COLS..][..STRIP_COLS]
                .try_into()
                .expect("a row"),
            Form::Int4(..) => self.int4().line(s, r),
        }
    }
}

impl fmt::Debug for PackedMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedMatrix {}x{}", self.k, self.n)
    }
}

/// Rows and columns of `leg`'s streamed register tile ([`tile::Leg::ROWS`]
/// and [`tile::Leg::STRIPS`] strips; the scalar loops shard in
/// [`TILE_ROWS`] and strips too).
fn streamed_tile(leg: SimdLeg) -> (usize, usize) {
    use tile::Leg;
    match leg.kind() {
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx512 => (tile::Avx512::ROWS, tile::Avx512::STRIPS * STRIP_COLS),
        _ => (TILE_ROWS, STRIP_COLS),
    }
}

/// Runs the register-tiled kernel of a vector leg over `block`.
///
/// # Safety
///
/// [`tile::Leg::block`]'s contract: `ops` and `block` must describe
/// memory the caller may read and exclusively write. The CPU runs `leg`,
/// as a [`SimdLeg`] proves.
unsafe fn block_on_leg<E: Element>(ops: &Operands<E>, block: &OutBlock, leg: SimdLeg) {
    match leg.kind() {
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx2 => <tile::Avx2 as tile::Leg>::block(ops, block),
        #[cfg(target_arch = "x86_64")]
        LegKind::Avx512 => <tile::Avx512 as tile::Leg>::block(ops, block),
        #[cfg(target_arch = "aarch64")]
        LegKind::Neon => <tile::Neon as tile::Leg>::block(ops, block),
        #[allow(unreachable_patterns)]
        other => panic!("SIMD leg {} has no tiled kernel on this host", other.name()),
    }
}

/// A `rows × cols` row-major window of a longer buffer: row `r` is
/// `data[r · ld ..][.. cols]`. The operand type of the products a caller
/// runs over pieces of buffers it owns for other reasons — the attention
/// page walk multiplies the heads of the queries viewing a cached page
/// each by its head's keys or values there — where the window is small
/// and cache-resident and the call count is high.
///
/// The product runs the register tile of every [`Matrix`] product
/// (`tile.rs`) at every row count, on one thread, with `rhs` read in
/// place, and skips nothing: output element `(i, j)` is the ascending-`k`
/// sum of `lhs[i][k] · rhs_i[k][j]`, multiply then add, started from
/// `+0.0` or — accumulating — from the element's current value,
/// `f32::to_bits`-identical on every leg **and every input**, non-finite
/// ones included. Output columns past the product's width are never
/// written.
///
/// A view holds `E`, `f32` or binary16 words (`u16`, [`Element`]); an
/// `rhs` may be either — an FP16 KV page is multiplied where it lies — and
/// the product is the one over its [`anda_fp::F16::to_f32`] widening, bit
/// for bit, on the same contract as [`anda_fp::batch::widen`]'s: no word
/// may be a NaN pattern (F16C quietens a signalling NaN, which the scalar
/// widen keeps). `lhs` and the output are `f32`.
#[derive(Clone, Copy, Debug)]
pub struct Strided<'a, E = f32> {
    data: &'a [E],
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

impl<'a, E: Element> Strided<'a, E> {
    /// The window of `data` starting at its first element.
    ///
    /// # Panics
    ///
    /// Panics if `cols > ld` or the window runs past `data`.
    pub fn new(data: &'a [E], rows: usize, cols: usize, ld: usize) -> Self {
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
}

impl Strided<'_> {
    /// A batch of one-row products, `out (+)= self · rhs` row by row: row
    /// `r` of `self` times window `r % windows` of `rhs`, the window `rhs`
    /// describes moved `(r % windows) · rhs_stride` elements further on,
    /// into row `r` of `out` — say the heads of several queries, head `h`
    /// of each against head `h`'s columns of one page (`windows` the head
    /// count, at least one). Rows that share a window share the register
    /// tile's loads of it. `out`'s rows lie `ldc` apart; sums start from
    /// `out`'s contents when `accumulate`. `next`, a buffer laid out as
    /// `rhs`'s — the page a walk multiplies by next —, has its same windows
    /// streamed into the cache as these are read, when they fit it; it
    /// changes no value.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch, if `windows` is 0, if `out` cannot hold
    /// the product, or if the last window runs past `rhs`'s buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_batched_into<E: Element>(
        &self,
        rhs: Strided<'_, E>,
        windows: usize,
        rhs_stride: usize,
        out: &mut [f32],
        ldc: usize,
        accumulate: bool,
        next: Option<&[E]>,
        leg: SimdLeg,
    ) {
        let (k, n) = (rhs.rows, rhs.cols);
        assert_eq!(self.cols, k, "strided product shape mismatch");
        assert!(windows > 0, "a batch reads at least one window");
        assert!(
            n <= ldc && strided_span(self.rows, n, ldc) <= out.len(),
            "a {}x{n} product of stride {ldc} does not fit {} elements",
            self.rows,
            out.len()
        );
        let reach =
            self.rows.min(windows).saturating_sub(1) * rhs_stride + strided_span(k, n, rhs.ld);
        assert!(
            reach <= rhs.data.len(),
            "a batch of {} windows {rhs_stride} apart does not fit {} elements",
            self.rows.min(windows),
            rhs.data.len()
        );
        // The element offset to `next`'s same windows, when they fit it
        // (two buffers of `E` lie a whole number of elements apart).
        let ahead = next.filter(|next| reach <= next.len()).map_or(0, |next| {
            let bytes = (next.as_ptr() as isize).wrapping_sub(rhs.data.as_ptr() as isize);
            (bytes / core::mem::size_of::<E>() as isize) as usize
        });
        let ops = Operands {
            lhs: self.data,
            lda: self.ld,
            rhs: rhs.data,
            ldb: rhs.ld,
            layout: Layout::Strided,
            k,
            ldc,
            accumulate,
            windows,
            rhs_stride,
            ahead,
            ..Operands::default()
        };
        if leg == SimdLeg::SCALAR {
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
        // both windows lie inside their buffers, and the shapes agree.
        unsafe { block_on_leg(&ops, &block, leg) }
    }
}

/// Windows of Anda bit-plane rows — a KV page's keys or values as they
/// are stored — as the `rhs` of [`Strided::matmul_planes_into`]: window `w`
/// is the page columns `col0 + w · cols ..` of the first `rows` rows of
/// `words`, each row `width` lanes. Row-major, `rhs` row `kk` is page row
/// `kk` and its columns the window's (a V page). Position-minor, `rhs` row
/// `kk` is the window's column `kk` and its columns the page rows `0 ..
/// rows` (a K page: sixteen positions side by side).
#[derive(Clone, Copy, Debug)]
pub struct PlaneWindows<'a> {
    pub words: BitPlanes<'a>,
    /// Mantissa planes per group, 1..=8.
    pub mantissa_bits: usize,
    pub width: usize,
    pub rows: usize,
    pub col0: usize,
    pub cols: usize,
    pub position_minor: bool,
}

impl Strided<'_> {
    /// [`Strided::matmul_batched_into`] over bit-plane windows read where
    /// they lie, on the AVX-512 leg: the register tile widens each `rhs`
    /// row as it loads it, to the `f32` the row codec's decode writes
    /// (`anda_fp::planes`), so the product is `f32::to_bits`-identical to
    /// the one over the decoded page. Window `w` is `rhs.cols` page columns
    /// on from window `w − 1`. A row-major product reads the first
    /// `self.cols` rows of its windows (`n = rhs.cols`), a position-minor
    /// one all `rhs.rows` (`k = rhs.cols`, `n = rhs.rows`). `next`, the
    /// page multiplied by next, laid out alike, streams in as these words
    /// are read; it changes no value.
    ///
    /// # Panics
    ///
    /// Panics on a leg other than AVX-512, if `rhs.mantissa_bits` is not in
    /// 1..=8, if a window's columns or `n` are not whole strips of sixteen,
    /// if a position-minor window crosses a group other than whole groups,
    /// if the windows run past the rows' words, if `windows` is 0, or if
    /// `out` cannot hold the product.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_planes_into(
        &self,
        rhs: PlaneWindows<'_>,
        windows: usize,
        out: &mut [f32],
        ldc: usize,
        accumulate: bool,
        next: Option<BitPlanes<'_>>,
        leg: SimdLeg,
    ) {
        const GROUP: usize = anda_fp::planes::LANES;
        assert!(
            leg.kind() == LegKind::Avx512,
            "bit planes are read in place on the AVX-512 leg only"
        );
        let (m, cols, col0) = (rhs.mantissa_bits, rhs.cols, rhs.col0);
        assert!(
            (1..=8).contains(&m),
            "bit planes are read in place at M <= 8"
        );
        let (k, n) = match rhs.position_minor {
            true => (cols, rhs.rows),
            false => (self.cols, cols),
        };
        assert_eq!(self.cols, k, "bit-plane product shape mismatch");
        assert!(windows > 0, "a batch reads at least one window");
        let whole = |x: usize| x.is_multiple_of(STRIP_COLS);
        assert!(
            whole(col0) && whole(cols) && whole(n),
            "bit-plane windows are whole strips"
        );
        assert!(
            !rhs.position_minor
                || cols.is_multiple_of(GROUP) && col0.is_multiple_of(GROUP)
                || GROUP.is_multiple_of(cols) && col0.is_multiple_of(cols),
            "a position-minor window's panel lies in one group"
        );
        let groups = rhs.width.div_ceil(GROUP);
        let positions = if rhs.position_minor { rhs.rows } else { k };
        let fits = |w: &BitPlanes| {
            let g = positions * groups;
            w.signs.len() >= g && w.exps.len() >= g && w.planes.len() >= g * m
        };
        assert!(
            positions <= rhs.rows
                && col0 + self.rows.min(windows) * cols <= rhs.width
                && fits(&rhs.words),
            "{windows} windows of {cols} columns from {col0} run past {} rows of {}",
            rhs.rows,
            rhs.width
        );
        assert!(
            n <= ldc && strided_span(self.rows, n, ldc) <= out.len(),
            "a {}x{n} product of stride {ldc} does not fit {} elements",
            self.rows,
            out.len()
        );
        let ops = Operands::<f32> {
            lhs: self.data,
            lda: self.ld,
            layout: Layout::Planes,
            k,
            ldc,
            accumulate,
            windows,
            rhs_stride: cols,
            planes: Planes {
                words: rhs.words,
                next: next.filter(fits),
                m,
                groups,
                col0,
                keys: rhs.position_minor,
            },
            ..Operands::default()
        };
        let block = OutBlock {
            ptr: out.as_mut_ptr(),
            row0: 0,
            rows: self.rows,
            cols: 0..n,
        };
        // SAFETY: `out` is exclusively borrowed and, as asserted, holds
        // the block's rows at stride `ldc`; the windows' rows and columns
        // lie inside the words, as asserted, `Strided::new` checked `lhs`,
        // and the leg is AVX-512 (a `SimdLeg` proves the CPU runs it), the
        // one whose tile reads bit planes.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            tile::planes_block(&ops, &block)
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (ops, block);
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

    /// `self · bᵀ` through [`Matrix::matmul_transposed_into_pool`] on a
    /// pool of one.
    fn matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        a.matmul_transposed_into_pool(b, &mut out, rayon_lite::serial());
        out
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -2.0, 0.0]]);
        assert_eq!(matmul_transposed(&a, &b), a.matmul(&b.transposed()));
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
    fn map_applies_per_element() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.mean(), -0.5);
    }

    #[test]
    fn matmul_transposed_blocked_matches_naive_all_shapes() {
        // Cover tile interiors plus both edge cases (m % 4, n % 4 ≠ 0).
        for (m, k, n) in [(1, 3, 1), (4, 8, 4), (5, 7, 6), (9, 16, 11)] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i as f32).sin()).collect());
            let b = Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32).cos()).collect());
            let blocked = matmul_transposed(&a, &b);
            let naive = a.matmul(&b.transposed());
            assert_eq!(blocked, naive, "shape {m}x{k}·({n}x{k})ᵀ");
        }
    }

    /// The oracle of every `Matrix` product: element `(i, j)` is the naive
    /// ascending-`k` sum of `a[i][k] · b[k][j]` from `+0.0`, multiply then
    /// add.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        // Column `j` of `b` is row `j` of its transpose, read in `k` order.
        let bt = b.transposed();
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for (&x, &y) in a.row(i).iter().zip(bt.row(j)) {
                    acc += x * y;
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn every_simd_leg_matches_the_scalar_oracle() {
        use anda_fp::simd::available_legs;
        // Adversarial shapes: below one vector width, exact multiples,
        // ragged tails in every dimension, and a zero-heavy A against an
        // `rhs` with an infinity of either sign and a NaN, each alone in
        // its column: nothing skips a zero, so `0 · ∞` is a NaN in the
        // oracle and in every leg. The `rhs` packs and unpacks bit for bit,
        // and `matmul` (a pack per call) equals the oracle too.
        let same_bits = |x: &Matrix, y: &Matrix| {
            x.shape() == y.shape()
                && (x.as_slice().iter())
                    .zip(y.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        };
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
            let mut b =
                Matrix::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect());
            b[(0, 0)] = f32::INFINITY;
            b[(k - 1, n / 2)] = f32::NAN;
            b[(k / 2, n - 1)] = f32::NEG_INFINITY;
            let packed = PackedMatrix::pack(&b);
            assert!(
                same_bits(&packed.to_matrix(), &b),
                "pack round trip {k}x{n}"
            );
            // A table held `n × k` and packed transposed, as the tied
            // embedding is: its oracle is the loop over its transpose.
            let mut bt =
                Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32 * 0.23).sin()).collect());
            bt[(0, 0)] = f32::INFINITY;
            bt[(n / 2, k - 1)] = f32::NAN;
            bt[(n - 1, k / 2)] = f32::NEG_INFINITY;
            let packed_t = PackedMatrix::pack_transposed(&bt);
            let reference = naive(&a, &b);
            let reference_t = naive(&a, &bt.transposed());
            assert!(same_bits(&a.matmul(&b), &reference), "matmul {m}x{k}x{n}");
            for leg in available_legs() {
                let mut out_p = Matrix::zeros(m, n);
                a.matmul_packed_into_serial_with_leg(&packed, &mut out_p, leg);
                let at = format!("matmul_packed leg={} shape {m}x{k}x{n}", leg.name());
                assert!(same_bits(&out_p, &reference), "{at}");

                let mut out_t = Matrix::zeros(m, n);
                a.matmul_packed_into_serial_with_leg(&packed_t, &mut out_t, leg);
                let at = format!("packed transposed leg={} shape {m}x{k}x{n}", leg.name());
                assert!(same_bits(&out_t, &reference_t), "{at}");
            }
        }
    }

    #[test]
    fn every_simd_leg_of_the_strided_products_matches_the_scalar_loops() {
        use anda_fp::F16;
        // Windows of wider buffers (every stride exceeds its width), every
        // tile height and its remainders — up to two full shared 8-row
        // tiles and one row more, and a 64-row chunk —, `k` off 4-blocks
        // and past a batched panel's depth, widths of one strip and of
        // strip pairs with no column, one column, fifteen or sixteen past
        // them (an odd last strip, a ragged pair, a ragged single strip),
        // sums started from `+0.0` and from a non-zero `out`, and every
        // row on one window, rows cycling through four (a walk's heads of
        // several queries), or each row on its own, further apart than
        // wide — or at one place. Nothing may skip: a zero `lhs` element
        // against a non-finite `rhs` one is a NaN in the loops and in every
        // leg, and what lies between the windows' rows must never be read
        // as data nor written — nor may the guard column past every output
        // row (`ldc = n + 1`), which must keep its value. Each shape runs
        // on an `f32` `rhs` and on a binary16 one, whose words cover every
        // class but NaN (±0, subnormals of both signs, normals, ±65504,
        // ±inf) and which must equal the loops over its widening.
        let wave = |len: usize, f: f32| -> Vec<f32> {
            (0..len).map(|i| (i as f32 * f).sin() * 2.0).collect()
        };
        let words = |len: usize| -> Vec<u16> {
            let mut h: Vec<u16> = (0..len)
                .map(|i| match i % 6 {
                    0 => [0x0000, 0x8000][i / 6 % 2],
                    1 => (i * 37 % 0x3ff + 1) as u16 | [0, 0x8000][i / 6 % 2],
                    2 => [0x7bff, 0xfbff][i / 6 % 2],
                    _ => F16::from_f32((i as f32 * 0.11).sin() * 2.0).to_bits(),
                })
                .collect();
            for at in [0, len / 2, len - 1] {
                h[at] = [0x7c00, 0xfc00, 0x7c00][at % 3];
            }
            h
        };
        let widths = [1usize, 7, 15, 16, 17, 31, 32, 33, 48, 49, 64, 65, 80, 100];
        for m in (1..=17usize).chain([64]) {
            for (k, n) in [1usize, 7, 22, 70]
                .into_iter()
                .flat_map(|k| widths.map(|n| (k, n)))
                .chain([(5, 7), (13, 24), (16, 64), (22, 37), (70, 19)])
            {
                let (lda, ldb, ldc) = (k + 3, n + 5, n + 1);
                let mut a = wave(m * lda, 0.37);
                a.iter_mut().step_by(3).for_each(|x| *x = 0.0);
                let lhs = Strided::new(&a, m, k, lda);
                let apart = k * ldb + 9;
                for (windows, stride) in [(m, 0), (1, apart), (4, apart), (m, apart)] {
                    let len = (m.min(windows) - 1) * stride + k * ldb;
                    let mut b = wave(len, 0.11);
                    for at in [0, len / 2, len - 1] {
                        b[at] = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][at % 3];
                    }
                    let h = words(len);
                    let widened: Vec<f32> = h.iter().map(|&w| F16::from_bits(w).to_f32()).collect();
                    let product = Product {
                        lhs,
                        k,
                        n,
                        ldb,
                        windows,
                        stride,
                        ldc,
                    };
                    product.matches_the_loops(&b, &b);
                    product.matches_the_loops(&h, &widened);
                }
            }
        }
    }

    /// A bit-plane `rhs` read in place ([`Strided::matmul_planes_into`],
    /// AVX-512) is the scalar loops over its decoded page, bit for bit: at
    /// every `M` 1..=8, pages of 16 and 32 positions, every window width
    /// the walk reads in place (heads of 16, 32, 64 and 128 columns) from
    /// each window start that keeps them inside the page, one to four
    /// windows, row counts through batched tiles and one to three shared
    /// ones per window, K
    /// (position-minor) and V (row-major, one to all positions) products,
    /// streaming a next page or none. Words hold every shared exponent
    /// 0..=31, all-one sign words and groups of zero magnitudes, and the
    /// sums start from `−0.0`, so a zero read under a set sign bit as
    /// `+0.0` instead of `−0.0` shows; a guard column past every output
    /// row keeps its value.
    #[test]
    fn a_bit_plane_rhs_multiplies_as_its_decoded_page() {
        use anda_fp::planes::{group_ulp, lane, LANES};
        use anda_fp::simd::available_legs;
        let Some(leg) = available_legs()
            .into_iter()
            .find(|l| l.kind() == LegKind::Avx512)
        else {
            return;
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for m in 1..=8 {
            for (width, rows) in [(256, 16), (128, 32)] {
                let g = rows * width / LANES;
                let mut page = || {
                    let signs: Vec<u64> = (0..g)
                        .map(|i| [!0, next()][usize::from(i % 5 > 0)])
                        .collect();
                    let exps: Vec<u16> = (0..g).map(|i| (i % 32) as u16).collect();
                    let planes: Vec<u64> = (0..g * m)
                        .map(|i| [0, next()][usize::from(i / m % 7 != 3)])
                        .collect();
                    (signs, exps, planes)
                };
                let (words, other) = (page(), page());
                let words = BitPlanes {
                    signs: &words.0,
                    exps: &words.1,
                    planes: &words.2,
                };
                let ahead = BitPlanes {
                    signs: &other.0,
                    exps: &other.1,
                    planes: &other.2,
                };
                let decoded: Vec<f32> = (0..rows * width)
                    .map(|i| {
                        let (p, c) = (i / width, i % width);
                        let gi = p * width / LANES + c / LANES;
                        let ulp = group_ulp(words.exps[gi], m);
                        lane(
                            words.signs[gi],
                            ulp,
                            &words.planes[gi * m..][..m],
                            c % LANES,
                        )
                    })
                    .collect();
                let keys: Vec<f32> = (0..rows * width)
                    .map(|i| decoded[i % rows * width + i / rows])
                    .collect();
                for (cols, col0) in [16, 32, 64, 128].into_iter().flat_map(|cols| {
                    (0..width)
                        .step_by(cols.max(LANES))
                        .chain([cols % LANES])
                        .map(move |c| (cols, c))
                }) {
                    let fit = (width - col0.min(width)) / cols;
                    for windows in 1..=fit.min(4) {
                        for (lhs_rows, position_minor, k) in [1, 4, 5, 9, 16, 24]
                            .into_iter()
                            .map(|r| r * windows)
                            .flat_map(|r| {
                                [
                                    (r, true, cols),
                                    (r, false, 1),
                                    (r, false, 7),
                                    (r, false, rows),
                                ]
                            })
                        {
                            let n = if position_minor { rows } else { cols };
                            let a: Vec<f32> = (0..lhs_rows * k)
                                .map(|i| [0.0, 0.5 + (i % 9) as f32][usize::from(i % 4 > 0)])
                                .collect();
                            let lhs = Strided::new(&a, lhs_rows, k, k);
                            let ldc = n + 1;
                            let windows_in = PlaneWindows {
                                words,
                                mantissa_bits: m,
                                width,
                                rows,
                                col0,
                                cols,
                                position_minor,
                            };
                            let (tile, ld, stride) = match position_minor {
                                true => (&keys[col0 * rows..], rows, cols * rows),
                                false => (&decoded[col0..], width, cols),
                            };
                            let rhs = Strided::new(tile, k, n, ld);
                            for accumulate in [false, true] {
                                let mut want = vec![-0.0f32; lhs_rows * ldc];
                                let mut got = want.clone();
                                lhs.matmul_batched_into(
                                    rhs,
                                    windows,
                                    stride,
                                    &mut want,
                                    ldc,
                                    accumulate,
                                    None,
                                    SimdLeg::SCALAR,
                                );
                                let nexts = [None, Some(ahead)];
                                for next in nexts {
                                    got.fill(-0.0);
                                    lhs.matmul_planes_into(
                                        windows_in, windows, &mut got, ldc, accumulate, next, leg,
                                    );
                                    let bits = |v: &[f32]| {
                                        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                                    };
                                    assert_eq!(
                                        bits(&got),
                                        bits(&want),
                                        "M {m} {rows}x{width} cols {cols} from {col0} windows {windows} rows {lhs_rows} k {k} \
                                         position-minor {position_minor} accumulate {accumulate} next {}",
                                        next.is_some()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// One shape of `every_simd_leg_of_the_strided_products_matches_the_scalar_loops`.
    struct Product<'a> {
        lhs: Strided<'a>,
        k: usize,
        n: usize,
        ldb: usize,
        windows: usize,
        stride: usize,
        ldc: usize,
    }

    impl Product<'_> {
        /// Every leg's product over `rhs`, sums from `+0.0` and from `out`,
        /// against the loops over `wide`, `rhs` as `f32`. NaNs compare as
        /// one value: which payload survives the sum of two different NaNs
        /// depends on the operand order the compiler picked for a
        /// commutative add, in the loops too.
        fn matches_the_loops<E: Element>(&self, rhs: &[E], wide: &[f32]) {
            use anda_fp::simd::available_legs;
            let Product {
                lhs,
                k,
                n,
                ldb,
                windows,
                stride,
                ldc,
            } = *self;
            let m = lhs.rows;
            let a = lhs.data;
            let lda = lhs.ld;
            let out0 = |len: usize| -> Vec<f32> {
                (0..len).map(|i| (i as f32 * 0.71).sin() * 2.0).collect()
            };
            let bits = |v: &[f32]| -> Vec<u32> {
                let canonical = |x: &f32| if x.is_nan() { f32::NAN } else { *x }.to_bits();
                v.iter().map(canonical).collect()
            };
            // What a product streams changes nothing: the page read next
            // (a copy of `rhs`), one too short to hold the windows, or none.
            let (copy, short) = (rhs.to_vec(), &rhs[..rhs.len() / 2]);
            let rhs = Strided::new(rhs, k, n, ldb);
            for accumulate in [false, true] {
                let run = |leg: SimdLeg, next| {
                    let mut out = out0(m * ldc);
                    let (w, s, acc) = (windows, stride, accumulate);
                    lhs.matmul_batched_into(rhs, w, s, &mut out, ldc, acc, next, leg);
                    bits(&out)
                };
                // The loops themselves, spelled out once more.
                let mut want = out0(m * ldc);
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = if accumulate { want[i * ldc + j] } else { 0.0 };
                        for kk in 0..k {
                            acc += a[i * lda + kk] * wide[i % windows * stride + kk * ldb + j];
                        }
                        want[i * ldc + j] = acc;
                    }
                }
                let want = bits(&want);
                for (leg, next) in available_legs()
                    .into_iter()
                    .flat_map(|leg| [None, Some(&copy[..]), Some(short)].map(|next| (leg, next)))
                {
                    assert_eq!(
                        run(leg, next),
                        want,
                        "leg={} {m}x{k}x{n} rhs of {} bytes, {windows} windows {stride} \
                         apart accumulate={accumulate}, streaming {:?} elements",
                        leg.name(),
                        core::mem::size_of::<E>(),
                        next.map(<[E]>::len),
                    );
                }
            }
        }
    }

    #[test]
    fn multiplying_by_a_zero_equals_skipping_it() {
        // No leg skips `a == 0`, the scalar one included. Accumulators
        // start at +0.0 and can never become -0.0, so `acc + 0·b` is `acc`
        // for every finite `b`: all-zero rows of either sign give +0.0
        // everywhere, and zeros scattered through a dense row change
        // nothing.
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
        let oracle = naive(&a, &b);
        assert!(oracle.as_slice()[..2 * n].iter().all(|x| x.to_bits() == 0));
        let packed = PackedMatrix::pack(&b);
        for leg in available_legs() {
            let mut out = Matrix::zeros(m, n);
            a.matmul_packed_into_serial_with_leg(&packed, &mut out, leg);
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
        a.matmul_into_on(&b, &mut out, rayon_lite::serial());
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
        assert_eq!(matmul_transposed(&a, &Matrix::zeros(0, 3)).shape(), (2, 0));
        let empty_k = Matrix::zeros(2, 0);
        assert_eq!(empty_k.matmul(&Matrix::zeros(0, 4)), Matrix::zeros(2, 4));
        // Packed, from `k × n` and transposed from `n × k`: no strips,
        // strips of no rows (one, a ragged pair, three), no lhs rows.
        for (m, k, n) in [(2, 3, 0), (2, 0, 4), (2, 0, 20), (2, 0, 33), (0, 3, 4)] {
            let packs = [
                PackedMatrix::pack(&Matrix::zeros(k, n)),
                PackedMatrix::pack_transposed(&Matrix::zeros(n, k)),
            ];
            for packed in packs {
                assert_eq!(packed.to_matrix(), Matrix::zeros(k, n));
                let mut out = Matrix::zeros(m, n);
                out.as_mut_slice().fill(1.0);
                Matrix::zeros(m, k).matmul_packed_into_on(&packed, &mut out, rayon_lite::serial());
                assert_eq!(out, Matrix::zeros(m, n), "{m}x{k}x{n}");
            }
        }
        assert_eq!(
            matmul_transposed(&empty_k, &Matrix::zeros(5, 0)),
            Matrix::zeros(2, 5)
        );
    }

    #[test]
    fn a_transposed_pack_holds_the_transpose_and_reads_rows_as_columns() {
        // Widths of one column, a strip and around it, two strips and past
        // them, and a vocabulary whose last strip is zero-padded (500 =
        // 31 strips + 4); depths of none, one, odd and a whole panel.
        for n in [1usize, 15, 16, 17, 31, 33, 500] {
            for k in [0usize, 1, 7, 256] {
                let m =
                    Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32 * 0.29).sin()).collect());
                let packed = PackedMatrix::pack_transposed(&m);
                assert_eq!(packed.shape(), (k, n));
                assert_eq!(packed.stored_len(), n.next_multiple_of(STRIP_COLS) * k);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let unpacked = packed.to_matrix();
                assert_eq!(unpacked.shape(), (k, n), "{n}x{k}");
                assert_eq!(
                    bits(unpacked.as_slice()),
                    bits(m.transposed().as_slice()),
                    "{n}x{k}"
                );
                for t in 0..n {
                    let col: Vec<f32> = packed.col(t).copied().collect();
                    assert_eq!(bits(&col), bits(m.row(t)), "{n}x{k} column {t}");
                }
            }
        }
    }

    #[test]
    fn copy_from_adopts_shape_and_contents() {
        let src = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut dst = Matrix::zeros(4, 4);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn add_inplace_matches_an_element_loop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, 1.0], &[-1.5, 2.0]]);
        let mut c = a.clone();
        c.add_inplace(&b);
        for r in 0..2 {
            for j in 0..2 {
                assert_eq!(c[(r, j)], a[(r, j)] + b[(r, j)]);
            }
        }
    }
}
