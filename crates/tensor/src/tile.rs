//! The register-tiled GEMM kernel behind the vector legs of every
//! [`crate::Matrix`] product — `lhs · rhs` over a row-major `rhs` or a
//! [`crate::PackedMatrix`] — and of the [`crate::Strided`] view products
//! the attention page walk is made of.
//!
//! Output-stationary: a tile of [`Leg::ROWS`]` × `[`Leg::STRIPS`]` ·
//! `[`STRIP_COLS`] output elements lives in vector registers while `k`
//! walks a panel, so every `rhs` vector loaded feeds every row of the tile
//! and every `lhs` scalar every column, and the output is touched once per
//! panel instead of once per `k`. The tile is four rows of one strip — two
//! AVX2 / four NEON vectors — or eight rows of two strips, one AVX-512
//! vector each: eight independent add chains on AVX2, sixteen on NEON and
//! on AVX-512, where each `lhs` broadcast feeds 32 columns. (Eight rows of
//! one zmm ran a packed 64-row product no faster than AVX2's tile, a median
//! 48 against 45 GFLOP/s over the serving projections in `kernels
//! m_sweep`; the strip pair runs it at 69.) A panel is up to [`KC`] rows
//! of a tile's strips of `rhs`, strip `s` at `panel + s · sb`,
//! `panel[s · sb + kk · ldb + j] = b[k0 + kk][j0 + 16 s + j]`.
//!
//! There is **one walk order**, at every row count and for every `rhs`:
//! column block of `STRIPS` strips → k panel → row tile. The output block
//! is loaded and stored once per panel (256 `k` of a packed `rhs`), and a
//! panel, once in the L1, feeds every row tile of the block. A row tile
//! runs at its own height (one row to the leg's `ROWS`) and a last block
//! at its own strip count (an odd last strip is a one-strip tile), and a
//! ragged last block computes into an edge buffer of whole strips from
//! which only the block's own columns are copied out.
//! What differs between products is only **where a panel comes from**
//! ([`Layout`], monomorphised into the walk, which exists once):
//!
//! * **In place**, [`Layout::Packed`]: a [`crate::PackedMatrix`] holds `rhs`
//!   as ⌈n/16⌉ contiguous `k × 16` strips, the last one zero-padded, so a
//!   panel *is* `KC` consecutive sixteen-float rows of each of its strips,
//!   the strips `k · 16` floats apart, and the walk reads the matrix front
//!   to back, a strip pair as two streams. Every projection weight of a
//!   model and its tied embedding (as the LM head's `d × vocab` `rhs`) are
//!   held so, packed once when the model is built, and a served step
//!   packs nothing. A few-row product has too little arithmetic to
//!   hide a miss behind, so the first row tile of every panel prefetches
//!   [`PREFETCH_LINES`] cache lines ahead of the panel row it reads in
//!   each of its strips — one line per `k` and strip, across panel and
//!   strip boundaries; the row tiles after it read the panel from the
//!   L1. Without the hint a 4-row walk over the serving model's
//!   sixteen projections (one thread, AVX2, weights in the L3) ran at
//!   0.69–0.77 of its speed, a 64-row one at 0.88–0.93; 32 to 128 lines
//!   ahead read alike, 256 a little slower.
//! * **Row-major pack**, [`Layout::RowMajor`], `rhs` a [`crate::Matrix`]
//!   held `k × n`: each panel is first copied contiguous, strip by strip,
//!   sixteen floats of each of its rows, zero-padded past a ragged strip. In place the panel
//!   would stride by a whole `rhs` row — one cache line per `k`, each in a
//!   different page, evicting itself from a power-of-two-strided L1 set —
//!   whereas the copy is nothing but independent loads.
//!
//! A **resident** product ([`Operands::resident`], what a
//! [`crate::Strided`] view runs) multiplies by a window of a tile that is
//! already in the L1 — one head's keys or values of a KV page, sixteen
//! positions by 64 — thousands of times a step. Its `rhs` is row-major and
//! read in place like a packed one (the tile takes the `rhs` row stride,
//! and a window's second strip is its next sixteen columns; a pack would
//! copy each operand once per use). What it prefetches is the *next*
//! product's `rhs` ([`Operands::ahead`]: the page the walk multiplies by
//! next, laid out alike, `ahead` elements on): each tile that reads a
//! window in place — a batched tile, or the first row tile of a shared
//! window — prefetches, per `k` step, the same line of that window there,
//! one line per row and strip, spread over the product as the packed walk
//! spreads its stream. A page the walk meets next is a heap allocation of
//! its own, so the hardware prefetchers, which stop at the end of this
//! one, would not fetch it.
//! Attention stores its operands that way — a page's keys position-minor,
//! so sixteen positions sit side by side, whether a float page holds them
//! so or an Anda page decodes them so — and so packs nothing. A resident
//! product can also **accumulate** (its sums start from the output's
//! contents, which is how attention's `out += p · v` crosses a page
//! boundary), and it is **batched** ([`Operands::windows`]): row `i`
//! multiplies window `i % windows` — the heads of several lanes, head `h`
//! of each against head `h`'s keys, so rows `h`, `h + windows`, … share a
//! window. Those rows' whole tiles of [`Leg::ROWS`] run on [`Leg::tile`],
//! which loads each `rhs` vector once for all of them; the rest run four
//! rows a tile on every leg, each row on its own window
//! ([`Leg::tile_batched`]) — a lone lane's heads are such a tile, four
//! independent products whose accumulator chains hide the add latency a
//! one-row product stalls on. Its ragged blocks pack a shared window once,
//! and each batched row's window into a quarter of the panel.
//!
//! A resident `rhs` may be held in binary16 ([`Element`]: `u16` bit
//! patterns, an FP16 KV page's words) as well as in `f32`. The walk, the
//! panel source and the tiles are the same code, monomorphised over the
//! element: a panel holds `rhs`'s element (a ragged strip's copy is a
//! copy), and the tile's `rhs` load widens in the register — `vcvtph2ps`
//! on AVX2 (the leg requires F16C) and on AVX-512, `anda_fp`'s lane
//! primitive on NEON — where the scalar oracle widens each element with
//! [`anda_fp::F16::to_f32`]. So an FP16 page is read where it lies, with
//! no widened copy of it, and each product is `f32::to_bits`-identical to
//! the one over that copy — for every `rhs` without a NaN pattern, since
//! F16C quietens a signalling NaN the scalar widen keeps (an FP16 page
//! holds none: `anda_fp::batch::narrow` writes none). Only resident
//! products take binary16 today; a streamed one's `rhs` is `f32`.
//!
//! Whatever the path, element `(i, j)` is `Σ_k a[i][k] · b[k][j]`
//! accumulated in ascending `k` from `+0.0` (or the output's value),
//! multiply then add, never fused — the operation sequence of the scalar
//! oracles (`Matrix::matmul_rows_scalar`, [`resident_block_scalar`]), so
//! every leg, layout, tile boundary, panel and sharding is
//! `f32::to_bits`-identical to them (a panel boundary only parks the
//! accumulators in the output, an exact `f32` round trip). For a row-major
//! or packed `rhs` that holds for finite `rhs`: the oracle's `a == 0` skip
//! is not part of the contract (see its docs) and the tiles do not skip.
//! Resident, nothing skips, so it holds on every input.

use core::ops::Range;

/// Output rows per register tile: a batched one's on every leg
/// ([`Leg::tile_batched`]), and a [`Leg::tile`]'s unless the leg says
/// otherwise ([`Leg::ROWS`]).
pub(crate) const TILE_ROWS: usize = 4;
/// The tallest [`Leg::tile`] of any leg (AVX-512's), which sizes the
/// walk's edge buffer.
const MAX_TILE_ROWS: usize = 8;
/// The widest [`Leg::tile`] of any leg in strips (AVX-512's), which sizes
/// the edge buffer.
const MAX_STRIPS: usize = 2;
/// The width of a strip (two AVX2 / four NEON / one AVX-512 vector), the
/// column unit of a tile, a panel and a [`crate::PackedMatrix`].
pub(crate) const STRIP_COLS: usize = 16;
/// Depth of one k panel of a [`crate::PackedMatrix`]: a strip of it is
/// `KC × STRIP_COLS` f32 (16 KiB, a strip pair's 32 KiB, L1-resident). A
/// pack holds `KC × STRIP_COLS` elements, so a pack of two strips is half
/// as deep.
const KC: usize = 256;
/// How far ahead of the panel row it reads the first row tile of a packed
/// panel prefetches, in panel rows: a panel row is sixteen floats, one
/// 64-byte cache line, so 8 KiB ahead.
const PREFETCH_LINES: usize = 128;

/// The element a [`crate::Strided`] `rhs` is held in: `f32`, or binary16
/// bit patterns (`u16`) that every leg widens exactly as
/// [`anda_fp::F16::to_f32`] does, a signalling NaN pattern excepted (see
/// the module docs). Sealed: these two are all.
pub trait Element: Copy + element::Load {}

impl Element for f32 {}
impl Element for u16 {}

/// How the tile reads an [`Element`], private so that no other type can
/// be one.
mod element {
    #[cfg(target_arch = "aarch64")]
    use core::arch::aarch64::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// The element as `f32`, one value or a tile row's vector of them
    /// (eight or sixteen lanes on x86, four on NEON). The loads are
    /// inlined into the tiles, so they compile with the leg's features.
    ///
    /// # Safety
    ///
    /// Every load needs its leg's CPU features (a binary16 one F16C, or
    /// AVX-512F at sixteen lanes) and `p[0..lanes]` readable.
    pub trait Load: Copy {
        fn to_f32(self) -> f32;
        #[cfg(target_arch = "x86_64")]
        unsafe fn load8(p: *const Self) -> __m256;
        #[cfg(target_arch = "x86_64")]
        unsafe fn load16(p: *const Self) -> __m512;
        #[cfg(target_arch = "aarch64")]
        unsafe fn load4(p: *const Self) -> float32x4_t;
    }

    impl Load for f32 {
        #[inline(always)]
        fn to_f32(self) -> f32 {
            self
        }
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        unsafe fn load8(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        unsafe fn load16(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[cfg(target_arch = "aarch64")]
        #[inline(always)]
        unsafe fn load4(p: *const f32) -> float32x4_t {
            vld1q_f32(p)
        }
    }

    impl Load for u16 {
        #[inline(always)]
        fn to_f32(self) -> f32 {
            anda_fp::F16::from_bits(self).to_f32()
        }
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        unsafe fn load8(p: *const u16) -> __m256 {
            _mm256_cvtph_ps(_mm_loadu_si128(p.cast()))
        }
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        unsafe fn load16(p: *const u16) -> __m512 {
            _mm512_cvtph_ps(_mm256_loadu_si256(p.cast()))
        }
        #[cfg(target_arch = "aarch64")]
        #[inline(always)]
        unsafe fn load4(p: *const u16) -> float32x4_t {
            anda_fp::simd::neon::f16_bits_to_f32x4(vmovl_u16(vld1_u16(p)))
        }
    }
}

/// How the `rhs` of a product lies in memory, and so where the walk's
/// panels come from. Only the panel source reads `rhs`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `k` rows of `n`: `lhs · rhs`, each panel copied contiguous (or, for
    /// a resident product, read in place).
    RowMajor,
    /// ⌈n/16⌉ contiguous `k × 16` strips, the last one zero-padded:
    /// `lhs · rhs` with every panel read in place.
    Packed,
}

/// The inputs of one product and how all three operands lie in memory:
/// row `i` of `lhs` starts at `i · lda`, row `r` of `rhs` at `r · ldb`,
/// output row `i` at `i · ldc`. A
/// [`crate::Matrix`] passes its widths; a [`crate::Strided`] view passes
/// the strides of the buffer it is a window of. A packed `rhs` has no row
/// stride of its own: strip `s` starts at `s · 16 · k` and its rows lie
/// sixteen apart. `rhs` is held in `E` (every streamed product's is `f32`).
pub(crate) struct Operands<'a, E: Element = f32> {
    pub lhs: &'a [f32],
    pub lda: usize,
    pub rhs: &'a [E],
    pub ldb: usize,
    pub layout: Layout,
    pub k: usize,
    pub ldc: usize,
    /// Every sum starts from the output's current contents instead of
    /// `+0.0`.
    pub accumulate: bool,
    /// Row-major only: `rhs` is a window of a cache-resident tile rather
    /// than a weight matrix streaming from memory, so full strips are read
    /// where they lie instead of being copied, and nothing of it is
    /// prefetched (only, with `ahead`, the next product's). A resident
    /// product is batched.
    pub resident: bool,
    /// Resident only (ignored by a streamed product): `lhs` row `i`
    /// multiplies window `i % windows` of `rhs`, the windows
    /// `rhs_stride` elements apart — rows `h`, `h + windows`, … share one.
    pub windows: usize,
    pub rhs_stride: usize,
    /// Resident only: non-zero, the element offset (wrapping) from `rhs`
    /// to the `rhs` read next, laid out alike, whose same windows the
    /// tiles stream in as they read these.
    pub ahead: usize,
}

/// A `rows × cols` block of a row-major output, addressed through a raw
/// pointer so pool jobs can own disjoint column ranges of the same rows.
/// A block of a packed product starts on a strip boundary.
pub(crate) struct OutBlock {
    /// Element `(row0, 0)` of the output.
    pub ptr: *mut f32,
    /// The `lhs` row the block's first row is computed from.
    pub row0: usize,
    pub rows: usize,
    pub cols: Range<usize>,
}

// SAFETY: an `OutBlock` is only a description; the `unsafe` contract of
// `matmul_block` makes whoever builds one responsible for exclusive
// access to the elements it names.
unsafe impl Send for OutBlock {}
unsafe impl Sync for OutBlock {}

/// One vector leg: its two inner loops, its [`Leg::tile`] shape, its
/// prefetch hint and the entry point compiled with its CPU feature.
pub(crate) trait Leg {
    /// Rows of a [`Leg::tile`] — a streamed product's, and a resident
    /// one's over a shared window: the walk's row step, and the multiple a
    /// pool shards a product's rows in.
    const ROWS: usize = TILE_ROWS;
    /// Adjacent strips a tile spans (of [`Leg::tile`] and of
    /// [`Leg::tile_batched`]): the walk's column step in strips, and the
    /// multiple a pool shards a product's columns in.
    const STRIPS: usize = 1;

    /// `c[r][0..w] (+)= Σ_kk a[r][kk] · B[kk][0..w]` for `r < rows`
    /// (`1..=Self::ROWS`) and `kk < kc`, ascending, over `w = 16 · strips`
    /// columns (`strips` in `1..=Self::STRIPS`), column `16 s + j` of `B`
    /// being `b[s · sb + kk · ldb + j]`; accumulators start at `+0.0` when
    /// `first`, else at `c`'s current contents. With `ahead` non-zero, each
    /// `k` step also prefetches `b + s · sb + kk · ldb + ahead` for every
    /// strip `s`.
    ///
    /// # Safety
    ///
    /// Needs the leg's CPU feature; `a` must be readable at
    /// `r · lda + kk`, `b` (a panel row every `ldb` elements, a strip
    /// every `sb`) at `s · sb + kk · ldb + 0..16`, and `c` readable and
    /// writable at `r · ldc + 0..w`. The prefetched addresses need not be
    /// readable.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile<E: Element>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: *const E,
        ldb: usize,
        sb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    );

    /// [`Leg::tile`] with row `r` reading its own `b`, `r · bs` further
    /// on: `c[r][0..w] (+)= Σ_kk a[r][kk] · B_r[kk][0..w]`, `B_r` at
    /// `b + r · bs`, for `r < rows` (`1..=TILE_ROWS` on every leg). The
    /// rows of a tile are then independent products, each with its own two
    /// (AVX2), four (NEON) or two (AVX-512, one per strip) accumulator
    /// chains. With `ahead` non-zero, each `k` step also prefetches every
    /// row's `b + r · bs + s · sb + kk · ldb + ahead`. The default is the
    /// portable loop, in the same operation order, and prefetches nothing.
    ///
    /// # Safety
    ///
    /// As [`Leg::tile`], with `b` readable at `r · bs + s · sb + kk · ldb +
    /// 0..16`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile_batched<E: Element>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: *const E,
        ldb: usize,
        sb: usize,
        bs: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        _ahead: usize,
    ) {
        for r in 0..rows {
            let (a, c) = (a.add(r * lda), c.add(r * ldc));
            for j in 0..strips * STRIP_COLS {
                let b = b.add(r * bs + j / STRIP_COLS * sb + j % STRIP_COLS);
                let mut acc = if first { 0.0 } else { *c.add(j) };
                for kk in 0..kc {
                    acc += *a.add(kk) * (*b.add(kk * ldb)).to_f32();
                }
                *c.add(j) = acc;
            }
        }
    }

    /// Hints that the cache line at `p` is about to be read. `p` need not
    /// be readable: a prefetch never faults. The default does nothing and
    /// leaves the stream to the hardware prefetchers.
    #[inline(always)]
    fn prefetch<T>(_p: *const T) {}

    /// [`matmul_block`], monomorphised for `ops.layout`, for a resident
    /// `rhs` and for its element, and compiled with the leg's CPU feature
    /// enabled, so that the panel source and the tile inline into the walk
    /// and the batched branches are compiled out of every streamed product.
    ///
    /// # Safety
    ///
    /// [`matmul_block`]'s contract, and the CPU must support the leg.
    unsafe fn block<E: Element>(ops: &Operands<E>, block: &OutBlock);
}

/// Runs `tile` on the `rows` output rows from `c`, `ldc` apart: in place on
/// a block of whole strips, and through `edge`, whole strips wide, on a
/// ragged one, of which only the block's `width` columns are copied back
/// (and, unless the sums start at `+0.0`, in first).
///
/// # Safety
///
/// `c` must be readable and writable at `r · ldc + 0..width` for `r <
/// rows`, and `tile` sound on the output it is handed.
#[inline(always)]
unsafe fn on_block(
    rows: usize,
    width: usize,
    first: bool,
    c: *mut f32,
    ldc: usize,
    edge: &mut [f32; MAX_TILE_ROWS * MAX_STRIPS * STRIP_COLS],
    tile: impl FnOnce(*mut f32, usize),
) {
    let ld = width.next_multiple_of(STRIP_COLS);
    if width == ld {
        return tile(c, ldc);
    }
    let edge = edge.as_mut_ptr();
    for i in 0..if first { 0 } else { rows } {
        core::ptr::copy_nonoverlapping(c.add(i * ldc), edge.add(i * ld), width);
    }
    tile(edge, ld);
    for i in 0..rows {
        core::ptr::copy_nonoverlapping(edge.add(i * ld), c.add(i * ldc), width);
    }
}

/// Computes `block` of `ops.lhs · ops.rhs` (`rhs` held in `E` and read
/// through `LAYOUT`, `ops.layout as u8`, and resident and batched when
/// `RESIDENT`, which `ops.resident` repeats); see the module docs. Called
/// through [`Leg::block`], which picks the instance.
///
/// # Safety
///
/// `block.ptr` must be valid for reads and writes of `block.cols` of
/// `block.rows` rows `ops.ldc` apart, and nothing else may access those
/// elements during the call. `ops.lhs` must hold `ops.k` elements of rows
/// `block.row0 .. block.row0 + block.rows` at stride `ops.lda`, and
/// `ops.rhs` its `k × block.cols.end` elements at stride `ops.ldb` — each
/// of `ops.windows` windows, `ops.rhs_stride` apart, for a resident
/// product, whose block starts at row 0; packed, the strips covering
/// `block.cols`, which starts on a strip boundary.
#[inline(always)]
unsafe fn matmul_block<L: Leg, const LAYOUT: u8, const RESIDENT: bool, E: Element>(
    ops: &Operands<E>,
    block: &OutBlock,
) {
    let &Operands {
        lhs,
        lda,
        rhs,
        ldb,
        k,
        ldc,
        accumulate,
        windows,
        rhs_stride,
        ahead,
        ..
    } = ops;
    let packed = LAYOUT == Layout::Packed as u8;
    debug_assert!(
        !RESIDENT || (LAYOUT == Layout::RowMajor as u8 && block.row0 == 0 && windows > 0),
        "a resident rhs is row-major windows, one block of them"
    );
    let (out, row0, rows, cols) = (block.ptr, block.row0, block.rows, &block.cols);
    debug_assert!(
        !packed || cols.start % STRIP_COLS == 0,
        "packed blocks start on a strip"
    );
    let a = lhs.as_ptr().add(row0 * lda);
    let b = rhs.as_ptr();
    if k == 0 {
        // An empty sum is the value it starts from.
        for i in 0..if accumulate { 0 } else { rows } {
            core::ptr::write_bytes(out.add(i * ldc + cols.start), 0, cols.len());
        }
        return;
    }

    // Every element a tile reads from the panel was packed into it earlier
    // in the same call. It holds `rhs`'s element: the tile widens it. It
    // is one strip `KC` deep on every leg: twice that, the larger stack
    // frame alone slowed a 4 × 64 × 16 batched product on a 2-vCPU
    // AVX-512 Xeon from 137–151 to 167–203 ns.
    let mut panel = core::mem::MaybeUninit::<[E; KC * STRIP_COLS]>::uninit();
    let panel: *mut E = panel.as_mut_ptr().cast();
    let packed_b = panel.cast_const();
    // Copies `kc` rows of the `width`-column row-major block at `src` into
    // a panel at `dst`, strip `s` at `dst + s · kc · 16`, zero-padded to
    // whole strips (all-zero bits are `+0.0` in either element).
    let copy_strips = |src: *const E, width: usize, kc, dst: *mut E| {
        for s in 0..width.div_ceil(STRIP_COLS) {
            let (src, dst) = (src.add(s * STRIP_COLS), dst.add(s * kc * STRIP_COLS));
            let width = STRIP_COLS.min(width - s * STRIP_COLS);
            for kk in 0..kc {
                let dst = dst.add(kk * STRIP_COLS);
                core::ptr::copy_nonoverlapping(src.add(kk * ldb), dst, width);
                core::ptr::write_bytes(dst.add(width), 0, STRIP_COLS - width);
            }
        }
    };
    const { assert!(L::ROWS <= MAX_TILE_ROWS && L::STRIPS <= MAX_STRIPS) };
    // A ragged block's tiles compute into here, whole strips wide, and only
    // the block's own columns are copied back.
    let mut edge = [0.0f32; MAX_TILE_ROWS * MAX_STRIPS * STRIP_COLS];
    // Resident rows `h + windows · g` share window `h`: the first `shared`
    // rows are whole tiles of `L::ROWS` such rows per window.
    let shared = match RESIDENT && rows >= L::ROWS * windows {
        true => rows / windows / L::ROWS * L::ROWS * windows,
        false => 0,
    };
    for j0 in cols.clone().step_by(L::STRIPS * STRIP_COLS) {
        let width = (L::STRIPS * STRIP_COLS).min(cols.end - j0);
        let strips = width.div_ceil(STRIP_COLS);
        let full = width == strips * STRIP_COLS;
        // What is read in place goes `KC` deep. A pack holds the block's
        // strips, and a batched product's a ragged block per row — a
        // tile's rows each own one —, so their k panels are shallower.
        let kc_max = match (packed || RESIDENT && full, RESIDENT) {
            (true, _) => KC,
            (false, false) => KC / L::STRIPS,
            (false, true) => KC / TILE_ROWS / L::STRIPS,
        };
        for k0 in (0..k).step_by(kc_max) {
            let kc = kc_max.min(k - k0);
            let first = k0 == 0 && !accumulate;
            // A panel this call packs: its strips lie `kc` rows apart.
            let packed_sb = kc * STRIP_COLS;
            if RESIDENT {
                // Where window `h` of this block and panel starts.
                let window = |h: usize| b.add(h * rhs_stride + k0 * ldb + j0);
                // Shared tiles: every `rhs` vector loaded feeds `L::ROWS`
                // rows, read in place or from the window packed once.
                for h in 0..if shared > 0 { windows } else { 0 } {
                    let (tile_b, tile_ldb, sb) = match full {
                        true => (window(h), ldb, STRIP_COLS),
                        false => {
                            copy_strips(window(h), width, kc, panel);
                            (packed_b, STRIP_COLS, packed_sb)
                        }
                    };
                    // The rows on window `h` lie a cycle of windows apart.
                    let (lda_w, ldc_w) = (windows * lda, windows * ldc);
                    for i in (h..shared).step_by(L::ROWS * windows) {
                        let (a, c) = (a.add(i * lda + k0), out.add(i * ldc + j0));
                        // The window's first row tile streams the next one.
                        let ahead = if full && i == h { ahead } else { 0 };
                        on_block(L::ROWS, width, first, c, ldc_w, &mut edge, |c, ldc| {
                            let (rows, lda, b, ldb) = (L::ROWS, lda_w, tile_b, tile_ldb);
                            L::tile(rows, strips, a, lda, b, ldb, sb, kc, c, ldc, first, ahead)
                        });
                    }
                }
                // The rest row by row, up to four a tile, each on its own
                // window: tiles stay inside one cycle of the windows (with
                // one window every row reads it). Row `i0` reads window `h`.
                let (mut i0, mut h) = (shared, 0);
                while i0 < rows {
                    let (bs, cycle) = match windows {
                        1 => (0, rows),
                        _ => (rhs_stride, windows - h),
                    };
                    let r = TILE_ROWS.min(cycle).min(rows - i0);
                    let (tile_b, tile_ldb, sb, tile_bs) = match full {
                        true => (window(h), ldb, STRIP_COLS, bs),
                        false => {
                            for i in 0..r {
                                let dst = panel.add(i * strips * packed_sb);
                                copy_strips(window(h).add(i * bs), width, kc, dst);
                            }
                            (packed_b, STRIP_COLS, packed_sb, strips * packed_sb)
                        }
                    };
                    let (a, c) = (a.add(i0 * lda + k0), out.add(i0 * ldc + j0));
                    let ahead = if full { ahead } else { 0 };
                    on_block(r, width, first, c, ldc, &mut edge, |c, ldc| {
                        let (b, ldb, bs, f) = (tile_b, tile_ldb, tile_bs, first);
                        L::tile_batched(r, strips, a, lda, b, ldb, sb, bs, kc, c, ldc, f, ahead)
                    });
                    (i0, h) = (i0 + r, if h + r < windows { h + r } else { 0 });
                }
                continue;
            }
            // Where the tiles read this panel, and how far apart its rows
            // and its strips lie.
            let (tile_b, sb) = if packed {
                (b.add(j0 * k + k0 * STRIP_COLS), k * STRIP_COLS)
            } else {
                copy_strips(b.add(k0 * ldb + j0), width, kc, panel);
                (packed_b, packed_sb)
            };
            for i0 in (0..rows).step_by(L::ROWS) {
                let r = L::ROWS.min(rows - i0);
                let (a, c) = (a.add(i0 * lda + k0), out.add(i0 * ldc + j0));
                // The first row tile streams the panel in; the rest find
                // it in the L1.
                let ahead = if packed && i0 == 0 {
                    PREFETCH_LINES * STRIP_COLS
                } else {
                    0
                };
                on_block(r, width, first, c, ldc, &mut edge, |c, ldc| {
                    let (b, ldb) = (tile_b, STRIP_COLS);
                    L::tile(r, strips, a, lda, b, ldb, sb, kc, c, ldc, first, ahead)
                });
            }
        }
    }
}

/// [`Leg::block`]'s one body: the [`matmul_block`] instance for `ops`'s
/// layout and residency. Each leg's `block` calls it with its CPU feature
/// enabled, so the instance and the tile inline into that leg's copy.
///
/// # Safety
///
/// As [`Leg::block`].
#[inline(always)]
unsafe fn block_body<L: Leg, E: Element>(ops: &Operands<E>, block: &OutBlock) {
    const ROW_MAJOR: u8 = Layout::RowMajor as u8;
    const PACKED: u8 = Layout::Packed as u8;
    match (ops.layout, ops.resident) {
        (Layout::RowMajor, false) => matmul_block::<L, ROW_MAJOR, false, E>(ops, block),
        (Layout::RowMajor, true) => matmul_block::<L, ROW_MAJOR, true, E>(ops, block),
        (Layout::Packed, _) => matmul_block::<L, PACKED, false, E>(ops, block),
    }
}

/// The scalar oracle of a resident product ([`Operands::resident`]) — the
/// loops every vector leg of [`crate::Strided`]'s products is pinned to,
/// on every input: `out[i][j] += a[i][kk] · b[kk][j]` for ascending `kk`,
/// skipping nothing, row `i` reading `b` from window `i % windows` on, each
/// `b` element widened to `f32` ([`anda_fp::F16::to_f32`] for binary16).
pub(crate) fn resident_block_scalar<E: Element>(
    ops: &Operands<E>,
    rows: usize,
    n: usize,
    out: &mut [f32],
) {
    debug_assert!(
        ops.layout == Layout::RowMajor,
        "a resident rhs is row-major"
    );
    for i in 0..rows {
        let a_row = &ops.lhs[i * ops.lda..][..ops.k];
        let b = &ops.rhs[i % ops.windows * ops.rhs_stride..];
        let out_row = &mut out[i * ops.ldc..][..n];
        if !ops.accumulate {
            out_row.fill(0.0);
        }
        for (kk, &av) in a_row.iter().enumerate() {
            for (o, &bv) in out_row.iter_mut().zip(&b[kk * ops.ldb..][..n]) {
                *o += av * bv.to_f32();
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx2;

/// [`Avx2`]'s tile body for `R` rows: [`Leg::tile`] with every row reading
/// one `b` (`BATCHED` false, `bs` ignored), or [`Leg::tile_batched`];
/// prefetching `ahead` when `PREFETCH`.
///
/// # Safety
///
/// The contract of the one it implements.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,f16c")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx2_rows<const R: usize, const BATCHED: bool, const PREFETCH: bool, E: Element>(
    a: *const f32,
    lda: usize,
    b: *const E,
    ldb: usize,
    bs: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    first: bool,
    ahead: usize,
) {
    use core::arch::x86_64::*;
    // A batched tile's rows each read a `b` of their own.
    let (mut acc, own_b) = ([[_mm256_setzero_ps(); 2]; R], if BATCHED { R } else { 1 });
    if !first {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r[0] = _mm256_loadu_ps(c.add(r * ldc));
            acc_r[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
        }
    }
    for kk in 0..kc {
        let b_kk = b.add(kk * ldb);
        for r in 0..if PREFETCH { own_b } else { 0 } {
            <Avx2 as Leg>::prefetch(b_kk.wrapping_add(r * bs).wrapping_add(ahead));
        }
        let shared = (E::load8(b_kk), E::load8(b_kk.add(8)));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let (b0, b1) = match BATCHED {
                false => shared,
                true => {
                    let b_r = b_kk.add(r * bs);
                    (E::load8(b_r), E::load8(b_r.add(8)))
                }
            };
            // mul then add, never fused: the scalar oracle rounds the
            // product before the sum.
            let av = _mm256_set1_ps(*a.add(r * lda + kk));
            acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(av, b0));
            acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(av, b1));
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), acc_r[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), acc_r[1]);
    }
}

#[cfg(target_arch = "x86_64")]
impl Leg for Avx2 {
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn tile<E: Element>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: *const E,
        ldb: usize,
        _sb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    ) {
        debug_assert_eq!(strips, 1, "an AVX2 tile is one strip wide");
        let (f, p) = (first, ahead);
        match (rows, ahead != 0) {
            (4, false) => avx2_rows::<4, false, false, _>(a, lda, b, ldb, 0, kc, c, ldc, f, 0),
            (3, false) => avx2_rows::<3, false, false, _>(a, lda, b, ldb, 0, kc, c, ldc, f, 0),
            (2, false) => avx2_rows::<2, false, false, _>(a, lda, b, ldb, 0, kc, c, ldc, f, 0),
            (_, false) => avx2_rows::<1, false, false, _>(a, lda, b, ldb, 0, kc, c, ldc, f, 0),
            (4, true) => avx2_rows::<4, false, true, _>(a, lda, b, ldb, 0, kc, c, ldc, f, p),
            (3, true) => avx2_rows::<3, false, true, _>(a, lda, b, ldb, 0, kc, c, ldc, f, p),
            (2, true) => avx2_rows::<2, false, true, _>(a, lda, b, ldb, 0, kc, c, ldc, f, p),
            (_, true) => avx2_rows::<1, false, true, _>(a, lda, b, ldb, 0, kc, c, ldc, f, p),
        }
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn tile_batched<E: Element>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: *const E,
        ldb: usize,
        _sb: usize,
        bs: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    ) {
        debug_assert_eq!(strips, 1, "an AVX2 tile is one strip wide");
        let (f, p) = (first, ahead);
        match (rows, ahead != 0) {
            (4, false) => avx2_rows::<4, true, false, _>(a, lda, b, ldb, bs, kc, c, ldc, f, 0),
            (3, false) => avx2_rows::<3, true, false, _>(a, lda, b, ldb, bs, kc, c, ldc, f, 0),
            (2, false) => avx2_rows::<2, true, false, _>(a, lda, b, ldb, bs, kc, c, ldc, f, 0),
            (_, false) => avx2_rows::<1, true, false, _>(a, lda, b, ldb, bs, kc, c, ldc, f, 0),
            (4, true) => avx2_rows::<4, true, true, _>(a, lda, b, ldb, bs, kc, c, ldc, f, p),
            (3, true) => avx2_rows::<3, true, true, _>(a, lda, b, ldb, bs, kc, c, ldc, f, p),
            (2, true) => avx2_rows::<2, true, true, _>(a, lda, b, ldb, bs, kc, c, ldc, f, p),
            (_, true) => avx2_rows::<1, true, true, _>(a, lda, b, ldb, bs, kc, c, ldc, f, p),
        }
    }

    #[inline(always)]
    fn prefetch<T>(p: *const T) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is part of the x86_64 baseline and a prefetch has
        // no architectural effect whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn block<E: Element>(ops: &Operands<E>, block: &OutBlock) {
        block_body::<Self, E>(ops, block)
    }
}

/// The AVX-512 leg: a [`Leg::tile`] is up to eight rows of two strips, one
/// sixteen-wide vector each — sixteen independent add chains, every `lhs`
/// broadcast feeding 32 columns and every `rhs` vector eight rows. A
/// batched tile keeps four rows. The prefetch hint is [`Avx2`]'s.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx512;

/// [`Avx512`]'s tile body for `R` rows of `S` strips, as [`avx2_rows`] is
/// [`Avx2`]'s.
///
/// # Safety
///
/// The contract of the one it implements.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx512_rows<
    const R: usize,
    const S: usize,
    const BATCHED: bool,
    const PREFETCH: bool,
    E: Element,
>(
    a: *const f32,
    lda: usize,
    b: *const E,
    ldb: usize,
    sb: usize,
    bs: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    first: bool,
    ahead: usize,
) {
    use core::arch::x86_64::*;
    // A batched tile's rows each read a `b` of their own.
    let (mut acc, own_b) = ([[_mm512_setzero_ps(); S]; R], if BATCHED { R } else { 1 });
    if !first {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            for (s, acc_v) in acc_r.iter_mut().enumerate() {
                *acc_v = _mm512_loadu_ps(c.add(r * ldc + s * STRIP_COLS));
            }
        }
    }
    for kk in 0..kc {
        let b_kk = b.add(kk * ldb);
        let mut shared = [_mm512_setzero_ps(); S];
        for (s, bv) in shared.iter_mut().enumerate() {
            for r in 0..if PREFETCH { own_b } else { 0 } {
                let b_rs = b_kk.wrapping_add(r * bs + s * sb);
                <Avx2 as Leg>::prefetch(b_rs.wrapping_add(ahead));
            }
            if !BATCHED {
                *bv = E::load16(b_kk.add(s * sb));
            }
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // mul then add, never fused: the scalar oracle rounds the
            // product before the sum.
            let av = _mm512_set1_ps(*a.add(r * lda + kk));
            for (s, acc_v) in acc_r.iter_mut().enumerate() {
                let bv = match BATCHED {
                    false => shared[s],
                    true => E::load16(b_kk.add(r * bs + s * sb)),
                };
                *acc_v = _mm512_add_ps(*acc_v, _mm512_mul_ps(av, bv));
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (s, &acc_v) in acc_r.iter().enumerate() {
            _mm512_storeu_ps(c.add(r * ldc + s * STRIP_COLS), acc_v);
        }
    }
}

/// [`avx512_rows`] for a tile of `rows` rows of `S` strips, a
/// [`Leg::tile`] or (`BATCHED`) a [`Leg::tile_batched`], prefetching
/// `ahead` when `PREFETCH`.
///
/// # Safety
///
/// The contract of the [`Leg`] tile it implements.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx512_tile<const S: usize, const BATCHED: bool, const PREFETCH: bool, E: Element>(
    rows: usize,
    a: *const f32,
    lda: usize,
    b: *const E,
    ldb: usize,
    sb: usize,
    bs: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    first: bool,
    ahead: usize,
) {
    let (s, f, p) = (sb, first, ahead);
    match rows {
        8 => avx512_rows::<8, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        7 => avx512_rows::<7, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        6 => avx512_rows::<6, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        5 => avx512_rows::<5, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        4 => avx512_rows::<4, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        3 => avx512_rows::<3, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        2 => avx512_rows::<2, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        _ => avx512_rows::<1, S, BATCHED, PREFETCH, _>(a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
    }
}

#[cfg(target_arch = "x86_64")]
impl Leg for Avx512 {
    const ROWS: usize = MAX_TILE_ROWS;
    const STRIPS: usize = MAX_STRIPS;

    #[target_feature(enable = "avx512f")]
    unsafe fn tile<E: Element>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: *const E,
        ldb: usize,
        sb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    ) {
        let (s, f, p) = (sb, first, ahead);
        match (strips, ahead) {
            (2, 0) => {
                avx512_tile::<2, false, false, _>(rows, a, lda, b, ldb, s, 0, kc, c, ldc, f, 0)
            }
            (2, _) => {
                avx512_tile::<2, false, true, _>(rows, a, lda, b, ldb, s, 0, kc, c, ldc, f, p)
            }
            (_, 0) => {
                avx512_tile::<1, false, false, _>(rows, a, lda, b, ldb, s, 0, kc, c, ldc, f, 0)
            }
            _ => avx512_tile::<1, false, true, _>(rows, a, lda, b, ldb, s, 0, kc, c, ldc, f, p),
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn tile_batched<E: Element>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: *const E,
        ldb: usize,
        sb: usize,
        bs: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    ) {
        let (s, f, p) = (sb, first, ahead);
        match (strips, ahead) {
            (2, 0) => {
                avx512_tile::<2, true, false, _>(rows, a, lda, b, ldb, s, bs, kc, c, ldc, f, 0)
            }
            (2, _) => {
                avx512_tile::<2, true, true, _>(rows, a, lda, b, ldb, s, bs, kc, c, ldc, f, p)
            }
            (_, 0) => {
                avx512_tile::<1, true, false, _>(rows, a, lda, b, ldb, s, bs, kc, c, ldc, f, 0)
            }
            _ => avx512_tile::<1, true, true, _>(rows, a, lda, b, ldb, s, bs, kc, c, ldc, f, p),
        }
    }

    #[inline(always)]
    fn prefetch<T>(p: *const T) {
        <Avx2 as Leg>::prefetch(p)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn block<E: Element>(ops: &Operands<E>, block: &OutBlock) {
        block_body::<Self, E>(ops, block)
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) struct Neon;

/// The 4-lane mirror of [`Avx2`]: four vectors per tile row. It keeps the
/// default (empty) `prefetch` — stable Rust has no aarch64 prefetch
/// intrinsic, so a packed walk's `ahead` and a resident product's next
/// page go unused and the stream is left to the hardware prefetchers — and
/// the default (portable) `tile_batched`.
#[cfg(target_arch = "aarch64")]
impl Leg for Neon {
    #[target_feature(enable = "neon")]
    unsafe fn tile<E: Element>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: *const E,
        ldb: usize,
        _sb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        _ahead: usize,
    ) {
        use core::arch::aarch64::*;
        debug_assert_eq!(strips, 1, "a NEON tile is one strip wide");

        #[inline]
        #[target_feature(enable = "neon")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn rows_n<const R: usize, E: Element>(
            a: *const f32,
            lda: usize,
            b: *const E,
            ldb: usize,
            kc: usize,
            c: *mut f32,
            ldc: usize,
            first: bool,
        ) {
            let mut acc = [[vdupq_n_f32(0.0); 4]; R];
            if !first {
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    for (v, acc_v) in acc_r.iter_mut().enumerate() {
                        *acc_v = vld1q_f32(c.add(r * ldc + 4 * v));
                    }
                }
            }
            for kk in 0..kc {
                let b_kk = b.add(kk * ldb);
                let bv = [
                    E::load4(b_kk),
                    E::load4(b_kk.add(4)),
                    E::load4(b_kk.add(8)),
                    E::load4(b_kk.add(12)),
                ];
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    // vaddq + vmulq, not vfmaq: the scalar oracle rounds
                    // the product before the sum.
                    let av = vdupq_n_f32(*a.add(r * lda + kk));
                    for (acc_v, &b_v) in acc_r.iter_mut().zip(&bv) {
                        *acc_v = vaddq_f32(*acc_v, vmulq_f32(av, b_v));
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                for (v, &acc_v) in acc_r.iter().enumerate() {
                    vst1q_f32(c.add(r * ldc + 4 * v), acc_v);
                }
            }
        }

        match rows {
            4 => rows_n::<4, _>(a, lda, b, ldb, kc, c, ldc, first),
            3 => rows_n::<3, _>(a, lda, b, ldb, kc, c, ldc, first),
            2 => rows_n::<2, _>(a, lda, b, ldb, kc, c, ldc, first),
            _ => rows_n::<1, _>(a, lda, b, ldb, kc, c, ldc, first),
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn block<E: Element>(ops: &Operands<E>, block: &OutBlock) {
        block_body::<Self, E>(ops, block)
    }
}
