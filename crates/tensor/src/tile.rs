//! The register-tiled GEMM kernel behind the vector legs of every
//! [`crate::Matrix`] product, `lhs · rhs` and `lhs · rhsᵀ` alike, and of
//! the [`crate::Strided`] view products the attention page walk is made
//! of.
//!
//! Output-stationary: a tile of [`TILE_ROWS`]` × `[`TILE_COLS`] output
//! elements lives in vector registers while `k` walks a panel, so every
//! `rhs` vector loaded feeds four rows and every `lhs` scalar sixteen
//! columns, and the output is touched once per panel instead of once per
//! `k`. A strip's panel is first packed contiguous, `panel[kk · 16 + j] =
//! b[k0 + kk][j0 + j]`, and **the pack is the only code that knows how
//! `rhs` lies in memory** ([`Layout`], monomorphised into the panel
//! loops, which exist once):
//!
//! * [`Layout::RowMajor`], `rhs` held `k × n`: a panel row is sixteen
//!   contiguous floats of one `rhs` row. In place the panel would stride
//!   by a whole `rhs` row — one cache line per `k`, each in a different
//!   page, evicting itself from a power-of-two-strided L1 set — whereas
//!   the packing loop is nothing but independent loads.
//! * [`Layout::Transposed`], `rhs` held `n × k` (the tied LM head's
//!   embedding table): a strip is sixteen `rhs` rows, each a contiguous
//!   stream along `k`, and the pack transposes them
//!   ([`Leg::pack_transposed`]: 8×4 blocks in registers on AVX2, a
//!   portable loop elsewhere).
//!
//! `rhs` is streamed from memory exactly once per call however many rows
//! there are; with the weights of a whole model cycling through a step
//! that, not the arithmetic, is what a small batch is bound by, so the
//! panel walk comes in two orders:
//!
//! * **Few row-major rows** (below [`DEEP_MIN_ROWS`], a decode batch): k
//!   panel → column strip → row tile over [`KC_SHALLOW`]-deep panels. A
//!   panel is eight whole `rhs` rows swept left to right — eight ascending
//!   address streams the hardware prefetchers follow, helped by a software
//!   prefetch [`PREFETCH_STRIPS`] strips ahead (eight lines per strip: a
//!   deeper panel overflows the L1 set a power-of-two row stride maps a
//!   strip's lines to). With one or two row tiles per strip there is no
//!   arithmetic to hide a strided fetch behind: walked the deep way, a
//!   cold 8-row GEMM ran at 0.45 of the tile's L1-resident speed and most
//!   of a decode step was memory stall, whose length does not follow the
//!   core's clock; this way it runs at 0.75, cold or hot.
//! * **Many rows** (a prefill chunk), **and the transposed layout at
//!   every row count**: column strip → k panel → row tile over
//!   [`KC`]-deep panels, so the output block — too big for the L1 by
//!   now — is loaded and stored once per 256 `k` instead of once per 8,
//!   and eight or more row tiles of arithmetic per packed panel cover the
//!   strided fetch (0.8–0.85 of L1-resident speed at 64 rows; the shallow
//!   order reads 0.6–0.7 there). A transposed strip walked this way *is*
//!   the address order — sixteen ascending streams read end to end —
//!   while a shallow panel would touch 32 bytes of each of `n` rows per
//!   sweep: walked k-panel-major a cold 8 × 256 × 2048 transposed product
//!   took 630–730 µs against 300–340 µs strip-major.
//!
//! Fewer than [`TILE_ROWS`] row-major rows, and a row-major block's
//! ragged columns, take the single-row axpy walk instead: it streams
//! `rhs` rows contiguously, which one to three rows of arithmetic cannot
//! beat by packing first, and it skips the zeros a post-ReLU row is half
//! made of. The transposed layout has no contiguous `rhs` row to stream:
//! its one to three rows run the tile at their own height — the pack is
//! then most of the cost, which is why AVX2 has a vector one (through the
//! portable loop a cold one-row 256 × 512 product took 57–79 µs against
//! 25–48) — and its ragged columns run it over a zero-padded panel into a
//! sixteen-wide edge buffer, from which only the strip's own columns are
//! copied out.
//!
//! All of that is shaped around a `rhs` that streams from memory. A
//! **resident** product ([`Operands::resident`], what a [`crate::Strided`]
//! view runs) multiplies by a window of a tile that is already in the L1 —
//! one head's keys or values of a KV page, sixteen positions by 64 —
//! thousands of times a step, so nothing in it is: the tile runs at every
//! height (strip → k panel → row tile, ragged columns through the edge
//! buffer), and its `rhs` is row-major and read where it lies (the tile
//! takes the `rhs` row stride; a pack would copy each operand once per
//! use). Attention stores its operands that way — a page's keys
//! position-minor, so sixteen positions sit side by side — and so packs
//! nothing; the transposing pack serves the streamed transposed layout,
//! and, through [`transpose`], turns an Anda page's decoded keys
//! position-minor once per page. A resident product can also
//! **accumulate** (its sums start from the output's contents, which is
//! how attention's `out += p · v` crosses a page boundary), and it is
//! **batched** ([`Operands::rhs_stride`]): each row multiplies its own
//! window — a lane's heads, each against its own keys — and a row tile is
//! four independent products ([`Leg::tile_batched`]), whose accumulator
//! chains hide the add latency a one-row product stalls on. Its ragged
//! strips pack each row's window into a quarter of the panel.
//!
//! Whatever the path, element `(i, j)` is `Σ_k a[i][k] · b[k][j]`
//! accumulated in ascending `k` from `+0.0` (or the output's value),
//! multiply then add, never fused — the operation sequence of the scalar
//! oracles (`Matrix::matmul_rows_scalar`,
//! `Matrix::matmul_transposed_rows_scalar`, [`resident_block_scalar`]), so
//! every leg, layout, tile boundary, panel order and sharding is
//! `f32::to_bits`-identical to them (a panel boundary only parks the
//! accumulators in the output, an exact `f32` round trip). For a streamed
//! row-major `rhs` that holds for finite `rhs`: the oracle's `a == 0` skip
//! is not part of the contract (see its docs); the tiles do not skip, the
//! axpy walk does. Transposed or resident, nothing skips, so it holds on
//! every input.

use core::ops::Range;

/// Output rows per register tile.
pub(crate) const TILE_ROWS: usize = 4;
/// Output columns per register tile (two AVX2 / four NEON vectors).
pub(crate) const TILE_COLS: usize = 16;
/// Depth of one k panel of the many-rows order: a packed strip panel is
/// `KC × TILE_COLS` f32 (16 KiB, L1-resident).
const KC: usize = 256;
/// Depth of one k panel of the few-rows order.
const KC_SHALLOW: usize = 8;
/// Row count from which the many-rows order is used.
const DEEP_MIN_ROWS: usize = 32;
/// How many strips ahead of the one being packed the few-rows order
/// prefetches.
const PREFETCH_STRIPS: usize = 4;

/// How the `rhs` of a product lies in memory. Only the strip-panel pack
/// reads `rhs`, so only the pack (and the walk chosen to suit it) differs
/// between the two.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `k` rows of `n`: `lhs · rhs`.
    RowMajor,
    /// `n` rows of `k`: `lhs · rhsᵀ`.
    Transposed,
}

/// The inputs of one product and how all three operands lie in memory:
/// row `i` of `lhs` starts at `i · lda`, row `r` of `rhs` (a `k` row, or an
/// `n` row when transposed) at `r · ldb`, output row `i` at `i · ldc`. A
/// [`crate::Matrix`] passes its widths; a [`crate::Strided`] view passes
/// the strides of the buffer it is a window of.
pub(crate) struct Operands<'a> {
    pub lhs: &'a [f32],
    pub lda: usize,
    pub rhs: &'a [f32],
    pub ldb: usize,
    pub layout: Layout,
    pub k: usize,
    pub ldc: usize,
    /// Every sum starts from the output's current contents instead of
    /// `+0.0`.
    pub accumulate: bool,
    /// `rhs` is a window of a cache-resident tile rather than a weight
    /// matrix streaming from memory: nothing of the product is shaped
    /// around the stream — no axpy walk (so nothing skips a zero), no
    /// shallow prefetched panels, and full row-major strips are read where
    /// they lie instead of being packed. A resident product is batched.
    pub resident: bool,
    /// Resident, row-major only: `lhs` row `i` multiplies its own `rhs`
    /// window, `i · rhs_stride` elements after the first (0: one `rhs` for
    /// every row; ignored by a streamed product).
    pub rhs_stride: usize,
}

/// A `rows × cols` block of a row-major output, addressed through a raw
/// pointer so pool jobs can own disjoint column ranges of the same rows.
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

/// One vector leg: its two inner loops, its prefetch hint, its
/// transposing pack and the entry point compiled with its CPU feature.
pub(crate) trait Leg {
    /// `c[r][0..16] (+)= Σ_kk a[r][kk] · b[kk][0..16]` for `r < rows`
    /// (`1..=TILE_ROWS`) and `kk < kc`, ascending; accumulators start at
    /// `+0.0` when `first`, else at `c`'s current contents.
    ///
    /// # Safety
    ///
    /// Needs the leg's CPU feature; `a` must be readable at
    /// `r · lda + kk`, `b` (a packed panel, `ldb = 16`, or sixteen columns
    /// of resident `rhs` rows) at `kk · ldb + 0..16`, and `c` readable and
    /// writable at `r · ldc + 0..16`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile(
        rows: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
    );

    /// [`Leg::tile`] with row `r` reading its own `b`, `r · bs` further
    /// on: `c[r][0..16] (+)= Σ_kk a[r][kk] · b[r · bs + kk · ldb][0..16]`.
    /// The rows of a tile are then independent products, each with its
    /// own two (AVX2) or four (NEON) accumulator chains. The default is
    /// the portable loop, in the same operation order.
    ///
    /// # Safety
    ///
    /// As [`Leg::tile`], with `b` readable at `r · bs + kk · ldb + 0..16`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile_batched(
        rows: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        bs: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
    ) {
        for r in 0..rows {
            let (a, b, c) = (a.add(r * lda), b.add(r * bs), c.add(r * ldc));
            for j in 0..TILE_COLS {
                let mut acc = if first { 0.0 } else { *c.add(j) };
                for kk in 0..kc {
                    acc += *a.add(kk) * *b.add(kk * ldb + j);
                }
                *c.add(j) = acc;
            }
        }
    }

    /// `c[j] = Σ_kk a[kk] · b[kk · ldb + j]` for `j < width`: one output
    /// row over contiguous `rhs` rows, skipping `a[kk] == 0`.
    ///
    /// # Safety
    ///
    /// Needs the leg's CPU feature; `b` must be readable at
    /// `kk · ldb + 0..width` for `kk < a.len()` and `c` writable at
    /// `0..width`.
    unsafe fn axpy_row(a: &[f32], b: *const f32, ldb: usize, c: *mut f32, width: usize);

    /// Hints that the cache line at `p` is about to be read. `p` need not
    /// be readable: a prefetch never faults. The default does nothing and
    /// leaves the stream to the hardware prefetchers.
    #[inline(always)]
    fn prefetch(_p: *const f32) {}

    /// Transposes sixteen rows of `b` into `panel`: `panel[kk · ldp + j] =
    /// b[j · ldb + kk]` for `j < 16` and `kk < kc` — a strip panel of a
    /// transposed `rhs` (`ldp = 16`), or sixteen positions of a page's keys
    /// turned position-minor ([`transpose`]). The default is the portable
    /// loop.
    ///
    /// # Safety
    ///
    /// Needs the leg's CPU feature; `b` must be readable at
    /// `j · ldb + 0..kc` for `j < 16` and `panel` writable at
    /// `kk · ldp + 0..16` for `kk < kc`.
    #[inline(always)]
    unsafe fn pack_transposed(b: *const f32, ldb: usize, kc: usize, panel: *mut f32, ldp: usize) {
        pack_transposed_portable(b, ldb, TILE_COLS, 0..kc, panel, ldp)
    }

    /// [`matmul_block`], monomorphised for `ops.layout` and for a resident
    /// `rhs` and compiled with the leg's CPU feature enabled, so that the
    /// pack, the tile and the axpy walk inline into the panel loops (a
    /// shallow panel is eight `k` steps per tile call; with the batched
    /// branches in them the panel loops no longer inlined, and a shallow
    /// 4-row GEMM ran at a third of its speed).
    ///
    /// # Safety
    ///
    /// [`matmul_block`]'s contract, and the CPU must support the leg.
    unsafe fn block(ops: &Operands, block: &OutBlock);
}

/// Rows `kks` of [`Leg::pack_transposed`]'s panel for the strip's first
/// `width` columns, one `rhs` row (a contiguous stream) at a time.
///
/// # Safety
///
/// As [`Leg::pack_transposed`], for `j < width` and `kk` in `kks`.
#[inline(always)]
pub(crate) unsafe fn pack_transposed_portable(
    b: *const f32,
    ldb: usize,
    width: usize,
    kks: Range<usize>,
    panel: *mut f32,
    ldp: usize,
) {
    for j in 0..width {
        for kk in kks.clone() {
            *panel.add(kk * ldp + j) = *b.add(j * ldb + kk);
        }
    }
}

/// `dst[c · ldd + r] = src[r · lds + c]` for `r < rows` and `c < cols`:
/// [`Leg::pack_transposed`] over every whole sixteen-row strip, its
/// portable loop over a ragged last one.
///
/// # Safety
///
/// Needs the leg's CPU feature; `src` must be readable at `r · lds +
/// 0..cols` and `dst` writable at `c · ldd + 0..rows`, and the two must not
/// overlap.
pub(crate) unsafe fn transpose<L: Leg>(
    src: *const f32,
    lds: usize,
    rows: usize,
    cols: usize,
    dst: *mut f32,
    ldd: usize,
) {
    for r0 in (0..rows).step_by(TILE_COLS) {
        let (src, dst) = (src.add(r0 * lds), dst.add(r0));
        match rows - r0 {
            TILE_COLS.. => L::pack_transposed(src, lds, cols, dst, ldd),
            width => pack_transposed_portable(src, lds, width, 0..cols, dst, ldd),
        }
    }
}

/// Computes `block` of `ops.lhs · ops.rhs` (`rhs` read through
/// `ops.layout`, which `TRANSPOSED` repeats, and resident and batched when
/// `RESIDENT`, which `ops.resident` repeats); see the module docs. Called
/// through [`Leg::block`], which picks the instance: the batched branches
/// are then compiled out of every streamed product.
///
/// # Safety
///
/// `block.ptr` must be valid for reads and writes of `block.cols` of
/// `block.rows` rows `ops.ldc` apart, and nothing else may access those
/// elements during the call. `ops.lhs` must hold `ops.k` elements of rows
/// `block.row0 .. block.row0 + block.rows` at stride `ops.lda`, and
/// `ops.rhs` its `k × block.cols.end` (transposed: `block.cols.end × k`)
/// elements at stride `ops.ldb` — per row, `ops.rhs_stride` apart, for a
/// resident product.
#[inline(always)]
unsafe fn matmul_block<L: Leg, const TRANSPOSED: bool, const RESIDENT: bool>(
    ops: &Operands,
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
        ..
    } = ops;
    let bs = if RESIDENT { ops.rhs_stride } else { 0 };
    debug_assert!(!(RESIDENT && TRANSPOSED), "a resident rhs is row-major");
    let (out, row0, rows, cols) = (block.ptr, block.row0, block.rows, &block.cols);
    let a = lhs.as_ptr().add(row0 * lda);
    let b = rhs.as_ptr().add(row0 * bs);
    if k == 0 {
        // An empty sum is the value it starts from.
        for i in 0..if accumulate { 0 } else { rows } {
            core::ptr::write_bytes(out.add(i * ldc + cols.start), 0, cols.len());
        }
        return;
    }
    // The single-row walk over a streamed row-major `rhs`: sub-tile row
    // counts and ragged columns.
    let axpy = !TRANSPOSED && !RESIDENT;
    debug_assert!(!(axpy && accumulate), "the axpy walk overwrites its output");
    let axpy_cols = |cols: Range<usize>| {
        for i in 0..rows {
            let a_row = &lhs[(row0 + i) * lda..][..k];
            L::axpy_row(
                a_row,
                b.add(cols.start),
                ldb,
                out.add(i * ldc + cols.start),
                cols.len(),
            );
        }
    };
    if axpy && rows < TILE_ROWS {
        return axpy_cols(cols.clone());
    }

    let strips_end = cols.end - cols.len() % TILE_COLS;
    // Every element a tile reads was packed earlier in the same call.
    let mut panel = core::mem::MaybeUninit::<[f32; KC * TILE_COLS]>::uninit();
    let panel: *mut f32 = panel.as_mut_ptr().cast();
    // A batched product packs a ragged strip per row — a tile's rows each
    // own a panel — so its k panels are a quarter as deep.
    let kc_max = if RESIDENT { KC / TILE_ROWS } else { KC };
    // Copies `kc` rows of the `width`-column strip at `src` into a panel,
    // zero-padded to sixteen columns; `ahead` is the row-major strip to
    // prefetch meanwhile, line for line.
    let copy_strip = |src: *const f32, width, kc, dst: *mut f32, ahead: Option<*const f32>| {
        for kk in 0..kc {
            if let Some(ahead) = ahead {
                L::prefetch(ahead.wrapping_add(kk * ldb));
            }
            let dst = dst.add(kk * TILE_COLS);
            core::ptr::copy_nonoverlapping(src.add(kk * ldb), dst, width);
            core::ptr::write_bytes(dst.add(width), 0, TILE_COLS - width);
        }
    };
    // A ragged strip's tiles compute into here, sixteen wide, and only the
    // strip's own columns are copied back.
    let mut edge = [0.0f32; TILE_ROWS * TILE_COLS];
    // Runs every row tile over panel `k0..k0 + kc` of the `width`-column
    // strip at `j0`, packing it first unless it is read in place.
    let mut strip_panel =
        |j0: usize, width: usize, k0: usize, kc: usize, ahead: Option<*const f32>| {
            let full = width == TILE_COLS;
            let strip = b.add(k0 * ldb + j0);
            let (mut tile_b, mut tile_ldb) = (panel.cast_const(), TILE_COLS);
            if TRANSPOSED && full {
                L::pack_transposed(b.add(j0 * ldb + k0), ldb, kc, panel, TILE_COLS);
            } else if TRANSPOSED {
                core::ptr::write_bytes(panel, 0, kc * TILE_COLS);
                let b = b.add(j0 * ldb + k0);
                pack_transposed_portable(b, ldb, width, 0..kc, panel, TILE_COLS);
            } else if RESIDENT && full {
                (tile_b, tile_ldb) = (strip, ldb);
            } else if !RESIDENT {
                copy_strip(strip, width, kc, panel, ahead);
            }
            let first = k0 == 0 && !accumulate;
            for i0 in (0..rows).step_by(TILE_ROWS) {
                let r = TILE_ROWS.min(rows - i0);
                let a = a.add(i0 * lda + k0);
                let c = out.add(i0 * ldc + j0);
                // This row tile's `rhs` windows and how far apart they lie.
                let (tile_b, tile_bs) = match (RESIDENT, full) {
                    (false, _) => (tile_b, 0),
                    (true, true) => (tile_b.add(i0 * bs), bs),
                    (true, false) => {
                        for i in 0..r {
                            let dst = panel.add(i * kc * TILE_COLS);
                            copy_strip(strip.add((i0 + i) * bs), width, kc, dst, None);
                        }
                        (panel.cast_const(), kc * TILE_COLS)
                    }
                };
                let run = |c: *mut f32, ldc: usize| match RESIDENT {
                    false => L::tile(r, a, lda, tile_b, tile_ldb, kc, c, ldc, first),
                    true => {
                        L::tile_batched(r, a, lda, tile_b, tile_ldb, tile_bs, kc, c, ldc, first)
                    }
                };
                if full {
                    run(c, ldc);
                    continue;
                }
                let edge = edge.as_mut_ptr();
                for i in 0..if first { 0 } else { r } {
                    core::ptr::copy_nonoverlapping(c.add(i * ldc), edge.add(i * TILE_COLS), width);
                }
                run(edge, TILE_COLS);
                for i in 0..r {
                    core::ptr::copy_nonoverlapping(edge.add(i * TILE_COLS), c.add(i * ldc), width);
                }
            }
        };
    if axpy && rows < DEEP_MIN_ROWS {
        let width = strips_end - cols.start;
        for k0 in (0..k).step_by(KC_SHALLOW) {
            let kc = KC_SHALLOW.min(k - k0);
            for j0 in (cols.start..strips_end).step_by(TILE_COLS) {
                // The strip `PREFETCH_STRIPS` further on in the sweep,
                // which past the block's last strip continues at the first
                // strips of the next panel. That panel may be short of
                // `kc` rows: the hint is free to miss.
                let at = j0 - cols.start + PREFETCH_STRIPS * TILE_COLS;
                let k_ahead = k0 + at / width * KC_SHALLOW;
                let ahead =
                    (k_ahead < k).then(|| b.wrapping_add(k_ahead * ldb + cols.start + at % width));
                strip_panel(j0, TILE_COLS, k0, kc, ahead);
            }
        }
    } else {
        for j0 in (cols.start..strips_end).step_by(TILE_COLS) {
            for k0 in (0..k).step_by(kc_max) {
                strip_panel(j0, TILE_COLS, k0, kc_max.min(k - k0), None);
            }
        }
    }
    if strips_end < cols.end && axpy {
        axpy_cols(strips_end..cols.end);
    } else if strips_end < cols.end {
        let width = cols.end - strips_end;
        for k0 in (0..k).step_by(kc_max) {
            strip_panel(strips_end, width, k0, kc_max.min(k - k0), None);
        }
    }
}

/// `acc + Σ_k a[k] · b[k]` in ascending `k`, multiply then add: one output
/// element of either layout, as every kernel accumulates it (from `+0.0`
/// unless the product accumulates).
#[inline(always)]
pub(crate) fn dot(mut acc: f32, a: &[f32], b: &[f32]) -> f32 {
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// The scalar oracle of a resident product ([`Operands::resident`]) — the
/// loops every vector leg of [`crate::Strided`]'s products is pinned to,
/// on every input: `out[i][j] += a[i][kk] · b[kk][j]` for ascending `kk`,
/// skipping nothing, row `i` reading `b` from `i · rhs_stride` on.
pub(crate) fn resident_block_scalar(ops: &Operands, rows: usize, n: usize, out: &mut [f32]) {
    debug_assert!(
        ops.layout == Layout::RowMajor,
        "a resident rhs is row-major"
    );
    for i in 0..rows {
        let a_row = &ops.lhs[i * ops.lda..][..ops.k];
        let b = &ops.rhs[i * ops.rhs_stride..];
        let out_row = &mut out[i * ops.ldc..][..n];
        if !ops.accumulate {
            out_row.fill(0.0);
        }
        for (kk, &av) in a_row.iter().enumerate() {
            for (o, &bv) in out_row.iter_mut().zip(&b[kk * ops.ldb..][..n]) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx2;

/// [`Avx2`]'s tile body for `R` rows: [`Leg::tile`] with every row reading
/// one `b` (`BATCHED` false, `bs` ignored), or [`Leg::tile_batched`].
///
/// # Safety
///
/// The contract of the one it implements.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx2_rows<const R: usize, const BATCHED: bool>(
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    bs: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    first: bool,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    if !first {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r[0] = _mm256_loadu_ps(c.add(r * ldc));
            acc_r[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
        }
    }
    for kk in 0..kc {
        let b_kk = b.add(kk * ldb);
        let shared = (_mm256_loadu_ps(b_kk), _mm256_loadu_ps(b_kk.add(8)));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let (b0, b1) = match BATCHED {
                false => shared,
                true => {
                    let b_r = b_kk.add(r * bs);
                    (_mm256_loadu_ps(b_r), _mm256_loadu_ps(b_r.add(8)))
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
    #[target_feature(enable = "avx2")]
    unsafe fn tile(
        rows: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
    ) {
        match rows {
            4 => avx2_rows::<4, false>(a, lda, b, ldb, 0, kc, c, ldc, first),
            3 => avx2_rows::<3, false>(a, lda, b, ldb, 0, kc, c, ldc, first),
            2 => avx2_rows::<2, false>(a, lda, b, ldb, 0, kc, c, ldc, first),
            _ => avx2_rows::<1, false>(a, lda, b, ldb, 0, kc, c, ldc, first),
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn tile_batched(
        rows: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        bs: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
    ) {
        match rows {
            4 => avx2_rows::<4, true>(a, lda, b, ldb, bs, kc, c, ldc, first),
            3 => avx2_rows::<3, true>(a, lda, b, ldb, bs, kc, c, ldc, first),
            2 => avx2_rows::<2, true>(a, lda, b, ldb, bs, kc, c, ldc, first),
            _ => avx2_rows::<1, true>(a, lda, b, ldb, bs, kc, c, ldc, first),
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn axpy_row(a: &[f32], b: *const f32, ldb: usize, c: *mut f32, width: usize) {
        use core::arch::x86_64::*;
        let wv = width - width % 8;
        core::ptr::write_bytes(c, 0, width);
        for (kk, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.add(kk * ldb);
            let avv = _mm256_set1_ps(av);
            for j in (0..wv).step_by(8) {
                let o = _mm256_loadu_ps(c.add(j));
                let bv = _mm256_loadu_ps(b_row.add(j));
                _mm256_storeu_ps(c.add(j), _mm256_add_ps(o, _mm256_mul_ps(avv, bv)));
            }
            for j in wv..width {
                *c.add(j) += av * *b_row.add(j);
            }
        }
    }

    #[inline(always)]
    fn prefetch(p: *const f32) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is part of the x86_64 baseline and a prefetch has
        // no architectural effect whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
    }

    /// Four `k` of the strip's sixteen rows at a time, transposed in
    /// registers as two 8×4 blocks: a vector is loaded as four `k` of row
    /// `j` in its low lane and of row `j + 4` in its high lane, so the
    /// in-lane unpack/shuffle ladder already leaves eight columns of one
    /// `k` in every vector and no cross-lane permute follows. The `kc % 4`
    /// tail is the portable loop. Meanwhile the next strip is prefetched: a
    /// strip's rows are sixteen streams of `k` floats each — too short for
    /// the hardware prefetchers to run ahead on — and under one to three
    /// rows there is no arithmetic to hide the fetch behind (without the
    /// hint a cold one-row 256 × 512 product took 1.06–1.9× as long, in
    /// seven of seven alternating rounds).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pack_transposed(b: *const f32, ldb: usize, kc: usize, panel: *mut f32, ldp: usize) {
        use core::arch::x86_64::*;
        let blocks_end = kc - kc % 4;
        for kk in (0..blocks_end).step_by(4) {
            for j0 in [0, 8] {
                let src = b.add(j0 * ldb + kk);
                if kk % 16 == 0 {
                    // The same cache line of every row of the next strip.
                    for j in 0..8 {
                        Self::prefetch(src.wrapping_add((TILE_COLS + j) * ldb));
                    }
                }
                let rows = |j: usize| {
                    let lo = _mm_loadu_ps(src.add(j * ldb));
                    let hi = _mm_loadu_ps(src.add((j + 4) * ldb));
                    _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
                };
                let (r0, r1, r2, r3) = (rows(0), rows(1), rows(2), rows(3));
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                let dst = panel.add(kk * ldp + j0);
                _mm256_storeu_ps(dst, _mm256_shuffle_ps::<0x44>(t0, t2));
                _mm256_storeu_ps(dst.add(ldp), _mm256_shuffle_ps::<0xEE>(t0, t2));
                _mm256_storeu_ps(dst.add(2 * ldp), _mm256_shuffle_ps::<0x44>(t1, t3));
                _mm256_storeu_ps(dst.add(3 * ldp), _mm256_shuffle_ps::<0xEE>(t1, t3));
            }
        }
        pack_transposed_portable(b, ldb, TILE_COLS, blocks_end..kc, panel, ldp);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn block(ops: &Operands, block: &OutBlock) {
        match (ops.layout, ops.resident) {
            (Layout::RowMajor, false) => matmul_block::<Self, false, false>(ops, block),
            (Layout::RowMajor, true) => matmul_block::<Self, false, true>(ops, block),
            (Layout::Transposed, _) => matmul_block::<Self, true, false>(ops, block),
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) struct Neon;

/// The 4-lane mirror of [`Avx2`]: four vectors per tile row. It keeps the
/// default (empty) `prefetch`: stable Rust has no aarch64 prefetch
/// intrinsic, and the shallow panel order is already the address order the
/// hardware prefetchers follow. It also keeps the default (portable)
/// `pack_transposed` and `tile_batched`.
#[cfg(target_arch = "aarch64")]
impl Leg for Neon {
    #[target_feature(enable = "neon")]
    unsafe fn tile(
        rows: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
    ) {
        use core::arch::aarch64::*;

        #[inline]
        #[target_feature(enable = "neon")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn rows_n<const R: usize>(
            a: *const f32,
            lda: usize,
            b: *const f32,
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
                let bv = [
                    vld1q_f32(b.add(kk * ldb)),
                    vld1q_f32(b.add(kk * ldb + 4)),
                    vld1q_f32(b.add(kk * ldb + 8)),
                    vld1q_f32(b.add(kk * ldb + 12)),
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
            4 => rows_n::<4>(a, lda, b, ldb, kc, c, ldc, first),
            3 => rows_n::<3>(a, lda, b, ldb, kc, c, ldc, first),
            2 => rows_n::<2>(a, lda, b, ldb, kc, c, ldc, first),
            _ => rows_n::<1>(a, lda, b, ldb, kc, c, ldc, first),
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn axpy_row(a: &[f32], b: *const f32, ldb: usize, c: *mut f32, width: usize) {
        use core::arch::aarch64::*;
        let wv = width - width % 4;
        core::ptr::write_bytes(c, 0, width);
        for (kk, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.add(kk * ldb);
            let avv = vdupq_n_f32(av);
            for j in (0..wv).step_by(4) {
                let o = vld1q_f32(c.add(j));
                let bv = vld1q_f32(b_row.add(j));
                vst1q_f32(c.add(j), vaddq_f32(o, vmulq_f32(avv, bv)));
            }
            for j in wv..width {
                *c.add(j) += av * *b_row.add(j);
            }
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn block(ops: &Operands, block: &OutBlock) {
        match (ops.layout, ops.resident) {
            (Layout::RowMajor, false) => matmul_block::<Self, false, false>(ops, block),
            (Layout::RowMajor, true) => matmul_block::<Self, false, true>(ops, block),
            (Layout::Transposed, _) => matmul_block::<Self, true, false>(ops, block),
        }
    }
}
