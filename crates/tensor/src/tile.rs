//! The register-tiled GEMM kernel behind the vector legs of every
//! [`crate::Matrix`] product — `lhs · rhs` over a [`crate::PackedMatrix`],
//! which a row-major `rhs` is packed into per call — and of the
//! [`crate::Strided`] view products the attention page walk is made of.
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
//!   to back, a strip pair as two streams. Every projection weight of an
//!   FP16-mode model and every model's tied embedding (as the LM head's
//!   `d × vocab` `rhs`) are held so, packed once when the model is built,
//!   and a served step packs nothing. A few-row product has too little arithmetic to
//!   hide a miss behind, so the first row tile of every panel prefetches
//!   [`PREFETCH_LINES`] cache lines ahead of the panel row it reads in
//!   each of its strips — one line per `k` and strip, across panel and
//!   strip boundaries; the row tiles after it read the panel from the
//!   L1. Without the hint a 4-row walk over the serving model's
//!   sixteen projections (one thread, AVX2, weights in the L3) ran at
//!   0.69–0.77 of its speed, a 64-row one at 0.88–0.93; 32 to 128 lines
//!   ahead read alike, 256 a little slower. A row-major `rhs` of a
//!   `Matrix · Matrix` product is packed so per call
//!   ([`crate::PackedMatrix::pack`]), which no served step runs.
//! * **Row-major windows in place**, [`Layout::Strided`]: a
//!   [`crate::Strided`] `rhs`, windows of a cache-resident buffer read
//!   where they lie at their own row stride (see *resident* below).
//! * **Dequantized in the register**, [`Layout::Int4`]: a
//!   [`crate::PackedMatrix`] in its INT4 form ([`Int4`]) holds the strips
//!   of a W4 weight as 4-bit codes, biased by 8, two to a byte, and one
//!   `f32` scale per (k group, column) — an eighth of the `f32` strips'
//!   bytes, which is what a W4 model's projections are. The first row tile
//!   of each (column block, k panel) reads the codes in place, one scale
//!   group's rows at a time ([`Codes`], a [`Panel`] the tiles read as they
//!   read `rhs` elements, [`Strips`]): it widens each to `cvt(code) − 8.0`, the
//!   integer exactly (AVX-512 looks it up with one `vpermps` in the table
//!   of the sixteen), and multiplies by its group's scale — the
//!   dequantisation's one rounding, `f32::from(v) · s` — so every weight,
//!   product and sum keeps the bits of the product over the dequantised
//!   matrix. Only when another row tile follows does it also store the
//!   panel it made into the walk's stack panel, which the later tiles read
//!   from the L1, so a decode product (up to [`Leg::ROWS`] rows) writes no
//!   panel and a 64-row chunk dequantizes each weight once. Its code
//!   stream is prefetched as a packed one is, [`INT4_AHEAD`] bytes ahead,
//!   one line per eight panel rows. (A prototype that dequantized in a
//!   separate pass before the `f32` tile ran four rows slower than the
//!   `f32` weight it replaced: the widen has to ride in the register.)
//! * **Widened from bit planes in the register**, [`Layout::Planes`]: an
//!   Anda KV page's keys or values as the page holds them ([`Planes`]:
//!   per group of 64 lanes a sign word, a shared exponent and `M <= 8`
//!   plane words), a resident `rhs` on the AVX-512 leg. A V page is read
//!   row-major ([`Values`]): a tile's load of a panel row — one position's
//!   group, both strips of it — runs `anda_fp::planes`' GF(2) transpose of
//!   its plane words, writes the lanes' magnitudes into the mantissas of
//!   `2^23`, takes one `fmsub` by the group's ULP and flips the sign bits,
//!   which is the `f32` the row codec's decode writes, bit for bit, and
//!   multiplies at once; the load streams the next page's same group. A K
//!   page is read position-minor ([`Keys`]): first, per window and block
//!   of sixteen positions, the prologue the position-minor decode runs —
//!   the positions' magnitudes transposed so that each column's sixteen
//!   lie side by side, a sign mask per column, the positions' ULPs — goes
//!   into the walk's stack panel ([`key_blocks`], which streams the next
//!   page), and each row load widens one column of it. Rows that share a
//!   window run one tile per window (up to [`Leg::ROWS`] rows), so a
//!   window of a few viewers is widened once; each further tile widens it
//!   again, which is why the page walk sends a page that more viewers
//!   share to its decoded tile instead (`anda_llm::kv`'s `Page::tile`
//!   chooses). So no decoded copy of the page is written. The other legs,
//!   and `M > 8`, have no such load: the walk decodes those pages into a
//!   tile and multiplies by the tile.
//!
//! Where each `rhs` is read, by leg:
//!
//! | `rhs` | AVX-512 | AVX2, NEON | scalar |
//! |---|---|---|---|
//! | packed `f32` or INT4 | tile | tile | loops |
//! | row-major windows, `f32` or binary16 | tile | tile | loops |
//! | Anda page, `M <= 8` | tile, planes in place | tile, decoded page | loops, decoded page |
//! | Anda page, `M > 8` | tile, decoded page | tile, decoded page | loops, decoded page |
//!
//! A **resident** product ([`Layout::Strided`] or [`Layout::Planes`], what
//! a [`crate::Strided`] view runs) multiplies by a window of a tile that is
//! already in the L1 — one head's keys or values of a KV page, sixteen
//! positions by 64 — thousands of times a step. A row-major window is
//! read in place like a packed `rhs` (the tile takes its row stride, and
//! a window's second strip is its next sixteen columns; a pack would copy
//! each operand once per use). What it prefetches is the *next*
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
//! so, an Anda page decodes them so or the bit-plane panel widens them so
//! — and so packs nothing. A resident
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
//! primitive on NEON — where the scalar loops widen each element with
//! [`anda_fp::F16::to_f32`]. So an FP16 page is read where it lies, with
//! no widened copy of it, and each product is `f32::to_bits`-identical to
//! the one over that copy — for every `rhs` without a NaN pattern, since
//! F16C quietens a signalling NaN the scalar widen keeps (an FP16 page
//! holds none: `anda_fp::batch::narrow` writes none). Only resident
//! products take binary16 today; a streamed one's `rhs` is `f32`.
//!
//! Whatever the path, element `(i, j)` is `Σ_k a[i][k] · b[k][j]`
//! accumulated in ascending `k` from `+0.0` (or the output's value),
//! multiply then add, never fused — the operation sequence of the naive
//! ascending-`k` loop the suites hold and of the scalar legs (the packed
//! axpy walk in `matrix.rs`, which dequantizes an INT4 row first, and
//! [`resident_block_scalar`]), so every leg, layout, tile boundary, panel
//! and sharding is `f32::to_bits`-identical to that loop (a panel boundary
//! only parks the accumulators in the output, an exact `f32` round trip).
//! Nothing skips a zero, the scalar legs included, so that holds on every
//! input, non-finite ones too (where two different NaNs meet in one sum,
//! which payload survives is the compiler's pick of operand order).

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
/// How far ahead of the code line it reads an INT4 tile prefetches, in
/// bytes: the packed walk's distance, eight panel rows to a cache line.
const INT4_AHEAD: usize = PREFETCH_LINES * 64;
/// Where an INT4 tile leaves strip `s` of the panel it dequantized: at
/// `s · FILL_SB`. A two-strip leg's panel is `KC / 2` rows deep, so its
/// strips fit; a one-strip leg's strip 0 may run the whole panel.
const FILL_SB: usize = KC / MAX_STRIPS * STRIP_COLS;
/// Bytes of INT4 codes in one panel row of a strip.
const CODE_ROW: usize = STRIP_COLS / 2;

/// The element a [`crate::Strided`] `rhs` is held in: `f32`, or binary16
/// bit patterns (`u16`) that every leg widens exactly as
/// [`anda_fp::F16::to_f32`] does, a signalling NaN pattern excepted (see
/// the module docs). Sealed: these two are all.
pub trait Element: Copy + Default + element::Load {}

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
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Row-major windows of a cache-resident buffer, `k` rows of `n` at
    /// stride `ldb` (a [`crate::Strided`] `rhs`): resident, batched, each
    /// window read in place.
    #[default]
    Strided,
    /// ⌈n/16⌉ contiguous `k × 16` strips, the last one zero-padded:
    /// streamed from memory, every panel read in place.
    Packed,
    /// The strips of [`Layout::Packed`] held as INT4 codes and group
    /// scales ([`Int4`]), dequantized in the register as they are read.
    Int4,
    /// An Anda KV page's bit-plane rows ([`Planes`]), widened in the
    /// register as they are read: resident and batched, AVX-512 only.
    Planes,
}

/// An INT4 `rhs` ([`Layout::Int4`]): the strips of a packed one, each
/// element a 4-bit code and a scale shared by `group` consecutive rows of
/// its column. Element `(r, 16 s + j)` is `(code − 8) · scale`, exactly the
/// `f32::from(v) · s` of a dequantised signed 4-bit `v = code − 8`.
#[derive(Clone, Copy, Default)]
pub(crate) struct Int4<'a> {
    /// Two codes to a byte, each biased by 8, a strip row one
    /// little-endian 64-bit word: strip `s`'s row `r` at byte `(s · k + r)
    /// · 8`, column `16 s + j`'s code its nibble [`code_nibble`]`(j)`.
    pub codes: &'a [u8],
    /// Sixteen scales per strip and group: strip `s`'s group `g` at
    /// `(s · ⌈k / group⌉ + g) · 16`.
    pub scales: &'a [f32],
    /// Rows of a column that share one scale.
    pub group: usize,
    /// Rows, `k`.
    pub k: usize,
}

/// The nibble of a strip row's 64-bit code word that holds column `j`'s
/// code: the even columns fill the low 32 bits, the odd ones the high, in
/// column order. A vector holding the word in every 64-bit lane then finds
/// lane `j`'s code in its own 32-bit lane, `4 · (j / 2)` bits up.
pub(crate) const fn code_nibble(j: usize) -> usize {
    j % 2 * 8 + j / 2
}

impl Int4<'_> {
    /// The rows of `rows` of the strips from column `j0` on that share the
    /// first one's scale group: how many, and the panel a tile reads them
    /// through, leaving them dequantized at `fill`.
    ///
    /// # Safety
    ///
    /// `j0` must start a strip and `rows` lie within `k`.
    #[inline(always)]
    unsafe fn run(&self, j0: usize, rows: Range<usize>, fill: *mut f32) -> (usize, Codes<true>) {
        let (k, at, g) = (self.k, rows.start, rows.start / self.group);
        let groups = k.div_ceil(self.group);
        let codes = self.codes.as_ptr().add((j0 * k + at * STRIP_COLS) / 2);
        let scales = self.scales.as_ptr().add(j0 * groups + g * STRIP_COLS);
        let b = Codes::new(codes, k * CODE_ROW, scales, groups * STRIP_COLS, fill);
        (rows.end.min((g + 1) * self.group) - at, b)
    }

    /// Row `r` of strip `s`, dequantized: `(code − 8) · scale`, the values
    /// every leg's tile widens it to.
    pub(crate) fn line(&self, s: usize, r: usize) -> [f32; STRIP_COLS] {
        let k = self.k;
        let at = (s * k + r) * CODE_ROW;
        let word = u64::from_le_bytes(self.codes[at..][..CODE_ROW].try_into().expect("a row"));
        let at = s * k.div_ceil(self.group) + r / self.group;
        let scales = &self.scales[at * STRIP_COLS..][..STRIP_COLS];
        core::array::from_fn(|j| {
            let code = (word >> (4 * code_nibble(j)) & 0x0f) as u8;
            (f32::from(code) - 8.0) * scales[j]
        })
    }
}

/// The words of Anda bit-plane rows held back to back, each row `groups`
/// groups of 64 lanes: group `gi` has sign word `signs[gi]`,
/// exponent `exps[gi]` and plane words `planes[gi · M ..][.. M]`, MSB first
/// (`anda_fp::planes`). A KV page holds its keys and its values so.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitPlanes<'a> {
    pub signs: &'a [u64],
    pub exps: &'a [u16],
    pub planes: &'a [u64],
}

/// Lanes of an Anda group.
const GROUP: usize = anda_fp::planes::LANES;
/// Bytes of one position-minor block of a K page ([`key_blocks`]).
const BLOCK_BYTES: usize = anda_fp::planes::BLOCK_BYTES;

/// A bit-plane `rhs` ([`Layout::Planes`]): windows of the rows of
/// [`BitPlanes`], `M <= 8`, window `w` the columns `col0 + w · extent ..`,
/// `extent` a window's width in page columns (`n`, or `k` when `keys`).
/// Read row-major, `rhs` row `kk` is page row (position) `kk` and its
/// column `j` page column `col0 + j` — a V page. With `keys`, position-minor:
/// `rhs` row `kk` is page column `col0 + kk` and its column `j` position
/// `j` — a K page, the order the walk's `q·k` reads. Element `(kk, j)` is
/// the group rule's `±mag · ulp` ([`anda_fp::planes::lane`]), bit for bit.
#[derive(Clone, Copy, Default)]
pub(crate) struct Planes<'a> {
    pub words: BitPlanes<'a>,
    /// The page read next, laid out alike: its same groups stream in as
    /// these are read.
    pub next: Option<BitPlanes<'a>>,
    /// Mantissa planes per group, 1..=8.
    pub m: usize,
    /// Groups per row: position `p`'s group `c / 64` is `p · groups + c / 64`.
    pub groups: usize,
    pub col0: usize,
    pub keys: bool,
}

impl Planes<'_> {
    /// Group index of column `c` of position `p`.
    #[inline(always)]
    fn group(&self, p: usize, c: usize) -> usize {
        p * self.groups + c / GROUP
    }

    /// Hints that group `gi` of the next page, its plane words and its sign
    /// and exponent words, is about to be read.
    #[inline(always)]
    fn stream<L: Leg>(&self, gi: usize) {
        if let Some(next) = &self.next {
            L::prefetch(next.planes.as_ptr().wrapping_add(gi * self.m));
            L::prefetch(next.signs.as_ptr().wrapping_add(gi));
            L::prefetch(next.exps.as_ptr().wrapping_add(gi));
        }
    }
}

/// Where a [`Leg::tile`] reads `B`, the `rhs` rows of one k panel, row
/// `kk` of strip `s` sixteen `f32` columns: `rhs` elements where they lie
/// — packed strips, row-major windows — or where the walk left them in its
/// panel (a ragged window's copy, an INT4 panel's fill) ([`Strips`]); INT4
/// codes dequantized in the register ([`Codes`]); or an Anda page's bit
/// planes widened in the register, a V page's rows ([`Values`]) or a K
/// page's position-minor blocks ([`Keys`]). The loads inline into the
/// tiles, so they compile with the leg's features.
pub(crate) trait Panel: Copy {
    /// The panel `off` of its units on: a batched tile's row `r` reads its
    /// `rhs` `r · bs` on — elements of [`Strips`], windows of a bit-plane
    /// page ([`Values`], [`Keys`]). An INT4 panel is never batched, and is
    /// asked for its row 0 alone.
    #[inline(always)]
    fn offset(self, off: usize) -> Self {
        debug_assert_eq!(off, 0, "only strips are batched");
        self
    }
    /// Hints that row `kk` of strip `s`, `ahead` of the source's units on,
    /// is about to be read.
    fn prefetch<L: Leg>(self, kk: usize, s: usize, ahead: usize);
    /// Column `j` of row `kk` of strip `s`, widened: the load of the
    /// portable [`Leg::tile_batched`], which only ever reads [`Strips`].
    ///
    /// # Safety
    ///
    /// The row readable.
    unsafe fn element(self, _kk: usize, _s: usize, _j: usize) -> f32 {
        unreachable!("only strips are read element by element")
    }
    /// Columns `8 h .. 8 h + 8` of row `kk` of strip `s`. A bit-plane panel
    /// has no such load, nor a four-lane one: only the AVX-512 tile reads it.
    ///
    /// # Safety
    ///
    /// The leg's CPU features (AVX2 and F16C, or AVX-512F at sixteen lanes,
    /// or NEON), and the row readable (and a [`Codes`] fill writable).
    #[cfg(target_arch = "x86_64")]
    unsafe fn load8(self, _kk: usize, _s: usize, _h: usize) -> core::arch::x86_64::__m256 {
        unreachable!("only the AVX-512 tile reads bit planes")
    }
    /// Row `kk` of strip `s`. As [`Panel::load8`].
    #[cfg(target_arch = "x86_64")]
    unsafe fn load16(self, kk: usize, s: usize) -> core::arch::x86_64::__m512;
    /// Row `kk` of strips `0..S`, [`Panel::load16`] each.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load_row<const S: usize>(self, kk: usize) -> [core::arch::x86_64::__m512; S] {
        core::array::from_fn(|s| self.load16(kk, s))
    }
    /// Columns `4 v .. 4 v + 4` of row `kk` of strip `s`. As
    /// [`Panel::load8`].
    #[cfg(target_arch = "aarch64")]
    unsafe fn load4(self, _kk: usize, _s: usize, _v: usize) -> core::arch::aarch64::float32x4_t {
        unreachable!("only the AVX-512 tile reads bit planes")
    }
}

/// `rhs` elements of `E`, widened as they load: row `kk` of strip `s` at
/// `b + kk · ldb + s · sb`.
#[derive(Clone, Copy)]
pub(crate) struct Strips<E> {
    b: *const E,
    ldb: usize,
    sb: usize,
}

impl<E: Element> Strips<E> {
    #[inline(always)]
    fn new(b: *const E, ldb: usize, sb: usize) -> Self {
        Strips { b, ldb, sb }
    }

    #[inline(always)]
    fn at(self, kk: usize, s: usize) -> *const E {
        self.b.wrapping_add(kk * self.ldb + s * self.sb)
    }
}

impl<E: Element> Panel for Strips<E> {
    #[inline(always)]
    fn offset(self, off: usize) -> Self {
        Strips::new(self.b.wrapping_add(off), self.ldb, self.sb)
    }
    #[inline(always)]
    fn prefetch<L: Leg>(self, kk: usize, s: usize, ahead: usize) {
        L::prefetch(self.at(kk, s).wrapping_add(ahead))
    }
    #[inline(always)]
    unsafe fn element(self, kk: usize, s: usize, j: usize) -> f32 {
        (*self.at(kk, s).add(j)).to_f32()
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(self, kk: usize, s: usize, h: usize) -> core::arch::x86_64::__m256 {
        E::load8(self.at(kk, s).add(8 * h))
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load16(self, kk: usize, s: usize) -> core::arch::x86_64::__m512 {
        E::load16(self.at(kk, s))
    }
    #[cfg(target_arch = "aarch64")]
    #[inline(always)]
    unsafe fn load4(self, kk: usize, s: usize, v: usize) -> core::arch::aarch64::float32x4_t {
        E::load4(self.at(kk, s).add(4 * v))
    }
}

/// Rows of one scale group of an INT4 `rhs`, from a block's first strip:
/// row `kk` of strip `s` is the code word at `codes + s · cb + kk · 8`,
/// each code widened in the register to `cvt(code) − 8.0` — the integer
/// exactly — and multiplied by its column's scale at `scales + s · sb`:
/// the one rounding of `f32::from(v) · s`, so each element is the `f32` a
/// dequantised copy holds, bit for bit. With `FILL`, each row loaded is
/// also stored at `fill + s · FILL_SB + kk · 16`, the panel the row
/// tiles after this one read as [`Strips`]. `FILL` is a type parameter
/// because a store behind a run-time test in the loads halved a one-row
/// product (`kernels m_sweep`, `wqkv`, `avx512`: 15 against 27–29
/// GFLOP/s). A prefetch streams the code line `ahead` bytes on once per
/// eight rows, a cache line's worth.
#[derive(Clone, Copy)]
pub(crate) struct Codes<const FILL: bool> {
    codes: *const u8,
    cb: usize,
    scales: *const f32,
    sb: usize,
    fill: *mut f32,
}

impl<const FILL: bool> Codes<FILL> {
    #[inline(always)]
    fn new(codes: *const u8, cb: usize, scales: *const f32, sb: usize, fill: *mut f32) -> Self {
        Codes {
            codes,
            cb,
            scales,
            sb,
            fill,
        }
    }

    /// Row `kk` of strip `s`: its code word, and its scales from column
    /// `j` on.
    #[inline(always)]
    unsafe fn row(self, kk: usize, s: usize, j: usize) -> (i64, *const f32) {
        let word = self.codes.add(s * self.cb + kk * CODE_ROW).cast::<i64>();
        (word.read_unaligned(), self.scales.add(s * self.sb + j))
    }

    /// `w`, columns `j..` of row `kk` of strip `s` dequantized, left in the
    /// fill panel too when `FILL`.
    #[inline(always)]
    unsafe fn keep<V: Copy>(self, kk: usize, s: usize, j: usize, w: V) -> V {
        if FILL {
            let at = self.fill.add(s * FILL_SB + kk * STRIP_COLS + j);
            at.cast::<V>().write_unaligned(w);
        }
        w
    }

    /// This panel storing nothing.
    #[inline(always)]
    fn unfilled(self) -> Codes<false> {
        Codes::new(self.codes, self.cb, self.scales, self.sb, self.fill)
    }
}

impl<const FILL: bool> Panel for Codes<FILL> {
    #[inline(always)]
    fn prefetch<L: Leg>(self, kk: usize, s: usize, ahead: usize) {
        if kk.is_multiple_of(8) {
            L::prefetch(self.codes.wrapping_add(s * self.cb + kk * CODE_ROW + ahead));
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(self, kk: usize, s: usize, h: usize) -> core::arch::x86_64::__m256 {
        use core::arch::x86_64::*;
        // Lane `j`'s code sits `4 · (j / 2)` bits up in its own half of
        // the word ([`code_nibble`]); the strip's second eight lanes 16
        // bits further.
        let (word, scales) = self.row(kk, s, 8 * h);
        let shift = _mm256_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12);
        let shift = _mm256_add_epi32(shift, _mm256_set1_epi32(16 * h as i32));
        let codes = _mm256_srlv_epi32(_mm256_set1_epi64x(word), shift);
        let codes = _mm256_and_si256(codes, _mm256_set1_epi32(0x0f));
        let v = _mm256_sub_ps(_mm256_cvtepi32_ps(codes), _mm256_set1_ps(8.0));
        self.keep(kk, s, 8 * h, _mm256_mul_ps(v, _mm256_loadu_ps(scales)))
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load16(self, kk: usize, s: usize) -> core::arch::x86_64::__m512 {
        use core::arch::x86_64::*;
        // `vpermps` reads the low four bits of each lane's index: shifted
        // to its code, the lane looks up `cvt(code) − 8`.
        let (word, scales) = self.row(kk, s, 0);
        let shift = _mm512_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12, 16, 16, 20, 20, 24, 24, 28, 28);
        let values = _mm512_setr_ps(
            -8.0, -7.0, -6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
        );
        let v = _mm512_permutexvar_ps(_mm512_srlv_epi32(_mm512_set1_epi64(word), shift), values);
        self.keep(kk, s, 0, _mm512_mul_ps(v, _mm512_loadu_ps(scales)))
    }
    #[cfg(target_arch = "aarch64")]
    #[inline(always)]
    unsafe fn load4(self, kk: usize, s: usize, v: usize) -> core::arch::aarch64::float32x4_t {
        use core::arch::aarch64::*;
        // The low nibbles' byte `b` holds column `4b` (`b < 4`) or
        // `4(b − 4) + 1`, the high ones' `4b + 2` or `4(b − 4) + 3`: one
        // table lookup puts them in column order.
        const ORDER: [u8; 16] = [0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15];
        let (word, scales) = self.row(kk, s, 4 * v);
        let word = vcreate_u8(word as u64);
        let nibbles = vcombine_u8(vand_u8(word, vdup_n_u8(0x0f)), vshr_n_u8::<4>(word));
        let codes = vqtbl1q_u8(nibbles, vld1q_u8(ORDER.as_ptr()));
        let half = vmovl_u8([vget_low_u8(codes), vget_high_u8(codes)][v / 2]);
        let quarter = [vget_low_u16(half), vget_high_u16(half)][v % 2];
        let values = vsubq_f32(vcvtq_f32_u32(vmovl_u16(quarter)), vdupq_n_f32(8.0));
        self.keep(kk, s, 4 * v, vmulq_f32(values, vld1q_f32(scales)))
    }
}

/// Rows `p0 ..` of a V page's window read in place ([`Planes`], row-major;
/// AVX-512 only): row `kk` of strip `s` is position `p0 + kk`'s sixteen
/// lanes from page column `col + 16 s`, both strips in one group. A row
/// load widens them from the group's plane words — the GF(2) transpose,
/// the lanes' `2^23 + mag` mantissas, one `fmsub` by the ULP, the sign XOR
/// (`anda_fp::planes::avx512`) — to the `f32` the row decode writes, bit
/// for bit. A batched row reads the window `w` windows on
/// ([`Panel::offset`]), `extent` columns a window. Its prefetch streams
/// the next page's same group, once per row.
#[derive(Clone, Copy)]
pub(crate) struct Values<'a> {
    rhs: &'a Planes<'a>,
    p0: usize,
    col: usize,
    extent: usize,
    /// Position `p0`'s group of column `col`: its index, so position
    /// `p0 + kk`'s is `kk · groups` on.
    gi: usize,
}

impl<'a> Values<'a> {
    #[inline(always)]
    fn new(rhs: &'a Planes<'a>, p0: usize, col: usize, extent: usize) -> Self {
        let gi = rhs.group(p0, col);
        Values {
            rhs,
            p0,
            col,
            extent,
            gi,
        }
    }
}

impl Panel for Values<'_> {
    #[inline(always)]
    fn offset(self, w: usize) -> Self {
        Values::new(self.rhs, self.p0, self.col + w * self.extent, self.extent)
    }
    #[inline(always)]
    fn prefetch<L: Leg>(self, kk: usize, s: usize, _ahead: usize) {
        if s == 0 {
            self.rhs.stream::<L>(self.gi + kk * self.rhs.groups);
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load16(self, kk: usize, s: usize) -> core::arch::x86_64::__m512 {
        self.load_row::<2>(kk)[s]
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load_row<const S: usize>(self, kk: usize) -> [core::arch::x86_64::__m512; S] {
        use anda_fp::planes::{avx512::*, group_ulp};
        use core::arch::x86_64::*;
        let (m, words, q) = (self.rhs.m, &self.rhs.words, self.col % GROUP / STRIP_COLS);
        debug_assert!(
            q + S <= GROUP / STRIP_COLS,
            "a row's strips lie in one group"
        );
        let gi = self.gi + kk * self.rhs.groups;
        let mags = magnitudes(words.planes.as_ptr().add(gi * m), m, gather(m));
        let ulp = _mm512_set1_ps(group_ulp(*words.exps.get_unchecked(gi), m));
        let sign = *words.signs.get_unchecked(gi) >> (self.col % GROUP);
        core::array::from_fn(|s| {
            widen(quarter(mags, q + s), ulp, (sign >> (STRIP_COLS * s)) as u16)
        })
    }
}

/// Rows of a K page's window read in place ([`Planes`], position-minor;
/// AVX-512 only), from the position-minor blocks [`key_blocks`] wrote for
/// its group: row `kk` of strip `s` is page column `col + kk`'s sixteen
/// positions of the block at `block + s · BLOCK_BYTES`, widened as
/// [`Values`] widens (`anda_fp::planes::avx512::block_column`). A batched
/// row reads the window `w` windows on, whose blocks follow, `strips` of
/// them a window.
#[derive(Clone, Copy)]
pub(crate) struct Keys {
    block: *const u8,
    col: usize,
    extent: usize,
    strips: usize,
}

impl Panel for Keys {
    #[inline(always)]
    fn offset(self, w: usize) -> Self {
        Keys {
            block: self.block.wrapping_add(w * self.strips * BLOCK_BYTES),
            col: (self.col + w * self.extent) % GROUP,
            ..self
        }
    }
    #[inline(always)]
    fn prefetch<L: Leg>(self, _kk: usize, _s: usize, _ahead: usize) {}
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load16(self, kk: usize, s: usize) -> core::arch::x86_64::__m512 {
        use anda_fp::planes::avx512::block_column;
        block_column(self.block.add(s * BLOCK_BYTES), self.col + kk)
    }
}

/// Writes the position-minor blocks of `count` windows of a K page from
/// window `w0` on ([`Planes`], `keys`) to `dst`, window after window, each
/// `strips` blocks: the k panel's rows `k0 .. k0 + 64` at most, which lie
/// in one group, at positions `j0 + 16 s ..` for strip `s`
/// (`anda_fp::planes::avx512::write_block`), streaming the next page's
/// same groups; and returns the [`Keys`] that read them.
///
/// # Safety
///
/// AVX-512 F/BW/VBMI and GFNI; `dst` writable for `count · strips` blocks,
/// and the windows' rows and positions inside the page.
#[inline]
#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")
)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[allow(clippy::too_many_arguments)]
unsafe fn key_blocks<L: Leg>(
    rhs: &Planes,
    w0: usize,
    count: usize,
    extent: usize,
    k0: usize,
    j0: usize,
    strips: usize,
    dst: *mut u8,
) -> Keys {
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("only the AVX-512 tile reads bit planes");
    #[cfg(target_arch = "x86_64")]
    for w in 0..count {
        let (m, words, c) = (rhs.m, &rhs.words, rhs.col0 + (w0 + w) * extent + k0);
        for s in 0..strips {
            let p0 = j0 + STRIP_COLS * s;
            for p in p0..p0 + STRIP_COLS {
                rhs.stream::<L>(rhs.group(p, c));
            }
            let block = dst.add((w * strips + s) * BLOCK_BYTES);
            anda_fp::planes::avx512::write_block(block, STRIP_COLS, m, |p| {
                let gi = rhs.group(p0 + p, c);
                let sign = *words.signs.get_unchecked(gi);
                let exp = *words.exps.get_unchecked(gi);
                (sign, exp, words.planes.as_ptr().add(gi * m))
            });
        }
    }
    #[cfg(target_arch = "x86_64")]
    Keys {
        block: dst,
        col: (rhs.col0 + w0 * extent + k0) % GROUP,
        extent,
        strips,
    }
}

/// The inputs of one product and how all three operands lie in memory:
/// row `i` of `lhs` starts at `i · lda`, row `r` of `rhs` at `r · ldb`,
/// output row `i` at `i · ldc`. A
/// [`crate::Matrix`] product passes its widths; a [`crate::Strided`] view
/// passes the strides of the buffer it is a window of. A packed `rhs` has
/// no row stride of its own: strip `s` starts at `s · 16 · k` and its rows
/// lie sixteen apart. `rhs` is held in `E` (every streamed product's is `f32`).
#[derive(Default)]
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
    /// [`Layout::Strided`] and [`Layout::Planes`] only — the resident
    /// layouts, whose `rhs` is windows of a cache-resident buffer (a packed
    /// or INT4 `rhs` streams from memory and ignores these): `lhs` row `i`
    /// multiplies window `i % windows` of `rhs`, the windows `rhs_stride`
    /// elements apart — rows `h`, `h + windows`, … share one.
    pub windows: usize,
    pub rhs_stride: usize,
    /// [`Layout::Strided`] only: non-zero, the element offset (wrapping)
    /// from `rhs` to the `rhs` read next, laid out alike, whose same
    /// windows the tiles stream in as they read these. Nothing of `rhs`
    /// itself is prefetched.
    pub ahead: usize,
    /// [`Layout::Int4`] only, where `rhs` is empty: the codes and scales.
    pub int4: Int4<'a>,
    /// [`Layout::Planes`] only, where `rhs` is empty: the page's words.
    pub planes: Planes<'a>,
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
    /// being column `j` of `b`'s row `kk` of strip `s` ([`Panel`]);
    /// accumulators start at `+0.0` when `first`, else at `c`'s current
    /// contents. With `ahead` non-zero, each `k` step also has `b` prefetch
    /// row `kk` of every strip `ahead` on.
    ///
    /// # Safety
    ///
    /// Needs the leg's CPU feature; `a` must be readable at
    /// `r · lda + kk`, `b`'s rows `kk` of strips `s` as [`Panel`] says, and
    /// `c` readable and writable at `r · ldc + 0..w`. The prefetched
    /// addresses need not be readable.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile<P: Panel>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: P,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    );

    /// [`Leg::tile`] with row `r` reading its own `b`, `r · bs` further on
    /// ([`Panel::offset`]): `c[r][0..w] (+)= Σ_kk a[r][kk] · B_r[kk][0..w]`,
    /// `B_r` at `b + r · bs`, for `r < rows` (`1..=TILE_ROWS` on every leg). The
    /// rows of a tile are then independent products, each with its own two
    /// (AVX2), four (NEON) or two (AVX-512, one per strip) accumulator
    /// chains. With `ahead` non-zero, each `k` step also prefetches every
    /// row's `B_r` row `kk`, `ahead` on. The default is the portable loop
    /// over [`Strips`] ([`Panel::element`]), in the same operation order,
    /// and prefetches nothing.
    ///
    /// # Safety
    ///
    /// As [`Leg::tile`], with each `B_r` readable as [`Panel`] says.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile_batched<P: Panel>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: P,
        bs: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        _ahead: usize,
    ) {
        for r in 0..rows {
            let (a, b, c) = (a.add(r * lda), b.offset(r * bs), c.add(r * ldc));
            for j in 0..strips * STRIP_COLS {
                let mut acc = if first { 0.0 } else { *c.add(j) };
                for kk in 0..kc {
                    acc += *a.add(kk) * b.element(kk, j / STRIP_COLS, j % STRIP_COLS);
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

    /// [`matmul_block`], monomorphised for `ops.layout` and for `rhs`'s
    /// element, and compiled with the leg's CPU feature enabled, so that
    /// the panel source and the tile inline into the walk and the batched
    /// branches are compiled out of every streamed (packed or INT4)
    /// product.
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
/// through `LAYOUT`, `ops.layout as u8`: resident and batched when that
/// is [`Layout::Strided`] or [`Layout::Planes`]); see the module docs.
/// Called through [`Leg::block`], which picks the instance.
///
/// # Safety
///
/// `block.ptr` must be valid for reads and writes of `block.cols` of
/// `block.rows` rows `ops.ldc` apart, and nothing else may access those
/// elements during the call. `ops.lhs` must hold `ops.k` elements of rows
/// `block.row0 .. block.row0 + block.rows` at stride `ops.lda`. Row-major,
/// `ops.rhs` must hold `k × block.cols.end` elements at stride `ops.ldb` in
/// each of `ops.windows` windows, `ops.rhs_stride` apart, and the block
/// start at row 0 (as a bit-plane one, whose windows `ops.planes` holds);
/// packed or INT4, `ops.rhs` or `ops.int4` the strips covering
/// `block.cols`, which starts on a strip boundary.
#[inline(always)]
unsafe fn matmul_block<L: Leg, const LAYOUT: u8, E: Element>(ops: &Operands<E>, block: &OutBlock) {
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
    let int4 = LAYOUT == Layout::Int4 as u8;
    let planes = LAYOUT == Layout::Planes as u8;
    // Row-major and bit-plane windows are cache-resident and batched; a
    // packed or INT4 `rhs` streams from memory.
    let resident = !packed && !int4;
    debug_assert!(
        !resident || block.row0 == 0 && windows > 0,
        "a resident product is one block of its windows"
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

    // Every element a tile reads from the panel was copied (a ragged
    // window) or dequantized (an INT4 panel) into it earlier in the same
    // call. It holds `rhs`'s element: the tile widens it. It is one strip
    // `KC` deep on every leg: twice that, the larger stack frame alone
    // slowed a 4 × 64 × 16 batched product on a 2-vCPU AVX-512 Xeon from
    // 137–151 to 167–203 ns. A K page's position-minor blocks go here too.
    let mut panel = core::mem::MaybeUninit::<[E; KC * STRIP_COLS]>::uninit();
    let panel: *mut E = panel.as_mut_ptr().cast();
    let panel_b = panel.cast_const();
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
    // rows are whole tiles of `L::ROWS` such rows per window — or, over
    // bit planes, every row whose window another row reads too, so that
    // each tile widens its window once for all its rows.
    let shared = match resident && rows >= L::ROWS * windows {
        _ if planes && rows >= 2 * windows => rows / windows * windows,
        true => rows / windows / L::ROWS * L::ROWS * windows,
        false => 0,
    };
    for j0 in cols.clone().step_by(L::STRIPS * STRIP_COLS) {
        let width = (L::STRIPS * STRIP_COLS).min(cols.end - j0);
        let strips = width.div_ceil(STRIP_COLS);
        let full = width == strips * STRIP_COLS;
        // What is read in place goes `KC` deep. The panel holds an INT4
        // block's dequantized strips, or a batched product's ragged block
        // per row — a tile's rows each own one —, so their k panels are
        // shallower.
        let kc_max = match () {
            // A K page's panel lies in one group.
            _ if planes && ops.planes.keys => GROUP,
            _ if packed || resident && full => KC,
            _ if int4 => KC / L::STRIPS,
            _ => KC / TILE_ROWS / L::STRIPS,
        };
        for k0 in (0..k).step_by(kc_max) {
            let kc = kc_max.min(k - k0);
            let first = k0 == 0 && !accumulate;
            if resident {
                // A ragged window copied into the panel: its strips lie
                // `kc` rows apart.
                let panel_sb = kc * STRIP_COLS;
                // Where window `h` of this block and panel starts.
                let window = |h: usize| b.add(h * rhs_stride + k0 * ldb + j0);
                // A bit-plane window's tiles: see `plane_tile`.
                let plane_tile = |h, bs, rows, a, lda, c, ldc| {
                    let (panel, extent) = (panel.cast::<u8>(), rhs_stride);
                    let at = (h, extent, k0, kc, j0, strips, first);
                    plane_tile::<L>(&ops.planes, at, bs, rows, a, lda, c, ldc, panel)
                };
                // Shared tiles: every `rhs` vector loaded feeds `L::ROWS`
                // rows, read in place or from the window packed once — or,
                // a bit-plane window, widened by each tile.
                for h in 0..if shared > 0 { windows } else { 0 } {
                    let (tile_b, tile_ldb, sb) = match full {
                        true => (window(h), ldb, STRIP_COLS),
                        false => {
                            copy_strips(window(h), width, kc, panel);
                            (panel_b, STRIP_COLS, panel_sb)
                        }
                    };
                    // The rows on window `h` lie a cycle of windows apart.
                    let (lda_w, ldc_w) = (windows * lda, windows * ldc);
                    for i in (h..shared).step_by(L::ROWS * windows) {
                        let (a, c) = (a.add(i * lda + k0), out.add(i * ldc + j0));
                        // A bit-plane window's last tile may be short.
                        let r = match planes {
                            true => L::ROWS.min((shared - i).div_ceil(windows)),
                            false => L::ROWS,
                        };
                        // The window's first row tile streams the next one.
                        let ahead = if full && i == h { ahead } else { 0 };
                        on_block(r, width, first, c, ldc_w, &mut edge, |c, ldc| {
                            if planes {
                                return plane_tile(h, None, r, a, lda_w, c, ldc);
                            }
                            let b = Strips::new(tile_b, tile_ldb, sb);
                            L::tile(r, strips, a, lda_w, b, kc, c, ldc, first, ahead)
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
                    if planes {
                        // Row `i` reads the window `i` windows on, if more
                        // than one.
                        let (a, c) = (a.add(i0 * lda + k0), out.add(i0 * ldc + j0));
                        let bs = windows.min(2) - 1;
                        on_block(r, width, first, c, ldc, &mut edge, |c, ldc| {
                            plane_tile(h, Some(bs), r, a, lda, c, ldc)
                        });
                        (i0, h) = (i0 + r, if h + r < windows { h + r } else { 0 });
                        continue;
                    }
                    let (tile_b, tile_ldb, sb, tile_bs) = match full {
                        true => (window(h), ldb, STRIP_COLS, bs),
                        false => {
                            for i in 0..r {
                                let dst = panel.add(i * strips * panel_sb);
                                copy_strips(window(h).add(i * bs), width, kc, dst);
                            }
                            (panel_b, STRIP_COLS, panel_sb, strips * panel_sb)
                        }
                    };
                    let (a, c) = (a.add(i0 * lda + k0), out.add(i0 * ldc + j0));
                    let ahead = if full { ahead } else { 0 };
                    on_block(r, width, first, c, ldc, &mut edge, |c, ldc| {
                        let (b, bs, f) = (Strips::new(tile_b, tile_ldb, sb), tile_bs, first);
                        L::tile_batched(r, strips, a, lda, b, bs, kc, c, ldc, f, ahead)
                    });
                    (i0, h) = (i0 + r, if h + r < windows { h + r } else { 0 });
                }
                continue;
            }
            // Where the tiles read this panel, and how far apart its strips
            // lie. The first row tile over an INT4 one dequantizes it in the
            // register and, only when another row tile follows, leaves it in
            // `panel` for the rest.
            let (tile_b, sb) = match int4 {
                true => (panel_b, FILL_SB),
                false => (b.add(j0 * k + k0 * STRIP_COLS), k * STRIP_COLS),
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
                    // One scale group's rows at a time.
                    let mut kk = 0;
                    while int4 && i0 == 0 && kk < kc {
                        let fill = panel.cast::<f32>().add(kk * STRIP_COLS);
                        let (run, b) = ops.int4.run(j0, k0 + kk..k0 + kc, fill);
                        let (a, f, p) = (a.add(kk), first && kk == 0, INT4_AHEAD);
                        match rows > L::ROWS {
                            true => L::tile(r, strips, a, lda, b, run, c, ldc, f, p),
                            false => L::tile(r, strips, a, lda, b.unfilled(), run, c, ldc, f, p),
                        }
                        kk += run;
                    }
                    if !int4 || i0 > 0 {
                        let b = Strips::new(tile_b, STRIP_COLS, sb);
                        L::tile(r, strips, a, lda, b, kc, c, ldc, first, ahead)
                    }
                });
            }
        }
    }
}

/// One resident tile over bit-plane windows ([`Layout::Planes`]): `rows`
/// rows from `a` onto `c`, the k panel `k0 .. k0 + kc` and the strips from
/// column `j0` of window `h` on, windows `extent` page columns apart — on
/// [`Leg::tile`], or with `bs`, on [`Leg::tile_batched`], row `r` on the
/// window `r · bs` on. A K page's windows are first written as
/// position-minor blocks into `panel` ([`key_blocks`]); a V page's are
/// read where they lie ([`Values`]), streaming the next page.
///
/// # Safety
///
/// As [`matmul_block`], on the AVX-512 leg; `panel` is the walk's panel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn plane_tile<L: Leg>(
    rhs: &Planes,
    (h, extent, k0, kc, j0, strips, first): (usize, usize, usize, usize, usize, usize, bool),
    bs: Option<usize>,
    rows: usize,
    a: *const f32,
    lda: usize,
    c: *mut f32,
    ldc: usize,
    panel: *mut u8,
) {
    macro_rules! run {
        ($b:expr, $ahead:expr) => {
            match bs {
                Some(bs) => {
                    L::tile_batched(rows, strips, a, lda, $b, bs, kc, c, ldc, first, $ahead)
                }
                None => L::tile(rows, strips, a, lda, $b, kc, c, ldc, first, $ahead),
            }
        };
    }
    if rhs.keys {
        let count = if bs == Some(1) { rows } else { 1 };
        return run!(
            key_blocks::<L>(rhs, h, count, extent, k0, j0, strips, panel),
            0
        );
    }
    let (col, stream) = (rhs.col0 + h * extent + j0, usize::from(rhs.next.is_some()));
    run!(Values::new(rhs, k0, col, extent), stream)
}

/// [`Leg::block`]'s one body: the [`matmul_block`] instance for `ops`'s
/// layout. Each leg's `block` calls it with its CPU feature enabled, so
/// the instance and the tile inline into that leg's copy.
///
/// # Safety
///
/// As [`Leg::block`].
#[inline(always)]
unsafe fn block_body<L: Leg, E: Element>(ops: &Operands<E>, block: &OutBlock) {
    const STRIDED: u8 = Layout::Strided as u8;
    const PACKED: u8 = Layout::Packed as u8;
    const INT4: u8 = Layout::Int4 as u8;
    match ops.layout {
        Layout::Strided => matmul_block::<L, STRIDED, E>(ops, block),
        Layout::Packed => matmul_block::<L, PACKED, E>(ops, block),
        Layout::Int4 => {
            // The walk's panel holds `E`, and an INT4 panel is dequantized
            // to `f32`: only an `f32` product has an INT4 `rhs`.
            assert!(
                core::mem::size_of::<E>() == 4,
                "an INT4 rhs is dequantized to f32"
            );
            matmul_block::<L, INT4, E>(ops, block)
        }
        Layout::Planes => unreachable!("bit planes have their own entry, planes_block"),
    }
}

/// [`matmul_block`] over bit-plane windows ([`Layout::Planes`]) on the
/// AVX-512 leg, the one whose tile reads them: an entry of its own, so
/// that no other product's instance carries it.
///
/// # Safety
///
/// [`matmul_block`]'s contract, and the CPU must run the AVX-512 leg.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c,avx512f,avx512bw,avx512vbmi,gfni")]
pub(crate) unsafe fn planes_block(ops: &Operands, block: &OutBlock) {
    matmul_block::<Avx512, { Layout::Planes as u8 }, f32>(ops, block)
}

/// The scalar leg of a [`Layout::Strided`] product — the loops every
/// vector leg of [`crate::Strided`]'s products is pinned to, on every
/// input: `out[i][j] += a[i][kk] · b[kk][j]` for ascending `kk`,
/// skipping nothing, row `i` reading `b` from window `i % windows` on, each
/// `b` element widened to `f32` ([`anda_fp::F16::to_f32`] for binary16).
pub(crate) fn resident_block_scalar<E: Element>(
    ops: &Operands<E>,
    rows: usize,
    n: usize,
    out: &mut [f32],
) {
    debug_assert!(
        ops.layout == Layout::Strided,
        "the scalar loops read row-major windows"
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
unsafe fn avx2_rows<const R: usize, const BATCHED: bool, const PREFETCH: bool, P: Panel>(
    a: *const f32,
    lda: usize,
    b: P,
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
        for r in 0..if PREFETCH { own_b } else { 0 } {
            b.offset(r * bs).prefetch::<Avx2>(kk, 0, ahead);
        }
        let shared = (b.load8(kk, 0, 0), b.load8(kk, 0, 1));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let (b0, b1) = match BATCHED {
                false => shared,
                true => {
                    let b_r = b.offset(r * bs);
                    (b_r.load8(kk, 0, 0), b_r.load8(kk, 0, 1))
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
    unsafe fn tile<P: Panel>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: P,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    ) {
        debug_assert_eq!(strips, 1, "an AVX2 tile is one strip wide");
        let (f, p) = (first, ahead);
        match (rows, ahead != 0) {
            (4, false) => avx2_rows::<4, false, false, _>(a, lda, b, 0, kc, c, ldc, f, 0),
            (3, false) => avx2_rows::<3, false, false, _>(a, lda, b, 0, kc, c, ldc, f, 0),
            (2, false) => avx2_rows::<2, false, false, _>(a, lda, b, 0, kc, c, ldc, f, 0),
            (_, false) => avx2_rows::<1, false, false, _>(a, lda, b, 0, kc, c, ldc, f, 0),
            (4, true) => avx2_rows::<4, false, true, _>(a, lda, b, 0, kc, c, ldc, f, p),
            (3, true) => avx2_rows::<3, false, true, _>(a, lda, b, 0, kc, c, ldc, f, p),
            (2, true) => avx2_rows::<2, false, true, _>(a, lda, b, 0, kc, c, ldc, f, p),
            (_, true) => avx2_rows::<1, false, true, _>(a, lda, b, 0, kc, c, ldc, f, p),
        }
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn tile_batched<P: Panel>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: P,
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
            (4, false) => avx2_rows::<4, true, false, _>(a, lda, b, bs, kc, c, ldc, f, 0),
            (3, false) => avx2_rows::<3, true, false, _>(a, lda, b, bs, kc, c, ldc, f, 0),
            (2, false) => avx2_rows::<2, true, false, _>(a, lda, b, bs, kc, c, ldc, f, 0),
            (_, false) => avx2_rows::<1, true, false, _>(a, lda, b, bs, kc, c, ldc, f, 0),
            (4, true) => avx2_rows::<4, true, true, _>(a, lda, b, bs, kc, c, ldc, f, p),
            (3, true) => avx2_rows::<3, true, true, _>(a, lda, b, bs, kc, c, ldc, f, p),
            (2, true) => avx2_rows::<2, true, true, _>(a, lda, b, bs, kc, c, ldc, f, p),
            (_, true) => avx2_rows::<1, true, true, _>(a, lda, b, bs, kc, c, ldc, f, p),
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
#[target_feature(enable = "avx2,f16c,avx512f,avx512bw,avx512vbmi,gfni")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx512_rows<
    const R: usize,
    const S: usize,
    const BATCHED: bool,
    const PREFETCH: bool,
    P: Panel,
>(
    a: *const f32,
    lda: usize,
    b: P,
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
    // Each row's panel, found once.
    let b_r: [P; R] = core::array::from_fn(|r| if BATCHED { b.offset(r * bs) } else { b });
    for kk in 0..kc {
        for s in 0..S {
            for b in &b_r[..if PREFETCH { own_b } else { 0 }] {
                b.prefetch::<Avx2>(kk, s, ahead);
            }
        }
        let shared = match BATCHED {
            false => b.load_row::<S>(kk),
            true => [_mm512_setzero_ps(); S],
        };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // mul then add, never fused: the scalar oracle rounds the
            // product before the sum.
            let av = _mm512_set1_ps(*a.add(r * lda + kk));
            let bv = match BATCHED {
                false => shared,
                true => b_r[r].load_row::<S>(kk),
            };
            for (acc_v, bv) in acc_r.iter_mut().zip(bv) {
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
#[target_feature(enable = "avx2,f16c,avx512f,avx512bw,avx512vbmi,gfni")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx512_tile<const S: usize, const BATCHED: bool, const PREFETCH: bool, P: Panel>(
    rows: usize,
    a: *const f32,
    lda: usize,
    b: P,
    bs: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    first: bool,
    ahead: usize,
) {
    let (f, p) = (first, ahead);
    match rows {
        8 => avx512_rows::<8, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
        7 => avx512_rows::<7, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
        6 => avx512_rows::<6, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
        5 => avx512_rows::<5, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
        4 => avx512_rows::<4, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
        3 => avx512_rows::<3, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
        2 => avx512_rows::<2, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
        _ => avx512_rows::<1, S, BATCHED, PREFETCH, _>(a, lda, b, bs, kc, c, ldc, f, p),
    }
}

#[cfg(target_arch = "x86_64")]
impl Leg for Avx512 {
    const ROWS: usize = MAX_TILE_ROWS;
    const STRIPS: usize = MAX_STRIPS;

    #[target_feature(enable = "avx2,f16c,avx512f,avx512bw,avx512vbmi,gfni")]
    unsafe fn tile<P: Panel>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: P,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    ) {
        let (f, p) = (first, ahead);
        match (strips, ahead) {
            (2, 0) => avx512_tile::<2, false, false, _>(rows, a, lda, b, 0, kc, c, ldc, f, 0),
            (2, _) => avx512_tile::<2, false, true, _>(rows, a, lda, b, 0, kc, c, ldc, f, p),
            (_, 0) => avx512_tile::<1, false, false, _>(rows, a, lda, b, 0, kc, c, ldc, f, 0),
            _ => avx512_tile::<1, false, true, _>(rows, a, lda, b, 0, kc, c, ldc, f, p),
        }
    }

    #[target_feature(enable = "avx2,f16c,avx512f,avx512bw,avx512vbmi,gfni")]
    unsafe fn tile_batched<P: Panel>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: P,
        bs: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        first: bool,
        ahead: usize,
    ) {
        let (f, p) = (first, ahead);
        match (strips, ahead) {
            (2, 0) => avx512_tile::<2, true, false, _>(rows, a, lda, b, bs, kc, c, ldc, f, 0),
            (2, _) => avx512_tile::<2, true, true, _>(rows, a, lda, b, bs, kc, c, ldc, f, p),
            (_, 0) => avx512_tile::<1, true, false, _>(rows, a, lda, b, bs, kc, c, ldc, f, 0),
            _ => avx512_tile::<1, true, true, _>(rows, a, lda, b, bs, kc, c, ldc, f, p),
        }
    }

    #[inline(always)]
    fn prefetch<T>(p: *const T) {
        <Avx2 as Leg>::prefetch(p)
    }

    #[target_feature(enable = "avx2,f16c,avx512f,avx512bw,avx512vbmi,gfni")]
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
    unsafe fn tile<P: Panel>(
        rows: usize,
        strips: usize,
        a: *const f32,
        lda: usize,
        b: P,
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
        unsafe fn rows_n<const R: usize, P: Panel>(
            a: *const f32,
            lda: usize,
            b: P,
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
                    b.load4(kk, 0, 0),
                    b.load4(kk, 0, 1),
                    b.load4(kk, 0, 2),
                    b.load4(kk, 0, 3),
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
            4 => rows_n::<4, _>(a, lda, b, kc, c, ldc, first),
            3 => rows_n::<3, _>(a, lda, b, kc, c, ldc, first),
            2 => rows_n::<2, _>(a, lda, b, kc, c, ldc, first),
            _ => rows_n::<1, _>(a, lda, b, kc, c, ldc, first),
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn block<E: Element>(ops: &Operands<E>, block: &OutBlock) {
        block_body::<Self, E>(ops, block)
    }
}
