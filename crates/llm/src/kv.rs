//! The paged, optionally Anda-compressed KV cache (paper §VI).
//!
//! The paper keeps the KV cache in FP16 (§V-A) but points out that Anda
//! "could synergize with KV cache optimizations to significantly accelerate
//! long-context LLM inference". This module is that extension, built the
//! way a serving system needs it: a [`PagePool`] block allocator owns
//! fixed-size pages (`page_positions` positions × `dim` lanes of K *and* V
//! rows), every [`KvCache`] is a per-layer page table over pages leased
//! from a pool, and the storage policy ([`KvStorage`]) decides whether a
//! page holds raw `f32` rows (the exact-reference policy, read in place),
//! binary16 words (the paper's §V-A FP16 baseline, read in place too: the
//! products' register tile widens them as it loads them) or Anda
//! bit-plane rows (one `anda_format::AndaTensor` each for K and V,
//! decoded on read). Either way a page holds the bytes
//! [`KvStorage::row_bits`] accounts, and reads allocate nothing per
//! token. The FP16 narrow, the FP16 tile loads and the Anda encode/decode
//! all run through SIMD-dispatched kernels (`anda_fp::batch`,
//! `anda_tensor::Strided`, the row codec; scalar-oracle bit-exact on
//! every leg).
//!
//! # One read path
//!
//! Attention reads the cache through a single routine, the page walk of
//! [`PageDecodeCache::attend`]: solo decode, decode batches, prefill
//! chunk spans and the full-sequence `Model::forward` (one span, every
//! row a lane) all describe their work as [`AttendLane`]s (a query, the
//! window it attends, where the result goes). The walk goes page by
//! page and widens each distinct physical Anda page once per pass — in
//! the products' register tile, which reads its bit planes where they
//! lie (the AVX-512 leg at `M <= 8`), or into a page-sized tile that
//! stays in L1 while every lane viewing it consumes it — and reads `f32`
//! and FP16 pages where they lie: the stored operand stays narrow until
//! it is in L1 (an FP16 one, and an Anda one read in place, until it is
//! in a register), and no decoded copy of a context is ever materialised.
//! Every tile is held in the order its product reads it:
//! V row-major, K position-minor (`dim × positions`, so a page's
//! positions lie side by side — `f32` and FP16 pages store K that way,
//! and an Anda page decodes or widens its keys straight into it). What consumes a
//! tile is the GEMM register tile (`anda_tensor::Strided`), reading it in
//! place: the lanes viewing a page — one decode stream, a chunk span's
//! lanes, the forks of a prefix — share its products, every head of every
//! viewer a row, so one loaded key or value vector feeds up to eight
//! viewers of the page.
//! [`LayerKv::key_into`] / [`LayerKv::value_into`] remain as the
//! single-row accessors (and the reference the walk is tested against).
//!
//! Pages move by value between the pool's free list and the caches, so a
//! page can never be double-freed; retiring a stream ([`KvCache::reset`])
//! recycles its pages for the next stream, and freed pages are always
//! reused before the pool grows. A bounded pool (`max_pages`) turns KV
//! memory into an admission resource: the serving scheduler reserves a
//! request's worst-case page demand up front and rejects what could never
//! fit, replacing worst-case token budgeting with real memory accounting.
//! Anda pages are `16 / (M + 1 + 5/64)` times smaller than FP16 pages, so
//! the same memory budget holds proportionally more pages — the
//! long-context headroom `anda-serve`'s
//! `paged_kv.rs::anda_pool_admits_a_batch_fp32_accounting_rejects` pins.
//!
//! # Prefix sharing
//!
//! Streams that open with the same prompt prefix (a system prompt, a
//! few-shot header) cache bit-identical K/V rows, so full pages can be
//! *shared* instead of duplicated. [`KvCache::fork_prefix`] clones the
//! page table: every whole page covering the prefix becomes a refcounted
//! [`SharedPage`] lease ([`PagePool::fork_page`] /
//! [`PagePool::release_page`]), counted once by the pool's ledger no
//! matter how many caches reference it. A page is shared only when it is
//! whole, so no append ever lands in one: a fork ending mid-page copies
//! that partial page's rows *bitwise* into a page of its own when it is
//! taken, and the donor keeps appending into its own tail in place.
//! Every stream's decode stays bit-exact while whole prefix pages stay
//! deduplicated, and a shared page returns to the free list exactly when
//! its last lease drops. The resulting admission headroom — N streams
//! over a P-position prefix pin `pages(P) + N·pages(private)` pages, not
//! `N·pages(P + private)` — is pinned by `anda-serve`'s
//! `shared_prefix.rs::admission_charges_only_unshared_pages`.

use std::sync::{Arc, Mutex};

use anda_format::bitplane::LANES;
use anda_format::rowcodec;
use anda_format::{AndaConfig, AndaTensor};
use anda_fp::batch::{narrow, widen};
use anda_fp::simd::{active_leg, LegKind, SimdLeg};
use anda_fp::F16;
use anda_tensor::{ops, BitPlanes, PlaneWindows, RowClass, Strided};
use rayon_lite::ThreadPool;

use crate::config::ModelConfig;
use crate::model::StepRows;
use crate::phase::{Phase, PhaseLedger, Stamp};

/// Storage policy for cached K/V rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvStorage {
    /// Raw `f32` rows, read in place — the exact-reference policy (what
    /// solo `generate` has always cached) and the accounting baseline
    /// the compressed policies are measured against.
    Fp32,
    /// FP16 rows (the paper's §V-A baseline): each value saturated to a
    /// binary16 word on append, 16 bits resident, and read in place by the
    /// page walk's products, which widen each word as they load it.
    Fp16,
    /// Anda-format rows with the given mantissa length, decoded on read.
    Anda {
        /// Mantissa length (1..=16).
        mantissa_bits: u32,
    },
}

impl KvStorage {
    /// The Anda conversion config for this policy (`None` for the float
    /// policies).
    ///
    /// # Panics
    ///
    /// Panics if an Anda policy has mantissa bits outside 1..=16.
    fn anda_config(self) -> Option<AndaConfig> {
        match self {
            KvStorage::Fp32 | KvStorage::Fp16 => None,
            KvStorage::Anda { mantissa_bits } => {
                Some(AndaConfig::hardware(mantissa_bits).expect("mantissa bits must be 1..=16"))
            }
        }
    }

    /// Storage bits of one `dim`-wide row under this policy (zero-padded
    /// trailing lanes of a partial Anda group included, as hardware would).
    pub fn row_bits(self, dim: usize) -> usize {
        match self {
            KvStorage::Fp32 => dim * 32,
            KvStorage::Fp16 => dim * 16,
            KvStorage::Anda { .. } => {
                rowcodec::row_storage_bits(dim, self.anda_config().expect("anda policy"))
            }
        }
    }
}

/// Geometry and policy of a KV [`PagePool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvPoolConfig {
    /// How K/V rows are stored inside pages.
    pub storage: KvStorage,
    /// Cached positions per page (per layer; a page holds both K and V).
    pub page_positions: usize,
    /// Pool capacity in pages; `None` grows without bound (solo decode).
    pub max_pages: Option<usize>,
}

/// Default positions per page (vLLM-style block granularity).
pub const DEFAULT_PAGE_POSITIONS: usize = 16;

impl Default for KvPoolConfig {
    fn default() -> Self {
        KvPoolConfig {
            storage: KvStorage::Fp32,
            page_positions: DEFAULT_PAGE_POSITIONS,
            max_pages: None,
        }
    }
}

impl KvPoolConfig {
    /// An unbounded pool with the given policy and default page size.
    pub fn unbounded(storage: KvStorage) -> Self {
        KvPoolConfig {
            storage,
            ..Self::default()
        }
    }

    /// Storage bits of one page of `dim`-wide rows (K and V planes both).
    pub fn page_bits(&self, dim: usize) -> usize {
        2 * self.page_positions * self.storage.row_bits(dim)
    }

    /// Pages needed to hold `positions` cached positions of one layer.
    pub fn pages_for(&self, positions: usize) -> usize {
        positions.div_ceil(self.page_positions)
    }
}

/// One fixed-size block of KV storage: `page_positions` positions of one
/// layer, K and V rows both, under one [`KvStorage`] policy.
///
/// Pages are created by a [`PagePool`] and move by value between the
/// pool's free list and a cache's page table — there is no page handle to
/// double-free. Recycled pages keep their buffers; `used` gates every
/// read, so a reused page is indistinguishable from a fresh one.
#[derive(Debug)]
pub struct Page {
    /// Row width (model `d_model`).
    dim: usize,
    /// Position capacity.
    positions: usize,
    /// Positions filled (append-only until reset).
    used: usize,
    /// The policy rows were encoded under.
    storage: KvStorage,
    data: PageData,
}

/// A page's K or V as the walk's products read it ([`Page::tile`]): an
/// `f32` page's own words, an Anda page decoded, an FP16 page's binary16
/// words, or an Anda page's bit-plane words; each with the words of the
/// page the walk reads next, which the products stream (an FP16 or an
/// in-place Anda page's only). Every variant but `F32` holds finite values
/// only (an FP16 page holds [`narrow`]'s saturated words, and the row
/// codec saturates), which the V pass's skip of a row of zero weights
/// relies on ([`PageGroup::mix`]).
#[derive(Clone, Copy)]
enum Tile<'a> {
    F32(Rhs<'a, f32>),
    /// An Anda page decoded into the walk's tile.
    Decoded(&'a [f32]),
    F16(Rhs<'a, u16>),
    /// An Anda page's K or V words, which the product widens in the
    /// register as it loads them, and the next page's to stream.
    Planes(PlaneWindows<'a>, Option<BitPlanes<'a>>),
}

/// A page's words as a product reads them, and the next page's to stream.
type Rhs<'a, E> = (&'a [E], Option<&'a [E]>);

/// A page's K and V, each holding the bits [`KvStorage::row_bits`]
/// accounts per row (an Anda group keeps its 5-bit exponent in a `u16`).
/// The float variants lie in the order the walk's products read them: V
/// row-major, `positions × dim`; K position-minor, `dim × positions`
/// (lane `c` of position `p` at `c · positions + p`).
#[derive(Debug)]
enum PageData {
    /// [`KvStorage::Fp32`]: raw `f32` words, read in place.
    F32 { k: Vec<f32>, v: Vec<f32> },
    /// [`KvStorage::Fp16`]: saturated binary16 words ([`narrow`]'s
    /// output), read in place. A slot holds `narrow` output or the zeros
    /// it was created with, never a NaN pattern — the input contract of
    /// the products that widen them (`anda_tensor::Strided`).
    F16 { k: Vec<u16>, v: Vec<u16> },
    /// `positions × dim` Anda rows.
    Anda { k: AndaTensor, v: AndaTensor },
}

impl Page {
    fn new(cfg: &KvPoolConfig, dim: usize) -> Self {
        let (positions, n) = (cfg.page_positions, cfg.page_positions * dim);
        let data = match cfg.storage {
            KvStorage::Fp32 => PageData::F32 {
                k: vec![0.0; n],
                v: vec![0.0; n],
            },
            KvStorage::Fp16 => PageData::F16 {
                k: vec![0; n],
                v: vec![0; n],
            },
            KvStorage::Anda { .. } => {
                let anda = cfg.storage.anda_config().expect("anda policy");
                PageData::Anda {
                    k: AndaTensor::zeros(positions, dim, anda),
                    v: AndaTensor::zeros(positions, dim, anda),
                }
            }
        };
        Page {
            dim,
            positions,
            used: 0,
            storage: cfg.storage,
            data,
        }
    }

    /// Positions currently written.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Position capacity.
    pub fn capacity(&self) -> usize {
        self.positions
    }

    fn is_full(&self) -> bool {
        self.used == self.positions
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn reset(&mut self) {
        self.used = 0;
    }

    /// Appends one position (K and V rows), encoding under the page's
    /// policy without allocating. On a float page the value becomes a row
    /// and the key a column (K is held position-minor), each written once;
    /// an FP16 page narrows both to binary16, the key a stack buffer at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the page is full or a row is not `dim` wide (a narrower
    /// row would silently leave a recycled page's stale lanes in the
    /// cached position).
    fn push_row(&mut self, key: &[f32], value: &[f32]) {
        assert!(!self.is_full(), "push into a full page");
        assert_eq!(key.len(), self.dim, "key width");
        assert_eq!(value.len(), self.dim, "value width");
        let slot = self.used;
        let row = slot * self.dim..(slot + 1) * self.dim;
        match &mut self.data {
            PageData::F32 { k, v } => {
                let column = k[slot..].iter_mut().step_by(self.positions);
                key.iter().zip(column).for_each(|(&x, dst)| *dst = x);
                v[row].copy_from_slice(value);
            }
            PageData::F16 { k, v } => {
                let mut column = k[slot..].iter_mut().step_by(self.positions);
                let mut bits = [0u16; 64];
                for part in key.chunks(bits.len()) {
                    let bits = &mut bits[..part.len()];
                    narrow(part, bits);
                    bits.iter().zip(&mut column).for_each(|(&h, dst)| *dst = h);
                }
                narrow(value, &mut v[row]);
            }
            PageData::Anda { k, v } => {
                k.encode_row(slot, key);
                v.encode_row(slot, value);
            }
        }
        self.used += 1;
    }

    /// Copies the first `rows` positions of `src` into this page as a
    /// *bitwise* copy of the encoded representation (float words or Anda
    /// rows) — how a fork takes a partial tail page. No decode/re-encode
    /// round trip happens, so the copied rows read back
    /// `f32::to_bits`-identical to the source under every policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometries or policies differ or `src` holds fewer
    /// than `rows` filled positions.
    fn copy_rows_from(&mut self, src: &Page, rows: usize) {
        assert_eq!(self.dim, src.dim, "copy between different row widths");
        assert_eq!(self.positions, src.positions, "copy between page sizes");
        assert_eq!(self.storage, src.storage, "copy between policies");
        assert!(
            rows <= src.used,
            "copying {rows} rows from a page with {} filled",
            src.used
        );
        /// The first `rows` positions of a float page: K a prefix of each
        /// position-minor lane, V a prefix of the row-major rows.
        fn copy<T: Copy>(dst: (&mut [T], &mut [T]), src: (&[T], &[T]), pp: usize, rows: usize) {
            for (lane, src_lane) in dst.0.chunks_exact_mut(pp).zip(src.0.chunks_exact(pp)) {
                lane[..rows].copy_from_slice(&src_lane[..rows]);
            }
            let n = rows * dst.1.len() / pp;
            dst.1[..n].copy_from_slice(&src.1[..n]);
        }
        let pp = self.positions;
        match (&mut self.data, &src.data) {
            (PageData::F32 { k, v }, PageData::F32 { k: sk, v: sv }) => {
                copy((k, v), (sk, sv), pp, rows)
            }
            (PageData::F16 { k, v }, PageData::F16 { k: sk, v: sv }) => {
                copy((k, v), (sk, sv), pp, rows)
            }
            (PageData::Anda { k, v }, PageData::Anda { k: sk, v: sv }) => {
                k.copy_rows_from(sk, rows);
                v.copy_rows_from(sv, rows);
            }
            _ => unreachable!("policy equality asserted above"),
        }
        self.used = rows;
    }

    /// The page's K (or V) in columns `cols` as the walk's products read
    /// it, starting at column `cols.start`, and its row stride: V
    /// row-major (position `p`, column `c` at `p · dim + c`), K
    /// position-minor (at `c · positions + p`). Only the first `used`
    /// positions are data. A float page is its own tile, read in place —
    /// [`Page::push_row`] stored its K position-minor — an FP16 one as
    /// its binary16 words, which the product widens as it loads them
    /// (`anda_tensor::Element`; a slot holds `narrow` output or zeros,
    /// never a NaN pattern). An Anda page is widened once per pass, in the
    /// register or into the tile, and this is the one place that chooses:
    /// when `few` viewers read the page in this pass (one product, of at
    /// most [`IN_PLACE_VIEWERS`] lanes), on the AVX-512 leg at `M <= 8`,
    /// with pages of whole blocks of sixteen positions and heads of `dh`
    /// columns that are whole strips and whole or quarter or half groups,
    /// its words are handed to the product ([`Tile::Planes`],
    /// `anda_tensor::Strided::matmul_planes_into`), whose register tile
    /// widens each window once as it loads it. Otherwise it
    /// decodes into `scratch` (page-sized, so it stays in L1): those
    /// columns of its V rows row-major, or of its K rows position-minor,
    /// on `leg` (`rowcodec::decode_rows_into_with_leg` /
    /// `rowcodec::decode_rows_transposed_into_with_leg`). A K slot past
    /// `used` keeps whatever an earlier tile of the walk left there, or
    /// zero (a page read in place reads its own stale words there): the K
    /// product's scores there are never read. `cols` must start on its
    /// group boundary.
    ///
    /// `next` is the page of the same pool the pass reads after this one:
    /// an Anda decode, or a product over Anda words, streams its words in
    /// as it goes, and an FP16 page's tile carries them — the same half,
    /// from the same column on, to the end of its buffer — for the
    /// products to stream. No value depends on it (an `f32` page, the
    /// exact reference, streams nothing).
    #[allow(clippy::too_many_arguments)]
    fn tile<'a>(
        &'a self,
        want_v: bool,
        cols: &std::ops::Range<usize>,
        dh: usize,
        few: bool,
        scratch: &'a mut Vec<f32>,
        leg: SimdLeg,
        next: Option<&'a Page>,
    ) -> (Tile<'a>, usize) {
        let (dim, pp, filled) = (self.dim, self.positions, self.used * self.dim);
        // An FP16 page's V (row-major) or K (position-minor) words from
        // column `cols.start` on.
        let f16 = |page: &'a Page| match (&page.data, want_v) {
            (PageData::F16 { v, .. }, true) => Some(&v[cols.start..]),
            (PageData::F16 { k, .. }, false) => Some(&k[cols.start * pp..]),
            _ => None,
        };
        match &self.data {
            PageData::F32 { v, .. } if want_v => (Tile::F32((&v[cols.start..filled], None)), dim),
            PageData::F32 { k, .. } => (Tile::F32((&k[cols.start * pp..], None)), pp),
            PageData::F16 { .. } => {
                let words = (f16(self).expect("an FP16 page"), next.and_then(f16));
                (Tile::F16(words), if want_v { dim } else { pp })
            }
            PageData::Anda { k, v } => {
                // Sized at the first Anda page, whichever route it takes,
                // so a warmed walk allocates nothing when a later page
                // needs the tile.
                scratch.resize(pp * dim, 0.0);
                // The page's K or V words: a K product reads every slot.
                let words = |page: &'a Page| match &page.data {
                    PageData::Anda { k, v } => {
                        let w = if want_v { v } else { k }.words(pp);
                        Some(BitPlanes {
                            signs: w.signs,
                            exps: w.exps,
                            planes: w.planes,
                        })
                    }
                    _ => None,
                };
                let m = k.config().mantissa_bits() as usize;
                let strips = |x: usize| x.is_multiple_of(16);
                let in_place = few
                    && leg.kind() == LegKind::Avx512
                    && m <= 8
                    && strips(pp)
                    && strips(dh)
                    && (dh.is_multiple_of(LANES) || LANES.is_multiple_of(dh));
                if in_place {
                    let windows = PlaneWindows {
                        words: words(self).expect("an Anda page"),
                        mantissa_bits: m,
                        width: dim,
                        rows: if want_v { self.used } else { pp },
                        col0: cols.start,
                        cols: dh,
                        position_minor: !want_v,
                    };
                    return (Tile::Planes(windows, next.and_then(words)), pp);
                }
                let next = next.and_then(|page| match &page.data {
                    PageData::Anda { k, v } => Some(if want_v { v } else { k }.words(page.used)),
                    _ => None,
                });
                let groups = cols.start / LANES..cols.end.div_ceil(LANES);
                if want_v {
                    v.decode_rows_into(leg, groups, &mut scratch[..filled], next);
                    return (Tile::Decoded(&scratch[cols.start..filled]), dim);
                }
                k.decode_rows_transposed_into(leg, groups, self.used, scratch, pp, next);
                (Tile::Decoded(scratch), pp)
            }
        }
    }

    /// Decodes row `slot`'s K (or V) into `out` without allocating.
    fn row_into(&self, slot: usize, want_v: bool, out: &mut [f32]) {
        assert!(slot < self.used, "row {slot} not written");
        assert_eq!(out.len(), self.dim, "row width");
        let row = slot * self.dim..(slot + 1) * self.dim;
        match &self.data {
            PageData::F32 { v, .. } if want_v => out.copy_from_slice(&v[row]),
            PageData::F32 { k, .. } => {
                let lane = k[slot..].iter().step_by(self.positions);
                out.iter_mut().zip(lane).for_each(|(dst, &x)| *dst = x);
            }
            PageData::F16 { v, .. } if want_v => widen(&v[row], out),
            PageData::F16 { k, .. } => {
                let lane = k[slot..].iter().step_by(self.positions);
                out.iter_mut()
                    .zip(lane)
                    .for_each(|(dst, &h)| *dst = F16::from_bits(h).to_f32());
            }
            PageData::Anda { k, v } => (if want_v { v } else { k }).decode_row_into(slot, out),
        }
    }

    /// The policy this page's rows were encoded under.
    pub fn storage(&self) -> KvStorage {
        self.storage
    }

    fn row_bits(&self) -> usize {
        self.storage.row_bits(self.dim)
    }
}

#[derive(Debug)]
struct PoolState {
    /// Row width, bound by the first allocation (0 = unbound).
    dim: usize,
    /// Recycled pages awaiting reuse.
    free: Vec<Page>,
    /// Pages ever created (never exceeds `max_pages`).
    created: usize,
}

#[derive(Debug)]
struct PoolShared {
    cfg: KvPoolConfig,
    state: Mutex<PoolState>,
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().expect("a pool lock holder panicked")
    }

    /// Locks the pool for a page coming back, checking that the page has
    /// this pool's geometry and policy (it was leased here).
    ///
    /// # Panics
    ///
    /// Panics, with the lock released, if the page is foreign; `verb` says
    /// what was done with it.
    fn lock_for_native(&self, page: &Page, verb: &str) -> std::sync::MutexGuard<'_, PoolState> {
        let st = self.lock();
        let native = (self.cfg.page_positions, self.cfg.storage, st.dim);
        if (page.positions, page.storage, page.dim) != native {
            drop(st);
            panic!("page {verb} a foreign pool");
        }
        st
    }

    /// Returns a leased page to the free list (cleared, buffers kept) —
    /// the single recycling point behind [`PagePool::release`],
    /// [`PagePool::release_page`] and the last-lease drop of a
    /// [`SharedPage`].
    fn recycle(&self, mut page: Page) {
        let mut st = self.lock_for_native(&page, "returned to");
        debug_assert!(
            st.free.len() < st.created,
            "more pages released than created"
        );
        page.reset();
        st.free.push(page);
    }
}

/// A refcounted lease of one pool page, shared read-only between any
/// number of page tables (prefix sharing). Handles are created by
/// [`PagePool::share`], duplicated only by [`PagePool::fork_page`] and
/// consumed by [`PagePool::release_page`] (or a plain drop) — there is no
/// `Clone`, so every refcount transition goes through the pool's ledger
/// API. The underlying page returns to its pool's free list exactly when
/// the last handle drops: releasing twice is unrepresentable (handles
/// move by value) and forgetting to release is impossible (drop
/// recycles), so the "double free" and "leak" halves of the ledger are
/// both closed by construction.
///
/// Only a full page is ever shared, so a shared page is immutable with
/// no guard: no table appends into a page it cannot add a row to.
#[derive(Debug)]
pub struct SharedPage {
    inner: Arc<SharedInner>,
}

#[derive(Debug)]
struct SharedInner {
    /// `Some` until the last handle drops; taken exactly once, so the
    /// page rejoins the free list exactly once.
    page: Option<Page>,
    pool: Arc<PoolShared>,
}

impl Drop for SharedInner {
    fn drop(&mut self) {
        if let Some(page) = self.page.take() {
            self.pool.recycle(page);
        }
    }
}

impl SharedPage {
    /// Number of live leases of this page (1 = this handle is the sole
    /// owner).
    ///
    /// Not on the served path: `tests/page_pool.rs` pins lease counts with
    /// it.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    fn page(&self) -> &Page {
        self.inner
            .page
            .as_ref()
            .expect("present until the last drop")
    }

    fn same_pool(&self, pool: &PagePool) -> bool {
        Arc::ptr_eq(&self.inner.pool, &pool.shared)
    }
}

/// A shared block-pool allocator of KV [`Page`]s.
///
/// Cloning the pool clones a handle to the same pool (streams decoding on
/// worker threads lease pages concurrently; the lock is taken once per
/// page transition, never per token). Freed pages are always reused
/// before new ones are created, and creation stops at `max_pages`.
#[derive(Clone, Debug)]
pub struct PagePool {
    shared: Arc<PoolShared>,
}

impl PagePool {
    /// A pool with the given geometry and policy.
    ///
    /// # Panics
    ///
    /// Panics if `page_positions` is zero or an Anda policy has mantissa
    /// bits outside 1..=16.
    pub fn new(cfg: KvPoolConfig) -> Self {
        assert!(cfg.page_positions >= 1, "page_positions must be at least 1");
        let _ = cfg.storage.anda_config(); // validates mantissa bits
        PagePool {
            shared: Arc::new(PoolShared {
                cfg,
                state: Mutex::new(PoolState {
                    dim: 0,
                    free: Vec::new(),
                    created: 0,
                }),
            }),
        }
    }

    /// The pool's geometry and policy.
    pub fn config(&self) -> KvPoolConfig {
        self.shared.cfg
    }

    /// Pool capacity in pages (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shared.cfg.max_pages
    }

    /// Pages needed for `positions` cached positions of one layer.
    pub fn pages_for(&self, positions: usize) -> usize {
        self.shared.cfg.pages_for(positions)
    }

    /// An empty [`KvCache`] leasing its pages from this pool.
    pub fn new_cache(&self, n_layers: usize) -> KvCache {
        KvCache::with_pool(n_layers, self.clone())
    }

    /// Pages ever created. Stays flat while the free list feeds
    /// allocations — the "reuse before growth" invariant.
    pub fn pages_created(&self) -> usize {
        self.shared.lock().created
    }

    /// Recycled pages currently waiting on the free list.
    pub fn pages_free(&self) -> usize {
        self.shared.lock().free.len()
    }

    /// Pages currently leased to caches.
    pub fn pages_in_use(&self) -> usize {
        let st = self.shared.lock();
        st.created - st.free.len()
    }

    /// Leases one page for `dim`-wide rows; `None` when the pool is at
    /// capacity with nothing on the free list. The first call binds the
    /// pool's row width.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or differs from the bound width.
    pub fn try_alloc(&self, dim: usize) -> Option<Page> {
        let mut st = self.lock_for_width(dim);
        st.free.pop().or_else(|| self.create(&mut st))
    }

    /// Returns a leased page to the free list (cleared, buffers kept).
    ///
    /// # Panics
    ///
    /// Panics if the page's geometry does not match this pool (it was
    /// leased from a different pool).
    pub fn release(&self, page: Page) {
        self.shared.recycle(page);
    }

    /// Converts an exclusively owned page into a refcount-1 shared lease
    /// — the sealing step [`KvCache::fork_prefix`] applies to every whole
    /// page covering the forked prefix. The page stays on the pool's in-use
    /// ledger (it is leased, just co-owned from now on).
    ///
    /// # Panics
    ///
    /// Panics if the page's geometry does not match this pool.
    pub fn share(&self, page: Page) -> SharedPage {
        drop(self.shared.lock_for_native(&page, "shared into"));
        SharedPage {
            inner: Arc::new(SharedInner {
                page: Some(page),
                pool: Arc::clone(&self.shared),
            }),
        }
    }

    /// Duplicates a shared lease (refcount + 1). The physical page stays
    /// a single entry on the pool's ledger — this is what makes N caches
    /// over one prefix cost `pages(prefix)` once, not N times.
    ///
    /// # Panics
    ///
    /// Panics if `page` is leased from a different pool.
    pub fn fork_page(&self, page: &SharedPage) -> SharedPage {
        assert!(page.same_pool(self), "fork of a foreign pool's page");
        SharedPage {
            inner: Arc::clone(&page.inner),
        }
    }

    /// Drops one shared lease. When it is the last one, the page rejoins
    /// the free list (reuse-before-growth preserved); while other leases
    /// remain, the page stays in use — a refcounted page can never
    /// re-enter the free list early.
    ///
    /// # Panics
    ///
    /// Panics if `page` is leased from a different pool.
    pub fn release_page(&self, page: SharedPage) {
        assert!(page.same_pool(self), "release of a foreign pool's page");
        drop(page);
    }

    /// Creates up to `n` pages onto the free list (bounded by capacity),
    /// so subsequent leases allocate nothing — the warm-up knob behind
    /// the zero-allocation decode guarantee.
    ///
    /// For callers warming a pool: `tests/kv_alloc.rs` pins the
    /// zero-allocation step behind it.
    pub fn preallocate(&self, n: usize, dim: usize) {
        let mut st = self.lock_for_width(dim);
        for _ in 0..n {
            let Some(page) = self.create(&mut st) else {
                break;
            };
            st.free.push(page);
        }
    }

    /// Locks the pool for `dim`-wide pages, binding its row width on the
    /// first call.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or differs from the bound width.
    fn lock_for_width(&self, dim: usize) -> std::sync::MutexGuard<'_, PoolState> {
        assert!(dim > 0, "row width must be positive");
        let mut st = self.shared.lock();
        if st.dim == 0 {
            st.dim = dim;
        }
        assert_eq!(st.dim, dim, "page pool is bound to one row width");
        st
    }

    /// Creates one page of the bound width, the only place pages come
    /// from; `None` when the pool is at capacity.
    fn create(&self, st: &mut PoolState) -> Option<Page> {
        let cfg = &self.shared.cfg;
        if cfg.max_pages.is_some_and(|cap| st.created >= cap) {
            return None;
        }
        st.created += 1;
        Some(Page::new(cfg, st.dim))
    }
}

/// One slot of a layer's page table: a page either exclusively owned by
/// this cache (mutable — the only kind plain decoding creates) or a
/// refcounted [`SharedPage`] lease of a whole prefix page (immutable, and
/// never the target of an append: a full page takes no more rows).
#[derive(Debug)]
enum TablePage {
    Owned(Page),
    Shared(SharedPage),
}

impl TablePage {
    fn page(&self) -> &Page {
        match self {
            TablePage::Owned(page) => page,
            TablePage::Shared(shared) => shared.page(),
        }
    }

    /// The physical page's identity for the duration of one layer's
    /// attend: every lease of a shared page agrees on the `Arc` pointer,
    /// and simultaneously live owned pages have distinct addresses.
    fn identity(&self) -> usize {
        match self {
            TablePage::Owned(page) => std::ptr::from_ref(page) as usize,
            TablePage::Shared(shared) => Arc::as_ptr(&shared.inner) as usize,
        }
    }
}

/// One layer's cached key/value rows (post-RoPE for LLaMA-family models):
/// a page table over pool-leased pages in position order.
///
/// Entries are table pages: exclusively owned pages plus refcounted
/// [`SharedPage`] leases installed by [`KvCache::fork_prefix`]. A table
/// views every row of every page it holds: every page but the last is
/// full, so the pages' fill is the layer's length. Only whole pages are
/// shared, so a partial tail is always owned.
#[derive(Debug, Default)]
pub struct LayerKv {
    pages: Vec<TablePage>,
    /// This layer's index in its owning cache (0 for a standalone
    /// `LayerKv::default()`), carried so misuse panics can name the
    /// layer instead of pointing at an anonymous table.
    idx: usize,
}

impl LayerKv {
    /// Number of cached positions in this layer.
    pub fn len(&self) -> usize {
        self.pages.last().map_or(0, |tail| {
            (self.pages.len() - 1) * self.page_positions() + tail.page().used()
        })
    }

    /// `true` when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Pages in the table holding a shared (refcounted) lease.
    pub fn shared_page_count(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| matches!(p, TablePage::Shared(_)))
            .count()
    }

    fn page_positions(&self) -> usize {
        self.pages.first().map_or(1, |p| p.page().capacity())
    }

    /// Row width (`d_model`); 0 before the first append.
    pub fn dim(&self) -> usize {
        self.pages.first().map_or(0, |p| p.page().dim())
    }

    /// Appends one position's key and value rows, leasing a fresh page
    /// from `pool` when the tail page is full. A tail with room is always
    /// owned (only whole pages are shared), so the row lands in place.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in width or the pool is exhausted
    /// (bounded pools are protected by admission-time reservation).
    pub(crate) fn push(&mut self, pool: &PagePool, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), value.len(), "key/value width mismatch");
        if self.pages.last().is_none_or(|tail| tail.page().is_full()) {
            let page = pool
                .try_alloc(key.len())
                .expect("KV page pool exhausted (admission must reserve worst-case pages)");
            self.pages.push(TablePage::Owned(page));
        }
        let Some(TablePage::Owned(tail)) = self.pages.last_mut() else {
            unreachable!("a shared page is full, so a tail with room is owned");
        };
        tail.push_row(key, value);
    }

    /// Extends this table — which must end on a page boundary — to
    /// `positions` from `source`: the one fork primitive. Each of
    /// `source`'s whole pages past `self.len()` is sealed into a refcounted
    /// [`SharedPage`] (a no-op if already shared) and leased
    /// ([`PagePool::fork_page`]), no rows copied. A partial last page's
    /// rows are copied bitwise into a page leased from `pool`
    /// ([`Page::copy_rows_from`]), so a shared page is always whole and
    /// `source` keeps appending into its own tail in place.
    ///
    /// # Panics
    ///
    /// Panics unless `self.len()` is page-aligned and `self.len() <=
    /// positions <= source.len()`, or if the pool is exhausted when a
    /// partial page must be copied (admission reserves it among the
    /// fork's private pages).
    fn splice_tail(&mut self, pool: &PagePool, source: &mut LayerKv, positions: usize) {
        let (pp, len) = (pool.config().page_positions, self.len());
        assert!(
            len.is_multiple_of(pp) && len <= positions && positions <= source.len(),
            "fork of positions {len}..{positions} from a {}-position layer ({pp}-position pages)",
            source.len()
        );
        let whole = positions / pp;
        // One `extend` over the range, not a loop of pushes: a fork of 88
        // pages (4 layers × 22) and its drop took 1.6× as long with the
        // loop on a 2-vCPU Xeon.
        self.pages
            .extend(source.pages[len / pp..whole].iter_mut().map(|entry| {
                if let TablePage::Owned(page) = entry {
                    // A zero-width page holds no buffer: the swap allocates nothing.
                    let page = std::mem::replace(page, Page::new(&KvPoolConfig::default(), 0));
                    *entry = TablePage::Shared(pool.share(page));
                }
                let TablePage::Shared(shared) = entry else {
                    unreachable!("sealed above");
                };
                debug_assert!(shared.page().is_full(), "only whole pages are shared");
                TablePage::Shared(pool.fork_page(shared))
            }));
        if positions > whole * pp {
            let mut page = pool
                .try_alloc(source.dim())
                .expect("KV page pool exhausted (admission must reserve worst-case pages)");
            page.copy_rows_from(source.pages[whole].page(), positions - whole * pp);
            self.pages.push(TablePage::Owned(page));
        }
    }

    /// Decodes the key row at `pos` into `out` (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len` or `out` is not `dim` wide.
    pub fn key_into(&self, pos: usize, out: &mut [f32]) {
        self.row_into(pos, false, out);
    }

    /// Decodes the value row at `pos` into `out` (no allocation).
    ///
    /// # Panics
    ///
    /// As [`LayerKv::key_into`].
    pub fn value_into(&self, pos: usize, out: &mut [f32]) {
        self.row_into(pos, true, out);
    }

    /// Decodes the key row at `pos` (allocating convenience).
    pub fn key(&self, pos: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.key_into(pos, &mut out);
        out
    }

    /// Decodes the value row at `pos` (allocating convenience).
    pub fn value(&self, pos: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.value_into(pos, &mut out);
        out
    }

    fn row_into(&self, pos: usize, want_v: bool, out: &mut [f32]) {
        assert!(pos < self.len(), "position {pos} not cached");
        let pp = self.page_positions();
        self.pages[pos / pp].page().row_into(pos % pp, want_v, out);
    }

    /// Returns every lease to `pool` (owned pages to the free list,
    /// shared leases dropped — the physical page rejoins the free list
    /// only with its last lease) and empties the layer.
    pub(crate) fn release_into(&mut self, pool: &PagePool) {
        for entry in self.pages.drain(..) {
            match entry {
                TablePage::Owned(page) => pool.release(page),
                TablePage::Shared(shared) => pool.release_page(shared),
            }
        }
    }

    /// Bits occupied by the cached rows this table views under the
    /// layer's policy.
    pub fn storage_bits(&self) -> usize {
        self.pages
            .first()
            .map_or(0, |page| 2 * self.len() * page.page().row_bits())
    }

    /// Validates that this layer can be attended at all: attention over
    /// zero cached positions is always a caller bug (softmax over an
    /// empty score row, or a page walk indexing an empty table), so every
    /// attend entry point rejects it *here*, at the API surface, with a
    /// message naming the layer and the misuse — instead of surfacing as
    /// a NaN or a slice panic deep inside the walk.
    ///
    /// # Panics
    ///
    /// Panics if the layer is empty.
    pub fn assert_attendable(&self) {
        assert!(
            !self.is_empty(),
            "attention over an empty cache: layer {} has no cached K/V positions — \
             prefill or append at least one row before attending",
            self.idx
        );
    }

    /// Single-query multi-head attention over the cached positions into a
    /// caller buffer, allocation-free at steady state:
    /// softmax(q·Kᵀ/√d_head)·V per head, heads concatenated — one lane of
    /// the page walk ([`PageDecodeCache`]) on [`rayon_lite::serial`], the
    /// pool of one.
    ///
    /// # Panics
    ///
    /// Panics if the layer is empty (a clear API-surface message naming
    /// the layer — see [`LayerKv::assert_attendable`] — instead of a
    /// confusing failure deep in the walk), `q`/`out` are not `dim` wide,
    /// or `dim` is not divisible by `n_heads`.
    pub fn attend_into(
        &self,
        q: &[f32],
        n_heads: usize,
        out: &mut [f32],
        scratch: &mut KvReadScratch,
    ) {
        self.assert_attendable();
        let lane = AttendLane {
            layer: self,
            t: self.len(),
            q,
            out,
        };
        scratch
            .pages
            .attend(&mut [lane], n_heads, rayon_lite::serial());
    }

    /// [`LayerKv::attend_into`] with owned scratch and output
    /// (experiment/demo convenience).
    pub fn attend(&self, q: &[f32], n_heads: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.attend_into(q, n_heads, &mut out, &mut KvReadScratch::new());
        out
    }
}

/// Reusable buffers for [`LayerKv::attend_into`]: the page walk's tile
/// and score rows. One instance serves any number of calls with no
/// steady-state allocation.
#[derive(Clone, Debug, Default)]
pub struct KvReadScratch {
    pages: PageDecodeCache,
}

impl KvReadScratch {
    /// Empty scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One query attending a layer's first `t` cached positions: the unit of
/// work of the page walk ([`PageDecodeCache`]). A decode step is one
/// lane per stream with `t = layer.len()`; lane `j` of a prefill chunk
/// at `pos` passes `t = pos + j + 1` against a table that already holds
/// the whole chunk's rows, which is all causal masking takes — rows past
/// `t` never enter the lane's reduction (its sums end at `t`; they are not
/// multiplied by zero), so the lane is bit-identical to a solo decode at
/// that position, whichever lanes share its pages' products.
pub struct AttendLane<'a> {
    /// The layer whose cached rows are attended.
    pub layer: &'a LayerKv,
    /// Attended window, `1..=layer.len()`.
    pub t: usize,
    /// The query, `dim` wide.
    pub q: &'a [f32],
    /// The head mix, `dim` wide (overwritten).
    pub out: &'a mut [f32],
}

/// Below this many multiply-adds (`2 · t · dim` summed over the lanes,
/// the score and mix products together) a walk runs on the calling thread.
/// Splitting never changes a value: each job owns whole heads and
/// computes every output element with the same operation order.
const ATTN_PAR_MIN_MULADDS: usize = 16 * 1024;

/// The most lanes that read an Anda page in place in one product: one
/// register tile of the AVX-512 leg per head. A page that more lanes view
/// (a chunk span's), or that several products read, is decoded once into
/// the walk's tile instead: re-widened per tile or per product, a 64-lane
/// chunk span walked 5 % slower than over its decoded pages.
const IN_PLACE_VIEWERS: usize = 8;

/// One walk job's scratch: the page tile, the page-group sort buffer and
/// the lanes' blocks in the job's columns — queries, score rows (then
/// softmax weights) and head mixes — stacked lane after lane, head after
/// head, so that a run of consecutive lanes is rows at one stride.
#[derive(Clone, Debug, Default)]
struct WalkScratch {
    /// An Anda page as decoded ([`Page::tile`]): its V rows in a V pass,
    /// its keys position-minor in a K pass — the passes never overlap. A
    /// float page is its own tile, so a walk over float pages leaves it
    /// empty (and one over Anda pages read in place, sized). Page-sized,
    /// so it stays in L1; sized by the first Anda page met, so a warmed
    /// walk allocates nothing.
    tile: Vec<f32>,
    order: Vec<Viewer>,
    q: Vec<f32>,
    /// Lane `l`'s head `h` scores position `p` at `(l · heads + h) ·
    /// stride + p`, `stride` the longest window in whole pages.
    scores: Vec<f32>,
    mix: Vec<f32>,
    /// A V product's rows' classes ([`PageGroup::mix`]).
    classes: Vec<RowClass>,
    /// The lanes and window [`PageDecodeCache::reserve`] announced, which
    /// size `scores` once the first walk knows the page size.
    reserved: (usize, usize),
    /// Anda pages decoded by this job's K passes (monotonic).
    pages_decoded: u64,
    /// The walk's phase spans; job 0's are the ones read.
    phases: PhaseLedger,
}

/// One lane reaching the page index a pass is at. Sorted, the lanes of one
/// physical page are adjacent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Viewer {
    /// [`TablePage::identity`] of the page the lane's table holds there.
    page: usize,
    /// Rows of it inside the lane's window.
    rows: usize,
    /// The lane's index.
    lane: usize,
}

/// The one read path into the KV cache: a **page-major attention walk**
/// over any set of [`AttendLane`]s — a solo decode step, a decode batch,
/// chunk spans with causal lanes, or a mix.
///
/// Per layer the walk visits logical page index `i` ascending, twice
/// (a K pass, then a V pass after the per-lane softmax). At each index
/// the lanes are grouped by *physical* page — forks of one prefix lease
/// the same page at the same index — and each distinct Anda page is
/// **widened once per pass, in the register or into the tile**
/// (`Page::tile` chooses): on the AVX-512 leg at `M <= 8`, when one
/// product of at most `IN_PLACE_VIEWERS` lanes reads it, its words go
/// to the products, whose register tile widens its bit planes as it
/// loads them (each window once); otherwise
/// it decodes into a page-sized tile that stays in L1 while every (lane,
/// head) viewing it consumes it (its V rows row-major, its K rows
/// straight to position-minor). A float page's V rows and
/// position-minor K are their own tiles, read in place, an FP16 page's as
/// binary16 words that the products widen in the register. So the stored
/// operand stays narrow until it is in L1, a page shared by N streams is
/// widened once per pass however many attend through it, and of the
/// walk's buffers only the score rows scale with context × lanes.
///
/// A decoded page decodes its full fill, not one lane's window of it: the
/// lanes of a chunk span view different row counts of one page, and
/// per-row decode is independent, so the union costs nothing in
/// exactness.
///
/// Each pass **streams the page it reads next** while it works on this
/// one: every page is a heap allocation of its own, where the hardware
/// prefetchers stop, and a step's pages and weights overflow the L2, so
/// a tile would otherwise start by waiting on the L3. A group streams the
/// page its furthest-reaching viewer reads at the next index — a lone
/// decode lane its own next page, so `n` private lanes look `n` tiles
/// ahead — and the page where a window ends streams nothing. An Anda
/// decode streams the next page's encoded words line by line as it
/// decodes this page's (`anda_format::rowcodec::Words`; a job only its
/// own column groups), and so does a product over an Anda page's words
/// (`Strided::matmul_planes_into`'s `next`: the same groups of the next
/// page as it widens these); an FP16 page's products stream the next
/// page's same windows as they read these (`Strided::matmul_batched_into`'s
/// `next`). A prefetch changes no value and allocates nothing; the scalar
/// and NEON legs stream nothing.
///
/// The products run on the register tile every GEMM of a step runs on,
/// over the tiles where they lie — nothing in the walk packs. The lanes
/// viewing a page run one product per pass, every head of every viewer a
/// row, row `h` of a lane against head `h`'s own keys or values: the K
/// pass multiplies the queries by the position-minor keys, so the tile's
/// sixteen columns are sixteen *positions*; the V pass accumulates
/// `weights · values` onto the lanes' head mixes, a head's output columns
/// staying in registers across the page's rows. The walk holds the lanes'
/// queries, score rows and mixes stacked lane after lane, head after head,
/// so a run of viewers with consecutive lane indices is a block of rows at
/// one stride in each: a product takes such a run (in the V pass, of equal
/// rows), reads and writes the blocks in place, and its rows `h`, `h +
/// heads`, … read one window, so the tile gives each loaded `rhs` vector
/// to up to eight of them (`anda_tensor::Strided::matmul_batched_into`).
/// A lone viewer's heads are four independent products of one tile, as a
/// decode stream's always were.
///
/// Masking is structural: a lane's sums run over exactly the rows its
/// window reaches, never over a masked row times zero, and never over a
/// slot past a page's fill (a K product computes the scores of a page's
/// every slot, each its own sum, into the lane's score rows, which are
/// whole pages long; the softmax and the V product read them only up to
/// the lane's window).
///
/// Every output element keeps the per-head reference arithmetic — the
/// ascending-`c` `q·k` sum (vectorised across positions, never within a
/// sum), the max-shifted log-softmax (`ops::softmax_rows_in_place_with_leg`
/// on the walk's leg, every `exp` the `anda_fp::exp` port), the
/// position-ascending `p·v`
/// accumulation, multiply then add — so results are
/// `f32::to_bits`-identical to a scalar loop over
/// [`LayerKv::key_into`] / [`LayerKv::value_into`], on every SIMD leg and
/// at every thread count: parallel jobs split the *columns* (whole heads,
/// on Anda group boundaries), each decoding only its own column groups of
/// every page, so no decode work is duplicated either. (One bit is
/// representational: a score sums from `+0.0`, where `Iterator::sum`
/// starts at `-0.0`, so a score whose every product is `-0.0` is `+0.0`
/// here — which the max-shifted softmax maps to the same weight.) The V
/// pass runs each lane-head's weights for a page by their class
/// (`anda_tensor::RowClass`, `PageGroup::mix`) on the AVX2 and AVX-512
/// legs: a row whose every weight is zero is skipped on FP16 and Anda
/// pages, whose values are finite, since it would add only zeros to a mix
/// that is never `−0.0`; a row holding a weight below `2^-102` takes
/// those steps' products in `f64`, so no x86 assist on a subnormal
/// product slows it; both give the loop's bits, and an `f32` page is
/// multiplied by every weight.
#[derive(Clone, Debug, Default)]
pub struct PageDecodeCache {
    /// One scratch per parallel job; job 0 owns column 0 and the counts.
    jobs: Vec<WalkScratch>,
    /// The step-wide activation rows of the model's row-block step,
    /// carried here because this scratch already travels with every
    /// step.
    pub(crate) rows: StepRows,
    /// The walk's lane list between steps: empty, capacity kept.
    lanes: LaneBuf,
    /// The step's phase spans outside the walk (the walk's are job 0's).
    phases: PhaseLedger,
}

/// An empty `Vec<AttendLane>` kept for its capacity. Lanes borrow a
/// step's caches and buffers, so none outlives its walk.
#[derive(Default)]
struct LaneBuf(Vec<AttendLane<'static>>);

impl Clone for LaneBuf {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl core::fmt::Debug for LaneBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "LaneBuf(capacity {})", self.0.capacity())
    }
}

impl PageDecodeCache {
    /// An empty cache; the tiles grow to page size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the step-wide buffers for steps of up to `rows` token rows
    /// (decode streams plus chunk tokens) whose lanes attend up to
    /// `max_len` positions, so that after one warm-up step (the walk's
    /// tile and score rows are sized by the first page it meets) a step of
    /// [`crate::Model::decode_hidden_batch`] allocates nothing on the
    /// calling thread.
    pub fn reserve(&mut self, config: &ModelConfig, rows: usize, max_len: usize) {
        self.rows.reserve(config, rows);
        self.lanes.0.reserve(rows);
        if self.jobs.is_empty() {
            self.jobs.push(WalkScratch::default());
        }
        let job = &mut self.jobs[0];
        job.order.reserve(rows);
        job.q.reserve(rows * config.d_model);
        job.mix.reserve(rows * config.d_model);
        job.classes.reserve(rows * config.n_heads);
        job.reserved = (rows, max_len);
        // A solo step runs on the pool of one, which allocates when first
        // used: make it now.
        rayon_lite::serial();
    }

    /// Projection GEMMs the model's steps dispatched through this cache
    /// (monotonic): one per weight per layer per step, however many
    /// entries and spans a step carries.
    ///
    /// Not on the served path: `tests/grouped_batch.rs` pins the per-step
    /// GEMM count with `==`.
    pub fn gemm_dispatches(&self) -> u64 {
        self.rows.gemms
    }

    /// The lane list for one walk: empty, with the capacity earlier
    /// walks grew.
    pub(crate) fn take_lanes<'a>(&mut self) -> Vec<AttendLane<'a>> {
        std::mem::take(&mut self.lanes.0)
    }

    /// Hands a walk's lane list back. Emptied and re-collected the
    /// allocation survives (the standard library collects a `Vec`'s own
    /// iterator in place), while the borrows its lanes held end here.
    pub(crate) fn recycle_lanes(&mut self, mut lanes: Vec<AttendLane<'_>>) {
        lanes.clear();
        self.lanes.0 = lanes
            .into_iter()
            .map(|_| -> AttendLane<'static> { unreachable!("cleared above") })
            .collect();
    }

    /// Total Anda pages decoded through this cache (monotonic; a float
    /// page is read in place and not counted). Each distinct physical page
    /// counts once per walk — per layer of a step — regardless of how many
    /// lanes attend through it, of the K and V passes, and of the thread
    /// count.
    pub fn pages_decoded(&self) -> u64 {
        self.jobs.first().map_or(0, |job| job.pages_decoded)
    }

    /// A snapshot of the phase spans of every step run through this
    /// cache (monotonic; see [`crate::phase`]).
    pub fn phases(&self) -> PhaseLedger {
        match self.jobs.first() {
            Some(job) => self.phases.plus(&job.phases),
            None => self.phases,
        }
    }

    /// Charges a step phase outside the walk ([`PhaseLedger::lap`]): the
    /// model's projections, the scheduler's admission, LM head, sampling
    /// and retirement.
    #[inline]
    pub fn lap(&mut self, phase: Phase, since: Stamp, count: u64) -> Stamp {
        self.phases.lap(phase, since, count)
    }

    /// Attends every lane (see the type docs), fanning column ranges
    /// across `pool` when it has several threads and the work is large
    /// enough.
    ///
    /// # Panics
    ///
    /// Panics if a lane's layer is empty ([`LayerKv::assert_attendable`]),
    /// its window exceeds the layer, its buffers are not `dim` wide, the
    /// lanes' pages differ in policy or geometry, or `dim` is not divisible
    /// by `n_heads`.
    pub fn attend(&mut self, lanes: &mut [AttendLane<'_>], n_heads: usize, pool: &ThreadPool) {
        self.attend_with_leg(lanes, n_heads, pool, active_leg());
    }

    /// [`PageDecodeCache::attend`] with the walk's products (and the FP16
    /// widens in them) and Anda decodes on an explicit SIMD leg (oracle
    /// tests and benches).
    ///
    /// # Panics
    ///
    /// As [`PageDecodeCache::attend`].
    pub fn attend_with_leg(
        &mut self,
        lanes: &mut [AttendLane<'_>],
        n_heads: usize,
        pool: &ThreadPool,
        leg: SimdLeg,
    ) {
        let Some(first) = lanes.first() else { return };
        let d = first.q.len();
        assert_eq!(d % n_heads, 0, "head split");
        let dh = d / n_heads;
        let geometry = |layer: &LayerKv| {
            let page = layer.pages[0].page();
            (page.storage, page.positions, page.dim)
        };
        for lane in lanes.iter() {
            lane.layer.assert_attendable();
            assert_eq!(
                geometry(lane.layer),
                geometry(first.layer),
                "lanes of one walk must share a pool geometry"
            );
            assert_eq!(lane.layer.dim(), d, "query width");
            assert_eq!(lane.q.len(), d, "query width");
            assert_eq!(lane.out.len(), d, "output width");
            assert!(
                (1..=lane.layer.len()).contains(&lane.t),
                "attended window {} outside layer {}'s {} positions",
                lane.t,
                lane.layer.idx,
                lane.layer.len()
            );
        }
        // A job owns whole heads, and on Anda pages whole column groups.
        let unit = match first.layer.pages[0].page().storage {
            KvStorage::Fp32 | KvStorage::Fp16 => dh,
            KvStorage::Anda { .. } if dh.is_multiple_of(LANES) => dh,
            KvStorage::Anda { .. } if LANES.is_multiple_of(dh) => LANES,
            KvStorage::Anda { .. } => d,
        };
        let muladds: usize = lanes.iter().map(|lane| 2 * lane.t * d).sum();
        let jobs = match muladds >= ATTN_PAR_MIN_MULADDS {
            true => pool.threads().min(d / unit).max(1),
            false => 1,
        };
        if self.jobs.len() < jobs {
            self.jobs.resize_with(jobs, WalkScratch::default);
        }
        if jobs == 1 {
            return walk(lanes, 0..d, dh, &mut self.jobs[0], leg);
        }
        let bound = |j: usize| {
            if j == jobs {
                d
            } else {
                j * (d / unit) / jobs * unit
            }
        };
        let mut parts: Vec<Vec<AttendLane<'_>>> =
            (0..jobs).map(|_| Vec::with_capacity(lanes.len())).collect();
        for lane in lanes.iter_mut() {
            let mut out = &mut *lane.out;
            for (j, part) in parts.iter_mut().enumerate() {
                let cols = bound(j)..bound(j + 1);
                let (out_j, out_rest) = out.split_at_mut(cols.len());
                out = out_rest;
                part.push(AttendLane {
                    layer: lane.layer,
                    t: lane.t,
                    q: &lane.q[cols],
                    out: out_j,
                });
            }
        }
        pool.scope(|sc| {
            for ((j, part), scratch) in parts.iter_mut().enumerate().zip(&mut self.jobs) {
                let cols = bound(j)..bound(j + 1);
                sc.spawn(move || walk(part, cols, dh, scratch, leg));
            }
        });
    }
}

/// One job of the page walk: columns `cols` (whole heads of width `dh`)
/// of every lane, whose `q` / `out` are already narrowed to those columns.
/// See [`PageDecodeCache`] for the traversal and the exactness argument.
fn walk(
    lanes: &mut [AttendLane<'_>],
    cols: std::ops::Range<usize>,
    dh: usize,
    s: &mut WalkScratch,
    leg: SimdLeg,
) {
    let (pp, heads) = (lanes[0].layer.page_positions(), cols.len() / dh);
    // A K product writes a page's every slot into its lanes' score rows.
    let stride = lanes
        .iter()
        .map(|lane| lane.t)
        .max()
        .unwrap_or(0)
        .div_ceil(pp)
        * pp;
    if s.scores.len() < lanes.len() * heads * stride {
        let (rows, max_len) = s.reserved;
        let reserved = rows * heads * max_len.div_ceil(pp) * pp;
        s.scores
            .resize(reserved.max(lanes.len() * heads * stride), 0.0);
    }
    s.q.clear();
    lanes.iter().for_each(|lane| s.q.extend_from_slice(lane.q));
    let lap = visit_pages(lanes, false, &cols, dh, stride, s, leg, Stamp::now());
    let rows = &mut s.scores[..lanes.len() * heads * stride];
    ops::softmax_rows_in_place_with_leg(leg, rows, stride, |row| lanes[row / heads].t);
    let scores: usize = lanes
        .iter()
        .map(|lane| lane.layer.dim() / dh * lane.t)
        .sum();
    let lap = s.phases.lap(Phase::Softmax, lap, scores as u64);
    s.mix.clear();
    s.mix.resize(lanes.len() * cols.len(), 0.0);
    visit_pages(lanes, true, &cols, dh, stride, s, leg, lap);
    for (lane, mix) in lanes.iter_mut().zip(s.mix.chunks_exact(cols.len())) {
        lane.out.copy_from_slice(mix);
    }
}

/// One pass of [`walk`] — K (`want_v = false`, fills the score rows) or
/// V (accumulates the head mixes): page index ascending, the lanes
/// reaching each index grouped by physical page, one tile per group, one
/// product per run of its viewers with consecutive lane indices (in the V
/// pass, also with equal rows). Its tiles (each with the grouping before
/// it) and products are lapped into the pass's two phases from `lap` on,
/// counted for every job's columns; returns the last lap.
#[allow(clippy::too_many_arguments)]
fn visit_pages(
    lanes: &mut [AttendLane<'_>],
    want_v: bool,
    cols: &std::ops::Range<usize>,
    dh: usize,
    stride: usize,
    s: &mut WalkScratch,
    leg: SimdLeg,
    mut lap: Stamp,
) -> Stamp {
    let (pp, d) = (lanes[0].layer.page_positions(), lanes[0].layer.dim());
    let (tile_phase, product_phase) = match want_v {
        false => (Phase::KTile, Phase::KProduct),
        true => (Phase::VTile, Phase::VProduct),
    };
    let n_pages = lanes.iter().map(|lane| lane.t.div_ceil(pp)).max();
    for i in 0..n_pages.unwrap_or(0) {
        let base = i * pp;
        s.order.clear();
        s.order.extend(
            lanes
                .iter()
                .enumerate()
                .filter(|(_, lane)| lane.t > base)
                .map(|(idx, lane)| Viewer {
                    page: lane.layer.pages[i].identity(),
                    rows: (lane.t - base).min(pp),
                    lane: idx,
                }),
        );
        s.order.sort_unstable();
        for viewers in s.order.chunk_by(|a, b| a.page == b.page) {
            let page = lanes[viewers[0].lane].layer.pages[i].page();
            // Job 0 counts for all: every job sees the same pages.
            if !want_v && cols.start == 0 && matches!(page.data, PageData::Anda { .. }) {
                s.pages_decoded += 1;
                anda_format::metrics::note_rows_decoded(2 * page.used as u64);
            }
            // What the group streams: the page its furthest-reaching viewer
            // reads at the next index, if its window reaches one.
            let far = viewers.iter().max_by_key(|v| lanes[v.lane].t);
            let far = &lanes[far.expect("a group has a viewer").lane];
            let next = (far.t > base + pp).then(|| far.layer.pages[i + 1].page());
            let stacks =
                |a: &Viewer, b: &Viewer| b.lane == a.lane + 1 && (!want_v || a.rows == b.rows);
            let few =
                viewers.len() <= IN_PLACE_VIEWERS && viewers.chunk_by(stacks).nth(1).is_none();
            let (tile, ld) = page.tile(want_v, cols, dh, few, &mut s.tile, leg, next);
            let ready = match page.data {
                PageData::Anda { .. } => page.used as u64,
                _ => 0,
            };
            lap = s.phases.lap(tile_phase, lap, ready);
            let group = PageGroup {
                ld,
                base,
                heads: cols.len() / dh,
                dh,
                stride,
                leg,
            };
            for run in viewers.chunk_by(stacks) {
                match want_v {
                    false => group.score(tile, run, &s.q, &mut s.scores),
                    true => group.mix(tile, run, &s.scores, &mut s.classes, &mut s.mix),
                }
            }
            let muladds = viewers.iter().map(|v| v.rows * d).sum::<usize>();
            lap = s.phases.lap(product_phase, lap, muladds as u64);
        }
    }
    lap
}

/// One physical page of a pass and what its lanes' products need to know
/// besides its tile.
struct PageGroup {
    /// Row stride of the page's tile in the job's columns ([`Page::tile`]):
    /// V row-major, K position-minor.
    ld: usize,
    /// Position of the page's first row.
    base: usize,
    /// Heads in the job's columns, each `dh` wide.
    heads: usize,
    dh: usize,
    /// Length of a score row ([`WalkScratch::scores`]).
    stride: usize,
    leg: SimdLeg,
}

impl PageGroup {
    /// K pass of a `run` of viewers over the page's `keys`: every head of
    /// every viewer in one
    /// product — the queries' heads are the rows, row `h` of a lane
    /// against head `h`'s keys, so the register tile shares each key
    /// vector between the viewers (four heads × sixteen positions of
    /// independent sums for a lone one) — into the viewers' score rows,
    /// then scaled there up to each viewer's rows. The product spans the
    /// page's every slot (`ld` positions): on the page a lane's window
    /// ends in, whole strips read in place cost less than packing each
    /// head's ragged one, and what lands past the window, stale slots
    /// included, is never read. The product streams the page read next
    /// from the same column on ([`Page::tile`]).
    fn score(&self, keys: Tile, run: &[Viewer], q: &[f32], scores: &mut [f32]) {
        let (n, dh, heads, stride) = (self.ld, self.dh, self.heads, self.stride);
        let first = run[0].lane * heads;
        let scores = &mut scores[first * stride..];
        let q = Strided::new(&q[first * dh..], run.len() * heads, dh, dh);
        let (out, leg) = (&mut scores[self.base..], self.leg);
        match keys {
            Tile::F32((keys, next)) => {
                let keys = Strided::new(keys, dh, n, n);
                q.matmul_batched_into(keys, heads, dh * n, out, stride, false, next, &[], leg)
            }
            Tile::Decoded(keys) => {
                let keys = Strided::new(keys, dh, n, n);
                q.matmul_batched_into(keys, heads, dh * n, out, stride, false, None, &[], leg)
            }
            Tile::F16((keys, next)) => {
                let keys = Strided::new(keys, dh, n, n);
                q.matmul_batched_into(keys, heads, dh * n, out, stride, false, next, &[], leg)
            }
            Tile::Planes(keys, next) => {
                q.matmul_planes_into(keys, heads, out, stride, false, next, &[], leg)
            }
        }
        let scale = 1.0 / (dh as f32).sqrt();
        for (v, rows) in run.iter().zip(scores.chunks_mut(heads * stride)) {
            for row in rows.chunks_mut(stride) {
                row[self.base..][..v.rows]
                    .iter_mut()
                    .for_each(|x| *x *= scale);
            }
        }
    }

    /// V pass of a `run` of viewers of equal rows over the page's
    /// `values`: `mix += p · v` for every head of every viewer in one
    /// product — head `h`'s weights
    /// times head `h`'s `rows × dh` values, accumulated straight onto the
    /// mixes of the pages before, so every output element adds its `p · v`
    /// in position order. Streams the next page as [`PageGroup::score`]
    /// does.
    ///
    /// Each lane-head's weights for the page are classed first
    /// ([`RowClass::of`], into `classes`), and the AVX2 and AVX-512 tiles
    /// run each row by its class, with the same bits. A row whose every
    /// weight is zero is not multiplied: its steps would add a zero times
    /// a finite value — every tile but an `f32` page's holds finite values
    /// only ([`Tile`]) — to a mix that started at `+0.0` and so is never
    /// `−0.0`. A row with a weight below `2^-102`, whose product with a
    /// value can fall below `2^-126`, takes that step's products in `f64`,
    /// where no subnormal meets the vector unit. An `f32` page, which may
    /// hold `±∞`, is multiplied by every weight as it is.
    fn mix(
        &self,
        values: Tile,
        run: &[Viewer],
        scores: &[f32],
        classes: &mut Vec<RowClass>,
        mix: &mut [f32],
    ) {
        let (rows, dh, heads, stride) = (run[0].rows, self.dh, self.heads, self.stride);
        let first = run[0].lane * heads;
        let weights = &scores[first * stride + self.base..];
        let p = Strided::new(weights, run.len() * heads, rows, stride);
        classes.clear();
        if !matches!(values, Tile::F32(_)) {
            let row = |r: usize| RowClass::of(&weights[r * stride..][..rows]);
            classes.extend((0..run.len() * heads).map(row));
        }
        let (out, leg, classes) = (&mut mix[first * dh..], self.leg, &classes[..]);
        match values {
            Tile::F32((values, next)) => {
                let values = Strided::new(values, rows, dh, self.ld);
                p.matmul_batched_into(values, heads, dh, out, dh, true, next, classes, leg)
            }
            Tile::Decoded(values) => {
                let values = Strided::new(values, rows, dh, self.ld);
                p.matmul_batched_into(values, heads, dh, out, dh, true, None, classes, leg)
            }
            Tile::F16((values, next)) => {
                let values = Strided::new(values, rows, dh, self.ld);
                p.matmul_batched_into(values, heads, dh, out, dh, true, next, classes, leg)
            }
            Tile::Planes(values, next) => {
                p.matmul_planes_into(values, heads, out, dh, true, next, classes, leg)
            }
        }
    }
}

/// Per-layer paged KV cache for incremental decoding, owned by the caller
/// so a serving layer can keep one per request and multiplex many
/// requests over one model. Pages are leased from the cache's
/// [`PagePool`]; [`KvCache::reset`] recycles every page back to the pool
/// (a decode after `reset` is bit-identical to one on a fresh cache), and
/// dropping the cache does the same.
#[derive(Debug)]
pub struct KvCache {
    pool: PagePool,
    layers: Vec<LayerKv>,
}

impl KvCache {
    /// An empty cache over a private unbounded raw-`f32` pool with the
    /// default page size — the solo-decode exact-reference configuration
    /// (bit-compatible with the pre-paging cache).
    pub fn new(n_layers: usize) -> Self {
        Self::with_pool(n_layers, PagePool::new(KvPoolConfig::default()))
    }

    /// An empty cache leasing pages from `pool`.
    pub fn with_pool(n_layers: usize, pool: PagePool) -> Self {
        KvCache {
            pool,
            layers: (0..n_layers)
                .map(|idx| LayerKv {
                    idx,
                    ..LayerKv::default()
                })
                .collect(),
        }
    }

    /// Number of transformer layers the cache covers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of cached positions (every layer holds the same count on
    /// the decode path).
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, LayerKv::len)
    }

    /// `true` when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pool this cache leases pages from.
    pub fn pool(&self) -> &PagePool {
        &self.pool
    }

    /// The cache's storage policy.
    pub fn storage(&self) -> KvStorage {
        self.pool.config().storage
    }

    /// The per-layer store for block `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= n_layers`.
    pub fn layer(&self, layer: usize) -> &LayerKv {
        &self.layers[layer]
    }

    /// Appends one position's key/value rows to block `layer` (demo and
    /// test path; the decode engine appends through its own split
    /// borrow).
    ///
    /// # Panics
    ///
    /// Panics if `layer >= n_layers`, the widths mismatch, or the pool is
    /// exhausted.
    pub fn append_row(&mut self, layer: usize, key: &[f32], value: &[f32]) {
        self.layers[layer].push(&self.pool, key, value);
    }

    /// Split borrow for the decode loop: the pool handle plus every
    /// layer, mutably.
    pub(crate) fn split_mut(&mut self) -> (&PagePool, &mut [LayerKv]) {
        (&self.pool, &mut self.layers)
    }

    /// Recycles every page back to the pool while keeping the layer
    /// structure, so the cache can be handed to a new request. A decode
    /// after `reset` is bit-identical to one on a freshly built cache.
    /// Shared leases are dropped; their physical pages rejoin the free
    /// list only once the last co-owner releases them.
    pub fn reset(&mut self) {
        for layer in &mut self.layers {
            layer.release_into(&self.pool);
        }
    }

    /// Forks the first `positions` cached positions into a new cache on
    /// the same pool that *shares* every whole page they cover instead of
    /// copying it: the page tables are cloned ([`PagePool::fork_page`]
    /// leases per page), so N forks of a P-position prefix pin
    /// `pages(P)` physical pages, not `N·pages(P)`. Takes `&mut self`
    /// because covered pages this cache still owns exclusively are first
    /// sealed into shared leases ([`PagePool::share`]) — a no-op on
    /// repeat forks.
    ///
    /// A page is shared only when it is whole. When `positions` ends
    /// mid-page, the fork copies that page's first `positions % pp` rows
    /// bitwise into a page of its own as it is taken, and this cache
    /// keeps appending into its tail in place; both sides decode on
    /// bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `positions` exceeds the cached length, or if the pool is
    /// exhausted when a partial page must be copied.
    pub fn fork_prefix(&mut self, positions: usize) -> KvCache {
        let mut fork = self.pool.new_cache(self.n_layers());
        fork.splice_from(self, positions);
        fork
    }

    /// [`KvCache::fork_prefix`] assembled from two donors: positions
    /// `0..split` lease **this** cache's pages and `split..positions`
    /// lease `tail`'s, so the fork pins `tail`'s pages only past the
    /// split. `split` must be page-aligned (a page belongs to one donor).
    /// This is how a prefix tree keeps one physical copy of a shared
    /// path: a new leaf takes the path's pages from its parent and only
    /// its own edge from the stream that prefilled it.
    ///
    /// # Panics
    ///
    /// Panics if `split` is not page-aligned or exceeds this cache's
    /// length, if `positions` is outside `split..=tail.len()`, or if the
    /// caches lease from different pools or cover different layer
    /// counts.
    pub fn fork_spliced(&mut self, split: usize, tail: &mut KvCache, positions: usize) -> KvCache {
        assert!(
            Arc::ptr_eq(&self.pool.shared, &tail.pool.shared),
            "spliced fork of caches on different pools"
        );
        assert_eq!(self.n_layers(), tail.n_layers(), "layer count mismatch");
        let mut fork = self.fork_prefix(split);
        fork.splice_from(tail, positions);
        fork
    }

    /// Extends every layer of this cache to `positions` from `source`'s
    /// ([`LayerKv::splice_tail`]).
    fn splice_from(&mut self, source: &mut KvCache, positions: usize) {
        for (layer, from) in self.layers.iter_mut().zip(&mut source.layers) {
            layer.splice_tail(&self.pool, from, positions);
        }
    }

    /// Pages across all layers held as shared (refcounted) leases.
    pub fn shared_pages(&self) -> usize {
        self.layers.iter().map(LayerKv::shared_page_count).sum()
    }

    /// Reserves page-table capacity for contexts up to `max_positions`,
    /// so growing into them never reallocates the tables (pair with
    /// [`PagePool::preallocate`] for fully allocation-free decoding).
    pub fn reserve(&mut self, max_positions: usize) {
        let pages = self.pool.pages_for(max_positions);
        for layer in &mut self.layers {
            layer.pages.reserve(pages);
        }
    }

    /// Bits occupied by the cached rows across all layers.
    pub fn storage_bits(&self) -> usize {
        self.layers.iter().map(LayerKv::storage_bits).sum()
    }

    /// Compression ratio of the cached rows versus an FP16 cache of the
    /// same shape (1.0 when empty).
    pub fn compression_vs_fp16(&self) -> f64 {
        let fp16: usize = self.layers.iter().map(|l| 2 * l.len() * l.dim() * 16).sum();
        let actual = self.storage_bits();
        if actual == 0 {
            1.0
        } else {
            fp16 as f64 / actual as f64
        }
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_fp::saturate_to_f16;
    use anda_tensor::Rng;

    fn rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.normal_with(0.0, 1.0)).collect())
            .collect()
    }

    fn cache_with(storage: KvStorage, page_positions: usize) -> KvCache {
        PagePool::new(KvPoolConfig {
            storage,
            page_positions,
            max_pages: None,
        })
        .new_cache(1)
    }

    #[test]
    fn fp16_store_round_trips_to_fp16_precision() {
        let mut cache = cache_with(KvStorage::Fp16, 2);
        let k = rows(3, 64, 1);
        for r in &k {
            cache.append_row(0, r, r);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.layer(0).pages.len(), 2);
        for (i, r) in k.iter().enumerate() {
            for (a, &b) in cache.layer(0).key(i).iter().zip(r) {
                assert!((a - b).abs() < 1e-3);
                assert_eq!(a.to_bits(), saturate_to_f16(b).to_f32().to_bits());
            }
        }
    }

    /// The first `==` between the engine's bytes and the accounting: a
    /// page's row buffers hold exactly [`KvPoolConfig::page_bits`] (and so
    /// exactly what `row_bits`, pool budgets and `kv_peak_mib` count),
    /// except for one stated gap — an Anda group's 5-bit exponent sits in
    /// a `u16`, 11 bits more per group of each K and V row.
    #[test]
    fn a_page_holds_the_bits_its_policy_accounts() {
        let dim = 200; // four 64-lane Anda groups, the last one partial
        for storage in [
            KvStorage::Fp32,
            KvStorage::Fp16,
            KvStorage::Anda { mantissa_bits: 5 },
            KvStorage::Anda { mantissa_bits: 8 },
        ] {
            for page_positions in [1, 5, 16] {
                let cfg = KvPoolConfig {
                    storage,
                    page_positions,
                    max_pages: None,
                };
                let page = PagePool::new(cfg).try_alloc(dim).unwrap();
                let (held, gap) = match &page.data {
                    PageData::F32 { k, v } => (size_of_val(&k[..]) + size_of_val(&v[..]), 0),
                    PageData::F16 { k, v } => (size_of_val(&k[..]) + size_of_val(&v[..]), 0),
                    PageData::Anda { k, v } => {
                        (k.heap_bytes() + v.heap_bytes(), 2 * page_positions * 4 * 11)
                    }
                };
                assert_eq!(
                    8 * held,
                    cfg.page_bits(dim) + gap,
                    "{storage:?} page {page_positions}"
                );
            }
        }
    }

    #[test]
    fn anda_store_error_bounded_and_decreasing_in_m() {
        let data = rows(4, 128, 2);
        let err_at = |m: u32| {
            let mut cache = cache_with(KvStorage::Anda { mantissa_bits: m }, 4);
            for r in &data {
                cache.append_row(0, r, r);
            }
            let mut err = 0.0f64;
            for (i, r) in data.iter().enumerate() {
                for (a, &b) in cache.layer(0).key(i).iter().zip(r) {
                    err += f64::from((a - b).abs());
                }
            }
            err
        };
        assert!(err_at(11) < err_at(6));
        assert!(err_at(6) < err_at(3));
    }

    #[test]
    fn compression_ratio_matches_format_accounting() {
        let mut cache = cache_with(KvStorage::Anda { mantissa_bits: 5 }, 8);
        let data = rows(8, 64, 3);
        for r in &data {
            cache.append_row(0, r, r);
        }
        // 5-bit mantissa: ≈ 6.08 bits/element vs 16.
        let expect = 16.0 / (5.0 + 1.0 + 5.0 / 64.0);
        assert!((cache.compression_vs_fp16() - expect).abs() < 1e-9);

        // Stored bits per element, as the README's policy table quotes
        // them: sign + M mantissa bits, plus a 5-bit exponent per 64.
        for (storage, bits) in [
            (KvStorage::Fp16, 16.0),
            (KvStorage::Anda { mantissa_bits: 8 }, 9.078125),
            (KvStorage::Anda { mantissa_bits: 5 }, 6.078125),
        ] {
            let mut cache = cache_with(storage, 8);
            for r in &data {
                cache.append_row(0, r, r);
            }
            let elems = 2 * data.len() * 64;
            assert_eq!(cache.storage_bits() as f64 / elems as f64, bits);
        }
    }

    #[test]
    fn attention_with_wide_mantissa_matches_fp16() {
        let dim = 64;
        let data = rows(10, dim, 4);
        let q = &rows(1, dim, 5)[0];
        let mut exact = cache_with(KvStorage::Fp16, 4);
        let mut anda = cache_with(KvStorage::Anda { mantissa_bits: 16 }, 4);
        for r in &data {
            exact.append_row(0, r, r);
            anda.append_row(0, r, r);
        }
        let a = exact.layer(0).attend(q, 4);
        let b = anda.layer(0).attend(q, 4);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 2e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn attention_error_grows_as_m_shrinks() {
        let dim = 64;
        let data = rows(12, dim, 6);
        let q = &rows(1, dim, 7)[0];
        let mut exact = cache_with(KvStorage::Fp16, 4);
        for r in &data {
            exact.append_row(0, r, r);
        }
        let reference = exact.layer(0).attend(q, 4);
        let err_at = |m: u32| {
            let mut cache = cache_with(KvStorage::Anda { mantissa_bits: m }, 4);
            for r in &data {
                cache.append_row(0, r, r);
            }
            let out = cache.layer(0).attend(q, 4);
            reference
                .iter()
                .zip(&out)
                .map(|(a, b)| f64::from((a - b).abs()))
                .sum::<f64>()
        };
        assert!(err_at(12) < err_at(4));
    }

    #[test]
    fn an_fp16_walk_reads_its_pages_in_place() {
        // 200 positions of two 64-lane heads are enough work for two jobs,
        // each with its own page tile; an Anda walk of the same rows fills
        // every job's, an FP16 one — warm, on every leg — none.
        let (dim, heads) = (128, 2);
        let data = rows(200, dim, 3);
        let q = &rows(1, dim, 4)[0];
        let pool = ThreadPool::new(2);
        let mut out = vec![0.0; dim];
        for (storage, decodes) in [
            (KvStorage::Anda { mantissa_bits: 7 }, true),
            (KvStorage::Fp16, false),
        ] {
            let mut cache = cache_with(storage, 16);
            for r in &data {
                cache.append_row(0, r, r);
            }
            let mut walk = PageDecodeCache::new();
            for leg in anda_fp::simd::available_legs() {
                for _ in 0..2 {
                    let lane = AttendLane {
                        layer: cache.layer(0),
                        t: data.len(),
                        q,
                        out: &mut out,
                    };
                    walk.attend_with_leg(&mut [lane], heads, &pool, leg);
                }
                assert_eq!(walk.jobs.len(), 2);
                for job in &walk.jobs {
                    assert_eq!(!job.tile.is_empty(), decodes, "{storage:?} {}", leg.name());
                }
            }
        }
    }

    #[test]
    fn attend_into_reuses_scratch_and_page_size_is_value_invariant() {
        let dim = 64;
        let data = rows(9, dim, 8);
        let q = &rows(1, dim, 9)[0];
        let mut scratch = KvReadScratch::new();
        let mut out = vec![0.0; dim];
        let mut reference: Option<Vec<u32>> = None;
        for pp in [1usize, 4, 16] {
            let mut cache = cache_with(KvStorage::Anda { mantissa_bits: 7 }, pp);
            for r in &data {
                cache.append_row(0, r, r);
            }
            cache.layer(0).attend_into(q, 4, &mut out, &mut scratch);
            let bits: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(&bits, r, "page size {pp} changed attention values"),
            }
        }
    }

    #[test]
    fn reset_recycles_pages_and_reuse_precedes_growth() {
        let pool = PagePool::new(KvPoolConfig {
            storage: KvStorage::Fp16,
            page_positions: 2,
            max_pages: Some(8),
        });
        let mut cache = pool.new_cache(2);
        let data = rows(5, 32, 10);
        for r in &data {
            cache.append_row(0, r, r);
            cache.append_row(1, r, r);
        }
        // 5 positions over 2-position pages → 3 pages per layer.
        assert_eq!(pool.pages_in_use(), 6);
        let created = pool.pages_created();
        cache.reset();
        assert_eq!(cache.len(), 0);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(pool.pages_free(), created);
        // Refill: the free list feeds every lease, creation stays flat.
        for r in &data {
            cache.append_row(0, r, r);
            cache.append_row(1, r, r);
        }
        assert_eq!(pool.pages_created(), created);
        drop(cache);
        assert_eq!(pool.pages_in_use(), 0);
    }

    #[test]
    fn bounded_pool_stops_at_capacity() {
        let pool = PagePool::new(KvPoolConfig {
            storage: KvStorage::Fp16,
            page_positions: 1,
            max_pages: Some(3),
        });
        let a = pool.try_alloc(16).unwrap();
        let b = pool.try_alloc(16).unwrap();
        let c = pool.try_alloc(16).unwrap();
        assert!(pool.try_alloc(16).is_none(), "capacity must bind");
        pool.release(b);
        assert!(pool.try_alloc(16).is_some(), "freed pages come back");
        drop((a, c));
        assert_eq!(pool.pages_created(), 3);
    }

    #[test]
    fn memory_budget_holds_more_anda_pages_than_fp16() {
        let dim = 128;
        let budget = 4 * 1024 * 1024; // bits
        let fp16 = KvPoolConfig::unbounded(KvStorage::Fp16);
        let anda = KvPoolConfig::unbounded(KvStorage::Anda { mantissa_bits: 5 });
        let (f, a) = (budget / fp16.page_bits(dim), budget / anda.page_bits(dim));
        assert!(
            a as f64 > f as f64 * 2.5,
            "anda pages {a} vs fp16 pages {f}"
        );
    }

    #[test]
    #[should_panic(expected = "layer 0 has no cached K/V positions")]
    fn empty_attend_panics() {
        let cache = cache_with(KvStorage::Fp16, 4);
        let _ = cache.layer(0).attend(&vec![0.0; 64], 4);
    }

    #[test]
    #[should_panic(expected = "layer 2 has no cached K/V positions")]
    fn empty_attend_names_the_layer() {
        let cache = PagePool::new(KvPoolConfig::default()).new_cache(3);
        let _ = cache.layer(2).attend(&vec![0.0; 64], 4);
    }

    #[test]
    #[should_panic(expected = "layer 1 has no cached K/V positions")]
    fn grouped_staging_of_empty_layer_panics() {
        let cache = PagePool::new(KvPoolConfig::unbounded(KvStorage::Anda {
            mantissa_bits: 6,
        }))
        .new_cache(2);
        let lane = AttendLane {
            layer: cache.layer(1),
            t: 1,
            q: &[0.0; 64],
            out: &mut [0.0; 64],
        };
        PageDecodeCache::new().attend(&mut [lane], 4, rayon_lite::serial());
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn invalid_mantissa_panics() {
        let _ = PagePool::new(KvPoolConfig::unbounded(KvStorage::Anda {
            mantissa_bits: 0,
        }));
    }

    #[test]
    #[should_panic(expected = "one row width")]
    fn mixed_row_widths_panic() {
        let pool = PagePool::new(KvPoolConfig::default());
        let _a = pool.try_alloc(64);
        let _b = pool.try_alloc(128);
    }

    fn key_bits(cache: &KvCache, upto: usize) -> Vec<u32> {
        let mut bits = Vec::new();
        for i in 0..upto {
            bits.extend(cache.layer(0).key(i).iter().map(|x| x.to_bits()));
        }
        for i in 0..upto {
            bits.extend(cache.layer(0).value(i).iter().map(|x| x.to_bits()));
        }
        bits
    }

    /// Forking a prefix clones page tables only: the pool's in-use count
    /// stays flat, the shared pages read back bit-identically from both
    /// sides, and resetting the fork keeps the donor's pages alive.
    #[test]
    fn fork_prefix_shares_pages_without_copying() {
        for storage in [KvStorage::Fp16, KvStorage::Anda { mantissa_bits: 6 }] {
            let pool = PagePool::new(KvPoolConfig {
                storage,
                page_positions: 4,
                max_pages: None,
            });
            let mut parent = pool.new_cache(1);
            let data = rows(10, 64, 21);
            for r in &data {
                parent.append_row(0, r, r);
            }
            let in_use = pool.pages_in_use();
            let parent_bits = key_bits(&parent, 8);

            let mut child = parent.fork_prefix(8);
            assert_eq!(child.len(), 8);
            assert_eq!(pool.pages_in_use(), in_use, "fork must not lease pages");
            assert_eq!(child.shared_pages(), 2, "both covered pages shared");
            assert_eq!(parent.shared_pages(), 2, "donor pages sealed in place");
            assert_eq!(key_bits(&child, 8), parent_bits, "shared reads are exact");

            child.reset();
            assert_eq!(
                pool.pages_in_use(),
                in_use,
                "donor leases keep the shared pages alive"
            );
            assert_eq!(key_bits(&parent, 8), parent_bits, "donor unaffected");
        }
    }

    /// A spliced fork reads like a plain fork of the tail donor but pins
    /// the tail donor's whole pages only past the split, and copies a
    /// partial last page: dropping the tail donor frees its own copy of
    /// the prefix.
    #[test]
    fn spliced_fork_leases_each_range_from_its_own_donor() {
        let pool = PagePool::new(KvPoolConfig {
            storage: KvStorage::Anda { mantissa_bits: 6 },
            page_positions: 4,
            max_pages: None,
        });
        let data = rows(11, 64, 23);
        let mut path = pool.new_cache(1);
        let mut tail = pool.new_cache(1);
        for (i, r) in data.iter().enumerate() {
            if i < 8 {
                path.append_row(0, r, r);
            }
            tail.append_row(0, r, r); // an independent copy of 0..8, then 8..11
        }
        assert_eq!(pool.pages_in_use(), 2 + 3);
        let fork = path.fork_spliced(8, &mut tail, 11);
        assert_eq!(fork.len(), 11);
        assert_eq!(
            pool.pages_in_use(),
            6,
            "a splice leases whole pages and copies the partial one"
        );
        assert_eq!(key_bits(&fork, 11), key_bits(&tail, 11));
        drop(tail);
        assert_eq!(
            pool.pages_in_use(),
            3,
            "the tail donor's prefix copy is gone"
        );
        drop(path);
        assert_eq!(pool.pages_in_use(), 3, "the fork holds the path's pages");
        drop(fork);
        assert_eq!(pool.pages_in_use(), 0);
    }

    /// A fork ending mid-page takes a private copy of that page as it is
    /// forked: its rows are a bitwise copy of the donor's, either side
    /// appends into its own tail without leasing, the donor's rows never
    /// change, and the two caches diverge only past the fork point.
    #[test]
    fn a_mid_page_fork_copies_its_tail_and_isolates_streams() {
        for storage in [
            KvStorage::Fp32,
            KvStorage::Fp16,
            KvStorage::Anda { mantissa_bits: 6 },
        ] {
            let pool = PagePool::new(KvPoolConfig {
                storage,
                page_positions: 4,
                max_pages: None,
            });
            let mut parent = pool.new_cache(1);
            let data = rows(6, 64, 22); // 6 positions: page + partial tail
            for r in &data {
                parent.append_row(0, r, r);
            }
            let parent_bits = key_bits(&parent, 6);

            let in_use = pool.pages_in_use();
            let mut child = parent.fork_prefix(6);
            assert_eq!(
                pool.pages_in_use(),
                in_use + 1,
                "the fork copies its partial tail page"
            );
            assert_eq!(child.shared_pages(), 1, "only the whole page is shared");
            assert_eq!(
                key_bits(&child, 6),
                parent_bits,
                "{storage:?}: the copied page must be a bitwise copy of its parent"
            );
            let fresh = rows(2, 64, 23);
            child.append_row(0, &fresh[0], &fresh[0]);
            parent.append_row(0, &fresh[1], &fresh[1]);
            assert_eq!(
                pool.pages_in_use(),
                in_use + 1,
                "both sides append into their own tails"
            );
            assert_eq!(key_bits(&parent, 6), parent_bits, "donor prefix unchanged");
            assert_ne!(
                child.layer(0).key(6),
                parent.layer(0).key(6),
                "past the fork point the streams are private"
            );
        }
    }

    /// A fork truncated mid-page holds a copy of only its prefix of the
    /// donor's tail page: reads, attention and storage accounting see
    /// its length, never the donor's rows past it.
    #[test]
    fn truncated_fork_reads_only_its_prefix() {
        let pool = PagePool::new(KvPoolConfig {
            storage: KvStorage::Anda { mantissa_bits: 8 },
            page_positions: 4,
            max_pages: None,
        });
        let mut parent = pool.new_cache(1);
        let data = rows(7, 64, 26);
        for r in &data {
            parent.append_row(0, r, r);
        }
        let mut child = parent.fork_prefix(5); // page 0 shared, 1 row of page 1 copied
        assert_eq!(child.len(), 5);
        assert_eq!(child.layer(0).storage_bits(), {
            let full = parent.layer(0).storage_bits();
            full / 7 * 5
        });
        // Attention over the fork must see exactly 5 positions.
        let q = &rows(1, 64, 27)[0];
        let mut private = pool.new_cache(1);
        for r in &data[..5] {
            private.append_row(0, r, r);
        }
        let a = child.layer(0).attend(q, 4);
        let b = private.layer(0).attend(q, 4);
        let (abits, bbits): (Vec<u32>, Vec<u32>) = (
            a.iter().map(|x| x.to_bits()).collect(),
            b.iter().map(|x| x.to_bits()).collect(),
        );
        assert_eq!(abits, bbits, "the copied tail must not leak donor rows");
        // Appending at position 5 lands in the copied tail and continues exactly.
        child.append_row(0, &data[5], &data[5]);
        private.append_row(0, &data[5], &data[5]);
        assert_eq!(key_bits(&child, 6), key_bits(&private, 6));
    }

    #[test]
    #[should_panic(expected = "fork of positions 0..9")]
    fn fork_past_len_panics() {
        let mut cache = cache_with(KvStorage::Fp16, 4);
        let data = rows(3, 32, 28);
        for r in &data {
            cache.append_row(0, r, r);
        }
        let _ = cache.fork_prefix(9);
    }

    #[test]
    #[should_panic(expected = "foreign pool")]
    fn foreign_pool_fork_page_panics() {
        let pool_a = PagePool::new(KvPoolConfig::default());
        let pool_b = PagePool::new(KvPoolConfig::default());
        let page = pool_a.try_alloc(64).unwrap();
        let shared = pool_a.share(page);
        let _ = pool_b.fork_page(&shared);
    }

    /// Two pools of one geometry pass every page check, so the splice
    /// names the pools: sealed under the wrong one, the tail donor's
    /// pages would panic as foreign when they come back.
    #[test]
    #[should_panic(expected = "different pools")]
    fn foreign_pool_spliced_fork_panics() {
        let (mut path, mut tail) = (
            cache_with(KvStorage::Fp16, 4),
            cache_with(KvStorage::Fp16, 4),
        );
        for r in &rows(8, 32, 29) {
            path.append_row(0, r, r);
            tail.append_row(0, r, r);
        }
        let _ = path.fork_spliced(4, &mut tail, 8);
    }
}
