//! The paged, optionally Anda-compressed KV cache (paper §VI).
//!
//! The paper keeps the KV cache in FP16 (§V-A) but points out that Anda
//! "could synergize with KV cache optimizations to significantly accelerate
//! long-context LLM inference". This module is that extension, built the
//! way a serving system needs it: a [`PagePool`] block allocator owns
//! fixed-size pages (`page_positions` positions × `dim` lanes of K *and* V
//! rows), every [`KvCache`] is a per-layer page table over pages leased
//! from a pool, and the storage policy ([`KvStorage`]) decides whether a
//! page holds raw `f32` rows (the exact-reference policy), FP16-rounded
//! rows (the paper's §V-A baseline) — both read in place — or Anda
//! bit-plane rows (decoded on read via `anda_format::rowcodec`, with zero
//! per-token allocation). The FP16 append and the Anda encode/decode
//! all run through the SIMD-dispatched kernels in `anda_fp::simd`
//! (scalar-oracle bit-exact on every leg).
//!
//! # One read path
//!
//! Attention reads the cache through a single routine, the page walk of
//! [`PageDecodeCache::attend`]: solo decode, decode batches, prefill
//! chunk spans and the full-sequence `Model::forward` (one span, every
//! row a lane) all describe their work as [`AttendLane`]s (a query, the
//! window it attends, where the result goes). The walk goes page by
//! page, decodes each distinct physical Anda page once into a page-sized
//! tile that stays in L1 while every lane viewing it consumes it, and
//! reads float pages where they lie — the compressed operand stays
//! compressed until it is in L1, and no decoded copy of a context is
//! ever materialised. What consumes a tile is the GEMM register tile
//! (`anda_tensor::Strided`): per head, the lanes viewing a page are the
//! rows of one `q · Kᵀ` and one `p · V` product against it.
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
//! # Prefix sharing and copy-on-write
//!
//! Streams that open with the same prompt prefix (a system prompt, a
//! few-shot header) cache bit-identical K/V rows, so full pages can be
//! *shared* instead of duplicated. [`KvCache::fork_prefix`] clones only
//! the page table: every page covering the prefix becomes a refcounted
//! [`SharedPage`] lease ([`PagePool::fork_page`] /
//! [`PagePool::release_page`]), counted once by the pool's ledger no
//! matter how many caches reference it. Shared pages are immutable; the
//! first append a forked stream makes into a shared (partial) tail page
//! triggers copy-on-write ([`PagePool::privatize`]) — the encoded rows
//! are copied *bitwise* into a freshly leased private page before the
//! mutation, so every stream's decode stays bit-exact while whole prefix
//! pages stay deduplicated. A shared page returns to the free list
//! exactly when its last lease drops; a sole-owner privatize reclaims
//! the page without copying. The resulting admission headroom — N
//! streams over a P-position prefix pin `pages(P) + N·pages(private)`
//! pages, not `N·pages(P + private)` — is pinned by `anda-serve`'s
//! `shared_prefix.rs::admission_charges_only_unshared_pages`.

use std::sync::{Arc, Mutex};

use anda_format::rowcodec;
use anda_format::AndaConfig;
use anda_fp::batch::saturate_f16_widen_slice;
use anda_fp::simd::{active_leg, SimdLeg};
use anda_tensor::Strided;
use rayon_lite::ThreadPool;

use crate::config::ModelConfig;
use crate::model::StepRows;

/// Storage policy for cached K/V rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvStorage {
    /// Raw `f32` rows, read in place — the exact-reference policy (what
    /// solo `generate` has always cached) and the accounting baseline
    /// the compressed policies are measured against.
    Fp32,
    /// FP16-rounded rows (the paper's §V-A baseline), read in place.
    Fp16,
    /// Anda-format rows with the given mantissa length, decoded on read.
    Anda {
        /// Mantissa length (1..=16).
        mantissa_bits: u32,
    },
}

impl KvStorage {
    /// The Anda conversion config for this policy (`None` for the
    /// in-place float policies).
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

    /// `true` when rows are stored as plain `f32` words the attention
    /// kernel can read in place (no decode step).
    pub fn reads_in_place(self) -> bool {
        matches!(self, KvStorage::Fp32 | KvStorage::Fp16)
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

    /// Caps the pool at the number of whole pages that fit in a memory
    /// budget of `budget_bits` for `dim`-wide rows — the knob that makes
    /// FP16 and Anda pools comparable at equal memory. A compressed
    /// policy yields proportionally more pages from the same budget.
    pub fn with_memory_budget(mut self, budget_bits: usize, dim: usize) -> Self {
        self.max_pages = Some(budget_bits / self.page_bits(dim));
        self
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

#[derive(Debug)]
enum PageData {
    /// `positions × dim` plain `f32` words (raw for [`KvStorage::Fp32`],
    /// rounded then widened for [`KvStorage::Fp16`]).
    Float { k: Vec<f32>, v: Vec<f32> },
    Anda {
        cfg: AndaConfig,
        k: EncodedRows,
        v: EncodedRows,
    },
}

/// Flat bit-plane buffers for `positions` encoded rows (row-major:
/// row `r`'s groups start at `r · groups_per_row`).
#[derive(Debug)]
struct EncodedRows {
    signs: Vec<u64>,
    exps: Vec<u16>,
    planes: Vec<u64>,
}

impl EncodedRows {
    fn new(positions: usize, dim: usize, cfg: AndaConfig) -> Self {
        let g = rowcodec::groups_per_row(dim, cfg);
        let m = cfg.mantissa_bits() as usize;
        EncodedRows {
            signs: vec![0; positions * g],
            exps: vec![0; positions * g],
            planes: vec![0; positions * g * m],
        }
    }

    fn encode(&mut self, row: usize, values: &[f32], cfg: AndaConfig) {
        let g = rowcodec::groups_per_row(values.len(), cfg);
        let m = cfg.mantissa_bits() as usize;
        rowcodec::encode_row_into(
            values,
            cfg,
            &mut self.signs[row * g..(row + 1) * g],
            &mut self.exps[row * g..(row + 1) * g],
            &mut self.planes[row * g * m..(row + 1) * g * m],
        );
    }

    fn decode(&self, row: usize, cfg: AndaConfig, out: &mut [f32]) {
        let g = rowcodec::groups_per_row(out.len(), cfg);
        let m = cfg.mantissa_bits() as usize;
        rowcodec::decode_row_into(
            cfg,
            &self.signs[row * g..(row + 1) * g],
            &self.exps[row * g..(row + 1) * g],
            &self.planes[row * g * m..(row + 1) * g * m],
            out,
        );
    }
}

impl Page {
    fn new(cfg: &KvPoolConfig, dim: usize) -> Self {
        let positions = cfg.page_positions;
        let data = match cfg.storage.anda_config() {
            None => PageData::Float {
                k: vec![0.0; positions * dim],
                v: vec![0.0; positions * dim],
            },
            Some(anda) => PageData::Anda {
                cfg: anda,
                k: EncodedRows::new(positions, dim, anda),
                v: EncodedRows::new(positions, dim, anda),
            },
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
    /// policy without allocating.
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
        match &mut self.data {
            PageData::Float { k, v } => {
                let kd = &mut k[slot * self.dim..(slot + 1) * self.dim];
                let vd = &mut v[slot * self.dim..(slot + 1) * self.dim];
                match self.storage {
                    KvStorage::Fp32 => {
                        kd.copy_from_slice(key);
                        vd.copy_from_slice(value);
                    }
                    KvStorage::Fp16 => {
                        // Batch round-trip through the SIMD-dispatched
                        // conversion kernels (bit-identical to the
                        // element-wise `saturate_to_f16(x).to_f32()`).
                        saturate_f16_widen_slice(key, kd);
                        saturate_f16_widen_slice(value, vd);
                    }
                    KvStorage::Anda { .. } => {
                        unreachable!("float page under an Anda policy")
                    }
                }
            }
            PageData::Anda { cfg, k, v } => {
                k.encode(slot, key, *cfg);
                v.encode(slot, value, *cfg);
            }
        }
        self.used += 1;
    }

    /// Copies the first `rows` positions of `src` into this page as a
    /// *bitwise* copy of the encoded representation (float words or Anda
    /// sign/exponent/plane buffers) — the copy-on-write primitive. No
    /// decode/re-encode round trip happens, so the copied rows read back
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
        match (&mut self.data, &src.data) {
            (PageData::Float { k, v }, PageData::Float { k: sk, v: sv }) => {
                let n = rows * self.dim;
                k[..n].copy_from_slice(&sk[..n]);
                v[..n].copy_from_slice(&sv[..n]);
            }
            (PageData::Anda { cfg, k, v }, PageData::Anda { k: sk, v: sv, .. }) => {
                let g = rowcodec::groups_per_row(self.dim, *cfg);
                let m = cfg.mantissa_bits() as usize;
                for (dst, from) in [(&mut *k, sk), (&mut *v, sv)] {
                    dst.signs[..rows * g].copy_from_slice(&from.signs[..rows * g]);
                    dst.exps[..rows * g].copy_from_slice(&from.exps[..rows * g]);
                    dst.planes[..rows * g * m].copy_from_slice(&from.planes[..rows * g * m]);
                }
            }
            _ => unreachable!("policy equality asserted above"),
        }
        self.used = rows;
    }

    /// The page's filled K (or V) rows as a row-major tile of stride
    /// `dim`, valid in columns `cols`. A float page is its own tile, read
    /// in place; an Anda page decodes those columns of its rows into
    /// `scratch` (page-sized, so it stays in L1) — the page walk's one
    /// decode per page and pass. `cols` must start on a group boundary.
    fn tile<'a>(
        &'a self,
        want_v: bool,
        cols: &std::ops::Range<usize>,
        scratch: &'a mut Vec<f32>,
    ) -> &'a [f32] {
        let filled = self.used * self.dim;
        match &self.data {
            PageData::Float { k, v } => &(if want_v { v } else { k })[..filled],
            PageData::Anda { cfg, k, v } => {
                let rows = if want_v { v } else { k };
                let gs = cfg.group_size();
                scratch.resize(self.positions * self.dim, 0.0);
                rowcodec::decode_rows_into(
                    *cfg,
                    &rows.signs,
                    &rows.exps,
                    &rows.planes,
                    cols.start / gs..cols.end.div_ceil(gs),
                    self.dim,
                    &mut scratch[..filled],
                );
                &scratch[..filled]
            }
        }
    }

    /// Decodes row `slot`'s K (or V) into `out` without allocating.
    fn row_into(&self, slot: usize, want_v: bool, out: &mut [f32]) {
        assert!(slot < self.used, "row {slot} not written");
        assert_eq!(out.len(), self.dim, "row width");
        match &self.data {
            PageData::Float { k, v } => {
                let buf = if want_v { v } else { k };
                out.copy_from_slice(&buf[slot * self.dim..(slot + 1) * self.dim]);
            }
            PageData::Anda { cfg, k, v } => {
                let buf = if want_v { v } else { k };
                buf.decode(slot, *cfg, out);
            }
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
    /// Held across a whole [`PagePool::privatize`] (always taken before
    /// `state`), so co-owners of one page privatize one after another.
    cow: Mutex<()>,
}

impl PoolShared {
    /// Returns a leased page to the free list (cleared, buffers kept) —
    /// the single recycling point behind [`PagePool::release`],
    /// [`PagePool::release_page`] and the last-lease drop of a
    /// [`SharedPage`].
    fn recycle(&self, mut page: Page) {
        assert_eq!(
            page.positions, self.cfg.page_positions,
            "page returned to a foreign pool"
        );
        assert_eq!(
            page.storage, self.cfg.storage,
            "page returned to a foreign pool"
        );
        let mut st = self.state.lock().expect("a pool lock holder panicked");
        assert_eq!(page.dim, st.dim, "page returned to a foreign pool");
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
/// Shared pages are immutable. A cache that must append into one first
/// privatizes it ([`PagePool::privatize`]): a bitwise copy-on-write into
/// a fresh page — or a zero-copy reclaim when the handle turns out to be
/// the last one.
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
                cow: Mutex::new(()),
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
        self.lock().created
    }

    /// Recycled pages currently waiting on the free list.
    pub fn pages_free(&self) -> usize {
        self.lock().free.len()
    }

    /// Pages currently leased to caches.
    pub fn pages_in_use(&self) -> usize {
        let st = self.lock();
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
        assert!(dim > 0, "row width must be positive");
        let mut st = self.lock();
        if st.dim == 0 {
            st.dim = dim;
        }
        assert_eq!(st.dim, dim, "page pool is bound to one row width");
        if let Some(page) = st.free.pop() {
            return Some(page);
        }
        if self
            .shared
            .cfg
            .max_pages
            .is_some_and(|cap| st.created >= cap)
        {
            return None;
        }
        st.created += 1;
        Some(Page::new(&self.shared.cfg, dim))
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
    /// — the sealing step [`KvCache::fork_prefix`] applies to every page
    /// covering the forked prefix. The page stays on the pool's in-use
    /// ledger (it is leased, just co-owned from now on).
    ///
    /// # Panics
    ///
    /// Panics if the page's geometry does not match this pool.
    pub fn share(&self, page: Page) -> SharedPage {
        assert_eq!(
            page.positions, self.shared.cfg.page_positions,
            "page shared into a foreign pool"
        );
        assert_eq!(
            page.storage, self.shared.cfg.storage,
            "page shared into a foreign pool"
        );
        assert_eq!(page.dim, self.lock().dim, "page shared into a foreign pool");
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

    /// Copy-on-write: turns a shared lease into an exclusively owned page
    /// holding the first `rows` positions, bit-identical to the source.
    /// When the handle is the sole lease the page is reclaimed in place
    /// (no copy, no allocation); otherwise a fresh page is leased and the
    /// encoded rows are copied bitwise, and the shared lease is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `page` is from a different pool, `rows` exceeds its
    /// filled positions, or the pool is exhausted when a copy is needed
    /// (admission must reserve the worst-case private pages, the CoW tail
    /// included).
    pub fn privatize(&self, page: SharedPage, rows: usize) -> Page {
        assert!(page.same_pool(self), "privatize of a foreign pool's page");
        // Two streams appending into the same shared tail in one step
        // must not both see the other's lease and both copy: the pool
        // would transiently hold one page more than admission reserved.
        // Serialized, the second one finds itself the sole lease.
        let _one_at_a_time = self.shared.cow.lock().expect("a privatizer panicked");
        match Arc::try_unwrap(page.inner) {
            Ok(mut sole) => {
                let mut page = sole.page.take().expect("present until the last drop");
                assert!(rows <= page.used, "privatize past the filled rows");
                page.used = rows;
                page
            }
            Err(inner) => {
                let shared = SharedPage { inner };
                let mut fresh = self
                    .try_alloc(shared.page().dim)
                    .expect("KV page pool exhausted (admission must reserve worst-case pages)");
                fresh.copy_rows_from(shared.page(), rows);
                fresh
            }
        }
    }

    /// Creates up to `n` pages onto the free list (bounded by capacity),
    /// so subsequent leases allocate nothing — the warm-up knob behind
    /// the zero-allocation decode guarantee.
    pub fn preallocate(&self, n: usize, dim: usize) {
        assert!(dim > 0, "row width must be positive");
        let mut st = self.lock();
        if st.dim == 0 {
            st.dim = dim;
        }
        assert_eq!(st.dim, dim, "page pool is bound to one row width");
        for _ in 0..n {
            if self
                .shared
                .cfg
                .max_pages
                .is_some_and(|cap| st.created >= cap)
            {
                break;
            }
            st.created += 1;
            let page = Page::new(&self.shared.cfg, dim);
            st.free.push(page);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.shared
            .state
            .lock()
            .expect("a pool lock holder panicked")
    }
}

/// One slot of a layer's page table: a page either exclusively owned by
/// this cache (mutable — the only kind plain decoding creates) or a
/// refcounted [`SharedPage`] lease of a prefix page (immutable — a write
/// must privatize first).
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

    /// Moment-long placeholder swapped in while an `Owned` page is moved
    /// out for sealing; never observable (replaced in the same call) and
    /// allocation-free (`Vec::new` holds no buffer).
    fn placeholder() -> Self {
        TablePage::Owned(Page {
            dim: 0,
            positions: 0,
            used: 0,
            storage: KvStorage::Fp32,
            data: PageData::Float {
                k: Vec::new(),
                v: Vec::new(),
            },
        })
    }
}

/// One layer's cached key/value rows (post-RoPE for LLaMA-family models):
/// a page table over pool-leased pages in position order.
///
/// Entries are table pages: exclusively owned pages plus refcounted
/// [`SharedPage`] leases installed by [`KvCache::fork_prefix`]. `len` is
/// the *logical* position count; a shared tail page may physically hold
/// more rows than this table views (the donor cached past the fork
/// point), so every read path derives its row count from `len`, never
/// from the page's own fill.
#[derive(Debug, Default)]
pub struct LayerKv {
    pages: Vec<TablePage>,
    len: usize,
    /// This layer's index in its owning cache (0 for a standalone
    /// `LayerKv::default()`), carried so misuse panics can name the
    /// layer instead of pointing at an anonymous table.
    idx: usize,
}

impl LayerKv {
    /// Number of cached positions in this layer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages currently in the page table.
    pub fn page_count(&self) -> usize {
        self.pages.len()
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

    /// Logical rows the table views in page `i` (`<=` the page's own
    /// fill, which a shared tail may exceed past the fork point).
    fn rows_in_page(&self, i: usize) -> usize {
        let pp = self.page_positions();
        (self.len - i * pp).min(pp)
    }

    /// Appends one position's key and value rows, leasing a fresh page
    /// from `pool` when the tail page is (logically) full. A write that
    /// lands in a *shared* tail page first privatizes it — the
    /// copy-on-write guard: shared pages are never mutated, so sibling
    /// streams (and the prefix donor) keep reading their exact bits.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in width or the pool is exhausted
    /// (bounded pools are protected by admission-time reservation).
    pub(crate) fn push(&mut self, pool: &PagePool, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), value.len(), "key/value width mismatch");
        let tail_full = self.len == self.pages.len() * self.page_positions();
        if self.pages.is_empty() || tail_full {
            let page = pool
                .try_alloc(key.len())
                .expect("KV page pool exhausted (admission must reserve worst-case pages)");
            self.pages.push(TablePage::Owned(page));
        } else if matches!(self.pages.last(), Some(TablePage::Shared(_))) {
            // Copy-on-write before the mutation: replace the shared tail
            // with a private page holding a bitwise copy of the rows this
            // table views (or reclaim it copy-free as the sole lease).
            let rows = self.rows_in_page(self.pages.len() - 1);
            let Some(TablePage::Shared(shared)) = self.pages.pop() else {
                unreachable!("matched above");
            };
            self.pages
                .push(TablePage::Owned(pool.privatize(shared, rows)));
        }
        let Some(TablePage::Owned(tail)) = self.pages.last_mut() else {
            unreachable!("tail is owned: leased fresh or just privatized");
        };
        tail.push_row(key, value);
        self.len += 1;
    }

    /// Leases table pages `range` for another table: each one is sealed
    /// into a refcounted [`SharedPage`] (a no-op if already shared) and
    /// the result holds a [`PagePool::fork_page`] lease per page — no row
    /// data is copied.
    fn lease_pages<'a>(
        &'a mut self,
        pool: &'a PagePool,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = TablePage> + 'a {
        self.pages[range].iter_mut().map(move |entry| {
            if matches!(entry, TablePage::Owned(_)) {
                let TablePage::Owned(page) = std::mem::replace(entry, TablePage::placeholder())
                else {
                    unreachable!("matched above");
                };
                *entry = TablePage::Shared(pool.share(page));
            }
            let TablePage::Shared(shared) = entry else {
                unreachable!("sealed above");
            };
            TablePage::Shared(pool.fork_page(shared))
        })
    }

    /// Forks the first `positions` cached positions into a new table that
    /// *shares* every covered page ([`LayerKv::lease_pages`]). A partial
    /// tail page is shared too; the first append either side makes into
    /// it copies it out bitwise first (see [`LayerKv::push`]), so the
    /// deep copy of the partial tail is deferred to the write that needs
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `positions > len`.
    pub(crate) fn fork_prefix(&mut self, pool: &PagePool, positions: usize) -> LayerKv {
        assert!(
            positions <= self.len,
            "fork of {positions} positions from a {}-position layer",
            self.len
        );
        let n_pages = positions.div_ceil(self.page_positions());
        LayerKv {
            pages: self.lease_pages(pool, 0..n_pages).collect(),
            len: positions,
            idx: self.idx,
        }
    }

    /// Extends this table — which must end on a page boundary — to
    /// `positions` by leasing `source`'s pages past `self.len`
    /// ([`LayerKv::lease_pages`]): a page-table splice, no row copies.
    ///
    /// # Panics
    ///
    /// Panics unless `self.len` is page-aligned and `self.len <=
    /// positions <= source.len`.
    fn splice_tail(&mut self, pool: &PagePool, source: &mut LayerKv, positions: usize) {
        let pp = source.page_positions();
        assert!(
            self.len.is_multiple_of(pp) && self.len <= positions && positions <= source.len,
            "splice of positions {}..{positions} from a {}-position layer ({pp}-position pages)",
            self.len,
            source.len
        );
        self.pages
            .extend(source.lease_pages(pool, self.len / pp..positions.div_ceil(pp)));
        self.len = positions;
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
        assert!(pos < self.len, "position {pos} not cached");
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
        self.len = 0;
    }

    /// Bits occupied by the cached rows this table views under the
    /// layer's policy.
    pub fn storage_bits(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        2 * self.len * self.pages[0].page().row_bits()
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
    /// the page walk ([`PageDecodeCache`]), serial.
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
        let n_scores = n_heads * self.len;
        if scratch.scores.len() < n_scores {
            scratch.scores.resize(n_scores, 0.0);
        }
        let lane = AttendLane {
            layer: self,
            t: self.len,
            q,
            scores: &mut scratch.scores[..n_scores],
            out,
        };
        scratch.pages.attend(&mut [lane], n_heads, None);
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
/// plus the per-head score lanes. One instance serves any number of
/// calls with no steady-state allocation.
#[derive(Clone, Debug, Default)]
pub struct KvReadScratch {
    pages: PageDecodeCache,
    scores: Vec<f32>,
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
    /// Per-head score lanes (`n_heads × t`, head-major): scratch for the
    /// walk, left holding the softmax weights.
    pub scores: &'a mut [f32],
    /// The head mix, `dim` wide (overwritten).
    pub out: &'a mut [f32],
}

/// Below this many multiply-adds (`2 · t · dim` summed over the lanes,
/// the score and mix products together) a walk runs on the calling thread.
/// Splitting never changes a value: each job owns whole heads and
/// computes every output element with the same operation order.
const ATTN_PAR_MIN_MULADDS: usize = 16 * 1024;

/// One walk job's scratch: a page-sized decode tile, the page-group sort
/// buffer and the lane blocks of one group's products. None scales with
/// context.
#[derive(Clone, Debug, Default)]
struct WalkScratch {
    tile: Vec<f32>,
    order: Vec<Viewer>,
    /// The gathered left operand of a group's products: its lanes'
    /// queries (K pass) or softmax weights (V pass), one row per lane.
    lhs: Vec<f32>,
    /// Their output block: one head's raw scores (K pass), the lanes'
    /// head mixes (V pass).
    acc: Vec<f32>,
    /// Anda pages decoded by this job's K passes (monotonic).
    pages_decoded: u64,
}

/// One lane reaching the page index a pass is at. Sorted, the lanes of one
/// physical page are adjacent, and within them the lanes viewing equally
/// many of its rows.
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
/// decoded **once** into a page-sized tile that stays in L1 while every
/// (lane, head) viewing it consumes it; float pages are their own tile,
/// read in place. So the compressed operand stays compressed until it is
/// in L1, a page shared by N streams decodes once per pass however many
/// attend through it, and no buffer scales with context × batch.
///
/// A page decodes its full physical fill, not one table's logical view
/// of it: a truncated fork and its donor share a page but view different
/// row counts, and per-row decode is independent, so the union costs
/// nothing in exactness.
///
/// The lanes of a group are then one block product per head and pass, on
/// the register tile every GEMM of a step runs on: the K pass multiplies
/// the lanes' queries by the page's keys transposed, so the tile's
/// sixteen columns are sixteen *positions* and a page's keys are packed
/// once for all its lanes; the V pass accumulates `weights · values` onto
/// the lanes' head mixes, a head's output columns staying in registers
/// across the page's rows. Masking is structural: a lane's sums run over
/// exactly the rows its window reaches (lanes viewing equally many rows of
/// a page share a V product; surplus K scores are computed and dropped),
/// never over a masked row times zero.
///
/// Every output element keeps the per-head reference arithmetic — the
/// ascending-`c` `q·k` sum (vectorised across positions, never within a
/// sum), the max-shifted log-softmax, the position-ascending `p·v`
/// accumulation, multiply then add, nothing skipped — so results are
/// `f32::to_bits`-identical to a scalar loop over
/// [`LayerKv::key_into`] / [`LayerKv::value_into`], on every SIMD leg and
/// at every thread count: parallel jobs split the *columns* (whole heads,
/// on Anda group boundaries), each decoding only its own column groups of
/// every page, so no decode work is duplicated either. (One bit is
/// representational: a score sums from `+0.0`, where `Iterator::sum`
/// starts at `-0.0`, so a score whose every product is `-0.0` is `+0.0`
/// here — which the max-shifted softmax maps to the same weight.)
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
    /// tile is sized by the first page it meets) a step of
    /// [`crate::Model::decode_hidden_batch`] allocates nothing on the
    /// calling thread.
    pub fn reserve(&mut self, config: &ModelConfig, rows: usize, max_len: usize) {
        self.rows.reserve(config, rows, max_len);
        self.lanes.0.reserve(rows);
        if self.jobs.is_empty() {
            self.jobs.push(WalkScratch::default());
        }
        let job = &mut self.jobs[0];
        job.order.reserve(rows);
        // Pages deeper than a head is wide grow these once more, on the
        // first walk that meets them.
        job.lhs.reserve(rows * config.d_model);
        job.acc.reserve(rows * config.d_model);
    }

    /// Projection GEMMs the model's steps dispatched through this cache
    /// (monotonic): one per weight per layer per step, however many
    /// entries and spans a step carries.
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

    /// Total Anda pages decoded through this cache (monotonic). Each
    /// distinct physical page counts once per walk — per layer of a step
    /// — regardless of how many lanes attend through it, of the K and V
    /// passes, and of the thread count.
    pub fn pages_decoded(&self) -> u64 {
        self.jobs.first().map_or(0, |job| job.pages_decoded)
    }

    /// Attends every lane (see the type docs), fanning column ranges
    /// across `pool` when one is given and the work is large enough.
    ///
    /// # Panics
    ///
    /// Panics if a lane's layer is empty ([`LayerKv::assert_attendable`]),
    /// its window exceeds the layer, its buffers do not match `dim` /
    /// `n_heads × t`, the lanes' pages differ in policy or geometry, or
    /// `dim` is not divisible by `n_heads`.
    pub fn attend(
        &mut self,
        lanes: &mut [AttendLane<'_>],
        n_heads: usize,
        pool: Option<&ThreadPool>,
    ) {
        self.attend_with_leg(lanes, n_heads, pool, active_leg());
    }

    /// [`PageDecodeCache::attend`] with the walk's products on an explicit
    /// SIMD leg (oracle tests and benches; the row decoder keeps the
    /// active leg).
    ///
    /// # Panics
    ///
    /// As [`PageDecodeCache::attend`], or if the leg is unavailable on
    /// this host.
    pub fn attend_with_leg(
        &mut self,
        lanes: &mut [AttendLane<'_>],
        n_heads: usize,
        pool: Option<&ThreadPool>,
        leg: SimdLeg,
    ) {
        leg.assert_available();
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
                (1..=lane.layer.len).contains(&lane.t),
                "attended window {} outside layer {}'s {} positions",
                lane.t,
                lane.layer.idx,
                lane.layer.len
            );
            assert_eq!(lane.scores.len(), n_heads * lane.t, "score lanes");
        }
        // A job owns whole heads, and on Anda pages whole column groups.
        let unit = match first.layer.pages[0].page().storage.anda_config() {
            None => dh,
            Some(cfg) if dh.is_multiple_of(cfg.group_size()) => dh,
            Some(cfg) if cfg.group_size().is_multiple_of(dh) => cfg.group_size(),
            Some(_) => d,
        };
        let muladds: usize = lanes.iter().map(|lane| 2 * lane.t * d).sum();
        let jobs = match pool {
            Some(pool) if muladds >= ATTN_PAR_MIN_MULADDS => pool.threads().min(d / unit).max(1),
            _ => 1,
        };
        if self.jobs.len() < jobs {
            self.jobs.resize_with(jobs, WalkScratch::default);
        }
        let (Some(pool), true) = (pool, jobs > 1) else {
            return walk(lanes, 0..d, dh, &mut self.jobs[0], leg);
        };
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
            let (mut scores, mut out) = (&mut *lane.scores, &mut *lane.out);
            for (j, part) in parts.iter_mut().enumerate() {
                let cols = bound(j)..bound(j + 1);
                let (scores_j, scores_rest) = scores.split_at_mut(cols.len() / dh * lane.t);
                let (out_j, out_rest) = out.split_at_mut(cols.len());
                (scores, out) = (scores_rest, out_rest);
                part.push(AttendLane {
                    layer: lane.layer,
                    t: lane.t,
                    q: &lane.q[cols],
                    scores: scores_j,
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
/// of every lane, whose `q` / `out` / `scores` are already narrowed to
/// those columns. See [`PageDecodeCache`] for the traversal and the
/// exactness argument.
fn walk(
    lanes: &mut [AttendLane<'_>],
    cols: std::ops::Range<usize>,
    dh: usize,
    s: &mut WalkScratch,
    leg: SimdLeg,
) {
    visit_pages(lanes, false, &cols, dh, s, leg);
    for lane in lanes.iter_mut() {
        lane.scores.chunks_exact_mut(lane.t).for_each(softmax);
        lane.out.fill(0.0);
    }
    visit_pages(lanes, true, &cols, dh, s, leg);
}

/// One pass of [`walk`] — K (`want_v = false`, fills the score lanes) or
/// V (accumulates the head mixes): page index ascending, the lanes
/// reaching each index grouped by physical page, one tile per group.
fn visit_pages(
    lanes: &mut [AttendLane<'_>],
    want_v: bool,
    cols: &std::ops::Range<usize>,
    dh: usize,
    s: &mut WalkScratch,
    leg: SimdLeg,
) {
    let pp = lanes[0].layer.page_positions();
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
            if !want_v && cols.start == 0 && !page.storage.reads_in_place() {
                s.pages_decoded += 1;
                anda_format::metrics::note_rows_decoded(2 * page.used as u64);
            }
            let group = PageGroup {
                tile: page.tile(want_v, cols, &mut s.tile),
                d: page.dim,
                base,
                cols,
                dh,
                leg,
            };
            if !want_v {
                group.score(lanes, viewers, &mut s.lhs, &mut s.acc);
                continue;
            }
            // A sum must end where its lane's window does, so only lanes
            // viewing equally many rows share a V product.
            for run in viewers.chunk_by(|a, b| a.rows == b.rows) {
                group.mix(lanes, run, &mut s.lhs, &mut s.acc);
            }
        }
    }
}

/// One physical page of a pass and what its lanes' products need to know.
struct PageGroup<'a> {
    /// The page's decoded K (or V) rows, `d` apart ([`Page::tile`]).
    tile: &'a [f32],
    d: usize,
    /// Position of the page's first row.
    base: usize,
    cols: &'a std::ops::Range<usize>,
    dh: usize,
    leg: SimdLeg,
}

impl PageGroup<'_> {
    /// Head `h`'s columns of the first `rows` rows of the tile.
    fn head(&self, h: usize, rows: usize) -> Strided<'_> {
        Strided::new(
            &self.tile[self.cols.start + h * self.dh..],
            rows,
            self.dh,
            self.d,
        )
    }

    /// K pass: per head, `lanes × dh` queries times the page's keys
    /// transposed — the page's rows are the product's columns, so the
    /// register tile runs sixteen positions side by side and packs the
    /// keys once for every lane — each raw score then scaled into its
    /// lane. `viewers` ascend in `rows`; what a lane's window does not
    /// reach is computed and dropped.
    fn score(
        &self,
        lanes: &mut [AttendLane<'_>],
        viewers: &[Viewer],
        lhs: &mut Vec<f32>,
        acc: &mut Vec<f32>,
    ) {
        let (w, dh) = (self.cols.len(), self.dh);
        let scale = 1.0 / (dh as f32).sqrt();
        let n = viewers[viewers.len() - 1].rows;
        lhs.clear();
        for v in viewers {
            lhs.extend_from_slice(lanes[v.lane].q);
        }
        acc.clear();
        acc.resize(viewers.len() * n, 0.0);
        for h in 0..w / dh {
            Strided::new(&lhs[h * dh..], viewers.len(), dh, w).matmul_transposed_into(
                self.head(h, n),
                acc,
                n,
                false,
                self.leg,
            );
            for (v, raw) in viewers.iter().zip(acc.chunks_exact(n)) {
                let lane = &mut lanes[v.lane];
                let scores = &mut lane.scores[h * lane.t + self.base..][..v.rows];
                for (score, &raw) in scores.iter_mut().zip(raw) {
                    *score = raw * scale;
                }
            }
        }
    }

    /// V pass over lanes that all view `rows` rows: per head, `out +=
    /// p · v` as the product of the lanes' weights and the page's values,
    /// accumulated onto the mixes of the pages before — so every output
    /// element still adds its `p · v` in position order, and a weight of
    /// zero still multiplies.
    fn mix(
        &self,
        lanes: &mut [AttendLane<'_>],
        viewers: &[Viewer],
        lhs: &mut Vec<f32>,
        acc: &mut Vec<f32>,
    ) {
        let (w, dh) = (self.cols.len(), self.dh);
        let (heads, rows) = (w / dh, viewers[0].rows);
        lhs.clear();
        acc.clear();
        for v in viewers {
            let lane = &lanes[v.lane];
            for h in 0..heads {
                lhs.extend_from_slice(&lane.scores[h * lane.t + self.base..][..rows]);
            }
            acc.extend_from_slice(lane.out);
        }
        for h in 0..heads {
            Strided::new(&lhs[h * rows..], viewers.len(), rows, heads * rows).matmul_into(
                self.head(h, rows),
                &mut acc[h * dh..],
                w,
                true,
                self.leg,
            );
        }
        for (v, mixed) in viewers.iter().zip(acc.chunks_exact(w)) {
            lanes[v.lane].out.copy_from_slice(mixed);
        }
    }
}

/// Max-shifted softmax of one head's score lane in place: the same
/// log-softmax-then-exp as `ops::log_softmax_into`, on a slice.
fn softmax(scores: &mut [f32]) {
    let max = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let log_sum: f32 = scores.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    for score in scores.iter_mut() {
        *score = (*score - max - log_sum).exp();
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
    /// the same pool that *shares* every covered page instead of copying
    /// it: only the page tables are cloned ([`PagePool::fork_page`]
    /// leases per page), so N forks of a P-position prefix pin
    /// `pages(P)` physical pages, not `N·pages(P)`. Takes `&mut self`
    /// because covered pages this cache still owns exclusively are first
    /// sealed into shared leases ([`PagePool::share`]) — a no-op on
    /// repeat forks.
    ///
    /// Shared pages are immutable. Decoding continues bit-exactly on
    /// both sides: the first append either cache makes into a shared
    /// partial tail page copies it out bitwise first (copy-on-write, see
    /// `LayerKv::push`'s guard and [`PagePool::privatize`]), while
    /// whole prefix pages stay deduplicated for the streams' lifetimes.
    ///
    /// # Panics
    ///
    /// Panics if `positions` exceeds the cached length.
    pub fn fork_prefix(&mut self, positions: usize) -> KvCache {
        let pool = self.pool.clone();
        let layers = self
            .layers
            .iter_mut()
            .map(|layer| layer.fork_prefix(&pool, positions))
            .collect();
        KvCache { pool, layers }
    }

    /// Forks the *entire* live cache — every currently cached position —
    /// sharing all covered pages copy-on-write: the mid-stream fork
    /// behind `anda-serve`'s parallel-sampling modes, which fork a
    /// stream's cache at its live decode position so `n` sibling
    /// completions share one physical prompt. Equivalent to
    /// `fork_prefix(self.len())`; see [`KvCache::fork_prefix`] for the
    /// sharing and copy-on-write semantics. A partial tail page is
    /// sealed shared too — whichever side appends next privatizes it
    /// bitwise, so both sides keep decoding bit-exactly.
    pub fn fork_full(&mut self) -> KvCache {
        let positions = self.len();
        self.fork_prefix(positions)
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
        assert_eq!(self.n_layers(), tail.n_layers(), "layer count mismatch");
        let mut fork = self.fork_prefix(split);
        for (layer, source) in fork.layers.iter_mut().zip(&mut tail.layers) {
            layer.splice_tail(&fork.pool, source, positions);
        }
        fork
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
        assert_eq!(cache.layer(0).page_count(), 2);
        for (i, r) in k.iter().enumerate() {
            for (a, &b) in cache.layer(0).key(i).iter().zip(r) {
                assert!((a - b).abs() < 1e-3);
                assert_eq!(a.to_bits(), saturate_to_f16(b).to_f32().to_bits());
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
        let fp16 = KvPoolConfig::unbounded(KvStorage::Fp16).with_memory_budget(budget, dim);
        let anda = KvPoolConfig::unbounded(KvStorage::Anda { mantissa_bits: 5 })
            .with_memory_budget(budget, dim);
        let (f, a) = (fp16.max_pages.unwrap(), anda.max_pages.unwrap());
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
            scores: &mut [0.0; 4],
            out: &mut [0.0; 64],
        };
        PageDecodeCache::new().attend(&mut [lane], 4, None);
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
    /// the tail donor's pages only past the split: dropping the tail
    /// donor frees its own copy of the prefix.
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
        assert_eq!(pool.pages_in_use(), 5, "a splice leases, never copies");
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

    /// Appending into a fork whose tail page is shared fires
    /// copy-on-write: the fork gets a private page whose prefix rows are
    /// a bitwise copy of the donor's, the donor's rows never change, and
    /// the two caches diverge only past the fork point.
    #[test]
    fn copy_on_write_preserves_bits_and_isolates_streams() {
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

            let mut child = parent.fork_prefix(6);
            let in_use = pool.pages_in_use();
            let fresh = rows(2, 64, 23);
            child.append_row(0, &fresh[0], &fresh[0]); // CoW: tail copies out
            assert_eq!(
                pool.pages_in_use(),
                in_use + 1,
                "CoW leases exactly one private page"
            );
            assert_eq!(
                key_bits(&child, 6),
                parent_bits,
                "{storage:?}: CoW page must be a bitwise copy of its parent at fork time"
            );
            parent.append_row(0, &fresh[1], &fresh[1]); // donor CoWs its side too
            assert_eq!(key_bits(&parent, 6), parent_bits, "donor prefix unchanged");
            assert_ne!(
                child.layer(0).key(6),
                parent.layer(0).key(6),
                "past the fork point the streams are private"
            );
        }
    }

    /// When the fork is the last lease standing, privatize reclaims the
    /// shared page in place: no copy, no new page, creation stays flat.
    #[test]
    fn sole_lease_privatize_reclaims_without_copying() {
        let pool = PagePool::new(KvPoolConfig {
            storage: KvStorage::Fp16,
            page_positions: 4,
            max_pages: None,
        });
        let mut parent = pool.new_cache(1);
        let data = rows(6, 32, 24);
        for r in &data {
            parent.append_row(0, r, r);
        }
        let mut child = parent.fork_prefix(6);
        let expect = key_bits(&parent, 6);
        parent.reset(); // child is now the sole lease of both pages
        let created = pool.pages_created();
        let extra = rows(1, 32, 25);
        child.append_row(0, &extra[0], &extra[0]);
        assert_eq!(
            pool.pages_created(),
            created,
            "sole-lease CoW must reclaim, not copy"
        );
        assert_eq!(key_bits(&child, 6), expect, "reclaimed rows read exactly");
    }

    /// A fork truncated mid-page views only its prefix of the shared
    /// tail: reads, attention row iteration and storage accounting all
    /// follow the logical length, not the page fill.
    #[test]
    fn truncated_fork_masks_the_shared_tail() {
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
        let mut child = parent.fork_prefix(5); // page 1 shared, 1 logical row
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
        assert_eq!(abits, bbits, "masked tail must not leak donor rows");
        // Appending at position 5 CoWs the tail and continues exactly.
        child.append_row(0, &data[5], &data[5]);
        private.append_row(0, &data[5], &data[5]);
        assert_eq!(key_bits(&child, 6), key_bits(&private, 6));
    }

    #[test]
    #[should_panic(expected = "fork of 9 positions")]
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
}
