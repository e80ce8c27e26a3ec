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
//! rows (the paper's §V-A baseline), BF16-rounded rows (same footprint,
//! full exponent range) — all read in place — or Anda bit-plane rows
//! (decoded on read into caller scratch via `anda_format::rowcodec`,
//! with zero per-token allocation). The rounded-policy appends and the
//! Anda encode/decode all run through the SIMD-dispatched kernels in
//! `anda_fp::simd` (scalar-oracle bit-exact on every leg).
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
//! long-context headroom quantified by the `kv_memory` bench.
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
//! the page without copying. The `kv_sharing` bench quantifies the
//! resulting admission headroom: N streams over a P-position prefix pin
//! `pages(P) + N·pages(private)` pages, not `N·pages(P + private)`.

use std::sync::{Arc, Mutex};

use anda_format::rowcodec;
use anda_format::AndaConfig;
use anda_fp::batch::{saturate_bf16_widen_slice, saturate_f16_widen_slice};

/// Storage policy for cached K/V rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvStorage {
    /// Raw `f32` rows, read in place — the exact-reference policy (what
    /// solo `generate` has always cached) and the accounting baseline
    /// the compressed policies are measured against.
    Fp32,
    /// FP16-rounded rows (the paper's §V-A baseline), read in place.
    Fp16,
    /// BF16-rounded rows, read in place — same 16-bit footprint as FP16
    /// but trading mantissa for the full `f32` exponent range (no
    /// saturation below ±3.4e38), matching accelerators that keep KV in
    /// bfloat16.
    Bf16,
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
            KvStorage::Fp32 | KvStorage::Fp16 | KvStorage::Bf16 => None,
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
            KvStorage::Fp16 | KvStorage::Bf16 => dim * 16,
            KvStorage::Anda { .. } => {
                rowcodec::row_storage_bits(dim, self.anda_config().expect("anda policy"))
            }
        }
    }

    /// `true` when rows are stored as plain `f32` words the attention
    /// kernel can read in place (no decode step).
    pub fn reads_in_place(self) -> bool {
        matches!(self, KvStorage::Fp32 | KvStorage::Fp16 | KvStorage::Bf16)
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
    /// rounded then widened for [`KvStorage::Fp16`] / [`KvStorage::Bf16`]).
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
                    KvStorage::Bf16 => {
                        saturate_bf16_widen_slice(key, kd);
                        saturate_bf16_widen_slice(value, vd);
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

    /// The filled K (or V) rows as one in-place `f32` slice — float
    /// pages only; Anda pages must decode.
    fn rows_in_place(&self, want_v: bool) -> &[f32] {
        match &self.data {
            PageData::Float { k, v } => {
                let buf = if want_v { v } else { k };
                &buf[..self.used * self.dim]
            }
            PageData::Anda { .. } => {
                unreachable!("in-place reads are a float-policy path")
            }
        }
    }

    /// Decodes the first `fill` cached rows of an Anda page into
    /// row-major `fill × dim` K/V planes — the grouped decode path's
    /// arena fill, bit-identical to `fill` calls of [`Page::row_into`].
    ///
    /// # Panics
    ///
    /// Unreachable on float-policy pages (they are read in place, never
    /// staged for decode).
    pub(crate) fn decode_rows_into(&self, fill: usize, k_dst: &mut [f32], v_dst: &mut [f32]) {
        let PageData::Anda { cfg, k, v } = &self.data else {
            unreachable!("float pages are read in place, not decoded")
        };
        for slot in 0..fill {
            let dst = slot * self.dim;
            k.decode(slot, *cfg, &mut k_dst[dst..dst + self.dim]);
            v.decode(slot, *cfg, &mut v_dst[dst..dst + self.dim]);
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

    /// Bits occupied by the filled rows (K and V).
    pub fn used_bits(&self) -> usize {
        2 * self.used * self.row_bits()
    }

    /// Bits the whole page pins while leased, filled or not (K and V).
    pub fn capacity_bits(&self) -> usize {
        2 * self.positions * self.row_bits()
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

    /// The physical page behind table slot `i` — the grouped decode
    /// executor's resolver for [`PendingDecode`] records.
    pub(crate) fn page_at(&self, i: usize) -> &Page {
        self.pages[i].page()
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

    fn reads_in_place(&self) -> bool {
        self.pages
            .first()
            .is_none_or(|p| p.page().storage.reads_in_place())
    }

    /// Decodes every cached K and V row into flat `t × dim` scratch
    /// buffers. Requests exactly `len × dim` capacity, so buffers
    /// pre-reserved for the maximum context ([`KvReadScratch::reserve`])
    /// never grow — the zero-allocation decode contract.
    pub(crate) fn decode_rows(&self, k_out: &mut Vec<f32>, v_out: &mut Vec<f32>) {
        let dim = self.dim();
        k_out.clear();
        v_out.clear();
        k_out.resize(self.len * dim, 0.0);
        v_out.resize(self.len * dim, 0.0);
        let mut written = 0;
        for (i, entry) in self.pages.iter().enumerate() {
            let page = entry.page();
            // Logical rows, not the page's own fill: a shared tail may
            // physically hold donor rows past this table's fork point.
            let rows = self.rows_in_page(i);
            let n = rows * dim;
            match &page.data {
                PageData::Float { k, v } => {
                    k_out[written..written + n].copy_from_slice(&k[..n]);
                    v_out[written..written + n].copy_from_slice(&v[..n]);
                }
                PageData::Anda { cfg, k, v } => {
                    for slot in 0..rows {
                        let dst = written + slot * dim;
                        k.decode(slot, *cfg, &mut k_out[dst..dst + dim]);
                        v.decode(slot, *cfg, &mut v_out[dst..dst + dim]);
                    }
                }
            }
            written += n;
        }
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

    /// Bits the layer's leased pages pin, filled or not — what the pool
    /// accounts for. Shared pages count fully in *every* table leasing
    /// them; the deduplicated pool-level footprint is
    /// `PagePool::pages_in_use() × page_bits`.
    pub fn resident_bits(&self) -> usize {
        self.pages.iter().map(|p| p.page().capacity_bits()).sum()
    }

    /// Validates that this layer can be attended at all: attention over
    /// zero cached positions is always a caller bug (softmax over an
    /// empty score row, or a grouped walk indexing past its offsets
    /// buffer), so every attend entry point rejects it *here*, at the
    /// API surface, with a message naming the layer and the misuse —
    /// instead of surfacing as a NaN or a slice panic deep inside the
    /// head kernel.
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
    /// caller buffer, allocation-free: softmax(q·Kᵀ/√d_head)·V per head,
    /// heads concatenated. FP16 pages are read in place; Anda pages
    /// decode into `scratch` once for the whole call.
    ///
    /// # Panics
    ///
    /// Panics if the layer is empty (a clear API-surface message naming
    /// the layer — see [`LayerKv::assert_attendable`] — instead of a
    /// confusing failure deep in the head kernel), `q`/`out` are not
    /// `dim` wide, or `dim` is not divisible by `n_heads`.
    pub fn attend_into(
        &self,
        q: &[f32],
        n_heads: usize,
        out: &mut [f32],
        scratch: &mut KvReadScratch,
    ) {
        self.assert_attendable();
        let dim = self.dim();
        assert_eq!(q.len(), dim, "query width");
        assert_eq!(out.len(), dim, "output width");
        assert_eq!(dim % n_heads, 0, "head split");
        let dh = dim / n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let t = self.len;

        let KvReadScratch {
            k,
            v,
            scores,
            probs,
        } = scratch;
        let rows = if self.reads_in_place() {
            KvRows::InPlace(self)
        } else {
            self.decode_rows(k, v);
            KvRows::Decoded { k, v, dim }
        };
        scores.clear();
        scores.resize(t, 0.0);
        probs.clear();
        probs.resize(t, 0.0);
        out.fill(0.0);
        for head in 0..n_heads {
            let off = head * dh;
            attend_head(
                q,
                rows,
                head,
                dh,
                scale,
                &mut out[off..off + dh],
                scores,
                probs,
            );
        }
    }

    /// [`LayerKv::attend_into`] with owned scratch and output
    /// (experiment/demo convenience).
    pub fn attend(&self, q: &[f32], n_heads: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.attend_into(q, n_heads, &mut out, &mut KvReadScratch::new());
        out
    }
}

/// Reusable buffers for reading compressed KV rows: flat decoded K/V
/// planes plus score/probability staging. One instance serves any number
/// of [`LayerKv::attend_into`] calls (or one decode stream) with no
/// steady-state allocation.
#[derive(Clone, Debug, Default)]
pub struct KvReadScratch {
    pub(crate) k: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pub(crate) scores: Vec<f32>,
    pub(crate) probs: Vec<f32>,
}

impl KvReadScratch {
    /// Empty scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves the decode buffers for contexts up to `max_len`
    /// positions of `dim`-wide rows.
    pub fn reserve(&mut self, max_len: usize, dim: usize) {
        self.k.reserve(max_len * dim);
        self.v.reserve(max_len * dim);
        self.scores.reserve(max_len);
        self.probs.reserve(max_len);
    }
}

/// One contiguous span of a layer's staged KV rows for a grouped attend:
/// the `rows` *logical* rows of one page, resolved either in place (a
/// float page, indexed into the layer's own table) or in the shared
/// decode arena (an Anda page, addressed by its float offset). Segments
/// are index-based on purpose — carrying no borrow lets a scheduler
/// stage every stream's segments serially and consume them later from
/// parallel attend jobs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KvSegment {
    rows: usize,
    src: SegSrc,
}

#[derive(Clone, Copy, Debug)]
enum SegSrc {
    /// Page-table index of a float page read in place.
    Page(usize),
    /// Float offset of a decoded Anda page in the arena.
    Arena(usize),
}

/// Page-identity-keyed decode cache for grouped batched attention: one
/// per-layer arena of decoded K/V rows shared by every stream in the
/// batch, so each physical Anda page decodes **at most once per step**
/// no matter how many streams attend through it (the fix for the N×
/// redundant decode of shared prefix pages).
///
/// Usage per layer per step: [`PageDecodeCache::begin_layer`] once, then
/// the crate-internal `stage_layer` for every stream's [`LayerKv`]. A
/// page's identity is its stable address for the duration of the layer
/// epoch — the `Arc` pointer of a shared lease (the same physical prefix
/// page yields the same pointer in every forking stream) or the owned
/// page's own address. Staging decodes a page's full physical fill, not
/// one table's logical view of it: a truncated fork and its donor share
/// an identity but view different row counts, and per-row decode is
/// independent, so the union costs nothing in exactness. Float pages
/// never enter the arena — they stage as in-place segments.
///
/// The arena keeps its capacity across layers and steps (`begin_layer`
/// only clears the identity index), so steady-state grouped decode
/// allocates nothing once the deepest layer has been staged.
#[derive(Debug, Default)]
pub struct PageDecodeCache {
    /// Flat decoded key rows, bump-allocated per layer epoch.
    k: Vec<f32>,
    /// Flat decoded value rows, same offsets as `k`.
    v: Vec<f32>,
    /// Page identity → (float offset, decoded physical rows), valid for
    /// the current layer epoch only.
    index: std::collections::HashMap<usize, (usize, usize)>,
    /// Floats staged in the arena this layer epoch.
    used: usize,
    /// Pages staged this layer epoch whose arena ranges still hold
    /// zeros: staging only *reserves*; the decode itself is deferred so
    /// the caller can fan independent pages across a thread pool
    /// ([`PageDecodeCache::pending_split`]).
    pending: Vec<PendingDecode>,
    /// Anda pages decoded since construction (monotonic) — the exact,
    /// per-instance counter behind the scheduler's decode-once test.
    pages_decoded: u64,
}

/// One staged-but-not-yet-decoded page: which batch entry's table it
/// was first seen in, where, and the arena range reserved for it.
/// Offsets are bump-allocated in staging order, so consecutive pending
/// entries cover consecutive arena ranges — the decode executor splits
/// the arena into disjoint `&mut` chunks by walking them in order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingDecode {
    /// Index into the batch whose page table first staged this page.
    pub(crate) entry: usize,
    /// Page index within that entry's layer table.
    pub(crate) page: usize,
    /// Arena float offset reserved for the decoded rows.
    pub(crate) off: usize,
    /// Physical rows to decode (the page's full fill).
    pub(crate) fill: usize,
}

impl PageDecodeCache {
    /// An empty decode cache; the arena grows to its steady-state size
    /// during the first step.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new layer epoch: forgets every staged identity while
    /// keeping the arena's capacity. Must be called before the first
    /// `stage_layer` of each layer — identities are
    /// only stable within one layer's stage-and-attend window (appending
    /// the *next* layer's rows may move or replace pages).
    pub fn begin_layer(&mut self) {
        self.index.clear();
        self.used = 0;
        self.pending.clear();
    }

    /// Total Anda pages decoded through this cache (monotonic across
    /// steps). Each shared page counts once per layer epoch it was
    /// staged in, regardless of how many streams attend through it.
    pub fn pages_decoded(&self) -> u64 {
        self.pages_decoded
    }

    /// Stages one stream's view of `layer` for a grouped attend,
    /// rewriting `segs` with one segment per page. Float pages stage in
    /// place; an Anda page *reserves* an arena range only if this layer
    /// epoch has not seen its identity yet (`entry_idx` records which
    /// batch entry's table to decode it from) — the decode itself runs
    /// in the [`PageDecodeCache::pending_split`] pass that follows
    /// staging, so independent pages can decode in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is empty (see [`LayerKv::assert_attendable`] —
    /// an empty layer staged here would otherwise become a silent
    /// zero-row walk of the segment table).
    pub(crate) fn stage_layer(
        &mut self,
        entry_idx: usize,
        layer: &LayerKv,
        segs: &mut Vec<KvSegment>,
    ) {
        layer.assert_attendable();
        segs.clear();
        let dim = layer.dim();
        let in_place = layer.reads_in_place();
        for (i, entry) in layer.pages.iter().enumerate() {
            let rows = layer.rows_in_page(i);
            if in_place {
                segs.push(KvSegment {
                    rows,
                    src: SegSrc::Page(i),
                });
                continue;
            }
            let identity = match entry {
                // All staged pages are simultaneously live, so addresses
                // are unique; shared leases of one physical page agree on
                // the `Arc` pointer across every stream that forked it.
                TablePage::Owned(page) => std::ptr::from_ref(page) as usize,
                TablePage::Shared(shared) => Arc::as_ptr(&shared.inner) as usize,
            };
            let (off, fill) = match self.index.get(&identity) {
                Some(&slot) => slot,
                None => {
                    let fill = entry.page().used();
                    let off = self.used;
                    self.used += fill * dim;
                    if self.k.len() < self.used {
                        self.k.resize(self.used, 0.0);
                        self.v.resize(self.used, 0.0);
                    }
                    // Reserve only: the decode runs once staging has
                    // walked the whole batch, so independent pages can
                    // be decoded in parallel (`pending_split`).
                    self.pending.push(PendingDecode {
                        entry: entry_idx,
                        page: i,
                        off,
                        fill,
                    });
                    self.pages_decoded += 1;
                    self.index.insert(identity, (off, fill));
                    (off, fill)
                }
            };
            debug_assert!(
                rows <= fill,
                "a staged view of layer {} exceeds its page's decoded fill ({rows} > {fill})",
                layer.idx
            );
            segs.push(KvSegment {
                rows,
                src: SegSrc::Arena(off),
            });
        }
    }

    /// The decoded (K, V) arenas the staged `SegSrc::Arena` offsets
    /// resolve into, for building [`KvRows::Grouped`] views.
    pub(crate) fn arenas(&self) -> (&[f32], &[f32]) {
        (&self.k, &self.v)
    }

    /// The pages staged but not yet decoded this layer epoch, plus the
    /// mutable arenas their reserved ranges live in. The caller decodes
    /// each pending page's rows into its range — in any order, even
    /// concurrently, since ranges are disjoint and per-row decode is
    /// independent — and clears the list when done. Attending through a
    /// segment table before its pending pages are decoded reads zeros.
    pub(crate) fn pending_split(&mut self) -> (&mut Vec<PendingDecode>, &mut [f32], &mut [f32]) {
        (&mut self.pending, &mut self.k, &mut self.v)
    }
}

/// A borrowed row-major view of one layer's cached K/V rows: the FP16
/// pages themselves (read in place), flat decoded scratch, or a grouped
/// segment view over the shared [`PageDecodeCache`] arena.
#[derive(Clone, Copy)]
pub(crate) enum KvRows<'a> {
    InPlace(&'a LayerKv),
    Decoded {
        k: &'a [f32],
        v: &'a [f32],
        dim: usize,
    },
    /// Grouped-attention view: per-page segments resolving into either
    /// the layer's own float pages (in place) or the decode arena a
    /// whole batch shares.
    Grouped {
        layer: &'a LayerKv,
        arena_k: &'a [f32],
        arena_v: &'a [f32],
        segs: &'a [KvSegment],
    },
}

impl<'a> KvRows<'a> {
    pub(crate) fn k_rows(self) -> RowIter<'a> {
        RowIter::new(self, false)
    }

    pub(crate) fn v_rows(self) -> RowIter<'a> {
        RowIter::new(self, true)
    }
}

/// Iterates a [`KvRows`] view as one `dim`-wide slice per position,
/// walking pages (or staged segments) directly — no per-row page-table
/// arithmetic. Yields exactly the layer's *logical* length: a shared
/// tail page's physical rows past the fork point are never surfaced,
/// whether read in place, from per-stream decode scratch, or from the
/// grouped arena (segments carry the logical row count explicitly).
pub(crate) struct RowIter<'a> {
    src: RowSource<'a>,
    cur: std::slice::ChunksExact<'a, f32>,
    want_v: bool,
    remaining: usize,
}

enum RowSource<'a> {
    /// Float pages walked in place; `remaining` truncates the shared
    /// tail's physical overhang.
    Pages(std::slice::Iter<'a, TablePage>),
    /// One flat pre-decoded buffer; `cur` already spans it all.
    Flat,
    /// Grouped segments over a layer's float pages + the shared arena.
    Segs {
        layer: &'a LayerKv,
        arena: &'a [f32],
        segs: std::slice::Iter<'a, KvSegment>,
    },
}

impl<'a> RowIter<'a> {
    fn new(rows: KvRows<'a>, want_v: bool) -> Self {
        match rows {
            KvRows::InPlace(layer) => RowIter {
                src: RowSource::Pages(layer.pages.iter()),
                cur: [].chunks_exact(1),
                want_v,
                remaining: layer.len,
            },
            KvRows::Decoded { k, v, dim } => {
                let buf = if want_v { v } else { k };
                RowIter {
                    src: RowSource::Flat,
                    cur: buf.chunks_exact(dim),
                    want_v,
                    remaining: buf.len() / dim,
                }
            }
            KvRows::Grouped {
                layer,
                arena_k,
                arena_v,
                segs,
            } => RowIter {
                src: RowSource::Segs {
                    layer,
                    arena: if want_v { arena_v } else { arena_k },
                    segs: segs.iter(),
                },
                cur: [].chunks_exact(1),
                want_v,
                remaining: layer.len,
            },
        }
    }
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [f32];

    fn next(&mut self) -> Option<&'a [f32]> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(row) = self.cur.next() {
                self.remaining -= 1;
                return Some(row);
            }
            match &mut self.src {
                RowSource::Pages(pages) => {
                    let page = pages.next()?.page();
                    self.cur = page.rows_in_place(self.want_v).chunks_exact(page.dim);
                }
                RowSource::Flat => return None,
                RowSource::Segs { layer, arena, segs } => {
                    let layer: &'a LayerKv = layer;
                    let arena: &'a [f32] = arena;
                    let seg = segs.next()?;
                    let dim = layer.dim();
                    let span = match seg.src {
                        // Logical rows only: in-place pages may hold a
                        // donor's rows past this table's fork point, and
                        // arena spans may hold a sibling's longer view.
                        SegSrc::Page(i) => {
                            &layer.pages[i].page().rows_in_place(self.want_v)[..seg.rows * dim]
                        }
                        SegSrc::Arena(off) => &arena[off..off + seg.rows * dim],
                    };
                    self.cur = span.chunks_exact(dim);
                }
            }
        }
    }
}

/// One attention head of a KV-cached decode step: scores over the cached
/// positions, a log-softmax staged in `probs_h`, then the value mix into
/// `attn_h` (this head's `d_head`-wide output lane, accumulated with
/// `+=`; callers zero it). Exactly the serial per-head math, factored out
/// so heads can run on pool workers; the row iterators walk FP16 pages in
/// place and decoded Anda scratch identically.
///
/// The attended window is `scores_h.len()`, which may be *shorter* than
/// the KV table behind `rows`: every loop (scores, softmax, value mix)
/// zips against `scores_h`, so only that many leading rows are read and
/// later rows never enter the reduction. This truncation contract is
/// load-bearing for chunked prefill — a chunk's lane for position `p`
/// passes a `p + 1`-long score lane against a table that already holds
/// the whole chunk's rows, and gets causal masking (bit-identical to a
/// solo decode at `p`) without staging a per-lane table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_head(
    q: &[f32],
    rows: KvRows<'_>,
    head: usize,
    dh: usize,
    scale: f32,
    attn_h: &mut [f32],
    scores_h: &mut [f32],
    probs_h: &mut [f32],
) {
    let off = head * dh;
    let qh = &q[off..off + dh];
    for (score, kj) in scores_h.iter_mut().zip(rows.k_rows()) {
        let kj = &kj[off..off + dh];
        *score = qh.iter().zip(kj).map(|(&a, &b)| a * b).sum::<f32>() * scale;
    }
    // Same max-shifted log-softmax as `ops::log_softmax_into`, on slices.
    let max = scores_h.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let log_sum: f32 = scores_h.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    for (p, &score) in probs_h.iter_mut().zip(scores_h.iter()) {
        *p = score - max - log_sum;
    }
    for (score, &l) in scores_h.iter_mut().zip(probs_h.iter()) {
        *score = l.exp();
    }
    for (&p, vj) in scores_h.iter().zip(rows.v_rows()) {
        let vj = &vj[off..off + dh];
        for (a, &vv) in attn_h.iter_mut().zip(vj) {
            *a += p * vv;
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

    /// [`KvCache::reset`], reporting how many physical pages actually
    /// rejoined the pool's free list — exclusive pages count fully,
    /// shared leases only when this cache was the last co-owner. This is
    /// the suspend half of a scheduler's preempt/resume cycle: the
    /// return value is what the pool demonstrably got back, which a
    /// caller can log or assert against its own reservation accounting.
    pub fn release_pages(&mut self) -> usize {
        let before = self.pool.pages_in_use();
        self.reset();
        before - self.pool.pages_in_use()
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

    /// Bits pinned by all leased pages (page-granular, what admission
    /// accounts for).
    pub fn resident_bits(&self) -> usize {
        self.layers.iter().map(LayerKv::resident_bits).sum()
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
    use anda_format::bfp::saturate_to_f16;
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
    fn bf16_store_round_trips_to_bf16_precision() {
        use anda_fp::saturate_to_bf16;
        let mut cache = cache_with(KvStorage::Bf16, 2);
        let k = rows(3, 64, 1);
        for r in &k {
            cache.append_row(0, r, r);
        }
        assert_eq!(cache.len(), 3);
        // Same 16-bit row accounting as FP16.
        assert_eq!(KvStorage::Bf16.row_bits(64), KvStorage::Fp16.row_bits(64));
        for (i, r) in k.iter().enumerate() {
            for (a, &b) in cache.layer(0).key(i).iter().zip(r) {
                assert!((a - b).abs() < 1e-2 * b.abs().max(1.0));
                assert_eq!(a.to_bits(), saturate_to_bf16(b).to_f32().to_bits());
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
        // One full page leased: resident == logical here.
        assert_eq!(cache.resident_bits(), cache.storage_bits());
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
        let mut decode = PageDecodeCache::new();
        decode.begin_layer();
        decode.stage_layer(0, cache.layer(1), &mut Vec::new());
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
        for storage in [
            KvStorage::Fp16,
            KvStorage::Bf16,
            KvStorage::Anda { mantissa_bits: 6 },
        ] {
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
            KvStorage::Bf16,
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
