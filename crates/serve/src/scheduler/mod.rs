//! The continuous-batching scheduler.
//!
//! One [`Scheduler`] owns a queue of pending requests, a KV [`PagePool`]
//! and up to `max_batch` active decode streams, each with its own
//! pool-leased [`KvCache`], [`DecodeScratch`] and RNG. Every
//! [`Scheduler::step`] is one engine iteration in the Orca style: admit
//! what fits under the pool's free-page watermark, then move tokens
//! into the KV caches through **one** call — grouped variable-length
//! batched attention ([`Model::decode_hidden_batch`]) over one
//! [`BatchEntry`] span per stream: a one-token span for every decoding
//! stream, a multi-token prompt chunk for every stream still
//! prefilling. One KV-page walk per layer serves the whole batch, each
//! Anda page decodes at most once per step, attend work fans by
//! (stream, head), and a single batched LM-head GEMM follows.
//!
//! Admission is *page-accounted*: each admitted request reserves its
//! worst-case page demand (`n_layers · ceil((prompt + max_new) /
//! page_positions)`), so the pool can never be exhausted mid-flight, and
//! a retired stream's pages go straight back to the free list for the
//! next admission. With an Anda storage policy the same memory budget
//! holds `16 / (M + 1 + 5/64)` times more pages, so batches whose FP16
//! KV would not fit are admitted — the long-context headroom of §VI.
//!
//! Shared prompt prefixes compose with both, through one store: a
//! page-granular [`RadixTree`] over token sequences. Every admission
//! matches its prompt against the tree, forks the longest cached
//! whole-page prefix ([`KvCache::fork_prefix`]: a refcounted page-table
//! clone, no row copies) and prefills only the uncovered suffix
//! ([`SchedulerStats::cache_hit_tokens`] counts the skipped positions);
//! the watermark charges the stream only its *unshared* worst-case
//! pages — so N streams over a P-position prefix cost `pages(P) +
//! N·pages(private)`, not `N·pages(P + private)`, in compressed pages
//! when the policy is `Anda{m}`. A prefix enters the tree *declared* —
//! [`Scheduler::pin_prefix`] prefills it once and pins its node, which
//! eviction then skips until [`Scheduler::unpin_prefix`] — or
//! *discovered*: with [`SchedulerConfig::auto_prefix`] every prompt is
//! inserted the step it finishes prefilling, and under page pressure
//! the admission loop evicts least-recently-used unreferenced leaves
//! before giving up ([`SchedulerStats::radix_evictions`]).
//!
//! One watermark covers all of it, evaluated in one place (the
//! `ledger` submodule): `pinned + reserved + resident + demand <=
//! capacity`, where `pinned` and `resident` are the tree's two disjoint
//! page totals (on pinned paths / evictable) and `reserved` is the
//! active streams' worst-case unshared demand. The `admission`
//! submodule holds the class queues, victim choice and the admission
//! of one work item; this file the public types, [`Scheduler::step`]
//! and retirement.
//!
//! The third consumer of the same fork mechanism is mid-stream:
//! [`Parallel`](crate::SamplingMode::Parallel) /
//! [`BestOf`](crate::SamplingMode::BestOf) requests prefill their
//! prompt once, then fork the live cache at its decode position
//! ([`KvCache::fork_full`]) into `n` sibling streams whose divergent
//! tails isolate copy-on-write — the prompt's KV is charged once, and
//! each sample is bit-identical to a standalone request seeded with
//! `seed + sample_index`. Siblings hold their slots from admission and
//! fork the step the primary's last chunk lands; each one's first draw
//! comes off the batched LM head from the primary's hidden state.
//!
//! Prefill is schedulable work, not an admission-time stall: admission
//! only takes a slot and a page reservation, and the prompt is worked
//! off as spans — each step grants up to
//! [`SchedulerConfig::prefill_chunk_tokens`] prompt tokens to
//! still-prefilling streams (slot order) and packs them into the *same*
//! grouped batch as every active stream's one-token decode, so chunk
//! attention shares the per-step page-decode cache. Under a bounded
//! budget no decode stream ever waits on a long prompt; `None` is the
//! unbounded budget — every admitted prompt lands whole, in one span,
//! the step it is admitted. A stream samples nothing until its final
//! chunk lands; that same step the last prompt position's hidden state
//! flows straight into the batched LM head, and **the prompt becomes
//! shareable** — it enters the radix tree under `auto_prefix`, so a
//! same-prompt request admitted in a later step hits it, while one
//! admitted in the same step prefills its own copy. The tokens a stream
//! produces are bit-identical whatever the budget.
//!
//! # Priority, fairness and preemption
//!
//! Every request carries a [`Priority`] class. Pending work is queued
//! per class and admitted by *weighted round-robin* (`High:Normal:Low =
//! 4:2:1`, a fixed interleaved schedule), so high-class traffic gets
//! the lion's share of admission grants under contention while low
//! classes are starvation-bounded: a non-empty class's head is offered
//! admission within at most 6 grants to the other classes. Within a
//! class, admission stays FIFO with no overtaking — a blocked class
//! head blocks the admission loop, so an accepted request is guaranteed
//! to be served.
//!
//! When a blocked arrival *strictly outranks* an active stream and
//! [`SchedulerConfig::preemption`] is on, the scheduler **suspends a
//! victim** instead of waiting: the lowest-priority (then
//! most-page-holding) single-sample stream is unscheduled, its KV pages
//! are released back to the pool ([`KvCache::reset`]), and its
//! tokens-so-far plus its live RNG are parked as a resumable work item
//! at the *front* of its class queue. Resume *is* admission of a longer
//! prompt: the full generated-so-far sequence re-prefills into a fresh
//! cache through the same spans — bit-exact because prefill and decode
//! write identical KV rows, and the saved RNG continues where it left
//! off, so a suspended-and-resumed stream emits exactly the tokens of a
//! never-preempted twin. Multi-sample groups are never preempted (their
//! shared-page ledger is not suspendable), and a victim is only chosen
//! if its resume demand fits the pool, so every suspended stream
//! eventually finishes.

mod admission;
mod ledger;

use std::collections::{HashMap, HashSet};

use anda_llm::kv::{KvPoolConfig, PageDecodeCache, PagePool};
use anda_llm::model::{BatchEntry, BatchOutput};
use anda_llm::{DecodeScratch, KvCache, Model};
use anda_tensor::Rng;
use rayon_lite::ThreadPool;

use self::admission::{ClassQueues, WorkItem};
use self::ledger::PageLedger;
use crate::radix::{NodeId, RadixTree};
use crate::request::{FinishReason, FinishedRequest, Priority, Request, RequestId, SamplingParams};

/// Admission policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Maximum number of concurrently active decode streams (slots).
    pub max_batch: usize,
    /// Geometry and storage policy of the KV page pool every stream
    /// leases from. `kv.max_pages` is the admission resource: each
    /// admitted request reserves its worst-case page demand
    /// ([`Request::reserve_tokens`] rounded up to pages, per layer), so
    /// the cache footprint can never outgrow the pool mid-flight.
    /// `None` admits on slots alone.
    pub kv: KvPoolConfig,
    /// Automatic prefix caching: insert every prompt into the radix tree
    /// the step it finishes prefilling, so later prompts fork its
    /// longest cached whole-page prefix with no
    /// [`Scheduler::pin_prefix`] call. The knob gates only *insertion*
    /// — every admission looks the tree up either way, which is how
    /// pinned prefixes are found. Cold tree leaves are evicted LRU under
    /// page pressure. Default `false`: retained prompts outlive their
    /// source streams, so a drained pool intentionally keeps
    /// cache-resident pages — opt-in for workloads with prompt reuse.
    pub auto_prefix: bool,
    /// Per-step prompt-token budget. Admission never prefills: each step
    /// packs up to the budget's worth of prompt tokens from
    /// admitted-but-unprefilled streams (slot order, at least one token
    /// per step so admission always progresses) *alongside* the
    /// one-token decode of every active stream, all through the same
    /// grouped batched step — so under `Some(budget)` a long prompt
    /// arrival costs co-scheduled streams at most the marginal chunk
    /// compute per step. `None` (the default) is the unbounded budget:
    /// every prompt lands whole the step it is admitted, and the prompt
    /// tokens co-scheduled streams waited on are counted in
    /// [`SchedulerStats::stalled_prefill_tokens`]. A prefilling stream
    /// occupies its full reserved pages but samples nothing until its
    /// last chunk lands (that step it joins the batched LM head like
    /// any decoding stream, enters the radix tree under `auto_prefix`,
    /// and — for a multi-sample request — forks its siblings). Token
    /// streams are bit-exact whatever the budget; the knob only reorders
    /// when prompt compute happens.
    pub prefill_chunk_tokens: Option<usize>,
    /// Preemption under pressure: when an arrival that *strictly
    /// outranks* an active single-sample stream cannot be admitted (no
    /// free slot, or the page watermark is exceeded even after radix
    /// eviction), suspend the lowest-priority, most-page-holding victim
    /// — release its KV pages, park its tokens-so-far and RNG — and
    /// resume it later by re-prefilling its full generated-so-far
    /// sequence through the same spans (bit-exact; see the module
    /// docs). `false` makes a blocked arrival wait instead, whatever its
    /// class. Default
    /// `true`; with single-class (all-[`Priority::Normal`]) traffic
    /// preemption never triggers, so uniform workloads behave exactly
    /// as before either way.
    pub preemption: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch: 8,
            kv: KvPoolConfig::default(),
            auto_prefix: false,
            prefill_chunk_tokens: None,
            preemption: true,
        }
    }
}

/// Why [`Scheduler::submit`] rejected a request up front. Rejecting
/// unservable requests at submission (rather than queuing them) is what
/// keeps admission — weighted round-robin over the priority classes,
/// FIFO within a class — starvation-bounded: a class head that blocks
/// the loop always fits once enough earlier streams finish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The prompt was empty.
    EmptyPrompt,
    /// A prompt (or EOS) token id is outside the model's vocabulary.
    TokenOutOfVocab {
        /// The offending token.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// `prompt + max_new` exceeds the model's `max_seq`.
    ExceedsMaxSeq {
        /// Requested worst-case length.
        total: usize,
        /// The model's maximum sequence length.
        max_seq: usize,
    },
    /// The request's worst-case KV page demand exceeds the pool's raw
    /// capacity: it could **never** be admitted, no matter what else
    /// drains or is released. Permanent — resubmitting is pointless.
    ExceedsPoolCapacity {
        /// Worst-case unshared page demand across all layers.
        pages: usize,
        /// The pool's total capacity in pages.
        capacity: usize,
    },
    /// The demand would fit an empty pool, but not beside what is
    /// currently *pinned* ([`Scheduler::pin_prefix`] holds pages until
    /// the matching unpin) — or, for a pin, beside the work already
    /// accepted. Transient — retrying after an
    /// [`Scheduler::unpin_prefix`] or once the queue drains can succeed.
    PoolSaturated {
        /// Worst-case unshared page demand across all layers.
        pages: usize,
        /// Capacity currently available to it (total minus pinned
        /// pages, for a pin also minus accepted work).
        available: usize,
    },
    /// A multi-sample mode requested zero samples.
    InvalidSampleCount,
    /// A multi-sample request wants more concurrent sibling streams than
    /// the scheduler has slots, so its group could never be admitted
    /// whole (sibling forks must all decode concurrently to share the
    /// prompt cache).
    SamplesExceedBatch {
        /// Requested sample count.
        n: usize,
        /// The scheduler's slot count.
        max_batch: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SubmitError::EmptyPrompt => write!(f, "prompt must not be empty"),
            SubmitError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token {token} out of vocab {vocab}")
            }
            SubmitError::ExceedsMaxSeq { total, max_seq } => {
                write!(f, "prompt + max_new = {total} exceeds max_seq {max_seq}")
            }
            SubmitError::ExceedsPoolCapacity { pages, capacity } => {
                write!(
                    f,
                    "worst-case KV demand of {pages} pages exceeds the pool's total {capacity} \
                     (can never fit)"
                )
            }
            SubmitError::PoolSaturated { pages, available } => {
                write!(
                    f,
                    "worst-case KV demand of {pages} pages exceeds the {available} currently \
                     unpinned (retry after unpinning a prefix)"
                )
            }
            SubmitError::InvalidSampleCount => {
                write!(f, "sampling mode must request at least one sample")
            }
            SubmitError::SamplesExceedBatch { n, max_batch } => {
                write!(
                    f,
                    "{n} parallel samples exceed the scheduler's {max_batch} slots"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`Scheduler::cancel`] (or a handle operation on a cancelled
/// request) failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CancelError {
    /// The id was never issued by this scheduler, or its result has
    /// already been drained.
    Unknown(RequestId),
    /// The request already finished; its results are (or were)
    /// available.
    AlreadyFinished(RequestId),
    /// The request was already cancelled.
    Cancelled(RequestId),
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelError::Unknown(id) => write!(f, "{id} is not live on this scheduler"),
            CancelError::AlreadyFinished(id) => write!(f, "{id} already finished"),
            CancelError::Cancelled(id) => write!(f, "{id} was already cancelled"),
        }
    }
}

impl std::error::Error for CancelError {}

/// What a successful [`Scheduler::cancel`] tore down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cancelled {
    /// The request was still queued; its queue slot was freed.
    Pending,
    /// The request was actively decoding; all its streams (the whole
    /// sibling group for multi-sample requests) were retired and their
    /// pages released this very step.
    Active {
        /// Streams retired (the group size for multi-sample requests).
        streams: usize,
    },
    /// The request was suspended by preemption; its parked resume item
    /// was dropped.
    Suspended,
}

/// Where a live request currently is in the engine lifecycle
/// (`Pending → Prefilling → Decoding ⇄ Suspended → Finished`); see
/// [`Scheduler::status`]. `Finished`/`Cancelled` are not *live* states
/// — the scheduler reports `None` for them, and the [`Engine`] layers
/// its own bookkeeping on top.
///
/// [`Engine`]: crate::Engine
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// Queued, not yet admitted.
    Pending,
    /// Admitted and working off its prompt (or, for a resumed stream,
    /// its whole generated-so-far sequence) under the per-step budget.
    Prefilling,
    /// Actively decoding one token per step.
    Decoding,
    /// Preempted: pages released, parked for resume.
    Suspended,
}

/// One coherent view of the scheduler's page accounting
/// ([`Scheduler::pool_snapshot`]), read at one instant. The three
/// charges are disjoint summands: the admission watermark keeps
/// `pinned_pages + reserved_pages + radix_resident_pages <= capacity`
/// and physical usage satisfies `pages_in_use <= pinned_pages +
/// reserved_pages + radix_resident_pages` (reservations are
/// worst-case).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Pool capacity in pages (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Physical pages ever created by the pool.
    pub pages_created: usize,
    /// Physical pages currently leased out.
    pub pages_in_use: usize,
    /// Pages on the free list awaiting reuse.
    pub pages_free: usize,
    /// Radix-tree pages on pinned paths ([`Scheduler::pin_prefix`]):
    /// never evicted while pinned.
    pub pinned_pages: usize,
    /// Worst-case pages reserved by active streams and live sampling
    /// groups (unshared demand).
    pub reserved_pages: usize,
    /// The rest of the radix tree's pages: cached prefixes no pin
    /// covers, evictable once no live stream holds them.
    pub radix_resident_pages: usize,
    /// KV positions actually cached right now across active streams.
    pub cached_tokens: usize,
}

/// One coherent view of the prefix store
/// ([`Scheduler::prefix_cache_snapshot`]): radix-tree shape plus its
/// hit and eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixCacheSnapshot {
    /// Nodes currently in the radix tree.
    pub nodes: usize,
    /// Pages the tree holds outside pinned paths — the same figure as
    /// [`PoolSnapshot::radix_resident_pages`].
    pub resident_pages: usize,
    /// Nodes evicted (page pressure, unpins, flushes), cumulative.
    pub evictions: u64,
    /// Prompt positions served from the tree instead of prefilled,
    /// cumulative.
    pub hit_tokens: u64,
}

/// Aggregate counters, mostly for benches and capacity tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    /// Engine iterations run.
    pub steps: u64,
    /// Tokens sampled across all streams (the serving throughput
    /// numerator).
    pub sampled_tokens: u64,
    /// Prompt tokens prefilled.
    pub prefill_tokens: u64,
    /// Most streams ever active in one iteration.
    pub peak_active: usize,
    /// Most KV pages ever leased from the pool at once. Physical,
    /// deduplicated pages: a prefix page shared by N streams counts
    /// once, which is exactly the memory win prefix sharing buys.
    pub peak_pages_in_use: usize,
    /// Streams admitted by forking a cached prefix out of the radix
    /// tree — a pinned one or a discovered one, counted alike (each
    /// skipped re-prefilling the forked positions).
    pub prefix_forks: u64,
    /// Compressed (Anda) KV pages decoded by the grouped batched-attention
    /// read path, cumulative across steps. Each physical page counts at
    /// most once per layer per step regardless of how many streams attend
    /// through it — the decode-once guarantee the `grouped_attention`
    /// tests pin. Stays 0 under float policies (pages read in place).
    pub pages_decoded: u64,
    /// Prompt positions served from the radix tree instead of
    /// prefilled — hits on pinned prefixes and on discovered ones,
    /// counted alike. The hit-rate numerator: `cache_hit_tokens /
    /// (cache_hit_tokens + prefill_tokens)` is the fraction of prompt
    /// work the tree absorbed.
    pub cache_hit_tokens: u64,
    /// Radix-tree nodes evicted — LRU leaves with no live forks and no
    /// pin under page pressure, an unpinned prefix's path, a flush —
    /// cumulative.
    pub radix_evictions: u64,
    /// Sibling streams admitted by forking a live cache at its decode
    /// position for [`Parallel`](crate::SamplingMode::Parallel) /
    /// [`BestOf`](crate::SamplingMode::BestOf) requests (the primary
    /// stream of a group is not counted — it prefilled).
    pub sample_forks: u64,
    /// Prefill chunks packed into steps (one per stream per step granted
    /// budget), cumulative.
    pub prefill_chunks: u64,
    /// Prompt tokens granted under an *unbounded* budget
    /// ([`SchedulerConfig::prefill_chunk_tokens`]` = None`) in a step
    /// that also carried at least one other active stream — each one a
    /// token's worth of stall imposed on every co-scheduled stream. A
    /// bounded budget caps the per-step stall at the budget and keeps
    /// this at 0.
    pub stalled_prefill_tokens: u64,
    /// Streams suspended by preemption (pages released, parked for
    /// resume), cumulative.
    pub preemptions: u64,
    /// Suspended streams re-admitted (each re-prefilled its full
    /// generated-so-far sequence), cumulative. At drain this equals
    /// [`SchedulerStats::preemptions`] minus cancelled suspensions.
    pub resumes: u64,
    /// Tokens re-prefilled by resumes — the compute cost preemption
    /// paid for its memory reclamation (these positions had already
    /// been prefilled or decoded once before the suspend).
    pub resumed_prefill_tokens: u64,
    /// Requests cancelled via [`Scheduler::cancel`] (each one counted
    /// once, whether it was pending, active, or suspended).
    pub cancelled: u64,
}

/// What a stream is decoding, independent of where its KV lives:
/// everything needed to continue bit-exactly except the pages. This is
/// also the parked form of a preempted stream — the token prefix
/// (prompt + generated-so-far) is re-prefilled at resume, writing the
/// identical KV rows decode did, and the live RNG continues, so the
/// resumed stream's remaining tokens match a never-preempted twin's
/// exactly.
struct Sequence {
    id: RequestId,
    /// Prompt followed by the tokens generated so far (the last one's
    /// KV row is not yet appended — exactly the state a decode step
    /// continues from).
    tokens: Vec<usize>,
    prompt_len: usize,
    max_new: usize,
    eos: Option<usize>,
    sampling: SamplingParams,
    /// Admission class; decides preemption rank (only strictly
    /// lower-priority streams may be suspended for an arrival).
    priority: Priority,
    /// Mid-stream across a suspend: resume must draw the same samples
    /// the uninterrupted stream would have.
    rng: Rng,
}

/// One active stream: a [`Sequence`] holding a slot and KV pages.
struct Stream {
    seq: Sequence,
    cache: KvCache,
    scratch: DecodeScratch,
    /// KV pages reserved against the pool for this stream (worst-case
    /// *unshared* pages — whole pages forked out of the radix tree are
    /// the tree's charge, not this stream's).
    reserved_pages: usize,
    /// The radix-tree node this stream's cache was forked from (or, for
    /// sampling siblings, that its group's primary forked from); holds
    /// an acquire on the node so eviction cannot drop it mid-decode.
    radix_node: Option<NodeId>,
    /// The sampling group this stream belongs to (keyed by the shared
    /// request id), when it was admitted as one of `n > 1` samples.
    group: Option<u64>,
    /// Which sample of its group this stream is (`0` for singles and
    /// group primaries); its RNG was seeded with `seed + sample_index`.
    sample_index: usize,
    /// Σ `ln softmax(logits)[token]` over generated tokens, accumulated
    /// in `f64` — the best-of selection score. Only maintained for
    /// grouped streams (singles skip the log-softmax work).
    cum_logprob: f64,
    /// A sampling sibling whose group primary (in this slot) is still
    /// prefilling: it holds its slot with an empty cache, forks the
    /// primary's the step the last chunk lands, and draws its first
    /// token from the primary's hidden state. `None` for every other
    /// stream, and for siblings once forked.
    awaits_primary: Option<usize>,
    /// Prefill cursor: positions `[0, cursor)` of `seq.tokens` are
    /// cached (the fork depth at admission, then advanced by each
    /// granted chunk); `None` once `prefill_target` is reached. A `Some`
    /// stream decodes nothing and samples nothing; it only consumes
    /// granted chunk budget.
    prefill_cursor: Option<usize>,
    /// Positions the cursor must reach before this stream samples:
    /// `prompt_len` for a new request, the whole generated-so-far
    /// sequence for a resumed one (which must never re-enter the radix
    /// tree — its "prompt" isn't one).
    prefill_target: usize,
    /// Prompt tokens granted to this stream by the current step's budget
    /// packing (chunk start is the cursor); 0 outside a step or when
    /// budget-starved.
    step_chunk: usize,
    done: Option<FinishReason>,
}

/// Shared bookkeeping of one multi-sample request's sibling streams.
struct GroupState {
    /// Page reservation for the prompt's whole pages, charged once for
    /// the group (each member additionally reserves its private tail
    /// pages) and released only when the **last** member retires — the
    /// physical prompt pages stay leased as long as any sibling shares
    /// them, regardless of retirement order.
    shared_pages: usize,
    /// Members still decoding.
    remaining: usize,
    /// Report only the best completion (vs every completion).
    best_of: bool,
    /// Finished candidates awaiting best-of selection (unused for
    /// parallel mode, which reports each sample as it finishes).
    collected: Vec<FinishedRequest>,
}

/// A pinned prefix ([`Scheduler::pin_prefix`]), to be handed back to
/// [`Scheduler::unpin_prefix`] on the scheduler that issued it.
/// Move-only, so a pin can be dropped from the tree at most once.
#[derive(Debug)]
#[must_use = "dropping the token leaves the prefix pinned for the scheduler's lifetime"]
pub struct PrefixPin {
    /// The pinned radix node (`None`: the prefix is shorter than a page
    /// and pinned nothing).
    node: Option<NodeId>,
    pages: usize,
}

impl PrefixPin {
    /// KV pages of the pinned prefix across all layers: `n_layers ·
    /// ⌊tokens / page_positions⌋` (0 for a sub-page prefix).
    pub fn pages(&self) -> usize {
        self.pages
    }
}

/// Continuous-batching request scheduler over [`Model::decode_step`]-style
/// incremental inference with pool-paged KV storage.
///
/// Admission is weighted round-robin over the [`Priority`] classes and
/// FIFO within a class (see the module docs): only a class's queue head
/// is ever admitted — no overtaking inside a class, a bounded wait
/// between classes — into the first free slot, reusing a retired
/// stream's `KvCache`/`DecodeScratch` allocations and recycled pages; a
/// head that strictly outranks an active stream may suspend it instead
/// of waiting. Every [`Scheduler::step`] is one iteration: each decoding
/// stream advances one token and each stream still prefilling takes its
/// share of the step's prompt-token budget.
///
/// # Determinism
///
/// Each stream's output is bit-identical to running its request alone
/// through [`Model::generate_with_cache`] on a same-policy cache, with an
/// RNG seeded by its [`SamplingParams::seed`] — regardless of batch
/// composition, arrival order, page size, or thread count. See
/// `tests/batched_exact.rs` and `tests/paged_kv.rs`.
pub struct Scheduler<'a> {
    model: &'a Model,
    pool: &'a ThreadPool,
    cfg: SchedulerConfig,
    /// The KV page pool every stream's cache leases from.
    kv_pool: PagePool,
    /// Accepted work not holding a slot: new requests and suspended
    /// streams, per priority class.
    pending: ClassQueues,
    slots: Vec<Option<Stream>>,
    /// Retired caches awaiting reuse by admissions that miss the radix
    /// tree (their pages are already back on the pool's free list; a
    /// hit builds its cache by forking the tree's).
    spare_caches: Vec<KvCache>,
    /// Retired scratches awaiting reuse by any future admission.
    spare_scratches: Vec<DecodeScratch>,
    /// The prefix store: page-granular radix tree over pinned prefixes
    /// and, under `auto_prefix`, every landed prompt.
    radix: RadixTree,
    /// Pool capacity and stream reservations — with the tree's pinned
    /// and resident totals, the admission watermark.
    ledger: PageLedger,
    /// Live multi-sample groups by request id.
    groups: HashMap<u64, GroupState>,
    batch: BatchOutput,
    /// The page walk's tile scratch and decode counter for grouped
    /// batched attention (shared prefix pages decode once per step).
    decode_cache: PageDecodeCache,
    finished: Vec<FinishedRequest>,
    /// Ids torn down by [`Scheduler::cancel`]: a repeated cancel
    /// reports [`CancelError::Cancelled`] instead of `Unknown`.
    cancelled: HashSet<RequestId>,
    next_id: u64,
    stats: SchedulerStats,
}

impl<'a> Scheduler<'a> {
    /// A scheduler over `model` using the global thread pool.
    pub fn new(model: &'a Model, cfg: SchedulerConfig) -> Self {
        Self::with_pool(model, cfg, rayon_lite::global())
    }

    /// A scheduler batching on an explicit pool (tests pin thread counts
    /// this way; production uses [`Scheduler::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero, the page size is zero, or an Anda
    /// policy has invalid mantissa bits.
    pub fn with_pool(model: &'a Model, cfg: SchedulerConfig, pool: &'a ThreadPool) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let kv_pool = PagePool::new(cfg.kv);
        Scheduler {
            model,
            pool,
            cfg,
            pending: ClassQueues::default(),
            slots: Vec::new(),
            spare_caches: Vec::new(),
            spare_scratches: Vec::new(),
            radix: RadixTree::new(cfg.kv.page_positions, model.config().n_layers),
            ledger: PageLedger::new(kv_pool.capacity()),
            kv_pool,
            groups: HashMap::new(),
            batch: BatchOutput::new(),
            decode_cache: PageDecodeCache::new(),
            finished: Vec::new(),
            cancelled: HashSet::new(),
            next_id: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// Worst-case KV page demand `request` would be charged right now,
    /// across all layers — what [`Scheduler::submit`] checks against the
    /// pool. The prompt's whole pages cached along **pinned** paths are
    /// discounted (they cannot be evicted before admission, and a
    /// request may fit only thanks to them); discovered cache is not —
    /// it may be gone by then, so admission, which discounts its actual
    /// match, only ever needs *less*.
    pub fn pages_needed(&self, request: &Request) -> usize {
        let prompt = &request.prompt;
        let pinned = self
            .radix
            .pinned_depth(prompt, prompt.len().saturating_sub(1));
        self.demand(
            prompt.len(),
            request.max_new,
            request.mode.samples(),
            pinned,
        )
    }

    /// The *single* place the page math lives: the worst-case demand of
    /// a `prompt_len`-token prompt generating up to `max_new` tokens
    /// `samples` times over, with its first `shared_depth` positions (a
    /// whole-page multiple) arriving as a fork of radix-tree pages.
    ///
    /// Per stream the demand is `n_layers · pages(prompt + max_new)`
    /// minus every page the fork covers — the tree charges those. A
    /// multi-sample request additionally charges `samples - 1` sibling
    /// tails: each sibling forks the primary's live cache after
    /// prefill, sharing every whole prompt page, so only its pages
    /// *beyond* the prompt's whole pages multiply. With one sample and
    /// nothing shared this is also what resuming a suspended stream
    /// costs: its worst-case length is `prompt_len + max_new` however
    /// much of it was generated before the suspend.
    fn demand(
        &self,
        prompt_len: usize,
        max_new: usize,
        samples: usize,
        shared_depth: usize,
    ) -> usize {
        let primary = self.pages_beyond(prompt_len, max_new, shared_depth);
        primary + samples.saturating_sub(1) * self.member_tail_pages(prompt_len, max_new)
    }

    /// Pages one member of a multi-sample group reserves privately: its
    /// worst-case pages beyond the prompt's whole, group-shared pages.
    fn member_tail_pages(&self, prompt_len: usize, max_new: usize) -> usize {
        self.pages_beyond(prompt_len, max_new, prompt_len)
    }

    /// `n_layers · (pages(prompt + max_new) − ⌊shared / page⌋)`: a
    /// stream's worst-case pages past the `shared` positions others
    /// hold for it. Saturating: the discounts are derived quantities,
    /// and an accounting bound must clamp rather than underflow-panic
    /// at boundary geometries.
    fn pages_beyond(&self, prompt_len: usize, max_new: usize, shared: usize) -> usize {
        let total = self.cfg.kv.pages_for(prompt_len.saturating_add(max_new));
        self.model.config().n_layers * total.saturating_sub(shared / self.cfg.kv.page_positions)
    }

    /// `tokens` as the start of a servable sequence that may grow to
    /// `total` positions: non-empty, in-vocab, within `max_seq`.
    fn check_sequence(&self, tokens: &[usize], total: usize) -> Result<(), SubmitError> {
        if tokens.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        let (vocab, max_seq) = (self.model.config().vocab, self.model.config().max_seq);
        if let Some(&token) = tokens.iter().find(|&&t| t >= vocab) {
            return Err(SubmitError::TokenOutOfVocab { token, vocab });
        }
        if total > max_seq {
            return Err(SubmitError::ExceedsMaxSeq { total, max_seq });
        }
        Ok(())
    }

    /// Whether `pages` could ever be claimed beside the pinned pages
    /// and `others`. Two distinct refusals: a demand beyond the *raw*
    /// capacity can never be served (permanent), one beyond what the
    /// pins and `others` leave could fit later (transient).
    fn check_fits(&self, others: usize, pages: usize) -> Result<(), SubmitError> {
        if let Some(capacity) = self.ledger.capacity().filter(|&c| pages > c) {
            return Err(SubmitError::ExceedsPoolCapacity { pages, capacity });
        }
        match self.ledger.short_beside(&self.radix, others, pages) {
            0 => Ok(()),
            short => Err(SubmitError::PoolSaturated {
                pages,
                available: pages.saturating_sub(short),
            }),
        }
    }

    /// Queues a request, validating it is servable under this model and
    /// pool as currently pinned. Accepted requests are guaranteed to
    /// terminate with exactly `min(max_new, first EOS position + 1)`
    /// generated tokens.
    pub fn submit(&mut self, request: Request) -> Result<RequestId, SubmitError> {
        self.check_sequence(&request.prompt, request.reserve_tokens())?;
        let vocab = self.model.config().vocab;
        if let Some(eos) = request.eos.filter(|&eos| eos >= vocab) {
            return Err(SubmitError::TokenOutOfVocab { token: eos, vocab });
        }
        let n = request.mode.samples();
        if n == 0 {
            return Err(SubmitError::InvalidSampleCount);
        }
        if n > self.cfg.max_batch {
            return Err(SubmitError::SamplesExceedBatch {
                n,
                max_batch: self.cfg.max_batch,
            });
        }
        self.check_fits(0, self.pages_needed(&request))?;
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.pending.push_back(WorkItem {
            seq: Sequence {
                id,
                prompt_len: request.prompt.len(),
                tokens: request.prompt,
                max_new: request.max_new,
                eos: request.eos,
                sampling: request.sampling,
                priority: request.priority,
                rng: Rng::new(request.sampling.seed),
            },
            mode: request.mode,
            resumed: false,
        });
        Ok(id)
    }

    /// Declares `tokens` a shared prefix: its whole pages are prefilled
    /// **once**, inserted into the radix tree and pinned — never evicted
    /// until [`Scheduler::unpin_prefix`] — so every request whose prompt
    /// starts with them is admitted by *forking* those pages (page-table
    /// clones over refcounted pages, no row copies, no re-prefill) and
    /// charged only its unshared demand. Requests name nothing: they
    /// carry their full prompt and admission finds the prefix by lookup.
    ///
    /// Pins are page-granular: `P` tokens pin `n_layers · ⌊P / pp⌋`
    /// pages ([`PrefixPin::pages`]) and each stream prefills the
    /// remaining `P mod pp` tokens itself; a prefix shorter than a page
    /// pins nothing. Whatever part of the prefix the tree already holds
    /// is reused, not prefilled again.
    ///
    /// The pin is counted like a permanent reservation, so it is refused
    /// ([`SubmitError::PoolSaturated`]) unless its not-yet-pinned pages
    /// fit beside every reserved stream page — the immediate prefill
    /// cannot exhaust the pool mid-flight — *and* beside the worst
    /// pending work item's demand, so a pin can never strand work that
    /// was already accepted.
    pub fn pin_prefix(&mut self, tokens: &[usize]) -> Result<PrefixPin, SubmitError> {
        self.check_sequence(tokens, tokens.len())?;
        let pp = self.cfg.kv.page_positions;
        let n_layers = self.model.config().n_layers;
        let tokens = &tokens[..tokens.len() / pp * pp];
        let pages = n_layers * (tokens.len() / pp);
        if pages == 0 {
            return Ok(PrefixPin { node: None, pages });
        }
        let unpinned = pages - n_layers * (self.radix.pinned_depth(tokens, tokens.len()) / pp);
        let worst_pending = self
            .pending
            .iter()
            .map(|WorkItem { seq, mode, resumed }| {
                let pinned = if *resumed {
                    0
                } else {
                    self.radix.pinned_depth(&seq.tokens, seq.tokens.len() - 1)
                };
                self.demand(seq.prompt_len, seq.max_new, mode.samples(), pinned)
            })
            .max()
            .unwrap_or(0);
        self.check_fits(self.ledger.reserved().max(worst_pending), unpinned)?;

        // The sequence admission runs, without a stream: fork the cached
        // part, prefill the rest as one span, insert, pin.
        let hit = self.radix.lookup(tokens, tokens.len());
        let cached = hit.map_or(0, |m| m.depth);
        let uncovered = n_layers * ((tokens.len() - cached) / pp);
        // Short only when live streams hold cache nothing can evict.
        let mut cache =
            self.claim(hit, None, uncovered)
                .map_err(|short| SubmitError::PoolSaturated {
                    pages: uncovered,
                    available: uncovered.saturating_sub(short),
                })?;
        if cached < tokens.len() {
            let mut scratch = self.spare_scratches.pop().unwrap_or_default();
            let mut span = [BatchEntry {
                tokens: &tokens[cached..],
                pos: cached,
                cache: &mut cache,
                scratch: &mut scratch,
            }];
            self.model
                .decode_hidden_batch(&mut span, &mut self.decode_cache, self.pool);
            self.spare_scratches.push(scratch);
            self.stats.prefill_tokens += (tokens.len() - cached) as u64;
        }
        // The tree forks what it keeps; the builder cache dies here.
        let node = self
            .radix
            .insert(tokens, &mut cache)
            .expect("at least one whole page");
        self.radix.pin(node);
        if let Some(m) = hit {
            self.radix.release(m.node);
        }
        self.stats.peak_pages_in_use = self
            .stats
            .peak_pages_in_use
            .max(self.kv_pool.pages_in_use());
        Ok(PrefixPin {
            node: Some(node),
            pages,
        })
    }

    /// Drops `pin` and returns the pages that stopped being pinned (a
    /// page another pin still covers stays pinned). Infallible, whoever
    /// depends on the prefix: nodes no live stream reads are evicted at
    /// once, the rest stay behind as ordinary evictable cache, and a
    /// queued request that was accepted on the pin's discount `s` still
    /// fits — `d − s ≤ capacity − pinned` at submit gives `d ≤ capacity
    /// − (pinned − s)` now — it just prefills the prefix itself.
    pub fn unpin_prefix(&mut self, pin: PrefixPin) -> usize {
        let Some(node) = pin.node else { return 0 };
        let before = self.radix.pinned_pages();
        self.radix.unpin(node);
        self.radix.evict_path(node);
        before - self.radix.pinned_pages()
    }

    /// Runs one engine iteration: admit whatever fits, grant this step's
    /// prompt-token budget ([`SchedulerConfig::prefill_chunk_tokens`]),
    /// then advance every stream through one grouped batched call — a
    /// prompt chunk for each granted prefilling stream, one token for
    /// each decoding stream — followed by one batched LM-head dispatch.
    /// Returns the number of tokens sampled this iteration.
    pub fn step(&mut self) -> usize {
        if self.is_idle() {
            return 0;
        }
        self.stats.steps += 1;
        self.admit();

        // Budget packing: grant this step's prompt-token budget to
        // still-prefilling streams in slot order. A bounded budget is
        // clamped to at least 1 so the head of the prefill line always
        // advances; decode streams are untouched — their one-token
        // spans share the batch (and the page-decode cache) with the
        // chunks below.
        let mut chunk_budget = self
            .cfg
            .prefill_chunk_tokens
            .map_or(usize::MAX, |b| b.max(1));
        let mut chunk_tokens = 0usize;
        for stream in self.slots.iter_mut().flatten() {
            let cursor = stream.prefill_cursor.unwrap_or(stream.prefill_target);
            stream.step_chunk = (stream.prefill_target - cursor).min(chunk_budget);
            chunk_budget -= stream.step_chunk;
            chunk_tokens += stream.step_chunk;
        }
        if self.cfg.prefill_chunk_tokens.is_none() && self.active_len() > 1 {
            self.stats.stalled_prefill_tokens += chunk_tokens as u64;
        }

        // One span per stream with work this step: the granted chunk of
        // a prefilling stream, the last sampled token of a decoding one.
        // Budget-starved streams and unforked siblings sit the step out.
        let mut entries: Vec<BatchEntry<'_>> = self
            .slots
            .iter_mut()
            .flatten()
            .filter_map(|stream| {
                let (pos, span) = match stream.prefill_cursor {
                    Some(cursor) => (cursor, stream.step_chunk),
                    None if stream.awaits_primary.is_some() => return None,
                    None => (stream.seq.tokens.len() - 1, 1),
                };
                (span > 0).then_some(BatchEntry {
                    tokens: &stream.seq.tokens[pos..pos + span],
                    pos,
                    cache: &mut stream.cache,
                    scratch: &mut stream.scratch,
                })
            })
            .collect();
        self.model
            .decode_hidden_batch(&mut entries, &mut self.decode_cache, self.pool);

        // Advance the cursors for the chunks just landed. A stream
        // whose final chunk completed flips to decode mode *this step*:
        // its last prompt position's hidden state is already in
        // scratch, so it flows into the batched LM head below and
        // samples its first token now.
        for stream in self.slots.iter_mut().flatten() {
            let take = std::mem::take(&mut stream.step_chunk);
            if take == 0 {
                continue;
            }
            let cursor = stream
                .prefill_cursor
                .expect("granted budget implies a cursor")
                + take;
            self.stats.prefill_tokens += take as u64;
            self.stats.prefill_chunks += 1;
            if cursor < stream.prefill_target {
                stream.prefill_cursor = Some(cursor);
                continue;
            }
            stream.prefill_cursor = None;
            // The completed prompt enters the prefix cache only now, so
            // the tree never serves a partially prefilled prefix.
            // Resumed streams (`prefill_target > prompt_len`) stay out:
            // their re-prefilled sequence includes generated tokens,
            // which are not a prompt.
            let prompt_len = stream.seq.prompt_len;
            if self.cfg.auto_prefix && stream.prefill_target == prompt_len {
                self.radix
                    .insert(&stream.seq.tokens[..prompt_len], &mut stream.cache);
            }
        }

        // Batched LM head: one GEMM-shaped dispatch over one hidden row
        // per sampling stream, slot order. Still-prefilling streams have
        // no row — their scratch holds a mid-prompt hidden state that
        // never reaches sampling. A sibling whose primary's last chunk
        // just landed forks here (`fork_full`: every whole prompt page
        // shared, the partial tail copy-on-write) and takes its first
        // row from the primary's hidden state, so it decodes exactly
        // like a standalone request seeded `seed + i`.
        self.batch.clear();
        for i in 0..self.slots.len() {
            let Some(stream) = &self.slots[i] else {
                continue;
            };
            let primary = stream.awaits_primary;
            let source = self.slots[primary.unwrap_or(i)]
                .as_mut()
                .expect("a primary outlives its unforked siblings");
            if source.prefill_cursor.is_some() {
                continue;
            }
            self.batch.push_hidden(source.scratch.hidden_state());
            if primary.is_some() {
                let fork = source.cache.fork_full();
                let sibling = self.slots[i].as_mut().expect("checked above");
                sibling.cache = fork;
                sibling.awaits_primary = None;
                self.stats.sample_forks += 1;
            }
        }
        self.model.lm_head_batch_pool(&mut self.batch, self.pool);

        // Sampling: every row's stream draws with its private RNG, so
        // the draw matches a solo `Model::generate`.
        let sampled = self.batch.len();
        let sampling = self
            .slots
            .iter_mut()
            .flatten()
            .filter(|s| s.prefill_cursor.is_none() && s.awaits_primary.is_none());
        for (row, stream) in sampling.enumerate() {
            let logits = self.batch.logits_row(row);
            let seq = &mut stream.seq;
            let next = stream
                .scratch
                .sample(logits, seq.sampling.temperature, &mut seq.rng);
            if stream.group.is_some() {
                // Best-of scoring: the log-softmax of the drawn token,
                // off the same logits the draw used. Grouped streams
                // only — singles skip the extra vocab pass.
                stream.cum_logprob += logprob_of(logits, next);
            }
            seq.tokens.push(next);
            if seq.eos == Some(next) {
                stream.done = Some(FinishReason::Eos);
            } else if seq.tokens.len() - seq.prompt_len >= seq.max_new {
                stream.done = Some(FinishReason::Length);
            }
        }
        self.stats.sampled_tokens += sampled as u64;
        self.stats.peak_active = self.stats.peak_active.max(self.active_len());
        self.stats.peak_pages_in_use = self
            .stats
            .peak_pages_in_use
            .max(self.kv_pool.pages_in_use());

        self.retire();
        assert!(
            sampled > 0 || chunk_tokens > 0 || self.is_idle(),
            "scheduler iteration made no progress"
        );
        self.ledger
            .debug_check(&self.radix, self.kv_pool.pages_in_use());
        sampled
    }

    /// Drives [`Scheduler::step`] until idle and drains the finished
    /// requests (completion order).
    pub fn run_to_completion(&mut self) -> Vec<FinishedRequest> {
        while !self.is_idle() {
            self.step();
        }
        self.take_finished()
    }

    /// Removes and returns the finished requests accumulated so far
    /// (completion order).
    pub fn take_finished(&mut self) -> Vec<FinishedRequest> {
        std::mem::take(&mut self.finished)
    }

    /// `true` when no request is pending, suspended, or active.
    pub fn is_idle(&self) -> bool {
        self.pending.iter().next().is_none() && self.slots.iter().all(Option::is_none)
    }

    /// Work items queued but not holding a slot: unadmitted requests
    /// plus preemption-suspended streams awaiting resume.
    pub fn pending_len(&self) -> usize {
        self.pending.iter().count()
    }

    /// Preemption-suspended streams currently parked for resume.
    pub fn suspended_len(&self) -> usize {
        self.pending.iter().filter(|item| item.resumed).count()
    }

    /// Streams currently holding a slot.
    pub fn active_len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Tokens generated so far by the primary (sample 0) stream of
    /// `id`, or `None` while it is neither active nor suspended
    /// (pending, or already finished). A still-prefilling stream
    /// reports `Some(0)` — the probe a latency harness needs to measure
    /// time-to-first-token step by step. A suspended stream reports its
    /// generated-so-far count.
    pub fn generated_len(&self, id: RequestId) -> Option<usize> {
        self.live_sequence(id)
            .map(|seq| seq.tokens.len() - seq.prompt_len)
    }

    /// The token sequence (effective prompt + generated so far) of the
    /// primary stream of `id`, while it is live (active or suspended) —
    /// the poll surface [`Engine`](crate::Engine) handles stream
    /// incremental tokens from.
    pub fn stream_tokens(&self, id: RequestId) -> Option<&[usize]> {
        self.live_sequence(id).map(|seq| seq.tokens.as_slice())
    }

    /// The primary (sample 0) sequence of the live request `id`, whether
    /// it holds a slot or is parked for resume.
    fn live_sequence(&self, id: RequestId) -> Option<&Sequence> {
        let active = self.slots.iter().flatten();
        active
            .filter(|s| s.sample_index == 0)
            .map(|s| &s.seq)
            .chain(self.pending.iter().filter(|i| i.resumed).map(|i| &i.seq))
            .find(|seq| seq.id == id)
    }

    /// Lifecycle position of the live request `id` (of its lowest
    /// sample still running, for a multi-sample one): `Pending`,
    /// `Prefilling`, `Decoding` or `Suspended` — `None` once nothing of
    /// it is queued or active: finished or cancelled (the
    /// [`Engine`](crate::Engine) keeps that bookkeeping).
    pub fn status(&self, id: RequestId) -> Option<StreamStatus> {
        let streams = self.slots.iter().flatten().filter(|s| s.seq.id == id);
        if let Some(s) = streams.min_by_key(|s| s.sample_index) {
            return Some(if s.prefill_cursor.is_some() {
                StreamStatus::Prefilling
            } else {
                StreamStatus::Decoding
            });
        }
        let item = self.pending.iter().find(|item| item.seq.id == id)?;
        Some(if item.resumed {
            StreamStatus::Suspended
        } else {
            StreamStatus::Pending
        })
    }

    /// Whether `id` was torn down by [`Scheduler::cancel`].
    pub fn is_cancelled(&self, id: RequestId) -> bool {
        self.cancelled.contains(&id)
    }

    /// Evicts every evictable radix-tree node (all nodes no live stream
    /// holds and no pin protects), returning the pages freed. The tree
    /// keeps serving correctly afterwards — subsequent prompts simply
    /// miss and re-prefill.
    pub fn flush_prefix_cache(&mut self) -> usize {
        self.radix.evict_all()
    }

    /// KV positions actually cached right now across active streams.
    fn cached_tokens(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.cache.len()).sum()
    }

    /// One coherent view of the page accounting: pool occupancy, pinned
    /// prefix pages, stream reservations and radix residency, read at
    /// one instant.
    pub fn pool_snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            capacity: self.kv_pool.capacity(),
            pages_created: self.kv_pool.pages_created(),
            pages_in_use: self.kv_pool.pages_in_use(),
            pages_free: self.kv_pool.pages_free(),
            pinned_pages: self.radix.pinned_pages(),
            reserved_pages: self.ledger.reserved(),
            radix_resident_pages: self.radix.resident_pages(),
            cached_tokens: self.cached_tokens(),
        }
    }

    /// One coherent view of the prefix store: tree shape, residency,
    /// eviction and hit counters.
    pub fn prefix_cache_snapshot(&self) -> PrefixCacheSnapshot {
        PrefixCacheSnapshot {
            nodes: self.radix.node_count(),
            resident_pages: self.radix.resident_pages(),
            evictions: self.radix.evictions(),
            hit_tokens: self.stats.cache_hit_tokens,
        }
    }

    /// The KV page pool streams lease from (page accounting lives here).
    pub fn kv_pool(&self) -> &PagePool {
        &self.kv_pool
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            pages_decoded: self.decode_cache.pages_decoded(),
            radix_evictions: self.radix.evictions(),
            ..self.stats
        }
    }

    /// The admission configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.cfg
    }

    /// Cancels the request `id` wherever it currently lives, freeing
    /// its resources this step:
    ///
    /// - still queued (new or suspended): removed from its class queue
    ///   — [`Cancelled::Pending`] / [`Cancelled::Suspended`];
    /// - active: every sibling stream is torn down this step — pages
    ///   released, radix holds dropped, group ledger (and its
    ///   shared-page charge) retired with no result recorded —
    ///   [`Cancelled::Active`] with the number of streams torn down.
    ///
    /// A finished-but-undrained request reports
    /// [`CancelError::AlreadyFinished`] (its result stays collectable);
    /// an unknown or already-drained id reports
    /// [`CancelError::Unknown`]; a repeated cancel reports
    /// [`CancelError::Cancelled`]. Co-batched survivors are untouched —
    /// their pages, positions and RNGs never observe the cancel, so
    /// their tokens stay bit-identical to a run where the cancelled
    /// request was never submitted.
    pub fn cancel(&mut self, id: RequestId) -> Result<Cancelled, CancelError> {
        if self.cancelled.contains(&id) {
            return Err(CancelError::Cancelled(id));
        }
        if let Some(item) = self.pending.remove(id) {
            self.stats.cancelled += 1;
            self.cancelled.insert(id);
            return Ok(if item.resumed {
                Cancelled::Suspended
            } else {
                Cancelled::Pending
            });
        }
        let mut streams = 0;
        for i in 0..self.slots.len() {
            if let Some(stream) = self.slots[i].take_if(|s| s.seq.id == id) {
                self.release(stream);
                streams += 1;
            }
        }
        if streams > 0 {
            // The whole group is gone: retire its ledger and the
            // shared-page charge no member carried individually.
            if let Some(group) = self.groups.remove(&id.0) {
                self.ledger.release(group.shared_pages);
            }
            self.stats.cancelled += 1;
            self.cancelled.insert(id);
            self.ledger
                .debug_check(&self.radix, self.kv_pool.pages_in_use());
            return Ok(Cancelled::Active { streams });
        }
        if self.finished.iter().any(|f| f.id == id) {
            return Err(CancelError::AlreadyFinished(id));
        }
        Err(CancelError::Unknown(id))
    }

    /// Moves every done stream out of its slot, releasing its page
    /// reservation and recycling its pages and cache/scratch allocations.
    fn retire(&mut self) {
        for i in 0..self.slots.len() {
            if let Some(stream) = self.slots[i].take_if(|s| s.done.is_some()) {
                let reason = stream.done.expect("checked above");
                self.finish(stream, reason);
            }
        }
    }

    /// Gives back everything `stream` holds except its sequence — the
    /// one teardown behind suspend, cancel and finish: its page
    /// reservation, its hold on the matched tree node (evictable again
    /// once every holder lets go), its pages (reset returns owned pages
    /// to the free list and drops shared leases, leaving co-owners'
    /// pages alive) and its recyclable allocations.
    fn release(&mut self, mut stream: Stream) -> Sequence {
        self.ledger.release(stream.reserved_pages);
        if let Some(node) = stream.radix_node {
            self.radix.release(node);
        }
        stream.cache.reset();
        if self.spare_caches.len() < self.cfg.max_batch {
            self.spare_caches.push(stream.cache);
        }
        self.spare_scratches.push(stream.scratch);
        stream.seq
    }

    fn finish(&mut self, stream: Stream, reason: FinishReason) {
        let (sample_index, group, cum_logprob) =
            (stream.sample_index, stream.group, stream.cum_logprob);
        let seq = self.release(stream);
        let result = FinishedRequest {
            id: seq.id,
            tokens: seq.tokens,
            prompt_len: seq.prompt_len,
            reason,
            sample_index,
            cumulative_logprob: group.map(|_| cum_logprob),
        };
        let Some(gid) = group else {
            self.finished.push(result);
            return;
        };
        let group = self
            .groups
            .get_mut(&gid)
            .expect("groups outlive their members");
        group.remaining -= 1;
        if group.best_of {
            group.collected.push(result);
        } else {
            self.finished.push(result);
        }
        if group.remaining == 0 {
            let group = self.groups.remove(&gid).expect("present above");
            // Last sibling out: the group's shared prompt pages are no
            // longer co-owned by any member — release their charge.
            self.ledger.release(group.shared_pages);
            if group.best_of {
                let winner = group
                    .collected
                    .into_iter()
                    .max_by(|a, b| {
                        // Highest cumulative logprob wins; exact ties
                        // break toward the lowest sample index (ordering
                        // treats the lower index as "greater").
                        a.cumulative_logprob
                            .partial_cmp(&b.cumulative_logprob)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.sample_index.cmp(&a.sample_index))
                    })
                    .expect("a group has at least one member");
                self.finished.push(winner);
            }
        }
    }
}

/// `ln softmax(logits)[token]`, accumulated in `f64` with the usual
/// max-subtracted log-sum-exp so the score is finite for any finite
/// logits. Serial reduction — the value is a pure function of the
/// logits, independent of batch composition and thread count, so
/// best-of selection is as deterministic as the decode itself.
fn logprob_of(logits: &[f32], token: usize) -> f64 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let sum: f64 = logits.iter().map(|&x| (x as f64 - max).exp()).sum();
    (logits[token] as f64 - max) - sum.ln()
}
