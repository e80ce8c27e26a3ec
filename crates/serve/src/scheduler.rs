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
//! Shared prompt prefixes compose with both: a prefix registered via
//! [`Scheduler::register_prefix`] is prefilled **once** into a pinned
//! cache, every admitted request referencing it gets a
//! [`KvCache::fork_prefix`] of that cache (refcounted page-table clone,
//! copy-on-write on the partial tail), and the watermark charges the
//! stream only its *unshared* worst-case pages — so N streams over a
//! P-position prefix cost `pages(P) + N·pages(private)`, not
//! `N·pages(P + private)`, in compressed pages when the policy is
//! `Anda{m}`.
//!
//! With [`SchedulerConfig::auto_prefix`] the same sharing is *discovered*
//! instead of declared: every admitted prompt is inserted into a
//! [`RadixTree`] at page granularity, later prompts fork their longest
//! cached whole-page prefix automatically and prefill only the uncovered
//! suffix ([`SchedulerStats::cache_hit_tokens`] counts the skipped
//! positions), and under page pressure the admission loop evicts
//! least-recently-used unreferenced tree leaves before giving up
//! ([`SchedulerStats::radix_evictions`]). The watermark then reads
//! `pinned + reserved + radix_resident + demand <= capacity`.
//!
//! The third consumer of the same fork mechanism is mid-stream:
//! [`SamplingMode::Parallel`] / [`SamplingMode::BestOf`] requests
//! prefill their prompt once, then fork the live cache at its decode
//! position ([`KvCache::fork_full`]) into `n` sibling streams whose
//! divergent tails isolate copy-on-write — the prompt's KV is charged
//! once, and each sample is bit-identical to a standalone request
//! seeded with `seed + sample_index`. Siblings hold their slots from
//! admission and fork the step the primary's last chunk lands; each
//! one's first draw comes off the batched LM head from the primary's
//! hidden state.
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
//! head blocks the admission loop, exactly like the old single-queue
//! FIFO, so an accepted request is still guaranteed to be served.
//!
//! When a blocked arrival *strictly outranks* an active stream and
//! [`SchedulerConfig::preemption`] is on, the scheduler **suspends a
//! victim** instead of waiting: the lowest-priority (then
//! most-page-holding) single-sample stream is unscheduled, its KV pages
//! are released back to the pool ([`KvCache::release_pages`]), and its
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

use std::collections::{HashMap, HashSet, VecDeque};

use anda_llm::kv::{KvPoolConfig, PageDecodeCache, PagePool};
use anda_llm::model::{BatchEntry, BatchOutput};
use anda_llm::{DecodeScratch, KvCache, Model};
use anda_tensor::Rng;
use rayon_lite::ThreadPool;

use crate::radix::{NodeId, RadixTree};
use crate::request::{
    FinishReason, FinishedRequest, Priority, Request, RequestId, SamplingMode, SamplingParams,
};

/// The weighted-round-robin admission schedule: one entry per grant,
/// interleaved so no class waits longer than it must. `High` appears
/// [`Priority::weight`]` = 4` times, `Normal` 2, `Low` 1 — the 4:2:1
/// share (and the ≤ 6-grant starvation bound) the scheduler property
/// tests pin.
const WRR_SCHEDULE: [Priority; 7] = [
    Priority::High,
    Priority::Normal,
    Priority::High,
    Priority::Low,
    Priority::High,
    Priority::Normal,
    Priority::High,
];

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
    /// Automatic prefix caching: insert every admitted prompt into a
    /// page-granular radix tree and admit later prompts by forking
    /// their longest cached whole-page prefix — no
    /// [`Scheduler::register_prefix`] call needed (explicit-prefix
    /// requests bypass the tree; the registry stays the pinned fast
    /// path). Cold tree leaves are evicted LRU under page pressure.
    /// Default `false`: retained prefixes outlive their source streams,
    /// so a drained pool intentionally keeps cache-resident pages —
    /// opt-in for workloads with prompt reuse.
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
/// makes FIFO admission starvation-free: an admitted queue head always
/// fits once enough earlier streams finish.
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
    /// The request would fit an empty pool, but not the pool as
    /// currently *pinned* (registered prefix caches hold pages for as
    /// long as they stay registered). Transient — resubmitting after a
    /// [`Scheduler::release_prefix`] can succeed. Distinct from
    /// [`SubmitError::ExceedsPoolCapacity`], which the old single
    /// variant conflated with this case.
    PoolSaturated {
        /// Worst-case unshared page demand across all layers.
        pages: usize,
        /// Capacity currently available to streams (total minus pinned
        /// prefix pages).
        available: usize,
    },
    /// The request names a prefix key that is not (or no longer) in the
    /// scheduler's registry.
    UnknownPrefix,
    /// [`Scheduler::register_prefix`] was called with a key that is
    /// already registered (release it first; prefix contents are
    /// immutable while registered).
    PrefixAlreadyRegistered,
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
                     unpinned (retry after releasing a prefix)"
                )
            }
            SubmitError::UnknownPrefix => {
                write!(f, "request names a prefix key that is not registered")
            }
            SubmitError::PrefixAlreadyRegistered => {
                write!(f, "a prefix is already registered under this key")
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

/// Why [`Scheduler::release_prefix`] refused, naming exactly what blocks
/// the release so the caller can tell "retry later" from "wrong key"
/// (the old `bool` return conflated the two).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReleasePrefixError {
    /// No prefix is registered under the given key (perhaps it was
    /// already released) — retrying cannot succeed.
    UnknownKey,
    /// The prefix is still referenced; releasing now would strand the
    /// dependents. Retry once they drain.
    InUse {
        /// Active streams currently decoding on a fork of this prefix.
        active_forks: usize,
        /// Queued requests that name this prefix and are entitled to be
        /// admitted against it.
        pending: Vec<RequestId>,
    },
}

impl std::fmt::Display for ReleasePrefixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReleasePrefixError::UnknownKey => {
                write!(f, "no prefix is registered under this key")
            }
            ReleasePrefixError::InUse {
                active_forks,
                pending,
            } => {
                write!(f, "prefix still in use: {active_forks} active fork(s)")?;
                if !pending.is_empty() {
                    write!(f, ", pending request(s)")?;
                    for id in pending {
                        write!(f, " {id}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ReleasePrefixError {}

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
/// ([`Scheduler::pool_snapshot`]) — replaces the old getter sprawl
/// (`pinned_pages()`, `reserved_pages()`, `radix_resident_pages()`, …)
/// with a single struct read at one instant. The admission watermark
/// invariant reads `pinned_pages + reserved_pages +
/// radix_resident_pages <= capacity` and physical usage satisfies
/// `pages_in_use <= pinned_pages + reserved_pages +
/// radix_resident_pages` (reservations are worst-case).
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
    /// Pages pinned by registered prefix caches.
    pub pinned_pages: usize,
    /// Worst-case pages reserved by active streams and live sampling
    /// groups (unshared demand).
    pub reserved_pages: usize,
    /// Pages held resident by the automatic prefix cache's radix tree.
    pub radix_resident_pages: usize,
    /// KV positions actually cached right now across active streams.
    pub cached_tokens: usize,
}

/// One coherent view of the automatic prefix cache
/// ([`Scheduler::prefix_cache_snapshot`]): radix-tree shape plus the
/// hit/eviction counters that used to be scattered across getters and
/// stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixCacheSnapshot {
    /// Nodes currently in the radix tree.
    pub nodes: usize,
    /// Pages the tree holds resident (counted by the admission
    /// watermark).
    pub resident_pages: usize,
    /// Nodes evicted under page pressure, cumulative.
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
    /// Most KV positions ever cached at once across active streams.
    pub peak_cached_tokens: usize,
    /// Most KV pages ever leased from the pool at once. Physical,
    /// deduplicated pages: a prefix page shared by N streams counts
    /// once, which is exactly the memory win prefix sharing buys.
    pub peak_pages_in_use: usize,
    /// Streams admitted by forking a registered prefix cache (each one
    /// skipped re-prefilling its prefix tokens).
    pub prefix_forks: u64,
    /// Compressed (Anda) KV pages decoded by the grouped batched-attention
    /// read path, cumulative across steps. Each physical page counts at
    /// most once per layer per step regardless of how many streams attend
    /// through it — the decode-once guarantee the `grouped_attention`
    /// tests pin. Stays 0 under float policies (pages read in place).
    pub pages_decoded: u64,
    /// Prompt positions automatic prefix caching served from the radix
    /// tree instead of prefilling (`auto_prefix` only; explicit-registry
    /// hits are visible as `prefix_forks` instead). The hit-rate
    /// numerator: `cache_hit_tokens / (cache_hit_tokens +
    /// prefill_tokens)` is the fraction of prompt work the tree
    /// absorbed.
    pub cache_hit_tokens: u64,
    /// Radix-tree nodes evicted under page pressure (LRU leaves with no
    /// live forks and no pinned ancestor), cumulative.
    pub radix_evictions: u64,
    /// Sibling streams admitted by forking a live cache at its decode
    /// position for [`SamplingMode::Parallel`] / [`SamplingMode::BestOf`]
    /// (the primary stream of a group is not counted — it prefilled).
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
    /// *unshared* pages — fully shared prefix pages are pinned by the
    /// registry, not charged here).
    reserved_pages: usize,
    /// The registry key this stream's cache was forked from, if any
    /// (holds the registration alive until the stream retires).
    prefix: Option<String>,
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

struct Pending {
    id: RequestId,
    request: Request,
}

/// One unit of admissible work in a class queue: a not-yet-admitted
/// request, or a suspended stream awaiting resume (parked at the front
/// of its class so it is that class's next grant).
enum WorkItem {
    New(Pending),
    Resume(Sequence),
}

impl WorkItem {
    fn id(&self) -> RequestId {
        match self {
            WorkItem::New(p) => p.id,
            WorkItem::Resume(s) => s.id,
        }
    }
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

/// One registered shared prefix: its tokens, the pinned cache holding
/// the prefilled pages every admitted stream forks, and bookkeeping.
struct PrefixEntry {
    tokens: Vec<usize>,
    cache: KvCache,
    /// Pages the pinned cache pins across all layers (charged to the
    /// registry, not to any stream).
    pinned_pages: usize,
    /// Active streams currently forked from this prefix (blocks
    /// release).
    active: usize,
}

/// Continuous-batching request scheduler over [`Model::decode_step`]-style
/// incremental inference with pool-paged KV storage.
///
/// Admission is FIFO with completed-stream slot and page reuse: only the
/// queue head is ever admitted (no overtaking, hence no starvation), into
/// the first free slot, reusing a retired stream's
/// `KvCache`/`DecodeScratch` allocations and recycled pages. Decode is
/// iteration-level: every active stream advances one token per
/// [`Scheduler::step`].
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
    /// Pending work per priority class ([`Priority::index`]-indexed):
    /// FIFO within a class, weighted round-robin between classes.
    /// Suspended streams re-enter at the front of their class.
    pending: [VecDeque<WorkItem>; 3],
    /// Cursor into [`WRR_SCHEDULE`]; advances one entry per admission
    /// grant, parks on the blocked entry otherwise (no overtaking).
    wrr_cursor: usize,
    slots: Vec<Option<Stream>>,
    /// Retired caches awaiting reuse by future non-prefix admissions
    /// (their pages are already back on the pool's free list; prefix
    /// admissions build their cache by forking the registry's).
    spare_caches: Vec<KvCache>,
    /// Retired scratches awaiting reuse by any future admission.
    spare_scratches: Vec<DecodeScratch>,
    /// Registered shared prefixes by key.
    prefixes: HashMap<String, PrefixEntry>,
    /// The automatic prefix cache (`auto_prefix`): page-granular radix
    /// tree over admitted prompts. Stays empty when the knob is off.
    radix: RadixTree,
    /// Live multi-sample groups by request id.
    groups: HashMap<u64, GroupState>,
    /// Pages pinned by all registered prefix caches (counted against
    /// the pool capacity alongside stream reservations).
    pinned_pages: usize,
    batch: BatchOutput,
    /// The page walk's tile scratch and decode counter for grouped
    /// batched attention (shared prefix pages decode once per step).
    decode_cache: PageDecodeCache,
    finished: Vec<FinishedRequest>,
    /// Ids torn down by [`Scheduler::cancel`]: a repeated cancel
    /// reports [`CancelError::Cancelled`] instead of `Unknown`.
    cancelled: HashSet<RequestId>,
    next_id: u64,
    /// Sum of active streams' unshared page reservations
    /// (`pinned + reserved <= kv.max_pages`).
    reserved_pages: usize,
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
        Scheduler {
            model,
            pool,
            cfg,
            kv_pool: PagePool::new(cfg.kv),
            pending: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            wrr_cursor: 0,
            slots: Vec::new(),
            spare_caches: Vec::new(),
            spare_scratches: Vec::new(),
            prefixes: HashMap::new(),
            radix: RadixTree::new(cfg.kv.page_positions, model.config().n_layers),
            groups: HashMap::new(),
            pinned_pages: 0,
            batch: BatchOutput::new(),
            decode_cache: PageDecodeCache::new(),
            finished: Vec::new(),
            cancelled: HashSet::new(),
            next_id: 0,
            reserved_pages: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// Worst-case KV page demand `request` is charged across all layers
    /// — the *single* place the page math lives, used by both the
    /// submit-time capacity rejection and the admission watermark so the
    /// two can never drift. Equals `demand_with_hit(request, 0)`: the
    /// submit-time bound assumes no automatic cache hit, so admission
    /// (which may discount a radix match) only ever needs *less*.
    ///
    /// # Panics
    ///
    /// Panics if the request names an unregistered prefix (submit
    /// validates the key first).
    pub fn pages_needed(&self, request: &Request) -> usize {
        self.demand_with_hit(request, 0)
    }

    /// [`Scheduler::pages_needed`] with `radix_depth` prompt positions
    /// already served by the automatic prefix cache.
    ///
    /// Per stream the demand is `n_layers · pages(prefix + prompt +
    /// max_new)` minus every page *fully* covered by a shared source —
    /// an explicit registry prefix (pinned pages, forked refcounted) or
    /// the radix match (tree-resident pages, ditto; the two are mutually
    /// exclusive since explicit-prefix requests bypass the tree). A
    /// partial tail page stays charged: copy-on-write privatizes it on
    /// the stream's first append. All subtractions saturate — the
    /// discounts are derived quantities, and an accounting bound must
    /// clamp rather than underflow-panic at boundary geometries (e.g. a
    /// page-aligned prefix with a zero-length tail).
    ///
    /// A multi-sample request ([`SamplingMode::samples`]` = n > 1`)
    /// additionally charges `n - 1` sibling tails: each sibling forks
    /// the primary's live cache after prefill, sharing every whole
    /// prompt page, so only its pages *beyond* the prompt's whole pages
    /// (private partial tail + generation) multiply.
    fn demand_with_hit(&self, request: &Request, radix_depth: usize) -> usize {
        let pp = self.cfg.kv.page_positions;
        let n_layers = self.model.config().n_layers;
        let prefix_len = request
            .prefix
            .as_deref()
            .map_or(0, |key| self.prefixes[key].tokens.len());
        let total = prefix_len.saturating_add(request.reserve_tokens());
        let pages_total = self.cfg.kv.pages_for(total);
        let shared_whole = if prefix_len > 0 {
            prefix_len / pp
        } else {
            radix_depth / pp
        };
        let primary = n_layers * pages_total.saturating_sub(shared_whole);
        let n = request.mode.samples();
        if n <= 1 {
            return primary;
        }
        let prompt_len = prefix_len.saturating_add(request.prompt.len());
        primary + (n - 1) * self.member_tail_pages(prompt_len, request.max_new)
    }

    /// Worst-case KV page demand of resuming suspended stream `s`: its
    /// full sequence so far plus its remaining generation budget, with
    /// no sharing discounts (resume re-prefills privately). The sum
    /// `tokens.len() + (max_new - generated)` telescopes to
    /// `prompt_len + max_new`, so the demand is fixed at suspend time —
    /// victim selection checks it against the pool capacity up front,
    /// guaranteeing every suspended stream can eventually resume.
    fn resume_demand(&self, s: &Sequence) -> usize {
        self.model.config().n_layers * self.cfg.kv.pages_for(s.prompt_len + s.max_new)
    }

    /// Pages one member of a multi-sample group reserves privately: its
    /// worst-case pages beyond the (effective) prompt's whole,
    /// group-shared pages.
    fn member_tail_pages(&self, prompt_len: usize, max_new: usize) -> usize {
        let total = self.cfg.kv.pages_for(prompt_len.saturating_add(max_new));
        self.model.config().n_layers * total.saturating_sub(prompt_len / self.cfg.kv.page_positions)
    }

    /// Queues a request, validating it is servable under this model,
    /// pool and prefix registry. Accepted requests are guaranteed to
    /// terminate with exactly `min(max_new, first EOS position + 1)`
    /// generated tokens.
    pub fn submit(&mut self, request: Request) -> Result<RequestId, SubmitError> {
        if request.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        let vocab = self.model.config().vocab;
        if let Some(&token) = request.prompt.iter().find(|&&t| t >= vocab) {
            return Err(SubmitError::TokenOutOfVocab { token, vocab });
        }
        if let Some(eos) = request.eos {
            if eos >= vocab {
                return Err(SubmitError::TokenOutOfVocab { token: eos, vocab });
            }
        }
        let prefix_len = match request.prefix.as_deref() {
            None => 0,
            Some(key) => match self.prefixes.get(key) {
                Some(entry) => entry.tokens.len(),
                None => return Err(SubmitError::UnknownPrefix),
            },
        };
        let total = prefix_len.saturating_add(request.reserve_tokens());
        let max_seq = self.model.config().max_seq;
        if total > max_seq {
            return Err(SubmitError::ExceedsMaxSeq { total, max_seq });
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
        let pages = self.pages_needed(&request);
        if let Some(capacity) = self.kv_pool.capacity() {
            // Two distinct refusals: a demand beyond the *raw* capacity
            // can never be served (permanent), while one beyond the
            // currently unpinned capacity could fit after a
            // `release_prefix` (transient). Saturating: registration
            // keeps `pinned <= capacity`, but a capacity check must
            // degrade to "zero headroom", never underflow, if that
            // invariant is ever perturbed.
            if pages > capacity {
                return Err(SubmitError::ExceedsPoolCapacity { pages, capacity });
            }
            let available = capacity.saturating_sub(self.pinned_pages);
            if pages > available {
                return Err(SubmitError::PoolSaturated { pages, available });
            }
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let class = request.priority.index();
        self.pending[class].push_back(WorkItem::New(Pending { id, request }));
        Ok(id)
    }

    /// Registers a shared prefix under `key`: validates it, prefills it
    /// **once** into a pinned cache leased from the scheduler's pool,
    /// and from then on admits `key`-referencing requests by *forking*
    /// that cache — page-table clones over refcounted pages, no row
    /// copies, no re-prefill. Returns the page count the pinned cache
    /// pins (charged against the pool capacity until release).
    ///
    /// The pin is counted like a permanent reservation, so registration
    /// is rejected (`ExceedsPoolCapacity`) unless the prefix fits
    /// alongside every currently reserved stream page — guaranteeing
    /// the immediate prefill cannot exhaust the pool mid-flight — *and*
    /// alongside the worst pending request's demand, so the pin can
    /// never strand a request that submit already accepted (accepted
    /// requests stay guaranteed to terminate).
    pub fn register_prefix(
        &mut self,
        key: impl Into<String>,
        tokens: Vec<usize>,
    ) -> Result<usize, SubmitError> {
        let key = key.into();
        if self.prefixes.contains_key(&key) {
            return Err(SubmitError::PrefixAlreadyRegistered);
        }
        if tokens.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        let vocab = self.model.config().vocab;
        if let Some(&token) = tokens.iter().find(|&&t| t >= vocab) {
            return Err(SubmitError::TokenOutOfVocab { token, vocab });
        }
        let max_seq = self.model.config().max_seq;
        if tokens.len() > max_seq {
            return Err(SubmitError::ExceedsMaxSeq {
                total: tokens.len(),
                max_seq,
            });
        }
        let pages = self.model.config().n_layers * self.kv_pool.pages_for(tokens.len());
        if let Some(cap) = self.kv_pool.capacity() {
            if pages > cap {
                return Err(SubmitError::ExceedsPoolCapacity {
                    pages,
                    capacity: cap,
                });
            }
            // The pin must leave room for the immediate prefill next to
            // every active reservation, and for the largest already-
            // accepted work item once the pool drains — pending request
            // or suspended stream — otherwise this registration would
            // strand work submit already promised to serve.
            let worst_pending = self
                .pending
                .iter()
                .flatten()
                .map(|item| match item {
                    WorkItem::New(p) => self.pages_needed(&p.request),
                    WorkItem::Resume(s) => self.resume_demand(s),
                })
                .max()
                .unwrap_or(0);
            let available = cap
                .saturating_sub(self.pinned_pages)
                .saturating_sub(self.reserved_pages.max(worst_pending));
            if pages > available {
                return Err(SubmitError::PoolSaturated { pages, available });
            }
        }
        let mut cache = self.kv_pool.new_cache(self.model.config().n_layers);
        let mut scratch = self.spare_scratches.pop().unwrap_or_default();
        let mut span = [BatchEntry {
            tokens: &tokens,
            pos: 0,
            cache: &mut cache,
            scratch: &mut scratch,
        }];
        self.model
            .decode_hidden_batch(&mut span, &mut self.decode_cache, self.pool);
        self.stats.pages_decoded = self.decode_cache.pages_decoded();
        self.spare_scratches.push(scratch);
        self.stats.prefill_tokens += tokens.len() as u64;
        self.stats.peak_pages_in_use = self
            .stats
            .peak_pages_in_use
            .max(self.kv_pool.pages_in_use());
        self.pinned_pages += pages;
        self.prefixes.insert(
            key,
            PrefixEntry {
                tokens,
                cache,
                pinned_pages: pages,
                active: 0,
            },
        );
        Ok(pages)
    }

    /// Releases the prefix registered under `key`, recycling the pinned
    /// pages no live stream still shares, and returns the page count
    /// unpinned. Refuses while any active stream was forked from it or
    /// any pending request references it — so a successful release means
    /// the pinned accounting and the physical pages really are reclaimed
    /// together. The error distinguishes the two failure causes the old
    /// `bool` return conflated: [`ReleasePrefixError::UnknownKey`] (the
    /// key is not registered; retrying is pointless) vs
    /// [`ReleasePrefixError::InUse`], which names the blockers — the
    /// live fork count and the ids of pending requests that reference
    /// the key — so callers can wait for exactly those to drain.
    pub fn release_prefix(&mut self, key: &str) -> Result<usize, ReleasePrefixError> {
        let Some(entry) = self.prefixes.get(key) else {
            return Err(ReleasePrefixError::UnknownKey);
        };
        let mut pending: Vec<RequestId> = self
            .pending
            .iter()
            .flatten()
            .filter_map(|item| match item {
                WorkItem::New(p) if p.request.prefix.as_deref() == Some(key) => Some(p.id),
                // Suspended streams re-prefill their full sequence
                // privately at resume — they no longer depend on the
                // pinned cache.
                _ => None,
            })
            .collect();
        pending.sort();
        if entry.active > 0 || !pending.is_empty() {
            return Err(ReleasePrefixError::InUse {
                active_forks: entry.active,
                pending,
            });
        }
        let entry = self.prefixes.remove(key).expect("checked above");
        self.pinned_pages -= entry.pinned_pages;
        // Dropping the pinned cache releases its leases; every page no
        // longer co-owned rejoins the pool's free list.
        drop(entry.cache);
        Ok(entry.pinned_pages)
    }

    /// The token length of the prefix registered under `key`.
    pub fn prefix_len(&self, key: &str) -> Option<usize> {
        self.prefixes.get(key).map(|e| e.tokens.len())
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
        self.stats.pages_decoded = self.decode_cache.pages_decoded();

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
            if self.cfg.auto_prefix
                && stream.prefix.is_none()
                && stream.prefill_target == prompt_len
            {
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
        self.stats.peak_cached_tokens = self.stats.peak_cached_tokens.max(self.cached_tokens());
        self.stats.peak_pages_in_use = self
            .stats
            .peak_pages_in_use
            .max(self.kv_pool.pages_in_use());

        self.retire();
        assert!(
            sampled > 0 || chunk_tokens > 0 || self.is_idle(),
            "scheduler iteration made no progress"
        );
        self.debug_check_ledger();
        sampled
    }

    /// The page-ledger invariant, checked every step in debug builds:
    /// every leased page is covered by a pin, a stream or group
    /// reservation, or the radix tree's span accounting.
    fn debug_check_ledger(&self) {
        debug_assert!(
            self.kv_pool.pages_in_use()
                <= self.pinned_pages + self.reserved_pages + self.radix.resident_pages(),
            "leased pages {} outgrew pinned {} + reserved {} + radix-resident {}",
            self.kv_pool.pages_in_use(),
            self.pinned_pages,
            self.reserved_pages,
            self.radix.resident_pages()
        );
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
        self.pending.iter().all(VecDeque::is_empty) && self.slots.iter().all(Option::is_none)
    }

    /// Work items queued but not holding a slot: unadmitted requests
    /// plus preemption-suspended streams awaiting resume.
    pub fn pending_len(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Preemption-suspended streams currently parked for resume.
    pub fn suspended_len(&self) -> usize {
        self.pending
            .iter()
            .flatten()
            .filter(|item| matches!(item, WorkItem::Resume(_)))
            .count()
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
            .chain(self.pending.iter().flatten().filter_map(|item| match item {
                WorkItem::Resume(seq) => Some(seq),
                WorkItem::New(_) => None,
            }))
            .find(|seq| seq.id == id)
    }

    /// Lifecycle position of the live request `id`: `Pending`,
    /// `Prefilling`, `Decoding` or `Suspended` — `None` once it has
    /// finished or was cancelled (the [`Engine`](crate::Engine) keeps
    /// that bookkeeping).
    pub fn status(&self, id: RequestId) -> Option<StreamStatus> {
        if let Some(s) = self
            .slots
            .iter()
            .flatten()
            .find(|s| s.seq.id == id && s.sample_index == 0)
        {
            return Some(if s.prefill_cursor.is_some() {
                StreamStatus::Prefilling
            } else {
                StreamStatus::Decoding
            });
        }
        self.pending.iter().flatten().find_map(|item| match item {
            WorkItem::New(p) if p.id == id => Some(StreamStatus::Pending),
            WorkItem::Resume(s) if s.id == id => Some(StreamStatus::Suspended),
            _ => None,
        })
    }

    /// Whether `id` was torn down by [`Scheduler::cancel`].
    pub fn is_cancelled(&self, id: RequestId) -> bool {
        self.cancelled.contains(&id)
    }

    /// Evicts every evictable automatic-prefix-cache node (all nodes no
    /// live stream holds), returning the pages freed. The tree keeps
    /// serving correctly afterwards — subsequent prompts simply miss and
    /// re-prefill.
    pub fn flush_prefix_cache(&mut self) -> usize {
        let freed = self.radix.evict_all();
        self.stats.radix_evictions = self.radix.evictions();
        freed
    }

    /// KV positions actually cached right now across active streams.
    fn cached_tokens(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.cache.len()).sum()
    }

    /// One coherent view of the page accounting: pool occupancy, pinned
    /// prefix pages, stream reservations and radix residency, read at
    /// one instant — the replacement for the old per-quantity getters.
    pub fn pool_snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            capacity: self.kv_pool.capacity(),
            pages_created: self.kv_pool.pages_created(),
            pages_in_use: self.kv_pool.pages_in_use(),
            pages_free: self.kv_pool.pages_free(),
            pinned_pages: self.pinned_pages,
            reserved_pages: self.reserved_pages,
            radix_resident_pages: self.radix.resident_pages(),
            cached_tokens: self.cached_tokens(),
        }
    }

    /// One coherent view of the automatic prefix cache: tree shape,
    /// residency, eviction and hit counters.
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
        self.stats
    }

    /// The admission configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.cfg
    }

    /// Weighted-round-robin admission over the per-class queues: the
    /// schedule entry under the cursor names a class; that class's head
    /// work item (new request, or suspended resume — resumes park at
    /// the front) is offered admission. A grant advances the cursor; a
    /// blocked head parks the cursor and stops admission entirely —
    /// within a class there is no overtaking, so class order is exactly
    /// submission order and accepted work is never starved by later,
    /// smaller requests. With single-class traffic this degenerates to
    /// the old FIFO admission.
    ///
    /// Blocked means: not enough free slots for the whole sample group
    /// (the arrival parks — slots turn over every few steps, so waiting
    /// is cheap and keeps the WRR bound intact), or the page watermark
    /// (`pinned + reserved + radix_resident + demand <= capacity`, over
    /// *unshared* demand) fails even after LRU eviction of cold radix
    /// leaves. Page pressure is the expensive kind of blocked — a big
    /// incumbent can hold pages for its whole generation — so there,
    /// with [`SchedulerConfig::preemption`] on, victims the arrival
    /// strictly outranks are suspended ([`Scheduler::suspend`]) and the
    /// watermark retried before giving up.
    fn admit(&mut self) {
        while let Some(class) = self.next_wrr_class() {
            let item = self.pending[class]
                .pop_front()
                .expect("WRR picked a non-empty class");
            if !self.admit_item(class, item) {
                break;
            }
            self.wrr_cursor = (self.wrr_cursor + 1) % WRR_SCHEDULE.len();
        }
    }

    /// The class the WRR cursor selects: the first schedule entry at or
    /// after the cursor whose class has pending work (the cursor parks
    /// on that entry). `None` when every queue is empty.
    fn next_wrr_class(&mut self) -> Option<usize> {
        for i in 0..WRR_SCHEDULE.len() {
            let pos = (self.wrr_cursor + i) % WRR_SCHEDULE.len();
            let class = WRR_SCHEDULE[pos].index();
            if !self.pending[class].is_empty() {
                self.wrr_cursor = pos;
                return Some(class);
            }
        }
        None
    }

    /// Suspends the best preemption victim for a blocked arrival of
    /// class `rank`: an active, not-yet-done, single-sample stream of a
    /// strictly lower class whose (undiscounted) resume demand fits the
    /// pool — lowest class first, most reserved pages among equals,
    /// highest slot as the final deterministic tie-break. Returns
    /// `false` (suspending nothing) when preemption is off or no such
    /// victim exists. Multi-sample groups are never victims: their
    /// shared-page ledger and lockstep sibling decode are not
    /// suspendable.
    fn preempt_for(&mut self, rank: usize) -> bool {
        if !self.cfg.preemption {
            return false;
        }
        let victim = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(_, s)| s.done.is_none() && s.group.is_none())
            .filter(|(_, s)| s.seq.priority.index() > rank)
            .filter(|(_, s)| match self.kv_pool.capacity() {
                // A victim must stay resumable: its re-prefill demand
                // has to fit next to the pinned pages, or suspending it
                // would strand it forever.
                Some(cap) => self.resume_demand(&s.seq) <= cap.saturating_sub(self.pinned_pages),
                None => true,
            })
            .max_by_key(|&(i, s)| (s.seq.priority.index(), s.reserved_pages, i))
            .map(|(i, _)| i);
        let Some(slot) = victim else { return false };
        self.suspend(slot);
        true
    }

    /// Unschedules the stream in `slot`: releases its worst-case page
    /// reservation and its physical KV pages back to the pool
    /// ([`KvCache::release_pages`]), detaches it from the prefix
    /// registry and the radix tree (resume re-prefills privately, so it
    /// no longer blocks a `release_prefix` or an eviction), and parks
    /// its tokens-so-far plus its *live* RNG at the front of its class
    /// queue as a resume item — the class's very next grant.
    fn suspend(&mut self, slot: usize) {
        let mut stream = self.slots[slot].take().expect("victim slot is occupied");
        self.reserved_pages -= stream.reserved_pages;
        if let Some(key) = stream.prefix.take() {
            self.prefixes
                .get_mut(&key)
                .expect("registrations outlive their streams")
                .active -= 1;
        }
        if let Some(node) = stream.radix_node.take() {
            self.radix.release(node);
        }
        stream.cache.release_pages();
        if self.spare_caches.len() < self.cfg.max_batch {
            self.spare_caches.push(stream.cache);
        }
        self.spare_scratches.push(stream.scratch);
        self.stats.preemptions += 1;
        let class = stream.seq.priority.index();
        self.pending[class].push_front(WorkItem::Resume(stream.seq));
    }

    /// Makes `demand` pages admissible under the watermark for an
    /// arrival of class `class`: LRU-evicts cold radix leaves first,
    /// then suspends strictly-outranked victims until the demand fits.
    /// `false` when it cannot (the caller pushes its work item back).
    fn ensure_headroom(&mut self, class: usize, demand: usize) -> bool {
        let Some(cap) = self.kv_pool.capacity() else {
            return true;
        };
        loop {
            let claimed = self.pinned_pages + self.reserved_pages + self.radix.resident_pages();
            if claimed + demand <= cap {
                return true;
            }
            // Page pressure: reclaim cold cached prefixes before
            // preempting or refusing. Eviction only drops unreferenced
            // leaves, so acquired hits (and every active stream's
            // match) are safe.
            self.radix.evict_lru(claimed + demand - cap);
            self.stats.radix_evictions = self.radix.evictions();
            let claimed = self.pinned_pages + self.reserved_pages + self.radix.resident_pages();
            if claimed + demand <= cap {
                return true;
            }
            if !self.preempt_for(class) {
                return false;
            }
        }
    }

    /// Admits one work item: takes its slots and page reservation and
    /// hands it a cache — nothing is prefilled here; [`Scheduler::step`]
    /// works the prompt off as spans. A prefix request's cache is forked
    /// from the registry's pinned cache — the prefix positions arrive as
    /// refcounted shared pages — and with `auto_prefix` a plain request
    /// forks its longest cached whole-page prefix from the radix tree
    /// the same way; the prefill cursor starts past whatever the fork
    /// covers. A multi-sample request places its `n - 1` siblings now
    /// (slots held, caches empty) to fork the primary once its prompt
    /// has landed. A `max_new == 0` request finishes right here.
    ///
    /// Resume *is* single-sample admission of a longer prompt: the
    /// parked sequence re-prefills whole (`prefill_target` is its full
    /// length) at undiscounted demand, skips the radix tree both ways,
    /// and keeps its RNG.
    ///
    /// Returns `false` (work item pushed back) when blocked on slots or
    /// pages.
    fn admit_item(&mut self, class: usize, item: WorkItem) -> bool {
        let request = match &item {
            WorkItem::New(p) => Some(&p.request),
            WorkItem::Resume(_) => None,
        };
        let n = request.map_or(1, |r| r.mode.samples());
        if self.active_len() + n > self.cfg.max_batch {
            self.pending[class].push_front(item);
            return false;
        }
        // Match the prompt against the automatic prefix cache. The
        // lookup is capped one short of the prompt: a stream's first
        // token comes off the hidden state of its last prompt position,
        // so at least that position must be prefilled. A hit is
        // `acquire`d immediately — the node must survive the eviction
        // pass below and the stream's decode.
        let hit = request
            .filter(|r| self.cfg.auto_prefix && r.prefix.is_none())
            .and_then(|r| self.radix.lookup(&r.prompt, r.prompt.len() - 1));
        if let Some(m) = hit {
            self.radix.acquire(m.node);
        }
        let demand = match &item {
            WorkItem::New(p) => self.demand_with_hit(&p.request, hit.map_or(0, |m| m.depth)),
            WorkItem::Resume(s) => self.resume_demand(s),
        };
        if !self.ensure_headroom(class, demand) {
            if let Some(m) = hit {
                self.radix.release(m.node);
            }
            self.pending[class].push_front(item);
            return false;
        }
        let (seq, cache, prefix, best_of) = match item {
            WorkItem::Resume(seq) => {
                self.stats.resumes += 1;
                self.stats.resumed_prefill_tokens += seq.tokens.len() as u64;
                (seq, self.fresh_cache(), None, false)
            }
            WorkItem::New(Pending { id, request }) => {
                let (cache, mut tokens) = match (request.prefix.as_deref(), hit) {
                    (Some(key), _) => {
                        let entry = self
                            .prefixes
                            .get_mut(key)
                            .expect("prefix validated at submit, releases refuse while pending");
                        entry.active += n;
                        self.stats.prefix_forks += 1;
                        (
                            entry.cache.fork_prefix(entry.tokens.len()),
                            entry.tokens.clone(),
                        )
                    }
                    // A radix hit covers a *prompt prefix* (not extra
                    // tokens the way a registry prefix is), so the
                    // cached depth counts toward the prompt itself.
                    (None, Some(m)) => {
                        self.stats.prefix_forks += 1;
                        self.stats.cache_hit_tokens += m.depth as u64;
                        (self.radix.fork(m.node, m.depth), Vec::new())
                    }
                    (None, None) => (self.fresh_cache(), Vec::new()),
                };
                tokens.extend_from_slice(&request.prompt);
                let seq = Sequence {
                    id,
                    prompt_len: tokens.len(),
                    tokens,
                    max_new: request.max_new,
                    eos: request.eos,
                    sampling: request.sampling,
                    priority: request.priority,
                    rng: Rng::new(request.sampling.seed),
                };
                let best_of = matches!(request.mode, SamplingMode::BestOf { .. });
                (seq, cache, request.prefix, best_of)
            }
        };
        let cached = cache.len();
        debug_assert!(
            cached < seq.tokens.len(),
            "the fork leaves at least the last position to prefill"
        );
        self.reserved_pages += demand;
        let (group, member_reserved) = if n > 1 {
            // The prompt's whole pages are charged once, to the group,
            // released when the last sibling retires; each member's own
            // reservation is only its private tail.
            let member_tail = self.member_tail_pages(seq.prompt_len, seq.max_new);
            self.groups.insert(
                seq.id.0,
                GroupState {
                    shared_pages: demand - n * member_tail,
                    remaining: n,
                    best_of,
                    collected: Vec::new(),
                },
            );
            (Some(seq.id.0), member_tail)
        } else {
            (None, demand)
        };
        // Nothing to generate: finished before the first sample.
        let done = (seq.max_new == 0).then_some(FinishReason::Length);
        // The primary takes the first free slot, its siblings the next:
        // the primary's cursor starts past whatever its fork covers, a
        // sibling has no cursor and waits on the primary's slot.
        let primary_slot = self.free_slot();
        let radix_node = hit.map(|m| m.node);
        let member = |scratch, seq: Sequence, cache, sample_index| Stream {
            prefill_target: seq.tokens.len(),
            seq,
            cache,
            scratch,
            reserved_pages: member_reserved,
            prefix: prefix.clone(),
            radix_node,
            group,
            sample_index,
            cum_logprob: 0.0,
            awaits_primary: (sample_index > 0).then_some(primary_slot),
            prefill_cursor: (sample_index == 0).then_some(cached),
            step_chunk: 0,
            done,
        };
        let mut siblings = Vec::with_capacity(n - 1);
        for i in 1..n {
            if let Some(node) = radix_node {
                self.radix.acquire(node);
            }
            let twin = Sequence {
                tokens: seq.tokens.clone(),
                rng: Rng::new(seq.sampling.seed.wrapping_add(i as u64)),
                ..seq
            };
            let empty = self.kv_pool.new_cache(self.model.config().n_layers);
            let scratch = self.spare_scratches.pop().unwrap_or_default();
            siblings.push(member(scratch, twin, empty, i));
        }
        let scratch = self.spare_scratches.pop().unwrap_or_default();
        let primary = member(scratch, seq, cache, 0);
        for stream in std::iter::once(primary).chain(siblings) {
            match done {
                Some(reason) => self.finish(stream, reason),
                None => self.place(stream),
            }
        }
        true
    }

    /// An empty cache for a non-forking admission: a retired one when
    /// available (its pages are already back on the free list).
    fn fresh_cache(&mut self) -> KvCache {
        let cache = self
            .spare_caches
            .pop()
            .unwrap_or_else(|| self.kv_pool.new_cache(self.model.config().n_layers));
        debug_assert!(cache.is_empty(), "spare caches are reset at retirement");
        cache
    }

    /// Cancels the request `id` wherever it currently lives, freeing
    /// its resources this step:
    ///
    /// - still queued (new or suspended): removed from its class queue
    ///   — [`Cancelled::Pending`] / [`Cancelled::Suspended`];
    /// - active: every sibling stream is discarded this step — pages
    ///   released, prefix/radix references dropped, group ledger (and
    ///   its shared-page charge) retired with no result recorded —
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
        for queue in &mut self.pending {
            if let Some(pos) = queue.iter().position(|item| item.id() == id) {
                let item = queue.remove(pos).expect("position just found");
                self.stats.cancelled += 1;
                self.cancelled.insert(id);
                return Ok(match item {
                    WorkItem::New(_) => Cancelled::Pending,
                    WorkItem::Resume(_) => Cancelled::Suspended,
                });
            }
        }
        let slots: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(|s| s.seq.id == id))
            .map(|(i, _)| i)
            .collect();
        if !slots.is_empty() {
            let mut streams = 0;
            for i in slots {
                let stream = self.slots[i].take().expect("slot matched above");
                self.discard(stream);
                streams += 1;
            }
            // The whole group is gone: retire its ledger and the
            // shared-page charge no member carried individually.
            if let Some(group) = self.groups.remove(&id.0) {
                self.reserved_pages -= group.shared_pages;
            }
            self.stats.cancelled += 1;
            self.cancelled.insert(id);
            self.debug_check_ledger();
            return Ok(Cancelled::Active { streams });
        }
        if self.finished.iter().any(|f| f.id == id) {
            return Err(CancelError::AlreadyFinished(id));
        }
        Err(CancelError::Unknown(id))
    }

    /// Tears down an active stream without recording a result: the
    /// page-release half of [`Scheduler::finish`] (reservation, prefix
    /// and radix references, physical pages, recycled allocations) with
    /// no `FinishedRequest` and no group bookkeeping — the cancel path
    /// retires the ledger wholesale instead.
    fn discard(&mut self, mut stream: Stream) {
        self.reserved_pages -= stream.reserved_pages;
        if let Some(key) = stream.prefix.take() {
            self.prefixes
                .get_mut(&key)
                .expect("registrations outlive their streams")
                .active -= 1;
        }
        if let Some(node) = stream.radix_node.take() {
            self.radix.release(node);
        }
        stream.cache.reset();
        if self.spare_caches.len() < self.cfg.max_batch {
            self.spare_caches.push(stream.cache);
        }
        self.spare_scratches.push(stream.scratch);
    }

    /// The slot the next [`Scheduler::place`] fills: the first free one
    /// (one past the end when the slot table must grow).
    fn free_slot(&self) -> usize {
        self.slots
            .iter()
            .position(Option::is_none)
            .unwrap_or(self.slots.len())
    }

    /// Puts `stream` in the first free slot (growing up to `max_batch`).
    fn place(&mut self, stream: Stream) {
        let slot = self.free_slot();
        if slot == self.slots.len() {
            debug_assert!(self.slots.len() < self.cfg.max_batch);
            self.slots.push(None);
        }
        self.slots[slot] = Some(stream);
    }

    /// Moves every done stream out of its slot, releasing its page
    /// reservation and recycling its pages and cache/scratch allocations.
    fn retire(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].as_ref().is_some_and(|s| s.done.is_some()) {
                let stream = self.slots[i].take().expect("checked above");
                let reason = stream.done.expect("checked above");
                self.finish(stream, reason);
            }
        }
    }

    fn finish(&mut self, mut stream: Stream, reason: FinishReason) {
        self.reserved_pages -= stream.reserved_pages;
        if let Some(key) = &stream.prefix {
            let entry = self
                .prefixes
                .get_mut(key)
                .expect("registrations outlive their streams");
            entry.active -= 1;
        }
        if let Some(node) = stream.radix_node {
            // The matched tree node outlived this stream's decode; it
            // becomes evictable again once every holder retires.
            self.radix.release(node);
        }
        // Reset returns every owned page to the pool's free list, where
        // the next admission's prefill picks them up; shared prefix
        // leases (registry, radix tree, or sibling-held prompt pages)
        // are dropped, leaving the co-owners' pages alive.
        stream.cache.reset();
        if self.spare_caches.len() < self.cfg.max_batch {
            self.spare_caches.push(stream.cache);
        }
        self.spare_scratches.push(stream.scratch);
        let result = FinishedRequest {
            id: stream.seq.id,
            tokens: stream.seq.tokens,
            prompt_len: stream.seq.prompt_len,
            reason,
            sample_index: stream.sample_index,
            cumulative_logprob: stream.group.map(|_| stream.cum_logprob),
        };
        let Some(gid) = stream.group else {
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
            self.reserved_pages -= group.shared_pages;
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
