//! Continuous-batching serving layer for the Anda reproduction.
//!
//! The paper's end-to-end efficiency story assumes many decode streams
//! sharing the compute substrate. This crate provides the missing piece
//! over `anda-llm`'s incremental-decode API: an Orca-style
//! iteration-level [`Scheduler`] that admits requests (weighted
//! round-robin across [`Priority`] classes, under page-accounted KV
//! admission, preempting outranked streams when slots or pages run
//! out) and then continuous-batches prefill and decode through one
//! path — every iteration moves a span of tokens per stream into its KV
//! cache with one grouped batched-attention call
//! (`Model::decode_hidden_batch`: one token for each decoding stream,
//! a prompt chunk for each stream still prefilling), finishing with a
//! single batched LM-head GEMM (`Model::lm_head_batch`). The [`Engine`]
//! wraps that loop in a
//! handle-based serving front door: [`Engine::submit`] returns a
//! [`SubmitHandle`] that polls its stream
//! ([`SubmitHandle::try_next_tokens`]), reports its lifecycle state,
//! cancels it, or drives it to completion — see [`engine`] for the
//! lifecycle diagram, and [`workload`] for deterministic Poisson /
//! trace-replay arrival schedules in virtual step time.
//!
//! # KV memory model
//!
//! Every stream's `KvCache` leases fixed-size pages from the scheduler's
//! shared [`PagePool`] (`anda_llm::kv`). The pool's storage policy
//! ([`KvStorage`]) decides whether pages hold FP16 rows (binary16 words,
//! widened on read) or Anda-compressed bit-plane rows (decoded on read,
//! `16 / (M + 1 + 5/64)` times smaller). Admission reserves each request's worst-case
//! page demand against the pool's `max_pages`, so a bounded pool is real
//! memory accounting: requests that could never fit are rejected at
//! submit time, admitted streams can never exhaust the pool mid-flight,
//! and a retired stream's pages are recycled to the next admission. An
//! Anda-policy pool holds proportionally more pages per bit, admitting
//! long-context batches whose FP16 KV would not fit (§VI).
//!
//! Workloads dominated by a shared prompt prefix (system prompt,
//! few-shot header) additionally deduplicate the prefix KV itself,
//! through one store: a page-granular radix tree
//! ([`radix::RadixTree`]) every admission matches its prompt against —
//! the longest cached whole-page prefix is *forked* (refcounted shared
//! pages, no row copies), only the uncovered suffix is prefilled, and
//! admission charges the stream only its unshared pages. A prefix is
//! *declared* with [`Scheduler::pin_prefix`], which prefills it once
//! and pins it in the tree until [`Scheduler::unpin_prefix`], or
//! *discovered*: `SchedulerConfig::auto_prefix` inserts every prompt
//! the step its last chunk lands and LRU-evicts cold leaves under page
//! pressure. Sharing composes multiplicatively with compression: the
//! prefix is stored once *and* `16 / (M + 1 + 5/64)` times smaller
//! under `Anda{m}`. The
//! same fork mechanism, applied mid-stream, serves multi-sample
//! requests: [`RequestBuilder::parallel`] / [`RequestBuilder::best_of`]
//! prefill the prompt once and fork the live cache into `n` sibling
//! streams whose sample `i` is bit-identical to a standalone request
//! seeded `seed + i`.
//!
//! # Determinism
//!
//! Serving is bit-exact: each stream's tokens (and the logits behind
//! them) are `f32::to_bits`-identical to running the same request alone
//! through `Model::generate_with_cache` on a same-policy cache, at every
//! batch composition, arrival order, page size and thread count. The
//! serial and pooled kernels are bit-identical, the batched LM head
//! computes the same ascending-`k` dots as the solo one, and every
//! stream owns its RNG — so batching is purely a throughput
//! optimization.
//!
//! # Example
//!
//! ```
//! use anda_llm::zoo::opt_125m_sim;
//! use anda_serve::{
//!     KvPoolConfig, KvStorage, Priority, Request, Scheduler, SchedulerConfig,
//! };
//!
//! let model = opt_125m_sim().build();
//! let mut sched = Scheduler::new(&model, SchedulerConfig {
//!     max_batch: 2,
//!     kv: KvPoolConfig {
//!         storage: KvStorage::Anda { mantissa_bits: 8 },
//!         page_positions: 8,
//!         max_pages: Some(256),
//!     },
//!     ..SchedulerConfig::default()
//! });
//! // A shared few-shot header, one page long: prefilled once, pinned,
//! // and forked into every stream whose prompt starts with it.
//! let header = [11, 12, 13, 14, 15, 16, 17, 18];
//! let pin = sched.pin_prefix(&header).unwrap();
//! sched.submit(Request::builder([1, 2, 3]).max_new(4).build().unwrap()).unwrap();
//! sched.submit(
//!     Request::builder([&header[..], &[7, 8]].concat())
//!         .max_new(3)
//!         .temperature(0.8)
//!         .seed(42)
//!         .priority(Priority::High)
//!         .build()
//!         .unwrap(),
//! ).unwrap();
//! sched.submit(
//!     Request::builder([&header[..], &[9]].concat()).max_new(2).build().unwrap(),
//! ).unwrap();
//! let done = sched.run_to_completion();
//! assert_eq!(done.len(), 3);
//! for r in &done {
//!     assert_eq!(r.tokens.len(), r.prompt_len + r.generated().len());
//! }
//! assert_eq!(sched.stats().prefix_forks, 2);
//! assert_eq!(pin.pages(), sched.unpin_prefix(pin));
//! ```

pub mod engine;
pub mod radix;
pub mod request;
pub mod scheduler;
pub mod workload;

pub use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool, SharedPage};
pub use engine::{Engine, RequestState, SubmitHandle};
pub use radix::{RadixMatch, RadixTree};
pub use request::{
    FinishReason, FinishedRequest, Priority, Request, RequestBuilder, RequestError, RequestId,
    SamplingMode, SamplingParams,
};
pub use scheduler::{
    CancelError, Cancelled, PoolSnapshot, PrefixCacheSnapshot, PrefixPin, Scheduler,
    SchedulerConfig, SchedulerStats, StreamStatus, SubmitError,
};
pub use workload::{ArrivalSchedule, Replay};
