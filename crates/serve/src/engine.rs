//! Handle-based serving front door over the [`Scheduler`].
//!
//! The scheduler is a synchronous batch loop: `submit` then `step`
//! until idle, then sift through `take_finished` for your id. That is
//! the right substrate but the wrong API for serving, where callers
//! arrive independently, poll *their* stream, and cancel without
//! knowing who else is in the batch. [`Engine`] wraps the scheduler in
//! exactly that shape:
//!
//! - [`Engine::submit`] returns a [`SubmitHandle`] tied to the
//!   submitted request;
//! - [`SubmitHandle::try_next_tokens`] polls the tokens generated since
//!   the last poll (non-blocking — empty when nothing new);
//! - [`SubmitHandle::cancel`] tears the request down wherever it is;
//! - [`SubmitHandle::await_finished`] drives the engine until the
//!   request completes and returns its results.
//!
//! Handles share the engine through `Rc<RefCell<…>>`, so they stay
//! self-contained values: any handle can drive or poll the engine
//! without borrowing the `Engine` itself. Everything is single-threaded
//! and cooperative — "async" here means *incremental*: one
//! [`Engine::step`] advances every active stream by one token, and
//! polling never blocks. Time is virtual throughout, measured in steps
//! ([`Engine::steps`]), which is what makes latency assertions
//! (time-to-first-token in steps) deterministic and machine-independent.
//!
//! # Lifecycle
//!
//! ```text
//! Pending ──► Prefilling ──► Decoding ──► Finished
//!                 ▲             │  ▲
//!                 │ (resume     ▼  │ (preempted / resumed)
//!                 │ re-prefills) Suspended
//! ```
//!
//! [`SubmitHandle::state`] reports the current position in that
//! diagram; cancellation is terminal from every non-finished state.

use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use anda_llm::Model;

use crate::request::{FinishedRequest, Request, RequestId};
use crate::scheduler::{
    CancelError, Cancelled, Scheduler, SchedulerConfig, StreamStatus, SubmitError,
};

/// Where a submitted request currently is in the engine lifecycle.
/// The scheduler-side states mirror [`StreamStatus`]; `Finished` and
/// `Cancelled` are terminal and engine-tracked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestState {
    /// Queued, not yet admitted to a slot.
    Pending,
    /// Admitted, working off its prompt in chunks.
    Prefilling,
    /// Decoding one token per step.
    Decoding,
    /// Preempted: pages released, parked for resume via re-prefill.
    Suspended,
    /// All results are in (collectable via
    /// [`SubmitHandle::await_finished`]).
    Finished,
    /// Torn down by [`SubmitHandle::cancel`]; no results will arrive.
    Cancelled,
}

impl fmt::Display for RequestState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RequestState::Pending => "pending",
            RequestState::Prefilling => "prefilling",
            RequestState::Decoding => "decoding",
            RequestState::Suspended => "suspended",
            RequestState::Finished => "finished",
            RequestState::Cancelled => "cancelled",
        })
    }
}

/// The engine internals every handle shares.
struct EngineCore<'a> {
    sched: Scheduler<'a>,
    /// Finished results by request id, drained from the scheduler after
    /// every step and held until the owning handle collects them.
    results: HashMap<RequestId, Vec<FinishedRequest>>,
    /// Virtual time: scheduler iterations executed so far.
    steps: u64,
}

impl EngineCore<'_> {
    fn step(&mut self) {
        self.sched.step();
        self.steps += 1;
        self.bank();
    }

    /// Moves the scheduler's finished results into the per-request bank.
    fn bank(&mut self) {
        for result in self.sched.take_finished() {
            self.results.entry(result.id).or_default().push(result);
        }
    }
}

/// The serving front door: a handle-based submit/poll/cancel API over
/// the [`Scheduler`] (see the [module docs](self) for the lifecycle).
///
/// # Example
///
/// ```
/// use anda_llm::zoo::opt_125m_sim;
/// use anda_serve::{Engine, Priority, Request, RequestState, SchedulerConfig};
///
/// let model = opt_125m_sim().build();
/// let engine = Engine::new(&model, SchedulerConfig::default());
/// let mut fast = engine
///     .submit(
///         Request::builder([1, 2, 3])
///             .max_new(4)
///             .priority(Priority::High)
///             .build()
///             .unwrap(),
///     )
///     .unwrap();
/// let slow = engine
///     .submit(Request::builder([4, 5]).max_new(2).build().unwrap())
///     .unwrap();
/// engine.step();
/// assert!(!fast.try_next_tokens().is_empty());
/// let results = fast.await_finished();
/// assert_eq!(results[0].generated().len(), 4);
/// assert_eq!(slow.state(), RequestState::Finished);
/// ```
pub struct Engine<'a> {
    core: Rc<RefCell<EngineCore<'a>>>,
}

impl<'a> Engine<'a> {
    /// An engine over `model` with a fresh [`Scheduler`] built from
    /// `cfg`.
    pub fn new(model: &'a Model, cfg: SchedulerConfig) -> Self {
        Self::over(Scheduler::new(model, cfg))
    }

    /// An engine over an already-configured scheduler (custom thread
    /// pool, pinned prefixes).
    pub fn over(sched: Scheduler<'a>) -> Self {
        Engine {
            core: Rc::new(RefCell::new(EngineCore {
                sched,
                results: HashMap::new(),
                steps: 0,
            })),
        }
    }

    /// Submits `request` and returns the handle that polls, cancels, or
    /// awaits it. Admission control is the scheduler's
    /// ([`SubmitError`] distinguishes a request that can *never* fit
    /// from one blocked by currently pinned prefixes).
    pub fn submit(&self, request: Request) -> Result<SubmitHandle<'a>, SubmitError> {
        let id = self.core.borrow_mut().sched.submit(request)?;
        Ok(SubmitHandle {
            core: Rc::clone(&self.core),
            id,
            cursor: 0,
            cancelled: false,
        })
    }

    /// Advances every active stream by one token (admitting, resuming,
    /// and preempting as the scheduler sees fit) and banks any results
    /// that finished this iteration.
    pub fn step(&self) {
        self.core.borrow_mut().step();
    }

    /// Steps until no request is pending, suspended, or active.
    pub fn run_until_idle(&self) {
        while !self.core.borrow().sched.is_idle() {
            self.step();
        }
    }

    /// Virtual time: scheduler iterations executed so far. Handles
    /// measure TTFT/TPOT in this clock.
    pub fn steps(&self) -> u64 {
        self.core.borrow().steps
    }

    /// `true` when nothing is pending, suspended, or active.
    pub fn is_idle(&self) -> bool {
        self.core.borrow().sched.is_idle()
    }

    /// Cancels `id` wherever it currently lives (see
    /// [`Scheduler::cancel`]). [`SubmitHandle::cancel`] is the usual
    /// path; this one is for callers that only kept the id.
    pub fn cancel(&self, id: RequestId) -> Result<Cancelled, CancelError> {
        self.core.borrow_mut().sched.cancel(id)
    }

    /// Read access to the underlying scheduler (snapshots, stats,
    /// stream probes). The borrow must be dropped before the next
    /// [`Engine::step`].
    pub fn scheduler(&self) -> Ref<'_, Scheduler<'a>> {
        Ref::map(self.core.borrow(), |core| &core.sched)
    }

    /// Runs `f` with mutable access to the underlying scheduler
    /// (pinning prefixes, manual stepping).
    pub fn with_scheduler<R>(&self, f: impl FnOnce(&mut Scheduler<'a>) -> R) -> R {
        f(&mut self.core.borrow_mut().sched)
    }
}

/// A submitted request's handle: poll its tokens, watch its lifecycle
/// state, cancel it, or drive the engine to its completion. Handles
/// are independent values (they share the engine internally) and may
/// outlive the [`Engine`] they came from.
pub struct SubmitHandle<'a> {
    core: Rc<RefCell<EngineCore<'a>>>,
    id: RequestId,
    /// Generated tokens already reported by `try_next_tokens`.
    cursor: usize,
    cancelled: bool,
}

impl SubmitHandle<'_> {
    /// The scheduler-assigned id of this request.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Where the request is in the lifecycle right now.
    pub fn state(&self) -> RequestState {
        if self.cancelled {
            return RequestState::Cancelled;
        }
        let core = self.core.borrow();
        match core.sched.status(self.id) {
            Some(StreamStatus::Pending) => RequestState::Pending,
            Some(StreamStatus::Prefilling) => RequestState::Prefilling,
            Some(StreamStatus::Decoding) => RequestState::Decoding,
            Some(StreamStatus::Suspended) => RequestState::Suspended,
            None if core.sched.is_cancelled(self.id) => RequestState::Cancelled,
            // Nothing of it is queued or running any more: every
            // result is in (banked, or collected already).
            None => RequestState::Finished,
        }
    }

    /// The tokens generated since the last poll, without stepping the
    /// engine — empty when nothing new arrived (someone must call
    /// [`Engine::step`] for tokens to appear). Polls the request's
    /// primary (sample 0) stream while it is live and its sample-0
    /// result once finished; for a best-of request the *winning*
    /// candidate may differ from the polled one, so treat
    /// [`SubmitHandle::await_finished`] as authoritative there.
    pub fn try_next_tokens(&mut self) -> Vec<usize> {
        let core = self.core.borrow();
        let fresh = if let Some(tokens) = core.sched.stream_tokens(self.id) {
            let generated = core
                .sched
                .generated_len(self.id)
                .expect("stream_tokens and generated_len agree on liveness");
            tokens[tokens.len() - (generated - self.cursor)..].to_vec()
        } else if let Some(results) = core.results.get(&self.id) {
            let primary = results
                .iter()
                .find(|r| r.sample_index == 0)
                .unwrap_or(&results[0]);
            primary.generated()[self.cursor..].to_vec()
        } else {
            Vec::new()
        };
        self.cursor += fresh.len();
        fresh
    }

    /// Tears the request down wherever it is — queued, suspended, or
    /// mid-decode (its pages are released this call; co-batched
    /// survivors never observe it). Terminal: the handle reports
    /// [`RequestState::Cancelled`] afterwards and no results arrive.
    pub fn cancel(&mut self) -> Result<Cancelled, CancelError> {
        let outcome = self.core.borrow_mut().sched.cancel(self.id);
        if outcome.is_ok() {
            self.cancelled = true;
        }
        outcome
    }

    /// Drives the engine until this request finishes, then removes and
    /// returns its results: `n` for a parallel request (sample order),
    /// the single winner for best-of, one otherwise. Returns the empty
    /// vector for a cancelled request, and for one whose results were
    /// already collected (a second await, or a drain that bypassed the
    /// engine) — without stepping. Other requests keep being served
    /// while this one is awaited — steps advance everyone.
    pub fn await_finished(&mut self) -> Vec<FinishedRequest> {
        loop {
            let mut core = self.core.borrow_mut();
            if self.cancelled || core.sched.is_cancelled(self.id) {
                self.cancelled = true;
                core.results.remove(&self.id);
                return Vec::new();
            }
            // Nothing of it live means every result it will ever have
            // is in — none at all if they were collected before:
            // stepping on would spin an idle scheduler forever.
            if core.sched.status(self.id).is_none() {
                core.bank();
                let mut results = core.results.remove(&self.id).unwrap_or_default();
                results.sort_by_key(|r| r.sample_index);
                return results;
            }
            core.step();
        }
    }
}
