//! Deterministic arrival processes for serving experiments.
//!
//! Latency under load is a property of the *arrival process*, not just
//! the batch: TTFT percentiles only mean something against a stated
//! traffic shape. This module generates those shapes deterministically
//! — seeded Poisson traffic ([`ArrivalSchedule::poisson`]) or an
//! explicit trace ([`ArrivalSchedule::trace`]) — over **virtual step
//! time**: arrivals are indexed by scheduler iteration
//! ([`Engine::steps`](crate::Engine::steps)), never by wall clock, so a
//! workload replays bit-identically on any machine at any speed and
//! latency assertions ("high-priority TTFT ≤ k steps") are noise-free.
//!
//! The intended loop pairs a schedule with a [`Replay`] cursor:
//!
//! ```
//! use anda_serve::workload::{ArrivalSchedule, Replay};
//!
//! let schedule = ArrivalSchedule::poisson(42, 3.0, 8);
//! let mut replay = Replay::new(schedule);
//! let mut seen = 0;
//! for step in 0.. {
//!     for idx in replay.due(step) {
//!         // submit request `idx` to the engine here
//!         seen += 1;
//!     }
//!     if replay.exhausted() {
//!         break;
//!     }
//!     // engine.step() here
//! }
//! assert_eq!(seen, 8);
//! ```

use anda_tensor::Rng;

/// When each request of a workload arrives, in virtual step time.
/// Arrival `i` is due at the start of step `steps[i]`; the sequence is
/// non-decreasing (several arrivals may share a step — a burst).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSchedule {
    steps: Vec<u64>,
}

impl ArrivalSchedule {
    /// A seeded Poisson process: `n` arrivals whose inter-arrival gaps
    /// are exponential with mean `mean_gap` steps (so the arrival rate
    /// is `1 / mean_gap` requests per step). Deterministic in `seed` —
    /// the same schedule on every machine, every run.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is not finite and positive.
    pub fn poisson(seed: u64, mean_gap: f64, n: usize) -> Self {
        assert!(
            mean_gap.is_finite() && mean_gap > 0.0,
            "mean_gap must be finite and positive, got {mean_gap}"
        );
        let mut rng = Rng::new(seed);
        let mut clock = 0.0f64;
        let steps = (0..n)
            .map(|_| {
                // Inverse-CDF exponential draw; `uniform` is in [0, 1)
                // so the argument of `ln` stays in (0, 1].
                clock += -mean_gap * (1.0 - rng.uniform()).ln();
                clock as u64
            })
            .collect();
        ArrivalSchedule { steps }
    }

    /// Replays an explicit trace of arrival steps (e.g. measured
    /// production inter-arrivals, or a hand-built burst pattern).
    ///
    /// # Panics
    ///
    /// Panics if the steps are not non-decreasing.
    pub fn trace(steps: impl Into<Vec<u64>>) -> Self {
        let steps = steps.into();
        assert!(
            steps.windows(2).all(|w| w[0] <= w[1]),
            "trace arrival steps must be non-decreasing"
        );
        ArrivalSchedule { steps }
    }

    /// Every arrival at a fixed `gap` (first at step 0): the
    /// closed-form traffic shape for capacity math and tests.
    pub fn uniform(gap: u64, n: usize) -> Self {
        ArrivalSchedule {
            steps: (0..n as u64).map(|i| i * gap).collect(),
        }
    }

    /// The arrival step of each request, in order.
    pub fn steps(&self) -> &[u64] {
        &self.steps
    }

    /// Number of arrivals in the schedule.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the schedule holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A forward-only cursor over an [`ArrivalSchedule`]: each call to
/// [`Replay::due`] yields the indices that became due, exactly once.
#[derive(Clone, Debug)]
pub struct Replay {
    schedule: ArrivalSchedule,
    next: usize,
}

impl Replay {
    /// A cursor at the start of `schedule`.
    pub fn new(schedule: ArrivalSchedule) -> Self {
        Replay { schedule, next: 0 }
    }

    /// The indices of every arrival due at or before virtual step
    /// `now` that has not been yielded yet. Calling with a smaller
    /// `now` than before yields nothing (the cursor never rewinds).
    pub fn due(&mut self, now: u64) -> std::ops::Range<usize> {
        let start = self.next;
        while self.next < self.schedule.steps.len() && self.schedule.steps[self.next] <= now {
            self.next += 1;
        }
        start..self.next
    }

    /// `true` once every arrival has been yielded.
    ///
    /// For callers driving a replay: its loop ends once this holds and the
    /// engine is idle.
    pub fn exhausted(&self) -> bool {
        self.next == self.schedule.steps.len()
    }

    /// The schedule this cursor replays.
    pub fn schedule(&self) -> &ArrivalSchedule {
        &self.schedule
    }
}
