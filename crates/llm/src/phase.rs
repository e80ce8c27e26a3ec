//! Phase spans of a served step: per phase its wall time, its calls and
//! one exact work count, summed in a [`PhaseLedger`].
//!
//! The ledger travels inside [`crate::PageDecodeCache`], the scratch
//! every step already carries, and is read through
//! [`crate::PageDecodeCache::phases`] (the serving scheduler's
//! `Scheduler::phases`). It is monotonic, like
//! [`crate::PageDecodeCache::pages_decoded`]: a step's spans are the
//! difference of two snapshots ([`PhaseLedger::since`]). The counts are
//! exact — they depend on the schedule alone, never on the clock, the
//! SIMD leg or the thread count — so tests pin them `==`; the wall times
//! are what a phase share is read from.
//!
//! Spans are laps: each boundary takes one clock reading ([`Stamp`])
//! that ends one span and starts the next ([`PhaseLedger::lap`]). The
//! walk laps twice per physical page and pass, hundreds of times a step,
//! so the reading is the cheapest clock there is: the time-stamp counter
//! on x86-64 (one `rdtsc`, half an `Instant::now`), converted to
//! nanoseconds when a span is read.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One phase of a served step. The walk's phases are timed on its first
/// job (the one holding column 0) and counted for all jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `Scheduler::step`'s admission; counts work items admitted.
    Admission,
    /// Per layer: norm, `A_qkv` codec, the QKV GEMM, RoPE and the K/V
    /// append (an Anda page's row encode); counts rows appended.
    Qkv,
    /// The walk's K tiles: a page's keys made ready, decoded (an Anda
    /// page the walk decodes into its tile); counts the positions made
    /// ready, an Anda page's once per pass whichever route widens them (0
    /// for a float page, `f32` or FP16, read in place). An Anda page read
    /// in place (the AVX-512 leg at `M <= 8`) is widened inside its
    /// products, so its widen is timed in [`Phase::KProduct`]. Calls are
    /// tiles, one per physical page per layer.
    KTile,
    /// The walk's `q·k` products, with the widen of an Anda page read in
    /// place; counts multiply-adds, `t · d` per lane over the positions
    /// `t` it attends.
    KProduct,
    /// The per-head softmax; counts score elements, `heads · t` per lane.
    Softmax,
    /// The walk's V tiles, as [`Phase::KTile`] for values (an in-place
    /// page's widen is timed in [`Phase::VProduct`]).
    VTile,
    /// The walk's `p·v` products, with the widen of an Anda page read in
    /// place; counts multiply-adds, `t · d` per lane.
    VProduct,
    /// Per layer: the `A_o` codec, output projection, FFN GEMMs and
    /// residuals; counts rows finished.
    Finish,
    /// The batched LM head; counts logit rows.
    LmHead,
    /// Drawing each sampling stream's next token; counts tokens sampled.
    Sampling,
    /// Retiring finished streams; counts streams retired.
    Retire,
}

impl Phase {
    /// Every phase, in step order.
    pub const ALL: [Phase; 11] = [
        Phase::Admission,
        Phase::Qkv,
        Phase::KTile,
        Phase::KProduct,
        Phase::Softmax,
        Phase::VTile,
        Phase::VProduct,
        Phase::Finish,
        Phase::LmHead,
        Phase::Sampling,
        Phase::Retire,
    ];
}

/// A clock reading that laps end and start on: time-stamp counter ticks
/// on x86-64, nanoseconds since the first reading elsewhere.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(u64);

impl Stamp {
    /// Reads the clock.
    #[inline(always)]
    pub fn now() -> Stamp {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `rdtsc` is baseline x86-64 and reads no memory.
            Stamp(unsafe { core::arch::x86_64::_rdtsc() })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            Stamp(EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64)
        }
    }
}

/// Nanoseconds per [`Stamp`] tick: measured once per process on x86-64
/// (a 2 ms spin against `Instant`; the counter runs at a constant rate
/// on every CPU whose kernel clocksource it is), 1 elsewhere.
fn ns_per_tick() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        if cfg!(not(target_arch = "x86_64")) {
            return 1.0;
        }
        let (start, ticks) = (Instant::now(), Stamp::now());
        while start.elapsed() < Duration::from_millis(2) {}
        let (ns, ticks) = (start.elapsed().as_nanos(), Stamp::now().0 - ticks.0);
        ns as f64 / ticks.max(1) as f64
    })
}

/// One phase's totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Wall time spent in the phase.
    pub wall_ns: u64,
    /// Times the phase ran.
    pub calls: u64,
    /// The phase's work unit (see [`Phase`]), exact.
    pub count: u64,
}

/// Every phase's totals, monotonic; the wall times in [`Stamp`] ticks
/// until [`PhaseLedger::span`] reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseLedger {
    spans: [PhaseSpan; Phase::ALL.len()],
}

impl PhaseLedger {
    /// The totals of `phase`.
    pub fn span(&self, phase: Phase) -> PhaseSpan {
        let span = self.spans[phase as usize];
        PhaseSpan {
            wall_ns: (span.wall_ns as f64 * ns_per_tick()) as u64,
            ..span
        }
    }

    /// Charges `phase` one call, `count` units and the time since
    /// `since`; returns the reading it took, which starts the next span.
    #[inline]
    pub fn lap(&mut self, phase: Phase, since: Stamp, count: u64) -> Stamp {
        let now = Stamp::now();
        let span = &mut self.spans[phase as usize];
        span.wall_ns += now.0.saturating_sub(since.0);
        span.calls += 1;
        span.count += count;
        now
    }

    /// What was charged after `earlier`, a snapshot of this ledger.
    pub fn since(&self, earlier: &PhaseLedger) -> PhaseLedger {
        self.zip(earlier, |a, b| a - b)
    }

    /// The two ledgers' totals added.
    pub(crate) fn plus(&self, other: &PhaseLedger) -> PhaseLedger {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, other: &PhaseLedger, op: impl Fn(u64, u64) -> u64) -> PhaseLedger {
        let mut out = *self;
        for (span, o) in out.spans.iter_mut().zip(&other.spans) {
            *span = PhaseSpan {
                wall_ns: op(span.wall_ns, o.wall_ns),
                calls: op(span.calls, o.calls),
                count: op(span.count, o.count),
            };
        }
        out
    }
}
