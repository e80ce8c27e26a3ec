//! The reference clock: how fast the machine is running right now.
//!
//! The benchmark runs on a few cores of a shared host, and the speed of
//! such a core moves with what the host's other tenants do: the same
//! single-threaded pass of `decode_steady` took 3.2 to 4.5 s within two
//! minutes, and set-up — fixed work, one thread — 0.20 to 0.31 s. No
//! estimator inside a run removes a slow minute. So every pass carries
//! its own yardstick: between engine steps the driver runs *reference
//! slices* — fixed, cache-resident multiply-add work owned by the
//! harness, which no change to the library can speed up — until they
//! have had [`SHARE`] of the pass's time. How long a slice took on
//! average, over [`SLICE_NOMINAL_S`], is the pass's *slowdown*; the
//! end-to-end metrics are wall times divided by it, i.e. the times a
//! machine running the slices at nominal speed would have shown. Sized
//! on the box this was written on, that took the spread (σ/mean) of a
//! pass's time over 90 s from 7–15% to 2–4% on all four workloads.
//!
//! Time spent in slices is not the program's: [`RefClock::now`] leaves
//! it out, so no latency or rate includes it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of a pass's time given to reference slices.
pub const SHARE: f64 = 0.03;

/// What one slice takes on the sizing box (2.1 GHz Xeon VM) when its
/// neighbours are quiet: slowdown 1.0.
pub const SLICE_NOMINAL_S: f64 = 110e-6;

const LANES: usize = 8;
const SLICE_ELEMS: usize = 2048;
const SLICE_SWEEPS: usize = 600;

/// A stopwatch for the measured program that interleaves reference
/// slices and leaves their time out.
pub struct RefClock {
    started: Instant,
    in_slices: Duration,
    slices: u32,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl RefClock {
    /// Starts the clock at 0.
    pub fn start() -> Self {
        RefClock {
            a: (0..SLICE_ELEMS).map(|i| (i % 97) as f32 * 0.01).collect(),
            b: (0..SLICE_ELEMS).map(|i| (i % 89) as f32 * 0.02).collect(),
            in_slices: Duration::ZERO,
            slices: 0,
            started: Instant::now(),
        }
    }

    /// Seconds the measured program has had since the start: wall time
    /// minus the time spent in reference slices.
    pub fn now(&self) -> f64 {
        (self.started.elapsed() - self.in_slices).as_secs_f64()
    }

    /// Runs reference slices until they have had [`SHARE`] of the
    /// program's time (at least one ever).
    pub fn tick(&mut self) {
        while self.slices == 0 || self.in_slices.as_secs_f64() < SHARE * self.now() {
            let t = Instant::now();
            self.slice();
            self.in_slices += t.elapsed();
            self.slices += 1;
        }
    }

    /// How many times longer than nominal the slices took on average
    /// (1.0 before any ran).
    pub fn slowdown(&self) -> f64 {
        if self.slices == 0 {
            return 1.0;
        }
        self.in_slices.as_secs_f64() / self.slices as f64 / SLICE_NOMINAL_S
    }

    /// One slice: [`SLICE_SWEEPS`] dot products of two L1-resident
    /// vectors on [`LANES`] independent accumulators.
    fn slice(&self) {
        let mut total = 0f32;
        for _ in 0..SLICE_SWEEPS {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            let mut acc = [0f32; LANES];
            for (x, y) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
                for lane in 0..LANES {
                    acc[lane] += x[lane] * y[lane];
                }
            }
            total += acc.iter().sum::<f32>();
        }
        black_box(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_take_their_share_and_stay_out_of_the_clock() {
        let mut clock = RefClock::start();
        assert_eq!(clock.slowdown(), 1.0);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(40) {
            std::hint::spin_loop();
        }
        clock.tick();
        assert!(clock.slices >= 1);
        let (own, reference) = (clock.now(), clock.in_slices.as_secs_f64());
        // The spin is the program's time, the slices are not; their debt
        // is paid.
        assert!(own >= 0.04, "{own}");
        assert!(reference >= SHARE * 0.04, "{reference}");
        assert!(clock.slowdown() > 0.0);
    }
}
