//! Drives one pass of a serving workload through the engine front door
//! from a single thread, and checks what came out.
//!
//! The same loop serves both arrival kinds. Each iteration submits what
//! is due (closed loop: a request per idle client; open loop: the
//! Poisson arrivals due at this engine step), runs one `Engine::step`,
//! then polls every in-flight handle. Latencies are wall time from the
//! instant a request became due, which in both kinds is the instant
//! just before its submit — arrivals follow the engine's step clock, so
//! the generator is never late and the served schedule repeats exactly.
//!
//! Every time is read off the pass's [`RefClock`], which also runs the
//! reference slices between steps and so knows how slow the machine was
//! during this pass (`Pass::slowdown`).

use anda_llm::Model;
use rayon_lite::ThreadPool;

use crate::api::{self, Counters, Handle, Served, State};
use crate::refclock::RefClock;
use crate::trace::Tracer;
use crate::workloads::{Arrival, GenRequest, Workload};

/// What one request experienced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The submit was refused.
    pub refused: bool,
    /// The tokens the polls streamed differ from the engine's final result.
    pub streamed_differs: bool,
    /// Every generated token, as the polls returned them.
    pub tokens: Vec<usize>,
    /// Wall ms from due to first token.
    pub ttft_ms: f64,
    /// Wall ms from first to last token over the gaps between them;
    /// `NaN` for a single-token answer.
    pub mean_tpot_ms: f64,
    /// Engine steps spent queued before admission.
    pub queue_wait_steps: u64,
    /// Engine steps from due to first token.
    pub ttft_steps: u64,
    /// The request was seen suspended at least once.
    pub preempted: bool,
}

/// Per-step record of the traced run, read at the step boundary.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// Seconds from the start of the pass to the end of this step's polls.
    pub done_at_s: f64,
    pub ms: f64,
    pub prefill_tokens: u64,
    pub sampled_tokens: u64,
    pub pages_reserved: usize,
    pub pages_used: usize,
}

/// Everything measured in one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall seconds from the first submit to the last token.
    pub wall_s: f64,
    /// How many times slower than nominal the machine ran the reference
    /// slices during this pass.
    pub slowdown: f64,
    pub outcomes: Vec<Outcome>,
    /// Gaps between consecutive tokens of one stream, pooled, ms.
    pub gaps_ms: Vec<f64>,
    pub counters: Counters,
    /// Per-step records (traced run only).
    pub steps: Vec<StepRecord>,
}

impl Pass {
    /// Tokens the clients received.
    pub fn output_tokens(&self) -> usize {
        self.outcomes.iter().map(|o| o.tokens.len()).sum()
    }

    /// Prompt positions ingested: prefilled plus served from the cache.
    pub fn prompt_positions(&self) -> u64 {
        self.counters.prefill_tokens + self.counters.cache_hit_tokens
    }

    /// The same pass with every time divided by its slowdown: what a
    /// machine running the reference slices at nominal speed would have
    /// measured.
    pub fn at_reference_speed(mut self) -> Self {
        let k = self.slowdown;
        self.wall_s /= k;
        for o in &mut self.outcomes {
            o.ttft_ms /= k;
            o.mean_tpot_ms /= k;
        }
        for gap in &mut self.gaps_ms {
            *gap /= k;
        }
        for step in &mut self.steps {
            step.done_at_s /= k;
            step.ms /= k;
        }
        self.slowdown = 1.0;
        self
    }
}

struct InFlight<'a> {
    index: usize,
    handle: Handle<'a>,
    /// Seconds on the pass clock, like every time below.
    due: f64,
    due_step: u64,
    first_token: Option<f64>,
    last_token: f64,
    admitted: bool,
}

/// Runs `requests` through a fresh engine configured for `w`.
/// `arrival_seed` seeds the open-loop schedule. With `stop_after`, the
/// pass is abandoned once that many engine steps ran and `wall_s` is the
/// time those steps took (the untraced reference of a traced pass).
pub fn run_pass(
    model: &Model,
    w: &Workload,
    pool: &ThreadPool,
    requests: &[GenRequest],
    arrival_seed: u64,
    stop_after: Option<u64>,
    tracer: &mut Tracer,
) -> Pass {
    let served = Served::new(model, w, pool);
    let mut pass = Pass {
        outcomes: vec![Outcome::default(); requests.len()],
        ..Pass::default()
    };
    let mut arrivals = match w.arrival {
        Arrival::Open { per_step } => Some(api::Arrivals::poisson(
            arrival_seed,
            per_step,
            requests.len(),
        )),
        Arrival::Closed { .. } => None,
    };
    let clients = match w.arrival {
        Arrival::Closed { clients } => clients,
        Arrival::Open { .. } => usize::MAX,
    };
    let mut next = 0usize;
    // Clients that produced a first token so far: a closed loop's clients
    // join one at a time (see below).
    let mut first_tokens = 0usize;
    let mut inflight: Vec<InFlight<'_>> = Vec::new();
    let traced = tracer.enabled();
    let mut before = served.counters();

    let root = tracer.begin("bench.pass", None);
    let mut clock = RefClock::start();
    let mut last_token_at = 0.0;
    loop {
        // Arrivals due now. A closed loop ramps up: client k+1 joins when
        // a k-th request has produced its first token, so no pass opens
        // with every client submitting into an empty engine at once.
        let due_now = match arrivals.as_mut() {
            Some(a) => a.due(served.steps()),
            None => {
                let joined = clients.min(1 + first_tokens);
                next..requests
                    .len()
                    .min(next + joined.saturating_sub(inflight.len()))
            }
        };
        for index in due_now {
            next = index + 1;
            let due = clock.now();
            let span = tracer.begin("serve.submit", Some(index as u64));
            let submitted = served.submit(&requests[index]);
            tracer.end(span);
            match submitted {
                Ok(handle) => inflight.push(InFlight {
                    index,
                    handle,
                    due,
                    due_step: served.steps(),
                    first_token: None,
                    last_token: due,
                    admitted: false,
                }),
                Err(_) => pass.outcomes[index].refused = true,
            }
        }
        if inflight.is_empty() && next >= requests.len() {
            break;
        }
        if stop_after.is_some_and(|limit| served.steps() >= limit) {
            last_token_at = clock.now();
            break;
        }

        let span = tracer.begin("bench.reference", None);
        clock.tick();
        tracer.end(span);

        let span = tracer.begin("serve.step", None);
        let step_start = clock.now();
        served.step();
        let step_ms = (clock.now() - step_start) * 1e3;
        tracer.end(span);

        // Poll every in-flight stream, as its client would.
        let now_step = served.steps();
        inflight.retain_mut(|f| {
            let outcome = &mut pass.outcomes[f.index];
            let span = tracer.begin("serve.poll", Some(f.index as u64));
            let fresh = f.handle.poll();
            let state = f.handle.state();
            let seen = clock.now();
            tracer.end(span);
            if !f.admitted && state != State::Pending {
                f.admitted = true;
                outcome.queue_wait_steps = now_step - 1 - f.due_step;
            }
            outcome.preempted |= state == State::Suspended;
            if !fresh.is_empty() {
                match f.first_token {
                    None => {
                        first_tokens += 1;
                        f.first_token = Some(seen);
                        outcome.ttft_ms = (seen - f.due) * 1e3;
                        outcome.ttft_steps = now_step - f.due_step;
                        // Tokens after the first in the same poll carry no gap.
                    }
                    Some(_) => {
                        let gap = (seen - f.last_token) * 1e3 / fresh.len() as f64;
                        pass.gaps_ms.extend(std::iter::repeat_n(gap, fresh.len()));
                    }
                }
                f.last_token = seen;
                last_token_at = seen;
                outcome.tokens.extend(fresh);
            }
            match state {
                State::Finished | State::Cancelled => {
                    // What the polls streamed must be what the engine
                    // reports at retirement.
                    outcome.streamed_differs = f.handle.collect() != outcome.tokens;
                    if let Some(first) = f.first_token {
                        let n = outcome.tokens.len();
                        outcome.mean_tpot_ms = if n > 1 {
                            (f.last_token - first) * 1e3 / (n - 1) as f64
                        } else {
                            f64::NAN
                        };
                    }
                    false
                }
                _ => true,
            }
        });
        if traced {
            // Counts read at the step boundary (polls change none of them).
            let done_at_s = clock.now();
            let after = served.counters();
            let (pages_reserved, pages_used) = served.pages_reserved_and_used();
            pass.steps.push(StepRecord {
                done_at_s,
                ms: step_ms,
                prefill_tokens: after.prefill_tokens + after.resumed_prefill_tokens
                    - before.prefill_tokens
                    - before.resumed_prefill_tokens,
                sampled_tokens: after.sampled_tokens - before.sampled_tokens,
                pages_reserved,
                pages_used,
            });
            before = after;
        }
    }
    tracer.end(root);
    pass.wall_s = last_token_at;
    pass.slowdown = clock.slowdown();
    pass.counters = served.counters();
    pass
}

/// FNV-1a over every generated stream in request order (a separator
/// between streams), so two commits that schedule identically can be
/// compared at a glance.
pub fn tokens_digest(outcomes: &[Outcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for outcome in outcomes {
        for &t in &outcome.tokens {
            eat(t as u64);
        }
        eat(u64::MAX);
    }
    h
}

/// Result of checking one pass's outputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Requests sent.
    pub attempted: usize,
    /// Refused, short, or different from the oracle.
    pub failed: usize,
    /// Requests re-generated by the oracle.
    pub verified: usize,
}

/// Checks a pass after its timed region. Every request must have been
/// accepted and have produced exactly `max_new` tokens, the same through
/// the polls as in the engine's final result. With `oracle`, every 8th
/// request plus every preempted one is also re-generated alone on a
/// same-policy cache and compared token for token; the re-generations
/// are independent, so they are spread over `threads` threads.
pub fn check_pass(
    model: &Model,
    w: &Workload,
    requests: &[GenRequest],
    pass: &Pass,
    oracle: bool,
    threads: usize,
) -> Check {
    let complete = |i: usize| {
        let o = &pass.outcomes[i];
        !o.refused && !o.streamed_differs && o.tokens.len() == requests[i].max_new
    };
    let to_verify: Vec<usize> = (0..requests.len())
        .filter(|&i| oracle && complete(i) && (i % 8 == 0 || pass.outcomes[i].preempted))
        .collect();
    let mismatches: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let mine = to_verify.iter().skip(t).step_by(threads.max(1));
                scope.spawn(move || {
                    mine.filter(|&&i| {
                        api::solo_generate(model, &requests[i], w.pages) != pass.outcomes[i].tokens
                    })
                    .count()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("an oracle thread panicked"))
            .sum()
    });
    Check {
        attempted: requests.len(),
        failed: (0..requests.len()).filter(|&i| !complete(i)).count() + mismatches,
        verified: to_verify.len(),
    }
}
