//! Request and response types for the serving layer.
//!
//! Requests are built with the validating [`RequestBuilder`]
//! ([`Request::builder`]): nonsense configurations — an empty prompt,
//! `parallel(0)`, `best_of(1)` — are rejected at *build* time with a
//! [`RequestError`], instead of surfacing later at submit.

/// Identifier assigned to a request at submission, unique per
/// [`Scheduler`](crate::Scheduler).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Admission priority class of a request.
///
/// The scheduler admits by *weighted round-robin* between classes (see
/// [`Priority::weight`]) rather than strict priority, so low classes
/// are starvation-bounded, and — with preemption enabled — a blocked
/// high-class arrival may *suspend* a lower-class victim stream to
/// reclaim its KV pages ([`SchedulerStats::preemptions`]).
///
/// Ordering: `High < Normal < Low`, i.e. the [`Ord`] minimum is the
/// most urgent class ([`Priority::outranks`] reads better at call
/// sites).
///
/// [`SchedulerStats::preemptions`]: crate::SchedulerStats::preemptions
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic: largest admission share, may preempt.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Throughput/batch traffic: smallest admission share, first choice
    /// as a preemption victim.
    Low,
}

impl Priority {
    /// Every class, most urgent first (also the queue index order).
    pub const CLASSES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index of this class (`High = 0`, `Normal = 1`, `Low = 2`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Weighted-round-robin admission share of this class: out of every
    /// 7 admission grants under contention, `High` gets 4, `Normal` 2,
    /// `Low` 1 — the starvation bound the scheduler property tests pin.
    pub fn weight(self) -> usize {
        match self {
            Priority::High => 4,
            Priority::Normal => 2,
            Priority::Low => 1,
        }
    }

    /// `true` when `self` is a strictly more urgent class than `other`
    /// (only strictly-outranked streams may be preempted).
    pub fn outranks(self, other: Priority) -> bool {
        self < other
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        })
    }
}

/// Why [`RequestBuilder::build`] rejected a request configuration.
/// Catching nonsense at build time keeps [`Scheduler::submit`] errors
/// about the *model and pool* (vocab, `max_seq`, capacity), not about
/// malformed requests.
///
/// [`Scheduler::submit`]: crate::Scheduler::submit
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// The prompt was empty.
    EmptyPrompt,
    /// `parallel(0)` or `best_of(0)`: a multi-sample mode with zero
    /// samples.
    ZeroSamples,
    /// `best_of(1)`: selecting the best of one candidate is
    /// [`SamplingMode::Single`] spelled confusingly — use that instead.
    DegenerateBestOf,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::EmptyPrompt => write!(f, "prompt must not be empty"),
            RequestError::ZeroSamples => {
                write!(f, "sampling mode must request at least one sample")
            }
            RequestError::DegenerateBestOf => {
                write!(
                    f,
                    "best_of(1) is Single spelled confusingly; use mode Single"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Per-request sampling configuration.
///
/// Each stream owns an RNG seeded by `seed`, so a request's token sequence
/// is a pure function of (model, prompt, sampling) — independent of what
/// else is in the batch, when the request arrived, or how many threads the
/// pool has. `temperature <= 0` is greedy argmax and draws nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingParams {
    /// Softmax temperature; `<= 0` selects greedy decoding.
    pub temperature: f32,
    /// Seed for the stream-private RNG.
    pub seed: u64,
}

impl SamplingParams {
    /// Greedy decoding (temperature 0; the seed is never used).
    pub fn greedy() -> Self {
        SamplingParams {
            temperature: 0.0,
            seed: 0,
        }
    }
}

impl Default for SamplingParams {
    fn default() -> Self {
        Self::greedy()
    }
}

/// How many completions a request produces, and how they are reported.
///
/// Multi-sample modes are served by *mid-stream cache forking*: the
/// prompt is prefilled once, then the live cache is forked at its decode
/// position (`KvCache::fork_full`) into `n` sibling streams sharing every
/// prompt page copy-on-write — the same refcount ledger behind prefix
/// sharing, so the prompt's KV is charged once, not `n` times. Sibling
/// `i` seeds its RNG with `seed.wrapping_add(i)` (sample 0 uses `seed`
/// verbatim), making each sample bit-identical to a standalone request
/// with that derived seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SamplingMode {
    /// One completion (the default; greedy or sampled per
    /// [`SamplingParams`]).
    #[default]
    Single,
    /// `n` independent completions, every one reported as its own
    /// [`FinishedRequest`] (distinguished by
    /// [`FinishedRequest::sample_index`]).
    Parallel {
        /// Number of samples (`>= 1`; validated at submit).
        n: usize,
    },
    /// `n` independent completions, but only the one with the highest
    /// cumulative log-probability is reported (ties break toward the
    /// lowest sample index).
    BestOf {
        /// Number of candidates (`>= 1`; validated at submit).
        n: usize,
    },
}

impl SamplingMode {
    /// Streams this mode decodes concurrently.
    pub fn samples(&self) -> usize {
        match *self {
            SamplingMode::Single => 1,
            SamplingMode::Parallel { n } | SamplingMode::BestOf { n } => n,
        }
    }
}

/// A generation request: prompt, generation budget, sampling policy.
#[derive(Clone, Debug)]
pub struct Request {
    /// Prompt token ids (must be non-empty and in-vocab) — always the
    /// full prompt. Whatever leading whole pages of it the scheduler
    /// already caches (a prefix pinned with
    /// [`Scheduler::pin_prefix`](crate::Scheduler::pin_prefix), or an
    /// earlier prompt under `auto_prefix`) are *shared* into this
    /// stream's cache at admission instead of prefilled again, and the
    /// stream is charged only its unshared pages.
    pub prompt: Vec<usize>,
    /// Maximum number of new tokens to generate.
    pub max_new: usize,
    /// Optional end-of-sequence token: generation stops once it is
    /// sampled (the EOS token is included in the output).
    pub eos: Option<usize>,
    /// Sampling policy.
    pub sampling: SamplingParams,
    /// Completion multiplicity: one stream, `n` parallel samples, or
    /// best-of-`n` (see [`SamplingMode`]).
    pub mode: SamplingMode,
    /// Admission class (see [`Priority`]): weighted-round-robin share
    /// and preemption rank. Defaults to [`Priority::Normal`].
    pub priority: Priority,
}

impl Request {
    /// Starts building a request around `prompt`. The builder validates
    /// at [`RequestBuilder::build`]; every knob defaults to the benign
    /// choice (greedy single completion, no EOS, [`Priority::Normal`],
    /// `max_new = 0`).
    pub fn builder(prompt: impl Into<Vec<usize>>) -> RequestBuilder {
        RequestBuilder {
            prompt: prompt.into(),
            max_new: 0,
            eos: None,
            sampling: SamplingParams::greedy(),
            mode: SamplingMode::Single,
            priority: Priority::Normal,
        }
    }

    /// KV positions the scheduler's page accounting covers for this
    /// request: the prompt plus the worst-case generation length (the
    /// scheduler discounts pages shared out of its prefix store in one
    /// place — `pages_needed`). Saturating, so an absurd `max_new`
    /// fails the submit-time `max_seq`/capacity checks instead of
    /// wrapping past them.
    pub fn reserve_tokens(&self) -> usize {
        self.prompt.len().saturating_add(self.max_new)
    }
}

/// Validating builder for [`Request`] ([`Request::builder`]).
///
/// Setters never fail; [`RequestBuilder::build`] performs all the
/// *request-shape* validation (the scheduler still checks model- and
/// pool-dependent facts — vocab, `max_seq`, pool capacity — at
/// submit).
///
/// # Example
///
/// ```
/// use anda_serve::{Priority, Request, RequestError, SamplingMode};
///
/// let req = Request::builder(vec![1, 2, 3])
///     .max_new(16)
///     .temperature(0.8)
///     .seed(42)
///     .priority(Priority::High)
///     .best_of(4)
///     .build()
///     .unwrap();
/// assert_eq!(req.mode, SamplingMode::BestOf { n: 4 });
///
/// // Nonsense is rejected at build time, not at submit:
/// assert_eq!(
///     Request::builder(vec![1]).best_of(1).build().unwrap_err(),
///     RequestError::DegenerateBestOf,
/// );
/// assert_eq!(
///     Request::builder(vec![]).build().unwrap_err(),
///     RequestError::EmptyPrompt,
/// );
/// ```
#[derive(Clone, Debug)]
pub struct RequestBuilder {
    prompt: Vec<usize>,
    max_new: usize,
    eos: Option<usize>,
    sampling: SamplingParams,
    mode: SamplingMode,
    priority: Priority,
}

impl RequestBuilder {
    /// Maximum number of new tokens to generate (default 0).
    pub fn max_new(mut self, n: usize) -> Self {
        self.max_new = n;
        self
    }

    /// Stop generation once `token` is sampled.
    pub fn eos(mut self, token: usize) -> Self {
        self.eos = Some(token);
        self
    }

    /// Full sampling configuration in one call.
    pub fn sampling(mut self, sampling: SamplingParams) -> Self {
        self.sampling = sampling;
        self
    }

    /// Softmax temperature (`<= 0` is greedy, the default).
    pub fn temperature(mut self, temperature: f32) -> Self {
        self.sampling.temperature = temperature;
        self
    }

    /// Seed of the stream-private RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sampling.seed = seed;
        self
    }

    /// Completion multiplicity (validated at build).
    pub fn mode(mut self, mode: SamplingMode) -> Self {
        self.mode = mode;
        self
    }

    /// `n` parallel samples over one shared prompt cache; sample `i`
    /// decodes with seed `seed + i`.
    pub fn parallel(self, n: usize) -> Self {
        self.mode(SamplingMode::Parallel { n })
    }

    /// Best-of-`n`: `n` candidates decode over one shared prompt cache,
    /// only the highest cumulative-logprob completion is reported.
    pub fn best_of(self, n: usize) -> Self {
        self.mode(SamplingMode::BestOf { n })
    }

    /// Admission class (default [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Validates the configuration and produces the [`Request`].
    ///
    /// # Errors
    ///
    /// [`RequestError::EmptyPrompt`] for an empty prompt,
    /// [`RequestError::ZeroSamples`] for `parallel(0)` / `best_of(0)`,
    /// [`RequestError::DegenerateBestOf`] for `best_of(1)`.
    pub fn build(self) -> Result<Request, RequestError> {
        if self.prompt.is_empty() {
            return Err(RequestError::EmptyPrompt);
        }
        match self.mode {
            SamplingMode::Parallel { n: 0 } | SamplingMode::BestOf { n: 0 } => {
                return Err(RequestError::ZeroSamples)
            }
            SamplingMode::BestOf { n: 1 } => return Err(RequestError::DegenerateBestOf),
            _ => {}
        }
        Ok(Request {
            prompt: self.prompt,
            max_new: self.max_new,
            eos: self.eos,
            sampling: self.sampling,
            mode: self.mode,
            priority: self.priority,
        })
    }
}

/// Why a stream stopped decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishReason {
    /// `max_new` tokens were generated.
    Length,
    /// The EOS token was sampled (it is the last generated token).
    Eos,
}

/// A completed request: the full token sequence (prompt included) plus
/// bookkeeping. A finished request generated exactly
/// `min(max_new, position of the first EOS + 1)` new tokens.
#[derive(Clone, Debug)]
pub struct FinishedRequest {
    /// The id [`Scheduler::submit`](crate::Scheduler::submit) returned.
    pub id: RequestId,
    /// Prompt followed by every generated token.
    pub tokens: Vec<usize>,
    /// Length of the prompt prefix of `tokens`.
    pub prompt_len: usize,
    /// Why decoding stopped.
    pub reason: FinishReason,
    /// Which sample of a multi-sample request this is: `0..n` for
    /// [`SamplingMode::Parallel`], the winning candidate's index for
    /// [`SamplingMode::BestOf`], always `0` for
    /// [`SamplingMode::Single`]. Sample `i` decoded with seed
    /// `sampling.seed + i`.
    pub sample_index: usize,
    /// Sum over the generated tokens of `ln softmax(logits)[token]`
    /// (temperature-independent, accumulated in `f64`), the best-of
    /// selection score. `None` for [`SamplingMode::Single`] requests,
    /// which skip the extra log-softmax work.
    pub cumulative_logprob: Option<f64>,
}

impl FinishedRequest {
    /// The generated suffix (everything after the prompt).
    pub fn generated(&self) -> &[usize] {
        &self.tokens[self.prompt_len..]
    }
}
