//! The only module that names the serving library.
//!
//! Every call the drivers make into `anda-serve` / `anda-llm` goes
//! through here, and the surface is kept to what the front door will
//! keep: `Request::builder`, `Engine` / `SubmitHandle`,
//! `Scheduler::with_pool`, `stats()`, `pool_snapshot()`,
//! `prefix_cache_snapshot()`, and the `SchedulerConfig` fields
//! `max_batch`, `kv`, `auto_prefix`, `prefill_chunk_tokens`,
//! `preemption`. It never names `grouped_attention`, `register_prefix`
//! or the deprecated `Request` shims, so a change that deletes those
//! does not touch the benchmark. (The layer ladder's kernel calls live
//! in `probes.rs`, the search workload's in `search.rs`.)

use anda_llm::config::{Family, ModelConfig};
use anda_llm::kv::{KvCache, PagePool};
use anda_llm::zoo::opt_125m_sim;
use anda_llm::Model;
use anda_quant::WeightQuantConfig;
use anda_serve::{
    ArrivalSchedule, Engine, KvPoolConfig, KvStorage, Priority, Replay, Request, RequestState,
    Scheduler, SchedulerConfig, SubmitHandle,
};
use anda_tensor::Rng;
use rayon_lite::ThreadPool;

use crate::workloads::{Class, GenRequest, Pages, Workload, PAGE_POSITIONS, VOCAB};

/// Architecture of the serving model `bench-m`: large enough that one
/// decode token costs ~0.7 ms of kernels at batch 8, so kernels and not
/// timer resolution set the numbers.
fn bench_m_config() -> ModelConfig {
    ModelConfig {
        name: "bench-m".into(),
        family: Family::Opt,
        d_model: 256,
        n_layers: 4,
        n_heads: 4,
        d_ffn: 1024,
        vocab: VOCAB,
        max_seq: 1024,
    }
}

/// Synthesizes `bench-m` in FP16 (before weight quantization).
pub fn synthesize_bench_m() -> Model {
    Model::synthesize(bench_m_config(), &opt_125m_sim().profile, 4242)
}

/// Quantizes a model's weights to the W4 serving configuration.
pub fn quantize_w4(model: &Model) -> Model {
    model.quantize_weights(WeightQuantConfig::w4_sim())
}

/// The library's page policy for a workload's pool.
pub fn storage(pages: Pages) -> KvStorage {
    match pages {
        Pages::Fp16 => KvStorage::Fp16,
        Pages::Anda8 => KvStorage::Anda { mantissa_bits: 8 },
    }
}

fn pool_config(w: &Workload, n_layers: usize) -> KvPoolConfig {
    KvPoolConfig {
        storage: storage(w.pages),
        page_positions: PAGE_POSITIONS,
        max_pages: w.pool_pages_per_layer.map(|p| p * n_layers),
    }
}

/// Bits of one KV page of `model` under `w`'s pool.
pub fn page_bits(w: &Workload, model: &Model) -> usize {
    pool_config(w, model.config().n_layers).page_bits(model.config().d_model)
}

/// Stored bits per cached K/V element under `pages`.
pub fn bits_per_element(pages: Pages, d_model: usize) -> f64 {
    storage(pages).row_bits(d_model) as f64 / d_model as f64
}

/// Where a request is in the engine's lifecycle, as the drivers need it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// Queued, not yet admitted.
    Pending,
    /// Admitted: prefilling or decoding.
    Running,
    /// Preempted: parked until the scheduler resumes it.
    Suspended,
    Finished,
    Cancelled,
}

/// The scheduler counters the drivers read at step boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub steps: u64,
    pub sampled_tokens: u64,
    pub prefill_tokens: u64,
    pub cache_hit_tokens: u64,
    pub resumed_prefill_tokens: u64,
    pub stalled_prefill_tokens: u64,
    pub preemptions: u64,
    pub pages_decoded: u64,
    pub peak_pages_in_use: usize,
    pub peak_active: usize,
}

/// A fresh engine over `model` configured for one workload.
pub struct Served<'a> {
    engine: Engine<'a>,
}

impl<'a> Served<'a> {
    /// Builds the scheduler on the explicit `pool` and wraps it in the
    /// engine front door.
    pub fn new(model: &'a Model, w: &Workload, pool: &'a ThreadPool) -> Self {
        let cfg = SchedulerConfig {
            max_batch: w.max_batch,
            kv: pool_config(w, model.config().n_layers),
            auto_prefix: w.auto_prefix,
            prefill_chunk_tokens: w.chunk,
            preemption: true,
            ..Default::default()
        };
        Served {
            engine: Engine::over(Scheduler::with_pool(model, cfg, pool)),
        }
    }

    /// Submits one generated request.
    pub fn submit(&self, req: &GenRequest) -> Result<Handle<'a>, String> {
        let request = Request::builder(req.prompt.clone())
            .max_new(req.max_new)
            .temperature(req.temperature)
            .seed(req.seed)
            .priority(match req.class {
                Class::High => Priority::High,
                Class::Normal => Priority::Normal,
                Class::Low => Priority::Low,
            })
            .build()
            .map_err(|e| e.to_string())?;
        self.engine
            .submit(request)
            .map(Handle)
            .map_err(|e| e.to_string())
    }

    /// One engine iteration.
    pub fn step(&self) {
        self.engine.step();
    }

    /// The engine's step clock.
    pub fn steps(&self) -> u64 {
        self.engine.steps()
    }

    /// The scheduler's cumulative counters.
    pub fn counters(&self) -> Counters {
        let s = self.engine.scheduler().stats();
        Counters {
            steps: s.steps,
            sampled_tokens: s.sampled_tokens,
            prefill_tokens: s.prefill_tokens,
            cache_hit_tokens: s.cache_hit_tokens,
            resumed_prefill_tokens: s.resumed_prefill_tokens,
            stalled_prefill_tokens: s.stalled_prefill_tokens,
            preemptions: s.preemptions,
            pages_decoded: s.pages_decoded,
            peak_pages_in_use: s.peak_pages_in_use,
            peak_active: s.peak_active,
        }
    }

    /// `(pages reserved or held by caches, pages physically in use)`.
    pub fn pages_reserved_and_used(&self) -> (usize, usize) {
        let sched = self.engine.scheduler();
        let snap = sched.pool_snapshot();
        let radix = sched.prefix_cache_snapshot().resident_pages;
        (
            snap.pinned_pages + snap.reserved_pages + radix,
            snap.pages_in_use,
        )
    }
}

/// One submitted request's handle.
pub struct Handle<'a>(SubmitHandle<'a>);

impl Handle<'_> {
    /// Tokens generated since the last poll (non-blocking).
    pub fn poll(&mut self) -> Vec<usize> {
        self.0.try_next_tokens()
    }

    /// Lifecycle state right now.
    pub fn state(&self) -> State {
        match self.0.state() {
            RequestState::Pending => State::Pending,
            RequestState::Finished => State::Finished,
            RequestState::Cancelled => State::Cancelled,
            RequestState::Suspended => State::Suspended,
            // Prefilling, Decoding, and any state a later library
            // version adds between admission and completion.
            _ => State::Running,
        }
    }

    /// Collects a finished request's generated tokens (empty if the
    /// engine holds no result for it).
    pub fn collect(&mut self) -> Vec<usize> {
        self.0
            .await_finished()
            .first()
            .map(|r| r.generated().to_vec())
            .unwrap_or_default()
    }
}

/// Arrival cursor of the open-loop workload: seeded Poisson arrivals on
/// the engine's step clock.
pub struct Arrivals(Replay);

impl Arrivals {
    /// `n` arrivals at `per_step` requests per step.
    pub fn poisson(seed: u64, per_step: f64, n: usize) -> Self {
        Arrivals(Replay::new(ArrivalSchedule::poisson(
            seed,
            1.0 / per_step,
            n,
        )))
    }

    /// Indices that became due at or before step `now`.
    pub fn due(&mut self, now: u64) -> std::ops::Range<usize> {
        self.0.due(now)
    }

    /// Due step of every arrival.
    #[cfg(test)]
    pub fn steps(&self) -> &[u64] {
        self.0.schedule().steps()
    }
}

/// The oracle: `req` generated alone by `Model::generate_with_cache` on
/// a fresh cache of the same page policy. Serving must reproduce these
/// tokens exactly.
pub fn solo_generate(model: &Model, req: &GenRequest, pages: Pages) -> Vec<usize> {
    let pool = PagePool::new(KvPoolConfig {
        storage: storage(pages),
        page_positions: PAGE_POSITIONS,
        max_pages: None,
    });
    let mut cache: KvCache = pool.new_cache(model.config().n_layers);
    let mut rng = Rng::new(req.seed);
    let full = model.generate_with_cache(
        &req.prompt,
        req.max_new,
        req.temperature,
        &mut rng,
        &mut cache,
    );
    full[req.prompt.len()..].to_vec()
}

/// The SIMD leg the library dispatches on and the CPU features it saw.
pub fn simd_leg_and_cpu_features() -> (&'static str, String) {
    (anda_fp::active_leg().name(), anda_fp::cpu_features())
}
