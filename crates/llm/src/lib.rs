//! Transformer inference substrate for the Anda reproduction.
//!
//! The paper evaluates Anda on OPT/LLaMA/LLaMA-2 checkpoints via PyTorch.
//! Those weights are unavailable here, so this crate implements a
//! *structural* substitute (README, "Crate map"; the modules below are
//! the substitution itself):
//!
//! - [`config`] — model architecture descriptions for both families
//!   (OPT-style: LayerNorm + ReLU FFN + learned positions; LLaMA-style:
//!   RMSNorm + SwiGLU FFN + rotary embeddings).
//! - [`zoo`] — the model catalog: *real-dimension* configs (OPT-125M…30B,
//!   LLaMA/LLaMA-2 7B/13B) used for op counting and hardware workloads, and
//!   *sim* configs (scaled-down, synthesized weights) used for accuracy
//!   experiments, each with a calibrated activation-outlier profile.
//! - [`modules`] — the four FP-INT GeMM module types (`A_qkv`, `A_o`,
//!   `A_u`, `A_d`) and per-module codec assignments.
//! - [`synth`] — deterministic weight synthesis with controllable outlier
//!   channels (the mechanism behind the paper's observed sensitivities).
//! - [`model`] — the inference engine: **one** transformer body, the
//!   KV-cached row-block step, applying a per-module activation codec
//!   assignment. KV-cached generation and serving run it under FP16
//!   codecs; the full-sequence [`Model::forward`] (perplexity, the
//!   precision search, the figure binaries) is one span of the same step
//!   under the caller's assignment, bit-identical to decode under FP16
//!   codecs.
//! - [`corpus`] — synthetic evaluation corpora generated *by the reference
//!   model itself* (three corpora standing in for WikiText-2/PTB/C4).
//! - [`eval`] — perplexity and relative-accuracy measurement.
//! - [`opcount`] — analytical operation counting (Fig. 2): the one place
//!   per-token work is derived (FP-INT MACs, attended positions).
//! - [`kv`] — the §VI extension: the paged KV subsystem — a block-pool
//!   page allocator with FP16 or Anda-compressed pages, refcounted
//!   whole-page prefix sharing, shared by solo decode and the serving
//!   layer.
//! - [`phase`] — the step's phase spans: wall time, calls and an exact
//!   work count per phase, carried by the walk's [`PageDecodeCache`].

pub mod config;
pub mod corpus;
pub mod eval;
pub mod kv;
pub mod model;
pub mod modules;
pub mod opcount;
pub mod phase;
pub mod synth;
pub mod zoo;

pub use config::{Family, ModelConfig};
pub use eval::{perplexity, perplexity_with_scratch, relative_accuracy_loss};
pub use kv::{
    KvCache, KvPoolConfig, KvReadScratch, KvStorage, LayerKv, PageDecodeCache, PagePool, SharedPage,
};
pub use model::{BatchEntry, BatchOutput, DecodeScratch, ForwardScratch, Model, WeightMode};
pub use modules::{CodecAssignment, ModuleKind, PrecisionCombo};
pub use phase::{Phase, PhaseLedger, PhaseSpan, Stamp};
pub use zoo::SimModelSpec;
