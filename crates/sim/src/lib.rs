//! Cycle/energy accelerator simulator for the Anda architecture and its
//! baselines (paper §IV–§V).
//!
//! The simulator reproduces the paper's comparison methodology: all
//! accelerators share the clock (285 MHz), peak per-cycle throughput, and
//! on-chip memory; they differ in PE datapath (characterized by the
//! synthesis-derived area/power constants of Fig. 15) and in how activations
//! are stored and moved.
//!
//! - [`pe`] — PE types and their characterization; PE-level area/energy
//!   efficiency (regenerates Fig. 15).
//! - [`arch`] — accelerator configuration: 16×16 unit array, buffers,
//!   HBM2 DRAM model (3.9 pJ/bit, 256 GB/s).
//! - [`workload`] — GeMM workload extraction from LLM configs (batch 1,
//!   maximum-sequence prefill, per the paper's system-level setup).
//! - [`engine`] — the per-GeMM timing/traffic/energy model: output-
//!   stationary dataflow, buffer-capacity-driven DRAM re-streaming,
//!   bit-serial group timing for Anda, BPC output compression; and
//!   `simulate_gemms`, the one simulate-and-sum loop over a GeMM list.
//! - [`system`] — whole-model aggregation: speedup, area efficiency and
//!   energy efficiency versus the FP-FP baseline (Figs. 16–18).
//! - [`floorplan`] — the Anda component area/power breakdown (Table III).
//! - [`decode`] — decode-phase simulation (the §VI long-context synergy):
//!   the KV stream is priced per row by the engine's own
//!   `anda_llm::kv::KvStorage` policy, over `opcount`'s attended positions.
//! - [`functional`] — a word-by-word functional executor of the Fig. 13
//!   datapath (buffers, address generation, APU array, BPC write-back),
//!   verified bit-identical to the `anda-quant` integer GeMM.

pub mod arch;
pub mod decode;
pub mod engine;
pub mod floorplan;
pub mod functional;
pub mod pe;
pub mod system;
pub mod workload;

pub use arch::Accelerator;
pub use engine::{simulate_gemm, GemmReport};
pub use pe::PeKind;
pub use system::{simulate_model, SystemReport};
pub use workload::{llm_gemms, Gemm};
