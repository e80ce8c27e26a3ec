//! Experiment harness for the Anda reproduction.
//!
//! Every table and figure of the paper's evaluation is an entry of one
//! registry, [`FIGURES`] (README, "Paper figure / table index"): a name,
//! the artefact it regenerates, and a function from the shared context to
//! the [`Report`] — captions, [`Table`]s, the paper-reference trailer —
//! that the `figures` binary prints. The modules:
//!
//! - [`runs`] — the (model, corpus) experiment context [`runs::Prepared`]
//!   and [`Ctx`], which memoises contexts, searches and calibration
//!   perplexities so that `figures all` builds each once.
//! - [`table`] — fixed-width console table rendering.
//!
//! Everything here prints; nothing is written to disk. The reproduction is
//! seeded and deterministic: `tools/figures_quick.sh` diffs `figures all
//! --quick` against a tracked file. Wall time is measured in two places:
//! the `anda_perf/` package is the ledger (end to end and per layer; its
//! exact counts `tools/perf_exact.sh` diffs against a tracked baseline),
//! and this crate's `kernels` binary is the print-only scratchpad — one
//! table per kernel, a row per SIMD leg, mantissa length or lane set.

mod figures;
pub mod runs;
pub mod table;

pub use figures::{list, parse, Block, Command, Figure, Report, FIGURES, USAGE};
pub use runs::Ctx;
pub use table::Table;
