//! Experiment harness for the Anda reproduction.
//!
//! Each table and figure of the paper's evaluation has a dedicated binary in
//! `src/bin/` (README, "Paper figure / table index"); this library holds the
//! shared plumbing:
//!
//! - [`msweep`] — inputs and the per-token baseline of the GEMM M-sweep.
//! - [`table`] — fixed-width console table rendering.
//! - [`runs`] — memoized construction of models, corpora and searches so
//!   the experiment binaries stay fast and consistent with each other.
//!
//! Everything here prints; nothing is written to disk. The repo's one
//! measuring system is the `anda_perf/` package, whose exact counts
//! `tools/perf_exact.sh` diffs against a tracked baseline.

pub mod msweep;
pub mod runs;
pub mod table;

pub use table::Table;
