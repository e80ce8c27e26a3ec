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
//! - [`trajectory`] — machine-readable `BENCH_<name>.json` perf reports
//!   (commit, threads, SIMD leg, metrics) the CI smokes emit.

pub mod msweep;
pub mod runs;
pub mod table;
pub mod trajectory;

pub use table::Table;
pub use trajectory::BenchReport;

/// The value following `flag` in a binary's argument list, if present
/// (shared flag parsing for the `src/bin/` experiment binaries).
pub fn arg_val(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The deterministic per-stream prompt the serving benches share:
/// distinct across streams, stable across runs, always in-vocab.
pub fn workload_prompt(stream: usize, len: usize, vocab: usize) -> Vec<usize> {
    (0..len)
        .map(|j| (stream * 131 + j * 17 + 1) % vocab)
        .collect()
}
