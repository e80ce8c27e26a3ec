//! Minimal dense tensor library for the Anda reproduction.
//!
//! The transformer substrate (`anda-llm`) and the quantization kernels need a
//! small, dependency-free linear-algebra layer. This crate provides:
//!
//! - [`Matrix`] — a row-major `f32` matrix with matmul, transpose and
//!   element-wise combinators.
//! - [`PackedMatrix`] — a `k × n` weight held as the GEMM kernel reads it,
//!   sixteen-column strips back to back, multiplied by in place.
//! - [`ops`] — the one softmax (rows in place, its `exp` the
//!   `anda-fp` port on a SIMD leg) and the log-softmax sharing its sum,
//!   LayerNorm, RMSNorm, activation functions (ReLU, the gated SiLU) and
//!   argmax.
//! - [`rng`] — a deterministic pseudo-random source (xoshiro256**) with
//!   normal/uniform sampling, so synthetic model weights are reproducible
//!   without external crates.
//!
//! Shape mismatches panic with descriptive messages, mirroring the behaviour
//! of `std` slice indexing: they are programming errors, not runtime
//! conditions a caller should handle.

pub mod matrix;
pub mod ops;
pub mod rng;
mod tile;

pub use matrix::{Matrix, PackedMatrix, PlaneWindows, Strided};
pub use rng::Rng;
pub use tile::{BitPlanes, Element, RowClass};
