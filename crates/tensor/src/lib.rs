//! Minimal dense tensor library for the Anda reproduction.
//!
//! The transformer substrate (`anda-llm`) and the quantization kernels need a
//! small, dependency-free linear-algebra layer. This crate provides:
//!
//! - [`Matrix`] — a row-major `f32` matrix with matmul, transpose and
//!   element-wise combinators.
//! - [`ops`] — row-wise softmax/log-softmax, LayerNorm, RMSNorm, activation
//!   functions (ReLU, SiLU, GELU) and cross-entropy.
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

pub use matrix::{Matrix, Strided};
pub use rng::Rng;
