//! The Anda activation data format: grouped shared-exponent quantisation.
//!
//! This crate implements the paper's primary contribution:
//!
//! - [`align`] — the one shared-exponent quantiser: every finite FP16 value
//!   is decomposed into sign/significand/exponent, aligned to the group's
//!   maximum exponent, and truncated to an M-bit mantissa. Any group size
//!   (the block-floating-point design space of §II-B/§II-C, Figs. 5–7), as
//!   an owning group ([`align::align_group`]) or streaming in place
//!   ([`align::fake_quantize_in_place`], the activation codecs' path).
//! - [`anda`] — the Anda format proper (§III): fixed hardware group size of
//!   up to 64 lanes, variable mantissa length 1..=16, with conversion to and
//!   from the transposed *bit-plane* memory layout of Fig. 10.
//! - [`bitplane`] — the bit-plane data layout scheme: sign plane, shared
//!   exponent word and M mantissa planes of one 64-bit word each.
//! - [`compressor`] — a functional model of the on-the-fly bit-plane
//!   compressor (BPC, Fig. 12) including the cycle-by-cycle
//!   parallel-to-serial mantissa aligner.
//! - [`dot`] — group dot-product kernels: the reference sign-magnitude
//!   integer dot and the bit-serial (plane-by-plane, adder-tree) schedule of
//!   the Anda processing element (Fig. 11), which are proven equivalent.
//! - [`rowcodec`] — allocation-free flat encode/decode of fixed-width rows
//!   over caller-owned sign/exponent/plane buffers (the primitive behind
//!   the paged Anda KV cache's per-token hot path).
//! - [`metrics`] — decode-count instrumentation: a global rows-decoded
//!   counter bumped by every row decode, so redundant-decode regressions
//!   on shared KV pages stay measurable.
//! - [`stats`] — quantization-error metrics shared by the experiments.
//!
//! # Quickstart
//!
//! ```
//! use anda_format::{AndaConfig, AndaTensor};
//! use anda_fp::F16;
//!
//! let xs: Vec<F16> = (0..64).map(|i| F16::from_f32((i as f32 - 32.0) * 0.25)).collect();
//! let cfg = AndaConfig::new(64, 8).unwrap();
//! let tensor = AndaTensor::from_f16(&xs, cfg);
//! let err = tensor
//!     .to_f32()
//!     .iter()
//!     .zip(&xs)
//!     .map(|(q, x)| (q - x.to_f32()).abs())
//!     .fold(0.0f32, f32::max);
//! assert!(err <= tensor.groups()[0].ulp());
//! ```

pub mod align;
pub mod anda;
pub mod bitplane;
pub mod compressor;
pub mod dot;
pub mod error;
pub mod metrics;
pub mod rowcodec;
pub mod stats;

pub use anda::{AndaConfig, AndaGroup, AndaTensor};
pub use bitplane::BitPlaneGroup;
pub use compressor::{BitPlaneCompressor, CompressorReport};
pub use error::FormatError;
