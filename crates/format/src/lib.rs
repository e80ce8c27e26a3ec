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
//! - [`anda`] — the Anda format proper (§III): the fixed 64-lane hardware
//!   group ([`bitplane::LANES`]; a row's last group holds what is left),
//!   variable mantissa length 1..=16 — [`AndaConfig`]'s one field — and
//!   [`AndaTensor`], the one in-memory layout — `rows × width` over flat
//!   sign / exponent / plane arrays — that KV pages, `gemm_anda`, the BPC
//!   model and the functional datapath all hold.
//! - [`bitplane`] — the bit-plane data layout scheme of Fig. 10 (sign
//!   plane, shared exponent word and M mantissa planes of one 64-bit word
//!   each) and [`BitPlaneGroup`], a borrowed view of one group in it.
//! - [`compressor`] — a functional model of the on-the-fly bit-plane
//!   compressor (BPC, Fig. 12) including the cycle-by-cycle
//!   parallel-to-serial mantissa aligner, writing into an [`AndaTensor`].
//! - [`dot`] — group dot-product kernels: the reference sign-magnitude
//!   integer dot and the bit-serial (plane-by-plane, adder-tree) schedule of
//!   the Anda processing element (Fig. 11), which are proven equivalent.
//! - [`rowcodec`] — the encode/decode of one row over caller-owned sign /
//!   exponent / plane slices that [`AndaTensor`]'s row methods call, with
//!   its SIMD legs.
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
//! let cfg = AndaConfig::hardware(8).unwrap();
//! let tensor = AndaTensor::from_f16(&xs, cfg);
//! let err = tensor
//!     .to_f32()
//!     .iter()
//!     .zip(&xs)
//!     .map(|(q, x)| (q - x.to_f32()).abs())
//!     .fold(0.0f32, f32::max);
//! assert!(err <= tensor.groups().next().unwrap().ulp());
//!
//! // Rows of one tensor: encode in place, decode without allocating.
//! let mut kv = AndaTensor::zeros(4, 64, cfg);
//! let row: Vec<f32> = xs.iter().map(|x| x.to_f32()).collect();
//! kv.encode_row(2, &row);
//! let mut back = vec![0.0f32; 64];
//! kv.decode_row_into(2, &mut back);
//! assert_eq!(back, tensor.to_f32());
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

pub use anda::{AndaConfig, AndaTensor};
pub use bitplane::BitPlaneGroup;
pub use compressor::{BitPlaneCompressor, CompressorReport};
pub use error::FormatError;
