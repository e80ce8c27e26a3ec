//! Software IEEE 754 binary16 (half precision) arithmetic and bit utilities.
//!
//! The Anda reproduction cannot rely on hardware half-precision support (and
//! the external `half` crate is outside the allowed dependency set), so this
//! crate implements the FP16 data type from scratch:
//!
//! - [`F16`] — a bit-exact IEEE 754 binary16 value with round-to-nearest-even
//!   conversions from/to `f32`, full subnormal and special-value handling.
//! - [`Significand`] — the fixed-point view (hidden bit made explicit) used by
//!   block-floating-point conversion in the `anda-format` crate.
//! - [`rounding`] — the nearest-even right shift [`F16`] narrowing rounds
//!   with.
//! - [`simd`] — the runtime SIMD dispatch layer ([`SimdLeg`], a leg this
//!   host is known to run, so every `*_with_leg` kernel entry can take one
//!   without checking; [`LegKind`], its name; feature detection, the
//!   `ANDA_SIMD` override) plus the FP16 lane primitives shared by every
//!   vector kernel in the workspace (F16C on the AVX2 leg, software on
//!   NEON).
//! - [`exp`] — `expf` owned: the optimized-routines port ([`exp::expf`],
//!   `to_bits`-equal to x86-64 glibc's on a CPU with FMA) and its slice
//!   kernel, one body per SIMD leg, each pinned to the port.
//! - [`planes`] — the bit-plane lane primitives of an Anda group decode:
//!   the scalar lane rule and the AVX-512 GF(2) transpose and widen, one
//!   body shared by `anda-format`'s row codec and `anda-tensor`'s register
//!   tile, which reads a KV page's planes in place.
//! - [`batch`] — dispatched whole-slice rounding of `f32` rows through
//!   FP16 (the `Fp16` KV row policy, the FP16 activation codec), each with
//!   a scalar twin as its bit-exactness oracle.
//!
//! # Example
//!
//! ```
//! use anda_fp::F16;
//!
//! let x = F16::from_f32(1.5);
//! assert_eq!(x.to_f32(), 1.5);
//! assert_eq!(x.to_bits(), 0x3E00);
//! ```

pub mod batch;
pub mod exp;
pub mod f16;
pub mod planes;
pub mod rounding;
pub mod simd;

pub use f16::{saturate_to_f16, Significand, F16};
pub use simd::{active_leg, available_legs, cpu_features, LegKind, SimdLeg};
