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
//! - [`rounding`] — shift-right-with-rounding primitives: [`F16`] narrowing
//!   rounds to nearest-even through them.
//! - [`simd`] — the runtime SIMD dispatch layer ([`SimdLeg`], feature
//!   detection, the `ANDA_SIMD` override) plus the AVX2/NEON f16↔f32 lane
//!   conversion primitives shared by every vector kernel in the workspace.
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
pub mod f16;
pub mod rounding;
pub mod simd;

pub use f16::{saturate_to_f16, Significand, F16};
pub use rounding::{shift_right_round, RoundingMode};
pub use simd::{active_leg, available_legs, cpu_features, SimdLeg};
