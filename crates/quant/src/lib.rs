//! Weight-only integer quantization and FP-INT GeMM operators.
//!
//! Weight-only quantized LLMs (W4A16) store weights as low-bit integers with
//! per-group scale factors while activations stay in FP16 (paper §II-A).
//! This crate provides:
//!
//! - [`weights`] — the [`IntWeightMatrix`] container plus round-to-nearest
//!   and clip-search ("omniquant-lite") group-wise quantizers.
//! - [`gemm`] — the FP-INT GeMM operators of Fig. 8: the fake-quantization
//!   path under any activation codec (exact and FP16 activations are two
//!   of its codecs) and the Anda integer path (bit-serial group dots +
//!   FP32 cross-group accumulation).
//! - [`codec`] — activation codecs implementing the comparison baselines of
//!   Table II: FP16 passthrough, FIGNA-style wide-mantissa BFP, VS-Quant
//!   4-bit BFP, and the Anda format at any mantissa length.
//!
//! The numerical contract tying it together: for any activation matrix the
//! integer Anda GeMM equals (to FP rounding) the f32 GeMM over
//! fake-quantized activations — validated by tests — so accuracy experiments
//! may use the fast fake-quant path while the hardware simulator accounts
//! for the true integer schedule.

pub mod codec;
pub mod gemm;
pub mod weights;

pub use codec::ActivationCodec;
pub use gemm::{
    gemm_anda, gemm_anda_into, gemm_anda_into_pool, gemm_fake_quant, gemm_fake_quant_into,
    GemmScratch,
};
pub use weights::{IntWeightMatrix, WeightQuantConfig};
