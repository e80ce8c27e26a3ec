//! # Anda — variable-length grouped activation data format
//!
//! Umbrella crate for the reproduction of *"Anda: Unlocking Efficient LLM
//! Inference with a Variable-Length Grouped Activation Data Format"*
//! (HPCA 2025). It re-exports every workspace crate so examples, integration
//! tests and downstream users can depend on a single `anda` crate.
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`fp`] | software IEEE binary16 ([`fp::F16`]), SIMD dispatch, batch FP16 rounding |
//! | [`tensor`] | dense tensors, matmul, softmax, normalization |
//! | [`format`](mod@format) | the Anda format: shared-exponent quantiser, bit-plane layout, compressor, kernels |
//! | [`quant`] | weight-only INT quantization and baseline activation codecs |
//! | [`llm`] | transformer inference engine, model zoo, perplexity eval |
//! | [`serve`] | continuous-batching request scheduler over incremental decode |
//! | [`search`] | BOPs model and adaptive precision combination search |
//! | [`sim`] | cycle/energy accelerator simulator with all paper baselines |
//!
//! # Quickstart
//!
//! ```
//! use anda::format::{AndaConfig, AndaTensor};
//! use anda::fp::F16;
//!
//! let activations: Vec<F16> = (0..128).map(|i| F16::from_f32(i as f32 * 0.1)).collect();
//! let cfg = AndaConfig::hardware(8).unwrap();
//! let packed = AndaTensor::from_f16(&activations, cfg);
//! let restored = packed.to_f32();
//! assert_eq!(restored.len(), activations.len());
//! ```

pub use anda_format as format;
pub use anda_fp as fp;
pub use anda_llm as llm;
pub use anda_quant as quant;
pub use anda_search as search;
pub use anda_serve as serve;
pub use anda_sim as sim;
pub use anda_tensor as tensor;
