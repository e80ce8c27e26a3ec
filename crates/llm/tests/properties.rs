//! Property-based tests for the transformer substrate.

use anda_llm::modules::{CodecAssignment, ModuleKind, PrecisionCombo};
use anda_llm::zoo::opt_125m_sim;
use anda_quant::ActivationCodec;
use proptest::prelude::*;

// The model build is expensive; share one across cases.
fn model() -> &'static anda_llm::model::Model {
    use std::sync::OnceLock;
    static MODEL: OnceLock<anda_llm::model::Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn tokens(len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..512, 2..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Causality: logits at position i never depend on tokens after i —
    /// not in one bit, under FP16 and Anda assignments alike.
    #[test]
    fn causal_masking(
        prefix in tokens(8),
        a in 0usize..512,
        b in 0usize..512,
        anda in any::<bool>(),
    ) {
        let model = model();
        let mut seq_a = prefix.clone();
        seq_a.push(a);
        let mut seq_b = prefix.clone();
        seq_b.push(b);
        let codecs = match anda {
            true => CodecAssignment::from_combo(PrecisionCombo([8, 6, 7, 5])),
            false => CodecAssignment::fp16(),
        };
        let la = model.forward(&seq_a, &codecs);
        let lb = model.forward(&seq_b, &codecs);
        for i in 0..prefix.len() {
            for c in 0..512 {
                prop_assert_eq!(la[(i, c)].to_bits(), lb[(i, c)].to_bits(),
                    "position {} class {} depends on future token", i, c);
            }
        }
    }

    /// Forward passes are deterministic.
    #[test]
    fn forward_deterministic(seq in tokens(12)) {
        let model = model();
        let codecs = CodecAssignment::from_combo(PrecisionCombo([7, 6, 5, 5]));
        let a = model.forward(&seq, &codecs);
        let b = model.forward(&seq, &codecs);
        prop_assert_eq!(a, b);
    }

    /// The Anda codec at M=16 behaves like FP16 (differences only from the
    /// lossless-range alignment), so logits stay close.
    #[test]
    fn wide_codec_close_to_fp16(seq in tokens(8)) {
        let model = model();
        let fp = model.forward(&seq, &CodecAssignment::fp16());
        let anda = model.forward(
            &seq,
            &CodecAssignment::uniform(ActivationCodec::anda(16)),
        );
        let mut err = 0.0f64;
        let mut norm = 0.0f64;
        for i in 0..seq.len() {
            for c in 0..512 {
                err += f64::from((fp[(i, c)] - anda[(i, c)]).powi(2));
                norm += f64::from(fp[(i, c)].powi(2));
            }
        }
        prop_assert!(err <= norm * 1e-4, "relative logit error {}", err / norm.max(1e-12));
    }

    /// Per-module codecs only affect downstream computation: replacing the
    /// codec of one module changes logits (no dead plumbing).
    #[test]
    fn module_codecs_are_live(kind_idx in 0usize..4) {
        let model = model();
        let kind = ModuleKind::ALL[kind_idx];
        let seq: Vec<usize> = (0..10).map(|i| (i * 37) % 512).collect();
        let base = model.forward(&seq, &CodecAssignment::fp16());
        let modified = model.forward(
            &seq,
            &CodecAssignment::fp16().with_module(kind, ActivationCodec::anda(2)),
        );
        prop_assert_ne!(base, modified, "module {:?} codec had no effect", kind);
    }
}
