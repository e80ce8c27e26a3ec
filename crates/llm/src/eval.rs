//! Perplexity evaluation and relative-accuracy metrics.

use anda_tensor::ops;

use crate::model::{ForwardScratch, Model};
use crate::modules::CodecAssignment;

/// Default evaluation window (the paper uses 2048 for real models; sim
/// models use their own scale).
pub const DEFAULT_WINDOW: usize = 256;

/// Perplexity of `model` on `tokens` under the given activation codecs.
///
/// The stream is split into non-overlapping windows of `window` tokens;
/// within each window every position predicts its successor (teacher
/// forcing with causal attention). Returns `exp(mean NLL)` in nats.
///
/// Each window is one [`Model::forward`], i.e. one span of the served
/// step body: under FP16 codecs the result is `f64::to_bits`-equal to
/// the NLL of a teacher-forced [`Model::prefill`] / [`Model::decode_step`]
/// loop (`kv_api.rs::perplexity_equals_the_teacher_forced_kv_loop`).
///
/// # Panics
///
/// Panics if `window < 2` or fewer than 2 tokens are supplied.
pub fn perplexity(model: &Model, codecs: &CodecAssignment, tokens: &[usize], window: usize) -> f64 {
    // One scratch serves every window; callers evaluating many
    // perplexities (calibration grids, search loops, surrogate sweeps)
    // should hold their own scratch and use [`perplexity_with_scratch`].
    perplexity_with_scratch(model, codecs, tokens, window, &mut ForwardScratch::new())
}

/// [`perplexity`] with a caller-provided [`ForwardScratch`]: across many
/// evaluations (a calibration grid, a precision search, a surrogate fit)
/// the private cache's pages, the step's row block and the `T × vocab`
/// logits are allocated once and reused.
///
/// # Panics
///
/// Same conditions as [`perplexity`].
pub fn perplexity_with_scratch(
    model: &Model,
    codecs: &CodecAssignment,
    tokens: &[usize],
    window: usize,
    scratch: &mut ForwardScratch,
) -> f64 {
    assert!(window >= 2, "need a window of at least 2 tokens");
    assert!(tokens.len() >= 2, "need at least 2 tokens to evaluate");
    let mut total_nll = 0.0f64;
    let mut count = 0usize;
    let mut ls = Vec::new();
    for chunk in tokens.chunks(window) {
        if chunk.len() < 2 {
            continue;
        }
        let logits = model.forward_with_scratch(chunk, codecs, scratch);
        for i in 0..chunk.len() - 1 {
            ops::log_softmax_into(logits.row(i), &mut ls);
            total_nll -= f64::from(ls[chunk[i + 1]]);
            count += 1;
        }
    }
    (total_nll / count.max(1) as f64).exp()
}

/// Relative accuracy loss of a method versus a baseline, following the
/// paper's Table II convention: `(ppl - baseline) / baseline`, positive
/// when the method is worse. (Table II prints this with a negative sign.)
pub fn relative_accuracy_loss(baseline_ppl: f64, ppl: f64) -> f64 {
    (ppl - baseline_ppl) / baseline_ppl
}

/// Relative accuracy (Figs. 5–7 y-axis): `baseline/ppl` clamped to ≤ 1
/// is *not* what the paper plots; it plots `1 - loss`, which we mirror.
pub fn relative_accuracy(baseline_ppl: f64, ppl: f64) -> f64 {
    1.0 - relative_accuracy_loss(baseline_ppl, ppl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::zoo;
    use anda_quant::ActivationCodec;

    #[test]
    fn fp16_ppl_is_reasonable_and_reproducible() {
        let model = zoo::opt_125m_sim().build();
        let c = corpus::corpus("wikitext2-sim")
            .unwrap()
            .generate(&model, 0, 256);
        let p1 = perplexity(&model, &CodecAssignment::fp16(), &c.validation, 128);
        let p2 = perplexity(&model, &CodecAssignment::fp16(), &c.validation, 128);
        assert_eq!(p1, p2);
        // Far better than uniform (vocab 512), far worse than perfect.
        assert!(p1 > 1.1 && p1 < 256.0, "ppl {p1}");
    }

    #[test]
    fn aggressive_truncation_degrades_ppl() {
        let model = zoo::opt_125m_sim().build();
        let c = corpus::corpus("wikitext2-sim")
            .unwrap()
            .generate(&model, 0, 256);
        let base = perplexity(&model, &CodecAssignment::fp16(), &c.validation, 128);
        let narrow = perplexity(
            &model,
            &CodecAssignment::uniform(ActivationCodec::anda(2)),
            &c.validation,
            128,
        );
        assert!(
            narrow > base * 1.02,
            "2-bit mantissa must hurt: {narrow} vs {base}"
        );
    }

    #[test]
    fn wide_mantissa_is_nearly_lossless() {
        let model = zoo::opt_125m_sim().build();
        let c = corpus::corpus("c4-sim").unwrap().generate(&model, 0, 256);
        let base = perplexity(&model, &CodecAssignment::fp16(), &c.validation, 128);
        let wide = perplexity(
            &model,
            &CodecAssignment::uniform(ActivationCodec::anda(16)),
            &c.validation,
            128,
        );
        let loss = relative_accuracy_loss(base, wide).abs();
        assert!(loss < 0.005, "16-bit mantissa loss {loss}");
    }

    #[test]
    fn loss_metric_signs() {
        assert!(relative_accuracy_loss(10.0, 10.5) > 0.0);
        assert!(relative_accuracy_loss(10.0, 9.9) < 0.0);
        assert!((relative_accuracy(10.0, 10.1) - 0.99).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_window_panics() {
        let model = zoo::opt_125m_sim().build();
        let _ = perplexity(&model, &CodecAssignment::fp16(), &[1, 2, 3], 1);
    }
}
