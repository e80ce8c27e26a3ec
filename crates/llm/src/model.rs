//! The transformer inference engine.
//!
//! [`Model`] holds effective (`f32`) weights plus, in [`WeightMode::Int4`]
//! mode, the quantized [`IntWeightMatrix`] handles the hardware simulator
//! and storage accounting use. Forward passes apply a per-module
//! [`CodecAssignment`] to the four FP-INT GeMM activations — all other
//! arithmetic (attention scores, softmax, norms, residuals) stays in
//! floating point, matching the paper's methodology (§V-A keeps non-GeMM
//! operators and the KV cache in FP16).

use anda_format::bfp::saturate_to_f16;
use anda_quant::{IntWeightMatrix, WeightQuantConfig};
use anda_tensor::{ops, Matrix, Rng};
use rayon_lite::ThreadPool;

use crate::config::{Family, ModelConfig};
use crate::kv::{AttendLane, PageDecodeCache};
use crate::modules::CodecAssignment;
use crate::synth::{boost_columns, dense, norm_bias, norm_gain, SensitivityProfile};

pub use crate::kv::{KvCache, LayerKv};

/// How the model's GeMM weights are stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightMode {
    /// FP16 weights (the full-precision baseline row of Table II).
    Fp16,
    /// W4A16-style group-wise INT4 weights (the deployment baseline).
    Int4,
}

/// One transformer block's weights.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Pre-attention norm gain.
    pub attn_gain: Vec<f32>,
    /// Pre-attention norm bias (zero for LLaMA-style RMSNorm).
    pub attn_bias: Vec<f32>,
    /// Pre-FFN norm gain.
    pub ffn_gain: Vec<f32>,
    /// Pre-FFN norm bias.
    pub ffn_bias: Vec<f32>,
    /// Fused Q/K/V projection, `d × 3d`.
    pub wqkv: Matrix,
    /// Output projection, `d × d`.
    pub wo: Matrix,
    /// Gate projection (`d × ffn`), LLaMA family only.
    pub wgate: Option<Matrix>,
    /// Up projection, `d × ffn`.
    pub wup: Matrix,
    /// Down projection, `ffn × d`.
    pub wdown: Matrix,
    /// Quantized handles (Int4 mode only), in module order
    /// `[wqkv, wo, wgate?, wup, wdown]`.
    pub quantized: Option<LayerQuant>,
}

/// Quantized weight handles for one block.
#[derive(Clone, Debug)]
pub struct LayerQuant {
    /// Fused Q/K/V projection.
    pub wqkv: IntWeightMatrix,
    /// Output projection.
    pub wo: IntWeightMatrix,
    /// Gate projection (LLaMA only).
    pub wgate: Option<IntWeightMatrix>,
    /// Up projection.
    pub wup: IntWeightMatrix,
    /// Down projection.
    pub wdown: IntWeightMatrix,
}

/// A synthesized transformer model.
#[derive(Clone, Debug)]
pub struct Model {
    config: ModelConfig,
    mode: WeightMode,
    /// Token embedding, `vocab × d` (tied with the LM head).
    embed: Matrix,
    /// Learned position embedding, `max_seq × d` (OPT family only).
    pos_embed: Option<Matrix>,
    layers: Vec<Layer>,
    final_gain: Vec<f32>,
    final_bias: Vec<f32>,
    /// Scalar logit temperature calibration (1.0 = uncalibrated). Tiny
    /// synthesized models are miscalibrated after weight quantization in a
    /// way billion-parameter checkpoints are not; a single fitted scale
    /// removes that confound from the activation-format comparisons.
    logit_scale: f32,
}

const NORM_EPS: f32 = 1e-5;

impl Model {
    /// Synthesizes a model with FP16 weights from a sensitivity profile and
    /// seed (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `d_model`/`d_ffn` are not multiples of 64 (required by the
    /// 64-lane Anda grouping and the weight group size).
    pub fn synthesize(config: ModelConfig, profile: &SensitivityProfile, seed: u64) -> Self {
        assert!(
            config.d_model.is_multiple_of(64) && config.d_ffn.is_multiple_of(64),
            "model dims must be multiples of 64 (got d={}, ffn={})",
            config.d_model,
            config.d_ffn
        );
        let mut rng = Rng::new(seed);
        let d = config.d_model;
        let ffn = config.d_ffn;

        let mut embed = dense(config.vocab, d, profile.logit_sharpness, &mut rng);
        // Renormalize embedding rows so logits reflect direction, not length.
        for r in 0..config.vocab {
            let row = embed.row_mut(r);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            let target = profile.logit_sharpness;
            for x in row.iter_mut() {
                *x *= target / norm;
            }
        }

        let pos_embed = match config.family {
            Family::Opt => Some(dense(config.max_seq, d, 0.3, &mut rng)),
            Family::Llama => None,
        };

        let layers = (0..config.n_layers)
            .map(|_| {
                let attn_gain = norm_gain(d, profile.qkv, &mut rng);
                let attn_bias = match config.family {
                    Family::Opt => norm_bias(d, &mut rng),
                    Family::Llama => vec![0.0; d],
                };
                let ffn_gain = norm_gain(d, profile.u, &mut rng);
                let ffn_bias = match config.family {
                    Family::Opt => norm_bias(d, &mut rng),
                    Family::Llama => vec![0.0; d],
                };
                let wqkv = dense(d, 3 * d, profile.weight_std, &mut rng);
                let mut wo = dense(d, d, profile.weight_std, &mut rng);
                boost_columns(&mut wo, crate::synth::OutlierSpec::NONE, &mut rng);
                let wgate = match config.family {
                    Family::Llama => Some(dense(d, ffn, profile.weight_std, &mut rng)),
                    Family::Opt => None,
                };
                let mut wup = dense(d, ffn, profile.weight_std, &mut rng);
                // Outlier columns in the up projection widen A_d's range.
                boost_columns(&mut wup, profile.d, &mut rng);
                let wdown = dense(ffn, d, profile.weight_std, &mut rng);

                // Outlier columns in the value third of wqkv widen A_o's
                // range (attention output inherits V's channel structure).
                let mut wqkv = wqkv;
                if profile.o.count > 0 {
                    let mut vpart = wqkv.slice_cols(2 * d, d);
                    boost_columns(&mut vpart, profile.o, &mut rng);
                    for r in 0..d {
                        for c in 0..d {
                            wqkv[(r, 2 * d + c)] = vpart[(r, c)];
                        }
                    }
                }

                Layer {
                    attn_gain,
                    attn_bias,
                    ffn_gain,
                    ffn_bias,
                    wqkv,
                    wo,
                    wgate,
                    wup,
                    wdown,
                    quantized: None,
                }
            })
            .collect();

        let final_gain = norm_gain(d, crate::synth::OutlierSpec::NONE, &mut rng);
        let final_bias = vec![0.0; d];

        let mut model = Model {
            config,
            mode: WeightMode::Fp16,
            embed,
            pos_embed,
            layers,
            final_gain,
            final_bias,
            logit_scale: 1.0,
        };
        model.round_weights_to_f16();
        model
    }

    /// Rounds all GeMM weights to FP16 values (the FP16 storage baseline).
    fn round_weights_to_f16(&mut self) {
        let round = |m: &mut Matrix| m.map_inplace(|v| saturate_to_f16(v).to_f32());
        for layer in &mut self.layers {
            round(&mut layer.wqkv);
            round(&mut layer.wo);
            if let Some(g) = &mut layer.wgate {
                round(g);
            }
            round(&mut layer.wup);
            round(&mut layer.wdown);
        }
    }

    /// Produces the weight-only quantized (W4A16-style) version of this
    /// model: GeMM weights are group-wise INT4; effective weights become the
    /// dequantized values; quantized handles are retained.
    pub fn quantize_weights(&self, qcfg: WeightQuantConfig) -> Model {
        let mut out = self.clone();
        out.mode = WeightMode::Int4;
        for layer in &mut out.layers {
            let qqkv = IntWeightMatrix::quantize(&layer.wqkv, qcfg);
            let qo = IntWeightMatrix::quantize(&layer.wo, qcfg);
            let qgate = layer
                .wgate
                .as_ref()
                .map(|g| IntWeightMatrix::quantize(g, qcfg));
            let qup = IntWeightMatrix::quantize(&layer.wup, qcfg);
            let qdown = IntWeightMatrix::quantize(&layer.wdown, qcfg);

            layer.wqkv = qqkv.dequantize();
            layer.wo = qo.dequantize();
            if let Some(g) = &qgate {
                layer.wgate = Some(g.dequantize());
            }
            layer.wup = qup.dequantize();
            layer.wdown = qdown.dequantize();
            layer.quantized = Some(LayerQuant {
                wqkv: qqkv,
                wo: qo,
                wgate: qgate,
                wup: qup,
                wdown: qdown,
            });
        }
        out
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The weight storage mode.
    pub fn mode(&self) -> WeightMode {
        self.mode
    }

    /// The transformer blocks (weights exposed for the simulator).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Full-sequence forward pass with causal attention.
    ///
    /// Returns the `T × vocab` logit matrix. The four GeMM-module
    /// activations pass through `codecs`.
    ///
    /// Allocates a fresh [`ForwardScratch`] per call; callers evaluating
    /// many sequences (perplexity windows, calibration sweeps) should hold
    /// one scratch and use [`Model::forward_with_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, exceeds `max_seq`, or contains an
    /// out-of-vocab id.
    pub fn forward(&self, tokens: &[usize], codecs: &CodecAssignment) -> Matrix {
        let mut scratch = ForwardScratch::new();
        self.forward_with_scratch(tokens, codecs, &mut scratch);
        scratch.logits
    }

    /// [`Model::forward`] with caller-provided buffers: the whole pass —
    /// including the `T × vocab` logit matrix — lives in `scratch`, so no
    /// allocation happens at steady state. Returns a borrow of
    /// `scratch`'s logits.
    pub fn forward_with_scratch<'s>(
        &self,
        tokens: &[usize],
        codecs: &CodecAssignment,
        scratch: &'s mut ForwardScratch,
    ) -> &'s Matrix {
        let t = tokens.len();
        assert!(t > 0, "empty token sequence");
        assert!(
            t <= self.config.max_seq,
            "sequence length {t} exceeds max_seq {}",
            self.config.max_seq
        );
        let d = self.config.d_model;
        let s = scratch;

        // Embedding (+ learned positions for OPT).
        let x = &mut s.x;
        x.resize(t, d);
        for (i, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.config.vocab, "token {tok} out of vocab");
            x.row_mut(i).copy_from_slice(self.embed.row(tok));
            if let Some(pos) = &self.pos_embed {
                for (xv, &pv) in x.row_mut(i).iter_mut().zip(pos.row(i)) {
                    *xv += pv;
                }
            }
        }

        for layer in &self.layers {
            // Attention block.
            s.h.copy_from(x);
            self.apply_norm(&mut s.h, &layer.attn_gain, &layer.attn_bias);
            codecs.qkv.apply_matrix_into(&s.h, &mut s.act);
            s.qkv.resize(t, layer.wqkv.cols());
            s.act.matmul_into(&layer.wqkv, &mut s.qkv);
            self.attention_into(&s.qkv, t, &mut s.attn);
            codecs.o.apply_matrix_into(&s.attn.out, &mut s.act);
            s.proj.resize(t, d);
            s.act.matmul_into(&layer.wo, &mut s.proj);
            x.add_inplace(&s.proj);

            // FFN block.
            s.h.copy_from(x);
            self.apply_norm(&mut s.h, &layer.ffn_gain, &layer.ffn_bias);
            codecs.u.apply_matrix_into(&s.h, &mut s.act);
            let hidden = match (&layer.wgate, self.config.family) {
                (Some(wgate), Family::Llama) => {
                    s.gate.resize(t, wgate.cols());
                    s.act.matmul_into(wgate, &mut s.gate);
                    s.hidden.resize(t, layer.wup.cols());
                    s.act.matmul_into(&layer.wup, &mut s.hidden);
                    for (u, &g) in s.hidden.as_mut_slice().iter_mut().zip(s.gate.as_slice()) {
                        *u *= ops::silu(g);
                    }
                    &s.hidden
                }
                _ => {
                    s.hidden.resize(t, layer.wup.cols());
                    s.act.matmul_into(&layer.wup, &mut s.hidden);
                    s.hidden.map_inplace(ops::relu);
                    &s.hidden
                }
            };
            codecs.d.apply_matrix_into(hidden, &mut s.act);
            s.proj.resize(t, d);
            s.act.matmul_into(&layer.wdown, &mut s.proj);
            x.add_inplace(&s.proj);
        }

        self.apply_norm(x, &self.final_gain, &self.final_bias);
        // Tied LM head: logits = x · Eᵀ (kept in FP, like the paper's
        // non-GeMM operators).
        s.logits.resize(t, self.embed.rows());
        x.matmul_transposed_into(&self.embed, &mut s.logits);
        if self.logit_scale != 1.0 {
            s.logits.scale(self.logit_scale);
        }
        &s.logits
    }

    /// The current logit temperature scale.
    pub fn logit_scale(&self) -> f32 {
        self.logit_scale
    }

    /// Fits the scalar logit scale on `tokens` by grid search (0.5..=1.5 in
    /// 0.05 steps), minimizing perplexity. Returns the chosen scale.
    ///
    /// This is one-parameter post-hoc temperature calibration; it does not
    /// touch any weight and is applied identically under every activation
    /// codec, so relative comparisons between codecs remain untouched.
    pub fn calibrate_logit_scale(&mut self, tokens: &[usize], window: usize) -> f32 {
        let codecs = CodecAssignment::fp16();
        // One scratch serves the whole grid: 21 perplexity sweeps reuse
        // the same forward buffers instead of reallocating per scale.
        let mut scratch = ForwardScratch::new();
        let mut best = (f64::INFINITY, 1.0f32);
        let mut scale = 0.5f32;
        while scale <= 1.501 {
            self.logit_scale = scale;
            let ppl =
                crate::eval::perplexity_with_scratch(self, &codecs, tokens, window, &mut scratch);
            if ppl < best.0 {
                best = (ppl, scale);
            }
            scale += 0.05;
        }
        self.logit_scale = best.1;
        best.1
    }

    fn apply_norm(&self, m: &mut Matrix, gain: &[f32], bias: &[f32]) {
        match self.config.family {
            Family::Opt => ops::layer_norm(m, gain, bias, NORM_EPS),
            Family::Llama => ops::rms_norm(m, gain, NORM_EPS),
        }
    }

    /// Multi-head causal attention over a fused `T × 3d` QKV matrix,
    /// writing the result to `s.out`. All per-head intermediates reuse the
    /// scratch buffers.
    fn attention_into(&self, qkv: &Matrix, t: usize, s: &mut AttnScratch) {
        let d = self.config.d_model;
        let dh = self.config.d_head();
        let scale = 1.0 / (dh as f32).sqrt();
        s.out.resize(t, d);
        // Heads normally tile the full width; if a hand-built config has
        // d_model % n_heads != 0, zero the buffer so the uncovered tail
        // columns stay deterministically 0.0 instead of holding stale data.
        if self.config.n_heads * dh != d {
            s.out.as_mut_slice().fill(0.0);
        }

        for head in 0..self.config.n_heads {
            let off = head * dh;
            // Gather per-head q, k, v (t × dh), applying RoPE if LLaMA.
            s.q.resize(t, dh);
            s.k.resize(t, dh);
            s.v.resize(t, dh);
            for i in 0..t {
                for c in 0..dh {
                    s.q[(i, c)] = qkv[(i, off + c)];
                    s.k[(i, c)] = qkv[(i, d + off + c)];
                    s.v[(i, c)] = qkv[(i, 2 * d + off + c)];
                }
                if self.config.family == Family::Llama {
                    rope_in_place(s.q.row_mut(i), i);
                    rope_in_place(s.k.row_mut(i), i);
                }
            }

            // scores = q·kᵀ with causal mask, softmax, then ·v.
            s.scores.resize(t, t);
            s.q.matmul_transposed_into(&s.k, &mut s.scores);
            s.scores.scale(scale);
            for i in 0..t {
                for j in (i + 1)..t {
                    s.scores[(i, j)] = f32::NEG_INFINITY;
                }
            }
            ops::softmax_rows(&mut s.scores);
            s.head_out.resize(t, dh);
            s.scores.matmul_into(&s.v, &mut s.head_out);
            for i in 0..t {
                s.out.row_mut(i)[off..off + dh].copy_from_slice(s.head_out.row(i));
            }
        }
    }

    /// Greedy/temperature sampling generation with a KV cache, always using
    /// FP16 reference activations (corpus synthesis path). The cache is a
    /// private paged FP16-policy store ([`KvCache::new`]).
    ///
    /// Returns `prompt.len() + n_new` tokens (prompt included).
    ///
    /// This is the sequential (one-stream) reference the serving layer's
    /// batched decode is bit-exact against: it is built from the same
    /// public pieces ([`Model::prefill`], [`DecodeScratch::sample_last`],
    /// [`Model::decode_step`]) a scheduler composes per stream.
    ///
    /// # Panics
    ///
    /// Panics if the total length exceeds `max_seq` or the prompt is empty.
    pub fn generate(
        &self,
        prompt: &[usize],
        n_new: usize,
        temperature: f32,
        rng: &mut Rng,
    ) -> Vec<usize> {
        let mut cache = KvCache::new(self.config.n_layers);
        self.generate_with_cache(prompt, n_new, temperature, rng, &mut cache)
    }

    /// [`Model::generate`] on a caller-provided (empty) cache, so solo
    /// generation can run under any KV storage policy/pool — the
    /// sequential reference for compressed-KV serving.
    ///
    /// # Panics
    ///
    /// As [`Model::generate`], plus if `cache` is non-empty or covers a
    /// different layer count.
    pub fn generate_with_cache(
        &self,
        prompt: &[usize],
        n_new: usize,
        temperature: f32,
        rng: &mut Rng,
        cache: &mut KvCache,
    ) -> Vec<usize> {
        assert!(
            prompt.len() + n_new <= self.config.max_seq,
            "generation length exceeds max_seq"
        );
        assert!(cache.is_empty(), "generation starts from an empty cache");
        let mut scratch = DecodeScratch::default();
        let mut tokens = prompt.to_vec();
        self.prefill(prompt, cache, &mut scratch);
        for _ in 0..n_new {
            let next = scratch.sample_last(temperature, rng);
            tokens.push(next);
            self.decode_step(next, tokens.len() - 1, cache, &mut scratch);
        }
        tokens
    }

    /// Runs KV-cached prefill: the hidden-state decode pass per token,
    /// starting at the cache's current length, then **one** LM head over
    /// the final position. After the call `s` holds the last position's
    /// next-token logits ([`DecodeScratch::logits`]), ready for the first
    /// sample — bit-identical to running [`Model::decode_step`] per token
    /// (which is how this used to be built), minus the intermediate
    /// positions' LM heads, whose logits nothing ever read.
    ///
    /// Starting at the cache's length is what makes this the
    /// prefill-into-forked-cache entry point for shared-prefix serving: a
    /// cache produced by [`KvCache::fork_prefix`] already holds the prefix
    /// positions, so prefilling only the request's private suffix continues
    /// at the right positions and is bit-identical to prefilling
    /// `prefix ++ suffix` contiguously into a fresh cache — decode steps
    /// depend only on the cached rows, and shared pages hold exactly the
    /// bits a private prefill would have written (copy-on-write preserves
    /// them on append).
    ///
    /// The same resumability powers *chunked* prefill (multi-token
    /// [`BatchEntry`] spans through [`Model::decode_hidden_batch`]): any
    /// split of `tokens` into consecutive chunks, prefilled in order
    /// against the same cache, writes the same KV rows and produces the
    /// same final hidden state.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the cache would grow past `max_seq`.
    pub fn prefill(&self, tokens: &[usize], cache: &mut KvCache, s: &mut DecodeScratch) {
        assert!(!tokens.is_empty(), "prompt must not be empty");
        let start = cache.len();
        for (i, &tok) in tokens.iter().enumerate() {
            self.decode_hidden_impl(tok, start + i, cache, s, true);
        }
        self.lm_head_into(&s.x, &mut s.logits);
    }

    /// One KV-cached decode step: processes `token` at position `pos` and
    /// leaves the next-token logits in `s` ([`DecodeScratch::logits`]).
    /// Activations stay in FP16 (reference path), matching a full-sequence
    /// [`Model::forward`] with FP16 codecs. All per-token intermediates
    /// reuse `s`'s buffers; K/V rows are written straight into the cache's
    /// tail page (FP16-rounded or Anda-encoded by the cache's policy), so
    /// steady-state decode allocates nothing — the cache leases a pool
    /// page only every `page_positions` tokens.
    ///
    /// Kernels auto-dispatch on the global pool (attention heads, the big
    /// vector matmuls and the LM head shard when the work is large enough);
    /// results are bit-identical to the serial path at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocab, `pos` does not equal the cache's
    /// current length, or `pos` reaches `max_seq`.
    pub fn decode_step(
        &self,
        token: usize,
        pos: usize,
        cache: &mut KvCache,
        s: &mut DecodeScratch,
    ) {
        self.decode_hidden_impl(token, pos, cache, s, true);
        self.lm_head_into(&s.x, &mut s.logits);
    }

    /// The hidden-state half of [`Model::decode_step`]: identical through
    /// the final norm, but stops before the LM head, leaving the
    /// final-normed residual in `s` ([`DecodeScratch::hidden_state`]) so a
    /// serving layer can run the LM head over a whole batch of streams with
    /// one GEMM ([`Model::lm_head_batch`]).
    ///
    /// Kernels run serially: batch schedulers call this from worker jobs
    /// inside **one pool scope per batch** (one job per stream), which
    /// amortizes dispatch better than nested per-kernel scopes. Serial and
    /// pooled kernels are bit-identical, so
    /// `decode_hidden` + [`Model::lm_head_batch`] reproduces
    /// [`Model::decode_step`]'s logits bit-for-bit.
    ///
    /// # Panics
    ///
    /// As [`Model::decode_step`].
    pub fn decode_hidden(
        &self,
        token: usize,
        pos: usize,
        cache: &mut KvCache,
        s: &mut DecodeScratch,
    ) {
        self.decode_hidden_impl(token, pos, cache, s, false);
    }

    /// Grouped variable-length batched attention: advances every stream
    /// in `batch` by its token span (the [`Model::decode_hidden`]
    /// computation per token), walking each layer's KV pages **once for
    /// the whole batch** so a physical Anda page decodes once per step
    /// no matter how many streams attend through it.
    ///
    /// Streams may have different context lengths (the variable
    /// dimension, in the oneDNN grouped-memory sense): each lane's
    /// per-head score lanes are sized by its own window `t`.
    ///
    /// Per layer:
    ///
    /// 1. **Stage** (one pool job per stream): finish the previous
    ///    layer's post-attention work, then norm → QKV matmul → RoPE →
    ///    KV append, exactly the per-stream op sequence.
    /// 2. **Walk**: every (stream, span token) becomes an
    ///    [`AttendLane`] of one [`PageDecodeCache::attend`] call — the
    ///    page-major walk that decodes each distinct physical page once
    ///    into an L1 tile and serves every lane viewing it, fanning
    ///    column ranges across `pool` when the work is large enough.
    ///
    /// Every stream's result is bit-identical (`f32::to_bits`) to a solo
    /// [`Model::decode_hidden`] call at any thread count: staging runs
    /// the same kernels in the same per-stream order, and the solo path
    /// attends through the same walk with a single lane.
    ///
    /// # Panics
    ///
    /// As [`Model::decode_hidden`], per entry; also panics if an entry's
    /// cache does not have one layer per model layer.
    pub fn decode_hidden_batch(
        &self,
        batch: &mut [BatchEntry<'_>],
        decode_cache: &mut PageDecodeCache,
        pool: &ThreadPool,
    ) {
        for entry in batch.iter() {
            assert!(
                !entry.tokens.is_empty(),
                "batch entry must carry at least one token"
            );
            for &token in entry.tokens {
                assert!(token < self.config.vocab, "token {token} out of vocab");
            }
            assert_eq!(
                entry.pos,
                entry.cache.len(),
                "decode position must match the cached length"
            );
            assert!(
                entry.pos + entry.tokens.len() <= self.config.max_seq,
                "positions {}..{} exceed max_seq {}",
                entry.pos,
                entry.pos + entry.tokens.len(),
                self.config.max_seq
            );
            assert_eq!(
                entry.cache.n_layers(),
                self.layers.len(),
                "cache layer count must match the model"
            );
        }
        if batch.is_empty() {
            return;
        }
        let d = self.config.d_model;
        let heads = self.config.n_heads;
        let n_layers = self.layers.len();

        for l in 0..n_layers {
            let layer = &self.layers[l];
            let prev = l.checked_sub(1).map(|p| &self.layers[p]);
            // On the last layer only each entry's final lane feeds
            // anything downstream: earlier chunk tokens exist to append
            // their K/V rows, and once those land (phase 1) their
            // attend/finish would compute dead residuals — so the walk
            // skips them. A span of one (a decode step) skips nothing.
            let last_layer = l + 1 == n_layers;

            // Phase 1: per-stream pre-attention staging, entries claimed
            // one at a time across the pool. Within an entry the span's
            // tokens run strictly in position order — lane j's staging
            // reads lane j's residual and appends its K/V row before
            // lane j+1 stages — which is exactly the solo per-token op
            // sequence (embed, then per layer: stage → append → attend →
            // finish); a decode step is simply a span of one.
            pool.par_chunks_mut(batch, 1, |_, part| {
                let entry = &mut part[0];
                let span = entry.tokens.len();
                let s = &mut *entry.scratch;
                if prev.is_none() {
                    s.x.clear();
                    s.x.resize(span * d, 0.0);
                    s.q.clear();
                    s.q.resize(span * d, 0.0);
                }
                for (j, &token) in entry.tokens.iter().enumerate() {
                    match prev {
                        None => {
                            self.embed_into_lane(token, entry.pos + j, &mut s.x[j * d..(j + 1) * d])
                        }
                        Some(prev) => self.finish_layer_lane(prev, j, s, false),
                    }
                    self.stage_qkv_lane(layer, entry.pos + j, j, s, false);
                    let (kv_pool, kv_layers) = entry.cache.split_mut();
                    kv_layers[l].push(kv_pool, &s.k_row, &s.v_row);
                }
            });

            // Phase 2: one page walk for the whole batch. Every (entry,
            // lane) becomes an `AttendLane`; lane j of a span attends its
            // causal window `t_j = pos + j + 1`, shorter than the table
            // (which already holds the whole span's rows), so a chunk
            // lane is bit-identical to the solo decode of position
            // `pos + j`. The walk decodes each physical Anda page once
            // for every lane that views it.
            let mut lanes = Vec::new();
            for entry in batch.iter_mut() {
                let span = entry.tokens.len();
                let kv = entry.cache.layer(l);
                debug_assert_eq!(kv.len(), entry.pos + span, "phase 1 appended the span");
                let DecodeScratch {
                    q, attn, scores, ..
                } = &mut *entry.scratch;
                let lane0 = if last_layer { span - 1 } else { 0 };
                let windows = entry.pos + lane0 + 1..=entry.pos + span;
                attn.clear();
                attn.resize(span * d, 0.0);
                scores.clear();
                scores.resize(heads * windows.clone().sum::<usize>(), 0.0);
                let mut scores_rest: &mut [f32] = scores;
                let q_out = q.chunks_exact(d).zip(attn.chunks_exact_mut(d)).skip(lane0);
                for (t, (q_j, out_j)) in windows.zip(q_out) {
                    let (scores_j, rest) = std::mem::take(&mut scores_rest).split_at_mut(heads * t);
                    scores_rest = rest;
                    lanes.push(AttendLane {
                        layer: kv,
                        t,
                        q: q_j,
                        scores: scores_j,
                        out: out_j,
                    });
                }
            }
            decode_cache.attend(&mut lanes, heads, Some(pool));
        }

        // Epilogue: finish the last layer's final lane and apply the
        // final norm, entries claimed across the pool; the final lane's
        // residual is collapsed to the front of `x` so
        // `hidden_state()` stays `d_model` wide regardless of span.
        let last = self.layers.last().expect("models have at least one layer");
        pool.par_chunks_mut(batch, 1, |_, part| {
            let entry = &mut part[0];
            let span = entry.tokens.len();
            let s = &mut *entry.scratch;
            self.finish_layer_lane(last, span - 1, s, false);
            if span > 1 {
                s.x.copy_within((span - 1) * d.., 0);
            }
            s.x.truncate(d);
            self.norm_vec(&mut s.x, &self.final_gain, &self.final_bias);
        });
    }

    /// Shared decode body; `par` gates every pool dispatch (the serving
    /// layer runs with `par = false` inside its own batch-level scope).
    fn decode_hidden_impl(
        &self,
        token: usize,
        pos: usize,
        cache: &mut KvCache,
        s: &mut DecodeScratch,
        par: bool,
    ) {
        assert!(token < self.config.vocab, "token {token} out of vocab");
        assert_eq!(
            pos,
            cache.len(),
            "decode position must match the cached length"
        );
        assert!(
            pos < self.config.max_seq,
            "decode position {pos} reaches max_seq {}",
            self.config.max_seq
        );
        let d = self.config.d_model;
        let heads = self.config.n_heads;

        self.embed_into(token, pos, &mut s.x);

        let (kv_pool, kv_layers) = cache.split_mut();
        for (layer, kv) in self.layers.iter().zip(kv_layers.iter_mut()) {
            // Attention block.
            self.stage_qkv(layer, pos, s, par);
            kv.push(kv_pool, &s.k_row, &s.v_row);

            let t = kv.len();
            s.attn.clear();
            s.attn.resize(d, 0.0);
            // Flat per-head score lanes: head `h` owns `scores[h·t..]`.
            s.scores.clear();
            s.scores.resize(heads * t, 0.0);
            let lane = AttendLane {
                layer: kv,
                t,
                q: &s.q,
                scores: &mut s.scores,
                out: &mut s.attn,
            };
            s.pages
                .attend(&mut [lane], heads, par.then(rayon_lite::global));
            self.finish_layer(layer, s, par);
        }

        self.norm_vec(&mut s.x, &self.final_gain, &self.final_bias);
    }

    /// Embeds `token` (plus the learned position embedding for OPT-style
    /// models) into the residual buffer `x` — the step every decode pass
    /// opens with.
    fn embed_into(&self, token: usize, pos: usize, x: &mut Vec<f32>) {
        x.clear();
        x.resize(self.config.d_model, 0.0);
        self.embed_into_lane(token, pos, x);
    }

    /// [`Model::embed_into`] targeting one pre-sized `d_model`-wide lane
    /// of a multi-token residual buffer (prefill chunks keep one lane
    /// per chunk token).
    fn embed_into_lane(&self, token: usize, pos: usize, x_lane: &mut [f32]) {
        x_lane.copy_from_slice(self.embed.row(token));
        if let Some(posm) = &self.pos_embed {
            for (xv, &pv) in x_lane.iter_mut().zip(posm.row(pos)) {
                *xv += pv;
            }
        }
    }

    /// Pre-attention half of one decode layer: residual norm, FP16
    /// rounding, the fused QKV matmul, the head split and RoPE. Leaves
    /// the current-position query in `s.q` and the staged (post-RoPE)
    /// K/V rows in `s.k_row`/`s.v_row`, ready for the cache append.
    /// Shared verbatim by the per-stream and grouped decode paths, so
    /// the two cannot drift numerically.
    fn stage_qkv(&self, layer: &Layer, pos: usize, s: &mut DecodeScratch, par: bool) {
        s.q.clear();
        s.q.resize(self.config.d_model, 0.0);
        self.stage_qkv_lane(layer, pos, 0, s, par);
    }

    /// [`Model::stage_qkv`] for lane `lane` of a multi-token span: reads
    /// the residual from `s.x`'s lane, writes the query into `s.q`'s
    /// lane (both pre-sized `span × d`), and stages the K/V rows in the
    /// shared `s.k_row`/`s.v_row` temporaries — span tokens run
    /// sequentially within a batch entry, so the staged rows are
    /// consumed (cache-appended) before the next lane overwrites them.
    fn stage_qkv_lane(
        &self,
        layer: &Layer,
        pos: usize,
        lane: usize,
        s: &mut DecodeScratch,
        par: bool,
    ) {
        let d = self.config.d_model;
        let dh = self.config.d_head();
        let heads = self.config.n_heads;
        let DecodeScratch {
            x,
            h,
            qkv,
            q,
            k_row,
            v_row,
            ..
        } = s;
        h.clear();
        h.extend_from_slice(&x[lane * d..(lane + 1) * d]);
        self.norm_vec(h, &layer.attn_gain, &layer.attn_bias);
        round_to_f16(h);
        vec_matmul_into(h, &layer.wqkv, qkv, par);
        let q_lane = &mut q[lane * d..(lane + 1) * d];
        q_lane.copy_from_slice(&qkv[..d]);
        // Stage the K/V rows in scratch; the cache's tail page encodes
        // them under its storage policy (no per-token allocation).
        k_row.clear();
        k_row.extend_from_slice(&qkv[d..2 * d]);
        v_row.clear();
        v_row.extend_from_slice(&qkv[2 * d..]);
        if self.config.family == Family::Llama {
            for head in 0..heads {
                rope_in_place(&mut q_lane[head * dh..(head + 1) * dh], pos);
                rope_in_place(&mut k_row[head * dh..(head + 1) * dh], pos);
            }
        }
    }

    /// Post-attention half of one decode layer: FP16-rounds the head
    /// mix, output projection + residual, then the FFN block + residual.
    /// Shared verbatim by the per-stream and grouped decode paths.
    fn finish_layer(&self, layer: &Layer, s: &mut DecodeScratch, par: bool) {
        self.finish_layer_lane(layer, 0, s, par);
    }

    /// [`Model::finish_layer`] for lane `lane` of a multi-token span:
    /// reads the head mix from `s.attn`'s lane and updates `s.x`'s lane
    /// in place; the GeMM temporaries (`h`, `gate`, `hidden`, `proj`)
    /// are shared across lanes, sequential within a batch entry.
    fn finish_layer_lane(&self, layer: &Layer, lane: usize, s: &mut DecodeScratch, par: bool) {
        let d = self.config.d_model;
        let DecodeScratch {
            x,
            h,
            attn,
            proj,
            gate,
            hidden,
            ..
        } = s;
        let x_lane = &mut x[lane * d..(lane + 1) * d];
        let attn_lane = &mut attn[lane * d..(lane + 1) * d];
        round_to_f16(attn_lane);
        vec_matmul_into(attn_lane, &layer.wo, proj, par);
        for (xv, ov) in x_lane.iter_mut().zip(&*proj) {
            *xv += ov;
        }

        // FFN block.
        h.clear();
        h.extend_from_slice(x_lane);
        self.norm_vec(h, &layer.ffn_gain, &layer.ffn_bias);
        round_to_f16(h);
        match (&layer.wgate, self.config.family) {
            (Some(wgate), Family::Llama) => {
                vec_matmul_into(h, wgate, gate, par);
                vec_matmul_into(h, &layer.wup, hidden, par);
                for (u, &g) in hidden.iter_mut().zip(&*gate) {
                    *u *= ops::silu(g);
                }
            }
            _ => {
                vec_matmul_into(h, &layer.wup, hidden, par);
                for u in hidden.iter_mut() {
                    *u = ops::relu(*u);
                }
            }
        }
        round_to_f16(hidden);
        vec_matmul_into(hidden, &layer.wdown, proj, par);
        for (xv, dv) in x_lane.iter_mut().zip(&*proj) {
            *xv += dv;
        }
    }

    /// Runs the tied LM head over a whole batch of decode hidden states
    /// with one GEMM-shaped dispatch: every `B × vocab` output element is
    /// the same ascending-`k` dot [`Model::decode_step`] computes, so row
    /// `i` of [`BatchOutput::logits_row`] is bit-identical to the logits a
    /// solo `decode_step` would have produced for stream `i` — batching
    /// only amortizes the pool dispatch, it never changes a value.
    ///
    /// Uses the global pool; see [`Model::lm_head_batch_pool`] for an
    /// explicit pool (tests pin thread counts with it).
    ///
    /// # Panics
    ///
    /// Panics if a pushed hidden row is not `d_model` wide.
    pub fn lm_head_batch(&self, batch: &mut BatchOutput) {
        self.lm_head_batch_pool(batch, rayon_lite::global());
    }

    /// [`Model::lm_head_batch`] on an explicit pool.
    pub fn lm_head_batch_pool(&self, batch: &mut BatchOutput, pool: &ThreadPool) {
        let d = self.config.d_model;
        let vocab = self.config.vocab;
        let b = batch.len();
        if b > 0 {
            assert_eq!(batch.dim, d, "hidden width must be d_model");
        }
        batch.logits.resize(b, vocab);
        if b == 0 {
            return;
        }
        let hidden = &batch.hidden;
        // Element f of the flat B × vocab output, computed exactly like
        // `lm_head_into`'s per-token dot (ascending k, one accumulator).
        let elem = |f: usize| -> f32 {
            let (row, tok) = (f / vocab, f % vocab);
            let x = &hidden[row * d..(row + 1) * d];
            let dot: f32 = self
                .embed
                .row(tok)
                .iter()
                .zip(x.iter())
                .map(|(&e, &xv)| e * xv)
                .sum();
            dot * self.logit_scale
        };
        let total = b * vocab;
        let out = &mut batch.logits.as_mut_slice()[..total];
        if pool.threads() > 1 && total * d >= VEC_PAR_MIN_MULADDS && total > 1 {
            let chunk = total.div_ceil(pool.threads()).max(1);
            pool.par_chunks_mut(out, chunk, |idx, part| {
                for (off, o) in part.iter_mut().enumerate() {
                    *o = elem(idx * chunk + off);
                }
            });
        } else {
            for (f, o) in out.iter_mut().enumerate() {
                *o = elem(f);
            }
        }
    }

    /// Tied LM head for one position: `logits[tok] = embed[tok] · x` times
    /// the logit scale. Vocab rows are sharded across the global pool when
    /// large enough; each logit is one sequential dot either way, so the
    /// parallel result is bit-identical to the serial one.
    fn lm_head_into(&self, x: &[f32], logits: &mut Vec<f32>) {
        let vocab = self.config.vocab;
        let row_logit = |tok: usize| -> f32 {
            let dot: f32 = self
                .embed
                .row(tok)
                .iter()
                .zip(x.iter())
                .map(|(&e, &xv)| e * xv)
                .sum();
            dot * self.logit_scale
        };
        logits.clear();
        let pool = rayon_lite::global();
        if pool.threads() > 1 && vocab * x.len() >= VEC_PAR_MIN_MULADDS && vocab > 1 {
            logits.resize(vocab, 0.0);
            let toks_per_chunk = vocab.div_ceil(pool.threads()).max(1);
            pool.par_chunks_mut(&mut logits[..], toks_per_chunk, |idx, chunk| {
                for (off, l) in chunk.iter_mut().enumerate() {
                    *l = row_logit(idx * toks_per_chunk + off);
                }
            });
        } else {
            logits.extend((0..vocab).map(row_logit));
        }
    }

    fn norm_vec(&self, v: &mut [f32], gain: &[f32], bias: &[f32]) {
        let n = v.len() as f32;
        match self.config.family {
            Family::Opt => {
                let mean = v.iter().sum::<f32>() / n;
                let var = v.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
                let inv = 1.0 / (var + NORM_EPS).sqrt();
                for ((x, &g), &b) in v.iter_mut().zip(gain).zip(bias) {
                    *x = (*x - mean) * inv * g + b;
                }
            }
            Family::Llama => {
                let ms = v.iter().map(|&x| x * x).sum::<f32>() / n;
                let inv = 1.0 / (ms + NORM_EPS).sqrt();
                for (x, &g) in v.iter_mut().zip(gain) {
                    *x = *x * inv * g;
                }
            }
        }
    }
}

/// Reusable buffers for [`Model::forward_with_scratch`].
///
/// Holding one scratch across calls (perplexity windows, calibration
/// sweeps, codec comparisons) removes every per-layer allocation from the
/// forward pass; buffers are resized in place as sequence length and layer
/// widths require.
#[derive(Clone, Debug, Default)]
pub struct ForwardScratch {
    /// Residual stream (`t × d`).
    x: Matrix,
    /// Normalized residual input to a GeMM block.
    h: Matrix,
    /// Codec-processed activations.
    act: Matrix,
    /// Fused QKV projection output (`t × 3d`).
    qkv: Matrix,
    /// Attention/FFN output projection (`t × d`).
    proj: Matrix,
    /// SwiGLU gate projection (`t × ffn`), LLaMA family only.
    gate: Matrix,
    /// FFN hidden activations (`t × ffn`).
    hidden: Matrix,
    /// Attention working set.
    attn: AttnScratch,
    /// Output logits (`t × vocab`), the pass's return value.
    logits: Matrix,
}

impl ForwardScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-head attention buffers (part of [`ForwardScratch`]).
#[derive(Clone, Debug, Default)]
struct AttnScratch {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    scores: Matrix,
    head_out: Matrix,
    /// Concatenated head outputs (`t × d`).
    out: Matrix,
}

/// Reusable buffers for KV-cached decode steps; one instance serves a
/// whole generation loop (or one serving-layer stream), so per-token work
/// allocates nothing at steady state (pair with [`DecodeScratch::reserve`]
/// and [`crate::kv::PagePool::preallocate`] for a hard zero).
#[derive(Clone, Debug, Default)]
pub struct DecodeScratch {
    /// Residual stream (`d`); after a decode pass, the final-normed hidden
    /// state ([`DecodeScratch::hidden_state`]).
    x: Vec<f32>,
    /// Normalized GeMM input.
    h: Vec<f32>,
    /// Fused QKV output (`3d`).
    qkv: Vec<f32>,
    /// Current-position query (`d`).
    q: Vec<f32>,
    /// Attention mix output (`d`).
    attn: Vec<f32>,
    /// Per-head attention scores over cached positions (`heads × t`,
    /// head-major lanes).
    scores: Vec<f32>,
    /// Sampling probability staging (`vocab`).
    probs: Vec<f32>,
    /// Output/down projection result (`d`).
    proj: Vec<f32>,
    /// SwiGLU gate (`ffn`).
    gate: Vec<f32>,
    /// FFN hidden activations (`ffn`).
    hidden: Vec<f32>,
    /// Next-token logits (`vocab`).
    logits: Vec<f32>,
    /// Staged current-position key row (`d`, post-RoPE) awaiting the
    /// cache append.
    k_row: Vec<f32>,
    /// Staged current-position value row (`d`).
    v_row: Vec<f32>,
    /// The solo decode path's page-walk tile (page-sized).
    pages: PageDecodeCache,
}

impl DecodeScratch {
    /// Empty scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves every decode buffer for `config`-shaped models at
    /// contexts up to `max_len` positions, so no later decode step ever
    /// grows a buffer. With the cache's pool preallocated and its page
    /// tables reserved, decoding is then allocation-free per token (the
    /// `kv_alloc` counting-allocator suite enforces this).
    pub fn reserve(&mut self, config: &ModelConfig, max_len: usize) {
        let d = config.d_model;
        let ffn = config.d_ffn;
        let lanes = (config.n_heads * max_len).max(config.vocab);
        self.x.reserve(d);
        self.h.reserve(d);
        self.qkv.reserve(3 * d);
        self.q.reserve(d);
        self.attn.reserve(d);
        self.proj.reserve(d);
        self.gate.reserve(ffn);
        self.hidden.reserve(ffn);
        // The score lanes double as sampling staging (`vocab` wide).
        self.scores.reserve(lanes);
        self.probs.reserve(config.vocab);
        self.logits.reserve(config.vocab);
        self.k_row.reserve(d);
        self.v_row.reserve(d);
    }

    /// The next-token logits left by the last [`Model::decode_step`] /
    /// [`Model::prefill`] (empty before the first step).
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// The final-normed hidden state left by the last decode pass
    /// (`d_model` wide), the row [`BatchOutput::push_hidden`] gathers.
    /// (This is the residual-stream buffer, distinct from the FFN's
    /// internal `hidden` activations.)
    pub fn hidden_state(&self) -> &[f32] {
        &self.x
    }

    /// Samples from the scratch's own logits (the last decoded position),
    /// staging in the idle score/prob buffers. Greedy argmax when
    /// `temperature <= 0` (no RNG draw).
    pub fn sample_last(&mut self, temperature: f32, rng: &mut Rng) -> usize {
        let DecodeScratch {
            logits,
            scores,
            probs,
            ..
        } = self;
        sample_logits(logits, temperature, rng, scores, probs)
    }

    /// Samples from caller-provided logits (a [`BatchOutput`] row), with
    /// the same staging reuse as [`DecodeScratch::sample_last`].
    pub fn sample(&mut self, logits: &[f32], temperature: f32, rng: &mut Rng) -> usize {
        sample_logits(logits, temperature, rng, &mut self.scores, &mut self.probs)
    }
}

/// One stream's slot in a [`Model::decode_hidden_batch`] call: the
/// token span to process, its starting position, and mutable borrows of
/// the stream's own cache and scratch. Entries are independent (disjoint
/// borrows), which is what lets the grouped walk fan per-stream work
/// across pool workers.
///
/// A classic decode step is a span of one (the stream's latest sampled
/// token); a *prefill chunk* is a span of several consecutive prompt
/// positions, processed in one grouped step with per-token causal
/// attention — the two are the same operation at different widths, so
/// the serving layer packs them into the same batch.
pub struct BatchEntry<'s> {
    /// The consecutive tokens to process (non-empty). One token is a
    /// decode step; several are a prefill chunk.
    pub tokens: &'s [usize],
    /// Position of `tokens[0]`; must equal `cache.len()`.
    pub pos: usize,
    /// The stream's KV cache.
    pub cache: &'s mut KvCache,
    /// The stream's decode scratch; receives the final-normed hidden
    /// state of the span's **last** token
    /// ([`DecodeScratch::hidden_state`]).
    pub scratch: &'s mut DecodeScratch,
}

/// Batched LM-head staging for a serving layer: hidden rows gathered from
/// per-stream [`DecodeScratch`]es, logits produced for the whole batch by
/// one [`Model::lm_head_batch`] dispatch.
///
/// The buffers persist across engine iterations; [`BatchOutput::clear`]
/// empties the batch without releasing capacity.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    /// Gathered hidden rows, row-major (`B × d`).
    hidden: Vec<f32>,
    /// Hidden row width (set by the first push after a clear).
    dim: usize,
    /// Batch logits (`B × vocab`).
    logits: Matrix,
}

impl BatchOutput {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows currently gathered.
    pub fn len(&self) -> usize {
        self.hidden.len().checked_div(self.dim).unwrap_or(0)
    }

    /// `true` when no rows are gathered.
    pub fn is_empty(&self) -> bool {
        self.hidden.is_empty()
    }

    /// Empties the batch, keeping allocations for the next iteration.
    pub fn clear(&mut self) {
        self.hidden.clear();
        self.dim = 0;
    }

    /// Appends one stream's hidden state ([`DecodeScratch::hidden_state`]).
    ///
    /// # Panics
    ///
    /// Panics if `h` is empty or its width differs from earlier rows.
    pub fn push_hidden(&mut self, h: &[f32]) {
        assert!(!h.is_empty(), "hidden row must not be empty");
        if self.hidden.is_empty() {
            self.dim = h.len();
        } else {
            assert_eq!(h.len(), self.dim, "hidden rows must share one width");
        }
        self.hidden.extend_from_slice(h);
    }

    /// Row `i` of the batch logits computed by [`Model::lm_head_batch`].
    pub fn logits_row(&self, i: usize) -> &[f32] {
        self.logits.row(i)
    }
}

/// Below this many multiply-adds the decode-path vector kernels run
/// serially even when the global pool has threads (dispatch overhead
/// would dominate). Unlike the prefill GeMMs, which shard output rows,
/// decode works on a single token, so these kernels shard output
/// *columns*; each element still accumulates over k in ascending order,
/// keeping results bit-identical at every thread count.
const VEC_PAR_MIN_MULADDS: usize = 256 * 1024;

/// `v(1×k) · m(k×n)` row-vector matmul into a reused buffer.
///
/// With `par`, output columns are sharded across the global pool when the
/// product is large enough; each chunk walks k in the same ascending order
/// (with the same `a == 0` skip) as the serial loop, so the parallel
/// result is bit-identical.
/// Rounds every lane through saturating FP16 — the reference activation
/// precision between decode kernels (§V-A keeps non-GeMM operators in
/// FP16).
fn round_to_f16(v: &mut [f32]) {
    for x in v.iter_mut() {
        *x = saturate_to_f16(*x).to_f32();
    }
}

fn vec_matmul_into(v: &[f32], m: &Matrix, out: &mut Vec<f32>, par: bool) {
    assert_eq!(v.len(), m.rows(), "vec_matmul shape mismatch");
    let n = m.cols();
    out.clear();
    out.resize(n, 0.0);
    let pool = rayon_lite::global();
    if par && pool.threads() > 1 && v.len() * n >= VEC_PAR_MIN_MULADDS && n > 1 {
        let cols_per_chunk = n.div_ceil(pool.threads()).max(1);
        pool.par_chunks_mut(&mut out[..], cols_per_chunk, |idx, chunk| {
            let c0 = idx * cols_per_chunk;
            for (kidx, &a) in v.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_cols = &m.row(kidx)[c0..c0 + chunk.len()];
                for (o, &b) in chunk.iter_mut().zip(b_cols) {
                    *o += a * b;
                }
            }
        });
    } else {
        for (kidx, &a) in v.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out.iter_mut().zip(m.row(kidx)) {
                *o += a * b;
            }
        }
    }
}

/// Applies rotary position embedding to one head row at position `pos`.
fn rope_in_place(row: &mut [f32], pos: usize) {
    let dh = row.len();
    let half = dh / 2;
    for i in 0..half {
        let theta = pos as f32 / 10000f32.powf(2.0 * i as f32 / dh as f32);
        let (sin, cos) = theta.sin_cos();
        let (a, b) = (row[2 * i], row[2 * i + 1]);
        row[2 * i] = a * cos - b * sin;
        row[2 * i + 1] = a * sin + b * cos;
    }
}

/// Samples a token from `logits / temperature`, staging the scaled logits
/// and probabilities in caller-provided buffers (cleared and refilled).
fn sample_logits(
    logits: &[f32],
    temperature: f32,
    rng: &mut Rng,
    scaled: &mut Vec<f32>,
    probs: &mut Vec<f32>,
) -> usize {
    if temperature <= 0.0 {
        return ops::argmax(logits);
    }
    scaled.clear();
    scaled.extend(logits.iter().map(|&l| l / temperature));
    ops::log_softmax_into(scaled, probs);
    for p in probs.iter_mut() {
        *p = p.exp();
    }
    rng.categorical(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn tiny_spec() -> zoo::SimModelSpec {
        zoo::sim_models()
            .into_iter()
            .find(|s| s.sim.name == "OPT-125M-sim")
            .unwrap()
    }

    #[test]
    fn forward_shapes() {
        let spec = tiny_spec();
        let model = spec.build();
        let tokens = [1usize, 5, 9, 2];
        let logits = model.forward(&tokens, &CodecAssignment::fp16());
        assert_eq!(logits.shape(), (4, model.config().vocab));
    }

    #[test]
    fn forward_is_deterministic() {
        let spec = tiny_spec();
        let model = spec.build();
        let tokens = [3usize, 1, 4, 1, 5];
        let a = model.forward(&tokens, &CodecAssignment::fp16());
        let b = model.forward(&tokens, &CodecAssignment::fp16());
        assert_eq!(a, b);
    }

    #[test]
    fn causal_masking_prefix_invariance() {
        // Logits at position i must not depend on later tokens.
        let spec = tiny_spec();
        let model = spec.build();
        let codecs = CodecAssignment::fp16();
        let a = model.forward(&[7, 8, 9, 10], &codecs);
        let b = model.forward(&[7, 8, 9, 450], &codecs);
        for c in 0..model.config().vocab {
            assert!((a[(1, c)] - b[(1, c)]).abs() < 1e-4);
            assert!((a[(2, c)] - b[(2, c)]).abs() < 1e-4);
        }
    }

    #[test]
    fn quantized_model_stays_close_to_fp16() {
        let spec = tiny_spec();
        let model = spec.build();
        let q = model.quantize_weights(WeightQuantConfig::w4_g128());
        assert_eq!(q.mode(), WeightMode::Int4);
        let codecs = CodecAssignment::fp16();
        let tokens = [2usize, 4, 6, 8, 10, 12];
        let a = model.forward(&tokens, &codecs);
        let b = q.forward(&tokens, &codecs);
        // Correlated but not identical.
        let mut diff = 0.0f32;
        let mut norm = 0.0f32;
        for i in 0..tokens.len() {
            for c in 0..model.config().vocab {
                diff += (a[(i, c)] - b[(i, c)]).powi(2);
                norm += a[(i, c)].powi(2);
            }
        }
        assert!(diff > 0.0, "quantization must change logits");
        // Tiny sim models are far more weight-quantization-sensitive than
        // billion-parameter LLMs; the working requirement is only that the
        // W4A16 model remains a usable baseline (all Table II accuracy
        // numbers are measured relative to it, as in the paper).
        assert!(diff / norm < 0.5, "relative logit error {}", diff / norm);
    }

    #[test]
    fn codec_degradation_orders_by_mantissa() {
        let spec = tiny_spec();
        let model = spec.build().quantize_weights(WeightQuantConfig::w4_g128());
        let tokens: Vec<usize> = (0..24).map(|i| (i * 13) % 400).collect();
        let reference = model.forward(&tokens, &CodecAssignment::fp16());
        let err = |m: u32| {
            let codecs = CodecAssignment::uniform(anda_quant::ActivationCodec::anda(m));
            let out = model.forward(&tokens, &codecs);
            let mut e = 0.0f64;
            for i in 0..tokens.len() {
                for c in 0..model.config().vocab {
                    e += f64::from((out[(i, c)] - reference[(i, c)]).powi(2));
                }
            }
            e
        };
        let (e3, e11) = (err(3), err(11));
        assert!(e3 > 10.0 * e11, "m=3 err {e3} vs m=11 err {e11}");
    }

    #[test]
    fn generation_extends_prompt() {
        let spec = tiny_spec();
        let model = spec.build();
        let mut rng = Rng::new(42);
        let out = model.generate(&[1, 2, 3], 5, 0.9, &mut rng);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < model.config().vocab));
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let spec = tiny_spec();
        let model = spec.build();
        let mut r1 = Rng::new(1);
        let mut r2 = Rng::new(2);
        let a = model.generate(&[5, 6], 4, 0.0, &mut r1);
        let b = model.generate(&[5, 6], 4, 0.0, &mut r2);
        assert_eq!(a, b, "greedy decoding ignores the rng");
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_panics() {
        let spec = tiny_spec();
        let model = spec.build();
        let _ = model.forward(&[999_999], &CodecAssignment::fp16());
    }

    #[test]
    fn llama_family_uses_rope_and_gate() {
        let spec = zoo::sim_models()
            .into_iter()
            .find(|s| s.sim.family == Family::Llama)
            .unwrap();
        let model = spec.build();
        assert!(model.layers()[0].wgate.is_some());
        let logits = model.forward(&[1, 2, 3], &CodecAssignment::fp16());
        assert_eq!(logits.rows(), 3);
        // RoPE means position matters even without learned positions:
        let l2 = model.forward(&[2, 1, 3], &CodecAssignment::fp16());
        assert_ne!(logits, l2);
    }
}
