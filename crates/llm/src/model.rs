//! The transformer inference engine.
//!
//! [`Model`] holds effective (`f32`) weights — each projection once, as
//! the [`PackedMatrix`] its GEMM reads in place — plus, in
//! [`WeightMode::Int4`] mode, the quantized [`IntWeightMatrix`] handles.
//! Nothing in the workspace reads those handles: the served and
//! `forward` GEMMs run on the dequantised packed weights, and the
//! simulator and storage accounting count from shapes. Their one reader
//! is the benchmark's `quant.gemm_anda_gmacs` probe. A per-module
//! [`CodecAssignment`] is applied to the four FP-INT GeMM activations — all other arithmetic (attention
//! scores, softmax, norms, residuals) stays in floating point, matching
//! the paper's methodology (§V-A keeps non-GeMM operators and the KV
//! cache in FP16; here the cache's storage policy is its pool's, and
//! [`Model::forward`]'s private cache keeps raw `f32` rows).
//!
//! There is **one** transformer body, the row-block step behind
//! [`Model::decode_hidden_batch`]: the tokens of every stream in a step
//! (decode spans of one, prefill chunks of many) form one
//! `rows × d_model` block, each weight multiplies it **once** per layer,
//! and only RoPE, the K/V append and the page walk see streams.
//! [`Model::prefill`], [`Model::decode_step`] and
//! [`Model::decode_hidden`] are that step with a single entry under FP16
//! codecs, and [`Model::forward`] is that step with a single entry under
//! the caller's assignment, finishing every row instead of the last — so
//! perplexity, the precision search and the figure binaries measure the
//! code requests run.

use anda_fp::batch::saturate_f16_widen_in_place;
use anda_fp::simd::active_leg;
use anda_quant::{IntWeightMatrix, WeightQuantConfig};
use anda_tensor::{ops, Matrix, PackedMatrix, Rng};
use rayon_lite::ThreadPool;

use crate::config::{Family, ModelConfig};
use crate::kv::{AttendLane, PageDecodeCache};
use crate::modules::CodecAssignment;
use crate::phase::{Phase, Stamp};
use crate::synth::{
    boost_columns, dense, dense_into, norm_bias, norm_gain, OutlierSpec, SensitivityProfile,
};

pub use crate::kv::{KvCache, LayerKv};

/// How the model's GeMM weights are stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightMode {
    /// FP16 weights (the full-precision baseline row of Table II).
    Fp16,
    /// W4A16-style group-wise INT4 weights (the deployment baseline).
    Int4,
}

/// One transformer block's weights. Each projection is held once, packed
/// the way its GEMM reads it ([`PackedMatrix`], packed once while the model
/// is built and never again); nothing holds a row-major copy.
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
    pub wqkv: PackedMatrix,
    /// Output projection, `d × d`.
    pub wo: PackedMatrix,
    /// Gate projection (`d × ffn`), LLaMA family only.
    pub wgate: Option<PackedMatrix>,
    /// Up projection, `d × ffn`.
    pub wup: PackedMatrix,
    /// Down projection, `ffn × d`.
    pub wdown: PackedMatrix,
    /// Quantized handles (Int4 mode only), in module order
    /// `[wqkv, wo, wgate?, wup, wdown]`. No GEMM, simulator or accounting
    /// in the workspace reads them; the benchmark's
    /// `quant.gemm_anda_gmacs` probe does, so they stay until that probe
    /// quantises its own weight.
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
    /// Token embedding, tied with the LM head: held once, packed as the
    /// head's `d × vocab` `rhs` (token `t` is column `t`).
    embed: PackedMatrix,
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

        // Every weight, the embedding first, is sampled row-major into one
        // reused buffer and packed from it: the buffer is paged in once per
        // model, not once per weight.
        let mut sampled = Matrix::default();
        let target = profile.logit_sharpness;
        dense_into(&mut sampled, config.vocab, d, target, &mut rng);
        // Renormalize embedding rows so logits reflect direction, not length.
        for r in 0..config.vocab {
            let row = sampled.row_mut(r);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in row.iter_mut() {
                *x *= target / norm;
            }
        }
        let embed = PackedMatrix::pack_transposed(&sampled);

        let pos_embed = match config.family {
            Family::Opt => Some(dense(config.max_seq, d, 0.3, &mut rng)),
            Family::Llama => None,
        };

        let mut weight = |rows, cols, rng: &mut Rng| {
            dense_into(&mut sampled, rows, cols, profile.weight_std, rng);
            PackedMatrix::pack(&sampled)
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
                let mut wqkv = weight(d, 3 * d, &mut rng);
                let mut wo = weight(d, d, &mut rng);
                boost_columns(&mut wo, 0..d, OutlierSpec::NONE, &mut rng);
                let mut wgate = match config.family {
                    Family::Llama => Some(weight(d, ffn, &mut rng)),
                    Family::Opt => None,
                };
                let mut wup = weight(d, ffn, &mut rng);
                // Outlier columns in the up projection widen A_d's range.
                boost_columns(&mut wup, 0..ffn, profile.d, &mut rng);
                let mut wdown = weight(ffn, d, &mut rng);

                // Outlier columns in the value third of wqkv widen A_o's
                // range (attention output inherits V's channel structure).
                boost_columns(&mut wqkv, 2 * d..3 * d, profile.o, &mut rng);

                // The FP16 storage baseline: `saturate_to_f16(v).to_f32()`
                // per weight, on the dispatched slice kernel (`to_bits`-equal
                // to that scalar expression on every leg).
                let weights = [&mut wqkv, &mut wo, &mut wup, &mut wdown];
                for w in weights.into_iter().chain(wgate.as_mut()) {
                    saturate_f16_widen_in_place(w.as_mut_slice());
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

        Model {
            config,
            mode: WeightMode::Fp16,
            embed,
            pos_embed,
            layers,
            final_gain,
            final_bias,
            logit_scale: 1.0,
        }
    }

    /// Produces the weight-only quantized (W4A16-style) version of this
    /// model: GeMM weights are group-wise INT4; effective weights become the
    /// dequantized values, packed as they are dequantized; quantized
    /// handles are retained. Built from `&self` without copying the `f32`
    /// weights it replaces.
    pub fn quantize_weights(&self, qcfg: WeightQuantConfig) -> Model {
        // One row-major buffer carries every weight: unpacked for the
        // quantiser, then dequantised and packed.
        let mut rows = Matrix::default();
        let mut layers = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let mut quantize = |w: &PackedMatrix| {
                w.to_matrix_into(&mut rows);
                IntWeightMatrix::quantize(&rows, qcfg)
            };
            let q = LayerQuant {
                wqkv: quantize(&layer.wqkv),
                wo: quantize(&layer.wo),
                wgate: layer.wgate.as_ref().map(&mut quantize),
                wup: quantize(&layer.wup),
                wdown: quantize(&layer.wdown),
            };
            let mut dequantize = |q: &IntWeightMatrix| {
                q.dequantize_into(&mut rows);
                PackedMatrix::pack(&rows)
            };
            layers.push(Layer {
                attn_gain: layer.attn_gain.clone(),
                attn_bias: layer.attn_bias.clone(),
                ffn_gain: layer.ffn_gain.clone(),
                ffn_bias: layer.ffn_bias.clone(),
                wqkv: dequantize(&q.wqkv),
                wo: dequantize(&q.wo),
                wgate: q.wgate.as_ref().map(&mut dequantize),
                wup: dequantize(&q.wup),
                wdown: dequantize(&q.wdown),
                quantized: Some(q),
            });
        }
        Model {
            config: self.config.clone(),
            mode: WeightMode::Int4,
            embed: self.embed.clone(),
            pos_embed: self.pos_embed.clone(),
            layers,
            final_gain: self.final_gain.clone(),
            final_bias: self.final_bias.clone(),
            logit_scale: self.logit_scale,
        }
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
    /// This is `tokens` as **one span** of the row-block step
    /// ([`Model::decode_hidden_batch`]'s body) at position 0 of an empty
    /// [`KvCache::new`] cache, with every row finished instead of the
    /// last, then one LM head over the `T` rows. Under
    /// [`CodecAssignment::fp16`] row `i` is bit-identical to
    /// [`Model::decode_step`]'s logits at position `i` and the last row
    /// to [`Model::prefill`]'s (pinned in `kv_api.rs` by
    /// `forward_rows_equal_the_decode_step_loop_and_prefill`); under any
    /// assignment row `i` equals the last row of a forward over
    /// `tokens[..=i]`.
    ///
    /// Allocates a fresh [`ForwardScratch`] per call; callers evaluating
    /// many sequences (perplexity windows, calibration sweeps) should hold
    /// one scratch and use [`Model::forward_with_scratch`].
    ///
    /// The solo reference a served step stays `f32::to_bits`-equal to.
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

    /// [`Model::forward`] with caller-provided buffers: the cache, the
    /// step's row block and the `T × vocab` logit matrix live in
    /// `scratch`. At steady state — after two passes at the longest
    /// length: the first sizes the buffers, the second's reset grows the
    /// pool's free list to hold the pages — a pass allocates nothing on
    /// the calling thread when the global pool has one thread (wider
    /// pools box the jobs they dispatch;
    /// `kv_alloc.rs::warmed_forward_allocates_zero_on_a_one_thread_pool`).
    /// Returns a borrow of `scratch`'s logits.
    pub fn forward_with_scratch<'s>(
        &self,
        tokens: &[usize],
        codecs: &CodecAssignment,
        scratch: &'s mut ForwardScratch,
    ) -> &'s Matrix {
        let ForwardScratch {
            cache,
            step,
            logits,
        } = scratch;
        let n_layers = self.layers.len();
        let cache = match cache {
            Some(cache) if cache.n_layers() == n_layers => cache,
            slot => slot.insert(KvCache::new(n_layers)),
        };
        cache.reset();
        let pool = rayon_lite::global();
        let mut block = std::mem::take(&mut step.pages);
        let span = BatchEntry {
            tokens,
            pos: 0,
            cache,
            scratch: step,
        };
        self.step_rows(&mut [span], &mut block, pool, codecs, Finish::AllRows);
        self.lm_head(&block.rows.x, logits, pool);
        step.pages = block;
        logits
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

    /// Greedy/temperature sampling generation with a KV cache, always using
    /// FP16 reference activations (corpus synthesis path). The cache is a
    /// private paged exact-reference store ([`KvCache::new`]: raw `f32`
    /// rows), the one [`Model::forward`] runs on.
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

    /// Runs KV-cached prefill: `tokens` as **one span** of the row-block
    /// step ([`Model::decode_hidden_batch`] with a single entry), starting
    /// at the cache's current length, then one LM head over the final
    /// position. After the call `s` holds the last position's next-token
    /// logits ([`DecodeScratch::logits`]), ready for the first sample —
    /// bit-identical to running [`Model::decode_step`] per token, minus
    /// the intermediate positions' LM heads, whose logits nothing ever
    /// read.
    ///
    /// Starting at the cache's length is what makes this the
    /// prefill-into-forked-cache entry point for shared-prefix serving: a
    /// cache produced by [`KvCache::fork_prefix`] already holds the prefix
    /// positions, so prefilling only the request's private suffix continues
    /// at the right positions and is bit-identical to prefilling
    /// `prefix ++ suffix` contiguously into a fresh cache — decode steps
    /// depend only on the cached rows, and shared pages hold exactly the
    /// bits a private prefill would have written (a fork's copied tail
    /// page holds them bitwise).
    ///
    /// The same resumability powers *chunked* prefill: any split of
    /// `tokens` into consecutive spans, prefilled in order against the
    /// same cache, writes the same KV rows and produces the same final
    /// hidden state.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the cache would grow past `max_seq`.
    pub fn prefill(&self, tokens: &[usize], cache: &mut KvCache, s: &mut DecodeScratch) {
        assert!(!tokens.is_empty(), "prompt must not be empty");
        let pool = rayon_lite::global();
        self.decode_span(tokens, cache.len(), cache, s, pool);
        self.lm_head(&s.x, &mut s.logits, pool);
    }

    /// One KV-cached decode step: processes `token` at position `pos` and
    /// leaves the next-token logits in `s` ([`DecodeScratch::logits`]).
    /// Activations stay in FP16 (reference path): on a [`KvCache::new`]
    /// cache the logits are row `pos` of a full-sequence
    /// [`Model::forward`] under [`CodecAssignment::fp16`], bit for bit
    /// (`kv_api.rs::forward_rows_equal_the_decode_step_loop_and_prefill`)
    /// — both are the same step body. K/V rows are written straight
    /// into the cache's tail page (FP16-rounded or Anda-encoded by the
    /// cache's policy) and every intermediate lives in `s`, so
    /// steady-state decode allocates nothing — the cache leases a pool
    /// page only every `page_positions` tokens.
    ///
    /// Kernels auto-dispatch on the global pool; results are
    /// bit-identical to the serial path at every thread count.
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
        let pool = rayon_lite::global();
        self.decode_span(&[token], pos, cache, s, pool);
        self.lm_head(&s.x, &mut s.logits, pool);
    }

    /// The hidden-state half of [`Model::decode_step`]: identical through
    /// the final norm, but stops before the LM head, leaving the
    /// final-normed residual in `s` ([`DecodeScratch::hidden_state`]).
    /// Runs on [`rayon_lite::serial`], the pool of one, so every kernel
    /// stays on the calling thread — the per-token solo oracle the
    /// batched suites compare against, allocation-free once warmed
    /// ([`DecodeScratch::reserve`] creates the pool of one); the served
    /// path batches through [`Model::decode_hidden_batch`].
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
        self.decode_span(&[token], pos, cache, s, rayon_lite::serial());
    }

    /// One stream's served span as a step of one entry, on the scratch's
    /// own step buffers.
    fn decode_span(
        &self,
        tokens: &[usize],
        pos: usize,
        cache: &mut KvCache,
        s: &mut DecodeScratch,
        pool: &ThreadPool,
    ) {
        let mut step = std::mem::take(&mut s.pages);
        let entry = BatchEntry {
            tokens,
            pos,
            cache,
            scratch: s,
        };
        let fp16 = CodecAssignment::fp16();
        self.step_rows(&mut [entry], &mut step, pool, &fp16, Finish::LastRows);
        s.pages = step;
    }

    /// One engine step for every stream in `batch`: each entry advances
    /// by its token span — one token for a decoding stream, a chunk of
    /// prompt positions for a prefilling one — and the whole step runs as
    /// **one row block**.
    ///
    /// Every token of every entry is a row of a `rows × d_model`
    /// activation block; a cumulative-offsets vector says which rows are
    /// whose (the oneDNN grouped layout, rows being the variable
    /// dimension). Per layer:
    ///
    /// 1. **Project.** Norm all rows and round them through the `A_qkv`
    ///    codec (FP16 on every served step), then **one GEMM per
    ///    weight for the whole step** — `wqkv` here, `wo`, `wup`
    ///    (/`wgate`) and `wdown` when the layer is finished — so a weight
    ///    is streamed from memory once per step, not once per token.
    /// 2. **Append.** Row `j` of an entry only depends on the previous
    ///    layer's residual of row `j`, so all rows are projected before
    ///    any is attended. What is inherently per stream stays per entry,
    ///    in position order, fanned across `pool` by entry: RoPE and the
    ///    K/V append (the Anda row encode).
    /// 3. **Walk.** Every row becomes an [`AttendLane`] of one
    ///    [`PageDecodeCache::attend`] call — the page-major walk that
    ///    decodes each distinct physical page once per step however many
    ///    rows view it; row `j` of a span attends its causal window
    ///    `pos + j + 1` of a table that already holds the whole span.
    ///
    /// On the last layer only each entry's final row feeds anything
    /// downstream, so only it is attended and finished
    /// ([`Model::forward`], which reads every row's logits, is the same
    /// body finishing all of them).
    ///
    /// Every stream's result is bit-identical (`f32::to_bits`) to
    /// per-token [`Model::decode_hidden`] at any thread count and however
    /// the step is composed: each GEMM output element is `Σ_k a·b` over
    /// ascending `k` whatever rows surround it, everything else is
    /// per-row arithmetic, and the walk's lanes are independent.
    ///
    /// The step-wide buffers live in `decode_cache`, so a warmed step
    /// allocates nothing on the calling thread
    /// ([`PageDecodeCache::reserve`]).
    ///
    /// # Panics
    ///
    /// As [`Model::decode_step`], per entry; also panics if an entry's
    /// cache does not have one layer per model layer.
    pub fn decode_hidden_batch(
        &self,
        batch: &mut [BatchEntry<'_>],
        decode_cache: &mut PageDecodeCache,
        pool: &ThreadPool,
    ) {
        let fp16 = CodecAssignment::fp16();
        self.step_rows(batch, decode_cache, pool, &fp16, Finish::LastRows);
    }

    /// The one transformer body (see [`Model::decode_hidden_batch`]);
    /// [`rayon_lite::serial`] keeps every kernel on the calling thread.
    /// `codecs` round the four GeMM inputs and `finish` says which rows
    /// the last layer completes; the finished, final-normed rows are left
    /// in `step.rows.x` and each entry's last one in its scratch.
    fn step_rows(
        &self,
        batch: &mut [BatchEntry<'_>],
        step: &mut PageDecodeCache,
        pool: &ThreadPool,
        codecs: &CodecAssignment,
        finish: Finish,
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
        let dh = self.config.d_head();
        let heads = self.config.n_heads;
        let n_layers = self.layers.len();
        // Taken out so the walk can borrow `step` while lanes borrow the
        // rows; both are moves of empty-or-warm buffers, never copies.
        let mut r = std::mem::take(&mut step.rows);

        r.offsets.clear();
        r.positions.clear();
        for entry in batch.iter() {
            r.offsets.push(r.positions.len());
            r.positions
                .extend(entry.pos..entry.pos + entry.tokens.len());
        }
        let rows = r.positions.len();
        r.offsets.push(rows);
        r.x.resize(rows, d);
        let tokens = batch.iter().flat_map(|entry| entry.tokens);
        let embedded = r.x.as_mut_slice().chunks_exact_mut(d);
        for ((&token, &pos), x_row) in tokens.zip(&r.positions).zip(embedded) {
            for (xv, &ev) in x_row.iter_mut().zip(self.embed.col(token)) {
                *xv = ev;
            }
            if let Some(posm) = &self.pos_embed {
                for (xv, &pv) in x_row.iter_mut().zip(posm.row(pos)) {
                    *xv += pv;
                }
            }
        }

        let mut lap = Stamp::now();
        for (l, layer) in self.layers.iter().enumerate() {
            if l > 0 {
                self.finish_rows(&self.layers[l - 1], &mut r, pool, codecs);
                lap = step.lap(Phase::Finish, lap, rows as u64);
            }
            let StepRows {
                offsets,
                positions,
                x,
                h,
                qkv,
                attn,
                gemms,
                ..
            } = &mut r;
            // `h = codec(norm(x))`, row by row: the GEMM input of a block.
            h.copy_from(x);
            self.norm_rows(h, &layer.attn_gain, &layer.attn_bias);
            codecs.qkv.apply_matrix_in_place(h);
            project(h, &layer.wqkv, qkv, pool, gemms);
            if self.config.family == Family::Llama {
                pool.par_chunks_mut(qkv.as_mut_slice(), 3 * d, |row, qkv_row| {
                    rope_in_place(&mut qkv_row[..2 * d], dh, positions[row]);
                });
            }
            // The cache's tail page encodes the rows under its storage
            // policy; an entry's rows land in position order.
            let qkv = &*qkv;
            pool.par_chunks_mut(batch, 1, |idx, entry| {
                let (kv_pool, kv_layers) = entry[0].cache.split_mut();
                for row in offsets[idx]..offsets[idx + 1] {
                    let (k_row, v_row) = qkv.row(row)[d..].split_at(d);
                    kv_layers[l].push(kv_pool, k_row, v_row);
                }
            });
            step.lap(Phase::Qkv, lap, rows as u64);

            // On a served step's last layer only each entry's final row
            // feeds anything downstream: earlier span rows exist to append
            // their K/V, and once those landed their attend/finish would
            // compute dead residuals. A span of one skips nothing.
            let last_only = finish == Finish::LastRows && l + 1 == n_layers;
            let first_lane = |entry: &BatchEntry<'_>| match last_only {
                true => entry.tokens.len() - 1,
                false => 0,
            };
            // Lane `j` of a span attends its causal window `pos + j + 1`.
            let windows = |entry: &BatchEntry<'_>| {
                entry.pos + first_lane(entry) + 1..=entry.pos + entry.tokens.len()
            };
            attn.resize(rows, d);
            let mut outs = attn.as_mut_slice().chunks_exact_mut(d);
            let mut lanes = step.take_lanes();
            for (entry, &row0) in batch.iter().zip(offsets.iter()) {
                let kv = entry.cache.layer(l);
                debug_assert_eq!(kv.len(), entry.pos + entry.tokens.len());
                let span_outs = outs.by_ref().take(entry.tokens.len());
                let attended = span_outs.enumerate().skip(first_lane(entry));
                for ((j, out), t) in attended.zip(windows(entry)) {
                    lanes.push(AttendLane {
                        layer: kv,
                        t,
                        q: &qkv.row(row0 + j)[..d],
                        out,
                    });
                }
            }
            step.attend(&mut lanes, heads, pool);
            step.recycle_lanes(lanes);
            lap = Stamp::now();
        }

        // Epilogue: finish the last layer on the rows that feed something
        // (a served step first gathers each entry's final row to the
        // front and points `offsets` at the gathered block), final norm,
        // and hand every stream its last hidden state.
        if finish == Finish::LastRows {
            for idx in 0..batch.len() {
                let end = r.offsets[idx + 1];
                for m in [&mut r.x, &mut r.attn] {
                    m.as_mut_slice()
                        .copy_within((end - 1) * d..end * d, idx * d);
                }
                r.offsets[idx + 1] = idx + 1;
            }
            r.x.resize(batch.len(), d);
            r.attn.resize(batch.len(), d);
        }
        let last = self.layers.last().expect("models have at least one layer");
        self.finish_rows(last, &mut r, pool, codecs);
        step.lap(Phase::Finish, lap, r.x.rows() as u64);
        self.norm_rows(&mut r.x, &self.final_gain, &self.final_bias);
        for (entry, &end) in batch.iter_mut().zip(&r.offsets[1..]) {
            let hidden = &mut entry.scratch.x;
            hidden.resize(1, d);
            hidden.as_mut_slice().copy_from_slice(r.x.row(end - 1));
        }
        step.rows = r;
    }

    fn norm_rows(&self, m: &mut Matrix, gain: &[f32], bias: &[f32]) {
        match self.config.family {
            Family::Opt => ops::layer_norm(m, gain, bias, NORM_EPS),
            Family::Llama => ops::rms_norm(m, gain, NORM_EPS),
        }
    }

    /// Post-attention half of one layer over every row of `r.x` /
    /// `r.attn`: round the head mix (`A_o`), output projection +
    /// residual, then the FFN block (`A_u`, `A_d`) + residual.
    fn finish_rows(
        &self,
        layer: &Layer,
        r: &mut StepRows,
        pool: &ThreadPool,
        codecs: &CodecAssignment,
    ) {
        let StepRows {
            x,
            h,
            attn,
            proj,
            gate,
            hidden,
            gemms,
            ..
        } = r;
        codecs.o.apply_matrix_in_place(attn);
        project(attn, &layer.wo, proj, pool, gemms);
        x.add_inplace(proj);

        h.copy_from(x);
        self.norm_rows(h, &layer.ffn_gain, &layer.ffn_bias);
        codecs.u.apply_matrix_in_place(h);
        project(h, &layer.wup, hidden, pool, gemms);
        match (&layer.wgate, self.config.family) {
            (Some(wgate), Family::Llama) => {
                project(h, wgate, gate, pool, gemms);
                ops::silu_mul_in_place_with_leg(
                    active_leg(),
                    hidden.as_mut_slice(),
                    gate.as_slice(),
                );
            }
            _ => hidden.map_inplace(ops::relu),
        }
        codecs.d.apply_matrix_in_place(hidden);
        project(hidden, &layer.wdown, proj, pool, gemms);
        x.add_inplace(proj);
    }

    /// Runs the tied LM head over a whole batch of decode hidden states
    /// as one `B × d · (vocab × d)ᵀ` GEMM on the global pool: row `i` of
    /// [`BatchOutput::logits_row`] is bit-identical to the logits a solo
    /// [`Model::decode_step`] would have produced for stream `i` — both
    /// run the same kernel, whose every output element is one
    /// ascending-`k` dot whatever rows surround it.
    ///
    /// See [`Model::lm_head_batch_pool`] for an explicit pool (tests pin
    /// thread counts with it).
    ///
    /// For solo callers on the global pool; the scheduler calls
    /// [`Model::lm_head_batch_pool`].
    ///
    /// # Panics
    ///
    /// Panics if a pushed hidden row is not `d_model` wide.
    pub fn lm_head_batch(&self, batch: &mut BatchOutput) {
        self.lm_head_batch_pool(batch, rayon_lite::global());
    }

    /// [`Model::lm_head_batch`] on an explicit pool.
    pub fn lm_head_batch_pool(&self, batch: &mut BatchOutput, pool: &ThreadPool) {
        if !batch.is_empty() {
            assert_eq!(
                batch.hidden.cols(),
                self.config.d_model,
                "hidden width must be d_model"
            );
        }
        self.lm_head(&batch.hidden, &mut batch.logits, pool);
    }

    /// Tied LM head, `logits = hidden · embedᵀ` times the logit scale
    /// (kept in FP, like the paper's non-GeMM operators), through
    /// [`Matrix::matmul_packed_into_on`] over the packed embedding, the
    /// product every projection runs — sharded across `pool` only
    /// when the product is large enough to repay a dispatch, like every
    /// projection: the one LM head of [`Model::forward`], the solo entry
    /// points and the batched one.
    fn lm_head(&self, hidden: &Matrix, logits: &mut Matrix, pool: &ThreadPool) {
        logits.resize(hidden.rows(), self.config.vocab);
        if hidden.rows() == 0 {
            return;
        }
        hidden.matmul_packed_into_on(&self.embed, logits, pool);
        if self.logit_scale != 1.0 {
            logits.scale(self.logit_scale);
        }
    }
}

/// Reusable state for [`Model::forward_with_scratch`]: the private cache
/// the span is appended to ([`KvCache::new`], built on first use and
/// reset — pages recycled — per pass), the step's row block, and the
/// `T × vocab` logits.
///
/// Holding one scratch across calls (perplexity windows, calibration
/// sweeps, codec comparisons) removes every allocation from the forward
/// pass once the longest sequence has been seen.
#[derive(Debug, Default)]
pub struct ForwardScratch {
    cache: Option<KvCache>,
    step: DecodeScratch,
    /// Output logits (`t × vocab`), the pass's return value.
    logits: Matrix,
}

impl ForwardScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which rows of its spans a step's last layer finishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Finish {
    /// Each entry's final row: all a served step reads.
    LastRows,
    /// Every row: [`Model::forward`], whose caller reads all `T` logit
    /// rows.
    AllRows,
}

/// One stream's reusable decode state: the hidden state and logits its
/// last step left, sampling staging, and — for the solo entry points —
/// the step buffers and page-walk tile ([`PageDecodeCache`]). One
/// instance serves a whole generation loop (or one serving-layer
/// stream), so per-token work allocates nothing at steady state (pair
/// with [`DecodeScratch::reserve`] and
/// [`crate::kv::PagePool::preallocate`] for a hard zero).
#[derive(Clone, Debug, Default)]
pub struct DecodeScratch {
    /// The final-normed hidden state of the last decoded position
    /// (`1 × d`; [`DecodeScratch::hidden_state`]).
    x: Matrix,
    /// Next-token logits (`1 × vocab`).
    logits: Matrix,
    /// Sampling staging: probabilities (`vocab`).
    probs: Vec<f32>,
    /// The solo decode path's step buffers and page-walk tile.
    pages: PageDecodeCache,
}

impl DecodeScratch {
    /// Empty scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves every decode buffer for `config`-shaped models at
    /// contexts up to `max_len` positions, so no later solo decode step
    /// ever grows a buffer. With the cache's pool preallocated and its
    /// page tables reserved, decoding is then allocation-free per token
    /// (the `kv_alloc` counting-allocator suite enforces this).
    pub fn reserve(&mut self, config: &ModelConfig, max_len: usize) {
        self.x.reserve(1, config.d_model);
        self.logits.reserve(1, config.vocab);
        self.probs.reserve(config.vocab);
        self.pages.reserve(config, 1, max_len);
    }

    /// The next-token logits left by the last [`Model::decode_step`] /
    /// [`Model::prefill`] (empty before the first step).
    pub fn logits(&self) -> &[f32] {
        self.logits.as_slice()
    }

    /// The final-normed hidden state left by the last decode pass
    /// (`d_model` wide), the row [`BatchOutput::push_hidden`] gathers.
    pub fn hidden_state(&self) -> &[f32] {
        self.x.as_slice()
    }

    /// Samples from the scratch's own logits (the last decoded position).
    /// Greedy argmax when `temperature <= 0` (no RNG draw).
    pub fn sample_last(&mut self, temperature: f32, rng: &mut Rng) -> usize {
        let DecodeScratch { logits, probs, .. } = self;
        sample_logits(logits.as_slice(), temperature, rng, probs)
    }

    /// Samples from caller-provided logits (a [`BatchOutput`] row), with
    /// the same staging reuse as [`DecodeScratch::sample_last`].
    pub fn sample(&mut self, logits: &[f32], temperature: f32, rng: &mut Rng) -> usize {
        sample_logits(logits, temperature, rng, &mut self.probs)
    }
}

/// The step-wide row block of [`Model::decode_hidden_batch`]: every
/// token of every entry is one row of each buffer, entry after entry in
/// batch order. It travels inside [`PageDecodeCache`], the scratch that
/// already accompanies every step.
#[derive(Clone, Debug, Default)]
pub(crate) struct StepRows {
    /// Row of each entry's first token, then the row count: the
    /// cumulative-offsets vector of the grouped layout (re-pointed at the
    /// gathered final rows by a served step's epilogue).
    offsets: Vec<usize>,
    /// Sequence position of every row.
    positions: Vec<usize>,
    /// Residual stream (`rows × d`); after a step, its finished,
    /// final-normed rows.
    x: Matrix,
    /// Normed, codec-rounded GEMM input (`rows × d`).
    h: Matrix,
    /// Fused QKV projection (`rows × 3d`): a row's query, then its
    /// (post-RoPE) key and value as appended to the cache.
    qkv: Matrix,
    /// Attention head mix (`rows × d`).
    attn: Matrix,
    /// Output/down projection (`rows × d`).
    proj: Matrix,
    /// SwiGLU gate (`rows × ffn`).
    gate: Matrix,
    /// FFN hidden activations (`rows × ffn`).
    hidden: Matrix,
    /// Projection GEMMs dispatched (monotonic).
    pub(crate) gemms: u64,
}

impl StepRows {
    /// Sizes every buffer for steps of up to `rows` rows.
    pub(crate) fn reserve(&mut self, config: &ModelConfig, rows: usize) {
        let (d, ffn) = (config.d_model, config.d_ffn);
        self.offsets.reserve(rows + 1);
        self.positions.reserve(rows);
        for (m, cols) in [
            (&mut self.x, d),
            (&mut self.h, d),
            (&mut self.qkv, 3 * d),
            (&mut self.attn, d),
            (&mut self.proj, d),
            (&mut self.gate, ffn),
            (&mut self.hidden, ffn),
        ] {
            m.reserve(rows, cols);
        }
    }
}

/// `out = a · w` across `pool`, counted: the one place a step dispatches
/// a projection GEMM.
fn project(a: &Matrix, w: &PackedMatrix, out: &mut Matrix, pool: &ThreadPool, gemms: &mut u64) {
    out.resize(a.rows(), w.cols());
    a.matmul_packed_into_on(w, out, pool);
    *gemms += 1;
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
    /// Gathered hidden rows (`B × d`; the width is set by the first push
    /// after a clear).
    hidden: Matrix,
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
        self.hidden.rows()
    }

    /// `true` when no rows are gathered.
    pub fn is_empty(&self) -> bool {
        self.hidden.rows() == 0
    }

    /// Empties the batch, keeping allocations for the next iteration.
    pub fn clear(&mut self) {
        self.hidden.resize(0, 0);
    }

    /// Appends one stream's hidden state ([`DecodeScratch::hidden_state`]).
    ///
    /// # Panics
    ///
    /// Panics if `h` is empty or its width differs from earlier rows.
    pub fn push_hidden(&mut self, h: &[f32]) {
        assert!(!h.is_empty(), "hidden row must not be empty");
        let rows = self.hidden.rows();
        if rows > 0 {
            assert_eq!(
                h.len(),
                self.hidden.cols(),
                "hidden rows must share one width"
            );
        }
        self.hidden.resize(rows + 1, h.len());
        self.hidden.row_mut(rows).copy_from_slice(h);
    }

    /// Row `i` of the batch logits computed by [`Model::lm_head_batch`].
    pub fn logits_row(&self, i: usize) -> &[f32] {
        self.logits.row(i)
    }
}

/// Pairs of a head whose rotary angles [`rope_in_place`] takes at a time.
const ROPE_PAIRS: usize = 32;

/// Applies rotary position embedding at position `pos` to every head of
/// `heads` (each `dh` wide), taking each pair's `(sin, cos)` once for
/// all of them.
fn rope_in_place(heads: &mut [f32], dh: usize, pos: usize) {
    let half = dh / 2;
    let mut angles = [(0f32, 0f32); ROPE_PAIRS];
    for first in (0..half).step_by(ROPE_PAIRS) {
        let pairs = first..half.min(first + ROPE_PAIRS);
        for (angle, i) in angles.iter_mut().zip(pairs.clone()) {
            let theta = pos as f32 / 10000f32.powf(2.0 * i as f32 / dh as f32);
            *angle = theta.sin_cos();
        }
        for head in heads.chunks_exact_mut(dh) {
            let pairs = head[2 * pairs.start..2 * pairs.end].chunks_exact_mut(2);
            for (pair, &(sin, cos)) in pairs.zip(&angles) {
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a * cos - b * sin;
                pair[1] = a * sin + b * cos;
            }
        }
    }
}

/// Samples a token from `logits / temperature`, staging the
/// probabilities in a caller-provided buffer (cleared and refilled).
fn sample_logits(logits: &[f32], temperature: f32, rng: &mut Rng, probs: &mut Vec<f32>) -> usize {
    if temperature <= 0.0 {
        return ops::argmax(logits);
    }
    probs.clear();
    probs.extend(logits.iter().map(|&l| l / temperature));
    let vocab = probs.len();
    ops::softmax_rows_in_place_with_leg(active_leg(), probs, vocab, |_| vocab);
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn causal_masking_prefix_invariance() {
        // Logits at position i must not depend on later tokens — not in
        // one bit: a row's lane attends only its causal window.
        let spec = tiny_spec();
        let model = spec.build();
        let codecs = CodecAssignment::fp16();
        let a = model.forward(&[7, 8, 9, 10], &codecs);
        let b = model.forward(&[7, 8, 9, 450], &codecs);
        for row in 0..3 {
            assert_eq!(bits(a.row(row)), bits(b.row(row)), "row {row}");
        }
        assert_ne!(bits(a.row(3)), bits(b.row(3)));
    }

    #[test]
    fn forward_row_equals_the_last_row_of_the_prefix_forward() {
        // Grouped codecs quantize per row, so under any assignment row
        // `i` of a forward is the forward of `tokens[..=i]`'s last row.
        let llama = zoo::sim_models()
            .into_iter()
            .find(|s| s.sim.family == Family::Llama)
            .unwrap();
        let tokens: Vec<usize> = (0..21).map(|i| (i * 53 + 11) % 512).collect();
        for spec in [tiny_spec(), llama] {
            let model = spec.build().quantize_weights(WeightQuantConfig::w4_g128());
            for codecs in [
                CodecAssignment::fp16(),
                CodecAssignment::from_combo(crate::PrecisionCombo([8, 6, 7, 5])),
            ] {
                let full = model.forward(&tokens, &codecs);
                let mut scratch = ForwardScratch::new();
                for i in [0, 1, 15, 16, 19] {
                    let prefix = model.forward_with_scratch(&tokens[..=i], &codecs, &mut scratch);
                    assert_eq!(
                        bits(prefix.row(i)),
                        bits(full.row(i)),
                        "{} row {i} under {codecs:?}",
                        spec.sim.name
                    );
                }
            }
        }
    }

    /// Every row's final-normed hidden state of `tokens` run as
    /// consecutive spans of `chunk` tokens, all rows finished, on a cache
    /// of `storage` pages.
    fn all_rows_hidden(
        model: &Model,
        tokens: &[usize],
        chunk: usize,
        codecs: &CodecAssignment,
        storage: crate::kv::KvStorage,
    ) -> Vec<u32> {
        let pool = crate::kv::PagePool::new(crate::kv::KvPoolConfig::unbounded(storage));
        let mut cache = pool.new_cache(model.layers.len());
        let (mut scratch, mut step) = (DecodeScratch::new(), PageDecodeCache::new());
        let mut hidden = Vec::new();
        for span in tokens.chunks(chunk) {
            let entry = BatchEntry {
                tokens: span,
                pos: cache.len(),
                cache: &mut cache,
                scratch: &mut scratch,
            };
            model.step_rows(
                &mut [entry],
                &mut step,
                rayon_lite::serial(),
                codecs,
                Finish::AllRows,
            );
            assert_eq!(step.rows.x.rows(), span.len());
            hidden.extend(bits(step.rows.x.as_slice()));
            // The entry's scratch still receives the span's last row.
            let d = model.config.d_model;
            assert_eq!(bits(scratch.hidden_state()), hidden[hidden.len() - d..]);
        }
        hidden
    }

    #[test]
    fn split_spans_leave_the_rows_of_one_span_under_any_assignment() {
        use crate::kv::KvStorage;
        let model = tiny_spec().build();
        let tokens: Vec<usize> = (0..70).map(|i| (i * 29 + 7) % 512).collect();
        for codecs in [
            CodecAssignment::fp16(),
            CodecAssignment::uniform(anda_quant::ActivationCodec::anda(8)),
            CodecAssignment::from_combo(crate::PrecisionCombo([8, 6, 7, 5])),
        ] {
            for storage in [KvStorage::Fp16, KvStorage::Anda { mantissa_bits: 8 }] {
                let one = all_rows_hidden(&model, &tokens, tokens.len(), &codecs, storage);
                for chunk in [1, 3, 64] {
                    let split = all_rows_hidden(&model, &tokens, chunk, &codecs, storage);
                    assert!(
                        split == one,
                        "chunk {chunk} under {codecs:?} on {storage:?}"
                    );
                }
            }
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

    /// The LM head's oracle: one scalar `.zip().map().sum()` dot per
    /// logit.
    fn dot_logit(model: &Model, tok: usize, x: &[f32]) -> f32 {
        let dot: f32 = model.embed.col(tok).zip(x).map(|(&e, &xv)| e * xv).sum();
        dot * model.logit_scale
    }

    /// [`tiny_spec`]'s model at another vocabulary size.
    fn tiny_model_with_vocab(vocab: usize) -> Model {
        let mut spec = tiny_spec();
        spec.sim.vocab = vocab;
        spec.build()
    }

    #[test]
    fn the_model_holds_its_embedding_once() {
        // Every field named, so a field added to hold a second copy of the
        // embedding fails to compile here; the one copy is the packed
        // table, its last strip zero-padded.
        for vocab in [512, 500] {
            let model = tiny_model_with_vocab(vocab);
            let Model {
                config,
                mode: _,
                embed,
                pos_embed: _,
                layers: _,
                final_gain: _,
                final_bias: _,
                logit_scale: _,
            } = &model;
            let d = config.d_model;
            assert_eq!(embed.shape(), (d, vocab));
            assert_eq!(embed.stored_len(), vocab.next_multiple_of(16) * d);
        }
    }

    #[test]
    fn lm_head_gemm_matches_the_per_element_dot_on_the_tied_embed() {
        // A vocabulary of whole strips, and one whose last strip holds
        // four tokens and twelve zero-padded columns.
        for vocab in [512, 500] {
            let mut model = tiny_model_with_vocab(vocab);
            model.logit_scale = 0.85;
            let d = model.config.d_model;
            let mut rng = Rng::new(11);
            // One to three rows run the tile at their own height and, like
            // everything under 8 rows of this 128 × 512 head, stay below
            // the pool threshold; 8 rows (a decode batch) reach it and
            // shard by rows on two threads and by column strips on three
            // and four; 128 (a `forward` window) shard by rows on every
            // pool.
            for rows in [1usize, 2, 3, 4, 7, 8, 9, 128] {
                let mut batch = BatchOutput::new();
                let mut row = vec![0.0f32; d];
                for _ in 0..rows {
                    rng.fill_normal(&mut row, 1.5);
                    batch.push_hidden(&row);
                }
                for threads in [1usize, 2, 3, 4] {
                    model.lm_head_batch_pool(&mut batch, &ThreadPool::new(threads));
                    for i in 0..rows {
                        for tok in 0..vocab {
                            let want = dot_logit(&model, tok, batch.hidden.row(i));
                            let got = batch.logits_row(i)[tok];
                            let at = format!("vocab {vocab} row {i} tok {tok} @ {threads}t");
                            assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                        }
                    }
                }
            }

            // The one corner where the two differ, in the sign of a zero:
            // `f32`'s `Sum` folds from -0.0, the kernel's accumulators from
            // +0.0, so a logit whose every product is -0.0 was -0.0 and is
            // now +0.0. One other product of any value makes both sums
            // that value, and no consumer (argmax, softmax) tells the zeros
            // apart.
            let tok = 3;
            let against: Vec<f32> = model.embed.col(tok).map(|e| -0.0 * e.signum()).collect();
            assert_eq!(
                dot_logit(&model, tok, &against).to_bits(),
                (-0.0f32).to_bits()
            );
            let mut batch = BatchOutput::new();
            batch.push_hidden(&against);
            model.lm_head_batch(&mut batch);
            assert_eq!(batch.logits_row(0)[tok].to_bits(), 0.0f32.to_bits());
        }
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
