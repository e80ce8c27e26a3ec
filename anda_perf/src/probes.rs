//! The layer ladder: the harness calls each library layer's public
//! functions directly, on state it owns, at the shapes of the workload
//! being traced (its batch width, median context and page policy).
//!
//! Each probe is a closure that runs one call and returns the seconds
//! its measured region took; set-up and resets inside the closure stay
//! outside that region. The ladder repeats a probe for its time slice,
//! records the slice as one span under `bench.ladder`, and reports the
//! median call. This is the one place besides `api.rs` and `search.rs` that
//! names library items — kernels here, the serving front door there.

use std::hint::black_box;
use std::time::{Duration, Instant};

use anda_format::{dot, rowcodec, AndaConfig};
use anda_llm::kv::{KvPoolConfig, KvReadScratch, PagePool};
use anda_llm::{
    opcount, BatchEntry, BatchOutput, CodecAssignment, DecodeScratch, ForwardScratch, KvCache,
    Model, PageDecodeCache, PrecisionCombo,
};
use anda_quant::{gemm_anda_into_pool, ActivationCodec};
use anda_serve::RadixTree;
use anda_tensor::Matrix;
use rayon_lite::ThreadPool;

use crate::api;
use crate::trace::Tracer;
use crate::workloads::{Rng, Workload, PAGE_POSITIONS, VOCAB};

/// Mantissa length the format/quant probes run at (the KV policy's).
const M: u32 = 8;

/// Tokens of one prefill chunk and of one forward pass.
const CHUNK: usize = 64;
const FORWARD_T: usize = 128;

/// Fewest timed calls per probe, whatever the slice.
const MIN_CALLS: usize = 5;

/// One probe's result: the median over `calls` calls, in the probe's
/// own unit.
#[derive(Clone, Copy, Debug)]
pub struct Probed {
    pub name: &'static str,
    pub value: f64,
    pub calls: usize,
}

/// Runs `f` and returns the seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

struct Ladder<'t> {
    tracer: &'t mut Tracer,
    slice: Duration,
    results: Vec<Probed>,
}

impl Ladder<'_> {
    /// Repeats `call` (after one warm-up call) for the slice, as one span.
    /// Returns the median seconds of a call and how many were timed.
    fn time(&mut self, name: &'static str, mut call: impl FnMut() -> f64) -> (f64, usize) {
        call();
        let mut seconds = Vec::new();
        let span = self.tracer.begin(name, None);
        let started = Instant::now();
        while seconds.len() < MIN_CALLS || started.elapsed() < self.slice {
            seconds.push(call());
        }
        self.tracer.end(span);
        (crate::stats::median(&mut seconds), seconds.len())
    }

    /// Records `scale × median seconds` of `call` under `name` (a latency)
    /// and returns the median seconds.
    fn probe(&mut self, name: &'static str, scale: f64, call: impl FnMut() -> f64) -> f64 {
        let (median, calls) = self.time(name, call);
        self.record(name, scale * median, calls);
        median
    }

    /// Records `work / median seconds / 1e9` of `call` under `name` (a
    /// rate in giga-units per second).
    fn probe_rate(&mut self, name: &'static str, work: f64, call: impl FnMut() -> f64) {
        let (median, calls) = self.time(name, call);
        self.record(name, work / median / 1e9, calls);
    }

    /// Records a derived or counted value.
    fn record(&mut self, name: &'static str, value: f64, calls: usize) {
        self.results.push(Probed { name, value, calls });
    }
}

fn floats(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect()
}

fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, floats(rng, rows * cols))
}

/// A cache on `pool` holding `positions` synthetic rows in every layer
/// (timing does not depend on the row values).
fn filled_cache(
    pool: &PagePool,
    n_layers: usize,
    positions: usize,
    d: usize,
    rng: &mut Rng,
) -> KvCache {
    let mut cache = pool.new_cache(n_layers);
    let (k, v) = (floats(rng, d), floats(rng, d));
    for layer in 0..n_layers {
        for _ in 0..positions {
            cache.append_row(layer, &k, &v);
        }
    }
    cache
}

/// Runs the whole ladder for workload `w` within about `budget_s`
/// seconds, at `batch` streams per step (the traced pass's typical
/// decode batch); results are named as in `report::SERVING_PER_LAYER`.
pub fn run_ladder(
    model: &Model,
    pool: &ThreadPool,
    w: &Workload,
    batch: usize,
    budget_s: f64,
    tracer: &mut Tracer,
) -> Vec<Probed> {
    const PROBES: f64 = 21.0;
    let root = tracer.begin("bench.ladder", None);
    let mut ladder = Ladder {
        tracer,
        slice: Duration::from_secs_f64(budget_s / PROBES),
        results: Vec::new(),
    };
    let cfg = model.config();
    let (d, n_layers, n_heads) = (cfg.d_model, cfg.n_layers, cfg.n_heads);
    let ctx = w.ladder_context;
    let mut rng = Rng::new(0x1adde7);
    let page_pool = PagePool::new(KvPoolConfig {
        storage: api::storage(w.pages),
        page_positions: PAGE_POSITIONS,
        max_pages: None,
    });

    // llm.model — one grouped decode step of `batch` streams at `ctx`.
    let hidden_s = {
        let mut caches: Vec<KvCache> = (0..batch)
            .map(|_| filled_cache(&page_pool, n_layers, ctx, d, &mut rng))
            .collect();
        let mut scratches: Vec<DecodeScratch> = (0..batch).map(|_| DecodeScratch::new()).collect();
        let mut decode_cache = PageDecodeCache::new();
        let tokens: Vec<usize> = rng.tokens(batch);
        ladder.probe("llm.decode_hidden_batch_ms", 1e3, || {
            // The context grows by one per call; rebuild before it drifts.
            if caches[0].len() >= ctx + 32 {
                caches = (0..batch)
                    .map(|_| filled_cache(&page_pool, n_layers, ctx, d, &mut rng))
                    .collect();
            }
            let mut entries: Vec<BatchEntry<'_>> = caches
                .iter_mut()
                .zip(scratches.iter_mut())
                .zip(&tokens)
                .map(|((cache, scratch), token)| BatchEntry {
                    tokens: std::slice::from_ref(token),
                    pos: cache.len(),
                    cache,
                    scratch,
                })
                .collect();
            timed(|| model.decode_hidden_batch(&mut entries, &mut decode_cache, pool))
        })
    };

    // One span-64 prefill chunk, walking a prompt from empty up to `ctx`.
    {
        let mut cache = page_pool.new_cache(n_layers);
        let mut scratch = DecodeScratch::new();
        let mut decode_cache = PageDecodeCache::new();
        let tokens = rng.tokens(CHUNK);
        ladder.probe("llm.prefill_chunk_ms", 1e3, || {
            if cache.len() + CHUNK > ctx.max(CHUNK) {
                cache.reset();
            }
            let mut entries = [BatchEntry {
                tokens: &tokens,
                pos: cache.len(),
                cache: &mut cache,
                scratch: &mut scratch,
            }];
            timed(|| model.decode_hidden_batch(&mut entries, &mut decode_cache, pool))
        });
    }

    // Batched LM head over `batch` hidden rows, then one sample each.
    let mut out = BatchOutput::new();
    let hidden_row = floats(&mut rng, d);
    let lm_head_s = ladder.probe("llm.lm_head_batch_ms", 1e3, || {
        out.clear();
        for _ in 0..batch {
            out.push_hidden(&hidden_row);
        }
        timed(|| model.lm_head_batch_pool(&mut out, pool))
    });
    {
        const REPS: usize = 64;
        let mut scratch = DecodeScratch::new();
        let mut sample_rng = anda_tensor::Rng::new(7);
        ladder.probe("llm.sample_us", 1e6 / REPS as f64, || {
            timed(|| {
                for _ in 0..REPS {
                    black_box(scratch.sample(out.logits_row(0), w.temperature, &mut sample_rng));
                }
            })
        });
    }

    // Batch forward (the search's mode): T=128 under Anda M=8 codecs.
    {
        let tokens = rng.tokens(FORWARD_T);
        let codecs = CodecAssignment::from_combo(PrecisionCombo::uniform(M));
        let mut scratch = ForwardScratch::new();
        ladder.probe("llm.forward_ms", 1e3, || {
            timed(|| {
                black_box(model.forward_with_scratch(&tokens, &codecs, &mut scratch));
            })
        });
    }

    // Predicted cost of one decoded token at `ctx` against what the
    // hidden-state step plus LM head achieved.
    let predicted_macs = opcount::decode_ops(cfg, ctx as u64, 1).total() / 2;
    ladder.record("llm.predicted_macs_per_token", predicted_macs as f64, 1);
    ladder.record(
        "llm.achieved_gmacs",
        predicted_macs as f64 * batch as f64 / (hidden_s + lm_head_s) / 1e9,
        1,
    );

    // llm.kv — one layer's store under the workload's page policy.
    {
        let (k, v) = (floats(&mut rng, d), floats(&mut rng, d));
        let mut cache = page_pool.new_cache(n_layers);
        ladder.probe("llm.kv.append_row_ns", 1e9 / ctx as f64, || {
            cache.reset();
            timed(|| {
                for _ in 0..ctx {
                    cache.append_row(0, &k, &v);
                }
            })
        });
        let layer = cache.layer(0);
        let q = floats(&mut rng, d);
        let mut attended = vec![0.0f32; d];
        let mut scratch = KvReadScratch::new();
        ladder.probe("llm.kv.attend_us", 1e6, || {
            timed(|| layer.attend_into(&q, n_heads, &mut attended, &mut scratch))
        });
        let mut row = vec![0.0f32; d];
        ladder.probe("llm.kv.row_read_ns", 1e9 / ctx as f64, || {
            timed(|| {
                for pos in 0..ctx {
                    layer.key_into(pos, &mut row);
                }
            })
        });
    }
    let mut donor = filled_cache(&page_pool, n_layers, ctx, d, &mut rng);
    ladder.probe("llm.kv.fork_prefix_us", 1e6, || {
        timed(|| drop(donor.fork_prefix(ctx)))
    });
    ladder.record(
        "llm.kv.bits_per_element",
        api::bits_per_element(w.pages, d),
        1,
    );

    // serve — a harness-owned radix tree over prompts of the
    // prefill_shared shape: 256 shared tokens, then a unique suffix.
    {
        const PROMPT: usize = 352;
        let prefix = rng.tokens(256);
        let prompt = |rng: &mut Rng| {
            let mut t = prefix.clone();
            t.extend(rng.tokens(PROMPT - prefix.len()));
            t
        };
        let mut source = filled_cache(&page_pool, n_layers, PROMPT, d, &mut rng);
        let mut tree = RadixTree::new(PAGE_POSITIONS, n_layers);
        let cached = prompt(&mut rng);
        tree.insert(&cached, &mut source);
        let mut inserted = 1;
        ladder.probe("serve.radix.insert_us", 1e6, || {
            if inserted >= 64 {
                tree.evict_all();
                tree.insert(&cached, &mut source);
                inserted = 1;
            }
            inserted += 1;
            let fresh = prompt(&mut rng);
            timed(|| tree.insert(&fresh, &mut source))
        });
        ladder.probe("serve.radix.lookup_us", 1e6, || {
            timed(|| tree.lookup(&cached, PROMPT - 1))
        });
    }

    // format — the row codec at d, M=8.
    {
        const ROWS: usize = 256;
        let anda = AndaConfig::hardware(M).expect("M is in 1..=16");
        let row = floats(&mut rng, d);
        let groups = rowcodec::groups_per_row(d, anda);
        let mut signs = vec![0u64; groups];
        let mut exps = vec![0u16; groups];
        let mut planes = vec![0u64; rowcodec::plane_words_per_row(d, anda)];
        ladder.probe("format.encode_row_ns", 1e9 / ROWS as f64, || {
            timed(|| {
                for _ in 0..ROWS {
                    rowcodec::encode_row_into(
                        black_box(&row),
                        anda,
                        &mut signs,
                        &mut exps,
                        &mut planes,
                    );
                }
            })
        });
        let mut decoded = vec![0.0f32; d];
        ladder.probe("format.decode_row_ns", 1e9 / ROWS as f64, || {
            timed(|| {
                for _ in 0..ROWS {
                    rowcodec::decode_row_into(
                        anda,
                        black_box(&signs),
                        &exps,
                        &planes,
                        &mut decoded,
                    );
                }
            })
        });
        const DOTS: usize = 1024;
        let weights: Vec<i8> = (0..64).map(|i| (i % 15) as i8 - 7).collect();
        ladder.probe("format.dot_group_ns", 1e9 / DOTS as f64, || {
            timed(|| {
                for _ in 0..DOTS {
                    black_box(dot::dot_group_int_flat(
                        black_box(signs[0]),
                        &planes[..M as usize],
                        &weights,
                    ));
                }
            })
        });
    }

    // quant — the fake-quant activation codec and the FP-INT Anda GeMM.
    {
        let x = matrix(&mut rng, FORWARD_T, d);
        let mut quantized = Matrix::zeros(FORWARD_T, d);
        let codec = ActivationCodec::anda(M);
        ladder.probe(
            "quant.codec_apply_ns_per_elem",
            1e9 / (FORWARD_T * d) as f64,
            || timed(|| codec.apply_matrix_into(&x, &mut quantized)),
        );
        let wdown = &model.layers()[0]
            .quantized
            .as_ref()
            .expect("bench-m is weight-quantized")
            .wdown;
        let x = matrix(&mut rng, CHUNK, wdown.k());
        let mut y = Matrix::zeros(CHUNK, wdown.n());
        let macs = (CHUNK * wdown.k() * wdown.n()) as f64;
        ladder.probe_rate("quant.gemm_anda_gmacs", macs, || {
            timed(|| gemm_anda_into_pool(&x, wdown, M, &mut y, pool))
        });
    }

    // tensor — the three GEMM shapes the workloads spend their time in.
    {
        let mut gflops = |name: &'static str, m: usize, k: usize, n: usize, transposed: bool| {
            let a = matrix(&mut rng, m, k);
            let b = if transposed {
                matrix(&mut rng, n, k)
            } else {
                matrix(&mut rng, k, n)
            };
            let mut c = Matrix::zeros(m, n);
            ladder.probe_rate(name, 2.0 * (m * k * n) as f64, || {
                timed(|| {
                    if transposed {
                        a.matmul_transposed_into_pool(&b, &mut c, pool)
                    } else {
                        a.matmul_into_pool(&b, &mut c, pool)
                    }
                })
            });
        };
        gflops("tensor.matmul_gflops_chunk", CHUNK, d, cfg.d_ffn, false);
        gflops("tensor.matmul_gflops_fwd", FORWARD_T, 128, 512, false);
        gflops("tensor.matmul_t_gflops_lmhead", 8, d, VOCAB, true);
    }

    // fp — the FP16 rounding FP16 pages apply on append.
    {
        const N: usize = 16 * 1024;
        let src = floats(&mut rng, N);
        let mut dst = vec![0.0f32; N];
        ladder.probe_rate("fp.f16_round_gelems", N as f64, || {
            timed(|| anda_fp::batch::saturate_f16_widen_slice(black_box(&src), &mut dst))
        });
    }

    // rayon-lite — dispatching eight empty jobs.
    {
        let mut items = [0u8; 8];
        ladder.probe("pool.dispatch_us", 1e6, || {
            timed(|| {
                pool.par_chunks_mut(&mut items, 1, |_, item| item[0] = item[0].wrapping_add(1))
            })
        });
    }

    let Ladder {
        tracer, results, ..
    } = ladder;
    tracer.end(root);
    results
}

/// Anda rows decoded by this process so far (the format layer's global
/// counter; take a delta around a pass).
pub fn rows_decoded() -> u64 {
    anda_format::metrics::rows_decoded()
}
