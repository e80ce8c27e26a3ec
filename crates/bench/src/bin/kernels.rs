//! The kernel scratchpad: per-leg, per-M, per-scenario wall times of the
//! kernels under a served step, one [`Table`] per section.
//!
//! The repo has two measuring surfaces. `anda_perf/` is the ledger:
//! tracked, gated, end to end, and the only source of a speed-up claim.
//! This binary is the scratchpad a kernel change is developed against —
//! one dispatch leg beside another, one mantissa length beside another,
//! one lane set beside another — which the ledger's single number per
//! probe cannot show. It prints; it writes and gates nothing. Parallel and
//! vector rows time kernels whose outputs are bit-identical to the serial
//! scalar ones (the cross-thread-count and every-leg suites enforce it),
//! so every table is pure wall time. The bit-serial rows (`group_dot`,
//! `fp_int_gemm`) cost a host far more than FP16 does: that schedule
//! models the APU and proves functional equivalence, and *hardware*
//! claims come from `anda-sim`.
//!
//! Usage: `kernels [--quick] [--threads A,B,…] [section…]` — no section
//! runs them all; `--threads` (default `2,4`) sizes the pools of `threads`.

use std::hint::black_box;
use std::num::NonZeroU8;
use std::process::ExitCode;
use std::time::Instant;

use anda_bench::Table;
use anda_format::align::align_group;
use anda_format::dot::{dot_f16_int_reference, dot_group_int_flat_with_leg, dot_group_reference};
use anda_format::rowcodec::{
    decode_row_into_with_leg, decode_rows_into_with_leg, decode_rows_transposed_into_with_leg,
    encode_row_into_scalar, groups_per_row, plane_words_per_row,
};
use anda_format::{AndaConfig, AndaTensor};
use anda_fp::{active_leg, available_legs, cpu_features, SimdLeg, F16};
use anda_llm::kv::{AttendLane, KvPoolConfig, KvStorage};
use anda_llm::zoo::opt_125m_sim;
use anda_llm::{
    BatchEntry, DecodeScratch, Family, KvCache, Model, ModelConfig, PageDecodeCache, PagePool,
    Phase,
};
use anda_quant::{
    gemm_anda, gemm_anda_into_pool, gemm_fake_quant, ActivationCodec, IntWeightMatrix,
    WeightQuantConfig,
};
use anda_tensor::{Matrix, PackedMatrix, Rng};
use rayon_lite::ThreadPool;

const USAGE: &str = "usage: kernels [--quick] [--threads A,B,...] [section...]";

/// `(name, what the table holds and in which unit, the section)`.
type Section = (&'static str, &'static str, fn(&Opts) -> Table);

const SECTIONS: [Section; 9] = [
    (
        "threads",
        "GEMM GFLOP/s, serial vs sharded over a rayon-lite pool (matmul_packed: rhs packed \
         once, as a model holds its weights and embedding)",
        threads,
    ),
    (
        "simd",
        "serial GEMM GFLOP/s, the dispatched leg vs the scalar leg",
        simd,
    ),
    (
        "m_sweep",
        "GFLOP/s of M per-row passes | one tiled GEMM over the weight packed as an FP16 \
         model's Layer holds it | that packed product over one L2-resident weight | over the \
         weight's W4 quantisation held as a W4 model's Layer holds it, INT4 codes (serial, 4 \
         rotating weight copies but in the third; wdown's lhs is ReLU-sparse)",
        m_sweep,
    ),
    (
        "decode_row",
        "ns to decode one 256-wide Anda row, and one 16 x 256 page to position-minor keys \
         (K) and to row-major values (V), per leg and mantissa length",
        decode_row,
    ),
    (
        "attend",
        "us per page walk at 256 wide x 4 heads, per lane set and leg (cold_: per layer of a \
         4-layer step whose pages come from the L3); avx512 reads Anda{8} pages in place, the \
         register tile widening their bit planes, the other legs decode them to a tile first",
        attend,
    ),
    (
        "step",
        "ns, calls and exact count per decode_hidden_batch step and phase: 8 FP16-page streams \
         from 112 positions, 4 Anda{8}-page streams from 528, and one stream's 64-token chunk on \
         Anda{8} pages at 352 (OPT, then LLaMA), d 256 x 4 layers x 4 heads, FFN 1024, vocab 512, \
         W4 weights held as INT4 codes, as served (1 thread, the dispatched leg; last, the bytes \
         the projections hold); on avx512 an Anda{8} page is read in place, so its widen is \
         timed in KProduct / VProduct and KTile / VTile keep only the page's set-up",
        step,
    ),
    (
        "group_dot",
        "ns per 64-lane group dot, the element-level reference vs the bit-plane dot per leg",
        group_dot,
    ),
    (
        "conversion",
        "us to convert 4096 values to and from Anda",
        conversion,
    ),
    (
        "fp_int_gemm",
        "us per 16x256x64 FP-INT GeMM (W4, groups of 128), and per 256x1024 W4 weight \
         quantisation (the set-up clip search, groups of 64)",
        fp_int_gemm,
    ),
];

/// The checked command line.
struct Opts {
    quick: bool,
    threads: Vec<usize>,
}

impl Opts {
    /// The one timer: seconds per call of `f`, the best of 2 samples of
    /// about 1 ms (`--quick`) or 8 of about 5 ms. A first call warms the
    /// caches up and sizes the batch of calls a sample times, so a 20 ns
    /// kernel and a 20 ms GEMM (a batch of one) read the same clock.
    fn time<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        let (samples, sample_s) = if self.quick { (2, 1e-3) } else { (8, 5e-3) };
        let warm_up = Instant::now();
        black_box(f());
        let batch = ((sample_s / warm_up.elapsed().as_secs_f64()) as usize).clamp(1, 1_000_000);
        (0..samples)
            .map(|_| {
                let sample = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                sample.elapsed().as_secs_f64() / batch as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Checks a command line (without the program name).
fn parse(args: &[String]) -> Result<(Opts, Vec<&'static Section>), String> {
    let (mut quick, mut threads, mut sections) = (false, vec![2, 4], Vec::new());
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => quick = true,
            "--threads" => {
                let counts = args.next().and_then(|list| {
                    let count = |t: &str| Some(usize::from(t.parse::<NonZeroU8>().ok()?.get()));
                    list.split(',').map(count).collect()
                });
                threads = counts.ok_or("--threads needs thread counts (1-255) like 2,4")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => sections.push(
                SECTIONS
                    .iter()
                    .find(|s| s.0 == name)
                    .ok_or(format!("unknown section {name}"))?,
            ),
        }
    }
    if sections.is_empty() {
        sections.extend(&SECTIONS);
    }
    Ok((Opts { quick, threads }, sections))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, sections) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(why) => {
            let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
            eprintln!("kernels: {why}\n{USAGE}\nsections: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    println!(
        "machine parallelism {}, SIMD dispatch: {} leg (detected: {})",
        std::thread::available_parallelism().map_or(1, usize::from),
        active_leg().name(),
        cpu_features()
    );
    for (name, about, run) in sections {
        println!("\n== {name}: {about}");
        run(&opts).print();
    }
    ExitCode::SUCCESS
}

fn normals(len: usize, seed: u64, std: f32) -> Vec<f32> {
    let mut values = vec![0.0; len];
    Rng::new(seed).fill_normal(&mut values, std);
    values
}

fn random(rows: usize, cols: usize, seed: u64, std: f32) -> Matrix {
    Matrix::from_vec(rows, cols, normals(rows * cols, seed, std))
}

/// Weights of the FP-INT GeMM sections: `k x n`, W4 in groups of 128.
fn int4_weights(k: usize, n: usize, seed: u64) -> IntWeightMatrix {
    IntWeightMatrix::quantize(&random(k, n, seed, 0.05), WeightQuantConfig::rtn(4, 128))
}

/// A table of `first` then one column per `rest`.
fn columns(first: &str, rest: impl IntoIterator<Item = String>) -> Table {
    Table::new([first.to_string()].into_iter().chain(rest))
}

fn gflops(m: usize, k: usize, n: usize, seconds: f64) -> f64 {
    2.0 * (m * k * n) as f64 / seconds / 1e9
}

/// The acceptance bar of the threading work is > 1.5x on `matmul_packed`
/// at 4 threads on 512x512x512 (with at least 4 physical cores, of
/// course).
fn threads(o: &Opts) -> Table {
    let mut header = vec!["kernel / shape".to_string(), "serial GF/s".to_string()];
    for t in &o.threads {
        header.extend([format!("{t}t GF/s"), format!("{t}t speedup")]);
    }
    let mut table = Table::new(header);
    let pools: Vec<ThreadPool> = o.threads.iter().map(|&t| ThreadPool::new(t)).collect();
    // A row: `run(pool)` always shards across `pool`, so on the pool of
    // one it is the serial kernel.
    let mut row = |kernel: &str, (m, k, n), run: &mut dyn FnMut(&ThreadPool)| {
        let serial = o.time(|| run(rayon_lite::serial()));
        let mut cells = vec![
            format!("{kernel} {m}x{k}x{n}"),
            format!("{:.2}", gflops(m, k, n, serial)),
        ];
        for pool in &pools {
            let sharded = o.time(|| run(pool));
            cells.push(format!("{:.2}", gflops(m, k, n, sharded)));
            cells.push(format!("{:.2}x", serial / sharded));
        }
        table.row(cells);
    };

    // The square hot-path shape, the acceptance shape, a wide activation
    // panel (prefill-like) and a tall skinny one.
    let shapes = [
        (256, 256, 256),
        (512, 512, 512),
        (128, 1024, 768),
        (1024, 256, 64),
    ];
    for (m, k, n) in shapes.into_iter().take(if o.quick { 2 } else { 4 }) {
        let a = random(m, k, 1, 1.0);
        let packed = PackedMatrix::pack_transposed(&random(n, k, 3, 1.0));
        let mut out = Matrix::zeros(m, n);
        row("matmul_packed", (m, k, n), &mut |pool| {
            a.matmul_packed_into_pool(&packed, &mut out, pool)
        });
    }

    // The integer Anda GeMM (bit-serial group dots) on a smaller shape: an
    // element costs orders of magnitude more than an FP mul-add.
    let scale = if o.quick { 1 } else { 2 };
    let (m, k, n) = (16 * scale, 256 * scale, 64 * scale);
    let (x, wq) = (random(m, k, 4, 1.0), int4_weights(k, n, 5));
    let mut out = Matrix::zeros(m, n);
    row("gemm_anda M8", (m, k, n), &mut |pool| {
        gemm_anda_into_pool(&x, &wq, 8, &mut out, pool)
    });
    table
}

fn simd(o: &Opts) -> Table {
    let leg = active_leg();
    let n = if o.quick { 256 } else { 512 };
    let a = random(n, n, 6, 1.0);
    let packed = PackedMatrix::pack_transposed(&random(n, n, 8, 1.0));
    let mut out = Matrix::zeros(n, n);
    let mut table = Table::new([
        format!("kernel {n}x{n}x{n}"),
        "scalar GF/s".to_string(),
        format!("{} GF/s", leg.name()),
        "speedup".to_string(),
    ]);
    let mut run = |leg| o.time(|| a.matmul_packed_into_serial_with_leg(&packed, &mut out, leg));
    let (scalar, vector) = (run(SimdLeg::SCALAR), run(leg));
    table.row([
        "matmul_packed".to_string(),
        format!("{:.2}", gflops(n, n, n, scalar)),
        format!("{:.2}", gflops(n, n, n, vector)),
        format!("{:.2}x", scalar / vector),
    ]);
    table
}

/// Row counts of a step: solo decode, small decode batches, a full
/// decode batch, a prefill chunk.
const SWEEP_M: [usize; 6] = [1, 2, 4, 8, 16, 64];

/// `(name, k, n, relu_sparse)` of the serving model's projections —
/// `wqkv`, `wup`, `wdown`; only `wdown` reads the post-ReLU block, the
/// other two read normed (dense) activations — and of its tied LM head,
/// whose `rhs` is the embedding, held packed as a projection's is.
const SWEEP_SHAPES: [(&str, usize, usize, bool); 4] = [
    ("wqkv", 256, 768, false),
    ("wup", 256, 1024, false),
    ("wdown", 1024, 256, true),
    ("lm_head", 256, 512, false),
];

/// The row-major baseline: one pass of the single-row axpy loop per row
/// of `lhs` — what the serving path ran per token before the step-wide
/// GEMM — so every row re-streams all of `rhs`.
fn per_row_gemv(lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    for i in 0..lhs.rows() {
        let out_row = out.row_mut(i);
        out_row.fill(0.0);
        for (kidx, &a) in lhs.row(i).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(rhs.row(kidx)) {
                *o += a * b;
            }
        }
    }
}

/// The step-wide GEMMs against one pass per row: for each serving
/// projection shape and the LM head, and each SIMD leg, `M` rows through
/// one tiled call versus `M` passes of the per-row axpy loop. The second
/// number is the walk a served step runs: the tile reading a
/// [`PackedMatrix`] in place. `M = 1` is the small-M guard (a solo decode
/// step); `M ≥ 8` is where cross-row weight reuse has to show. Four weight
/// copies rotate under the calls so that, as in a model, a weight has left
/// the L2 by the time it is used again: a single hot matrix ranks packing strategies the wrong
/// way round. The third number is the packed product over one weight
/// that stays in the L2: beside the second it says where the weight stream
/// from the L3, not the tile, bounds the product. The fourth is the packed
/// product over each copy's W4 quantisation held as INT4 codes, the tile
/// dequantizing them as it loads them — a W4 model's projections, an
/// eighth of the second's bytes (the LM head's embedding stays `f32` in a
/// model).
fn m_sweep(o: &Opts) -> Table {
    let mut table = columns("leg / k x n", SWEEP_M.map(|m| format!("M={m}")));
    for leg in available_legs() {
        for (name, k, n, sparse) in SWEEP_SHAPES {
            let copies: Vec<Matrix> = (0..4).map(|c| random(k, n, 11 + c, 0.05)).collect();
            let packed: Vec<PackedMatrix> = copies.iter().map(PackedMatrix::pack).collect();
            let w4 = WeightQuantConfig::w4_sim();
            let int4: Vec<PackedMatrix> = (copies.iter())
                .map(|w| IntWeightMatrix::quantize(w, w4).pack())
                .collect();
            let mut cells = vec![format!("{} {k}x{n} {name}", leg.name())];
            for m in SWEEP_M {
                // With `sparse` the negative half is zeroed — the sparsity
                // the `a == 0` skip of the per-row loop feeds on and a
                // register tile cannot use.
                let mut a = random(m, k, 12, 1.0);
                if sparse {
                    a.map_inplace(|v| v.max(0.0));
                }
                let mut out = Matrix::zeros(m, n);
                let calls = (64 / m).max(4);
                // `f(copy, out)` over the rotating copies.
                let mut time = |f: &dyn Fn(usize, &mut Matrix)| {
                    let rotation = o.time(|| {
                        for call in 0..calls {
                            f(call % copies.len(), &mut out);
                        }
                    });
                    gflops(m, k, n, rotation / calls as f64)
                };
                let rows = time(&|c, out| per_row_gemv(&a, &copies[c], out));
                let in_place =
                    time(&|c, out| a.matmul_packed_into_serial_with_leg(&packed[c], out, leg));
                let resident =
                    time(&|_, out| a.matmul_packed_into_serial_with_leg(&packed[0], out, leg));
                let w4 = time(&|c, out| a.matmul_packed_into_serial_with_leg(&int4[c], out, leg));
                cells.push(format!(
                    "{rows:.1} | {in_place:.1} | {resident:.1} | {w4:.1}"
                ));
            }
            table.row(cells);
        }
    }
    table
}

/// The KV read path's inner kernels: one 256-wide row (the serving
/// model's `d_model`), and one 16-position page of them decoded
/// position-minor as the walk's K tile and row-major as its V tile, at a
/// byte-lane (`M <= 8`) and a 16-bit-lane (`M > 8`) mantissa width on
/// each side.
fn decode_row(o: &Opts) -> Table {
    const MANTISSAS: [u32; 3] = [5, 8, 11];
    const DIM: usize = 256;
    const POSITIONS: usize = 16;
    let vals = normals(POSITIONS * DIM, 4, 2.0);
    let headings = MANTISSAS.map(|m| format!("M={m}"));
    let k_page = MANTISSAS.map(|m| format!("K page M={m}"));
    let v_page = MANTISSAS.map(|m| format!("V page M={m}"));
    let mut table = columns("leg", headings.into_iter().chain(k_page).chain(v_page));
    for leg in available_legs() {
        let (mut rows, mut pages) = (vec![leg.name().to_string()], Vec::new());
        let mut v_pages = Vec::new();
        for m in MANTISSAS {
            let cfg = AndaConfig::hardware(m).expect("a hardware mantissa length");
            let (g, pw) = (groups_per_row(DIM, cfg), plane_words_per_row(DIM, cfg));
            let mut signs = vec![0u64; POSITIONS * g];
            let mut exps = vec![0u16; signs.len()];
            let mut planes = vec![0u64; POSITIONS * pw];
            for (p, row) in vals.chunks(DIM).enumerate() {
                let (s, e) = (&mut signs[p * g..], &mut exps[p * g..]);
                encode_row_into_scalar(row, cfg, s, e, &mut planes[p * pw..]);
            }
            let mut out = vec![0.0f32; DIM];
            let s = o.time(|| {
                let out = black_box(&mut out);
                decode_row_into_with_leg(leg, cfg, black_box(&signs), &exps, &planes, out)
            });
            rows.push(format!("{:.1}", s * 1e9));
            let mut keys = vec![0.0f32; POSITIONS * DIM];
            let s = o.time(|| {
                let (signs, keys) = (black_box(&signs), black_box(&mut keys));
                decode_rows_transposed_into_with_leg(
                    leg,
                    cfg,
                    signs,
                    &exps,
                    &planes,
                    0..g,
                    DIM,
                    POSITIONS,
                    keys,
                    POSITIONS,
                    None,
                )
            });
            pages.push(format!("{:.0}", s * 1e9));
            let mut tile = vec![0.0f32; POSITIONS * DIM];
            let s = o.time(|| {
                let (signs, tile) = (black_box(&signs), black_box(&mut tile));
                decode_rows_into_with_leg(leg, cfg, signs, &exps, &planes, 0..g, DIM, tile, None)
            });
            v_pages.push(format!("{:.0}", s * 1e9));
        }
        table.row(rows.into_iter().chain(pages).chain(v_pages));
    }
    table
}

/// The attention page walk at the serving model's shape (256 wide, four
/// heads, 16-position pages), one row per lane set the benchmark's
/// workloads are made of: a solo decode lane deep in a context on float
/// and on Anda pages (`decode_longctx`), a batch of eight private streams
/// at `decode_steady`'s ladder context, a 64-token chunk span at position
/// 256 and four forks one token past a shared 256-position prefix
/// (`prefill_shared`). Each of those walks one layer, whose pages stay in
/// the L2 from one call to the next (a lane's 33 pages are about 0.3 MB).
/// The `cold_` rows walk `decode_longctx`'s step instead: four lanes at 528
/// positions in each of four layers, layer after layer as a served step
/// meets them, about 4.5 MiB of Anda{8} pages or 8.5 MiB of FP16 ones, so
/// a page comes from the L3 — the case the walk's page stream is for; they
/// print µs per layer.
fn attend(o: &Opts) -> Table {
    let (dim, n_heads) = (256, 4);
    let mut rng = Rng::new(13);
    let mut append = |cache: &mut KvCache, positions: usize| {
        let mut row = vec![0.0f32; 2 * dim];
        for layer in 0..cache.n_layers() {
            for _ in 0..positions {
                rng.fill_normal(&mut row, 1.0);
                cache.append_row(layer, &row[..dim], &row[dim..]);
            }
        }
    };
    let anda8 = KvStorage::Anda { mantissa_bits: 8 };
    let pool = |storage| PagePool::new(KvPoolConfig::unbounded(storage));
    // `(name, caches, one (cache, window) per lane)`, each cache's every
    // layer walked in turn.
    type Scene = (&'static str, Vec<KvCache>, Vec<(usize, usize)>);
    let mut scenes: Vec<Scene> = Vec::new();
    for (name, storage) in [
        ("decode_528_fp16", KvStorage::Fp16),
        ("decode_528_anda8", anda8),
    ] {
        let mut cache = pool(storage).new_cache(1);
        append(&mut cache, 528);
        scenes.push((name, vec![cache], vec![(0, 528)]));
    }
    let fp16 = pool(KvStorage::Fp16);
    let streams: Vec<KvCache> = (0..8)
        .map(|_| {
            let mut cache = fp16.new_cache(1);
            append(&mut cache, 112);
            cache
        })
        .collect();
    let solo_lanes = (0..8).map(|i| (i, 112)).collect();
    scenes.push(("decode_8x112_fp16", streams, solo_lanes));
    let mut chunked = pool(anda8).new_cache(1);
    append(&mut chunked, 320);
    let chunk = (257..=320).map(|t| (0, t)).collect();
    scenes.push(("chunk_64_at_256_anda8", vec![chunked], chunk));
    let mut donor = pool(anda8).new_cache(1);
    append(&mut donor, 256);
    let forks: Vec<KvCache> = (0..4)
        .map(|_| {
            let mut fork = donor.fork_prefix(256);
            append(&mut fork, 1);
            fork
        })
        .collect();
    let past_prefix = (0..4).map(|i| (i, 257)).collect();
    scenes.push(("forks_4_past_256_anda8", forks, past_prefix));
    for (name, storage) in [
        ("cold_4x528x4layers_fp16", KvStorage::Fp16),
        ("cold_4x528x4layers_anda8", anda8),
    ] {
        let pool = pool(storage);
        let caches = (0..4)
            .map(|_| {
                let mut cache = pool.new_cache(4);
                append(&mut cache, 528);
                cache
            })
            .collect();
        scenes.push((name, caches, (0..4).map(|i| (i, 528)).collect()));
    }

    let legs = available_legs();
    let mut table = columns("lanes", legs.iter().map(|leg| leg.name().to_string()));
    for (name, caches, views) in &scenes {
        let q = normals(dim, 14, 1.0);
        let mut outs = vec![vec![0.0f32; dim]; views.len()];
        let mut walk = PageDecodeCache::new();
        let mut cells = vec![name.to_string()];
        let layers = caches[0].n_layers();
        for &leg in &legs {
            let s = o.time(|| {
                for layer in 0..layers {
                    let mut lanes: Vec<AttendLane<'_>> = views
                        .iter()
                        .zip(outs.iter_mut())
                        .map(|(&(cache, t), out)| AttendLane {
                            layer: caches[cache].layer(layer),
                            t,
                            q: black_box(&q),
                            out,
                        })
                        .collect();
                    walk.attend_with_leg(&mut lanes, n_heads, rayon_lite::serial(), leg)
                }
            });
            cells.push(format!("{:.1}", s * 1e6 / layers as f64));
        }
        table.row(cells);
    }
    table
}

/// The serving model's shape, as `anda_perf` builds it: 256 wide, four
/// layers of four heads, FFN 1024, vocab 512.
const STEP_MODEL: (usize, usize, usize, usize, usize) = (256, 4, 4, 1024, 512);
/// The step model's position table, as `anda_perf` builds it. It is fixed,
/// not the longest scene's reach: the table is drawn first from the model's
/// seed, so its length picks every weight, and a scene added or dropped
/// must not change the others'.
const STEP_MAX_SEQ: usize = 1024;
/// `(name, model family, page storage, streams, context each is
/// prefilled to, tokens per stream and step, steps per round)`:
/// `decode_steady`'s batch at its ladder context, `decode_longctx`'s at
/// its (the workload with the largest attention share), and a
/// `prefill_shared` chunk at that workload's median context, all on the
/// OPT family the benchmark builds; then that chunk on the LLaMA family
/// (RMSNorm, RoPE in `Qkv`, the gated SiLU FFN in `Finish`), which no
/// benchmark workload runs.
type StepScene = (&'static str, Family, KvStorage, usize, usize, usize, usize);
const STEP_SCENES: [StepScene; 4] = [
    (
        "decode_8x112_fp16",
        Family::Opt,
        KvStorage::Fp16,
        8,
        112,
        1,
        8,
    ),
    (
        "decode_4x528_anda8",
        Family::Opt,
        KvStorage::Anda { mantissa_bits: 8 },
        4,
        528,
        1,
        8,
    ),
    (
        "chunk_64_at_352_anda8",
        Family::Opt,
        KvStorage::Anda { mantissa_bits: 8 },
        1,
        352,
        64,
        1,
    ),
    (
        "llama_chunk_64_at_352_anda8",
        Family::Llama,
        KvStorage::Anda { mantissa_bits: 8 },
        1,
        352,
        64,
        1,
    ),
];

/// The phase ledger of served steps, outside the scheduler, per scene of
/// [`STEP_SCENES`]: its streams are prefilled once, then each round forks
/// them there and times the round's `Model::decode_hidden_batch` steps
/// (eight decode steps at contexts 112–119 or 528–535; one 64-token chunk
/// at 352, once per family) on one thread and the dispatched leg. A row per
/// phase the step charges — `Qkv` and `Finish` are the projection GEMMs
/// with their per-row work,
/// the walk's tiles and products are attention — with its wall ns, calls
/// and exact count per step (`PageDecodeCache::phases().since(..)`), then
/// the step's own wall time, whose gap to the phases' sum is what no span
/// covers, and last the bytes the projections hold. The model is the
/// served one: W4-quantised (`w4_sim`), each projection held as INT4 codes
/// the tile dequantizes as it loads them. The LM head and sampling belong
/// to the scheduler and are not run.
fn step(o: &Opts) -> Table {
    let (d_model, n_layers, n_heads, d_ffn, vocab) = STEP_MODEL;
    let model = |family| {
        let config = ModelConfig {
            name: "step".into(),
            family,
            d_model,
            n_layers,
            n_heads,
            d_ffn,
            vocab,
            max_seq: STEP_MAX_SEQ,
        };
        let fp16 = Model::synthesize(config, &opt_125m_sim().profile, 4242);
        fp16.quantize_weights(WeightQuantConfig::w4_sim())
    };
    let pool = ThreadPool::new(1);
    let mut table = Table::new([
        "scene",
        "phase",
        "ns/step",
        "calls/step",
        "count/step",
        "share",
    ]);
    for (name, family, storage, streams, context, tokens, steps) in STEP_SCENES {
        let model = model(family);
        // Each scene draws its own tokens, whatever scenes precede it.
        let mut rng = Rng::new(15);
        let pages = PagePool::new(KvPoolConfig::unbounded(storage));
        let mut scratch: Vec<DecodeScratch> = (0..streams).map(|_| DecodeScratch::new()).collect();
        let mut walk = PageDecodeCache::new();
        let mut donors: Vec<KvCache> = (0..streams).map(|_| pages.new_cache(n_layers)).collect();
        for (cache, scratch) in donors.iter_mut().zip(&mut scratch) {
            let prompt: Vec<usize> = (0..context).map(|_| rng.below(vocab)).collect();
            let entry = BatchEntry {
                tokens: &prompt,
                pos: 0,
                cache,
                scratch,
            };
            model.decode_hidden_batch(&mut [entry], &mut walk, &pool);
        }
        let chunks: Vec<Vec<usize>> = (0..streams)
            .map(|_| (0..tokens).map(|_| rng.below(vocab)).collect())
            .collect();
        // One round: fork the donors, then `steps` steps; returns its wall
        // seconds.
        let mut round = |walk: &mut PageDecodeCache| {
            let mut caches: Vec<KvCache> = donors
                .iter_mut()
                .map(|donor| donor.fork_prefix(context))
                .collect();
            let start = Instant::now();
            for s in 0..steps {
                let mut batch: Vec<BatchEntry<'_>> = caches
                    .iter_mut()
                    .zip(&mut scratch)
                    .zip(&chunks)
                    .map(|((cache, scratch), chunk)| BatchEntry {
                        tokens: chunk,
                        pos: context + s * tokens,
                        cache,
                        scratch,
                    })
                    .collect();
                model.decode_hidden_batch(&mut batch, walk, &pool);
            }
            start.elapsed().as_secs_f64()
        };
        round(&mut walk);
        let before = walk.phases();
        let rounds = if o.quick { 2 } else { 32 };
        let wall: f64 = (0..rounds).map(|_| round(&mut walk)).sum();
        let spans = walk.phases().since(&before);
        let n = (rounds * steps) as f64;

        let per_step = |v: u64| v as f64 / n;
        for phase in Phase::ALL {
            let span = spans.span(phase);
            if span.calls == 0 {
                continue;
            }
            let ns = per_step(span.wall_ns);
            table.row([
                name.to_string(),
                format!("{phase:?}"),
                format!("{ns:.0}"),
                per_step(span.calls).to_string(),
                per_step(span.count).to_string(),
                format!("{:.1}%", 100.0 * ns / (wall / n * 1e9)),
            ]);
        }
        table.row([
            name.to_string(),
            "step".to_string(),
            format!("{:.0}", wall / n * 1e9),
            "-".into(),
            "-".into(),
            "100%".into(),
        ]);
        let weight_bytes: usize = (model.layers().iter())
            .flat_map(|l| {
                [&l.wqkv, &l.wo, &l.wup, &l.wdown]
                    .into_iter()
                    .chain(&l.wgate)
            })
            .map(PackedMatrix::resident_bytes)
            .sum();
        let dash = || "-".to_string();
        let bytes = weight_bytes.to_string();
        table.row([
            name.to_string(),
            "weight bytes".into(),
            dash(),
            dash(),
            bytes,
            dash(),
        ]);
    }
    table
}

/// One 64-lane group: the element-major `AlignedGroup` reference beside
/// the bit-plane dot `gemm_anda` runs, on every leg (`scalar` is the
/// APU's bit-serial schedule).
fn group_dot(o: &Opts) -> Table {
    let acts = normals(64, 1, 2.0);
    let f16s: Vec<F16> = acts.iter().map(|&v| F16::from_f32(v)).collect();
    let mut rng = Rng::new(1);
    let weights: Vec<i8> = (0..64).map(|_| rng.below(15) as i8 - 7).collect();
    let ns = |s: f64| format!("{:.1}", s * 1e9);
    let legs = available_legs();
    let names = legs.iter().map(|leg| leg.name().to_string());
    let mut table = columns("activations", ["reference".into()].into_iter().chain(names));
    let fp16 = o.time(|| dot_f16_int_reference(black_box(&f16s), black_box(&weights), 0.01));
    let dashes = legs.iter().map(|_| "-".to_string());
    table.row(["FP16".to_string(), ns(fp16)].into_iter().chain(dashes));
    for m in [4u32, 8, 13, 16] {
        let aligned = align_group(&f16s, m).expect("finite activations");
        let tensor = AndaTensor::from_f32(&acts, AndaConfig::hardware(m).expect("1..=16"));
        let g = tensor.groups().next().expect("one group");
        let reference = o.time(|| dot_group_reference(black_box(&aligned), black_box(&weights)));
        let flat = legs.iter().map(|&leg| {
            ns(o.time(|| {
                dot_group_int_flat_with_leg(leg, g.signs(), black_box(g.planes()), &weights)
            }))
        });
        table.row(
            [format!("Anda M={m}"), ns(reference)]
                .into_iter()
                .chain(flat),
        );
    }
    table
}

fn conversion(o: &Opts) -> Table {
    let vals = normals(4096, 2, 2.0);
    let mut table = Table::new(["M", "quantize", "dequantize"]);
    for m in [4u32, 8, 16] {
        let cfg = AndaConfig::hardware(m).expect("a hardware mantissa length");
        let tensor = AndaTensor::from_f32(&vals, cfg);
        let quantize = o.time(|| AndaTensor::from_f32(black_box(&vals), cfg));
        let dequantize = o.time(|| black_box(&tensor).to_f32());
        table.row([
            m.to_string(),
            format!("{:.1}", quantize * 1e6),
            format!("{:.1}", dequantize * 1e6),
        ]);
    }
    table
}

fn fp_int_gemm(o: &Opts) -> Table {
    let (x, wq) = (random(16, 256, 3, 1.0), int4_weights(256, 64, 9));
    let mut table = Table::new(["path", "us"]);
    let mut row = |path: &str, seconds: f64| {
        table.row([path.to_string(), format!("{:.1}", seconds * 1e6)]);
    };
    for (path, codec) in [
        ("fp16_path", ActivationCodec::Fp16),
        ("fake_quant_anda8", ActivationCodec::anda(8)),
    ] {
        row(
            path,
            o.time(|| gemm_fake_quant(black_box(&x), black_box(&wq), &codec)),
        );
    }
    for m in [4u32, 8] {
        row(
            &format!("integer_bit_serial M={m}"),
            o.time(|| gemm_anda(black_box(&x), black_box(&wq), m)),
        );
    }
    // The offline W4 step itself, under the config a model's set-up uses.
    let w = random(256, 1024, 9, 0.05);
    row(
        "w4_quantize 256x1024",
        o.time(|| IntWeightMatrix::quantize(black_box(&w), WeightQuantConfig::w4_sim())),
    );
    table
}
