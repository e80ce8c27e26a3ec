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
use anda_format::bitplane::BitPlaneGroup;
use anda_format::dot::{dot_f16_int_reference, dot_group_bit_serial, dot_group_reference};
use anda_format::rowcodec::{
    decode_row_into_with_leg, encode_row_into_scalar, groups_per_row, plane_words_per_row,
};
use anda_format::{AndaConfig, AndaTensor};
use anda_fp::{active_leg, available_legs, cpu_features, SimdLeg, F16};
use anda_llm::kv::{AttendLane, KvPoolConfig, KvStorage};
use anda_llm::{KvCache, PageDecodeCache, PagePool};
use anda_quant::{
    gemm_anda, gemm_anda_into_pool, gemm_fake_quant, ActivationCodec, IntWeightMatrix,
    WeightQuantConfig,
};
use anda_tensor::{Matrix, Rng};
use rayon_lite::ThreadPool;

const USAGE: &str = "usage: kernels [--quick] [--threads A,B,...] [section...]";

/// `(name, what the table holds and in which unit, the section)`.
type Section = (&'static str, &'static str, fn(&Opts) -> Table);

const SECTIONS: [Section; 8] = [
    (
        "threads",
        "GEMM GFLOP/s, serial vs sharded over a rayon-lite pool (matmul_t: rhs held n x k)",
        threads,
    ),
    (
        "simd",
        "serial GEMM GFLOP/s, the dispatched leg vs the scalar oracle",
        simd,
    ),
    (
        "m_sweep",
        "GFLOP/s of M per-row passes | one tiled GEMM (serial, 4 rotating weight copies; \
         wdown's lhs is ReLU-sparse; lm_head's rhs is held n x k)",
        m_sweep,
    ),
    (
        "decode_row",
        "ns to decode one 256-wide Anda row, per leg and mantissa length",
        decode_row,
    ),
    (
        "attend",
        "us per page walk at 256 wide x 4 heads, per lane set and leg",
        attend,
    ),
    (
        "group_dot",
        "ns per 64-lane group dot, the integer reference vs the bit-serial schedule",
        group_dot,
    ),
    (
        "conversion",
        "us to convert 4096 values to and from Anda",
        conversion,
    ),
    (
        "fp_int_gemm",
        "us per 16x256x64 FP-INT GeMM (W4, groups of 128)",
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

/// The acceptance bar of the threading work is > 1.5x on `matmul` at 4
/// threads on 512x512x512 (with at least 4 physical cores, of course).
fn threads(o: &Opts) -> Table {
    let mut header = vec!["kernel / shape".to_string(), "serial GF/s".to_string()];
    for t in &o.threads {
        header.extend([format!("{t}t GF/s"), format!("{t}t speedup")]);
    }
    let mut table = Table::new(header);
    let pools: Vec<ThreadPool> = o.threads.iter().map(|&t| ThreadPool::new(t)).collect();
    // A row: `run(None)` is the serial kernel, `run(Some(pool))` always shards.
    let mut row = |kernel: &str, (m, k, n), run: &mut dyn FnMut(Option<&ThreadPool>)| {
        let serial = o.time(|| run(None));
        let mut cells = vec![
            format!("{kernel} {m}x{k}x{n}"),
            format!("{:.2}", gflops(m, k, n, serial)),
        ];
        for pool in &pools {
            let sharded = o.time(|| run(Some(pool)));
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
        let (b, bt) = (random(k, n, 2, 1.0), random(n, k, 3, 1.0));
        let mut out = Matrix::zeros(m, n);
        row("matmul", (m, k, n), &mut |pool| match pool {
            None => a.matmul_into_on(&b, &mut out, None),
            Some(pool) => a.matmul_into_pool(&b, &mut out, pool),
        });
        // The gap to the row above is the transposing pack.
        row("matmul_t", (m, k, n), &mut |pool| match pool {
            None => a.matmul_transposed_into_on(&bt, &mut out, None),
            Some(pool) => a.matmul_transposed_into_pool(&bt, &mut out, pool),
        });
    }

    // The integer Anda GeMM (bit-serial group dots) on a smaller shape: an
    // element costs orders of magnitude more than an FP mul-add.
    let scale = if o.quick { 1 } else { 2 };
    let (m, k, n) = (16 * scale, 256 * scale, 64 * scale);
    let (x, wq) = (random(m, k, 4, 1.0), int4_weights(k, n, 5));
    let mut out = Matrix::zeros(m, n);
    let one = ThreadPool::new(1);
    row("gemm_anda M8", (m, k, n), &mut |pool| {
        gemm_anda_into_pool(&x, &wq, 8, &mut out, pool.unwrap_or(&one))
    });
    table
}

fn simd(o: &Opts) -> Table {
    let leg = active_leg();
    let n = if o.quick { 256 } else { 512 };
    let a = random(n, n, 6, 1.0);
    let (b, bt) = (random(n, n, 7, 1.0), random(n, n, 8, 1.0));
    let mut out = Matrix::zeros(n, n);
    let mut table = Table::new([
        format!("kernel {n}x{n}x{n}"),
        "scalar GF/s".to_string(),
        format!("{} GF/s", leg.name()),
        "speedup".to_string(),
    ]);
    for (kernel, rhs, transposed) in [("matmul", &b, false), ("matmul_t", &bt, true)] {
        let mut run = |leg| {
            o.time(|| match transposed {
                false => a.matmul_into_serial_with_leg(rhs, &mut out, leg),
                true => a.matmul_transposed_into_serial_with_leg(rhs, &mut out, leg),
            })
        };
        let (scalar, vector) = (run(SimdLeg::Scalar), run(leg));
        table.row([
            kernel.to_string(),
            format!("{:.2}", gflops(n, n, n, scalar)),
            format!("{:.2}", gflops(n, n, n, vector)),
            format!("{:.2}x", scalar / vector),
        ]);
    }
    table
}

/// Row counts of a step: solo decode, small decode batches, a full
/// decode batch, a prefill chunk.
const SWEEP_M: [usize; 6] = [1, 2, 4, 8, 16, 64];

/// `(k, n, relu_sparse, transposed)` of the serving model's projections —
/// `wqkv`, `wup`, `wdown`; only `wdown` reads the post-ReLU block, the
/// other two read normed (dense) activations — and of its tied LM head,
/// whose `rhs` (the embedding table) is held `n × k`.
const SWEEP_SHAPES: [(usize, usize, bool, bool); 4] = [
    (256, 768, false, false),
    (256, 1024, false, false),
    (1024, 256, true, false),
    (256, 512, false, true),
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
/// projection shape, then the LM head (the same tile through the
/// transposing pack), and each SIMD leg, `M` rows through one tiled call
/// versus `M` passes of the per-row loop (axpy; for the LM head plain
/// ascending-`k` dots, the scalar leg of `matmul_transposed`). `M = 1` is
/// the small-M guard (a solo decode step: the row-major kernel must not
/// lose to the loop it replaced, and the transposed one pays a whole pack
/// for one row of arithmetic — this is where that cost is printed);
/// `M ≥ 8` is where cross-row weight reuse has to show. Four weight copies
/// rotate under the calls so that, as in a model, a weight has left the L2
/// by the time it is used again: a single hot matrix ranks packing
/// strategies the wrong way round.
fn m_sweep(o: &Opts) -> Table {
    let mut table = columns("leg / k x n", SWEEP_M.map(|m| format!("M={m}")));
    for leg in available_legs() {
        for (k, n, sparse, transposed) in SWEEP_SHAPES {
            let (w_rows, w_cols) = if transposed { (n, k) } else { (k, n) };
            let copies: Vec<Matrix> = (0..4)
                .map(|c| random(w_rows, w_cols, 11 + c, 0.05))
                .collect();
            let kind = if transposed { " lm_head" } else { "" };
            let mut cells = vec![format!("{} {k}x{n}{kind}", leg.name())];
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
                let mut time = |f: &dyn Fn(&Matrix, &mut Matrix)| {
                    let rotation = o.time(|| {
                        for call in 0..calls {
                            f(&copies[call % copies.len()], &mut out);
                        }
                    });
                    gflops(m, k, n, rotation / calls as f64)
                };
                let (rows, gemm) = if transposed {
                    (
                        time(&|b, out| {
                            a.matmul_transposed_into_serial_with_leg(b, out, SimdLeg::Scalar)
                        }),
                        time(&|b, out| a.matmul_transposed_into_serial_with_leg(b, out, leg)),
                    )
                } else {
                    (
                        time(&|b, out| per_row_gemv(&a, b, out)),
                        time(&|b, out| a.matmul_into_serial_with_leg(b, out, leg)),
                    )
                };
                cells.push(format!("{rows:.1} | {gemm:.1}"));
            }
            table.row(cells);
        }
    }
    table
}

/// The KV read path's inner kernel: one 256-wide row (the serving
/// model's `d_model`) at a byte-lane (`M <= 8`) and a 16-bit-lane
/// (`M > 8`) mantissa width on each side.
fn decode_row(o: &Opts) -> Table {
    const MANTISSAS: [u32; 3] = [5, 8, 11];
    let vals = normals(256, 4, 2.0);
    let mut table = columns("leg", MANTISSAS.map(|m| format!("M={m}")));
    for leg in available_legs() {
        let mut cells = vec![leg.name().to_string()];
        for m in MANTISSAS {
            let cfg = AndaConfig::hardware(m).expect("a hardware mantissa length");
            let mut signs = vec![0u64; groups_per_row(vals.len(), cfg)];
            let mut exps = vec![0u16; signs.len()];
            let mut planes = vec![0u64; plane_words_per_row(vals.len(), cfg)];
            encode_row_into_scalar(&vals, cfg, &mut signs, &mut exps, &mut planes);
            let mut out = vec![0.0f32; vals.len()];
            let s = o.time(|| {
                let out = black_box(&mut out);
                decode_row_into_with_leg(leg, cfg, black_box(&signs), &exps, &planes, out)
            });
            cells.push(format!("{:.1}", s * 1e9));
        }
        table.row(cells);
    }
    table
}

/// The attention page walk at the serving model's shape (256 wide, four
/// heads, 16-position pages), one row per lane set the benchmark's
/// workloads are made of: a solo decode lane deep in a context on float
/// and on Anda pages (`decode_steady` / `decode_longctx`), a 64-token
/// chunk span at position 256 and four forks one token past a shared
/// 256-position prefix (`prefill_shared`).
fn attend(o: &Opts) -> Table {
    let (dim, n_heads) = (256, 4);
    let mut rng = Rng::new(13);
    let mut append = |cache: &mut KvCache, positions: usize| {
        let mut row = vec![0.0f32; 2 * dim];
        for _ in 0..positions {
            rng.fill_normal(&mut row, 1.0);
            cache.append_row(0, &row[..dim], &row[dim..]);
        }
    };
    let anda8 = KvStorage::Anda { mantissa_bits: 8 };
    let pool = |storage| PagePool::new(KvPoolConfig::unbounded(storage));
    // `(name, caches, one (cache, window) per lane)`.
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

    let legs = available_legs();
    let mut table = columns("lanes", legs.iter().map(|leg| leg.name().to_string()));
    for (name, caches, views) in &scenes {
        let q = normals(dim, 14, 1.0);
        let mut outs = vec![vec![0.0f32; dim]; views.len()];
        let mut scores: Vec<Vec<f32>> =
            views.iter().map(|&(_, t)| vec![0.0; n_heads * t]).collect();
        let mut walk = PageDecodeCache::new();
        let mut cells = vec![name.to_string()];
        for &leg in &legs {
            let s = o.time(|| {
                let mut lanes: Vec<AttendLane<'_>> = views
                    .iter()
                    .zip(outs.iter_mut().zip(scores.iter_mut()))
                    .map(|(&(cache, t), (out, scores))| AttendLane {
                        layer: caches[cache].layer(0),
                        t,
                        q: black_box(&q),
                        scores,
                        out,
                    })
                    .collect();
                walk.attend_with_leg(&mut lanes, n_heads, None, leg)
            });
            cells.push(format!("{:.1}", s * 1e6));
        }
        table.row(cells);
    }
    table
}

fn group_dot(o: &Opts) -> Table {
    let mut rng = Rng::new(1);
    let acts: Vec<F16> = (0..64)
        .map(|_| F16::from_f32(rng.normal_with(0.0, 2.0)))
        .collect();
    let weights: Vec<i8> = (0..64).map(|_| rng.below(15) as i8 - 7).collect();
    let ns = |s: f64| format!("{:.1}", s * 1e9);
    let mut table = Table::new(["activations", "reference", "bit-serial"]);
    let fp16 = o.time(|| dot_f16_int_reference(black_box(&acts), black_box(&weights), 0.01));
    table.row(["FP16".to_string(), ns(fp16), "-".to_string()]);
    for m in [4u32, 8, 13, 16] {
        let aligned = align_group(&acts, m).expect("finite activations");
        let planes = BitPlaneGroup::from_aligned(&aligned);
        let reference = o.time(|| dot_group_reference(black_box(&aligned), black_box(&weights)));
        let serial = o.time(|| dot_group_bit_serial(black_box(&planes), black_box(&weights)));
        table.row([format!("Anda M={m}"), ns(reference), ns(serial)]);
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
    let mut row = |path: &str, run: &dyn Fn() -> Matrix| {
        table.row([path.to_string(), format!("{:.1}", o.time(run) * 1e6)]);
    };
    for (path, codec) in [
        ("fp16_path", ActivationCodec::Fp16),
        ("fake_quant_anda8", ActivationCodec::anda(8)),
    ] {
        row(path, &|| {
            gemm_fake_quant(black_box(&x), black_box(&wq), &codec)
        });
    }
    for m in [4u32, 8] {
        row(&format!("integer_bit_serial M={m}"), &|| {
            gemm_anda(black_box(&x), black_box(&wq), m)
        });
    }
    table
}
