//! Serial vs parallel GEMM throughput across shapes and thread counts.
//!
//! The parallel kernels shard output rows across a `rayon-lite` pool while
//! keeping every output element bit-identical to the serial kernel (see the
//! README threading section), so this bench is pure throughput: GFLOP/s per
//! kernel, per shape, per thread count, plus the speedup over serial.
//!
//! The acceptance bar for the threading work is >1.5× on `matmul` at
//! 4 threads on 512×512×512 (needs ≥4 physical cores, of course). A
//! second table pits the dispatched SIMD leg against the forced-scalar
//! oracle on the serial kernels (identical bits, different wall time),
//! and the M-sweep ends the run. Everything is printed; nothing is
//! written.
//!
//! Usage: `gemm_threads [--quick] [--threads A,B,…]`

use std::time::Instant;

use anda_bench::Table;
use anda_fp::{active_leg, cpu_features, SimdLeg};
use anda_quant::{gemm_anda_into_pool, IntWeightMatrix, WeightQuantConfig};
use anda_tensor::{Matrix, Rng};
use rayon_lite::ThreadPool;

/// Best-of-N wall time of `f`, in seconds.
fn best_of(n: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn random(rows: usize, cols: usize, seed: u64, std: f32) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    Rng::new(seed).fill_normal(m.as_mut_slice(), std);
    m
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![2, 4]);
    let reps = if quick { 2 } else { 4 };

    println!(
        "GEMM threading bench — serial vs rayon-lite pool \
         (machine parallelism: {})",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "SIMD dispatch: {} leg (detected: {})\n",
        active_leg().name(),
        cpu_features()
    );

    // (m, k, n): square hot-path shape, the acceptance shape, a wide
    // activation panel (prefill-like), and a tall skinny one.
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(256, 256, 256), (512, 512, 512)]
    } else {
        &[
            (256, 256, 256),
            (512, 512, 512),
            (128, 1024, 768),
            (1024, 256, 64),
        ]
    };

    let mut header = vec!["kernel / shape".to_string(), "serial GF/s".to_string()];
    for &t in &threads {
        header.push(format!("{t}t GF/s"));
        header.push(format!("{t}t speedup"));
    }
    let mut table = Table::new(header);

    for &(m, k, n) in shapes {
        let a = random(m, k, 1, 1.0);
        let b = random(k, n, 2, 1.0);
        let bt = random(n, k, 3, 1.0);
        let mut out = Matrix::zeros(m, n);
        let flops = 2.0 * (m * k * n) as f64;

        // Dense matmul.
        let serial = best_of(reps, || a.matmul_into_serial(&b, &mut out));
        let mut cells = vec![
            format!("matmul {m}x{k}x{n}"),
            format!("{:.2}", flops / serial / 1e9),
        ];
        for &t in &threads {
            let pool = ThreadPool::new(t);
            let par = best_of(reps, || a.matmul_into_pool(&b, &mut out, &pool));
            cells.push(format!("{:.2}", flops / par / 1e9));
            cells.push(format!("{:.2}x", serial / par));
        }
        table.row(cells);

        // The same product with `rhs` held transposed (the LM head's
        // form): the gap to the row above is the transposing pack.
        let serial = best_of(reps, || a.matmul_transposed_into_serial(&bt, &mut out));
        let mut cells = vec![
            format!("matmul_t {m}x{k}x{n}"),
            format!("{:.2}", flops / serial / 1e9),
        ];
        for &t in &threads {
            let pool = ThreadPool::new(t);
            let par = best_of(reps, || a.matmul_transposed_into_pool(&bt, &mut out, &pool));
            cells.push(format!("{:.2}", flops / par / 1e9));
            cells.push(format!("{:.2}x", serial / par));
        }
        table.row(cells);
    }

    // The integer Anda GeMM (bit-serial group dots) on a smaller shape —
    // its per-element cost is orders of magnitude above an FP mul-add.
    let (m, k, n) = if quick { (16, 256, 64) } else { (32, 512, 128) };
    let x = random(m, k, 4, 1.0);
    let wq = IntWeightMatrix::quantize(&random(k, n, 5, 0.05), WeightQuantConfig::rtn(4, 128));
    let mut out = Matrix::zeros(m, n);
    let flops = 2.0 * (m * k * n) as f64;
    // The one-thread pool is built outside the timed closure: every
    // speed-up in this row divides by this time.
    let one = ThreadPool::new(1);
    let serial = best_of(reps, || gemm_anda_into_pool(&x, &wq, 8, &mut out, &one));
    let mut cells = vec![
        format!("gemm_anda {m}x{k}x{n} M8"),
        format!("{:.2}", flops / serial / 1e9),
    ];
    for &t in &threads {
        let pool = ThreadPool::new(t);
        let par = best_of(reps, || gemm_anda_into_pool(&x, &wq, 8, &mut out, &pool));
        cells.push(format!("{:.2}", flops / par / 1e9));
        cells.push(format!("{:.2}x", serial / par));
    }
    table.row(cells);

    table.print();
    println!(
        "\n(every parallel result above is bit-identical to the serial kernel; \
         the cross-thread-count suites in crates/tensor/tests and \
         crates/quant/tests enforce it)"
    );

    // --- SIMD leg vs scalar oracle on the serial kernels ---
    let leg = active_leg();
    let (m, k, n) = if quick {
        (256, 256, 256)
    } else {
        (512, 512, 512)
    };
    let a = random(m, k, 6, 1.0);
    let b = random(k, n, 7, 1.0);
    let bt = random(n, k, 8, 1.0);
    let mut out = Matrix::zeros(m, n);
    let flops = 2.0 * (m * k * n) as f64;
    println!(
        "\nSIMD vs scalar (serial kernels, {m}x{k}x{n}, dispatched leg: {}):",
        leg.name()
    );
    let mut simd_table = Table::new(&["kernel", "scalar GF/s", "simd GF/s", "simd speedup"]);
    type Kernel<'a> = &'a dyn Fn(SimdLeg, &mut Matrix);
    let kernels: [(&str, Kernel); 2] = [
        ("matmul", &|l: SimdLeg, o: &mut Matrix| {
            a.matmul_into_serial_with_leg(&b, o, l)
        }),
        ("matmul_t", &|l: SimdLeg, o: &mut Matrix| {
            a.matmul_transposed_into_serial_with_leg(&bt, o, l)
        }),
    ];
    for (label, run) in kernels {
        let scalar = best_of(reps, || run(SimdLeg::Scalar, &mut out));
        let vector = best_of(reps, || run(leg, &mut out));
        simd_table.row([
            label.to_string(),
            format!("{:.2}", flops / scalar / 1e9),
            format!("{:.2}", flops / vector / 1e9),
            format!("{:.2}x", scalar / vector),
        ]);
    }
    simd_table.print();
    println!("(both legs produce bit-identical outputs — the scalar twin is the oracle)");

    m_sweep(reps);
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
/// projection shape, then the LM head (`rhs` held `n × k`, the same tile
/// through the transposing pack), and each SIMD leg, `M` rows through one
/// tiled call versus `M` passes of the per-row loop (axpy / plain dots),
/// serial. `M = 1` is the small-M guard (a solo decode step: the
/// row-major kernel must not lose to the loop it replaced, and the
/// transposed one pays a whole pack for one row of arithmetic — this is
/// where that cost is printed); `M ≥ 8` is where cross-row weight reuse
/// has to show. Four weight copies rotate under the calls so that, as in
/// a model, a weight has left the L2 by the time it is used again.
fn m_sweep(reps: usize) {
    println!(
        "\nM-sweep (serial, 4 rotating weight copies; wdown's lhs is ReLU-sparse; \
         `lm_head` multiplies by the transpose of an n x k rhs): \
         GFLOP/s of M per-row passes | one tiled GEMM"
    );
    let mut header = vec!["leg / k x n".to_string()];
    header.extend(SWEEP_M.iter().map(|m| format!("M={m}")));
    let mut table = Table::new(header);
    for leg in anda_fp::simd::available_legs() {
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
                let flops = 2.0 * (m * k * n) as f64;
                let calls = (64 / m).max(4);
                let mut time = |f: &dyn Fn(&Matrix, &mut Matrix)| {
                    best_of(reps * 4, || {
                        for call in 0..calls {
                            f(&copies[call % copies.len()], &mut out);
                        }
                    }) / calls as f64
                };
                let (rows, gemm) = if transposed {
                    (
                        // One plain ascending-`k` dot per output element, row
                        // by row: the scalar leg of `matmul_transposed`.
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
                cells.push(format!(
                    "{:.1} | {:.1}",
                    flops / rows / 1e9,
                    flops / gemm / 1e9
                ));
            }
            table.row(cells);
        }
    }
    table.print();
}
