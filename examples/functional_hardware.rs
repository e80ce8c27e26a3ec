//! Execute a GeMM on the functional model of the Anda datapath (Fig. 13):
//! BPC conversion → bit-plane activation buffer → address generation →
//! 16×16 APU array → BPC write-back, with cycle statistics.
//!
//! Run with: `cargo run --release --example functional_hardware`

use anda::quant::gemm::gemm_fake_quant;
use anda::quant::{ActivationCodec, IntWeightMatrix, WeightQuantConfig};
use anda::sim::functional::MxuExecutor;
use anda::tensor::{Matrix, Rng};

fn main() {
    // A 32×256×48 FP-INT GeMM.
    let mut rng = Rng::new(5);
    let mut x = Matrix::zeros(32, 256);
    rng.fill_normal(x.as_mut_slice(), 1.2);
    let mut w = Matrix::zeros(256, 48);
    rng.fill_normal(w.as_mut_slice(), 0.05);
    let wq = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 64));
    let exact = gemm_fake_quant(&x, &wq, &ActivationCodec::Exact);

    println!("== functional execution of a 32x256x48 FP-INT GeMM ==\n");
    println!(
        "{:<4} {:>11} {:>12} {:>11} {:>10} {:>12}",
        "M", "MXU cycles", "act words", "BPC cycles", "tiles", "max rel err"
    );
    println!("{}", "-".repeat(66));
    for m in [4u32, 6, 8, 11, 16] {
        let exec = MxuExecutor::paper(m);
        let (out, compressed, stats) = exec.execute(&x, &wq);
        let mut max_rel = 0.0f32;
        for i in 0..32 {
            for j in 0..48 {
                let rel = (out[(i, j)] - exact[(i, j)]).abs() / exact[(i, j)].abs().max(1.0);
                max_rel = max_rel.max(rel);
            }
        }
        println!(
            "{m:<4} {:>11} {:>12} {:>11} {:>10} {:>12.5}",
            stats.mxu_cycles, stats.act_words_read, stats.bpc_cycles, stats.tiles, max_rel
        );
        assert_eq!(compressed.len(), 32 * 48);
    }
    println!("\ncycles scale with (M+1); accuracy improves with M — the trade the");
    println!("adaptive precision search navigates per module.");
}
