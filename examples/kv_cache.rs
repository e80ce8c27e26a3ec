//! The §VI extension in action: the paged, Anda-compressed KV cache —
//! memory savings, attention fidelity, and long-context decode gains.
//!
//! Run with: `cargo run --release --example kv_cache`

use anda::llm::kv::{KvPoolConfig, KvReadScratch, KvStorage, PagePool};
use anda::llm::modules::PrecisionCombo;
use anda::llm::zoo::real_model;
use anda::sim::decode::{simulate_decode, simulate_decode_baseline};
use anda::sim::pe::PeKind;
use anda::tensor::Rng;

fn main() {
    println!("== Paged Anda-compressed KV cache ==\n");

    // Functional: cache fidelity. Every cache leases 16-position pages
    // from its pool; only the storage policy differs.
    let dim = 128;
    let mut rng = Rng::new(99);
    let rows: Vec<Vec<f32>> = (0..512)
        .map(|_| (0..dim).map(|_| rng.normal_with(0.0, 1.0)).collect())
        .collect();
    let q: Vec<f32> = (0..dim).map(|_| rng.normal_with(0.0, 1.0)).collect();

    let mut exact = PagePool::new(KvPoolConfig::unbounded(KvStorage::Fp16)).new_cache(1);
    for r in &rows {
        exact.append_row(0, r, r);
    }
    let reference = exact.layer(0).attend(&q, 4);

    println!(
        "{:<12} {:>12} {:>14}",
        "storage", "compression", "attn max|err|"
    );
    println!("{}", "-".repeat(40));
    let mut scratch = KvReadScratch::new();
    let mut out = vec![0.0f32; dim];
    for m in [4u32, 6, 8, 11] {
        let pool = PagePool::new(KvPoolConfig::unbounded(KvStorage::Anda {
            mantissa_bits: m,
        }));
        let mut cache = pool.new_cache(1);
        for r in &rows {
            cache.append_row(0, r, r);
        }
        // Allocation-free read path: pages decode into the reused scratch.
        cache.layer(0).attend_into(&q, 4, &mut out, &mut scratch);
        let err = reference
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "Anda M={m:<4} {:>11.2}x {:>14.5}",
            cache.compression_vs_fp16(),
            err
        );
    }

    // System-level: long-context decode.
    let cfg = real_model("LLaMA2-13B").unwrap();
    let combo = PrecisionCombo([7, 6, 6, 6]);
    println!(
        "\ndecode of 64 tokens on {} (Anda combo {combo}):",
        cfg.name
    );
    for context in [2048usize, 8192, 16384] {
        let base = simulate_decode_baseline(&cfg, context, 64);
        let anda = simulate_decode(
            &cfg,
            context,
            64,
            PeKind::Anda,
            combo,
            KvStorage::Anda { mantissa_bits: 6 },
        );
        println!(
            "  context {context:>6}: {:.2}x faster, {:.2}x energy efficiency",
            anda.speedup_vs(&base),
            anda.energy_efficiency_vs(&base),
        );
    }
    println!("\n(the KV stream grows with context; compressing it keeps decode scaling)");
}
