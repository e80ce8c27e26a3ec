//! Ablations of the design choices behind the format and KV crates
//! (README, "Crate map" and "KV memory model") and the paper's §IV/§VI
//! discussions:
//!
//! 1. **BPC on/off** — storage/energy effect of compressing MXU outputs at
//!    runtime versus writing FP16 back to memory.
//! 2. **First-element-then-bit-plane reduction** — register/adder cost
//!    versus a naive per-element shift-accumulate.
//! 3. **Bit-parallel Anda** — the §VI suggestion: the precision search
//!    paired with compile-time-fixed bit-parallel PEs.
//! 4. **Anda KV cache** — the §VI synergy: memory and attention-output
//!    error when the KV cache itself is Anda-compressed.

use anda_bench::Table;
use anda_format::dot::reduction_costs;
use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::modules::{ModuleKind, PrecisionCombo};
use anda_llm::zoo::real_model;
use anda_sim::arch::Accelerator;
use anda_sim::engine::simulate_gemm_opts;
use anda_sim::pe::{bit_parallel, PeKind};
use anda_sim::workload::llm_gemms;
use anda_tensor::Rng;

fn ablate_bpc() {
    println!("== Ablation 1: runtime bit-plane compressor (BPC) on/off ==\n");
    let cfg = real_model("LLaMA-13B").unwrap();
    let arch = Accelerator::paper(PeKind::Anda);
    let mut table = Table::new(&[
        "M",
        "DRAM Gbit (BPC on)",
        "DRAM Gbit (BPC off)",
        "energy ratio",
    ]);
    for m in [4u32, 6, 8, 11] {
        let (mut on, mut off) = (0.0f64, 0.0f64);
        let (mut e_on, mut e_off) = (0.0f64, 0.0f64);
        for g in llm_gemms(&cfg, 2048) {
            let a = simulate_gemm_opts(&g, &arch, m, true);
            let b = simulate_gemm_opts(&g, &arch, m, false);
            on += a.dram_bits();
            off += b.dram_bits();
            e_on += a.energy_pj();
            e_off += b.energy_pj();
        }
        table.row_owned(vec![
            m.to_string(),
            format!("{:.1}", on / 1e9),
            format!("{:.1}", off / 1e9),
            format!("{:.3}", e_off / e_on),
        ]);
    }
    table.print();
    println!("(the BPC pays for its 2% compute overhead by shrinking output traffic)\n");
}

fn ablate_reduction() {
    println!("== Ablation 2: first-element-then-bit-plane reduction ==\n");
    let mut table = Table::new(&[
        "M",
        "plane adds",
        "naive adds",
        "plane reg bits",
        "naive reg bits",
        "reg saving",
    ]);
    for m in [4u32, 8, 12, 16] {
        let c = reduction_costs(m, 64, 4);
        table.row_owned(vec![
            m.to_string(),
            c.plane_adds.to_string(),
            c.naive_adds.to_string(),
            c.plane_register_bits.to_string(),
            c.naive_register_bits.to_string(),
            format!("{:.1}x", c.register_saving()),
        ]);
    }
    table.print();
    println!("(paper §IV-B: a single shared accumulator replaces per-element intermediates)\n");
}

fn ablate_bit_parallel() {
    println!("== Ablation 3: search-driven bit-parallel PEs (paper §VI) ==\n");
    let mut table = Table::new(&[
        "M",
        "bit-serial area eff",
        "bit-parallel area eff",
        "bit-serial energy eff",
        "bit-parallel energy eff",
    ]);
    for m in [4u32, 6, 8, 11, 13] {
        table.row_owned(vec![
            m.to_string(),
            format!("{:.2}", PeKind::Anda.pe_area_efficiency(m)),
            format!("{:.2}", bit_parallel::area_efficiency(m)),
            format!("{:.2}", PeKind::Anda.pe_energy_efficiency(m)),
            format!("{:.2}", bit_parallel::energy_efficiency(m)),
        ]);
    }
    table.print();
    println!(
        "(fixed-width parallel PEs win at their design point; the bit-serial APU wins\n \
         whenever the searched widths vary across tensors — one design serves all combos)\n"
    );
}

fn ablate_kv_cache() {
    println!("== Ablation 4: Anda-compressed KV cache (paper §VI) ==\n");
    let dim = 128;
    let positions = 256;
    let mut rng = Rng::new(31);
    let rows: Vec<Vec<f32>> = (0..positions)
        .map(|_| (0..dim).map(|_| rng.normal_with(0.0, 1.0)).collect())
        .collect();
    let q: Vec<f32> = (0..dim).map(|_| rng.normal_with(0.0, 1.0)).collect();

    let mut exact = PagePool::new(KvPoolConfig::unbounded(KvStorage::Fp16)).new_cache(1);
    for r in &rows {
        exact.append_row(0, r, r);
    }
    let reference = exact.layer(0).attend(&q, 4);

    let mut table = Table::new(&["KV storage", "bits/elem", "compression", "attn max |err|"]);
    table.row_owned(vec![
        "FP16".into(),
        "16.00".into(),
        "1.00x".into(),
        "0".into(),
    ]);
    for m in [4u32, 6, 8, 11] {
        let pool = PagePool::new(KvPoolConfig::unbounded(KvStorage::Anda {
            mantissa_bits: m,
        }));
        let mut cache = pool.new_cache(1);
        for r in &rows {
            cache.append_row(0, r, r);
        }
        let out = cache.layer(0).attend(&q, 4);
        let err = reference
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        table.row_owned(vec![
            format!("Anda M={m}"),
            format!(
                "{:.2}",
                cache.storage_bits() as f64 / (2 * positions * dim) as f64
            ),
            format!("{:.2}x", cache.compression_vs_fp16()),
            format!("{err:.4}"),
        ]);
    }
    table.print();
    println!("(KV memory shrinks ~2-3x at single-digit mantissas with small attention error)\n");
}

fn ablate_module_routing() {
    println!("== Ablation 5: per-module vs uniform mantissas at equal BOPs ==\n");
    // [6,4,5,4] vs uniform 5: nearly equal BOPs, very different accuracy
    // profile (see fig07/fig14); here we show the hardware sees them alike.
    let cfg = real_model("OPT-6.7B").unwrap();
    let arch = Accelerator::paper(PeKind::Anda);
    let combos = [PrecisionCombo([6, 4, 5, 4]), PrecisionCombo::uniform(5)];
    let mut table = Table::new(&["combo", "compute cycles (G)", "DRAM Gbit"]);
    for combo in combos {
        let (mut cycles, mut dram) = (0.0f64, 0.0f64);
        for g in llm_gemms(&cfg, 2048) {
            let m = match g.module {
                ModuleKind::Qkv => combo.0[0],
                ModuleKind::OutProj => combo.0[1],
                ModuleKind::Up => combo.0[2],
                ModuleKind::Down => combo.0[3],
            };
            let r = simulate_gemm_opts(&g, &arch, m, true);
            cycles += r.compute_cycles;
            dram += r.dram_bits();
        }
        table.row_owned(vec![
            combo.to_string(),
            format!("{:.2}", cycles / 1e9),
            format!("{:.1}", dram / 1e9),
        ]);
    }
    table.print();
    println!("(module-wise precision buys accuracy at the same hardware cost)");
}

fn main() {
    ablate_bpc();
    ablate_reduction();
    ablate_bit_parallel();
    ablate_kv_cache();
    ablate_module_routing();
}
