//! Cross-crate integration: hardware simulator results must be consistent
//! with the search's BOPs cost model and the paper's headline claims.

use anda::llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda::llm::model::Layer;
use anda::llm::modules::{ModuleKind, PrecisionCombo};
use anda::llm::opcount::decode_ops;
use anda::llm::zoo::{real_model, real_models, sim_model};
use anda::llm::DecodeScratch;
use anda::search::bops::bops_saving;
use anda::sim::decode::simulate_decode;
use anda::sim::pe::PeKind;
use anda::sim::system::{geo_mean, simulate_baseline, simulate_model};
use anda::sim::workload::{llm_gemms, Gemm};

#[test]
fn compute_cycles_track_bops_for_compute_bound_prefill() {
    // At batch-1 long prefill the workload is compute-bound, so the
    // speedup over FP-FP must track the BOPs saving (within the +1
    // bit-serial setup overhead).
    let cfg = real_model("OPT-6.7B").unwrap();
    let base = simulate_baseline(&cfg, 2048);
    for combo in [PrecisionCombo::uniform(7), PrecisionCombo([8, 6, 5, 5])] {
        let r = simulate_model(&cfg, 2048, PeKind::Anda, combo);
        let speedup = r.speedup_vs(&base);
        let saving = bops_saving(&cfg, combo);
        // Bit-serial setup costs one extra cycle per group: speedup is a
        // bounded fraction of the BOPs saving.
        assert!(speedup < saving, "{speedup} vs {saving}");
        assert!(speedup > 0.7 * saving, "{speedup} vs {saving}");
    }
}

#[test]
fn paper_headline_averages_hold() {
    // Paper abstract: 2.4x speedup, 4.0x area efficiency, 3.1x energy
    // efficiency on average (1% loss). Use representative 1%-loss combos.
    let combo = PrecisionCombo([6, 5, 5, 4]);
    let mut speedups = Vec::new();
    let mut area_effs = Vec::new();
    let mut energy_effs = Vec::new();
    for cfg in real_models() {
        let seq = cfg.max_seq.min(2048);
        let base = simulate_baseline(&cfg, seq);
        let r = simulate_model(&cfg, seq, PeKind::Anda, combo);
        speedups.push(r.speedup_vs(&base));
        area_effs.push(r.area_efficiency_vs(&base));
        energy_effs.push(r.energy_efficiency_vs(&base));
    }
    let (s, a, e) = (
        geo_mean(&speedups),
        geo_mean(&area_effs),
        geo_mean(&energy_effs),
    );
    assert!(s > 2.0 && s < 3.2, "speedup geo-mean {s} (paper 2.49)");
    assert!(a > 3.0 && a < 5.2, "area-eff geo-mean {a} (paper 4.03)");
    assert!(e > 2.4 && e < 4.2, "energy-eff geo-mean {e} (paper 3.16)");
}

#[test]
fn workload_macs_agree_with_opcount_crate() {
    for cfg in real_models() {
        let seq = 1024;
        let total: u64 = llm_gemms(&cfg, seq).iter().map(Gemm::total_macs).sum();
        assert_eq!(total, cfg.fp_int_macs_per_token() * seq as u64);
        // Every GeMM's k dimension is a multiple of 64 (Anda lanes).
        for g in llm_gemms(&cfg, seq) {
            assert_eq!(g.k % 64, 0, "{}: {:?}", cfg.name, g.module);
        }
    }
}

#[test]
fn per_module_mantissa_actually_routes_to_gemms() {
    // Lowering only A_d must speed up exactly the Down GeMM share.
    let cfg = real_model("OPT-13B").unwrap();
    let hi = simulate_model(&cfg, 1024, PeKind::Anda, PrecisionCombo::uniform(8));
    let lo_d = simulate_model(&cfg, 1024, PeKind::Anda, PrecisionCombo([8, 8, 8, 4]));
    assert!(lo_d.totals.compute_cycles < hi.totals.compute_cycles);
    let gemms = llm_gemms(&cfg, 1024);
    let down_macs: u64 = gemms
        .iter()
        .filter(|g| g.module == ModuleKind::Down)
        .map(|g| g.total_macs())
        .sum();
    let all_macs: u64 = gemms.iter().map(|g| g.total_macs()).sum();
    // Expected cycle ratio from the bit-serial model.
    let expected = (all_macs - down_macs) as f64 * 9.0 / 16.0 + down_macs as f64 * 5.0 / 16.0;
    let baseline = all_macs as f64 * 9.0 / 16.0;
    let measured = lo_d.totals.compute_cycles / hi.totals.compute_cycles;
    assert!(
        (measured - expected / baseline).abs() < 1e-6,
        "measured {measured}, expected {}",
        expected / baseline
    );
}

#[test]
fn energy_efficiency_improves_as_tolerance_relaxes() {
    // Fig. 18 monotonicity, using combos of decreasing width.
    let cfg = real_model("LLaMA-13B").unwrap();
    let base = simulate_baseline(&cfg, 2048);
    let mut prev = 0.0f64;
    for combo in [
        PrecisionCombo::uniform(11),
        PrecisionCombo::uniform(8),
        PrecisionCombo::uniform(6),
        PrecisionCombo::uniform(4),
    ] {
        let e = simulate_model(&cfg, 2048, PeKind::Anda, combo).energy_efficiency_vs(&base);
        assert!(e > prev, "combo {combo}: {e} vs {prev}");
        prev = e;
    }
}

#[test]
fn the_cost_model_counts_what_the_engine_holds() {
    // No clock: the weights a zoo model holds, the GeMM instances the
    // simulator runs and the KV bits its decode study streams are the
    // engine's own, `==`.
    let t = 21;
    for name in ["OPT-1.3B", "LLaMA-7B"] {
        let model = sim_model(name).unwrap().build();
        let cfg = model.config();
        // A token meets every block weight in exactly one MAC, and the
        // engine holds every projection once: the floats a layer keeps
        // resident for them are those MACs. The pattern names every field
        // of `Layer`, so a second copy of a weight cannot come back
        // without this count seeing it.
        let (mut weights, mut matrices) = (0u64, 0usize);
        for layer in model.layers() {
            let Layer {
                attn_gain: _,
                attn_bias: _,
                ffn_gain: _,
                ffn_bias: _,
                wqkv,
                wo,
                wgate,
                wup,
                wdown,
                quantized: _,
            } = layer;
            for w in [wqkv, wo, wup, wdown].into_iter().chain(wgate) {
                weights += w.stored_len() as u64;
                matrices += 1;
            }
        }
        assert_eq!(weights, cfg.fp_int_macs_per_token(), "{name}");
        assert_eq!(
            decode_ops(cfg, t as u64, 1).fp_int_gemm / 2,
            weights,
            "{name}"
        );
        // One GeMM instance per weight matrix.
        let instances: usize = llm_gemms(cfg, 1).iter().map(|g| g.count).sum();
        assert_eq!(instances, matrices, "{name}");
        // Decoding one token after `t` streams exactly the cached K and V.
        let tokens: Vec<usize> = (0..t).map(|j| (j * 11 + 3) % cfg.vocab).collect();
        for storage in [KvStorage::Fp16, KvStorage::Anda { mantissa_bits: 6 }] {
            let pool = PagePool::new(KvPoolConfig::unbounded(storage));
            let mut cache = pool.new_cache(cfg.n_layers);
            model.prefill(&tokens, &mut cache, &mut DecodeScratch::new());
            let combo = PrecisionCombo::uniform(6);
            let sim = simulate_decode(cfg, t, 1, PeKind::Anda, combo, storage);
            assert_eq!(
                sim.kv_dram_bits,
                cache.storage_bits() as f64,
                "{name} {storage:?}"
            );
        }
    }
}
