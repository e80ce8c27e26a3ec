//! The artefacts that read the cost models — op counts, the PE taxonomy,
//! the floorplan and the system simulator — and, for Figs. 16–18, the
//! searched combinations.

use anda_format::{AndaConfig, AndaTensor};
use anda_llm::config::ModelConfig;
use anda_llm::modules::{ModuleKind, PrecisionCombo};
use anda_llm::opcount::generation_ops;
use anda_llm::zoo::{real_model, real_models};
use anda_quant::ActivationCodec;
use anda_search::bops::{bops_per_mac, uniform_bops_saving, BOPS_PER_FP16_INT4_MAC};
use anda_sim::floorplan::{anda_total_area_mm2, anda_total_power_mw, ANDA_COMPONENTS};
use anda_sim::pe::PeKind;
use anda_sim::system::{geo_mean, simulate_baseline, simulate_model, SystemReport};
use anda_sim::workload::llm_gemms;

use super::{searched, Report, WIKITEXT};
use crate::runs::Ctx;
use crate::Table;

/// Fig. 2 — proportion of FP-INT GeMM operations in weight-only quantized
/// LLMs across model sizes and context lengths.
pub(super) fn fig02_opshare(_: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Fig. 2 — total ops (TOPs) and FP-INT GeMM share, text generation\n");
    let contexts = [1024u64, 2048, 4096, 8192, 16384];

    let mut headers = vec!["model".to_string()];
    for c in contexts {
        headers.push(format!("{}K TOPs", c / 1024));
        headers.push(format!("{}K FP-INT%", c / 1024));
    }
    let mut table = Table::new(headers);

    let mut sub4k_shares = Vec::new();
    for cfg in real_models() {
        let mut cells = vec![cfg.name.clone()];
        for &c in &contexts {
            let b = generation_ops(&cfg, c);
            cells.push(format!("{:.2}", b.total_tops()));
            cells.push(format!("{:.1}%", 100.0 * b.fp_int_fraction()));
            if c <= 4096 {
                sub4k_shares.push(b.fp_int_fraction());
            }
        }
        table.row(cells);
    }
    report.table(table);

    let avg = sub4k_shares.iter().sum::<f64>() / sub4k_shares.len() as f64;
    report.text(format!(
        "\naverage FP-INT share for sub-4K contexts: {:.1}%",
        100.0 * avg
    ));
    report.text("(paper: >90% on average below 4K tokens, substantial at 10K+)");
    report
}

/// Fig. 8 — workflow comparison of FP-INT GeMM computation schemes:
/// (a) current GPU (INT4→FP16 weight conversion, FP16 math),
/// (b) GPU with dedicated FP-INT units,
/// (c) FIGNA (FP16-stored activations, per-use BFP conversion, INT math),
/// (d) Anda (Anda-stored activations, INT math, one output conversion).
///
/// For one representative GeMM this gives each scheme's per-element
/// conversion work, compute BOPs and activation memory traffic — the
/// quantities Fig. 8 annotates qualitatively.
pub(super) fn fig08_workflows(_: &mut Ctx) -> Report {
    let cfg = real_model("OPT-6.7B").expect("catalog model");
    let seq = 2048;
    // Representative GeMM: the QKV projection of one layer.
    let gemm = llm_gemms(&cfg, seq)
        .into_iter()
        .find(|g| g.module == ModuleKind::Qkv)
        .expect("every model has a QKV GeMM");
    let (m, k, n) = (gemm.m as f64, gemm.k as f64, gemm.n as f64);
    let macs = m * k * n;
    let anda_m = 6; // a representative searched mantissa length
    let anda_bits = ActivationCodec::anda(anda_m).storage_bits_per_element();
    let fp16_traffic = m * k * 16.0 + m * n * 16.0;

    // How many times activations are re-read during the GeMM (output
    // tiling over n in 16-column blocks re-touches each activation).
    let reuse_passes = (n / 16.0).max(1.0);

    // (scheme, element conversions, compute BOPs, activation bits moved
    // to/from memory), per GeMM.
    let fp16_bops = macs * BOPS_PER_FP16_INT4_MAC as f64;
    let schemes = [
        // INT4 weights expanded to FP16 once per weight element use.
        ("(a) GPU FP-FP", k * n, fp16_bops, fp16_traffic),
        // FP-INT units still pay alignment/normalization per MAC: model
        // as the full FP16 datapath width.
        ("(b) GPU + FP-INT units", 0.0, fp16_bops, fp16_traffic),
        // FP16→BFP conversion repeated on every activation re-read.
        (
            "(c) FIGNA",
            m * k * reuse_passes,
            macs * bops_per_mac(13) as f64,
            fp16_traffic,
        ),
        // One output conversion through the BPC; inputs stay in Anda.
        (
            "(d) Anda",
            m * n,
            macs * bops_per_mac(anda_m) as f64,
            m * k * anda_bits + m * n * anda_bits,
        ),
    ];

    let mut report = Report::default();
    report.text(format!(
        "Fig. 8 — workflow comparison on the {} QKV GeMM ({}x{}x{}, seq {seq})\n",
        cfg.name, gemm.m, gemm.k, gemm.n
    ));
    let (_, _, base_bops, base_mem) = schemes[0];
    let mut table = Table::new([
        "scheme",
        "conversions (M elems)",
        "compute BOPs (norm)",
        "act memory (norm)",
    ]);
    for (name, conversions, compute_bops, act_memory_bits) in schemes {
        table.row([
            name.to_string(),
            format!("{:.1}", conversions / 1e6),
            format!("{:.2}", compute_bops / base_bops),
            format!("{:.2}", act_memory_bits / base_mem),
        ]);
    }
    report.table(table);
    report.text(
        "\n(paper Fig. 8: Anda removes repetitive conversion, cuts compute to the\n \
         minimal mantissa width, and shrinks activation memory ~2.3x at M=6)",
    );
    report
}

/// Fig. 15 — PE-level area, power, area efficiency and energy efficiency,
/// normalized to the GPU-like FP-FP unit.
///
/// Paper reference values (16 nm synthesis):
///   area:   FP-INT 0.63, iFPU 0.26, FIGNA 0.18, M11 0.15, M8 0.12, Anda 0.23
///   power:  FP-INT 0.52, iFPU 0.28, FIGNA 0.17, M11 0.12, M8 0.10, Anda 0.20
///   area efficiency:   1.00 1.59 3.78 5.58 6.55 8.09 | Anda-M13..M4 4.96..13.89
///   energy efficiency: 1.00 1.93 3.51 5.87 8.03 10.49 | Anda-M13..M4 5.74..16.07
pub(super) fn fig15_pe_level(_: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Fig. 15(a,b) — normalized PE area and power\n");
    let mut ab = Table::new(["PE", "area (norm)", "power (norm)"]);
    for kind in PeKind::ALL {
        ab.row([
            kind.name().to_string(),
            format!("{:.2}", kind.area_rel()),
            format!("{:.2}", kind.power_rel()),
        ]);
    }
    report.table(ab);

    report.text("\nFig. 15(c,d) — normalized PE area/energy efficiency\n");
    let mut cd = Table::new(["PE", "area eff", "energy eff"]);
    let fixed_width = PeKind::ALL.into_iter().filter_map(|kind| {
        let m = kind.datapath_mantissa_bits()?;
        Some((kind.name().to_string(), kind, m))
    });
    let anda = (4..=13)
        .rev()
        .map(|m| (format!("Anda-M{m}"), PeKind::Anda, m));
    for (name, kind, m) in fixed_width.chain(anda) {
        cd.row([
            name,
            format!("{:.2}", kind.pe_area_efficiency(m)),
            format!("{:.2}", kind.pe_energy_efficiency(m)),
        ]);
    }
    report.table(cd);
    report.text("\n(paper: Anda-M13 4.96/5.74 … Anda-M4 13.89/16.07)");
    report
}

/// The prefill length of the system-level figures: batch 1 at the
/// model's maximum sequence length, capped at 2048.
fn prefill_seq(cfg: &ModelConfig) -> usize {
    cfg.max_seq.min(2048)
}

/// The systems Figs. 16 and 17 set against the FP-FP baseline: the
/// fixed-width PEs (which ignore the combination) and Anda at the two
/// combinations searched on the WikiText-2 stand-in.
fn compared_systems(ctx: &mut Ctx, model: &str) -> Vec<(String, PeKind, PrecisionCombo)> {
    let combo01 = searched(ctx, model, WIKITEXT, 0.001, 11);
    let combo1 = searched(ctx, model, WIKITEXT, 0.01, 8);
    let fixed_width = [
        ("FP-INT", PeKind::FpInt),
        ("iFPU", PeKind::Ifpu),
        ("FIGNA", PeKind::Figna),
        ("FIGNA-M11 (0.1%)", PeKind::FignaM11),
        ("FIGNA-M8 (1%)", PeKind::FignaM8),
    ];
    fixed_width
        .into_iter()
        .map(|(name, kind)| (name.to_string(), kind, PrecisionCombo::uniform(16)))
        .chain([
            (format!("Anda (0.1%) {combo01}"), PeKind::Anda, combo01),
            (format!("Anda (1%) {combo1}"), PeKind::Anda, combo1),
        ])
        .collect()
}

/// A model's name, its FP-FP baseline and its report on each of some
/// systems, all at [`prefill_seq`].
type Simulated = (String, SystemReport, Vec<SystemReport>);

fn simulate_systems(
    cfg: &ModelConfig,
    systems: impl IntoIterator<Item = (PeKind, PrecisionCombo)>,
) -> Simulated {
    let seq = prefill_seq(cfg);
    let reports = systems
        .into_iter()
        .map(|(kind, combo)| simulate_model(cfg, seq, kind, combo))
        .collect();
    (cfg.name.clone(), simulate_baseline(cfg, seq), reports)
}

/// A system's improvement over the baseline report.
type Metric = fn(&SystemReport, &SystemReport) -> f64;

/// One captioned table per metric: a row per model of each system's
/// improvement over the model's baseline, closed by the geometric means
/// over models when `geo_means`.
fn metric_tables(
    report: &mut Report,
    headers: &[String],
    simulated: &[Simulated],
    metrics: &[(&str, Metric)],
    geo_means: bool,
) {
    for (caption, metric) in metrics {
        let mut table = Table::new(headers);
        let mut columns = vec![Vec::new(); headers.len() - 1];
        for (name, base, reports) in simulated {
            let mut cells = vec![name.clone()];
            for (column, r) in columns.iter_mut().zip(reports) {
                let value = metric(r, base);
                column.push(value);
                cells.push(format!("{value:.2}"));
            }
            table.row(cells);
        }
        if geo_means {
            let means = columns.iter().map(|c| format!("{:.2}", geo_mean(c)));
            table.row(["Geo.Mean".to_string()].into_iter().chain(means));
        }
        report.text(*caption);
        report.table(table);
    }
}

/// Fig. 16 — system-level speedup, area efficiency and energy efficiency
/// across accelerators on WikiText-2 combos.
///
/// Paper geo-means (FP-FP = 1.00): speedup 1.00/1.00/1.00/1.00/1.45/2.00/
/// 2.14/2.49; area eff …/3.47/4.03; energy eff …/3.07/3.16 for
/// [FP-FP, FP-INT, iFPU, FIGNA, FIGNA-M11, FIGNA-M8, Anda(0.1%), Anda(1%)].
pub(super) fn fig16_system_level(ctx: &mut Ctx) -> Report {
    let mut simulated = Vec::new();
    for spec in ctx.models() {
        let systems = compared_systems(ctx, &spec.real.name);
        let systems = systems.into_iter().map(|(_, kind, combo)| (kind, combo));
        simulated.push(simulate_systems(&spec.real, systems));
    }

    let mut report = Report::default();
    report
        .text("Fig. 16 — system-level comparison (WikiText-2 combos, batch 1, max-seq prefill)\n");
    let headers = [
        "model",
        "FP-INT",
        "iFPU",
        "FIGNA",
        "M11",
        "M8",
        "Anda(0.1%)",
        "Anda(1%)",
    ];
    metric_tables(
        &mut report,
        &headers.map(String::from),
        &simulated,
        &[
            ("Speedup vs FP-FP:", SystemReport::speedup_vs),
            (
                "\nArea efficiency vs FP-FP:",
                SystemReport::area_efficiency_vs,
            ),
            (
                "\nEnergy efficiency vs FP-FP:",
                SystemReport::energy_efficiency_vs,
            ),
        ],
        true,
    );
    report.text(
        "\n(paper geo-means: speedup 1.00 1.00 1.00 1.45 2.00 | Anda 2.14 / 2.49;\n \
         area eff 1.23 1.60 1.72 2.55 3.60 | 3.47 / 4.03;\n \
         energy eff 1.25 1.42 1.53 1.69 1.94 | 3.07 / 3.16)",
    );
    report
}

/// Fig. 17 — energy breakdown (compute / SRAM / DRAM) during LLaMA-13B
/// inference, normalized to the FP-FP baseline.
///
/// Paper reference: FP-FP 42%/11%/48%; Anda (1%) cuts computation, SRAM and
/// DRAM energy by 90%, 54% and 50%, for a 3.13x total reduction.
pub(super) fn fig17_energy_breakdown(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Fig. 17 — energy breakdown, LLaMA-13B (normalized to FP-FP total)\n");

    let cfg = real_model("LLaMA-13B").expect("catalog model");
    let seq = prefill_seq(&cfg);
    let base_total = simulate_baseline(&cfg, seq).totals.energy_pj();
    let mut systems = compared_systems(ctx, &cfg.name);
    systems.insert(
        0,
        ("FP-FP".into(), PeKind::FpFp, PrecisionCombo::uniform(16)),
    );

    let mut table = Table::new(["system", "compute", "SRAM", "DRAM", "total", "reduction"]);
    for (name, kind, combo) in systems {
        let r = simulate_model(&cfg, seq, kind, combo);
        let c = r.totals.energy_compute_pj / base_total;
        let s = r.totals.energy_sram_pj / base_total;
        let d = r.totals.energy_dram_pj / base_total;
        let total = c + s + d;
        table.row([
            name,
            format!("{:.1}%", 100.0 * c),
            format!("{:.1}%", 100.0 * s),
            format!("{:.1}%", 100.0 * d),
            format!("{:.1}%", 100.0 * total),
            format!("{:.2}x", 1.0 / total),
        ]);
    }
    report.table(table);
    report.text(
        "\n(paper: FP-FP 42/11/48; baselines keep SRAM+DRAM, reduce compute only;\n \
         Anda 1%: compute -90%, SRAM -54%, DRAM -50%, total 3.13x)",
    );
    report
}

/// Fig. 18 — speedup and energy-efficiency improvement of Anda over the
/// FP-FP baseline as the accuracy-loss tolerance relaxes from 0.1% to 5%.
///
/// Paper reference (LLaMA-13B): 1.73x/2.95x at 0.1% rising to 2.74x/3.22x
/// at 5%; OPT models gain more at tight tolerances than LLaMA models.
pub(super) fn fig18_tradeoff(ctx: &mut Ctx) -> Report {
    let tolerances = [0.001f64, 0.002, 0.005, 0.01, 0.02, 0.05];
    let mut simulated = Vec::new();
    for spec in ctx.models() {
        let combo = |tol| searched(ctx, &spec.real.name, WIKITEXT, tol, 13);
        let systems = tolerances.map(combo).map(|combo| (PeKind::Anda, combo));
        simulated.push(simulate_systems(&spec.real, systems));
    }

    let mut report = Report::default();
    report.text("Fig. 18 — accuracy-performance trade-off over FP-FP (wikitext2-sim)\n");
    let mut headers = vec!["model".to_string()];
    headers.extend(tolerances.iter().map(|t| format!("{:.1}%", 100.0 * t)));
    metric_tables(
        &mut report,
        &headers,
        &simulated,
        &[
            ("Speedup vs FP-FP:", SystemReport::speedup_vs),
            (
                "\nEnergy efficiency vs FP-FP:",
                SystemReport::energy_efficiency_vs,
            ),
        ],
        false,
    );
    report.text(
        "\n(paper: LLaMA-13B 1.73x→2.74x speedup and 2.95x→3.22x energy as tolerance \
         relaxes 0.1%→5%; gains converge across models at loose tolerances)",
    );
    report
}

/// Table I — Anda format definition in contrast with prior BFP formats,
/// with measured storage/computation characteristics from this
/// implementation.
pub(super) fn table1_formats(_: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Table I — BFP format comparison (paper taxonomy + measured bits/element)\n");
    let mut table = Table::new([
        "format",
        "mantissa lengths",
        "computation",
        "storage basis",
        "bits/elem",
        "BOPs saving",
    ]);

    // (format, mantissa lengths, computation, storage basis, the mantissa
    // length measured).
    let (parallel, element) = ("bit-parallel BFP", "element");
    let prior = [
        ("VS-Quant", "4b (uni)", parallel, element, 4u32),
        ("BOOST", "5b (uni)", parallel, element, 5),
        ("X. Lian et al.", "8b (uni)", parallel, element, 8),
        (
            "FIGNA",
            "14b (uni)",
            "bit-parallel FP16-stored",
            element,
            13,
        ),
        ("H. Fan et al.", "15b (uni)", parallel, element, 15),
        ("Flexpoint", "16b (uni)", parallel, element, 16),
        ("FAST", "2/4b (multi)", "chunk-serial BFP", "chunk", 4),
        ("DaCapo", "2/4/8b (multi)", parallel, element, 8),
        ("FlexBlock", "4/8/16b (multi)", parallel, element, 8),
    ]
    .map(|(name, lengths, compute, storage, m)| (name.to_string(), lengths, compute, storage, m));
    // Anda: the variable-length row, one entry per representative length.
    let anda = [4u32, 8, 13, 16].map(|m| {
        (
            format!("Anda (M={m})"),
            "1..16b (variable)",
            "bit-serial BFP",
            "bit-plane",
            m,
        )
    });
    for (name, lengths, compute, storage, m) in prior.into_iter().chain(anda) {
        let config = AndaConfig::hardware(m).expect("mantissa length in 1..=16");
        let t = AndaTensor::from_f32(&[1.0; 64], config);
        table.row([
            name,
            lengths.into(),
            compute.into(),
            storage.into(),
            format!("{:.2}", t.bits_per_element()),
            format!("{:.2}x", uniform_bops_saving(m)),
        ]);
    }
    report.table(table);
    report.text("\n(paper Table I: Anda is the only format with continuous 1–16b mantissa range,");
    report.text(" bit-serial computation and bit-plane storage)");
    report
}

/// Table III — area and power characteristics of the Anda accelerator
/// (16 nm, 285 MHz, 0.8 V).
pub(super) fn table3_area_power(_: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Table III — Anda area and power breakdown\n");
    let total_area = anda_total_area_mm2();
    let total_power = anda_total_power_mw();

    let mut table = Table::new(["component", "area [mm2]", "area %", "power [mW]", "power %"]);
    for c in ANDA_COMPONENTS {
        table.row([
            c.name.to_string(),
            format!("{:.2}", c.area_mm2),
            format!("{:.2}%", 100.0 * c.area_mm2 / total_area),
            format!("{:.2}", c.power_mw),
            format!("{:.2}%", 100.0 * c.power_mw / total_power),
        ]);
    }
    table.row([
        "Total".into(),
        format!("{total_area:.2}"),
        "100.00%".into(),
        format!("{total_power:.2}"),
        "100.00%".into(),
    ]);
    report.table(table);
    report.text("\n(paper: total 2.17 mm2, 81.18 mW; MXU 66.94% of power on 18.89% of area)");
    report
}
