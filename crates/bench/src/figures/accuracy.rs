//! The artefacts that run the simulated models: mantissa-sensitivity
//! sweeps on the validation split, Algorithm 1 on the calibration split,
//! and the tables of what it finds.

use anda_llm::eval::{perplexity, relative_accuracy, relative_accuracy_loss};
use anda_llm::modules::{CodecAssignment, ModuleKind, PrecisionCombo};
use anda_quant::ActivationCodec;
use anda_search::bops::{bops_per_token, bops_saving, uniform_bops_saving};
use anda_search::search::{adaptive_precision_search, SearchConfig};
use anda_search::surrogate::{SurrogateEvaluator, SurrogateLandscape};

use super::{mantissa_table, per_corpus, searched, Report, MANTISSAS, WIKITEXT};
use crate::runs::{Ctx, WINDOW};
use crate::Table;

/// Fig. 5 — LLM sensitivity to BFP group size and preserved mantissa bits
/// (OPT-1.3B and LLaMA2-7B on the WikiText-2 stand-in).
///
/// Paper reference: larger groups need longer mantissas to stay within the
/// 1% loss bound; GS=64 balances parallelism and accuracy.
pub(super) fn fig05_groupsize(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Fig. 5 — perplexity vs preserved mantissa bits across BFP group sizes\n");

    for model in ["OPT-1.3B", "LLaMA2-7B"] {
        let prep = ctx.prepared(model, WIKITEXT);
        let d = prep.spec.sim.d_model;
        let base = prep.validation_ppl(&CodecAssignment::fp16());
        report.text(format!(
            "== {model}-sim (W4A16 baseline ppl {base:.3}; 1% bound {:.3}) ==",
            base * 1.01
        ));
        let mut table = mantissa_table("GS");
        // GS sweep: 1 (per-element) up to the full channel dimension.
        for group_size in [1, 8, 16, 32, 64, d] {
            let label = if group_size == d {
                format!("{group_size} (=channels)")
            } else {
                group_size.to_string()
            };
            let cells = MANTISSAS.map(|mantissa_bits| {
                let codec = ActivationCodec::Grouped {
                    mantissa_bits,
                    group_size,
                };
                let ppl = prep.validation_ppl(&CodecAssignment::uniform(codec));
                format!("{ppl:.3}")
            });
            table.row([label].into_iter().chain(cells));
        }
        report.table(table);
        report.text("");
    }
    report.text("(paper: smaller groups tolerate shorter mantissas; the 1% crossing shifts right as GS grows)");
    report
}

/// Fig. 6 — relative accuracy versus preserved mantissa bits across models.
///
/// Paper reference: with group size 64, OPT-2.7B/6.7B/13B/30B tolerate the
/// removal of 5 mantissa bits within 1% accuracy loss while other models
/// tolerate 4; differences widen as more bits are removed.
pub(super) fn fig06_model_sensitivity(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Fig. 6 — relative accuracy vs preserved mantissa bits (GS=64, wikitext2-sim)\n");
    let mut table = mantissa_table("model");
    for spec in ctx.models() {
        let prep = ctx.prepared(&spec.real.name, WIKITEXT);
        let base = prep.validation_ppl(&CodecAssignment::fp16());
        let cells = MANTISSAS.map(|m| {
            let ppl = prep.validation_ppl(&CodecAssignment::from_combo(PrecisionCombo::uniform(m)));
            format!("{:.2}%", 100.0 * relative_accuracy(base, ppl))
        });
        table.row([spec.real.name].into_iter().chain(cells));
    }
    report.table(table);
    report.text(
        "\n(paper: curves stay above 99% down to M≈8–9, then fall; OPT more tolerant than LLaMA)",
    );
    report
}

/// Fig. 7 — per-module sensitivity: relative accuracy when truncating only
/// one of A_qkv / A_o / A_u / A_d, keeping the others at 13 bits.
///
/// Paper reference (OPT-6.7B, LLaMA-7B, LLaMA2-7B): A_qkv is consistently
/// the most sensitive; A_d is very tolerant in OPT but more sensitive in
/// the LLaMA family.
pub(super) fn fig07_module_sensitivity(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Fig. 7 — single-module mantissa sweeps (others fixed at 13 bits)\n");

    for model in ["OPT-6.7B", "LLaMA-7B", "LLaMA2-7B"] {
        let prep = ctx.prepared(model, WIKITEXT);
        let base = prep.validation_ppl(&CodecAssignment::fp16());
        report.text(format!("== {model}-sim =="));
        let mut table = mantissa_table("module");
        for kind in ModuleKind::ALL {
            let cells = MANTISSAS.map(|m| {
                let codecs = CodecAssignment::uniform(ActivationCodec::anda(13))
                    .with_module(kind, ActivationCodec::anda(m));
                let ppl = prep.validation_ppl(&codecs);
                format!("{:.2}%", 100.0 * relative_accuracy(base, ppl))
            });
            table.row([kind.label().to_string()].into_iter().chain(cells));
        }
        report.table(table);
        report.text("");
    }
    report.text("(paper: A_qkv most sensitive; A_d tolerant in OPT, more sensitive in LLaMA)");
    report
}

/// Fig. 9 — trace of the adaptive precision combination search on the
/// OPT-125M model under a 1% accuracy-loss constraint.
///
/// Paper reference: the search walks the uniform ladder `[4,4,4,4]` →
/// `[7,7,7,7]`, then refines to mixed combinations, identifying `[7,7,6,5]`
/// within 10 iterations out of a >10,000-point space.
pub(super) fn fig09_search_trace(ctx: &mut Ctx) -> Report {
    let prep = ctx.prepared("OPT-125M", WIKITEXT);
    let outcome = ctx.search("OPT-125M", WIKITEXT, 0.01);

    let mut report = Report::default();
    report.text("Fig. 9 — adaptive precision search on OPT-125M-sim (δ = 1%)\n");
    // Normalize BOPs to FIGNA (M=13 everywhere), as in the figure's x-axis.
    let figna_bops = bops_per_token(&prep.spec.sim, PrecisionCombo::uniform(13)) as f64;

    let mut table = Table::new(["#", "combo", "BOPs/FIGNA", "rel.acc", "best after"]);
    for step in &outcome.trace {
        table.row([
            format!("{}", step.iteration),
            step.combo.to_string(),
            format!("{:.3}", step.bops as f64 / figna_bops),
            format!(
                "{:.2}%",
                100.0 * (1.0 - (step.ppl - outcome.baseline_ppl) / outcome.baseline_ppl)
            ),
            step.best_after
                .map_or_else(|| "None".into(), |b| b.to_string()),
        ]);
    }
    report.table(table);

    match outcome.best {
        Some(best) => {
            report.text(format!(
                "\nbest combination: {best} after {} iterations",
                outcome.trace.len()
            ));
            report.text(format!(
                "BOPs saving vs FP16: {:.2}x (FIGNA achieves {:.2}x)",
                bops_saving(&prep.spec.sim, best),
                uniform_bops_saving(13),
            ));
            // Confirm on the validation split.
            let val_base = prep.validation_ppl(&CodecAssignment::fp16());
            let val_ppl = prep.validation_ppl(&CodecAssignment::from_combo(best));
            report.text(format!(
                "validation check: baseline ppl {val_base:.3}, {best} ppl {val_ppl:.3} \
                 ({:+.2}% loss)",
                100.0 * (val_ppl - val_base) / val_base
            ));
        }
        None => report.text("\nno combination satisfied the tolerance"),
    }
    report.text("(paper: finds [7,7,6,5] in 10 iterations under 1% loss)");
    report
}

/// Fig. 9 companion — search efficiency versus brute force.
///
/// The paper contrasts Algorithm 1's ~10 iterations with the >10,000-point
/// brute-force space. Here a first-order surrogate of the accuracy
/// landscape is fitted from per-module sweeps (41 forward passes), the full
/// 10⁴ space is enumerated on the surrogate, and the search's pick is
/// compared against the exhaustive optimum.
pub(super) fn fig09_brute_force(ctx: &mut Ctx) -> Report {
    let prep = ctx.prepared("OPT-125M", WIKITEXT);
    let sim = &prep.spec.sim;
    let mut report = Report::default();
    report.text("Fig. 9 companion — Algorithm 1 vs brute force on OPT-125M-sim\n");

    let land = SurrogateLandscape::fit(&prep.quant_model, &prep.data.calibration, WINDOW, (4, 13));
    report.text(format!(
        "surrogate fitted from {} forward passes (baseline ppl {:.3})\n",
        land.fit_cost(),
        land.baseline_ppl()
    ));

    let mut table = Table::new([
        "tolerance",
        "search combo",
        "iters",
        "brute-force combo",
        "points",
        "BOPs gap",
    ]);
    for tol in [0.001f64, 0.01, 0.05] {
        let (brute, examined) = land.brute_force_optimum(sim, tol);
        let mut ev = SurrogateEvaluator::new(&land);
        let out = adaptive_precision_search(sim, &mut ev, &SearchConfig::with_tolerance(tol));

        let (search_str, gap) = match (out.best, brute) {
            (Some(s), Some(b)) => (
                s.to_string(),
                format!(
                    "{:.3}x",
                    bops_per_token(sim, s) as f64 / bops_per_token(sim, b) as f64
                ),
            ),
            (None, None) => ("infeasible".into(), "--".into()),
            (s, _) => (
                s.map_or_else(|| "none".into(), |c| c.to_string()),
                "?".into(),
            ),
        };
        table.row([
            format!("{:.1}%", 100.0 * tol),
            search_str,
            out.trace.len().to_string(),
            brute.map_or_else(|| "infeasible".into(), |c| c.to_string()),
            examined.to_string(),
            gap,
        ]);
    }
    report.table(table);
    report.text(
        "\n(paper: the search reaches the brute-force optimum's neighbourhood in ~10\n \
         of 10,000+ points; ~2x faster than Omniquant and ~10x faster than GPTQ deployment)",
    );
    report
}

/// Fig. 14 — best precision combinations `[M_qkv, M_o, M_u, M_d]` found by
/// the adaptive search for every model, corpus and tolerance.
///
/// Paper reference: A_qkv prefers the highest precision; A_u/A_d (especially
/// A_d in OPT models) tolerate the most aggressive quantization; 1% combos
/// sit 1–3 bits below 0.1% combos.
pub(super) fn fig14_precision_combos(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text("Fig. 14 — searched precision combinations [M_qkv, M_o, M_u, M_d]\n");
    per_corpus(
        ctx,
        &mut report,
        &["model", "0.1% tolerance", "1% tolerance"],
        |ctx, model, corpus, table| {
            let found = [0.001, 0.01].map(|tolerance| {
                ctx.search(model, corpus, tolerance)
                    .best
                    .map_or_else(|| "not found".into(), |c| c.to_string())
            });
            table.row([model.to_string()].into_iter().chain(found));
        },
    );
    report.text(
        "(paper: combos range 4-11 bits; A_qkv highest; OPT models reach lower bits than LLaMA)",
    );
    report
}

/// Table II — perplexity, relative accuracy drop, and BOPs saving of every
/// computation method across models and corpora.
///
/// Rows per (model, corpus): FP16, Omniquant (W4A16), FIGNA (M=13),
/// VS-Quant (M=4, no retraining), Anda at 0.1% and 1% tolerances.
pub(super) fn table2_accuracy(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    report.text(
        "Table II — accuracy and BOPs savings of weight-only quantized LLM computation methods",
    );
    report.text("(perplexity; accuracy drop vs Omniquant; BOPs saving vs FP16 activations)\n");
    per_corpus(
        ctx,
        &mut report,
        &["model", "method", "PPL", "acc drop", "BOPs saving"],
        |ctx, model, corpus, table| {
            let p = ctx.prepared(model, corpus);
            let quantized = |codec| p.validation_ppl(&CodecAssignment::uniform(codec));
            let omni_ppl = p.validation_ppl(&CodecAssignment::fp16());
            // (method, validation perplexity, BOPs saving).
            let mut methods = vec![
                ("Omniquant".to_string(), omni_ppl, 1.0),
                (
                    "FIGNA".into(),
                    quantized(ActivationCodec::figna()),
                    uniform_bops_saving(13),
                ),
                (
                    "VS-Quant*".into(),
                    quantized(ActivationCodec::vs_quant()),
                    uniform_bops_saving(4),
                ),
            ];
            for (label, tolerance) in [("Ours (0.1%)", 0.001), ("Ours (1%)", 0.01)] {
                let combo = searched(ctx, model, corpus, tolerance, 13);
                methods.push((
                    format!("{label} {combo}"),
                    p.validation_ppl(&CodecAssignment::from_combo(combo)),
                    bops_saving(&p.spec.sim, combo),
                ));
            }

            let fp16_ppl = perplexity(
                &p.fp16_model,
                &CodecAssignment::fp16(),
                &p.data.validation,
                WINDOW,
            );
            table.row([model, "FP16", &format!("{fp16_ppl:.2}"), "--", "--"]);
            for (method, ppl, saving) in methods {
                table.row([
                    model.to_string(),
                    method,
                    format!("{ppl:.2}"),
                    format!("{:+.2}%", -100.0 * relative_accuracy_loss(omni_ppl, ppl)),
                    format!("{saving:.2}x"),
                ]);
            }
        },
    );
    report.text("* VS-Quant applied post-training without its usual retraining, as in the paper.");
    report.text(
        "(paper, WikiText2: FIGNA ≈ -0.2%/1.23x; VS-Quant -10..-48%/4.0x; \
         Anda 0.1% ≈ -0.2%/1.8-3.1x; Anda 1% ≈ -1%/2.4-3.3x)",
    );
    report
}
