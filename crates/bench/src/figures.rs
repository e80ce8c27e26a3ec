//! The registry of paper artefacts behind the `figures` binary, what an
//! artefact returns, and the binary's command line.

mod accuracy;
mod extensions;
mod hardware;

use std::fmt;
use std::ops::RangeInclusive;

use anda_llm::corpus::CORPORA;
use anda_llm::modules::PrecisionCombo;

use crate::runs::Ctx;
use crate::Table;

/// One artefact of the paper's evaluation: an entry of [`FIGURES`].
pub struct Figure {
    /// The name `figures <name>` runs it by.
    pub name: &'static str,
    /// The paper artefact it regenerates (the README index row).
    pub artefact: &'static str,
    /// Computes the artefact over the shared context.
    pub run: fn(&mut Ctx) -> Report,
}

/// Declares [`FIGURES`]: an entry's name is its function's, so the two
/// cannot drift apart.
macro_rules! registry {
    ($($module:ident::$name:ident => $artefact:literal,)*) => {
        /// Every artefact, in README index order — the order `figures all`
        /// runs.
        pub const FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($name),
            artefact: $artefact,
            run: $module::$name,
        }),*];
    };
}

registry! {
    hardware::fig02_opshare => "Fig. 2 — FP-INT GeMM share of LLM operations",
    accuracy::fig05_groupsize => "Fig. 5 — BFP group-size sensitivity",
    accuracy::fig06_model_sensitivity => "Fig. 6 — per-model mantissa sensitivity",
    accuracy::fig07_module_sensitivity => "Fig. 7 — per-module mantissa sensitivity",
    hardware::fig08_workflows => "Fig. 8 — FP-FP vs FP-INT GeMM workflows",
    accuracy::fig09_search_trace => "Fig. 9 — adaptive precision search trace",
    accuracy::fig09_brute_force => "Fig. 9 — brute-force frontier comparison",
    accuracy::fig14_precision_combos => "Fig. 14 — accuracy across precision combinations",
    hardware::fig15_pe_level => "Fig. 15 — PE-level area/energy efficiency",
    hardware::fig16_system_level => "Fig. 16 — system-level speedup/efficiency",
    hardware::fig17_energy_breakdown => "Fig. 17 — energy breakdown",
    hardware::fig18_tradeoff => "Fig. 18 — accuracy/efficiency trade-off frontier",
    hardware::table1_formats => "Table I — activation format comparison",
    accuracy::table2_accuracy => "Table II — accuracy under each codec",
    hardware::table3_area_power => "Table III — Anda component area/power",
    extensions::decode_phase => "§VI — decode-phase + Anda KV cache synergy",
    extensions::ablation_extensions => "§VI — extension ablations",
}

/// One piece of an artefact's output.
#[derive(Clone, Debug)]
pub enum Block {
    /// A line of text (it may hold further newlines), printed with a
    /// trailing newline: a caption, a note, the paper-reference trailer.
    Text(String),
    /// A table.
    Table(Table),
}

/// What an artefact prints, in order; `Display` is the printed form.
#[derive(Clone, Debug, Default)]
pub struct Report(pub Vec<Block>);

impl Report {
    fn text(&mut self, line: impl Into<String>) {
        self.0.push(Block::Text(line.into()));
    }

    fn table(&mut self, table: Table) {
        self.0.push(Block::Table(table));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for block in &self.0 {
            match block {
                Block::Text(line) => writeln!(f, "{line}")?,
                Block::Table(table) => f.write_str(&table.render())?,
            }
        }
        Ok(())
    }
}

/// The corpus the single-corpus artefacts run on.
const WIKITEXT: &str = "wikitext2-sim";

/// The preserved mantissa lengths the sensitivity sweeps cover.
const MANTISSAS: RangeInclusive<u32> = 4..=13;

/// A table of `first` then one column per swept mantissa length.
fn mantissa_table(first: &str) -> Table {
    Table::new(
        [first.to_string()]
            .into_iter()
            .chain(MANTISSAS.map(|m| format!("M={m}"))),
    )
}

/// The combination Algorithm 1 finds for the context at tolerance δ, or
/// uniform `fallback` bits when nothing met the tolerance.
fn searched(
    ctx: &mut Ctx,
    model: &str,
    corpus: &str,
    tolerance: f64,
    fallback: u32,
) -> PrecisionCombo {
    ctx.search(model, corpus, tolerance)
        .best
        .unwrap_or(PrecisionCombo::uniform(fallback))
}

/// One `== corpus ==` table per corpus; `rows` appends the rows of one
/// (model, corpus) for each model the context's limit covers.
fn per_corpus(
    ctx: &mut Ctx,
    report: &mut Report,
    headers: &[&str],
    mut rows: impl FnMut(&mut Ctx, &str, &str, &mut Table),
) {
    for corpus in CORPORA {
        report.text(format!("== {} ==", corpus.name));
        let mut table = Table::new(headers);
        for spec in ctx.models() {
            rows(ctx, &spec.real.name, corpus.name, &mut table);
        }
        report.table(table);
        report.text("");
    }
}

/// The `figures` command line.
pub const USAGE: &str = "usage: figures <name>... | all | list [--quick | --models N]";

/// A checked `figures` command line.
pub enum Command {
    /// Print [`list`].
    List,
    /// Run `figures` in order over one [`Ctx`] limited to `models`.
    Run {
        /// The artefacts named (all of them for `all`).
        figures: Vec<&'static Figure>,
        /// `--quick` is the first 2 benchmark models, `--models N` the
        /// first N; artefacts that are not per-model ignore it.
        models: Option<usize>,
    },
}

/// The registry as `figures list` prints it: one `name  artefact` line each.
pub fn list() -> String {
    FIGURES
        .iter()
        .map(|f| format!("{:<26}{}\n", f.name, f.artefact))
        .collect()
}

/// Checks a command line (without the program name).
///
/// # Errors
///
/// Says why when an artefact name or a flag is unknown, `--models` lacks
/// a count, or nothing is named.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Command, String> {
    let (mut figures, mut list, mut quick, mut models) = (Vec::new(), false, false, None);
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => quick = true,
            "--models" => {
                let count = args.next().and_then(|v| v.parse().ok());
                models = Some(count.ok_or("--models needs a model count")?);
            }
            "list" => list = true,
            "all" => figures.extend(FIGURES),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => figures.push(
                FIGURES
                    .iter()
                    .find(|f| f.name == name)
                    .ok_or(format!("unknown artefact {name}"))?,
            ),
        }
    }
    if list {
        Ok(Command::List)
    } else if figures.is_empty() {
        Err("no artefact named".into())
    } else {
        let models = if quick { Some(2) } else { models };
        Ok(Command::Run { figures, models })
    }
}
