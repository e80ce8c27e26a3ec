//! Regenerates the paper's tables and figures (README, "Paper figure /
//! table index"): the named artefacts of `anda_bench::FIGURES` run in
//! order over one memoising `anda_bench::Ctx`, so what one prepared or
//! searched the next reads. Reports go to stdout — deterministic, and
//! diffed by `tools/figures_quick.sh` — and what the context built goes to
//! stderr.
//!
//! Usage: `figures <name>... | all | list [--quick | --models N]`

use std::process::ExitCode;

use anda_bench::{list, parse, Command, Ctx, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figures, models) = match parse(&args) {
        Ok(Command::Run { figures, models }) => (figures, models),
        Ok(Command::List) => {
            print!("{}", list());
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprint!("figures: {why}\n{USAGE}\n{}", list());
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(models);
    for figure in &figures {
        if figures.len() > 1 {
            println!("# {}", figure.name);
        }
        print!("{}", (figure.run)(&mut ctx));
    }
    let built = ctx.counts();
    eprintln!(
        "figures: {} contexts prepared, {} searches, {} calibration perplexities",
        built.prepared, built.searched, built.evaluated
    );
    ExitCode::SUCCESS
}
