//! The `figures` harness: one context really is shared, the registry is
//! the README index, and the command line is checked.

use std::collections::HashSet;
use std::process::{Command, Output};

use anda_bench::{list, Ctx, FIGURES, USAGE};
use anda_llm::corpus::CORPORA;

#[test]
fn a_second_fig14_builds_nothing_and_memoised_searches_equal_fresh_ones() {
    let fig14 = FIGURES
        .iter()
        .find(|f| f.name == "fig14_precision_combos")
        .expect("Fig. 14 is registered");
    let mut ctx = Ctx::new(Some(1));
    let first = (fig14.run)(&mut ctx).to_string();
    let built = ctx.counts();
    assert_eq!((built.prepared, built.searched), (3, 6));
    assert!(built.evaluated > 0);

    assert_eq!((fig14.run)(&mut ctx).to_string(), first);
    assert_eq!(
        ctx.counts(),
        built,
        "the second run prepared, searched or evaluated again"
    );

    for corpus in CORPORA {
        for tolerance in [0.001, 0.01] {
            let memoised = ctx.search("OPT-1.3B", corpus.name, tolerance);
            let fresh = ctx.prepared("OPT-1.3B", corpus.name).search(tolerance);
            assert_eq!(memoised.best, fresh.best);
            assert_eq!(memoised.best_bops, fresh.best_bops);
            assert_eq!(memoised.baseline_ppl, fresh.baseline_ppl);
            assert_eq!(memoised.trace, fresh.trace);
        }
    }
    assert_eq!(ctx.counts(), built);
}

#[test]
fn registry_names_are_unique_and_list_is_the_readme_index() {
    let names: HashSet<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), FIGURES.len());

    let readme = include_str!("../../../README.md");
    let index = readme
        .split("## Paper figure / table index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("README has the index section");
    let rows: String = index
        .lines()
        .filter_map(|line| line.strip_prefix("| `figures "))
        .map(|row| {
            let (name, artefact) = row.split_once("` | ").expect("a two-column row");
            format!("{name:<26}{}\n", artefact.trim_end_matches(" |"))
        })
        .collect();
    assert_eq!(list(), rows);
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs")
}

#[test]
fn unchecked_arguments_exit_2_with_usage_and_list() {
    let bad: [(&[&str], &str); 6] = [
        (&["fig15_pe_levle"], "unknown artefact fig15_pe_levle"),
        (&["table3_area_power", "--fast"], "unknown flag --fast"),
        (
            &["table3_area_power", "--models", "x"],
            "--models needs a model count",
        ),
        (
            &["table3_area_power", "--models"],
            "--models needs a model count",
        ),
        (&["--quick"], "no artefact named"),
        (&[], "no artefact named"),
    ];
    for (args, why) in bad {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            format!("figures: {why}\n{USAGE}\n{}", list()),
            "{args:?}"
        );
    }

    let listed = figures(&["list"]);
    assert_eq!(listed.status.code(), Some(0));
    assert_eq!(String::from_utf8(listed.stdout).unwrap(), list());

    // An artefact that is not per-model ignores the limit.
    let plain = figures(&["table3_area_power"]);
    assert_eq!(plain.status.code(), Some(0));
    for limit in [&["--quick"][..], &["--models", "1"]] {
        let limited = figures(&[&["table3_area_power"], limit].concat());
        assert_eq!(limited.status.code(), Some(0));
        assert_eq!(limited.stdout, plain.stdout);
    }
}
