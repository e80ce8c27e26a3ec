//! The `kernels` micro-benchmark: every section prints its one table, a
//! named section prints alone, and the command line is checked.

use std::process::{Command, Output};

const SECTIONS: [&str; 8] = [
    "threads",
    "simd",
    "m_sweep",
    "decode_row",
    "attend",
    "group_dot",
    "conversion",
    "fp_int_gemm",
];

fn kernels(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kernels"))
        .args(args)
        .output()
        .expect("the kernels binary runs")
}

/// The `== name: …` heading of every section printed, in order, after
/// checking that a table (its separator line) follows each.
fn sections_printed(out: &Output) -> Vec<String> {
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let separators = stdout
        .lines()
        .filter(|line| !line.is_empty() && line.chars().all(|c| c == '-'))
        .count();
    let names: Vec<String> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("== "))
        .map(|heading| heading.split(':').next().unwrap().to_string())
        .collect();
    assert_eq!(separators, names.len(), "one table per section:\n{stdout}");
    names
}

#[test]
fn quick_prints_one_table_per_section_and_a_named_section_prints_alone() {
    assert_eq!(sections_printed(&kernels(&["--quick"])), SECTIONS);
    let named = kernels(&["decode_row", "--quick", "--threads", "3", "group_dot"]);
    assert_eq!(sections_printed(&named), ["decode_row", "group_dot"]);
}

#[test]
fn unchecked_arguments_exit_2_with_the_usage_line() {
    let bad: [(&[&str], &str); 7] = [
        (&["decode_rows"], "unknown section decode_rows"),
        (&["--quick", "--fast"], "unknown flag --fast"),
        (&["--threads"], "--threads needs thread counts"),
        (&["--threads", "2,x"], "--threads needs thread counts"),
        (&["--threads", "2,,4"], "--threads needs thread counts"),
        (&["--threads", "0"], "--threads needs thread counts"),
        (&["--threads", "--quick"], "--threads needs thread counts"),
    ];
    for (args, why) in bad {
        let out = kernels(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 3, "{args:?}: {stderr}");
        assert!(lines[0].starts_with(&format!("kernels: {why}")), "{stderr}");
        assert_eq!(
            lines[1],
            "usage: kernels [--quick] [--threads A,B,...] [section...]"
        );
        assert_eq!(lines[2], format!("sections: {}", SECTIONS.join(" ")));
    }
}
