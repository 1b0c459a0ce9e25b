//! `fortrand_check` — run the full compiler loop (lower, optimize, SPMD
//! collective-matching analysis) over Fortran-D sources.
//!
//! ```text
//! fortrand_check [--report] [--expect-clean | --expect-flagged]
//!                [--expect-opt RULE]... [--expect-blocked RULE]... FILE...
//! ```
//!
//! Every file is compiled, run through the optimizer (`fortrand::opt`), and the
//! collective-matching analysis is run over the *optimized* program — the gate proves
//! the optimizer neither hides a divergence nor introduces a split-phase imbalance.
//!
//! Without an expectation flag, exits nonzero iff any file fails to compile or has
//! findings.  With `--expect-clean`, findings are failures (the CI gate for example
//! programs); with `--expect-flagged`, a file with *no* findings is the failure (the CI
//! gate for seeded-divergent fixtures — it proves the analysis still catches them).
//!
//! `--report` prints the optimizer's diagnostics (applied and blocked, with source
//! lines).  `--expect-opt hoist|fuse|overlap` fails unless the named analysis fired on
//! every file; `--expect-blocked RULE` fails unless the named analysis reported a
//! blocked opportunity — the CI gates for the clean and deliberately-blocked fixtures.

use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Expectation {
    None,
    Clean,
    Flagged,
}

const USAGE: &str = "usage: fortrand_check [--report] [--expect-clean | --expect-flagged] \
     [--expect-opt RULE]... [--expect-blocked RULE]... FILE...";

fn valid_rule(rule: &str) -> bool {
    matches!(rule, "hoist" | "fuse" | "overlap")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut expect = Expectation::None;
    let mut report_mode = false;
    let mut expect_opt: Vec<String> = Vec::new();
    let mut expect_blocked: Vec<String> = Vec::new();
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--expect-clean" => expect = Expectation::Clean,
            "--expect-flagged" => expect = Expectation::Flagged,
            "--report" => report_mode = true,
            "--expect-opt" | "--expect-blocked" => {
                let flag = args[i].clone();
                i += 1;
                let Some(rule) = args.get(i) else {
                    eprintln!("fortrand_check: {flag} needs a rule name (hoist|fuse|overlap)");
                    return ExitCode::FAILURE;
                };
                if !valid_rule(rule) {
                    eprintln!(
                        "fortrand_check: unknown rule {rule:?} for {flag} (hoist|fuse|overlap)"
                    );
                    return ExitCode::FAILURE;
                }
                if flag == "--expect-opt" {
                    expect_opt.push(rule.clone());
                } else {
                    expect_blocked.push(rule.clone());
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("fortrand_check: unknown option {other}");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let (optimized, opt_report) = match fortrand::compile(&source) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{file}: compile error: {e}");
                failed = true;
                continue;
            }
        };
        if report_mode {
            let rendered = opt_report.render();
            if rendered.is_empty() {
                println!("{file}: no optimization opportunities");
            } else {
                println!("{file}:");
                for line in rendered.lines() {
                    println!("  {line}");
                }
            }
        }
        for rule in &expect_opt {
            if !opt_report.has_applied(rule, "") {
                eprintln!("{file}: FAIL — expected the {rule} analysis to fire, it did not");
                failed = true;
            }
        }
        for rule in &expect_blocked {
            if !opt_report.has_blocked(rule, "") {
                eprintln!("{file}: FAIL — expected a blocked {rule} diagnostic, found none");
                failed = true;
            }
        }
        let findings = fortrand::analysis::analyze(&fortrand::analysis::op_tree(&optimized));
        match (expect, findings.is_empty()) {
            (Expectation::Flagged, true) => {
                eprintln!(
                    "{file}: FAIL — expected the analysis to flag this fixture, found nothing"
                );
                failed = true;
            }
            (Expectation::Flagged, false) => {
                println!(
                    "{file}: flagged as expected ({} finding(s))",
                    findings.len()
                );
                for f in &findings {
                    println!("  - {}", f.message);
                }
            }
            (_, true) => println!("{file}: clean"),
            (Expectation::Clean | Expectation::None, false) => {
                eprintln!("{file}: FAIL — {} finding(s)", findings.len());
                for f in &findings {
                    eprintln!("  - {}", f.message);
                }
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
