//! `chaos-bench`: regenerate, print and gate the committed `BENCH_*.json` artifacts, one
//! subcommand each (`chaos_bench::report::usage`).  `CHAOS_PAPER_SCALE` selects the scale
//! of `tables` and `compiler`.  A bad command line prints the usage and exits 2.

use std::process::ExitCode;

use chaos_bench::report::{emit, parse_args, usage};
use chaos_bench::{
    AdaptReport, Artifact, CompilerReport, DeltaReport, ExchangeReport, LocReport, TablesReport,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("chaos-bench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match cmd.sub {
        TablesReport::NAME => emit(&TablesReport::generate(cmd.only.as_deref()), &cmd),
        ExchangeReport::NAME => emit(&ExchangeReport::generate(), &cmd),
        AdaptReport::NAME => emit(&AdaptReport::generate(), &cmd),
        DeltaReport::NAME => emit(&DeltaReport::generate(), &cmd),
        CompilerReport::NAME => emit(&CompilerReport::generate(), &cmd),
        LocReport::NAME => emit(&LocReport::generate(), &cmd),
        other => unreachable!("parse_args accepted unknown subcommand {other}"),
    }
}
