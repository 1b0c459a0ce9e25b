//! Compiled-vs-hand parity for the `fortrand` compiler loop (Tables 6–7 style): the
//! CHARMM non-bonded time loop and the DSMC append loop, each run through
//! `fortrand::compile` and compared against the hand-written CHAOS drivers.
//!
//! `--json [PATH]` writes `BENCH_compiler.json` (schema `chaos-bench/compiler/v1`,
//! documented in `BENCHMARKS.md`).  The artifact records no wall-clock, so repeated
//! runs are byte-identical — CI regenerates it twice and fails on any difference.
//! `--check` exits non-zero unless, at every processor count, the compiled programs
//! send exactly the same executor messages and bytes as the hand drivers, the CHARMM
//! inspector was hoisted (exactly one schedule build for the whole run), and the
//! hoist/fuse/overlap analyses all fired.

use chaos_bench::compiler::{
    charmm_parity, compiler_report, dsmc_parity, format_parity, parity_violations,
};
use chaos_bench::report::{parse_json_flag, write_json_file};
use chaos_bench::Scale;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--check");
    let json_path = parse_json_flag(&args, "BENCH_compiler.json").unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!("usage: compiler_parity [--json [PATH]] [--check]");
        std::process::exit(2);
    });

    let (scale, scale_name) = Scale::from_env_named();
    let nsteps = 5;
    let mut charmm = Vec::new();
    let mut dsmc = Vec::new();
    for &p in &scale.compiler_procs {
        charmm.push(charmm_parity(p, 1994, nsteps));
        dsmc.push(dsmc_parity(p, 64 * p, 8 * p, nsteps));
    }
    println!(
        "{}",
        format_parity(
            "CHARMM non-bonded time loop (compiled vs hand, executor traffic summed over ranks):",
            &charmm
        )
    );
    println!(
        "{}",
        format_parity(
            "DSMC append time loop (compiled vs hand, light-weight schedules):",
            &dsmc
        )
    );

    if let Some(path) = json_path {
        let doc = compiler_report(scale_name, &charmm, &dsmc);
        match write_json_file(&path, &doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        let violations = parity_violations(&charmm, &dsmc);
        if violations.is_empty() {
            println!(
                "checks passed: compiled message and byte counts equal the hand drivers \
                 at every processor count; CHARMM inspector hoisted to a single build; \
                 hoist/fuse/overlap all applied"
            );
        } else {
            eprintln!("compiler parity regression:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
