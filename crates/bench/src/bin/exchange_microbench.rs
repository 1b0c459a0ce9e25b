//! Steady-state microbenchmarks of the unified exchange engine.
//!
//! Runs the engine-shaped loops of `chaos_bench::microbench` (CHARMM gather/scatter,
//! DSMC append, CHARMM remap) on an 8-rank simulated machine, sweeps the gather/scatter
//! and append shapes over machine sizes (P = 2–64), payload element sizes (8–64 bytes)
//! and exchange backends (modeled vs shared-memory at P = 1–8), runs the collective
//! scaling sweep of `chaos_bench::collective` (P = 32–1024), and prints a summary.  With
//! `--json [PATH]`, also writes the machine-readable report (`BENCH_exchange.json` by
//! default; schema `chaos-bench/exchange/v7` in `BENCHMARKS.md`).  With `--check`,
//! exits non-zero if any loop violates a pinned invariant:
//!
//! * zero buffer-pool allocations after warm-up for every borrow-only loop (the
//!   steady-state gate) — applied to **every** microbenchmark section the report
//!   carries: the gated loop set is the section list itself, so a loop cannot enter the
//!   artifact ungated;
//! * backends agree on fingerprints, wire statistics and modeled time (the backend
//!   gate; their wall-clock ratio is reported, not gated);
//! * every collective within its log-depth message budget, and the O(1)-payload
//!   collectives' modeled time at P = 1024 within 2.5x of P = 32 (the scaling gate);
//! * patched schedules byte-identical to rebuilds, DSMC physics and wire traffic
//!   independent of the upkeep route, and steady-state patching under 50% of the
//!   rebuild cost (the delta gate — the same scenarios `delta_scenarios` records).

use chaos_bench::collective::{collective_scaling_violations, collective_sweep};
use chaos_bench::delta::{
    cache_lifecycle, delta_section, delta_violations, dsmc_drift, schedule_drift, DriftParams,
    DsmcDeltaParams,
};
use chaos_bench::microbench::{
    backend_equivalence_violations, exchange_report, host_cores, microbench_sections,
    steady_state_violations, MicrobenchConfig,
};
use chaos_bench::report::{parse_json_flag, write_json_file};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--check");
    let json_path = parse_json_flag(&args, "BENCH_exchange.json").unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!("usage: exchange_microbench [--json [PATH]] [--check]");
        std::process::exit(2);
    });

    let cfg = MicrobenchConfig::default();
    println!(
        "exchange engine microbenchmarks ({} ranks, {} warmup + {} measured iterations, \
         host cores: {})",
        cfg.ranks,
        cfg.warmup_iters,
        cfg.measured_iters,
        host_cores()
    );
    let sections = microbench_sections(&cfg);
    for (name, rows) in &sections {
        println!("{name}:");
        for r in rows {
            println!("{}", r.summary_line());
        }
    }
    println!("collective sweep (log-depth scaling, P = 32-1024):");
    let collectives = collective_sweep();
    for r in &collectives {
        println!("{}", r.summary_line());
    }
    println!("delta maintenance (patch vs rebuild, drifting indirection + drifting DSMC):");
    let drift = schedule_drift(&DriftParams::default_drift(8));
    let dsmc = dsmc_drift(&DsmcDeltaParams::default_dsmc(16));
    let cache = cache_lifecycle(8, 8);
    println!(
        "  schedule_drift: steady patch {:.0} us vs rebuild {:.0} us, byte-identical: {}, \
         wall {:.1} ms",
        drift.steady_patch_us, drift.steady_rebuild_us, drift.byte_identical, drift.wall_ms
    );
    println!(
        "  dsmc_drift: upkeep patch {:.0} us vs rebuild {:.0} us, fingerprints match: {}, \
         wire traffic equal: {}, wall {:.1} ms",
        dsmc.patch_upkeep_us,
        dsmc.rebuild_upkeep_us,
        dsmc.fingerprints_match,
        dsmc.data_exchange_equal,
        dsmc.wall_ms
    );

    if let Some(path) = json_path {
        let doc = exchange_report(
            &sections,
            &collectives,
            delta_section(&drift, &dsmc, &cache),
        );
        write_json_file(&path, &doc).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    if check {
        // The gated loop set is derived from the report sections themselves — every
        // row that lands in the artifact is steady-state gated, with no separate
        // name list to drift out of sync.
        let mut violations = Vec::new();
        let mut gated_loops = 0;
        for (name, rows) in &sections {
            gated_loops += rows.len();
            violations.extend(steady_state_violations(rows));
            if *name == "backend_sweep" {
                violations.extend(backend_equivalence_violations(rows));
            }
        }
        violations.extend(collective_scaling_violations(&collectives));
        violations.extend(delta_violations(&drift, &dsmc));
        if violations.is_empty() {
            println!(
                "checks passed: 0 allocations after warm-up across {gated_loops} loops \
                 in {} sections; backends equivalent; {} collective points within the \
                 log-depth message and time budgets; delta maintenance byte-identical and \
                 under the 50% patch-cost bound",
                sections.len(),
                collectives.len()
            );
        } else {
            eprintln!("benchmark invariant regression:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
