//! Compiler-loop parity benchmarks (`BENCH_compiler.json`): the Tables 6–7 comparison
//! re-run on top of the `fortrand::opt` compiler loop.
//!
//! Two scenarios, each compiled-vs-hand:
//!
//! * **CHARMM-style** — the three-coordinate non-bonded force sweep inside a `DO` time
//!   loop.  The optimizer fuses the X/Y/Z sweeps into one schedule group and hoists the
//!   inspector out of the time loop; the hand version is the `charmm` crate's
//!   production driver (`run_parallel`) on a zero-bond system with a BLOCK
//!   distribution and one merged schedule.  Both then execute exactly one fused gather
//!   and one fused scatter-add per step, so their executor message counts must be
//!   **equal** — that equality is the `--check` gate (and the acceptance pin of the
//!   compiler loop: compiler-generated code pays the same communication price as the
//!   hand-written node program).
//! * **DSMC-style** — the `REDUCE(APPEND)` particle-move template inside a `DO` loop
//!   with a drifting cell assignment.  The compiled program rebuilds a light-weight
//!   schedule per step from the replicated `icell` array; the hand version builds the
//!   same schedule from the same destinations.  Message counts must again be equal.
//!
//! Modeled executor times are reported for both versions (the Tables 6–7 "compiler
//! within a small factor of hand" story) but not gated — the gate is message parity,
//! which is exact.

use chaos::prelude::*;
use charmm::parallel::{ParallelCharmm, ParallelConfig, PartitionerKind, ScheduleMode};
use charmm::{MolecularSystem, SystemConfig};
use fortrand::Executor;
use mpsim::{run, ExchangeStats, MachineConfig};

use crate::report::Json;

/// The CHARMM-style Fortran-D source: three coordinate sweeps over one CSR neighbour
/// list, plus a list-age integer update, all inside the molecular-dynamics time loop.
pub fn charmm_loop_source(natoms: usize, list_len: usize, nsteps: usize) -> String {
    let dims = [("x", "dx"), ("y", "dy"), ("z", "dz")];
    let mut body = String::new();
    for (p, f) in dims {
        body.push_str(&format!(
            "FORALL i = 1, {n}\n\
             FORALL j = inblo(i), inblo(i+1) - 1\n\
             REDUCE(SUM, {f}(jnb(j)), {p}(jnb(j)) - {p}(i))\n\
             REDUCE(SUM, {f}(i), {p}(i) - {p}(jnb(j)))\n\
             END FORALL\n\
             END FORALL\n",
            n = natoms
        ));
    }
    format!(
        "REAL x({n}), y({n}), z({n}), dx({n}), dy({n}), dz({n})\n\
         INTEGER inblo({m}), jnb({k}), iage({n})\n\
         C$ DECOMPOSITION reg({n})\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, y, z, dx, dy, dz WITH reg\n\
         DO istep = 1, {s}\n\
         {body}\
         FORALL i = 1, {n}\n\
         iage(i) = iage(i) + 1\n\
         END FORALL\n\
         END DO\n",
        n = natoms,
        m = natoms + 1,
        k = list_len,
        s = nsteps
    )
}

/// The DSMC-style Fortran-D source: a `REDUCE(APPEND)` move followed by the cell
/// assignment drifting one cell forward (cyclically), per time step.
pub fn dsmc_loop_source(nparticles: usize, ncells: usize, nsteps: usize) -> String {
    format!(
        "REAL vel({np}), newvel({nc})\n\
         INTEGER icell({np})\n\
         C$ DECOMPOSITION parts({np})\n\
         C$ DECOMPOSITION cells({nc})\n\
         C$ DISTRIBUTE parts(BLOCK)\n\
         C$ DISTRIBUTE cells(BLOCK)\n\
         C$ ALIGN vel WITH parts\n\
         C$ ALIGN newvel WITH cells\n\
         DO istep = 1, {s}\n\
         FORALL i = 1, {np}\n\
         REDUCE(APPEND, newvel(icell(i)), vel(i))\n\
         END FORALL\n\
         FORALL i = 1, {np}\n\
         icell(i) = icell(i) - (icell(i) / {nc}) * {nc} + 1\n\
         END FORALL\n\
         END DO\n",
        np = nparticles,
        nc = ncells,
        s = nsteps
    )
}

/// One compiled-vs-hand comparison at a fixed processor count.  Message and byte
/// counts are summed over all ranks; times are the slowest rank's modeled executor
/// time in microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParityEntry {
    /// Processor count of the run.
    pub procs: usize,
    /// Executor messages the compiled program sent, summed over ranks and steps.
    pub compiled_msgs: u64,
    /// Executor messages the hand-written driver sent, summed the same way.
    pub hand_msgs: u64,
    /// Executor bytes the compiled program sent.
    pub compiled_bytes: u64,
    /// Executor bytes the hand-written driver sent.
    pub hand_bytes: u64,
    /// Modeled executor time of the compiled program (slowest rank, µs).
    pub compiled_time_us: f64,
    /// Modeled executor time of the hand driver (slowest rank, µs).
    pub hand_time_us: f64,
    /// Schedule builds the compiled program performed (CHARMM: must be 1 — the
    /// inspector was hoisted; DSMC: 0 — light-weight schedules have no inspector).
    pub compiled_schedule_builds: u64,
    /// Optimizer diagnostics that fired on the compiled source, as
    /// `(applied_hoist, applied_fuse, applied_overlap)` counts.
    pub applied_opts: (u64, u64, u64),
}

/// The zero-bond CHARMM-style workload: a synthetic system with its bonded topology
/// removed (the compiled template covers the non-bonded sweep only) and the global
/// neighbour list in 1-based CSR form.
pub fn charmm_workload(seed: u64) -> (MolecularSystem, Vec<i64>, Vec<i64>) {
    let mut system = MolecularSystem::build(&SystemConfig::small(seed));
    system.bonds.clear();
    let list =
        charmm::nonbonded::build_neighbor_list(&system.positions, system.box_size, system.cutoff);
    let inblo: Vec<i64> = list.offsets.iter().map(|&o| o as i64 + 1).collect();
    let jnb: Vec<i64> = list.partners.iter().map(|&p| p as i64 + 1).collect();
    (system, inblo, jnb)
}

fn count_applied(report: &fortrand::OptReport) -> (u64, u64, u64) {
    let count = |rule: &str| report.applied().filter(|d| d.rule.name() == rule).count() as u64;
    (count("hoist"), count("fuse"), count("overlap"))
}

/// Run the CHARMM-style comparison at `procs` ranks.
pub fn charmm_parity(procs: usize, seed: u64, nsteps: usize) -> ParityEntry {
    // Hand: the production driver, pinned to the configuration the compiled template
    // models — BLOCK distribution (identity partition), one merged schedule, no list
    // updates or repartitions inside the run.
    let hand = run(MachineConfig::new(procs), move |rank| {
        let (system, _, _) = charmm_workload(seed);
        let config = ParallelConfig {
            nsteps,
            list_update_interval: nsteps + 2,
            partitioner: PartitionerKind::Block,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: None,
            adapt_policy: None,
            monitor_group: None,
        };
        let stats = ParallelCharmm::run(rank, &system, &config);
        (
            stats.executor_exchange,
            stats.phases.executor.total_us(),
            stats.schedule_builds as u64,
        )
    });

    let compiled = run(MachineConfig::new(procs), move |rank| {
        let (system, inblo, jnb) = charmm_workload(seed);
        let natoms = system.natoms();
        let source = charmm_loop_source(natoms, jnb.len(), nsteps);
        let (optimized, report) = fortrand::compile(&source).expect("CHARMM template compiles");
        let mut exec = Executor::new(rank, &optimized);
        exec.set_integer_array("INBLO", &inblo);
        exec.set_integer_array("JNB", &jnb);
        let coord = |k: usize| -> Vec<f64> { system.positions.iter().map(|p| p[k]).collect() };
        exec.set_real_array("X", &coord(0));
        exec.set_real_array("Y", &coord(1));
        exec.set_real_array("Z", &coord(2));
        for f in ["DX", "DY", "DZ"] {
            exec.set_real_array(f, &vec![0.0; natoms]);
        }
        exec.run_all(rank);
        let (rebuilds, _patches, _reuses) = exec.group_stats(0);
        (
            exec.exchange_stats(),
            exec.phases().executor.total_us(),
            rebuilds,
            count_applied(&report),
        )
    });

    let sum_stats = |stats: &[ExchangeStats]| -> (u64, u64) {
        (
            stats.iter().map(|s| s.msgs_sent).sum(),
            stats.iter().map(|s| s.bytes_sent).sum(),
        )
    };
    let hand_exch: Vec<ExchangeStats> = hand.results.iter().map(|r| r.0).collect();
    let comp_exch: Vec<ExchangeStats> = compiled.results.iter().map(|r| r.0).collect();
    let (hand_msgs, hand_bytes) = sum_stats(&hand_exch);
    let (compiled_msgs, compiled_bytes) = sum_stats(&comp_exch);
    ParityEntry {
        procs,
        compiled_msgs,
        hand_msgs,
        compiled_bytes,
        hand_bytes,
        compiled_time_us: compiled.results.iter().map(|r| r.1).fold(0.0, f64::max),
        hand_time_us: hand.results.iter().map(|r| r.1).fold(0.0, f64::max),
        compiled_schedule_builds: compiled.results.iter().map(|r| r.2).max().unwrap_or(0),
        applied_opts: compiled.results[0].3,
    }
}

/// Deterministic 1-based initial cell assignment for the DSMC comparison.
pub fn dsmc_initial_cells(nparticles: usize, ncells: usize) -> Vec<i64> {
    (0..nparticles)
        .map(|i| (((i * 7 + i / 3) % ncells) + 1) as i64)
        .collect()
}

/// Message/byte accounting of one light-weight exchange, matching the interpreter's:
/// one message per non-empty cross-rank send list, `(u64, f64)` items on the wire.
fn lightweight_stats(sched: &LightweightSchedule, my_rank: usize) -> ExchangeStats {
    let item_bytes = std::mem::size_of::<(u64, f64)>() as u64;
    let mut stats = ExchangeStats::default();
    for (p, list) in sched.send_item_lists.iter().enumerate() {
        if p != my_rank && !list.is_empty() {
            stats.msgs_sent += 1;
            stats.bytes_sent += list.len() as u64 * item_bytes;
        }
    }
    for (p, &cnt) in sched.recv_counts.iter().enumerate() {
        if p != my_rank && cnt > 0 {
            stats.msgs_received += 1;
            stats.bytes_received += cnt as u64 * item_bytes;
        }
    }
    stats
}

/// Run the DSMC-style comparison at `procs` ranks.
pub fn dsmc_parity(procs: usize, np: usize, nc: usize, nsteps: usize) -> ParityEntry {
    // Hand: per step, build a light-weight schedule from the current cell assignment,
    // scatter-append the particle values, then drift the (replicated) assignment the
    // same way the compiled integer-update loop does.
    let hand = run(MachineConfig::new(procs), move |rank| {
        let me = rank.rank();
        let part_dist = BlockDist::new(np, rank.nprocs());
        let cell_dist = BlockDist::new(nc, rank.nprocs());
        let my_parts: Vec<usize> = part_dist.local_globals(me).collect();
        let vel: Vec<f64> = my_parts.iter().map(|&i| i as f64 * 0.5).collect();
        let mut icell = dsmc_initial_cells(np, nc);
        let t0 = rank.modeled();
        let mut exchange = ExchangeStats::default();
        for _step in 0..nsteps {
            let dests: Vec<usize> = my_parts
                .iter()
                .map(|&i| cell_dist.owner((icell[i] - 1) as usize))
                .collect();
            let payload: Vec<(u64, f64)> = my_parts
                .iter()
                .zip(&vel)
                .map(|(&i, &v)| ((icell[i] - 1) as u64, v))
                .collect();
            let sched = LightweightSchedule::build(rank, &dests);
            let arrivals = scatter_append(rank, &sched, &payload);
            exchange = exchange.merged(&lightweight_stats(&sched, me));
            rank.charge_compute(arrivals.len() as f64 * 0.3);
            let ncells = nc as i64;
            for v in icell.iter_mut() {
                *v = *v - (*v / ncells) * ncells + 1;
            }
        }
        (exchange, rank.modeled().since(&t0).total_us())
    });

    let compiled = run(MachineConfig::new(procs), move |rank| {
        let source = dsmc_loop_source(np, nc, nsteps);
        let (optimized, report) = fortrand::compile(&source).expect("DSMC template compiles");
        let mut exec = Executor::new(rank, &optimized);
        let vel: Vec<f64> = (0..np).map(|i| i as f64 * 0.5).collect();
        exec.set_real_array("VEL", &vel);
        exec.set_integer_array("ICELL", &dsmc_initial_cells(np, nc));
        exec.run_all(rank);
        (
            exec.exchange_stats(),
            exec.phases().executor.total_us(),
            count_applied(&report),
        )
    });

    ParityEntry {
        procs,
        compiled_msgs: compiled.results.iter().map(|r| r.0.msgs_sent).sum(),
        hand_msgs: hand.results.iter().map(|r| r.0.msgs_sent).sum(),
        compiled_bytes: compiled.results.iter().map(|r| r.0.bytes_sent).sum(),
        hand_bytes: hand.results.iter().map(|r| r.0.bytes_sent).sum(),
        compiled_time_us: compiled.results.iter().map(|r| r.1).fold(0.0, f64::max),
        hand_time_us: hand.results.iter().map(|r| r.1).fold(0.0, f64::max),
        compiled_schedule_builds: 0,
        applied_opts: compiled.results[0].2,
    }
}

/// Render one scenario's entries as a Tables 6–7 style text block.
pub fn format_parity(title: &str, entries: &[ParityEntry]) -> String {
    let mut out = format!("{title}\n");
    for e in entries {
        out.push_str(&format!(
            "  {:>3} procs: compiled {} msgs / {} bytes ({:.1} ms), hand {} msgs / {} bytes \
             ({:.1} ms), opts applied hoist={} fuse={} overlap={}\n",
            e.procs,
            e.compiled_msgs,
            e.compiled_bytes,
            e.compiled_time_us / 1000.0,
            e.hand_msgs,
            e.hand_bytes,
            e.hand_time_us / 1000.0,
            e.applied_opts.0,
            e.applied_opts.1,
            e.applied_opts.2,
        ));
    }
    out
}

/// The parity invariants the `--check` gate enforces.  Empty means all hold.
pub fn parity_violations(charmm: &[ParityEntry], dsmc: &[ParityEntry]) -> Vec<String> {
    let mut v = Vec::new();
    for e in charmm {
        if e.compiled_msgs != e.hand_msgs {
            v.push(format!(
                "CHARMM P={}: compiled sent {} messages, hand sent {}",
                e.procs, e.compiled_msgs, e.hand_msgs
            ));
        }
        if e.compiled_bytes != e.hand_bytes {
            v.push(format!(
                "CHARMM P={}: compiled sent {} bytes, hand sent {}",
                e.procs, e.compiled_bytes, e.hand_bytes
            ));
        }
        if e.compiled_schedule_builds != 1 {
            v.push(format!(
                "CHARMM P={}: expected exactly 1 hoisted schedule build, saw {}",
                e.procs, e.compiled_schedule_builds
            ));
        }
        let (hoists, fuses, overlaps) = e.applied_opts;
        if hoists == 0 || fuses == 0 || overlaps == 0 {
            v.push(format!(
                "CHARMM P={}: optimizer failed to fire (hoist={hoists}, fuse={fuses}, \
                 overlap={overlaps})",
                e.procs
            ));
        }
    }
    for e in dsmc {
        if e.compiled_msgs != e.hand_msgs {
            v.push(format!(
                "DSMC P={}: compiled sent {} messages, hand sent {}",
                e.procs, e.compiled_msgs, e.hand_msgs
            ));
        }
        if e.compiled_bytes != e.hand_bytes {
            v.push(format!(
                "DSMC P={}: compiled sent {} bytes, hand sent {}",
                e.procs, e.compiled_bytes, e.hand_bytes
            ));
        }
    }
    v
}

fn entry_json(e: &ParityEntry) -> Json {
    Json::obj(vec![
        ("procs", Json::uint(e.procs as u64)),
        ("compiled_msgs", Json::uint(e.compiled_msgs)),
        ("hand_msgs", Json::uint(e.hand_msgs)),
        ("compiled_bytes", Json::uint(e.compiled_bytes)),
        ("hand_bytes", Json::uint(e.hand_bytes)),
        // Rounded to whole microseconds: the raw modeled floats carry ~1e-11 of
        // accumulation jitter across runs, and the artifact must be byte-identical.
        (
            "compiled_time_us",
            Json::uint(e.compiled_time_us.round() as u64),
        ),
        ("hand_time_us", Json::uint(e.hand_time_us.round() as u64)),
        (
            "compiled_schedule_builds",
            Json::uint(e.compiled_schedule_builds),
        ),
        (
            "applied_opts",
            Json::obj(vec![
                ("hoist", Json::uint(e.applied_opts.0)),
                ("fuse", Json::uint(e.applied_opts.1)),
                ("overlap", Json::uint(e.applied_opts.2)),
            ]),
        ),
    ])
}

/// The `BENCH_compiler.json` document (schema `chaos-bench/compiler/v1`).  Contains no
/// wall-clock or host state, so repeated runs are byte-identical.
pub fn compiler_report(scale_name: &str, charmm: &[ParityEntry], dsmc: &[ParityEntry]) -> Json {
    Json::obj(vec![
        ("schema", Json::str("chaos-bench/compiler/v1")),
        ("scale", Json::str(scale_name)),
        ("charmm", Json::Arr(charmm.iter().map(entry_json).collect())),
        ("dsmc", Json::Arr(dsmc.iter().map(entry_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charmm_parity_is_exact_and_hoisted() {
        let e = charmm_parity(4, 3, 3);
        assert_eq!(e.compiled_msgs, e.hand_msgs, "{e:?}");
        assert_eq!(e.compiled_bytes, e.hand_bytes, "{e:?}");
        assert!(e.compiled_msgs > 0, "4 ranks must exchange something");
        assert_eq!(e.compiled_schedule_builds, 1, "inspector must be hoisted");
        let (h, f, o) = e.applied_opts;
        assert!(h >= 1 && f >= 1 && o >= 1, "{e:?}");
    }

    #[test]
    fn dsmc_parity_is_exact() {
        let e = dsmc_parity(4, 160, 24, 3);
        assert_eq!(e.compiled_msgs, e.hand_msgs, "{e:?}");
        assert_eq!(e.compiled_bytes, e.hand_bytes, "{e:?}");
        assert!(e.compiled_msgs > 0);
    }

    #[test]
    fn report_is_deterministic() {
        let a = charmm_parity(2, 5, 2);
        let b = charmm_parity(2, 5, 2);
        assert_eq!(a, b);
        let doc = compiler_report("quick", &[a], &[]);
        assert!(doc.render().contains("chaos-bench/compiler/v1"));
    }
}
