//! Compiler-loop parity benchmarks (`BENCH_compiler.json`): the Tables 6–7 comparison
//! re-run on top of the `fortrand::opt` compiler loop, compiled against hand-written.
//!
//! * **CHARMM-style** — the three-coordinate non-bonded sweep inside a `DO` time loop,
//!   which the optimizer fuses into one schedule group and whose inspector it hoists,
//!   against the `charmm` production driver on a zero-bond system with a BLOCK
//!   distribution and one merged schedule;
//! * **DSMC-style** — the `REDUCE(APPEND)` move inside a `DO` loop with a drifting cell
//!   assignment, against the same light-weight schedule built by hand.
//!
//! `--check` gates exact message and byte parity (compiler-generated code pays the same
//! communication price as the hand-written node program); modeled executor times are
//! recorded but not gated.

use charmm::parallel::{ParallelCharmm, ParallelConfig, PartitionerKind, ScheduleMode};
use charmm::{MolecularSystem, SystemConfig};
use mpsim::{run, ExchangeStats, MachineConfig};

use crate::report::{stable_us, Artifact, Json};
use crate::workloads::{
    charmm_executor, csr_neighbor_list, dsmc_executor, lightweight_append_loop,
};
use crate::Scale;

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

/// The zero-bond CHARMM-style system: a synthetic system with its bonded topology removed
/// (the compiled template covers the non-bonded sweep only).
fn zero_bond_system(seed: u64) -> MolecularSystem {
    let mut system = MolecularSystem::build(&SystemConfig::small(seed));
    system.bonds.clear();
    system
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
        let system = zero_bond_system(seed);
        let config = ParallelConfig {
            nsteps,
            list_update_interval: nsteps + 2,
            partitioner: PartitionerKind::Block,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: None,
            adapt_policy: None,
        };
        let stats = ParallelCharmm::run(rank, &system, &config);
        (stats.executor_exchange, stats.phases.executor.total_us())
    });

    let compiled = run(MachineConfig::new(procs), move |rank| {
        let system = zero_bond_system(seed);
        let (inblo, jnb) = csr_neighbor_list(&system);
        let source = charmm_loop_source(system.natoms(), jnb.len(), nsteps);
        let (optimized, report) = fortrand::compile(&source).expect("CHARMM template compiles");
        let csr = (&inblo[..], &jnb[..]);
        let mut exec = charmm_executor(rank, &optimized, &system, csr, &["X", "Y", "Z"]);
        exec.run_all(rank);
        let (builds, _patches, _reuses) = exec.group_stats(0);
        let (exec_us, applied) = (exec.phases().executor.total_us(), count_applied(&report));
        (exec.exchange_stats(), exec_us, builds, applied)
    });

    parity_entry(procs, &hand.results, &compiled.results)
}

/// Deterministic 1-based initial cell assignment for the DSMC comparison.
pub fn dsmc_initial_cells(nparticles: usize, ncells: usize) -> Vec<i64> {
    (0..nparticles)
        .map(|i| (((i * 7 + i / 3) % ncells) + 1) as i64)
        .collect()
}

/// Run the DSMC-style comparison at `procs` ranks.
pub fn dsmc_parity(procs: usize, np: usize, nc: usize, nsteps: usize) -> ParityEntry {
    // Hand: per step, build a light-weight schedule from the current cell assignment and
    // scatter-append the particle values, then drift the (replicated) assignment the
    // same way the compiled integer-update loop does.
    let hand = run(MachineConfig::new(procs), move |rank| {
        let ncells = nc as i64;
        let cells = |step, icell: &mut Vec<i64>| {
            if step == 0 {
                *icell = dsmc_initial_cells(np, nc);
            } else {
                for v in icell.iter_mut() {
                    *v = *v - (*v / ncells) * ncells + 1;
                }
            }
        };
        let (total_us, exchange) = lightweight_append_loop(rank, np, nc, nsteps, cells);
        (exchange, total_us)
    });

    let compiled = run(MachineConfig::new(procs), move |rank| {
        let source = dsmc_loop_source(np, nc, nsteps);
        let (optimized, report) = fortrand::compile(&source).expect("DSMC template compiles");
        let mut exec = dsmc_executor(rank, &optimized, np);
        exec.set_integer_array("ICELL", &dsmc_initial_cells(np, nc));
        exec.run_all(rank);
        let exec_us = exec.phases().executor.total_us();
        // Light-weight schedules have no inspector: nothing to build.
        (exec.exchange_stats(), exec_us, 0, count_applied(&report))
    });
    parity_entry(procs, &hand.results, &compiled.results)
}

/// One rank of a compiled run: executor traffic, executor µs, schedule builds and the
/// applied `(hoist, fuse, overlap)` counts.
type CompiledRank = (ExchangeStats, f64, u64, (u64, u64, u64));

/// Fold the hand run's per-rank `(executor traffic, executor µs)` and the compiled run's
/// ranks into one entry.
fn parity_entry(
    procs: usize,
    hand: &[(ExchangeStats, f64)],
    compiled: &[CompiledRank],
) -> ParityEntry {
    let h = hand
        .iter()
        .fold(ExchangeStats::default(), |a, r| a.merged(&r.0));
    let c = compiled
        .iter()
        .fold(ExchangeStats::default(), |a, r| a.merged(&r.0));
    ParityEntry {
        procs,
        compiled_msgs: c.msgs_sent,
        hand_msgs: h.msgs_sent,
        compiled_bytes: c.bytes_sent,
        hand_bytes: h.bytes_sent,
        compiled_time_us: compiled.iter().map(|r| r.1).fold(0.0, f64::max),
        hand_time_us: hand.iter().map(|r| r.1).fold(0.0, f64::max),
        compiled_schedule_builds: compiled.iter().map(|r| r.2).max().unwrap_or(0),
        applied_opts: compiled[0].3,
    }
}

fn entry_json(e: &ParityEntry) -> Json {
    let (hoist, fuse, overlap) = e.applied_opts;
    let applied = Json::obj(vec![
        ("hoist", Json::uint(hoist)),
        ("fuse", Json::uint(fuse)),
        ("overlap", Json::uint(overlap)),
    ]);
    let builds = Json::uint(e.compiled_schedule_builds);
    Json::obj(vec![
        ("procs", Json::uint(e.procs as u64)),
        ("compiled_msgs", Json::uint(e.compiled_msgs)),
        ("hand_msgs", Json::uint(e.hand_msgs)),
        ("compiled_bytes", Json::uint(e.compiled_bytes)),
        ("hand_bytes", Json::uint(e.hand_bytes)),
        ("compiled_time_us", stable_us(e.compiled_time_us)),
        ("hand_time_us", stable_us(e.hand_time_us)),
        ("compiled_schedule_builds", builds),
        ("applied_opts", applied),
    ])
}

/// The `compiler` artifact: both scenarios at every compiler processor count of the
/// environment's [`Scale`], 5 time steps each.  Records no wall-clock or host state, so
/// repeated runs are byte-identical.
pub struct CompilerReport {
    scale: &'static str,
    charmm: Vec<ParityEntry>,
    dsmc: Vec<ParityEntry>,
}

impl CompilerReport {
    /// Run both comparisons at every `compiler_procs` point of [`Scale::from_env`].
    pub fn generate() -> Self {
        let (scale, name) = Scale::from_env();
        let procs = scale.compiler_procs.iter();
        CompilerReport {
            scale: name,
            charmm: procs.clone().map(|&p| charmm_parity(p, 1994, 5)).collect(),
            dsmc: procs.map(|&p| dsmc_parity(p, 64 * p, 8 * p, 5)).collect(),
        }
    }
}

impl Artifact for CompilerReport {
    const NAME: &'static str = "compiler";
    const VERSION: u32 = 1;

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let entries = |es: &[ParityEntry]| Json::Arr(es.iter().map(entry_json).collect());
        vec![
            ("scale", Json::str(self.scale)),
            ("charmm", entries(&self.charmm)),
            ("dsmc", entries(&self.dsmc)),
        ]
    }

    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (app, entries) in [("CHARMM", &self.charmm), ("DSMC", &self.dsmc)] {
            for e in entries {
                if (e.compiled_msgs, e.compiled_bytes) != (e.hand_msgs, e.hand_bytes) {
                    v.push(format!(
                        "{app} P={}: compiled sent {} messages / {} bytes, hand sent {} / {}",
                        e.procs, e.compiled_msgs, e.compiled_bytes, e.hand_msgs, e.hand_bytes
                    ));
                }
            }
        }
        for e in &self.charmm {
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
        v
    }
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
    fn violations_fire_on_broken_parity() {
        let clean = ParityEntry {
            procs: 4,
            compiled_msgs: 60,
            hand_msgs: 60,
            compiled_schedule_builds: 1,
            applied_opts: (1, 1, 1),
            ..ParityEntry::default()
        };
        let mut report = CompilerReport {
            scale: "quick",
            charmm: vec![clean.clone()],
            dsmc: vec![ParityEntry {
                compiled_schedule_builds: 0,
                ..clean.clone()
            }],
        };
        assert_eq!(report.violations(), Vec::<String>::new());
        report.charmm[0].compiled_bytes += 8;
        report.charmm[0].compiled_schedule_builds = 6;
        report.charmm[0].applied_opts.0 = 0;
        report.dsmc[0].hand_msgs += 1;
        let v = report.violations();
        assert_eq!(v.len(), 4, "{v:?}");
    }

    #[test]
    fn report_is_deterministic() {
        let a = charmm_parity(2, 5, 2);
        let b = charmm_parity(2, 5, 2);
        assert_eq!(a, b);
        let report = CompilerReport {
            scale: "quick",
            charmm: vec![a],
            dsmc: vec![],
        };
        let text = crate::report::document(&report).render();
        assert!(text.contains("chaos-bench/compiler/v1"));
        assert!(text.contains("chaos-bench -- compiler --json"));
    }
}
