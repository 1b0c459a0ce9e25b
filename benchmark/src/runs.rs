//! One whole run of a workload — through the product's driver (`run_app`) or through
//! the replay (`run_replay`) — and the checks on its result.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::replay::{compiled, irregular, particles, LoopTotals};
use crate::surface::*;
use crate::trace::{NoTrace, Span, Tracer};
use crate::workloads::{generate, Input, Scale, Steps, Workload, MODEL_RANKS, WALL_RANKS};

/// Layer metrics read from a run's return values, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

pub struct RunResult {
    /// The result in a canonical order: positions by global atom (CHARMM), `DX DY DZ`
    /// (compiled), `x` (drift); empty for DSMC, whose result is `fingerprint`.
    pub values: Vec<f64>,
    pub fingerprint: particles::Fingerprint,
    /// Structural problems found while collecting the result; empty when sound.
    pub problems: Vec<String>,
    /// Modeled execution time, maximum over ranks (the paper's convention).
    pub modeled_s: f64,
    pub counts: Counts,
    /// Wall time of `mpsim::run` alone: spawn, the SPMD closure, join.
    pub machine_wall_s: f64,
    /// Spans per track; ranks first, then the main thread if it recorded any.
    pub tracks: Vec<Vec<Span>>,
}

impl RunResult {
    pub fn hash(&self) -> u64 {
        result_hash(&self.values, &self.fingerprint)
    }
}

/// FNV-1a over the bits of a result: equal hashes mean bit-identical results.
fn result_hash(values: &[f64], fingerprint: &particles::Fingerprint) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in values {
        eat(v.to_bits());
    }
    for (cell, ids) in fingerprint {
        eat(*cell as u64);
        eat(ids.len() as u64);
        ids.iter().copied().for_each(&mut eat);
    }
    h
}

/// Whole microseconds: raw modeled floats carry accumulation jitter in the last bits.
fn snap_s(us: f64) -> f64 {
    us.round() / 1e6
}

fn max_s<R>(results: &[R], pick: impl Fn(&R) -> f64) -> f64 {
    snap_s(results.iter().map(pick).fold(0.0, f64::max))
}

fn sum<R>(results: &[R], pick: impl Fn(&R) -> u64) -> f64 {
    results.iter().map(pick).sum::<u64>() as f64
}

/// A count every rank holds the same value of.
fn replicated<R>(results: &[R], pick: impl Fn(&R) -> usize) -> usize {
    results.iter().map(pick).max().unwrap_or(0)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn served_ratio(caches: impl Iterator<Item = CacheStats>) -> f64 {
    let (mut served, mut requests) = (0, 0);
    for c in caches {
        served += c.hits + c.patches;
        requests += c.hits + c.patches + c.misses;
    }
    ratio(served, requests)
}

/// Run `f` on a machine and start the result from what every workload has: the
/// `mpsim.*` counts, the load-balance index, modeled time and the machine's wall time.
fn launch<R, F>(ranks: usize, backend: ExchangeBackend, f: F) -> (RunOutcome<R>, RunResult)
where
    R: Send + 'static,
    F: Fn(&mut Rank) -> R + Send + Sync + 'static,
{
    let started = Instant::now();
    let out = run(MachineConfig::new(ranks).with_backend(backend), f);
    let machine_wall_s = started.elapsed().as_secs_f64();
    let total = out.machine_stats().total;
    let pool = out.pool_totals();
    let reused = pool.reuses + pool.decode_reuses;
    let requested = pool.requests() + pool.decode_requests();
    let counts = Counts::from([
        ("mpsim.msgs", total.msgs_sent as f64),
        ("mpsim.bytes", total.bytes_sent as f64),
        ("mpsim.collectives", total.collectives as f64),
        ("mpsim.comm_modeled_s", max_s(&out.times, |t| t.comm_us)),
        (
            "mpsim.pool_allocs",
            (pool.allocations + pool.decode_allocations) as f64,
        ),
        ("mpsim.pool_reuse_ratio", ratio(reused, requested)),
        ("chaos.lb_index", out.load_balance_index()),
    ]);
    let result = RunResult {
        values: Vec::new(),
        fingerprint: Vec::new(),
        problems: Vec::new(),
        modeled_s: snap_s(out.max_total_us()),
        counts,
        machine_wall_s,
        tracks: Vec::new(),
    };
    (out, result)
}

/// Positions by global atom from the ranks' owned lists, with the structural checks:
/// every atom owned exactly once, every coordinate finite and inside the box.
fn collect_positions<'a>(
    system: &MolecularSystem,
    per_rank: impl Iterator<Item = &'a irregular::OwnedPositions>,
    result: &mut RunResult,
) {
    let natoms = system.natoms();
    let mut values = vec![f64::NAN; 3 * natoms];
    let mut owners = vec![0u32; natoms];
    for owned in per_rank {
        for &(g, p) in owned {
            owners[g] += 1;
            values[3 * g..3 * g + 3].copy_from_slice(&p);
        }
    }
    if let Some(g) = owners.iter().position(|&n| n != 1) {
        result
            .problems
            .push(format!("atom {g} is owned by {} ranks", owners[g]));
    }
    if let Some(v) = values
        .iter()
        .find(|v| !(0.0..=system.box_size).contains(*v))
    {
        result
            .problems
            .push(format!("coordinate {v} is not finite and inside the box"));
    }
    result.values = values;
}

/// The DSMC result from the ranks' fingerprints: no cell on two ranks, no molecule lost.
fn collect_fingerprint(
    per_rank: Vec<particles::Fingerprint>,
    molecules: usize,
    result: &mut RunResult,
) {
    let mut all: particles::Fingerprint = per_rank.into_iter().flatten().collect();
    all.sort_unstable();
    if let Some(pair) = all.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        result
            .problems
            .push(format!("cell {} is held by two ranks", pair[0].0));
    }
    let held: usize = all.iter().map(|(_, ids)| ids.len()).sum();
    if held != molecules {
        result.problems.push(format!(
            "{held} molecules at the end, {molecules} at the start"
        ));
    }
    result.fingerprint = all;
}

fn charmm_counts(r: &[CharmmStepStats]) -> [(&'static str, f64); 13] {
    let inspector = |s: &CharmmStepStats| {
        (s.phases.schedule_generation + s.phases.schedule_regeneration).total_us()
    };
    [
        (
            "chaos.partition_modeled_s",
            max_s(r, |s| s.phases.data_partition.total_us()),
        ),
        (
            "chaos.remap_modeled_s",
            max_s(r, |s| s.phases.remap.total_us()),
        ),
        ("chaos.inspector_modeled_s", max_s(r, inspector)),
        (
            "chaos.executor_modeled_s",
            max_s(r, |s| s.phases.executor.total_us()),
        ),
        (
            "chaos.executor_comm_modeled_s",
            max_s(r, |s| s.phases.executor.comm_us),
        ),
        (
            "chaos.monitor_modeled_s",
            max_s(r, |s| s.phases.monitor.total_us()),
        ),
        (
            "chaos.executor_msgs",
            sum(r, |s| s.executor_exchange.msgs_sent),
        ),
        (
            "chaos.executor_bytes",
            sum(r, |s| s.executor_exchange.bytes_sent),
        ),
        (
            "chaos.schedule_builds",
            replicated(r, |s| s.schedule_builds) as f64,
        ),
        (
            "chaos.cache_served_ratio",
            served_ratio(r.iter().map(|s| s.cache_stats)),
        ),
        ("chaos.remaps", replicated(r, |s| s.repartitions) as f64),
        (
            "charmm.list_update_modeled_s",
            max_s(r, |s| s.phases.list_update.total_us()),
        ),
        ("charmm.interactions", sum(r, |s| s.interactions as u64)),
    ]
}

fn dsmc_counts(r: &[DsmcStats], nsteps: usize) -> [(&'static str, f64); 10] {
    let remaps = replicated(r, |s| s.remaps);
    let inspector = |s: &DsmcStats| (s.phases.move_preprocess + s.phases.move_upkeep).total_us();
    [
        (
            "chaos.partition_modeled_s",
            max_s(r, |s| s.phases.remap_partition.total_us()),
        ),
        (
            "chaos.remap_modeled_s",
            max_s(r, |s| s.phases.remap_migrate.total_us()),
        ),
        ("chaos.inspector_modeled_s", max_s(r, inspector)),
        (
            "chaos.executor_modeled_s",
            max_s(r, |s| s.phases.move_data.total_us()),
        ),
        (
            "chaos.executor_comm_modeled_s",
            max_s(r, |s| s.phases.move_data.comm_us),
        ),
        (
            "chaos.monitor_modeled_s",
            max_s(r, |s| s.phases.monitor.total_us()),
        ),
        // One light-weight schedule per MOVE phase and one per remap migration.
        ("chaos.schedule_builds", (nsteps + remaps) as f64),
        ("chaos.remaps", remaps as f64),
        (
            "dsmc.collide_modeled_s",
            max_s(r, |s| s.phases.collide.total_us()),
        ),
        ("dsmc.migrations", sum(r, |s| s.migrations as u64)),
    ]
}

/// The inspector and executor counts of a benchmark-owned driver.
fn loop_counts(r: &[&LoopTotals]) -> [(&'static str, f64); 6] {
    [
        (
            "chaos.inspector_modeled_s",
            max_s(r, |t| t.inspector.total_us()),
        ),
        (
            "chaos.executor_modeled_s",
            max_s(r, |t| t.executor.total_us()),
        ),
        (
            "chaos.executor_comm_modeled_s",
            max_s(r, |t| t.executor.comm_us),
        ),
        ("chaos.executor_msgs", sum(r, |t| t.executor_msgs)),
        ("chaos.executor_bytes", sum(r, |t| t.executor_bytes)),
        (
            "chaos.cache_served_ratio",
            served_ratio(r.iter().map(|t| t.cache)),
        ),
    ]
}

/// One whole run through the product's own driver.  `compiled_charmm` and
/// `inspector_drift` have no product driver: theirs is the benchmark's, spans off.
pub fn run_app(input: &Input, ranks: usize, backend: ExchangeBackend) -> Result<RunResult, String> {
    match input {
        Input::Charmm { system, config } => {
            let (sys, cfg) = (Arc::clone(system), config.clone());
            let (out, mut result) = launch(ranks, backend, move |rank| {
                ParallelCharmm::run(rank, &sys, &cfg)
            });
            result.counts.extend(charmm_counts(&out.results));
            collect_positions(
                system,
                out.results.iter().map(|s| &s.owned_positions),
                &mut result,
            );
            Ok(result)
        }
        Input::Dsmc {
            grid,
            particles,
            config,
        } => {
            let (grid, parts, cfg) = (*grid, Arc::clone(particles), config.clone());
            let (out, mut result) = launch(ranks, backend, move |rank| {
                run_dsmc(rank, &grid, &parts, &cfg)
            });
            result
                .counts
                .extend(dsmc_counts(&out.results, config.nsteps));
            let fingerprints = out.results.into_iter().map(|s| s.fingerprint).collect();
            collect_fingerprint(fingerprints, particles.len(), &mut result);
            Ok(result)
        }
        Input::Compiled(_) | Input::Drift(_) => {
            run_replay::<NoTrace>(input, ranks, backend, Instant::now(), 0)
        }
    }
}

/// One whole run through the replay, recording into `T`.  Spans of this run carry the
/// run id `run_id`.
pub fn run_replay<T: Tracer + 'static>(
    input: &Input,
    ranks: usize,
    backend: ExchangeBackend,
    epoch: Instant,
    run_id: u32,
) -> Result<RunResult, String> {
    match input {
        Input::Charmm { system, config } => {
            let (sys, cfg) = (Arc::clone(system), config.clone());
            let (out, mut result) = launch(ranks, backend, move |rank| {
                let mut tr = T::start(epoch, rank.rank(), run_id);
                let owned = irregular::replay_charmm(rank, &sys, &cfg, &mut tr);
                (owned, tr.finish())
            });
            collect_positions(system, out.results.iter().map(|r| &r.0), &mut result);
            result.tracks = out.results.into_iter().map(|r| r.1).collect();
            Ok(result)
        }
        Input::Dsmc {
            grid,
            particles,
            config,
        } => {
            let (grid, parts, cfg) = (*grid, Arc::clone(particles), config.clone());
            let (out, mut result) = launch(ranks, backend, move |rank| {
                let mut tr = T::start(epoch, rank.rank(), run_id);
                let fingerprint = particles::replay_dsmc(rank, &grid, &parts, &cfg, &mut tr);
                (fingerprint, tr.finish())
            });
            let (fingerprints, tracks) = out.results.into_iter().unzip();
            collect_fingerprint(fingerprints, particles.len(), &mut result);
            result.tracks = tracks;
            Ok(result)
        }
        Input::Compiled(input) => {
            let mut main = T::start(epoch, ranks, run_id);
            let compiled = compiled::compile(&input.source, &mut main)?;
            let program = Arc::new(compiled.program);
            let shared = Arc::clone(input);
            let (out, mut result) = launch(ranks, backend, move |rank| {
                let mut tr = T::start(epoch, rank.rank(), run_id);
                let executed = compiled::execute(rank, &program, &shared, &mut tr);
                (executed, tr.finish())
            });
            let r: Vec<&compiled::Executed> = out.results.iter().map(|r| &r.0).collect();
            let rebuilds = r.iter().map(|e| e.schedule_rebuilds).max().unwrap_or(0) as f64;
            let totals: Vec<&LoopTotals> = r.iter().map(|e| &e.totals).collect();
            result.counts.extend(loop_counts(&totals));
            result.counts.extend([
                ("chaos.remap_modeled_s", max_s(&r, |e| e.remap.total_us())),
                ("chaos.schedule_builds", rebuilds),
                ("fortrand.schedule_rebuilds", rebuilds),
                ("fortrand.ir_steps", compiled.ir_steps as f64),
                ("fortrand.opt_applied", compiled.opt_applied as f64),
            ]);
            if r.iter().any(|e| e.forces != r[0].forces) {
                result
                    .problems
                    .push("ranks disagree on the gathered DX/DY/DZ".to_string());
            }
            result.values = r[0].forces.concat();
            result.tracks = out.results.into_iter().map(|r| r.1).collect();
            result.tracks.push(main.finish());
            Ok(result)
        }
        Input::Drift(input) => {
            let shared = Arc::clone(input);
            let (out, mut result) = launch(ranks, backend, move |rank| {
                let mut tr = T::start(epoch, rank.rank(), run_id);
                let stats = irregular::run_drift(rank, &shared, &mut tr);
                (stats, tr.finish())
            });
            let totals: Vec<&LoopTotals> = out.results.iter().map(|r| &r.0.totals).collect();
            result.counts.extend(loop_counts(&totals));
            // One schedule request per step: the first builds, the rest patch.
            result
                .counts
                .insert("chaos.schedule_builds", input.nsteps as f64);
            let (stats, tracks): (Vec<irregular::DriftStats>, _) = out.results.into_iter().unzip();
            // BLOCK distribution: rank order is global order.
            result.values = stats.into_iter().flat_map(|s| s.owned_x).collect();
            if result.values.len() != input.natoms {
                let problem = format!("{} values for {} atoms", result.values.len(), input.natoms);
                result.problems.push(problem);
            }
            result.tracks = tracks;
            Ok(result)
        }
    }
}

/// Largest |a − b|; infinite when the lengths differ or a difference is not a number
/// (`f64::max` would drop a NaN), so that no comparison against a tolerance passes.
fn max_abs_deviation(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| (x - y).is_nan()) {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The checks a run's own result can be held to without another run: the structural
/// ones, and for the two benchmark-owned programs the comparison with a plain
/// sequential evaluation of what the program means.  `corrupt` spoils the reference
/// (the seeded-failure test).
pub fn verify(input: &Input, result: &RunResult, corrupt: bool) -> Result<(), String> {
    if let Some(problem) = result.problems.first() {
        return Err(problem.clone());
    }
    let spoil = |mut reference: Vec<f64>| {
        if corrupt {
            reference[0] += 1.0;
        }
        reference
    };
    match input {
        Input::Charmm { .. } | Input::Dsmc { .. } => Ok(()),
        Input::Compiled(input) => {
            let reference = spoil(compiled::plain_loop_reference(input).concat());
            let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            let deviation = max_abs_deviation(&result.values, &reference);
            if deviation <= 1e-9 * scale {
                Ok(())
            } else {
                Err(format!(
                    "DX/DY/DZ deviate from the plain loop by {deviation:e} (scale {scale:e})"
                ))
            }
        }
        Input::Drift(input) => {
            if result.values == spoil(irregular::drift_reference(input)) {
                Ok(())
            } else {
                Err("x differs from the sequential evaluation".to_string())
            }
        }
    }
}

/// The reference operation: CHARMM's prefix against `SequentialCharmm` at both rank
/// counts (the full trajectories are chaotic — after 400 steps they differ by the box
/// size — so the comparison is over a prefix), DSMC's sequential run.  Returns the hash
/// every run's result must have at any rank count, where the reference gives one: for
/// CHARMM only runs of one rank count are bit-identical to each other.
pub fn reference(
    workload: Workload,
    scale: Scale,
    seed: u64,
    corrupt: bool,
) -> Result<Option<u64>, String> {
    match workload {
        Workload::DsmcMove => {
            let Input::Dsmc {
                grid,
                particles,
                config,
            } = generate(workload, scale, seed, Steps::Full)
            else {
                unreachable!("dsmc_move generates a DSMC input");
            };
            let mut sequential =
                SequentialDsmc::new(grid, (*particles).clone(), config.dt, config.seed);
            sequential.run(config.nsteps);
            let mut expected = sequential.fingerprint();
            if corrupt {
                expected[0].1.push(u64::MAX);
            }
            Ok(Some(result_hash(&[], &expected)))
        }
        // Every run of these two is compared with its sequential evaluation in `verify`.
        Workload::CompiledCharmm | Workload::InspectorDrift => Ok(None),
        _ => {
            let Input::Charmm { system, config } = generate(workload, scale, seed, Steps::Prefix)
            else {
                unreachable!("the CHARMM workloads generate a CHARMM input");
            };
            let mut sequential =
                SequentialCharmm::new((*system).clone(), config.list_update_interval);
            sequential.run(config.nsteps);
            let mut expected: Vec<f64> = sequential.system.positions.concat();
            if corrupt {
                expected[0] += 1e-3;
            }
            let input = Input::Charmm { system, config };
            for ranks in [WALL_RANKS, MODEL_RANKS] {
                let result = run_app(&input, ranks, ExchangeBackend::Modeled)?;
                verify(&input, &result, false)?;
                let deviation = max_abs_deviation(&result.values, &expected);
                if deviation >= 1e-6 {
                    return Err(format!(
                        "P = {ranks}: positions deviate from SequentialCharmm by {deviation:e} after the prefix"
                    ));
                }
            }
            Ok(None)
        }
    }
}
