//! Steady-state microbenchmarks of the unified exchange engine.
//!
//! Every time-stepped application in the paper settles into the same shape: a loop that
//! executes the *same* communication pattern over and over (CHARMM's gather/scatter per
//! time step, DSMC's append per move phase, CHARMM's remap of several arrays with one
//! plan).  These harnesses reproduce the three shapes on a small machine and measure what
//! the engine's buffer pool does to them:
//!
//! * [`gather_scatter_steady`] — one regular schedule, `gather` + `scatter_add` per
//!   iteration (the CHARMM non-bonded loop's executor half);
//! * [`fused_gather_scatter_steady`] — the same schedule moving *three* arrays per
//!   iteration through the fused multi-array paths (`gather_multi` +
//!   `scatter_add_multi`): one message per pair per direction where the unfused executor
//!   would send three (the post-fusion CHARMM step shape);
//! * [`overlap_gather_steady`] — the split-phase shape: `gather_start`, a compute block
//!   standing in for the force loop, `gather_finish`, then a blocking `scatter_add`
//!   (the CHARMM separate-schedule step with the bonded loop overlapping the non-bonded
//!   gather);
//! * [`scatter_append_steady`] — a fresh [`LightweightSchedule`] + `scatter_append` per
//!   iteration (the DSMC MOVE phase);
//! * [`remap_steady`] — one [`RemapPlan`], `remap_values` per iteration (CHARMM remapping
//!   its coordinate/force arrays after a repartition).
//!
//! Each returns a [`MicrobenchResult`] carrying wall-clock time, modeled time, per-run
//! [`ExchangeStats`], and the buffer-pool counters, split into *total* and
//! *steady-state* (after warm-up) windows.  The zero-allocation steady state
//! (`pool_steady.decode_allocations == 0` for every loop whose placement only borrows,
//! see [`MicrobenchResult::receive_owned`]) is asserted by the pool smoke tests, checked
//! by `exchange_microbench --check` in CI, and reported in `BENCH_exchange.json`.
//!
//! Two sweeps extend the fixed 8-rank loops the way the paper's tables sweep processor
//! counts: [`rank_sweep`] runs the gather/scatter and append shapes at P = 2–64 ranks,
//! and [`element_size_sweep`] runs them with 8-, 24- and 64-byte payload elements
//! (bytes on the wire scale with the element size, messages do not).  The collectives scale
//! further — [`crate::collective`] sweeps them to P = 1024.

use std::time::Instant;

use chaos::prelude::*;
use mpsim::{run, ExchangeBackend, ExchangeStats, MachineConfig, PackPoolStats, Rank};

use crate::report::Json;

/// Knobs of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// Simulated machine size.  The committed `BENCH_exchange.json` uses 8 ranks.
    pub ranks: usize,
    /// Iterations executed before the measurement window opens (pool warm-up).
    pub warmup_iters: usize,
    /// Iterations inside the measurement window.
    pub measured_iters: usize,
    /// Global element count for the gather/scatter and remap loops.
    pub elements: usize,
    /// Items per rank for the append loop.
    pub items_per_rank: usize,
    /// Exchange backend the simulated machine runs on.  Defaults to the
    /// environment-selected backend (`MPSIM_BACKEND`); [`backend_sweep`] pins each
    /// explicitly to compare wall-clock.
    pub backend: ExchangeBackend,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        MicrobenchConfig {
            ranks: 8,
            warmup_iters: 4,
            measured_iters: 32,
            elements: 4096,
            items_per_rank: 512,
            backend: ExchangeBackend::from_env(),
        }
    }
}

/// The measured outcome of one steady-state loop.
#[derive(Debug, Clone)]
pub struct MicrobenchResult {
    /// Benchmark name (stable across runs; the JSON key CI compares on).
    pub name: &'static str,
    /// Exchange backend the loop ran on (`"modeled"` or `"shared"`).
    pub backend: &'static str,
    /// Machine size the loop ran on.
    pub ranks: usize,
    /// Encoded payload element size in bytes (8 for the classic `f64`/`u64` loops).
    pub elem_bytes: usize,
    /// Whether the loop's placement takes ownership of its payloads (`Placed::into_vec`,
    /// as `scatter_append` must — the appended items outlive the call).  Ownership-taking
    /// loops legitimately show steady-state pool allocations; borrow-only loops must show
    /// zero, and the `--check` gate enforces exactly that split.
    pub receive_owned: bool,
    /// Warm-up iterations excluded from the measurement window.
    pub warmup_iters: usize,
    /// Measured iterations.
    pub measured_iters: usize,
    /// Host wall-clock time of the whole run (setup + warm-up + measured), milliseconds.
    pub wall_ms: f64,
    /// Host wall-clock of the measurement window per iteration, max over ranks
    /// (nanoseconds) — the number the backend comparison is about.  Unlike [`wall_ms`]
    /// it excludes machine setup and schedule construction, so it isolates the
    /// steady-state data path the backends differ on.
    ///
    /// [`wall_ms`]: MicrobenchResult::wall_ms
    pub wall_ns_per_iter: f64,
    /// Checksum of the loop's final data, summed over ranks.  Every harness arranges
    /// integer-valued (or dyadic-rational) `f64` contents whose sums are exact, so the
    /// fingerprint is independent of message arrival order and must be bit-identical
    /// across backends — the cheap cross-backend equivalence probe
    /// ([`backend_equivalence_violations`]); the exhaustive byte-identity pins live in
    /// the `backend_equivalence` integration tests.
    pub fingerprint: f64,
    /// Modeled compute time of the measurement window, max over ranks (µs).
    pub modeled_compute_us: f64,
    /// Modeled communication time of the measurement window, max over ranks (µs).
    pub modeled_comm_us: f64,
    /// Modeled total time of the measurement window, max over ranks (µs).
    pub modeled_total_us: f64,
    /// Engine message/byte counts of the measurement window, summed over ranks.
    pub exchange: ExchangeStats,
    /// Buffer-pool counters of the whole run, summed over ranks.  The pool counts into
    /// `decode_allocations` / `decode_reuses` (see [`PackPoolStats`]).
    pub pool_total: PackPoolStats,
    /// Buffer-pool counters of the measurement window only, summed over ranks.
    pub pool_steady: PackPoolStats,
    /// `backend_sweep` shared-backend rows only: the modeled row's `wall_ns_per_iter`
    /// over this row's, for the same loop at the same machine size.  Reported, not gated.
    pub modeled_to_shared_wall_x: Option<f64>,
}

impl MicrobenchResult {
    /// What a pool-less engine would have allocated over the whole run: one fresh buffer
    /// per buffer request.  This is the pre-pool baseline the acceptance comparison uses.
    pub fn baseline_allocations(&self) -> u64 {
        self.pool_total.decode_requests()
    }

    /// Percentage of buffer allocations the pool eliminated relative to the pool-less
    /// baseline.
    pub fn allocation_reduction_pct(&self) -> f64 {
        let base = self.baseline_allocations();
        if base == 0 {
            0.0
        } else {
            100.0 * self.pool_total.decode_reuses as f64 / base as f64
        }
    }

    /// Messages sent per measured iteration, summed over ranks — the column that makes
    /// the fused paths' 3x message drop visible next to the unfused loops.
    pub fn msgs_per_iter(&self) -> u64 {
        if self.measured_iters == 0 {
            0
        } else {
            self.exchange.msgs_sent / self.measured_iters as u64
        }
    }

    /// Render this result as one entry of the `BENCH_exchange.json` `benches` array.
    pub fn to_json(&self) -> Json {
        let mut row = vec![
            ("name", Json::str(self.name)),
            ("backend", Json::str(self.backend)),
            ("ranks", Json::uint(self.ranks as u64)),
            ("elem_bytes", Json::uint(self.elem_bytes as u64)),
            ("receive_owned", Json::Bool(self.receive_owned)),
            ("warmup_iters", Json::uint(self.warmup_iters as u64)),
            ("measured_iters", Json::uint(self.measured_iters as u64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("wall_ns_per_iter", Json::Num(self.wall_ns_per_iter.round())),
            ("fingerprint", Json::Num(self.fingerprint)),
            (
                "modeled_us",
                Json::obj(vec![
                    ("compute", Json::Num(self.modeled_compute_us)),
                    ("comm", Json::Num(self.modeled_comm_us)),
                    ("total", Json::Num(self.modeled_total_us)),
                ]),
            ),
            (
                "exchange",
                Json::obj(vec![
                    ("msgs_sent", Json::uint(self.exchange.msgs_sent)),
                    ("msgs_received", Json::uint(self.exchange.msgs_received)),
                    ("bytes_sent", Json::uint(self.exchange.bytes_sent)),
                    ("bytes_received", Json::uint(self.exchange.bytes_received)),
                    ("msgs_per_iter", Json::uint(self.msgs_per_iter())),
                ]),
            ),
            (
                "pool",
                Json::obj(vec![
                    (
                        "allocations",
                        Json::uint(self.pool_total.decode_allocations),
                    ),
                    ("reuses", Json::uint(self.pool_total.decode_reuses)),
                    (
                        "steady_allocations",
                        Json::uint(self.pool_steady.decode_allocations),
                    ),
                    ("steady_reuses", Json::uint(self.pool_steady.decode_reuses)),
                    (
                        "baseline_allocations",
                        Json::uint(self.baseline_allocations()),
                    ),
                    (
                        "reduction_vs_baseline_pct",
                        Json::Num(round2(self.allocation_reduction_pct())),
                    ),
                ]),
            ),
        ];
        if let Some(x) = self.modeled_to_shared_wall_x {
            row.push(("modeled_to_shared_wall_x", Json::Num(x)));
        }
        Json::obj(row)
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<26} [{:<7}] {:>2} ranks  {:>2}B elems  {:>3} iters  {:>4} msgs/iter  \
             wall {:>8.2} ms ({:>9.0} ns/iter)  modeled {:>10.1} us  \
             allocs {:>5} (steady {:>3}{})  -{:.1}%",
            self.name,
            self.backend,
            self.ranks,
            self.elem_bytes,
            self.measured_iters,
            self.msgs_per_iter(),
            self.wall_ms,
            self.wall_ns_per_iter,
            self.modeled_total_us,
            self.pool_total.decode_allocations,
            self.pool_steady.decode_allocations,
            if self.receive_owned { ", owned" } else { "" },
            self.allocation_reduction_pct(),
        )
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// The per-rank instrumentation of one measurement window.
struct RankMeasure {
    pool_warm: PackPoolStats,
    pool_end: PackPoolStats,
    exch: ExchangeStats,
    compute_us: f64,
    comm_us: f64,
    total_us: f64,
    /// Host wall-clock of this rank's measurement window, nanoseconds.
    wall_ns: u64,
}

/// Per-rank instrumentation shared by the loops: run `iter` for the warm-up window,
/// snapshot, run it for the measurement window (modeled *and* host wall-clock), and
/// return the deltas.
fn instrumented_loop(
    rank: &mut Rank,
    cfg: &MicrobenchConfig,
    mut iter: impl FnMut(&mut Rank) -> ExchangeStats,
) -> RankMeasure {
    for _ in 0..cfg.warmup_iters {
        iter(rank);
    }
    let pool_warm = rank.pool_stats();
    let t0 = rank.modeled();
    let wall0 = Instant::now();
    let mut exch = ExchangeStats::default();
    for _ in 0..cfg.measured_iters {
        exch = exch.merged(&iter(rank));
    }
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let dt = rank.modeled().since(&t0);
    RankMeasure {
        pool_warm,
        pool_end: rank.pool_stats(),
        exch,
        compute_us: dt.compute_us,
        comm_us: dt.comm_us,
        total_us: dt.total_us(),
        wall_ns,
    }
}

/// Fold the per-rank `(measure, fingerprint)` pairs and the run's pool totals into a
/// result.
fn collect(
    name: &'static str,
    cfg: &MicrobenchConfig,
    elem_bytes: usize,
    receive_owned: bool,
    wall_ms: f64,
    outcome: mpsim::RunOutcome<(RankMeasure, f64)>,
) -> MicrobenchResult {
    let mut exchange = ExchangeStats::default();
    let mut pool_steady = PackPoolStats::default();
    let mut compute: f64 = 0.0;
    let mut comm: f64 = 0.0;
    let mut total: f64 = 0.0;
    let mut wall_ns: u64 = 0;
    let mut fingerprint = 0.0f64;
    for (m, fp) in &outcome.results {
        exchange = exchange.merged(&m.exch);
        pool_steady = pool_steady.merged(&m.pool_end.since(&m.pool_warm));
        compute = compute.max(m.compute_us);
        comm = comm.max(m.comm_us);
        total = total.max(m.total_us);
        wall_ns = wall_ns.max(m.wall_ns);
        fingerprint += fp;
    }
    MicrobenchResult {
        name,
        backend: cfg.backend.name(),
        ranks: cfg.ranks,
        elem_bytes,
        receive_owned,
        warmup_iters: cfg.warmup_iters,
        measured_iters: cfg.measured_iters,
        wall_ms,
        wall_ns_per_iter: wall_ns as f64 / cfg.measured_iters.max(1) as f64,
        fingerprint,
        modeled_compute_us: compute,
        modeled_comm_us: comm,
        modeled_total_us: total,
        exchange,
        pool_total: outcome.pool_totals(),
        pool_steady,
        modeled_to_shared_wall_x: None,
    }
}

/// Per-rank setup shared by every gather/scatter-shaped harness: the inspector builds one
/// regular schedule over a strided slice of the whole array (plenty of off-processor
/// traffic, fixed pattern — the post-inspector steady state), returning the distribution,
/// the schedule and the local references of the access pattern.
fn build_strided_schedule(
    rank: &mut Rank,
    n: usize,
) -> (BlockDist, CommSchedule, Vec<chaos::LocalRef>) {
    let dist = BlockDist::new(n, rank.nprocs());
    let ttable = TranslationTable::from_regular(&dist);
    let mut insp = Inspector::new(&ttable, rank.rank());
    let me = rank.rank();
    let pattern: Vec<usize> = (0..n / 2).map(|i| (i * 7 + me * 13 + 1) % n).collect();
    let refs = insp.hash_indices(rank, &pattern, Stamp::new(0));
    let sched = insp.build_schedule(rank, StampQuery::single(Stamp::new(0)));
    (dist, sched, refs)
}

/// Shared core of the append-shaped harnesses: a fresh [`LightweightSchedule`] +
/// `scatter_append` per iteration.  `make` seeds the initial items from globally unique
/// ids; `dests_of(items, step, me, nprocs)` picks each item's destination per step, which
/// is the only thing the classic and element-size variants disagree on.
fn scatter_append_core<T: mpsim::Element>(
    name: &'static str,
    cfg: &MicrobenchConfig,
    make: fn(u64) -> T,
    dests_of: fn(&[T], u64, usize, usize) -> Vec<usize>,
    fp_of: fn(&T) -> f64,
) -> MicrobenchResult {
    let cfg2 = cfg.clone();
    let start = Instant::now();
    let machine = MachineConfig::new(cfg.ranks).with_backend(cfg.backend);
    let outcome = run(machine, move |rank| {
        let me = rank.rank();
        let nprocs = rank.nprocs();
        let mut items: Vec<T> = (0..cfg2.items_per_rank)
            .map(|k| make((me * cfg2.items_per_rank + k) as u64))
            .collect();
        let mut step = 0u64;
        let m = instrumented_loop(rank, &cfg2, |rank| {
            step += 1;
            let dests = dests_of(&items, step, me, nprocs);
            let sched = LightweightSchedule::build(rank, &dests);
            let before = rank.stats();
            items = scatter_append(rank, &sched, &items);
            let after = rank.stats();
            ExchangeStats {
                msgs_sent: after.msgs_sent - before.msgs_sent,
                msgs_received: after.msgs_received - before.msgs_received,
                bytes_sent: after.bytes_sent - before.bytes_sent,
                bytes_received: after.bytes_received - before.bytes_received,
            }
        });
        let fp: f64 = items.iter().map(fp_of).sum();
        (m, fp)
    });
    collect(
        name,
        cfg,
        T::SIZE,
        true,
        start.elapsed().as_secs_f64() * 1e3,
        outcome,
    )
}

/// The CHARMM executor shape: one regular schedule built by the inspector, then a
/// `gather` + `scatter_add` pair per iteration.
pub fn gather_scatter_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    let cfg2 = cfg.clone();
    let start = Instant::now();
    let machine = MachineConfig::new(cfg.ranks).with_backend(cfg.backend);
    let outcome = run(machine, move |rank| {
        let me = rank.rank();
        let (dist, sched, refs) = build_strided_schedule(rank, cfg2.elements);
        let owned: Vec<f64> = dist.local_globals(me).map(|g| g as f64).collect();
        let mut x = DistArray::new(owned, sched.ghost_len());
        let m = instrumented_loop(rank, &cfg2, |rank| {
            let g = gather(rank, &sched, &mut x);
            for &r in &refs {
                x[r] += 1.0;
            }
            let s = scatter_add(rank, &sched, &mut x);
            g.merged(&s)
        });
        let fp: f64 = x.owned().iter().sum();
        (m, fp)
    });
    collect(
        "gather_scatter_steady",
        cfg,
        8,
        false,
        start.elapsed().as_secs_f64() * 1e3,
        outcome,
    )
}

/// The DSMC MOVE shape: items drift between ranks (routed by their id, so after the first
/// step every rank's items march to the next rank in a ring), a fresh light-weight
/// schedule is built every iteration and `scatter_append` moves the items.
pub fn scatter_append_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    scatter_append_core::<u64>(
        "scatter_append_steady",
        cfg,
        |k| k,
        |items, step, _me, nprocs| {
            items
                .iter()
                .map(|&id| ((id + step) % nprocs as u64) as usize)
                .collect()
        },
        |&id| id as f64,
    )
}

/// The CHARMM remap shape: one plan (block → cyclic), then `remap_values` per iteration —
/// the paper remaps every array aligned with a repartitioned template using one plan.
pub fn remap_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    let cfg2 = cfg.clone();
    let start = Instant::now();
    let machine = MachineConfig::new(cfg.ranks).with_backend(cfg.backend);
    let outcome = run(machine, move |rank| {
        let n = cfg2.elements;
        let me = rank.rank();
        let old = BlockDist::new(n, rank.nprocs());
        let new = CyclicDist::new(n, rank.nprocs());
        let mut new_table = TranslationTable::from_regular(&new);
        let old_globals: Vec<usize> = old.local_globals(me).collect();
        let old_local: Vec<f64> = old_globals.iter().map(|&g| g as f64).collect();
        let plan = build_remap(rank, &old_globals, &mut new_table);
        let mut fp = 0.0f64;
        let m = instrumented_loop(rank, &cfg2, |rank| {
            let before = rank.stats();
            let moved = remap_values(rank, &plan, &old_local, 0.0);
            fp = moved.iter().sum();
            std::hint::black_box(&moved);
            let after = rank.stats();
            ExchangeStats {
                msgs_sent: after.msgs_sent - before.msgs_sent,
                msgs_received: after.msgs_received - before.msgs_received,
                bytes_sent: after.bytes_sent - before.bytes_sent,
                bytes_received: after.bytes_received - before.bytes_received,
            }
        });
        (m, fp)
    });
    collect(
        "remap_steady",
        cfg,
        8,
        false,
        start.elapsed().as_secs_f64() * 1e3,
        outcome,
    )
}

/// The post-fusion CHARMM step shape: the same schedule as [`gather_scatter_steady`],
/// but three arrays move per iteration through one fused `gather_multi` and one fused
/// `scatter_add_multi` — one message per pair per direction where three single-array
/// transfers would each pay their own.  Borrow-only in both directions, so the steady
/// state is gated at zero allocations like every other borrowing loop.
pub fn fused_gather_scatter_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    let cfg2 = cfg.clone();
    let start = Instant::now();
    let machine = MachineConfig::new(cfg.ranks).with_backend(cfg.backend);
    let outcome = run(machine, move |rank| {
        let me = rank.rank();
        let (dist, sched, refs) = build_strided_schedule(rank, cfg2.elements);
        let mut arrays: [DistArray<f64>; 3] = [1.0, 2.0, 3.0].map(|lane| {
            let owned: Vec<f64> = dist.local_globals(me).map(|g| g as f64 * lane).collect();
            DistArray::new(owned, sched.ghost_len())
        });
        let m = instrumented_loop(rank, &cfg2, |rank| {
            let [x, y, z] = &mut arrays;
            let g = gather_multi(rank, &sched, [&mut *x, &mut *y, &mut *z]);
            for &r in &refs {
                x[r] += 1.0;
                y[r] += 0.5;
                z[r] -= 0.25;
            }
            let s = scatter_add_multi(rank, &sched, [x, y, z]);
            g.merged(&s)
        });
        let fp: f64 = arrays.iter().map(|a| a.owned().iter().sum::<f64>()).sum();
        (m, fp)
    });
    collect(
        "fused_gather_scatter_steady",
        cfg,
        8,
        false,
        start.elapsed().as_secs_f64() * 1e3,
        outcome,
    )
}

/// The split-phase overlap shape: `gather_start` posts the ghost exchange, a compute
/// block stands in for the force loop that runs while it is in flight, `gather_finish`
/// places the ghosts, and a blocking `scatter_add` closes the iteration.  Pins that the
/// split-phase engine reaches the same zero-allocation steady state as the blocking
/// loops (the staged self scratch and every receive scratch are recycled at finish).
pub fn overlap_gather_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    let cfg2 = cfg.clone();
    let start = Instant::now();
    let machine = MachineConfig::new(cfg.ranks).with_backend(cfg.backend);
    let outcome = run(machine, move |rank| {
        let me = rank.rank();
        let (dist, sched, refs) = build_strided_schedule(rank, cfg2.elements);
        let owned: Vec<f64> = dist.local_globals(me).map(|g| g as f64).collect();
        let mut x = DistArray::new(owned, sched.ghost_len());
        let m = instrumented_loop(rank, &cfg2, |rank| {
            let handle = gather_start(rank, &sched, [&x]);
            // The overlapped compute: owned-only work that needs no ghosts.
            rank.charge_compute(refs.len() as f64 * 0.1);
            let g = gather_finish(rank, handle, &sched, [&mut x]);
            for &r in &refs {
                x[r] += 1.0;
            }
            let s = scatter_add(rank, &sched, &mut x);
            g.merged(&s)
        });
        let fp: f64 = x.owned().iter().sum();
        (m, fp)
    });
    collect(
        "overlap_gather_steady",
        cfg,
        8,
        false,
        start.elapsed().as_secs_f64() * 1e3,
        outcome,
    )
}

/// Run all five steady-state loops at the given configuration.
pub fn all_microbenches(cfg: &MicrobenchConfig) -> Vec<MicrobenchResult> {
    vec![
        gather_scatter_steady(cfg),
        fused_gather_scatter_steady(cfg),
        overlap_gather_steady(cfg),
        scatter_append_steady(cfg),
        remap_steady(cfg),
    ]
}

/// The element-size sweep harness for the gather/scatter shape: same schedule and access
/// pattern as [`gather_scatter_steady`], but `gather` + `scatter` (overwrite, no
/// reduction) so it is generic over any payload element — the sweep instantiates it at
/// 8, 24 and 64 bytes per element.
fn gather_scatter_elem_steady<T>(
    name: &'static str,
    cfg: &MicrobenchConfig,
    make: fn(usize) -> T,
    fp_of: fn(&T) -> f64,
) -> MicrobenchResult
where
    T: mpsim::Element + Default,
{
    let cfg2 = cfg.clone();
    let start = Instant::now();
    let machine = MachineConfig::new(cfg.ranks).with_backend(cfg.backend);
    let outcome = run(machine, move |rank| {
        let me = rank.rank();
        let (dist, sched, _refs) = build_strided_schedule(rank, cfg2.elements);
        let owned: Vec<T> = dist.local_globals(me).map(make).collect();
        let mut x = DistArray::new(owned, sched.ghost_len());
        let m = instrumented_loop(rank, &cfg2, |rank| {
            let g = gather(rank, &sched, &mut x);
            let s = scatter(rank, &sched, &mut x);
            g.merged(&s)
        });
        let fp: f64 = x.owned().iter().map(fp_of).sum();
        (m, fp)
    });
    collect(
        name,
        cfg,
        T::SIZE,
        false,
        start.elapsed().as_secs_f64() * 1e3,
        outcome,
    )
}

/// The element-size sweep harness for the append shape: [`scatter_append_core`] with items
/// rotating between ranks by position, so per-rank counts stay balanced without
/// inspecting the payload.
fn scatter_append_elem_steady<T>(
    name: &'static str,
    cfg: &MicrobenchConfig,
    make: fn(u64) -> T,
    fp_of: fn(&T) -> f64,
) -> MicrobenchResult
where
    T: mpsim::Element,
{
    scatter_append_core::<T>(
        name,
        cfg,
        make,
        |items, step, me, nprocs| {
            (0..items.len())
                .map(|i| (i + me + step as usize) % nprocs)
                .collect()
        },
        fp_of,
    )
}

/// Machine sizes of the application-shaped rank sweep — the paper's tables sweep
/// processor counts the same way (its iPSC/860 runs go up to 128 nodes).  These loops'
/// message counts grow with P², so the host-thread simulation stops at 64 ranks; the
/// machine itself scales to P = 1024 through the O(log P)-per-rank collective sweep
/// ([`crate::collective`]), which is where the large-P curves live.
pub const RANK_SWEEP_POINTS: &[usize] = &[2, 4, 8, 16, 32, 64];

/// Run the gather/scatter and append shapes at every machine size in
/// [`RANK_SWEEP_POINTS`], holding the global problem size fixed (strong scaling, the
/// paper's convention).  `base.elements` is already global; `base.items_per_rank` is
/// interpreted as the per-rank count *at 8 ranks* (the classic configuration) and
/// rescaled so the global item count stays constant across the sweep.
pub fn rank_sweep(base: &MicrobenchConfig) -> Vec<MicrobenchResult> {
    let global_items = base.items_per_rank * 8;
    assert!(
        RANK_SWEEP_POINTS
            .iter()
            .all(|&p| global_items.is_multiple_of(p)),
        "rank_sweep: items_per_rank must keep the global item count ({global_items}) \
         divisible by every sweep point, or the strong-scaling comparison would \
         silently compare different problem sizes"
    );
    let mut out = Vec::new();
    for &ranks in RANK_SWEEP_POINTS {
        let cfg = MicrobenchConfig {
            ranks,
            items_per_rank: global_items / ranks,
            ..base.clone()
        };
        out.push(gather_scatter_steady(&cfg));
        out.push(scatter_append_steady(&cfg));
    }
    out
}

/// Run the gather/scatter and append shapes with 8-, 24- and 64-byte payload elements
/// (`f64`, `[f64; 3]`, `[f64; 8]` — scalar, coordinate triple, small particle record).
pub fn element_size_sweep(base: &MicrobenchConfig) -> Vec<MicrobenchResult> {
    let sum3 = |v: &[f64; 3]| v.iter().sum::<f64>();
    let sum8 = |v: &[f64; 8]| v.iter().sum::<f64>();
    vec![
        gather_scatter_elem_steady::<f64>("gather_scatter_elem_8B", base, |g| g as f64, |&v| v),
        gather_scatter_elem_steady::<[f64; 3]>(
            "gather_scatter_elem_24B",
            base,
            |g| [g as f64, 1.0, -1.0],
            sum3,
        ),
        gather_scatter_elem_steady::<[f64; 8]>(
            "gather_scatter_elem_64B",
            base,
            |g| [g as f64; 8],
            sum8,
        ),
        scatter_append_elem_steady::<u64>("scatter_append_elem_8B", base, |k| k, |&v| v as f64),
        scatter_append_elem_steady::<[f64; 3]>(
            "scatter_append_elem_24B",
            base,
            |k| [k as f64, 0.5, -0.5],
            sum3,
        ),
        scatter_append_elem_steady::<[f64; 8]>(
            "scatter_append_elem_64B",
            base,
            |k| [k as f64; 8],
            sum8,
        ),
    ]
}

/// Machine sizes of the backend comparison: self-delivery only (P = 1), one pair
/// (P = 2) and the classic configuration (P = 8) — all well under
/// [`mpsim::shared::MAX_SHARED_RANKS`].
pub const BACKEND_SWEEP_POINTS: &[usize] = &[1, 2, 8];

/// Run the gather/scatter shape (8-byte and 64-byte elements) on both backends at every
/// point of [`BACKEND_SWEEP_POINTS`].  Modeled time, wire statistics and fingerprints
/// must come out identical ([`backend_equivalence_violations`] gates that); only
/// wall-clock may differ, and each shared row reports the modeled-to-shared wall ratio
/// ([`MicrobenchResult::modeled_to_shared_wall_x`]) without a gate.  The two backends
/// ship the same typed buffers and differ only in the mailbox, so the ratio measures the
/// mpsc channel against the SPSC rings.
///
/// Wall-clock on a busy host is noisy, so the sweep hardens the measurement: a larger
/// problem than the default, a longer measured window, and best-of-two windows per row
/// (the *minimum* wall time is the standard noise-robust estimator — scheduling
/// interference only ever inflates a window).  All deterministic fields are identical
/// across the two windows; keeping the faster row whole keeps `wall_ms` consistent with
/// the window it came from.
pub fn backend_sweep(base: &MicrobenchConfig) -> Vec<MicrobenchResult> {
    fn best_of_two(mut run: impl FnMut() -> MicrobenchResult) -> MicrobenchResult {
        let a = run();
        let b = run();
        if b.wall_ns_per_iter < a.wall_ns_per_iter {
            b
        } else {
            a
        }
    }
    let mut out = Vec::new();
    for &ranks in BACKEND_SWEEP_POINTS {
        for backend in [ExchangeBackend::Modeled, ExchangeBackend::SharedMem] {
            let cfg = MicrobenchConfig {
                ranks,
                backend,
                measured_iters: base.measured_iters.max(48),
                elements: base.elements.max(16_384),
                ..base.clone()
            };
            out.push(best_of_two(|| gather_scatter_steady(&cfg)));
            out.push(best_of_two(|| {
                gather_scatter_elem_steady::<[f64; 8]>(
                    "gather_scatter_elem_64B",
                    &cfg,
                    |g| [g as f64; 8],
                    |v| v.iter().sum(),
                )
            }));
        }
    }
    attach_wall_ratios(&mut out);
    out
}

/// Set [`MicrobenchResult::modeled_to_shared_wall_x`] on every shared row that has a
/// modeled twin (same loop, same machine size).
fn attach_wall_ratios(rows: &mut [MicrobenchResult]) {
    let modeled: Vec<(&'static str, usize, f64)> = rows
        .iter()
        .filter(|r| r.backend == "modeled")
        .map(|r| (r.name, r.ranks, r.wall_ns_per_iter))
        .collect();
    for r in rows.iter_mut().filter(|r| r.backend == "shared") {
        r.modeled_to_shared_wall_x = modeled
            .iter()
            .find(|&&(name, ranks, _)| name == r.name && ranks == r.ranks)
            .map(|&(_, _, wall)| round2(wall / r.wall_ns_per_iter));
    }
}

/// The `--check` gate over a [`backend_sweep`]: rows describing the same loop at the
/// same machine size must agree on fingerprint, wire statistics and modeled time across
/// backends (the equivalence contract).
pub fn backend_equivalence_violations(results: &[MicrobenchResult]) -> Vec<String> {
    let mut v = Vec::new();
    for a in results.iter().filter(|r| r.backend == "modeled") {
        let Some(b) = results
            .iter()
            .find(|r| r.backend == "shared" && r.name == a.name && r.ranks == a.ranks)
        else {
            v.push(format!(
                "{} (P={}): modeled row has no shared-backend counterpart",
                a.name, a.ranks
            ));
            continue;
        };
        if a.fingerprint != b.fingerprint {
            v.push(format!(
                "{} (P={}): fingerprints diverge across backends ({} vs {})",
                a.name, a.ranks, a.fingerprint, b.fingerprint
            ));
        }
        if a.exchange != b.exchange {
            v.push(format!(
                "{} (P={}): wire statistics diverge across backends ({:?} vs {:?})",
                a.name, a.ranks, a.exchange, b.exchange
            ));
        }
        // Modeled time gets a few-ULP relative tolerance rather than exact equality:
        // the shared backend delivers messages in real arrival order, so the identical
        // set of cost-model charges can be *summed* in a different order, and f64
        // addition is not associative.  Anything beyond ULP noise is a genuine
        // cost-model divergence.
        let tol = 1e-9 * a.modeled_total_us.abs().max(b.modeled_total_us.abs());
        if (a.modeled_total_us - b.modeled_total_us).abs() > tol {
            v.push(format!(
                "{} (P={}): modeled time diverges across backends ({} vs {} us) — the \
                 backends must charge the identical cost model",
                a.name, a.ranks, a.modeled_total_us, b.modeled_total_us
            ));
        }
    }
    v
}

/// The pinned steady-state invariant, as CI enforces it: no borrow-only loop may
/// allocate a message buffer after warm-up (ownership-taking loops hand their payloads to
/// the application, so their pool allocations are the data itself, not engine
/// overhead).  Returns one message per violation; empty means the invariant holds.
pub fn steady_state_violations(results: &[MicrobenchResult]) -> Vec<String> {
    results
        .iter()
        .filter(|r| !r.receive_owned && r.pool_steady.decode_allocations != 0)
        .map(|r| {
            format!(
                "{} ({} ranks): {} steady-state pool allocations (expected 0)",
                r.name, r.ranks, r.pool_steady.decode_allocations
            )
        })
        .collect()
}

/// Every microbenchmark section of the report, in document order: section name →
/// result rows.  `exchange_report` renders exactly these sections and the `--check`
/// gate in `exchange_microbench` iterates the same list, so a loop cannot appear in
/// the artifact without also being gated (and vice versa) — there is no separate
/// hard-coded name list to fall out of sync.
pub fn microbench_sections(cfg: &MicrobenchConfig) -> Vec<(&'static str, Vec<MicrobenchResult>)> {
    vec![
        ("benches", all_microbenches(cfg)),
        ("rank_sweep", rank_sweep(cfg)),
        ("element_size_sweep", element_size_sweep(cfg)),
        ("backend_sweep", backend_sweep(cfg)),
    ]
}

/// The host's available parallelism (the context every wall-clock figure in the report
/// must be read against; recorded as `host_cores`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Render the benchmark results as the `BENCH_exchange.json` document
/// (schema `chaos-bench/exchange/v7`, documented in `BENCHMARKS.md`).  v3 added the
/// `collective_sweep` section ([`crate::collective`]): per-collective modeled time and
/// per-rank message counts over machine sizes up to P = 1024.  v4 added the `delta`
/// section ([`crate::delta::delta_section`]): the schedule-maintenance scenarios, shared
/// with `BENCH_delta.json`.  v5 adds per-row `backend`, `wall_ns_per_iter` and
/// `fingerprint` fields, the `backend_sweep` section (modeled vs shared-memory
/// wall-clock at identical modeled cost) and the top-level `host_cores` field the
/// wall-clock numbers must be read against.  v6 drops the `preproc` section with the
/// parallel inspector it measured.  v7 reports the one buffer pool in the `pool` object
/// (the `decode_*` columns are gone) and adds `modeled_to_shared_wall_x` to the shared
/// rows of `backend_sweep`.
pub fn exchange_report(
    sections: &[(&'static str, Vec<MicrobenchResult>)],
    collectives: &[crate::collective::CollectiveResult],
    delta: Json,
) -> Json {
    let mut pairs = vec![
        ("schema", Json::str("chaos-bench/exchange/v7")),
        (
            "generated_by",
            Json::str("cargo run --release -p chaos-bench --bin exchange_microbench -- --json"),
        ),
        ("host_cores", Json::uint(host_cores() as u64)),
    ];
    for (name, rows) in sections {
        pairs.push((
            name,
            Json::Arr(rows.iter().map(MicrobenchResult::to_json).collect()),
        ));
    }
    pairs.push((
        "collective_sweep",
        Json::Arr(collectives.iter().map(|c| c.to_json()).collect()),
    ));
    pairs.push(("delta", delta));
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MicrobenchConfig {
        MicrobenchConfig {
            ranks: 4,
            warmup_iters: 2,
            measured_iters: 4,
            elements: 256,
            items_per_rank: 64,
            ..MicrobenchConfig::default()
        }
    }

    #[test]
    fn gather_scatter_moves_data_and_reports() {
        let r = gather_scatter_steady(&tiny());
        assert_eq!(r.ranks, 4);
        assert!(r.exchange.msgs_sent > 0);
        assert!(r.exchange.bytes_sent > 0);
        assert!(r.modeled_total_us > 0.0);
        // The measurement window must not allocate: the pool is warm and the placement
        // only borrows.
        assert_eq!(r.pool_steady.decode_allocations, 0);
        assert!(r.pool_steady.decode_reuses > 0);
    }

    #[test]
    fn fused_loop_moves_same_bytes_per_array_with_a_third_of_the_messages() {
        let cfg = tiny();
        let single = gather_scatter_steady(&cfg);
        let fused = fused_gather_scatter_steady(&cfg);
        // Three arrays per iteration vs one: 3x the bytes, but the same message count —
        // per array moved, a third of the messages.
        assert_eq!(fused.exchange.bytes_sent, 3 * single.exchange.bytes_sent);
        assert_eq!(fused.exchange.msgs_sent, single.exchange.msgs_sent);
        assert_eq!(fused.msgs_per_iter(), single.msgs_per_iter());
        // And the fused loop stays steady-state clean.
        assert_eq!(fused.pool_steady.decode_allocations, 0);
    }

    #[test]
    fn overlap_loop_is_steady_state_clean() {
        let r = overlap_gather_steady(&tiny());
        assert!(r.exchange.msgs_sent > 0);
        assert!(!r.receive_owned);
        assert_eq!(r.pool_steady.decode_allocations, 0);
        assert!(r.pool_steady.decode_reuses > 0);
        assert!(steady_state_violations(std::slice::from_ref(&r)).is_empty());
    }

    #[test]
    fn all_microbenches_cover_the_fused_and_split_phase_loops() {
        // The CI gate runs `steady_state_violations` over `all_microbenches`: the new
        // loops must be in that set or a regression in them would go unnoticed.
        let names: Vec<&str> = all_microbenches(&tiny()).iter().map(|r| r.name).collect();
        for required in [
            "gather_scatter_steady",
            "fused_gather_scatter_steady",
            "overlap_gather_steady",
            "scatter_append_steady",
            "remap_steady",
        ] {
            assert!(
                names.contains(&required),
                "{required} missing from the gate"
            );
        }
    }

    #[test]
    fn element_size_sweep_scales_bytes_with_element_size() {
        let cfg = tiny();
        let results = element_size_sweep(&cfg);
        assert_eq!(results.len(), 6);
        let by_name = |n: &str| {
            results
                .iter()
                .find(|r| r.name == n)
                .unwrap_or_else(|| panic!("missing sweep entry {n}"))
        };
        let gs8 = by_name("gather_scatter_elem_8B");
        let gs24 = by_name("gather_scatter_elem_24B");
        assert_eq!(gs8.elem_bytes, 8);
        assert_eq!(gs24.elem_bytes, 24);
        // Same schedule, 3x the element size: exactly 3x the bytes on the wire.
        assert_eq!(gs24.exchange.bytes_sent, 3 * gs8.exchange.bytes_sent);
        assert_eq!(gs24.exchange.msgs_sent, gs8.exchange.msgs_sent);
        assert!(steady_state_violations(&results).is_empty());
    }

    #[test]
    fn rank_sweep_covers_every_point_and_stays_clean() {
        let cfg = MicrobenchConfig {
            warmup_iters: 2,
            measured_iters: 4,
            elements: 256,
            items_per_rank: 32,
            ..tiny()
        };
        let results = rank_sweep(&cfg);
        assert_eq!(results.len(), 2 * RANK_SWEEP_POINTS.len());
        for (i, &p) in RANK_SWEEP_POINTS.iter().enumerate() {
            assert_eq!(results[2 * i].ranks, p);
            assert_eq!(results[2 * i].name, "gather_scatter_steady");
            assert_eq!(results[2 * i + 1].ranks, p);
            assert_eq!(results[2 * i + 1].name, "scatter_append_steady");
        }
        assert!(steady_state_violations(&results).is_empty());
    }

    #[test]
    fn violations_are_detected_and_owned_receives_are_exempt() {
        let mut r = gather_scatter_steady(&tiny());
        assert!(steady_state_violations(std::slice::from_ref(&r)).is_empty());
        r.pool_steady.decode_allocations = 3;
        assert_eq!(steady_state_violations(std::slice::from_ref(&r)).len(), 1);
        // An ownership-taking loop is allowed pool allocations: they are its data.
        r.receive_owned = true;
        assert!(steady_state_violations(std::slice::from_ref(&r)).is_empty());
    }

    #[test]
    fn report_document_carries_every_section() {
        let sections = vec![
            (
                "benches",
                vec![gather_scatter_steady(&tiny()), remap_steady(&tiny())],
            ),
            ("rank_sweep", vec![scatter_append_steady(&tiny())]),
            ("element_size_sweep", vec![]),
        ];
        let collectives = crate::collective::collective_sweep_at(&[4]);
        let delta = Json::obj(vec![("placeholder", Json::Bool(true))]);
        let doc = exchange_report(&sections, &collectives, delta);
        let text = doc.render_pretty();
        assert!(text.contains("\"schema\": \"chaos-bench/exchange/v7\""));
        assert!(text.contains("\"host_cores\""));
        assert!(text.contains("\"delta\""));
        assert!(text.contains("\"gather_scatter_steady\""));
        assert!(text.contains("\"remap_steady\""));
        assert!(text.contains("\"rank_sweep\""));
        assert!(text.contains("\"element_size_sweep\": []"));
        assert!(text.contains("\"collective_sweep\""));
        assert!(text.contains("\"all_reduce\""));
        assert!(text.contains("\"msgs_per_rank_iter\""));
        assert!(text.contains("\"backend\""));
        assert!(text.contains("\"wall_ns_per_iter\""));
        assert!(text.contains("\"fingerprint\""));
        assert!(text.contains("\"steady_allocations\": 0"));
        assert!(!text.contains("decode_allocations"), "v7 has one pool");
        assert!(text.contains("\"receive_owned\": true"));
    }

    #[test]
    fn backends_agree_on_everything_but_wall_clock() {
        // The backend gate at unit-test scale: fingerprints, wire statistics and
        // modeled time must be identical across backends.  Wall-clock is reported by
        // the full-scale sweep, never gated — a 4-iteration window is too noisy to time.
        let mut results = Vec::new();
        for backend in [ExchangeBackend::Modeled, ExchangeBackend::SharedMem] {
            let cfg = MicrobenchConfig { backend, ..tiny() };
            results.push(gather_scatter_steady(&cfg));
            results.push(fused_gather_scatter_steady(&cfg));
            results.push(overlap_gather_steady(&cfg));
            results.push(scatter_append_steady(&cfg));
        }
        assert!(results.iter().any(|r| r.backend == "shared"));
        let diverged: Vec<String> = backend_equivalence_violations(&results)
            .into_iter()
            .filter(|v| v.contains("diverge"))
            .collect();
        assert!(diverged.is_empty(), "{diverged:?}");
        // Shared steady loops stay allocation-free, exactly like modeled ones.
        assert!(steady_state_violations(&results).is_empty());
    }

    #[test]
    fn backend_gate_fires_on_divergence_and_missing_counterpart() {
        // Backends pinned explicitly — under MPSIM_BACKEND=shared the default config
        // would otherwise produce two shared rows and the pairing loop would be empty.
        let cfg = tiny();
        let a = gather_scatter_steady(&MicrobenchConfig {
            backend: ExchangeBackend::Modeled,
            ..cfg.clone()
        });
        let mut b = gather_scatter_steady(&MicrobenchConfig {
            backend: ExchangeBackend::SharedMem,
            ..cfg
        });
        b.fingerprint += 1.0;
        b.modeled_total_us *= 1.5;
        let v = backend_equivalence_violations(&[a.clone(), b.clone()]);
        assert!(
            v.iter().any(|m| m.contains("fingerprints diverge")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("modeled time diverges")),
            "{v:?}"
        );
        // Wall-clock is reported, not gated: a shared row slower than its modeled twin
        // is no violation, and it carries the ratio.
        let mut slow_modeled = a.clone();
        slow_modeled.wall_ns_per_iter = 900.0;
        let mut slow_shared = slow_modeled.clone();
        slow_shared.backend = "shared";
        slow_shared.wall_ns_per_iter = 1000.0;
        let mut rows = [slow_modeled, slow_shared];
        attach_wall_ratios(&mut rows);
        assert!(backend_equivalence_violations(&rows).is_empty());
        assert_eq!(rows[0].modeled_to_shared_wall_x, None);
        assert_eq!(rows[1].modeled_to_shared_wall_x, Some(0.9));
        // A missing counterpart is reported rather than silently unpaired.
        let v = backend_equivalence_violations(std::slice::from_ref(&a));
        assert!(v.iter().any(|m| m.contains("no shared-backend")), "{v:?}");
    }

    #[test]
    fn microbench_sections_cover_the_backend_sweep() {
        // `microbench_sections` is what both the artifact and the `--check` gate
        // iterate: the backend sweep must be one of its sections, or wall-clock
        // regressions would escape CI.  (Names only — running the full sweep here
        // would repeat every harness.)
        let tiny_cfg = tiny();
        let names: Vec<&str> = microbench_sections(&MicrobenchConfig {
            measured_iters: 2,
            warmup_iters: 1,
            elements: 128,
            items_per_rank: 32,
            ..tiny_cfg
        })
        .iter()
        .map(|(n, _)| *n)
        .collect();
        for required in [
            "benches",
            "rank_sweep",
            "element_size_sweep",
            "backend_sweep",
        ] {
            assert!(names.contains(&required), "{required} missing");
        }
    }
}
