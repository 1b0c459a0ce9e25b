//! Steady-state microbenchmarks of the unified exchange engine (`BENCH_exchange.json`).
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
//! by `chaos-bench exchange --check` in CI, and reported in `BENCH_exchange.json`.
//!
//! Two sweeps extend the fixed 8-rank loops: [`rank_sweep`] runs the gather/scatter and
//! append shapes at P = 2–64 ranks the way the paper's tables sweep processor counts, and
//! [`backend_sweep`] runs the gather/scatter shape on both exchange backends.  The
//! collectives scale further — [`crate::collective`] sweeps them to P = 1024.

use std::time::Instant;

use chaos::prelude::*;
use mpsim::{
    run, ExchangeBackend, ExchangeStats, MachineConfig, PackPoolStats, Rank, TimeSnapshot,
};

use crate::collective::{
    collective_scaling_violations, collective_sweep_at, CollectiveResult, COLLECTIVE_SWEEP_POINTS,
};
use crate::report::{Artifact, Json};

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
    /// environment-selected backend (`MPSIM_BACKEND`); [`backend_sweep`] pins each.
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

/// The measured outcome of one steady-state loop.  Every loop moves 8-byte `f64` or
/// `u64` elements.
#[derive(Debug, Clone)]
pub struct MicrobenchResult {
    /// Benchmark name (stable across runs; the JSON key CI compares on).
    pub name: &'static str,
    /// Exchange backend the loop ran on (`"modeled"` or `"shared"`).
    pub backend: &'static str,
    /// Machine size the loop ran on.
    pub ranks: usize,
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

    /// Render this result as one entry of a `BENCH_exchange.json` section.
    pub fn to_json(&self) -> Json {
        let pool = &self.pool_total;
        let reduction = (self.allocation_reduction_pct() * 100.0).round() / 100.0;
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("backend", Json::str(self.backend)),
            ("ranks", Json::uint(self.ranks as u64)),
            ("elem_bytes", Json::uint(8)),
            ("receive_owned", Json::Bool(self.receive_owned)),
            ("warmup_iters", Json::uint(self.warmup_iters as u64)),
            ("measured_iters", Json::uint(self.measured_iters as u64)),
            ("wall_ms", Json::Num(self.wall_ms)),
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
                    ("allocations", Json::uint(pool.decode_allocations)),
                    ("reuses", Json::uint(pool.decode_reuses)),
                    (
                        "steady_allocations",
                        Json::uint(self.pool_steady.decode_allocations),
                    ),
                    ("steady_reuses", Json::uint(self.pool_steady.decode_reuses)),
                    (
                        "baseline_allocations",
                        Json::uint(self.baseline_allocations()),
                    ),
                    ("reduction_vs_baseline_pct", Json::Num(reduction)),
                ]),
            ),
        ])
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<27} [{:<7}] {:>2} ranks  {:>3} iters  {:>4} msgs/iter  wall {:>8.2} ms  \
             modeled {:>10.1} us  allocs {:>5} (steady {:>3}{})  -{:.1}%",
            self.name,
            self.backend,
            self.ranks,
            self.measured_iters,
            self.msgs_per_iter(),
            self.wall_ms,
            self.modeled_total_us,
            self.pool_total.decode_allocations,
            self.pool_steady.decode_allocations,
            if self.receive_owned { ", owned" } else { "" },
            self.allocation_reduction_pct(),
        )
    }
}

/// The per-rank instrumentation of one measurement window.
struct RankMeasure {
    pool: PackPoolStats,
    exch: ExchangeStats,
    dt: TimeSnapshot,
}

/// Per-rank instrumentation shared by the loops: run `iter` for the warm-up window,
/// snapshot, run it for the measurement window, and return the deltas.
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
    let mut exch = ExchangeStats::default();
    for _ in 0..cfg.measured_iters {
        exch = exch.merged(&iter(rank));
    }
    RankMeasure {
        pool: rank.pool_stats().since(&pool_warm),
        exch,
        dt: rank.modeled().since(&t0),
    }
}

/// Run one steady-state loop on a `cfg.ranks`-rank machine of `cfg.backend`: `body` sets
/// up each rank, measures it through [`instrumented_loop`] and returns the measure with
/// the rank's fingerprint; the per-rank results fold into one [`MicrobenchResult`].
fn run_loop(
    name: &'static str,
    cfg: &MicrobenchConfig,
    receive_owned: bool,
    body: impl Fn(&mut Rank, &MicrobenchConfig) -> (RankMeasure, f64) + Send + Sync + 'static,
) -> MicrobenchResult {
    let start = Instant::now();
    let machine = MachineConfig::new(cfg.ranks).with_backend(cfg.backend);
    let rank_cfg = cfg.clone();
    let outcome = run(machine, move |rank| body(rank, &rank_cfg));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut exchange = ExchangeStats::default();
    let mut pool_steady = PackPoolStats::default();
    let mut compute: f64 = 0.0;
    let mut comm: f64 = 0.0;
    let mut total: f64 = 0.0;
    let mut fingerprint = 0.0f64;
    for (m, fp) in &outcome.results {
        exchange = exchange.merged(&m.exch);
        pool_steady = pool_steady.merged(&m.pool);
        compute = compute.max(m.dt.compute_us);
        comm = comm.max(m.dt.comm_us);
        total = total.max(m.dt.total_us());
        fingerprint += fp;
    }
    MicrobenchResult {
        name,
        backend: cfg.backend.name(),
        ranks: cfg.ranks,
        receive_owned,
        warmup_iters: cfg.warmup_iters,
        measured_iters: cfg.measured_iters,
        wall_ms,
        fingerprint,
        modeled_compute_us: compute,
        modeled_comm_us: comm,
        modeled_total_us: total,
        exchange,
        pool_total: outcome.pool_totals(),
        pool_steady,
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

/// The CHARMM executor shape: one regular schedule built by the inspector, then a
/// `gather` + `scatter_add` pair per iteration.
pub fn gather_scatter_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    run_loop("gather_scatter_steady", cfg, false, |rank, cfg| {
        let (dist, sched, refs) = build_strided_schedule(rank, cfg.elements);
        let owned: Vec<f64> = dist.local_globals(rank.rank()).map(|g| g as f64).collect();
        let mut x = DistArray::new(owned, sched.ghost_len());
        let m = instrumented_loop(rank, cfg, |rank| {
            let g = gather(rank, &sched, &mut x);
            for &r in &refs {
                x[r] += 1.0;
            }
            g.merged(&scatter_add(rank, &sched, &mut x))
        });
        (m, x.owned().iter().sum())
    })
}

/// The DSMC MOVE shape: items drift between ranks (routed by their id, so after the first
/// step every rank's items march to the next rank in a ring), a fresh light-weight
/// schedule is built every iteration and `scatter_append` moves the items.
pub fn scatter_append_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    run_loop("scatter_append_steady", cfg, true, |rank, cfg| {
        let (me, nprocs) = (rank.rank(), rank.nprocs() as u64);
        let first = (me * cfg.items_per_rank) as u64;
        let mut items: Vec<u64> = (first..first + cfg.items_per_rank as u64).collect();
        let mut step = 0u64;
        let m = instrumented_loop(rank, cfg, |rank| {
            step += 1;
            let dests: Vec<usize> = items
                .iter()
                .map(|&id| ((id + step) % nprocs) as usize)
                .collect();
            let sched = LightweightSchedule::build(rank, &dests);
            items = scatter_append(rank, &sched, &items);
            sched.exchange_stats::<u64>()
        });
        (m, items.iter().map(|&id| id as f64).sum())
    })
}

/// The CHARMM remap shape: one plan (block → cyclic), then `remap_values` per iteration —
/// the paper remaps every array aligned with a repartitioned template using one plan.
pub fn remap_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    run_loop("remap_steady", cfg, false, |rank, cfg| {
        let n = cfg.elements;
        let me = rank.rank();
        let old = BlockDist::new(n, rank.nprocs());
        let new = CyclicDist::new(n, rank.nprocs());
        let mut new_table = TranslationTable::from_regular(&new);
        let old_globals: Vec<usize> = old.local_globals(me).collect();
        let old_local: Vec<f64> = old_globals.iter().map(|&g| g as f64).collect();
        let plan = build_remap(rank, &old_globals, &mut new_table);
        let mut fp = 0.0f64;
        let m = instrumented_loop(rank, cfg, |rank| {
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
    })
}

/// The post-fusion CHARMM step shape: the same schedule as [`gather_scatter_steady`],
/// but three arrays move per iteration through one fused `gather_multi` and one fused
/// `scatter_add_multi` — one message per pair per direction where three single-array
/// transfers would each pay their own.  Borrow-only in both directions, so the steady
/// state is gated at zero allocations like every other borrowing loop.
pub fn fused_gather_scatter_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    run_loop("fused_gather_scatter_steady", cfg, false, |rank, cfg| {
        let me = rank.rank();
        let (dist, sched, refs) = build_strided_schedule(rank, cfg.elements);
        let mut arrays: [DistArray<f64>; 3] = [1.0, 2.0, 3.0].map(|lane| {
            let owned: Vec<f64> = dist.local_globals(me).map(|g| g as f64 * lane).collect();
            DistArray::new(owned, sched.ghost_len())
        });
        let m = instrumented_loop(rank, cfg, |rank| {
            let [x, y, z] = &mut arrays;
            let g = gather_multi(rank, &sched, [&mut *x, &mut *y, &mut *z]);
            for &r in &refs {
                x[r] += 1.0;
                y[r] += 0.5;
                z[r] -= 0.25;
            }
            g.merged(&scatter_add_multi(rank, &sched, [x, y, z]))
        });
        let fp: f64 = arrays.iter().map(|a| a.owned().iter().sum::<f64>()).sum();
        (m, fp)
    })
}

/// The split-phase overlap shape: `gather_start` posts the ghost exchange, a compute
/// block stands in for the force loop that runs while it is in flight, `gather_finish`
/// places the ghosts, and a blocking `scatter_add` closes the iteration.  Pins that the
/// split-phase engine reaches the same zero-allocation steady state as the blocking
/// loops (the staged self scratch and every receive scratch are recycled at finish).
pub fn overlap_gather_steady(cfg: &MicrobenchConfig) -> MicrobenchResult {
    run_loop("overlap_gather_steady", cfg, false, |rank, cfg| {
        let (dist, sched, refs) = build_strided_schedule(rank, cfg.elements);
        let owned: Vec<f64> = dist.local_globals(rank.rank()).map(|g| g as f64).collect();
        let mut x = DistArray::new(owned, sched.ghost_len());
        let m = instrumented_loop(rank, cfg, |rank| {
            let handle = gather_start(rank, &sched, [&x]);
            // The overlapped compute: owned-only work that needs no ghosts.
            rank.charge_compute(refs.len() as f64 * 0.1);
            let g = gather_finish(rank, handle, &sched, [&mut x]);
            for &r in &refs {
                x[r] += 1.0;
            }
            g.merged(&scatter_add(rank, &sched, &mut x))
        });
        (m, x.owned().iter().sum())
    })
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

/// Machine sizes of the backend comparison: self-delivery only (P = 1), one pair
/// (P = 2) and the classic configuration (P = 8) — all well under
/// [`mpsim::shared::MAX_SHARED_RANKS`].
pub const BACKEND_SWEEP_POINTS: &[usize] = &[1, 2, 8];

/// Run the gather/scatter shape on both backends at every point of
/// [`BACKEND_SWEEP_POINTS`].  Modeled time, wire statistics and fingerprints must come
/// out identical ([`backend_equivalence_violations`] gates that).  The backends' wall
/// clocks are compared end to end by the repo benchmark's `finegrain_shared` and
/// `finegrain_modeled` workloads, not here.
pub fn backend_sweep(base: &MicrobenchConfig) -> Vec<MicrobenchResult> {
    let mut out = Vec::new();
    for &ranks in BACKEND_SWEEP_POINTS {
        for backend in [ExchangeBackend::Modeled, ExchangeBackend::SharedMem] {
            out.push(gather_scatter_steady(&MicrobenchConfig {
                ranks,
                backend,
                ..base.clone()
            }));
        }
    }
    out
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

/// A section of the report: its name and the harness sweep that fills it.
pub(crate) type Section = (&'static str, fn(&MicrobenchConfig) -> Vec<MicrobenchResult>);

/// Every microbenchmark section of the report, in document order.  [`ExchangeReport`]
/// renders exactly these sections and its `--check` gate iterates the same rows, so a
/// loop cannot appear in the artifact without also being gated (and vice versa).
pub(crate) const SECTIONS: [Section; 3] = [
    ("benches", all_microbenches),
    ("rank_sweep", rank_sweep),
    ("backend_sweep", backend_sweep),
];

/// The host's available parallelism (the context every wall-clock figure in the report
/// must be read against; recorded as `host_cores`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `exchange` artifact (schema `chaos-bench/exchange/v8`, documented in
/// `BENCHMARKS.md`): every `SECTIONS` row at one configuration plus the collective
/// scaling sweep of [`crate::collective`].
pub struct ExchangeReport {
    sections: Vec<(&'static str, Vec<MicrobenchResult>)>,
    collectives: Vec<CollectiveResult>,
}

impl ExchangeReport {
    /// Run every section at `cfg` and the full collective sweep.
    pub fn generate(cfg: &MicrobenchConfig) -> Self {
        ExchangeReport {
            sections: SECTIONS.iter().map(|&(name, f)| (name, f(cfg))).collect(),
            collectives: collective_sweep_at(COLLECTIVE_SWEEP_POINTS),
        }
    }
}

impl Artifact for ExchangeReport {
    const NAME: &'static str = "exchange";
    const VERSION: u32 = 8;

    fn print(&self) {
        println!(
            "exchange engine microbenchmarks (host cores: {})",
            host_cores()
        );
        for (name, rows) in &self.sections {
            println!("{name}:");
            for r in rows {
                println!("{}", r.summary_line());
            }
        }
        println!("collective_sweep (log-depth scaling, P = 32-1024):");
        for r in &self.collectives {
            println!("{}", r.summary_line());
        }
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let mut pairs = vec![("host_cores", Json::uint(host_cores() as u64))];
        for (name, rows) in &self.sections {
            let rows = rows.iter().map(MicrobenchResult::to_json).collect();
            pairs.push((name, Json::Arr(rows)));
        }
        let collectives = self.collectives.iter().map(CollectiveResult::to_json);
        pairs.push(("collective_sweep", Json::Arr(collectives.collect())));
        pairs
    }

    fn violations(&self) -> Option<Vec<String>> {
        let mut v = Vec::new();
        for (name, rows) in &self.sections {
            v.extend(steady_state_violations(rows));
            if *name == "backend_sweep" {
                v.extend(backend_equivalence_violations(rows));
            }
        }
        v.extend(collective_scaling_violations(&self.collectives));
        Some(v)
    }
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
        let report = ExchangeReport {
            sections: vec![
                (
                    "benches",
                    vec![gather_scatter_steady(&tiny()), remap_steady(&tiny())],
                ),
                ("rank_sweep", vec![scatter_append_steady(&tiny())]),
                ("backend_sweep", vec![]),
            ],
            collectives: crate::collective::collective_sweep_at(&[4]),
        };
        let text = crate::report::document(&report).render_pretty();
        assert!(text.contains("\"schema\": \"chaos-bench/exchange/v8\""));
        assert!(text.contains("chaos-bench -- exchange --json"));
        assert!(text.contains("\"host_cores\""));
        assert!(text.contains("\"gather_scatter_steady\""));
        assert!(text.contains("\"remap_steady\""));
        assert!(text.contains("\"rank_sweep\""));
        assert!(text.contains("\"backend_sweep\": []"));
        assert!(text.contains("\"collective_sweep\""));
        assert!(text.contains("\"all_reduce\""));
        assert!(text.contains("\"msgs_per_rank_iter\""));
        assert!(text.contains("\"backend\""));
        assert!(text.contains("\"fingerprint\""));
        assert!(text.contains("\"steady_allocations\": 0"));
        assert!(text.contains("\"receive_owned\": true"));
        for gone in [
            "decode_allocations",
            "\"delta\"",
            "wall_ns_per_iter",
            "element_size",
        ] {
            assert!(!text.contains(gone), "v8 has no {gone}");
        }
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
        // A missing counterpart is reported rather than silently unpaired.
        let v = backend_equivalence_violations(std::slice::from_ref(&a));
        assert!(v.iter().any(|m| m.contains("no shared-backend")), "{v:?}");
    }

    #[test]
    fn microbench_sections_cover_the_backend_sweep() {
        // `SECTIONS` is what both the artifact and the `--check` gate iterate: the
        // backend sweep must be one of its sections, or a backend divergence would
        // escape CI.  Names only — nothing runs.
        let names: Vec<&str> = SECTIONS.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["benches", "rank_sweep", "backend_sweep"]);
    }
}
