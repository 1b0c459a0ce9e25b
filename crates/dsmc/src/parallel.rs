//! The CHAOS parallelisation of DSMC (§4.2 of the paper).
//!
//! Cells (and the molecules inside them) are distributed over processors through a
//! replicated cell-owner map.  Each rank keeps its molecules in one array, cell after cell
//! in ascending owned-cell order, and re-bins the whole array once per step by a stable
//! counting sort into a second buffer (`CellStore`).  Each time step has three parallel
//! phases:
//!
//! 1. **collision** — embarrassingly parallel over owned cells;
//! 2. **MOVE** — one pass advances every molecule and records its new owned cell in a
//!    reused lane; a molecule whose new position falls in another cell is also copied into
//!    a reused migrant buffer.  Migrants whose cell another processor owns must migrate,
//!    and the counting sort then places survivors, local migrants and arrivals together.
//!    Two implementations are provided; Table 4 compares the first with the second
//!    rebuilt every step:
//!    * [`MoveMode::Lightweight`] — a [`chaos::schedule::LightweightSchedule`] is built
//!      from the destination processors (one exchange of counts) and whole molecules are
//!      appended split-phase: `scatter_append_start` posts the migrant buffer, the
//!      survivors' modeled re-binning cost is charged *while the exchange is in flight*,
//!      and `scatter_append_finish` collects the arrivals; arrival order is irrelevant
//!      (the collision phase sorts each cell by molecule id), so no placement
//!      preprocessing is needed;
//!    * [`MoveMode::Patched`] — a regular schedule over the destination cells: every
//!      step the drifted destination-cell set is re-hashed and a
//!      [`chaos::cache::ScheduleCache`] patches the [`chaos::schedule::CommSchedule`], or
//!      with `rebuild_every_step` rebuilds it (Table 4's "regular schedules" row) — the
//!      preprocessing light-weight schedules remove.  The data path depends only on the
//!      schedule bytes, and patched schedules are byte-identical to rebuilds, so both
//!      settings give identical fingerprints and data-path message totals.
//! 3. **remapping** — a [`chaos::adapt::RemapController`] watches the measured per-rank
//!    collision compute times (one all-gather per step) and decides collectively when to
//!    re-partition.  The default [`RemapPolicy::Interval`] reproduces the paper's fixed
//!    cadence (Table 5 remaps every 40 steps); [`RemapPolicy::Threshold`] and
//!    [`RemapPolicy::CostBenefit`] remap from the drift of the load-balance index instead.
//!    When a remap fires, the cells are re-partitioned from their current molecule counts
//!    using recursive coordinate bisection or the chain partitioner and the affected
//!    molecules migrate to the new owners (Table 5).

use std::mem;

use chaos::adapt::{RemapController, RemapPolicy};
use chaos::prelude::*;
use mpsim::{alltoallv_with, ExchangePlan, ExchangeStats, Rank, TimeSnapshot};

use crate::collide::collide_cell;
use crate::grid::CellGrid;
use crate::particles::{advance, Particle};

/// How the MOVE phase transports molecules (the Table 4 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveMode {
    /// Light-weight schedules + `scatter_append` (the CHAOS contribution).
    Lightweight,
    /// A regular schedule over the destination cells: per-step index translation and
    /// placement preprocessing.  `rebuild_every_step: true` rebuilds it from the hash
    /// table every step — Table 4's regular-schedule baseline, and the one the patch
    /// path is benchmarked (and pinned byte-identical) against; `false` keeps it
    /// current by patching it forward (cost proportional to the drift).  Both take
    /// exactly the same data path.
    Patched {
        /// Rebuild from scratch each step instead of patching (comparison baseline).
        rebuild_every_step: bool,
    },
}

/// How (and whether) cells are periodically re-partitioned (the Table 5 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapStrategy {
    /// Keep the initial BLOCK distribution of cells for the whole run.
    Static,
    /// Re-partition with recursive coordinate bisection every `remap_interval` steps.
    RecursiveBisection,
    /// Re-partition with the 1-D chain partitioner along the flow (x) axis.
    Chain,
}

/// Configuration of one parallel DSMC run.
#[derive(Debug, Clone)]
pub struct DsmcConfig {
    /// Number of time steps.
    pub nsteps: usize,
    /// Time-step length.
    pub dt: f64,
    /// MOVE-phase implementation.
    pub move_mode: MoveMode,
    /// Remapping strategy.
    pub remap: RemapStrategy,
    /// Steps between remaps for the default interval policy (the paper remaps every 40
    /// steps).  `0` means "never remap" — the run behaves like [`RemapStrategy::Static`].
    pub remap_interval: usize,
    /// When to remap.  `None` uses the paper-compatible fixed cadence
    /// (`RemapPolicy::Interval { every: remap_interval }`), which needs no measurement and
    /// adds no communication; `Some` plugs in any [`chaos::adapt::RemapPolicy`], samples
    /// the collision time every step (one all-gather) and records the load-balance
    /// trajectory — under [`RemapStrategy::Static`] too, which samples but never remaps
    /// (the `static` rows of `BENCH_adapt.json`).
    pub policy: Option<RemapPolicy>,
    /// Retired: must be `None`.  It once selected group-leader monitoring; measured
    /// policies now always sample through one flat all-gather per step, and
    /// [`run_parallel`] panics on `Some(_)` rather than ignore it.  The field stays so
    /// configurations that name it keep building.
    pub monitor_group: Option<usize>,
    /// Collision RNG seed (must match the sequential reference for comparisons).
    pub seed: u64,
}

impl DsmcConfig {
    /// Light-weight MOVE, no remapping — the Table 4 baseline configuration.
    pub fn lightweight(nsteps: usize, seed: u64) -> Self {
        Self {
            nsteps,
            dt: 0.4,
            move_mode: MoveMode::Lightweight,
            remap: RemapStrategy::Static,
            remap_interval: 40,
            policy: None,
            monitor_group: None,
            seed,
        }
    }

    /// The remap policy this configuration resolves to: the explicit `policy` if set,
    /// otherwise the paper's fixed cadence at `remap_interval` (0 = never).  A
    /// [`RemapStrategy::Static`] run never remaps regardless of the policy.
    pub fn effective_policy(&self) -> RemapPolicy {
        if self.remap == RemapStrategy::Static {
            RemapPolicy::Interval { every: 0 }
        } else {
            self.policy.clone().unwrap_or(RemapPolicy::Interval {
                every: self.remap_interval,
            })
        }
    }
}

/// Modeled time per phase on this rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct DsmcPhaseTimes {
    /// Collision phase (pure computation).
    pub collide: TimeSnapshot,
    /// MOVE-phase preprocessing: schedule construction / placement negotiation.
    pub move_preprocess: TimeSnapshot,
    /// Bringing the MOVE schedule up to date — the schedule-cache request of
    /// [`MoveMode::Patched`], timed separately so the patch-vs-rebuild comparison reads
    /// straight off the phase table.  Zero for the other modes.
    pub move_upkeep: TimeSnapshot,
    /// MOVE-phase data transport and re-binning.
    pub move_data: TimeSnapshot,
    /// Running the partitioner during remaps.
    pub remap_partition: TimeSnapshot,
    /// Migrating molecules to their cells' new owners during remaps.
    pub remap_migrate: TimeSnapshot,
    /// The remap controller's measurement collectives: sampling the per-rank collision
    /// times each step and recording remap costs.
    pub monitor: TimeSnapshot,
}

impl DsmcPhaseTimes {
    /// Total modeled time across all phases.
    pub fn total(&self) -> TimeSnapshot {
        self.collide
            + self.move_preprocess
            + self.move_upkeep
            + self.move_data
            + self.remap_migrate
            + self.remap_partition
            + self.monitor
    }
}

/// Per-run summary returned by [`run_parallel`].
#[derive(Debug, Clone)]
pub struct DsmcStats {
    /// Modeled per-phase times on this rank.
    pub phases: DsmcPhaseTimes,
    /// Collision pairs processed on this rank.
    pub collisions: usize,
    /// Molecules this rank shipped to other processors during MOVE phases.
    pub migrations: usize,
    /// Number of remapping events.
    pub remaps: usize,
    /// The load-balance index of the collision phase at every step, as measured by the
    /// remap controller (identical on every rank).  Empty unless an explicit
    /// `config.policy` opted into per-step sampling — the paper-default cadence decides
    /// without measuring.
    pub lb_trajectory: Vec<f64>,
    /// `(step, machine-wide modeled cost in us)` of every remap performed, in order —
    /// the cost figures the [`chaos::adapt::RemapPolicy::CostBenefit`] policy amortises
    /// (identical on every rank).
    pub remap_costs: Vec<(usize, f64)>,
    /// Wire totals of the MOVE **data** path (count + payload exchanges) for
    /// [`MoveMode::Patched`], summed over steps.  How the schedule was kept current
    /// (patch vs rebuild) must not show up here — the equivalence tests pin these totals
    /// identical across both upkeep settings.  Zero for the other modes.
    pub move_data_exchange: ExchangeStats,
    /// Counters of the schedule cache [`MoveMode::Patched`] keeps its MOVE schedule in:
    /// `misses` are full builds, `patches` incremental patches (all zero for the other
    /// modes).
    pub cache_stats: CacheStats,
    /// Molecules held at the end of the run.
    pub final_particle_count: usize,
    /// (cell id, sorted molecule ids) for every non-empty owned cell — compared against
    /// [`crate::sequential::SequentialDsmc::fingerprint`].
    pub fingerprint: Vec<(usize, Vec<u64>)>,
}

/// Run the parallel DSMC simulation on the calling rank.  Collective: all ranks must call
/// with the same grid, particle set and configuration.  `particles` is the *global*
/// initial particle set (deterministically seeded on every rank); each rank keeps the
/// molecules that start in cells it owns.
pub fn run_parallel(
    rank: &mut Rank,
    grid: &CellGrid,
    particles: &[Particle],
    config: &DsmcConfig,
) -> DsmcStats {
    assert!(
        config.monitor_group.is_none(),
        "DsmcConfig::monitor_group is retired: monitoring is always the flat all-gather"
    );
    let nprocs = rank.nprocs();
    let me = rank.rank();

    let mut phases = DsmcPhaseTimes::default();
    let mut collisions = 0usize;
    let mut migrations = 0usize;
    let mut remaps = 0usize;

    // The feedback controller that decides when to remap.  Static runs without an explicit
    // policy skip the per-step sampling entirely (zero overhead, the pre-controller
    // behaviour); a Static run *with* a policy samples the trajectory but never remaps.
    let mut controller = (config.policy.is_some() || config.remap != RemapStrategy::Static)
        .then(|| RemapController::new(config.effective_policy()));
    let mut remap_costs: Vec<(usize, f64)> = Vec::new();

    // Initial static decomposition: equal slabs of cell columns along x (the natural
    // hand-written decomposition for a channel flow).  The owner map is replicated.
    let mut cell_owner: Vec<ProcId> = initial_owner_map(grid, nprocs);
    let mut store = CellStore::default();
    store.own(me, &cell_owner);
    for p in particles {
        let k = store.ordinal[grid.cell_of_position(p.pos)];
        if k != OFF_RANK {
            store.lane.push(k);
            store.molecules.push(*p);
        }
    }
    store.rebin();

    // Reused across steps: the molecules leaving their cell this step, with their
    // destination cells and ranks, in advance-scan order.  Clearing instead of
    // reallocating keeps the steady MOVE loop free of growth allocations once warm.
    let mut migrant_cells: Vec<usize> = Vec::new();
    let mut migrants: Vec<Particle> = Vec::new();
    let mut migrant_ranks: Vec<ProcId> = Vec::new();

    // Persistent inspector state of the patched MOVE path (the schedule cache and the
    // hash table it serves from).  `None` for the other modes.
    let mut patched_state = matches!(config.move_mode, MoveMode::Patched { .. })
        .then(|| PatchedMoveState::new(me, &cell_owner, nprocs));

    for step in 0..config.nsteps {
        // ------------------------------------------------------------------- collisions --
        let t0 = rank.modeled();
        let CellStore {
            owned_cells,
            ordinal,
            molecules,
            offsets,
            lane,
            ..
        } = &mut store;
        for (&cell, span) in owned_cells.iter().zip(offsets.windows(2)) {
            let list = &mut molecules[span[0] as usize..span[1] as usize];
            let pairs = collide_cell(cell, step, config.seed, list);
            collisions += pairs;
            rank.charge_compute(pairs as f64 * 2.0 + list.len() as f64 * 0.3 + 0.2);
        }
        let collide_step = rank.modeled().since(&t0);
        phases.collide += collide_step;

        // ------------------------------------------------------------------- MOVE phase --
        // Advance every molecule in place, in scan order (ascending owned cell, id order
        // within a cell after the collisions), and note its new owned cell in the lane.
        // Migrants (different cell — possibly one this rank also owns) are also copied
        // once, into the reused migrant buffers; the re-bin after the exchange places them.
        let t0 = rank.modeled();
        migrant_cells.clear();
        migrants.clear();
        migrant_ranks.clear();
        let mut survivors = 0usize;
        for (&cell, span) in owned_cells.iter().zip(offsets.windows(2)) {
            for p in &mut molecules[span[0] as usize..span[1] as usize] {
                advance(p, grid, config.dt);
                let new_cell = grid.cell_of_position(p.pos);
                lane.push(ordinal[new_cell]);
                if new_cell == cell {
                    survivors += 1;
                } else {
                    migrant_cells.push(new_cell);
                    migrants.push(*p);
                    migrant_ranks.push(cell_owner[new_cell]);
                }
            }
        }
        phases.move_data += rank.modeled().since(&t0);

        let remote_arrivals = match config.move_mode {
            MoveMode::Lightweight => {
                // The destination ranks are the light-weight inspector's entire input (one
                // exchange of counts).  Whole molecules are then appended split-phase, and
                // the survivors' re-binning charge is paid while the migrants are in flight.
                let t0 = rank.modeled();
                let sched = LightweightSchedule::build(rank, &migrant_ranks);
                phases.move_preprocess += rank.modeled().since(&t0);
                let t0 = rank.modeled();
                migrations += migrants.len() - sched.kept_count();
                let inflight = scatter_append_start(rank, &sched, &migrants);
                charge_survivors(rank, survivors);
                let mut arrivals = scatter_append_finish(rank, &sched, inflight);
                // The kept items lead the result, and the store still holds them.
                arrivals.drain(..sched.kept_count());
                phases.move_data += rank.modeled().since(&t0);
                arrivals
            }
            MoveMode::Patched { rebuild_every_step } => {
                // No split phase here: the survivors' re-binning charge is paid first; the
                // schedule is then brought up to date (patch or rebuild) and the off-rank
                // migrants shipped through it.
                let t0 = rank.modeled();
                charge_survivors(rank, survivors);
                phases.move_data += rank.modeled().since(&t0);
                move_patched(
                    rank,
                    &migrant_cells,
                    &migrant_ranks,
                    &migrants,
                    patched_state.as_mut().expect("state exists for Patched"),
                    rebuild_every_step,
                    &mut phases,
                    &mut migrations,
                )
            }
        };

        let t0 = rank.modeled();
        store.place(me, grid, &cell_owner, &remote_arrivals);
        phases.move_data += rank.modeled().since(&t0);

        // ------------------------------------------------------------------- remapping --
        // With an explicit policy, feed this step's measured collision compute time to
        // the controller (one all-gather, so every rank sees the same per-rank vector
        // and reaches the same decision) and report remap costs back.  The paper-default
        // fixed cadence needs no measurement to decide, so it ticks the controller
        // locally and pays zero monitoring communication — exactly the pre-controller
        // behaviour.
        if let Some(ctrl) = controller.as_mut() {
            let measured = config.policy.is_some();
            let decision = if measured {
                let t0 = rank.modeled();
                let d = ctrl.observe_sample(rank, collide_step.compute_us);
                phases.monitor += rank.modeled().since(&t0);
                d
            } else {
                ctrl.tick()
            };
            if decision.remap && config.remap != RemapStrategy::Static {
                remaps += 1;
                let bytes_before = rank.stats().bytes_sent;
                let t0 = rank.modeled();
                remap_cells(rank, grid, config, &mut cell_owner, &mut store, &mut phases);
                if let Some(state) = patched_state.as_mut() {
                    state.distribution_changed(me, &cell_owner, nprocs);
                }
                let remap_cost = rank.modeled().since(&t0).total_us();
                let moved = rank.stats().bytes_sent - bytes_before;
                if measured {
                    let t0 = rank.modeled();
                    ctrl.record_remap(rank, moved, remap_cost);
                    phases.monitor += rank.modeled().since(&t0);
                    remap_costs.push((
                        step,
                        ctrl.last_remap_cost_us().expect("remap cost just recorded"),
                    ));
                }
            }
        }
    }

    let fingerprint: Vec<(usize, Vec<u64>)> = (0..store.owned_cells.len())
        .filter(|&k| !store.cell(k).is_empty())
        .map(|k| {
            let mut ids: Vec<u64> = store.cell(k).iter().map(|p| p.id).collect();
            ids.sort_unstable();
            (store.owned_cells[k], ids)
        })
        .collect();

    DsmcStats {
        phases,
        collisions,
        migrations,
        remaps,
        lb_trajectory: controller
            .map(|c| c.lb_trajectory().to_vec())
            .unwrap_or_default(),
        remap_costs,
        move_data_exchange: patched_state
            .as_ref()
            .map(|s| s.exchange)
            .unwrap_or_default(),
        cache_stats: patched_state.map(|s| s.cache.stats()).unwrap_or_default(),
        final_particle_count: store.molecules.len(),
        fingerprint,
    }
}

/// The stamp under which [`MoveMode::Patched`] hashes each step's destination cells.
const MOVE_STAMP: Stamp = Stamp::new(0);

/// Persistent inspector state of the [`MoveMode::Patched`] MOVE path: the indirection
/// being maintained is "which off-processor cells do my molecules migrate into", and it
/// drifts a little every step — exactly the shape delta-schedule maintenance amortises.
struct PatchedMoveState {
    /// Replicated translation table over the cell-owner map (rebuilt on remap).
    ttable: TranslationTable,
    /// Stamped hash of destination cells; survives across steps so translations and
    /// ghost slots are reused, and survives remaps via `clear_all` (epoch bump).
    hash: IndexHashTable,
    /// Holds the one migration schedule: the first step and every step after a remap
    /// miss and build it, the others patch it.
    cache: ScheduleCache,
    exchange: ExchangeStats,
}

impl PatchedMoveState {
    fn new(me: ProcId, cell_owner: &[ProcId], nprocs: usize) -> Self {
        let ttable = TranslationTable::replicated_from_full_map(cell_owner, nprocs)
            .expect("cell owners are valid ranks");
        let hash = IndexHashTable::new(me, ttable.local_size(me));
        Self {
            ttable,
            hash,
            cache: ScheduleCache::new(1),
            exchange: ExchangeStats::default(),
        }
    }

    /// A remap changed the cell-owner map: every cached translation is stale.  The hash
    /// table is cleared (not replaced), so its epoch bump flows into the schedule key and
    /// the next request rebuilds the schedule in place.
    fn distribution_changed(&mut self, me: ProcId, cell_owner: &[ProcId], nprocs: usize) {
        self.ttable = TranslationTable::replicated_from_full_map(cell_owner, nprocs)
            .expect("cell owners are valid ranks");
        self.hash.clear_all(self.ttable.local_size(me));
    }
}

/// MOVE phase over a maintained regular schedule (see [`MoveMode::Patched`]).
///
/// Preprocessing re-hashes the step's off-processor destination cells under a fresh
/// stamp and brings the cached schedule up to date — by patch or, for the baseline and
/// after a remap, by rebuild; both yield byte-identical schedules.  The data path then ships per-row
/// molecule counts through the schedule's scatter direction and the molecules themselves
/// through one sparse payload exchange, and returns the molecules other ranks sent, in
/// source-rank then schedule-row order.  Migrants between this rank's own cells are the
/// caller's to place; they are only charged here.
#[allow(clippy::too_many_arguments)]
fn move_patched(
    rank: &mut Rank,
    migrant_cells: &[usize],
    migrant_ranks: &[ProcId],
    migrants: &[Particle],
    state: &mut PatchedMoveState,
    rebuild_every_step: bool,
    phases: &mut DsmcPhaseTimes,
    migrations: &mut usize,
) -> Vec<Particle> {
    let nprocs = rank.nprocs();
    let me = rank.rank();

    // ---- inspector upkeep: re-hash the drifted destination set, patch the schedule ----
    let t0 = rank.modeled();
    // Indices into `migrants` of the molecules leaving the rank, and their cells.
    let offproc: Vec<usize> = (0..migrants.len())
        .filter(|&k| migrant_ranks[k] != me)
        .collect();
    let dest_cells: Vec<usize> = offproc.iter().map(|&k| migrant_cells[k]).collect();
    // Molecules migrating between my own cells, placed by the caller.
    let local = migrants.len() - offproc.len();
    *migrations += offproc.len();
    state.hash.clear_stamp(MOVE_STAMP);
    state
        .hash
        .hash_in_replicated(rank, &state.ttable, &dest_cells, MOVE_STAMP);
    phases.move_preprocess += rank.modeled().since(&t0);

    let t0 = rank.modeled();
    if rebuild_every_step {
        state.cache.retire_table(&state.hash);
    }
    let (sched, _) = state
        .cache
        .schedule(rank, &state.hash, StampQuery::single(MOVE_STAMP));
    phases.move_upkeep += rank.modeled().since(&t0);

    // ---- data path: per-row counts through the scatter direction, then the payload ----
    // Identical whether the schedule was patched or rebuilt, because it depends only on
    // the schedule bytes.
    let t0 = rank.modeled();
    // Ghost slot -> (source rank, row); `from_parts` bounds every slot by `ghost_len`.
    let mut row_of_slot: Vec<Option<(usize, u32)>> = vec![None; sched.ghost_len()];
    for (p, perms) in sched.perm_lists().iter().enumerate() {
        for (row, &slot) in perms.iter().enumerate() {
            row_of_slot[slot as usize] = Some((p, row as u32));
        }
    }
    let mut counts: Vec<Vec<u32>> = (0..nprocs).map(|p| vec![0; sched.fetch_size(p)]).collect();
    let mut binned: Vec<Vec<(u32, usize)>> = vec![Vec::new(); nprocs];
    for &k in &offproc {
        let slot = state
            .hash
            .get(migrant_cells[k])
            .and_then(|entry| entry.ghost_slot)
            .expect("destination cell just hashed, with a ghost slot");
        let (p, row) = row_of_slot[slot as usize].expect("hashed cell has a schedule row");
        counts[p][row as usize] += 1;
        binned[p].push((row, k));
    }
    rank.charge_compute(offproc.len() as f64 * 0.1);
    for b in &mut binned {
        // Stable by row: within a row, molecules keep their advance-scan order.
        b.sort_by_key(|&(row, _)| row);
    }
    let mut incoming_counts: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
    let ex_counts = alltoallv_with(
        rank,
        &sched.scatter_plan(me),
        |p, buf| buf.extend_from_slice(&counts[p]),
        |src, placed| incoming_counts[src] = placed.into_vec(),
    );
    let payload_send: Vec<usize> = binned.iter().map(Vec::len).collect();
    let payload_recv: Vec<usize> = incoming_counts
        .iter()
        .map(|c| c.iter().map(|&n| n as usize).sum())
        .collect();
    let pplan = ExchangePlan::sparse(me, payload_send, payload_recv);
    let mut recv_payload: Vec<Vec<Particle>> = vec![Vec::new(); nprocs];
    let ex_payload = alltoallv_with(
        rank,
        &pplan,
        |p, buf| binned[p].iter().for_each(|&(_, k)| buf.push(migrants[k])),
        |src, placed| recv_payload[src] = placed.into_vec(),
    );
    state.exchange = state.exchange.merged(&ex_counts).merged(&ex_payload);

    // Both plans receive `Exact` sizes, so the engine has already checked one count per
    // row and a payload of exactly their sum.  The caller places each arrival by its
    // position, so the rows' order needs no unpacking here.
    let arrivals = recv_payload.concat();
    rank.charge_compute((local + arrivals.len()) as f64 * 0.3);
    phases.move_data += rank.modeled().since(&t0);
    arrivals
}

/// The modeled cost of re-binning the molecules that stayed in their cell: work a
/// distributed-memory DSMC code does while the light-weight exchange is in flight, and
/// before the patched schedule's upkeep.  The store here re-bins every molecule in one
/// counting sort after the exchange, but the charge must still fall in exactly those
/// windows: a rank's compute time is one running `f64` sum and the phase split reads it
/// at fixed points, so moving the charge would change modeled figures in their last bits.
fn charge_survivors(rank: &mut Rank, survivors: usize) {
    rank.charge_compute(survivors as f64 * 0.2);
}

/// The cell of a molecule delivered to rank `me`, recomputed from its position (arrival
/// order does not matter).  Panics, naming the rank, molecule, cell and owner, if `me` does
/// not own it: the molecule would sit in a cell no loop visits, yet in the fingerprint.
fn arrival_cell(me: ProcId, grid: &CellGrid, cell_owner: &[ProcId], p: &Particle) -> usize {
    let cell = grid.cell_of_position(p.pos);
    let owner = cell_owner[cell];
    assert!(
        owner == me,
        "rank {me}: molecule {} delivered for cell {cell}, which rank {owner} owns",
        p.id
    );
    cell
}

/// The ordinal of a cell this rank does not own, in [`CellStore::ordinal`] and the lane.
const OFF_RANK: u32 = u32::MAX;

/// A rank's molecules in one array, cell after cell in `owned_cells` order (CSR), and a
/// second buffer of the same shape that each re-bin fills and swaps in.
#[derive(Default)]
struct CellStore {
    /// The owned cells in ascending global order; only a remap changes them.
    owned_cells: Vec<usize>,
    /// Global cell -> its position in `owned_cells`, or [`OFF_RANK`].
    ordinal: Vec<u32>,
    /// Owned cell `k` holds `molecules[offsets[k]..offsets[k + 1]]`.
    molecules: Vec<Particle>,
    offsets: Vec<u32>,
    spare: Vec<Particle>,
    /// The re-bin key: the new owned ordinal of each molecule.
    lane: Vec<u32>,
}

impl CellStore {
    /// Own the cells `cell_owner` gives `me`.  The molecules keep the old layout, and
    /// [`Self::cell`] is meaningless, until the next re-bin.
    fn own(&mut self, me: ProcId, cell_owner: &[ProcId]) {
        self.owned_cells = (0..cell_owner.len())
            .filter(|&cell| cell_owner[cell] == me)
            .collect();
        self.ordinal = vec![OFF_RANK; cell_owner.len()];
        for (k, &cell) in self.owned_cells.iter().enumerate() {
            self.ordinal[cell] = k as u32;
        }
    }

    fn cell(&self, k: usize) -> &[Particle] {
        &self.molecules[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Append `arrivals`, each keyed by its cell ([`arrival_cell`] checks it), and re-bin.
    fn place(&mut self, me: ProcId, grid: &CellGrid, cell_owner: &[ProcId], arrivals: &[Particle]) {
        for p in arrivals {
            let cell = arrival_cell(me, grid, cell_owner, p);
            self.lane.push(self.ordinal[cell]);
        }
        self.molecules.extend_from_slice(arrivals);
        self.rebin();
    }

    /// One stable counting sort into the spare buffer, which then becomes the store:
    /// molecule `i` goes to owned cell `lane[i]`, or leaves the rank at [`OFF_RANK`].
    fn rebin(&mut self) {
        assert_eq!(self.lane.len(), self.molecules.len(), "one key a molecule");
        let ncells = self.owned_cells.len();
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(ncells + 1, 0);
        for &k in self.lane.iter().filter(|&&k| k != OFF_RANK) {
            offsets[k as usize + 1] += 1;
        }
        for k in 0..ncells {
            offsets[k + 1] += offsets[k];
        }
        // Each start is its cell's cursor; `resize` writes only past the old length.
        self.spare
            .resize(offsets[ncells] as usize, Particle::default());
        for (&k, p) in self.lane.iter().zip(&self.molecules) {
            if k != OFF_RANK {
                self.spare[offsets[k as usize] as usize] = *p;
                offsets[k as usize] += 1;
            }
        }
        // Each cursor ended at its cell's end, which is the next cell's start.
        offsets.copy_within(..ncells, 1);
        offsets[0] = 0;
        mem::swap(&mut self.molecules, &mut self.spare);
        self.lane.clear();
    }
}

/// The static decomposition used before any remapping: contiguous slabs of cell columns
/// along the x axis, one slab per processor (balanced to within one column).
pub fn initial_owner_map(grid: &CellGrid, nprocs: usize) -> Vec<ProcId> {
    let column_owner: Vec<ProcId> = chaos::partitioners::block_map(grid.nx, nprocs.min(grid.nx));
    (0..grid.ncells())
        .map(|cell| {
            let (ix, _, _) = grid.cell_coords(cell);
            column_owner[ix]
        })
        .collect()
}

/// Re-partition the cells from their current molecule counts, migrate molecules to the
/// new owners and re-bin the store over the new owned cells.
fn remap_cells(
    rank: &mut Rank,
    grid: &CellGrid,
    config: &DsmcConfig,
    cell_owner: &mut [ProcId],
    store: &mut CellStore,
    phases: &mut DsmcPhaseTimes,
) {
    let nprocs = rank.nprocs();
    let me = rank.rank();

    // ---- run the partitioner over the owned cells --------------------------------------
    let t0 = rank.modeled();
    let owned_cells = &store.owned_cells;
    let weights: Vec<f64> = (0..owned_cells.len())
        .map(|k| 1.0 + store.cell(k).len() as f64)
        .collect();
    let new_parts: Vec<ProcId> = match config.remap {
        RemapStrategy::Static => owned_cells.iter().map(|&c| cell_owner[c]).collect(),
        RemapStrategy::RecursiveBisection => {
            let coords: Vec<[f64; 3]> = owned_cells.iter().map(|&c| grid.cell_center(c)).collect();
            rcb_partition(rank, PartitionInput::new(&coords, &weights), nprocs)
        }
        RemapStrategy::Chain => {
            let xs: Vec<f64> = owned_cells
                .iter()
                .map(|&c| grid.cell_center(c)[0])
                .collect();
            chain_partition(rank, &xs, &weights, nprocs)
        }
    };
    // Publish the new owner map (it is replicated, like the paper's translation table for
    // DSMC cells).
    let updates: Vec<(u64, u64)> = owned_cells
        .iter()
        .zip(&new_parts)
        .map(|(&c, &p)| (c as u64, p as u64))
        .collect();
    for (cell, owner) in rank.all_gather(&updates).into_iter().flatten() {
        cell_owner[cell as usize] = owner as usize;
    }
    phases.remap_partition += rank.modeled().since(&t0);

    // ---- migrate molecules of reassigned cells ------------------------------------------
    // Every molecule sits in the cell of its position, so one scan in store order keys
    // the stayers by their new ordinals and collects the movers cell by cell.
    let t0 = rank.modeled();
    store.own(me, cell_owner);
    let mut moving: Vec<Particle> = Vec::new();
    let mut dests: Vec<ProcId> = Vec::new();
    for p in &store.molecules {
        let cell = grid.cell_of_position(p.pos);
        store.lane.push(store.ordinal[cell]);
        if cell_owner[cell] != me {
            moving.push(*p);
            dests.push(cell_owner[cell]);
        }
    }
    let sched = LightweightSchedule::build(rank, &dests);
    let arrivals = scatter_append(rank, &sched, &moving);
    store.place(me, grid, cell_owner, &arrivals);
    phases.remap_migrate += rank.modeled().since(&t0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::{seed_particles, FlowConfig};
    use crate::sequential::SequentialDsmc;
    use mpsim::{run, MachineConfig};

    fn merged_fingerprint(results: &[DsmcStats]) -> Vec<(usize, Vec<u64>)> {
        let mut all: Vec<(usize, Vec<u64>)> =
            results.iter().flat_map(|s| s.fingerprint.clone()).collect();
        all.sort_unstable();
        all
    }

    fn run_config(
        nprocs: usize,
        grid: CellGrid,
        nparticles: usize,
        flow: FlowConfig,
        config: DsmcConfig,
    ) -> Vec<DsmcStats> {
        run(MachineConfig::new(nprocs), move |rank| {
            let particles = seed_particles(&grid, nparticles, &flow);
            run_parallel(rank, &grid, &particles, &config)
        })
        .results
    }

    fn sequential_fingerprint(
        grid: CellGrid,
        nparticles: usize,
        flow: FlowConfig,
        nsteps: usize,
        dt: f64,
        seed: u64,
    ) -> Vec<(usize, Vec<u64>)> {
        let particles = seed_particles(&grid, nparticles, &flow);
        let mut sim = SequentialDsmc::new(grid, particles, dt, seed);
        sim.run(nsteps);
        let mut fp = sim.fingerprint();
        fp.sort_unstable();
        fp
    }

    #[test]
    fn lightweight_parallel_matches_sequential() {
        let grid = CellGrid::new_2d(8, 8);
        let flow = FlowConfig::directional(21);
        let config = DsmcConfig::lightweight(12, 21);
        let results = run_config(4, grid, 600, flow, config.clone());
        let total: usize = results.iter().map(|s| s.final_particle_count).sum();
        assert_eq!(total, 600);
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 600, flow, 12, config.dt, 21);
        assert_eq!(par, seq);
    }

    #[test]
    fn regular_move_matches_sequential_too() {
        let grid = CellGrid::new_2d(6, 6);
        let flow = FlowConfig::uniform(5);
        let config = DsmcConfig {
            nsteps: 10,
            dt: 0.4,
            move_mode: MoveMode::Patched {
                rebuild_every_step: true,
            },
            remap: RemapStrategy::Static,
            remap_interval: 40,
            policy: None,
            monitor_group: None,
            seed: 5,
        };
        let results = run_config(3, grid, 400, flow, config.clone());
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 400, flow, 10, config.dt, 5);
        assert_eq!(par, seq);
    }

    #[test]
    fn remapping_with_chain_partitioner_preserves_the_simulation() {
        let grid = CellGrid::new_2d(8, 8);
        let flow = FlowConfig::directional(33);
        let config = DsmcConfig {
            nsteps: 15,
            dt: 0.4,
            move_mode: MoveMode::Lightweight,
            remap: RemapStrategy::Chain,
            remap_interval: 5,
            policy: None,
            monitor_group: None,
            seed: 33,
        };
        let results = run_config(4, grid, 500, flow, config.clone());
        assert!(results.iter().all(|s| s.remaps == 2));
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 500, flow, 15, config.dt, 33);
        assert_eq!(par, seq);
    }

    #[test]
    fn remapping_with_rcb_preserves_the_simulation() {
        let grid = CellGrid::new_3d(4, 4, 4);
        let flow = FlowConfig::directional(44);
        let config = DsmcConfig {
            nsteps: 12,
            dt: 0.3,
            move_mode: MoveMode::Lightweight,
            remap: RemapStrategy::RecursiveBisection,
            remap_interval: 4,
            policy: None,
            monitor_group: None,
            seed: 44,
        };
        let results = run_config(4, grid, 600, flow, config.clone());
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 600, flow, 12, config.dt, 44);
        assert_eq!(par, seq);
    }

    #[test]
    fn lightweight_move_is_cheaper_than_regular() {
        // Table 4's claim, at unit-test scale: same simulation, the light-weight MOVE
        // spends less modeled time on preprocessing + transport than a regular schedule
        // rebuilt every step.
        let grid = CellGrid::new_2d(12, 12);
        let flow = FlowConfig::uniform(9);
        let time_of = |mode: MoveMode| -> f64 {
            let config = DsmcConfig {
                nsteps: 10,
                dt: 0.4,
                move_mode: mode,
                remap: RemapStrategy::Static,
                remap_interval: 40,
                policy: None,
                monitor_group: None,
                seed: 9,
            };
            let results = run_config(4, grid, 1_000, flow, config);
            results
                .iter()
                .map(|s| {
                    let p = &s.phases;
                    (p.move_preprocess + p.move_upkeep + p.move_data).total_us()
                })
                .fold(0.0, f64::max)
        };
        let light = time_of(MoveMode::Lightweight);
        let regular = time_of(MoveMode::Patched {
            rebuild_every_step: true,
        });
        assert!(
            light < regular,
            "light-weight MOVE should be cheaper (light={light:.1}us, regular={regular:.1}us)"
        );
    }

    #[test]
    fn remapping_improves_load_balance_for_directional_flow() {
        let grid = CellGrid::new_2d(16, 8);
        let flow = FlowConfig::directional(55);
        let imbalance_of = |remap: RemapStrategy| -> f64 {
            let config = DsmcConfig {
                nsteps: 30,
                dt: 0.5,
                move_mode: MoveMode::Lightweight,
                remap,
                remap_interval: 10,
                policy: None,
                monitor_group: None,
                seed: 55,
            };
            let results = run_config(4, grid, 2_000, flow, config);
            let collide_times: Vec<f64> = results
                .iter()
                .map(|s| s.phases.collide.compute_us)
                .collect();
            chaos::load_balance_index(&collide_times)
        };
        let static_lb = imbalance_of(RemapStrategy::Static);
        let chain_lb = imbalance_of(RemapStrategy::Chain);
        assert!(
            chain_lb < static_lb,
            "chain remapping should improve balance (static={static_lb:.2}, chain={chain_lb:.2})"
        );
    }

    #[test]
    fn remap_interval_zero_means_never() {
        // Regression: `step % config.remap_interval` panicked on a zero interval.  The
        // controller treats 0 as "never remap": the run completes, remaps nothing, and
        // still matches the sequential reference.
        let grid = CellGrid::new_2d(8, 8);
        let flow = FlowConfig::directional(17);
        let config = DsmcConfig {
            nsteps: 8,
            dt: 0.4,
            move_mode: MoveMode::Lightweight,
            remap: RemapStrategy::Chain,
            remap_interval: 0,
            policy: None,
            monitor_group: None,
            seed: 17,
        };
        let results = run_config(4, grid, 400, flow, config.clone());
        assert!(results.iter().all(|s| s.remaps == 0));
        // The default cadence decides without measuring: no trajectory, no monitor cost.
        assert!(results.iter().all(|s| s.lb_trajectory.is_empty()));
        assert!(results.iter().all(|s| s.phases.monitor.total_us() == 0.0));
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 400, flow, 8, config.dt, 17);
        assert_eq!(par, seq);
    }

    #[test]
    fn threshold_policy_remaps_and_preserves_the_simulation() {
        let grid = CellGrid::new_2d(12, 8);
        let flow = FlowConfig::directional(61);
        let config = DsmcConfig {
            nsteps: 20,
            dt: 0.5,
            move_mode: MoveMode::Lightweight,
            remap: RemapStrategy::Chain,
            remap_interval: 40,
            policy: Some(chaos::adapt::RemapPolicy::Threshold {
                lb_index: 1.2,
                hysteresis: 0.05,
                patience: 0,
            }),
            monitor_group: None,
            seed: 61,
        };
        let results = run_config(4, grid, 1_500, flow, config.clone());
        // The directional flow piles molecules downstream, so the threshold must fire at
        // least once — and every rank must agree on when.
        let remaps: Vec<usize> = results.iter().map(|s| s.remaps).collect();
        assert!(remaps[0] > 0, "threshold policy never fired");
        assert!(remaps.iter().all(|&r| r == remaps[0]));
        // The trajectory is replicated: identical on every rank, one entry per step.
        for s in &results {
            assert_eq!(s.lb_trajectory, results[0].lb_trajectory);
            assert_eq!(s.lb_trajectory.len(), 20);
            assert!(s
                .lb_trajectory
                .iter()
                .all(|lb| lb.is_finite() && *lb >= 1.0));
        }
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 1_500, flow, 20, config.dt, 61);
        assert_eq!(par, seq);
    }

    #[test]
    fn cost_benefit_policy_preserves_the_simulation() {
        let grid = CellGrid::new_2d(12, 8);
        let flow = FlowConfig::directional(62);
        let config = DsmcConfig {
            nsteps: 20,
            dt: 0.5,
            move_mode: MoveMode::Lightweight,
            remap: RemapStrategy::Chain,
            remap_interval: 40,
            policy: Some(chaos::adapt::RemapPolicy::CostBenefit {
                assumed_cost_us: 500.0,
            }),
            monitor_group: None,
            seed: 62,
        };
        let results = run_config(4, grid, 1_500, flow, config.clone());
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 1_500, flow, 20, config.dt, 62);
        assert_eq!(par, seq);
    }

    #[test]
    fn static_runs_skip_the_monitor_entirely() {
        let grid = CellGrid::new_2d(8, 8);
        let flow = FlowConfig::uniform(3);
        let config = DsmcConfig::lightweight(6, 3);
        let results = run_config(2, grid, 300, flow, config);
        for s in &results {
            assert!(s.lb_trajectory.is_empty());
            assert_eq!(s.phases.monitor.total_us(), 0.0);
        }
    }

    #[test]
    fn patched_move_matches_sequential() {
        let grid = CellGrid::new_2d(8, 8);
        let flow = FlowConfig::directional(73);
        let config = DsmcConfig {
            nsteps: 12,
            dt: 0.4,
            move_mode: MoveMode::Patched {
                rebuild_every_step: false,
            },
            remap: RemapStrategy::Static,
            remap_interval: 40,
            policy: None,
            monitor_group: None,
            seed: 73,
        };
        let results = run_config(4, grid, 600, flow, config.clone());
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 600, flow, 12, config.dt, 73);
        assert_eq!(par, seq);
        // Steady state: one initial build, every later step a patch.
        for s in &results {
            assert_eq!(s.cache_stats.misses, 1);
            assert_eq!(s.cache_stats.patches, 11);
        }
    }

    #[test]
    fn patched_upkeep_choice_does_not_change_the_physics_or_the_data_path() {
        // The on-vs-off equivalence the issue pins: whether the maintained schedule is
        // patched forward or rebuilt every step, the fingerprints AND the MOVE data-path
        // wire totals must be identical — only the upkeep counters may differ.
        let grid = CellGrid::new_2d(10, 8);
        let flow = FlowConfig::directional(74);
        let run_mode = |rebuild_every_step: bool| -> Vec<DsmcStats> {
            let config = DsmcConfig {
                nsteps: 14,
                dt: 0.4,
                move_mode: MoveMode::Patched { rebuild_every_step },
                remap: RemapStrategy::Static,
                remap_interval: 40,
                policy: None,
                monitor_group: None,
                seed: 74,
            };
            run_config(4, grid, 800, flow, config)
        };
        let patched = run_mode(false);
        let rebuilt = run_mode(true);
        assert_eq!(merged_fingerprint(&patched), merged_fingerprint(&rebuilt));
        for (p, r) in patched.iter().zip(&rebuilt) {
            assert_eq!(p.move_data_exchange, r.move_data_exchange);
            assert_eq!(p.migrations, r.migrations);
            assert_eq!(r.cache_stats.misses, 14);
            assert_eq!(r.cache_stats.patches, 0);
            assert_eq!(p.cache_stats.misses, 1);
            assert_eq!(p.cache_stats.patches, 13);
        }
        // Something actually crossed the wire, or the equivalence is vacuous.
        assert!(patched.iter().any(|s| s.move_data_exchange.msgs_sent > 0));
    }

    #[test]
    fn patched_move_survives_remapping() {
        // A remap invalidates every cached translation; the epoch bump must flow through
        // the schedule key so the next request rebuilds — and the simulation must still
        // match the sequential reference.
        let grid = CellGrid::new_2d(8, 8);
        let flow = FlowConfig::directional(75);
        let config = DsmcConfig {
            nsteps: 15,
            dt: 0.4,
            move_mode: MoveMode::Patched {
                rebuild_every_step: false,
            },
            remap: RemapStrategy::Chain,
            remap_interval: 5,
            policy: None,
            monitor_group: None,
            seed: 75,
        };
        let results = run_config(4, grid, 500, flow, config.clone());
        assert!(results.iter().all(|s| s.remaps == 2));
        let par = merged_fingerprint(&results);
        let seq = sequential_fingerprint(grid, 500, flow, 15, config.dt, 75);
        assert_eq!(par, seq);
        // The first step and the step after each remap build; the other twelve patch.
        for s in &results {
            assert_eq!(s.cache_stats.misses, 3);
            assert_eq!(s.cache_stats.patches, 12);
            assert_eq!(s.cache_stats.evictions, 0);
        }
    }

    #[test]
    fn migrations_are_counted() {
        let grid = CellGrid::new_2d(8, 8);
        let flow = FlowConfig::directional(2);
        let config = DsmcConfig::lightweight(8, 2);
        let results = run_config(2, grid, 300, flow, config);
        let migrations: usize = results.iter().map(|s| s.migrations).sum();
        assert!(
            migrations > 0,
            "directional flow must push molecules across ranks"
        );
        let collisions: usize = results.iter().map(|s| s.collisions).sum();
        assert!(collisions > 0);
    }

    #[test]
    fn edge_shapes_match_sequential_on_every_backend_mode_and_partitioner() {
        // At P = 5 > nx = 4 one rank starts with no cells; P = 1 has no peer at all.
        let grid = CellGrid::new_3d(4, 3, 2);
        let flow = FlowConfig::directional(81);
        let (nparticles, nsteps, dt) = (300, 10, 0.4);
        let seq = sequential_fingerprint(grid, nparticles, flow, nsteps, dt, 81);
        for nprocs in [1, 3, 5] {
            for move_mode in [
                MoveMode::Lightweight,
                MoveMode::Patched {
                    rebuild_every_step: false,
                },
            ] {
                for remap in [RemapStrategy::Chain, RemapStrategy::RecursiveBisection] {
                    let config = DsmcConfig {
                        nsteps,
                        dt,
                        move_mode,
                        remap,
                        remap_interval: 3,
                        policy: None,
                        monitor_group: None,
                        seed: 81,
                    };
                    let results = run(MachineConfig::new(nprocs), move |rank| {
                        let particles = seed_particles(&grid, nparticles, &flow);
                        run_parallel(rank, &grid, &particles, &config)
                    })
                    .results;
                    let what = format!("P={nprocs} {move_mode:?} {remap:?}");
                    assert!(results.iter().all(|s| s.remaps == 3), "{what}");
                    let mut cells: Vec<usize> = results
                        .iter()
                        .flat_map(|s| s.fingerprint.iter().map(|(c, _)| *c))
                        .collect();
                    let listed = cells.len();
                    cells.sort_unstable();
                    cells.dedup();
                    assert_eq!(cells.len(), listed, "a cell on two ranks: {what}");
                    assert_eq!(merged_fingerprint(&results), seq, "{what}");
                }
            }
        }
    }

    #[test]
    fn long_steps_through_the_wrap_fallback_match_sequential() {
        // A step long enough to carry molecules more than one box length in y and z sends
        // the periodic wrap down its `rem_euclid` fallback; every MOVE mode and machine
        // size must still reproduce the sequential oracle.
        let grid = CellGrid::new_3d(4, 3, 2);
        let flow = FlowConfig::directional(91);
        let (nparticles, nsteps, dt) = (300, 8, 20.0);
        let particles = seed_particles(&grid, nparticles, &flow);
        for k in [1, 2] {
            let wide = 2.0 * if k == 1 { grid.ly } else { grid.lz };
            assert!(
                particles.iter().any(|p| (p.vel[k] * dt).abs() > wide),
                "no molecule crosses two periods along axis {k}"
            );
        }
        let seq = sequential_fingerprint(grid, nparticles, flow, nsteps, dt, 91);
        for nprocs in [1, 2, 3] {
            for move_mode in [
                MoveMode::Lightweight,
                MoveMode::Patched {
                    rebuild_every_step: false,
                },
            ] {
                let config = DsmcConfig {
                    nsteps,
                    dt,
                    move_mode,
                    remap: RemapStrategy::Chain,
                    remap_interval: 3,
                    policy: None,
                    monitor_group: None,
                    seed: 91,
                };
                let results = run(MachineConfig::new(nprocs), move |rank| {
                    let particles = seed_particles(&grid, nparticles, &flow);
                    run_parallel(rank, &grid, &particles, &config)
                })
                .results;
                let what = format!("P={nprocs} {move_mode:?}");
                assert_eq!(merged_fingerprint(&results), seq, "{what}");
            }
        }
    }

    #[test]
    fn threshold_chain_remaps_match_sequential_on_a_3d_grid() {
        // `dsmc_move`'s configuration with a patience short enough to remap within the
        // test's steps, so the store's remap path runs against the oracle at every P.
        let grid = CellGrid::new_3d(8, 4, 4);
        let flow = FlowConfig::directional(1994);
        let config = DsmcConfig {
            remap: RemapStrategy::Chain,
            policy: Some(RemapPolicy::Threshold {
                lb_index: 1.25,
                hysteresis: 0.05,
                patience: 2,
            }),
            ..DsmcConfig::lightweight(30, 1994)
        };
        let seq = sequential_fingerprint(grid, 2_000, flow, 30, config.dt, 1994);
        for nprocs in [1, 2, 3, 5] {
            let results = run_config(nprocs, grid, 2_000, flow, config.clone());
            if nprocs > 1 {
                assert!(results[0].remaps > 0, "P={nprocs}: the policy never fired");
            }
            assert_eq!(merged_fingerprint(&results), seq, "P={nprocs}");
        }
    }

    /// Molecule `id` at the centre of global cell `cell`.
    fn molecule_in(grid: &CellGrid, cell: usize, id: u64) -> Particle {
        Particle {
            pos: grid.cell_center(cell),
            vel: [0.0; 3],
            id,
        }
    }

    /// Fill a store for rank `me` with `start`, move every held molecule to cell
    /// `dest(id)`, re-bin with `arrivals`, and compare each owned cell, as a set of ids,
    /// with per-cell `Vec`s filled by pushes.
    fn check_rebin(
        cell_owner: &[ProcId],
        me: ProcId,
        start: &[Particle],
        dest: impl Fn(u64) -> usize,
        arrivals: &[Particle],
    ) {
        let grid = CellGrid::new_2d(cell_owner.len(), 1);
        let mut store = CellStore::default();
        store.own(me, cell_owner);
        store.place(me, &grid, cell_owner, start);
        for p in &mut store.molecules {
            let cell = dest(p.id);
            *p = molecule_in(&grid, cell, p.id);
            store.lane.push(store.ordinal[cell]);
        }
        store.place(me, &grid, cell_owner, arrivals);

        let mut naive: Vec<Vec<Particle>> = vec![Vec::new(); grid.ncells()];
        for p in start {
            if cell_owner[dest(p.id)] == me {
                naive[dest(p.id)].push(*p);
            }
        }
        for p in arrivals {
            naive[grid.cell_of_position(p.pos)].push(*p);
        }
        let ids = |v: &[Particle]| {
            let mut ids: Vec<u64> = v.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(store.offsets.len(), store.owned_cells.len() + 1);
        assert_eq!(store.offsets.last(), Some(&(store.molecules.len() as u32)));
        for (cell, want) in naive.iter().enumerate() {
            let got = match store.ordinal[cell] {
                OFF_RANK => Vec::new(),
                k => ids(store.cell(k as usize)),
            };
            assert_eq!(got, ids(want), "cell {cell}");
        }
        for (k, &cell) in store.owned_cells.iter().enumerate() {
            for p in store.cell(k) {
                assert_eq!(grid.cell_of_position(p.pos), cell, "molecule {}", p.id);
            }
        }
    }

    #[test]
    fn the_rebin_matches_per_cell_vecs_on_edge_shapes() {
        let grid = CellGrid::new_2d(6, 1);
        let at = |cells: &[usize], first: u64| -> Vec<Particle> {
            (first..)
                .zip(cells)
                .map(|(id, &c)| molecule_in(&grid, c, id))
                .collect()
        };
        let block = [0, 0, 0, 1, 1, 1];
        // A rank with no molecules, with cells and without.
        check_rebin(&block, 0, &[], |_| 0, &[]);
        check_rebin(&[1; 6], 0, &[], |_| 0, &[]);
        // Every molecule in one cell, gathered from three.
        check_rebin(&block, 0, &at(&[0, 1, 2, 2, 1, 0], 0), |_| 1, &[]);
        // Every molecule leaves the rank.
        check_rebin(
            &block,
            0,
            &at(&[0, 1, 2, 1], 0),
            |id| 3 + id as usize % 3,
            &[],
        );
        // Arrivals only, into empty cells.
        check_rebin(&block, 1, &[], |_| 3, &at(&[5, 3, 5, 4], 10));
        // A non-contiguous owned-cell list, as after a chain or bisection remap: moves
        // within the rank, off it, and arrivals into held and empty cells.
        let scattered = [1, 0, 2, 1, 0, 1];
        check_rebin(
            &scattered,
            1,
            &at(&[0, 3, 5, 5, 0, 3], 0),
            |id| [3, 5, 1, 0, 3, 4][id as usize],
            &at(&[5, 0, 0], 20),
        );
    }

    #[test]
    #[should_panic(expected = "rank 1: molecule 7 delivered for cell 0, which rank 0 owns")]
    fn a_misdelivered_molecule_panics_naming_rank_molecule_cell_and_owner() {
        let grid = CellGrid::new_2d(4, 1);
        let cell_owner = initial_owner_map(&grid, 2);
        let stray = Particle {
            pos: [0.5, 0.5, 0.5],
            vel: [0.0; 3],
            id: 7,
        };
        assert_eq!(arrival_cell(0, &grid, &cell_owner, &stray), 0);
        arrival_cell(1, &grid, &cell_owner, &stray);
    }

    #[test]
    #[should_panic(expected = "DsmcConfig::monitor_group is retired")]
    fn a_monitor_group_is_rejected_by_name() {
        let grid = CellGrid::new_2d(4, 4);
        let config = DsmcConfig {
            policy: Some(RemapPolicy::Threshold {
                lb_index: 1.5,
                hysteresis: 0.1,
                patience: 0,
            }),
            monitor_group: Some(2),
            ..DsmcConfig::lightweight(2, 1)
        };
        run_config(2, grid, 40, FlowConfig::uniform(1), config);
    }
}
