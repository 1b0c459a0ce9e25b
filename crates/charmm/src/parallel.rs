//! The hand-parallelised CHAOS version of the CHARMM-like dynamics loop (§4.1 of the
//! paper).
//!
//! Every rank runs [`run_parallel`] inside an [`mpsim`] SPMD closure.  The structure
//! follows the paper's six phases:
//!
//! 1. **Data partitioning** — atoms are partitioned by RCB or RIB using spatial positions
//!    and per-atom computational weight (non-bonded list length), or left in the naive
//!    BLOCK distribution for comparison.
//! 2. **Data remapping** — coordinate, velocity and mass arrays are remapped to the new
//!    distribution with a single reusable [`chaos::remap::RemapPlan`].
//! 3. **Iteration partitioning** — the non-bonded loop uses owner-computes (iterate over
//!    owned atoms); the bonded loop uses almost-owner-computes over the bond list.
//! 4. **Iteration remapping** — the bonded indirection arrays move to their executing
//!    processors.
//! 5. **Inspector** and 6. **Executor** — the `IB`, `JB` and `NB` indirection arrays are
//!    the three members of one [`chaos::LoopGroup`], which serves one merged schedule or
//!    one per loop (Table 3 compares the two) and runs the fused position gather and
//!    force scatter-add of every step.  With separate schedules the non-bonded gather is
//!    split-phase, in flight while the bonded force loop computes.  The driver decides
//!    only which members are dirty: a repartition makes all three dirty, a list update
//!    every `list_update_interval` steps only `NB` — the adaptive part.  The non-bonded
//!    loop sweeps one 32-byte slot per owned-plus-ghost atom, copied from the arrays'
//!    flat lanes and back ([`crate::nonbonded::sweep_nonbonded_forces`]).
//!
//! The per-phase modeled times the paper reports in Tables 1, 2, 3 and 6 are accumulated
//! in [`CharmmPhaseTimes`].

use chaos::adapt::RemapPolicy;
use chaos::prelude::*;
use mpsim::{ExchangeStats, Rank, TimeSnapshot};

use crate::bonds::bond_force;
use crate::integrate::integrate_atom;
use crate::nonbonded::{
    build_neighbor_list_for, sweep_nonbonded_forces, NeighborList, PartnerSlots, Slot,
};
use crate::system::{displacement_pbc, MolecularSystem};

/// Which data partitioner distributes the atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Recursive coordinate bisection (the paper's default for CHARMM).
    Rcb,
    /// Recursive inertial bisection.
    Rib,
    /// Naive BLOCK distribution (no geometric partitioning) — the baseline.
    Block,
}

/// Whether the bonded and non-bonded loops share one merged communication schedule or use
/// one schedule per loop (the comparison of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleMode {
    /// One merged schedule gathers/scatters the union of both loops' references.
    Merged,
    /// Each loop builds and executes its own schedule.
    Multiple,
}

impl ScheduleMode {
    /// The loop group's member sets, one schedule each: all three members, or the
    /// bonded loop's (set 0) then the non-bonded loop's (set 1).
    fn member_sets(self) -> &'static [&'static [usize]] {
        match self {
            ScheduleMode::Merged => &[&[IB, JB, NB]],
            ScheduleMode::Multiple => &[&[IB, JB], &[NB]],
        }
    }
}

/// Configuration of one parallel CHARMM run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of time steps to simulate.
    pub nsteps: usize,
    /// Steps between non-bonded list regenerations (the paper's benchmark: every 25).
    pub list_update_interval: usize,
    /// Data partitioner.
    pub partitioner: PartitionerKind,
    /// Schedule organisation.
    pub schedule_mode: ScheduleMode,
    /// If `Some(k)`, atoms are re-partitioned and re-mapped every `k` steps, alternating
    /// RCB and RIB as in the Table 6 experiment.  `None` partitions once at start-up.
    pub repartition_interval: Option<usize>,
    /// Retired: must be `None`.  It once opted into feedback-driven repartitioning; CHARMM
    /// now repartitions only on `repartition_interval`'s fixed cadence, and
    /// [`run_parallel`] panics on `Some(_)` rather than ignore it.  The field stays so
    /// configurations that name it keep building.
    pub adapt_policy: Option<RemapPolicy>,
}

impl ParallelConfig {
    /// The configuration used for Tables 1 and 2 (step count chosen by the caller).
    pub fn paper_default(nsteps: usize) -> Self {
        Self {
            nsteps,
            list_update_interval: 25,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: None,
            adapt_policy: None,
        }
    }
}

/// Modeled time spent in each preprocessing/executor phase on this rank (microseconds,
/// split into communication and computation).
#[derive(Debug, Clone, Copy, Default)]
pub struct CharmmPhaseTimes {
    /// Phase A: running the data partitioner.
    pub data_partition: TimeSnapshot,
    /// Building/regenerating the non-bonded neighbour list.
    pub list_update: TimeSnapshot,
    /// Phases B and D: remapping data and indirection arrays.
    pub remap: TimeSnapshot,
    /// Phase E, first time: index analysis + initial schedule construction.
    pub schedule_generation: TimeSnapshot,
    /// Phase E, repeated: schedule regeneration after every list update.
    pub schedule_regeneration: TimeSnapshot,
    /// Phase F: force loops, gathers/scatters and integration.
    pub executor: TimeSnapshot,
    /// Load monitoring: always zero, since CHARMM repartitions on a fixed cadence and
    /// samples no load.  Kept because phase breakdowns outside this crate (the
    /// `benchmark/` package's) read it.
    pub monitor: TimeSnapshot,
}

impl CharmmPhaseTimes {
    /// Total modeled time across all phases.
    pub fn total(&self) -> TimeSnapshot {
        self.data_partition
            + self.list_update
            + self.remap
            + self.schedule_generation
            + self.schedule_regeneration
            + self.executor
            + self.monitor
    }
}

/// Per-run summary returned by [`run_parallel`].
#[derive(Debug, Clone)]
pub struct CharmmStepStats {
    /// Modeled per-phase times on this rank.
    pub phases: CharmmPhaseTimes,
    /// Pair interactions this rank evaluated (bonded + non-bonded).
    pub interactions: usize,
    /// Number of non-bonded list builds (including the initial one).
    pub list_updates: usize,
    /// Number of schedule (re)builds.
    pub schedule_builds: usize,
    /// Number of repartition events after the initial partitioning, one every
    /// `repartition_interval` steps.  Includes the identity events below.
    pub repartitions: usize,
    /// Repartition events whose partitioner moved no atom on any rank: detected with one
    /// `all_reduce` and skipped — no redistribution, no list rebuild, no schedule work.
    pub identity_repartitions: usize,
    /// Hit/miss/patch/eviction counters of the loop group's schedule cache (see
    /// [`chaos::LoopGroup::cache_stats`]).
    pub cache_stats: CacheStats,
    /// Engine message/byte counts of the executor phase on this rank, summed over all
    /// steps — what the fused gather/scatter paths actually put on the wire.
    pub executor_exchange: ExchangeStats,
    /// Messages one executor step sends under the *current* (last-built) schedules: one
    /// fused gather message per destination plus one fused scatter message per source,
    /// summed over the step's schedules.  With the fused multi-array executor this price
    /// is per step, not per array — `executor_exchange.msgs_sent` stays at
    /// `steps × step_send_messages` instead of `3×` that.
    pub step_send_messages: usize,
    /// Final positions of the atoms this rank owns, keyed by global atom index.
    pub owned_positions: Vec<(usize, [f64; 3])>,
}

/// Marker type grouping the parallel driver's entry points.
pub struct ParallelCharmm;

impl ParallelCharmm {
    /// Run the hand-parallelised simulation on the calling rank.  Collective: every rank
    /// of the machine must call it with the same `system` and `config`.
    pub fn run(
        rank: &mut Rank,
        system: &MolecularSystem,
        config: &ParallelConfig,
    ) -> CharmmStepStats {
        run_parallel(rank, system, config)
    }
}

// The loop group's members: the bonded loop's two indirection arrays and the
// non-bonded list.
const IB: usize = 0;
const JB: usize = 1;
const NB: usize = 2;

/// Per-atom state under the current (irregular) distribution, positions and velocities
/// held one lane per axis.
struct DistributionState {
    ttable: TranslationTable,
    owned_globals: Vec<usize>,
    pos: [Vec<f64>; 3],
    vel: [Vec<f64>; 3],
    mass: Vec<f64>,
}

impl DistributionState {
    /// Move per-atom arrays, held in `globals` order, to `ttable`'s distribution.
    fn remapped(
        rank: &mut Rank,
        mut ttable: TranslationTable,
        globals: &[usize],
        pos: &[Vec<f64>; 3],
        vel: &[Vec<f64>; 3],
        mass: &[f64],
    ) -> Self {
        let plan = build_remap(rank, globals, &mut ttable);
        let mut remap = |values: &Vec<f64>| remap_values(rank, &plan, values, 0.0);
        let pos = pos.each_ref().map(&mut remap);
        let vel = vel.each_ref().map(&mut remap);
        let mass = remap_values(rank, &plan, mass, 1.0);
        DistributionState {
            owned_globals: ttable.owned_globals(rank),
            ttable,
            pos,
            vel,
            mass,
        }
    }

    fn position(&self, l: usize) -> [f64; 3] {
        self.pos.each_ref().map(|p| p[l])
    }
}

/// The bonded loop's executing-processor view (recomputed only when the atom distribution
/// changes — the bond list itself is static).
struct BondedSetup {
    exec_ib: Vec<usize>,
    exec_jb: Vec<usize>,
}

/// The two force loops on the CHAOS runtime: their loop group, and the local references
/// its last build produced.
struct ForceLoops {
    group: LoopGroup,
    bonds: Vec<(u32, u32)>,
    /// Local references of the non-bonded partners, CSR over the neighbour list's own
    /// row offsets (`NeighborList::offsets`), with their bound.
    nb: PartnerSlots,
}

impl ForceLoops {
    fn new(me: usize, mode: ScheduleMode) -> Self {
        ForceLoops {
            group: LoopGroup::new(me, 3, mode.member_sets()),
            bonds: Vec::new(),
            nb: PartnerSlots::default(),
        }
    }

    /// Phase E: one build of the loop group.  After a repartition (`all_dirty`) every
    /// member is hashed again; after a list update only `NB` is, and the bonded
    /// references are kept — so under [`ScheduleMode::Multiple`] the bonded schedule is
    /// a cache hit (no communication) while the non-bonded one is patched forward.
    fn inspect(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        bonded: &BondedSetup,
        nb_list: &NeighborList,
        all_dirty: bool,
    ) {
        let group = &mut self.group;
        let owned = ttable.local_size(rank.rank());
        group.upkeep(owned, &[all_dirty, all_dirty, true]);
        if all_dirty {
            let (mut ib_refs, mut jb_refs) = (Vec::new(), Vec::new());
            group.hash(rank, ttable, IB, &bonded.exec_ib, &mut ib_refs);
            group.hash(rank, ttable, JB, &bonded.exec_jb, &mut jb_refs);
            self.bonds = ib_refs.into_iter().zip(jb_refs).collect();
        }
        // One call per atom row, not one over the whole list: each call charges its own
        // `new + known·0.1`, and the grouping of those float sums decides the last bits
        // of the modeled time.  The refill records the slots' bound, which every sweep
        // checks against its buffers.
        self.nb.refill(|nb| {
            nb.reserve(nb_list.interaction_count());
            for l in 0..nb_list.natoms() {
                group.hash(rank, ttable, NB, nb_list.partners_of(l), nb);
            }
        });
        group.serve(rank);
    }
}

/// Position and force arrays the executor step works on, kept across time steps so the
/// steady-state loop performs no per-step allocations: together with the engine's
/// send/receive buffer pools this makes a whole CHARMM time step allocation-free once
/// warm.  Positions are refreshed from the distribution state each step (the integrator
/// writes back there); forces are re-zeroed.  The non-bonded sweep's position and force
/// slots are refilled from the arrays once a step.
struct StepArrays {
    pos: [DistArray<f64>; 3],
    force: [DistArray<f64>; 3],
    slots: [Vec<Slot>; 2],
}

impl StepArrays {
    fn new() -> Self {
        let empty = || [(); 3].map(|()| DistArray::zeroed(0, 0));
        StepArrays {
            pos: empty(),
            force: empty(),
            slots: Default::default(),
        }
    }

    /// Prepare the arrays for one step: owned sections sized to the current distribution
    /// (reallocating only when a repartition changed the owned count), ghost regions grown
    /// to the current schedules' requirement, positions copied in, forces zeroed.
    fn refresh(&mut self, dist: &DistributionState, ghost: usize) {
        let owned = dist.owned_globals.len();
        if self.pos[0].owned_len() != owned {
            self.pos = dist
                .pos
                .each_ref()
                .map(|p| DistArray::new(p.clone(), ghost));
            self.force = [(); 3].map(|()| DistArray::zeroed(owned, ghost));
            return;
        }
        for (arr, src) in self.pos.iter_mut().zip(&dist.pos) {
            arr.ensure_ghost(ghost);
            arr.owned_mut().copy_from_slice(src);
        }
        for f in &mut self.force {
            f.ensure_ghost(ghost);
            f.owned_mut().fill(0.0);
            f.clear_ghost();
        }
    }
}

/// The hand-parallelised CHARMM driver (see module docs).
pub fn run_parallel(
    rank: &mut Rank,
    system: &MolecularSystem,
    config: &ParallelConfig,
) -> CharmmStepStats {
    assert!(
        config.adapt_policy.is_none(),
        "ParallelConfig::adapt_policy is retired: CHARMM repartitions every \
         repartition_interval steps only"
    );
    let natoms = system.natoms();
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let mut phases = CharmmPhaseTimes::default();
    let mut interactions = 0usize;
    let mut list_updates = 0usize;

    // ---------------------------------------------------------------- initial partition --
    let block = BlockDist::new(natoms, nprocs);
    let my_block: Vec<usize> = block.local_globals(me).collect();
    // Global positions start out replicated (every rank built the same system).
    let mut global_positions: Vec<[f64; 3]> = system.positions.clone();

    let t0 = rank.modeled();
    let initial_list =
        build_neighbor_list_for(&my_block, &global_positions, system.box_size, system.cutoff);
    rank.charge_compute(initial_list.interaction_count() as f64 * 0.3);
    let weights: Vec<f64> = (0..my_block.len())
        .map(|r| 1.0 + initial_list.partners_of(r).len() as f64)
        .collect();
    phases.list_update += rank.modeled().since(&t0);
    list_updates += 1;

    let t0 = rank.modeled();
    let coords: Vec<[f64; 3]> = my_block.iter().map(|&g| global_positions[g]).collect();
    let local_map = run_partitioner(
        rank,
        config.partitioner,
        &coords,
        &weights,
        my_block.len(),
        nprocs,
    );
    phases.data_partition += rank.modeled().since(&t0);

    // ------------------------------------------------------------------ remap to owners --
    let t0 = rank.modeled();
    let mut dist = build_distribution(rank, system, &local_map, &block);
    let mut bonded = partition_bonded_loop(rank, &dist.ttable, system);
    phases.remap += rank.modeled().since(&t0);

    // -------------------------------------------------- inspector (initial schedules) --
    let t0 = rank.modeled();
    let mut nb_list = build_local_nb_list(rank, &dist, system, &mut global_positions);
    phases.list_update += rank.modeled().since(&t0);

    let t0 = rank.modeled();
    let mut loops = ForceLoops::new(me, config.schedule_mode);
    loops.inspect(rank, &dist.ttable, &bonded, &nb_list, true);
    phases.schedule_generation += rank.modeled().since(&t0);

    // Executor working arrays, reused across every time step.
    let mut step_arrays = StepArrays::new();
    let mut executor_exchange = ExchangeStats::default();

    let mut repartitions = 0usize;
    let mut identity_repartitions = 0usize;

    // ----------------------------------------------------------------------- time steps --
    for step in 0..config.nsteps {
        // Repartition on the fixed cadence, alternating RIB and RCB as the paper's Table 6
        // experiment does every 25 steps.
        let repartitioned = match config.repartition_interval {
            Some(k) if step > 0 && step % k == 0 => {
                let t0 = rank.modeled();
                let kind = if (step / k) % 2 == 1 {
                    PartitionerKind::Rib
                } else {
                    PartitionerKind::Rcb
                };
                let weights: Vec<f64> = (0..dist.owned_globals.len())
                    .map(|l| 1.0 + nb_list.partners_of(l).len() as f64)
                    .collect();
                let coords: Vec<[f64; 3]> = (0..dist.owned_globals.len())
                    .map(|l| dist.position(l))
                    .collect();
                let parts = run_partitioner(rank, kind, &coords, &weights, coords.len(), nprocs);
                // Identity detection: if no rank would send any atom anywhere, the
                // partitioner reproduced the current distribution and the whole
                // redistribution — data remap, bonded re-setup, list rebuild, hash
                // clearing, schedule rebuild — can be skipped.  One all-reduce makes the
                // decision machine-wide.
                let moved_here = parts.iter().filter(|&&p| p != me).count();
                let identity = rank.all_reduce_sum_usize(moved_here) == 0;
                phases.data_partition += rank.modeled().since(&t0);
                repartitions += 1;
                if identity {
                    identity_repartitions += 1;
                } else {
                    let t0 = rank.modeled();
                    dist = redistribute(rank, &dist, &parts, natoms);
                    bonded = partition_bonded_loop(rank, &dist.ttable, system);
                    phases.remap += rank.modeled().since(&t0);
                }
                !identity
            }
            _ => false,
        };

        // Periodic non-bonded list regeneration (the adaptive part).
        let list_due = step > 0 && step % config.list_update_interval == 0;
        if repartitioned || list_due {
            let t0 = rank.modeled();
            nb_list = build_local_nb_list(rank, &dist, system, &mut global_positions);
            phases.list_update += rank.modeled().since(&t0);
            list_updates += 1;

            let t0 = rank.modeled();
            loops.inspect(rank, &dist.ttable, &bonded, &nb_list, repartitioned);
            phases.schedule_regeneration += rank.modeled().since(&t0);
        }

        // ---------------------------------------------------------------- executor step --
        let t0 = rank.modeled();
        let (step_interactions, step_exchange) = execute_step(
            rank,
            &mut dist,
            &mut loops,
            &nb_list.offsets,
            &mut step_arrays,
            system,
            config.schedule_mode,
        );
        interactions += step_interactions;
        executor_exchange = executor_exchange.merged(&step_exchange);
        phases.executor += rank.modeled().since(&t0);
    }

    let owned_positions = dist
        .owned_globals
        .iter()
        .enumerate()
        .map(|(l, &g)| (g, dist.position(l)))
        .collect();

    let group = &loops.group;
    let (sends, recvs) = group.message_counts();
    CharmmStepStats {
        phases,
        interactions,
        list_updates,
        schedule_builds: group.builds() as usize,
        repartitions,
        identity_repartitions,
        cache_stats: group.cache_stats(),
        executor_exchange,
        step_send_messages: sends + recvs,
        owned_positions,
    }
}

/// Phase A: run the configured partitioner over this rank's current atoms and return the
/// new owner of each of them.
fn run_partitioner(
    rank: &mut Rank,
    kind: PartitionerKind,
    coords: &[[f64; 3]],
    weights: &[f64],
    local_count: usize,
    nprocs: usize,
) -> Vec<usize> {
    match kind {
        PartitionerKind::Rcb => rcb_partition(rank, PartitionInput::new(coords, weights), nprocs),
        PartitionerKind::Rib => rib_partition(rank, PartitionInput::new(coords, weights), nprocs),
        PartitionerKind::Block => vec![rank.rank(); local_count],
    }
}

/// Phase B: build the translation table for the new owner map and remap the per-atom data
/// arrays from the block distribution to it.
fn build_distribution(
    rank: &mut Rank,
    system: &MolecularSystem,
    local_map: &[usize],
    block: &BlockDist,
) -> DistributionState {
    let ttable = TranslationTable::replicated_from_map(rank, local_map, block)
        .expect("partitioner returned an invalid owner");
    let my_block: Vec<usize> = block.local_globals(rank.rank()).collect();
    let lane = |of: &[[f64; 3]], k: usize| my_block.iter().map(|&g| of[g][k]).collect();
    let pos = [0, 1, 2].map(|k| lane(&system.positions, k));
    let vel = [0, 1, 2].map(|k| lane(&system.velocities, k));
    let mass: Vec<f64> = my_block.iter().map(|&g| system.masses[g]).collect();
    DistributionState::remapped(rank, ttable, &my_block, &pos, &vel, &mass)
}

/// Re-partitioning path: move the *current* per-atom state (not the initial system) to a
/// new distribution described by `parts[l]` = new owner of this rank's l-th owned atom.
fn redistribute(
    rank: &mut Rank,
    old: &DistributionState,
    parts: &[usize],
    natoms: usize,
) -> DistributionState {
    // `replicated_from_map` expects the map block-distributed over the global atom index
    // space, so route each (atom, new owner) pair to the rank holding that block entry.
    let nprocs = rank.nprocs();
    let block = BlockDist::new(natoms, nprocs);
    let mut sends: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nprocs];
    for (l, &g) in old.owned_globals.iter().enumerate() {
        sends[block.owner(g)].push((g as u64, parts[l] as u64));
    }
    let received = rank.all_to_all(&sends);
    let my_range = block.local_range(rank.rank());
    let mut local_map = vec![0usize; my_range.len()];
    for (g, owner) in received.into_iter().flatten() {
        local_map[g as usize - my_range.start] = owner as usize;
    }
    let ttable = TranslationTable::replicated_from_map(rank, &local_map, &block)
        .expect("repartitioner returned an invalid owner");
    let globals = &old.owned_globals;
    DistributionState::remapped(rank, ttable, globals, &old.pos, &old.vel, &old.mass)
}

/// Phases C and D for the bonded loop: assign each bond to the processor owning the
/// majority of its two atoms (almost-owner-computes) and move the `ib`/`jb` entries there.
fn partition_bonded_loop(
    rank: &mut Rank,
    ttable: &TranslationTable,
    system: &MolecularSystem,
) -> BondedSetup {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let nbonds = system.bonds.len();
    let bond_block = BlockDist::new(nbonds, nprocs);
    let my_bond_block: Vec<usize> = bond_block.local_globals(me).collect();
    let accesses: Vec<Vec<usize>> = my_bond_block
        .iter()
        .map(|&b| vec![system.bonds[b].0, system.bonds[b].1])
        .collect();
    let part = almost_owner_computes_replicated(rank, ttable, bond_block, &accesses);
    let plan = part.remap_plan(rank);
    let my_ib: Vec<usize> = my_bond_block.iter().map(|&b| system.bonds[b].0).collect();
    let my_jb: Vec<usize> = my_bond_block.iter().map(|&b| system.bonds[b].1).collect();
    BondedSetup {
        exec_ib: part.remap_indirection(rank, &plan, &my_ib),
        exec_jb: part.remap_indirection(rank, &plan, &my_jb),
    }
}

/// Regenerate the non-bonded neighbour list for the atoms this rank owns.  Requires the
/// current global positions, which are assembled with an all-gather of (global id,
/// position) — the communication the paper charges to "non-bonded list update".
fn build_local_nb_list(
    rank: &mut Rank,
    dist: &DistributionState,
    system: &MolecularSystem,
    global_positions: &mut [[f64; 3]],
) -> NeighborList {
    let packed: Vec<[f64; 4]> = dist
        .owned_globals
        .iter()
        .enumerate()
        .map(|(l, &g)| {
            let [x, y, z] = dist.position(l);
            [g as f64, x, y, z]
        })
        .collect();
    let gathered = rank.all_gather(&packed);
    for part in gathered {
        for entry in part {
            global_positions[entry[0] as usize] = [entry[1], entry[2], entry[3]];
        }
    }
    let list = build_neighbor_list_for(
        &dist.owned_globals,
        global_positions,
        system.box_size,
        system.cutoff,
    );
    // The cell-grid search is the (parallel) sequential cost the paper reports shrinking
    // with the processor count.
    rank.charge_compute(
        dist.owned_globals.len() as f64 * 2.0 + list.interaction_count() as f64 * 0.3,
    );
    list
}

/// One executor time step: gather positions (fused — `px`/`py`/`pz` travel in one
/// message per processor pair), evaluate both force loops, scatter-add the forces
/// (fused the same way) and integrate the owned atoms.  With separate schedules the
/// non-bonded gather is split-phase: posted before the bonded loop, finished after it —
/// the bonded forces compute while the non-bonded ghosts are in flight.  Returns the
/// number of pair interactions this rank evaluated and the engine stats of the step's
/// transfers.  The working arrays live in `arrays` and are reused across steps.
fn execute_step(
    rank: &mut Rank,
    dist: &mut DistributionState,
    loops: &mut ForceLoops,
    nb_offsets: &[usize],
    arrays: &mut StepArrays,
    system: &MolecularSystem,
    mode: ScheduleMode,
) -> (usize, ExchangeStats) {
    let ForceLoops { group, bonds, nb } = loops;
    let ghost = group.ghost_len();
    let owned = dist.owned_globals.len();
    arrays.refresh(dist, ghost);
    let StepArrays {
        pos: [px, py, pz],
        force: [fx, fy, fz],
        slots: [pos_slots, force_slots],
    } = arrays;

    let mut interactions = 0usize;

    // One closure per force loop so the two schedule organisations can interleave them
    // with communication differently.
    let bonded_loop = |[px, py, pz]: [&DistArray<f64>; 3],
                       [fx, fy, fz]: [&mut DistArray<f64>; 3]| {
        for &(ri, rj) in bonds.iter() {
            let (ri, rj) = (LocalRef(ri as usize), LocalRef(rj as usize));
            let a = [px[ri], py[ri], pz[ri]];
            let b = [px[rj], py[rj], pz[rj]];
            let f = bond_force(displacement_pbc(a, b, system.box_size));
            fx[ri] += f[0];
            fy[ri] += f[1];
            fz[ri] += f[2];
            fx[rj] -= f[0];
            fy[rj] -= f[1];
            fz[rj] -= f[2];
        }
        bonds.len()
    };
    // The sweep's slots take the lanes' positions and forces, bonded forces included, and
    // hand the forces back.
    let mut nonbonded_loop = |pos: [&DistArray<f64>; 3], force: [&mut DistArray<f64>; 3]| {
        fill_slots(pos_slots, pos.map(DistArray::as_slice));
        let force = force.map(DistArray::as_mut_slice);
        fill_slots(force_slots, force.each_ref().map(|f| &**f));
        let count = sweep_nonbonded_forces(nb_offsets, nb, pos_slots, force_slots, system.box_size);
        for (k, lane) in force.into_iter().enumerate() {
            (0..lane.len()).for_each(|s| lane[s] = force_slots[s].0[k]);
        }
        count
    };

    let mut exchange = ExchangeStats::default();
    match mode {
        ScheduleMode::Merged => {
            // One schedule covers both loops: one fused gather moves all three position
            // arrays (one message per pair), both loops run, one fused scatter-add moves
            // all three force arrays back.
            exchange = exchange.merged(&group.gather(rank, 0, [&mut *px, &mut *py, &mut *pz]));
            interactions += bonded_loop([px, py, pz], [fx, fy, fz]);
            interactions += nonbonded_loop([px, py, pz], [fx, fy, fz]);
            rank.charge_compute(interactions as f64);
            exchange = exchange.merged(&group.scatter_add(rank, 0, [&mut *fx, &mut *fy, &mut *fz]));
        }
        ScheduleMode::Multiple => {
            // Each loop gathers with its own schedule and scatters its own contributions.
            // The non-bonded gather is split-phase: its sends are posted right after the
            // bonded ghosts land, the bonded force loop and bonded scatter-add run while
            // it is in flight, and its ghosts are placed just before the non-bonded loop
            // needs them.  (Position ghost slots the two schedules share are rewritten
            // with the same values — the owned positions do not change until the
            // integration below.)  The ghost *force* slots are shared between the
            // schedules too (they come from the same hash table), so they are cleared
            // between the two scatters to avoid folding a contribution back twice.
            exchange = exchange.merged(&group.gather(rank, 0, [&mut *px, &mut *py, &mut *pz]));
            group.start_gather(rank, 1, [&*px, &*py, &*pz]);
            let b_count = bonded_loop([px, py, pz], [fx, fy, fz]);
            rank.charge_compute(b_count as f64);
            interactions += b_count;
            exchange = exchange.merged(&group.scatter_add(rank, 0, [&mut *fx, &mut *fy, &mut *fz]));
            fx.clear_ghost();
            fy.clear_ghost();
            fz.clear_ghost();

            exchange = exchange.merged(&group.finish_gather(rank, [&mut *px, &mut *py, &mut *pz]));
            let n_count = nonbonded_loop([px, py, pz], [fx, fy, fz]);
            rank.charge_compute(n_count as f64);
            interactions += n_count;
            exchange = exchange.merged(&group.scatter_add(rank, 1, [&mut *fx, &mut *fy, &mut *fz]));
        }
    }

    // Integrate the owned atoms.
    for l in 0..owned {
        let mut p = [px.owned()[l], py.owned()[l], pz.owned()[l]];
        let mut v = dist.vel.each_ref().map(|a| a[l]);
        let f = [fx.owned()[l], fy.owned()[l], fz.owned()[l]];
        integrate_atom(&mut p, &mut v, f, dist.mass[l], system.box_size);
        for k in 0..3 {
            (dist.pos[k][l], dist.vel[k][l]) = (p[k], v[k]);
        }
    }
    rank.charge_compute(owned as f64 * 0.5);

    (interactions, exchange)
}

/// Copy three lanes into one slot per element, reusing `slots`' allocation.
fn fill_slots(slots: &mut Vec<Slot>, [x, y, z]: [&[f64]; 3]) {
    slots.clear();
    slots.extend((0..x.len()).map(|s| Slot([x[s], y[s], z[s], 0.0])));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialCharmm;
    use crate::system::SystemConfig;
    use mpsim::{run, CostModel, MachineConfig};

    fn parallel_positions(nprocs: usize, config: ParallelConfig, seed: u64) -> Vec<[f64; 3]> {
        let sys_cfg = SystemConfig::small(seed);
        let natoms = sys_cfg.total_atoms();
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let system = MolecularSystem::build(&sys_cfg);
            run_parallel(rank, &system, &config).owned_positions
        });
        let mut positions = vec![[f64::NAN; 3]; natoms];
        for per_rank in &out.results {
            for &(g, p) in per_rank {
                assert!(positions[g][0].is_nan(), "atom {g} owned by two ranks");
                positions[g] = p;
            }
        }
        assert!(
            positions.iter().all(|p| !p[0].is_nan()),
            "some atom unowned"
        );
        positions
    }

    fn sequential_positions(nsteps: usize, update: usize, seed: u64) -> Vec<[f64; 3]> {
        let sys = MolecularSystem::build(&SystemConfig::small(seed));
        let mut sim = SequentialCharmm::new(sys, update);
        sim.run(nsteps);
        sim.system.positions
    }

    fn max_deviation(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (0..3).map(|k| (x[k] - y[k]).abs()).fold(0.0f64, f64::max))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn parallel_matches_sequential_rcb_merged() {
        let config = ParallelConfig {
            nsteps: 8,
            list_update_interval: 4,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: None,
            adapt_policy: None,
        };
        let par = parallel_positions(4, config, 5);
        let seq = sequential_positions(8, 4, 5);
        let dev = max_deviation(&par, &seq);
        assert!(dev < 1e-6, "parallel deviates from sequential by {dev}");
    }

    #[test]
    fn parallel_matches_sequential_multiple_schedules_and_block() {
        let config = ParallelConfig {
            nsteps: 6,
            list_update_interval: 3,
            partitioner: PartitionerKind::Block,
            schedule_mode: ScheduleMode::Multiple,
            repartition_interval: None,
            adapt_policy: None,
        };
        let par = parallel_positions(3, config, 9);
        let seq = sequential_positions(6, 3, 9);
        let dev = max_deviation(&par, &seq);
        assert!(dev < 1e-6, "parallel deviates from sequential by {dev}");
    }

    #[test]
    fn parallel_matches_sequential_with_repartitioning() {
        let config = ParallelConfig {
            nsteps: 8,
            list_update_interval: 4,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: Some(4),
            adapt_policy: None,
        };
        let par = parallel_positions(4, config, 13);
        let seq = sequential_positions(8, 4, 13);
        let dev = max_deviation(&par, &seq);
        assert!(dev < 1e-6, "parallel deviates from sequential by {dev}");
    }

    #[test]
    fn without_a_policy_the_monitor_is_inert() {
        let sys_cfg = SystemConfig::small(12);
        let config = ParallelConfig::paper_default(4);
        let out = run(MachineConfig::new(3), move |rank| {
            let system = MolecularSystem::build(&sys_cfg);
            let stats = run_parallel(rank, &system, &config);
            (stats.repartitions, stats.phases.monitor.total_us())
        });
        for (reps, monitor_us) in &out.results {
            assert_eq!(*reps, 0);
            assert_eq!(*monitor_us, 0.0);
        }
    }

    #[test]
    fn single_rank_run_matches_sequential() {
        let config = ParallelConfig {
            nsteps: 5,
            list_update_interval: 2,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: None,
            adapt_policy: None,
        };
        let par = parallel_positions(1, config, 3);
        let seq = sequential_positions(5, 2, 3);
        let dev = max_deviation(&par, &seq);
        assert!(dev < 1e-9, "single-rank parallel deviates by {dev}");
    }

    #[test]
    fn work_is_distributed_and_phases_are_populated() {
        let sys_cfg = SystemConfig::small(20);
        let config = ParallelConfig::paper_default(6);
        let out = run(
            MachineConfig::new(4).with_cost(CostModel::ipsc860()),
            move |rank| {
                let system = MolecularSystem::build(&sys_cfg);
                let stats = run_parallel(rank, &system, &config);
                (
                    stats.interactions,
                    stats.phases.executor.total_us(),
                    stats.phases.data_partition.total_us(),
                    stats.phases.schedule_generation.total_us(),
                    stats.list_updates,
                )
            },
        );
        let total_interactions: usize = out.results.iter().map(|r| r.0).sum();
        assert!(total_interactions > 0);
        for (inter, exec_us, part_us, sched_us, updates) in &out.results {
            assert!(*inter > 0, "a rank evaluated no interactions");
            assert!(*exec_us > 0.0);
            assert!(*part_us > 0.0);
            assert!(*sched_us > 0.0);
            assert_eq!(*updates, 1);
        }
        let times: Vec<f64> = out.results.iter().map(|r| r.1).collect();
        assert!(chaos::load_balance_index(&times) < 2.0);
    }

    #[test]
    fn fused_executor_sends_one_message_per_pair_per_schedule_per_step() {
        // The acceptance pin of the fused multi-array executor: per step, each schedule
        // moves ONE gather message per destination and ONE scatter message per source —
        // not one per position/force array.  `step_send_messages` is derived from
        // `CommSchedule::send_message_count` / `recv_message_count`, so this compares the
        // engine's measured traffic against the schedule's promise.
        let sys_cfg = SystemConfig::small(7);
        for mode in [ScheduleMode::Merged, ScheduleMode::Multiple] {
            let config = ParallelConfig {
                nsteps: 4,
                list_update_interval: 10, // never updated: the schedules stay constant
                partitioner: PartitionerKind::Rcb,
                schedule_mode: mode,
                repartition_interval: None,
                adapt_policy: None,
            };
            let cfg = sys_cfg.clone();
            let out = run(MachineConfig::new(4), move |rank| {
                let system = MolecularSystem::build(&cfg);
                let stats = run_parallel(rank, &system, &config);
                (stats.executor_exchange, stats.step_send_messages)
            });
            for (p, (exchange, step_msgs)) in out.results.iter().enumerate() {
                assert!(*step_msgs > 0, "rank {p} exchanges nothing with 4 ranks");
                assert_eq!(
                    exchange.msgs_sent as usize,
                    4 * step_msgs,
                    "rank {p} ({mode:?}): executor sent more messages than one fused \
                     gather + one fused scatter per schedule per step"
                );
            }
        }
    }

    #[test]
    fn merged_schedules_send_fewer_messages_than_multiple() {
        // Table 3's mechanism: merging the bonded and non-bonded schedules removes
        // duplicate fetches and message start-ups.
        let sys_cfg = SystemConfig::small(33);
        let run_mode = |mode: ScheduleMode| {
            let config = ParallelConfig {
                nsteps: 4,
                list_update_interval: 10,
                partitioner: PartitionerKind::Rcb,
                schedule_mode: mode,
                repartition_interval: None,
                adapt_policy: None,
            };
            let cfg = sys_cfg.clone();
            let out = run(MachineConfig::new(4), move |rank| {
                let system = MolecularSystem::build(&cfg);
                let _ = run_parallel(rank, &system, &config);
                rank.stats().msgs_sent
            });
            out.results.iter().sum::<u64>()
        };
        let merged = run_mode(ScheduleMode::Merged);
        let multiple = run_mode(ScheduleMode::Multiple);
        assert!(
            merged < multiple,
            "merged schedules should send fewer messages ({merged} vs {multiple})"
        );
    }

    #[test]
    fn bonded_schedule_is_served_from_cache_across_list_updates() {
        // Under ScheduleMode::Multiple the bonded schedule's stamps do not advance when
        // only the non-bonded list regenerates, so the cache must serve it as a hit (no
        // communication) while the non-bonded schedule is patched forward.
        let sys_cfg = SystemConfig::small(26);
        let config = ParallelConfig {
            nsteps: 9,
            list_update_interval: 3,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Multiple,
            repartition_interval: None,
            adapt_policy: None,
        };
        let cfg = config.clone();
        let out = run(MachineConfig::new(4), move |rank| {
            let system = MolecularSystem::build(&sys_cfg);
            let stats = run_parallel(rank, &system, &cfg);
            (stats.cache_stats, stats.schedule_builds)
        });
        for (cache, builds) in &out.results {
            assert_eq!(*builds, 3, "initial + regenerations at steps 3 and 6");
            assert_eq!(cache.misses, 2, "first build misses once per schedule");
            assert_eq!(
                cache.hits, 2,
                "bonded schedule must hit on both regenerations"
            );
            assert_eq!(
                cache.patches, 2,
                "non-bonded schedule must patch, not rebuild"
            );
            assert_eq!(cache.evictions, 0);
        }
        let par = parallel_positions(4, config, 26);
        let seq = sequential_positions(9, 3, 26);
        let dev = max_deviation(&par, &seq);
        assert!(dev < 1e-6, "cached-schedule run deviates by {dev}");
    }

    #[test]
    fn identity_repartitions_are_detected_and_skipped() {
        // On one rank every partitioner keeps every atom where it is, so every cadence
        // repartition (steps 2 and 4) is an identity repartition: counted, but skipping
        // the redistribution, list rebuild and schedule work entirely.  At P = 4 the
        // alternating RIB and RCB cuts move atoms, and every rank must reach that same
        // decision from the one all-reduce.
        let sys_cfg = SystemConfig::small(15);
        let config = ParallelConfig {
            nsteps: 6,
            list_update_interval: 3,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Multiple,
            repartition_interval: Some(2),
            adapt_policy: None,
        };
        for nprocs in [1, 4] {
            let (cfg, sys_cfg) = (config.clone(), sys_cfg.clone());
            let out = run(MachineConfig::new(nprocs), move |rank| {
                let system = MolecularSystem::build(&sys_cfg);
                let stats = run_parallel(rank, &system, &cfg);
                (
                    stats.repartitions,
                    stats.identity_repartitions,
                    stats.cache_stats,
                    stats.list_updates,
                    stats.schedule_builds,
                )
            });
            for r in &out.results {
                assert_eq!(
                    *r, out.results[0],
                    "P={nprocs}: skip decisions must be replicated"
                );
            }
            let (reps, idents, cache, updates, builds) = out.results[0];
            assert_eq!(
                reps, 2,
                "P={nprocs}: the cadence repartitions at steps 2 and 4"
            );
            if nprocs == 1 {
                assert_eq!(idents, reps, "one rank moves nothing: all identity");
                assert_eq!(
                    updates, 2,
                    "identity repartitions must not force list rebuilds"
                );
                assert_eq!(builds, 2, "initial + the step-3 list update only");
                // The step-3 regeneration runs against the same distribution: bonded hit,
                // non-bonded patch.
                assert!(cache.hits >= 1);
                assert!(cache.patches >= 1);
                assert_eq!(cache.evictions, 0);
            } else {
                assert_eq!(idents, 0, "P={nprocs}: RIB and RCB cuts move atoms");
                assert_eq!(updates, 4, "initial + steps 2, 3 and 4");
            }
            let par = parallel_positions(nprocs, config.clone(), 15);
            let seq = sequential_positions(6, 3, 15);
            let dev = max_deviation(&par, &seq);
            assert!(
                dev < 1e-6,
                "P={nprocs}: identity-skip run deviates by {dev}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ParallelConfig::adapt_policy is retired")]
    fn an_adapt_policy_is_rejected_by_name() {
        let config = ParallelConfig {
            adapt_policy: Some(RemapPolicy::Interval { every: 2 }),
            ..ParallelConfig::paper_default(2)
        };
        parallel_positions(1, config, 3);
    }

    #[test]
    fn schedule_regeneration_is_cheaper_than_initial_generation() {
        // The hash table retains translation results between list updates, so the
        // regeneration pass (clear stamp + rehash + rebuild) must not exceed the initial
        // schedule generation cost.
        let sys_cfg = SystemConfig::small(44);
        let config = ParallelConfig {
            nsteps: 9,
            list_update_interval: 3,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: None,
            adapt_policy: None,
        };
        let out = run(MachineConfig::new(4), move |rank| {
            let system = MolecularSystem::build(&sys_cfg);
            let stats = run_parallel(rank, &system, &config);
            (
                stats.phases.schedule_generation.compute_us,
                stats.phases.schedule_regeneration.compute_us,
                stats.schedule_builds,
            )
        });
        for (initial, regen, builds) in &out.results {
            // Two regenerations (steps 3 and 6) — each should cost no more than the
            // initial build (which had to translate every index from scratch).
            assert_eq!(*builds, 3);
            assert!(
                *regen <= *initial * 2.2,
                "regeneration ({regen}) should not exceed twice the initial generation ({initial})"
            );
        }
    }
}
