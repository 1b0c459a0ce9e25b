//! The irregular-loop replay: the phase order of `charmm::parallel::run_parallel`,
//! rebuilt from public layer functions with a span around each call.
//!
//! [`replay_charmm`] serves the four CHARMM workloads (and the hand side of
//! `compiled_charmm`'s interpreter-overhead ratio).  It repeats the driver's operations
//! in the driver's order — the `charge_compute` calls included — so at `WALL_RANKS` its
//! final positions are bit-identical to the driver's, which the harness checks.
//! [`run_drift`] *is* the `inspector_drift` workload: the paper's Figure-1 loop on the
//! inspector/executor API, with the indirection array changing every step.

use super::LoopTotals;
use crate::surface::*;
use crate::trace::Tracer;
use crate::workloads::DriftInput;

const STAMP_IB: Stamp = Stamp::new(0);
const STAMP_JB: Stamp = Stamp::new(1);
const STAMP_NB: Stamp = Stamp::new(2);

/// Per-atom state under the current distribution.
struct Dist {
    ttable: TranslationTable,
    owned_globals: Vec<usize>,
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
    vx: Vec<f64>,
    vy: Vec<f64>,
    vz: Vec<f64>,
    mass: Vec<f64>,
}

struct Bonded {
    exec_ib: Vec<usize>,
    exec_jb: Vec<usize>,
}

struct Loops {
    ghost_len: usize,
    bond_refs: Vec<(LocalRef, LocalRef)>,
    nb_refs: Vec<Vec<LocalRef>>,
    merged: Option<CommSchedule>,
    bonded: Option<CommSchedule>,
    nonbonded: Option<CommSchedule>,
}

struct StepArrays {
    px: DistArray<f64>,
    py: DistArray<f64>,
    pz: DistArray<f64>,
    fx: DistArray<f64>,
    fy: DistArray<f64>,
    fz: DistArray<f64>,
}

impl StepArrays {
    fn new() -> Self {
        StepArrays {
            px: DistArray::zeroed(0, 0),
            py: DistArray::zeroed(0, 0),
            pz: DistArray::zeroed(0, 0),
            fx: DistArray::zeroed(0, 0),
            fy: DistArray::zeroed(0, 0),
            fz: DistArray::zeroed(0, 0),
        }
    }

    fn refresh(&mut self, dist: &Dist, ghost: usize) {
        let owned = dist.owned_globals.len();
        if self.px.owned_len() != owned {
            self.px = DistArray::new(dist.px.clone(), ghost);
            self.py = DistArray::new(dist.py.clone(), ghost);
            self.pz = DistArray::new(dist.pz.clone(), ghost);
            self.fx = DistArray::zeroed(owned, ghost);
            self.fy = DistArray::zeroed(owned, ghost);
            self.fz = DistArray::zeroed(owned, ghost);
            return;
        }
        for (arr, src) in [
            (&mut self.px, &dist.px),
            (&mut self.py, &dist.py),
            (&mut self.pz, &dist.pz),
        ] {
            arr.ensure_ghost(ghost);
            arr.owned_mut().copy_from_slice(src);
        }
        for f in [&mut self.fx, &mut self.fy, &mut self.fz] {
            f.ensure_ghost(ghost);
            f.owned_mut().fill(0.0);
            f.clear_ghost();
        }
    }
}

/// What one rank's replay returns: the final positions of the atoms it owns.
pub type OwnedPositions = Vec<(usize, [f64; 3])>;

pub fn replay_charmm<T: Tracer>(
    rank: &mut Rank,
    system: &MolecularSystem,
    config: &ParallelConfig,
    tr: &mut T,
) -> OwnedPositions {
    assert!(
        config.adapt_policy.is_none(),
        "the replay mirrors the fixed-cadence driver; no workload sets adapt_policy"
    );
    let root = tr.enter("run");
    let natoms = system.natoms();
    let nprocs = rank.nprocs();
    let me = rank.rank();

    // Phase A: initial list (for the weights) and partition.
    let block = BlockDist::new(natoms, nprocs);
    let my_block: Vec<usize> = block.local_globals(me).collect();
    let mut global_positions: Vec<[f64; 3]> = system.positions.clone();
    let initial_list = tr.span("charmm.list", || {
        build_neighbor_list_for(&my_block, &global_positions, system.box_size, system.cutoff)
    });
    rank.charge_compute(initial_list.interaction_count() as f64 * 0.3);
    let weights: Vec<f64> = (0..my_block.len())
        .map(|r| 1.0 + initial_list.partners_of(r).len() as f64)
        .collect();
    let coords: Vec<[f64; 3]> = my_block.iter().map(|&g| global_positions[g]).collect();
    let local_map = partition(rank, config.partitioner, &coords, &weights, tr);

    // Phase B (and C, D for the bonded loop).
    let mut dist = build_distribution(rank, system, &local_map, &block, tr);
    let mut bonded = tr.span("chaos.remap", || {
        partition_bonded_loop(rank, &dist.ttable, system)
    });

    // Phase E.
    let mut nb_list = build_local_nb_list(rank, &dist, system, &mut global_positions, tr);
    let mut hash = IndexHashTable::new(me, dist.ttable.local_size(me));
    let mut cache = ScheduleCache::new(4);
    let mut loops = build_loop_state(
        rank,
        &mut cache,
        &mut hash,
        &dist.ttable,
        &bonded,
        &nb_list,
        config.schedule_mode,
        None,
        tr,
    );

    let mut arrays = StepArrays::new();
    for step in 0..config.nsteps {
        tr.set_step(step as u32);
        let step_span = tr.enter("step");

        let interval_due =
            matches!(config.repartition_interval, Some(k) if step > 0 && step % k == 0);
        let repartitioned = interval_due && {
            let k = config
                .repartition_interval
                .expect("interval_due implies Some");
            let kind = if (step / k) % 2 == 1 {
                PartitionerKind::Rib
            } else {
                PartitionerKind::Rcb
            };
            let weights: Vec<f64> = (0..dist.owned_globals.len())
                .map(|l| 1.0 + nb_list.partners_of(l).len() as f64)
                .collect();
            let coords: Vec<[f64; 3]> = (0..dist.owned_globals.len())
                .map(|l| [dist.px[l], dist.py[l], dist.pz[l]])
                .collect();
            let parts = partition(rank, kind, &coords, &weights, tr);
            let moved_here = parts.iter().filter(|&&p| p != me).count();
            let identity =
                tr.span("mpsim.collective", || rank.all_reduce_sum_usize(moved_here)) == 0;
            if !identity {
                dist = redistribute(rank, &dist, &parts, natoms, tr);
                bonded = tr.span("chaos.remap", || {
                    partition_bonded_loop(rank, &dist.ttable, system)
                });
            }
            !identity
        };

        let list_due = step > 0 && step % config.list_update_interval == 0;
        if repartitioned || list_due {
            nb_list = build_local_nb_list(rank, &dist, system, &mut global_positions, tr);
            if repartitioned {
                cache.retire_table(&hash);
                hash = IndexHashTable::new(me, dist.ttable.local_size(me));
            } else {
                tr.span("chaos.hash", || hash.clear_stamp(STAMP_NB));
            }
            let prev_bond_refs = (!repartitioned).then(|| std::mem::take(&mut loops.bond_refs));
            loops = build_loop_state(
                rank,
                &mut cache,
                &mut hash,
                &dist.ttable,
                &bonded,
                &nb_list,
                config.schedule_mode,
                prev_bond_refs,
                tr,
            );
        }

        execute_step(
            rank,
            &mut dist,
            &loops,
            &mut arrays,
            system,
            config.schedule_mode,
            tr,
        );
        tr.exit(step_span);
    }

    let owned_positions = dist
        .owned_globals
        .iter()
        .enumerate()
        .map(|(l, &g)| (g, [dist.px[l], dist.py[l], dist.pz[l]]))
        .collect();
    tr.exit(root);
    owned_positions
}

fn partition<T: Tracer>(
    rank: &mut Rank,
    kind: PartitionerKind,
    coords: &[[f64; 3]],
    weights: &[f64],
    tr: &mut T,
) -> Vec<usize> {
    let nprocs = rank.nprocs();
    tr.span("chaos.partition", || match kind {
        PartitionerKind::Rcb => rcb_partition(rank, PartitionInput::new(coords, weights), nprocs),
        PartitionerKind::Rib => rib_partition(rank, PartitionInput::new(coords, weights), nprocs),
        PartitionerKind::Block => vec![rank.rank(); coords.len()],
    })
}

/// Move the seven per-atom arrays through one remap plan.
fn remap_state(
    rank: &mut Rank,
    old_owned: &[usize],
    ttable: &mut TranslationTable,
    arrays: [&[f64]; 7],
) -> [Vec<f64>; 7] {
    let plan = build_remap(rank, old_owned, ttable);
    let mut fills = [0.0; 7];
    fills[6] = 1.0; // mass
    let mut k = 0;
    arrays.map(|values| {
        let out = remap_values(rank, &plan, values, fills[k]);
        k += 1;
        out
    })
}

fn build_distribution<T: Tracer>(
    rank: &mut Rank,
    system: &MolecularSystem,
    local_map: &[usize],
    block: &BlockDist,
    tr: &mut T,
) -> Dist {
    let mut ttable = tr.span("chaos.translation", || {
        TranslationTable::replicated_from_map(rank, local_map, block)
            .expect("partitioner returned an invalid owner")
    });
    let my_block: Vec<usize> = block.local_globals(rank.rank()).collect();
    let take = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { my_block.iter().map(|&g| f(g)).collect() };
    let old = [
        take(&|g| system.positions[g][0]),
        take(&|g| system.positions[g][1]),
        take(&|g| system.positions[g][2]),
        take(&|g| system.velocities[g][0]),
        take(&|g| system.velocities[g][1]),
        take(&|g| system.velocities[g][2]),
        take(&|g| system.masses[g]),
    ];
    let [px, py, pz, vx, vy, vz, mass] = tr.span("chaos.remap", || {
        remap_state(
            rank,
            &my_block,
            &mut ttable,
            old.each_ref().map(Vec::as_slice),
        )
    });
    let owned_globals = tr.span("chaos.translation", || ttable.owned_globals(rank));
    Dist {
        ttable,
        owned_globals,
        px,
        py,
        pz,
        vx,
        vy,
        vz,
        mass,
    }
}

fn redistribute<T: Tracer>(
    rank: &mut Rank,
    old: &Dist,
    parts: &[usize],
    natoms: usize,
    tr: &mut T,
) -> Dist {
    let nprocs = rank.nprocs();
    let block = BlockDist::new(natoms, nprocs);
    let mut sends: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nprocs];
    for (l, &g) in old.owned_globals.iter().enumerate() {
        sends[block.owner(g)].push((g as u64, parts[l] as u64));
    }
    let received = tr.span("mpsim.collective", || rank.all_to_all(&sends));
    let my_range = block.local_range(rank.rank());
    let mut local_map = vec![0usize; my_range.len()];
    for (g, owner) in received.into_iter().flatten() {
        local_map[g as usize - my_range.start] = owner as usize;
    }
    let mut ttable = tr.span("chaos.translation", || {
        TranslationTable::replicated_from_map(rank, &local_map, &block)
            .expect("repartitioner returned an invalid owner")
    });
    let [px, py, pz, vx, vy, vz, mass] = tr.span("chaos.remap", || {
        remap_state(
            rank,
            &old.owned_globals,
            &mut ttable,
            [
                &old.px, &old.py, &old.pz, &old.vx, &old.vy, &old.vz, &old.mass,
            ],
        )
    });
    let owned_globals = tr.span("chaos.translation", || ttable.owned_globals(rank));
    Dist {
        ttable,
        owned_globals,
        px,
        py,
        pz,
        vx,
        vy,
        vz,
        mass,
    }
}

fn partition_bonded_loop(
    rank: &mut Rank,
    ttable: &TranslationTable,
    system: &MolecularSystem,
) -> Bonded {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let bond_block = BlockDist::new(system.bonds.len(), nprocs);
    let my_bond_block: Vec<usize> = bond_block.local_globals(me).collect();
    let accesses: Vec<Vec<usize>> = my_bond_block
        .iter()
        .map(|&b| vec![system.bonds[b].0, system.bonds[b].1])
        .collect();
    let part = almost_owner_computes_replicated(rank, ttable, bond_block, &accesses);
    let plan = part.remap_plan(rank);
    let my_ib: Vec<usize> = my_bond_block.iter().map(|&b| system.bonds[b].0).collect();
    let my_jb: Vec<usize> = my_bond_block.iter().map(|&b| system.bonds[b].1).collect();
    Bonded {
        exec_ib: part.remap_indirection(rank, &plan, &my_ib),
        exec_jb: part.remap_indirection(rank, &plan, &my_jb),
    }
}

fn build_local_nb_list<T: Tracer>(
    rank: &mut Rank,
    dist: &Dist,
    system: &MolecularSystem,
    global_positions: &mut [[f64; 3]],
    tr: &mut T,
) -> NeighborList {
    let packed: Vec<[f64; 4]> = dist
        .owned_globals
        .iter()
        .enumerate()
        .map(|(l, &g)| [g as f64, dist.px[l], dist.py[l], dist.pz[l]])
        .collect();
    let gathered = tr.span("mpsim.collective", || rank.all_gather(&packed));
    for entry in gathered.iter().flatten() {
        global_positions[entry[0] as usize] = [entry[1], entry[2], entry[3]];
    }
    let list = tr.span("charmm.list", || {
        build_neighbor_list_for(
            &dist.owned_globals,
            global_positions,
            system.box_size,
            system.cutoff,
        )
    });
    rank.charge_compute(
        dist.owned_globals.len() as f64 * 2.0 + list.interaction_count() as f64 * 0.3,
    );
    list
}

/// Phase E.  `prev_bond_refs` is `Some` when the distribution did not change: the
/// bonded references are reused and their stamps left alone, so under `Multiple` the
/// bonded schedule is a cache hit and only the non-bonded one is patched.
#[allow(clippy::too_many_arguments)]
fn build_loop_state<T: Tracer>(
    rank: &mut Rank,
    cache: &mut ScheduleCache,
    hash: &mut IndexHashTable,
    ttable: &TranslationTable,
    bonded: &Bonded,
    nb_list: &NeighborList,
    mode: ScheduleMode,
    prev_bond_refs: Option<Vec<(LocalRef, LocalRef)>>,
    tr: &mut T,
) -> Loops {
    let hash_span = tr.enter("chaos.hash");
    let bond_refs: Vec<(LocalRef, LocalRef)> = match prev_bond_refs {
        Some(refs) if !hash.is_empty() => refs,
        _ => {
            let ib_refs = hash.hash_in_replicated(rank, ttable, &bonded.exec_ib, STAMP_IB);
            let jb_refs = hash.hash_in_replicated(rank, ttable, &bonded.exec_jb, STAMP_JB);
            ib_refs.into_iter().zip(jb_refs).collect()
        }
    };
    let mut nb_refs: Vec<Vec<LocalRef>> = Vec::with_capacity(ttable.local_size(rank.rank()));
    for l in 0..nb_list.natoms() {
        nb_refs.push(hash.hash_in_replicated(rank, ttable, nb_list.partners_of(l), STAMP_NB));
    }
    tr.exit(hash_span);

    let sched_span = tr.enter("chaos.schedule");
    let mut serve =
        |rank: &mut Rank, query: StampQuery| cache.schedule(rank, hash, query).0.clone();
    let (merged, bonded_sched, nonbonded_sched) = match mode {
        ScheduleMode::Merged => {
            let merged = serve(rank, StampQuery::any_of(&[STAMP_IB, STAMP_JB, STAMP_NB]));
            (Some(merged), None, None)
        }
        ScheduleMode::Multiple => {
            let b = serve(rank, StampQuery::any_of(&[STAMP_IB, STAMP_JB]));
            let nb = serve(rank, StampQuery::single(STAMP_NB));
            (None, Some(b), Some(nb))
        }
    };
    tr.exit(sched_span);

    Loops {
        ghost_len: hash.ghost_len(),
        bond_refs,
        nb_refs,
        merged,
        bonded: bonded_sched,
        nonbonded: nonbonded_sched,
    }
}

fn bonded_loop(loops: &Loops, box_size: f64, a: &mut StepArrays) -> usize {
    for &(ri, rj) in &loops.bond_refs {
        let pi = [a.px[ri], a.py[ri], a.pz[ri]];
        let pj = [a.px[rj], a.py[rj], a.pz[rj]];
        let f = bond_force(displacement_pbc(pi, pj, box_size));
        a.fx[ri] += f[0];
        a.fy[ri] += f[1];
        a.fz[ri] += f[2];
        a.fx[rj] -= f[0];
        a.fy[rj] -= f[1];
        a.fz[rj] -= f[2];
    }
    loops.bond_refs.len()
}

fn nonbonded_loop(loops: &Loops, box_size: f64, a: &mut StepArrays) -> usize {
    let mut count = 0;
    for (l, partners) in loops.nb_refs.iter().enumerate() {
        let ri = LocalRef(l);
        let pi = [a.px[ri], a.py[ri], a.pz[ri]];
        for &rj in partners {
            let pj = [a.px[rj], a.py[rj], a.pz[rj]];
            let f = pair_force(displacement_pbc(pi, pj, box_size));
            a.fx[ri] += f[0];
            a.fy[ri] += f[1];
            a.fz[ri] += f[2];
            a.fx[rj] -= f[0];
            a.fy[rj] -= f[1];
            a.fz[rj] -= f[2];
        }
        count += partners.len();
    }
    count
}

/// Phase F, one time step.
fn execute_step<T: Tracer>(
    rank: &mut Rank,
    dist: &mut Dist,
    loops: &Loops,
    arrays: &mut StepArrays,
    system: &MolecularSystem,
    mode: ScheduleMode,
    tr: &mut T,
) {
    let owned = dist.owned_globals.len();
    let box_size = system.box_size;
    arrays.refresh(dist, loops.ghost_len);

    match mode {
        ScheduleMode::Merged => {
            let sched = loops.merged.as_ref().expect("merged schedule missing");
            tr.span("chaos.gather", || {
                gather_multi(
                    rank,
                    sched,
                    [&mut arrays.px, &mut arrays.py, &mut arrays.pz],
                )
            });
            let interactions = tr.span("charmm.kernel", || {
                bonded_loop(loops, box_size, arrays) + nonbonded_loop(loops, box_size, arrays)
            });
            rank.charge_compute(interactions as f64);
            tr.span("chaos.scatter", || {
                scatter_add_multi(
                    rank,
                    sched,
                    [&mut arrays.fx, &mut arrays.fy, &mut arrays.fz],
                )
            });
        }
        ScheduleMode::Multiple => {
            let bsched = loops.bonded.as_ref().expect("bonded schedule missing");
            let nsched = loops
                .nonbonded
                .as_ref()
                .expect("non-bonded schedule missing");
            let gather_span = tr.enter("chaos.gather");
            gather_multi(
                rank,
                bsched,
                [&mut arrays.px, &mut arrays.py, &mut arrays.pz],
            );
            let nb_gather = gather_start(rank, nsched, [&arrays.px, &arrays.py, &arrays.pz]);
            tr.exit(gather_span);
            let b_count = tr.span("charmm.kernel", || bonded_loop(loops, box_size, arrays));
            rank.charge_compute(b_count as f64);
            tr.span("chaos.scatter", || {
                scatter_add_multi(
                    rank,
                    bsched,
                    [&mut arrays.fx, &mut arrays.fy, &mut arrays.fz],
                )
            });
            arrays.fx.clear_ghost();
            arrays.fy.clear_ghost();
            arrays.fz.clear_ghost();
            tr.span("chaos.gather", || {
                gather_finish(
                    rank,
                    nb_gather,
                    nsched,
                    [&mut arrays.px, &mut arrays.py, &mut arrays.pz],
                )
            });
            let n_count = tr.span("charmm.kernel", || nonbonded_loop(loops, box_size, arrays));
            rank.charge_compute(n_count as f64);
            tr.span("chaos.scatter", || {
                scatter_add_multi(
                    rank,
                    nsched,
                    [&mut arrays.fx, &mut arrays.fy, &mut arrays.fz],
                )
            });
        }
    }

    tr.span("charmm.kernel", || {
        for l in 0..owned {
            let mut pos = [
                arrays.px.owned()[l],
                arrays.py.owned()[l],
                arrays.pz.owned()[l],
            ];
            let mut vel = [dist.vx[l], dist.vy[l], dist.vz[l]];
            let force = [
                arrays.fx.owned()[l],
                arrays.fy.owned()[l],
                arrays.fz.owned()[l],
            ];
            integrate_atom(&mut pos, &mut vel, force, dist.mass[l], box_size);
            dist.px[l] = pos[0];
            dist.py[l] = pos[1];
            dist.pz[l] = pos[2];
            dist.vx[l] = vel[0];
            dist.vy[l] = vel[1];
            dist.vz[l] = vel[2];
        }
    });
    rank.charge_compute(owned as f64 * 0.5);
}

// ------------------------------------------------------------------ inspector_drift --

const STAMP_DRIFT: Stamp = Stamp::new(0);

/// What one rank of `inspector_drift` returns.
pub struct DriftStats {
    /// `x` of the owned (block) range.
    pub owned_x: Vec<f64>,
    pub totals: LoopTotals,
}

/// Work units charged per reference of the Figure-1 kernel (two additions).  The CHARMM
/// driver charges one unit per `pair_force`, some forty floating-point operations.
const DRIFT_KERNEL_UNITS: f64 = 0.05;

/// The value of `y(g)` in step `step`: small integers, so every sum is exact.
pub fn drift_y(g: usize, step: usize) -> f64 {
    ((g + step) % 7 + 1) as f64
}

/// Figure 1 with the indirection array modified every step:
/// `x(i) += y(ia(i,j)); x(ia(i,j)) += y(i)` over a neighbour list that is swapped for
/// the next of `input.lists` before each step, so every step re-hashes the list under a
/// cleared stamp and patches the schedule.  Atoms are BLOCK-distributed.
pub fn run_drift<T: Tracer>(rank: &mut Rank, input: &DriftInput, tr: &mut T) -> DriftStats {
    let root = tr.enter("run");
    let me = rank.rank();
    let dist = BlockDist::new(input.natoms, rank.nprocs());
    let range = dist.local_range(me);
    let owned = range.len();
    let ttable = tr.span("chaos.translation", || {
        TranslationTable::replicated_from_block(&dist)
    });
    let mut hash = IndexHashTable::new(me, owned);
    let mut cache = ScheduleCache::new(1);
    let mut x: DistArray<f64> = DistArray::zeroed(owned, 0);
    let mut y: DistArray<f64> = DistArray::zeroed(owned, 0);
    let mut totals = LoopTotals::default();

    for step in 0..input.nsteps {
        tr.set_step(step as u32);
        let step_span = tr.enter("step");
        let list = &input.lists[step % input.lists.len()];
        let offsets = &list.offsets[range.start..=range.end];
        let partners = &list.partners[offsets[0]..offsets[owned]];

        let t0 = rank.modeled();
        let refs = tr.span("chaos.hash", || {
            hash.clear_stamp(STAMP_DRIFT);
            hash.hash_in_replicated(rank, &ttable, partners, STAMP_DRIFT)
        });
        let sched_span = tr.enter("chaos.schedule");
        let sched = cache
            .schedule(rank, &hash, StampQuery::single(STAMP_DRIFT))
            .0;
        tr.exit(sched_span);
        totals.inspector += rank.modeled().since(&t0);

        let t0 = rank.modeled();
        x.ensure_ghost(hash.ghost_len());
        x.clear_ghost();
        for (l, value) in y.owned_mut().iter_mut().enumerate() {
            *value = drift_y(range.start + l, step);
        }
        let gathered = tr.span("chaos.gather", || gather(rank, sched, &mut y));
        tr.span("drift.kernel", || {
            for l in 0..owned {
                let ri = LocalRef(l);
                for &rj in &refs[offsets[l] - offsets[0]..offsets[l + 1] - offsets[0]] {
                    x[ri] += y[rj];
                    x[rj] += y[ri];
                }
            }
        });
        rank.charge_compute(refs.len() as f64 * DRIFT_KERNEL_UNITS);
        let scattered = tr.span("chaos.scatter", || scatter_add(rank, sched, &mut x));
        totals.executor += rank.modeled().since(&t0);
        totals.executor_msgs += gathered.msgs_sent + scattered.msgs_sent;
        totals.executor_bytes += gathered.bytes_sent + scattered.bytes_sent;
        tr.exit(step_span);
    }

    totals.cache = cache.stats();
    tr.exit(root);
    DriftStats {
        owned_x: x.into_owned(),
        totals,
    }
}

/// The sequential evaluation `run_drift` must equal exactly.
pub fn drift_reference(input: &DriftInput) -> Vec<f64> {
    let mut x = vec![0.0; input.natoms];
    for step in 0..input.nsteps {
        let list = &input.lists[step % input.lists.len()];
        for i in 0..input.natoms {
            for &j in list.partners_of(i) {
                x[i] += drift_y(j, step);
                x[j] += drift_y(i, step);
            }
        }
    }
    x
}
