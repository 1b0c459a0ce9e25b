//! The particle replay: the phase order of `dsmc::parallel::run_parallel` for the
//! light-weight MOVE with policy-driven chain remaps, rebuilt from public layer
//! functions with a span around each call.  It repeats the driver's operations and
//! `charge_compute` calls in the driver's order, so its remap decisions and its final
//! fingerprint equal the driver's, which the harness checks.

use std::collections::HashMap;

use crate::surface::*;
use crate::trace::Tracer;

/// `(cell, sorted molecule ids)` of every non-empty owned cell, sorted by cell.
pub type Fingerprint = Vec<(usize, Vec<u64>)>;

pub fn replay_dsmc<T: Tracer>(
    rank: &mut Rank,
    grid: &CellGrid,
    particles: &[Particle],
    config: &DsmcConfig,
    tr: &mut T,
) -> Fingerprint {
    assert!(
        config.policy.is_some()
            && config.remap == RemapStrategy::Chain
            && config.monitor_group.is_none(),
        "the replay mirrors the measured-policy chain-remap driver; dsmc_move sets nothing else"
    );
    let root = tr.enter("run");
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let mut controller = RemapController::new(config.effective_policy());

    let mut cell_owner: Vec<usize> = initial_owner_map(grid, nprocs);
    let mut cells: HashMap<usize, Vec<Particle>> = HashMap::new();
    for (cell, &owner) in cell_owner.iter().enumerate() {
        if owner == me {
            cells.insert(cell, Vec::new());
        }
    }
    for p in particles {
        let cell = grid.cell_of_position(p.pos);
        if cell_owner[cell] == me {
            cells.get_mut(&cell).expect("owned cell missing").push(*p);
        }
    }

    let mut outgoing: Vec<(usize, Particle)> = Vec::new();
    let mut survivors: Vec<(usize, Particle)> = Vec::new();

    for step in 0..config.nsteps {
        tr.set_step(step as u32);
        let step_span = tr.enter("step");

        // Collisions, then advance and split into survivors and migrants.
        let t0 = rank.modeled();
        let kernel = tr.enter("dsmc.kernel");
        let mut owned_cells: Vec<usize> = cells.keys().copied().collect();
        owned_cells.sort_unstable();
        for &cell in &owned_cells {
            let list = cells.get_mut(&cell).expect("owned cell missing");
            let pairs = collide_cell(cell, step, config.seed, list);
            rank.charge_compute(pairs as f64 * 2.0 + list.len() as f64 * 0.3 + 0.2);
        }
        let collide_step = rank.modeled().since(&t0);
        outgoing.clear();
        survivors.clear();
        for &cell in &owned_cells {
            let list = cells.get_mut(&cell).expect("owned cell missing");
            for mut p in list.drain(..) {
                advance(&mut p, grid, config.dt);
                let new_cell = grid.cell_of_position(p.pos);
                if new_cell == cell {
                    survivors.push((cell, p));
                } else {
                    outgoing.push((new_cell, p));
                }
            }
        }
        tr.exit(kernel);

        // MOVE: one light-weight schedule, one split-phase append.
        let mut dests: Vec<usize> = Vec::with_capacity(outgoing.len());
        let mut items: Vec<Particle> = Vec::with_capacity(outgoing.len());
        for (cell, p) in &outgoing {
            dests.push(cell_owner[*cell]);
            items.push(*p);
        }
        let sched = tr.span("chaos.lightweight", || {
            LightweightSchedule::build(rank, &dests)
        });
        let inflight = tr.span("chaos.append", || {
            scatter_append_start(rank, &sched, &items)
        });
        tr.span("dsmc.kernel", || {
            rank.charge_compute(survivors.len() as f64 * 0.2);
            for (cell, p) in survivors.drain(..) {
                cells.get_mut(&cell).expect("owned cell missing").push(p);
            }
        });
        let arrivals = tr.span("chaos.append", || {
            scatter_append_finish(rank, &sched, inflight)
        });
        tr.span("dsmc.kernel", || {
            for p in arrivals {
                cells
                    .entry(grid.cell_of_position(p.pos))
                    .or_default()
                    .push(p);
            }
        });

        // The controller samples this step's collision time (one all-gather) and decides.
        let decision = tr.span("mpsim.collective", || {
            controller.observe_sample(rank, collide_step.compute_us)
        });
        if decision.remap {
            let bytes_before = rank.stats().bytes_sent;
            let t0 = rank.modeled();
            remap_cells(rank, grid, &mut cell_owner, &mut cells, tr);
            let remap_cost = rank.modeled().since(&t0).total_us();
            let moved = rank.stats().bytes_sent - bytes_before;
            tr.span("mpsim.collective", || {
                controller.record_remap(rank, moved, remap_cost);
            });
        }
        tr.exit(step_span);
    }

    let mut fingerprint: Fingerprint = cells
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(&cell, v)| {
            let mut ids: Vec<u64> = v.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            (cell, ids)
        })
        .collect();
    fingerprint.sort_unstable();
    tr.exit(root);
    fingerprint
}

/// Chain-partition the owned cells by their molecule counts along x, publish the new
/// (replicated) owner map and migrate the molecules of reassigned cells.
fn remap_cells<T: Tracer>(
    rank: &mut Rank,
    grid: &CellGrid,
    cell_owner: &mut [usize],
    cells: &mut HashMap<usize, Vec<Particle>>,
    tr: &mut T,
) {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let mut owned_cells: Vec<usize> = cells.keys().copied().collect();
    owned_cells.sort_unstable();
    let weights: Vec<f64> = owned_cells
        .iter()
        .map(|c| 1.0 + cells[c].len() as f64)
        .collect();
    let xs: Vec<f64> = owned_cells
        .iter()
        .map(|&c| grid.cell_center(c)[0])
        .collect();
    let new_parts = tr.span("chaos.partition", || {
        chain_partition(rank, &xs, &weights, nprocs)
    });
    let updates: Vec<(u64, u64)> = owned_cells
        .iter()
        .zip(&new_parts)
        .map(|(&c, &p)| (c as u64, p as u64))
        .collect();
    let all_updates = tr.span("mpsim.collective", || rank.all_gather(&updates));
    for (cell, owner) in all_updates.into_iter().flatten() {
        cell_owner[cell as usize] = owner as usize;
    }

    let remap = tr.enter("chaos.remap");
    let mut moving: Vec<Particle> = Vec::new();
    let mut dests: Vec<usize> = Vec::new();
    for &cell in &owned_cells {
        let new_owner = cell_owner[cell];
        if new_owner != me {
            for p in cells.remove(&cell).expect("owned cell missing") {
                moving.push(p);
                dests.push(new_owner);
            }
        }
    }
    for (cell, &owner) in cell_owner.iter().enumerate() {
        if owner == me {
            cells.entry(cell).or_default();
        }
    }
    let sched = LightweightSchedule::build(rank, &dests);
    for p in scatter_append(rank, &sched, &moving) {
        cells
            .entry(grid.cell_of_position(p.pos))
            .or_default()
            .push(p);
    }
    tr.exit(remap);
}
