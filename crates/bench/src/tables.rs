//! One generator per table of the paper's evaluation section, and the `tables`
//! artifact (`BENCH_tables.json`) that runs them.

use std::time::Instant;

use chaos::prelude::*;
use charmm::parallel::{ParallelConfig, PartitionerKind, ScheduleMode};
use charmm::system::{MolecularSystem, SystemConfig};
use charmm::{CharmmStepStats, ParallelCharmm};
use dsmc::{
    seed_particles, CellGrid, DsmcConfig, FlowConfig, MoveMode, RemapStrategy, SequentialDsmc,
};
use fortrand::Executor;
use mpsim::{run, MachineConfig, Rank, RunOutcome};

use crate::report::{Artifact, Json};
use crate::workloads::{
    charmm_medium, csr_neighbor_list, format_table, lightweight_append_loop, run_dsmc, secs,
};

/// Workload scale used by the table generators.
#[derive(Debug, Clone)]
pub struct Scale {
    /// CHARMM-like system (Tables 1–3, 6).
    pub charmm: SystemConfig,
    /// CHARMM time steps per run.
    pub charmm_steps: usize,
    /// CHARMM non-bonded list update interval.
    pub charmm_update: usize,
    /// Processor counts for the CHARMM tables.
    pub charmm_procs: Vec<usize>,
    /// 2-D DSMC grids for Table 4 (the paper uses 48×48 and 96×96).
    pub dsmc2d_grids: Vec<(usize, usize)>,
    /// Average molecules per cell for the 2-D DSMC runs.
    pub dsmc2d_particles_per_cell: usize,
    /// 2-D DSMC steps.
    pub dsmc2d_steps: usize,
    /// Processor counts for the DSMC tables.
    pub dsmc_procs: Vec<usize>,
    /// 3-D DSMC grid for Table 5.
    pub dsmc3d_grid: (usize, usize, usize),
    /// Total molecules for the 3-D DSMC run.
    pub dsmc3d_particles: usize,
    /// 3-D DSMC steps (the paper runs 1 000, remapping every 40).
    pub dsmc3d_steps: usize,
    /// Remap interval for Table 5.
    pub dsmc3d_remap_interval: usize,
    /// Processor counts for the compiler comparisons (Tables 6, 7).
    pub compiler_procs: Vec<usize>,
    /// Table 7 template: number of particles and cells.
    pub template_particles: usize,
    /// Table 7 template: number of cells.
    pub template_cells: usize,
    /// Table 7 template: steps.
    pub template_steps: usize,
}

impl Scale {
    /// The scale used by the table binaries by default: small enough to
    /// run the whole suite in minutes, large enough that every qualitative trend of the
    /// paper is visible.
    pub fn quick() -> Self {
        Scale {
            charmm: charmm_medium(),
            charmm_steps: 6,
            charmm_update: 3,
            charmm_procs: vec![1, 4, 8, 16, 32],
            dsmc2d_grids: vec![(24, 24), (48, 48)],
            dsmc2d_particles_per_cell: 6,
            dsmc2d_steps: 12,
            dsmc_procs: vec![4, 8, 16, 32],
            dsmc3d_grid: (16, 8, 8),
            dsmc3d_particles: 16_000,
            dsmc3d_steps: 60,
            dsmc3d_remap_interval: 20,
            compiler_procs: vec![4, 8, 16],
            template_particles: 5_000,
            template_cells: 1_024,
            template_steps: 25,
        }
    }

    /// A larger scale closer to the paper's parameters (14 026 atoms, 48×48 / 96×96 cells,
    /// 128 processors).  Every table at this scale took 5 m 03 s on a 2-core host.
    pub fn paper_like() -> Self {
        Scale {
            charmm: SystemConfig::paper_benchmark(),
            charmm_steps: 8,
            charmm_update: 4,
            charmm_procs: vec![1, 16, 32, 64, 128],
            dsmc2d_grids: vec![(48, 48), (96, 96)],
            dsmc2d_particles_per_cell: 8,
            dsmc2d_steps: 20,
            dsmc_procs: vec![16, 32, 64, 128],
            dsmc3d_grid: (32, 16, 16),
            dsmc3d_particles: 120_000,
            dsmc3d_steps: 120,
            dsmc3d_remap_interval: 40,
            compiler_procs: vec![8, 32, 64],
            template_particles: 5_000,
            template_cells: 1_024,
            template_steps: 50,
        }
    }

    /// Choose the scale from the `CHAOS_PAPER_SCALE` environment variable: any value other
    /// than empty or `0` selects [`Scale::paper_like`].  Also returns the scale's name
    /// (`"quick"` / `"paper_like"`), the value the artifacts record, kept next to the
    /// selection logic so the two can never disagree.
    pub fn from_env() -> (Self, &'static str) {
        match std::env::var("CHAOS_PAPER_SCALE") {
            Ok(v) if !v.is_empty() && v != "0" => (Scale::paper_like(), "paper_like"),
            _ => (Scale::quick(), "quick"),
        }
    }
}

/// A generated table: its title and formatted text (also carrying the raw rows so tests
/// and EXPERIMENTS.md generation can inspect values).
#[derive(Debug, Clone)]
pub struct TableOutput {
    /// The table title (mirrors the paper's caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells as strings.
    pub rows: Vec<Vec<String>>,
}

impl TableOutput {
    /// Render the table as aligned text.
    pub fn render(&self) -> String {
        format_table(&self.title, &self.headers, &self.rows)
    }
}

// ===================================================================== Table 1 =========

/// Run the CHARMM driver on `p` ranks over the scale's system, steps and list-update
/// interval: RCB partitioning, no repartitioning, `schedule_mode` schedules.
fn run_charmm(scale: &Scale, p: usize, schedule_mode: ScheduleMode) -> RunOutcome<CharmmStepStats> {
    let sys_cfg = scale.charmm.clone();
    let config = ParallelConfig {
        nsteps: scale.charmm_steps,
        list_update_interval: scale.charmm_update,
        partitioner: PartitionerKind::Rcb,
        schedule_mode,
        repartition_interval: None,
        adapt_policy: None,
    };
    run(MachineConfig::new(p), move |rank| {
        let system = MolecularSystem::build(&sys_cfg);
        ParallelCharmm::run(rank, &system, &config)
    })
}

/// Table 1: performance of parallel CHARMM — execution, computation and communication
/// time plus the load-balance index over a processor sweep.
pub fn table1_charmm_scaling(scale: &Scale) -> TableOutput {
    let mut headers = vec!["Metric".to_string()];
    let mut exec = vec!["Execution Time (s)".to_string()];
    let mut comp = vec!["Computation Time (s)".to_string()];
    let mut comm = vec!["Communication Time (s)".to_string()];
    let mut lb = vec!["Load Balance Index".to_string()];
    for &p in &scale.charmm_procs {
        headers.push(format!("{p} procs"));
        let out = run_charmm(scale, p, ScheduleMode::Merged);
        exec.push(secs(out.max_total_us()));
        comp.push(secs(out.avg_compute_us()));
        comm.push(secs(out.avg_comm_us()));
        let exec_compute: Vec<f64> = out
            .results
            .iter()
            .map(|s| s.phases.executor.compute_us)
            .collect();
        lb.push(format!("{:.2}", chaos::load_balance_index(&exec_compute)));
    }
    TableOutput {
        title: format!(
            "Table 1: Performance of Parallel CHARMM ({} atoms, {} steps, modeled seconds)",
            scale.charmm.total_atoms(),
            scale.charmm_steps
        ),
        headers,
        rows: vec![exec, comp, comm, lb],
    }
}

// ===================================================================== Table 2 =========

/// Table 2: preprocessing overheads of CHARMM — partitioning, list update, remapping,
/// schedule generation and regeneration.
pub fn table2_charmm_preproc(scale: &Scale) -> TableOutput {
    let mut headers = vec!["Phase".to_string()];
    let mut partition = vec!["Data Partition (s)".to_string()];
    let mut list_update = vec!["Non-bonded List Update (s)".to_string()];
    let mut remap = vec!["Remapping and Preprocessing (s)".to_string()];
    let mut sched_gen = vec!["Schedule Generation (s)".to_string()];
    let mut sched_regen = vec!["Schedule Regeneration (total, s)".to_string()];
    for &p in scale.charmm_procs.iter().filter(|&&p| p > 1) {
        headers.push(format!("{p} procs"));
        let out = run_charmm(scale, p, ScheduleMode::Merged);
        let max = |f: &dyn Fn(&charmm::CharmmPhaseTimes) -> f64| -> f64 {
            out.results.iter().map(|s| f(&s.phases)).fold(0.0, f64::max)
        };
        partition.push(secs(max(&|ph| ph.data_partition.total_us())));
        list_update.push(secs(max(&|ph| ph.list_update.total_us())));
        remap.push(secs(max(&|ph| ph.remap.total_us())));
        sched_gen.push(secs(max(&|ph| ph.schedule_generation.total_us())));
        sched_regen.push(secs(max(&|ph| ph.schedule_regeneration.total_us())));
    }
    TableOutput {
        title: format!(
            "Table 2: Preprocessing Overheads of CHARMM ({} atoms, list updated every {} steps)",
            scale.charmm.total_atoms(),
            scale.charmm_update
        ),
        headers,
        rows: vec![partition, list_update, remap, sched_gen, sched_regen],
    }
}

// ===================================================================== Table 3 =========

/// Table 3: communication and execution time with one merged schedule versus one schedule
/// per loop.
pub fn table3_schedule_merging(scale: &Scale) -> TableOutput {
    let mut headers = vec!["Procs".to_string()];
    headers.extend(
        [
            "Merged: Comm (s)",
            "Merged: Exec (s)",
            "Multiple: Comm (s)",
            "Multiple: Exec (s)",
        ]
        .map(String::from),
    );
    let mut rows = Vec::new();
    for &p in scale.charmm_procs.iter().filter(|&&p| p > 1) {
        let mut row = vec![p.to_string()];
        for mode in [ScheduleMode::Merged, ScheduleMode::Multiple] {
            let out = run_charmm(scale, p, mode);
            row.push(secs(out.avg_comm_us()));
            row.push(secs(out.max_total_us()));
        }
        rows.push(row);
    }
    TableOutput {
        title: "Table 3: Schedule Merging vs. Multiple Schedules (CHARMM)".to_string(),
        headers,
        rows,
    }
}

// ===================================================================== Table 4 =========

/// Table 4: 2-D DSMC execution time with regular versus light-weight schedules.
pub fn table4_lightweight(scale: &Scale) -> TableOutput {
    let mut headers = vec!["Schedule / Grid".to_string()];
    for &p in &scale.dsmc_procs {
        headers.push(format!("{p} procs"));
    }
    let mut rows = Vec::new();
    for &(nx, ny) in &scale.dsmc2d_grids {
        // The regular-schedule baseline hashes the destination cells and builds a real
        // `CommSchedule` through the inspector every step.
        let regular = MoveMode::Patched {
            rebuild_every_step: true,
        };
        for (mode, label) in [
            (regular, "Regular"),
            (MoveMode::Lightweight, "Light-weight"),
        ] {
            let label = format!("{label} schedules, {nx}x{ny} cells (s)");
            let mut row = vec![label];
            for &p in &scale.dsmc_procs {
                let grid = CellGrid::new_2d(nx, ny);
                let nparticles = nx * ny * scale.dsmc2d_particles_per_cell;
                // "The computational load was deliberately evenly distributed": no drift.
                let flow = FlowConfig::uniform(7);
                let config = DsmcConfig {
                    nsteps: scale.dsmc2d_steps,
                    dt: 0.4,
                    move_mode: mode,
                    remap: RemapStrategy::Static,
                    remap_interval: 1_000_000,
                    policy: None,
                    monitor_group: None,
                    seed: 7,
                };
                let out = run_dsmc(p, grid, flow, nparticles, config);
                row.push(secs(out.max_total_us()));
            }
            rows.push(row);
        }
    }
    TableOutput {
        title: format!(
            "Table 4: Regular vs. Light-weight Schedules (2-D DSMC, {} steps)",
            scale.dsmc2d_steps
        ),
        headers,
        rows,
    }
}

// ===================================================================== Table 5 =========

/// Table 5: 3-D DSMC execution time with static partitioning, periodic recursive-bisection
/// remapping, and periodic chain-partitioner remapping (plus the sequential code).
pub fn table5_remapping(scale: &Scale) -> TableOutput {
    let (nx, ny, nz) = scale.dsmc3d_grid;
    let grid = CellGrid::new_3d(nx, ny, nz);
    let flow = FlowConfig::directional(11);
    let nparticles = scale.dsmc3d_particles;

    let mut headers = vec!["Strategy".to_string()];
    for &p in &scale.dsmc_procs {
        headers.push(format!("{p} procs"));
    }
    headers.push("Sequential".to_string());

    // Sequential reference: the modeled time is the collision + move work of the
    // single-address-space code under the same cost model (no communication).
    let seq_secs = {
        let particles = seed_particles(&grid, nparticles, &flow);
        let mut sim = SequentialDsmc::new(grid, particles, 0.4, 11);
        sim.run(scale.dsmc3d_steps);
        let cost = mpsim::CostModel::ipsc860();
        let work_units = sim.collisions as f64 * 2.0
            + sim.migrations as f64 * 0.2
            + sim.total_particles() as f64 * scale.dsmc3d_steps as f64 * 0.5;
        secs(work_units * cost.compute_unit_us)
    };

    let mut rows = Vec::new();
    for (label, strategy) in [
        ("Static partition (s)", RemapStrategy::Static),
        ("Recursive bisection (s)", RemapStrategy::RecursiveBisection),
        ("Chain partition (s)", RemapStrategy::Chain),
    ] {
        let mut row = vec![label.to_string()];
        for &p in &scale.dsmc_procs {
            let config = DsmcConfig {
                nsteps: scale.dsmc3d_steps,
                dt: 0.4,
                move_mode: MoveMode::Lightweight,
                remap: strategy,
                remap_interval: scale.dsmc3d_remap_interval,
                policy: None,
                monitor_group: None,
                seed: 11,
            };
            let out = run_dsmc(p, grid, flow, nparticles, config);
            row.push(secs(out.max_total_us()));
        }
        row.push(if strategy == RemapStrategy::Static {
            seq_secs.clone()
        } else {
            "-".to_string()
        });
        rows.push(row);
    }
    TableOutput {
        title: format!(
            "Table 5: Performance effects of remapping (3-D DSMC {nx}x{ny}x{nz}, {} molecules, {} steps, remap every {})",
            nparticles, scale.dsmc3d_steps, scale.dsmc3d_remap_interval
        ),
        headers,
        rows,
    }
}

// ===================================================================== Table 6 =========

/// The Fortran-D source of the Figure 10 non-bonded force template, instantiated for a
/// concrete atom count and neighbour-list size.
pub fn figure10_source(natoms: usize, list_len: usize) -> String {
    format!(
        "REAL x({n}), y({n}), dx({n}), dy({n})\n\
         INTEGER map({n}), inblo({m}), jnb({k})\n\
         C$ DECOMPOSITION reg({n})\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, y, dx, dy WITH reg\n\
         C$ DISTRIBUTE reg(map)\n\
         FORALL i = 1, {n}\n\
         FORALL j = inblo(i), inblo(i+1) - 1\n\
         REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))\n\
         REDUCE(SUM, dy(jnb(j)), y(jnb(j)) - y(i))\n\
         REDUCE(SUM, dx(i), x(i) - x(jnb(j)))\n\
         REDUCE(SUM, dy(i), y(i) - y(jnb(j)))\n\
         END FORALL\n\
         END FORALL\n",
        n = natoms,
        m = natoms + 1,
        k = list_len
    )
}

/// Per-phase modeled times (seconds) of one Table 6 variant.
#[derive(Debug, Clone, Default)]
pub struct Fig10Times {
    pub partition: f64,
    pub remap: f64,
    pub inspector: f64,
    pub executor: f64,
}

/// Table 6's partitioner call for redistribution `round`: RCB on even rounds, RIB on odd
/// ones, each atom in `globals` (at `coords`) weighted by 1 + its neighbour count.
fn partition_round(
    rank: &mut Rank,
    round: usize,
    globals: &[usize],
    coords: &[[f64; 3]],
    inblo: &[i64],
) -> Vec<usize> {
    let weight = |&g: &usize| 1.0 + (inblo[g + 1] - inblo[g]) as f64;
    let weights: Vec<f64> = globals.iter().map(weight).collect();
    let (input, nprocs) = (PartitionInput::new(coords, &weights), rank.nprocs());
    if round.is_multiple_of(2) {
        rcb_partition(rank, input, nprocs)
    } else {
        rib_partition(rank, input, nprocs)
    }
}

/// The hand-coded CHAOS version of the Figure 10 template: partition atoms, remap the four
/// data arrays, hash the CSR list, build one schedule, then run the loop `iters` times
/// (repartitioning every `repartition_every` iterations, alternating RCB and RIB).
fn figure10_hand(
    rank: &mut Rank,
    system: &MolecularSystem,
    inblo: &[i64],
    jnb: &[i64],
    iters: usize,
    repartition_every: usize,
) -> Fig10Times {
    let natoms = system.natoms();
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let mut times = Fig10Times::default();
    let block = BlockDist::new(natoms, nprocs);
    let my_block: Vec<usize> = block.local_globals(me).collect();

    // Current global values (the hand-coded node program keeps its owned slices; x/y are
    // coordinates, dx/dy the displacement accumulators).
    let mut x: Vec<f64> = my_block.iter().map(|&g| system.positions[g][0]).collect();
    let mut y: Vec<f64> = my_block.iter().map(|&g| system.positions[g][1]).collect();
    let mut dx = vec![0.0f64; my_block.len()];
    let mut dy = vec![0.0f64; my_block.len()];
    let mut owned_globals = my_block.clone();
    let mut ttable = TranslationTable::from_regular(&block);

    for iter in 0..iters {
        // Periodic repartition + remap (RCB/RIB alternating), as in the paper's Table 6.
        if iter % repartition_every == 0 {
            let t0 = rank.modeled();
            let coords: Vec<[f64; 3]> = x.iter().zip(&y).map(|(&x, &y)| [x, y, 0.0]).collect();
            let round = iter / repartition_every;
            let parts = partition_round(rank, round, &owned_globals, &coords, inblo);
            times.partition += rank.modeled().since(&t0).total_us();

            let t0 = rank.modeled();
            // Publish the new map (block-distributed) and rebuild the translation table.
            let mut sends: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nprocs];
            for (l, &g) in owned_globals.iter().enumerate() {
                sends[block.owner(g)].push((g as u64, parts[l] as u64));
            }
            let received = rank.all_to_all(&sends);
            let my_range = block.local_range(me);
            let mut local_map = vec![0usize; my_range.len()];
            for (g, owner) in received.into_iter().flatten() {
                local_map[g as usize - my_range.start] = owner as usize;
            }
            let mut new_ttable =
                TranslationTable::replicated_from_map(rank, &local_map, &block).unwrap();
            let plan = build_remap(rank, &owned_globals, &mut new_ttable);
            x = remap_values(rank, &plan, &x, 0.0);
            y = remap_values(rank, &plan, &y, 0.0);
            dx = remap_values(rank, &plan, &dx, 0.0);
            dy = remap_values(rank, &plan, &dy, 0.0);
            owned_globals = new_ttable.owned_globals(rank);
            ttable = new_ttable;
            times.remap += rank.modeled().since(&t0).total_us();
        }

        // Inspector: hash the references of the owned iterations, build one schedule.
        let t0 = rank.modeled();
        let mut hash = IndexHashTable::new(me, owned_globals.len());
        let stamp = Stamp::new(0);
        let mut refs: Vec<usize> = Vec::new();
        for &i in &owned_globals {
            refs.push(i);
            for j in inblo[i]..inblo[i + 1] {
                refs.push((jnb[(j - 1) as usize] - 1) as usize);
            }
        }
        let local_refs = hash.hash_in_replicated(rank, &ttable, &refs, stamp);
        let sched = chaos::build_schedule_from_table(rank, &hash, StampQuery::single(stamp));
        times.inspector += rank.modeled().since(&t0).total_us();

        // Executor: gather x, y; run the loop; scatter-add dx, dy.
        let t0 = rank.modeled();
        let ghost = sched.ghost_len();
        let mut xg = DistArray::new(x.clone(), ghost);
        let mut yg = DistArray::new(y.clone(), ghost);
        let mut dxg = DistArray::new(dx.clone(), ghost);
        let mut dyg = DistArray::new(dy.clone(), ghost);
        gather(rank, &sched, &mut xg);
        gather(rank, &sched, &mut yg);
        let mut cursor = 0usize;
        let mut work = 0usize;
        for (l, &i) in owned_globals.iter().enumerate() {
            let ri = local_refs[cursor];
            cursor += 1;
            debug_assert_eq!(ri, LocalRef(l));
            for _j in inblo[i]..inblo[i + 1] {
                let rj = local_refs[cursor];
                cursor += 1;
                let ddx = xg[rj] - xg[ri];
                let ddy = yg[rj] - yg[ri];
                dxg[rj] += ddx;
                dyg[rj] += ddy;
                dxg[ri] -= ddx;
                dyg[ri] -= ddy;
                work += 4;
            }
        }
        rank.charge_compute(work as f64);
        scatter_add(rank, &sched, &mut dxg);
        scatter_add(rank, &sched, &mut dyg);
        dx = dxg.owned().to_vec();
        dy = dyg.owned().to_vec();
        times.executor += rank.modeled().since(&t0).total_us();
    }
    times
}

/// The compiler-generated version: the Figure 10 Fortran-D program compiled by `fortrand`
/// and executed the same number of iterations, with the host applying the partitioner and
/// the `DISTRIBUTE reg(map)` directive on the same cadence.
fn figure10_compiled(
    rank: &mut Rank,
    system: &MolecularSystem,
    inblo: &[i64],
    jnb: &[i64],
    iters: usize,
    repartition_every: usize,
) -> Fig10Times {
    let natoms = system.natoms();
    let nprocs = rank.nprocs();
    let source = figure10_source(natoms, jnb.len());
    let (program, _) = fortrand::compile(&source).expect("figure 10 template compiles");
    let mut exec = Executor::new(rank, &program);
    exec.set_integer_array("INBLO", inblo);
    exec.set_integer_array("JNB", jnb);
    exec.set_integer_array("MAP", &vec![0i64; natoms]);
    let coord = |k: usize| -> Vec<f64> { system.positions.iter().map(|p| p[k]).collect() };
    exec.set_real_array("X", &coord(0));
    exec.set_real_array("Y", &coord(1));
    exec.set_real_array("DX", &vec![0.0; natoms]);
    exec.set_real_array("DY", &vec![0.0; natoms]);
    // steps: [Distribute(BLOCK), Distribute(map), BuildSchedule, FusedLoop]
    exec.run_step(rank, 0);

    let mut partition_us = 0.0;
    for iter in 0..iters {
        if iter % repartition_every == 0 {
            // Host-side extrinsic partitioner call (Figure 10's statement S1), then the
            // DISTRIBUTE reg(map) directive.
            let t0 = rank.modeled();
            let block = BlockDist::new(natoms, nprocs);
            let my_block: Vec<usize> = block.local_globals(rank.rank()).collect();
            let coords: Vec<[f64; 3]> = my_block
                .iter()
                .map(|&g| [system.positions[g][0], system.positions[g][1], 0.0])
                .collect();
            let round = iter / repartition_every;
            let parts = partition_round(rank, round, &my_block, &coords, inblo);
            // Assemble the replicated map array from every rank's fragment.
            let packed: Vec<(u64, u64)> = my_block
                .iter()
                .zip(&parts)
                .map(|(&g, &p)| (g as u64, p as u64))
                .collect();
            let gathered = rank.all_gather(&packed);
            let mut map = vec![0i64; natoms];
            for part in gathered {
                for (g, p) in part {
                    map[g as usize] = p as i64;
                }
            }
            partition_us += rank.modeled().since(&t0).total_us();
            exec.set_integer_array("MAP", &map);
            exec.run_step(rank, 1); // DISTRIBUTE reg(map)
        }
        exec.run_step(rank, 2); // the FORALL loop: its inspector (reused between remaps) …
        exec.run_step(rank, 3); // … and its executor
    }
    let phases = exec.phases();
    Fig10Times {
        partition: partition_us,
        remap: phases.remap.total_us(),
        inspector: phases.inspector.total_us(),
        executor: phases.executor.total_us(),
    }
}

/// Table 6: hand-coded versus compiler-generated CHARMM non-bonded loop.
pub fn table6_compiler_charmm(scale: &Scale) -> TableOutput {
    let headers = [
        "Version / Procs",
        "Partition (s)",
        "Remap (s)",
        "Inspector (s)",
        "Executor (s)",
        "Total (s)",
    ]
    .map(String::from)
    .to_vec();
    let mut rows = Vec::new();
    let iters = scale.charmm_steps.max(4);
    let repartition_every = (iters / 2).max(2);
    for &p in &scale.compiler_procs {
        for hand in [true, false] {
            let cfg = scale.charmm.clone();
            let out = run(MachineConfig::new(p), move |rank| {
                let system = MolecularSystem::build(&cfg);
                let (inblo, jnb) = csr_neighbor_list(&system);
                if hand {
                    figure10_hand(rank, &system, &inblo, &jnb, iters, repartition_every)
                } else {
                    figure10_compiled(rank, &system, &inblo, &jnb, iters, repartition_every)
                }
            });
            let max = |f: &dyn Fn(&Fig10Times) -> f64| -> f64 {
                out.results.iter().map(f).fold(0.0, f64::max)
            };
            rows.push(vec![
                format!(
                    "{} ({p} procs)",
                    if hand { "Hand Coded" } else { "Compiler" }
                ),
                secs(max(&|t| t.partition)),
                secs(max(&|t| t.remap)),
                secs(max(&|t| t.inspector)),
                secs(max(&|t| t.executor)),
                secs(max(&|t| t.partition + t.remap + t.inspector + t.executor)),
            ]);
        }
    }
    TableOutput {
        title: format!(
            "Table 6: Hand-Coded vs. Compiler-Generated CHARMM non-bonded loop ({} atoms, {iters} iterations, redistributed every {repartition_every})",
            scale.charmm.total_atoms()
        ),
        headers,
        rows,
    }
}

// ===================================================================== Table 7 =========

/// The Fortran-D source of the Figure 11 DSMC particle-movement template.
pub fn figure11_source(nparticles: usize, ncells: usize) -> String {
    format!(
        "REAL vel({np}), newvel({nc}), newsize({nc})\n\
         INTEGER icell({np})\n\
         C$ DECOMPOSITION parts({np})\n\
         C$ DECOMPOSITION cells({nc})\n\
         C$ DISTRIBUTE parts(BLOCK)\n\
         C$ DISTRIBUTE cells(BLOCK)\n\
         C$ ALIGN vel WITH parts\n\
         C$ ALIGN newvel, newsize WITH cells\n\
         FORALL j = 1, {nc}\n\
         newsize(j) = 0\n\
         END FORALL\n\
         FORALL i = 1, {np}\n\
         REDUCE(APPEND, newvel(icell(i)), vel(i))\n\
         END FORALL\n\
         FORALL i = 1, {np}\n\
         REDUCE(SUM, newsize(icell(i)), 1)\n\
         END FORALL\n",
        np = nparticles,
        nc = ncells
    )
}

/// Deterministic per-step cell assignment for the Table 7 template: each particle drifts
/// through the cell space, so the indirection array changes every step.
fn template_cells_at_step(nparticles: usize, ncells: usize, step: usize) -> Vec<i64> {
    (0..nparticles)
        .map(|i| (((i * 7 + step * 13 + i / 3) % ncells) + 1) as i64)
        .collect()
}

/// Results of one Table 7 variant (modeled µs).
#[derive(Debug, Clone, Default)]
pub struct Fig11Times {
    pub reduce_append: f64,
    pub total: f64,
}

/// Compiler-generated version of the MOVE template: the three lowered FORALLs of
/// Figure 11 run every step (the size-recomputation loop is the extra communication the
/// paper attributes to the compiler-generated code).
fn figure11_compiled(rank: &mut Rank, np: usize, nc: usize, steps: usize) -> Fig11Times {
    let source = figure11_source(np, nc);
    let (program, _) = fortrand::compile(&source).expect("figure 11 template compiles");
    let mut exec = Executor::new(rank, &program);
    let vel: Vec<f64> = (0..np).map(|i| i as f64 * 0.5).collect();
    exec.set_real_array("VEL", &vel);
    exec.set_real_array("NEWSIZE", &vec![0.0; nc]);
    exec.set_integer_array("ICELL", &template_cells_at_step(np, nc, 0));
    // steps: [Distribute(parts BLOCK), Distribute(cells BLOCK), zero loop, append loop,
    // count loop's BuildSchedule, count loop's FusedLoop]
    exec.run_step(rank, 0);
    exec.run_step(rank, 1);
    let start = rank.modeled();
    let mut append_us = 0.0;
    for step in 0..steps {
        exec.set_integer_array("ICELL", &template_cells_at_step(np, nc, step));
        exec.clear_buckets("NEWVEL");
        exec.run_step(rank, 2); // newsize(j) = 0
        let t0 = rank.modeled();
        exec.run_step(rank, 3); // REDUCE(APPEND, ...)
        append_us += rank.modeled().since(&t0).total_us();
        exec.run_step(rank, 4); // recompute newsize with a REDUCE(SUM) loop:
        exec.run_step(rank, 5); // inspector, then executor
    }
    Fig11Times {
        reduce_append: append_us,
        total: rank.modeled().since(&start).total_us(),
    }
}

/// Table 7: compiler-generated versus manually parallelised DSMC movement template.
pub fn table7_compiler_dsmc(scale: &Scale) -> TableOutput {
    let headers = ["Version / Procs", "Reduce append (s)", "Total (s)"]
        .map(String::from)
        .to_vec();
    let np = scale.template_particles;
    let nc = scale.template_cells;
    let steps = scale.template_steps;
    let mut rows = Vec::new();
    for &p in &scale.compiler_procs {
        for compiled in [true, false] {
            let out = run(MachineConfig::new(p), move |rank| {
                if compiled {
                    figure11_compiled(rank, np, nc, steps)
                } else {
                    // The manually parallelised template: the append's arrivals already
                    // give the new cell sizes, so no extra loop or communication.
                    let cells = |step, icell: &mut Vec<i64>| {
                        *icell = template_cells_at_step(np, nc, step);
                    };
                    let total = lightweight_append_loop(rank, np, nc, steps, cells).0;
                    Fig11Times {
                        reduce_append: total,
                        total,
                    }
                }
            });
            let max = |f: fn(&Fig11Times) -> f64| out.results.iter().map(f).fold(0.0, f64::max);
            let (append, total) = (max(|t| t.reduce_append), max(|t| t.total));
            rows.push(vec![
                format!(
                    "{} ({p} procs)",
                    if compiled {
                        "Compiler generated"
                    } else {
                        "Manually parallelized"
                    }
                ),
                secs(append),
                secs(total),
            ]);
        }
    }
    TableOutput {
        title: format!(
            "Table 7: Compiler-generated vs. manual DSMC movement template ({np} molecules, {nc} cells, {steps} steps)"
        ),
        headers,
        rows,
    }
}

/// A table generator: one of the `tableN_*` functions above.
pub type TableGenerator = fn(&Scale) -> TableOutput;

/// The registry of every table of the paper's evaluation, as `(id, generator)` pairs in
/// paper order.  [`TablesReport`] and `tables --only` both read this list, so a new table
/// added here appears in the printed output and in `BENCH_tables.json` alike.
pub fn table_generators() -> Vec<(&'static str, TableGenerator)> {
    vec![
        ("table1", table1_charmm_scaling as TableGenerator),
        ("table2", table2_charmm_preproc),
        ("table3", table3_schedule_merging),
        ("table4", table4_lightweight),
        ("table5", table5_remapping),
        ("table6", table6_compiler_charmm),
        ("table7", table7_compiler_dsmc),
    ]
}

/// The `tables` artifact: the generated tables, each with its id and host wall-clock (ms).
pub struct TablesReport {
    scale: &'static str,
    tables: Vec<(&'static str, TableOutput, f64)>,
}

impl TablesReport {
    /// Generate every table of [`table_generators`], or only `table{only}`, at the
    /// [`Scale::from_env`] scale.
    pub fn generate(only: Option<&str>) -> Self {
        let (scale, name) = Scale::from_env();
        let mut tables = Vec::new();
        for (id, generate) in table_generators() {
            if only.is_none_or(|n| id.strip_prefix("table") == Some(n)) {
                let start = Instant::now();
                let table = generate(&scale);
                tables.push((id, table, start.elapsed().as_secs_f64() * 1e3));
            }
        }
        TablesReport {
            scale: name,
            tables,
        }
    }
}

impl Artifact for TablesReport {
    const NAME: &'static str = "tables";
    const VERSION: u32 = 1;

    fn print(&self) {
        for (_, table, _) in &self.tables {
            println!("{}\n", table.render());
        }
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let strings = |cells: &[String]| Json::Arr(cells.iter().map(Json::str).collect());
        let entry = |(id, table, wall_ms): &(&str, TableOutput, f64)| {
            Json::obj(vec![
                ("id", Json::str(*id)),
                ("title", Json::str(table.title.clone())),
                ("wall_ms", Json::Num((wall_ms * 100.0).round() / 100.0)),
                ("headers", strings(&table.headers)),
                (
                    "rows",
                    Json::Arr(table.rows.iter().map(|r| strings(r)).collect()),
                ),
            ])
        };
        vec![
            ("scale", Json::str(self.scale)),
            ("tables", Json::Arr(self.tables.iter().map(entry).collect())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale so the table generators can be exercised in the test suite.
    fn tiny() -> Scale {
        Scale {
            charmm: SystemConfig::small(3),
            charmm_steps: 3,
            charmm_update: 2,
            charmm_procs: vec![1, 2, 4],
            dsmc2d_grids: vec![(8, 8)],
            dsmc2d_particles_per_cell: 4,
            dsmc2d_steps: 4,
            dsmc_procs: vec![2, 4],
            dsmc3d_grid: (8, 4, 4),
            dsmc3d_particles: 800,
            dsmc3d_steps: 10,
            dsmc3d_remap_interval: 4,
            compiler_procs: vec![2],
            template_particles: 200,
            template_cells: 32,
            template_steps: 4,
        }
    }

    #[test]
    fn table1_and_2_have_a_column_per_processor_count() {
        let s = tiny();
        let t1 = table1_charmm_scaling(&s);
        assert_eq!(t1.headers.len(), 1 + s.charmm_procs.len());
        assert_eq!(t1.rows.len(), 4);
        let t2 = table2_charmm_preproc(&s);
        assert_eq!(t2.rows.len(), 5);
        assert!(t2.render().contains("Schedule Regeneration"));
    }

    #[test]
    fn table4_lightweight_beats_regular() {
        let s = tiny();
        let t4 = table4_lightweight(&s);
        // Rows come in (regular, lightweight) pairs per grid; compare the largest
        // processor count column.
        let col = t4.headers.len() - 1;
        let regular: f64 = t4.rows[0][col].parse().unwrap();
        let light: f64 = t4.rows[1][col].parse().unwrap();
        assert!(
            light < regular,
            "light-weight schedules should be faster: {light} vs {regular}"
        );
    }

    /// Every numeric cell of a row, as seconds.
    fn cells(row: &[String]) -> Vec<f64> {
        row[1..].iter().filter_map(|c| c.parse().ok()).collect()
    }

    /// The paper's Table 4 claim: light-weight schedules win by a small factor that does
    /// not explode with P — at most 4× here, against a regular schedule rebuilt through
    /// the inspector every step.
    #[test]
    fn table4_regular_is_within_4x_of_lightweight() {
        let t4 = table4_lightweight(&Scale::quick());
        for pair in t4.rows.chunks(2) {
            for (regular, light) in cells(&pair[0]).into_iter().zip(cells(&pair[1])) {
                assert!(
                    regular <= 4.0 * light,
                    "{}: {regular} s against {light} s",
                    pair[0][0]
                );
            }
        }
    }

    /// The paper's Table 6 claim: the compiler-generated loop stays within a small
    /// factor of the hand-coded one — a total at most 1.10× hand's at every P.
    #[test]
    fn table6_compiler_total_is_within_10_percent_of_hand() {
        let t6 = table6_compiler_charmm(&Scale::quick());
        for pair in t6.rows.chunks(2) {
            let (hand, compiler) = (cells(&pair[0]), cells(&pair[1]));
            let (hand, compiler) = (hand.last().unwrap(), compiler.last().unwrap());
            assert!(
                *compiler <= 1.10 * hand,
                "{}: {compiler} s against hand's {hand} s",
                pair[1][0]
            );
        }
    }

    #[test]
    fn table7_manual_is_at_least_as_fast_as_compiled() {
        let s = tiny();
        let t7 = table7_compiler_dsmc(&s);
        let compiled_total: f64 = t7.rows[0][2].parse().unwrap();
        let manual_total: f64 = t7.rows[1][2].parse().unwrap();
        assert!(manual_total <= compiled_total * 1.05);
    }

    #[test]
    fn figure_sources_compile() {
        assert!(fortrand::compile(&figure10_source(20, 40)).is_ok());
        assert!(fortrand::compile(&figure11_source(50, 10)).is_ok());
    }
}
