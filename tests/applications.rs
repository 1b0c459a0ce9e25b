//! Application-level integration tests: the CHARMM and DSMC mini-applications and the
//! Fortran-D executor, cross-checked against their sequential references and against each
//! other across machine sizes.

use chaos_suite::charmm::parallel::{ParallelConfig, PartitionerKind, ScheduleMode};
use chaos_suite::charmm::system::{MolecularSystem, SystemConfig};
use chaos_suite::charmm::{ParallelCharmm, SequentialCharmm};
use chaos_suite::dsmc::{
    parallel::run_parallel as dsmc_parallel, seed_particles, CellGrid, DsmcConfig, FlowConfig,
    MoveMode, RemapStrategy, SequentialDsmc,
};
use chaos_suite::fortrand::{compile, Executor};
use chaos_suite::mpsim::{run, MachineConfig};

#[test]
fn charmm_trajectory_is_independent_of_the_machine_size() {
    let sys_cfg = SystemConfig::small(77);
    let natoms = sys_cfg.total_atoms();
    let nsteps = 6;
    let update = 3;

    let mut reference = SequentialCharmm::new(MolecularSystem::build(&sys_cfg), update);
    reference.run(nsteps);

    for &nprocs in &[1usize, 2, 5, 8] {
        let cfg = sys_cfg.clone();
        let config = ParallelConfig {
            nsteps,
            list_update_interval: update,
            partitioner: PartitionerKind::Rcb,
            schedule_mode: ScheduleMode::Merged,
            repartition_interval: None,
            adapt_policy: None,
        };
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let system = MolecularSystem::build(&cfg);
            ParallelCharmm::run(rank, &system, &config).owned_positions
        });
        let mut covered = vec![false; natoms];
        for per_rank in &out.results {
            for &(g, p) in per_rank {
                assert!(!covered[g], "atom {g} owned twice at nprocs={nprocs}");
                covered[g] = true;
                for (k, pk) in p.iter().enumerate() {
                    let dev = (pk - reference.system.positions[g][k]).abs();
                    assert!(dev < 1e-6, "nprocs={nprocs}, atom {g}: deviation {dev}");
                }
            }
        }
        assert!(
            covered.into_iter().all(|c| c),
            "some atom unowned at nprocs={nprocs}"
        );
    }
}

#[test]
fn dsmc_simulation_is_identical_across_move_modes_and_machine_sizes() {
    let grid = CellGrid::new_2d(10, 6);
    let flow = FlowConfig::directional(31);
    let nparticles = 700;
    let nsteps = 10;

    let particles = seed_particles(&grid, nparticles, &flow);
    let mut reference = SequentialDsmc::new(grid, particles, 0.4, 31);
    reference.run(nsteps);
    let mut expected = reference.fingerprint();
    expected.sort_unstable();

    for &nprocs in &[1usize, 2, 4, 6] {
        let regular = MoveMode::Patched {
            rebuild_every_step: true,
        };
        for mode in [MoveMode::Lightweight, regular] {
            let config = DsmcConfig {
                nsteps,
                dt: 0.4,
                move_mode: mode,
                remap: RemapStrategy::Chain,
                remap_interval: 4,
                policy: None,
                monitor_group: None,
                seed: 31,
            };
            let out = run(MachineConfig::new(nprocs), move |rank| {
                let particles = seed_particles(&grid, nparticles, &flow);
                dsmc_parallel(rank, &grid, &particles, &config)
            });
            let mut merged: Vec<(usize, Vec<u64>)> = out
                .results
                .iter()
                .flat_map(|s| s.fingerprint.clone())
                .collect();
            merged.sort_unstable();
            assert_eq!(
                merged, expected,
                "nprocs={nprocs}, mode={mode:?}: parallel DSMC diverged from sequential"
            );
        }
    }
}

#[test]
fn compiled_figure10_template_matches_the_hand_written_kernel_numerically() {
    // The Table 6 fairness check: the compiler-generated (interpreted) Fortran-D loop and
    // a hand-written CHAOS kernel compute identical dx/dy displacement sums.
    let cfg = SystemConfig {
        protein_atoms: 40,
        water_molecules: 40,
        box_size: 12.0,
        cutoff: 4.0,
        seed: 5,
    };
    let system = MolecularSystem::build(&cfg);
    let natoms = system.natoms();
    let list = chaos_suite::charmm::nonbonded::build_neighbor_list(
        &system.positions,
        system.box_size,
        system.cutoff,
    );
    let inblo: Vec<i64> = list.offsets.iter().map(|&o| o as i64 + 1).collect();
    let jnb: Vec<i64> = list.partners.iter().map(|&p| p as i64 + 1).collect();

    // Sequential reference of the Figure 10 body.
    let x0: Vec<f64> = system.positions.iter().map(|p| p[0]).collect();
    let y0: Vec<f64> = system.positions.iter().map(|p| p[1]).collect();
    let mut dx_ref = vec![0.0f64; natoms];
    let mut dy_ref = vec![0.0f64; natoms];
    for i in 0..natoms {
        for j in (inblo[i] - 1)..(inblo[i + 1] - 1) {
            let p = (jnb[j as usize] - 1) as usize;
            dx_ref[p] += x0[p] - x0[i];
            dy_ref[p] += y0[p] - y0[i];
            dx_ref[i] += x0[i] - x0[p];
            dy_ref[i] += y0[i] - y0[p];
        }
    }

    let source = chaos_bench_source(natoms, jnb.len());
    let out = run(MachineConfig::new(4), move |rank| {
        let (lowered, _) = compile(&source).unwrap();
        let mut exec = Executor::new(rank, &lowered);
        exec.set_integer_array("INBLO", &inblo);
        exec.set_integer_array("JNB", &jnb);
        exec.set_integer_array(
            "MAP",
            &(0..natoms).map(|g| (g % 4) as i64).collect::<Vec<_>>(),
        );
        exec.set_real_array(
            "X",
            &system.positions.iter().map(|p| p[0]).collect::<Vec<_>>(),
        );
        exec.set_real_array(
            "Y",
            &system.positions.iter().map(|p| p[1]).collect::<Vec<_>>(),
        );
        exec.set_real_array("DX", &vec![0.0; natoms]);
        exec.set_real_array("DY", &vec![0.0; natoms]);
        exec.run_all(rank);
        (
            exec.get_real_array(rank, "DX"),
            exec.get_real_array(rank, "DY"),
        )
    });
    for (dx, dy) in &out.results {
        for g in 0..natoms {
            assert!((dx[g] - dx_ref[g]).abs() < 1e-9, "dx[{g}]");
            assert!((dy[g] - dy_ref[g]).abs() < 1e-9, "dy[{g}]");
        }
    }
}

/// The Figure 10 Fortran-D template used by the test above (kept in sync with the one the
/// benchmark harness generates).
fn chaos_bench_source(natoms: usize, list_len: usize) -> String {
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
