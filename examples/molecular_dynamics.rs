//! An adaptive molecular-dynamics run (CHARMM-like, §2.1/§4.1 of the paper): RCB
//! partitioning of atoms, merged schedules for the bonded and non-bonded loops, and
//! periodic non-bonded list regeneration with schedule reuse.
//!
//! Run with `cargo run --release --example molecular_dynamics`.

use chaos_suite::charmm::parallel::{ParallelConfig, PartitionerKind, ScheduleMode};
use chaos_suite::charmm::system::{MolecularSystem, SystemConfig};
use chaos_suite::charmm::{ParallelCharmm, SequentialCharmm};
use chaos_suite::mpsim::{run, MachineConfig};

fn main() {
    let nprocs = 8;
    let nsteps = 10;
    let update_every = 5;
    let sys_cfg = SystemConfig {
        protein_atoms: 400,
        water_molecules: 500,
        box_size: 24.0,
        cutoff: 6.0,
        seed: 42,
    };
    println!(
        "CHARMM-like adaptive MD: {} atoms, {nsteps} steps, non-bonded list regenerated every {update_every} steps, {nprocs} simulated processors",
        sys_cfg.total_atoms()
    );

    let config = ParallelConfig {
        nsteps,
        list_update_interval: update_every,
        partitioner: PartitionerKind::Rcb,
        schedule_mode: ScheduleMode::Merged,
        repartition_interval: None,
        adapt_policy: None,
    };
    let cfg = sys_cfg.clone();
    let outcome = run(MachineConfig::new(nprocs), move |rank| {
        let system = MolecularSystem::build(&cfg);
        ParallelCharmm::run(rank, &system, &config)
    });

    // Sequential reference for a correctness spot check.
    let mut reference = SequentialCharmm::new(MolecularSystem::build(&sys_cfg), update_every);
    reference.run(nsteps);
    let mut max_dev = 0.0f64;
    for stats in &outcome.results {
        for &(g, p) in &stats.owned_positions {
            for (k, pk) in p.iter().enumerate() {
                max_dev = max_dev.max((pk - reference.system.positions[g][k]).abs());
            }
        }
    }

    println!("  per-rank phase breakdown (modeled milliseconds):");
    println!(
        "  {:>4} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "rank", "partition", "list update", "sched gen", "sched regen", "executor"
    );
    for (r, stats) in outcome.results.iter().enumerate() {
        let ph = &stats.phases;
        println!(
            "  {:>4} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            r,
            ph.data_partition.total_us() / 1e3,
            ph.list_update.total_us() / 1e3,
            ph.schedule_generation.total_us() / 1e3,
            ph.schedule_regeneration.total_us() / 1e3,
            ph.executor.total_us() / 1e3,
        );
    }
    let exec_times: Vec<f64> = outcome
        .results
        .iter()
        .map(|s| s.phases.executor.compute_us)
        .collect();
    println!(
        "  load balance index: {:.3}",
        chaos_suite::chaos::load_balance_index(&exec_times)
    );
    println!("  max deviation from the sequential trajectory: {max_dev:.3e}");
    assert!(max_dev < 1e-6);
    println!("  OK");
}
