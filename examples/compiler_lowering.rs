//! Compile-time support (§5 of the paper): compile a Fortran-D program that uses an
//! irregular distribution, a `REDUCE(SUM)` loop and the proposed `REDUCE(APPEND)`
//! intrinsic, then execute the lowered inspector/executor plan on the simulated machine.
//!
//! Run with `cargo run --release --example compiler_lowering`.

use chaos_suite::fortrand::{compile, Executor, LoopKind};
use chaos_suite::mpsim::{run, MachineConfig};

fn main() {
    let nparticles = 600;
    let ncells = 64;
    let source = format!(
        "C Figure 9/11-style particle movement plus the per-cell count loop\n\
         REAL vel({np}), newvel({nc}), load({nc})\n\
         INTEGER icell({np})\n\
         C$ DECOMPOSITION parts({np})\n\
         C$ DECOMPOSITION cells({nc})\n\
         C$ DISTRIBUTE parts(BLOCK)\n\
         C$ DISTRIBUTE cells(BLOCK)\n\
         C$ ALIGN vel WITH parts\n\
         C$ ALIGN newvel, load WITH cells\n\
         FORALL i = 1, {np}\n\
         REDUCE(APPEND, newvel(icell(i)), vel(i))\n\
         END FORALL\n\
         FORALL i = 1, {np}\n\
         REDUCE(SUM, load(icell(i)), 1)\n\
         END FORALL\n",
        np = nparticles,
        nc = ncells
    );

    println!(
        "Fortran-D source ({} lines):\n{}",
        source.lines().count(),
        source
    );
    let (lowered, report) = compile(&source).expect("program compiles");
    println!("Lowered loops:");
    for plan in &lowered.loops {
        let kind = match &plan.kind {
            LoopKind::SumReduction => "inspector/executor reduction".to_string(),
            LoopKind::AppendReduction { target } => {
                format!("light-weight append into {target}")
            }
            LoopKind::IntegerUpdate { modified } => {
                format!("local integer update of {modified:?}")
            }
        };
        println!(
            "  loop #{}: {kind}; gathers {:?}, scatter-adds {:?}, schedule depends on {:?}",
            plan.loop_id, plan.gathered_arrays, plan.sum_targets, plan.indirection_arrays
        );
    }
    print!("Optimizer decisions:\n{}", report.render());

    let nprocs = 4;
    let outcome = run(MachineConfig::new(nprocs), move |rank| {
        let (lowered, _) = compile(&source).expect("program compiles");
        let mut exec = Executor::new(rank, &lowered);
        let icell: Vec<i64> = (0..nparticles)
            .map(|i| ((i * 13) % ncells + 1) as i64)
            .collect();
        exec.set_integer_array("ICELL", &icell);
        exec.set_real_array(
            "VEL",
            &(0..nparticles).map(|i| i as f64).collect::<Vec<_>>(),
        );
        exec.set_real_array("LOAD", &vec![0.0; ncells]);
        exec.run_all(rank);
        let sizes = exec.bucket_sizes(rank, "NEWVEL");
        let load = exec.get_real_array(rank, "LOAD");
        (sizes, load, exec.phases())
    });

    let (sizes, load, phases) = &outcome.results[0];
    let total_appended: usize = sizes.iter().sum();
    let total_load: f64 = load.iter().sum();
    println!("\nExecuted on {nprocs} simulated processors:");
    println!("  molecules appended into cells: {total_appended} (expected {nparticles})");
    println!("  total load accumulated:        {total_load} (expected {nparticles})");
    println!(
        "  modeled time: remap {:.2} ms, inspector {:.2} ms, executor {:.2} ms",
        phases.remap.total_us() / 1e3,
        phases.inspector.total_us() / 1e3,
        phases.executor.total_us() / 1e3
    );
    assert_eq!(total_appended, nparticles);
    assert!((total_load - nparticles as f64).abs() < 1e-9);
    println!("  OK");
}
