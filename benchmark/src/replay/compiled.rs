//! The compiled-program driver: the fortrand pipeline stage by stage and the
//! interpreter, with a span around each.  `compiled_charmm`'s wall runs use the same
//! functions with `NoTrace`.

use super::LoopTotals;
use crate::surface::*;
use crate::trace::Tracer;
use crate::workloads::CompiledInput;

pub struct Compiled {
    pub program: LoweredProgram,
    /// `ExecStep`s of the optimized program, nested bodies included.
    pub ir_steps: usize,
    /// Transformations the optimizer applied.
    pub opt_applied: usize,
}

fn count_steps(steps: &[ExecStep]) -> usize {
    steps
        .iter()
        .map(|step| {
            1 + match step {
                ExecStep::If {
                    then_steps,
                    else_steps,
                    ..
                } => count_steps(then_steps) + count_steps(else_steps),
                ExecStep::TimeLoop { body, .. } => count_steps(body),
                ExecStep::FusedLoop { overlapped, .. } => count_steps(overlapped),
                _ => 0,
            }
        })
        .sum()
}

/// tokenize → parse → lower → optimize → static collective-matching check.  A finding
/// of the check is an error: the program would not be safe to run SPMD.
pub fn compile<T: Tracer>(source: &str, tr: &mut T) -> Result<Compiled, String> {
    let ast = tr.span("fortrand.parse", || -> Result<_, String> {
        Ok(parse(&tokenize(source)?)?)
    })?;
    let lowered = tr.span("fortrand.lower", || lower(&ast))?;
    let (program, report): (LoweredProgram, OptReport) =
        tr.span("fortrand.opt", || optimize(&lowered));
    let findings = tr.span("fortrand.check", || analyze(&op_tree(&program)));
    if let Some(finding) = findings.first() {
        return Err(format!("collective-matching check: {}", finding.message));
    }
    Ok(Compiled {
        ir_steps: count_steps(&program.steps),
        opt_applied: report.applied().count(),
        program,
    })
}

/// What one rank's execution returns.  `forces` is the global `DX`, `DY`, `DZ` (the
/// same on every rank).
pub struct Executed {
    pub forces: [Vec<f64>; 3],
    pub remap: TimeSnapshot,
    pub totals: LoopTotals,
    pub schedule_rebuilds: u64,
}

pub fn execute<T: Tracer>(
    rank: &mut Rank,
    program: &LoweredProgram,
    input: &CompiledInput,
    tr: &mut T,
) -> Executed {
    let root = tr.enter("run");
    let natoms = input.system.natoms();
    let mut exec = tr.span("fortrand.setup", || {
        let mut exec = Executor::new(rank, program);
        exec.set_integer_array("INBLO", &input.inblo);
        exec.set_integer_array("JNB", &input.jnb);
        for (k, name) in ["X", "Y", "Z"].into_iter().enumerate() {
            let coordinate: Vec<f64> = input.system.positions.iter().map(|p| p[k]).collect();
            exec.set_real_array(name, &coordinate);
        }
        for name in ["DX", "DY", "DZ"] {
            exec.set_real_array(name, &vec![0.0; natoms]);
        }
        exec
    });
    tr.span("fortrand.interp", || exec.run_all(rank));
    let forces = tr.span("mpsim.collective", || {
        ["DX", "DY", "DZ"].map(|name| exec.get_real_array(rank, name))
    });
    let phases = exec.phases();
    let exchange = exec.exchange_stats();
    tr.exit(root);
    Executed {
        forces,
        remap: phases.remap,
        totals: LoopTotals {
            inspector: phases.inspector,
            executor: phases.executor,
            executor_msgs: exchange.msgs_sent,
            executor_bytes: exchange.bytes_sent,
            cache: exec.group_cache_stats(0),
        },
        schedule_rebuilds: exec.group_stats(0).0,
    }
}

/// `DX`, `DY`, `DZ` from a plain loop over the same CSR list: what the program means.
pub fn plain_loop_reference(input: &CompiledInput) -> [Vec<f64>; 3] {
    let natoms = input.system.natoms();
    [0, 1, 2].map(|k| {
        let mut d = vec![0.0; natoms];
        for _ in 0..input.nsteps {
            for i in 0..natoms {
                let xi = input.system.positions[i][k];
                for &j in
                    &input.jnb[(input.inblo[i] - 1) as usize..(input.inblo[i + 1] - 1) as usize]
                {
                    let j = (j - 1) as usize;
                    let xj = input.system.positions[j][k];
                    d[j] += xj - xi;
                    d[i] += xi - xj;
                }
            }
        }
        d
    })
}
