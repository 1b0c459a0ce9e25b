//! The executor keeps, per loop, streams of localized subscripts that stay valid until
//! the loop's references are re-hashed.  This sweep drives the invalidation rule through
//! the hardest shape the language has: an `IF` inside a `DO`, one branch of which is an
//! integer update that rewrites the indirection array the reduction loop depends on —
//! so whether the streams of step `k` survive into step `k + 1` is decided at run time.
//! Every case runs optimized and unoptimized at P ∈ {1, 2, 3} under the collective
//! ledger and must equal a plain sequential evaluation exactly (the data is
//! integer-valued, so arrival order cannot blur a stale index into a rounding error).
//!
//! Deterministic sweep in the style of the workspace's `tests/property_based.rs` (no
//! proptest offline); the pointer-level checks — which member was re-localized, which
//! streams were reused — are unit tests in `src/interp.rs`.

mod common;

use fortrand::Executor;
use mpsim::{run, MachineConfig};

fn source(n: usize, nsteps: usize, threshold: i64) -> String {
    format!(
        "REAL x({n}), f({n})\n\
         INTEGER ia({n})\n\
         C$ DECOMPOSITION reg({n})\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, f WITH reg\n\
         DO istep = 1, {nsteps}\n\
         FORALL i = 1, {n}\n\
         REDUCE(SUM, f(ia(i)), x(i))\n\
         END FORALL\n\
         IF (ia(1) .GT. {threshold}) THEN\n\
         FORALL i = 1, {n}\n\
         ia(i) = ia(i) - (ia(i) / {n}) * {n} + 1\n\
         END FORALL\n\
         ELSE\n\
         FORALL i = 1, 1\n\
         ia(i) = ia(i) + 3\n\
         END FORALL\n\
         END IF\n\
         END DO\n"
    )
}

/// What the program means, evaluated sequentially.
fn sequential(n: usize, nsteps: usize, threshold: i64, ia: &[i64], x: &[f64]) -> Vec<f64> {
    let mut ia = ia.to_vec();
    let mut f = vec![0.0; n];
    for _ in 0..nsteps {
        for i in 0..n {
            f[(ia[i] - 1) as usize] += x[i];
        }
        if ia[0] > threshold {
            for v in &mut ia {
                *v = *v - (*v / n as i64) * n as i64 + 1;
            }
        } else {
            ia[0] += 3;
        }
    }
    f
}

#[test]
fn conditional_indirection_updates_never_leave_a_stale_stream() {
    let mut state = 0x5eed_u64;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % bound
    };
    for case in 0..8 {
        let n = 12 + 7 * case;
        let nsteps = 4 + case % 3;
        let threshold = (n / 2) as i64;
        // Subscripts stay within 1..=n-3 so the `+ 3` branch cannot leave the array.
        let ia: Vec<i64> = (0..n).map(|_| next(n - 3) as i64 + 1).collect();
        let x: Vec<f64> = (0..n).map(|_| next(9) as f64).collect();
        let expected = sequential(n, nsteps, threshold, &ia, &x);
        for procs in [1usize, 2, 3] {
            for optimize in [false, true] {
                let (src, ia, x) = (source(n, nsteps, threshold), ia.clone(), x.clone());
                let out = run(MachineConfig::new(procs), move |rank| {
                    let program = common::program(&src, optimize);
                    let mut exec = Executor::new(rank, &program);
                    exec.set_integer_array("IA", &ia);
                    exec.set_real_array("X", &x);
                    exec.set_real_array("F", &vec![0.0; n]);
                    exec.run_all(rank);
                    exec.get_real_array(rank, "F")
                });
                for (r, got) in out.results.iter().enumerate() {
                    assert_eq!(
                        got, &expected,
                        "case {case} (n = {n}), P = {procs}, optimize = {optimize}, rank {r}"
                    );
                }
            }
        }
    }
}
