//! End-to-end tests of the compiler loop: the optimizer's rewrites (schedule hoisting,
//! exchange fusion, split-phase overlap) must change the communication *shape* of a
//! program without changing its *results* — and the shape changes must be the pinned
//! ones (one hoisted build, one fused gather and one fused scatter-add per step).
//!
//! Float results are compared bit-for-bit.  The fused scatter pre-combines
//! contributions per ghost slot before the wire, which reorders floating-point
//! additions relative to the unoptimized per-array scatters, so the test data is
//! integer-valued — every intermediate is exactly representable and any real
//! divergence shows up as a bit difference.

mod common;

use fortrand::Executor;
use mpsim::{run, MachineConfig};

/// A CHARMM-style two-coordinate non-bonded sweep inside a time loop, with a ring
/// neighbour structure (atom `i` interacts with `i+1` and `i+2`, wrapping) so every
/// rank boundary carries traffic at any processor count that divides `n`.
fn charmm_style_source(n: usize, nsteps: usize) -> String {
    format!(
        "REAL x({n}), y({n}), dx({n}), dy({n})\n\
         INTEGER inblo({m}), jnb({k}), iage({n})\n\
         C$ DECOMPOSITION reg({n})\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, y, dx, dy WITH reg\n\
         DO istep = 1, {nsteps}\n\
         FORALL i = 1, {n}\n\
         FORALL j = inblo(i), inblo(i+1) - 1\n\
         REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))\n\
         REDUCE(SUM, dx(i), x(i) - x(jnb(j)))\n\
         END FORALL\n\
         END FORALL\n\
         FORALL i = 1, {n}\n\
         FORALL j = inblo(i), inblo(i+1) - 1\n\
         REDUCE(SUM, dy(jnb(j)), y(jnb(j)) - y(i))\n\
         REDUCE(SUM, dy(i), y(i) - y(jnb(j)))\n\
         END FORALL\n\
         END FORALL\n\
         FORALL i = 1, {n}\n\
         iage(i) = iage(i) + 1\n\
         END FORALL\n\
         END DO\n",
        m = n + 1,
        k = 2 * n
    )
}

/// Ring neighbour list for `charmm_style_source`, in 1-based CSR form.
fn ring_csr(n: usize) -> (Vec<i64>, Vec<i64>) {
    let mut inblo = Vec::with_capacity(n + 1);
    let mut jnb = Vec::with_capacity(2 * n);
    for i in 0..n {
        inblo.push(jnb.len() as i64 + 1);
        jnb.push(((i + 1) % n) as i64 + 1);
        jnb.push(((i + 2) % n) as i64 + 1);
    }
    inblo.push(jnb.len() as i64 + 1);
    (inblo, jnb)
}

/// Run `source` (optimized or not) on `procs` ranks and return the bit patterns of the
/// accumulator arrays plus rank 0's exchange-stats tuple.
fn run_charmm_style(
    source: &str,
    n: usize,
    optimize: bool,
    procs: usize,
) -> (Vec<u64>, (u64, u64)) {
    let source = source.to_string();
    let out = run(MachineConfig::new(procs), move |rank| {
        let program = common::program(&source, optimize);
        let mut exec = Executor::new(rank, &program);
        let (inblo, jnb) = ring_csr(n);
        exec.set_integer_array("INBLO", &inblo);
        exec.set_integer_array("JNB", &jnb);
        // Integer-valued coordinates: all arithmetic stays exact.
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 13) % 31) as f64).collect();
        exec.set_real_array("X", &x);
        exec.set_real_array("Y", &y);
        exec.set_real_array("DX", &vec![0.0; n]);
        exec.set_real_array("DY", &vec![0.0; n]);
        exec.run_all(rank);
        let mut bits: Vec<u64> = Vec::new();
        for name in ["DX", "DY"] {
            bits.extend(exec.get_real_array(rank, name).iter().map(|v| v.to_bits()));
        }
        let stats = exec.exchange_stats();
        (bits, (stats.msgs_sent, stats.bytes_sent))
    });
    let (bits, stats) = out.results[0].clone();
    for (r, (other, _)) in out.results.iter().enumerate() {
        assert_eq!(*other, bits, "rank {r} disagrees with rank 0");
    }
    (bits, stats)
}

#[test]
fn optimized_results_bit_identical_to_unoptimized_at_all_proc_counts() {
    let n = 48;
    let source = charmm_style_source(n, 4);
    for procs in [1usize, 2, 8] {
        let (plain, _) = run_charmm_style(&source, n, false, procs);
        let (opt, _) = run_charmm_style(&source, n, true, procs);
        assert_eq!(
            plain, opt,
            "results diverge under optimization at P = {procs}"
        );
        assert!(
            plain.iter().any(|&b| b != 0),
            "degenerate test: accumulators stayed zero"
        );
    }
}

#[test]
fn optimization_changes_traffic_shape_but_not_results() {
    let n = 48;
    let source = charmm_style_source(n, 4);
    let (_, (plain_msgs, _)) = run_charmm_style(&source, n, false, 4);
    let (_, (opt_msgs, opt_bytes)) = run_charmm_style(&source, n, true, 4);
    // Fusion merges the DX and DY exchanges into one schedule's multi-array
    // gather/scatter: strictly fewer messages, and some traffic at all.
    assert!(opt_msgs > 0 && opt_bytes > 0);
    assert!(
        opt_msgs < plain_msgs,
        "fusion should cut messages: optimized {opt_msgs} vs plain {plain_msgs}"
    );
}

#[test]
fn hoisted_build_runs_once_and_message_counts_are_pinned() {
    let n = 48;
    let nsteps = 5;
    let source = charmm_style_source(n, nsteps);
    let out = run(MachineConfig::new(4), move |rank| {
        let (program, report) = fortrand::compile(&source).expect("compiles");
        assert!(report.has_applied("hoist", ""));
        assert!(report.has_applied("fuse", ""));
        let mut exec = Executor::new(rank, &program);
        let (inblo, jnb) = ring_csr(n);
        exec.set_integer_array("INBLO", &inblo);
        exec.set_integer_array("JNB", &jnb);
        for a in ["X", "Y", "DX", "DY"] {
            exec.set_real_array(a, &vec![1.0; n]);
        }
        exec.run_all(rank);
        let (send, recv) = exec.group_message_counts(0);
        (
            exec.group_stats(0),
            exec.exchange_stats().msgs_sent,
            send + recv,
        )
    });
    for (rank, &((rebuilds, patches, _reuses), msgs_sent, per_step)) in
        out.results.iter().enumerate()
    {
        // The inspector was hoisted out of the time loop: exactly one build for the
        // whole run, nothing to patch.
        assert_eq!(
            (rebuilds, patches),
            (1, 0),
            "rank {rank}: schedule built more than once"
        );
        // One fused gather (one message per destination) and one fused scatter-add
        // (one per source) per step — and nothing else on the wire.
        assert_eq!(
            msgs_sent,
            (nsteps * per_step) as u64,
            "rank {rank}: executor traffic is not one fused exchange per step"
        );
        assert!(
            per_step > 0,
            "rank {rank}: no cross-rank traffic in the fixture"
        );
    }
}

#[test]
fn blocked_hoist_falls_back_to_guarded_rebuilds() {
    // The indirection array drifts every step, so the build must stay inside the
    // time loop and actually re-run each time it goes stale.
    let n = 32;
    let nsteps = 5;
    let source = format!(
        "REAL x({n}), f({n})\n\
         INTEGER ia({n})\n\
         C$ DECOMPOSITION reg({n})\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, f WITH reg\n\
         DO istep = 1, {nsteps}\n\
         FORALL i = 1, {n}\n\
         REDUCE(SUM, f(ia(i)), x(i))\n\
         END FORALL\n\
         FORALL i = 1, {n}\n\
         ia(i) = ia(i) - (ia(i) / {n}) * {n} + 1\n\
         END FORALL\n\
         END DO\n"
    );
    let out = run(MachineConfig::new(2), move |rank| {
        let (program, report) = fortrand::compile(&source).expect("compiles");
        assert!(report.has_blocked("hoist", "IA"));
        let mut exec = Executor::new(rank, &program);
        exec.set_integer_array(
            "IA",
            &(0..n).map(|i| (i as i64 % 8) + 1).collect::<Vec<_>>(),
        );
        exec.set_real_array("X", &vec![2.0; n]);
        exec.set_real_array("F", &vec![0.0; n]);
        exec.run_all(rank);
        exec.group_stats(0)
    });
    for (rank, &stats) in out.results.iter().enumerate() {
        // One member, dirty every step: nothing of the old table survives, so every
        // guard rebuilds from scratch — no patch, nothing reused as-is.
        assert_eq!(
            stats,
            (nsteps as u64, 0, 0),
            "rank {rank}: (rebuilds, patches, reuses)"
        );
    }
}
