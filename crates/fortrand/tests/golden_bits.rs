//! Golden result bits of the fortrand executor.
//!
//! The fingerprints below were recorded from the tree-walking evaluator this crate
//! shipped through PR 11 (commit c36a4d4), before the executor was rewritten to run
//! slot-indexed code over inspector-localized subscript streams.  The rewrite must
//! perform the same `f64` operations in the same order, so every fingerprint —
//! FNV-1a over `f64::to_bits` of the result arrays — must repeat exactly, optimized
//! and unoptimized, at P ∈ {1, 2, 3}.
//!
//! At P ≤ 2 the inputs are fractional (any reordering of additions shows up as a bit
//! difference; with at most one remote contributor the arrival order is fixed).  At
//! P = 3 a scatter-add combines contributions from two peers in arrival order, so the
//! sum loops run on integer-valued inputs, where every intermediate is exact — the
//! same device `inspector_drift` and `compiler_loop.rs` use.
//!
//! A second table pins three fixtures of the lane-wise sweep (`tests/fixtures/sweep_*.f`:
//! CSR rows longer than one chunk, exactly one chunk and zero-trip; the inner loop
//! variable used as a real; an integer load that keeps a loop scalar), recorded from the
//! scalar executor before innermost loops were swept, under the same input rule.

mod common;

use fortrand::Executor;
use mpsim::{run, MachineConfig};

const NONBONDED: &str = include_str!("../../../examples/fortrand/nonbonded.f");
const DSMC_APPEND: &str = include_str!("../../../examples/fortrand/dsmc_append.f");
const HOIST_BLOCKED: &str = include_str!("../../../examples/fortrand/blocked/hoist_blocked.f");
const SWEEP_ROWS: &str = include_str!("fixtures/sweep_rows.f");
const SWEEP_REAL_VAR: &str = include_str!("fixtures/sweep_real_var.f");
const SWEEP_INT_VALUE: &str = include_str!("fixtures/sweep_int_value.f");

/// The Figure 1 loop of `interp.rs`'s unit tests.
const FIGURE1: &str = "REAL x(48), y(48)\n\
     INTEGER ia(48), ib(48)\n\
     C$ DECOMPOSITION reg(48)\n\
     C$ DISTRIBUTE reg(BLOCK)\n\
     C$ ALIGN x, y WITH reg\n\
     FORALL i = 1, 48\n\
     REDUCE(SUM, x(ia(i)), y(ib(i)))\n\
     END FORALL\n";

/// The Figure 10 pattern of `interp.rs`'s unit tests (irregular `DISTRIBUTE(map)`).
const FIGURE10: &str = "REAL x(30), dx(30)\n\
     INTEGER map(30), inblo(31), jnb(60)\n\
     C$ DECOMPOSITION reg(30)\n\
     C$ DISTRIBUTE reg(BLOCK)\n\
     C$ ALIGN x, dx WITH reg\n\
     C$ DISTRIBUTE reg(map)\n\
     FORALL i = 1, 30\n\
     FORALL j = inblo(i), inblo(i+1) - 1\n\
     REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))\n\
     REDUCE(SUM, dx(i), x(i) - x(jnb(j)))\n\
     END FORALL\n\
     END FORALL\n";

/// The Figure 11 pattern of `interp.rs`'s unit tests (`REDUCE(APPEND)`).
const FIGURE11: &str = "REAL vel(60), newvel(12)\n\
     INTEGER icell(60)\n\
     C$ DECOMPOSITION parts(60)\n\
     C$ DECOMPOSITION cells(12)\n\
     C$ DISTRIBUTE parts(BLOCK)\n\
     C$ DISTRIBUTE cells(BLOCK)\n\
     C$ ALIGN vel WITH parts\n\
     C$ ALIGN newvel WITH cells\n\
     FORALL i = 1, 60\n\
     REDUCE(APPEND, newvel(icell(i)), vel(i))\n\
     END FORALL\n";

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Input values: integer-valued when `exact`, otherwise with a fractional part that
/// makes every addition round.
fn values(n: usize, salt: usize, exact: bool) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let base = ((i * 7 + salt) % 23) as f64;
            if exact {
                base
            } else {
                base + ((i + salt) as f64 * 0.37).sin() / 3.0
            }
        })
        .collect()
}

/// Two neighbours per atom (`i+1`, `i+5`, wrapping) in 1-based CSR form.
fn csr(n: usize) -> (Vec<i64>, Vec<i64>) {
    let mut inblo = vec![1i64];
    let mut jnb = Vec::with_capacity(2 * n);
    for i in 0..n {
        jnb.push(((i + 1) % n) as i64 + 1);
        jnb.push(((i + 5) % n) as i64 + 1);
        inblo.push(jnb.len() as i64 + 1);
    }
    (inblo, jnb)
}

fn map_array(n: usize, procs: usize) -> Vec<i64> {
    (0..n).map(|g| ((g * 5 + g / 7) % procs) as i64).collect()
}

/// Set up and run one program on one rank; returns the result words to fingerprint.
type Driver = fn(&mut mpsim::Rank, &mut Executor<'_>, usize, bool) -> Vec<u64>;

fn real_bits(rank: &mut mpsim::Rank, exec: &mut Executor<'_>, names: &[&str]) -> Vec<u64> {
    let mut bits = Vec::new();
    for name in names {
        bits.extend(exec.get_real_array(rank, name).iter().map(|v| v.to_bits()));
    }
    bits
}

/// Bucket contents as a rank-order-independent word list: global sizes, then this
/// rank's `(cell, sorted value bits)`; the caller concatenates ranks in rank order.
fn bucket_bits(rank: &mut mpsim::Rank, exec: &mut Executor<'_>, name: &str) -> Vec<u64> {
    let mut bits: Vec<u64> = exec
        .bucket_sizes(rank, name)
        .iter()
        .map(|&s| s as u64)
        .collect();
    for (cell, vals) in exec.local_buckets(name) {
        let mut vals: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        vals.sort_unstable();
        bits.push(cell as u64);
        bits.extend(vals);
    }
    bits
}

fn drive_nonbonded(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    procs: usize,
    exact: bool,
) -> Vec<u64> {
    let n = 64;
    let (inblo, jnb) = csr(n);
    exec.set_integer_array("MAP", &map_array(n, procs));
    exec.set_integer_array("INBLO", &inblo);
    exec.set_integer_array("JNB", &jnb);
    for (salt, name) in ["X", "Y", "Z"].into_iter().enumerate() {
        exec.set_real_array(name, &values(n, salt * 3 + 1, exact));
    }
    for name in ["DX", "DY", "DZ"] {
        exec.set_real_array(name, &vec![0.0; n]);
    }
    exec.run_all(rank);
    real_bits(rank, exec, &["DX", "DY", "DZ"])
}

fn drive_dsmc_append(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    _procs: usize,
    exact: bool,
) -> Vec<u64> {
    let icell: Vec<i64> = (0..128).map(|i| ((i * 5) % 32 + 1) as i64).collect();
    exec.set_integer_array("ICELL", &icell);
    exec.set_real_array("VEL", &values(128, 2, exact));
    exec.run_all(rank);
    bucket_bits(rank, exec, "NEWVEL")
}

fn drive_hoist_blocked(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    _procs: usize,
    exact: bool,
) -> Vec<u64> {
    let ia: Vec<i64> = (0..32).map(|i| (i % 8) + 1).collect();
    exec.set_integer_array("IA", &ia);
    exec.set_real_array("X", &values(32, 4, exact));
    exec.set_real_array("F", &vec![0.0; 32]);
    exec.run_all(rank);
    real_bits(rank, exec, &["F"])
}

fn drive_figure1(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    _procs: usize,
    exact: bool,
) -> Vec<u64> {
    let n = 48usize;
    let ia: Vec<i64> = (0..n).map(|i| ((i * 7) % n + 1) as i64).collect();
    let ib: Vec<i64> = (0..n).map(|i| ((i * 13 + 5) % n + 1) as i64).collect();
    exec.set_integer_array("IA", &ia);
    exec.set_integer_array("IB", &ib);
    exec.set_real_array("X", &values(n, 5, exact));
    exec.set_real_array("Y", &values(n, 6, exact));
    exec.run_all(rank);
    real_bits(rank, exec, &["X"])
}

fn drive_figure10(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    procs: usize,
    exact: bool,
) -> Vec<u64> {
    let n = 30;
    let (inblo, jnb) = csr(n);
    exec.set_integer_array("MAP", &map_array(n, procs));
    exec.set_integer_array("INBLO", &inblo);
    exec.set_integer_array("JNB", &jnb);
    exec.set_real_array("X", &values(n, 7, exact));
    exec.set_real_array("DX", &vec![0.0; n]);
    exec.run_all(rank);
    real_bits(rank, exec, &["DX"])
}

fn drive_figure11(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    _procs: usize,
    exact: bool,
) -> Vec<u64> {
    let icell: Vec<i64> = (0..60).map(|i| ((i * 5) % 12 + 1) as i64).collect();
    exec.set_integer_array("ICELL", &icell);
    exec.set_real_array("VEL", &values(60, 8, exact));
    exec.run_all(rank);
    bucket_bits(rank, exec, "NEWVEL")
}

/// Row lengths of the sweep fixtures' CSR lists: longer than one 256-iteration chunk,
/// exactly one chunk, one short of it, short and zero-trip rows (2099 pairs in all).
const SWEEP_ROW_LENGTHS: [usize; 12] = [300, 256, 0, 1, 257, 0, 255, 3, 512, 0, 2, 513];

/// The sweep fixtures' CSR list: partner of pair `k` (0-based) is `(7k + k/3) mod 12`,
/// so rows revisit partners and include the atom itself.
fn sweep_csr() -> (Vec<i64>, Vec<i64>) {
    let mut inblo = vec![1i64];
    for len in SWEEP_ROW_LENGTHS {
        inblo.push(inblo.last().unwrap() + len as i64);
    }
    let pairs = *inblo.last().unwrap() as usize - 1;
    let jnb = (0..pairs)
        .map(|k| ((k * 7 + k / 3) % 12) as i64 + 1)
        .collect();
    (inblo, jnb)
}

/// Set up one sweep fixture: map, CSR list, every real array from `values`, the
/// reduction target zeroed.
fn sweep_setup(exec: &mut Executor<'_>, procs: usize, exact: bool, reals: &[&str], target: &str) {
    let (inblo, jnb) = sweep_csr();
    exec.set_integer_array("MAP", &map_array(12, procs));
    exec.set_integer_array("INBLO", &inblo);
    exec.set_integer_array("JNB", &jnb);
    for (salt, name) in reals.iter().enumerate() {
        exec.set_real_array(name, &values(12, salt * 5 + 2, exact));
    }
    exec.set_real_array(target, &[0.0; 12]);
}

fn drive_sweep_rows(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    procs: usize,
    exact: bool,
) -> Vec<u64> {
    sweep_setup(exec, procs, exact, &["X"], "DX");
    exec.run_all(rank);
    real_bits(rank, exec, &["DX"])
}

fn drive_sweep_real_var(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    procs: usize,
    exact: bool,
) -> Vec<u64> {
    sweep_setup(exec, procs, exact, &["X", "F"], "DY");
    exec.run_all(rank);
    real_bits(rank, exec, &["F", "DY"])
}

fn drive_sweep_int_value(
    rank: &mut mpsim::Rank,
    exec: &mut Executor<'_>,
    procs: usize,
    exact: bool,
) -> Vec<u64> {
    sweep_setup(exec, procs, exact, &["X"], "DZ");
    let w: Vec<i64> = (0..2099).map(|k| (k % 9) - 4).collect();
    exec.set_integer_array("W", &w);
    exec.run_all(rank);
    real_bits(rank, exec, &["DZ"])
}

const PROGRAMS: [(&str, &str, Driver); 6] = [
    ("nonbonded.f", NONBONDED, drive_nonbonded),
    ("dsmc_append.f", DSMC_APPEND, drive_dsmc_append),
    ("hoist_blocked.f", HOIST_BLOCKED, drive_hoist_blocked),
    ("figure1", FIGURE1, drive_figure1),
    ("figure10", FIGURE10, drive_figure10),
    ("figure11", FIGURE11, drive_figure11),
];

fn fingerprint_of(source: &'static str, driver: Driver, procs: usize, optimize: bool) -> u64 {
    let out = run(MachineConfig::new(procs), move |rank| {
        let program = common::program(source, optimize);
        let mut exec = Executor::new(rank, &program);
        driver(rank, &mut exec, procs, procs > 2)
    });
    fnv1a(out.results.into_iter().flatten())
}

/// `(program, P, optimized, fingerprint)` recorded from the PR-11 tree-walker.
const GOLDEN: &[(&str, usize, bool, u64)] = &[
    ("nonbonded.f", 1, false, 0x60807dc73d181134),
    ("nonbonded.f", 1, true, 0x60807dc73d181134),
    ("nonbonded.f", 2, false, 0xa3dc702ff80bd211),
    ("nonbonded.f", 2, true, 0xa3dc702ff80bd211),
    ("nonbonded.f", 3, false, 0xaee0f1f0829593a4),
    ("nonbonded.f", 3, true, 0xaee0f1f0829593a4),
    ("dsmc_append.f", 1, false, 0xa11774b4f3421cc1),
    ("dsmc_append.f", 1, true, 0xa11774b4f3421cc1),
    ("dsmc_append.f", 2, false, 0x8f78e22e0faa5cc1),
    ("dsmc_append.f", 2, true, 0x8f78e22e0faa5cc1),
    ("dsmc_append.f", 3, false, 0x101053d992270545),
    ("dsmc_append.f", 3, true, 0x101053d992270545),
    ("hoist_blocked.f", 1, false, 0x36958e73553f40f3),
    ("hoist_blocked.f", 1, true, 0x36958e73553f40f3),
    ("hoist_blocked.f", 2, false, 0x462907262a054365),
    ("hoist_blocked.f", 2, true, 0x462907262a054365),
    ("hoist_blocked.f", 3, false, 0xb41614064b80816e),
    ("hoist_blocked.f", 3, true, 0xb41614064b80816e),
    ("figure1", 1, false, 0xc147e84c9d84f976),
    ("figure1", 1, true, 0xc147e84c9d84f976),
    ("figure1", 2, false, 0x68ef843af914bb0d),
    ("figure1", 2, true, 0x68ef843af914bb0d),
    ("figure1", 3, false, 0x55cf334a180ee1ac),
    ("figure1", 3, true, 0x55cf334a180ee1ac),
    ("figure10", 1, false, 0xabd09cdd50da5ba2),
    ("figure10", 1, true, 0xabd09cdd50da5ba2),
    ("figure10", 2, false, 0xc0e540e6aa00527d),
    ("figure10", 2, true, 0xc0e540e6aa00527d),
    ("figure10", 3, false, 0x1c185c9cc6b5002b),
    ("figure10", 3, true, 0x1c185c9cc6b5002b),
    ("figure11", 1, false, 0x6e903d8b120e81f6),
    ("figure11", 1, true, 0x6e903d8b120e81f6),
    ("figure11", 2, false, 0xe9474b084895e536),
    ("figure11", 2, true, 0xe9474b084895e536),
    ("figure11", 3, false, 0x83a17a1ab9cf1a79),
    ("figure11", 3, true, 0x83a17a1ab9cf1a79),
];

/// The lane-wise sweep's fixtures: recorded from the scalar executor (every loop run
/// one op per iteration) before innermost loops were swept.
const SWEEP_PROGRAMS: [(&str, &str, Driver); 3] = [
    ("sweep_rows.f", SWEEP_ROWS, drive_sweep_rows),
    ("sweep_real_var.f", SWEEP_REAL_VAR, drive_sweep_real_var),
    ("sweep_int_value.f", SWEEP_INT_VALUE, drive_sweep_int_value),
];

/// `(program, P, optimized, fingerprint)` recorded from the scalar executor.
const SWEEP_GOLDEN: &[(&str, usize, bool, u64)] = &[
    ("sweep_rows.f", 1, false, 0x78bcb451609cf39a),
    ("sweep_rows.f", 1, true, 0x78bcb451609cf39a),
    ("sweep_rows.f", 2, false, 0x551fd4d2e99818d5),
    ("sweep_rows.f", 2, true, 0x551fd4d2e99818d5),
    ("sweep_rows.f", 3, false, 0xcbb1afcd265742b6),
    ("sweep_rows.f", 3, true, 0xcbb1afcd265742b6),
    ("sweep_real_var.f", 1, false, 0x0e84dca4aa921b6e),
    ("sweep_real_var.f", 1, true, 0x0e84dca4aa921b6e),
    ("sweep_real_var.f", 2, false, 0xa6ac551cb2dbc21d),
    ("sweep_real_var.f", 2, true, 0xa6ac551cb2dbc21d),
    ("sweep_real_var.f", 3, false, 0xa689213b8f854168),
    ("sweep_real_var.f", 3, true, 0xa689213b8f854168),
    ("sweep_int_value.f", 1, false, 0xd347182e4ffafdef),
    ("sweep_int_value.f", 1, true, 0xd347182e4ffafdef),
    ("sweep_int_value.f", 2, false, 0x6945ccc7d778d731),
    ("sweep_int_value.f", 2, true, 0x6945ccc7d778d731),
    ("sweep_int_value.f", 3, false, 0x1712fb1aca3da8d9),
    ("sweep_int_value.f", 3, true, 0x1712fb1aca3da8d9),
];

#[test]
fn results_repeat_the_tree_walkers_bits() {
    check(&PROGRAMS, GOLDEN);
}

#[test]
fn sweep_fixtures_repeat_the_scalar_executors_bits() {
    check(&SWEEP_PROGRAMS, SWEEP_GOLDEN);
}

fn check(programs: &[(&'static str, &'static str, Driver)], golden: &[(&str, usize, bool, u64)]) {
    let mut actual = Vec::new();
    for &(name, source, driver) in programs {
        for procs in [1usize, 2, 3] {
            for optimize in [false, true] {
                let fp = fingerprint_of(source, driver, procs, optimize);
                actual.push((name, procs, optimize, fp));
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(n, p, o, fp)| format!("    ({n:?}, {p}, {o}, {fp:#018x}),\n"))
        .collect();
    assert_eq!(actual.as_slice(), golden, "actual fingerprints:\n{listing}");
}
