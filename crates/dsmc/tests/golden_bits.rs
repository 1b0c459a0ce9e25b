//! Golden result bits of the parallel DSMC driver.
//!
//! Each fingerprint is FNV-1a over result words of every rank in rank order.  The table
//! was recorded before the driver's molecules moved from one `Vec` per cell into one
//! array in CSR cell order; that move must make the same `collide_cell` calls, send the
//! same messages and make the same modeled charges in the same order, so every
//! fingerprint repeats exactly.
//!
//! One row was re-recorded since: `(2, LightweightChainThreshold)`, when recording a remap
//! stopped summing the remap's bytes over the machine (a reduction whose result nothing
//! read).  Its remaps, counts and cells are unchanged; its monitor phase lost that
//! reduction's modeled time.  At P = 1 a reduction costs nothing, and the
//! `PatchedRcbInterval` runs record no remap, so the other rows repeat.
//!
//! Only P ∈ {1, 2} is pinned bit for bit: with at most one remote sender the engine
//! charges arrivals in a fixed order.  At P ∈ {3, 5} it charges them in arrival order, so
//! the modeled clock may move in its last bits between runs, and only the order-free
//! words are pinned: collisions, migrations, remaps, the final molecule count, the
//! patched path's wire and cache counters, and the merged cell fingerprint.

use chaos::adapt::RemapPolicy;
use dsmc::parallel::{run_parallel, DsmcConfig, DsmcStats, MoveMode, RemapStrategy};
use dsmc::{seed_particles, CellGrid, FlowConfig};
use mpsim::{run, MachineConfig};

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The two pinned configurations.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `dsmc_move`'s shape: light-weight MOVE, chain remaps fired by a threshold policy.
    LightweightChainThreshold,
    /// The patched MOVE kept current by patching, with bisection remaps at a fixed
    /// interval.
    PatchedRcbInterval,
}

fn config(shape: Shape) -> DsmcConfig {
    match shape {
        Shape::LightweightChainThreshold => DsmcConfig {
            remap: RemapStrategy::Chain,
            policy: Some(RemapPolicy::Threshold {
                lb_index: 1.25,
                hysteresis: 0.05,
                patience: 2,
            }),
            ..DsmcConfig::lightweight(30, 1994)
        },
        Shape::PatchedRcbInterval => DsmcConfig {
            move_mode: MoveMode::Patched {
                rebuild_every_step: false,
            },
            remap: RemapStrategy::RecursiveBisection,
            remap_interval: 4,
            ..DsmcConfig::lightweight(14, 7)
        },
    }
}

/// One run's result words.
struct Words {
    /// Modeled phase times, load-balance samples and remap costs, as `f64` bits.
    bits: Vec<u64>,
    /// The order-free integers and the merged cell fingerprint.
    ints: Vec<u64>,
}

fn run_words(procs: usize, shape: Shape) -> Words {
    let cfg = config(shape);
    let grid = CellGrid::new_3d(8, 4, 4);
    let flow = FlowConfig::directional(cfg.seed);
    let results: Vec<DsmcStats> = run(MachineConfig::new(procs), move |rank| {
        let particles = seed_particles(&grid, 2_000, &flow);
        run_parallel(rank, &grid, &particles, &cfg)
    })
    .results;
    let mut bits = Vec::new();
    let mut ints = Vec::new();
    for s in &results {
        let p = &s.phases;
        bits.extend(
            [
                p.collide,
                p.move_preprocess,
                p.move_upkeep,
                p.move_data,
                p.remap_partition,
                p.remap_migrate,
                p.monitor,
            ]
            .map(|t| t.total_us().to_bits()),
        );
        bits.extend(s.lb_trajectory.iter().map(|lb| lb.to_bits()));
        bits.extend(
            s.remap_costs
                .iter()
                .flat_map(|&(step, cost)| [step as u64, cost.to_bits()]),
        );
        let wire = s.move_data_exchange;
        let cache = s.cache_stats;
        ints.extend([
            s.collisions as u64,
            s.migrations as u64,
            s.remaps as u64,
            s.final_particle_count as u64,
            wire.msgs_sent,
            wire.msgs_received,
            wire.bytes_sent,
            wire.bytes_received,
            cache.hits,
            cache.misses,
            cache.patches,
            cache.evictions,
        ]);
    }
    let mut cells: Vec<&(usize, Vec<u64>)> = results.iter().flat_map(|s| &s.fingerprint).collect();
    cells.sort_unstable();
    ints.push(fnv1a(cells.iter().flat_map(|(cell, ids)| {
        std::iter::once(*cell as u64)
            .chain(std::iter::once(ids.len() as u64))
            .chain(ids.iter().copied())
    })));
    Words { bits, ints }
}

/// `(P, shape, fingerprint of the bit words then the integer words)`.
const BITS: [(usize, Shape, u64); 4] = [
    (1, Shape::LightweightChainThreshold, 0xd4f4f51a6b3a4735),
    (1, Shape::PatchedRcbInterval, 0x5ad79ec23e5f45b4),
    (2, Shape::LightweightChainThreshold, 0xf25008d1e96ecb6a),
    (2, Shape::PatchedRcbInterval, 0xe69330fd32ae7a25),
];

/// `(P, shape, fingerprint of the integer words)`.
const COUNTS: [(usize, Shape, u64); 4] = [
    (3, Shape::LightweightChainThreshold, 0xd84c661956a41bbd),
    (3, Shape::PatchedRcbInterval, 0xe95814342baa4b5d),
    (5, Shape::LightweightChainThreshold, 0xfbc110bd5ed88ed3),
    (5, Shape::PatchedRcbInterval, 0xfcac6ad2e27d9a6a),
];

/// Run every row of `table`; `pick` chooses which words to fingerprint.  Mismatches are
/// collected and reported together, as table rows.
fn check(table: &[(usize, Shape, u64)], pick: fn(Words) -> Vec<u64>) {
    let mut wrong = Vec::new();
    for &(procs, shape, expected) in table {
        let got = fnv1a(pick(run_words(procs, shape)));
        if got != expected {
            wrong.push(format!("    ({procs}, Shape::{shape:?}, {got:#018x}),"));
        }
    }
    assert!(
        wrong.is_empty(),
        "fingerprints moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn modeled_time_and_counts_repeat_bit_for_bit_at_one_and_two_ranks() {
    check(&BITS, |w| [w.bits, w.ints].concat());
}

#[test]
fn order_free_counts_repeat_at_three_and_five_ranks() {
    check(&COUNTS, |w| w.ints);
}

#[test]
fn the_pinned_runs_remap() {
    // A table that never remaps would pin nothing of the remap path.
    for shape in [Shape::LightweightChainThreshold, Shape::PatchedRcbInterval] {
        let words = run_words(2, shape);
        assert!(words.ints[2] > 0, "{shape:?} never remapped at P = 2");
    }
}
