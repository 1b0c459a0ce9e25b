//! Golden result bits of the hand-parallelised CHARMM driver.
//!
//! Each fingerprint is FNV-1a over `f64::to_bits` of the final positions (sorted by
//! global atom id), then of every rank's `phases.total()` in rank order.  The table was
//! recorded before the driver's inspector and executor moved onto `chaos::LoopGroup`;
//! that move must perform the same hashing, the same schedule upkeep and the same `f64`
//! operations in the same order, so every fingerprint repeats exactly.
//!
//! Only P ∈ {1, 2} is pinned bit for bit: with at most one remote contributor a
//! scatter-add's arrival order is fixed.  At P ∈ {3, 5} contributions from two peers
//! combine in arrival order, so only the order-free integers are pinned: interactions,
//! list updates, schedule builds, repartitions, cache counters, per-step messages and the executor's wire traffic.

use charmm::parallel::{run_parallel, ParallelConfig, ScheduleMode};
use charmm::system::{MolecularSystem, SystemConfig};
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

fn config(mode: ScheduleMode, repartition_interval: Option<usize>) -> ParallelConfig {
    ParallelConfig {
        list_update_interval: 3,
        schedule_mode: mode,
        repartition_interval,
        ..ParallelConfig::paper_default(12)
    }
}

/// One run's result words.
struct Words {
    /// Positions and modeled times, as `f64` bits.
    bits: Vec<u64>,
    /// The order-free integers.
    ints: Vec<u64>,
}

fn run_words(procs: usize, mode: ScheduleMode, repartition: Option<usize>) -> Words {
    let cfg = config(mode, repartition);
    let out = run(MachineConfig::new(procs), move |rank| {
        let system = MolecularSystem::build(&SystemConfig::small(21));
        run_parallel(rank, &system, &cfg)
    });
    let mut positions: Vec<(usize, [f64; 3])> = out
        .results
        .iter()
        .flat_map(|s| s.owned_positions.iter().copied())
        .collect();
    positions.sort_unstable_by_key(|&(g, _)| g);
    let mut bits: Vec<u64> = positions
        .iter()
        .flat_map(|(g, p)| [*g as u64, p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
        .collect();
    let mut ints = Vec::new();
    for s in &out.results {
        let total = s.phases.total();
        bits.extend([total.comm_us.to_bits(), total.compute_us.to_bits()]);
        let cache = s.cache_stats;
        let wire = s.executor_exchange;
        ints.extend([
            s.interactions as u64,
            s.list_updates as u64,
            s.schedule_builds as u64,
            s.repartitions as u64,
            s.identity_repartitions as u64,
            cache.hits,
            cache.misses,
            cache.patches,
            cache.evictions,
            s.step_send_messages as u64,
            wire.msgs_sent,
            wire.msgs_received,
            wire.bytes_sent,
            wire.bytes_received,
        ]);
    }
    Words { bits, ints }
}

/// `(P, mode, repartition interval, fingerprint of the bit words then the integer
/// words)`.
const BITS: [(usize, ScheduleMode, Option<usize>, u64); 8] = [
    (1, ScheduleMode::Merged, None, 0xa7372aa9b4ebbeb2),
    (1, ScheduleMode::Merged, Some(4), 0x39ddd2102969a2f2),
    (1, ScheduleMode::Multiple, None, 0x589a2824c52c9dd2),
    (1, ScheduleMode::Multiple, Some(4), 0xeb40cf8b39aa8212),
    (2, ScheduleMode::Merged, None, 0xff37237a17915ea5),
    (2, ScheduleMode::Merged, Some(4), 0xc0ce70b99f597a5a),
    (2, ScheduleMode::Multiple, None, 0x8164ec4fec193010),
    (2, ScheduleMode::Multiple, Some(4), 0xd146768139ed974c),
];

/// `(P, mode, repartition interval, fingerprint of the integer words)`.
const COUNTS: [(usize, ScheduleMode, Option<usize>, u64); 8] = [
    (3, ScheduleMode::Merged, None, 0xc19d190f308ae79e),
    (3, ScheduleMode::Merged, Some(4), 0x5834ecc509428837),
    (3, ScheduleMode::Multiple, None, 0x6c1796c301130d48),
    (3, ScheduleMode::Multiple, Some(4), 0x6c3d00e8d4dccddb),
    (5, ScheduleMode::Merged, None, 0x5a2fda62e7d991f7),
    (5, ScheduleMode::Merged, Some(4), 0xfa7457f890e680aa),
    (5, ScheduleMode::Multiple, None, 0x2669d49266e68463),
    (5, ScheduleMode::Multiple, Some(4), 0x85194cafa857975c),
];

/// Run every row of `table`; `pick` chooses which words to fingerprint.  Mismatches are collected and reported together, as table rows.
fn check(table: &[(usize, ScheduleMode, Option<usize>, u64)], pick: fn(Words) -> Vec<u64>) {
    let mut wrong = Vec::new();
    for &(procs, mode, repartition, expected) in table {
        let got = fnv1a(pick(run_words(procs, mode, repartition)));
        if got != expected {
            wrong.push(format!(
                "    ({procs}, ScheduleMode::{mode:?}, {repartition:?}, {got:#018x}),"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "fingerprints moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn positions_and_modeled_time_repeat_bit_for_bit_at_one_and_two_ranks() {
    check(&BITS, |w| [w.bits, w.ints].concat());
}

#[test]
fn order_free_counts_repeat_at_three_and_five_ranks() {
    check(&COUNTS, |w| w.ints);
}
