//! Message-count regression tests for the unified exchange engine: the engine must put
//! exactly the messages a schedule calls for on the wire — no empty messages, no
//! double-sends — and its per-execution [`ExchangeStats`] must agree with the machine's
//! own [`RankStats`] counters.

use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, CostModel, ExchangeStats, MachineConfig};

/// An 8-rank gather over an irregular access pattern: per-rank message counts through the
/// engine must equal `CommSchedule::send_message_count()`, exactly what the hand-rolled
/// pack/send/recv/unpack loops produced before the engine existed.
#[test]
fn gather_message_counts_match_the_schedule_on_8_ranks() {
    let n = 256;
    let nprocs = 8;
    let out = run(
        MachineConfig::new(nprocs).with_cost(CostModel::uniform(70.0, 0.36, 0.0)),
        move |rank| {
            let dist = BlockDist::new(n, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
            // An irregular pattern that leaves some processor pairs silent: each rank
            // only references its own block and the two blocks "ahead" of it.
            let me = rank.rank();
            let pattern: Vec<usize> = (0..96)
                .map(|k| {
                    let block = (me + k % 3) % nprocs;
                    dist.local_range(block).start + (k * 7) % dist.local_size(block)
                })
                .collect();
            hash.hash_in_replicated(rank, &ttable, &pattern, Stamp::new(0));
            let sched = build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(0)));

            let owned: Vec<f64> = dist.local_globals(me).map(|g| g as f64).collect();
            let mut x = DistArray::new(owned, sched.ghost_len());
            let before = rank.stats();
            let stats = gather(rank, &sched, &mut x);
            let after = rank.stats();
            (
                stats,
                after.msgs_sent - before.msgs_sent,
                after.bytes_sent - before.bytes_sent,
                after.msgs_received - before.msgs_received,
                sched.send_message_count(),
                sched.total_send(),
                sched.total_fetch(),
                sched.perm_lists().iter().filter(|l| !l.is_empty()).count(),
            )
        },
    );
    let mut machine_sent = 0u64;
    let mut machine_received = 0u64;
    for (
        p,
        (
            stats,
            rank_msgs,
            rank_bytes,
            rank_recvd,
            sched_msgs,
            total_send,
            total_fetch,
            fetch_peers,
        ),
    ) in out.results.iter().enumerate()
    {
        // ExchangeStats agree with the rank's own counters over the gather window.
        assert_eq!(stats.msgs_sent, *rank_msgs, "rank {p}: stats vs RankStats");
        assert_eq!(
            stats.bytes_sent, *rank_bytes,
            "rank {p}: bytes vs RankStats"
        );
        assert_eq!(stats.msgs_received, *rank_recvd, "rank {p}: recv counts");
        // One message per destination with a non-empty send list — never more (no
        // double-sends), never less, and nothing for the empty pairs.
        assert_eq!(
            stats.msgs_sent as usize, *sched_msgs,
            "rank {p}: engine must send exactly CommSchedule::send_message_count() messages"
        );
        assert_eq!(stats.msgs_received as usize, *fetch_peers, "rank {p}");
        // No empty messages: every message carries at least one 8-byte element, and the
        // byte total is exactly the element total.
        assert!(stats.msgs_sent == 0 || stats.bytes_sent >= 8 * stats.msgs_sent);
        assert_eq!(stats.bytes_sent as usize, total_send * 8, "rank {p}");
        assert_eq!(stats.bytes_received as usize, total_fetch * 8, "rank {p}");
        machine_sent += stats.msgs_sent;
        machine_received += stats.msgs_received;
    }
    // Conservation across the machine: every message sent is received exactly once.
    assert_eq!(machine_sent, machine_received);
    assert!(machine_sent > 0, "the pattern must actually communicate");
}

/// The sparse pattern above must not regress into dense all-to-all traffic: ranks that
/// share no data exchange no messages.  Elements three times as wide put three times the
/// bytes on the wire in the same messages.
#[test]
fn silent_processor_pairs_stay_silent() {
    let nprocs = 8;
    let out = run(
        MachineConfig::new(nprocs).with_cost(CostModel::uniform(1.0, 1.0, 0.0)),
        move |rank| {
            // Ring pattern: each rank only references elements of the next rank.
            let n = 64;
            let dist = BlockDist::new(n, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
            let next = (rank.rank() + 1) % nprocs;
            let pattern: Vec<usize> = dist.local_globals(next).collect();
            hash.hash_in_replicated(rank, &ttable, &pattern, Stamp::new(0));
            let sched = build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(0)));
            let owned: Vec<f64> = dist.local_globals(rank.rank()).map(|g| g as f64).collect();
            let wide: Vec<[f64; 3]> = owned.iter().map(|&v| [v, 1.0, -1.0]).collect();
            let mut x = DistArray::new(owned, sched.ghost_len());
            let mut x3 = DistArray::new(wide, sched.ghost_len());
            (gather(rank, &sched, &mut x), gather(rank, &sched, &mut x3))
        },
    );
    for (p, (stats, wide)) in out.results.iter().enumerate() {
        assert_eq!(wide.msgs_sent, stats.msgs_sent, "rank {p}");
        assert_eq!(wide.msgs_received, stats.msgs_received, "rank {p}");
        assert_eq!(
            wide.bytes_sent,
            3 * stats.bytes_sent,
            "rank {p}: [f64; 3] is 24 B"
        );
        assert_eq!(wide.bytes_received, 3 * stats.bytes_received, "rank {p}");
        assert_eq!(
            *stats,
            ExchangeStats {
                msgs_sent: 1,
                msgs_received: 1,
                bytes_sent: 8 * 8,
                bytes_received: 8 * 8,
            },
            "rank {p}: a ring gather is exactly one message each way"
        );
    }
}

/// scatter_append through the engine moves exactly one message per non-empty
/// (source, destination) pair, matching the light-weight schedule's own counts and
/// its predicted wire traffic.
#[test]
fn scatter_append_message_counts_match_the_lightweight_schedule() {
    let nprocs = 8;
    let out = run(
        MachineConfig::new(nprocs).with_cost(CostModel::uniform(1.0, 1.0, 0.0)),
        move |rank| {
            let me = rank.rank();
            // Each rank keeps half its items and sends the rest to me+1 and me+2.
            let items: Vec<u64> = (0..12).map(|k| (100 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..12)
                .map(|k| match k % 4 {
                    0 | 1 => me,
                    2 => (me + 1) % nprocs,
                    _ => (me + 2) % nprocs,
                })
                .collect();
            let sched = LightweightSchedule::build(rank, &dests);
            let before = rank.stats();
            let moved = scatter_append(rank, &sched, &items);
            let after = rank.stats();
            let wire = ExchangeStats {
                msgs_sent: after.msgs_sent - before.msgs_sent,
                msgs_received: after.msgs_received - before.msgs_received,
                bytes_sent: after.bytes_sent - before.bytes_sent,
                bytes_received: after.bytes_received - before.bytes_received,
            };
            (
                wire,
                sched.exchange_stats::<u64>(),
                moved.len(),
                sched.result_count(),
                sched.kept_count(),
            )
        },
    );
    for (p, (wire, predicted, got, expected, kept)) in out.results.iter().enumerate() {
        assert_eq!(
            wire.msgs_sent, 2,
            "rank {p}: one message per non-empty destination"
        );
        assert_eq!(
            wire, predicted,
            "rank {p}: exchange_stats must match the wire"
        );
        assert_eq!(got, expected, "rank {p}");
        assert_eq!(*kept, 6, "rank {p}: kept items never touch the network");
    }
}
