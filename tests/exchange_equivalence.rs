//! Equivalence suite for the split-phase and fused exchange paths.
//!
//! The split-phase engine (`gather_start`/`gather_finish`,
//! `scatter_append_start`/`scatter_append_finish`) and the fused multi-array paths
//! (`gather_multi`, `scatter_add_multi`) are *transport* optimisations: they must move
//! exactly the data the blocking single-array primitives move.  This suite pins that on
//! P = 1, 2 and 8 (single-rank degenerates to pure local delivery; 8 ranks leaves some
//! processor pairs silent — zero-count plan rows included):
//!
//! * ghost regions after a fused / split-phase gather are **byte-identical** to three
//!   blocking single-array gathers;
//! * owned sections after a fused scatter-add are byte-identical to three blocking
//!   `scatter_add`s;
//! * a split-phase append returns the identical item vector, in the identical order, as
//!   the blocking `scatter_append`;
//! * the `ExchangeStats` element totals (bytes each way) agree with the blocking path,
//!   while the fused message counts drop to one per pair;
//! * split-phase gathers left in flight across other, blocking exchanges still fill
//!   their ghost regions exactly as a lone blocking gather does.

use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, ExchangeStats, MachineConfig, Rank};

const MACHINE_SIZES: &[usize] = &[1, 2, 8];

/// Build a schedule over an irregular pattern that leaves some processor pairs silent
/// whenever P > 2 (rank r only references its own block and the block "ahead" of it),
/// so sparse plans carry genuine zero-count rows.
fn setup(rank: &mut Rank, n: usize) -> (CommSchedule, Vec<LocalRef>, std::ops::Range<usize>) {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let dist = BlockDist::new(n, nprocs);
    let ttable = TranslationTable::from_regular(&dist);
    let mut hash = IndexHashTable::new(me, ttable.local_size(me));
    let pattern: Vec<usize> = (0..n / 2)
        .map(|k| {
            let block = (me + k % 2) % nprocs;
            dist.local_range(block).start + (k * 5) % dist.local_size(block)
        })
        .collect();
    let refs = hash.hash_in_replicated(rank, &ttable, &pattern, Stamp::new(0));
    let sched = build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(0)));
    (sched, refs, dist.local_range(me))
}

/// Bit-level equality for f64 buffers ("byte-identical", not merely approximately equal).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: slot {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn fused_and_split_phase_gathers_match_blocking_byte_for_byte() {
    for &nprocs in MACHINE_SIZES {
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let n = 64;
            let (sched, _refs, range) = setup(rank, n);
            let make = |scale: f64| -> [DistArray<f64>; 3] {
                [1.0, 0.25, -3.0].map(|lane| {
                    let owned: Vec<f64> =
                        range.clone().map(|g| (g as f64 + lane) * scale).collect();
                    DistArray::new(owned, sched.ghost_len())
                })
            };

            // Reference: three blocking single-array gathers.
            let [mut x1, mut y1, mut z1] = make(1.5);
            let single = gather(rank, &sched, &mut x1)
                .merged(&gather(rank, &sched, &mut y1))
                .merged(&gather(rank, &sched, &mut z1));

            // Fused: one gather_multi.
            let [mut x2, mut y2, mut z2] = make(1.5);
            let fused = gather_multi(rank, &sched, [&mut x2, &mut y2, &mut z2]);

            // Split-phase fused: start, compute, finish.
            let [mut x3, mut y3, mut z3] = make(1.5);
            let handle = gather_start(rank, &sched, [&x3, &y3, &z3]);
            rank.charge_compute(7.0);
            let split = gather_finish(rank, handle, &sched, [&mut x3, &mut y3, &mut z3]);

            for (a, b, c, name) in [
                (&x1, &x2, &x3, "x"),
                (&y1, &y2, &y3, "y"),
                (&z1, &z2, &z3, "z"),
            ] {
                assert_bits_eq(a.ghost(), b.ghost(), &format!("fused ghost {name}"));
                assert_bits_eq(a.ghost(), c.ghost(), &format!("split ghost {name}"));
            }
            (single, fused, split, sched.send_message_count())
        });
        for (p, (single, fused, split, sched_msgs)) in out.results.iter().enumerate() {
            assert_eq!(
                fused, split,
                "P={nprocs} rank {p}: fused and split-phase stats must agree"
            );
            assert_eq!(
                fused.bytes_sent, single.bytes_sent,
                "P={nprocs} rank {p}: fusion must not change the bytes moved"
            );
            assert_eq!(fused.bytes_received, single.bytes_received);
            assert_eq!(
                fused.msgs_sent as usize, *sched_msgs,
                "P={nprocs} rank {p}: one fused message per schedule destination"
            );
            assert_eq!(
                single.msgs_sent,
                3 * fused.msgs_sent,
                "P={nprocs} rank {p}: blocking path pays 3x the messages"
            );
            if nprocs == 1 {
                assert_eq!(single, &ExchangeStats::default(), "P=1 moves nothing");
            }
        }
    }
}

#[test]
fn fused_scatter_add_matches_blocking_byte_for_byte() {
    for &nprocs in MACHINE_SIZES {
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let n = 48;
            let (sched, refs, range) = setup(rank, n);
            let me = rank.rank() as f64;
            let seed = |bias: f64| -> DistArray<f64> {
                let mut a = DistArray::new(vec![bias; range.len()], sched.ghost_len());
                // Accumulate irrational-ish contributions through every local reference
                // (ghost slots included) so the scatter folds real remote data back.
                for (k, &r) in refs.iter().enumerate() {
                    a[r] += (k as f64) * 0.3 + me * 0.7 + bias;
                }
                a
            };
            let [mut x1, mut y1, mut z1] = [seed(1.0), seed(2.0), seed(3.0)];
            let single = scatter_add(rank, &sched, &mut x1)
                .merged(&scatter_add(rank, &sched, &mut y1))
                .merged(&scatter_add(rank, &sched, &mut z1));
            let [mut x2, mut y2, mut z2] = [seed(1.0), seed(2.0), seed(3.0)];
            let fused = scatter_add_multi(rank, &sched, [&mut x2, &mut y2, &mut z2]);
            assert_bits_eq(x1.owned(), x2.owned(), "scatter_add x");
            assert_bits_eq(y1.owned(), y2.owned(), "scatter_add y");
            assert_bits_eq(z1.owned(), z2.owned(), "scatter_add z");
            (single, fused)
        });
        for (p, (single, fused)) in out.results.iter().enumerate() {
            assert_eq!(fused.bytes_sent, single.bytes_sent, "P={nprocs} rank {p}");
            assert_eq!(fused.bytes_received, single.bytes_received);
            assert_eq!(single.msgs_sent, 3 * fused.msgs_sent);
        }
    }
}

#[test]
fn split_phase_append_matches_blocking_order_and_totals() {
    for &nprocs in MACHINE_SIZES {
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let me = rank.rank();
            // Destinations hit only "me" and the next rank, so P = 8 has zero-count rows
            // toward the other six; P = 1 keeps everything.
            let items: Vec<u64> = (0..20).map(|k| (1000 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..20).map(|k| (me + k % 2) % nprocs).collect();
            let sched = LightweightSchedule::build(rank, &dests);

            let before = rank.stats();
            let blocking = scatter_append(rank, &sched, &items);
            let mid = rank.stats();
            let handle = scatter_append_start(rank, &sched, &items);
            rank.charge_compute(3.0); // survivors re-bin here in the DSMC MOVE phase
            let split = scatter_append_finish(rank, &sched, handle);
            let after = rank.stats();

            assert_eq!(blocking, split, "kept-first source-rank order preserved");
            (
                blocking.len(),
                mid.bytes_sent - before.bytes_sent,
                after.bytes_sent - mid.bytes_sent,
            )
        });
        let total: usize = out.results.iter().map(|r| r.0).sum();
        assert_eq!(total, nprocs * 20, "P={nprocs}: items conserved");
        for (p, (_, blocking_bytes, split_bytes)) in out.results.iter().enumerate() {
            assert_eq!(
                blocking_bytes, split_bytes,
                "P={nprocs} rank {p}: split-phase append moves identical bytes"
            );
        }
    }
}

#[test]
fn overlapping_exchanges_keep_their_epochs_apart() {
    // Two split-phase gathers stay in flight while a blocking gather of `[f64; 2]`
    // elements and a blocking append cross between them: payloads for the later
    // finishes can arrive during the blocking drains and must be stashed by epoch.
    // Every ghost region must still equal a lone blocking gather's.
    for &nprocs in MACHINE_SIZES {
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let me = rank.rank();
            let (sched, _refs, range) = setup(rank, 64);
            let array = |f: fn(f64) -> f64| {
                DistArray::new(
                    range.clone().map(|g| f(g as f64)).collect(),
                    sched.ghost_len(),
                )
            };
            let (mut a, mut b) = (array(|g| g + 0.5), array(|g| -g));
            let ha = gather_start(rank, &sched, [&a]);
            let hb = gather_start(rank, &sched, [&b]);
            let pairs: Vec<[f64; 2]> = range.clone().map(|g| [g as f64, -(g as f64)]).collect();
            let mut c = DistArray::new(pairs, sched.ghost_len());
            gather(rank, &sched, &mut c);
            let items: Vec<u64> = (0..12).map(|k| (1000 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..12).map(|k| (k + me) % rank.nprocs()).collect();
            let lw = LightweightSchedule::build(rank, &dests);
            let appended = scatter_append(rank, &lw, &items);
            gather_finish(rank, ha, &sched, [&mut a]);
            gather_finish(rank, hb, &sched, [&mut b]);

            let (mut a1, mut b1) = (array(|g| g + 0.5), array(|g| -g));
            gather(rank, &sched, &mut a1);
            gather(rank, &sched, &mut b1);
            assert_bits_eq(a.ghost(), a1.ghost(), "first split-phase gather");
            assert_bits_eq(b.ghost(), b1.ghost(), "second split-phase gather");
            let firsts: Vec<f64> = c.ghost().iter().map(|p| p[0] + 0.5).collect();
            let seconds: Vec<f64> = c.ghost().iter().map(|p| p[1]).collect();
            assert_bits_eq(&firsts, a1.ghost(), "blocking [f64; 2] gather, lane 0");
            assert_bits_eq(&seconds, b1.ghost(), "blocking [f64; 2] gather, lane 1");
            appended.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(total, nprocs * 12, "P={nprocs}: appended items conserved");
    }
}
