//! Equivalence suite for the split-phase and fused exchange paths.
//!
//! The split-phase engine (`gather_start`/`gather_finish`,
//! `scatter_append_start`/`scatter_append_finish`) and the fused multi-array paths
//! (`gather_multi`, `scatter_add_multi`) are *transport* optimisations: they must move
//! exactly the data a sequential program over the global array would.  The blocking,
//! fused and split-phase gathers and scatter-adds all run one transfer kernel, so none of
//! them can serve as the others' reference; values are checked against the global array
//! itself.  This suite pins that on P = 1, 2 and 8 (single-rank degenerates to pure local
//! delivery; 8 ranks leaves some processor pairs silent — zero-count plan rows included):
//!
//! * after a blocking, fused or split-phase gather, every reference reads **bit for bit**
//!   the value of the global element it names;
//! * after a blocking or fused scatter-add, every owned element equals the plain
//!   sequential sum of its contributions (exact dyadic values, so every summation order
//!   gives the same bits);
//! * a split-phase append returns the identical item vector, in the identical order, as
//!   the blocking `scatter_append`;
//! * the `ExchangeStats` element totals (bytes each way) agree with three single-array
//!   transfers, while the fused message counts drop to one per pair;
//! * split-phase gathers left in flight across other, blocking exchanges still fill
//!   their ghost regions with the global values.

use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, ExchangeStats, MachineConfig, Rank};

const MACHINE_SIZES: &[usize] = &[1, 2, 8];

/// The global elements rank `me` of `nprocs` references, in reference order: an
/// irregular pattern that leaves some processor pairs silent whenever P > 2 (rank r only
/// references its own block and the block "ahead" of it), so sparse plans carry genuine
/// zero-count rows.
fn pattern(me: usize, nprocs: usize, n: usize) -> Vec<usize> {
    let dist = BlockDist::new(n, nprocs);
    (0..n / 2)
        .map(|k| {
            let block = (me + k % 2) % nprocs;
            dist.local_range(block).start + (k * 5) % dist.local_size(block)
        })
        .collect()
}

/// Build the schedule for this rank's [`pattern`], returning (schedule, one local
/// reference per pattern entry, owned global range).
fn setup(rank: &mut Rank, n: usize) -> (CommSchedule, Vec<LocalRef>, std::ops::Range<usize>) {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let dist = BlockDist::new(n, nprocs);
    let ttable = TranslationTable::from_regular(&dist);
    let mut hash = IndexHashTable::new(me, ttable.local_size(me));
    let pattern = pattern(me, nprocs, n);
    let refs = hash.hash_in_replicated(rank, &ttable, &pattern, Stamp::new(0));
    let sched = build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(0)));
    (sched, refs, dist.local_range(me))
}

/// Check every reference of `array` against the global-array oracle: the reference to
/// global element `g` must read exactly `value(g)`, bit for bit.
fn assert_reads_global(
    rank: &Rank,
    n: usize,
    refs: &[LocalRef],
    array: &DistArray<f64>,
    value: impl Fn(usize) -> f64,
    what: &str,
) {
    let globals = pattern(rank.rank(), rank.nprocs(), n);
    assert_eq!(refs.len(), globals.len());
    let got: Vec<f64> = refs.iter().map(|&r| array[r]).collect();
    let want: Vec<f64> = globals.into_iter().map(value).collect();
    assert_bits_eq(&got, &want, what);
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
            let (sched, refs, range) = setup(rank, n);
            const LANES: [f64; 3] = [1.0, 0.25, -3.0];
            let value = |lane: f64, g: usize| (g as f64 + lane) * 1.5;
            let make = || -> [DistArray<f64>; 3] {
                LANES.map(|lane| {
                    let owned: Vec<f64> = range.clone().map(|g| value(lane, g)).collect();
                    DistArray::new(owned, sched.ghost_len())
                })
            };

            // Message and byte reference: three blocking single-array gathers.
            let [mut x1, mut y1, mut z1] = make();
            let single = gather(rank, &sched, &mut x1)
                .merged(&gather(rank, &sched, &mut y1))
                .merged(&gather(rank, &sched, &mut z1));

            // Fused: one gather_multi.
            let [mut x2, mut y2, mut z2] = make();
            let fused = gather_multi(rank, &sched, [&mut x2, &mut y2, &mut z2]);

            // Split-phase fused: start, compute, finish.
            let [mut x3, mut y3, mut z3] = make();
            let handle = gather_start(rank, &sched, [&x3, &y3, &z3]);
            rank.charge_compute(7.0);
            let split = gather_finish(rank, handle, &sched, [&mut x3, &mut y3, &mut z3]);

            for (lane, [a, b, c], name) in [
                (LANES[0], [&x1, &x2, &x3], "x"),
                (LANES[1], [&y1, &y2, &y3], "y"),
                (LANES[2], [&z1, &z2, &z3], "z"),
            ] {
                for (array, path) in [(a, "blocking"), (b, "fused"), (c, "split")] {
                    let what = format!("{path} gather {name}");
                    assert_reads_global(rank, n, &refs, array, |g| value(lane, g), &what);
                }
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
            // Rank q's k-th reference contributes this: dyadic values, so every sum below
            // is exact whatever order the contributions arrive in.
            let contribution =
                |q: usize, k: usize, bias: f64| k as f64 * 0.25 + q as f64 * 0.5 + bias;
            let me = rank.rank();
            let seed = |bias: f64| -> DistArray<f64> {
                let mut a = DistArray::new(vec![bias; range.len()], sched.ghost_len());
                // Accumulate through every local reference (ghost slots included) so the
                // scatter folds real remote data back.
                for (k, &r) in refs.iter().enumerate() {
                    a[r] += contribution(me, k, bias);
                }
                a
            };
            // The oracle: the global array, each element the plain sequential sum of its
            // initial value and every rank's contributions.
            let nprocs = rank.nprocs();
            let oracle = |bias: f64| -> Vec<f64> {
                let mut global = vec![bias; n];
                for q in 0..nprocs {
                    for (k, g) in pattern(q, nprocs, n).into_iter().enumerate() {
                        global[g] += contribution(q, k, bias);
                    }
                }
                global[range.clone()].to_vec()
            };
            let [mut x1, mut y1, mut z1] = [seed(1.0), seed(2.0), seed(3.0)];
            let single = scatter_add(rank, &sched, &mut x1)
                .merged(&scatter_add(rank, &sched, &mut y1))
                .merged(&scatter_add(rank, &sched, &mut z1));
            let [mut x2, mut y2, mut z2] = [seed(1.0), seed(2.0), seed(3.0)];
            let fused = scatter_add_multi(rank, &sched, [&mut x2, &mut y2, &mut z2]);
            for (bias, [a, b], name) in [
                (1.0, [&x1, &x2], "x"),
                (2.0, [&y1, &y2], "y"),
                (3.0, [&z1, &z2], "z"),
            ] {
                let want = oracle(bias);
                assert_bits_eq(a.owned(), &want, &format!("scatter_add {name}"));
                assert_bits_eq(b.owned(), &want, &format!("scatter_add_multi {name}"));
            }
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
            let n = 64;
            let (sched, refs, range) = setup(rank, n);
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

            let first = |g: usize| g as f64 + 0.5;
            let second = |g: usize| -(g as f64);
            assert_reads_global(rank, n, &refs, &a, first, "first split-phase gather");
            assert_reads_global(rank, n, &refs, &b, second, "second split-phase gather");
            let globals = pattern(me, rank.nprocs(), n);
            let got: Vec<f64> = refs.iter().flat_map(|&r| c[r]).collect();
            let want: Vec<f64> = globals
                .iter()
                .flat_map(|&g| [g as f64, second(g)])
                .collect();
            assert_bits_eq(&got, &want, "blocking [f64; 2] gather");
            appended.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(total, nprocs * 12, "P={nprocs}: appended items conserved");
    }
}
