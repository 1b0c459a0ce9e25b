//! Backend equivalence: every executor primitive produces byte-identical results and
//! wire statistics whichever [`mpsim::ExchangeBackend`] moves the bytes.
//!
//! The shared-memory transport is a pure wall-clock optimisation — per-pair lock-free
//! rings, a typed fast path that skips encode/decode for POD element types, and
//! pointer-move self-delivery.  None of that may be observable: these tests run the
//! same workload under [`ExchangeBackend::Modeled`] and [`ExchangeBackend::SharedMem`]
//! at P ∈ {1, 2, 8} and assert the array contents, append orders and
//! [`mpsim::ExchangeStats`] agree exactly.  P = 1 pins the self-delivery path (every
//! transfer is rank-to-self); the reference pattern leaves some processor pairs with
//! nothing to say, which pins the zero-count rows of each plan; and the interleaved
//! split-phase case crosses exchange epochs while two transfers are in flight.

use chaos::prelude::*;
use mpsim::{run, ExchangeBackend, MachineConfig, Rank};

const SWEEP: &[usize] = &[1, 2, 8];

/// Run `body` once per backend at machine size `p` and return both outcomes' results.
fn on_both_backends<T, F>(p: usize, body: F) -> (Vec<T>, Vec<T>)
where
    T: Send + std::fmt::Debug + 'static,
    F: Fn(&mut Rank) -> T + Send + Sync + Copy + 'static,
{
    let go =
        |backend: ExchangeBackend| run(MachineConfig::new(p).with_backend(backend), body).results;
    (go(ExchangeBackend::Modeled), go(ExchangeBackend::SharedMem))
}

/// The shared inspector setup: an `n`-element block-distributed array and a fixed
/// indirection pattern.  `(i * 3 + 1) % n` is affine, so at larger P each rank only
/// references a band of the array — several processor pairs exchange zero elements,
/// which keeps zero-count plan rows in every sweep point.
fn setup(rank: &mut Rank, n: usize) -> (CommSchedule, Vec<LocalRef>, std::ops::Range<usize>) {
    let dist = BlockDist::new(n, rank.nprocs());
    let ttable = TranslationTable::from_regular(&dist);
    let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
    let me = rank.rank();
    let pattern: Vec<usize> = (0..n / 2).map(|i| (i * 3 + 1 + me) % n).collect();
    let refs = hash.hash_in_replicated(rank, &ttable, &pattern, Stamp::new(0));
    let sched = build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(0)));
    (sched, refs, dist.local_range(me))
}

#[test]
fn gather_is_byte_identical_across_backends() {
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let (sched, _refs, range) = setup(rank, 64);
            let owned: Vec<f64> = range.clone().map(|g| (g * g) as f64 + 0.25).collect();
            let mut x = DistArray::new(owned, sched.ghost_len());
            let stats = gather(rank, &sched, &mut x);
            (x.owned().to_vec(), x.ghost().to_vec(), stats)
        });
        assert_eq!(modeled, shared, "gather diverged at P = {p}");
    }
}

#[test]
fn scatter_add_is_byte_identical_across_backends() {
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let (sched, refs, range) = setup(rank, 64);
            let mut x = DistArray::new(vec![1.5f64; range.len()], sched.ghost_len());
            for (k, &r) in refs.iter().enumerate() {
                x[r] += k as f64 * 0.5;
            }
            let stats = scatter_add(rank, &sched, &mut x);
            (x.owned().to_vec(), stats)
        });
        assert_eq!(modeled, shared, "scatter_add diverged at P = {p}");
    }
}

#[test]
fn fused_gather_is_byte_identical_across_backends() {
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let (sched, _refs, range) = setup(rank, 64);
            let make = |scale: f64| -> DistArray<f64> {
                let owned: Vec<f64> = range.clone().map(|g| g as f64 * scale).collect();
                DistArray::new(owned, sched.ghost_len())
            };
            let (mut x, mut y, mut z) = (make(1.0), make(0.5), make(-2.0));
            let stats = gather_multi(rank, &sched, [&mut x, &mut y, &mut z]);
            (
                x.ghost().to_vec(),
                y.ghost().to_vec(),
                z.ghost().to_vec(),
                stats,
            )
        });
        assert_eq!(modeled, shared, "gather_multi diverged at P = {p}");
    }
}

#[test]
fn interleaved_split_phase_transfers_are_byte_identical_across_backends() {
    // Two split-phase transfers in flight at once, finished in start order while a
    // blocking append crosses between them — three exchange epochs overlap, which is
    // exactly the situation the engine's epoch tags (and the shared rings' framing)
    // must keep apart.
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let me = rank.rank();
            let nprocs = rank.nprocs();
            let (sched, _refs, range) = setup(rank, 64);
            let owned: Vec<f64> = range.clone().map(|g| g as f64 + 0.5).collect();
            let a = DistArray::new(owned.clone(), sched.ghost_len());
            let b = DistArray::new(owned.iter().map(|v| -v).collect(), sched.ghost_len());
            let ha = gather_start(rank, &sched, [&a]);
            let hb = gather_start(rank, &sched, [&b]);
            // An unrelated blocking exchange while both gathers are in flight.
            let items: Vec<u64> = (0..12).map(|k| (1000 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..12).map(|k| (k + me) % nprocs).collect();
            let lw = LightweightSchedule::build(rank, &dests);
            let appended = scatter_append(rank, &lw, &items);
            let (mut a, mut b) = (a, b);
            let sa = gather_finish(rank, ha, &sched, [&mut a]);
            let sb = gather_finish(rank, hb, &sched, [&mut b]);
            (a.ghost().to_vec(), b.ghost().to_vec(), appended, sa, sb)
        });
        assert_eq!(modeled, shared, "interleaved transfers diverged at P = {p}");
    }
}

#[test]
fn blocking_gather_amid_split_phase_transfers_is_byte_identical() {
    // A *blocking* gather runs while two split-phase gathers are in flight.  Their
    // payloads can arrive during the blocking gather's drain and must be stashed for
    // the later finishes, while the blocking gather's own messages land in the ghost
    // region; the finishes then consume the stash across epochs.
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let (sched, _refs, range) = setup(rank, 64);
            let owned: Vec<f64> = range.clone().map(|g| g as f64 * 1.25 + 0.125).collect();
            let a = DistArray::new(owned.clone(), sched.ghost_len());
            let b = DistArray::new(owned.iter().map(|v| v + 7.0).collect(), sched.ghost_len());
            let ha = gather_start(rank, &sched, [&a]);
            let hb = gather_start(rank, &sched, [&b]);
            let mut c = DistArray::new(owned.iter().map(|v| v * -0.5).collect(), sched.ghost_len());
            let sc = gather(rank, &sched, &mut c);
            let (mut a, mut b) = (a, b);
            let sa = gather_finish(rank, ha, &sched, [&mut a]);
            let sb = gather_finish(rank, hb, &sched, [&mut b]);
            (
                a.ghost().to_vec(),
                b.ghost().to_vec(),
                c.ghost().to_vec(),
                sa,
                sb,
                sc,
            )
        });
        assert_eq!(
            modeled, shared,
            "blocking gather amid split-phase transfers diverged at P = {p}"
        );
    }
}

#[test]
fn split_phase_append_is_byte_identical_across_backends() {
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let me = rank.rank();
            let nprocs = rank.nprocs();
            let items: Vec<u64> = (0..10).map(|k| (1000 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..10).map(|k| k % nprocs).collect();
            let sched = LightweightSchedule::build(rank, &dests);
            let handle = scatter_append_start(rank, &sched, &items);
            rank.charge_compute(5.0);
            scatter_append_finish(rank, &sched, handle)
        });
        assert_eq!(modeled, shared, "split-phase append diverged at P = {p}");
    }
}

#[test]
fn empty_schedules_move_nothing_on_either_backend() {
    // The degenerate end of the zero-count spectrum: a schedule with nothing in it at
    // all must be a no-op with default stats under both transports.
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let sched = CommSchedule::empty(rank.nprocs(), 2);
            let mut x: DistArray<f64> = DistArray::new(vec![1.0, 2.0], 0);
            let g = gather(rank, &sched, &mut x);
            let s = scatter_add(rank, &sched, &mut x);
            (x.owned().to_vec(), g, s)
        });
        assert_eq!(modeled, shared, "empty schedule diverged at P = {p}");
        for (owned, g, s) in &modeled {
            assert_eq!(owned, &vec![1.0, 2.0]);
            assert_eq!(*g, mpsim::ExchangeStats::default());
            assert_eq!(*s, mpsim::ExchangeStats::default());
        }
    }
}

#[test]
fn non_pod_element_types_agree_too() {
    // `[f64; 2]` with a non-trivial pattern goes through the encode/decode path on both
    // backends only if the type is not POD-little-endian; either way the contract is the
    // same bytes.  (On most hosts `[f64; 2]` *is* POD, so this doubles as a typed
    // fast-path case at a different element size.)
    for &p in SWEEP {
        let (modeled, shared) = on_both_backends(p, |rank| {
            let (sched, _refs, range) = setup(rank, 64);
            let owned: Vec<[f64; 2]> = range.clone().map(|g| [g as f64, -(g as f64)]).collect();
            let mut x = DistArray::new(owned, sched.ghost_len());
            let stats = gather(rank, &sched, &mut x);
            (x.ghost().to_vec(), stats)
        });
        assert_eq!(modeled, shared, "[f64; 2] gather diverged at P = {p}");
    }
}
