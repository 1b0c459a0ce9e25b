//! Integration tests of the schedule-reuse machinery behind Table 3 of the paper:
//! merged schedules (`CommSchedule::merged_with`), incremental schedules
//! (`StampQuery::minus`), and stamp clearing followed by re-hashing.

use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, CostModel, MachineConfig};

/// Merging two schedules built from the same hash table must preserve ghost-slot
/// disjointness: the merged gather fills each array's ghost region exactly as the two
/// separate gathers would, with common fetches deduplicated.
#[test]
fn merged_schedule_gathers_once_for_both_patterns() {
    let n = 32;
    let nprocs = 4;
    let out = run(MachineConfig::new(nprocs), move |rank| {
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
        let sa = Stamp::new(0);
        let sb = Stamp::new(1);
        // Two overlapping indirection arrays: both reference the "next block", b also
        // reaches one block further.
        let start = dist.local_range(rank.rank()).end;
        let a: Vec<usize> = (0..8).map(|k| (start + k) % n).collect();
        let b: Vec<usize> = (0..8).map(|k| (start + 4 + k) % n).collect();
        let ra = hash.hash_in_replicated(rank, &ttable, &a, sa);
        let rb = hash.hash_in_replicated(rank, &ttable, &b, sb);
        let sched_a = build_schedule_from_table(rank, &hash, StampQuery::single(sa));
        let sched_b = build_schedule_from_table(rank, &hash, StampQuery::single(sb));
        let merged = sched_a.merged_with(&sched_b);
        let by_query = build_schedule_from_table(rank, &hash, StampQuery::any_of(&[sa, sb]));

        // The merged schedule must fetch each distinct element once: a and b overlap in
        // 4 elements, so the union is 12 (all off-processor here).
        let owned: Vec<f64> = dist
            .local_globals(rank.rank())
            .map(|g| g as f64 * 3.0)
            .collect();
        let mut x = DistArray::new(owned, merged.ghost_len());
        gather(rank, &merged, &mut x);
        let got_a: Vec<f64> = ra.iter().map(|&r| x[r]).collect();
        let got_b: Vec<f64> = rb.iter().map(|&r| x[r]).collect();
        (
            merged.total_fetch(),
            by_query.total_fetch(),
            got_a,
            got_b,
            a,
            b,
        )
    });
    for (merged_fetch, query_fetch, got_a, got_b, a, b) in &out.results {
        assert_eq!(*merged_fetch, 12, "common fetches must be deduplicated");
        assert_eq!(
            merged_fetch, query_fetch,
            "merging schedules and building from a merged stamp query must agree"
        );
        for (g, v) in a.iter().zip(got_a) {
            assert_eq!(*v, *g as f64 * 3.0);
        }
        for (g, v) in b.iter().zip(got_b) {
            assert_eq!(*v, *g as f64 * 3.0);
        }
    }
}

/// Ghost offsets of two schedules built from one hash table are drawn from the same slot
/// space, so merging never aliases two different elements onto one ghost slot.
#[test]
fn merged_schedules_keep_ghost_offsets_disjoint() {
    let n = 40;
    let out = run(MachineConfig::new(4), move |rank| {
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
        let sa = Stamp::new(0);
        let sb = Stamp::new(1);
        let start = dist.local_range(rank.rank()).end;
        let a: Vec<usize> = (0..6).map(|k| (start + 2 * k) % n).collect();
        let b: Vec<usize> = (0..6).map(|k| (start + 2 * k + 1) % n).collect();
        hash.hash_in_replicated(rank, &ttable, &a, sa);
        hash.hash_in_replicated(rank, &ttable, &b, sb);
        let sched_a = build_schedule_from_table(rank, &hash, StampQuery::single(sa));
        let sched_b = build_schedule_from_table(rank, &hash, StampQuery::single(sb));
        let merged = sched_a.merged_with(&sched_b);
        // a and b are disjoint index sets, so each of the 12 fetched elements must have
        // its own ghost slot in the merged permutation lists.
        let mut slots: Vec<u32> = merged.perm_lists().iter().flatten().copied().collect();
        slots.sort_unstable();
        let before = slots.len();
        slots.dedup();
        (before, slots.len(), merged.ghost_len())
    });
    for (before, after, ghost_len) in &out.results {
        assert_eq!(*before, 12);
        assert_eq!(before, after, "merged ghost slots must stay disjoint");
        assert!(
            *ghost_len >= *after,
            "every slot must fit in the ghost region"
        );
    }
}

/// `merged_with` when the two schedules receive from **disjoint** peer sets: A fetches
/// only from the next rank, B only from the rank after.  The merged schedule must carry
/// both receive sides untouched — per-peer fetch sizes are exactly the union — and a
/// single merged gather must fill both ghost patterns.
#[test]
fn merging_disjoint_recv_sets_concatenates_per_peer_lists() {
    let n = 50;
    let nprocs = 5;
    let out = run(MachineConfig::new(nprocs), move |rank| {
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
        let (sa, sb) = (Stamp::new(0), Stamp::new(1));
        let p = rank.nprocs();
        let next = (rank.rank() + 1) % p;
        let after = (rank.rank() + 2) % p;
        // a references only `next`'s block, b only `after`'s block.
        let a: Vec<usize> = dist.local_range(next).take(3).collect();
        let b: Vec<usize> = dist.local_range(after).take(4).collect();
        let ra = hash.hash_in_replicated(rank, &ttable, &a, sa);
        let rb = hash.hash_in_replicated(rank, &ttable, &b, sb);
        let sched_a = build_schedule_from_table(rank, &hash, StampQuery::single(sa));
        let sched_b = build_schedule_from_table(rank, &hash, StampQuery::single(sb));
        let merged = sched_a.merged_with(&sched_b);

        let fetch_next = merged.fetch_size(next);
        let fetch_after = merged.fetch_size(after);
        let owned: Vec<f64> = dist
            .local_globals(rank.rank())
            .map(|g| g as f64 - 1.5)
            .collect();
        let mut x = DistArray::new(owned, merged.ghost_len());
        gather(rank, &merged, &mut x);
        let got: Vec<f64> = ra.iter().chain(&rb).map(|&r| x[r]).collect();
        let want: Vec<f64> = a.iter().chain(&b).map(|&g| g as f64 - 1.5).collect();
        (
            sched_a.total_fetch(),
            sched_b.total_fetch(),
            merged.total_fetch(),
            fetch_next,
            fetch_after,
            got,
            want,
        )
    });
    for (fa, fb, fm, fetch_next, fetch_after, got, want) in &out.results {
        assert_eq!(*fa, 3);
        assert_eq!(*fb, 4);
        assert_eq!(
            *fm,
            fa + fb,
            "disjoint recv sets must merge without deduplication"
        );
        assert_eq!(*fetch_next, 3, "A's peer must keep exactly A's fetch list");
        assert_eq!(*fetch_after, 4, "B's peer must keep exactly B's fetch list");
        assert_eq!(got, want, "merged gather must fill both ghost patterns");
    }
}

/// `merged_with` when the two recv sets **overlap** on one peer: both schedules fetch
/// from `next` (sharing two elements) and only B fetches from `after`.  The shared peer's
/// fetch list must be deduplicated; the disjoint peer's must pass through unchanged; and
/// the merge must agree with building from the merged stamp query directly.
#[test]
fn merging_overlapping_recv_sets_deduplicates_only_the_shared_peer() {
    let n = 50;
    let nprocs = 5;
    let out = run(MachineConfig::new(nprocs), move |rank| {
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
        let (sa, sb) = (Stamp::new(0), Stamp::new(1));
        let p = rank.nprocs();
        let next = (rank.rank() + 1) % p;
        let after = (rank.rank() + 2) % p;
        // a: 4 elements of `next`'s block.  b: the last 2 of those plus 3 of `after`'s.
        let a: Vec<usize> = dist.local_range(next).take(4).collect();
        let b: Vec<usize> = dist
            .local_range(next)
            .skip(2)
            .take(2)
            .chain(dist.local_range(after).take(3))
            .collect();
        let ra = hash.hash_in_replicated(rank, &ttable, &a, sa);
        let rb = hash.hash_in_replicated(rank, &ttable, &b, sb);
        let sched_a = build_schedule_from_table(rank, &hash, StampQuery::single(sa));
        let sched_b = build_schedule_from_table(rank, &hash, StampQuery::single(sb));
        let merged = sched_a.merged_with(&sched_b);
        let by_query = build_schedule_from_table(rank, &hash, StampQuery::any_of(&[sa, sb]));

        let owned: Vec<f64> = dist
            .local_globals(rank.rank())
            .map(|g| g as f64 * 0.25)
            .collect();
        let mut x = DistArray::new(owned, merged.ghost_len());
        gather(rank, &merged, &mut x);
        let got: Vec<f64> = ra.iter().chain(&rb).map(|&r| x[r]).collect();
        let want: Vec<f64> = a.iter().chain(&b).map(|&g| g as f64 * 0.25).collect();
        (
            merged == by_query,
            merged.fetch_size(next),
            merged.fetch_size(after),
            merged.total_fetch(),
            got,
            want,
        )
    });
    for (same_as_query, fetch_next, fetch_after, total, got, want) in &out.results {
        assert!(
            *same_as_query,
            "merging schedules and building from the merged query must agree"
        );
        assert_eq!(*fetch_next, 4, "the shared peer's overlap must deduplicate");
        assert_eq!(
            *fetch_after, 3,
            "the disjoint peer must pass through unchanged"
        );
        assert_eq!(*total, 7);
        assert_eq!(
            got, want,
            "merged gather must serve both reference patterns"
        );
    }
}

/// The incremental-schedule pattern of Figure 6: after an indirection array adapts, clear
/// its stamp, re-hash, and gather only the `new minus old` elements on top of data the old
/// schedule already brought in.
#[test]
fn incremental_schedule_after_clear_stamp_completes_the_ghost_region() {
    let n = 24;
    let out = run(
        MachineConfig::new(3).with_cost(CostModel::uniform(100.0, 1.0, 0.0)),
        move |rank| {
            let dist = BlockDist::new(n, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
            let s_old = Stamp::new(0);
            let s_new = Stamp::new(1);
            let start = dist.local_range(rank.rank()).end;
            // The "old" pattern references 4 off-processor elements.
            let old: Vec<usize> = (0..4).map(|k| (start + k) % n).collect();
            hash.hash_in_replicated(rank, &ttable, &old, s_old);
            let sched_old = build_schedule_from_table(rank, &hash, StampQuery::single(s_old));

            // The array adapts: two entries change, two stay.
            let adapted: Vec<usize> = vec![old[0], old[1], (start + 6) % n, (start + 7) % n];
            hash.clear_stamp(s_new); // no-op, symmetry with repeated timesteps
            let refs = hash.hash_in_replicated(rank, &ttable, &adapted, s_new);
            let sched_inc =
                build_schedule_from_table(rank, &hash, StampQuery::minus(&[s_new], &[s_old]));

            // Execute: one full gather with the old schedule, then only the increment.
            let owned: Vec<f64> = dist
                .local_globals(rank.rank())
                .map(|g| g as f64 + 0.5)
                .collect();
            let mut x = DistArray::new(owned, hash.ghost_len());
            gather(rank, &sched_old, &mut x);
            let inc_stats = gather(rank, &sched_inc, &mut x);
            let got: Vec<f64> = refs.iter().map(|&r| x[r]).collect();
            (
                sched_old.total_fetch(),
                sched_inc.total_fetch(),
                inc_stats,
                got,
                adapted,
            )
        },
    );
    for (old_fetch, inc_fetch, inc_stats, got, adapted) in &out.results {
        assert_eq!(*old_fetch, 4);
        assert_eq!(
            *inc_fetch, 2,
            "the incremental schedule fetches only the two new elements"
        );
        assert_eq!(inc_stats.bytes_received, 2 * 8);
        for (g, v) in adapted.iter().zip(got) {
            assert_eq!(
                *v,
                *g as f64 + 0.5,
                "element {g} wrong after incremental gather"
            );
        }
    }
}

/// Clearing a stamp and re-hashing a slowly adapting array keeps ghost slots stable, so a
/// schedule rebuilt every "timestep" reuses the translation work — the CHARMM non-bonded
/// update pattern (§4.1).
#[test]
fn clear_and_rehash_reuses_ghost_slots_across_timesteps() {
    let n = 60;
    let out = run(MachineConfig::new(4), move |rank| {
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
        let s = Stamp::new(2);
        let start = dist.local_range(rank.rank()).end;
        let mut pattern: Vec<usize> = (0..10).map(|k| (start + k) % n).collect();
        let mut ghost_sizes = Vec::new();
        let mut fetches = Vec::new();
        for step in 0..5 {
            hash.clear_stamp(s);
            // One reference drifts per step; the other nine are unchanged.
            pattern[step] = (pattern[step] + 10) % n;
            hash.hash_in_replicated(rank, &ttable, &pattern, s);
            let sched = build_schedule_from_table(rank, &hash, StampQuery::single(s));
            ghost_sizes.push(hash.ghost_len());
            fetches.push(sched.total_fetch());
        }
        (ghost_sizes, fetches)
    });
    for (ghost_sizes, fetches) in &out.results {
        // Each step adds at most one genuinely new off-processor element to the table.
        for w in ghost_sizes.windows(2) {
            assert!(
                w[1] - w[0] <= 1,
                "ghost region must grow by at most the drifted reference: {ghost_sizes:?}"
            );
        }
        // Every per-step schedule still fetches only what the current pattern needs.
        for f in fetches {
            assert!(*f <= 10);
        }
    }
}
