//! Integration tests of incremental schedule maintenance through its one public path,
//! [`ScheduleCache`]: patched [`CommSchedule`]s must be byte-identical to from-scratch
//! rebuilds at every machine size, through regular *and* irregular translation tables,
//! across seeded drift sequences and empty deltas; a `clear_all` must rebuild in place;
//! and the cache must never serve a stale schedule, including after `clear_stamp` and
//! after an eviction forces a rebuild.

use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, MachineConfig};

/// The splitmix-style stream used by every drift sequence here (and by the delta
/// benchmarks): deterministic, seedable, and different per rank.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Drive one rank's patch-vs-rebuild lockstep for `rounds` rounds of seeded drift and
/// return whether every round's patched schedule equalled the rebuild byte for byte and
/// was current afterwards (the next request a hit).
fn drift_lockstep(
    rank: &mut chaos_suite::mpsim::Rank,
    nglobals: usize,
    nrefs: usize,
    rounds: usize,
    drift_per_round: usize,
    seed: u64,
) -> bool {
    let me = rank.rank();
    let dist = BlockDist::new(nglobals, rank.nprocs());
    let ttable = TranslationTable::from_regular(&dist);
    let mut hash = IndexHashTable::new(me, dist.local_size(me));
    let stamp = Stamp::new(0);
    let query = StampQuery::single(stamp);
    let mut cache = ScheduleCache::new(1);

    let mut rng = seed.wrapping_add(me as u64 * 0x9E37_79B9);
    let mut refs: Vec<usize> = (0..nrefs)
        .map(|_| lcg(&mut rng) as usize % nglobals)
        .collect();
    hash.hash_in_replicated(rank, &ttable, &refs, stamp);
    let (built, outcome) = cache.schedule(rank, &hash, query);
    let built = built.clone();
    let mut identical =
        outcome == CacheOutcome::Missed && built == build_schedule_from_table(rank, &hash, query);

    for _ in 0..rounds {
        for _ in 0..drift_per_round {
            let at = lcg(&mut rng) as usize % refs.len();
            refs[at] = lcg(&mut rng) as usize % nglobals;
        }
        hash.clear_stamp(stamp);
        hash.hash_in_replicated(rank, &ttable, &refs, stamp);
        let (patched, outcome) = cache.schedule(rank, &hash, query);
        let patched = patched.clone();
        identical &= matches!(outcome, CacheOutcome::Patched(_));
        identical &= patched == build_schedule_from_table(rank, &hash, query);
        identical &= cache.schedule(rank, &hash, query).1 == CacheOutcome::Hit;
    }
    identical
}

/// Satellite (a): the byte-identity battery over machine sizes.  P = 1 exercises the
/// no-ghost degenerate case, P = 48 a machine larger than any reference set's fan-out.
#[test]
fn patched_schedule_is_byte_identical_to_rebuild_across_machine_sizes() {
    for &nprocs in &[1usize, 2, 8, 48] {
        let out = run(MachineConfig::new(nprocs), move |rank| {
            drift_lockstep(rank, 96 * rank.nprocs(), 128, 6, 9, 0xC0FFEE)
        });
        for (r, ok) in out.results.iter().enumerate() {
            assert!(
                *ok,
                "P = {nprocs}: rank {r} saw a patched/rebuilt divergence"
            );
        }
    }
}

/// Satellite (a), empty-delta edge cases: a request against an unchanged table is a free
/// hit (no communication), and a request after re-hashing *identical* contents (key
/// changed, selection unchanged) patches with zero edits yet brings the key current.
#[test]
fn empty_deltas_cost_nothing_and_ship_no_edits() {
    let out = run(MachineConfig::new(4), |rank| {
        let me = rank.rank();
        let dist = BlockDist::new(64, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(me, dist.local_size(me));
        let s = Stamp::new(3);
        let q = StampQuery::single(s);
        let refs: Vec<usize> = (0..16).map(|k| (me * 16 + k * 3) % 64).collect();
        hash.hash_in_replicated(rank, &ttable, &refs, s);
        let mut cache = ScheduleCache::new(1);
        cache.schedule(rank, &hash, q);

        // Unchanged table: the hit path must not touch the network.
        let msgs_before = rank.stats().msgs_sent;
        let noop = cache.schedule(rank, &hash, q).1;
        let noop_msgs = rank.stats().msgs_sent - msgs_before;

        // Re-hash the same references: the version key moves, the selection does not.
        hash.clear_stamp(s);
        hash.hash_in_replicated(rank, &ttable, &refs, s);
        let (patched, refresh) = cache.schedule(rank, &hash, q);
        let patched = patched.clone();
        let rebuilt = build_schedule_from_table(rank, &hash, q);
        let current = cache.schedule(rank, &hash, q).1 == CacheOutcome::Hit;
        (noop, noop_msgs, refresh, patched == rebuilt, current)
    });
    for (noop, noop_msgs, refresh, identical, current) in &out.results {
        assert_eq!(*noop, CacheOutcome::Hit, "an up-to-date schedule is a hit");
        assert_eq!(*noop_msgs, 0, "the hit path must not communicate");
        let CacheOutcome::Patched(refresh) = refresh else {
            panic!("re-hashing must advance the version key, so the request patches");
        };
        assert_eq!(
            refresh.edits_sent + refresh.edits_received,
            0,
            "identical contents must produce an empty edit script"
        );
        assert!(*identical, "zero-edit patch must still match the rebuild");
        assert!(*current, "the refreshed key must match the table again");
    }
}

/// Satellite (a), full replacement: after [`IndexHashTable::clear_all`] the epoch moves
/// and nothing of the old table survives, so the cache rebuilds the entry where it
/// stands — a miss that evicts nothing, byte-identical to a fresh build and sending
/// exactly a fresh build's messages (no patch routing round).
#[test]
fn clear_all_rebuilds_in_place_as_a_miss() {
    let out = run(MachineConfig::new(8), |rank| {
        let me = rank.rank();
        let dist = BlockDist::new(128, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(me, dist.local_size(me));
        let (sa, sb) = (Stamp::new(0), Stamp::new(1));
        let q = StampQuery::single(sa);
        let first: Vec<usize> = (0..24).map(|k| (me * 16 + k * 5) % 128).collect();
        hash.hash_in_replicated(rank, &ttable, &first, sa);
        hash.hash_in_replicated(rank, &ttable, &first, sb);
        let mut cache = ScheduleCache::new(2);
        cache.schedule(rank, &hash, q);
        cache.schedule(rank, &hash, StampQuery::single(sb));
        let before = cache.stats();

        // Full replacement: wipe the table (epoch bump) and hash a disjoint-ish pattern.
        hash.clear_all(dist.local_size(me));
        let second: Vec<usize> = (0..24).map(|k| (me * 16 + k * 7 + 2) % 128).collect();
        hash.hash_in_replicated(rank, &ttable, &second, sa);
        let msgs_before = rank.stats().msgs_sent;
        let (sched, outcome) = cache.schedule(rank, &hash, q);
        let sched = sched.clone();
        let cache_msgs = rank.stats().msgs_sent - msgs_before;
        let msgs_before = rank.stats().msgs_sent;
        let rebuilt = build_schedule_from_table(rank, &hash, q);
        let build_msgs = rank.stats().msgs_sent - msgs_before;
        let after = cache.stats();
        (
            outcome,
            before,
            after,
            cache.len(),
            sched == rebuilt,
            cache_msgs,
            build_msgs,
        )
    });
    for (outcome, before, after, len, identical, cache_msgs, build_msgs) in &out.results {
        assert_eq!(
            *outcome,
            CacheOutcome::Missed,
            "a cleared table must rebuild"
        );
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.patches, before.patches);
        assert_eq!(
            after.evictions, before.evictions,
            "rebuilt in place, not inserted"
        );
        assert_eq!(*len, 2, "both entries stay cached");
        assert!(*identical, "the rebuild must equal a from-scratch build");
        assert_eq!(
            cache_msgs, build_msgs,
            "a rebuild sends a fresh build's messages"
        );
    }
}

/// Satellite (a), irregular translation: drift hashed through a table built from an
/// irregular map (owners in stripes, offsets numbered per owner) patches to the same
/// bytes as a rebuild.
#[test]
fn irregular_translation_drift_patches_byte_identically() {
    let nglobals = 256usize;
    let out = run(MachineConfig::new(8), move |rank| {
        let me = rank.rank();
        let nprocs = rank.nprocs();
        let map_dist = BlockDist::new(nglobals, nprocs);
        // An irregular ownership map: stripes of 8, striding over the ranks.
        let local_map: Vec<ProcId> = map_dist
            .local_globals(me)
            .map(|g| (g / 8) % nprocs)
            .collect();
        let ttable =
            TranslationTable::replicated_from_map(rank, &local_map, &map_dist).expect("valid map");
        let owned = ttable.local_size(me);
        let mut hash = IndexHashTable::new(me, owned);
        let mut control_hash = IndexHashTable::new(me, owned);
        let s = Stamp::new(1);
        let q = StampQuery::single(s);

        let mut rng = 0xBADD_CAFEu64.wrapping_add(me as u64);
        let mut refs: Vec<usize> = (0..48).map(|_| lcg(&mut rng) as usize % nglobals).collect();
        hash.hash_in_replicated(rank, &ttable, &refs, s);
        control_hash.hash_in_replicated(rank, &ttable, &refs, s);
        let mut cache = ScheduleCache::new(1);
        cache.schedule(rank, &hash, q);
        let mut identical = true;
        for _ in 0..4 {
            for _ in 0..6 {
                let at = lcg(&mut rng) as usize % refs.len();
                refs[at] = lcg(&mut rng) as usize % nglobals;
            }
            hash.clear_stamp(s);
            hash.hash_in_replicated(rank, &ttable, &refs, s);
            control_hash.clear_stamp(s);
            control_hash.hash_in_replicated(rank, &ttable, &refs, s);
            let patched = cache.schedule(rank, &hash, q).0.clone();
            identical &= patched == build_schedule_from_table(rank, &control_hash, q);
        }
        (identical, cache.stats())
    });
    for (identical, stats) in &out.results {
        assert!(*identical, "irregular-map drift must patch to the rebuild");
        assert_eq!((stats.misses, stats.patches), (1, 4));
    }
}

/// Satellite (b): the deterministic cache property sweep.  Whatever mixture of drift,
/// stamp clearing and repeated queries hits the cache, the schedule it returns must
/// equal a from-scratch rebuild against the current table — a cache hit after
/// `clear_stamp` would be stale, and the version keys must prevent it.
#[test]
fn cache_never_serves_a_stale_schedule_through_drift_and_clears() {
    let out = run(MachineConfig::new(8), |rank| {
        let me = rank.rank();
        let nglobals = 32 * rank.nprocs();
        let dist = BlockDist::new(nglobals, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(me, dist.local_size(me));
        let (sa, sb) = (Stamp::new(0), Stamp::new(1));
        let mut cache = ScheduleCache::new(2);
        let mut rng = 0x5EED_u64.wrapping_add(me as u64 * 31);
        let fixed: Vec<usize> = (0..nglobals).step_by(5).collect();
        hash.hash_in_replicated(rank, &ttable, &fixed, sb);

        let mut always_fresh = true;
        let mut hit_seen = false;
        let mut patch_seen = false;
        for round in 0..6 {
            let drifting: Vec<usize> = (0..40).map(|_| lcg(&mut rng) as usize % nglobals).collect();
            hash.clear_stamp(sa);
            hash.hash_in_replicated(rank, &ttable, &drifting, sa);
            for q in [StampQuery::single(sa), StampQuery::single(sb)] {
                let (sched, outcome) = cache.schedule(rank, &hash, q);
                let sched = sched.clone();
                match outcome {
                    CacheOutcome::Hit => hit_seen = true,
                    CacheOutcome::Patched(_) => patch_seen = true,
                    CacheOutcome::Missed => {}
                }
                always_fresh &= sched == build_schedule_from_table(rank, &hash, q);
            }
            if round == 3 {
                // Clear the *static* stamp too: its cached schedule is now stale and the
                // next query must patch it rather than hit.
                hash.clear_stamp(sb);
                hash.hash_in_replicated(rank, &ttable, &fixed, sb);
            }
        }
        (always_fresh, hit_seen, patch_seen, cache.stats())
    });
    for (always_fresh, hit_seen, patch_seen, stats) in &out.results {
        assert!(*always_fresh, "a cached schedule diverged from the rebuild");
        assert!(
            *hit_seen,
            "the static stamp should have produced cache hits"
        );
        assert!(*patch_seen, "the drifting stamp should have patched");
        assert_eq!(stats.misses, 2, "one miss per distinct query");
        assert!(stats.evictions == 0, "capacity 2 holds both live queries");
    }
}

/// Satellite (b), the negative test: evicting an entry forgets it, so re-querying the
/// evicted stamp is a miss that *rebuilds* — and the rebuilt schedule equals what the
/// cache would have produced had it never evicted.
#[test]
fn evicted_stamp_forces_a_rebuild_with_an_identical_result() {
    let out = run(MachineConfig::new(4), |rank| {
        let me = rank.rank();
        let nglobals = 32 * rank.nprocs();
        let dist = BlockDist::new(nglobals, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(me, dist.local_size(me));
        let (sa, sb) = (Stamp::new(0), Stamp::new(1));
        let a: Vec<usize> = (0..nglobals).step_by(3).collect();
        let b: Vec<usize> = (1..nglobals).step_by(4).collect();
        hash.hash_in_replicated(rank, &ttable, &a, sa);
        hash.hash_in_replicated(rank, &ttable, &b, sb);

        // Capacity 1: every alternation evicts the other query's entry.
        let mut cache = ScheduleCache::new(1);
        let (first_a, m1) = {
            let (s, o) = cache.schedule(rank, &hash, StampQuery::single(sa));
            (s.clone(), o)
        };
        let (_, m2) = cache.schedule(rank, &hash, StampQuery::single(sb));
        // sa was evicted: this must be a fresh miss, not a hit on stale state...
        let (second_a, m3) = {
            let (s, o) = cache.schedule(rank, &hash, StampQuery::single(sa));
            (s.clone(), o)
        };
        // ...and the table is unchanged, so the result must be bit-for-bit the same.
        (
            matches!(m1, CacheOutcome::Missed),
            matches!(m2, CacheOutcome::Missed),
            matches!(m3, CacheOutcome::Missed),
            first_a == second_a,
            cache.stats(),
        )
    });
    for (m1, m2, m3, same, stats) in &out.results {
        assert!(*m1 && *m2, "distinct queries must each miss");
        assert!(
            *m3,
            "an evicted entry must be forgotten — re-query is a miss, never a stale hit"
        );
        assert!(
            *same,
            "rebuild after eviction must reproduce the schedule exactly"
        );
        assert_eq!(stats.misses, 3);
        assert_eq!(
            stats.evictions, 2,
            "capacity-1 cache evicts on each new query"
        );
        assert_eq!(stats.hits, 0);
    }
}
