//! Property-style tests of the core CHAOS invariants.
//!
//! These were originally written against `proptest`; the build environment has no crates
//! registry, so each property is checked over a deterministic sweep of sizes, processor
//! counts and seeds instead of randomly drawn cases.  The invariants are unchanged.

use chaos_suite::chaos::distribution::{BlockDist, CyclicDist, RegularDist};
use chaos_suite::chaos::partitioners::weighted_median_split;
use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, CostModel, MachineConfig};

/// A tiny deterministic value stream for generating test cases.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Block and cyclic distributions are bijections between global indices and
/// (owner, offset) pairs, for a sweep of sizes and processor counts.
#[test]
fn regular_distributions_are_bijections() {
    for &n in &[0usize, 1, 7, 64, 129, 500] {
        for &p in &[1usize, 2, 3, 8, 13, 39] {
            for owner_offset in [
                (0..n)
                    .map(|g| {
                        let d = BlockDist::new(n, p);
                        (d.owner(g), d.local_offset(g))
                    })
                    .collect::<Vec<_>>(),
                (0..n)
                    .map(|g| {
                        let d = CyclicDist::new(n, p);
                        (d.owner(g), d.local_offset(g))
                    })
                    .collect::<Vec<_>>(),
            ] {
                let mut seen = std::collections::HashSet::new();
                for &(o, l) in &owner_offset {
                    assert!(o < p);
                    assert!(
                        seen.insert((o, l)),
                        "duplicate (owner, offset) for n={n} p={p}"
                    );
                }
            }
        }
    }
}

/// A weighted median split never loses elements, keeps both sides non-empty (when it
/// can), and puts between 0 and 100% of the weight on the left.
#[test]
fn weighted_median_split_is_a_partition() {
    for seed in 0..32u64 {
        let n = 1 + (mix(seed, 0) % 59) as usize;
        let keys: Vec<f64> = (0..n)
            .map(|i| unit_f64(seed, i as u64) * 2e3 - 1e3)
            .collect();
        let weights: Vec<f64> = (0..n)
            .map(|i| 0.01 + unit_f64(seed, 1000 + i as u64) * 9.99)
            .collect();
        let target = unit_f64(seed, 31);
        let left = weighted_median_split(&keys, &weights, target);
        assert_eq!(left.len(), n);
        let left_count = left.iter().filter(|&&b| b).count();
        assert!(left_count >= 1);
        if n >= 2 {
            assert!(
                left_count < n,
                "the right side must stay non-empty (seed {seed})"
            );
        }
    }
}

/// Gather brings every referenced element's value in and leaves the owned elements
/// unchanged, and a gather + increment + scatter_add adds exactly the number of ranks referencing each
/// element — for a sweep of sizes, machine widths and access patterns.
#[test]
fn gather_scatter_round_trip_and_reduction() {
    for case in 0..12u64 {
        let n = 8 + (mix(case, 0) % 72) as usize;
        let nprocs = 1 + (mix(case, 1) % 5) as usize;
        let pattern_seed = mix(case, 2) % 1_000;
        let out = run(
            MachineConfig::new(nprocs).with_cost(CostModel::uniform(0.0, 0.0, 0.0)),
            move |rank| {
                let dist = BlockDist::new(n, rank.nprocs());
                let ttable = TranslationTable::from_regular(&dist);
                let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
                // Every rank references a pseudo-random half of the elements.
                let pattern: Vec<usize> = (0..n)
                    .filter(|g| {
                        (g.wrapping_mul(2654435761) as u64 ^ pattern_seed).is_multiple_of(2)
                    })
                    .collect();
                let refs = hash.hash_in_replicated(rank, &ttable, &pattern, Stamp::new(0));
                let sched =
                    build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(0)));
                let owned: Vec<f64> = dist
                    .local_globals(rank.rank())
                    .map(|g| g as f64 + 0.25)
                    .collect();
                let before = owned.clone();
                let mut x = DistArray::new(owned, sched.ghost_len());
                gather(rank, &sched, &mut x);
                // Every reference now reads its global element's value, owned untouched.
                let gather_ok = x.owned() == &before[..]
                    && refs
                        .iter()
                        .zip(&pattern)
                        .all(|(&r, &g)| x[r] == g as f64 + 0.25);
                // Reduction: add 1 through every reference, fold back.
                x.clear_ghost();
                for &r in &refs {
                    x[r] += 1.0;
                }
                scatter_add(rank, &sched, &mut x);
                let owned_globals: Vec<usize> = dist.local_globals(rank.rank()).collect();
                (
                    gather_ok,
                    owned_globals,
                    before,
                    x.owned().to_vec(),
                    pattern,
                )
            },
        );
        // Every rank uses the same pattern, so each referenced element must have gained
        // exactly `nprocs`, every other element exactly 0.
        let pattern = &out.results[0].4;
        for (gather_ok, owned_globals, before, after, _) in &out.results {
            assert!(*gather_ok, "gather failed for case {case}");
            for ((g, b), a) in owned_globals.iter().zip(before).zip(after) {
                let expected = if pattern.contains(g) {
                    b + nprocs as f64
                } else {
                    *b
                };
                assert!((a - expected).abs() < 1e-9, "case {case}: element {g}");
            }
        }
    }
}

/// scatter_append conserves the multiset of items and routes every item to the rank
/// that was asked for, for a sweep of destination assignments.
#[test]
fn scatter_append_conserves_and_routes() {
    for case in 0..12u64 {
        let nprocs = 1 + (mix(case, 10) % 5) as usize;
        let dests_seed = mix(case, 11) % 1_000;
        let items_per_rank = (mix(case, 12) % 40) as usize;
        let out = run(
            MachineConfig::new(nprocs).with_cost(CostModel::uniform(0.0, 0.0, 0.0)),
            move |rank| {
                let me = rank.rank();
                let items: Vec<u64> = (0..items_per_rank)
                    .map(|k| (me * 10_000 + k) as u64)
                    .collect();
                let dests: Vec<usize> = (0..items_per_rank)
                    .map(|k| (((k as u64 * 2654435761) ^ dests_seed) % nprocs as u64) as usize)
                    .collect();
                let sched = LightweightSchedule::build(rank, &dests);
                let got = scatter_append(rank, &sched, &items);
                (got, dests)
            },
        );
        // Conservation of the multiset.
        let mut all: Vec<u64> = out.results.iter().flat_map(|(g, _)| g.clone()).collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..nprocs)
            .flat_map(|me| (0..items_per_rank).map(move |k| (me * 10_000 + k) as u64))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected, "multiset not conserved for case {case}");
        // Routing: every item landed on the destination its sender chose (destinations
        // are identical on every rank because the seed is shared).
        let dests = &out.results[0].1;
        for (p, (got, _)) in out.results.iter().enumerate() {
            for item in got {
                let k = (item % 10_000) as usize;
                assert_eq!(dests[k], p, "case {case}: item {item} misrouted");
            }
        }
    }
}

/// Remapping to an arbitrary valid owner map preserves every value and places it at
/// the location the new translation table dictates.
#[test]
fn remap_preserves_values_for_arbitrary_maps() {
    for case in 0..12u64 {
        let n = 4 + (mix(case, 20) % 116) as usize;
        let nprocs = 1 + (mix(case, 21) % 5) as usize;
        let map_seed = mix(case, 22) % 1_000;
        let out = run(
            MachineConfig::new(nprocs).with_cost(CostModel::uniform(0.0, 0.0, 0.0)),
            move |rank| {
                let block = BlockDist::new(n, rank.nprocs());
                let my_block: Vec<usize> = block.local_globals(rank.rank()).collect();
                let local_map: Vec<usize> = my_block
                    .iter()
                    .map(|&g| ((g as u64 * 48271 + map_seed) % rank.nprocs() as u64) as usize)
                    .collect();
                let mut table =
                    TranslationTable::replicated_from_map(rank, &local_map, &block).unwrap();
                let values: Vec<f64> = my_block.iter().map(|&g| g as f64 * 2.0 + 1.0).collect();
                let plan = build_remap(rank, &my_block, &mut table);
                let new_values = remap_values(rank, &plan, &values, f64::NAN);
                let owned_globals = table.owned_globals(rank);
                owned_globals
                    .iter()
                    .zip(&new_values)
                    .all(|(&g, &v)| (v - (g as f64 * 2.0 + 1.0)).abs() < 1e-12)
            },
        );
        assert!(out.results.iter().all(|&ok| ok), "case {case}");
    }
}

/// The parallel partitioners assign every element a part in range, and the chain
/// partitioner's parts are monotone along the axis.
#[test]
fn partitioners_produce_valid_assignments() {
    for case in 0..8u64 {
        let nprocs = 1 + (mix(case, 30) % 5) as usize;
        let nparts = 1 + (mix(case, 31) % 8) as usize;
        let npoints = 1 + (mix(case, 32) % 49) as usize;
        let seed = mix(case, 33) % 500;
        let out = run(
            MachineConfig::new(nprocs).with_cost(CostModel::uniform(0.0, 0.0, 0.0)),
            move |rank| {
                let me = rank.rank() as u64;
                let coords: Vec<[f64; 3]> = (0..npoints)
                    .map(|i| {
                        let s = (i as u64 * 7919 + me * 104729 + seed) as f64;
                        [
                            (s * 0.37).fract() * 8.0,
                            (s * 0.61).fract() * 8.0,
                            (s * 0.17).fract() * 8.0,
                        ]
                    })
                    .collect();
                let weights = vec![1.0f64; npoints];
                let rcb = rcb_partition(rank, PartitionInput::new(&coords, &weights), nparts);
                let xs: Vec<f64> = coords.iter().map(|c| c[0]).collect();
                let chain = chain_partition(rank, &xs, &weights, nparts);
                (rcb, chain, xs)
            },
        );
        for (rcb, chain, xs) in &out.results {
            assert!(rcb.iter().all(|&p| p < nparts), "case {case}");
            assert!(chain.iter().all(|&p| p < nparts), "case {case}");
            for i in 0..xs.len() {
                for j in 0..xs.len() {
                    if xs[i] < xs[j] {
                        assert!(
                            chain[i] <= chain[j],
                            "case {case}: chain parts must be monotone in x"
                        );
                    }
                }
            }
        }
    }
}
