//! Cross-crate integration tests: the CHAOS runtime driving full irregular-loop scenarios
//! end to end on the simulated machine, checked against sequential references.

use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, MachineConfig};

/// The Figure 1 loop (x(ia(i)) += y(ib(i))) evaluated over several machine sizes and an
/// adapting indirection array, with schedule regeneration between phases.
#[test]
fn figure1_loop_with_adaptation_matches_sequential() {
    let n = 240;
    for &nprocs in &[1usize, 3, 7, 16] {
        let ia0: Vec<usize> = (0..n).map(|i| (i * 7 + 1) % n).collect();
        let ib: Vec<usize> = (0..n).map(|i| (i * 11 + 5) % n).collect();
        // The access pattern adapts after the first phase, as in an adaptive application.
        let ia1: Vec<usize> = ia0.iter().map(|&v| (v + 3) % n).collect();

        // Sequential reference: two phases with different patterns.
        let mut x_seq = vec![0.5f64; n];
        let y_seq: Vec<f64> = (0..n).map(|g| (g as f64).cos()).collect();
        for i in 0..n {
            x_seq[ia0[i]] += y_seq[ib[i]];
        }
        for i in 0..n {
            x_seq[ia1[i]] += y_seq[ib[i]] * 2.0;
        }

        let (ia0c, ia1c, ibc) = (ia0.clone(), ia1.clone(), ib.clone());
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let dist = BlockDist::new(n, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let my_iters: Vec<usize> = dist.local_globals(rank.rank()).collect();
            let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
            let s_ia = Stamp::new(0);
            let s_ib = Stamp::new(1);

            let my_ib: Vec<usize> = my_iters.iter().map(|&i| ibc[i]).collect();
            let refs_ib = hash.hash_in_replicated(rank, &ttable, &my_ib, s_ib);

            let owned = dist.local_size(rank.rank());
            let mut x = DistArray::new(vec![0.5f64; owned], 0);
            let mut y = DistArray::new(
                dist.local_globals(rank.rank())
                    .map(|g| (g as f64).cos())
                    .collect(),
                0,
            );

            // Phase 1 with ia0.
            let my_ia: Vec<usize> = my_iters.iter().map(|&i| ia0c[i]).collect();
            let refs_ia = hash.hash_in_replicated(rank, &ttable, &my_ia, s_ia);
            let sched = build_schedule_from_table(rank, &hash, StampQuery::any_of(&[s_ia, s_ib]));
            x.ensure_ghost(sched.ghost_len());
            y.ensure_ghost(sched.ghost_len());
            gather(rank, &sched, &mut y);
            for (ra, rb) in refs_ia.iter().zip(&refs_ib) {
                let v = y[*rb];
                x[*ra] += v;
            }
            scatter_add(rank, &sched, &mut x);
            x.clear_ghost();

            // The pattern adapts: clear the stamp, re-hash, rebuild the schedule.
            hash.clear_stamp(s_ia);
            let my_ia: Vec<usize> = my_iters.iter().map(|&i| ia1c[i]).collect();
            let refs_ia = hash.hash_in_replicated(rank, &ttable, &my_ia, s_ia);
            let sched = build_schedule_from_table(rank, &hash, StampQuery::any_of(&[s_ia, s_ib]));
            x.ensure_ghost(sched.ghost_len());
            y.ensure_ghost(sched.ghost_len());
            gather(rank, &sched, &mut y);
            for (ra, rb) in refs_ia.iter().zip(&refs_ib) {
                let v = y[*rb] * 2.0;
                x[*ra] += v;
            }
            scatter_add(rank, &sched, &mut x);

            (
                dist.local_globals(rank.rank()).collect::<Vec<_>>(),
                x.owned().to_vec(),
            )
        });

        let mut x_par = vec![0.0f64; n];
        for (globals, values) in &out.results {
            for (g, v) in globals.iter().zip(values) {
                x_par[*g] = *v;
            }
        }
        for (a, b) in x_par.iter().zip(&x_seq) {
            assert!((a - b).abs() < 1e-9, "nprocs={nprocs}: {a} vs {b}");
        }
    }
}

/// Full phase-A-to-F pipeline with an irregular distribution produced by RCB, remapping,
/// and the translation table built from RCB's map used for the remap lookups.
#[test]
fn partition_remap_execute_pipeline() {
    let n = 300;
    let nprocs = 6;
    let out = run(MachineConfig::new(nprocs), move |rank| {
        // Element coordinates on a ring, weights increasing with the index.
        let block = BlockDist::new(n, rank.nprocs());
        let my_block: Vec<usize> = block.local_globals(rank.rank()).collect();
        let coords: Vec<[f64; 3]> = my_block
            .iter()
            .map(|&g| {
                let t = g as f64 / n as f64 * std::f64::consts::TAU;
                [t.cos(), t.sin(), 0.0]
            })
            .collect();
        let weights: Vec<f64> = my_block.iter().map(|&g| 1.0 + (g % 5) as f64).collect();
        let parts = rcb_partition(rank, PartitionInput::new(&coords, &weights), rank.nprocs());

        // Build the translation table from the new map and remap the data.
        let mut table = TranslationTable::replicated_from_map(rank, &parts, &block).unwrap();
        let values: Vec<f64> = my_block.iter().map(|&g| g as f64 * 1.5).collect();
        let plan = build_remap(rank, &my_block, &mut table);
        let new_values = remap_values(rank, &plan, &values, f64::NAN);
        let owned_globals = table.owned_globals(rank);
        assert_eq!(new_values.len(), owned_globals.len());
        // Every remapped value must still equal 1.5 * its global index.
        let consistent = owned_globals
            .iter()
            .zip(&new_values)
            .all(|(&g, &v)| (v - g as f64 * 1.5).abs() < 1e-12);
        (consistent, owned_globals.len())
    });
    let mut total = 0;
    for (consistent, owned) in &out.results {
        assert!(consistent);
        total += owned;
    }
    assert_eq!(total, n, "every element must end up owned exactly once");
}

/// Incremental schedules only move the data earlier schedules did not already bring in,
/// and the combination covers exactly the union (Figure 6's sched_A / inc_schedB).
#[test]
fn incremental_schedules_cover_the_union_without_duplication() {
    let n = 64;
    let out = run(MachineConfig::new(4), move |rank| {
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
        let sa = Stamp::new(0);
        let sb = Stamp::new(1);
        let me = rank.rank();
        let a: Vec<usize> = (0..24).map(|k| (me * 16 + k * 3) % n).collect();
        let b: Vec<usize> = (0..24).map(|k| (me * 16 + k * 3 + 1) % n).collect();
        hash.hash_in_replicated(rank, &ttable, &a, sa);
        let sched_a = build_schedule_from_table(rank, &hash, StampQuery::single(sa));
        hash.hash_in_replicated(rank, &ttable, &b, sb);
        let inc_b = build_schedule_from_table(rank, &hash, StampQuery::minus(&[sb], &[sa]));
        let merged = build_schedule_from_table(rank, &hash, StampQuery::any_of(&[sa, sb]));
        (
            sched_a.total_fetch(),
            inc_b.total_fetch(),
            merged.total_fetch(),
        )
    });
    for (a_fetch, inc_fetch, merged_fetch) in &out.results {
        assert_eq!(a_fetch + inc_fetch, *merged_fetch);
    }
}
