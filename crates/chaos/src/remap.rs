//! Remapping data and indirection arrays between distributions (Phases B and D).
//!
//! When a partitioner produces a new irregular distribution, every array aligned with the
//! repartitioned template must move: the paper's `remap` procedure builds an optimized
//! communication schedule for the move and `gather`/`scatter`-style primitives execute it.
//! Here the plan construction ([`build_remap`]) and the data movement
//! ([`remap_values`] / [`remap_indices`]) are separated for the same reason the inspector
//! and executor are: CHARMM remaps several data arrays (coordinates, forces, displacement
//! arrays) with the *same* plan, paying the analysis once.

use mpsim::{alltoallv_with, Element, ExchangePlan, PackBuf, Placed, Rank};

use crate::translation::TranslationTable;
use crate::{Global, ProcId};

/// A reusable plan for moving an array from one distribution to another.
#[derive(Debug, Clone)]
pub struct RemapPlan {
    nprocs: usize,
    my_rank: ProcId,
    /// `send_old_offsets[p]` — old local offsets (into the array being remapped) of the
    /// elements this rank must send to processor `p`, in packing order.
    send_old_offsets: Vec<Vec<u32>>,
    /// `recv_placements[p]` — new local offsets at which the elements received from
    /// processor `p` are stored, in `p`'s packing order.
    recv_placements: Vec<Vec<u32>>,
    /// Size of this rank's local section under the new distribution.
    new_local_size: usize,
}

impl RemapPlan {
    /// Number of elements this rank sends away (excluding elements it keeps).
    pub fn total_send(&self) -> usize {
        self.send_old_offsets
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != self.my_rank)
            .map(|(_, l)| l.len())
            .sum()
    }

    /// Number of elements this rank receives from other ranks.
    pub fn total_recv(&self) -> usize {
        self.recv_placements
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != self.my_rank)
            .map(|(_, l)| l.len())
            .sum()
    }

    /// Size of the local section under the new distribution.
    pub fn new_local_size(&self) -> usize {
        self.new_local_size
    }

    /// The exchange plan that executes this remap: old-offset lists out, placement lists
    /// in.  The kept (self → self) portion never enters the plan — [`remap_values`]
    /// places it straight from the old local section.
    pub fn exchange_plan(&self) -> ExchangePlan {
        let mut send_counts: Vec<usize> = self.send_old_offsets.iter().map(Vec::len).collect();
        send_counts[self.my_rank] = 0;
        let mut recv_counts: Vec<usize> = self.recv_placements.iter().map(Vec::len).collect();
        recv_counts[self.my_rank] = 0;
        ExchangePlan::sparse(self.my_rank, send_counts, recv_counts)
    }
}

/// Build a remap plan for an array whose elements this rank currently owns.
///
/// `old_owned_globals[l]` is the global index of the element stored at old local offset
/// `l`; `new_table` describes the target distribution.  Collective: one all-to-all of
/// placement lists (the translation lookups are local, so `new_table` need not be `&mut`;
/// the benchmark package compiles against this signature).
pub fn build_remap(
    rank: &mut Rank,
    old_owned_globals: &[Global],
    new_table: &mut TranslationTable,
) -> RemapPlan {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    rank.charge_compute(old_owned_globals.len() as f64 * 0.1);
    let mut send_old_offsets: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
    let mut send_new_offsets: Vec<Vec<u64>> = vec![Vec::new(); nprocs];
    for (l, &g) in old_owned_globals.iter().enumerate() {
        let loc = new_table.lookup(g);
        let dest = loc.owner as usize;
        let l = u32::try_from(l)
            .unwrap_or_else(|_| panic!("rank {me}: old local offset {l} does not fit u32"));
        send_old_offsets[dest].push(l);
        send_new_offsets[dest].push(u64::from(loc.offset));
    }
    // Tell every destination where (in its new local numbering) to place what we send it.
    let incoming_placements = rank.all_to_all(&send_new_offsets);
    let recv_placements: Vec<Vec<u32>> = incoming_placements
        .into_iter()
        .enumerate()
        .map(|(p, v)| {
            v.into_iter()
                .map(|o| {
                    u32::try_from(o).unwrap_or_else(|_| {
                        panic!("rank {me}: peer {p} sent new offset {o}, beyond u32")
                    })
                })
                .collect()
        })
        .collect();
    RemapPlan {
        nprocs,
        my_rank: me,
        send_old_offsets,
        recv_placements,
        new_local_size: new_table.local_size(me),
    }
}

/// Execute a remap plan on an array of values, returning the new local section (with
/// `fill` in any slot the plan does not cover — normally none).
pub fn remap_values<T: Element>(
    rank: &mut Rank,
    plan: &RemapPlan,
    old_local: &[T],
    fill: T,
) -> Vec<T> {
    assert_eq!(plan.nprocs, rank.nprocs(), "plan/machine size mismatch");
    assert_eq!(
        plan.my_rank,
        rank.rank(),
        "plan belongs to a different rank"
    );
    let me = plan.my_rank;
    let eplan = plan.exchange_plan();
    // The kept portion skips the engine and is placed straight from the old local section;
    // every other destination's elements are packed into its message in old-offset order.
    let mut new_local = vec![fill; plan.new_local_size];
    for (&old_off, &new_off) in plan.send_old_offsets[me]
        .iter()
        .zip(&plan.recv_placements[me])
    {
        new_local[new_off as usize] = old_local[old_off as usize];
    }
    alltoallv_with(
        rank,
        &eplan,
        |p, buf: &mut PackBuf<'_, T>| {
            for &l in &plan.send_old_offsets[p] {
                buf.push(old_local[l as usize]);
            }
        },
        // Placement only copies each value to its new offset, so the borrowed view
        // suffices and the remap loop's receive path stays allocation-free.
        |src, values: Placed<'_, T>| {
            debug_assert_eq!(
                values.len(),
                plan.recv_placements[src].len(),
                "remap: receive count mismatch from processor {src}"
            );
            for (&new_off, &v) in plan.recv_placements[src].iter().zip(values.iter()) {
                new_local[new_off as usize] = v;
            }
        },
    );
    new_local
}

/// Execute a remap plan on an array of indices (a convenience wrapper over
/// [`remap_values`] for `usize` payloads such as indirection arrays).
pub fn remap_indices(rank: &mut Rank, plan: &RemapPlan, old_local: &[usize]) -> Vec<usize> {
    remap_values(rank, plan, old_local, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{BlockDist, CyclicDist, RegularDist};
    use mpsim::{run, MachineConfig};

    #[test]
    fn remap_block_to_cyclic_preserves_global_values() {
        let n = 23;
        let nprocs = 4;
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let old = BlockDist::new(n, rank.nprocs());
            let new = CyclicDist::new(n, rank.nprocs());
            let mut new_table = TranslationTable::from_regular(&new);
            let old_globals: Vec<usize> = old.local_globals(rank.rank()).collect();
            let old_local: Vec<f64> = old_globals.iter().map(|&g| g as f64 * 1.5).collect();
            let plan = build_remap(rank, &old_globals, &mut new_table);
            let new_local = remap_values(rank, &plan, &old_local, f64::NAN);
            (new_local, plan.new_local_size())
        });
        let new = CyclicDist::new(n, nprocs);
        for (p, (new_local, size)) in out.results.iter().enumerate() {
            assert_eq!(*size, new.local_size(p));
            assert_eq!(new_local.len(), new.local_size(p));
            for (l, v) in new_local.iter().enumerate() {
                let g = new.global_index(p, l);
                assert_eq!(*v, g as f64 * 1.5, "element {g} misplaced on processor {p}");
            }
        }
    }

    #[test]
    fn remap_to_irregular_distribution() {
        let n = 30;
        let nprocs = 3;
        // New owner of g: (g / 2) % 3 — an "irregular" map built through a map array.
        let map: Vec<usize> = (0..n).map(|g| (g / 2) % nprocs).collect();
        let map2 = map.clone();
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let old = BlockDist::new(n, rank.nprocs());
            let map_dist = BlockDist::new(n, rank.nprocs());
            let local_map: Vec<usize> = map_dist
                .local_globals(rank.rank())
                .map(|g| map2[g])
                .collect();
            let mut new_table =
                TranslationTable::replicated_from_map(rank, &local_map, &map_dist).unwrap();
            let old_globals: Vec<usize> = old.local_globals(rank.rank()).collect();
            let old_vals: Vec<i64> = old_globals.iter().map(|&g| g as i64 * 7).collect();
            let plan = build_remap(rank, &old_globals, &mut new_table);
            let new_vals = remap_values(rank, &plan, &old_vals, i64::MIN);
            let owned_globals = new_table.owned_globals(rank);
            (new_vals, owned_globals)
        });
        for (p, (vals, owned_globals)) in out.results.iter().enumerate() {
            assert_eq!(vals.len(), owned_globals.len());
            for (v, g) in vals.iter().zip(owned_globals) {
                assert_eq!(map[*g], p);
                assert_eq!(*v, *g as i64 * 7);
            }
        }
    }

    #[test]
    fn remap_indices_moves_indirection_arrays() {
        let n = 16;
        let out = run(MachineConfig::new(2), move |rank| {
            let old = BlockDist::new(n, rank.nprocs());
            let new = CyclicDist::new(n, rank.nprocs());
            let mut new_table = TranslationTable::from_regular(&new);
            let old_globals: Vec<usize> = old.local_globals(rank.rank()).collect();
            // The indirection array entry for iteration g is (3g+1) mod n.
            let old_ind: Vec<usize> = old_globals.iter().map(|&g| (3 * g + 1) % n).collect();
            let plan = build_remap(rank, &old_globals, &mut new_table);
            remap_indices(rank, &plan, &old_ind)
        });
        let new = CyclicDist::new(n, 2);
        for (p, ind) in out.results.iter().enumerate() {
            for (l, v) in ind.iter().enumerate() {
                let g = new.global_index(p, l);
                assert_eq!(*v, (3 * g + 1) % n);
            }
        }
    }

    #[test]
    fn plan_counts_are_symmetric_across_machine() {
        let n = 40;
        let out = run(MachineConfig::new(4), move |rank| {
            let old = BlockDist::new(n, rank.nprocs());
            let new = CyclicDist::new(n, rank.nprocs());
            let mut new_table = TranslationTable::from_regular(&new);
            let old_globals: Vec<usize> = old.local_globals(rank.rank()).collect();
            let plan = build_remap(rank, &old_globals, &mut new_table);
            (plan.total_send(), plan.total_recv())
        });
        let total_sent: usize = out.results.iter().map(|(s, _)| s).sum();
        let total_recv: usize = out.results.iter().map(|(_, r)| r).sum();
        assert_eq!(total_sent, total_recv);
        assert!(total_sent > 0);
    }

    #[test]
    fn identity_remap_moves_no_data() {
        let n = 20;
        let out = run(MachineConfig::new(4), move |rank| {
            let dist = BlockDist::new(n, rank.nprocs());
            let mut table = TranslationTable::from_regular(&dist);
            let globals: Vec<usize> = dist.local_globals(rank.rank()).collect();
            let vals: Vec<u32> = globals.iter().map(|&g| g as u32).collect();
            let plan = build_remap(rank, &globals, &mut table);
            let before = rank.stats().bytes_sent;
            let new_vals = remap_values(rank, &plan, &vals, 0);
            let moved = rank.stats().bytes_sent - before;
            (new_vals == vals, plan.total_send(), moved)
        });
        for (same, sent, moved) in &out.results {
            assert!(*same);
            assert_eq!(*sent, 0);
            assert_eq!(*moved, 0);
        }
    }
}
