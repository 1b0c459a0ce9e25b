//! Loop-iteration partitioning (Phase C).
//!
//! Once the data arrays are distributed, CHAOS decides which processor executes each loop
//! iteration.  Two heuristics from §3.1 are provided:
//!
//! * **owner-computes** — an iteration runs on the processor that owns a designated "home"
//!   data element (CHARMM's non-bonded loop iterates over atoms, so the iteration for atom
//!   *i* runs wherever atom *i* lives);
//! * **almost-owner-computes** — an iteration runs on the processor owning the *majority*
//!   of the data elements it touches, which biases the assignment towards lower
//!   communication volume (used for CHARMM's bonded loop, whose iterations touch two
//!   atoms).
//!
//! Both return, for each locally held iteration, the processor that should execute it;
//! [`IterationPartition`] wraps the result together with helpers to build the translation
//! table of the iteration space and remap indirection arrays to their executing
//! processors (Phase D).

use mpsim::Rank;

use crate::distribution::{BlockDist, RegularDist};
use crate::remap::{build_remap, remap_indices, RemapPlan};
use crate::translation::TranslationTable;
use crate::{Global, ProcId};

/// The result of partitioning a block-distributed iteration space.
pub struct IterationPartition {
    /// Owner (executing processor) of each locally held iteration, in local order.
    pub local_owners: Vec<ProcId>,
    /// The block distribution the iteration space had *before* partitioning (the
    /// distribution `local_owners` is aligned with).
    pub iter_dist: BlockDist,
}

impl IterationPartition {
    /// Build the translation table of the partitioned iteration space (collective).
    pub fn translation_table(&self, rank: &mut Rank) -> TranslationTable {
        TranslationTable::replicated_from_map(rank, &self.local_owners, &self.iter_dist)
            .expect("iteration owners are valid processor ids by construction")
    }

    /// Build the remap plan that moves per-iteration data (for example indirection-array
    /// slices) from the original block distribution to the executing processors
    /// (collective).
    pub fn remap_plan(&self, rank: &mut Rank) -> RemapPlan {
        let globals: Vec<Global> = self.iter_dist.local_globals(rank.rank()).collect();
        let mut table = self.translation_table(rank);
        build_remap(rank, &globals, &mut table)
    }

    /// Remap one indirection array so each executing processor holds the entries of the
    /// iterations assigned to it (Phase D).  `plan` must come from
    /// [`IterationPartition::remap_plan`].
    pub fn remap_indirection(
        &self,
        rank: &mut Rank,
        plan: &RemapPlan,
        local_entries: &[Global],
    ) -> Vec<Global> {
        remap_indices(rank, plan, local_entries)
    }
}

/// Owner-computes iteration partitioning: iteration `i` (whose home data element is
/// `home_elements[i]`, a global index into the data array described by `data_table`) is
/// executed by the owner of that element.
///
/// `iter_dist` describes how the iteration space is currently block-distributed;
/// `home_elements` are the home data elements of this rank's local iterations.  Local.
pub fn owner_computes_replicated(
    rank: &mut Rank,
    data_table: &TranslationTable,
    iter_dist: BlockDist,
    home_elements: &[Global],
) -> IterationPartition {
    rank.charge_compute(home_elements.len() as f64 * 0.05);
    IterationPartition {
        local_owners: home_elements
            .iter()
            .map(|&g| data_table.lookup(g).owner as usize)
            .collect(),
        iter_dist,
    }
}

/// Almost-owner-computes iteration partitioning: each iteration is executed by the
/// processor owning the majority of the data elements it accesses; ties are broken in
/// favour of the lowest processor id (deterministic).
///
/// `accesses` lists, for each locally held iteration, the global data elements that
/// iteration touches.  Local.
pub fn almost_owner_computes_replicated(
    rank: &mut Rank,
    data_table: &TranslationTable,
    iter_dist: BlockDist,
    accesses: &[Vec<Global>],
) -> IterationPartition {
    let nprocs = rank.nprocs();
    rank.charge_compute(accesses.iter().map(Vec::len).sum::<usize>() as f64 * 0.08);
    let mut votes = vec![0usize; nprocs];
    let local_owners = accesses
        .iter()
        .map(|access| {
            for v in votes.iter_mut() {
                *v = 0;
            }
            for &g in access {
                votes[data_table.lookup(g).owner as usize] += 1;
            }
            votes
                .iter()
                .enumerate()
                .max_by_key(|&(p, &count)| (count, std::cmp::Reverse(p)))
                .map_or(rank.rank(), |(p, _)| p)
        })
        .collect();
    IterationPartition {
        local_owners,
        iter_dist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::RegularDist;
    use mpsim::{run, MachineConfig};

    #[test]
    fn owner_computes_follows_data_owner() {
        let n_data = 16;
        let n_iter = 16;
        let out = run(MachineConfig::new(4), move |rank| {
            let data_dist = BlockDist::new(n_data, rank.nprocs());
            let table = TranslationTable::from_regular(&data_dist);
            let iter_dist = BlockDist::new(n_iter, rank.nprocs());
            // Iteration i's home element is (i + 5) mod n_data.
            let homes: Vec<usize> = iter_dist
                .local_globals(rank.rank())
                .map(|i| (i + 5) % n_data)
                .collect();
            let part = owner_computes_replicated(rank, &table, iter_dist, &homes);
            (part.local_owners.clone(), homes)
        });
        let data_dist = BlockDist::new(n_data, 4);
        for (owners, homes) in &out.results {
            for (o, h) in owners.iter().zip(homes) {
                assert_eq!(*o, data_dist.owner(*h));
            }
        }
    }

    #[test]
    fn almost_owner_computes_takes_majority_and_breaks_ties_low() {
        let n_data = 12;
        let out = run(MachineConfig::new(3), move |rank| {
            let data_dist = BlockDist::new(n_data, rank.nprocs());
            let table = TranslationTable::from_regular(&data_dist);
            // Each rank holds two iterations:
            //   iteration A touches {0, 1, 11}  -> majority on processor 0
            //   iteration B touches {0, 4, 8}   -> three-way tie -> processor 0 (lowest)
            let iter_dist = BlockDist::new(6, rank.nprocs());
            let accesses = vec![vec![0usize, 1, 11], vec![0usize, 4, 8]];
            let part = almost_owner_computes_replicated(rank, &table, iter_dist, &accesses);
            part.local_owners.clone()
        });
        for owners in &out.results {
            assert_eq!(owners, &vec![0, 0]);
        }
    }

    #[test]
    fn iteration_translation_table_and_counts() {
        let n_iter = 20;
        let out = run(MachineConfig::new(4), move |rank| {
            let iter_dist = BlockDist::new(n_iter, rank.nprocs());
            // Assign every iteration to processor (g mod 2): only processors 0 and 1
            // execute anything.
            let owners: Vec<usize> = iter_dist
                .local_globals(rank.rank())
                .map(|g| g % 2)
                .collect();
            let part = IterationPartition {
                local_owners: owners,
                iter_dist,
            };
            let table = part.translation_table(rank);
            (0..rank.nprocs())
                .map(|p| table.local_size(p))
                .collect::<Vec<_>>()
        });
        // The table's per-processor sizes are the iteration counts.
        for counts in &out.results {
            assert_eq!(counts, &vec![10, 10, 0, 0]);
        }
    }

    #[test]
    fn indirection_arrays_follow_their_iterations() {
        // Phase D: after iteration partitioning, each executing processor must hold the
        // indirection-array entries of the iterations it was assigned.
        let n_data = 24;
        let n_iter = 24;
        let out = run(MachineConfig::new(3), move |rank| {
            let data_dist = BlockDist::new(n_data, rank.nprocs());
            let table = TranslationTable::from_regular(&data_dist);
            let iter_dist = BlockDist::new(n_iter, rank.nprocs());
            let my_iters: Vec<usize> = iter_dist.local_globals(rank.rank()).collect();
            // ia[i] = (7i + 2) mod n_data; iteration i's home is ia[i].
            let my_ia: Vec<usize> = my_iters.iter().map(|&i| (7 * i + 2) % n_data).collect();
            let part = owner_computes_replicated(rank, &table, iter_dist, &my_ia);
            let plan = part.remap_plan(rank);
            let new_ia = part.remap_indirection(rank, &plan, &my_ia);
            // After remapping, every entry this rank holds must reference data it owns
            // (owner-computes guarantees home == owned).
            let all_owned = new_ia.iter().all(|&g| data_dist.owner(g) == rank.rank());
            (all_owned, new_ia.len())
        });
        let mut total = 0;
        for (all_owned, len) in &out.results {
            assert!(all_owned);
            total += len;
        }
        assert_eq!(total, n_iter, "no iteration may be lost or duplicated");
    }
}
