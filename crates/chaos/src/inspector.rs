//! The inspector (Phase E): index analysis and schedule generation.
//!
//! The paper splits the inspector into two steps precisely so that adaptive applications
//! can repeat only the part that changed:
//!
//! 1. **index analysis** — hash the indirection arrays into the stamped
//!    [`IndexHashTable`], removing duplicates and translating global to local indices
//!    ([`Inspector::hash_indices`]);
//! 2. **schedule generation** — read the hash-table entries selected by a [`StampQuery`]
//!    and construct a [`CommSchedule`] ([`Inspector::build_schedule`]).
//!
//! When an indirection array adapts (CHARMM's non-bonded list), the old stamp is cleared,
//! the new array is hashed (mostly hitting existing entries), and only the schedule is
//! rebuilt — the translation results and ghost-slot assignments persist in the table.

use mpsim::Rank;

use crate::darray::LocalRef;
use crate::index_hash::{IndexHashTable, Stamp, StampQuery};
use crate::schedule::CommSchedule;
use crate::translation::TranslationTable;
use crate::{Global, ProcId};

/// High-level inspector for the common case of a **replicated** translation table (the
/// configuration both applications in the paper use).  For distributed or paged tables,
/// drive an [`IndexHashTable`] directly with [`IndexHashTable::hash_in`] and build the
/// schedule with [`build_schedule_from_table`].
pub struct Inspector<'t> {
    ttable: &'t TranslationTable,
    my_rank: ProcId,
    table: IndexHashTable,
}

impl<'t> Inspector<'t> {
    /// Create an inspector for the data distribution described by `ttable`.
    ///
    /// # Panics
    /// Panics if `ttable` is not replicated (use the lower-level API in that case).
    pub fn new(ttable: &'t TranslationTable, my_rank: ProcId) -> Self {
        assert!(
            ttable.is_replicated(),
            "Inspector requires a replicated translation table; \
             use IndexHashTable::hash_in with a distributed table"
        );
        let owned = ttable.local_size(my_rank);
        Self {
            ttable,
            my_rank,
            table: IndexHashTable::new(my_rank, owned),
        }
    }

    /// The rank this inspector belongs to.
    pub fn my_rank(&self) -> ProcId {
        self.my_rank
    }

    /// Access the underlying hash table (e.g. to inspect entry counts in tests).
    pub fn hash_table(&self) -> &IndexHashTable {
        &self.table
    }

    /// Index analysis: hash one indirection array under `stamp` and return the translated
    /// local references in input order.  Purely local (the table is replicated), but the
    /// cost of hashing is charged to the calling rank's modeled computation time.
    pub fn hash_indices(
        &mut self,
        rank: &mut Rank,
        globals: &[Global],
        stamp: Stamp,
    ) -> Vec<LocalRef> {
        self.table
            .hash_in_replicated(rank, self.ttable, globals, stamp)
    }

    /// Clear `stamp` so the indirection array it identified can be re-hashed after it
    /// adapts.  Translation results and ghost slots are retained.
    pub fn clear_stamp(&mut self, stamp: Stamp) {
        self.table.clear_stamp(stamp);
    }

    /// Ghost-region length arrays used with this inspector's schedules must provide.
    pub fn ghost_len(&self) -> usize {
        self.table.ghost_len()
    }

    /// Schedule generation: build a communication schedule for the hash-table entries
    /// matching `query`.  Collective — all ranks must call it together.
    pub fn build_schedule(&self, rank: &mut Rank, query: StampQuery) -> CommSchedule {
        build_schedule_from_table(rank, &self.table, query)
    }
}

/// Schedule generation from any [`IndexHashTable`] (Figure 6's `CHAOS_schedule`).
///
/// Collective.  Each rank extracts its off-processor entries matching `query`, groups the
/// requests by owning processor, and a single all-to-all informs every owner which of its
/// elements to send; the requesting side keeps the ghost slots in the same order as its
/// requests, which becomes the permutation list.
pub fn build_schedule_from_table(
    rank: &mut Rank,
    table: &IndexHashTable,
    query: StampQuery,
) -> CommSchedule {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let mut requests: Vec<Vec<u64>> = vec![Vec::new(); nprocs];
    let mut perm_lists: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
    let mut matched = 0usize;
    for entry in table.entries_matching(query) {
        matched += 1;
        if let Some(slot) = entry.ghost_slot {
            let owner = entry.loc.owner as usize;
            debug_assert_ne!(owner, me, "owned entries never carry ghost slots");
            requests[owner].push(entry.loc.offset as u64);
            perm_lists[owner].push(slot);
        }
    }
    // Schedule construction cost: proportional to the number of selected entries.
    rank.charge_compute(matched as f64 * 0.2);
    let incoming = rank.all_to_all(&requests);
    let send_lists: Vec<Vec<u32>> = incoming
        .into_iter()
        .enumerate()
        .map(|(p, offs)| {
            offs.into_iter()
                .map(|o| {
                    u32::try_from(o).unwrap_or_else(|_| {
                        panic!("rank {me}: peer {p} requested offset {o}, beyond u32")
                    })
                })
                .collect()
        })
        .collect();
    CommSchedule::from_parts(
        me,
        send_lists,
        perm_lists,
        table.owned_len(),
        table.ghost_len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{BlockDist, RegularDist};
    use mpsim::{run, MachineConfig};

    #[test]
    fn schedule_pairs_send_and_fetch_sizes_consistently() {
        // 3 ranks, 12 elements.  Every rank references the two elements to the "right" of
        // its block, so each rank should fetch 2 and send 2.
        let out = run(MachineConfig::new(3), |rank| {
            let dist = BlockDist::new(12, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut insp = Inspector::new(&ttable, rank.rank());
            let my_range = dist.local_range(rank.rank());
            let wanted: Vec<usize> = (0..2).map(|k| (my_range.end + k) % 12).collect();
            insp.hash_indices(rank, &wanted, Stamp::new(0));
            let sched = insp.build_schedule(rank, StampQuery::single(Stamp::new(0)));
            (sched.total_fetch(), sched.total_send(), sched.ghost_len())
        });
        for (fetch, send, ghost) in &out.results {
            assert_eq!(*fetch, 2);
            assert_eq!(*send, 2);
            assert_eq!(*ghost, 2);
        }
    }

    #[test]
    fn duplicates_are_fetched_once() {
        let out = run(MachineConfig::new(2), |rank| {
            let dist = BlockDist::new(8, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut insp = Inspector::new(&ttable, rank.rank());
            // Reference the same off-processor element five times.
            let other = if rank.rank() == 0 { 6 } else { 1 };
            let refs = insp.hash_indices(rank, &[other; 5], Stamp::new(0));
            let sched = insp.build_schedule(rank, StampQuery::single(Stamp::new(0)));
            (refs, sched.total_fetch())
        });
        for (refs, fetch) in &out.results {
            assert_eq!(*fetch, 1, "software caching must deduplicate fetches");
            assert!(refs.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn incremental_schedule_fetches_only_new_elements() {
        let out = run(MachineConfig::new(2), |rank| {
            let dist = BlockDist::new(10, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut insp = Inspector::new(&ttable, rank.rank());
            let sa = Stamp::new(0);
            let sb = Stamp::new(1);
            // Array a references {5, 7} off rank 0's block; array b references {5, 8}.
            let (a, b) = if rank.rank() == 0 {
                (vec![5usize, 7, 1], vec![5usize, 8, 2])
            } else {
                (vec![0usize, 2, 6], vec![0usize, 4, 7])
            };
            insp.hash_indices(rank, &a, sa);
            let sched_a = insp.build_schedule(rank, StampQuery::single(sa));
            insp.hash_indices(rank, &b, sb);
            let inc_b = insp.build_schedule(rank, StampQuery::minus(&[sb], &[sa]));
            let merged = insp.build_schedule(rank, StampQuery::any_of(&[sa, sb]));
            (
                sched_a.total_fetch(),
                inc_b.total_fetch(),
                merged.total_fetch(),
            )
        });
        for (a_fetch, inc_fetch, merged_fetch) in &out.results {
            assert_eq!(*a_fetch, 2);
            assert_eq!(
                *inc_fetch, 1,
                "incremental schedule fetches only the new element"
            );
            assert_eq!(*merged_fetch, 3);
        }
    }

    #[test]
    fn rebuilding_after_adaptation_reuses_ghost_slots() {
        let out = run(MachineConfig::new(2), |rank| {
            let dist = BlockDist::new(20, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut insp = Inspector::new(&ttable, rank.rank());
            let s = Stamp::new(3);
            let first: Vec<usize> = (0..20).step_by(2).collect();
            insp.hash_indices(rank, &first, s);
            let sched1 = insp.build_schedule(rank, StampQuery::single(s));
            let ghost1 = insp.ghost_len();
            // Adapt: drop one index, add one new one.
            let mut second = first.clone();
            second[0] = 1;
            insp.clear_stamp(s);
            insp.hash_indices(rank, &second, s);
            let sched2 = insp.build_schedule(rank, StampQuery::single(s));
            let ghost2 = insp.ghost_len();
            (sched1.total_fetch(), sched2.total_fetch(), ghost1, ghost2)
        });
        for (f1, f2, g1, g2) in &out.results {
            // Both versions fetch the same number of off-processor elements (10 of the 20
            // referenced minus the 10 owned... exactly half are off-processor each time).
            assert_eq!(f1, f2);
            // The ghost region grows by at most one slot (the single new index).
            assert!(g2 - g1 <= 1);
        }
    }

    #[test]
    fn schedule_send_lists_reference_owned_offsets() {
        let out = run(MachineConfig::new(4), |rank| {
            let dist = BlockDist::new(16, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut insp = Inspector::new(&ttable, rank.rank());
            // Everyone references every element; every owner must send each of its 4
            // elements to the other 3 ranks.
            let all: Vec<usize> = (0..16).collect();
            insp.hash_indices(rank, &all, Stamp::new(0));
            let sched = insp.build_schedule(rank, StampQuery::single(Stamp::new(0)));
            let owned = dist.local_size(rank.rank());
            let ok = sched
                .send_lists()
                .iter()
                .flatten()
                .all(|&off| (off as usize) < owned);
            (ok, sched.total_send(), sched.total_fetch())
        });
        for (ok, send, fetch) in &out.results {
            assert!(ok);
            assert_eq!(*send, 12);
            assert_eq!(*fetch, 12);
        }
    }

    #[test]
    #[should_panic(expected = "replicated translation table")]
    fn inspector_rejects_distributed_tables() {
        let out = run(MachineConfig::new(2), |rank| {
            let map_dist = BlockDist::new(8, rank.nprocs());
            let local: Vec<usize> = map_dist.local_globals(rank.rank()).map(|g| g % 2).collect();
            let t = TranslationTable::distributed_from_map(rank, &local, &map_dist).unwrap();
            if rank.rank() == 0 {
                let _ = Inspector::new(&t, rank.rank());
            }
        });
        drop(out);
    }
}
