//! Translation tables: the CHAOS representation of irregular distributions.
//!
//! A translation table is "a globally accessible data structure which lists the home
//! processor and offset address of each data array element" (§3.1).  The paper notes that
//! the table "may be replicated, distributed regularly, or stored in a paged fashion,
//! depending on storage requirements".  Only the replicated mode is implemented: every
//! rank holds the whole table, so a lookup is one local load and never communicates.  It
//! is what the CHARMM and DSMC parallelisations in the paper use, and the storage it costs
//! is small: at the `paper_like` scale (14 026 atoms, P = 128) the table is 8 B per element
//! for its [`Loc`] — about 110 KiB on each rank, 13.7 MiB across the machine — plus the
//! 4 B per element (about 55 KiB) of each [`crate::IndexHashTable`]'s direct-mapped index.
//!
//! The map array from which a table is built follows the Fortran-D convention (§5.1.1):
//! `map[g] = p` assigns global element `g` to processor `p`; local offsets are assigned in
//! increasing global-index order within each processor.

use mpsim::Rank;

use crate::distribution::{BlockDist, RegularDist};
use crate::{ChaosError, Global, ProcId};

/// The home of one distributed-array element: owning processor and local offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Owning processor.
    pub owner: u32,
    /// Offset within the owner's local section.
    pub offset: u32,
}

impl Loc {
    /// Convenience constructor.
    ///
    /// # Panics
    /// Panics, naming the value, if `owner` or `offset` does not fit `u32`.
    pub fn new(owner: ProcId, offset: usize) -> Self {
        let narrow = |what: &str, v: usize| {
            u32::try_from(v).unwrap_or_else(|_| panic!("translation {what} {v} does not fit u32"))
        };
        Loc {
            owner: narrow("owner", owner),
            offset: narrow("offset", offset),
        }
    }
}

/// A translation table describing an irregular distribution of `global_size` elements over
/// `nprocs` processors.  Replicated: every rank holds every entry.
pub struct TranslationTable {
    nprocs: usize,
    /// Number of elements owned by each processor.
    local_sizes: Vec<usize>,
    /// `entries[g]` is the home of global element `g`.
    entries: Vec<Loc>,
}

impl TranslationTable {
    // ------------------------------------------------------------------ construction --

    /// Build a table describing a *regular* distribution.  Purely local.
    pub fn from_regular<D: RegularDist>(dist: &D) -> Self {
        let entries = (0..dist.global_size())
            .map(|g| Loc::new(dist.owner(g), dist.local_offset(g)))
            .collect();
        let local_sizes = (0..dist.nprocs()).map(|p| dist.local_size(p)).collect();
        TranslationTable {
            nprocs: dist.nprocs(),
            local_sizes,
            entries,
        }
    }

    /// Build a table describing the given BLOCK distribution.  Block ownership is pure
    /// arithmetic every rank can evaluate on its own, so no rank handle is needed and
    /// nothing is charged to the cost model — unlike
    /// [`TranslationTable::replicated_from_map`], which really communicates.
    pub fn replicated_from_block(dist: &BlockDist) -> Self {
        Self::from_regular(dist)
    }

    /// Build a table from a block-distributed map array.
    ///
    /// `local_map` holds this rank's slice of the Fortran-D map array: entry `i` gives the
    /// owner of global element `map_dist.global_index(rank, i)`.  Collective: all ranks
    /// must call with their own slice.  The whole map is gathered *before* it is checked,
    /// so every rank sees the same map and returns the same result — an invalid owner on
    /// any rank is an error on every rank, naming the global index.
    pub fn replicated_from_map(
        rank: &mut Rank,
        local_map: &[ProcId],
        map_dist: &BlockDist,
    ) -> Result<Self, ChaosError> {
        assert_eq!(
            local_map.len(),
            map_dist.local_size(rank.rank()),
            "local map slice does not match the map distribution"
        );
        // Owners travel as u32; one too large for that arrives as u32::MAX, which is just
        // as invalid, so the check below still names it.
        let wire: Vec<u32> = local_map
            .iter()
            .map(|&p| u32::try_from(p).unwrap_or(u32::MAX))
            .collect();
        let full_map: Vec<ProcId> = rank
            .all_gather(&wire)
            .into_iter()
            .flatten()
            .map(|p| p as usize)
            .collect();
        Self::replicated_from_full_map(&full_map, rank.nprocs())
    }

    /// Build a table directly from an already-replicated map array (entry `g` names the
    /// owner of global element `g`).  Purely local — every rank holds the whole map, so
    /// unlike [`TranslationTable::replicated_from_map`] no gather is needed.  Elements are
    /// numbered per owner in global-index order.
    pub fn replicated_from_full_map(map: &[ProcId], nprocs: usize) -> Result<Self, ChaosError> {
        if let Some((index, &owner)) = map.iter().enumerate().find(|&(_, &p)| p >= nprocs) {
            return Err(ChaosError::OwnerOutOfRange {
                index,
                owner,
                nprocs,
            });
        }
        let mut next_offset = vec![0usize; nprocs];
        let mut entries = Vec::with_capacity(map.len());
        for &owner in map {
            entries.push(Loc::new(owner, next_offset[owner]));
            next_offset[owner] += 1;
        }
        Ok(TranslationTable {
            nprocs,
            local_sizes: next_offset,
            entries,
        })
    }

    // ----------------------------------------------------------------------- queries --

    /// Total number of elements described by the table.
    pub fn global_size(&self) -> usize {
        self.entries.len()
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of elements owned by processor `p` under this distribution.
    pub fn local_size(&self, p: ProcId) -> usize {
        self.local_sizes[p]
    }

    /// The home of global element `g`.  Local.
    ///
    /// # Panics
    /// Panics, naming the index and the size, if `g` is outside the table's index space.
    pub fn lookup(&self, g: Global) -> Loc {
        match self.entries.get(g) {
            Some(&loc) => loc,
            None => panic!(
                "translation lookup of index {g} outside array of size {}",
                self.entries.len()
            ),
        }
    }

    /// The global indices owned by the calling rank, in local-offset order.  Local; the
    /// `&mut self` it no longer needs stays because the benchmark package
    /// (`benchmark/src/surface.rs`) compiles against this signature.
    pub fn owned_globals(&mut self, rank: &mut Rank) -> Vec<Global> {
        let me = rank.rank() as u32;
        let mut owned: Vec<(u32, Global)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, loc)| loc.owner == me)
            .map(|(g, loc)| (loc.offset, g))
            .collect();
        owned.sort_unstable();
        owned.into_iter().map(|(_, g)| g).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{run, MachineConfig};

    /// An irregular map used by several tests: owner(g) = (g*7+3) mod nprocs.
    fn test_map(n: usize, nprocs: usize) -> Vec<ProcId> {
        (0..n).map(|g| (g * 7 + 3) % nprocs).collect()
    }

    /// Reference numbering: offsets in increasing global order per owner.
    fn reference_locs(map: &[ProcId], nprocs: usize) -> Vec<Loc> {
        let mut next = vec![0usize; nprocs];
        map.iter()
            .map(|&p| {
                let off = next[p];
                next[p] += 1;
                Loc::new(p, off)
            })
            .collect()
    }

    #[test]
    fn from_regular_matches_block_arithmetic() {
        let dist = BlockDist::new(17, 4);
        let t = TranslationTable::from_regular(&dist);
        for g in 0..17 {
            let loc = t.lookup(g);
            assert_eq!(loc.owner as usize, dist.owner(g));
            assert_eq!(loc.offset as usize, dist.local_offset(g));
        }
        for p in 0..4 {
            assert_eq!(t.local_size(p), dist.local_size(p));
        }
    }

    #[test]
    fn replicated_table_from_map_matches_reference() {
        let n = 53;
        let nprocs = 4;
        let map = test_map(n, nprocs);
        let expected = reference_locs(&map, nprocs);
        let map_for_run = map.clone();
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let map_dist = BlockDist::new(n, rank.nprocs());
            let local: Vec<ProcId> = map_dist
                .local_globals(rank.rank())
                .map(|g| map_for_run[g])
                .collect();
            let mut t = TranslationTable::replicated_from_map(rank, &local, &map_dist).unwrap();
            let locs: Vec<Loc> = (0..n).map(|g| t.lookup(g)).collect();
            (
                locs,
                (0..nprocs).map(|p| t.local_size(p)).collect::<Vec<_>>(),
                t.owned_globals(rank),
            )
        });
        for (p, (locs, sizes, owned)) in out.results.iter().enumerate() {
            assert_eq!(locs, &expected);
            let mut counts = vec![0usize; nprocs];
            for &p in &map {
                counts[p] += 1;
            }
            assert_eq!(sizes, &counts);
            // Owned globals are exactly those the map assigns to p, in global order.
            let mine: Vec<Global> = (0..n).filter(|&g| map[g] == p).collect();
            assert_eq!(owned, &mine);
        }
    }

    #[test]
    fn bad_owner_is_rejected() {
        let out = run(MachineConfig::new(2), |rank| {
            let map_dist = BlockDist::new(4, 2);
            let local = vec![0usize, 7]; // 7 is not a valid owner on 2 procs
            TranslationTable::replicated_from_map(rank, &local, &map_dist).is_err()
        });
        assert!(out.results.iter().all(|&e| e));
    }

    #[test]
    fn one_bad_rank_fails_every_rank_with_the_global_index() {
        // Only rank 1's slice is bad.  Validating before the gather would return early on
        // rank 1 and leave ranks 0 and 2 waiting in it; every rank must instead finish
        // with the same error, naming the element by its global index.
        let out = run(MachineConfig::new(3), |rank| {
            let map_dist = BlockDist::new(9, 3);
            let mut local = vec![rank.rank(); 3];
            if rank.rank() == 1 {
                local[0] = 9;
            }
            TranslationTable::replicated_from_map(rank, &local, &map_dist).err()
        });
        let want = ChaosError::OwnerOutOfRange {
            index: 3,
            owner: 9,
            nprocs: 3,
        };
        for err in &out.results {
            assert_eq!(err.as_ref(), Some(&want));
        }
    }

    #[test]
    #[should_panic(expected = "outside array of size")]
    fn lookup_local_still_rejects_out_of_bounds_indices() {
        let dist = BlockDist::new(4, 2);
        let t = TranslationTable::from_regular(&dist);
        let _ = t.lookup(4);
    }

    #[test]
    #[should_panic(expected = "translation offset 4294967296 does not fit u32")]
    fn loc_offsets_are_checked_against_u32_at_birth() {
        let _ = Loc::new(0, u32::MAX as usize + 1);
    }
}
