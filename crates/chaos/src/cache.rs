//! A stamp-keyed schedule cache: the one place a schedule is kept current across phases
//! and time steps.
//!
//! Long-lived adaptive runs ask for the same few schedules over and over — CHARMM wants
//! its bonded (`IB + JB`) and non-bonded (`NB`) schedules every step, DSMC wants its
//! migration schedule every MOVE phase.  [`ScheduleCache`] keeps a small set of maintained
//! schedules (see [`crate::maintained`]) keyed by *(table identity, query)* and, on each
//! request, compares the stored [`ScheduleKey`](crate::index_hash::ScheduleKey) against
//! the table's current version:
//!
//! * **hit** — key unchanged: return the schedule with **no communication at all**;
//! * **patch** — same table, query and epoch, but stamps drifted: splice the delta into
//!   the cached schedule (cost proportional to the drift, not the schedule);
//! * **miss** — unknown (table, query): full collective build, inserted into the cache,
//!   evicting the least-recently-used entry if at capacity;
//! * **miss in place** — same (table, query), but [`IndexHashTable::clear_all`] moved the
//!   table's epoch since: nothing of the old table survives (every translation and ghost
//!   slot was dropped), so a patch would re-ship the whole schedule as edits.  The entry
//!   is rebuilt where it stands — counted as a miss, evicting nothing.
//!
//! Staleness is impossible by construction: every mutation of an [`IndexHashTable`]
//! advances the version counters its keys are built from, so a hit proves the stored
//! schedule is exact (pinned by the property sweep in `tests/schedule_delta.rs`).
//!
//! # Collective discipline
//!
//! [`ScheduleCache::schedule`] is collective, and the hit path skips communication — safe
//! only because every rank takes the same branch.  That holds as long as the SPMD program
//! mutates tables and queries the cache at the same program points on every rank (the
//! normal discipline for any collective).  The keys count *operations*, not contents, so
//! rank-dependent data never desynchronises the decision — the patch-or-rebuild choice
//! included, since epochs count `clear_all` calls; a rank-dependent *call sequence* (one
//! rank re-hashing while another skips straight to the cache) is a program error of the
//! same kind as calling any collective from a subset of ranks.

use mpsim::Rank;

use crate::index_hash::{IndexHashTable, StampQuery};
use crate::maintained::{build_maintained, patch_schedule, MaintainedSchedule, PatchStats};
use crate::schedule::CommSchedule;

/// Running counters for one [`ScheduleCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache with no communication.
    pub hits: u64,
    /// Full collective builds: requests for an unknown (table, query), and requests whose
    /// table was cleared with [`IndexHashTable::clear_all`] since the entry was stored.
    pub misses: u64,
    /// Requests answered by patching a cached schedule forward.
    pub patches: u64,
    /// Entries evicted to make room (least recently used first).
    pub evictions: u64,
}

struct CacheSlot {
    ms: MaintainedSchedule,
    last_used: u64,
}

/// A bounded, deterministically-evicting cache of maintained schedules.
///
/// Lookup is a linear scan — the working set is a handful of schedules, and scan order
/// must be identical on every rank anyway (see the module docs).
pub struct ScheduleCache {
    capacity: usize,
    clock: u64,
    slots: Vec<CacheSlot>,
    stats: CacheStats,
}

impl ScheduleCache {
    /// Create a cache holding at most `capacity` schedules.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a schedule cache needs room for one schedule");
        Self {
            capacity,
            clock: 0,
            slots: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of schedules currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop cached schedules built from `table` (by identity), returning how many were
    /// dropped, so the next request against it misses and builds from scratch.  Local
    /// bookkeeping only: use it to free a discarded table's slots early, or to force a
    /// from-scratch build (DSMC's rebuild-every-step baseline).  A table that is cleared
    /// and reused needs no retiring — its epoch bump already makes the cache rebuild.
    pub fn retire_table(&mut self, table: &IndexHashTable) -> usize {
        let before = self.slots.len();
        self.slots
            .retain(|s| s.ms.key().table_id() != table.table_id());
        before - self.slots.len()
    }

    /// The schedule for `query` against `table`, current as of the table's contents.
    ///
    /// Collective — all ranks must call together (hit/patch/miss branches are
    /// machine-wide consistent, see the module docs).  Returns the schedule and what the
    /// cache did to produce it.
    pub fn schedule(
        &mut self,
        rank: &mut Rank,
        table: &IndexHashTable,
        query: StampQuery,
    ) -> (&CommSchedule, CacheOutcome) {
        self.clock += 1;
        let now = self.clock;
        let current = table.version(query);
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.ms.key().same_source(&current))
        {
            let slot = &mut self.slots[i];
            slot.last_used = now;
            let outcome = if *slot.ms.key() == current {
                // Other stamps may have grown the table's ghost region since this entry
                // was stored; refresh the (local) bound so a hit stays byte-identical to
                // a rebuild.
                slot.ms.grow_ghost_len(table.ghost_len());
                self.stats.hits += 1;
                CacheOutcome::Hit
            } else if slot.ms.key().epoch() == current.epoch() {
                self.stats.patches += 1;
                CacheOutcome::Patched(patch_schedule(rank, table, &mut slot.ms))
            } else {
                slot.ms = build_maintained(rank, table, query);
                self.stats.misses += 1;
                CacheOutcome::Missed
            };
            return (slot.ms.schedule(), outcome);
        }
        let ms = build_maintained(rank, table, query);
        self.stats.misses += 1;
        if self.slots.len() == self.capacity {
            // Deterministic LRU: smallest last-used clock wins; the scan takes the first
            // (lowest index) on ties, and clocks advance identically on every rank.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("capacity > 0, so a full cache has a victim");
            self.slots.remove(victim);
            self.stats.evictions += 1;
        }
        self.slots.push(CacheSlot { ms, last_used: now });
        let slot = self.slots.last().expect("just pushed");
        (slot.ms.schedule(), CacheOutcome::Missed)
    }
}

/// What [`ScheduleCache::schedule`] did to satisfy a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheOutcome {
    /// Served as-is; no communication happened.
    Hit,
    /// A cached schedule was patched forward to the table's current contents.
    Patched(PatchStats),
    /// Built from scratch: inserted, or rebuilt in place after a `clear_all`.
    Missed,
}
