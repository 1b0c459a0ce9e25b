//! One group of irregular loops on the CHAOS runtime: the object both loop drivers use.
//!
//! Hand CHARMM and the Fortran-D executor run the same call sequence: hash the
//! indirection arrays into one stamped [`IndexHashTable`], serve the schedules through
//! one [`ScheduleCache`], then per step a fused gather, the loop bodies and a fused
//! scatter-add.  A [`LoopGroup`] owns all of it; a driver says only which *members*
//! (indirection arrays; member `m` hashes under stamp bit `m`) are dirty, and computes
//! the bodies.  Each *member set* gets one schedule: CHARMM's merged mode asks for
//! {IB, JB, NB}, its multiple mode for {IB, JB} and {NB}, a Fortran-D group for all of
//! its members.  [`LoopGroup::hash`] appends to a reference stream the caller owns, one
//! call per caller-chosen batch, so each driver keeps its stream layout and the grouping
//! of its modeled hashing charges.
//!
//! A build is [`LoopGroup::upkeep`], a `hash` of each dirty member, then
//! [`LoopGroup::serve`].  The upkeep rule: if every member is dirty (always so at the
//! first build), `clear_all`, and the cache rebuilds each schedule in place; if some
//! are, `clear_stamp` on each, and the cache patches the sets that read one; if none
//! are, nothing is cleared and every schedule is a hit, with no communication.  `serve`
//! resolves each set's schedule once per build; steps never look one up.  A split-phase
//! gather keeps the set it started with, so its finish places through that schedule.
//! Everything that communicates is collective.

use mpsim::{ExchangeStats, Rank};

use crate::cache::{CacheStats, ScheduleCache};
use crate::darray::DistArray;
use crate::executor::{gather_finish, gather_multi, gather_start, scatter_add_multi, GatherHandle};
use crate::index_hash::{IndexHashTable, Stamp, StampQuery};
use crate::schedule::CommSchedule;
use crate::translation::TranslationTable;
use crate::{Global, ProcId};

/// Schedules a group's cache holds.  A build asks once per member set and a rebuild
/// after `clear_all` replaces its entry in place, so up to four sets never evict.
pub const SCHEDULE_CACHE_CAPACITY: usize = 4;

/// The stamped hash table, schedule cache, upkeep rule and fused `f64` exchanges of one
/// group of irregular loops (see the module docs).
pub struct LoopGroup {
    members: u8,
    hash: IndexHashTable,
    cache: ScheduleCache,
    /// One query per member set.
    queries: Vec<StampQuery>,
    /// Each set's schedule as of the last `serve`; empty before the first build.
    schedules: Vec<CommSchedule>,
    /// Stamp bits of the members the running build may hash.
    rehashing: u64,
    member_patches: u64,
    /// The split-phase gather in flight and the set it packed for.
    pending: Option<(usize, GatherHandle<f64>)>,
}

impl LoopGroup {
    /// A group of `members` loops on rank `my_rank`, serving one schedule per entry of
    /// `member_sets`.  Panics, naming the figure, on more than 64 members or a set
    /// naming a member out of range.
    pub fn new(my_rank: ProcId, members: usize, member_sets: &[&[usize]]) -> Self {
        let members = u8::try_from(members)
            .ok()
            .filter(|&m| m <= 64)
            .unwrap_or_else(|| {
                panic!("a loop group has at most 64 members (one stamp bit each), not {members}")
            });
        let mut group = LoopGroup {
            members,
            hash: IndexHashTable::new(my_rank, 0),
            cache: ScheduleCache::new(SCHEDULE_CACHE_CAPACITY),
            queries: Vec::new(),
            schedules: Vec::new(),
            rehashing: 0,
            member_patches: 0,
            pending: None,
        };
        for set in member_sets {
            let stamps: Vec<Stamp> = set.iter().map(|&m| group.stamp(m)).collect();
            group.queries.push(StampQuery::any_of(&stamps));
        }
        group
    }

    fn stamp(&self, member: usize) -> Stamp {
        match u8::try_from(member) {
            Ok(bit) if bit < self.members => Stamp::new(bit),
            _ => panic!(
                "loop group member {member} out of range ({} members)",
                self.members
            ),
        }
    }

    /// Start a build: apply the upkeep rule to the members `dirty` marks (one flag per
    /// member).  `owned_len` is this rank's owned length, read when all are dirty.
    /// Panics if the first build leaves a member clean or a gather is in flight.
    pub fn upkeep(&mut self, owned_len: usize, dirty: &[bool]) {
        assert_eq!(
            dirty.len(),
            usize::from(self.members),
            "upkeep: one flag per member"
        );
        assert!(self.pending.is_none(), "upkeep: a gather is in flight");
        let all = dirty.iter().all(|&d| d);
        assert!(
            all || !self.schedules.is_empty(),
            "upkeep: the first build of a loop group must hash every member"
        );
        if all {
            self.hash.clear_all(owned_len);
        }
        self.rehashing = 0;
        for m in (0..dirty.len()).filter(|&m| dirty[m]) {
            let stamp = self.stamp(m);
            self.rehashing |= stamp.mask();
            if !all {
                self.hash.clear_stamp(stamp);
                self.member_patches += 1;
            }
        }
    }

    /// Hash one batch of member `member`'s references through `ttable`, appending their
    /// local references to `out`.  Each call charges its own modeled cost.  Panics,
    /// naming the member, unless it is dirty in the running build.
    pub fn hash(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        member: usize,
        globals: &[Global],
        out: &mut Vec<u32>,
    ) {
        let stamp = self.stamp(member);
        assert!(
            self.rehashing & stamp.mask() != 0,
            "hash: loop group member {member} is not dirty in this build"
        );
        self.hash
            .hash_in_replicated_into(rank, ttable, globals, stamp, out);
    }

    /// End a build: resolve each member set's schedule through the cache (collective).
    pub fn serve(&mut self, rank: &mut Rank) {
        self.rehashing = 0;
        let (cache, hash) = (&mut self.cache, &self.hash);
        let serve = |&query| cache.schedule(rank, hash, query).0.clone();
        self.schedules = self.queries.iter().map(serve).collect();
    }

    /// Member set `set`'s schedule as of the last build.
    pub fn schedule(&self, set: usize) -> &CommSchedule {
        let built = self.schedules.get(set);
        built.expect("no schedule for this member set: the loop group is not built")
    }

    /// The ghost region every array moved through the group's schedules must provide.
    pub fn ghost_len(&self) -> usize {
        self.hash.ghost_len()
    }

    /// The schedule cache's counters.  With one member set, misses are the builds that
    /// rebuilt and hits those that reused.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Builds so far: each asks the cache once per member set.
    pub fn builds(&self) -> u64 {
        let s = self.cache.stats();
        (s.hits + s.misses + s.patches) / self.queries.len() as u64
    }

    /// Dirty members of the builds that left some member clean.
    pub fn member_patches(&self) -> u64 {
        self.member_patches
    }

    /// `(send, recv)` messages of one fused gather and one fused scatter-add over every
    /// set's current schedule.
    pub fn message_counts(&self) -> (usize, usize) {
        let sum = |count: fn(&CommSchedule) -> usize| self.schedules.iter().map(count).sum();
        let sends = sum(CommSchedule::send_message_count);
        (sends, sum(CommSchedule::recv_message_count))
    }

    /// Fused gather of `arrays` through set `set`'s schedule (collective).
    pub fn gather<'a>(
        &self,
        rank: &mut Rank,
        set: usize,
        arrays: impl AsMut<[&'a mut DistArray<f64>]>,
    ) -> ExchangeStats {
        gather_multi(rank, self.schedule(set), arrays)
    }

    /// Post a fused gather of `arrays` through set `set`'s schedule, placed by
    /// [`LoopGroup::finish_gather`].  Panics if one is already in flight.
    pub fn start_gather<'a>(
        &mut self,
        rank: &mut Rank,
        set: usize,
        arrays: impl AsRef<[&'a DistArray<f64>]>,
    ) {
        assert!(
            self.pending.is_none(),
            "start_gather: a gather is already in flight"
        );
        self.pending = Some((set, gather_start(rank, self.schedule(set), arrays)));
    }

    /// Place the started gather into the same lanes' ghost regions, through the schedule
    /// it packed for.  Panics if no gather is in flight.
    pub fn finish_gather<'a>(
        &mut self,
        rank: &mut Rank,
        arrays: impl AsMut<[&'a mut DistArray<f64>]>,
    ) -> ExchangeStats {
        let pending = self.pending.take();
        let (set, handle) = pending.expect("finish_gather: no gather is in flight");
        gather_finish(rank, handle, self.schedule(set), arrays)
    }

    /// Fused scatter-add of `arrays`' ghost contributions through set `set`'s schedule
    /// (collective).
    pub fn scatter_add<'a>(
        &self,
        rank: &mut Rank,
        set: usize,
        arrays: impl AsMut<[&'a mut DistArray<f64>]>,
    ) -> ExchangeStats {
        scatter_add_multi(rank, self.schedule(set), arrays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{BlockDist, RegularDist};
    use crate::inspector::build_schedule_from_table;
    use mpsim::{run, MachineConfig};

    fn table(rank: &Rank, n: usize) -> (TranslationTable, usize) {
        let dist = BlockDist::new(n, rank.nprocs());
        (
            TranslationTable::from_regular(&dist),
            dist.local_size(rank.rank()),
        )
    }

    /// Rank-dependent references into `0..n`, shifted by `salt`.
    fn refs(rank: &Rank, n: usize, salt: usize) -> Vec<Global> {
        (0..n)
            .map(|i| (i * 5 + salt + rank.rank() * 3) % n)
            .collect()
    }

    #[test]
    fn upkeep_rebuilds_when_all_dirty_patches_when_some_and_reuses_when_none() {
        run(MachineConfig::new(2), |rank| {
            let n = 24;
            let (ttable, owned) = table(rank, n);
            let mut group = LoopGroup::new(rank.rank(), 2, &[&[0, 1]]);
            let mut out = Vec::new();
            let mut build = |rank: &mut Rank, group: &mut LoopGroup, dirty: [bool; 2], salt| {
                group.upkeep(owned, &dirty);
                for m in (0..2).filter(|&m| dirty[m]) {
                    let globals = refs(rank, n, salt + m);
                    group.hash(rank, &ttable, m, &globals, &mut out);
                }
                group.serve(rank);
                group.cache_stats()
            };
            let first = build(rank, &mut group, [true, true], 0);
            assert_eq!((first.misses, first.patches, first.hits), (1, 0, 0));
            let patched = build(rank, &mut group, [false, true], 7);
            assert_eq!((patched.misses, patched.patches, patched.hits), (1, 1, 0));
            assert_eq!(group.member_patches(), 1);
            let sent = rank.stats().msgs_sent;
            let reused = build(rank, &mut group, [false, false], 0);
            assert_eq!((reused.misses, reused.patches, reused.hits), (1, 1, 1));
            assert_eq!(rank.stats().msgs_sent, sent, "a reuse must not communicate");
            let rebuilt = build(rank, &mut group, [true, true], 3);
            assert_eq!((rebuilt.misses, rebuilt.patches, rebuilt.hits), (2, 1, 1));
            assert_eq!((group.builds(), rebuilt.evictions), (4, 0));
        });
    }

    #[test]
    fn two_member_sets_serve_what_a_fresh_inspector_builds() {
        // CHARMM's multiple-schedule shape: {IB, JB} and {NB}, then an NB-only update.
        run(MachineConfig::new(3), |rank| {
            let n = 30;
            let (ttable, owned) = table(rank, n);
            let sets: [&[usize]; 2] = [&[0, 1], &[2]];
            let mut group = LoopGroup::new(rank.rank(), 3, &sets);
            let mut reference = IndexHashTable::new(rank.rank(), owned);
            let mut out = Vec::new();
            let queries = [
                StampQuery::any_of(&[Stamp::new(0), Stamp::new(1)]),
                StampQuery::single(Stamp::new(2)),
            ];
            group.upkeep(owned, &[true; 3]);
            for m in 0..3 {
                let globals = refs(rank, n, m);
                group.hash(rank, &ttable, m, &globals, &mut out);
                let stamp = Stamp::new(m as u8);
                reference.hash_in_replicated(rank, &ttable, &globals, stamp);
            }
            group.serve(rank);
            for (set, &query) in queries.iter().enumerate() {
                let fresh = build_schedule_from_table(rank, &reference, query);
                assert_eq!(*group.schedule(set), fresh, "set {set}, first build");
            }
            group.upkeep(owned, &[false, false, true]);
            reference.clear_stamp(Stamp::new(2));
            let globals = refs(rank, n, 11);
            group.hash(rank, &ttable, 2, &globals, &mut out);
            reference.hash_in_replicated(rank, &ttable, &globals, Stamp::new(2));
            group.serve(rank);
            for (set, &query) in queries.iter().enumerate() {
                let fresh = build_schedule_from_table(rank, &reference, query);
                assert_eq!(*group.schedule(set), fresh, "set {set}, after the update");
            }
            let stats = group.cache_stats();
            assert_eq!((stats.misses, stats.hits, stats.patches), (2, 1, 1));
        });
    }

    #[test]
    #[should_panic(expected = "a loop group has at most 64 members (one stamp bit each), not 65")]
    fn more_than_64_members_is_a_named_panic() {
        LoopGroup::new(0, 65, &[&[0]]);
    }

    #[test]
    #[should_panic(expected = "loop group member 64 out of range (64 members)")]
    fn a_member_index_of_64_is_a_named_panic() {
        LoopGroup::new(0, 64, &[&[0, 64]]);
    }

    #[test]
    #[should_panic(expected = "finish_gather: no gather is in flight")]
    fn finishing_a_gather_never_started_is_a_named_panic() {
        run(MachineConfig::new(1), |rank| {
            let (ttable, owned) = table(rank, 4);
            let mut group = LoopGroup::new(rank.rank(), 1, &[&[0]]);
            group.upkeep(owned, &[true]);
            group.hash(rank, &ttable, 0, &[0, 1], &mut Vec::new());
            group.serve(rank);
            let mut x = DistArray::new(vec![1.0; owned], 0);
            group.finish_gather(rank, [&mut x]);
        });
    }
}
