//! Communication schedules (§3.2.1 of the paper).
//!
//! A *communication schedule* records, for one processor, everything the executor needs to
//! move off-processor data without any further analysis:
//!
//! * **send list** — which of my owned elements other processors will read (per
//!   destination, as local offsets),
//! * **permutation list** — where incoming off-processor copies land in my ghost region,
//! * **send sizes / fetch sizes** — message sizes in both directions, so the executor can
//!   post exactly the right receives.
//!
//! Regular schedules are built by the inspector from the stamped hash table
//! ([`crate::inspector::build_schedule_from_table`]); they implement software caching
//! (duplicates removed) and communication vectorization (one message per processor pair).
//!
//! A [`LightweightSchedule`] is the cheaper cousin used when the *placement order of
//! incoming elements does not matter* (the DSMC MOVE phase): no index translation, no
//! permutation list, no duplicate removal — just per-destination element lists and receive
//! counts.  It is built with a single all-to-all of counts and drives
//! [`crate::executor::scatter_append`].

use mpsim::{Element, ExchangePlan, ExchangeStats, Rank};

use crate::ProcId;

/// A regular (PARTI-style) communication schedule for one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSchedule {
    nprocs: usize,
    /// `send_lists[p]` — local offsets (into the owned section) of the elements this
    /// processor must send to processor `p`, in the order they will be packed.  Every
    /// offset is `< owned_len` (checked by [`CommSchedule::from_parts`]; the executor's
    /// unchecked indexing relies on it, so the field is private to this module).
    send_lists: Vec<Vec<u32>>,
    /// `perm_lists[p]` — ghost-region slots where the elements received from processor `p`
    /// are placed, in the order `p` packs them.  Every slot is `< ghost_len` and appears
    /// in at most one list, once.
    perm_lists: Vec<Vec<u32>>,
    /// Length of the owned section of the arrays this schedule moves.
    owned_len: usize,
    /// Size of the ghost region arrays used with this schedule must provide.  This is the
    /// hash table's total ghost count at build time, so ghost slots are shared consistently
    /// between schedules built from the same table (incremental/merged schedules).
    ghost_len: usize,
}

impl CommSchedule {
    /// Build rank `my_rank`'s schedule from its parts (used by the inspector and by
    /// tests) for arrays of `owned_len` owned elements and at least `ghost_len` ghosts.
    ///
    /// # Panics
    /// Panics, naming the rank, the peer, the value and the bound, if a send offset is
    /// not below `owned_len` or a permutation slot is not below `ghost_len`.  Panics,
    /// naming the rank, both peers and the slot, if a ghost slot appears twice across the
    /// permutation lists: every ghost slot has one writer.
    pub fn from_parts(
        my_rank: ProcId,
        send_lists: Vec<Vec<u32>>,
        perm_lists: Vec<Vec<u32>>,
        owned_len: usize,
        ghost_len: usize,
    ) -> Self {
        let nprocs = send_lists.len();
        assert_eq!(
            perm_lists.len(),
            nprocs,
            "one permutation list per send list"
        );
        // One bit per ghost slot: set once a permutation list claims the slot.
        let mut claimed = vec![0u64; ghost_len.div_ceil(64)];
        for (p, (sends, perms)) in send_lists.iter().zip(&perm_lists).enumerate() {
            if let Some(&off) = sends.iter().find(|&&off| off as usize >= owned_len) {
                panic!(
                    "rank {my_rank}: send offset {off} for peer {p} is outside the \
                     {owned_len} owned elements"
                );
            }
            if let Some(&slot) = perms.iter().find(|&&slot| slot as usize >= ghost_len) {
                panic!(
                    "rank {my_rank}: permutation slot {slot} for peer {p} is outside the \
                     {ghost_len}-element ghost region"
                );
            }
            for &slot in perms {
                let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
                if claimed[word] & bit != 0 {
                    let first = perm_lists
                        .iter()
                        .position(|l| l.contains(&slot))
                        .expect("a claimed slot has a first writer");
                    panic!(
                        "rank {my_rank}: ghost slot {slot} is written by both peer {first} \
                         and peer {p}"
                    );
                }
                claimed[word] |= bit;
            }
        }
        Self {
            nprocs,
            send_lists,
            perm_lists,
            owned_len,
            ghost_len,
        }
    }

    /// An empty schedule (nothing to communicate) for a machine of `nprocs` processors
    /// and arrays of `owned_len` owned elements.
    pub fn empty(nprocs: usize, owned_len: usize) -> Self {
        Self {
            nprocs,
            send_lists: vec![Vec::new(); nprocs],
            perm_lists: vec![Vec::new(); nprocs],
            owned_len,
            ghost_len: 0,
        }
    }

    /// Per-destination send lists: `send_lists()[p]` holds the owned offsets sent to `p`.
    pub fn send_lists(&self) -> &[Vec<u32>] {
        &self.send_lists
    }

    /// Per-source permutation lists: `perm_lists()[p]` holds the ghost slots filled from `p`.
    pub fn perm_lists(&self) -> &[Vec<u32>] {
        &self.perm_lists
    }

    /// The send lists by value, for the maintenance layer to splice edits into.
    pub(crate) fn into_send_lists(self) -> Vec<Vec<u32>> {
        self.send_lists
    }

    /// Owned-section length of the arrays this schedule moves.
    pub fn owned_len(&self) -> usize {
        self.owned_len
    }

    /// Number of processors the schedule spans.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of elements sent to processor `p` (the paper's *send size*).
    pub fn send_size(&self, p: ProcId) -> usize {
        self.send_lists[p].len()
    }

    /// Number of elements fetched from processor `p` (the paper's *fetch size*).
    pub fn fetch_size(&self, p: ProcId) -> usize {
        self.perm_lists[p].len()
    }

    /// Total number of elements this processor sends.
    pub fn total_send(&self) -> usize {
        self.send_lists.iter().map(Vec::len).sum()
    }

    /// Total number of elements this processor fetches.
    pub fn total_fetch(&self) -> usize {
        self.perm_lists.iter().map(Vec::len).sum()
    }

    /// Number of messages this processor will send when the schedule is executed
    /// (one per destination with a non-empty send list).
    pub fn send_message_count(&self) -> usize {
        self.send_lists.iter().filter(|l| !l.is_empty()).count()
    }

    /// Number of messages this processor will receive when the schedule is executed in
    /// the gather direction (one per source with a non-empty permutation list) — equally,
    /// the messages it *sends* in the scatter direction.  Together with
    /// [`CommSchedule::send_message_count`] this prices one full gather + scatter round
    /// trip: with the fused multi-array executor paths, that price is per *step*, not per
    /// array.
    pub fn recv_message_count(&self) -> usize {
        self.perm_lists.iter().filter(|l| !l.is_empty()).count()
    }

    /// Required ghost-region length.
    pub fn ghost_len(&self) -> usize {
        self.ghost_len
    }

    /// Raise the ghost-region requirement to `len`; never lowers it.  Used by the
    /// maintenance layer when a schedule is served unchanged but *other* stamps have
    /// since grown the hash table's ghost region — the selection is untouched, only the
    /// region bound moves, and raising it (locally, for free) keeps a cached or
    /// maintained schedule byte-identical to a from-scratch rebuild.
    pub fn grow_ghost_len(&mut self, len: usize) {
        self.ghost_len = self.ghost_len.max(len);
    }

    /// The exchange plan executing this schedule in the gather direction on `my_rank`:
    /// send-list elements go out, permutation-list elements come in.  Self transfers are
    /// excluded — a schedule never fetches elements the rank already owns.
    pub fn gather_plan(&self, my_rank: ProcId) -> ExchangePlan {
        let mut send_counts: Vec<usize> = self.send_lists.iter().map(Vec::len).collect();
        let mut recv_counts: Vec<usize> = self.perm_lists.iter().map(Vec::len).collect();
        send_counts[my_rank] = 0;
        recv_counts[my_rank] = 0;
        ExchangePlan::sparse(my_rank, send_counts, recv_counts)
    }

    /// The exchange plan for the scatter direction (the mirror image of
    /// [`CommSchedule::gather_plan`]): ghost copies travel back to their owners.
    pub fn scatter_plan(&self, my_rank: ProcId) -> ExchangePlan {
        let mut send_counts: Vec<usize> = self.perm_lists.iter().map(Vec::len).collect();
        let mut recv_counts: Vec<usize> = self.send_lists.iter().map(Vec::len).collect();
        send_counts[my_rank] = 0;
        recv_counts[my_rank] = 0;
        ExchangePlan::sparse(my_rank, send_counts, recv_counts)
    }

    /// Merge two schedules built against the *same* hash table (so their ghost slots are
    /// drawn from the same space) into one that performs both transfers in a single pass.
    /// Duplicate (destination, offset) pairs are kept only once.
    ///
    /// The drivers merge by building one schedule for a member set of a
    /// [`crate::LoopGroup`] instead, so only `tests/schedule_reuse.rs` calls this: it is
    /// the paper's schedule-merging operation behind Table 3, kept public as the
    /// reference those tests check the merged transfer against.
    pub fn merged_with(&self, other: &CommSchedule) -> CommSchedule {
        assert_eq!(
            self.nprocs, other.nprocs,
            "schedules span different machines"
        );
        assert_eq!(
            self.owned_len, other.owned_len,
            "schedules move arrays of different owned lengths"
        );
        let mut send_lists = Vec::with_capacity(self.nprocs);
        let mut perm_lists = Vec::with_capacity(self.nprocs);
        for p in 0..self.nprocs {
            // The pairing between one rank's send list entry k for processor p and
            // processor p's perm list entry k must be preserved, so merging appends
            // `other`'s pairs after `self`'s and drops pairs already present in `self`.
            let mut sends = self.send_lists[p].clone();
            let mut perms = self.perm_lists[p].clone();
            // Sends and perms describe opposite directions; deduplicate each against the
            // existing entries independently (an element already sent need not be sent
            // twice; a ghost slot already filled need not be filled twice).
            for &s in &other.send_lists[p] {
                if !self.send_lists[p].contains(&s) {
                    sends.push(s);
                }
            }
            for &q in &other.perm_lists[p] {
                if !self.perm_lists[p].contains(&q) {
                    perms.push(q);
                }
            }
            send_lists.push(sends);
            perm_lists.push(perms);
        }
        CommSchedule {
            nprocs: self.nprocs,
            send_lists,
            perm_lists,
            owned_len: self.owned_len,
            ghost_len: self.ghost_len.max(other.ghost_len),
        }
    }
}

/// A light-weight schedule: per-destination element lists and receive counts, with no
/// placement information.  Section 3.2.1: "for some adaptive applications ... there is no
/// significance attached to the placement order of incoming array elements".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LightweightSchedule {
    nprocs: usize,
    my_rank: ProcId,
    /// `send_item_lists[p]` — positions (into the caller's item slice) of the items to be
    /// appended on processor `p`.  `send_item_lists[my_rank]` holds the items that stay.
    pub send_item_lists: Vec<Vec<u32>>,
    /// `recv_counts[p]` — how many items processor `p` will append to us.
    pub recv_counts: Vec<usize>,
}

impl LightweightSchedule {
    /// Build a light-weight schedule from the destination processor of every local item.
    ///
    /// Collective: one all-to-all of counts tells every processor how much it will receive
    /// from everyone else — that is the entire inspector for this kind of schedule, which
    /// is why it is so much cheaper to regenerate every time step than a regular schedule.
    pub fn build(rank: &mut Rank, dest_proc_per_item: &[ProcId]) -> Self {
        let nprocs = rank.nprocs();
        let me = rank.rank();
        let mut send_item_lists: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
        for (i, &dest) in dest_proc_per_item.iter().enumerate() {
            assert!(
                dest < nprocs,
                "item {i} destined for processor {dest}, but the machine has {nprocs}"
            );
            send_item_lists[dest].push(i as u32);
        }
        // A small, fixed amount of work per item (binning); contrast with the regular
        // inspector which charges per-index translation and hashing.
        rank.charge_compute(dest_proc_per_item.len() as f64 * 0.05);
        // The entire inspector for this kind of schedule is the exchange engine's count
        // negotiation: one dense all-to-all of item counts.  The counts are packed and
        // placed entirely through pooled engine buffers (borrowed placement), so
        // rebuilding a schedule every time step — the DSMC MOVE pattern — allocates
        // nothing once the pools are warm.
        let send_counts: Vec<usize> = send_item_lists.iter().map(Vec::len).collect();
        let plan = ExchangePlan::negotiate(rank, send_counts);
        let mut recv_counts = plan.recv_counts();
        recv_counts[me] = send_item_lists[me].len();
        Self {
            nprocs,
            my_rank: me,
            send_item_lists,
            recv_counts,
        }
    }

    /// The exchange plan that moves this schedule's items: per-destination item counts
    /// out, negotiated counts in.  The kept portion never enters the plan — the executor
    /// copies it straight from the caller's item slice.
    pub fn append_plan(&self) -> ExchangePlan {
        let mut send_counts: Vec<usize> = self.send_item_lists.iter().map(Vec::len).collect();
        send_counts[self.my_rank] = 0;
        let mut recv_counts = self.recv_counts.clone();
        recv_counts[self.my_rank] = 0;
        ExchangePlan::sparse(self.my_rank, send_counts, recv_counts)
    }

    /// Number of processors the schedule spans.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The rank this schedule belongs to.
    pub fn my_rank(&self) -> ProcId {
        self.my_rank
    }

    /// Items that stay on this processor.
    pub fn kept_count(&self) -> usize {
        self.send_item_lists[self.my_rank].len()
    }

    /// Total number of items sent away (excluding kept items).
    pub fn total_send(&self) -> usize {
        self.send_item_lists
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != self.my_rank)
            .map(|(_, l)| l.len())
            .sum()
    }

    /// Total number of items that will arrive from other processors.
    pub fn total_recv(&self) -> usize {
        self.recv_counts
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != self.my_rank)
            .map(|(_, c)| *c)
            .sum()
    }

    /// The number of items this processor will hold after the append (kept + received).
    pub fn result_count(&self) -> usize {
        self.kept_count() + self.total_recv()
    }

    /// What [`crate::executor::scatter_append`] of `T` items puts on the wire for this
    /// schedule: one message per non-empty cross-rank list, `T::SIZE` bytes per item.
    pub fn exchange_stats<T: Element>(&self) -> ExchangeStats {
        let item_bytes = T::SIZE as u64;
        let mut stats = ExchangeStats::default();
        for (p, list) in self.send_item_lists.iter().enumerate() {
            if p != self.my_rank && !list.is_empty() {
                stats.msgs_sent += 1;
                stats.bytes_sent += list.len() as u64 * item_bytes;
            }
        }
        for (p, &cnt) in self.recv_counts.iter().enumerate() {
            if p != self.my_rank && cnt > 0 {
                stats.msgs_received += 1;
                stats.bytes_received += cnt as u64 * item_bytes;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{run, MachineConfig};

    #[test]
    fn comm_schedule_sizes() {
        let s = CommSchedule::from_parts(
            0,
            vec![vec![], vec![0, 2], vec![1]],
            vec![vec![], vec![0], vec![1, 2, 3]],
            3,
            4,
        );
        assert_eq!(s.nprocs(), 3);
        assert_eq!(s.send_size(1), 2);
        assert_eq!(s.fetch_size(2), 3);
        assert_eq!(s.total_send(), 3);
        assert_eq!(s.total_fetch(), 4);
        assert_eq!(s.send_message_count(), 2);
        assert_eq!(s.ghost_len(), 4);
    }

    #[test]
    fn empty_schedule_is_inert() {
        let s = CommSchedule::empty(4, 0);
        assert_eq!(s.total_send(), 0);
        assert_eq!(s.total_fetch(), 0);
        assert_eq!(s.send_message_count(), 0);
        assert_eq!(s.ghost_len(), 0);
    }

    #[test]
    fn merged_schedule_unions_without_duplicates() {
        let a =
            CommSchedule::from_parts(0, vec![vec![], vec![0, 1]], vec![vec![], vec![0, 1]], 3, 2);
        let b =
            CommSchedule::from_parts(0, vec![vec![], vec![1, 2]], vec![vec![], vec![1, 2]], 3, 3);
        let m = a.merged_with(&b);
        assert_eq!(m.send_lists[1], vec![0, 1, 2]);
        assert_eq!(m.perm_lists[1], vec![0, 1, 2]);
        assert_eq!(m.ghost_len(), 3);
        assert_eq!(m.total_send(), 3);
    }

    #[test]
    #[should_panic(expected = "rank 1: send offset 5 for peer 0 is outside the 5 owned elements")]
    fn out_of_range_send_offset_is_rejected_where_the_lists_are_born() {
        let _ = CommSchedule::from_parts(1, vec![vec![4, 5], vec![]], vec![vec![0], vec![]], 5, 1);
    }

    #[test]
    #[should_panic(
        expected = "rank 0: permutation slot 2 for peer 1 is outside the 2-element ghost region"
    )]
    fn out_of_range_permutation_slot_is_rejected_where_the_lists_are_born() {
        let _ = CommSchedule::from_parts(0, vec![vec![], vec![0]], vec![vec![], vec![1, 2]], 1, 2);
    }

    #[test]
    #[should_panic(expected = "rank 2: ghost slot 1 is written by both peer 0 and peer 1")]
    fn ghost_slot_with_two_writers_is_rejected_where_the_lists_are_born() {
        let _ = CommSchedule::from_parts(
            2,
            vec![vec![], vec![], vec![]],
            vec![vec![0, 1], vec![2, 1], vec![]],
            1,
            3,
        );
    }

    #[test]
    #[should_panic(expected = "different machines")]
    fn merging_mismatched_machine_sizes_panics() {
        let a = CommSchedule::empty(2, 0);
        let b = CommSchedule::empty(3, 0);
        let _ = a.merged_with(&b);
    }

    #[test]
    fn lightweight_schedule_counts_match_across_ranks() {
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            // Every rank has 8 items; item i goes to processor (me + i) % 4.
            let dests: Vec<usize> = (0..8).map(|i| (me + i) % 4).collect();
            let lw = LightweightSchedule::build(rank, &dests);
            (
                lw.kept_count(),
                lw.total_send(),
                lw.total_recv(),
                lw.result_count(),
                lw.recv_counts.clone(),
            )
        });
        for (kept, sent, recvd, result, recv_counts) in &out.results {
            assert_eq!(*kept, 2);
            assert_eq!(*sent, 6);
            assert_eq!(*recvd, 6);
            assert_eq!(*result, 8);
            // Every other rank sends exactly 2 items to us.
            assert_eq!(recv_counts.iter().sum::<usize>(), 8);
        }
    }

    #[test]
    fn lightweight_build_with_no_items() {
        let out = run(MachineConfig::new(3), |rank| {
            let lw = LightweightSchedule::build(rank, &[]);
            (lw.kept_count(), lw.total_recv(), lw.result_count())
        });
        for r in &out.results {
            assert_eq!(*r, (0, 0, 0));
        }
    }

    #[test]
    fn lightweight_rejects_bad_destination() {
        let result = std::panic::catch_unwind(|| {
            run(MachineConfig::new(2), |rank| {
                let _ = LightweightSchedule::build(rank, &[5]);
            })
        });
        assert!(result.is_err());
    }
}
