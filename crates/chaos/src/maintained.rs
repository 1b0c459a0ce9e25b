//! Delta-schedule maintenance: patch an existing [`CommSchedule`] instead of rebuilding.
//!
//! Table 2 of the paper shows preprocessing (inspector) cost dominating adaptive runs, and
//! §3.2.2's stamped hash table already amortises *index analysis*.  This module amortises
//! the other half — *schedule generation*.  A [`MaintainedSchedule`] remembers which rows
//! (ghost slot, owner offset) it requested from each owner; when the hash table drifts
//! (particles migrate, a non-bonded list adapts), [`patch_schedule`] diffs the old request
//! lists against the table's current selection and negotiates **only the edits** to the
//! owners, instead of re-sending every request through a dense all-to-all.
//!
//! The patched schedule is **byte-identical** to what [`build_schedule_from_table`] would
//! produce from scratch — same send lists, same permutation lists, same ghost length — so
//! executors, fused multi-array gathers, and split-phase handles can use it with no change
//! and applications can switch between rebuild and patch without perturbing results.  That
//! identity holds because both paths order rows the same way: hash-table insertion order,
//! in which ghost slots are strictly increasing per owner.
//!
//! Freshness is tracked by [`ScheduleKey`] operation counters (see
//! [`IndexHashTable::version`]); a schedule whose key still matches needs no maintenance at
//! all, and the check involves no communication.

use std::ops::Deref;

use mpsim::{route_sparse, Rank};

use crate::index_hash::{IndexHashTable, ScheduleKey, StampQuery};
use crate::inspector::build_schedule_from_table;
use crate::schedule::CommSchedule;

/// One requested row on the fetching side: the local ghost slot the element lands in and
/// the element's offset in its owner's owned section.  `(slot, offset)` — not slot alone —
/// is the row identity used when diffing: after [`IndexHashTable::clear_all`] slot numbers
/// are reused for *different* globals, and the offset disambiguates them.
type Row = (u32, u32);

/// An edit shipped to an owner: `(op, pos, offset)` where `op` 0 deletes the row at old
/// position `pos` of the owner's send list for us, and `op` 1 inserts `offset` at final
/// position `pos`.  Deletions are emitted in ascending old position, insertions in
/// ascending final position.
type Edit = (u32, u32, u32);

const EDIT_DELETE: u32 = 0;
const EDIT_INSERT: u32 = 1;

/// A [`CommSchedule`] bundled with the provenance needed to patch it in place.
///
/// Dereferences to the underlying schedule, so it can be passed to every executor entry
/// point (`gather(rank, &ms, ..)`) unchanged.
#[derive(Debug, Clone)]
pub struct MaintainedSchedule {
    key: ScheduleKey,
    schedule: CommSchedule,
    /// `rows[p]` — the rows this rank currently requests from owner `p`, in schedule
    /// order.  `rows[p][i].0` always equals `schedule.perm_lists()[p][i]`.
    rows: Vec<Vec<Row>>,
}

impl Deref for MaintainedSchedule {
    type Target = CommSchedule;

    fn deref(&self) -> &CommSchedule {
        &self.schedule
    }
}

impl MaintainedSchedule {
    /// The underlying communication schedule.
    pub fn schedule(&self) -> &CommSchedule {
        &self.schedule
    }

    /// The version key the schedule is current for.
    pub fn key(&self) -> &ScheduleKey {
        &self.key
    }

    /// True when the schedule is exact for the table's current contents: no patch needed,
    /// and [`patch_schedule`] would return without communicating.  Local and free.
    pub fn is_current(&self, table: &IndexHashTable) -> bool {
        self.key == table.version(self.key.query())
    }

    /// Give up maintenance and keep just the schedule.
    pub fn into_schedule(self) -> CommSchedule {
        self.schedule
    }

    /// See [`CommSchedule::grow_ghost_len`]: raise the schedule's ghost-region bound when
    /// the table grew through *other* stamps while this schedule stayed current.
    pub fn grow_ghost_len(&mut self, len: usize) {
        self.schedule.grow_ghost_len(len);
    }
}

/// Statistics from one [`patch_schedule`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// False when the schedule was already current and nothing happened (no communication).
    pub refreshed: bool,
    /// Ghost rows unchanged between old and new selection (the amortised part).
    pub kept: usize,
    /// Ghost rows removed from this rank's fetch side.
    pub removed: usize,
    /// Ghost rows added on this rank's fetch side.
    pub added: usize,
    /// Edit records this rank shipped to owners (`removed + added`).
    pub edits_sent: usize,
    /// Edit records this rank received as an owner.
    pub edits_received: usize,
}

/// Build a schedule for `query` with the provenance needed to patch it later.
///
/// Collective.  The schedule is exactly [`build_schedule_from_table`]'s — maintenance adds
/// only the locally-kept row lists and the version key.
pub fn build_maintained(
    rank: &mut Rank,
    table: &IndexHashTable,
    query: StampQuery,
) -> MaintainedSchedule {
    let key = table.version(query);
    let schedule = build_schedule_from_table(rank, table, query);
    let rows = current_rows(rank.nprocs(), rank.rank(), table, query).0;
    MaintainedSchedule {
        key,
        schedule,
        rows,
    }
}

/// Collect the rows this rank currently requests from each owner, in schedule order, plus
/// the number of entries matching the query (for cost accounting).
fn current_rows(
    nprocs: usize,
    me: usize,
    table: &IndexHashTable,
    query: StampQuery,
) -> (Vec<Vec<Row>>, usize) {
    let mut rows: Vec<Vec<Row>> = vec![Vec::new(); nprocs];
    let mut matched = 0usize;
    for entry in table.entries_matching(query) {
        matched += 1;
        if let Some(slot) = entry.ghost_slot {
            let owner = entry.loc.owner as usize;
            debug_assert_ne!(owner, me, "owned entries never carry ghost slots");
            rows[owner].push((slot, entry.loc.offset));
        }
    }
    (rows, matched)
}

/// Patch `ms` so it matches what a from-scratch rebuild against `table` would produce.
///
/// Collective — all ranks must call it together (the no-op fast path is symmetric because
/// [`ScheduleKey`] comparisons are, so no rank communicates when any rank skips).  The diff
/// walks old and new row lists once per owner (both are in hash-insertion order, slots
/// strictly increasing), ships positional edit scripts through one fused log-depth routing
/// pass ([`mpsim::route_sparse`] — `ceil(log2 P)` messages per rank, no per-peer direct
/// messages), and owners splice their send lists — O(changed rows) bytes in O(log P)
/// messages instead of the rebuild's O(all rows) bytes in a dense O(P) all-to-all.
///
/// # Panics
/// Panics if `ms` was built for a different machine size than `rank`'s.
pub fn patch_schedule(
    rank: &mut Rank,
    table: &IndexHashTable,
    ms: &mut MaintainedSchedule,
) -> PatchStats {
    let nprocs = rank.nprocs();
    let me = rank.rank();
    assert_eq!(
        ms.schedule.nprocs(),
        nprocs,
        "schedule and machine span different sizes"
    );
    let query = ms.key.query();
    let key = table.version(query);
    if key == ms.key {
        // Other stamps may have grown the ghost region since; the selection is still
        // exact, so only the region bound needs refreshing — locally, for free.
        ms.schedule.grow_ghost_len(table.ghost_len());
        return PatchStats {
            refreshed: false,
            kept: ms.schedule.total_fetch(),
            ..PatchStats::default()
        };
    }

    // Diff the old request rows against the table's current selection, per owner.
    let (new_rows, matched) = current_rows(nprocs, me, table, query);
    let mut edits: Vec<Vec<Edit>> = vec![Vec::new(); nprocs];
    let mut stats = PatchStats {
        refreshed: true,
        ..PatchStats::default()
    };
    for p in 0..nprocs {
        diff_rows(&ms.rows[p], &new_rows[p], &mut edits[p], &mut stats);
    }
    stats.edits_sent = edits.iter().map(Vec::len).sum();

    // Ship the scripts through the fused log-depth routing pass: negotiation and delivery
    // in `ceil(log2 P)` messages per rank, total — no per-peer direct messages at all.
    let incoming = route_sparse(rank, &edits);
    stats.edits_received = incoming.iter().map(Vec::len).sum();
    // Patch cost: a twentieth of a unit per still-matching entry (reading the table) plus
    // a fifth per edit on each side — against the rebuild's fifth per *matched* entry.
    rank.charge_compute(
        matched as f64 * 0.05 + (stats.edits_sent + stats.edits_received) as f64 * 0.2,
    );

    // Owners splice the received edit scripts into their send lists.
    let old = std::mem::replace(
        &mut ms.schedule,
        CommSchedule::empty(nprocs, table.owned_len()),
    );
    let mut send_lists = old.into_send_lists();
    for (src, script) in incoming.iter().enumerate() {
        if !script.is_empty() {
            send_lists[src] = apply_edits(&send_lists[src], script);
        }
    }
    let perm_lists: Vec<Vec<u32>> = new_rows
        .iter()
        .map(|rows| rows.iter().map(|r| r.0).collect())
        .collect();
    ms.schedule = CommSchedule::from_parts(
        me,
        send_lists,
        perm_lists,
        table.owned_len(),
        table.ghost_len(),
    );
    ms.rows = new_rows;
    ms.key = key;
    stats
}

/// Emit the edit script turning `old` into `new`.  Both lists are sorted by ghost slot
/// (strictly increasing — hash-insertion order per owner), so a single merge pass finds
/// kept rows, deletions (ascending old position) and insertions (ascending new position).
/// A slot reused for a different owner offset (possible after `clear_all`) becomes a
/// delete-plus-insert at the same position.
fn diff_rows(old: &[Row], new: &[Row], edits: &mut Vec<Edit>, stats: &mut PatchStats) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        let (oslot, ooff) = old[i];
        let (nslot, noff) = new[j];
        if oslot == nslot {
            if ooff != noff {
                edits.push((EDIT_DELETE, i as u32, 0));
                edits.push((EDIT_INSERT, j as u32, noff));
                stats.removed += 1;
                stats.added += 1;
            } else {
                stats.kept += 1;
            }
            i += 1;
            j += 1;
        } else if oslot < nslot {
            edits.push((EDIT_DELETE, i as u32, 0));
            stats.removed += 1;
            i += 1;
        } else {
            edits.push((EDIT_INSERT, j as u32, noff));
            stats.added += 1;
            j += 1;
        }
    }
    for (pos, _) in old.iter().enumerate().skip(i) {
        edits.push((EDIT_DELETE, pos as u32, 0));
        stats.removed += 1;
    }
    for (pos, &(_, noff)) in new.iter().enumerate().skip(j) {
        edits.push((EDIT_INSERT, pos as u32, noff));
        stats.added += 1;
    }
}

/// Apply one requester's edit script to the send list this rank keeps for it.
fn apply_edits(old: &[u32], script: &[Edit]) -> Vec<u32> {
    let mut deleted = vec![false; old.len()];
    let mut inserts: Vec<(u32, u32)> = Vec::new();
    let mut ndel = 0usize;
    for &(op, pos, off) in script {
        if op == EDIT_DELETE {
            deleted[pos as usize] = true;
            ndel += 1;
        } else {
            debug_assert!(
                inserts.last().is_none_or(|&(p, _)| p < pos),
                "insertions must arrive in ascending position order"
            );
            inserts.push((pos, off));
        }
    }
    let final_len = old.len() - ndel + inserts.len();
    let mut out = Vec::with_capacity(final_len);
    let mut kept = old
        .iter()
        .zip(&deleted)
        .filter(|(_, &d)| !d)
        .map(|(&o, _)| o);
    let mut ins = inserts.into_iter().peekable();
    for pos in 0..final_len as u32 {
        match ins.peek() {
            Some(&(p, off)) if p == pos => {
                out.push(off);
                ins.next();
            }
            _ => out.push(kept.next().expect("edit script shorter than send list")),
        }
    }
    debug_assert!(kept.next().is_none(), "edit script longer than send list");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{BlockDist, RegularDist};
    use crate::index_hash::Stamp;
    use crate::translation::TranslationTable;
    use mpsim::{run, MachineConfig};

    #[test]
    fn diff_and_apply_roundtrip_arbitrary_lists() {
        // Pure-logic check: for assorted old/new row lists, applying the diff's edit
        // script to the old offsets yields exactly the new offsets.
        let cases: Vec<(Vec<Row>, Vec<Row>)> = vec![
            (vec![], vec![]),
            (vec![], vec![(0, 4), (2, 9)]),
            (vec![(0, 4), (2, 9)], vec![]),
            (vec![(0, 4), (2, 9)], vec![(0, 4), (2, 9)]),
            (vec![(0, 4), (2, 9)], vec![(0, 4), (1, 7), (2, 9)]),
            (vec![(0, 4), (1, 7), (2, 9)], vec![(1, 7)]),
            // Slot reuse with a different offset (post-clear_all shape).
            (vec![(0, 4), (1, 7)], vec![(0, 5), (1, 7), (3, 2)]),
            (vec![(5, 1), (8, 2), (9, 3)], vec![(4, 6), (8, 2), (11, 0)]),
        ];
        for (old, new) in cases {
            let mut edits = Vec::new();
            let mut stats = PatchStats::default();
            diff_rows(&old, &new, &mut edits, &mut stats);
            let old_offsets: Vec<u32> = old.iter().map(|r| r.1).collect();
            let new_offsets: Vec<u32> = new.iter().map(|r| r.1).collect();
            assert_eq!(apply_edits(&old_offsets, &edits), new_offsets);
            assert_eq!(stats.kept + stats.removed, old.len());
            assert_eq!(stats.kept + stats.added, new.len());
        }
    }

    #[test]
    fn patched_schedule_equals_rebuild_after_drift() {
        let out = run(MachineConfig::new(4), |rank| {
            let dist = BlockDist::new(32, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let owned = dist.local_size(rank.rank());
            let mut h = IndexHashTable::new(rank.rank(), owned);
            let s = Stamp::new(0);
            let q = StampQuery::single(s);
            let first: Vec<usize> = (0..32).step_by(3).collect();
            h.hash_in_replicated(rank, &ttable, &first, s);
            let mut ms = build_maintained(rank, &h, q);
            assert!(ms.is_current(&h));
            // Drift: drop the stamp, re-hash a shifted pattern.
            h.clear_stamp(s);
            let second: Vec<usize> = (0..32).step_by(3).map(|g| (g + 1) % 32).collect();
            h.hash_in_replicated(rank, &ttable, &second, s);
            assert!(!ms.is_current(&h));
            let stats = patch_schedule(rank, &h, &mut ms);
            let rebuilt = build_schedule_from_table(rank, &h, q);
            (ms.schedule().clone(), rebuilt, stats)
        });
        for (patched, rebuilt, stats) in &out.results {
            assert_eq!(patched, rebuilt, "patched schedule must equal a rebuild");
            assert!(stats.refreshed);
        }
    }

    #[test]
    fn current_schedule_patches_for_free() {
        let out = run(MachineConfig::new(2), |rank| {
            let dist = BlockDist::new(8, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut h = IndexHashTable::new(rank.rank(), dist.local_size(rank.rank()));
            let s = Stamp::new(0);
            h.hash_in_replicated(rank, &ttable, &[0, 7, 3, 5], s);
            let mut ms = build_maintained(rank, &h, StampQuery::single(s));
            let before = ms.schedule().clone();
            let msgs_before = rank.stats().msgs_sent;
            let stats = patch_schedule(rank, &h, &mut ms);
            (
                stats,
                ms.schedule() == &before,
                rank.stats().msgs_sent - msgs_before,
            )
        });
        for (stats, unchanged, msgs) in &out.results {
            assert!(!stats.refreshed);
            assert_eq!(stats.edits_sent + stats.edits_received, 0);
            assert!(*unchanged);
            assert_eq!(*msgs, 0, "a current schedule must not communicate");
        }
    }
}
