//! The stamped index hash table (§3.2.2 of the paper).
//!
//! The inspector's index analysis — duplicate removal, global-to-local translation, ghost
//! buffer allocation — is expensive, and in adaptive problems it has to be repeated every
//! time an indirection array changes.  CHAOS amortises the cost by keeping all results of
//! index analysis in a hash table keyed by global index.  Each entry records:
//!
//! * the *translated address* (owning processor and offset) from the translation table,
//! * the *local ghost slot* assigned to the element if it is off-processor,
//! * a *stamp* bit-set identifying which indirection arrays reference the element.
//!
//! Hashing a new version of an indirection array is cheap when most of its entries are
//! already present (the CHARMM non-bonded list changes slowly); clearing a stamp and
//! re-hashing reuses both the translation results and the ghost slots.  Communication
//! schedules are built from the table by selecting entries whose stamps match a
//! [`StampQuery`], which is how merged (`a + b + c`) and incremental (`b - a`) schedules of
//! Figure 6 are expressed.
//!
//! # Layout
//!
//! Global indices are dense (`0..N`, the translation table's index space), so the "hash
//! table" is direct-mapped: `index[g]` is a `u32` naming the position of global `g`'s
//! entry in `slots`, the entry storage kept in insertion order (which is what makes
//! schedules identical on every rank).  One value of `index` is a sentinel: `ABSENT`
//! (`u32::MAX`) — never hashed in.  The probe is one bounds-checked load; a global outside
//! `0..N` fails that check and becomes a named panic.
//!
//! `index` is grown to the translation table's `global_size()` the first time the table
//! is hashed into (so [`IndexHashTable::new`] needs no size), which costs **4·N bytes per
//! table** — at most half of the replicated translation table (8 bytes an entry) the same
//! rank already holds.  Should a workload with huge `N` and a sparse touched set make
//! that matter, `index` can become an open-addressed table under a multiplicative hash
//! without touching a caller; nothing outside this module sees it.

use std::sync::atomic::{AtomicU64, Ordering};

use mpsim::Rank;

use crate::darray::LocalRef;
use crate::translation::{Loc, TranslationTable};
use crate::{Global, ProcId};

/// A stamp identifies one indirection array (or one use of one) inside the hash table.
/// Stamps are bit positions, so at most 64 distinct stamps can be live at once — far more
/// than any loop nest in the paper's applications needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stamp(u8);

impl Stamp {
    /// Create stamp number `bit` (0..=63).
    pub const fn new(bit: u8) -> Self {
        assert!(bit < 64, "at most 64 stamps are supported");
        Stamp(bit)
    }

    /// The bit mask of this stamp.
    pub fn mask(self) -> u64 {
        1u64 << self.0
    }

    /// The bit position of this stamp.
    pub fn bit(self) -> u8 {
        self.0
    }
}

/// A logical combination of stamps used to select hash-table entries when building a
/// schedule: an entry matches if it carries **any** of the `include` stamps and **none** of
/// the `exclude` stamps.
///
/// * merged schedule over arrays a, b, c  → `StampQuery::any_of(&[a, b, c])`
/// * incremental schedule "b minus a"     → `StampQuery::minus(&[b], &[a])`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampQuery {
    include: u64,
    exclude: u64,
}

impl StampQuery {
    /// Entries stamped by `stamp`.
    pub fn single(stamp: Stamp) -> Self {
        StampQuery {
            include: stamp.mask(),
            exclude: 0,
        }
    }

    /// Entries stamped by any of `stamps` (a *merged* schedule).
    pub fn any_of(stamps: &[Stamp]) -> Self {
        StampQuery {
            include: stamps.iter().fold(0, |m, s| m | s.mask()),
            exclude: 0,
        }
    }

    /// Entries stamped by any of `include` but none of `exclude` (an *incremental*
    /// schedule: gather only what earlier schedules have not already brought in).
    pub fn minus(include: &[Stamp], exclude: &[Stamp]) -> Self {
        StampQuery {
            include: include.iter().fold(0, |m, s| m | s.mask()),
            exclude: exclude.iter().fold(0, |m, s| m | s.mask()),
        }
    }

    /// Does an entry with the given stamp bits match?
    pub fn matches(&self, stamps: u64) -> bool {
        (stamps & self.include) != 0 && (stamps & self.exclude) == 0
    }

    /// Bit mask of the included stamps.
    pub fn include_mask(&self) -> u64 {
        self.include
    }

    /// Bit mask of the excluded stamps.
    pub fn exclude_mask(&self) -> u64 {
        self.exclude
    }
}

/// Source of process-unique [`IndexHashTable`] identities (see [`ScheduleKey`]).
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// A version key identifying *which* contents of *which* hash table a schedule was built
/// from.  Two keys are equal exactly when the entries matching the key's query are
/// guaranteed unchanged, so `key == table.version(query)` means a schedule built earlier
/// from `key` is still exact and can be reused without any communication.
///
/// The key is composed of operation counters, not content hashes:
///
/// * `table_id` — process-unique identity of the table (a new table never matches keys
///   from an old one, even if it reuses the same memory),
/// * `epoch` — bumped by [`IndexHashTable::clear_all`] (all translations invalidated),
/// * `gens` — one generation counter per stamp named by the query (include *or* exclude),
///   bumped every time that stamp is hashed under or cleared.
///
/// Because the counters advance once per *operation* (not per element), SPMD programs that
/// mutate the table at the same program points on every rank observe the same
/// changed/unchanged pattern machine-wide — which is what makes it safe for a cache to
/// *skip a collective rebuild* on a key match (see `crate::cache::ScheduleCache`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleKey {
    table_id: u64,
    epoch: u64,
    query: StampQuery,
    /// Generation of each stamp bit named by `query`, in ascending bit order.
    gens: Vec<u64>,
}

impl ScheduleKey {
    /// The query this key versions.
    pub fn query(&self) -> StampQuery {
        self.query
    }

    /// The process-unique identity of the table this key was taken from (compare with
    /// [`IndexHashTable::table_id`]).
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// The table's [`IndexHashTable::clear_all`] count when the key was taken.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when `self` and `other` describe the same query over the same table —
    /// regardless of whether the versions match.  This is the cache-lookup predicate:
    /// same source means a stored schedule can be brought forward (patched within an
    /// epoch, rebuilt in place across one); equal keys mean it is *current*.
    pub fn same_source(&self, other: &ScheduleKey) -> bool {
        self.table_id == other.table_id && self.query == other.query
    }
}

/// One hash-table entry (see the field list in §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashEntry {
    /// The global index hashed in.
    pub global: Global,
    /// Translated address: owning processor and offset on that processor.
    pub loc: Loc,
    /// Ghost slot assigned to this element if it is off-processor, else `None`.
    pub ghost_slot: Option<u32>,
    /// Bit set of stamps: which indirection arrays reference this element.
    pub stamps: u64,
}

/// `index` value of a global that has never been hashed in.  Every slot position is below
/// it.
const ABSENT: u32 = u32::MAX;

/// The stamped hash table used by the inspector for index analysis.  See the module
/// documentation for the layout and its 4·N-byte memory bound.
pub struct IndexHashTable {
    my_rank: ProcId,
    /// Number of owned elements, which is also the local reference of ghost slot 0
    /// (checked against `u32` in `new`).
    owned_len: u32,
    /// Direct-mapped global index → position in `slots` or `ABSENT`; empty until the
    /// first hash sizes it to the translation table's global size.
    index: Vec<u32>,
    /// Entry storage in insertion order — iteration order must be deterministic so that
    /// every rank builds schedules with identical request ordering.
    slots: Vec<HashEntry>,
    next_ghost_slot: u32,
    /// Process-unique identity, for [`ScheduleKey`]s.
    table_id: u64,
    /// Bumped by [`IndexHashTable::clear_all`].
    epoch: u64,
    /// Per-stamp generation counters: `stamp_gens[b]` advances once per
    /// `hash_in_replicated[_into]` *call* under stamp `b` and once per `clear_stamp(b)`.
    stamp_gens: [u64; 64],
}

impl IndexHashTable {
    /// Create an empty table for a rank owning `owned_len` elements of the data array
    /// distribution being analysed.
    pub fn new(my_rank: ProcId, owned_len: usize) -> Self {
        Self {
            my_rank,
            owned_len: u32::try_from(owned_len).expect("owned length must fit u32"),
            index: Vec::new(),
            slots: Vec::new(),
            next_ghost_slot: 0,
            table_id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
            stamp_gens: [0; 64],
        }
    }

    /// This table's process-unique identity (every `new` table gets a fresh one).
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// The version key for `query` against the table's current contents.  A schedule
    /// built (or last patched) when the table reported this same key needs no maintenance;
    /// see [`ScheduleKey`] for the machine-wide-consistency contract.
    pub fn version(&self, query: StampQuery) -> ScheduleKey {
        let named = query.include_mask() | query.exclude_mask();
        let gens = (0..64)
            .filter(|b| named & (1u64 << b) != 0)
            .map(|b| self.stamp_gens[b])
            .collect();
        ScheduleKey {
            table_id: self.table_id,
            epoch: self.epoch,
            query,
            gens,
        }
    }

    /// Number of distinct global indices hashed in so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing has been hashed in.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of ghost slots assigned so far (the ghost-region size any array used with
    /// schedules built from this table must provide).
    pub fn ghost_len(&self) -> usize {
        self.next_ghost_slot as usize
    }

    /// Number of owned elements this table translates against.
    pub fn owned_len(&self) -> usize {
        self.owned_len as usize
    }

    /// Hash the global indices of one indirection array into the table under `stamp`,
    /// translating them through `ttable`, and return the corresponding local references
    /// (owned offset or ghost slot) in input order.
    ///
    /// This is `CHAOS_hash` from the paper.  The translation table is replicated, so no
    /// communication occurs; the cost of hashing is charged to the rank's modeled
    /// computation time.
    ///
    /// # Panics
    /// Panics, naming the index, the array size and the stamp, if a global index lies
    /// outside `ttable`'s index space.
    pub fn hash_in_replicated(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
    ) -> Vec<LocalRef> {
        let mut refs = Vec::new();
        self.probe_replicated(rank, ttable, globals, stamp, &mut refs, |r| {
            LocalRef(r as usize)
        });
        refs
    }

    /// [`IndexHashTable::hash_in_replicated`] writing a reusable `u32` reference stream:
    /// the local references are **appended** to `out` in input order, so a caller hashing
    /// row by row builds one CSR array instead of a vector per row, and a caller that
    /// re-hashes every step reuses one allocation.  Same table updates, same modeled cost.
    pub fn hash_in_replicated_into(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
        out: &mut Vec<u32>,
    ) {
        self.probe_replicated(rank, ttable, globals, stamp, out, |r| r);
    }

    /// The one probe loop behind both entry points, generic over the output element.  It
    /// is written as a single `extend` over a closure with the probe inline because that
    /// is the fastest of the formulations measured on the `inspector_drift` workload: a
    /// `push` per element, a per-element helper taking `&mut self`, and an intermediate
    /// `u32` vector re-wrapped into `LocalRef`s were all slower (numbers in DESIGN.md,
    /// "The CHAOS runtime").
    #[inline]
    fn probe_replicated<R>(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
        out: &mut Vec<R>,
        wrap: impl Fn(u32) -> R,
    ) {
        self.stamp_gens[stamp.bit() as usize] += 1;
        self.grow_index(ttable);
        let mask = stamp.mask();
        let owned_len = self.owned_len;
        let slots_before = self.slots.len();
        out.extend(globals.iter().map(|&g| {
            let at = match self.index.get(g) {
                Some(&at) if at != ABSENT => at,
                Some(_) => self.insert(g, ttable.lookup(g)),
                None => out_of_range("hash_in_replicated", g, self.index.len(), stamp),
            };
            let entry = &mut self.slots[at as usize];
            entry.stamps |= mask;
            wrap(local_ref(entry, owned_len))
        }));
        // Index analysis cost: one unit per new index (hash insert + translation), a tenth
        // of a unit per already-known index (hash probe only).  This is what makes hash
        // reuse visible in the modeled preprocessing times.
        let new_count = self.slots.len() - slots_before;
        let known = globals.len() - new_count;
        rank.charge_compute(new_count as f64 + known as f64 * 0.1);
    }

    /// Size `index` to `ttable`'s index space (a no-op after the first hash against it).
    fn grow_index(&mut self, ttable: &TranslationTable) {
        if self.index.len() < ttable.global_size() {
            self.index.resize(ttable.global_size(), ABSENT);
        }
    }

    /// Append the entry for a newly translated global, assigning the next ghost slot if
    /// it is off-processor; point `index` at it and return its position in `slots`.  Slot
    /// positions and local references are checked against `u32` here, where they are born.
    fn insert(&mut self, global: Global, loc: Loc) -> u32 {
        let at = u32::try_from(self.slots.len())
            .ok()
            .filter(|&at| at < ABSENT)
            .expect("hash-table slot count must fit u32");
        let ghost_slot = if loc.owner as usize == self.my_rank {
            None
        } else {
            let slot = self.next_ghost_slot;
            self.owned_len
                .checked_add(slot)
                .expect("local references must fit u32");
            self.next_ghost_slot += 1;
            Some(slot)
        };
        self.slots.push(HashEntry {
            global,
            loc,
            ghost_slot,
            stamps: 0,
        });
        self.index[global] = at;
        at
    }

    /// Clear `stamp` from every entry.  Entries themselves (and their translation results
    /// and ghost slots) are retained so that re-hashing a slightly modified indirection
    /// array under the same stamp is cheap — exactly the CHARMM non-bonded-list update
    /// pattern described in §4.1.
    pub fn clear_stamp(&mut self, stamp: Stamp) {
        self.stamp_gens[stamp.bit() as usize] += 1;
        let mask = !stamp.mask();
        for entry in &mut self.slots {
            entry.stamps &= mask;
        }
    }

    /// Remove every entry and release all ghost slots.  Used when the data distribution
    /// itself changes (after a remap) and all translation results are stale; `owned_len`
    /// is this rank's owned length under the new distribution.  The epoch bump makes a
    /// [`crate::cache::ScheduleCache`] rebuild this table's schedules in place.
    pub fn clear_all(&mut self, owned_len: usize) {
        self.owned_len = u32::try_from(owned_len).expect("owned length must fit u32");
        self.index.clear();
        self.slots.clear();
        self.next_ghost_slot = 0;
        self.epoch += 1;
    }

    /// All entries in deterministic (insertion) order; single-entry lookups go through
    /// [`IndexHashTable::get`].  No product code reads the whole table; this is the
    /// observation point `tests/index_hash_model.rs` compares against its sequential
    /// model after every step, so it stays public.
    pub fn entries_in_order(&self) -> &[HashEntry] {
        &self.slots
    }

    /// Iterate over entries matching `query` in deterministic (insertion) order.
    pub fn entries_matching<'a>(
        &'a self,
        query: StampQuery,
    ) -> impl Iterator<Item = &'a HashEntry> + 'a {
        self.slots.iter().filter(move |e| query.matches(e.stamps))
    }

    /// Look up the entry for a global index, if present (`None` also for an index past
    /// the end of the array).
    pub fn get(&self, g: Global) -> Option<&HashEntry> {
        let at = *self.index.get(g)?;
        // The sentinel lies past every slot position.
        self.slots.get(at as usize)
    }
}

/// The local reference of `entry` on a rank owning `owned_len` elements: its owned offset,
/// or its ghost slot past the owned section.  Cannot overflow — the sum was checked when
/// the ghost slot was assigned.
#[inline]
fn local_ref(entry: &HashEntry, owned_len: u32) -> u32 {
    match entry.ghost_slot {
        None => entry.loc.offset,
        Some(slot) => owned_len + slot,
    }
}

#[cold]
#[inline(never)]
fn out_of_range(op: &str, g: Global, size: usize, stamp: Stamp) -> ! {
    panic!(
        "{op}: global index {g} outside array of size {size} (stamp bit {})",
        stamp.bit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{BlockDist, RegularDist};
    use mpsim::{run, MachineConfig};

    fn table_for(rank: &mut Rank, n: usize) -> (TranslationTable, usize) {
        let dist = BlockDist::new(n, rank.nprocs());
        let owned = dist.local_size(rank.rank());
        (TranslationTable::from_regular(&dist), owned)
    }

    #[test]
    fn stamp_masks_and_queries() {
        let a = Stamp::new(0);
        let b = Stamp::new(1);
        let c = Stamp::new(5);
        assert_eq!(a.mask(), 1);
        assert_eq!(b.mask(), 2);
        assert_eq!(c.mask(), 32);
        assert_eq!(c.bit(), 5);
        let merged = StampQuery::any_of(&[a, b, c]);
        assert!(merged.matches(a.mask()));
        assert!(merged.matches(b.mask() | c.mask()));
        assert!(!merged.matches(1 << 7));
        let inc = StampQuery::minus(&[b], &[a]);
        assert!(inc.matches(b.mask()));
        assert!(!inc.matches(b.mask() | a.mask()));
        assert!(!inc.matches(a.mask()));
        let single = StampQuery::single(a);
        assert!(single.matches(a.mask() | b.mask()));
        assert!(!single.matches(b.mask()));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn stamp_bit_out_of_range_panics() {
        let _ = Stamp::new(64);
    }

    #[test]
    fn hash_in_translates_dedupes_and_assigns_ghost_slots() {
        // 2 ranks, 8 elements block distributed: rank 0 owns 0..4, rank 1 owns 4..8.
        let out = run(MachineConfig::new(2), |rank| {
            let (ttable, owned) = table_for(rank, 8);
            let mut h = IndexHashTable::new(rank.rank(), owned);
            // Same access pattern on both ranks for simplicity: references 0,5,0,7,3.
            let refs = h.hash_in_replicated(rank, &ttable, &[0, 5, 0, 7, 3], Stamp::new(0));
            (refs, h.ghost_len(), h.len())
        });
        // Rank 0 owns 0..4: indices 0 and 3 are owned; 5 and 7 are ghosts (2 slots).
        let (refs0, ghost0, len0) = &out.results[0];
        assert_eq!(*len0, 4); // distinct indices 0,5,7,3
        assert_eq!(*ghost0, 2);
        assert_eq!(refs0[0], LocalRef(0)); // global 0 -> owned offset 0
        assert_eq!(refs0[2], LocalRef(0)); // duplicate resolves to the same reference
        assert_eq!(refs0[4], LocalRef(3)); // global 3 -> owned offset 3
        assert!(refs0[1].0 >= 4 && refs0[3].0 >= 4); // ghosts after owned section
        assert_ne!(refs0[1], refs0[3]);
        // Rank 1 owns 4..8: 5 and 7 owned (offsets 1 and 3), 0 and 3 ghosts.
        let (refs1, ghost1, _) = &out.results[1];
        assert_eq!(*ghost1, 2);
        assert_eq!(refs1[1], LocalRef(1));
        assert_eq!(refs1[3], LocalRef(3));
        assert!(refs1[0].0 >= 4 && refs1[4].0 >= 4);
    }

    #[test]
    fn rehashing_reuses_entries_and_ghost_slots() {
        let out = run(MachineConfig::new(2), |rank| {
            let (ttable, owned) = table_for(rank, 100);
            let mut h = IndexHashTable::new(rank.rank(), owned);
            let a: Vec<usize> = (0..50).map(|i| (i * 3) % 100).collect();
            let first = h.hash_in_replicated(rank, &ttable, &a, Stamp::new(0));
            let ghost_after_first = h.ghost_len();
            // The indirection array "adapts": most entries identical, a few new.
            let mut b = a.clone();
            b[0] = 99;
            b[1] = 98;
            h.clear_stamp(Stamp::new(0));
            let second = h.hash_in_replicated(rank, &ttable, &b, Stamp::new(0));
            let ghost_after_second = h.ghost_len();
            // Unchanged indices must resolve to the identical local references.
            let same = a
                .iter()
                .zip(&b)
                .enumerate()
                .filter(|(_, (x, y))| x == y)
                .all(|(i, _)| first[i] == second[i]);
            (same, ghost_after_first, ghost_after_second, h.len())
        });
        for (same, g1, g2, len) in &out.results {
            assert!(*same, "unchanged indices must keep their local references");
            // Ghost region grows by at most the number of genuinely new off-processor
            // indices (here at most 2).
            assert!(*g2 - *g1 <= 2, "ghost grew by {} slots", g2 - g1);
            assert!(*len >= 34); // 34 distinct values in a
        }
    }

    #[test]
    fn clear_stamp_excludes_entries_from_queries_but_keeps_them() {
        let out = run(MachineConfig::new(2), |rank| {
            let (ttable, owned) = table_for(rank, 16);
            let mut h = IndexHashTable::new(rank.rank(), owned);
            let sa = Stamp::new(0);
            let sb = Stamp::new(1);
            h.hash_in_replicated(rank, &ttable, &[1, 9, 12], sa);
            h.hash_in_replicated(rank, &ttable, &[9, 3], sb);
            let both = h.entries_matching(StampQuery::any_of(&[sa, sb])).count();
            h.clear_stamp(sa);
            let after_clear_a = h.entries_matching(StampQuery::single(sa)).count();
            let still_b = h.entries_matching(StampQuery::single(sb)).count();
            (both, after_clear_a, still_b, h.len())
        });
        for (both, after_a, still_b, len) in &out.results {
            assert_eq!(*both, 4); // distinct: 1, 9, 12, 3
            assert_eq!(*after_a, 0);
            assert_eq!(*still_b, 2); // 9 and 3
            assert_eq!(*len, 4); // entries retained
        }
    }

    #[test]
    fn incremental_query_selects_only_new_entries() {
        // Mirrors Figure 6: schedule for b-minus-a fetches only what b needs that a did
        // not already bring in.
        let out = run(MachineConfig::new(2), |rank| {
            let (ttable, owned) = table_for(rank, 10);
            let mut h = IndexHashTable::new(rank.rank(), owned);
            let sa = Stamp::new(0);
            let sb = Stamp::new(1);
            h.hash_in_replicated(rank, &ttable, &[1, 3, 7, 9, 2], sa);
            h.hash_in_replicated(rank, &ttable, &[1, 5, 7, 8, 2], sb);
            let inc: Vec<Global> = h
                .entries_matching(StampQuery::minus(&[sb], &[sa]))
                .map(|e| e.global)
                .collect();
            inc
        });
        for inc in &out.results {
            assert_eq!(inc, &vec![5, 8]);
        }
    }

    #[test]
    fn clear_all_resets_ghost_slots() {
        let out = run(MachineConfig::new(2), |rank| {
            let (ttable, owned) = table_for(rank, 8);
            let mut h = IndexHashTable::new(rank.rank(), owned);
            h.hash_in_replicated(rank, &ttable, &[0, 7, 5], Stamp::new(0));
            let before = h.ghost_len();
            // The new distribution gives this rank two more elements: later ghost
            // references and schedule bounds must be taken against the new length.
            h.clear_all(owned + 2);
            (
                before,
                h.ghost_len(),
                h.len(),
                h.is_empty(),
                h.owned_len() - owned,
            )
        });
        for (before, after, len, empty, grown) in &out.results {
            assert!(*before > 0);
            assert_eq!(*after, 0);
            assert_eq!(*len, 0);
            assert!(*empty);
            assert_eq!(*grown, 2);
        }
    }

    #[test]
    fn schedule_keys_track_operations_not_contents() {
        let out = run(MachineConfig::new(1), |rank| {
            let (ttable, owned) = table_for(rank, 8);
            let mut h = IndexHashTable::new(rank.rank(), owned);
            let sa = Stamp::new(0);
            let sb = Stamp::new(1);
            let q = StampQuery::single(sa);
            let k0 = h.version(q);
            // Reading the version is pure: asking twice gives equal keys.
            assert_eq!(k0, h.version(q));
            h.hash_in_replicated(rank, &ttable, &[1, 2], sa);
            let k1 = h.version(q);
            assert_ne!(k0, k1, "hashing under a queried stamp must change the key");
            // Re-hashing the *same* contents still advances the key (operation counting).
            h.hash_in_replicated(rank, &ttable, &[1, 2], sa);
            let k2 = h.version(q);
            assert_ne!(k1, k2);
            // Mutating an unrelated stamp leaves the key alone.
            h.hash_in_replicated(rank, &ttable, &[3], sb);
            assert_eq!(k2, h.version(q));
            h.clear_stamp(sb);
            assert_eq!(k2, h.version(q));
            // ...but an any_of/minus query naming sb does see it.
            let q_ab = StampQuery::minus(&[sa], &[sb]);
            let kab = h.version(q_ab);
            h.clear_stamp(sb);
            assert_ne!(kab, h.version(q_ab));
            // clear_stamp / clear_all on the queried stamp invalidate.
            h.clear_stamp(sa);
            let k3 = h.version(q);
            assert_ne!(k2, k3);
            h.clear_all(h.owned_len());
            assert_ne!(k3, h.version(q));
            // Keys from distinct tables never compare equal or same-source.
            let other = IndexHashTable::new(rank.rank(), owned);
            let ko = other.version(q);
            assert_ne!(ko, h.version(q));
            assert!(!ko.same_source(&h.version(q)));
            assert!(h.version(q).same_source(&k0));
            assert_eq!(k0.query(), q);
        });
        assert_eq!(out.results.len(), 1);
    }

    /// Run `op` on both ranks of a 2-rank machine, each against a fresh table over 8
    /// block-distributed elements; a rank's panic is the test's panic.
    fn with_table(
        op: impl Fn(&mut Rank, &mut IndexHashTable, &TranslationTable) + Send + Sync + 'static,
    ) {
        run(MachineConfig::new(2), move |rank| {
            let (ttable, owned) = table_for(rank, 8);
            let mut h = IndexHashTable::new(rank.rank(), owned);
            op(rank, &mut h, &ttable);
        });
    }

    #[test]
    #[should_panic(
        expected = "hash_in_replicated: global index 8 outside array of size 8 (stamp bit 3)"
    )]
    fn hash_in_names_an_out_of_range_global() {
        with_table(|rank, h, ttable| {
            h.hash_in_replicated(rank, ttable, &[1, 8], Stamp::new(3));
        });
    }

    #[test]
    #[should_panic(
        expected = "hash_in_replicated: global index 11 outside array of size 8 (stamp bit 2)"
    )]
    fn hash_in_replicated_names_an_out_of_range_global() {
        with_table(|rank, h, ttable| {
            h.hash_in_replicated(rank, ttable, &[0, 11], Stamp::new(2));
        });
    }

    #[test]
    #[should_panic(
        expected = "hash_in_replicated: global index 9 outside array of size 8 (stamp bit 0)"
    )]
    fn hash_in_replicated_into_names_an_out_of_range_global() {
        with_table(|rank, h, ttable| {
            let mut refs = vec![7u32];
            h.hash_in_replicated_into(rank, ttable, &[9], Stamp::new(0), &mut refs);
        });
    }

    #[test]
    fn get_past_the_end_or_before_any_hash_is_none() {
        with_table(|rank, h, ttable| {
            assert!(h.get(3).is_none(), "nothing hashed yet");
            h.hash_in_replicated(rank, ttable, &[3, 5], Stamp::new(0));
            assert_eq!(h.get(3).map(|e| e.global), Some(3));
            assert!(h.get(4).is_none(), "in range, never hashed");
            assert!(h.get(8).is_none(), "one past the end");
            assert!(h.get(usize::MAX).is_none());
            h.clear_all(h.owned_len());
            assert!(h.get(3).is_none(), "clear_all forgets every entry");
        });
    }

    #[test]
    fn into_appends_after_existing_references() {
        with_table(|rank, h, ttable| {
            let s = Stamp::new(1);
            let mut refs = vec![41u32, 42];
            h.hash_in_replicated_into(rank, ttable, &[6, 1, 6], s, &mut refs);
            let mut other = IndexHashTable::new(rank.rank(), h.owned_len());
            let expect = other.hash_in_replicated(rank, ttable, &[6, 1, 6], s);
            assert_eq!(&refs[..2], &[41, 42]);
            let appended: Vec<LocalRef> = refs[2..].iter().map(|&r| LocalRef(r as usize)).collect();
            assert_eq!(appended, expect);
            assert_eq!(h.entries_in_order(), other.entries_in_order());
        });
    }

    #[test]
    #[should_panic(expected = "owned length must fit u32")]
    fn owned_length_is_checked_against_u32_at_birth() {
        let _ = IndexHashTable::new(0, u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "local references must fit u32")]
    fn ghost_references_are_checked_against_u32_at_birth() {
        run(MachineConfig::new(2), |rank| {
            // A table claiming almost 2^32 owned elements: the first ghost reference still
            // fits, the second would wrap.
            let (ttable, _) = table_for(rank, 8);
            let mut h = IndexHashTable::new(rank.rank(), u32::MAX as usize);
            let theirs = if rank.rank() == 0 { [4, 5] } else { [0, 1] };
            h.hash_in_replicated(rank, &ttable, &theirs, Stamp::new(0));
        });
    }
}
