//! Differential model of [`IndexHashTable`].
//!
//! The table's direct-mapped index replaced `std::collections::HashMap`s; the
//! implementation it replaced is kept here, verbatim in behaviour, as a test-only oracle.
//! Seeded operation sequences — `hash_in_replicated` through an irregular translation
//! table, `hash_in_replicated_into` appending to a non-empty vector, `clear_stamp`,
//! `clear_all`, three stamps, duplicates inside one call — run once against the table
//! and once against the oracle at P ∈ {1, 2, 3, 5}, and after every
//! operation everything a caller can observe must agree: the returned references, the
//! entries in order, `get`, the ghost length, which version keys changed, the schedule
//! built from the entries, and the modeled clock — to the last bit where the machine is
//! deterministic (P ≤ 2), and to summation order where the engine charges messages in
//! arrival order (ROADMAP item 6(a)).
//!
//! No proptest offline: cases come from a seeded value stream, as in the workspace's
//! `tests/property_based.rs`.

use std::collections::HashMap;

use chaos::index_hash::HashEntry;
use chaos::prelude::*;
use mpsim::{run, MachineConfig, Rank, TimeSnapshot};

fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The operations both implementations answer.
trait Table {
    type Key: PartialEq;
    fn hash_in_replicated(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
    ) -> Vec<LocalRef>;
    fn hash_in_replicated_into(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
        out: &mut Vec<u32>,
    );
    fn clear_stamp(&mut self, stamp: Stamp);
    fn clear_all(&mut self);
    fn entries(&self) -> &[HashEntry];
    fn get(&self, g: Global) -> Option<HashEntry>;
    fn ghost_len(&self) -> usize;
    fn version(&self, query: StampQuery) -> Self::Key;
    fn schedule(&self, rank: &mut Rank, query: StampQuery) -> CommSchedule;
}

impl Table for IndexHashTable {
    type Key = ScheduleKey;
    fn hash_in_replicated(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
    ) -> Vec<LocalRef> {
        IndexHashTable::hash_in_replicated(self, rank, ttable, globals, stamp)
    }
    fn hash_in_replicated_into(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
        out: &mut Vec<u32>,
    ) {
        IndexHashTable::hash_in_replicated_into(self, rank, ttable, globals, stamp, out);
    }
    fn clear_stamp(&mut self, stamp: Stamp) {
        IndexHashTable::clear_stamp(self, stamp);
    }
    fn clear_all(&mut self) {
        IndexHashTable::clear_all(self, self.owned_len());
    }
    fn entries(&self) -> &[HashEntry] {
        self.entries_in_order()
    }
    fn get(&self, g: Global) -> Option<HashEntry> {
        IndexHashTable::get(self, g).copied()
    }
    fn ghost_len(&self) -> usize {
        IndexHashTable::ghost_len(self)
    }
    fn version(&self, query: StampQuery) -> ScheduleKey {
        IndexHashTable::version(self, query)
    }
    fn schedule(&self, rank: &mut Rank, query: StampQuery) -> CommSchedule {
        build_schedule_from_table(rank, self, query)
    }
}

/// The implementation the direct-mapped table replaced: a `HashMap` from global index to
/// slot.
struct Oracle {
    my_rank: ProcId,
    owned_len: usize,
    entries: HashMap<Global, usize>,
    slots: Vec<HashEntry>,
    next_ghost_slot: u32,
    epoch: u64,
    stamp_gens: [u64; 64],
}

impl Oracle {
    fn new(my_rank: ProcId, owned_len: usize) -> Self {
        Oracle {
            my_rank,
            owned_len,
            entries: HashMap::new(),
            slots: Vec::new(),
            next_ghost_slot: 0,
            epoch: 0,
            stamp_gens: [0; 64],
        }
    }

    fn insert(&mut self, global: Global, loc: Loc) -> usize {
        let ghost_slot = (loc.owner as usize != self.my_rank).then(|| {
            self.next_ghost_slot += 1;
            self.next_ghost_slot - 1
        });
        self.slots.push(HashEntry {
            global,
            loc,
            ghost_slot,
            stamps: 0,
        });
        self.entries.insert(global, self.slots.len() - 1);
        self.slots.len() - 1
    }

    fn stamp_and_reference(&mut self, idx: usize, stamp: Stamp) -> LocalRef {
        let entry = &mut self.slots[idx];
        entry.stamps |= stamp.mask();
        match entry.ghost_slot {
            None => LocalRef(entry.loc.offset as usize),
            Some(slot) => LocalRef(self.owned_len + slot as usize),
        }
    }
}

impl Table for Oracle {
    type Key = (u64, Vec<u64>);

    fn hash_in_replicated(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
    ) -> Vec<LocalRef> {
        self.stamp_gens[stamp.bit() as usize] += 1;
        let mut new_count = 0usize;
        let mut refs = Vec::new();
        for &g in globals {
            let idx = self.entries.get(&g).copied().unwrap_or_else(|| {
                new_count += 1;
                self.insert(g, ttable.lookup(g))
            });
            refs.push(self.stamp_and_reference(idx, stamp));
        }
        let known = globals.len() - new_count;
        rank.charge_compute(new_count as f64 + known as f64 * 0.1);
        refs
    }

    fn hash_in_replicated_into(
        &mut self,
        rank: &mut Rank,
        ttable: &TranslationTable,
        globals: &[Global],
        stamp: Stamp,
        out: &mut Vec<u32>,
    ) {
        let refs = Table::hash_in_replicated(self, rank, ttable, globals, stamp);
        out.extend(refs.iter().map(|r| r.0 as u32));
    }

    fn clear_stamp(&mut self, stamp: Stamp) {
        self.stamp_gens[stamp.bit() as usize] += 1;
        for entry in &mut self.slots {
            entry.stamps &= !stamp.mask();
        }
    }

    fn clear_all(&mut self) {
        self.entries.clear();
        self.slots.clear();
        self.next_ghost_slot = 0;
        self.epoch += 1;
    }

    fn entries(&self) -> &[HashEntry] {
        &self.slots
    }

    fn get(&self, g: Global) -> Option<HashEntry> {
        self.entries.get(&g).map(|&idx| self.slots[idx])
    }

    fn ghost_len(&self) -> usize {
        self.next_ghost_slot as usize
    }

    fn version(&self, query: StampQuery) -> (u64, Vec<u64>) {
        let named = query.include_mask() | query.exclude_mask();
        let gens = (0..64).filter(|b| named & (1u64 << b) != 0);
        (self.epoch, gens.map(|b| self.stamp_gens[b]).collect())
    }

    /// `build_schedule_from_table` over the oracle's entries, charge for charge.
    fn schedule(&self, rank: &mut Rank, query: StampQuery) -> CommSchedule {
        let nprocs = rank.nprocs();
        let mut requests: Vec<Vec<u64>> = vec![Vec::new(); nprocs];
        let mut perm_lists: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
        let mut matched = 0usize;
        for entry in self.slots.iter().filter(|e| query.matches(e.stamps)) {
            matched += 1;
            if let Some(slot) = entry.ghost_slot {
                requests[entry.loc.owner as usize].push(entry.loc.offset as u64);
                perm_lists[entry.loc.owner as usize].push(slot);
            }
        }
        rank.charge_compute(matched as f64 * 0.2);
        let incoming = rank.all_to_all(&requests);
        let send_lists = incoming
            .into_iter()
            .map(|offs| offs.into_iter().map(|o| o as u32).collect())
            .collect();
        CommSchedule::from_parts(
            rank.rank(),
            send_lists,
            perm_lists,
            self.owned_len,
            self.ghost_len(),
        )
    }
}

/// Everything observable after one operation, and the modeled clock when it was taken.
#[derive(Debug, PartialEq)]
struct Observation {
    op: String,
    refs: Vec<usize>,
    entries: Vec<HashEntry>,
    lookups: Vec<Option<HashEntry>>,
    ghost_len: usize,
    keys_changed: Vec<bool>,
    schedule: CommSchedule,
}

const STAMPS: [Stamp; 3] = [Stamp::new(0), Stamp::new(5), Stamp::new(63)];

/// Run the program of `seed` on this rank against a fresh `T` and record what it shows.
fn drive<T: Table>(
    rank: &mut Rank,
    seed: u64,
    ops: u64,
    make: impl Fn(ProcId, usize) -> T,
) -> Vec<(Observation, TimeSnapshot)> {
    let (me, nprocs) = (rank.rank(), rank.nprocs());
    // An irregular distribution of `n` elements.
    let n = 24 + (mix(seed, 0) % 120) as usize;
    let map: Vec<ProcId> = (0..n)
        .map(|g| (mix(seed, 1000 + g as u64) % nprocs as u64) as usize)
        .collect();
    let ttable = TranslationTable::replicated_from_full_map(&map, nprocs).expect("valid map");

    let [a, b, c] = STAMPS;
    let queries = [
        StampQuery::single(a),
        StampQuery::single(b),
        StampQuery::any_of(&STAMPS),
        StampQuery::minus(&[c], &[a]),
    ];
    let mut table = make(me, ttable.local_size(me));
    let mut keys: Vec<T::Key> = queries.iter().map(|&q| table.version(q)).collect();
    // The `_into` stream is never cleared: every append lands after earlier contents.
    let mut stream: Vec<u32> = vec![7, 7, 7];
    let mut seen: Vec<(Observation, TimeSnapshot)> = Vec::new();
    for step in 0..ops {
        // The operation and the stamp are the same on every rank (SPMD); the globals
        // are the rank's own, drawn from a narrow range so calls repeat indices.
        let pick = mix(seed, 10 + step);
        let stamp = STAMPS[(pick >> 8) as usize % 3];
        let len = (mix(seed ^ me as u64, 20_000 + step) % 24) as usize;
        let spread = 1 + (mix(seed, 30_000 + step) % n as u64) as usize;
        let globals: Vec<Global> = (0..len)
            .map(|k| (mix(seed ^ (me as u64) << 32, step * 64 + k as u64) % spread as u64) as usize)
            .collect();
        let (op, refs) = match pick % 8 {
            0..=2 => {
                let refs = table.hash_in_replicated(rank, &ttable, &globals, stamp);
                ("hash_in_replicated", refs.iter().map(|r| r.0).collect())
            }
            3..=5 => {
                table.hash_in_replicated_into(rank, &ttable, &globals, stamp, &mut stream);
                (
                    "hash_in_replicated_into",
                    stream.iter().map(|&r| r as usize).collect(),
                )
            }
            6 => {
                table.clear_stamp(stamp);
                ("clear_stamp", Vec::new())
            }
            _ => {
                // Rare, or nothing ever accumulates.
                if pick.is_multiple_of(5) {
                    table.clear_all();
                }
                ("clear_all?", Vec::new())
            }
        };
        let now: Vec<T::Key> = queries.iter().map(|&q| table.version(q)).collect();
        let keys_changed = keys.iter().zip(&now).map(|(old, new)| old != new).collect();
        keys = now;
        let schedule = table.schedule(rank, queries[step as usize % queries.len()]);
        let observation = Observation {
            op: format!("#{step} {op} stamp {} {globals:?}", stamp.bit()),
            refs,
            entries: table.entries().to_vec(),
            lookups: (0..n + 2).map(|g| table.get(g)).collect(),
            ghost_len: table.ghost_len(),
            keys_changed,
            schedule,
        };
        seen.push((observation, rank.modeled()));
    }
    seen
}

#[test]
fn direct_mapped_table_matches_the_two_hashmap_oracle() {
    const OPS: u64 = 36;
    for p in [1, 2, 3, 5] {
        for seed in 0..12u64 {
            let seed = mix(0xC4A05, seed * 8 + p as u64);
            let real = run(MachineConfig::new(p), move |rank| {
                drive(rank, seed, OPS, IndexHashTable::new)
            });
            let model = run(MachineConfig::new(p), move |rank| {
                drive(rank, seed, OPS, Oracle::new)
            });
            for (r, (real, model)) in real.results.iter().zip(&model.results).enumerate() {
                for ((got, got_clock), (want, want_clock)) in real.iter().zip(model) {
                    let at = format!("seed {seed:#x}, P = {p}, rank {r}, at {}", want.op);
                    assert_eq!(got, want, "{at}");
                    // One miscounted index is a tenth of a work unit — microseconds on a
                    // clock of milliseconds; summation order is parts in 10^16.
                    let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * y.abs();
                    assert!(
                        if p <= 2 {
                            got_clock == want_clock
                        } else {
                            close(got_clock.compute_us, want_clock.compute_us)
                                && close(got_clock.comm_us, want_clock.comm_us)
                        },
                        "{at}: modeled clock {got_clock:?}, oracle {want_clock:?}"
                    );
                }
                assert_eq!(real.len(), model.len());
            }
        }
    }
}

#[test]
fn the_programs_exercise_every_operation() {
    // The sweep above is only as good as its programs: across the seeds every operation
    // kind must occur, tables must hold ghosts, calls must contain duplicates and
    // already-known indices, and `clear_all` must strike a non-empty table.
    let mut ops = std::collections::BTreeSet::new();
    let (mut ghosts, mut emptied, mut repeats) = (0usize, 0usize, 0usize);
    for seed in 0..12u64 {
        let seed = mix(0xC4A05, seed * 8 + 3);
        let out = run(MachineConfig::new(3), move |rank| {
            drive(rank, seed, 36, IndexHashTable::new)
        });
        for (obs, _) in out.results.iter().flatten() {
            ops.insert(obs.op.split(' ').nth(1).expect("op name").to_string());
            ghosts = ghosts.max(obs.ghost_len);
            let mut sorted = obs.refs.clone();
            sorted.sort_unstable();
            repeats += usize::from(sorted.windows(2).any(|w| w[0] == w[1]));
        }
        for rank_obs in &out.results {
            for w in rank_obs.windows(2) {
                emptied += usize::from(!w[0].0.entries.is_empty() && w[1].0.entries.is_empty());
            }
        }
    }
    let expected = [
        "clear_all?",
        "clear_stamp",
        "hash_in_replicated",
        "hash_in_replicated_into",
    ];
    assert!(ops.iter().map(String::as_str).eq(expected), "{ops:?}");
    assert!(ghosts > 10, "tables hold ghosts ({ghosts})");
    assert!(emptied > 0, "clear_all strikes a non-empty table");
    assert!(repeats > 20, "calls repeat indices ({repeats})");
}
