//! Instrumented cells and protocol objects: the model-checker instantiations of the
//! `mpsim::proto` sync-layer traits.
//!
//! A [`Cell`] is a handle to one [`Exec`] location; it implements
//! [`proto::UsizeCell`] and [`proto::BoolCell`], so the *same* protocol step functions
//! the production transport runs ([`proto::ring_try_push`], [`proto::bell_check`], …)
//! execute here against the exploring memory model.  [`MRing`] and [`MBell`] mirror
//! the production `Spsc` and `Doorbell` structures one field per location; ring-slot
//! accesses are modeled as `Relaxed` accesses to dedicated locations, so the checker
//! observes exactly which counter orderings make the data visible.

use std::rc::Rc;
use std::sync::atomic::Ordering;

use mpsim::proto::{self, BellOps, RingOps};

use crate::engine::{CvId, Exec, Loc, MutexId};

/// A handle to one modeled atomic location.
pub struct Cell {
    exec: Rc<Exec>,
    loc: Loc,
}

impl Cell {
    /// Register a fresh location named `name` with initial value `init`.
    pub fn new(exec: &Rc<Exec>, name: &'static str, init: u64) -> Cell {
        Cell {
            exec: Rc::clone(exec),
            loc: exec.new_loc(name, init),
        }
    }

    /// The underlying location id (for oracle reads).
    pub fn loc(&self) -> Loc {
        self.loc
    }
}

impl proto::UsizeCell for Cell {
    fn load(&self, ord: Ordering) -> usize {
        self.exec.load(self.loc, ord) as usize
    }
    fn store(&self, v: usize, ord: Ordering) {
        self.exec.store(self.loc, v as u64, ord);
    }
}

impl proto::BoolCell for Cell {
    fn load(&self, ord: Ordering) -> bool {
        self.exec.load(self.loc, ord) != 0
    }
    fn store(&self, v: bool, ord: Ordering) {
        self.exec.store(self.loc, u64::from(v), ord);
    }
}

/// Value a ring slot holds before any push: popping it is an uninitialised read.
pub const SLOT_POISON: u64 = u64::MAX;

/// The model instantiation of the production `Spsc` ring: head/tail counters plus
/// one location per slot, all driven through [`proto::ring_try_push`] /
/// [`proto::ring_try_pop`].
pub struct MRing {
    exec: Rc<Exec>,
    head: Cell,
    tail: Cell,
    slots: Vec<Loc>,
    /// When set, the tail publication is weakened to `Relaxed` — the seeded
    /// ordering bug the checker must catch.
    pub relaxed_publish: bool,
}

impl MRing {
    /// Build a ring of `capacity` slots.
    pub fn new(exec: &Rc<Exec>, capacity: usize) -> MRing {
        MRing {
            exec: Rc::clone(exec),
            head: Cell::new(exec, "ring.head", 0),
            tail: Cell::new(exec, "ring.tail", 0),
            slots: (0..capacity)
                .map(|_| exec.new_loc("ring.slot", SLOT_POISON))
                .collect(),
            relaxed_publish: false,
        }
    }
}

impl RingOps for MRing {
    type Item = u64;
    type Ctr = Cell;

    fn capacity(&self) -> usize {
        self.slots.len()
    }
    fn head(&self) -> &Cell {
        &self.head
    }
    fn tail(&self) -> &Cell {
        &self.tail
    }
    fn slot_write(&self, slot: usize, item: u64) {
        self.exec.store(self.slots[slot], item, Ordering::Relaxed);
    }
    fn slot_read(&self, slot: usize) -> u64 {
        self.exec.load(self.slots[slot], Ordering::Relaxed)
    }
}

/// Push through the shared protocol step, or through the seeded-bug variant that
/// publishes `tail` with a `Relaxed` store (everything else identical).
pub fn ring_push(ring: &MRing, item: u64) -> Result<(), u64> {
    if !ring.relaxed_publish {
        return proto::ring_try_push(ring, item);
    }
    // Seeded bug: identical steps to `proto::ring_try_push`, but the publication
    // store is demoted from Release to Relaxed — the slot write is no longer
    // ordered before the consumer's acquire of `tail`.
    use proto::UsizeCell as _;
    let t = ring.tail.load(Ordering::Relaxed);
    let h = ring.head.load(Ordering::Acquire);
    if t - h >= ring.capacity() {
        return Err(item);
    }
    ring.slot_write(t % ring.capacity(), item);
    ring.tail.store(t + 1, Ordering::Relaxed);
    Ok(())
}

/// The model instantiation of the production `Doorbell`: the lock-free announcement
/// flag (driven through [`proto::bell_check`] / [`proto::bell_announce`] /
/// [`proto::bell_retract`]) plus a modeled mutex and condvar.
pub struct MBell {
    exec: Rc<Exec>,
    sleeping: Cell,
    /// The doorbell mutex.
    pub mutex: MutexId,
    /// The doorbell condvar.
    pub condvar: CvId,
    /// When set, the producer-side `SeqCst` fence is elided — the seeded
    /// missing-fence bug.
    pub no_fence: bool,
}

impl MBell {
    /// Build a doorbell.
    pub fn new(exec: &Rc<Exec>) -> MBell {
        MBell {
            exec: Rc::clone(exec),
            sleeping: Cell::new(exec, "bell.sleeping", 0),
            mutex: exec.new_mutex(),
            condvar: exec.new_condvar(),
            no_fence: false,
        }
    }
}

impl BellOps for MBell {
    type Flag = Cell;

    fn sleeping(&self) -> &Cell {
        &self.sleeping
    }
    fn fence_seq_cst(&self) {
        if !self.no_fence {
            self.exec.fence_seq_cst();
        }
    }
}
