//! Protocol kernels of the shared-memory transport, generic over the sync layer.
//!
//! The lock-free algorithms in [`crate::shared`] — the Lamport SPSC ring and the doorbell
//! missed-wakeup protocol — each hinge on a handful of atomic operations whose *memory
//! orderings* carry the whole correctness argument.  This module is the single home of
//! those operations: every ordering-critical step is a small free function generic over
//! a cell trait, so the production transport (which
//! instantiates the traits with `std::sync::atomic` types) and the `verify` crate's
//! exhaustive model checker (which instantiates them with instrumented cells over a
//! release/acquire memory model) execute the *same* protocol logic.  A bug fixed here is
//! fixed in both worlds; an ordering weakened here is caught by the checker.
//!
//! The traits are deliberately minimal: a cell knows how to load and store at a
//! caller-chosen [`Ordering`].  Everything
//! else — what the values mean, which thread may call which step — is protocol structure
//! expressed by the step functions below and documented per function.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A `usize`-valued atomic cell (ring indices).
pub trait UsizeCell {
    /// Atomically load the value.
    fn load(&self, ord: Ordering) -> usize;
    /// Atomically store `v`.
    fn store(&self, v: usize, ord: Ordering);
}

/// A `bool`-valued atomic cell (sleep announcements).
pub trait BoolCell {
    /// Atomically load the value.
    fn load(&self, ord: Ordering) -> bool;
    /// Atomically store `v`.
    fn store(&self, v: bool, ord: Ordering);
}

impl UsizeCell for AtomicUsize {
    fn load(&self, ord: Ordering) -> usize {
        AtomicUsize::load(self, ord)
    }
    fn store(&self, v: usize, ord: Ordering) {
        AtomicUsize::store(self, v, ord);
    }
}

impl BoolCell for AtomicBool {
    fn load(&self, ord: Ordering) -> bool {
        AtomicBool::load(self, ord)
    }
    fn store(&self, v: bool, ord: Ordering) {
        AtomicBool::store(self, v, ord);
    }
}

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

/// The sync-layer view of one bounded single-producer single-consumer ring.
///
/// `head`/`tail` are monotonically increasing logical indices (slot = index %
/// capacity); `tail - head` is the occupancy.  Only the consumer writes `head`, only
/// the producer writes `tail`.  `slot_write`/`slot_read` are the *data* accesses the
/// counters publish: in production they are the unsafe `MaybeUninit` slot accesses, in
/// the model checker they are relaxed accesses to checker-owned locations — so the
/// checker observes exactly which counter orderings make the data visible.
pub trait RingOps {
    /// The element type moved through the ring.
    type Item;
    /// The atomic counter type used for `head` and `tail`.
    type Ctr: UsizeCell;
    /// Number of slots.
    fn capacity(&self) -> usize;
    /// Next logical index the consumer will pop.
    fn head(&self) -> &Self::Ctr;
    /// Next logical index the producer will push.
    fn tail(&self) -> &Self::Ctr;
    /// Write `item` into `slot` (producer only; the slot is empty by protocol).
    fn slot_write(&self, slot: usize, item: Self::Item);
    /// Move the item out of `slot` (consumer only; the slot is full by protocol).
    fn slot_read(&self, slot: usize) -> Self::Item;
}

/// Producer step: publish one item, or hand it back when the ring is full.
///
/// The `Acquire` load of `head` synchronises with the consumer's `Release` store in
/// [`ring_try_pop`], so reusing a slot the consumer has vacated cannot overtake the
/// consumer's read of it.  The `Release` store of `tail` publishes the slot write to
/// the consumer's `Acquire` load of `tail`.
pub fn ring_try_push<R: RingOps>(ring: &R, item: R::Item) -> Result<(), R::Item> {
    let t = ring.tail().load(Ordering::Relaxed);
    let h = ring.head().load(Ordering::Acquire);
    if t - h >= ring.capacity() {
        return Err(item);
    }
    ring.slot_write(t % ring.capacity(), item);
    ring.tail().store(t + 1, Ordering::Release);
    Ok(())
}

/// Consumer step: pop the oldest item, if any.
///
/// The `Acquire` load of `tail` synchronises with the producer's `Release` store in
/// [`ring_try_push`], making the slot contents visible before they are read; the
/// `Release` store of `head` returns the vacated slot to the producer.
pub fn ring_try_pop<R: RingOps>(ring: &R) -> Option<R::Item> {
    let h = ring.head().load(Ordering::Relaxed);
    let t = ring.tail().load(Ordering::Acquire);
    if t == h {
        return None;
    }
    let item = ring.slot_read(h % ring.capacity());
    ring.head().store(h + 1, Ordering::Release);
    Some(item)
}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

/// The sync-layer view of one consumer's doorbell flag.
///
/// The mutex/condvar half of the doorbell lives with the caller (production uses
/// `std::sync::Condvar`, the model checker a modeled monitor); this trait captures only
/// the lock-free half the missed-wakeup argument depends on: the `sleeping`
/// announcement flag and the producer-side `SeqCst` fence.
pub trait BellOps {
    /// The atomic flag type used for the sleep announcement.
    type Flag: BoolCell;
    /// The consumer's "about to park" announcement.
    fn sleeping(&self) -> &Self::Flag;
    /// A `SeqCst` fence (the producer's publish-then-check pivot).
    fn fence_seq_cst(&self);
}

/// Producer step after publishing work: decide whether the bell must be rung.
///
/// The `SeqCst` fence orders the producer's ring publication before the `sleeping`
/// load in the `SeqCst` total order.  Combined with the consumer side
/// ([`bell_announce`] *before* its rescan), either this load observes `sleeping ==
/// true` (and the caller rings the bell: locks the doorbell mutex — serialising behind
/// the consumer, which holds it from announce until it waits — and notifies), or the
/// consumer's rescan is ordered after the publication and finds the work.  Either way
/// no wakeup is lost.  Returns `true` when the caller must ring.
pub fn bell_check<B: BellOps>(bell: &B) -> bool {
    bell.fence_seq_cst();
    bell.sleeping().load(Ordering::SeqCst)
}

/// Consumer step, holding the doorbell mutex: announce intent to park.
///
/// Must happen *before* the final rescan — the announce/rescan order is exactly what
/// the producer's fence-then-check pivots on.  (The model checker's seeded-bug test
/// swaps this with the rescan and observes the resulting lost wakeup.)
pub fn bell_announce<B: BellOps>(bell: &B) {
    bell.sleeping().store(true, Ordering::SeqCst);
}

/// Consumer step: retract the announcement (work found, or woken up).
pub fn bell_retract<B: BellOps>(bell: &B) {
    bell.sleeping().store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A toy ring over plain atomics, checking the step functions' index arithmetic.
    struct ToyRing {
        head: AtomicUsize,
        tail: AtomicUsize,
        slots: Vec<AtomicU32>,
    }

    impl RingOps for ToyRing {
        type Item = u32;
        type Ctr = AtomicUsize;
        fn capacity(&self) -> usize {
            self.slots.len()
        }
        fn head(&self) -> &AtomicUsize {
            &self.head
        }
        fn tail(&self) -> &AtomicUsize {
            &self.tail
        }
        fn slot_write(&self, slot: usize, item: u32) {
            self.slots[slot].store(item, Ordering::Relaxed);
        }
        fn slot_read(&self, slot: usize) -> u32 {
            self.slots[slot].load(Ordering::Relaxed)
        }
    }

    #[test]
    fn ring_steps_wrap_and_report_full_and_empty() {
        let ring = ToyRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..2).map(|_| AtomicU32::new(0)).collect(),
        };
        assert!(ring_try_pop(&ring).is_none(), "empty ring pops nothing");
        assert!(ring_try_push(&ring, 10).is_ok());
        assert!(ring_try_push(&ring, 11).is_ok());
        assert_eq!(ring_try_push(&ring, 12), Err(12), "full ring refuses");
        assert_eq!(ring_try_pop(&ring), Some(10));
        assert!(ring_try_push(&ring, 12).is_ok(), "slot reuse after pop");
        assert_eq!(ring_try_pop(&ring), Some(11));
        assert_eq!(ring_try_pop(&ring), Some(12));
        assert!(ring_try_pop(&ring).is_none());
    }
}
