//! The shared-memory message fabric behind [`ExchangeBackend::SharedMem`].
//!
//! The modeled transport moves every message through `std::sync::mpsc` channels — one
//! multi-producer channel per rank — which is simple and correct but pays the channel's
//! block allocations and a lock handoff per message.  This module replaces the mailbox
//! with what the paper's runtime would use on a shared-memory node: one bounded
//! **lock-free SPSC ring per ordered rank pair**, so a producer and a consumer touch only
//! cache lines they own, plus a per-consumer *doorbell* (mutex + condvar) on which a
//! rank whose polls came up empty parks instead of burning the core.
//!
//! [`ExchangeBackend`] selects the transport per [`crate::MachineConfig`].  Both carry the
//! same typed payloads ([`crate::message::TypedPayload`]); they differ only in the
//! mailbox, so they are observationally identical everywhere except host wall-clock: the
//! same modeled cost, the same [`crate::RankStats`] counters, the same delivered values.
//! The entire test suite runs under either backend (`MPSIM_BACKEND=shared cargo test`).
//!
//! ## Why SPSC rings are enough
//!
//! Every message stream in the machine is point-to-point between a fixed (sender,
//! receiver) pair, and the exchange engine's collective start-order discipline bounds how
//! far any rank can run ahead: one exchange puts at most one message per pair in flight,
//! so ring occupancy is bounded by the number of simultaneously unfinished exchanges — in
//! practice low single digits against a capacity of [`RING_CAPACITY`].  A full ring
//! (pathological lookahead) simply makes the producer spin-yield until the consumer
//! drains; it cannot deadlock, because a consumer always eventually reaches the receive
//! that drains its side of the pair.
//!
//! ## Progress and the missed-wakeup race
//!
//! The consumer's mailbox ([`crate::comm`]) sweeps its inbound rings
//! (`SharedFabric::poll`) a bounded number of times, yielding between sweeps: the wait
//! policy the channel transport follows too.  Then it parks (`SharedFabric::park`): it
//! publishes `sleeping = true` under its doorbell mutex, **rescans**, and only then
//! waits on the condvar.
//! Producers push with a `SeqCst` fence before loading `sleeping`, and notify under the
//! same mutex.  In the `SeqCst` total order either the producer sees `sleeping == true`
//! (and its notify, serialized behind the mutex the consumer holds until it waits, is
//! guaranteed to wake it) or the consumer's rescan happens after the push and finds the
//! message.  Either way no message is lost to a sleeping consumer.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::comm::DISCONNECTED;
use crate::message::{Envelope, TypedPayload};
use crate::proto::{self, BellOps, RingOps};

/// Which transport a machine's ranks communicate through.
///
/// The backend changes **only** host wall-clock behaviour: modeled time, statistics,
/// results, and pool accounting are identical across backends (pinned by
/// `tests/backend_equivalence.rs`).  Selected per machine via
/// [`crate::MachineConfig::with_backend`], with the process-wide default taken from the
/// `MPSIM_BACKEND` environment variable (`modeled` | `shared`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeBackend {
    /// Messages travel through one mpsc channel per rank (the default).
    Modeled,
    /// Messages travel through per-pair lock-free SPSC rings with a doorbell per rank.
    SharedMem,
}

impl ExchangeBackend {
    /// The process-wide default backend: `MPSIM_BACKEND=shared` selects
    /// [`ExchangeBackend::SharedMem`], anything else (or unset) the modeled transport.
    /// Read once and cached — a test harness toggles backends per machine, not per call.
    pub fn from_env() -> ExchangeBackend {
        static DEFAULT: std::sync::OnceLock<ExchangeBackend> = std::sync::OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var("MPSIM_BACKEND").as_deref() {
            Ok("shared") | Ok("sharedmem") | Ok("shared_mem") => ExchangeBackend::SharedMem,
            _ => ExchangeBackend::Modeled,
        })
    }

    /// Stable lowercase name used in benchmark records (`modeled` / `shared`).
    pub fn name(&self) -> &'static str {
        match self {
            ExchangeBackend::Modeled => "modeled",
            ExchangeBackend::SharedMem => "shared",
        }
    }
}

/// Slots per SPSC ring.  Exchange collectivity bounds steady-state occupancy to the
/// number of simultaneously in-flight exchanges per pair (single digits); the slack
/// absorbs split-phase lookahead without letting P² preallocation grow huge.
pub const RING_CAPACITY: usize = 32;

/// Largest machine the shared-memory fabric will build.  The fabric preallocates P²
/// rings; beyond this the modeled transport is the right tool (its P = 1024 collective
/// sweeps are about modeled scaling, not host wall-clock).
pub const MAX_SHARED_RANKS: usize = 128;

/// One bounded single-producer single-consumer ring of envelopes.
///
/// `head`/`tail` are monotonically increasing logical indices (slot = index %
/// capacity); `tail - head` is the occupancy.  Only the producer writes `tail`, only the
/// consumer writes `head`, and each slot is written before the `Release` store of `tail`
/// that publishes it — the classic Lamport queue.
struct Spsc {
    slots: Box<[UnsafeCell<MaybeUninit<Envelope>>]>,
    /// Next logical index the consumer will pop.
    head: AtomicUsize,
    /// Next logical index the producer will push.
    tail: AtomicUsize,
}

// SAFETY: the fabric hands each ring to exactly one producer rank and one consumer rank;
// the head/tail protocol ensures they never touch the same slot concurrently.
unsafe impl Sync for Spsc {}

/// The ring's protocol steps live in [`crate::proto`] (shared with the `verify`
/// model checker); this impl binds them to the real atomics and the unsafe slot
/// storage.  The slot accesses are safe *because of* the protocol: `slot_write` is
/// called only by [`proto::ring_try_push`] on a slot with `tail - head <
/// capacity` (empty), `slot_read` only by [`proto::ring_try_pop`] on a slot with
/// `head < tail` (full), and the Release/Acquire counter hand-off orders the
/// accesses across threads.
impl RingOps for Spsc {
    type Item = Envelope;
    type Ctr = AtomicUsize;

    fn capacity(&self) -> usize {
        RING_CAPACITY
    }
    fn head(&self) -> &AtomicUsize {
        &self.head
    }
    fn tail(&self) -> &AtomicUsize {
        &self.tail
    }
    fn slot_write(&self, slot: usize, item: Envelope) {
        // SAFETY: the push protocol guarantees this slot is vacant (the consumer's
        // Release of `head` ordered its last read of the slot before we observed the
        // vacancy), and only the single producer writes slots.
        unsafe { (*self.slots[slot].get()).write(item) };
    }
    fn slot_read(&self, slot: usize) -> Envelope {
        // SAFETY: the pop protocol guarantees this slot was initialised by the
        // producer (its Release of `tail` published the write we synchronised with),
        // and each initialised slot is read out exactly once before `head` moves past
        // it.
        unsafe { (*self.slots[slot].get()).assume_init_read() }
    }
}

impl Spsc {
    fn new() -> Self {
        Spsc {
            slots: (0..RING_CAPACITY)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: publish one envelope, or return it when the ring is full.
    fn try_push(&self, env: Envelope) -> Result<(), Envelope> {
        proto::ring_try_push(self, env)
    }

    /// Consumer side: pop the oldest envelope, if any.
    fn try_pop(&self) -> Option<Envelope> {
        proto::ring_try_pop(self)
    }
}

impl Drop for Spsc {
    fn drop(&mut self) {
        // Drain whatever a panicking or terminating machine left behind so payload
        // buffers are not leaked.
        let h = *self.head.get_mut();
        let t = *self.tail.get_mut();
        for i in h..t {
            // SAFETY: slots in `head..tail` were initialised by the producer and not
            // yet consumed; `&mut self` proves no concurrent access remains.
            unsafe { (*self.slots[i % RING_CAPACITY].get()).assume_init_drop() };
        }
    }
}

/// Per-consumer parking spot: producers ring it after pushing when the consumer has
/// announced it is about to sleep.
struct Doorbell {
    sleeping: AtomicBool,
    mutex: Mutex<()>,
    condvar: Condvar,
}

/// Binds the doorbell's lock-free half (the announcement flag and the producer-side
/// fence) to the shared protocol steps in [`crate::proto`]; the mutex/condvar half
/// stays here with the callers.
impl BellOps for Doorbell {
    type Flag = AtomicBool;

    fn sleeping(&self) -> &AtomicBool {
        &self.sleeping
    }
    fn fence_seq_cst(&self) {
        fence(Ordering::SeqCst);
    }
}

impl Doorbell {
    /// Producer side after publishing work: fence, check the announcement, and notify
    /// under the mutex if the consumer may be parked (see [`proto::bell_check`] for
    /// the missed-wakeup argument).
    fn ring(&self) {
        if proto::bell_check(self) {
            let _guard = self.mutex.lock().unwrap();
            self.condvar.notify_one();
        }
    }
}

/// The machine-wide shared-memory wire: P² SPSC rings plus one doorbell per rank.
pub(crate) struct SharedFabric {
    nprocs: usize,
    /// `rings[from * nprocs + to]`.
    rings: Vec<Spsc>,
    doorbells: Vec<Doorbell>,
    terminated: Vec<AtomicBool>,
}

impl SharedFabric {
    /// Build the fabric for `nprocs` ranks.
    ///
    /// # Panics
    /// Panics if `nprocs` exceeds [`MAX_SHARED_RANKS`].
    pub(crate) fn new(nprocs: usize) -> Arc<SharedFabric> {
        assert!(
            nprocs <= MAX_SHARED_RANKS,
            "the SharedMem backend preallocates P^2 rings and supports at most \
             {MAX_SHARED_RANKS} ranks (got {nprocs}); use ExchangeBackend::Modeled for \
             larger machines"
        );
        Arc::new(SharedFabric {
            nprocs,
            rings: (0..nprocs * nprocs).map(|_| Spsc::new()).collect(),
            doorbells: (0..nprocs)
                .map(|_| Doorbell {
                    sleeping: AtomicBool::new(false),
                    mutex: Mutex::new(()),
                    condvar: Condvar::new(),
                })
                .collect(),
            terminated: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    pub(crate) fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Deliver one message from `from` to `to`, blocking (spin-yield) while the pair's
    /// ring is full.
    ///
    /// # Panics
    /// Panics if the destination rank has already terminated.
    pub(crate) fn send(&self, from: usize, to: usize, tag: u64, payload: TypedPayload) {
        let mut env = Envelope { from, tag, payload };
        let ring = &self.rings[from * self.nprocs + to];
        loop {
            assert!(
                !self.terminated[to].load(Ordering::Acquire),
                "destination rank has terminated"
            );
            match ring.try_push(env) {
                Ok(()) => break,
                Err(back) => {
                    env = back;
                    std::thread::yield_now();
                }
            }
        }
        // Publish-then-check: the fence inside `ring` orders the ring publication
        // before the `sleeping` load, so a consumer that announced sleep before this
        // load will be notified, and one that announces after will rescan and find
        // the message.
        self.doorbells[to].ring();
    }

    /// Pop the next available inbound envelope for rank `me` (any source), without
    /// waiting.
    ///
    /// # Panics
    /// Panics if all other ranks have terminated while nothing is in flight — the
    /// shared-memory analogue of every channel sender having been dropped.
    pub(crate) fn poll(&self, me: usize) -> Option<Envelope> {
        if let Some(env) = self.sweep(me) {
            return Some(env);
        }
        if self.all_peers_terminated(me) {
            // One final sweep: a peer may have pushed right before terminating.
            return Some(self.sweep(me).expect(DISCONNECTED));
        }
        None
    }

    /// Park rank `me` on its doorbell: announce, rescan (see the module docs for the race
    /// argument), wait until a producer rings or 10 ms pass, retract.  Returns what the
    /// rescan found; `None` after a wait, or when every peer has terminated, and the
    /// caller polls again.
    pub(crate) fn park(&self, me: usize) -> Option<Envelope> {
        let bell = &self.doorbells[me];
        let guard = bell
            .mutex
            .lock()
            .expect("a rank panicked while holding a doorbell");
        proto::bell_announce(bell);
        if let Some(env) = self.sweep(me) {
            proto::bell_retract(bell);
            return Some(env);
        }
        if self.all_peers_terminated(me) {
            proto::bell_retract(bell);
            return None;
        }
        let guard = bell
            .condvar
            .wait_timeout(guard, std::time::Duration::from_millis(10))
            .expect("a rank panicked while holding a doorbell")
            .0;
        proto::bell_retract(bell);
        drop(guard);
        None
    }

    /// One pass over rank `me`'s inbound rings, in sender order (self first, so local
    /// traffic is never starved by peers).
    fn sweep(&self, me: usize) -> Option<Envelope> {
        if let Some(env) = self.rings[me * self.nprocs + me].try_pop() {
            return Some(env);
        }
        for from in 0..self.nprocs {
            if from == me {
                continue;
            }
            if let Some(env) = self.rings[from * self.nprocs + me].try_pop() {
                return Some(env);
            }
        }
        None
    }

    fn all_peers_terminated(&self, me: usize) -> bool {
        self.nprocs > 1
            && (0..self.nprocs)
                .filter(|&p| p != me)
                .all(|p| self.terminated[p].load(Ordering::Acquire))
    }

    /// Mark rank `me` as shut down: subsequent sends to it panic, and receivers waiting
    /// only on it stop waiting.
    pub(crate) fn mark_terminated(&self, me: usize) {
        self.terminated[me].store(true, Ordering::Release);
        // Wake every parked rank so it can re-evaluate the termination condition.
        for bell in &self.doorbells {
            bell.ring();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: Vec<u8>) -> TypedPayload {
        TypedPayload::new(Box::new(v))
    }

    /// A blocking receive on the fabric alone: poll once, then park, until a message
    /// arrives.  The mailbox's loop adds only the polling budget.
    fn recv_next(fabric: &SharedFabric, me: usize) -> Envelope {
        loop {
            if let Some(env) = fabric.poll(me).or_else(|| fabric.park(me)) {
                return env;
            }
        }
    }

    #[test]
    fn ring_round_trips_in_fifo_order() {
        let fabric = SharedFabric::new(2);
        fabric.send(1, 0, 7, bytes(vec![1, 2, 3]));
        fabric.send(1, 0, 8, bytes(vec![4]));
        let a = recv_next(&fabric, 0);
        let b = recv_next(&fabric, 0);
        assert_eq!((a.from, a.tag, a.payload.byte_len()), (1, 7, 3));
        assert_eq!((b.from, b.tag, b.payload.byte_len()), (1, 8, 1));
    }

    #[test]
    fn full_ring_blocks_producer_until_consumer_drains() {
        let fabric = SharedFabric::new(2);
        let f2 = Arc::clone(&fabric);
        let producer = std::thread::spawn(move || {
            for i in 0..(RING_CAPACITY * 3) {
                f2.send(1, 0, i as u64, bytes(Vec::new()));
            }
        });
        for i in 0..(RING_CAPACITY * 3) {
            let env = recv_next(&fabric, 0);
            assert_eq!(env.tag, i as u64, "FIFO order across wraparound");
        }
        producer.join().unwrap();
    }

    #[test]
    fn parked_consumer_is_woken_by_late_producer() {
        let fabric = SharedFabric::new(2);
        let f2 = Arc::clone(&fabric);
        let consumer = std::thread::spawn(move || recv_next(&f2, 0).tag);
        // Let the consumer reach the parked state before sending.
        std::thread::sleep(std::time::Duration::from_millis(30));
        fabric.send(1, 0, 99, bytes(vec![5]));
        assert_eq!(consumer.join().unwrap(), 99);
    }

    #[test]
    fn typed_payloads_cross_the_fabric_untouched() {
        let fabric = SharedFabric::new(2);
        let values = Box::new(vec![1.0f64, 2.0, 3.0]);
        let ptr = values.as_ptr();
        fabric.send(1, 0, 5, TypedPayload::new(values));
        let got = recv_next(&fabric, 0)
            .payload
            .into_values::<f64>(String::new)
            .expect("non-empty payload");
        assert_eq!(*got, vec![1.0, 2.0, 3.0]);
        assert_eq!(got.as_ptr(), ptr, "the buffer moved, not its contents");
    }

    #[test]
    #[should_panic(expected = "destination rank has terminated")]
    fn send_to_terminated_rank_panics() {
        let fabric = SharedFabric::new(2);
        fabric.mark_terminated(0);
        fabric.send(1, 0, 1, bytes(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn fabric_rejects_oversized_machines() {
        let _ = SharedFabric::new(MAX_SHARED_RANKS + 1);
    }
}
