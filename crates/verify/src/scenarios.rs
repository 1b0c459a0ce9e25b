//! Protocol scenarios: each production role (ring producer/consumer, doorbell
//! producer/parker) as an explicit state machine whose every action is one
//! `mpsim::proto` step over instrumented cells.
//!
//! Each public `check_*` function exhaustively explores one bounded configuration and
//! returns the engine's [`Report`].  The `*_bug` configurations run the *same*
//! machines with one seeded ordering change — a swapped step order or a weakened
//! ordering — and the tests assert the checker catches each one.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hash;
use std::rc::Rc;

use mpsim::proto;

use crate::engine::{explore, Exec, ModelThread, Report, Step};
use crate::model::{ring_push, MBell, MRing, SLOT_POISON};

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

#[derive(Hash)]
enum ProducerPc {
    Push(u64),
    Done,
}

struct RingProducer {
    ring: Rc<MRing>,
    pc: ProducerPc,
    n: u64,
}

impl ModelThread for RingProducer {
    fn step(&mut self, exec: &Exec) -> Step {
        match self.pc {
            ProducerPc::Push(v) => match ring_push(&self.ring, v) {
                Ok(()) => {
                    exec.log(format!("producer: pushed {v}"));
                    if v == self.n {
                        self.pc = ProducerPc::Done;
                        Step::Done
                    } else {
                        self.pc = ProducerPc::Push(v + 1);
                        Step::Ran
                    }
                }
                Err(_) => Step::Yield,
            },
            ProducerPc::Done => Step::Done,
        }
    }

    fn fp(&self, h: &mut DefaultHasher) {
        "ring-producer".hash(h);
        self.pc.hash(h);
    }
}

struct RingConsumer {
    ring: Rc<MRing>,
    expect: u64,
    n: u64,
}

impl ModelThread for RingConsumer {
    fn step(&mut self, exec: &Exec) -> Step {
        match proto::ring_try_pop(&*self.ring) {
            Some(v) => {
                exec.log(format!("consumer: popped {v}"));
                if v == SLOT_POISON {
                    return Step::Fail(
                        "uninitialised slot read: popped a slot before its write was \
                         published"
                            .to_string(),
                    );
                }
                if v != self.expect {
                    return Step::Fail(format!(
                        "FIFO violation: popped {v}, expected {}",
                        self.expect
                    ));
                }
                self.expect += 1;
                if self.expect > self.n {
                    Step::Done
                } else {
                    Step::Ran
                }
            }
            None => Step::Yield,
        }
    }

    fn fp(&self, h: &mut DefaultHasher) {
        "ring-consumer".hash(h);
        self.expect.hash(h);
    }
}

/// Exhaustively check FIFO delivery, no lost or duplicated items, and no
/// uninitialised slot reads for a producer pushing `1..=items` through a ring of
/// `capacity` slots (wrapping when `items > capacity`) against a spinning consumer.
pub fn check_ring(capacity: usize, items: u64) -> Report {
    ring_scenario(capacity, items, false)
}

/// The seeded ordering bug: the producer's `tail` publication is demoted from
/// `Release` to `Relaxed`.  The checker must find the interleaving where the
/// consumer observes the new `tail` but not the slot contents.
pub fn check_ring_relaxed_publish_bug(capacity: usize, items: u64) -> Report {
    ring_scenario(capacity, items, true)
}

fn ring_scenario(capacity: usize, items: u64, relaxed_publish: bool) -> Report {
    explore(move |exec: &Rc<Exec>| {
        let mut ring = MRing::new(exec, capacity);
        ring.relaxed_publish = relaxed_publish;
        let ring = Rc::new(ring);
        vec![
            Box::new(RingProducer {
                ring: Rc::clone(&ring),
                pc: ProducerPc::Push(1),
                n: items,
            }) as Box<dyn ModelThread>,
            Box::new(RingConsumer {
                ring,
                expect: 1,
                n: items,
            }),
        ]
    })
}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

/// Which ordering bug (if any) to seed into the doorbell scenario.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum DoorbellVariant {
    /// The production protocol: announce, rescan, wait; push, fence, check, notify.
    Correct,
    /// The consumer rescans *before* publishing `sleeping` (the pre-fence order the
    /// issue seeds): a push between rescan and announce is lost.
    SwappedAnnounce,
    /// The producer's `SeqCst` fence between publish and check is elided: the
    /// `sleeping` load may act on a stale `false` while the consumer's rescan may
    /// miss the unpublished push.
    MissingFence,
    /// The producer checks the bell *before* pushing: the consumer can announce and
    /// rescan in the gap, then park forever.
    CheckBeforePublish,
}

#[derive(Hash)]
enum BellProducerPc {
    Push,
    Check,
    Notify,
}

struct BellProducer {
    ring: Rc<MRing>,
    bell: Rc<MBell>,
    variant: DoorbellVariant,
    pc: BellProducerPc,
}

impl ModelThread for BellProducer {
    fn step(&mut self, exec: &Exec) -> Step {
        match self.pc {
            BellProducerPc::Push => match ring_push(&self.ring, 42) {
                Ok(()) => {
                    exec.log("producer: pushed".to_string());
                    if self.variant == DoorbellVariant::CheckBeforePublish {
                        // The check already ran; nothing more to do.
                        Step::Done
                    } else {
                        self.pc = BellProducerPc::Check;
                        Step::Ran
                    }
                }
                Err(_) => Step::Yield,
            },
            BellProducerPc::Check => {
                if proto::bell_check(&*self.bell) {
                    exec.log("producer: bell check -> consumer sleeping".to_string());
                    self.pc = BellProducerPc::Notify;
                    Step::Ran
                } else if self.variant == DoorbellVariant::CheckBeforePublish {
                    exec.log("producer: (buggy) checked before publishing".to_string());
                    self.pc = BellProducerPc::Push;
                    Step::Ran
                } else {
                    exec.log("producer: bell check -> consumer awake".to_string());
                    Step::Done
                }
            }
            BellProducerPc::Notify => {
                if !exec.try_lock(self.bell.mutex) {
                    return Step::Yield;
                }
                exec.notify_one(self.bell.condvar);
                exec.unlock(self.bell.mutex);
                exec.log("producer: notified".to_string());
                if self.variant == DoorbellVariant::CheckBeforePublish {
                    self.pc = BellProducerPc::Push;
                    Step::Ran
                } else {
                    Step::Done
                }
            }
        }
    }

    fn fp(&self, h: &mut DefaultHasher) {
        "bell-producer".hash(h);
        self.pc.hash(h);
    }
}

#[derive(Hash)]
enum BellConsumerPc {
    /// First optimistic sweep (outside the mutex).
    Scan,
    /// Take the mutex; announce first unless the seeded bug swaps the order.
    Lock,
    /// The rescan inside the critical section.
    Rescan,
    /// Seeded-bug order only: announce *after* the rescan came up empty.
    LateAnnounce,
    /// Re-acquire the mutex after a wakeup, retract, and go back to scanning.
    Relock,
}

struct BellConsumer {
    ring: Rc<MRing>,
    bell: Rc<MBell>,
    swapped: bool,
    pc: BellConsumerPc,
}

impl BellConsumer {
    fn take(&mut self, exec: &Exec, v: u64) -> Step {
        exec.log(format!("consumer: received {v}"));
        if v == 42 {
            Step::Done
        } else {
            Step::Fail(format!("consumer received corrupted value {v}"))
        }
    }
}

impl ModelThread for BellConsumer {
    fn step(&mut self, exec: &Exec) -> Step {
        match self.pc {
            BellConsumerPc::Scan => match proto::ring_try_pop(&*self.ring) {
                Some(v) => self.take(exec, v),
                None => {
                    self.pc = BellConsumerPc::Lock;
                    Step::Yield
                }
            },
            BellConsumerPc::Lock => {
                if !exec.try_lock(self.bell.mutex) {
                    return Step::Yield;
                }
                if self.swapped {
                    exec.log("consumer: (buggy) locked, rescanning before announcing".to_string());
                } else {
                    proto::bell_announce(&*self.bell);
                    exec.log("consumer: announced sleep".to_string());
                }
                self.pc = BellConsumerPc::Rescan;
                Step::Ran
            }
            BellConsumerPc::Rescan => match proto::ring_try_pop(&*self.ring) {
                Some(v) => {
                    proto::bell_retract(&*self.bell);
                    exec.unlock(self.bell.mutex);
                    self.take(exec, v)
                }
                None => {
                    if self.swapped {
                        self.pc = BellConsumerPc::LateAnnounce;
                        Step::Ran
                    } else {
                        exec.log("consumer: parking".to_string());
                        self.pc = BellConsumerPc::Relock;
                        exec.unlock(self.bell.mutex);
                        Step::Park(self.bell.condvar)
                    }
                }
            },
            BellConsumerPc::LateAnnounce => {
                proto::bell_announce(&*self.bell);
                exec.log("consumer: (buggy) announced after rescan, parking".to_string());
                self.pc = BellConsumerPc::Relock;
                exec.unlock(self.bell.mutex);
                Step::Park(self.bell.condvar)
            }
            BellConsumerPc::Relock => {
                if !exec.try_lock(self.bell.mutex) {
                    return Step::Yield;
                }
                proto::bell_retract(&*self.bell);
                exec.unlock(self.bell.mutex);
                exec.log("consumer: woke".to_string());
                self.pc = BellConsumerPc::Scan;
                Step::Ran
            }
        }
    }

    fn fp(&self, h: &mut DefaultHasher) {
        "bell-consumer".hash(h);
        self.pc.hash(h);
    }
}

/// Exhaustively check the doorbell protocol for lost wakeups: a producer pushes one
/// message (publish, fence, check, notify) against a consumer that scans, announces,
/// rescans, and parks.  [`DoorbellVariant::Correct`] must have no deadlock in any
/// interleaving; every seeded variant must deadlock in at least one.
pub fn check_doorbell(variant: DoorbellVariant) -> Report {
    explore(move |exec: &Rc<Exec>| {
        let ring = Rc::new(MRing::new(exec, 2));
        let mut bell = MBell::new(exec);
        bell.no_fence = variant == DoorbellVariant::MissingFence;
        let bell = Rc::new(bell);
        let producer_pc = if variant == DoorbellVariant::CheckBeforePublish {
            BellProducerPc::Check
        } else {
            BellProducerPc::Push
        };
        vec![
            Box::new(BellProducer {
                ring: Rc::clone(&ring),
                bell: Rc::clone(&bell),
                variant,
                pc: producer_pc,
            }) as Box<dyn ModelThread>,
            Box::new(BellConsumer {
                ring,
                bell,
                swapped: variant == DoorbellVariant::SwappedAnnounce,
                pc: BellConsumerPc::Scan,
            }),
        ]
    })
}
