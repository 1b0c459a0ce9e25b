//! Point-to-point communication endpoints.
//!
//! Each rank owns a [`Mailbox`]: an incoming message stream plus the means to push into
//! every other rank's stream.  Receives are *selective* — a receive for `(from, tag)`
//! stashes any other message that arrives first and delivers it later — which gives the
//! deterministic, MPI-like matching semantics the CHAOS executor relies on.
//!
//! The physical wire under the mailbox is chosen by the machine's
//! [`crate::ExchangeBackend`]: one unbounded mpsc channel per rank (the modeled
//! transport) or the per-pair lock-free SPSC rings of [`crate::shared`].  Matching
//! semantics are identical either way; only host wall-clock behaviour differs.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use crate::message::{Envelope, TypedPayload};
use crate::shared::SharedFabric;

/// The physical transport behind one mailbox.
enum Transport {
    /// One unbounded mpsc channel per rank (modeled backend).
    Channel {
        senders: Vec<Sender<Envelope>>,
        receiver: Receiver<Envelope>,
    },
    /// Per-pair SPSC rings (shared-memory backend).
    Shared { fabric: Arc<SharedFabric> },
}

/// The per-rank communication endpoint.
pub struct Mailbox {
    rank: usize,
    transport: Transport,
    /// Messages that arrived but have not yet been asked for.
    pending: Vec<Envelope>,
}

impl Mailbox {
    /// Create the fully connected set of mailboxes for `nprocs` ranks over the modeled
    /// (mpsc channel) transport.
    pub fn create_all(nprocs: usize) -> Vec<Mailbox> {
        let mut senders = Vec::with_capacity(nprocs);
        let mut receivers = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Mailbox {
                rank,
                transport: Transport::Channel {
                    senders: senders.clone(),
                    receiver,
                },
                pending: Vec::new(),
            })
            .collect()
    }

    /// Create the fully connected set of mailboxes for `nprocs` ranks over the
    /// shared-memory SPSC fabric.
    ///
    /// # Panics
    /// Panics if `nprocs` exceeds [`crate::shared::MAX_SHARED_RANKS`].
    pub fn create_shared(nprocs: usize) -> Vec<Mailbox> {
        let fabric = SharedFabric::new(nprocs);
        (0..nprocs)
            .map(|rank| Mailbox {
                rank,
                transport: Transport::Shared {
                    fabric: Arc::clone(&fabric),
                },
                pending: Vec::new(),
            })
            .collect()
    }

    /// The rank that owns this mailbox.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the machine.
    pub fn nprocs(&self) -> usize {
        match &self.transport {
            Transport::Channel { senders, .. } => senders.len(),
            Transport::Shared { fabric } => fabric.nprocs(),
        }
    }

    /// Send `payload` to rank `to` with the given `tag`.
    ///
    /// Sends are buffered and never block on the modeled transport; the shared-memory
    /// transport blocks (yielding) only while the destination's ring is full.  Sending to
    /// oneself is allowed (the message is delivered through the same matching path as any
    /// other).
    ///
    /// # Panics
    /// Panics if `to` is out of range or the destination rank has already shut down.
    pub fn send(&self, to: usize, tag: u64, payload: TypedPayload) {
        assert!(
            to < self.nprocs(),
            "send to rank {to} but machine has {} ranks",
            self.nprocs()
        );
        match &self.transport {
            Transport::Channel { senders, .. } => senders[to]
                .send(Envelope {
                    from: self.rank,
                    tag,
                    payload,
                })
                .expect("destination rank has terminated"),
            Transport::Shared { fabric } => fabric.send(self.rank, to, tag, payload),
        }
    }

    /// Pull the next message off the wire, whatever it is.
    fn recv_next(&mut self) -> Envelope {
        match &mut self.transport {
            Transport::Channel { receiver, .. } => receiver
                .recv()
                .expect("all senders dropped while a receive was outstanding"),
            Transport::Shared { fabric } => fabric.recv_next(self.rank),
        }
    }

    /// Blocking receive of the next message from `from` with tag `tag`.
    ///
    /// Messages from other ranks or with other tags are stashed and delivered to later
    /// matching receives in arrival order.
    pub fn recv(&mut self, from: usize, tag: u64) -> Envelope {
        if let Some(idx) = self
            .pending
            .iter()
            .position(|m| m.from == from && m.tag == tag)
        {
            return self.pending.remove(idx);
        }
        loop {
            let msg = self.recv_next();
            if msg.from == from && msg.tag == tag {
                return msg;
            }
            self.pending.push(msg);
        }
    }

    /// Blocking receive of the next message carrying tag `tag` from *any* rank.
    pub fn recv_any(&mut self, tag: u64) -> Envelope {
        if let Some(idx) = self.pending.iter().position(|m| m.tag == tag) {
            return self.pending.remove(idx);
        }
        loop {
            let msg = self.recv_next();
            if msg.tag == tag {
                return msg;
            }
            self.pending.push(msg);
        }
    }

    /// Number of stashed (received but unmatched) messages.  Useful in tests to assert
    /// that a protocol consumed everything it sent.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        if let Transport::Shared { fabric } = &self.transport {
            fabric.mark_terminated(self.rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn bytes(v: Vec<u8>) -> TypedPayload {
        TypedPayload::new(Box::new(v))
    }

    fn payload_bytes(env: Envelope) -> Vec<u8> {
        *env.payload
            .into_values::<u8>(String::new)
            .expect("test payloads are non-empty")
    }

    /// Run the core matching tests over both transports — the semantics must not
    /// depend on the wire.
    fn both_transports(f: impl Fn(Vec<Mailbox>)) {
        f(Mailbox::create_all(3));
        f(Mailbox::create_shared(3));
    }

    #[test]
    fn two_ranks_exchange_in_order() {
        for make in [
            Mailbox::create_all as fn(usize) -> _,
            Mailbox::create_shared,
        ] {
            let mut boxes = make(2);
            let mut b1 = boxes.pop().unwrap();
            let mut b0 = boxes.pop().unwrap();
            let t = thread::spawn(move || {
                b1.send(0, 7, bytes(vec![1, 2, 3]));
                b1.send(0, 7, bytes(vec![4, 5]));
                let m = b1.recv(0, 9);
                assert_eq!(payload_bytes(m), vec![9]);
            });
            let m1 = b0.recv(1, 7);
            let m2 = b0.recv(1, 7);
            assert_eq!(payload_bytes(m1), vec![1, 2, 3]);
            assert_eq!(payload_bytes(m2), vec![4, 5]);
            b0.send(1, 9, bytes(vec![9]));
            t.join().unwrap();
            assert_eq!(b0.pending_len(), 0);
        }
    }

    #[test]
    fn selective_receive_reorders_tags() {
        both_transports(|mut boxes| {
            let _b2 = boxes.pop().unwrap();
            let b1 = boxes.pop().unwrap();
            let mut b0 = boxes.pop().unwrap();
            // Rank 1 sends tag 1 then tag 2; rank 0 asks for tag 2 first.
            b1.send(0, 1, bytes(vec![11]));
            b1.send(0, 2, bytes(vec![22]));
            let second = b0.recv(1, 2);
            assert_eq!(payload_bytes(second), vec![22]);
            let first = b0.recv(1, 1);
            assert_eq!(payload_bytes(first), vec![11]);
        });
    }

    #[test]
    fn self_send_is_delivered() {
        for make in [
            Mailbox::create_all as fn(usize) -> _,
            Mailbox::create_shared,
        ] {
            let mut boxes = make(1);
            let mut b0 = boxes.pop().unwrap();
            b0.send(0, 3, bytes(vec![42]));
            assert_eq!(payload_bytes(b0.recv(0, 3)), vec![42]);
        }
    }

    #[test]
    fn recv_any_matches_any_source() {
        both_transports(|mut boxes| {
            let b2 = boxes.pop().unwrap();
            let b1 = boxes.pop().unwrap();
            let mut b0 = boxes.pop().unwrap();
            b1.send(0, 5, bytes(vec![1]));
            b2.send(0, 5, bytes(vec![2]));
            let mut froms = vec![b0.recv_any(5).from, b0.recv_any(5).from];
            froms.sort_unstable();
            assert_eq!(froms, vec![1, 2]);
        });
    }
}
