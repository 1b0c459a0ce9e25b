//! Point-to-point communication endpoints.
//!
//! Each rank owns a [`Mailbox`]: an incoming message stream plus the means to push into
//! every other rank's stream.  Receives are *selective* — a receive for `(from, tag)`
//! stashes any other message that arrives first and delivers it later — which gives the
//! deterministic, MPI-like matching semantics the CHAOS executor relies on.
//!
//! The wire is one unbounded mpsc channel per rank.  A mailbox holds senders into its
//! peers' channels only; a message a rank sends to itself goes straight onto its own
//! stash.  So once every peer has exited, a receive that is still waiting sees the
//! channel disconnect and panics ("all senders dropped …") instead of blocking forever,
//! and a send to an exited rank panics too.  Which [`crate::ExchangeBackend`] a machine
//! names does not matter here: both build this mailbox.
//!
//! A receiver waits in two steps (`Mailbox::recv_next`): it polls the channel up to a
//! budget chosen once per machine, yielding between polls, and only then blocks in the
//! channel's `recv`.
//!
//! Every envelope carries the sender's collective-ledger [`Stamp`] in its header (see
//! [`crate::ledger`]); the receiving rank checks it.  A rank that panics leaves a stop
//! notice in every peer's channel as its mailbox drops.  Receives return the notice
//! whatever they wait for, and the rank stops too, so a peer that waits for a message
//! the panicked rank would have sent never hangs.

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

use crate::ledger::Stamp;
use crate::message::{Envelope, TypedPayload};

/// Polls a receiver makes (yielding between polls) before it blocks, when every rank
/// thread can have its own core.  Exchanges that are already in flight complete within
/// a few polls, so polling wins: a park and wake costs more than the wait.
const SPIN_SWEEPS: usize = 64;

/// Polls before blocking when the machine is *oversubscribed* (more rank threads than
/// host cores).  Polling then actively hurts — every poll is a scheduler round-trip that
/// delays the very producer the receiver is waiting for — so block almost at once.
const SPIN_SWEEPS_OVERSUBSCRIBED: usize = 4;

/// The polling budget of a machine of `nprocs` rank threads on `cores` host cores.
fn spin_budget(nprocs: usize, cores: usize) -> usize {
    if nprocs <= cores {
        SPIN_SWEEPS
    } else {
        SPIN_SWEEPS_OVERSUBSCRIBED
    }
}

/// [`spin_budget`] on this host.  Asked once per machine, when its mailboxes are built:
/// `available_parallelism` is a system call, far too dear for every receive.
fn host_spin_budget(nprocs: usize) -> usize {
    spin_budget(
        nprocs,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// Why a receive can never complete: every rank that could send to it is gone.
pub(crate) const DISCONNECTED: &str = "all senders dropped while a receive was outstanding";

/// Why a send failed: its destination has exited.
pub(crate) const TERMINATED: &str = "destination rank has terminated";

/// Why a rank stopped at a peer's stop notice.
pub(crate) const PEER_PANICKED: &str = "stopped because a peer panicked";

/// The tag of a stop notice; it lies above every tag the machine uses.
pub(crate) const STOP_TAG: u64 = u64::MAX;

/// Whether a rank's panic message only reports that another rank failed first: a stop
/// notice, a receive whose senders are all gone, or a send to an exited rank.
pub(crate) fn is_follow_on(message: &str) -> bool {
    [DISCONNECTED, TERMINATED, PEER_PANICKED]
        .iter()
        .any(|cause| message.contains(cause))
}

/// The per-rank communication endpoint.
pub struct Mailbox {
    rank: usize,
    /// Senders into every rank's channel, `None` at this rank's own index: holding no
    /// sender to itself is what lets the channel disconnect once every peer has exited.
    peers: Vec<Option<Sender<Envelope>>>,
    receiver: Receiver<Envelope>,
    /// Messages that arrived but have not yet been asked for, self-sends included.
    pending: Vec<Envelope>,
    /// Polls before each block, the machine's [`spin_budget`].
    spin_sweeps: usize,
}

impl Mailbox {
    /// Create the fully connected set of mailboxes for `nprocs` ranks.
    pub fn create_all(nprocs: usize) -> Vec<Mailbox> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel()).unzip();
        let spin_sweeps = host_spin_budget(nprocs);
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Mailbox {
                rank,
                peers: senders
                    .iter()
                    .enumerate()
                    .map(|(to, tx)| (to != rank).then(|| tx.clone()))
                    .collect(),
                receiver,
                pending: Vec::new(),
                spin_sweeps,
            })
            .collect()
    }

    /// The rank that owns this mailbox.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the machine.
    pub fn nprocs(&self) -> usize {
        self.peers.len()
    }

    /// Send `payload` to rank `to` with the given `tag`, stamped with the sender's
    /// ledger `stamp`.
    ///
    /// Sends are buffered and never block.  Sending to oneself is allowed: the message
    /// is stashed at once and delivered through the same matching path as any other.
    ///
    /// # Panics
    /// Panics if `to` is out of range or the destination rank has already shut down.
    pub fn send(&mut self, to: usize, tag: u64, payload: TypedPayload, stamp: Stamp) {
        assert!(
            to < self.nprocs(),
            "send to rank {to} but machine has {} ranks",
            self.nprocs()
        );
        let env = Envelope {
            from: self.rank,
            tag,
            payload,
            stamp,
        };
        match &self.peers[to] {
            Some(tx) => tx.send(env).expect(TERMINATED),
            None => self.pending.push(env),
        }
    }

    /// Pull the next message off the channel, whatever it is: up to `spin_sweeps` polls,
    /// yielding between them, then one blocking `recv`.
    ///
    /// # Panics
    /// Panics with [`DISCONNECTED`] when no rank is left that could send.
    fn recv_next(&mut self) -> Envelope {
        for _ in 1..self.spin_sweeps {
            if let Some(env) = self.poll() {
                return env;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        self.receiver.recv().expect(DISCONNECTED)
    }

    /// One non-blocking look at the channel.
    fn poll(&mut self) -> Option<Envelope> {
        match self.receiver.try_recv() {
            Ok(env) => Some(env),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => panic!("{DISCONNECTED}"),
        }
    }

    /// Blocking receive of the next message from `from` with tag `tag`, or of a stop
    /// notice from any rank.
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
            if (msg.from == from && msg.tag == tag) || msg.tag == STOP_TAG {
                return msg;
            }
            self.pending.push(msg);
        }
    }

    /// Blocking receive of the next message carrying tag `tag` from *any* rank, or of a
    /// stop notice.
    pub fn recv_any(&mut self, tag: u64) -> Envelope {
        if let Some(idx) = self.pending.iter().position(|m| m.tag == tag) {
            return self.pending.remove(idx);
        }
        loop {
            let msg = self.recv_next();
            if msg.tag == tag || msg.tag == STOP_TAG {
                return msg;
            }
            self.pending.push(msg);
        }
    }
}

impl Drop for Mailbox {
    /// A rank that panics leaves a stop notice with every peer still running.
    fn drop(&mut self) {
        if std::thread::panicking() {
            for tx in self.peers.iter().flatten() {
                let _ = tx.send(Envelope {
                    from: self.rank,
                    tag: STOP_TAG,
                    payload: TypedPayload::empty::<()>(),
                    stamp: Stamp::default(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;

    fn bytes(v: Vec<u8>) -> TypedPayload {
        TypedPayload::new(Box::new(v))
    }

    fn payload_bytes(env: Envelope) -> Vec<u8> {
        *env.payload
            .into_values::<u8>(String::new)
            .expect("test payloads are non-empty")
    }

    #[test]
    fn two_ranks_exchange_in_order() {
        let mut boxes = Mailbox::create_all(2);
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        let t = thread::spawn(move || {
            b1.send(0, 7, bytes(vec![1, 2, 3]), Stamp::default());
            b1.send(0, 7, bytes(vec![4, 5]), Stamp::default());
            let m = b1.recv(0, 9);
            assert_eq!(payload_bytes(m), vec![9]);
        });
        let m1 = b0.recv(1, 7);
        let m2 = b0.recv(1, 7);
        assert_eq!(payload_bytes(m1), vec![1, 2, 3]);
        assert_eq!(payload_bytes(m2), vec![4, 5]);
        b0.send(1, 9, bytes(vec![9]), Stamp::default());
        t.join().unwrap();
        assert_eq!(b0.pending.len(), 0);
    }

    #[test]
    fn selective_receive_reorders_tags() {
        let mut boxes = Mailbox::create_all(3);
        let _b2 = boxes.pop().unwrap();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        // Rank 1 sends tag 1 then tag 2; rank 0 asks for tag 2 first.
        b1.send(0, 1, bytes(vec![11]), Stamp::default());
        b1.send(0, 2, bytes(vec![22]), Stamp::default());
        let second = b0.recv(1, 2);
        assert_eq!(payload_bytes(second), vec![22]);
        let first = b0.recv(1, 1);
        assert_eq!(payload_bytes(first), vec![11]);
    }

    #[test]
    fn self_send_is_delivered() {
        let mut boxes = Mailbox::create_all(1);
        let mut b0 = boxes.pop().unwrap();
        b0.send(0, 3, bytes(vec![42]), Stamp::default());
        assert_eq!(payload_bytes(b0.recv(0, 3)), vec![42]);
    }

    #[test]
    fn queued_message_is_returned_by_the_first_poll() {
        let mut boxes = Mailbox::create_all(3);
        let _b2 = boxes.pop().unwrap();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        b1.send(0, 4, bytes(vec![7]), Stamp::default());
        let env = b0.poll().expect("a queued message needs no wait");
        assert_eq!((env.from, env.tag), (1, 4));
        assert_eq!(payload_bytes(env), vec![7]);
    }

    #[test]
    fn blocked_receiver_is_woken_by_late_sender() {
        let mut boxes = Mailbox::create_all(3);
        let _b2 = boxes.pop().unwrap();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        let consumer = thread::spawn(move || payload_bytes(b0.recv(1, 99)));
        // Give the receiver time to use up its polls and block before sending.
        thread::sleep(std::time::Duration::from_millis(30));
        b1.send(0, 99, bytes(vec![5]), Stamp::default());
        assert_eq!(consumer.join().unwrap(), vec![5]);
    }

    #[test]
    fn receive_with_every_peer_gone_panics_and_send_to_a_gone_rank_panics() {
        let mut boxes = Mailbox::create_all(2);
        let b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        drop(b1);
        let message = |caught: Result<_, Box<dyn std::any::Any + Send>>| {
            *caught
                .expect_err("must panic")
                .downcast::<String>()
                .unwrap()
        };
        let send = catch_unwind(AssertUnwindSafe(|| {
            b0.send(1, 1, bytes(vec![1]), Stamp::default());
        }));
        assert!(message(send).starts_with("destination rank has terminated"));
        let recv = catch_unwind(AssertUnwindSafe(|| drop(b0.recv(1, 1))));
        assert!(message(recv).starts_with(DISCONNECTED));
    }

    #[test]
    fn a_panicking_peer_leaves_a_stop_notice() {
        let mut boxes = Mailbox::create_all(3);
        let _b2 = boxes.pop().unwrap();
        let b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        let dying = thread::spawn(move || {
            let _b1 = b1;
            panic!("rank 1 fails");
        });
        assert!(dying.join().is_err());
        // Rank 2 is alive and silent: without the notice this receive would wait forever.
        let env = b0.recv(2, 1);
        assert_eq!((env.from, env.tag), (1, STOP_TAG));
        assert!(is_follow_on(&format!("{PEER_PANICKED} (rank 1)")));
        assert!(!is_follow_on("rank 1 fails"));
    }

    #[test]
    fn polling_budget_shrinks_when_ranks_outnumber_cores() {
        assert_eq!(spin_budget(1, 1), SPIN_SWEEPS);
        assert_eq!(spin_budget(8, 8), SPIN_SWEEPS);
        assert_eq!(spin_budget(9, 8), SPIN_SWEEPS_OVERSUBSCRIBED);
        assert_eq!(spin_budget(128, 2), SPIN_SWEEPS_OVERSUBSCRIBED);
        for b in &Mailbox::create_all(3) {
            assert_eq!(b.spin_sweeps, host_spin_budget(3));
        }
    }

    #[test]
    fn recv_any_matches_any_source() {
        let mut boxes = Mailbox::create_all(3);
        let mut b2 = boxes.pop().unwrap();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        b1.send(0, 5, bytes(vec![1]), Stamp::default());
        b2.send(0, 5, bytes(vec![2]), Stamp::default());
        let mut froms = vec![b0.recv_any(5).from, b0.recv_any(5).from];
        froms.sort_unstable();
        assert_eq!(froms, vec![1, 2]);
    }
}
