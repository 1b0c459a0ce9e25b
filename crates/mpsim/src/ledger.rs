//! The collective ledger: every run checks that every rank starts the same operations
//! in the same order.
//!
//! SPMD collectives (and exchange-engine epochs) must be started by every rank, in the
//! same order, with the same element type.  Sequence violations — a collective under
//! rank-dependent control flow, an extra root-only broadcast — often complete
//! *physically* (receives are tag-selective) and surface later as a deadlock several
//! collectives downstream, or not at all.
//!
//! Each rank folds every operation it starts — each collective and each exchange the
//! program starts itself — into a running 64-bit digest: the
//! [`LedgerEntry`] (op kind, epoch) and the element's `TypeId`, hashed with a fixed-key
//! hasher.  A collective's internal rounds follow from the collective and the machine
//! size, so they are not recorded.  A fixed ring keeps the last 16 entries for
//! reports.  Recording allocates nothing.
//!
//! Every message carries the sender's [`Stamp`] (digest, operation number, entry) in its
//! envelope header, so bytes, message counts and the modeled clock do not change.  The
//! receive compares it with its own digest as of the receiving operation: the exchange
//! engine keeps the digest of the epoch's start, so a split-phase epoch finished after
//! later starts is checked against that start.  A mismatch panics "collective ledger
//! divergence", naming both ranks, the epoch, both entries and the receiver's ring.
//! After a clean run, [`crate::run`] compares every rank's final digest, which catches
//! what no message crossed (an extra operation that sends nothing, or only sends).
//!
//! It cannot see live ranks that all block before any message crosses the divergence.
//! A rank that panics leaves a stop notice with every peer (`mpsim::comm`), so peers
//! blocked in a receive stop too, each reporting its own ring.

use std::any::TypeId;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

use crate::comm::{PEER_PANICKED, STOP_TAG};
use crate::message::Envelope;

/// Number of recent entries each rank keeps for reports.
const RING: usize = 16;

/// One recorded operation start.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LedgerEntry {
    /// Operation kind: `"exchange"`, `"all_gather"`, `"broadcast"`, ….
    pub op: &'static str,
    /// The operation's epoch: the exchange-engine epoch at which the operation began.
    pub epoch: u64,
    /// The element type moved (`std::any::type_name`).
    pub elem: &'static str,
}

impl fmt::Display for LedgerEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}<{}>", self.op, self.epoch, self.elem)
    }
}

/// What a message carries in its envelope header: the sender's ledger as of the
/// operation that sent it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stamp {
    /// Digest of every operation the rank had started, this one included.
    pub digest: u64,
    /// Number of operations the rank had started, this one included.
    pub seq: u64,
    /// The entry of that operation.
    pub entry: LedgerEntry,
}

/// One rank's ledger: its current stamp and its last [`RING`] entries.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ledger {
    stamp: Stamp,
    ring: [LedgerEntry; RING],
}

impl Ledger {
    /// Fold the start of operation `op` on elements of type `T`, in epoch `epoch`, into
    /// the digest and the ring.
    pub(crate) fn record<T: 'static>(&mut self, op: &'static str, epoch: u64) {
        let entry = LedgerEntry {
            op,
            epoch,
            elem: std::any::type_name::<T>(),
        };
        let mut hasher = DefaultHasher::new();
        (self.stamp.digest, op, epoch, TypeId::of::<T>()).hash(&mut hasher);
        self.ring[self.stamp.seq as usize % RING] = entry;
        self.stamp = Stamp {
            digest: hasher.finish(),
            seq: self.stamp.seq + 1,
            entry,
        };
    }

    /// The stamp outgoing messages carry now.
    pub(crate) fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// The ring's entries, oldest first, each with its operation number.
    pub(crate) fn recent(&self) -> impl Iterator<Item = (u64, LedgerEntry)> + '_ {
        let first = self.stamp.seq.saturating_sub(RING as u64);
        (first..self.stamp.seq).map(|k| (k + 1, self.ring[k as usize % RING]))
    }

    /// "last operations of rank r: [#1 a, #2 b]".
    fn render(&self, rank: usize) -> String {
        let parts: Vec<String> = self.recent().map(|(k, e)| format!("#{k} {e}")).collect();
        format!("last operations of rank {rank}: [{}]", parts.join(", "))
    }

    /// Check a message that arrived at rank `me` in exchange epoch `epoch`, where this
    /// rank's operation had stamp `expected`.
    ///
    /// # Panics
    /// On a stop notice from a panicked peer, and on a digest that differs from
    /// `expected` ("collective ledger divergence").
    pub(crate) fn check(&self, me: usize, env: &Envelope, expected: &Stamp, epoch: u64) {
        if env.tag == STOP_TAG {
            panic!(
                "{PEER_PANICKED} (rank {}) while rank {me} waited in exchange epoch {epoch}; {}",
                env.from,
                self.render(me)
            );
        }
        let sent = &env.stamp;
        if sent.digest != expected.digest {
            panic!(
                "collective ledger divergence in exchange epoch {epoch}: rank {} sent from \
                 operation #{} {}, rank {me} received in operation #{} {}, after different \
                 histories; {}",
                env.from,
                sent.seq,
                sent.entry,
                expected.seq,
                expected.entry,
                self.render(me)
            );
        }
    }
}

/// The shutdown compare: every rank's final digest against rank 0's.
///
/// # Panics
/// Naming the first rank whose history differs from rank 0's, both final entries and
/// both rings.
pub(crate) fn check_shutdown(ledgers: &[Ledger]) {
    let Some(base) = ledgers.first() else { return };
    if let Some((r, other)) = ledgers
        .iter()
        .enumerate()
        .find(|(_, l)| l.stamp.digest != base.stamp.digest)
    {
        panic!(
            "collective ledger divergence at shutdown: rank 0 ended after operation #{} {}, \
             rank {r} after operation #{} {}, with different histories; {}; {}",
            base.stamp.seq,
            base.stamp.entry,
            other.stamp.seq,
            other.stamp.entry,
            base.render(0),
            other.render(r)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{alltoallv_with, start_alltoallv_with, ExchangePlan, PackBuf};
    use crate::topology::MachineConfig;

    /// The message of the panic `f` raises.
    fn panic_text(f: impl FnOnce()) -> String {
        *std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("must panic")
            .downcast::<String>()
            .expect("a formatted message")
    }

    /// Run `f` on a `nprocs` machine that must panic; the run's report.
    fn report<F>(nprocs: usize, f: F) -> String
    where
        F: Fn(&mut crate::Rank) + Send + Sync + 'static,
    {
        panic_text(|| {
            crate::run(MachineConfig::new(nprocs), f);
        })
    }

    #[test]
    fn matched_collective_sequences_verify_clean() {
        let out = crate::run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            rank.all_gather(&[me as u32]);
            rank.all_reduce_sum(me as f64);
            rank.all_gather_one(me as u8);
            rank.all_to_all(&vec![vec![me as u64]; rank.nprocs()]);
            rank.broadcast(1, &[7.0f64]);
            rank.all_reduce_max(me as f64);
            (
                rank.ledger.stamp(),
                rank.ledger.recent().collect::<Vec<_>>(),
            )
        });
        // Identical history everywhere; one entry per started operation, the
        // collectives' internal rounds not among them.
        let (stamp, ring) = &out.results[0];
        assert!(out.results.iter().all(|(s, r)| s == stamp && r == ring));
        let ops: Vec<String> = ring.iter().map(|(k, e)| format!("#{k} {e}")).collect();
        assert_eq!(
            ops,
            [
                "#1 all_gather@0<u32>",
                "#2 all_reduce@4<f64>",
                "#3 all_gather_one@6<u8>",
                "#4 all_to_all@8<u64>",
                "#5 broadcast@9<f64>",
                "#6 all_reduce@11<f64>",
            ]
        );
        assert_eq!(stamp.seq, 6);
    }

    /// A classic SPMD bug: the ranks disagree on the element type of the same
    /// collective.  The element type is part of the digest, so the first receive across
    /// the mismatch panics naming both ranks and both typed entries.  Rank 0 always
    /// finds it (both of its sources disagree with it); which source it hears first
    /// depends on the interleaving.
    #[test]
    fn element_type_divergence_panics_at_the_receive() {
        let report = report(3, |rank| {
            let n = rank.nprocs();
            if rank.rank() == 0 {
                rank.all_to_all(&vec![vec![1u64]; n]);
            } else {
                rank.all_to_all(&vec![vec![1.0f64]; n]);
            }
        });
        let found = |src: usize| {
            format!(
                "rank 0 panicked: collective ledger divergence in exchange epoch 0: rank {src} \
                 sent from operation #1 all_to_all@0<f64>, rank 0 received in operation #1 \
                 all_to_all@0<u64>"
            )
        };
        assert!(
            report.starts_with(&found(1)) || report.starts_with(&found(2)),
            "{report}"
        );
    }

    /// A rank-dependent extra collective: rank 0 runs a root-only broadcast the others
    /// never start.  The broadcast's own messages, which match the peers' next gather
    /// round by round, carry the history that now differs.  Rank 1 finds it in the first
    /// round if the broadcast's message reaches it before rank 2's gather message, and
    /// rank 2 in the second unless rank 1's stop notice reaches it first.  Either report
    /// names rank 0 with the broadcast, the receiver with its gather, the epoch and the
    /// receiver's ring.
    #[test]
    fn rank_dependent_extra_collective_is_caught_at_the_next_collective() {
        let report = report(4, |rank| {
            rank.all_gather_one(rank.rank() as u64);
            if rank.rank() == 0 {
                rank.broadcast(0, &[1.0f64, 2.0]);
            }
            rank.all_gather_one(0u8);
        });
        let found = |r: usize, epoch: usize| {
            format!(
                "rank {r} panicked: collective ledger divergence in exchange epoch {epoch}: \
                 rank 0 sent from operation #2 broadcast@2<f64>, rank {r} received in \
                 operation #2 all_gather_one@2<u8>, after different histories; last \
                 operations of rank {r}: [#1 all_gather_one@0<u64>, #2 all_gather_one@2<u8>]"
            )
        };
        let root = report.lines().next().unwrap();
        assert!(root == found(1, 2) || root == found(2, 3), "{report}");
    }

    /// Rank 0 gathers while rank 1 runs a dense exchange of the same element type, and
    /// no collective follows: the first message across the mismatch names both ranks and
    /// both operations.  Each rank hears the other's message before anything else, so
    /// both find it.
    #[test]
    fn gather_against_exchange_panics_at_the_first_message() {
        let report = report(2, |rank| {
            let me = rank.rank();
            if me == 0 {
                rank.all_gather_one(0.5f64);
            } else {
                let plan = ExchangePlan::dense(me, vec![1; 2]);
                alltoallv_with(
                    rank,
                    &plan,
                    |_p, buf: &mut PackBuf<'_, f64>| buf.push(1.5),
                    |_s, _v| {},
                );
            }
        });
        assert!(
            report.starts_with(
                "rank 0 panicked: collective ledger divergence in exchange epoch 0: rank 1 \
                 sent from operation #1 exchange@0<f64>, rank 0 received in operation #1 \
                 all_gather_one@0<f64>"
            ),
            "{report}"
        );
        assert!(
            report.contains(
                "rank 1 panicked: collective ledger divergence in exchange epoch 0: rank 0 \
                 sent from operation #1 all_gather_one@0<f64>, rank 1 received in operation \
                 #1 exchange@0<f64>"
            ),
            "{report}"
        );
    }

    /// An exchange only rank 0 starts, as its last operation, with an empty plan: no
    /// message crosses it, so only the shutdown compare can see it.
    #[test]
    fn silent_extra_exchange_is_caught_at_shutdown() {
        let report = report(2, |rank| {
            let me = rank.rank();
            rank.all_gather_one(me as u32);
            if me == 0 {
                let plan = ExchangePlan::sparse(me, vec![0; 2], vec![0; 2]);
                alltoallv_with(rank, &plan, |_p, _b: &mut PackBuf<'_, f64>| {}, |_s, _v| {});
            }
        });
        assert_eq!(
            report,
            "collective ledger divergence at shutdown: rank 0 ended after operation #2 \
             exchange@1<f64>, rank 1 after operation #1 all_gather_one@0<u32>, with \
             different histories; last operations of rank 0: [#1 all_gather_one@0<u32>, \
             #2 exchange@1<f64>]; last operations of rank 1: [#1 all_gather_one@0<u32>]"
        );
    }

    /// Both ranks start split-phase epoch 0 alike; rank 0 alone then starts a
    /// root-only broadcast before either finishes epoch 0.  Epoch 0's messages are
    /// checked against the digest stored at its start, so they pass; the divergence is
    /// found at the next message that crosses it: rank 1's gather in epoch 1 receives
    /// the broadcast.
    #[test]
    fn split_phase_epochs_are_checked_against_their_start() {
        let report = report(2, |rank| {
            let me = rank.rank();
            let plan = ExchangePlan::sparse(me, vec![1; 2], vec![1; 2]);
            let handle = start_alltoallv_with(rank, plan, |_p, buf: &mut PackBuf<'_, f64>| {
                buf.push(me as f64);
            });
            if me == 0 {
                rank.broadcast(0, &[2.5f64]);
            }
            handle.finish(rank, |_s, _v| {});
            rank.all_gather_one(me as f64);
        });
        assert!(
            report.starts_with(
                "rank 1 panicked: collective ledger divergence in exchange epoch 1: rank 0 \
                 sent from operation #2 broadcast@1<f64>, rank 1 received in operation #2 \
                 all_gather_one@1<f64>"
            ),
            "{report}"
        );
        assert!(!report.contains("in exchange epoch 0"), "{report}");
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let mut a = Ledger::default();
        a.record::<f64>("exchange", 0);
        a.record::<u8>("all_gather_one", 0);
        let b = a.clone();
        assert_eq!(a.stamp(), b.stamp());
        assert_ne!(a.stamp().digest, Ledger::default().stamp().digest);
        assert_eq!(a.stamp().seq, 2);
        check_shutdown(&[a, b.clone(), b]);
    }

    #[test]
    fn first_divergent_pair_and_entry_are_reported() {
        let mut u = Ledger::default();
        u.record::<u64>("exchange", 0);
        let mut f = Ledger::default();
        f.record::<f64>("exchange", 0);

        // At a receive: rank 0 is in its u64 exchange when rank 2's f64 message comes.
        let env = Envelope {
            from: 2,
            tag: 0,
            payload: crate::message::TypedPayload::empty::<f64>(),
            stamp: f.stamp(),
        };
        let report = panic_text(|| u.check(0, &env, &u.stamp(), 0));
        assert_eq!(
            report,
            "collective ledger divergence in exchange epoch 0: rank 2 sent from operation #1 \
             exchange@0<f64>, rank 0 received in operation #1 exchange@0<u64>, after \
             different histories; last operations of rank 0: [#1 exchange@0<u64>]"
        );

        // At shutdown: ranks 0 and 1 agree, rank 2 is the first that differs.
        let ledgers = [u.clone(), u, f];
        let report = panic_text(|| check_shutdown(&ledgers));
        assert!(
            report.contains(
                "rank 0 ended after operation #1 exchange@0<u64>, rank 2 after operation #1 \
                 exchange@0<f64>"
            ),
            "{report}"
        );
    }

    #[test]
    fn trace_length_skew_is_reported_as_end_of_trace() {
        let mut short = Ledger::default();
        short.record::<u8>("all_gather_one", 0);
        let mut long = short.clone();
        long.record::<u64>("broadcast", 1);
        let ledgers = [long, short];
        let report = panic_text(|| check_shutdown(&ledgers));
        assert_eq!(
            report,
            "collective ledger divergence at shutdown: rank 0 ended after operation #2 \
             broadcast@1<u64>, rank 1 after operation #1 all_gather_one@0<u8>, with \
             different histories; last operations of rank 0: [#1 all_gather_one@0<u8>, \
             #2 broadcast@1<u64>]; last operations of rank 1: [#1 all_gather_one@0<u8>]"
        );
    }

    #[test]
    fn op_epoch_and_element_type_each_change_the_digest() {
        fn digest<T: 'static>(op: &'static str, epoch: u64) -> u64 {
            let mut l = Ledger::default();
            l.record::<T>(op, epoch);
            l.stamp().digest
        }
        let base = digest::<u64>("exchange", 0);
        assert_ne!(base, digest::<u64>("all_gather", 0));
        assert_ne!(base, digest::<u64>("exchange", 1));
        assert_ne!(base, digest::<f64>("exchange", 0));
        // Order matters: the same two operations the other way round differ.
        let mut ab = Ledger::default();
        ab.record::<u8>("a", 0);
        ab.record::<u8>("b", 0);
        let mut ba = Ledger::default();
        ba.record::<u8>("b", 0);
        ba.record::<u8>("a", 0);
        assert_ne!(ab.stamp().digest, ba.stamp().digest);
    }

    #[test]
    fn long_traces_are_windowed_around_the_divergence() {
        // Twenty common entries, then one that differs: the report keeps the last
        // `RING` of them, numbered.
        let mut a = Ledger::default();
        for i in 0..20 {
            a.record::<f64>("exchange", i);
        }
        let mut b = a.clone();
        a.record::<f64>("all_gather", 20);
        b.record::<f64>("all_to_all", 20);
        let numbers: Vec<u64> = a.recent().map(|(k, _)| k).collect();
        assert_eq!(numbers, (6..=21).collect::<Vec<_>>());
        let ledgers = [a, b];
        let report = panic_text(|| check_shutdown(&ledgers));
        assert!(
            report.contains("last operations of rank 0: [#6 exchange@5<f64>, #7 exchange@6<f64>"),
            "{report}"
        );
        assert!(
            report.contains("#20 exchange@19<f64>, #21 all_gather@20<f64>]"),
            "{report}"
        );
        assert!(
            report.contains("#20 exchange@19<f64>, #21 all_to_all@20<f64>]"),
            "{report}"
        );
    }
}
