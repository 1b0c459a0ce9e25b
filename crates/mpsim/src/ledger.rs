//! The collective ledger: a feature-gated runtime cross-check that every rank runs the
//! same collective sequence.
//!
//! SPMD collectives (and exchange-engine epochs) must be started by every rank, in the
//! same order, with the same element type.  Sequence violations — a collective under
//! rank-dependent control flow, an extra root-only broadcast — often complete
//! *physically* (receives are tag-selective) and surface later as a deadlock several
//! collectives downstream.  Element-type mismatches do not get that far when a message
//! crosses them: every payload carries its element type, and the receive that expects
//! another type panics naming the rank, source, epoch and both types.  The ledger
//! records the type as well, so a mismatch no message crosses (a pair of ranks that
//! exchange nothing in that collective) still shows up in the cross-check.
//!
//! With the ledger enabled ([`crate::MachineConfig::with_ledger`] or `MPSIM_LEDGER=1`),
//! each rank records one [`LedgerEntry`] per operation it starts (op kind, epoch,
//! element type).  The traces are cross-checked machine-wide at every
//! [`crate::machine::Rank::barrier`] — *before* the barrier's messages move, so a
//! divergence that would deadlock is diagnosed instead — and once more at shutdown.
//! The report names the first divergent pair of ranks and shows both op traces around
//! the first differing entry.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::barrier::Barrier;

/// One recorded collective/exchange start.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LedgerEntry {
    /// Operation kind: `"exchange"`, `"barrier"`, `"all_gather"`, ….
    pub op: &'static str,
    /// The operation's epoch: the exchange-engine epoch for engine executions, the
    /// barrier sequence number for barriers, and the engine epoch at which the
    /// collective began for the higher-level collectives.
    pub epoch: u64,
    /// The element type moved (`std::any::type_name`), or `""` for untyped operations.
    pub elem: &'static str,
}

impl fmt::Display for LedgerEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.elem.is_empty() {
            write!(f, "{}@{}", self.op, self.epoch)
        } else {
            write!(f, "{}@{}<{}>", self.op, self.epoch, self.elem)
        }
    }
}

/// The per-rank side of the ledger: the rank's own trace plus the shared hub it is
/// cross-checked through.
pub(crate) struct LedgerRank {
    pub(crate) hub: Arc<LedgerHub>,
    pub(crate) trace: Vec<LedgerEntry>,
}

/// The machine-wide rendezvous point: one deposit slot per rank plus a reusable gate.
pub(crate) struct LedgerHub {
    slots: Mutex<Vec<Vec<LedgerEntry>>>,
    gate: Barrier,
}

impl LedgerHub {
    pub(crate) fn new(nprocs: usize) -> Arc<LedgerHub> {
        Arc::new(LedgerHub {
            slots: Mutex::new(vec![Vec::new(); nprocs]),
            gate: Barrier::new(nprocs),
        })
    }

    /// Publish `trace` as rank `rank`'s current sequence.
    pub(crate) fn deposit(&self, rank: usize, trace: &[LedgerEntry]) {
        self.slots.lock().expect("ledger mutex poisoned")[rank] = trace.to_vec();
    }

    /// Cross-check at a barrier: deposit, rendezvous so every rank's deposit is in,
    /// compare, rendezvous again so no rank re-deposits before everyone has read.
    ///
    /// Every rank reads the same slots between the two gates, so either *all* ranks
    /// panic with the same divergence report or none do — the failure is deterministic
    /// and [`crate::machine::Machine::run`] surfaces rank 0's copy.
    pub(crate) fn check_at_barrier(&self, rank: usize, trace: &[LedgerEntry]) {
        self.deposit(rank, trace);
        self.gate.wait();
        let verdict = self.divergence();
        if let Some(report) = verdict {
            panic!("{report}");
        }
        self.gate.wait();
    }

    /// Compare all deposited traces; `None` when they agree.  Equality is transitive,
    /// so comparing every rank against rank 0 finds a divergence iff one exists, and
    /// the first differing rank/entry is the canonical "first divergent pair".
    pub(crate) fn divergence(&self) -> Option<String> {
        let slots = self.slots.lock().expect("ledger mutex poisoned");
        let baseline = &slots[0];
        for (r, trace) in slots.iter().enumerate().skip(1) {
            if trace == baseline {
                continue;
            }
            let k = baseline
                .iter()
                .zip(trace.iter())
                .take_while(|(a, b)| a == b)
                .count();
            return Some(divergence_report(0, baseline, r, trace, k));
        }
        None
    }
}

/// Render one side's entry at the divergence point.
fn entry_at(trace: &[LedgerEntry], k: usize) -> String {
    match trace.get(k) {
        Some(e) => format!("{e}"),
        None => format!("<end of trace after {} entries>", trace.len()),
    }
}

/// Render a trace for the report: the whole thing when short, else a window around the
/// divergence point (with elision markers carrying the dropped counts).
fn render_trace(trace: &[LedgerEntry], k: usize) -> String {
    const BEFORE: usize = 4;
    const AFTER: usize = 2;
    let lo = k.saturating_sub(BEFORE);
    let hi = (k + AFTER + 1).min(trace.len());
    let mut parts = Vec::new();
    if lo > 0 {
        parts.push(format!("... {lo} earlier"));
    }
    parts.extend(trace[lo..hi].iter().map(|e| e.to_string()));
    if hi < trace.len() {
        parts.push(format!("... {} later", trace.len() - hi));
    }
    format!("[{}]", parts.join(", "))
}

fn divergence_report(
    a: usize,
    ta: &[LedgerEntry],
    b: usize,
    tb: &[LedgerEntry],
    k: usize,
) -> String {
    format!(
        "collective ledger divergence: rank {a} and rank {b} diverge at collective #{k}:\n  \
         rank {a} recorded {}\n  rank {b} recorded {}\n  rank {a} trace: {}\n  rank {b} trace: {}",
        entry_at(ta, k),
        entry_at(tb, k),
        render_trace(ta, k),
        render_trace(tb, k),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachineConfig;

    fn e(op: &'static str, epoch: u64, elem: &'static str) -> LedgerEntry {
        LedgerEntry { op, epoch, elem }
    }

    #[test]
    fn matched_collective_sequences_verify_clean() {
        let out = crate::run(MachineConfig::new(4).with_ledger(), |rank| {
            let me = rank.rank();
            rank.all_gather(&[me as u32]);
            rank.all_reduce_sum(me as f64);
            rank.barrier();
            rank.all_to_all(&vec![vec![me as u64]; rank.nprocs()]);
            rank.broadcast(1, &[7.0f64]);
            rank.barrier();
            rank.ledger_trace().expect("ledger is on").len()
        });
        // Identical sequence everywhere, and every op was recorded (two barriers,
        // four collectives, plus their engine epochs).
        assert!(out.results.iter().all(|&len| len == out.results[0]));
        assert!(out.results[0] > 6);
    }

    /// A classic SPMD bug: two ranks disagree on the element type of the same
    /// collective.  `u64` and `f64` have the same byte size, but the payloads are typed,
    /// so the first receive across the mismatch panics with the rank, source, epoch and
    /// both type names — before the ledger's shutdown cross-check is reached.  Rank 0
    /// receives `f64` payloads as `u64`, and its panic is the one `run` reports.
    #[test]
    #[should_panic(
        expected = "in exchange epoch 0: payload holds a different element type: \
                               sent as `f64`, received as `u64`"
    )]
    fn element_type_divergence_panics_at_the_receive() {
        let _ = crate::run(MachineConfig::new(3).with_ledger(), |rank| {
            let n = rank.nprocs();
            if rank.rank() == 0 {
                rank.all_to_all(&vec![vec![1u64]; n]);
            } else {
                rank.all_to_all(&vec![vec![1.0f64]; n]);
            }
        });
    }

    /// A rank-dependent extra collective: rank 0 runs a root-only broadcast the others
    /// never start.  The broadcast itself completes (the root only sends), but rank 0's
    /// engine epochs now run ahead, so the *next* collective would deadlock on
    /// mismatched epoch tags.  The barrier's ledger check fires first and names the
    /// divergence instead.
    #[test]
    #[should_panic(expected = "collective ledger divergence")]
    fn rank_dependent_extra_collective_is_caught_at_the_barrier() {
        let _ = crate::run(MachineConfig::new(4).with_ledger(), |rank| {
            rank.all_gather_one(rank.rank() as u64);
            if rank.rank() == 0 {
                rank.broadcast(0, &[1.0f64, 2.0]);
            }
            rank.barrier();
        });
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let hub = LedgerHub::new(3);
        let t = vec![e("exchange", 0, "f64"), e("barrier", 0, "")];
        for r in 0..3 {
            hub.deposit(r, &t);
        }
        assert!(hub.divergence().is_none());
    }

    #[test]
    fn first_divergent_pair_and_entry_are_reported() {
        let hub = LedgerHub::new(3);
        hub.deposit(0, &[e("exchange", 0, "u64"), e("barrier", 0, "")]);
        hub.deposit(1, &[e("exchange", 0, "u64"), e("barrier", 0, "")]);
        hub.deposit(2, &[e("exchange", 0, "f64"), e("barrier", 0, "")]);
        let report = hub.divergence().expect("divergence must be detected");
        assert!(report.contains("rank 0 and rank 2"), "{report}");
        assert!(report.contains("collective #0"), "{report}");
        assert!(report.contains("exchange@0<u64>"), "{report}");
        assert!(report.contains("exchange@0<f64>"), "{report}");
    }

    #[test]
    fn trace_length_skew_is_reported_as_end_of_trace() {
        let hub = LedgerHub::new(2);
        hub.deposit(0, &[e("barrier", 0, ""), e("broadcast", 1, "u64")]);
        hub.deposit(1, &[e("barrier", 0, "")]);
        let report = hub.divergence().expect("divergence must be detected");
        assert!(report.contains("broadcast@1<u64>"), "{report}");
        assert!(
            report.contains("<end of trace after 1 entries>"),
            "{report}"
        );
    }

    #[test]
    fn long_traces_are_windowed_around_the_divergence() {
        let hub = LedgerHub::new(2);
        let common: Vec<LedgerEntry> = (0..20).map(|i| e("exchange", i, "f64")).collect();
        let mut a = common.clone();
        a.push(e("all_gather", 20, "f64"));
        let mut b = common;
        b.push(e("all_to_all", 20, "f64"));
        hub.deposit(0, &a);
        hub.deposit(1, &b);
        let report = hub.divergence().expect("divergence must be detected");
        assert!(report.contains("collective #20"), "{report}");
        assert!(report.contains("... 16 earlier"), "{report}");
        assert!(report.contains("all_gather@20<f64>"), "{report}");
        assert!(report.contains("all_to_all@20<f64>"), "{report}");
    }
}
