//! Machine description and virtual topologies over rank IDs.
//!
//! A [`MachineConfig`] is the simulated analogue of "how many iPSC/860 nodes the job
//! asked for": the paper's tables sweep this from 1 to 128 processors while holding the
//! [`crate::cost::CostModel`] fixed.
//!
//! The rest of this module is the *virtual topology* layer underneath the collectives:
//! pure rank-ID arithmetic describing who talks to whom in each round of a log-depth
//! collective, with no communication of its own.  Two shapes cover the gathers and
//! `broadcast`, and both handle non-power-of-two machine sizes:
//!
//! * [`Dissemination`] — the symmetric schedule behind the gathers: in
//!   round `k` every rank sends to the rank `2^k` below it and receives from the rank
//!   `2^k` above it (mod P), so after `ceil(log2 P)` rounds every rank has heard,
//!   directly or transitively, from every other rank.  (The reductions run on the
//!   combining butterfly of [`crate::collectives`], and the count negotiation on the
//!   exchange engine's own ring router.)
//! * [`BinomialTree`] — the rooted schedule behind `broadcast`: the informed set
//!   doubles each round, so every rank has the root's data after `ceil(log2 P)`
//!   rounds.

use crate::cost::CostModel;

/// A transport name for [`MachineConfig::with_backend`].
///
/// Both variants build the same mailbox, the mpsc channels of `mpsim::comm`; the two
/// names stay because callers outside the workspace pass them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeBackend {
    /// The channel mailbox.
    Modeled,
    /// The channel mailbox as well.
    SharedMem,
}

/// Description of the simulated machine used for one SPMD run.
///
/// The configuration is intentionally small: the number of ranks and a [`CostModel`].
/// The paper's experiments sweep the processor count from 1 to 128; construct one
/// `MachineConfig` per point of the sweep.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of SPMD ranks (processors) to simulate.
    pub nprocs: usize,
    /// Cost model used to accumulate modeled communication and computation time.
    pub cost: CostModel,
    /// Stack size (bytes) for each rank's thread.  Irregular applications with large
    /// per-rank buffers occasionally need more than the platform default.
    pub stack_size: usize,
}

impl MachineConfig {
    /// A machine with `nprocs` ranks and the default (iPSC/860-class) cost model.
    pub fn new(nprocs: usize) -> Self {
        Self {
            nprocs,
            cost: CostModel::ipsc860(),
            stack_size: 8 * 1024 * 1024,
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replace the per-thread stack size.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Name a transport.  Every [`ExchangeBackend`] builds the same mailbox, so this
    /// returns the configuration unchanged.
    pub fn with_backend(self, _backend: ExchangeBackend) -> Self {
        self
    }
}

/// `ceil(log2(nprocs))`: the number of rounds of every log-depth collective on
/// `nprocs` ranks, and the depth factor of [`CostModel::sync_cost_us`].  Zero for a
/// single-rank machine.
///
/// # Panics
/// Panics if `nprocs` is zero.
pub fn tree_rounds(nprocs: usize) -> usize {
    assert!(nprocs > 0, "a machine has at least one rank");
    (usize::BITS - (nprocs - 1).leading_zeros()) as usize
}

/// The dissemination (recursive-doubling) schedule over `nprocs` ranks.
///
/// Round `k` (with distance `d = 2^k`) moves data "downhill": rank `r` sends to
/// `(r - d) mod P` and receives from `(r + d) mod P`.  Used as an all-gather it
/// maintains the invariant that after round `k` rank `r` holds the *blocks* (per-rank
/// contributions) of ranks `r, r+1, …, r + min(2^(k+1), P) - 1` (mod P), so
/// [`Dissemination::rounds`] rounds suffice for any `P`, power of two or not; the final
/// round is partial ([`Dissemination::blocks_in_round`] < `2^k`) when `P` is not a
/// power of two.  Every rank sends exactly one message and receives exactly one message
/// per round — `ceil(log2 P)` messages each way in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dissemination {
    nprocs: usize,
}

impl Dissemination {
    /// The dissemination schedule for a machine of `nprocs` ranks.
    ///
    /// # Panics
    /// Panics if `nprocs` is zero.
    pub fn new(nprocs: usize) -> Self {
        assert!(nprocs > 0, "a machine has at least one rank");
        Dissemination { nprocs }
    }

    /// Number of rounds: `ceil(log2 P)` (zero on a single rank).
    pub fn rounds(&self) -> usize {
        tree_rounds(self.nprocs)
    }

    /// The hop distance of round `k`: `2^k`.
    pub fn distance(&self, round: usize) -> usize {
        1 << round
    }

    /// Number of per-rank blocks exchanged in round `k`: `min(2^k, P - 2^k)`.
    /// Equal to `2^k` for every round except a partial final round of a
    /// non-power-of-two machine.
    pub fn blocks_in_round(&self, round: usize) -> usize {
        let d = self.distance(round);
        d.min(self.nprocs - d)
    }

    /// The rank `rank` sends to in round `k`: `(rank - 2^k) mod P`.
    pub fn send_peer(&self, rank: usize, round: usize) -> usize {
        let d = self.distance(round);
        (rank + self.nprocs - d) % self.nprocs
    }

    /// The rank `rank` receives from in round `k`: `(rank + 2^k) mod P`.
    pub fn recv_peer(&self, rank: usize, round: usize) -> usize {
        let d = self.distance(round);
        (rank + d) % self.nprocs
    }

    /// The blocks (owning ranks) `rank` ships in round `k`, in transmission order:
    /// `rank, rank+1, …` (mod P), [`Self::blocks_in_round`] of them.  These are always
    /// the oldest blocks the rank holds, so the invariant above guarantees it has them.
    pub fn send_blocks(&self, rank: usize, round: usize) -> impl Iterator<Item = usize> {
        let n = self.nprocs;
        (0..self.blocks_in_round(round)).map(move |i| (rank + i) % n)
    }

    /// The blocks (owning ranks) `rank` receives in round `k`, in transmission order:
    /// `rank + 2^k, rank + 2^k + 1, …` (mod P).
    pub fn recv_blocks(&self, rank: usize, round: usize) -> impl Iterator<Item = usize> {
        let n = self.nprocs;
        let d = self.distance(round);
        (0..self.blocks_in_round(round)).map(move |i| (rank + d + i) % n)
    }
}

/// A binomial tree over `0..nprocs`, rooted at `root`, in *relative* rank space
/// `rel = (rank - root) mod P`.
///
/// The broadcast schedule (root → leaves, high-bit pairing): in round `k`, every rank
/// with `rel < 2^k` sends to `rel + 2^k` (when that rank exists), so the informed set
/// doubles each round and rank `rel` first hears from `rel` minus its highest set bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinomialTree {
    nprocs: usize,
    root: usize,
}

impl BinomialTree {
    /// The binomial tree over `nprocs` ranks rooted at `root`.
    ///
    /// # Panics
    /// Panics if `nprocs` is zero or `root` is outside the machine.
    pub fn new(nprocs: usize, root: usize) -> Self {
        assert!(nprocs > 0, "a machine has at least one rank");
        assert!(root < nprocs, "root outside the machine");
        BinomialTree { nprocs, root }
    }

    /// Number of rounds: `ceil(log2 P)` (zero on a single rank).
    pub fn rounds(&self) -> usize {
        tree_rounds(self.nprocs)
    }

    /// Relative ID of `rank`: its distance above the root, mod P.
    fn rel(&self, rank: usize) -> usize {
        (rank + self.nprocs - self.root) % self.nprocs
    }

    /// Absolute rank of relative ID `rel`.
    fn abs(&self, rel: usize) -> usize {
        (rel + self.root) % self.nprocs
    }

    /// The rank `rank` forwards to in round `k`, if any.
    pub fn bcast_send_to(&self, rank: usize, round: usize) -> Option<usize> {
        let rel = self.rel(rank);
        let d = 1usize << round;
        if rel < d && rel + d < self.nprocs {
            Some(self.abs(rel + d))
        } else {
            None
        }
    }

    /// The rank `rank` hears from in round `k`, if any.  Each non-root rank receives in
    /// exactly one round: the index of its highest relative bit.
    pub fn bcast_recv_from(&self, rank: usize, round: usize) -> Option<usize> {
        let rel = self.rel(rank);
        let d = 1usize << round;
        if rel >= d && rel < 2 * d {
            Some(self.abs(rel - d))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_has_positive_parameters() {
        let cfg = MachineConfig::new(16);
        assert_eq!(cfg.nprocs, 16);
        assert!(cfg.cost.message_latency_us > 0.0);
        assert!(cfg.cost.per_byte_us > 0.0);
        assert!(cfg.stack_size >= 1024 * 1024);
    }

    #[test]
    fn builder_overrides_apply() {
        let cfg = MachineConfig::new(4)
            .with_cost(CostModel::uniform(1.0, 0.5, 2.0))
            .with_stack_size(1 << 20);
        assert_eq!(cfg.cost.message_latency_us, 1.0);
        assert_eq!(cfg.cost.per_byte_us, 0.5);
        assert_eq!(cfg.cost.compute_unit_us, 2.0);
        assert_eq!(cfg.stack_size, 1 << 20);
    }

    #[test]
    fn tree_rounds_is_ceil_log2() {
        for (p, r) in [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (12, 4),
            (48, 6),
            (1023, 10),
            (1024, 10),
            (1025, 11),
        ] {
            assert_eq!(tree_rounds(p), r, "P = {p}");
        }
    }

    /// Simulate the dissemination all-gather block bookkeeping and check that every
    /// rank ends with every block, in `rounds()` rounds, at awkward machine sizes.
    #[test]
    fn dissemination_gathers_every_block_at_any_p() {
        for p in [1usize, 2, 3, 5, 7, 12, 48, 100, 1024] {
            let d = Dissemination::new(p);
            // held[r] = set of blocks rank r holds, as a sorted Vec.
            let mut held: Vec<Vec<usize>> = (0..p).map(|r| vec![r]).collect();
            for k in 0..d.rounds() {
                let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); p];
                for (r, held_r) in held.iter().enumerate() {
                    let to = d.send_peer(r, k);
                    assert_eq!(d.recv_peer(to, k), r, "send/recv peers must mirror");
                    for b in d.send_blocks(r, k) {
                        assert!(
                            held_r.contains(&b),
                            "P={p} round {k}: rank {r} ships block {b} it does not hold"
                        );
                        incoming[to].push(b);
                    }
                }
                for (r, inc) in incoming.into_iter().enumerate() {
                    let expect: Vec<usize> = d.recv_blocks(r, k).collect();
                    assert_eq!(inc, expect, "P={p} round {k}: rank {r} receive blocks");
                    held[r].extend(inc);
                }
            }
            for (r, mut blocks) in held.into_iter().enumerate() {
                blocks.sort_unstable();
                blocks.dedup();
                assert_eq!(blocks.len(), p, "P={p}: rank {r} is missing blocks");
            }
        }
    }

    #[test]
    fn dissemination_final_round_is_partial_for_non_pow2() {
        let d = Dissemination::new(5);
        assert_eq!(d.rounds(), 3);
        assert_eq!(d.blocks_in_round(0), 1);
        assert_eq!(d.blocks_in_round(1), 2);
        assert_eq!(d.blocks_in_round(2), 1); // min(4, 5 - 4)
        let d = Dissemination::new(8);
        assert_eq!(d.blocks_in_round(2), 4);
    }

    /// Simulate the broadcast schedule: every rank must be informed exactly once, by a
    /// rank already informed, and every per-round send must mirror a receive.
    #[test]
    fn binomial_broadcast_informs_every_rank_once() {
        for p in [1usize, 2, 3, 5, 12, 48, 1024] {
            for root in [0, p - 1, p / 2] {
                let t = BinomialTree::new(p, root);
                let mut informed = vec![false; p];
                informed[root] = true;
                for k in 0..t.rounds() {
                    for r in 0..p {
                        if let Some(child) = t.bcast_send_to(r, k) {
                            assert!(
                                informed[r],
                                "P={p} root={root}: rank {r} forwards before hearing"
                            );
                            assert_eq!(t.bcast_recv_from(child, k), Some(r));
                            assert!(
                                !informed[child],
                                "P={p} root={root}: rank {child} informed twice"
                            );
                            informed[child] = true;
                        }
                    }
                }
                assert!(informed.iter().all(|&i| i), "P={p} root={root}");
                // Each non-root rank hears in exactly one round; the root never does.
                for r in 0..p {
                    let heard = (0..t.rounds())
                        .filter(|&k| t.bcast_recv_from(r, k).is_some())
                        .count();
                    assert_eq!(heard, usize::from(r != root), "P={p} root={root} rank {r}");
                }
            }
        }
    }
}
