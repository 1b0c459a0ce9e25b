//! Collective operations built on top of the unified exchange engine.
//!
//! The CHAOS runtime needs only a handful of collectives: all-to-all (schedule and
//! translation-table construction), all-gather (replicated translation tables,
//! partitioner coordination), reductions (load statistics, convergence checks) and
//! broadcast.  Each collective builds [`crate::exchange::ExchangePlan`]s and runs them through
//! the exchange engine; their cost is whatever the constituent messages cost under the
//! machine's [`crate::cost::CostModel`], plus one synchronisation charge for the
//! reductions that are semantically barriers.
//!
//! ## Log-depth rounds
//!
//! The gathers (`all_gather`, `all_gather_one`) run on the
//! [`crate::topology::Dissemination`] schedule, the scalar `all_reduce*` family on a
//! combining butterfly (recursive doubling with the non-power-of-two remainder folded
//! in and out of the power-of-two core), and `broadcast` on a
//! [`crate::topology::BinomialTree`]: `ceil(log2 P)` rounds, each round one small
//! epoch-tagged engine execution moving one message each way per rank (a sparse
//! one-peer plan; empty rounds skip their message outright).  Per rank that is
//! `O(log P)` messages instead of the `P - 1` of a flat fan, and for the scalar
//! reductions each round carries `O(1)` payload, which is what lets the machine scale
//! to P = 1024.  Every rank executes the same number of rounds in the same order, so
//! the engine's collective start-order invariant holds round by round, and all buffers
//! ride the engine's buffer pool — steady-state collective loops stay allocation-free on
//! the message path.
//!
//! **Determinism.** Gathers deliver contributions indexed by source, so any fold over
//! them is rank order, exactly like a flat implementation.  The butterfly reductions
//! combine along a *fixed* tree bracketing (the lower block of each pair is always the
//! left operand), so every rank computes the identical expression and results are
//! byte-identical machine-wide for any combiner — including non-associative
//! floating-point sums, which may differ from a flat rank-order fold only in the last
//! ulps, and never across ranks.  That machine-wide replication is the property
//! `chaos::adapt`'s replicated controllers depend on, pinned by the equivalence suite
//! at power-of-two and non-power-of-two machine sizes.

use crate::exchange::{exchange_round, ExchangePlan, PackBuf, Placed, RecvSpec};
use crate::machine::Rank;
use crate::message::Element;
use crate::topology::{BinomialTree, Dissemination};

/// The lowest tag of the collectives and the exchange engine.
pub(crate) const RESERVED_TAG_BASE: u64 = 1 << 60;

/// A one-peer-each-way round plan: at most one send and one receive, every other pair
/// silent (`None`, so no message — not even an empty one — is exchanged with them).
fn round_plan(
    me: usize,
    n: usize,
    send: Option<(usize, usize)>,
    recv: Option<(usize, RecvSpec)>,
) -> ExchangePlan {
    let mut sends: Vec<Option<usize>> = vec![None; n];
    let mut recvs = vec![RecvSpec::None; n];
    if let Some((to, count)) = send {
        sends[to] = Some(count);
    }
    if let Some((from, spec)) = recv {
        recvs[from] = spec;
    }
    ExchangePlan::from_parts(me, sends, recvs)
}

impl Rank {
    /// Dissemination all-gather of exactly one element per rank: the shared core of
    /// [`Rank::all_gather_one`] and every reduction.  Returns the contributions indexed
    /// by source rank after `ceil(log2 P)` rounds, each round shipping this rank's
    /// oldest `min(2^k, P - 2^k)` blocks one hop down the ring.  Sizes are known on
    /// both sides (one element per block), so every receive is `Exact`.
    fn dissemination_gather_one<T: Element>(&mut self, value: T) -> Vec<T> {
        let me = self.rank();
        let n = self.nprocs();
        let mut vals: Vec<Option<T>> = vec![None; n];
        vals[me] = Some(value);
        let sched = Dissemination::new(n);
        // One receive buffer reused across rounds: the placement closure may not touch
        // `vals` while the pack closure reads it, so incoming blocks land here first.
        let mut incoming: Vec<T> = Vec::new();
        for k in 0..sched.rounds() {
            let m = sched.blocks_in_round(k);
            let to = sched.send_peer(me, k);
            let from = sched.recv_peer(me, k);
            let plan = round_plan(me, n, Some((to, m)), Some((from, RecvSpec::Exact(m))));
            incoming.clear();
            exchange_round(
                self,
                &plan,
                |_p, buf: &mut PackBuf<'_, T>| {
                    for b in sched.send_blocks(me, k) {
                        buf.push(vals[b].expect("dissemination invariant: block held"));
                    }
                },
                |_src, v: Placed<'_, T>| incoming.extend_from_slice(&v),
            );
            for (i, b) in sched.recv_blocks(me, k).enumerate() {
                vals[b] = Some(incoming[i]);
            }
        }
        vals.into_iter()
            .map(|v| v.expect("dissemination gather incomplete"))
            .collect()
    }

    /// Every rank contributes a slice; every rank receives all contributions, indexed by
    /// contributing rank.
    ///
    /// Two dissemination phases of `ceil(log2 P)` rounds each: a count phase (one
    /// element per rank, after which every rank knows every contribution length) and a
    /// data phase whose rounds ship concatenated blocks with exactly known sizes —
    /// rounds with nothing to move send no message at all.  `O(log P)` messages per
    /// rank; block contents and ordering are identical to a flat gather.
    pub fn all_gather<T: Element>(&mut self, local: &[T]) -> Vec<Vec<T>> {
        self.ledger_record::<T>("all_gather");
        let me = self.rank();
        let n = self.nprocs();
        if n == 1 {
            return vec![local.to_vec()];
        }
        let counts: Vec<u64> = self.dissemination_gather_one(local.len() as u64);
        let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        out[me].extend_from_slice(local);
        let sched = Dissemination::new(n);
        let mut incoming: Vec<T> = Vec::new();
        for k in 0..sched.rounds() {
            let send_total: usize = sched.send_blocks(me, k).map(|b| counts[b] as usize).sum();
            let recv_total: usize = sched.recv_blocks(me, k).map(|b| counts[b] as usize).sum();
            let send = (send_total > 0).then_some((sched.send_peer(me, k), send_total));
            let recv =
                (recv_total > 0).then_some((sched.recv_peer(me, k), RecvSpec::Exact(recv_total)));
            let plan = round_plan(me, n, send, recv);
            incoming.clear();
            exchange_round(
                self,
                &plan,
                |_p, buf: &mut PackBuf<'_, T>| {
                    for b in sched.send_blocks(me, k) {
                        buf.extend_from_slice(&out[b]);
                    }
                },
                |_src, v: Placed<'_, T>| incoming.extend_from_slice(&v),
            );
            let mut off = 0;
            for b in sched.recv_blocks(me, k) {
                let c = counts[b] as usize;
                out[b].extend_from_slice(&incoming[off..off + c]);
                off += c;
            }
        }
        out
    }

    /// Every rank contributes a single value; every rank receives the vector of all
    /// contributions indexed by rank.  Single-phase dissemination (block sizes are known
    /// a priori): `ceil(log2 P)` messages per rank — the hot path of the adaptive
    /// load monitor.
    pub fn all_gather_one<T: Element>(&mut self, value: T) -> Vec<T> {
        self.ledger_record::<T>("all_gather_one");
        self.dissemination_gather_one(value)
    }

    /// Personalised all-to-all: `sends[p]` is delivered to rank `p`; the return value's
    /// entry `q` is what rank `q` sent to this rank.
    ///
    /// # Panics
    /// Panics if `sends.len() != nprocs`.
    pub fn all_to_all<T: Element>(&mut self, sends: &[Vec<T>]) -> Vec<Vec<T>> {
        self.ledger_record::<T>("all_to_all");
        let me = self.rank();
        let n = self.nprocs();
        assert_eq!(
            sends.len(),
            n,
            "all_to_all needs exactly one send buffer per rank"
        );
        let plan = ExchangePlan::dense(me, sends.iter().map(Vec::len).collect());
        let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        exchange_round(
            self,
            &plan,
            |p, buf| buf.extend_from_slice(&sends[p]),
            |src, v| out[src] = v.into_vec(),
        );
        out
    }

    /// All-reduce with an arbitrary combiner.  Every rank receives the same reduction of
    /// all contributions.
    ///
    /// Runs as a *combining butterfly* (recursive doubling) over the largest power-of-two
    /// core `m <= P`: the `P - m` extra ranks first fold their value into rank `r - m`,
    /// then the core runs `log2 m` exchange rounds in which rank `r` swaps partial
    /// results with `r ^ 2^k` and both ends combine, and finally the finished result fans
    /// back out to the extras.  Every round moves exactly one `T` each way, so the
    /// payload is `O(1)` per round and no rank sends more than `ceil(log2 P)` messages —
    /// unlike a gather-then-fold, whose later rounds carry `Theta(P)` elements.
    ///
    /// **Determinism.** Both partners bracket identically — the lower block of each pair
    /// is always the left operand of `combine` — so every rank applies the *same* fixed
    /// reduction tree and the result is byte-identical machine-wide for any combiner,
    /// including non-associative floating-point addition.  For combiners that are exact
    /// on the inputs (max, min, integer sums, integer-valued float sums) the result is
    /// also identical to a flat rank-order fold; an inexact float sum may differ from the
    /// flat fold in the last ulps (but never across ranks), which the replicated
    /// controllers in `chaos::adapt` tolerate by construction.
    ///
    /// Idle roles (extras during the butterfly, core ranks without an extra during the
    /// fold rounds) run empty plans, so every rank executes the same number of engine
    /// epochs and the collective start-order invariant holds round by round.
    pub fn all_reduce<T, F>(&mut self, value: T, combine: F) -> T
    where
        T: Element,
        F: Fn(T, T) -> T,
    {
        self.ledger_record::<T>("all_reduce");
        self.charge_collective();
        let me = self.rank();
        let n = self.nprocs();
        if n == 1 {
            return value;
        }
        // Largest power of two <= n: the butterfly core.
        let core = 1usize << (usize::BITS - 1 - n.leading_zeros());
        let mut acc = value;
        // One receive slot reused across rounds; every receive is exactly one element.
        let mut incoming: Vec<T> = Vec::with_capacity(1);
        let round = |rank: &mut Self,
                     acc: &T,
                     incoming: &mut Vec<T>,
                     send: Option<usize>,
                     recv: Option<usize>| {
            let plan = round_plan(
                me,
                n,
                send.map(|to| (to, 1)),
                recv.map(|from| (from, RecvSpec::Exact(1))),
            );
            incoming.clear();
            let payload = *acc;
            exchange_round(
                rank,
                &plan,
                |_p, buf: &mut PackBuf<'_, T>| buf.push(payload),
                |_src, v: Placed<'_, T>| incoming.extend_from_slice(&v),
            );
        };
        // Pre-fold: extras ship their contribution into the core (skipped at powers of
        // two, where `core == n`).
        if core < n {
            let (send, recv) = if me >= core {
                (Some(me - core), None)
            } else if me + core < n {
                (None, Some(me + core))
            } else {
                (None, None)
            };
            round(self, &acc, &mut incoming, send, recv);
            if let Some(&theirs) = incoming.first() {
                acc = combine(acc, theirs);
            }
        }
        // Combining butterfly over the core; extras idle through empty rounds.
        for k in 0..core.trailing_zeros() {
            let d = 1usize << k;
            let partner = (me < core).then_some(me ^ d);
            round(self, &acc, &mut incoming, partner, partner);
            if me < core {
                let theirs = incoming[0];
                // Lower block on the left on both ends: identical bracketing everywhere.
                acc = if me & d == 0 {
                    combine(acc, theirs)
                } else {
                    combine(theirs, acc)
                };
            }
        }
        // Post-fold: fan the finished result back out to the extras.
        if core < n {
            let (send, recv) = if me + core < n {
                (Some(me + core), None)
            } else if me >= core {
                (None, Some(me - core))
            } else {
                (None, None)
            };
            round(self, &acc, &mut incoming, send, recv);
            if me >= core {
                acc = incoming[0];
            }
        }
        acc
    }

    /// Sum-reduction of a single `f64` across all ranks.
    pub fn all_reduce_sum(&mut self, value: f64) -> f64 {
        self.all_reduce(value, |a, b| a + b)
    }

    /// Max-reduction of a single `f64` across all ranks.
    pub fn all_reduce_max(&mut self, value: f64) -> f64 {
        self.all_reduce(value, f64::max)
    }

    /// Min-reduction of a single `f64` across all ranks.
    pub fn all_reduce_min(&mut self, value: f64) -> f64 {
        self.all_reduce(value, f64::min)
    }

    /// Sum-reduction of a `usize` across all ranks.
    pub fn all_reduce_sum_usize(&mut self, value: usize) -> usize {
        self.all_reduce(value, |a, b| a + b)
    }

    /// Element-wise sum-reduction of equal-length vectors across all ranks.
    pub fn all_reduce_sum_vec(&mut self, values: &[f64]) -> Vec<f64> {
        let gathered = self.all_gather(values);
        let mut acc = vec![0.0; values.len()];
        for contribution in gathered {
            assert_eq!(
                contribution.len(),
                acc.len(),
                "all_reduce_sum_vec requires equal-length contributions"
            );
            for (a, v) in acc.iter_mut().zip(contribution) {
                *a += v;
            }
        }
        acc
    }

    /// Broadcast `values` from `root` to every rank; returns the broadcast values.
    ///
    /// Runs on a [`BinomialTree`] rooted at `root`: in round `k` every rank that already
    /// holds the data forwards it one subtree over, doubling the informed set, so the
    /// root sends `ceil(log2 P)` messages instead of `P - 1` and every other rank
    /// receives once and forwards at most `ceil(log2 P) - 1` times.
    pub fn broadcast<T: Element>(&mut self, root: usize, values: &[T]) -> Vec<T> {
        self.ledger_record::<T>("broadcast");
        let me = self.rank();
        let n = self.nprocs();
        let tree = BinomialTree::new(n, root);
        let mut out = if me == root {
            values.to_vec()
        } else {
            Vec::new()
        };
        for k in 0..tree.rounds() {
            if let Some(src) = tree.bcast_recv_from(me, k) {
                let plan = round_plan(me, n, None, Some((src, RecvSpec::Any)));
                exchange_round(
                    self,
                    &plan,
                    |_p, _buf: &mut PackBuf<'_, T>| {},
                    |_src, v: Placed<'_, T>| out = v.into_vec(),
                );
            } else {
                let send = tree.bcast_send_to(me, k).map(|child| (child, out.len()));
                let plan = round_plan(me, n, send, None);
                exchange_round(
                    self,
                    &plan,
                    |_p, buf: &mut PackBuf<'_, T>| buf.extend_from_slice(&out),
                    |_s, _v: Placed<'_, T>| {},
                );
            }
        }
        out
    }

    /// Gather each rank's slice at `root`.  Non-root ranks receive an empty vector.
    pub fn gather_to_root<T: Element>(&mut self, root: usize, local: &[T]) -> Vec<Vec<T>> {
        self.ledger_record::<T>("gather_to_root");
        let me = self.rank();
        let n = self.nprocs();
        let mut send_specs: Vec<Option<usize>> = vec![None; n];
        let mut recvs = vec![RecvSpec::None; n];
        if me == root {
            for (p, r) in recvs.iter_mut().enumerate() {
                if p != me {
                    *r = RecvSpec::Any;
                }
            }
        } else {
            send_specs[root] = Some(local.len());
        }
        let plan = ExchangePlan::from_parts(me, send_specs, recvs);
        let mut out: Vec<Vec<T>> = if me == root {
            let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
            out[me] = local.to_vec();
            out
        } else {
            Vec::new()
        };
        exchange_round(
            self,
            &plan,
            |_p, buf| buf.extend_from_slice(local),
            |src, v| out[src] = v.into_vec(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::topology::{tree_rounds, MachineConfig};
    use crate::{run, CostModel};

    #[test]
    fn all_gather_collects_every_contribution() {
        let out = run(MachineConfig::new(4), |rank| {
            let mine = vec![rank.rank() as u32; rank.rank() + 1];
            rank.all_gather(&mine)
        });
        for per_rank in &out.results {
            for (p, v) in per_rank.iter().enumerate() {
                assert_eq!(v.len(), p + 1);
                assert!(v.iter().all(|&x| x == p as u32));
            }
        }
    }

    #[test]
    fn all_to_all_transposes() {
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            let sends: Vec<Vec<u64>> = (0..3).map(|p| vec![(me * 10 + p) as u64]).collect();
            rank.all_to_all(&sends)
        });
        for (me, recvd) in out.results.iter().enumerate() {
            for (p, v) in recvd.iter().enumerate() {
                assert_eq!(v, &vec![(p * 10 + me) as u64]);
            }
        }
    }

    #[test]
    fn reductions_agree_on_every_rank() {
        let out = run(MachineConfig::new(6), |rank| {
            let x = (rank.rank() + 1) as f64;
            (
                rank.all_reduce_sum(x),
                rank.all_reduce_max(x),
                rank.all_reduce_min(x),
                rank.all_reduce_sum_usize(rank.rank()),
            )
        });
        for (sum, max, min, usum) in &out.results {
            assert_eq!(*sum, 21.0);
            assert_eq!(*max, 6.0);
            assert_eq!(*min, 1.0);
            assert_eq!(*usum, 15);
        }
    }

    #[test]
    fn vector_reduction_sums_elementwise() {
        let out = run(MachineConfig::new(4), |rank| {
            let v = vec![rank.rank() as f64, 1.0];
            rank.all_reduce_sum_vec(&v)
        });
        for r in &out.results {
            assert_eq!(r, &vec![6.0, 4.0]);
        }
    }

    #[test]
    fn broadcast_reaches_all_ranks() {
        let out = run(MachineConfig::new(5), |rank| {
            rank.broadcast(2, &[7u64, 8u64])
        });
        for r in &out.results {
            assert_eq!(r, &vec![7u64, 8u64]);
        }
    }

    #[test]
    fn gather_to_root_only_fills_root() {
        let out = run(MachineConfig::new(4), |rank| {
            rank.gather_to_root(1, &[rank.rank() as u32])
        });
        assert!(out.results[0].is_empty());
        assert_eq!(out.results[1].len(), 4);
        for (p, v) in out.results[1].iter().enumerate() {
            assert_eq!(v, &vec![p as u32]);
        }
    }

    #[test]
    fn deterministic_reduction_order() {
        // The butterfly bracketing is fixed, so repeated runs give bit-identical results.
        let a = run(MachineConfig::new(7), |rank| {
            rank.all_reduce_sum(0.1 * (rank.rank() as f64 + 1.0))
        });
        let b = run(MachineConfig::new(7), |rank| {
            rank.all_reduce_sum(0.1 * (rank.rank() as f64 + 1.0))
        });
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn collectives_work_at_awkward_machine_sizes() {
        for p in [1usize, 3, 5, 12] {
            let out = run(MachineConfig::new(p), |rank| {
                let gathered = rank.all_gather(&vec![rank.rank() as u32; rank.rank() % 3]);
                let one = rank.all_gather_one(rank.rank() as u64);
                let sum = rank.all_reduce_sum((rank.rank() + 1) as f64);
                let bcast = rank.broadcast(rank.nprocs() - 1, &[42u16, 43u16]);
                (gathered, one, sum, bcast)
            });
            let expect_sum: f64 = (1..=p).map(|r| r as f64).sum();
            for (gathered, one, sum, bcast) in &out.results {
                for (q, v) in gathered.iter().enumerate() {
                    assert_eq!(v, &vec![q as u32; q % 3], "P={p}");
                }
                assert_eq!(one, &(0..p as u64).collect::<Vec<_>>(), "P={p}");
                assert_eq!(*sum, expect_sum, "P={p}");
                assert_eq!(bcast, &vec![42u16, 43u16], "P={p}");
            }
        }
    }

    #[test]
    fn log_depth_message_counts() {
        // The satellite pin: reductions and single-element gathers stay within
        // ceil(log2 P) messages per rank — the log-depth model, not the flat P - 1.
        // Gathers send exactly that on every rank; the butterfly reduction is
        // asymmetric off powers of two (extras send once, their core partners send
        // ceil(log2 P)), so the bound is a per-rank ceiling reached by the busiest rank.
        for p in [2usize, 3, 5, 8, 16] {
            let out = run(MachineConfig::new(p), |rank| {
                let s0 = rank.stats().msgs_sent;
                rank.all_reduce_sum(1.0);
                let s1 = rank.stats().msgs_sent;
                rank.all_gather_one(rank.rank() as u64);
                let s2 = rank.stats().msgs_sent;
                (s1 - s0, s2 - s1)
            });
            let bound = tree_rounds(p) as u64;
            let busiest = out.results.iter().map(|(r, _)| *r).max().unwrap();
            assert_eq!(busiest, bound, "P={p}");
            for (reduce_msgs, gather_msgs) in &out.results {
                assert!(*reduce_msgs <= bound, "P={p}: {reduce_msgs} > {bound}");
                assert_eq!(*gather_msgs, bound, "P={p}");
            }
        }
    }

    #[test]
    fn collective_cost_follows_log_depth_model() {
        // uniform(latency=10, per_byte=0, compute=0): each message costs exactly 10us
        // on each end.  all_gather_one at P=5 runs 3 dissemination rounds — one send
        // and one receive per rank per round — so modeled comm is exactly 60us.
        let cfg = MachineConfig::new(5).with_cost(CostModel::uniform(10.0, 0.0, 0.0));
        let out = run(cfg, |rank| {
            let t0 = rank.modeled();
            rank.all_gather_one(1u64);
            rank.modeled().since(&t0).comm_us
        });
        for c in &out.results {
            assert_eq!(*c, 60.0);
        }
    }
}
