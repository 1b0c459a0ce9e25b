//! The unified all-to-allv exchange engine.
//!
//! Every data-movement pattern in the CHAOS runtime — schedule-driven gather/scatter,
//! light-weight append, remapping, translation-table dereference, and the dense
//! collectives built on top of point-to-point messages — is some flavour of a
//! *personalised all-to-all*: each rank packs a (possibly empty) buffer per peer, ships
//! only the non-empty ones, and places whatever arrives according to plan-specific rules.
//! Historically each call site hand-rolled its own pack → send → recv → unpack loop; this
//! module is the single implementation they all share.
//!
//! The engine separates the *plan* from the *transfer*:
//!
//! * [`ExchangePlan`] — who this rank sends to (and how many elements each peer gets) and
//!   who it will hear from (and, when known, how many elements each message carries).
//!   Plans are cheap, reusable values; schedule types build them once and execute them
//!   many times.
//! * [`alltoallv_with`] — executes a plan: the caller packs each destination's elements
//!   *directly into the outgoing message buffer* through a [`PackBuf`], the engine sends
//!   only the messages the plan calls for, receives from any source, and hands each
//!   incoming payload to a caller-supplied placement closure as a borrowed [`Placed`]
//!   view over the pooled buffer it arrived in.  The local (self → self) portion is
//!   delivered through the same placement path without touching the network or the
//!   communication cost model.  A caller holding pre-built per-destination buffers packs
//!   them with `buf.extend_from_slice(&sends[p])`.
//! * [`start_alltoallv_with`] / [`ExchangeHandle::finish`] — the same execution split in
//!   two (see *Split-phase execution* below).
//!
//! These are the engine's only two entry points: the blocking one is a start
//! immediately followed by a finish.
//!
//! ## One wire and one buffer pool
//!
//! The wire ships the typed buffer a message was packed into, handed to the receiving
//! rank by pointer move through its mailbox's channel (see
//! [`crate::message::TypedPayload`]).  Nothing is encoded.
//!
//! Outgoing messages are packed into `Vec<T>` buffers drawn from the sending rank's
//! per-type buffer pool ([`Rank::pool_stats`]).  The receiving rank places each payload
//! through a borrowed [`Placed`] view of that same buffer and then recycles it into *its*
//! pool.  A closure that only reads the values (the executor's gather/scatter
//! permutation placement, remapping, count negotiations) leaves the buffer to the pool;
//! the few callers that genuinely keep the payload (the executor's append, the dense
//! collectives that hand buffers to the application) take ownership with
//! [`Placed::into_vec`], which removes that one buffer from circulation.  Empty messages
//! carry no buffer at all.
//!
//! A steady-state exchange loop therefore reaches a fixed point after one warm-up
//! iteration: each iteration's receives replenish exactly the buffers its sends draw,
//! and the pool's allocation counter stops moving.  The `chaos-bench exchange` harness in
//! `crates/bench` reports the counters and the pool smoke tests assert the
//! zero-allocation steady state.
//!
//! Communication cost is charged in exactly one place — the engine's sends and receives —
//! and a per-element pack/unpack compute cost is charged uniformly here rather than ad hoc
//! at every call site.  Each execution returns an [`ExchangeStats`] with the message and
//! byte counts it generated, so callers (and regression tests) can assert that no empty
//! messages are sent and nothing is transferred twice.
//!
//! ## Matching without per-peer tags
//!
//! Receiving from any source means messages from different *exchanges* must never be
//! confused, even though ranks run ahead of one another (a rank with nothing to do in
//! exchange *k* may already be sending for exchange *k+1*).  The engine therefore tags
//! every message with a per-rank exchange sequence number — the exchange's **epoch**.
//! Exchanges are **collective**: every rank of the machine must *start* the same sequence
//! of engine executions, which makes the epoch a machine-wide identifier for one exchange
//! episode.
//!
//! ## Split-phase execution
//!
//! The blocking engine is a start immediately followed by a finish, and the split-phase
//! API exposes the two halves: [`start_alltoallv_with`] posts the plan's sends
//! immediately (and stages the local portion) and returns an [`ExchangeHandle`];
//! [`ExchangeHandle::finish`] drains the receives and runs the placement closure.
//! Between the two calls the caller is free to compute — the natural overlap of a
//! time-stepped executor (post the ghost exchange, run the force loop that needs no
//! ghosts, then finish) — and may even start *and complete* further exchanges: epoch tagging keeps any number of in-flight exchanges
//! from crossing, because each episode's messages carry its own epoch and receives match
//! on it selectively.  What stays collective is the **start order**: every rank must
//! start the same exchanges in the same order (finishes may interleave freely).  A
//! handle dropped without `finish` panics — its receives would otherwise sit in the
//! mailbox forever and surface as confusing stalls several exchanges later.
//!
//! ## Fused multi-array exchanges
//!
//! When several same-length arrays travel through the *same* plan in the same direction
//! (CHARMM gathers `x`, `y`, `z` through one schedule every step), executing the plan
//! once per array multiplies message count and latency by the array count.
//! [`ExchangePlan::fused`] scales a plan's element counts by a lane count; executing the
//! scaled plan with each lane packed as one contiguous block (`x0 x1 … y0 y1 … z0 z1 …`)
//! moves N arrays in **one** message per processor pair — same bytes, 1/N of the
//! messages.  Blocked lanes keep both pack and place a straight per-lane sweep instead of
//! a strided element-wise shuffle.  The executor's transfer kernel in `chaos` builds the
//! fused plan and packs and places the lane blocks.

use crate::ledger::Stamp;
use crate::machine::{recycle_buffer, FreeList, Rank};
use crate::message::{Buffer, Element};

/// Modeled compute cost (work units per element) of packing an element into an outgoing
/// message buffer or placing a received element — the `0.02` the executor primitives
/// historically charged.
pub const PACK_UNPACK_COST_UNITS: f64 = 0.02;

/// Base of the exchange-engine tag window: `tag = EXCHANGE_TAG_BASE + epoch`.  The single
/// source of truth shared by [`Rank::next_exchange_tag`] and [`epoch_of_tag`], so the
/// epoch numbers in mismatch diagnostics can never drift from the tags on the wire.
pub(crate) const EXCHANGE_TAG_BASE: u64 = crate::collectives::RESERVED_TAG_BASE + (1 << 20);

/// What one exchange expects to receive from one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvSpec {
    /// No message will arrive from this peer.
    None,
    /// A message will arrive; its size is not known in advance (dense exchanges and
    /// rooted collectives where only the sender knows the length).
    Any,
    /// A message of exactly this many elements will arrive (schedule-driven exchanges,
    /// where both endpoints of every transfer are precomputed).
    Exact(usize),
}

/// A reusable description of one personalised all-to-all transfer from this rank's
/// point of view: per-destination send sizes and per-source receive expectations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangePlan {
    my_rank: usize,
    /// `sends[p]`: `Some(n)` means "send a message of exactly `n` elements to `p`"
    /// (`n == 0` is a real, empty message — dense collectives rely on it); `None` means
    /// no message.  `sends[my_rank]` describes the local portion, delivered through the
    /// placement closure without any communication.
    sends: Vec<Option<usize>>,
    /// `recvs[p]`: what to expect from source `p`.  `recvs[my_rank]` is ignored.
    recvs: Vec<RecvSpec>,
}

impl ExchangePlan {
    /// A plan from explicit per-peer send messages and receive expectations.  This is the
    /// fully general constructor used by rooted collectives; most callers want
    /// [`ExchangePlan::sparse`] or [`ExchangePlan::dense`].
    pub fn from_parts(my_rank: usize, sends: Vec<Option<usize>>, recvs: Vec<RecvSpec>) -> Self {
        assert_eq!(
            sends.len(),
            recvs.len(),
            "send and receive sides of a plan must span the same machine"
        );
        assert!(my_rank < sends.len(), "plan owner outside the machine");
        ExchangePlan {
            my_rank,
            sends,
            recvs,
        }
    }

    /// A sparse plan: only non-empty transfers become messages.  `send_counts[p]` elements
    /// go to `p` (zero → no message), `recv_counts[p]` elements are expected from `p`
    /// (zero → no message).  The self entry of `send_counts` is delivered locally.
    pub fn sparse(my_rank: usize, send_counts: Vec<usize>, recv_counts: Vec<usize>) -> Self {
        assert_eq!(send_counts.len(), recv_counts.len());
        let recvs = recv_counts
            .iter()
            .enumerate()
            .map(|(p, &c)| {
                if p == my_rank || c == 0 {
                    RecvSpec::None
                } else {
                    RecvSpec::Exact(c)
                }
            })
            .collect();
        let sends = send_counts
            .into_iter()
            .map(|c| if c == 0 { None } else { Some(c) })
            .collect();
        Self::from_parts(my_rank, sends, recvs)
    }

    /// A dense plan: every peer gets a message (empty ones included) and a message of
    /// unknown size is expected from every peer.  This is the message pattern of the
    /// classic `all_to_all` / `all_gather` collectives, where no prior size agreement
    /// exists between ranks.
    pub fn dense(my_rank: usize, send_counts: Vec<usize>) -> Self {
        let n = send_counts.len();
        let recvs = (0..n)
            .map(|p| {
                if p == my_rank {
                    RecvSpec::None
                } else {
                    RecvSpec::Any
                }
            })
            .collect();
        let sends = send_counts.into_iter().map(Some).collect();
        Self::from_parts(my_rank, sends, recvs)
    }

    /// Build a sparse plan when only the send side is known: a *sparse-neighborhood*
    /// count negotiation tells every rank what it will receive, exactly the
    /// size-negotiation round the light-weight schedule of §3.2.1 is built from.
    /// Collective.
    ///
    /// The negotiation is Bruck-style store-and-forward routing over the log-depth ring:
    /// each nonzero `(destination, source, count)` triple starts at its source and, in
    /// round `k`, hops `2^k` ranks forward whenever bit `k` of its remaining offset is
    /// set — so after `ceil(log2 P)` rounds every triple sits at its destination.  Every
    /// rank sends exactly one (possibly empty) message per round: `ceil(log2 P)`
    /// messages per rank regardless of fan-out, and *zero-count pairs never enter the
    /// stream at all*.  A 26-neighbor halo at P = 1024 costs 10 routing messages per
    /// rank, not 1023 count messages — and the dense O(P) count exchange is gone.
    ///
    /// Takes the send counts by value — they become the plan's send side without a copy.
    /// The resulting plan is identical to one negotiated by a dense count exchange.
    pub fn negotiate(rank: &mut Rank, send_counts: Vec<usize>) -> Self {
        let n = rank.nprocs();
        let me = rank.rank();
        assert_eq!(send_counts.len(), n, "one send count per rank required");
        // Self-sends never need negotiating (the plan's receive side ignores them).
        let held = send_counts
            .iter()
            .enumerate()
            .filter(|&(p, &c)| p != me && c > 0)
            .map(|(p, &c)| (p as u32, me as u32, c as u64))
            .collect();
        let mut recv_counts = vec![0usize; n];
        rank.ledger_record::<u64>("negotiate");
        for (_, src, count) in route_ring(rank, held) {
            recv_counts[src as usize] = count as usize;
        }
        ExchangePlan::sparse(me, send_counts, recv_counts)
    }

    /// Number of ranks the plan spans.
    pub fn nprocs(&self) -> usize {
        self.sends.len()
    }

    /// The rank this plan belongs to.
    pub fn my_rank(&self) -> usize {
        self.my_rank
    }

    /// Number of messages executing this plan will put on the network (local delivery is
    /// not a message).
    pub fn send_message_count(&self) -> usize {
        self.sends
            .iter()
            .enumerate()
            .filter(|&(p, s)| p != self.my_rank && s.is_some())
            .count()
    }

    /// Number of messages this rank will wait for when executing the plan.
    pub fn recv_message_count(&self) -> usize {
        self.recvs
            .iter()
            .enumerate()
            .filter(|&(p, r)| p != self.my_rank && *r != RecvSpec::None)
            .count()
    }

    /// Per-source expected element counts (zero where no message or size unknown).
    pub fn recv_counts(&self) -> Vec<usize> {
        let count = |r: &RecvSpec| if let RecvSpec::Exact(n) = *r { n } else { 0 };
        self.recvs.iter().map(count).collect()
    }

    /// The fused version of this plan: every element count (send and exact-receive)
    /// multiplied by `lanes`.  This is the plan of a multi-array exchange that moves
    /// `lanes` same-schedule arrays as per-lane blocks through one message per pair — the
    /// message *pattern* (who talks to whom) is unchanged, only the payload sizes scale.
    /// Takes the plan by value and scales it in place, so the one-lane case costs nothing.
    pub fn fused(mut self, lanes: usize) -> ExchangePlan {
        assert!(lanes > 0, "a fused plan needs at least one lane");
        for n in self.sends.iter_mut().flatten() {
            *n *= lanes;
        }
        for r in &mut self.recvs {
            if let RecvSpec::Exact(n) = r {
                *n *= lanes;
            }
        }
        self
    }
}

/// Route sparse per-destination records to their destinations through the same log-depth
/// Bruck ring as [`ExchangePlan::negotiate`] — but carrying the *records themselves*
/// instead of counts, so negotiation and delivery fuse into a single store-and-forward
/// phase of exactly `ceil(log2 P)` messages per rank.
///
/// This is the delta-communication primitive: when the payload is a handful of edit
/// records, a negotiate-then-sparse-send pair costs `log2 P` routing messages *plus* one
/// direct message per active peer, while this routes everything in the `log2 P` messages
/// alone.  Records pay store-and-forward inflation (each travels up to `log2 P` hops),
/// which is the right trade precisely when they are few and small.
///
/// Returns one `Vec<T>` per source rank.  Records from the same source arrive in the
/// order that source sent them (all records of one source/destination pair make identical
/// hop decisions, and every round preserves stream order), so the result is
/// deterministic.  The self entry of `sends` is delivered locally without touching the
/// network.  Collective — every rank sends one (possibly empty) message per round.
///
/// # Panics
/// Panics if `sends.len()` differs from the machine size.
pub fn route_sparse<T: Element>(rank: &mut Rank, sends: &[Vec<T>]) -> Vec<Vec<T>> {
    let n = rank.nprocs();
    let me = rank.rank();
    assert_eq!(sends.len(), n, "one record list per rank required");
    let mut held: Vec<(u32, u32, T)> = Vec::new();
    for (p, records) in sends.iter().enumerate() {
        if p != me {
            held.extend(records.iter().map(|&r| (p as u32, me as u32, r)));
        }
    }
    let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    out[me].extend_from_slice(&sends[me]);
    rank.ledger_record::<T>("route_sparse");
    for (_, src, record) in route_ring(rank, held) {
        out[src as usize].push(record);
    }
    out
}

/// The log-depth Bruck ring both [`ExchangePlan::negotiate`] and [`route_sparse`] run:
/// every `(destination, source, record)` triple in `held` starts at this rank and, in
/// round `k`, hops `2^k` ranks forward whenever bit `k` of its remaining offset is set —
/// so after `ceil(log2 P)` rounds every triple sits at its destination.  Every rank sends
/// exactly one (possibly empty) message per round, and every round preserves stream
/// order.  Returns the triples addressed to this rank.  Collective; the caller records
/// the operation in the ledger.
fn route_ring<T: Element>(rank: &mut Rank, mut held: Vec<(u32, u32, T)>) -> Vec<(u32, u32, T)> {
    let n = rank.nprocs();
    let me = rank.rank();
    assert!(
        n <= u32::MAX as usize,
        "rank ids must fit the routing header"
    );
    let mut fwd: Vec<(u32, u32, T)> = Vec::new();
    let mut incoming: Vec<(u32, u32, T)> = Vec::new();
    for k in 0..crate::topology::tree_rounds(n) {
        let d = 1usize << k;
        let to = (me + d) % n;
        let from = (me + n - d) % n;
        // Split the held stream: triples whose remaining offset has bit k set hop forward
        // this round; the rest stay.  A triple received this round has bits 0..=k of its
        // offset clear, so it can never need this round's hop — merging after the split
        // is safe.
        fwd.clear();
        held.retain(|&triple| {
            let offset = (triple.0 as usize + n - me) % n;
            if offset & d != 0 {
                fwd.push(triple);
                false
            } else {
                true
            }
        });
        let mut sends: Vec<Option<usize>> = vec![None; n];
        sends[to] = Some(fwd.len());
        let mut recvs = vec![RecvSpec::None; n];
        recvs[from] = RecvSpec::Any;
        let plan = ExchangePlan::from_parts(me, sends, recvs);
        incoming.clear();
        exchange_round(
            rank,
            &plan,
            |_p, buf: &mut PackBuf<'_, (u32, u32, T)>| buf.extend_from_slice(&fwd),
            |_src, v: Placed<'_, (u32, u32, T)>| incoming.extend_from_slice(&v),
        );
        held.extend_from_slice(&incoming);
    }
    debug_assert!(
        held.iter().all(|triple| triple.0 as usize == me),
        "ring routing incomplete"
    );
    held
}

/// An outgoing message buffer handed to the pack closure of [`alltoallv_with`].
///
/// Elements pushed here land straight in the pooled `Vec<T>` the message will travel
/// in; there is no intermediate buffer.  The engine checks after the closure returns
/// that exactly the plan's declared element count was packed.
pub struct PackBuf<'a, T: Element> {
    values: &'a mut Vec<T>,
}

impl<T: Element> PackBuf<'_, T> {
    /// Append one element to the outgoing message.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.values.push(value);
    }

    /// Append a slice of elements to the outgoing message (one `memcpy`).
    #[inline]
    pub fn extend_from_slice(&mut self, values: &[T]) {
        self.values.extend_from_slice(values);
    }

    /// Number of elements packed so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been packed yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// One received message's values, handed to the placement closure of the engine.
///
/// The values live in the buffer the sender packed, which arrived by pointer move; when
/// the closure returns without taking ownership, the engine recycles the buffer into the
/// receiving rank's pool for its next send, so placement closures that only *read* the
/// values (the common case: permutation placement, combining, counting) cost no
/// allocation in steady state.  The view derefs to `&[T]`, so `&placed[i]`, iteration and
/// slice methods all work directly.
///
/// Callers that genuinely keep the payload — the executor's append, collectives that
/// return buffers to the application — call [`Placed::into_vec`], which is O(1): it
/// steals the buffer's contents (no copy), at the price of removing that buffer from the
/// pool's circulation (counted as a future pool allocation when the pool has to replace
/// it).
pub struct Placed<'a, T: Element> {
    values: &'a mut Vec<T>,
}

impl<T: Element> Placed<'_, T> {
    /// Take ownership of the received values without copying them.
    ///
    /// The backing buffer leaves the pool for good; use this only when the payload
    /// genuinely outlives the placement call.
    pub fn into_vec(self) -> Vec<T> {
        std::mem::take(self.values)
    }

    /// The received values as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[T] {
        self.values
    }
}

impl<T: Element> std::ops::Deref for Placed<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.values
    }
}

/// Message and byte counts generated by one engine execution on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Point-to-point messages sent (empty messages included, local delivery excluded).
    pub msgs_sent: u64,
    /// Point-to-point messages received.
    pub msgs_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

impl ExchangeStats {
    /// Combine the stats of two executions (e.g. the two rounds of a lookup protocol).
    pub fn merged(&self, other: &ExchangeStats) -> ExchangeStats {
        ExchangeStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            msgs_received: self.msgs_received + other.msgs_received,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
        }
    }
}

/// Execute `plan`, letting the caller pack each destination's elements directly into the
/// outgoing message buffer.  `pack(p, buf)` is called once per planned destination (self
/// included when the plan routes to it) and must push exactly the plan's declared element
/// count for `p`; `place(source, values)` is called once per incoming message (and for
/// the planned self portion).
///
/// This is the zero-intermediate-buffer form: combined with the buffer pool it is
/// what lets the executor's steady-state gather/scatter/append/remap loops run without
/// allocating any fresh send buffers.  A caller holding one pre-built buffer per
/// destination packs it with `buf.extend_from_slice(&sends[p])`.  Callers moving a
/// *large* kept portion (the executor's append, remapping) place it directly instead of
/// planning a self transfer.
///
/// Collective: every rank of the machine must call the engine in the same order (see the
/// module docs for why this is what makes any-source matching sound).  Buffers are
/// placed in arrival order; callers that need a deterministic placement order must key off
/// the source rank (every CHAOS schedule does).  The placement closure receives a
/// borrowed [`Placed`] view backed by a pooled buffer; call [`Placed::into_vec`] only when
/// the payload must outlive the call.
///
/// # Panics
/// Panics if the plan does not match the machine or the calling rank, if a packed
/// message's length differs from the plan's declared send count, if an incoming
/// message violates the plan's receive expectations, or if its sender's collective
/// history differs from this rank's ([`crate::ledger`]).
pub fn alltoallv_with<T: Element>(
    rank: &mut Rank,
    plan: &ExchangePlan,
    pack: impl FnMut(usize, &mut PackBuf<'_, T>),
    place: impl FnMut(usize, Placed<'_, T>),
) -> ExchangeStats {
    rank.ledger_record::<T>("exchange");
    exchange_round(rank, plan, pack, place)
}

/// One engine execution that records no ledger entry of its own: a round of a
/// collective, which recorded itself when it began.
pub(crate) fn exchange_round<T: Element>(
    rank: &mut Rank,
    plan: &ExchangePlan,
    pack: impl FnMut(usize, &mut PackBuf<'_, T>),
    place: impl FnMut(usize, Placed<'_, T>),
) -> ExchangeStats {
    let started = start_exchange(rank, plan, pack);
    finish_exchange(rank, plan, started, place)
}

/// A split-phase exchange in flight: sends are posted, receives not yet drained.
///
/// Produced by [`start_alltoallv_with`]; consumed by
/// [`ExchangeHandle::finish`].  The handle owns its plan and the staged local portion, so
/// nothing borrows the caller's arrays while the exchange is in flight — pack runs at
/// start, placement at finish, and the caller computes freely in between.
///
/// Dropping a handle without finishing it panics: the posted messages would sit
/// unconsumed in every peer's mailbox and surface as a confusing stall (or an
/// unexpected-message panic) several exchanges later.  `finish` is the only way out.
#[must_use = "a split-phase exchange must be finished (dropping the handle panics)"]
pub struct ExchangeHandle<T: Element> {
    plan: ExchangePlan,
    inflight: Option<InFlight<T>>,
}

/// What the start phase hands the finish phase.
struct InFlight<T: Element> {
    tag: u64,
    /// This rank's ledger stamp when the epoch started: every message of the epoch
    /// must carry the same digest, whatever this rank started since.
    stamp: Stamp,
    send_stats: ExchangeStats,
    /// The staged local portion, packed into a pooled buffer (`None` when the plan has
    /// no self transfer or it carries nothing).
    self_values: Option<Buffer<T>>,
}

impl<T: Element> ExchangeHandle<T> {
    /// The exchange epoch (per-rank engine sequence number) this exchange was started in.
    pub fn epoch(&self) -> u64 {
        epoch_of_tag(
            self.inflight
                .as_ref()
                .expect("exchange already finished")
                .tag,
        )
    }

    /// Message/byte counts of the send phase (the receive side is added by `finish`).
    pub fn send_stats(&self) -> ExchangeStats {
        self.inflight
            .as_ref()
            .expect("exchange already finished")
            .send_stats
    }

    /// Drain this exchange's receives, handing each payload (and the staged local
    /// portion) to `place`, and return the combined send + receive stats.
    ///
    /// Must be called on the same rank that started the exchange.  Other exchanges may
    /// have been started — and even finished — in between; epoch tagging keeps them
    /// apart.
    pub fn finish(
        mut self,
        rank: &mut Rank,
        place: impl FnMut(usize, Placed<'_, T>),
    ) -> ExchangeStats {
        let fl = self.inflight.take().expect("exchange already finished");
        finish_exchange(rank, &self.plan, fl, place)
    }
}

impl<T: Element> Drop for ExchangeHandle<T> {
    fn drop(&mut self) {
        if let Some(fl) = &self.inflight {
            if !std::thread::panicking() {
                panic!(
                    "split-phase exchange (epoch {}) dropped without finish(): \
                     its receives were never drained",
                    epoch_of_tag(fl.tag)
                );
            }
        }
    }
}

/// Split-phase form of [`alltoallv_with`]: `pack` runs once per planned destination at
/// start (packing straight into pooled message buffers — the zero-intermediate-buffer
/// hot path), the returned handle's [`ExchangeHandle::finish`] drains the receives.
///
/// Combine with [`ExchangePlan::fused`] for a split-phase fused multi-array exchange.
/// The handle owns `plan` — callers that reuse a long-lived plan pass a clone.  Starts
/// are collective in the same order on every rank; see the module docs for the
/// split-phase rules.  Panics as for [`alltoallv_with`] (plan/pack mismatches are caught
/// at start; receive violations at finish).
pub fn start_alltoallv_with<T: Element>(
    rank: &mut Rank,
    plan: ExchangePlan,
    pack: impl FnMut(usize, &mut PackBuf<'_, T>),
) -> ExchangeHandle<T> {
    rank.ledger_record::<T>("exchange");
    let inflight = Some(start_exchange(rank, &plan, pack));
    ExchangeHandle { plan, inflight }
}

/// The exchange epoch encoded in a message tag (inverse of [`Rank::next_exchange_tag`]).
pub(crate) fn epoch_of_tag(tag: u64) -> u64 {
    tag - EXCHANGE_TAG_BASE
}

/// Start phase: claim the next exchange epoch, pack and post one pooled message per
/// planned destination, and stage the local portion in a pooled buffer of its own (so
/// finishing needs no further pack state).  Returns everything the finish phase needs:
/// the epoch tag, the ledger stamp, the send-side stats, and the staged self payload.
fn start_exchange<T: Element>(
    rank: &mut Rank,
    plan: &ExchangePlan,
    mut pack: impl FnMut(usize, &mut PackBuf<'_, T>),
) -> InFlight<T> {
    assert_eq!(
        plan.nprocs(),
        rank.nprocs(),
        "exchange plan spans a different machine"
    );
    assert_eq!(
        plan.my_rank(),
        rank.rank(),
        "exchange plan belongs to a different rank"
    );
    let me = plan.my_rank();
    let tag = rank.next_exchange_tag();
    let mut stats = ExchangeStats::default();
    let mut pool = rank.detach_pool::<T>();

    // Send phase: one message per planned destination, empty payloads included when the
    // plan says so (dense mode).
    for (p, declared) in plan.sends.iter().enumerate() {
        let Some(declared) = *declared else { continue };
        if p == me {
            continue;
        }
        let values = pack_buffer(rank, &mut pool, p, declared, &mut pack);
        rank.send_buffer(p, tag, values);
        rank.charge_compute(declared as f64 * PACK_UNPACK_COST_UNITS);
        stats.msgs_sent += 1;
        stats.bytes_sent += (declared * T::SIZE) as u64;
    }

    // Stage the local portion: packed now (while the pack source is at hand), delivered
    // through the placement path at finish, with no communication and no cost-model
    // charge.
    let self_values =
        plan.sends[me].and_then(|declared| pack_buffer(rank, &mut pool, me, declared, &mut pack));
    rank.reattach_pool(pool);
    InFlight {
        tag,
        stamp: rank.ledger.stamp(),
        send_stats: stats,
        self_values,
    }
}

/// Pack destination `p`'s elements into a pooled buffer and check the count against the
/// plan.  A destination the plan declares empty gets no buffer (`None`): its message is
/// an empty payload that touches neither the heap nor the pool.
fn pack_buffer<T: Element>(
    rank: &mut Rank,
    pool: &mut FreeList<T>,
    p: usize,
    declared: usize,
    pack: &mut impl FnMut(usize, &mut PackBuf<'_, T>),
) -> Option<Buffer<T>> {
    let mut buf = (declared > 0).then(|| rank.take_buffer(pool, declared));
    let mut none = Vec::new();
    let values = buf.as_deref_mut().unwrap_or(&mut none);
    let mut packed = PackBuf { values };
    pack(p, &mut packed);
    assert_eq!(
        packed.len(),
        declared,
        "rank {}: buffer for peer {p} does not match the plan",
        rank.rank()
    );
    buf
}

/// Finish phase: deliver the staged local portion, then consume exactly the planned
/// number of incoming messages for this epoch, from whichever source is ready first —
/// each checked against the ledger stamp of the epoch's start, then placed as a
/// borrowed [`Placed`] view of the buffer it arrived in, which then joins this rank's
/// pool unless the closure took its contents.  Returns the send and receive stats.
fn finish_exchange<T: Element>(
    rank: &mut Rank,
    plan: &ExchangePlan,
    started: InFlight<T>,
    mut place: impl FnMut(usize, Placed<'_, T>),
) -> ExchangeStats {
    let me = plan.my_rank();
    let (tag, mut stats) = (started.tag, started.send_stats);
    let epoch = epoch_of_tag(tag);
    // The free list for `T` is detached for the whole drain, so the per-message recycle
    // below is a plain `Vec` push.
    let mut pool = rank.detach_pool::<T>();

    if let Some(mut staged) = started.self_values {
        let values = &mut *staged;
        place(me, Placed { values });
        recycle_buffer(&mut pool, staged);
    }

    for _ in 0..plan.recv_message_count() {
        let (src, payload) = rank.recv_payload_any(tag, &started.stamp);
        let byte_len = payload.byte_len();
        let mut buf = payload.into_values::<T>(|| {
            format!("rank {me}: the message from rank {src} in exchange epoch {epoch}")
        });
        let count = buf.as_ref().map_or(0, |b| b.len());
        match plan.recvs[src] {
            RecvSpec::None => {
                panic!(
                    "rank {me}: unexpected exchange message from rank {src} ({count} elements) \
                     in exchange epoch {epoch}, whose plan expects nothing from that source \
                     (this rank has started {} epochs — a crossed or non-collective exchange \
                     sequence)",
                    rank.exchange_epochs_started()
                )
            }
            RecvSpec::Any => {}
            RecvSpec::Exact(n) => {
                assert_eq!(
                    count, n,
                    "rank {me}: expected {n} elements from rank {src} in exchange epoch {epoch}"
                );
            }
        }
        rank.charge_compute(count as f64 * PACK_UNPACK_COST_UNITS);
        stats.msgs_received += 1;
        stats.bytes_received += byte_len as u64;
        let mut none = Vec::new();
        let values = buf.as_deref_mut().unwrap_or(&mut none);
        place(src, Placed { values });
        if let Some(buf) = buf {
            recycle_buffer(&mut pool, buf);
        }
    }
    rank.reattach_pool(pool);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::topology::MachineConfig;
    use crate::{run, RankStats};

    #[test]
    fn route_sparse_matches_dense_exchange_in_log_depth_messages() {
        // Every rank sends a distinctive record stream to a sparse set of peers; routing
        // must deliver exactly what a dense all_to_all would, in source order, within
        // ceil(log2 P) messages per rank per call.
        let out = run(MachineConfig::new(6), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let mut sends: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); n];
            // Each rank talks to me+1 and me+3 (mod n) only, plus itself.
            for hop in [0usize, 1, 3] {
                let dest = (me + hop) % n;
                for i in 0..(me + hop + 1) {
                    sends[dest].push((me as u32, dest as u32, i as u32));
                }
            }
            let msgs_before = rank.stats().msgs_sent;
            let routed = route_sparse(rank, &sends);
            let msgs = rank.stats().msgs_sent - msgs_before;
            let dense = rank.all_to_all(&sends);
            (routed, dense, msgs)
        });
        for (me, (routed, dense, msgs)) in out.results.iter().enumerate() {
            assert_eq!(routed, dense, "rank {me}: routed delivery must match dense");
            assert_eq!(
                *msgs,
                crate::topology::tree_rounds(6) as u64,
                "rank {me}: one message per routing round, regardless of fan-out"
            );
        }
    }

    #[test]
    fn sparse_plan_skips_empty_messages() {
        // Ring: rank r sends r+1 elements to (r+1) % n and nothing else.
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            let mut send_counts = vec![0; n];
            send_counts[next] = me + 1;
            let mut recv_counts = vec![0; n];
            recv_counts[prev] = prev + 1;
            let plan = ExchangePlan::sparse(me, send_counts, recv_counts);
            let mut sends: Vec<Vec<u32>> = vec![Vec::new(); n];
            sends[next] = vec![me as u32; me + 1];
            let mut got: Vec<(usize, Vec<u32>)> = Vec::new();
            let stats = alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |src, v| got.push((src, v.into_vec())),
            );
            (got, stats)
        });
        for (me, (got, stats)) in out.results.iter().enumerate() {
            let prev = (me + 3) % 4;
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, prev);
            assert_eq!(got[0].1, vec![prev as u32; prev + 1]);
            assert_eq!(stats.msgs_sent, 1);
            assert_eq!(stats.msgs_received, 1);
            assert_eq!(stats.bytes_sent, 4 * (me as u64 + 1));
        }
    }

    #[test]
    fn dense_plan_sends_empty_messages_too() {
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            // Only rank 0 has data, but a dense plan still moves one message per pair.
            let sends: Vec<Vec<u64>> = (0..n)
                .map(|_| if me == 0 { vec![0, 1] } else { Vec::new() })
                .collect();
            let plan = ExchangePlan::dense(me, sends.iter().map(Vec::len).collect());
            let mut received_from = Vec::new();
            let stats = alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |src, _v: Placed<'_, u64>| {
                    received_from.push(src);
                },
            );
            received_from.sort_unstable();
            (received_from, stats)
        });
        for (me, (from, stats)) in out.results.iter().enumerate() {
            assert_eq!(stats.msgs_sent, 2, "dense plans message every peer");
            assert_eq!(stats.msgs_received, 2);
            // Local delivery only happens for a non-empty self buffer (rank 0 here).
            let mut expected: Vec<usize> = (0..3).filter(|&p| p != me).collect();
            if me == 0 {
                expected.push(0);
                expected.sort_unstable();
            }
            assert_eq!(from, &expected);
        }
    }

    #[test]
    fn local_portion_bypasses_the_network() {
        let cfg = MachineConfig::new(2).with_cost(CostModel::uniform(50.0, 1.0, 0.0));
        let out = run(cfg, |rank| {
            let me = rank.rank();
            let mut send_counts = vec![0; 2];
            send_counts[me] = 3; // self only
            let plan = ExchangePlan::sparse(me, send_counts, vec![0; 2]);
            let mut sends: Vec<Vec<f64>> = vec![Vec::new(); 2];
            sends[me] = vec![1.0, 2.0, 3.0];
            let mut local = Vec::new();
            let stats = alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |src, v| {
                    assert_eq!(src, me);
                    local = v.into_vec();
                },
            );
            (local, stats, rank.stats().msgs_sent, rank.modeled().comm_us)
        });
        for (local, stats, sent, comm_us) in &out.results {
            assert_eq!(local, &vec![1.0, 2.0, 3.0]);
            assert_eq!(*stats, ExchangeStats::default());
            assert_eq!(*sent, 0);
            assert_eq!(
                *comm_us, 0.0,
                "local delivery must not charge the cost model"
            );
        }
    }

    #[test]
    fn negotiate_learns_receive_counts() {
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            // Rank r sends r elements to every peer (and keeps r for itself).
            let plan = ExchangePlan::negotiate(rank, vec![me; n]);
            (plan.recv_counts(), plan.send_message_count())
        });
        for (me, (recv_counts, msgs)) in out.results.iter().enumerate() {
            for (p, &c) in recv_counts.iter().enumerate() {
                // Sparse plans know exact counts for real messages; self and empty
                // sources report zero.
                let expected = if p == me || p == 0 { 0 } else { p };
                assert_eq!(c, expected, "rank {me}: wrong count from {p}");
            }
            // me == 0 sends nothing (count 0 everywhere).
            assert_eq!(*msgs, if me == 0 { 0 } else { 3 });
        }
    }

    #[test]
    fn sparse_negotiation_messages_are_logarithmic() {
        use crate::topology::tree_rounds;
        // A two-neighbor ring halo: the negotiation must cost ceil(log2 P) routing
        // messages per rank — not P - 1 count messages — and executing the resulting
        // sparse plan must move only the two real messages, skipping every silent pair.
        for p in [4usize, 6, 13] {
            let out = run(MachineConfig::new(p), move |rank| {
                let me = rank.rank();
                let n = rank.nprocs();
                let mut counts = vec![0usize; n];
                counts[(me + 1) % n] = 5;
                counts[(me + n - 1) % n] = 7;
                let mut expected = vec![0usize; n];
                expected[(me + n - 1) % n] = 5; // the left neighbor ships 5 to us
                expected[(me + 1) % n] = 7; // the right neighbor ships 7 to us
                let expected = ExchangePlan::sparse(me, counts.clone(), expected);
                let sends: Vec<Vec<u32>> = counts.iter().map(|&c| vec![me as u32; c]).collect();
                let s0 = rank.stats().msgs_sent;
                let plan = ExchangePlan::negotiate(rank, counts);
                let negotiation_msgs = rank.stats().msgs_sent - s0;
                let s1 = rank.stats().msgs_sent;
                let mut got = 0usize;
                alltoallv_with(
                    rank,
                    &plan,
                    |p, buf| buf.extend_from_slice(&sends[p]),
                    |_src, _v: Placed<'_, u32>| got += 1,
                );
                let exec_msgs = rank.stats().msgs_sent - s1;
                (negotiation_msgs, exec_msgs, got, plan, expected)
            });
            for (me, (neg, exec, got, plan, expected)) in out.results.iter().enumerate() {
                assert_eq!(*neg, tree_rounds(p) as u64, "P={p} rank {me}");
                assert_eq!(*exec, 2, "P={p} rank {me}: only real pairs send");
                assert_eq!(*got, 2, "P={p} rank {me}");
                assert_eq!(plan, expected, "P={p} rank {me}");
            }
        }
    }

    #[test]
    fn back_to_back_exchanges_do_not_interfere() {
        // Rank 1 has nothing to do in round one and races ahead into round two; epoch
        // tagging must keep the rounds separate on rank 0, which receives from any
        // source.
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            // Round one: only rank 2 -> rank 0.
            let mut s1 = vec![0; n];
            let mut r1 = vec![0; n];
            if me == 2 {
                s1[0] = 1;
            }
            if me == 0 {
                r1[2] = 1;
            }
            let plan1 = ExchangePlan::sparse(me, s1, r1);
            // Round two: only rank 1 -> rank 0.
            let mut s2 = vec![0; n];
            let mut r2 = vec![0; n];
            if me == 1 {
                s2[0] = 1;
            }
            if me == 0 {
                r2[1] = 1;
            }
            let plan2 = ExchangePlan::sparse(me, s2, r2);

            let mut got = Vec::new();
            let mut sends1: Vec<Vec<u8>> = vec![Vec::new(); n];
            if me == 2 {
                sends1[0] = vec![22];
            }
            alltoallv_with(
                rank,
                &plan1,
                |p, buf| buf.extend_from_slice(&sends1[p]),
                |src, v| {
                    got.push((1, src, v.into_vec()));
                },
            );
            let mut sends2: Vec<Vec<u8>> = vec![Vec::new(); n];
            if me == 1 {
                sends2[0] = vec![11];
            }
            alltoallv_with(
                rank,
                &plan2,
                |p, buf| buf.extend_from_slice(&sends2[p]),
                |src, v| {
                    got.push((2, src, v.into_vec()));
                },
            );
            got
        });
        assert_eq!(
            out.results[0],
            vec![(1, 2, vec![22u8]), (2, 1, vec![11u8])],
            "rounds must be delivered to the matching exchange"
        );
    }

    #[test]
    fn stats_match_rank_counters() {
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let plan = ExchangePlan::dense(me, vec![2; n]);
            let sends: Vec<Vec<u64>> = (0..n).map(|p| vec![me as u64, p as u64]).collect();
            let before: RankStats = rank.stats();
            let stats = alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |_src, _v| {},
            );
            let after = rank.stats();
            (
                stats,
                after.msgs_sent - before.msgs_sent,
                after.bytes_sent - before.bytes_sent,
            )
        });
        for (stats, msgs, bytes) in &out.results {
            assert_eq!(stats.msgs_sent, *msgs);
            assert_eq!(stats.bytes_sent, *bytes);
            assert_eq!(stats.msgs_received, 3);
            assert_eq!(stats.bytes_received, 3 * 16);
        }
    }

    #[test]
    fn tuple_elements_are_charged_their_declared_size() {
        // `(u32, f64)` occupies 16 bytes in memory but declares a 12-byte wire size, and
        // the declaration is what every counter and the cost model see: one 3-element
        // message is 36 bytes, 10 + 36 µs at each end.
        let cfg = MachineConfig::new(2).with_cost(CostModel::uniform(10.0, 1.0, 0.0));
        let out = run(cfg, |rank| {
            let me = rank.rank();
            let peer = 1 - me;
            let mut counts = vec![0; 2];
            counts[peer] = 3;
            let plan = ExchangePlan::sparse(me, counts.clone(), counts);
            let mut sends: Vec<Vec<(u32, f64)>> = vec![Vec::new(); 2];
            sends[peer] = vec![(me as u32, 0.5); 3];
            let stats = alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |_src, v| assert_eq!(v.len(), 3),
            );
            (stats, rank.stats(), rank.modeled().comm_us)
        });
        assert_eq!(<(u32, f64)>::SIZE, 12);
        assert_eq!(std::mem::size_of::<(u32, f64)>(), 16);
        for (stats, rank_stats, comm_us) in &out.results {
            assert_eq!(stats.bytes_sent, 36);
            assert_eq!(stats.bytes_received, 36);
            assert_eq!(rank_stats.bytes_sent, 36);
            assert_eq!(rank_stats.bytes_received, 36);
            assert_eq!(*comm_us, 2.0 * (10.0 + 36.0));
        }
    }

    #[test]
    fn steady_exchange_loops_stop_allocating_after_warmup() {
        // The pool invariant the microbench harness reports: after one warm-up round, a
        // repeated exchange draws every buffer from the pool — including dense rounds
        // whose messages are all empty (zero-byte payloads bypass the heap and the pool
        // counters entirely, so they cannot leak `allocations` either).
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let data_round = |rank: &mut Rank| {
                let plan = ExchangePlan::dense(me, vec![2; n]);
                let sends: Vec<Vec<u64>> = (0..n).map(|p| vec![me as u64, p as u64]).collect();
                alltoallv_with(
                    rank,
                    &plan,
                    |p, buf| buf.extend_from_slice(&sends[p]),
                    |_src, _v| {},
                );
            };
            let empty_round = |rank: &mut Rank| {
                let plan = ExchangePlan::dense(me, vec![0; n]);
                let sends: Vec<Vec<u64>> = vec![Vec::new(); n];
                alltoallv_with(
                    rank,
                    &plan,
                    |p, buf| buf.extend_from_slice(&sends[p]),
                    |_src, _v| {},
                );
            };
            data_round(rank);
            let warm = rank.pool_stats();
            for _ in 0..8 {
                data_round(rank);
                empty_round(rank);
            }
            rank.pool_stats().since(&warm)
        });
        for delta in &out.results {
            assert_eq!(
                delta.decode_allocations, 0,
                "steady state drew a fresh message buffer"
            );
            assert!(
                delta.decode_reuses > 0,
                "data rounds must be served from the pool"
            );
        }
    }

    #[test]
    fn borrowed_placement_recycles_scratch_but_into_vec_keeps_it() {
        // Borrow-only placement must reach a zero-allocation steady state; taking
        // ownership with into_vec removes one buffer from circulation per message, so
        // the pool has to allocate a replacement on the next round.
        let out = run(MachineConfig::new(2), |rank| {
            let me = rank.rank();
            let round = |rank: &mut Rank, keep: bool| -> Vec<u64> {
                let plan = ExchangePlan::dense(me, vec![3; 2]);
                let sends: Vec<Vec<u64>> = vec![vec![me as u64; 3]; 2];
                let mut kept = Vec::new();
                alltoallv_with(
                    rank,
                    &plan,
                    |p, buf| buf.extend_from_slice(&sends[p]),
                    |_src, v| {
                        if keep {
                            kept = v.into_vec();
                        } else {
                            assert_eq!(v.len(), 3);
                            assert_eq!(v.as_slice(), &v[..]);
                        }
                    },
                );
                kept
            };
            // Warm the pool, then measure a borrow-only window and a keeping window.
            round(rank, false);
            round(rank, false);
            let warm = rank.pool_stats();
            for _ in 0..4 {
                round(rank, false);
            }
            let borrowed = rank.pool_stats().since(&warm);
            let warm = rank.pool_stats();
            let mut kept = Vec::new();
            for _ in 0..4 {
                kept = round(rank, true);
            }
            let keeping = rank.pool_stats().since(&warm);
            (borrowed, keeping, kept)
        });
        for (borrowed, keeping, kept) in &out.results {
            assert_eq!(borrowed.decode_allocations, 0);
            assert!(borrowed.decode_reuses > 0);
            assert!(
                keeping.decode_allocations > 0,
                "into_vec must drain the pool: {keeping:?}"
            );
            assert_eq!(kept.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn mismatched_buffer_length_is_rejected() {
        let _ = run(MachineConfig::new(2), |rank| {
            let me = rank.rank();
            let plan = ExchangePlan::sparse(me, vec![0, 2], vec![0, 2]);
            // Declared two elements, packed one.
            let sends: Vec<Vec<u8>> = vec![Vec::new(), vec![1]];
            alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |_s, _v| {},
            );
        });
    }

    #[test]
    fn split_phase_matches_blocking_and_allows_compute_in_flight() {
        // Ring exchange executed split-phase: sends posted, local "compute" runs, then
        // the receives are drained.  The results and stats must match the blocking form.
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            let mut send_counts = vec![0; n];
            send_counts[next] = 3;
            let mut recv_counts = vec![0; n];
            recv_counts[prev] = 3;
            let plan = ExchangePlan::sparse(me, send_counts, recv_counts);
            let mut sends: Vec<Vec<u32>> = vec![Vec::new(); n];
            sends[next] = vec![me as u32; 3];
            let handle = start_alltoallv_with(rank, plan.clone(), |p, buf| {
                buf.extend_from_slice(&sends[p]);
            });
            assert_eq!(handle.send_stats().msgs_sent, 1);
            // Compute while the exchange is in flight.
            rank.charge_compute(10.0);
            let mut got: Vec<(usize, Vec<u32>)> = Vec::new();
            let split_stats = handle.finish(rank, |src, v| got.push((src, v.into_vec())));

            let mut blocking: Vec<(usize, Vec<u32>)> = Vec::new();
            let blocking_stats = alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |src, v| {
                    blocking.push((src, v.into_vec()));
                },
            );
            (got, split_stats, blocking, blocking_stats)
        });
        for (me, (got, split_stats, blocking, blocking_stats)) in out.results.iter().enumerate() {
            let prev = (me + 3) % 4;
            assert_eq!(got, &vec![(prev, vec![prev as u32; 3])]);
            assert_eq!(got, blocking);
            assert_eq!(split_stats, blocking_stats);
        }
    }

    #[test]
    fn two_in_flight_exchanges_do_not_cross() {
        // Start two exchanges back to back, finish them out of band: epoch tagging must
        // route each message to the exchange that started it, even with both in flight.
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let plan1 = ExchangePlan::dense(me, vec![1; n]);
            let plan2 = ExchangePlan::dense(me, vec![2; n]);
            let h1 = start_alltoallv_with(rank, plan1, |_p, buf: &mut PackBuf<'_, u64>| {
                buf.push(100 + me as u64);
            });
            let h2 = start_alltoallv_with(rank, plan2, |_p, buf: &mut PackBuf<'_, u64>| {
                buf.extend_from_slice(&[200 + me as u64, 300 + me as u64]);
            });
            assert_eq!(h2.epoch(), h1.epoch() + 1);
            // Finish in reverse start order: matching is per-epoch, not FIFO.
            let mut second: Vec<(usize, Vec<u64>)> = Vec::new();
            h2.finish(rank, |src, v| second.push((src, v.into_vec())));
            let mut first: Vec<(usize, Vec<u64>)> = Vec::new();
            h1.finish(rank, |src, v| first.push((src, v.into_vec())));
            first.sort_unstable();
            second.sort_unstable();
            (first, second)
        });
        for (me, (first, second)) in out.results.iter().enumerate() {
            let expected_first: Vec<(usize, Vec<u64>)> =
                (0..3).map(|src| (src, vec![100 + src as u64])).collect();
            let expected_second: Vec<(usize, Vec<u64>)> = (0..3)
                .map(|src| (src, vec![200 + src as u64, 300 + src as u64]))
                .collect();
            assert_eq!(first, &expected_first, "rank {me}: first exchange crossed");
            assert_eq!(
                second, &expected_second,
                "rank {me}: second exchange crossed"
            );
        }
    }

    #[test]
    fn fused_plan_scales_counts_but_not_messages() {
        let plan = ExchangePlan::sparse(0, vec![0, 2, 0, 5], vec![0, 0, 3, 0]);
        let fused = plan.clone().fused(3);
        assert_eq!(
            fused,
            ExchangePlan::sparse(0, vec![0, 6, 0, 15], vec![0, 0, 9, 0])
        );
        assert_eq!(fused.send_message_count(), plan.send_message_count());
        assert_eq!(fused.recv_message_count(), plan.recv_message_count());
        assert_eq!(plan.clone().fused(1), plan);
    }

    #[test]
    fn fused_plan_moves_lanes_in_one_message() {
        // Each rank sends 2 logical elements to every peer, fused over 3 lanes: one
        // message per pair carrying x0 x1 y0 y1 z0 z1 (contiguous per-lane blocks), 1/3
        // the messages of three single-lane exchanges of the same data.
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let plan = ExchangePlan::sparse(
                me,
                (0..n).map(|p| if p == me { 0 } else { 2 }).collect(),
                (0..n).map(|p| if p == me { 0 } else { 2 }).collect(),
            );
            let mut got: Vec<(usize, Vec<f64>)> = Vec::new();
            let stats = alltoallv_with(
                rank,
                &plan.fused(3),
                |_p, buf: &mut PackBuf<'_, f64>| {
                    for lane in 0..3 {
                        for k in 0..2 {
                            buf.push((me * 100 + k * 10 + lane) as f64);
                        }
                    }
                },
                |src, v| got.push((src, v.into_vec())),
            );
            got.sort_by_key(|(src, _)| *src);
            (got, stats)
        });
        for (me, (got, stats)) in out.results.iter().enumerate() {
            assert_eq!(stats.msgs_sent, 2, "one fused message per peer");
            assert_eq!(stats.bytes_sent, 2 * 6 * 8, "six lanes-worth per peer");
            for (src, values) in got {
                assert_ne!(*src, me);
                let expected: Vec<f64> = (0..3)
                    .flat_map(|lane| (0..2).map(move |k| (src * 100 + k * 10 + lane) as f64))
                    .collect();
                assert_eq!(values, &expected, "per-lane blocks preserved");
                // The blocked layout is exactly the transpose of the historical
                // element-major interleave (x0 y0 z0 x1 y1 z1): same data, rearranged —
                // pinned at the receive boundary so a layout change on either side of
                // the wire cannot slip through.
                let element_major: Vec<f64> = (0..2)
                    .flat_map(|k| (0..3).map(move |lane| (src * 100 + k * 10 + lane) as f64))
                    .collect();
                for lane in 0..3 {
                    for k in 0..2 {
                        assert_eq!(values[lane * 2 + k], element_major[k * 3 + lane]);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "in exchange epoch 0")]
    fn unexpected_message_panic_names_the_epochs() {
        // Rank 1 sends to rank 0, but rank 0's plan says nothing comes from rank 1 (it
        // waits on rank 2, which never sends): the non-collective sequence must be
        // diagnosed with the epoch in the panic message.
        let _ = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            match me {
                0 => {
                    let plan = ExchangePlan::from_parts(
                        0,
                        vec![None; 3],
                        vec![RecvSpec::None, RecvSpec::None, RecvSpec::Exact(1)],
                    );
                    alltoallv_with(rank, &plan, |_p, _b: &mut PackBuf<'_, u8>| {}, |_s, _v| {});
                }
                1 => {
                    let plan = ExchangePlan::sparse(1, vec![1, 0, 0], vec![0; 3]);
                    alltoallv_with(
                        rank,
                        &plan,
                        |_p, b: &mut PackBuf<'_, u8>| b.push(7),
                        |_s, _v| {},
                    );
                }
                _ => {}
            }
        });
    }

    #[test]
    #[should_panic(expected = "expected 1 elements from rank 1 in exchange epoch 0")]
    fn message_of_the_wrong_size_is_rejected() {
        // Rank 0's plan expects exactly one element from rank 1, which sends two: the
        // receive-side count check fires in every build profile.
        let _ = run(MachineConfig::new(2), |rank| {
            let plan = if rank.rank() == 0 {
                ExchangePlan::sparse(0, vec![0, 0], vec![0, 1])
            } else {
                ExchangePlan::sparse(1, vec![2, 0], vec![0, 0])
            };
            alltoallv_with(
                rank,
                &plan,
                |_p, b: &mut PackBuf<'_, u8>| b.extend_from_slice(&[1, 2]),
                |_s, _v| {},
            );
        });
    }

    #[test]
    #[should_panic(expected = "dropped without finish")]
    fn dropping_an_unfinished_handle_panics() {
        let _ = run(MachineConfig::new(2), |rank| {
            let me = rank.rank();
            let plan = ExchangePlan::sparse(me, vec![0; 2], vec![0; 2]);
            let handle: ExchangeHandle<u8> = start_alltoallv_with(rank, plan, |_p, _b| {});
            drop(handle);
        });
    }

    #[test]
    fn split_phase_steady_loop_stays_allocation_free() {
        // A start/compute/finish loop must reach the same zero-allocation fixed point as
        // the blocking loops: the staged self buffer and every received buffer are
        // recycled at finish.
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let round = |rank: &mut Rank| {
                let plan = ExchangePlan::dense(me, vec![2; n]);
                let handle = start_alltoallv_with(rank, plan, |p, buf: &mut PackBuf<'_, u64>| {
                    buf.extend_from_slice(&[me as u64, p as u64]);
                });
                rank.charge_compute(1.0);
                handle.finish(rank, |_src, v| assert_eq!(v.len(), 2));
            };
            round(rank);
            let warm = rank.pool_stats();
            for _ in 0..8 {
                round(rank);
            }
            rank.pool_stats().since(&warm)
        });
        for delta in &out.results {
            assert_eq!(
                delta.decode_allocations, 0,
                "split-phase drew a fresh message buffer"
            );
            assert!(delta.decode_reuses > 0);
        }
    }
}
