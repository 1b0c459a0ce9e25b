//! SPMD driver: spawn one thread per rank and run the same closure on each.
//!
//! This is the stand-in for the node programs of the paper's iPSC/860: [`run`] plays the
//! role of loading the same program onto every node, [`Rank`] is the per-node handle
//! through which all communication, cost accounting and pack-buffer pooling happens, and
//! [`RunOutcome`] collects what the paper's tables report — per-rank results, raw
//! counters ([`RankStats`]), modeled times ([`TimeSnapshot`]) and pool counters
//! ([`PackPoolStats`]).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use crate::comm::Mailbox;
use crate::cost::{CostModel, TimeSnapshot};
use crate::ledger::{LedgerEntry, LedgerHub, LedgerRank};
use crate::message::{decode_vec, Element, Payload, TypedPayload};
use crate::shared::ExchangeBackend;
use crate::stats::{MachineStats, PackPoolStats, RankStats};
use crate::topology::{Dissemination, MachineConfig};

/// The per-rank handle handed to the SPMD closure.
///
/// A `Rank` is the only way code running inside the machine can interact with the outside
/// world: it provides tagged point-to-point messaging, collectives (see
/// [`crate::collectives`]), barriers, and the modeled-time/statistics accounting.
pub struct Rank {
    mailbox: Mailbox,
    cost: CostModel,
    backend: ExchangeBackend,
    stats: RankStats,
    time: TimeSnapshot,
    /// Number of [`crate::exchange`] engine executions this rank has started; used to tag
    /// exchange messages so that consecutive exchanges can never be confused even though
    /// ranks run ahead of one another.
    exchange_seq: u64,
    /// Number of barriers this rank has entered; tags each barrier episode's
    /// dissemination rounds (see [`Rank::barrier`]).
    barrier_seq: u64,
    /// Free list of the pack-buffer pool: spent message payloads waiting to be reused as
    /// outgoing encode buffers.  See [`Rank::pool_stats`].
    pool: Vec<Vec<u8>>,
    /// Free lists of the decode-scratch pool, one per element type: typed `Vec<T>` buffers
    /// (stored as `Vec<Vec<T>>` behind `dyn Any`) that incoming payloads are decoded into
    /// before placement.  Bounded to [`SCRATCH_MAX_TYPES`] entries by least-recently-used
    /// eviction (see [`Rank::reattach_decode_scratch`]).  See [`Rank::pool_stats`].
    scratch: HashMap<TypeId, ScratchSlot>,
    /// Monotone counter stamping decode-scratch use, for the LRU eviction above.
    scratch_clock: u64,
    /// Allocation/reuse counters of both pools.
    pool_stats: PackPoolStats,
    /// The collective ledger, when this machine verifies collective matching (see
    /// [`crate::ledger`]): this rank's trace of started collectives plus the shared hub
    /// it is cross-checked through at barriers and shutdown.
    ledger: Option<Box<LedgerRank>>,
}

/// One element type's decode-scratch free list plus the recency stamp that orders
/// eviction when [`SCRATCH_MAX_TYPES`] distinct types have been seen.
struct ScratchSlot {
    list: Box<dyn Any + Send>,
    last_use: u64,
}

/// Maximum number of idle buffers a rank keeps, per pool (and, for the decode-scratch
/// pool, per element type).  Beyond this, recycled buffers are simply dropped; the cap
/// only bounds idle memory, it never causes an extra allocation while a pool is warm (a
/// steady-state loop holds at most its per-iteration message count).
const POOL_MAX_IDLE: usize = 1024;

/// Maximum number of distinct element types the decode-scratch pool keeps free lists
/// for.  A workload phase touches a handful of types; without a bound, a long-running
/// heterogeneous process (many struct types through `impl_element_struct!`) would grow
/// the `TypeId` map — and its idle buffers — forever.  When a new type would exceed the
/// bound, the least-recently-used type's free list is dropped (its buffers are plain
/// idle memory; the next exchange of that type re-warms in one iteration).
pub const SCRATCH_MAX_TYPES: usize = 32;

impl Rank {
    /// This rank's id in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.mailbox.rank()
    }

    /// Number of ranks in the machine.
    pub fn nprocs(&self) -> usize {
        self.mailbox.nprocs()
    }

    /// The cost model this machine was configured with.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The exchange backend this machine communicates through.
    pub fn backend(&self) -> ExchangeBackend {
        self.backend
    }

    /// Send a slice of elements to rank `to` with tag `tag`.
    ///
    /// The sender is charged one message (latency + bytes) of modeled communication time.
    /// The payload is encoded into a pooled buffer (see [`Rank::pool_stats`]), never a
    /// fresh allocation when the pool is warm.
    pub fn send_slice<T: Element>(&mut self, to: usize, tag: u64, values: &[T]) {
        let mut payload = self.take_pack_buffer(values.len() * T::SIZE);
        T::write_le_slice(values, &mut payload);
        self.send_packed(to, tag, payload);
    }

    /// Send an already-encoded payload, taking ownership of the buffer.  This and
    /// [`Rank::send_typed`] are the only points where outgoing messages are charged and
    /// counted; [`Rank::send_slice`] and the [`crate::exchange`] engine funnel through
    /// them.
    pub(crate) fn send_packed(&mut self, to: usize, tag: u64, payload: Vec<u8>) {
        let bytes = payload.len();
        self.stats.record_send(bytes);
        self.time.comm_us += self.cost.message_cost_us(bytes);
        self.mailbox.send(to, tag, Payload::Bytes(payload));
    }

    /// Send a typed buffer without encoding it — the POD fast path of the shared-memory
    /// backend.  Charged and counted exactly as if the buffer had been encoded
    /// (`values.len() * T::SIZE` bytes), so modeled time and statistics are independent
    /// of how the payload physically travels.
    pub(crate) fn send_typed<T: Element>(&mut self, to: usize, tag: u64, values: Vec<T>) {
        debug_assert!(
            self.backend == ExchangeBackend::SharedMem && T::is_pod_le(),
            "typed transport is the SharedMem POD fast path only"
        );
        let bytes = values.len() * T::SIZE;
        self.stats.record_send(bytes);
        self.time.comm_us += self.cost.message_cost_us(bytes);
        self.mailbox
            .send(to, tag, Payload::Typed(TypedPayload::new(values)));
    }

    /// Receive a vector of elements from rank `from` with tag `tag` (blocking, selective).
    ///
    /// The receiver is charged one message (latency + bytes) of modeled communication time.
    pub fn recv_vec<T: Element>(&mut self, from: usize, tag: u64) -> Vec<T> {
        let env = self.mailbox.recv(from, tag);
        self.stats.record_recv(env.payload.byte_len());
        self.time.comm_us += self.cost.message_cost_us(env.payload.byte_len());
        let payload = env.payload.into_bytes();
        let values = decode_vec(&payload);
        self.recycle_pack_buffer(payload);
        values
    }

    /// Receive a vector of elements with tag `tag` from any rank; returns `(from, values)`.
    pub fn recv_vec_any<T: Element>(&mut self, tag: u64) -> (usize, Vec<T>) {
        let (from, payload) = self.recv_payload_any(tag);
        let payload = payload.into_bytes();
        let values = decode_vec(&payload);
        self.recycle_pack_buffer(payload);
        (from, values)
    }

    /// Receive the raw payload of the next message carrying `tag`, charging stats and the
    /// cost model but leaving decoding to the caller.  The exchange engine uses this to
    /// decode byte payloads into a pooled scratch buffer (recycling the byte buffer
    /// afterwards) and to take typed fast-path payloads as they are, instead of
    /// materialising a fresh `Vec<T>` per message.
    pub(crate) fn recv_payload_any(&mut self, tag: u64) -> (usize, Payload) {
        let env = self.mailbox.recv_any(tag);
        self.stats.record_recv(env.payload.byte_len());
        self.time.comm_us += self.cost.message_cost_us(env.payload.byte_len());
        (env.from, env.payload)
    }

    /// Detach the decode-scratch free list for element type `T`, leaving an empty list
    /// behind.  The exchange engine holds the detached list across one execution so the
    /// per-message take/recycle is a plain `Vec` pop/push — the `TypeId` map is touched
    /// twice per *exchange*, not twice per *message*.  Must be handed back with
    /// [`Rank::reattach_decode_scratch`] before the execution returns.
    pub(crate) fn detach_decode_scratch<T: Element>(&mut self) -> Vec<Vec<T>> {
        self.scratch
            .get_mut(&TypeId::of::<T>())
            .map(|entry| {
                std::mem::take(
                    entry
                        .list
                        .downcast_mut::<Vec<Vec<T>>>()
                        .expect("decode-scratch free list holds the wrong type"),
                )
            })
            .unwrap_or_default()
    }

    /// Re-attach a free list detached with [`Rank::detach_decode_scratch`], capping the
    /// idle-buffer count.  Nothing else can have touched the map entry in between (the
    /// engine never nests executions), so the entry is simply replaced.
    ///
    /// This is also where the type map itself is bounded: re-attaching a type the map
    /// has no slot for when [`SCRATCH_MAX_TYPES`] types are already tracked evicts the
    /// least-recently-used type's free list first.
    pub(crate) fn reattach_decode_scratch<T: Element>(&mut self, mut list: Vec<Vec<T>>) {
        list.truncate(POOL_MAX_IDLE);
        self.scratch_clock += 1;
        let clock = self.scratch_clock;
        let key = TypeId::of::<T>();
        if !self.scratch.contains_key(&key) && self.scratch.len() >= SCRATCH_MAX_TYPES {
            if let Some(victim) = self
                .scratch
                .iter()
                .min_by_key(|(_, slot)| slot.last_use)
                .map(|(&k, _)| k)
            {
                self.scratch.remove(&victim);
            }
        }
        let entry = self.scratch.entry(key).or_insert_with(|| ScratchSlot {
            list: Box::new(Vec::<Vec<T>>::new()),
            last_use: clock,
        });
        entry.last_use = clock;
        *entry
            .list
            .downcast_mut::<Vec<Vec<T>>>()
            .expect("decode-scratch free list holds the wrong type") = list;
    }

    /// Number of distinct element types the decode-scratch pool currently tracks.
    /// Bounded by [`SCRATCH_MAX_TYPES`]; exposed for the pool regression tests.
    pub fn scratch_type_count(&self) -> usize {
        self.scratch.len()
    }

    /// Take a typed scratch buffer with room for `capacity` elements from a detached
    /// free list, allocating (and counting the miss) only when the list is empty.
    /// Zero-element requests (empty messages of dense plans) never touch the heap and
    /// bypass the pool and its counters, and selection is the same best-effort best-fit
    /// as [`Rank::take_pack_buffer`] — the most recently recycled buffer that already
    /// has the capacity is preferred, so mixed message sizes don't force `reserve`
    /// regrowth of a too-small buffer.
    pub(crate) fn take_decode_scratch<T: Element>(
        &mut self,
        list: &mut Vec<Vec<T>>,
        capacity: usize,
    ) -> Vec<T> {
        if capacity == 0 {
            return Vec::new();
        }
        if list.is_empty() {
            self.pool_stats.decode_allocations += 1;
            return Vec::with_capacity(capacity);
        }
        self.pool_stats.decode_reuses += 1;
        let idx = list
            .iter()
            .rposition(|b| b.capacity() >= capacity)
            .unwrap_or(list.len() - 1);
        let mut buf = list.swap_remove(idx);
        buf.reserve(capacity);
        buf
    }

    /// Return a spent scratch buffer to a detached free list.  The engine recycles every
    /// placement scratch whose ownership the placement closure did not take (via
    /// `Placed::into_vec`), which is what keeps steady-state receive paths
    /// allocation-free.
    pub(crate) fn recycle_decode_scratch<T: Element>(
        &mut self,
        list: &mut Vec<Vec<T>>,
        mut buf: Vec<T>,
    ) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        if list.len() < POOL_MAX_IDLE {
            list.push(buf);
        }
    }

    /// Take a byte buffer of at least `capacity` spare bytes from the pack-buffer pool,
    /// allocating only when the free list is empty.  Zero-byte requests (empty messages
    /// of dense plans) never touch the heap, so they bypass the pool and its counters
    /// entirely — mirroring [`Rank::recycle_pack_buffer`], which drops capacity-0 buffers.
    ///
    /// Selection is best-effort best-fit: the most recently recycled buffer that already
    /// has `capacity` is preferred, so mixed message sizes (8-byte negotiation counts next
    /// to kilobyte data payloads) don't force `reserve` regrowth of a too-small buffer.
    /// When no pooled buffer is large enough, the newest one is grown — its capacity only
    /// ever increases, so a steady loop stops regrowing once every circulating buffer has
    /// reached the loop's maximum message size.  `reuses` therefore counts recycled
    /// *buffers*, not a promise that `reserve` never moved one during warm-up.
    pub(crate) fn take_pack_buffer(&mut self, capacity: usize) -> Vec<u8> {
        if capacity == 0 {
            return Vec::new();
        }
        if self.pool.is_empty() {
            self.pool_stats.allocations += 1;
            return Vec::with_capacity(capacity);
        }
        self.pool_stats.reuses += 1;
        let idx = self
            .pool
            .iter()
            .rposition(|b| b.capacity() >= capacity)
            .unwrap_or(self.pool.len() - 1);
        let mut buf = self.pool.swap_remove(idx);
        buf.clear();
        buf.reserve(capacity);
        buf
    }

    /// Return a spent buffer to the pack-buffer pool.  Consumed message payloads and the
    /// engine's self-delivery buffers come back through here, which is what keeps
    /// steady-state loops allocation-free: each iteration's receives replenish exactly
    /// what its sends drew.
    pub(crate) fn recycle_pack_buffer(&mut self, buf: Vec<u8>) {
        if self.pool.len() < POOL_MAX_IDLE && buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Counters of this rank's buffer pools: how many outgoing-message byte buffers
    /// (`allocations`/`reuses`) and incoming decode-scratch buffers
    /// (`decode_allocations`/`decode_reuses`) were allocated fresh versus served from a
    /// free list.  Neither allocation counter growing across a window is the
    /// machine-checkable statement "this loop's communication allocates nothing fresh, in
    /// either direction" (asserted by the pool smoke tests and reported by
    /// `exchange_microbench`).
    pub fn pool_stats(&self) -> PackPoolStats {
        self.pool_stats
    }

    /// Synchronise with every other rank.  Charged `sync_cost_us(P)` of communication time.
    ///
    /// Runs a dissemination barrier: `ceil(log2 P)` rounds of empty messages on the
    /// rank's own mailbox, each round one hop further around the ring, after which every
    /// rank has transitively heard from every other.  The empty messages ride the
    /// mailbox directly — below the charged send/receive paths — because their entire
    /// modeled cost is already the single `sync_cost_us(P)` charge (which is itself
    /// `sync_latency_us · ceil(log2 P)`, the same log-depth shape).  Each barrier
    /// episode gets its own tag, so ranks running ahead into the next barrier can never
    /// confuse rounds.
    pub fn barrier(&mut self) {
        self.stats.record_collective();
        self.time.comm_us += self.cost.sync_cost_us(self.nprocs());
        let n = self.nprocs();
        let tag = crate::barrier::BARRIER_TAG_BASE + self.barrier_seq;
        self.ledger_record("barrier", self.barrier_seq, "");
        self.barrier_seq += 1;
        // Cross-check the ledger *before* the barrier's messages move: a divergence
        // that would wedge the dissemination rounds (or a later collective) is
        // diagnosed here instead of deadlocking.
        if let Some(ledger) = &self.ledger {
            ledger
                .hub
                .check_at_barrier(self.mailbox.rank(), &ledger.trace);
        }
        if n == 1 {
            return;
        }
        let me = self.rank();
        let sched = Dissemination::new(n);
        for k in 0..sched.rounds() {
            self.mailbox
                .send(sched.send_peer(me, k), tag, Payload::Bytes(Vec::new()));
            let env = self.mailbox.recv(sched.recv_peer(me, k), tag);
            debug_assert!(env.payload.is_empty(), "barrier messages carry no payload");
        }
    }

    /// Report `units` of local computational work (for example, one unit per inner-loop
    /// interaction).  This is what makes load imbalance visible in the modeled timings.
    pub fn charge_compute(&mut self, units: f64) {
        self.stats.record_compute(units);
        self.time.compute_us += units * self.cost.compute_unit_us;
    }

    /// Snapshot of this rank's modeled time so far.
    pub fn modeled(&self) -> TimeSnapshot {
        self.time
    }

    /// Snapshot of this rank's raw communication/computation counters.
    pub fn stats(&self) -> RankStats {
        self.stats
    }

    /// Record a synchronising collective without going through the shared barrier.
    /// Used by collectives that synchronise implicitly through their message pattern.
    pub(crate) fn charge_collective(&mut self) {
        self.stats.record_collective();
        self.time.comm_us += self.cost.sync_cost_us(self.nprocs());
    }

    /// The message tag for the next exchange-engine execution.  Exchanges are collective
    /// and every rank *starts* them in the same order, so the per-rank sequence number is
    /// a machine-wide identifier for one exchange episode (its *epoch*) — including
    /// split-phase exchanges whose finishes interleave with later starts.
    pub(crate) fn next_exchange_tag(&mut self) -> u64 {
        let tag = crate::exchange::EXCHANGE_TAG_BASE + self.exchange_seq;
        self.exchange_seq += 1;
        tag
    }

    /// Number of exchange-engine epochs this rank has started (blocking executions and
    /// split-phase starts alike).  Reported in the engine's mismatch diagnostics so a
    /// crossed or non-collective exchange sequence names both the epoch being drained
    /// and how far this rank has run ahead.
    pub fn exchange_epochs_started(&self) -> u64 {
        self.exchange_seq
    }

    /// Record one started collective in the ledger (no-op unless the machine was
    /// configured with [`crate::topology::MachineConfig::with_ledger`]).  See
    /// [`crate::ledger`] for the op/epoch/elem conventions.
    pub(crate) fn ledger_record(&mut self, op: &'static str, epoch: u64, elem: &'static str) {
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.trace.push(LedgerEntry { op, epoch, elem });
        }
    }

    /// This rank's collective-ledger trace so far, or `None` when the ledger is off.
    pub fn ledger_trace(&self) -> Option<&[LedgerEntry]> {
        self.ledger.as_ref().map(|l| l.trace.as_slice())
    }
}

/// Result of running an SPMD program: one entry per rank.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// The value returned by each rank's closure, indexed by rank.
    pub results: Vec<R>,
    /// Each rank's raw counters at the end of the run, indexed by rank.
    pub stats: Vec<RankStats>,
    /// Each rank's modeled time at the end of the run, indexed by rank.
    pub times: Vec<TimeSnapshot>,
    /// Each rank's pack-buffer pool counters at the end of the run, indexed by rank.
    pub pool: Vec<PackPoolStats>,
}

impl<R> RunOutcome<R> {
    /// Aggregate machine-wide statistics.
    pub fn machine_stats(&self) -> MachineStats {
        MachineStats::from_ranks(&self.stats)
    }

    /// Pack-buffer pool counters summed over all ranks.
    pub fn pool_totals(&self) -> PackPoolStats {
        self.pool
            .iter()
            .fold(PackPoolStats::default(), |acc, p| acc.merged(p))
    }

    /// The paper reports "execution time" as the maximum over processors of the per-rank
    /// net time; this helper returns that maximum of the modeled totals, in microseconds.
    pub fn max_total_us(&self) -> f64 {
        self.times.iter().map(|t| t.total_us()).fold(0.0, f64::max)
    }

    /// Average modeled computation time over ranks, in microseconds (the paper averages
    /// computation and communication time over processors).
    pub fn avg_compute_us(&self) -> f64 {
        if self.times.is_empty() {
            0.0
        } else {
            self.times.iter().map(|t| t.compute_us).sum::<f64>() / self.times.len() as f64
        }
    }

    /// Average modeled communication time over ranks, in microseconds.
    pub fn avg_comm_us(&self) -> f64 {
        if self.times.is_empty() {
            0.0
        } else {
            self.times.iter().map(|t| t.comm_us).sum::<f64>() / self.times.len() as f64
        }
    }

    /// The load-balance index defined in Section 4.1 of the paper:
    /// `LB = max_i(compute_i) * n / sum_i(compute_i)`.  1.0 is perfect balance.
    pub fn load_balance_index(&self) -> f64 {
        let max = self
            .times
            .iter()
            .map(|t| t.compute_us)
            .fold(0.0f64, f64::max);
        let sum: f64 = self.times.iter().map(|t| t.compute_us).sum();
        if sum == 0.0 {
            1.0
        } else {
            max * self.times.len() as f64 / sum
        }
    }
}

/// A reusable machine description.  [`Machine::run`] spawns the ranks, runs the SPMD
/// closure on each, and collects results, counters and modeled times.
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Create a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.nprocs > 0, "machine needs at least one rank");
        Self { config }
    }

    /// Number of ranks this machine simulates.
    pub fn nprocs(&self) -> usize {
        self.config.nprocs
    }

    /// Run `f` on every rank and wait for all of them to finish.
    ///
    /// # Panics
    /// If any rank's closure panics, the panic is propagated (tagged with the rank id).
    pub fn run<R, F>(&self, f: F) -> RunOutcome<R>
    where
        R: Send + 'static,
        F: Fn(&mut Rank) -> R + Send + Sync + 'static,
    {
        let nprocs = self.config.nprocs;
        let mailboxes = match self.config.backend {
            ExchangeBackend::Modeled => Mailbox::create_all(nprocs),
            ExchangeBackend::SharedMem => Mailbox::create_shared(nprocs),
        };
        let f = Arc::new(f);
        let hub = self.config.ledger.then(|| LedgerHub::new(nprocs));

        let mut handles = Vec::with_capacity(nprocs);
        for mailbox in mailboxes {
            let f = Arc::clone(&f);
            let cost = self.config.cost;
            let backend = self.config.backend;
            let hub = hub.clone();
            let builder = thread::Builder::new()
                .name(format!("mpsim-rank-{}", mailbox.rank()))
                .stack_size(self.config.stack_size);
            let handle = builder
                .spawn(move || {
                    let mut rank = Rank {
                        mailbox,
                        cost,
                        backend,
                        stats: RankStats::default(),
                        time: TimeSnapshot::default(),
                        exchange_seq: 0,
                        barrier_seq: 0,
                        pool: Vec::new(),
                        scratch: HashMap::new(),
                        scratch_clock: 0,
                        pool_stats: PackPoolStats::default(),
                        ledger: hub.map(|hub| {
                            Box::new(LedgerRank {
                                hub,
                                trace: Vec::new(),
                            })
                        }),
                    };
                    let result = f(&mut rank);
                    // Publish the final trace for the shutdown cross-check; joining
                    // below makes every deposit visible to the main thread.
                    if let Some(ledger) = rank.ledger.take() {
                        ledger.hub.deposit(rank.mailbox.rank(), &ledger.trace);
                    }
                    (result, rank.stats, rank.time, rank.pool_stats)
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }

        let mut results = Vec::with_capacity(nprocs);
        let mut stats = Vec::with_capacity(nprocs);
        let mut times = Vec::with_capacity(nprocs);
        let mut pool = Vec::with_capacity(nprocs);
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((r, s, t, ps)) => {
                    results.push(r);
                    stats.push(s);
                    times.push(t);
                    pool.push(ps);
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".to_string());
                    panic!("rank {rank} panicked: {msg}");
                }
            }
        }
        // Shutdown cross-check: after a clean join, every rank's final trace must
        // still agree — this catches divergences after the last barrier.
        if let Some(hub) = hub {
            if let Some(report) = hub.divergence() {
                panic!("{report}");
            }
        }
        RunOutcome {
            results,
            stats,
            times,
            pool,
        }
    }
}

/// Convenience wrapper: build a [`Machine`] from `config` and run `f` on every rank.
pub fn run<R, F>(config: MachineConfig, f: F) -> RunOutcome<R>
where
    R: Send + 'static,
    F: Fn(&mut Rank) -> R + Send + Sync + 'static,
{
    Machine::new(config).run(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn ranks_see_their_ids_and_size() {
        let out = run(MachineConfig::new(5), |rank| (rank.rank(), rank.nprocs()));
        assert_eq!(out.results.len(), 5);
        for (i, (r, n)) in out.results.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*n, 5);
        }
    }

    #[test]
    fn ring_exchange_delivers_typed_payloads() {
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            let next = (me + 1) % rank.nprocs();
            let prev = (me + rank.nprocs() - 1) % rank.nprocs();
            rank.send_slice(next, 1, &[me as f64, me as f64 * 10.0]);
            let got: Vec<f64> = rank.recv_vec(prev, 1);
            got
        });
        for (me, got) in out.results.iter().enumerate() {
            let prev = (me + 3) % 4;
            assert_eq!(got, &vec![prev as f64, prev as f64 * 10.0]);
        }
    }

    #[test]
    fn modeled_time_charges_both_ends() {
        let cfg = MachineConfig::new(2).with_cost(CostModel::uniform(10.0, 1.0, 0.0));
        let out = run(cfg, |rank| {
            if rank.rank() == 0 {
                rank.send_slice(1, 0, &[1.0f64; 4]); // 32 bytes => 10 + 32 = 42
            } else {
                let _: Vec<f64> = rank.recv_vec(0, 0);
            }
            rank.modeled()
        });
        assert!((out.results[0].comm_us - 42.0).abs() < 1e-9);
        assert!((out.results[1].comm_us - 42.0).abs() < 1e-9);
        assert_eq!(out.stats[0].msgs_sent, 1);
        assert_eq!(out.stats[0].bytes_sent, 32);
        assert_eq!(out.stats[1].msgs_received, 1);
        assert_eq!(out.stats[1].bytes_received, 32);
    }

    #[test]
    fn compute_charges_and_load_balance_index() {
        let cfg = MachineConfig::new(4).with_cost(CostModel::compute_only(2.0));
        let out = run(cfg, |rank| {
            // Rank i does (i+1)*100 units of work: imbalanced by construction.
            rank.charge_compute(100.0 * (rank.rank() + 1) as f64);
        });
        let lb = out.load_balance_index();
        // max = 400, mean = 250 => LB = 1.6
        assert!((lb - 1.6).abs() < 1e-9);
        assert!((out.max_total_us() - 800.0).abs() < 1e-9);
        assert!((out.avg_compute_us() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_is_charged_and_synchronises() {
        let out = run(MachineConfig::new(8), |rank| {
            for _ in 0..3 {
                rank.barrier();
            }
            rank.stats().collectives
        });
        assert!(out.results.iter().all(|&c| c == 3));
        assert!(out.times.iter().all(|t| t.comm_us > 0.0));
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panic_is_propagated_with_rank_id() {
        let _ = run(MachineConfig::new(4), |rank| {
            if rank.rank() == 2 {
                panic!("boom");
            }
        });
    }

    /// Regression for the decode-scratch type map: cycling more distinct element types
    /// than [`SCRATCH_MAX_TYPES`] through the pool must evict least-recently-used free
    /// lists instead of growing the map without bound.
    #[test]
    fn scratch_pool_type_map_is_bounded_with_lru_eviction() {
        let out = run(MachineConfig::new(1), |rank| {
            fn touch<T: Element>(rank: &mut Rank) {
                let mut list = rank.detach_decode_scratch::<T>();
                let buf = rank.take_decode_scratch(&mut list, 4);
                rank.recycle_decode_scratch(&mut list, buf);
                rank.reattach_decode_scratch(list);
            }
            macro_rules! touch_arrays {
                ($($n:literal),+ $(,)?) => { $( touch::<[u8; $n]>(rank); )+ };
            }
            // 40 distinct element types, in order — more than the map may keep.
            touch_arrays!(
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40
            );
            let count = rank.scratch_type_count();
            // The oldest types were evicted (their free lists are gone), the newest kept.
            let oldest = rank.detach_decode_scratch::<[u8; 1]>();
            let newest = rank.detach_decode_scratch::<[u8; 40]>();
            (count, oldest.len(), newest.len())
        });
        let (count, oldest_len, newest_len) = out.results[0];
        assert_eq!(
            count, SCRATCH_MAX_TYPES,
            "map must sit exactly at the bound"
        );
        assert_eq!(oldest_len, 0, "LRU type must have been evicted");
        assert_eq!(newest_len, 1, "most recent type keeps its pooled buffer");
    }

    #[test]
    fn single_rank_machine_works() {
        let out = run(MachineConfig::new(1), |rank| {
            rank.charge_compute(5.0);
            rank.barrier();
            rank.rank()
        });
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.load_balance_index(), 1.0);
    }
}
