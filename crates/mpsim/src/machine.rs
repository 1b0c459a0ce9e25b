//! SPMD driver: spawn one thread per rank and run the same closure on each.
//!
//! This is the stand-in for the node programs of the paper's iPSC/860: [`run`] plays the
//! role of loading the same program onto every node, [`Rank`] is the per-node handle
//! through which all communication, cost accounting and buffer pooling happens, and
//! [`RunOutcome`] collects what the paper's tables report — per-rank results, raw
//! counters ([`RankStats`]), modeled times ([`TimeSnapshot`]) and pool counters
//! ([`PackPoolStats`]).

use std::any::{Any, TypeId};
use std::sync::Arc;
use std::thread;

use crate::comm::{is_follow_on, Mailbox};
use crate::cost::{CostModel, TimeSnapshot};
use crate::ledger::{check_shutdown, Ledger, Stamp};
use crate::message::{Buffer, Element, TypedPayload};
use crate::stats::{MachineStats, PackPoolStats, RankStats};
use crate::topology::MachineConfig;

/// The per-rank handle handed to the SPMD closure.
///
/// A `Rank` is the only way code running inside the machine can interact with the outside
/// world: it is the handle the exchange engine ([`crate::exchange`]) and the collectives
/// ([`crate::collectives`]) move messages through, and it keeps the modeled-time and
/// statistics accounting.
pub struct Rank {
    mailbox: Mailbox,
    cost: CostModel,
    stats: RankStats,
    time: TimeSnapshot,
    /// Number of [`crate::exchange`] engine executions this rank has started; used to tag
    /// exchange messages so that consecutive exchanges can never be confused even though
    /// ranks run ahead of one another.
    exchange_seq: u64,
    /// Free lists of the buffer pool, one per element type: spent message buffers
    /// (a `FreeList<T>` behind `dyn Any`) waiting to be packed again.  A short list
    /// scanned linearly, bounded to [`POOL_MAX_TYPES`] entries by least-recently-used
    /// eviction (see [`Rank::reattach_pool`]).  See [`Rank::pool_stats`].
    pool: Vec<(TypeId, PoolSlot)>,
    /// Monotone counter stamping pool use, for the LRU eviction above.
    pool_clock: u64,
    /// Allocation/reuse counters of the pool.
    pool_stats: PackPoolStats,
    /// The collective ledger (see [`crate::ledger`]): the digest of the operations this
    /// rank has started, which every outgoing message carries, and the last few entries.
    pub(crate) ledger: Ledger,
}

/// One element type's free list plus the recency stamp that orders eviction when
/// [`POOL_MAX_TYPES`] distinct types have been seen.
struct PoolSlot {
    list: Box<dyn Any + Send>,
    last_use: u64,
}

impl PoolSlot {
    fn free_list<T: Element>(&mut self) -> &mut FreeList<T> {
        self.list
            .downcast_mut()
            .expect("buffer-pool free list holds the wrong type")
    }
}

/// Maximum number of idle buffers a rank keeps per element type.  Beyond this, recycled
/// buffers are simply dropped; the cap only bounds idle memory, it never causes an extra
/// allocation while the pool is warm (a steady-state loop holds at most its
/// per-iteration message count).
const POOL_MAX_IDLE: usize = 1024;

/// Maximum number of distinct element types the buffer pool keeps free lists for.  A
/// workload phase touches a handful of types; without a bound, a long-running
/// heterogeneous process (many struct types through `impl_element_struct!`) would grow
/// the `TypeId` list — and its idle buffers — forever.  When a new type would exceed the
/// bound, the least-recently-used type's free list is dropped (its buffers are plain
/// idle memory; the next exchange of that type re-warms in one iteration).
pub const POOL_MAX_TYPES: usize = 32;

/// One element type's idle message buffers.
pub(crate) type FreeList<T> = Vec<Buffer<T>>;

/// Return a spent message buffer to a detached free list.  The engine recycles every
/// buffer it places; a buffer whose contents the placement closure took
/// (`Placed::into_vec`) has no capacity left and is dropped, which is what makes taking
/// ownership cost one future pool allocation.
pub(crate) fn recycle_buffer<T: Element>(list: &mut FreeList<T>, mut buf: Buffer<T>) {
    if buf.capacity() > 0 && list.len() < POOL_MAX_IDLE {
        buf.clear();
        list.push(buf);
    }
}

impl Rank {
    /// This rank's id in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.mailbox.rank()
    }

    /// Number of ranks in the machine.
    pub fn nprocs(&self) -> usize {
        self.mailbox.nprocs()
    }

    /// Send a typed buffer to rank `to` with tag `tag`; `None` sends an empty message,
    /// which touches neither the heap nor the pool.  The one point where outgoing
    /// messages are charged and counted: one message of `len · T::SIZE` bytes (latency +
    /// bytes) of modeled communication time.  The message carries the ledger's current
    /// stamp.
    pub(crate) fn send_buffer<T: Element>(
        &mut self,
        to: usize,
        tag: u64,
        values: Option<Buffer<T>>,
    ) {
        let payload = values.map_or_else(TypedPayload::empty::<T>, TypedPayload::new);
        let bytes = payload.byte_len();
        self.stats.record_send(bytes);
        self.time.comm_us += self.cost.message_cost_us(bytes);
        self.mailbox.send(to, tag, payload, self.ledger.stamp());
    }

    /// Receive the payload of the next message carrying `tag` from any rank, check its
    /// ledger stamp against `expected` (this rank's stamp when the epoch started), and
    /// charge stats and the cost model.  The exchange engine recovers the typed buffer
    /// and places it as-is.
    pub(crate) fn recv_payload_any(&mut self, tag: u64, expected: &Stamp) -> (usize, TypedPayload) {
        let env = self.mailbox.recv_any(tag);
        let epoch = crate::exchange::epoch_of_tag(tag);
        self.ledger.check(self.rank(), &env, expected, epoch);
        self.stats.record_recv(env.payload.byte_len());
        self.time.comm_us += self.cost.message_cost_us(env.payload.byte_len());
        (env.from, env.payload)
    }

    /// Detach the buffer pool's free list for element type `T`, leaving an empty list
    /// behind.  The exchange engine holds the detached list across one start or finish
    /// so the per-message take/recycle is a plain `Vec` pop/push: the `TypeId` list is
    /// scanned twice per *exchange phase*, not twice per *message*.  Must be handed back
    /// with [`Rank::reattach_pool`] before the phase returns.
    pub(crate) fn detach_pool<T: Element>(&mut self) -> FreeList<T> {
        let key = TypeId::of::<T>();
        self.pool
            .iter_mut()
            .find(|(k, _)| *k == key)
            .map(|(_, slot)| std::mem::take(slot.free_list::<T>()))
            .unwrap_or_default()
    }

    /// Re-attach a free list detached with [`Rank::detach_pool`], capping the idle-buffer
    /// count.  Nothing else can have touched the entry in between (the engine never
    /// nests phases), so the entry is simply replaced.
    ///
    /// This is also where the type list itself is bounded: re-attaching a type the list
    /// has no slot for when [`POOL_MAX_TYPES`] types are already tracked evicts the
    /// least-recently-used type's free list first.
    pub(crate) fn reattach_pool<T: Element>(&mut self, mut list: FreeList<T>) {
        list.truncate(POOL_MAX_IDLE);
        self.pool_clock += 1;
        let (key, last_use) = (TypeId::of::<T>(), self.pool_clock);
        if let Some((_, slot)) = self.pool.iter_mut().find(|(k, _)| *k == key) {
            *slot.free_list::<T>() = list;
            slot.last_use = last_use;
            return;
        }
        if self.pool.len() >= POOL_MAX_TYPES {
            if let Some(victim) = (0..self.pool.len()).min_by_key(|&i| self.pool[i].1.last_use) {
                self.pool.swap_remove(victim);
            }
        }
        let list = Box::new(list);
        self.pool.push((key, PoolSlot { list, last_use }));
    }

    /// Take a buffer with room for `capacity` elements from a detached free list,
    /// allocating (and counting the miss) only when the list is empty.  Selection is
    /// best-effort best-fit: the most recently recycled buffer that already has the
    /// capacity is preferred, so mixed message sizes (8-byte negotiation counts next to
    /// kilobyte data payloads) don't force `reserve` regrowth of a too-small buffer.
    /// When no pooled buffer is large enough, the newest one is grown; its capacity only
    /// ever increases, so a steady loop stops regrowing once every circulating buffer has
    /// reached the loop's largest message.
    pub(crate) fn take_buffer<T: Element>(
        &mut self,
        list: &mut FreeList<T>,
        capacity: usize,
    ) -> Buffer<T> {
        if list.is_empty() {
            self.pool_stats.decode_allocations += 1;
            return Box::new(Vec::with_capacity(capacity));
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

    /// Counters of this rank's buffer pool: how many message buffers were allocated
    /// fresh versus served from a free list.  The allocation counter not growing across a
    /// window is the machine-checkable statement "this loop's communication allocates
    /// nothing fresh" (asserted by the pool smoke tests and reported by
    /// `chaos-bench exchange`).  See [`PackPoolStats`] for which fields count.
    pub fn pool_stats(&self) -> PackPoolStats {
        self.pool_stats
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

    /// Record a synchronising collective: the collectives synchronise through their own
    /// message pattern, and this adds its `sync_cost_us(P)` charge.
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
    pub(crate) fn exchange_epochs_started(&self) -> u64 {
        self.exchange_seq
    }

    /// Record the start of operation `op` moving elements of type `T`, at the current
    /// exchange epoch, in the ledger (see [`crate::ledger`]).
    pub(crate) fn ledger_record<T: 'static>(&mut self, op: &'static str) {
        self.ledger.record::<T>(op, self.exchange_seq);
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
    /// Each rank's buffer-pool counters at the end of the run, indexed by rank.
    pub pool: Vec<PackPoolStats>,
}

impl<R> RunOutcome<R> {
    /// Aggregate machine-wide statistics.
    pub fn machine_stats(&self) -> MachineStats {
        MachineStats::from_ranks(&self.stats)
    }

    /// Buffer-pool counters summed over all ranks.
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

/// Spawn one rank thread per rank of `config`, run `f` on every rank, wait for all of
/// them to finish, and collect results, counters and modeled times.
///
/// # Panics
/// If `config` has no rank.  If any rank's closure panics, once every rank has finished:
/// one line per panicked rank, `rank N panicked: …`, the ranks that found a fault first
/// and those that only stopped because of another rank's failure after them.  After a
/// clean run, if two ranks' collective histories differ ("collective ledger divergence
/// at shutdown", see [`crate::ledger`]).
pub fn run<R, F>(config: MachineConfig, f: F) -> RunOutcome<R>
where
    R: Send + 'static,
    F: Fn(&mut Rank) -> R + Send + Sync + 'static,
{
    let nprocs = config.nprocs;
    assert!(nprocs > 0, "machine needs at least one rank");
    let mailboxes = Mailbox::create_all(nprocs);
    let f = Arc::new(f);

    let mut handles = Vec::with_capacity(nprocs);
    for mailbox in mailboxes {
        let f = Arc::clone(&f);
        let cost = config.cost;
        let builder = thread::Builder::new()
            .name(format!("mpsim-rank-{}", mailbox.rank()))
            .stack_size(config.stack_size);
        let handle = builder
            .spawn(move || {
                let mut rank = Rank {
                    mailbox,
                    cost,
                    stats: RankStats::default(),
                    time: TimeSnapshot::default(),
                    exchange_seq: 0,
                    pool: Vec::new(),
                    pool_clock: 0,
                    pool_stats: PackPoolStats::default(),
                    ledger: Ledger::default(),
                };
                let result = f(&mut rank);
                (result, rank.stats, rank.time, rank.pool_stats, rank.ledger)
            })
            .expect("failed to spawn rank thread");
        handles.push(handle);
    }

    let mut results = Vec::with_capacity(nprocs);
    let mut stats = Vec::with_capacity(nprocs);
    let mut times = Vec::with_capacity(nprocs);
    let mut pool = Vec::with_capacity(nprocs);
    let mut ledgers = Vec::with_capacity(nprocs);
    let mut panics = Vec::new();
    for (rank, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok((r, s, t, ps, l)) => {
                results.push(r);
                stats.push(s);
                times.push(t);
                pool.push(ps);
                ledgers.push(l);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                panics.push(format!("rank {rank} panicked: {msg}"));
            }
        }
    }
    if !panics.is_empty() {
        // Stable: rank order within the root causes and within the follow-ons.
        panics.sort_by_key(|msg| is_follow_on(msg));
        panic!("{}", panics.join("\n"));
    }
    check_shutdown(&ledgers);
    RunOutcome {
        results,
        stats,
        times,
        pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::exchange::{alltoallv_with, ExchangePlan, PackBuf};

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
    fn collective_after_the_peer_exits_panics_instead_of_hanging() {
        // Rank 1 returns at once; rank 0's all-gather then either sends to an exited
        // rank or waits on a channel nobody can send into.  Both must panic.  The
        // machine runs on a helper thread so that a regression fails here instead of
        // hanging the suite.
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let probe = thread::spawn(move || {
            run(MachineConfig::new(2), |rank| {
                if rank.rank() == 0 {
                    rank.all_gather_one(0u64);
                }
            });
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(5)) {
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
            Ok(()) => panic!("the run returned although rank 0's peer had exited"),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("rank 0 still waits 5 s after its only peer exited")
            }
        }
        let payload = probe.join().expect_err("the run must panic");
        let msg = payload
            .downcast::<String>()
            .expect("a formatted panic message");
        assert!(
            msg.starts_with("rank 0 panicked: ")
                && (msg.contains(crate::comm::DISCONNECTED)
                    || msg.contains("destination rank has terminated")),
            "{msg}"
        );
    }

    /// A one-message plan: `from` sends `count` elements to `to`, nothing else moves.
    fn one_message_plan(me: usize, n: usize, from: usize, to: usize, count: usize) -> ExchangePlan {
        let mut sends = vec![0; n];
        let mut recvs = vec![0; n];
        if me == from {
            sends[to] = count;
        }
        if me == to {
            recvs[from] = count;
        }
        ExchangePlan::sparse(me, sends, recvs)
    }

    #[test]
    fn ring_exchange_delivers_typed_payloads() {
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            let n = rank.nprocs();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            let mut sends = vec![0; n];
            sends[next] = 2;
            let mut recvs = vec![0; n];
            recvs[prev] = 2;
            let plan = ExchangePlan::sparse(me, sends, recvs);
            let mut got = Vec::new();
            alltoallv_with(
                rank,
                &plan,
                |_p, buf: &mut PackBuf<'_, f64>| {
                    buf.extend_from_slice(&[me as f64, me as f64 * 10.0]);
                },
                |_src, v| got = v.into_vec(),
            );
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
            let plan = one_message_plan(rank.rank(), 2, 0, 1, 4);
            let mut sends: Vec<Vec<f64>> = vec![Vec::new(); 2];
            if rank.rank() == 0 {
                sends[1] = vec![1.0; 4]; // 32 bytes => 10 + 32 = 42
            }
            alltoallv_with(
                rank,
                &plan,
                |p, buf| buf.extend_from_slice(&sends[p]),
                |_src, _v| {},
            );
            rank.modeled()
        });
        // No compute is charged (`compute_unit_us` is 0), so the engine's pack/place
        // charge leaves exactly the message cost on both ends.
        assert!((out.results[0].comm_us - 42.0).abs() < 1e-9);
        assert!((out.results[1].comm_us - 42.0).abs() < 1e-9);
        assert_eq!(out.stats[0].msgs_sent, 1);
        assert_eq!(out.stats[0].bytes_sent, 32);
        assert_eq!(out.stats[1].msgs_received, 1);
        assert_eq!(out.stats[1].bytes_received, 32);
    }

    #[test]
    fn compute_charges_and_load_balance_index() {
        let cfg = MachineConfig::new(4).with_cost(CostModel::uniform(0.0, 0.0, 2.0));
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
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panic_is_propagated_with_rank_id() {
        let _ = run(MachineConfig::new(4), |rank| {
            if rank.rank() == 2 {
                panic!("boom");
            }
        });
    }

    /// Rank 1 fails; ranks 0 and 2 then wait in a gather for it.  Their panics only
    /// report that rank 1 failed, so the report names rank 1's cause first, and each
    /// follow-on names the rank it stopped for.
    #[test]
    fn the_root_cause_is_reported_first() {
        let payload = std::panic::catch_unwind(|| {
            run(MachineConfig::new(3), |rank| {
                if rank.rank() == 1 {
                    panic!("ROOT CAUSE");
                }
                rank.all_gather_one(0u64);
            });
        })
        .expect_err("the run must panic");
        let report = *payload.downcast::<String>().expect("a formatted report");
        assert!(
            report.starts_with("rank 1 panicked: ROOT CAUSE\n"),
            "{report}"
        );
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 3, "{report}");
        assert!(
            lines[1..].iter().all(|l| crate::comm::is_follow_on(l)),
            "{report}"
        );
    }

    /// Regression for the buffer pool's type list: cycling more distinct element types
    /// than [`POOL_MAX_TYPES`] through the pool must evict least-recently-used free
    /// lists instead of growing the type list without bound.
    #[test]
    fn scratch_pool_type_map_is_bounded_with_lru_eviction() {
        let out = run(MachineConfig::new(1), |rank| {
            fn touch<T: Element>(rank: &mut Rank) {
                let mut list = rank.detach_pool::<T>();
                let buf = rank.take_buffer(&mut list, 4);
                recycle_buffer(&mut list, buf);
                rank.reattach_pool(list);
            }
            macro_rules! touch_arrays {
                ($($n:literal),+ $(,)?) => { $( touch::<[u8; $n]>(rank); )+ };
            }
            // 40 distinct element types, in order — more than the list may keep.
            touch_arrays!(
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40
            );
            let count = rank.pool.len();
            // The oldest types were evicted (their free lists are gone), the newest kept.
            let oldest = rank.detach_pool::<[u8; 1]>();
            let newest = rank.detach_pool::<[u8; 40]>();
            (count, oldest.len(), newest.len())
        });
        let (count, oldest_len, newest_len) = out.results[0];
        assert_eq!(
            count, POOL_MAX_TYPES,
            "type list must sit exactly at the bound"
        );
        assert_eq!(oldest_len, 0, "LRU type must have been evicted");
        assert_eq!(newest_len, 1, "most recent type keeps its pooled buffer");
    }

    #[test]
    fn single_rank_machine_works() {
        let out = run(MachineConfig::new(1), |rank| {
            rank.charge_compute(5.0);
            (rank.rank(), rank.all_reduce_sum(2.5))
        });
        assert_eq!(out.results, vec![(0, 2.5)]);
        assert_eq!(out.load_balance_index(), 1.0);
    }
}
