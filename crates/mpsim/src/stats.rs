//! Per-rank communication and computation counters.
//!
//! The paper's evaluation (§4) reports communication and computation *times*; those are
//! derived in [`crate::cost`], but the raw quantities they are derived from — message
//! counts, byte counts, work units, and the buffer pool's allocation counters — are
//! accumulated here, where regression tests and the benchmark harnesses can pin them
//! exactly.

/// Raw counters accumulated by one rank over an SPMD run.
///
/// These are the quantities the CHAOS optimisations actually change — message counts drop
/// with communication vectorization, byte counts drop with software caching (duplicate
/// removal), work-unit counts shift between ranks with partitioning — and they feed the
/// modeled-time accounting in [`crate::cost`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub msgs_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Synchronising collectives (barriers, reductions) participated in.
    pub collectives: u64,
    /// Application-reported work units executed.
    pub compute_units: f64,
}

impl RankStats {
    /// Record one outgoing message of `bytes` payload bytes.
    pub fn record_send(&mut self, bytes: usize) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    /// Record one incoming message of `bytes` payload bytes.
    pub fn record_recv(&mut self, bytes: usize) {
        self.msgs_received += 1;
        self.bytes_received += bytes as u64;
    }

    /// Record participation in one synchronising collective.
    pub fn record_collective(&mut self) {
        self.collectives += 1;
    }

    /// Record `units` of application work.
    pub fn record_compute(&mut self, units: f64) {
        self.compute_units += units;
    }

    /// Combine two rank-local stat blocks (used when aggregating a whole machine).
    pub fn merged(&self, other: &RankStats) -> RankStats {
        RankStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_received: self.msgs_received + other.msgs_received,
            bytes_received: self.bytes_received + other.bytes_received,
            collectives: self.collectives + other.collectives,
            compute_units: self.compute_units + other.compute_units,
        }
    }
}

/// Counters of the per-rank buffer pool (see `Rank::pool_stats`).
///
/// One pool of typed `Vec<T>` message buffers keeps the exchange engine's steady state
/// allocation-free.  A send packs into a buffer drawn from the sender's pool; the buffer
/// travels to the receiver, is placed through a borrowed view and joins the receiver's
/// pool.  Only `Placed::into_vec` removes a buffer from circulation.  In a steady-state
/// exchange loop (the executor's gather/scatter, the DSMC append) each iteration receives
/// as many buffers as it sends, so after a warm-up iteration the pool satisfies every
/// request and the allocation counter stops growing — the property the
/// `chaos-bench exchange` harness and the pool smoke tests pin down.
///
/// The pool counts into `decode_allocations` / `decode_reuses`.  `allocations` and
/// `reuses` (and [`PackPoolStats::requests`]) belonged to a second, byte-buffer pool that
/// no longer exists and always read 0; they stay because the repo benchmark
/// (`benchmark/src/runs.rs`) sums them with the `decode_*` counters, so its pool metrics
/// keep their meaning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackPoolStats {
    /// Always 0 (see the type docs).
    pub allocations: u64,
    /// Always 0 (see the type docs).
    pub reuses: u64,
    /// Message buffers created fresh because the free list was empty (pool misses).
    pub decode_allocations: u64,
    /// Message buffers served from the free list (pool hits).
    pub decode_reuses: u64,
}

impl PackPoolStats {
    /// `allocations + reuses`: always 0, kept with the two fields it sums.
    pub fn requests(&self) -> u64 {
        self.allocations + self.reuses
    }

    /// Total buffer requests: what a pool-less engine would have allocated (one fresh
    /// `Vec<T>` per non-empty message or staged local portion).
    pub fn decode_requests(&self) -> u64 {
        self.decode_allocations + self.decode_reuses
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &PackPoolStats) -> PackPoolStats {
        PackPoolStats {
            allocations: self.allocations - earlier.allocations,
            reuses: self.reuses - earlier.reuses,
            decode_allocations: self.decode_allocations - earlier.decode_allocations,
            decode_reuses: self.decode_reuses - earlier.decode_reuses,
        }
    }

    /// Combine the counters of two pools (used when aggregating a whole machine).
    pub fn merged(&self, other: &PackPoolStats) -> PackPoolStats {
        PackPoolStats {
            allocations: self.allocations + other.allocations,
            reuses: self.reuses + other.reuses,
            decode_allocations: self.decode_allocations + other.decode_allocations,
            decode_reuses: self.decode_reuses + other.decode_reuses,
        }
    }
}

/// Aggregate statistics over all ranks of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineStats {
    /// Sum of all per-rank counters.
    pub total: RankStats,
    /// Number of ranks aggregated.
    pub nprocs: usize,
}

impl MachineStats {
    /// Aggregate a slice of per-rank stats.
    pub fn from_ranks(ranks: &[RankStats]) -> Self {
        let mut total = RankStats::default();
        for r in ranks {
            total = total.merged(r);
        }
        MachineStats {
            total,
            nprocs: ranks.len(),
        }
    }

    /// Total message count across the machine.
    pub fn total_messages(&self) -> u64 {
        self.total.msgs_sent
    }

    /// Total communication volume in bytes across the machine.
    pub fn total_bytes(&self) -> u64 {
        self.total.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = RankStats::default();
        s.record_send(100);
        s.record_send(50);
        s.record_recv(25);
        s.record_collective();
        s.record_compute(3.5);
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.msgs_received, 1);
        assert_eq!(s.bytes_received, 25);
        assert_eq!(s.collectives, 1);
        assert_eq!(s.compute_units, 3.5);
    }

    #[test]
    fn merge_and_machine_aggregate() {
        let mut a = RankStats::default();
        a.record_send(10);
        a.record_compute(1.0);
        let mut b = RankStats::default();
        b.record_send(20);
        b.record_recv(10);
        b.record_compute(2.0);
        let m = MachineStats::from_ranks(&[a, b]);
        assert_eq!(m.nprocs, 2);
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_bytes(), 30);
        assert_eq!(m.total.compute_units, 3.0);
        assert_eq!(a.merged(&b), m.total);
    }
}
