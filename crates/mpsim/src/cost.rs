//! Modeled-time accounting.
//!
//! The paper reports execution, computation and communication times measured on an Intel
//! iPSC/860.  We cannot (and are not expected to) reproduce absolute numbers; instead every
//! rank accumulates *modeled* time from a simple linear cost model:
//!
//! * each message costs `message_latency_us + bytes * per_byte_us` on both the sender and
//!   the receiver (start-up cost dominates small messages, bandwidth dominates large ones —
//!   exactly the trade-off that makes communication vectorization and software caching
//!   worthwhile);
//! * each reduction additionally costs `sync_latency_us * ceil(log2(P))`.  This is no
//!   longer an aspirational "modelling a tree implementation" fudge: every reduction
//!   really does run a log-depth combining butterfly (see [`crate::collectives`]), so
//!   the charged depth follows the messages on the wire (the reductions' per-message
//!   latency/byte costs are charged on top, per message);
//! * computation is charged explicitly by application code in abstract work units
//!   (one unit ≈ one inner-loop interaction), converted via `compute_unit_us`.
//!
//! The default parameters are in the right ballpark for an iPSC/860-class machine
//! (≈ 70 µs message start-up, ≈ 2.8 MB/s effective bandwidth, a few µs per irregular
//! inner-loop iteration), which is what gives the reproduced tables the same *shape* as the
//! paper's: the absolute scale is arbitrary.

/// Linear communication/computation cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Start-up cost charged per point-to-point message (microseconds).
    pub message_latency_us: f64,
    /// Transfer cost per payload byte (microseconds per byte).
    pub per_byte_us: f64,
    /// Cost of one application-level work unit (microseconds).
    pub compute_unit_us: f64,
    /// Per-stage cost of a synchronising collective (a reduction), multiplied by
    /// `ceil(log2(P))` (microseconds).
    pub sync_latency_us: f64,
}

impl CostModel {
    /// Parameters approximating the Intel iPSC/860 used in the paper.
    pub fn ipsc860() -> Self {
        Self {
            message_latency_us: 70.0,
            per_byte_us: 0.36,
            compute_unit_us: 1.1,
            sync_latency_us: 40.0,
        }
    }

    /// A uniform model useful for tests: explicit latency, per-byte and per-unit costs,
    /// zero synchronisation cost.
    pub fn uniform(latency_us: f64, per_byte_us: f64, compute_unit_us: f64) -> Self {
        Self {
            message_latency_us: latency_us,
            per_byte_us,
            compute_unit_us,
            sync_latency_us: 0.0,
        }
    }

    /// Modeled cost of transferring one message with a payload of `bytes` bytes.
    pub fn message_cost_us(&self, bytes: usize) -> f64 {
        self.message_latency_us + bytes as f64 * self.per_byte_us
    }

    /// Modeled cost of one synchronising collective across `nprocs` ranks.
    pub fn sync_cost_us(&self, nprocs: usize) -> f64 {
        if nprocs <= 1 {
            0.0
        } else {
            self.sync_latency_us * (nprocs as f64).log2().ceil()
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::ipsc860()
    }
}

/// A snapshot of one rank's accumulated modeled time, split into communication and
/// computation components.  Subtract two snapshots to attribute time to a program phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeSnapshot {
    /// Modeled communication time in microseconds.
    pub comm_us: f64,
    /// Modeled computation time in microseconds.
    pub compute_us: f64,
}

impl TimeSnapshot {
    /// Total modeled time (communication + computation) in microseconds.
    pub fn total_us(&self) -> f64 {
        self.comm_us + self.compute_us
    }

    /// Element-wise difference `self - earlier`; used to bill a phase.
    pub fn since(&self, earlier: &TimeSnapshot) -> TimeSnapshot {
        TimeSnapshot {
            comm_us: self.comm_us - earlier.comm_us,
            compute_us: self.compute_us - earlier.compute_us,
        }
    }
}

impl std::ops::Add for TimeSnapshot {
    type Output = TimeSnapshot;
    fn add(self, rhs: TimeSnapshot) -> TimeSnapshot {
        TimeSnapshot {
            comm_us: self.comm_us + rhs.comm_us,
            compute_us: self.compute_us + rhs.compute_us,
        }
    }
}

impl std::ops::AddAssign for TimeSnapshot {
    fn add_assign(&mut self, rhs: TimeSnapshot) {
        self.comm_us += rhs.comm_us;
        self.compute_us += rhs.compute_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine_in_bytes() {
        let m = CostModel::uniform(10.0, 2.0, 1.0);
        assert_eq!(m.message_cost_us(0), 10.0);
        assert_eq!(m.message_cost_us(5), 20.0);
        assert_eq!(m.message_cost_us(100), 210.0);
    }

    #[test]
    fn sync_cost_scales_logarithmically() {
        let m = CostModel {
            sync_latency_us: 10.0,
            ..CostModel::uniform(0.0, 0.0, 0.0)
        };
        assert_eq!(m.sync_cost_us(1), 0.0);
        assert_eq!(m.sync_cost_us(2), 10.0);
        assert_eq!(m.sync_cost_us(8), 30.0);
        assert_eq!(m.sync_cost_us(128), 70.0);
        // Non power of two rounds up.
        assert_eq!(m.sync_cost_us(5), 30.0);
    }

    #[test]
    fn snapshot_arithmetic() {
        let a = TimeSnapshot {
            comm_us: 5.0,
            compute_us: 7.0,
        };
        let b = TimeSnapshot {
            comm_us: 2.0,
            compute_us: 3.0,
        };
        let d = a.since(&b);
        assert_eq!(d.comm_us, 3.0);
        assert_eq!(d.compute_us, 4.0);
        assert_eq!((a + b).total_us(), 17.0);
        let mut c = a;
        c += b;
        assert_eq!(c.total_us(), 17.0);
    }

    #[test]
    fn ipsc860_defaults_are_sane() {
        let m = CostModel::ipsc860();
        // Latency should dominate tiny messages, bandwidth large ones.
        assert!(m.message_cost_us(8) < 2.0 * m.message_latency_us);
        assert!(m.message_cost_us(1_000_000) > 100.0 * m.message_latency_us);
    }
}
