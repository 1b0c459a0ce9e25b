//! # mpsim — a simulated distributed-memory message-passing machine
//!
//! The SC'94 CHAOS paper evaluates its runtime on an Intel iPSC/860 hypercube with up to
//! 128 processors.  This crate provides the substrate that stands in for that machine: an
//! SPMD execution model in which every *rank* runs the same closure on its own OS thread,
//! owns its own private memory, and communicates with other ranks **only** through typed
//! messages.
//!
//! Two kinds of time are tracked:
//!
//! * **Wall-clock** time of the host — irrelevant for reproducing the paper's *tables*
//!   (the host is a shared-memory machine, not a 128-node hypercube).  Messages travel
//!   through one mpsc channel per rank; the benchmark harness reports the
//!   host wall-clock of a run, never the machine itself.
//! * **Modeled** time, accumulated per rank by a [`cost::CostModel`]: every message is
//!   charged a start-up latency plus a per-byte transfer cost, and application code reports
//!   its computational work in abstract *work units* via [`Rank::charge_compute`].  The
//!   model parameters default to iPSC/860-class values so that the relative shapes of the
//!   paper's tables (scaling curves, crossover points, preprocessing-to-execution ratios)
//!   are reproduced on commodity hardware.
//!
//! The communication API is deliberately MPI-flavoured (personalised all-to-all,
//! all-gather, all-reduce, broadcast) because that is the abstraction the original CHAOS
//! library was written against.  There is no barrier: as on the paper's node programs,
//! ranks synchronise only through the collectives they run.  Every collective and every schedule-driven transfer
//! executes on the unified [`exchange`] engine: an [`ExchangePlan`] describes one
//! personalised all-to-all and [`alltoallv_with`] moves the typed buffers, charges the cost
//! model, and reports an [`ExchangeStats`].
//!
//! Every run checks that the ranks start the same operations in the same order: each
//! message carries its sender's [`ledger`] digest of the operations it has started, and
//! the first message between two ranks whose histories differ panics naming both.
//!
//! ## Quick example
//!
//! ```
//! use mpsim::{MachineConfig, run};
//!
//! // Four ranks each contribute their rank id; the sum is reduced everywhere.
//! let outcome = run(MachineConfig::new(4), |rank| {
//!     rank.all_reduce_sum(rank.rank() as f64)
//! });
//! assert!(outcome.results.iter().all(|&s| s == 6.0));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
mod comm;
pub mod cost;
pub mod exchange;
pub mod ledger;
pub mod machine;
pub mod message;
pub mod stats;
pub mod topology;

pub use cost::{CostModel, TimeSnapshot};
pub use exchange::{
    alltoallv_with, route_sparse, start_alltoallv_with, ExchangeHandle, ExchangePlan,
    ExchangeStats, PackBuf, Placed, RecvSpec,
};
pub use machine::{run, Rank, RunOutcome};
pub use message::Element;
pub use stats::{PackPoolStats, RankStats};
pub use topology::{tree_rounds, ExchangeBackend, MachineConfig};
