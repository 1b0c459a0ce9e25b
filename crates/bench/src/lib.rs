//! Benchmark harnesses reproducing the evaluation of the SC'94 CHAOS paper.
//!
//! Every measured artifact in the paper's evaluation section is a table (Figures 1–11 are
//! code fragments and diagrams); each table has a generator in [`tables`] that sets up the
//! corresponding workload, runs it on the simulated machine over a sweep of processor
//! counts, and prints rows in the same format as the paper.
//!
//! Absolute numbers are *modeled* times from [`mpsim::CostModel`] (an iPSC/860-class
//! latency/bandwidth model), not wall-clock; the workloads are also scaled down from the
//! paper's (documented per table, controlled by [`Scale`]) so the whole suite runs in
//! minutes on a laptop.  What is expected to reproduce is the *shape* of each table —
//! which alternative wins, by roughly what factor, and where the trends cross.
//!
//! The crate's one binary, `chaos-bench`, has one subcommand per committed
//! `BENCH_<name>.json` artifact ([`report::SUBCOMMANDS`]), each one [`report::Artifact`]:
//! [`TablesReport`], [`ExchangeReport`], [`AdaptReport`], [`DeltaReport`],
//! [`CompilerReport`] and [`LocReport`].  `BENCHMARKS.md` at the repository root documents
//! every schema and gate.

pub mod adapt;
pub mod collective;
pub mod compiler;
pub mod delta;
pub mod loc;
pub mod microbench;
pub mod report;
pub mod tables;
pub mod workloads;

pub use adapt::AdaptReport;
pub use compiler::CompilerReport;
pub use delta::DeltaReport;
pub use loc::LocReport;
pub use microbench::ExchangeReport;
pub use report::Artifact;
pub use tables::{Scale, TablesReport};
