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
//! The crate's one binary, `chaos-bench`, has one subcommand per committed artifact.
//! Each prints its report, writes `BENCH_<name>.json` with `--json [PATH]` and gates its
//! invariants with `--check` (one [`report::Artifact`] each; schemas in `BENCHMARKS.md`
//! at the repository root):
//!
//! * `tables [--only N]` — [`TablesReport`]: every paper table's rows plus per-table
//!   wall-clock;
//! * `exchange` — [`ExchangeReport`]: steady-state engine loops with modeled time,
//!   [`mpsim::ExchangeStats`] counts and the buffer pool's allocation counters, and the
//!   collective scaling sweep; `--check` gates zero steady-state allocations, backend
//!   equivalence and log-depth collectives;
//! * `adapt` — [`AdaptReport`]: the remap-policy comparison of [`adapt`] with per-step
//!   load-balance trajectories (no wall-clock, so CI can gate on two runs being
//!   byte-identical);
//! * `delta` — [`DeltaReport`]: the incremental schedule-maintenance scenarios of
//!   [`delta`] (patch-vs-rebuild cost, byte-identity, cache lifecycle counters; no
//!   wall-clock, byte-identical across runs);
//! * `compiler` — [`CompilerReport`]: the compiler-loop parity comparison of [`compiler`]
//!   (compiled-vs-hand executor message counts for the CHARMM and DSMC time loops; no
//!   wall-clock, byte-identical across runs, `--check` gates compiled == hand);
//! * `loc` — [`LocReport`]: non-test line counts per crate and file (lines above each
//!   file's first `#[cfg(test)]`; byte-identical across runs, a report with no gate).

pub mod adapt;
pub mod collective;
pub mod compiler;
pub mod delta;
pub mod loc;
pub mod microbench;
pub mod report;
pub mod tables;
pub mod workloads;

pub use adapt::{AdaptEntry, AdaptReport, RampParams};
pub use collective::{CollectiveResult, COLLECTIVE_SWEEP_POINTS};
pub use compiler::{CompilerReport, ParityEntry};
pub use delta::{DeltaReport, DriftEntry, DriftParams, DsmcDeltaEntry, DsmcDeltaParams};
pub use loc::LocReport;
pub use microbench::{ExchangeReport, MicrobenchConfig, MicrobenchResult};
pub use report::{Artifact, Json};
pub use tables::{Scale, TableOutput, TablesReport};
