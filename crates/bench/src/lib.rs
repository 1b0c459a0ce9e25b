//! Benchmark harnesses reproducing the evaluation of the SC'94 CHAOS paper.
//!
//! Every measured artifact in the paper's evaluation section is a table (Figures 1–11 are
//! code fragments and diagrams); each table has a generator in [`tables`] that sets up the
//! corresponding workload, runs it on the simulated machine over a sweep of processor
//! counts, and prints rows in the same format as the paper.  The binaries in `src/bin/`
//! are thin wrappers over these functions; `all_tables` regenerates every table.
//!
//! Absolute numbers are *modeled* times from [`mpsim::CostModel`] (an iPSC/860-class
//! latency/bandwidth model), not wall-clock; the workloads are also scaled down from the
//! paper's (documented per table, controlled by [`Scale`]) so the whole suite runs in
//! minutes on a laptop.  What is expected to reproduce is the *shape* of each table —
//! which alternative wins, by roughly what factor, and where the trends cross.

//!
//! Three machine-readable artifacts make runs comparable across commits (schema documented
//! in `BENCHMARKS.md` at the repository root):
//!
//! * `BENCH_exchange.json` — written by the `exchange_microbench` binary (`--json`):
//!   steady-state engine loops with wall-clock, modeled time, [`mpsim::ExchangeStats`]
//!   counts, and the buffer pool's allocation counters;
//! * `BENCH_tables.json` — written by `all_tables --json`: every paper table's rows plus
//!   per-table wall-clock;
//! * `BENCH_adapt.json` — written by `adapt_scenarios --json`: the remap-policy
//!   comparison of [`adapt`] with per-step load-balance trajectories (no wall-clock, so
//!   CI can gate on two runs being byte-identical);
//! * `BENCH_delta.json` — written by `delta_scenarios --json`: the incremental
//!   schedule-maintenance scenarios of [`delta`] (patch-vs-rebuild cost, byte-identity,
//!   cache lifecycle counters; no wall-clock, byte-identical across runs).  The same
//!   section also rides in `BENCH_exchange.json` so one artifact carries the whole
//!   engine story;
//! * `BENCH_compiler.json` — written by `compiler_parity --json`: the compiler-loop
//!   parity comparison of [`compiler`] (compiled-vs-hand executor message counts for
//!   the CHARMM and DSMC time loops; no wall-clock, byte-identical across runs,
//!   `--check` gates compiled == hand).

pub mod adapt;
pub mod collective;
pub mod compiler;
pub mod delta;
pub mod microbench;
pub mod report;
pub mod tables;
pub mod workloads;

pub use adapt::{AdaptEntry, RampParams};
pub use collective::{CollectiveResult, COLLECTIVE_SWEEP_POINTS};
pub use compiler::ParityEntry;
pub use delta::{DriftEntry, DriftParams, DsmcDeltaEntry, DsmcDeltaParams};
pub use microbench::{MicrobenchConfig, MicrobenchResult};
pub use report::Json;
pub use tables::{Scale, TableOutput};
