//! The repo benchmark.  See `README.md` beside this package's manifest.

pub mod child;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod runs;
pub mod stats;
pub mod surface;
pub mod trace;
pub mod workloads;
