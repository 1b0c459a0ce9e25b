//! # fortrand — compile-time support for adaptive irregular problems
//!
//! Section 5 of the paper proposes Fortran D / HPF language extensions for adaptive
//! irregular problems — irregular `DISTRIBUTE(map)` distributions, `FORALL` loops with
//! `REDUCE(SUM, …)` reductions, and a new `REDUCE(APPEND, …)` intrinsic that tells the
//! compiler a data movement is an unordered append so it can generate light-weight-schedule
//! code — and evaluates a prototype implementation in the Syracuse Fortran 90D compiler.
//!
//! This crate is that prototype's analogue: a small front end for the language subset used
//! in Figures 7–11, a lowering pass that turns each `FORALL` into an inspector/executor
//! plan over the CHAOS runtime — its body compiled to slot-indexed register code — and an
//! SPMD executor that runs the lowered program on the [`mpsim`] machine — the moral
//! equivalent of running the compiler-generated node program.  Tables 6 and 7 compare
//! programs executed this way against the hand-written parallelisations in the `charmm`
//! and `dsmc` crates.
//!
//! ## Pipeline
//!
//! ```text
//!  source text ── lexer ──> tokens ── parser ──> ast::Program
//!       ── lower ──> lower::LoweredProgram (per-FORALL inspector/executor plans;
//!          code::compile_loop resolves every name to a slot and emits code::Code)
//!       ── opt ──> fused schedule groups, hoisted builds, split-phase overlap
//!          (`compile` is these four stages in one call — the one compile entry point)
//!       ── interp::Executor ──> runs on mpsim + chaos (SPMD): the inspector pass
//!          runs each loop's Code to list its references and localizes them into
//!          per-subscript u32 streams; the executor pass runs the same Code over
//!          the streams; every sum loop runs as a schedule group
//!       └─ analysis ──> static collective-matching check (rank-dependent IFs,
//!          split-phase balance); CLI wrapper in `src/bin/fortrand_check.rs`
//! ```
//!
//! ## Simplifications relative to a full HPF compiler (documented in DESIGN.md)
//!
//! * arrays are one-dimensional (the paper's loop templates are expressible this way);
//! * `INTEGER` arrays (indirection arrays, map arrays) are replicated on every processor,
//!   as the Fortran 90D prototype replicated its maparrays;
//! * the host program drives the outer time-step loop and tells the executor when an
//!   indirection array has been modified (statement S of Figure 2); the executor then
//!   regenerates schedules, otherwise it reuses them — the record-keeping described in
//!   §5.3.1.

pub mod analysis;
pub mod ast;
pub mod code;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod opt;
pub mod parser;

pub use analysis::{check_source, Finding, OpNode};
pub use ast::{DistSpec, Program, ReduceOp};
pub use interp::Executor;
pub use lower::{LoopKind, LoweredProgram};
pub use opt::{optimize, OptDiag, OptReport, OptRule};

/// The compiler in one call: tokenize, parse, lower and optimize.  Returns the program
/// the executor runs (fused exchanges, hoisted schedule builds, split-phase overlap)
/// and the report explaining every decision the optimizer took or declined.
pub fn compile(source: &str) -> Result<(LoweredProgram, OptReport), String> {
    let tokens = lexer::tokenize(source)?;
    let program = parser::parse(&tokens)?;
    Ok(opt::optimize(&lower::lower(&program)?))
}
