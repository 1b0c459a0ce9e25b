//! Every product item the benchmark names, in one place.
//!
//! Later PRs are judged by this benchmark and may not edit it, so this file is the
//! surface they must keep compiling.  No other file of the package imports from a
//! product crate; config structs are built with `..ParallelConfig::paper_default(n)` /
//! `..DsmcConfig::lightweight(n, seed)` so that added fields do not break the build.

// mpsim: the machine, its two transports and the raw per-rank counters.
pub use mpsim::{run, ExchangeBackend, MachineConfig, Rank, RunOutcome, TimeSnapshot};

// chaos: distributions and translation (phases A, B), the inspector (phase E), the
// executor (phase F), light-weight schedules and the remap policy.
pub use chaos::adapt::{RemapController, RemapPolicy};
pub use chaos::partitioners::{chain_partition, rcb_partition, rib_partition, PartitionInput};
pub use chaos::{
    almost_owner_computes_replicated, build_remap, gather, gather_finish, gather_multi,
    gather_start, remap_values, scatter_add, scatter_add_multi, scatter_append,
    scatter_append_finish, scatter_append_start, BlockDist, CacheStats, CommSchedule, DistArray,
    IndexHashTable, LightweightSchedule, LocalRef, RegularDist, ScheduleCache, Stamp, StampQuery,
    TranslationTable,
};

// charmm: the hand-parallelised driver, its sequential oracle and the kernels the
// irregular replay calls directly.
pub use charmm::bonds::bond_force;
pub use charmm::integrate::integrate_atom;
pub use charmm::nonbonded::{
    build_neighbor_list, build_neighbor_list_for, pair_force, NeighborList,
};
pub use charmm::parallel::{
    CharmmStepStats, ParallelCharmm, ParallelConfig, PartitionerKind, ScheduleMode,
};
pub use charmm::system::displacement_pbc;
pub use charmm::{MolecularSystem, SequentialCharmm, SystemConfig};

// dsmc: the parallel driver, its sequential oracle and the kernels the particle replay
// calls directly.
pub use dsmc::collide::collide_cell;
pub use dsmc::parallel::{
    initial_owner_map, run_parallel as run_dsmc, DsmcConfig, DsmcStats, RemapStrategy,
};
pub use dsmc::particles::advance;
pub use dsmc::{seed_particles, CellGrid, FlowConfig, Particle, SequentialDsmc};

// fortrand: the pipeline stage by stage (the benchmark never calls the `compile`
// conveniences, so each stage gets its own span) and the interpreter.
pub use fortrand::analysis::{analyze, op_tree};
pub use fortrand::lexer::tokenize;
pub use fortrand::lower::{lower, ExecStep, LoweredProgram};
pub use fortrand::opt::{optimize, OptReport};
pub use fortrand::parser::parse;
pub use fortrand::Executor;
