//! # chaos — runtime support for adaptive irregular problems
//!
//! A Rust reproduction of the **CHAOS** runtime library described in
//! *"Run-time and compile-time support for adaptive irregular problems"*
//! (Sharma, Ponnusamy, Moon, Hwang, Das, Saltz — Supercomputing '94).  CHAOS subsumes the
//! earlier PARTI library: it supports the classic inspector/executor pattern for *static*
//! irregular loops and adds the machinery that *adaptive* applications need — cheap
//! schedule regeneration through a reusable stamped hash table, light-weight schedules for
//! order-insensitive data movement, and dynamic repartitioning/remapping of data and loop
//! iterations.
//!
//! The library is written against the [`mpsim`] simulated distributed-memory machine; every
//! collective operation takes a `&mut mpsim::Rank` and must be called by all ranks of the
//! machine (SPMD style), exactly as the original CHAOS procedures were called from
//! node programs on the Intel iPSC/860.
//!
//! ## The six phases (Figure 4 of the paper)
//!
//! | Phase | What it does | Where it lives |
//! |-------|--------------|----------------|
//! | A — data partitioning      | decide which processor owns each data-array element | [`partitioners`] |
//! | B — data remapping         | move data arrays to the new distribution | [`remap`] |
//! | C — iteration partitioning | decide which processor executes each loop iteration | [`iteration`] |
//! | D — iteration remapping    | move indirection-array slices to the executing processor | [`remap`] |
//! | E — inspector              | translate indices through the replicated [`translation`] table, build communication schedules | [`index_hash`], [`inspector`], [`cache`], [`schedule`] |
//! | F — executor               | gather/scatter/scatter_append data and run the loop | [`executor`] |
//!
//! ## Quick example: the irregular loop of Figure 1
//!
//! ```
//! use chaos::prelude::*;
//! use mpsim::{run, MachineConfig};
//!
//! // x(ia(i)) = x(ia(i)) + y(ib(i)) over a block-distributed x, y.
//! let n = 64;
//! let ia: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
//! let ib: Vec<usize> = (0..n).map(|i| (i * 13 + 5) % n).collect();
//! let out = run(MachineConfig::new(4), move |rank| {
//!     let dist = BlockDist::new(n, rank.nprocs());
//!     let ttable = TranslationTable::replicated_from_block(&dist);
//!     // This rank executes the block of iterations it owns.
//!     let iters: Vec<usize> = dist.local_globals(rank.rank()).collect();
//!     let my_ia: Vec<usize> = iters.iter().map(|&i| ia[i]).collect();
//!     let my_ib: Vec<usize> = iters.iter().map(|&i| ib[i]).collect();
//!
//!     let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
//!     let la = hash.hash_in_replicated(rank, &ttable, &my_ia, Stamp::new(0));
//!     let lb = hash.hash_in_replicated(rank, &ttable, &my_ib, Stamp::new(1));
//!     let both = StampQuery::any_of(&[Stamp::new(0), Stamp::new(1)]);
//!     let sched = build_schedule_from_table(rank, &hash, both);
//!
//!     let mut x = DistArray::new(vec![1.0f64; dist.local_size(rank.rank())], sched.ghost_len());
//!     let mut y = DistArray::new(
//!         iters.iter().map(|&i| i as f64).collect::<Vec<_>>(),
//!         sched.ghost_len(),
//!     );
//!     gather(rank, &sched, &mut y);
//!     for (a, b) in la.iter().zip(&lb) {
//!         let v = y[*b];
//!         x[*a] += v;
//!     }
//!     scatter_add(rank, &sched, &mut x);
//!     x.owned().to_vec()
//! });
//! assert_eq!(out.results.len(), 4);
//! ```

#![deny(missing_docs)]

pub mod adapt;
pub mod cache;
pub mod darray;
pub mod distribution;
pub mod error;
pub mod executor;
pub mod index_hash;
pub mod inspector;
pub mod iteration;
pub mod loadbalance;
pub mod loops;
pub mod maintained;
pub mod partitioners;
pub mod remap;
pub mod schedule;
pub mod translation;

/// A global (pre-distribution) array index.
pub type Global = usize;
/// A processor (rank) identifier.
pub type ProcId = usize;

pub use adapt::{RemapController, RemapDecision, RemapPolicy};
pub use cache::{CacheOutcome, CacheStats, ScheduleCache};
pub use darray::{DistArray, LocalRef};
pub use distribution::{BlockDist, CyclicDist, RegularDist};
pub use error::ChaosError;
pub use executor::{
    gather, gather_finish, gather_multi, gather_start, scatter_add, scatter_add_multi,
    scatter_append, scatter_append_finish, scatter_append_start, AppendHandle, GatherHandle,
};
pub use index_hash::{IndexHashTable, ScheduleKey, Stamp, StampQuery};
pub use inspector::build_schedule_from_table;
pub use iteration::{
    almost_owner_computes_replicated, owner_computes_replicated, IterationPartition,
};
pub use loadbalance::load_balance_index;
pub use loops::LoopGroup;
pub use maintained::PatchStats;
pub use remap::{build_remap, remap_indices, remap_values, RemapPlan};
pub use schedule::{CommSchedule, LightweightSchedule};
pub use translation::{Loc, TranslationTable};

/// Commonly used items, re-exported for `use chaos::prelude::*`.
pub mod prelude {
    pub use crate::adapt::{RemapController, RemapDecision, RemapPolicy};
    pub use crate::cache::{CacheOutcome, CacheStats, ScheduleCache};
    pub use crate::darray::{DistArray, LocalRef};
    pub use crate::distribution::{BlockDist, CyclicDist, RegularDist};
    pub use crate::executor::{
        gather, gather_finish, gather_multi, gather_start, scatter_add, scatter_add_multi,
        scatter_append, scatter_append_finish, scatter_append_start, AppendHandle, GatherHandle,
    };
    pub use crate::index_hash::{IndexHashTable, ScheduleKey, Stamp, StampQuery};
    pub use crate::inspector::build_schedule_from_table;
    pub use crate::iteration::{
        almost_owner_computes_replicated, owner_computes_replicated, IterationPartition,
    };
    pub use crate::loadbalance::load_balance_index;
    pub use crate::loops::LoopGroup;
    pub use crate::maintained::PatchStats;
    pub use crate::partitioners::{chain_partition, rcb_partition, rib_partition, PartitionInput};
    pub use crate::remap::{build_remap, remap_indices, remap_values, RemapPlan};
    pub use crate::schedule::{CommSchedule, LightweightSchedule};
    pub use crate::translation::{Loc, TranslationTable};
    pub use crate::{Global, ProcId};
}
