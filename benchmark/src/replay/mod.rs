//! The replay drivers: the applications' phase order rebuilt from public layer
//! functions, with a span around each call.  Nothing here is called by the product.

pub mod compiled;
pub mod irregular;
pub mod particles;

use crate::surface::{CacheStats, TimeSnapshot};

/// What one rank of a benchmark-owned driver (`compiled_charmm`, `inspector_drift`)
/// returns about its inspector and executor, as the product drivers return theirs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopTotals {
    pub inspector: TimeSnapshot,
    pub executor: TimeSnapshot,
    pub executor_msgs: u64,
    pub executor_bytes: u64,
    pub cache: CacheStats,
}
