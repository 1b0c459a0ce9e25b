//! The names the benchmark emits.  `BENCHMARK.json` declares the same lists; a test
//! holds the two together.

use std::collections::BTreeMap;

/// How the samples of a metric become the one number that is reported and compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The fastest sample.  For wall time on a shared host: other tenants only ever add
    /// time, in episodes that outlast a run, so the fastest sample is the steadiest
    /// estimate of what the program itself costs (ROADMAP item 1 asks for min-of-N).
    Fastest,
    Median,
}

impl Estimator {
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Estimator::Fastest => samples.iter().copied().fold(f64::INFINITY, f64::min),
            Estimator::Median => crate::stats::median(samples),
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// The share of the baseline by which the metric may get worse before a change
    /// counts as a regression.
    pub bound: f64,
    pub estimator: Estimator,
}

/// All four are better lower.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
        estimator: Estimator::Fastest,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        estimator: Estimator::Fastest,
    },
    EndToEnd {
        name: "modeled_s",
        unit: "s",
        bound: 0.12,
        estimator: Estimator::Median,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
        estimator: Estimator::Median,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// From the count run (`MODEL_RANKS`, `Modeled`): the drivers' public return values.
pub const COUNT_LAYERS: [Layer; 26] = [
    layer("mpsim.msgs", "count", "lower"),
    layer("mpsim.bytes", "bytes", "lower"),
    layer("mpsim.collectives", "count", "lower"),
    layer("mpsim.comm_modeled_s", "s", "lower"),
    layer("mpsim.pool_allocs", "count", "lower"),
    layer("mpsim.pool_reuse_ratio", "ratio", "higher"),
    layer("chaos.partition_modeled_s", "s", "lower"),
    layer("chaos.remap_modeled_s", "s", "lower"),
    layer("chaos.inspector_modeled_s", "s", "lower"),
    layer("chaos.executor_modeled_s", "s", "lower"),
    layer("chaos.executor_comm_modeled_s", "s", "lower"),
    layer("chaos.monitor_modeled_s", "s", "lower"),
    layer("chaos.executor_msgs", "count", "lower"),
    layer("chaos.executor_bytes", "bytes", "lower"),
    layer("chaos.schedule_builds", "count", "lower"),
    layer("chaos.cache_served_ratio", "ratio", "higher"),
    layer("chaos.remaps", "count", "lower"),
    layer("chaos.lb_index", "ratio", "lower"),
    layer("charmm.list_update_modeled_s", "s", "lower"),
    layer("charmm.interactions", "count", "lower"),
    layer("dsmc.collide_modeled_s", "s", "lower"),
    layer("dsmc.migrations", "count", "lower"),
    layer("fortrand.ir_steps", "count", "lower"),
    layer("fortrand.opt_applied", "count", "higher"),
    layer("fortrand.schedule_rebuilds", "count", "lower"),
    layer("fortrand.vs_hand_modeled_x", "x", "lower"),
];

/// From the traced replay (`WALL_RANKS`, `SharedMem` or the workload's transport):
/// wall self-time summed over the run, maximum over ranks, and what is derived from it.
pub const TRACE_LAYERS: [Layer; 24] = [
    layer("mpsim.spawn_ms", "ms", "lower"),
    layer("mpsim.collective_ms", "ms", "lower"),
    layer("chaos.partition_ms", "ms", "lower"),
    layer("chaos.translation_ms", "ms", "lower"),
    layer("chaos.remap_ms", "ms", "lower"),
    layer("chaos.hash_ms", "ms", "lower"),
    layer("chaos.schedule_ms", "ms", "lower"),
    layer("chaos.gather_ms", "ms", "lower"),
    layer("chaos.scatter_ms", "ms", "lower"),
    layer("chaos.lightweight_ms", "ms", "lower"),
    layer("chaos.append_ms", "ms", "lower"),
    layer("chaos.exposed_comm_pct", "%", "lower"),
    layer("charmm.kernel_ms", "ms", "lower"),
    layer("charmm.list_ms", "ms", "lower"),
    layer("dsmc.kernel_ms", "ms", "lower"),
    layer("fortrand.parse_ms", "ms", "lower"),
    layer("fortrand.lower_ms", "ms", "lower"),
    layer("fortrand.opt_ms", "ms", "lower"),
    layer("fortrand.check_ms", "ms", "lower"),
    layer("fortrand.interp_ms", "ms", "lower"),
    layer("fortrand.interp_overhead_x", "x", "lower"),
    layer("replay.fidelity", "ratio", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
];

pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    COUNT_LAYERS.iter().chain(&TRACE_LAYERS)
}

/// Spans inside a step in which the rank is in a communication call, for
/// `chaos.exposed_comm_pct`.
pub const COMM_SPANS: [&str; 5] = [
    "chaos.gather",
    "chaos.scatter",
    "chaos.append",
    "chaos.lightweight",
    "mpsim.collective",
];

/// Every per-layer metric, zero where the layer does not run on the workload.
pub fn zeroed_layers() -> BTreeMap<&'static str, f64> {
    per_layer().map(|l| (l.name, 0.0)).collect()
}
