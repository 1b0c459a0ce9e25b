//! Pool smoke tests: the zero-allocation steady state of the exchange engine.
//!
//! These pin the property the engine's buffer pools exist for — after a warm-up window,
//! the steady-state executor loops (the shape of every time-stepped application in the
//! paper) draw every outgoing message buffer from the pack-buffer pool *and* every
//! incoming payload's typed scratch from the decode-scratch pool, allocating nothing
//! fresh in either direction.  The one sanctioned exception is `scatter_append`, whose
//! placement takes ownership of its payloads (`Placed::into_vec`) — its decode
//! allocations are the application's data, not engine overhead.  The counters come from
//! `mpsim::Rank::pool_stats` via the `exchange_microbench` harnesses.

use chaos_bench::microbench::{
    gather_scatter_steady, remap_steady, scatter_append_steady, steady_state_violations,
    MicrobenchConfig,
};

fn cfg() -> MicrobenchConfig {
    MicrobenchConfig {
        ranks: 8,
        warmup_iters: 4,
        measured_iters: 16,
        elements: 1024,
        items_per_rank: 128,
        ..MicrobenchConfig::default()
    }
}

#[test]
fn gather_scatter_steady_state_allocates_no_pack_buffers() {
    let r = gather_scatter_steady(&cfg());
    assert!(
        r.exchange.msgs_sent > 0,
        "the loop must actually communicate"
    );
    assert_eq!(
        r.pool_steady.allocations, 0,
        "steady-state gather/scatter drew a fresh buffer: {:?}",
        r.pool_steady
    );
    assert!(
        r.pool_steady.reuses + r.pool_steady.decode_reuses > 0,
        "steady-state loop should be served from the pools (the shared-memory POD fast \
         path draws from the decode-scratch pool instead of the pack-buffer pool)"
    );
}

#[test]
fn gather_scatter_steady_state_allocates_no_decode_scratch_either() {
    // The receive-side half of the acceptance condition: the 8-rank gather/scatter loop
    // places every incoming payload through a borrowed view, so the decode-scratch pool
    // satisfies every request after warm-up — zero steady-state allocations in *both*
    // directions.
    let r = gather_scatter_steady(&cfg());
    assert!(r.exchange.msgs_received > 0);
    assert_eq!(
        r.pool_steady.decode_allocations, 0,
        "steady-state gather/scatter drew a fresh decode scratch: {:?}",
        r.pool_steady
    );
    assert!(
        r.pool_steady.decode_reuses > 0,
        "steady-state receives should be served from the scratch pool"
    );
    assert!(steady_state_violations(std::slice::from_ref(&r)).is_empty());
}

#[test]
fn scatter_append_steady_state_allocates_no_pack_buffers() {
    let r = scatter_append_steady(&cfg());
    assert!(r.exchange.msgs_sent > 0);
    assert_eq!(
        r.pool_steady.allocations, 0,
        "steady-state append (schedule build + scatter_append) drew a fresh buffer: {:?}",
        r.pool_steady
    );
}

#[test]
fn remap_values_steady_state_allocates_no_pack_buffers() {
    let r = remap_steady(&cfg());
    assert!(r.exchange.msgs_sent > 0);
    assert_eq!(
        r.pool_steady.allocations, 0,
        "steady-state remap_values drew a fresh buffer: {:?}",
        r.pool_steady
    );
    assert_eq!(
        r.pool_steady.decode_allocations, 0,
        "steady-state remap_values drew a fresh decode scratch: {:?}",
        r.pool_steady
    );
}

#[test]
fn pool_eliminates_at_least_thirty_percent_of_baseline_allocations() {
    // The acceptance bar of the perf issue: ≥ 30% fewer allocations than the pool-less
    // baseline (one allocation per buffer request) on the 8-rank gather/scatter loop.
    let r = gather_scatter_steady(&cfg());
    assert!(
        r.allocation_reduction_pct() >= 30.0,
        "expected ≥ 30% fewer allocations than baseline, got {:.1}% ({} of {})",
        r.allocation_reduction_pct(),
        r.pool_total.allocations,
        r.baseline_allocations()
    );
}
