//! Pool smoke tests: the zero-allocation steady state of the exchange engine.
//!
//! These pin the property the engine's buffer pool exists for — after a warm-up window,
//! the steady-state executor loops (the shape of every time-stepped application in the
//! paper) pack every outgoing message into a buffer drawn from the pool, and every
//! received buffer goes back to it, so nothing fresh is allocated.  The one sanctioned
//! exception is `scatter_append`, whose placement takes ownership of its payloads
//! (`Placed::into_vec`) — its pool allocations are the application's data, not engine
//! overhead.  The counters come from `mpsim::Rank::pool_stats` (the one typed pool counts
//! into its `decode_*` fields) via the `chaos-bench exchange` harnesses.

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
    }
}

#[test]
fn gather_scatter_steady_state_allocates_no_pack_buffers() {
    // Both directions of the 8-rank loop: every send packs into a pooled buffer, every
    // receive places through a borrowed view and returns its buffer to the pool.
    let r = gather_scatter_steady(&cfg());
    assert!(
        r.exchange.msgs_sent > 0 && r.exchange.msgs_received > 0,
        "the loop must actually communicate"
    );
    assert_eq!(
        r.pool_steady.decode_allocations, 0,
        "steady-state gather/scatter drew a fresh buffer: {:?}",
        r.pool_steady
    );
    assert!(
        r.pool_steady.decode_reuses > 0,
        "steady-state loop should be served from the pool"
    );
    assert!(steady_state_violations(std::slice::from_ref(&r)).is_empty());
}

#[test]
fn scatter_append_steady_state_allocates_no_pack_buffers() {
    // The append keeps its payloads (`Placed::into_vec`), so the pool allocates one
    // buffer per kept message; the schedule build's count negotiation and every send
    // beyond that must be served from the pool.
    let r = scatter_append_steady(&cfg());
    assert!(r.exchange.msgs_sent > 0);
    assert!(r.receive_owned);
    assert!(
        r.pool_steady.decode_allocations <= r.exchange.msgs_received,
        "steady-state append (schedule build + scatter_append) allocated more buffers \
         than it kept: {:?}",
        r.pool_steady
    );
}

#[test]
fn remap_values_steady_state_allocates_no_pack_buffers() {
    let r = remap_steady(&cfg());
    assert!(r.exchange.msgs_sent > 0);
    assert_eq!(
        r.pool_steady.decode_allocations, 0,
        "steady-state remap_values drew a fresh buffer: {:?}",
        r.pool_steady
    );
}

#[test]
fn pool_eliminates_at_least_thirty_percent_of_baseline_allocations() {
    // The acceptance bar of the perf issue: ≥ 30% fewer allocations than the pool-less
    // baseline (one allocation per buffer request) on the 8-rank gather/scatter loop.
    let pool = gather_scatter_steady(&cfg()).pool_total;
    let baseline = pool.decode_requests();
    let reduction_pct = 100.0 * pool.decode_reuses as f64 / baseline as f64;
    assert!(
        reduction_pct >= 30.0,
        "expected ≥ 30% fewer allocations than baseline, got {reduction_pct:.1}% ({} of \
         {baseline})",
        pool.decode_allocations,
    );
}
