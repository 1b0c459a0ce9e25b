//! Exhaustive model checking for the `mpsim` shared-memory transport protocols.
//!
//! The production transport (`mpsim::shared`) runs two lock-free protocols — the
//! Lamport SPSC ring and the doorbell sleep/publish/rescan handshake.  Their step
//! logic lives in `mpsim::proto` as small functions generic over a sync layer;
//! production binds them to `std::sync::atomic`, this crate binds them to an
//! instrumented memory model and explores **all** interleavings at bounded sizes.
//!
//! The pieces:
//!
//! - [`engine`] — the memory model (per-location store histories, per-thread views,
//!   release/acquire view joins, a deliberately weak `SeqCst` approximation) and the
//!   replay-tape DFS scheduler with partial-order pruning (yield pruning, forced
//!   fresh reads, store GC, state memoization).
//! - [`model`] — [`model::Cell`] implementing the `mpsim::proto` cell traits over an
//!   [`engine::Exec`], plus `MRing`/`MBell` mirroring the production structures one
//!   field per modeled location.
//! - [`scenarios`] — the protocol roles as explicit state machines and the
//!   `check_*` entry points, each with seeded-bug variants the checker must catch.
//!
//! Checked properties: per-pair FIFO with no lost/duplicated/uninitialised items
//! (ring), no lost wakeup (doorbell), and termination of every interleaving (deadlock
//! and livelock detection in the scheduler).

#![deny(missing_docs)]

pub mod engine;
pub mod model;
pub mod scenarios;

pub use engine::{explore, Exec, ModelThread, Report, Step, Violation};
pub use scenarios::{check_doorbell, check_ring, check_ring_relaxed_publish_bug, DoorbellVariant};

#[cfg(test)]
mod tests {
    use super::*;

    // -- ring ---------------------------------------------------------------

    #[test]
    fn ring_capacity2_clean() {
        check_ring(2, 3).assert_clean("spsc ring (capacity 2, 3 items)");
    }

    #[test]
    fn ring_capacity3_clean() {
        check_ring(3, 4).assert_clean("spsc ring (capacity 3, 4 items)");
    }

    #[test]
    fn ring_relaxed_publish_caught() {
        check_ring_relaxed_publish_bug(2, 2)
            .assert_caught("relaxed tail publish", "uninitialised slot read");
    }

    // -- doorbell -----------------------------------------------------------

    #[test]
    fn doorbell_clean() {
        check_doorbell(DoorbellVariant::Correct).assert_clean("doorbell handshake");
    }

    #[test]
    fn doorbell_swapped_announce_caught() {
        check_doorbell(DoorbellVariant::SwappedAnnounce)
            .assert_caught("announce-after-rescan doorbell", "lost wakeup");
    }

    #[test]
    fn doorbell_missing_fence_caught() {
        check_doorbell(DoorbellVariant::MissingFence)
            .assert_caught("fence-elided doorbell", "lost wakeup");
    }

    #[test]
    fn doorbell_check_before_publish_caught() {
        check_doorbell(DoorbellVariant::CheckBeforePublish)
            .assert_caught("check-before-publish doorbell", "lost wakeup");
    }

    // -- release-lane depth (run via `cargo test -p verify --release -- --ignored`) --

    #[test]
    #[ignore = "deep bound: run in the release-mode CI verify lane"]
    fn ring_capacity4_deep() {
        check_ring(4, 6).assert_clean("spsc ring (capacity 4, 6 items)");
    }
}
