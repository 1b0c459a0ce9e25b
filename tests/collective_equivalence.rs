//! Equivalence suite for the log-depth collectives and the monitoring built on them.
//!
//! The tree collectives (dissemination gathers, binomial broadcast, combining-butterfly
//! reductions) are *transport* optimisations: they must deliver the same answers as a
//! flat implementation.  This suite pins that at power-of-two and awkward machine sizes
//! — P = 1, 3, 5, 12 and 48 — so every schedule role (butterfly extras, partial
//! dissemination rounds) is exercised:
//!
//! * gathers and broadcast are **byte-identical** to the flat reference (contributions
//!   indexed by source, in rank order);
//! * reductions with exact combiners (max, min, integer sums, integer-valued float
//!   sums) are byte-identical to a flat rank-order fold;
//! * inexact float sums are byte-identical *machine-wide* — every rank holds the same
//!   bits, the property the replicated remap controllers depend on — and agree with the
//!   flat fold to relative 1e-12;
//! * a [`RemapController`] replicated on every rank makes the identical remap decisions,
//!   on the identical steps, on every rank over a drifting load.

use chaos_suite::chaos::adapt::{RemapController, RemapPolicy};
use chaos_suite::mpsim::{run, MachineConfig};

/// Non-power-of-two heavy: 1 (degenerate), 3 and 5 (butterfly extras), 12 (extras plus
/// multi-round dissemination tails), 48 (six rounds, the last partial).
const MACHINE_SIZES: &[usize] = &[1, 3, 5, 12, 48];

#[test]
fn gathers_and_broadcast_match_the_flat_reference_byte_for_byte() {
    for &nprocs in MACHINE_SIZES {
        let out = run(MachineConfig::new(nprocs), |rank| {
            let me = rank.rank();
            // A value whose bits vary irregularly with the rank.
            let one = rank.all_gather_one((me as f64 + 0.1) * 0.3);
            let slices = rank.all_gather(&vec![(me * me) as u32; me % 4]);
            let bcast = rank.broadcast(rank.nprocs() - 1, &[0.1f64, 0.2, 0.3]);
            (one, slices, bcast)
        });
        let expect_one: Vec<u64> = (0..nprocs)
            .map(|r| ((r as f64 + 0.1) * 0.3).to_bits())
            .collect();
        let expect_slices: Vec<Vec<u32>> =
            (0..nprocs).map(|r| vec![(r * r) as u32; r % 4]).collect();
        for (p, (one, slices, bcast)) in out.results.iter().enumerate() {
            let got: Vec<u64> = one.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect_one, "P={nprocs} rank {p}: all_gather_one");
            assert_eq!(slices, &expect_slices, "P={nprocs} rank {p}: all_gather");
            assert_eq!(bcast, &[0.1, 0.2, 0.3], "P={nprocs} rank {p}: broadcast");
        }
    }
}

#[test]
fn exact_reductions_match_a_flat_rank_order_fold_byte_for_byte() {
    for &nprocs in MACHINE_SIZES {
        let out = run(MachineConfig::new(nprocs), |rank| {
            let me = rank.rank();
            // Integer-valued f64 sums are exact in any association; max/min pick one of
            // the (distinct) inputs.  For all of these the butterfly must reproduce the
            // flat fold bit-for-bit.
            let sum = rank.all_reduce_sum((me * 3 + 1) as f64);
            let max = rank.all_reduce_max((me as f64 - 2.5) * 1.7);
            let min = rank.all_reduce_min((me as f64 - 2.5) * 1.7);
            let usum = rank.all_reduce_sum_usize(me * me + 7);
            (sum, max, min, usum)
        });
        let flat_sum: f64 = (0..nprocs).map(|r| (r * 3 + 1) as f64).sum();
        let flat_max = (0..nprocs)
            .map(|r| (r as f64 - 2.5) * 1.7)
            .fold(f64::NEG_INFINITY, f64::max);
        let flat_min = (0..nprocs)
            .map(|r| (r as f64 - 2.5) * 1.7)
            .fold(f64::INFINITY, f64::min);
        let flat_usum: usize = (0..nprocs).map(|r| r * r + 7).sum();
        for (p, (sum, max, min, usum)) in out.results.iter().enumerate() {
            assert_eq!(
                sum.to_bits(),
                flat_sum.to_bits(),
                "P={nprocs} rank {p}: sum"
            );
            assert_eq!(
                max.to_bits(),
                flat_max.to_bits(),
                "P={nprocs} rank {p}: max"
            );
            assert_eq!(
                min.to_bits(),
                flat_min.to_bits(),
                "P={nprocs} rank {p}: min"
            );
            assert_eq!(usum, &flat_usum, "P={nprocs} rank {p}: usize sum");
        }
    }
}

#[test]
fn inexact_sums_are_byte_identical_machine_wide() {
    for &nprocs in MACHINE_SIZES {
        let out = run(MachineConfig::new(nprocs), |rank| {
            // Deliberately inexact contributions: the butterfly's fixed bracketing may
            // differ from the flat fold in the last ulps, but never across ranks.
            rank.all_reduce_sum(0.1 * (rank.rank() as f64 + 1.0))
        });
        let first = out.results[0];
        for (p, v) in out.results.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                first.to_bits(),
                "P={nprocs} rank {p}: replicated sum diverged"
            );
        }
        let flat: f64 = (0..nprocs).map(|r| 0.1 * (r as f64 + 1.0)).sum();
        assert!(
            (first - flat).abs() <= 1e-12 * flat.abs(),
            "P={nprocs}: butterfly sum {first} strayed from flat fold {flat}"
        );
    }
}

/// Drive one controller per rank over a drifting synthetic load and record, per step,
/// whether it fired a remap.  Returns each rank's fired steps.
fn drifting_decisions(nprocs: usize, nsteps: usize) -> Vec<Vec<usize>> {
    let out = run(MachineConfig::new(nprocs), move |rank| {
        let me = rank.rank();
        let policy = RemapPolicy::Threshold {
            lb_index: 1.25,
            hysteresis: 0.02,
            patience: 3,
        };
        let mut ctrl = RemapController::new(policy);
        let mut fired: Vec<usize> = Vec::new();
        for step in 0..nsteps {
            // Rank-dependent drift: imbalance grows with the step until a remap "fixes"
            // it (the synthetic load restarts from the last fired step).
            let drift = (step - fired.last().copied().unwrap_or(0)) as f64;
            let local = 100.0 + drift * 6.0 * (me as f64 / nprocs.max(1) as f64);
            let decision = ctrl.observe_sample(rank, local);
            if decision.remap {
                fired.push(step);
            }
        }
        fired
    });
    out.results
}

#[test]
fn monitoring_decisions_agree_on_every_rank() {
    for &nprocs in &[3usize, 5, 12, 48] {
        let decisions = drifting_decisions(nprocs, 20);
        for (p, r) in decisions.iter().enumerate() {
            assert_eq!(r, &decisions[0], "P={nprocs} rank {p} diverged");
        }
        assert!(
            !decisions[0].is_empty(),
            "P={nprocs}: drift never fired a remap — the scenario is vacuous"
        );
    }
}
