//! Feedback-driven remapping: measured load decides *when* to repartition.
//!
//! Section 4 of the paper evaluates remapping on a fixed cadence (DSMC remaps every 40
//! steps), but motivates the decision with the drift of the measured load-balance index
//! `LB = max_i(t_i) * n / sum_i(t_i)`: remapping is worthwhile once the time lost to
//! imbalance exceeds what the remap costs.  This module closes that loop as a reusable
//! runtime subsystem:
//!
//! * [`RemapPolicy`] — the pluggable decision rules: [`RemapPolicy::Interval`] (the paper's
//!   fixed cadence), [`RemapPolicy::Threshold`] (remap when the LB index crosses a bound,
//!   with hysteresis against thrashing), and [`RemapPolicy::CostBenefit`] (the paper's
//!   drift rule: remap once the compute time lost to imbalance since the last remap
//!   outweighs the measured cost of a remap);
//! * [`RemapController`] — the collective driver: every rank contributes its compute-time
//!   sample through one all-gather (see [`mpsim::Rank::all_gather_one`]), so
//!   every rank evaluates the policy on the *same* per-rank vector and reaches the *same*
//!   deterministic remap/keep decision — no rank may remap alone.
//!
//! A run on the paper's fixed cadence needs no controller: DSMC without a policy and
//! CHARMM decide `step > 0 && step % every == 0` inline and send no monitoring message.
//! The controller serves the runs that sample their load; its
//! [`RemapPolicy::Interval`] is that same cadence for a run that also wants the
//! load-balance trajectory.
//!
//! # Collective discipline
//!
//! [`RemapController::observe_sample`] is collective: every rank of the machine must call
//! it once per step, in the same order relative to other collectives.  A returned
//! [`RemapDecision`] with `remap == true` is *binding* — the controller records the remap
//! in its internal state, so the caller must perform the remap (and should then report its
//! cost via [`RemapController::record_remap`], which is also collective) before the next
//! observation.
//!
//! # Non-finite samples
//!
//! A non-finite sample poisons the step's load-balance index to `NaN` (the contract pinned
//! in [`crate::loadbalance`]); every policy treats a `NaN` index as "keep": a corrupted
//! measurement never triggers (or re-arms) a remap.

use mpsim::Rank;

use crate::loadbalance::load_balance_index;

/// When (and whether) the controller decides to remap.
#[derive(Debug, Clone, PartialEq)]
pub enum RemapPolicy {
    /// Remap every `every` observed steps — the paper's baseline cadence (Table 5 remaps
    /// every 40 steps).  `every == 0` means *never*: the controller still samples and
    /// records the load trajectory but always decides "keep".
    Interval {
        /// Steps between remaps (0 = never remap).
        every: usize,
    },
    /// Remap when the measured load-balance index exceeds `lb_index`.  After a remap the
    /// trigger is disarmed, so an imbalance the partitioner cannot fix does not cause a
    /// remap storm; it re-arms when any of three things happens:
    ///
    /// * the index recovers below `lb_index - hysteresis` — the remap worked, watch for
    ///   the next excursion;
    /// * the index grows past the first post-remap reading by more than `hysteresis` — a
    ///   fresh drift the partitioner has not seen yet (hovering at the post-remap level
    ///   stays disarmed);
    /// * `patience` steps have passed since the remap — the workload has moved even if
    ///   the index has not, so a retry is no longer a repeat (0 disables this escape).
    Threshold {
        /// Load-balance index above which a remap fires (1.0 is perfect balance).
        lb_index: f64,
        /// Dead-band width for the recovery and regrowth re-arm conditions.
        hysteresis: f64,
        /// Steps after which a disarmed trigger re-arms unconditionally (0 = never).
        patience: usize,
    },
    /// The paper's drift rule: remap once the compute time lost to imbalance since
    /// the last remap exceeds what a remap costs.  Each step loses
    /// `max_i(t_i) - avg_i(t_i)` — the time a perfectly balanced distribution would have
    /// recovered — and the monitor accumulates it; the remap cost is the machine-wide
    /// maximum modeled time of the last remap reported through
    /// [`RemapController::record_remap`].  Until one has been recorded,
    /// `assumed_cost_us` stands in (derived, for example, from a
    /// [`crate::remap::RemapPlan`]'s byte volume under the machine's cost model).
    CostBenefit {
        /// Remap-cost estimate (modeled microseconds) used before any remap has been
        /// measured.
        assumed_cost_us: f64,
    },
}

/// A record of measured per-rank compute times.
///
/// Each [`LoadMonitor::record`] call stores the step's load-balance index in the full
/// trajectory and adds the step's *imbalance gain* (`max - mean` of the per-rank times —
/// the per-step compute time a perfect rebalance would recover) to the accumulated loss.
/// Steps with non-finite samples contribute `NaN` to the trajectory and nothing to the
/// loss.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoadMonitor {
    cum_gain_us: f64,
    lb_history: Vec<f64>,
}

impl LoadMonitor {
    /// Record one step's per-rank compute times; returns the step's load-balance index
    /// (`NaN` if any sample is non-finite, per the [`crate::loadbalance`] contract).
    pub fn record(&mut self, per_rank_us: &[f64]) -> f64 {
        let lb = load_balance_index(per_rank_us);
        self.lb_history.push(lb);
        if !per_rank_us.is_empty() && per_rank_us.iter().all(|t| t.is_finite()) {
            let max = per_rank_us.iter().copied().fold(0.0f64, f64::max);
            let mean = per_rank_us.iter().sum::<f64>() / per_rank_us.len() as f64;
            self.cum_gain_us += (max - mean).max(0.0);
        }
        lb
    }

    /// The load-balance index of every recorded step, in order (`NaN` entries mark steps
    /// with non-finite samples).
    pub fn lb_history(&self) -> &[f64] {
        &self.lb_history
    }

    /// Total imbalance loss accumulated since the last [`LoadMonitor::reset_losses`]: the
    /// sum over every observed step of `max - mean` compute microseconds — the compute
    /// time that would have been saved had the machine been perfectly balanced throughout.
    pub fn cum_gain_us(&self) -> f64 {
        self.cum_gain_us
    }

    /// Forget the accumulated loss (the trajectory is kept).  Called after a remap: the
    /// pre-remap imbalance must not argue for remapping the already-remapped
    /// distribution.
    pub fn reset_losses(&mut self) {
        self.cum_gain_us = 0.0;
    }
}

/// One collective remap/keep decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapDecision {
    /// `true` — every rank must now remap (the decision is binding, see the module docs).
    pub remap: bool,
    /// The load-balance index measured this step (`NaN` if a sample was non-finite).
    pub lb_index: f64,
}

/// The collective feedback controller: samples per-rank compute times, evaluates a
/// [`RemapPolicy`], and returns one machine-wide [`RemapDecision`] per step.
#[derive(Debug, Clone)]
pub struct RemapController {
    policy: RemapPolicy,
    monitor: LoadMonitor,
    step: usize,
    last_remap_step: usize,
    armed: bool,
    post_remap_lb: Option<f64>,
    awaiting_baseline: bool,
    last_remap_cost_us: Option<f64>,
}

impl RemapController {
    /// A controller evaluating `policy` over a fresh load record.
    pub fn new(policy: RemapPolicy) -> Self {
        RemapController {
            policy,
            monitor: LoadMonitor::default(),
            step: 0,
            last_remap_step: 0,
            armed: true,
            post_remap_lb: None,
            awaiting_baseline: false,
            last_remap_cost_us: None,
        }
    }

    /// Collective: decide from this rank's sample (modeled microseconds of compute) and
    /// every other rank's.  One `all_gather_one` delivers the same rank-ordered vector to
    /// every rank, so every rank decides alike.
    pub fn observe_sample(&mut self, rank: &mut Rank, local_compute_us: f64) -> RemapDecision {
        self.decide(&rank.all_gather_one(local_compute_us))
    }

    /// The decision core: record the gathered per-rank times and evaluate the policy.
    /// Deterministic — identical inputs yield identical decisions and state transitions on
    /// every rank.  Public so policies can be unit-tested and replayed offline against
    /// recorded trajectories.
    pub fn decide(&mut self, per_rank_us: &[f64]) -> RemapDecision {
        let lb = self.monitor.record(per_rank_us);
        let remap = self.evaluate(lb);
        self.commit(remap);
        RemapDecision {
            remap,
            lb_index: lb,
        }
    }

    /// The policy evaluation on one step's load-balance index, including the lb-driven
    /// state transitions (post-remap baseline capture, Threshold arming).
    fn evaluate(&mut self, lb: f64) -> bool {
        // The first finite reading after a remap is the baseline the Threshold policy measures renewed drift against.
        if self.awaiting_baseline && lb.is_finite() {
            self.post_remap_lb = Some(lb);
            self.awaiting_baseline = false;
        }
        let since = self.step - self.last_remap_step;
        match &self.policy {
            RemapPolicy::Interval { every } => *every > 0 && since >= *every,
            RemapPolicy::Threshold {
                lb_index,
                hysteresis,
                patience,
            } => {
                // Re-arm on recovery (the remap worked; watch for the next excursion), on
                // renewed growth past the post-remap baseline (a drift the partitioner has
                // not seen), or once `patience` steps have gone by (the workload has moved
                // even if the index has not).  Hovering at the post-remap level within the
                // patience window stays disarmed.
                if lb <= lb_index - hysteresis {
                    self.armed = true;
                } else if let Some(base) = self.post_remap_lb {
                    if lb > base + hysteresis {
                        self.armed = true;
                    }
                }
                if *patience > 0 && since >= *patience {
                    self.armed = true;
                }
                self.armed && lb > *lb_index
            }
            RemapPolicy::CostBenefit { assumed_cost_us } => {
                let cost = self.last_remap_cost_us.unwrap_or(*assumed_cost_us);
                self.monitor.cum_gain_us() > cost
            }
        }
    }

    /// End-of-observation bookkeeping for [`RemapController::decide`].  A remap
    /// invalidates the old distribution's accumulated losses, the Threshold arm and the
    /// post-remap baseline.
    fn commit(&mut self, remap: bool) {
        if remap {
            self.last_remap_step = self.step;
            self.armed = false;
            self.post_remap_lb = None;
            self.awaiting_baseline = true;
            self.monitor.reset_losses();
        }
        self.step += 1;
    }

    /// Collective: report what the remap just performed actually cost, so the
    /// [`RemapPolicy::CostBenefit`] policy amortises *measured* cost instead of its
    /// `assumed_cost_us` bootstrap.  `local_modeled_us` is max-reduced across the machine
    /// (a remap is over when its slowest rank is), so every rank stores the same figure.
    /// `_local_bytes_sent` is retired and ignored: no policy reads a remap's byte volume,
    /// so it is no longer summed.  The argument stays so existing callers keep building.
    pub fn record_remap(&mut self, rank: &mut Rank, _local_bytes_sent: u64, local_modeled_us: f64) {
        self.last_remap_cost_us = Some(rank.all_reduce_max(local_modeled_us));
    }

    /// The load-balance index of every observed step, in order.
    pub fn lb_trajectory(&self) -> &[f64] {
        self.monitor.lb_history()
    }

    /// Machine-wide modeled cost of the last recorded remap, if any.
    pub fn last_remap_cost_us(&self) -> Option<f64> {
        self.last_remap_cost_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{run, MachineConfig};

    fn balanced(n: usize) -> Vec<f64> {
        vec![10.0; n]
    }

    fn skewed(n: usize) -> Vec<f64> {
        let mut v = vec![10.0; n];
        v[0] = 10.0 * n as f64;
        v
    }

    #[test]
    fn interval_policy_matches_the_fixed_cadence() {
        // `step % 5 == 0 && step > 0` remapped at steps 5 and 10 over 15 steps; the
        // controller must reproduce exactly that schedule.
        let mut ctrl = RemapController::new(RemapPolicy::Interval { every: 5 });
        let mut remap_steps = Vec::new();
        for step in 0..15 {
            if ctrl.decide(&balanced(4)).remap {
                remap_steps.push(step);
            }
        }
        assert_eq!(remap_steps, vec![5, 10]);
        assert_eq!(ctrl.lb_trajectory().len(), 15);
    }

    #[test]
    fn interval_zero_never_remaps() {
        let mut ctrl = RemapController::new(RemapPolicy::Interval { every: 0 });
        let fired = (0..50).filter(|_| ctrl.decide(&skewed(4)).remap).count();
        assert_eq!(fired, 0);
        // The trajectory is still recorded: interval-0 is the "sample only" configuration.
        assert_eq!(ctrl.lb_trajectory().len(), 50);
    }

    #[test]
    fn threshold_fires_on_imbalance_and_disarms_until_rebalanced() {
        let mut ctrl = RemapController::new(RemapPolicy::Threshold {
            lb_index: 1.5,
            hysteresis: 0.2,
            patience: 0,
        });
        // Balanced: no trigger.
        assert!(!ctrl.decide(&balanced(4)).remap);
        // Skewed (LB = 2.85 for n=4): fires.
        let d = ctrl.decide(&skewed(4));
        assert!(d.remap);
        assert!(d.lb_index > 1.5);
        // Still skewed right after the remap: disarmed, must not thrash.
        assert!(!ctrl.decide(&skewed(4)).remap);
        assert!(!ctrl.decide(&skewed(4)).remap);
        // Falls below 1.5 - 0.2: re-arms (LB of balanced is 1.0) without firing...
        assert!(!ctrl.decide(&balanced(4)).remap);
        // ...and the next excursion fires again.
        assert!(ctrl.decide(&skewed(4)).remap);
    }

    #[test]
    fn threshold_dead_band_blocks_hovering_but_regrowth_refires() {
        let mut ctrl = RemapController::new(RemapPolicy::Threshold {
            lb_index: 1.5,
            hysteresis: 0.2,
            patience: 0,
        });
        assert!(ctrl.decide(&skewed(4)).remap);
        // Post-remap baseline ~ 1.4: hovering in the dead band (above the recovery bound
        // of 1.3, below the trigger) stays disarmed — no thrashing on an imbalance the
        // partitioner could not fully fix.
        let dead_band = vec![14.8, 10.0, 10.0, 7.5];
        let lb = load_balance_index(&dead_band);
        assert!(lb < 1.5 && lb > 1.3);
        assert!(!ctrl.decide(&dead_band).remap);
        assert!(!ctrl.decide(&dead_band).remap);
        // Renewed growth well past the baseline is a drift the partitioner has not seen:
        // the trigger re-arms and fires.
        assert!(ctrl.decide(&skewed(4)).remap);
    }

    #[test]
    fn threshold_patience_rearms_a_stuck_trigger() {
        let mut ctrl = RemapController::new(RemapPolicy::Threshold {
            lb_index: 1.5,
            hysteresis: 0.2,
            patience: 4,
        });
        assert!(ctrl.decide(&skewed(4)).remap);
        // Post-remap the index hovers at its baseline: disarmed, within patience.
        assert!(!ctrl.decide(&skewed(4)).remap);
        assert!(!ctrl.decide(&skewed(4)).remap);
        assert!(!ctrl.decide(&skewed(4)).remap);
        // Four steps after the remap the patience escape re-arms the trigger: the world
        // has moved on, a retry is no longer a repeat.
        assert!(ctrl.decide(&skewed(4)).remap);
    }

    #[test]
    fn cost_benefit_accumulates_losses_until_they_exceed_the_cost() {
        // skewed(4) loses max - mean = 40 - 17.5 = 22.5 us of compute per step; the
        // accumulated loss crosses the 100 us cost on the 5th observation (5 * 22.5).
        let mut ctrl = RemapController::new(RemapPolicy::CostBenefit {
            assumed_cost_us: 100.0,
        });
        let mut fired_at = None;
        for step in 0..10 {
            if ctrl.decide(&skewed(4)).remap {
                fired_at = Some(step);
                break;
            }
        }
        assert_eq!(fired_at, Some(4));
        // The accumulator reset with the remap: a balanced machine never re-fires.
        for _ in 0..10 {
            assert!(!ctrl.decide(&balanced(4)).remap);
        }
    }

    #[test]
    fn cost_benefit_never_remaps_a_balanced_machine() {
        let mut ctrl = RemapController::new(RemapPolicy::CostBenefit {
            assumed_cost_us: 0.0,
        });
        for _ in 0..20 {
            assert!(!ctrl.decide(&balanced(8)).remap);
        }
    }

    #[test]
    fn measured_remap_cost_replaces_the_assumed_bootstrap() {
        let out = run(MachineConfig::new(2), |rank| {
            let mut ctrl = RemapController::new(RemapPolicy::CostBenefit {
                assumed_cost_us: 1e12,
            });
            // Against the absurd bootstrap cost nothing fires...
            let kept = !ctrl.decide(&[100.0, 0.0]).remap;
            // ...but once a cheap measured cost is recorded, the already-accumulated
            // loss (50 us) plus one more step (100 us total) exceeds 60 us.
            ctrl.record_remap(rank, 0, 60.0);
            let fired = ctrl.decide(&[100.0, 0.0]).remap;
            (kept, fired, ctrl.last_remap_cost_us())
        });
        for (kept, fired, cost) in &out.results {
            assert!(*kept);
            assert!(*fired);
            assert_eq!(*cost, Some(60.0));
        }
    }

    #[test]
    fn non_finite_samples_always_keep() {
        for policy in [
            RemapPolicy::Interval { every: 1 },
            RemapPolicy::Threshold {
                lb_index: 1.1,
                hysteresis: 0.1,
                patience: 0,
            },
            RemapPolicy::CostBenefit {
                assumed_cost_us: 0.0,
            },
        ] {
            let mut ctrl = RemapController::new(policy.clone());
            let poisoned = vec![10.0, f64::NAN, 10.0, 10.0];
            let d = ctrl.decide(&poisoned);
            assert!(d.lb_index.is_nan());
            if policy != (RemapPolicy::Interval { every: 1 }) {
                // Threshold and CostBenefit read the measurement: NaN must mean keep.
                assert!(!d.remap, "{policy:?} remapped on a poisoned sample");
            }
            // An infinite sample is poison too.
            let d = ctrl.decide(&[10.0, f64::INFINITY, 10.0, 10.0]);
            assert!(d.lb_index.is_nan());
        }
    }

    #[test]
    fn monitor_accumulates_losses_until_reset() {
        let mut m = LoadMonitor::default();
        for _ in 0..10 {
            m.record(&skewed(4));
        }
        assert_eq!(m.lb_history().len(), 10);
        assert!(
            (m.cum_gain_us() - 225.0).abs() < 1e-9,
            "accumulated loss spans all 10 steps"
        );
        m.record(&[1.0, f64::NAN]);
        assert!(
            (m.cum_gain_us() - 225.0).abs() < 1e-9,
            "a poisoned step adds no loss"
        );
        m.reset_losses();
        assert_eq!(m.cum_gain_us(), 0.0);
        assert_eq!(m.lb_history().len(), 11, "trajectory survives a reset");
    }

    #[test]
    fn monitoring_message_budget() {
        // One monitored step at P = 16 is one dissemination all-gather: every rank sends
        // exactly ceil(log2 16) = 4 messages and returns the same decision.
        let out = run(MachineConfig::new(16), |rank| {
            let mut ctrl = RemapController::new(RemapPolicy::Threshold {
                lb_index: 1.5,
                hysteresis: 0.1,
                patience: 0,
            });
            let s0 = rank.stats().msgs_sent;
            let units = if rank.rank() == 0 { 40.0 } else { 10.0 };
            let d = ctrl.observe_sample(rank, units);
            (rank.stats().msgs_sent - s0, d.remap, d.lb_index.to_bits())
        });
        let (_, remap0, lb0) = out.results[0];
        assert!(remap0, "rank 0's 4x load must trigger the threshold");
        for (r, &(sent, remap, lb)) in out.results.iter().enumerate() {
            assert_eq!(sent, 4, "rank {r} sent {sent} messages in one step");
            assert_eq!((remap, lb), (remap0, lb0), "rank {r} decided differently");
        }
    }

    #[test]
    fn collective_observation_agrees_on_every_rank() {
        // Rank 0 does 4x the compute of the others; with a threshold of 1.5 every rank
        // must reach the same "remap" decision from the same gathered samples.
        let out = run(MachineConfig::new(4), |rank| {
            let mut ctrl = RemapController::new(RemapPolicy::Threshold {
                lb_index: 1.5,
                hysteresis: 0.1,
                patience: 0,
            });
            let units = if rank.rank() == 0 { 400.0 } else { 100.0 };
            let d = ctrl.observe_sample(rank, units);
            let c0 = rank.stats().collectives;
            ctrl.record_remap(rank, 64 * (rank.rank() as u64 + 1), units);
            (
                d,
                rank.stats().collectives - c0,
                ctrl.last_remap_cost_us().unwrap(),
            )
        });
        for (d, reductions, cost) in &out.results {
            assert!(d.remap);
            assert!((d.lb_index - 400.0 * 4.0 / 700.0).abs() < 1e-9);
            // Recording a remap is one reduction; 400 us max-reduced, identical everywhere.
            assert_eq!(*reductions, 1);
            assert_eq!(*cost, 400.0);
        }
    }
}
