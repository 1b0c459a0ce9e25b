//! Adaptive-remapping benchmark scenarios (`BENCH_adapt.json`).
//!
//! The paper remaps DSMC on a fixed cadence; the `chaos::adapt` controller remaps from
//! the *measured* load instead.  Both scenarios run every remap policy on a
//! drifting-density DSMC flow whose load degrades over time, recording per-step
//! load-balance trajectories: the **drift ramp** at one machine size and the **imbalance
//! sweep** over P = 2–16.  Everything recorded is modeled, so two runs produce
//! byte-identical artifacts, which pins the controller's decisions as reproducible.

use chaos::adapt::RemapPolicy;
use dsmc::MoveMode;

use crate::report::{stable_us, Artifact, Json};
use crate::workloads::DriftingDsmc;

/// How many trailing steps the end-of-run load-balance figure averages over (a single
/// step's index is noisy; five smooth it without hiding the trend).
pub const FINAL_LB_WINDOW: usize = 5;

/// The recorded flow at `ranks` ranks, remapping every 6 steps: the cadence of the
/// `interval` baseline policy.
pub fn default_ramp(ranks: usize) -> DriftingDsmc {
    DriftingDsmc::recorded(ranks, 6)
}

/// One policy's measured outcome on a scenario.
#[derive(Debug, Clone)]
pub struct AdaptEntry {
    /// Stable policy identifier: `static`, `interval`, `threshold` or `cost_benefit`.
    pub policy: &'static str,
    /// Simulated machine size.
    pub ranks: usize,
    /// Time steps simulated.
    pub nsteps: usize,
    /// Remapping events performed.
    pub remaps: usize,
    /// Mean load-balance index over the last [`FINAL_LB_WINDOW`] steps.
    pub final_lb: f64,
    /// Mean load-balance index over the whole run.
    pub mean_lb: f64,
    /// Modeled execution time: max over ranks of the summed phase times (microseconds).
    pub max_total_us: f64,
    /// The per-step load-balance index measured by the controller.
    pub lb_trajectory: Vec<f64>,
    /// `(step, machine-wide modeled cost in us)` of every remap performed.
    pub remap_costs: Vec<(usize, f64)>,
}

/// The four policies every scenario compares.  `static` never remaps but still samples
/// (interval 0 is the controller's "measure only" setting); `interval` is the paper's
/// fixed cadence; `threshold` and `cost_benefit` are the feedback policies.
pub fn policy_matrix(params: &DriftingDsmc) -> Vec<(&'static str, RemapPolicy)> {
    let every = params.remap_interval;
    let threshold = RemapPolicy::Threshold {
        lb_index: 1.2,
        hysteresis: 0.05,
        patience: 2 * every,
    };
    let assumed_cost_us = 2_000.0;
    vec![
        ("static", RemapPolicy::Interval { every: 0 }),
        ("interval", RemapPolicy::Interval { every }),
        ("threshold", threshold),
        ("cost_benefit", RemapPolicy::CostBenefit { assumed_cost_us }),
    ]
}

/// The drift-ramp scenario: every policy of [`policy_matrix`] on one flow.
pub fn drift_ramp(params: &DriftingDsmc) -> Vec<AdaptEntry> {
    let run = |(name, policy): (&'static str, RemapPolicy)| {
        let results = params.run(MoveMode::Lightweight, Some(policy));
        let traj = results[0].lb_trajectory.clone();
        debug_assert!(
            results.iter().all(|s| s.lb_trajectory == traj),
            "trajectory must be replicated across ranks"
        );
        // NaN for an empty run: 0 / 0.
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let tail = &traj[traj.len().saturating_sub(FINAL_LB_WINDOW)..];
        AdaptEntry {
            policy: name,
            ranks: params.ranks,
            nsteps: params.nsteps,
            remaps: results[0].remaps,
            final_lb: mean(tail),
            mean_lb: mean(&traj),
            max_total_us: results
                .iter()
                .map(|s| s.phases.total().total_us())
                .fold(0.0, f64::max),
            lb_trajectory: traj,
            remap_costs: results[0].remap_costs.clone(),
        }
    };
    policy_matrix(params).into_iter().map(run).collect()
}

fn entry_json(e: &AdaptEntry) -> Json {
    let trajectory = e.lb_trajectory.iter().map(|&x| Json::Num(x)).collect();
    let costs = e.remap_costs.iter().map(remap_json).collect();
    Json::obj(vec![
        ("policy", Json::str(e.policy)),
        ("ranks", Json::uint(e.ranks as u64)),
        ("nsteps", Json::uint(e.nsteps as u64)),
        ("remaps", Json::uint(e.remaps as u64)),
        ("final_lb", Json::Num(e.final_lb)),
        ("mean_lb", Json::Num(e.mean_lb)),
        ("max_modeled_us", stable_us(e.max_total_us)),
        ("lb_trajectory", Json::Arr(trajectory)),
        ("remap_costs", Json::Arr(costs)),
    ])
}

fn remap_json(&(step, cost): &(usize, f64)) -> Json {
    Json::obj(vec![
        ("step", Json::uint(step as u64)),
        ("modeled_us", stable_us(cost)),
    ])
}

/// The `adapt` artifact: the drift ramp at P = 8 and the imbalance sweep over
/// P = 2, 4, 8 and 16.  Records no wall-clock and snaps modeled times to whole microseconds,
/// so repeated runs are byte-identical — the property CI gates on.
pub struct AdaptReport {
    ramp: Vec<AdaptEntry>,
    sweep: Vec<AdaptEntry>,
}

impl AdaptReport {
    /// Run both scenarios; the sweep runs the flow for 40 steps.
    pub fn generate() -> Self {
        let sweep = [2, 4, 8, 16].map(|p| {
            drift_ramp(&DriftingDsmc {
                nsteps: 40,
                ..default_ramp(p)
            })
        });
        AdaptReport {
            ramp: drift_ramp(&default_ramp(8)),
            sweep: sweep.concat(),
        }
    }
}

impl Artifact for AdaptReport {
    const NAME: &'static str = "adapt";
    const VERSION: u32 = 1;

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let entries = |es: &[AdaptEntry]| Json::Arr(es.iter().map(entry_json).collect());
        vec![
            ("final_lb_window", Json::uint(FINAL_LB_WINDOW as u64)),
            ("drift_ramp", entries(&self.ramp)),
            ("imbalance_sweep", entries(&self.sweep)),
        ]
    }

    /// The acceptance bar of the feedback policies on the P = 8 drift ramp: static never
    /// remaps and interval does; both feedback policies end better balanced than static
    /// with fewer remaps than interval; threshold's final LB is within 5 % of interval's,
    /// cost-benefit's within 25 %, and cost-benefit's total is at most interval's.
    fn violations(&self) -> Vec<String> {
        let entry = |policy| self.ramp.iter().find(|e| e.policy == policy).expect(policy);
        let [s, i, t, c] = ["static", "interval", "threshold", "cost_benefit"].map(entry);
        let (lb, total) = (|e: &AdaptEntry| e.final_lb, |e: &AdaptEntry| e.max_total_us);
        let mut v = Vec::new();
        let mut bar = |ok: bool, broken| v.extend((!ok).then(|| format!("drift ramp: {broken}")));
        bar(s.remaps == 0, "static remaps");
        bar(i.remaps > 0, "interval never remaps");
        bar(lb(t) < lb(s), "threshold LB >= static's");
        bar(lb(c) < lb(s), "cost_benefit LB >= static's");
        bar(t.remaps < i.remaps, "threshold remaps >= interval's");
        bar(c.remaps < i.remaps, "cost_benefit remaps >= interval's");
        bar(lb(t) <= 1.05 * lb(i), "threshold LB > 1.05x interval's");
        bar(lb(c) <= 1.25 * lb(i), "cost_benefit LB > 1.25x interval's");
        bar(total(c) <= total(i), "cost_benefit total > interval's");
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bar `adapt --check` gates, at the committed scale; and the gate fires once an
    /// entry is broken.
    #[test]
    fn feedback_policies_beat_static_and_remap_less_than_interval() {
        let mut report = AdaptReport {
            ramp: drift_ramp(&default_ramp(8)),
            sweep: Vec::new(),
        };
        assert_eq!(report.violations(), Vec::<String>::new());
        let threshold = report.ramp.iter_mut().find(|e| e.policy == "threshold");
        threshold.expect("threshold entry").remaps = 1_000;
        assert_eq!(
            report.violations(),
            vec!["drift ramp: threshold remaps >= interval's".to_string()]
        );
    }

    #[test]
    fn scenario_is_deterministic() {
        // Two identical runs must produce byte-identical reports — the property the CI
        // gate checks at full scale.
        let mut params = default_ramp(4);
        params.nsteps = 12;
        params.nparticles = 800;
        let report = || AdaptReport {
            ramp: drift_ramp(&params),
            sweep: Vec::new(),
        };
        let text = |r: &AdaptReport| crate::report::document(r).render_pretty();
        assert_eq!(text(&report()), text(&report()));
    }

    #[test]
    fn entries_carry_full_trajectories() {
        let mut params = default_ramp(2);
        params.nsteps = 10;
        params.nparticles = 400;
        for e in drift_ramp(&params) {
            assert_eq!(e.lb_trajectory.len(), 10);
            assert!(e
                .lb_trajectory
                .iter()
                .all(|lb| lb.is_finite() && *lb >= 1.0));
            assert!(e.final_lb >= 1.0 && e.mean_lb >= 1.0);
            assert!(e.max_total_us > 0.0);
        }
    }
}
