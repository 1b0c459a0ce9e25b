//! Adaptive-remapping benchmark scenarios (`BENCH_adapt.json`).
//!
//! The paper remaps DSMC on a fixed cadence; the `chaos::adapt` controller remaps from
//! the *measured* load instead.  These scenarios quantify the difference on the workload
//! where it matters — a drifting-density DSMC flow whose load distribution degrades over
//! time — and record per-step load-balance-index trajectories so the artifact shows *how*
//! each policy tracks the drift, not just where it ends up:
//!
//! * **drift ramp** — one machine size, every policy side by side over a long ramp;
//! * **imbalance sweep** — the same comparison over machine sizes P = 2–16.
//!
//! Everything recorded is modeled (deterministic) — no wall-clock — so two runs of the
//! generator produce byte-identical artifacts; CI regenerates the file twice and fails if
//! they differ, which pins the controller's decisions (and the whole simulation behind
//! them) as reproducible.  Schema documented in `BENCHMARKS.md`.

use chaos::adapt::RemapPolicy;
use dsmc::{CellGrid, DsmcConfig, FlowConfig, MoveMode, RemapStrategy};

use crate::report::{stable_us, Artifact, Json};
use crate::workloads::{format_table, run_dsmc};

/// How many trailing steps the end-of-run load-balance figure averages over (a single
/// step's index is noisy; five smooth it without hiding the trend).
pub const FINAL_LB_WINDOW: usize = 5;

/// Parameters of one drifting-density DSMC scenario run.
#[derive(Debug, Clone)]
pub struct RampParams {
    /// Simulated machine size.
    pub ranks: usize,
    /// 2-D cell grid (nx, ny).
    pub grid: (usize, usize),
    /// Total molecules.
    pub nparticles: usize,
    /// Time steps.
    pub nsteps: usize,
    /// Cadence of the `interval` baseline policy.
    pub interval: usize,
    /// Seed shared by flow and collisions.
    pub seed: u64,
}

impl RampParams {
    /// The scale recorded in `BENCH_adapt.json`: long enough for the directional flow to
    /// pile molecules downstream and ramp the static run's imbalance.
    pub fn default_ramp(ranks: usize) -> Self {
        RampParams {
            ranks,
            grid: (32, 8),
            nparticles: 12_000,
            nsteps: 60,
            interval: 6,
            seed: 1994,
        }
    }
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
pub fn policy_matrix(params: &RampParams) -> Vec<(&'static str, RemapPolicy)> {
    vec![
        ("static", RemapPolicy::Interval { every: 0 }),
        (
            "interval",
            RemapPolicy::Interval {
                every: params.interval,
            },
        ),
        (
            "threshold",
            RemapPolicy::Threshold {
                lb_index: 1.2,
                hysteresis: 0.05,
                patience: 2 * params.interval,
            },
        ),
        (
            "cost_benefit",
            RemapPolicy::CostBenefit {
                assumed_cost_us: 2_000.0,
            },
        ),
    ]
}

/// Run one policy on the drifting-density scenario.
pub fn run_policy(
    params: &RampParams,
    policy_name: &'static str,
    policy: RemapPolicy,
) -> AdaptEntry {
    let grid = CellGrid::new_2d(params.grid.0, params.grid.1);
    let flow = FlowConfig::directional(params.seed);
    let config = DsmcConfig {
        nsteps: params.nsteps,
        dt: 0.5,
        move_mode: MoveMode::Lightweight,
        remap: RemapStrategy::Chain,
        remap_interval: params.interval,
        policy: Some(policy),
        monitor_group: None,
        seed: params.seed,
    };
    let out = run_dsmc(params.ranks, grid, flow, params.nparticles, config);
    let traj = out.results[0].lb_trajectory.clone();
    debug_assert!(
        out.results.iter().all(|s| s.lb_trajectory == traj),
        "trajectory must be replicated across ranks"
    );
    let mean = |xs: &[f64]| -> f64 {
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let tail = &traj[traj.len().saturating_sub(FINAL_LB_WINDOW)..];
    AdaptEntry {
        policy: policy_name,
        ranks: params.ranks,
        nsteps: params.nsteps,
        remaps: out.results[0].remaps,
        final_lb: mean(tail),
        mean_lb: mean(&traj),
        max_total_us: out
            .results
            .iter()
            .map(|s| s.phases.total().total_us())
            .fold(0.0, f64::max),
        lb_trajectory: traj,
        remap_costs: out.results[0].remap_costs.clone(),
    }
}

/// The drift-ramp scenario: every policy at one machine size.
pub fn drift_ramp(params: &RampParams) -> Vec<AdaptEntry> {
    policy_matrix(params)
        .into_iter()
        .map(|(name, policy)| run_policy(params, name, policy))
        .collect()
}

/// The imbalance sweep: every policy at every machine size in `ranks`.
pub fn imbalance_sweep(ranks: &[usize]) -> Vec<AdaptEntry> {
    ranks
        .iter()
        .flat_map(|&p| {
            let mut params = RampParams::default_ramp(p);
            params.nsteps = 40;
            drift_ramp(&params)
        })
        .collect()
}

/// Render entries as an aligned human-readable table.
fn format_entries(title: &str, entries: &[AdaptEntry]) -> String {
    let headers = [
        "Policy",
        "Procs",
        "Remaps",
        "Final LB",
        "Mean LB",
        "Exec (ms)",
    ];
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.policy.to_string(),
                e.ranks.to_string(),
                e.remaps.to_string(),
                format!("{:.3}", e.final_lb),
                format!("{:.3}", e.mean_lb),
                format!("{:.2}", e.max_total_us / 1e3),
            ]
        })
        .collect();
    format_table(title, &headers, &rows)
}

fn entry_json(e: &AdaptEntry) -> Json {
    Json::obj(vec![
        ("policy", Json::str(e.policy)),
        ("ranks", Json::uint(e.ranks as u64)),
        ("nsteps", Json::uint(e.nsteps as u64)),
        ("remaps", Json::uint(e.remaps as u64)),
        ("final_lb", Json::Num(e.final_lb)),
        ("mean_lb", Json::Num(e.mean_lb)),
        ("max_modeled_us", stable_us(e.max_total_us)),
        (
            "lb_trajectory",
            Json::Arr(e.lb_trajectory.iter().map(|&x| Json::Num(x)).collect()),
        ),
        (
            "remap_costs",
            Json::Arr(
                e.remap_costs
                    .iter()
                    .map(|&(step, cost)| {
                        Json::obj(vec![
                            ("step", Json::uint(step as u64)),
                            ("modeled_us", stable_us(cost)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `adapt` artifact: the drift ramp at P = 8 and the imbalance sweep over
/// P = 2, 4, 8 and 16.  Records no wall-clock and snaps modeled times to whole microseconds,
/// so repeated runs are byte-identical — the property CI gates on.
pub struct AdaptReport {
    ramp_params: RampParams,
    ramp: Vec<AdaptEntry>,
    sweep: Vec<AdaptEntry>,
}

impl AdaptReport {
    /// Run both scenarios.
    pub fn generate() -> Self {
        let ramp_params = RampParams::default_ramp(8);
        AdaptReport {
            ramp: drift_ramp(&ramp_params),
            sweep: imbalance_sweep(&[2, 4, 8, 16]),
            ramp_params,
        }
    }
}

impl Artifact for AdaptReport {
    const NAME: &'static str = "adapt";
    const VERSION: u32 = 1;

    fn print(&self) {
        let p = &self.ramp_params;
        let title = format!(
            "Drifting-density DSMC ramp ({}x{} cells, {} molecules, {} steps, {} procs)",
            p.grid.0, p.grid.1, p.nparticles, p.nsteps, p.ranks
        );
        println!("{}", format_entries(&title, &self.ramp));
        let title = "Imbalance sweep across machine sizes (P = 2..16)";
        println!("{}", format_entries(title, &self.sweep));
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let entries = |es: &[AdaptEntry]| Json::Arr(es.iter().map(entry_json).collect());
        vec![
            ("final_lb_window", Json::uint(FINAL_LB_WINDOW as u64)),
            ("drift_ramp", entries(&self.ramp)),
            ("imbalance_sweep", entries(&self.sweep)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry<'a>(entries: &'a [AdaptEntry], policy: &str) -> &'a AdaptEntry {
        entries
            .iter()
            .find(|e| e.policy == policy)
            .expect("policy entry missing")
    }

    #[test]
    fn feedback_policies_beat_static_and_remap_less_than_interval() {
        // The acceptance bar of the adapt subsystem, at artifact scale: on the drifting
        // ramp the feedback policies must end better balanced than never remapping, with
        // fewer remaps than the fixed cadence at comparable final imbalance.
        let entries = drift_ramp(&RampParams::default_ramp(8));
        let stat = entry(&entries, "static");
        let interval = entry(&entries, "interval");
        let threshold = entry(&entries, "threshold");
        let cost_benefit = entry(&entries, "cost_benefit");

        assert_eq!(stat.remaps, 0);
        assert!(interval.remaps > 0);
        for feedback in [threshold, cost_benefit] {
            assert!(
                feedback.final_lb < stat.final_lb,
                "{}: final LB {:.3} should beat static {:.3}",
                feedback.policy,
                feedback.final_lb,
                stat.final_lb
            );
            assert!(
                feedback.remaps < interval.remaps,
                "{}: {} remaps should undercut interval's {}",
                feedback.policy,
                feedback.remaps,
                interval.remaps
            );
        }
        // Threshold tracks the fixed cadence's end state with fewer remaps...
        assert!(
            threshold.final_lb <= interval.final_lb * 1.05,
            "threshold final LB {:.3} should equal interval's {:.3}",
            threshold.final_lb,
            interval.final_lb
        );
        // ...while cost-benefit trades a little residual imbalance for the cheapest run:
        // it only remaps when the accumulated loss has already paid for it.
        assert!(
            cost_benefit.final_lb <= interval.final_lb * 1.25,
            "cost-benefit final LB {:.3} drifted too far from interval's {:.3}",
            cost_benefit.final_lb,
            interval.final_lb
        );
        assert!(
            cost_benefit.max_total_us <= interval.max_total_us,
            "cost-benefit total {:.0} us should not exceed interval's {:.0} us",
            cost_benefit.max_total_us,
            interval.max_total_us
        );
    }

    #[test]
    fn scenario_is_deterministic() {
        // Two identical runs must produce byte-identical reports — the property the CI
        // gate checks at full scale.
        let mut params = RampParams::default_ramp(4);
        params.nsteps = 12;
        params.nparticles = 800;
        let report = || AdaptReport {
            ramp: drift_ramp(&params),
            sweep: Vec::new(),
            ramp_params: params.clone(),
        };
        let text = |r: &AdaptReport| crate::report::document(r).render_pretty();
        assert_eq!(text(&report()), text(&report()));
    }

    #[test]
    fn entries_carry_full_trajectories() {
        let mut params = RampParams::default_ramp(2);
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
