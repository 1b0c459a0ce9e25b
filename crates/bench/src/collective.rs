//! Collective-operation scaling sweep (`BENCH_exchange.json`, `collective_sweep`).
//!
//! The application-shaped loops of [`crate::microbench`] stop telling us anything new
//! past a few dozen host threads — their message counts grow with P² and the simulator
//! runs them for real.  The collectives are different: after the log-depth rewrite
//! ([`mpsim::topology`]) every one of them is O(log P) messages *per rank*, so the
//! machine itself can scale from the paper's P = 32 to P = 1024 and the sweep stays
//! cheap.  This module runs each collective shape at every point of
//! [`COLLECTIVE_SWEEP_POINTS`] and records, per iteration:
//!
//! * **modeled time** (max over ranks) — the simulated cost of the operation;
//! * **messages per rank** (max over ranks of messages *sent*) — the wire truth the
//!   log-depth claim is about.
//!
//! Three shapes are swept:
//!
//! * `all_gather` — [`mpsim::Rank::all_gather_one`], one `u64` contributed per rank.
//!   Exactly `ceil(log2 P)` messages per rank; its *payload* is Θ(P) by definition
//!   (every rank ends holding P values), so its modeled time is excluded from the
//!   constant-ratio time gate and pinned through its message count instead.  It is also
//!   the whole communication of one monitored step of
//!   [`chaos::adapt::RemapController::observe_sample`].
//! * `all_reduce` — [`mpsim::Rank::all_reduce_sum`] of one `f64` on the combining
//!   butterfly.  At most `ceil(log2 P)` messages per rank, O(1) payload per round.
//! * `negotiate` — [`mpsim::ExchangePlan::negotiate`] of a two-neighbour ring halo
//!   (the sparse-neighbourhood pattern of the DSMC MOVE phase: a constant number of
//!   silent pairs never materialises dense O(P) state).  `ceil(log2 P)` messages per
//!   rank regardless of P.
//!
//! [`collective_scaling_violations`] is the `--check` gate: every shape must send
//! exactly `ceil(log2 P)` messages per rank (max over ranks), and the O(1)-payload
//! shapes' modeled per-iteration time at the largest point must stay within
//! [`MAX_TIME_RATIO`] of the smallest — the ratio a log-depth
//! implementation predicts (`log2 1024 / log2 32 = 2`, with headroom), and one any
//! linear-depth implementation (ratio 32) fails by an order of magnitude.

use std::time::Instant;

use mpsim::{run, tree_rounds, ExchangePlan, MachineConfig};

use crate::report::Json;

/// Machine sizes of the collective sweep: the paper's largest iPSC/860 runs use 128
/// nodes; the log-depth collectives carry the simulated machine to 1024.
pub const COLLECTIVE_SWEEP_POINTS: &[usize] = &[32, 64, 128, 256, 512, 1024];

/// Thread stack size for the large-P machines: the collectives recurse shallowly and
/// keep per-rank state small, so 512 KiB per rank holds a 1024-rank machine in half a
/// gigabyte instead of the 8 GiB the default stacks would reserve.
pub const SWEEP_STACK_BYTES: usize = 512 * 1024;

/// Measured iterations per sweep point (after one warm-up iteration).
pub const SWEEP_ITERS: usize = 4;

/// Largest-vs-smallest modeled-time ratio the O(1)-payload shapes must stay under.
/// Log-depth predicts `ceil(log2 Pmax) / ceil(log2 Pmin)` (= 2 for 32 → 1024); 2.5
/// leaves headroom for the constant terms while any O(P) term fails immediately.
pub const MAX_TIME_RATIO: f64 = 2.5;

/// One collective shape measured at one machine size.
#[derive(Debug, Clone)]
pub struct CollectiveResult {
    /// Shape name: `all_gather`, `all_reduce` or `negotiate`.
    pub name: &'static str,
    /// Machine size.
    pub ranks: usize,
    /// Measured iterations (one warm-up iteration is excluded).
    pub measured_iters: usize,
    /// Host wall-clock of the whole run (setup + warm-up + measured), milliseconds.
    pub wall_ms: f64,
    /// Modeled time per iteration, max over ranks (µs).
    pub modeled_us_per_iter: f64,
    /// Messages sent per rank per iteration, max over ranks.
    pub msgs_per_rank_iter: u64,
    /// `ceil(log2 P)` — the round count the log-depth schedules predict.
    pub tree_rounds: usize,
    /// Whether the shape moves O(1) payload per rank, making its modeled time subject
    /// to the constant-ratio gate (`all_gather` replicates Θ(P) data by definition).
    pub constant_payload: bool,
}

impl CollectiveResult {
    /// Render as one entry of the `collective_sweep` array.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("ranks", Json::uint(self.ranks as u64)),
            ("measured_iters", Json::uint(self.measured_iters as u64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("modeled_us_per_iter", Json::Num(self.modeled_us_per_iter)),
            ("msgs_per_rank_iter", Json::uint(self.msgs_per_rank_iter)),
            ("tree_rounds", Json::uint(self.tree_rounds as u64)),
            ("constant_payload", Json::Bool(self.constant_payload)),
        ])
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<13} {:>5} ranks  {:>2} msgs/rank/iter (log2 = {:>2})  modeled {:>9.1} us/iter  \
             wall {:>8.2} ms",
            self.name,
            self.ranks,
            self.msgs_per_rank_iter,
            self.tree_rounds,
            self.modeled_us_per_iter,
            self.wall_ms,
        )
    }
}

/// Run `iter` on a P-rank machine — one warm-up pass, then [`SWEEP_ITERS`] measured —
/// and fold the per-rank modeled-time and sent-message deltas into a result.
fn measure<F>(name: &'static str, ranks: usize, constant_payload: bool, iter: F) -> CollectiveResult
where
    F: Fn(&mut mpsim::Rank, usize) + Send + Sync + 'static,
{
    let start = Instant::now();
    let outcome = run(
        MachineConfig::new(ranks).with_stack_size(SWEEP_STACK_BYTES),
        move |rank| {
            iter(rank, 0);
            let t0 = rank.modeled();
            let msgs0 = rank.stats().msgs_sent;
            for k in 1..=SWEEP_ITERS {
                iter(rank, k);
            }
            let dt = rank.modeled().since(&t0).total_us();
            (dt, rank.stats().msgs_sent - msgs0)
        },
    );
    let modeled = outcome.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let msgs = outcome.results.iter().map(|r| r.1).max().unwrap_or(0);
    CollectiveResult {
        name,
        ranks,
        measured_iters: SWEEP_ITERS,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        modeled_us_per_iter: modeled / SWEEP_ITERS as f64,
        msgs_per_rank_iter: msgs / SWEEP_ITERS as u64,
        tree_rounds: tree_rounds(ranks),
        constant_payload,
    }
}

/// Sweep every collective shape over the given machine sizes (tests use a short list;
/// the artifact uses [`COLLECTIVE_SWEEP_POINTS`]).
pub fn collective_sweep_at(points: &[usize]) -> Vec<CollectiveResult> {
    let mut out = Vec::new();
    for &p in points {
        out.push(measure("all_gather", p, false, |rank, k| {
            let v = rank.all_gather_one((rank.rank() + k) as u64);
            std::hint::black_box(&v);
        }));
        out.push(measure("all_reduce", p, true, |rank, k| {
            let s = rank.all_reduce_sum(rank.rank() as f64 + k as f64);
            std::hint::black_box(s);
        }));
        out.push(measure("negotiate", p, true, |rank, k| {
            // The DSMC MOVE halo shape: every rank talks to its two ring neighbours,
            // everyone else stays silent.  Counts vary with `k` so the plan cannot be
            // cached away.
            let n = rank.nprocs();
            let me = rank.rank();
            let mut counts = vec![0usize; n];
            counts[(me + 1) % n] = 5 + k;
            counts[(me + n - 1) % n] = 7 + k;
            let plan = ExchangePlan::negotiate(rank, counts);
            std::hint::black_box(&plan);
        }));
    }
    out
}

/// The `--check` gate over a sweep: message counts must match the log-depth schedules,
/// and the O(1)-payload shapes' modeled time must grow no faster than `ceil(log2 P)`
/// predicts (largest point within [`MAX_TIME_RATIO`] of the smallest).  Returns one
/// message per violation; empty means the machine scales.
pub fn collective_scaling_violations(results: &[CollectiveResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in results {
        // Every shape sends exactly one message per round.
        let (msgs, rounds) = (r.msgs_per_rank_iter, r.tree_rounds as u64);
        if msgs != rounds {
            violations.push(format!(
                "{} (P={}): {msgs} msgs/rank/iter, expected exactly ceil(log2 P) = {rounds}",
                r.name, r.ranks
            ));
        }
    }
    // Time gate: per shape, largest point vs smallest point.
    let mut timed: Vec<&CollectiveResult> = results.iter().filter(|r| r.constant_payload).collect();
    timed.sort_by_key(|r| (r.name, r.ranks));
    for shape in timed.chunk_by(|a, b| a.name == b.name) {
        let (first, last) = (shape[0], shape[shape.len() - 1]);
        let ratio = last.modeled_us_per_iter / first.modeled_us_per_iter;
        if first.ranks < last.ranks && ratio > MAX_TIME_RATIO {
            violations.push(format!(
                "{}: modeled time grew {ratio:.2}x from P={} to P={} \
                 (log-depth bound is {MAX_TIME_RATIO})",
                first.name, first.ranks, last.ranks
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_message_counts_are_logarithmic() {
        // Small points keep the unit test fast; the binary runs the full sweep.
        let results = collective_sweep_at(&[4, 8, 16]);
        assert_eq!(results.len(), 9);
        let violations = collective_scaling_violations(&results);
        assert!(violations.is_empty(), "{violations:?}");
        for r in &results {
            assert_eq!(r.tree_rounds, tree_rounds(r.ranks));
            assert!(r.modeled_us_per_iter > 0.0);
            assert!(
                matches!(r.name, "all_gather" | "all_reduce" | "negotiate"),
                "unexpected shape {}",
                r.name
            );
            assert_eq!(r.msgs_per_rank_iter, r.tree_rounds as u64);
        }
    }

    #[test]
    fn gate_catches_linear_message_growth() {
        let mut results = collective_sweep_at(&[4]);
        assert!(collective_scaling_violations(&results).is_empty());
        results[1].msgs_per_rank_iter = results[1].ranks as u64 - 1; // all_reduce gone flat
        assert_eq!(collective_scaling_violations(&results).len(), 1);
    }

    #[test]
    fn gate_catches_superlogarithmic_time_growth() {
        let mut results = collective_sweep_at(&[4, 16]);
        assert!(collective_scaling_violations(&results).is_empty());
        let idx = results
            .iter()
            .position(|r| r.name == "negotiate" && r.ranks == 16)
            .unwrap();
        results[idx].modeled_us_per_iter *= 100.0;
        let violations = collective_scaling_violations(&results);
        assert!(
            violations.iter().any(|v| v.contains("negotiate")),
            "{violations:?}"
        );
    }

    #[test]
    fn report_entry_carries_every_field() {
        let r = collective_sweep_at(&[4]).remove(0);
        let text = r.to_json().render_pretty();
        for key in [
            "\"name\"",
            "\"ranks\"",
            "\"modeled_us_per_iter\"",
            "\"msgs_per_rank_iter\"",
            "\"tree_rounds\"",
            "\"constant_payload\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(!r.summary_line().is_empty());
    }
}
