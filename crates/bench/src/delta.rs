//! Incremental schedule-maintenance benchmarks (`BENCH_delta.json`): `chaos::maintained`
//! behind `chaos::cache` in three scenarios.
//!
//! * **schedule drift** — a seeded indirection array drifts a few percent per round; a
//!   one-entry [`ScheduleCache`] patches its schedule forward while a control schedule is
//!   rebuilt from an identical hash table, and the two must stay byte-identical;
//! * **drifting DSMC** — `MoveMode::Patched` with upkeep by patching against upkeep by
//!   rebuilding, remaps included: the physics and the data-path wire traffic must not
//!   depend on the route;
//! * **cache lifecycle** — a [`ScheduleCache`] through hit, patch, miss and eviction.
//!
//! `--check` also holds steady-state patching under 50 % of rebuilding in the first two.
//! Everything is modeled and snapped to whole microseconds, so runs are byte-identical.

use chaos::prelude::*;
use dsmc::{DsmcStats, MoveMode};
use mpsim::{run, ExchangeStats, MachineConfig};

use crate::report::{stable_us, Artifact, Json};
use crate::workloads::DriftingDsmc;

/// Parameters of the chaos-level schedule-drift scenario.
#[derive(Debug, Clone)]
pub struct DriftParams {
    /// Simulated machine size.
    pub ranks: usize,
    /// Global index space (block-distributed).
    pub nglobals: usize,
    /// Indirection-array length per rank.
    pub refs_per_rank: usize,
    /// Drift rounds after the initial build.
    pub rounds: usize,
    /// Entries replaced per round (the drift fraction is this over `refs_per_rank`).
    pub drift_per_round: usize,
    /// Seed of the per-rank reference streams.
    pub seed: u64,
}

/// One round of the schedule-drift scenario (costs are max over ranks, microseconds).
/// Round 0 is the initial build.
#[derive(Debug, Clone)]
pub struct DriftRound {
    /// Modeled cost of bringing the cached schedule up to date (build on round 0, patch
    /// afterwards).
    pub patch_us: f64,
    /// Modeled cost of the from-scratch rebuild of the control schedule.
    pub rebuild_us: f64,
    /// Edit records shipped to owners this round, summed over ranks.
    pub edits: usize,
    /// Off-processor elements the schedule fetches, summed over ranks.
    pub total_fetch: usize,
}

/// Outcome of the schedule-drift scenario.
#[derive(Debug, Clone)]
pub struct DriftEntry {
    /// Parameters the scenario ran with.
    pub params: DriftParams,
    /// Whether every round's patched schedule was byte-identical to the rebuild on every
    /// rank — the correctness pin behind reusing patched schedules anywhere a built one
    /// is accepted.
    pub byte_identical: bool,
    /// Per-round costs (round 0 is the initial build).
    pub per_round: Vec<DriftRound>,
    /// Steady-state (rounds 1..) patch cost, summed, max over ranks.
    pub steady_patch_us: f64,
    /// Steady-state (rounds 1..) rebuild cost, summed, max over ranks.
    pub steady_rebuild_us: f64,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Run the schedule-drift scenario: patch one cached schedule forward while rebuilding a
/// control schedule from a hash table kept in lockstep, comparing bytes and modeled upkeep
/// cost every round.
pub fn schedule_drift(params: &DriftParams) -> DriftEntry {
    let p = params.clone();
    let out = run(MachineConfig::new(p.ranks), move |rank| {
        let me = rank.rank();
        let nprocs = rank.nprocs();
        let dist = BlockDist::new(p.nglobals, nprocs);
        let ttable = TranslationTable::from_regular(&dist);
        // Two hash tables with identical histories: ghost slots and translations evolve
        // in lockstep, so the schedules they yield are comparable byte for byte.
        let mut patch_hash = IndexHashTable::new(me, dist.local_size(me));
        let mut build_hash = IndexHashTable::new(me, dist.local_size(me));
        let stamp = Stamp::new(0);
        let query = StampQuery::single(stamp);

        let mut rng = p.seed.wrapping_add(me as u64 * 0x9E37_79B9);
        let mut refs: Vec<usize> = (0..p.refs_per_rank)
            .map(|_| lcg(&mut rng) as usize % p.nglobals)
            .collect();

        let mut cache = ScheduleCache::new(1);
        let mut rounds = Vec::with_capacity(p.rounds + 1);
        let mut identical = true;
        for round in 0..=p.rounds {
            if round > 0 {
                for _ in 0..p.drift_per_round {
                    let at = lcg(&mut rng) as usize % refs.len();
                    refs[at] = lcg(&mut rng) as usize % p.nglobals;
                }
            }
            // Rehash the drifted array into both tables (identical cost on both sides —
            // the upkeep windows below exclude it deliberately).
            patch_hash.clear_stamp(stamp);
            patch_hash.hash_in_replicated(rank, &ttable, &refs, stamp);
            build_hash.clear_stamp(stamp);
            build_hash.hash_in_replicated(rank, &ttable, &refs, stamp);

            // Round 0 misses and builds; every later round patches.
            let t0 = rank.modeled();
            let (maintained, outcome) = cache.schedule(rank, &patch_hash, query);
            let edits = match outcome {
                CacheOutcome::Patched(patch) => patch.edits_sent,
                _ => 0,
            };
            let patch_us = rank.modeled().since(&t0).total_us();

            let t0 = rank.modeled();
            let rebuilt = build_schedule_from_table(rank, &build_hash, query);
            let rebuild_us = rank.modeled().since(&t0).total_us();

            identical &= *maintained == rebuilt;
            rounds.push((round, patch_us, rebuild_us, edits, rebuilt.total_fetch()));
        }
        (identical, rounds)
    });

    let byte_identical = out.results.iter().all(|(ok, _)| *ok);
    let nrounds = out.results[0].1.len();
    let per_round: Vec<DriftRound> = (0..nrounds)
        .map(|i| DriftRound {
            patch_us: out.results.iter().map(|(_, r)| r[i].1).fold(0.0, f64::max),
            rebuild_us: out.results.iter().map(|(_, r)| r[i].2).fold(0.0, f64::max),
            edits: out.results.iter().map(|(_, r)| r[i].3).sum(),
            total_fetch: out.results.iter().map(|(_, r)| r[i].4).sum(),
        })
        .collect();
    let steady = &per_round[1..];
    DriftEntry {
        params: params.clone(),
        byte_identical,
        steady_patch_us: steady.iter().map(|r| r.patch_us).sum(),
        steady_rebuild_us: steady.iter().map(|r| r.rebuild_us).sum(),
        per_round,
    }
}

/// Outcome of the drifting-DSMC comparison (patching vs rebuilding the maintained MOVE
/// schedule, identical data path).
#[derive(Debug, Clone)]
pub struct DsmcDeltaEntry {
    /// Parameters the scenario ran with.
    pub params: DriftingDsmc,
    /// Whether both runs produced identical simulation fingerprints.
    pub fingerprints_match: bool,
    /// Whether both runs put identical MOVE data-path traffic on the wire, rank by rank.
    pub data_exchange_equal: bool,
    /// Schedule-upkeep cost of the patching run (max over ranks, microseconds).
    pub patch_upkeep_us: f64,
    /// Schedule-upkeep cost of the rebuilding run (max over ranks, microseconds).
    pub rebuild_upkeep_us: f64,
    /// Builds performed by the patching run: its cache misses (per rank — replicated).
    pub patch_builds: u64,
    /// Patches applied by the patching run (per rank — replicated).
    pub patch_patches: u64,
    /// The patching run's MOVE data-path wire totals, summed over ranks.
    pub data_exchange: ExchangeStats,
}

/// Run the drifting-density DSMC flow twice — upkeep by patching and upkeep by
/// rebuilding — and compare physics, wire traffic and upkeep cost.
pub fn dsmc_drift(params: &DriftingDsmc) -> DsmcDeltaEntry {
    let run_mode = |rebuild_every_step| params.run(MoveMode::Patched { rebuild_every_step }, None);
    let (patched, rebuilt) = (run_mode(false), run_mode(true));
    let fingerprint = |results: &[DsmcStats]| {
        let mut all: Vec<_> = results.iter().flat_map(|s| s.fingerprint.clone()).collect();
        all.sort_unstable();
        all
    };
    let upkeep_us = |results: &[DsmcStats]| {
        let upkeep = results.iter().map(|s| s.phases.move_upkeep.total_us());
        upkeep.fold(0.0, f64::max)
    };
    DsmcDeltaEntry {
        params: params.clone(),
        fingerprints_match: fingerprint(&patched) == fingerprint(&rebuilt),
        data_exchange_equal: patched
            .iter()
            .zip(&rebuilt)
            .all(|(a, b)| a.move_data_exchange == b.move_data_exchange),
        patch_upkeep_us: upkeep_us(&patched),
        rebuild_upkeep_us: upkeep_us(&rebuilt),
        patch_builds: patched[0].cache_stats.misses,
        patch_patches: patched[0].cache_stats.patches,
        data_exchange: (patched.iter().map(|s| s.move_data_exchange))
            .fold(ExchangeStats::default(), |a, x| a.merged(&x)),
    }
}

/// Drive a [`ScheduleCache`] through every lifecycle transition — miss, hit, patch,
/// eviction — and return the final counters (replicated across ranks).
pub fn cache_lifecycle(ranks: usize, rounds: usize) -> CacheStats {
    let out = run(MachineConfig::new(ranks), move |rank| {
        let me = rank.rank();
        let nprocs = rank.nprocs();
        let nglobals = 64 * nprocs;
        let dist = BlockDist::new(nglobals, nprocs);
        let ttable = TranslationTable::from_regular(&dist);
        let mut hash = IndexHashTable::new(me, dist.local_size(me));
        let (sa, sb) = (Stamp::new(0), Stamp::new(1));
        // Stamp B is hashed once and never touched again: its schedule must keep hitting.
        let fixed: Vec<usize> = (0..nglobals).step_by(7).collect();
        hash.hash_in_replicated(rank, &ttable, &fixed, sb);
        let mut cache = ScheduleCache::new(2);
        let mut rng = 7u64.wrapping_add(me as u64);
        for round in 0..rounds {
            // Stamp A drifts every round: its schedule patches forward.
            let drifting: Vec<usize> = (0..64).map(|_| lcg(&mut rng) as usize % nglobals).collect();
            hash.clear_stamp(sa);
            hash.hash_in_replicated(rank, &ttable, &drifting, sa);
            cache.schedule(rank, &hash, StampQuery::single(sa));
            cache.schedule(rank, &hash, StampQuery::single(sb));
            if round == rounds - 1 {
                // A third distinct query against a capacity-2 cache: the LRU entry is
                // evicted to make room.
                cache.schedule(rank, &hash, StampQuery::any_of(&[sa, sb]));
            }
        }
        cache.stats()
    });
    let stats = out.results[0];
    debug_assert!(
        out.results.iter().all(|s| *s == stats),
        "cache decisions must be replicated"
    );
    stats
}

/// The `delta` artifact: the three scenarios at their recorded scale.  Contains no
/// wall-clock measurement and snaps modeled times to whole microseconds, so repeated runs
/// are byte-identical — the property CI gates on.
pub struct DeltaReport {
    drift: DriftEntry,
    dsmc: DsmcDeltaEntry,
    cache: CacheStats,
}

impl DeltaReport {
    /// Run the recorded scale: the schedule drift at P = 8 with 5% drift per round (the
    /// regime the paper's incremental schedules, Figure 6, are built for), the DSMC
    /// comparison at P = 16 and the cache lifecycle at P = 8.
    pub fn generate() -> Self {
        let drift = DriftParams {
            ranks: 8,
            nglobals: 16_384,
            refs_per_rank: 2_048,
            rounds: 12,
            drift_per_round: 102,
            seed: 1994,
        };
        DeltaReport {
            drift: schedule_drift(&drift),
            dsmc: dsmc_drift(&DriftingDsmc::recorded(16, 20)),
            cache: cache_lifecycle(8, 8),
        }
    }
}

impl Artifact for DeltaReport {
    const NAME: &'static str = "delta";
    const VERSION: u32 = 2;

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let (d, e, c) = (&self.drift, &self.dsmc, &self.cache);
        let count = |n: usize| Json::uint(n as u64);
        let round = |(i, r): (usize, &DriftRound)| {
            Json::obj(vec![
                ("round", count(i)),
                ("patch_us", stable_us(r.patch_us)),
                ("rebuild_us", stable_us(r.rebuild_us)),
                ("edits", count(r.edits)),
                ("total_fetch", count(r.total_fetch)),
            ])
        };
        let rounds = d.per_round.iter().enumerate().map(round).collect();
        let drift = Json::obj(vec![
            ("ranks", count(d.params.ranks)),
            ("nglobals", count(d.params.nglobals)),
            ("refs_per_rank", count(d.params.refs_per_rank)),
            ("drift_per_round", count(d.params.drift_per_round)),
            ("byte_identical", Json::Bool(d.byte_identical)),
            ("steady_patch_us", stable_us(d.steady_patch_us)),
            ("steady_rebuild_us", stable_us(d.steady_rebuild_us)),
            ("per_round", Json::Arr(rounds)),
        ]);
        let dsmc = Json::obj(vec![
            ("ranks", count(e.params.ranks)),
            ("nparticles", count(e.params.nparticles)),
            ("nsteps", count(e.params.nsteps)),
            ("remap_interval", count(e.params.remap_interval)),
            ("fingerprints_match", Json::Bool(e.fingerprints_match)),
            ("data_exchange_equal", Json::Bool(e.data_exchange_equal)),
            ("patch_upkeep_us", stable_us(e.patch_upkeep_us)),
            ("rebuild_upkeep_us", stable_us(e.rebuild_upkeep_us)),
            ("patch_builds", Json::uint(e.patch_builds)),
            ("patch_patches", Json::uint(e.patch_patches)),
            ("data_msgs_sent", Json::uint(e.data_exchange.msgs_sent)),
            ("data_bytes_sent", Json::uint(e.data_exchange.bytes_sent)),
        ]);
        let cache = Json::obj(vec![
            ("hits", Json::uint(c.hits)),
            ("misses", Json::uint(c.misses)),
            ("patches", Json::uint(c.patches)),
            ("evictions", Json::uint(c.evictions)),
        ]);
        let section = vec![
            ("schedule_drift", drift),
            ("dsmc_drift", dsmc),
            ("cache_lifecycle", cache),
        ];
        vec![("delta", Json::obj(section))]
    }

    /// Byte-identity, physics/wire equivalence, and steady-state patch cost under 50%
    /// of the rebuild cost in both scenarios.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.drift.byte_identical {
            v.push("schedule drift: patched schedule diverged from the rebuild".to_string());
        }
        if self.drift.steady_patch_us >= 0.5 * self.drift.steady_rebuild_us {
            v.push(format!(
                "schedule drift: steady-state patch cost {:.0} us is not under 50% of the \
                 rebuild cost {:.0} us",
                self.drift.steady_patch_us, self.drift.steady_rebuild_us
            ));
        }
        if !self.dsmc.fingerprints_match {
            v.push("dsmc drift: patching changed the simulation fingerprint".to_string());
        }
        if !self.dsmc.data_exchange_equal {
            v.push("dsmc drift: patching changed the data-path wire traffic".to_string());
        }
        if self.dsmc.patch_upkeep_us >= 0.5 * self.dsmc.rebuild_upkeep_us {
            v.push(format!(
                "dsmc drift: steady-state upkeep by patching ({:.0} us) is not under 50% of \
                 upkeep by rebuilding ({:.0} us)",
                self.dsmc.patch_upkeep_us, self.dsmc.rebuild_upkeep_us
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_drift() -> DriftParams {
        DriftParams {
            ranks: 4,
            nglobals: 1_024,
            refs_per_rank: 256,
            rounds: 6,
            drift_per_round: 13,
            seed: 42,
        }
    }

    #[test]
    fn drift_scenario_pins_byte_identity_and_patch_advantage() {
        let e = schedule_drift(&small_drift());
        assert!(e.byte_identical);
        assert_eq!(e.per_round.len(), 7);
        assert!(e.per_round[0].edits == 0, "round 0 is a build, not a patch");
        assert!(e.per_round[1..].iter().any(|r| r.edits > 0));
        assert!(
            e.steady_patch_us < 0.5 * e.steady_rebuild_us,
            "patch {:.0} us vs rebuild {:.0} us",
            e.steady_patch_us,
            e.steady_rebuild_us
        );
    }

    #[test]
    fn dsmc_scenario_pins_equivalence_at_test_scale() {
        // P = 16 rather than 4: the patch path's log-depth routing needs log2(P) well
        // under P - 1 before the 50% latency advantage over the dense rebuild shows
        // (at P = 8 the floor is 3/7 and payload overhead eats the rest of the margin).
        let e = dsmc_drift(&DriftingDsmc {
            ranks: 16,
            grid: (16, 8),
            nparticles: 2_000,
            nsteps: 20,
            remap_interval: 8,
            seed: 42,
        });
        assert!(e.fingerprints_match);
        assert!(e.data_exchange_equal);
        // Two remaps (after steps 8 and 16), each followed by a rebuilding step.
        assert_eq!(e.patch_builds, 3);
        assert_eq!(e.patch_patches, 17);
        assert!(
            e.patch_upkeep_us < 0.5 * e.rebuild_upkeep_us,
            "patch upkeep {:.0} us vs rebuild upkeep {:.0} us",
            e.patch_upkeep_us,
            e.rebuild_upkeep_us
        );
        assert!(e.data_exchange.msgs_sent > 0);
    }

    #[test]
    fn cache_lifecycle_touches_every_transition() {
        let stats = cache_lifecycle(4, 5);
        // Round 0: two misses.  Rounds 1..: stamp A patches, stamp B hits.  The final
        // round's third query misses and evicts from the capacity-2 cache.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.patches, 4);
        assert_eq!(stats.evictions, 1);
    }

    /// A small report: the scenarios at unit-test scale.
    fn small_report() -> DeltaReport {
        DeltaReport {
            drift: schedule_drift(&small_drift()),
            dsmc: dsmc_drift(&DriftingDsmc {
                ranks: 2,
                grid: (8, 8),
                nparticles: 600,
                nsteps: 8,
                remap_interval: 0,
                seed: 7,
            }),
            cache: cache_lifecycle(2, 3),
        }
    }

    #[test]
    fn delta_report_is_deterministic() {
        let text = || crate::report::document(&small_report()).render_pretty();
        assert_eq!(text(), text());
    }

    #[test]
    fn wall_clock_is_recorded_but_never_enters_the_gated_json() {
        // The byte-identity gate over BENCH_delta.json only works because nothing
        // host-dependent is rendered.  The delta entries no longer time themselves at
        // all; this pins that no wall-clock reaches the document by any other route.
        let text = crate::report::document(&small_report()).render_pretty();
        assert!(!text.contains("wall"), "wall-clock leaked into gated JSON");
    }

    #[test]
    fn violations_fire_on_broken_invariants() {
        let drift = schedule_drift(&small_drift());
        // P = 16 so the patch-cost gate holds on the clean baseline (see the DSMC test).
        let dsmc = dsmc_drift(&DriftingDsmc {
            ranks: 16,
            grid: (16, 8),
            nparticles: 1_200,
            nsteps: 10,
            remap_interval: 0,
            seed: 7,
        });
        let mut report = DeltaReport {
            drift,
            dsmc,
            cache: CacheStats::default(),
        };
        assert_eq!(report.violations(), Vec::<String>::new());
        report.drift.byte_identical = false;
        report.drift.steady_patch_us = report.drift.steady_rebuild_us;
        assert_eq!(report.violations().len(), 2);
    }
}
