//! The seven workloads: names, sizes and seeded input generation.
//!
//! Sizes are fixed because every count depends on them; `Scale::Quick` shrinks them for
//! the tests and takes exactly the same code paths.  The program under test receives
//! only what `generate` builds from the seed.

use std::sync::Arc;

use crate::surface::*;

/// Rank threads of every wall-clock run; never more threads than the host has cores.
pub const WALL_RANKS: usize = 2;
/// Ranks of the count run (modeled time and exact counts; wall-clock ignored).
pub const MODEL_RANKS: usize = 8;
pub const DEFAULT_SEED: u64 = 1994;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CharmmSteady,
    CharmmAdaptive,
    DsmcMove,
    CompiledCharmm,
    FinegrainShared,
    FinegrainModeled,
    InspectorDrift,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::CharmmSteady,
        Workload::CharmmAdaptive,
        Workload::DsmcMove,
        Workload::CompiledCharmm,
        Workload::FinegrainShared,
        Workload::FinegrainModeled,
        Workload::InspectorDrift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CharmmSteady => "charmm_steady",
            Workload::CharmmAdaptive => "charmm_adaptive",
            Workload::DsmcMove => "dsmc_move",
            Workload::CompiledCharmm => "compiled_charmm",
            Workload::FinegrainShared => "finegrain_shared",
            Workload::FinegrainModeled => "finegrain_modeled",
            Workload::InspectorDrift => "inspector_drift",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The transport of the wall runs.  `finegrain_modeled` is `finegrain_shared` on the
    /// other transport (mpsc + codec, the default of every test, example and table), so
    /// a SharedMem gain bought at the default transport's expense shows.
    pub fn wall_backend(self) -> ExchangeBackend {
        match self {
            Workload::FinegrainModeled => ExchangeBackend::Modeled,
            _ => ExchangeBackend::SharedMem,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }

    /// Steps of the CHARMM prefix that is compared with `SequentialCharmm`: long enough
    /// to cross a list update and a repartition of `charmm_adaptive`, short enough that
    /// the chaotic trajectories have not yet separated.
    pub fn prefix_steps(self) -> usize {
        match self {
            Scale::Full => 12,
            Scale::Quick => 6,
        }
    }
}

/// How many steps a run takes: the workload's own count, none (the set-up path), or a
/// short prefix (the CHARMM reference check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steps {
    Full,
    Zero,
    Prefix,
}

/// The zero-bond system of `compiled_charmm` with its global CSR list (1-based, as the
/// Fortran program indexes it) and the program text sized to them.
pub struct CompiledInput {
    pub system: MolecularSystem,
    pub inblo: Vec<i64>,
    pub jnb: Vec<i64>,
    pub source: String,
    pub nsteps: usize,
}

/// The indirection arrays of `inspector_drift`: neighbour lists of jittered copies of
/// one system, cycled one per step.
pub struct DriftInput {
    pub natoms: usize,
    pub lists: Vec<NeighborList>,
    pub nsteps: usize,
}

pub enum Input {
    Charmm {
        system: Arc<MolecularSystem>,
        config: ParallelConfig,
    },
    Dsmc {
        grid: CellGrid,
        particles: Arc<Vec<Particle>>,
        config: DsmcConfig,
    },
    Compiled(Arc<CompiledInput>),
    Drift(Arc<DriftInput>),
}

fn system_config(
    protein_atoms: usize,
    water_molecules: usize,
    box_size: f64,
    cutoff: f64,
) -> SystemConfig {
    SystemConfig {
        protein_atoms,
        water_molecules,
        box_size,
        cutoff,
        seed: MOLECULE_SEED,
    }
}

/// The 3 400-atom system of `charmm_steady`, `charmm_adaptive` and `inspector_drift`.
fn main_system(scale: Scale) -> SystemConfig {
    match scale {
        Scale::Full => system_config(700, 900, 28.0, 7.0),
        Scale::Quick => system_config(60, 80, 14.0, 4.5),
    }
}

/// Every seed gets the same molecule, shaken.  As the paper's CHARMM runs are all of
/// MbCO, the systems here are all built from `MOLECULE_SEED`; the workload seed then
/// displaces every coordinate by up to `POSITION_SHAKE` and every velocity component by
/// up to `VELOCITY_SHAKE`.  Neighbour lists, partitions, schedules, the bytes on the
/// wire and the (chaotic) trajectory all differ from seed to seed; the amount of work
/// does not.  A system built from the seed alone varies by 7 to 12 % in pair count
/// between seeds at these sizes, and the spread of a metric over seeds is what decides
/// how small a regression the benchmark can resolve.
const MOLECULE_SEED: u64 = 1994;
const POSITION_SHAKE: f64 = 0.1;
const VELOCITY_SHAKE: f64 = 0.02;

fn shaken_system(config: &SystemConfig, seed: u64) -> MolecularSystem {
    let mut system = MolecularSystem::build(config);
    let mut rng = SplitMix64(seed);
    for position in &mut system.positions {
        for c in position {
            *c = (*c + POSITION_SHAKE * rng.next_signed_unit()).rem_euclid(system.box_size);
        }
    }
    for velocity in &mut system.velocities {
        for c in velocity {
            *c += VELOCITY_SHAKE * rng.next_signed_unit();
        }
    }
    system
}

/// The Fortran-D program of `compiled_charmm`, owned by the benchmark.  Array extents
/// are part of the program text, so the file is a template filled from the input.
const NONBONDED_LOOP: &str = include_str!("../programs/nonbonded_loop.f");

pub fn nonbonded_loop_source(natoms: usize, list_len: usize, nsteps: usize) -> String {
    NONBONDED_LOOP
        .replace("@NATOMS1@", &(natoms + 1).to_string())
        .replace("@NATOMS@", &natoms.to_string())
        .replace("@NPAIRS@", &list_len.to_string())
        .replace("@NSTEPS@", &nsteps.to_string())
}

/// SplitMix64: the benchmark's own generator for the inputs it builds itself.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn next_signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

/// How many neighbour lists `inspector_drift` cycles through, and how far each copy's
/// atoms are displaced from the base system before its list is built.
const DRIFT_LISTS: usize = 4;
const DRIFT_JITTER: f64 = 0.25;

pub fn generate(workload: Workload, scale: Scale, seed: u64, steps: Steps) -> Input {
    let pick = |full: usize| match steps {
        Steps::Full => full,
        Steps::Zero => 0,
        Steps::Prefix => scale.prefix_steps(),
    };
    let quick = scale == Scale::Quick;
    match workload {
        Workload::CharmmSteady => Input::Charmm {
            system: Arc::new(shaken_system(&main_system(scale), seed)),
            config: ParallelConfig {
                list_update_interval: if quick { 5 } else { 25 },
                ..ParallelConfig::paper_default(pick(if quick { 12 } else { 400 }))
            },
        },
        Workload::CharmmAdaptive => Input::Charmm {
            system: Arc::new(shaken_system(&main_system(scale), seed)),
            config: ParallelConfig {
                list_update_interval: 2,
                repartition_interval: Some(if quick { 4 } else { 10 }),
                schedule_mode: ScheduleMode::Multiple,
                ..ParallelConfig::paper_default(pick(if quick { 12 } else { 100 }))
            },
        },
        Workload::FinegrainShared | Workload::FinegrainModeled => {
            let full_steps = if quick { 200 } else { 30_000 };
            Input::Charmm {
                system: Arc::new(shaken_system(&system_config(20, 30, 10.0, 4.5), seed)),
                config: ParallelConfig {
                    // No list update inside the run: per-step fixed costs are the point.
                    list_update_interval: full_steps + 1,
                    ..ParallelConfig::paper_default(pick(full_steps))
                },
            }
        }
        Workload::DsmcMove => {
            let (grid, molecules, full_steps) = if quick {
                (CellGrid::new_3d(8, 4, 4), 2_000, 12)
            } else {
                (CellGrid::new_3d(32, 16, 16), 120_000, 250)
            };
            Input::Dsmc {
                grid,
                particles: Arc::new(seed_particles(
                    &grid,
                    molecules,
                    &FlowConfig::directional(seed),
                )),
                config: DsmcConfig {
                    remap: RemapStrategy::Chain,
                    policy: Some(RemapPolicy::Threshold {
                        lb_index: 1.25,
                        hysteresis: 0.05,
                        patience: 20,
                    }),
                    ..DsmcConfig::lightweight(pick(full_steps), seed)
                },
            }
        }
        Workload::CompiledCharmm => {
            let config = if quick {
                system_config(30, 40, 12.0, 4.5)
            } else {
                system_config(200, 270, 19.0, 5.5)
            };
            let mut system = shaken_system(&config, seed);
            // The program is the non-bonded sweep only.
            system.bonds.clear();
            let list = build_neighbor_list(&system.positions, system.box_size, system.cutoff);
            let nsteps = pick(if quick { 3 } else { 25 });
            Input::Compiled(Arc::new(CompiledInput {
                source: nonbonded_loop_source(system.natoms(), list.partners.len(), nsteps),
                inblo: list.offsets.iter().map(|&o| o as i64 + 1).collect(),
                jnb: list.partners.iter().map(|&p| p as i64 + 1).collect(),
                system,
                nsteps,
            }))
        }
        Workload::InspectorDrift => {
            let base = shaken_system(&main_system(scale), seed);
            let mut rng = SplitMix64(seed ^ 0xd1f7);
            let lists = (0..DRIFT_LISTS)
                .map(|_| {
                    let jittered: Vec<[f64; 3]> = base
                        .positions
                        .iter()
                        .map(|p| {
                            p.map(|c| {
                                (c + DRIFT_JITTER * rng.next_signed_unit())
                                    .rem_euclid(base.box_size)
                            })
                        })
                        .collect();
                    build_neighbor_list(&jittered, base.box_size, base.cutoff)
                })
                .collect();
            Input::Drift(Arc::new(DriftInput {
                natoms: base.natoms(),
                lists,
                nsteps: pick(if quick { 6 } else { 160 }),
            }))
        }
    }
}
