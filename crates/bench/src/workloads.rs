//! Shared workload construction, compiled-template set-up, hand-coded loops and table
//! formatting for the benchmark harnesses.

use chaos::adapt::RemapPolicy;
use chaos::prelude::*;
use charmm::system::{MolecularSystem, SystemConfig};
use dsmc::{seed_particles, CellGrid, DsmcConfig, DsmcStats, FlowConfig, MoveMode, RemapStrategy};
use fortrand::{Executor, LoweredProgram};
use mpsim::{run, ExchangeStats, MachineConfig, Rank, RunOutcome};

/// A CHARMM-like system scaled down from the paper's 14 026-atom benchmark but with the
/// same structure (dense bonded cluster + solvent); used by the quick table runs.
pub fn charmm_medium() -> SystemConfig {
    SystemConfig {
        protein_atoms: 700,
        water_molecules: 900,
        box_size: 28.0,
        cutoff: 7.0,
        seed: 1994,
    }
}

/// Run the parallel DSMC driver on `ranks` ranks: `nparticles` molecules of `flow` on
/// `grid`, every rank seeding the same replicated initial state.
pub(crate) fn run_dsmc(
    ranks: usize,
    grid: CellGrid,
    flow: FlowConfig,
    nparticles: usize,
    config: DsmcConfig,
) -> RunOutcome<DsmcStats> {
    run(MachineConfig::new(ranks), move |rank| {
        let particles = seed_particles(&grid, nparticles, &flow);
        dsmc::parallel::run_parallel(rank, &grid, &particles, &config)
    })
}

/// A drifting-density DSMC run: `nparticles` molecules of the directional flow, which
/// piles them downstream on a 2-D grid so the load drifts as the run goes on.
#[derive(Debug, Clone)]
pub struct DriftingDsmc {
    /// Simulated machine size.
    pub ranks: usize,
    /// 2-D cell grid (nx, ny).
    pub grid: (usize, usize),
    /// Total molecules.
    pub nparticles: usize,
    /// Time steps.
    pub nsteps: usize,
    /// Chain-remap cadence; `0` disables remapping.
    pub remap_interval: usize,
    /// Seed shared by flow and collisions.
    pub seed: u64,
}

impl DriftingDsmc {
    /// The flow both `BENCH_adapt.json` and `BENCH_delta.json` record: 12 000 molecules
    /// on 32 × 8 cells for 60 steps, long enough for the directional flow to pile them
    /// downstream and ramp a static run's imbalance.
    pub fn recorded(ranks: usize, remap_interval: usize) -> Self {
        DriftingDsmc {
            ranks,
            grid: (32, 8),
            nparticles: 12_000,
            nsteps: 60,
            remap_interval,
            seed: 1994,
        }
    }

    /// Run the flow with `move_mode` and `policy` (chain remaps every `remap_interval`
    /// steps when it is `None`); returns every rank's statistics.
    pub(crate) fn run(&self, move_mode: MoveMode, policy: Option<RemapPolicy>) -> Vec<DsmcStats> {
        let remap = match self.remap_interval {
            0 => RemapStrategy::Static,
            _ => RemapStrategy::Chain,
        };
        let config = DsmcConfig {
            dt: 0.5,
            move_mode,
            remap,
            remap_interval: self.remap_interval,
            policy,
            ..DsmcConfig::lightweight(self.nsteps, self.seed)
        };
        let grid = CellGrid::new_2d(self.grid.0, self.grid.1);
        let flow = FlowConfig::directional(self.seed);
        run_dsmc(self.ranks, grid, flow, self.nparticles, config).results
    }
}

/// The system's global non-bonded list in the 1-based CSR form the Fortran-D templates
/// read: `(inblo, jnb)`.
pub(crate) fn csr_neighbor_list(system: &MolecularSystem) -> (Vec<i64>, Vec<i64>) {
    let list =
        charmm::nonbonded::build_neighbor_list(&system.positions, system.box_size, system.cutoff);
    let inblo = list.offsets.iter().map(|&o| o as i64 + 1).collect();
    let jnb = list.partners.iter().map(|&p| p as i64 + 1).collect();
    (inblo, jnb)
}

/// Start `program` on `rank` with the inputs of a CHARMM-style template: the CSR list
/// `(inblo, jnb)` as INBLO/JNB, coordinate `k` of every atom of `system` as `coords[k]`,
/// and its accumulator, `D` before the coordinate's name, all zeros.
pub(crate) fn charmm_executor<'p>(
    rank: &mut Rank,
    program: &'p LoweredProgram,
    system: &MolecularSystem,
    (inblo, jnb): (&[i64], &[i64]),
    coords: &[&str],
) -> Executor<'p> {
    let mut exec = Executor::new(rank, program);
    exec.set_integer_array("INBLO", inblo);
    exec.set_integer_array("JNB", jnb);
    for (k, name) in coords.iter().enumerate() {
        let coord: Vec<f64> = system.positions.iter().map(|p| p[k]).collect();
        exec.set_real_array(name, &coord);
    }
    for name in coords {
        exec.set_real_array(&format!("D{name}"), &vec![0.0; system.natoms()]);
    }
    exec
}

/// The value of particle `i` that the DSMC-style templates move: `i * 0.5`.
fn particle_value(i: usize) -> f64 {
    i as f64 * 0.5
}

/// Start `program` on `rank` with the particle values of a DSMC-style template of `np`
/// particles as VEL.
pub(crate) fn dsmc_executor<'p>(
    rank: &mut Rank,
    program: &'p LoweredProgram,
    np: usize,
) -> Executor<'p> {
    let mut exec = Executor::new(rank, program);
    exec.set_real_array("VEL", &(0..np).map(particle_value).collect::<Vec<_>>());
    exec
}

/// The hand-coded light-weight append loop of Figure 11: `np` block-distributed particles
/// move to the owners of their cells (`nc` block-distributed cells) through a fresh
/// [`LightweightSchedule`] and `scatter_append` per step.  `cells(step, icell)` sets the
/// replicated 1-based cell of every particle before each step.  Returns the loop's modeled
/// time (µs) and the append's executor traffic.
pub(crate) fn lightweight_append_loop(
    rank: &mut Rank,
    np: usize,
    nc: usize,
    steps: usize,
    mut cells: impl FnMut(usize, &mut Vec<i64>),
) -> (f64, ExchangeStats) {
    let me = rank.rank();
    let part_dist = BlockDist::new(np, rank.nprocs());
    let cell_dist = BlockDist::new(nc, rank.nprocs());
    let my_parts: Vec<usize> = part_dist.local_globals(me).collect();
    let vel: Vec<f64> = my_parts.iter().map(|&i| particle_value(i)).collect();
    let mut icell = Vec::new();
    let mut exchange = ExchangeStats::default();
    let start = rank.modeled();
    for step in 0..steps {
        cells(step, &mut icell);
        let cell_of = |i: usize| (icell[i] - 1) as usize;
        let dests: Vec<usize> = my_parts
            .iter()
            .map(|&i| cell_dist.owner(cell_of(i)))
            .collect();
        let payload: Vec<(u64, f64)> = my_parts
            .iter()
            .zip(&vel)
            .map(|(&i, &v)| (cell_of(i) as u64, v))
            .collect();
        let sched = LightweightSchedule::build(rank, &dests);
        let arrivals = scatter_append(rank, &sched, &payload);
        exchange = exchange.merged(&sched.exchange_stats::<(u64, f64)>());
        rank.charge_compute(arrivals.len() as f64 * 0.3);
    }
    (rank.modeled().since(&start).total_us(), exchange)
}

/// Format a table: a title, column headers and rows of strings, padded for alignment.
pub fn format_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let rule = (widths.iter().sum::<usize>() + 3 * widths.len()).max(title.len());
    let line = |cells: &[String]| {
        let width = |i: usize| widths.get(i).copied().unwrap_or(8) + 2;
        let padded = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = width(i)));
        padded.collect::<Vec<_>>().join(" ") + "\n"
    };
    let (double, single) = ("=".repeat(rule), "-".repeat(rule));
    let mut out = format!("{title}\n{double}\n{}{single}\n", line(headers));
    for row in rows {
        out += &line(row);
    }
    out
}

/// Format a modeled time (microseconds) as seconds with two decimals, the way the paper
/// prints its tables.
pub fn secs(us: f64) -> String {
    format!("{:.2}", us / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let t = format_table(
            "Demo",
            &["Procs".to_string(), "Time".to_string()],
            &[
                vec!["4".to_string(), "1.25".to_string()],
                vec!["128".to_string(), "0.50".to_string()],
            ],
        );
        assert!(t.contains("Demo"));
        assert!(t.contains("Procs"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(secs(1_500_000.0), "1.50");
        assert_eq!(secs(0.0), "0.00");
    }

    #[test]
    fn medium_system_is_smaller_than_paper() {
        let paper = SystemConfig::paper_benchmark();
        assert!(charmm_medium().total_atoms() < paper.total_atoms());
    }
}
