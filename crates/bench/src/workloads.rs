//! Shared workload construction, hand-coded loops and table formatting for the benchmark
//! harnesses.

use chaos::prelude::*;
use charmm::system::{MolecularSystem, SystemConfig};
use dsmc::{seed_particles, CellGrid, DsmcConfig, DsmcStats, FlowConfig};
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

/// The system's global non-bonded list in the 1-based CSR form the Fortran-D templates
/// read: `(inblo, jnb)`.
pub(crate) fn csr_neighbor_list(system: &MolecularSystem) -> (Vec<i64>, Vec<i64>) {
    let list =
        charmm::nonbonded::build_neighbor_list(&system.positions, system.box_size, system.cutoff);
    let inblo = list.offsets.iter().map(|&o| o as i64 + 1).collect();
    let jnb = list.partners.iter().map(|&p| p as i64 + 1).collect();
    (inblo, jnb)
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
    let vel: Vec<f64> = my_parts.iter().map(|&i| i as f64 * 0.5).collect();
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
pub fn format_table(title: &str, headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let headers: Vec<String> = headers.iter().map(|h| h.as_ref().to_string()).collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep_len: usize = widths.iter().sum::<usize>() + 3 * widths.len();
    out.push_str(&"=".repeat(sep_len.max(title.len())));
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:>width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(8) + 2
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(sep_len.max(title.len())));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
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
