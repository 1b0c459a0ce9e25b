//! Sequential DSMC reference implementation: the correctness oracle for the parallel code
//! and the "Sequential Code" column of Table 5.

use crate::collide::collide_cell;
use crate::grid::CellGrid;
use crate::particles::{advance, Particle};

/// Sequential DSMC simulation state: every cell's molecule list in one address space.
pub struct SequentialDsmc {
    /// The cell grid.
    pub grid: CellGrid,
    /// Per-cell molecule lists.
    pub cells: Vec<Vec<Particle>>,
    /// Time-step length.
    pub dt: f64,
    /// Collision RNG seed.
    pub seed: u64,
    steps_taken: usize,
    /// Total collision pairs processed (the work measure).
    pub collisions: usize,
    /// Total number of cell-to-cell moves performed.
    pub migrations: usize,
}

impl SequentialDsmc {
    /// Create a simulation from an initial particle set.
    pub fn new(grid: CellGrid, particles: Vec<Particle>, dt: f64, seed: u64) -> Self {
        let mut cells = vec![Vec::new(); grid.ncells()];
        for p in particles {
            cells[grid.cell_of_position(p.pos)].push(p);
        }
        Self {
            grid,
            cells,
            dt,
            seed,
            steps_taken: 0,
            collisions: 0,
            migrations: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Total number of molecules currently in the simulation.
    pub fn total_particles(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Advance one time step: collide within cells, then move molecules and re-bin them
    /// (the MOVE phase of Figure 3).
    pub fn step(&mut self) {
        // Collision phase.
        for (cell, particles) in self.cells.iter_mut().enumerate() {
            self.collisions += collide_cell(cell, self.steps_taken, self.seed, particles);
        }
        // Move phase: survivors stay in their cell in scan order, movers are appended to
        // their new cell after every cell has advanced (order in a cell never matters).
        let mut moved: Vec<(usize, Particle)> = Vec::new();
        for (cell, particles) in self.cells.iter_mut().enumerate() {
            particles.retain_mut(|p| {
                advance(p, &self.grid, self.dt);
                let new_cell = self.grid.cell_of_position(p.pos);
                if new_cell != cell {
                    moved.push((new_cell, *p));
                }
                new_cell == cell
            });
        }
        self.migrations += moved.len();
        for (cell, p) in moved {
            self.cells[cell].push(p);
        }
        self.steps_taken += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// A canonical (cell id, sorted molecule ids) fingerprint used to compare against the
    /// parallel implementation.
    pub fn fingerprint(&self) -> Vec<(usize, Vec<u64>)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(cell, c)| {
                let mut ids: Vec<u64> = c.iter().map(|p| p.id).collect();
                ids.sort_unstable();
                (cell, ids)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::{seed_particles, FlowConfig};

    fn sim(n: usize, seed: u64) -> SequentialDsmc {
        let grid = CellGrid::new_2d(8, 8);
        let particles = seed_particles(&grid, n, &FlowConfig::directional(seed));
        SequentialDsmc::new(grid, particles, 0.4, seed)
    }

    #[test]
    fn particles_are_conserved() {
        let mut s = sim(400, 3);
        assert_eq!(s.total_particles(), 400);
        s.run(20);
        assert_eq!(s.total_particles(), 400);
        assert_eq!(s.steps_taken(), 20);
        assert!(s.migrations > 0, "molecules should move between cells");
        assert!(s.collisions > 0);
    }

    #[test]
    fn particles_always_live_in_the_cell_matching_their_position() {
        let mut s = sim(300, 5);
        s.run(15);
        for (cell, particles) in s.cells.iter().enumerate() {
            for p in particles {
                assert_eq!(s.grid.cell_of_position(p.pos), cell);
            }
        }
    }

    #[test]
    fn directional_flow_skews_the_density_over_time() {
        let mut s = sim(2_000, 9);
        let half = s.grid.nx / 2;
        let right_count = |s: &SequentialDsmc| -> usize {
            s.cells
                .iter()
                .enumerate()
                .filter(|(c, _)| s.grid.cell_coords(*c).0 >= half)
                .map(|(_, v)| v.len())
                .sum()
        };
        let before = right_count(&s);
        s.run(30);
        let after = right_count(&s);
        assert!(
            after > before,
            "density should pile up downstream: before={before} after={after}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = sim(250, 17);
        let mut b = sim(250, 17);
        a.run(10);
        b.run(10);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn fingerprint_lists_only_non_empty_cells() {
        let s = sim(10, 1);
        let fp = s.fingerprint();
        assert!(fp.iter().all(|(_, ids)| !ids.is_empty()));
        let total: usize = fp.iter().map(|(_, ids)| ids.len()).sum();
        assert_eq!(total, 10);
    }
}
