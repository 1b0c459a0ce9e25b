//! The cartesian cell grid DSMC lays over its domain (2-D or 3-D).

/// A cartesian grid of cells covering the rectangular domain `[0, lx) × [0, ly) × [0, lz)`.
/// A 2-D problem uses `nz = 1` (and any `lz > 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    /// Number of cells along x.
    pub nx: usize,
    /// Number of cells along y.
    pub ny: usize,
    /// Number of cells along z (1 for 2-D problems).
    pub nz: usize,
    /// Domain extent along x.
    pub lx: f64,
    /// Domain extent along y.
    pub ly: f64,
    /// Domain extent along z.
    pub lz: f64,
}

impl CellGrid {
    /// A 2-D grid of `nx × ny` cells over a unit-cell-sized domain.
    pub fn new_2d(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0);
        Self {
            nx,
            ny,
            nz: 1,
            lx: nx as f64,
            ly: ny as f64,
            lz: 1.0,
        }
    }

    /// A 3-D grid of `nx × ny × nz` cells over a unit-cell-sized domain.
    pub fn new_3d(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0);
        Self {
            nx,
            ny,
            nz,
            lx: nx as f64,
            ly: ny as f64,
            lz: nz as f64,
        }
    }

    /// Total number of cells.
    pub fn ncells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True if the grid is two-dimensional.
    pub fn is_2d(&self) -> bool {
        self.nz == 1
    }

    /// Linearised index of cell `(i, j, k)`.
    #[inline]
    pub fn cell_index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// The `(i, j, k)` coordinates of a linearised cell index.
    pub fn cell_coords(&self, cell: usize) -> (usize, usize, usize) {
        debug_assert!(cell < self.ncells());
        let i = cell % self.nx;
        let j = (cell / self.nx) % self.ny;
        let k = cell / (self.nx * self.ny);
        (i, j, k)
    }

    /// The cell containing a position.  Positions outside the domain are clamped to the
    /// boundary cell (the movers keep positions inside the domain, so clamping only papers
    /// over floating-point round-off at the very edge).
    #[inline]
    pub fn cell_of_position(&self, pos: [f64; 3]) -> usize {
        let ix = ((pos[0] / self.lx * self.nx as f64) as isize).clamp(0, self.nx as isize - 1);
        let iy = ((pos[1] / self.ly * self.ny as f64) as isize).clamp(0, self.ny as isize - 1);
        let iz = ((pos[2] / self.lz * self.nz as f64) as isize).clamp(0, self.nz as isize - 1);
        self.cell_index(ix as usize, iy as usize, iz as usize)
    }

    /// Geometric centre of a cell (used as the partitioning coordinate of the cell).
    pub fn cell_center(&self, cell: usize) -> [f64; 3] {
        let (i, j, k) = self.cell_coords(cell);
        [
            (i as f64 + 0.5) * self.lx / self.nx as f64,
            (j as f64 + 0.5) * self.ly / self.ny as f64,
            (k as f64 + 0.5) * self.lz / self.nz as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_coords_round_trip() {
        let g = CellGrid::new_3d(4, 5, 6);
        assert_eq!(g.ncells(), 120);
        for cell in 0..g.ncells() {
            let (i, j, k) = g.cell_coords(cell);
            assert_eq!(g.cell_index(i, j, k), cell);
        }
    }

    #[test]
    fn two_dimensional_grid_has_one_z_layer() {
        let g = CellGrid::new_2d(48, 48);
        assert!(g.is_2d());
        assert_eq!(g.ncells(), 2304);
        assert_eq!(g.cell_coords(48 * 3 + 7), (7, 3, 0));
    }

    #[test]
    fn positions_map_to_their_cells() {
        let g = CellGrid::new_2d(10, 10);
        assert_eq!(g.cell_of_position([0.5, 0.5, 0.5]), 0);
        assert_eq!(g.cell_of_position([1.5, 0.5, 0.0]), 1);
        assert_eq!(g.cell_of_position([9.99, 9.99, 0.0]), 99);
        // Clamping at (and slightly beyond) the boundary.
        assert_eq!(g.cell_of_position([10.0, 0.0, 0.0]), 9);
        assert_eq!(g.cell_of_position([-0.1, 0.0, 0.0]), 0);
    }

    #[test]
    fn cell_centers_lie_inside_their_cells() {
        let g = CellGrid::new_3d(3, 4, 5);
        for cell in 0..g.ncells() {
            let c = g.cell_center(cell);
            assert_eq!(g.cell_of_position(c), cell);
        }
    }
}
