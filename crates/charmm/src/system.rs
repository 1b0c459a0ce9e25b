//! Synthetic molecular systems with the size and structure of the paper's benchmark case.
//!
//! The paper's CHARMM experiments use myoglobin + carbon monoxide solvated by 3 830 water
//! molecules — 14 026 atoms in total (the `reg(14026)` decomposition of Figure 10).  We do
//! not need the chemistry, only a configuration with the same *computational* signature:
//! a dense cluster of "protein" atoms connected by chains of bonds, surrounded by "water"
//! molecules (three atoms, two bonds each), all placed in a periodic box at roughly liquid
//! density so that a 14 Å-style cutoff produces neighbour lists of realistic length.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters controlling the synthetic system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of atoms in the dense "protein" cluster.
    pub protein_atoms: usize,
    /// Number of water molecules (3 atoms each).
    pub water_molecules: usize,
    /// Edge length of the cubic periodic box (arbitrary length units; think Ångström).
    pub box_size: f64,
    /// Cutoff radius for non-bonded interactions.
    pub cutoff: f64,
    /// RNG seed so every rank (and every run) builds the identical system.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's benchmark scale: MbCO (≈ 2 536 protein atoms) + 3 830 waters
    /// = 14 026 atoms, 14 Å cutoff.
    pub fn paper_benchmark() -> Self {
        Self {
            protein_atoms: 2_536,
            water_molecules: 3_830,
            box_size: 55.0,
            cutoff: 14.0,
            seed: 1994,
        }
    }

    /// A small configuration for unit tests and quick examples.
    pub fn small(seed: u64) -> Self {
        Self {
            protein_atoms: 60,
            water_molecules: 80,
            box_size: 14.0,
            cutoff: 4.5,
            seed,
        }
    }

    /// Total number of atoms this configuration produces.
    pub fn total_atoms(&self) -> usize {
        self.protein_atoms + 3 * self.water_molecules
    }
}

/// A molecular system: positions, velocities, masses and the bonded topology.
#[derive(Debug, Clone)]
pub struct MolecularSystem {
    /// Per-atom position (x, y, z).
    pub positions: Vec<[f64; 3]>,
    /// Per-atom velocity.
    pub velocities: Vec<[f64; 3]>,
    /// Per-atom mass.
    pub masses: Vec<f64>,
    /// Bond list: pairs of atom indices (the `ib`/`jb` indirection arrays of Figure 2).
    pub bonds: Vec<(usize, usize)>,
    /// Periodic box edge length.
    pub box_size: f64,
    /// Non-bonded cutoff radius.
    pub cutoff: f64,
}

impl MolecularSystem {
    /// Build the synthetic system described by `config`.
    pub fn build(config: &SystemConfig) -> Self {
        let n = config.total_atoms();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut positions = Vec::with_capacity(n);
        let mut velocities = Vec::with_capacity(n);
        let mut masses = Vec::with_capacity(n);
        let mut bonds = Vec::new();

        // Protein: a random walk confined to the central third of the box, with chain
        // bonds between consecutive atoms and occasional cross-links (like a folded
        // backbone with side chains).
        let centre = config.box_size / 2.0;
        let spread = config.box_size / 6.0;
        let mut cursor = [centre, centre, centre];
        for i in 0..config.protein_atoms {
            for slot in &mut cursor {
                *slot += rng.gen_range(-1.2..1.2);
                let lo = centre - spread;
                let hi = centre + spread;
                *slot = slot.clamp(lo, hi);
            }
            positions.push(cursor);
            velocities.push([
                rng.gen_range(-0.05..0.05),
                rng.gen_range(-0.05..0.05),
                rng.gen_range(-0.05..0.05),
            ]);
            masses.push(12.0);
            if i > 0 {
                bonds.push((i - 1, i));
            }
            if i > 10 && rng.gen_bool(0.15) {
                let partner = rng.gen_range(0..i.saturating_sub(5));
                bonds.push((partner, i));
            }
        }

        // Water: three atoms per molecule (O + 2 H), placed uniformly in the box, with
        // two O–H bonds per molecule.
        for _ in 0..config.water_molecules {
            let o = [
                rng.gen_range(0.0..config.box_size),
                rng.gen_range(0.0..config.box_size),
                rng.gen_range(0.0..config.box_size),
            ];
            let o_index = positions.len();
            positions.push(o);
            velocities.push([
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
            ]);
            masses.push(16.0);
            for h in 0..2 {
                let offset = 0.96;
                let angle = 1.91 * h as f64 + rng.gen_range(-0.1..0.1);
                let pos = [
                    (o[0] + offset * angle.cos()).rem_euclid(config.box_size),
                    (o[1] + offset * angle.sin()).rem_euclid(config.box_size),
                    (o[2] + offset * 0.3).rem_euclid(config.box_size),
                ];
                let h_index = positions.len();
                positions.push(pos);
                velocities.push([
                    rng.gen_range(-0.2..0.2),
                    rng.gen_range(-0.2..0.2),
                    rng.gen_range(-0.2..0.2),
                ]);
                masses.push(1.0);
                bonds.push((o_index, h_index));
            }
        }

        MolecularSystem {
            positions,
            velocities,
            masses,
            bonds,
            box_size: config.box_size,
            cutoff: config.cutoff,
        }
    }

    /// Number of atoms.
    pub fn natoms(&self) -> usize {
        self.positions.len()
    }
}

/// Minimum-image displacement between two positions in a cubic periodic box.
pub fn displacement_pbc(a: [f64; 3], b: [f64; 3], box_size: f64) -> [f64; 3] {
    let mut d = [0.0; 3];
    for k in 0..3 {
        let mut delta = b[k] - a[k];
        if delta > box_size / 2.0 {
            delta -= box_size;
        } else if delta < -box_size / 2.0 {
            delta += box_size;
        }
        d[k] = delta;
    }
    d
}

/// Squared length of a displacement vector.
pub fn dist2(d: [f64; 3]) -> f64 {
    d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_benchmark_has_14026_atoms() {
        let cfg = SystemConfig::paper_benchmark();
        assert_eq!(cfg.total_atoms(), 14_026);
    }

    #[test]
    fn build_produces_consistent_arrays() {
        let cfg = SystemConfig::small(7);
        let sys = MolecularSystem::build(&cfg);
        assert_eq!(sys.natoms(), cfg.total_atoms());
        assert_eq!(sys.positions.len(), sys.velocities.len());
        assert_eq!(sys.positions.len(), sys.masses.len());
        assert!(!sys.bonds.is_empty());
        // All atoms inside the box, all bonds reference valid atoms.
        for p in &sys.positions {
            for d in 0..3 {
                assert!(
                    p[d] >= 0.0 && p[d] <= cfg.box_size,
                    "atom outside box: {p:?}"
                );
            }
        }
        for &(i, j) in &sys.bonds {
            assert!(i < sys.natoms() && j < sys.natoms());
            assert_ne!(i, j);
        }
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let cfg = SystemConfig::small(42);
        let a = MolecularSystem::build(&cfg);
        let b = MolecularSystem::build(&cfg);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.bonds, b.bonds);
        let c = MolecularSystem::build(&SystemConfig::small(43));
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn water_molecules_add_two_bonds_each() {
        let cfg = SystemConfig {
            protein_atoms: 0,
            water_molecules: 10,
            box_size: 20.0,
            cutoff: 5.0,
            seed: 3,
        };
        let sys = MolecularSystem::build(&cfg);
        assert_eq!(sys.natoms(), 30);
        assert_eq!(sys.bonds.len(), 20);
    }

    #[test]
    fn periodic_displacement_uses_minimum_image() {
        let d = displacement_pbc([0.5, 0.0, 0.0], [9.5, 0.0, 0.0], 10.0);
        assert!((d[0] - (-1.0)).abs() < 1e-12);
        let d = displacement_pbc([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], 10.0);
        assert_eq!(d, [1.0, 1.0, 1.0]);
        assert_eq!(dist2([3.0, 4.0, 0.0]), 25.0);
    }
}
