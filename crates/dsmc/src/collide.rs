//! The per-cell collision phase.
//!
//! DSMC molecules interact only with molecules in the same cell.  The physics here is a
//! deliberately simple stand-in (randomly paired elastic exchanges), but two properties of
//! the real code are preserved because the parallelisation depends on them:
//!
//! * the computational cost of a cell is proportional to its molecule count — this is what
//!   makes the drifting density profile translate into load imbalance;
//! * the outcome is **deterministic given the cell id, the step number and the molecule
//!   set** (molecules are sorted by id and the pairing RNG is seeded from cell and step),
//!   so the sequential and parallel codes produce bit-identical trajectories no matter
//!   which processor owns the cell or in which order migrating molecules arrived.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::particles::Particle;

thread_local! {
    /// The pairing permutation, reused across cells and steps so the collision phase
    /// allocates nothing once it has seen its largest cell (one buffer per rank thread).
    static ORDER: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Perform the collision phase for one cell.  Returns the number of collision pairs
/// processed (the work measure).
pub fn collide_cell(cell_id: usize, step: usize, seed: u64, particles: &mut [Particle]) -> usize {
    if particles.len() < 2 {
        return 0;
    }
    // Deterministic ordering regardless of arrival order.
    particles.sort_unstable_by_key(|p| p.id);
    // Deterministic pairing.  The shuffle's draws depend only on the length, not on the
    // element type, so `u32` indices give the same permutation as `usize` ones.
    let mut rng = StdRng::seed_from_u64(
        seed ^ (cell_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (step as u64) << 32,
    );
    ORDER.with_borrow_mut(|order| {
        order.clear();
        order.extend(0..particles.len() as u32);
        order.shuffle(&mut rng);
        for pair in order.chunks_exact(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            // Elastic equal-mass exchange: swap velocities (conserves momentum and energy).
            let va = particles[a].vel;
            particles[a].vel = particles[b].vel;
            particles[b].vel = va;
        }
    });
    particles.len() / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total momentum of a particle set.
    fn total_momentum(particles: &[Particle]) -> [f64; 3] {
        let mut m = [0.0; 3];
        for p in particles {
            for (mk, vk) in m.iter_mut().zip(&p.vel) {
                *mk += vk;
            }
        }
        m
    }

    /// Total kinetic energy of a particle set (unit mass).
    fn total_energy(particles: &[Particle]) -> f64 {
        particles
            .iter()
            .map(|p| 0.5 * (p.vel[0] * p.vel[0] + p.vel[1] * p.vel[1] + p.vel[2] * p.vel[2]))
            .sum()
    }

    fn sample(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| Particle {
                pos: [i as f64, 0.0, 0.0],
                vel: [i as f64 * 0.1 - 1.0, (i % 3) as f64, -(i as f64) * 0.05],
                id: i as u64,
            })
            .collect()
    }

    #[test]
    fn collisions_conserve_momentum_and_energy() {
        let mut particles = sample(17);
        let m0 = total_momentum(&particles);
        let e0 = total_energy(&particles);
        let pairs = collide_cell(3, 7, 42, &mut particles);
        assert_eq!(pairs, 8);
        let m1 = total_momentum(&particles);
        let e1 = total_energy(&particles);
        for k in 0..3 {
            assert!((m0[k] - m1[k]).abs() < 1e-12);
        }
        assert!((e0 - e1).abs() < 1e-12);
    }

    #[test]
    fn outcome_is_independent_of_input_order() {
        let mut a = sample(12);
        let mut b = sample(12);
        b.reverse(); // simulate a different arrival order after migration
        collide_cell(5, 2, 9, &mut a);
        collide_cell(5, 2, 9, &mut b);
        // After the phase both are sorted by id and must be identical.
        assert_eq!(a, b);
    }

    #[test]
    fn different_cells_or_steps_collide_differently() {
        let base = sample(10);
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        collide_cell(1, 1, 7, &mut a);
        collide_cell(2, 1, 7, &mut b);
        collide_cell(1, 2, 7, &mut c);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tiny_cells_are_no_ops() {
        let mut empty: Vec<Particle> = Vec::new();
        assert_eq!(collide_cell(0, 0, 0, &mut empty), 0);
        let mut single = sample(1);
        assert_eq!(collide_cell(0, 0, 0, &mut single), 0);
        assert_eq!(single, sample(1));
    }
}
