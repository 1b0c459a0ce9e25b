//! Molecule state and deterministic seeding.
//!
//! The paper's DSMC experiments have a strongly directional flow ("more than 70 percent of
//! the molecules were found moving along the positive x-axis"), which is what makes the
//! chain partitioner along the flow direction effective.  [`FlowConfig`] controls the
//! drift-to-thermal velocity ratio so the benchmark harnesses can dial that property in,
//! and a uniform zero-drift configuration reproduces the "load deliberately evenly
//! distributed" setting of Table 4.

use mpsim::impl_element_struct;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::grid::CellGrid;

/// One gas molecule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Particle {
    /// Position inside the domain.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Globally unique identifier (stable across migrations; used to make the collision
    /// phase deterministic regardless of arrival order).
    pub id: u64,
}

impl_element_struct!(Particle {
    pos: [f64; 3],
    vel: [f64; 3],
    id: u64
});

/// Flow-field parameters for particle seeding.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Mean drift velocity along +x (cells per unit time).
    pub drift_x: f64,
    /// Thermal (isotropic random) velocity scale.
    pub thermal: f64,
    /// RNG seed; every rank must use the same seed so seeding is reproducible everywhere.
    pub seed: u64,
}

impl FlowConfig {
    /// The paper's directional flow: drift along +x dominating the thermal motion, so
    /// roughly 70 % or more of molecules move in +x.
    pub fn directional(seed: u64) -> Self {
        Self {
            drift_x: 0.6,
            thermal: 0.5,
            seed,
        }
    }

    /// A drift-free flow whose load stays uniform (the Table 4 setting).
    pub fn uniform(seed: u64) -> Self {
        Self {
            drift_x: 0.0,
            thermal: 0.7,
            seed,
        }
    }
}

/// Seed `count` particles uniformly over the grid's domain.  Deterministic in
/// `flow.seed`, so every rank can generate the identical global particle set and keep only
/// the particles that fall in cells it owns.
pub fn seed_particles(grid: &CellGrid, count: usize, flow: &FlowConfig) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(flow.seed);
    (0..count)
        .map(|id| {
            let pos = [
                rng.gen_range(0.0..grid.lx),
                rng.gen_range(0.0..grid.ly),
                if grid.is_2d() {
                    grid.lz * 0.5
                } else {
                    rng.gen_range(0.0..grid.lz)
                },
            ];
            let vel = [
                flow.drift_x + rng.gen_range(-flow.thermal..flow.thermal),
                rng.gen_range(-flow.thermal..flow.thermal),
                if grid.is_2d() {
                    0.0
                } else {
                    rng.gen_range(-flow.thermal..flow.thermal)
                },
            ];
            Particle {
                pos,
                vel,
                id: id as u64,
            }
        })
        .collect()
}

/// Advance one particle by `dt`: specular reflection at the x walls (so a directional flow
/// piles molecules up against the downstream wall and the load distribution drifts, as in
/// the paper's 3-D experiment), periodic wrap in y and z.
#[inline]
pub fn advance(particle: &mut Particle, grid: &CellGrid, dt: f64) {
    for k in 0..3 {
        particle.pos[k] += particle.vel[k] * dt;
    }
    // Reflecting walls along x.
    if particle.pos[0] < 0.0 {
        particle.pos[0] = -particle.pos[0];
        particle.vel[0] = -particle.vel[0];
    } else if particle.pos[0] >= grid.lx {
        particle.pos[0] = (2.0 * grid.lx - particle.pos[0]).max(0.0);
        particle.vel[0] = -particle.vel[0];
    }
    particle.pos[0] = particle.pos[0].clamp(0.0, grid.lx * (1.0 - 1e-12));
    // Periodic in y (and z for 3-D grids).
    particle.pos[1] = wrap(particle.pos[1], grid.ly);
    if grid.is_2d() {
        particle.pos[2] = grid.lz * 0.5;
    } else {
        particle.pos[2] = wrap(particle.pos[2], grid.lz);
    }
}

/// `x.rem_euclid(l)` for a period `l > 0`, bit for bit, without the `fmod` call on the
/// ranges a time step reaches.  Inside one period below or above the domain the shift by
/// `l` is what `fmod` computes: `x + l` rounds exactly as `rem_euclid`'s own `r + l`, and
/// `x - l` is exact for `l <= x < 2l` (Sterbenz).  Everything else, `-l` included (where
/// `rem_euclid` returns `-0.0`, not `x + l = +0.0`), NaN and the infinities, takes
/// `rem_euclid` itself.
#[inline]
fn wrap(x: f64, l: f64) -> f64 {
    if x >= 0.0 {
        if x < l {
            x
        } else if x < 2.0 * l {
            x - l
        } else {
            x.rem_euclid(l)
        }
    } else if x > -l {
        x + l
    } else {
        x.rem_euclid(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_in_domain() {
        let grid = CellGrid::new_2d(16, 16);
        let flow = FlowConfig::directional(7);
        let a = seed_particles(&grid, 500, &flow);
        let b = seed_particles(&grid, 500, &flow);
        assert_eq!(a, b);
        for p in &a {
            assert!(p.pos[0] >= 0.0 && p.pos[0] < grid.lx);
            assert!(p.pos[1] >= 0.0 && p.pos[1] < grid.ly);
        }
        // Unique ids.
        let mut ids: Vec<u64> = a.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 500);
    }

    #[test]
    fn directional_flow_puts_most_molecules_on_positive_x() {
        let grid = CellGrid::new_3d(8, 8, 8);
        let flow = FlowConfig::directional(11);
        let particles = seed_particles(&grid, 2_000, &flow);
        let positive = particles.iter().filter(|p| p.vel[0] > 0.0).count();
        let fraction = positive as f64 / particles.len() as f64;
        assert!(
            fraction > 0.7,
            "expected >70% of molecules moving along +x, got {fraction:.2}"
        );
    }

    #[test]
    fn uniform_flow_is_roughly_symmetric() {
        let grid = CellGrid::new_2d(8, 8);
        let particles = seed_particles(&grid, 2_000, &FlowConfig::uniform(3));
        let positive = particles.iter().filter(|p| p.vel[0] > 0.0).count();
        let fraction = positive as f64 / particles.len() as f64;
        assert!(
            (0.4..0.6).contains(&fraction),
            "drift-free flow skewed: {fraction}"
        );
    }

    #[test]
    fn advance_reflects_at_x_walls_and_wraps_y() {
        let grid = CellGrid::new_2d(4, 4);
        let mut p = Particle {
            pos: [3.9, 3.9, 0.5],
            vel: [1.0, 1.0, 0.0],
            id: 0,
        };
        advance(&mut p, &grid, 0.5);
        // x reflected off the wall at 4.0, y wrapped around 4.0.
        assert!(p.pos[0] < 4.0 && p.pos[0] > 3.0);
        assert!(p.vel[0] < 0.0);
        assert!(p.pos[1] < 1.0);
        assert!(p.vel[1] > 0.0);
    }

    #[test]
    fn advance_keeps_particles_inside_the_domain() {
        let grid = CellGrid::new_3d(4, 4, 4);
        let flow = FlowConfig::directional(5);
        let mut particles = seed_particles(&grid, 200, &flow);
        for _ in 0..50 {
            for p in &mut particles {
                advance(p, &grid, 0.4);
                assert!(p.pos[0] >= 0.0 && p.pos[0] < grid.lx);
                assert!(p.pos[1] >= 0.0 && p.pos[1] < grid.ly);
                assert!(p.pos[2] >= 0.0 && p.pos[2] < grid.lz);
            }
        }
    }

    #[test]
    fn wrap_is_rem_euclid_bit_for_bit() {
        let same = |x: f64, l: f64| {
            let (got, want) = (wrap(x, l), x.rem_euclid(l));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "wrap({x:e}, {l}) = {got:e}, rem_euclid gives {want:e}"
            );
        };
        let tiny = f64::from_bits(1);
        // One ulp towards zero, and one away from it.
        let inward = |v: f64| f64::from_bits(v.to_bits() - 1);
        let outward = |v: f64| f64::from_bits(v.to_bits() + 1);
        for l in [1.0, 4.0, 16.0, 7.3, 0.1, 1e-300, 3e300] {
            for x in [
                -l,
                inward(-l),
                outward(-l),
                -0.0,
                0.0,
                tiny,
                -tiny,
                inward(l),
                l,
                inward(2.0 * l),
                2.0 * l,
                -2.0 * l,
                3.0 * l,
                -3.0 * l,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                same(x, l);
            }
            let mut rng = StdRng::seed_from_u64(l.to_bits());
            for _ in 0..20_000 {
                same(rng.gen_range(-3.0 * l..3.0 * l), l);
            }
        }
    }

    #[test]
    fn particle_encodes_through_the_message_layer() {
        // Six f64 lanes and a u64 id: every migrating particle is charged 56 bytes.
        assert_eq!(<Particle as mpsim::Element>::SIZE, 56);
    }
}
