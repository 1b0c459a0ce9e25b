//! Velocity-Verlet integration ("Calculate new positions based on BF and NBF" in
//! Figure 2).

/// Integration time step used by both the sequential and parallel drivers.
pub const DT: f64 = 0.002;

/// Advance one atom by one velocity-Verlet half-kick/drift/half-kick step, assuming the
/// force is constant over the step (adequate for a structural mini-app).  Positions wrap
/// into the periodic box, bit for bit as `rem_euclid` would.
pub fn integrate_atom(
    position: &mut [f64; 3],
    velocity: &mut [f64; 3],
    force: [f64; 3],
    mass: f64,
    box_size: f64,
) {
    for k in 0..3 {
        velocity[k] += force[k] / mass * DT;
        position[k] = wrap(position[k] + velocity[k] * DT, box_size);
    }
}

/// `x.rem_euclid(l)` for a period `l > 0`, bit for bit, without `fmod` within a period of
/// the box: `x + l` rounds as `rem_euclid`'s own `r + l`, and `x - l` is exact for
/// `l <= x < 2l` (Sterbenz).  `-l` (where `rem_euclid` gives `-0.0`), NaN and the
/// infinities take `rem_euclid` itself.  DSMC's `particles::wrap` is the same function.
#[inline]
fn wrap(x: f64, l: f64) -> f64 {
    match x {
        _ if (0.0..l).contains(&x) => x,
        _ if (l..2.0 * l).contains(&x) => x - l,
        _ if x < 0.0 && x > -l => x + l,
        _ => x.rem_euclid(l),
    }
}

/// Integrate a whole set of atoms in place.
pub fn integrate_all(
    positions: &mut [[f64; 3]],
    velocities: &mut [[f64; 3]],
    forces: &[[f64; 3]],
    masses: &[f64],
    box_size: f64,
) {
    for i in 0..positions.len() {
        integrate_atom(
            &mut positions[i],
            &mut velocities[i],
            forces[i],
            masses[i],
            box_size,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // DSMC's periods, and the boxes of the unit-test, benchmark and paper systems.
        for l in [1.0, 4.0, 16.0, 7.3, 0.1, 1e-300, 3e300, 14.0, 28.0, 55.0] {
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
    fn free_atom_moves_in_a_straight_line() {
        let mut p = [1.0, 1.0, 1.0];
        let mut v = [1.0, 0.0, -0.5];
        for _ in 0..10 {
            integrate_atom(&mut p, &mut v, [0.0; 3], 1.0, 100.0);
        }
        assert!((p[0] - (1.0 + 10.0 * DT)).abs() < 1e-12);
        assert!((p[2] - (1.0 - 5.0 * DT)).abs() < 1e-12);
        assert_eq!(v, [1.0, 0.0, -0.5]);
    }

    #[test]
    fn constant_force_accelerates() {
        let mut p = [0.0; 3];
        let mut v = [0.0; 3];
        integrate_atom(&mut p, &mut v, [2.0, 0.0, 0.0], 2.0, 100.0);
        assert!((v[0] - DT).abs() < 1e-12);
        assert!(p[0] > 0.0);
    }

    #[test]
    fn positions_wrap_into_the_box() {
        let mut p = [9.999, 0.001, 5.0];
        let mut v = [10.0, -10.0, 0.0];
        integrate_atom(&mut p, &mut v, [0.0; 3], 1.0, 10.0);
        assert!(p[0] >= 0.0 && p[0] < 10.0);
        assert!(p[1] >= 0.0 && p[1] < 10.0);
    }

    #[test]
    fn integrate_all_matches_per_atom() {
        let mut p1 = vec![[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]];
        let mut v1 = vec![[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]];
        let f = vec![[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]];
        let m = vec![1.0, 2.0];
        let mut p2 = p1.clone();
        let mut v2 = v1.clone();
        integrate_all(&mut p1, &mut v1, &f, &m, 10.0);
        for i in 0..2 {
            integrate_atom(&mut p2[i], &mut v2[i], f[i], m[i], 10.0);
        }
        assert_eq!(p1, p2);
        assert_eq!(v1, v2);
    }
}
