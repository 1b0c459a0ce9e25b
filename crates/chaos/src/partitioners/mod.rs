//! Data partitioners (Phase A).
//!
//! CHAOS "supports a number of parallel partitioners that partition data arrays using
//! heuristics based on spatial positions, computational load, connectivity, etc." (§3.1).
//! The ones the paper's experiments use are implemented here:
//!
//! * [`rcb_partition`] — recursive coordinate bisection (Berger–Bokhari style): split the
//!   bounding box along its longest axis at the weighted median, recurse.
//! * [`rib_partition`] — recursive inertial bisection (Nour-Omid et al.): like RCB but the
//!   split direction is the principal axis of inertia of the point set, which adapts to
//!   skewed geometries.
//! * [`chain_partition`] — the fast one-dimensional chain partitioner (Nicol/O'Hallaron)
//!   used by DSMC when the particle flow is strongly directional: equal-weight contiguous
//!   slabs along one axis, computed from a weight histogram in a single reduction.
//! * [`block_map`] / [`cyclic_map`] — the regular distributions, for comparison baselines.
//!
//! All geometric partitioners are SPMD: each rank passes the coordinates and computational
//! weights of the elements it currently holds and receives the *new owner* of each of those
//! elements.  The result is a map-array fragment that feeds straight into
//! [`crate::translation::TranslationTable::replicated_from_map`] and then
//! [`crate::remap`].

mod bisection;
mod chain;
mod geometry;
mod regular;

pub use bisection::{rcb_partition, rib_partition};
pub use chain::chain_partition;
pub use geometry::{bounding_box, principal_axis, weighted_median_split};
pub use regular::{block_map, cyclic_map};

/// The per-element inputs a geometric partitioner needs: spatial position and
/// computational weight (for CHARMM, the non-bonded list length of the atom; for DSMC, the
/// number of molecules in the cell).
#[derive(Debug, Clone, Copy)]
pub struct PartitionInput<'a> {
    /// Spatial position of each local element (2-D problems set the third component to 0).
    pub coords: &'a [[f64; 3]],
    /// Non-negative computational weight of each local element.
    pub weights: &'a [f64],
}

impl<'a> PartitionInput<'a> {
    /// Bundle coordinates and weights, checking that the lengths agree.
    pub fn new(coords: &'a [[f64; 3]], weights: &'a [f64]) -> Self {
        assert_eq!(
            coords.len(),
            weights.len(),
            "coordinates and weights must have the same length"
        );
        Self { coords, weights }
    }

    /// Number of local elements.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True if this rank currently holds no elements.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_input_checks_lengths() {
        let coords = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let weights = [1.0, 2.0];
        let input = PartitionInput::new(&coords, &weights);
        assert_eq!(input.len(), 2);
        assert!(!input.is_empty());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn partition_input_rejects_mismatched_lengths() {
        let coords = [[0.0, 0.0, 0.0]];
        let weights = [1.0, 2.0];
        let _ = PartitionInput::new(&coords, &weights);
    }
}
