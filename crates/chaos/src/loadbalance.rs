//! The load-balance metric.
//!
//! Section 4.1 of the paper defines the load-balance index as
//! `LB = max_i(t_i) * n / sum_i(t_i)` where `t_i` is processor *i*'s computation time —
//! 1.0 is perfect balance, and CHARMM stays between 1.03 and 1.08 up to 128 processors.
//! DSMC uses the drift of this quantity to decide when remapping is worthwhile; the
//! [`crate::adapt::RemapController`] turns that drift into remap/keep decisions.
//!
//! # The non-finite contract
//!
//! The index is `NaN` whenever *any* sample is non-finite (`NaN` or `±inf`).  A
//! corrupted sample must never be laundered into a plausible-looking index: every
//! comparison against `NaN` is false, so a `NaN` index fails every "imbalanced enough to
//! remap?" test and the remap controller safely keeps the current distribution.  The tests
//! below pin this contract; [`crate::adapt`] relies on it.

/// The paper's load-balance index: `max(times) * n / sum(times)`.  Returns 1.0 for an
/// empty slice or an all-zero workload (a degenerate but balanced situation), and `NaN`
/// when any sample is non-finite (see the module docs for the contract).
pub fn load_balance_index(per_proc_times: &[f64]) -> f64 {
    if per_proc_times.is_empty() {
        return 1.0;
    }
    if !per_proc_times.iter().all(|t| t.is_finite()) {
        return f64::NAN;
    }
    let max = per_proc_times.iter().copied().fold(0.0f64, f64::max);
    let sum: f64 = per_proc_times.iter().sum();
    if sum <= 0.0 {
        1.0
    } else {
        max * per_proc_times.len() as f64 / sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_balance_is_one() {
        assert_eq!(load_balance_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
    }

    #[test]
    fn paper_definition_matches_hand_computation() {
        // times 1,2,3,4: max=4, mean=2.5 => LB = 1.6
        assert!((load_balance_index(&[1.0, 2.0, 3.0, 4.0]) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(load_balance_index(&[]), 1.0);
        assert_eq!(load_balance_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn single_processor_is_balanced() {
        assert_eq!(load_balance_index(&[42.0]), 1.0);
    }

    #[test]
    fn any_nan_sample_poisons_the_index() {
        // The contract: one NaN sample anywhere makes the whole index NaN — it must not
        // be silently dropped by the max fold (f64::max(x, NaN) returns x, which
        // would otherwise hide the corruption entirely).
        assert!(load_balance_index(&[f64::NAN]).is_nan());
        assert!(load_balance_index(&[1.0, f64::NAN, 3.0]).is_nan());
        assert!(load_balance_index(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn infinite_samples_are_poison_too() {
        assert!(load_balance_index(&[1.0, f64::INFINITY]).is_nan());
        assert!(load_balance_index(&[f64::NEG_INFINITY, 1.0]).is_nan());
    }

    #[test]
    // The negated comparisons are the point: NaN makes every ordering comparison false.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn nan_index_never_triggers_a_threshold() {
        // What the remap controller relies on: every comparison against the poisoned
        // index is false, so no threshold test can fire.
        let lb = load_balance_index(&[1.0, f64::NAN]);
        assert!(!(lb > 1.5));
        assert!(!(lb >= 0.0));
        assert!(!(lb < f64::INFINITY));
    }
}
