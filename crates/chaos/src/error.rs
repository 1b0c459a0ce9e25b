//! Error type for fallible CHAOS operations.
//!
//! Most of the runtime follows the original library's philosophy and treats programming
//! errors (out-of-range indices, mismatched collective calls) as panics, but operations
//! whose failure is data-dependent — a map array that assigns an element to a processor
//! the machine does not have — report a `ChaosError`.

use std::fmt;

/// Errors reported by CHAOS runtime procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// A distribution map assigned an element to a processor outside `0..nprocs`.
    OwnerOutOfRange {
        /// The offending global index.
        index: usize,
        /// The processor it was assigned to.
        owner: usize,
        /// Number of processors in the machine.
        nprocs: usize,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::OwnerOutOfRange {
                index,
                owner,
                nprocs,
            } => write!(
                f,
                "element {index} assigned to processor {owner}, but the machine has {nprocs} processors"
            ),
        }
    }
}

impl std::error::Error for ChaosError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_numbers() {
        let e = ChaosError::OwnerOutOfRange {
            index: 3,
            owner: 9,
            nprocs: 4,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('9') && s.contains('4'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<ChaosError>();
    }
}
