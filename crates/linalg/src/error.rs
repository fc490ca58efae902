//! Error type for linear-algebra operations.

use std::fmt;

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Dimensions of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix is not positive definite (Cholesky pivot ≤ 0).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// An iterative solver failed to converge within its iteration budget.
    DidNotConverge {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the last iteration.
        residual: f64,
    },
    /// Input contained NaN or infinite values.
    NonFinite {
        /// Description of the offending operand.
        what: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            LinalgError::NonFinite { what } => {
                write!(f, "non-finite values in {what}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_other_variants() {
        assert!(LinalgError::NotPositiveDefinite { pivot: 3 }
            .to_string()
            .contains("pivot 3"));
        assert!(LinalgError::DidNotConverge {
            iterations: 10,
            residual: 0.5
        }
        .to_string()
        .contains("10 iterations"));
        assert!(LinalgError::NonFinite { what: "rhs" }
            .to_string()
            .contains("rhs"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinalgError::NotPositiveDefinite { pivot: 0 });
    }
}
