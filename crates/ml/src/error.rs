//! Error type for model fitting and prediction.

use std::fmt;

/// Errors produced while fitting or applying models.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The training set is empty or degenerate.
    EmptyTrainingSet,
    /// Row width at prediction time differs from the fitted width.
    WidthMismatch {
        /// Width the model was fitted on.
        expected: usize,
        /// Width supplied at prediction time.
        got: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(f2pm_linalg::LinalgError),
    /// Training data contains NaN/inf.
    NonFiniteData,
    /// An iterative fit did not converge within its budget.
    DidNotConverge {
        /// Human-readable description of the failing stage.
        stage: &'static str,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyTrainingSet => write!(f, "empty training set"),
            MlError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "feature width mismatch: model expects {expected}, got {got}"
                )
            }
            MlError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            MlError::NonFiniteData => write!(f, "training data contains NaN or inf"),
            MlError::DidNotConverge { stage } => {
                write!(f, "iterative fit did not converge ({stage})")
            }
        }
    }
}

impl std::error::Error for MlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MlError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<f2pm_linalg::LinalgError> for MlError {
    fn from(e: f2pm_linalg::LinalgError) -> Self {
        MlError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(MlError::EmptyTrainingSet.to_string(), "empty training set");
        let w = MlError::WidthMismatch {
            expected: 3,
            got: 5,
        };
        assert!(w.to_string().contains("expects 3"));
        assert!(MlError::NonFiniteData.to_string().contains("NaN"));
        assert!(MlError::DidNotConverge { stage: "svr" }
            .to_string()
            .contains("svr"));
    }

    #[test]
    fn from_linalg_preserves_source() {
        let inner = f2pm_linalg::LinalgError::NotPositiveDefinite { pivot: 1 };
        let e: MlError = inner.clone().into();
        assert!(e.to_string().contains("not positive definite"));
        let src = std::error::Error::source(&e).expect("has source");
        assert_eq!(src.to_string(), inner.to_string());
    }
}
