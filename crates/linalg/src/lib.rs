//! # f2pm-linalg
//!
//! Minimal, dependency-free dense linear algebra for the F2PM reproduction.
//!
//! The F2PM pipeline hand-rolls all of its regressors (OLS, lasso coordinate
//! descent, LS-SVM kernel solves, SVR), so it needs a small but solid dense
//! linear-algebra kernel: a row-major [`Matrix`], the Cholesky factorization
//! and its triangular solves, least squares with an intercept over a subset
//! of rows ([`ols`], on the same Cholesky), a conjugate-gradient solver (the
//! baseline the solver benchmarks compare the factorization against), and
//! column statistics / standardization used by the feature pipeline.
//!
//! Everything operates on `f64`. Matrices are stored row-major in a single
//! contiguous `Vec<f64>` (cache-friendly for the row-wise access patterns of
//! the regression solvers; see the Rust Performance Book guidance on
//! contiguous storage and avoiding per-element allocation).
//!
//! ## Quick example
//!
//! ```
//! use f2pm_linalg::{ols, Matrix};
//!
//! // Fit y = 2x + 1 exactly, then again over rows 0 and 2 only.
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
//! let y = [1.0, 3.0, 5.0];
//! for rows in [&[0, 1, 2][..], &[0, 2]] {
//!     let (intercept, slopes) = ols(&x, &y, rows).unwrap();
//!     assert!((intercept - 1.0).abs() < 1e-10);
//!     assert!((slopes[0] - 2.0).abs() < 1e-10);
//! }
//! ```

// Indexed loops in the numeric kernels intentionally mirror the textbook
// algorithm statements (i/j/k over matrix entries).
#![allow(clippy::needless_range_loop)]

mod cg;
mod cholesky;
mod error;
mod gemm;
mod matrix;
mod ols;
mod stats;
mod threads;
mod update;
mod vector;

pub use cg::{conjugate_gradient, CgOptions, CgOutcome};
pub use cholesky::{Cholesky, CHOL_BLOCK, CHOL_BLOCKED_MIN};
pub use error::LinalgError;
pub use gemm::{
    mirror_upper, on_triangle_bands, syrk_rows, syrk_rows_upper, syrk_rows_upper_scratch,
    worker_count, PARALLEL_MIN_ELEMS,
};
pub use matrix::Matrix;
pub use ols::ols;
pub use stats::{ColumnStats, Standardizer};
pub use threads::{pool_map, pool_map_with, pool_threads};
pub use vector::{axpy, axpy2, dot, norm2};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
