//! Conjugate-gradient solver for symmetric positive-definite systems.
//!
//! The LS-SVM solve on a kernel matrix is `O(n³)` with a direct
//! factorization; CG is the `O(k n²)` alternative. `f2pm-ml::lssvm` always
//! factors (a linear kernel never builds the n × n system at all), so CG
//! serves as the baseline the solver benchmarks time the factorization
//! against, and as an independent cross-check of the Cholesky path in
//! tests.

use crate::{axpy, dot, LinalgError, Matrix, Result};

/// Options controlling the CG iteration.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Maximum iterations. Defaults to `10 * n`.
    pub max_iter: Option<usize>,
    /// Relative residual tolerance: stop when `||r|| <= tol * ||b||`.
    pub tol: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iter: None,
            tol: 1e-10,
        }
    }
}

/// Convergence report for a CG solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
}

/// Solve `A x = b` for SPD `A` with (unpreconditioned) conjugate gradients.
pub fn conjugate_gradient(a: &Matrix, b: &[f64], opts: CgOptions) -> Result<CgOutcome> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "cg (square matrix required)",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "cg",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    if !a.is_finite() || b.iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite { what: "cg input" });
    }

    let max_iter = opts.max_iter.unwrap_or(10 * n.max(1));
    let b_norm = crate::norm2(b);
    if b_norm == 0.0 {
        return Ok(CgOutcome {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let threshold = opts.tol * b_norm;

    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // r = b - A*0
    let mut p = r.clone();
    let mut rs_old = dot(&r, &r);

    for iter in 0..max_iter {
        if rs_old.sqrt() <= threshold {
            return Ok(CgOutcome {
                x,
                iterations: iter,
                residual: rs_old.sqrt(),
            });
        }
        let ap = a.matvec(&p)?;
        let p_ap = dot(&p, &ap);
        if p_ap <= 0.0 {
            // Not SPD along this direction.
            return Err(LinalgError::NotPositiveDefinite { pivot: iter });
        }
        let alpha = rs_old / p_ap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rs_new = dot(&r, &r);
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }

    if rs_old.sqrt() <= threshold {
        Ok(CgOutcome {
            x,
            iterations: max_iter,
            residual: rs_old.sqrt(),
        })
    } else {
        Err(LinalgError::DidNotConverge {
            iterations: max_iter,
            residual: rs_old.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cholesky;
    use proptest::prelude::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // Deterministic pseudo-random SPD matrix: A = M Mᵀ + n·I.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
        }
        let mut a = m.matmul(&m.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn solves_identity() {
        let a = Matrix::identity(5);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let out = conjugate_gradient(&a, &b, CgOptions::default()).unwrap();
        for (x, e) in out.x.iter().zip(&b) {
            assert!((x - e).abs() < 1e-10);
        }
        assert!(out.iterations <= 2);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = spd(4, 7);
        let out = conjugate_gradient(&a, &[0.0; 4], CgOptions::default()).unwrap();
        assert_eq!(out.x, vec![0.0; 4]);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn agrees_with_cholesky() {
        let a = spd(12, 42);
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64) - 6.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let cg = conjugate_gradient(&a, &b, CgOptions::default()).unwrap();
        let ch = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        for (c, h) in cg.x.iter().zip(&ch) {
            assert!((c - h).abs() < 1e-6, "cg {c} vs chol {h}");
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
        let err = conjugate_gradient(&a, &[1.0, 1.0], CgOptions::default());
        assert!(matches!(err, Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn iteration_budget_enforced() {
        let a = spd(20, 3);
        let b = vec![1.0; 20];
        let out = conjugate_gradient(
            &a,
            &b,
            CgOptions {
                max_iter: Some(1),
                tol: 1e-14,
            },
        );
        assert!(matches!(out, Err(LinalgError::DidNotConverge { .. })));
    }

    #[test]
    fn dimension_checks() {
        let a = Matrix::zeros(2, 3);
        assert!(conjugate_gradient(&a, &[1.0, 1.0], CgOptions::default()).is_err());
        let a = Matrix::identity(3);
        assert!(conjugate_gradient(&a, &[1.0], CgOptions::default()).is_err());
    }

    #[test]
    fn nan_rejected() {
        let a = Matrix::identity(2);
        assert!(matches!(
            conjugate_gradient(&a, &[f64::NAN, 1.0], CgOptions::default()),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    proptest! {
        #[test]
        fn converges_within_n_iterations_exact_arith(seed in 0u64..1000) {
            // CG converges in at most n steps in exact arithmetic; allow slack.
            let n = 8;
            let a = spd(n, seed);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let out = conjugate_gradient(&a, &b, CgOptions::default()).unwrap();
            prop_assert!(out.iterations <= 10 * n);
            let ax = a.matvec(&out.x).unwrap();
            let res: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
            prop_assert!(res <= 1e-6 * (1.0 + crate::norm2(&b)));
        }
    }
}
