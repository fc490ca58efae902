//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The one factorization behind every least-squares fit: [`crate::ols`]
//! (linear regression and M5P node models, on both its full-rank and its
//! ridge path), the linear LS-SVM's primal normal equations and the kernel
//! LS-SVM solve (`f2pm-ml`). The factorization stores the lower triangle
//! `L` with `A = L Lᵀ` and solves by forward/back substitution.
//!
//! Two factorization kernels share the entry point: the textbook scalar
//! column sweep ([`Cholesky::factor_scalar`], the reference) and a blocked
//! right-looking variant that factors a [`CHOL_BLOCK`]-wide panel, solves
//! the sub-diagonal panel rows against the panel's triangle, and pushes the
//! `O(n³)` trailing-matrix update through the register-tiled, band-parallel
//! [`crate::syrk_rows_upper_scratch`] kernel. Blocking reassociates the
//! trailing sums, so the two factors agree to rounding (~1e-14 relative on
//! well-conditioned Gram matrices), not bit-for-bit — the equivalence
//! suites pin them at 1e-10.

use crate::{LinalgError, Matrix, Result};

/// Panel width of the blocked factorization: 128 columns keep the panel
/// rows (128 × 8 B = 1 KB each) L1-resident through the triangular solve
/// while amortizing each syrk trailing update over a deep rank-128 batch.
pub const CHOL_BLOCK: usize = 128;

/// Below this order the scalar sweep wins: the blocked path's panel
/// copies and syrk dispatch cost more than the whole factorization.
pub const CHOL_BLOCKED_MIN: usize = 256;

/// The lower-triangular Cholesky factor of an SPD matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor in the leading `n × n` block of a square
    /// buffer whose row stride may exceed `n`; every other entry is zero.
    /// Crate-visible so `crate::update` can maintain it in place (the
    /// slack lets a window shift change the order without a new buffer).
    pub(crate) l: Matrix,
    /// Order of the factored matrix.
    pub(crate) n: usize,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the caller is trusted on
    /// symmetry (the pipeline always passes Gram/kernel matrices, which are
    /// symmetric by construction).
    ///
    /// Orders at or above [`CHOL_BLOCKED_MIN`] route through the blocked
    /// right-looking kernel; smaller systems use the scalar sweep.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if a pivot is not
    /// strictly positive, and [`LinalgError::NonFinite`] if the input has
    /// NaN/inf entries.
    pub fn factor(a: &Matrix) -> Result<Self> {
        check_square_finite(a)?;
        if a.rows() >= CHOL_BLOCKED_MIN {
            Self::factor_blocked_unchecked(a)
        } else {
            Self::factor_scalar_unchecked(a)
        }
    }

    /// The reference scalar factorization (always the textbook column
    /// sweep, regardless of size) — the baseline the blocked kernel is
    /// benchmarked and equivalence-tested against.
    pub fn factor_scalar(a: &Matrix) -> Result<Self> {
        check_square_finite(a)?;
        Self::factor_scalar_unchecked(a)
    }

    fn factor_scalar_unchecked(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // d = a[j][j] - sum_k l[j][k]^2
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        Ok(Cholesky { l, n })
    }

    /// Blocked right-looking factorization. Per panel `[k, kend)`:
    ///
    /// 1. factor the panel columns in place (contributions of columns
    ///    `< k` were already folded in by earlier trailing updates, so
    ///    each column only sums over the panel's own columns);
    /// 2. form the sub-diagonal panel `P = L[kend.., k..kend]` and update
    ///    the trailing lower triangle `A[kend.., kend..] -= P Pᵀ` via the
    ///    symmetric rank-k kernel (register tiles, band-parallel).
    ///
    /// The panel work is `O(n² · CHOL_BLOCK)` — vanishing next to the
    /// `O(n³/3)` trailing updates that now run at syrk speed.
    fn factor_blocked_unchecked(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        // Working copy of the lower triangle (upper stays zero — it is
        // the final factor layout).
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        let mut k = 0;
        while k < n {
            let kend = (k + CHOL_BLOCK).min(n);
            // Panel factorization: scalar column sweep over panel columns
            // only (row slices are contiguous, so the inner sums stream).
            for j in k..kend {
                let (head, tail) = l.as_mut_slice().split_at_mut((j + 1) * n);
                let rowj = &mut head[j * n..];
                let mut d = rowj[j];
                for &v in &rowj[k..j] {
                    d -= v * v;
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: j });
                }
                let djj = d.sqrt();
                rowj[j] = djj;
                let rowj = &head[j * n + k..j * n + j];
                for i in j + 1..n {
                    let rowi = &mut tail[(i - j - 1) * n + k..(i - j - 1) * n + j + 1];
                    let mut s = rowi[j - k];
                    for (lv, rv) in rowi[..j - k].iter().zip(rowj) {
                        s -= lv * rv;
                    }
                    rowi[j - k] = s / djj;
                }
            }
            // Trailing update through the syrk kernel.
            if kend < n {
                let nt = n - kend;
                let nb = kend - k;
                let mut p = Matrix::scratch(nt, nb);
                for r in 0..nt {
                    p.row_mut(r).copy_from_slice(&l.row(kend + r)[k..kend]);
                }
                let mut g = crate::syrk_rows_upper_scratch(&p);
                crate::mirror_upper(&mut g);
                for r in 0..nt {
                    let dst = &mut l.row_mut(kend + r)[kend..kend + r + 1];
                    for (d, s) in dst.iter_mut().zip(&g.row(r)[..r + 1]) {
                        *d -= s;
                    }
                }
            }
            k = kend;
        }
        Ok(Cholesky { l, n })
    }

    /// Factor `a + ridge * I` — convenience for regularized systems. `ridge`
    /// must be ≥ 0.
    pub fn factor_ridged(a: &Matrix, ridge: f64) -> Result<Self> {
        assert!(ridge >= 0.0, "ridge must be non-negative");
        if ridge == 0.0 {
            return Self::factor(a);
        }
        let n = a.rows();
        let mut b = a.clone();
        for i in 0..n {
            b[(i, i)] += ridge;
        }
        Self::factor(&b)
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Borrow the lower-triangular factor: the leading
    /// `order() × order()` block of a buffer that a window shift may have
    /// left wider, zero outside that block.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` using the stored factor.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            let li = self.l.row(i);
            let mut s = y[i];
            for k in 0..i {
                s -= li[k] * y[k];
            }
            y[i] = s / li[i];
        }
        // Back substitution: Lᵀ x = y, outer-product form. The gather form
        // strides down a column of `l` per unknown; eliminating each solved
        // x[i] from all earlier equations instead reads row `i` of `l`,
        // which is contiguous and vectorizes.
        for i in (0..n).rev() {
            let li = self.l.row(i);
            let xi = y[i] / li[i];
            y[i] = xi;
            let (head, _) = y.split_at_mut(i);
            for (yk, lik) in head.iter_mut().zip(li) {
                *yk -= lik * xi;
            }
        }
        Ok(y)
    }

    /// Solve for several right-hand sides stacked as matrix columns.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.order();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }
}

fn check_square_finite(a: &Matrix) -> Result<()> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite {
            what: "cholesky input",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd3() -> Matrix {
        // A = M Mᵀ + I for a fixed M → strictly SPD.
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 3.0], &[2.0, 0.0, 1.0]]);
        let mut a = m.matmul(&m.transpose()).unwrap();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn rejects_nan() {
        let mut a = spd3();
        a[(1, 1)] = f64::NAN;
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn ridge_rescues_singular() {
        // Rank-1 matrix: not PD, but PD after ridging.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::factor(&a).is_err());
        assert!(Cholesky::factor_ridged(&a, 1e-6).is_ok());
    }

    #[test]
    fn solve_matrix_identity_rhs_gives_inverse() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let inv = ch.solve_matrix(&Matrix::identity(3)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_dimension_check() {
        let ch = Cholesky::factor(&spd3()).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }

    /// Deterministic SPD matrix `M Mᵀ + ridge·I` of order `n`.
    fn spd_n(n: usize, phase: f64, ridge: f64) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = ((i * n + j) as f64 * 0.13 + phase).sin();
            }
        }
        let mut a = crate::syrk_rows(&m);
        for i in 0..n {
            a[(i, i)] += ridge;
        }
        a
    }

    #[test]
    fn blocked_matches_scalar_across_panel_boundaries() {
        // Orders straddling CHOL_BLOCK and CHOL_BLOCKED_MIN, including
        // exact multiples and ragged tails.
        for n in [
            CHOL_BLOCKED_MIN,
            CHOL_BLOCKED_MIN + 1,
            2 * CHOL_BLOCK,
            2 * CHOL_BLOCK + 37,
            3 * CHOL_BLOCK - 1,
        ] {
            let a = spd_n(n, 0.4, n as f64);
            let blocked = Cholesky::factor(&a).unwrap();
            let scalar = Cholesky::factor_scalar(&a).unwrap();
            let mut worst = 0.0_f64;
            for i in 0..n {
                for j in 0..n {
                    let scale = scalar.l()[(i, j)].abs().max(1.0);
                    worst = worst.max((blocked.l()[(i, j)] - scalar.l()[(i, j)]).abs() / scale);
                }
            }
            assert!(worst < 1e-10, "n = {n}: worst elementwise diff {worst:e}");
        }
    }

    #[test]
    fn blocked_solve_residual_is_tiny() {
        let n = CHOL_BLOCKED_MIN + 61;
        let a = spd_n(n, 1.3, n as f64);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).cos() * 3.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        let denom = crate::norm2(&b).max(1.0);
        let resid = r
            .iter()
            .zip(&b)
            .map(|(ri, bi)| (ri - bi) * (ri - bi))
            .sum::<f64>()
            .sqrt()
            / denom;
        assert!(resid < 1e-10, "relative residual {resid:e}");
    }

    #[test]
    fn blocked_reports_absolute_pivot_index() {
        // SPD leading block, then a row/column duplicating an earlier one
        // past the first panel: the failing pivot must carry its absolute
        // index, not a panel-local one.
        let n = CHOL_BLOCK + 40;
        let mut a = spd_n(n, 0.9, n as f64);
        let dup = CHOL_BLOCK + 17;
        for j in 0..n {
            let v = a[(3, j)];
            a[(dup, j)] = v;
            a[(j, dup)] = v;
        }
        a[(dup, dup)] = a[(3, 3)];
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => {
                assert!(pivot > CHOL_BLOCK, "pivot {pivot} should be absolute")
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_blocked_matches_scalar_on_random_spd(
            seed in 0u64..1000,
            extra in 0usize..40,
        ) {
            // Random SPD above the blocked threshold: factors agree to
            // 1e-10 elementwise and the solve recovers a known solution.
            let n = CHOL_BLOCKED_MIN + extra;
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] = next();
                }
            }
            let mut a = crate::syrk_rows(&m);
            for i in 0..n {
                a[(i, i)] += n as f64; // safely SPD
            }
            let blocked = Cholesky::factor(&a).unwrap();
            let scalar = Cholesky::factor_scalar(&a).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    let scale = scalar.l()[(i, j)].abs().max(1.0);
                    let diff = (blocked.l()[(i, j)] - scalar.l()[(i, j)]).abs() / scale;
                    prop_assert!(diff < 1e-10, "({i},{j}): {diff:e}");
                }
            }
            let x_true: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
            let b = a.matvec(&x_true).unwrap();
            let x = blocked.solve(&b).unwrap();
            for (g, t) in x.iter().zip(&x_true) {
                prop_assert!((g - t).abs() < 1e-8, "{g} vs {t}");
            }
        }
    }

    proptest! {
        #[test]
        fn random_spd_solve_roundtrip(
            vals in proptest::collection::vec(-3.0_f64..3.0, 16),
            x in proptest::collection::vec(-5.0_f64..5.0, 4),
        ) {
            let m = Matrix::from_vec(4, 4, vals);
            let mut a = m.matmul(&m.transpose()).unwrap();
            for i in 0..4 { a[(i, i)] += 2.0; } // ensure strictly SPD
            let b = a.matvec(&x).unwrap();
            let ch = Cholesky::factor(&a).unwrap();
            let got = ch.solve(&b).unwrap();
            for (g, t) in got.iter().zip(&x) {
                prop_assert!((g - t).abs() < 1e-6);
            }
        }
    }
}
