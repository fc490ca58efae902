//! Column statistics and standardization.
//!
//! The lasso path (feature selection, F2PM §III-C) and the kernel methods
//! are scale-sensitive, so the pipeline standardizes features to zero mean
//! and unit variance before fitting, then maps coefficients back to the
//! original units for reporting (Table I of the paper reports raw-unit
//! weights).

use crate::Matrix;

/// Per-column mean and standard deviation of a data matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column means.
    pub mean: Vec<f64>,
    /// Column standard deviations (population, i.e. divide by n).
    pub std: Vec<f64>,
}

impl ColumnStats {
    /// Compute means and population standard deviations of each column.
    ///
    /// Returns all-zero stats for an empty matrix.
    pub fn compute(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut mean = vec![0.0; cols];
        let mut std = vec![0.0; cols];
        if rows == 0 {
            return ColumnStats { mean, std };
        }
        for i in 0..rows {
            let r = m.row(i);
            for j in 0..cols {
                mean[j] += r[j];
            }
        }
        let n = rows as f64;
        for mj in &mut mean {
            *mj /= n;
        }
        for i in 0..rows {
            let r = m.row(i);
            for j in 0..cols {
                let d = r[j] - mean[j];
                std[j] += d * d;
            }
        }
        for sj in &mut std {
            *sj = (*sj / n).sqrt();
        }
        ColumnStats { mean, std }
    }
}

/// A fitted standardizer: `z = (x - mean) / std`, with constant columns
/// mapped to zero instead of NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    stats: ColumnStats,
}

impl Standardizer {
    /// Fit to the columns of a training matrix.
    pub fn fit(m: &Matrix) -> Self {
        Standardizer {
            stats: ColumnStats::compute(m),
        }
    }

    /// Rebuild from previously computed statistics (model persistence).
    ///
    /// # Panics
    /// Panics if mean/std lengths differ.
    pub fn from_stats(stats: ColumnStats) -> Self {
        assert_eq!(
            stats.mean.len(),
            stats.std.len(),
            "ColumnStats mean/std length mismatch"
        );
        Standardizer { stats }
    }

    /// The underlying statistics.
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// Number of columns this standardizer was fitted on.
    pub fn width(&self) -> usize {
        self.stats.mean.len()
    }

    /// Standardize a matrix (must have the fitted width).
    ///
    /// # Panics
    /// Panics if `m.cols() != self.width()`.
    pub fn transform(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.width(), "Standardizer width mismatch");
        let mut out = m.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            self.transform_row(row);
        }
        out
    }

    /// Standardize a single row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.width(), "Standardizer width mismatch");
        for (x, (m, s)) in row
            .iter_mut()
            .zip(self.stats.mean.iter().zip(&self.stats.std))
        {
            *x = if *s > 0.0 { (*x - m) / s } else { 0.0 };
        }
    }

    /// Map a coefficient vector fitted in standardized space back to raw
    /// units, returning `(intercept_adjustment, raw_coefficients)` such that
    /// `y ≈ intercept_adjustment + Σ raw_j * x_j` reproduces
    /// `y ≈ Σ std_beta_j * z_j`.
    pub fn unstandardize_coefficients(&self, std_beta: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(std_beta.len(), self.width());
        let mut raw = vec![0.0; std_beta.len()];
        let mut intercept = 0.0;
        for j in 0..std_beta.len() {
            let s = self.stats.std[j];
            if s > 0.0 {
                raw[j] = std_beta[j] / s;
                intercept -= std_beta[j] * self.stats.mean[j] / s;
            }
        }
        (intercept, raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stats_of_known_matrix() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        let s = ColumnStats::compute(&m);
        assert_eq!(s.mean, vec![2.0, 10.0]);
        assert_eq!(s.std, vec![1.0, 0.0]);
    }

    #[test]
    fn stats_of_empty_matrix() {
        let s = ColumnStats::compute(&Matrix::zeros(0, 3));
        assert_eq!(s.mean, vec![0.0; 3]);
        assert_eq!(s.std, vec![0.0; 3]);
    }

    #[test]
    fn transform_centers_and_scales() {
        let m = Matrix::from_rows(&[&[1.0], &[3.0]]);
        let st = Standardizer::fit(&m);
        let z = st.transform(&m);
        assert_eq!(z.col(0), vec![-1.0, 1.0]);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let m = Matrix::from_rows(&[&[5.0], &[5.0], &[5.0]]);
        let st = Standardizer::fit(&m);
        let z = st.transform(&m);
        assert_eq!(z.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn unstandardize_roundtrip() {
        // Model in z-space: y = 2 z0 - 1 z1. Check raw-space equivalence.
        let m = Matrix::from_rows(&[&[1.0, 100.0], &[3.0, 200.0], &[5.0, 300.0]]);
        let st = Standardizer::fit(&m);
        let std_beta = [2.0, -1.0];
        let (b0, raw) = st.unstandardize_coefficients(&std_beta);
        let z = st.transform(&m);
        for i in 0..3 {
            let y_std = std_beta[0] * z[(i, 0)] + std_beta[1] * z[(i, 1)];
            let y_raw = b0 + raw[0] * m[(i, 0)] + raw[1] * m[(i, 1)];
            assert!((y_std - y_raw).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let st = Standardizer::fit(&Matrix::zeros(2, 2));
        st.transform(&Matrix::zeros(2, 3));
    }

    proptest! {
        #[test]
        fn standardized_columns_have_zero_mean_unit_var(
            vals in proptest::collection::vec(-100.0_f64..100.0, 30)
        ) {
            let m = Matrix::from_vec(10, 3, vals);
            let st = Standardizer::fit(&m);
            let zs = ColumnStats::compute(&st.transform(&m));
            for j in 0..3 {
                let (mu, var) = (zs.mean[j], zs.std[j] * zs.std[j]);
                prop_assert!(mu.abs() < 1e-9);
                // Either the column was constant (var 0) or it is now unit.
                prop_assert!(var < 1e-9 || (var - 1.0).abs() < 1e-6);
            }
        }

        #[test]
        fn transform_row_matches_matrix_transform(
            vals in proptest::collection::vec(-50.0_f64..50.0, 20)
        ) {
            let m = Matrix::from_vec(5, 4, vals);
            let st = Standardizer::fit(&m);
            let z = st.transform(&m);
            for i in 0..5 {
                let mut row = m.row(i).to_vec();
                st.transform_row(&mut row);
                prop_assert_eq!(row.as_slice(), z.row(i));
            }
        }
    }
}
