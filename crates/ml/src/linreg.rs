//! Ordinary least-squares linear regression (the paper's Eq. 3 model).

use crate::regressor::{check_chunk, check_training_data, Model, Regressor};
use crate::MlError;
use f2pm_features::{ColumnSlice, FeatureChunk};
use f2pm_linalg::{ols, Matrix};

/// OLS with intercept, solved on the Cholesky factor of the centered
/// normal equations (with a ridge path for collinear designs, see
/// [`f2pm_linalg::ols`]).
#[derive(Debug, Clone, Default)]
pub struct LinearRegression;

impl LinearRegression {
    /// Create the method.
    pub fn new() -> Self {
        LinearRegression
    }
}

/// Row-tile size for the columnar linear kernel: five f64 lane buffers of
/// this many rows (20 KiB total) stay L1-resident across every column
/// pass of a tile.
const COLUMN_TILE_ROWS: usize = 512;

/// `(coefficient, column)` pairs headed for one accumulation lane.
type LaneGroup<'a> = Vec<(f64, &'a [f32])>;

/// One fused sweep of up to four same-lane columns over a row tile.
///
/// The lane buffer is read and written once for the whole group instead
/// of once per column, which is what dominates the tile's L1 traffic
/// (the column data itself is f32, a quarter of the lane's bytes). The
/// adds stay in ascending-column order, so the result is bit-identical
/// to four separate single-column sweeps.
fn fused_f32_pass(lane: &mut [f64], t0: usize, group: &[(f64, &[f32])]) {
    let m = lane.len();
    match *group {
        [(c0, a)] => {
            for (acc, &x) in lane.iter_mut().zip(&a[t0..t0 + m]) {
                *acc += c0 * f64::from(x);
            }
        }
        [(c0, a), (c1, b)] => {
            let (a, b) = (&a[t0..t0 + m], &b[t0..t0 + m]);
            for i in 0..m {
                lane[i] = (lane[i] + c0 * f64::from(a[i])) + c1 * f64::from(b[i]);
            }
        }
        [(c0, a), (c1, b), (c2, d)] => {
            let (a, b, d) = (&a[t0..t0 + m], &b[t0..t0 + m], &d[t0..t0 + m]);
            for i in 0..m {
                lane[i] = ((lane[i] + c0 * f64::from(a[i])) + c1 * f64::from(b[i]))
                    + c2 * f64::from(d[i]);
            }
        }
        [(c0, a), (c1, b), (c2, d), (c3, e)] => {
            let (a, b, d, e) = (
                &a[t0..t0 + m],
                &b[t0..t0 + m],
                &d[t0..t0 + m],
                &e[t0..t0 + m],
            );
            for i in 0..m {
                lane[i] = (((lane[i] + c0 * f64::from(a[i])) + c1 * f64::from(b[i]))
                    + c2 * f64::from(d[i]))
                    + c3 * f64::from(e[i]);
            }
        }
        _ => {}
    }
}

/// A fitted linear model `y = b0 + Σ b_j x_j`.
#[derive(Debug, Clone)]
pub struct LinearModel {
    /// Intercept.
    pub intercept: f64,
    /// Per-feature coefficients.
    pub coefficients: Vec<f64>,
}

impl LinearModel {
    /// Fit directly on every row of `x`.
    pub fn fit(x: &Matrix, y: &[f64]) -> Result<LinearModel, MlError> {
        check_training_data(x, y)?;
        let rows: Vec<usize> = (0..x.rows()).collect();
        Self::fit_rows(x, y, &rows)
    }

    /// Fit on the listed rows of already-checked training data, without
    /// copying them (M5P node models).
    pub(crate) fn fit_rows(x: &Matrix, y: &[f64], rows: &[usize]) -> Result<LinearModel, MlError> {
        let (intercept, coefficients) = ols(x, y, rows)?;
        Ok(LinearModel {
            intercept,
            coefficients,
        })
    }

    /// Fit a constant (intercept-only) model — the degenerate case tree
    /// leaves fall back to when too few samples remain.
    pub fn constant(value: f64, width: usize) -> LinearModel {
        LinearModel {
            intercept: value,
            coefficients: vec![0.0; width],
        }
    }
}

impl Model for LinearModel {
    fn width(&self) -> usize {
        self.coefficients.len()
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.intercept + f2pm_linalg::dot(&self.coefficients, row)
    }

    /// Column-at-a-time scoring: one axpy sweep per feature column, no
    /// row materialization at all. To stay bit-identical to `predict_row`
    /// (which reduces in [`f2pm_linalg::dot`]'s documented lane order),
    /// the sweep keeps four lane accumulators plus a tail accumulator per
    /// row — column `j` below `⌊w/4⌋·4` lands in lane `j % 4`, trailing
    /// columns in the tail — and combines them in `dot`'s exact order:
    /// `intercept + ((s0 + s1) + (s2 + s3) + tail)`.
    ///
    /// Rows are processed in tiles of [`COLUMN_TILE_ROWS`] so the five
    /// lane buffers stay L1-resident across all `w` column passes (at a
    /// 4096-row chunk the untiled lanes are 160 KiB and every pass
    /// re-streamed them from L2 — measured ~3x slower). Tiling cannot
    /// change results: each row still accumulates every column in the
    /// same order. When every feature column is f32 (the on-disk store's
    /// layout), same-lane columns are additionally swept up to four per
    /// pass ([`fused_f32_pass`]), cutting the lane read/write traffic
    /// that otherwise dominates the tile.
    fn predict_columns(
        &self,
        chunk: &FeatureChunk<'_>,
        scratch: &mut Vec<f64>,
        out: &mut [f64],
    ) -> Result<(), MlError> {
        check_chunk(self.width(), chunk, out)?;
        let n = chunk.len();
        if n == 0 {
            return Ok(());
        }
        let w = self.coefficients.len();
        let unrolled = w / 4 * 4;

        // All-f32 fast path (the on-disk store's native feature layout):
        // columns are grouped by destination lane once, then swept up to
        // four per [`fused_f32_pass`].
        let mut f32_cols: Vec<&[f32]> = Vec::with_capacity(w);
        for j in 0..w {
            match chunk.col(j) {
                ColumnSlice::F32(col) => f32_cols.push(col),
                ColumnSlice::F64(_) => break,
            }
        }
        let lane_groups: Option<[LaneGroup<'_>; 5]> = (f32_cols.len() == w).then(|| {
            let mut groups: [LaneGroup<'_>; 5] = Default::default();
            for (j, &col) in f32_cols.iter().enumerate() {
                let lane = if j >= unrolled { 4 } else { j % 4 };
                groups[lane].push((self.coefficients[j], col));
            }
            groups
        });

        let tile = COLUMN_TILE_ROWS.min(n);
        scratch.clear();
        scratch.resize(5 * tile, 0.0);
        for t0 in (0..n).step_by(tile) {
            let m = tile.min(n - t0);
            scratch[..5 * m].fill(0.0);
            let (s0, rest) = scratch.split_at_mut(m);
            let (s1, rest) = rest.split_at_mut(m);
            let (s2, rest) = rest.split_at_mut(m);
            let (s3, rest) = rest.split_at_mut(m);
            let tail = &mut rest[..m];
            if let Some(groups) = &lane_groups {
                let lanes = [&mut *s0, &mut *s1, &mut *s2, &mut *s3, &mut *tail];
                for (lane, group) in lanes.into_iter().zip(groups) {
                    for g in group.chunks(4) {
                        fused_f32_pass(lane, t0, g);
                    }
                }
            } else {
                for j in 0..w {
                    let c = self.coefficients[j];
                    let lane: &mut [f64] = if j >= unrolled {
                        &mut *tail
                    } else {
                        match j % 4 {
                            0 => &mut *s0,
                            1 => &mut *s1,
                            2 => &mut *s2,
                            _ => &mut *s3,
                        }
                    };
                    match chunk.col(j) {
                        ColumnSlice::F32(col) => {
                            for (acc, &v) in lane.iter_mut().zip(&col[t0..t0 + m]) {
                                *acc += c * f64::from(v);
                            }
                        }
                        ColumnSlice::F64(col) => {
                            for (acc, &v) in lane.iter_mut().zip(&col[t0..t0 + m]) {
                                *acc += c * v;
                            }
                        }
                    }
                }
            }
            for i in 0..m {
                out[t0 + i] = self.intercept + ((s0[i] + s1[i]) + (s2[i] + s3[i]) + tail[i]);
            }
        }
        Ok(())
    }
}

impl Regressor for LinearRegression {
    fn name(&self) -> String {
        "linear_regression".to_string()
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn Model>, MlError> {
        Ok(Box::new(LinearModel::fit(x, y)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recovers_exact_linear_relationship() {
        let mut x = Matrix::zeros(20, 2);
        let mut y = Vec::new();
        for i in 0..20 {
            let a = i as f64;
            let b = (i as f64 * 0.5).sin() * 3.0;
            x.row_mut(i).copy_from_slice(&[a, b]);
            y.push(7.0 - 2.0 * a + 0.5 * b);
        }
        let model = LinearModel::fit(&x, &y).unwrap();
        assert!((model.intercept - 7.0).abs() < 1e-9);
        assert!((model.coefficients[0] + 2.0).abs() < 1e-10);
        assert!((model.coefficients[1] - 0.5).abs() < 1e-10);
        assert!((model.predict_row(&[10.0, 0.0]) - (-13.0)).abs() < 1e-9);
    }

    #[test]
    fn regressor_trait_roundtrip() {
        let reg = LinearRegression::new();
        assert_eq!(reg.name(), "linear_regression");
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let y = [1.0, 3.0, 5.0];
        let m = reg.fit(&x, &y).unwrap();
        assert_eq!(m.width(), 1);
        let pred = m.predict_batch(&x).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_input() {
        let reg = LinearRegression::new();
        assert!(matches!(
            reg.fit(&Matrix::zeros(0, 3), &[]),
            Err(MlError::EmptyTrainingSet)
        ));
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert!(matches!(
            reg.fit(&x, &[1.0, f64::NAN]),
            Err(MlError::NonFiniteData)
        ));
    }

    #[test]
    fn collinear_design_still_fits() {
        // Two identical columns: the correlation factor's second pivot is
        // zero, and the ridge path still produces a small-residual fit.
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0], &[4.0, 4.0]]);
        let y = [2.0, 4.0, 6.0, 8.0];
        let model = LinearModel::fit(&x, &y).unwrap();
        for i in 0..4 {
            assert!((model.predict_row(x.row(i)) - y[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn constant_model() {
        let m = LinearModel::constant(42.0, 5);
        assert_eq!(m.width(), 5);
        assert_eq!(m.predict_row(&[1.0, 2.0, 3.0, 4.0, 5.0]), 42.0);
    }

    #[test]
    fn column_kernel_is_bit_identical_across_lane_remainders() {
        use f2pm_features::{ColumnSlice, FeatureChunk};

        // Every width mod-4 remainder, plus the paper's 30-column layout,
        // must reduce in exactly dot()'s lane order — both inside one row
        // tile (n = 11) and across tile boundaries including a partial
        // final tile (n = 2 tiles + 7).
        for (w, n) in (0..=9)
            .chain([30])
            .map(|w| (w, 11))
            .chain([(6, 2 * COLUMN_TILE_ROWS + 7)])
        {
            let model = LinearModel {
                intercept: 3.75,
                coefficients: (0..w).map(|j| ((j * 7 % 13) as f64 - 6.0) * 0.37).collect(),
            };
            let cols: Vec<Vec<f32>> = (0..w)
                .map(|j| {
                    (0..n)
                        .map(|i| ((i * w + j) as f64 * 0.61).sin() as f32 * 40.0)
                        .collect()
                })
                .collect();
            let chunk = FeatureChunk::new(n, cols.iter().map(|c| ColumnSlice::F32(c)).collect());
            let mut scratch = Vec::new();
            let mut out = vec![0.0; n];
            model
                .predict_columns(&chunk, &mut scratch, &mut out)
                .unwrap();
            let rows = chunk.materialize();
            for i in 0..n {
                assert_eq!(out[i], model.predict_row(rows.row(i)), "width {w} row {i}");
            }

            // The same data as f64 columns takes the generic (non-fused)
            // sweep — it must agree bit-for-bit too.
            let cols64: Vec<Vec<f64>> = cols
                .iter()
                .map(|c| c.iter().map(|&v| f64::from(v)).collect())
                .collect();
            let chunk64 =
                FeatureChunk::new(n, cols64.iter().map(|c| ColumnSlice::F64(c)).collect());
            model
                .predict_columns(&chunk64, &mut scratch, &mut out)
                .unwrap();
            for i in 0..n {
                assert_eq!(
                    out[i],
                    model.predict_row(rows.row(i)),
                    "width {w} row {i} (f64)"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn interpolates_noiseless_planes(
            b0 in -10.0_f64..10.0,
            b1 in -10.0_f64..10.0,
            b2 in -10.0_f64..10.0,
        ) {
            let mut x = Matrix::zeros(12, 2);
            let mut y = Vec::new();
            for i in 0..12 {
                let a = (i as f64 * 1.1).sin() * 5.0;
                let b = (i as f64 * 0.7).cos() * 5.0;
                x.row_mut(i).copy_from_slice(&[a, b]);
                y.push(b0 + b1 * a + b2 * b);
            }
            let model = LinearModel::fit(&x, &y).unwrap();
            for i in 0..12 {
                prop_assert!((model.predict_row(x.row(i)) - y[i]).abs() < 1e-6);
            }
        }
    }
}
