//! Least-Squares Support-Vector Machine regression (Suykens & Vandewalle,
//! the paper's reference [20]; the "SVM2" rows of Tables II-IV).
//!
//! LS-SVM replaces the SVM's ε-insensitive loss and inequality constraints
//! with equality constraints and a squared loss, so training reduces to one
//! linear system:
//!
//! ```text
//!   [ 0      1ᵀ        ] [ b ]   [ 0 ]
//!   [ 1   K + I/γ      ] [ α ] = [ y ]
//! ```
//!
//! solved here by block elimination on the SPD block `A = K + I/γ`
//! (Cholesky; conjugate-gradient fallback for big kernels): with
//! `A s = 1` and `A z = y`, the bias is `b = (1ᵀz)/(1ᵀs)` and
//! `α = z − b·s`. Every training point becomes a "support vector" — the
//! known LS-SVM trade-off (dense model, cheap closed-form training).

use crate::kernel::Kernel;
use crate::regressor::{check_training_data, Model, Regressor};
use crate::MlError;
use f2pm_linalg::{conjugate_gradient, CgOptions, Cholesky, Matrix, Standardizer};

/// Above this sample count the solver switches from Cholesky (`O(n³)`) to
/// conjugate gradients (`O(k·n²)`), because CG is faster there.
///
/// The switch is about time, not storage: both solvers hold the same
/// n × n system. At n = 2000 the blocked right-looking factorization
/// beats the CG pair (two solves, `20n` iteration budget each) by well
/// over 2× and is exact. At the benchmark `build` workload's n = 5104 the
/// cubic factorization has lost: the LS-SVM fit took 1.36 s with CG
/// against 7.86 s with Cholesky forced (medians of 5 alternating pairs,
/// CG faster in 5 of 5, identical best S-MAE; DESIGN.md §6.1).
const CG_THRESHOLD: usize = 4000;

/// The LS-SVM learning method.
#[derive(Debug, Clone)]
pub struct LsSvmRegressor {
    kernel: Kernel,
    /// Regularization γ (larger → tighter fit).
    gamma: f64,
}

impl LsSvmRegressor {
    /// Create with a kernel and regularization parameter γ.
    pub fn new(kernel: Kernel, gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        LsSvmRegressor { kernel, gamma }
    }

    /// Fit, returning the concrete model.
    pub fn fit_lssvm(&self, x: &Matrix, y: &[f64]) -> Result<LsSvmModel, MlError> {
        self.fit_with_solver(x, y, None)
    }

    /// Fit on rows that are *already standardized* with the given
    /// standardizer, which is stored in the model as-is.
    ///
    /// This is the cold-fit half of the warm-start retraining contract
    /// (`f2pm-core`'s `RetrainEngine`): the engine freezes one
    /// standardizer across window shifts so kernel entries — and hence
    /// the maintained Cholesky factor — stay valid, and uses this entry
    /// point whenever it must refactorize, so warm and cold paths share
    /// the exact same standardization and are comparable within rounding.
    pub fn fit_prestandardized(
        &self,
        standardizer: Standardizer,
        z: &Matrix,
        y: &[f64],
    ) -> Result<LsSvmModel, MlError> {
        check_training_data(z, y)?;
        self.fit_standardized(standardizer, z.clone(), y, None)
    }

    /// The kernel this regressor trains with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The regularization parameter γ. The trained system's SPD block is
    /// `K + I/γ` — callers maintaining that factor incrementally need the
    /// same diagonal shift.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Fit with the linear-system path forced (`Some(true)` → CG,
    /// `Some(false)` → Cholesky) instead of the size-based dispatch — the
    /// equivalence tests pin the two solvers against each other at sizes
    /// where the default would pick only one.
    fn fit_with_solver(
        &self,
        x: &Matrix,
        y: &[f64],
        force_cg: Option<bool>,
    ) -> Result<LsSvmModel, MlError> {
        check_training_data(x, y)?;
        let standardizer = Standardizer::fit(x);
        let z = standardizer.transform(x);
        self.fit_standardized(standardizer, z, y, force_cg)
    }

    fn fit_standardized(
        &self,
        standardizer: Standardizer,
        z: Matrix,
        y: &[f64],
        force_cg: Option<bool>,
    ) -> Result<LsSvmModel, MlError> {
        let n = z.rows();
        let mut a = self.kernel.matrix(&z);
        for i in 0..n {
            a[(i, i)] += 1.0 / self.gamma;
        }

        let ones = vec![1.0; n];
        let use_cg = force_cg.unwrap_or(n > CG_THRESHOLD);
        let (s, zvec) = if !use_cg {
            let ch = Cholesky::factor(&a)?;
            (ch.solve(&ones)?, ch.solve(y)?)
        } else {
            let opts = CgOptions {
                max_iter: Some(20 * n),
                tol: 1e-8,
            };
            (
                conjugate_gradient(&a, &ones, opts)?.x,
                conjugate_gradient(&a, y, opts)?.x,
            )
        };

        let (alpha, bias) = eliminate_bias(&s, &zvec)?;
        Ok(LsSvmModel {
            kernel: self.kernel,
            standardizer,
            width: z.cols(),
            support: z,
            alpha,
            bias,
        })
    }
}

/// Block elimination of the LS-SVM bias row: given the two solves
/// `A s = 1` and `A z = y` of the SPD block `A = K + I/γ`, recover
/// `b = (1ᵀz)/(1ᵀs)` and `α = z − b·s`.
///
/// Public so a warm-start retrainer holding an incrementally-maintained
/// factor of `A` can finish the dual refresh exactly the way a cold fit
/// does.
pub fn eliminate_bias(s: &[f64], zvec: &[f64]) -> Result<(Vec<f64>, f64), MlError> {
    let ones_dot_s: f64 = s.iter().sum();
    if ones_dot_s.abs() < 1e-300 {
        return Err(MlError::DidNotConverge {
            stage: "ls-svm bias elimination",
        });
    }
    let bias = zvec.iter().sum::<f64>() / ones_dot_s;
    let alpha: Vec<f64> = zvec.iter().zip(s).map(|(zi, si)| zi - bias * si).collect();
    Ok((alpha, bias))
}

/// A fitted LS-SVM model.
#[derive(Debug, Clone)]
pub struct LsSvmModel {
    pub(crate) kernel: Kernel,
    pub(crate) standardizer: Standardizer,
    pub(crate) support: Matrix,
    pub(crate) alpha: Vec<f64>,
    pub(crate) bias: f64,
    pub(crate) width: usize,
}

impl LsSvmModel {
    /// Assemble a model from an externally-computed dual solution — the
    /// warm-start retrainer refreshes `α`/`b` from its maintained factor
    /// and only needs the assembly. `support` must hold the standardized
    /// training rows and `alpha` one coefficient per row.
    pub fn from_parts(
        kernel: Kernel,
        standardizer: Standardizer,
        support: Matrix,
        alpha: Vec<f64>,
        bias: f64,
    ) -> LsSvmModel {
        assert_eq!(
            support.rows(),
            alpha.len(),
            "one dual coefficient per support row"
        );
        LsSvmModel {
            kernel,
            standardizer,
            width: support.cols(),
            support,
            alpha,
            bias,
        }
    }

    /// The fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The dual coefficients (one per training point — LS-SVM is dense).
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }
}

impl Model for LsSvmModel {
    fn width(&self) -> usize {
        self.width
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        crate::batch::kernel_predict_row(
            &self.kernel,
            &self.standardizer,
            &self.support,
            &self.alpha,
            self.bias,
            row,
        )
    }

    fn predict_batch(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        crate::regressor::check_batch_width(self.width, x)?;
        Ok(crate::batch::kernel_predict_batch(
            &self.kernel,
            &self.standardizer,
            &self.support,
            &self.alpha,
            self.bias,
            x,
        ))
    }
}

impl Regressor for LsSvmRegressor {
    fn name(&self) -> String {
        "ls_svm".to_string()
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn Model>, MlError> {
        Ok(Box::new(self.fit_lssvm(x, y)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64 * 6.0;
            x[(i, 0)] = t;
            y.push(t.sin() * 50.0 + 100.0);
        }
        (x, y)
    }

    #[test]
    fn fits_sine_with_rbf() {
        let (x, y) = sine_data(120);
        let m = LsSvmRegressor::new(Kernel::Rbf { gamma: 2.0 }, 100.0)
            .fit(&x, &y)
            .unwrap();
        let mae = m
            .predict_batch(&x)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        assert!(mae < 2.0, "mae {mae}");
    }

    #[test]
    fn linear_kernel_matches_ridge_style_plane() {
        let mut x = Matrix::zeros(60, 2);
        let mut y = Vec::new();
        for i in 0..60 {
            let a = i as f64;
            let b = (i as f64 * 0.9).cos() * 4.0;
            x.row_mut(i).copy_from_slice(&[a, b]);
            y.push(3.0 * a - 2.0 * b + 10.0);
        }
        let m = LsSvmRegressor::new(Kernel::Linear, 1e6)
            .fit(&x, &y)
            .unwrap();
        for i in 0..60 {
            assert!(
                (m.predict_row(x.row(i)) - y[i]).abs() < 0.5,
                "row {i}: {} vs {}",
                m.predict_row(x.row(i)),
                y[i]
            );
        }
    }

    #[test]
    fn every_point_is_a_support_vector() {
        let (x, y) = sine_data(40);
        let m = LsSvmRegressor::new(Kernel::Rbf { gamma: 1.0 }, 10.0)
            .fit_lssvm(&x, &y)
            .unwrap();
        assert_eq!(m.alpha().len(), 40);
        let nonzero = m.alpha().iter().filter(|a| a.abs() > 1e-12).count();
        assert!(
            nonzero > 35,
            "LS-SVM should be dense, got {nonzero} non-zeros"
        );
    }

    #[test]
    fn gamma_controls_fit_tightness() {
        let (x, y) = sine_data(80);
        let loose = LsSvmRegressor::new(Kernel::Rbf { gamma: 1.0 }, 0.01)
            .fit(&x, &y)
            .unwrap();
        let tight = LsSvmRegressor::new(Kernel::Rbf { gamma: 1.0 }, 1000.0)
            .fit(&x, &y)
            .unwrap();
        let mae = |m: &dyn Model| {
            m.predict_batch(&x)
                .unwrap()
                .iter()
                .zip(&y)
                .map(|(p, t)| (p - t).abs())
                .sum::<f64>()
                / y.len() as f64
        };
        assert!(
            mae(tight.as_ref()) < mae(loose.as_ref()),
            "tight {} loose {}",
            mae(tight.as_ref()),
            mae(loose.as_ref())
        );
    }

    #[test]
    fn alpha_kkt_identity_holds() {
        // From the KKT system: Σα = 0 (first block row).
        let (x, y) = sine_data(50);
        let m = LsSvmRegressor::new(Kernel::Rbf { gamma: 1.5 }, 20.0)
            .fit_lssvm(&x, &y)
            .unwrap();
        let sum: f64 = m.alpha().iter().sum();
        assert!(sum.abs() < 1e-6, "Σα = {sum}");
    }

    #[test]
    fn blocked_cholesky_matches_cg_above_the_old_threshold() {
        // n = 1600 sits above the seed's CG threshold (1500): the seed
        // solved this size iteratively, while the blocked right-looking
        // factorization now solves it directly (1600 ≥ CHOL_BLOCKED_MIN,
        // so this exercises the blocked panel/trailing-update path, not
        // the scalar sweep). The two solvers must produce the same model
        // to the CG residual tolerance.
        let n = 1600;
        assert!(
            n > 1500 && n <= CG_THRESHOLD,
            "test must straddle the old and new dispatch thresholds"
        );
        let (x, y) = sine_data(n);
        let reg = LsSvmRegressor::new(Kernel::Rbf { gamma: 2.0 }, 1.0);
        let direct = reg.fit_with_solver(&x, &y, Some(false)).unwrap();
        let cg = reg.fit_with_solver(&x, &y, Some(true)).unwrap();

        assert!(
            (direct.bias() - cg.bias()).abs() <= 1e-5,
            "bias {} vs {}",
            direct.bias(),
            cg.bias()
        );
        let pd = direct.predict_batch(&x).unwrap();
        let pc = cg.predict_batch(&x).unwrap();
        for (i, (a, b)) in pd.iter().zip(&pc).enumerate() {
            // Targets span ~[50, 150]; 1e-5 absolute is far inside any
            // model-quality difference while leaving room for the CG
            // stopping tolerance.
            assert!((a - b).abs() <= 1e-5, "row {i}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn non_positive_gamma_panics() {
        LsSvmRegressor::new(Kernel::Linear, 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        let reg = LsSvmRegressor::new(Kernel::Linear, 1.0);
        assert!(reg.fit(&Matrix::zeros(0, 1), &[]).is_err());
    }
}
