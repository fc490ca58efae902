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
//! (Cholesky): with `A s = 1` and `A z = y`, the bias is
//! `b = (1ᵀz)/(1ᵀs)` and `α = z − b·s`. Every training point becomes a
//! "support vector" — the known LS-SVM trade-off (dense model, cheap
//! closed-form training).
//!
//! A linear kernel (`K = ZZᵀ`, the paper's row) trains in the primal
//! instead: the same optimum solves the (d+1) × (d+1) bordered normal
//! equations
//!
//! ```text
//!   [ n      1ᵀZ        ] [ b ]   [ 1ᵀy ]
//!   [ Zᵀ1    ZᵀZ + I/γ  ] [ w ] = [ Zᵀy ]
//! ```
//!
//! and the dual follows as `α = γ(y − Zw − b)` (so `Zᵀα = w` and
//! `Σα = 0`). That is O(n·d²) work and O(n + d²) memory, against the dual
//! system's n × n matrix.

use crate::batch::KernelExpansion;
use crate::kernel::Kernel;
use crate::regressor::{check_training_data, Model, Regressor};
use crate::MlError;
use f2pm_linalg::{Cholesky, Matrix, Standardizer};

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
        check_training_data(x, y)?;
        let standardizer = Standardizer::fit(x);
        let z = standardizer.transform(x);
        self.fit_standardized(standardizer, z, y)
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
        self.fit_standardized(standardizer, z.clone(), y)
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

    fn fit_standardized(
        &self,
        standardizer: Standardizer,
        z: Matrix,
        y: &[f64],
    ) -> Result<LsSvmModel, MlError> {
        let (alpha, bias) = if self.kernel == Kernel::Linear {
            self.solve_primal(&z, y)?
        } else {
            self.solve_dual(&z, y)?
        };
        Ok(LsSvmModel::from_parts(
            self.kernel,
            standardizer,
            z,
            alpha,
            bias,
        ))
    }

    /// The kernel system `(K + I/γ)`, factored once for both solves.
    fn solve_dual(&self, z: &Matrix, y: &[f64]) -> Result<(Vec<f64>, f64), MlError> {
        let mut a = self.kernel.matrix(z);
        for i in 0..z.rows() {
            a[(i, i)] += 1.0 / self.gamma;
        }
        let ch = Cholesky::factor(&a)?;
        eliminate_bias(&ch.solve(&vec![1.0; z.rows()])?, &ch.solve(y)?)
    }

    /// The linear kernel's bordered normal equations `A·[b; w] = Bᵀy`,
    /// with `B = [1 Z]` and `A = BᵀB + diag(0, I/γ)`, then
    /// `α = γ(y − B·[b; w])`.
    ///
    /// A close fit makes `y − B·[b; w]` cancel most of its digits, and the
    /// model's primal weights are re-derived as `Zᵀα`, which amplifies
    /// that rounding by up to γ·‖ZᵀZ‖. One refinement step fixes it: the
    /// normal-equation residual `ρ = diag(0, I/γ)·[b; w] − Bᵀα/γ` is read
    /// off α itself, and `[b; w] −= A⁻¹ρ` with `α += γ·B·A⁻¹ρ` moves both
    /// together, which leaves α's rounding only in directions `Bᵀ` maps
    /// to zero — so `Σα = 0` and `Zᵀα = w` hold to rounding.
    fn solve_primal(&self, z: &Matrix, y: &[f64]) -> Result<(Vec<f64>, f64), MlError> {
        let b = z.with_intercept();
        let mut a = b.gram();
        for j in 1..a.rows() {
            a[(j, j)] += 1.0 / self.gamma;
        }
        let ch = Cholesky::factor(&a)?;
        let theta = ch.solve(&b.matvec_t(y)?)?;
        let mut alpha: Vec<f64> = (0..z.rows())
            .map(|i| self.gamma * (y[i] - f2pm_linalg::dot(&theta, b.row(i))))
            .collect();

        let mut rho = b.matvec_t(&alpha)?;
        for (j, r) in rho.iter_mut().enumerate() {
            let ridge = if j == 0 { 0.0 } else { theta[j] / self.gamma };
            *r = ridge - *r / self.gamma;
        }
        let step = ch.solve(&rho)?;
        for (i, a) in alpha.iter_mut().enumerate() {
            *a += self.gamma * f2pm_linalg::dot(&step, b.row(i));
        }
        Ok((alpha, theta[0] - step[0]))
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
pub struct LsSvmModel(pub(crate) KernelExpansion);

impl LsSvmModel {
    /// Assemble a model from a dual solution — every fit, the warm-start
    /// retrainer (which refreshes `α`/`b` from its maintained factor) and
    /// both model formats build through here. `support` must hold the
    /// standardized training rows and `alpha` one coefficient per row.
    pub fn from_parts(
        kernel: Kernel,
        standardizer: Standardizer,
        support: Matrix,
        alpha: Vec<f64>,
        bias: f64,
    ) -> LsSvmModel {
        LsSvmModel(KernelExpansion::new(
            kernel,
            standardizer,
            support,
            alpha,
            bias,
        ))
    }

    /// The fitted bias term.
    pub fn bias(&self) -> f64 {
        self.0.bias
    }

    /// The dual coefficients (one per training point — LS-SVM is dense).
    pub fn alpha(&self) -> &[f64] {
        &self.0.coeffs
    }
}

impl Model for LsSvmModel {
    fn width(&self) -> usize {
        self.0.width()
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.0.predict_row(row)
    }

    fn predict_batch(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        crate::regressor::check_batch_width(self.width(), x)?;
        Ok(self.0.predict_batch(x))
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
    use proptest::prelude::*;

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
    #[should_panic(expected = "gamma must be positive")]
    fn non_positive_gamma_panics() {
        LsSvmRegressor::new(Kernel::Linear, 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        let reg = LsSvmRegressor::new(Kernel::Linear, 1.0);
        assert!(reg.fit(&Matrix::zeros(0, 1), &[]).is_err());
    }

    /// Correlated, mixed-scale columns and a noisy linear target, drawn
    /// deterministically from `seed`.
    fn noisy_plane(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut x = Matrix::zeros(n, d);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let shared = unit();
            let mut acc = 300.0;
            for j in 0..d {
                let v = (shared + 0.5 * unit()) * (1.0 + 10.0 * j as f64);
                x[(i, j)] = v;
                acc += v * (1.0 - 0.3 * j as f64);
            }
            y.push(acc + 40.0 * unit());
        }
        (x, y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The linear kernel's primal solve reaches the same optimum as
        /// the dual `(K + I/γ)` system with bias elimination.
        #[test]
        fn prop_linear_primal_matches_dual_reference(
            n in 40_usize..601,
            d in 1_usize..45,
            log_gamma in -2.0_f64..4.0,
            seed in 0_u64..1_000_000,
        ) {
            let gamma = 10f64.powf(log_gamma);
            let (x, y) = noisy_plane(n, d, seed);
            let (queries, _) = noisy_plane(50, d, seed ^ 0x5eed);
            let model = LsSvmRegressor::new(Kernel::Linear, gamma)
                .fit_lssvm(&x, &y)
                .unwrap();

            let st = Standardizer::fit(&x);
            let z = st.transform(&x);
            let mut a = Kernel::Linear.matrix(&z);
            for i in 0..n {
                a[(i, i)] += 1.0 / gamma;
            }
            let ch = Cholesky::factor(&a).unwrap();
            let s = ch.solve(&vec![1.0; n]).unwrap();
            let (alpha, bias) = eliminate_bias(&s, &ch.solve(&y).unwrap()).unwrap();
            // At γ near 1e4 the bias elimination cancels digits and the
            // plain dual is off by ~1e-9 of the target scale itself, so
            // the reference takes one iterative-refinement step on its
            // own factor. Both this and the primal fit then sit within
            // ~4e-11 of a QR solve of the augmented ridge problem.
            let residual: Vec<f64> = a
                .matvec(&alpha)
                .unwrap()
                .iter()
                .zip(&y)
                .map(|(ka, yi)| yi - bias - ka)
                .collect();
            let (d_alpha, d_bias) = eliminate_bias(&s, &ch.solve(&residual).unwrap()).unwrap();
            let alpha: Vec<f64> = alpha.iter().zip(&d_alpha).map(|(a, d)| a + d).collect();
            let bias = bias + d_bias;

            // Relative to the target scale: a prediction near zero is
            // as exact as the reference's own rounding at that scale.
            let scale = y.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
            let got = model.predict_batch(&queries).unwrap();
            let zq = st.transform(&queries);
            for (r, &p) in got.iter().enumerate() {
                let want = bias
                    + (0..n)
                        .map(|i| alpha[i] * Kernel::Linear.eval(zq.row(r), z.row(i)))
                        .sum::<f64>();
                prop_assert!(
                    (p - want).abs() <= 1e-9 * scale,
                    "query {}: primal {} vs dual {} (|y| ≤ {})", r, p, want, scale
                );
            }
            let sum: f64 = model.alpha().iter().sum();
            let mass: f64 = model.alpha().iter().map(|a| a.abs()).sum();
            prop_assert!(sum.abs() <= 1e-9 * mass.max(1.0), "Σα = {} (Σ|α| = {})", sum, mass);
        }
    }
}
