//! Lasso solver (coordinate descent on the Gram matrix).
//!
//! Solves the paper's Eq. 2,
//!
//! ```text
//!   min_β  (1/n) Σ_j (y_j − ⟨β, x_j⟩)² + λ ‖β‖₁
//! ```
//!
//! by cyclic coordinate descent with soft thresholding. The solver
//! precomputes `XᵀX` and `Xᵀy` once, so a full sweep is `O(p²)`
//! regardless of the sample count — the right trade for this pipeline
//! (n up to tens of thousands of aggregated points, p = 30).
//!
//! On top of the dense sweeps sits an *active-set* strategy: iterate only
//! the coordinates in the current candidate set until they converge, then
//! run one full sweep over all `p` coordinates that simultaneously checks
//! the KKT conditions and absorbs any violators into the set. When a path
//! step supplies the previous λ, the initial candidate set is screened by
//! the sequential strong rule (Tibshirani et al., 2012): discard `j` when
//! `|∇_j|` at the warm start sits below `λ − |λ − λ_prev|`. The strong
//! rule is a heuristic, not a guarantee, which is exactly why every solve
//! finishes with full KKT sweeps — the returned solution is identical to
//! the dense solver's up to the shared tolerance (see
//! [`LassoProblem::solve_reference`] and the equivalence tests).
//!
//! The same core serves two roles, exactly as in the paper (§III-C vs
//! §III-D): *regularization* (which β entries are non-zero → feature
//! selection) and *prediction* ("Lasso as a Predictor": the fitted β used
//! as a closed-form linear model).
//!
//! Inputs are used in raw units. The target and features are centered
//! internally (an unpenalized intercept), matching standard lasso
//! practice; coefficients are reported in raw units like the paper's
//! Table I.

use f2pm_linalg::Matrix;

/// Solver options.
#[derive(Debug, Clone, Copy)]
pub struct LassoSolverConfig {
    /// Maximum full coordinate sweeps.
    pub max_sweeps: usize,
    /// Convergence threshold on the largest coefficient change in a sweep,
    /// relative to the largest coefficient magnitude.
    pub tol: f64,
}

impl Default for LassoSolverConfig {
    fn default() -> Self {
        LassoSolverConfig {
            max_sweeps: 2000,
            tol: 1e-8,
        }
    }
}

/// A lasso problem with precomputed sufficient statistics, reusable across
/// many λ values (warm-started path).
#[derive(Debug, Clone)]
pub struct LassoProblem {
    /// Gram matrix of the *centered* design, `p x p`.
    gram: Matrix,
    /// `Xᵀy` of the centered data, length `p`.
    xty: Vec<f64>,
    /// Column means of the design matrix.
    x_mean: Vec<f64>,
    /// Mean of the target.
    y_mean: f64,
    /// Sample count.
    n: usize,
}

/// A fitted lasso model.
#[derive(Debug, Clone)]
pub struct LassoSolution {
    /// Penalty used.
    pub lambda: f64,
    /// Raw-unit coefficients (length `p`).
    pub beta: Vec<f64>,
    /// Intercept (from the centering).
    pub intercept: f64,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Whether the solver hit its tolerance before the sweep budget.
    pub converged: bool,
}

impl LassoSolution {
    /// Indices of non-zero coefficients.
    pub fn selected(&self) -> Vec<usize> {
        self.beta
            .iter()
            .enumerate()
            .filter(|(_, b)| **b != 0.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Predict one sample.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.beta.len());
        self.intercept + f2pm_linalg::dot(&self.beta, row)
    }
}

impl LassoProblem {
    /// Precompute sufficient statistics from a design matrix and target.
    ///
    /// # Panics
    /// Panics on dimension mismatch or empty input.
    pub fn new(x: &Matrix, y: &[f64]) -> Self {
        assert_eq!(x.rows(), y.len(), "x/y row mismatch");
        assert!(x.rows() > 0, "empty design matrix");
        let n = x.rows();
        let p = x.cols();

        let mut x_mean = vec![0.0; p];
        for i in 0..n {
            for (m, v) in x_mean.iter_mut().zip(x.row(i)) {
                *m += v;
            }
        }
        for m in &mut x_mean {
            *m /= n as f64;
        }
        let y_mean = y.iter().sum::<f64>() / n as f64;

        // Centered Gram and Xᵀy without materializing the centered matrix:
        // Gc = XᵀX − n · x̄ x̄ᵀ ;  (Xᵀy)c = Xᵀy − n · x̄ ȳ.
        let mut gram = x.gram();
        for a in 0..p {
            for b in 0..p {
                gram[(a, b)] -= n as f64 * x_mean[a] * x_mean[b];
            }
        }
        let mut xty = vec![0.0; p];
        for (i, &yi) in y.iter().enumerate() {
            for (s, v) in xty.iter_mut().zip(x.row(i)) {
                *s += v * yi;
            }
        }
        for (s, m) in xty.iter_mut().zip(&x_mean) {
            *s -= n as f64 * m * y_mean;
        }

        LassoProblem {
            gram,
            xty,
            x_mean,
            y_mean,
            n,
        }
    }

    /// Number of input columns.
    pub fn width(&self) -> usize {
        self.xty.len()
    }

    /// The smallest λ for which the all-zero solution is optimal
    /// (`λ_max = (2/n) ‖Xᵀy‖_∞` for this objective's scaling).
    pub fn lambda_max(&self) -> f64 {
        let inf = self.xty.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        2.0 * inf / self.n as f64
    }

    /// Solve at one λ, optionally warm-starting from a previous solution.
    ///
    /// Uses the active-set strategy: converge on the warm start's support,
    /// then alternate full KKT-check sweeps (which absorb violators) with
    /// active-set convergence until a full sweep passes the tolerance.
    pub fn solve(
        &self,
        lambda: f64,
        warm: Option<&[f64]>,
        cfg: &LassoSolverConfig,
    ) -> LassoSolution {
        self.solve_screened(lambda, None, warm, cfg)
    }

    /// Solve one step of a λ path, screening the initial candidate set with
    /// the sequential strong rule anchored at `lambda_prev` (the adjacent
    /// grid point whose solution seeds `warm`).
    ///
    /// The screening is only an initial guess — full KKT sweeps still
    /// verify every coordinate before the solver reports convergence, so
    /// the result matches [`LassoProblem::solve`] exactly.
    pub fn solve_path_step(
        &self,
        lambda: f64,
        lambda_prev: f64,
        warm: Option<&[f64]>,
        cfg: &LassoSolverConfig,
    ) -> LassoSolution {
        self.solve_screened(lambda, Some(lambda_prev), warm, cfg)
    }

    /// The original dense cyclic solver: every sweep visits all `p`
    /// coordinates. Kept as the pinned reference for the active-set path —
    /// equivalence tests compare the two on identical inputs.
    pub fn solve_reference(
        &self,
        lambda: f64,
        warm: Option<&[f64]>,
        cfg: &LassoSolverConfig,
    ) -> LassoSolution {
        assert!(lambda >= 0.0, "negative lambda");
        let p = self.width();
        let mut beta = self.init_beta(warm);
        let mut sweeps = 0;
        let mut converged = false;
        while sweeps < cfg.max_sweeps {
            sweeps += 1;
            let mut max_delta = 0.0_f64;
            let mut max_beta = 0.0_f64;
            for j in 0..p {
                let (delta, ab) = self.cd_update(&mut beta, lambda, j);
                if delta > max_delta {
                    max_delta = delta;
                }
                if ab > max_beta {
                    max_beta = ab;
                }
            }
            if max_delta <= cfg.tol * max_beta.max(1e-12) {
                converged = true;
                break;
            }
        }
        self.finish(lambda, beta, sweeps, converged)
    }

    fn solve_screened(
        &self,
        lambda: f64,
        lambda_prev: Option<f64>,
        warm: Option<&[f64]>,
        cfg: &LassoSolverConfig,
    ) -> LassoSolution {
        assert!(lambda >= 0.0, "negative lambda");
        let p = self.width();
        let n = self.n as f64;
        let mut beta = self.init_beta(warm);

        // Initial candidate set: the warm start's support, plus (on a path
        // step) every coordinate surviving the sequential strong rule.
        // The rule discards j when the unit-slope bound on the gradient,
        // |∇_j(λ)| ≤ |∇_j(λ_prev)| + |λ − λ_prev|, already proves the KKT
        // slack |∇_j(λ)| < λ. Written direction-agnostically the keep
        // threshold is λ − |λ − λ_prev| (the familiar 2λ − λ_prev when the
        // path descends).
        let mut active: Vec<usize> = match lambda_prev {
            Some(lp) => {
                let thresh = lambda - (lambda - lp).abs();
                (0..p)
                    .filter(|&j| {
                        beta[j] != 0.0 || {
                            let gb = f2pm_linalg::dot(self.gram.row(j), &beta);
                            let grad = (2.0 / n) * (self.xty[j] - gb);
                            grad.abs() >= thresh
                        }
                    })
                    .collect()
            }
            None => (0..p).filter(|&j| beta[j] != 0.0).collect(),
        };

        let mut sweeps = 0;
        let mut converged = false;
        while sweeps < cfg.max_sweeps {
            // Converge on the candidate set (cheap: O(|active|·p) a sweep).
            if !active.is_empty() && active.len() < p {
                while sweeps < cfg.max_sweeps {
                    sweeps += 1;
                    let mut max_delta = 0.0_f64;
                    let mut max_beta = 0.0_f64;
                    for &j in &active {
                        let (delta, ab) = self.cd_update(&mut beta, lambda, j);
                        if delta > max_delta {
                            max_delta = delta;
                        }
                        if ab > max_beta {
                            max_beta = ab;
                        }
                    }
                    if max_delta <= cfg.tol * max_beta.max(1e-12) {
                        break;
                    }
                }
                if sweeps >= cfg.max_sweeps {
                    break;
                }
            }
            // Full sweep over all p: verifies KKT at the screened-out
            // coordinates and pulls any violator into the support.
            sweeps += 1;
            let mut max_delta = 0.0_f64;
            let mut max_beta = 0.0_f64;
            for j in 0..p {
                let (delta, ab) = self.cd_update(&mut beta, lambda, j);
                if delta > max_delta {
                    max_delta = delta;
                }
                if ab > max_beta {
                    max_beta = ab;
                }
            }
            if max_delta <= cfg.tol * max_beta.max(1e-12) {
                converged = true;
                break;
            }
            active = (0..p).filter(|&j| beta[j] != 0.0).collect();
        }
        self.finish(lambda, beta, sweeps, converged)
    }

    /// One coordinate-descent update; returns `(|Δβ_j|, |β_j|)` after.
    ///
    /// Objective: (1/n)||y − Xβ||² + λ||β||₁. Deriving the update:
    ///   ∂/∂β_j (1/n)||r||² = (2/n)(G β − Xᵀy)_j
    /// With the j term decoupled: z_j = (2/n)(xtyⱼ − Σ_{k≠j} G_jk β_k),
    /// a_j = (2/n) G_jj, and β_j = S(z_j, λ) / a_j.
    #[inline]
    fn cd_update(&self, beta: &mut [f64], lambda: f64, j: usize) -> (f64, f64) {
        let gjj = self.gram[(j, j)];
        if gjj <= 0.0 {
            beta[j] = 0.0; // constant column: never selected
            return (0.0, 0.0);
        }
        let n = self.n as f64;
        // gb = (G β)_j including the j term.
        let gb = f2pm_linalg::dot(self.gram.row(j), beta);
        let z = (2.0 / n) * (self.xty[j] - gb + gjj * beta[j]);
        let a = (2.0 / n) * gjj;
        let new = soft_threshold(z, lambda) / a;
        let delta = (new - beta[j]).abs();
        beta[j] = new;
        (delta, new.abs())
    }

    fn init_beta(&self, warm: Option<&[f64]>) -> Vec<f64> {
        match warm {
            Some(w) => {
                assert_eq!(w.len(), self.width(), "warm start width mismatch");
                w.to_vec()
            }
            None => vec![0.0; self.width()],
        }
    }

    fn finish(&self, lambda: f64, beta: Vec<f64>, sweeps: usize, converged: bool) -> LassoSolution {
        let intercept = self.y_mean - f2pm_linalg::dot(&beta, &self.x_mean);
        LassoSolution {
            lambda,
            beta,
            intercept,
            sweeps,
            converged,
        }
    }
}

#[inline]
fn soft_threshold(z: f64, lambda: f64) -> f64 {
    if z > lambda {
        z - lambda
    } else if z < -lambda {
        z + lambda
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// y = 3 + 2 a − 1.5 b, c is pure noise-free junk (constant 0 signal).
    fn toy_problem(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(n, 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.7).sin() * 10.0;
            let b = (i as f64 * 1.3).cos() * 5.0;
            let c = ((i * 37) % 11) as f64 - 5.0;
            x.row_mut(i).copy_from_slice(&[a, b, c]);
            y.push(3.0 + 2.0 * a - 1.5 * b);
        }
        (x, y)
    }

    #[test]
    fn zero_lambda_recovers_ols() {
        let (x, y) = toy_problem(200);
        let prob = LassoProblem::new(&x, &y);
        let sol = prob.solve(0.0, None, &LassoSolverConfig::default());
        assert!(sol.converged);
        assert!((sol.beta[0] - 2.0).abs() < 1e-5, "beta0 {}", sol.beta[0]);
        assert!((sol.beta[1] + 1.5).abs() < 1e-5, "beta1 {}", sol.beta[1]);
        assert!(sol.beta[2].abs() < 1e-5, "beta2 {}", sol.beta[2]);
        assert!((sol.intercept - 3.0).abs() < 1e-4);
    }

    #[test]
    fn lambda_max_kills_everything() {
        let (x, y) = toy_problem(100);
        let prob = LassoProblem::new(&x, &y);
        let lmax = prob.lambda_max();
        let sol = prob.solve(lmax * 1.01, None, &LassoSolverConfig::default());
        assert!(sol.selected().is_empty(), "beta {:?}", sol.beta);
        // Prediction degenerates to the mean.
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((sol.predict_row(&[1.0, 2.0, 3.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn support_shrinks_with_lambda() {
        let (x, y) = toy_problem(300);
        let prob = LassoProblem::new(&x, &y);
        let lmax = prob.lambda_max();
        let mut last = usize::MAX;
        let mut warm: Option<Vec<f64>> = None;
        // Ascend λ: support sizes must be non-increasing. The grid tops out
        // slightly above λ_max (at exactly λ_max the zero solution is a
        // boundary optimum and round-off can keep one tiny coefficient).
        for k in 0..8 {
            let lambda = lmax * 1.02 * (k as f64 / 7.0).powi(2);
            let sol = prob.solve(lambda, warm.as_deref(), &LassoSolverConfig::default());
            let count = sol.selected().len();
            assert!(
                count <= last || last == usize::MAX,
                "support grew from {last} to {count} at λ={lambda}"
            );
            last = count;
            warm = Some(sol.beta);
        }
        assert_eq!(last, 0);
    }

    #[test]
    fn prediction_matches_manual_formula() {
        let (x, y) = toy_problem(150);
        let prob = LassoProblem::new(&x, &y);
        let sol = prob.solve(0.01, None, &LassoSolverConfig::default());
        let row = [2.0, -1.0, 0.5];
        let manual = sol.intercept + sol.beta[0] * 2.0 + -sol.beta[1] + sol.beta[2] * 0.5;
        assert_eq!(sol.predict_row(&row), manual);
    }

    #[test]
    fn constant_column_never_selected() {
        let mut x = Matrix::zeros(50, 2);
        let mut y = Vec::new();
        for i in 0..50 {
            x[(i, 0)] = i as f64;
            x[(i, 1)] = 7.0; // constant
            y.push(2.0 * i as f64 + 1.0);
        }
        let prob = LassoProblem::new(&x, &y);
        let sol = prob.solve(1e-6, None, &LassoSolverConfig::default());
        assert_eq!(sol.selected(), vec![0]);
        assert!((sol.beta[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_converges_faster() {
        let (x, y) = toy_problem(400);
        let prob = LassoProblem::new(&x, &y);
        let cold = prob.solve(0.05, None, &LassoSolverConfig::default());
        let warm = prob.solve(0.049, Some(&cold.beta), &LassoSolverConfig::default());
        assert!(
            warm.sweeps <= cold.sweeps,
            "warm {} cold {}",
            warm.sweeps,
            cold.sweeps
        );
    }

    fn assert_same_solution(a: &LassoSolution, b: &LassoSolution, tol: f64, what: &str) {
        assert_eq!(a.selected(), b.selected(), "{what}: supports differ");
        for (j, (x, y)) in a.beta.iter().zip(&b.beta).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}: beta[{j}] {x} vs {y}"
            );
        }
        assert!(
            (a.intercept - b.intercept).abs() <= tol * (1.0 + a.intercept.abs()),
            "{what}: intercept {} vs {}",
            a.intercept,
            b.intercept
        );
    }

    #[test]
    fn active_set_matches_reference_solver() {
        let (x, y) = toy_problem(250);
        let prob = LassoProblem::new(&x, &y);
        let cfg = LassoSolverConfig::default();
        let lmax = prob.lambda_max();
        for &frac in &[0.0, 1e-4, 1e-2, 0.1, 0.5, 0.9, 1.05] {
            let lambda = lmax * frac;
            let fast = prob.solve(lambda, None, &cfg);
            let dense = prob.solve_reference(lambda, None, &cfg);
            assert!(fast.converged && dense.converged, "λ={lambda}");
            assert_same_solution(&fast, &dense, 1e-6, &format!("λ={lambda}"));
        }
    }

    #[test]
    fn strong_rule_path_step_matches_plain_solve() {
        let (x, y) = toy_problem(300);
        let prob = LassoProblem::new(&x, &y);
        let cfg = LassoSolverConfig::default();
        let lmax = prob.lambda_max();
        let grid: Vec<f64> = (0..8)
            .map(|k| lmax * 1.05 * (k as f64 / 7.0).powi(2))
            .collect();
        let mut warm: Option<Vec<f64>> = None;
        let mut prev: Option<f64> = None;
        for &lambda in &grid {
            let fast = match prev {
                Some(lp) => prob.solve_path_step(lambda, lp, warm.as_deref(), &cfg),
                None => prob.solve(lambda, warm.as_deref(), &cfg),
            };
            let dense = prob.solve_reference(lambda, warm.as_deref(), &cfg);
            assert_same_solution(&fast, &dense, 1e-6, &format!("path λ={lambda}"));
            warm = Some(fast.beta.clone());
            prev = Some(lambda);
        }
    }

    #[test]
    #[should_panic(expected = "x/y row mismatch")]
    fn dimension_mismatch_panics() {
        let x = Matrix::zeros(3, 2);
        LassoProblem::new(&x, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "negative lambda")]
    fn negative_lambda_panics() {
        let (x, y) = toy_problem(10);
        LassoProblem::new(&x, &y).solve(-1.0, None, &LassoSolverConfig::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn objective_never_increases_with_more_regularization_on_training_fit(
            seed in 0u64..50
        ) {
            // As λ grows the training residual can only grow (the fit gets
            // more constrained).
            let (x, y) = toy_problem(120 + seed as usize % 30);
            let prob = LassoProblem::new(&x, &y);
            let cfg = LassoSolverConfig::default();
            let lmax = prob.lambda_max();
            let mut last_rss = -1.0;
            for k in 0..5 {
                let sol = prob.solve(lmax * k as f64 / 4.0, None, &cfg);
                let rss: f64 = (0..x.rows())
                    .map(|i| {
                        let e = y[i] - sol.predict_row(x.row(i));
                        e * e
                    })
                    .sum();
                prop_assert!(rss + 1e-6 >= last_rss, "rss {rss} < {last_rss}");
                last_rss = rss;
            }
        }

        #[test]
        fn active_set_agrees_with_reference_on_random_problems(
            seed in 0u64..40,
            frac in 0.0f64..1.1
        ) {
            let (x, y) = toy_problem(80 + seed as usize % 60);
            let prob = LassoProblem::new(&x, &y);
            let cfg = LassoSolverConfig::default();
            let lambda = prob.lambda_max() * frac;
            let fast = prob.solve(lambda, None, &cfg);
            let dense = prob.solve_reference(lambda, None, &cfg);
            prop_assert_eq!(fast.selected(), dense.selected());
            for (a, b) in fast.beta.iter().zip(&dense.beta) {
                prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())));
            }
        }
    }
}
