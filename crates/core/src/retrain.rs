//! Warm-start incremental retraining over a sliding run window.
//!
//! The knowledge-base loop (§III-A) retrains on "the last W failing
//! runs" every time a run completes. Cold retraining repeats three
//! super-linear costs on every shift even though only one run changed:
//! re-aggregating the whole window, rebuilding the `n × n` LS-SVM kernel
//! system, and refactoring it (`O(n³)`). [`RetrainEngine`] keeps the
//! expensive state *live* across shifts and updates it by exactly the
//! rows that entered and left:
//!
//! - **Aggregation** — a [`SlidingAggregator`] caches each run's
//!   aggregated points, so a shift aggregates only the new run.
//! - **LS-SVM factor** — the Cholesky factor of `A = K + I/γ` is
//!   maintained with [`Cholesky::shift_window`]: the evicted runs are
//!   always the *leading* rows in window order, so every shift — rows
//!   out and rows in equal or not, either of them zero — is one
//!   single-threaded sweep that slides the surviving rows up-left, folds
//!   the retired columns back in, and borders by the new run's kernel
//!   rows, the only kernel entries computed. A steady-state shift (rows
//!   out == rows in) runs inside the factor's own buffer; any other
//!   writes one buffer of the new order. The dual is refreshed with one
//!   two-RHS [`Cholesky::solve_multi`] plus [`eliminate_bias`], and the
//!   model is assembled via [`LsSvmModel::from_parts`] — bit-compatible
//!   with what a cold [`LsSvmRegressor::fit_prestandardized`] produces,
//!   within rounding.
//! - **Linear ridge factor** — the `(p+1) × (p+1)` Gram factor of
//!   `G = Z̃ᵀZ̃ + λI` (intercept-augmented standardized rows) is
//!   maintained with [`Cholesky::update_rank_k`] /
//!   [`Cholesky::downdate_rank_k`]; the downdate's conditioning guard
//!   ([`f2pm_linalg::DOWNDATE_GUARD`]) makes this the one genuinely
//!   *conditionally* stable path, so a guard trip falls back to an exact
//!   refactorization ([`FactorPath::Fallback`]) instead of committing an
//!   amplified factor.
//! - **Lasso sufficient statistics** — [`LassoStats`] keeps the window's
//!   uncentered moments; each retrain derives the centered problem in
//!   `O(p²)` and warm-starts coordinate descent from the previous β.
//!   The solver's final full KKT sweep still certifies the optimum, so
//!   warm starting changes sweep counts, never the solution.
//!
//! **Standardization contract.** The engine freezes one [`Standardizer`]
//! at the first retrain and reuses it for every later shift: kernel
//! entries depend on the standardized coordinates, so refitting the
//! standardizer per window would invalidate every cached factor entry
//! and silently break warm/cold comparability. [`RetrainEngine::retrain_cold`]
//! uses the same frozen standardizer, which is what makes the
//! warm-equals-cold 1e-6 equivalence contract testable at all. Callers
//! that need to re-calibrate scaling start a fresh engine.

use std::collections::VecDeque;

use crate::error::F2pmError;
use f2pm_features::{
    AggregatedPoint, AggregationConfig, LassoSolution, LassoSolverConfig, LassoStats,
    SlidingAggregator, WindowShift,
};
use f2pm_linalg::{Cholesky, Matrix, Standardizer};
use f2pm_ml::lssvm::{eliminate_bias, LsSvmModel};
use f2pm_ml::{Kernel, LsSvmRegressor};
use f2pm_monitor::RunData;

/// How a maintained factor reached its post-retrain state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorPath {
    /// Rebuilt from scratch (first retrain, scheduled refactorization, or
    /// a whole-window replacement where incremental work would cost more
    /// than a cold build).
    Cold,
    /// Updated in place by exactly the rows that entered and left.
    Warm,
    /// A warm update was attempted but refused (downdate conditioning
    /// guard or a non-positive-definite border), so the factor was
    /// rebuilt from scratch. The *result* is identical to [`Cold`]
    /// (`Cold` = [`FactorPath::Cold`]); the flag exists so callers can
    /// count how often the guard fires.
    Fallback,
}

/// Configuration of a [`RetrainEngine`].
#[derive(Debug, Clone)]
pub struct RetrainConfig {
    /// Aggregation scheme for incoming runs (must stay fixed — cached
    /// aggregations and the frozen standardizer depend on it).
    pub aggregation: AggregationConfig,
    /// Sliding window length in *runs* (must be ≥ 1).
    pub window_runs: usize,
    /// LS-SVM kernel.
    pub kernel: Kernel,
    /// LS-SVM regularization γ (the maintained SPD block is `K + I/γ`).
    pub gamma: f64,
    /// Ridge λ of the maintained linear Gram factor.
    pub ridge_lambda: f64,
    /// Lasso λ solved (with warm starts) each retrain; `None` skips the
    /// lasso stage entirely.
    pub lasso_lambda: Option<f64>,
    /// Cold-refactor after this many consecutive warm retrains to bound
    /// floating-point drift (0 = never on schedule; fallbacks still
    /// refactor). Drift per warm shift is at the rounding level, so the
    /// default of 64 keeps the warm/cold gap far below the 1e-6 contract.
    pub refactor_every: usize,
}

impl RetrainConfig {
    /// Defaults matching the CLI's LS-SVM configuration.
    pub fn new(window_runs: usize) -> Self {
        RetrainConfig {
            aggregation: AggregationConfig::default(),
            window_runs,
            kernel: Kernel::Rbf { gamma: 0.03 },
            gamma: 10.0,
            ridge_lambda: 1e-6,
            lasso_lambda: Some(0.05),
            refactor_every: 64,
        }
    }
}

/// The linear ridge model maintained alongside the LS-SVM: `β` solved
/// from the intercept-augmented Gram factor `(Z̃ᵀZ̃ + λI) β = Z̃ᵀy`.
///
/// The intercept coefficient is regularized together with the rest (the
/// price of exact rank-k maintenance — centering `y` would make every
/// coefficient depend on the window mean and break the update algebra);
/// with the tiny default λ the bias this introduces is negligible.
#[derive(Debug, Clone)]
pub struct RidgeModel {
    standardizer: Standardizer,
    /// `beta[0]` is the intercept, `beta[1..]` the per-column weights in
    /// standardized space.
    beta: Vec<f64>,
}

impl RidgeModel {
    /// Predict the RTTF of one raw (unstandardized) input row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut z = row.to_vec();
        self.standardizer.transform_row(&mut z);
        self.beta[0]
            + z.iter()
                .zip(&self.beta[1..])
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }

    /// The solved coefficients (`[intercept, weights...]`, standardized
    /// space).
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }
}

/// What one [`RetrainEngine::retrain`] produced.
#[derive(Debug, Clone)]
pub struct RetrainOutcome {
    /// The refreshed LS-SVM model.
    pub model: LsSvmModel,
    /// The refreshed linear ridge model.
    pub ridge: RidgeModel,
    /// Lasso solution at [`RetrainConfig::lasso_lambda`] (warm-started;
    /// `None` when no λ is configured).
    pub lasso: Option<LassoSolution>,
    /// How the LS-SVM kernel factor was obtained.
    pub lssvm_path: FactorPath,
    /// How the ridge Gram factor was obtained.
    pub ridge_path: FactorPath,
    /// Labeled rows in the trained window.
    pub rows: usize,
    /// Leading rows retired by this retrain.
    pub retired_rows: usize,
    /// Trailing rows appended by this retrain.
    pub appended_rows: usize,
}

/// Warm-start incremental retraining engine (see module docs).
#[derive(Debug, Clone)]
pub struct RetrainEngine {
    cfg: RetrainConfig,
    slider: SlidingAggregator,
    /// Frozen at the first retrain; never refitted (see module docs).
    standardizer: Option<Standardizer>,
    /// Standardized window rows in window order, row-major, mirroring the
    /// rows the maintained factors were built from.
    zdata: Vec<f64>,
    /// Labels matching `zdata` rows.
    y: Vec<f64>,
    /// Input width (columns of `zdata`).
    width: usize,
    /// Runs reflected in `zdata`/factors: `(run_id, rows)` in window order.
    applied: VecDeque<(u64, usize)>,
    /// Maintained factor of the LS-SVM block `A = K + I/γ`.
    factor: Option<Cholesky>,
    /// Maintained factor of the augmented ridge Gram `Z̃ᵀZ̃ + λI`.
    ridge_factor: Option<Cholesky>,
    /// Maintained `Z̃ᵀy` for the ridge solve.
    ridge_xty: Vec<f64>,
    /// Maintained lasso sufficient statistics over `zdata`/`y`.
    lasso_stats: Option<LassoStats>,
    /// Previous lasso solution — the warm start seed.
    lasso_beta: Option<Vec<f64>>,
    /// Warm retrains since the last cold build (scheduled-refactor clock).
    warm_streak: usize,
}

impl RetrainEngine {
    /// Create an empty engine.
    ///
    /// # Panics
    /// Panics when `window_runs` is 0 or γ/λ are not positive.
    pub fn new(cfg: RetrainConfig) -> Self {
        assert!(cfg.window_runs >= 1, "window must hold at least one run");
        assert!(cfg.gamma > 0.0, "LS-SVM gamma must be positive");
        assert!(cfg.ridge_lambda > 0.0, "ridge lambda must be positive");
        let slider = SlidingAggregator::new(cfg.aggregation, cfg.window_runs);
        RetrainEngine {
            cfg,
            slider,
            standardizer: None,
            zdata: Vec::new(),
            y: Vec::new(),
            width: 0,
            applied: VecDeque::new(),
            factor: None,
            ridge_factor: None,
            ridge_xty: Vec::new(),
            lasso_stats: None,
            lasso_beta: None,
            warm_streak: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RetrainConfig {
        &self.cfg
    }

    /// Push one completed run into the window (aggregates only that run).
    /// Cheap — call it from the ingest path; call [`retrain`](Self::retrain)
    /// when a refreshed model is wanted.
    pub fn push_run(&mut self, run: &RunData) -> WindowShift {
        self.slider.push_run(run)
    }

    /// Labeled rows currently in the window.
    pub fn window_rows(&self) -> usize {
        self.slider.len_points()
    }

    /// Runs currently in the window.
    pub fn window_runs(&self) -> usize {
        self.slider.len_runs()
    }

    /// The frozen standardizer, once the first retrain has happened.
    pub fn standardizer(&self) -> Option<&Standardizer> {
        self.standardizer.as_ref()
    }

    /// Retrain on the current window, reusing every stale factor that can
    /// be updated in place. Errors with
    /// [`F2pmError::NotEnoughData`] until the window holds at least two
    /// labeled rows.
    pub fn retrain(&mut self) -> Result<RetrainOutcome, F2pmError> {
        let rows = self.slider.len_points();
        if rows < 2 {
            return Err(F2pmError::NotEnoughData {
                points: rows,
                needed: 2,
            });
        }

        // Diff the slider window against the rows the factors reflect.
        // Run ids are monotonic and eviction is strictly from the head, so
        // the applied runs that left form a prefix and the new runs a
        // suffix.
        let window: Vec<(u64, usize)> = self
            .slider
            .runs()
            .map(|r| (r.run_id, r.points.len()))
            .collect();
        let first_kept = window.first().map(|&(id, _)| id).unwrap_or(0);
        let mut retired_rows = 0;
        while let Some(&(id, n)) = self.applied.front() {
            if id < first_kept {
                retired_rows += n;
                self.applied.pop_front();
            } else {
                break;
            }
        }
        let last_applied = self.applied.back().map(|&(id, _)| id);
        let appended: Vec<&AggregatedPoint> = self
            .slider
            .runs()
            .filter(|r| last_applied.is_none_or(|last| r.run_id > last))
            .flat_map(|r| r.points.iter())
            .collect();
        let appended_rows = appended.len();
        debug_assert!(self
            .applied
            .iter()
            .map(|&(id, _)| id)
            .eq(window.iter().map(|&(id, _)| id).take(self.applied.len())));

        let n_old: usize = self.applied.iter().map(|&(_, n)| n).sum();
        let scheduled = self.cfg.refactor_every > 0 && self.warm_streak >= self.cfg.refactor_every;
        // A whole-window replacement (or the first retrain) gains nothing
        // from incremental updates — retire-everything-then-extend does
        // strictly more work than a cold build.
        let warm_viable = self.standardizer.is_some()
            && self.factor.is_some()
            && !scheduled
            && retired_rows < n_old;

        if self.standardizer.is_none() {
            // First retrain: freeze standardization on the initial window.
            let raw = self.window_matrix_raw();
            self.standardizer = Some(Standardizer::fit(&raw));
            self.width = raw.cols();
        }
        let std = self.standardizer.clone().expect("frozen above");

        // Standardize the appended rows and save the retired ones before
        // the mirror moves (the ridge downdate needs their values).
        let zk = self.standardize_points(&std, &appended);
        let yk: Vec<f64> = appended
            .iter()
            .map(|p| p.rttf.expect("cached points are labeled"))
            .collect();
        let retired_z = Matrix::from_vec(
            retired_rows,
            self.width,
            self.zdata[..retired_rows * self.width].to_vec(),
        );
        let retired_y: Vec<f64> = self.y[..retired_rows].to_vec();

        let (lssvm_path, ridge_path) = if warm_viable {
            let ridge_path = self.ridge_shift_warm(&retired_z, &retired_y, &zk, &yk);
            self.lasso_shift_warm(&retired_z, &retired_y, &zk, &yk);
            let lssvm_path = self.lssvm_shift_warm(retired_rows, &zk, &yk);
            if lssvm_path == FactorPath::Warm {
                self.warm_streak += 1;
            } else {
                self.warm_streak = 0;
            }
            (lssvm_path, ridge_path)
        } else {
            // Cold: move the mirror wholesale, then rebuild every factor.
            self.drain_leading(retired_rows);
            self.append_rows(&zk, &yk);
            self.rebuild_all()?;
            self.warm_streak = 0;
            (FactorPath::Cold, FactorPath::Cold)
        };

        self.applied = window.into();
        debug_assert_eq!(self.y.len(), rows);

        self.assemble(&std, lssvm_path, ridge_path, retired_rows, appended_rows)
    }

    /// Cold-reference retrain: rebuild everything for the current window
    /// from scratch, through the same public entry points an offline fit
    /// would use ([`LsSvmRegressor::fit_prestandardized`],
    /// [`f2pm_features::LassoProblem::new`]). Does not touch any engine
    /// state — this is the oracle the warm path is tested against.
    pub fn retrain_cold(&self) -> Result<RetrainOutcome, F2pmError> {
        let points: Vec<&AggregatedPoint> = self.slider.points().collect();
        if points.len() < 2 {
            return Err(F2pmError::NotEnoughData {
                points: points.len(),
                needed: 2,
            });
        }
        let raw = self.window_matrix_raw();
        let std = self
            .standardizer
            .clone()
            .unwrap_or_else(|| Standardizer::fit(&raw));
        let z = std.transform(&raw);
        let y: Vec<f64> = points
            .iter()
            .map(|p| p.rttf.expect("cached points are labeled"))
            .collect();

        let reg = LsSvmRegressor::new(self.cfg.kernel, self.cfg.gamma);
        let model = reg.fit_prestandardized(std.clone(), &z, &y)?;

        let aug = augment(&z);
        let gram = ridge_gram(&aug, self.cfg.ridge_lambda);
        let ch = Cholesky::factor(&gram)?;
        let xty = xty_of(&aug, &y);
        let beta = ch.solve(&xty)?;
        let ridge = RidgeModel {
            standardizer: std,
            beta,
        };

        let lasso = self.cfg.lasso_lambda.map(|lambda| {
            f2pm_features::LassoProblem::new(&z, &y).solve(lambda, None, &lasso_solver_config())
        });

        Ok(RetrainOutcome {
            model,
            ridge,
            lasso,
            lssvm_path: FactorPath::Cold,
            ridge_path: FactorPath::Cold,
            rows: y.len(),
            retired_rows: 0,
            appended_rows: 0,
        })
    }

    // ---- warm update stages ------------------------------------------

    /// Ridge Gram: downdate the retired rows, update the appended ones.
    /// The downdate is the conditionally-stable op — a guard trip rebuilds
    /// the factor exactly and reports [`FactorPath::Fallback`].
    fn ridge_shift_warm(
        &mut self,
        retired_z: &Matrix,
        retired_y: &[f64],
        zk: &Matrix,
        yk: &[f64],
    ) -> FactorPath {
        for (i, &yi) in retired_y.iter().enumerate() {
            axpy_aug(&mut self.ridge_xty, -yi, retired_z.row(i));
        }
        for (i, &yi) in yk.iter().enumerate() {
            axpy_aug(&mut self.ridge_xty, yi, zk.row(i));
        }
        let ok = (|| -> f2pm_linalg::Result<()> {
            let f = self.ridge_factor.as_mut().expect("warm path has factors");
            if retired_z.rows() > 0 {
                f.downdate_rank_k(&augment(retired_z))?;
            }
            if zk.rows() > 0 {
                f.update_rank_k(&augment(zk))?;
            }
            Ok(())
        })();
        match ok {
            Ok(()) => FactorPath::Warm,
            Err(_) => {
                // Mirror isn't shifted yet — rebuild from first principles
                // once it is. assemble() runs after the mirror moves, so
                // just mark the factor stale here. The lasso sufficient
                // statistics are condemned by the same evidence: the guard
                // fires exactly when the retired rows' mass dominates what
                // remains, and that is also the regime where subtracting
                // them from the maintained moment sums cancels
                // catastrophically.
                self.ridge_factor = None;
                self.lasso_stats = None;
                FactorPath::Fallback
            }
        }
    }

    /// Lasso sufficient statistics: exact rank-k subtract/add — sums
    /// cannot become indefinite, so there is no fallback to take.
    fn lasso_shift_warm(&mut self, retired_z: &Matrix, retired_y: &[f64], zk: &Matrix, yk: &[f64]) {
        if let Some(stats) = self.lasso_stats.as_mut() {
            if retired_z.rows() > 0 {
                stats.remove_rows(retired_z, retired_y);
            }
            if zk.rows() > 0 {
                stats.add_rows(zk, yk);
            }
        }
    }

    /// LS-SVM kernel factor: retire the leading rows and border by the
    /// new run's kernel rows — the only kernel entries computed — in one
    /// shift of whatever shape the window moved by.
    fn lssvm_shift_warm(&mut self, retired_rows: usize, zk: &Matrix, yk: &[f64]) -> FactorPath {
        self.drain_leading(retired_rows);
        let (b, c) = self.kernel_border(zk);
        let attempt = self
            .factor
            .as_mut()
            .expect("warm path has factors")
            .shift_window(retired_rows, &b, &c);
        self.append_rows(zk, yk);

        match attempt {
            Ok(()) => FactorPath::Warm,
            Err(_) => {
                self.factor = None;
                FactorPath::Fallback
            }
        }
    }

    // ---- shared assembly ---------------------------------------------

    /// Solve every model off the (possibly rebuilt) factors and package
    /// the outcome. Factors marked stale by a fallback are rebuilt here,
    /// after the mirror reached its final state.
    fn assemble(
        &mut self,
        std: &Standardizer,
        lssvm_path: FactorPath,
        ridge_path: FactorPath,
        retired_rows: usize,
        appended_rows: usize,
    ) -> Result<RetrainOutcome, F2pmError> {
        let n = self.y.len();
        if self.factor.is_none() {
            self.factor = Some(self.lssvm_factor_cold()?);
        }
        if self.ridge_factor.is_none() {
            let z = self.window_matrix_std();
            let aug = augment(&z);
            self.ridge_factor = Some(Cholesky::factor(&ridge_gram(&aug, self.cfg.ridge_lambda))?);
            // A fallback is a full cold rebuild of the ridge system: also
            // recompute `Z̃ᵀy` from the mirror, discarding whatever
            // cancellation residue the maintained sums accumulated from
            // the rows that forced the fallback.
            self.ridge_xty = xty_of(&aug, &self.y);
        }
        if self.lasso_stats.is_none() {
            let z = self.window_matrix_std();
            self.lasso_stats = Some(LassoStats::from_data(&z, &self.y));
        }

        // Dual refresh: one interleaved two-RHS solve (1 | y).
        let mut rhs = Matrix::zeros(n, 2);
        for i in 0..n {
            rhs[(i, 0)] = 1.0;
            rhs[(i, 1)] = self.y[i];
        }
        let sol = self
            .factor
            .as_ref()
            .expect("built above")
            .solve_multi(&rhs)?;
        let s: Vec<f64> = (0..n).map(|i| sol[(i, 0)]).collect();
        let zvec: Vec<f64> = (0..n).map(|i| sol[(i, 1)]).collect();
        let (alpha, bias) = eliminate_bias(&s, &zvec)?;
        let model = LsSvmModel::from_parts(
            self.cfg.kernel,
            std.clone(),
            self.window_matrix_std(),
            alpha,
            bias,
        );

        let beta = self
            .ridge_factor
            .as_ref()
            .expect("built above")
            .solve(&self.ridge_xty)?;
        let ridge = RidgeModel {
            standardizer: std.clone(),
            beta,
        };

        let lasso = self.cfg.lasso_lambda.map(|lambda| {
            let sol = self
                .lasso_stats
                .as_ref()
                .expect("built above")
                .to_problem()
                .solve(lambda, self.lasso_beta.as_deref(), &lasso_solver_config());
            self.lasso_beta = Some(sol.beta.clone());
            sol
        });

        Ok(RetrainOutcome {
            model,
            ridge,
            lasso,
            lssvm_path,
            ridge_path,
            rows: n,
            retired_rows,
            appended_rows,
        })
    }

    /// Rebuild every factor and statistic from the mirror (cold path).
    fn rebuild_all(&mut self) -> Result<(), F2pmError> {
        self.factor = Some(self.lssvm_factor_cold()?);
        let z = self.window_matrix_std();
        let aug = augment(&z);
        self.ridge_factor = Some(Cholesky::factor(&ridge_gram(&aug, self.cfg.ridge_lambda))?);
        self.ridge_xty = xty_of(&aug, &self.y);
        self.lasso_stats = Some(LassoStats::from_data(&z, &self.y));
        Ok(())
    }

    fn lssvm_factor_cold(&self) -> Result<Cholesky, F2pmError> {
        let z = self.window_matrix_std();
        let mut a = self.cfg.kernel.matrix(&z);
        for i in 0..a.rows() {
            a[(i, i)] += 1.0 / self.cfg.gamma;
        }
        Ok(Cholesky::factor(&a)?)
    }

    /// Kernel border of the appended rows against the surviving window:
    /// `b[i][j] = k(zᵢ, z̃ⱼ)` (`n_kept × k`) and `c = K(z̃) + I/γ` (`k × k`).
    fn kernel_border(&self, zk: &Matrix) -> (Matrix, Matrix) {
        let n = self.y.len();
        let k = zk.rows();
        let mut b = Matrix::zeros(n, k);
        for i in 0..n {
            let zi = &self.zdata[i * self.width..(i + 1) * self.width];
            let row = b.row_mut(i);
            for (j, bij) in row.iter_mut().enumerate() {
                *bij = self.cfg.kernel.eval(zi, zk.row(j));
            }
        }
        let mut c = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                c[(i, j)] = self.cfg.kernel.eval(zk.row(i), zk.row(j));
            }
            c[(i, i)] += 1.0 / self.cfg.gamma;
        }
        (b, c)
    }

    // ---- mirror helpers ----------------------------------------------

    fn drain_leading(&mut self, rows: usize) {
        self.zdata.drain(..rows * self.width);
        self.y.drain(..rows);
    }

    fn append_rows(&mut self, zk: &Matrix, yk: &[f64]) {
        for i in 0..zk.rows() {
            self.zdata.extend_from_slice(zk.row(i));
        }
        self.y.extend_from_slice(yk);
    }

    /// Raw (unstandardized) design matrix of the *slider* window.
    fn window_matrix_raw(&self) -> Matrix {
        let points: Vec<&AggregatedPoint> = self.slider.points().collect();
        let width = points
            .first()
            .map(|p| p.input_width(&self.cfg.aggregation))
            .unwrap_or(0);
        let mut x = Matrix::zeros(points.len(), width);
        for (i, p) in points.iter().enumerate() {
            p.write_into(&self.cfg.aggregation, x.row_mut(i));
        }
        x
    }

    /// Standardized design matrix of the *mirror* (the rows the factors
    /// reflect).
    fn window_matrix_std(&self) -> Matrix {
        Matrix::from_vec(self.y.len(), self.width, self.zdata.clone())
    }

    fn standardize_points(&self, std: &Standardizer, points: &[&AggregatedPoint]) -> Matrix {
        let mut z = Matrix::zeros(points.len(), self.width);
        for (i, p) in points.iter().enumerate() {
            let row = z.row_mut(i);
            p.write_into(&self.cfg.aggregation, row);
            std.transform_row(row);
        }
        z
    }
}

/// Lasso solver options for engine retrains: tighter than the default so
/// a warm and a cold solve each land within ~1e-8·‖β‖∞ of the shared
/// optimum — the default 1e-8 *relative* threshold would already allow
/// two converged solutions to sit ~2e-6 apart on RTTF-scale
/// coefficients, outside the warm-equals-cold contract.
fn lasso_solver_config() -> LassoSolverConfig {
    LassoSolverConfig {
        tol: 1e-10,
        ..LassoSolverConfig::default()
    }
}

/// Prepend a constant-1 intercept column.
fn augment(z: &Matrix) -> Matrix {
    let (n, p) = z.shape();
    let mut out = Matrix::zeros(n, p + 1);
    for i in 0..n {
        let row = out.row_mut(i);
        row[0] = 1.0;
        row[1..].copy_from_slice(z.row(i));
    }
    out
}

/// `AᵀA + λI` of an augmented design matrix.
fn ridge_gram(aug: &Matrix, lambda: f64) -> Matrix {
    let (n, p) = aug.shape();
    let mut g = Matrix::zeros(p, p);
    for i in 0..n {
        let row = aug.row(i);
        for a in 0..p {
            let va = row[a];
            let dst = g.row_mut(a);
            for (d, &vb) in dst.iter_mut().zip(row) {
                *d += va * vb;
            }
        }
    }
    for j in 0..p {
        g[(j, j)] += lambda;
    }
    g
}

/// `Aᵀy` of an augmented design matrix.
fn xty_of(aug: &Matrix, y: &[f64]) -> Vec<f64> {
    let mut xty = vec![0.0; aug.cols()];
    for (i, &yi) in y.iter().enumerate() {
        axpy_aug(&mut xty, yi, aug.row(i)[1..].as_ref());
    }
    xty
}

/// `xty += s · [1, row]` — the augmented-row axpy both maintenance and
/// rebuild share so their summation structure matches.
fn axpy_aug(xty: &mut [f64], s: f64, row: &[f64]) {
    xty[0] += s;
    for (d, &v) in xty[1..].iter_mut().zip(row) {
        *d += s * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_ml::Model;
    use f2pm_monitor::Datapoint;
    use proptest::prelude::*;

    fn synth_run(seed: u64, n: usize, fail: Option<f64>) -> RunData {
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let mut values = [0.0; 14];
            for (j, v) in values.iter_mut().enumerate() {
                // Per-column frequency and phase so the aggregated design
                // columns are genuinely independent — a collinear design
                // would make the lasso optimum non-unique and the warm/cold
                // comparison meaningless.
                let freq = 0.23 + 0.11 * j as f64;
                let phase = seed as f64 * 1.7 + j as f64 * 2.3;
                *v = (i as f64 * freq + phase).sin() * 40.0 + 120.0 + j as f64 * 3.0;
            }
            pts.push(Datapoint {
                t_gen: i as f64 * 1.2,
                values,
            });
        }
        RunData {
            datapoints: pts,
            fail_time: fail,
        }
    }

    fn quick_cfg(window_runs: usize) -> RetrainConfig {
        RetrainConfig {
            aggregation: AggregationConfig {
                window_s: 6.0,
                ..AggregationConfig::default()
            },
            // Larger than the production default: censored pushes can
            // leave a test window rank-deficient, where the deficient
            // directions' β is `xtyᵢ/λ` — a tiny λ would amplify benign
            // reassociation noise past the 1e-6 contract.
            ridge_lambda: 1e-3,
            ..RetrainConfig::new(window_runs)
        }
    }

    /// Warm and cold outcomes must agree to `tol` on every observable:
    /// LS-SVM predictions, ridge coefficients, lasso support + β.
    fn assert_outcomes_match(warm: &RetrainOutcome, cold: &RetrainOutcome, tol: f64, what: &str) {
        assert_eq!(warm.rows, cold.rows, "{what}: row counts differ");
        let probe: Vec<Vec<f64>> = (0..5)
            .map(|i| {
                (0..30)
                    .map(|j| ((i * 31 + j) as f64 * 0.13).sin() * 60.0 + 110.0)
                    .collect()
            })
            .collect();
        for row in &probe {
            let a = warm.model.predict_row(row);
            let b = cold.model.predict_row(row);
            assert!(
                (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
                "{what}: ls-svm prediction {a} vs {b}"
            );
            let ra = warm.ridge.predict_row(row);
            let rb = cold.ridge.predict_row(row);
            assert!(
                (ra - rb).abs() <= tol * (1.0 + ra.abs().max(rb.abs())),
                "{what}: ridge prediction {ra} vs {rb}"
            );
        }
        for (j, (a, b)) in warm.ridge.beta().iter().zip(cold.ridge.beta()).enumerate() {
            assert!(
                (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
                "{what}: ridge beta[{j}] {a} vs {b}"
            );
        }
        match (&warm.lasso, &cold.lasso) {
            (Some(w), Some(c)) => {
                // Coefficient-wise, not support-wise: a coefficient whose
                // true value sits at the selection boundary may be exactly
                // zero on one path and O(tol) on the other, which is the
                // same optimum to within the contract. Skipped when either
                // side hit the sweep cap — censored runs can leave the
                // window with fewer rows than columns, where the lasso
                // optimum is not unique and there is nothing to compare.
                if w.converged && c.converged {
                    for (j, (a, b)) in w.beta.iter().zip(&c.beta).enumerate() {
                        assert!(
                            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
                            "{what}: lasso beta[{j}] {a} vs {b}"
                        );
                    }
                }
            }
            (None, None) => {}
            _ => panic!("{what}: lasso presence differs"),
        }
    }

    #[test]
    fn first_retrain_is_cold_then_shifts_go_warm() {
        let mut eng = RetrainEngine::new(quick_cfg(3));
        for i in 0..3 {
            eng.push_run(&synth_run(i, 100, Some(106.0 + i as f64)));
        }
        let first = eng.retrain().expect("first retrain");
        assert_eq!(first.lssvm_path, FactorPath::Cold);
        assert_eq!(first.ridge_path, FactorPath::Cold);
        assert_eq!(first.rows, eng.window_rows());

        eng.push_run(&synth_run(9, 100, Some(107.5)));
        let shifted = eng.retrain().expect("warm retrain");
        assert_eq!(shifted.lssvm_path, FactorPath::Warm);
        assert_eq!(shifted.ridge_path, FactorPath::Warm);
        assert!(shifted.retired_rows > 0);
        assert!(shifted.appended_rows > 0);
        let cold = eng.retrain_cold().expect("cold reference");
        assert_outcomes_match(&shifted, &cold, 1e-6, "one-run shift");
    }

    #[test]
    fn append_only_shifts_stay_warm_and_match_cold() {
        // Window not full yet: every shift appends without retiring.
        let mut eng = RetrainEngine::new(quick_cfg(6));
        eng.push_run(&synth_run(0, 100, Some(106.0)));
        eng.push_run(&synth_run(1, 100, Some(105.0)));
        eng.retrain().expect("seed retrain");
        for i in 2..6 {
            eng.push_run(&synth_run(i, 95, Some(104.0 + i as f64)));
            let out = eng.retrain().expect("append-only retrain");
            assert_eq!(out.lssvm_path, FactorPath::Warm);
            assert_eq!(out.retired_rows, 0);
            let cold = eng.retrain_cold().expect("cold reference");
            assert_outcomes_match(&out, &cold, 1e-6, &format!("append {i}"));
        }
    }

    #[test]
    fn censored_run_causes_retire_only_shift() {
        // A censored run occupies a window slot but contributes no rows:
        // the shift retires the evicted run's rows and appends nothing.
        let mut eng = RetrainEngine::new(quick_cfg(3));
        for i in 0..3 {
            eng.push_run(&synth_run(i, 100, Some(106.0)));
        }
        eng.retrain().expect("seed retrain");
        eng.push_run(&synth_run(7, 100, None));
        let out = eng.retrain().expect("retire-only retrain");
        assert_eq!(out.lssvm_path, FactorPath::Warm);
        assert!(out.retired_rows > 0);
        assert_eq!(out.appended_rows, 0);
        let cold = eng.retrain_cold().expect("cold reference");
        assert_outcomes_match(&out, &cold, 1e-6, "retire-only");
    }

    #[test]
    fn unequal_shifts_stay_warm_and_match_cold() {
        // Runs differ in length, so the rows a shift retires and the rows
        // it appends rarely match: 7 out / 8 in, then 8 out / 6 in.
        // Five raw points per 6 s window, failing after the last one.
        let run = |seed: u64, rows: usize| synth_run(seed, rows * 5, Some(rows as f64 * 6.0 + 5.0));
        let mut eng = RetrainEngine::new(quick_cfg(4));
        for (seed, rows) in [7, 8, 40, 40].into_iter().enumerate() {
            eng.push_run(&run(seed as u64, rows));
        }
        eng.retrain().expect("seed retrain");
        for (seed, out, into) in [(4, 7, 8), (5, 8, 6)] {
            eng.push_run(&run(seed, into));
            let warm = eng.retrain().expect("unequal shift");
            assert_eq!((warm.retired_rows, warm.appended_rows), (out, into));
            assert_eq!(warm.lssvm_path, FactorPath::Warm);
            let cold = eng.retrain_cold().expect("cold reference");
            assert_outcomes_match(&warm, &cold, 1e-6, &format!("{out} out / {into} in"));
        }
    }

    #[test]
    fn whole_window_replacement_takes_the_cold_path() {
        let mut eng = RetrainEngine::new(quick_cfg(2));
        eng.push_run(&synth_run(0, 100, Some(106.0)));
        eng.push_run(&synth_run(1, 100, Some(105.0)));
        eng.retrain().expect("seed");
        // Push a full window's worth without retraining in between: the
        // next retrain replaces every applied row.
        eng.push_run(&synth_run(2, 100, Some(104.0)));
        eng.push_run(&synth_run(3, 100, Some(103.0)));
        let out = eng.retrain().expect("replacement retrain");
        assert_eq!(out.lssvm_path, FactorPath::Cold);
        let cold = eng.retrain_cold().expect("cold reference");
        assert_outcomes_match(&out, &cold, 1e-6, "replacement");
    }

    #[test]
    fn scheduled_refactor_resets_the_warm_streak() {
        let mut cfg = quick_cfg(3);
        cfg.refactor_every = 2;
        let mut eng = RetrainEngine::new(cfg);
        for i in 0..3 {
            eng.push_run(&synth_run(i, 95, Some(100.0)));
        }
        eng.retrain().expect("seed");
        let mut paths = Vec::new();
        for i in 3..9 {
            eng.push_run(&synth_run(i, 95, Some(100.0)));
            paths.push(eng.retrain().expect("shift").lssvm_path);
        }
        assert_eq!(
            paths,
            vec![
                FactorPath::Warm,
                FactorPath::Warm,
                FactorPath::Cold,
                FactorPath::Warm,
                FactorPath::Warm,
                FactorPath::Cold,
            ]
        );
    }

    #[test]
    fn ridge_downdate_guard_falls_back_and_still_matches_cold() {
        // An extreme-magnitude run dominates the ridge Gram; when it
        // retires, the hyperbolic downdate would shrink pivots by far
        // more than the guard allows, so the engine must refuse the
        // downdate (Fallback) and refactorize — and the fallback result
        // must still match the cold oracle.
        let mut cfg = quick_cfg(3);
        cfg.ridge_lambda = 1e-8;
        let mut eng = RetrainEngine::new(cfg);
        // Freeze the standardizer on a normal window first — the huge run
        // must arrive *after* the freeze, or standardization would scale
        // it back to O(1) and nothing would dominate.
        for i in 0..3 {
            eng.push_run(&synth_run(i, 100, Some(106.0)));
        }
        eng.retrain().expect("seed retrain");

        // The dominating run: raw values ~1e7 frozen standard deviations
        // out, so its Gram contribution dwarfs everything else's.
        let mut huge = synth_run(3, 100, Some(103.0));
        for p in &mut huge.datapoints {
            for v in &mut p.values {
                *v *= 3.0e8;
            }
        }
        eng.push_run(&huge);
        let mid = eng.retrain().expect("shift bringing the dominating run");
        assert_eq!(mid.ridge_path, FactorPath::Warm, "updates are guard-free");

        // Slide until the dominating run is the window head...
        eng.push_run(&synth_run(4, 100, Some(102.0)));
        eng.retrain().expect("shift");
        eng.push_run(&synth_run(5, 100, Some(101.0)));
        eng.retrain().expect("shift");

        // ...then evict it: retiring its rows trips the guard.
        eng.push_run(&synth_run(6, 100, Some(100.0)));
        let out = eng.retrain().expect("eviction retrain");
        assert_eq!(
            out.ridge_path,
            FactorPath::Fallback,
            "guard should have refused the downdate"
        );
        assert_eq!(out.lssvm_path, FactorPath::Warm);
        let cold = eng.retrain_cold().expect("cold reference");
        assert_outcomes_match(&out, &cold, 1e-6, "post-fallback");
    }

    #[test]
    fn retrain_without_enough_rows_errors() {
        let mut eng = RetrainEngine::new(quick_cfg(3));
        let err = eng.retrain().unwrap_err();
        assert_eq!(err.kind(), "not_enough_data");
        eng.push_run(&synth_run(0, 100, None));
        assert!(eng.retrain().is_err());
    }

    #[test]
    fn warm_lasso_spends_no_more_sweeps_than_cold() {
        let mut eng = RetrainEngine::new(quick_cfg(4));
        for i in 0..4 {
            eng.push_run(&synth_run(i, 100, Some(105.0)));
        }
        eng.retrain().expect("seed");
        eng.push_run(&synth_run(5, 100, Some(104.0)));
        let warm = eng.retrain().expect("warm");
        let cold = eng.retrain_cold().expect("cold");
        let (w, c) = (warm.lasso.unwrap(), cold.lasso.unwrap());
        assert!(
            w.sweeps <= c.sweeps,
            "warm lasso took {} sweeps, cold {}",
            w.sweeps,
            c.sweeps
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The equivalence contract: any mix of failing/censored pushes
        /// with retrains interleaved must keep warm == cold within 1e-6.
        #[test]
        fn prop_window_shift_sequences_keep_warm_equal_to_cold(
            seeds in proptest::collection::vec(0u64..1000, 4..9),
            censor_mask in proptest::collection::vec(0u64..2, 4..9),
            retrain_mask in proptest::collection::vec(0u64..2, 4..9),
        ) {
            let mut eng = RetrainEngine::new(quick_cfg(3));
            // Seed a full window so later pushes slide it.
            for i in 0..3 {
                eng.push_run(&synth_run(900 + i, 95, Some(101.0 + i as f64)));
            }
            eng.retrain().expect("seed retrain");
            for (i, &seed) in seeds.iter().enumerate() {
                let censored = censor_mask.get(i).copied().unwrap_or(0) == 1;
                let fail = if censored { None } else { Some(100.0 + seed as f64 % 7.0) };
                eng.push_run(&synth_run(seed, 90 + (seed % 13) as usize, fail));
                if retrain_mask.get(i).copied().unwrap_or(1) == 1 {
                    match (eng.retrain(), eng.retrain_cold()) {
                        (Ok(warm), Ok(cold)) =>
                            assert_outcomes_match(&warm, &cold, 1e-6, &format!("step {i}")),
                        (Err(a), Err(b)) => prop_assert_eq!(a.kind(), b.kind()),
                        (a, b) => panic!("warm/cold disagree on fallibility: {:?} vs {:?}",
                                         a.map(|o| o.rows), b.map(|o| o.rows)),
                    }
                }
            }
        }
    }
}
