//! Warm-start incremental retraining over a sliding run window.
//!
//! The knowledge-base loop (§III-A) retrains on "the last W failing
//! runs" every time a run completes and hands back one LS-SVM model.
//! Cold retraining repeats three super-linear costs on every shift even
//! though only one run changed: re-aggregating the whole window,
//! rebuilding the `n × n` LS-SVM kernel system, and refactoring it
//! (`O(n³)`). [`RetrainEngine`] keeps the expensive state *live* across
//! shifts and updates it by exactly the rows that entered and left:
//!
//! - **Aggregation** — a [`SlidingAggregator`] caches each run's
//!   aggregated points, so a shift aggregates only the new run.
//! - **LS-SVM factor** — the Cholesky factor of `A = K + I/γ` is
//!   maintained with [`Cholesky::shift_window`]: the evicted runs are
//!   always the *leading* rows in window order, so every shift — rows
//!   out and rows in equal or not, either of them zero — is one
//!   single-threaded sweep, inside the factor's own buffer, that slides
//!   the surviving rows up-left, folds the retired columns back in, and
//!   borders by the new run's kernel rows, the only kernel entries
//!   computed.
//! - **Dual** — the same sweep forward-solves the two interleaved
//!   right-hand sides `(1 | y)` as it goes
//!   ([`Cholesky::shift_window_forward`]), so the refresh only runs the
//!   backward pass ([`Cholesky::solve_multi_backward`]) plus
//!   [`eliminate_bias`]; a cold build solves with one two-RHS
//!   [`Cholesky::solve_multi`]. The model is assembled via
//!   [`LsSvmModel::from_parts`] — bit-compatible with what a cold
//!   [`LsSvmRegressor::fit_prestandardized`] produces, within rounding.
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
use std::time::Instant;

use crate::error::F2pmError;
use f2pm_features::{AggregatedPoint, AggregationConfig, SlidingAggregator, WindowShift};
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
    /// A warm shift was attempted but refused (a non-positive-definite
    /// or non-finite border), so the factor was rebuilt from scratch. The
    /// *result* is identical to [`Cold`] (`Cold` = [`FactorPath::Cold`]);
    /// the flag exists so callers can count how often a shift is refused.
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
            refactor_every: 64,
        }
    }
}

/// What one [`RetrainEngine::retrain`] produced.
#[derive(Debug, Clone)]
pub struct RetrainOutcome {
    /// The refreshed LS-SVM model.
    pub model: LsSvmModel,
    /// How the LS-SVM kernel factor was obtained.
    pub lssvm_path: FactorPath,
    /// Labeled rows in the trained window.
    pub rows: usize,
    /// Leading rows retired by this retrain.
    pub retired_rows: usize,
    /// Trailing rows appended by this retrain.
    pub appended_rows: usize,
    /// Seconds spent moving the maintained state by the window shift:
    /// for a warm shift the kernel border and the factor sweep, with the
    /// dual's forward solve fused in; for a cold retrain only the mirror
    /// (its factor build is part of `dual_s`).
    pub shift_s: f64,
    /// Seconds spent solving the dual off the factor and eliminating the
    /// bias: the backward pass after a warm shift, else also the factor
    /// build and the forward pass.
    pub dual_s: f64,
}

/// Warm-start incremental retraining engine (see module docs).
#[derive(Debug, Clone)]
pub struct RetrainEngine {
    cfg: RetrainConfig,
    slider: SlidingAggregator,
    /// Frozen at the first retrain; never refitted (see module docs).
    standardizer: Option<Standardizer>,
    /// Standardized window rows in window order, row-major, mirroring the
    /// rows the maintained factor was built from.
    zdata: Vec<f64>,
    /// Labels matching `zdata` rows.
    y: Vec<f64>,
    /// Input width (columns of `zdata`).
    width: usize,
    /// Runs reflected in `zdata`: `(run_id, rows)` in window order.
    applied: VecDeque<(u64, usize)>,
    /// Maintained factor of the LS-SVM block `A = K + I/γ` over `zdata`;
    /// `None` until built, or after a refused shift or a failed build.
    factor: Option<Cholesky>,
    /// Warm retrains since the last cold build (scheduled-refactor clock).
    warm_streak: usize,
}

impl RetrainEngine {
    /// Create an empty engine.
    ///
    /// # Panics
    /// Panics when `window_runs` is 0 or γ is not positive.
    pub fn new(cfg: RetrainConfig) -> Self {
        assert!(cfg.window_runs >= 1, "window must hold at least one run");
        assert!(cfg.gamma > 0.0, "LS-SVM gamma must be positive");
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

    /// Retrain on the current window, updating the maintained factor in
    /// place where it can. Errors with [`F2pmError::NotEnoughData`] until
    /// the window holds at least two labeled rows, and with the solver's
    /// error when the window's system cannot be factored (e.g. a run with
    /// non-finite values); either way the engine stays consistent with
    /// the window, and a later retrain recovers once the offending run
    /// has left it.
    pub fn retrain(&mut self) -> Result<RetrainOutcome, F2pmError> {
        let rows = self.slider.len_points();
        if rows < 2 {
            return Err(F2pmError::NotEnoughData {
                points: rows,
                needed: 2,
            });
        }

        // Diff the slider window against the rows the factor reflects.
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

        let zk = self.standardize_points(&std, &appended);
        let yk: Vec<f64> = appended
            .iter()
            .map(|p| p.rttf.expect("cached points are labeled"))
            .collect();

        let shift_started = Instant::now();
        let (lssvm_path, forward) = if warm_viable {
            self.lssvm_shift_warm(retired_rows, &zk, &yk)
        } else {
            // Cold: move the mirror wholesale; assemble() builds the
            // factor once the window bookkeeping below has moved too, so a
            // failed build cannot leave the two out of step.
            self.drain_leading(retired_rows);
            self.append_rows(&zk, &yk);
            self.factor = None;
            (FactorPath::Cold, None)
        };
        if lssvm_path == FactorPath::Warm {
            self.warm_streak += 1;
        } else {
            self.warm_streak = 0;
        }

        self.applied = window.into();
        debug_assert_eq!(self.y.len(), rows);

        let shift_s = shift_started.elapsed().as_secs_f64();
        self.assemble(
            &std,
            lssvm_path,
            forward,
            retired_rows,
            appended_rows,
            shift_s,
        )
    }

    /// Cold-reference retrain: rebuild the model for the current window
    /// from scratch, through the same public entry point an offline fit
    /// would use ([`LsSvmRegressor::fit_prestandardized`]). Does not touch
    /// any engine state — this is the oracle the warm path is tested
    /// against.
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
        let model = reg.fit_prestandardized(std, &z, &y)?;

        Ok(RetrainOutcome {
            model,
            lssvm_path: FactorPath::Cold,
            rows: y.len(),
            retired_rows: 0,
            appended_rows: 0,
            shift_s: 0.0,
            dual_s: 0.0,
        })
    }

    // ---- warm update stages ------------------------------------------

    /// LS-SVM kernel factor: retire the leading rows and border by the
    /// new run's kernel rows — the only kernel entries computed — in one
    /// shift of whatever shape the window moved by. The shift's sweep also
    /// forward-solves the dual's `(1 | y)`, returned with a warm path.
    fn lssvm_shift_warm(
        &mut self,
        retired_rows: usize,
        zk: &Matrix,
        yk: &[f64],
    ) -> (FactorPath, Option<Matrix>) {
        self.drain_leading(retired_rows);
        let (b, c) = self.kernel_border(zk);
        self.append_rows(zk, yk);
        let mut forward = self.dual_rhs();
        let attempt = self
            .factor
            .as_mut()
            .expect("warm path has factors")
            .shift_window_forward(retired_rows, &b, &c, &mut forward);

        match attempt {
            Ok(()) => (FactorPath::Warm, Some(forward)),
            Err(_) => {
                self.factor = None;
                (FactorPath::Fallback, None)
            }
        }
    }

    // ---- shared assembly ---------------------------------------------

    /// Solve the model off the (possibly rebuilt) factor and package the
    /// outcome. A factor that a cold retrain or a fallback left unbuilt is
    /// built here, after the mirror reached its final state. `forward` is
    /// a warm shift's forward-solved `(1 | y)`.
    fn assemble(
        &mut self,
        std: &Standardizer,
        lssvm_path: FactorPath,
        forward: Option<Matrix>,
        retired_rows: usize,
        appended_rows: usize,
        shift_s: f64,
    ) -> Result<RetrainOutcome, F2pmError> {
        let n = self.y.len();
        let dual_started = Instant::now();
        if self.factor.is_none() {
            self.factor = Some(self.lssvm_factor_cold()?);
        }
        let factor = self.factor.as_ref().expect("built above");

        // Dual refresh: one interleaved two-RHS solve (1 | y), whose
        // forward half a warm shift already did in its sweep.
        let sol = match forward {
            Some(mut z) => {
                factor.solve_multi_backward(&mut z)?;
                z
            }
            None => factor.solve_multi(&self.dual_rhs())?,
        };
        let s: Vec<f64> = (0..n).map(|i| sol[(i, 0)]).collect();
        let zvec: Vec<f64> = (0..n).map(|i| sol[(i, 1)]).collect();
        let (alpha, bias) = eliminate_bias(&s, &zvec)?;
        let dual_s = dual_started.elapsed().as_secs_f64();
        let model = LsSvmModel::from_parts(
            self.cfg.kernel,
            std.clone(),
            self.window_matrix_std(),
            alpha,
            bias,
        );

        Ok(RetrainOutcome {
            model,
            lssvm_path,
            rows: n,
            retired_rows,
            appended_rows,
            shift_s,
            dual_s,
        })
    }

    /// The dual's two right-hand sides `(1 | y)`, interleaved.
    fn dual_rhs(&self) -> Matrix {
        let mut rhs = Matrix::zeros(self.y.len(), 2);
        for (row, &y) in rhs.as_mut_slice().chunks_exact_mut(2).zip(&self.y) {
            row[0] = 1.0;
            row[1] = y;
        }
        rhs
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

    /// Standardized design matrix of the *mirror* (the rows the factor
    /// reflects).
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
                // columns are genuinely independent.
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
            ..RetrainConfig::new(window_runs)
        }
    }

    /// Warm and cold outcomes must agree to `tol` on the LS-SVM's
    /// predictions.
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
        assert_eq!(first.rows, eng.window_rows());

        eng.push_run(&synth_run(9, 100, Some(107.5)));
        let shifted = eng.retrain().expect("warm retrain");
        assert_eq!(shifted.lssvm_path, FactorPath::Warm);
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
    fn retrain_without_enough_rows_errors() {
        let mut eng = RetrainEngine::new(quick_cfg(3));
        let err = eng.retrain().unwrap_err();
        assert_eq!(err.kind(), "not_enough_data");
        eng.push_run(&synth_run(0, 100, None));
        assert!(eng.retrain().is_err());
    }

    #[test]
    fn failed_retrain_recovers_once_the_corrupt_run_leaves() {
        // A run with one NaN value poisons every retrain while it is in
        // the window: the warm shift refuses the non-finite border
        // (Fallback), the cold rebuild fails, and so do the cold retrains
        // after it. Once the run has left, the engine must train on
        // exactly the window's rows again and match the cold oracle.
        let mut eng = RetrainEngine::new(quick_cfg(3));
        for i in 0..3 {
            eng.push_run(&synth_run(i, 100, Some(106.0 + i as f64)));
        }
        eng.retrain().expect("seed retrain");

        let mut bad = synth_run(3, 100, Some(104.0));
        bad.datapoints[40].values[2] = f64::NAN;
        eng.push_run(&bad);
        assert!(
            eng.retrain().is_err(),
            "retrain with the NaN run in the window"
        );
        for i in 4..6 {
            eng.push_run(&synth_run(i, 100, Some(103.0)));
            assert!(
                eng.retrain().is_err(),
                "NaN run still in the window at run {i}"
            );
        }

        eng.push_run(&synth_run(6, 100, Some(102.0)));
        let out = eng.retrain().expect("retrain after the NaN run left");
        assert_eq!(out.rows, eng.window_rows());
        let cold = eng.retrain_cold().expect("cold reference");
        assert_outcomes_match(&out, &cold, 1e-6, "after the NaN run left");

        // And the engine keeps shifting warm from there.
        eng.push_run(&synth_run(7, 100, Some(101.0)));
        let next = eng.retrain().expect("shift after recovery");
        assert_eq!(next.lssvm_path, FactorPath::Warm);
        assert_eq!(next.rows, eng.window_rows());
        let cold = eng.retrain_cold().expect("cold reference");
        assert_outcomes_match(&next, &cold, 1e-6, "shift after recovery");
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
