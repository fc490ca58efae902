//! Model generation + validation harness (§III-D).
//!
//! Fits each method on a training set, times the fit, evaluates on a
//! validation set, times the evaluation, and produces the full §III-D
//! metric set per model — the data behind the paper's Tables II-IV and
//! Fig. 5.
//!
//! Independent fits fan out through [`f2pm_linalg::pool_map`]: a *bounded*
//! band of workers (at most [`f2pm_linalg::pool_threads`], never more than
//! there are tasks) pulls `(training-set variant × method)` cells from a
//! shared queue — the whole model-generation grid saturates the machine
//! without oversubscribing it, instead of spawning one thread per method
//! per variant. See [`evaluate_grid`].

use crate::metrics::{Metrics, SMaeThreshold};
use crate::regressor::{Model, Regressor};
use crate::MlError;
use f2pm_features::Dataset;

/// Everything F2PM reports about one generated model.
pub struct ModelReport {
    /// Method name (stable identifier).
    pub name: String,
    /// Validation metrics.
    pub metrics: Metrics,
    /// Wall-clock training time (s).
    pub train_time_s: f64,
    /// Wall-clock validation time, including metric computation (s).
    pub validation_time_s: f64,
    /// Per-sample predictions on the validation set (for Fig. 5 scatter).
    pub predictions: Vec<f64>,
    /// The fitted model, ready for online use.
    pub model: Box<dyn Model>,
}

impl std::fmt::Debug for ModelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelReport")
            .field("name", &self.name)
            .field("metrics", &self.metrics)
            .field("train_time_s", &self.train_time_s)
            .field("validation_time_s", &self.validation_time_s)
            .finish_non_exhaustive()
    }
}

/// Fit and validate a single method.
///
/// Both phases are stamped into the process-global `f2pm-obs` span
/// histograms (`stage="train:<method>"` / `stage="validate:<method>"`), so
/// a metrics scrape shows the per-method Table-3 timings alongside the
/// report's own `train_time_s`/`validation_time_s`.
pub fn evaluate_one(
    regressor: &dyn Regressor,
    train: &Dataset,
    valid: &Dataset,
    smae: SMaeThreshold,
) -> Result<ModelReport, MlError> {
    let name = regressor.name();
    let span = f2pm_obs::span!(&format!("train:{name}"));
    let model = regressor.fit(&train.x, &train.y)?;
    let train_time_s = span.stop();

    let span = f2pm_obs::span!(&format!("validate:{name}"));
    let predictions = model.predict_batch(&valid.x)?;
    let metrics = Metrics::compute(&predictions, &valid.y, smae);
    let validation_time_s = span.stop();

    Ok(ModelReport {
        name,
        metrics,
        train_time_s,
        validation_time_s,
        predictions,
        model,
    })
}

/// One training-set variant of a model-generation grid: a label plus the
/// train/validation pair every method in the suite is fit against.
pub struct GridVariant<'a> {
    /// Training set for this variant.
    pub train: &'a Dataset,
    /// Validation set for this variant.
    pub valid: &'a Dataset,
}

/// Fit and validate the whole `(variant × method)` grid in parallel.
///
/// All cells of the grid are flattened into one task list for
/// [`f2pm_linalg::pool_map`], so a grid of two variants × seven methods
/// runs as 14 independent tasks over `min(pool_threads, 14)` workers —
/// method-level *and* variant-level parallelism in a single fan-out.
///
/// Returns one `Vec` per variant, each in suite order with individual
/// failures reported in place.
pub fn evaluate_grid(
    suite: &[Box<dyn Regressor>],
    variants: &[GridVariant<'_>],
    smae: SMaeThreshold,
) -> Vec<Vec<Result<ModelReport, MlError>>> {
    let tasks: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|v| (0..suite.len()).map(move |m| (v, m)))
        .collect();
    // Model fits are heavyweight (whole solves), so unlike the linalg
    // kernels there is no minimum-size gate — one worker per core, capped
    // by the task count.
    let mut flat = f2pm_linalg::pool_map(&tasks, |&(v, m)| {
        let cell = &variants[v];
        evaluate_one(suite[m].as_ref(), cell.train, cell.valid, smae)
    })
    .into_iter();
    variants
        .iter()
        .map(|_| flat.by_ref().take(suite.len()).collect())
        .collect()
}

/// Fit and validate a whole method suite in parallel over the bounded
/// worker band (a one-variant [`evaluate_grid`]). Results come back in the
/// suite's order; individual failures are reported in place.
pub fn evaluate_all(
    suite: &[Box<dyn Regressor>],
    train: &Dataset,
    valid: &Dataset,
    smae: SMaeThreshold,
) -> Vec<Result<ModelReport, MlError>> {
    evaluate_grid(suite, &[GridVariant { train, valid }], smae)
        .pop()
        .expect("one variant")
}

/// Aggregate metrics over the folds of a cross-validation.
#[derive(Debug, Clone, Copy)]
pub struct CrossValidation {
    /// Mean S-MAE across folds.
    pub smae_mean: f64,
    /// Standard deviation of the per-fold S-MAE.
    pub smae_std: f64,
    /// Mean MAE across folds.
    pub mae_mean: f64,
    /// Mean RAE across folds.
    pub rae_mean: f64,
    /// Folds evaluated.
    pub folds: usize,
    /// Total training time across folds (s).
    pub total_train_time_s: f64,
}

/// k-fold cross-validation of one method: a sturdier estimate than a single
/// holdout when the campaign is small (the paper's incremental-accuracy
/// loop in §III-A wants exactly this signal).
pub fn cross_validate(
    regressor: &dyn Regressor,
    dataset: &Dataset,
    k: usize,
    seed: u64,
    smae: SMaeThreshold,
) -> Result<CrossValidation, MlError> {
    let mut smaes = Vec::with_capacity(k);
    let mut maes = Vec::with_capacity(k);
    let mut raes = Vec::with_capacity(k);
    let mut train_time = 0.0;
    for (train_idx, valid_idx) in dataset.k_fold(k, seed) {
        let train = dataset.select_rows(&train_idx);
        let valid = dataset.select_rows(&valid_idx);
        let rep = evaluate_one(regressor, &train, &valid, smae)?;
        smaes.push(rep.metrics.smae);
        maes.push(rep.metrics.mae);
        raes.push(rep.metrics.rae);
        train_time += rep.train_time_s;
    }
    let n = smaes.len() as f64;
    let smae_mean = smaes.iter().sum::<f64>() / n;
    let smae_std = (smaes
        .iter()
        .map(|s| (s - smae_mean) * (s - smae_mean))
        .sum::<f64>()
        / n)
        .sqrt();
    Ok(CrossValidation {
        smae_mean,
        smae_std,
        mae_mean: maes.iter().sum::<f64>() / n,
        rae_mean: raes.iter().sum::<f64>() / n,
        folds: smaes.len(),
        total_train_time_s: train_time,
    })
}

/// Render a set of reports as an aligned text table (the framework's
/// user-facing comparison, mirroring the paper's Table II layout).
pub fn format_report_table(reports: &[Result<ModelReport, MlError>]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<22} {:>12} {:>8} {:>12} {:>12} {:>10} {:>10}\n",
        "method", "S-MAE (s)", "RAE", "MAE (s)", "Max-AE (s)", "train (s)", "valid (s)"
    ));
    for r in reports {
        match r {
            Ok(rep) => s.push_str(&format!(
                "{:<22} {:>12.3} {:>8.3} {:>12.3} {:>12.3} {:>10.4} {:>10.4}\n",
                rep.name,
                rep.metrics.smae,
                rep.metrics.rae,
                rep.metrics.mae,
                rep.metrics.max_ae,
                rep.train_time_s,
                rep.validation_time_s
            )),
            Err(e) => s.push_str(&format!("{:<22} FAILED: {e}\n", "?")),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearRegression, M5Params, M5Prime, RepTree, RepTreeParams};
    use f2pm_linalg::Matrix;

    /// Piecewise-linear data resembling an RTTF trajectory.
    fn dataset(n: usize) -> Dataset {
        let mut x = Matrix::zeros(n, 3);
        let mut y = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64 * 2000.0;
            let swap = (t / 10.0).min(150.0);
            let cpu = 30.0 + (t / 50.0).sin() * 10.0;
            x.row_mut(i).copy_from_slice(&[t, swap, cpu]);
            y.push((2000.0 - t).max(0.0));
        }
        Dataset::new(vec!["t".into(), "swap".into(), "cpu".into()], x, y)
    }

    #[test]
    fn evaluate_one_produces_complete_report() {
        let ds = dataset(400);
        let (train, valid) = ds.split_holdout(0.75, 1);
        let rep = evaluate_one(
            &LinearRegression::new(),
            &train,
            &valid,
            SMaeThreshold::paper_default(),
        )
        .unwrap();
        assert_eq!(rep.name, "linear_regression");
        assert_eq!(rep.predictions.len(), valid.len());
        assert!(rep.train_time_s >= 0.0);
        assert!(rep.validation_time_s >= 0.0);
        assert!(rep.metrics.mae < 10.0, "RTTF here is exactly linear in t");
        // The returned model is usable online.
        let p = rep.model.predict_row(valid.x.row(0));
        assert!(p.is_finite());
    }

    #[test]
    fn evaluate_all_runs_suite_in_order() {
        let ds = dataset(300);
        let (train, valid) = ds.split_holdout(0.7, 2);
        let suite: Vec<Box<dyn Regressor>> = vec![
            Box::new(LinearRegression::new()),
            Box::new(RepTree::new(RepTreeParams::default())),
            Box::new(M5Prime::new(M5Params::default())),
        ];
        let reports = evaluate_all(&suite, &train, &valid, SMaeThreshold::paper_default());
        assert_eq!(reports.len(), 3);
        let names: Vec<String> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().name.clone())
            .collect();
        assert_eq!(names, vec!["linear_regression", "rep_tree", "m5p"]);
    }

    #[test]
    fn evaluate_grid_covers_variants_and_methods() {
        let ds = dataset(300);
        let (train, valid) = ds.split_holdout(0.7, 2);
        let narrow_train = train.select_named(&["t", "swap"]);
        let narrow_valid = valid.select_named(&["t", "swap"]);
        let suite: Vec<Box<dyn Regressor>> = vec![
            Box::new(LinearRegression::new()),
            Box::new(RepTree::new(RepTreeParams::default())),
        ];
        let grid = evaluate_grid(
            &suite,
            &[
                GridVariant {
                    train: &train,
                    valid: &valid,
                },
                GridVariant {
                    train: &narrow_train,
                    valid: &narrow_valid,
                },
            ],
            SMaeThreshold::paper_default(),
        );
        assert_eq!(grid.len(), 2);
        for variant in &grid {
            assert_eq!(variant.len(), 2);
            let names: Vec<&str> = variant
                .iter()
                .map(|r| r.as_ref().unwrap().name.as_str())
                .collect();
            assert_eq!(names, vec!["linear_regression", "rep_tree"]);
        }
        // The grid result must equal a per-variant evaluate_all run.
        let solo = evaluate_all(&suite, &train, &valid, SMaeThreshold::paper_default());
        for (g, s) in grid[0].iter().zip(&solo) {
            let (g, s) = (g.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(g.metrics.smae, s.metrics.smae);
            assert_eq!(g.predictions, s.predictions);
        }
        // Widths differ per variant — each cell trained on its own columns.
        assert_eq!(grid[0][0].as_ref().unwrap().model.width(), 3);
        assert_eq!(grid[1][0].as_ref().unwrap().model.width(), 2);
    }

    #[test]
    fn evaluate_grid_empty_inputs() {
        let ds = dataset(40);
        let (train, valid) = ds.split_holdout(0.7, 2);
        let suite: Vec<Box<dyn Regressor>> = vec![];
        let grid = evaluate_grid(
            &suite,
            &[GridVariant {
                train: &train,
                valid: &valid,
            }],
            SMaeThreshold::paper_default(),
        );
        assert_eq!(grid.len(), 1);
        assert!(grid[0].is_empty());
        assert!(evaluate_grid(&suite, &[], SMaeThreshold::paper_default()).is_empty());
    }

    #[test]
    fn failures_reported_in_place() {
        let empty = Dataset::new(vec!["a".into()], Matrix::zeros(0, 1), vec![]);
        let valid = dataset(10).select_named(&["t"]);
        let suite: Vec<Box<dyn Regressor>> = vec![Box::new(LinearRegression::new())];
        let reports = evaluate_all(&suite, &empty, &valid, SMaeThreshold::Absolute(0.0));
        assert!(matches!(reports[0], Err(MlError::EmptyTrainingSet)));
    }

    #[test]
    fn table_formatting_contains_rows() {
        let ds = dataset(200);
        let (train, valid) = ds.split_holdout(0.7, 3);
        let suite: Vec<Box<dyn Regressor>> = vec![Box::new(LinearRegression::new())];
        let reports = evaluate_all(&suite, &train, &valid, SMaeThreshold::paper_default());
        let table = format_report_table(&reports);
        assert!(table.contains("linear_regression"));
        assert!(table.contains("S-MAE"));
        let err: Vec<Result<ModelReport, MlError>> = vec![Err(MlError::EmptyTrainingSet)];
        assert!(format_report_table(&err).contains("FAILED"));
    }

    #[test]
    fn cross_validation_aggregates_folds() {
        let ds = dataset(300);
        let cv = cross_validate(
            &LinearRegression::new(),
            &ds,
            5,
            7,
            SMaeThreshold::paper_default(),
        )
        .unwrap();
        assert_eq!(cv.folds, 5);
        // The target is exactly linear in t — every fold should be accurate.
        assert!(cv.mae_mean < 5.0, "mae {}", cv.mae_mean);
        assert!(cv.rae_mean < 0.05, "rae {}", cv.rae_mean);
        assert!(cv.smae_std >= 0.0);
        assert!(cv.total_train_time_s >= 0.0);
    }

    #[test]
    fn cross_validation_is_deterministic() {
        let ds = dataset(150);
        let reg = RepTree::new(RepTreeParams::default());
        let a = cross_validate(&reg, &ds, 4, 42, SMaeThreshold::Absolute(0.0)).unwrap();
        let b = cross_validate(&reg, &ds, 4, 42, SMaeThreshold::Absolute(0.0)).unwrap();
        assert_eq!(a.smae_mean, b.smae_mean);
        assert_eq!(a.mae_mean, b.mae_mean);
    }

    #[test]
    fn paper_method_suite_builds_all_methods() {
        let suite = crate::paper_method_suite(&[1.0, 10.0]);
        let names: Vec<String> = suite.iter().map(|r| r.name()).collect();
        assert!(names.contains(&"linear_regression".to_string()));
        assert!(names.contains(&"m5p".to_string()));
        assert!(names.contains(&"rep_tree".to_string()));
        assert!(names.contains(&"svm".to_string()));
        assert!(names.contains(&"ls_svm".to_string()));
        assert!(names.contains(&"lasso_lambda_1e0".to_string()));
        assert_eq!(names.len(), 7);
    }
}
