//! The end-to-end F2PM workflow (the paper's Fig. 1).

use crate::config::F2pmConfig;
use crate::error::F2pmError;
use crate::report::{F2pmReport, StageTiming, VariantReport};
use f2pm_features::{aggregate_run, lasso_path, robust_outlier_filter, Dataset, RunTaggedDataset};
use f2pm_ml::{evaluate_grid, GridVariant};
use f2pm_monitor::DataHistory;
use f2pm_sim::Campaign;

/// Minimum labeled aggregated datapoints (exclusive) the workflow needs to
/// split into train/validation sets.
const MIN_DATAPOINTS: usize = 10;

/// Run the complete workflow against the simulated testbed: monitoring
/// campaign → aggregation → selection → model generation/validation.
pub fn run_workflow(cfg: &F2pmConfig, seed: u64) -> Result<F2pmReport, F2pmError> {
    // Phase 1: the monitoring campaign, timed like the stages downstream.
    let span = f2pm_obs::span!("campaign");
    let runs = Campaign::new(cfg.campaign.clone(), seed).run_all();
    let history = DataHistory::from_campaign(&runs);
    let campaign = StageTiming {
        stage: "campaign".into(),
        seconds: span.stop(),
    };
    let mut report = run_workflow_on_history(cfg, &history)?;
    report.stage_timings.insert(0, campaign);
    Ok(report)
}

/// Run the workflow phases downstream of monitoring on an existing data
/// history (e.g. one a recording serve instance received from real FMC
/// clients).
///
/// Returns [`F2pmError::NotEnoughData`] when the history aggregates to too
/// few labeled datapoints — serve/CLI layers surface this instead of
/// aborting.
pub fn run_workflow_on_history(
    cfg: &F2pmConfig,
    history: &DataHistory,
) -> Result<F2pmReport, F2pmError> {
    // Every stage is timed through the f2pm-obs span API: the duration
    // lands in the process-global `f2pm_stage_duration_us{stage=...}`
    // histogram (scrapeable via `f2pm stats`) *and* in the report's
    // `stage_timings`.
    let mut stage_timings = Vec::new();

    // Phase 2: aggregation + added metrics + RTTF labels, per run so the
    // optional run-aware split knows the provenance of every window. Runs
    // aggregate independently → order-preserving parallel map.
    let span = f2pm_obs::span!("aggregate");
    let failed: Vec<_> = history
        .runs()
        .into_iter()
        .filter(|r| r.fail_time.is_some())
        .collect();
    let per_run = f2pm_linalg::pool_map(&failed, |r| aggregate_run(r, &cfg.aggregation));
    let tagged = RunTaggedDataset::from_run_points_with(&per_run, &cfg.aggregation);
    let mut dataset = tagged.dataset.clone();
    let mut run_of_row = tagged.run_of_row.clone();

    // Optional data selection: drop outlier windows (monitoring glitches).
    if let Some(threshold) = cfg.outlier_threshold {
        let kept = robust_outlier_filter(&dataset.x, threshold);
        dataset = dataset.select_rows(&kept);
        run_of_row = kept.iter().map(|&i| run_of_row[i]).collect();
    }
    stage_timings.push(StageTiming {
        stage: "aggregate".into(),
        seconds: span.stop(),
    });
    let points = dataset.len();
    if points <= MIN_DATAPOINTS {
        return Err(F2pmError::NotEnoughData {
            points,
            needed: MIN_DATAPOINTS,
        });
    }

    let (train, valid) = if cfg.split_by_runs {
        split_by_runs(&dataset, &run_of_row, tagged.runs, cfg.train_fraction)
    } else {
        dataset.split_holdout(cfg.train_fraction, cfg.split_seed)
    };

    // Phase 3 (optional): lasso regularization path for feature selection.
    let selection = if cfg.lambda_grid.is_empty() {
        None
    } else {
        let span = f2pm_obs::span!("lasso_path");
        let sel = lasso_path(&train, &cfg.lambda_grid, &cfg.lasso_solver);
        stage_timings.push(StageTiming {
            stage: "lasso_path".into(),
            seconds: span.stop(),
        });
        Some(sel)
    };

    // Phase 4: model generation + validation. All training-set variants are
    // assembled first, then the whole (variant × method) grid fans out over
    // one bounded-worker scope — variant- and method-level parallelism in a
    // single pass instead of one sequential evaluate_all per variant.
    // The suite honors the config's optional method filter (validated by
    // the builder against `KNOWN_METHODS`).
    let span = f2pm_obs::span!("model_grid");
    let suite: Vec<_> = f2pm_ml::paper_method_suite(&cfg.lasso_predictor_lambdas)
        .into_iter()
        .filter(|r| cfg.method_enabled(&r.name()))
        .collect();
    if suite.is_empty() {
        return Err(F2pmError::InvalidConfig {
            what: "method filter removed every suite entry".into(),
        });
    }

    struct Pending {
        label: String,
        columns: Vec<String>,
        train: Dataset,
        valid: Dataset,
    }
    let mut pending = Vec::new();
    if let Some(sel) = &selection {
        if let Some(point) = sel.strongest_selection(cfg.min_selected_features) {
            let idx = point
                .selected_names
                .iter()
                .map(|n| {
                    dataset.column_index(n).ok_or_else(|| {
                        // A selection naming a column the dataset lost is an
                        // internal inconsistency; surface it instead of
                        // panicking inside the serve retraining loop.
                        F2pmError::InvalidConfig {
                            what: format!("lasso selected unknown column {n:?}"),
                        }
                    })
                })
                .collect::<Result<Vec<usize>, F2pmError>>()?;
            pending.push(Pending {
                label: format!(
                    "parameters selected by lasso (λ = {:.0e}, {} columns)",
                    point.lambda,
                    idx.len()
                ),
                columns: point.selected_names.clone(),
                train: train.select_columns(&idx),
                valid: valid.select_columns(&idx),
            });
        }
    }
    pending.insert(
        0,
        Pending {
            label: "all parameters".to_string(),
            columns: dataset.names.clone(),
            train,
            valid,
        },
    );

    let cells: Vec<GridVariant<'_>> = pending
        .iter()
        .map(|p| GridVariant {
            train: &p.train,
            valid: &p.valid,
        })
        .collect();
    let grid = evaluate_grid(&suite, &cells, cfg.smae);
    let variants = pending
        .into_iter()
        .zip(grid)
        .map(|(p, reports)| VariantReport {
            variant: p.label,
            columns: p.columns,
            reports,
        })
        .collect();
    stage_timings.push(StageTiming {
        stage: "model_grid".into(),
        seconds: span.stop(),
    });

    Ok(F2pmReport {
        aggregated_points: points,
        runs: history.fail_count(),
        selection,
        variants,
        stage_timings,
    })
}

/// Deterministic run-aware split: the last ⌈(1 − frac)·runs⌉ runs (by run
/// index) validate, earlier runs train — mimicking deployment, where the
/// model faces runs collected after its training data.
fn split_by_runs(
    dataset: &Dataset,
    run_of_row: &[usize],
    runs: usize,
    train_fraction: f64,
) -> (Dataset, Dataset) {
    let train_runs =
        ((runs as f64 * train_fraction).round() as usize).clamp(1, runs.saturating_sub(1).max(1));
    let mut train_rows = Vec::new();
    let mut valid_rows = Vec::new();
    for (row, &run) in run_of_row.iter().enumerate() {
        if run < train_runs {
            train_rows.push(row);
        } else {
            valid_rows.push(row);
        }
    }
    (
        dataset.select_rows(&train_rows),
        dataset.select_rows(&valid_rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workflow_end_to_end() {
        let cfg = F2pmConfig::quick();
        let report = run_workflow(&cfg, 7).unwrap();

        assert_eq!(report.runs, 4);
        assert!(report.aggregated_points > 50);
        assert!(report.selection.is_some());

        // Fig. 4 shape: monotone non-increasing λ → #selected.
        let series = report.selection.as_ref().unwrap().fig4_series();
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1, "lasso path not monotone: {series:?}");
        }

        // All-parameters variant ran the full suite (5 + 2 lasso rows).
        let all = report.all_parameters();
        assert_eq!(all.reports.len(), 7);
        let ok = all.ok_reports().count();
        assert!(ok >= 6, "only {ok}/7 methods succeeded");

        // The best model predicts substantially better than the naive mean
        // predictor (RAE < 1).
        let best = report.best_by_smae().expect("models exist");
        assert!(
            best.metrics.rae < 0.8,
            "best model RAE {} too close to the mean predictor",
            best.metrics.rae
        );
    }

    #[test]
    fn stage_timings_are_stamped_in_pipeline_order() {
        let cfg = F2pmConfig::quick();
        let report = run_workflow(&cfg, 7).unwrap();
        let stages: Vec<&str> = report
            .stage_timings
            .iter()
            .map(|t| t.stage.as_str())
            .collect();
        assert_eq!(
            stages,
            ["campaign", "aggregate", "lasso_path", "model_grid"]
        );
        for t in &report.stage_timings {
            assert!(
                t.seconds.is_finite() && t.seconds >= 0.0,
                "{}: {}",
                t.stage,
                t.seconds
            );
        }
        // The same durations landed in the process-global span histogram.
        for stage in ["campaign", "model_grid"] {
            let snap = f2pm_obs::global()
                .histogram_snapshot_with(f2pm_obs::STAGE_DURATION_METRIC, "stage", stage)
                .expect("span recorded");
            assert!(snap.count >= 1, "{stage}");
        }
    }

    #[test]
    fn method_filter_restricts_the_suite() {
        let cfg = F2pmConfig::quick_builder()
            .methods(["m5p", "linear_regression"])
            .build()
            .unwrap();
        let report = run_workflow(&cfg, 7).unwrap();
        let all = report.all_parameters();
        assert_eq!(all.reports.len(), 2);
        assert!(all.by_name("m5p").is_some());
        assert!(all.by_name("linear_regression").is_some());
        assert!(all.by_name("svm").is_none());
    }

    #[test]
    fn lasso_filter_keeps_every_lambda_row() {
        let cfg = F2pmConfig::quick_builder()
            .methods(["lasso"])
            .build()
            .unwrap();
        let report = run_workflow(&cfg, 7).unwrap();
        let all = report.all_parameters();
        // quick() evaluates two predictor λ values.
        assert_eq!(all.reports.len(), 2);
        for r in all.ok_reports() {
            assert!(r.name.starts_with("lasso_lambda_"), "{}", r.name);
        }
    }

    #[test]
    fn selection_disabled_when_grid_empty() {
        let mut cfg = F2pmConfig::quick();
        cfg.lambda_grid.clear();
        let report = run_workflow(&cfg, 9).unwrap();
        assert!(report.selection.is_none());
        assert_eq!(report.variants.len(), 1);
    }

    #[test]
    fn empty_history_returns_not_enough_data_error() {
        let cfg = F2pmConfig::quick();
        let err = match run_workflow_on_history(&cfg, &DataHistory::new()) {
            Err(e) => e,
            Ok(_) => panic!("empty history must not produce a report"),
        };
        assert!(matches!(
            err,
            crate::error::F2pmError::NotEnoughData { points: 0, .. }
        ));
        assert!(err.to_string().contains("not enough labeled"));
    }

    #[test]
    fn extended_stddev_layout_flows_through_the_workflow() {
        let mut cfg = F2pmConfig::quick();
        cfg.aggregation.include_stddev = true;
        let report = run_workflow(&cfg, 23).unwrap();
        let all = report.all_parameters();
        assert_eq!(all.columns.len(), 44, "extended layout expected");
        assert!(all.columns.contains(&"swap_used_std".to_string()));
        let best = report.best_by_smae().expect("models");
        assert!(best.metrics.rae < 1.0);
    }

    #[test]
    fn run_aware_split_also_works_end_to_end() {
        let mut cfg = F2pmConfig::quick();
        cfg.split_by_runs = true;
        let report = run_workflow(&cfg, 13).unwrap();
        let best = report.best_by_smae().expect("models");
        // Cross-run generalization is harder than the row split, but the
        // model must still clearly beat the mean predictor.
        assert!(best.metrics.rae < 1.0, "RAE {}", best.metrics.rae);
    }

    #[test]
    fn outlier_filter_threshold_semantics() {
        // Run trajectories are explosive near the crash, so moderate
        // thresholds trim the tail; only an enormous one keeps everything
        // (that is why the config docs say "use large values").
        let cfg_plain = F2pmConfig::quick();
        let report_plain = run_workflow(&cfg_plain, 17).unwrap();
        let mut cfg_filtered = F2pmConfig::quick();
        cfg_filtered.outlier_threshold = Some(1e9);
        let report_filtered = run_workflow(&cfg_filtered, 17).unwrap();
        assert_eq!(
            report_filtered.aggregated_points,
            report_plain.aggregated_points
        );

        // Aggressive thresholds drop rows — checked against the filter
        // directly (the full workflow would rightly refuse to train on the
        // remnant).
        let runs = f2pm_sim::Campaign::new(cfg_plain.campaign.clone(), 17).run_all();
        let history = DataHistory::from_campaign(&runs);
        let per_run: Vec<_> = history
            .runs()
            .iter()
            .filter(|r| r.fail_time.is_some())
            .map(|r| aggregate_run(r, &cfg_plain.aggregation))
            .collect();
        let tagged = RunTaggedDataset::from_run_points(&per_run);
        let kept = robust_outlier_filter(&tagged.dataset.x, 3.0);
        assert!(
            kept.len() < tagged.dataset.len(),
            "threshold 3 should trim the explosive tail"
        );
    }
}
