//! `build`: the paper's model-building pipeline (Tables III/IV).
//!
//! Set-up simulates a seeded monitoring campaign and keeps its first runs
//! up to [`TARGET_ROWS`] aggregated rows (about 40 runs; 5k rows train),
//! so every seed builds at nearly the same n. The timed phase repeats
//! `run_workflow_on_history` — aggregate → lasso path → 8-row method grid
//! over both variants → validate — after one untimed warm-up pass. At
//! this n the LS-SVM solve takes its CG branch and SVR shrinking is on,
//! the sizes where deleting either branch must not regress.
//!
//! Traced runs time the same `run_workflow_on_history` passes, with the
//! stage timings the workflow reports recorded as child spans of each
//! pass. After the timed phase they replay each suite row's fit and
//! validation sequentially, and the LS-SVM system solve (blocked Cholesky
//! and CG) at the build's n.

use crate::report::{Report, TraceData};
use crate::stats::{interpolated, median, rank_or_zero};
use crate::trace::{self_times, Tracer};
use crate::{repeated_setup, Ctx};
use f2pm::{F2pmConfig, F2pmReport};
use f2pm_features::{aggregate_run, Dataset, RunTaggedDataset};
use f2pm_linalg::{conjugate_gradient, CgOptions, Cholesky, Standardizer};
use f2pm_ml::{Kernel, Metrics};
use f2pm_monitor::DataHistory;
use f2pm_sim::Campaign;
use std::time::{Duration, Instant};

/// Passes timed at least, however long they take.
const MIN_PASSES: usize = 3;

/// Aggregated rows the campaign is cut to (whole runs, at least this
/// many).
pub const TARGET_ROWS: usize = 7_000;

/// Runs simulated to draw the cut from.
const CAMPAIGN_RUNS: usize = 48;

/// LS-SVM regularization of the suite row (`K + I/γ`).
const LSSVM_GAMMA: f64 = 10.0;

/// The workload's pipeline configuration: the paper defaults with three
/// lasso-predictor rows (an 8-row suite).
pub fn config(smoke: bool) -> F2pmConfig {
    let mut cfg = F2pmConfig::default();
    cfg.campaign.runs = if smoke {
        CAMPAIGN_RUNS / 8
    } else {
        CAMPAIGN_RUNS
    };
    cfg.lasso_predictor_lambdas = vec![1e0, 1e3, 1e9];
    cfg
}

/// The seeded campaign's first runs reaching `target` aggregated rows.
pub fn campaign_history(cfg: &F2pmConfig, seed: u64, target: usize) -> DataHistory {
    let runs = Campaign::new(cfg.campaign.clone(), seed).run_all();
    let mut rows = 0;
    let mut keep = 0;
    for run in DataHistory::from_campaign(&runs).runs() {
        if rows >= target {
            break;
        }
        rows += aggregate_run(&run, &cfg.aggregation)
            .iter()
            .filter(|p| p.rttf.is_some())
            .count();
        keep += 1;
    }
    DataHistory::from_campaign(&runs[..keep])
}

/// `(best row name, best S-MAE bits)` of a report.
fn best(report: &F2pmReport) -> Option<(String, u64)> {
    report
        .best_by_smae()
        .map(|b| (b.name.clone(), b.metrics.smae.to_bits()))
}

/// Record the stage timings of a pass that ran from `start` to `end` as
/// spans under the open pass span. The workflow times its stages itself;
/// only their placement is inferred from the pipeline order: aggregation
/// from the start, the lasso path right after it, the model grid up to
/// the end.
fn record_stages(tr: &mut Tracer, start: Instant, end: Instant, report: &F2pmReport, pass: u64) {
    let took = |stage: &str| {
        let s = report
            .stage_timings
            .iter()
            .find(|t| t.stage == stage)
            .map_or(0.0, |t| t.seconds);
        Duration::from_secs_f64(s)
    };
    let aggregated = start + took("aggregate");
    tr.record("features.aggregate", start, aggregated, pass);
    tr.record(
        "features.lasso_path",
        aggregated,
        aggregated + took("lasso_path"),
        pass,
    );
    let grid_start = end.checked_sub(took("model_grid")).unwrap_or(start);
    tr.record("core.model_grid", grid_start, end, pass);
}

/// The training and validation sets the workflow builds from `history`
/// under [`config`] (no outlier filter, row-wise holdout).
fn split(cfg: &F2pmConfig, history: &DataHistory) -> (Dataset, Dataset) {
    let per_run: Vec<_> = history
        .runs()
        .iter()
        .filter(|r| r.fail_time.is_some())
        .map(|r| aggregate_run(r, &cfg.aggregation))
        .collect();
    RunTaggedDataset::from_run_points_with(&per_run, &cfg.aggregation)
        .dataset
        .split_holdout(cfg.train_fraction, cfg.split_seed)
}

/// Fit and validate every suite row once, sequentially, and solve the
/// LS-SVM system at the training set's n both ways.
fn replay_rows(
    cfg: &F2pmConfig,
    train: &Dataset,
    valid: &Dataset,
    tr: &mut Tracer,
    report: &mut Report,
) {
    for method in f2pm_ml::paper_method_suite(&cfg.lasso_predictor_lambdas) {
        let name = method.name();
        let t = Instant::now();
        let fitted = tr.span(&format!("ml.fit.{name}"), 0, |_| {
            method.fit(&train.x, &train.y)
        });
        let fit_s = t.elapsed().as_secs_f64();
        let Ok(model) = fitted else {
            report.problem(format!("replayed fit of {name} failed"));
            continue;
        };
        let t = Instant::now();
        let validated = tr.span(&format!("ml.validate.{name}"), 0, |_| {
            model
                .predict_batch(&valid.x)
                .map(|p| Metrics::compute(&p, &valid.y, cfg.smae))
        });
        let validate_s = t.elapsed().as_secs_f64();
        report.check(validated.is_ok(), || {
            format!("replayed validation of {name} failed")
        });
        report.layer(&format!("ml.fit_s.{name}"), fit_s);
        report.layer(&format!("ml.validate_s.{name}"), validate_s);
    }

    let z = Standardizer::fit(&train.x).transform(&train.x);
    let mut a = Kernel::Linear.matrix(&z);
    let n = a.rows();
    for i in 0..n {
        a[(i, i)] += 1.0 / LSSVM_GAMMA;
    }
    let ones = vec![1.0; n];
    let t = Instant::now();
    let cholesky = tr.span("linalg.cholesky_solve", 0, |_| {
        Cholesky::factor(&a).and_then(|c| Ok((c.solve(&ones)?, c.solve(&train.y)?)))
    });
    report.layer("linalg.cholesky_solve_s", t.elapsed().as_secs_f64());
    let opts = CgOptions {
        max_iter: Some(20 * n),
        tol: 1e-8,
    };
    let t = Instant::now();
    let cg = tr.span("linalg.cg_solve", 0, |_| {
        conjugate_gradient(&a, &ones, opts).and_then(|_| conjugate_gradient(&a, &train.y, opts))
    });
    report.layer("linalg.cg_solve_s", t.elapsed().as_secs_f64());
    report.check(cholesky.is_ok() && cg.is_ok(), || {
        "LS-SVM system solve failed".to_string()
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("build");
    let cfg = config(ctx.smoke);
    let (history, setup_s) = repeated_setup(
        || campaign_history(&cfg, ctx.seed, ctx.pick(TARGET_ROWS, TARGET_ROWS / 10)),
        drop,
    );
    report.e2e_metric("setup_s", setup_s);

    // Untimed warm-up; its best row is the reference every pass must
    // reproduce bit for bit.
    let reference = match f2pm::run_workflow_on_history(&cfg, &history) {
        Ok(r) => r,
        Err(e) => {
            report.problem(format!("workflow failed: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    let expected = best(&reference);
    let rows = reference.aggregated_points as f64;
    let n_train = reference
        .all_parameters()
        .ok_reports()
        .next()
        .map_or(0, |r| reference.aggregated_points - r.predictions.len());
    report.detail("aggregated_rows", reference.aggregated_points.to_string());
    report.detail("train_rows", n_train.to_string());
    if !ctx.smoke {
        report.check(n_train > 4000, || {
            format!("{n_train} training rows: the build must sit above the n = 4000 solver switch")
        });
    }
    let suite_rows = reference
        .variants
        .iter()
        .map(|v| v.reports.len())
        .sum::<usize>();
    let ok_rows = reference
        .variants
        .iter()
        .map(|v| v.ok_reports().count())
        .sum::<usize>();
    report.check(ok_rows == suite_rows, || {
        format!("{ok_rows} of {suite_rows} suite rows succeeded")
    });

    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    let mut pass_s = Vec::new();
    let started = Instant::now();
    while pass_s.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let pass = pass_s.len() as u64 + 1;
        let t = Instant::now();
        let got = tracer.span("build.pass", pass, |tr| {
            let start = Instant::now();
            let r = f2pm::run_workflow_on_history(&cfg, &history).ok()?;
            record_stages(tr, start, Instant::now(), &r, pass);
            Some(best(&r))
        });
        pass_s.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        match got {
            Some(b) if b == expected => {}
            Some(b) => {
                report.failed += 1;
                report.problem(format!(
                    "pass {pass}: best row {b:?} differs from the warm-up's {expected:?}"
                ));
            }
            None => {
                report.failed += 1;
                report.problem(format!("pass {pass}: workflow failed"));
            }
        }
    }

    let p50 = median(&pass_s);
    report.e2e_metric("result_p50_ms", p50 * 1e3);
    report.e2e_metric("result_p90_ms", interpolated(&pass_s, 0.9) * 1e3);
    report.e2e_metric("rate_per_s", rows / p50);
    report.detail(
        "pass_ms",
        format!(
            "{:?}",
            pass_s.iter().map(|s| (s * 1e3).round()).collect::<Vec<_>>()
        ),
    );
    if let Some((_, smae_bits)) = &expected {
        let smae = f64::from_bits(*smae_bits);
        report.detail("best_smae_s", crate::report::json_num(smae));
        report.layer("ml.best_smae_s", smae);
    }

    if ctx.trace {
        let t = Instant::now();
        let runs = tracer.span("sim.campaign", 0, |_| {
            Campaign::new(cfg.campaign.clone(), ctx.seed).run_all()
        });
        report.layer("sim.campaign_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        tracer.span("monitor.history", 0, |_| DataHistory::from_campaign(&runs));
        report.layer("monitor.history_s", t.elapsed().as_secs_f64());
        let (train, valid) = split(&cfg, &history);
        report.check(train.len() == n_train, || {
            format!(
                "replay split has {} training rows, the workflow {n_train}",
                train.len()
            )
        });
        report.layer("features.rows_train", train.len() as f64);
        let selected = reference.variants.get(1).map_or(0, |v| v.columns.len());
        report.layer("features.selected_columns", selected as f64);
        replay_rows(&cfg, &train, &valid, &mut tracer, &mut report);

        let spans = tracer.spans();
        let per = |name: &str| {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .collect();
            rank_or_zero(&v, 0.5)
        };
        report.layer("features.aggregate_s", per("features.aggregate"));
        report.layer("features.lasso_path_s", per("features.lasso_path"));
        report.layer("core.model_grid_s", per("core.model_grid"));
        report.layer("ml.methods_ok", ok_rows as f64);
        let residual: Vec<f64> = spans
            .iter()
            .zip(self_times(spans))
            .filter(|(s, _)| s.name == "build.pass")
            .map(|(s, own)| own as f64 / s.duration_ns().max(1) as f64)
            .collect();
        let residual = median(&residual);
        report.layer("build.residual", residual);
        report.trace = Some(TraceData { tracer, residual });
    }
    report
}
