//! Implementations of the paper's tables and figures.

use f2pm::{correlate_response_time, F2pmConfig};
use f2pm_features::{aggregate_history, lasso_path, Dataset, SelectionReport};
use f2pm_ml::{evaluate_all, MlError, ModelReport};
use f2pm_monitor::DataHistory;
use f2pm_sim::{Campaign, Run};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// CLI-level options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Master seed for the campaign and splits.
    pub seed: u64,
    /// Directory CSV outputs are written to.
    pub out_dir: PathBuf,
    /// Shrink the campaign for smoke runs (CI).
    pub quick: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seed: 0xf2b,
            out_dir: PathBuf::from("results"),
            quick: false,
        }
    }
}

/// Shared state across experiments: the monitoring campaign's data and the
/// lazily computed downstream artifacts, so `all` collects data once.
pub struct ExperimentContext {
    opts: ExperimentOptions,
    cfg: F2pmConfig,
    runs: Vec<Run>,
    history: DataHistory,
    prepared: Option<Prepared>,
}

/// Aggregation + split + selection + model evaluation, computed once.
struct Prepared {
    dataset: Dataset,
    valid_y: Vec<f64>,
    selection: SelectionReport,
    /// Reports per variant: `[0]` all parameters, `[1]` lasso-selected.
    all_reports: Vec<Result<ModelReport, MlError>>,
    sel_reports: Vec<Result<ModelReport, MlError>>,
    sel_columns: Vec<String>,
    sel_lambda: f64,
}

impl ExperimentContext {
    /// Run the monitoring campaign (the expensive shared step).
    pub fn new(opts: ExperimentOptions) -> Self {
        let mut cfg = if opts.quick {
            F2pmConfig::quick_builder()
        } else {
            F2pmConfig::builder().runs(12)
        }
        .build()
        .expect("valid config");
        // The experiments always evaluate the full λ grid like Table II.
        cfg.lasso_predictor_lambdas = cfg.lambda_grid.clone();
        eprintln!(
            "[campaign] {} runs, seed {} ({} mode)",
            cfg.campaign.runs,
            opts.seed,
            if opts.quick { "quick" } else { "paper" }
        );
        let campaign = Campaign::new(cfg.campaign.clone(), opts.seed);
        let runs = campaign.run_all();
        let history = DataHistory::from_campaign(&runs);
        eprintln!(
            "[campaign] {} datapoints, {} fail events",
            history.datapoint_count(),
            history.fail_count()
        );
        fs::create_dir_all(&opts.out_dir).expect("create output directory");
        ExperimentContext {
            opts,
            cfg,
            runs,
            history,
            prepared: None,
        }
    }

    /// The campaign configuration in use.
    pub fn config(&self) -> &F2pmConfig {
        &self.cfg
    }

    /// The collected runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    fn prepared(&mut self) -> &Prepared {
        if self.prepared.is_none() {
            let points = aggregate_history(&self.history, &self.cfg.aggregation);
            let dataset = Dataset::from_points(&points);
            eprintln!(
                "[pipeline] {} aggregated datapoints x {} columns",
                dataset.len(),
                dataset.width()
            );
            let (train, valid) =
                dataset.split_holdout(self.cfg.train_fraction, self.cfg.split_seed);
            let selection = lasso_path(&train, &self.cfg.lambda_grid, &self.cfg.lasso_solver);

            let suite = f2pm_ml::paper_method_suite(&self.cfg.lasso_predictor_lambdas);
            eprintln!(
                "[models] fitting {} methods on all parameters...",
                suite.len()
            );
            let all_reports = evaluate_all(&suite, &train, &valid, self.cfg.smae);

            let (sel_names, sel_lambda) = {
                let point = selection
                    .strongest_selection(self.cfg.min_selected_features)
                    .expect("selection kept features");
                (point.selected_names.clone(), point.lambda)
            };
            let idx: Vec<usize> = sel_names
                .iter()
                .map(|n| dataset.column_index(n).expect("column"))
                .collect();
            eprintln!(
                "[models] fitting {} methods on {} lasso-selected parameters (λ = {sel_lambda:.0e})...",
                suite.len(),
                idx.len(),
            );
            let sel_reports = evaluate_all(
                &suite,
                &train.select_columns(&idx),
                &valid.select_columns(&idx),
                self.cfg.smae,
            );

            self.prepared = Some(Prepared {
                valid_y: valid.y.clone(),
                selection,
                all_reports,
                sel_reports,
                sel_columns: sel_names,
                sel_lambda,
                dataset,
            });
        }
        self.prepared.as_ref().expect("just filled")
    }

    fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        let path = self.opts.out_dir.join(name);
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "{header}").unwrap();
        for r in rows {
            writeln!(f, "{r}").unwrap();
        }
        path
    }

    /// Fig. 3: response-time correlation on the first run.
    pub fn fig3(&mut self) {
        let corr = correlate_response_time(&self.runs[0]);
        println!("\n=== Fig. 3: Response Time Correlation ===");
        println!(
            "linear map: rt = {:.4} + {:.4} * intergen   (Pearson r = {:.3})",
            corr.intercept, corr.slope, corr.pearson_r
        );
        let n = corr.series.len();
        let show = |p: &f2pm::correlate::RtPoint| {
            println!(
                "  t={:7.1}s  gen={:5.3}s  rt={:5.3}s  correlated_rt={:5.3}s",
                p.t, p.generation_time, p.response_time, p.correlated_rt
            );
        };
        for p in corr.series.iter().take(3) {
            show(p);
        }
        println!("  ...");
        for p in corr.series[n - 3..].iter() {
            show(p);
        }
        let rows: Vec<String> = corr
            .series
            .iter()
            .map(|p| {
                format!(
                    "{},{},{},{}",
                    p.t, p.generation_time, p.response_time, p.correlated_rt
                )
            })
            .collect();
        let path = self.write_csv(
            "fig3_rt_correlation.csv",
            "t_s,generation_time_s,response_time_s,correlated_rt_s",
            &rows,
        );
        println!("wrote {}", path.display());
    }

    /// Fig. 4: number of parameters selected by lasso vs λ.
    pub fn fig4(&mut self) {
        let series = self.prepared().selection.fig4_series();
        println!("\n=== Fig. 4: Parameters selected by Lasso ===");
        println!("{:>12}  {:>18}", "lambda", "selected params");
        for (l, c) in &series {
            println!("{l:>12.0}  {c:>18}");
        }
        let rows: Vec<String> = series.iter().map(|(l, c)| format!("{l},{c}")).collect();
        let path = self.write_csv("fig4_lasso_path.csv", "lambda,selected", &rows);
        println!("wrote {}", path.display());
    }

    /// Table I: weights of the features surviving the strongest selection.
    pub fn table1(&mut self) {
        let (lambda, table) = {
            let p = self.prepared();
            let point = p
                .selection
                .strongest_selection(1)
                .expect("non-empty selection");
            (point.lambda, point.weight_table())
        };
        println!("\n=== Table I: Weights assigned at λ = {lambda:.0e} ===");
        println!("{:<24} {:>20}", "Parameter", "Weight");
        for (name, w) in &table {
            println!("{name:<24} {w:>20.12}");
        }
        let rows: Vec<String> = table.iter().map(|(n, w)| format!("{n},{w:e}")).collect();
        let path = self.write_csv("table1_weights.csv", "parameter,weight", &rows);
        println!("wrote {}", path.display());
    }

    fn metric_table(
        &mut self,
        title: &str,
        file: &str,
        column: &str,
        get: impl Fn(&ModelReport) -> f64,
    ) {
        let p = self.prepared();
        println!("\n=== {title} ===");
        println!(
            "{:<22} {:>22} {:>30}",
            "Algorithm",
            format!("{column} (all params)"),
            format!("{column} (lasso-selected, λ={:.0e})", p.sel_lambda)
        );
        let mut rows = Vec::new();
        for (a, s) in p.all_reports.iter().zip(&p.sel_reports) {
            match (a, s) {
                (Ok(ra), Ok(rs)) => {
                    println!("{:<22} {:>22.3} {:>30.3}", ra.name, get(ra), get(rs));
                    rows.push(format!("{},{},{}", ra.name, get(ra), get(rs)));
                }
                (Err(e), _) | (_, Err(e)) => {
                    println!("{:<22} FAILED: {e}", "?");
                }
            }
        }
        let path = self.write_csv(
            file,
            &format!("algorithm,{column}_all,{column}_selected"),
            &rows,
        );
        println!("wrote {}", path.display());
    }

    /// The column names of the lasso-selected training-set variant.
    pub fn selected_columns(&mut self) -> Vec<String> {
        self.prepared().sel_columns.clone()
    }

    /// Table II: S-MAE, all parameters vs lasso-selected.
    pub fn table2(&mut self) {
        let cols = self.selected_columns();
        println!("lasso-selected columns: {}", cols.join(", "));
        self.metric_table(
            "Table II: Soft Mean Absolute Error — 10% threshold (seconds)",
            "table2_smae.csv",
            "smae_s",
            |r| r.metrics.smae,
        );
    }

    /// Table III: training time, all parameters vs lasso-selected.
    pub fn table3(&mut self) {
        self.metric_table(
            "Table III: Training Time (seconds)",
            "table3_training_time.csv",
            "train_s",
            |r| r.train_time_s,
        );
    }

    /// Table IV: validation time, all parameters vs lasso-selected.
    pub fn table4(&mut self) {
        self.metric_table(
            "Table IV: Validation Time (seconds)",
            "table4_validation_time.csv",
            "valid_s",
            |r| r.validation_time_s,
        );
    }

    /// Fig. 5: predicted vs real RTTF scatter per method (all parameters).
    pub fn fig5(&mut self) {
        let (names, data): (Vec<String>, Vec<Vec<String>>) = {
            let p = self.prepared();
            let mut names = Vec::new();
            let mut data = Vec::new();
            for rep in p.all_reports.iter().filter_map(|r| r.as_ref().ok()) {
                names.push(rep.name.clone());
                data.push(
                    p.valid_y
                        .iter()
                        .zip(&rep.predictions)
                        .map(|(y, f)| format!("{y},{f}"))
                        .collect(),
                );
            }
            (names, data)
        };
        println!("\n=== Fig. 5: Fitted models (predicted vs real RTTF) ===");
        for (name, rows) in names.iter().zip(&data) {
            let file = format!("fig5_{name}.csv");
            let path = self.write_csv(&file, "rttf_s,predicted_rttf_s", rows);
            println!("{name:<22} {} points  -> {}", rows.len(), path.display());
        }
        // Near-failure accuracy summary (the paper's key qualitative read:
        // error is low when the actual RTTF is small).
        let p = self.prepared();
        println!("\nnear-failure accuracy (actual RTTF <= 600 s):");
        for rep in p.all_reports.iter().filter_map(|r| r.as_ref().ok()) {
            let mut close = Vec::new();
            let mut far = Vec::new();
            for (y, f) in p.valid_y.iter().zip(&rep.predictions) {
                let e = (f - y).abs();
                if *y <= 600.0 {
                    close.push(e);
                } else {
                    far.push(e);
                }
            }
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    f64::NAN
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            println!(
                "  {:<22} MAE(near) = {:8.2}s   MAE(far) = {:8.2}s",
                rep.name,
                mean(&close),
                mean(&far)
            );
        }
        let _ = &p.dataset; // keep the dataset alive in the struct
    }

    /// Write a gnuplot script that renders every figure from the CSVs
    /// (run `gnuplot results/plot_all.gp` after `experiments all`).
    pub fn write_gnuplot(&self) {
        let script = r#"# Renders the reproduced figures from the experiments CSVs.
# Usage: gnuplot plot_all.gp   (run inside the results/ directory)
set datafile separator ","
set terminal pngcairo size 900,600 font ",11"

# --- Fig. 3: response-time correlation -------------------------------
set output "fig3_rt_correlation.png"
set title "Fig. 3 - Response Time Correlation"
set xlabel "Execution Time (seconds)"
set ylabel "Seconds"
set key top left
plot "fig3_rt_correlation.csv" using 1:2 skip 1 with lines title "Generation time", \
     ""                        using 1:3 skip 1 with lines title "Response Time", \
     ""                        using 1:4 skip 1 with lines title "Correlated RT"

# --- Fig. 4: lasso path ----------------------------------------------
set output "fig4_lasso_path.png"
set title "Fig. 4 - Parameters selected by Lasso"
set xlabel "lambda"
set ylabel "Selected Parameters"
set logscale x
set key off
plot "fig4_lasso_path.csv" using 1:2 skip 1 with linespoints pt 7

# --- Fig. 5: predicted vs real RTTF per model ------------------------
unset logscale x
set key off
set xlabel "RTTF (seconds)"
set ylabel "Predicted RTTF (seconds)"
do for [m in "linear_regression m5p rep_tree svm ls_svm lasso_lambda_1e9"] {
    set output sprintf("fig5_%s.png", m)
    set title sprintf("Fig. 5 - %s", m)
    plot sprintf("fig5_%s.csv", m) using 1:2 skip 1 with points pt 7 ps 0.3, x with lines lw 2
}
"#;
        let path = self.opts.out_dir.join("plot_all.gp");
        fs::write(&path, script).expect("write gnuplot script");
        println!(
            "wrote {} (render with: gnuplot plot_all.gp)",
            path.display()
        );
    }

    /// Run everything on the shared campaign.
    pub fn all(&mut self) {
        self.fig3();
        self.fig4();
        self.table1();
        self.table2();
        self.table3();
        self.table4();
        self.fig5();
        self.write_gnuplot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick context writing into its own directory: tests run in
    /// parallel, and one test's cleanup must not delete another's output.
    fn quick_ctx(test: &str) -> ExperimentContext {
        ExperimentContext::new(ExperimentOptions {
            seed: 3,
            out_dir: std::env::temp_dir().join(format!("f2pm_exp_{}_{test}", std::process::id())),
            quick: true,
        })
    }

    #[test]
    fn all_experiments_run_and_write_csvs() {
        let mut ctx = quick_ctx("all");
        ctx.all();
        let dir = ctx.opts.out_dir.clone();
        for f in [
            "fig3_rt_correlation.csv",
            "fig4_lasso_path.csv",
            "table1_weights.csv",
            "table2_smae.csv",
            "table3_training_time.csv",
            "table4_validation_time.csv",
            "fig5_rep_tree.csv",
            "fig5_m5p.csv",
            "plot_all.gp",
        ] {
            let p = dir.join(f);
            assert!(p.exists(), "{f} missing");
            let content = fs::read_to_string(&p).unwrap();
            assert!(content.lines().count() > 2, "{f} nearly empty");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lasso_path_shape_matches_fig4() {
        let mut ctx = quick_ctx("fig4");
        let series = ctx.prepared().selection.fig4_series();
        // Monotone non-increasing, starts near the full width, ends small.
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert!(series[0].1 >= 10, "λ=1 should keep many params: {series:?}");
        fs::remove_dir_all(&ctx.opts.out_dir).ok();
    }
}
