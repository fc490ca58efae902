//! Workflow output: per-variant model reports and comparisons.

use f2pm_ml::{MlError, ModelReport};

/// Model reports for one training-set variant ("all parameters" or
/// "parameters selected by Lasso" — the two columns of Tables II-IV).
pub struct VariantReport {
    /// Variant label.
    pub variant: String,
    /// Column names of the training set this variant used.
    pub columns: Vec<String>,
    /// One report per method (failures kept in place).
    pub reports: Vec<Result<ModelReport, MlError>>,
}

impl VariantReport {
    /// Successful reports only.
    pub fn ok_reports(&self) -> impl Iterator<Item = &ModelReport> {
        self.reports.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The method with the lowest S-MAE (NaN metrics sort last instead of
    /// panicking — a degenerate model must not take down the report).
    pub fn best_by_smae(&self) -> Option<&ModelReport> {
        self.ok_reports()
            .min_by(|a, b| a.metrics.smae.total_cmp(&b.metrics.smae))
    }

    /// The method with the shortest training time.
    pub fn fastest_training(&self) -> Option<&ModelReport> {
        self.ok_reports()
            .min_by(|a, b| a.train_time_s.total_cmp(&b.train_time_s))
    }

    /// Find a report by method name.
    pub fn by_name(&self, name: &str) -> Option<&ModelReport> {
        self.ok_reports().find(|r| r.name == name)
    }
}

/// Wall time spent in one pipeline stage, stamped by the `f2pm-obs` span
/// API as the workflow runs (campaign → aggregate → lasso path → model
/// grid; a workflow over an existing history starts at aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (matches the `stage` label of the
    /// `f2pm_stage_duration_us` histogram).
    pub stage: String,
    /// Elapsed wall time in seconds.
    pub seconds: f64,
}

/// The full outcome of an F2PM workflow run.
pub struct F2pmReport {
    /// Aggregated datapoints that entered the pipeline.
    pub aggregated_points: usize,
    /// Runs (fail events) in the history.
    pub runs: usize,
    /// Lasso path (None when selection was disabled).
    pub selection: Option<f2pm_features::SelectionReport>,
    /// Reports per training-set variant; `[0]` is always "all parameters",
    /// `[1]` (when present) "selected by lasso".
    pub variants: Vec<VariantReport>,
    /// Per-stage wall times of this run, in pipeline order.
    pub stage_timings: Vec<StageTiming>,
}

impl F2pmReport {
    /// The "all parameters" variant.
    pub fn all_parameters(&self) -> &VariantReport {
        &self.variants[0]
    }

    /// The lasso-selected variant, when feature selection ran and kept
    /// enough features.
    pub fn selected_parameters(&self) -> Option<&VariantReport> {
        self.variants.get(1)
    }

    /// Overall best model by S-MAE across variants.
    pub fn best_by_smae(&self) -> Option<&ModelReport> {
        self.variants
            .iter()
            .filter_map(|v| v.best_by_smae())
            .min_by(|a, b| a.metrics.smae.total_cmp(&b.metrics.smae))
    }

    /// Render the full report as a Markdown document (tables per variant,
    /// lasso path, recommendation) — ready to drop into a lab notebook or
    /// CI artifact.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str("# F2PM workflow report\n\n");
        s.push_str(&format!(
            "- runs (fail events): **{}**\n- aggregated datapoints: **{}**\n",
            self.runs, self.aggregated_points
        ));
        if let Some(best) = self.best_by_smae() {
            s.push_str(&format!(
                "- recommended model: **{}** (S-MAE {:.1} s, RAE {:.3})\n",
                best.name, best.metrics.smae, best.metrics.rae
            ));
        }
        if !self.stage_timings.is_empty() {
            s.push_str("\n## Stage timings\n\n| stage | wall time (s) |\n|---|---|\n");
            for t in &self.stage_timings {
                s.push_str(&format!("| {} | {:.4} |\n", t.stage, t.seconds));
            }
        }
        if let Some(sel) = &self.selection {
            s.push_str("\n## Lasso regularization path (Fig. 4)\n\n");
            s.push_str("| λ | selected parameters |\n|---|---|\n");
            for (l, c) in sel.fig4_series() {
                s.push_str(&format!("| {l:.0e} | {c} |\n"));
            }
        }
        for v in &self.variants {
            s.push_str(&format!(
                "\n## {} ({} columns)\n\n",
                v.variant,
                v.columns.len()
            ));
            s.push_str(
                "| method | S-MAE (s) | RAE | MAE (s) | Max-AE (s) | train (s) | validate (s) |\n\
                 |---|---|---|---|---|---|---|\n",
            );
            for r in &v.reports {
                match r {
                    Ok(rep) => s.push_str(&format!(
                        "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.4} | {:.4} |\n",
                        rep.name,
                        rep.metrics.smae,
                        rep.metrics.rae,
                        rep.metrics.mae,
                        rep.metrics.max_ae,
                        rep.train_time_s,
                        rep.validation_time_s
                    )),
                    Err(e) => s.push_str(&format!("| (failed) | {e} | | | | | |\n")),
                }
            }
        }
        s
    }

    /// Human-readable summary of the whole run.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "F2PM workflow: {} runs, {} aggregated datapoints\n",
            self.runs, self.aggregated_points
        ));
        if !self.stage_timings.is_empty() {
            s.push_str("stages: ");
            for t in &self.stage_timings {
                s.push_str(&format!("{} {:.3}s  ", t.stage, t.seconds));
            }
            s.push('\n');
        }
        if let Some(sel) = &self.selection {
            s.push_str("lasso path (λ → #selected): ");
            for (l, c) in sel.fig4_series() {
                s.push_str(&format!("1e{:.0}→{} ", l.log10(), c));
            }
            s.push('\n');
        }
        for v in &self.variants {
            s.push_str(&format!(
                "\n=== {} ({} columns) ===\n",
                v.variant,
                v.columns.len()
            ));
            s.push_str(&f2pm_ml::validate::format_report_table(&v.reports));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_features::Dataset;
    use f2pm_linalg::Matrix;
    use f2pm_ml::{evaluate_all, LinearRegression, Regressor, SMaeThreshold};

    fn tiny_variant(label: &str) -> VariantReport {
        let mut x = Matrix::zeros(30, 1);
        let mut y = Vec::new();
        for i in 0..30 {
            x[(i, 0)] = i as f64;
            y.push(100.0 - 2.0 * i as f64);
        }
        let ds = Dataset::new(vec!["t".into()], x, y);
        let (train, valid) = ds.split_holdout(0.7, 1);
        let suite: Vec<Box<dyn Regressor>> = vec![Box::new(LinearRegression::new())];
        VariantReport {
            variant: label.to_string(),
            columns: vec!["t".into()],
            reports: evaluate_all(&suite, &train, &valid, SMaeThreshold::Absolute(0.0)),
        }
    }

    #[test]
    fn variant_lookups() {
        let v = tiny_variant("all");
        assert!(v.best_by_smae().is_some());
        assert!(v.fastest_training().is_some());
        assert!(v.by_name("linear_regression").is_some());
        assert!(v.by_name("nope").is_none());
    }

    #[test]
    fn report_summary_mentions_variants() {
        let rep = F2pmReport {
            aggregated_points: 123,
            runs: 4,
            selection: None,
            variants: vec![tiny_variant("all parameters"), tiny_variant("selected")],
            stage_timings: vec![StageTiming {
                stage: "aggregate".into(),
                seconds: 0.125,
            }],
        };
        let s = rep.summary();
        assert!(s.contains("123 aggregated"));
        assert!(s.contains("all parameters"));
        assert!(s.contains("selected"));
        assert!(s.contains("aggregate 0.125s"));
        assert!(rep.best_by_smae().is_some());
        assert!(rep.selected_parameters().is_some());
    }

    #[test]
    fn markdown_export_contains_tables_and_recommendation() {
        let rep = F2pmReport {
            aggregated_points: 99,
            runs: 3,
            selection: None,
            variants: vec![tiny_variant("all parameters")],
            stage_timings: vec![
                StageTiming {
                    stage: "aggregate".into(),
                    seconds: 0.2,
                },
                StageTiming {
                    stage: "model_grid".into(),
                    seconds: 1.5,
                },
            ],
        };
        let md = rep.to_markdown();
        assert!(md.starts_with("# F2PM workflow report"));
        assert!(md.contains("## Stage timings"));
        assert!(md.contains("| model_grid | 1.5000 |"));
        assert!(md.contains("recommended model: **linear_regression**"));
        assert!(md.contains("| method | S-MAE (s) |"));
        assert!(md.contains("| linear_regression |"));
        // Valid Markdown table rows: every data row has 8 pipes.
        for line in md.lines().filter(|l| l.starts_with("| linear")) {
            assert_eq!(line.matches('|').count(), 8, "{line}");
        }
    }
}
