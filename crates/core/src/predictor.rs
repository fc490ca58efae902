//! Online RTTF prediction.
//!
//! Turns a trained model into a live estimator: raw datapoints stream in
//! (from an FMC, a `/proc` collector, or the simulator), the predictor
//! maintains the current aggregation window, and once a window closes it
//! emits an RTTF estimate — exactly the deployment mode the paper's
//! proactive-rejuvenation use case needs. Windows come from the same
//! [`WindowAggregator`] that [`f2pm_features::aggregate_run`] folds, so
//! every closed window's model inputs equal the training rows bit for bit.

use crate::F2pmError;
use f2pm_features::{AggregationConfig, WindowAggregator};
use f2pm_linalg::Matrix;
use f2pm_ml::Model;
use f2pm_monitor::Datapoint;

/// A live RTTF estimator around a trained [`Model`].
pub struct OnlinePredictor {
    model: Box<dyn Model>,
    /// Indices of the aggregated-input columns the model consumes (the
    /// model may have been trained on a lasso-selected subset).
    column_idx: Vec<usize>,
    /// The run's windows — the same aggregator training data comes from.
    windows: WindowAggregator,
    /// Latest estimate.
    last_estimate: Option<f64>,
    /// Reusable single-row scratch for the immediate [`OnlinePredictor::push`] path.
    row_scratch: Vec<f64>,
}

impl OnlinePredictor {
    /// Wrap a model.
    ///
    /// `column_names` are the model's input columns (in training order);
    /// they are resolved against the aggregated layout `agg` defines (the
    /// paper's 30 columns, or 44 with `include_stddev`).
    ///
    /// # Panics
    /// Panics if a column name is unknown or the count mismatches the
    /// model's width.
    pub fn new(model: Box<dyn Model>, column_names: &[String], agg: AggregationConfig) -> Self {
        let all = f2pm_features::aggregate::aggregated_column_names_with(&agg);
        let column_idx: Vec<usize> = column_names
            .iter()
            .map(|n| {
                all.iter()
                    .position(|a| a == n)
                    .unwrap_or_else(|| panic!("unknown aggregated column {n}"))
            })
            .collect();
        assert_eq!(
            column_idx.len(),
            model.width(),
            "model width vs column count mismatch"
        );
        OnlinePredictor {
            model,
            column_idx,
            windows: WindowAggregator::new(agg),
            last_estimate: None,
            row_scratch: Vec::new(),
        }
    }

    /// Model input width (number of aggregated columns consumed).
    pub fn width(&self) -> usize {
        self.column_idx.len()
    }

    /// Feed one datapoint. Returns a fresh RTTF estimate when a window
    /// closed with this point, `None` otherwise.
    ///
    /// This is the immediate path: the closing window is scored on the
    /// spot with `predict_row`. Batch consumers (the serve shard workers)
    /// use [`OnlinePredictor::push_deferred`] + [`predict_many`] instead,
    /// which produce bit-identical estimates (asserted by the
    /// `batch_equivalence` test suite) while amortizing one model call
    /// over every window that closed in a drain.
    pub fn push(&mut self, d: Datapoint) -> Option<f64> {
        let mut row = std::mem::take(&mut self.row_scratch);
        row.clear();
        let closed = self.push_deferred(d, &mut row);
        let out = if closed {
            // One window = one row, so this is the single-row path; the
            // kernel models standardize into stack scratch here (no
            // per-estimate allocation).
            let estimate = self.model.predict_row(&row).max(0.0);
            self.last_estimate = Some(estimate);
            Some(estimate)
        } else {
            None
        };
        self.row_scratch = row;
        out
    }

    /// Deferred-scoring variant of [`OnlinePredictor::push`]: folds the
    /// datapoint into the current window and, when it lands past the
    /// window's grid end and so closes it, appends the model-input row
    /// (`width()` values) to `rows` and returns `true` — *without*
    /// evaluating the model. The caller scores every deferred row of a
    /// batch in one [`predict_many`] call and hands the estimate back via
    /// [`OnlinePredictor::record_estimate`].
    pub fn push_deferred(&mut self, d: Datapoint, rows: &mut Vec<f64>) -> bool {
        let Some(point) = self.windows.push(d) else {
            return false;
        };
        // Stack scratch wide enough for either layout (30 columns, or 44
        // with `include_stddev`), so the input row needs no heap buffer.
        let agg = self.windows.config();
        let mut scratch = [0.0; 44];
        let inputs = &mut scratch[..point.input_width(agg)];
        point.write_into(agg, inputs);
        rows.extend(self.column_idx.iter().map(|&j| inputs[j]));
        true
    }

    /// Record an estimate produced externally for this predictor's most
    /// recently deferred row (see [`OnlinePredictor::push_deferred`]).
    pub fn record_estimate(&mut self, estimate: f64) {
        self.last_estimate = Some(estimate);
    }

    /// The most recent estimate, if any window has closed yet.
    pub fn last_estimate(&self) -> Option<f64> {
        self.last_estimate
    }

    /// Drop the open window and start a new run, anchored at the next
    /// datapoint (e.g. after a `Fail` or a rejuvenation restart).
    pub fn reset(&mut self) {
        self.windows.reset();
        self.last_estimate = None;
    }
}

/// Score a flat row-major batch of deferred window rows (from
/// [`OnlinePredictor::push_deferred`]) in **one** `Model::predict_batch`
/// call, clamping estimates at 0 exactly like [`OnlinePredictor::push`].
///
/// Estimates are appended to `out` in row order. The flat `rows` buffer is
/// moved through the matrix and handed back cleared, so a steady-state
/// caller allocates nothing per batch. Returns the number of rows scored.
///
/// Bit-for-bit equivalence with the per-row path is load-bearing: the
/// kernel models' `predict_batch` overrides are proven `==` to
/// `predict_row` (PR 1), and `batch_equivalence` asserts the same for this
/// entry point, so a serve shard may batch freely without changing a
/// single published estimate.
pub fn predict_many(
    model: &dyn Model,
    width: usize,
    rows: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<usize, F2pmError> {
    debug_assert_eq!(rows.len() % width.max(1), 0, "ragged deferred rows");
    let flat = std::mem::take(rows);
    let n = flat.len().checked_div(width).unwrap_or(0);
    if n == 0 {
        *rows = flat;
        rows.clear();
        return Ok(0);
    }
    let x = Matrix::from_vec(n, width, flat);
    let result = model.predict_batch(&x);
    *rows = x.into_vec();
    rows.clear();
    let predictions = result?;
    out.extend(predictions.into_iter().map(|p| p.max(0.0)));
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_features::aggregate::aggregated_column_names_with;
    use f2pm_features::{aggregate_run, Dataset};
    use f2pm_ml::linreg::LinearModel;
    use f2pm_ml::{LinearRegression, Regressor};
    use f2pm_monitor::{FeatureId, RunData};
    use proptest::prelude::*;

    /// Train a model on synthetic aggregated data where RTTF is a clean
    /// function of swap_used: rttf = 1000 − 2 × swap_used.
    fn trained_model() -> (Box<dyn Model>, Vec<String>) {
        let mut points = Vec::new();
        for k in 0..60 {
            let swap = k as f64 * 8.0;
            let pts: Vec<Datapoint> = (0..10)
                .map(|i| {
                    let mut d = Datapoint {
                        t_gen: k as f64 * 30.0 + i as f64 * 3.0,
                        values: [1.0; 14],
                    };
                    d.set(FeatureId::SwapUsed, swap);
                    d
                })
                .collect();
            let run = RunData {
                datapoints: pts,
                fail_time: Some(1e6), // placeholder; y overridden below
            };
            points.extend(aggregate_run(
                &run,
                &AggregationConfig {
                    window_s: 30.0,
                    min_points: 2,
                    ..AggregationConfig::default()
                },
            ));
        }
        let mut ds = Dataset::from_points(&points);
        // Override the target with the clean relationship.
        let swap_col = ds.column_index("swap_used").unwrap();
        ds.y = (0..ds.len())
            .map(|i| 1000.0 - 2.0 * ds.x[(i, swap_col)])
            .collect();
        let sub = ds.select_named(&["swap_used", "swap_used_slope"]);
        let model = LinearRegression::new().fit(&sub.x, &sub.y).unwrap();
        (model, sub.names.clone())
    }

    /// The offline oracle: `predict_row` over `aggregate_run` of the whole
    /// feed taken as one run — exactly what training sees.
    fn offline_estimates(
        model: &dyn Model,
        names: &[String],
        agg: &AggregationConfig,
        feed: &[Datapoint],
    ) -> Vec<f64> {
        let all = aggregated_column_names_with(agg);
        let cols: Vec<usize> = names
            .iter()
            .map(|n| all.iter().position(|a| a == n).unwrap())
            .collect();
        let run = RunData {
            datapoints: feed.to_vec(),
            fail_time: None,
        };
        aggregate_run(&run, agg)
            .iter()
            .map(|point| {
                let inputs = point.inputs_with(agg);
                let row: Vec<f64> = cols.iter().map(|&j| inputs[j]).collect();
                model.predict_row(&row).max(0.0)
            })
            .collect()
    }

    /// Online estimates equal the offline oracle's bit for bit, for every
    /// window but the one still open when the feed ends.
    fn assert_matches_offline(got: &[f64], want: &[f64]) {
        assert_eq!(want.len(), got.len() + 1, "one window is still open");
        for (w, g) in want.iter().zip(got) {
            assert_eq!(w.to_bits(), g.to_bits(), "estimate drifted: {w} vs {g}");
        }
    }

    #[test]
    fn emits_estimates_as_windows_close() {
        let (model, names) = trained_model();
        let agg = AggregationConfig {
            window_s: 30.0,
            min_points: 2,
            ..AggregationConfig::default()
        };
        let want_model = trained_model().0;
        let mut pred = OnlinePredictor::new(model, &names, agg);
        let feed: Vec<Datapoint> = (0..100)
            .map(|i| {
                let mut d = Datapoint {
                    t_gen: i as f64 * 3.0,
                    values: [1.0; 14],
                };
                d.set(FeatureId::SwapUsed, 100.0);
                d
            })
            .collect();
        let estimates: Vec<f64> = feed.iter().filter_map(|d| pred.push(*d)).collect();
        assert!(estimates.len() >= 8, "only {} estimates", estimates.len());
        assert_matches_offline(
            &estimates,
            &offline_estimates(want_model.as_ref(), &names, &agg, &feed),
        );
        // rttf = 1000 − 2×100 = 800, constant swap → slope 0. The training
        // design's slope column is identically zero, so the fit goes
        // through the ridge fallback, which biases coefficients by ~0.3 %.
        for e in &estimates {
            assert!((e - 800.0).abs() < 8.0, "estimate {e}");
        }
        assert_eq!(pred.last_estimate(), estimates.last().copied());
    }

    #[test]
    fn estimates_decrease_as_swap_grows() {
        let (model, names) = trained_model();
        let mut pred = OnlinePredictor::new(
            model,
            &names,
            AggregationConfig {
                window_s: 30.0,
                min_points: 2,
                ..AggregationConfig::default()
            },
        );
        let mut estimates = Vec::new();
        for i in 0..200 {
            let mut d = Datapoint {
                t_gen: i as f64 * 3.0,
                values: [1.0; 14],
            };
            d.set(FeatureId::SwapUsed, i as f64 * 2.0);
            if let Some(e) = pred.push(d) {
                estimates.push(e);
            }
        }
        assert!(estimates.len() > 10);
        assert!(
            estimates.first().unwrap() > estimates.last().unwrap(),
            "estimates should fall: {estimates:?}"
        );
    }

    #[test]
    fn estimates_clamped_at_zero() {
        let (model, names) = trained_model();
        let mut pred = OnlinePredictor::new(
            model,
            &names,
            AggregationConfig {
                window_s: 30.0,
                min_points: 2,
                ..AggregationConfig::default()
            },
        );
        for i in 0..50 {
            let mut d = Datapoint {
                t_gen: i as f64 * 3.0,
                values: [1.0; 14],
            };
            d.set(FeatureId::SwapUsed, 10_000.0); // way past failure
            if let Some(e) = pred.push(d) {
                assert_eq!(e, 0.0);
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let (model, names) = trained_model();
        let mut pred = OnlinePredictor::new(
            model,
            &names,
            AggregationConfig {
                window_s: 30.0,
                min_points: 2,
                ..AggregationConfig::default()
            },
        );
        for i in 0..20 {
            let mut d = Datapoint {
                t_gen: i as f64 * 3.0,
                values: [1.0; 14],
            };
            d.set(FeatureId::SwapUsed, 50.0);
            pred.push(d);
        }
        pred.reset();
        assert!(pred.last_estimate().is_none());
    }

    /// The deferred path (`push_deferred` + `predict_many`) must publish
    /// bit-identical estimates, in the same order, as the immediate
    /// `push` path — this is what lets serve shards batch model calls
    /// without changing a single answer on the wire.
    #[test]
    fn deferred_batch_path_is_bit_identical_to_push() {
        let (model_a, names) = trained_model();
        let (model_b, _) = trained_model();
        let agg = AggregationConfig {
            window_s: 30.0,
            min_points: 2,
            ..AggregationConfig::default()
        };
        let mut immediate = OnlinePredictor::new(model_a, &names, agg);
        let mut deferred = OnlinePredictor::new(model_b, &names, agg);

        let feed: Vec<Datapoint> = (0..300)
            .map(|i| {
                let mut d = Datapoint {
                    t_gen: i as f64 * 3.0,
                    values: [1.0; 14],
                };
                d.set(FeatureId::SwapUsed, (i as f64 * 1.7).sin().abs() * 400.0);
                d
            })
            .collect();

        let mut want = Vec::new();
        for d in &feed {
            if let Some(e) = immediate.push(*d) {
                want.push(e);
            }
        }

        // Deferred side: accumulate rows across an arbitrary batch split
        // and score each batch with one predict_many call.
        let (m2, _) = trained_model();
        let mut got = Vec::new();
        let mut rows = Vec::new();
        let mut out = Vec::new();
        for (i, d) in feed.iter().enumerate() {
            deferred.push_deferred(*d, &mut rows);
            if i % 17 == 16 || i == feed.len() - 1 {
                out.clear();
                let n = predict_many(m2.as_ref(), deferred.width(), &mut rows, &mut out).unwrap();
                assert_eq!(n, out.len());
                assert!(rows.is_empty(), "flat buffer handed back cleared");
                for &e in &out {
                    deferred.record_estimate(e);
                    got.push(e);
                }
            }
        }

        assert!(want.len() >= 8, "only {} estimates", want.len());
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits(), "estimate drifted: {w} vs {g}");
        }
        assert_eq!(immediate.last_estimate(), deferred.last_estimate());
    }

    /// A model over a `_std` column (the 44-column `include_stddev`
    /// layout) scores each closed window exactly as `predict_row` does on
    /// the window's aggregated inputs.
    #[test]
    fn stddev_layout_estimates_match_predict_row() {
        let agg = AggregationConfig {
            window_s: 30.0,
            min_points: 2,
            include_stddev: true,
        };
        let names = vec!["swap_used".to_string(), "swap_used_std".to_string()];
        let model = LinearModel {
            intercept: 1000.0,
            coefficients: vec![-1.0, -2.0],
        };
        let mut pred = OnlinePredictor::new(Box::new(model.clone()), &names, agg);
        let feed: Vec<Datapoint> = (0..200)
            .map(|i| {
                let mut d = Datapoint {
                    t_gen: i as f64 * 3.0,
                    values: [1.0; 14],
                };
                d.set(FeatureId::SwapUsed, (i as f64 * 1.7).sin().abs() * 400.0);
                d
            })
            .collect();
        let got: Vec<f64> = feed.iter().filter_map(|d| pred.push(*d)).collect();
        assert!(got.len() >= 10, "only {} estimates", got.len());
        assert_matches_offline(&got, &offline_estimates(&model, &names, &agg, &feed));
    }

    #[test]
    fn reset_anchors_a_new_run() {
        let agg = AggregationConfig::default();
        let names = aggregated_column_names_with(&agg);
        let model = LinearModel::constant(0.0, names.len());
        let mut pred = OnlinePredictor::new(Box::new(model), &names, agg);
        let feed = |t0: f64, n: usize| -> Vec<Datapoint> {
            (0..n)
                .map(|i| Datapoint {
                    t_gen: t0 + i as f64 * 1.3,
                    values: [i as f64; 14],
                })
                .collect()
        };
        let mut rows = Vec::new();
        for d in feed(0.0, 37) {
            pred.push_deferred(d, &mut rows);
        }
        pred.reset();
        rows.clear();
        // The new life starts off the old grid; its windows sit on its own.
        let life = feed(503.7, 60);
        for &d in &life {
            pred.push_deferred(d, &mut rows);
        }
        let run = RunData {
            datapoints: life,
            fail_time: None,
        };
        let points = aggregate_run(&run, &agg);
        let want: Vec<f64> = points[..points.len() - 1]
            .iter()
            .flat_map(|p| p.inputs_with(&agg))
            .collect();
        assert_eq!(rows.len(), want.len());
        assert!(rows
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    /// An irregular stream: jittered 1.5 s sampling, gaps longer than a
    /// window, sparse stretches that leave windows under `min_points`,
    /// and `t_gen` stepping backwards.
    fn irregular_feed(steps: &[(f64, f64, f64)], window_s: f64) -> Vec<Datapoint> {
        let mut t = 100.0;
        let mut feed = Vec::with_capacity(steps.len());
        for (i, &(kind, jitter, level)) in steps.iter().enumerate() {
            t += if kind < 0.05 {
                window_s * (1.0 + 3.0 * jitter)
            } else if kind < 0.1 {
                -3.0 * jitter
            } else if kind < 0.2 {
                window_s * jitter
            } else {
                1.5 + 0.6 * (jitter - 0.5)
            };
            let mut d = Datapoint {
                t_gen: t,
                values: [0.0; 14],
            };
            for (j, v) in d.values.iter_mut().enumerate() {
                *v = level * (j + 1) as f64 + (i as f64 * 0.37 + j as f64).sin();
            }
            feed.push(d);
        }
        feed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// For every window that closes before the stream ends, the
        /// predictor's model-input row equals `aggregate_run`'s row bit for
        /// bit, in both column layouts.
        #[test]
        fn online_rows_equal_aggregate_run_rows(
            steps in proptest::collection::vec((0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..500.0), 1..300),
            window_s in 2.0_f64..25.0,
            min_points in 1usize..6,
        ) {
            let feed = irregular_feed(&steps, window_s);
            for include_stddev in [false, true] {
                let agg = AggregationConfig { window_s, min_points, include_stddev };
                let names = aggregated_column_names_with(&agg);
                let model = LinearModel::constant(0.0, names.len());
                let mut pred = OnlinePredictor::new(Box::new(model), &names, agg);
                let mut rows = Vec::new();
                let closed = feed.iter().filter(|&&d| pred.push_deferred(d, &mut rows)).count();
                let run = RunData { datapoints: feed.clone(), fail_time: None };
                let offline = aggregate_run(&run, &agg);
                // Offline also emits the window still open at the end.
                prop_assert!(offline.len() == closed || offline.len() == closed + 1);
                let want: Vec<u64> = offline[..closed]
                    .iter()
                    .flat_map(|p| p.inputs_with(&agg))
                    .map(f64::to_bits)
                    .collect();
                let got: Vec<u64> = rows.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn predict_many_empty_batch_is_a_noop() {
        let (model, _) = trained_model();
        let mut rows = Vec::new();
        let mut out = vec![42.0];
        let n = predict_many(model.as_ref(), 2, &mut rows, &mut out).unwrap();
        assert_eq!(n, 0);
        assert_eq!(out, vec![42.0]);
    }

    #[test]
    #[should_panic(expected = "unknown aggregated column")]
    fn unknown_column_panics() {
        let (model, _) = trained_model();
        OnlinePredictor::new(
            model,
            &["bogus".to_string(), "swap_used".to_string()],
            AggregationConfig::default(),
        );
    }
}
