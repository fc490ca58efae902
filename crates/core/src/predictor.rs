//! Online RTTF prediction.
//!
//! Turns a trained model into a live estimator: raw datapoints stream in
//! (from an FMC, a `/proc` collector, or the simulator), the predictor
//! maintains the current aggregation window, and once a window closes it
//! emits an RTTF estimate — exactly the deployment mode the paper's
//! proactive-rejuvenation use case needs.

use crate::F2pmError;
use f2pm_features::{aggregate_run, AggregationConfig};
use f2pm_linalg::Matrix;
use f2pm_ml::Model;
use f2pm_monitor::{Datapoint, RunData};

/// A live RTTF estimator around a trained [`Model`].
pub struct OnlinePredictor {
    model: Box<dyn Model>,
    /// Indices of the aggregated-input columns the model consumes (the
    /// model may have been trained on a lasso-selected subset).
    column_idx: Vec<usize>,
    agg: AggregationConfig,
    /// Datapoints of the window currently being filled (plus one point of
    /// look-back for the inter-generation gap).
    buffer: Vec<Datapoint>,
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
            agg,
            buffer: Vec::new(),
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
    /// datapoint into the current window and, when the window closes,
    /// appends the model-input row (`width()` values) to `rows` and
    /// returns `true` — *without* evaluating the model. The caller scores
    /// every deferred row of a batch in one [`predict_many`] call and
    /// hands the estimate back via [`OnlinePredictor::record_estimate`].
    pub fn push_deferred(&mut self, d: Datapoint, rows: &mut Vec<f64>) -> bool {
        self.buffer.push(d);
        let window_anchor = self.buffer[0].t_gen;
        let elapsed = d.t_gen - window_anchor;
        if elapsed < self.agg.window_s {
            return false;
        }
        // Window closed: aggregate everything but the just-arrived point
        // (which starts the next window).
        let closing: Vec<Datapoint> = self.buffer[..self.buffer.len() - 1].to_vec();
        let next_start = self.buffer[self.buffer.len() - 1];
        if closing.len() < self.agg.min_points {
            self.buffer = vec![next_start];
            return false;
        }
        let run = RunData {
            datapoints: closing,
            fail_time: None,
        };
        let points = aggregate_run(&run, &self.agg);
        self.buffer = vec![next_start];
        let Some(point) = points.into_iter().next_back() else {
            return false;
        };
        // Stack scratch wide enough for either layout (30 columns, or 44
        // with `include_stddev`), so the input row needs no heap buffer.
        let mut scratch = [0.0; 44];
        let inputs = &mut scratch[..point.input_width(&self.agg)];
        point.write_into(&self.agg, inputs);
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

    /// Drop buffered state (e.g. after a rejuvenation restart).
    pub fn reset(&mut self) {
        self.buffer.clear();
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
    use f2pm_features::Dataset;
    use f2pm_ml::{LinearRegression, Regressor};
    use f2pm_monitor::FeatureId;

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

    #[test]
    fn emits_estimates_as_windows_close() {
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
        for i in 0..100 {
            let mut d = Datapoint {
                t_gen: i as f64 * 3.0,
                values: [1.0; 14],
            };
            d.set(FeatureId::SwapUsed, 100.0);
            if let Some(e) = pred.push(d) {
                estimates.push(e);
            }
        }
        assert!(estimates.len() >= 8, "only {} estimates", estimates.len());
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
        let model = f2pm_ml::linreg::LinearModel {
            intercept: 1000.0,
            coefficients: vec![-1.0, -2.0],
        };
        let mut pred = OnlinePredictor::new(Box::new(model.clone()), &names, agg);
        let all = f2pm_features::aggregate::aggregated_column_names_with(&agg);
        let cols: Vec<usize> = names
            .iter()
            .map(|n| all.iter().position(|a| a == n).unwrap())
            .collect();

        // One point every 3 s: each 30 s window closes on its 11th point
        // and aggregates the 10 before it.
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
        let want: Vec<f64> = feed
            .chunks(10)
            .take(got.len())
            .map(|window| {
                let run = RunData {
                    datapoints: window.to_vec(),
                    fail_time: None,
                };
                let point = aggregate_run(&run, &agg).pop().unwrap();
                let inputs = point.inputs_with(&agg);
                let row: Vec<f64> = cols.iter().map(|&j| inputs[j]).collect();
                model.predict_row(&row).max(0.0)
            })
            .collect();
        assert!(got.len() >= 10, "only {} estimates", got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits(), "estimate drifted: {w} vs {g}");
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
