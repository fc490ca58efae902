//! Datapoint aggregation, slopes and derived metrics (§III-B, Fig. 2).

use f2pm_monitor::{DataHistory, Datapoint, RunData, FEATURES};

/// Aggregation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationConfig {
    /// Time-window width (s). The paper leaves this user-defined; the
    /// experiments use 10 s windows over ~1.5 s raw samples.
    pub window_s: f64,
    /// Minimum raw datapoints a window needs to produce an aggregated
    /// point (sparser windows are dropped as unreliable).
    pub min_points: usize,
    /// Extend the input layout with the per-feature within-window standard
    /// deviations (columns `<feature>_std`). Off by default — the paper's
    /// layout is means + slopes + inter-generation time — but §III-A
    /// explicitly lets the user change the feature set, and window
    /// variability is the natural next derived metric (it spikes when the
    /// guest starts thrashing).
    pub include_stddev: bool,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            window_s: 10.0,
            min_points: 2,
            include_stddev: false,
        }
    }
}

/// One aggregated datapoint: window means, per-feature slopes (Eq. 1), the
/// inter-generation-time metric, and the RTTF label.
#[derive(Debug, Clone)]
pub struct AggregatedPoint {
    /// Window start (s since run start).
    pub window_start: f64,
    /// Window end (s since run start).
    pub window_end: f64,
    /// Mean `Tgen` of the raw datapoints in the window (the point's
    /// representative time).
    pub t_repr: f64,
    /// Number of raw datapoints aggregated.
    pub count: usize,
    /// Per-feature means, in [`FEATURES`] order.
    pub means: [f64; 14],
    /// Per-feature slopes (Eq. 1: `(x_end - x_start) / n`).
    pub slopes: [f64; 14],
    /// Per-feature within-window (population) standard deviations. Always
    /// computed; included in the input layout only when
    /// [`AggregationConfig::include_stddev`] is set.
    pub stddevs: [f64; 14],
    /// Mean inter-generation time between consecutive raw datapoints (s).
    pub intergen_mean: f64,
    /// Slope of the inter-generation time across the window (Eq. 1 applied
    /// to the consecutive-difference series).
    pub intergen_slope: f64,
    /// Ground-truth remaining time to failure measured from `t_repr`.
    /// `None` for censored runs.
    pub rttf: Option<f64>,
}

/// Aggregate one run's raw datapoints into windowed points.
///
/// Windows are anchored at the run's first datapoint timestamp, matching
/// the paper's Fig. 2 ("VM started" anchors window 1). Each raw datapoint
/// lands in exactly one window by its `Tgen`. This is a fold over one
/// [`WindowAggregator`] — the same code the online predictor streams
/// through — followed by the RTTF labels of a failing run.
pub fn aggregate_run(run: &RunData, cfg: &AggregationConfig) -> Vec<AggregatedPoint> {
    let mut windows = WindowAggregator::new(*cfg);
    let mut out: Vec<_> = run
        .datapoints
        .iter()
        .filter_map(|&d| windows.push(d))
        .collect();
    out.extend(windows.finish());
    for p in &mut out {
        p.rttf = run.fail_time.map(|ft| (ft - p.t_repr).max(0.0));
    }
    out
}

/// Streaming §III-B aggregation of one run, and the only code that places
/// window boundaries: [`aggregate_run`] folds it offline and the live
/// predictor streams through it, so a served model sees exactly the rows
/// it was trained on. Windows sit on the run's grid `t0 + k·w` (`t0` is
/// the run's first `Tgen`); a window closes when the first datapoint past
/// its end arrives, and its first inter-generation gap reaches back to the
/// last raw datapoint before it. Points carry no RTTF label. The open
/// window lives in one reused buffer, so steady-state pushes allocate
/// nothing.
#[derive(Debug, Clone)]
pub struct WindowAggregator {
    cfg: AggregationConfig,
    /// Run anchor: the first datapoint's `Tgen` (`None` before it).
    t0: Option<f64>,
    /// Grid start of the open window, `t0 + k·w`.
    w_start: f64,
    /// The last raw datapoint before the open window.
    prev: Option<Datapoint>,
    /// Raw datapoints of the open window.
    window: Vec<Datapoint>,
}

impl WindowAggregator {
    /// An aggregator at the start of a run.
    ///
    /// # Panics
    /// Panics if `cfg.window_s` is not positive.
    pub fn new(cfg: AggregationConfig) -> Self {
        assert!(cfg.window_s > 0.0, "window width must be positive");
        WindowAggregator {
            cfg,
            t0: None,
            w_start: 0.0,
            prev: None,
            window: Vec::new(),
        }
    }

    /// The aggregation parameters.
    pub fn config(&self) -> &AggregationConfig {
        &self.cfg
    }

    /// Feed the run's next raw datapoint. Returns the window it closed, if
    /// that window held at least `min_points` datapoints.
    pub fn push(&mut self, d: Datapoint) -> Option<AggregatedPoint> {
        let t0 = *self.t0.get_or_insert(d.t_gen);
        if !self.window.is_empty() && d.t_gen < self.w_start + self.cfg.window_s {
            self.window.push(d);
            return None;
        }
        // `d` opens the grid window holding it (the run's first window
        // when nothing is open yet).
        let closed = self.close();
        self.prev = self.window.last().copied();
        self.window.clear();
        let w_index = ((d.t_gen - t0) / self.cfg.window_s).floor() as usize;
        self.w_start = t0 + w_index as f64 * self.cfg.window_s;
        self.window.push(d);
        closed
    }

    /// End the run: emit the open window (if it holds at least
    /// `min_points` datapoints) and start a new run.
    pub fn finish(&mut self) -> Option<AggregatedPoint> {
        let closed = self.close();
        self.reset();
        closed
    }

    /// Drop the open window and start a new run (the next datapoint
    /// becomes its anchor).
    pub fn reset(&mut self) {
        self.t0 = None;
        self.prev = None;
        self.window.clear();
    }

    fn close(&self) -> Option<AggregatedPoint> {
        (!self.window.is_empty() && self.window.len() >= self.cfg.min_points).then(|| {
            aggregate_window(
                &self.window,
                self.prev.as_ref(),
                self.w_start,
                self.w_start + self.cfg.window_s,
            )
        })
    }
}

fn aggregate_window(
    window: &[Datapoint],
    prev: Option<&Datapoint>,
    w_start: f64,
    w_end: f64,
) -> AggregatedPoint {
    let n = window.len();
    let nf = n as f64;

    let mut means = [0.0; 14];
    for d in window {
        for (m, v) in means.iter_mut().zip(&d.values) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= nf;
    }
    let mut stddevs = [0.0; 14];
    for d in window {
        for ((s, v), m) in stddevs.iter_mut().zip(&d.values).zip(&means) {
            let dv = v - m;
            *s += dv * dv;
        }
    }
    for s in &mut stddevs {
        *s = (*s / nf).sqrt();
    }

    // Eq. 1: slope_j = (x_end_j - x_start_j) / n, with x_start/x_end the
    // first and last *raw* datapoints falling in the window.
    let first = &window[0];
    let last = &window[n - 1];
    let mut slopes = [0.0; 14];
    for ((s, l), f) in slopes.iter_mut().zip(&last.values).zip(&first.values) {
        *s = (l - f) / nf;
    }

    // Inter-generation gaps: include the gap from the previous raw
    // datapoint so a window never has zero gaps when history exists. One
    // pass keeps the first and last gap and the running sum, added in gap
    // order from -0.0 exactly as `f64: Sum` does.
    let ends = &window[usize::from(prev.is_none())..];
    let gaps = ends.len();
    let (mut sum, mut first_gap, mut last_gap) = (-0.0, 0.0, 0.0);
    for (i, (a, b)) in prev.into_iter().chain(window).zip(ends).enumerate() {
        let gap = b.t_gen - a.t_gen;
        if i == 0 {
            first_gap = gap;
        }
        last_gap = gap;
        sum += gap;
    }
    let (intergen_mean, intergen_slope) = if gaps == 0 {
        (0.0, 0.0)
    } else {
        (sum / gaps as f64, (last_gap - first_gap) / gaps as f64)
    };

    let t_repr = window.iter().map(|d| d.t_gen).sum::<f64>() / nf;
    AggregatedPoint {
        window_start: w_start,
        window_end: w_end,
        t_repr,
        count: n,
        means,
        slopes,
        stddevs,
        intergen_mean,
        intergen_slope,
        rttf: None,
    }
}

/// Aggregate every run of a data history, concatenating the results. Only
/// failing runs carry RTTF labels; censored runs are skipped by default
/// because the paper's training target requires the fail event.
pub fn aggregate_history(history: &DataHistory, cfg: &AggregationConfig) -> Vec<AggregatedPoint> {
    history
        .runs()
        .iter()
        .filter(|r| r.fail_time.is_some())
        .flat_map(|r| aggregate_run(r, cfg))
        .collect()
}

/// Names of the aggregated input columns, in the order used by
/// [`crate::dataset::Dataset::from_points_with`]: the 14 feature means,
/// the 14 feature slopes (suffix `_slope`, matching the paper's Table I
/// naming), the inter-generation time and its slope — 30 columns — plus,
/// when `include_stddev` is set, 14 standard deviations (suffix `_std`).
pub fn aggregated_column_names_with(cfg: &AggregationConfig) -> Vec<String> {
    let mut names: Vec<String> = FEATURES.iter().map(|f| f.name().to_string()).collect();
    names.extend(FEATURES.iter().map(|f| format!("{}_slope", f.name())));
    names.push("intergen_time".to_string());
    names.push("intergen_time_slope".to_string());
    if cfg.include_stddev {
        names.extend(FEATURES.iter().map(|f| format!("{}_std", f.name())));
    }
    names
}

impl AggregatedPoint {
    /// Input values for a given configuration, in
    /// [`aggregated_column_names_with`] order.
    pub fn inputs_with(&self, cfg: &AggregationConfig) -> Vec<f64> {
        let mut v = vec![0.0; self.input_width(cfg)];
        self.write_into(cfg, &mut v);
        v
    }

    /// Number of input columns under a given configuration.
    pub fn input_width(&self, cfg: &AggregationConfig) -> usize {
        if cfg.include_stddev {
            44
        } else {
            30
        }
    }

    /// Write the input values into a caller-provided slice (exactly
    /// [`Self::input_width`] long) — the allocation-free variant of
    /// [`Self::inputs_with`] for hot re-score/retrain paths that fill one
    /// matrix row per aggregated point.
    pub fn write_into(&self, cfg: &AggregationConfig, out: &mut [f64]) {
        let width = self.input_width(cfg);
        assert_eq!(out.len(), width, "destination must be {width} columns");
        out[..14].copy_from_slice(&self.means);
        out[14..28].copy_from_slice(&self.slopes);
        out[28] = self.intergen_mean;
        out[29] = self.intergen_slope;
        if cfg.include_stddev {
            out[30..44].copy_from_slice(&self.stddevs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_monitor::FeatureId;
    use proptest::prelude::*;

    fn dp(t: f64, swap: f64) -> Datapoint {
        let mut d = Datapoint {
            t_gen: t,
            values: [1.0; 14],
        };
        d.set(FeatureId::SwapUsed, swap);
        d
    }

    fn run(points: Vec<Datapoint>, fail: Option<f64>) -> RunData {
        RunData {
            datapoints: points,
            fail_time: fail,
        }
    }

    #[test]
    fn empty_run_aggregates_to_nothing() {
        let r = run(vec![], Some(100.0));
        assert!(aggregate_run(&r, &AggregationConfig::default()).is_empty());
    }

    #[test]
    fn means_and_counts() {
        // 4 points in one 10 s window.
        let r = run(
            vec![dp(0.0, 10.0), dp(2.0, 20.0), dp(4.0, 30.0), dp(6.0, 40.0)],
            Some(100.0),
        );
        let cfg = AggregationConfig {
            window_s: 10.0,
            min_points: 1,
            include_stddev: false,
        };
        let agg = aggregate_run(&r, &cfg);
        assert_eq!(agg.len(), 1);
        let a = &agg[0];
        assert_eq!(a.count, 4);
        assert_eq!(a.means[FeatureId::SwapUsed.index()], 25.0);
        assert_eq!(a.means[FeatureId::MemUsed.index()], 1.0);
        assert_eq!(a.t_repr, 3.0);
    }

    #[test]
    fn slope_follows_equation_1() {
        let r = run(
            vec![dp(0.0, 10.0), dp(2.0, 20.0), dp(4.0, 30.0), dp(6.0, 50.0)],
            Some(100.0),
        );
        let cfg = AggregationConfig {
            window_s: 10.0,
            min_points: 1,
            include_stddev: false,
        };
        let agg = aggregate_run(&r, &cfg);
        // Eq. 1: (x_end - x_start) / n = (50 - 10) / 4 = 10.
        assert_eq!(agg[0].slopes[FeatureId::SwapUsed.index()], 10.0);
        // Constant features have zero slope.
        assert_eq!(agg[0].slopes[FeatureId::MemUsed.index()], 0.0);
    }

    #[test]
    fn windows_partition_datapoints() {
        let pts: Vec<Datapoint> = (0..40).map(|i| dp(i as f64 * 1.5, i as f64)).collect();
        let r = run(pts, Some(100.0));
        let cfg = AggregationConfig {
            window_s: 10.0,
            min_points: 1,
            include_stddev: false,
        };
        let agg = aggregate_run(&r, &cfg);
        let total: usize = agg.iter().map(|a| a.count).sum();
        assert_eq!(total, 40, "every raw datapoint lands in exactly one window");
        for a in &agg {
            assert!(a.window_end - a.window_start == 10.0);
            assert!(a.t_repr >= a.window_start && a.t_repr < a.window_end);
        }
        for pair in agg.windows(2) {
            assert!(pair[0].window_start < pair[1].window_start);
        }
    }

    #[test]
    fn rttf_labels_decrease_toward_failure() {
        let pts: Vec<Datapoint> = (0..60).map(|i| dp(i as f64 * 1.5, 0.0)).collect();
        let r = run(pts, Some(95.0));
        let agg = aggregate_run(&r, &AggregationConfig::default());
        assert!(agg.len() >= 2);
        for pair in agg.windows(2) {
            assert!(pair[0].rttf.unwrap() > pair[1].rttf.unwrap());
        }
        let last = agg.last().unwrap();
        assert!((last.rttf.unwrap() - (95.0 - last.t_repr)).abs() < 1e-9);
    }

    #[test]
    fn censored_run_has_no_labels() {
        let pts: Vec<Datapoint> = (0..10).map(|i| dp(i as f64, 0.0)).collect();
        let r = run(pts, None);
        let cfg = AggregationConfig {
            window_s: 5.0,
            min_points: 1,
            include_stddev: false,
        };
        for a in aggregate_run(&r, &cfg) {
            assert!(a.rttf.is_none());
        }
    }

    #[test]
    fn min_points_drops_sparse_windows() {
        // One lonely point in the second window.
        let r = run(vec![dp(0.0, 0.0), dp(1.0, 0.0), dp(15.0, 0.0)], Some(50.0));
        let cfg = AggregationConfig {
            window_s: 10.0,
            min_points: 2,
            include_stddev: false,
        };
        let agg = aggregate_run(&r, &cfg);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].count, 2);
    }

    #[test]
    fn intergen_time_computed_across_window_boundary() {
        // Two windows; second window's first gap reaches back to the last
        // point of the first window.
        let r = run(
            vec![dp(0.0, 0.0), dp(2.0, 0.0), dp(11.0, 0.0), dp(13.0, 0.0)],
            Some(50.0),
        );
        let cfg = AggregationConfig {
            window_s: 10.0,
            min_points: 2,
            include_stddev: false,
        };
        let agg = aggregate_run(&r, &cfg);
        assert_eq!(agg.len(), 2);
        // Window 1 gaps: [2.0] → mean 2.0.
        assert!((agg[0].intergen_mean - 2.0).abs() < 1e-12);
        // Window 2 gaps: [9.0 (cross-boundary), 2.0] → mean 5.5.
        assert!((agg[1].intergen_mean - 5.5).abs() < 1e-12);
    }

    #[test]
    fn column_names_are_30_and_unique() {
        let names = aggregated_column_names_with(&AggregationConfig::default());
        assert_eq!(names.len(), 30);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(names.contains(&"swap_used_slope".to_string()));
        assert!(names.contains(&"intergen_time".to_string()));
    }

    #[test]
    fn extended_layout_adds_std_columns() {
        let cfg = AggregationConfig {
            include_stddev: true,
            ..AggregationConfig::default()
        };
        let names = aggregated_column_names_with(&cfg);
        assert_eq!(names.len(), 44);
        assert!(names.contains(&"swap_used_std".to_string()));
        // The default layout is a prefix of the extended one.
        assert_eq!(
            &names[..30],
            aggregated_column_names_with(&AggregationConfig::default()).as_slice()
        );
    }

    #[test]
    fn window_stddev_is_computed_correctly() {
        // swap values 10, 20, 30, 40 → mean 25, population std sqrt(125).
        let r = run(
            vec![dp(0.0, 10.0), dp(2.0, 20.0), dp(4.0, 30.0), dp(6.0, 40.0)],
            Some(100.0),
        );
        let cfg = AggregationConfig {
            window_s: 10.0,
            min_points: 1,
            include_stddev: true,
        };
        let agg = aggregate_run(&r, &cfg);
        let a = &agg[0];
        assert!((a.stddevs[FeatureId::SwapUsed.index()] - 125.0_f64.sqrt()).abs() < 1e-12);
        // Constant features have zero stddev.
        assert_eq!(a.stddevs[FeatureId::MemUsed.index()], 0.0);
        // inputs_with carries 44 values, the last 14 being the stddevs.
        let inputs = a.inputs_with(&cfg);
        assert_eq!(inputs.len(), 44);
        assert_eq!(
            inputs[30 + FeatureId::SwapUsed.index()],
            a.stddevs[FeatureId::SwapUsed.index()]
        );
        // The default layout is unchanged.
        assert_eq!(a.inputs_with(&AggregationConfig::default()).len(), 30);
    }

    #[test]
    fn inputs_match_names_length() {
        let r = run(vec![dp(0.0, 1.0), dp(1.0, 2.0)], Some(10.0));
        let cfg = AggregationConfig {
            window_s: 5.0,
            min_points: 1,
            include_stddev: false,
        };
        let agg = aggregate_run(&r, &cfg);
        assert_eq!(
            agg[0].inputs_with(&AggregationConfig::default()).len(),
            aggregated_column_names_with(&AggregationConfig::default()).len()
        );
    }

    #[test]
    fn aggregate_history_skips_censored_runs() {
        let mut h = DataHistory::new();
        for i in 0..10 {
            h.push_datapoint(dp(i as f64, 0.0));
        }
        h.push_fail(12.0);
        for i in 0..10 {
            h.push_datapoint(dp(i as f64, 0.0));
        }
        // no trailing fail → censored
        let cfg = AggregationConfig {
            window_s: 5.0,
            min_points: 1,
            include_stddev: false,
        };
        let agg = aggregate_history(&h, &cfg);
        assert!(!agg.is_empty());
        assert!(agg.iter().all(|a| a.rttf.is_some()));
    }

    /// Every field of a point, as bits.
    fn point_bits(p: &AggregatedPoint) -> Vec<u64> {
        let cfg = AggregationConfig {
            include_stddev: true,
            ..AggregationConfig::default()
        };
        let mut bits: Vec<u64> = p.inputs_with(&cfg).iter().map(|v| v.to_bits()).collect();
        bits.extend([p.window_start, p.window_end, p.t_repr].map(f64::to_bits));
        bits.push(p.count as u64);
        bits
    }

    #[test]
    fn window_aggregator_streams_aggregate_run_and_restarts_on_reset() {
        let cfg = AggregationConfig {
            window_s: 10.0,
            min_points: 2,
            include_stddev: false,
        };
        let first: Vec<Datapoint> = (0..30).map(|i| dp(i as f64 * 1.7, i as f64)).collect();
        let second: Vec<Datapoint> = (0..20).map(|i| dp(100.3 + i as f64 * 2.1, 0.5)).collect();
        let mut stream = WindowAggregator::new(cfg);
        let mut got: Vec<AggregatedPoint> = first.iter().filter_map(|&d| stream.push(d)).collect();
        // A reset drops the open window; the next point anchors a new run.
        stream.reset();
        let restarted = got.len();
        got.extend(second.iter().filter_map(|&d| stream.push(d)));
        got.extend(stream.finish());
        assert!(stream.finish().is_none(), "finish leaves an empty run");

        let mut want = aggregate_run(&run(first, None), &cfg);
        want.pop(); // the window the reset dropped
        assert_eq!(want.len(), restarted);
        want.extend(aggregate_run(&run(second, None), &cfg));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(point_bits(g), point_bits(w));
            assert!(g.rttf.is_none());
        }
    }

    proptest! {
        #[test]
        fn aggregation_preserves_value_bounds(
            vals in proptest::collection::vec(0.0_f64..1000.0, 10..80)
        ) {
            let pts: Vec<Datapoint> = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| dp(i as f64 * 1.5, v))
                .collect();
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let r = run(pts, Some(10_000.0));
            let agg = aggregate_run(&r, &AggregationConfig::default());
            for a in agg {
                let m = a.means[FeatureId::SwapUsed.index()];
                prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
            }
        }

        #[test]
        fn window_count_bounded_by_duration(
            n in 5usize..200,
            window in 5.0_f64..60.0,
        ) {
            let pts: Vec<Datapoint> = (0..n).map(|i| dp(i as f64 * 1.5, 0.0)).collect();
            let span = (n - 1) as f64 * 1.5;
            let r = run(pts, Some(span + 100.0));
            let cfg = AggregationConfig { window_s: window, min_points: 1, include_stddev: false };
            let agg = aggregate_run(&r, &cfg);
            let max_windows = (span / window).floor() as usize + 1;
            prop_assert!(agg.len() <= max_windows);
            let total: usize = agg.iter().map(|a| a.count).sum();
            prop_assert_eq!(total, n);
        }
    }
}
