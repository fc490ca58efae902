//! Vectorized offline re-scoring over a columnar history (DESIGN.md §13.4).
//!
//! [`run_query`] scans a [`ColumnStore`] chunk-at-a-time: zone maps prune
//! chunks the filter cannot match, surviving chunks are scored through
//! [`Model::predict_columns`] (zero-copy when every row matches, compacted
//! otherwise), and errors stream into per-cohort accumulators — the scan
//! never materializes more than one chunk of rows per worker, so a
//! multi-gigabyte history re-scores in constant memory.
//!
//! Chunks fan out through [`f2pm_linalg::pool_map_with`] (each worker
//! reusing one set of scan buffers), which returns the partial results
//! *per chunk* in chunk order, and the final merge walks them in that
//! order — the report is bit-identical for any worker count (including
//! `F2PM_THREADS=1`).

use crate::F2pmError;
use f2pm_features::{
    ColumnSlice, ColumnStore, FeatureChunk, COL_HOST_ID, COL_RTTF, COL_RUN_ID, COL_T,
};
use f2pm_ml::{Model, SMaeThreshold};

/// Row predicate for a query: every set field must hold.
///
/// The default matches everything — that is the bulk re-scoring fast
/// path, where chunks flow to the model with no mask scan at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryFilter {
    /// Keep only rows of this run.
    pub run_id: Option<u64>,
    /// Keep only rows of this host.
    pub host_id: Option<u64>,
    /// Keep only rows with `t >= t_min`.
    pub t_min: Option<f64>,
    /// Keep only rows with `t <= t_max`.
    pub t_max: Option<f64>,
}

impl QueryFilter {
    /// True when no predicate is set (every row matches).
    pub fn is_match_all(&self) -> bool {
        *self == QueryFilter::default()
    }
}

/// Which key column groups the per-cohort error breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cohort {
    /// Group by run (one failure trajectory per cohort).
    Run,
    /// Group by host.
    Host,
}

impl Cohort {
    /// The metadata column carrying the cohort key.
    pub fn key_column(&self) -> &'static str {
        match self {
            Cohort::Run => COL_RUN_ID,
            Cohort::Host => COL_HOST_ID,
        }
    }
}

/// Streaming error accumulator: the same per-observation operations as
/// [`f2pm_ml::Metrics::compute`] — so a cohort's MAE / S-MAE / max-AE
/// match a batch computation over its gathered rows up to summation
/// order (partial sums merge per block and per chunk, an ULP-level
/// difference). RAE is *not* streamable (Eq. 6 needs the cohort's mean
/// observation first), so query reports omit it.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    n: usize,
    abs_sum: f64,
    soft_sum: f64,
    max_ae: f64,
    rttf_sum: f64,
}

impl Acc {
    /// Accumulate one equal-key block of rows: per observation,
    /// `e = |predicted − actual|` feeds the absolute sum, the running
    /// maximum, and (when `e` is at least [`SMaeThreshold::tolerance`])
    /// the soft sum. The block runs four independent partial chains with
    /// branchless soft-sum selection so it pipelines (a serial `abs_sum`
    /// chain was the scan's second-largest cost); the partials then merge
    /// in lane order. Like the cross-chunk merge, that changes
    /// floating-point association only — never the set of per-row
    /// operations — and stays inside the documented ULP-level tolerance.
    fn add_block(&mut self, predicted: &[f64], actual: &[f64], smae: SMaeThreshold) {
        debug_assert_eq!(predicted.len(), actual.len());
        match smae {
            SMaeThreshold::Absolute(t) => self.add_block_with(predicted, actual, |_| t),
            SMaeThreshold::Relative(f) => {
                self.add_block_with(predicted, actual, |y: f64| f * y.abs())
            }
        }
    }

    #[inline]
    fn add_block_with(&mut self, predicted: &[f64], actual: &[f64], tol: impl Fn(f64) -> f64) {
        let mut abs = [0.0f64; 4];
        let mut soft = [0.0f64; 4];
        let mut rttf = [0.0f64; 4];
        let mut mx = [0.0f64; 4];
        let mut p4 = predicted.chunks_exact(4);
        let mut y4 = actual.chunks_exact(4);
        for (p, y) in (&mut p4).zip(&mut y4) {
            for l in 0..4 {
                let e = (p[l] - y[l]).abs();
                abs[l] += e;
                mx[l] = mx[l].max(e);
                soft[l] += if e >= tol(y[l]) { e } else { 0.0 };
                rttf[l] += y[l];
            }
        }
        for (&p, &y) in p4.remainder().iter().zip(y4.remainder()) {
            let e = (p - y).abs();
            abs[0] += e;
            mx[0] = mx[0].max(e);
            soft[0] += if e >= tol(y) { e } else { 0.0 };
            rttf[0] += y;
        }
        self.n += predicted.len();
        self.abs_sum += (abs[0] + abs[1]) + (abs[2] + abs[3]);
        self.soft_sum += (soft[0] + soft[1]) + (soft[2] + soft[3]);
        self.max_ae = self.max_ae.max(mx[0].max(mx[1]).max(mx[2].max(mx[3])));
        self.rttf_sum += (rttf[0] + rttf[1]) + (rttf[2] + rttf[3]);
    }

    fn merge(&mut self, other: &Acc) {
        self.n += other.n;
        self.abs_sum += other.abs_sum;
        self.soft_sum += other.soft_sum;
        self.max_ae = self.max_ae.max(other.max_ae);
        self.rttf_sum += other.rttf_sum;
    }

    fn stats(&self) -> CohortStats {
        let n = self.n;
        let denom = if n > 0 { n as f64 } else { f64::NAN };
        CohortStats {
            n,
            mae: self.abs_sum / denom,
            smae: self.soft_sum / denom,
            max_ae: if n > 0 { self.max_ae } else { f64::NAN },
            mean_rttf: self.rttf_sum / denom,
        }
    }
}

/// Aggregated prediction error over one cohort's matched rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortStats {
    /// Matched rows in the cohort.
    pub n: usize,
    /// Mean absolute error (s).
    pub mae: f64,
    /// Soft-MAE (s) under the query's threshold.
    pub smae: f64,
    /// Maximum absolute error (s).
    pub max_ae: f64,
    /// Mean observed RTTF (s) — scale context for the errors.
    pub mean_rttf: f64,
}

/// The result of one [`run_query`] scan.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// How cohorts were keyed.
    pub cohort: Cohort,
    /// Per-cohort stats, sorted by key. Cohorts with no matched rows are
    /// omitted.
    pub cohorts: Vec<(u64, CohortStats)>,
    /// Stats over every matched row.
    pub total: CohortStats,
    /// Rows in the store.
    pub rows_total: usize,
    /// Rows in chunks that survived zone pruning.
    pub rows_scanned: usize,
    /// Rows that matched the filter (and were scored).
    pub rows_matched: usize,
    /// Chunks scored.
    pub chunks_scanned: usize,
    /// Chunks skipped entirely by zone maps.
    pub chunks_pruned: usize,
    /// Wall-clock scan time (s).
    pub wall_s: f64,
    /// Scanned-row throughput (rows in surviving chunks / wall seconds).
    pub rows_per_s: f64,
}

/// Column layout resolved once per query.
struct Layout {
    run: usize,
    host: usize,
    t: usize,
    rttf: usize,
    features: Vec<usize>,
}

fn resolve_layout(store: &ColumnStore, model: &dyn Model) -> Result<Layout, F2pmError> {
    let need = |name: &'static str| {
        store
            .column_index(name)
            .ok_or_else(|| F2pmError::InvalidConfig {
                what: format!("columnar store has no {name:?} column"),
            })
    };
    let layout = Layout {
        run: need(COL_RUN_ID)?,
        host: need(COL_HOST_ID)?,
        t: need(COL_T)?,
        rttf: need(COL_RTTF)?,
        features: store.feature_column_indices(),
    };
    if layout.features.len() != model.width() {
        return Err(F2pmError::Ml(f2pm_ml::MlError::WidthMismatch {
            expected: model.width(),
            got: layout.features.len(),
        }));
    }
    Ok(layout)
}

/// One worker's results for one chunk, merged later in chunk order.
struct ChunkPartial {
    rows_scanned: usize,
    rows_matched: usize,
    /// `(key, acc)` in first-seen order within the chunk.
    cohorts: Vec<(u64, Acc)>,
    total: Acc,
}

/// Re-score a columnar history against `model`, filtered and grouped.
///
/// Zone maps skip chunks the filter cannot match; surviving chunks are
/// scored via [`Model::predict_columns`] and streamed into per-cohort
/// [`CohortStats`]. Memory use is bounded by one chunk per worker
/// regardless of store size.
pub fn run_query(
    store: &ColumnStore,
    model: &dyn Model,
    filter: &QueryFilter,
    cohort: Cohort,
    smae: SMaeThreshold,
) -> Result<QueryReport, F2pmError> {
    let started = std::time::Instant::now();
    let layout = resolve_layout(store, model)?;
    let key_col = match cohort {
        Cohort::Run => layout.run,
        Cohort::Host => layout.host,
    };

    let n_chunks = store.n_chunks();
    // Zone-map pruning pass: pure min/max comparisons, so it runs serially
    // up front (n_chunks comparisons are noise next to scoring).
    let t_lo = filter.t_min.unwrap_or(f64::NEG_INFINITY);
    let t_hi = filter.t_max.unwrap_or(f64::INFINITY);
    let live: Vec<usize> = (0..n_chunks)
        .filter(|&c| {
            let chunk = store.chunk(c);
            filter
                .run_id
                .is_none_or(|id| chunk.zone(layout.run).contains(id as f64))
                && filter
                    .host_id
                    .is_none_or(|id| chunk.zone(layout.host).contains(id as f64))
                && ((filter.t_min.is_none() && filter.t_max.is_none())
                    || chunk.zone(layout.t).overlaps(t_lo, t_hi))
        })
        .collect();

    let scan_chunk = |c: usize,
                      scratch: &mut Vec<f64>,
                      out: &mut Vec<f64>,
                      compact: &mut Vec<Vec<f64>>,
                      keys: &mut Vec<f64>,
                      actuals: &mut Vec<f64>|
     -> Result<ChunkPartial, f2pm_ml::MlError> {
        let chunk = store.chunk(c);
        let n = chunk.len();
        let key_slice = chunk.col(key_col);
        let rttf_slice = chunk.col(layout.rttf);

        // Row mask. With no predicates every row matches and the chunk
        // goes to the model zero-copy.
        let full = filter.is_match_all() || {
            let run = chunk.col(layout.run);
            let host = chunk.col(layout.host);
            let t = chunk.col(layout.t);
            keys.clear();
            actuals.clear();
            for col in compact.iter_mut() {
                col.clear();
            }
            let mut all = true;
            for i in 0..n {
                let ok = filter.run_id.is_none_or(|id| run.get(i) == id as f64)
                    && filter.host_id.is_none_or(|id| host.get(i) == id as f64)
                    && t.get(i) >= t_lo
                    && t.get(i) <= t_hi;
                if ok {
                    keys.push(key_slice.get(i));
                    actuals.push(rttf_slice.get(i));
                    for (dst, &j) in compact.iter_mut().zip(&layout.features) {
                        dst.push(chunk.col(j).get(i));
                    }
                } else {
                    all = false;
                }
            }
            all
        };

        let mut partial = ChunkPartial {
            rows_scanned: n,
            rows_matched: 0,
            cohorts: Vec::new(),
            total: Acc::default(),
        };
        let matched = if full { n } else { keys.len() };
        partial.rows_matched = matched;
        if matched == 0 {
            return Ok(partial);
        }

        // Length-only resize: predict_columns overwrites every slot, so
        // don't memset a full-size chunk buffer 500 times per scan.
        if out.len() != matched {
            out.resize(matched, 0.0);
        }
        if full {
            let features = chunk.features(&layout.features);
            model.predict_columns(&features, scratch, out)?;
        } else {
            let cols: Vec<ColumnSlice<'_>> = compact.iter().map(|c| ColumnSlice::F64(c)).collect();
            let features = FeatureChunk::new(matched, cols);
            model.predict_columns(&features, scratch, out)?;
        }

        // Accumulate block-at-a-time: rows arrive grouped by run (history
        // order), so each maximal equal-key block costs one cohort lookup
        // and a tight add loop over plain `&[f64]` slices — no per-row
        // enum dispatch or map search (which measured ~3x the cost of the
        // scoring axpy itself before this restructuring).
        let (key_vals, rttf_vals): (&[f64], &[f64]) = if full {
            match (key_slice, rttf_slice) {
                (ColumnSlice::F64(k), ColumnSlice::F64(a)) => (k, a),
                _ => {
                    keys.clear();
                    actuals.clear();
                    for i in 0..n {
                        keys.push(key_slice.get(i));
                        actuals.push(rttf_slice.get(i));
                    }
                    (&keys[..], &actuals[..])
                }
            }
        } else {
            (&keys[..], &actuals[..])
        };
        let mut i = 0;
        while i < matched {
            let key_f = key_vals[i];
            let mut j = i + 1;
            while j < matched && key_vals[j] == key_f {
                j += 1;
            }
            let key = key_f as u64;
            let idx = match partial.cohorts.iter().position(|(k, _)| *k == key) {
                Some(p) => p,
                None => {
                    partial.cohorts.push((key, Acc::default()));
                    partial.cohorts.len() - 1
                }
            };
            let acc = &mut partial.cohorts[idx].1;
            acc.add_block(&out[i..j], &rttf_vals[i..j], smae);
            i = j;
        }
        // The chunk total merges its cohort partials (same association
        // class as the cross-chunk merge) instead of re-adding every row.
        for (_, acc) in &partial.cohorts {
            partial.total.merge(acc);
        }
        Ok(partial)
    };

    // Each worker reuses one set of scan buffers across its chunks.
    let n_features = layout.features.len();
    let partials = f2pm_linalg::pool_map_with(
        &live,
        || {
            let compact: Vec<Vec<f64>> = vec![Vec::new(); n_features];
            (Vec::new(), Vec::new(), compact, Vec::new(), Vec::new())
        },
        |(scratch, out, compact, keys, actuals), &c| {
            scan_chunk(c, scratch, out, compact, keys, actuals)
        },
    );

    // Deterministic merge: chunk order, regardless of which worker ran
    // which chunk or in what sequence they finished.
    let mut cohorts: Vec<(u64, Acc)> = Vec::new();
    let mut total = Acc::default();
    let mut rows_scanned = 0usize;
    let mut rows_matched = 0usize;
    for partial in partials {
        let partial = partial.map_err(F2pmError::from)?;
        rows_scanned += partial.rows_scanned;
        rows_matched += partial.rows_matched;
        total.merge(&partial.total);
        // `cohorts` stays key-sorted: histories append runs in id order,
        // so a new key is almost always an append — and a linear scan
        // here measured quadratic (489 chunks x 5000 run cohorts).
        for (key, acc) in &partial.cohorts {
            match cohorts.binary_search_by_key(key, |(k, _)| *k) {
                Ok(pos) => cohorts[pos].1.merge(acc),
                Err(pos) => cohorts.insert(pos, (*key, *acc)),
            }
        }
    }

    let wall_s = started.elapsed().as_secs_f64();
    Ok(QueryReport {
        cohort,
        cohorts: cohorts
            .into_iter()
            .map(|(k, acc)| (k, acc.stats()))
            .collect(),
        total: total.stats(),
        rows_total: store.n_rows(),
        rows_scanned,
        rows_matched,
        chunks_scanned: live.len(),
        chunks_pruned: n_chunks - live.len(),
        wall_s,
        rows_per_s: if wall_s > 0.0 {
            rows_scanned as f64 / wall_s
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_features::{ColumnStoreBuilder, ColumnType};
    use f2pm_ml::linreg::LinearModel;
    use f2pm_ml::Metrics;

    const WIDTH: usize = 3;

    /// Streamed means merge per-chunk partial sums, so they can differ
    /// from a flat single-pass sum by association order — a few ULPs at
    /// most. Maxima are order-insensitive and stay `==`.
    fn close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-12 * b.abs().max(1.0),
            "{a} vs {b} differ beyond merge-order tolerance"
        );
    }

    /// 3 runs × uneven lengths over 2 hosts, chunk_rows=8 so zone pruning
    /// and partial chunks both happen.
    fn store() -> ColumnStore {
        let mut b = ColumnStoreBuilder::with_chunk_rows(
            &[
                (COL_RUN_ID, ColumnType::F64),
                (COL_HOST_ID, ColumnType::F64),
                (COL_T, ColumnType::F64),
                (COL_RTTF, ColumnType::F64),
                ("mem", ColumnType::F32),
                ("swap", ColumnType::F32),
                ("slope", ColumnType::F32),
            ],
            8,
        );
        for run in 0u64..3 {
            let len = 10 + run as usize * 7;
            for i in 0..len {
                let t = i as f64 * 5.0;
                b.push_row(&[
                    run as f64,
                    (run % 2) as f64,
                    t,
                    len as f64 * 5.0 - t,
                    (i as f64 * 0.61 + run as f64).sin() * 100.0,
                    i as f64 * 3.0,
                    ((i * 13 + run as usize) % 7) as f64 - 3.0,
                ]);
            }
        }
        b.finish().unwrap()
    }

    fn model() -> LinearModel {
        LinearModel {
            intercept: 120.0,
            coefficients: vec![-0.4, 1.3, 7.5],
        }
    }

    /// Reference implementation: materialized rows + predict_row.
    fn brute_force(
        store: &ColumnStore,
        model: &LinearModel,
        filter: &QueryFilter,
    ) -> (Vec<f64>, Vec<f64>) {
        let run = store.column_index(COL_RUN_ID).unwrap();
        let host = store.column_index(COL_HOST_ID).unwrap();
        let t_col = store.column_index(COL_T).unwrap();
        let rttf = store.column_index(COL_RTTF).unwrap();
        let features = store.feature_column_indices();
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for i in 0..store.n_rows() {
            let ok = filter
                .run_id
                .is_none_or(|id| store.column(run).data.get(i) == id as f64)
                && filter
                    .host_id
                    .is_none_or(|id| store.column(host).data.get(i) == id as f64)
                && store.column(t_col).data.get(i) >= filter.t_min.unwrap_or(f64::NEG_INFINITY)
                && store.column(t_col).data.get(i) <= filter.t_max.unwrap_or(f64::INFINITY);
            if !ok {
                continue;
            }
            let row: Vec<f64> = features
                .iter()
                .map(|&j| store.column(j).data.get(i))
                .collect();
            preds.push(model.predict_row(&row));
            actuals.push(store.column(rttf).data.get(i));
        }
        (preds, actuals)
    }

    #[test]
    fn match_all_equals_brute_force_metrics() {
        let store = store();
        let model = model();
        let smae = SMaeThreshold::Relative(0.10);
        let report = run_query(&store, &model, &QueryFilter::default(), Cohort::Run, smae).unwrap();
        let (preds, actuals) = brute_force(&store, &model, &QueryFilter::default());
        let reference = Metrics::compute(&preds, &actuals, smae);
        assert_eq!(report.rows_matched, store.n_rows());
        assert_eq!(report.rows_scanned, store.n_rows());
        assert_eq!(report.chunks_pruned, 0);
        assert_eq!(report.total.n, reference.n);
        close(report.total.mae, reference.mae);
        close(report.total.smae, reference.smae);
        assert_eq!(report.total.max_ae, reference.max_ae);
        assert_eq!(report.cohorts.len(), 3);
        assert_eq!(
            report.cohorts.iter().map(|(_, s)| s.n).sum::<usize>(),
            store.n_rows()
        );
    }

    #[test]
    fn run_filter_prunes_chunks_and_matches_brute_force() {
        let store = store();
        let model = model();
        let smae = SMaeThreshold::paper_default();
        let filter = QueryFilter {
            run_id: Some(2),
            ..QueryFilter::default()
        };
        let report = run_query(&store, &model, &filter, Cohort::Run, smae).unwrap();
        let (preds, actuals) = brute_force(&store, &model, &filter);
        let reference = Metrics::compute(&preds, &actuals, smae);
        // run_id is monotone across the store, so at least run 0's chunk
        // is prunable.
        assert!(report.chunks_pruned > 0, "{report:?}");
        assert!(report.rows_scanned < store.n_rows());
        assert_eq!(report.rows_matched, preds.len());
        close(report.total.mae, reference.mae);
        close(report.total.smae, reference.smae);
        assert_eq!(report.total.max_ae, reference.max_ae);
        assert_eq!(report.cohorts.len(), 1);
        assert_eq!(report.cohorts[0].0, 2);
    }

    #[test]
    fn time_and_host_filters_compact_rows_correctly() {
        let store = store();
        let model = model();
        let smae = SMaeThreshold::Absolute(5.0);
        let filter = QueryFilter {
            host_id: Some(0),
            t_min: Some(10.0),
            t_max: Some(60.0),
            ..QueryFilter::default()
        };
        let report = run_query(&store, &model, &filter, Cohort::Host, smae).unwrap();
        let (preds, actuals) = brute_force(&store, &model, &filter);
        assert!(!preds.is_empty());
        let reference = Metrics::compute(&preds, &actuals, smae);
        assert_eq!(report.rows_matched, preds.len());
        close(report.total.mae, reference.mae);
        close(report.total.smae, reference.smae);
        assert_eq!(report.total.max_ae, reference.max_ae);
        // Host cohort: runs 0 and 2 are host 0.
        assert_eq!(report.cohorts.len(), 1);
        assert_eq!(report.cohorts[0].0, 0);
        let mean_rttf = actuals.iter().sum::<f64>() / actuals.len() as f64;
        assert!((report.total.mean_rttf - mean_rttf).abs() < 1e-9);
    }

    #[test]
    fn no_match_returns_empty_report() {
        let store = store();
        let model = model();
        let filter = QueryFilter {
            run_id: Some(99),
            ..QueryFilter::default()
        };
        let report = run_query(
            &store,
            &model,
            &filter,
            Cohort::Run,
            SMaeThreshold::paper_default(),
        )
        .unwrap();
        assert_eq!(report.rows_matched, 0);
        assert_eq!(report.chunks_scanned, 0);
        assert_eq!(report.chunks_pruned, store.n_chunks());
        assert!(report.cohorts.is_empty());
        assert!(report.total.mae.is_nan());
    }

    #[test]
    fn width_mismatch_and_missing_columns_are_typed() {
        let store = store();
        let narrow = LinearModel::constant(1.0, WIDTH + 2);
        assert!(matches!(
            run_query(
                &store,
                &narrow,
                &QueryFilter::default(),
                Cohort::Run,
                SMaeThreshold::paper_default(),
            ),
            Err(F2pmError::Ml(f2pm_ml::MlError::WidthMismatch { .. }))
        ));

        let mut b = ColumnStoreBuilder::new(&[("mem", ColumnType::F32)]);
        b.push_row(&[1.0]);
        let bare = b.finish().unwrap();
        match run_query(
            &bare,
            &LinearModel::constant(1.0, 1),
            &QueryFilter::default(),
            Cohort::Run,
            SMaeThreshold::paper_default(),
        ) {
            Err(F2pmError::InvalidConfig { what }) => assert!(what.contains("run_id"), "{what}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
