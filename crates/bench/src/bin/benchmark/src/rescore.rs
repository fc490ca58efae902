//! `rescore`: the columnar history's write and read paths.
//!
//! Set-up is the write path: it simulates the `build` workload's seeded
//! campaign, tiles its history [`WRITE_TILES`] times (distinct run ids),
//! exports it with `ColumnStore::from_history`, tiles the exported rows to
//! exactly [`READ_ROWS`], saves that store as F2PC with `save_columns` and
//! loads it back; `setup_s` is the median of three. The timed phase is
//! the read path: full-scan `run_query` passes with a fitted linear model,
//! and a single-run pruned query after every [`PRUNED_EVERY`] passes. No
//! serving and no training.
//!
//! Files go under `target/benchmark` in the checkout (a disk, not tmpfs).

use crate::report::{Report, TraceData};
use crate::stats::{interpolated, median};
use crate::trace::Tracer;
use crate::{repeated_setup, Ctx};
use f2pm::{run_query, Cohort, CohortStats, QueryFilter, QueryReport};
use f2pm_features::{
    aggregate_history, AggregationConfig, ColumnStore, ColumnStoreBuilder, ColumnType, Dataset,
    COL_RUN_ID, DEFAULT_CHUNK_ROWS,
};
use f2pm_ml::linreg::LinearModel;
use f2pm_ml::{Model, SMaeThreshold};
use f2pm_monitor::{DataHistory, HistoryEvent};
use std::path::Path;
use std::time::Instant;

/// Copies of the campaign history the write path exports.
const WRITE_TILES: usize = 8;

/// Rows of the read path's store: a working set of about 60 MiB, far
/// above the L2 caches, and clear of a power of two so growth of the
/// store's columns does not decide peak memory.
const READ_ROWS: usize = 400_000;

/// Full-scan passes timed at least.
const MIN_PASSES: usize = 10;

/// A pruned single-run query follows every this-many full passes.
const PRUNED_EVERY: usize = 4;

struct Setup {
    model: LinearModel,
    store: ColumnStore,
    /// Rows the export produced.
    exported_rows: usize,
    export_s: f64,
    save_s: f64,
    load_s: f64,
    container_mib: f64,
}

/// `history` repeated `tiles` times; every run keeps its events and gets
/// a fresh run index from its position.
fn tile_history(history: &DataHistory, tiles: usize) -> DataHistory {
    let mut out = DataHistory::new();
    for _ in 0..tiles {
        for e in history.events() {
            match e {
                HistoryEvent::Datapoint(d) => out.push_datapoint(*d),
                HistoryEvent::Fail { t } => out.push_fail(*t),
            }
        }
    }
    out
}

/// `store`'s rows repeated until there are `rows` of them, run ids offset
/// per copy so every run stays distinct.
fn tile_store(store: &ColumnStore, rows: usize) -> ColumnStore {
    let specs: Vec<(&str, ColumnType)> = store
        .columns()
        .iter()
        .map(|c| (c.name.as_str(), c.data.column_type()))
        .collect();
    let run_col = store.column_index(COL_RUN_ID).expect("run_id column");
    let runs = (0..store.n_rows())
        .map(|i| store.column(run_col).data.get(i))
        .fold(0.0, f64::max)
        + 1.0;
    let mut b = ColumnStoreBuilder::with_chunk_rows(&specs, store.chunk_rows());
    let mut row = vec![0.0; specs.len()];
    for k in 0..rows {
        let (tile, i) = (k / store.n_rows(), k % store.n_rows());
        for (j, v) in row.iter_mut().enumerate() {
            *v = store.column(j).data.get(i);
        }
        row[run_col] += tile as f64 * runs;
        b.push_row(&row);
    }
    b.finish().expect("tiled store")
}

fn setup(ctx: &Ctx, dir: &Path) -> Setup {
    let cfg = crate::build::config(ctx.smoke);
    let target = ctx.pick(crate::build::TARGET_ROWS, crate::build::TARGET_ROWS / 10);
    let campaign = crate::build::campaign_history(&cfg, ctx.seed, target);
    let agg = AggregationConfig::default();
    let ds = Dataset::from_points_with(&aggregate_history(&campaign, &agg), &agg);
    let model = LinearModel::fit(&ds.x, &ds.y).expect("fitting the scoring model");
    let history = tile_history(&campaign, WRITE_TILES);
    let t = Instant::now();
    let exported =
        ColumnStore::from_history(&history, &agg, 0, DEFAULT_CHUNK_ROWS).expect("export");
    let export_s = t.elapsed().as_secs_f64();
    drop(history);
    let read = tile_store(&exported, ctx.pick(READ_ROWS, READ_ROWS / 10));
    let path = dir.join("read.f2pc");
    let t = Instant::now();
    f2pm_registry::save_columns(&path, &read).expect("save");
    let save_s = t.elapsed().as_secs_f64();
    drop(read);
    let container_mib = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1048576.0);
    let t = Instant::now();
    let store = f2pm_registry::load_columns(&path).expect("load");
    let load_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    Setup {
        model,
        store,
        exported_rows: exported.n_rows(),
        export_s,
        save_s,
        load_s,
        container_mib,
    }
}

fn same_stats(a: &CohortStats, b: &CohortStats) -> bool {
    a.n == b.n
        && a.mae.to_bits() == b.mae.to_bits()
        && a.smae.to_bits() == b.smae.to_bits()
        && a.max_ae.to_bits() == b.max_ae.to_bits()
        && a.mean_rttf.to_bits() == b.mean_rttf.to_bits()
}

/// Cohort totals of a full pass, compared bit for bit across passes.
fn totals(r: &QueryReport) -> (usize, u64, u64, usize) {
    (
        r.total.n,
        r.total.mae.to_bits(),
        r.total.smae.to_bits(),
        r.cohorts.len(),
    )
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("rescore");
    let dir = ctx.work_dir("rescore");
    let mut write = Vec::new();
    let (s, setup_s) = repeated_setup(
        || {
            let s = setup(ctx, &dir);
            write.push((s.export_s, s.save_s, s.load_s));
            s
        },
        drop,
    );
    report.e2e_metric("setup_s", setup_s);
    report.check(s.exported_rows > 0, || {
        "the export produced no rows".to_string()
    });
    let smae = SMaeThreshold::paper_default();
    let started = Instant::now();

    // Read path.
    let all = QueryFilter::default();
    let mut full_s = Vec::new();
    let mut pruned_s = Vec::new();
    let mut reference: Option<QueryReport> = None;
    let mut pruned_last = None;
    let mut pass = 0usize;
    while full_s.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let got = run_query(&s.store, &s.model, &all, Cohort::Run, smae);
        full_s.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        let full = match got {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("full pass {pass}: {e}"));
                break;
            }
        };
        match &reference {
            None => reference = Some(full),
            Some(first) if totals(first) != totals(&full) => {
                report.failed += 1;
                report.problem(format!("full pass {pass}: cohort totals changed"));
            }
            Some(_) => {}
        }
        pass += 1;
        if pass.is_multiple_of(PRUNED_EVERY) {
            let first = reference.as_ref().expect("set above");
            let (run_id, expected) =
                first.cohorts[pass / PRUNED_EVERY * 7919 % first.cohorts.len()];
            let filter = QueryFilter {
                run_id: Some(run_id),
                ..QueryFilter::default()
            };
            let t = Instant::now();
            let got = run_query(&s.store, &s.model, &filter, Cohort::Run, smae);
            pruned_s.push(t.elapsed().as_secs_f64());
            report.attempted += 1;
            let ok = got.as_ref().is_ok_and(|r| {
                r.cohorts.len() == 1
                    && r.cohorts[0].0 == run_id
                    && same_stats(&r.cohorts[0].1, &expected)
            });
            if !ok {
                report.failed += 1;
                report.problem(format!(
                    "pruned query of run {run_id} differs from the full pass"
                ));
            }
            pruned_last = got.ok();
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    let p50 = median(&full_s);
    report.e2e_metric("result_p50_ms", p50 * 1e3);
    report.e2e_metric("result_p90_ms", interpolated(&full_s, 0.9) * 1e3);
    report.e2e_metric("rate_per_s", s.store.n_rows() as f64 / p50);
    report.detail("read_rows", s.store.n_rows().to_string());
    report.detail("exported_rows", s.exported_rows.to_string());
    report.detail("full_passes", full_s.len().to_string());

    if ctx.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        let cols = s.store.feature_column_indices();
        let mut scratch = Vec::new();
        let mut out = vec![0.0; s.store.chunk_rows()];
        let mut predict_ms = Vec::new();
        let mut query_ms = Vec::new();
        for rep in 0..MIN_PASSES as u64 {
            let t = Instant::now();
            tracer
                .span("core.query", rep, |_| {
                    run_query(&s.store, &s.model, &all, Cohort::Run, smae)
                })
                .expect("query");
            query_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            tracer.span("ml.predict_columns", rep, |_| {
                for chunk in s.store.chunks() {
                    let features = chunk.features(&cols);
                    s.model
                        .predict_columns(&features, &mut scratch, &mut out[..chunk.len()])
                        .expect("scoring a chunk");
                }
            });
            predict_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let query = median(&query_ms);
        let predict = median(&predict_ms);
        let part =
            |f: fn(&(f64, f64, f64)) -> f64| median(&write.iter().map(f).collect::<Vec<_>>());
        report.layer("features.export_s", part(|w| w.0));
        report.layer("registry.save_s", part(|w| w.1));
        report.layer("registry.load_s", part(|w| w.2));
        report.layer("registry.container_mib", s.container_mib);
        report.layer("core.query_ms", query);
        report.layer("ml.predict_columns_ms", predict);
        if !pruned_s.is_empty() {
            report.layer("core.pruned_query_us", median(&pruned_s) * 1e6);
        }
        if let Some(p) = &pruned_last {
            report.layer("core.chunks_pruned", p.chunks_pruned as f64);
        }
        let residual = (query - predict) / query;
        report.layer("rescore.residual", residual);
        report.trace = Some(TraceData { tracer, residual });
    }
    report
}
