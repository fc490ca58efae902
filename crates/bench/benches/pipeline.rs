//! Benches of the data pipeline stages feeding every table/figure:
//! datapoint aggregation (Fig. 2 scheme), the lasso regularization path
//! (Fig. 4), and the metric computation (§III-D), plus the wire codec the
//! FMC speaks.
//!
//! Run with `cargo bench -p f2pm-bench --bench pipeline`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use f2pm::F2pmConfig;
use f2pm_features::{aggregate_history, lasso_path, paper_lambda_grid, Dataset, LassoSolverConfig};
use f2pm_ml::{Metrics, SMaeThreshold};
use f2pm_monitor::{DataHistory, Datapoint, Message};
use f2pm_sim::Campaign;

fn history(runs: usize) -> DataHistory {
    let cfg = F2pmConfig::builder().runs(runs).build().expect("valid");
    let campaign_runs = Campaign::new(cfg.campaign.clone(), 7).run_all();
    DataHistory::from_campaign(&campaign_runs)
}

fn bench_aggregation(c: &mut Criterion) {
    let cfg = F2pmConfig::default();
    let h = history(4);
    let n = h.datapoint_count();
    let mut group = c.benchmark_group("pipeline/aggregation");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(
        BenchmarkId::from_parameter(format!("{n}_datapoints")),
        |b| b.iter(|| aggregate_history(&h, &cfg.aggregation)),
    );
    group.finish();
}

fn bench_lasso_path(c: &mut Criterion) {
    let cfg = F2pmConfig::default();
    let h = history(4);
    let points = aggregate_history(&h, &cfg.aggregation);
    let ds = Dataset::from_points(&points);
    let grid = paper_lambda_grid();
    let mut group = c.benchmark_group("pipeline/lasso_path");
    group.sample_size(20);
    group.bench_function(
        BenchmarkId::from_parameter(format!("{}x{}", ds.len(), ds.width())),
        |b| b.iter(|| lasso_path(&ds, &grid, &LassoSolverConfig::default())),
    );
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let n = 10_000;
    let pred: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let actual: Vec<f64> = (0..n).map(|i| i as f64 * 1.01 + 3.0).collect();
    let mut group = c.benchmark_group("pipeline/metrics");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("smae_10pct_10k", |b| {
        b.iter(|| Metrics::compute(&pred, &actual, SMaeThreshold::paper_default()))
    });
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let d = Datapoint {
        t_gen: 123.4,
        values: [42.0; 14],
    };
    let frame = Message::Datapoint(d).encode();
    let mut group = c.benchmark_group("pipeline/wire");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode_datapoint", |b| {
        b.iter(|| Message::Datapoint(d).encode())
    });
    group.bench_function("decode_datapoint", |b| {
        b.iter(|| Message::decode(&frame[4..]).expect("decode"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_aggregation,
    bench_lasso_path,
    bench_metrics,
    bench_wire_codec
);
criterion_main!(benches);
