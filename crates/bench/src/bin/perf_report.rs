//! `perf_report` — one-shot compute-core performance snapshot.
//!
//! Times the three optimized hot paths against their seed-style baselines
//! (Gram construction, SVR training, batched prediction) with plain
//! wall-clock best-of-N and writes the numbers to `BENCH_compute.json`
//! (override with `--out <path>`). Unlike the criterion benches this is
//! meant to be committed: it gives the next session a tracked baseline.
//!
//! `--smoke` is the CI gate variant: 1/5-scale problems, one timed rep,
//! and a scratch output under `target/` so the tracked baseline survives.

use f2pm::F2pmConfig;
use f2pm_features::{LassoProblem, LassoSolverConfig};
use f2pm_linalg::{conjugate_gradient, CgOptions, Cholesky, Matrix};
use f2pm_ml::{
    Kernel, LsSvmRegressor, M5Params, M5Prime, Model, Regressor, SvrParams, SvrRegressor,
};
use std::fmt::Write as _;
use std::time::Instant;

fn sample(n: usize, p: usize, phase: f64) -> Matrix {
    let mut x = Matrix::zeros(n, p);
    for i in 0..n {
        for j in 0..p {
            x[(i, j)] = ((i * p + j) as f64 * 0.37 + phase).sin() * 2.0 + (i as f64 * 0.013).cos();
        }
    }
    x
}

fn target(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.11).cos() * 40.0 + 100.0)
        .collect()
}

/// Plateau-style RTTF target: long stable stretches with occasional
/// degradation ramps, so most residuals end up inside the SVR ε tube —
/// the regime the shrinking heuristic exists for. (On dense targets where
/// every point is a support vector, shrinking has nothing to skip.)
fn plateau_target(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i % 40 < 6 {
                130.0 + (i as f64 * 0.11).cos() * 8.0
            } else {
                100.0 + (i as f64 * 0.017).sin() * 2.0
            }
        })
        .collect()
}

/// Best-of-`reps` wall-clock seconds for `f` (one untimed warmup).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Seconds each side of an interleaved comparison runs for at least.
const PAIR_BUDGET_S: f64 = 0.5;

/// Time `a` and `b` in interleaved pairs, alternating which goes first,
/// until there are at least five pairs and each side has spent
/// [`PAIR_BUDGET_S`]. Returns both sides' times, pair by pair, after one
/// untimed warm-up call of each.
fn interleaved_pairs<A, B>(
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Vec<f64>, Vec<f64>) {
    std::hint::black_box(a());
    std::hint::black_box(b());
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    while ta.len() < 5 || ta.iter().sum::<f64>().min(tb.iter().sum()) < PAIR_BUDGET_S {
        let t = Instant::now();
        if ta.len() % 2 == 0 {
            std::hint::black_box(a());
            let mid = Instant::now();
            std::hint::black_box(b());
            ta.push((mid - t).as_secs_f64());
            tb.push(mid.elapsed().as_secs_f64());
        } else {
            std::hint::black_box(b());
            let mid = Instant::now();
            std::hint::black_box(a());
            tb.push((mid - t).as_secs_f64());
            ta.push(mid.elapsed().as_secs_f64());
        }
    }
    (ta, tb)
}

/// Median of `v` (sorted in place).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// Replica of the seed's large-`n` Gram path: all n² pairs, no symmetry.
fn seed_naive_gram(kern: &Kernel, x: &Matrix) -> Matrix {
    let n = x.rows();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        let ri = x.row(i);
        for j in 0..n {
            k[(i, j)] = kern.eval(ri, x.row(j));
        }
    }
    k
}

/// DESIGN.md §13 columnar benchmark: a synthetic multi-million-row fleet
/// history re-scored the row-oriented way (per-run aggregation, per-window
/// row materialization, `predict_row`, two-pass metrics — the repo's
/// offline idiom before the column store) versus the columnar query
/// engine over the same data (aggregation paid once at export, then
/// chunk-at-a-time `predict_columns` with streaming cohort metrics).
fn columnar_section(json: &mut String, reps: usize, smoke: bool) {
    use f2pm::{run_query, Cohort, QueryFilter};
    use f2pm_features::{aggregate_run, AggregationConfig, ColumnStore, DEFAULT_CHUNK_ROWS};
    use f2pm_ml::linreg::LinearModel;
    use f2pm_ml::{Metrics, SMaeThreshold};
    use f2pm_monitor::{DataHistory, Datapoint};

    let agg = AggregationConfig::default(); // 10 s windows, >= 2 points
    let n_runs = if smoke { 500 } else { 5000 };
    let windows_per_run = 400usize;
    eprintln!(
        "columnar: generating {n_runs} runs (~{} aggregated rows)...",
        n_runs * windows_per_run
    );
    // Two raw datapoints per 10 s window at a 5 s interval; integer-hash
    // value formulas keep generation cheap and fully deterministic.
    let mut history = DataHistory::new();
    for r in 0..n_runs {
        let span = windows_per_run as f64 * agg.window_s;
        for k in 0..windows_per_run * 2 {
            let t = k as f64 * 5.0 + 1.0;
            let mut values = [0.0f64; 14];
            for (j, v) in values.iter_mut().enumerate() {
                *v = ((k * 31 + j * 7 + r * 13) % 1000) as f64 + j as f64 * 100.0;
            }
            history.push_datapoint(Datapoint { t_gen: t, values });
        }
        history.push_fail(span + 5.0);
    }

    // A fixed linear model (no fit): the bench measures scoring paths,
    // not training, and fixed coefficients keep runs comparable.
    let width = f2pm_features::aggregate::aggregated_column_names_with(&agg).len();
    let model = LinearModel {
        intercept: 120.0,
        coefficients: (0..width)
            .map(|j| ((j * 7 % 13) as f64 - 6.0) * 0.1)
            .collect(),
    };
    let smae = SMaeThreshold::paper_default();

    // Like the predict section: the headline is a *ratio*, and single
    // measurements on a noisy box swing it by 2x — floor the reps for
    // both sides of the comparison.
    let reps = reps.max(5);

    // --- Export + container round-trip (each timed single-shot: these
    // are once-per-history costs, not per-query ones). ---
    eprintln!("columnar: exporting...");
    let t = Instant::now();
    let store = ColumnStore::from_history(&history, &agg, 0, DEFAULT_CHUNK_ROWS).expect("export");
    let export_s = t.elapsed().as_secs_f64();

    let path = "target/perf_columnar.f2pc";
    let t = Instant::now();
    f2pm_registry::save_columns(path, &store).expect("save");
    let save_s = t.elapsed().as_secs_f64();
    let container_mb = std::fs::metadata(path).expect("stat").len() as f64 / (1024.0 * 1024.0);
    drop(store);
    let t = Instant::now();
    let store = f2pm_registry::load_columns(path).expect("load");
    let load_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(path).ok();

    // --- Row-oriented baseline: the repo's own offline idiom — exactly
    // what the `predict` / `evaluate` commands do per invocation:
    // partition the history into runs, aggregate each run's windows,
    // score row-at-a-time, reduce metrics per run. The run partition is
    // part of every row-oriented pass (nothing caches it), so it is
    // timed; the columnar side's one-off equivalent (export) is reported
    // separately above.
    let row_rescore = || {
        let runs = history.runs();
        let mut rows = 0usize;
        let mut mae_sum = 0.0;
        let mut smae_sum = 0.0;
        for run in &runs {
            let points = aggregate_run(run, &agg);
            let mut preds = Vec::with_capacity(points.len());
            let mut actuals = Vec::with_capacity(points.len());
            let mut row = [0.0; 30];
            for p in &points {
                let Some(rttf) = p.rttf else { continue };
                p.write_into(&agg, &mut row);
                preds.push(model.predict_row(&row));
                actuals.push(rttf);
            }
            if preds.is_empty() {
                continue;
            }
            let m = Metrics::compute(&preds, &actuals, smae);
            rows += m.n;
            mae_sum += m.mae * m.n as f64;
            smae_sum += m.smae * m.n as f64;
        }
        (rows, mae_sum, smae_sum)
    };

    // --- Interleaved measurement: the headline is the ratio of the two
    // re-score paths, and on a noisy (shared) box back-to-back blocks of
    // reps see different steal/frequency regimes — alternating the two
    // sides inside each rep exposes both to the same regime.
    eprintln!("columnar: re-scoring, row-oriented vs vectorized ({reps} interleaved reps)...");
    let all = QueryFilter::default();
    let columnar_rescore = || run_query(&store, &model, &all, Cohort::Run, smae).expect("query");
    std::hint::black_box(row_rescore());
    std::hint::black_box(columnar_rescore());
    let mut row_s = f64::INFINITY;
    let mut col_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(row_rescore());
        row_s = row_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(columnar_rescore());
        col_s = col_s.min(t.elapsed().as_secs_f64());
    }
    let (row_rows, row_mae_sum, row_smae_sum) = row_rescore();
    let row_mae = row_mae_sum / row_rows as f64;
    let row_smae = row_smae_sum / row_rows as f64;
    drop(history);
    assert_eq!(store.n_rows(), row_rows, "export row count");
    let report = columnar_rescore();
    assert_eq!(report.rows_matched, row_rows);

    // The columnar features are f32, the row path feeds f64 rows — the
    // aggregate metrics must agree to f32 precision, not bit-exactly.
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
    let metrics_match =
        rel(report.total.mae, row_mae) < 1e-3 && rel(report.total.smae, row_smae) < 1e-3;
    assert!(
        metrics_match,
        "columnar metrics diverged: mae {} vs {row_mae}, smae {} vs {row_smae}",
        report.total.mae, report.total.smae
    );

    // --- Zone-map pruning: a single-run filter on the monotone run_id
    // column skips almost every chunk. ---
    let one_run = QueryFilter {
        run_id: Some(n_runs as u64 - 1),
        ..QueryFilter::default()
    };
    let pruned_s = best_of(reps, || {
        run_query(&store, &model, &one_run, Cohort::Run, smae).expect("query")
    });
    let pruned = run_query(&store, &model, &one_run, Cohort::Run, smae).expect("query");
    assert!(pruned.chunks_pruned > 0, "zone maps pruned nothing");

    let speedup = row_s / col_s;
    eprintln!(
        "  rows {row_rows}: row {row_s:.4}s, columnar {col_s:.4}s ({speedup:.2}x), \
         pruned query {pruned_s:.6}s ({} of {} chunks pruned)",
        pruned.chunks_pruned,
        pruned.chunks_pruned + pruned.chunks_scanned
    );

    let _ = writeln!(json, "  \"columnar\": {{");
    let _ = writeln!(json, "    \"rows\": {row_rows},");
    let _ = writeln!(json, "    \"chunk_rows\": {},", store.chunk_rows());
    let _ = writeln!(json, "    \"export_s\": {export_s:.6},");
    let _ = writeln!(json, "    \"save_s\": {save_s:.6},");
    let _ = writeln!(json, "    \"load_s\": {load_s:.6},");
    let _ = writeln!(json, "    \"container_mb\": {container_mb:.1},");
    let _ = writeln!(json, "    \"row_rescore_s\": {row_s:.6},");
    let _ = writeln!(
        json,
        "    \"row_rows_per_s\": {:.0},",
        row_rows as f64 / row_s
    );
    let _ = writeln!(json, "    \"columnar_rescore_s\": {col_s:.6},");
    let _ = writeln!(
        json,
        "    \"columnar_rows_per_s\": {:.0},",
        row_rows as f64 / col_s
    );
    let _ = writeln!(json, "    \"speedup\": {speedup:.2},");
    let _ = writeln!(json, "    \"metrics_match\": {metrics_match},");
    let _ = writeln!(json, "    \"pruned_query_s\": {pruned_s:.6},");
    let _ = writeln!(json, "    \"chunks_scanned\": {},", pruned.chunks_scanned);
    let _ = writeln!(json, "    \"chunks_pruned\": {}", pruned.chunks_pruned);
    let _ = writeln!(json, "  }},");
}

/// DESIGN.md §15 warm-start retraining benchmark: sliding-window shifts
/// (oldest run retired, newest appended) retrained warm — rank-k Cholesky
/// maintenance of the live factors — versus the cold from-scratch rebuild
/// of the same window through the offline fit path. Two shapes: the
/// newest run as long as the one it evicts (rows out == rows in, the
/// in-place shift), and one window longer (rows out != rows in, which is
/// what a live window mostly sees, since runs differ in length).
/// Always run at full scale, `--smoke` included: the speedup is the gated
/// headline and it grows with the window, so a 1/5-scale window would
/// gate a different (much weaker) claim. Next to each shape's `warm_s`,
/// `shift_s` and `dual_s` are the engine's own timings of that retrain's
/// shift and dual stages (`RetrainOutcome`), min-of-reps like `warm_s`.
fn retrain_section(json: &mut String, reps: usize) {
    use f2pm::{FactorPath, RetrainConfig, RetrainEngine};
    use f2pm_features::{aggregate_run, AggregationConfig};
    use f2pm_monitor::{Datapoint, RunData};

    let agg = AggregationConfig::default(); // 10 s windows, >= 2 points
    let window_runs = 250usize;
    let windows_per_run = 8usize; // 250 runs x 8 rows = the paper-scale 2000

    // Two raw datapoints per window at a 5 s interval; per-column phase
    // decorrelation so the standardized design is well-conditioned.
    let make_run = |seed: usize, windows: usize| -> RunData {
        let span = windows as f64 * agg.window_s;
        let datapoints = (0..windows * 2)
            .map(|k| {
                let t = k as f64 * 5.0 + 1.0;
                let mut values = [0.0f64; 14];
                for (j, v) in values.iter_mut().enumerate() {
                    *v = 1.0
                        + 0.01 * t * (1.0 + j as f64 * 0.1)
                        + (seed as f64 * 0.37 + j as f64).sin();
                }
                Datapoint { t_gen: t, values }
            })
            .collect();
        RunData {
            datapoints,
            fail_time: Some(span + 5.0),
        }
    };

    eprintln!(
        "retrain: {window_runs}-run window ({} rows), 1-run shifts...",
        window_runs * windows_per_run
    );
    let cfg = RetrainConfig {
        aggregation: agg,
        ..RetrainConfig::new(window_runs)
    };
    let mut base = RetrainEngine::new(cfg);
    for seed in 0..window_runs - 1 {
        base.push_run(&make_run(seed, windows_per_run));
    }
    // First retrain: freezes the standardizer and cold-builds every
    // maintained factor. Timed once — it is a once-per-engine cost.
    let t = Instant::now();
    base.retrain().expect("initial retrain");
    let initial_cold_s = t.elapsed().as_secs_f64();
    // The last run fills the window warm, as a live window fills, which
    // leaves the factor the slack a steady-state shift runs in.
    base.push_run(&make_run(window_runs - 1, windows_per_run));
    base.retrain().expect("filling retrain");
    let window_rows = base.window_rows();
    eprintln!("  initial cold {initial_cold_s:.4}s");

    // The newest run enters, the oldest leaves: the shift every
    // continuous-retraining tick pays. Interleaved min-of-reps, warm side
    // on a clone so every rep replays the identical pending shift (clones
    // are untimed).
    let retrain_reps = reps.max(9);
    let shift = |newest_windows: usize| -> String {
        let newest = make_run(window_runs, newest_windows);
        let mut pending = base.clone();
        pending.push_run(&newest);
        let (mut warm_s, mut shift_s, mut dual_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut cold_s = f64::INFINITY;
        let mut outcomes = None;
        for _ in 0..retrain_reps {
            let mut engine = pending.clone();
            let t = Instant::now();
            let warm = engine.retrain().expect("warm retrain");
            warm_s = warm_s.min(t.elapsed().as_secs_f64());
            shift_s = shift_s.min(warm.shift_s);
            dual_s = dual_s.min(warm.dual_s);
            let t = Instant::now();
            let cold = pending.retrain_cold().expect("cold retrain");
            cold_s = cold_s.min(t.elapsed().as_secs_f64());
            assert_eq!(warm.lssvm_path, FactorPath::Warm, "shift must stay warm");
            assert_eq!(warm.retired_rows, windows_per_run);
            assert_eq!(warm.appended_rows, newest_windows);
            outcomes = Some((warm, cold));
        }
        let (warm, cold) = outcomes.expect("at least one rep");

        // The equivalence contract, checked on the numbers being
        // committed: warm and cold models must agree to 1e-6 on the
        // newest run's rows.
        let max_pred_delta = aggregate_run(&newest, &agg)
            .iter()
            .filter(|p| p.rttf.is_some())
            .map(|p| {
                let row = p.inputs_with(&agg);
                (warm.model.predict_row(&row) - cold.model.predict_row(&row)).abs()
            })
            .fold(0.0, f64::max);
        assert!(
            max_pred_delta < 1e-6,
            "warm/cold prediction divergence {max_pred_delta:e}"
        );
        let speedup = cold_s / warm_s;
        eprintln!(
            "  {windows_per_run} rows out, {newest_windows} in: cold {cold_s:.4}s, \
             warm {warm_s:.4}s ({speedup:.2}x; shift {shift_s:.4}s, dual {dual_s:.4}s), \
             max pred delta {max_pred_delta:.2e}"
        );
        format!(
            "\"retired_rows\": {windows_per_run}, \"appended_rows\": {newest_windows}, \
             \"cold_s\": {cold_s:.6}, \"warm_s\": {warm_s:.6}, \"speedup\": {speedup:.2}, \
             \"shift_s\": {shift_s:.6}, \"dual_s\": {dual_s:.6}, \
             \"max_pred_delta\": {max_pred_delta:e}"
        )
    };
    let equal = shift(windows_per_run);
    let unequal = shift(windows_per_run + 1);

    let _ = writeln!(json, "  \"retrain\": {{");
    let _ = writeln!(json, "    \"window_runs\": {window_runs},");
    let _ = writeln!(json, "    \"window_rows\": {window_rows},");
    let _ = writeln!(json, "    \"initial_cold_s\": {initial_cold_s:.6},");
    let _ = writeln!(json, "    \"equal_shift\": {{{equal}}},");
    let _ = writeln!(json, "    \"unequal_shift\": {{{unequal}}}");
    let _ = writeln!(json, "  }},");
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_path = Some(it.next().expect("--out needs a path").clone());
            }
            // CI mode: tiny sizes, single timed rep, and a scratch output
            // path so the committed baseline BENCH_compute.json is not
            // overwritten by throwaway numbers.
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown flag {other:?} (supported: --out <path>, --smoke)");
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            "target/BENCH_compute_smoke.json".to_string()
        } else {
            "BENCH_compute.json".to_string()
        }
    });
    let reps = if smoke { 1 } else { 3 };
    let scale = if smoke { 5 } else { 1 };

    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"f2pm-bench perf_report\",");
    let _ = writeln!(json, "  \"machine_threads\": {threads},");
    // The worker count the fan-out paths actually use (F2PM_THREADS
    // override included) — `machine_threads` alone under-reported runs
    // where the pool was pinned, making cross-machine numbers look
    // comparable when they were not.
    let _ = writeln!(json, "  \"pool_threads\": {},", f2pm_linalg::pool_threads());

    // --- Gram construction at the paper's campaign scale (2000 x 30). ---
    let (n, p) = (2000 / scale, 30);
    let x = sample(n, p, 0.0);
    eprintln!("gram {n}x{p}...");
    let _ = writeln!(json, "  \"gram_{n}x{p}\": {{");
    for (idx, (label, kern)) in [
        ("linear", Kernel::Linear),
        ("rbf", Kernel::Rbf { gamma: 0.03 }),
    ]
    .iter()
    .enumerate()
    {
        let naive = best_of(reps, || seed_naive_gram(kern, &x));
        let opt = best_of(reps, || kern.matrix(&x));
        eprintln!(
            "  {label}: naive {naive:.4}s, optimized {opt:.4}s ({:.2}x)",
            naive / opt
        );
        let _ = writeln!(json, "    \"{label}_seed_naive_s\": {naive:.6},");
        let _ = writeln!(json, "    \"{label}_optimized_s\": {opt:.6},");
        let tail = if idx == 1 { "" } else { "," };
        let _ = writeln!(json, "    \"{label}_speedup\": {:.2}{tail}", naive / opt);
    }
    let _ = writeln!(json, "  }},");

    // --- SVR training (shrinking on vs off). Two sizes: the historical
    // 800-row point, plus a larger one where the tube pins most
    // coordinates and shrinking has real work to skip. ---
    let (tn, tp) = (800 / scale, 12);
    let tx = sample(tn, tp, 0.4);
    let ty = target(tn);
    for n in [800 / scale, 1600 / scale] {
        let sx = sample(n, tp, 0.4);
        let sy = plateau_target(n);
        eprintln!("svr train {n}x{tp}...");
        let fit = |shrinking: bool| {
            SvrRegressor::new(SvrParams {
                kernel: Kernel::Rbf { gamma: 0.05 },
                shrinking,
                ..SvrParams::default()
            })
            .fit_svr(&sx, &sy)
            .expect("svr fit")
        };
        // Both benchmarked sizes sit below SVR_SHRINK_MIN_N, so the
        // shrinking config resolves to the plain sweep and the ratio is
        // gated in CI as a pure activation-threshold regression check.
        // A fit is 1-30 ms, where one scheduler hiccup swings a min-of-5
        // by 10%: time interleaved pairs and report the median of the
        // per-pair ratios.
        let (mut plain, mut shrunk) = interleaved_pairs(|| fit(false), || fit(true));
        let mut ratios: Vec<f64> = plain.iter().zip(&shrunk).map(|(p, s)| p / s).collect();
        let (pairs, speedup) = (ratios.len(), median(&mut ratios));
        let (plain, shrunk) = (median(&mut plain), median(&mut shrunk));
        eprintln!("  plain {plain:.4}s, shrinking {shrunk:.4}s ({speedup:.2}x over {pairs} pairs)");
        let _ = writeln!(json, "  \"svr_train_{n}x{tp}\": {{");
        let _ = writeln!(json, "    \"no_shrinking_s\": {plain:.6},");
        let _ = writeln!(json, "    \"shrinking_s\": {shrunk:.6},");
        let _ = writeln!(json, "    \"pairs\": {pairs},");
        let _ = writeln!(json, "    \"speedup\": {speedup:.2}");
        let _ = writeln!(json, "  }},");
    }
    let fit = |shrinking: bool| {
        SvrRegressor::new(SvrParams {
            kernel: Kernel::Rbf { gamma: 0.05 },
            shrinking,
            ..SvrParams::default()
        })
        .fit_svr(&tx, &ty)
        .expect("svr fit")
    };

    // --- Batched prediction: per-row loop vs predict_batch. ---
    let query = sample(2000 / scale, tp, 1.7);
    eprintln!("predict {} rows...", query.rows());
    let _ = writeln!(json, "  \"predict_{}\": {{", query.rows());
    let models: Vec<(&str, Box<dyn Model>)> = vec![
        ("svr", Box::new(fit(true))),
        (
            "ls_svm",
            LsSvmRegressor::new(Kernel::Rbf { gamma: 0.05 }, 10.0)
                .fit(&tx, &ty)
                .expect("ls-svm fit"),
        ),
    ];
    for (idx, (name, model)) in models.iter().enumerate() {
        // The batch-vs-per-row ratio is gated at 1.05x, so it comes from
        // interleaved pairs, as the SVR section's does: a CPU-steal burst
        // then lands on both sides of a pair instead of on one side's
        // minimum.
        let (mut per_row, mut batch) = interleaved_pairs(
            || -> Vec<f64> {
                (0..query.rows())
                    .map(|i| model.predict_row(query.row(i)))
                    .collect()
            },
            || model.predict_batch(&query).expect("width"),
        );
        let mut ratios: Vec<f64> = batch.iter().zip(&per_row).map(|(b, r)| b / r).collect();
        let (pairs, ratio) = (ratios.len(), median(&mut ratios));
        let (per_row, batch) = (median(&mut per_row), median(&mut batch));
        eprintln!(
            "  {name}: per-row {per_row:.4}s, batch {batch:.4}s ({ratio:.3}x over {pairs} pairs)"
        );
        if smoke {
            // The predict_2000 regression gate: batch scoring must never
            // lose to the per-row loop beyond noise. 1.05x plus a 250µs
            // absolute allowance on the median per-row time: a --smoke
            // pass is under a millisecond, where scheduler jitter alone
            // exceeds 5% — the regression this guards against cost whole
            // milliseconds.
            assert!(
                ratio * per_row <= per_row * 1.05 + 250e-6,
                "{name}: predict_batch at {ratio:.3}x the per-row loop \
                 ({per_row:.6}s) over {pairs} pairs, above 1.05x + 250us"
            );
        }
        let _ = writeln!(json, "    \"{name}_per_row_s\": {per_row:.6},");
        let tail = if idx + 1 == models.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}_batch_s\": {batch:.6}{tail}");
    }
    let _ = writeln!(json, "  }},");

    columnar_section(&mut json, reps, smoke);

    retrain_section(&mut json, reps);

    // --- Training pipeline: the fast-training rework tracked keys. ---
    let _ = writeln!(json, "  \"training\": {{");

    // LS-SVM linear system at the paper's campaign scale: the blocked
    // right-looking factorization vs the two seed-era baselines (scalar
    // Cholesky, CG pair at a 1e-8 tolerance).
    let (ln, lp) = (2000 / scale, 30);
    let lx = sample(ln, lp, 2.3);
    let ly = target(ln);
    eprintln!("lssvm solve {ln}x{ln}...");
    let mut a = Kernel::Rbf { gamma: 0.03 }.matrix(&lx);
    for i in 0..ln {
        a[(i, i)] += 0.1; // + I/γ at the suite's γ = 10
    }
    let ones = vec![1.0; ln];
    let blocked = best_of(reps, || {
        let ch = Cholesky::factor(&a).expect("spd");
        (
            ch.solve(&ones).expect("solve"),
            ch.solve(&ly).expect("solve"),
        )
    });
    let scalar = best_of(reps, || {
        let ch = Cholesky::factor_scalar(&a).expect("spd");
        (
            ch.solve(&ones).expect("solve"),
            ch.solve(&ly).expect("solve"),
        )
    });
    let cg_opts = CgOptions {
        max_iter: Some(20 * ln),
        tol: 1e-8,
    };
    let cg = best_of(reps, || {
        (
            conjugate_gradient(&a, &ones, cg_opts).expect("cg").x,
            conjugate_gradient(&a, &ly, cg_opts).expect("cg").x,
        )
    });
    eprintln!(
        "  blocked {blocked:.4}s, scalar {scalar:.4}s ({:.2}x), cg {cg:.4}s ({:.2}x)",
        scalar / blocked,
        cg / blocked
    );
    let _ = writeln!(json, "    \"lssvm_cholesky_n\": {ln},");
    let _ = writeln!(json, "    \"lssvm_blocked_s\": {blocked:.6},");
    let _ = writeln!(json, "    \"lssvm_scalar_cholesky_s\": {scalar:.6},");
    let _ = writeln!(json, "    \"lssvm_cg_s\": {cg:.6},");
    let _ = writeln!(
        json,
        "    \"lssvm_speedup_vs_scalar\": {:.2},",
        scalar / blocked
    );
    let _ = writeln!(json, "    \"lssvm_speedup_vs_cg\": {:.2},", cg / blocked);

    // Lasso λ path with warm starts: active-set + sequential strong rule
    // vs the dense cyclic reference. At the paper's 30-44 columns both
    // solvers finish in microseconds (the path is Gram-based, so the cost
    // is in p, not n) — benched here at a wider design where the
    // active-set asymptotics actually separate the two. The target is a
    // sparse combination of columns and the grid is scaled to the
    // problem's λ_max so every point has a non-trivial support to find
    // (the paper's absolute grid would zero out this synthetic design).
    let (an, ap) = (2000 / scale, 400 / scale.min(4));
    let ax = sample(an, ap, 3.1);
    let ay: Vec<f64> = (0..an)
        .map(|i| {
            3.0 * ax[(i, 7 % ap)] - 2.0 * ax[(i, ap / 3)]
                + 1.5 * ax[(i, ap - 5)]
                + (i as f64 * 0.11).cos() * 0.5
        })
        .collect();
    eprintln!("lasso path {an}x{ap}...");
    let prob = LassoProblem::new(&ax, &ay);
    let cfg = LassoSolverConfig::default();
    let lam_max = prob.lambda_max();
    let grid: Vec<f64> = (0..10).map(|k| lam_max * 0.6f64.powi(10 - k)).collect();
    let run_path = |active_set: bool| {
        let mut warm: Option<Vec<f64>> = None;
        let mut prev: Option<f64> = None;
        let mut nnz = 0usize;
        for &lam in &grid {
            let sol = match (active_set, prev) {
                (true, Some(lp)) => prob.solve_path_step(lam, lp, warm.as_deref(), &cfg),
                (true, None) => prob.solve(lam, warm.as_deref(), &cfg),
                (false, _) => prob.solve_reference(lam, warm.as_deref(), &cfg),
            };
            nnz += sol.selected().len();
            warm = Some(sol.beta.clone());
            prev = Some(lam);
        }
        nnz
    };
    let path_fast = best_of(reps, || run_path(true));
    let path_ref = best_of(reps, || run_path(false));
    eprintln!(
        "  active-set {path_fast:.4}s, reference {path_ref:.4}s ({:.2}x)",
        path_ref / path_fast
    );
    let _ = writeln!(json, "    \"lasso_path_n\": {an},");
    let _ = writeln!(json, "    \"lasso_path_p\": {ap},");
    let _ = writeln!(json, "    \"lasso_path_active_set_s\": {path_fast:.6},");
    let _ = writeln!(json, "    \"lasso_path_reference_s\": {path_ref:.6},");
    let _ = writeln!(
        json,
        "    \"lasso_path_speedup\": {:.2},",
        path_ref / path_fast
    );

    // M5P model tree: one stable presort reused down the tree vs the
    // per-node re-sorting reference.
    let (mn, mp) = (2000 / scale, 30);
    let mx = sample(mn, mp, 4.7);
    let my = target(mn);
    eprintln!("m5p fit {mn}x{mp}...");
    let fit_tree = |presort: bool| {
        M5Prime::new(M5Params {
            presort,
            ..M5Params::default()
        })
        .fit_m5(&mx, &my)
        .expect("m5p fit")
    };
    let m5_pre = best_of(reps, || fit_tree(true));
    let m5_sort = best_of(reps, || fit_tree(false));
    eprintln!(
        "  presort {m5_pre:.4}s, re-sort {m5_sort:.4}s ({:.2}x)",
        m5_sort / m5_pre
    );
    let _ = writeln!(json, "    \"m5p_presort_s\": {m5_pre:.6},");
    let _ = writeln!(json, "    \"m5p_resort_s\": {m5_sort:.6},");
    let _ = writeln!(json, "    \"m5p_speedup\": {:.2},", m5_sort / m5_pre);

    // Full workflow wall time: campaign → aggregation → selection →
    // (variant × method) model-generation grid.
    let wf_cfg = if smoke {
        F2pmConfig::quick()
    } else {
        F2pmConfig::default()
    };
    eprintln!("workflow...");
    let wf = best_of(if smoke { 1 } else { reps }, || {
        f2pm::run_workflow(&wf_cfg, 42).expect("workflow")
    });
    eprintln!("  wall {wf:.4}s");
    let _ = writeln!(json, "    \"workflow_wall_s\": {wf:.6}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("writing BENCH_compute.json");
    println!("wrote {out_path}");
}
