//! Subcommand implementations and the tiny flag parser.

use f2pm::F2pmConfig;
use f2pm_features::{aggregate_history, aggregate_run, AggregationConfig, Dataset};
use f2pm_ml::{
    evaluate_all, LsSvmRegressor, M5Params, M5Prime, Metrics, RepTree, RepTreeParams,
    SMaeThreshold, SavedModel, SvrParams, SvrRegressor,
};
use f2pm_monitor::{load_csv, save_csv, Collector, DataHistory, ProcCollector};
use f2pm_registry::{artifact, ArtifactMeta, ModelStore};
use f2pm_serve::{InstanceClient, ModelRegistry, PredictionServer, ServeConfig, StoreWatcher};
use f2pm_sim::Campaign;
use std::collections::HashMap;

/// Top-level usage text.
pub const USAGE: &str = "\
f2pm — Framework for building Failure Prediction Models

USAGE:
  f2pm campaign --runs N [--seed S] [--quick] --out history.csv
  f2pm monitor  --seconds N [--interval SECS] --out history.csv
  f2pm evaluate --history history.csv [--window SECS] [--train-frac F]
  f2pm train    --history history.csv --method NAME [--out model.f2pm]
                [--save-artifact DIR] [--window SECS]
  f2pm predict  --model model.f2pm --history history.csv
  f2pm serve    (--model model.f2pm | --models-dir DIR
                 | --history history.csv [--method NAME] [--window SECS])
                [--addr HOST:PORT] [--instance-id N] [--shards N]
                [--reactors N] [--queue CAP] [--threshold SECS] [--hits K]
                [--seconds N] [--retrain RUNS] [--record DIR]
  f2pm models   DIR (list | verify | rollback [--to GEN])
  f2pm stats    [--addr HOST:PORT] [--watch] [--interval SECS] [--count N]
  f2pm fleet    (top-k | stats | scrape) --addrs HOST:PORT[,HOST:PORT...]
                [--k N]
  f2pm export-columnar --history history.csv --out store.f2pc
                [--window SECS] [--host ID] [--chunk-rows N]
  f2pm query    --store store.f2pc --model model.f2pm [--run ID] [--host ID]
                [--t-min SECS] [--t-max SECS] [--cohort run|host]

METHODS (train): linear, rep_tree, m5p, svm, ls_svm

Every model file is one checksummed F2PM artifact: `train --out` writes
it, and `predict`, `query` and `serve --model` verify both checksums
before use and take the aggregation config and input columns from it.
`serve` starts the sharded online RTTF prediction service (wire protocol
v4 only; clients speaking another version are disconnected);
`--seconds` bounds the run (default: forever). With `--model` it serves
that one artifact as is. With `--history` it trains the model in-process
at boot instead, so the metrics exposition carries the training-stage
timings. With `--models-dir` it cold-starts from the store's
manifest-active artifact (no training pass, no `--history`) and
hot-reloads whenever the manifest advances — publish with
`f2pm train --save-artifact DIR` and operate the store with
`f2pm models DIR {list,verify,rollback}`. `--retrain RUNS` (with
`--models-dir` only) closes the loop: a background worker takes the
failing runs the shards close from live clients, warm-retrains an LS-SVM over the
last RUNS of them (rank-k factor updates — no O(n³) rebuild per run), and
publishes each refreshed model into the store, where the manifest poll
hot-reloads it with zero disruption. `--record DIR` makes the instance
the collecting server too: each host's datapoints and fail events are
appended as they arrive to `DIR/host-<id>.csv` in the history CSV format
(a killed instance loses only the events still queued; an open life is a
censored tail the next instance continues), so `evaluate`, `train` and
`export-columnar` read a recorded file as is. `--reactors N` (N ≥ 1) sizes the
epoll event-loop pool that owns client connections (Linux only; default:
one per CPU), and `--instance-id N` stamps the instance's stable fleet
identity into the fleet wire frames and the `f2pm_serve_instance_info`
exposition gauge.
`stats` scrapes a running serve instance's Prometheus-style text
exposition once, `--count N` times, or forever with `--watch`
(reconnecting through restarts). `fleet` fans a query out to every
instance of a fleet: `top-k` prints the cluster-wide hosts-nearest-
failure ranking merged from the per-instance estimate boards, `stats`
prints per-instance rows plus cluster totals, and `scrape` prints one
merged exposition in which counters sum exactly across instances and
gauges stay attributable behind an `instance` label. `export-columnar`
converts a history CSV into the checksummed columnar store format and
`query` re-scores it against a model artifact — zone maps prune chunks the
filter cannot match, and errors stream into per-run (or per-host) MAE /
S-MAE cohorts without ever materializing the history as rows.";

/// Parse `--key value` pairs and bare `--flag`s, rejecting any key the
/// subcommand does not list in `accepted`.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if !accepted.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (accepted: --{})",
                accepted.join(", --")
            ));
        }
        // Bare boolean flags.
        if matches!(key, "quick" | "watch") {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(out)
}

fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    match flags.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for --{key}: {v:?}")),
    }
}

fn require(flags: &HashMap<String, String>, key: &str) -> Result<String, String> {
    flags
        .get(key)
        .cloned()
        .ok_or_else(|| format!("missing required --{key}"))
}

fn aggregation_from(flags: &HashMap<String, String>) -> Result<AggregationConfig, String> {
    let mut agg = AggregationConfig::default();
    if let Some(w) = get_parsed::<f64>(flags, "window")? {
        if !(w.is_finite() && w > 0.0) {
            return Err("--window must be positive".to_string());
        }
        agg.window_s = w;
    }
    Ok(agg)
}

/// `f2pm campaign`: run the simulated monitoring campaign, save the
/// history as CSV.
pub fn campaign(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["out", "runs", "seed", "quick"])?;
    let out = require(&flags, "out")?;
    let runs: usize = get_parsed(&flags, "runs")?.unwrap_or(4);
    let seed: u64 = get_parsed(&flags, "seed")?.unwrap_or(42);
    let quick = flags.contains_key("quick");

    let cfg = if quick {
        F2pmConfig::quick_builder()
    } else {
        F2pmConfig::builder()
    }
    .runs(runs)
    .build()
    .map_err(|e| e.to_string())?;

    eprintln!("running {runs} monitored runs-to-failure (seed {seed})...");
    let campaign = Campaign::new(cfg.campaign.clone(), seed);
    let collected = campaign.run_all();
    let history = DataHistory::from_campaign(&collected);
    eprintln!(
        "collected {} datapoints across {} fail events",
        history.datapoint_count(),
        history.fail_count()
    );
    save_csv(&history, &out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// `f2pm monitor`: sample the real local host via /proc.
pub fn monitor(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["out", "seconds", "interval"])?;
    let out = require(&flags, "out")?;
    let seconds: u64 = get_parsed(&flags, "seconds")?.unwrap_or(10);
    let interval: f64 = get_parsed(&flags, "interval")?.unwrap_or(1.5);
    if interval <= 0.0 {
        return Err("--interval must be positive".to_string());
    }

    let mut collector = ProcCollector::new();
    // Priming read for the CPU counters.
    collector
        .try_collect()
        .map_err(|e| format!("reading /proc: {e} (this command needs Linux)"))?;
    let mut history = DataHistory::new();
    let samples = (seconds as f64 / interval).ceil() as usize;
    eprintln!("sampling /proc every {interval} s for ~{seconds} s ({samples} datapoints)...");
    for _ in 0..samples {
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
        match collector.collect() {
            Some(d) => history.push_datapoint(d),
            None => return Err("collector failed mid-run".to_string()),
        }
    }
    save_csv(&history, &out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} datapoints to {out}", history.datapoint_count());
    Ok(())
}

/// The `--method` names [`fit_saved_model`] trains.
const TRAIN_METHODS: [&str; 5] = ["linear", "rep_tree", "m5p", "svm", "ls_svm"];

/// Fit `method` as a persistable [`SavedModel`], stamping the training
/// time into the global metrics registry as a `train:<method>` span (the
/// same family the Table-3 pipeline records, so a serve instance that
/// boot-trained exposes its training timings on scrape).
fn fit_saved_model(method: &str, x: &f2pm_linalg::Matrix, y: &[f64]) -> Result<SavedModel, String> {
    let _span = f2pm_obs::span!(&format!("train:{method}"));
    Ok(match method {
        "linear" => {
            SavedModel::Linear(f2pm_ml::linreg::LinearModel::fit(x, y).map_err(|e| e.to_string())?)
        }
        "rep_tree" => SavedModel::RepTree(
            RepTree::new(RepTreeParams::default())
                .fit_tree(x, y)
                .map_err(|e| e.to_string())?,
        ),
        "m5p" => SavedModel::M5(
            M5Prime::new(M5Params::default())
                .fit_m5(x, y)
                .map_err(|e| e.to_string())?,
        ),
        "svm" => SavedModel::Svr(
            SvrRegressor::new(SvrParams::default())
                .fit_svr(x, y)
                .map_err(|e| e.to_string())?,
        ),
        "ls_svm" => SavedModel::LsSvm(
            LsSvmRegressor::new(f2pm_ml::Kernel::Rbf { gamma: 0.03 }, 10.0)
                .fit_lssvm(x, y)
                .map_err(|e| e.to_string())?,
        ),
        other => return Err(format!("unknown method {other:?} (see --help)")),
    })
}

/// `f2pm evaluate`: §III-D method comparison on a saved history.
pub fn evaluate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["history", "window", "train-frac"])?;
    let path = require(&flags, "history")?;
    let agg = aggregation_from(&flags)?;
    let train_frac: f64 = get_parsed(&flags, "train-frac")?.unwrap_or(0.7);
    if !(0.0..1.0).contains(&train_frac) {
        return Err("--train-frac must be in (0, 1)".to_string());
    }

    let history = load_csv(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let points = aggregate_history(&history, &agg);
    let ds = Dataset::from_points(&points);
    if ds.len() < 20 {
        return Err(format!(
            "only {} labeled aggregated datapoints in {path}; collect more runs",
            ds.len()
        ));
    }
    let (train, valid) = ds.split_holdout(train_frac, 0xf2b1);
    eprintln!(
        "{} aggregated datapoints ({} train / {} validation)",
        ds.len(),
        train.len(),
        valid.len()
    );
    let suite = f2pm_ml::paper_method_suite(&[1.0, 1e4, 1e9]);
    let reports = evaluate_all(&suite, &train, &valid, SMaeThreshold::paper_default());
    print!("{}", f2pm_ml::validate::format_report_table(&reports));
    Ok(())
}

/// `f2pm train`: fit one method and persist it as an artifact (one file
/// via `--out`, and/or a new store generation via `--save-artifact DIR`).
pub fn train(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["history", "method", "out", "save-artifact", "window"],
    )?;
    let path = require(&flags, "history")?;
    let out = flags.get("out").cloned();
    let artifact_dir = flags.get("save-artifact").cloned();
    if out.is_none() && artifact_dir.is_none() {
        return Err("missing --out and/or --save-artifact (nowhere to put the model)".to_string());
    }
    let method = require(&flags, "method")?;
    let agg = aggregation_from(&flags)?;

    let history = load_csv(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let points = aggregate_history(&history, &agg);
    let ds = Dataset::from_points(&points);
    if ds.is_empty() {
        return Err("history contains no labeled (failing) runs".to_string());
    }

    let saved = fit_saved_model(&method, &ds.x, &ds.y)?;
    // Training-set metrics of the model just fitted, as a sanity report.
    let predictions = saved
        .as_model()
        .predict_batch(&ds.x)
        .map_err(|e| e.to_string())?;
    let metrics = Metrics::compute(&predictions, &ds.y, SMaeThreshold::paper_default());
    eprintln!(
        "trained {} on {} datapoints: training-set S-MAE {:.1} s, MAE {:.1} s",
        method,
        ds.len(),
        metrics.smae,
        metrics.mae
    );

    let columns = f2pm_features::aggregate::aggregated_column_names_with(&agg);
    let meta = ArtifactMeta::new(&method, agg, columns, metrics.smae);
    if let Some(out) = &out {
        artifact::save(out, &meta, &saved).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(dir) = &artifact_dir {
        let store = ModelStore::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
        let generation = store
            .publish(&meta, &saved)
            .map_err(|e| format!("publishing to {dir}: {e}"))?;
        println!("published generation {generation} to {dir}");
    }
    Ok(())
}

/// `f2pm predict`: score a saved history's last run with a model
/// artifact, aggregated the way the artifact records.
pub fn predict(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["model", "history"])?;
    let model_path = require(&flags, "model")?;
    let history_path = require(&flags, "history")?;

    let (meta, saved) =
        artifact::load(&model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let agg = meta.agg;
    let model = saved.as_model();
    let history = load_csv(&history_path).map_err(|e| format!("reading {history_path}: {e}"))?;
    let runs = history.runs();
    let run = runs.last().ok_or("history has no runs")?;
    let points = aggregate_run(run, &agg);
    if points.is_empty() {
        return Err("last run has no aggregated windows".to_string());
    }

    println!(
        "{:>10} {:>16} {:>16}",
        "t(s)",
        "predicted RTTF(s)",
        if run.fail_time.is_some() {
            "actual RTTF(s)"
        } else {
            "actual (n/a)"
        }
    );
    // One batched scoring pass over every window (the kernel models score
    // this allocation-free and in parallel) instead of a per-window call,
    // gathering the artifact's input columns out of the full layout.
    let layout = f2pm_features::aggregate::aggregated_column_names_with(&agg);
    let idx = meta
        .columns
        .iter()
        .map(|c| {
            layout
                .iter()
                .position(|l| l == c)
                .ok_or_else(|| format!("{model_path}: unknown aggregated column {c:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut full = vec![0.0; layout.len()];
    let mut x = f2pm_linalg::Matrix::zeros(points.len(), idx.len());
    for (i, p) in points.iter().enumerate() {
        p.write_into(&agg, &mut full);
        for (dst, &j) in x.row_mut(i).iter_mut().zip(&idx) {
            *dst = full[j];
        }
    }
    let estimates = model.predict_batch(&x).map_err(|e| e.to_string())?;
    for (p, est) in points.iter().zip(&estimates) {
        let est = est.max(0.0);
        match p.rttf {
            Some(actual) => println!("{:>10.1} {:>16.1} {:>16.1}", p.t_repr, est, actual),
            None => println!("{:>10.1} {:>16.1} {:>16}", p.t_repr, est, "-"),
        }
    }
    Ok(())
}

/// `f2pm export-columnar`: convert a row-oriented history CSV into the
/// checksummed columnar container (`F2PC`) that `f2pm query` scans.
pub fn export_columnar(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["history", "out", "window", "host", "chunk-rows"])?;
    let history_path = require(&flags, "history")?;
    let out = require(&flags, "out")?;
    let agg = aggregation_from(&flags)?;
    let host_id: u64 = get_parsed(&flags, "host")?.unwrap_or(0);
    let chunk_rows: usize =
        get_parsed(&flags, "chunk-rows")?.unwrap_or(f2pm_features::DEFAULT_CHUNK_ROWS);
    if chunk_rows == 0 {
        return Err("--chunk-rows must be positive".to_string());
    }

    let history = load_csv(&history_path).map_err(|e| format!("reading {history_path}: {e}"))?;
    let store = f2pm_features::ColumnStore::from_history(&history, &agg, host_id, chunk_rows)?;
    if store.n_rows() == 0 {
        return Err(format!(
            "{history_path} produced no labeled aggregated rows (no failing runs?)"
        ));
    }
    f2pm_registry::save_columns(&out, &store).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} rows x {} columns ({} chunks of {}) to {out}",
        store.n_rows(),
        store.n_columns(),
        store.n_chunks(),
        store.chunk_rows()
    );
    Ok(())
}

/// `f2pm query`: filtered, cohort-grouped offline re-scoring of a
/// columnar history against a model artifact.
pub fn query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["store", "model", "run", "host", "t-min", "t-max", "cohort"],
    )?;
    let store_path = require(&flags, "store")?;
    let model_path = require(&flags, "model")?;
    let filter = f2pm::QueryFilter {
        run_id: get_parsed(&flags, "run")?,
        host_id: get_parsed(&flags, "host")?,
        t_min: get_parsed(&flags, "t-min")?,
        t_max: get_parsed(&flags, "t-max")?,
    };
    let cohort = match flags.get("cohort").map(String::as_str).unwrap_or("run") {
        "run" => f2pm::Cohort::Run,
        "host" => f2pm::Cohort::Host,
        other => return Err(format!("bad --cohort {other:?} (expected run or host)")),
    };

    let store = f2pm_registry::load_columns(&store_path)
        .map_err(|e| format!("reading {store_path}: {e}"))?;
    let (meta, saved) =
        artifact::load(&model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let features: Vec<&str> = store
        .feature_column_indices()
        .into_iter()
        .map(|j| store.column(j).name.as_str())
        .collect();
    if features != meta.columns {
        return Err(format!(
            "{model_path}'s {} input columns do not match the {} feature columns of {store_path}",
            meta.columns.len(),
            features.len()
        ));
    }
    let report = f2pm::run_query(
        &store,
        saved.as_model(),
        &filter,
        cohort,
        SMaeThreshold::paper_default(),
    )
    .map_err(|e| e.to_string())?;

    eprintln!(
        "scanned {} chunks ({} pruned by zone maps): {} of {} rows matched",
        report.chunks_scanned, report.chunks_pruned, report.rows_matched, report.rows_total
    );
    let key = cohort.key_column();
    println!(
        "{key:>8} {:>8} {:>14} {:>10} {:>10} {:>10}",
        "n", "mean RTTF(s)", "MAE(s)", "S-MAE(s)", "max AE(s)"
    );
    for (k, s) in &report.cohorts {
        println!(
            "{k:>8} {:>8} {:>14.1} {:>10.1} {:>10.1} {:>10.1}",
            s.n, s.mean_rttf, s.mae, s.smae, s.max_ae
        );
    }
    if report.rows_matched > 0 {
        let t = &report.total;
        println!(
            "{:>8} {:>8} {:>14.1} {:>10.1} {:>10.1} {:>10.1}",
            "total", t.n, t.mean_rttf, t.mae, t.smae, t.max_ae
        );
    } else {
        println!("no rows matched the filter");
    }
    println!(
        "throughput: {:.0} rows/s ({:.4} s wall)",
        report.rows_per_s, report.wall_s
    );
    Ok(())
}

/// Every flag `f2pm serve` accepts.
const SERVE_FLAGS: &[&str] = &[
    "models-dir",
    "model",
    "history",
    "method",
    "window",
    "addr",
    "instance-id",
    "shards",
    "reactors",
    "queue",
    "threshold",
    "hits",
    "seconds",
    "retrain",
    "record",
];

/// Where `f2pm serve` gets its model: exactly one of `--models-dir`,
/// `--model` and `--history`. Each variant carries only the flags that
/// apply to it.
#[derive(Debug, Clone, PartialEq)]
enum ServeSource {
    /// `--models-dir`: cold-start from the store's manifest-active
    /// artifact and hot-reload as the manifest advances; `--retrain RUNS`
    /// publishes warm-retrained models back into the same store.
    Store {
        dir: String,
        retrain_runs: Option<usize>,
    },
    /// `--model`: serve one checksummed artifact file as is.
    File(String),
    /// `--history`: boot-train `--method` in-process, aggregating with
    /// `--window`.
    BootTrain {
        history: String,
        method: String,
        agg: AggregationConfig,
    },
}

/// A parsed `f2pm serve` command line.
struct ServeArgs {
    addr: String,
    source: ServeSource,
    cfg: ServeConfig,
    seconds: Option<u64>,
}

/// Parse the `f2pm serve` flags and check them: the CLI's own model-source
/// rules here, the server knobs through [`ServeConfig::validate`]. Nothing
/// is loaded or trained yet, so bad flags fail fast.
fn serve_args_from(flags: &HashMap<String, String>) -> Result<ServeArgs, String> {
    let retrain_runs: Option<usize> = get_parsed(flags, "retrain")?;
    let source = match (
        flags.get("models-dir"),
        flags.get("model"),
        flags.get("history"),
    ) {
        (Some(dir), None, None) => ServeSource::Store {
            dir: dir.clone(),
            retrain_runs,
        },
        (None, Some(path), None) => ServeSource::File(path.clone()),
        (None, None, Some(history)) => {
            let method = flags
                .get("method")
                .cloned()
                .unwrap_or_else(|| "rep_tree".to_string());
            if !TRAIN_METHODS.contains(&method.as_str()) {
                return Err(format!(
                    "unknown training method {method:?} (expected one of {TRAIN_METHODS:?})"
                ));
            }
            ServeSource::BootTrain {
                history: history.clone(),
                method,
                agg: aggregation_from(flags)?,
            }
        }
        (None, None, None) => {
            return Err("serve needs --model, --history or --models-dir".to_string())
        }
        _ => {
            return Err(
                "--models-dir, --model and --history are mutually exclusive (one model source)"
                    .to_string(),
            )
        }
    };
    let boot_train = matches!(source, ServeSource::BootTrain { .. });
    if flags.contains_key("window") && !boot_train {
        return Err("--window conflicts with an artifact: the artifact records \
                    its own aggregation config"
            .to_string());
    }
    if flags.contains_key("method") && !boot_train {
        return Err("--method only applies to --history boot-training".to_string());
    }
    if retrain_runs.is_some() && !matches!(source, ServeSource::Store { .. }) {
        return Err(
            "--retrain needs an artifact store (--models-dir) to publish refreshed models into"
                .to_string(),
        );
    }
    if let Some(runs) = retrain_runs {
        f2pm_serve::RetrainerConfig::new(f2pm::RetrainConfig::new(runs))
            .validate()
            .map_err(|e| format!("--retrain: {e}"))?;
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    if addr.is_empty() {
        return Err("--addr must not be empty".to_string());
    }
    let mut cfg = ServeConfig::default();
    if let Some(n) = get_parsed(flags, "shards")? {
        cfg.shards = n;
    }
    if let Some(n) = get_parsed(flags, "reactors")? {
        cfg.reactors = n;
    }
    if let Some(n) = get_parsed(flags, "queue")? {
        cfg.queue_cap = n;
    }
    if let Some(t) = get_parsed(flags, "threshold")? {
        cfg.policy.rttf_threshold_s = t;
    }
    if let Some(k) = get_parsed(flags, "hits")? {
        cfg.policy.consecutive_hits = k;
    }
    if let Some(id) = get_parsed(flags, "instance-id")? {
        cfg.instance_id = id;
    }
    cfg.record = flags.get("record").map(std::path::PathBuf::from);
    cfg.validate()
        .map_err(|e| format!("invalid serve config: {e}"))?;
    Ok(ServeArgs {
        addr,
        source,
        cfg,
        seconds: get_parsed(flags, "seconds")?,
    })
}

/// Resolve a [`ServeSource`] into a live model registry, returning it
/// with a human-readable description and (for artifact stores) the
/// manifest watcher.
fn resolve_model_source(
    source: &ServeSource,
) -> Result<(std::sync::Arc<ModelRegistry>, String, Option<StoreWatcher>), String> {
    match source {
        ServeSource::Store { dir, .. } => {
            let store = ModelStore::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
            let registry = ModelRegistry::from_store(&store)
                .map_err(|e| format!("cold-starting from {dir}: {e}"))?;
            let generation = store
                .active_generation()
                .map_err(|e| format!("reading {dir} manifest: {e}"))?;
            let kind = registry.current().kind;
            let source = format!(
                "{kind} artifact generation {} from {dir}",
                generation.unwrap_or(0)
            );
            let watcher = StoreWatcher::new(store, registry.clone(), generation);
            Ok((registry, source, Some(watcher)))
        }
        ServeSource::File(path) => {
            let registry =
                ModelRegistry::from_artifact(path).map_err(|e| format!("loading {path}: {e}"))?;
            let kind = registry.current().kind;
            Ok((registry, format!("{kind} artifact from {path}"), None))
        }
        ServeSource::BootTrain {
            history: hist,
            method,
            agg,
        } => {
            // Boot-train in-process: the aggregate/train spans land in the
            // global metrics registry, so scrapes of this server expose
            // the training-stage timings.
            let history = load_csv(hist).map_err(|e| format!("reading {hist}: {e}"))?;
            let span = f2pm_obs::span!("aggregate");
            let points = aggregate_history(&history, agg);
            let ds = Dataset::from_points(&points);
            span.stop();
            if ds.is_empty() {
                return Err("history contains no labeled (failing) runs".to_string());
            }
            let saved = fit_saved_model(method, &ds.x, &ds.y)?;
            eprintln!(
                "boot-trained {method} on {} aggregated datapoints from {hist}",
                ds.len()
            );
            let columns = f2pm_features::aggregate::aggregated_column_names_with(agg);
            let registry = ModelRegistry::new(saved, columns, *agg)
                .map_err(|e| format!("installing boot-trained model: {e}"))?;
            Ok((
                registry,
                format!("boot-trained {method} model from {hist}"),
                None,
            ))
        }
    }
}

/// `f2pm serve`: the sharded online RTTF prediction service.
pub fn serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, SERVE_FLAGS)?;
    let ServeArgs {
        addr,
        source,
        cfg,
        seconds,
    } = serve_args_from(&flags)?;
    let (registry, description, mut store_watcher) = resolve_model_source(&source)?;

    // Continuous retraining (artifact stores only): a background worker
    // fed the shard workers' closed runs through a lossy tap publishes
    // refreshed LS-SVMs into the same store the manifest poll below
    // hot-reloads from.
    let mut retrain_worker = None;
    let mut tap = None;
    if let ServeSource::Store {
        dir,
        retrain_runs: Some(window_runs),
    } = &source
    {
        let engine = f2pm::RetrainConfig {
            // The artifact's own aggregation, so the published columns
            // match what this server (and its peers) aggregate with.
            aggregation: registry.agg(),
            ..f2pm::RetrainConfig::new(*window_runs)
        };
        let store = ModelStore::open(dir)
            .map_err(|e| format!("opening store {dir} for retraining: {e}"))?;
        let (t, w) =
            f2pm_serve::RetrainWorker::start(f2pm_serve::RetrainerConfig::new(engine), store);
        tap = Some(t);
        retrain_worker = Some(w);
        eprintln!("continuous retraining over the last {window_runs} failing runs");
    }

    let server = PredictionServer::start_with_tap(&*addr, cfg.clone(), registry, tap)
        .map_err(|e| format!("starting on {addr}: {e}"))?;
    println!(
        "serving {description} on {} (instance {}, {} shards, {} reactors, alert ≤ {:.0} s × {})",
        server.addr(),
        cfg.instance_id,
        cfg.shards,
        cfg.reactors,
        cfg.policy.rttf_threshold_s,
        cfg.policy.consecutive_hits
    );
    if let Some(dir) = &cfg.record {
        println!("recording every host's runs under {}", dir.display());
    }

    let started = std::time::Instant::now();
    let mut stats_printed = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        if let Some(watcher) = &mut store_watcher {
            match watcher.poll() {
                Ok(Some((store_gen, install_gen))) => eprintln!(
                    "installed store generation {store_gen} → model generation {install_gen}"
                ),
                Ok(None) => {}
                Err(e) => eprintln!(
                    "store reload refused (keeping current until the manifest moves): {e}"
                ),
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= 5.0 * (stats_printed + 1) as f64 {
            let snap = server.metrics();
            eprintln!(
                "[{:>6.0}s] conns {} | datapoints {} | estimates {} | alerts {} | \
                 gen {} | depths {:?}",
                elapsed,
                snap.connections,
                snap.datapoints,
                snap.estimates,
                snap.alerts,
                snap.model_generation,
                snap.shard_depths
            );
            stats_printed += 1;
        }
        if let Some(s) = seconds {
            if elapsed >= s as f64 {
                break;
            }
        }
    }
    let snap = server.shutdown();
    if let Some(worker) = retrain_worker {
        // The shard workers (and with them every tap clone) are gone, so
        // the retrain worker drains and exits.
        worker.join();
    }
    println!(
        "served {} datapoints, {} estimates, {} alerts ({} connections total, {} dropped)",
        snap.datapoints, snap.estimates, snap.alerts, snap.total_accepted, snap.dropped
    );
    Ok(())
}

/// `f2pm models DIR {list,verify,rollback}`: operate a model artifact
/// store.
pub fn models(args: &[String]) -> Result<(), String> {
    const MODELS_USAGE: &str = "usage: f2pm models DIR (list | verify | rollback [--to GEN])";
    let (dir, rest) = args.split_first().ok_or(MODELS_USAGE)?;
    if dir.starts_with("--") {
        return Err(MODELS_USAGE.to_string());
    }
    let (action, rest) = rest.split_first().ok_or(MODELS_USAGE)?;
    let flags = parse_flags(rest, &["to"])?;
    let store = ModelStore::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;

    match action.as_str() {
        "list" => {
            let infos = store.list().map_err(|e| e.to_string())?;
            if infos.is_empty() {
                println!("no generations in {dir}");
                return Ok(());
            }
            println!(
                "{:>10} {:>6} {:>9} {:>10} {:>14} {:>12}  status",
                "generation", "active", "kind", "method", "train S-MAE(s)", "size(B)"
            );
            for info in infos {
                let active = if info.active { "*" } else { "" };
                match info.detail {
                    Ok((kind, meta)) => println!(
                        "{:>10} {:>6} {:>9} {:>10} {:>14.1} {:>12}  ok",
                        info.generation, active, kind, meta.method, meta.train_smae, info.file_size
                    ),
                    Err(e) => println!(
                        "{:>10} {:>6} {:>9} {:>10} {:>14} {:>12}  {e}",
                        info.generation, active, "?", "?", "?", info.file_size
                    ),
                }
            }
            Ok(())
        }
        "verify" => {
            let report = store.verify().map_err(|e| e.to_string())?;
            for g in &report.ok {
                let marker = if report.active == Some(*g) {
                    " (active)"
                } else {
                    ""
                };
                println!("generation {g}: ok{marker}");
            }
            for (g, e) in &report.failed {
                println!("generation {g}: FAILED — {e}");
            }
            match report.active {
                Some(a) => println!("manifest: active generation {a}"),
                None => println!("manifest: none (nothing published)"),
            }
            if report.failed.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{} artifact(s) failed verification",
                    report.failed.len()
                ))
            }
        }
        "rollback" => {
            let to: Option<u64> = get_parsed(&flags, "to")?;
            let generation = store.rollback(to).map_err(|e| e.to_string())?;
            println!("rolled back: active generation is now {generation}");
            Ok(())
        }
        other => Err(format!("unknown models action {other:?}\n{MODELS_USAGE}")),
    }
}

/// `f2pm stats`: scrape a running serve instance's metrics exposition.
/// With `--watch`, a lost connection re-resolves and reconnects instead
/// of exiting — serve restarts (deploys, rollbacks) don't kill the watch.
pub fn stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["addr", "watch", "interval", "count"])?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let watch = flags.contains_key("watch");
    let interval: f64 = get_parsed(&flags, "interval")?.unwrap_or(2.0);
    if interval <= 0.0 {
        return Err("--interval must be positive".to_string());
    }
    let count: Option<u64> = get_parsed(&flags, "count")?;
    let mut remaining = count.unwrap_or(if watch { u64::MAX } else { 1 });

    // Resolution happens on every connect, so a reconnect picks up DNS
    // changes too.
    let connect = || {
        InstanceClient::connect(&addr)
            .map_err(|e| format!("connecting {addr}: {e} (is `f2pm serve` running?)"))
    };
    // The first connect still fails fast: a wrong --addr should not spin.
    let mut client = connect()?;
    let mut need_sep = false;
    while remaining > 0 {
        match client.scrape().map_err(|e| format!("scraping {addr}: {e}")) {
            Ok(text) => {
                if need_sep {
                    println!();
                }
                print!("{text}");
                need_sep = true;
                remaining -= 1;
                if remaining > 0 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(interval));
                }
            }
            Err(e) if watch => {
                eprintln!("scrape failed ({e}); reconnecting to {addr}...");
                client = loop {
                    std::thread::sleep(std::time::Duration::from_secs_f64(interval));
                    match connect() {
                        Ok(s) => break s,
                        Err(e) => eprintln!("reconnect failed ({e}), retrying..."),
                    }
                };
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `f2pm fleet`: fan a query out to every serve instance of a fleet and
/// aggregate the answers — the cluster-wide at-risk ranking (`top-k`),
/// the per-instance + total stats rollup (`stats`), or one merged metrics
/// exposition (`scrape`).
pub fn fleet(args: &[String]) -> Result<(), String> {
    const FLEET_USAGE: &str =
        "usage: f2pm fleet (top-k | stats | scrape) --addrs HOST:PORT[,HOST:PORT...] [--k N]";
    let (action, rest) = args.split_first().ok_or(FLEET_USAGE)?;
    if !matches!(action.as_str(), "top-k" | "stats" | "scrape") {
        return Err(format!("unknown fleet action {action:?}\n{FLEET_USAGE}"));
    }
    let flags = parse_flags(rest, &["addrs", "k"])?;
    let k: usize = get_parsed(&flags, "k")?.unwrap_or(10);
    if k == 0 {
        return Err("--k must be positive".to_string());
    }
    let addrs: Vec<String> = require(&flags, "addrs")?
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    let mut fleet = f2pm_serve::Fleet::connect(&addrs)
        .map_err(|e| format!("connecting fleet {addrs:?}: {e}"))?;
    match action.as_str() {
        "top-k" => {
            let top = fleet.top_k(k).map_err(|e| e.to_string())?;
            if top.is_empty() {
                println!("no estimates published anywhere in the fleet yet");
                return Ok(());
            }
            println!(
                "{:>4} {:>10} {:>9} {:>12} {:>12} {:>5}",
                "rank", "host", "instance", "rttf(s)", "t(s)", "gen"
            );
            for (rank, e) in top.iter().enumerate() {
                println!(
                    "{:>4} {:>10} {:>9} {:>12.1} {:>12.1} {:>5}",
                    rank + 1,
                    e.host_id,
                    e.instance_id,
                    e.rttf,
                    e.t,
                    e.model_generation
                );
            }
            Ok(())
        }
        "stats" => {
            let stats = fleet.stats().map_err(|e| e.to_string())?;
            println!(
                "{:>9} {:>21} {:>7} {:>10} {:>10} {:>7} {:>8} {:>7} {:>5}",
                "instance",
                "addr",
                "conns",
                "datapoints",
                "estimates",
                "alerts",
                "dropped",
                "hosts",
                "gen"
            );
            for s in &stats.instances {
                println!(
                    "{:>9} {:>21} {:>7} {:>10} {:>10} {:>7} {:>8} {:>7} {:>5}",
                    s.instance_id,
                    s.addr,
                    s.connections,
                    s.datapoints,
                    s.estimates,
                    s.alerts,
                    s.dropped,
                    s.hosts_tracked,
                    s.model_generation
                );
            }
            println!(
                "{:>9} {:>21} {:>7} {:>10} {:>10} {:>7} {:>8} {:>7}",
                "TOTAL",
                format!("{} instances", stats.instances.len()),
                stats.connections,
                stats.datapoints,
                stats.estimates,
                stats.alerts,
                stats.dropped,
                stats.hosts_tracked
            );
            Ok(())
        }
        "scrape" => {
            print!("{}", fleet.merged_scrape().map_err(|e| e.to_string())?);
            Ok(())
        }
        other => Err(format!("unknown fleet action {other:?}\n{FLEET_USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_monitor::Datapoint;

    /// Synthesize a tiny valid history file.
    fn write_tiny_history(path: &std::path::Path) {
        let mut h = DataHistory::new();
        for i in 0..40 {
            let mut d = Datapoint {
                t_gen: i as f64 * 1.5,
                values: [1.0; 14],
            };
            d.values[6] = i as f64 * 10.0; // swap_used rises
            h.push_datapoint(d);
        }
        h.push_fail(65.0);
        save_csv(&h, path).unwrap();
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    const KEYS: &[&str] = &["runs", "quick", "out", "window", "dangling"];

    #[test]
    fn flag_parser_handles_pairs_and_booleans() {
        let f = parse_flags(&s(&["--runs", "3", "--quick", "--out", "x.csv"]), KEYS).unwrap();
        assert_eq!(f.get("runs").unwrap(), "3");
        assert_eq!(f.get("quick").unwrap(), "true");
        assert_eq!(f.get("out").unwrap(), "x.csv");
        assert!(parse_flags(&s(&["positional"]), KEYS).is_err());
        assert!(parse_flags(&s(&["--dangling"]), KEYS).is_err());
        let err = parse_flags(&s(&["--run", "3"]), KEYS).unwrap_err();
        assert!(err.contains("unknown flag --run "), "{err}");
    }

    #[test]
    fn typed_getters() {
        let f = parse_flags(&s(&["--runs", "3", "--window", "2.5"]), KEYS).unwrap();
        assert_eq!(get_parsed::<usize>(&f, "runs").unwrap(), Some(3));
        assert_eq!(get_parsed::<f64>(&f, "window").unwrap(), Some(2.5));
        assert_eq!(get_parsed::<u64>(&f, "missing").unwrap(), None);
        let bad = parse_flags(&s(&["--runs", "abc"]), KEYS).unwrap();
        assert!(get_parsed::<usize>(&bad, "runs").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // Parsing comes first, so none of these files needs to exist.
        let err = serve(&s(&["--model", "m.f2pm", "--watch"])).unwrap_err();
        assert!(err.contains("unknown flag --watch"), "{err}");
        let err = predict(&s(&[
            "--model",
            "m.f2pm",
            "--history",
            "h.csv",
            "--window",
            "30",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown flag --window"), "{err}");
        let err = serve(&s(&["--model", "m.f2pm", "--shard", "4"])).unwrap_err();
        assert!(err.contains("unknown flag --shard"), "{err}");
        // `stats --watch` (reconnect through restarts) is still a flag:
        // this fails on the dial, not on the parse.
        let err = stats(&s(&["--addr", "127.0.0.1:1", "--watch"])).unwrap_err();
        assert!(err.contains("connecting"), "{err}");
    }

    #[test]
    fn unknown_method_rejected() {
        let x = f2pm_linalg::Matrix::zeros(2, 1);
        let err = fit_saved_model("nope", &x, &[0.0, 1.0]).unwrap_err();
        assert!(err.contains("unknown method"), "{err}");
        assert!(fit_saved_model("rep_tree", &x, &[0.0, 1.0]).is_ok());
    }

    /// A default-layout linear artifact, as `train --out` would write it.
    fn write_linear_artifact(path: &std::path::Path, intercept: f64) {
        let agg = AggregationConfig::default();
        let columns = f2pm_features::aggregate::aggregated_column_names_with(&agg);
        let saved = SavedModel::Linear(f2pm_ml::linreg::LinearModel {
            intercept,
            coefficients: vec![0.0; columns.len()],
        });
        let meta = ArtifactMeta::new("linear", agg, columns, f64::NAN);
        artifact::save(path, &meta, &saved).unwrap();
    }

    #[test]
    fn campaign_then_train_then_predict_roundtrip() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hist = dir.join("history.csv");
        let model = dir.join("model.f2pm");

        campaign(&s(&[
            "--runs",
            "2",
            "--seed",
            "5",
            "--quick",
            "--out",
            hist.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(hist.exists());

        train(&s(&[
            "--history",
            hist.to_str().unwrap(),
            "--method",
            "rep_tree",
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(model.exists());

        predict(&s(&[
            "--model",
            model.to_str().unwrap(),
            "--history",
            hist.to_str().unwrap(),
        ]))
        .unwrap();

        evaluate(&s(&["--history", hist.to_str().unwrap()])).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_out_artifact_records_its_own_training_smae() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_smae_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hist = dir.join("history.csv");
        let model = dir.join("model.f2pm");
        campaign(&s(&[
            "--runs",
            "1",
            "--quick",
            "--out",
            hist.to_str().unwrap(),
        ]))
        .unwrap();
        train(&s(&[
            "--history",
            hist.to_str().unwrap(),
            "--method",
            "linear",
            "--window",
            "15",
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();

        let (meta, saved) = artifact::load(&model).unwrap();
        assert_eq!(meta.method, "linear");
        assert_eq!(meta.agg.window_s, 15.0);
        let history = load_csv(&hist).unwrap();
        let ds = Dataset::from_points(&aggregate_history(&history, &meta.agg));
        let predictions = saved.as_model().predict_batch(&ds.x).unwrap();
        let smae = Metrics::compute(&predictions, &ds.y, SMaeThreshold::paper_default()).smae;
        assert_eq!(meta.train_smae.to_bits(), smae.to_bits());

        // predict aggregates the way the artifact records.
        predict(&s(&[
            "--model",
            model.to_str().unwrap(),
            "--history",
            hist.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_model_flag_rejects_a_flipped_payload_byte() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_crc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hist = dir.join("history.csv");
        let store = dir.join("history.f2pc");
        let model = dir.join("model.f2pm");
        write_tiny_history(&hist);
        export_columnar(&s(&[
            "--history",
            hist.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        write_linear_artifact(&model, 900.0);
        let (model_s, hist_s, store_s) = (
            model.to_str().unwrap(),
            hist.to_str().unwrap(),
            store.to_str().unwrap(),
        );
        let predict_args = s(&["--model", model_s, "--history", hist_s]);
        let query_args = s(&["--model", model_s, "--store", store_s]);
        predict(&predict_args).unwrap();
        query(&query_args).unwrap();

        // The last payload byte sits just before the 4-byte payload CRC.
        let mut bytes = std::fs::read(&model).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x01;
        std::fs::write(&model, bytes).unwrap();
        for err in [
            predict(&predict_args).unwrap_err(),
            query(&query_args).unwrap_err(),
            serve(&s(&[
                "--model",
                model_s,
                "--addr",
                "127.0.0.1:0",
                "--seconds",
                "1",
            ]))
            .unwrap_err(),
        ] {
            assert!(err.contains("payload checksum mismatch"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(campaign(&s(&["--runs", "2"])).is_err()); // no --out
        assert!(train(&s(&["--history", "x.csv"])).is_err()); // no method/out
        assert!(predict(&s(&["--model", "m.f2pm"])).is_err()); // no history
        assert!(evaluate(&s(&[])).is_err());
    }

    #[test]
    fn serve_runs_bounded_from_an_artifact_file() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.f2pm");
        write_linear_artifact(&model, 900.0);
        let model_s = model.to_str().unwrap();
        let record = dir.join("recorded");
        serve(&s(&[
            "--model",
            model_s,
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--reactors",
            "1",
            "--seconds",
            "1",
            "--record",
            record.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(record.is_dir(), "--record creates its directory");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_scrapes_a_live_server() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_stats_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.f2pm");
        write_linear_artifact(&model, 900.0);
        let registry = ModelRegistry::from_artifact(&model).unwrap();
        let server =
            PredictionServer::start("127.0.0.1:0", ServeConfig::default(), registry).unwrap();
        let addr = server.addr().to_string();

        // The printing command end-to-end...
        stats(&s(&["--addr", &addr, "--count", "2", "--interval", "0.05"])).unwrap();
        // ...and the client it scrapes through, so the content is
        // assertable.
        let text = InstanceClient::connect(&addr).unwrap().scrape().unwrap();
        assert!(text.contains("f2pm_serve_model_generation 1\n"), "{text}");
        assert!(text.contains("# TYPE f2pm_serve_estimate_latency_us histogram"));
        // Connection-lifecycle counters from the reactor edge surface in
        // the same scrape `f2pm stats` prints.
        assert!(text.contains("f2pm_serve_conns_accepted "), "{text}");
        assert!(text.contains("f2pm_serve_conns_closed "), "{text}");
        assert!(text.contains("f2pm_serve_conns_evicted_slow 0\n"), "{text}");
        assert!(text.contains("# TYPE f2pm_serve_reactor_turn_us histogram"));

        assert!(stats(&s(&["--addr", &addr, "--interval", "0"])).is_err());
        server.shutdown();
        assert!(
            stats(&s(&["--addr", &addr, "--count", "1"])).is_err(),
            "scraping a stopped server must fail"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_boot_trains_from_history() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_boot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hist = dir.join("history.csv");
        campaign(&s(&[
            "--runs",
            "1",
            "--quick",
            "--out",
            hist.to_str().unwrap(),
        ]))
        .unwrap();
        serve(&s(&[
            "--history",
            hist.to_str().unwrap(),
            "--method",
            "linear",
            "--addr",
            "127.0.0.1:0",
            "--seconds",
            "1",
        ]))
        .unwrap();
        // Boot-training stamped its spans into the global registry.
        let text = f2pm_obs::global().render_text();
        assert!(
            text.contains("f2pm_stage_duration_us_count{stage=\"train:linear\"}"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Exposition sample value: first non-comment line starting with
    /// `prefix` (include a trailing space to match unlabeled samples).
    fn sample(text: &str, prefix: &str) -> Option<f64> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
    }

    #[test]
    fn models_store_publish_serve_rollback_end_to_end() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let hist = dir.join("history.csv");
        let store_dir = dir.join("models");
        let store_s = store_dir.to_str().unwrap().to_string();
        campaign(&s(&[
            "--runs",
            "2",
            "--quick",
            "--out",
            hist.to_str().unwrap(),
        ]))
        .unwrap();

        // Publish generation 1 straight from train — no --out needed.
        train(&s(&[
            "--history",
            hist.to_str().unwrap(),
            "--method",
            "linear",
            "--save-artifact",
            &store_s,
        ]))
        .unwrap();
        models(&s(&[&store_s, "list"])).unwrap();
        models(&s(&[&store_s, "verify"])).unwrap();

        // Bad flag combinations are rejected up front.
        assert!(train(&s(&[
            "--history",
            hist.to_str().unwrap(),
            "--method",
            "linear"
        ]))
        .is_err());
        let empty = dir.join("empty_store");
        let err = serve(&s(&["--models-dir", empty.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no published generation"), "{err}");
        assert!(models(&s(&[&store_s, "frobnicate"])).is_err());
        assert!(models(&s(&[&store_s, "import", "--model", "m.f2pm"])).is_err());
        assert!(models(&s(&["--model", "backwards"])).is_err());

        // Cold-start a real server from the store (no --history, no
        // training pass) on a pre-picked free port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let (store_c, addr_c) = (store_s.clone(), addr.clone());
        let server = std::thread::spawn(move || {
            serve(&s(&[
                "--models-dir",
                &store_c,
                "--addr",
                &addr_c,
                "--seconds",
                "6",
            ]))
            .unwrap();
        });
        let scrape = || -> Option<String> { InstanceClient::connect(&addr).ok()?.scrape().ok() };
        let wait_for = |pred: &dyn Fn(&str) -> bool| -> String {
            for _ in 0..400 {
                if let Some(text) = scrape() {
                    if pred(&text) {
                        return text;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            panic!("server never reached the expected scrape state");
        };

        let text = wait_for(&|t| sample(t, "f2pm_serve_model_generation ") == Some(1.0));
        assert_eq!(
            sample(&text, "f2pm_registry_active_generation "),
            Some(1.0),
            "{text}"
        );
        // The cold-start artifact load was timed into the exposition.
        assert!(
            sample(&text, "f2pm_registry_artifact_load_us_count ").unwrap_or(0.0) >= 1.0,
            "{text}"
        );

        // Publish generation 2 while the server runs; the manifest poll
        // installs it without a restart.
        train(&s(&[
            "--history",
            hist.to_str().unwrap(),
            "--method",
            "rep_tree",
            "--save-artifact",
            &store_s,
        ]))
        .unwrap();
        let text = wait_for(&|t| sample(t, "f2pm_serve_model_generation ") == Some(2.0));
        assert_eq!(sample(&text, "f2pm_registry_active_generation "), Some(2.0));

        // Roll back: store generation reverts to 1, install generation
        // keeps climbing to 3.
        models(&s(&[&store_s, "rollback"])).unwrap();
        let text = wait_for(&|t| sample(t, "f2pm_serve_model_generation ") == Some(3.0));
        assert_eq!(sample(&text, "f2pm_registry_active_generation "), Some(1.0));
        assert_eq!(sample(&text, "f2pm_serve_dropped_frames_total "), Some(0.0));
        server.join().unwrap();

        let store = ModelStore::open(&store_dir).unwrap();
        assert_eq!(store.active_generation().unwrap(), Some(1));
        assert_eq!(store.generations().unwrap(), vec![1, 2]);
        assert!(models(&s(&[&store_s, "rollback", "--to", "99"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evaluate_rejects_tiny_history() {
        let dir = std::env::temp_dir().join(format!("f2pm_cli_tiny_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hist = dir.join("tiny.csv");
        write_tiny_history(&hist);
        let err = evaluate(&s(&["--history", hist.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("collect more runs"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn serve_args(args: &[&str]) -> Result<ServeArgs, String> {
        serve_args_from(&parse_flags(&s(args), SERVE_FLAGS).unwrap())
    }

    #[test]
    fn serve_flags_parse_straight_into_serve_config() {
        // Defaults: the server's own, and the rejuvenation policy's alert.
        let a = serve_args(&["--model", "m.f2pm"]).unwrap();
        assert_eq!(a.source, ServeSource::File("m.f2pm".to_string()));
        assert_eq!(a.addr, "127.0.0.1:7878");
        assert_eq!(a.seconds, None);
        let d = ServeConfig::default();
        assert_eq!(
            (
                a.cfg.shards,
                a.cfg.reactors,
                a.cfg.queue_cap,
                a.cfg.instance_id
            ),
            (d.shards, d.reactors, d.queue_cap, d.instance_id)
        );
        assert_eq!(a.cfg.record, None);
        let policy = f2pm::RejuvenationPolicy::default();
        assert_eq!(a.cfg.policy.rttf_threshold_s, policy.rttf_threshold_s);
        assert_eq!(a.cfg.policy.consecutive_hits, policy.consecutive_hits);

        // Every knob is settable.
        let a = serve_args(&[
            "--history",
            "h.csv",
            "--method",
            "linear",
            "--window",
            "15",
            "--addr",
            "0.0.0.0:9001",
            "--shards",
            "8",
            "--reactors",
            "2",
            "--queue",
            "64",
            "--instance-id",
            "7",
            "--threshold",
            "90",
            "--hits",
            "3",
            "--seconds",
            "30",
            "--record",
            "history",
        ])
        .unwrap();
        let agg = AggregationConfig {
            window_s: 15.0,
            ..AggregationConfig::default()
        };
        assert_eq!(
            a.source,
            ServeSource::BootTrain {
                history: "h.csv".to_string(),
                method: "linear".to_string(),
                agg,
            }
        );
        assert_eq!(a.addr, "0.0.0.0:9001");
        assert_eq!(
            (
                a.cfg.shards,
                a.cfg.reactors,
                a.cfg.queue_cap,
                a.cfg.instance_id
            ),
            (8, 2, 64, 7)
        );
        assert_eq!(a.cfg.policy.rttf_threshold_s, 90.0);
        assert_eq!(a.cfg.policy.consecutive_hits, 3);
        assert_eq!(a.seconds, Some(30));
        assert_eq!(a.cfg.record, Some(std::path::PathBuf::from("history")));

        // A store source, with and without the retrain loop.
        let store = |retrain_runs| ServeSource::Store {
            dir: "models".to_string(),
            retrain_runs,
        };
        let a = serve_args(&["--models-dir", "models"]).unwrap();
        assert_eq!(a.source, store(None));
        let a = serve_args(&["--models-dir", "models", "--retrain", "6"]).unwrap();
        assert_eq!(a.source, store(Some(6)));
    }

    /// Every bad combination is rejected while parsing, before a model is
    /// loaded (none of these files exists).
    #[test]
    fn serve_flag_rules_reject_before_loading() {
        for (args, want) in [
            (&["--shards", "4"][..], "serve needs"),
            (
                &["--model", "m.f2pm", "--history", "h.csv"],
                "mutually exclusive",
            ),
            (
                &["--models-dir", "models", "--model", "m.f2pm"],
                "mutually exclusive",
            ),
            (&["--model", "m.f2pm", "--method", "linear"], "--method"),
            (
                &["--models-dir", "models", "--method", "linear"],
                "--method",
            ),
            (&["--model", "m.f2pm", "--window", "10"], "window conflicts"),
            (
                &["--models-dir", "models", "--window", "10"],
                "window conflicts",
            ),
            (&["--history", "h.csv", "--window", "0"], "--window"),
            (&["--history", "h.csv", "--window", "NaN"], "--window"),
            (
                &["--history", "h.csv", "--method", "gradient_boost"],
                "unknown training method",
            ),
            (&["--model", "m.f2pm", "--retrain", "6"], "--retrain needs"),
            (&["--history", "h.csv", "--retrain", "6"], "--retrain needs"),
            (
                &["--models-dir", "models", "--retrain", "0"],
                "--retrain: engine.window_runs must be at least 1",
            ),
            (&["--model", "m.f2pm", "--addr", ""], "--addr"),
            (&["--model", "m.f2pm", "--shards", "0"], "shards"),
            (&["--model", "m.f2pm", "--reactors", "0"], "reactors"),
            (&["--model", "m.f2pm", "--queue", "0"], "queue_cap"),
            (&["--model", "m.f2pm", "--hits", "0"], "consecutive_hits"),
            (
                &["--model", "m.f2pm", "--threshold", "-1"],
                "rttf_threshold_s",
            ),
            (
                &["--model", "m.f2pm", "--threshold", "NaN"],
                "rttf_threshold_s",
            ),
            (&["--model", "m.f2pm", "--record", ""], "record"),
        ] {
            let err = serve(&s(args)).unwrap_err();
            assert!(err.contains(want), "{args:?}: {err}");
        }
    }

    #[test]
    fn fleet_rejects_bad_usage_before_dialing() {
        assert!(fleet(&s(&[])).is_err());
        let err = fleet(&s(&["frobnicate", "--addrs", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("unknown fleet action"), "{err}");
        assert!(fleet(&s(&["top-k"])).is_err(), "missing --addrs");
        assert!(fleet(&s(&["top-k", "--addrs", "127.0.0.1:1", "--k", "0"])).is_err());
    }

    #[test]
    fn fleet_commands_run_against_live_instances() {
        let agg = AggregationConfig::default();
        let columns = f2pm_features::aggregate::aggregated_column_names_with(&agg);
        let model = SavedModel::Linear(f2pm_ml::linreg::LinearModel {
            intercept: 100.0,
            coefficients: vec![0.0; columns.len()],
        });
        let servers: Vec<_> = (1u32..=2)
            .map(|id| {
                let registry = ModelRegistry::new(model.clone(), columns.clone(), agg).unwrap();
                PredictionServer::start(
                    "127.0.0.1:0",
                    ServeConfig {
                        instance_id: id,
                        ..ServeConfig::default()
                    },
                    registry,
                )
                .unwrap()
            })
            .collect();
        let addrs = format!("{},{}", servers[0].addr(), servers[1].addr());
        fleet(&s(&["stats", "--addrs", &addrs])).unwrap();
        fleet(&s(&["scrape", "--addrs", &addrs])).unwrap();
        fleet(&s(&["top-k", "--addrs", &addrs, "--k", "5"])).unwrap();
        for server in servers {
            server.shutdown();
        }
    }
}
