//! The continuous-retraining plane: close the loop from live ingest back
//! to the model artifact store.
//!
//! The serving path predicts with whatever model the [`ModelRegistry`]
//! holds; this module keeps that model *fresh*. A [`RetrainTap`] rides
//! the shard workers (see [`crate::shard`]), which assemble each host's
//! life: every `Fail` closes one [`RunData`], and the tap offers it whole
//! to a bounded channel with a lossy `try_send`, so the ingest hot path
//! never blocks on training — under overload the tap drops whole runs
//! (counted), never the serving pipeline and never part of a run. A
//! background [`RetrainWorker`] drains the tap, slides each run into a
//! warm [`RetrainEngine`](f2pm::RetrainEngine), and publishes the
//! refreshed LS-SVM through [`ModelStore::publish`] — the same atomic
//! manifest protocol every other publisher uses, so the server's
//! [`StoreWatcher`](crate::StoreWatcher) (or any other instance polling
//! the store) hot-reloads it with zero connection disruption.
//!
//! Separation of duties, on purpose: the worker only *publishes*. It
//! never touches a registry directly — installation stays with the
//! manifest watcher, which already handles corrupted artifacts, rollback
//! and the generation gauge. Killing the worker loses nothing but
//! freshness.
//!
//! Telemetry lands on the process-global `f2pm_obs` registry (the serve
//! exposition appends it, so a scrape carries the retrain plane too):
//!
//! - `f2pm_retrain_runs_total` — completed failing runs ingested;
//! - `f2pm_retrain_total` / `_warm_total` / `_fallback_total` — retrains,
//!   and how many kept the warm factor path vs fell back to an exact
//!   refactorization;
//! - `f2pm_retrain_failures_total` / `f2pm_retrain_publish_failures_total`
//!   — retrains or publishes that errored (the worker keeps going);
//! - `f2pm_retrain_tap_dropped_total` — whole runs the lossy tap shed;
//! - `f2pm_retrain_runs_skipped_total` — runs discarded as unusable
//!   (a life that outgrew [`MAX_RUN_DATAPOINTS`], counted by the shard at
//!   its `Fail`; no datapoints, or a non-finite value or `Fail` time,
//!   counted by the worker — one such run would fail every retrain for as
//!   long as it stayed in the window);
//! - `f2pm_retrain_published_generation` — the last store generation this
//!   worker published.

use f2pm::{FactorPath, RetrainConfig as EngineConfig, RetrainEngine};
use f2pm_features::aggregate::{aggregate_run, aggregated_column_names_with};
use f2pm_features::AggregationConfig;
use f2pm_ml::{Metrics, Model, SMaeThreshold, SavedModel};
use f2pm_monitor::{Datapoint, RunData};
use f2pm_registry::{ArtifactMeta, ModelStore};
use std::io;

/// The one bound on a host's life buffer in a shard worker (and on its
/// queue of rows the recorder has not written yet). A life that outgrows
/// it is freed and skipped by the tap at its `Fail` instead of trained
/// truncated. Far above any realistic run length; exists to bound shard
/// memory.
pub const MAX_RUN_DATAPOINTS: usize = 100_000;

/// Default bounded capacity of the tap channel, in runs. A run arrives
/// per host `Fail`; the queue only grows while runs close faster than the
/// worker aggregates (or retrains on) them, as when a window fill streams
/// hundreds of short lives at once: the `refresh` benchmark's 1,800-row
/// fill is 252–256 lives over seeds 0–20, 42, 99, 123, 1000 and 4242.
/// 320 is that maximum plus a quarter, so such a fill fits whole even if
/// the worker stalls. Worst case the queue holds 320 runs of
/// [`MAX_RUN_DATAPOINTS`] datapoints (120 B each), ≈ 3.8 GB; runs of
/// ~1000 datapoints hold ≈ 38 MB.
pub const DEFAULT_TAP_CAP: usize = 320;

/// Lossy, non-blocking feed of closed runs into the [`RetrainWorker`].
/// Cloned into every shard worker; offering a run never blocks — when the
/// channel is full the whole run is dropped and counted, because serving
/// latency always outranks training freshness.
#[derive(Clone)]
pub struct RetrainTap {
    tx: crossbeam::channel::Sender<RunData>,
    dropped: f2pm_obs::Counter,
    skipped: f2pm_obs::Counter,
}

impl RetrainTap {
    /// Offer one closed run whole.
    pub(crate) fn offer_run(&self, run: RunData) {
        if self.tx.try_send(run).is_err() {
            self.dropped.inc();
        }
    }

    /// Count a closed run that cannot be offered whole (its life outgrew
    /// [`MAX_RUN_DATAPOINTS`]).
    pub(crate) fn skip_run(&self) {
        self.skipped.inc();
    }
}

/// Configuration of a [`RetrainWorker`].
#[derive(Debug, Clone)]
pub struct RetrainerConfig {
    /// The warm engine's configuration (window length, kernel, γ). Its
    /// aggregation MUST match what the serving registry aggregates with —
    /// the published artifact records it, and a mismatched publish would
    /// swap the server onto a model speaking different columns.
    pub engine: EngineConfig,
    /// Publish only once the window holds at least this many runs
    /// (defaults to the full window).
    pub min_window_runs: usize,
    /// Bounded tap-channel capacity, in runs.
    pub queue_cap: usize,
}

impl RetrainerConfig {
    /// Defaults: publish on a full window, [`DEFAULT_TAP_CAP`] tap slots.
    pub fn new(engine: EngineConfig) -> Self {
        RetrainerConfig {
            min_window_runs: engine.window_runs,
            engine,
            queue_cap: DEFAULT_TAP_CAP,
        }
    }

    /// Check every knob, naming the first bad field in an `InvalidInput`
    /// error: a zero `engine.window_runs`, `min_window_runs` or
    /// `queue_cap`, or an `engine.gamma` that is not a positive number.
    /// Nothing behind it clamps; [`RetrainWorker::start`] refuses what
    /// this refuses.
    pub fn validate(&self) -> io::Result<()> {
        let zero = [
            ("engine.window_runs", self.engine.window_runs),
            ("min_window_runs", self.min_window_runs),
            ("queue_cap", self.queue_cap),
        ]
        .into_iter()
        .find(|&(_, v)| v == 0);
        let gamma = self.engine.gamma;
        let msg = if let Some((field, _)) = zero {
            format!("{field} must be at least 1")
        } else if gamma.is_nan() || gamma <= 0.0 {
            format!("engine.gamma must be positive, got {gamma}")
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
    }
}

/// The background retraining worker (see the module docs). Owns one OS
/// thread; exits when every [`RetrainTap`] clone has been dropped (i.e.
/// after the shard pool shuts down).
pub struct RetrainWorker {
    handle: std::thread::JoinHandle<()>,
}

impl RetrainWorker {
    /// Spawn the worker publishing into `store`. Returns the tap to hand
    /// to [`PredictionServer::start_with_tap`](crate::PredictionServer::start_with_tap)
    /// together with the worker handle.
    ///
    /// # Panics
    /// Panics with [`RetrainerConfig::validate`]'s message if `cfg` is
    /// invalid, or if the worker thread cannot be spawned.
    pub fn start(cfg: RetrainerConfig, store: ModelStore) -> (RetrainTap, RetrainWorker) {
        if let Err(e) = cfg.validate() {
            panic!("invalid retrainer config: {e}");
        }
        let (tx, rx) = crossbeam::channel::bounded(cfg.queue_cap);
        let tap = RetrainTap {
            tx,
            dropped: f2pm_obs::global().counter("f2pm_retrain_tap_dropped_total"),
            skipped: f2pm_obs::global().counter("f2pm_retrain_runs_skipped_total"),
        };
        let handle = std::thread::Builder::new()
            .name("f2pm-retrain".to_string())
            .spawn(move || worker_loop(rx, cfg, store))
            .expect("spawn retrain worker");
        (tap, RetrainWorker { handle })
    }

    /// Wait for the worker to drain and exit. Call after the server (and
    /// with it every tap clone) has shut down; joining earlier blocks
    /// until the taps drop.
    pub fn join(self) {
        self.handle.join().ok();
    }
}

/// Handles into the global registry, grabbed once at spawn.
struct RetrainMetrics {
    runs: f2pm_obs::Counter,
    runs_skipped: f2pm_obs::Counter,
    retrains: f2pm_obs::Counter,
    warm: f2pm_obs::Counter,
    fallback: f2pm_obs::Counter,
    failures: f2pm_obs::Counter,
    publish_failures: f2pm_obs::Counter,
    published_generation: f2pm_obs::Gauge,
    window_runs: f2pm_obs::Gauge,
}

impl RetrainMetrics {
    fn new() -> Self {
        let g = f2pm_obs::global();
        RetrainMetrics {
            runs: g.counter("f2pm_retrain_runs_total"),
            runs_skipped: g.counter("f2pm_retrain_runs_skipped_total"),
            retrains: g.counter("f2pm_retrain_total"),
            warm: g.counter("f2pm_retrain_warm_total"),
            fallback: g.counter("f2pm_retrain_fallback_total"),
            failures: g.counter("f2pm_retrain_failures_total"),
            publish_failures: g.counter("f2pm_retrain_publish_failures_total"),
            published_generation: g.gauge("f2pm_retrain_published_generation"),
            window_runs: g.gauge("f2pm_retrain_window_runs"),
        }
    }
}

fn worker_loop(rx: crossbeam::channel::Receiver<RunData>, cfg: RetrainerConfig, store: ModelStore) {
    let metrics = RetrainMetrics::new();
    let mut engine = RetrainEngine::new(cfg.engine.clone());
    while let Ok(run) = rx.recv() {
        if run.datapoints.is_empty()
            || !run.fail_time.is_some_and(f64::is_finite)
            || !run.datapoints.iter().all(Datapoint::is_finite)
        {
            metrics.runs_skipped.inc();
            continue;
        }
        engine.push_run(&run);
        metrics.runs.inc();
        metrics.window_runs.set_u64(engine.window_runs() as u64);
        if engine.window_runs() < cfg.min_window_runs {
            continue;
        }
        retrain_and_publish(&mut engine, &run, &store, &metrics);
    }
}

/// One retrain → publish cycle. Failures are counted and swallowed: the
/// current model keeps serving, and the next completed run retries.
fn retrain_and_publish(
    engine: &mut RetrainEngine,
    newest_run: &RunData,
    store: &ModelStore,
    metrics: &RetrainMetrics,
) {
    let agg = engine.config().aggregation;
    let outcome = match engine.retrain() {
        Ok(outcome) => outcome,
        Err(f2pm::F2pmError::NotEnoughData { .. }) => return,
        Err(_) => {
            metrics.failures.inc();
            return;
        }
    };
    metrics.retrains.inc();
    if outcome.lssvm_path == FactorPath::Warm {
        metrics.warm.inc();
    }
    if outcome.lssvm_path == FactorPath::Fallback {
        metrics.fallback.inc();
    }
    let meta = ArtifactMeta::new(
        "ls_svm",
        agg,
        aggregated_column_names_with(&agg),
        run_train_smae(&outcome.model, newest_run, &agg),
    );
    match store.publish(&meta, &SavedModel::LsSvm(outcome.model)) {
        Ok(generation) => metrics.published_generation.set_u64(generation),
        Err(_) => metrics.publish_failures.inc(),
    }
}

/// In-sample S-MAE of the fresh model over the newest run's labeled
/// aggregated points — the cheap freshness proxy recorded as the
/// artifact's `train_smae`. `NaN` when the run aggregates to no labeled
/// point (metadata contract for "unknown").
fn run_train_smae(model: &dyn Model, run: &RunData, agg: &AggregationConfig) -> f64 {
    let mut predicted = Vec::new();
    let mut actual = Vec::new();
    for p in aggregate_run(run, agg) {
        if let Some(rttf) = p.rttf {
            predicted.push(model.predict_row(&p.inputs_with(agg)));
            actual.push(rttf);
        }
    }
    if actual.is_empty() {
        return f64::NAN;
    }
    Metrics::compute(&predicted, &actual, SMaeThreshold::paper_default()).smae
}

#[cfg(test)]
impl RetrainTap {
    /// A tap into a `cap`-run channel whose counters live on a private
    /// registry, so concurrent tests cannot disturb exact counts.
    pub(crate) fn private(cap: usize) -> (Self, crossbeam::channel::Receiver<RunData>) {
        let (tx, rx) = crossbeam::channel::bounded(cap);
        let local = f2pm_obs::MetricsRegistry::new();
        let tap = RetrainTap {
            tx,
            dropped: local.counter("f2pm_retrain_tap_dropped_total"),
            skipped: local.counter("f2pm_retrain_runs_skipped_total"),
        };
        (tap, rx)
    }

    /// Whole runs this tap dropped.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Overflowed runs this tap skipped.
    pub(crate) fn skipped(&self) -> u64 {
        self.skipped.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_monitor::FeatureId;
    use std::time::{Duration, Instant};

    fn temp_store(tag: &str) -> (std::path::PathBuf, ModelStore) {
        let dir = std::env::temp_dir().join(format!("f2pm_retrain_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ModelStore::open(&dir).unwrap();
        (dir, store)
    }

    fn agg() -> AggregationConfig {
        AggregationConfig {
            window_s: 30.0,
            min_points: 2,
            ..AggregationConfig::default()
        }
    }

    fn engine_cfg(window_runs: usize) -> EngineConfig {
        EngineConfig {
            aggregation: agg(),
            ..EngineConfig::new(window_runs)
        }
    }

    fn dp(t: f64, seed: u64) -> Datapoint {
        // Deterministic per-(t, seed) variation so the standardized
        // columns are not degenerate.
        let mut d = Datapoint {
            t_gen: t,
            values: [1.0; 14],
        };
        for (j, v) in d.values.iter_mut().enumerate() {
            *v = 1.0 + 0.01 * t * (1.0 + j as f64 * 0.1) + (seed as f64 * 0.37 + j as f64).sin();
        }
        d.set(FeatureId::SwapUsed, 2.0 * t + (seed as f64).sin());
        d
    }

    /// One synthetic failing run: datapoints every 5 s over [0, 200) and
    /// a fail at `fail_t` → six 30 s windows, all labeled.
    fn run(seed: u64, fail_t: f64) -> RunData {
        RunData {
            datapoints: (0..40).map(|i| dp(i as f64 * 5.0, seed)).collect(),
            fail_time: Some(fail_t),
        }
    }

    /// Offer one synthetic failing run (fail at 205 s) through the tap.
    fn stream_run(tap: &RetrainTap, seed: u64) {
        tap.offer_run(run(seed, 205.0));
    }

    fn wait_generation(store: &ModelStore, at_least: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(g)) = store.active_generation() {
                if g >= at_least {
                    return g;
                }
            }
            assert!(
                Instant::now() < deadline,
                "store never reached generation {at_least}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn worker_publishes_lssvm_artifacts_as_runs_complete() {
        let (dir, store) = temp_store("publish");
        let cfg = RetrainerConfig::new(engine_cfg(2));
        let (tap, worker) = RetrainWorker::start(cfg, ModelStore::open(&dir).unwrap());

        // One run is below min_window_runs → nothing published yet.
        stream_run(&tap, 0);
        // Second run fills the window → first (cold) publish; later runs
        // slide the window → warm publishes.
        stream_run(&tap, 1);
        let g1 = wait_generation(&store, 1);
        stream_run(&tap, 2);
        let g2 = wait_generation(&store, g1 + 1);
        assert!(g2 > g1);

        let (_, meta, saved) = store.load_active().unwrap().unwrap();
        assert_eq!(meta.method, "ls_svm");
        assert_eq!(saved.kind(), "ls_svm");
        assert_eq!(meta.columns, aggregated_column_names_with(&agg()));
        assert_eq!(meta.agg.window_s, agg().window_s);
        assert!(
            meta.train_smae.is_finite(),
            "in-sample S-MAE recorded, got {}",
            meta.train_smae
        );

        drop(tap);
        worker.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_runs_are_skipped_and_counted() {
        let (dir, store) = temp_store("corrupt");
        let skipped = f2pm_obs::global().counter("f2pm_retrain_runs_skipped_total");
        let before = skipped.get();
        let mut cfg = RetrainerConfig::new(engine_cfg(2));
        cfg.min_window_runs = 1;
        let (tap, worker) = RetrainWorker::start(cfg, ModelStore::open(&dir).unwrap());

        // A run with a NaN datapoint, one with a non-finite Fail time and
        // one with no datapoints: all skipped, so none publishes or stays
        // in the window to fail the retrains after it.
        let mut nan = run(20, 205.0);
        nan.datapoints[20].values[3] = f64::NAN;
        tap.offer_run(nan);
        tap.offer_run(run(21, f64::INFINITY));
        tap.offer_run(RunData {
            datapoints: Vec::new(),
            fail_time: Some(50.0),
        });
        // A clean run alone then meets `min_window_runs` and publishes
        // the first generation.
        stream_run(&tap, 22);

        drop(tap);
        worker.join();
        assert!(skipped.get() - before >= 3, "every corrupt run counted");
        assert_eq!(store.active_generation().unwrap(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A full tap drops whole runs: the receiver holds the first run
    /// exactly as offered, and each later offer is one counted drop.
    #[test]
    fn full_tap_drops_whole_runs_instead_of_blocking() {
        let (tap, rx) = RetrainTap::private(1);
        let first = run(0, 205.0);
        tap.offer_run(first.clone());
        tap.offer_run(run(1, 205.0));
        tap.offer_run(run(2, 210.0));
        assert_eq!(tap.dropped.get(), 2);
        let got: Vec<RunData> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert_eq!(got, vec![first]);
        tap.skip_run();
        assert_eq!(tap.skipped.get(), 1);
    }

    #[test]
    fn train_smae_is_nan_without_labeled_points() {
        let model = f2pm_ml::linreg::LinearModel {
            intercept: 0.0,
            coefficients: vec![0.0; 30],
        };
        let run = RunData {
            datapoints: vec![dp(0.0, 0)],
            fail_time: None, // censored → no labels
        };
        assert!(run_train_smae(&model, &run, &agg()).is_nan());
    }

    /// Every zero or non-positive knob is an `InvalidInput` naming its
    /// field; nothing is clamped.
    #[test]
    fn validate_rejects_each_bad_knob_by_name() {
        let ok = RetrainerConfig::new(engine_cfg(2));
        assert!(ok.validate().is_ok());
        let cases = [
            ("engine.window_runs", RetrainerConfig::new(engine_cfg(0))),
            (
                "min_window_runs",
                RetrainerConfig {
                    min_window_runs: 0,
                    ..ok.clone()
                },
            ),
            (
                "queue_cap",
                RetrainerConfig {
                    queue_cap: 0,
                    ..ok.clone()
                },
            ),
            (
                "engine.gamma",
                RetrainerConfig {
                    engine: EngineConfig {
                        gamma: 0.0,
                        ..engine_cfg(2)
                    },
                    ..ok.clone()
                },
            ),
            (
                "engine.gamma",
                RetrainerConfig {
                    engine: EngineConfig {
                        gamma: f64::NAN,
                        ..engine_cfg(2)
                    },
                    ..ok.clone()
                },
            ),
        ];
        for (field, cfg) in cases {
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "queue_cap must be at least 1")]
    fn start_refuses_an_invalid_config() {
        let dir = std::env::temp_dir().join(format!("f2pm_retrain_bad_{}", std::process::id()));
        let cfg = RetrainerConfig {
            queue_cap: 0,
            ..RetrainerConfig::new(engine_cfg(2))
        };
        let store = ModelStore::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        RetrainWorker::start(cfg, store);
    }
}
