//! The continuous-retraining plane end to end over real TCP: a client
//! streams failing runs into a serving instance, the tap-fed background
//! worker warm-retrains an LS-SVM over the sliding run window and
//! publishes it into the artifact store, and the manifest watcher
//! hot-reloads each published generation into the live registry — while
//! predictions keep flowing on the same connection, with zero drops.

use f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_features::AggregationConfig;
use f2pm_ml::linreg::LinearModel;
use f2pm_ml::SavedModel;
use f2pm_monitor::wire::{Message, PROTOCOL_VERSION};
use f2pm_monitor::{Datapoint, FeatureId};
use f2pm_registry::{ArtifactMeta, ModelStore};
use f2pm_serve::{
    ModelRegistry, PredictionServer, RetrainWorker, RetrainerConfig, ServeConfig, StoreWatcher,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn agg() -> AggregationConfig {
    AggregationConfig {
        window_s: 30.0,
        min_points: 2,
        ..AggregationConfig::default()
    }
}

/// A linear seed model over the full 30-column aggregated layout (the
/// same layout the retrain worker publishes, so the registry's input
/// contract never changes across generations).
fn seed_model() -> SavedModel {
    let mut coefficients = vec![0.0; 30];
    coefficients[FeatureId::SwapUsed.index()] = -2.0;
    SavedModel::Linear(LinearModel {
        intercept: 1000.0,
        coefficients,
    })
}

fn dp(t: f64, seed: u64) -> Datapoint {
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

struct Client {
    stream: TcpStream,
    host: u32,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, host: u32) -> Self {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Message::Hello {
            version: PROTOCOL_VERSION,
            host_id: host,
        }
        .write_to(&mut stream)
        .unwrap();
        Client { stream, host }
    }

    fn send(&mut self, msg: &Message) {
        msg.write_to(&mut self.stream).unwrap();
    }

    /// One complete failing run: datapoints every 5 s over [0, 200), the
    /// fail event at 205 s → six labeled 30 s windows.
    fn stream_run(&mut self, seed: u64) {
        let mut t = 0.0;
        while t < 200.0 {
            self.send(&Message::Datapoint(dp(t, seed)));
            t += 5.0;
        }
        self.send(&Message::Fail { t: 205.0 });
    }

    /// Poll `PredictRequest` until an estimate is present, skipping
    /// alerts pushed in between.
    fn wait_estimate(&mut self) -> (f64, u64) {
        for _ in 0..2000 {
            self.send(&Message::PredictRequest { host_id: self.host });
            loop {
                match Message::read_from(&mut self.stream).unwrap().unwrap() {
                    Message::RttfEstimate {
                        rttf: Some(r),
                        model_generation,
                        ..
                    } => return (r, model_generation),
                    Message::RttfEstimate { rttf: None, .. } => break,
                    Message::Alert { .. } => {}
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("no estimate for host {}", self.host);
    }
}

/// Poll the manifest watcher until it installs a store generation ≥
/// `at_least`, returning `(store_generation, install_generation)`.
fn wait_install(watcher: &mut StoreWatcher, at_least: u64) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(Some((store_gen, install_gen))) = watcher.poll() {
            if store_gen >= at_least {
                return (store_gen, install_gen);
            }
        }
        assert!(
            Instant::now() < deadline,
            "watcher never installed store generation {at_least}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn streamed_runs_retrain_publish_and_hot_reload_without_disruption() {
    let dir = std::env::temp_dir().join(format!("f2pm_retrain_plane_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Seed the store so the server can cold-start before any run failed.
    let store = ModelStore::open(&dir).unwrap();
    let meta = ArtifactMeta::new("linear", agg(), aggregated_column_names_with(&agg()), 50.0);
    store.publish(&meta, &seed_model()).unwrap();
    let registry = ModelRegistry::from_store(&store).unwrap();
    assert_eq!(registry.current().kind, "linear");

    // The retrain plane: worker publishing into the same store, tap wired
    // through the shard workers.
    let engine = f2pm::RetrainConfig {
        aggregation: registry.agg(),
        ..f2pm::RetrainConfig::new(2)
    };
    let (tap, worker) = RetrainWorker::start(
        RetrainerConfig::new(engine),
        ModelStore::open(&dir).unwrap(),
    );
    let server = PredictionServer::start_with_tap(
        "127.0.0.1:0",
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        registry,
        Some(tap),
    )
    .unwrap();
    let registry = server.registry();
    let mut watcher = StoreWatcher::new(ModelStore::open(&dir).unwrap(), registry.clone(), Some(1));
    let mut client = Client::connect(server.addr(), 42);

    // Generation 1 serves while the window fills: the linear seed model
    // answers from the very first life.
    let mut t = 0.0;
    while t < 60.0 {
        client.send(&Message::Datapoint(dp(t, 0)));
        t += 5.0;
    }
    let (_, generation) = client.wait_estimate();
    assert_eq!(generation, 1, "the seed artifact serves before any retrain");
    client.send(&Message::Fail { t: 65.0 });

    // Two full failing runs fill the 2-run window → the worker's first
    // (cold) retrain publishes store generation 2, which the manifest
    // watcher hot-reloads into the live registry.
    client.stream_run(1);
    client.stream_run(2);
    let (store_gen, install_gen) = wait_install(&mut watcher, 2);
    assert!(store_gen >= 2);
    assert!(install_gen >= 2);
    assert_eq!(registry.current().kind, "ls_svm");
    assert_eq!(registry.columns(), aggregated_column_names_with(&agg()));

    // The same connection keeps serving across the swap: a fresh life's
    // estimates now come from the retrained LS-SVM's generation.
    let mut t = 0.0;
    while t < 60.0 {
        client.send(&Message::Datapoint(dp(t, 3)));
        t += 5.0;
    }
    let (_, generation) = client.wait_estimate();
    assert!(
        generation >= install_gen,
        "estimates must carry the retrained generation ({generation} < {install_gen})"
    );

    // One more completed run slides the window → a warm retrain publishes
    // the next generation. (The window-shift here retires one run and
    // appends one — exactly the rank-k update path.)
    client.send(&Message::Fail { t: 65.0 });
    client.stream_run(4);
    let (store_gen2, _) = wait_install(&mut watcher, store_gen + 1);
    assert!(store_gen2 > store_gen);
    assert_eq!(registry.current().kind, "ls_svm");

    // The published artifact is a real, loadable LS-SVM over the full
    // aggregated layout with an in-sample S-MAE recorded.
    let (_, meta, saved) = store.load_active().unwrap().unwrap();
    assert_eq!(meta.method, "ls_svm");
    assert_eq!(saved.kind(), "ls_svm");
    assert_eq!(meta.columns, aggregated_column_names_with(&agg()));
    assert!(meta.train_smae.is_finite());

    client.send(&Message::Bye);
    let snap = server.shutdown();
    assert_eq!(snap.dropped, 0, "retraining must not cost a single frame");
    // Every tap clone died with the shard pool, so the worker exits.
    worker.join();
    std::fs::remove_dir_all(&dir).ok();
}
