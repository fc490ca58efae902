//! `refresh`: serving while continuously retraining.
//!
//! The server runs with a `RetrainWorker` tapping its shards. Set-up
//! fills the worker's sliding window with [`WINDOW_ROWS`] aggregated rows
//! (the paper's scale) streamed over a third connection, waits for the
//! worker's first LS-SVM publish and installs it; that fill counts in
//! `setup_s`. The timed phase is the ingest traffic shape at one fixed
//! rate ([`RATE`]): every `Fail` makes the worker retrain warm and publish
//! a generation, and the generator polls `StoreWatcher::poll` every 5 ms
//! to hot-reload it. The end-to-end result is the model lag: from sending
//! a `Fail` until a generation that includes its run is installed.
//!
//! Artifacts are published under `target/benchmark` in the checkout (a
//! disk, not tmpfs).

use crate::ingest::{check_scrape, same, serve_config, serve_loadgen_layers};
use crate::report::{Report, TraceData};
use crate::stats::{interpolated, median, rank_or_zero};
use crate::trace::Tracer;
use crate::traffic::{self, agg, make_script, metric, Life, Phase, Script};
use crate::{repeated_setup, Ctx};
use bytes::BytesMut;
use f2pm::{RetrainConfig, RetrainEngine};
use f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_features::aggregate_run;
use f2pm_ml::SavedModel;
use f2pm_monitor::wire::{FrameDecoder, Message, PROTOCOL_VERSION};
use f2pm_registry::{ArtifactMeta, ModelStore};
use f2pm_serve::{
    ModelEntry, ModelRegistry, PredictionServer, RetrainWorker, RetrainerConfig, ServeHandle,
    StoreWatcher,
};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Aggregated rows the retraining window is filled to (whole runs): the
/// low end of the paper's 1800–2200-row scale, where a warm retrain stays
/// short enough that model lag is not dominated by runs queueing behind
/// one another on a 2-thread box.
const WINDOW_ROWS: usize = 1_800;

/// Offered rate (datapoints per second over both hosts): about four runs
/// end per second, so retraining keeps one core of a 2-thread box roughly
/// a quarter busy on the commit that introduced this benchmark.
pub const RATE: f64 = 600.0;

/// Host id of the set-up connection that fills the window.
const FILL_HOST: u32 = 2;

/// How long to wait for the worker to publish what it was sent.
const PUBLISH_WAIT: Duration = Duration::from_secs(20);

/// Datapoints simulated per host for the timed traffic.
const SCRIPT_POINTS: usize = 20_000;

/// `f2pm_retrain_*` counters read from scrapes.
const RETRAIN_COUNTERS: [&str; 8] = [
    "f2pm_retrain_runs_total",
    "f2pm_retrain_total",
    "f2pm_retrain_warm_total",
    "f2pm_retrain_fallback_total",
    "f2pm_retrain_failures_total",
    "f2pm_retrain_publish_failures_total",
    "f2pm_retrain_tap_dropped_total",
    "f2pm_retrain_runs_skipped_total",
];

/// How long a superseded generation's model is kept for checking
/// estimates still in flight; an estimate arriving later than this after
/// its due time fails the check.
const KEEP_SUPERSEDED: Duration = Duration::from_secs(2);

/// A model generation as installed, with the poll that installed it.
struct Installed {
    store_generation: u64,
    poll_start: Instant,
    poll_end: Instant,
    /// `None` once superseded for longer than [`KEEP_SUPERSEDED`].
    entry: Option<Arc<ModelEntry>>,
}

struct Setup {
    server: ServeHandle,
    worker: RetrainWorker,
    watcher: StoreWatcher,
    registry: Arc<ModelRegistry>,
    store: ModelStore,
    scripts: [Script; traffic::HOSTS],
    fill: Vec<Life>,
    /// Retrain counters scraped once the fill was published.
    counters_before: Vec<f64>,
    installed: Installed,
}

/// Whole lives of a fill host until they aggregate to `rows` labeled rows.
fn fill_lives(seed: u64, rows: usize) -> Vec<Life> {
    let pool = make_script(seed ^ 0xf111, FILL_HOST, rows * 40);
    let mut total = 0;
    pool.lives
        .into_iter()
        .take_while(|life| {
            let before = total;
            total += aggregate_run(&life.run(), &agg())
                .iter()
                .filter(|p| p.rttf.is_some())
                .count();
            before < rows
        })
        .collect()
}

/// Send every fill life (datapoints, then its `Fail`) on a connection of
/// its own, and keep reading what the server pushes back. Once `ready`
/// reports the worker published, scrape over the same connection and
/// close it. Returns the scrape.
fn stream_fill(
    addr: SocketAddr,
    lives: &[Life],
    ready: &mut dyn FnMut() -> bool,
) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    Message::Hello {
        version: PROTOCOL_VERSION,
        host_id: FILL_HOST,
    }
    .write_to(&mut conn)?;
    let mut reader = conn.try_clone()?;
    std::thread::scope(|scope| {
        let drain = scope.spawn(move || {
            let mut decoder = FrameDecoder::new();
            let mut scrape = None;
            while let Ok(Some(msg)) = decoder.read_frame(&mut reader) {
                if let Message::MetricsText { text } = msg {
                    scrape = Some(text);
                }
            }
            scrape
        });
        let mut buf = BytesMut::new();
        for life in lives {
            buf.clear();
            for &d in &life.datapoints {
                Message::Datapoint(d).encode_into(&mut buf);
            }
            Message::Fail { t: life.fail_t }.encode_into(&mut buf);
            conn.write_all(&buf)?;
            // Paced per life, so the lossy retrain tap never fills.
            std::thread::sleep(Duration::from_millis(1));
        }
        let deadline = Instant::now() + PUBLISH_WAIT;
        while !ready() {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("the worker never published the fill"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Message::MetricsRequest.write_to(&mut conn)?;
        Message::Bye.write_to(&mut conn)?;
        conn.shutdown(Shutdown::Write)?;
        drain
            .join()
            .expect("fill reader panicked")
            .ok_or_else(|| std::io::Error::other("no scrape after the fill"))
    })
}

fn counters(text: &str) -> Vec<f64> {
    RETRAIN_COUNTERS
        .iter()
        .map(|c| metric(text, c).unwrap_or(0.0))
        .collect()
}

fn setup(ctx: &Ctx, dir: &Path) -> std::io::Result<Setup> {
    let scripts = crate::ingest::scripts(ctx.seed, ctx.pick(SCRIPT_POINTS, SCRIPT_POINTS / 10));
    let fill = fill_lives(ctx.seed, ctx.pick(WINDOW_ROWS, WINDOW_ROWS / 10));
    let store = ModelStore::with_retention(dir, usize::MAX).map_err(std::io::Error::from)?;
    let columns = aggregated_column_names_with(&agg());
    let meta = ArtifactMeta::new("linear", agg(), columns, f64::NAN);
    store
        .publish(&meta, &SavedModel::Linear(traffic::fit_linear(&fill)))
        .map_err(std::io::Error::from)?;
    let registry = ModelRegistry::from_store(&store)?;
    let engine = RetrainConfig {
        aggregation: agg(),
        ..RetrainConfig::new(fill.len())
    };
    let (tap, worker) = RetrainWorker::start(
        RetrainerConfig::new(engine),
        ModelStore::with_retention(dir, usize::MAX).map_err(std::io::Error::from)?,
    );
    let server = PredictionServer::start_with_tap(
        "127.0.0.1:0",
        serve_config(),
        registry.clone(),
        Some(tap),
    )?;
    let mut watcher = StoreWatcher::new(
        ModelStore::with_retention(dir, usize::MAX).map_err(std::io::Error::from)?,
        registry.clone(),
        Some(1),
    );
    let mut installed = None;
    let scrape = stream_fill(server.addr(), &fill, &mut || {
        let poll_start = Instant::now();
        if let Ok(Some((store_generation, _))) = watcher.poll() {
            installed = Some(Installed {
                store_generation,
                poll_start,
                poll_end: Instant::now(),
                entry: Some(registry.current()),
            });
        }
        installed.is_some()
    })?;
    Ok(Setup {
        server,
        worker,
        watcher,
        registry,
        store,
        scripts,
        fill,
        counters_before: counters(&scrape),
        installed: installed.expect("ready only once installed"),
    })
}

fn teardown(s: Setup) {
    s.server.shutdown();
    s.worker.join();
}

/// Whether an estimate matches the replay under some generation that was
/// serving between its datapoint's due time and its arrival.
fn matches(installs: &[Installed], row: &[f64], rttf: f64, due: Instant, arrived: Instant) -> bool {
    installs.iter().enumerate().any(|(i, g)| {
        let started_in_time = g.poll_start <= arrived;
        let still_active_at_due = installs.get(i + 1).is_none_or(|next| next.poll_end > due);
        started_in_time
            && still_active_at_due
            && g.entry
                .as_ref()
                .is_some_and(|e| same(rttf, e.model.predict_row(row).max(0.0)))
    })
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("refresh");
    let dir = ctx.work_dir("refresh");
    let mut round = 0;
    let (s, setup_s) = repeated_setup(
        || {
            round += 1;
            setup(ctx, &dir.join(format!("store-{round}")))
        },
        |old| {
            if let Ok(s) = old {
                teardown(s);
            }
        },
    );
    let mut s = match s {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("set-up failed: {e}"));
            report.attempted = 1;
            report.failed = 1;
            std::fs::remove_dir_all(&dir).ok();
            return report;
        }
    };
    report.e2e_metric("setup_s", setup_s);
    let first_generation = s.installed.store_generation;
    let installs = Mutex::new(vec![s.installed]);
    let mut install_ms = Vec::new();
    let phase = Phase {
        rate: Some(RATE),
        duration: Duration::from_secs_f64(ctx.seconds),
        keep: true,
    };
    let watcher = &mut s.watcher;
    let registry = &s.registry;
    let mut poll = |install_ms: &mut Vec<f64>| {
        let poll_start = Instant::now();
        if let Ok(Some((store_generation, _))) = watcher.poll() {
            let poll_end = Instant::now();
            install_ms.push((poll_end - poll_start).as_secs_f64() * 1e3);
            let mut list = installs.lock().expect("install list poisoned");
            list.push(Installed {
                store_generation,
                poll_start,
                poll_end,
                entry: Some(registry.current()),
            });
            for i in 1..list.len() {
                if list[i].poll_end + KEEP_SUPERSEDED < poll_end {
                    list[i - 1].entry = None;
                }
            }
        }
    };
    let verify = |e: &traffic::Received, w: &traffic::Window| {
        let list = installs.lock().expect("install list poisoned");
        e.t == w.t && matches(&list, &w.row, e.rttf, e.due, e.arrived)
    };
    let run = traffic::run(
        s.server.addr(),
        &s.scripts,
        &[phase],
        &mut |_| poll(&mut install_ms),
        &verify,
    );
    // Wait for the generations of the last runs sent.
    let want = first_generation + run.as_ref().map_or(0, |o| o.fails.len() as u64);
    let deadline = Instant::now() + PUBLISH_WAIT;
    let newest = |installs: &Mutex<Vec<Installed>>| {
        installs
            .lock()
            .expect("install list poisoned")
            .last()
            .map_or(0, |g| g.store_generation)
    };
    while newest(&installs) < want && Instant::now() < deadline {
        poll(&mut install_ms);
        std::thread::sleep(traffic::TICK_EVERY);
    }
    let installs = installs.into_inner().expect("install list poisoned");
    let final_scrape = traffic::scrape(s.server.addr());
    s.server.shutdown();
    s.worker.join();
    let verify = s.store.verify();
    std::fs::remove_dir_all(&dir).ok();
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            report.problem(format!("traffic failed: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };

    let (estimates, wrong, replies) = out.replies();
    let missing_estimates = out.windows_sent.saturating_sub(estimates);
    let missing_replies = out.predicts_sent.saturating_sub(replies);

    // Model lag: the k-th Fail's run is in store generation
    // first_generation + k + 1 (the worker publishes once per run).
    let mut lags_ms = Vec::new();
    let mut unserved = 0u64;
    for (k, &(sent, _, _)) in out.fails.iter().enumerate() {
        let target = first_generation + k as u64 + 1;
        match installs.iter().find(|g| g.store_generation >= target) {
            Some(g) => lags_ms.push(g.poll_end.saturating_duration_since(sent).as_secs_f64() * 1e3),
            None => unserved += 1,
        }
    }

    let final_scrape = match final_scrape {
        Ok(text) => text,
        Err(e) => {
            report.problem(format!("final scrape failed: {e}"));
            String::new()
        }
    };
    let after = counters(&final_scrape);
    let delta: Vec<f64> = after
        .iter()
        .zip(&s.counters_before)
        .map(|(a, b)| a - b)
        .collect();
    let [runs, retrains, warm, fallback, failures, publish_failures, dropped, skipped] = delta[..]
    else {
        unreachable!("one delta per counter");
    };

    report.attempted = out.datapoints_sent + out.predicts_sent + out.fails.len() as u64;
    report.failed = wrong + missing_estimates + missing_replies + unserved + out.protocol_failures;
    report.check(wrong == 0, || {
        format!("{wrong} pushed estimates match no generation active at the time")
    });
    report.check(missing_estimates == 0, || {
        format!(
            "{missing_estimates} of {} estimates never arrived",
            out.windows_sent
        )
    });
    report.check(missing_replies == 0, || {
        format!("{missing_replies} predict replies never arrived")
    });
    report.check(unserved == 0, || {
        format!(
            "{unserved} of {} runs never reached a served generation",
            out.fails.len()
        )
    });
    report.check(out.protocol_failures == 0, || {
        format!("{} protocol failures", out.protocol_failures)
    });
    check_scrape(&mut report, &out);
    report.check(runs == out.fails.len() as f64 && retrains == runs, || {
        format!(
            "worker took in {runs} runs and retrained {retrains} times for {} Fails sent",
            out.fails.len()
        )
    });
    report.check(
        failures + publish_failures + dropped + skipped == 0.0,
        || {
            format!(
                "retrain failures {failures}, publish failures {publish_failures}, \
             tap drops {dropped}, runs skipped {skipped}"
            )
        },
    );
    match &verify {
        Ok(v) => report.check(v.failed.is_empty() && v.ok.len() as u64 >= want, || {
            format!(
                "store verify: {} generations ok, {} failed",
                v.ok.len(),
                v.failed.len()
            )
        }),
        Err(e) => report.problem(format!("store verify failed: {e}")),
    }
    if lags_ms.is_empty() {
        report.problem("no run reached a served generation");
        return report;
    }
    report.e2e_metric("result_p50_ms", median(&lags_ms));
    report.e2e_metric("result_p90_ms", interpolated(&lags_ms, 0.9));
    // The system's cost: datapoints handled per CPU-second the server and
    // its retrain worker spent.
    report.e2e_metric("rate_per_s", out.datapoints_sent as f64 / out.server_cpu_s);
    report.detail("runs", out.fails.len().to_string());
    report.detail("window_runs", s.fill.len().to_string());
    report.detail("server_cpu_s", out.server_cpu_s.to_string());
    if let Some((p, v)) = crate::stats::supported_tail(&lags_ms) {
        report.detail(
            "model_lag_tail",
            format!("{{\"percentile\": {p}, \"ms\": {v}}}"),
        );
    }

    if ctx.trace {
        let mut tracer = Tracer::new(true, out.phases[0].start);
        traffic::request_spans(&out.phases[0], &mut tracer);
        for (k, &(sent, host, _)) in out.fails.iter().enumerate() {
            if let Some(&lag) = lags_ms.get(k) {
                let end = sent + Duration::from_secs_f64(lag / 1e3);
                tracer.record(
                    "loadgen.model_lag",
                    sent,
                    end,
                    (host as u64) << 40 | k as u64,
                );
            }
        }
        let phase = &out.phases[0];
        let (estimate_us, predict_us) = phase.latencies();
        serve_loadgen_layers(&mut report, &out, phase, &estimate_us, &predict_us);
        report.layer("registry.install_ms", rank_or_zero(&install_ms, 0.5));
        report.layer("retrain.runs", runs);
        report.layer(
            "retrain.warm_share",
            if retrains > 0.0 { warm / retrains } else { 0.0 },
        );
        report.layer("retrain.fallback", fallback);
        report.layer("retrain.tap_dropped", dropped);
        report.layer("retrain.runs_skipped", skipped);
        let scratch = ctx.work_dir("refresh-replay");
        replay_retrains(
            &scratch,
            &s.fill,
            &s.scripts,
            &out.fails,
            &mut tracer,
            &mut report,
        );
        std::fs::remove_dir_all(&scratch).ok();
        let layer = |n: &str| {
            report
                .layers
                .iter()
                .find(|(k, _)| k == n)
                .map_or(0.0, |&(_, v)| v)
        };
        let explained = layer("features.push_run_ms")
            + layer("core.retrain_p50_ms")
            + layer("registry.publish_ms")
            + layer("registry.install_ms");
        let lag = median(&lags_ms);
        let residual = (lag - explained) / lag;
        report.layer("refresh.residual", residual);
        report.trace = Some(TraceData { tracer, residual });
    }
    report
}

/// Replay the worker's job offline: fill a `RetrainEngine` with the same
/// window, then push, retrain and publish every run the timed phase sent.
fn replay_retrains(
    scratch: &Path,
    fill: &[Life],
    scripts: &[Script; traffic::HOSTS],
    fails: &[(Instant, usize, usize)],
    tr: &mut Tracer,
    report: &mut Report,
) {
    let mut engine = RetrainEngine::new(RetrainConfig {
        aggregation: agg(),
        ..RetrainConfig::new(fill.len())
    });
    for life in fill {
        engine.push_run(&life.run());
    }
    if engine.retrain().is_err() {
        report.problem("replayed cold retrain failed");
        return;
    }
    let store = match ModelStore::with_retention(scratch, 2) {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("replay store: {e}"));
            return;
        }
    };
    let meta = ArtifactMeta::new(
        "ls_svm",
        agg(),
        aggregated_column_names_with(&agg()),
        f64::NAN,
    );
    let (mut push_ms, mut retrain_ms, mut publish_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for (k, &(_, host, life)) in fails.iter().enumerate() {
        let run = scripts[host].lives[life].run();
        let request = k as u64;
        let t = Instant::now();
        tr.span("features.push_run", request, |_| engine.push_run(&run));
        push_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let Ok(outcome) = tr.span("core.retrain", request, |_| engine.retrain()) else {
            report.problem(format!("replayed retrain {k} failed"));
            continue;
        };
        retrain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let saved = SavedModel::LsSvm(outcome.model);
        let t = Instant::now();
        if tr
            .span("registry.publish", request, |_| {
                store.publish(&meta, &saved)
            })
            .is_err()
        {
            report.problem(format!("replayed publish {k} failed"));
        }
        publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(saved);
    }
    if let Some(saved) = &last {
        let model = saved.as_model();
        let rows: Vec<&[f64]> = scripts
            .iter()
            .flat_map(|s| &s.lives)
            .flat_map(|l| l.windows.iter().map(|w| w.row.as_slice()))
            .collect();
        let t = Instant::now();
        tr.span("ml.predict_row", 0, |_| {
            for row in &rows {
                std::hint::black_box(model.predict_row(row));
            }
        });
        let per_row = t.elapsed().as_secs_f64() * 1e6 / rows.len().max(1) as f64;
        report.layer("ml.predict_row_us", per_row);
    }
    report.layer("features.push_run_ms", rank_or_zero(&push_ms, 0.5));
    report.layer("core.retrain_p50_ms", rank_or_zero(&retrain_ms, 0.5));
    report.layer("core.retrain_p90_ms", rank_or_zero(&retrain_ms, 0.9));
    report.layer("registry.publish_ms", rank_or_zero(&publish_ms, 0.5));
}
