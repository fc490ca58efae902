//! Integration test of the paper's deployment architecture (§II, §III-E):
//! FMCs stream monitored guests over real TCP to a serve instance that
//! records what it ingests (`f2pm serve --record DIR`), and the workflow
//! trains on the recorded history.

use f2pm_repro::f2pm::{run_workflow_on_history, F2pmConfig};
use f2pm_repro::f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_repro::f2pm_features::{aggregate_history, aggregate_run, AggregationConfig, Dataset};
use f2pm_repro::f2pm_ml::linreg::LinearModel;
use f2pm_repro::f2pm_ml::SavedModel;
use f2pm_repro::f2pm_monitor::{
    load_csv, Collector, DataHistory, FeatureMonitorClient, FmcConfig, ReplayCollector, RunData,
    SimCollector, SimCollectorConfig,
};
use f2pm_repro::f2pm_serve::{
    InstanceClient, ModelRegistry, PredictionServer, ServeConfig, ServeHandle,
};
use f2pm_repro::f2pm_sim::{Campaign, CampaignConfig, Simulation};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A linear model trained on a simulated campaign of its own, to serve
/// while the monitored guests' history is recorded.
fn boot_registry(cfg: &F2pmConfig) -> Arc<ModelRegistry> {
    let campaign = CampaignConfig {
        runs: 2,
        ..cfg.campaign.clone()
    };
    let runs = Campaign::new(campaign, 7).run_all();
    let points = aggregate_history(&DataHistory::from_campaign(&runs), &cfg.aggregation);
    let ds = Dataset::from_points(&points);
    let model = LinearModel::fit(&ds.x, &ds.y).expect("boot model");
    ModelRegistry::new(
        SavedModel::Linear(model),
        aggregated_column_names_with(&cfg.aggregation),
        cfg.aggregation,
    )
    .expect("boot registry")
}

fn recording_server(cfg: &F2pmConfig, dir: &Path) -> ServeHandle {
    PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 2,
            reactors: 1,
            record: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        },
        boot_registry(cfg),
    )
    .expect("start a recording server")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("f2pm_remote_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One guest sampled by the FMC's collector: every datapoint to the end
/// of its life (or the first `max` of them), and the failure time when
/// it ran to failure.
fn sample_guest(sim: Simulation, seed: u64, max: Option<usize>) -> RunData {
    let mut collector = SimCollector::new(sim, SimCollectorConfig::default(), seed);
    let datapoints: Vec<_> = std::iter::from_fn(|| collector.collect())
        .take(max.unwrap_or(usize::MAX))
        .collect();
    let fail_time = if max.is_none() {
        collector.simulation().failed_at()
    } else {
        None
    };
    RunData {
        datapoints,
        fail_time,
    }
}

/// Stream `run` as host `host`: its datapoints, its `Fail` if it has one,
/// then `Bye`. Returns the datapoints sent.
fn stream_guest(addr: SocketAddr, host: u32, run: &RunData) -> u64 {
    let mut client = FeatureMonitorClient::connect(
        addr,
        FmcConfig {
            host_id: host,
            pause: None,
            ..FmcConfig::default()
        },
    )
    .expect("connect");
    let sent = client
        .stream_collector(&mut ReplayCollector::for_run(run), None)
        .expect("stream");
    if let Some(t) = run.fail_time {
        client.send_fail(t).expect("fail event");
    }
    client.close().expect("bye");
    sent
}

fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .map_or(0, |v| {
            v.trim().parse::<f64>().expect("numeric sample") as u64
        })
}

/// Scrape `addr` until `done` holds for the exposition, and return it.
fn scrape_until(addr: SocketAddr, done: impl Fn(&str) -> bool) -> String {
    let mut client = InstanceClient::connect(&addr.to_string()).expect("scrape connection");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = client.scrape().expect("scrape");
        if done(&text) {
            return text;
        }
        assert!(Instant::now() < deadline, "server never caught up:\n{text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn recorded(dir: &Path, host: u32) -> Vec<RunData> {
    load_csv(dir.join(format!("host-{host}.csv")))
        .expect("the host's recorded history")
        .runs()
}

/// Every value of both runs, compared as bits.
fn assert_same_bits(got: &RunData, want: &RunData) {
    let bits = |r: &RunData| -> Vec<u64> {
        r.datapoints
            .iter()
            .flat_map(|d| std::iter::once(d.t_gen).chain(d.values))
            .chain(r.fail_time)
            .map(f64::to_bits)
            .collect()
    };
    assert_eq!(got.datapoints.len(), want.datapoints.len());
    assert_eq!(got.fail_time.is_some(), want.fail_time.is_some());
    assert!(bits(got) == bits(want), "recorded values differ from sent");
}

/// Both runs aggregate to the same rows, bit for bit.
fn assert_same_rows(got: &RunData, want: &RunData, agg: &AggregationConfig) {
    let rows = |r: &RunData| -> Vec<u64> {
        aggregate_run(r, agg)
            .iter()
            .flat_map(|p| {
                let mut row = p.inputs_with(agg);
                row.push(p.t_repr);
                row.push(p.rttf.unwrap_or(f64::NAN));
                row
            })
            .map(f64::to_bits)
            .collect()
    };
    let want_rows = rows(want);
    assert!(!want_rows.is_empty(), "the run aggregates to no row");
    assert!(
        rows(got) == want_rows,
        "recorded run re-aggregates differently"
    );
}

#[test]
fn fmc_to_fms_to_models() {
    let cfg = F2pmConfig::quick();
    let dir = temp_dir("models");
    let server = recording_server(&cfg, &dir);

    let runs = cfg.campaign.runs as u64;
    let mut sent_runs = Vec::new();
    let mut total_sent = 0u64;
    for run in 0..runs {
        let sim = Simulation::new(cfg.campaign.sim.clone(), 500 + run);
        let guest = sample_guest(sim, run, None);
        assert!(guest.fail_time.is_some(), "guest {run} never failed");
        total_sent += stream_guest(server.addr(), run as u32, &guest);
        sent_runs.push(guest);
    }

    // Every datapoint sent is recorded, and the scrape counts agree.
    let text = scrape_until(server.addr(), |text| {
        metric(text, "f2pm_serve_recorded_datapoints_total") >= total_sent
    });
    assert_eq!(metric(&text, "f2pm_serve_datapoints_total"), total_sent);
    assert_eq!(
        metric(&text, "f2pm_serve_recorded_datapoints_total"),
        total_sent
    );
    assert_eq!(metric(&text, "f2pm_serve_record_errors_total"), 0);
    server.shutdown();

    // Each host's file holds exactly the life its FMC sent.
    let mut history = DataHistory::new();
    for (host, sent) in sent_runs.iter().enumerate() {
        let got = recorded(&dir, host as u32);
        assert_eq!(got.len(), 1, "host {host}: one run");
        assert_same_bits(&got[0], sent);
        assert_same_rows(&got[0], sent, &cfg.aggregation);
        for &d in &got[0].datapoints {
            history.push_datapoint(d);
        }
        history.push_fail(got[0].fail_time.expect("closed run"));
    }
    assert_eq!(history.datapoint_count() as u64, total_sent);
    assert_eq!(history.fail_count(), cfg.campaign.runs);

    // The recorded history is good enough to train on.
    let report = run_workflow_on_history(&cfg, &history).expect("enough data");
    let best = report.best_by_smae().expect("models trained");
    assert!(best.metrics.rae < 1.0, "RAE {}", best.metrics.rae);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_fmcs_stream_in_parallel() {
    // Several guests monitored at once; each connection streams a bounded
    // number of datapoints and no fail event, so every life is still open.
    // Its rows are on disk while the server runs, without an `F` row: a
    // censored tail that survives even an instance that is killed.
    let cfg = F2pmConfig::quick();
    let dir = temp_dir("concurrent");
    let server = recording_server(&cfg, &dir);
    let addr = server.addr();
    let per_client = 50;
    let guests: Vec<RunData> = (0..4u64)
        .map(|k| {
            sample_guest(
                Simulation::new(Default::default(), 900 + k),
                k,
                Some(per_client),
            )
        })
        .collect();
    let sent: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = guests
            .iter()
            .enumerate()
            .map(|(k, guest)| scope.spawn(move || stream_guest(addr, k as u32, guest)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(sent, 4 * per_client as u64);

    let text = scrape_until(addr, |text| {
        metric(text, "f2pm_serve_recorded_datapoints_total") >= sent
    });
    assert_eq!(metric(&text, "f2pm_serve_datapoints_total"), sent);
    assert_eq!(metric(&text, "f2pm_serve_recorded_datapoints_total"), sent);

    for (host, guest) in guests.iter().enumerate() {
        let got = recorded(&dir, host as u32);
        assert_eq!(got.len(), 1, "host {host}: one open life");
        assert_eq!(got[0].fail_time, None);
        assert_same_bits(&got[0], guest);
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
