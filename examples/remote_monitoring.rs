//! Remote monitoring: FMC guests stream to a recording serve instance
//! (§II, §III-E).
//!
//! The paper deploys a thin Feature Monitor Client on the machine under
//! test and a collecting server elsewhere, connected over TCP/IP. Here the
//! collecting server is the prediction service itself, started with
//! `record` set (`f2pm serve --record DIR`). This example runs the
//! deployment loop on the loopback interface:
//!
//! 1. a boot model is trained on a first, simulated campaign;
//! 2. a serve instance serves it and records everything it ingests;
//! 3. FMCs sample (simulated) guests to failure and stream every datapoint
//!    plus the final fail event over the socket, one connection per run;
//! 4. the workflow trains new models on the recorded per-host files.
//!
//! ```text
//! cargo run --release --example remote_monitoring
//! ```

use f2pm_repro::f2pm::{run_workflow_on_history, F2pmConfig};
use f2pm_repro::f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_repro::f2pm_features::{aggregate_history, Dataset};
use f2pm_repro::f2pm_ml::linreg::LinearModel;
use f2pm_repro::f2pm_ml::SavedModel;
use f2pm_repro::f2pm_monitor::{
    load_csv, DataHistory, FeatureMonitorClient, FmcConfig, HistoryEvent, SimCollector,
    SimCollectorConfig,
};
use f2pm_repro::f2pm_serve::{ModelRegistry, PredictionServer, ServeConfig};
use f2pm_repro::f2pm_sim::{Campaign, CampaignConfig, Simulation};

fn main() {
    let cfg = F2pmConfig::quick();
    let record = std::env::temp_dir().join(format!("f2pm_recorded_{}", std::process::id()));

    // 1. Boot model: a linear regression on a first simulated campaign (in
    //    production, `f2pm campaign` or `f2pm monitor` writes this first
    //    history in the same CSV format).
    let first = Campaign::new(
        CampaignConfig {
            runs: 2,
            ..cfg.campaign.clone()
        },
        7,
    )
    .run_all();
    let points = aggregate_history(&DataHistory::from_campaign(&first), &cfg.aggregation);
    let ds = Dataset::from_points(&points);
    let registry = ModelRegistry::new(
        SavedModel::Linear(LinearModel::fit(&ds.x, &ds.y).expect("boot model")),
        aggregated_column_names_with(&cfg.aggregation),
        cfg.aggregation,
    )
    .expect("boot registry");

    // 2. Server side (in the paper: a separate VM).
    let server = PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            record: Some(record.clone()),
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("start the recording server");
    println!(
        "serving and recording into {} on {}",
        record.display(),
        server.addr()
    );

    // 3. Client side: monitor several guests to failure, one connection
    //    per run, exactly like the restart loop of §III-A.
    let mut total_sent = 0;
    for run in 0..cfg.campaign.runs as u64 {
        let mut client = FeatureMonitorClient::connect(
            server.addr(),
            FmcConfig {
                host_id: run as u32,
                pause: None,
                ..FmcConfig::default()
            },
        )
        .expect("connect FMC");

        let sim = Simulation::new(cfg.campaign.sim.clone(), 100 + run);
        let mut collector = SimCollector::new(sim, SimCollectorConfig::default(), run);
        let sent = client
            .stream_collector(&mut collector, None)
            .expect("stream datapoints");
        let fail_t = collector
            .simulation()
            .failed_at()
            .expect("guest runs to failure");
        client.send_fail(fail_t).expect("send fail event");
        client.close().expect("close");
        total_sent += sent;
        println!("run {run}: streamed {sent} datapoints, fail event at t = {fail_t:.0} s");
    }

    // Once the reactors have read every datapoint, shutdown drains the
    // shard queues, so each closed run is on disk when it returns.
    while server.metrics().datapoints < total_sent {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let snap = server.shutdown();

    // 4. Train on what the server recorded: one CSV per host.
    let mut history = DataHistory::new();
    for host in 0..cfg.campaign.runs {
        let file = record.join(format!("host-{host}.csv"));
        let recorded = load_csv(&file).expect("recorded host history");
        for ev in recorded.events() {
            match *ev {
                HistoryEvent::Datapoint(d) => history.push_datapoint(d),
                HistoryEvent::Fail { t } => history.push_fail(t),
            }
        }
    }
    println!(
        "\nserved {} datapoints; recorded {} datapoints and {} fail events",
        snap.datapoints,
        history.datapoint_count(),
        history.fail_count()
    );
    let report = run_workflow_on_history(&cfg, &history).expect("enough data");
    let best = report.best_by_smae().expect("models trained");
    println!(
        "best model from the recorded history: {} (S-MAE {:.1} s)",
        best.name, best.metrics.smae
    );
    std::fs::remove_dir_all(&record).ok();
}
