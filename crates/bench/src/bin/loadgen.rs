//! `loadgen` — load-generation harness for the `f2pm-serve` service.
//!
//! Starts an in-process [`PredictionServer`], then drives hundreds of
//! concurrent simulated FMC clients against it: every client owns a
//! `SimCollector`-backed datapoint stream, interleaves
//! `PredictRequest`s to measure serving latency, and survives simulated
//! guest deaths with `Fail` + a fresh collector — exactly a monitored
//! fleet's traffic shape.
//!
//! Mid-run (at half the total datapoints) a new model is hot-installed in
//! the registry; clients must observe the new model generation on the
//! SAME connections (no reset). The harness verifies:
//!
//! - zero dropped frames (blocking backpressure end to end),
//! - a live per-host RTTF estimate for every client,
//! - the hot reload is visible without any reconnect,
//! - the metrics exposition, scraped mid-run and after the fleet
//!   drains, agrees with the harness's own counters EXACTLY (the scraped
//!   datapoint counter must equal the number of datapoints sent, the
//!   scraped generation must match the installed one, zero drops),
//!
//! and writes throughput + latency percentiles to `BENCH_serve.json`
//! (`--smoke`: 1/6-scale, scratch output under `target/`, for CI).
//!
//! With `--connections N` a second phase exercises the epoll reactor edge
//! at scale: a re-exec'd child process (`--fleet-child`, so the fd budget
//! splits across two processes under the 20k NOFILE hard limit) opens `N`
//! mostly-idle connections (`--idle-fraction` of them never send after
//! the handshake), a hot sweep runs through the same server while the
//! fleet is parked, and the parent records its own VmRSS before/after to
//! price a resident connection. The ratio against the retired thread-per-
//! connection edge's measured cost ([`THREADED_PER_CONN_KIB`]) lands in
//! `BENCH_serve.json` under `"connections"`. Hard checks: every fleet
//! datapoint scraped exactly, zero drops, zero slow-consumer evictions, flat parent memory across
//! the sweep, and hot-path p99 under the 120 ms budget.
//!
//! A final *fleet* phase (`--fleet-hosts N`, default ≥1k hosts across 3
//! instances) exercises the cluster plane: N in-process serve
//! instances with distinct `instance_id`s, heterogeneous simulated hosts
//! ([`HostProfile`]) routed across them by the consistent-hash
//! [`HashRing`], and the [`Fleet`] aggregator's cross-checks — the merged
//! exposition counter equals the sum of the per-instance scrapes and the
//! harness's own sent count *exactly*, and the wire-level cluster top-K
//! ranking matches the union of the in-process estimate boards entry for
//! entry. Results land under `"fleet"` in `BENCH_serve.json`.

use f2pm_features::AggregationConfig;
use f2pm_ml::linreg::LinearModel;
use f2pm_ml::SavedModel;
use f2pm_monitor::wire::{Message, PROTOCOL_VERSION};
use f2pm_monitor::{Collector, Datapoint, SimCollector, SimCollectorConfig};
use f2pm_serve::{
    AlertPolicy, Fleet, HashRing, InstanceClient, ModelRegistry, PredictionServer, ServeConfig,
};
use f2pm_sim::{AnomalyConfig, HostProfile, SimConfig, Simulation};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    clients: usize,
    points: usize,
    shards: usize,
    out: String,
    smoke: bool,
    sweep: bool,
    connections: usize,
    idle_fraction: f64,
    fleet_hosts: usize,
    fleet_instances: usize,
}

fn parse_args() -> Args {
    let mut clients = None;
    let mut points = None;
    let mut shards = None;
    let mut out = None;
    let mut smoke = false;
    let mut sweep = false;
    let mut connections = None;
    let mut idle_fraction = None;
    let mut fleet_hosts = None;
    let mut fleet_instances = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("bad value for {name}"))
        };
        match a.as_str() {
            "--clients" => clients = Some(val("--clients")),
            "--points" => points = Some(val("--points")),
            "--shards" => shards = Some(val("--shards")),
            "--out" => out = it.next().cloned(),
            "--smoke" => smoke = true,
            "--sweep" => sweep = true,
            "--connections" => connections = Some(val("--connections")),
            "--fleet-hosts" => fleet_hosts = Some(val("--fleet-hosts")),
            "--fleet-instances" => fleet_instances = Some(val("--fleet-instances")),
            "--idle-fraction" => {
                idle_fraction = Some(
                    it.next()
                        .unwrap_or_else(|| panic!("--idle-fraction needs a value"))
                        .parse::<f64>()
                        .unwrap_or_else(|_| panic!("bad value for --idle-fraction")),
                )
            }
            other => {
                eprintln!(
                    "unknown flag {other:?} \
                     (supported: --clients N --points N --shards N --out PATH --smoke --sweep \
                     --connections N --idle-fraction F --fleet-hosts N --fleet-instances N)"
                );
                std::process::exit(2);
            }
        }
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    Args {
        clients: clients.unwrap_or(if smoke { 40 } else { 240 }),
        points: points.unwrap_or(if smoke { 120 } else { 300 }),
        shards: shards.unwrap_or(threads.min(8)),
        out: out.unwrap_or_else(|| {
            if smoke {
                "target/BENCH_serve_smoke.json".to_string()
            } else {
                "BENCH_serve.json".to_string()
            }
        }),
        smoke,
        sweep,
        connections: connections.unwrap_or(0),
        idle_fraction: idle_fraction.unwrap_or(0.9).clamp(0.0, 1.0),
        fleet_hosts: fleet_hosts.unwrap_or(if smoke { 1000 } else { 2400 }),
        fleet_instances: fleet_instances.unwrap_or(3).max(1),
    }
}

fn agg() -> AggregationConfig {
    AggregationConfig {
        window_s: 30.0,
        min_points: 2,
        ..AggregationConfig::default()
    }
}

fn model(intercept: f64) -> SavedModel {
    let width = f2pm_features::aggregate::aggregated_column_names_with(&agg()).len();
    SavedModel::Linear(LinearModel {
        intercept,
        coefficients: vec![0.0; width],
    })
}

/// Aggressive anomaly rates so simulated guests degrade (and sometimes
/// die) within a few hundred datapoints — exercising the Fail path.
fn sim(seed: u64) -> Simulation {
    Simulation::new(
        SimConfig {
            anomaly: AnomalyConfig {
                leak_size_mib: (6.0, 10.0),
                leak_prob_per_home: (0.8, 0.9),
                ..AnomalyConfig::default()
            },
            ..SimConfig::default()
        },
        seed,
    )
}

struct ClientReport {
    sent: u64,
    fails: u64,
    latencies_us: Vec<u64>,
    saw_estimate: bool,
    max_generation: u64,
}

impl ClientReport {
    /// Send one datapoint and count it.
    fn send(&mut self, stream: &mut TcpStream, d: Datapoint, sent_total: &AtomicU64) {
        Message::Datapoint(d).write_to(stream).expect("datapoint");
        self.sent += 1;
        sent_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Send a `PredictRequest` for `host` and fold its `RttfEstimate`
    /// into the report, skipping pushed alerts.
    fn ask(&mut self, stream: &mut TcpStream, host: u32) {
        Message::PredictRequest { host_id: host }
            .write_to(stream)
            .expect("predict request");
        loop {
            match Message::read_from(stream).expect("reply").expect("open") {
                Message::RttfEstimate {
                    rttf,
                    model_generation,
                    ..
                } => {
                    self.saw_estimate |= rttf.is_some();
                    self.max_generation = self.max_generation.max(model_generation);
                    return;
                }
                Message::Alert { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
}

/// One precomputed wire event of a client's replay script.
enum ClientOp {
    Dp(Datapoint),
    Fail(f64),
}

/// Spare datapoints each sweep client may send after its script, while
/// it waits for the hot-reloaded generation or its first estimate.
const SPARE_POINTS: usize = 200;

/// Precompute a client's whole event stream — `points` datapoints with
/// the guest deaths interleaved where the simulation dies, plus `spare`
/// datapoints for the post-run wait tails. Generating these BEFORE
/// the clock starts keeps simulation compute out of the timed phase, so
/// measured RTTs reflect the serve data plane, not the harness fighting
/// it for CPU.
fn client_script(host: u32, points: usize, spare: usize) -> (Vec<ClientOp>, Vec<Datapoint>) {
    let mut collector =
        SimCollector::new(sim(host as u64), SimCollectorConfig::default(), host as u64);
    let mut life = 0u64;
    let reincarnate = |life: &mut u64| {
        *life += 1;
        let seed = host as u64 + *life * 10_007;
        SimCollector::new(sim(seed), SimCollectorConfig::default(), seed)
    };
    let mut ops = Vec::with_capacity(points + 8);
    let mut sent = 0usize;
    while sent < points {
        match collector.collect() {
            Some(d) => {
                ops.push(ClientOp::Dp(d));
                sent += 1;
            }
            None => {
                // The guest died: report the failure, start a new life.
                let t = collector.simulation().failed_at().unwrap_or(0.0);
                ops.push(ClientOp::Fail(t));
                collector = reincarnate(&mut life);
            }
        }
    }
    let mut spares = Vec::with_capacity(spare);
    while spares.len() < spare {
        match collector.collect() {
            Some(d) => spares.push(d),
            None => collector = reincarnate(&mut life),
        }
    }
    (ops, spares)
}

fn run_client(
    addr: SocketAddr,
    host: u32,
    script: (Vec<ClientOp>, Vec<Datapoint>),
    sent_total: &AtomicU64,
    reload_generation: &AtomicU64,
) -> ClientReport {
    let (ops, spares) = script;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    Message::Hello {
        version: PROTOCOL_VERSION,
        host_id: host,
    }
    .write_to(&mut stream)
    .expect("hello");

    let mut report = ClientReport {
        sent: 0,
        fails: 0,
        latencies_us: Vec::new(),
        saw_estimate: false,
        max_generation: 0,
    };
    for op in ops {
        let d = match op {
            ClientOp::Fail(t) => {
                Message::Fail { t }.write_to(&mut stream).expect("fail");
                report.fails += 1;
                continue;
            }
            ClientOp::Dp(d) => d,
        };
        report.send(&mut stream, d, sent_total);
        if report.sent.is_multiple_of(10) {
            let started = Instant::now();
            report.ask(&mut stream, host);
            report
                .latencies_us
                .push(started.elapsed().as_micros() as u64);
        }
    }

    // The reload fired at the halfway point; poll until this host's
    // estimate carries the new generation (a fresh window must close
    // post-reload, so feed a few more datapoints if needed).
    let target = reload_generation.load(Ordering::SeqCst);
    let mut spares = spares.into_iter();
    for _ in 0..200 {
        if target == 0 || report.max_generation >= target {
            break;
        }
        if let Some(d) = spares.next() {
            report.send(&mut stream, d, sent_total);
        }
        report.ask(&mut stream, host);
    }

    // A `PredictRequest` is answered from the estimate board at once,
    // while this host's datapoints may still wait in its shard's queue,
    // so every ask can land before the shard scores the host's windows;
    // and a `Fail` late in the script clears the host's estimate until
    // its next life closes a window. Keep asking, with one spare
    // datapoint per poll while they last, until the board answers or the
    // budget runs out.
    let started = Instant::now();
    while !report.saw_estimate && started.elapsed() < ESTIMATE_BUDGET {
        match spares.next() {
            Some(d) => report.send(&mut stream, d, sent_total),
            None => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
        report.ask(&mut stream, host);
    }
    Message::Bye.write_to(&mut stream).ok();
    report
}

/// First exposition sample starting with `prefix` (include the trailing
/// space for unlabeled samples).
fn metric_sample(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Per-stage tail latencies scraped from the server's own exposition
/// gauges after the fleet drains: decode → queue wait → predict → reply.
#[derive(Clone, Copy, Default)]
struct StageLatency {
    p50: u64,
    p99: u64,
}

fn stage(text: &str, name: &str) -> StageLatency {
    StageLatency {
        p50: metric_sample(text, &format!("{name}_p50_us ")).unwrap_or(0.0) as u64,
        p99: metric_sample(text, &format!("{name}_p99_us ")).unwrap_or(0.0) as u64,
    }
}

/// Everything one server run produces: throughput, tail latencies, the
/// per-stage breakdown, and the hard-check failures (if any).
struct RunResult {
    shards: usize,
    wall_s: f64,
    datapoints: u64,
    fails: u64,
    samples: usize,
    p50: u64,
    p95: u64,
    p99: u64,
    lat_max: u64,
    estimates: u64,
    alerts: u64,
    dropped: u64,
    accepted: u64,
    with_estimate: usize,
    reload_gen: u64,
    saw_reload: usize,
    scraped_datapoints: i64,
    scraped_generation: u64,
    metrics_scrape_ok: bool,
    decode: StageLatency,
    queue_wait: StageLatency,
    predict: StageLatency,
    reply: StageLatency,
    failures: Vec<String>,
}

impl RunResult {
    fn ingest_rate(&self) -> f64 {
        self.datapoints as f64 / self.wall_s
    }
}

/// Drive one full client fleet against a fresh server with `shards`
/// shard workers; every hard check from the harness applies per run.
fn run_once(args: &Args, shards: usize) -> RunResult {
    let registry = ModelRegistry::new(
        model(1000.0),
        f2pm_features::aggregate::aggregated_column_names_with(&agg()),
        agg(),
    )
    .expect("registry");
    let server = PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            shards,
            // Short queues bound how long a full shard can block a reader
            // (and with it, how stale the socket's unread predict
            // requests get): cap / drain-rate is the tail budget.
            queue_cap: 256,
            batch_cap: 64,
            policy: AlertPolicy::default(),
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("start server");
    let registry = server.registry();
    let addr = server.addr();
    eprintln!(
        "loadgen: {} clients x {} points against {} ({} shards{})",
        args.clients,
        args.points,
        addr,
        shards,
        if args.smoke { ", smoke" } else { "" }
    );

    // Precompute every client's replay script before the clock starts:
    // the timed phase is then pure wire I/O against the server.
    let scripts: Vec<_> = (0..args.clients)
        .map(|c| client_script(c as u32, args.points, SPARE_POINTS))
        .collect();

    let sent_total = Arc::new(AtomicU64::new(0));
    let reload_generation = Arc::new(AtomicU64::new(0));
    let half = (args.clients * args.points / 2) as u64;
    let started = Instant::now();

    // Hot-reload trigger: once half the fleet's datapoints are in, swap
    // the model mid-run on the live server.
    let reloader = {
        let sent_total = Arc::clone(&sent_total);
        let reload_generation = Arc::clone(&reload_generation);
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            while sent_total.load(Ordering::Relaxed) < half {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let g = registry.install(model(500.0)).expect("hot reload");
            reload_generation.store(g, Ordering::SeqCst);
            // Mid-run scrape, while the fleet is still streaming: the
            // exposition must already carry the fresh generation.
            let mid_text = InstanceClient::connect(&addr.to_string())
                .and_then(|mut c| c.scrape())
                .expect("mid-run scrape");
            (g, mid_text)
        })
    };

    let reports: Vec<ClientReport> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(c, script)| {
                let sent_total = &sent_total;
                let reload_generation = &reload_generation;
                s.spawn(move || run_client(addr, c as u32, script, sent_total, reload_generation))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let (reload_gen, mid_text) = reloader.join().expect("reloader");
    let wall_s = started.elapsed().as_secs_f64();

    // Final scrape, before shutdown: every client thread has joined, but
    // the reactors may still be draining buffered frames, so poll until
    // the scraped datapoint counter catches up with what was sent. It
    // must land EXACTLY on sent_total — one frame lost or double-counted
    // is a bug.
    let sent = sent_total.load(Ordering::SeqCst);
    let settled = |text: &str| {
        metric_sample(text, "f2pm_serve_datapoints_total ") == Some(sent as f64)
            && metric_sample(text, "f2pm_serve_estimates_total ")
                .zip(metric_sample(text, "f2pm_serve_estimate_latency_us_count "))
                .is_some_and(|(total, hist)| total == hist)
    };
    let mut scraper = InstanceClient::connect(&addr.to_string()).expect("scraper connect");
    let mut final_text = scraper.scrape().expect("scrape reply");
    for _ in 0..1000 {
        if settled(&final_text) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        final_text = scraper.scrape().expect("scrape reply");
    }
    let scraped_datapoints =
        metric_sample(&final_text, "f2pm_serve_datapoints_total ").unwrap_or(-1.0) as i64;
    let scraped_dropped =
        metric_sample(&final_text, "f2pm_serve_dropped_frames_total ").unwrap_or(-1.0) as i64;
    let scraped_generation =
        metric_sample(&final_text, "f2pm_serve_model_generation ").unwrap_or(0.0) as u64;
    drop(scraper);
    let snap = server.shutdown();

    let datapoints: u64 = reports.iter().map(|r| r.sent).sum();
    let fails: u64 = reports.iter().map(|r| r.fails).sum();
    let with_estimate = reports.iter().filter(|r| r.saw_estimate).count();
    let saw_reload = reports
        .iter()
        .filter(|r| r.max_generation >= reload_gen)
        .count();
    let mut latencies: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    let lat_max = latencies.last().copied().unwrap_or(0);

    eprintln!(
        "{datapoints} datapoints in {wall_s:.2}s ({:.0}/s), {} predict RTTs \
         (p50 {p50}us p95 {p95}us p99 {p99}us max {lat_max}us)",
        datapoints as f64 / wall_s,
        latencies.len()
    );
    eprintln!(
        "estimates {} | alerts {} | fails {fails} | reload gen {reload_gen} seen by \
         {saw_reload}/{} clients | dropped {}",
        snap.estimates, snap.alerts, args.clients, snap.dropped
    );

    // --- Hard checks: the acceptance criteria of the harness. ---
    let mut failures = Vec::new();
    if snap.dropped != 0 {
        failures.push(format!("{} frames dropped (must be 0)", snap.dropped));
    }
    if with_estimate != args.clients {
        failures.push(format!(
            "only {with_estimate}/{} clients got a live RTTF estimate",
            args.clients
        ));
    }
    if saw_reload == 0 {
        failures.push("no client observed the hot-reloaded model".to_string());
    }
    // The two scrape connections (mid-run + final) are accepted too.
    if snap.total_accepted != args.clients as u64 + 2 {
        failures.push(format!(
            "{} connections accepted for {} clients + 2 scrapers — a connection was reset",
            snap.total_accepted, args.clients
        ));
    }
    if scraped_datapoints != sent as i64 {
        failures.push(format!(
            "scraped f2pm_serve_datapoints_total {scraped_datapoints} != {sent} sent by loadgen"
        ));
    }
    if scraped_dropped != 0 {
        failures.push(format!(
            "scraped f2pm_serve_dropped_frames_total {scraped_dropped} (must be 0)"
        ));
    }
    if scraped_generation != reload_gen {
        failures.push(format!(
            "scraped f2pm_serve_model_generation {scraped_generation} != installed {reload_gen}"
        ));
    }
    if metric_sample(&mid_text, "f2pm_serve_model_generation ") != Some(reload_gen as f64) {
        failures.push("mid-run scrape missed the hot-reloaded generation".to_string());
    }
    if !settled(&final_text) {
        failures.push(
            "exposition never settled: scraped estimate counter and latency histogram \
             count still disagree"
                .to_string(),
        );
    }

    RunResult {
        shards,
        wall_s,
        datapoints,
        fails,
        samples: latencies.len(),
        p50,
        p95,
        p99,
        lat_max,
        estimates: snap.estimates,
        alerts: snap.alerts,
        dropped: snap.dropped,
        accepted: snap.total_accepted,
        with_estimate,
        reload_gen,
        saw_reload,
        scraped_datapoints,
        scraped_generation,
        metrics_scrape_ok: scraped_datapoints == sent as i64 && scraped_dropped == 0,
        decode: stage(&final_text, "f2pm_serve_decode"),
        queue_wait: stage(&final_text, "f2pm_serve_queue_wait"),
        predict: stage(&final_text, "f2pm_serve_estimate_latency"),
        reply: stage(&final_text, "f2pm_serve_reply"),
        failures,
    }
}

/// Fleet host ids start far above the hot sweep's `0..clients` range (and
/// below the scraper's `u32::MAX`), so per-host predictor state never
/// collides across the two traffic classes.
const FLEET_HOST_BASE: u32 = 1_000_000;

/// Datapoints each non-idle fleet connection trickles during the hot
/// sweep — enough to prove the reactor interleaves fleet traffic with the
/// hot path, small enough to keep the phase dominated by idle conns.
const FLEET_TRICKLE: usize = 20;

/// Hot-path p99 budget (µs) with the full idle fleet parked on the same
/// reactor: the ISSUE gate for the 10k-connection run at 4 shards.
const CONN_PHASE_P99_BUDGET_US: u64 = 120_000;

/// Parent RSS growth allowed across the hot sweep while the fleet is
/// connected (KiB). "Flat memory": buffers must be bounded, so thousands
/// of parked conns plus a hot sweep must not grow the heap beyond the
/// sweep's own working set.
const FLAT_RSS_BUDGET_KIB: u64 = 32 * 1024;

/// Current VmRSS of this process in KiB, from `/proc/self/status`.
fn rss_kib() -> u64 {
    proc_status_kib("VmRSS:")
}

/// Peak VmHWM of this process in KiB (high-water mark since start).
fn vm_hwm_kib() -> u64 {
    proc_status_kib("VmHWM:")
}

fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The re-exec'd fleet process: opens `n` connections against `addr`
/// and coordinates with the parent over stdin/stdout so the two
/// processes split the 20k NOFILE budget (client fds here, server fds in
/// the parent — the parent's RSS delta then prices only the server side).
///
/// Protocol (one line each way per step):
///   child:  `CONNECTED <n>`   — fleet is up, parent samples RSS
///   parent: `RUN`             — trickle phase (the non-idle fraction
///                                sends `FLEET_TRICKLE` datapoints each)
///   child:  `SENT <total>`    — parent cross-checks the scrape exactly
///   parent: `BYE`             — clean close (Bye on every conn)
///   child:  `CLOSED`
fn fleet_child_main(addr: SocketAddr, n: usize, idle_fraction: f64) -> ! {
    use std::io::BufRead as _;

    f2pm_serve::poller::raise_nofile_limit(n as u64 + 512);
    let connectors = 4usize;
    let mut streams: Vec<TcpStream> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connectors)
            .map(|c| {
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(n / connectors + 1);
                    for i in (c..n).step_by(connectors) {
                        let mut stream = connect_with_retry(addr);
                        stream.set_nodelay(true).ok();
                        Message::Hello {
                            version: PROTOCOL_VERSION,
                            host_id: FLEET_HOST_BASE + i as u32,
                        }
                        .write_to(&mut stream)
                        .expect("fleet hello");
                        mine.push(stream);
                        // Pace the connect storm so the listener backlog
                        // never overflows into SYN-retransmit stalls.
                        if mine.len() % 32 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet connector"))
            .collect()
    });
    println!("CONNECTED {}", streams.len());
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let wait_for =
        |lines: &mut dyn Iterator<Item = std::io::Result<String>>, word: &str| match lines.next() {
            Some(Ok(l)) if l.trim() == word => {}
            other => panic!("fleet child expected {word:?}, got {other:?}"),
        };
    wait_for(&mut lines, "RUN");

    let active = ((1.0 - idle_fraction).clamp(0.0, 1.0) * n as f64).round() as usize;
    let sent_total = AtomicU64::new(0);
    {
        let (active_streams, _idle) = streams.split_at_mut(active.min(n));
        let chunk = active_streams.len().div_ceil(connectors).max(1);
        std::thread::scope(|s| {
            for part in active_streams.chunks_mut(chunk) {
                let sent_total = &sent_total;
                s.spawn(move || {
                    for round in 0..FLEET_TRICKLE {
                        for stream in part.iter_mut() {
                            let d = Datapoint {
                                // 20 s apart: the 30 s aggregation windows
                                // keep closing, so the trickle also drives
                                // estimate publication for its hosts.
                                t_gen: round as f64 * 20.0,
                                values: [0.0; 14],
                            };
                            if Message::Datapoint(d).write_to(stream).is_ok() {
                                sent_total.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                });
            }
        });
    }
    println!("SENT {}", sent_total.load(Ordering::SeqCst));
    wait_for(&mut lines, "BYE");
    for stream in &mut streams {
        Message::Bye.write_to(stream).ok();
    }
    drop(streams);
    println!("CLOSED");
    std::process::exit(0);
}

fn connect_with_retry(addr: SocketAddr) -> TcpStream {
    for _ in 0..500 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    panic!("fleet child could not connect to {addr}");
}

/// Everything the connection-scale phase produces.
struct ConnResult {
    target: usize,
    connected: u64,
    idle_fraction: f64,
    peak_live: u64,
    child_sent: u64,
    hot_clients: usize,
    hot_samples: usize,
    hot_p50: u64,
    hot_p99: u64,
    rss_base_kib: u64,
    rss_fleet_kib: u64,
    rss_after_sweep_kib: u64,
    vm_hwm_kib: u64,
    per_conn_kib_reactor: f64,
    resident_ratio: f64,
    evicted_slow: u64,
    dropped: u64,
    failures: Vec<String>,
}

/// Read one `TAG <number>` line from the fleet child (0 when the tag has
/// no number, e.g. `CLOSED`); a mismatch or EOF records a failure.
fn child_line(
    out: &mut impl std::io::BufRead,
    tag: &str,
    failures: &mut Vec<String>,
) -> Option<u64> {
    let mut line = String::new();
    match out.read_line(&mut line) {
        Ok(n) if n > 0 => {
            let line = line.trim();
            match line.strip_prefix(tag) {
                Some(rest) => Some(rest.trim().parse().unwrap_or(0)),
                None => {
                    failures.push(format!("fleet child said {line:?}, expected {tag}"));
                    None
                }
            }
        }
        _ => {
            failures.push(format!("fleet child exited before {tag}"));
            None
        }
    }
}

/// Spawn a `--fleet-child` process holding `n` connections against
/// `addr`; returns the child plus its piped stdin/stdout.
fn spawn_fleet(
    addr: SocketAddr,
    n: usize,
    idle_fraction: f64,
) -> (
    std::process::Child,
    std::process::ChildStdin,
    std::io::BufReader<std::process::ChildStdout>,
) {
    let mut child =
        std::process::Command::new(std::env::current_exe().expect("current_exe for fleet child"))
            .args([
                "--fleet-child",
                &addr.to_string(),
                &n.to_string(),
                &idle_fraction.to_string(),
            ])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("spawn fleet child");
    let stdin = child.stdin.take().expect("fleet stdin");
    let stdout = std::io::BufReader::new(child.stdout.take().expect("fleet stdout"));
    (child, stdin, stdout)
}

/// Poll the scrape until `pred` holds (or the budget runs out); returns
/// the last exposition text.
fn scrape_until(scraper: &mut InstanceClient, tries: usize, pred: impl Fn(&str) -> bool) -> String {
    let mut text = scraper.scrape().expect("scrape reply");
    for _ in 0..tries {
        if pred(&text) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        text = scraper.scrape().expect("scrape reply");
    }
    text
}

/// Resident cost (KiB) of one idle connection on the retired thread-per-
/// connection edge (reader thread stack + eagerly sized decoder buffer),
/// measured over 1000 idle connections when the reactor edge replaced it
/// and committed in `BENCH_serve.json`. The edge's code is gone; its
/// measured price stays the baseline the reactor's residency is judged by.
const THREADED_PER_CONN_KIB: f64 = 22.812;

/// Idle connections behind [`THREADED_PER_CONN_KIB`].
const THREADED_BASELINE_CONNS: usize = 1000;

/// The connection-scale phase: price a resident connection on the
/// reactor edge under `args.connections` mostly-idle clients, prove the
/// hot path keeps its latency budget with the fleet parked on the same
/// epoll loops, and compare against the thread-per-connection baseline
/// ([`THREADED_PER_CONN_KIB`]).
fn run_connections(args: &Args) -> ConnResult {
    use std::io::Write as _;

    let n = args.connections;
    let shards = 4usize;
    let hot_clients = if args.smoke { 20 } else { 40 };
    let hot_points = if args.smoke { 60 } else { 120 };
    let mut failures = Vec::new();

    let registry = ModelRegistry::new(
        model(1000.0),
        f2pm_features::aggregate::aggregated_column_names_with(&agg()),
        agg(),
    )
    .expect("registry");
    let server = PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            shards,
            queue_cap: 256,
            batch_cap: 64,
            policy: AlertPolicy::default(),
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("start reactor server");
    let addr = server.addr();
    eprintln!(
        "loadgen: connections phase — {n} fleet conns ({:.0}% idle) + {hot_clients} hot \
         clients x {hot_points} points, {shards} shards",
        args.idle_fraction * 100.0
    );

    // Hot-sweep scripts precomputed BEFORE the RSS baseline, so script
    // memory is excluded from the per-connection math.
    let scripts: Vec<_> = (0..hot_clients)
        .map(|c| client_script(c as u32, hot_points, SPARE_POINTS))
        .collect();
    let rss_base = rss_kib();

    let (mut child, mut stdin, mut stdout) = spawn_fleet(addr, n, args.idle_fraction);
    let connected = child_line(&mut stdout, "CONNECTED", &mut failures).unwrap_or(0);
    if connected != n as u64 {
        failures.push(format!("fleet connected {connected}/{n}"));
    }
    let mut scraper = InstanceClient::connect(&addr.to_string()).expect("scraper connect");
    let live_text = scrape_until(&mut scraper, 4000, |t| {
        metric_sample(t, "f2pm_serve_connections ").unwrap_or(0.0) as u64 > connected
    });
    let mut peak_live = metric_sample(&live_text, "f2pm_serve_connections ").unwrap_or(0.0) as u64;
    if peak_live < connected {
        failures.push(format!(
            "server only saw {peak_live} live connections for a {connected}-conn fleet"
        ));
    }
    let rss_fleet = rss_kib();

    // Hot sweep while the fleet trickles: same wire clients as the main
    // run, no hot reload (generation target 0 skips the reload tail).
    writeln!(stdin, "RUN").ok();
    let sent_total = Arc::new(AtomicU64::new(0));
    let no_reload = Arc::new(AtomicU64::new(0));
    let reports: Vec<ClientReport> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(c, script)| {
                let sent_total = &sent_total;
                let no_reload = &no_reload;
                s.spawn(move || run_client(addr, c as u32, script, sent_total, no_reload))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hot client"))
            .collect()
    });
    let child_sent = child_line(&mut stdout, "SENT", &mut failures).unwrap_or(0);

    // Exact cross-check: every datapoint either fleet or sweep sent must
    // be counted by the server — across two processes and two traffic
    // classes, nothing lost, nothing double-counted.
    let expected = sent_total.load(Ordering::SeqCst) + child_sent;
    let settled_text = scrape_until(&mut scraper, 2000, |t| {
        metric_sample(t, "f2pm_serve_datapoints_total ") == Some(expected as f64)
    });
    let scraped_datapoints =
        metric_sample(&settled_text, "f2pm_serve_datapoints_total ").unwrap_or(-1.0) as i64;
    if scraped_datapoints != expected as i64 {
        failures.push(format!(
            "scraped f2pm_serve_datapoints_total {scraped_datapoints} != {expected} \
             (fleet {child_sent} + sweep {})",
            sent_total.load(Ordering::SeqCst)
        ));
    }
    let rss_after_sweep = rss_kib();
    if rss_after_sweep > rss_fleet + FLAT_RSS_BUDGET_KIB {
        failures.push(format!(
            "parent RSS grew {} KiB across the hot sweep (flat-memory budget {} KiB)",
            rss_after_sweep - rss_fleet,
            FLAT_RSS_BUDGET_KIB
        ));
    }

    // Clean close: the whole fleet says Bye; the gauge must drain back to
    // just this scraper.
    writeln!(stdin, "BYE").ok();
    child_line(&mut stdout, "CLOSED", &mut failures);
    child.wait().ok();
    let drained_text = scrape_until(&mut scraper, 4000, |t| {
        metric_sample(t, "f2pm_serve_connections ").unwrap_or(f64::MAX) as u64 <= 1
    });
    let live_after = metric_sample(&drained_text, "f2pm_serve_connections ").unwrap_or(-1.0) as i64;
    if live_after > 1 {
        failures.push(format!(
            "{live_after} connections still live after the fleet closed"
        ));
    }
    peak_live = peak_live.max(connected);
    let evicted_slow =
        metric_sample(&drained_text, "f2pm_serve_conns_evicted_slow ").unwrap_or(-1.0) as i64;
    let dropped =
        metric_sample(&drained_text, "f2pm_serve_dropped_frames_total ").unwrap_or(-1.0) as i64;
    if evicted_slow != 0 {
        failures.push(format!(
            "{evicted_slow} connections evicted as slow consumers (fleet reads nothing it \
             is sent nothing — must be 0)"
        ));
    }
    if dropped != 0 {
        failures.push(format!("{dropped} frames dropped (must be 0)"));
    }
    drop(scraper);
    let hwm = vm_hwm_kib();
    server.shutdown();

    let mut latencies: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let (hot_p50, hot_p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    if hot_p99 > CONN_PHASE_P99_BUDGET_US {
        failures.push(format!(
            "hot-path p99 {hot_p99}us over the {CONN_PHASE_P99_BUDGET_US}us budget with \
             {n} fleet conns parked"
        ));
    }
    let with_estimate = reports.iter().filter(|r| r.saw_estimate).count();
    if with_estimate != hot_clients {
        failures.push(format!(
            "only {with_estimate}/{hot_clients} hot clients got a live estimate under fleet load"
        ));
    }

    // Resident cost per connection. The delta can round to ~0 pages on
    // small fleets; floor it so the ratio stays finite and conservative
    // deltas still tell the story.
    let per_conn_kib_reactor =
        (rss_fleet.saturating_sub(rss_base) as f64 / n.max(1) as f64).max(0.05);
    let resident_ratio = THREADED_PER_CONN_KIB / per_conn_kib_reactor;
    if !args.smoke && resident_ratio < 10.0 {
        failures.push(format!(
            "reactor per-conn residency only {resident_ratio:.1}x below the threaded \
             baseline (need >= 10x): {per_conn_kib_reactor:.2} KiB vs \
             {THREADED_PER_CONN_KIB:.2} KiB"
        ));
    }

    eprintln!(
        "connections: {connected} up (peak {peak_live}), fleet sent {child_sent}, hot p50 \
         {hot_p50}us p99 {hot_p99}us | per-conn {per_conn_kib_reactor:.2} KiB reactor vs \
         {THREADED_PER_CONN_KIB:.2} KiB threaded ({resident_ratio:.0}x)"
    );

    ConnResult {
        target: n,
        connected,
        idle_fraction: args.idle_fraction,
        peak_live,
        child_sent,
        hot_clients,
        hot_samples: latencies.len(),
        hot_p50,
        hot_p99,
        rss_base_kib: rss_base,
        rss_fleet_kib: rss_fleet,
        rss_after_sweep_kib: rss_after_sweep,
        vm_hwm_kib: hwm,
        per_conn_kib_reactor,
        resident_ratio,
        evicted_slow: evicted_slow.max(0) as u64,
        dropped: dropped.max(0) as u64,
        failures,
    }
}

/// Datapoints each simulated fleet host streams before the estimate wait
/// and the cluster cross-checks.
const FLEET_POINTS_PER_HOST: usize = 8;

/// How long a host keeps polling for its first estimate (a fleet host
/// sends one more datapoint per poll; a sweep client only asks again).
/// A time budget, not a poll count: the polls are back-to-back round
/// trips, so under CPU contention a fixed count can run out before the
/// host's shard has drained the earlier points.
const ESTIMATE_BUDGET: std::time::Duration = std::time::Duration::from_secs(10);

/// One instance's share of the fleet phase, from its settled snapshot.
struct FleetInstanceRow {
    instance_id: u32,
    hosts: u32,
    datapoints: u64,
    estimates: u64,
}

/// Everything the multi-instance fleet phase produces.
struct FleetResult {
    instances: usize,
    hosts: usize,
    points_per_host: usize,
    wall_s: f64,
    datapoints: u64,
    fleet_scrape_datapoints: i64,
    instance_scrape_datapoints_sum: i64,
    hosts_with_estimate: u64,
    hosts_tracked: u64,
    top_k: usize,
    top_k_verified: bool,
    dropped: u64,
    per_instance: Vec<FleetInstanceRow>,
    failures: Vec<String>,
}

/// Stream one heterogeneous host's datapoints to its ring-routed owner,
/// then poll `PredictRequest` until the host's estimate is live on the
/// owner's board. Guest deaths reincarnate the collector *silently* (no
/// `Fail` frame): `Fail` clears the host's board slot from the shard
/// worker while the predict poll reads the board out-of-band, so a
/// cleared-after-observed race would make the exact `hosts_tracked`
/// cross-check flaky. `run_once` already exercises the `Fail` path.
fn run_fleet_host(
    host: u32,
    addr: &str,
    sent_total: &AtomicU64,
    with_estimate: &AtomicU64,
) -> Result<(), String> {
    let profile = HostProfile::for_host(host);
    let mut life = 0u64;
    let collector_for = |life: u64| {
        let seed = profile.seed(life);
        SimCollector::new(
            Simulation::new(
                SimConfig {
                    anomaly: profile.anomaly_config(),
                    ..SimConfig::default()
                },
                seed,
            ),
            SimCollectorConfig::default(),
            seed,
        )
    };
    let mut collector = collector_for(life);
    let next_point = |collector: &mut SimCollector, life: &mut u64| loop {
        match collector.collect() {
            Some(d) => return d,
            None => {
                *life += 1;
                *collector = collector_for(*life);
            }
        }
    };

    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("fleet host {host}: connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    Message::Hello {
        version: PROTOCOL_VERSION,
        host_id: host,
    }
    .write_to(&mut stream)
    .map_err(|e| format!("fleet host {host}: hello: {e}"))?;

    for _ in 0..FLEET_POINTS_PER_HOST {
        let d = next_point(&mut collector, &mut life);
        Message::Datapoint(d)
            .write_to(&mut stream)
            .map_err(|e| format!("fleet host {host}: datapoint: {e}"))?;
        sent_total.fetch_add(1, Ordering::Relaxed);
    }

    // The first window needs `min_points` datapoints inside `window_s` of
    // guest time before an estimate exists; feed more points until the
    // board answers. Once observed, the slot can never be cleared (no
    // `Fail` frames above), so the final board read stays exact.
    let mut got = false;
    let started = Instant::now();
    let mut polls = 0u32;
    while started.elapsed() < ESTIMATE_BUDGET {
        polls += 1;
        Message::PredictRequest { host_id: host }
            .write_to(&mut stream)
            .map_err(|e| format!("fleet host {host}: predict request: {e}"))?;
        let rttf = loop {
            match Message::read_from(&mut stream)
                .map_err(|e| format!("fleet host {host}: read: {e}"))?
                .ok_or_else(|| format!("fleet host {host}: server closed the connection"))?
            {
                Message::RttfEstimate { rttf, .. } => break rttf,
                Message::Alert { .. } => {}
                other => return Err(format!("fleet host {host}: unexpected reply {other:?}")),
            }
        };
        if rttf.is_some() {
            got = true;
            break;
        }
        let d = next_point(&mut collector, &mut life);
        Message::Datapoint(d)
            .write_to(&mut stream)
            .map_err(|e| format!("fleet host {host}: datapoint: {e}"))?;
        sent_total.fetch_add(1, Ordering::Relaxed);
    }
    if got {
        with_estimate.fetch_add(1, Ordering::Relaxed);
    }
    Message::Bye.write_to(&mut stream).ok();
    if got {
        Ok(())
    } else {
        Err(format!(
            "fleet host {host}: no live estimate after {polls} polls in {ESTIMATE_BUDGET:?}"
        ))
    }
}

/// The multi-instance fleet phase: N in-process serve instances with
/// distinct identities, >=1k heterogeneous simulated hosts routed across
/// them by the consistent-hash ring, then the cluster-level cross-checks
/// — the fleet-merged exposition counter must equal the *sum* of the
/// per-instance scrapes and the harness's own sent count exactly, and the
/// wire-level `f2pm fleet top-k` ranking must match the union of the
/// in-process estimate boards (ground truth) entry for entry.
fn run_fleet(args: &Args) -> FleetResult {
    let hosts = args.fleet_hosts;
    let instance_ids: Vec<u32> = (1..=args.fleet_instances as u32).collect();
    let mut failures: Vec<String> = Vec::new();

    // A model that *ranks*: RTTF falls as memory, swap, and thread
    // pressure rise, so heterogeneous host profiles spread over distinct
    // positions instead of all predicting the intercept.
    let columns = f2pm_features::aggregate::aggregated_column_names_with(&agg());
    let mut coefficients = vec![0.0; columns.len()];
    for (name, w) in [("mem_used", -0.5), ("swap_used", -2.0), ("n_threads", -1.0)] {
        let at = columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no aggregated column {name}"));
        coefficients[at] = w;
    }
    let servers: Vec<_> = instance_ids
        .iter()
        .map(|&id| {
            let registry = ModelRegistry::new(
                SavedModel::Linear(LinearModel {
                    intercept: 20_000.0,
                    coefficients: coefficients.clone(),
                }),
                columns.clone(),
                agg(),
            )
            .expect("fleet registry");
            PredictionServer::start(
                "127.0.0.1:0",
                ServeConfig {
                    shards: 2,
                    queue_cap: 256,
                    batch_cap: 64,
                    policy: AlertPolicy::default(),
                    instance_id: id,
                    ..ServeConfig::default()
                },
                registry,
            )
            .expect("start fleet instance")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let ring = HashRing::new(&instance_ids);
    eprintln!(
        "loadgen: fleet phase — {hosts} hosts x {FLEET_POINTS_PER_HOST} points across {} \
         instances (consistent-hash routed)",
        instance_ids.len()
    );

    let started = Instant::now();
    let sent_total = AtomicU64::new(0);
    let with_estimate = AtomicU64::new(0);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(16);
    let host_errors: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (addrs, ring) = (&addrs, &ring);
                let (instance_ids, sent_total, with_estimate) =
                    (&instance_ids, &sent_total, &with_estimate);
                s.spawn(move || {
                    let mut errors = Vec::new();
                    let mut host = w as u32;
                    while (host as usize) < hosts {
                        let owner = ring.route(host).expect("non-empty ring");
                        let at = instance_ids
                            .iter()
                            .position(|&i| i == owner)
                            .expect("owner joined the ring");
                        if let Err(e) = run_fleet_host(host, &addrs[at], sent_total, with_estimate)
                        {
                            errors.push(e);
                        }
                        host += workers as u32;
                    }
                    errors
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet worker"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    failures.extend(host_errors.into_iter().take(8));
    let expected = sent_total.load(Ordering::SeqCst);

    // Everything below goes over the wire exactly as `f2pm fleet` would
    // see it. Settle first: the last datapoints may still sit in shard
    // queues.
    let mut fleet = Fleet::connect(&addrs).expect("fleet connect");
    let deadline = Instant::now() + std::time::Duration::from_millis(4000);
    let mut stats = fleet.stats().expect("fleet stats");
    while stats.datapoints != expected && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
        stats = fleet.stats().expect("fleet stats");
    }
    if stats.datapoints != expected {
        failures.push(format!(
            "fleet rollup counted {} datapoints, harness sent {expected}",
            stats.datapoints
        ));
    }
    if stats.dropped != 0 {
        failures.push(format!("{} frames dropped across the fleet", stats.dropped));
    }
    if stats.hosts_tracked != hosts as u64 {
        failures.push(format!(
            "{} hosts tracked across the fleet, expected {hosts}",
            stats.hosts_tracked
        ));
    }
    let with_estimate = with_estimate.load(Ordering::SeqCst);
    if with_estimate != hosts as u64 {
        failures.push(format!(
            "only {with_estimate}/{hosts} hosts observed a live estimate"
        ));
    }
    let per_instance: Vec<FleetInstanceRow> = stats
        .instances
        .iter()
        .map(|snap| FleetInstanceRow {
            instance_id: snap.instance_id,
            hosts: snap.hosts_tracked,
            datapoints: snap.datapoints,
            estimates: snap.estimates,
        })
        .collect();
    for row in &per_instance {
        if row.hosts == 0 {
            failures.push(format!(
                "the ring routed no hosts to instance {}",
                row.instance_id
            ));
        }
    }

    // Exact conservation across the aggregation layer: the merged fleet
    // exposition's datapoint counter == the sum of the per-instance
    // scrapes == what the harness sent. Nothing lost, nothing
    // double-counted.
    let mut instance_sum = 0.0;
    for addr in &addrs {
        let mut client = InstanceClient::connect(addr).expect("instance scrape connect");
        let text = client.scrape().expect("instance scrape");
        instance_sum += metric_sample(&text, "f2pm_serve_datapoints_total ").unwrap_or(f64::NAN);
    }
    let merged = fleet.merged_scrape().expect("merged scrape");
    let merged_datapoints = metric_sample(&merged, "f2pm_serve_datapoints_total ").unwrap_or(-1.0);
    if merged_datapoints != instance_sum || merged_datapoints != expected as f64 {
        failures.push(format!(
            "merged exposition counted {merged_datapoints} datapoints, per-instance scrapes \
             sum to {instance_sum}, harness sent {expected}"
        ));
    }
    for id in &instance_ids {
        if !merged.contains(&format!("instance=\"{id}\"")) {
            failures.push(format!(
                "instance {id} not attributable in the merged exposition"
            ));
        }
    }

    // The wire-level cluster top-K against ground truth: the union of the
    // per-instance seqlock boards, sorted the same way.
    let k = 10.min(hosts);
    let top = fleet.top_k(k).expect("fleet top-k");
    let mut expected_rank: Vec<(f64, u32, u32)> = Vec::new();
    for server in &servers {
        let id = server.instance_id();
        for (host, est) in server.board().top_k(usize::MAX) {
            expected_rank.push((est.rttf, host, id));
        }
    }
    expected_rank.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite rttf")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    expected_rank.truncate(k);
    let top_k_verified = top.len() == expected_rank.len()
        && !top.is_empty()
        && top
            .iter()
            .zip(&expected_rank)
            .all(|(got, want)| (got.rttf, got.host_id, got.instance_id) == *want)
        && top.windows(2).all(|p| p[0].rttf <= p[1].rttf);
    if !top_k_verified {
        failures.push(format!(
            "fleet top-{k} diverged from the union of the per-instance estimate boards: \
             got {:?}, want {expected_rank:?}",
            top.iter()
                .map(|e| (e.rttf, e.host_id, e.instance_id))
                .collect::<Vec<_>>()
        ));
    }

    drop(fleet);
    for server in servers {
        let snap = server.shutdown();
        if snap.dropped != 0 {
            failures.push(format!("an instance dropped {} frames", snap.dropped));
        }
    }

    eprintln!(
        "fleet: {hosts} hosts over {} instances, {expected} datapoints in {wall_s:.2}s, \
         merged scrape {merged_datapoints}, top-{k} verified: {top_k_verified}",
        instance_ids.len()
    );

    FleetResult {
        instances: instance_ids.len(),
        hosts,
        points_per_host: FLEET_POINTS_PER_HOST,
        wall_s,
        datapoints: expected,
        fleet_scrape_datapoints: merged_datapoints as i64,
        instance_scrape_datapoints_sum: instance_sum as i64,
        hosts_with_estimate: with_estimate,
        hosts_tracked: stats.hosts_tracked,
        top_k: k,
        top_k_verified,
        dropped: stats.dropped,
        per_instance,
        failures,
    }
}

/// Inline wire-codec throughput over a loadgen-shaped 64-frame burst:
/// per-frame `encode()` vs `encode_into()` with a reused scratch, plus
/// buffered streaming decode. Mirrors the `wire_codec` criterion bench
/// so the numbers land next to the serve results they explain.
fn measure_wire_codec() -> (f64, f64, f64) {
    use f2pm_monitor::wire::FrameDecoder;
    use f2pm_monitor::Datapoint;

    let msgs: Vec<Message> = (0..64)
        .map(|i| {
            if i % 10 == 9 {
                Message::PredictRequest { host_id: i as u32 }
            } else {
                let mut d = Datapoint {
                    t_gen: i as f64 * 5.0,
                    values: [1.0; 14],
                };
                d.values[3] = (i as f64 * 0.37).sin() * 100.0;
                Message::Datapoint(d)
            }
        })
        .collect();
    const ROUNDS: usize = 2000;
    let frames = (ROUNDS * msgs.len()) as f64;

    let started = Instant::now();
    let mut sink = 0usize;
    for _ in 0..ROUNDS {
        for m in &msgs {
            sink = sink.wrapping_add(m.encode().len());
        }
    }
    let encode_alloc = frames / started.elapsed().as_secs_f64();

    let mut scratch = bytes::BytesMut::with_capacity(16 * 1024);
    let started = Instant::now();
    for _ in 0..ROUNDS {
        scratch.clear();
        for m in &msgs {
            m.encode_into(&mut scratch);
        }
        sink = sink.wrapping_add(scratch.len());
    }
    let encode_into = frames / started.elapsed().as_secs_f64();

    let mut coalesced = bytes::BytesMut::with_capacity(16 * 1024);
    for m in &msgs {
        m.encode_into(&mut coalesced);
    }
    let stream = coalesced.to_vec();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let mut decoder = FrameDecoder::new();
        let mut src: &[u8] = &stream;
        let mut n = 0usize;
        while let Ok(Some(_)) = decoder.read_frame(&mut src) {
            n += 1;
        }
        assert_eq!(n, msgs.len());
        sink = sink.wrapping_add(n);
    }
    let decode = frames / started.elapsed().as_secs_f64();
    assert!(sink != 0);
    (encode_alloc, encode_into, decode)
}

/// p99 predict RTT of the seed (pre-batching, per-frame-alloc) data
/// plane at the same full load, from the committed PR 2 BENCH_serve.json.
const BASELINE_P99_US: u64 = 191_229;

fn main() {
    // Hidden re-exec mode: `--fleet-child ADDR N IDLE_FRACTION` turns
    // this process into the connection-fleet holder (see
    // [`fleet_child_main`]). Handled before normal flag parsing.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--fleet-child") {
        let addr: SocketAddr = argv[2].parse().expect("fleet child addr");
        let n: usize = argv[3].parse().expect("fleet child count");
        let f: f64 = argv[4].parse().expect("fleet child idle fraction");
        fleet_child_main(addr, n, f);
    }

    let args = parse_args();
    let shard_counts: Vec<usize> = if args.sweep {
        if args.smoke {
            vec![1, 2]
        } else {
            vec![1, 2, 4]
        }
    } else {
        vec![args.shards]
    };
    let runs: Vec<RunResult> = shard_counts.iter().map(|&s| run_once(&args, s)).collect();

    // The connection-scale phase runs after the sweeps: `run_once`'s
    // accepted-connection accounting assumes exactly clients + 2 scrapers,
    // so the idle fleet gets its own servers.
    let conn = (args.connections > 0).then(|| run_connections(&args));

    // The fleet phase gets its own servers too: cluster-level routing and
    // aggregation cross-checks on top of fresh, exactly-accountable
    // counters.
    let fleet = (args.fleet_hosts > 0).then(|| run_fleet(&args));

    let (enc_alloc_fps, enc_into_fps, dec_fps) = measure_wire_codec();
    // Top-level fields report the primary run — the largest shard count.
    let r = runs.last().expect("at least one run");

    let mut checks_passed = runs.iter().all(|run| run.failures.is_empty());
    if let Some(c) = &conn {
        checks_passed &= c.failures.is_empty();
    }
    if let Some(f) = &fleet {
        checks_passed &= f.failures.is_empty();
    }
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"f2pm-bench loadgen\",");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"clients\": {},", args.clients);
    let _ = writeln!(json, "  \"points_per_client\": {},", args.points);
    let _ = writeln!(json, "  \"shards\": {},", r.shards);
    let _ = writeln!(json, "  \"wall_s\": {:.3},", r.wall_s);
    let _ = writeln!(json, "  \"datapoints\": {},", r.datapoints);
    let _ = writeln!(json, "  \"ingest_rate_per_s\": {:.1},", r.ingest_rate());
    let _ = writeln!(json, "  \"predict_rtt_us\": {{");
    let _ = writeln!(json, "    \"samples\": {},", r.samples);
    let _ = writeln!(json, "    \"p50\": {},", r.p50);
    let _ = writeln!(json, "    \"p95\": {},", r.p95);
    let _ = writeln!(json, "    \"p99\": {},", r.p99);
    let _ = writeln!(json, "    \"max\": {}", r.lat_max);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"baseline_p99_us\": {BASELINE_P99_US},");
    let _ = writeln!(
        json,
        "  \"p99_speedup_vs_baseline\": {:.2},",
        BASELINE_P99_US as f64 / r.p99.max(1) as f64
    );
    let _ = writeln!(json, "  \"stage_latency_us\": {{");
    for (i, (name, s)) in [
        ("decode", r.decode),
        ("queue_wait", r.queue_wait),
        ("predict", r.predict),
        ("reply", r.reply),
    ]
    .iter()
    .enumerate()
    {
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"p50\": {}, \"p99\": {} }}{}",
            s.p50,
            s.p99,
            if i < 3 { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"shards\": {}, \"wall_s\": {:.3}, \"ingest_rate_per_s\": {:.1}, \
             \"predict_rtt_p50_us\": {}, \"predict_rtt_p99_us\": {}, \
             \"dropped_frames\": {}, \"checks_passed\": {} }}{}",
            run.shards,
            run.wall_s,
            run.ingest_rate(),
            run.p50,
            run.p99,
            run.dropped,
            run.failures.is_empty(),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    if let Some(c) = &conn {
        let _ = writeln!(json, "  \"connections\": {{");
        let _ = writeln!(json, "    \"target\": {},", c.target);
        let _ = writeln!(json, "    \"connected\": {},", c.connected);
        let _ = writeln!(json, "    \"idle_fraction\": {},", c.idle_fraction);
        let _ = writeln!(json, "    \"peak_live\": {},", c.peak_live);
        let _ = writeln!(json, "    \"fleet_datapoints\": {},", c.child_sent);
        let _ = writeln!(json, "    \"hot_clients\": {},", c.hot_clients);
        let _ = writeln!(json, "    \"hot_predict_samples\": {},", c.hot_samples);
        let _ = writeln!(json, "    \"hot_predict_p50_us\": {},", c.hot_p50);
        let _ = writeln!(json, "    \"hot_predict_p99_us\": {},", c.hot_p99);
        let _ = writeln!(
            json,
            "    \"hot_p99_budget_us\": {CONN_PHASE_P99_BUDGET_US},"
        );
        let _ = writeln!(json, "    \"rss_base_kib\": {},", c.rss_base_kib);
        let _ = writeln!(json, "    \"rss_fleet_kib\": {},", c.rss_fleet_kib);
        let _ = writeln!(
            json,
            "    \"rss_after_sweep_kib\": {},",
            c.rss_after_sweep_kib
        );
        let _ = writeln!(json, "    \"vm_hwm_kib\": {},", c.vm_hwm_kib);
        let _ = writeln!(
            json,
            "    \"per_conn_kib_reactor\": {:.3},",
            c.per_conn_kib_reactor
        );
        let _ = writeln!(
            json,
            "    \"per_conn_kib_threaded\": {THREADED_PER_CONN_KIB:.3},"
        );
        let _ = writeln!(
            json,
            "    \"threaded_baseline_conns\": {THREADED_BASELINE_CONNS},"
        );
        let _ = writeln!(json, "    \"resident_ratio\": {:.1},", c.resident_ratio);
        let _ = writeln!(json, "    \"evicted_slow\": {},", c.evicted_slow);
        let _ = writeln!(json, "    \"dropped_frames\": {},", c.dropped);
        let _ = writeln!(json, "    \"checks_passed\": {}", c.failures.is_empty());
        let _ = writeln!(json, "  }},");
    }
    if let Some(f) = &fleet {
        let _ = writeln!(json, "  \"fleet\": {{");
        let _ = writeln!(json, "    \"instances\": {},", f.instances);
        let _ = writeln!(json, "    \"hosts\": {},", f.hosts);
        let _ = writeln!(json, "    \"points_per_host\": {},", f.points_per_host);
        let _ = writeln!(json, "    \"wall_s\": {:.3},", f.wall_s);
        let _ = writeln!(json, "    \"datapoints\": {},", f.datapoints);
        let _ = writeln!(
            json,
            "    \"fleet_scrape_datapoints\": {},",
            f.fleet_scrape_datapoints
        );
        let _ = writeln!(
            json,
            "    \"instance_scrape_datapoints_sum\": {},",
            f.instance_scrape_datapoints_sum
        );
        let _ = writeln!(
            json,
            "    \"hosts_with_estimate\": {},",
            f.hosts_with_estimate
        );
        let _ = writeln!(json, "    \"hosts_tracked\": {},", f.hosts_tracked);
        let _ = writeln!(json, "    \"top_k\": {},", f.top_k);
        let _ = writeln!(json, "    \"top_k_verified\": {},", f.top_k_verified);
        let _ = writeln!(json, "    \"dropped_frames\": {},", f.dropped);
        let _ = writeln!(json, "    \"per_instance\": [");
        for (i, row) in f.per_instance.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{ \"instance_id\": {}, \"hosts\": {}, \"datapoints\": {}, \
                 \"estimates\": {} }}{}",
                row.instance_id,
                row.hosts,
                row.datapoints,
                row.estimates,
                if i + 1 < f.per_instance.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(json, "    ],");
        let _ = writeln!(json, "    \"checks_passed\": {}", f.failures.is_empty());
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"wire_codec\": {{");
    let _ = writeln!(
        json,
        "    \"encode_alloc_frames_per_s\": {enc_alloc_fps:.0},"
    );
    let _ = writeln!(json, "    \"encode_into_frames_per_s\": {enc_into_fps:.0},");
    let _ = writeln!(json, "    \"decode_frames_per_s\": {dec_fps:.0}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"estimates\": {},", r.estimates);
    let _ = writeln!(json, "  \"alerts\": {},", r.alerts);
    let _ = writeln!(json, "  \"sim_failures_reported\": {},", r.fails);
    let _ = writeln!(json, "  \"dropped_frames\": {},", r.dropped);
    let _ = writeln!(json, "  \"connections_accepted\": {},", r.accepted);
    let _ = writeln!(
        json,
        "  \"clients_with_live_estimate\": {},",
        r.with_estimate
    );
    let _ = writeln!(json, "  \"hot_reload_generation\": {},", r.reload_gen);
    let _ = writeln!(json, "  \"clients_saw_reload\": {},", r.saw_reload);
    let _ = writeln!(json, "  \"scraped_datapoints\": {},", r.scraped_datapoints);
    let _ = writeln!(
        json,
        "  \"scraped_model_generation\": {},",
        r.scraped_generation
    );
    let _ = writeln!(json, "  \"metrics_scrape_ok\": {},", r.metrics_scrape_ok);
    let _ = writeln!(json, "  \"checks_passed\": {checks_passed}");
    json.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).ok();
        }
    }
    std::fs::File::create(&args.out)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    eprintln!("wrote {}", args.out);

    if !checks_passed {
        for run in &runs {
            for f in &run.failures {
                eprintln!("CHECK FAILED ({} shards): {f}", run.shards);
            }
        }
        if let Some(c) = &conn {
            for f in &c.failures {
                eprintln!("CHECK FAILED (connections): {f}");
            }
        }
        if let Some(fr) = &fleet {
            for f in &fr.failures {
                eprintln!("CHECK FAILED (fleet): {f}");
            }
        }
        std::process::exit(1);
    }
}
