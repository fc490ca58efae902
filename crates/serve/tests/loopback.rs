//! Loopback integration tests: real TCP, real frames, the full
//! reader → shard → board → reply path.
//!
//! The model is hand-built so estimates are exactly predictable:
//! `rttf = 1000 − 2 × swap_used` over `["swap_used", "swap_used_slope"]`,
//! with a 30 s / 2-point aggregation window.

use f2pm_features::AggregationConfig;
use f2pm_ml::linreg::LinearModel;
use f2pm_ml::SavedModel;
use f2pm_monitor::wire::{Message, PROTOCOL_VERSION};
use f2pm_monitor::{Datapoint, FeatureId, FeatureMonitorClient, FmcConfig};
use f2pm_serve::{AlertPolicy, ModelRegistry, PredictionServer, ServeConfig, ServeHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn agg() -> AggregationConfig {
    AggregationConfig {
        window_s: 30.0,
        min_points: 2,
        ..AggregationConfig::default()
    }
}

fn linear(intercept: f64, swap_coef: f64) -> SavedModel {
    SavedModel::Linear(LinearModel {
        intercept,
        coefficients: vec![swap_coef, 0.0],
    })
}

fn start_server(shards: usize) -> ServeHandle {
    start_server_batched(shards, 64)
}

fn start_server_batched(shards: usize, batch_cap: usize) -> ServeHandle {
    let registry = ModelRegistry::new(
        linear(1000.0, -2.0),
        vec!["swap_used".to_string(), "swap_used_slope".to_string()],
        agg(),
    )
    .unwrap();
    PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            shards,
            queue_cap: 256,
            batch_cap,
            policy: AlertPolicy::default(),
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap()
}

fn dp(t: f64, swap: f64) -> Datapoint {
    let mut d = Datapoint {
        t_gen: t,
        values: [1.0; 14],
    };
    d.set(FeatureId::SwapUsed, swap);
    d
}

/// A raw test client speaking the wire protocol directly.
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

    fn recv(&mut self) -> Message {
        Message::read_from(&mut self.stream).unwrap().unwrap()
    }

    /// Scrape the text exposition. Pushed alerts and stale estimate
    /// replies that arrive in between are skipped.
    fn scrape(&mut self) -> String {
        self.send(&Message::MetricsRequest);
        loop {
            match self.recv() {
                Message::MetricsText { text } => return text,
                Message::Alert { .. } | Message::RttfEstimate { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    /// Poll `PredictRequest` until an estimate is present (the shard
    /// worker publishes asynchronously). Pushed alerts that arrive in
    /// between are skipped.
    fn wait_estimate(&mut self) -> (f64, f64, u64) {
        self.wait_estimate_since(f64::NEG_INFINITY)
    }

    /// [`Client::wait_estimate`] for an estimate of a window that closed
    /// at `t_min` or later.
    fn wait_estimate_since(&mut self, t_min: f64) -> (f64, f64, u64) {
        for _ in 0..500 {
            self.send(&Message::PredictRequest { host_id: self.host });
            loop {
                match self.recv() {
                    Message::RttfEstimate {
                        t,
                        rttf: Some(r),
                        model_generation,
                        ..
                    } if t >= t_min => return (t, r, model_generation),
                    Message::RttfEstimate { .. } => break,
                    Message::Alert { .. } => {}
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("no estimate for host {}", self.host);
    }
}

#[test]
fn per_host_estimates_are_isolated() {
    let server = start_server(3);
    let addr = server.addr();

    // Five hosts across three shards, interleaved, each at its own swap
    // level → each must see exactly its own estimate.
    let hosts: Vec<(u32, f64)> = vec![(0, 50.0), (1, 100.0), (2, 150.0), (5, 200.0), (9, 250.0)];
    let mut clients: Vec<Client> = hosts
        .iter()
        .map(|&(h, _)| Client::connect(addr, h))
        .collect();
    for i in 0..30 {
        let t = i as f64 * 5.0;
        for (c, &(_, swap)) in clients.iter_mut().zip(&hosts) {
            c.send(&Message::Datapoint(dp(t, swap)));
        }
    }
    for (c, &(h, swap)) in clients.iter_mut().zip(&hosts) {
        let (_, rttf, generation) = c.wait_estimate();
        assert_eq!(rttf, 1000.0 - 2.0 * swap, "host {h}");
        assert_eq!(generation, 1);
    }

    // A Fail resets host 1's life; its estimate disappears while host 2's
    // survives untouched.
    clients[1].send(&Message::Fail { t: 150.0 });
    for _ in 0..500 {
        clients[1].send(&Message::PredictRequest { host_id: 1 });
        if matches!(clients[1].recv(), Message::RttfEstimate { rttf: None, .. }) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    clients[1].send(&Message::PredictRequest { host_id: 1 });
    assert!(matches!(
        clients[1].recv(),
        Message::RttfEstimate { rttf: None, .. }
    ));
    let (_, rttf, _) = clients[2].wait_estimate();
    assert_eq!(rttf, 700.0, "host 2 unaffected by host 1's failure");

    for c in &mut clients {
        c.send(&Message::Bye);
    }
    let snap = server.shutdown();
    assert_eq!(snap.dropped, 0);
    assert!(snap.datapoints >= 150);
    assert!(snap.estimates >= 5);
}

#[test]
fn hot_reload_mid_stream_keeps_connection_and_window_state() {
    let server = start_server(2);
    let registry = server.registry();
    let mut client = Client::connect(server.addr(), 7);

    // Life under generation 1: estimate = 1000 − 2×100 = 800.
    let mut t = 0.0;
    for _ in 0..8 {
        client.send(&Message::Datapoint(dp(t, 100.0)));
        t += 5.0;
    }
    let (_, rttf, generation) = client.wait_estimate();
    assert_eq!(rttf, 800.0);
    assert_eq!(generation, 1);

    // Hot reload on the SAME connection: new model 500 − 1×swap.
    assert_eq!(registry.install(linear(500.0, -1.0)).unwrap(), 2);

    // Keep streaming without reconnecting; the next closed window scores
    // on the new model: 500 − 100 = 400.
    for _ in 0..30 {
        client.send(&Message::Datapoint(dp(t, 100.0)));
        // Wait for the estimate of the newest window this stream has
        // closed (30 s windows from t = 0), not a stale board entry.
        let closed = (t / 30.0).floor() * 30.0;
        t += 5.0;
        let (_, rttf, generation) = client.wait_estimate_since(closed);
        if generation == 2 {
            assert_eq!(rttf, 400.0);
            client.send(&Message::Bye);
            let snap = server.shutdown();
            assert_eq!(snap.model_generation, 2);
            assert_eq!(snap.dropped, 0);
            // One connection, never reset.
            assert_eq!(snap.total_accepted, 1);
            return;
        }
        assert_eq!(rttf, 800.0, "pre-reload estimates from generation 1");
    }
    panic!("never observed a generation-2 estimate");
}

/// Only `PROTOCOL_VERSION` is spoken: a `Hello` carrying any other
/// version closes the connection before a single datapoint counts, while
/// a current client on the same server keeps being served throughout.
#[test]
fn other_hello_versions_are_closed_without_ingesting() {
    let server = start_server(2);
    let mut current = Client::connect(server.addr(), 1);
    let mut t = 0.0;
    for version in [0u16, 1, 3, 5] {
        let refused_host = 50 + version as u32;
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        Message::Hello {
            version,
            host_id: refused_host,
        }
        .write_to(&mut stream)
        .unwrap();
        // Writes may already fail once the server has closed: that is the
        // expected outcome, not an error.
        for i in 0..8 {
            let _ = Message::Datapoint(dp(i as f64 * 5.0, 100.0)).write_to(&mut stream);
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("v{version} hello: expected a close, got {other:?}"),
        }
        assert!(server.board().get(refused_host).is_none(), "v{version}");

        // The current client's connection is untouched.
        for _ in 0..8 {
            current.send(&Message::Datapoint(dp(t, 100.0)));
            t += 5.0;
        }
        let (_, rttf, _) = current.wait_estimate();
        assert_eq!(rttf, 800.0, "after the v{version} refusal");
    }
    current.send(&Message::Bye);
    let snap = server.shutdown();
    assert_eq!(snap.datapoints, 4 * 8, "only the current client ingests");
    assert_eq!(snap.total_accepted, 5);
    assert_eq!(snap.dropped, 0);
}

#[test]
fn real_fmc_streams_into_serve() {
    // The actual FeatureMonitorClient against the serve
    // endpoint — datapoints flow and estimates appear.
    let server = start_server(1);
    let mut client = FeatureMonitorClient::connect(
        server.addr(),
        FmcConfig {
            host_id: 11,
            ..FmcConfig::default()
        },
    )
    .unwrap();
    for i in 0..20 {
        client.send_datapoint(&dp(i as f64 * 5.0, 400.0)).unwrap();
    }
    assert_eq!(client.sent(), 20);
    client.close().unwrap();

    let mut observer = Client::connect(server.addr(), 11);
    let (_, rttf, _) = observer.wait_estimate();
    assert_eq!(rttf, 1000.0 - 2.0 * 400.0);
    server.shutdown();
}

#[test]
fn stats_and_alerts_over_the_wire() {
    let server = start_server(2);
    let mut client = Client::connect(server.addr(), 4);

    // swap 480 → rttf 40 ≤ 180 threshold; two consecutive windows fire a
    // pushed alert.
    let mut t = 0.0;
    let mut saw_alert = None;
    'outer: for _ in 0..20 {
        for _ in 0..7 {
            client.send(&Message::Datapoint(dp(t, 480.0)));
            t += 5.0;
        }
        // Drain everything pushed up to the estimate reply; any alert in
        // between is the one we're waiting for.
        client.send(&Message::PredictRequest { host_id: 4 });
        loop {
            match client.recv() {
                Message::Alert {
                    host_id,
                    rttf,
                    threshold,
                    ..
                } => saw_alert = Some((host_id, rttf, threshold)),
                Message::RttfEstimate { .. } => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        if saw_alert.is_some() {
            break 'outer;
        }
    }
    let (host_id, rttf, threshold) = saw_alert.expect("alert pushed");
    assert_eq!(host_id, 4);
    assert_eq!(rttf, 40.0);
    assert_eq!(threshold, 180.0);

    // Stats over the wire reflect the traffic, in the fleet-aware snapshot
    // shape (instance identity + tracked hosts).
    client.send(&Message::StatsRequest);
    loop {
        match client.recv() {
            Message::FleetSnapshot {
                instance_id,
                connections,
                datapoints,
                estimates,
                alerts,
                dropped,
                model_generation,
                hosts_tracked,
                shard_depths,
            } => {
                assert_eq!(instance_id, 0, "default instance identity");
                assert_eq!(connections, 1);
                assert!(datapoints >= 14);
                assert!(estimates >= 2);
                assert!(alerts >= 1);
                assert_eq!(dropped, 0);
                assert_eq!(model_generation, 1);
                assert_eq!(hosts_tracked, 1);
                assert_eq!(shard_depths.len(), 2);
                break;
            }
            Message::Alert { .. } | Message::RttfEstimate { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    client.send(&Message::Bye);
    let snap = server.shutdown();
    assert!(snap.alerts >= 1);
}

/// The value of the first exposition sample whose name+labels start with
/// `prefix` (e.g. `"f2pm_serve_datapoints_total "` — note the trailing
/// space to match an unlabeled sample exactly).
fn sample(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_scrape_mid_load_and_after_hot_reload() {
    let server = start_server(2);
    let registry = server.registry();
    let mut client = Client::connect(server.addr(), 21);

    // Mid-load scrape: stream datapoints, then scrape on the same
    // connection. The blocking shard send means every datapoint was
    // counted by the reader before the scrape request was even read.
    let mut t = 0.0;
    for _ in 0..40 {
        client.send(&Message::Datapoint(dp(t, 100.0)));
        t += 5.0;
    }
    client.wait_estimate();
    // The reader counts a datapoint when it enqueues it, a shard worker
    // counts its event when it dequeues it: the first estimate can come
    // back while later datapoints still sit in the shard queue. Wait
    // (without a scrape, which would count itself) until the workers
    // have dequeued all 40: each records one queue-wait sample right
    // after counting the event.
    for _ in 0..500 {
        let drained: u64 = server.metrics().queue_wait_buckets.iter().sum();
        if drained >= 40 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let text = client.scrape();
    assert_eq!(
        sample(&text, "f2pm_serve_datapoints_total "),
        Some(40.0),
        "{text}"
    );
    assert_eq!(sample(&text, "f2pm_serve_model_generation "), Some(1.0));
    assert_eq!(sample(&text, "f2pm_serve_dropped_frames_total "), Some(0.0));
    assert_eq!(sample(&text, "f2pm_serve_connections "), Some(1.0));
    // Histogram families render in full: cumulative buckets, +Inf, count.
    assert!(text.contains("# TYPE f2pm_serve_estimate_latency_us histogram"));
    assert!(text.contains(r#"f2pm_serve_estimate_latency_us_bucket{le="+Inf"}"#));
    let estimates = sample(&text, "f2pm_serve_estimates_total ").unwrap();
    assert_eq!(
        sample(&text, "f2pm_serve_estimate_latency_us_count "),
        Some(estimates)
    );
    // Both shards expose queue-depth gauges and event counters.
    assert!(text.contains(r#"f2pm_serve_shard_queue_depth{shard="0"}"#));
    assert!(text.contains(r#"f2pm_serve_shard_queue_depth{shard="1"}"#));
    let ev0 = sample(&text, r#"f2pm_serve_shard_events_total{shard="0"}"#).unwrap_or(0.0);
    let ev1 = sample(&text, r#"f2pm_serve_shard_events_total{shard="1"}"#).unwrap_or(0.0);
    assert!(ev0 + ev1 >= 40.0, "shard events {ev0} + {ev1}");

    // Hot reload, then scrape again on the same connection: the
    // generation gauge must advance without a reconnect.
    assert_eq!(registry.install(linear(500.0, -1.0)).unwrap(), 2);
    let text = client.scrape();
    assert_eq!(
        sample(&text, "f2pm_serve_model_generation "),
        Some(2.0),
        "{text}"
    );
    assert_eq!(
        sample(&text, "f2pm_serve_metrics_requests_total "),
        Some(2.0)
    );

    client.send(&Message::Bye);
    let snap = server.shutdown();
    assert_eq!(snap.metrics_requests, 2);
    assert_eq!(snap.dropped, 0);
}

/// The artifact-store serving cycle end to end over real TCP: cold-start
/// from a published generation, publish a new generation mid-load on an
/// unreset connection, watch the scrape report the advance with zero
/// drops, then roll the store back and watch the model revert — the
/// *store* generation goes backwards while the *install* generation keeps
/// climbing.
#[test]
fn store_publish_and_rollback_swap_models_on_live_connections() {
    use f2pm_registry::{ArtifactMeta, ModelStore};
    use f2pm_serve::StoreWatcher;

    let dir = std::env::temp_dir().join(format!("f2pm_loopback_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ModelStore::open(&dir).unwrap();
    let meta = ArtifactMeta::new(
        "linear",
        agg(),
        vec!["swap_used".to_string(), "swap_used_slope".to_string()],
        50.0,
    );
    store.publish(&meta, &linear(1000.0, -2.0)).unwrap();

    // Cold start: the registry's whole input contract (columns, window)
    // comes from the artifact, not from flags or a training pass.
    let registry = ModelRegistry::from_store(&store).unwrap();
    assert_eq!(registry.agg().window_s, 30.0);
    let server = PredictionServer::start("127.0.0.1:0", ServeConfig::default(), registry).unwrap();
    let mut watcher =
        StoreWatcher::new(ModelStore::open(&dir).unwrap(), server.registry(), Some(1));
    let mut client = Client::connect(server.addr(), 17);

    let mut t = 0.0;
    for _ in 0..8 {
        client.send(&Message::Datapoint(dp(t, 100.0)));
        t += 5.0;
    }
    let (_, rttf, generation) = client.wait_estimate();
    assert_eq!((rttf, generation), (800.0, 1));

    // Publish generation 2 while the connection keeps streaming.
    store.publish(&meta, &linear(500.0, -1.0)).unwrap();
    assert_eq!(watcher.poll().unwrap(), Some((2, 2)));
    let mut saw_gen2 = false;
    for _ in 0..30 {
        client.send(&Message::Datapoint(dp(t, 100.0)));
        // Wait for the estimate of the newest window this stream has
        // closed (30 s windows from t = 0), not a stale board entry.
        let closed = (t / 30.0).floor() * 30.0;
        t += 5.0;
        let (_, rttf, generation) = client.wait_estimate_since(closed);
        if generation == 2 {
            assert_eq!(rttf, 400.0);
            saw_gen2 = true;
            break;
        }
        assert_eq!(rttf, 800.0, "pre-reload estimates from generation 1");
    }
    assert!(saw_gen2, "never observed a generation-2 estimate");
    let text = client.scrape();
    assert_eq!(sample(&text, "f2pm_serve_model_generation "), Some(2.0));
    assert_eq!(
        sample(&text, "f2pm_registry_active_generation "),
        Some(2.0),
        "{text}"
    );

    // Roll back: the store generation reverts to 1, the install
    // generation advances to 3, and the same connection sees the old
    // model again — never reset, nothing dropped.
    store.rollback(None).unwrap();
    assert_eq!(watcher.poll().unwrap(), Some((1, 3)));
    let mut saw_rollback = false;
    for _ in 0..30 {
        client.send(&Message::Datapoint(dp(t, 100.0)));
        // Wait for the estimate of the newest window this stream has
        // closed (30 s windows from t = 0), not a stale board entry.
        let closed = (t / 30.0).floor() * 30.0;
        t += 5.0;
        let (_, rttf, generation) = client.wait_estimate_since(closed);
        if generation == 3 {
            assert_eq!(rttf, 800.0);
            saw_rollback = true;
            break;
        }
    }
    assert!(saw_rollback, "never observed the rolled-back model");
    let text = client.scrape();
    assert_eq!(sample(&text, "f2pm_serve_model_generation "), Some(3.0));
    assert_eq!(sample(&text, "f2pm_registry_active_generation "), Some(1.0));
    // Artifact loads were timed on the same exposition.
    let loads = sample(&text, "f2pm_registry_artifact_load_us_count ").unwrap_or(0.0);
    assert!(loads >= 3.0, "cold start + 2 reloads timed, saw {loads}");

    client.send(&Message::Bye);
    let snap = server.shutdown();
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.total_accepted, 1, "one connection, never reset");
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end equivalence gate for the batched data plane: a server
/// draining 256-event batches must push the **bit-identical** alert
/// stream (every estimate, in order — `threshold = ∞, hits = 1` turns
/// each estimate into an alert) as a server processing per-event
/// (`batch_cap = 1`). Three hosts on three connections interleave across
/// two shards, and a mid-stream `Fail` resets one host's life, so the
/// flush-before-side-effect ordering is exercised too.
#[test]
fn batched_server_publishes_identical_estimate_stream() {
    const HOSTS: [(u32, f64); 3] = [(1, 80.0), (2, 160.0), (3, 240.0)];

    fn run(batch_cap: usize) -> Vec<Vec<(u64, u64)>> {
        let registry = ModelRegistry::new(
            linear(1000.0, -2.0),
            vec!["swap_used".to_string(), "swap_used_slope".to_string()],
            agg(),
        )
        .unwrap();
        let server = PredictionServer::start(
            "127.0.0.1:0",
            ServeConfig {
                shards: 2,
                queue_cap: 256,
                batch_cap,
                policy: AlertPolicy {
                    rttf_threshold_s: f64::INFINITY,
                    consecutive_hits: 1,
                },
                ..ServeConfig::default()
            },
            registry,
        )
        .unwrap();
        let mut clients: Vec<Client> = HOSTS
            .iter()
            .map(|&(host, _)| Client::connect(server.addr(), host))
            .collect();
        for i in 0..240 {
            let t = i as f64 * 5.0;
            for (client, &(host, base)) in clients.iter_mut().zip(&HOSTS) {
                let swap = base + (i as f64 * 0.7).sin() * 50.0;
                client.send(&Message::Datapoint(dp(t, swap)));
                if i == 120 && host == 2 {
                    client.send(&Message::Fail { t });
                }
            }
        }
        // Bye is processed after every datapoint (same in-order
        // connection), so all of a host's alerts precede its EOF.
        let mut streams = Vec::new();
        for client in &mut clients {
            client.send(&Message::Bye);
            let mut out = Vec::new();
            loop {
                match Message::read_from(&mut client.stream) {
                    Ok(Some(Message::Alert {
                        host_id, t, rttf, ..
                    })) => {
                        assert_eq!(host_id, client.host, "alert pushed to the wrong host");
                        out.push((t.to_bits(), rttf.to_bits()));
                    }
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => break,
                }
            }
            streams.push(out);
        }
        let snap = server.shutdown();
        assert_eq!(snap.dropped, 0);
        streams
    }

    let per_event = run(1);
    let batched = run(256);
    for ((host, _), (a, b)) in HOSTS.iter().zip(per_event.iter().zip(&batched)) {
        assert!(a.len() >= 8, "host {host}: only {} alerts", a.len());
        assert_eq!(a, b, "host {host} estimate stream diverged");
    }
}

#[test]
fn oversized_frame_closes_connection_but_not_server() {
    let server = start_server(1);
    // A corrupt length prefix: connection dies, server survives.
    let mut bad = TcpStream::connect(server.addr()).unwrap();
    Message::Hello {
        version: PROTOCOL_VERSION,
        host_id: 8,
    }
    .write_to(&mut bad)
    .unwrap();
    bad.write_all(&u32::MAX.to_be_bytes()).unwrap();
    bad.write_all(&[9u8; 16]).unwrap();
    drop(bad);

    // The server still serves new clients afterwards.
    let mut client = Client::connect(server.addr(), 9);
    for i in 0..10 {
        client.send(&Message::Datapoint(dp(i as f64 * 5.0, 100.0)));
    }
    let (_, rttf, _) = client.wait_estimate();
    assert_eq!(rttf, 800.0);
    server.shutdown();
}

/// A pathologically slow sender: every wire byte arrives in its own TCP
/// segment (and, on the reactor edge, usually its own epoll wakeup), so
/// frames are reassembled from partial tails across many turns. The
/// replies must be exactly what a well-paced client gets.
#[test]
fn byte_at_a_time_client_is_reassembled_across_wakeups() {
    let server = start_server(1);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    fn feed(stream: &mut TcpStream, m: &Message) {
        for &b in m.encode().as_ref() {
            stream.write_all(&[b]).unwrap();
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    feed(
        &mut stream,
        &Message::Hello {
            version: PROTOCOL_VERSION,
            host_id: 3,
        },
    );
    for i in 0..8 {
        feed(&mut stream, &Message::Datapoint(dp(i as f64 * 5.0, 100.0)));
    }
    // Predict (also dribbled byte-wise) until the async publish lands.
    let mut rttf = None;
    'wait: for _ in 0..500 {
        feed(&mut stream, &Message::PredictRequest { host_id: 3 });
        loop {
            match Message::read_from(&mut stream).unwrap().unwrap() {
                Message::RttfEstimate { rttf: Some(r), .. } => {
                    rttf = Some(r);
                    break 'wait;
                }
                Message::RttfEstimate { rttf: None, .. } => break,
                Message::Alert { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(rttf, Some(800.0));
    feed(&mut stream, &Message::Bye);
    let snap = server.shutdown();
    assert_eq!(snap.datapoints, 8);
    assert_eq!(snap.dropped, 0);
}

/// A client that floods scrape requests and never reads must be
/// disconnected when its replies exceed the bounded outbound buffer —
/// the reactor trades the connection, never unbounded memory.
#[test]
fn stalled_reader_is_evicted_at_the_outbound_bound() {
    let registry = ModelRegistry::new(
        linear(1000.0, -2.0),
        vec!["swap_used".to_string(), "swap_used_slope".to_string()],
        agg(),
    )
    .unwrap();
    let server = PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 1,
            queue_cap: 256,
            batch_cap: 64,
            policy: AlertPolicy::default(),
            outbound_cap: 2048,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let mut client = Client::connect(server.addr(), 11);
    // Each exposition reply is several KiB; a burst of unread scrapes
    // blows through the 2 KiB outbound bound immediately.
    for _ in 0..64 {
        if Message::MetricsRequest
            .write_to(&mut client.stream)
            .is_err()
        {
            break; // already disconnected mid-burst: exactly the point
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().evicted_slow == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled reader was never evicted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The client side observes the disconnect (EOF or reset).
    client
        .stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 4096];
    loop {
        match client.stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let snap = server.shutdown();
    assert!(snap.evicted_slow >= 1, "eviction counter must record it");
    assert_eq!(snap.dropped, 0);
}

/// Shutdown with a thousand parked idle connections: the eventfd wakeup
/// must tear the whole fleet down promptly — no per-connection timeouts,
/// no leaked sockets, gauge back to zero.
#[test]
fn shutdown_with_a_thousand_idle_connections_is_prompt() {
    let server = start_server(2);
    let addr = server.addr();
    let conns: Vec<TcpStream> = (0..1000u32)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap();
            Message::Hello {
                version: PROTOCOL_VERSION,
                host_id: 100 + i,
            }
            .write_to(&mut s)
            .unwrap();
            s
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.metrics().connections < 1000 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never saw the full idle fleet ({} live)",
            server.metrics().connections
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let started = std::time::Instant::now();
    let snap = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown took {:?} with idle conns parked",
        started.elapsed()
    );
    assert_eq!(snap.total_accepted, 1000);
    assert_eq!(snap.connections, 0, "every idle conn torn down");
    assert_eq!(snap.dropped, 0);
    drop(conns);
}

/// `TopKRequest` over the wire: the reply comes off the seqlock estimate
/// board — ascending RTTF, truncated at k, stamped with the instance id.
#[test]
fn topk_over_the_wire_ranks_hosts_nearest_failure_first() {
    let registry = ModelRegistry::new(
        linear(1000.0, -2.0),
        vec!["swap_used".to_string(), "swap_used_slope".to_string()],
        agg(),
    )
    .unwrap();
    let server = PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 2,
            instance_id: 42,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();

    // rttf = 1000 − 2 × swap: host 3 (swap 450 → rttf 100) is nearest
    // failure, then host 1 (300 → 400), then host 2 (100 → 800).
    let hosts: Vec<(u32, f64)> = vec![(1, 300.0), (2, 100.0), (3, 450.0)];
    for &(host, swap) in &hosts {
        let mut client = Client::connect(server.addr(), host);
        let mut t = 0.0;
        for _ in 0..8 {
            client.send(&Message::Datapoint(dp(t, swap)));
            t += 5.0;
        }
        client.wait_estimate();
        client.send(&Message::Bye);
    }

    let mut client = Client::connect(server.addr(), 99);
    client.send(&Message::TopKRequest { k: 2 });
    loop {
        match client.recv() {
            Message::TopKReply {
                instance_id,
                entries,
            } => {
                assert_eq!(instance_id, 42);
                assert_eq!(entries.len(), 2, "k truncates the board");
                assert_eq!(entries[0].host_id, 3);
                assert_eq!(entries[0].rttf, 100.0);
                assert_eq!(entries[1].host_id, 1);
                assert_eq!(entries[1].rttf, 400.0);
                assert!(entries[0].model_generation >= 1);
                break;
            }
            Message::Alert { .. } | Message::RttfEstimate { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
}

/// The whole fleet plane in-process: three serve instances, hosts routed
/// by the consistent-hash ring, and the `Fleet` aggregator's rollup,
/// merged top-K, and merged exposition all cross-checked against the
/// per-instance ground truth (seqlock boards, per-instance scrapes).
#[test]
fn fleet_aggregator_over_three_instances() {
    use f2pm_serve::{Fleet, HashRing};

    let instance_ids = [1u32, 2, 3];
    let servers: Vec<ServeHandle> = instance_ids
        .iter()
        .map(|&id| {
            let registry = ModelRegistry::new(
                linear(1000.0, -2.0),
                vec!["swap_used".to_string(), "swap_used_slope".to_string()],
                agg(),
            )
            .unwrap();
            PredictionServer::start(
                "127.0.0.1:0",
                ServeConfig {
                    shards: 2,
                    instance_id: id,
                    ..ServeConfig::default()
                },
                registry,
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();

    // Route 24 hosts across the fleet by the ring; distinct swap levels
    // make every host's RTTF unique and exactly predictable.
    let ring = HashRing::new(&instance_ids);
    let hosts: Vec<(u32, f64)> = (0..24u32).map(|h| (h, 20.0 + h as f64 * 15.0)).collect();
    let mut per_instance_hosts = 0usize;
    for &(host, swap) in &hosts {
        let owner = ring.route(host).unwrap();
        let at = instance_ids.iter().position(|&i| i == owner).unwrap();
        per_instance_hosts += 1;
        let mut client = Client::connect(servers[at].addr(), host);
        let mut t = 0.0;
        for _ in 0..8 {
            client.send(&Message::Datapoint(dp(t, swap)));
            t += 5.0;
        }
        client.wait_estimate();
        client.send(&Message::Bye);
    }
    assert_eq!(per_instance_hosts, hosts.len());

    let mut fleet = Fleet::connect(&addrs).unwrap();
    assert_eq!(fleet.len(), 3);

    // Rollup: totals are exactly the sums of the per-instance snapshots,
    // and every host is tracked by exactly one instance.
    let stats = fleet.stats().unwrap();
    assert_eq!(stats.instances.len(), 3);
    assert_eq!(stats.hosts_tracked, hosts.len() as u64);
    assert_eq!(stats.datapoints, 8 * hosts.len() as u64);
    assert_eq!(stats.dropped, 0);
    let mut ids: Vec<u32> = stats.instances.iter().map(|s| s.instance_id).collect();
    ids.sort();
    assert_eq!(ids, instance_ids);
    for snap in &stats.instances {
        assert!(
            snap.hosts_tracked > 0,
            "ring left instance {} empty",
            snap.instance_id
        );
    }

    // Merged top-K: globally ascending RTTF, and identical to sorting the
    // union of the per-instance seqlock boards — the ground truth.
    let top = fleet.top_k(10).unwrap();
    assert_eq!(top.len(), 10);
    let mut expected: Vec<(u32, f64)> = Vec::new();
    for server in &servers {
        for (host, est) in server.board().top_k(usize::MAX) {
            expected.push((host, est.rttf));
        }
    }
    expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    expected.truncate(10);
    for (got, want) in top.iter().zip(&expected) {
        assert_eq!((got.host_id, got.rttf), *want);
    }
    for pair in top.windows(2) {
        assert!(pair[0].rttf <= pair[1].rttf, "ranking out of order");
    }
    // The host nearest failure fleet-wide is the one with the most swap.
    assert_eq!(top[0].host_id, 23);
    assert_eq!(top[0].rttf, 1000.0 - 2.0 * (20.0 + 23.0 * 15.0));

    // Merged exposition: the fleet counter equals the *sum* of the
    // per-instance counters, exactly.
    let mut expected_datapoints = 0.0;
    for server in &servers {
        let mut c = Client::connect(server.addr(), 90_000);
        expected_datapoints += sample(&c.scrape(), "f2pm_serve_datapoints_total ").unwrap();
        c.send(&Message::Bye);
    }
    let merged = fleet.merged_scrape().unwrap();
    assert_eq!(
        sample(&merged, "f2pm_serve_datapoints_total "),
        Some(expected_datapoints)
    );
    assert_eq!(expected_datapoints, 8.0 * hosts.len() as f64);
    // Instance identity survives the merge as attributable gauges.
    for id in instance_ids {
        assert!(
            merged.contains(&format!("instance=\"{id}\"")),
            "instance {id} missing from merged exposition:\n{merged}"
        );
    }

    for server in servers {
        let snap = server.shutdown();
        assert_eq!(snap.dropped, 0);
    }
}
