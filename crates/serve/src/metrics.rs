//! Serving metrics on the shared `f2pm-obs` registry.
//!
//! One [`ServeMetrics`] is shared by every reactor and every shard
//! worker. The counters/gauges/histogram are handles into an
//! [`f2pm_obs::MetricsRegistry`] owned by the server instance (per-instance,
//! so tests can run several servers without cross-talk); all updates are
//! relaxed atomics, so the hot ingest path never takes a lock for
//! accounting. [`ServeMetrics::snapshot`] materializes a consistent-enough
//! [`MetricsSnapshot`] for the `FleetSnapshot` wire reply, and
//! [`ServeMetrics::expose_text`] renders the Prometheus-style exposition
//! (instance registry + the process-global registry, which carries the span
//! timings of any in-process training, FMC transport counters and the
//! retrain plane).

use f2pm_monitor::wire::Message;
use f2pm_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::time::Duration;

/// Power-of-two µs latency buckets (re-exported bucket count of the shared
/// [`f2pm_obs::Histogram`]; bucket `i` holds latencies in `[2^(i-1), 2^i)`
/// µs, bucket 0 = sub-µs, the last bucket is open-ended).
pub const LATENCY_BUCKETS: usize = f2pm_obs::HISTOGRAM_BUCKETS;

/// Shared serving counters, backed by a per-instance metrics registry.
pub struct ServeMetrics {
    registry: MetricsRegistry,
    connections: Gauge,
    total_accepted: Counter,
    conns_accepted: Counter,
    conns_closed: Counter,
    evicted_slow: Counter,
    datapoints: Counter,
    estimates: Counter,
    alerts: Counter,
    dropped: Counter,
    predict_requests: Counter,
    stats_requests: Counter,
    metrics_requests: Counter,
    latency: Histogram,
    decode: Histogram,
    reply: Histogram,
    reactor_turn: Histogram,
    model_generation: Gauge,
    latency_p50: Gauge,
    latency_p99: Gauge,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        ServeMetrics {
            connections: registry.gauge("f2pm_serve_connections"),
            total_accepted: registry.counter("f2pm_serve_connections_total"),
            conns_accepted: registry.counter("f2pm_serve_conns_accepted"),
            conns_closed: registry.counter("f2pm_serve_conns_closed"),
            evicted_slow: registry.counter("f2pm_serve_conns_evicted_slow"),
            datapoints: registry.counter("f2pm_serve_datapoints_total"),
            estimates: registry.counter("f2pm_serve_estimates_total"),
            alerts: registry.counter("f2pm_serve_alerts_total"),
            dropped: registry.counter("f2pm_serve_dropped_frames_total"),
            predict_requests: registry.counter("f2pm_serve_predict_requests_total"),
            stats_requests: registry.counter("f2pm_serve_stats_requests_total"),
            metrics_requests: registry.counter("f2pm_serve_metrics_requests_total"),
            latency: registry.histogram("f2pm_serve_estimate_latency_us"),
            decode: registry.histogram("f2pm_serve_decode_us"),
            reply: registry.histogram("f2pm_serve_reply_us"),
            reactor_turn: registry.histogram("f2pm_serve_reactor_turn_us"),
            model_generation: registry.gauge("f2pm_serve_model_generation"),
            latency_p50: registry.gauge("f2pm_serve_estimate_latency_p50_us"),
            latency_p99: registry.gauge("f2pm_serve_estimate_latency_p99_us"),
            registry,
        }
    }
}

impl ServeMetrics {
    /// Fresh all-zero metrics on a private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A connection was accepted.
    pub fn connection_opened(&self) {
        self.connections.add(1.0);
        self.total_accepted.inc();
        self.conns_accepted.inc();
    }

    /// A connection ended (any reason).
    pub fn connection_closed(&self) {
        self.connections.add(-1.0);
        self.conns_closed.inc();
    }

    /// A slow consumer exceeded its bounded outbound buffer and was
    /// disconnected by the reactor instead of growing memory unbounded.
    pub fn connection_evicted_slow(&self) {
        self.evicted_slow.inc();
    }

    /// One reactor event-loop turn completed (wakeup → all ready
    /// connections serviced), taking `took` of reactor-thread time.
    pub fn record_reactor_turn(&self, took: Duration) {
        self.reactor_turn.record_duration(took);
    }

    /// One datapoint ingested off the wire.
    pub fn datapoint(&self) {
        self.datapoints.inc();
    }

    /// One RTTF estimate produced, taking `took` of shard-worker time
    /// (aggregation + model evaluation).
    pub fn estimate(&self, took: Duration) {
        self.estimates.inc();
        self.latency.record_duration(took);
    }

    /// One rejuvenation alert fired.
    pub fn alert(&self) {
        self.alerts.inc();
    }

    /// One frame dropped (never happens under blocking backpressure; the
    /// counter exists so the invariant is observable).
    pub fn drop_frame(&self) {
        self.dropped.inc();
    }

    /// One `PredictRequest` served.
    pub fn predict_request(&self) {
        self.predict_requests.inc();
    }

    /// One `StatsRequest` served.
    pub fn stats_request(&self) {
        self.stats_requests.inc();
    }

    /// One `MetricsRequest` scrape served.
    pub fn metrics_request(&self) {
        self.metrics_requests.inc();
    }

    /// One wire frame decoded off a connection's read buffer, taking
    /// `took` of reactor time (the "decode" stage of the latency
    /// breakdown).
    pub fn record_decode(&self, took: Duration) {
        self.decode.record_duration(took);
    }

    /// One coalesced reply flush written (`n` frames in one `write_all`),
    /// taking `took` (the "reply" stage of the latency breakdown).
    pub fn record_reply(&self, took: Duration) {
        self.reply.record_duration(took);
    }

    /// Per-shard processed-event counter handle
    /// (`f2pm_serve_shard_events_total{shard="<i>"}`). Workers grab their
    /// handle once at spawn, then increment lock-free.
    pub fn shard_events(&self, shard: usize) -> Counter {
        self.registry
            .counter_with("f2pm_serve_shard_events_total", "shard", &shard.to_string())
    }

    /// Per-shard enqueue→drain wait histogram handle
    /// (`f2pm_serve_shard_queue_wait_us{shard="<i>"}`, the "queue" stage
    /// of the latency breakdown). Workers grab their handle once at
    /// spawn, then record lock-free.
    pub fn shard_queue_wait(&self, shard: usize) -> Histogram {
        self.registry.histogram_with(
            "f2pm_serve_shard_queue_wait_us",
            "shard",
            &shard.to_string(),
        )
    }

    /// Queue-wait buckets aggregated over `n_shards` labeled histograms
    /// (element-wise sum; empty when no shard has recorded yet).
    fn queue_wait_buckets(&self, n_shards: usize) -> Vec<u64> {
        let mut out = vec![0u64; LATENCY_BUCKETS];
        let mut any = false;
        for shard in 0..n_shards {
            if let Some(snap) = self.registry.histogram_snapshot_with(
                "f2pm_serve_shard_queue_wait_us",
                "shard",
                &shard.to_string(),
            ) {
                any = true;
                for (acc, b) in out.iter_mut().zip(snap.buckets) {
                    *acc += b;
                }
            }
        }
        if any {
            out
        } else {
            Vec::new()
        }
    }

    /// The instance registry backing these metrics.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Stamp the instance identity into the exposition as
    /// `f2pm_serve_instance_info{instance="<id>"} 1`, the Prometheus info
    /// idiom — merged fleet scrapes stay attributable to the instance that
    /// produced each sample. Called once at server start.
    pub fn set_instance_info(&self, instance_id: u32) {
        self.registry
            .gauge_with(
                "f2pm_serve_instance_info",
                "instance",
                &instance_id.to_string(),
            )
            .set_u64(1);
    }

    /// Materialize a snapshot. Queue depths and model generation live
    /// outside the metrics (shard pool / registry), so the caller passes
    /// them in.
    pub fn snapshot(&self, shard_depths: Vec<u32>, model_generation: u64) -> MetricsSnapshot {
        let latency = self.latency.snapshot();
        let queue_wait_buckets = self.queue_wait_buckets(shard_depths.len());
        MetricsSnapshot {
            connections: self.connections.get().max(0.0) as u64,
            total_accepted: self.total_accepted.get(),
            conns_closed: self.conns_closed.get(),
            evicted_slow: self.evicted_slow.get(),
            datapoints: self.datapoints.get(),
            estimates: self.estimates.get(),
            alerts: self.alerts.get(),
            dropped: self.dropped.get(),
            predict_requests: self.predict_requests.get(),
            stats_requests: self.stats_requests.get(),
            metrics_requests: self.metrics_requests.get(),
            latency_buckets: latency.buckets,
            decode_buckets: self.decode.snapshot().buckets,
            reply_buckets: self.reply.snapshot().buckets,
            queue_wait_buckets,
            shard_depths,
            model_generation,
        }
    }

    /// Render the text exposition: refresh the scrape-time gauges
    /// (shard queue depths, model generation, p50/p99 latency), render the
    /// instance registry, then append the process-global registry so the
    /// scrape also carries pipeline span timings, FMC transport counters
    /// and the retrain plane.
    pub fn expose_text(&self, shard_depths: &[u32], model_generation: u64) -> String {
        self.model_generation.set_u64(model_generation);
        for (i, &d) in shard_depths.iter().enumerate() {
            self.registry
                .gauge_with("f2pm_serve_shard_queue_depth", "shard", &i.to_string())
                .set_u64(d as u64);
        }
        let snap = self.latency.snapshot();
        self.latency_p50.set_u64(snap.quantile_us(0.5).unwrap_or(0));
        self.latency_p99
            .set_u64(snap.quantile_us(0.99).unwrap_or(0));
        // Per-stage quantile gauges so a wire scrape carries the full
        // decode → queue wait → predict → reply breakdown without the
        // scraper having to parse histogram buckets.
        let qw_buckets = self.queue_wait_buckets(shard_depths.len());
        let queue_wait = f2pm_obs::HistogramSnapshot {
            count: qw_buckets.iter().sum(),
            buckets: qw_buckets,
            sum_us: 0,
        };
        for (name, snap) in [
            ("f2pm_serve_decode", self.decode.snapshot()),
            ("f2pm_serve_queue_wait", queue_wait),
            ("f2pm_serve_reply", self.reply.snapshot()),
        ] {
            for (q, suffix) in [(0.5, "p50"), (0.99, "p99")] {
                self.registry
                    .gauge(&format!("{name}_{suffix}_us"))
                    .set_u64(snap.quantile_us(q).unwrap_or(0));
            }
        }
        let mut text = self.registry.render_text();
        text.push_str(&f2pm_obs::global().render_text());
        text
    }
}

/// Point-in-time view of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Live client connections.
    pub connections: u64,
    /// Connections accepted since start.
    pub total_accepted: u64,
    /// Connections closed since start (any reason, evictions included).
    pub conns_closed: u64,
    /// Slow consumers evicted for exceeding the bounded outbound buffer.
    pub evicted_slow: u64,
    /// Datapoints ingested since start.
    pub datapoints: u64,
    /// RTTF estimates produced since start.
    pub estimates: u64,
    /// Rejuvenation alerts fired since start.
    pub alerts: u64,
    /// Frames dropped since start (0 under blocking backpressure).
    pub dropped: u64,
    /// `PredictRequest`s served since start.
    pub predict_requests: u64,
    /// `StatsRequest`s served since start.
    pub stats_requests: u64,
    /// `MetricsRequest` scrapes served since start.
    pub metrics_requests: u64,
    /// Prediction-latency histogram; bucket `i` counts estimates that took
    /// `[2^(i-1), 2^i)` µs of shard-worker time.
    pub latency_buckets: Vec<u64>,
    /// Frame-decode latency histogram (the reactor's "decode" stage).
    pub decode_buckets: Vec<u64>,
    /// Coalesced reply-write latency histogram ("reply" stage).
    pub reply_buckets: Vec<u64>,
    /// Enqueue→drain wait histogram, aggregated over every shard
    /// ("queue" stage). Empty when no shard recorded yet.
    pub queue_wait_buckets: Vec<u64>,
    /// Queue depth per shard at snapshot time.
    pub shard_depths: Vec<u32>,
    /// Current model generation.
    pub model_generation: u64,
}

impl MetricsSnapshot {
    /// Upper-bound latency (µs) of quantile `q` in `[0, 1]`, from the
    /// power-of-two histogram. `None` when no estimate has been recorded.
    pub fn latency_quantile_us(&self, q: f64) -> Option<u64> {
        Self::bucket_quantile_us(&self.latency_buckets, q)
    }

    /// Quantile over the aggregated queue-wait histogram (µs).
    pub fn queue_wait_quantile_us(&self, q: f64) -> Option<u64> {
        Self::bucket_quantile_us(&self.queue_wait_buckets, q)
    }

    /// Quantile over the frame-decode histogram (µs).
    pub fn decode_quantile_us(&self, q: f64) -> Option<u64> {
        Self::bucket_quantile_us(&self.decode_buckets, q)
    }

    /// Quantile over the reply-write histogram (µs).
    pub fn reply_quantile_us(&self, q: f64) -> Option<u64> {
        Self::bucket_quantile_us(&self.reply_buckets, q)
    }

    fn bucket_quantile_us(buckets: &[u64], q: f64) -> Option<u64> {
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let snap = f2pm_obs::HistogramSnapshot {
            buckets: buckets.to_vec(),
            count: total,
            sum_us: 0,
        };
        snap.quantile_us(q.clamp(0.0, 1.0))
    }

    /// Render as the wire `FleetSnapshot` reply to a `StatsRequest`.
    /// `hosts_tracked` comes from the estimate board, which lives outside
    /// the metrics.
    pub fn to_fleet_snapshot(&self, instance_id: u32, hosts_tracked: u32) -> Message {
        Message::FleetSnapshot {
            instance_id,
            connections: self.connections,
            datapoints: self.datapoints,
            estimates: self.estimates,
            alerts: self.alerts,
            dropped: self.dropped,
            model_generation: self.model_generation,
            hosts_tracked,
            shard_depths: self.shard_depths.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_into_snapshot() {
        let m = ServeMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        for _ in 0..5 {
            m.datapoint();
        }
        m.estimate(Duration::from_micros(3));
        m.alert();
        m.predict_request();
        m.stats_request();
        let s = m.snapshot(vec![1, 0], 4);
        assert_eq!(s.connections, 1);
        assert_eq!(s.total_accepted, 2);
        assert_eq!(s.datapoints, 5);
        assert_eq!(s.estimates, 1);
        assert_eq!(s.alerts, 1);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.predict_requests, 1);
        assert_eq!(s.stats_requests, 1);
        assert_eq!(s.shard_depths, vec![1, 0]);
        assert_eq!(s.model_generation, 4);
    }

    #[test]
    fn latency_histogram_buckets_by_power_of_two() {
        let m = ServeMetrics::new();
        m.estimate(Duration::from_micros(0)); // bucket 0
        m.estimate(Duration::from_micros(1)); // bucket 1: [1, 2)
        m.estimate(Duration::from_micros(3)); // bucket 2: [2, 4)
        m.estimate(Duration::from_micros(100)); // bucket 7: [64, 128)
        m.estimate(Duration::from_secs(3600)); // clamped to the last bucket
        let s = m.snapshot(vec![], 1);
        assert_eq!(s.latency_buckets[0], 1);
        assert_eq!(s.latency_buckets[1], 1);
        assert_eq!(s.latency_buckets[2], 1);
        assert_eq!(s.latency_buckets[7], 1);
        assert_eq!(*s.latency_buckets.last().unwrap(), 1);
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn quantiles_read_bucket_upper_bounds() {
        let m = ServeMetrics::new();
        assert_eq!(m.snapshot(vec![], 1).latency_quantile_us(0.5), None);
        for _ in 0..98 {
            m.estimate(Duration::from_micros(3)); // bucket 2 → bound 4
        }
        m.estimate(Duration::from_micros(40)); // bucket 6 → bound 64
        m.estimate(Duration::from_micros(1000)); // bucket 10 → bound 1024
        let s = m.snapshot(vec![], 1);
        assert_eq!(s.latency_quantile_us(0.5), Some(4));
        assert_eq!(s.latency_quantile_us(0.99), Some(64));
        assert_eq!(s.latency_quantile_us(1.0), Some(1024));
    }

    #[test]
    fn fleet_snapshot_mirrors_snapshot() {
        let m = ServeMetrics::new();
        m.datapoint();
        let s = m.snapshot(vec![3], 2);
        match s.to_fleet_snapshot(7, 5) {
            Message::FleetSnapshot {
                instance_id,
                datapoints,
                model_generation,
                hosts_tracked,
                shard_depths,
                ..
            } => {
                assert_eq!(instance_id, 7);
                assert_eq!(datapoints, 1);
                assert_eq!(model_generation, 2);
                assert_eq!(hosts_tracked, 5);
                assert_eq!(shard_depths, vec![3]);
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn exposition_carries_counters_quantiles_and_generation() {
        let m = ServeMetrics::new();
        m.connection_opened();
        for _ in 0..10 {
            m.datapoint();
            m.estimate(Duration::from_micros(100));
        }
        m.metrics_request();
        m.shard_events(0).add(7);
        let text = m.expose_text(&[2, 0], 5);
        assert!(text.contains("f2pm_serve_datapoints_total 10\n"));
        assert!(text.contains("f2pm_serve_metrics_requests_total 1\n"));
        assert!(text.contains("f2pm_serve_model_generation 5\n"));
        assert!(text.contains("f2pm_serve_shard_queue_depth{shard=\"0\"} 2\n"));
        assert!(text.contains("f2pm_serve_shard_queue_depth{shard=\"1\"} 0\n"));
        assert!(text.contains("f2pm_serve_shard_events_total{shard=\"0\"} 7\n"));
        assert!(text.contains("f2pm_serve_estimate_latency_p50_us 128\n"));
        assert!(text.contains("f2pm_serve_estimate_latency_p99_us 128\n"));
        assert!(text.contains("f2pm_serve_estimate_latency_us_count 10\n"));
        // Distinct instances do not share registries.
        let other = ServeMetrics::new();
        assert!(other
            .expose_text(&[], 1)
            .contains("f2pm_serve_datapoints_total 0\n"));
    }

    #[test]
    fn exposition_appends_the_global_registry() {
        let m = ServeMetrics::new();
        // Record a span into the process-global registry, as the training
        // pipeline does.
        f2pm_obs::span!("serve_metrics_test_stage").stop();
        let text = m.expose_text(&[], 1);
        assert!(text.contains("f2pm_stage_duration_us_bucket{stage=\"serve_metrics_test_stage\""));
    }
}
