//! The online prediction server.
//!
//! Accepts FMC connections speaking the one wire version
//! (`PROTOCOL_VERSION`; any other `Hello` is closed) on the epoll reactor
//! edge — `ServeConfig::reactors` event-loop threads, each owning a slab
//! of nonblocking connections (see [`crate::reactor`]) — and routes
//! datapoints to the shard workers over bounded queues (see
//! [`crate::shard`]). Every connection additionally gets:
//!
//! - `PredictRequest` → `RttfEstimate` replies, answered directly from the
//!   last-estimate board (reads never block on a shard worker);
//! - pushed `Alert`s when the host's predicted RTTF stays below the
//!   rejuvenation threshold (see [`AlertPolicy`]);
//! - `MetricsRequest` → `MetricsText`: the full Prometheus-style text
//!   exposition of the serve registry (per-shard counters and queue
//!   depths, latency histogram, model generation, recorded datapoints)
//!   with the process-global registry — training-stage span timings, FMC
//!   transport counters, the retrain plane — appended;
//! - the fleet plane (see [`crate::fleet`]): `StatsRequest` →
//!   `FleetSnapshot` and `TopKRequest` → `TopKReply`, the instance's K
//!   hosts nearest failure answered from the seqlock estimate board.
//!
//! With [`ServeConfig::record`] set, the instance is also the paper's
//! collecting server (FMS): the shard workers append every host's rows to
//! `DIR/host-<id>.csv` as they arrive (see [`crate::shard`]).
//!
//! Model hot-reloads go through the shared [`ModelRegistry`]: calling
//! [`ModelRegistry::install`] (directly, or through a
//! [`crate::StoreWatcher`] following a model store's manifest) swaps the
//! model for every host's next prediction without dropping a single
//! connection.

use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::reactor::ReactorPool;
use crate::registry::ModelRegistry;
use crate::shard::{AlertPolicy, EstimateBoard, Recorder, RunSinks, ShardPool};
use f2pm_monitor::wire::Message;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Server tuning knobs, and where to record the ingested history.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard worker count (hosts are pinned `host % shards`).
    pub shards: usize,
    /// Bounded per-shard queue capacity (events).
    pub queue_cap: usize,
    /// Max events a shard worker drains per wakeup (`1` = per-event
    /// processing; the batched path is bit-identical, just fewer model
    /// calls and wakeups).
    pub batch_cap: usize,
    /// When to push rejuvenation alerts.
    pub policy: AlertPolicy,
    /// Epoll reactor threads serving the connection edge. Defaults to the
    /// machine's available parallelism.
    pub reactors: usize,
    /// Bound (bytes) on one connection's pending outbound buffer; a slow
    /// consumer exceeding it is disconnected
    /// (`f2pm_serve_conns_evicted_slow`) instead of growing memory.
    pub outbound_cap: usize,
    /// Stable identity of this instance within a fleet. Surfaced in the
    /// `FleetSnapshot`/`TopKReply` frames and in the exposition as
    /// `f2pm_serve_instance_info{instance="<id>"} 1`, so merged fleet
    /// scrapes stay attributable. `0` for a standalone instance.
    pub instance_id: u32,
    /// Directory to record the ingested data history in (`--record DIR`):
    /// each host's datapoints are appended to `DIR/host-<id>.csv` at the
    /// end of each shard batch, and an `F` row at each `Fail`. Created at
    /// start. `None` records nothing.
    pub record: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_cap: 1024,
            batch_cap: 64,
            policy: AlertPolicy::default(),
            reactors: default_reactors(),
            outbound_cap: 256 * 1024,
            instance_id: 0,
            record: None,
        }
    }
}

impl ServeConfig {
    /// Check every knob, naming the first bad field in an `InvalidInput`
    /// error. [`PredictionServer::start_with_tap`] calls this before it
    /// binds or spawns anything, so nothing behind it clamps or re-checks.
    ///
    /// Zero `shards`, `queue_cap`, `batch_cap`, `reactors`, `outbound_cap`
    /// or `policy.consecutive_hits` is rejected, as is a NaN or negative
    /// `policy.rttf_threshold_s` and a `record` path that is empty or
    /// names something other than a directory; `+∞` is a valid threshold
    /// (alert on every estimate).
    pub fn validate(&self) -> io::Result<()> {
        let zero = [
            ("shards", self.shards),
            ("queue_cap", self.queue_cap),
            ("batch_cap", self.batch_cap),
            ("reactors", self.reactors),
            ("outbound_cap", self.outbound_cap),
            ("policy.consecutive_hits", self.policy.consecutive_hits),
        ]
        .into_iter()
        .find(|&(_, v)| v == 0);
        let threshold = self.policy.rttf_threshold_s;
        let bad_record = self
            .record
            .as_ref()
            .filter(|dir| dir.as_os_str().is_empty() || (dir.exists() && !dir.is_dir()));
        let msg = if let Some((field, _)) = zero {
            format!("{field} must be at least 1")
        } else if threshold.is_nan() || threshold < 0.0 {
            format!("policy.rttf_threshold_s must be non-negative, got {threshold}")
        } else if let Some(dir) = bad_record {
            format!("record must name a directory, got {dir:?}")
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
    }
}

/// Default reactor count: one per available core.
pub fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shared server state, driven by the reactors.
pub(crate) struct Inner {
    pub(crate) stop: AtomicBool,
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) board: Arc<EstimateBoard>,
    pub(crate) pool: ShardPool,
    pub(crate) instance_id: u32,
}

/// The online prediction server (see the module docs).
pub struct PredictionServer;

impl PredictionServer {
    /// Bind `addr`, spawn the shard workers and the reactors, and return a
    /// handle controlling the server. A `cfg` that fails
    /// [`ServeConfig::validate`] is `InvalidInput`.
    pub fn start(
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
        registry: Arc<ModelRegistry>,
    ) -> io::Result<ServeHandle> {
        Self::start_with_tap(addr, cfg, registry, None)
    }

    /// [`PredictionServer::start`] with a continuous-retraining tap: the
    /// shard workers offer every closed run into it whole (lossy, never
    /// blocking the ingest path), feeding the background
    /// [`crate::retrain::RetrainWorker`] that publishes refreshed models
    /// back through the artifact store. A `cfg.record` directory that
    /// cannot be created is an error naming `record`.
    pub fn start_with_tap(
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
        registry: Arc<ModelRegistry>,
        tap: Option<crate::retrain::RetrainTap>,
    ) -> io::Result<ServeHandle> {
        cfg.validate()?;
        if let Some(dir) = &cfg.record {
            std::fs::create_dir_all(dir)
                .map_err(|e| io::Error::new(e.kind(), format!("record directory {dir:?}: {e}")))?;
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        let sinks = RunSinks {
            tap,
            recorder: cfg.record.map(|dir| Recorder::new(dir, &metrics)),
        };
        let pool = ShardPool::start(
            cfg.shards,
            cfg.queue_cap,
            cfg.batch_cap,
            Arc::clone(&registry),
            cfg.policy,
            Arc::clone(&metrics),
            sinks,
        );
        let board = pool.board();
        metrics.set_instance_info(cfg.instance_id);
        let inner = Arc::new(Inner {
            stop: AtomicBool::new(false),
            registry,
            board,
            pool,
            instance_id: cfg.instance_id,
        });
        let reactors = ReactorPool::start(
            listener,
            cfg.reactors,
            cfg.outbound_cap,
            Arc::clone(&inner),
            Arc::clone(&metrics),
        )?;
        Ok(ServeHandle {
            addr,
            inner,
            metrics,
            reactors,
        })
    }
}

/// Running-server handle; dropping it without
/// [`ServeHandle::shutdown`] leaves the server running detached.
pub struct ServeHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    metrics: Arc<ServeMetrics>,
    reactors: ReactorPool,
}

impl ServeHandle {
    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-reloadable model registry this server predicts with.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.inner.registry)
    }

    /// The live estimate board (what a `TopKRequest` is answered from).
    /// In-process fleet harnesses read it to cross-check wire-level
    /// rankings against ground truth.
    pub fn board(&self) -> Arc<EstimateBoard> {
        Arc::clone(&self.inner.board)
    }

    /// This instance's stable fleet identity.
    pub fn instance_id(&self) -> u32 {
        self.inner.instance_id
    }

    /// A point-in-time metrics snapshot (queue depths and model generation
    /// included).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            self.inner.pool.queue_depths(),
            self.inner.registry.generation(),
        )
    }

    /// Stop accepting, close every connection, drain the shard queues and
    /// join all threads. Returns the final metrics snapshot.
    pub fn shutdown(self) -> MetricsSnapshot {
        let ServeHandle {
            inner,
            metrics,
            reactors,
            ..
        } = self;
        inner.stop.store(true, Ordering::SeqCst);
        // Eventfd wake per reactor: each observes the stop flag, closes
        // its slab, and exits.
        reactors.shutdown(&metrics);
        let depths = inner.pool.queue_depths();
        let generation = inner.registry.generation();
        let snapshot = metrics.snapshot(depths, generation);
        match Arc::try_unwrap(inner) {
            Ok(inner) => inner.pool.shutdown(),
            Err(_) => unreachable!("all reactor threads joined"),
        }
        snapshot
    }
}

/// Answer one read-type request (lock-free board lookup, stats snapshot,
/// metrics exposition, top-K ranking); replies queue on `pending` for one
/// coalesced write. Shard-bound events and everything else are left to
/// the caller.
pub(crate) fn handle_read(
    msg: &Message,
    inner: &Arc<Inner>,
    metrics: &Arc<ServeMetrics>,
    pending: &mut Vec<Message>,
) {
    match *msg {
        Message::PredictRequest { host_id } => {
            metrics.predict_request();
            let reply = match inner.board.get(host_id) {
                Some(est) => Message::RttfEstimate {
                    host_id,
                    t: est.t,
                    rttf: Some(est.rttf),
                    model_generation: est.generation,
                },
                None => Message::RttfEstimate {
                    host_id,
                    t: 0.0,
                    rttf: None,
                    model_generation: inner.registry.generation(),
                },
            };
            pending.push(reply);
        }
        Message::StatsRequest => {
            metrics.stats_request();
            let snapshot = metrics.snapshot(inner.pool.queue_depths(), inner.registry.generation());
            pending.push(snapshot.to_fleet_snapshot(inner.instance_id, inner.board.len() as u32));
        }
        Message::MetricsRequest => {
            metrics.metrics_request();
            let text = metrics.expose_text(&inner.pool.queue_depths(), inner.registry.generation());
            pending.push(Message::metrics_text(text));
        }
        // Fleet ranking: the K hosts nearest failure, answered straight
        // off the seqlock estimate board — no connection scan, no worker
        // stall.
        Message::TopKRequest { k } => {
            metrics.stats_request();
            let entries = inner
                .board
                .top_k((k as usize).min(f2pm_monitor::wire::MAX_TOPK))
                .into_iter()
                .map(|(host_id, est)| f2pm_monitor::wire::TopKEntry {
                    host_id,
                    t: est.t,
                    rttf: est.rttf,
                    model_generation: est.generation,
                })
                .collect();
            pending.push(Message::TopKReply {
                instance_id: inner.instance_id,
                entries,
            });
        }
        // Shard-bound events (the caller's) and server-bound-only traffic
        // a client has no business echoing (ignored).
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use f2pm_features::AggregationConfig;
    use f2pm_ml::linreg::LinearModel;
    use f2pm_ml::SavedModel;

    fn test_registry() -> Arc<crate::ModelRegistry> {
        registry::ModelRegistry::new(
            SavedModel::Linear(LinearModel {
                intercept: 1000.0,
                coefficients: vec![-2.0, 0.0],
            }),
            vec!["swap_used".to_string(), "swap_used_slope".to_string()],
            AggregationConfig {
                window_s: 30.0,
                min_points: 2,
                ..AggregationConfig::default()
            },
        )
        .unwrap()
    }

    /// Every zero, NaN or negative knob is a typed `InvalidInput` naming
    /// its field, from `validate` and from `start` alike — never a panic,
    /// a silent clamp, or a dead server (zero reactors would accept
    /// nothing). `+∞` alerts on every estimate and is valid.
    #[test]
    fn validate_rejects_each_bad_knob_by_name() {
        let ok = ServeConfig::default();
        let not_a_dir =
            std::env::temp_dir().join(format!("f2pm_record_file_{}", std::process::id()));
        std::fs::write(&not_a_dir, "").unwrap();
        let cases: [(&str, ServeConfig); 10] = [
            (
                "shards",
                ServeConfig {
                    shards: 0,
                    ..ok.clone()
                },
            ),
            (
                "queue_cap",
                ServeConfig {
                    queue_cap: 0,
                    ..ok.clone()
                },
            ),
            (
                "batch_cap",
                ServeConfig {
                    batch_cap: 0,
                    ..ok.clone()
                },
            ),
            (
                "reactors",
                ServeConfig {
                    reactors: 0,
                    ..ok.clone()
                },
            ),
            (
                "outbound_cap",
                ServeConfig {
                    outbound_cap: 0,
                    ..ok.clone()
                },
            ),
            (
                "policy.consecutive_hits",
                ServeConfig {
                    policy: AlertPolicy {
                        consecutive_hits: 0,
                        ..ok.policy
                    },
                    ..ok.clone()
                },
            ),
            (
                "policy.rttf_threshold_s",
                ServeConfig {
                    policy: AlertPolicy {
                        rttf_threshold_s: f64::NAN,
                        ..ok.policy
                    },
                    ..ok.clone()
                },
            ),
            (
                "policy.rttf_threshold_s",
                ServeConfig {
                    policy: AlertPolicy {
                        rttf_threshold_s: -1.0,
                        ..ok.policy
                    },
                    ..ok.clone()
                },
            ),
            (
                "record",
                ServeConfig {
                    record: Some(PathBuf::new()),
                    ..ok.clone()
                },
            ),
            (
                "record",
                ServeConfig {
                    record: Some(not_a_dir.clone()),
                    ..ok.clone()
                },
            ),
        ];
        for (field, cfg) in cases {
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{field}");
            assert!(err.to_string().contains(field), "{field}: {err}");
            let err = match PredictionServer::start("127.0.0.1:0", cfg.clone(), test_registry()) {
                Err(e) => e,
                Ok(_) => panic!("a server with a bad {field} must not start"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{field}");
        }

        // A directory that cannot be created passes `validate` but not
        // `start`, which names it.
        let under_a_file = ServeConfig {
            record: Some(not_a_dir.join("history")),
            ..ok.clone()
        };
        under_a_file.validate().unwrap();
        let err = match PredictionServer::start("127.0.0.1:0", under_a_file, test_registry()) {
            Err(e) => e,
            Ok(_) => panic!("a server that cannot record must not start"),
        };
        assert!(err.to_string().contains("record"), "{err}");
        std::fs::remove_file(&not_a_dir).ok();
        ok.validate().unwrap();
        let every_estimate = ServeConfig {
            policy: AlertPolicy {
                rttf_threshold_s: f64::INFINITY,
                ..ok.policy
            },
            ..ok
        };
        every_estimate.validate().unwrap();
    }
}
