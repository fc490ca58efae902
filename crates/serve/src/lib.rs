//! # f2pm-serve
//!
//! The online serving side of the F2PM reproduction: a multi-tenant RTTF
//! prediction service, and the one server the FMC clients of
//! `f2pm-monitor` connect to. Many monitored hosts stream datapoints in,
//! and the server keeps a live Remaining-Time-To-Failure estimate per
//! host, pushes rejuvenation alerts when an estimate stays under the
//! safety threshold, and exposes a metrics snapshot plus a full
//! Prometheus-style text exposition (`MetricsRequest` → `MetricsText`,
//! scraped by `f2pm stats`) over the same wire protocol. With
//! [`ServeConfig::record`] set (`f2pm serve --record DIR`) it is also the
//! paper's collecting server: every host's rows are appended as they
//! arrive to a history CSV the training pipeline reads. Clients must
//! speak the one wire version, `f2pm_monitor::wire::PROTOCOL_VERSION`.
//!
//! Linux only: the connection edge is built on epoll and eventfd.
//!
//! Architecture (see `DESIGN.md` §8):
//!
//! - **[`server`]** — the connection edge: an epoll [`reactor`] pool (N
//!   event-loop threads, each owning a slab of nonblocking connections —
//!   10k+ concurrent FMC clients per instance).
//! - **[`shard`]** — hosts are pinned to shard workers over bounded
//!   crossbeam channels (blocking send = backpressure, zero drops); each
//!   worker owns its hosts' `OnlinePredictor` state lock-free, and is the
//!   one place a host's runs are assembled for the recorder and the
//!   retrain tap.
//! - **[`registry`]** — hot-reloadable model storage: an atomic `Arc`
//!   swap re-points every host's next prediction at the new model without
//!   dropping connections or window state.
//! - **[`retrain`]** — the continuous-retraining plane: a lossy tap
//!   offers each run the shards close, whole, to a background worker that
//!   slides it through a warm `f2pm::RetrainEngine` and publishes every
//!   refreshed LS-SVM back through the artifact store for the manifest
//!   watcher to hot-reload.
//! - **[`fleet`]** — the fleet plane: a consistent-hash
//!   [`HashRing`] routes hosts across N serve instances, and the
//!   [`Fleet`] aggregator fans `TopKRequest`/`StatsRequest`/metrics
//!   scrapes out to every instance, merging them into a cluster-wide
//!   at-risk ranking, a [`FleetStats`] rollup, and one summed exposition.
//! - **[`metrics`]** — serving counters, gauges, and the power-of-two
//!   prediction-latency histogram, all registered on a per-server
//!   `f2pm_obs::MetricsRegistry`; `expose_text` renders it with the
//!   process-global registry (training-stage spans, FMC transport
//!   counters, the retrain plane) appended.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("f2pm-serve needs Linux: its connection edge is built on epoll and eventfd");

pub mod fleet;
pub mod metrics;
pub mod poller;
pub mod reactor;
pub mod registry;
pub mod retrain;
pub mod server;
pub mod shard;

pub use fleet::{
    Fleet, FleetStats, FleetTopKEntry, HashRing, InstanceClient, InstanceSnapshot,
    VNODES_PER_INSTANCE,
};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use registry::{ModelEntry, ModelRegistry, StoreWatcher};
pub use retrain::{RetrainTap, RetrainWorker, RetrainerConfig};
pub use server::{default_reactors, PredictionServer, ServeConfig, ServeHandle};
pub use shard::{
    AlertPolicy, ClientWriter, EstimateBoard, PublishedEstimate, ShardEvent, ShardPool,
};
