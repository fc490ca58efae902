//! The validated fleet-facing serve configuration.
//!
//! `f2pm serve` grew one flag at a time — `--model`, `--history`,
//! `--models-dir`, `--window`, `--shards`, `--reactors`,
//! `--threshold`, `--hits`, ... — with the mutual-exclusion rules encoded
//! as ad-hoc `if` chains inside the CLI. Fleet tooling (the multi-instance
//! loadgen, `f2pm fleet` spawn helpers) needs the *same* configuration
//! surface without re-implementing those rules, so they live here instead:
//! [`ServeOptions`] is the one validated description of a serve instance,
//! [`ModelSource`] makes the three-way model choice a type instead of
//! three optional flags, and every invalid combination is a single typed
//! [`F2pmError::InvalidConfig`].
//!
//! The CLI parses flags into [`ServeOptionsBuilder`]; `f2pm-serve` maps
//! the validated result onto its `ServeConfig` (`ServeConfig::from_options`)
//! and resolves the [`ModelSource`] into a model registry. Nothing here
//! touches the network — the struct is plain data, so the loadgen can
//! build one per simulated instance.

use crate::error::F2pmError;
use std::path::PathBuf;

/// Where a serve instance gets its model — the three boot modes that used
/// to be the `--models-dir` / `--model` / `--history` flag triangle.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSource {
    /// Cold-start from a versioned artifact store directory (`f2pm models`)
    /// and hot-reload whenever the manifest advances. The artifact records
    /// its own aggregation config, so an explicit window is rejected.
    Artifact(PathBuf),
    /// Load one checksum-verified artifact file (what `f2pm train --out`
    /// writes) and serve it as is: no hot reload. Like
    /// [`ModelSource::Artifact`], the file records its own aggregation
    /// config, so an explicit window is rejected.
    File(PathBuf),
    /// Boot-train in-process from a history CSV with the named §III-D
    /// method, so the exposition carries the training-stage timings.
    BootTrain {
        /// History CSV to aggregate and train on.
        history: PathBuf,
        /// Training method name (`linear`, `rep_tree`, `m5p`, `svm`,
        /// `ls_svm`).
        method: String,
    },
}

/// A validated serve-instance description (see the module docs). Build
/// through [`ServeOptions::builder`]; a successfully built value is
/// internally consistent by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Where the model comes from.
    pub source: ModelSource,
    /// Shard worker count (hosts are pinned `host % shards`).
    pub shards: usize,
    /// Epoll reactor threads (at least 1); `None` = server default (one
    /// per core).
    pub reactors: Option<usize>,
    /// Bounded per-shard queue capacity (events).
    pub queue_cap: usize,
    /// Push a rejuvenation alert when predicted RTTF ≤ this (seconds).
    pub alert_threshold_s: f64,
    /// Consecutive below-threshold estimates required before alerting.
    pub alert_hits: usize,
    /// Aggregation window override (seconds) for
    /// [`ModelSource::BootTrain`]; `None` keeps the default. Artifact
    /// sources always use the artifact's own config.
    pub window_s: Option<f64>,
    /// Bound the run (seconds); `None` = run until killed.
    pub seconds: Option<u64>,
    /// Stable fleet identity of this instance, surfaced in the
    /// `FleetSnapshot`/`TopKReply` frames and the
    /// `f2pm_serve_instance_info` exposition gauge.
    pub instance_id: u32,
    /// Continuous retraining: keep a warm [`crate::RetrainEngine`] over
    /// the last N completed failing runs and publish each refreshed model
    /// back through the artifact store. Only valid with
    /// [`ModelSource::Artifact`] — the published generations need a store
    /// to land in (and the manifest poll to hot-reload them from).
    pub retrain_window_runs: Option<usize>,
}

impl ServeOptions {
    /// Start describing an instance serving from `source`.
    pub fn builder(source: ModelSource) -> ServeOptionsBuilder {
        ServeOptionsBuilder {
            addr: "127.0.0.1:7878".to_string(),
            source,
            shards: 4,
            reactors: None,
            queue_cap: 1024,
            alert_threshold_s: crate::RejuvenationPolicy::default().rttf_threshold_s,
            alert_hits: crate::RejuvenationPolicy::default().consecutive_hits,
            window_s: None,
            seconds: None,
            instance_id: 0,
            retrain_window_runs: None,
        }
    }
}

/// Accumulates serve options, validated as one unit by
/// [`ServeOptionsBuilder::build`].
#[derive(Debug, Clone)]
pub struct ServeOptionsBuilder {
    addr: String,
    source: ModelSource,
    shards: usize,
    reactors: Option<usize>,
    queue_cap: usize,
    alert_threshold_s: f64,
    alert_hits: usize,
    window_s: Option<f64>,
    seconds: Option<u64>,
    instance_id: u32,
    retrain_window_runs: Option<usize>,
}

impl ServeOptionsBuilder {
    /// Listen address (`host:port`).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Shard worker count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Reactor thread count (at least 1).
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.reactors = Some(reactors);
        self
    }

    /// Bounded per-shard queue capacity.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Alert when predicted RTTF ≤ `threshold_s` seconds.
    pub fn alert_threshold_s(mut self, threshold_s: f64) -> Self {
        self.alert_threshold_s = threshold_s;
        self
    }

    /// Debounce: require this many consecutive below-threshold estimates.
    pub fn alert_hits(mut self, hits: usize) -> Self {
        self.alert_hits = hits;
        self
    }

    /// Aggregation window override (seconds).
    pub fn window_s(mut self, window_s: f64) -> Self {
        self.window_s = Some(window_s);
        self
    }

    /// Bound the run to `seconds`.
    pub fn seconds(mut self, seconds: u64) -> Self {
        self.seconds = Some(seconds);
        self
    }

    /// Stable fleet identity of this instance.
    pub fn instance_id(mut self, id: u32) -> Self {
        self.instance_id = id;
        self
    }

    /// Continuously retrain on a sliding window of the last `runs`
    /// completed failing runs, publishing into the artifact store.
    pub fn retrain_window_runs(mut self, runs: usize) -> Self {
        self.retrain_window_runs = Some(runs);
        self
    }

    /// Validate the whole description. Every rule that used to be an
    /// ad-hoc CLI check lives here, and each violation is the same typed
    /// [`F2pmError::InvalidConfig`].
    pub fn build(self) -> Result<ServeOptions, F2pmError> {
        fn invalid(what: impl Into<String>) -> F2pmError {
            F2pmError::InvalidConfig { what: what.into() }
        }
        if self.addr.is_empty() {
            return Err(invalid("serve addr must not be empty"));
        }
        if self.shards == 0 {
            return Err(invalid("shards must be positive"));
        }
        if self.reactors == Some(0) {
            return Err(invalid("reactors must be positive"));
        }
        if self.queue_cap == 0 {
            return Err(invalid("queue_cap must be positive"));
        }
        if self.alert_hits == 0 {
            return Err(invalid("alert_hits must be positive"));
        }
        if !(self.alert_threshold_s.is_finite() && self.alert_threshold_s >= 0.0) {
            return Err(invalid("alert_threshold_s must be finite and non-negative"));
        }
        if let Some(w) = self.window_s {
            if !(w.is_finite() && w > 0.0) {
                return Err(invalid("window_s must be positive"));
            }
        }
        if let Some(runs) = self.retrain_window_runs {
            if runs == 0 {
                return Err(invalid("retrain window must hold at least one run"));
            }
            if !matches!(self.source, ModelSource::Artifact(_)) {
                return Err(invalid(
                    "retrain needs an artifact store (--models-dir) to publish refreshed \
                     models into",
                ));
            }
        }
        match &self.source {
            ModelSource::Artifact(_) | ModelSource::File(_) => {
                if self.window_s.is_some() {
                    return Err(invalid(
                        "window conflicts with an artifact: the artifact records \
                         its own aggregation config",
                    ));
                }
            }
            ModelSource::BootTrain { method, .. } => {
                const METHODS: [&str; 5] = ["linear", "rep_tree", "m5p", "svm", "ls_svm"];
                if !METHODS.contains(&method.as_str()) {
                    return Err(invalid(format!(
                        "unknown training method {method:?} (expected one of {METHODS:?})"
                    )));
                }
            }
        }
        Ok(ServeOptions {
            addr: self.addr,
            source: self.source,
            shards: self.shards,
            reactors: self.reactors,
            queue_cap: self.queue_cap,
            alert_threshold_s: self.alert_threshold_s,
            alert_hits: self.alert_hits,
            window_s: self.window_s,
            seconds: self.seconds,
            instance_id: self.instance_id,
            retrain_window_runs: self.retrain_window_runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_source() -> ModelSource {
        ModelSource::File(PathBuf::from("model.f2pm"))
    }

    #[test]
    fn defaults_build_and_mirror_the_rejuvenation_policy() {
        let o = ServeOptions::builder(file_source()).build().unwrap();
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert_eq!(o.shards, 4);
        assert_eq!(o.queue_cap, 1024);
        assert_eq!(o.reactors, None, "None defers to the server default");
        let policy = crate::RejuvenationPolicy::default();
        assert_eq!(o.alert_threshold_s, policy.rttf_threshold_s);
        assert_eq!(o.alert_hits, policy.consecutive_hits);
        assert_eq!(o.instance_id, 0);
        assert_eq!(o.retrain_window_runs, None);
    }

    #[test]
    fn every_knob_is_settable() {
        let o = ServeOptions::builder(ModelSource::BootTrain {
            history: PathBuf::from("h.csv"),
            method: "linear".to_string(),
        })
        .addr("0.0.0.0:9000")
        .shards(8)
        .reactors(2)
        .queue_cap(64)
        .alert_threshold_s(120.0)
        .alert_hits(3)
        .window_s(15.0)
        .seconds(30)
        .instance_id(7)
        .build()
        .unwrap();
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(o.shards, 8);
        assert_eq!(o.reactors, Some(2));
        assert_eq!(o.queue_cap, 64);
        assert_eq!(o.alert_threshold_s, 120.0);
        assert_eq!(o.alert_hits, 3);
        assert_eq!(o.window_s, Some(15.0));
        assert_eq!(o.seconds, Some(30));
        assert_eq!(o.instance_id, 7);
    }

    #[test]
    fn invalid_combinations_are_one_typed_kind() {
        let cases: Vec<ServeOptionsBuilder> = vec![
            ServeOptions::builder(file_source()).addr(""),
            ServeOptions::builder(file_source()).shards(0),
            ServeOptions::builder(file_source()).queue_cap(0),
            ServeOptions::builder(file_source()).alert_hits(0),
            ServeOptions::builder(file_source()).alert_threshold_s(f64::NAN),
            ServeOptions::builder(file_source()).alert_threshold_s(-1.0),
            ServeOptions::builder(ModelSource::BootTrain {
                history: PathBuf::from("h.csv"),
                method: "rep_tree".to_string(),
            })
            .window_s(0.0),
            ServeOptions::builder(ModelSource::Artifact(PathBuf::from("store"))).window_s(10.0),
            ServeOptions::builder(file_source()).window_s(10.0),
            ServeOptions::builder(ModelSource::BootTrain {
                history: PathBuf::from("h.csv"),
                method: "gradient_boost".to_string(),
            }),
        ];
        for b in cases {
            let err = b.clone().build().unwrap_err();
            assert_eq!(err.kind(), "invalid_config", "{b:?} → {err}");
        }
    }

    #[test]
    fn zero_reactors_is_invalid_config() {
        // The reactor pool is the only connection edge: zero reactors
        // would accept nothing.
        let err = ServeOptions::builder(file_source())
            .reactors(0)
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
        assert!(err.to_string().contains("reactors"), "{err}");
        let one = ServeOptions::builder(file_source()).reactors(1).build();
        assert_eq!(one.unwrap().reactors, Some(1));
    }

    #[test]
    fn retrain_is_valid_only_for_artifact_sources() {
        let o = ServeOptions::builder(ModelSource::Artifact(PathBuf::from("models")))
            .retrain_window_runs(6)
            .build()
            .unwrap();
        assert_eq!(o.retrain_window_runs, Some(6));
        for b in [
            ServeOptions::builder(file_source()).retrain_window_runs(6),
            ServeOptions::builder(ModelSource::BootTrain {
                history: PathBuf::from("h.csv"),
                method: "ls_svm".to_string(),
            })
            .retrain_window_runs(6),
            ServeOptions::builder(ModelSource::Artifact(PathBuf::from("models")))
                .retrain_window_runs(0),
        ] {
            assert_eq!(b.clone().build().unwrap_err().kind(), "invalid_config");
        }
    }

    #[test]
    fn artifact_source_without_overrides_builds() {
        let o = ServeOptions::builder(ModelSource::Artifact(PathBuf::from("models")))
            .build()
            .unwrap();
        assert_eq!(o.source, ModelSource::Artifact(PathBuf::from("models")));
        assert_eq!(o.window_s, None);
    }
}
