//! # f2pm — Framework for building Failure Prediction Models
//!
//! A Rust reproduction of the F2PM framework (Pellegrini, Di Sanzo,
//! Avresky — IPPS 2015): a machine-learning pipeline that builds models
//! predicting the **Remaining Time To Failure (RTTF)** of applications
//! that degrade under accumulating software anomalies, using nothing but
//! system-level features.
//!
//! This crate is the orchestration layer. The heavy lifting lives in the
//! substrate crates (`f2pm-sim`, `f2pm-monitor`, `f2pm-features`,
//! `f2pm-ml`), and the [`workflow`] module wires the paper's §III phases
//! end-to-end:
//!
//! 1. initial system monitoring → a multi-run [`f2pm_monitor::DataHistory`]
//! 2. datapoint aggregation + added metrics (slopes, inter-generation time)
//! 3. optional Lasso feature selection over a λ grid
//! 4. model generation + validation over the full §III-D method suite,
//!    producing comparable per-model metric reports
//!
//! Around the workflow:
//!
//! - [`correlate`] reproduces the paper's Fig. 3 response-time correlation
//!   (predicting client-observed latency from the monitor's datapoint
//!   inter-generation time alone);
//! - [`predictor`] turns any trained model into an *online* RTTF estimator
//!   fed by a live datapoint stream;
//! - [`rejuvenation`] closes the loop the paper motivates: a proactive
//!   rejuvenation policy that restarts the system when the predicted RTTF
//!   drops below a safety threshold, evaluated against the simulator.
//!
//! ## Quickstart
//!
//! ```no_run
//! use f2pm::{F2pmConfig, run_workflow};
//!
//! let mut cfg = F2pmConfig::default();
//! cfg.campaign.runs = 8;
//! let outcome = run_workflow(&cfg, 42).expect("enough data");
//! println!("{}", outcome.summary());
//! let best = outcome.best_by_smae().expect("at least one model");
//! println!("best model: {}", best.name);
//! ```

pub mod config;
pub mod correlate;
pub mod error;
pub mod incremental;
pub mod predictor;
pub mod query;
pub mod rejuvenation;
pub mod report;
pub mod retrain;
pub mod workflow;

pub use config::F2pmConfig;
pub use correlate::{correlate_response_time, RtCorrelation, RtEstimator};
pub use error::F2pmError;
pub use incremental::{IncrementalConfig, IncrementalOutcome, IncrementalTrainer};
pub use predictor::{predict_many, OnlinePredictor};
pub use query::{run_query, Cohort, CohortStats, QueryFilter, QueryReport};
pub use rejuvenation::{ProactiveRejuvenator, RejuvenationOutcome, RejuvenationPolicy};
pub use report::{F2pmReport, VariantReport};
pub use retrain::{FactorPath, RetrainConfig, RetrainEngine, RetrainOutcome};
pub use workflow::{run_workflow, run_workflow_on_history};
