//! # f2pm-repro
//!
//! Umbrella crate for the F2PM reproduction. It re-exports every workspace
//! crate so the `examples/` and cross-crate `tests/` at the repository root
//! can reach the full system through one dependency.
//!
//! The actual implementation lives in the member crates:
//!
//! - [`f2pm_linalg`] — dense linear algebra (Cholesky, least squares, CG, stats)
//! - [`f2pm_sim`] — discrete-event testbed simulator (VM resources, TPC-W
//!   workload, anomaly injectors, failure conditions)
//! - [`f2pm_monitor`] — datapoints, data history, the FMC and its wire format
//! - [`f2pm_features`] — aggregation, slopes, RTTF labeling, lasso selection
//! - [`f2pm_ml`] — the six regressors and validation metrics
//! - [`f2pm_registry`] — checksummed model artifacts, the model store and
//!   the columnar history container
//! - [`f2pm_serve`] — sharded online RTTF prediction service, which also
//!   records the ingested history
//! - [`f2pm`] — the framework workflow tying everything together

pub use f2pm;
pub use f2pm_features;
pub use f2pm_linalg;
pub use f2pm_ml;
pub use f2pm_monitor;
pub use f2pm_registry;
pub use f2pm_serve;
pub use f2pm_sim;
