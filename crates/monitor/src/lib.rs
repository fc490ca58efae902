//! # f2pm-monitor
//!
//! The monitoring layer of F2PM: datapoints, the multi-run data history,
//! feature collectors, the paper's thin monitoring client (FMC) and the
//! wire format it speaks.
//!
//! §III-A of the paper defines a *datapoint* as a timestamped tuple of 14
//! system features (thread count, five memory quantities, two swap
//! quantities, six CPU percentages) plus `Tgen`, the elapsed time since
//! system start. Datapoints accumulate into a *data history* interleaved
//! with *fail events*; every fail event closes a run.
//!
//! Collectors produce datapoints from three sources:
//!
//! - [`SimCollector`] samples the `f2pm-sim` testbed with the paper's
//!   ~1.5 s cadence, including the load-dependent skew that makes the
//!   inter-generation time a useful derived metric (§III-B);
//! - [`ProcCollector`] reads the *real* local Linux `/proc` filesystem —
//!   the same information `free`/`top` show — so F2PM can monitor an
//!   actual machine, exactly like the paper's thin client;
//! - the [`fmc`] client moves datapoints over TCP in the compact binary
//!   [`wire`] format, for monitoring a remote guest. The paper runs its
//!   collecting server (FMS) on a separate VM from the application under
//!   test; here that server is `f2pm-serve`, which records what it
//!   ingests with `f2pm serve --record DIR` in the [`csvio`] format.

pub mod collector;
pub mod csvio;
pub mod datapoint;
pub mod fmc;
pub mod history;
pub mod wire;

pub use collector::{Collector, ProcCollector, ReplayCollector, SimCollector, SimCollectorConfig};
pub use csvio::{load_csv, save_csv};
pub use datapoint::{Datapoint, FeatureId, FEATURES};
pub use fmc::{FeatureMonitorClient, FmcConfig};
pub use history::{DataHistory, HistoryEvent, RunData};
pub use wire::Message;
