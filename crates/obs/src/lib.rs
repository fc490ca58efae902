//! f2pm-obs — dependency-light structured observability for the F2PM stack.
//!
//! The crate provides three things, all std-only and lock-free on the hot
//! path:
//!
//! * [`MetricsRegistry`] — a named collection of [`Counter`]s, [`Gauge`]s
//!   and power-of-two [`Histogram`]s. Handles are cheap `Arc`-backed clones;
//!   updates are relaxed atomics. The registry itself only takes a lock on
//!   registration and rendering, never per-update.
//! * Span timing — [`MetricsRegistry::span`] (or the [`span!`] macro against
//!   the process-global registry) returns a [`SpanGuard`] that records the
//!   elapsed wall time into the `f2pm_stage_duration_us{stage="..."}`
//!   histogram when dropped or explicitly [`SpanGuard::stop`]ped. The whole
//!   Table-3 pipeline (aggregate → lasso path → per-method train/validate →
//!   grid) stamps its stages through this API.
//! * Text exposition — [`MetricsRegistry::render_text`] produces a
//!   Prometheus-style exposition (`# TYPE` lines, cumulative `_bucket{le=..}`
//!   histogram series) that `f2pm-serve` ships over the wire in a
//!   `MetricsText` frame and `f2pm stats` prints. For fleets,
//!   [`merge_expositions`] folds per-instance expositions into one cluster
//!   exposition (counters/histograms sum exactly; gauges stay attributable
//!   behind an added `instance` label).
//!
//! Library crates record into [`global()`] so one scrape sees the whole
//! process; components that need isolation (e.g. several in-process serve
//! instances in tests) own a private registry and render both.

mod merge;
mod registry;
mod span;
mod text;

pub use merge::merge_expositions;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use span::SpanGuard;

use std::sync::OnceLock;

/// Name of the histogram family all span timings record into.
pub const STAGE_DURATION_METRIC: &str = "f2pm_stage_duration_us";
/// Label key carrying the span/stage name.
pub const STAGE_LABEL: &str = "stage";

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global registry. Library code (workflow stages, per-method
/// training timers, FMC transport counters) records here so a single
/// scrape observes every subsystem without plumbing a registry through each
/// call chain.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Time a pipeline stage against the process-global registry.
///
/// Returns a [`SpanGuard`]; the elapsed time is recorded when the guard is
/// dropped (or immediately via [`SpanGuard::stop`], which also hands back the
/// duration in seconds).
///
/// ```
/// let guard = f2pm_obs::span!("lasso_path");
/// // ... stage work ...
/// let secs = guard.stop();
/// assert!(secs >= 0.0);
/// ```
#[macro_export]
macro_rules! span {
    ($stage:expr) => {
        $crate::global().span($stage)
    };
    ($registry:expr, $stage:expr) => {
        ($registry).span($stage)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const MetricsRegistry;
        let b = global() as *const MetricsRegistry;
        assert_eq!(a, b);
    }

    #[test]
    fn span_macro_records_into_global() {
        let guard = span!("obs_test_stage");
        let secs = guard.stop();
        assert!(secs >= 0.0);
        let snap = global()
            .histogram_snapshot_with(STAGE_DURATION_METRIC, STAGE_LABEL, "obs_test_stage")
            .expect("span histogram registered");
        assert!(snap.count >= 1);
    }
}
