//! Open-loop schedule arithmetic and the ingest ladder's rung rule.
//!
//! The generator sends slot `k` of a phase when it is *due*, at
//! `start + k / rate`, whether or not the server kept up. Every latency
//! is counted from the due time, so a stall charges its wait to every
//! request queued behind it; how late the generator itself ran is
//! recorded separately as lateness.
//!
//! A rung only needs to know whether its p99s are within their limits, so
//! it counts its samples against the limits ([`Tally`]) instead of keeping
//! them; only the phase the end-to-end result comes from keeps its
//! samples.

use std::time::{Duration, Instant};

/// A fixed-rate schedule starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Due time of slot 0.
    pub start: Instant,
    /// Slots per second.
    pub rate: f64,
}

impl Schedule {
    /// Due time of slot `k`.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }

    /// Number of slots whose due time is at or before `now`.
    pub fn due_by(&self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start).as_secs_f64();
        (elapsed * self.rate).floor() as u64 + 1
    }
}

/// Microseconds from `due` to `at`, zero when `at` came first.
pub fn micros_after(due: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(due).as_secs_f64() * 1e6
}

/// A rung passes only if its estimate latency p99 (µs) is at most this.
pub const ESTIMATE_P99_LIMIT_US: f64 = 5_000.0;

/// ... and the generator ran at most this late at p99 (µs) ...
pub const LATENESS_P99_LIMIT_US: f64 = 1_000.0;

/// ... and the scraped datapoint count reached the sent count at most this
/// long after the rung's last send.
pub const SETTLE_LIMIT: Duration = Duration::from_secs(1);

/// Latency samples counted against a limit: enough to decide whether their
/// nearest-rank p99 is within it, in constant memory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// The limit (µs).
    pub limit_us: f64,
    /// Samples counted.
    pub count: u64,
    /// Samples above the limit.
    pub over: u64,
}

impl Tally {
    /// An empty tally against `limit_us`.
    pub fn new(limit_us: f64) -> Tally {
        Tally {
            limit_us,
            count: 0,
            over: 0,
        }
    }

    /// Count one sample (µs).
    pub fn add(&mut self, us: f64) {
        self.count += 1;
        self.over += u64::from(us > self.limit_us);
    }

    /// Whether the nearest-rank p99 is within the limit, i.e. at least
    /// ⌈0.99·n⌉ samples are. False for an empty tally.
    pub fn p99_within(&self) -> bool {
        self.count > 0 && self.count - self.over >= (99 * self.count).div_ceil(100)
    }
}

/// What one rung measured.
#[derive(Debug, Clone, Default)]
pub struct RungOutcome {
    /// Offered rate (datapoints per second).
    pub rate: f64,
    /// Achieved send rate (datapoints per second).
    pub achieved: f64,
    /// Operations sent (datapoints and predict requests).
    pub sent: u64,
    /// Operations whose result arrived and matched.
    pub succeeded: u64,
    /// Operations that failed, mismatched or never completed.
    pub failed: u64,
    /// Estimate latencies against [`ESTIMATE_P99_LIMIT_US`].
    pub estimate_us: Tally,
    /// Generator lateness against [`LATENESS_P99_LIMIT_US`].
    pub lateness_us: Tally,
    /// Time from the last send until the scrape matched the sent count;
    /// `None` when it never did.
    pub settled_after: Option<Duration>,
}

impl RungOutcome {
    /// Whether the rung meets every limit. A failed operation misses the
    /// latency limit by definition, so any failure fails the rung; so does
    /// a rung without a single estimate.
    pub fn passes(&self) -> bool {
        self.failed == 0
            && self.estimate_us.p99_within()
            && self.lateness_us.p99_within()
            && self.settled_after.is_some_and(|d| d <= SETTLE_LIMIT)
    }
}

/// Index of the highest passing rung of an ascending ladder that stops at
/// its first failing rung: the rung just below the first failure, or the
/// last rung when all pass. `None` when the first rung fails.
pub fn highest_passing(rungs: &[RungOutcome]) -> Option<usize> {
    let first_fail = rungs
        .iter()
        .position(|r| !r.passes())
        .unwrap_or(rungs.len());
    first_fail.checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_due_times_and_counts() {
        let start = Instant::now();
        let s = Schedule {
            start,
            rate: 1000.0,
        };
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(500), start + Duration::from_millis(500));
        // At the start only slot 0 is due; 2.5 ms in, slots 0..=2 are.
        assert_eq!(s.due_by(start), 1);
        assert_eq!(s.due_by(start + Duration::from_micros(2_500)), 3);
    }

    #[test]
    fn latency_counts_from_due_time() {
        let due = Instant::now();
        let sent_late = due + Duration::from_micros(300);
        let arrived = sent_late + Duration::from_micros(200);
        // The 300 µs the generator ran late is charged to the request.
        assert!((micros_after(due, arrived) - 500.0).abs() < 1e-6);
        assert!((micros_after(due, sent_late) - 300.0).abs() < 1e-6);
        // An arrival that somehow precedes its due time reads zero.
        assert_eq!(micros_after(arrived, due), 0.0);
    }

    #[test]
    fn tally_p99_agrees_with_nearest_rank() {
        // A deterministic spread of samples around the limit, at sizes
        // where ⌈0.99·n⌉ does and does not divide evenly.
        for n in [1usize, 7, 99, 100, 101, 250, 1_000, 1_234] {
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7_919) % 1_009) as f64).collect();
            for limit in [0.0, 500.0, 990.0, 999.0, 1_008.0, 2_000.0] {
                let mut t = Tally::new(limit);
                samples.iter().for_each(|&s| t.add(s));
                let p99 = crate::stats::rank_or_zero(&samples, 0.99);
                assert_eq!(t.p99_within(), p99 <= limit, "n {n}, limit {limit}");
                assert_eq!(t.count, n as u64);
            }
        }
        assert!(!Tally::new(1.0).p99_within(), "an empty tally fails");
    }

    /// A rung whose hundred estimates all took `estimate` µs and whose
    /// generator ran `late` µs late for every datapoint.
    fn rung(estimate: f64, late: f64, settle_ms: Option<u64>, failed: u64) -> RungOutcome {
        let mut estimate_us = Tally::new(ESTIMATE_P99_LIMIT_US);
        let mut lateness_us = Tally::new(LATENESS_P99_LIMIT_US);
        for _ in 0..100 {
            estimate_us.add(estimate);
            lateness_us.add(late);
        }
        RungOutcome {
            estimate_us,
            lateness_us,
            settled_after: settle_ms.map(Duration::from_millis),
            failed,
            ..RungOutcome::default()
        }
    }

    #[test]
    fn rung_rule() {
        assert!(rung(4_999.0, 999.0, Some(1_000), 0).passes());
        assert!(!rung(5_001.0, 10.0, Some(1), 0).passes(), "estimate p99");
        assert!(!rung(10.0, 1_001.0, Some(1), 0).passes(), "lateness");
        assert!(!rung(10.0, 10.0, Some(1_001), 0).passes(), "slow scrape");
        assert!(!rung(10.0, 10.0, None, 0).passes(), "never settled");
        assert!(!rung(10.0, 10.0, Some(1), 1).passes(), "a failure");
        let no_estimates = RungOutcome {
            estimate_us: Tally::new(ESTIMATE_P99_LIMIT_US),
            ..rung(0.0, 0.0, Some(1), 0)
        };
        assert!(!no_estimates.passes());
    }

    #[test]
    fn ladder_stops_at_first_failure() {
        let ok = rung(100.0, 10.0, Some(5), 0);
        let bad = rung(9_000.0, 10.0, Some(5), 0);
        let ladder = [ok.clone(), ok.clone(), bad.clone(), ok.clone()];
        assert_eq!(highest_passing(&ladder), Some(1));
        assert_eq!(highest_passing(&[ok.clone(), ok.clone()]), Some(1));
        assert_eq!(highest_passing(&[bad, ok]), None);
        assert_eq!(highest_passing(&[]), None);
    }
}
