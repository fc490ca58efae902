//! The data history: datapoints interleaved with fail events (§III-A).

use crate::datapoint::Datapoint;
use f2pm_sim::{Run, RunSample};

/// One entry of the data history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HistoryEvent {
    /// A monitoring datapoint.
    Datapoint(Datapoint),
    /// The failure condition fired at `t` (seconds since the current
    /// system start); the system was restarted right after.
    Fail {
        /// Failure time within the run.
        t: f64,
    },
}

/// One run extracted from the history: its datapoints and fail time.
#[derive(Debug, Clone, PartialEq)]
pub struct RunData {
    /// Chronological datapoints of the run.
    pub datapoints: Vec<Datapoint>,
    /// Fail-event time, if the run ended in failure.
    pub fail_time: Option<f64>,
}

impl RunData {
    /// Ground-truth remaining time to failure at time `t` within this run.
    /// `None` for censored (non-failing) runs.
    pub fn rttf_at(&self, t: f64) -> Option<f64> {
        self.fail_time.map(|ft| (ft - t).max(0.0))
    }
}

/// The full data history of a monitoring campaign.
#[derive(Debug, Clone, Default)]
pub struct DataHistory {
    events: Vec<HistoryEvent>,
}

impl DataHistory {
    /// Empty history.
    pub fn new() -> Self {
        DataHistory::default()
    }

    /// Append a datapoint.
    pub fn push_datapoint(&mut self, d: Datapoint) {
        self.events.push(HistoryEvent::Datapoint(d));
    }

    /// Append a fail event (closes the current run).
    pub fn push_fail(&mut self, t: f64) {
        self.events.push(HistoryEvent::Fail { t });
    }

    /// Raw event stream.
    pub fn events(&self) -> &[HistoryEvent] {
        &self.events
    }

    /// Number of datapoints across all runs.
    pub fn datapoint_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, HistoryEvent::Datapoint(_)))
            .count()
    }

    /// Number of fail events (completed runs).
    pub fn fail_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, HistoryEvent::Fail { .. }))
            .count()
    }

    /// Split the history into runs. A trailing run without a fail event is
    /// returned with `fail_time: None` (censored).
    pub fn runs(&self) -> Vec<RunData> {
        let mut out = Vec::new();
        let mut current = Vec::new();
        for ev in &self.events {
            match ev {
                HistoryEvent::Datapoint(d) => current.push(*d),
                HistoryEvent::Fail { t } => {
                    out.push(RunData {
                        datapoints: std::mem::take(&mut current),
                        fail_time: Some(*t),
                    });
                }
            }
        }
        if !current.is_empty() {
            out.push(RunData {
                datapoints: current,
                fail_time: None,
            });
        }
        out
    }

    /// Build a history from simulator campaign runs.
    pub fn from_campaign(runs: &[Run]) -> Self {
        let mut h = DataHistory::new();
        for run in runs {
            for s in &run.samples {
                h.push_datapoint(sample_to_datapoint(s));
            }
            if let Some(ft) = run.fail_time {
                h.push_fail(ft);
            }
        }
        h
    }
}

/// Convert a simulator sample into a raw datapoint.
pub fn sample_to_datapoint(s: &RunSample) -> Datapoint {
    let mut d = Datapoint::from(&s.snapshot);
    // The snapshot's own clock is the Tgen timestamp; RunSample::t matches.
    d.t_gen = s.t;
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::FeatureId;

    fn dp(t: f64) -> Datapoint {
        let mut d = Datapoint {
            t_gen: t,
            values: [0.0; 14],
        };
        d.set(FeatureId::SwapUsed, t * 2.0);
        d
    }

    #[test]
    fn empty_history() {
        let h = DataHistory::new();
        assert_eq!(h.datapoint_count(), 0);
        assert_eq!(h.fail_count(), 0);
        assert!(h.runs().is_empty());
    }

    #[test]
    fn runs_split_on_fail_events() {
        let mut h = DataHistory::new();
        h.push_datapoint(dp(1.0));
        h.push_datapoint(dp(2.0));
        h.push_fail(3.0);
        h.push_datapoint(dp(1.5));
        h.push_fail(2.5);
        let runs = h.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].datapoints.len(), 2);
        assert_eq!(runs[0].fail_time, Some(3.0));
        assert_eq!(runs[1].datapoints.len(), 1);
        assert_eq!(runs[1].fail_time, Some(2.5));
    }

    #[test]
    fn trailing_run_is_censored() {
        let mut h = DataHistory::new();
        h.push_datapoint(dp(1.0));
        h.push_fail(2.0);
        h.push_datapoint(dp(0.5));
        let runs = h.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].fail_time, None);
        assert_eq!(runs[1].rttf_at(0.5), None);
    }

    #[test]
    fn rttf_computation() {
        let r = RunData {
            datapoints: vec![],
            fail_time: Some(100.0),
        };
        assert_eq!(r.rttf_at(30.0), Some(70.0));
        assert_eq!(r.rttf_at(100.0), Some(0.0));
        assert_eq!(r.rttf_at(150.0), Some(0.0), "clamped at zero");
    }

    #[test]
    fn counts() {
        let mut h = DataHistory::new();
        for i in 0..5 {
            h.push_datapoint(dp(i as f64));
        }
        h.push_fail(10.0);
        assert_eq!(h.datapoint_count(), 5);
        assert_eq!(h.fail_count(), 1);
        assert_eq!(h.events().len(), 6);
    }

    #[test]
    fn from_campaign_preserves_structure() {
        use f2pm_sim::{AnomalyConfig, Campaign, CampaignConfig, SimConfig};
        let cfg = CampaignConfig {
            sim: SimConfig {
                anomaly: AnomalyConfig {
                    leak_size_mib: (6.0, 10.0),
                    leak_prob_per_home: (0.8, 0.9),
                    ..AnomalyConfig::default()
                },
                ..SimConfig::default()
            },
            runs: 2,
            ..CampaignConfig::default()
        };
        let runs = Campaign::new(cfg, 7).run_all();
        let h = DataHistory::from_campaign(&runs);
        assert_eq!(h.fail_count(), 2);
        let parsed = h.runs();
        assert_eq!(parsed.len(), 2);
        for (orig, got) in runs.iter().zip(&parsed) {
            assert_eq!(orig.samples.len(), got.datapoints.len());
            assert_eq!(orig.fail_time, got.fail_time);
            // Datapoints carry real feature values.
            let last = got.datapoints.last().unwrap();
            assert!(last.get(FeatureId::SwapUsed) > 0.0);
            assert!(last.is_finite());
        }
    }
}
