//! Multi-run data-collection campaigns.
//!
//! The paper's initial monitoring phase (§III-A) runs the faulty system,
//! samples the 15 features on a ~1.5 s clock, logs a *fail event* when the
//! failure condition fires, restarts the VM, and repeats — for a week. A
//! [`Campaign`] does the same against the simulator: it produces a list of
//! [`Run`]s, each a sequence of [`RunSample`]s ending (usually) in failure.
//!
//! The monitor's sampling clock is *not* a perfect metronome: the paper
//! leans on exactly that (§III-B) — under overload the interval between
//! datapoints stretches, and that inter-generation time correlates with the
//! client response time (their Fig. 3). The harness therefore schedules the
//! next sample at `nominal × (1 + skew·overload) + jitter`.
//!
//! Runs are independent lives, each drawn from its own seed, so
//! [`Campaign::run_all`] simulates them in parallel and still returns the
//! sequential result bit for bit.

use crate::engine::{SimConfig, Simulation};
use crate::vm::SystemSnapshot;
use crate::SimRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Workers a campaign fans its runs out over: `F2PM_THREADS` when set to
/// a positive integer, else the available parallelism — read exactly as
/// `f2pm_linalg::pool_threads` reads it, resolved once per process.
fn campaign_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("F2PM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
    })
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Simulation configuration used for every run.
    pub sim: SimConfig,
    /// Number of run-until-failure cycles.
    pub runs: usize,
    /// Horizon (s) after which a run is abandoned even without failure.
    pub max_run_duration: f64,
    /// Nominal sampling interval (s); the paper's FMC uses ≈ 1.5 s.
    pub sample_interval: f64,
    /// How strongly overload stretches the sampling interval.
    pub overload_skew: f64,
    /// Standard deviation of the scheduler jitter added to each interval (s).
    pub jitter_std: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            sim: SimConfig::default(),
            runs: 10,
            max_run_duration: 40_000.0,
            sample_interval: 1.5,
            overload_skew: 0.35,
            jitter_std: 0.05,
        }
    }
}

/// One monitor sample: the snapshot plus the ground truth the paper's
/// instrumented emulated browsers record alongside (client response time).
#[derive(Debug, Clone, Copy)]
pub struct RunSample {
    /// Wall-clock (since VM boot) at which the sample was taken.
    pub t: f64,
    /// The 15-feature snapshot.
    pub snapshot: SystemSnapshot,
    /// Mean client response time of requests completed since the previous
    /// sample (0 when none completed). Ground truth for Fig. 3 only —
    /// never an input feature.
    pub response_time_s: f64,
    /// Requests completed since the previous sample.
    pub completed: u64,
}

/// One run: samples plus the fail event.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed the run's simulation used (for replay).
    pub seed: u64,
    /// Chronological samples.
    pub samples: Vec<RunSample>,
    /// Fail-event time, if the failure condition fired.
    pub fail_time: Option<f64>,
}

impl Run {
    /// Duration covered by the run (fail time, or last sample).
    pub fn duration(&self) -> f64 {
        self.fail_time
            .unwrap_or_else(|| self.samples.last().map_or(0.0, |s| s.t))
    }
}

/// The campaign driver.
///
/// ```
/// use f2pm_sim::{Campaign, CampaignConfig};
///
/// let mut cfg = CampaignConfig::default();
/// cfg.runs = 1;
/// let runs = Campaign::new(cfg, 7).run_all();
/// assert_eq!(runs.len(), 1);
/// let run = &runs[0];
/// assert!(run.fail_time.is_some(), "default anomaly rates kill the guest");
/// assert!(run.samples.len() > 100, "~1.5 s sampling over a multi-minute run");
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: CampaignConfig,
    seed: u64,
}

impl Campaign {
    /// Create a campaign with a master seed; every run derives its own.
    pub fn new(cfg: CampaignConfig, seed: u64) -> Self {
        Campaign { cfg, seed }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Execute all runs, fanned out over the machine's threads.
    ///
    /// Every run seed is drawn from the master seed first, in run order,
    /// and each run is a pure function of its seed, so the output is
    /// `run_once` over those seeds in sequence, bit for bit, whatever the
    /// worker count. The width is `F2PM_THREADS` when set to a positive
    /// integer, else the available parallelism; `F2PM_THREADS=1` runs
    /// every run on the calling thread.
    pub fn run_all(&self) -> Vec<Run> {
        self.run_all_on(campaign_threads())
    }

    /// [`Campaign::run_all`] on `workers` workers, the calling thread
    /// among them.
    pub(crate) fn run_all_on(&self, workers: usize) -> Vec<Run> {
        let mut rng = SimRng::new(self.seed);
        let seeds: Vec<u64> = (0..self.cfg.runs).map(|_| rng.next_u64()).collect();
        let workers = workers.min(seeds.len());
        if workers <= 1 {
            return seeds.iter().map(|&seed| self.run_once(seed)).collect();
        }
        // The same loop as `f2pm_linalg::pool_map`, kept here on `std`
        // alone: this crate depends on no other f2pm crate, and the
        // benchmark's lock file records its dependencies.
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else {
                    return done;
                };
                done.push((i, self.run_once(seed)));
            }
        };
        let mut done = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
            let mut done = drain();
            for handle in spawned {
                done.extend(
                    handle
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                );
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, run)| run).collect()
    }

    /// Execute a single run with an explicit seed.
    pub fn run_once(&self, run_seed: u64) -> Run {
        let mut sim = Simulation::new(self.cfg.sim.clone(), run_seed);
        // Jitter stream independent of the simulation's own randomness.
        let mut jitter_rng = SimRng::new(run_seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut samples = Vec::new();
        let mut next_sample = self.cfg.sample_interval;
        let mut completed_before = 0u64;

        loop {
            let alive = sim.advance_until(next_sample);
            let t = sim.now();
            if !alive {
                break;
            }
            if t > self.cfg.max_run_duration {
                break;
            }
            let snapshot = sim.snapshot();
            let responses = sim.drain_responses();
            let completed_now = sim.completed_requests();
            let completed = completed_now - completed_before;
            completed_before = completed_now;
            let response_time_s = if responses.is_empty() {
                0.0
            } else {
                responses.iter().map(|r| r.response_s).sum::<f64>() / responses.len() as f64
            };
            samples.push(RunSample {
                t,
                snapshot,
                response_time_s,
                completed,
            });

            // §III-B: overload stretches the next interval.
            let skew = 1.0 + self.cfg.overload_skew * sim.overload_factor();
            let jitter = jitter_rng.gaussian(0.0, self.cfg.jitter_std);
            let interval =
                (self.cfg.sample_interval * skew + jitter).max(self.cfg.sample_interval * 0.25);
            next_sample = t + interval;
        }

        Run {
            seed: run_seed,
            samples,
            fail_time: sim.failed_at(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyConfig;

    fn fast_campaign(runs: usize) -> Campaign {
        let cfg = CampaignConfig {
            sim: SimConfig {
                anomaly: AnomalyConfig {
                    leak_size_mib: (6.0, 10.0),
                    leak_prob_per_home: (0.8, 0.9),
                    ..AnomalyConfig::default()
                },
                ..SimConfig::default()
            },
            runs,
            ..CampaignConfig::default()
        };
        Campaign::new(cfg, 1234)
    }

    #[test]
    fn campaign_produces_failing_runs() {
        let runs = fast_campaign(3).run_all();
        assert_eq!(runs.len(), 3);
        for r in &runs {
            assert!(r.fail_time.is_some(), "run did not fail");
            assert!(r.samples.len() > 50, "too few samples: {}", r.samples.len());
        }
    }

    #[test]
    fn fail_times_vary_across_runs() {
        let runs = fast_campaign(4).run_all();
        let times: Vec<f64> = runs.iter().map(|r| r.fail_time.unwrap()).collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max > min, "fail times identical: {times:?}");
    }

    #[test]
    fn samples_are_chronological_and_before_failure() {
        let runs = fast_campaign(2).run_all();
        for r in &runs {
            let ft = r.fail_time.unwrap();
            for w in r.samples.windows(2) {
                assert!(w[0].t < w[1].t);
            }
            assert!(r.samples.last().unwrap().t <= ft);
        }
    }

    #[test]
    fn sampling_interval_stretches_under_load() {
        let runs = fast_campaign(1).run_all();
        let s = &runs[0].samples;
        assert!(s.len() > 100);
        // Mean interval over the first quarter vs the last quarter.
        let q = s.len() / 4;
        let early: f64 = s[1..q].windows(2).map(|w| w[1].t - w[0].t).sum::<f64>() / (q - 2) as f64;
        let lastq = &s[s.len() - q..];
        let late: f64 = lastq.windows(2).map(|w| w[1].t - w[0].t).sum::<f64>() / (q - 1) as f64;
        assert!(
            late > early * 1.05,
            "inter-generation time should grow: early {early:.3} late {late:.3}"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = fast_campaign(2).run_all();
        let b = fast_campaign(2).run_all();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.fail_time, rb.fail_time);
            assert_eq!(ra.samples.len(), rb.samples.len());
        }
    }

    /// `run_once` over the master seed's draws, one after another: the
    /// order every fan-out must reproduce.
    fn sequential(campaign: &Campaign) -> Vec<Run> {
        let mut rng = SimRng::new(campaign.seed);
        (0..campaign.cfg.runs)
            .map(|_| campaign.run_once(rng.next_u64()))
            .collect()
    }

    fn assert_bit_identical(got: &[Run], want: &[Run], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: run count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.seed, w.seed, "{what}: run {i} seed");
            assert_eq!(
                g.fail_time.map(f64::to_bits),
                w.fail_time.map(f64::to_bits),
                "{what}: run {i} fail time"
            );
            assert_eq!(g.samples.len(), w.samples.len(), "{what}: run {i} samples");
            for (k, (a, b)) in g.samples.iter().zip(&w.samples).enumerate() {
                let bits = |s: &RunSample| {
                    let mut v = vec![s.t.to_bits(), s.response_time_s.to_bits(), s.completed];
                    v.extend(s.snapshot.features().map(f64::to_bits));
                    v
                };
                assert_eq!(bits(a), bits(b), "{what}: run {i} sample {k}");
            }
        }
    }

    #[test]
    fn run_all_is_sequential_run_once_bit_for_bit() {
        for runs in [0, 1, 4] {
            let campaign = fast_campaign(runs);
            let want = sequential(&campaign);
            assert_bit_identical(&campaign.run_all(), &want, &format!("{runs} runs"));
            for workers in [1, 2, 3, runs + 1] {
                assert_bit_identical(
                    &campaign.run_all_on(workers),
                    &want,
                    &format!("{runs} runs on {workers} workers"),
                );
            }
        }
    }

    #[test]
    fn a_panicking_run_panics_out_of_run_all() {
        let mut campaign = fast_campaign(3);
        // An empty leak-size range fails the first leak's draw.
        campaign.cfg.sim.anomaly.leak_size_mib = (10.0, 6.0);
        for workers in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| campaign.run_all_on(workers));
            assert!(caught.is_err(), "{workers} workers returned");
        }
    }

    #[test]
    fn run_duration_helper() {
        let runs = fast_campaign(1).run_all();
        let r = &runs[0];
        assert_eq!(r.duration(), r.fail_time.unwrap());
        let healthy = Run {
            seed: 0,
            samples: vec![],
            fail_time: None,
        };
        assert_eq!(healthy.duration(), 0.0);
    }

    #[test]
    fn swap_used_accelerates_near_failure() {
        // The feature trajectory motivating the paper's slope metrics.
        let runs = fast_campaign(1).run_all();
        let s = &runs[0].samples;
        let n = s.len();
        let seg = n / 5;
        let slope = |a: &RunSample, b: &RunSample| {
            (b.snapshot.swap_used - a.snapshot.swap_used) / (b.t - a.t)
        };
        let early = slope(&s[0], &s[seg]);
        // Find first sample where swap starts moving to compare fairly.
        let late = slope(&s[n - seg - 1], &s[n - 1]);
        assert!(
            late >= early,
            "swap slope should not shrink: early {early:.4} late {late:.4}"
        );
        let final_swap = s[n - 1].snapshot.swap_used;
        assert!(
            final_swap > 900.0,
            "swap nearly full at failure: {final_swap}"
        );
    }
}
