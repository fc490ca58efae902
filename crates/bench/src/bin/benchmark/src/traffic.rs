//! Open-loop FMC traffic from one generator against an in-process server.
//!
//! The generator is two threads and two connections (the 2-thread box's
//! `nproc`): the calling thread sends on both connections on schedule,
//! and one receiver thread waits in `poll(2)` on both and timestamps
//! every frame the moment its read returns. Each connection speaks for
//! one simulated host. Scripts are whole simulated lives, pregenerated in
//! set-up and replayed cyclically; a life ends with its `Fail`.
//!
//! The server pushes every closed window's estimate as an `Alert` (the
//! workloads serve with an infinite alert threshold and one hit), so the
//! latency from the window-closing datapoint's due time to its estimate
//! is visible from outside. Every 10th datapoint of a host is followed by
//! a `PredictRequest`. Scrapes travel on connection 0 as v3
//! `MetricsRequest`s.
//!
//! Replies are attributed to the phase their request was due in. Every
//! phase counts them and tallies their latencies against the rung limits;
//! only a phase marked `keep` stores each latency, so the generator's own
//! memory stays small beside the server's at any rate.

use crate::openloop::{
    micros_after, Schedule, Tally, ESTIMATE_P99_LIMIT_US, LATENESS_P99_LIMIT_US,
};
use bytes::BytesMut;
use f2pm::OnlinePredictor;
use f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_features::{aggregate_run, AggregationConfig, Dataset};
use f2pm_ml::linreg::LinearModel;
use f2pm_monitor::wire::{FrameDecoder, Message, PROTOCOL_VERSION};
use f2pm_monitor::{Collector, Datapoint, RunData, SimCollector, SimCollectorConfig};
use f2pm_sim::{AnomalyConfig, SimConfig, Simulation};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Connections (= simulated hosts) the generator drives.
pub const HOSTS: usize = 2;

/// A `PredictRequest` follows every this-many datapoints of a host.
pub const PREDICT_EVERY: u64 = 10;

/// Due times kept per host for matching replies; a reply arriving more
/// than this many datapoints after its request is counted as failed.
const RING: usize = 1 << 18;

/// Slots per closed-loop round: every host's next [`PREDICT_EVERY`]
/// datapoints, the last one followed by its predict request.
const CLOSED_LOOP_BATCH: u64 = HOSTS as u64 * PREDICT_EVERY;

/// How often the sender calls the workload's tick (the refresh
/// workload's `StoreWatcher::poll`).
pub const TICK_EVERY: Duration = Duration::from_millis(5);

/// The serve workloads' aggregation: 30 s windows of at least 2 points.
pub fn agg() -> AggregationConfig {
    AggregationConfig {
        window_s: 30.0,
        min_points: 2,
        ..AggregationConfig::default()
    }
}

/// One simulated life: its datapoints and the `Fail` that ends it.
#[derive(Debug, Clone)]
pub struct Life {
    /// Datapoints in send order.
    pub datapoints: Vec<Datapoint>,
    /// The guest's failure time.
    pub fail_t: f64,
    /// The windows this life closes, from the set-up replay.
    pub windows: Vec<Window>,
}

impl Life {
    /// The life as a labeled run.
    pub fn run(&self) -> RunData {
        RunData {
            datapoints: self.datapoints.clone(),
            fail_time: Some(self.fail_t),
        }
    }
}

/// A linear model fitted on the labeled windows of `lives`.
pub fn fit_linear<'a>(lives: impl IntoIterator<Item = &'a Life>) -> LinearModel {
    let points: Vec<_> = lives
        .into_iter()
        .flat_map(|life| aggregate_run(&life.run(), &agg()))
        .collect();
    let ds = Dataset::from_points_with(&points, &agg());
    LinearModel::fit(&ds.x, &ds.y).expect("fitting a linear model on the scripts")
}

/// One window a life's datapoints close, as an `OnlinePredictor` sees it.
#[derive(Debug, Clone)]
pub struct Window {
    /// Index (within the life) of the datapoint that closes the window.
    pub closing: usize,
    /// `t_gen` of that datapoint (the pushed estimate's `t`).
    pub t: f64,
    /// The model-input row (all aggregated columns).
    pub row: Vec<f64>,
}

/// A host's script: whole lives, replayed cyclically.
#[derive(Debug, Clone)]
pub struct Script {
    /// Lives in send order (never empty).
    pub lives: Vec<Life>,
}

/// Loadgen's aggressive anomaly settings: guests degrade and die within a
/// few hundred datapoints, so `Fail`s arrive inline.
fn aggressive_sim(seed: u64) -> Simulation {
    Simulation::new(
        SimConfig {
            anomaly: AnomalyConfig {
                leak_size_mib: (6.0, 10.0),
                leak_prob_per_home: (0.8, 0.9),
                ..AnomalyConfig::default()
            },
            ..SimConfig::default()
        },
        seed,
    )
}

/// Simulate whole lives of one host until at least `datapoints` are
/// collected, and replay each through an `OnlinePredictor` to find the
/// windows it closes.
pub fn make_script(seed: u64, host: u32, datapoints: usize) -> Script {
    let mut lives = Vec::new();
    let mut total = 0;
    let mut life_no = 0u64;
    while total < datapoints || lives.is_empty() {
        let life_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(host) << 32 | life_no);
        life_no += 1;
        let mut collector = SimCollector::new(
            aggressive_sim(life_seed),
            SimCollectorConfig::default(),
            life_seed,
        );
        let mut points = Vec::new();
        while let Some(d) = collector.collect() {
            points.push(d);
        }
        let Some(fail_t) = collector.simulation().failed_at() else {
            continue;
        };
        if points.is_empty() {
            continue;
        }
        total += points.len();
        let windows = replay_windows(&points);
        lives.push(Life {
            datapoints: points,
            fail_t,
            windows,
        });
    }
    Script { lives }
}

/// The windows `points` close when pushed through a fresh
/// `OnlinePredictor` (the serve shard's per-host state).
pub fn replay_windows(points: &[Datapoint]) -> Vec<Window> {
    let columns = aggregated_column_names_with(&agg());
    let probe = LinearModel::constant(0.0, columns.len());
    let mut predictor = OnlinePredictor::new(Box::new(probe), &columns, agg());
    let mut rows = Vec::new();
    let mut windows = Vec::new();
    for (i, d) in points.iter().enumerate() {
        if predictor.push_deferred(*d, &mut rows) {
            windows.push(Window {
                closing: i,
                t: d.t_gen,
                row: std::mem::take(&mut rows),
            });
        }
    }
    windows
}

/// One phase of the run: a rate (datapoints per second over both hosts)
/// held for a duration, then a scrape that waits for the server to catch
/// up. A phase without a rate is a closed loop: each round, every
/// connection sends [`PREDICT_EVERY`] datapoints and a predict request,
/// and the next round starts once every reply is in.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Offered rate, or `None` for closed loop.
    pub rate: Option<f64>,
    /// How long the phase sends.
    pub duration: Duration,
    /// Keep every latency sample of the phase (the phase the end-to-end
    /// result comes from); other phases only tally theirs.
    pub keep: bool,
}

/// A pushed estimate as received.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    /// The estimate's `t`.
    pub t: f64,
    /// RTTF as pushed.
    pub rttf: f64,
    /// Due time of the window-closing datapoint.
    pub due: Instant,
    /// When the frame's read returned.
    pub arrived: Instant,
}

/// Checks a pushed estimate against the script window it closes; runs on
/// the receiver thread as each estimate arrives.
pub type Verify<'a> = &'a (dyn Fn(&Received, &Window) -> bool + Sync);

/// A request's round trip: a pushed estimate or a predict reply.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrip {
    /// Due time of the request.
    pub due: Instant,
    /// When the reply's read returned.
    pub arrived: Instant,
}

/// What came back for the requests due in one phase.
#[derive(Debug, Clone)]
pub struct Replies {
    /// Pushed estimates received.
    pub estimates: u64,
    /// Of those, estimates that failed verification.
    pub wrong: u64,
    /// Estimate latencies against the rung limit.
    pub estimate_us: Tally,
    /// Predict replies received.
    pub predicts: u64,
    /// Every estimate's round trip (kept phases only).
    pub estimate_trips: Vec<RoundTrip>,
    /// Every predict round trip (kept phases only).
    pub predict_trips: Vec<RoundTrip>,
}

impl Replies {
    fn new() -> Replies {
        Replies {
            estimates: 0,
            wrong: 0,
            estimate_us: Tally::new(ESTIMATE_P99_LIMIT_US),
            predicts: 0,
            estimate_trips: Vec::new(),
            predict_trips: Vec::new(),
        }
    }
}

/// What the sender saw in one phase.
#[derive(Debug, Clone)]
pub struct PhaseLog {
    /// The phase as configured.
    pub phase: Phase,
    /// Due time of the phase's first slot.
    pub start: Instant,
    /// When the phase's last write returned.
    pub end: Instant,
    /// Datapoints sent in the phase.
    pub datapoints: u64,
    /// Predict requests sent in the phase.
    pub predicts: u64,
    /// Window-closing datapoints sent in the phase.
    pub windows: u64,
    /// Per-datapoint lateness (µs from due to the start of its write)
    /// against the rung limit.
    pub lateness: Tally,
    /// Every lateness sample (kept phases only).
    pub lateness_us: Vec<f64>,
    /// Time from `end` until the scraped datapoint count equalled the
    /// total sent; `None` if it never did within the settle limit.
    pub settled_after: Option<Duration>,
    /// The last scrape of the phase.
    pub scrape: String,
    /// Replies to the phase's requests.
    pub replies: Replies,
}

impl PhaseLog {
    /// Datapoints per second actually sent.
    pub fn achieved_rate(&self) -> f64 {
        let secs = self.end.saturating_duration_since(self.start).as_secs_f64();
        self.datapoints as f64 / secs.max(1e-9)
    }

    /// Due-to-arrival latencies (µs) of the phase's estimates and predict
    /// replies; empty unless the phase was kept.
    pub fn latencies(&self) -> (Vec<f64>, Vec<f64>) {
        let us = |trips: &[RoundTrip]| {
            trips
                .iter()
                .map(|r| micros_after(r.due, r.arrived))
                .collect()
        };
        (
            us(&self.replies.estimate_trips),
            us(&self.replies.predict_trips),
        )
    }
}

/// Everything one traffic run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Per-phase sender logs, with the replies to each phase.
    pub phases: Vec<PhaseLog>,
    /// Every `Fail` in send order: when it was written, the host, and the
    /// life it ended.
    pub fails: Vec<(Instant, usize, usize)>,
    /// Window-closing datapoints sent (estimates expected).
    pub windows_sent: u64,
    /// Predict requests sent (replies expected).
    pub predicts_sent: u64,
    /// Datapoints sent.
    pub datapoints_sent: u64,
    /// The server's datapoint counter before the first phase.
    pub datapoints_before: u64,
    /// Protocol failures: unexpected or undecodable frames, estimates
    /// beyond the script, replies too late to match or due in no phase.
    pub protocol_failures: u64,
    /// The final scrape after every estimate arrived (or gave up).
    pub final_scrape: String,
    /// CPU seconds the process spent outside the generator's two threads
    /// while the traffic ran: the server's share.
    pub server_cpu_s: f64,
}

impl Outcome {
    /// `(estimates received, of those wrong, predict replies received)`
    /// over every phase.
    pub fn replies(&self) -> (u64, u64, u64) {
        self.phases.iter().fold((0, 0, 0), |(e, w, p), l| {
            (
                e + l.replies.estimates,
                w + l.replies.wrong,
                p + l.replies.predicts,
            )
        })
    }
}

/// User + system CPU seconds from a `/proc/.../stat` file (the process's
/// or one thread's); 0 where it cannot be read.
pub fn cpu_seconds(stat_path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the file, in clock ticks of 1/100 s.
    let rest = text.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Per-host sender cursor over the cyclic script.
struct Cursor {
    life: usize,
    point: usize,
    /// Datapoints sent by this host so far (the ring index).
    sent: u64,
    predicts: u64,
}

/// State the sender shares with the receiver.
struct Shared {
    origin: Instant,
    /// Due time (ns since `origin`) of each host's datapoint `i`, at
    /// `i % RING`.
    due: Vec<Vec<AtomicU64>>,
    /// Datapoints each host has recorded a due time for.
    recorded: Vec<AtomicU64>,
    /// Pushed estimates the receiver has taken in.
    estimates_seen: AtomicU64,
    /// Predict replies the receiver has taken in; a closed-loop sender
    /// sleeps on `reply_cv` until its round's replies are all in.
    replies_seen: Mutex<u64>,
    reply_cv: Condvar,
    /// Start and `keep` flag of every phase begun so far; a phase is
    /// listed before any of its due times is recorded.
    phases: Mutex<Vec<(Instant, bool)>>,
    stop: AtomicBool,
}

impl Shared {
    fn due_of(&self, host: usize, index: u64) -> Option<Instant> {
        let recorded = self.recorded[host].load(Ordering::Acquire);
        if index >= recorded || recorded - index > RING as u64 {
            return None;
        }
        let ns = self.due[host][index as usize % RING].load(Ordering::Acquire);
        Some(self.origin + Duration::from_nanos(ns))
    }

    /// The phase a due time falls in, and whether it is kept.
    fn phase_of(&self, due: Instant) -> Option<(usize, bool)> {
        let phases = self.phases.lock().expect("phase list poisoned");
        let i = phases.iter().rposition(|&(start, _)| start <= due)?;
        Some((i, phases[i].1))
    }
}

/// Drive `phases` against the server at `addr` with one script per host.
/// `tick` runs on the sender thread at most every [`TICK_EVERY`]; it is
/// where the refresh workload hot-reloads published models. `verify`
/// checks every pushed estimate.
pub fn run(
    addr: SocketAddr,
    scripts: &[Script; HOSTS],
    phases: &[Phase],
    tick: &mut dyn FnMut(Instant),
    verify: Verify<'_>,
) -> std::io::Result<Outcome> {
    let mut conns = Vec::with_capacity(HOSTS);
    for host in 0..HOSTS {
        let mut s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Message::Hello {
            version: PROTOCOL_VERSION,
            host_id: host as u32,
        }
        .write_to(&mut s)?;
        conns.push(s);
    }
    let readers: Vec<TcpStream> = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<Result<_, _>>()?;
    let origin = Instant::now();
    let shared = Shared {
        origin,
        due: (0..HOSTS)
            .map(|_| (0..RING).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        recorded: (0..HOSTS).map(|_| AtomicU64::new(0)).collect(),
        estimates_seen: AtomicU64::new(0),
        replies_seen: Mutex::new(0),
        reply_cv: Condvar::new(),
        phases: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    };
    let (scrape_tx, scrape_rx) = mpsc::channel::<String>();

    let process_cpu = cpu_seconds("/proc/self/stat");
    let sender_cpu = cpu_seconds("/proc/thread-self/stat");
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(readers, scripts, &shared, scrape_tx, verify));
        let sent = send(&mut conns, scripts, phases, &shared, &scrape_rx, tick);
        // Closing our write halves lets the server finish each connection;
        // the receiver then reads to EOF. The stop flag bounds the wait.
        for c in &conns {
            Message::Bye.write_to(&mut &*c).ok();
            c.shutdown(Shutdown::Write).ok();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !receiver.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        shared.stop.store(true, Ordering::SeqCst);
        let received = receiver.join().expect("receiver thread panicked");
        let mut sent = sent?;
        for (log, replies) in sent.phases.iter_mut().zip(received.phases) {
            log.replies = replies;
        }
        sent.protocol_failures += received.failures;
        let generator_cpu = cpu_seconds("/proc/thread-self/stat") - sender_cpu + received.cpu_s;
        sent.server_cpu_s = cpu_seconds("/proc/self/stat") - process_cpu - generator_cpu;
        Ok(sent)
    })
}

/// Queue one slot of `host` (its next datapoint, plus a predict request
/// and the life's `Fail` where due) and report whether the datapoint
/// closes a window and whether a predict request followed it.
fn push_slot(
    buf: &mut BytesMut,
    host: u32,
    cursor: &mut Cursor,
    script: &Script,
    fails: &mut Vec<(Instant, usize, usize)>,
    now: Instant,
) -> (bool, bool) {
    let life = &script.lives[cursor.life];
    let d = life.datapoints[cursor.point];
    Message::Datapoint(d).encode_into(buf);
    let closes = life.windows.iter().any(|w| w.closing == cursor.point);
    cursor.sent += 1;
    cursor.point += 1;
    let predict = cursor.sent.is_multiple_of(PREDICT_EVERY);
    if predict {
        Message::PredictRequest { host_id: host }.encode_into(buf);
        cursor.predicts += 1;
    }
    if cursor.point == life.datapoints.len() {
        Message::Fail { t: life.fail_t }.encode_into(buf);
        fails.push((now, host as usize, cursor.life));
        cursor.point = 0;
        cursor.life = (cursor.life + 1) % script.lives.len();
    }
    (closes, predict)
}

fn send(
    conns: &mut [TcpStream],
    scripts: &[Script; HOSTS],
    phases: &[Phase],
    shared: &Shared,
    scrape_rx: &mpsc::Receiver<String>,
    tick: &mut dyn FnMut(Instant),
) -> std::io::Result<Outcome> {
    let mut cursors: Vec<Cursor> = (0..HOSTS)
        .map(|_| Cursor {
            life: 0,
            point: 0,
            sent: 0,
            predicts: 0,
        })
        .collect();
    let mut bufs: Vec<BytesMut> = (0..HOSTS).map(|_| BytesMut::new()).collect();
    let mut fails = Vec::new();
    let mut logs = Vec::new();
    let mut windows_sent = 0u64;
    Message::MetricsRequest.write_to(&mut conns[0])?;
    let before = scrape_rx
        .recv_timeout(SETTLE_LIMIT)
        .map_err(|_| std::io::Error::other("no scrape reply"))?;
    let datapoints_before = metric(&before, "f2pm_serve_datapoints_total").unwrap_or(0.0) as u64;
    let mut last_tick = Instant::now();
    tick(last_tick);
    for &phase in phases {
        let start = Instant::now();
        shared
            .phases
            .lock()
            .expect("phase list poisoned")
            .push((start, phase.keep));
        let sched = phase.rate.map(|rate| Schedule { start, rate });
        let slots = phase
            .rate
            .map(|r| (r * phase.duration.as_secs_f64()).ceil() as u64);
        let stop_at = start + phase.duration;
        let mut log = PhaseLog {
            phase,
            start,
            end: start,
            datapoints: 0,
            predicts: 0,
            windows: 0,
            lateness: Tally::new(LATENESS_P99_LIMIT_US),
            lateness_us: Vec::new(),
            settled_after: None,
            scrape: String::new(),
            replies: Replies::new(),
        };
        let mut k = 0u64;
        let mut dues = Vec::new();
        loop {
            let now = Instant::now();
            let upto = match (sched, slots) {
                (Some(s), Some(n)) => s.due_by(now).min(n),
                _ if now >= stop_at => k,
                _ => k + CLOSED_LOOP_BATCH,
            };
            if upto > k {
                dues.clear();
                let fails_before = fails.len();
                for slot in k..upto {
                    let host = (slot % HOSTS as u64) as usize;
                    let due = sched.map_or(now, |s| s.due(slot));
                    let cursor = &mut cursors[host];
                    let index = cursor.sent;
                    shared.due[host][index as usize % RING].store(
                        due.saturating_duration_since(shared.origin).as_nanos() as u64,
                        Ordering::Release,
                    );
                    let (closes, predict) = push_slot(
                        &mut bufs[host],
                        host as u32,
                        cursor,
                        &scripts[host],
                        &mut fails,
                        now,
                    );
                    shared.recorded[host].store(cursor.sent, Ordering::Release);
                    log.datapoints += 1;
                    log.predicts += u64::from(predict);
                    log.windows += u64::from(closes);
                    dues.push(due);
                }
                let write_at = Instant::now();
                for (conn, buf) in conns.iter_mut().zip(bufs.iter_mut()) {
                    if !buf.is_empty() {
                        conn.write_all(buf)?;
                        buf.clear();
                    }
                }
                for f in &mut fails[fails_before..] {
                    f.0 = write_at;
                }
                for &due in &dues {
                    let late = micros_after(due, write_at);
                    log.lateness.add(late);
                    if phase.keep {
                        log.lateness_us.push(late);
                    }
                }
                log.end = Instant::now();
                k = upto;
                if sched.is_none() {
                    let asked: u64 = cursors.iter().map(|c| c.predicts).sum();
                    let seen = shared.replies_seen.lock().expect("reply counter poisoned");
                    let (seen, wait) = shared
                        .reply_cv
                        .wait_timeout_while(seen, SETTLE_LIMIT, |seen| *seen < asked)
                        .expect("reply counter poisoned");
                    drop(seen);
                    if wait.timed_out() {
                        return Err(std::io::Error::other("no predict reply"));
                    }
                }
            }
            let now = Instant::now();
            if now.duration_since(last_tick) >= TICK_EVERY {
                tick(now);
                last_tick = now;
            }
            let done = match slots {
                Some(n) => k >= n,
                None => now >= stop_at,
            };
            if done {
                break;
            }
            if let Some(s) = sched {
                let wake = s.due(k).min(last_tick + TICK_EVERY);
                if let Some(wait) = wake.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
        }
        windows_sent += log.windows;
        let total = datapoints_before + cursors.iter().map(|c| c.sent).sum::<u64>();
        settle(conns, scrape_rx, &mut log, total, tick)?;
        logs.push(log);
    }

    // Every estimate must be in before the connections close: the server
    // stops pushing to a connection once it has processed its `Bye`.
    let deadline = Instant::now() + DRAIN_LIMIT;
    while shared.estimates_seen.load(Ordering::SeqCst) < windows_sent && Instant::now() < deadline {
        tick(Instant::now());
        std::thread::sleep(Duration::from_millis(1));
    }

    let datapoints_sent: u64 = cursors.iter().map(|c| c.sent).sum();
    let predicts_sent: u64 = cursors.iter().map(|c| c.predicts).sum();
    Ok(Outcome {
        final_scrape: logs.last().map(|l| l.scrape.clone()).unwrap_or_default(),
        phases: logs,
        fails,
        windows_sent,
        predicts_sent,
        datapoints_sent,
        datapoints_before,
        protocol_failures: 0,
        server_cpu_s: 0.0,
    })
}

/// How long a phase waits for the server to catch up before its settle
/// is recorded as failed.
const SETTLE_LIMIT: Duration = Duration::from_secs(10);

/// How long the run waits for outstanding estimates before closing.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Scrape on connection 0 until the server's datapoint counter equals
/// what was sent, ticking meanwhile.
fn settle(
    conns: &mut [TcpStream],
    scrape_rx: &mpsc::Receiver<String>,
    log: &mut PhaseLog,
    sent: u64,
    tick: &mut dyn FnMut(Instant),
) -> std::io::Result<()> {
    loop {
        Message::MetricsRequest.write_to(&mut conns[0])?;
        let text = scrape_rx
            .recv_timeout(SETTLE_LIMIT)
            .map_err(|_| std::io::Error::other("no scrape reply"))?;
        let now = Instant::now();
        let caught_up = metric(&text, "f2pm_serve_datapoints_total") == Some(sent as f64);
        log.scrape = text;
        if caught_up {
            log.settled_after = Some(now.saturating_duration_since(log.end));
            return Ok(());
        }
        if now.saturating_duration_since(log.end) > SETTLE_LIMIT {
            return Ok(());
        }
        tick(now);
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What the receiver thread collected.
struct ReceiverLog {
    /// Replies per phase, by the phase their request was due in.
    phases: Vec<Replies>,
    failures: u64,
    /// CPU seconds of the receiver thread.
    cpu_s: f64,
}

impl ReceiverLog {
    /// The replies of the phase `due` falls in, and whether that phase is
    /// kept; `None` when it falls in none.
    fn phase(&mut self, shared: &Shared, due: Instant) -> Option<(&mut Replies, bool)> {
        let (i, keep) = shared.phase_of(due)?;
        if self.phases.len() <= i {
            self.phases.resize_with(i + 1, Replies::new);
        }
        Some((&mut self.phases[i], keep))
    }
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

const POLLIN: std::os::raw::c_short = 0x1;

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

/// Block until at least one of `streams` is readable (or 50 ms pass);
/// returns which are. Errors other than `EINTR` end the wait as "none".
fn wait_readable(streams: &[(usize, &TcpStream)]) -> Vec<usize> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|(_, s)| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout structs (`#[repr(C)]`, matching <poll.h>), and each
    // fd belongs to a stream that outlives the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, 50) };
    if rc <= 0 {
        return Vec::new();
    }
    fds.iter()
        .zip(streams)
        .filter(|(f, _)| f.revents != 0)
        .map(|(_, (i, _))| *i)
        .collect()
}

/// Per-host matching state: where the next expected estimate and predict
/// reply sit in the cyclic script.
struct Expect {
    life: usize,
    window: usize,
    /// Datapoints of the lives before `life` in the current cycle walk.
    base: u64,
    predicts: u64,
}

fn receive(
    mut readers: Vec<TcpStream>,
    scripts: &[Script; HOSTS],
    shared: &Shared,
    scrape_tx: mpsc::Sender<String>,
    verify: Verify<'_>,
) -> ReceiverLog {
    let cpu_at_start = cpu_seconds("/proc/thread-self/stat");
    let mut log = ReceiverLog {
        phases: Vec::new(),
        failures: 0,
        cpu_s: 0.0,
    };
    let mut decoders: Vec<FrameDecoder> = (0..HOSTS).map(|_| FrameDecoder::new()).collect();
    let mut open = [true; HOSTS];
    let mut expect: Vec<Expect> = (0..HOSTS)
        .map(|_| Expect {
            life: 0,
            window: 0,
            base: 0,
            predicts: 0,
        })
        .collect();
    while open.iter().any(|&o| o) && !shared.stop.load(Ordering::SeqCst) {
        let live: Vec<(usize, &TcpStream)> = readers
            .iter()
            .enumerate()
            .filter(|(i, _)| open[*i])
            .collect();
        let ready = wait_readable(&live);
        for host in ready {
            let read = decoders[host].fill_from(&mut readers[host]);
            let arrived = Instant::now();
            match read {
                Ok(0) | Err(_) => {
                    open[host] = false;
                    continue;
                }
                Ok(_) => {}
            }
            loop {
                let msg = match decoders[host].try_frame() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(_) => {
                        log.failures += 1;
                        open[host] = false;
                        break;
                    }
                };
                match msg {
                    Message::Alert { t, rttf, .. } => {
                        shared.estimates_seen.fetch_add(1, Ordering::SeqCst);
                        let placed = next_window(&mut expect[host], &scripts[host]).and_then(
                            |(life, window, index)| {
                                let due = shared.due_of(host, index)?;
                                let w = &scripts[host].lives[life].windows[window];
                                Some((w, due, log.phase(shared, due)?))
                            },
                        );
                        match placed {
                            Some((w, due, (replies, keep))) => {
                                let got = Received {
                                    t,
                                    rttf,
                                    due,
                                    arrived,
                                };
                                replies.estimates += 1;
                                replies.wrong += u64::from(!verify(&got, w));
                                replies.estimate_us.add(micros_after(due, arrived));
                                if keep {
                                    replies.estimate_trips.push(RoundTrip { due, arrived });
                                }
                            }
                            None => log.failures += 1,
                        }
                    }
                    Message::RttfEstimate { .. } => {
                        *shared.replies_seen.lock().expect("reply counter poisoned") += 1;
                        shared.reply_cv.notify_one();
                        let e = &mut expect[host];
                        let index = (e.predicts + 1) * PREDICT_EVERY - 1;
                        e.predicts += 1;
                        let placed = shared
                            .due_of(host, index)
                            .and_then(|due| Some((due, log.phase(shared, due)?)));
                        match placed {
                            Some((due, (replies, keep))) => {
                                replies.predicts += 1;
                                if keep {
                                    replies.predict_trips.push(RoundTrip { due, arrived });
                                }
                            }
                            None => log.failures += 1,
                        }
                    }
                    Message::MetricsText { text } => {
                        scrape_tx.send(text).ok();
                    }
                    _ => log.failures += 1,
                }
            }
        }
    }
    readers.clear();
    log.cpu_s = cpu_seconds("/proc/thread-self/stat") - cpu_at_start;
    log
}

/// Advance a host's expectation to its next window: `(life, window,
/// host-wide index of the closing datapoint)`. `None` only for a script
/// without a single window.
fn next_window(e: &mut Expect, script: &Script) -> Option<(usize, usize, u64)> {
    for _ in 0..=script.lives.len() {
        let life = &script.lives[e.life];
        if let Some(w) = life.windows.get(e.window) {
            let found = (e.life, e.window, e.base + w.closing as u64);
            e.window += 1;
            return Some(found);
        }
        e.base += life.datapoints.len() as u64;
        e.life = (e.life + 1) % script.lives.len();
        e.window = 0;
    }
    None
}

/// One scrape over a connection of its own.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    Message::Hello {
        version: PROTOCOL_VERSION,
        host_id: u32::MAX,
    }
    .write_to(&mut conn)?;
    Message::MetricsRequest.write_to(&mut conn)?;
    let mut decoder = FrameDecoder::new();
    loop {
        match decoder.read_frame(&mut conn)? {
            Some(Message::MetricsText { text }) => {
                Message::Bye.write_to(&mut conn).ok();
                return Ok(text);
            }
            Some(_) => {}
            None => return Err(std::io::Error::other("closed before the scrape reply")),
        }
    }
}

/// First sample of an unlabeled exposition metric.
pub fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Upper bucket bound (µs) holding quantile `q` of a histogram, summed
/// over every label set it is exported with. `None` when it is empty.
pub fn histogram_quantile(text: &str, name: &str, q: f64) -> Option<f64> {
    let prefix = format!("{name}_bucket{{");
    let mut by_bound: Vec<(f64, f64)> = Vec::new();
    for line in text.lines().filter(|l| l.starts_with(&prefix)) {
        let le = line.split("le=\"").nth(1)?.split('"').next()?;
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        let count: f64 = line.rsplit(' ').next()?.parse().ok()?;
        match by_bound.iter_mut().find(|(b, _)| *b == bound) {
            Some((_, c)) => *c += count,
            None => by_bound.push((bound, count)),
        }
    }
    by_bound.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = by_bound.last()?.1;
    if total == 0.0 {
        return None;
    }
    by_bound
        .iter()
        .find(|(_, cum)| *cum >= q * total)
        .map(|&(b, _)| if b.is_finite() { b } else { f64::MAX })
}

/// The serve stages' p50/p99 (µs bucket bounds) and the exact serve
/// counters, from a scrape.
pub fn serve_layers(report: &mut crate::report::Report, text: &str) {
    for (stage, histogram) in [
        ("decode", "f2pm_serve_decode_us"),
        ("queue_wait", "f2pm_serve_shard_queue_wait_us"),
        ("estimate", "f2pm_serve_estimate_latency_us"),
        ("reply", "f2pm_serve_reply_us"),
        ("reactor_turn", "f2pm_serve_reactor_turn_us"),
    ] {
        for (q, suffix) in [(0.5, "p50"), (0.99, "p99")] {
            let v = histogram_quantile(text, histogram, q).unwrap_or(0.0);
            report.layer(&format!("serve.{stage}_{suffix}_us"), v);
        }
    }
    for (name, counter) in [
        ("datapoints", "f2pm_serve_datapoints_total"),
        ("estimates", "f2pm_serve_estimates_total"),
        ("alerts", "f2pm_serve_alerts_total"),
        ("dropped", "f2pm_serve_dropped_frames_total"),
        ("conns_accepted", "f2pm_serve_conns_accepted"),
    ] {
        report.layer(
            &format!("serve.{name}"),
            metric(text, counter).unwrap_or(0.0),
        );
    }
}

/// Record one span per pushed estimate (due → arrival) and per predict
/// round trip of a kept `phase`, request ids unique per kind and
/// sequence.
pub fn request_spans(phase: &PhaseLog, tracer: &mut crate::trace::Tracer) {
    for (i, e) in phase.replies.estimate_trips.iter().enumerate() {
        tracer.record("loadgen.estimate", e.due, e.arrived, i as u64);
    }
    for (i, p) in phase.replies.predict_trips.iter().enumerate() {
        tracer.record("loadgen.predict", p.due, p.arrived, 1 << 48 | i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parsing() {
        let text = "# TYPE f2pm_serve_datapoints_total counter\n\
                    f2pm_serve_datapoints_total 120\n\
                    f2pm_serve_datapoints_total_extra 3\n\
                    h_bucket{shard=\"0\",le=\"1\"} 2\n\
                    h_bucket{shard=\"0\",le=\"2\"} 4\n\
                    h_bucket{shard=\"0\",le=\"+Inf\"} 4\n\
                    h_bucket{shard=\"1\",le=\"1\"} 0\n\
                    h_bucket{shard=\"1\",le=\"2\"} 5\n\
                    h_bucket{shard=\"1\",le=\"+Inf\"} 6\n";
        assert_eq!(metric(text, "f2pm_serve_datapoints_total"), Some(120.0));
        assert_eq!(metric(text, "missing"), None);
        // Summed cumulative counts: le=1 → 2, le=2 → 9, +Inf → 10.
        assert_eq!(histogram_quantile(text, "h", 0.2), Some(1.0));
        assert_eq!(histogram_quantile(text, "h", 0.5), Some(2.0));
        assert_eq!(histogram_quantile(text, "h", 0.99), Some(f64::MAX));
        assert_eq!(histogram_quantile(text, "nothing", 0.5), None);
    }

    #[test]
    fn cyclic_window_expectation() {
        let life = |n: usize, closing: &[usize]| Life {
            datapoints: vec![
                Datapoint {
                    t_gen: 0.0,
                    values: [0.0; 14]
                };
                n
            ],
            fail_t: 1.0,
            windows: closing
                .iter()
                .map(|&c| Window {
                    closing: c,
                    t: c as f64,
                    row: Vec::new(),
                })
                .collect(),
        };
        let script = Script {
            lives: vec![life(5, &[2, 4]), life(3, &[]), life(4, &[1])],
        };
        let mut e = Expect {
            life: 0,
            window: 0,
            base: 0,
            predicts: 0,
        };
        let got: Vec<_> = (0..5).map(|_| next_window(&mut e, &script)).collect();
        // Second cycle starts after 5 + 3 + 4 = 12 datapoints.
        assert_eq!(
            got,
            vec![
                Some((0, 0, 2)),
                Some((0, 1, 4)),
                Some((2, 0, 9)),
                Some((0, 0, 14)),
                Some((0, 1, 16)),
            ]
        );
        let empty = Script {
            lives: vec![life(3, &[])],
        };
        assert_eq!(next_window(&mut e_at_start(), &empty), None);
    }

    fn e_at_start() -> Expect {
        Expect {
            life: 0,
            window: 0,
            base: 0,
            predicts: 0,
        }
    }
}
