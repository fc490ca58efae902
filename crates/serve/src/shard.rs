//! Shard workers: per-host prediction state behind bounded queues.
//!
//! The seed FMS funnels every connection into one `Mutex<DataHistory>`;
//! fine for passive collection, but an online predictor does real work per
//! datapoint (window aggregation + model evaluation), so a global lock
//! would serialize the whole fleet. The serve path shards instead:
//!
//! ```text
//!       reactors ──bounded channel──▶ shard worker 0 ─┐
//!       (decode)  ──bounded channel──▶ shard worker 1 ─┼─▶ estimate board
//!                 ──bounded channel──▶ shard worker N ─┘   + pushed alerts
//! ```
//!
//! A host is pinned to shard `host % n_shards`, so all of its events are
//! processed in order by a single worker and per-host state needs no
//! locking at all. The channels are *bounded*: a reactor whose shard
//! queue is full parks the event and stops reading that connection, so a
//! slow shard applies backpressure through TCP instead of dropping frames.

use crate::metrics::ServeMetrics;
use crate::registry::{ModelEntry, ModelRegistry};
use f2pm::{predict_many, OnlinePredictor, RejuvenationPolicy};
use f2pm_monitor::wire::Message;
use f2pm_monitor::Datapoint;
use parking_lot::RwLock;
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// When a shard worker pushes a rejuvenation [`Message::Alert`].
#[derive(Debug, Clone, Copy)]
pub struct AlertPolicy {
    /// Alert when predicted RTTF ≤ this threshold (s).
    pub rttf_threshold_s: f64,
    /// Require this many consecutive below-threshold estimates (debounce
    /// against single-window noise).
    pub consecutive_hits: usize,
}

impl Default for AlertPolicy {
    fn default() -> Self {
        RejuvenationPolicy::default().into()
    }
}

impl From<RejuvenationPolicy> for AlertPolicy {
    fn from(p: RejuvenationPolicy) -> Self {
        AlertPolicy {
            rttf_threshold_s: p.rttf_threshold_s,
            consecutive_hits: p.consecutive_hits,
        }
    }
}

/// A cloneable, frame-atomic writer to one client connection.
///
/// Frames are appended to the connection's bounded outbound buffer and
/// the owning reactor is woken via eventfd to flush them nonblockingly. A
/// send that would exceed the bound marks the connection dead (slow-
/// consumer eviction) and errors, so the worker unsubscribes exactly as
/// it does on a broken pipe.
#[derive(Clone)]
pub struct ClientWriter {
    sink: Arc<crate::reactor::ReactorSink>,
}

impl ClientWriter {
    /// Wrap a reactor connection's outbound buffer.
    pub(crate) fn new(sink: crate::reactor::ReactorSink) -> Self {
        ClientWriter {
            sink: Arc::new(sink),
        }
    }

    /// Write one whole frame.
    pub fn send(&self, msg: &Message) -> io::Result<()> {
        self.send_all(std::slice::from_ref(msg))
    }

    /// Write every frame contiguously (no interleaving with other
    /// senders), with one lock acquisition and one wakeup.
    pub fn send_all(&self, msgs: &[Message]) -> io::Result<()> {
        if msgs.is_empty() {
            return Ok(());
        }
        self.sink.send_all(msgs)
    }
}

/// Latest published estimate of one host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedEstimate {
    /// Guest time (s) of the window that produced it.
    pub t: f64,
    /// The RTTF estimate (s).
    pub rttf: f64,
    /// Generation of the model that produced it.
    pub generation: u64,
}

/// Seqlock slot holding one host's latest estimate.
///
/// `seq` is 0 while the slot is empty, odd while its (single) writer is
/// mid-update, and a new even value after each publish. Readers snapshot
/// the three payload words and retry when `seq` changed underneath them —
/// so a `PredictRequest` reply never sees `t` from one window paired with
/// `rttf` from another, yet takes no lock at all on the hot read path.
///
/// Single-writer is structural, not policed: a host is pinned to one shard
/// worker, and only that worker publishes or clears it.
struct Slot {
    seq: AtomicU64,
    t_bits: AtomicU64,
    rttf_bits: AtomicU64,
    generation: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            t_bits: AtomicU64::new(0),
            rttf_bits: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Single-writer publish: mark odd, store payload, mark even.
    fn store(&self, est: PublishedEstimate) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s | 1, Ordering::Release);
        self.t_bits.store(est.t.to_bits(), Ordering::Release);
        self.rttf_bits.store(est.rttf.to_bits(), Ordering::Release);
        self.generation.store(est.generation, Ordering::Release);
        self.seq.store((s | 1) + 1, Ordering::Release);
    }

    fn load(&self) -> Option<PublishedEstimate> {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None; // never published
            }
            if s1 & 1 == 1 {
                std::hint::spin_loop(); // writer mid-update (4 stores)
                continue;
            }
            let est = PublishedEstimate {
                t: f64::from_bits(self.t_bits.load(Ordering::Acquire)),
                rttf: f64::from_bits(self.rttf_bits.load(Ordering::Acquire)),
                generation: self.generation.load(Ordering::Acquire),
            };
            if self.seq.load(Ordering::Acquire) == s1 {
                return Some(est);
            }
            std::hint::spin_loop();
        }
    }
}

/// Last-estimate board: shard workers publish, reactors answer
/// `PredictRequest`s from it without touching worker state.
///
/// Read-mostly by design: a host's slot is found through a striped
/// `RwLock` map (shared read access — concurrent readers and the
/// publishing worker never exclude each other once the slot exists) and
/// its payload is read through a [`Slot`] seqlock, so the steady-state
/// `get` takes zero exclusive locks. Writes to the map itself happen only
/// on a host's *first* estimate (slot insert) and on `Fail` (slot
/// removal) — both rare.
pub struct EstimateBoard {
    stripes: Vec<RwLock<HashMap<u32, Arc<Slot>>>>,
}

impl EstimateBoard {
    fn new(stripes: usize) -> Self {
        EstimateBoard {
            stripes: (0..stripes).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn stripe(&self, host: u32) -> &RwLock<HashMap<u32, Arc<Slot>>> {
        &self.stripes[host as usize % self.stripes.len()]
    }

    /// Publish `host`'s newest estimate (called only by the host's shard
    /// worker — the seqlock's single-writer invariant).
    pub fn publish(&self, host: u32, est: PublishedEstimate) {
        let stripe = self.stripe(host);
        let existing = stripe.read().get(&host).cloned(); // read guard dropped here
        let slot = existing.unwrap_or_else(|| {
            Arc::clone(
                stripe
                    .write()
                    .entry(host)
                    .or_insert_with(|| Arc::new(Slot::empty())),
            )
        });
        slot.store(est);
    }

    /// The newest estimate of `host`, if any window has closed. Lock-free
    /// past the shared-read map lookup.
    pub fn get(&self, host: u32) -> Option<PublishedEstimate> {
        let slot = Arc::clone(self.stripe(host).read().get(&host)?);
        slot.load()
    }

    /// Forget `host` (its life ended; stale estimates must not leak into
    /// the next life).
    pub fn clear(&self, host: u32) {
        self.stripe(host).write().remove(&host);
    }

    /// Hosts currently holding a slot (published at least once, not yet
    /// cleared by a `Fail`).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// True when no host has a published estimate.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().is_empty())
    }

    /// The `k` hosts nearest failure (lowest published RTTF, ties broken by
    /// host id for a deterministic order), each with its latest estimate.
    /// The order is total (see `rttf_order`): a NaN estimate ranks after
    /// every number.
    ///
    /// This is how a `TopKRequest` is answered: one shared-read pass
    /// over the stripes and a seqlock load per slot — live connections are
    /// never scanned and no worker is stalled. The ranking is a consistent
    /// snapshot per-host (the seqlock guarantees un-torn estimates), not
    /// across hosts — exactly the semantics a fleet ranking needs.
    pub fn top_k(&self, k: usize) -> Vec<(u32, PublishedEstimate)> {
        if k == 0 {
            return Vec::new();
        }
        let mut all: Vec<(u32, PublishedEstimate)> = Vec::new();
        for stripe in &self.stripes {
            let map = stripe.read();
            for (&host, slot) in map.iter() {
                if let Some(est) = slot.load() {
                    all.push((host, est));
                }
            }
        }
        all.sort_by(|(ha, a), (hb, b)| rttf_order(a.rttf, b.rttf).then_with(|| ha.cmp(hb)));
        all.truncate(k);
        all
    }
}

/// Total nearest-failure order on RTTF estimates: ascending by
/// `f64::total_cmp`, with every NaN (of either sign) after every number,
/// +inf included. `partial_cmp` would leave NaN unordered, which makes a
/// sort's comparator inconsistent (wrong order, or a panic in the
/// standard sort).
pub(crate) fn rttf_order(a: f64, b: f64) -> CmpOrdering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| a.total_cmp(&b))
}

/// One event routed to a shard worker.
pub enum ShardEvent {
    /// A datapoint from `host` to fold into its prediction window.
    Datapoint {
        /// Originating host.
        host: u32,
        /// The sample.
        d: Datapoint,
        /// When the reactor enqueued it (feeds the per-shard
        /// queue-wait histogram, the "queue" stage of the latency
        /// breakdown).
        enqueued: Instant,
    },
    /// `host` met the failure condition at time `t`; its predictor state
    /// and published estimate reset for the next life.
    Fail {
        /// Originating host.
        host: u32,
        /// Failure time (s).
        t: f64,
    },
    /// A connection wants pushed alerts for `host`.
    Subscribe {
        /// Subscribing host.
        host: u32,
        /// Where to push alerts.
        writer: ClientWriter,
    },
    /// `host`'s connection closed; stop pushing alerts.
    Unsubscribe {
        /// Unsubscribing host.
        host: u32,
    },
}

/// Per-host worker state (owned by exactly one shard worker — no locks).
struct HostState {
    predictor: OnlinePredictor,
    /// Consecutive below-threshold estimates so far.
    hits: usize,
    /// Alert sink of the host's live connection, if any.
    writer: Option<ClientWriter>,
}

impl HostState {
    fn new(registry: &Arc<ModelRegistry>) -> Self {
        HostState {
            predictor: OnlinePredictor::new(
                registry.shared_model(),
                registry.columns(),
                registry.agg(),
            ),
            hits: 0,
            writer: None,
        }
    }
}

/// The shard workers plus their input queues.
pub struct ShardPool {
    senders: Vec<crossbeam::channel::Sender<ShardEvent>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    board: Arc<EstimateBoard>,
}

impl ShardPool {
    /// Spawn `n_shards` workers, each behind a bounded queue of
    /// `queue_cap` events, draining up to `batch_cap` events per wakeup
    /// (batched drains amortize one model call over every window that
    /// closed in the batch; `batch_cap = 1` degenerates to the per-event
    /// path and is proven bit-identical by the equivalence tests). With a
    /// continuous-retraining `tap`, every `Datapoint`/`Fail` a worker
    /// processes is also offered (lossy, never blocking) to the
    /// [`crate::retrain::RetrainWorker`] feeding it.
    ///
    /// The sizes come from a [`crate::ServeConfig`] that passed
    /// [`crate::ServeConfig::validate`], so every one is at least 1.
    pub(crate) fn start(
        n_shards: usize,
        queue_cap: usize,
        batch_cap: usize,
        registry: Arc<ModelRegistry>,
        policy: AlertPolicy,
        metrics: Arc<ServeMetrics>,
        tap: Option<crate::retrain::RetrainTap>,
    ) -> Self {
        let board = Arc::new(EstimateBoard::new(n_shards * 4));
        let mut senders = Vec::with_capacity(n_shards);
        let mut workers = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let (tx, rx) = crossbeam::channel::bounded(queue_cap);
            senders.push(tx);
            let registry = Arc::clone(&registry);
            let board = Arc::clone(&board);
            let events = metrics.shard_events(shard);
            let queue_wait = metrics.shard_queue_wait(shard);
            let metrics = Arc::clone(&metrics);
            let tap = tap.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("f2pm-shard-{shard}"))
                    .spawn(move || {
                        worker_loop(
                            rx, batch_cap, registry, policy, board, metrics, events, queue_wait,
                            tap,
                        )
                    })
                    .expect("spawn shard worker"),
            );
        }
        ShardPool {
            senders,
            workers,
            board,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Route one event to `host`'s shard, blocking while its queue is full
    /// (backpressure, never drops). Errors only if the worker died.
    pub fn send(&self, host: u32, event: ShardEvent) -> io::Result<()> {
        let shard = host as usize % self.senders.len();
        self.senders[shard]
            .send(event)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "shard worker gone"))
    }

    /// Non-blocking [`ShardPool::send`]: `Ok(Some(event))` hands the event
    /// back when `host`'s queue is at capacity, so the caller can flush
    /// queued replies *before* parking on the blocking send — replies must
    /// never wait behind ingest backpressure.
    pub fn try_send(&self, host: u32, event: ShardEvent) -> io::Result<Option<ShardEvent>> {
        let shard = host as usize % self.senders.len();
        match self.senders[shard].try_send(event) {
            Ok(()) => Ok(None),
            Err(crossbeam::channel::TrySendError::Full(ev)) => Ok(Some(ev)),
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "shard worker gone",
            )),
        }
    }

    /// Current queue depth per shard.
    pub fn queue_depths(&self) -> Vec<u32> {
        self.senders.iter().map(|s| s.len() as u32).collect()
    }

    /// The shared last-estimate board.
    pub fn board(&self) -> Arc<EstimateBoard> {
        Arc::clone(&self.board)
    }

    /// Drop the queues and wait for every worker to drain and exit.
    pub fn shutdown(self) {
        drop(self.senders);
        for w in self.workers {
            w.join().ok();
        }
    }
}

/// Reusable per-worker batch state: the events drained this wakeup, the
/// deferred `(host, window_t)` pairs whose rows await scoring, the flat
/// row buffer those rows live in, and the estimate output buffer. All four
/// are allocated once and recycled — the steady-state drain loop performs
/// no per-event allocation.
struct BatchState {
    deferred: Vec<(u32, f64)>,
    rows: Vec<f64>,
    estimates: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    rx: crossbeam::channel::Receiver<ShardEvent>,
    batch_cap: usize,
    registry: Arc<ModelRegistry>,
    policy: AlertPolicy,
    board: Arc<EstimateBoard>,
    metrics: Arc<ServeMetrics>,
    events: f2pm_obs::Counter,
    queue_wait: f2pm_obs::Histogram,
    tap: Option<crate::retrain::RetrainTap>,
) {
    let mut hosts: HashMap<u32, HostState> = HashMap::new();
    let width = registry.columns().len();
    let mut batch: Vec<ShardEvent> = Vec::with_capacity(batch_cap);
    let mut state = BatchState {
        deferred: Vec::with_capacity(batch_cap),
        rows: Vec::new(),
        estimates: Vec::new(),
    };
    // Block for the first event of a batch, then opportunistically drain
    // whatever else is already queued (up to `batch_cap`) without blocking
    // again — under load a wakeup processes a whole burst, at low rate it
    // degenerates to the per-event path with zero added latency.
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < batch_cap {
            match rx.try_recv() {
                Ok(event) => batch.push(event),
                Err(_) => break,
            }
        }
        for event in batch.drain(..) {
            events.inc();
            // Mirror ingest into the retraining plane before processing:
            // the offer is lossy and non-blocking, so the tap can never
            // stall a shard (training freshness never outranks latency).
            if let Some(tap) = &tap {
                match &event {
                    ShardEvent::Datapoint { host, d, .. } => tap.offer_datapoint(*host, *d),
                    ShardEvent::Fail { host, t } => tap.offer_fail(*host, *t),
                    _ => {}
                }
            }
            match event {
                ShardEvent::Datapoint { host, d, enqueued } => {
                    queue_wait.record_duration(enqueued.elapsed());
                    let host_state = hosts
                        .entry(host)
                        .or_insert_with(|| HostState::new(&registry));
                    if host_state.predictor.push_deferred(d, &mut state.rows) {
                        state.deferred.push((host, d.t_gen));
                    }
                }
                // Every other event has side effects that must observe the
                // estimates of all earlier datapoints (a deferred publish
                // sneaking past a `Fail` would resurrect a dead host's
                // estimate on the board), so score the pending rows first.
                // This keeps the batched path's observable event order
                // identical to the per-event path's.
                ShardEvent::Fail { host, t: _ } => {
                    flush_deferred(
                        &mut state, width, &mut hosts, &registry, policy, &board, &metrics,
                    );
                    if let Some(host_state) = hosts.get_mut(&host) {
                        host_state.predictor.reset();
                        host_state.hits = 0;
                    }
                    board.clear(host);
                }
                ShardEvent::Subscribe { host, writer } => {
                    flush_deferred(
                        &mut state, width, &mut hosts, &registry, policy, &board, &metrics,
                    );
                    hosts
                        .entry(host)
                        .or_insert_with(|| HostState::new(&registry))
                        .writer = Some(writer);
                }
                ShardEvent::Unsubscribe { host } => {
                    flush_deferred(
                        &mut state, width, &mut hosts, &registry, policy, &board, &metrics,
                    );
                    if let Some(host_state) = hosts.get_mut(&host) {
                        host_state.writer = None;
                    }
                }
            }
        }
        flush_deferred(
            &mut state, width, &mut hosts, &registry, policy, &board, &metrics,
        );
    }
}

/// Score every deferred window row of the batch with **one**
/// `predict_batch` call, then publish board entries, record estimates and
/// evaluate alerts in the original per-host arrival order.
///
/// The model entry is captured once, so every estimate of a flush carries
/// one consistent generation (an install landing mid-flush takes effect at
/// the next flush — same semantics a per-event loop has at event
/// granularity).
fn flush_deferred(
    state: &mut BatchState,
    width: usize,
    hosts: &mut HashMap<u32, HostState>,
    registry: &Arc<ModelRegistry>,
    policy: AlertPolicy,
    board: &EstimateBoard,
    metrics: &ServeMetrics,
) {
    if state.deferred.is_empty() {
        return;
    }
    let entry: Arc<ModelEntry> = registry.current();
    let started = Instant::now();
    state.estimates.clear();
    let n = match predict_many(
        entry.model.as_ref(),
        width,
        &mut state.rows,
        &mut state.estimates,
    ) {
        Ok(n) => n,
        Err(_) => {
            // Unreachable with a width-checked registry model; drop the
            // batch rather than poison the worker.
            debug_assert!(false, "predict_many failed on registry model");
            state.deferred.clear();
            state.rows.clear();
            return;
        }
    };
    // Amortized per-estimate model time: the whole-batch call divided
    // evenly. Keeps the estimate-latency histogram comparable with the
    // per-event path while charging each estimate its true marginal cost.
    let per_estimate = started.elapsed() / n.max(1) as u32;
    for (&(host, t), &rttf) in state.deferred.iter().zip(state.estimates.iter()) {
        metrics.estimate(per_estimate);
        let Some(host_state) = hosts.get_mut(&host) else {
            continue;
        };
        host_state.predictor.record_estimate(rttf);
        board.publish(
            host,
            PublishedEstimate {
                t,
                rttf,
                generation: entry.generation,
            },
        );
        evaluate_alert(host, t, rttf, host_state, policy, metrics);
    }
    state.deferred.clear();
}

fn evaluate_alert(
    host: u32,
    t: f64,
    rttf: f64,
    state: &mut HostState,
    policy: AlertPolicy,
    metrics: &ServeMetrics,
) {
    if rttf > policy.rttf_threshold_s {
        state.hits = 0;
        return;
    }
    state.hits += 1;
    if state.hits < policy.consecutive_hits {
        return;
    }
    state.hits = 0;
    metrics.alert();
    if let Some(writer) = &state.writer {
        let alert = Message::Alert {
            host_id: host,
            t,
            rttf,
            threshold: policy.rttf_threshold_s,
        };
        if writer.send(&alert).is_err() {
            // Client went away mid-push; its reactor will unsubscribe,
            // we just stop writing into the broken pipe.
            state.writer = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_features::AggregationConfig;
    use f2pm_ml::linreg::LinearModel;
    use f2pm_ml::SavedModel;
    use f2pm_monitor::FeatureId;
    use std::time::Duration;

    /// rttf = 1000 − 2 × swap_used, over a 30 s / 2-point window.
    fn test_registry() -> Arc<ModelRegistry> {
        ModelRegistry::new(
            SavedModel::Linear(LinearModel {
                intercept: 1000.0,
                coefficients: vec![-2.0, 0.0],
            }),
            vec!["swap_used".to_string(), "swap_used_slope".to_string()],
            AggregationConfig {
                window_s: 30.0,
                min_points: 2,
                ..AggregationConfig::default()
            },
        )
        .unwrap()
    }

    fn dp(t: f64, swap: f64) -> Datapoint {
        let mut d = Datapoint {
            t_gen: t,
            values: [1.0; 14],
        };
        d.set(FeatureId::SwapUsed, swap);
        d
    }

    fn wait_for<F: Fn() -> bool>(cond: F) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("condition not reached in time");
    }

    fn datapoint_event(host: u32, d: Datapoint) -> ShardEvent {
        ShardEvent::Datapoint {
            host,
            d,
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn hosts_keep_isolated_estimates_across_shards() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = ShardPool::start(
            2,
            64,
            32,
            test_registry(),
            AlertPolicy::default(),
            Arc::clone(&metrics),
            None,
        );
        let board = pool.board();
        // Interleave three hosts at different swap levels; windows close
        // every 30 s of guest time.
        for i in 0..30 {
            let t = i as f64 * 5.0;
            for (host, swap) in [(1u32, 100.0), (2, 200.0), (7, 300.0)] {
                pool.send(host, datapoint_event(host, dp(t, swap))).unwrap();
            }
        }
        wait_for(|| [1u32, 2, 7].iter().all(|&h| board.get(h).is_some()));
        assert_eq!(board.get(1).unwrap().rttf, 800.0);
        assert_eq!(board.get(2).unwrap().rttf, 600.0);
        assert_eq!(board.get(7).unwrap().rttf, 400.0);
        assert_eq!(board.get(1).unwrap().generation, 1);
        assert!(board.get(99).is_none());
        pool.shutdown();
        let snap = metrics.snapshot(vec![], 1);
        assert!(snap.estimates >= 3);
        assert_eq!(snap.alerts, 0, "all estimates far above threshold");
    }

    #[test]
    fn fail_resets_host_state_and_board() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = ShardPool::start(
            1,
            64,
            32,
            test_registry(),
            AlertPolicy::default(),
            Arc::clone(&metrics),
            None,
        );
        let board = pool.board();
        for i in 0..10 {
            pool.send(4, datapoint_event(4, dp(i as f64 * 5.0, 100.0)))
                .unwrap();
        }
        wait_for(|| board.get(4).is_some());
        pool.send(4, ShardEvent::Fail { host: 4, t: 50.0 }).unwrap();
        wait_for(|| board.get(4).is_none());
        pool.shutdown();
    }

    #[test]
    fn alert_fires_after_consecutive_hits_only() {
        let metrics = Arc::new(ServeMetrics::new());
        let policy = AlertPolicy {
            rttf_threshold_s: 180.0,
            consecutive_hits: 2,
        };
        let pool = ShardPool::start(
            1,
            64,
            32,
            test_registry(),
            policy,
            Arc::clone(&metrics),
            None,
        );
        // swap 450 → rttf 100 ≤ 180: every closed window is a hit. Close
        // enough windows for ≥ 2 consecutive hits.
        for i in 0..30 {
            pool.send(5, datapoint_event(5, dp(i as f64 * 5.0, 450.0)))
                .unwrap();
        }
        wait_for(|| metrics.snapshot(vec![], 1).alerts >= 1);
        pool.shutdown();
        let snap = metrics.snapshot(vec![], 1);
        assert!(snap.alerts >= 1);
        // Debounce: one alert per `consecutive_hits` window closures, so
        // alerts ≤ estimates / 2.
        assert!(snap.alerts <= snap.estimates / 2, "{snap:?}");
    }

    #[test]
    fn blocking_send_applies_backpressure_without_loss() {
        let metrics = Arc::new(ServeMetrics::new());
        // Tiny queue, one shard: the sender must block, not drop.
        let pool = ShardPool::start(
            1,
            2,
            4,
            test_registry(),
            AlertPolicy::default(),
            Arc::clone(&metrics),
            None,
        );
        let n = 500u64;
        for i in 0..n {
            pool.send(0, datapoint_event(0, dp(i as f64, 100.0)))
                .unwrap();
        }
        pool.shutdown(); // joins after the queue fully drains
        let snap = metrics.snapshot(vec![], 1);
        assert!(snap.estimates > 0);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn queue_wait_histogram_records_per_shard() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = ShardPool::start(
            2,
            64,
            32,
            test_registry(),
            AlertPolicy::default(),
            Arc::clone(&metrics),
            None,
        );
        for i in 0..20 {
            for host in [0u32, 1] {
                pool.send(host, datapoint_event(host, dp(i as f64 * 5.0, 100.0)))
                    .unwrap();
            }
        }
        pool.shutdown();
        for shard in ["0", "1"] {
            let snap = metrics
                .registry()
                .histogram_snapshot_with("f2pm_serve_shard_queue_wait_us", "shard", shard)
                .expect("queue-wait histogram registered");
            assert!(snap.count >= 20, "shard {shard}: {}", snap.count);
        }
    }

    #[test]
    fn estimate_board_reads_never_tear_under_concurrent_publish() {
        use std::sync::atomic::AtomicBool;

        let board = Arc::new(EstimateBoard::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let board = Arc::clone(&board);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    board.publish(
                        9,
                        PublishedEstimate {
                            t: k as f64,
                            rttf: 2.0 * k as f64,
                            generation: k,
                        },
                    );
                    k += 1;
                }
                k
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let board = Arc::clone(&board);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let Some(est) = board.get(9) {
                            // A torn read would pair t from one publish
                            // with rttf/generation from another.
                            assert_eq!(est.rttf, 2.0 * est.t, "torn estimate {est:?}");
                            assert_eq!(est.generation as f64, est.t, "torn estimate {est:?}");
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        let published = publisher.join().unwrap();
        let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(published > 1_000, "publisher starved: {published}");
        assert!(reads > 1_000, "readers starved: {reads}");
    }

    fn est(rttf: f64) -> PublishedEstimate {
        PublishedEstimate {
            t: 1.0,
            rttf,
            generation: 1,
        }
    }

    /// Non-finite estimates never break the ranking: NaN (either sign)
    /// ranks after every number, +inf after every finite value, −inf
    /// first, and the order is a total one (a stable, repeatable sort).
    #[test]
    fn top_k_orders_nan_and_infinities_totally() {
        let board = EstimateBoard::new(4);
        for (host, rttf) in [
            (1, 300.0),
            (2, f64::NAN),
            (3, f64::INFINITY),
            (4, 50.0),
            (5, -f64::NAN),
            (6, f64::NEG_INFINITY),
            (7, 50.0),
            (8, 0.0),
        ] {
            board.publish(host, est(rttf));
        }
        let hosts = |k| -> Vec<u32> { board.top_k(k).into_iter().map(|(h, _)| h).collect() };
        // −inf, then finite ascending (ties by host), then +inf, then NaNs.
        // −NaN sorts before +NaN under total_cmp.
        assert_eq!(hosts(8), vec![6, 8, 4, 7, 1, 3, 5, 2]);
        assert_eq!(hosts(3), vec![6, 8, 4], "finite estimates outrank NaN");
        assert_eq!(hosts(usize::MAX), hosts(8), "k past the board is the board");
    }
}
