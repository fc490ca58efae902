//! Shard workers: per-host prediction state behind bounded queues, and
//! the one place a host's runs are assembled.
//!
//! An online predictor does real work per datapoint (window aggregation +
//! model evaluation), so a global lock over every host's state would
//! serialize the whole fleet. The serve path shards instead:
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
//!
//! With a recorder or a retraining tap ([`RunSinks`]), each worker is also
//! the one place a host's history is assembled. The recorder
//! (`f2pm serve --record DIR`) appends every host's rows to
//! `DIR/host-<id>.csv` at the end of each drained batch and an `F` row at
//! each `Fail`; it writes on the shard thread, so a slow disk backpressures
//! like a full queue instead of dropping rows. With a tap, the worker also
//! buffers each host's open life, and a `Fail` offers it whole, as one
//! run, to the retrain worker.

use crate::metrics::ServeMetrics;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::retrain::{RetrainTap, MAX_RUN_DATAPOINTS};
use f2pm::{predict_many, OnlinePredictor, RejuvenationPolicy};
use f2pm_monitor::csvio::{write_header, write_row};
use f2pm_monitor::wire::Message;
use f2pm_monitor::{Datapoint, HistoryEvent, RunData};
use parking_lot::RwLock;
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::PathBuf;
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
    /// The open life's datapoints since its last `Fail`, for the retraining
    /// tap. Fills only when a tap is present.
    life: Vec<Datapoint>,
    /// The open life outgrew [`MAX_RUN_DATAPOINTS`], so the tap skips the
    /// run at its `Fail`.
    overflowed: bool,
    /// Rows for the recorder that are not in the host's file yet.
    unrecorded: Unrecorded,
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
            life: Vec::new(),
            overflowed: false,
            unrecorded: Unrecorded::default(),
        }
    }
}

/// One host's CSV rows not yet in its file, and how many datapoints they
/// hold.
#[derive(Default)]
struct Unrecorded {
    text: Vec<u8>,
    datapoints: usize,
}

/// Appends every host's history to `DIR/host-<id>.csv` in the
/// `f2pm_monitor::csvio` format (header on create, `D` rows, `F,t` at each
/// `Fail`), so `f2pm train`, `evaluate` and `export-columnar --history`
/// read a file as is. Rows are written at the end of each drained batch,
/// so a killed instance loses only the events still queued. Counts
/// `f2pm_serve_recorded_datapoints_total` and
/// `f2pm_serve_record_errors_total` (failed writes).
#[derive(Clone)]
pub(crate) struct Recorder {
    dir: PathBuf,
    header: Arc<[u8]>,
    recorded: f2pm_obs::Counter,
    errors: f2pm_obs::Counter,
}

impl Recorder {
    pub(crate) fn new(dir: PathBuf, metrics: &ServeMetrics) -> Self {
        let mut header = Vec::new();
        write_header(&mut header).expect("writing to a Vec");
        Recorder {
            dir,
            header: header.into(),
            recorded: metrics
                .registry()
                .counter("f2pm_serve_recorded_datapoints_total"),
            errors: metrics.registry().counter("f2pm_serve_record_errors_total"),
        }
    }

    /// Queue one row for `host`'s file, listing the host in `dirty` when
    /// its queue was empty. With [`MAX_RUN_DATAPOINTS`] datapoints already
    /// queued, write them first; if the file still refuses them, a
    /// datapoint is dropped (the gap between `f2pm_serve_datapoints_total`
    /// and the recorded count shows it), but an `F` row is always kept, so
    /// a run never merges into the next.
    fn queue(&self, host: u32, state: &mut HostState, ev: &HistoryEvent, dirty: &mut Vec<u32>) {
        let rows = &mut state.unrecorded;
        let datapoint = matches!(ev, HistoryEvent::Datapoint(_));
        if datapoint && rows.datapoints >= MAX_RUN_DATAPOINTS && !self.write(host, rows) {
            return;
        }
        if rows.text.is_empty() {
            dirty.push(host);
        }
        write_row(&mut rows.text, ev).expect("writing to a Vec");
        rows.datapoints += usize::from(datapoint);
    }

    /// Append `rows` to `host`'s file. What a failed write did not get into
    /// the file stays queued byte for byte, so the next call resumes where
    /// it stopped: no row is lost, repeated or reordered. True once nothing
    /// is queued.
    fn write(&self, host: u32, rows: &mut Unrecorded) -> bool {
        match self.try_write(host, &mut rows.text) {
            Ok(()) => {
                self.recorded
                    .add(std::mem::take(&mut rows.datapoints) as u64);
                true
            }
            Err(_) => {
                self.errors.inc();
                false
            }
        }
    }

    fn try_write(&self, host: u32, text: &mut Vec<u8>) -> io::Result<()> {
        if text.is_empty() {
            return Ok(());
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(format!("host-{host}.csv")))?;
        // A file shorter than the header holds a prefix of it (new, or cut
        // short by an earlier failed write): complete it first.
        let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        if let Some(rest) = self.header.get(len..) {
            file.write_all(rest)?;
        }
        while !text.is_empty() {
            match file.write(text) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    text.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Where a shard worker sends each host's history: the recorder, which
/// appends every row to the host's file, and the lossy retraining tap,
/// which gets each closed run whole. Only the tap needs a life buffered.
#[derive(Clone, Default)]
pub(crate) struct RunSinks {
    pub(crate) tap: Option<RetrainTap>,
    pub(crate) recorder: Option<Recorder>,
}

impl RunSinks {
    fn is_empty(&self) -> bool {
        self.tap.is_none() && self.recorder.is_none()
    }

    /// One datapoint of `host`'s open life. A tap's life buffer that is
    /// full is freed and the run marked, for the tap to skip.
    fn push(&self, host: u32, state: &mut HostState, d: Datapoint, dirty: &mut Vec<u32>) {
        if let Some(recorder) = &self.recorder {
            recorder.queue(host, state, &HistoryEvent::Datapoint(d), dirty);
        }
        if self.tap.is_none() || state.overflowed {
            return;
        }
        if state.life.len() >= MAX_RUN_DATAPOINTS {
            state.life = Vec::new();
            state.overflowed = true;
        } else {
            state.life.push(d);
        }
    }

    /// Close `host`'s open life with its `Fail` at `t`: record the `F` row
    /// (also after no datapoints), and offer the life whole to the tap — or
    /// count it skipped there, if it overflowed.
    fn close(&self, host: u32, state: &mut HostState, t: f64, dirty: &mut Vec<u32>) {
        if let Some(recorder) = &self.recorder {
            recorder.queue(host, state, &HistoryEvent::Fail { t }, dirty);
        }
        if let Some(tap) = &self.tap {
            let life = std::mem::take(&mut state.life);
            if std::mem::take(&mut state.overflowed) {
                tap.skip_run();
            } else if !life.is_empty() {
                tap.offer_run(RunData {
                    datapoints: life,
                    fail_time: Some(t),
                });
            }
        }
    }

    /// Write the queued rows of every `dirty` host; a host whose write
    /// failed stays listed, to be retried after the next batch (and once
    /// more when the worker exits).
    fn write(&self, hosts: &mut HashMap<u32, HostState>, dirty: &mut Vec<u32>) {
        if let Some(recorder) = &self.recorder {
            dirty.retain(|&host| {
                hosts
                    .get_mut(&host)
                    .is_some_and(|s| !recorder.write(host, &mut s.unrecorded))
            });
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
    /// path and is proven bit-identical by the equivalence tests). With
    /// `sinks`, every worker records its hosts' rows and hands each closed
    /// run to the retraining tap.
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
        sinks: RunSinks,
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
            let sinks = sinks.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("f2pm-shard-{shard}"))
                    .spawn(move || {
                        worker_loop(
                            rx, batch_cap, registry, policy, board, metrics, events, queue_wait,
                            sinks,
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
    sinks: RunSinks,
) {
    let assembles = !sinks.is_empty();
    // Hosts with rows queued for the recorder.
    let mut dirty: Vec<u32> = Vec::new();
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
            match event {
                ShardEvent::Datapoint { host, d, enqueued } => {
                    queue_wait.record_duration(enqueued.elapsed());
                    let host_state = hosts
                        .entry(host)
                        .or_insert_with(|| HostState::new(&registry));
                    if assembles {
                        sinks.push(host, host_state, d, &mut dirty);
                    }
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
                ShardEvent::Fail { host, t } => {
                    flush_deferred(
                        &mut state, width, &mut hosts, &registry, policy, &board, &metrics,
                    );
                    let host_state = hosts
                        .entry(host)
                        .or_insert_with(|| HostState::new(&registry));
                    if assembles {
                        sinks.close(host, host_state, t, &mut dirty);
                    }
                    host_state.predictor.reset();
                    host_state.hits = 0;
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
        if !dirty.is_empty() {
            sinks.write(&mut hosts, &mut dirty);
        }
    }
    // Rows a refused write left queued get one last try.
    sinks.write(&mut hosts, &mut dirty);
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
    use f2pm_monitor::{load_csv, FeatureId};
    use std::path::Path;
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
            RunSinks::default(),
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
            RunSinks::default(),
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
            RunSinks::default(),
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
            RunSinks::default(),
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
            RunSinks::default(),
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("f2pm_shard_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A one-shard pool that hands closed runs to `sinks`.
    fn assembling_pool(metrics: &Arc<ServeMetrics>, sinks: RunSinks) -> ShardPool {
        ShardPool::start(
            1,
            64,
            32,
            test_registry(),
            AlertPolicy::default(),
            Arc::clone(metrics),
            sinks,
        )
    }

    fn recording(dir: &Path, metrics: &ServeMetrics) -> RunSinks {
        RunSinks {
            tap: None,
            recorder: Some(Recorder::new(dir.to_path_buf(), metrics)),
        }
    }

    /// Distinct, non-round values, so the recorded text must round-trip.
    fn life(host: u32, from: usize, n: usize) -> Vec<Datapoint> {
        (from..from + n)
            .map(|i| dp(i as f64 * 5.0 + 0.1, host as f64 + i as f64 / 3.0))
            .collect()
    }

    fn send_life(pool: &ShardPool, host: u32, points: &[Datapoint]) {
        for &d in points {
            pool.send(host, datapoint_event(host, d)).unwrap();
        }
    }

    fn recorded_runs(dir: &Path, host: u32) -> Vec<RunData> {
        load_csv(dir.join(format!("host-{host}.csv")))
            .unwrap()
            .runs()
    }

    fn run(points: Vec<Datapoint>, fail_time: Option<f64>) -> RunData {
        RunData {
            datapoints: points,
            fail_time,
        }
    }

    fn recorded_count(metrics: &ServeMetrics) -> u64 {
        metrics
            .registry()
            .counter("f2pm_serve_recorded_datapoints_total")
            .get()
    }

    fn record_errors(metrics: &ServeMetrics) -> u64 {
        metrics
            .registry()
            .counter("f2pm_serve_record_errors_total")
            .get()
    }

    /// Rows reach the file batch by batch, before any `Fail` and without a
    /// shutdown, so the open life is on disk as a censored tail; a `Fail`
    /// with no datapoints is recorded too, a header an earlier write cut
    /// short is completed first, and a restarted instance continues the
    /// open life in the same file.
    #[test]
    fn recorder_writes_rows_as_they_arrive_and_a_restart_continues_the_life() {
        let dir = temp_dir("censored");
        let mut header = Vec::new();
        write_header(&mut header).unwrap();
        std::fs::write(dir.join("host-2.csv"), &header[..10]).unwrap();
        let metrics = Arc::new(ServeMetrics::new());
        let pool = assembling_pool(&metrics, recording(&dir, &metrics));
        send_life(&pool, 1, &life(1, 0, 10));
        pool.send(1, ShardEvent::Fail { host: 1, t: 60.0 }).unwrap();
        send_life(&pool, 1, &life(1, 10, 3));
        pool.send(2, ShardEvent::Fail { host: 2, t: 5.0 }).unwrap();
        wait_for(|| recorded_count(&metrics) == 13 && recorded_runs(&dir, 2).len() == 1);
        assert_eq!(
            recorded_runs(&dir, 1),
            [run(life(1, 0, 10), Some(60.0)), run(life(1, 10, 3), None)]
        );
        assert_eq!(recorded_runs(&dir, 2), [run(Vec::new(), Some(5.0))]);
        pool.shutdown();

        let metrics = Arc::new(ServeMetrics::new());
        let pool = assembling_pool(&metrics, recording(&dir, &metrics));
        send_life(&pool, 1, &life(1, 13, 2));
        pool.send(1, ShardEvent::Fail { host: 1, t: 99.5 }).unwrap();
        pool.shutdown();
        assert_eq!(
            recorded_runs(&dir, 1),
            [
                run(life(1, 0, 10), Some(60.0)),
                run(life(1, 10, 5), Some(99.5))
            ]
        );
        assert_eq!(record_errors(&metrics), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write the file system refuses is counted and its rows stay
    /// queued, batch after batch; once the disk takes them (here at the
    /// worker's last write, on shutdown) they land in order with the `F`
    /// row that closes the run, so a later run cannot merge into it.
    #[test]
    fn refused_write_keeps_rows_queued_until_the_disk_takes_them() {
        let dir = temp_dir("refused");
        std::fs::remove_dir(&dir).unwrap(); // no file can be opened in it
        let metrics = Arc::new(ServeMetrics::new());
        let pool = assembling_pool(&metrics, recording(&dir, &metrics));
        send_life(&pool, 7, &life(7, 0, 5));
        pool.send(7, ShardEvent::Fail { host: 7, t: 60.0 }).unwrap();
        wait_for(|| record_errors(&metrics) >= 1);
        assert_eq!(recorded_count(&metrics), 0);
        std::fs::create_dir(&dir).unwrap();
        pool.shutdown();
        assert_eq!(recorded_runs(&dir, 7), [run(life(7, 0, 5), Some(60.0))]);
        assert_eq!(recorded_count(&metrics), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A life past `MAX_RUN_DATAPOINTS` keeps every recorded row, while
    /// the tap skips that run — counted once — and still delivers the
    /// host's next run whole.
    #[test]
    fn overflowing_life_keeps_every_recorded_row_and_the_tap_skips_it_once() {
        let dir = temp_dir("overflow");
        let metrics = Arc::new(ServeMetrics::new());
        let (tap, runs) = RetrainTap::private(4);
        let pool = assembling_pool(
            &metrics,
            RunSinks {
                tap: Some(tap.clone()),
                ..recording(&dir, &metrics)
            },
        );
        let long = life(3, 0, MAX_RUN_DATAPOINTS + 5);
        send_life(&pool, 3, &long);
        pool.send(3, ShardEvent::Fail { host: 3, t: 1e6 }).unwrap();
        let short = life(3, 0, 4);
        send_life(&pool, 3, &short);
        pool.send(3, ShardEvent::Fail { host: 3, t: 30.0 }).unwrap();
        pool.shutdown();

        let recorded = recorded_runs(&dir, 3);
        assert_eq!(recorded.len(), 2);
        assert!(recorded[0] == run(long, Some(1e6)), "long run lost rows");
        assert_eq!(recorded[1], run(short.clone(), Some(30.0)));
        assert_eq!(tap.skipped(), 1);
        assert_eq!(tap.dropped(), 0);
        let tapped: Vec<RunData> = std::iter::from_fn(|| runs.try_recv().ok()).collect();
        assert_eq!(tapped, [run(short, Some(30.0))]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A full tap drops whole runs only: with two hosts' lives
    /// interleaved, what reaches the worker is one host's run exactly as
    /// sent, and every other closed run is one counted drop. A `Fail` for
    /// a host never seen offers nothing and counts nothing.
    #[test]
    fn full_tap_drops_whole_runs_only() {
        let metrics = Arc::new(ServeMetrics::new());
        let (tap, runs) = RetrainTap::private(1);
        let pool = assembling_pool(
            &metrics,
            RunSinks {
                tap: Some(tap.clone()),
                recorder: None,
            },
        );
        pool.send(9, ShardEvent::Fail { host: 9, t: 1.0 }).unwrap();
        let (a, b) = (life(1, 0, 12), life(2, 0, 9));
        for (i, &d) in a.iter().enumerate() {
            pool.send(1, datapoint_event(1, d)).unwrap();
            if let Some(&d) = b.get(i) {
                pool.send(2, datapoint_event(2, d)).unwrap();
            }
        }
        pool.send(2, ShardEvent::Fail { host: 2, t: 50.0 }).unwrap();
        pool.send(1, ShardEvent::Fail { host: 1, t: 70.0 }).unwrap();
        send_life(&pool, 2, &life(2, 9, 3));
        pool.send(2, ShardEvent::Fail { host: 2, t: 80.0 }).unwrap();
        pool.shutdown();

        let tapped: Vec<RunData> = std::iter::from_fn(|| runs.try_recv().ok()).collect();
        assert_eq!(tapped, [run(b, Some(50.0))]);
        assert_eq!(tap.dropped(), 2);
        assert_eq!(tap.skipped(), 0);
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
