//! The epoll reactor edge: 10k+ concurrent FMC clients per instance.
//!
//! N reactor threads (see `ServeConfig::reactors`) each own one
//! [`Poller`](crate::poller::Poller) and a slab of nonblocking
//! connections. Reactor 0 additionally owns the listener: accepted
//! sockets are round-robined across reactors through a small mailbox +
//! eventfd wakeup, so no reactor ever touches another's slab.
//!
//! Per connection the slab holds `{TcpStream, FrameDecoder, shared
//! outbound buffer, registered interest}` — a few hundred bytes when
//! idle, because reads land in a per-*reactor* 16 KiB scratch and only a
//! partial frame's tail is copied into the per-connection decoder
//! (`Message::try_frame_from` decodes whole frames straight off the
//! scratch slice). That is what turns per-connection cost from a thread
//! stack into a slab entry.
//!
//! The handshake accepts exactly `PROTOCOL_VERSION`: any other first
//! frame closes the connection. After it (pinned frame-for-frame against
//! an in-process `OnlinePredictor` replay by
//! `tests/reactor_equivalence.rs`):
//!
//! - reads (`PredictRequest`/`StatsRequest`/`MetricsRequest`/
//!   `TopKRequest`) are answered from the board and never wait behind
//!   ingest backpressure — the reactor *parks* a shard-bound event that
//!   meets a full queue (`try_send` hands it back) in the connection
//!   state, drops read interest so level-triggered epoll doesn't spin,
//!   and retries each turn; replies keep flowing the whole time;
//! - shard-bound events apply in arrival order per connection (the
//!   parked event always retries before any later frame is decoded);
//! - alerts pushed by shard workers are appended to the connection's
//!   bounded outbound buffer and flushed by the owning reactor after an
//!   eventfd wakeup; a consumer that lets the buffer exceed
//!   `outbound_cap` is evicted (`f2pm_serve_conns_evicted_slow`) instead
//!   of growing server memory.
//!
//! Shutdown is an eventfd wake per reactor (no throwaway-connection
//! hack): each reactor observes the stop flag, unsubscribes and closes
//! every connection in its slab, and exits; the pool joins the threads.

use crate::metrics::ServeMetrics;
use crate::poller::{Event, Interest, Poller, Waker};
use crate::server::{handle_read, Inner};
use crate::shard::{ClientWriter, ShardEvent};
use bytes::BytesMut;
use f2pm_monitor::wire::{FrameDecoder, Message, PROTOCOL_VERSION, READ_CHUNK};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of each reactor's own eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Token of the listener (registered in reactor 0 only).
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Max `read(2)` calls per connection per turn; level-triggered epoll
/// re-reports a still-readable socket next turn, so a firehose client
/// cannot starve its slab neighbours.
const MAX_READS_PER_TURN: usize = 16;

/// Pending bytes headed to one client, shared between the owning reactor
/// (flush) and shard workers (alert pushes via `ReactorSink`).
pub(crate) struct Outbound {
    /// Encoded frames; `buf[pos..]` is unwritten.
    buf: BytesMut,
    /// How much of `buf` the socket has taken.
    pos: usize,
    /// No further sends accepted; the reactor closes on next wakeup.
    dead: bool,
    /// `dead` because the bounded buffer overflowed (slow consumer).
    evicted: bool,
    /// The shard worker dropped its `ClientWriter` (it processed the
    /// `Unsubscribe`, or failed a send): no more alerts can arrive, so a
    /// draining close may complete once the buffer flushes.
    writer_gone: bool,
    /// Token already sits in the reactor's notify mailbox (dedup).
    notified: bool,
}

impl Outbound {
    fn new() -> Self {
        Outbound {
            buf: BytesMut::new(),
            pos: 0,
            dead: false,
            evicted: false,
            writer_gone: false,
            notified: false,
        }
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// The cross-thread face of one reactor: eventfd waker + mailbox.
pub(crate) struct ReactorShared {
    waker: Waker,
    inbox: Mutex<Inbox>,
}

#[derive(Default)]
struct Inbox {
    /// Freshly accepted sockets handed over by reactor 0.
    new_conns: Vec<TcpStream>,
    /// Connection tokens with new outbound bytes (or a dead mark).
    notify: Vec<u64>,
}

/// The reactor-edge sink behind [`ClientWriter`]: shard workers append
/// encoded frames to the connection's bounded outbound buffer and wake
/// the owning reactor to flush them.
pub(crate) struct ReactorSink {
    out: Arc<Mutex<Outbound>>,
    shared: Arc<ReactorShared>,
    token: u64,
    cap: usize,
}

impl ReactorSink {
    pub(crate) fn send_all(&self, msgs: &[Message]) -> io::Result<()> {
        let (need_notify, over) = {
            let mut out = self.out.lock();
            if out.dead {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection closing",
                ));
            }
            for msg in msgs {
                msg.encode_into(&mut out.buf);
            }
            let over = out.pending() > self.cap;
            if over {
                out.dead = true;
                out.evicted = true;
            }
            let need = !out.notified;
            out.notified = true;
            (need, over)
        };
        if need_notify {
            self.shared.inbox.lock().notify.push(self.token);
            self.shared.waker.wake();
        }
        if over {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "slow consumer: outbound buffer over cap",
            ))
        } else {
            Ok(())
        }
    }
}

impl Drop for ReactorSink {
    /// The shard worker releasing its writer (it processed the
    /// `Unsubscribe`, or gave up after a failed send) completes any
    /// draining close: a Bye'd client keeps receiving alerts for its
    /// already-ingested datapoints until exactly this point, then EOFs.
    fn drop(&mut self) {
        let need_notify = {
            let mut out = self.out.lock();
            out.writer_gone = true;
            let need = !out.notified;
            out.notified = true;
            need
        };
        if need_notify {
            self.shared.inbox.lock().notify.push(self.token);
            self.shared.waker.wake();
        }
    }
}

/// One slab connection.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Arc<Mutex<Outbound>>,
    /// Currently registered epoll interest.
    interest: Interest,
    token: u64,
    host: u32,
    /// The `Hello` was accepted and its `Subscribe` sent; close must
    /// `Unsubscribe`.
    handshaken: bool,
    /// The close-path `Unsubscribe` is already queued (draining close:
    /// the conn stays until the worker drops its writer).
    unsub_sent: bool,
    /// Shard-bound event that met a full queue; retried every turn.
    /// While parked, read interest is dropped (level-triggered epoll
    /// would otherwise spin) and no later frame is decoded, preserving
    /// per-connection arrival order.
    parked: Option<ShardEvent>,
    /// Peer sent EOF; finish decoding, flush, then close.
    eof: bool,
    /// `Bye` seen (or clean EOF): stop reading, flush outbound, close.
    closing: bool,
}

/// Slab slot; `gen` increments on every reuse so a stale epoll event for
/// a recycled index can't touch the new occupant.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// Running reactor threads; owned by the serve handle.
pub(crate) struct ReactorPool {
    shareds: Vec<Arc<ReactorShared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorPool {
    /// Spawn `n` reactors; reactor 0 takes the (nonblocking) listener.
    pub(crate) fn start(
        listener: TcpListener,
        n: usize,
        outbound_cap: usize,
        inner: Arc<Inner>,
        metrics: Arc<ServeMetrics>,
    ) -> io::Result<ReactorPool> {
        // Headroom for the fds the reactors will hold; best-effort.
        crate::poller::raise_nofile_limit(16_384);
        let mut shareds = Vec::with_capacity(n);
        for _ in 0..n {
            shareds.push(Arc::new(ReactorShared {
                waker: Waker::new()?,
                inbox: Mutex::new(Inbox::default()),
            }));
        }
        let mut handles = Vec::with_capacity(n);
        for id in 0..n {
            let poller = Poller::new()?;
            poller.add(shareds[id].waker.fd(), WAKER_TOKEN, Interest::READ)?;
            let listener = if id == 0 {
                poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
                Some(listener.try_clone()?)
            } else {
                None
            };
            let reactor = Reactor {
                id,
                poller,
                shared: Arc::clone(&shareds[id]),
                peers: shareds.clone(),
                listener,
                slots: Vec::new(),
                free: Vec::new(),
                parked: Vec::new(),
                scratch: vec![0u8; READ_CHUNK],
                pending: Vec::new(),
                events: Vec::new(),
                next_peer: 0,
                outbound_cap,
                inner: Arc::clone(&inner),
                metrics: Arc::clone(&metrics),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("f2pm-serve-reactor-{id}"))
                    .spawn(move || reactor.run())
                    .expect("spawn reactor"),
            );
        }
        // Reactor 0 owns the listener through its clone; the bind-time
        // handle closes when `listener` drops here.
        Ok(ReactorPool { shareds, handles })
    }

    /// Wake every reactor (they observe the stop flag and tear down) and
    /// join the threads. A socket reactor 0 accepted (and counted open)
    /// but handed to a peer that stopped before registering it is closed
    /// here, so the live-connection gauge ends at zero.
    pub(crate) fn shutdown(self, metrics: &ServeMetrics) {
        for s in &self.shareds {
            s.waker.wake();
        }
        for h in self.handles {
            h.join().ok();
        }
        for s in &self.shareds {
            for _ in s.inbox.lock().new_conns.drain(..) {
                metrics.connection_closed();
            }
        }
    }
}

/// What driving a connection decided.
enum Verdict {
    /// Still live; interest already re-registered.
    Keep,
    /// Close it (counts a plain close).
    Close,
    /// Close it and count a slow-consumer eviction.
    Evict,
}

/// Per-frame processing outcome.
enum Flow {
    Continue,
    /// Protocol violation or dead pool: close without ceremony.
    Fatal,
}

struct Reactor {
    id: usize,
    poller: Poller,
    shared: Arc<ReactorShared>,
    peers: Vec<Arc<ReactorShared>>,
    listener: Option<TcpListener>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Tokens with a parked shard event (retried every turn).
    parked: Vec<u64>,
    /// Shared read scratch: one per reactor, not per connection.
    scratch: Vec<u8>,
    /// Reply staging for the connection currently being pumped.
    pending: Vec<Message>,
    events: Vec<Event>,
    next_peer: usize,
    outbound_cap: usize,
    inner: Arc<Inner>,
    metrics: Arc<ServeMetrics>,
}

impl Reactor {
    fn run(mut self) {
        // The stop flag is read before every wait, not only after it: a
        // turn that drains the waker for some other wake (a new conn, a
        // shard nudge) can swallow the shutdown wake with it, and a
        // reactor that went back to sleep then would never wake again.
        while !self.inner.stop.load(Ordering::SeqCst) {
            // Parked events poll the shard queue on a short tick; an
            // otherwise-idle reactor sleeps until epoll/eventfd activity.
            let timeout = if self.parked.is_empty() {
                None
            } else {
                Some(Duration::from_millis(1))
            };
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                events.clear();
            }
            self.events = events;
            let turn = Instant::now();
            if self.inner.stop.load(Ordering::SeqCst) {
                break;
            }
            for i in 0..self.events.len() {
                let ev = self.events[i];
                match ev.token {
                    WAKER_TOKEN => self.shared.waker.drain(),
                    LISTENER_TOKEN => self.accept_burst(),
                    token => {
                        if let Some(idx) = self.live_idx(token) {
                            if ev.error {
                                self.close_conn(idx, false);
                            } else {
                                self.pump(idx);
                            }
                        }
                    }
                }
            }
            self.drain_inbox();
            self.retry_parked();
            self.metrics.record_reactor_turn(turn.elapsed());
        }
        self.teardown();
    }

    /// Slab index for `token` if the generation still matches (a stale
    /// event for a recycled slot is ignored).
    fn live_idx(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        let slot = self.slots.get(idx)?;
        (slot.gen == gen && slot.conn.is_some()).then_some(idx)
    }

    fn accept_burst(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if self.inner.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    self.metrics.connection_opened();
                    let target = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if target == self.id {
                        self.register_conn(stream);
                    } else {
                        let peer = &self.peers[target];
                        peer.inbox.lock().new_conns.push(stream);
                        peer.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // EMFILE/ECONNABORTED etc. Brief pause so the
                    // level-triggered retry doesn't spin the reactor.
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    /// Take ownership of an accepted socket into this reactor's slab.
    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.metrics.connection_closed();
            return;
        }
        stream.set_nodelay(true).ok();
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        slot.gen = slot.gen.wrapping_add(1);
        let token = token_of(slot.gen, idx);
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.free.push(idx);
            self.metrics.connection_closed();
            return;
        }
        slot.conn = Some(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Arc::new(Mutex::new(Outbound::new())),
            interest: Interest::READ,
            token,
            host: 0,
            handshaken: false,
            unsub_sent: false,
            parked: None,
            eof: false,
            closing: false,
        });
    }

    fn drain_inbox(&mut self) {
        let (new_conns, notify) = {
            let mut inbox = self.shared.inbox.lock();
            (
                std::mem::take(&mut inbox.new_conns),
                std::mem::take(&mut inbox.notify),
            )
        };
        for stream in new_conns {
            if self.inner.stop.load(Ordering::SeqCst) {
                self.metrics.connection_closed();
                continue;
            }
            self.register_conn(stream);
        }
        for token in notify {
            if let Some(idx) = self.live_idx(token) {
                self.flush_notified(idx);
            }
        }
    }

    /// Handle a shard worker's "new outbound bytes" (or eviction) nudge.
    fn flush_notified(&mut self, idx: usize) {
        let verdict = {
            let conn = self.slots[idx].conn.as_mut().expect("live conn");
            conn.out.lock().notified = false;
            finalize(conn, &self.inner, &self.poller)
        };
        self.settle(idx, verdict);
    }

    /// Retry every parked shard event; a freed queue slot resumes the
    /// connection's decode exactly where it stopped.
    fn retry_parked(&mut self) {
        let tokens = std::mem::take(&mut self.parked);
        for token in tokens {
            if let Some(idx) = self.live_idx(token) {
                self.pump(idx);
            }
        }
    }

    /// Drive one connection: deliver a parked event if any, drain the
    /// socket through the shared scratch, answer reads, flush outbound,
    /// and re-register interest.
    fn pump(&mut self, idx: usize) {
        let this = &mut *self;
        let conn = this.slots[idx].conn.as_mut().expect("live conn");
        let verdict = pump_conn(
            conn,
            &mut this.scratch,
            &mut this.pending,
            &this.inner,
            &this.metrics,
            &this.shared,
            this.outbound_cap,
            &this.poller,
        );
        if matches!(verdict, Verdict::Keep) && conn.parked.is_some() {
            let token = conn.token;
            if !this.parked.contains(&token) {
                this.parked.push(token);
            }
        }
        self.settle(idx, verdict);
    }

    fn settle(&mut self, idx: usize, verdict: Verdict) {
        match verdict {
            Verdict::Keep => {}
            Verdict::Close => self.close_conn(idx, false),
            Verdict::Evict => self.close_conn(idx, true),
        }
    }

    fn close_conn(&mut self, idx: usize, evicted: bool) {
        let slot = &mut self.slots[idx];
        let Some(conn) = slot.conn.take() else {
            return;
        };
        self.parked.retain(|&t| t != conn.token);
        // Shard workers holding this writer fail fast from now on (they
        // drop their subscription on the send error).
        conn.out.lock().dead = true;
        self.poller.delete(conn.stream.as_raw_fd()).ok();
        if conn.handshaken && !conn.unsub_sent {
            self.inner
                .pool
                .send(conn.host, ShardEvent::Unsubscribe { host: conn.host })
                .ok();
        }
        self.free.push(idx);
        if evicted {
            self.metrics.connection_evicted_slow();
        }
        self.metrics.connection_closed();
    }

    /// Stop-flag teardown: close every connection (unsubscribing), then
    /// exit; parked events are dropped with the queues about to drain.
    fn teardown(mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].conn.is_some() {
                self.close_conn(idx, false);
            }
        }
    }
}

/// The per-connection drive logic (free function so the disjoint borrows
/// of the reactor's fields stay obvious).
#[allow(clippy::too_many_arguments)]
fn pump_conn(
    conn: &mut Conn,
    scratch: &mut [u8],
    pending: &mut Vec<Message>,
    inner: &Arc<Inner>,
    metrics: &Arc<ServeMetrics>,
    shared: &Arc<ReactorShared>,
    outbound_cap: usize,
    poller: &Poller,
) -> Verdict {
    // A parked event always goes first: per-connection order is arrival
    // order, so no later frame may overtake it.
    if let Some(ev) = conn.parked.take() {
        match inner.pool.try_send(conn.host, ev) {
            Ok(None) => {}
            Ok(Some(ev)) => {
                conn.parked = Some(ev);
                return finalize(conn, inner, poller);
            }
            Err(_) => return Verdict::Close,
        }
    }

    let mut reads = 0;
    while !conn.closing && conn.parked.is_none() {
        // Drain whole frames already buffered in the decoder.
        let mut fatal = false;
        loop {
            if conn.closing || conn.parked.is_some() {
                break;
            }
            let started = Instant::now();
            match conn.decoder.try_frame() {
                Ok(Some(msg)) => {
                    metrics.record_decode(started.elapsed());
                    match process_msg(msg, conn, inner, metrics, shared, outbound_cap, pending) {
                        Flow::Continue => {}
                        Flow::Fatal => {
                            fatal = true;
                            break;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            return Verdict::Close;
        }
        if conn.closing || conn.parked.is_some() || conn.eof || reads >= MAX_READS_PER_TURN {
            // Level-triggered epoll re-reports a still-readable socket
            // next turn when the read budget ran out.
            break;
        }
        match (&conn.stream).read(scratch) {
            Ok(0) => conn.eof = true,
            Ok(n) => {
                reads += 1;
                let mut off = 0;
                if conn.decoder.buffered() == 0 {
                    // Fast path: decode whole frames straight off the
                    // shared scratch; only a partial tail is copied into
                    // the per-connection decoder below.
                    while !conn.closing && conn.parked.is_none() {
                        let started = Instant::now();
                        match Message::try_frame_from(&scratch[off..n]) {
                            Ok(Some((msg, used))) => {
                                off += used;
                                metrics.record_decode(started.elapsed());
                                match process_msg(
                                    msg,
                                    conn,
                                    inner,
                                    metrics,
                                    shared,
                                    outbound_cap,
                                    pending,
                                ) {
                                    Flow::Continue => {}
                                    Flow::Fatal => return Verdict::Close,
                                }
                            }
                            Ok(None) => break,
                            Err(_) => return Verdict::Close,
                        }
                    }
                }
                conn.decoder.push_bytes(&scratch[off..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close,
        }
    }

    // Clean EOF once everything decoded and delivered; EOF mid-frame is
    // a protocol error.
    if conn.eof && !conn.closing && conn.parked.is_none() {
        if conn.decoder.buffered() > 0 {
            return Verdict::Close;
        }
        conn.closing = true;
    }

    // Stage replies into the outbound buffer.
    if !pending.is_empty() {
        let started = Instant::now();
        let mut out = conn.out.lock();
        if !out.dead {
            for msg in pending.iter() {
                msg.encode_into(&mut out.buf);
            }
            if out.pending() > outbound_cap {
                out.dead = true;
                out.evicted = true;
            }
        }
        drop(out);
        metrics.record_reply(started.elapsed());
        pending.clear();
    }

    finalize(conn, inner, poller)
}

/// Flush what the socket will take, then either close (dead, or a
/// drained closing connection whose writer is gone) or re-register the
/// right interest.
fn finalize(conn: &mut Conn, inner: &Arc<Inner>, poller: &Poller) -> Verdict {
    let mut out = conn.out.lock();
    while out.pos < out.buf.len() {
        let (pos, len) = (out.pos, out.buf.len());
        match (&conn.stream).write(&out.buf[pos..len]) {
            Ok(0) => {
                out.dead = true;
                break;
            }
            Ok(n) => out.pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                out.dead = true;
                break;
            }
        }
    }
    if out.pos >= out.buf.len() {
        out.buf.clear();
        out.pos = 0;
    }
    if out.dead {
        return if out.evicted {
            Verdict::Evict
        } else {
            Verdict::Close
        };
    }
    let unflushed = out.pending() > 0;
    let writer_gone = out.writer_gone;
    drop(out);
    if conn.closing {
        if !conn.handshaken {
            return Verdict::Close;
        }
        // Draining close: in-flight datapoints may still produce alerts,
        // so queue the Unsubscribe (ordered behind them in the shard
        // queue) and hold the socket open until the worker drops its
        // writer and the buffer has flushed.
        if !conn.unsub_sent {
            if inner
                .pool
                .send(conn.host, ShardEvent::Unsubscribe { host: conn.host })
                .is_err()
            {
                return Verdict::Close;
            }
            conn.unsub_sent = true;
        }
        if writer_gone && !unflushed {
            return Verdict::Close;
        }
    }
    let want = Interest {
        readable: !conn.closing && !conn.eof && conn.parked.is_none(),
        writable: unflushed,
    };
    if want != conn.interest {
        if poller
            .modify(conn.stream.as_raw_fd(), conn.token, want)
            .is_err()
        {
            return Verdict::Close;
        }
        conn.interest = want;
    }
    Verdict::Keep
}

fn process_msg(
    msg: Message,
    conn: &mut Conn,
    inner: &Arc<Inner>,
    metrics: &Arc<ServeMetrics>,
    shared: &Arc<ReactorShared>,
    outbound_cap: usize,
    pending: &mut Vec<Message>,
) -> Flow {
    if !conn.handshaken {
        return match msg {
            Message::Hello { version, host_id } if version == PROTOCOL_VERSION => {
                conn.host = host_id;
                let writer = ClientWriter::new(ReactorSink {
                    out: Arc::clone(&conn.out),
                    shared: Arc::clone(shared),
                    token: conn.token,
                    cap: outbound_cap,
                });
                if inner
                    .pool
                    .send(
                        conn.host,
                        ShardEvent::Subscribe {
                            host: conn.host,
                            writer,
                        },
                    )
                    .is_err()
                {
                    return Flow::Fatal;
                }
                conn.handshaken = true;
                Flow::Continue
            }
            _ => Flow::Fatal,
        };
    }
    match msg {
        Message::Bye => {
            conn.closing = true;
            Flow::Continue
        }
        Message::Datapoint(d) => {
            metrics.datapoint();
            try_send_or_park(
                conn,
                inner,
                ShardEvent::Datapoint {
                    host: conn.host,
                    d,
                    enqueued: Instant::now(),
                },
            )
        }
        Message::Fail { t } => {
            try_send_or_park(conn, inner, ShardEvent::Fail { host: conn.host, t })
        }
        ref m => {
            handle_read(m, inner, metrics, pending);
            Flow::Continue
        }
    }
}

fn try_send_or_park(conn: &mut Conn, inner: &Arc<Inner>, event: ShardEvent) -> Flow {
    match inner.pool.try_send(conn.host, event) {
        Ok(None) => Flow::Continue,
        Ok(Some(ev)) => {
            conn.parked = Some(ev);
            Flow::Continue
        }
        Err(_) => Flow::Fatal,
    }
}
