//! Binary wire format between the FMC and `f2pm-serve`.
//!
//! Frames are length-prefixed: a `u32` big-endian payload length, then a
//! one-byte message tag, then the payload. All floats are IEEE-754 f64
//! big-endian. The format is deliberately tiny and hand-rolled (no serde
//! format crate in the offline dependency set).
//!
//! ## Version
//!
//! There is one wire version, [`PROTOCOL_VERSION`]. A client opens with
//! `Hello { version: PROTOCOL_VERSION, .. }`; servers close any connection
//! whose `Hello` carries another version. The message set:
//!
//! - collection: `Hello`, `Datapoint`, `Fail`, `Bye` — a client streams
//!   samples, the server accumulates;
//! - serving: `PredictRequest` / [`Message::RttfEstimate`] (client-pulled
//!   estimates) and [`Message::Alert`] (server-pushed rejuvenation alerts);
//! - observability: `MetricsRequest` / [`Message::MetricsText`] — the full
//!   Prometheus-style text exposition of the server's metrics registry (see
//!   `f2pm-obs`), UTF-8, capped at [`MAX_METRICS_TEXT`] so it always fits
//!   one frame;
//! - fleet: `StatsRequest` / [`Message::FleetSnapshot`] (an instance-
//!   attributable metrics snapshot) and [`Message::TopKRequest`] /
//!   [`Message::TopKReply`] (the K hosts nearest failure, answered from the
//!   server's seqlock estimate board without scanning connections).
//!
//! Tag 9 (a retired anonymous stats snapshot) is not assigned and decodes
//! as an unknown tag.

use crate::datapoint::Datapoint;
use bytes::{Buf, BufMut, BytesMut};
use std::io::{self, Read, Write};

/// The one protocol version spoken and accepted by this crate.
pub const PROTOCOL_VERSION: u16 = 4;

/// Maximum accepted frame payload. A corrupt (or hostile) length prefix
/// must never translate into a huge allocation: `read_from` rejects any
/// frame claiming more than this *before* allocating the payload buffer.
pub const MAX_FRAME: usize = 64 * 1024;

/// Longest metrics exposition a [`Message::MetricsText`] frame can carry
/// (tag + length prefix headroom under [`MAX_FRAME`]).
/// [`Message::metrics_text`] truncates longer expositions at a line
/// boundary instead of failing the scrape.
pub const MAX_METRICS_TEXT: usize = MAX_FRAME - 16;

/// Largest `k` a [`Message::TopKRequest`] may ask for (and the most entries
/// a [`Message::TopKReply`] may carry) — keeps the reply under
/// [`MAX_FRAME`] with headroom.
pub const MAX_TOPK: usize = 1024;

/// One at-risk-host entry in a [`Message::TopKReply`], ordered by ascending
/// predicted remaining time to failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    /// Host the estimate belongs to.
    pub host_id: u32,
    /// Guest time (s) of the window that produced the estimate.
    pub t: f64,
    /// Predicted remaining time to failure (s).
    pub rttf: f64,
    /// Generation of the model that produced the estimate.
    pub model_generation: u64,
}

/// Messages exchanged between FMC (client) and serve (server).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client handshake: protocol version + arbitrary host identifier.
    Hello {
        /// Protocol version of the sender.
        version: u16,
        /// Opaque host identifier chosen by the client.
        host_id: u32,
    },
    /// One monitoring datapoint.
    Datapoint(Datapoint),
    /// The monitored system met the failure condition at time `t`.
    Fail {
        /// Seconds since the monitored system's start.
        t: f64,
    },
    /// Orderly goodbye.
    Bye,
    /// client → server: ask for the latest RTTF estimate of a host.
    PredictRequest {
        /// Host whose estimate is requested.
        host_id: u32,
    },
    /// server → client: latest RTTF estimate (reply to
    /// [`Message::PredictRequest`]).
    RttfEstimate {
        /// Host the estimate belongs to.
        host_id: u32,
        /// Guest time (s) of the window that produced the estimate (0 when
        /// `rttf` is `None`).
        t: f64,
        /// Predicted remaining time to failure (s); `None` when no
        /// aggregation window has closed for this host yet.
        rttf: Option<f64>,
        /// Generation of the model that produced the estimate (bumps on
        /// every hot-reload).
        model_generation: u64,
    },
    /// server → client (unsolicited): the host's predicted RTTF fell
    /// below the rejuvenation threshold for enough consecutive windows.
    Alert {
        /// Host the alert fires for.
        host_id: u32,
        /// Guest time (s) of the triggering window.
        t: f64,
        /// The estimate that fired the alert (s).
        rttf: f64,
        /// The policy threshold it undercut (s).
        threshold: f64,
    },
    /// client → server: ask for a server metrics snapshot.
    StatsRequest,
    /// client → server: ask for the full metrics text exposition.
    MetricsRequest,
    /// server → client: Prometheus-style text exposition (reply to
    /// [`Message::MetricsRequest`]). UTF-8, at most [`MAX_METRICS_TEXT`]
    /// bytes — build with [`Message::metrics_text`] to get safe truncation.
    MetricsText {
        /// The exposition body.
        text: String,
    },
    /// client → server: ask for the `k` hosts nearest failure (lowest
    /// predicted RTTF) on this instance. Answered from the seqlock estimate
    /// board — no connection scan. `k` is clamped to [`MAX_TOPK`].
    TopKRequest {
        /// How many entries the client wants at most.
        k: u16,
    },
    /// server → client: instance-local at-risk ranking (reply to
    /// [`Message::TopKRequest`]), sorted by ascending RTTF.
    TopKReply {
        /// Identity of the answering instance.
        instance_id: u32,
        /// Entries sorted nearest-failure first; at most [`MAX_TOPK`].
        entries: Vec<TopKEntry>,
    },
    /// server → client: instance-attributable metrics snapshot (reply
    /// to [`Message::StatsRequest`]).
    FleetSnapshot {
        /// Identity of the answering instance.
        instance_id: u32,
        /// Live client connections.
        connections: u64,
        /// Datapoints ingested since start.
        datapoints: u64,
        /// RTTF estimates produced since start.
        estimates: u64,
        /// Rejuvenation alerts fired since start.
        alerts: u64,
        /// Frames dropped (always 0 under blocking backpressure).
        dropped: u64,
        /// Current model generation.
        model_generation: u64,
        /// Hosts with a published estimate on the board.
        hosts_tracked: u32,
        /// Queue depth per shard at snapshot time.
        shard_depths: Vec<u32>,
    },
}

impl Message {
    /// Build a [`Message::MetricsText`], truncating oversized expositions at
    /// the last full line that fits [`MAX_METRICS_TEXT`] (a scrape should
    /// degrade to a partial exposition, not an encode failure).
    pub fn metrics_text(mut text: String) -> Message {
        if text.len() > MAX_METRICS_TEXT {
            // Last newline inside the cap — a byte search, so the cut is a
            // char boundary even if the cap lands mid-multibyte-char.
            let cut = text.as_bytes()[..MAX_METRICS_TEXT]
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|i| i + 1)
                .unwrap_or(0);
            text.truncate(cut);
        }
        Message::MetricsText { text }
    }

    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Datapoint(_) => 2,
            Message::Fail { .. } => 3,
            Message::Bye => 4,
            Message::PredictRequest { .. } => 5,
            Message::RttfEstimate { .. } => 6,
            Message::Alert { .. } => 7,
            Message::StatsRequest => 8,
            Message::MetricsRequest => 10,
            Message::MetricsText { .. } => 11,
            Message::TopKRequest { .. } => 12,
            Message::TopKReply { .. } => 13,
            Message::FleetSnapshot { .. } => 14,
        }
    }

    /// Encode into a fresh frame (length prefix included).
    ///
    /// Allocates a buffer per call; hot paths keep a reusable scratch
    /// buffer and use [`Message::encode_into`] instead.
    pub fn encode(&self) -> BytesMut {
        let mut frame = BytesMut::with_capacity(4 + 8 + 15 * 8);
        self.encode_into(&mut frame);
        frame
    }

    /// Append this message as one frame (length prefix included) to `buf`,
    /// without allocating when `buf` has capacity. Existing contents are
    /// kept, so several frames can be coalesced into one buffer and written
    /// with a single `write_all`. Byte-identical to [`Message::encode`].
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u32(0); // length placeholder, backfilled below
        buf.put_u8(self.tag());
        match self {
            Message::Hello { version, host_id } => {
                buf.put_u16(*version);
                buf.put_u32(*host_id);
            }
            Message::Datapoint(d) => {
                buf.put_f64(d.t_gen);
                for v in d.values {
                    buf.put_f64(v);
                }
            }
            Message::Fail { t } => buf.put_f64(*t),
            Message::Bye => {}
            Message::PredictRequest { host_id } => buf.put_u32(*host_id),
            Message::RttfEstimate {
                host_id,
                t,
                rttf,
                model_generation,
            } => {
                buf.put_u32(*host_id);
                buf.put_f64(*t);
                buf.put_u8(rttf.is_some() as u8);
                buf.put_f64(rttf.unwrap_or(0.0));
                buf.put_u64(*model_generation);
            }
            Message::Alert {
                host_id,
                t,
                rttf,
                threshold,
            } => {
                buf.put_u32(*host_id);
                buf.put_f64(*t);
                buf.put_f64(*rttf);
                buf.put_f64(*threshold);
            }
            Message::StatsRequest => {}
            Message::MetricsRequest => {}
            Message::MetricsText { text } => {
                debug_assert!(text.len() <= MAX_METRICS_TEXT, "use Message::metrics_text");
                buf.put_u32(text.len() as u32);
                buf.extend_from_slice(text.as_bytes());
            }
            Message::TopKRequest { k } => buf.put_u16(*k),
            Message::TopKReply {
                instance_id,
                entries,
            } => {
                debug_assert!(entries.len() <= MAX_TOPK, "TopKReply over MAX_TOPK");
                buf.put_u32(*instance_id);
                buf.put_u16(entries.len() as u16);
                for e in entries {
                    buf.put_u32(e.host_id);
                    buf.put_f64(e.t);
                    buf.put_f64(e.rttf);
                    buf.put_u64(e.model_generation);
                }
            }
            Message::FleetSnapshot {
                instance_id,
                connections,
                datapoints,
                estimates,
                alerts,
                dropped,
                model_generation,
                hosts_tracked,
                shard_depths,
            } => {
                buf.put_u32(*instance_id);
                buf.put_u64(*connections);
                buf.put_u64(*datapoints);
                buf.put_u64(*estimates);
                buf.put_u64(*alerts);
                buf.put_u64(*dropped);
                buf.put_u64(*model_generation);
                buf.put_u32(*hosts_tracked);
                buf.put_u16(shard_depths.len() as u16);
                for d in shard_depths {
                    buf.put_u32(*d);
                }
            }
        }
        let payload_len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&payload_len.to_be_bytes());
    }

    /// Decode one whole frame from the front of `buf` (length prefix
    /// included), returning the message and the bytes consumed.
    /// `Ok(None)` means `buf` holds only a partial frame so far.
    ///
    /// This is the zero-copy entry the reactor edge decodes through: a
    /// reactor reads into one *shared* scratch buffer and slices complete
    /// frames straight out of it, so an idle connection owns no read
    /// buffer at all — only partial frames ever get copied into the
    /// connection's [`FrameDecoder`].
    pub fn try_frame_from(buf: &[u8]) -> io::Result<Option<(Message, usize)>> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(bad(&format!("bad frame length {len} (max {MAX_FRAME})")));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = Message::decode(&buf[4..4 + len])?;
        Ok(Some((msg, 4 + len)))
    }

    /// Decode one message from a full payload (tag + body, no length
    /// prefix).
    pub fn decode(mut payload: &[u8]) -> io::Result<Message> {
        if payload.is_empty() {
            return Err(bad("empty payload"));
        }
        let tag = payload.get_u8();
        match tag {
            1 => {
                if payload.remaining() < 6 {
                    return Err(bad("short hello"));
                }
                Ok(Message::Hello {
                    version: payload.get_u16(),
                    host_id: payload.get_u32(),
                })
            }
            2 => {
                if payload.remaining() < 15 * 8 {
                    return Err(bad("short datapoint"));
                }
                let t_gen = payload.get_f64();
                let mut values = [0.0; 14];
                for v in &mut values {
                    *v = payload.get_f64();
                }
                Ok(Message::Datapoint(Datapoint { t_gen, values }))
            }
            3 => {
                if payload.remaining() < 8 {
                    return Err(bad("short fail"));
                }
                Ok(Message::Fail {
                    t: payload.get_f64(),
                })
            }
            4 => Ok(Message::Bye),
            5 => {
                if payload.remaining() < 4 {
                    return Err(bad("short predict request"));
                }
                Ok(Message::PredictRequest {
                    host_id: payload.get_u32(),
                })
            }
            6 => {
                if payload.remaining() < 4 + 8 + 1 + 8 + 8 {
                    return Err(bad("short rttf estimate"));
                }
                let host_id = payload.get_u32();
                let t = payload.get_f64();
                let has = payload.get_u8();
                let value = payload.get_f64();
                if has > 1 {
                    return Err(bad("bad rttf presence flag"));
                }
                Ok(Message::RttfEstimate {
                    host_id,
                    t,
                    rttf: (has == 1).then_some(value),
                    model_generation: payload.get_u64(),
                })
            }
            7 => {
                if payload.remaining() < 4 + 3 * 8 {
                    return Err(bad("short alert"));
                }
                Ok(Message::Alert {
                    host_id: payload.get_u32(),
                    t: payload.get_f64(),
                    rttf: payload.get_f64(),
                    threshold: payload.get_f64(),
                })
            }
            8 => Ok(Message::StatsRequest),
            10 => Ok(Message::MetricsRequest),
            11 => {
                if payload.remaining() < 4 {
                    return Err(bad("short metrics text"));
                }
                let n = payload.get_u32() as usize;
                if n > MAX_METRICS_TEXT {
                    return Err(bad(&format!("metrics text length {n} exceeds cap")));
                }
                if payload.remaining() < n {
                    return Err(bad("short metrics text body"));
                }
                let text = std::str::from_utf8(&payload[..n])
                    .map_err(|_| bad("metrics text not utf-8"))?
                    .to_string();
                Ok(Message::MetricsText { text })
            }
            12 => {
                if payload.remaining() < 2 {
                    return Err(bad("short top-k request"));
                }
                Ok(Message::TopKRequest {
                    k: payload.get_u16(),
                })
            }
            13 => {
                if payload.remaining() < 4 + 2 {
                    return Err(bad("short top-k reply"));
                }
                let instance_id = payload.get_u32();
                let n = payload.get_u16() as usize;
                if n > MAX_TOPK {
                    return Err(bad(&format!("top-k reply count {n} exceeds cap")));
                }
                if payload.remaining() < n * (4 + 8 + 8 + 8) {
                    return Err(bad("short top-k reply entries"));
                }
                let entries = (0..n)
                    .map(|_| TopKEntry {
                        host_id: payload.get_u32(),
                        t: payload.get_f64(),
                        rttf: payload.get_f64(),
                        model_generation: payload.get_u64(),
                    })
                    .collect();
                Ok(Message::TopKReply {
                    instance_id,
                    entries,
                })
            }
            14 => {
                if payload.remaining() < 4 + 6 * 8 + 4 + 2 {
                    return Err(bad("short fleet snapshot"));
                }
                let instance_id = payload.get_u32();
                let connections = payload.get_u64();
                let datapoints = payload.get_u64();
                let estimates = payload.get_u64();
                let alerts = payload.get_u64();
                let dropped = payload.get_u64();
                let model_generation = payload.get_u64();
                let hosts_tracked = payload.get_u32();
                let n = payload.get_u16() as usize;
                if payload.remaining() < n * 4 {
                    return Err(bad("short fleet snapshot shard depths"));
                }
                let shard_depths = (0..n).map(|_| payload.get_u32()).collect();
                Ok(Message::FleetSnapshot {
                    instance_id,
                    connections,
                    datapoints,
                    estimates,
                    alerts,
                    dropped,
                    model_generation,
                    hosts_tracked,
                    shard_depths,
                })
            }
            other => Err(bad(&format!("unknown tag {other}"))),
        }
    }

    /// Write this message as one frame to a stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let frame = self.encode();
        w.write_all(&frame)
    }

    /// Write this message as one frame through a reusable scratch buffer:
    /// zero allocations once `scratch` has warmed up, one `write_all`.
    pub fn write_to_buffered<W: Write>(&self, w: &mut W, scratch: &mut BytesMut) -> io::Result<()> {
        scratch.clear();
        self.encode_into(scratch);
        w.write_all(scratch)
    }

    /// Read one framed message from a stream. `Ok(None)` on clean EOF at a
    /// frame boundary.
    ///
    /// The length prefix is validated against [`MAX_FRAME`] *before* the
    /// payload buffer is allocated, so a corrupt prefix costs at most an
    /// `InvalidData` error naming the offending length — never a multi-GB
    /// allocation.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Option<Message>> {
        let mut len_buf = [0u8; 4];
        if !read_exact_or_eof(r, &mut len_buf)? {
            return Ok(None);
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(bad(&format!("bad frame length {len} (max {MAX_FRAME})")));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Message::decode(&payload).map(Some)
    }
}

/// How much [`FrameDecoder::fill_from`] asks the kernel for per `read`
/// (also the serve reactor's shared per-thread read-scratch size). Large
/// enough that a burst of datapoint frames (125 bytes each) arrives
/// dozens-at-a-time per syscall; small enough to stay cache-friendly.
pub const READ_CHUNK: usize = 16 * 1024;

/// Buffered streaming frame decoder: reads *ahead* of frame boundaries and
/// yields every complete frame already in its buffer without another
/// syscall.
///
/// [`Message::read_from`] costs at least two `read` syscalls per frame
/// (length prefix, then payload) plus a payload allocation. The decoder
/// instead maintains one reusable buffer: [`FrameDecoder::fill_from`]
/// appends whatever the kernel has (up to [`READ_CHUNK`] per call) and
/// [`FrameDecoder::try_frame`] slices complete frames out of it — many
/// frames per syscall under load, zero steady-state allocations, and
/// partial frames reassemble transparently across reads (proven by the
/// `split-boundary` proptests).
///
/// The caller owns the read loop, so stop flags and read timeouts stay
/// caller-controlled; [`FrameDecoder::read_frame`] is the plain blocking
/// convenience for clients.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Unconsumed bytes live in `buf[start..end]`.
    start: usize,
    end: usize,
}

impl FrameDecoder {
    /// A decoder with an empty buffer (storage grows on first use).
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Unconsumed buffered bytes (a partial frame when non-zero after a
    /// clean [`FrameDecoder::try_frame`] miss).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Decode the next complete frame already buffered. `Ok(None)` means
    /// more bytes are needed ([`FrameDecoder::fill_from`]); corrupt length
    /// prefixes and payloads surface as `InvalidData`, exactly like
    /// [`Message::read_from`].
    pub fn try_frame(&mut self) -> io::Result<Option<Message>> {
        match Message::try_frame_from(&self.buf[self.start..self.end])? {
            Some((msg, consumed)) => {
                self.start += consumed;
                if self.start == self.end {
                    self.start = 0;
                    self.end = 0;
                }
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    /// Append raw bytes read into a caller-owned buffer. The reactor edge
    /// uses this to keep per-connection memory proportional to *partial*
    /// frames only: the 16 KiB read scratch is shared per reactor, and
    /// only a frame tail that spans two reads lands here.
    pub fn push_bytes(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + data.len() {
            self.buf.resize(self.end + data.len(), 0);
        }
        self.buf[self.end..self.end + data.len()].copy_from_slice(data);
        self.end += data.len();
    }

    /// Append whatever the reader has ready, with **one** `read` call.
    /// Returns the byte count (0 = EOF). Read errors — including
    /// `WouldBlock`/`TimedOut` from a socket read timeout — pass through
    /// untouched, with the buffer left intact, so the caller can poll a
    /// stop flag and retry.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        // Compact: partial frames move to the front so the buffer never
        // grows past one max frame + one read chunk.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Blocking convenience: the next frame, filling as needed. `Ok(None)`
    /// on clean EOF at a frame boundary; EOF mid-frame is an error.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Message>> {
        loop {
            if let Some(msg) = self.try_frame()? {
                return Ok(Some(msg));
            }
            match self.fill_from(r) {
                Ok(0) => {
                    return if self.buffered() == 0 {
                        Ok(None)
                    } else {
                        Err(bad("eof mid-frame"))
                    }
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Like `read_exact`, but returns `Ok(false)` if EOF hits before the first
/// byte (clean connection close).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(bad("eof mid-frame")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::FeatureId;

    fn sample_dp() -> Datapoint {
        let mut d = Datapoint {
            t_gen: 123.456,
            values: [0.0; 14],
        };
        for (i, f) in crate::datapoint::FEATURES.iter().enumerate() {
            d.set(*f, i as f64 * 1.5 - 3.0);
        }
        d
    }

    fn all_variants() -> Vec<Message> {
        vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                host_id: 77,
            },
            Message::Datapoint(sample_dp()),
            Message::Fail { t: 999.25 },
            Message::Bye,
            Message::PredictRequest { host_id: 9 },
            Message::RttfEstimate {
                host_id: 9,
                t: 120.5,
                rttf: Some(431.75),
                model_generation: 3,
            },
            Message::RttfEstimate {
                host_id: 1,
                t: 0.0,
                rttf: None,
                model_generation: 1,
            },
            Message::Alert {
                host_id: 4,
                t: 500.0,
                rttf: 90.0,
                threshold: 180.0,
            },
            Message::StatsRequest,
            Message::MetricsRequest,
            Message::MetricsText {
                text: "# TYPE f2pm_requests_total counter\nf2pm_requests_total 7\n".to_string(),
            },
            Message::TopKRequest { k: 10 },
            Message::TopKReply {
                instance_id: 2,
                entries: vec![
                    TopKEntry {
                        host_id: 41,
                        t: 310.0,
                        rttf: 55.5,
                        model_generation: 4,
                    },
                    TopKEntry {
                        host_id: 7,
                        t: 290.0,
                        rttf: 120.25,
                        model_generation: 4,
                    },
                ],
            },
            Message::TopKReply {
                instance_id: 0,
                entries: vec![],
            },
            Message::FleetSnapshot {
                instance_id: 3,
                connections: 12,
                datapoints: 34_000,
                estimates: 2800,
                alerts: 3,
                dropped: 0,
                model_generation: 2,
                hosts_tracked: 11,
                shard_depths: vec![0, 7, 2, 0],
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for m in all_variants() {
            let frame = m.encode();
            let payload = &frame[4..];
            let got = Message::decode(payload).unwrap();
            assert_eq!(got, m);
        }
    }

    #[test]
    fn encode_into_is_byte_identical_to_encode_for_all_15_variants() {
        let variants = all_variants();
        assert_eq!(variants.len(), 15, "cover every frame variant");
        let mut scratch = BytesMut::new();
        for m in &variants {
            scratch.clear();
            m.encode_into(&mut scratch);
            assert_eq!(&scratch[..], &m.encode()[..], "{m:?}");
        }
    }

    #[test]
    fn encode_into_appends_frames_for_coalescing() {
        let a = Message::Fail { t: 1.5 };
        let b = Message::Bye;
        let mut buf = BytesMut::new();
        a.encode_into(&mut buf);
        let split = buf.len();
        b.encode_into(&mut buf);
        assert_eq!(&buf[..split], &a.encode()[..], "first frame untouched");
        assert_eq!(&buf[split..], &b.encode()[..], "second frame appended");
    }

    #[test]
    fn write_to_buffered_emits_one_whole_frame_and_reuses_scratch() {
        let mut scratch = BytesMut::new();
        let mut out: Vec<u8> = Vec::new();
        let m = Message::PredictRequest { host_id: 3 };
        m.write_to_buffered(&mut out, &mut scratch).unwrap();
        Message::Bye
            .write_to_buffered(&mut out, &mut scratch)
            .unwrap();
        let mut cursor = std::io::Cursor::new(out);
        assert_eq!(Message::read_from(&mut cursor).unwrap().unwrap(), m);
        assert_eq!(
            Message::read_from(&mut cursor).unwrap().unwrap(),
            Message::Bye
        );
    }

    /// A reader that hands out at most `chunks[i]` bytes per `read` call
    /// (cycling), slicing the stream at arbitrary non-frame boundaries.
    struct ChunkedReader {
        data: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        turn: usize,
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let chunk = self.chunks[self.turn % self.chunks.len()].max(1);
            self.turn += 1;
            let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn decoder_reassembles_frames_split_byte_by_byte() {
        let msgs = all_variants();
        let mut data = Vec::new();
        for m in &msgs {
            m.write_to(&mut data).unwrap();
        }
        let mut r = ChunkedReader {
            data,
            pos: 0,
            chunks: vec![1],
            turn: 0,
        };
        let mut dec = FrameDecoder::new();
        for expect in &msgs {
            assert_eq!(dec.read_frame(&mut r).unwrap().as_ref(), Some(expect));
        }
        assert!(dec.read_frame(&mut r).unwrap().is_none(), "clean EOF");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_yields_multiple_buffered_frames_without_refill() {
        let mut data = Vec::new();
        for i in 0..20 {
            Message::Fail { t: i as f64 }.write_to(&mut data).unwrap();
        }
        let mut cursor = std::io::Cursor::new(data);
        let mut dec = FrameDecoder::new();
        assert!(dec.try_frame().unwrap().is_none(), "empty buffer");
        // One fill grabs everything (far below READ_CHUNK); every frame
        // must then come out of try_frame with no further reads.
        assert!(dec.fill_from(&mut cursor).unwrap() > 0);
        for i in 0..20 {
            match dec.try_frame().unwrap() {
                Some(Message::Fail { t }) => assert_eq!(t, i as f64),
                other => panic!("frame {i}: {other:?}"),
            }
        }
        assert!(dec.try_frame().unwrap().is_none());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn try_frame_from_slices_frames_and_reports_consumption() {
        let msgs = all_variants();
        let mut data = Vec::new();
        for m in &msgs {
            m.write_to(&mut data).unwrap();
        }
        let mut off = 0usize;
        for expect in &msgs {
            let (got, used) = Message::try_frame_from(&data[off..]).unwrap().unwrap();
            assert_eq!(&got, expect);
            off += used;
        }
        assert_eq!(off, data.len());
        // A partial tail is Ok(None), never an error.
        let frame = Message::Fail { t: 2.0 }.encode();
        for cut in 0..frame.len() {
            assert!(Message::try_frame_from(&frame[..cut]).unwrap().is_none());
        }
        // A corrupt length prefix still errors.
        let mut bad_len = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bad_len.push(4);
        assert!(Message::try_frame_from(&bad_len).is_err());
    }

    #[test]
    fn push_bytes_reassembles_partial_frames_across_chunks() {
        let msgs = all_variants();
        let mut data = Vec::new();
        for m in &msgs {
            m.write_to(&mut data).unwrap();
        }
        // Feed the stream through push_bytes in ragged chunks, draining
        // whole frames between pushes — the reactor edge's exact shape.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in data.chunks(7) {
            dec.push_bytes(chunk);
            while let Some(msg) = dec.try_frame().unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_corrupt_length_and_eof_mid_frame() {
        // Oversized claimed length.
        let mut bad_len = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bad_len.push(4);
        let mut cursor = std::io::Cursor::new(bad_len);
        let mut dec = FrameDecoder::new();
        assert!(dec.read_frame(&mut cursor).is_err());
        // EOF with a partial frame buffered.
        let frame = Message::Fail { t: 5.0 }.encode();
        let mut cursor = std::io::Cursor::new(frame[..frame.len() - 2].to_vec());
        let mut dec = FrameDecoder::new();
        let err = dec.read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("eof mid-frame"), "{err}");
    }

    #[test]
    fn metrics_text_roundtrips_unicode() {
        let m = Message::metrics_text("f2pm_µs_sum 12\nf2pm_µs_count 3\n".to_string());
        let frame = m.encode();
        assert_eq!(Message::decode(&frame[4..]).unwrap(), m);
    }

    #[test]
    fn oversized_metrics_text_truncates_at_a_line_boundary() {
        let line = "f2pm_some_metric_with_a_longish_name_total 123456789\n";
        let big = line.repeat(2 * MAX_METRICS_TEXT / line.len());
        assert!(big.len() > MAX_METRICS_TEXT);
        match Message::metrics_text(big) {
            Message::MetricsText { text } => {
                assert!(text.len() <= MAX_METRICS_TEXT);
                assert!(!text.is_empty());
                assert!(text.ends_with('\n'), "cut on a full line");
                // And the truncated frame still round-trips.
                let m = Message::MetricsText { text };
                let frame = m.encode();
                assert!(frame.len() - 4 <= MAX_FRAME);
                assert_eq!(Message::decode(&frame[4..]).unwrap(), m);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn metrics_text_rejects_bad_payloads() {
        // Claimed string length beyond the cap.
        let mut payload = vec![11u8];
        payload.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        assert!(Message::decode(&payload).is_err());
        // Claimed length beyond the actual body.
        let mut payload = vec![11u8];
        payload.extend_from_slice(&10u32.to_be_bytes());
        payload.extend_from_slice(b"short");
        assert!(Message::decode(&payload).is_err());
        // Invalid UTF-8 body.
        let mut payload = vec![11u8];
        payload.extend_from_slice(&2u32.to_be_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Message::decode(&payload).is_err());
    }

    #[test]
    fn stream_roundtrip_multiple_messages() {
        let mut buf: Vec<u8> = Vec::new();
        let msgs = vec![
            Message::Hello {
                version: 1,
                host_id: 1,
            },
            Message::Datapoint(sample_dp()),
            Message::Datapoint(sample_dp()),
            Message::Fail { t: 1.0 },
            Message::Bye,
        ];
        for m in &msgs {
            m.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for expect in &msgs {
            let got = Message::read_from(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, expect);
        }
        assert!(
            Message::read_from(&mut cursor).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn datapoint_values_survive_exactly() {
        let d = sample_dp();
        let frame = Message::Datapoint(d).encode();
        match Message::decode(&frame[4..]).unwrap() {
            Message::Datapoint(got) => {
                assert_eq!(got.t_gen, 123.456);
                assert_eq!(got.get(FeatureId::NThreads), -3.0);
                assert_eq!(got.values, d.values);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn truncated_payloads_rejected() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[1, 0]).is_err()); // short hello
        assert!(Message::decode(&[2, 0, 0]).is_err()); // short datapoint
        assert!(Message::decode(&[3]).is_err()); // short fail
        assert!(Message::decode(&[99]).is_err()); // unknown tag
        assert!(Message::decode(&[5, 0]).is_err()); // short predict request
        assert!(Message::decode(&[6, 0, 0, 0, 0]).is_err()); // short estimate
        assert!(Message::decode(&[7, 1, 2]).is_err()); // short alert

        // Tag 9 (the retired anonymous stats snapshot) is unassigned.
        let err = Message::decode(&[9, 0]).unwrap_err();
        assert!(err.to_string().contains("unknown tag 9"), "{err}");
        // FleetSnapshot whose depth count exceeds the remaining payload.
        let mut snap = Message::FleetSnapshot {
            instance_id: 1,
            connections: 1,
            datapoints: 1,
            estimates: 1,
            alerts: 0,
            dropped: 0,
            model_generation: 1,
            hosts_tracked: 1,
            shard_depths: vec![1, 2],
        }
        .encode()
        .to_vec();
        let n = snap.len();
        snap.truncate(n - 4); // cut one depth entry
        assert!(Message::decode(&snap[4..]).is_err());
        // Estimate with a corrupt presence flag.
        let mut est = Message::RttfEstimate {
            host_id: 0,
            t: 0.0,
            rttf: Some(1.0),
            model_generation: 0,
        }
        .encode()
        .to_vec();
        est[4 + 1 + 4 + 8] = 2; // flag byte: frame(4) + tag + host(4) + t(8)
        assert!(Message::decode(&est[4..]).is_err());
    }

    #[test]
    fn fleet_frames_reject_bad_payloads() {
        assert!(Message::decode(&[12, 0]).is_err()); // short top-k request
        assert!(Message::decode(&[13, 0, 0, 0, 0, 0]).is_err()); // short top-k reply
        assert!(Message::decode(&[14, 0, 0]).is_err()); // short fleet snapshot
                                                        // TopKReply whose entry count exceeds the remaining payload.
        let mut reply = Message::TopKReply {
            instance_id: 1,
            entries: vec![TopKEntry {
                host_id: 3,
                t: 1.0,
                rttf: 2.0,
                model_generation: 1,
            }],
        }
        .encode()
        .to_vec();
        let n = reply.len();
        reply.truncate(n - 8); // cut into the entry
        assert!(Message::decode(&reply[4..]).is_err());
        // Claimed entry count beyond MAX_TOPK.
        let mut payload = vec![13u8];
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&((MAX_TOPK + 1) as u16).to_be_bytes());
        assert!(Message::decode(&payload).is_err());
    }

    #[test]
    fn max_topk_reply_fits_one_frame() {
        let entries = (0..MAX_TOPK as u32)
            .map(|i| TopKEntry {
                host_id: i,
                t: i as f64,
                rttf: (MAX_TOPK as u32 - i) as f64,
                model_generation: 9,
            })
            .collect();
        let m = Message::TopKReply {
            instance_id: 7,
            entries,
        };
        let frame = m.encode();
        assert!(frame.len() - 4 <= MAX_FRAME, "full reply fits the cap");
        assert_eq!(Message::decode(&frame[4..]).unwrap(), m);
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let frame = Message::Fail { t: 5.0 }.encode();
        let cut = &frame[..frame.len() - 2];
        let mut cursor = std::io::Cursor::new(cut.to_vec());
        assert!(Message::read_from(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.push(4);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(Message::read_from(&mut cursor).is_err());
    }

    #[test]
    fn corrupt_length_prefix_errors_without_allocating() {
        // A multi-GB claimed length must come back as InvalidData naming
        // the offending length — not as an allocation attempt.
        let claimed: u32 = 3_000_000_000;
        let mut buf = claimed.to_be_bytes().to_vec();
        buf.push(4);
        let mut cursor = std::io::Cursor::new(buf);
        let err = Message::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("3000000000"), "error names the length: {msg}");
    }

    #[test]
    fn frame_cap_boundary() {
        // One past MAX_FRAME: rejected before any payload read.
        let mut buf = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        buf.push(4);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(Message::read_from(&mut cursor).is_err());
        // Exactly MAX_FRAME: accepted as a length (payload decode then
        // fails on the unknown tag, proving we got past the cap check).
        let mut buf = (MAX_FRAME as u32).to_be_bytes().to_vec();
        buf.extend(vec![0xEEu8; MAX_FRAME]);
        let mut cursor = std::io::Cursor::new(buf);
        let err = Message::read_from(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("unknown tag"), "{err}");
    }

    #[test]
    fn zero_length_frame_rejected() {
        let buf = 0u32.to_be_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(buf);
        assert!(Message::read_from(&mut cursor).is_err());
    }

    mod properties {
        //! Property round-trips: every message survives
        //! encode → frame → decode bit-exactly, singly and in streams.
        use super::*;
        use proptest::prelude::*;

        /// Finite, sign/scale-diverse f64s (wire floats are raw IEEE-754,
        /// so any finite value must survive exactly).
        fn arb_f64() -> impl Strategy<Value = f64> {
            (0u8..4, -1.0e12f64..1.0e12).prop_map(|(k, v)| match k {
                0 => v,
                1 => v * 1.0e-9,
                2 => v.trunc(),
                _ => 0.0,
            })
        }

        fn arb_datapoint() -> impl Strategy<Value = Datapoint> {
            (arb_f64(), proptest::collection::vec(arb_f64(), 14)).prop_map(|(t_gen, vals)| {
                let mut values = [0.0; 14];
                values.copy_from_slice(&vals);
                Datapoint { t_gen, values }
            })
        }

        /// Arbitrary exposition-ish text: printable ASCII plus newlines (the
        /// offline proptest stub has no String strategy, so build one from
        /// bytes).
        fn arb_text() -> impl Strategy<Value = String> {
            proptest::collection::vec(0u8..96, 0..200).prop_map(|bytes| {
                bytes
                    .into_iter()
                    .map(|b| if b == 95 { '\n' } else { (b + 32) as char })
                    .collect()
            })
        }

        /// One strategy covering every message variant. (The
        /// offline proptest stub supports 2- and 3-tuples, so the inputs
        /// nest.)
        fn arb_message() -> impl Strategy<Value = Message> {
            (
                (0u8..14, (0u64..u64::MAX, 0u32..u32::MAX, 0u16..u16::MAX)),
                ((arb_f64(), arb_f64(), arb_f64()), arb_text()),
                (
                    arb_datapoint(),
                    proptest::collection::vec(0u32..100_000, 0..9),
                ),
            )
                .prop_map(
                    |((pick, (n, host_id, version)), ((a, b, c), text), (dp, depths))| match pick {
                        0 => Message::Hello { version, host_id },
                        1 => Message::Datapoint(dp),
                        2 => Message::Fail { t: a },
                        3 => Message::Bye,
                        4 => Message::PredictRequest { host_id },
                        5 => Message::RttfEstimate {
                            host_id,
                            t: a,
                            rttf: Some(b),
                            model_generation: n,
                        },
                        6 => Message::RttfEstimate {
                            host_id,
                            t: a,
                            rttf: None,
                            model_generation: n,
                        },
                        7 => Message::Alert {
                            host_id,
                            t: a,
                            rttf: b,
                            threshold: c,
                        },
                        8 => Message::StatsRequest,
                        9 => Message::MetricsRequest,
                        10 => Message::MetricsText { text },
                        11 => Message::TopKRequest {
                            k: version % MAX_TOPK as u16,
                        },
                        12 => Message::TopKReply {
                            instance_id: host_id,
                            entries: depths
                                .iter()
                                .enumerate()
                                .map(|(i, &d)| TopKEntry {
                                    host_id: d,
                                    t: a + i as f64,
                                    rttf: b + i as f64,
                                    model_generation: n % 1000,
                                })
                                .collect(),
                        },
                        _ => Message::FleetSnapshot {
                            instance_id: host_id,
                            connections: n % 100_000,
                            datapoints: n,
                            estimates: n / 3,
                            alerts: n % 17,
                            dropped: n % 5,
                            model_generation: n % 1000,
                            hosts_tracked: host_id % 10_000,
                            shard_depths: depths,
                        },
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            #[test]
            fn any_message_roundtrips(m in arb_message()) {
                let frame = m.encode();
                prop_assert!(frame.len() >= 5, "frame has prefix + tag");
                prop_assert!(frame.len() - 4 <= MAX_FRAME, "fits the cap");
                let got = Message::decode(&frame[4..])
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(got, m);
            }

            #[test]
            fn message_streams_roundtrip(
                msgs in proptest::collection::vec(arb_message(), 1..12)
            ) {
                let mut buf: Vec<u8> = Vec::new();
                for m in &msgs {
                    m.write_to(&mut buf)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
                let mut cursor = std::io::Cursor::new(buf);
                for expect in &msgs {
                    let got = Message::read_from(&mut cursor)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert_eq!(got.as_ref(), Some(expect));
                }
                let eof = Message::read_from(&mut cursor)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert!(eof.is_none(), "clean EOF after the last frame");
            }

            #[test]
            fn truncated_frames_never_decode(m in arb_message(), cut in 1usize..20) {
                let frame = m.encode().to_vec();
                prop_assume!(cut < frame.len());
                let mut cursor = std::io::Cursor::new(frame[..frame.len() - cut].to_vec());
                // A truncated stream must yield an error, never a message.
                prop_assert!(Message::read_from(&mut cursor).is_err());
            }

            #[test]
            fn encode_into_matches_encode_for_any_message(
                msgs in proptest::collection::vec(arb_message(), 1..8)
            ) {
                // Coalesced into one buffer, the frames are the exact
                // concatenation of the per-message `encode()` outputs.
                let mut buf = BytesMut::new();
                let mut expect: Vec<u8> = Vec::new();
                for m in &msgs {
                    m.encode_into(&mut buf);
                    expect.extend_from_slice(&m.encode());
                }
                prop_assert_eq!(&buf[..], &expect[..]);
            }

            #[test]
            fn decoder_roundtrips_any_stream_at_any_split_boundaries(
                msgs in proptest::collection::vec(arb_message(), 1..10),
                chunks in proptest::collection::vec(1usize..96, 1..8)
            ) {
                // Encode the whole sequence with the scratch-buffer path,
                // then re-read it through reads sliced at arbitrary byte
                // boundaries: every frame must reassemble exactly.
                let mut buf = BytesMut::new();
                for m in &msgs {
                    m.encode_into(&mut buf);
                }
                let mut r = ChunkedReader {
                    data: buf.to_vec(),
                    pos: 0,
                    chunks,
                    turn: 0,
                };
                let mut dec = FrameDecoder::new();
                for expect in &msgs {
                    let got = dec.read_frame(&mut r)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert_eq!(got.as_ref(), Some(expect));
                }
                let eof = dec.read_frame(&mut r)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert!(eof.is_none(), "clean EOF after the last frame");
                prop_assert_eq!(dec.buffered(), 0);
            }
        }
    }
}
