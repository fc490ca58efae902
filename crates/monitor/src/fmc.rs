//! Feature Monitor Client (FMC).
//!
//! The paper's thin client: it periodically gathers feature measurements on
//! the monitored machine and ships them to the collecting server (the
//! paper's FMS; here a `f2pm serve --record DIR` instance) over TCP. This
//! implementation wraps any [`Collector`] — the simulator-backed one for
//! experiments or [`crate::ProcCollector`] for a real host — and streams
//! until the source is exhausted.

use crate::collector::Collector;
use crate::datapoint::Datapoint;
use crate::wire::{Message, PROTOCOL_VERSION};
use bytes::BytesMut;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long [`FeatureMonitorClient::close`] waits for the server to close
/// the connection after `Bye`.
const CLOSE_DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// FMC configuration.
#[derive(Debug, Clone, Copy)]
pub struct FmcConfig {
    /// Identifier reported in the handshake.
    pub host_id: u32,
    /// Wall-clock pause between samples (None = as fast as the collector
    /// yields; the simulator-backed collector paces itself in virtual
    /// time, so no real sleep is needed there).
    pub pause: Option<std::time::Duration>,
    /// Reconnect attempts after a mid-stream send failure before the
    /// client gives up on that message (0 = fail hard on the first send
    /// error, the pre-reconnect behavior).
    pub max_reconnect_attempts: u32,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub reconnect_backoff: Duration,
}

impl Default for FmcConfig {
    fn default() -> Self {
        FmcConfig {
            host_id: 0,
            pause: None,
            max_reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(20),
        }
    }
}

/// A connected FMC.
pub struct FeatureMonitorClient {
    stream: TcpStream,
    /// Resolved server address, kept for reconnects.
    addr: SocketAddr,
    cfg: FmcConfig,
    sent: u64,
    dropped: u64,
    reconnects: u64,
    /// Reusable frame-encode scratch: steady-state sends allocate nothing.
    scratch: BytesMut,
    /// Process-global mirrors of the per-client counters, so one metrics
    /// scrape sees the whole monitoring fleet's transport health.
    obs_sent: f2pm_obs::Counter,
    obs_dropped: f2pm_obs::Counter,
    obs_reconnects: f2pm_obs::Counter,
}

impl FeatureMonitorClient {
    /// Connect and perform the handshake.
    pub fn connect(addr: impl ToSocketAddrs, cfg: FmcConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        let stream = handshake(stream, &cfg)?;
        let obs = f2pm_obs::global();
        Ok(FeatureMonitorClient {
            stream,
            addr,
            cfg,
            sent: 0,
            dropped: 0,
            reconnects: 0,
            scratch: BytesMut::new(),
            obs_sent: obs.counter("f2pm_fmc_datapoints_sent_total"),
            obs_dropped: obs.counter("f2pm_fmc_dropped_frames_total"),
            obs_reconnects: obs.counter("f2pm_fmc_reconnects_total"),
        })
    }

    /// Datapoints sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Datapoints dropped because send *and* every reconnect attempt
    /// failed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Successful mid-stream reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Send one message, transparently reconnecting (with bounded
    /// exponential backoff) when the server connection broke mid-stream.
    /// Returns `Ok(false)` when the message had to be dropped after every
    /// attempt failed — the stream itself stays usable for later sends.
    fn send_resilient(&mut self, msg: &Message) -> io::Result<bool> {
        let first_err = match msg.write_to_buffered(&mut self.stream, &mut self.scratch) {
            Ok(()) => return Ok(true),
            Err(e) => e,
        };
        if self.cfg.max_reconnect_attempts == 0 {
            return Err(first_err);
        }
        let mut backoff = self.cfg.reconnect_backoff;
        for _ in 0..self.cfg.max_reconnect_attempts {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
            let Ok(stream) = TcpStream::connect(self.addr) else {
                continue;
            };
            let Ok(mut stream) = handshake(stream, &self.cfg) else {
                continue;
            };
            if msg.write_to(&mut stream).is_ok() {
                self.stream = stream;
                self.reconnects += 1;
                self.obs_reconnects.inc();
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Send one datapoint. A broken connection triggers transparent
    /// reconnect-with-backoff; if every attempt fails the datapoint is
    /// counted in [`FeatureMonitorClient::dropped`] instead of surfacing a
    /// mid-stream error (set `max_reconnect_attempts: 0` to fail hard).
    pub fn send_datapoint(&mut self, d: &Datapoint) -> io::Result<()> {
        if self.send_resilient(&Message::Datapoint(*d))? {
            self.sent += 1;
            self.obs_sent.inc();
        } else {
            self.dropped += 1;
            self.obs_dropped.inc();
        }
        Ok(())
    }

    /// Send a fail event (reconnecting like
    /// [`FeatureMonitorClient::send_datapoint`]; a fail event that cannot
    /// be delivered at all *is* surfaced, because silently dropping it
    /// would corrupt the run labeling).
    pub fn send_fail(&mut self, t: f64) -> io::Result<()> {
        if self.send_resilient(&Message::Fail { t })? {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "fail event undeliverable after reconnect attempts",
            ))
        }
    }

    /// Drain a collector to the server: stream datapoints until the source
    /// is exhausted or `max_points` is hit. Returns the number of
    /// datapoints sent by this call. The caller follows up with
    /// [`FeatureMonitorClient::send_fail`] if the source died of the
    /// failure condition.
    pub fn stream_collector<C: Collector>(
        &mut self,
        collector: &mut C,
        max_points: Option<u64>,
    ) -> io::Result<u64> {
        let mut n = 0u64;
        while max_points.is_none_or(|m| n < m) {
            match collector.collect() {
                Some(d) => {
                    self.send_datapoint(&d)?;
                    n += 1;
                    if let Some(p) = self.cfg.pause {
                        std::thread::sleep(p);
                    }
                }
                None => break,
            }
        }
        Ok(n)
    }

    /// Orderly close: `Bye`, then read until the server closes its side.
    /// The client never reads what a serve instance pushes (alerts), and
    /// closing a socket with unread input makes the kernel send a reset,
    /// which discards whatever the server has not read yet — the end of
    /// the stream, fail event included. A server that does not close
    /// within 10 s is an error.
    pub fn close(mut self) -> io::Result<()> {
        Message::Bye.write_to(&mut self.stream)?;
        self.stream.shutdown(Shutdown::Write)?;
        self.stream.set_read_timeout(Some(CLOSE_DRAIN_TIMEOUT))?;
        io::copy(&mut self.stream, &mut io::sink()).map(drop)
    }
}

/// Open the connection's handshake: nodelay + Hello.
fn handshake(mut stream: TcpStream, cfg: &FmcConfig) -> io::Result<TcpStream> {
    stream.set_nodelay(true).ok();
    Message::Hello {
        version: PROTOCOL_VERSION,
        host_id: cfg.host_id,
    }
    .write_to(&mut stream)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{SimCollector, SimCollectorConfig};
    use f2pm_sim::{AnomalyConfig, SimConfig, Simulation};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A bare stand-in for the collecting server: accepts one connection
    /// on `listener` and returns every frame it sent, up to `Bye` or EOF.
    fn record_one_connection(listener: TcpListener) -> JoinHandle<Vec<Message>> {
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut frames = Vec::new();
            while let Ok(Some(msg)) = Message::read_from(&mut conn) {
                let bye = msg == Message::Bye;
                frames.push(msg);
                if bye {
                    break;
                }
            }
            frames
        })
    }

    fn bind_local() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    fn datapoints(frames: &[Message]) -> Vec<Datapoint> {
        frames
            .iter()
            .filter_map(|m| match m {
                Message::Datapoint(d) => Some(*d),
                _ => None,
            })
            .collect()
    }

    fn fast_sim(seed: u64) -> Simulation {
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

    #[test]
    fn end_to_end_sim_to_server() {
        let (listener, addr) = bind_local();
        let server = record_one_connection(listener);
        let mut client = FeatureMonitorClient::connect(
            addr,
            FmcConfig {
                host_id: 5,
                ..FmcConfig::default()
            },
        )
        .unwrap();

        let mut collector = SimCollector::new(fast_sim(5), SimCollectorConfig::default(), 5);
        let sent = client.stream_collector(&mut collector, None).unwrap();
        let fail_t = collector.simulation().failed_at().expect("guest crashed");
        client.send_fail(fail_t).unwrap();
        client.close().unwrap();

        assert!(sent > 50, "sent only {sent}");
        let frames = server.join().unwrap();
        assert_eq!(
            frames.first(),
            Some(&Message::Hello {
                version: PROTOCOL_VERSION,
                host_id: 5
            })
        );
        assert_eq!(datapoints(&frames).len() as u64, sent);
        let n = frames.len();
        assert_eq!(frames[n - 2..], [Message::Fail { t: fail_t }, Message::Bye]);
        assert!(fail_t > 0.0);
    }

    #[test]
    fn max_points_respected() {
        let (listener, addr) = bind_local();
        let server = record_one_connection(listener);
        let mut client = FeatureMonitorClient::connect(addr, FmcConfig::default()).unwrap();
        let mut collector = SimCollector::new(fast_sim(6), SimCollectorConfig::default(), 6);
        let sent = client.stream_collector(&mut collector, Some(10)).unwrap();
        assert_eq!(sent, 10);
        assert_eq!(client.sent(), 10);
        client.close().unwrap();
        assert_eq!(datapoints(&server.join().unwrap()).len(), 10);
    }

    #[test]
    fn connect_failure_is_an_error() {
        // Port 1 on localhost is almost certainly closed.
        let r = FeatureMonitorClient::connect("127.0.0.1:1", FmcConfig::default());
        assert!(r.is_err());
    }

    fn dp(t: f64) -> crate::Datapoint {
        crate::Datapoint {
            t_gen: t,
            values: [t; 14],
        }
    }

    #[test]
    fn datapoints_dropped_not_errored_when_server_stays_down() {
        // A raw listener the test controls end to end: dropping the
        // accepted stream with unread data forces an immediate RST, and
        // dropping the listener makes every reconnect attempt fail too.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = FeatureMonitorClient::connect(
            addr,
            FmcConfig {
                max_reconnect_attempts: 2,
                reconnect_backoff: std::time::Duration::from_millis(1),
                ..FmcConfig::default()
            },
        )
        .unwrap();
        client.send_datapoint(&dp(0.0)).unwrap();
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
        drop(listener);
        // The kernel socket buffer may swallow writes until the peer's RST
        // is processed; keep sending (paced, so the RST has time to land) —
        // none of them may return Err, and the undeliverable ones must land
        // in the dropped counter.
        for i in 1..500 {
            client
                .send_datapoint(&dp(i as f64))
                .expect("send never hard-errors mid-stream");
            if client.dropped() > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(client.dropped() > 0, "drops counted once the pipe broke");
        // A fail event that cannot be delivered is a hard error, though.
        assert!(client.send_fail(99.0).is_err());
    }

    #[test]
    fn reconnects_to_restarted_server_with_backoff() {
        // The first server dies with the client's connection open: a raw
        // listener that accepts, then drops the connection and itself.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = FeatureMonitorClient::connect(
            addr,
            FmcConfig {
                host_id: 3,
                max_reconnect_attempts: 5,
                reconnect_backoff: std::time::Duration::from_millis(5),
                ..FmcConfig::default()
            },
        )
        .unwrap();
        client.send_datapoint(&dp(0.0)).unwrap();
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
        drop(listener);

        // Rebind the same port (retry briefly: the OS may need a moment to
        // release it).
        let server2 = (0..50)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                TcpListener::bind(addr).ok()
            })
            .map(record_one_connection)
            .expect("rebind restarted server");

        let mut delivered = 0u64;
        for i in 1..200 {
            client.send_datapoint(&dp(i as f64)).unwrap();
            if client.reconnects() > 0 {
                delivered += 1;
                if delivered >= 5 {
                    break;
                }
            } else {
                // Paced, so the dead connection's RST has time to land.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        assert!(client.reconnects() > 0, "client reconnected");
        assert!(delivered >= 5);
        client.send_fail(500.0).unwrap();
        client.close().unwrap();
        // The restarted server received the post-reconnect traffic,
        // opened by the re-handshake that names the host.
        let frames = server2.join().unwrap();
        assert_eq!(
            frames.first(),
            Some(&Message::Hello {
                version: PROTOCOL_VERSION,
                host_id: 3
            })
        );
        assert!(datapoints(&frames).len() as u64 >= delivered);
        assert!(frames.contains(&Message::Fail { t: 500.0 }));
    }

    #[test]
    fn zero_reconnect_attempts_fails_hard() {
        // A server that dies with the connection open (see
        // `reconnects_to_restarted_server_with_backoff`).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = FeatureMonitorClient::connect(
            listener.local_addr().unwrap(),
            FmcConfig {
                max_reconnect_attempts: 0,
                ..FmcConfig::default()
            },
        )
        .unwrap();
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
        drop(listener);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut saw_err = false;
        for i in 0..60 {
            if client.send_datapoint(&dp(i as f64)).is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err, "pre-reconnect behavior: hard error surfaces");
        assert_eq!(client.dropped(), 0);
    }
}
