//! Feature Monitor Server (FMS).
//!
//! The paper's FMS receives datapoints from one or more thin FMC clients
//! over TCP/IP and accumulates them into the data history used for model
//! training. This implementation accepts any number of concurrent clients,
//! each served by its own thread; the shared history sits behind a
//! `parking_lot::Mutex` (cheap uncontended locking — see the workspace's
//! HPC guides).

use crate::history::DataHistory;
use crate::wire::{Message, PROTOCOL_VERSION};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shared server state.
struct Shared {
    /// Combined history across every client (the paper's single training
    /// corpus).
    history: Mutex<DataHistory>,
    /// Per-host histories keyed by the `Hello` handshake's host id — for
    /// deployments monitoring several guests whose data should train
    /// separate models.
    by_host: Mutex<HashMap<u32, DataHistory>>,
    stop: AtomicBool,
    /// Live connections (incremented on accept, decremented when the
    /// connection thread finishes).
    connections: AtomicU64,
    /// Connections accepted since start (never decremented).
    total_accepted: AtomicU64,
    datapoints: AtomicU64,
    /// Process-global mirrors (see `f2pm-obs`) so scrapes observe the FMS
    /// alongside every other subsystem.
    obs_accepted: f2pm_obs::Counter,
    obs_datapoints: f2pm_obs::Counter,
    obs_live: f2pm_obs::Gauge,
}

impl Shared {
    fn new() -> Self {
        Shared {
            history: Mutex::new(DataHistory::new()),
            by_host: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            total_accepted: AtomicU64::new(0),
            datapoints: AtomicU64::new(0),
            obs_accepted: f2pm_obs::global().counter("f2pm_fms_connections_total"),
            obs_datapoints: f2pm_obs::global().counter("f2pm_fms_datapoints_total"),
            obs_live: f2pm_obs::global().gauge("f2pm_fms_connections"),
        }
    }
}

/// Handle to a running server; dropping it does *not* stop the server —
/// call [`FmsHandle::shutdown`].
pub struct FmsHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

/// The Feature Monitor Server.
pub struct FeatureMonitorServer;

impl FeatureMonitorServer {
    /// Bind and start accepting in a background thread. Use port 0 to let
    /// the OS choose.
    pub fn start(addr: impl ToSocketAddrs) -> io::Result<FmsHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::new());
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("fms-accept".into())
            .spawn(move || accept_clients(listener, accept_shared))
            .expect("spawn fms accept thread");
        Ok(FmsHandle {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
        })
    }
}

fn accept_clients(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let conn_shared = Arc::clone(&shared);
                shared.connections.fetch_add(1, Ordering::SeqCst);
                shared.total_accepted.fetch_add(1, Ordering::SeqCst);
                shared.obs_accepted.inc();
                shared.obs_live.add(1.0);
                std::thread::Builder::new()
                    .name("fms-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, &conn_shared);
                        conn_shared.connections.fetch_sub(1, Ordering::SeqCst);
                        conn_shared.obs_live.add(-1.0);
                    })
                    .expect("spawn fms connection thread");
            }
            // Transient accept errors (EMFILE, ECONNABORTED, EINTR, ...)
            // must not kill the server: back off briefly and keep
            // accepting. Only an explicit shutdown exits the loop.
            Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let mut stream = stream;
    let mut host: Option<u32> = None;
    while let Some(msg) = Message::read_from(&mut stream)? {
        match msg {
            Message::Hello { version, host_id } => {
                if version != PROTOCOL_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("client protocol {version}, server speaks {PROTOCOL_VERSION}"),
                    ));
                }
                host = Some(host_id);
            }
            Message::Datapoint(d) => {
                shared.history.lock().push_datapoint(d);
                if let Some(h) = host {
                    shared
                        .by_host
                        .lock()
                        .entry(h)
                        .or_default()
                        .push_datapoint(d);
                }
                shared.datapoints.fetch_add(1, Ordering::Relaxed);
                shared.obs_datapoints.inc();
            }
            Message::Fail { t } => {
                shared.history.lock().push_fail(t);
                if let Some(h) = host {
                    shared.by_host.lock().entry(h).or_default().push_fail(t);
                }
            }
            Message::Bye => break,
            // Serving traffic: the passive FMS only collects — it has
            // no estimates or metrics exposition to answer with, so requests
            // are ignored and server-role frames from a confused peer are
            // dropped (`f2pm-serve` is the server that speaks these).
            Message::PredictRequest { .. }
            | Message::StatsRequest
            | Message::RttfEstimate { .. }
            | Message::Alert { .. }
            | Message::MetricsRequest
            | Message::MetricsText { .. }
            | Message::TopKRequest { .. }
            | Message::TopKReply { .. }
            | Message::FleetSnapshot { .. } => {}
        }
    }
    Ok(())
}

impl FmsHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Datapoints received so far (all clients).
    pub fn datapoint_count(&self) -> u64 {
        self.shared.datapoints.load(Ordering::Relaxed)
    }

    /// Connections currently live (accepted and not yet disconnected).
    pub fn connection_count(&self) -> u64 {
        self.shared.connections.load(Ordering::SeqCst)
    }

    /// Connections accepted since the server started (never decreases).
    pub fn total_accepted(&self) -> u64 {
        self.shared.total_accepted.load(Ordering::SeqCst)
    }

    /// Clone the accumulated history.
    pub fn history(&self) -> DataHistory {
        self.shared.history.lock().clone()
    }

    /// Host ids that have completed a handshake and sent data.
    pub fn hosts(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.shared.by_host.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Clone one host's history (None if the host never sent anything).
    pub fn history_for(&self, host: u32) -> Option<DataHistory> {
        self.shared.by_host.lock().get(&host).cloned()
    }

    /// Stop accepting, unblock the accept loop, and join it. Connection
    /// threads finish on their clients' Bye/EOF.
    pub fn shutdown(mut self) -> DataHistory {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.history.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::Datapoint;

    fn dp(t: f64) -> Datapoint {
        Datapoint {
            t_gen: t,
            values: [t; 14],
        }
    }

    #[test]
    fn receives_datapoints_and_fail_events() {
        let server = FeatureMonitorServer::start("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        Message::Hello {
            version: PROTOCOL_VERSION,
            host_id: 42,
        }
        .write_to(&mut stream)
        .unwrap();
        for i in 0..5 {
            Message::Datapoint(dp(i as f64))
                .write_to(&mut stream)
                .unwrap();
        }
        Message::Fail { t: 10.0 }.write_to(&mut stream).unwrap();
        Message::Bye.write_to(&mut stream).unwrap();
        drop(stream);

        // Wait for the server thread to drain the socket.
        for _ in 0..100 {
            if server.datapoint_count() == 5 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let history = server.shutdown();
        assert_eq!(history.datapoint_count(), 5);
        assert_eq!(history.fail_count(), 1);
        let runs = history.runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].fail_time, Some(10.0));
    }

    #[test]
    fn multiple_clients_interleave() {
        let server = FeatureMonitorServer::start("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    Message::Hello {
                        version: PROTOCOL_VERSION,
                        host_id: k,
                    }
                    .write_to(&mut s)
                    .unwrap();
                    for i in 0..25 {
                        Message::Datapoint(dp(i as f64)).write_to(&mut s).unwrap();
                    }
                    Message::Bye.write_to(&mut s).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for _ in 0..200 {
            if server.datapoint_count() == 100 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.datapoint_count(), 100);
        assert_eq!(server.total_accepted(), 4);
        // All four clients sent Bye and closed: the live count drains.
        for _ in 0..200 {
            if server.connection_count() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.connection_count(), 0, "live count reflects closes");
        let history = server.shutdown();
        assert_eq!(history.datapoint_count(), 100);
    }

    #[test]
    fn connection_count_tracks_live_connections() {
        let server = FeatureMonitorServer::start("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let mut streams = Vec::new();
        for k in 0..3u32 {
            let mut s = TcpStream::connect(addr).unwrap();
            Message::Hello {
                version: PROTOCOL_VERSION,
                host_id: k,
            }
            .write_to(&mut s)
            .unwrap();
            streams.push(s);
        }
        for _ in 0..200 {
            if server.connection_count() == 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.connection_count(), 3);
        assert_eq!(server.total_accepted(), 3);
        // Closing clients must bring the live count back down while the
        // accepted total stays put.
        drop(streams);
        for _ in 0..200 {
            if server.connection_count() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.connection_count(), 0);
        assert_eq!(server.total_accepted(), 3);
        server.shutdown();
    }

    #[test]
    fn only_the_current_version_is_accepted() {
        // Any Hello but PROTOCOL_VERSION ends the connection with
        // InvalidData before a single datapoint lands.
        for version in [0, 1, 3, 5] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            Message::Hello {
                version,
                host_id: 5,
            }
            .write_to(&mut client)
            .unwrap();
            Message::Datapoint(dp(1.0)).write_to(&mut client).unwrap();
            let shared = Arc::new(Shared::new());
            let err = serve_connection(server_side, &shared).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "v{version}");
            assert_eq!(shared.datapoints.load(Ordering::Relaxed), 0, "v{version}");
        }
    }

    #[test]
    fn per_host_histories_are_segregated() {
        let server = FeatureMonitorServer::start("127.0.0.1:0").unwrap();
        let addr = server.addr();
        for host in [7u32, 9] {
            let mut s = TcpStream::connect(addr).unwrap();
            Message::Hello {
                version: PROTOCOL_VERSION,
                host_id: host,
            }
            .write_to(&mut s)
            .unwrap();
            for i in 0..(host as usize) {
                Message::Datapoint(dp(i as f64)).write_to(&mut s).unwrap();
            }
            Message::Fail {
                t: host as f64 * 10.0,
            }
            .write_to(&mut s)
            .unwrap();
            Message::Bye.write_to(&mut s).unwrap();
        }
        for _ in 0..200 {
            if server.datapoint_count() == 16 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.hosts(), vec![7, 9]);
        let h7 = server.history_for(7).expect("host 7 present");
        let h9 = server.history_for(9).expect("host 9 present");
        assert_eq!(h7.datapoint_count(), 7);
        assert_eq!(h9.datapoint_count(), 9);
        assert_eq!(h7.runs()[0].fail_time, Some(70.0));
        assert_eq!(h9.runs()[0].fail_time, Some(90.0));
        assert!(server.history_for(999).is_none());
        // The combined history still sees everything.
        let all = server.shutdown();
        assert_eq!(all.datapoint_count(), 16);
        assert_eq!(all.fail_count(), 2);
    }

    #[test]
    fn wrong_protocol_version_drops_connection() {
        let server = FeatureMonitorServer::start("127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        Message::Hello {
            version: 999,
            host_id: 0,
        }
        .write_to(&mut s)
        .unwrap();
        Message::Datapoint(dp(1.0)).write_to(&mut s).unwrap();
        drop(s);
        std::thread::sleep(std::time::Duration::from_millis(50));
        // The datapoint after the bad hello must not land.
        assert_eq!(server.datapoint_count(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_without_clients() {
        let server = FeatureMonitorServer::start("127.0.0.1:0").unwrap();
        let history = server.shutdown();
        assert_eq!(history.datapoint_count(), 0);
    }
}
