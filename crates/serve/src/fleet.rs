//! The fleet plane: deterministic host→instance routing and cluster-wide
//! aggregation over many serve instances.
//!
//! One serve instance already parks 10k+ connections behind its reactor
//! edge; a fleet is N of them. Two pieces make the fleet operable:
//!
//! * [`HashRing`] — a consistent-hash ring with [`VNODES_PER_INSTANCE`]
//!   virtual nodes per instance. Routing layers (the multi-instance
//!   loadgen, FMC-side shims) map every monitored host to exactly one
//!   instance, and an instance joining or leaving moves only ~K/N of the
//!   hosts (the rebalance bound pinned by the property tests below) —
//!   every moved host lands on (or leaves) the changed instance, never a
//!   third party.
//! * [`Fleet`] — a thin client/aggregator that fans fleet requests out
//!   to every instance and merges the answers: per-instance
//!   `FleetSnapshot`s roll up into a [`FleetStats`] (cluster totals +
//!   attributable per-instance rows and alert rollups), per-instance
//!   `TopKReply`s merge into one cluster-wide "top-K hosts nearest
//!   failure" ranking, and per-instance metrics expositions merge through
//!   [`f2pm_obs::merge_expositions`] into a single cluster exposition in
//!   which counters sum *exactly* (the loadgen cross-checks fleet-merged
//!   counters against the sum of per-instance scrapes, zero slack).
//!
//! The aggregator is deliberately thin: instances never talk to each
//! other, rankings are answered from each instance's seqlock estimate
//! board (no connection scans), and the fleet layer owns nothing but N
//! client sockets.

use f2pm_monitor::wire::{FrameDecoder, Message, TopKEntry, MAX_TOPK, PROTOCOL_VERSION};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Virtual nodes per instance on the ring. 64 keeps the per-instance load
/// spread within a few percent of even at fleet sizes the aggregator
/// targets (units to dozens of instances) while keeping the ring tiny.
pub const VNODES_PER_INSTANCE: usize = 64;

/// splitmix64 — the same cheap, well-mixed hash the simulator's RNG
/// family uses; good avalanche behavior for ring points.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Consistent-hash ring mapping host ids to instance ids with bounded
/// movement on membership change (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// Sorted ring points: (hash point, owning instance).
    points: Vec<(u64, u32)>,
    /// Member instances, sorted, deduplicated.
    instances: Vec<u32>,
}

impl HashRing {
    /// A ring over `instances` (duplicates collapse).
    pub fn new(instances: &[u32]) -> Self {
        let mut ring = HashRing::default();
        for &i in instances {
            ring.join(i);
        }
        ring
    }

    /// Member instances, sorted.
    pub fn instances(&self) -> &[u32] {
        &self.instances
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no instance has joined.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Add `instance` (no-op when already a member). Only hosts whose ring
    /// successor becomes one of the new instance's virtual nodes move —
    /// everything else keeps its previous owner.
    pub fn join(&mut self, instance: u32) {
        if let Err(at) = self.instances.binary_search(&instance) {
            self.instances.insert(at, instance);
            for vnode in 0..VNODES_PER_INSTANCE {
                let point = mix64((instance as u64) << 32 | vnode as u64);
                let at = self
                    .points
                    .binary_search(&(point, instance))
                    .unwrap_or_else(|e| e);
                self.points.insert(at, (point, instance));
            }
        }
    }

    /// Remove `instance` (no-op when not a member). Only hosts it owned
    /// move, each to the next surviving instance on the ring.
    pub fn leave(&mut self, instance: u32) {
        if let Ok(at) = self.instances.binary_search(&instance) {
            self.instances.remove(at);
            self.points.retain(|&(_, i)| i != instance);
        }
    }

    /// The instance owning `host`: the first ring point clockwise of the
    /// host's hash. `None` on an empty ring.
    pub fn route(&self, host: u32) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix64(0x5eed_0000_0000_0000 ^ host as u64);
        let at = self.points.partition_point(|&(p, _)| p < h);
        let (_, instance) = self.points[at % self.points.len()];
        Some(instance)
    }
}

/// A connected wire client for one serve instance.
///
/// Connections identify as host `u32::MAX` (an id the simulated fleets
/// never use), speak [`PROTOCOL_VERSION`], and skip unsolicited pushed
/// frames while waiting for a reply.
pub struct InstanceClient {
    addr: String,
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl InstanceClient {
    /// Connect and shake hands.
    pub fn connect(addr: &str) -> io::Result<InstanceClient> {
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved");
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect(resolved) {
                Ok(mut stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    Message::Hello {
                        version: PROTOCOL_VERSION,
                        host_id: u32::MAX,
                    }
                    .write_to(&mut stream)?;
                    return Ok(InstanceClient {
                        addr: addr.to_string(),
                        stream,
                        decoder: FrameDecoder::new(),
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn recv(&mut self) -> io::Result<Message> {
        loop {
            match self.decoder.read_frame(&mut self.stream)? {
                Some(Message::Alert { .. }) | Some(Message::RttfEstimate { .. }) => {}
                Some(msg) => return Ok(msg),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("{}: connection closed mid-request", self.addr),
                    ))
                }
            }
        }
    }

    /// `StatsRequest` → the instance's `FleetSnapshot`.
    pub fn snapshot(&mut self) -> io::Result<InstanceSnapshot> {
        Message::StatsRequest.write_to(&mut self.stream)?;
        match self.recv()? {
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
            } => Ok(InstanceSnapshot {
                addr: self.addr.clone(),
                instance_id,
                connections,
                datapoints,
                estimates,
                alerts,
                dropped,
                model_generation,
                hosts_tracked,
                shard_depths,
            }),
            other => Err(unexpected(&self.addr, "FleetSnapshot", &other)),
        }
    }

    /// `TopKRequest` → this instance's at-risk ranking (ascending RTTF).
    pub fn top_k(&mut self, k: usize) -> io::Result<(u32, Vec<TopKEntry>)> {
        Message::TopKRequest {
            k: k.min(MAX_TOPK) as u16,
        }
        .write_to(&mut self.stream)?;
        match self.recv()? {
            Message::TopKReply {
                instance_id,
                entries,
            } => Ok((instance_id, entries)),
            other => Err(unexpected(&self.addr, "TopKReply", &other)),
        }
    }

    /// `MetricsRequest` → this instance's text exposition.
    pub fn scrape(&mut self) -> io::Result<String> {
        Message::MetricsRequest.write_to(&mut self.stream)?;
        match self.recv()? {
            Message::MetricsText { text } => Ok(text),
            other => Err(unexpected(&self.addr, "MetricsText", &other)),
        }
    }
}

fn unexpected(addr: &str, wanted: &str, got: &Message) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{addr}: expected {wanted}, got {got:?}"),
    )
}

/// One instance's `FleetSnapshot`, annotated with the address it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSnapshot {
    /// Address the snapshot was scraped from.
    pub addr: String,
    /// The instance's stable fleet identity.
    pub instance_id: u32,
    /// Live client connections.
    pub connections: u64,
    /// Datapoints ingested since start.
    pub datapoints: u64,
    /// RTTF estimates produced since start.
    pub estimates: u64,
    /// Rejuvenation alerts fired since start (already debounced per-host
    /// by the instance's [`crate::AlertPolicy`]).
    pub alerts: u64,
    /// Frames dropped since start.
    pub dropped: u64,
    /// Current model generation.
    pub model_generation: u64,
    /// Hosts with a published estimate on the board.
    pub hosts_tracked: u32,
    /// Queue depth per shard at snapshot time.
    pub shard_depths: Vec<u32>,
}

/// Cluster rollup of per-instance snapshots: totals for the additive
/// counters plus the attributable per-instance rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-instance snapshots, in fleet address order.
    pub instances: Vec<InstanceSnapshot>,
    /// Live connections across the fleet.
    pub connections: u64,
    /// Datapoints ingested across the fleet.
    pub datapoints: u64,
    /// Estimates produced across the fleet.
    pub estimates: u64,
    /// Alerts fired across the fleet (per-host debouncing happened on the
    /// owning instance; this is the per-fleet count rollup).
    pub alerts: u64,
    /// Frames dropped across the fleet.
    pub dropped: u64,
    /// Hosts with a published estimate anywhere in the fleet (hosts are
    /// routed to exactly one instance, so the sum is a host count).
    pub hosts_tracked: u64,
}

/// One entry of the cluster-wide at-risk ranking: a [`TopKEntry`] plus
/// the instance that owns the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTopKEntry {
    /// Instance the host is routed to.
    pub instance_id: u32,
    /// Host nearest failure.
    pub host_id: u32,
    /// Guest time (s) of the window that produced the estimate.
    pub t: f64,
    /// Predicted remaining time to failure (s).
    pub rttf: f64,
    /// Generation of the model that produced the estimate.
    pub model_generation: u64,
}

/// The fleet aggregator: one [`InstanceClient`] per serve instance (see
/// the module docs).
pub struct Fleet {
    clients: Vec<InstanceClient>,
}

impl Fleet {
    /// Connect to every instance. Fails fast if any address is down — a
    /// partial fleet would silently under-count the cluster.
    pub fn connect(addrs: &[String]) -> io::Result<Fleet> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fleet needs at least one instance address",
            ));
        }
        let clients = addrs
            .iter()
            .map(|a| InstanceClient::connect(a))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Fleet { clients })
    }

    /// Instance count.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True when the fleet has no instances (never, per [`Fleet::connect`]).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Fan out `StatsRequest` and roll the snapshots up.
    pub fn stats(&mut self) -> io::Result<FleetStats> {
        let instances = self
            .clients
            .iter_mut()
            .map(|c| c.snapshot())
            .collect::<io::Result<Vec<_>>>()?;
        let sum = |f: fn(&InstanceSnapshot) -> u64| instances.iter().map(f).sum();
        Ok(FleetStats {
            connections: sum(|s| s.connections),
            datapoints: sum(|s| s.datapoints),
            estimates: sum(|s| s.estimates),
            alerts: sum(|s| s.alerts),
            dropped: sum(|s| s.dropped),
            hosts_tracked: sum(|s| s.hosts_tracked as u64),
            instances,
        })
    }

    /// Fan out `TopKRequest` and merge the per-instance rankings into the
    /// cluster-wide top `k` (ascending RTTF with NaN last, as on each
    /// instance's board; ties break by host id, then instance id, for a
    /// deterministic total order).
    ///
    /// Each instance returns at most `k` entries, and the cluster top-k is
    /// a subset of the union of per-instance top-k's, so the merge is
    /// exact — no second round trip.
    pub fn top_k(&mut self, k: usize) -> io::Result<Vec<FleetTopKEntry>> {
        let mut all: Vec<FleetTopKEntry> = Vec::new();
        for c in &mut self.clients {
            let (instance_id, entries) = c.top_k(k)?;
            all.extend(entries.into_iter().map(|e| FleetTopKEntry {
                instance_id,
                host_id: e.host_id,
                t: e.t,
                rttf: e.rttf,
                model_generation: e.model_generation,
            }));
        }
        sort_nearest_failure(&mut all);
        all.truncate(k);
        Ok(all)
    }

    /// Fan out the metrics scrape and merge the per-instance expositions
    /// into one cluster exposition (see [`f2pm_obs::merge_expositions`]:
    /// counters/histograms sum exactly, gauges stay attributable behind an
    /// added `instance` label).
    pub fn merged_scrape(&mut self) -> io::Result<String> {
        let mut per_instance: Vec<(u32, String)> = Vec::new();
        for c in &mut self.clients {
            let id = c.snapshot()?.instance_id;
            let text = c.scrape()?;
            per_instance.push((id, text));
        }
        let borrowed: Vec<(u32, &str)> = per_instance
            .iter()
            .map(|(id, text)| (*id, text.as_str()))
            .collect();
        Ok(f2pm_obs::merge_expositions(&borrowed))
    }
}

/// The cluster ranking order: `(rttf NaN-last, rttf, host, instance)`.
fn sort_nearest_failure(entries: &mut [FleetTopKEntry]) {
    entries.sort_by(|a, b| {
        crate::shard::rttf_order(a.rttf, b.rttf)
            .then_with(|| a.host_id.cmp(&b.host_id))
            .then_with(|| a.instance_id.cmp(&b.instance_id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A hostile or buggy instance can put NaN or ±inf on the wire; the
    /// cluster merge must still be a total order with finite estimates
    /// ranked ahead of NaN, and ties resolved by host then instance.
    #[test]
    fn merge_orders_nan_and_infinities_totally() {
        let entry = |instance_id, host_id, rttf| FleetTopKEntry {
            instance_id,
            host_id,
            t: 0.0,
            rttf,
            model_generation: 1,
        };
        let mut all = vec![
            entry(1, 10, f64::NAN),
            entry(2, 11, 120.0),
            entry(1, 12, f64::INFINITY),
            entry(3, 13, -f64::NAN),
            entry(2, 14, f64::NEG_INFINITY),
            entry(3, 11, 120.0),
            entry(1, 15, 5.0),
        ];
        sort_nearest_failure(&mut all);
        let order: Vec<(u32, u32)> = all.iter().map(|e| (e.instance_id, e.host_id)).collect();
        assert_eq!(
            order,
            vec![
                (2, 14),
                (1, 15),
                (2, 11),
                (3, 11),
                (1, 12),
                (3, 13),
                (1, 10)
            ]
        );
    }

    fn load_per_instance(ring: &HashRing, hosts: u32) -> HashMap<u32, usize> {
        let mut load: HashMap<u32, usize> = HashMap::new();
        for host in 0..hosts {
            *load.entry(ring.route(host).unwrap()).or_default() += 1;
        }
        load
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(&[0, 1, 2]);
        for host in 0..1000 {
            let a = ring.route(host).unwrap();
            let b = ring.route(host).unwrap();
            assert_eq!(a, b);
            assert!(ring.instances().contains(&a));
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::default();
        assert!(ring.is_empty());
        assert_eq!(ring.route(7), None);
    }

    #[test]
    fn single_instance_owns_everything() {
        let ring = HashRing::new(&[42]);
        for host in 0..100 {
            assert_eq!(ring.route(host), Some(42));
        }
    }

    #[test]
    fn duplicate_joins_collapse() {
        let mut ring = HashRing::new(&[1, 1, 1]);
        assert_eq!(ring.len(), 1);
        ring.join(1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.points.len(), VNODES_PER_INSTANCE);
    }

    #[test]
    fn load_spreads_within_bound() {
        // 64 vnodes/instance keeps every instance within ~2x of the mean
        // at 10k hosts — the balance bound the fleet plane relies on.
        for n in [2usize, 3, 5, 8] {
            let instances: Vec<u32> = (0..n as u32).collect();
            let ring = HashRing::new(&instances);
            let load = load_per_instance(&ring, 10_000);
            assert_eq!(load.len(), n, "every instance owns hosts");
            let mean = 10_000.0 / n as f64;
            for (&i, &l) in &load {
                assert!(
                    (l as f64) < 2.0 * mean && (l as f64) > mean / 3.0,
                    "instance {i} load {l} outside bound (mean {mean:.0}, n={n})"
                );
            }
        }
    }

    #[test]
    fn join_moves_only_hosts_onto_the_new_instance() {
        const HOSTS: u32 = 10_000;
        let mut ring = HashRing::new(&[0, 1, 2, 3]);
        let before: Vec<u32> = (0..HOSTS).map(|h| ring.route(h).unwrap()).collect();
        ring.join(9);
        let mut moved = 0usize;
        for h in 0..HOSTS {
            let now = ring.route(h).unwrap();
            if now != before[h as usize] {
                assert_eq!(now, 9, "a moved host must land on the joined instance");
                moved += 1;
            }
        }
        // Expected moves ≈ K/N = 10000/5; allow generous variance but pin
        // the bound well below a full reshuffle.
        let expected = HOSTS as f64 / 5.0;
        assert!(moved > 0, "the new instance takes some load");
        assert!(
            (moved as f64) < 2.0 * expected,
            "moved {moved}, expected ≈{expected:.0} (bounded movement)"
        );
    }

    #[test]
    fn leave_moves_only_the_departed_instances_hosts() {
        const HOSTS: u32 = 10_000;
        let mut ring = HashRing::new(&[0, 1, 2, 3, 4]);
        let before: Vec<u32> = (0..HOSTS).map(|h| ring.route(h).unwrap()).collect();
        ring.leave(2);
        for h in 0..HOSTS {
            let now = ring.route(h).unwrap();
            assert_ne!(now, 2, "nothing routes to a departed instance");
            if before[h as usize] != 2 {
                assert_eq!(
                    now, before[h as usize],
                    "host {h} moved although instance 2 never owned it"
                );
            }
        }
    }

    #[test]
    fn join_then_leave_restores_the_original_routing() {
        const HOSTS: u32 = 5_000;
        let mut ring = HashRing::new(&[10, 20, 30]);
        let before: Vec<u32> = (0..HOSTS).map(|h| ring.route(h).unwrap()).collect();
        ring.join(40);
        ring.leave(40);
        for h in 0..HOSTS {
            assert_eq!(ring.route(h).unwrap(), before[h as usize]);
        }
    }

    mod properties {
        //! The rebalance bound, over arbitrary memberships: a membership
        //! change never moves a host between two *surviving* instances.
        use super::*;
        use proptest::prelude::*;

        fn arb_instances() -> impl Strategy<Value = Vec<u32>> {
            proptest::collection::vec(0u32..1000, 2..10)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn join_never_moves_hosts_between_survivors(
                instances in arb_instances(),
                joiner in 1000u32..2000
            ) {
                let mut ring = HashRing::new(&instances);
                let before: Vec<u32> =
                    (0..2000).map(|h| ring.route(h).unwrap()).collect();
                ring.join(joiner);
                for h in 0..2000u32 {
                    let now = ring.route(h).unwrap();
                    if now != before[h as usize] {
                        prop_assert_eq!(now, joiner);
                    }
                }
            }

            #[test]
            fn leave_strands_no_host_and_moves_only_the_departed(
                instances in arb_instances(),
                pick in 0usize..100
            ) {
                let mut ring = HashRing::new(&instances);
                let leaver = ring.instances()[pick % ring.len()];
                prop_assume!(ring.len() > 1);
                let before: Vec<u32> =
                    (0..2000).map(|h| ring.route(h).unwrap()).collect();
                ring.leave(leaver);
                for h in 0..2000u32 {
                    let now = ring.route(h).unwrap();
                    prop_assert_ne!(now, leaver);
                    if before[h as usize] != leaver {
                        prop_assert_eq!(now, before[h as usize]);
                    }
                }
            }

            #[test]
            fn balance_holds_for_arbitrary_memberships(
                instances in arb_instances()
            ) {
                let ring = HashRing::new(&instances);
                let n = ring.len();
                let load = load_per_instance(&ring, 4000);
                prop_assert_eq!(load.len(), n, "every member owns load");
                let mean = 4000.0 / n as f64;
                for &l in load.values() {
                    prop_assert!((l as f64) < 3.0 * mean);
                }
            }
        }
    }
}
