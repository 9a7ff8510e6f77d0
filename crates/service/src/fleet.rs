//! The client-side fleet router: consistent-hash sharding of tuning
//! requests across N daemons, with failover.
//!
//! One daemon (PR 5) serves one machine. The fleet is N daemons — each
//! owning its own shard directory, reachable over a Unix socket or TCP
//! ([`PeerAddr`]) — and a [`FleetRouter`] on the client that decides
//! *which* daemon owns *which* workload:
//!
//! * **Consistent hashing on workload fingerprints.** Every peer
//!   contributes [`VNODES_PER_PEER`] virtual nodes to a hash ring
//!   (FNV-1a of `"{peer label}#{replica}"` — the same dependency-free
//!   hash the shard file names use); a request routes to the first
//!   virtual node clockwise from the FNV-1a hash of its workload
//!   fingerprint. The ring is a pure function of the peer *labels*, so
//!   the same fleet spec yields the same assignment in every process,
//!   every run — and reordering the spec changes nothing.
//! * **Failover re-routes only the dead peer's range.** When a peer
//!   stops answering (connect failure, transport error, protocol
//!   garbage), the router marks it dead and walks clockwise past its
//!   virtual nodes: exactly the keys that peer owned redistribute to the
//!   survivors; every other key keeps its assignment. Requests already
//!   submitted to the dead peer are re-submitted to survivors — and
//!   because per-workload tuning is *hermetic* (a pure function of
//!   `(workload, budget, seed)`), the re-tuned results are bit-identical
//!   to what the dead peer would have served. `tests/fleet.rs` pins
//!   both properties.
//! * **Duplicates never split.** Routing is by fingerprint, so every
//!   duplicate of a workload lands on the same peer and the daemon-side
//!   session dedup (one tuning run, fanned out) keeps working across
//!   the fleet.
//!
//! [`FleetRouter`] implements [`Backend`], so
//! `iolb_cnn::time_network_with_backend` and `tune-net --fleet` drive a
//! whole fleet through the same code path as one embedded service or
//! one daemon. Replication between the daemons themselves (anti-entropy
//! `Pull`/absorb) is server-side: see [`crate::daemon`] and
//! `docs/OPERATIONS.md`.

use crate::daemon::{SocketBackend, TcpBackend};
use crate::service::ServeResult;
use crate::session::{
    Backend, BackendError, BackendSession, StatsReport, SyncOutcome, TuneRequest,
};
use crate::shard::{fnv1a, ShardedStore};
use crate::telemetry::{MetricsSnapshot, Telemetry};
use crate::wire::{Request, Response};
use iolb_gpusim::DeviceSpec;
use iolb_records::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Virtual nodes each peer contributes to the hash ring. Enough that
/// three peers split a fingerprint space roughly evenly (the balance is
/// pinned by a unit test), few enough that ring construction and lookup
/// stay trivial.
pub const VNODES_PER_PEER: usize = 64;

/// Where a fleet peer listens: a filesystem Unix-socket path or a TCP
/// `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddr {
    /// A Unix-domain socket path (same-machine peers).
    Unix(PathBuf),
    /// A TCP `host:port` (networked peers).
    Tcp(String),
}

impl PeerAddr {
    /// Parses a peer spec. `tcp:HOST:PORT` and `unix:PATH` are explicit;
    /// a bare spec containing a colon and no path separator (e.g.
    /// `127.0.0.1:7070`) is TCP, anything else is a socket path.
    pub fn parse(spec: &str) -> PeerAddr {
        let spec = spec.trim();
        if let Some(addr) = spec.strip_prefix("tcp:") {
            return PeerAddr::Tcp(addr.to_string());
        }
        if let Some(path) = spec.strip_prefix("unix:") {
            return PeerAddr::Unix(PathBuf::from(path));
        }
        if spec.contains(':') && !spec.contains('/') {
            PeerAddr::Tcp(spec.to_string())
        } else {
            PeerAddr::Unix(PathBuf::from(spec))
        }
    }

    /// The peer's stable identity on the hash ring (and in diagnostics):
    /// the canonical `tcp:`/`unix:` form of the address.
    pub fn label(&self) -> String {
        match self {
            PeerAddr::Unix(path) => format!("unix:{}", path.display()),
            PeerAddr::Tcp(addr) => format!("tcp:{addr}"),
        }
    }

    /// Connects to the daemon listening here, on whichever transport
    /// the address names.
    pub fn connect(&self) -> std::io::Result<PeerClient> {
        match self {
            PeerAddr::Unix(path) => SocketBackend::connect(path).map(PeerClient::Unix),
            PeerAddr::Tcp(addr) => TcpBackend::connect(addr.as_str()).map(PeerClient::Tcp),
        }
    }
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// One connected daemon, whichever transport it speaks: the control
/// calls ([`stats`](Self::stats), [`pull`](Self::pull),
/// [`shutdown`](Self::shutdown)) for callers that hold a [`PeerAddr`]
/// rather than a concrete [`SocketBackend`] / [`TcpBackend`].
pub enum PeerClient {
    Unix(SocketBackend),
    Tcp(TcpBackend),
}

impl PeerClient {
    fn call(&self, request: &Request) -> Result<Response, BackendError> {
        match self {
            PeerClient::Unix(backend) => backend.call(request),
            PeerClient::Tcp(backend) => backend.call(request),
        }
    }

    /// The daemon's [`Backend::stats`].
    pub fn stats(&self) -> Result<StatsReport, BackendError> {
        match self {
            PeerClient::Unix(backend) => backend.stats(),
            PeerClient::Tcp(backend) => backend.stats(),
        }
    }

    /// Fetches the daemon's full store (the anti-entropy `Pull`).
    pub fn pull(&self) -> Result<ShardedStore, BackendError> {
        match self {
            PeerClient::Unix(backend) => backend.pull(),
            PeerClient::Tcp(backend) => backend.pull(),
        }
    }

    /// Asks the daemon to persist and exit.
    pub fn shutdown(&self) -> Result<(), BackendError> {
        match self {
            PeerClient::Unix(backend) => backend.shutdown(),
            PeerClient::Tcp(backend) => backend.shutdown(),
        }
    }
}

/// Why one peer call did not produce a usable response.
enum CallFailure {
    /// The peer is unusable (connect refused, transport died, protocol
    /// garbage): mark it dead, re-route its keys.
    PeerDown(BackendError),
    /// The peer is alive and answered with an application error —
    /// failover would mask a real bug, so this propagates.
    Fatal(BackendError),
}

/// Mutable fleet state: lazily-established connections plus liveness.
struct FleetState {
    clients: Vec<Option<PeerClient>>,
    dead: Vec<bool>,
}

struct RouterInner {
    peers: Vec<PeerAddr>,
    /// `(vnode hash, peer index)`, sorted by hash — the ring.
    ring: Vec<(u64, usize)>,
    state: Mutex<FleetState>,
    /// Client-side registry: per-peer request counters and failover
    /// counts. Purely observational — routing never reads it.
    telemetry: Telemetry,
}

/// A [`Backend`] over a fleet of daemons: consistent-hash routing,
/// per-peer sub-sessions, failover to survivors. Cheap to clone (clones
/// share connections and liveness state).
#[derive(Clone)]
pub struct FleetRouter {
    inner: Arc<RouterInner>,
}

impl FleetRouter {
    /// Builds a router over the given peers. No I/O happens here:
    /// connections are established lazily on first use, and a peer that
    /// refuses its first connect is simply marked dead (its key range
    /// fails over to the survivors).
    pub fn new(peers: Vec<PeerAddr>) -> Self {
        let mut ring: Vec<(u64, usize)> = peers
            .iter()
            .enumerate()
            .flat_map(|(at, peer)| {
                let label = peer.label();
                (0..VNODES_PER_PEER).map(move |replica| (fnv1a(&format!("{label}#{replica}")), at))
            })
            .collect();
        // Sort by (hash, peer label) so the ring is identical whatever
        // order the peers were listed in — hash ties (absurdly unlikely,
        // but determinism must not rest on luck) break on the label.
        ring.sort_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| peers[a.1].label().cmp(&peers[b.1].label()))
        });
        let state = Mutex::new(FleetState {
            clients: (0..peers.len()).map(|_| None).collect(),
            dead: vec![false; peers.len()],
        });
        Self { inner: Arc::new(RouterInner { peers, ring, state, telemetry: Telemetry::new() }) }
    }

    /// Convenience: [`new`](Self::new) over parsed specs.
    pub fn from_specs(specs: &[String]) -> Self {
        Self::new(specs.iter().map(|s| PeerAddr::parse(s)).collect())
    }

    /// All configured peers, in spec order.
    pub fn peers(&self) -> &[PeerAddr] {
        &self.inner.peers
    }

    /// Peers currently considered alive.
    pub fn live_peers(&self) -> usize {
        let st = self.inner.state.lock().expect("fleet state poisoned");
        st.dead.iter().filter(|&&d| !d).count()
    }

    /// The router's client-side metrics registry (per-peer request
    /// counters `iolb_fleet_requests{peer="..."}`, failovers). Shared by
    /// clones; [`Backend::stats`] folds it into the fleet aggregate.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The fingerprint of one request on one device — the routing key.
    pub fn fingerprint(request: &TuneRequest, device: &DeviceSpec) -> String {
        Workload::new(request.shape, request.kind, device.name, device.smem_per_sm).fingerprint()
    }

    /// Which peer a fingerprint routes to right now (ignoring dead
    /// peers). `None` only when every peer is dead. Pure ring math plus
    /// the liveness set — no I/O — so tests can pin assignments.
    pub fn route_fingerprint(&self, fingerprint: &str) -> Option<&PeerAddr> {
        let st = self.inner.state.lock().expect("fleet state poisoned");
        self.route(fingerprint, &st.dead).map(|at| &self.inner.peers[at])
    }

    /// First alive peer clockwise from the fingerprint's hash.
    fn route(&self, fingerprint: &str, dead: &[bool]) -> Option<usize> {
        let ring = &self.inner.ring;
        if ring.is_empty() {
            return None;
        }
        let hash = fnv1a(fingerprint);
        let start = ring.partition_point(|&(h, _)| h < hash);
        (0..ring.len()).map(|i| ring[(start + i) % ring.len()].1).find(|&peer| !dead[peer])
    }

    /// One request/response exchange with a peer, connecting lazily. On
    /// transport or protocol failure the peer is marked dead and its
    /// connection dropped; daemon-reported errors are fatal.
    fn call_peer(&self, peer: usize, request: &Request) -> Result<Response, CallFailure> {
        let mut st = self.inner.state.lock().expect("fleet state poisoned");
        if st.dead[peer] {
            return Err(CallFailure::PeerDown(BackendError::Transport(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("peer {} is dead", self.inner.peers[peer]),
            ))));
        }
        if st.clients[peer].is_none() {
            match self.inner.peers[peer].connect() {
                Ok(client) => st.clients[peer] = Some(client),
                Err(e) => {
                    st.dead[peer] = true;
                    self.inner.telemetry.incr("iolb_fleet_failovers_total", 1);
                    return Err(CallFailure::PeerDown(BackendError::Transport(e)));
                }
            }
        }
        self.inner.telemetry.incr(
            &format!("iolb_fleet_requests{{peer=\"{}\"}}", self.inner.peers[peer].label()),
            1,
        );
        let outcome = st.clients[peer].as_ref().expect("connected above").call(request);
        match outcome {
            Ok(response) => Ok(response),
            Err(e @ BackendError::Remote(_)) => Err(CallFailure::Fatal(e)),
            Err(e) => {
                // Transport died or the peer spoke garbage: either way it
                // cannot be trusted with this key range any more.
                st.dead[peer] = true;
                st.clients[peer] = None;
                self.inner.telemetry.incr("iolb_fleet_failovers_total", 1);
                Err(CallFailure::PeerDown(e))
            }
        }
    }

    /// Submits the given request positions to whatever peers own them,
    /// failing over (and re-routing) until every position is accepted or
    /// no peer is left. Shared by the initial submit and by
    /// [`FleetSession::wait`]'s mid-session failover.
    fn submit_positions(
        &self,
        requests: &[TuneRequest],
        device: &DeviceSpec,
        positions: Vec<usize>,
        fingerprints: &[String],
    ) -> Result<(Vec<SubSession>, usize), BackendError> {
        let mut subs = Vec::new();
        let mut unique = 0;
        let mut remaining = positions;
        while !remaining.is_empty() {
            // Group by owning peer under the *current* liveness set.
            let mut by_peer: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            {
                let st = self.inner.state.lock().expect("fleet state poisoned");
                for &at in &remaining {
                    let peer = self.route(&fingerprints[at], &st.dead).ok_or_else(no_live_peers)?;
                    by_peer.entry(peer).or_default().push(at);
                }
            }
            remaining = Vec::new();
            for (peer, positions) in by_peer {
                let sub_requests: Vec<TuneRequest> =
                    positions.iter().map(|&at| requests[at]).collect();
                let request = Request::Submit { device: device.clone(), requests: sub_requests };
                match self.call_peer(peer, &request) {
                    Ok(Response::Submitted { session, unique: u }) => {
                        unique += u;
                        subs.push(SubSession { peer, session, positions });
                    }
                    Ok(other) => {
                        return Err(BackendError::Protocol(format!(
                            "expected Submitted, got {other:?}"
                        )))
                    }
                    Err(CallFailure::Fatal(e)) => return Err(e),
                    Err(CallFailure::PeerDown(_)) => remaining.extend(positions),
                }
            }
        }
        Ok((subs, unique))
    }
}

fn no_live_peers() -> BackendError {
    BackendError::Transport(std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "no live fleet peers remain",
    ))
}

/// One peer's slice of a fleet session.
struct SubSession {
    peer: usize,
    /// The daemon-side session id on that peer.
    session: u64,
    /// Original request positions this peer owns.
    positions: Vec<usize>,
}

/// A batch scattered across the fleet; [`wait`](BackendSession::wait)
/// gathers per-peer results back into request order, re-submitting a
/// dead peer's slice to the survivors.
pub struct FleetSession {
    router: FleetRouter,
    device: DeviceSpec,
    requests: Vec<TuneRequest>,
    fingerprints: Vec<String>,
    subs: Vec<SubSession>,
    unique: usize,
}

impl BackendSession for FleetSession {
    fn request_count(&self) -> usize {
        self.requests.len()
    }

    fn unique_workloads(&self) -> usize {
        self.unique
    }

    fn wait(mut self) -> Result<Vec<Option<ServeResult>>, BackendError> {
        let mut slots: Vec<Option<Option<ServeResult>>> = vec![None; self.requests.len()];
        while let Some(sub) = self.subs.pop() {
            match self.router.call_peer(sub.peer, &Request::Wait { session: sub.session }) {
                Ok(Response::Results { results }) if results.len() == sub.positions.len() => {
                    for (&at, result) in sub.positions.iter().zip(results) {
                        slots[at] = Some(result);
                    }
                }
                Ok(other) => {
                    return Err(BackendError::Protocol(format!(
                        "peer {} returned {other:?} for a Wait",
                        self.router.inner.peers[sub.peer]
                    )))
                }
                Err(CallFailure::Fatal(e)) => return Err(e),
                Err(CallFailure::PeerDown(e)) => {
                    // The peer died with our sub-session on it. Tuning is
                    // hermetic, so re-running the slice on the survivors
                    // reproduces the dead peer's results bit for bit.
                    crate::log_event!(
                        Warn,
                        "fleet.peer_lost",
                        peer = self.router.inner.peers[sub.peer],
                        error = e,
                        rerouted = sub.positions.len(),
                    );
                    let (resubmitted, _) = self.router.submit_positions(
                        &self.requests,
                        &self.device,
                        sub.positions,
                        &self.fingerprints,
                    )?;
                    self.subs.extend(resubmitted);
                }
            }
        }
        Ok(slots.into_iter().map(|slot| slot.expect("every position submitted")).collect())
    }
}

impl Backend for FleetRouter {
    type Session = FleetSession;

    fn submit_batch(
        &self,
        requests: &[TuneRequest],
        device: &DeviceSpec,
    ) -> Result<FleetSession, BackendError> {
        let fingerprints: Vec<String> =
            requests.iter().map(|r| Self::fingerprint(r, device)).collect();
        let (subs, unique) =
            self.submit_positions(requests, device, (0..requests.len()).collect(), &fingerprints)?;
        Ok(FleetSession {
            router: self.clone(),
            device: device.clone(),
            requests: requests.to_vec(),
            fingerprints,
            subs,
            unique,
        })
    }

    /// Flushes every live peer. `persisted` is the conjunction: it is
    /// only `true` when every configured peer answered and persisted —
    /// a dead peer means some slice of the fleet's state may not be on
    /// disk (anti-entropy will heal it once the peer returns).
    fn sync(&self) -> Result<SyncOutcome, BackendError> {
        let mut persisted = true;
        let mut total = 0;
        let mut any = false;
        for peer in 0..self.inner.peers.len() {
            match self.call_peer(peer, &Request::Sync) {
                Ok(Response::Synced { persisted: p, total: t }) => {
                    persisted &= p;
                    total += t;
                    any = true;
                }
                Ok(other) => {
                    return Err(BackendError::Protocol(format!("expected Synced, got {other:?}")))
                }
                Err(CallFailure::Fatal(e)) => return Err(e),
                Err(CallFailure::PeerDown(_)) => persisted = false,
            }
        }
        if any {
            Ok(SyncOutcome { persisted, total })
        } else {
            Err(no_live_peers())
        }
    }

    /// Aggregates the fleet's metrics: the live peers' registries merge
    /// by name (the order-free [`MetricsSnapshot::merge`] — counters and
    /// the queue-depth / budget gauges add, histograms merge bucket-wise,
    /// and a peer missing a metric another peer has is fine; dead peers
    /// contribute nothing), and the router's own client-side registry
    /// rides along.
    fn stats(&self) -> Result<StatsReport, BackendError> {
        let mut aggregate: Option<MetricsSnapshot> = None;
        for peer in 0..self.inner.peers.len() {
            match self.call_peer(peer, &Request::Stats) {
                Ok(Response::Stats { metrics }) => {
                    aggregate.get_or_insert_with(MetricsSnapshot::default).merge(&metrics)
                }
                Ok(other) => {
                    return Err(BackendError::Protocol(format!("expected Stats, got {other:?}")))
                }
                Err(CallFailure::Fatal(e)) => return Err(e),
                Err(CallFailure::PeerDown(_)) => {}
            }
        }
        let mut metrics = aggregate.ok_or_else(no_live_peers)?;
        metrics.merge(&self.inner.telemetry.snapshot());
        Ok(StatsReport::from_metrics(metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::optimality::TileKind;
    use iolb_core::shapes::ConvShape;

    fn specs() -> Vec<PeerAddr> {
        vec![
            PeerAddr::parse("127.0.0.1:7001"),
            PeerAddr::parse("tcp:127.0.0.1:7002"),
            PeerAddr::parse("/tmp/iolb-fleet-c.sock"),
        ]
    }

    fn sample_fingerprints(n: usize) -> Vec<String> {
        let device = iolb_gpusim::DeviceSpec::v100();
        (0..n)
            .map(|i| {
                let request = TuneRequest::bare(
                    ConvShape::new(8 + i, 14, 14, 16, 1, 1, 1, 0),
                    TileKind::Direct,
                );
                FleetRouter::fingerprint(&request, &device)
            })
            .collect()
    }

    #[test]
    fn peer_specs_parse_to_the_right_transport() {
        assert_eq!(PeerAddr::parse("127.0.0.1:7070"), PeerAddr::Tcp("127.0.0.1:7070".into()));
        assert_eq!(PeerAddr::parse("tcp:host:1"), PeerAddr::Tcp("host:1".into()));
        assert_eq!(
            PeerAddr::parse("/var/run/a.sock"),
            PeerAddr::Unix(PathBuf::from("/var/run/a.sock"))
        );
        assert_eq!(PeerAddr::parse("unix:rel.sock"), PeerAddr::Unix(PathBuf::from("rel.sock")));
        assert_eq!(
            PeerAddr::parse("/dir:with/colon.sock"),
            PeerAddr::Unix(PathBuf::from("/dir:with/colon.sock")),
            "a path separator wins over a colon"
        );
    }

    /// The ISSUE 6 router-determinism pin: the same fingerprint set
    /// routes identically across router instances and across peer-list
    /// orderings.
    #[test]
    fn routing_is_deterministic_and_order_independent() {
        let fingerprints = sample_fingerprints(50);
        let a = FleetRouter::new(specs());
        let b = FleetRouter::new(specs());
        let mut reversed = specs();
        reversed.reverse();
        let c = FleetRouter::new(reversed);
        for fp in &fingerprints {
            let owner = a.route_fingerprint(fp).unwrap().clone();
            assert_eq!(b.route_fingerprint(fp), Some(&owner), "two routers disagree on {fp}");
            assert_eq!(c.route_fingerprint(fp), Some(&owner), "peer order changed routing of {fp}");
        }
    }

    #[test]
    fn routing_spreads_load_across_peers() {
        let router = FleetRouter::new(specs());
        let mut per_peer = BTreeMap::new();
        for fp in sample_fingerprints(60) {
            *per_peer.entry(router.route_fingerprint(&fp).unwrap().label()).or_insert(0usize) += 1;
        }
        assert_eq!(per_peer.len(), 3, "every peer owns some keys: {per_peer:?}");
    }

    /// Killing a peer moves exactly its keys; survivors keep theirs.
    #[test]
    fn failover_moves_only_the_dead_peers_range() {
        let router = FleetRouter::new(specs());
        let fingerprints = sample_fingerprints(60);
        let before: Vec<PeerAddr> =
            fingerprints.iter().map(|fp| router.route_fingerprint(fp).unwrap().clone()).collect();
        let victim = before[0].clone();
        {
            let mut st = router.inner.state.lock().unwrap();
            let at = router.inner.peers.iter().position(|p| *p == victim).unwrap();
            st.dead[at] = true;
        }
        for (fp, owner) in fingerprints.iter().zip(&before) {
            let now = router.route_fingerprint(fp).unwrap();
            if *owner == victim {
                assert_ne!(*now, victim, "{fp} still routes to the dead peer");
            } else {
                assert_eq!(now, owner, "{fp} moved although its peer survived");
            }
        }
        assert_eq!(router.live_peers(), 2);
    }
}
