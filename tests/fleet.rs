//! ISSUE 6 acceptance gates for the networked tuning fleet:
//!
//! * **fleet == eager** — a 3-daemon TCP fleet serving a network yields
//!   per-layer configs bit-identical to eager `tune_with_store` runs
//!   (consistent-hash routing changes *where* a workload tunes, never
//!   *what* it tunes to — tuning is hermetic);
//! * **kill one daemon mid-session** — with a batch submitted and one
//!   owning daemon shut down before `wait()`, the router re-routes the
//!   dead peer's slice to the survivors and the session still completes
//!   with the same bits;
//! * **anti-entropy** — two daemons that tuned disjoint workloads
//!   converge to the `absorb` union once they pull each other, and both
//!   directories hold the union after shutdown;
//! * **router determinism** — the same peer specs and fingerprints give
//!   the same assignment in every process (no RNG, no iteration-order
//!   dependence).
//!
//! The tests route session traffic over TCP and control traffic
//! (shutdown, anti-entropy pulls) over the Unix socket, so both
//! transports are exercised. Nothing depends on that split: every
//! connection has its own daemon thread, on any core count.

use conv_iolb::autotune::plan::tuner_setup;
use conv_iolb::autotune::tune_with_store;
use conv_iolb::cnn::inference::TUNER_SEED;
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::ConvShape;
use conv_iolb::gpusim::DeviceSpec;
use conv_iolb::records::{RecordStore, Workload};
use conv_iolb::service::{
    Backend, BackendSession, Daemon, DaemonConfig, FleetRouter, PeerAddr, ServiceConfig,
    ShardedStore, SocketBackend, TuneRequest,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const BUDGET: usize = 12;

fn device() -> DeviceSpec {
    DeviceSpec::v100()
}

/// Unique per test run: pid alone collides when the OS recycles pids
/// across back-to-back invocations.
fn unique_tag() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("{}-{nanos}", std::process::id())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iolb-fleet-{tag}-{}", unique_tag()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The eager reference: `tune_with_store` on a fresh store at the
/// fleet's budget and seed.
fn eager(shape: &ConvShape) -> (RecordStore, f64) {
    let mut store = RecordStore::new();
    let mut s = tuner_setup(shape, TileKind::Direct, &device(), BUDGET, TUNER_SEED);
    let out =
        tune_with_store(&s.space, &s.measurer, &mut s.model, &mut s.searcher, s.params, &mut store)
            .expect("feasible workload");
    (store, out.result.best_ms)
}

/// 5 requests, 3 unique — the duplicate-layer network from the daemon
/// tests, now scattered across a fleet.
fn requests() -> Vec<TuneRequest> {
    let a = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
    let b = ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0);
    let c = ConvShape::new(24, 14, 14, 12, 1, 1, 1, 0);
    [a, b, a, c, a].iter().map(|&shape| TuneRequest::bare(shape, TileKind::Direct)).collect()
}

/// One in-process fleet daemon: TCP for sessions, Unix for control.
struct FleetDaemon {
    dir: PathBuf,
    sock: PathBuf,
    tcp: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl FleetDaemon {
    fn start(tag: &str, idx: usize, peers: Vec<PeerAddr>, peer_sync: Duration) -> Self {
        let dir = temp_dir(&format!("{tag}-{idx}"));
        let sock =
            std::env::temp_dir().join(format!("iolb-fleet-{tag}-{idx}-{}.sock", unique_tag()));
        let config = DaemonConfig {
            service: ServiceConfig {
                budget_per_workload: BUDGET,
                workers: 0, // sessions tune on the handler threads: deterministic
                speculate_neighbors: false,
                seed: TUNER_SEED,
                ..ServiceConfig::default()
            },
            merge_interval: Duration::from_millis(50),
            tcp: Some("127.0.0.1:0".to_string()), // a free port, reported by tcp_addr()
            peers,
            peer_sync_interval: peer_sync,
            ..DaemonConfig::default()
        };
        let (daemon, report) = Daemon::bind(&dir, &sock, config).unwrap();
        assert!(report.is_clean(), "warnings: {:?}", report.warnings);
        let tcp = daemon.tcp_addr().expect("TCP listener requested");
        let thread = std::thread::spawn(move || daemon.run().unwrap());
        Self { dir, sock, tcp, thread }
    }

    /// Stops the daemon over its Unix socket — which stays responsive
    /// even while a persistent TCP client occupies the TCP listener's
    /// inline handler on single-core hosts — and joins it.
    fn stop(self) -> PathBuf {
        SocketBackend::connect(&self.sock).unwrap().shutdown().unwrap();
        self.thread.join().expect("daemon thread panicked");
        assert!(!self.sock.exists(), "clean shutdown removes the socket file");
        self.dir
    }
}

/// The tentpole pin: a 3-daemon TCP fleet serves a network bit-identical
/// to eager tuning, and killing one daemon mid-session (submitted, not
/// yet waited) still completes the session with the same bits.
#[test]
fn fleet_matches_eager_and_survives_killing_a_daemon_mid_session() {
    let daemons: Vec<FleetDaemon> = (0..3)
        .map(|i| FleetDaemon::start("kill", i, Vec::new(), Duration::from_secs(3600)))
        .collect();
    let specs: Vec<String> = daemons.iter().map(|d| format!("tcp:{}", d.tcp)).collect();
    let router = FleetRouter::from_specs(&specs);
    assert_eq!(router.peers().len(), 3);

    // Session 1: the whole batch through the fleet, against eager bits.
    let session = router.submit_batch(&requests(), &device()).unwrap();
    assert_eq!(session.request_count(), 5);
    assert_eq!(
        session.unique_workloads(),
        3,
        "duplicates of one fingerprint route to one peer, so per-peer dedup sums to the global count"
    );
    let results = session.wait().unwrap();
    assert_eq!(results.len(), 5);
    for (request, served) in requests().iter().zip(&results) {
        let served = served.as_ref().expect("feasible layer");
        let (eager_store, eager_best_ms) = eager(&request.shape);
        let workload =
            Workload::new(request.shape, TileKind::Direct, device().name, device().smem_per_sm);
        assert_eq!(
            served.cost_ms.to_bits(),
            eager_best_ms.to_bits(),
            "fleet-served cost differs from eager for {}",
            workload.fingerprint()
        );
        assert_eq!(served.config, eager_store.top_k(&workload, 1)[0].config);
    }
    // One tuning run per unique fingerprint *fleet-wide*: the aggregated
    // stats prove no workload tuned on two daemons.
    let snap = router.stats().unwrap();
    assert_eq!(snap.snapshot.stats.inline_tuned + snap.snapshot.stats.background_tuned, 3);
    let sync = router.sync().unwrap();
    assert!(sync.persisted, "all three daemons flushed");
    assert!(sync.total > 0);

    // Session 2, with a mid-session kill: submit, then shut down the
    // daemon that owns the first request's fingerprint *before* waiting.
    let session = router.submit_batch(&requests(), &device()).unwrap();
    let victim_addr = {
        let fp = FleetRouter::fingerprint(&requests()[0], &device());
        match router.route_fingerprint(&fp).expect("all peers alive").clone() {
            PeerAddr::Tcp(addr) => addr,
            other => panic!("TCP fleet routed to {other}"),
        }
    };
    let victim_at = daemons.iter().position(|d| d.tcp.to_string() == victim_addr).unwrap();
    let mut survivors = Vec::new();
    let mut victim_dir = None;
    for (at, daemon) in daemons.into_iter().enumerate() {
        if at == victim_at {
            // Fully down — thread joined, sockets closed — before wait().
            victim_dir = Some(daemon.stop());
        } else {
            survivors.push(daemon);
        }
    }
    let failover = session.wait().expect("failover completes the session");
    assert_eq!(router.live_peers(), 2, "the router marked the dead peer");
    for (fresh, refailed) in results.iter().zip(&failover) {
        let fresh = fresh.as_ref().unwrap();
        let refailed = refailed.as_ref().unwrap();
        assert_eq!(
            refailed.cost_ms.to_bits(),
            fresh.cost_ms.to_bits(),
            "failover re-tuning must reproduce the dead peer's bits"
        );
        assert_eq!(refailed.config, fresh.config);
    }
    // Sync is honest about the hole: a dead peer means the fleet cannot
    // claim everything is on disk.
    let sync = router.sync().unwrap();
    assert!(!sync.persisted, "a dead peer must surface as persisted: false");

    // The union of all three directories (consistent hashing may leave
    // a peer with no keys, so single directories can be empty) carries
    // every workload at its eager bits.
    let mut dirs = vec![victim_dir.expect("victim stopped above")];
    dirs.extend(survivors.into_iter().map(FleetDaemon::stop));
    let mut union = ShardedStore::new();
    for dir in &dirs {
        let (store, report) = ShardedStore::load(dir).unwrap();
        assert!(report.is_clean(), "corrupt fleet directory: {:?}", report.warnings);
        union.absorb(store);
    }
    for request in requests() {
        let workload =
            Workload::new(request.shape, TileKind::Direct, device().name, device().smem_per_sm);
        let best = union.best(&workload).expect("workload missing from every fleet directory");
        let (_, eager_best_ms) = eager(&request.shape);
        assert_eq!(best.cost_ms.to_bits(), eager_best_ms.to_bits());
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Anti-entropy: two daemons tune disjoint workloads, each peered at
/// the other's Unix socket; both converge to the same `absorb` union,
/// and both *directories* hold the union after shutdown.
#[test]
fn anti_entropy_converges_divergent_daemons_to_the_union() {
    let tag = "sync";
    // Socket paths are chosen before either daemon starts so each can
    // list the other as a peer; pulls simply fail silently until the
    // peer is up (the designed-for case).
    let sock_a = std::env::temp_dir().join(format!("iolb-fleet-{tag}-a-{}.sock", unique_tag()));
    let sock_b = std::env::temp_dir().join(format!("iolb-fleet-{tag}-b-{}.sock", unique_tag()));
    let start = |idx: usize, own_sock: &PathBuf, peer_sock: &PathBuf| {
        let dir = temp_dir(&format!("{tag}-{idx}"));
        let config = DaemonConfig {
            service: ServiceConfig {
                budget_per_workload: BUDGET,
                workers: 0,
                speculate_neighbors: false,
                seed: TUNER_SEED,
                ..ServiceConfig::default()
            },
            merge_interval: Duration::from_millis(50),
            tcp: Some("127.0.0.1:0".to_string()),
            peers: vec![PeerAddr::Unix(peer_sock.clone())],
            peer_sync_interval: Duration::from_millis(100),
            ..DaemonConfig::default()
        };
        let (daemon, report) = Daemon::bind(&dir, own_sock, config).unwrap();
        assert!(report.is_clean());
        let tcp = daemon.tcp_addr().unwrap();
        let sock = own_sock.clone();
        let thread = std::thread::spawn(move || daemon.run().unwrap());
        FleetDaemon { dir, sock, tcp, thread }
    };
    let a = start(0, &sock_a, &sock_b);
    let b = start(1, &sock_b, &sock_a);

    // Diverge: X tunes only on A, Y tunes only on B.
    let shape_x = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
    let shape_y = ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0);
    let client_a = PeerAddr::Tcp(a.tcp.to_string()).connect().unwrap();
    let client_b = PeerAddr::Tcp(b.tcp.to_string()).connect().unwrap();
    let out_x = client_a
        .tune_or_wait_via(&shape_x, TileKind::Direct, &device())
        .unwrap()
        .expect("feasible workload");
    let out_y = client_b
        .tune_or_wait_via(&shape_y, TileKind::Direct, &device())
        .unwrap()
        .expect("feasible workload");

    // Converge: poll both stores over the wire until they are equal and
    // contain both workloads (one pull interval per direction, plus
    // tuning time — 60 s is generous, the loop exits in well under one).
    let fp_x = Workload::new(shape_x, TileKind::Direct, device().name, device().smem_per_sm);
    let fp_y = Workload::new(shape_y, TileKind::Direct, device().name, device().smem_per_sm);
    let deadline = Instant::now() + Duration::from_secs(60);
    let (store_a, store_b) = loop {
        let store_a = client_a.pull().unwrap();
        let store_b = client_b.pull().unwrap();
        let both = |s: &ShardedStore| s.best(&fp_x).is_some() && s.best(&fp_y).is_some();
        if both(&store_a) && both(&store_b) && store_a == store_b {
            break (store_a, store_b);
        }
        assert!(
            Instant::now() < deadline,
            "daemons never converged: A has {} record(s), B has {}",
            store_a.len(),
            store_b.len()
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(store_a.merged().to_jsonl(), store_b.merged().to_jsonl());
    // The union carries each side's bits unchanged.
    assert_eq!(store_a.best(&fp_x).unwrap().cost_ms.to_bits(), out_x.cost_ms.to_bits());
    assert_eq!(store_a.best(&fp_y).unwrap().cost_ms.to_bits(), out_y.cost_ms.to_bits());

    // Both *directories* hold the union after shutdown (the peer-sync
    // thread persists what it absorbs; the final flush catches the rest).
    drop(client_a);
    drop(client_b);
    let dir_a = a.stop();
    let dir_b = b.stop();
    let (disk_a, report_a) = ShardedStore::load(&dir_a).unwrap();
    let (disk_b, report_b) = ShardedStore::load(&dir_b).unwrap();
    assert!(report_a.is_clean() && report_b.is_clean());
    assert_eq!(disk_a.merged().to_jsonl(), disk_b.merged().to_jsonl());
    assert!(disk_a.best(&fp_x).is_some() && disk_a.best(&fp_y).is_some());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Router determinism across processes: the assignment is a pure
/// function of (peer specs, fingerprints) — this run must agree with
/// any other run, so pin a golden sample in addition to the in-crate
/// instance-vs-instance property.
#[test]
fn routing_is_a_pure_function_of_specs_and_fingerprints() {
    let specs: Vec<String> = ["tcp:10.0.0.1:7070", "tcp:10.0.0.2:7070", "tcp:10.0.0.3:7070"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let router = FleetRouter::from_specs(&specs);
    let again = FleetRouter::from_specs(&specs);
    for request in requests() {
        let fp = FleetRouter::fingerprint(&request, &device());
        assert_eq!(
            router.route_fingerprint(&fp),
            again.route_fingerprint(&fp),
            "two routers over the same specs disagree on {fp}"
        );
    }
    // Duplicates of one fingerprint always share a peer — the property
    // that makes per-peer dedup sum to the global unique count.
    let fps: Vec<String> =
        requests().iter().map(|r| FleetRouter::fingerprint(r, &device())).collect();
    assert_eq!(router.route_fingerprint(&fps[0]), router.route_fingerprint(&fps[2]));
    assert_eq!(router.route_fingerprint(&fps[0]), router.route_fingerprint(&fps[4]));
}

/// A peer that answers every frame with a well-formed reply of the wrong
/// type (`Bye`) speaks garbage, and is failed over like a dead one: the
/// fleet serves the whole batch from the real daemon, bit-identical to
/// eager tuning.
#[test]
fn a_peer_replying_with_the_wrong_type_is_failed_over() {
    use conv_iolb::service::wire::{self, Response};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixListener;

    let real = FleetDaemon::start("bye", 0, Vec::new(), Duration::from_secs(3600));
    let real_peer = PeerAddr::Unix(real.sock.clone());
    // A socket path for the fake peer that owns at least one of the
    // requests on the ring, so the router must talk to it.
    let tag = unique_tag();
    let fingerprints: Vec<String> =
        requests().iter().map(|r| FleetRouter::fingerprint(r, &device())).collect();
    let fake_sock = (0..)
        .map(|i| std::env::temp_dir().join(format!("iolb-fleet-bye-{i}-{tag}.sock")))
        .find(|sock| {
            let fake = PeerAddr::Unix(sock.clone());
            let router = FleetRouter::new(vec![fake.clone(), real_peer.clone()]);
            fingerprints.iter().any(|fp| router.route_fingerprint(fp) == Some(&fake))
        })
        .expect("some path owns a request");
    let listener = UnixListener::bind(&fake_sock).unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let bye = wire::encode_response(&Response::Bye);
        let mut answered = 0;
        let mut prefix = [0u8; 4];
        while conn.read_exact(&mut prefix).is_ok() {
            let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
            conn.read_exact(&mut payload).unwrap();
            conn.write_all(&(bye.len() as u32).to_be_bytes()).unwrap();
            conn.write_all(&bye).unwrap();
            answered += 1;
        }
        answered
    });

    let router = FleetRouter::new(vec![PeerAddr::Unix(fake_sock.clone()), real_peer]);
    let results = router.submit_batch(&requests(), &device()).unwrap().wait().unwrap();
    for (request, served) in requests().iter().zip(&results) {
        let served = served.as_ref().expect("feasible layer");
        let (eager_store, eager_best_ms) = eager(&request.shape);
        let workload =
            Workload::new(request.shape, TileKind::Direct, device().name, device().smem_per_sm);
        assert_eq!(served.cost_ms.to_bits(), eager_best_ms.to_bits());
        assert_eq!(served.config, eager_store.top_k(&workload, 1)[0].config);
    }
    assert_eq!(router.live_peers(), 1, "the peer that spoke garbage is marked dead");
    drop(router);
    assert_eq!(fake.join().unwrap(), 1, "the fake peer was asked once, then dropped");
    let _ = std::fs::remove_file(&fake_sock);
    let _ = std::fs::remove_dir_all(real.stop());
}
