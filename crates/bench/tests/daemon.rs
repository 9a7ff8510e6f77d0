//! Cross-process daemon protocol (ISSUE 5 acceptance, modeled on
//! `multiprocess.rs`): a resident `tune-cache serve` daemon owns the
//! shard directory's flock for its whole lifetime and serves concurrent
//! `tune-net --daemon` client *processes* over its Unix socket.
//!
//! Pinned here:
//! * two concurrent clients with overlapping networks trigger exactly
//!   one tuning run per unique workload fingerprint (the daemon's
//!   cross-client dedup — measured via the wire `Stats` counters
//!   against eager per-workload reference runs);
//! * a later client replays entirely from the daemon's memory ("0 fresh
//!   measurement(s)" in its summary line);
//! * while the daemon lives, the directory lock is *held* — an outside
//!   writer times out with the typed error instead of corrupting the
//!   store;
//! * shutdown is clean: the daemon persists, removes its socket, exits
//!   zero, and the directory then holds records bit-identical to eager
//!   tuning.

use iolb_autotune::engine::tune_with_store;
use iolb_autotune::plan::tuner_setup;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;
use iolb_records::{RecordStore, Workload};
use iolb_service::{Backend, DirLock, LockError, ShardedStore, SocketBackend};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TUNE_CACHE: &str = env!("CARGO_BIN_EXE_tune-cache");

/// The daemon's budget/seed (`serve --budget 8`, default seed 7): the
/// eager reference runs must match them for bit-identity.
const BUDGET: usize = 8;
const SEED: u64 = 7;

/// Two overlapping toy networks (1x1 layers: direct-only, fast). The
/// (16,14,14,32) layer is shared, and NET_A carries a duplicate shape so
/// session dedup is exercised across the socket too.
const NET_A: &str = "32,14,14,16,1,1,1,0;16,14,14,32,1,1,1,0;32,14,14,16,1,1,1,0";
const NET_B: &str = "16,14,14,32,1,1,1,0;24,14,14,12,1,1,1,0";

/// The three unique layer shapes across both networks.
fn unique_shapes() -> Vec<ConvShape> {
    vec![
        ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0),
        ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0),
        ConvShape::new(24, 14, 14, 12, 1, 1, 1, 0),
    ]
}

/// Unique per run: pid alone collides when the OS recycles pids across
/// back-to-back test invocations (a stale daemon from an aborted run
/// could then race this run's directory).
fn unique_tag() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("{}-{nanos}", std::process::id())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iolb-daemon-proc-{tag}-{}", unique_tag()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kills the daemon child if the test dies before a clean shutdown, so
/// a failed assertion can never leak a resident process holding /tmp
/// locks.
struct ServerGuard(Option<Child>);

impl ServerGuard {
    fn wait_success(mut self) {
        let mut child = self.0.take().expect("server already taken");
        let status = child.wait().expect("wait for serve child");
        assert!(status.success(), "serve exited non-zero: {status}");
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_serve(dir: &Path, sock: &Path) -> ServerGuard {
    spawn_serve_with(dir, sock, &[])
}

fn spawn_serve_with(dir: &Path, sock: &Path, extra: &[&str]) -> ServerGuard {
    let child = Command::new(TUNE_CACHE)
        .arg("serve")
        .arg(dir)
        .arg("--socket")
        .arg(sock)
        .args(["--budget", "8", "--merge-interval-ms", "50"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn tune-cache serve");
    // The daemon is up once its socket exists.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "daemon socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    ServerGuard(Some(child))
}

fn spawn_client(sock: &Path, spec: &str) -> Child {
    Command::new(TUNE_CACHE)
        .args(["tune-net", "--layers", spec, "--daemon"])
        .arg(sock)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn tune-net --daemon")
}

/// Eager reference for one workload at the daemon's budget/seed.
fn eager(shape: &ConvShape) -> (RecordStore, f64, usize) {
    let device = DeviceSpec::v100();
    let mut store = RecordStore::new();
    let mut s = tuner_setup(shape, TileKind::Direct, &device, BUDGET, SEED);
    let out =
        tune_with_store(&s.space, &s.measurer, &mut s.model, &mut s.searcher, s.params, &mut store)
            .expect("feasible workload");
    (store, out.result.best_ms, out.fresh_measurements)
}

#[test]
fn daemon_dedupes_across_client_processes_and_shuts_down_cleanly() {
    let dir = temp_dir("dedup");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-proc-{}.sock", unique_tag()));
    let server = spawn_serve(&dir, &sock);

    // While the daemon lives it owns the directory: an outside writer
    // gets the typed timeout instead of silently interleaving.
    match DirLock::acquire(&dir, Duration::from_millis(50)) {
        Err(LockError::Timeout { .. }) => {}
        other => panic!("expected the daemon to hold the directory lock, got {other:?}"),
    }

    // Two concurrent client processes with overlapping networks.
    let mut clients = vec![spawn_client(&sock, NET_A), spawn_client(&sock, NET_B)];
    for client in &mut clients {
        let status = client.wait().expect("wait for tune-net client");
        assert!(status.success(), "tune-net --daemon failed: {status}");
    }

    // A third client replays purely from daemon memory.
    let replay = Command::new(TUNE_CACHE)
        .args(["tune-net", "--layers", NET_A, "--daemon"])
        .arg(&sock)
        .output()
        .expect("run replay client");
    assert!(replay.status.success());
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        stdout.contains(" 0 fresh measurement(s)"),
        "replay client measured something:\n{stdout}"
    );

    // Exactly one tuning run per unique fingerprint across all client
    // processes: total fresh measurements equal the sum of one eager run
    // per unique workload, and the run count equals the unique count.
    let backend = SocketBackend::connect(&sock).expect("connect stats client");
    let snap = Backend::stats(&backend).expect("wire stats");
    let expected_fresh: usize = unique_shapes().iter().map(|s| eager(s).2).sum();
    assert_eq!(
        snap.snapshot.stats.fresh_measurements, expected_fresh,
        "cross-client dedup must yield exactly one run per unique fingerprint"
    );
    assert_eq!(
        snap.snapshot.stats.inline_tuned + snap.snapshot.stats.background_tuned,
        unique_shapes().len()
    );

    // Clean shutdown: persists, removes the socket, exits zero.
    backend.shutdown().expect("wire shutdown");
    server.wait_success();
    assert!(!sock.exists(), "socket file must be removed on shutdown");

    // The directory now holds records bit-identical to eager tuning.
    let (store, report) = ShardedStore::load(&dir).expect("load daemon directory");
    assert!(report.is_clean(), "corrupt daemon directory: {:?}", report.warnings);
    let device = DeviceSpec::v100();
    for shape in unique_shapes() {
        let workload = Workload::new(shape, TileKind::Direct, device.name, device.smem_per_sm);
        let best = store.best(&workload).expect("workload missing from daemon directory");
        let (eager_store, eager_best_ms, _) = eager(&shape);
        assert_eq!(best.cost_ms.to_bits(), eager_best_ms.to_bits());
        assert_eq!(best.config, eager_store.top_k(&workload, 1)[0].config);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-bucket jitters of NET_A's two unique shapes (floor 16: cin 32
/// jitters to 30 in the same power-of-two bucket; extents at or below
/// the floor stay exact, so they anchor to the warmed fingerprints).
const JIT_A: &str = "30,14,14,16,1,1,1,0;16,14,14,30,1,1,1,0";

fn jittered_shapes() -> Vec<ConvShape> {
    vec![ConvShape::new(30, 14, 14, 16, 1, 1, 1, 0), ConvShape::new(16, 14, 14, 30, 1, 1, 1, 0)]
}

/// Runs a `tune-net --daemon --json` client and returns its JSON line.
fn client_json(sock: &Path, spec: &str) -> String {
    let out = Command::new(TUNE_CACHE)
        .args(["tune-net", "--layers", spec, "--daemon"])
        .arg(sock)
        .arg("--json")
        .output()
        .expect("run tune-net --daemon --json");
    assert!(out.status.success(), "tune-net --daemon failed: {}", out.status);
    String::from_utf8(out.stdout).expect("utf8 client output").trim().to_string()
}

/// One counter out of a client's JSON summary line.
fn summary_u64(json: &str, key: &str) -> u64 {
    let fields = iolb_records::jsonl::FlatObject::parse(json).expect("summary parses");
    fields.u64(key).expect("summary counter")
}

/// ISSUE 8 acceptance over the wire: a daemon warmed on exact shapes
/// serves in-bucket jittered traffic entirely from the anchor buckets —
/// zero fresh measurements, zero inline tunes — while exact-hit replays
/// keep returning bit-identical results. The gap bound is opened wide so
/// every transfer is analytically admissible (no re-tunes): the serve is
/// pure transfer.
#[test]
fn jittered_traffic_is_served_anchored_with_zero_fresh_measurements() {
    let dir = temp_dir("anchor");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-anchor-{}.sock", unique_tag()));
    let server = spawn_serve_with(&dir, &sock, &["--transfer-gap-permille", "1000000"]);

    // Warm the daemon on the exact shapes.
    let warm = client_json(&sock, NET_A);
    assert!(warm.contains("\"anchored\":0"), "warm run must not anchor: {warm}");

    // Jittered replay: every request answered from the anchor bucket.
    let jit = client_json(&sock, JIT_A);
    for field in ["\"fresh\":0", "\"anchored\":2", "\"retunes\":0", "\"hits\":0", "\"inline\":0"] {
        assert!(jit.contains(field), "expected {field} in jittered replay: {jit}");
    }
    assert!(jit.contains("\"anchored_hit_rate\":1"), "anchored hit rate must be 1: {jit}");

    // Exact-hit layers still serve bit-identically (hermetic replay is
    // untouched by the anchoring layer).
    let exact = client_json(&sock, NET_A);
    for field in ["\"fresh\":0", "\"anchored\":0", "\"hits\":3"] {
        assert!(exact.contains(field), "expected {field} in exact replay: {exact}");
    }
    assert_eq!(
        warm.split("\"layer_ms\":").nth(1),
        exact.split("\"layer_ms\":").nth(1),
        "exact replay must return bit-identical per-layer costs"
    );

    // The wire stats carry the split, and the anchored serves inserted
    // no records: after shutdown only the exact fingerprints exist.
    let backend = SocketBackend::connect(&sock).expect("connect stats client");
    let snap = Backend::stats(&backend).expect("wire stats");
    assert_eq!(snap.snapshot.stats.anchored_hits, 2);
    assert_eq!(snap.snapshot.stats.transfer_retunes, 0);
    backend.shutdown().expect("wire shutdown");
    server.wait_success();
    let (store, report) = ShardedStore::load(&dir).expect("load daemon directory");
    assert!(report.is_clean(), "corrupt daemon directory: {:?}", report.warnings);
    let device = DeviceSpec::v100();
    for shape in jittered_shapes() {
        let workload = Workload::new(shape, TileKind::Direct, device.name, device.smem_per_sm);
        assert!(
            store.best(&workload).is_none(),
            "anchored serving must not mint records for jittered fingerprints"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The other half of the transfer gate, over the wire: with a gap bound
/// tight enough to reject every transfer, jittered traffic is still
/// served provisionally from the bucket (zero fresh in the session) but
/// each serve books a background re-tune — and once the daemon's workers
/// drain the queue, the jittered shapes replay as *exact* hits whose
/// records are bit-identical to eager tuning of those very shapes.
#[test]
fn gate_failures_retune_in_the_background_and_converge_over_the_wire() {
    let dir = temp_dir("retune");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-retune-{}.sock", unique_tag()));
    let server = spawn_serve_with(&dir, &sock, &["--transfer-gap-permille", "1"]);

    // Both unique layers are tuned fresh — by the session's own thread
    // (`inline`, whose measurements the client books as `fresh`) or by a
    // background worker that claimed the job first (`stolen`). Which of
    // the two is scheduling, now that connections no longer occupy the
    // pool; that the client accounts for every layer and the daemon ran
    // both tunings is not.
    let warm = client_json(&sock, NET_A);
    let (inline, stolen) = (summary_u64(&warm, "inline"), summary_u64(&warm, "stolen"));
    assert_eq!(inline + stolen, 2, "both unique layers must be tuned cold: {warm}");
    assert_eq!(summary_u64(&warm, "fresh"), BUDGET as u64 * inline, "client books: {warm}");
    assert!(warm.contains("\"hits\":1") && warm.contains("\"anchored\":0"), "warm run: {warm}");
    let backend = SocketBackend::connect(&sock).expect("connect stats client");
    let warm = Backend::stats(&backend).expect("wire stats").snapshot.stats;
    assert_eq!(warm.fresh_measurements, 16, "warm run must tune fresh: {warm:?}");
    drop(backend);

    // Provisional anchored serve: still zero fresh in the session, but
    // every layer is flagged for re-tune.
    let jit = client_json(&sock, JIT_A);
    for field in ["\"fresh\":0", "\"anchored\":2", "\"retunes\":2"] {
        assert!(jit.contains(field), "expected {field} in jittered replay: {jit}");
    }

    // Wait for the daemon's interval thread to drain the transfer
    // queue (hermetic tuning, so this converges deterministically),
    // polling over short-lived connections.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let backend = SocketBackend::connect(&sock).expect("connect stats client");
        let snap = Backend::stats(&backend).expect("wire stats");
        if snap.snapshot.queue_len == 0 && snap.snapshot.stats.background_tuned >= 2 {
            break;
        }
        drop(backend);
        assert!(Instant::now() < deadline, "transfer re-tunes never drained");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Converged: the jittered shapes now replay as exact hits.
    let exact = client_json(&sock, JIT_A);
    for field in ["\"fresh\":0", "\"anchored\":0", "\"hits\":2"] {
        assert!(exact.contains(field), "expected {field} after convergence: {exact}");
    }

    let backend = SocketBackend::connect(&sock).expect("connect shutdown client");
    backend.shutdown().expect("wire shutdown");
    server.wait_success();

    // The re-tuned records are bit-identical to eager tuning of the
    // jittered shapes themselves (not of their donors).
    let (store, report) = ShardedStore::load(&dir).expect("load daemon directory");
    assert!(report.is_clean(), "corrupt daemon directory: {:?}", report.warnings);
    let device = DeviceSpec::v100();
    for shape in jittered_shapes() {
        let workload = Workload::new(shape, TileKind::Direct, device.name, device.smem_per_sm);
        let best = store.best(&workload).expect("re-tuned workload missing");
        let (eager_store, eager_best_ms, _) = eager(&shape);
        assert_eq!(best.cost_ms.to_bits(), eager_best_ms.to_bits());
        assert_eq!(best.config, eager_store.top_k(&workload, 1)[0].config);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
