//! Anchored serving across a daemon *fleet* (ISSUE 8, satellite): two
//! resident TCP daemons are warmed on exact shapes, then in-bucket
//! jittered traffic is consistent-hash-routed across both — every
//! request is answered from an anchor bucket with zero fresh
//! measurements, and the per-daemon `iolb_anchor_hits_total` telemetry
//! counters aggregate to the fleet-wide anchored total.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

const TUNE_CACHE: &str = env!("CARGO_BIN_EXE_tune-cache");

/// Two exact 1x1 layers and their in-bucket jitters (anchor floor 16:
/// cin 32 jitters to 30 inside the 32 bucket; extents at or below the
/// floor stay exact).
const EXACT: &str = "32,14,14,16,1,1,1,0;16,14,14,32,1,1,1,0";
const JIT: &str = "30,14,14,16,1,1,1,0;16,14,14,30,1,1,1,0";

fn unique_tag() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("{}-{nanos}", std::process::id())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iolb-fleet-anchor-{tag}-{}", unique_tag()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fleet daemon child plus the TCP address it actually bound (`:0`
/// picks a free port, printed on the "listening on tcp" line). Killed
/// on drop so a failed assertion never leaks a resident process.
struct FleetDaemon {
    child: Option<Child>,
    addr: String,
    /// Keeps the stdout pipe open (the daemon prints nothing of volume
    /// after startup, so an unread pipe cannot block it).
    _stdout: BufReader<ChildStdout>,
}

impl FleetDaemon {
    fn spawn(dir: &Path) -> Self {
        let mut child = Command::new(TUNE_CACHE)
            .arg("serve")
            .arg(dir)
            .args([
                "--tcp",
                "127.0.0.1:0",
                "--budget",
                "8",
                "--merge-interval-ms",
                "50",
                "--transfer-gap-permille",
                "1000000",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn tune-cache serve --tcp");
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read daemon stdout");
            assert!(n > 0, "daemon exited before announcing its TCP address");
            if let Some(addr) = line.trim().strip_prefix("listening on tcp ") {
                break addr.to_string();
            }
        };
        Self { child: Some(child), addr, _stdout: reader }
    }

    fn stop_and_wait(mut self) {
        let status = Command::new(TUNE_CACHE)
            .arg("stop")
            .arg(format!("tcp:{}", self.addr))
            .status()
            .expect("run tune-cache stop");
        assert!(status.success(), "tune-cache stop failed: {status}");
        let mut child = self.child.take().expect("daemon already taken");
        let status = child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon exited non-zero: {status}");
    }
}

impl Drop for FleetDaemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs `tune-net --fleet <spec> --json` and returns the JSON line.
fn fleet_client_json(fleet: &str, layers: &str) -> String {
    let out = Command::new(TUNE_CACHE)
        .args(["tune-net", "--layers", layers, "--fleet", fleet, "--json"])
        .output()
        .expect("run tune-net --fleet --json");
    assert!(out.status.success(), "tune-net --fleet failed: {}", out.status);
    String::from_utf8(out.stdout).expect("utf8 client output").trim().to_string()
}

/// One counter out of a client's JSON summary line.
fn summary_u64(json: &str, key: &str) -> u64 {
    let fields = iolb_records::jsonl::FlatObject::parse(json).expect("summary parses");
    fields.u64(key).expect("summary counter")
}

/// One named counter out of a daemon's Prometheus exposition (0 when
/// the daemon has not emitted it yet).
fn scrape_counter(addr: &str, name: &str) -> u64 {
    let out = Command::new(TUNE_CACHE)
        .arg("metrics")
        .arg(format!("tcp:{addr}"))
        .output()
        .expect("run tune-cache metrics");
    assert!(out.status.success(), "tune-cache metrics failed: {}", out.status);
    String::from_utf8(out.stdout)
        .expect("utf8 metrics")
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")).map(|v| v.parse().expect("counter u64")))
        .unwrap_or(0)
}

/// ISSUE 8 acceptance at fleet scale: jittered traffic routed across
/// two daemons is served entirely from anchor buckets — zero fresh
/// measurements anywhere — and the anchored-hit telemetry aggregated
/// across the peers equals the fleet-wide anchored total.
#[test]
fn jittered_traffic_is_served_anchored_across_the_fleet() {
    let dir1 = temp_dir("d1");
    let dir2 = temp_dir("d2");
    let d1 = FleetDaemon::spawn(&dir1);
    let d2 = FleetDaemon::spawn(&dir2);
    let fleet = format!("tcp:{},tcp:{}", d1.addr, d2.addr);

    // Warm *each* daemon on the exact shapes (hermetic tuning makes the
    // two stores bit-identical), so whichever peer a jittered
    // fingerprint hashes to holds its donor. (Whether the session's own
    // thread — `inline`, booked as 8 `fresh` by the client — or a
    // background worker — `stolen` — runs each tuning is scheduling, now
    // that connections no longer occupy the pool; that the client
    // accounts for both layers and the daemon tuned both fresh is not.)
    for addr in [&d1.addr, &d2.addr] {
        let warm = fleet_client_json(&format!("tcp:{addr}"), EXACT);
        let (inline, stolen) = (summary_u64(&warm, "inline"), summary_u64(&warm, "stolen"));
        assert_eq!(inline + stolen, 2, "both layers must be tuned cold: {warm}");
        assert_eq!(summary_u64(&warm, "fresh"), 8 * inline, "client books: {warm}");
        let fresh = scrape_counter(addr, "iolb_service_fresh_measurements_total");
        assert_eq!(fresh, 16, "warm run must tune fresh on {addr}");
    }

    // Jittered replay across the whole fleet: all anchored, no fresh
    // measurements, no re-tunes (the gap bound is wide open), and the
    // routing actually spanned both live peers.
    let jit = fleet_client_json(&fleet, JIT);
    for field in [
        "\"fresh\":0",
        "\"anchored\":2",
        "\"retunes\":0",
        "\"hits\":0",
        "\"anchored_hit_rate\":1",
        "\"peers_live\":2",
    ] {
        assert!(jit.contains(field), "expected {field} in fleet jittered replay: {jit}");
    }

    // The per-peer telemetry counters aggregate to the fleet total.
    let anchored_total: u64 = [&d1.addr, &d2.addr]
        .iter()
        .map(|addr| scrape_counter(addr, "iolb_anchor_hits_total"))
        .sum();
    assert_eq!(anchored_total, 2, "fleet-wide anchored hits must aggregate across peers");
    let retunes_total: u64 = [&d1.addr, &d2.addr]
        .iter()
        .map(|addr| scrape_counter(addr, "iolb_transfer_retunes_total"))
        .sum();
    assert_eq!(retunes_total, 0, "wide-open gap bound must admit every transfer");

    d1.stop_and_wait();
    d2.stop_and_wait();
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir2);
}
