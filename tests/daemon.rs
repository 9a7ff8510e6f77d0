//! ISSUE 5 acceptance gates for the resident shard-server daemon
//! (in-process half; the cross-process half lives in
//! `crates/bench/tests/daemon.rs`):
//!
//! * **daemon == eager** — configs served over the Unix socket are
//!   bit-identical to eager `tune_with_store` runs of the same
//!   workloads (the daemon runs the identical hermetic tuning);
//! * **restart** — the daemon's directory carries everything: a second
//!   daemon over the same directory serves pure shard hits with zero
//!   fresh measurements, and the persisted telemetry counters survive;
//! * **cross-client dedup** — two concurrent socket clients requesting
//!   the same workload trigger exactly one tuning run, fanned out.

use conv_iolb::autotune::fusion::epilogue_unfused_ms;
use conv_iolb::autotune::plan::tuner_setup;
use conv_iolb::autotune::tune_with_store;
use conv_iolb::cnn::inference::TUNER_SEED;
use conv_iolb::cnn::{fusion, models};
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::ConvShape;
use conv_iolb::gpusim::DeviceSpec;
use conv_iolb::records::RecordStore;
use conv_iolb::service::wire::{Request, Response};
use conv_iolb::service::{
    Backend, BackendError, BackendSession, Daemon, DaemonConfig, EvictionPolicy, ServeSource,
    ServiceConfig, ShardedStore, SocketBackend, TuneRequest, TuningService, MAX_CONNECTIONS,
};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const BUDGET: usize = 12;

fn device() -> DeviceSpec {
    DeviceSpec::v100()
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        service: ServiceConfig {
            budget_per_workload: BUDGET,
            workers: 0, // sessions tune on the handler threads: deterministic
            speculate_neighbors: false,
            seed: TUNER_SEED,
            ..ServiceConfig::default()
        },
        merge_interval: Duration::from_millis(50),
        ..DaemonConfig::default()
    }
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
    let dir = std::env::temp_dir().join(format!("iolb-daemon-{tag}-{}", unique_tag()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The eager reference: `tune_with_store` on a fresh store at the
/// daemon's budget and seed.
fn eager(shape: &ConvShape) -> (RecordStore, f64, usize) {
    let mut store = RecordStore::new();
    let mut s = tuner_setup(shape, TileKind::Direct, &device(), BUDGET, TUNER_SEED);
    let out =
        tune_with_store(&s.space, &s.measurer, &mut s.model, &mut s.searcher, s.params, &mut store)
            .expect("feasible workload");
    (store, out.result.best_ms, out.fresh_measurements)
}

/// 5 requests, 3 unique — the duplicate-layer network from the session
/// tests, now crossing a socket.
fn requests() -> Vec<TuneRequest> {
    let a = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
    let b = ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0);
    let c = ConvShape::new(24, 14, 14, 12, 1, 1, 1, 0);
    [a, b, a, c, a].iter().map(|&shape| TuneRequest::bare(shape, TileKind::Direct)).collect()
}

/// The ISSUE 5 pinned test: daemon-served per-layer configs are
/// bit-identical to embedded/eager tuning, and a daemon restart serves
/// the same bits from disk with zero new measurements.
#[test]
fn daemon_served_configs_are_bit_identical_to_eager() {
    let dir = temp_dir("eager");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-eager-{}.sock", unique_tag()));
    let (daemon, report) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    assert!(report.is_clean(), "warnings: {:?}", report.warnings);
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let backend = SocketBackend::connect(&sock).unwrap();
    let session = backend.submit_batch(&requests(), &device()).unwrap();
    assert_eq!(session.request_count(), 5);
    assert_eq!(session.unique_workloads(), 3, "dedup happens server-side");
    let results = session.wait().unwrap();
    assert_eq!(results.len(), 5);
    for (request, served) in requests().iter().zip(&results) {
        let served = served.as_ref().expect("feasible layer");
        let (eager_store, eager_best_ms, _) = eager(&request.shape);
        let workload = conv_iolb::records::Workload::new(
            request.shape,
            TileKind::Direct,
            device().name,
            device().smem_per_sm,
        );
        assert_eq!(
            served.cost_ms.to_bits(),
            eager_best_ms.to_bits(),
            "daemon-served cost differs from eager for {}",
            workload.fingerprint()
        );
        assert_eq!(served.config, eager_store.top_k(&workload, 1)[0].config);
    }
    // Exactly one tuning run per unique fingerprint, visible over the wire.
    let snap = backend.stats().unwrap();
    assert_eq!(snap.snapshot.stats.inline_tuned + snap.snapshot.stats.background_tuned, 3);
    // The v3 stats frame carries the daemon's metrics registry: one
    // session so far, and its latency histogram agrees.
    assert_eq!(snap.metrics.counter("iolb_sessions_total"), Some(1));
    let session_us = snap.metrics.histogram("iolb_session_us").expect("session histogram on wire");
    assert_eq!(session_us.count(), 1);
    let request_us = snap.metrics.histogram("iolb_daemon_request_us").expect("request histogram");
    assert!(request_us.count() >= 2, "submit + wait were served before this stats call");
    // requests() is a,b,a,c,a — three unique shapes.
    let expected_fresh: usize = {
        let mut seen = std::collections::BTreeSet::new();
        requests()
            .iter()
            .filter(|r| seen.insert(format!("{}", r.shape)))
            .map(|r| eager(&r.shape).2)
            .sum()
    };
    assert_eq!(snap.snapshot.stats.fresh_measurements, expected_fresh);
    // Sync flushes to the daemon's directory.
    let sync = backend.sync().unwrap();
    assert!(sync.persisted);
    assert!(sync.total > 0);
    backend.shutdown().unwrap();
    server.join().unwrap();
    assert!(!sock.exists(), "clean shutdown removes the socket file");

    // Restart: a second daemon over the same directory replays from the
    // shards (zero fresh measurements) and carries the telemetry over.
    let (daemon, report) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    assert!(report.is_clean(), "warnings: {:?}", report.warnings);
    let server = std::thread::spawn(move || daemon.run().unwrap());
    let backend = SocketBackend::connect(&sock).unwrap();
    let restored = backend.stats().unwrap();
    assert_eq!(
        restored.snapshot.stats.fresh_measurements, expected_fresh,
        "telemetry must survive the restart"
    );
    let replay = backend.submit_batch(&requests(), &device()).unwrap().wait().unwrap();
    for (fresh_run, replayed) in results.iter().zip(&replay) {
        let fresh_run = fresh_run.as_ref().unwrap();
        let replayed = replayed.as_ref().unwrap();
        assert_eq!(replayed.source, ServeSource::ShardHit);
        assert_eq!(replayed.fresh_measurements, 0);
        assert_eq!(replayed.cost_ms.to_bits(), fresh_run.cost_ms.to_bits());
        assert_eq!(replayed.config, fresh_run.config);
    }
    assert_eq!(
        backend.stats().unwrap().snapshot.stats.fresh_measurements,
        expected_fresh,
        "replay measured nothing"
    );
    backend.shutdown().unwrap();
    server.join().unwrap();

    // The directory holds exactly what an embedded service would hold.
    let (store, report) = ShardedStore::load(&dir).unwrap();
    assert!(report.is_clean());
    assert!(!store.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE 9 satellite: a daemon configured with an eviction policy trims
/// its store on the persister tick — the dropped count shows up in the
/// `iolb_evictions_total` counter, the store converges to one best
/// record per workload (the best is never evicted, so served bits stay
/// exact), and what lands on disk is the trimmed state.
#[test]
fn scheduled_eviction_trims_store_on_the_persister_tick() {
    let dir = temp_dir("evict");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-evict-{}.sock", unique_tag()));
    let config = DaemonConfig {
        evict: Some(EvictionPolicy { max_records: 3, top_k: 1 }),
        ..daemon_config()
    };
    let (daemon, _) = Daemon::bind(&dir, &sock, config).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let backend = SocketBackend::connect(&sock).unwrap();
    let results = backend.submit_batch(&requests(), &device()).unwrap().wait().unwrap();
    assert_eq!(results.len(), 5);

    // Three unique workloads tuned at budget 12 leave well over
    // `max_records` records in memory; the next persister tick (50 ms
    // merge interval) must trim them. Poll the counter, bounded.
    let mut evicted = 0;
    for _ in 0..100 {
        let snap = backend.stats().unwrap();
        if let Some(n) = snap.metrics.counter("iolb_evictions_total") {
            if n > 0 {
                evicted = n;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(evicted > 0, "persister tick never evicted");

    // Tight budget + top_k 1: the floor is one best record per workload.
    let sync = backend.sync().unwrap();
    assert!(sync.persisted);
    assert_eq!(sync.total, 3, "one best record per unique workload");

    // Serving after the trim replays the kept best records bit-exactly,
    // with no re-measurement: eviction never drops a workload's best.
    let replay = backend.submit_batch(&requests(), &device()).unwrap().wait().unwrap();
    for (before, after) in results.iter().zip(&replay) {
        let (before, after) = (before.as_ref().unwrap(), after.as_ref().unwrap());
        assert_eq!(after.cost_ms.to_bits(), before.cost_ms.to_bits());
        assert_eq!(after.config, before.config);
        assert_eq!(after.fresh_measurements, 0, "best record survived eviction");
    }
    backend.shutdown().unwrap();
    server.join().unwrap();

    // The directory holds the trimmed store, not the pre-eviction one.
    let (store, report) = ShardedStore::load(&dir).unwrap();
    assert!(report.is_clean());
    assert_eq!(store.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The persister flushes on its interval, on `Sync` and at shutdown —
/// not whenever a client hangs up. (It shares a condvar with the
/// connection count; a flush woken by a departure ran on the client's
/// CPU just as the client went on to its next piece of work.)
#[test]
fn a_departing_client_does_not_wake_the_persister() {
    let dir = temp_dir("depart");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-depart-{}.sock", unique_tag()));
    let config = DaemonConfig { merge_interval: Duration::from_secs(60), ..daemon_config() };
    let (daemon, _) = Daemon::bind(&dir, &sock, config).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());

    // Dirty the store, then hang up.
    let first = SocketBackend::connect(&sock).unwrap();
    first.submit_batch(&requests(), &device()).unwrap().wait().unwrap();
    drop(first);
    // Long enough for the handler thread to leave and for a flush of 36
    // records to land, had the departure started one.
    std::thread::sleep(Duration::from_millis(300));
    let on_disk = || ShardedStore::load(&dir).map_or(0, |(store, _)| store.len());
    assert_eq!(on_disk(), 0, "a departure alone must not flush");

    let second = SocketBackend::connect(&sock).unwrap();
    assert!(second.sync().unwrap().persisted);
    assert!(on_disk() > 0, "Sync flushes at once");
    second.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two concurrent socket clients, same workload: one tuning run, both
/// get identical bits.
#[test]
fn concurrent_socket_clients_share_one_tuning_run() {
    let dir = temp_dir("dedup");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-dedup-{}.sock", unique_tag()));
    let (daemon, _) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let shape = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let backend = SocketBackend::connect(&sock).unwrap();
                backend
                    .tune_or_wait_via(&shape, TileKind::Direct, &device())
                    .unwrap()
                    .expect("feasible workload")
            })
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|t| t.join().unwrap()).collect();
    let (_, eager_best_ms, eager_fresh) = eager(&shape);
    for r in &results {
        assert_eq!(r.cost_ms.to_bits(), eager_best_ms.to_bits());
        assert_eq!(r.config, results[0].config);
    }
    let backend = SocketBackend::connect(&sock).unwrap();
    let snap = backend.stats().unwrap();
    assert_eq!(
        snap.snapshot.stats.inline_tuned + snap.snapshot.stats.background_tuned,
        1,
        "two clients, one tuning run"
    );
    assert_eq!(snap.snapshot.stats.fresh_measurements, eager_fresh, "no duplicate measurements");
    backend.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE 7 acceptance pin: histogram readouts fetched over the wire
/// equal the in-process registry. An embedded service runs a session;
/// its live `StatsReport` is pushed through the v3 codec and the
/// decoded metrics must match the registry snapshot field-for-field,
/// bucket-for-bucket.
#[test]
fn wire_stats_equal_in_process_registry() {
    use conv_iolb::service::wire;
    use conv_iolb::service::TuningService;

    let config = ServiceConfig {
        budget_per_workload: BUDGET,
        workers: 0,
        speculate_neighbors: false,
        seed: TUNER_SEED,
        ..ServiceConfig::default()
    };
    let service = TuningService::new(ShardedStore::new(), config);
    let session = service.submit_batch(&requests(), &device()).unwrap();
    let results = session.wait();
    assert_eq!(results.len(), 5);

    let report = Backend::stats(&service).unwrap();
    let session_us = report.metrics.histogram("iolb_session_us").expect("session latency recorded");
    assert_eq!(session_us.count(), 1, "one session ran");
    assert_eq!(report.metrics.counter("iolb_sessions_total"), Some(1));

    let response = Response::Stats { metrics: report.metrics.clone() };
    let (mut frame, mut scratch) = (Vec::new(), wire::Scratch::default());
    wire::write_response(&mut frame, &response, &mut scratch).unwrap();
    let mut cursor = std::io::Cursor::new(frame);
    match wire::read_response(&mut cursor, &mut scratch).unwrap() {
        Response::Stats { metrics } => {
            let snapshot = conv_iolb::service::ServiceSnapshot::from_metrics(&metrics);
            assert_eq!(snapshot, report.snapshot, "snapshot survives the wire");
            assert_eq!(metrics, report.metrics, "registry survives the wire exactly");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// Drives a session mix — exact hit, speculated-neighbor hit, inline
/// tune, anchored hit, fused chain — through `backend`, then checks that
/// every `ServiceStats` field of the typed view equals the counter the
/// one table names for it in the scraped registry, and that the scrape
/// page prints it.
fn assert_view_agrees_with_registry(service: &TuningService, backend: &impl Backend) {
    let layer = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
    service.register_network(&layer, &device());
    service.drain();
    let serve = |request: TuneRequest| {
        let mut results = backend.submit_batch(&[request], &device()).unwrap().wait().unwrap();
        results.pop().unwrap().expect("feasible workload")
    };
    let bare = |shape| TuneRequest::bare(shape, TileKind::Direct);
    assert_eq!(serve(bare(layer)).source, ServeSource::ShardHit);
    // The cin-halved neighbor was tuned speculatively: a shard hit.
    assert_eq!(serve(bare(ConvShape { cin: 16, ..layer })).source, ServeSource::ShardHit);
    let warm = ConvShape::new(32, 56, 56, 16, 1, 1, 1, 0);
    assert!(matches!(serve(bare(warm)).source, ServeSource::Inline { .. }));
    // 52 and 56 share an anchor bucket: served by transfer.
    let jittered = ConvShape::new(32, 52, 52, 16, 1, 1, 1, 0);
    assert_eq!(serve(bare(jittered)).source, ServeSource::Anchored { retune: false });
    let chain = TuneRequest::fused(layer, TileKind::Direct, conv_iolb::core::Epilogue::Relu);
    assert!(serve(chain).fused);

    let report = backend.stats().unwrap();
    let stats = report.snapshot.stats;
    assert!(stats.shard_hits >= 2 && stats.inline_tuned >= 2, "mix incomplete: {stats:?}");
    assert_eq!((stats.anchored_hits, stats.fused_blocks), (1, 1));
    let page = report.metrics.to_prometheus();
    let check = |name: &str, value: u64| {
        assert_eq!(report.metrics.counter(name).unwrap_or(0), value, "{name} disagrees");
        if value > 0 {
            assert!(page.contains(&format!("\n{name} {value}\n")), "{name} not on the page");
        } else {
            assert_eq!(report.metrics.counter(name), None, "{name} was never bumped");
        }
    };
    let cells = stats.counters();
    assert_eq!(cells.len(), 21, "every field is walked");
    for (name, value) in &cells {
        check(name, *value);
    }
}

/// ISSUE 13 agreement pin: the numbers tests assert on are the numbers
/// operators scrape — embedded and through a live daemon.
#[test]
fn typed_stats_view_equals_the_scraped_counters() {
    let config = ServiceConfig {
        speculate_neighbors: true,
        transfer_gap_permille: 1_000_000, // every in-bucket transfer is admissible
        ..daemon_config().service
    };
    let embedded = TuningService::new(ShardedStore::new(), config);
    assert_view_agrees_with_registry(&embedded, &embedded);

    let dir = temp_dir("agree");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-agree-{}.sock", unique_tag()));
    let (daemon, _) =
        Daemon::bind(&dir, &sock, DaemonConfig { service: config, ..daemon_config() }).unwrap();
    let service = daemon.service().clone();
    let server = std::thread::spawn(move || daemon.run().unwrap());
    let backend = SocketBackend::connect(&sock).unwrap();
    assert_view_agrees_with_registry(&service, &backend);
    backend.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// AlexNet + SqueezeNet segmented into conv→relu(→pool) blocks, the
/// block batch served through `backend` per-layer and then as fused
/// chains on the store the first pass warmed. Returns the fused plan's
/// total modeled cost (fused cost for gate-approved chains, bare conv +
/// unfused epilogue for fallbacks; layer repeats multiply) after checking
/// that it undercuts the per-layer plan, that every chain is accounted
/// fused or fallback, and that a gate-rejected chain resolves from the
/// per-layer pass's records with zero fresh measurements.
fn fused_plan_total_ms(backend: &impl Backend) -> f64 {
    let blocks: Vec<_> = [models::alexnet(), models::squeezenet()]
        .iter()
        .flat_map(|net| fusion::segment(&fusion::op_stream(net)))
        .filter_map(|block| Some((block.conv?, block.epilogue)))
        .collect();
    let serve = |requests: Vec<TuneRequest>| {
        backend.submit_batch(&requests, &device()).unwrap().wait().unwrap()
    };
    let bare = serve(
        blocks.iter().map(|(layer, _)| TuneRequest::bare(layer.shape, TileKind::Direct)).collect(),
    );
    let fused = serve(
        blocks
            .iter()
            .map(|(layer, epilogue)| TuneRequest::fused(layer.shape, TileKind::Direct, *epilogue))
            .collect(),
    );
    let (mut perlayer_ms, mut fused_ms) = (0.0, 0.0);
    let mut chains = std::collections::BTreeSet::new();
    for ((layer, epilogue), (bare, fused)) in blocks.iter().zip(bare.iter().zip(&fused)) {
        let bare = bare.as_ref().expect("feasible layer");
        let fused = fused.as_ref().expect("feasible chain");
        let (repeat, epilogue_ms) =
            (layer.repeat as f64, epilogue_unfused_ms(&layer.shape, *epilogue, &device()));
        perlayer_ms += repeat * (bare.cost_ms + epilogue_ms);
        fused_ms += repeat * if fused.fused { fused.cost_ms } else { fused.cost_ms + epilogue_ms };
        assert!(!epilogue.is_none(), "every zoo conv carries at least its relu");
        chains.insert(format!("{} {epilogue}", layer.shape));
        if !fused.fused {
            assert_eq!(fused.source, ServeSource::ShardHit, "{}: fallback re-tuned", layer.name);
            assert_eq!(fused.fresh_measurements, 0, "{}: fallback measured", layer.name);
        }
    }
    let stats = backend.stats().unwrap().snapshot.stats;
    assert!(stats.fused_blocks > 0, "the gate fused nothing");
    assert_eq!(stats.fused_blocks + stats.fusion_fallbacks, chains.len());
    assert!(fused_ms < perlayer_ms, "fused plan {fused_ms} ms vs per-layer {perlayer_ms} ms");
    fused_ms
}

/// Whole-network fused serving: the fused plan beats the per-layer plan
/// and costs the same bits embedded and over the socket (wire `epi` /
/// `fused` grammar).
#[test]
fn fused_network_plan_beats_per_layer_and_is_bit_identical_over_the_socket() {
    let service = ServiceConfig { budget_per_workload: 4, ..daemon_config().service };
    let embedded = fused_plan_total_ms(&TuningService::new(ShardedStore::new(), service));

    let dir = temp_dir("fuse");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-fuse-{}.sock", unique_tag()));
    let (daemon, _) =
        Daemon::bind(&dir, &sock, DaemonConfig { service, ..daemon_config() }).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());
    let backend = SocketBackend::connect(&sock).unwrap();
    let served = fused_plan_total_ms(&backend);
    backend.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(embedded.to_bits(), served.to_bits(), "fused serving is not hermetic");
}

/// ISSUE 13 satellite: connections are capped, and the cap refuses by
/// typed error instead of queueing. `MAX_CONNECTIONS` clients are
/// served; one more gets `BackendError::Remote` naming the cap within a
/// second; once a served client closes, the extra one is served too.
#[test]
fn connections_over_the_cap_are_refused_not_queued() {
    let dir = temp_dir("cap");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-cap-{}.sock", unique_tag()));
    let (daemon, _) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());
    let mut served: Vec<SocketBackend> = (0..MAX_CONNECTIONS)
        .map(|i| {
            let client = SocketBackend::connect(&sock).unwrap();
            client.stats().unwrap_or_else(|e| panic!("connection {i} under the cap: {e}"));
            client
        })
        .collect();
    let asked = std::time::Instant::now();
    let extra = SocketBackend::connect(&sock).unwrap();
    match extra.stats() {
        Err(BackendError::Remote(message)) => {
            assert!(message.contains(&MAX_CONNECTIONS.to_string()), "cap not named: {message}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert!(asked.elapsed() < Duration::from_secs(1), "refusal took {:?}", asked.elapsed());
    // A served client leaves; the daemon notices the EOF and frees its slot.
    drop(served.pop());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let admitted = loop {
        let client = SocketBackend::connect(&sock).unwrap();
        match client.stats() {
            Ok(_) => break client,
            Err(BackendError::Remote(_)) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("never admitted after a slot freed: {e}"),
        }
    };
    drop(served);
    admitted.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request framed by hand — 4-byte big-endian length, then the payload —
/// so the connection tests below can send part of one and stop.
fn framed(request: &Request) -> Vec<u8> {
    let payload = conv_iolb::service::wire::encode_request(request);
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Reads one reply frame by hand off a raw connection.
fn read_reply(stream: &mut UnixStream) -> Response {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("reply prefix");
    let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    let text = std::str::from_utf8(&payload).expect("replies are UTF-8");
    conv_iolb::service::wire::decode_response(text).expect("a well-formed reply")
}

/// A raw client connection that gives up on a silent daemon after 5 s.
fn raw_client(sock: &PathBuf) -> UnixStream {
    let stream = UnixStream::connect(sock).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
}

/// A connection that sends nothing is dropped once `idle_timeout` runs
/// out, the drop is counted, and its slot under `MAX_CONNECTIONS` comes
/// back: a full cap of new clients is served after it.
#[test]
fn an_idle_client_is_evicted_and_its_slot_comes_back() {
    let dir = temp_dir("idle");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-idle-{}.sock", unique_tag()));
    let idle_timeout = Duration::from_millis(500);
    let (daemon, _) =
        Daemon::bind(&dir, &sock, DaemonConfig { idle_timeout, ..daemon_config() }).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let mut idle = raw_client(&sock);
    let connected = Instant::now();
    assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0, "the daemon closes an idle connection");
    let waited = connected.elapsed();
    assert!(waited >= idle_timeout && waited < Duration::from_secs(5), "evicted after {waited:?}");

    let probe = SocketBackend::connect(&sock).unwrap();
    let metrics = probe.stats().unwrap().metrics;
    assert_eq!(metrics.counter("iolb_daemon_idle_evictions_total"), Some(1));
    let mut served = vec![probe];
    for i in 1..MAX_CONNECTIONS {
        let client = SocketBackend::connect(&sock).unwrap();
        client.stats().unwrap_or_else(|e| panic!("connection {i} under the cap: {e}"));
        served.push(client);
    }
    drop(served);
    SocketBackend::connect(&sock).unwrap().shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A length prefix that arrives in two halves, more than two idle ticks
/// apart, still frames the request that follows it.
#[test]
fn a_length_prefix_split_across_idle_ticks_is_answered() {
    let dir = temp_dir("split");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-split-{}.sock", unique_tag()));
    let (daemon, _) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let mut raw = raw_client(&sock);
    let frame = framed(&Request::Stats);
    raw.write_all(&frame[..2]).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    raw.write_all(&frame[2..]).unwrap();
    match read_reply(&mut raw) {
        Response::Stats { metrics } => {
            assert_eq!(metrics.counter("iolb_daemon_connections_total"), Some(1))
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(raw);
    SocketBackend::connect(&sock).unwrap().shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clients stalled halfway through a length prefix and halfway through a
/// payload do not hold up shutdown: `run()` returns within 2 s of `Shutdown`.
#[test]
fn shutdown_is_not_held_up_by_half_sent_frames() {
    let dir = temp_dir("halfsent");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-halfsent-{}.sock", unique_tag()));
    let (daemon, _) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let frame = framed(&Request::Submit { device: device(), requests: requests() });
    let picked_up_by = Instant::now() + Duration::from_secs(10);
    let mut half_prefix = raw_client(&sock);
    half_prefix.write_all(&frame[..2]).unwrap();
    let mut half_payload = raw_client(&sock);
    half_payload.write_all(&frame[..4 + (frame.len() - 4) / 2]).unwrap();
    // Both stalled clients are being served before the shutdown arrives.
    let control = SocketBackend::connect(&sock).unwrap();
    let started =
        |c: &SocketBackend| c.stats().unwrap().metrics.counter("iolb_daemon_connections_total");
    while started(&control) != Some(3) {
        assert!(Instant::now() < picked_up_by, "the stalled clients were never picked up");
        std::thread::sleep(Duration::from_millis(10));
    }

    control.shutdown().unwrap();
    let asked = Instant::now();
    while !server.is_finished() {
        assert!(asked.elapsed() < Duration::from_secs(2), "run() still draining after 2 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.join().unwrap();
    drop((half_prefix, half_payload));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame whose payload is not UTF-8 is answered with a typed `Error`,
/// and then the daemon hangs up.
#[test]
fn a_payload_that_is_not_utf8_gets_a_typed_error_then_eof() {
    let dir = temp_dir("utf8");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-utf8-{}.sock", unique_tag()));
    let (daemon, _) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let mut raw = raw_client(&sock);
    raw.write_all(&[0, 0, 0, 4, 0xff, 0xfe, 0xfd, 0xfc]).unwrap();
    match read_reply(&mut raw) {
        Response::Error { message } => assert!(message.contains("UTF-8"), "{message}"),
        other => panic!("expected a typed Error, got {other:?}"),
    }
    assert_eq!(raw.read(&mut [0u8; 1]).unwrap(), 0, "the daemon hangs up after the error");
    drop(raw);
    SocketBackend::connect(&sock).unwrap().shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reply over the frame cap is refused with a typed error and the
/// connection stays up: a `Pull` of a store that encodes past
/// `MAX_FRAME_BYTES` returns `Remote` naming the cap, and the same client
/// is served next.
#[test]
fn an_oversized_pull_is_refused_and_the_connection_kept() {
    use conv_iolb::dataflow::config::ScheduleConfig;
    use conv_iolb::records::{TuningRecord, Workload};
    use conv_iolb::service::wire;
    use conv_iolb::service::MAX_FRAME_BYTES;
    use conv_iolb::tensor::layout::Layout;

    let dir = temp_dir("bigpull");
    let sock = std::env::temp_dir().join(format!("iolb-daemon-bigpull-{}.sock", unique_tag()));
    let config = ScheduleConfig {
        x: 7,
        y: 14,
        z: 8,
        nxt: 7,
        nyt: 2,
        nzt: 4,
        sb_bytes: 16 * 1024,
        layout: Layout::Chw,
    };
    let mut store = ShardedStore::new();
    for cin in 1..=6000 {
        let shape = ConvShape::new(cin, 14, 14, 16, 1, 1, 1, 0);
        let workload = Workload::new(shape, TileKind::Direct, device().name, device().smem_per_sm);
        store.insert(TuningRecord::new(workload, config, 1.0 + cin as f64 / 7.0, 7).unwrap());
    }
    let state = wire::encode_response(&Response::State { store: Box::new(store.clone()) });
    assert!(state.len() > MAX_FRAME_BYTES, "premise: the store must encode past the cap");
    store.save(&dir).unwrap();
    let (daemon, report) = Daemon::bind(&dir, &sock, daemon_config()).unwrap();
    assert!(report.is_clean(), "warnings: {:?}", report.warnings);
    let server = std::thread::spawn(move || daemon.run().unwrap());

    let backend = SocketBackend::connect(&sock).unwrap();
    match backend.pull().map(|store| store.len()) {
        Err(BackendError::Remote(message)) => {
            assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "cap not named: {message}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    backend.stats().expect("the same connection is served after the refusal");
    backend.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
