//! `tune-cache` — the operator's CLI over `iolb-service` shard
//! directories: run, stop and query the resident daemon, tune a network
//! in one session, and evict an over-grown directory offline.
//!
//! ```console
//! $ tune-cache serve DIR [--tcp HOST:PORT] ...   # resident shard-server daemon
//! $ tune-cache stop SOCK|tcp:HOST:PORT           # persist and exit
//! $ tune-cache tune-net NET (-o DIR | --daemon SOCK | --fleet PEERS)
//! $ tune-cache metrics DIR|SOCK|tcp:HOST:PORT    # Prometheus-style exposition
//! $ tune-cache serve-stats DIR [--json]          # manifest, LRU, per-device summary
//! $ tune-cache evict DIR --max-records N [--top-k K]
//! ```
//!
//! Everything else the store needs the daemon does live: it merges with
//! `absorb`, evicts on `--evict-max-records`, and reports through
//! `serve-stats`/`metrics`. `evict DIR` is the recovery path for a
//! directory no daemon holds (docs/OPERATIONS.md §3). Every verb is
//! exercised by the cargo tests under `crates/bench/tests/`.

use iolb_bench::{flag_path, flag_string, flag_strings, flag_value};
use iolb_cnn::inference::{time_network_with_backend, time_network_with_service};
use iolb_cnn::layers::{ConvLayer, Network};
use iolb_cnn::{NetworkTime, ServiceEconomics};
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;
use iolb_service::{
    load_sidecar, Backend, Daemon, DaemonConfig, DirLock, EvictionPolicy, FleetRouter, PeerAddr,
    ServiceConfig, ServiceSnapshot, ShardedStore, SocketBackend, TuningService, LOCK_TIMEOUT,
    SOCKET_FILE,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tune-cache <serve|stop|tune-net|metrics|serve-stats|evict> [args]\n\
         \n\
         serve-stats <DIR> [--json]         manifest, LRU, per-device shard summary and the\n\
         \u{20}                                  service stats sidecar (queue depth, budget,\n\
         \u{20}                                  service counters); --json emits the sidecar\n\
         \u{20}                                  as one flat JSON object instead\n\
         metrics <DIR|SOCK|tcp:HOST:PORT>   Prometheus-style text exposition: from a live\n\
         \u{20}                                  daemon (socket/TCP, including latency\n\
         \u{20}                                  histograms) or a directory's stats sidecar\n\
         tune-net <network|--layers SPEC> (-o DIR | --daemon SOCK | --fleet PEERS) [--json]\n\
         \u{20}                                  [--budget N] [--seed N] [--workers N]\n\
         \u{20}                                  batch-tune a whole network in one session. With\n\
         \u{20}                                  -o DIR, tune embedded and merge the records into\n\
         \u{20}                                  DIR under its advisory lock (multi-process safe);\n\
         \u{20}                                  with --daemon SOCK, send the session to a resident\n\
         \u{20}                                  shard server (budget/seed/workers are then the\n\
         \u{20}                                  daemon's); with --fleet PEERS (comma-separated\n\
         \u{20}                                  tcp:HOST:PORT / unix:PATH specs, flag repeatable),\n\
         \u{20}                                  consistent-hash the session across N daemons and\n\
         \u{20}                                  fail over if one dies. <network> is a model name\n\
         \u{20}                                  (alexnet, vgg-19, ...); SPEC is layers as\n\
         \u{20}                                  cin,hin,win,cout,kh,kw,stride,pad;...\n\
         \u{20}                                  --json replaces the human summary with one flat\n\
         \u{20}                                  JSON object (per-layer costs, economics, peers)\n\
         serve   <DIR> [--socket PATH] [--tcp HOST:PORT] [--budget N] [--seed N]\n\
         \u{20}                                  [--workers N] [--merge-interval-ms N]\n\
         \u{20}                                  [--idle-timeout SECS] [--peer SPEC]...\n\
         \u{20}                                  [--peer-sync-ms N] [--anchor-floor N]\n\
         \u{20}                                  [--transfer-gap-permille N]\n\
         \u{20}                                  [--evict-max-records N] [--evict-top-k K]\n\
         \u{20}                                  run a resident shard-server daemon: hold DIR's\n\
         \u{20}                                  lock for the daemon's lifetime, serve sessions on\n\
         \u{20}                                  PATH (default DIR/daemon.sock) and optionally on\n\
         \u{20}                                  TCP (port 0 picks a free port, printed at start),\n\
         \u{20}                                  batch persistence on the merge interval, drop idle\n\
         \u{20}                                  connections, anti-entropy-pull every --peer\n\
         \u{20}                                  daemon on the sync interval (default 5000 ms),\n\
         \u{20}                                  and (with --evict-max-records) trim the store to\n\
         \u{20}                                  N records on each persister tick, coldest\n\
         \u{20}                                  workload first, keeping K best records per\n\
         \u{20}                                  trimmed workload (best-cost never evicted)\n\
         stop    <SOCK|tcp:HOST:PORT>       ask the daemon there to persist and exit\n\
         evict   <DIR> --max-records N [--top-k K]\n\
         \u{20}                                  LRU-evict cold workloads down to their K best\n\
         \u{20}                                  (never dropping a workload's best record), under\n\
         \u{20}                                  DIR's lock: the offline recovery path when no\n\
         \u{20}                                  daemon holds DIR. Refuses, changing nothing, if\n\
         \u{20}                                  a shard the manifest lists is unreadable\n\
         \n\
         every directory-locking command also takes --lock-timeout SECS\n\
         (default 30): how long to wait for the advisory lock before\n\
         failing with a typed timeout. A numeric flag given a value that\n\
         is not a non-negative integer exits 2 naming the flag"
    );
    ExitCode::from(2)
}

/// The `--lock-timeout SECS` flag (default [`LOCK_TIMEOUT`]).
fn lock_timeout_flag(args: &[String]) -> Duration {
    flag_value(args, "--lock-timeout")
        .map(|s| Duration::from_secs(s as u64))
        .unwrap_or(LOCK_TIMEOUT)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match (cmd.as_str(), &args[1..]) {
        ("evict", [dir, rest @ ..]) => {
            let Some(max_records) = flag_value(rest, "--max-records") else {
                eprintln!("evict requires --max-records N");
                return ExitCode::from(2);
            };
            let top_k = flag_value(rest, "--top-k").unwrap_or(EvictionPolicy::default().top_k);
            evict(Path::new(dir), EvictionPolicy { max_records, top_k }, lock_timeout_flag(rest))
        }
        ("serve-stats", [dir, rest @ ..]) => {
            serve_stats(Path::new(dir), rest.iter().any(|a| a == "--json"))
        }
        ("metrics", [target]) => metrics_cmd(target),
        ("serve", [dir, rest @ ..]) => {
            let socket =
                flag_path(rest, "--socket").unwrap_or_else(|| Path::new(dir).join(SOCKET_FILE));
            let config = DaemonConfig {
                service: ServiceConfig {
                    budget_per_workload: flag_value(rest, "--budget").unwrap_or(16),
                    seed: flag_value(rest, "--seed").unwrap_or(7) as u64,
                    workers: flag_value(rest, "--workers")
                        .unwrap_or(ServiceConfig::default().workers),
                    speculate_neighbors: false, // serve exactly what clients ask
                    lock_timeout: lock_timeout_flag(rest),
                    anchor_floor: flag_value(rest, "--anchor-floor")
                        .unwrap_or(ServiceConfig::default().anchor_floor),
                    transfer_gap_permille: flag_value(rest, "--transfer-gap-permille")
                        .map(|v| v as u32)
                        .unwrap_or(ServiceConfig::default().transfer_gap_permille),
                    ..ServiceConfig::default()
                },
                merge_interval: Duration::from_millis(
                    flag_value(rest, "--merge-interval-ms").unwrap_or(1000) as u64,
                ),
                idle_timeout: Duration::from_secs(
                    flag_value(rest, "--idle-timeout").unwrap_or(30) as u64
                ),
                tcp: flag_string(rest, "--tcp"),
                peers: flag_strings(rest, "--peer").iter().map(|s| PeerAddr::parse(s)).collect(),
                peer_sync_interval: Duration::from_millis(
                    flag_value(rest, "--peer-sync-ms").unwrap_or(5000) as u64,
                ),
                evict: flag_value(rest, "--evict-max-records").map(|max_records| EvictionPolicy {
                    max_records,
                    top_k: flag_value(rest, "--evict-top-k")
                        .unwrap_or(EvictionPolicy::default().top_k),
                }),
            };
            serve(Path::new(dir), &socket, config)
        }
        ("stop", [spec]) => stop(spec),
        ("tune-net", [target, rest @ ..]) => {
            let daemon = flag_path(rest, "--daemon");
            let out = flag_path(rest, "-o");
            let fleet: Vec<String> = flag_strings(rest, "--fleet")
                .iter()
                .flat_map(|group| group.split(','))
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if daemon.is_none() && out.is_none() && fleet.is_empty() {
                eprintln!(
                    "tune-net requires -o DIR (embedded; merge into the shard directory), \
                     --daemon SOCK (send the session to a resident daemon), \
                     or --fleet PEERS (route it across a daemon fleet)"
                );
                return ExitCode::from(2);
            }
            let layers = if target == "--layers" {
                match rest.first().map(String::as_str).map(parse_layers) {
                    Some(Ok(layers)) => layers,
                    Some(Err(e)) => {
                        eprintln!("error: bad --layers spec: {e}");
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("--layers requires a spec argument");
                        return ExitCode::from(2);
                    }
                }
            } else {
                match named_network_layers(target) {
                    Some(layers) => layers,
                    None => {
                        eprintln!(
                            "error: unknown network {target:?}; known: {}",
                            iolb_cnn::models::all_networks()
                                .iter()
                                .map(|n| n.name.to_ascii_lowercase())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            };
            let json = rest.iter().any(|a| a == "--json");
            if !fleet.is_empty() {
                let router = FleetRouter::from_specs(&fleet);
                let peers = || Some((router.live_peers(), router.peers().len()));
                return tune_net_remote(layers, "fleet", &router, peers, json);
            }
            if let Some(socket) = daemon {
                return match SocketBackend::connect(&socket) {
                    Ok(backend) => tune_net_remote(layers, "daemon", &backend, || None, json),
                    Err(e) => {
                        eprintln!(
                            "error: cannot connect to daemon socket {} \
                             (is `tune-cache serve` running?): {e}",
                            socket.display()
                        );
                        ExitCode::FAILURE
                    }
                };
            }
            let budget = flag_value(rest, "--budget").unwrap_or(16);
            let seed = flag_value(rest, "--seed").unwrap_or(7) as u64;
            let workers = flag_value(rest, "--workers").unwrap_or(0);
            tune_net(
                layers,
                &out.expect("checked above"),
                budget,
                seed,
                workers,
                lock_timeout_flag(rest),
                json,
            )
        }
        _ => usage(),
    }
}

/// Parses a compact layer spec: `cin,hin,win,cout,kh,kw,stride,pad`
/// groups separated by `;`. Repeated groups are allowed (and exercised
/// by the session's dedup).
fn parse_layers(spec: &str) -> Result<Vec<ConvShape>, String> {
    let mut layers = Vec::new();
    for (i, group) in spec.split(';').filter(|g| !g.trim().is_empty()).enumerate() {
        let fields: Vec<usize> = group
            .split(',')
            .map(|f| f.trim().parse::<usize>().map_err(|e| format!("layer {i}: {e}")))
            .collect::<Result<_, _>>()?;
        let [cin, hin, win, cout, kh, kw, stride, pad] = fields.as_slice() else {
            return Err(format!("layer {i}: expected 8 fields, got {}", fields.len()));
        };
        let shape = ConvShape::new(*cin, *hin, *win, *cout, *kh, *kw, *stride, *pad);
        shape.validate().map_err(|e| format!("layer {i}: {e}"))?;
        layers.push(shape);
    }
    if layers.is_empty() {
        return Err("no layers in spec".to_string());
    }
    Ok(layers)
}

/// The conv layers of a named model (case-insensitive).
fn named_network_layers(name: &str) -> Option<Vec<ConvShape>> {
    let wanted = name.to_ascii_lowercase();
    iolb_cnn::models::all_networks()
        .into_iter()
        .find(|n| n.name.to_ascii_lowercase() == wanted)
        .map(|n| n.layers.iter().map(|l| l.shape).collect())
}

/// Builds the throwaway network a `tune-net` layer spec describes.
fn spec_network(layers: &[ConvShape]) -> Network {
    Network {
        name: "tune-net",
        layers: layers
            .iter()
            .enumerate()
            .map(|(i, &shape)| ConvLayer::new(format!("layer{i}"), shape))
            .collect(),
    }
}

/// The session summary every `tune-net` mode prints (the process tests
/// look for "0 fresh measurement(s)" on replay and compare the per-layer
/// lines across modes, so all modes must emit the identical shape).
fn print_session_summary(net: &Network, timed: &NetworkTime, eco: &ServiceEconomics) {
    println!(
        "tuned {} layer(s) in one session: {:.6} ms total ({} deduped, {} hit(s), \
         {} anchored ({} re-tune(s)), {} stolen, {} tuned inline, {} fresh measurement(s), \
         {} cache hit(s))",
        net.layers.len(),
        timed.ours_ms,
        eco.deduped,
        eco.shard_hits,
        eco.anchored,
        eco.transfer_retunes,
        eco.stolen,
        eco.inline_tuned,
        eco.fresh_measurements,
        eco.cache_hits
    );
    for layer in &timed.layers {
        println!("  {:>10.6} ms  {:<14} {}", layer.ours_ms, layer.algorithm, layer.name);
    }
}

/// The `tune-net --json` end-of-run summary: one flat JSON object (the
/// record codec's dialect, so `FlatObject` reads it back).
fn print_session_json(
    mode: &str,
    net: &Network,
    timed: &NetworkTime,
    eco: &ServiceEconomics,
    peers: Option<(usize, usize)>,
) {
    let answered = eco.shard_hits + eco.anchored + eco.stolen + eco.inline_tuned;
    let hit_rate = if answered == 0 { 0.0 } else { eco.shard_hits as f64 / answered as f64 };
    let anchored_rate = if answered == 0 { 0.0 } else { eco.anchored as f64 / answered as f64 };
    let layer_ms: Vec<String> = timed
        .layers
        .iter()
        .map(|l| format!("{}={}", l.name.replace(['=', ';'], "_"), l.ours_ms))
        .collect();
    let mut line = format!(
        "{{\"schema\":\"iolb-tune-net\",\"v\":2,\"mode\":\"{}\",\"network\":\"{}\",\
         \"layers\":{},\"requests\":{},\"total_ms\":{},\"fresh\":{},\"hit_rate\":{},\
         \"anchored_hit_rate\":{},\"hits\":{},\"anchored\":{},\"retunes\":{},\"stolen\":{},\
         \"inline\":{},\"deduped\":{},\"cache_hits\":{}",
        iolb_records::jsonl::escape(mode),
        iolb_records::jsonl::escape(net.name),
        net.layers.len(),
        answered,
        timed.ours_ms,
        eco.fresh_measurements,
        hit_rate,
        anchored_rate,
        eco.shard_hits,
        eco.anchored,
        eco.transfer_retunes,
        eco.stolen,
        eco.inline_tuned,
        eco.deduped,
        eco.cache_hits,
    );
    if let Some((live, total)) = peers {
        line.push_str(&format!(",\"peers_live\":{live},\"peers_total\":{total}"));
    }
    line.push_str(&format!(
        ",\"layer_ms\":\"{}\"}}",
        iolb_records::jsonl::escape(&layer_ms.join(";"))
    ));
    println!("{line}");
}

/// Batch-tunes a whole network through one tuning session and merges
/// the records into the shard directory under its advisory lock — the
/// CLI face of the multi-process protocol: any number of `tune-net`
/// processes may target the same directory concurrently and the result
/// is the union of their records.
fn tune_net(
    layers: Vec<ConvShape>,
    dir: &Path,
    budget: usize,
    seed: u64,
    workers: usize,
    lock_timeout: Duration,
    json: bool,
) -> ExitCode {
    let device = DeviceSpec::v100();
    let config = ServiceConfig {
        budget_per_workload: budget,
        workers,
        speculate_neighbors: false, // tune exactly what was asked
        lock_timeout,
        seed,
        ..ServiceConfig::default()
    };
    // Load whatever the directory already holds: overlapping layers
    // replay instead of re-tuning (runs are hermetic, so a replayed and
    // a re-tuned config are bit-identical anyway).
    let (service, report) = match TuningService::open(dir, config) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: cannot open shard directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    let net = spec_network(&layers);
    let (timed, eco) = time_network_with_service(&net, &device, &service);
    if json {
        print_session_json("embedded", &net, &timed, &eco, None);
    } else {
        print_session_summary(&net, &timed, &eco);
    }
    match service.sync_dir(dir) {
        Ok(merge) => {
            if !json {
                println!(
                    "merged into {}: {} new record(s), {} total",
                    dir.display(),
                    merge.inserted,
                    merge.total
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot merge into {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

/// `tune-net --daemon` / `--fleet`: the same session, served by a
/// resident shard server over its socket or consistent-hash-routed
/// across a fleet of them (a daemon that dies mid-session has its slice
/// re-routed to the survivors). Budget, seed and workers are the
/// daemons' (server-side state — that is what makes every client's
/// results bit-identical to an embedded run); the client only names
/// workloads. `peers` reports `(live, configured)` for a fleet.
fn tune_net_remote<B: Backend>(
    layers: Vec<ConvShape>,
    mode: &str,
    backend: &B,
    peers: impl Fn() -> Option<(usize, usize)>,
    json: bool,
) -> ExitCode {
    let device = DeviceSpec::v100();
    let net = spec_network(&layers);
    let (timed, eco) = match time_network_with_backend(&net, &device, backend) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {mode} session failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print_session_json(mode, &net, &timed, &eco, peers());
    } else {
        print_session_summary(&net, &timed, &eco);
    }
    match backend.sync() {
        Ok(sync) => {
            if !json {
                match peers() {
                    None => println!("daemon persisted: {} record(s) total", sync.total),
                    Some((live, total)) => println!(
                        "fleet persisted: {} record(s) total across {live} of {total} peer(s){}",
                        sync.total,
                        if sync.persisted {
                            ""
                        } else {
                            " (some peers unreachable or flush failed)"
                        }
                    ),
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {mode} sync failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `serve`: run the resident shard-server daemon in the foreground
/// until a client sends shutdown (`tune-cache stop SOCK`).
fn serve(dir: &Path, socket: &Path, config: DaemonConfig) -> ExitCode {
    let (daemon, report) = match Daemon::bind(dir, socket, config.clone()) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: cannot start daemon over {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    println!(
        "serving {} on {} ({} record(s) loaded; budget {}, seed {}, workers {}, \
         merge interval {} ms); stop with `tune-cache stop {}`",
        dir.display(),
        socket.display(),
        report.loaded,
        config.service.budget_per_workload,
        config.service.seed,
        config.service.workers,
        config.merge_interval.as_millis(),
        socket.display()
    );
    // The actual port matters when the config said `:0`; fleet tests
    // parse this line to learn where the daemon really listens.
    if let Some(addr) = daemon.tcp_addr() {
        println!("listening on tcp {addr}");
    }
    for peer in &config.peers {
        println!(
            "anti-entropy peer {peer} (pull every {} ms)",
            config.peer_sync_interval.as_millis()
        );
    }
    match daemon.run() {
        Ok(()) => {
            println!("daemon shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: daemon failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `stop`: ask the daemon — on a Unix socket or a TCP address — to
/// persist and exit.
fn stop(spec: &str) -> ExitCode {
    let addr = PeerAddr::parse(spec);
    let outcome = addr
        .connect()
        .map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))
        .and_then(|c| c.shutdown().map_err(|e| format!("shutdown request failed: {e}")));
    match outcome {
        Ok(()) => {
            println!("daemon at {addr} is shutting down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `metrics`: Prometheus-style text exposition of one registry
/// snapshot. A directory target reads the offline stats sidecar (the
/// persisted service counters and the two gauges — histograms and the
/// daemon's own counters live in the serving process); a socket or
/// `tcp:HOST:PORT` target asks the live daemon for its whole registry.
fn metrics_cmd(target: &str) -> ExitCode {
    let path = Path::new(target);
    let metrics = if path.is_dir() {
        match load_sidecar(path) {
            Ok(Some(metrics)) => Ok(metrics),
            Ok(None) => Err(format!(
                "{} has no stats sidecar (written by save/sync/tune-net)",
                path.display()
            )),
            Err(e) => Err(format!("unreadable stats sidecar: {e}")),
        }
    } else {
        let addr = PeerAddr::parse(target);
        addr.connect()
            .map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))
            .and_then(|c| c.stats().map_err(|e| format!("stats request failed: {e}")))
            .map(|report| report.metrics)
    };
    match metrics {
        Ok(metrics) => {
            print!("{}", metrics.to_prometheus());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Loads a shard directory, printing the loader's warnings; exits 1 if
/// it cannot. A writer (`for_write`) also refuses a directory whose
/// manifest lists a shard it cannot read.
fn load_dir_or_exit(dir: &Path, for_write: bool) -> ShardedStore {
    let loaded =
        if for_write { ShardedStore::load_for_write(dir) } else { ShardedStore::load(dir) };
    match loaded {
        Ok((sharded, report)) => {
            for w in &report.warnings {
                eprintln!("warning: {w}");
            }
            sharded
        }
        Err(e) => {
            eprintln!("error: cannot load shard directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// Reports the service stats sidecar of a shard directory, if present —
/// the offline view of queue depth, remaining budget and the service
/// counters that used to be visible only in-process.
fn print_sidecar(dir: &Path) {
    match ServiceSnapshot::load(dir) {
        Ok(Some(snap)) => {
            let s = &snap.stats;
            println!(
                "service: queue depth {}, budget left {}, {} network(s) served \
                 ({} session(s), {} request(s), {} deduped)",
                snap.queue_len,
                snap.budget_left,
                s.networks_served,
                s.batch_groups,
                s.batch_requests,
                s.batch_deduped
            );
            println!(
                "serving: {} exact hit(s), {} anchored ({} re-tune(s)), {} stolen, {} inline, \
                 {} background, {} fresh measurement(s), {} cache hit(s), {} infeasible",
                s.shard_hits,
                s.anchored_hits,
                s.transfer_retunes,
                s.stolen,
                s.inline_tuned,
                s.background_tuned,
                s.fresh_measurements,
                s.cache_hits,
                s.infeasible
            );
        }
        Ok(None) => println!("service: no stats sidecar (written by save/sync/tune-net)"),
        Err(e) => eprintln!("warning: unreadable stats sidecar: {e}"),
    }
}

/// Applies the LRU eviction policy to a shard directory in place, under
/// its advisory [`DirLock`] so it can never interleave with (and lose) a
/// concurrent writer's records.
fn evict(dir: &Path, policy: EvictionPolicy, lock_timeout: Duration) -> ExitCode {
    if !dir.is_dir() {
        eprintln!("error: {} is not a shard directory", dir.display());
        return ExitCode::FAILURE;
    }
    let _lock = match DirLock::acquire(dir, lock_timeout) {
        Ok(lock) => lock,
        Err(e) => {
            eprintln!("error: cannot lock {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut sharded = load_dir_or_exit(dir, true);
    let before = sharded.len();
    let dropped = sharded.evict(&policy);
    if let Err(e) = sharded.save(dir) {
        eprintln!("error: cannot rewrite {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "evicted {}: dropped {dropped} of {before} record(s), kept {} (max {}, top-{} per cold workload)",
        dir.display(),
        sharded.len(),
        policy.max_records,
        policy.top_k
    );
    ExitCode::SUCCESS
}

/// Summarizes a service shard directory: manifest, per-device shards,
/// LRU temperature. With `json`, emits one flat JSON object (store
/// totals plus the stats sidecar) instead of the human report.
fn serve_stats(dir: &Path, json: bool) -> ExitCode {
    if !dir.is_dir() {
        eprintln!("error: {} is not a shard directory", dir.display());
        return ExitCode::FAILURE;
    }
    let sharded = load_dir_or_exit(dir, false);
    if json {
        let snap = match ServiceSnapshot::load(dir) {
            Ok(snap) => snap.unwrap_or_default(),
            Err(e) => {
                eprintln!("error: unreadable stats sidecar: {e}");
                return ExitCode::FAILURE;
            }
        };
        let s = &snap.stats;
        // v2 breaks serving out into exact vs anchored vs fresh: `hits`
        // stays the exact-fingerprint count, `anchored` the bucket
        // serves (with `retunes` the gate-failed subset), `fresh` the
        // measurement count — the three-way split the anchoring layer
        // introduces.
        println!(
            "{{\"schema\":\"iolb-serve-stats\",\"v\":2,\"shards\":{},\"workloads\":{},\
             \"records\":{},\"clock\":{},\"queue_len\":{},\"budget_left\":{},\
             \"networks_served\":{},\"sessions\":{},\"requests\":{},\"deduped\":{},\
             \"hits\":{},\"anchored\":{},\"retunes\":{},\"transfer_enqueued\":{},\
             \"stolen\":{},\"inline\":{},\"background\":{},\"fresh\":{},\
             \"cache_hits\":{},\"infeasible\":{}}}",
            sharded.shard_count(),
            sharded.workload_count(),
            sharded.len(),
            sharded.clock(),
            snap.queue_len,
            snap.budget_left,
            s.networks_served,
            s.batch_groups,
            s.batch_requests,
            s.batch_deduped,
            s.shard_hits,
            s.anchored_hits,
            s.transfer_retunes,
            s.transfer_enqueued,
            s.stolen,
            s.inline_tuned,
            s.background_tuned,
            s.fresh_measurements,
            s.cache_hits,
            s.infeasible,
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "{}: {} device shard(s), {} workload(s), {} record(s), clock {}",
        dir.display(),
        sharded.shard_count(),
        sharded.workload_count(),
        sharded.len(),
        sharded.clock()
    );
    print_sidecar(dir);
    for (key, shard) in sharded.shards() {
        println!(
            "device {key} ({}): {} workload(s), {} record(s), {} anchor bucket(s)",
            iolb_service::shard_file_name(key),
            shard.workload_count(),
            shard.len(),
            sharded.anchor_bucket_count(key)
        );
        for fp in shard.fingerprints() {
            let recs = shard.records(fp);
            let stamp = sharded.last_hit(fp);
            let heat =
                if stamp == 0 { "never hit".to_string() } else { format!("last hit @{stamp}") };
            println!(
                "  {:>5} record(s)  best {:.6} ms  {heat}  {fp}",
                recs.len(),
                recs.first().map_or(f64::NAN, |r| r.cost_ms)
            );
        }
    }
    ExitCode::SUCCESS
}
