//! `tune-cache` — inspect, verify, compact, merge, shard and evict
//! tuning-record stores (the operational face of `iolb-records` and
//! `iolb-service`).
//!
//! ```console
//! $ tune-cache stats   store.jsonl              # size / workload summary, per-device breakdown
//! $ tune-cache top     store.jsonl [--k N]      # best records per workload
//! $ tune-cache check   store.jsonl              # codec gate (CI): canonical + stable round-trip
//! $ tune-cache compact store.jsonl --keep N [-o out.jsonl]
//! $ tune-cache merge   -o out.jsonl a.jsonl b.jsonl [...]
//! $ tune-cache gen     store.jsonl              # deterministically tune two small layers into a store
//! $ tune-cache shard   store.jsonl -o shards/   # split into device shards (manifest + file per device)
//! $ tune-cache shard   shards/ -o store.jsonl   # cross-shard merge back into one flat store
//! $ tune-cache evict   shards/ --max-records N [--top-k K]
//! $ tune-cache serve-stats shards/              # manifest, LRU and per-device summary
//! ```
//!
//! `check` is wired into CI against a committed fixture store: it fails
//! (exit 1) if any line no longer parses, if the file is not in the
//! canonical serialization the current codec produces, or if
//! parse→serialize→parse→serialize is not byte-stable — i.e. any codec
//! regression that would corrupt or silently rewrite users' stores.
//! The `shard`/`evict`/`serve-stats` path is smoke-tested by CI too, so
//! the service's on-disk format cannot rot.

use iolb_bench::{
    flag_path, flag_string, flag_strings, flag_value, load_store_or_exit, run_tuner_with_store,
    save_store_or_exit, StoreMode, TunerKind,
};
use iolb_cnn::inference::{time_network_with_backend, time_network_with_service};
use iolb_cnn::layers::{ConvLayer, Network};
use iolb_cnn::{NetworkTime, ServiceEconomics};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;
use iolb_records::RecordStore;
use iolb_service::{
    load_sidecar, Backend, Daemon, DaemonConfig, DirLock, EvictionPolicy, FleetRouter, PeerAddr,
    PerturbationKind, ServiceConfig, ServiceSnapshot, ShardedStore, SocketBackend, TuningService,
    LOCK_TIMEOUT, SOCKET_FILE,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tune-cache <stats|top|check|compact|merge|gen|shard|evict|serve-stats|metrics|tune-net|serve|stop> [args]\n\
         \n\
         stats   <store>                    record/workload counts and cost ranges,\n\
         \u{20}                                  broken down per device (store may be a shard dir)\n\
         top     <store> [--k N]            best N records per workload (default 3)\n\
         check   <store>                    exit non-zero unless the store parses cleanly,\n\
         \u{20}                                  is canonical, and round-trips byte-identically\n\
         compact <store> --keep N [-o OUT]  keep only the N best records per workload\n\
         merge   -o OUT <in> [<in>...]      merge stores (best cost wins on duplicates)\n\
         gen     <store>                    generate a small deterministic store by tuning\n\
         \u{20}                                  two AlexNet-style layers (fixture/demo)\n\
         shard   <store.jsonl> -o DIR       split a flat store into device shards\n\
         shard   <DIR> -o OUT.jsonl         merge a shard directory back into a flat store\n\
         evict   <DIR|store> --max-records N [--top-k K]\n\
         \u{20}                                  LRU-evict cold workloads down to their K best\n\
         \u{20}                                  (never dropping a workload's best record;\n\
         \u{20}                                  shard dirs are locked against other writers)\n\
         serve-stats <DIR> [--json]         manifest, LRU, per-device shard summary and the\n\
         \u{20}                                  service stats sidecar (queue depth, budget,\n\
         \u{20}                                  speculation telemetry); --json emits the sidecar\n\
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
         \n\
         every directory-locking command also takes --lock-timeout SECS\n\
         (default 30): how long to wait for the advisory lock before\n\
         failing with a typed timeout"
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
        ("stats", [store]) => stats(Path::new(store)),
        ("top", [store, rest @ ..]) => top(Path::new(store), flag_value(rest, "--k").unwrap_or(3)),
        ("check", [store]) => check(Path::new(store)),
        ("compact", [store, rest @ ..]) => {
            let Some(keep) = flag_value(rest, "--keep") else {
                eprintln!("compact requires --keep N");
                return ExitCode::from(2);
            };
            let out = flag_path(rest, "-o").unwrap_or_else(|| PathBuf::from(store));
            compact(Path::new(store), keep, &out)
        }
        ("merge", rest) => {
            let Some(out) = flag_path(rest, "-o") else {
                eprintln!("merge requires -o OUT");
                return ExitCode::from(2);
            };
            let inputs: Vec<&String> = rest
                .iter()
                .skip_while(|a| *a != "-o")
                .skip(2)
                .chain(rest.iter().take_while(|a| *a != "-o"))
                .collect();
            if inputs.is_empty() {
                eprintln!("merge requires at least one input store");
                return ExitCode::from(2);
            }
            merge(&inputs, &out)
        }
        ("gen", [store]) => gen(Path::new(store)),
        ("shard", [input, rest @ ..]) => {
            let Some(out) = flag_path(rest, "-o") else {
                eprintln!("shard requires -o OUT (a directory for split, a .jsonl for merge)");
                return ExitCode::from(2);
            };
            shard(Path::new(input), &out, lock_timeout_flag(rest))
        }
        ("evict", [input, rest @ ..]) => {
            let Some(max_records) = flag_value(rest, "--max-records") else {
                eprintln!("evict requires --max-records N");
                return ExitCode::from(2);
            };
            let top_k = flag_value(rest, "--top-k").unwrap_or(EvictionPolicy::default().top_k);
            evict(Path::new(input), EvictionPolicy { max_records, top_k }, lock_timeout_flag(rest))
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

/// The session summary both `tune-net` modes print (CI greps this line
/// for "0 fresh measurement(s)" on replay, so embedded and daemon mode
/// must emit the identical shape).
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
    // The actual port matters when the config said `:0`; fleet scripts
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

/// Loads either a flat store file or a shard directory as a
/// `ShardedStore` (flat files shard by routing every record).
fn load_sharded_or_exit(path: &Path) -> ShardedStore {
    if path.is_dir() {
        match ShardedStore::load(path) {
            Ok((sharded, report)) => {
                for w in &report.warnings {
                    eprintln!("warning: {w}");
                }
                sharded
            }
            Err(e) => {
                eprintln!("error: cannot load shard directory {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    } else {
        ShardedStore::from_flat(load_store_or_exit(path))
    }
}

/// Reports the service stats sidecar of a shard directory, if present —
/// the offline view of queue depth, remaining budget, session counters
/// and speculation telemetry that used to be visible only in-process.
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
            for kind in PerturbationKind::ALL {
                let k = s.speculation_of(kind);
                if k.enqueued + k.tuned + k.hits > 0 {
                    println!(
                        "speculation {:<13} {} enqueued, {} tuned, {} hit(s)",
                        kind.label(),
                        k.enqueued,
                        k.tuned,
                        k.hits
                    );
                }
            }
        }
        Ok(None) => println!("service: no stats sidecar (written by save/sync/tune-net)"),
        Err(e) => eprintln!("warning: unreadable stats sidecar: {e}"),
    }
}

fn stats(path: &Path) -> ExitCode {
    let sharded = load_sharded_or_exit(path);
    println!(
        "{}: {} record(s) across {} workload(s) on {} device(s)",
        path.display(),
        sharded.len(),
        sharded.workload_count(),
        sharded.shard_count()
    );
    if path.is_dir() {
        print_sidecar(path);
    }
    // Per-device breakdown first — one flat store silently mixing
    // several devices is exactly what this report exists to expose.
    for (key, shard) in sharded.shards() {
        println!(
            "device {key}: {} record(s) across {} workload(s) in {} anchor bucket(s) (floor {})",
            shard.len(),
            shard.workload_count(),
            sharded.anchor_bucket_count(key),
            sharded.anchor_floor()
        );
        for fp in shard.fingerprints() {
            let recs = shard.records(fp);
            let best = recs.first().map_or(f64::NAN, |r| r.cost_ms);
            let worst = recs.last().map_or(f64::NAN, |r| r.cost_ms);
            println!("  {:>5} record(s)  best {best:.6} ms  worst {worst:.6} ms  {fp}", recs.len());
        }
    }
    ExitCode::SUCCESS
}

/// Splits a flat store into a device-sharded directory, or merges a
/// shard directory back into one flat store, depending on the input.
fn shard(input: &Path, out: &Path, lock_timeout: Duration) -> ExitCode {
    if input.is_dir() {
        let sharded = load_sharded_or_exit(input);
        let flat = sharded.merged();
        save_store_or_exit(&flat, out);
        println!(
            "merged {} shard(s) ({} record(s)) -> {}",
            sharded.shard_count(),
            flat.len(),
            out.display()
        );
        return ExitCode::SUCCESS;
    }
    let sharded = ShardedStore::from_flat(load_store_or_exit(input));
    // The split writes (overwrites) a shard directory: take its writer
    // lock like every other directory writer, so a concurrent tune-net
    // merge can never interleave with (and lose records to) this save.
    let lock = DirLock::acquire(out, lock_timeout).map_err(std::io::Error::from);
    if let Err(e) = lock.and_then(|_lock| sharded.save(out)) {
        eprintln!("error: cannot write shard directory {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "sharded {} -> {}: {} device(s), {} record(s)",
        input.display(),
        out.display(),
        sharded.shard_count(),
        sharded.len()
    );
    for (key, store) in sharded.shards() {
        println!(
            "  {:>5} record(s)  {} -> {}",
            store.len(),
            key,
            iolb_service::shard_file_name(key)
        );
    }
    ExitCode::SUCCESS
}

/// Applies the LRU eviction policy to a shard directory (or flat store)
/// in place. Shard directories are rewritten under their advisory
/// [`DirLock`], so an eviction can never interleave with (and lose) a
/// concurrent writer's records.
fn evict(input: &Path, policy: EvictionPolicy, lock_timeout: Duration) -> ExitCode {
    let _lock = if input.is_dir() {
        match DirLock::acquire(input, lock_timeout) {
            Ok(lock) => Some(lock),
            Err(e) => {
                eprintln!("error: cannot lock {}: {e}", input.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let mut sharded = load_sharded_or_exit(input);
    let before = sharded.len();
    let dropped = sharded.evict(&policy);
    let saved = if input.is_dir() {
        sharded.save(input).map_err(|e| format!("{}: {e}", input.display()))
    } else {
        let flat = sharded.merged();
        flat.save(input).map_err(|e| format!("{}: {e}", input.display()))
    };
    if let Err(e) = saved {
        eprintln!("error: cannot rewrite {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "evicted {}: dropped {dropped} of {before} record(s), kept {} (max {}, top-{} per cold workload)",
        input.display(),
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
    let sharded = load_sharded_or_exit(dir);
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

fn top(path: &Path, k: usize) -> ExitCode {
    let store = load_store_or_exit(path);
    for fp in store.fingerprints() {
        println!("{fp}");
        for rec in store.records(fp).iter().take(k) {
            println!("  {:>10.6} ms  seed {:>6}  {}", rec.cost_ms, rec.seed, rec.config);
        }
    }
    ExitCode::SUCCESS
}

fn check(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check FAILED: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let (store, report) = RecordStore::from_jsonl(&text);
    if !report.is_clean() {
        eprintln!("check FAILED: {} line(s) no longer parse:", report.skipped.len());
        for (line, reason) in &report.skipped {
            eprintln!("  {}:{line}: {reason}", path.display());
        }
        return ExitCode::FAILURE;
    }
    let canonical = store.to_jsonl();
    if text != canonical {
        eprintln!(
            "check FAILED: {} is not in the codec's canonical serialization \
             (re-save it with `tune-cache compact {} --keep 1000000`)",
            path.display(),
            path.display()
        );
        return ExitCode::FAILURE;
    }
    let (reparsed, report2) = RecordStore::from_jsonl(&canonical);
    if !report2.is_clean() || reparsed.to_jsonl() != canonical {
        eprintln!("check FAILED: parse -> serialize -> parse is not byte-stable");
        return ExitCode::FAILURE;
    }
    println!(
        "check OK: {} record(s), {} workload(s), canonical and byte-stable",
        store.len(),
        store.workload_count()
    );
    ExitCode::SUCCESS
}

fn compact(path: &Path, keep: usize, out: &Path) -> ExitCode {
    let mut store = load_store_or_exit(path);
    let dropped = store.compact(keep);
    save_store_or_exit(&store, out);
    println!(
        "compacted {}: dropped {dropped}, kept {} -> {}",
        path.display(),
        store.len(),
        out.display()
    );
    ExitCode::SUCCESS
}

fn merge(inputs: &[&String], out: &Path) -> ExitCode {
    let mut merged = RecordStore::new();
    for input in inputs {
        let store = load_store_or_exit(Path::new(input));
        let inserted = merged.merge(store);
        println!("merged {input}: {inserted} record(s) new or improved");
    }
    save_store_or_exit(&merged, out);
    ExitCode::SUCCESS
}

/// Deterministically tunes two related AlexNet-style layers into a fresh
/// store: everything is seeded, so the output is byte-reproducible —
/// which is exactly what a committed CI fixture needs.
fn gen(path: &Path) -> ExitCode {
    let device = DeviceSpec::v100();
    let mut store = RecordStore::new();
    let layers = [
        ConvShape::new(256, 13, 13, 384, 3, 3, 1, 1), // AlexNet conv3
        ConvShape::new(384, 13, 13, 256, 3, 3, 1, 1), // AlexNet conv4
    ];
    for (i, shape) in layers.iter().enumerate() {
        let out = run_tuner_with_store(
            TunerKind::Ate,
            shape,
            TileKind::Direct,
            &device,
            48,
            1000 + i as u64,
            &mut store,
            StoreMode::WarmStart,
        );
        match out {
            Some(r) => println!(
                "tuned {shape}: best {:.6} ms in {} attempt(s) ({} fresh, {} cached{})",
                r.result.best_ms,
                r.result.measurements,
                r.fresh_measurements,
                r.cache_hits,
                if r.transferred { ", transfer-seeded" } else { "" },
            ),
            None => {
                eprintln!("error: no measurable configuration for {shape}");
                return ExitCode::FAILURE;
            }
        }
    }
    save_store_or_exit(&store, path);
    ExitCode::SUCCESS
}
