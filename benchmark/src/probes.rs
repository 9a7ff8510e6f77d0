//! Per-layer metrics. Each probe times calls into public functions of
//! one crate or module — named as the repository names it — on the same
//! inputs the workloads use. They run in the traced run only, are never
//! bounded, and exist to say *where* an end-to-end change came from
//! (README, "which layer should move what").

use crate::inputs::{NetPlan, NovelShapes, RESNET18};
use crate::report::Measured;
use crate::stages::{
    self, service_config, timed, tune_round, Env, ExecLayer, Tally, EXEC_WORKERS, SERVE_BUDGET,
    TUNE_BUDGET,
};
use crate::stats;
use crate::trace::Tracer;
use crate::watchdog;
use crate::workloads::{Run, Sizes, Workload};
use conv_iolb::autotune::features::featurize;
use conv_iolb::autotune::gbt::{Gbrt, GbrtParams};
use conv_iolb::autotune::plan::tuner_setup;
use conv_iolb::autotune::{fusion_gate, tune_with_store};
use conv_iolb::cnn::fusion;
use conv_iolb::cnn::inference::{time_network_with_backend, TUNER_SEED};
use conv_iolb::core::epilogue::{fused_io_lower_bound, Epilogue};
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::{ConvShape, WinogradTile};
use conv_iolb::core::{direct as core_direct, winograd as core_winograd};
use conv_iolb::dataflow::exec::execute_direct_fused;
use conv_iolb::dataflow::{analyze_direct, direct_kernel, execute_direct, winograd_kernel};
use conv_iolb::gpusim::{simulate, DeviceSpec};
use conv_iolb::records::{jsonl, RecordStore, TuningRecord, Workload as RecordWorkload};
use conv_iolb::service::wire::{self, Request, Response};
use conv_iolb::service::{
    io_gap, Backend, BackendSession, Daemon, DaemonConfig, EvictionPolicy, FleetRouter, PeerAddr,
    ShardedStore, SocketBackend, Telemetry, TuneRequest,
};
use conv_iolb::tensor::gemm::{gemm, MatRef};
use conv_iolb::tensor::im2col::im2col;
use conv_iolb::tensor::{conv2d_im2col, conv2d_reference, conv2d_winograd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Name, unit and direction of every per-layer metric, in report order.
/// Must agree with `BENCHMARK.json` (`smoke.sh` checks both directions).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.bound_eval_ns", "ns", "lower"),
    ("gpusim.simulate_us", "us", "lower"),
    ("gpusim.calls_per_workload", "count", "lower"),
    ("gpusim.share_of_tune", "share", "lower"),
    ("autotune.tune_ms_p50", "ms", "lower"),
    ("autotune.tune_ms_p90", "ms", "lower"),
    ("autotune.setup_us", "us", "lower"),
    ("autotune.gbt_fit_ms", "ms", "lower"),
    ("autotune.gbt_predict_us", "us", "lower"),
    ("autotune.space_configs", "count", "lower"),
    ("autotune.budget_scaling", "ratio", "lower"),
    ("autotune.fusion_gate_us", "us", "lower"),
    ("autotune.fresh_measurements", "count", "lower"),
    ("autotune.cache_hits", "count", "higher"),
    ("rayon.cold_tune_speedup", "ratio", "higher"),
    ("rayon.handoff_us", "us", "lower"),
    ("records.encode_us", "us", "lower"),
    ("records.decode_us", "us", "lower"),
    ("records.insert_us", "us", "lower"),
    ("records.fingerprint_ns", "ns", "lower"),
    ("records.to_jsonl_ms", "ms", "lower"),
    ("records.from_jsonl_ms", "ms", "lower"),
    ("records.store_records", "count", "lower"),
    ("shard.best_ns", "ns", "lower"),
    ("shard.anchor_donor_us", "us", "lower"),
    ("shard.save_ms", "ms", "lower"),
    ("shard.load_ms", "ms", "lower"),
    ("shard.merge_into_dir_ms", "ms", "lower"),
    ("shard.evict_ms", "ms", "lower"),
    ("shard.dir_bytes", "B", "lower"),
    ("session.submit_us_p50", "us", "lower"),
    ("session.wait_us_p50", "us", "lower"),
    ("session.embedded_sessions_per_s", "1/s", "higher"),
    ("session.anchored_us_per_req", "us", "lower"),
    ("session.inline_ms_per_workload", "ms", "lower"),
    ("session.dedup_ratio", "ratio", "lower"),
    ("queue.io_gap_us", "us", "lower"),
    ("wire.encode_request_us", "us", "lower"),
    ("wire.decode_request_us", "us", "lower"),
    ("wire.encode_response_us", "us", "lower"),
    ("wire.decode_response_us", "us", "lower"),
    ("wire.request_bytes", "B", "lower"),
    ("wire.response_bytes", "B", "lower"),
    ("daemon.submit_rtt_us_p50", "us", "lower"),
    ("daemon.wait_rtt_us_p50", "us", "lower"),
    ("daemon.socket_floor_rtt_us", "us", "lower"),
    ("daemon.unattributed_us", "us", "lower"),
    ("daemon.unattributed_share", "share", "lower"),
    ("daemon.second_conn_wait_ms", "ms", "lower"),
    ("daemon.session_p99_ms", "ms", "lower"),
    ("daemon.connect_us", "us", "lower"),
    ("daemon.sync_ms", "ms", "lower"),
    ("daemon.stats_ms", "ms", "lower"),
    ("daemon.cpu_s_per_ksession", "s", "lower"),
    ("telemetry.observe_ns", "ns", "lower"),
    ("telemetry.incr_ns", "ns", "lower"),
    ("telemetry.snapshot_us", "us", "lower"),
    ("fleet.route_ns", "ns", "lower"),
    ("cnn.requests_build_us", "us", "lower"),
    ("cnn.segment_us", "us", "lower"),
    ("cnn.time_network_overhead_us", "us", "lower"),
    ("tensor.gemm_gflops_256", "GFLOP/s", "higher"),
    ("tensor.gemm_gflops_512", "GFLOP/s", "higher"),
    ("tensor.im2col_share", "share", "lower"),
    ("tensor.winograd_gflops", "GFLOP/s", "higher"),
    ("tensor.reference_gflops", "GFLOP/s", "higher"),
    ("dataflow.direct_gflops_min", "GFLOP/s", "higher"),
    ("dataflow.direct_gflops_max", "GFLOP/s", "higher"),
    ("dataflow.winograd_gflops_min", "GFLOP/s", "higher"),
    ("dataflow.fused_overhead", "ratio", "lower"),
    ("dataflow.workers2_speedup", "ratio", "higher"),
    ("dataflow.q_gap_direct", "ratio", "lower"),
    ("dataflow.flops_per_qlower_byte", "FLOP/B", "higher"),
    ("trace.overhead_share", "share", "lower"),
];

/// Collects values under catalogue names; a name outside the catalogue
/// or reported twice is a bug in this file.
struct Sheet(Vec<Measured>);

impl Sheet {
    fn put(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1);
        let unit = unit.unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        assert!(self.0.iter().all(|m| m.name != name), "{name} reported twice");
        self.0.push(Measured::new(name, unit, value));
    }

    /// Catalogue order, every metric present.
    fn finish(self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let found = self.0.iter().find(|m| m.name == *name).cloned();
                found.unwrap_or_else(|| Measured::new(name, unit, f64::NAN))
            })
            .collect()
    }
}

/// Mean seconds per call over `calls` calls, after one untimed call.
fn mean_secs(calls: usize, mut call: impl FnMut()) -> f64 {
    call();
    let started = Instant::now();
    for _ in 0..calls {
        call();
    }
    started.elapsed().as_secs_f64() / calls as f64
}

/// Keeps a probed call's result alive so the call is not optimised out.
fn sink<T>(value: T) {
    black_box(value);
}

/// Distinct bare zoo workloads in first-seen order.
fn unique_requests(zoo: &[NetPlan], device: &DeviceSpec) -> Vec<(TuneRequest, RecordWorkload)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in zoo.iter().flat_map(|p| &p.bare) {
        let w = RecordWorkload::new(r.shape, r.kind, device.name, device.smem_per_sm);
        if seen.insert(w.fingerprint()) {
            out.push((*r, w));
        }
    }
    out
}

/// One cold round over the bare zoo, as the threads probe and the
/// serial side of `rayon.cold_tune_speedup` run it.
fn bare_zoo_round(zoo: &[NetPlan], device: &DeviceSpec) -> stages::TuneRound {
    let plans: Vec<&NetPlan> = zoo.iter().collect();
    tune_round(&plans, plans.len(), false, device, &mut Tracer::off(), &mut Tally::default())
}

fn probe_core(zoo: &[NetPlan], device: &DeviceSpec, sheet: &mut Sheet) {
    let s = device.smem_elems();
    let shapes: Vec<ConvShape> = zoo.iter().flat_map(|p| &p.net.layers).map(|l| l.shape).collect();
    let mut evals = 0usize;
    let per_pass = mean_secs(20, || {
        evals = 0;
        for shape in &shapes {
            black_box(core_direct::io_lower_bound(black_box(shape), s));
            black_box(fused_io_lower_bound(shape, TileKind::Direct, Epilogue::Relu, s));
            evals += 2;
            if shape.supports_winograd(WinogradTile::F2X3) && shape.stride == 1 {
                black_box(core_winograd::io_lower_bound(shape, WinogradTile::F2X3, s));
                evals += 1;
            }
        }
    });
    sheet.put("core.bound_eval_ns", per_pass / evals as f64 * 1e9);
}

/// `gpusim` and the tuner, on a cold round of the bare zoo. Returns the
/// serial round's seconds for the threads probe to compare with.
fn probe_tuning(env: &Env, sheet: &mut Sheet) -> f64 {
    let (zoo, device) = (&env.zoo, &env.device);
    watchdog::enter("probe.gpusim");
    let resnet = &zoo[RESNET18].net;
    let mut kernels = Vec::new();
    for layer in &resnet.layers {
        for kind in [TileKind::Direct, TileKind::Winograd(WinogradTile::F2X3)] {
            if matches!(kind, TileKind::Winograd(_)) && !layer.winograd_eligible() {
                continue;
            }
            let Some(served) = env.warm.tune_or_wait(&layer.shape, kind, device) else { continue };
            kernels.push(match kind {
                TileKind::Direct => direct_kernel(&layer.shape, &served.config),
                TileKind::Winograd(tile) => winograd_kernel(&layer.shape, tile, &served.config),
            });
        }
    }
    let simulate_s = mean_secs(50, || {
        for k in &kernels {
            black_box(simulate(device, k).ok());
        }
    }) / kernels.len() as f64;
    sheet.put("gpusim.simulate_us", simulate_s * 1e6);

    watchdog::enter("probe.cold_round");
    bare_zoo_round(zoo, device);
    let round = bare_zoo_round(zoo, device);
    sheet.put("gpusim.calls_per_workload", round.fresh as f64 / round.tuned as f64);
    sheet.put("gpusim.share_of_tune", simulate_s * round.fresh as f64 / round.wall_s);
    sheet.put("autotune.fresh_measurements", round.fresh as f64);
    sheet.put("autotune.cache_hits", round.cache_hits as f64);
    sheet.put("records.store_records", round.store_records as f64);

    watchdog::enter("probe.tune_with_store");
    let unique = unique_requests(zoo, device);
    let tune = |shape: &ConvShape, kind, budget| {
        let mut s = tuner_setup(shape, kind, device, budget, TUNER_SEED);
        let mut store = RecordStore::new();
        timed(|| {
            tune_with_store(
                &s.space,
                &s.measurer,
                &mut s.model,
                &mut s.searcher,
                s.params,
                &mut store,
            )
        })
        .1
    };
    let tune_ms: Vec<f64> =
        unique.iter().map(|(r, _)| tune(&r.shape, r.kind, TUNE_BUDGET) * 1e3).collect();
    let tune_ms = stats::sorted(&tune_ms);
    sheet.put("autotune.tune_ms_p50", stats::percentile(&tune_ms, 0.50));
    sheet.put("autotune.tune_ms_p90", stats::percentile(&tune_ms, 0.90));
    let setup_s = mean_secs(2, || {
        for (r, _) in &unique {
            sink(tuner_setup(&r.shape, r.kind, device, TUNE_BUDGET, TUNER_SEED));
        }
    });
    sheet.put("autotune.setup_us", setup_s / unique.len() as f64 * 1e6);
    let configs: u64 = unique
        .iter()
        .map(|(r, _)| tuner_setup(&r.shape, r.kind, device, TUNE_BUDGET, TUNER_SEED).space.count())
        .sum();
    sheet.put("autotune.space_configs", configs as f64);
    let first = &unique[..8];
    let wall = |budget| first.iter().map(|(r, _)| tune(&r.shape, r.kind, budget)).sum::<f64>();
    sheet.put("autotune.budget_scaling", wall(128) / wall(64));

    watchdog::enter("probe.gbt");
    let shape = resnet.layers[1].shape;
    let setup = tuner_setup(&shape, TileKind::Direct, device, 64, TUNER_SEED);
    let mut rng = StdRng::seed_from_u64(TUNER_SEED);
    let mut rows = Vec::new();
    let mut targets = Vec::new();
    while rows.len() < 256 {
        let Some(cfg) = setup.space.sample(&mut rng, 64) else { break };
        let Some(ms) = setup.measurer.measure_ms(&cfg) else { continue };
        rows.push(featurize(&shape, TileKind::Direct, &cfg));
        targets.push(ms);
    }
    let fit_s = mean_secs(5, || {
        let mut rng = StdRng::seed_from_u64(TUNER_SEED);
        black_box(Gbrt::fit(&rows[..64], &targets[..64], GbrtParams::default(), &mut rng));
    });
    sheet.put("autotune.gbt_fit_ms", fit_s * 1e3);
    let model = Gbrt::fit(&rows[..64], &targets[..64], GbrtParams::default(), &mut rng);
    sheet.put("autotune.gbt_predict_us", mean_secs(50, || sink(model.predict_batch(&rows))) * 1e6);

    let fused: Vec<&TuneRequest> = zoo.iter().flat_map(|p| &p.fused).collect();
    let gate_s = mean_secs(1, || {
        for r in &fused {
            black_box(fusion_gate(&r.shape, r.kind, r.epilogue, device));
        }
    });
    sheet.put("autotune.fusion_gate_us", gate_s / fused.len() as f64 * 1e6);
    round.wall_s
}

/// What the default-threads child measured (see [`threads_child`]).
fn probe_threads(serial_round_s: f64, sheet: &mut Sheet, tally: &mut Tally) {
    watchdog::enter("probe.threads_child");
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .arg("threads-probe")
            .env_remove("RAYON_NUM_THREADS")
            .output()
    });
    let text = child.as_ref().map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
    let fields: Vec<f64> =
        text.as_deref().unwrap_or("").split_whitespace().filter_map(|t| t.parse().ok()).collect();
    tally.check(fields.len() == 3, || format!("threads-probe child failed: {child:?}"));
    let [handoff_us, round_s, workers2] = fields[..] else { return };
    sheet.put("rayon.handoff_us", handoff_us);
    sheet.put("rayon.cold_tune_speedup", serial_round_s / round_s);
    sheet.put("dataflow.workers2_speedup", workers2);
}

/// Body of the hidden `threads-probe` subcommand: the three numbers that
/// need the pool's default thread count, which the parent (on one CPU,
/// `RAYON_NUM_THREADS=1`) cannot measure in-process. Prints
/// `handoff_us cold_round_s workers2_speedup`.
pub fn threads_child() {
    crate::affinity::unpin();
    let device = crate::inputs::device();
    let zoo = crate::inputs::zoo();
    let items = [1u64, 2];
    let handoff = mean_secs(20_000, || {
        black_box(items.par_iter().map(|v| v + 1).collect::<Vec<_>>());
    });
    bare_zoo_round(&zoo, &device);
    let round = bare_zoo_round(&zoo, &device);
    let mut tally = Tally::default();
    let env = Env::build(7, stages::Serving::Embedded, &[1], Path::new("unused"), &mut tally);
    let l = &env.exec[0];
    let cfg = l.direct.expect("layer1's served direct config executes");
    let run = |workers| {
        mean_secs(5, || sink(execute_direct(&l.input, &l.weights, l.params, &cfg, workers)))
    };
    println!("{} {} {}", handoff * 1e6, round.wall_s, run(1) / run(2));
}

fn probe_records(env: &Env, dir: &Path, sheet: &mut Sheet) {
    watchdog::enter("probe.records");
    let flat = env.warm.merged_store();
    let records: Vec<TuningRecord> =
        flat.entries().flat_map(|(_, recs)| recs.iter().cloned()).collect();
    let n = records.len() as f64;
    let lines: Vec<String> = records.iter().map(jsonl::encode).collect();
    sheet.put(
        "records.encode_us",
        mean_secs(3, || records.iter().for_each(|r| sink(jsonl::encode(r)))) / n * 1e6,
    );
    sheet.put(
        "records.decode_us",
        mean_secs(3, || lines.iter().for_each(|l| sink(jsonl::decode(l)))) / n * 1e6,
    );
    let insert_s = mean_secs(3, || {
        let mut store = RecordStore::new();
        for r in &records {
            store.insert(r.clone());
        }
        black_box(store.len());
    });
    sheet.put("records.insert_us", insert_s / n * 1e6);
    let unique = unique_requests(&env.zoo, &env.device);
    let fp_s = mean_secs(50, || unique.iter().for_each(|(_, w)| sink(w.fingerprint())));
    sheet.put("records.fingerprint_ns", fp_s / unique.len() as f64 * 1e9);
    let text = flat.to_jsonl();
    sheet.put("records.to_jsonl_ms", mean_secs(5, || sink(flat.to_jsonl())) * 1e3);
    sheet.put("records.from_jsonl_ms", mean_secs(5, || sink(RecordStore::from_jsonl(&text))) * 1e3);

    watchdog::enter("probe.shard");
    let sharded = ShardedStore::from_flat(flat);
    let best_s = mean_secs(50, || unique.iter().for_each(|(_, w)| sink(sharded.best(w))));
    sheet.put("shard.best_ns", best_s / unique.len() as f64 * 1e9);
    let mut novel = NovelShapes::new(TUNER_SEED, &env.zoo, &env.device);
    let jittered: Vec<RecordWorkload> = (0..64)
        .map(|_| {
            RecordWorkload::new(
                novel.in_bucket(),
                TileKind::Direct,
                env.device.name,
                env.device.smem_per_sm,
            )
        })
        .collect();
    let donor_s = mean_secs(20, || jittered.iter().for_each(|w| sink(sharded.anchor_donor(w))));
    sheet.put("shard.anchor_donor_us", donor_s / jittered.len() as f64 * 1e6);
    let _ = std::fs::remove_dir_all(dir);
    sheet.put("shard.save_ms", mean_secs(3, || sharded.save(dir).expect("probe save")) * 1e3);
    sheet.put(
        "shard.load_ms",
        mean_secs(3, || sink(ShardedStore::load(dir).expect("probe load"))) * 1e3,
    );
    sheet.put(
        "shard.merge_into_dir_ms",
        mean_secs(3, || drop(sharded.merge_into_dir(dir).expect("probe merge"))) * 1e3,
    );
    let policy = EvictionPolicy { max_records: sharded.len() / 2, top_k: 2 };
    let evict_s = mean_secs(3, || {
        let mut copy = sharded.clone();
        black_box(copy.evict(&policy));
    }) - mean_secs(3, || sink(sharded.clone()));
    sheet.put("shard.evict_ms", evict_s.max(0.0) * 1e3);
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|d| d.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0);
    sheet.put("shard.dir_bytes", bytes as f64);
}

/// Hit sessions through any backend, submit and wait timed apart.
/// Returns (submit µs, wait µs, session µs) samples.
fn timed_sessions<B: Backend>(
    backend: &B,
    env: &Env,
    sessions: usize,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut submit, mut wait, mut total) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..sessions {
        let plan = &env.zoo[i % env.zoo.len()];
        watchdog::enter("probe.submit");
        let (handle, s) = timed(|| backend.submit_batch(&plan.bare, &env.device));
        watchdog::enter("probe.wait");
        let (results, w) = timed(|| handle.and_then(BackendSession::wait));
        tally.check(results.is_ok(), || format!("probe session {i}: {:?}", results.as_ref().err()));
        submit.push(s * 1e6);
        wait.push(w * 1e6);
        total.push((s + w) * 1e6);
    }
    (submit, wait, total)
}

/// Embedded `TuningService` sessions. Returns the mean µs of one
/// embedded session for the daemon attribution.
fn probe_session(env: &mut Env, sheet: &mut Sheet, tally: &mut Tally) -> f64 {
    let service = env.warm.clone();
    let (submit, wait, total) = timed_sessions(&service, env, 600, tally);
    sheet.put("session.submit_us_p50", stats::median(&submit));
    sheet.put("session.wait_us_p50", stats::median(&wait));
    let mean_us = total.iter().sum::<f64>() / total.len() as f64;
    sheet.put("session.embedded_sessions_per_s", 1e6 / mean_us);
    let (mut requests, mut unique) = (0, 0);
    for plan in &env.zoo {
        let handle = service.submit(&plan.bare, &env.device);
        requests += handle.request_count();
        unique += handle.unique_workloads();
        handle.wait();
    }
    sheet.put("session.dedup_ratio", unique as f64 / requests as f64);

    watchdog::enter("probe.novel");
    let direct = |s| TuneRequest::bare(s, TileKind::Direct);
    let in_bucket: Vec<TuneRequest> = (0..32).map(|_| direct(env.novel.in_bucket())).collect();
    let (_, anchored_s) = timed(|| {
        for pair in in_bucket.chunks(2) {
            black_box(service.submit(pair, &env.device).wait());
        }
    });
    sheet.put("session.anchored_us_per_req", anchored_s / in_bucket.len() as f64 * 1e6);
    let fresh: Vec<TuneRequest> = (0..16).map(|_| direct(env.novel.out_of_bucket())).collect();
    let (_, inline_s) = timed(|| {
        for pair in fresh.chunks(2) {
            black_box(service.submit(pair, &env.device).wait());
        }
    });
    sheet.put("session.inline_ms_per_workload", inline_s / fresh.len() as f64 * 1e3);
    let unique = unique_requests(&env.zoo, &env.device);
    let gap_s = mean_secs(2, || {
        unique.iter().for_each(|(r, _)| sink(io_gap(&r.shape, r.kind, &env.device)))
    });
    sheet.put("queue.io_gap_us", gap_s / unique.len() as f64 * 1e6);
    mean_us
}

/// The four codec stages of a mean zoo session. Returns their summed µs
/// and the (request, response) frame sizes per network.
fn probe_wire(env: &Env, sheet: &mut Sheet) -> (f64, Vec<(usize, usize)>) {
    watchdog::enter("probe.wire");
    let n = env.zoo.len() as f64;
    let requests: Vec<Request> = env
        .zoo
        .iter()
        .map(|p| Request::Submit { device: env.device.clone(), requests: p.bare.clone() })
        .collect();
    let responses: Vec<Response> = env
        .zoo
        .iter()
        .map(|p| Response::Results { results: env.warm.submit(&p.bare, &env.device).wait() })
        .collect();
    let request_frames: Vec<Vec<u8>> = requests.iter().map(wire::encode_request).collect();
    let response_frames: Vec<Vec<u8>> = responses.iter().map(wire::encode_response).collect();
    let text = |frames: &[Vec<u8>]| -> Vec<String> {
        frames.iter().map(|f| String::from_utf8(f.clone()).expect("frames are UTF-8")).collect()
    };
    let (request_text, response_text) = (text(&request_frames), text(&response_frames));
    let stages = [
        (
            "wire.encode_request_us",
            mean_secs(200, || requests.iter().for_each(|r| sink(wire::encode_request(r)))),
        ),
        (
            "wire.decode_request_us",
            mean_secs(200, || request_text.iter().for_each(|t| sink(wire::decode_request(t)))),
        ),
        (
            "wire.encode_response_us",
            mean_secs(200, || responses.iter().for_each(|r| sink(wire::encode_response(r)))),
        ),
        (
            "wire.decode_response_us",
            mean_secs(200, || response_text.iter().for_each(|t| sink(wire::decode_response(t)))),
        ),
    ];
    let mut sum_us = 0.0;
    for (name, per_pass) in stages {
        sheet.put(name, per_pass / n * 1e6);
        sum_us += per_pass / n * 1e6;
    }
    let sizes: Vec<(usize, usize)> = request_frames
        .iter()
        .zip(&response_frames)
        .map(|(q, r)| (q.len() + 4, r.len() + 4))
        .collect();
    sheet.put("wire.request_bytes", sizes.iter().map(|s| s.0).sum::<usize>() as f64 / n);
    sheet.put("wire.response_bytes", sizes.iter().map(|s| s.1).sum::<usize>() as f64 / n);
    (sum_us, sizes)
}

/// Mean µs per round trip over a bare `UnixStream` pair with an echo
/// thread of the benchmark's own, exchanging the same frame sizes a
/// session does (submit → small reply, small wait → results).
fn socket_floor_us(sizes: &[(usize, usize)]) -> f64 {
    let (mut client, mut server) = UnixStream::pair().expect("socket pair");
    let legs: Vec<(usize, usize)> = sizes.iter().flat_map(|&(q, r)| [(q, 40), (30, r)]).collect();
    let passes = 200;
    let echo_legs = legs.clone();
    let echo = std::thread::spawn(move || {
        let mut buf = vec![0u8; 1 << 20];
        for _ in 0..=passes {
            for &(q, r) in &echo_legs {
                if server.read_exact(&mut buf[..q]).is_err() || server.write_all(&buf[..r]).is_err()
                {
                    return;
                }
            }
        }
    });
    let mut buf = vec![0u8; 1 << 20];
    let per_pass = mean_secs(passes, || {
        for &(q, r) in &legs {
            client.write_all(&buf[..q]).expect("floor write");
            let (head, _) = buf.split_at_mut(r);
            client.read_exact(head).expect("floor read");
        }
    });
    drop(client);
    echo.join().expect("echo thread panicked");
    per_pass / legs.len() as f64 * 1e6
}

/// Process CPU seconds so far (`utime + stime` of `/proc/self/stat`, in
/// the kernel's 100 Hz user ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 =
        after.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<f64>().ok()).sum();
    ticks / 100.0
}

#[allow(clippy::too_many_arguments)]
fn probe_daemon(
    env: &Env,
    dir: &Path,
    wire_us: f64,
    frame_sizes: &[(usize, usize)],
    embedded_us: f64,
    sheet: &mut Sheet,
    tally: &mut Tally,
) {
    watchdog::enter("probe.daemon.bind");
    let socket = dir.join("p.sock");
    let config = DaemonConfig { service: service_config(SERVE_BUDGET), ..DaemonConfig::default() };
    let (daemon, _) = Daemon::bind(dir, &socket, config).expect("cannot bind the probe daemon");
    let server = std::thread::spawn(move || daemon.run());

    let client = SocketBackend::connect(&socket).expect("probe connect");
    timed_sessions(&client, env, 60, tally);
    let cpu_before = cpu_seconds();
    let (submit, wait, total) = timed_sessions(&client, env, 1200, tally);
    let cpu = cpu_seconds() - cpu_before;
    sheet.put("daemon.submit_rtt_us_p50", stats::median(&submit));
    sheet.put("daemon.wait_rtt_us_p50", stats::median(&wait));
    // The tail of the session mix: 12 samples lie beyond it. Unbounded,
    // because this host does not repeat it (README, "Threads and noise").
    sheet.put("daemon.session_p99_ms", stats::percentile(&stats::sorted(&total), 0.99) / 1e3);
    sheet.put("daemon.cpu_s_per_ksession", cpu / total.len() as f64 * 1e3);
    let floor = socket_floor_us(frame_sizes);
    sheet.put("daemon.socket_floor_rtt_us", floor);
    // Stage sum + unattributed = client-observed mean session, by
    // construction. Means, not medians: the stage probes are means over
    // the zoo mix, and a six-network mix's median session is not its
    // mean one.
    let session_us = total.iter().sum::<f64>() / total.len() as f64;
    let attributed = wire_us + embedded_us + 2.0 * floor;
    sheet.put("daemon.unattributed_us", session_us - attributed);
    sheet.put("daemon.unattributed_share", (session_us - attributed) / session_us);
    watchdog::enter("probe.daemon.sync");
    sheet.put("daemon.sync_ms", mean_secs(3, || drop(client.sync())) * 1e3);
    watchdog::enter("probe.daemon.stats");
    sheet.put("daemon.stats_ms", mean_secs(5, || drop(client.stats())) * 1e3);
    // No `Pull` probe: the zoo-sized store encodes to 1.17 MB, above the
    // wire's 1 MiB frame cap, so the daemon refuses it (README).
    drop(client);

    watchdog::enter("probe.daemon.connect");
    let connect_s = mean_secs(20, || {
        // A stats call proves the daemon picked the connection up.
        let c = SocketBackend::connect(&socket).expect("probe reconnect");
        drop(c.stats());
    }) - mean_secs(20, || ());
    sheet.put("daemon.connect_us", connect_s * 1e6);

    // First reply on a second connection while a first sits open and
    // idle. A helper drops the first after 2000 ms, so the probe ends
    // even where the daemon never reads the second until then.
    watchdog::enter("probe.daemon.second_conn");
    let first = SocketBackend::connect(&socket).expect("probe first connection");
    drop(first.stats());
    let (done, wait_for_done) = std::sync::mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let _ = wait_for_done.recv_timeout(Duration::from_millis(2000));
        drop(first);
    });
    let second = SocketBackend::connect(&socket).expect("probe second connection");
    let (reply, waited) = timed(|| second.stats());
    tally.check(reply.is_ok(), || format!("second connection never answered: {:?}", reply.err()));
    let _ = done.send(());
    holder.join().expect("holder thread panicked");
    sheet.put("daemon.second_conn_wait_ms", waited * 1e3);

    watchdog::enter("probe.daemon.shutdown");
    let bye = second.shutdown();
    drop(second);
    let ran = server.join().expect("probe daemon panicked");
    tally.check(bye.is_ok() && ran.is_ok(), || format!("probe daemon shutdown: {bye:?} / {ran:?}"));
}

fn probe_small_layers(env: &Env, sheet: &mut Sheet) {
    watchdog::enter("probe.telemetry");
    let telemetry = Telemetry::new();
    for i in 0..32 {
        telemetry.observe(&format!("probe_histogram_{i}"), i);
        telemetry.incr(&format!("probe_counter_{i}"), 1);
    }
    let calls = 100_000;
    sheet.put(
        "telemetry.observe_ns",
        mean_secs(calls, || telemetry.observe("probe_histogram_7", 137)) * 1e9,
    );
    sheet.put("telemetry.incr_ns", mean_secs(calls, || telemetry.incr("probe_counter_7", 1)) * 1e9);
    sheet.put("telemetry.snapshot_us", mean_secs(200, || sink(telemetry.snapshot())) * 1e6);
    let router = FleetRouter::new(
        (0..3).map(|i| PeerAddr::parse(&format!("/nonexistent/fleet-{i}.sock"))).collect(),
    );
    let fingerprints: Vec<String> =
        unique_requests(&env.zoo, &env.device).into_iter().map(|(_, w)| w.fingerprint()).collect();
    let route_s =
        mean_secs(200, || fingerprints.iter().for_each(|fp| sink(router.route_fingerprint(fp))));
    sheet.put("fleet.route_ns", route_s / fingerprints.len() as f64 * 1e9);

    watchdog::enter("probe.cnn");
    let n = env.zoo.len() as f64;
    let build_s =
        mean_secs(20, || env.zoo.iter().for_each(|p| sink(NetPlan::new(p.net.clone()).bare)))
            - mean_secs(20, || env.zoo.iter().for_each(|p| sink(p.net.clone())));
    sheet.put("cnn.requests_build_us", build_s.max(0.0) / n * 1e6);
    let streams: Vec<_> = env.zoo.iter().map(|p| fusion::op_stream(&p.net)).collect();
    sheet.put(
        "cnn.segment_us",
        mean_secs(50, || streams.iter().for_each(|s| sink(fusion::segment(s)))) / n * 1e6,
    );
    let timed_s = mean_secs(20, || {
        env.zoo.iter().for_each(|p| sink(time_network_with_backend(&p.net, &env.device, &env.warm)))
    });
    let bare_s = mean_secs(20, || {
        env.zoo.iter().for_each(|p| sink(env.warm.submit(&p.bare, &env.device).wait()))
    });
    sheet.put("cnn.time_network_overhead_us", (timed_s - bare_s) / n * 1e6);
}

fn gflops(shape: &ConvShape, secs: f64) -> f64 {
    shape.flops() as f64 / 1e9 / secs
}

/// `tensor` kernels and the `dataflow` executors, on the thin set of
/// exec layers every workload's traced run has.
fn probe_compute(layers: &[&ExecLayer], env: &Env, sheet: &mut Sheet) {
    watchdog::enter("probe.tensor");
    let mut rng = StdRng::seed_from_u64(TUNER_SEED);
    for n in [256usize, 512] {
        let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut c = vec![0.0f32; n * n];
        let s = mean_secs(5, || {
            gemm(MatRef::new(&a, n, n), MatRef::new(&b, n, n), black_box(&mut c), 1)
        });
        sheet.put(&format!("tensor.gemm_gflops_{n}"), 2.0 * (n * n * n) as f64 / 1e9 / s);
    }
    let l = layers[0];
    let unroll_s = mean_secs(5, || sink(im2col(&l.input, 0, l.shape.kh, l.shape.kw, l.params)));
    let conv_s = mean_secs(5, || sink(conv2d_im2col(&l.input, &l.weights, l.params, 1)));
    sheet.put("tensor.im2col_share", unroll_s / conv_s);
    let wino_s = mean_secs(3, || sink(conv2d_winograd(&l.input, &l.weights, l.params, 2)));
    sheet.put("tensor.winograd_gflops", gflops(&l.shape, wino_s));
    let small = layers.iter().min_by_key(|l| l.shape.flops()).expect("at least one exec layer");
    let reference_s =
        mean_secs(3, || sink(conv2d_reference(&small.input, &small.weights, small.params)));
    sheet.put("tensor.reference_gflops", gflops(&small.shape, reference_s));

    watchdog::enter("probe.dataflow");
    let mut direct = Vec::new();
    let mut winograd = Vec::new();
    for l in layers {
        if let Some(cfg) = &l.direct {
            let s = mean_secs(2, || {
                sink(execute_direct(&l.input, &l.weights, l.params, cfg, EXEC_WORKERS))
            });
            direct.push(gflops(&l.shape, s));
        }
        if let Some(cfg) = &l.winograd {
            let s = mean_secs(2, || {
                let tile = WinogradTile::F2X3;
                sink(conv_iolb::dataflow::execute_winograd(
                    &l.input,
                    &l.weights,
                    l.params,
                    tile,
                    cfg,
                    EXEC_WORKERS,
                ))
            });
            winograd.push(gflops(&l.shape, s));
        }
    }
    let min = |v: &[f64]| v.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::NAN);
    sheet.put("dataflow.direct_gflops_min", min(&direct));
    sheet.put(
        "dataflow.direct_gflops_max",
        direct.iter().copied().max_by(f64::total_cmp).unwrap_or(f64::NAN),
    );
    sheet.put("dataflow.winograd_gflops_min", min(&winograd));
    if let Some(cfg) = &l.direct {
        let plain = mean_secs(3, || {
            sink(execute_direct(&l.input, &l.weights, l.params, cfg, EXEC_WORKERS))
        });
        let fused = mean_secs(3, || {
            sink(execute_direct_fused(
                &l.input,
                &l.weights,
                l.params,
                cfg,
                EXEC_WORKERS,
                Epilogue::Relu,
            ))
        });
        sheet.put("dataflow.fused_overhead", fused / plain);
    }
    // Computed, not measured: exact traffic of the served direct
    // configs against the lower bound at their own block memory, over
    // all of ResNet-18.
    let (mut modeled, mut lower, mut flops) = (0.0, 0.0, 0.0);
    for layer in &env.zoo[RESNET18].net.layers {
        let Some(served) = env.warm.tune_or_wait(&layer.shape, TileKind::Direct, &env.device)
        else {
            continue;
        };
        let report = analyze_direct(&layer.shape, &served.config);
        modeled += report.q_schedule;
        lower += report.q_lower;
        flops += layer.shape.flops() as f64;
    }
    sheet.put("dataflow.q_gap_direct", modeled / lower);
    sheet.put("dataflow.flops_per_qlower_byte", flops / (lower * 4.0));
}

/// The traced run: after a warm-up round, two rounds of the workload's
/// heavy stage with the tracer off and two with it on (their ratio is
/// the tracing overhead), then every layer probe.
pub fn traced_run(
    w: &Workload,
    sizes: &Sizes,
    run: &mut Run,
    env: &mut Env,
    tracer: &mut Tracer,
    scratch: &Path,
    tally: &mut Tally,
) -> Vec<Measured> {
    let mut sheet = Sheet(Vec::new());
    let mut rounds = |count, tracer: &mut Tracer| -> Vec<f64> {
        (0..count).map(|_| run.heavy_round(w, sizes, env, false, tracer, tally)).collect()
    };
    rounds(1, &mut Tracer::off()); // warm-up
    let untraced = rounds(2, &mut Tracer::off());
    let traced = rounds(2, tracer);
    sheet.put("trace.overhead_share", stats::median(&traced) / stats::median(&untraced) - 1.0);
    println!("span                     count     total_ms      self_ms");
    for (name, t) in tracer.totals() {
        println!(
            "{name:<22} {:>7} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    probe_core(&env.zoo, &env.device, &mut sheet);
    let serial_round_s = probe_tuning(env, &mut sheet);
    probe_threads(serial_round_s, &mut sheet, tally);
    let dir = scratch.join("probe");
    probe_records(env, &dir, &mut sheet);
    let (wire_us, frame_sizes) = probe_wire(env, &mut sheet);
    let embedded_us = probe_session(env, &mut sheet, tally);
    probe_daemon(env, &dir, wire_us, &frame_sizes, embedded_us, &mut sheet, tally);
    probe_small_layers(env, &mut sheet);
    let thin: Vec<&ExecLayer> =
        env.exec.iter().filter(|l| crate::workloads::THIN_EXEC_LAYERS.contains(&l.index)).collect();
    probe_compute(&thin, env, &mut sheet);
    let _ = std::fs::remove_dir_all(&dir);
    sheet.finish()
}
