//! `tune-bench` — measured performance trajectory points for the tuning
//! service and the compute kernels underneath it.
//!
//! ```console
//! $ tune-bench replay [--networks alexnet,squeezenet] [--clients N]
//!       [--repeat N] [--budget N] [--seed N] [--fuse] [-o BENCH_replay.json]
//! $ tune-bench kernels [--sizes 64,128,...] [--networks alexnet]
//!       [--reps N] [--threads N] [--max-layers N] [--sram-kib N]
//!       [-o BENCH_kernels.json]
//! ```
//!
//! `replay` drives a model-zoo traffic mix — every named network's conv
//! layers, duplicated `--repeat` times with deterministic shape jitter
//! on the copies — through N concurrent client threads, twice: once
//! against the embedded [`TuningService`] and once against an
//! in-process [`Daemon`] over its Unix socket. It reports throughput,
//! p50/p99 session latency (from the telemetry layer's
//! [`LatencyHistogram`]), hit rate and fresh-measurement counts per
//! mode as one schema-versioned flat JSON object (`BENCH_replay.json`,
//! validated in CI by `tune-cache check-bench`).
//!
//! With `--fuse`, `replay` additionally segments each named network
//! into fused conv→relu(→pool) blocks (`iolb_cnn::fusion`) and serves
//! the block batch twice through the same backends — once per-layer
//! (bare convs) and once as fused-chain workloads — recording the
//! fused-vs-fallback split and both serving plans' total modeled cost
//! (schema v3). The fused pass runs after the per-layer pass on the
//! same store, so gate-rejected chains resolve as shard hits: the
//! fallback's zero-extra-fresh-measurement property is measured, not
//! assumed. Embedded and daemon fused totals are asserted bit-identical
//! like the per-layer totals.
//!
//! `kernels` sweeps the scalar and vector compute kernels over square
//! GEMM sizes and the model zoo's conv layers (im2col on every layer,
//! Winograd `F(2,3)` where eligible), best-of-`--reps` wall time per
//! path. Each row carries GFLOP/s per path, the vector/scalar speedup,
//! and the shape's modeled slow-memory traffic against its `Q_lower`
//! I/O bound (the roofline gap). GEMM and im2col shapes are timed at
//! one thread and — when `--threads N` asks for more — again at `N`
//! threads, each as its own row (schema v2 rows carry `threads`), so
//! the artifact captures parallel scaling. It writes schema-versioned
//! JSON lines (`BENCH_kernels.json`, validated by `tune-cache
//! check-bench`).
//!
//! Latency and throughput are wall-clock and vary run to run; the
//! *results* do not — a replay's two modes run identical hermetic
//! sessions (summed session cost asserted bit-identical), and a kernel
//! sweep diffs the vector path's output bits against scalar on every
//! shape it times. Every benchmark run doubles as a correctness check.

use iolb_autotune::fusion::epilogue_unfused_ms;
use iolb_bench::{flag_path, flag_string, flag_value};
use iolb_cnn::layers::{ConvLayer, Network};
use iolb_cnn::{inference::time_network_with_backend, ServiceEconomics};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_core::{matmul, Algorithm, WinogradTile};
use iolb_gpusim::DeviceSpec;
use iolb_service::{
    shape_perturbations, Backend, BackendSession, Daemon, DaemonConfig, LatencyHistogram,
    ServiceConfig, ShardedStore, SocketBackend, TuneRequest, TuningService,
};
use iolb_tensor::conv_ref::ConvParams;
use iolb_tensor::gemm::{gemm_with_path, MatRef};
use iolb_tensor::im2col::conv2d_im2col_with_path;
use iolb_tensor::kernel::KernelPath;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_conv::{conv2d_winograd_with_plan_path, WinogradPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tune-bench replay  [--networks A,B,...] [--clients N] [--repeat N]\n\
         \u{20}                        [--budget N] [--seed N] [--jitter] [--fuse] [-o FILE]\n\
         \u{20}      tune-bench kernels [--sizes N,N,...] [--networks A,B,...] [--reps N]\n\
         \u{20}                        [--threads N] [--max-layers N] [--sram-kib N]\n\
         \u{20}                        [-o FILE]\n\
         \n\
         replay: drive a model-zoo traffic mix (each network's conv layers,\n\
         duplicated --repeat times with deterministic shape jitter) through\n\
         N client threads, against the embedded service and against an\n\
         in-process daemon, and write one flat JSON summary (default\n\
         BENCH_replay.json): throughput, p50/p99 session latency, hit rate,\n\
         anchored hit rate, fresh measurements per mode. Fails unless both\n\
         modes' total costs are bit-identical (hermetic tuning).\n\
         \n\
         --jitter warms each backend on the unjittered zoo shapes first,\n\
         then replays every copy with in-anchor-bucket shape jitter, so the\n\
         measured phase exercises anchored transfer serving directly.\n\
         \n\
         --fuse additionally segments each named network into fused\n\
         conv->relu(->pool) blocks and serves the block batch per-layer and\n\
         fused through both backends, recording the fused-vs-fallback split\n\
         and both plans' total cost (fused must come out below per-layer).\n\
         \n\
         kernels: sweep the scalar vs vector compute kernels over square\n\
         GEMM sizes (--sizes, default 64,128,256,512) and each named\n\
         network's conv layers (im2col everywhere, Winograd F(2,3) where\n\
         eligible; --max-layers caps layers per network), best of --reps\n\
         runs per path; GEMM and im2col shapes are re-timed at --threads N\n\
         as their own rows when N > 1. Write JSON lines (default\n\
         BENCH_kernels.json): one header, then per shape GFLOP/s per path,\n\
         vector/scalar speedup, and modeled bytes moved vs the Q_lower\n\
         bound (--sram-kib fast memory, default 32). Fails unless the\n\
         vector path's output bits match scalar on every shape."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replay") => run_replay(&args[1..]),
        Some("kernels") => run_kernels(&args[1..]),
        _ => usage(),
    }
}

fn run_replay(rest: &[String]) -> ExitCode {
    let networks = flag_string(rest, "--networks").unwrap_or_else(|| "alexnet,squeezenet".into());
    let clients = flag_value(rest, "--clients").unwrap_or(2).max(1);
    let repeat = flag_value(rest, "--repeat").unwrap_or(2).max(1);
    let budget = flag_value(rest, "--budget").unwrap_or(16);
    let seed = flag_value(rest, "--seed").unwrap_or(7) as u64;
    let jitter_mode = rest.iter().any(|a| a == "--jitter");
    let fuse_mode = rest.iter().any(|a| a == "--fuse");
    let out = flag_path(rest, "-o").unwrap_or_else(|| PathBuf::from("BENCH_replay.json"));

    let config = ServiceConfig {
        budget_per_workload: budget,
        workers: 0, // clients tune inline; keeps the replay deterministic
        speculate_neighbors: false,
        seed,
        ..ServiceConfig::default()
    };

    let (mix, warm) = match build_mix(&networks, repeat, jitter_mode, config.anchor_floor) {
        Ok(built) => built,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let requests_hint: usize = mix.iter().map(|n| n.layers.len()).sum();
    eprintln!(
        "replaying {} session(s) ({requests_hint} layer(s)) over {clients} client thread(s), \
         budget {budget}, seed {seed}{}",
        mix.len(),
        if jitter_mode { ", in-bucket jitter (anchored serving)" } else { "" },
    );

    // Mode 1: embedded — every client thread drives one shared service.
    let service = TuningService::new(ShardedStore::new(), config);
    let embedded = run_mode(&mix, &warm, clients, || Ok(service.clone()));
    let embedded = match embedded {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: embedded replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Mode 2: daemon — the same mix over a Unix socket against a fresh
    // in-process daemon (own shard directory, own store).
    let daemon = match run_daemon_mode(&mix, &warm, clients, config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: daemon replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The two modes ran the identical hermetic sessions; their summed
    // costs must agree to the bit or one of the serving paths is broken.
    if embedded.total_cost_ms.to_bits() != daemon.total_cost_ms.to_bits() {
        eprintln!(
            "error: embedded ({}) and daemon ({}) total costs differ — serving is not hermetic",
            embedded.total_cost_ms, daemon.total_cost_ms
        );
        return ExitCode::FAILURE;
    }

    // The optional fusion comparison: fused-chain serving vs the
    // per-layer plan, through the embedded service *and* a fresh
    // daemon (the totals must match to the bit, like the main replay).
    let fuse = if fuse_mode {
        let zoo_nets = match named_networks(&networks) {
            Ok(nets) => nets,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let fuse_embedded = {
            let service = TuningService::new(ShardedStore::new(), config);
            fuse_pass(&zoo_nets, &service)
        };
        let fuse_embedded = match fuse_embedded {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: embedded fused replay failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let fuse_daemon = match run_fuse_daemon(&zoo_nets, config) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: daemon fused replay failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if fuse_embedded.fused_total_ms.to_bits() != fuse_daemon.fused_total_ms.to_bits()
            || fuse_embedded.perlayer_total_ms.to_bits() != fuse_daemon.perlayer_total_ms.to_bits()
        {
            eprintln!(
                "error: embedded and daemon fused totals differ \
                 ({} vs {} fused, {} vs {} per-layer) — fused serving is not hermetic",
                fuse_embedded.fused_total_ms,
                fuse_daemon.fused_total_ms,
                fuse_embedded.perlayer_total_ms,
                fuse_daemon.perlayer_total_ms,
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "fusion: {} block(s) — {} fused, {} fallback(s); \
             fused plan {:.6} ms vs per-layer {:.6} ms \
             ({} fresh measurement(s) vs {} for the per-layer pass)",
            fuse_embedded.blocks,
            fuse_embedded.fused,
            fuse_embedded.fallbacks,
            fuse_embedded.fused_total_ms,
            fuse_embedded.perlayer_total_ms,
            fuse_embedded.fused_fresh,
            fuse_embedded.baseline_fresh,
        );
        Some(fuse_embedded)
    } else {
        None
    };

    let line = format!(
        "{{\"schema\":\"iolb-bench-replay\",\"v\":3,\"networks\":\"{}\",\"clients\":{clients},\
         \"repeat\":{repeat},\"budget\":{budget},\"seed\":{seed},\"jitter\":{},\
         \"anchor_floor\":{},\"transfer_gap_permille\":{},\"sessions\":{},\"requests\":{}{}{}{}}}",
        iolb_records::jsonl::escape(&networks),
        u8::from(jitter_mode),
        config.anchor_floor,
        config.transfer_gap_permille,
        mix.len(),
        embedded.requests,
        mode_fields("embedded", &embedded),
        mode_fields("daemon", &daemon),
        fuse_fields(fuse.as_ref()),
    );
    if let Err(e) = std::fs::write(&out, format!("{line}\n")) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{line}");
    eprintln!("wrote {}", out.display());
    ExitCode::SUCCESS
}

/// One swept shape's measurements: both kernel paths timed
/// (best-of-reps), outputs diffed to the bit, traffic modeled against
/// the shape's I/O lower bound.
struct KernelRow {
    /// `"gemm"` or `"conv"`.
    kind: &'static str,
    /// Diagnostic name, e.g. `"gemm-512"` or `"alexnet/conv3"`.
    name: String,
    /// Algorithm label: `"blocked"` for GEMM, `"im2col"`/`"winograd"`
    /// for conv layers.
    algo: &'static str,
    /// Human-readable shape, e.g. `"512x512x512"`.
    shape: String,
    /// Worker threads this row was timed with (Winograd rows are
    /// always 1 — that path has no thread knob).
    threads: usize,
    /// FLOPs of one run (the crate's own accounting).
    flops: f64,
    /// Best-of-reps wall seconds per path.
    scalar_s: f64,
    vector_s: f64,
    /// Modeled traffic of the blocked/dataflow schedule vs the bound,
    /// in bytes (`f32` elements x 4).
    q_lower_bytes: f64,
    q_sched_bytes: f64,
}

impl KernelRow {
    fn scalar_gflops(&self) -> f64 {
        self.flops / self.scalar_s / 1e9
    }

    fn vector_gflops(&self) -> f64 {
        self.flops / self.vector_s / 1e9
    }

    fn speedup(&self) -> f64 {
        self.scalar_s / self.vector_s
    }

    /// Modeled-schedule bytes over bound bytes; `None` when the bound
    /// degenerates to 0 (shape fits in fast memory — no gap to speak
    /// of, and a `0` would read as "on the roofline").
    fn roofline_gap(&self) -> Option<f64> {
        (self.q_lower_bytes > 0.0).then(|| self.q_sched_bytes / self.q_lower_bytes)
    }

    fn json_line(&self) -> String {
        format!(
            "{{\"row\":\"{}\",\"name\":\"{}\",\"algo\":\"{}\",\"shape\":\"{}\",\"threads\":{},\
             \"gflop\":{},\"scalar_gflops\":{},\"vector_gflops\":{},\"speedup\":{},\
             \"q_lower_bytes\":{},\"q_sched_bytes\":{}{}}}",
            self.kind,
            iolb_records::jsonl::escape(&self.name),
            self.algo,
            iolb_records::jsonl::escape(&self.shape),
            self.threads,
            self.flops / 1e9,
            self.scalar_gflops(),
            self.vector_gflops(),
            self.speedup(),
            self.q_lower_bytes,
            self.q_sched_bytes,
            self.roofline_gap().map_or(String::new(), |g| format!(",\"roofline_gap\":{g}")),
        )
    }
}

/// Times `work` `reps` times and returns the best wall seconds — the
/// noise-robust estimator on a shared machine (any interference only
/// inflates a sample, never deflates it). Scalar and vector runs are
/// interleaved by the caller so drift hits both paths alike.
fn best_of(reps: usize, mut work: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        work();
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// The `kernels` subcommand: sweep scalar vs vector kernels over GEMM
/// sizes and model-zoo conv layers, write `BENCH_kernels.json`.
fn run_kernels(rest: &[String]) -> ExitCode {
    let sizes_arg = flag_string(rest, "--sizes").unwrap_or_else(|| "64,128,256,512".into());
    let networks = flag_string(rest, "--networks").unwrap_or_else(|| "alexnet".into());
    let reps = flag_value(rest, "--reps").unwrap_or(3).max(1);
    let threads = flag_value(rest, "--threads").unwrap_or(1).max(1);
    let max_layers = flag_value(rest, "--max-layers").unwrap_or(usize::MAX).max(1);
    let sram_kib = flag_value(rest, "--sram-kib").unwrap_or(32).max(1);
    let out = flag_path(rest, "-o").unwrap_or_else(|| PathBuf::from("BENCH_kernels.json"));

    let mut sizes = Vec::new();
    for part in sizes_arg.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match part.parse::<usize>() {
            Ok(m) if m >= 1 => sizes.push(m),
            _ => {
                eprintln!("error: bad --sizes entry {part:?}");
                return ExitCode::from(2);
            }
        }
    }
    if sizes.is_empty() {
        eprintln!("error: --sizes is empty");
        return ExitCode::from(2);
    }

    // Fast-memory size in f32 elements for the Q_lower / schedule models.
    let s = (sram_kib * 1024 / 4) as f64;
    // Every GEMM / im2col shape is timed single-threaded and — when
    // --threads asks for more — again at N threads, as its own row.
    let thread_counts: Vec<usize> = if threads > 1 { vec![1, threads] } else { vec![1] };
    let mut rows: Vec<KernelRow> = Vec::new();
    let mut rng = StdRng::seed_from_u64(42);

    for &m in &sizes {
        eprintln!("gemm {m}x{m}x{m} ...");
        match gemm_rows(m, reps, &thread_counts, s, &mut rng) {
            Ok(mut size_rows) => rows.append(&mut size_rows),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let zoo = iolb_cnn::models::all_networks();
    for name in networks.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let wanted = name.to_ascii_lowercase();
        let Some(net) = zoo.iter().find(|n| n.name.to_ascii_lowercase() == wanted) else {
            eprintln!(
                "error: unknown network {name:?}; known: {}",
                zoo.iter().map(|n| n.name.to_ascii_lowercase()).collect::<Vec<_>>().join(", ")
            );
            return ExitCode::from(2);
        };
        for layer in net.layers.iter().take(max_layers) {
            eprintln!("conv {}/{} ...", net.name, layer.name);
            match conv_rows(net.name, layer, reps, &thread_counts, s, &mut rng) {
                Ok(mut layer_rows) => rows.append(&mut layer_rows),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut text = format!(
        "{{\"schema\":\"iolb-bench-kernels\",\"v\":2,\"sizes\":\"{}\",\"networks\":\"{}\",\
         \"reps\":{reps},\"threads\":{threads},\"sram_kib\":{sram_kib},\"rows\":{}}}\n",
        iolb_records::jsonl::escape(&sizes_arg),
        iolb_records::jsonl::escape(&networks),
        rows.len(),
    );
    for row in &rows {
        text.push_str(&row.json_line());
        text.push('\n');
    }
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    print!("{text}");
    eprintln!("wrote {}", out.display());
    ExitCode::SUCCESS
}

/// The rows for one square `m x m x m` GEMM — one per thread count,
/// same inputs: both paths timed, outputs diffed to the bit, bound and
/// blocked-schedule traffic from `iolb_core`.
fn gemm_rows(
    m: usize,
    reps: usize,
    thread_counts: &[usize],
    s: f64,
    rng: &mut StdRng,
) -> Result<Vec<KernelRow>, String> {
    let a: Vec<f32> = (0..m * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..m * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let a_ref = MatRef::new(&a, m, m);
    let b_ref = MatRef::new(&b, m, m);
    let shape = matmul::MatmulShape::new(m);
    let mut rows = Vec::new();
    for &threads in thread_counts {
        let mut c_scalar = vec![0.0f32; m * m];
        let mut c_vector = vec![0.0f32; m * m];
        let scalar_s = best_of(reps, || {
            gemm_with_path(a_ref, b_ref, &mut c_scalar, threads, KernelPath::Scalar)
        });
        let vector_s = best_of(reps, || {
            gemm_with_path(a_ref, b_ref, &mut c_vector, threads, KernelPath::Vector)
        });
        if c_scalar.iter().zip(&c_vector).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return Err(format!(
                "gemm {m} ({threads} thread(s)): vector output differs from scalar — kernel bug"
            ));
        }
        rows.push(KernelRow {
            kind: "gemm",
            name: format!("gemm-{m}"),
            algo: "blocked",
            shape: format!("{m}x{m}x{m}"),
            threads,
            flops: 2.0 * shape.macs() as f64,
            scalar_s,
            vector_s,
            q_lower_bytes: matmul::io_lower_bound(&shape, s) * 4.0,
            q_sched_bytes: matmul::blocked_schedule_io(&shape, s) * 4.0,
        });
    }
    Ok(rows)
}

/// The rows for one conv layer: im2col + GEMM always (one row per
/// thread count), Winograd `F(2,3)` when the layer is eligible (that
/// path has no thread knob — one single-threaded row). Traffic models
/// come from the paper's per-algorithm bounds and near-optimal
/// dataflow volumes.
fn conv_rows(
    net: &str,
    layer: &ConvLayer,
    reps: usize,
    thread_counts: &[usize],
    s: f64,
    rng: &mut StdRng,
) -> Result<Vec<KernelRow>, String> {
    let shape = &layer.shape;
    let params = ConvParams::new(shape.stride, shape.pad);
    let input = Tensor4::random(shape.batch, shape.cin, shape.hin, shape.win, rng);
    let weights = Tensor4::random(shape.cout, shape.cin, shape.kh, shape.kw, rng);
    let shape_str = format!(
        "{}x{}x{}->{} {}x{}/{}+{}",
        shape.cin, shape.hin, shape.win, shape.cout, shape.kh, shape.kw, shape.stride, shape.pad
    );
    let mut rows = Vec::new();

    for &threads in thread_counts {
        let mut out_scalar = None;
        let mut out_vector = None;
        let scalar_s = best_of(reps, || {
            out_scalar = Some(conv2d_im2col_with_path(
                &input,
                &weights,
                params,
                threads,
                KernelPath::Scalar,
            ));
        });
        let vector_s = best_of(reps, || {
            out_vector = Some(conv2d_im2col_with_path(
                &input,
                &weights,
                params,
                threads,
                KernelPath::Vector,
            ));
        });
        bit_diff(&out_scalar.unwrap(), &out_vector.unwrap())
            .map_err(|e| format!("{net}/{} im2col ({threads} thread(s)): {e}", layer.name))?;
        rows.push(KernelRow {
            kind: "conv",
            name: format!("{net}/{}", layer.name),
            algo: "im2col",
            shape: shape_str.clone(),
            threads,
            flops: Algorithm::Direct.flops(shape),
            scalar_s,
            vector_s,
            q_lower_bytes: Algorithm::Direct.io_lower_bound(shape, s) * 4.0,
            q_sched_bytes: Algorithm::Direct.dataflow_io(shape, s, 1.0) * 4.0,
        });
    }

    if layer.winograd_eligible() {
        let tile = WinogradTile::F2X3;
        let plan = WinogradPlan::new(&weights, tile.e);
        let mut out_scalar = None;
        let mut out_vector = None;
        let scalar_s = best_of(reps, || {
            out_scalar =
                Some(conv2d_winograd_with_plan_path(&input, &plan, params, KernelPath::Scalar));
        });
        let vector_s = best_of(reps, || {
            out_vector =
                Some(conv2d_winograd_with_plan_path(&input, &plan, params, KernelPath::Vector));
        });
        bit_diff(&out_scalar.unwrap(), &out_vector.unwrap())
            .map_err(|e| format!("{net}/{} winograd: {e}", layer.name))?;
        let algo = Algorithm::Winograd(tile);
        rows.push(KernelRow {
            kind: "conv",
            name: format!("{net}/{}", layer.name),
            algo: "winograd",
            shape: shape_str,
            threads: 1,
            flops: algo.flops(shape),
            scalar_s,
            vector_s,
            q_lower_bytes: algo.io_lower_bound(shape, s) * 4.0,
            q_sched_bytes: algo.dataflow_io(shape, s, 1.0) * 4.0,
        });
    }
    Ok(rows)
}

/// Errors unless the two tensors are bit-identical — every sweep run
/// doubles as a scalar-vs-vector correctness check.
fn bit_diff(scalar: &Tensor4, vector: &Tensor4) -> Result<(), String> {
    let differs =
        scalar.as_slice().iter().zip(vector.as_slice()).any(|(x, y)| x.to_bits() != y.to_bits());
    if differs {
        Err("vector output differs from scalar — kernel bug".to_string())
    } else {
        Ok(())
    }
}

/// One serving mode's aggregate outcome.
struct ModeOutcome {
    sessions: usize,
    requests: usize,
    fresh: usize,
    hits: usize,
    anchored: usize,
    retunes: usize,
    wall: Duration,
    latency: LatencyHistogram,
    /// Sum of per-session total costs, accumulated in mix order so the
    /// embedded/daemon comparison is bit-exact.
    total_cost_ms: f64,
}

/// `"{mode}_*"` fields of the summary line.
fn mode_fields(mode: &str, o: &ModeOutcome) -> String {
    let wall_s = o.wall.as_secs_f64();
    let throughput = if wall_s > 0.0 { o.sessions as f64 / wall_s } else { 0.0 };
    let rate = |n: usize| if o.requests == 0 { 0.0 } else { n as f64 / o.requests as f64 };
    format!(
        ",\"{mode}_throughput_rps\":{throughput},\
         \"{mode}_p50_ms\":{},\"{mode}_p99_ms\":{},\
         \"{mode}_hit_rate\":{},\"{mode}_anchored_hit_rate\":{},\
         \"{mode}_anchored\":{},\"{mode}_retunes\":{},\
         \"{mode}_fresh\":{},\"{mode}_total_cost_ms\":{}",
        o.latency.quantile(0.5) as f64 / 1000.0,
        o.latency.quantile(0.99) as f64 / 1000.0,
        rate(o.hits),
        rate(o.anchored),
        o.anchored,
        o.retunes,
        o.fresh,
        o.total_cost_ms,
    )
}

/// Builds the traffic mix plus the warm-up networks.
///
/// Default mode: every named network's conv layers, `repeat` copies
/// each — copy 0 verbatim, later copies jittered through the service's
/// own perturbation neighborhood (deterministically — no clock, no
/// RNG), modelling near-duplicate traffic the way the paper's
/// speculation story does. No warm-up.
///
/// Jitter mode (`--jitter`): the warm-up list is the zoo networks
/// verbatim and *every* measured copy applies in-anchor-bucket jitter
/// ([`bucket_jitter`]), so each measured request is an exact miss whose
/// anchor bucket the warm phase already tuned — the anchored-serving
/// trajectory.
fn build_mix(
    networks: &str,
    repeat: usize,
    jitter_mode: bool,
    anchor_floor: usize,
) -> Result<(Vec<Network>, Vec<Network>), String> {
    let zoo = iolb_cnn::models::all_networks();
    let mut mix = Vec::new();
    let mut warm = Vec::new();
    for name in networks.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let wanted = name.to_ascii_lowercase();
        let net = zoo.iter().find(|n| n.name.to_ascii_lowercase() == wanted).ok_or_else(|| {
            format!(
                "unknown network {name:?}; known: {}",
                zoo.iter().map(|n| n.name.to_ascii_lowercase()).collect::<Vec<_>>().join(", ")
            )
        })?;
        if jitter_mode {
            warm.push(Network { name: net.name, layers: net.layers.clone() });
        }
        for copy in 0..repeat {
            let layers: Vec<ConvLayer> = net
                .layers
                .iter()
                .enumerate()
                .map(|(at, layer)| {
                    let shape = if jitter_mode {
                        bucket_jitter(&layer.shape, anchor_floor, copy * 31 + at + 1)
                    } else if copy == 0 {
                        layer.shape
                    } else {
                        jitter(&layer.shape, copy + at)
                    };
                    ConvLayer::new(format!("{}#{copy}", layer.name), shape)
                })
                .collect();
            mix.push(Network { name: net.name, layers });
        }
    }
    if mix.is_empty() {
        return Err("no networks in --networks".to_string());
    }
    Ok((mix, warm))
}

/// Deterministic shape jitter: the `salt`-th valid perturbation
/// neighbor, or the shape itself when it has none.
fn jitter(shape: &ConvShape, salt: usize) -> ConvShape {
    let neighbors = shape_perturbations(shape);
    if neighbors.is_empty() {
        *shape
    } else {
        neighbors[salt % neighbors.len()].0
    }
}

/// Deterministic *in-anchor-bucket* jitter of one dimension: decrement
/// by 1..=3 (salted), but never past the bucket's lower edge (the next
/// power of two's half, exclusive) or the anchor floor — so the
/// jittered dimension provably shares the original's anchor bucket
/// ([`iolb_autotune::plan::anchor_dim`]). Dimensions at or below the
/// floor anchor exactly and stay untouched.
fn bucket_jitter_dim(d: usize, floor: usize, salt: usize) -> usize {
    let lo = (d.next_power_of_two() / 2 + 1).max(floor + 1);
    if d <= lo {
        return d;
    }
    let span = d - lo;
    d - (1 + salt % span.min(3))
}

/// In-bucket jitter of a layer shape: spatial extents and channel
/// counts move within their anchor buckets; filter geometry, stride,
/// padding and batch (the exact-match anchor fields) stay put.
fn bucket_jitter(shape: &ConvShape, floor: usize, salt: usize) -> ConvShape {
    ConvShape {
        cin: bucket_jitter_dim(shape.cin, floor, salt),
        hin: bucket_jitter_dim(shape.hin, floor, salt + 1),
        win: bucket_jitter_dim(shape.win, floor, salt + 1),
        cout: bucket_jitter_dim(shape.cout, floor, salt + 2),
        ..*shape
    }
}

/// Replays the whole mix through `clients` threads, each with its own
/// backend from `make_backend`. Sessions are claimed off a shared
/// cursor; per-session wall latency lands in one merged histogram and
/// per-session costs are summed in mix order. The `warm` networks run
/// first, sequentially, on one backend — outside the measured window
/// and outside every counter (they pre-tune the anchor buckets for a
/// `--jitter` replay).
fn run_mode<B, F>(
    mix: &[Network],
    warm: &[Network],
    clients: usize,
    make_backend: F,
) -> Result<ModeOutcome, String>
where
    B: Backend,
    F: Fn() -> Result<B, String> + Sync,
{
    let device = DeviceSpec::v100();
    if !warm.is_empty() {
        let backend = make_backend()?;
        for net in warm {
            time_network_with_backend(net, &device, &backend)
                .map_err(|e| format!("warm-up of {}: {e}", net.name))?;
        }
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(f64, ServiceEconomics, u64)>>> = Mutex::new(vec![None; mix.len()]);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let backend = match make_backend() {
                    Ok(backend) => backend,
                    Err(e) => {
                        failure.lock().unwrap().get_or_insert(e);
                        return;
                    }
                };
                loop {
                    let at = cursor.fetch_add(1, Ordering::SeqCst);
                    if at >= mix.len() {
                        return;
                    }
                    let session_started = Instant::now();
                    match time_network_with_backend(&mix[at], &device, &backend) {
                        Ok((timed, eco)) => {
                            let us = u64::try_from(session_started.elapsed().as_micros())
                                .unwrap_or(u64::MAX);
                            slots.lock().unwrap()[at] = Some((timed.ours_ms, eco, us));
                        }
                        Err(e) => {
                            failure.lock().unwrap().get_or_insert(format!("session {at}: {e}"));
                            return;
                        }
                    }
                }
            });
        }
    });
    let wall = started.elapsed();
    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    let slots = slots.into_inner().unwrap();
    let mut outcome = ModeOutcome {
        sessions: mix.len(),
        requests: 0,
        fresh: 0,
        hits: 0,
        anchored: 0,
        retunes: 0,
        wall,
        latency: LatencyHistogram::new(),
        total_cost_ms: 0.0,
    };
    for slot in slots {
        let (cost, eco, us) = slot.ok_or("a session was never run")?;
        outcome.total_cost_ms += cost;
        outcome.requests += eco.shard_hits + eco.stolen + eco.inline_tuned + eco.anchored;
        outcome.fresh += eco.fresh_measurements;
        outcome.hits += eco.shard_hits;
        outcome.anchored += eco.anchored;
        outcome.retunes += eco.transfer_retunes;
        outcome.latency.record(us);
    }
    Ok(outcome)
}

/// The daemon mode: bind an in-process [`Daemon`] on a scratch shard
/// directory, replay the mix over its Unix socket (one connection per
/// client thread), then shut it down and clean up.
fn run_daemon_mode(
    mix: &[Network],
    warm: &[Network],
    clients: usize,
    config: ServiceConfig,
) -> Result<ModeOutcome, String> {
    let dir = std::env::temp_dir().join(format!("iolb-tune-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let sock = dir.join("daemon.sock");
    let daemon_config = DaemonConfig {
        service: config,
        merge_interval: Duration::from_millis(200),
        ..DaemonConfig::default()
    };
    let (daemon, _report) = Daemon::bind(&dir, &sock, daemon_config)
        .map_err(|e| format!("cannot bind replay daemon: {e}"))?;
    let server = std::thread::spawn(move || daemon.run());
    let outcome = run_mode(mix, warm, clients, || {
        SocketBackend::connect(&sock).map_err(|e| format!("cannot connect to replay daemon: {e}"))
    });
    let stop = SocketBackend::connect(&sock)
        .map_err(|e| format!("cannot connect for shutdown: {e}"))
        .and_then(|b| b.shutdown().map_err(|e| format!("daemon shutdown failed: {e}")));
    let run = server.join().map_err(|_| "replay daemon panicked".to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    stop?;
    run.map_err(|e| format!("replay daemon failed: {e}"))?;
    outcome
}

/// Resolves a comma-separated `--networks` list against the model zoo.
fn named_networks(networks: &str) -> Result<Vec<Network>, String> {
    let zoo = iolb_cnn::models::all_networks();
    let mut nets = Vec::new();
    for name in networks.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let wanted = name.to_ascii_lowercase();
        let net = zoo.iter().find(|n| n.name.to_ascii_lowercase() == wanted).ok_or_else(|| {
            format!(
                "unknown network {name:?}; known: {}",
                zoo.iter().map(|n| n.name.to_ascii_lowercase()).collect::<Vec<_>>().join(", ")
            )
        })?;
        nets.push(Network { name: net.name, layers: net.layers.clone() });
    }
    if nets.is_empty() {
        return Err("no networks in --networks".to_string());
    }
    Ok(nets)
}

/// The `--fuse` comparison's aggregate outcome over one backend.
#[derive(Default)]
struct FuseOutcome {
    /// Conv blocks proposed by segmentation (repeats counted once).
    blocks: usize,
    /// Chains the analytic gate approved (served fused).
    fused: usize,
    /// Chains the gate rewrote to their per-layer fallback.
    fallbacks: usize,
    /// Total cost of the fused serving plan: fused-chain cost for
    /// approved blocks (the epilogue rides inside the measurement),
    /// bare conv + modeled unfused epilogue for fallbacks. Layer
    /// repeats multiply.
    fused_total_ms: f64,
    /// Total cost of the per-layer plan: bare conv best + modeled
    /// unfused epilogue for every block.
    perlayer_total_ms: f64,
    /// Fresh measurements of the fused pass (fallback chains resolve
    /// from the per-layer pass's records — only approved chains cost
    /// anything here).
    fused_fresh: usize,
    /// Fresh measurements of the per-layer pass.
    baseline_fresh: usize,
}

/// Segments each network and serves its conv blocks twice through one
/// backend: per-layer first, then as fused-chain requests. Running both
/// passes over the same store makes the fallback economics measurable —
/// a gate-rejected chain dedupes against the per-layer pass's records
/// and must cost zero extra fresh measurements.
fn fuse_pass<B: Backend>(nets: &[Network], backend: &B) -> Result<FuseOutcome, String> {
    let device = DeviceSpec::v100();
    let mut out = FuseOutcome::default();
    for net in nets {
        let ops = iolb_cnn::fusion::op_stream(net);
        let blocks: Vec<_> =
            iolb_cnn::fusion::segment(&ops).into_iter().filter(|b| b.conv.is_some()).collect();
        let bare: Vec<TuneRequest> = blocks
            .iter()
            .map(|b| TuneRequest::bare(b.conv.as_ref().expect("filtered").shape, TileKind::Direct))
            .collect();
        let fused: Vec<TuneRequest> = blocks
            .iter()
            .map(|b| {
                TuneRequest::fused(
                    b.conv.as_ref().expect("filtered").shape,
                    TileKind::Direct,
                    b.epilogue,
                )
            })
            .collect();
        let bare_results = backend
            .submit_batch(&bare, &device)
            .and_then(|s| s.wait())
            .map_err(|e| format!("{} per-layer pass: {e}", net.name))?;
        let fused_results = backend
            .submit_batch(&fused, &device)
            .and_then(|s| s.wait())
            .map_err(|e| format!("{} fused pass: {e}", net.name))?;
        for (block, (bare, fused)) in blocks.iter().zip(bare_results.iter().zip(&fused_results)) {
            let layer = block.conv.as_ref().expect("filtered");
            let bare = bare.as_ref().ok_or_else(|| format!("{} is infeasible", layer.name))?;
            let fused = fused.as_ref().ok_or_else(|| format!("{} is infeasible", layer.name))?;
            let repeat = layer.repeat as f64;
            let epilogue_ms = epilogue_unfused_ms(&layer.shape, block.epilogue, &device);
            out.perlayer_total_ms += repeat * (bare.cost_ms + epilogue_ms);
            out.fused_total_ms +=
                repeat * if fused.fused { fused.cost_ms } else { fused.cost_ms + epilogue_ms };
            out.blocks += 1;
            if !block.epilogue.is_none() {
                if fused.fused {
                    out.fused += 1;
                } else {
                    out.fallbacks += 1;
                }
            }
            out.baseline_fresh += bare.fresh_measurements;
            out.fused_fresh += fused.fresh_measurements;
        }
    }
    Ok(out)
}

/// The daemon leg of the `--fuse` comparison: bind a fresh in-process
/// daemon on a scratch directory, run both passes over its Unix socket
/// (exercising the wire protocol's fused-chain grammar), shut down.
fn run_fuse_daemon(nets: &[Network], config: ServiceConfig) -> Result<FuseOutcome, String> {
    let dir = std::env::temp_dir().join(format!("iolb-tune-bench-fuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let sock = dir.join("daemon.sock");
    let daemon_config = DaemonConfig {
        service: config,
        merge_interval: Duration::from_millis(200),
        ..DaemonConfig::default()
    };
    let (daemon, _report) = Daemon::bind(&dir, &sock, daemon_config)
        .map_err(|e| format!("cannot bind fuse daemon: {e}"))?;
    let server = std::thread::spawn(move || daemon.run());
    let outcome = SocketBackend::connect(&sock)
        .map_err(|e| format!("cannot connect to fuse daemon: {e}"))
        .and_then(|backend| fuse_pass(nets, &backend));
    let stop = SocketBackend::connect(&sock)
        .map_err(|e| format!("cannot connect for shutdown: {e}"))
        .and_then(|b| b.shutdown().map_err(|e| format!("daemon shutdown failed: {e}")));
    let run = server.join().map_err(|_| "fuse daemon panicked".to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    stop?;
    run.map_err(|e| format!("fuse daemon failed: {e}"))?;
    outcome
}

/// The `fuse*` fields of the v3 summary line; `"fuse":0` alone when the
/// comparison did not run.
fn fuse_fields(fuse: Option<&FuseOutcome>) -> String {
    match fuse {
        None => ",\"fuse\":0".to_string(),
        Some(f) => format!(
            ",\"fuse\":1,\"fuse_blocks\":{},\"fuse_fused\":{},\"fuse_fallbacks\":{},\
             \"fused_total_cost_ms\":{},\"perlayer_total_cost_ms\":{},\
             \"fuse_fresh\":{},\"fuse_baseline_fresh\":{}",
            f.blocks,
            f.fused,
            f.fallbacks,
            f.fused_total_ms,
            f.perlayer_total_ms,
            f.fused_fresh,
            f.baseline_fresh,
        ),
    }
}
