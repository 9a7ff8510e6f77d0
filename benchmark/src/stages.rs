//! The kinds of work a workload is mixed from — cold tuning, hit and
//! novel sessions, executing convolutions — each as a function that runs
//! one round of fixed work through public calls of the product and
//! checks every output. `workloads` decides how many rounds of which.

use crate::inputs::{self, NetPlan, NovelShapes};
use crate::trace::Tracer;
use crate::watchdog;
use conv_iolb::cnn::inference::TUNER_SEED;
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::{ConvShape, WinogradTile};
use conv_iolb::dataflow::{execute_direct, execute_winograd, ScheduleConfig};
use conv_iolb::gpusim::DeviceSpec;
use conv_iolb::records::Workload;
use conv_iolb::service::{
    Backend, BackendSession, Daemon, DaemonConfig, EvictionPolicy, ServeResult, ServeSource,
    ServiceConfig, ShardedStore, SocketBackend, TuneRequest, TuningService,
};
use conv_iolb::tensor::{conv2d_im2col, conv2d_reference, ConvParams, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Budget of the store every workload serves from (pre-filled at
/// set-up) and of the inline tunes novel sessions trigger against it.
pub const SERVE_BUDGET: usize = 16;
/// Budget of the cold tuning stage.
pub const TUNE_BUDGET: usize = 32;
/// Executors run single-threaded in end-to-end runs (README, "Threads").
pub const EXEC_WORKERS: usize = 1;

/// Operations attempted and failed. Every correctness check is an
/// operation, so a wrong output shows as a failed one.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// The first few failures, for the report.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// The product's settings in every workload: no background workers and
/// no speculation, so nothing tunes behind the benchmark's back, and the
/// pinned tuner seed, so the same shapes always get the same configs.
pub fn service_config(budget: usize) -> ServiceConfig {
    ServiceConfig {
        budget_per_workload: budget,
        workers: 0,
        speculate_neighbors: false,
        seed: TUNER_SEED,
        ..ServiceConfig::default()
    }
}

/// How a workload's sessions reach the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Serving {
    /// Calls into an in-process `TuningService`.
    Embedded,
    /// An in-process `Daemon` over its Unix socket.
    Daemon { merge_interval: Duration, evict: Option<EvictionPolicy> },
}

pub struct RunningDaemon {
    pub dir: PathBuf,
    pub socket: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// One layer the exec stage runs, with everything fixed at set-up.
pub struct ExecLayer {
    /// Index into ResNet-18's inventory.
    pub index: usize,
    pub name: String,
    pub shape: ConvShape,
    pub input: Tensor4,
    pub weights: Tensor4,
    pub params: ConvParams,
    reference: Tensor4,
    /// Served direct config, when it divides the output exactly.
    pub direct: Option<ScheduleConfig>,
    /// Served F(2,3) config, when the layer is 3×3/s1 and the tile meets
    /// the executor's exact-division preconditions.
    pub winograd: Option<ScheduleConfig>,
}

/// What set-up leaves behind for the stages.
pub struct Env {
    pub device: DeviceSpec,
    pub zoo: Vec<NetPlan>,
    /// Embedded service over the pre-filled store.
    pub warm: TuningService,
    /// Per zoo network: bits of the summed cost of its bare session as
    /// the pre-fill served it.
    pub expected: Vec<u64>,
    pub daemon: Option<RunningDaemon>,
    pub exec: Vec<ExecLayer>,
    pub novel: NovelShapes,
    pub rng: StdRng,
}

fn sum_cost_bits(results: &[Option<ServeResult>]) -> u64 {
    results.iter().flatten().map(|r| r.cost_ms).sum::<f64>().to_bits()
}

/// A path as short as the current directory allows: Unix socket paths
/// are limited to ~100 bytes and checkouts can sit deep.
fn relative_to_cwd(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

fn divides_output(shape: &ConvShape, c: &ScheduleConfig) -> bool {
    shape.hout().is_multiple_of(c.x)
        && shape.wout().is_multiple_of(c.y)
        && shape.cout.is_multiple_of(c.z)
}

impl Env {
    /// Everything before round 0: request vectors, store pre-fill, the
    /// daemon (when the workload serves through one), tensors, reference
    /// outputs and served configs for `exec_layers` of ResNet-18.
    pub fn build(
        seed: u64,
        serving: Serving,
        exec_layers: &[usize],
        scratch: &Path,
        tally: &mut Tally,
    ) -> Env {
        let device = inputs::device();
        let zoo = inputs::zoo();
        let novel = NovelShapes::new(seed, &zoo, &device);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

        watchdog::enter("setup.prefill");
        let warm = TuningService::new(ShardedStore::new(), service_config(SERVE_BUDGET));
        let mut expected = Vec::new();
        for plan in &zoo {
            let bare = warm.submit(&plan.bare, &device).wait();
            tally.check(plan.cost_ms(&bare).is_some(), || {
                format!("setup: {} has an infeasible layer", plan.net.name)
            });
            expected.push(sum_cost_bits(&bare));
            warm.submit(&plan.fused, &device).wait();
        }

        let daemon = match serving {
            Serving::Embedded => None,
            Serving::Daemon { merge_interval, evict } => {
                watchdog::enter("setup.daemon");
                let dir = relative_to_cwd(scratch);
                let _ = std::fs::remove_dir_all(&dir);
                warm.save(&dir).expect("cannot save the pre-filled store");
                let socket = dir.join("d.sock");
                let config = DaemonConfig {
                    service: service_config(SERVE_BUDGET),
                    merge_interval,
                    evict,
                    ..DaemonConfig::default()
                };
                let (daemon, report) =
                    Daemon::bind(&dir, &socket, config).expect("cannot bind the daemon");
                tally.check(report.is_clean(), || format!("setup: dirty load {report:?}"));
                let thread = std::thread::Builder::new()
                    .name("bench-daemon".into())
                    .spawn(move || daemon.run())
                    .expect("cannot start the daemon thread");
                Some(RunningDaemon { dir, socket, thread })
            }
        };

        watchdog::enter("setup.tensors");
        let resnet = &zoo[inputs::RESNET18].net;
        let mut exec = Vec::new();
        for &at in exec_layers {
            let layer = &resnet.layers[at];
            let s = layer.shape;
            let input = Tensor4::random(s.batch, s.cin, s.hin, s.win, &mut rng);
            let weights = Tensor4::random(s.cout, s.cin, s.kh, s.kw, &mut rng);
            let params = ConvParams::new(s.stride, s.pad);
            // The reference is the independent naive loop, never a
            // kernel under test.
            let reference = conv2d_reference(&input, &weights, params);
            let served = |kind| warm.tune_or_wait(&s, kind, &device).map(|r| r.config);
            let direct = served(TileKind::Direct).filter(|c| divides_output(&s, c));
            let tile = WinogradTile::F2X3;
            let winograd = (s.kh == 3 && s.kw == 3 && s.stride == 1)
                .then(|| served(TileKind::Winograd(tile)))
                .flatten()
                .filter(|c| {
                    divides_output(&s, c)
                        && c.x.is_multiple_of(tile.e)
                        && c.y.is_multiple_of(tile.e)
                });
            exec.push(ExecLayer {
                index: at,
                name: layer.name.clone(),
                shape: s,
                input,
                weights,
                params,
                reference,
                direct,
                winograd,
            });
        }
        Env { device, zoo, warm, expected, daemon, exec, novel, rng }
    }

    /// Stops the daemon and removes its directory. Given the last novel
    /// workload as it was served, first checks what the directory holds:
    /// after `sync()` it must load clean and hold that workload's served
    /// config and cost as its best record.
    pub fn teardown(self, last_novel: Option<(ConvShape, ScheduleConfig, f64)>, tally: &mut Tally) {
        let Some(daemon) = self.daemon else { return };
        watchdog::enter("teardown.connect");
        let client = SocketBackend::connect(&daemon.socket).expect("cannot reach the daemon");
        if let Some((shape, config, cost_ms)) = last_novel {
            watchdog::enter("teardown.sync");
            let synced = client.sync();
            tally.check(matches!(&synced, Ok(s) if s.persisted), || {
                format!("final sync did not persist: {synced:?}")
            });
            let loaded = ShardedStore::load(&daemon.dir);
            tally.check(matches!(&loaded, Ok((_, report)) if report.is_clean()), || {
                format!("store directory does not load clean: {:?}", loaded.as_ref().map(|l| &l.1))
            });
            if let Ok((store, _)) = &loaded {
                let d = &self.device;
                let w = Workload::new(shape, TileKind::Direct, d.name, d.smem_per_sm);
                let kept = store.best(&w).map(|r| (r.config, r.cost_ms.to_bits()));
                tally.check(kept == Some((config, cost_ms.to_bits())), || {
                    format!("last novel workload {} not persisted as served", w.fingerprint())
                });
            }
        }
        watchdog::enter("teardown.shutdown");
        let bye = client.shutdown();
        drop(client);
        let ran = daemon.thread.join().expect("daemon thread panicked");
        tally.check(bye.is_ok() && ran.is_ok(), || format!("daemon shutdown: {bye:?} / {ran:?}"));
        let _ = std::fs::remove_dir_all(&daemon.dir);
    }
}

// ------------------------------------------------------------- tuning

/// One round of cold tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TuneRound {
    pub wall_s: f64,
    /// Unique workloads tuned (results that came back `Inline`).
    pub tuned: usize,
    /// Σ best served cost × repeat over the `costed` plans, bare + fused.
    pub cost_ms: f64,
    pub fresh: usize,
    pub cache_hits: usize,
    /// Records the round left in its store.
    pub store_records: usize,
}

/// One round: a fresh embedded service on an empty store, then each
/// plan's bare session and (with `fused`) its fused session. Only the
/// first `costed` plans count towards `cost_ms`: the zoo's cost is the
/// same for every seed, the seeded variants' is not.
pub fn tune_round(
    plans: &[&NetPlan],
    costed: usize,
    fused: bool,
    device: &DeviceSpec,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> TuneRound {
    let service = TuningService::new(ShardedStore::new(), service_config(TUNE_BUDGET));
    let mut round = TuneRound::default();
    let started = Instant::now();
    for (at, plan) in plans.iter().enumerate() {
        let root = tracer.open("network", 0, at);
        for requests in [Some(&plan.bare), fused.then_some(&plan.fused)].into_iter().flatten() {
            watchdog::enter("tune.submit_batch");
            let handle = tracer.span("submit_batch", root, at, || {
                service.submit_batch(requests, device).expect("embedded submit is infallible")
            });
            watchdog::enter("tune.wait");
            let results = tracer
                .span("wait", root, at, || BackendSession::wait(handle))
                .expect("embedded wait is infallible");
            let cost = plan.cost_ms(&results);
            tally.check(cost.is_some(), || {
                format!("{}: a layer came back infeasible", plan.net.name)
            });
            if at < costed {
                round.cost_ms += cost.unwrap_or(f64::NAN);
            }
            for r in results.iter().flatten() {
                round.tuned += usize::from(matches!(r.source, ServeSource::Inline { .. }));
                round.fresh += r.fresh_measurements;
                round.cache_hits += r.cache_hits;
            }
        }
        tracer.close(root);
    }
    round.wall_s = started.elapsed().as_secs_f64();
    round.store_records = service.merged_store().len();
    round
}

// ------------------------------------------------------------ serving

/// What one round of a serving stage does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSpec {
    pub sessions: usize,
    /// Every `novel_every`-th session is a novel one; `0` = none,
    /// `1` = all.
    pub novel_every: usize,
}

/// Samples of rounds of a serving stage.
#[derive(Default)]
pub struct ServeSamples {
    /// Per round: sessions completed / Σ session latency.
    pub sessions_per_s: Vec<f64>,
    /// Pooled hit-session latencies, ms.
    pub hit_ms: Vec<f64>,
    /// Pooled novel-session latencies, ms.
    pub novel_ms: Vec<f64>,
    /// The last out-of-bucket workload a novel session tuned, as served.
    pub last_novel: Option<(ConvShape, ScheduleConfig, f64)>,
}

impl ServeSamples {
    /// Adds another round's samples.
    pub fn absorb(&mut self, other: ServeSamples) {
        self.sessions_per_s.extend(other.sessions_per_s);
        self.hit_ms.extend(other.hit_ms);
        self.novel_ms.extend(other.novel_ms);
        self.last_novel = other.last_novel.or(self.last_novel.take());
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_sessions<B: Backend>(
    backend: &B,
    env: &mut Env,
    order: &[usize],
    spec: ServeSpec,
    out: &mut ServeSamples,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let mut busy_s = 0.0;
    for (i, &net) in order.iter().enumerate() {
        let novel = spec.novel_every > 0 && (i + 1).is_multiple_of(spec.novel_every);
        let fresh_requests;
        let requests: &[TuneRequest] = if novel {
            fresh_requests = env.novel.session();
            &fresh_requests
        } else {
            &env.zoo[net].bare
        };
        let root = tracer.open("session", 0, i);
        let started = Instant::now();
        watchdog::enter("client.submit");
        let handle =
            tracer.span("client.submit", root, i, || backend.submit_batch(requests, &env.device));
        watchdog::enter("client.wait");
        let results = tracer.span("client.wait", root, i, || handle.and_then(BackendSession::wait));
        let took = started.elapsed().as_secs_f64();
        tracer.close(root);
        busy_s += took;

        let results = match results {
            Ok(results) if results.len() == requests.len() => results,
            other => {
                tally.check(false, || format!("session {i} failed: {:?}", other.map(|r| r.len())));
                continue;
            }
        };
        let source = |r: &Option<ServeResult>| r.as_ref().map(|r| (r.source, r.fresh_measurements));
        let hit = |r: &Option<ServeResult>| source(r) == Some((ServeSource::ShardHit, 0));
        if novel {
            let anchored = |r: &Option<ServeResult>| {
                matches!(source(r), Some((ServeSource::Anchored { .. }, 0)))
            };
            let inline = |r: &Option<ServeResult>| {
                matches!(source(r), Some((ServeSource::Inline { .. }, _)))
            };
            tally.check(
                results[..2].iter().all(anchored) && results[2..].iter().all(inline),
                || {
                    let sources: Vec<_> = results.iter().map(source).collect();
                    format!("novel session {i}: expected 2 anchored + 2 inline, got {sources:?}")
                },
            );
            if let Some(r) = &results[3] {
                out.last_novel = Some((requests[3].shape, r.config, r.cost_ms));
            }
        } else {
            tally.check(
                results.iter().all(hit) && sum_cost_bits(&results) == env.expected[net],
                || {
                    format!(
                        "hit session {i} ({}) was not served as pre-filled",
                        env.zoo[net].net.name
                    )
                },
            );
        }
        if novel {
            out.novel_ms.push(took * 1e3);
        } else {
            out.hit_ms.push(took * 1e3);
        }
    }
    out.sessions_per_s.push(order.len() as f64 / busy_s);
}

/// One round of sessions against the workload's backend over one
/// connection, opened and dropped with the round. `order` names the zoo
/// network of each hit session; the round's samples are added to `out`.
pub fn serve_round(
    env: &mut Env,
    order: &[usize],
    spec: ServeSpec,
    out: &mut ServeSamples,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    match env.daemon.as_ref().map(|d| d.socket.clone()) {
        Some(socket) => {
            watchdog::enter("client.connect");
            match SocketBackend::connect(&socket) {
                Ok(client) => serve_sessions(&client, env, order, spec, out, tracer, tally),
                Err(e) => tally.check(false, || format!("cannot connect to the daemon: {e}")),
            }
        }
        None => {
            let embedded = env.warm.clone();
            serve_sessions(&embedded, env, order, spec, out, tracer, tally);
        }
    }
}

// ---------------------------------------------------------- executing

/// Flops and seconds of one executor over one pass of the layers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pass {
    pub flops: f64,
    pub secs: f64,
}

impl Pass {
    pub fn gflops(&self) -> f64 {
        self.flops / 1e9 / self.secs
    }

    fn add(&mut self, shape: &ConvShape, secs: f64) {
        self.flops += shape.flops() as f64;
        self.secs += secs;
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecRound {
    pub direct: Pass,
    pub winograd: Pass,
    pub im2col: Pass,
}

pub fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = call();
    (out, started.elapsed().as_secs_f64())
}

pub fn exec_round(layers: &[ExecLayer], tracer: &mut Tracer, tally: &mut Tally) -> ExecRound {
    let mut round = ExecRound::default();
    for (at, l) in layers.iter().enumerate() {
        let root = tracer.open("layer", 0, at);
        let mut check = |out: &Tensor4, tol: f32, what: &str| {
            tally.check(out.approx_eq(&l.reference, tol, tol), || {
                format!("{what} on {} is off by {}", l.name, out.max_abs_diff(&l.reference))
            });
        };
        if let Some(cfg) = &l.direct {
            watchdog::enter("execute_direct");
            let (out, secs) = tracer.span("execute_direct", root, at, || {
                timed(|| execute_direct(&l.input, &l.weights, l.params, cfg, EXEC_WORKERS))
            });
            round.direct.add(&l.shape, secs);
            check(&out, 1e-4, "execute_direct");
        }
        if let Some(cfg) = &l.winograd {
            watchdog::enter("execute_winograd");
            let (out, secs) = tracer.span("execute_winograd", root, at, || {
                timed(|| {
                    let tile = WinogradTile::F2X3;
                    execute_winograd(&l.input, &l.weights, l.params, tile, cfg, EXEC_WORKERS)
                })
            });
            round.winograd.add(&l.shape, secs);
            check(&out, 1e-3, "execute_winograd");
        }
        watchdog::enter("conv2d_im2col");
        let (out, secs) = tracer.span("conv2d_im2col", root, at, || {
            timed(|| conv2d_im2col(&l.input, &l.weights, l.params, EXEC_WORKERS))
        });
        round.im2col.add(&l.shape, secs);
        check(&out, 1e-3, "conv2d_im2col");
        tracer.close(root);
    }
    round
}
