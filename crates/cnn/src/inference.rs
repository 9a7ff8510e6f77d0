//! End-to-end inference timing (paper §7.3, Fig. 12).
//!
//! For every conv layer the planner picks an algorithm and a
//! configuration, times it on the simulator, and sums across the network.
//! Two planners are compared:
//!
//! * **ours** — the dataflow schedules, either with the configurations
//!   the optimality condition picks ([`time_network`], via
//!   [`ours_fast_ms`]) or with the tuned configurations a tuning
//!   [`Backend`] serves ([`time_network_with_backend`]), taking the
//!   better of direct and Winograd per layer;
//! * **baseline** — the cuDNN stand-in: the best of im2col+GEMM, the
//!   naive direct kernel and the unfused Winograd pipeline per layer
//!   ([`cudnn_direct_ms`], [`cudnn_winograd_ms`]).

use crate::layers::Network;
use iolb_autotune::plan::{algo_candidates, fast_config};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_dataflow::baselines;
use iolb_dataflow::{direct_kernel, winograd_kernel};
use iolb_gpusim::{simulate, simulate_sequence, DeviceSpec};
use iolb_service::{
    Backend, BackendError, BackendSession, ServeSource, TuneRequest, TuningService,
};

/// Per-layer timing entry.
#[derive(Debug, Clone)]
pub struct LayerTime {
    pub name: String,
    /// Our dataflow's time (ms), summed over repeats.
    pub ours_ms: f64,
    /// Baseline library time (ms), summed over repeats.
    pub baseline_ms: f64,
    /// Which algorithm our planner chose.
    pub algorithm: &'static str,
}

/// Whole-network timing.
#[derive(Debug, Clone)]
pub struct NetworkTime {
    pub network: &'static str,
    pub layers: Vec<LayerTime>,
    pub ours_ms: f64,
    pub baseline_ms: f64,
}

impl NetworkTime {
    /// End-to-end speedup of our planner over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms / self.ours_ms
    }
}

/// The per-workload tuner seed every CNN-level tuning run uses.
///
/// Pinned so store-backed runs, service-backed runs and the eager
/// reference runs in tests all replay the same trajectories.
pub const TUNER_SEED: u64 = 7;

/// Our dataflow's simulated time (ms) with the fast (analytic) plan:
/// the configuration [`fast_config`] picks for `kind`, timed on the
/// simulator. `None` when no tile fits or the kernel cannot launch.
pub fn ours_fast_ms(shape: &ConvShape, kind: TileKind, device: &DeviceSpec) -> Option<f64> {
    let cfg = fast_config(shape, kind, device)?;
    let kernel = match kind {
        TileKind::Direct => direct_kernel(shape, &cfg),
        TileKind::Winograd(t) => winograd_kernel(shape, t, &cfg),
    };
    simulate(device, &kernel).ok().map(|s| s.time_ms)
}

/// cuDNN stand-in time (ms) for the *direct* algorithm family: best of
/// im2col+GEMM and the naive direct kernel (paper §7: "the best one of two
/// direct implementations in cuDNN").
pub fn cudnn_direct_ms(shape: &ConvShape, device: &DeviceSpec) -> f64 {
    let mut best = f64::INFINITY;
    if let Ok(s) = simulate_sequence(device, &baselines::im2col_gemm(shape)) {
        best = best.min(s.time_ms);
    }
    if let Ok(s) = simulate_sequence(device, &baselines::naive_direct(shape)) {
        best = best.min(s.time_ms);
    }
    best
}

/// cuDNN stand-in time (ms) for the Winograd family (unfused pipeline,
/// best tile); infinite when the shape admits no Winograd tile.
pub fn cudnn_winograd_ms(shape: &ConvShape, device: &DeviceSpec) -> f64 {
    let mut best = f64::INFINITY;
    for tile in [WinogradTile::F2X3, WinogradTile::F4X3] {
        if !shape.supports_winograd(tile) {
            continue;
        }
        if let Ok(s) = simulate_sequence(device, &baselines::winograd_unfused(shape, tile)) {
            best = best.min(s.time_ms);
        }
    }
    best
}

/// Economics of serving a network through the tuning service: how the
/// requests were answered.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceEconomics {
    /// Requests answered instantly from the device shards (including
    /// duplicate layer shapes deduplicated within the batch session).
    pub shard_hits: usize,
    /// Requests that waited for (and took) an in-flight background tune.
    pub stolen: usize,
    /// Requests tuned on the waiting session's thread.
    pub inline_tuned: usize,
    /// Simulator invocations the requests themselves triggered (zero
    /// when the background workers already filled the store).
    pub fresh_measurements: usize,
    /// Store replays the inline runs used.
    pub cache_hits: usize,
    /// Requests that rode along on another request in the same session
    /// (duplicate layer shapes: one tuning job, many waiters).
    pub deduped: usize,
    /// Requests answered from the workload's anchor bucket: a
    /// bucket-mate's tuned config projected onto the requested shape,
    /// with zero fresh tuning measurements.
    pub anchored: usize,
    /// Anchored answers the analytic gate could not prove within the
    /// gap bound — served provisionally with a background re-tune
    /// enqueued. Always `<= anchored`.
    pub transfer_retunes: usize,
}

impl ServiceEconomics {
    fn absorb(&mut self, out: &iolb_service::ServeResult) {
        match out.source {
            ServeSource::ShardHit => self.shard_hits += 1,
            ServeSource::Stolen => self.stolen += 1,
            ServeSource::Inline { .. } => self.inline_tuned += 1,
            ServeSource::Anchored { retune } => {
                self.anchored += 1;
                self.transfer_retunes += usize::from(retune);
            }
        }
        self.fresh_measurements += out.fresh_measurements;
        self.cache_hits += out.cache_hits;
    }
}

/// Times a whole network through the background [`TuningService`], built
/// on one batch **session** over every layer × algorithm candidate.
///
/// The session dedupes repeated layer shapes (one tuning job with
/// fan-out waiters), submits the batch as a tracked group that outranks
/// all speculative queue work, and collects results as they land:
/// workloads the speculative workers already tuned replay instantly,
/// in-flight ones are stolen, and cold ones tune on this thread as one
/// parallel hermetic batch (at the service's per-workload budget).
/// After the service's queue has drained, serving a registered network
/// performs **zero** new simulator measurements and returns costs
/// bit-identical to eager store-backed runs
/// (`iolb_autotune::engine::tune_with_store`) at the same budget and seed — that contract is pinned by `tests/service.rs` and
/// `tests/session.rs`.
pub fn time_network_with_service(
    net: &Network,
    device: &DeviceSpec,
    service: &TuningService,
) -> (NetworkTime, ServiceEconomics) {
    time_network_with_backend(net, device, service)
        .expect("the in-process tuning service is infallible")
}

/// Times a whole network through any tuning [`Backend`] — the
/// transport-abstracted generalization of [`time_network_with_service`]:
/// pass the in-process [`TuningService`] and this is the embedded path,
/// pass an [`iolb_service::SocketBackend`] (Unix or TCP)
/// and the same session runs against a resident shard-server daemon over
/// its Unix socket or TCP listener, pass an
/// [`iolb_service::FleetRouter`] and it is consistent-hash-scattered
/// across a whole daemon fleet — all with bit-identical results: every
/// backend runs the identical hermetic tuning (pinned by
/// `tests/daemon.rs` and `tests/fleet.rs`). Errors can only come from a
/// remote backend's transport or daemon.
pub fn time_network_with_backend<B: Backend>(
    net: &Network,
    device: &DeviceSpec,
    backend: &B,
) -> Result<(NetworkTime, ServiceEconomics), BackendError> {
    // One request per layer x algorithm candidate, all in one session.
    let mut requests: Vec<TuneRequest> = Vec::new();
    let mut spans: Vec<(usize, Vec<&'static str>)> = Vec::with_capacity(net.layers.len());
    for layer in &net.layers {
        let start = requests.len();
        let mut labels = Vec::new();
        for (kind, label) in algo_candidates(&layer.shape) {
            requests.push(TuneRequest::bare(layer.shape, kind));
            labels.push(label);
        }
        spans.push((start, labels));
    }
    let handle = backend.submit_batch(&requests, device)?;
    let deduped = requests.len() - handle.unique_workloads();
    let results = handle.wait()?;

    let mut economics = ServiceEconomics { deduped, ..ServiceEconomics::default() };
    let mut per_layer = spans.iter().map(|(start, labels)| {
        let mut best: Option<(f64, &'static str)> = None;
        for (offset, label) in labels.iter().enumerate() {
            let Some(out) = &results[start + offset] else { continue };
            economics.absorb(out);
            if best.as_ref().is_none_or(|&(b, _)| out.cost_ms < b) {
                best = Some((out.cost_ms, label));
            }
        }
        best.unwrap_or((f64::INFINITY, "none"))
    });
    let time = time_network_impl(net, device, |_| per_layer.next().expect("one span per layer"));
    drop(per_layer);
    Ok((time, economics))
}

/// The shared per-layer timing loop behind [`time_network`] and
/// [`time_network_with_backend`]: `time_layer` supplies our planner's
/// (ms, algorithm) per shape, the baseline and repeat accounting are
/// common.
fn time_network_impl(
    net: &Network,
    device: &DeviceSpec,
    mut time_layer: impl FnMut(&ConvShape) -> (f64, &'static str),
) -> NetworkTime {
    let mut layers = Vec::with_capacity(net.layers.len());
    let mut ours_total = 0.0;
    let mut base_total = 0.0;
    for layer in &net.layers {
        let (ours, algorithm) = time_layer(&layer.shape);
        let baseline =
            cudnn_direct_ms(&layer.shape, device).min(cudnn_winograd_ms(&layer.shape, device));
        let reps = layer.repeat as f64;
        ours_total += ours * reps;
        base_total += baseline * reps;
        layers.push(LayerTime {
            name: layer.name.clone(),
            ours_ms: ours * reps,
            baseline_ms: baseline * reps,
            algorithm,
        });
    }
    NetworkTime { network: net.name, layers, ours_ms: ours_total, baseline_ms: base_total }
}

/// Times a whole network with the analytic plan: per layer, the fastest
/// of [`ours_fast_ms`] over the [`algo_candidates`], against the cuDNN
/// stand-in.
pub fn time_network(net: &Network, device: &DeviceSpec) -> NetworkTime {
    time_network_impl(net, device, |shape| {
        let mut best: Option<(f64, &'static str)> = None;
        for (kind, label) in algo_candidates(shape) {
            let Some(ms) = ours_fast_ms(shape, kind, device) else { continue };
            if best.as_ref().is_none_or(|&(b, _)| ms < b) {
                best = Some((ms, label));
            }
        }
        best.unwrap_or((f64::INFINITY, "none"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::ConvLayer;
    use crate::models;

    fn device() -> DeviceSpec {
        DeviceSpec::v100()
    }

    /// Our analytic plan for a one-layer network: (ms, algorithm).
    fn time_one(shape: ConvShape) -> (f64, &'static str) {
        let net = Network { name: "one", layers: vec![ConvLayer::new("l", shape)] };
        let t = time_network(&net, &device());
        (t.layers[0].ours_ms, t.layers[0].algorithm)
    }

    #[test]
    fn fast_runner_produces_speedups() {
        let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
        let d = DeviceSpec::gtx1080ti();
        let ours = ours_fast_ms(&shape, TileKind::Direct, &d).unwrap();
        let base = cudnn_direct_ms(&shape, &d);
        assert!(ours > 0.0 && base.is_finite());
    }

    #[test]
    fn fast_config_exists_for_all_alexnet_layers() {
        let net = models::alexnet();
        for l in &net.layers {
            let cfg = fast_config(&l.shape, TileKind::Direct, &device());
            assert!(cfg.is_some(), "no fast config for {}", l.name);
        }
    }

    #[test]
    fn our_time_finite_and_positive() {
        let shape = ConvShape::square(64, 28, 64, 3, 1, 1);
        let (ms, alg) = time_one(shape);
        assert!(ms.is_finite() && ms > 0.0);
        assert!(!alg.is_empty());
    }

    #[test]
    fn winograd_chosen_for_eligible_layers_sometimes() {
        // 3x3 s1 layers must at least consider Winograd; deep-channel
        // layers favour it via the flop reduction.
        let shape = ConvShape::square(512, 28, 512, 3, 1, 1);
        let (_, alg) = time_one(shape);
        assert!(alg == "direct" || alg.starts_with("winograd"));
    }

    #[test]
    fn network_timing_sums_layers() {
        let net = models::alexnet();
        let t = time_network(&net, &device());
        let sum: f64 = t.layers.iter().map(|l| l.ours_ms).sum();
        assert!((t.ours_ms - sum).abs() < 1e-9);
        assert!(t.ours_ms > 0.0 && t.baseline_ms > 0.0);
    }

    #[test]
    fn ours_beats_baseline_end_to_end_on_alexnet() {
        let net = models::alexnet();
        let t = time_network(&net, &device());
        assert!(t.speedup() > 1.0, "ours {} ms vs baseline {} ms", t.ours_ms, t.baseline_ms);
    }

    #[test]
    fn one_by_one_layers_are_plannable() {
        // SqueezeNet's squeeze layers: R = 1, stride 1, k = 1.
        let shape = ConvShape::new(96, 54, 54, 16, 1, 1, 1, 0);
        let (ms, alg) = time_one(shape);
        assert!(ms.is_finite());
        assert_eq!(alg, "direct");
    }

    #[test]
    fn rectangular_kernels_are_plannable() {
        // Inception 1x7.
        let shape = ConvShape::new(128, 17, 17, 128, 1, 7, 1, 3);
        let (ms, _) = time_one(shape);
        assert!(ms.is_finite());
    }

    #[test]
    fn service_serving_after_drain_is_all_hits() {
        use iolb_service::{ServiceConfig, ShardedStore, TuningService};
        let net = Network {
            name: "toy",
            layers: vec![
                ConvLayer::new("a", ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0)),
                ConvLayer::new("b", ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0)),
            ],
        };
        let config = ServiceConfig {
            budget_per_workload: 12,
            workers: 0,
            speculate_neighbors: false,
            seed: TUNER_SEED,
            ..ServiceConfig::default()
        };
        let service = TuningService::new(ShardedStore::new(), config);
        assert_eq!(service.register_network(&net, &device()), 2);
        service.drain();
        let (timed, eco) = time_network_with_service(&net, &device(), &service);
        assert_eq!(eco.shard_hits, 2, "drained service must answer from the shards");
        assert_eq!(eco.inline_tuned, 0);
        assert_eq!(eco.fresh_measurements, 0);
        assert!(timed.ours_ms.is_finite() && timed.ours_ms > 0.0);
        // A cold service serves the same costs, just inline.
        let cold = TuningService::new(ShardedStore::new(), config);
        let (timed_cold, eco_cold) = time_network_with_service(&net, &device(), &cold);
        assert_eq!(eco_cold.inline_tuned, 2);
        assert!(eco_cold.fresh_measurements > 0);
        assert_eq!(timed_cold.ours_ms.to_bits(), timed.ours_ms.to_bits());
    }
}
