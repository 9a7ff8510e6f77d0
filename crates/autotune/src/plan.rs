//! Analytic planning: the theory-guided defaults every tuning consumer
//! shares.
//!
//! Three decisions recur in every layer-level consumer (end-to-end
//! inference timing, the figure harnesses, the background tuning
//! service), and they must agree across consumers so that results are
//! comparable and cached records replay exactly:
//!
//! * [`algo_candidates`] — which algorithms a layer shape admits (direct
//!   always; the two Winograd variants for square 3x3 stride-1 kernels);
//! * [`fast_config`] — the no-search configuration: the best integer
//!   tile under the paper's optimality condition `xy = Rz`, with a
//!   default thread split — both the analytic plan
//!   (`iolb_cnn::inference::time_network`) and the seed every tuning
//!   run measures first;
//! * [`tuner_setup`] — the canonical single-workload tuner: the analytic
//!   seed first, then uniform samples of the pruned space; no learned
//!   model. Fixed batch/patience. Given the same
//!   `(shape, kind, device, budget, seed)` it reproduces the same
//!   tuning trajectory everywhere — the determinism contract the
//!   tuning service's "drained == eager" guarantee is built on.
//!
//! These lived in `iolb-cnn` originally; they moved here so crates below
//! the CNN layer (notably `iolb-service`) can plan without a dependency
//! cycle. `iolb_cnn::inference` re-exports them.

use crate::cost_model::NoModel;
use crate::engine::TuneParams;
use crate::measure::Measurer;
use crate::search::random::RandomSearch;
use crate::space::ConfigSpace;
use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::{best_tile, divisors, TileKind};
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_dataflow::config::ScheduleConfig;
use iolb_gpusim::DeviceSpec;
use iolb_records::jsonl;
use iolb_tensor::layout::Layout;

/// Picks a default thread split for a tile: factors of (x, y, z) whose
/// product lands near 256 threads.
fn default_threads(x: usize, y: usize, z: usize) -> (usize, usize, usize) {
    let pick = |n: usize, cap: usize| divisors(n).into_iter().rfind(|&d| d <= cap).unwrap_or(1);
    let nxt = pick(x, 16);
    let nyt = pick(y, 16);
    let budget = 1024 / (nxt * nyt).max(1);
    let nzt = pick(z, budget.clamp(1, 32));
    (nxt, nyt, nzt)
}

/// Builds the fast-mode configuration for a layer: the best
/// optimality-condition tile fitting the stage buffers into `S_b`.
pub fn fast_config(
    shape: &ConvShape,
    kind: TileKind,
    device: &DeviceSpec,
) -> Option<ScheduleConfig> {
    let sb_bytes = (device.smem_per_sm / 2).min(device.max_smem_per_block).min(48 * 1024);
    // Leave room for the stage buffers inside S_b by searching with a
    // deflated tile budget, then validating the complete footprint.
    for deflate in [0.75, 0.5, 0.3, 0.15, 0.05] {
        let budget = sb_bytes as f64 / 4.0 * deflate;
        let Some(t) = best_kind_tile(shape, kind, budget) else { continue };
        let (nxt, nyt, nzt) = default_threads(t.0, t.1, t.2);
        let cfg =
            ScheduleConfig { x: t.0, y: t.1, z: t.2, nxt, nyt, nzt, sb_bytes, layout: Layout::Chw };
        if cfg.validate(shape, kind, device.smem_per_sm, false).is_ok() {
            return Some(cfg);
        }
    }
    None
}

/// Picks the read-I/O-minimising tile for the kind. Direct tiles come from
/// the core solver; Winograd tiles are enumerated over the `e`-padded
/// output extents (divisor-of-13 tiles don't exist, padded 14x14 ones do).
fn best_kind_tile(shape: &ConvShape, kind: TileKind, budget: f64) -> Option<(usize, usize, usize)> {
    match kind {
        TileKind::Direct => best_tile(shape, kind, budget).map(|c| (c.tile.x, c.tile.y, c.tile.z)),
        TileKind::Winograd(w) => {
            let (hp, wp) = iolb_core::optimality::padded_out(shape, kind);
            let mut best: Option<((usize, usize, usize), f64)> = None;
            for &x in divisors(hp).iter().filter(|&&d| d % w.e == 0) {
                for &y in divisors(wp).iter().filter(|&&d| d % w.e == 0) {
                    for &z in &divisors(shape.cout) {
                        let tile = iolb_core::optimality::Tile { x, y, z };
                        if kind.accumulator_elems(&tile) > budget {
                            continue;
                        }
                        let io = kind.exact_read_io(shape, &tile);
                        if best.as_ref().is_none_or(|&(_, b)| io < b) {
                            best = Some(((x, y, z), io));
                        }
                    }
                }
            }
            best.map(|(t, _)| t)
        }
    }
}

/// The algorithm candidates a planner considers for a layer: direct
/// always, the two Winograd variants when the shape admits them.
pub fn algo_candidates(shape: &ConvShape) -> Vec<(TileKind, &'static str)> {
    let mut candidates: Vec<(TileKind, &'static str)> = vec![(TileKind::Direct, "direct")];
    for (tile, label) in
        [(WinogradTile::F2X3, "winograd-F2x3"), (WinogradTile::F4X3, "winograd-F4x3")]
    {
        if shape.supports_winograd(tile) {
            candidates.push((TileKind::Winograd(tile), label));
        }
    }
    candidates
}

/// Everything one single-workload tuning run needs, pre-wired the
/// canonical way.
pub struct TunerSetup {
    pub space: ConfigSpace,
    pub measurer: Measurer,
    pub model: NoModel,
    pub searcher: RandomSearch,
    pub params: TuneParams,
}

/// The canonical per-workload tuner: the analytic seed
/// ([`fast_config`]) first, then uniform samples of the pruned space; no
/// learned model. `batch = 8`, `patience = budget` (so a run with budget
/// `b` spends exactly `b` attempts unless the space is exhausted). The
/// seed is measured in the first batch, so a run never serves a config
/// slower than the analytic plan.
///
/// Every consumer that wants replayable, comparable per-workload tuning
/// (CNN inference timing, the tuning service's background workers and
/// its eager reference runs) must build its runs through this function:
/// the trajectory of [`crate::engine::tune_with_store`] is a pure
/// function of this setup plus the store's records for the workload.
pub fn tuner_setup(
    shape: &ConvShape,
    kind: TileKind,
    device: &DeviceSpec,
    budget: usize,
    seed: u64,
) -> TunerSetup {
    tuner_setup_fused(shape, kind, Epilogue::None, device, budget, seed)
}

/// The canonical tuner for a fused conv→epilogue chain: identical to
/// [`tuner_setup`] except the space honours the epilogue's tiling grid
/// and the measurer folds the analytic fused-epilogue term into every
/// cost. A [`fast_config`] seed off the fused tile grid fails
/// [`ConfigSpace::admits_seed`] and is dropped, so the trajectory stays
/// a pure function of `(shape, kind, epilogue, device, budget, seed)`.
pub fn tuner_setup_fused(
    shape: &ConvShape,
    kind: TileKind,
    epilogue: Epilogue,
    device: &DeviceSpec,
    budget: usize,
    seed: u64,
) -> TunerSetup {
    let space = ConfigSpace::fused(*shape, kind, device.smem_per_sm, true, epilogue);
    let measurer = Measurer::new(device.clone(), *shape, kind).with_epilogue(epilogue);
    let searcher = RandomSearch::with_seeds(fast_config(shape, kind, device).into_iter().collect());
    let params = TuneParams { max_measurements: budget, batch: 8, patience: budget, seed };
    TunerSetup { space, measurer, model: NoModel, searcher, params }
}

/// Default anchor floor: dimensions at or below this stay exact when a
/// workload is anchored; larger dimensions round up to the next power
/// of two. Small extents (late-stage feature maps, narrow channel
/// counts) are exactly where tile feasibility is most shape-sensitive,
/// so they never share a bucket with a different extent.
pub const ANCHOR_FLOOR: usize = 16;

/// Anchors one dimension: exact at or below `floor`, next power of two
/// above it. Idempotent — a power of two maps to itself, and an
/// anchored value above the floor stays above the floor.
pub fn anchor_dim(d: usize, floor: usize) -> usize {
    if d <= floor {
        d
    } else {
        d.next_power_of_two()
    }
}

/// Anchors a shape's data dimensions (H/W/C/K) to their buckets.
/// Batch, kernel extents, stride and padding stay exact: they change
/// the algorithm candidates and the schedule constraint structure, not
/// just the problem scale, so they never merge.
pub fn anchor_shape(shape: &ConvShape, floor: usize) -> ConvShape {
    ConvShape {
        cin: anchor_dim(shape.cin, floor),
        hin: anchor_dim(shape.hin, floor),
        win: anchor_dim(shape.win, floor),
        cout: anchor_dim(shape.cout, floor),
        ..*shape
    }
}

/// The anchor-bucket representative of a workload: same algorithm,
/// device and shared memory, anchored shape.
pub fn anchor_workload(workload: &iolb_records::Workload, floor: usize) -> iolb_records::Workload {
    iolb_records::Workload { shape: anchor_shape(&workload.shape, floor), ..workload.clone() }
}

/// The secondary store key: the anchored workload's fingerprint,
/// prefixed with the floor it was computed under so indexes built with
/// different floors can never alias each other.
pub fn anchor_fingerprint(workload: &iolb_records::Workload, floor: usize) -> String {
    format!("a{floor}|{}", anchor_workload(workload, floor).fingerprint())
}

/// One workload a client asks for — a member of a
/// [`crate::engine::tune_batch`] call, of a service session, of a wire
/// `submit` frame: a layer shape plus the algorithm to tune it under —
/// and, for a fused conv→epilogue chain, its epilogue. The device,
/// budget and seed are batch-wide — a batch is "one network on one
/// device".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneRequest {
    pub shape: ConvShape,
    pub kind: TileKind,
    /// Fused epilogue of the chain; [`Epilogue::None`] for a bare conv.
    pub epilogue: Epilogue,
}

impl TuneRequest {
    /// A bare-conv request (the pre-fusion constructor shape).
    pub fn bare(shape: ConvShape, kind: TileKind) -> Self {
        Self { shape, kind, epilogue: Epilogue::None }
    }

    /// A fused-chain request.
    pub fn fused(shape: ConvShape, kind: TileKind, epilogue: Epilogue) -> Self {
        Self { shape, kind, epilogue }
    }

    /// The record-store identity of this request on a device.
    pub fn workload(&self, device: &DeviceSpec) -> iolb_records::Workload {
        iolb_records::Workload::new(self.shape, self.kind, device.name, device.smem_per_sm)
            .with_epilogue(self.epilogue)
    }

    /// Appends the canonical flat-JSON wire line for this request to a
    /// caller-owned buffer (the frame encoder's), without allocating: the
    /// shape and algorithm under the same field names the record codec
    /// uses, so the socket protocol and the store files share one
    /// vocabulary. A fused chain adds an `"epi"` field after `"algo"`
    /// (mirroring the record codec); bare convs emit the pre-fusion line
    /// byte-identically, so old peers interoperate.
    pub fn write_wire_line(&self, out: &mut String) {
        out.push('{');
        jsonl::write_workload_fields(out, self.kind, self.epilogue, &self.shape);
        out.push('}');
    }

    /// Parses a line written by [`write_wire_line`](Self::write_wire_line).
    /// Rejects malformed JSON, missing fields, unknown algorithm tags
    /// and invalid shapes (with a reason) — never panics on hostile
    /// input.
    pub fn from_wire_line(line: &str) -> Result<Self, String> {
        let (kind, epilogue, shape) =
            jsonl::read_workload_fields(&jsonl::FlatObject::parse(line)?)?;
        Ok(Self { shape, kind, epilogue })
    }
}

/// Deduplicates a batch of requests by workload fingerprint: repeated
/// layer shapes (VGG's stacked 3x3 blocks, ResNet's repeated stages)
/// collapse onto one canonical tuner setup instead of rebuilding — and
/// re-running — one per occurrence.
///
/// Returns the unique requests in first-seen order plus, per original
/// request, the index of its unique representative. This is the
/// network-level planning step: dedup is pure bookkeeping, so it costs
/// nothing next to measurement, and everything downstream (the tuning
/// service's sessions, [`crate::engine::tune_batch`]) builds on it.
pub fn dedup_requests(
    requests: impl IntoIterator<Item = TuneRequest>,
    device: &DeviceSpec,
) -> (Vec<TuneRequest>, Vec<usize>) {
    let requests = requests.into_iter();
    let mut unique: Vec<TuneRequest> = Vec::new();
    let mut by_fingerprint: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut representative = Vec::with_capacity(requests.size_hint().0);
    for req in requests {
        let fp = req.workload(device).fingerprint();
        let at = *by_fingerprint.entry(fp).or_insert_with(|| {
            unique.push(req);
            unique.len() - 1
        });
        representative.push(at);
    }
    (unique, representative)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::v100()
    }

    #[test]
    fn fast_config_is_valid_for_common_shapes() {
        for shape in [
            ConvShape::square(64, 28, 64, 3, 1, 1),
            ConvShape::new(96, 54, 54, 16, 1, 1, 1, 0),
            ConvShape::new(128, 17, 17, 128, 1, 7, 1, 3),
        ] {
            let cfg = fast_config(&shape, TileKind::Direct, &device())
                .unwrap_or_else(|| panic!("no fast config for {shape}"));
            assert!(cfg.validate(&shape, TileKind::Direct, device().smem_per_sm, false).is_ok());
        }
    }

    #[test]
    fn algo_candidates_gate_winograd_on_3x3_stride_1() {
        assert_eq!(algo_candidates(&ConvShape::square(64, 28, 64, 3, 1, 1)).len(), 3);
        assert_eq!(algo_candidates(&ConvShape::square(64, 28, 64, 3, 2, 1)).len(), 1);
        assert_eq!(algo_candidates(&ConvShape::new(64, 17, 17, 64, 1, 7, 1, 3)).len(), 1);
    }

    #[test]
    fn batch_requests_round_trip_over_the_wire_line() {
        use iolb_core::shapes::WinogradTile;
        for kind in [
            TileKind::Direct,
            TileKind::Winograd(WinogradTile::F2X3),
            TileKind::Winograd(WinogradTile::F4X3),
        ] {
            let wire_line = |req: &TuneRequest| {
                let mut line = String::new();
                req.write_wire_line(&mut line);
                line
            };
            let req = TuneRequest::bare(ConvShape::square(64, 28, 32, 3, 1, 1), kind);
            assert!(!wire_line(&req).contains("epi"), "bare line must not grow a field");
            let back = TuneRequest::from_wire_line(&wire_line(&req)).unwrap();
            assert_eq!(back, req);
            for epilogue in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
                let fused = TuneRequest { epilogue, ..req };
                let line = wire_line(&fused);
                assert!(line.contains("\"epi\""), "fused line missing epi: {line}");
                assert_eq!(TuneRequest::from_wire_line(&line).unwrap(), fused);
            }
        }
        for (line, why) in [
            ("", "empty"),
            ("{\"algo\":\"direct\"}", "missing shape fields"),
            ("{\"algo\":\"im2col\",\"batch\":1,\"cin\":1,\"hin\":4,\"win\":4,\"cout\":1,\"kh\":1,\"kw\":1,\"stride\":1,\"pad\":0}", "unknown algo"),
            ("{\"algo\":\"direct\",\"batch\":1,\"cin\":0,\"hin\":4,\"win\":4,\"cout\":1,\"kh\":1,\"kw\":1,\"stride\":1,\"pad\":0}", "invalid shape"),
        ] {
            assert!(TuneRequest::from_wire_line(line).is_err(), "{why}: accepted {line:?}");
        }
    }

    #[test]
    fn anchoring_is_idempotent_and_respects_the_floor() {
        for floor in [0, 8, ANCHOR_FLOOR, 64] {
            for d in [1, 3, 13, 14, 16, 17, 27, 54, 96, 224, 1000] {
                let once = anchor_dim(d, floor);
                assert_eq!(anchor_dim(once, floor), once, "anchor_dim({d}, {floor})");
                if d <= floor {
                    assert_eq!(once, d, "at or below the floor stays exact");
                } else {
                    assert!(once >= d, "anchoring never shrinks a dimension");
                    assert!(once.is_power_of_two());
                }
            }
        }
        let shape = ConvShape::new(96, 54, 54, 16, 1, 1, 1, 0);
        let anchored = anchor_shape(&shape, ANCHOR_FLOOR);
        assert_eq!(anchor_shape(&anchored, ANCHOR_FLOOR), anchored);
        assert_eq!((anchored.cin, anchored.hin, anchored.win), (128, 64, 64));
        assert_eq!(anchored.cout, 16, "cout sits on the floor and stays exact");
        assert_eq!(
            (anchored.batch, anchored.kh, anchored.kw, anchored.stride, anchored.pad),
            (shape.batch, shape.kh, shape.kw, shape.stride, shape.pad),
            "structural fields never anchor"
        );
    }

    #[test]
    fn anchor_fingerprints_bucket_nearby_shapes_and_embed_the_floor() {
        let wl = |hin: usize, win: usize| {
            iolb_records::Workload::new(
                ConvShape::new(96, hin, win, 24, 1, 1, 1, 0),
                TileKind::Direct,
                "Tesla V100",
                96 * 1024,
            )
        };
        // In-bucket neighbors share the anchor key but not the exact key.
        assert_ne!(wl(54, 54).fingerprint(), wl(52, 53).fingerprint());
        assert_eq!(
            anchor_fingerprint(&wl(54, 54), ANCHOR_FLOOR),
            anchor_fingerprint(&wl(52, 53), ANCHOR_FLOOR)
        );
        // Crossing a power of two changes the bucket.
        assert_ne!(
            anchor_fingerprint(&wl(54, 54), ANCHOR_FLOOR),
            anchor_fingerprint(&wl(70, 54), ANCHOR_FLOOR)
        );
        // The floor is part of the key: different floors never alias.
        assert_ne!(
            anchor_fingerprint(&wl(54, 54), ANCHOR_FLOOR),
            anchor_fingerprint(&wl(54, 54), 8)
        );
    }

    #[test]
    fn tuner_setup_is_reproducible() {
        // Two setups from the same inputs drive identical tuning runs.
        let shape = ConvShape::square(32, 14, 32, 3, 1, 1);
        let run = || {
            let mut s = tuner_setup(&shape, TileKind::Direct, &device(), 16, 7);
            crate::engine::tune(&s.space, &s.measurer, &mut s.model, &mut s.searcher, s.params)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_ms.to_bits(), b.best_ms.to_bits());
    }
}
