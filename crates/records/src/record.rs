//! The versioned tuning-record schema.
//!
//! A record states: *this configuration of this workload measured this
//! cost* (plus the tuner seed that found it and the schema version that
//! wrote it). The workload fingerprint is the store's primary key; the
//! feature vector of a workload supports nearest-neighbour queries when
//! an exact fingerprint match does not exist (cross-layer transfer).

use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_dataflow::config::ScheduleConfig;

/// Version stamped into every serialized record. Loaders reject records
/// written under any other version (forward compatibility is handled by
/// re-tuning, never by guessing at field semantics).
pub const SCHEMA_VERSION: u32 = 1;

/// What was tuned: one convolution layer, one algorithm, one device.
///
/// The device is identified by its preset name and shared-memory size —
/// enough to tell devices apart without dragging the full simulator spec
/// into the store (costs from different devices must never be mixed, but
/// a record does not need to *reproduce* the device).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The convolution geometry.
    pub shape: ConvShape,
    /// The algorithm whose schedule space was searched.
    pub kind: TileKind,
    /// Device preset name (e.g. `"Tesla V100"`).
    pub device: String,
    /// Device shared memory per SM, bytes.
    pub smem_bytes: u32,
    /// Fused epilogue of the chain this workload represents.
    /// [`Epilogue::None`] for a bare convolution — in which case the
    /// fingerprint is byte-identical to what it was before fusion
    /// existed, so pre-fusion stores load unchanged.
    pub epilogue: Epilogue,
}

impl Workload {
    pub fn new(
        shape: ConvShape,
        kind: TileKind,
        device: impl Into<String>,
        smem_bytes: u32,
    ) -> Self {
        Self { shape, kind, device: device.into(), smem_bytes, epilogue: Epilogue::None }
    }

    /// The same workload fused with `epilogue` (builder-style).
    pub fn with_epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = epilogue;
        self
    }

    /// Canonical algorithm tag: `direct` or `w{e}x{r}` (e.g. `w2x3` for
    /// Winograd `F(2x2, 3x3)`).
    pub fn algo_tag(&self) -> String {
        algo_tag(self.kind)
    }

    /// The store's primary key: a canonical, human-readable string that
    /// is injective over everything the cost depends on. A fused chain
    /// suffixes its epilogue tag onto the algorithm segment
    /// (`direct+relu+pool2|…`); the unfused tag is empty, so bare-conv
    /// fingerprints are unchanged from the pre-fusion schema.
    pub fn fingerprint(&self) -> String {
        let s = &self.shape;
        format!(
            "{}{}|n{}c{}h{}w{}|o{}|k{}x{}|s{}p{}|{}|{}",
            self.algo_tag(),
            self.epilogue.tag(),
            s.batch,
            s.cin,
            s.hin,
            s.win,
            s.cout,
            s.kh,
            s.kw,
            s.stride,
            s.pad,
            self.device,
            self.smem_bytes
        )
    }

    /// Feature vector for workload-to-workload distance. Log-scaled where
    /// the quantity spans decades, so "twice the channels" is the same
    /// step everywhere; kernel/stride stay linear (they are small
    /// integers whose unit steps matter).
    pub fn features(&self) -> [f64; 8] {
        let s = &self.shape;
        [
            (s.cin as f64).log2(),
            (s.hout() as f64).log2(),
            (s.wout() as f64).log2(),
            (s.cout as f64).log2(),
            s.kh as f64,
            s.kw as f64,
            s.stride as f64,
            (self.smem_bytes as f64).log2(),
        ]
    }

    /// Euclidean distance in feature space. Only meaningful between
    /// workloads of the same algorithm (the caller filters).
    pub fn distance(&self, other: &Workload) -> f64 {
        let a = self.features();
        let b = other.features();
        a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
    }

    /// Whether transfer between the two workloads is admissible: same
    /// algorithm family (configs carry algorithm-specific constraints,
    /// e.g. Winograd `e`-multiple tiles), same batch size, and same
    /// fused epilogue (a pool epilogue constrains admissible tilings, so
    /// chain configs only transfer to like chains).
    pub fn transfer_compatible(&self, other: &Workload) -> bool {
        self.kind == other.kind
            && self.shape.batch == other.shape.batch
            && self.epilogue == other.epilogue
    }
}

/// Canonical algorithm tag for a [`TileKind`].
pub fn algo_tag(kind: TileKind) -> String {
    let mut tag = String::new();
    let _ = write_algo_tag(&mut tag, kind);
    tag
}

/// [`algo_tag`] written into a caller's buffer (the line encoders').
pub fn write_algo_tag(out: &mut impl std::fmt::Write, kind: TileKind) -> std::fmt::Result {
    match kind {
        TileKind::Direct => out.write_str("direct"),
        TileKind::Winograd(t) => write!(out, "w{}x{}", t.e, t.r),
    }
}

/// Parses an algorithm tag written by [`algo_tag`].
pub fn parse_algo_tag(tag: &str) -> Result<TileKind, String> {
    if tag == "direct" {
        return Ok(TileKind::Direct);
    }
    let rest = tag.strip_prefix('w').ok_or_else(|| format!("unknown algorithm tag {tag:?}"))?;
    let (e, r) = rest.split_once('x').ok_or_else(|| format!("malformed winograd tag {tag:?}"))?;
    let e: usize = e.parse().map_err(|_| format!("bad winograd e in {tag:?}"))?;
    let r: usize = r.parse().map_err(|_| format!("bad winograd r in {tag:?}"))?;
    if e == 0 || r == 0 {
        return Err(format!("zero winograd tile in {tag:?}"));
    }
    Ok(TileKind::Winograd(WinogradTile::new(e, r)))
}

/// One measured data point: workload + configuration + cost + provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningRecord {
    pub workload: Workload,
    pub config: ScheduleConfig,
    /// Measured execution time, milliseconds. Always finite and positive
    /// (build failures are not recorded — they carry no cost signal).
    pub cost_ms: f64,
    /// The `TuneParams::seed` of the run that measured this record.
    pub seed: u64,
}

impl TuningRecord {
    /// Builds a record, rejecting non-finite / non-positive costs (which
    /// would poison top-k queries and cannot round-trip through JSON).
    pub fn new(
        workload: Workload,
        config: ScheduleConfig,
        cost_ms: f64,
        seed: u64,
    ) -> Result<Self, String> {
        if !cost_ms.is_finite() || cost_ms <= 0.0 {
            return Err(format!("cost must be finite and positive, got {cost_ms}"));
        }
        Ok(Self { workload, config, cost_ms, seed })
    }

    /// Total order used for canonical serialization and tie-breaking in
    /// top-k queries: cost first (bitwise, via `total_cmp`), then the
    /// config tuple — so equal-cost records still sort deterministically.
    pub fn canonical_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost_ms
            .total_cmp(&other.cost_ms)
            .then_with(|| config_key(&self.config).cmp(&config_key(&other.config)))
    }
}

/// Deterministic ordering key for a configuration.
pub fn config_key(
    c: &ScheduleConfig,
) -> (usize, usize, usize, usize, usize, usize, u32, &'static str) {
    (c.x, c.y, c.z, c.nxt, c.nyt, c.nzt, c.sb_bytes, c.layout.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_tensor::layout::Layout;

    fn wl(cin: usize) -> Workload {
        Workload::new(
            ConvShape::square(cin, 28, 32, 3, 1, 1),
            TileKind::Direct,
            "Tesla V100",
            96 * 1024,
        )
    }

    fn cfg() -> ScheduleConfig {
        ScheduleConfig {
            x: 7,
            y: 7,
            z: 8,
            nxt: 7,
            nyt: 7,
            nzt: 2,
            sb_bytes: 16 * 1024,
            layout: Layout::Chw,
        }
    }

    #[test]
    fn fingerprint_separates_workloads() {
        assert_eq!(wl(64).fingerprint(), wl(64).fingerprint());
        assert_ne!(wl(64).fingerprint(), wl(32).fingerprint());
        let mut dev = wl(64);
        dev.device = "GTX 1080 Ti".into();
        assert_ne!(dev.fingerprint(), wl(64).fingerprint());
        let wino = Workload { kind: TileKind::Winograd(WinogradTile::F2X3), ..wl(64) };
        assert_ne!(wino.fingerprint(), wl(64).fingerprint());
    }

    #[test]
    fn fused_fingerprint_extends_but_never_disturbs_unfused() {
        let bare = wl(64);
        let fused = wl(64).with_epilogue(Epilogue::ReluPool { k: 2 });
        assert!(bare.fingerprint().starts_with("direct|"), "unfused key must be unchanged");
        assert!(fused.fingerprint().starts_with("direct+relu+pool2|"));
        assert_ne!(bare.fingerprint(), fused.fingerprint());
        assert_ne!(
            wl(64).with_epilogue(Epilogue::Relu).fingerprint(),
            fused.fingerprint(),
            "distinct epilogues must key separately"
        );
    }

    #[test]
    fn transfer_requires_same_epilogue() {
        let bare = wl(64);
        let fused = wl(128).with_epilogue(Epilogue::Relu);
        assert!(!bare.transfer_compatible(&fused));
        assert!(wl(64).with_epilogue(Epilogue::Relu).transfer_compatible(&fused));
    }

    #[test]
    fn algo_tags_round_trip() {
        for kind in [
            TileKind::Direct,
            TileKind::Winograd(WinogradTile::F2X3),
            TileKind::Winograd(WinogradTile::F4X3),
        ] {
            assert_eq!(parse_algo_tag(&algo_tag(kind)).unwrap(), kind);
        }
        assert!(parse_algo_tag("im2col").is_err());
        assert!(parse_algo_tag("wAxB").is_err());
        assert!(parse_algo_tag("w0x3").is_err());
    }

    #[test]
    fn distance_is_a_metric_like_thing() {
        let a = wl(64);
        let b = wl(128);
        let c = wl(512);
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) < a.distance(&c), "closer channel count must be nearer");
    }

    #[test]
    fn transfer_requires_same_algorithm() {
        let direct = wl(64);
        let wino = Workload { kind: TileKind::Winograd(WinogradTile::F2X3), ..wl(64) };
        assert!(direct.transfer_compatible(&wl(128)));
        assert!(!direct.transfer_compatible(&wino));
    }

    #[test]
    fn record_rejects_bad_costs() {
        assert!(TuningRecord::new(wl(64), cfg(), f64::NAN, 1).is_err());
        assert!(TuningRecord::new(wl(64), cfg(), f64::INFINITY, 1).is_err());
        assert!(TuningRecord::new(wl(64), cfg(), 0.0, 1).is_err());
        assert!(TuningRecord::new(wl(64), cfg(), -1.0, 1).is_err());
        assert!(TuningRecord::new(wl(64), cfg(), 0.25, 1).is_ok());
    }

    #[test]
    fn canonical_cmp_breaks_cost_ties_by_config() {
        let r1 = TuningRecord::new(wl(64), cfg(), 1.0, 1).unwrap();
        let bigger = ScheduleConfig { x: 14, ..cfg() };
        let r2 = TuningRecord::new(wl(64), bigger, 1.0, 1).unwrap();
        assert_eq!(r1.canonical_cmp(&r2), std::cmp::Ordering::Less);
        assert_eq!(r2.canonical_cmp(&r1), std::cmp::Ordering::Greater);
    }
}
