//! Fused operator epilogues and their composite I/O lower bounds.
//!
//! A convolution layer in a real network is almost never the end of the
//! chain: a ReLU follows it, and often a pooling reduction follows that.
//! Executed separately, each op round-trips the full intermediate tensor
//! through slow memory. Executed **fused**, the epilogue is applied to
//! the convolution's output tile while it is still register/cache
//! resident and the intermediate never touches slow memory at all —
//! exactly the composite-kernel setting of the paper's §4.1.3–4.1.4
//! machinery.
//!
//! This module gives the fused chain a first-class identity:
//!
//! * [`Epilogue`] names what follows the convolution (nothing, `relu`,
//!   or `relu` + a non-overlapping `k x k` max-pool) with a canonical
//!   string tag, so a fused workload fingerprints differently from its
//!   conv-only sibling.
//! * `EpilogueMapStep` / `EpiloguePoolStep` are the [`StepBound`]s
//!   of the two epilogue sub-computations, letting the generic
//!   [`crate::composite`] maximisation produce a *real* composite
//!   `Q_lower` for the whole chain via [`fused_io_lower_bound`].
//! * [`Epilogue::unfused_epilogue_traffic`] / [`Epilogue::fused_write_delta`] quantify the
//!   slow-memory traffic the fusion decision is about — the analytic
//!   inputs of the serving layer's fusion gate.
//!
//! Only non-overlapping pools (`stride == k`) are representable: an
//! overlapping pool window needs neighbouring conv output tiles, which
//! breaks the tile-local fusion contract. Chains with other pool
//! geometries simply stay unfused.

use crate::optimality::TileKind;
use crate::phi_psi::{direct_steps, winograd_steps, StepBound};
use crate::shapes::ConvShape;
use std::collections::HashMap;
use std::sync::{LazyLock, Mutex};

/// What follows a convolution inside one fused block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Epilogue {
    /// Bare convolution — the unfused identity. Workloads with this
    /// epilogue fingerprint exactly as they did before fusion existed.
    #[default]
    None,
    /// `relu(x) = max(0, x)` applied elementwise to the conv output.
    Relu,
    /// ReLU followed by a non-overlapping `k x k` max-pool
    /// (`stride == k`). `k >= 2`.
    ReluPool {
        /// Pool window edge (and stride).
        k: usize,
    },
}

impl Epilogue {
    /// Whether this is the unfused identity.
    pub fn is_none(&self) -> bool {
        matches!(self, Epilogue::None)
    }

    /// Canonical tag appended to fingerprints and wire lines. Empty for
    /// [`Epilogue::None`], so pre-fusion fingerprints are unchanged.
    pub fn tag(&self) -> String {
        let mut tag = String::new();
        let _ = self.write_tag(&mut tag);
        tag
    }

    /// [`tag`](Self::tag) written into a caller's buffer (the line
    /// encoders').
    pub fn write_tag(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        match self {
            Epilogue::None => Ok(()),
            Epilogue::Relu => out.write_str("+relu"),
            Epilogue::ReluPool { k } => write!(out, "+relu+pool{k}"),
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn parse_tag(tag: &str) -> Result<Epilogue, String> {
        if tag.is_empty() {
            return Ok(Epilogue::None);
        }
        if tag == "+relu" {
            return Ok(Epilogue::Relu);
        }
        if let Some(k) = tag.strip_prefix("+relu+pool") {
            let k: usize = k.parse().map_err(|_| format!("bad epilogue tag {tag:?}"))?;
            if k < 2 {
                return Err(format!("pool window {k} must be >= 2"));
            }
            return Ok(Epilogue::ReluPool { k });
        }
        Err(format!("unknown epilogue tag {tag:?}"))
    }

    /// The block's final output extent given the conv output extent:
    /// identical for `None`/`Relu`, divided by `k` for the pool.
    /// `None` when the pool window does not tile the conv output evenly
    /// (such a chain is not fusable — see [`fusable_on`](Self::fusable_on)).
    pub(crate) fn out_extent(&self, conv_extent: usize) -> Option<usize> {
        match self {
            Epilogue::None | Epilogue::Relu => Some(conv_extent),
            Epilogue::ReluPool { k } => {
                if conv_extent.is_multiple_of(*k) {
                    Some(conv_extent / k)
                } else {
                    None
                }
            }
        }
    }

    /// Whether the epilogue can fuse onto this conv shape at all: the
    /// pool window must tile the conv output exactly in both spatial
    /// dimensions (an uneven edge would need cross-tile neighbours).
    pub fn fusable_on(&self, shape: &ConvShape) -> bool {
        self.out_extent(shape.hout()).is_some() && self.out_extent(shape.wout()).is_some()
    }

    /// Final output elements of the fused block across the batch.
    /// `None` when the chain is not fusable on `shape`.
    pub(crate) fn out_elems(&self, shape: &ConvShape) -> Option<u64> {
        let h = self.out_extent(shape.hout())? as u64;
        let w = self.out_extent(shape.wout())? as u64;
        Some(shape.batch as u64 * shape.cout as u64 * h * w)
    }

    /// Vertices the epilogue sub-DAG adds on top of the convolution's
    /// `|V|`: one ReLU vertex per conv output, plus (for the pool) the
    /// comparison tree over each `k x k` window — `k^2 - 1` internal
    /// vertices per pooled output, i.e. `conv_out - pooled` max vertices
    /// plus the `pooled` outputs themselves equal `conv_out` again.
    pub(crate) fn extra_vertices(&self, shape: &ConvShape) -> f64 {
        let conv_out = shape.output_elems() as f64;
        match self {
            Epilogue::None => 0.0,
            Epilogue::Relu => conv_out,
            // relu vertices + max-tree vertices (each window's k^2-leaf
            // tournament has k^2 - 1 vertices; summed over windows that
            // is conv_out - pooled, and the roots are the outputs).
            Epilogue::ReluPool { .. } => {
                let pooled = self.out_elems(shape).map_or(conv_out, |p| p as f64);
                conv_out + (conv_out - pooled)
            }
        }
    }

    /// Slow-memory traffic (elements) the *unfused* composition pays on
    /// top of the convolution's own I/O: every intermediate round-trips.
    /// ReLU reads and writes the full conv output; the pool then reads
    /// it again and writes the pooled tensor.
    pub fn unfused_epilogue_traffic(&self, shape: &ConvShape) -> f64 {
        let conv_out = shape.output_elems() as f64;
        match self {
            Epilogue::None => 0.0,
            Epilogue::Relu => 2.0 * conv_out,
            Epilogue::ReluPool { .. } => {
                let pooled = self.out_elems(shape).map_or(conv_out, |p| p as f64);
                3.0 * conv_out + pooled
            }
        }
    }

    /// Change in the convolution's own *write* traffic under fusion
    /// (elements, `<= 0`): a fused pool writes the pooled tensor instead
    /// of the full conv output; a fused ReLU writes the same volume.
    pub fn fused_write_delta(&self, shape: &ConvShape) -> f64 {
        let conv_out = shape.output_elems() as f64;
        match self {
            Epilogue::None | Epilogue::Relu => 0.0,
            Epilogue::ReluPool { .. } => {
                let pooled = self.out_elems(shape).map_or(conv_out, |p| p as f64);
                pooled - conv_out
            }
        }
    }

    /// Extra arithmetic the epilogue performs (operation count): one
    /// `max` per ReLU element, `k^2 - 1` comparisons per pooled output.
    pub fn flops(&self, shape: &ConvShape) -> f64 {
        let conv_out = shape.output_elems() as f64;
        match self {
            Epilogue::None => 0.0,
            Epilogue::Relu => conv_out,
            Epilogue::ReluPool { .. } => {
                let pooled = self.out_elems(shape).map_or(conv_out, |p| p as f64);
                conv_out + (conv_out - pooled)
            }
        }
    }

    /// The epilogue's own [`StepBound`] sequence, appended after the
    /// convolution's steps by [`fused_steps`].
    pub(crate) fn steps(&self) -> Vec<Box<dyn StepBound>> {
        match self {
            Epilogue::None => Vec::new(),
            Epilogue::Relu => vec![Box::new(EpilogueMapStep)],
            Epilogue::ReluPool { k } => {
                vec![Box::new(EpilogueMapStep), Box::new(EpiloguePoolStep { k: *k })]
            }
        }
    }
}

impl std::fmt::Display for Epilogue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Epilogue::None => write!(f, "none"),
            Epilogue::Relu => write!(f, "relu"),
            Epilogue::ReluPool { k } => write!(f, "relu+pool{k}"),
        }
    }
}

/// The elementwise ReLU step: each available input yields exactly one
/// output vertex, so `phi(h) = psi(h) = h` — a pure map has no internal
/// vertices and no fan-in.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpilogueMapStep;

impl StepBound for EpilogueMapStep {
    fn phi(&self, _s: f64, h: f64) -> f64 {
        h.max(0.0)
    }
    fn name(&self) -> &'static str {
        "epilogue/relu"
    }
}

/// The `k x k` max-pool step: per pooled output a `k^2`-leaf comparison
/// tree. Like the direct convolution's summation trees (Lemma 4.7),
/// `h` available inputs generate at most `h - 1` tree vertices; at most
/// `h / k^2` of them can be tree *roots* (outputs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpiloguePoolStep {
    /// Pool window edge (and stride).
    pub k: usize,
}

impl StepBound for EpiloguePoolStep {
    fn phi(&self, _s: f64, h: f64) -> f64 {
        (h - 1.0).max(0.0)
    }
    fn psi(&self, s: f64, h: f64) -> f64 {
        let window = (self.k * self.k) as f64;
        (h / window).min(self.phi(s, h)).max(0.0)
    }
    fn name(&self) -> &'static str {
        "epilogue/maxpool"
    }
}

/// The full step sequence of a fused `conv -> epilogue` chain: the
/// convolution algorithm's own steps (Fig. 4 / Fig. 5) followed by the
/// epilogue's.
pub(crate) fn fused_steps(
    shape: &ConvShape,
    kind: TileKind,
    epilogue: Epilogue,
) -> Vec<Box<dyn StepBound>> {
    let mut steps = match kind {
        TileKind::Direct => direct_steps(shape.reuse_factor()),
        TileKind::Winograd(tile) => winograd_steps(tile),
    };
    steps.extend(epilogue.steps());
    steps
}

/// `|V|` of the fused chain: the convolution's vertex count plus the
/// epilogue's extra vertices.
pub(crate) fn fused_vertex_count(shape: &ConvShape, kind: TileKind, epilogue: Epilogue) -> f64 {
    let conv_v = match kind {
        TileKind::Direct => crate::direct::vertex_count(shape) as f64,
        TileKind::Winograd(tile) => crate::winograd::vertex_count_exact(shape, tile) as f64,
    };
    conv_v + epilogue.extra_vertices(shape)
}

/// Composite I/O lower bound of the fused chain (Theorem 4.6 over the
/// chain's full step sequence): `Q >= S (|V| / T(2S) - 1)`. For
/// [`Epilogue::None`] this degenerates to the convolution's own
/// composite bound.
pub fn fused_io_lower_bound(shape: &ConvShape, kind: TileKind, epilogue: Epilogue, s: f64) -> f64 {
    let v = fused_vertex_count(shape, kind, epilogue);
    crate::composite::io_lower_bound_with_t(v, s, fused_t_2s(shape, kind, epilogue, s))
}

/// Most step sequences [`fused_t_2s`] remembers.
const T_MEMO_CAP: usize = 256;

/// `T(2S)` of the fused chain, computed once per step sequence. The grid
/// maximisation behind it costs microseconds to milliseconds (13^(n-1)
/// points x 6 levels), yet its value depends only on the steps —
/// `(kind, R for direct, epilogue, S)` — not on the layer, and the fusion
/// gate asks for it on every fused request: a dozen values cover a
/// process. Past [`T_MEMO_CAP`] distinct sequences (hostile shapes can
/// vary `R` at will) new values are computed and not kept.
fn fused_t_2s(shape: &ConvShape, kind: TileKind, epilogue: Epilogue, s: f64) -> f64 {
    type Memo = Mutex<HashMap<(TileKind, u64, Epilogue, u64), f64>>;
    static MEMO: LazyLock<Memo> = LazyLock::new(Memo::default);
    // `R` enters the direct steps only; the Winograd ones take the tile.
    let reuse = match kind {
        TileKind::Direct => shape.reuse_factor().to_bits(),
        TileKind::Winograd(_) => 0,
    };
    let key = (kind, reuse, epilogue, s.to_bits());
    if let Some(&t) = MEMO.lock().expect("T(2S) memo poisoned").get(&key) {
        return t;
    }
    let t = crate::composite::t_bound(&fused_steps(shape, kind, epilogue), 2.0 * s).t;
    let mut memo = MEMO.lock().expect("T(2S) memo poisoned");
    if memo.len() < T_MEMO_CAP {
        memo.insert(key, t);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        // 28x28 output, divisible by 2: pool-fusable.
        ConvShape::square(32, 28, 64, 3, 1, 1)
    }

    #[test]
    fn tags_round_trip() {
        for epi in [
            Epilogue::None,
            Epilogue::Relu,
            Epilogue::ReluPool { k: 2 },
            Epilogue::ReluPool { k: 3 },
        ] {
            assert_eq!(Epilogue::parse_tag(&epi.tag()).unwrap(), epi);
        }
        assert_eq!(Epilogue::None.tag(), "", "unfused tag must stay empty");
        assert!(Epilogue::parse_tag("+relu+pool1").is_err());
        assert!(Epilogue::parse_tag("+swish").is_err());
        assert!(Epilogue::parse_tag("+relu+poolx").is_err());
    }

    #[test]
    fn pool_requires_exact_tiling() {
        let s = shape(); // hout = wout = 28
        assert!(Epilogue::ReluPool { k: 2 }.fusable_on(&s));
        assert!(Epilogue::ReluPool { k: 4 }.fusable_on(&s));
        assert!(!Epilogue::ReluPool { k: 3 }.fusable_on(&s), "28 % 3 != 0");
        assert!(Epilogue::Relu.fusable_on(&s));
        let pooled = s.batch as u64 * s.cout as u64 * 14 * 14;
        assert_eq!(Epilogue::ReluPool { k: 2 }.out_elems(&s), Some(pooled));
    }

    #[test]
    fn epilogue_steps_are_monotone_and_psi_le_phi() {
        let steps: Vec<Box<dyn StepBound>> =
            vec![Box::new(EpilogueMapStep), Box::new(EpiloguePoolStep { k: 2 })];
        for s in [16.0, 4096.0] {
            for st in &steps {
                let mut prev_phi = f64::NEG_INFINITY;
                let mut prev_psi = f64::NEG_INFINITY;
                for h in [0.0, 1.0, 4.0, 64.0, 1e6] {
                    let p = st.phi(s, h);
                    let q = st.psi(s, h);
                    assert!(p >= prev_phi && q >= prev_psi, "{} not monotone", st.name());
                    assert!(q <= p + 1e-9, "{} psi > phi", st.name());
                    prev_phi = p;
                    prev_psi = q;
                }
            }
        }
    }

    #[test]
    fn fused_chain_grows_vertices_and_keeps_bound_positive() {
        // Appending an epilogue step both raises `|V|` and (because the
        // new step also generates vertices within a segment) raises
        // `T(2S)` — so the bound itself need not dominate the conv-only
        // bound, but it must stay positive and the vertex count must
        // grow strictly.
        let s = 4096.0;
        let shape = shape();
        let v_none = fused_vertex_count(&shape, TileKind::Direct, Epilogue::None);
        let v_relu = fused_vertex_count(&shape, TileKind::Direct, Epilogue::Relu);
        let v_pool = fused_vertex_count(&shape, TileKind::Direct, Epilogue::ReluPool { k: 2 });
        assert!(v_none < v_relu && v_relu < v_pool);
        for epi in [Epilogue::None, Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
            let q = fused_io_lower_bound(&shape, TileKind::Direct, epi, s);
            assert!(q > 0.0 && q.is_finite(), "{epi}: bound {q}");
        }
    }

    #[test]
    fn fused_bound_below_unfused_composition_traffic() {
        // The whole point of fusing: the chain's lower bound is below
        // what the unfused composition provably pays (conv bound plus
        // full intermediate round-trips).
        let s = 4096.0;
        let shape = shape();
        for epi in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
            let fused = fused_io_lower_bound(&shape, TileKind::Direct, epi, s);
            let unfused = fused_io_lower_bound(&shape, TileKind::Direct, Epilogue::None, s)
                + epi.unfused_epilogue_traffic(&shape);
            assert!(fused < unfused, "{epi}: fused bound {fused} >= unfused traffic {unfused}");
        }
    }

    #[test]
    fn memoised_t_is_bit_identical_to_a_fresh_maximisation() {
        let direct = shape();
        let strided = ConvShape::square(32, 28, 64, 3, 2, 1);
        let f2x3 = TileKind::Winograd(crate::shapes::WinogradTile::F2X3);
        for (shape, kind, epi) in [
            (direct, TileKind::Direct, Epilogue::Relu),
            (strided, TileKind::Direct, Epilogue::Relu),
            (direct, TileKind::Direct, Epilogue::ReluPool { k: 2 }),
            (direct, f2x3, Epilogue::Relu),
        ] {
            for s in [4096.0, 24576.0] {
                let fresh = crate::composite::t_bound(&fused_steps(&shape, kind, epi), 2.0 * s).t;
                // First call fills the memo (or finds it filled), second hits it.
                for _ in 0..2 {
                    let memo = fused_t_2s(&shape, kind, epi, s);
                    assert_eq!(memo.to_bits(), fresh.to_bits(), "{kind:?} {epi} S={s}");
                }
                let bound = crate::composite::io_lower_bound(
                    &fused_steps(&shape, kind, epi),
                    fused_vertex_count(&shape, kind, epi),
                    s,
                );
                assert_eq!(fused_io_lower_bound(&shape, kind, epi, s).to_bits(), bound.to_bits());
            }
        }
        // A different stride is a different R, hence a different T(2S).
        assert_ne!(
            fused_t_2s(&direct, TileKind::Direct, Epilogue::Relu, 4096.0),
            fused_t_2s(&strided, TileKind::Direct, Epilogue::Relu, 4096.0)
        );
    }

    #[test]
    fn traffic_model_shapes() {
        let s = shape();
        let out = s.output_elems() as f64;
        assert_eq!(Epilogue::None.unfused_epilogue_traffic(&s), 0.0);
        assert_eq!(Epilogue::Relu.unfused_epilogue_traffic(&s), 2.0 * out);
        let pool = Epilogue::ReluPool { k: 2 };
        assert_eq!(pool.unfused_epilogue_traffic(&s), 3.0 * out + out / 4.0);
        assert_eq!(pool.fused_write_delta(&s), out / 4.0 - out);
        assert_eq!(Epilogue::Relu.fused_write_delta(&s), 0.0);
    }

    #[test]
    fn winograd_chain_bound_is_positive() {
        let s = 4096.0;
        let shape = ConvShape::square(64, 28, 64, 3, 1, 1);
        let kind = TileKind::Winograd(crate::shapes::WinogradTile::F2X3);
        let q = fused_io_lower_bound(&shape, kind, Epilogue::Relu, s);
        assert!(q > 0.0);
    }
}
