//! Maximum vertex-generation functions `phi_j` / `psi_j` (paper §4.1.2).
//!
//! For the `j`-th sub-computation of a composite algorithm, `phi_j(k)` is
//! the maximum number of vertices of the sub-DAG `U_j` that can be generated
//! by a dominator budget of `k` vertices, and `psi_j(k)` the maximum number
//! of *output* vertices of `U_j` so generated (Eq. 4). The paper derives
//! closed-form upper bounds for each step of the direct convolution
//! (Lemmas 4.9, 4.10) and of the Winograd algorithm (Lemmas 4.15–4.18); we
//! encode those bounds here so the generic `T(S)` machinery in
//! [`crate::composite`] can maximise over budget splits.
//!
//! All bounds may depend on the fast-memory size `S` as well as the budget
//! `h` (several Winograd lemmas cap generation by `S`-dependent terms), so
//! the trait takes both.

use crate::shapes::WinogradTile;

/// A per-step pair of vertex-generation upper bounds.
///
/// Implementations must be non-decreasing in `h` for fixed `s`; the
/// composite maximisation relies on that monotonicity (it lets it assume the
/// total budget is fully spent).
pub trait StepBound {
    /// Upper bound on vertices of `U_j` generated from a budget of `h`.
    fn phi(&self, s: f64, h: f64) -> f64;
    /// Upper bound on output vertices of `U_j` generated from a budget of
    /// `h`. Defaults to `phi` (valid whenever the step has no internal
    /// vertices, e.g. pure product steps).
    fn psi(&self, s: f64, h: f64) -> f64 {
        self.phi(s, h)
    }
    /// Human-readable step name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Step 1 of the direct convolution: forming the elementwise products
/// between sliding input tensors and kernels.
///
/// Lemma 4.9: `phi_1(h) <= 2 S sqrt(R h)` where `R` is the input reuse
/// factor (Eq. 13), and `psi_1 = phi_1` because the product step has no
/// internal vertices.
#[derive(Debug, Clone, Copy)]
pub struct DirectProductStep {
    /// Input reuse factor `R`.
    pub reuse: f64,
}

impl StepBound for DirectProductStep {
    fn phi(&self, s: f64, h: f64) -> f64 {
        2.0 * s * (self.reuse * h).sqrt()
    }
    fn name(&self) -> &'static str {
        "direct/products"
    }
}

/// Step 2 of the direct convolution: the per-output summation trees.
///
/// Lemma 4.10: `phi_2(h) <= h - 1` — with `h` inputs available to summation
/// trees, at most `h - 1` internal/output vertices can be formed
/// (Lemma 4.7). We clamp at zero for `h < 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SummationTreeStep;

impl StepBound for SummationTreeStep {
    fn phi(&self, _s: f64, h: f64) -> f64 {
        (h - 1.0).max(0.0)
    }
    /// The summation step is the last step of the direct convolution, so its
    /// `psi` is never consumed; `min(h/2, h-1)` is still a valid bound (two
    /// inputs per produced output at tree roots, and outputs are a subset of
    /// the generated vertices so `psi <= phi` always holds for the true
    /// maxima — we clamp the bound accordingly).
    fn psi(&self, s: f64, h: f64) -> f64 {
        (h / 2.0).min(self.phi(s, h)).max(0.0)
    }
    fn name(&self) -> &'static str {
        "direct/summation-trees"
    }
}

/// Step 1 of the Winograd algorithm: input and kernel transforms
/// (`P_i = B^T I_i B`, `J_k = L K_k L^T`), realised as linear-combination
/// trees.
///
/// Lemma 4.15: `phi_1(h) <= 6 h (e+r-1)^4 / (e r)` and
/// `psi_1(h) <= 3 h (e+r-1)^2 / (e r)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WinogradTransformStep {
    pub tile: WinogradTile,
}

impl StepBound for WinogradTransformStep {
    fn phi(&self, _s: f64, h: f64) -> f64 {
        let a = self.tile.a() as f64;
        6.0 * h * a.powi(4) / (self.tile.e as f64 * self.tile.r as f64)
    }
    fn psi(&self, _s: f64, h: f64) -> f64 {
        let a = self.tile.a() as f64;
        3.0 * h * a * a / (self.tile.e as f64 * self.tile.r as f64)
    }
    fn name(&self) -> &'static str {
        "winograd/transforms"
    }
}

/// Step 2 of the Winograd algorithm: elementwise multiplication
/// `Lambda = P ⊙ J`.
///
/// Lemma 4.16: `phi_2(h) <= h sqrt(h) + (e+r-1)^2 S sqrt(h) / e^2`, and
/// `psi_2 = phi_2` (no internal vertices).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WinogradElementwiseStep {
    pub tile: WinogradTile,
}

impl StepBound for WinogradElementwiseStep {
    fn phi(&self, s: f64, h: f64) -> f64 {
        let a = self.tile.a() as f64;
        let e2 = (self.tile.e * self.tile.e) as f64;
        h * h.sqrt() + a * a * s * h.sqrt() / e2
    }
    fn name(&self) -> &'static str {
        "winograd/elementwise"
    }
}

/// Step 3 of the Winograd algorithm: channel-direction summation trees
/// producing `Pi_{i,k}`.
///
/// Lemma 4.17: `phi_3(h) <= h - 1`,
/// `psi_3(h) <= min(h/2, S (e+r-1)^2 / e^2)`. As outputs are a subset of the
/// step's vertices, we additionally clamp `psi <= phi`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WinogradChannelSumStep {
    pub tile: WinogradTile,
}

impl StepBound for WinogradChannelSumStep {
    fn phi(&self, _s: f64, h: f64) -> f64 {
        (h - 1.0).max(0.0)
    }
    fn psi(&self, s: f64, h: f64) -> f64 {
        let a = self.tile.a() as f64;
        let e2 = (self.tile.e * self.tile.e) as f64;
        (h / 2.0).min(s * a * a / e2).min(self.phi(s, h)).max(0.0)
    }
    fn name(&self) -> &'static str {
        "winograd/channel-sums"
    }
}

/// Step 4 of the Winograd algorithm: the output transform
/// (`A^T Pi A`), again linear-combination trees.
///
/// Lemma 4.18: `phi_4(h) <= min((2h - 1) e^2, (2(e+r-1)^2 - 1) S)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WinogradOutputStep {
    pub tile: WinogradTile,
}

impl StepBound for WinogradOutputStep {
    fn phi(&self, s: f64, h: f64) -> f64 {
        let a = self.tile.a() as f64;
        let e2 = (self.tile.e * self.tile.e) as f64;
        ((2.0 * h - 1.0) * e2).min((2.0 * a * a - 1.0) * s).max(0.0)
    }
    fn name(&self) -> &'static str {
        "winograd/output-transform"
    }
}

/// The two-step bound sequence for the direct convolution
/// (`G = G_1 ∪ G_2`, Fig. 4).
pub fn direct_steps(reuse: f64) -> Vec<Box<dyn StepBound>> {
    vec![Box::new(DirectProductStep { reuse }), Box::new(SummationTreeStep)]
}

/// The four-step bound sequence for the Winograd algorithm (Fig. 5).
pub fn winograd_steps(tile: WinogradTile) -> Vec<Box<dyn StepBound>> {
    vec![
        Box::new(WinogradTransformStep { tile }),
        Box::new(WinogradElementwiseStep { tile }),
        Box::new(WinogradChannelSumStep { tile }),
        Box::new(WinogradOutputStep { tile }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_monotone(step: &dyn StepBound, s: f64) {
        let mut prev_phi = f64::NEG_INFINITY;
        let mut prev_psi = f64::NEG_INFINITY;
        for h in [0.0, 1.0, 2.0, 4.0, 8.0, 64.0, 1024.0, 1e6] {
            let p = step.phi(s, h);
            let q = step.psi(s, h);
            assert!(p >= prev_phi - 1e-9, "{} phi not monotone at h={h}", step.name());
            assert!(q >= prev_psi - 1e-9, "{} psi not monotone at h={h}", step.name());
            assert!(q <= p + 1e-9, "{} psi must not exceed phi at h={h}", step.name());
            prev_phi = p;
            prev_psi = q;
        }
    }

    #[test]
    fn all_steps_monotone_and_psi_le_phi() {
        let tile = WinogradTile::F2X3;
        let steps: Vec<Box<dyn StepBound>> = vec![
            Box::new(DirectProductStep { reuse: 9.0 }),
            Box::new(SummationTreeStep),
            Box::new(WinogradTransformStep { tile }),
            Box::new(WinogradElementwiseStep { tile }),
            Box::new(WinogradChannelSumStep { tile }),
            Box::new(WinogradOutputStep { tile }),
        ];
        for s in [16.0, 256.0, 4096.0] {
            for st in &steps {
                assert_monotone(st.as_ref(), s);
            }
        }
    }

    #[test]
    fn direct_product_matches_lemma_4_9() {
        let step = DirectProductStep { reuse: 9.0 };
        // phi_1(h) = 2 S sqrt(R h): S=100, h=4 => 2*100*sqrt(36) = 1200.
        assert!((step.phi(100.0, 4.0) - 1200.0).abs() < 1e-9);
        assert!((step.psi(100.0, 4.0) - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn summation_tree_matches_lemma_4_10() {
        let step = SummationTreeStep;
        assert_eq!(step.phi(1e9, 10.0), 9.0);
        assert_eq!(step.phi(1e9, 0.5), 0.0);
    }

    #[test]
    fn winograd_transform_matches_lemma_4_15() {
        let tile = WinogradTile::F2X3; // a = 4, e*r = 6
        let step = WinogradTransformStep { tile };
        // phi = 6 h a^4/(er) = 6*1*256/6 = 256.
        assert!((step.phi(0.0, 1.0) - 256.0).abs() < 1e-9);
        // psi = 3 h a^2/(er) = 3*16/6 = 8.
        assert!((step.psi(0.0, 1.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn winograd_elementwise_matches_lemma_4_16() {
        let tile = WinogradTile::F2X3; // a^2/e^2 = 16/4 = 4
        let step = WinogradElementwiseStep { tile };
        // phi = h^1.5 + 4 S sqrt(h); h=4, S=10 => 8 + 80 = 88.
        assert!((step.phi(10.0, 4.0) - 88.0).abs() < 1e-9);
    }

    #[test]
    fn winograd_channel_sum_caps_psi() {
        let tile = WinogradTile::F2X3;
        let step = WinogradChannelSumStep { tile };
        // psi = min(h/2, 4S). Small h: h/2 governs.
        assert!((step.psi(100.0, 10.0) - 5.0).abs() < 1e-9);
        // Large h: the S cap governs: 4*100 = 400.
        assert!((step.psi(100.0, 1e6) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn winograd_output_caps_by_s() {
        let tile = WinogradTile::F2X3; // e^2 = 4, (2a^2-1) = 31
        let step = WinogradOutputStep { tile };
        // Small h: (2h-1)e^2 = 4*(2*3-1) = 20.
        assert!((step.phi(1000.0, 3.0) - 20.0).abs() < 1e-9);
        // Large h: 31 S.
        assert!((step.phi(10.0, 1e9) - 310.0).abs() < 1e-9);
    }

    #[test]
    fn step_sequences_have_expected_arity() {
        assert_eq!(direct_steps(9.0).len(), 2);
        assert_eq!(winograd_steps(WinogradTile::F2X3).len(), 4);
    }
}
