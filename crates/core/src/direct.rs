//! Closed-form I/O lower-bound results for the **direct convolution**
//! (paper §4.2) and the I/O volume of the paper's near-optimal dataflow
//! (§5.2, Eqs. 20–21).

use crate::shapes::ConvShape;

/// Number of internal + output vertices in the direct-convolution DAG
/// (Lemma 4.8): `(2 W_ker H_ker C_in - 1) * W_out H_out C_out`, scaled by
/// the batch size (each image has an independent DAG copy).
pub fn vertex_count(shape: &ConvShape) -> u64 {
    let per_out = 2 * (shape.kw * shape.kh * shape.cin) as u64 - 1;
    per_out * shape.output_elems()
}

/// Precise I/O lower bound following the proof of Theorem 4.12:
///
/// ```text
/// Q >= (2 Wk Hk Cin - 1) Wout Hout Cout / (8 sqrt(2 R S) + 2 - 1/S) - S
/// ```
///
/// i.e. Theorem 4.6 instantiated with Lemma 4.8's `|V|` and Lemma 4.11's
/// `T(2S)`. Units: `s` is the fast-memory capacity in *elements*; the
/// result is in elements moved.
pub fn io_lower_bound(shape: &ConvShape, s: f64) -> f64 {
    let v = vertex_count(shape) as f64;
    let denom = 8.0 * (2.0 * shape.reuse_factor() * s).sqrt() + 2.0 - 1.0 / s;
    (v / denom - s).max(0.0)
}

/// Read I/O volume of the paper's dataflow with an explicit output tile
/// `x * y * z` (Eq. 20):
///
/// ```text
/// Q_read ~= (Hout Wout Cout / (x y z)) * (Hker Wker Cin (z + x y / R))
/// ```
///
/// Each output sub-block loads `x' y' C_in` inputs (where
/// `x' y' = mu^2 x y = x y Wk Hk / R`) and `Wk Hk Cin z` weights exactly
/// once. The batch dimension multiplies the number of sub-blocks.
pub fn dataflow_read_io(shape: &ConvShape, x: f64, y: f64, z: f64) -> f64 {
    let blocks = shape.output_elems() as f64 / (x * y * z);
    let kk_cin = (shape.kw * shape.kh * shape.cin) as f64;
    blocks * kk_cin * (z + x * y / shape.reuse_factor())
}

/// Total I/O of the dataflow with explicit tiles: reads (Eq. 20) plus one
/// store per output element.
pub fn dataflow_total_io(shape: &ConvShape, x: f64, y: f64, z: f64) -> f64 {
    dataflow_read_io(shape, x, y, z) + shape.output_elems() as f64
}

/// Total I/O at the *optimal* tile choice (Eq. 21): with `x y z ~= S/Np`
/// and the optimality condition `x y = R z`,
///
/// ```text
/// Q_DC ~= 2 Hout Wout Cout Hker Wker Cin / sqrt(R S / Np) + Hout Wout Cout
/// ```
pub fn dataflow_optimal_io(shape: &ConvShape, s: f64, np: f64) -> f64 {
    let out = shape.output_elems() as f64;
    let kk_cin = (shape.kw * shape.kh * shape.cin) as f64;
    2.0 * out * kk_cin / (shape.reuse_factor() * s / np).sqrt() + out
}

/// The *optimality condition* of §5.2: an output tile `x*y*z` minimises
/// Eq. 20 iff `x y = R z`. Returns the relative deviation
/// `|xy - Rz| / max(xy, Rz)` (0 = exactly optimal).
pub fn optimality_deviation(shape: &ConvShape, x: f64, y: f64, z: f64) -> f64 {
    let lhs = x * y;
    let rhs = shape.reuse_factor() * z;
    (lhs - rhs).abs() / lhs.max(rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite;
    use crate::composite::t_bound;
    use crate::phi_psi::direct_steps;

    fn layer() -> ConvShape {
        ConvShape::square(256, 56, 128, 3, 1, 1)
    }

    /// Closed-form `T(S)` upper bound of Lemma 4.11:
    /// `T(S) <= 4 S sqrt(R S) + S - 1`.
    fn t_closed(shape: &ConvShape, s: f64) -> f64 {
        let r = shape.reuse_factor();
        4.0 * s * (r * s).sqrt() + s - 1.0
    }

    #[test]
    fn vertex_count_matches_lemma_4_8() {
        let s = ConvShape::new(4, 6, 6, 2, 3, 3, 1, 0);
        // per output: 2*3*3*4 - 1 = 71; outputs: 2*4*4 = 32.
        assert_eq!(vertex_count(&s), 71 * 32);
    }

    #[test]
    fn vertex_count_scales_with_batch() {
        let s = layer();
        assert_eq!(vertex_count(&s.with_batch(8)), 8 * vertex_count(&s));
    }

    #[test]
    fn closed_t_dominates_numeric_t() {
        // The numeric maximiser of Theorem 4.5 must stay at or below the
        // closed-form Lemma 4.11 bound.
        let shape = layer();
        let steps = direct_steps(shape.reuse_factor());
        for s in [64.0, 1024.0, 16384.0] {
            let numeric = t_bound(&steps, s).t;
            let closed = t_closed(&shape, s);
            assert!(numeric <= closed * 1.0001, "S={s}: numeric {numeric} > closed {closed}");
            // And closed form is tight (within grid tolerance).
            assert!(numeric >= 0.999 * closed, "S={s}: numeric {numeric} << closed {closed}");
        }
    }

    #[test]
    fn precise_bound_consistent_with_generic_theorem() {
        let shape = layer();
        let s = 2048.0;
        let steps = direct_steps(shape.reuse_factor());
        let generic = composite::io_lower_bound(&steps, vertex_count(&shape) as f64, s);
        let precise = io_lower_bound(&shape, s);
        // Both instantiate Theorem 4.6; closed-form T is an upper bound on
        // numeric T, so the closed-form Q is a (slightly) *lower* lower
        // bound. They agree within the grid tolerance.
        assert!(precise <= generic * 1.001, "precise {precise} generic {generic}");
        assert!(precise >= 0.99 * generic, "precise {precise} generic {generic}");
    }

    #[test]
    fn lower_bound_decreases_with_s() {
        let shape = layer();
        let q1 = io_lower_bound(&shape, 1024.0);
        let q2 = io_lower_bound(&shape, 4096.0);
        assert!(q2 < q1);
        // 4x S should roughly halve the bound (1/sqrt(S) scaling).
        let ratio = q1 / q2;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn eq20_minimised_exactly_at_optimality_condition() {
        let shape = layer();
        let r = shape.reuse_factor();
        // Fixed budget xyz = 4096; compare xy = Rz against perturbations.
        let budget = 4096.0;
        let z = (budget / r).sqrt();
        let xy = r * z;
        let x = xy.sqrt();
        let best = dataflow_read_io(&shape, x, x, z);
        for factor in [0.5, 0.8, 1.25, 2.0] {
            let z2 = z * factor;
            let xy2 = budget / z2;
            let x2 = xy2.sqrt();
            let q = dataflow_read_io(&shape, x2, x2, z2);
            assert!(q >= best - 1e-6, "perturbed ({factor}) beat optimum: {q} < {best}");
        }
        assert!(optimality_deviation(&shape, x, x, z) < 1e-9);
    }

    #[test]
    fn eq21_matches_eq20_at_optimum() {
        let shape = layer();
        let s = 8192.0;
        let np = 1.0;
        // xyz = S/Np, xy = Rz.
        let r = shape.reuse_factor();
        let z = (s / np / r).sqrt();
        let xy = r * z;
        let x = xy.sqrt();
        let via_tiles = dataflow_total_io(&shape, x, x, z);
        let closed = dataflow_optimal_io(&shape, s, np);
        let rel = (via_tiles - closed).abs() / closed;
        assert!(rel < 1e-9, "tiles {via_tiles} closed {closed}");
    }

    #[test]
    fn dataflow_io_above_lower_bound() {
        // Any valid execution moves at least the lower bound.
        for hw in [14usize, 56, 112, 224] {
            let shape = ConvShape::square(256, hw, 128, 3, 1, 1);
            for s in [1024.0, 4096.0, 16384.0] {
                let q = dataflow_optimal_io(&shape, s, 1.0);
                let lb = io_lower_bound(&shape, s);
                assert!(q >= lb, "hw={hw} S={s}: dataflow {q} < bound {lb}");
            }
        }
    }

    #[test]
    fn near_optimality_ratio_is_small_constant() {
        // Thm 4.12 discussion: with Np = 1 and Hker Wker Cin/sqrt(SR) >> 1,
        // Q_DC approaches the bound within a constant (the paper's
        // constants give a ratio around 2*4*sqrt(2) / ... ~ O(10)).
        let shape = ConvShape::square(512, 112, 512, 3, 1, 1);
        let ratio =
            dataflow_optimal_io(&shape, 1024.0, 1.0) / io_lower_bound(&shape, 1024.0).max(1.0);
        assert!(ratio > 1.0, "dataflow cannot beat the bound: {ratio}");
        assert!(ratio < 16.0, "dataflow should be within a small constant: {ratio}");
    }

    #[test]
    fn stride_reduces_reuse_and_raises_io() {
        // Larger stride => smaller R => more I/O per flop for the same S.
        let s1 = ConvShape::square(256, 112, 128, 3, 1, 1);
        let s2 = ConvShape::square(256, 112, 128, 3, 2, 1);
        let per_out_1 = dataflow_optimal_io(&s1, 4096.0, 1.0) / s1.output_elems() as f64;
        let per_out_2 = dataflow_optimal_io(&s2, 4096.0, 1.0) / s2.output_elems() as f64;
        assert!(per_out_2 > per_out_1);
    }
}
