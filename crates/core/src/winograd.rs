//! Closed-form I/O lower-bound results for the **Winograd algorithm**
//! (paper §4.3) and the I/O volume of the paper's dataflow for it
//! (§5.3, Eqs. 22–23).

use crate::shapes::{ConvShape, WinogradTile};

/// Number of internal + output vertices in the Winograd DAG per Lemma 4.14
/// (leading form): `2 Wout Hout Cout Cin (e+r-1)^4 / e^2`, scaled by batch.
///
/// The count treats every `(tile, output-channel)` pair independently —
/// i.e. input transforms are counted per pair, matching the paper's proof
/// which notes "each e^2 output vertices are generated independently"
/// (re-computation of transforms is permitted by the model).
pub fn vertex_count_leading(shape: &ConvShape, tile: WinogradTile) -> f64 {
    let a = tile.a() as f64;
    2.0 * shape.output_elems() as f64 * shape.cin as f64 * a.powi(4) / (tile.e * tile.e) as f64
}

/// Exact vertex count obtained by summing the per-pair tree sizes from the
/// proof of Lemma 4.14:
///
/// * input transform `P_i`: `(2a^2 - 1) a^2 C_in` vertices,
/// * kernel transform `J_k`: `(2r^2 - 1) a^2 C_in` vertices,
/// * elementwise products: `a^2 C_in`,
/// * channel summation trees: `(C_in - 1) a^2`,
/// * output transform: `(2a^2 - 1) e^2`,
///
/// all times the number of `(tile, channel)` pairs
/// `ceil(Hout/e) * ceil(Wout/e) * Cout` (per image).
pub fn vertex_count_exact(shape: &ConvShape, tile: WinogradTile) -> u64 {
    let a2 = (tile.a() * tile.a()) as u64;
    let e2 = (tile.e * tile.e) as u64;
    let r2 = (tile.r * tile.r) as u64;
    let cin = shape.cin as u64;
    let p = (2 * a2 - 1) * a2 * cin;
    let j = (2 * r2 - 1) * a2 * cin;
    let mul = a2 * cin;
    let sum = (cin - 1) * a2;
    let out = (2 * a2 - 1) * e2;
    let tiles_h = shape.hout().div_ceil(tile.e) as u64;
    let tiles_w = shape.wout().div_ceil(tile.e) as u64;
    let pairs = tiles_h * tiles_w * shape.cout as u64 * shape.batch as u64;
    pairs * (p + j + mul + sum + out)
}

/// Closed-form `T(S)` of Lemma 4.19 (leading + second-order term):
/// `T(S) = 2 (e+r-1)^3/(e r) S sqrt(S) + 6 (e+r-1)^2/(e r) S`.
pub(crate) fn t_closed(tile: WinogradTile, s: f64) -> f64 {
    let a = tile.a() as f64;
    let er = (tile.e * tile.r) as f64;
    2.0 * a.powi(3) / er * s * s.sqrt() + 6.0 * a * a / er * s
}

/// Precise I/O lower bound following the proof of Theorem 4.20:
/// `Q >= S * ( 2 Wout Hout Cout Cin (e+r-1)^4 / (e^2 T(2S)) - 1 )`
/// using the closed-form `T` of Lemma 4.19 with argument `2S`.
pub fn io_lower_bound(shape: &ConvShape, tile: WinogradTile, s: f64) -> f64 {
    let v = vertex_count_leading(shape, tile);
    let t2s = t_closed(tile, 2.0 * s);
    (s * (v / t2s - 1.0)).max(0.0)
}

/// Read I/O volume of the Winograd dataflow with an explicit output tile
/// `x * y * z` (Eq. 22):
///
/// ```text
/// Q_read ~= (Hout Wout Cout / (x y z)) * (x y C_in + z r^2 C_in)
/// ```
///
/// (`mu = 1` for Winograd, so `x' ~= x`, `y' ~= y`.)
pub(crate) fn dataflow_read_io(
    shape: &ConvShape,
    tile: WinogradTile,
    x: f64,
    y: f64,
    z: f64,
) -> f64 {
    let blocks = shape.output_elems() as f64 / (x * y * z);
    let r2 = (tile.r * tile.r) as f64;
    blocks * shape.cin as f64 * (x * y + z * r2)
}

/// Total I/O with explicit tiles: Eq. 22 plus one store per output.
pub fn dataflow_total_io(shape: &ConvShape, tile: WinogradTile, x: f64, y: f64, z: f64) -> f64 {
    dataflow_read_io(shape, tile, x, y, z) + shape.output_elems() as f64
}

/// Total I/O at the optimal tile choice (Eq. 23): with the on-chip budget
/// `2 (e+r-1)^2/e^2 * x y z ~= S/Np` (the two temporary arrays dominate)
/// and the optimality condition `x y = r^2 z`,
///
/// ```text
/// Q_WA ~= 2 Hout Wout Cout Cin r (e+r-1) / (e sqrt(S/Np)) + Hout Wout Cout
/// ```
pub fn dataflow_optimal_io(shape: &ConvShape, tile: WinogradTile, s: f64, np: f64) -> f64 {
    let out = shape.output_elems() as f64;
    let a = tile.a() as f64;
    2.0 * out * shape.cin as f64 * tile.r as f64 * a / (tile.e as f64 * (s / np).sqrt()) + out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::t_bound;
    use crate::phi_psi::winograd_steps;

    fn layer() -> ConvShape {
        ConvShape::square(256, 56, 128, 3, 1, 1)
    }

    #[test]
    fn leading_vertex_count_matches_lemma_4_14() {
        let s = layer();
        let tile = WinogradTile::F2X3;
        // 2 * (56*56*128) * 256 * 4^4 / 4
        let want = 2.0 * (56.0 * 56.0 * 128.0) * 256.0 * 256.0 / 4.0;
        assert!((vertex_count_leading(&s, tile) - want).abs() < 1.0);
    }

    #[test]
    fn exact_count_close_to_leading_for_divisible_shapes() {
        // Hout=Wout=56 divisible by e=2: exact and leading counts agree on
        // the dominant P-transform term; exact adds the J/mul/sum/out terms
        // so it must be >= leading's P-term share and within ~2x overall.
        let s = layer();
        let tile = WinogradTile::F2X3;
        let exact = vertex_count_exact(&s, tile) as f64;
        let leading = vertex_count_leading(&s, tile);
        assert!(exact > 0.9 * leading, "exact {exact} leading {leading}");
        assert!(exact < 2.0 * leading, "exact {exact} leading {leading}");
    }

    #[test]
    fn numeric_t_within_closed_t() {
        let tile = WinogradTile::F2X3;
        let steps = winograd_steps(tile);
        for s in [1024.0, 8192.0] {
            let numeric = t_bound(&steps, s).t;
            let closed = t_closed(tile, s);
            // Lemma 4.19 keeps only the two dominant terms of the Eq. 18
            // chain, so numeric and closed agree within a modest constant.
            assert!(numeric < 4.0 * closed, "S={s}: numeric {numeric} closed {closed}");
            assert!(numeric > 0.25 * closed, "S={s}: numeric {numeric} closed {closed}");
        }
    }

    #[test]
    fn lower_bound_scales_inverse_sqrt_s() {
        let shape = layer();
        let tile = WinogradTile::F2X3;
        let q1 = io_lower_bound(&shape, tile, 1024.0);
        let q4 = io_lower_bound(&shape, tile, 4096.0);
        assert!(q1 > 0.0 && q4 > 0.0);
        let ratio = q1 / q4;
        assert!((1.7..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn eq22_minimised_at_optimality_condition() {
        let shape = layer();
        let tile = WinogradTile::F2X3;
        let r2 = 9.0f64;
        let budget = 4096.0f64; // xyz product
        let z = (budget / r2).sqrt();
        let xy = r2 * z;
        let x = xy.sqrt();
        let best = dataflow_read_io(&shape, tile, x, x, z);
        for factor in [0.4, 0.7, 1.4, 2.5] {
            let z2 = z * factor;
            let xy2 = budget / z2;
            let x2 = xy2.sqrt();
            let q = dataflow_read_io(&shape, tile, x2, x2, z2);
            assert!(q >= best - 1e-6, "perturbation {factor} beat optimum");
        }
    }

    #[test]
    fn eq23_matches_eq22_at_optimum() {
        let shape = layer();
        let tile = WinogradTile::F2X3;
        let s = 16384.0;
        let np = 1.0;
        // Budget: 2 a^2/e^2 xyz = S/Np => xyz = S e^2/(2 a^2 Np).
        let a = tile.a() as f64;
        let xyz = s * (tile.e * tile.e) as f64 / (2.0 * a * a * np);
        let r2 = (tile.r * tile.r) as f64;
        let z = (xyz / r2).sqrt();
        let x = (r2 * z).sqrt();
        let via_tiles = dataflow_total_io(&shape, tile, x, x, z);
        let closed = dataflow_optimal_io(&shape, tile, s, np);
        // Eq. 23 is an "~=" in the paper: substituting the strict budget
        // 2a^2/e^2 xyz = S into Eq. 22 yields an extra sqrt(2) on the read
        // term, which Eq. 23 absorbs. Check the ratio is exactly that.
        let read_tiles = via_tiles - shape.output_elems() as f64;
        let read_closed = closed - shape.output_elems() as f64;
        let rel = read_tiles / read_closed;
        assert!(
            (rel - std::f64::consts::SQRT_2).abs() < 1e-9,
            "tiles {via_tiles} closed {closed} rel {rel}"
        );
    }

    #[test]
    fn dataflow_io_above_lower_bound() {
        for hw in [28usize, 56, 112] {
            let shape = ConvShape::square(256, hw, 128, 3, 1, 1);
            let tile = WinogradTile::F2X3;
            for s in [1024.0, 8192.0] {
                let q = dataflow_optimal_io(&shape, tile, s, 1.0);
                let lb = io_lower_bound(&shape, tile, s);
                assert!(q >= lb, "hw={hw} S={s}: dataflow {q} < bound {lb}");
            }
        }
    }

    #[test]
    fn both_dataflows_are_near_optimal_for_their_own_bounds() {
        // The paper compares each algorithm against its *own* lower bound
        // and baseline (Fig. 9 plots direct-vs-cuDNN-direct and
        // winograd-vs-cuDNN-winograd separately); it never claims one
        // algorithm's absolute I/O dominates the other's. What must hold:
        // each dataflow is within a small constant of its own bound.
        let shape = ConvShape::square(256, 112, 512, 3, 1, 1);
        let s = 4096.0;
        let tile = WinogradTile::F4X3;
        let wino_ratio =
            dataflow_optimal_io(&shape, tile, s, 1.0) / io_lower_bound(&shape, tile, s).max(1.0);
        let direct_ratio = crate::direct::dataflow_optimal_io(&shape, s, 1.0)
            / crate::direct::io_lower_bound(&shape, s).max(1.0);
        assert!((1.0..16.0).contains(&wino_ratio), "wino ratio {wino_ratio}");
        assert!((1.0..16.0).contains(&direct_ratio), "direct ratio {direct_ratio}");
    }

    #[test]
    fn larger_tile_reduces_dataflow_io() {
        // F(4x4,3x3) reuses each input patch across more outputs than
        // F(2x2,3x3): r(e+r-1)/e = 3*6/4 = 4.5 < 3*4/2 = 6.
        let shape = layer();
        let s = 4096.0;
        let q2 = dataflow_optimal_io(&shape, WinogradTile::F2X3, s, 1.0);
        let q4 = dataflow_optimal_io(&shape, WinogradTile::F4X3, s, 1.0);
        assert!(q4 < q2);
    }
}
