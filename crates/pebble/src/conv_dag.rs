//! Literal DAG construction for the two convolution algorithms
//! (paper Figures 4 and 5) — the ground truth behind the vertex counts of
//! Lemmas 4.8 and 4.14 and the substrate for empirical pebbling of small
//! convolutions.

use crate::dag::{Dag, VertexId};
use iolb_core::shapes::{ConvShape, WinogradTile};

/// Builds the direct-convolution DAG (Fig. 4): step 1 creates the product
/// vertices `I_i ⊙ K_j`; step 2 sums them per output through a sequential
/// summation tree (in-degree ≤ 2, Lemma 4.7 structure).
///
/// Only `batch == 1` shapes are supported (one image per DAG, as in §4.2).
pub fn direct_conv_dag(shape: &ConvShape) -> Dag {
    assert_eq!(shape.batch, 1, "one image per DAG");
    shape.validate().expect("invalid shape");
    let mut dag = Dag::new();

    // Input-image vertices (index map for sliding-window access).
    let mut img = vec![0 as VertexId; shape.cin * shape.hin * shape.win];
    for v in img.iter_mut() {
        *v = dag.add_vertex();
    }
    let img_at = |c: usize, h: usize, w: usize| img[(c * shape.hin + h) * shape.win + w];

    // Weight vertices.
    let mut wgt = vec![0 as VertexId; shape.cout * shape.cin * shape.kh * shape.kw];
    for v in wgt.iter_mut() {
        *v = dag.add_vertex();
    }
    let wgt_at = |co: usize, c: usize, y: usize, x: usize| {
        wgt[((co * shape.cin + c) * shape.kh + y) * shape.kw + x]
    };

    let (hout, wout) = (shape.hout(), shape.wout());
    for co in 0..shape.cout {
        for oy in 0..hout {
            for ox in 0..wout {
                // Step 1: product vertices of this output's window.
                let mut products = Vec::with_capacity(shape.cin * shape.kh * shape.kw);
                for c in 0..shape.cin {
                    for dy in 0..shape.kh {
                        for dx in 0..shape.kw {
                            let iy = oy * shape.stride + dy;
                            let ix = ox * shape.stride + dx;
                            // Padding would contribute constant zeros (no
                            // I/O); our builder requires pad = 0 windows.
                            assert!(shape.pad == 0, "direct_conv_dag models unpadded convolutions");
                            let p = dag.add_vertex();
                            dag.add_edge(img_at(c, iy, ix), p);
                            dag.add_edge(wgt_at(co, c, dy, dx), p);
                            products.push(p);
                        }
                    }
                }
                // Step 2: sequential summation tree.
                add_summation_tree(&mut dag, &products);
            }
        }
    }
    dag
}

/// Appends a sequential summation tree over `inputs` (Lemma 4.7: `k-2`
/// internal vertices + 1 output for `k >= 2`); returns the root. With a
/// single input the input itself is returned (degenerate tree).
pub(crate) fn add_summation_tree(dag: &mut Dag, inputs: &[VertexId]) -> VertexId {
    assert!(!inputs.is_empty());
    if inputs.len() == 1 {
        return inputs[0];
    }
    let mut acc = {
        let v = dag.add_vertex();
        dag.add_edge(inputs[0], v);
        dag.add_edge(inputs[1], v);
        v
    };
    for &inp in &inputs[2..] {
        let v = dag.add_vertex();
        dag.add_edge(acc, v);
        dag.add_edge(inp, v);
        acc = v;
    }
    acc
}

/// Appends a linear-combination tree (Lemma 4.13): each input first feeds a
/// private scaling vertex (coefficient multiply; coefficients live in fast
/// memory and are not DAG inputs), then a summation tree combines the
/// scaled values. `2k - 2` internal vertices + 1 output for `k >= 2`.
pub(crate) fn add_linear_combination_tree(dag: &mut Dag, inputs: &[VertexId]) -> VertexId {
    assert!(!inputs.is_empty());
    let scaled: Vec<VertexId> = inputs
        .iter()
        .map(|&i| {
            let v = dag.add_vertex();
            dag.add_edge(i, v);
            v
        })
        .collect();
    if scaled.len() == 1 {
        return scaled[0];
    }
    add_summation_tree(dag, &scaled)
}

/// Transform sharing mode for the Winograd DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinogradDagMode {
    /// Input transforms `P_i` and kernel transforms `J_k` are built once
    /// and shared across all consumers — the realistic DAG.
    Shared,
    /// Transforms are rebuilt for every `(tile, output-channel)` pair —
    /// the re-computation-heavy DAG whose vertex count Lemma 4.14 states
    /// ("each e^2 output vertices are generated independently").
    PerPair,
}

/// Builds the Winograd DAG (Fig. 5) for `F(e x e, r x r)`. Requires unit
/// stride, square kernels of edge `tile.r`, spatial output divisible by
/// `tile.e`, and `pad == 0`. Steps: transforms 1, elementwise 2, channel
/// summation 3, output transform 4.
pub fn winograd_dag(shape: &ConvShape, tile: WinogradTile, mode: WinogradDagMode) -> Dag {
    assert_eq!(shape.batch, 1, "one image per DAG");
    assert!(shape.supports_winograd(tile), "shape incompatible with tile");
    assert_eq!(shape.pad, 0, "winograd_dag models unpadded convolutions");
    let (hout, wout) = (shape.hout(), shape.wout());
    assert_eq!(hout % tile.e, 0, "H_out must be divisible by e");
    assert_eq!(wout % tile.e, 0, "W_out must be divisible by e");

    let a = tile.a();
    let mut dag = Dag::new();

    // Image inputs.
    let mut img = vec![0 as VertexId; shape.cin * shape.hin * shape.win];
    for v in img.iter_mut() {
        *v = dag.add_vertex();
    }
    let img_at = |c: usize, h: usize, w: usize| img[(c * shape.hin + h) * shape.win + w];

    // Kernel inputs.
    let mut wgt = vec![0 as VertexId; shape.cout * shape.cin * tile.r * tile.r];
    for v in wgt.iter_mut() {
        *v = dag.add_vertex();
    }
    let wgt_at = |co: usize, c: usize, y: usize, x: usize| {
        wgt[((co * shape.cin + c) * tile.r + y) * tile.r + x]
    };

    let tiles_y = hout / tile.e;
    let tiles_x = wout / tile.e;

    // Builds the transformed input tensor P for (tile position, channel):
    // a^2 vertices, each a linear combination of the a^2 patch inputs.
    let build_p = |dag: &mut Dag, ty: usize, tx: usize, c: usize| -> Vec<VertexId> {
        let oy = ty * tile.e;
        let ox = tx * tile.e;
        let patch: Vec<VertexId> = (0..a)
            .flat_map(|dy| (0..a).map(move |dx| (dy, dx)))
            .map(|(dy, dx)| img_at(c, oy + dy, ox + dx))
            .collect();
        (0..a * a).map(|_| add_linear_combination_tree(dag, &patch)).collect()
    };
    // Transformed kernel J for (cout, cin): a^2 vertices from r^2 weights.
    let build_j = |dag: &mut Dag, co: usize, c: usize| -> Vec<VertexId> {
        let taps: Vec<VertexId> = (0..tile.r)
            .flat_map(|y| (0..tile.r).map(move |x| (y, x)))
            .map(|(y, x)| wgt_at(co, c, y, x))
            .collect();
        (0..a * a).map(|_| add_linear_combination_tree(dag, &taps)).collect()
    };

    // Shared-mode caches.
    let mut p_cache: Vec<Option<Vec<VertexId>>> = vec![None; tiles_y * tiles_x * shape.cin];
    let mut j_cache: Vec<Option<Vec<VertexId>>> = vec![None; shape.cout * shape.cin];

    for co in 0..shape.cout {
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                // Per-element channel product lists for the a^2 positions.
                let mut lanes: Vec<Vec<VertexId>> = vec![Vec::with_capacity(shape.cin); a * a];
                for c in 0..shape.cin {
                    let p: Vec<VertexId> = match mode {
                        WinogradDagMode::PerPair => build_p(&mut dag, ty, tx, c),
                        WinogradDagMode::Shared => {
                            let key = (ty * tiles_x + tx) * shape.cin + c;
                            if p_cache[key].is_none() {
                                p_cache[key] = Some(build_p(&mut dag, ty, tx, c));
                            }
                            p_cache[key].clone().unwrap()
                        }
                    };
                    let j: Vec<VertexId> = match mode {
                        WinogradDagMode::PerPair => build_j(&mut dag, co, c),
                        WinogradDagMode::Shared => {
                            let key = co * shape.cin + c;
                            if j_cache[key].is_none() {
                                j_cache[key] = Some(build_j(&mut dag, co, c));
                            }
                            j_cache[key].clone().unwrap()
                        }
                    };
                    // Step 2: elementwise multiplication Lambda = P ⊙ J.
                    for (idx, lane) in lanes.iter_mut().enumerate() {
                        let m = dag.add_vertex();
                        dag.add_edge(p[idx], m);
                        dag.add_edge(j[idx], m);
                        lane.push(m);
                    }
                }
                // Step 3: channel summation trees -> Pi (a^2 vertices).
                let pi: Vec<VertexId> =
                    lanes.iter().map(|lane| add_summation_tree(&mut dag, lane)).collect();
                // Step 4: e^2 outputs, each an LC tree over all of Pi.
                for _ in 0..tile.e * tile.e {
                    add_linear_combination_tree(&mut dag, &pi);
                }
            }
        }
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::{direct, winograd};

    /// Builds the dense matrix-multiplication DAG `C[n x n] = A[n x n] * B[n x n]`
    /// with the same two-step structure as the direct convolution (products,
    /// then per-output summation trees) — the substrate for validating
    /// `iolb_core::matmul`'s composite-machinery bound empirically.
    fn gemm_dag(n: usize) -> Dag {
        assert!(n >= 1);
        let mut dag = Dag::new();
        let a: Vec<VertexId> = (0..n * n).map(|_| dag.add_vertex()).collect();
        let b: Vec<VertexId> = (0..n * n).map(|_| dag.add_vertex()).collect();
        for i in 0..n {
            for j in 0..n {
                // Step 1: the n products a_ik * b_kj.
                let products: Vec<VertexId> = (0..n)
                    .map(|k| {
                        let p = dag.add_vertex();
                        dag.add_edge(a[i * n + k], p);
                        dag.add_edge(b[k * n + j], p);
                        p
                    })
                    .collect();
                // Step 2: their summation tree -> c_ij.
                add_summation_tree(&mut dag, &products);
            }
        }
        dag
    }

    fn tiny_direct() -> ConvShape {
        // 2 channels, 4x4 image, 2 kernels of 3x3, stride 1: 2x2 output.
        ConvShape::new(2, 4, 4, 2, 3, 3, 1, 0)
    }

    #[test]
    fn direct_dag_vertex_count_matches_lemma_4_8() {
        let shape = tiny_direct();
        let dag = direct_conv_dag(&shape);
        assert!(dag.try_topo_order().is_some());
        // Computed (internal + output) vertices must equal Lemma 4.8.
        assert_eq!(dag.computed_count(), direct::vertex_count(&shape));
        // Inputs: image + weights.
        assert_eq!(dag.inputs().len() as u64, shape.input_elems() + shape.weight_elems());
        // Outputs: one per output element.
        assert_eq!(dag.outputs().len() as u64, shape.output_elems());
    }

    #[test]
    fn direct_dag_strided_count() {
        let shape = ConvShape::new(1, 5, 5, 1, 3, 3, 2, 0); // 2x2 output
        let dag = direct_conv_dag(&shape);
        assert_eq!(dag.computed_count(), direct::vertex_count(&shape));
        assert_eq!(dag.outputs().len(), 4);
    }

    #[test]
    fn summation_tree_counts_match_lemma_4_7() {
        let mut dag = Dag::new();
        let inputs: Vec<_> = (0..6).map(|_| dag.add_vertex()).collect();
        let before = dag.len();
        let root = add_summation_tree(&mut dag, &inputs);
        // k inputs -> k-2 internal + 1 output = k-1 new vertices.
        assert_eq!(dag.len() - before, 5);
        assert!(dag.succs(root).is_empty());
    }

    #[test]
    fn linear_combination_tree_counts_match_lemma_4_13() {
        let mut dag = Dag::new();
        let inputs: Vec<_> = (0..5).map(|_| dag.add_vertex()).collect();
        let before = dag.len();
        let _ = add_linear_combination_tree(&mut dag, &inputs);
        // k inputs -> 2k-2 internal + 1 output = 2k-1 new vertices.
        assert_eq!(dag.len() - before, 9);
    }

    #[test]
    fn winograd_per_pair_count_matches_lemma_4_14_exact() {
        // Smallest viable F(2,3) instance: 4x4 input, 2x2 output.
        let shape = ConvShape::new(2, 4, 4, 2, 3, 3, 1, 0);
        let tile = WinogradTile::F2X3;
        let dag = winograd_dag(&shape, tile, WinogradDagMode::PerPair);
        assert!(dag.try_topo_order().is_some());
        assert_eq!(dag.computed_count(), winograd::vertex_count_exact(&shape, tile));
    }

    #[test]
    fn winograd_shared_smaller_than_per_pair() {
        let shape = ConvShape::new(2, 4, 4, 2, 3, 3, 1, 0);
        let tile = WinogradTile::F2X3;
        let shared = winograd_dag(&shape, tile, WinogradDagMode::Shared);
        let per_pair = winograd_dag(&shape, tile, WinogradDagMode::PerPair);
        assert!(shared.computed_count() < per_pair.computed_count());
        // Same outputs either way.
        assert_eq!(shared.outputs().len(), per_pair.outputs().len());
        assert_eq!(shared.outputs().len() as u64, shape.output_elems());
    }

    #[test]
    fn winograd_dag_output_count() {
        let shape = ConvShape::new(1, 6, 6, 3, 3, 3, 1, 0); // 4x4 out, e=2
        let tile = WinogradTile::F2X3;
        let dag = winograd_dag(&shape, tile, WinogradDagMode::Shared);
        assert_eq!(dag.outputs().len(), 4 * 4 * 3);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn winograd_rejects_strided_shape() {
        let shape = ConvShape::new(1, 5, 5, 1, 3, 3, 2, 0);
        let _ = winograd_dag(&shape, WinogradTile::F2X3, WinogradDagMode::Shared);
    }

    #[test]
    fn direct_dag_is_peppblable_and_bounded() {
        // Sandwich test on a truly tiny instance: heuristic I/O sits at or
        // above the analytic lower bound.
        let shape = ConvShape::new(1, 3, 3, 1, 2, 2, 1, 0); // 2x2 out, k=2x2
        let dag = direct_conv_dag(&shape);
        let s = 8;
        let heur =
            crate::strategies::pebble_topological(&dag, s, crate::strategies::Eviction::Belady);
        let lower = direct::io_lower_bound(&shape, s as f64);
        assert!(heur.io as f64 >= lower, "heuristic {} below analytic bound {lower}", heur.io);
    }

    #[test]
    fn gemm_dag_vertex_count_matches_matmul_module() {
        use iolb_core::matmul::MatmulShape;
        for n in [2usize, 3, 4] {
            let dag = gemm_dag(n);
            assert!(dag.try_topo_order().is_some());
            assert_eq!(dag.computed_count(), MatmulShape::new(n).vertex_count(), "n = {n}");
            assert_eq!(dag.inputs().len(), 2 * n * n);
            assert_eq!(dag.outputs().len(), n * n);
        }
    }

    #[test]
    fn gemm_dag_pebbling_sandwiched_by_matmul_bound() {
        use iolb_core::matmul::{blocked_schedule_io, io_lower_bound, MatmulShape};
        let n = 3;
        let dag = gemm_dag(n);
        let m = MatmulShape::new(n);
        for s in [8usize, 16, 32] {
            let lower = io_lower_bound(&m, s as f64);
            let heur =
                crate::strategies::pebble_topological(&dag, s, crate::strategies::Eviction::Belady)
                    .io;
            assert!(lower <= heur as f64, "S={s}: bound {lower} > pebbled {heur}");
            // The analytic blocked schedule is also a valid upper-bound
            // family; our pebbler should land in the same regime (within
            // an order of magnitude at toy sizes).
            let blocked = blocked_schedule_io(&m, s as f64);
            assert!(heur as f64 <= 10.0 * blocked + 100.0, "S={s}");
        }
    }
}
