//! Full 2-D Winograd convolution `F(e x e, r x r)` (paper §2.3, Fig. 2).
//!
//! For every `e x e` output sub-domain and output channel, the four steps:
//!
//! 1. transform the `(e+r-1)^2` input patch per channel (`P = B^T d B`) and
//!    the `r x r` kernel (`J = G g G^T`),
//! 2. elementwise-multiply `Lambda = P ⊙ J`,
//! 3. sum `Lambda` over input channels into `Pi`,
//! 4. inverse-transform `Y = A^T Pi A`.
//!
//! Kernel transforms are hoisted out of the spatial loop (they depend only
//! on `(cout, cin)`), matching practical implementations. Outputs whose
//! tile hangs past the edge are handled by zero-padding the virtual input
//! and discarding out-of-range outputs, so arbitrary output sizes work.
//!
//! Two execution paths (see [`KernelPath`]):
//!
//! * **scalar** — the reference implementation: the input transform `P`
//!   is recomputed for every output channel. Products run through
//!   [`matmul_flat`] into preallocated scratch (no allocation inside the
//!   tile loop — an earlier formulation's per-tile `Mat` churn dominated
//!   single-thread benchmark timings).
//! * **vector** — the input transform `P` hoisted out of the `co` loop
//!   (it depends only on `(n, ci, tile)`), and the Hadamard-accumulate
//!   restructured into lane-parallel rows the autovectorizer maps onto
//!   SIMD lanes.
//!
//! The vector path preserves the scalar fold order *exactly* (see
//! [`matmul_flat`]), so the two paths are **bit-identical** — no epsilon.

use crate::conv_ref::ConvParams;
use crate::kernel::KernelPath;
use crate::tensor::Tensor4;
use crate::winograd_math::{generate, matmul_flat, Mat, Transforms};

/// Pre-transformed kernels plus the transform set: reusable across calls
/// with the same weights.
pub struct WinogradPlan {
    t: Transforms,
    /// `J[co][ci]`: `a x a` transformed kernel.
    transformed: Vec<Mat>,
    /// `B = (B^T)^T`, hoisted out of both paths' tile loops (`t()` is a
    /// pure permutation, so hoisting cannot move a bit).
    b_mat: Mat,
    /// `A = (A^T)^T`, hoisted likewise.
    a_mat: Mat,
    cout: usize,
    cin: usize,
}

impl WinogradPlan {
    /// Builds a plan for the given weights (`n = C_out`, square `r x r`
    /// kernels) and output tile edge `e`.
    pub fn new(weights: &Tensor4, e: usize) -> Self {
        assert_eq!(weights.h, weights.w, "winograd requires square kernels");
        let r = weights.h;
        let t = generate(e, r);
        let a = t.a();
        let mut transformed = Vec::with_capacity(weights.n * weights.c);
        for co in 0..weights.n {
            for ci in 0..weights.c {
                let mut g = Mat::zeros(r, r);
                for y in 0..r {
                    for x in 0..r {
                        *g.at_mut(y, x) = weights.at(co, ci, y, x) as f64;
                    }
                }
                // J = G g G^T : a x a.
                let j = t.g.matmul(&g).matmul(&t.g.t());
                debug_assert_eq!((j.rows, j.cols), (a, a));
                transformed.push(j);
            }
        }
        let b_mat = t.bt.t();
        let a_mat = t.at.t();
        Self { t, transformed, b_mat, a_mat, cout: weights.n, cin: weights.c }
    }

    fn kernel(&self, co: usize, ci: usize) -> &Mat {
        &self.transformed[co * self.cin + ci]
    }
}

/// Winograd convolution with tile edge `e`. Only unit stride is supported
/// (the algorithm's precondition, §2.3); padding is honoured.
pub fn conv2d_winograd(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    e: usize,
) -> Tensor4 {
    assert_eq!(params.stride, 1, "winograd requires unit stride");
    let plan = WinogradPlan::new(weights, e);
    conv2d_winograd_with_plan_path(input, &plan, params, KernelPath::Vector)
}

/// Winograd convolution with a prebuilt plan on an explicit kernel path
/// (tests diff the two — they are bit-identical).
pub fn conv2d_winograd_with_plan_path(
    input: &Tensor4,
    plan: &WinogradPlan,
    params: ConvParams,
    path: KernelPath,
) -> Tensor4 {
    assert_eq!(params.stride, 1, "winograd requires unit stride");
    assert_eq!(input.c, plan.cin, "C_in mismatch");
    match path {
        KernelPath::Scalar => winograd_scalar(input, plan, params),
        KernelPath::Vector => winograd_vector(input, plan, params),
    }
}

/// The reference path: `P = B^T d B` recomputed for every output
/// channel — the structural trait the vector path removes. All products
/// run through [`matmul_flat`] into preallocated flat scratch (exactly
/// [`Mat::matmul`]'s fold order, so the results are bit-identical to the
/// historical per-tile-`Mat` formulation): earlier revisions allocated
/// fresh `Mat`s and recomputed the `B`/`A` transposes inside the tile
/// loop, and single-thread kernel benchmarks timed that allocator
/// traffic as if it were Winograd arithmetic.
fn winograd_scalar(input: &Tensor4, plan: &WinogradPlan, params: ConvParams) -> Tensor4 {
    let t = &plan.t;
    let (e, r, a) = (t.e, t.r, t.a());
    let aa = a * a;
    let oh = params.out_extent(input.h, r);
    let ow = params.out_extent(input.w, r);
    let mut out = Tensor4::zeros(input.n, plan.cout, oh, ow);

    let tiles_y = oh.div_ceil(e);
    let tiles_x = ow.div_ceil(e);

    let bt = &t.bt.data;
    let b = &plan.b_mat.data;
    let at = &t.at.data;
    let a_t = &plan.a_mat.data;

    // Flat scratch reused across tiles.
    let mut patch = vec![0.0f64; aa];
    let mut tmp = vec![0.0f64; aa];
    let mut p = vec![0.0f64; aa];
    let mut pi = vec![0.0f64; aa];
    let mut y_tmp = vec![0.0f64; e * a];
    let mut y_tile = vec![0.0f64; e * e];

    for n in 0..input.n {
        for co in 0..plan.cout {
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    // Input patch origin for this tile (may be negative
                    // with padding).
                    let oy = (ty * e) as isize - params.pad as isize;
                    let ox = (tx * e) as isize - params.pad as isize;
                    pi.fill(0.0);
                    for ci in 0..input.c {
                        // Load the (a x a) patch with zero padding.
                        for y in 0..a {
                            for x in 0..a {
                                patch[y * a + x] =
                                    input.at_padded(n, ci, oy + y as isize, ox + x as isize) as f64;
                            }
                        }
                        // P = B^T d B.
                        matmul_flat(bt, &patch, &mut tmp, a, a, a);
                        matmul_flat(&tmp, b, &mut p, a, a, a);
                        // Lambda = P ⊙ J, accumulated over channels (step 3
                        // folded into step 2's loop — same DAG, fewer
                        // buffers).
                        let j = &plan.kernel(co, ci).data;
                        for idx in 0..aa {
                            pi[idx] += p[idx] * j[idx];
                        }
                    }
                    // Y = A^T Pi A.
                    matmul_flat(at, &pi, &mut y_tmp, e, a, a);
                    matmul_flat(&y_tmp, a_t, &mut y_tile, e, a, e);
                    for dy in 0..e {
                        for dx in 0..e {
                            let yy = ty * e + dy;
                            let xx = tx * e + dx;
                            if yy < oh && xx < ow {
                                *out.at_mut(n, co, yy, xx) = y_tile[dy * e + dx] as f32;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The vectorized path. Same per-element DAG as [`winograd_scalar`] —
/// three restructurings, none of which touch any element's fold order:
///
/// 1. `P = B^T d B` is hoisted out of the `co` loop: it depends only on
///    `(n, ci, tile)`, and the scalar path recomputes the identical
///    bits `cout` times.
/// 2. All tile products go through [`matmul_flat`] into preallocated flat
///    scratch — no per-tile allocation, autovectorizable inner rows.
/// 3. The Hadamard-accumulate runs over the flat `a*a` tile per `ci`
///    (ascending, exactly the scalar accumulation order), a lane-
///    parallel multiply-add the autovectorizer picks up.
fn winograd_vector(input: &Tensor4, plan: &WinogradPlan, params: ConvParams) -> Tensor4 {
    let t = &plan.t;
    let (e, r, a) = (t.e, t.r, t.a());
    let aa = a * a;
    let oh = params.out_extent(input.h, r);
    let ow = params.out_extent(input.w, r);
    let mut out = Tensor4::zeros(input.n, plan.cout, oh, ow);

    let tiles_y = oh.div_ceil(e);
    let tiles_x = ow.div_ceil(e);

    let bt = &t.bt.data;
    let b = &plan.b_mat.data;
    let at = &t.at.data;
    let a_t = &plan.a_mat.data;

    // Flat scratch reused across tiles.
    let mut patch = vec![0.0f64; aa];
    let mut tmp = vec![0.0f64; aa];
    let mut p_all = vec![0.0f64; input.c * aa]; // P per input channel
    let mut pi = vec![0.0f64; aa];
    let mut y_tmp = vec![0.0f64; e * a];
    let mut y_tile = vec![0.0f64; e * e];

    for n in 0..input.n {
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let oy = (ty * e) as isize - params.pad as isize;
                let ox = (tx * e) as isize - params.pad as isize;
                // Step 1 (hoisted): P = B^T d B for every input channel.
                for ci in 0..input.c {
                    for y in 0..a {
                        for x in 0..a {
                            patch[y * a + x] =
                                input.at_padded(n, ci, oy + y as isize, ox + x as isize) as f64;
                        }
                    }
                    matmul_flat(bt, &patch, &mut tmp, a, a, a);
                    matmul_flat(&tmp, b, &mut p_all[ci * aa..(ci + 1) * aa], a, a, a);
                }
                for co in 0..plan.cout {
                    // Steps 2+3: Pi = sum_ci P ⊙ J, `ci` ascending — the
                    // scalar accumulation order, `aa` independent lanes.
                    pi.fill(0.0);
                    for ci in 0..input.c {
                        let p = &p_all[ci * aa..][..aa];
                        let j = &plan.kernel(co, ci).data;
                        for (o, (&pv, &jv)) in pi.iter_mut().zip(p.iter().zip(j.iter())) {
                            *o += pv * jv;
                        }
                    }
                    // Step 4: Y = A^T Pi A.
                    matmul_flat(at, &pi, &mut y_tmp, e, a, a);
                    matmul_flat(&y_tmp, a_t, &mut y_tile, e, a, e);
                    for dy in 0..e {
                        let yy = ty * e + dy;
                        if yy >= oh {
                            break;
                        }
                        for dx in 0..e {
                            let xx = tx * e + dx;
                            if xx < ow {
                                *out.at_mut(n, co, yy, xx) = y_tile[dy * e + dx] as f32;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_ref::conv2d_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[allow(clippy::too_many_arguments)] // test helper sweeping the shape grid
    fn check(
        n: usize,
        cin: usize,
        hw: usize,
        cout: usize,
        r: usize,
        e: usize,
        pad: usize,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(n, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(cout, cin, r, r, &mut rng);
        let params = ConvParams::new(1, pad);
        let want = conv2d_reference(&input, &weights, params);
        let got = conv2d_winograd(&input, &weights, params, e);
        assert!(
            got.approx_eq(&want, 1e-3, 1e-3),
            "F({e},{r}) n={n} cin={cin} hw={hw} cout={cout} pad={pad}: \
             max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn f2x3_matches_reference_exact_tiling() {
        // oh = 6 divisible by e = 2.
        check(1, 3, 8, 4, 3, 2, 0, 1);
    }

    #[test]
    fn f2x3_matches_reference_with_padding() {
        check(1, 4, 7, 3, 3, 2, 1, 2);
    }

    #[test]
    fn f2x3_matches_reference_ragged_tiles() {
        // oh = 5 not divisible by 2: edge tiles partially discarded.
        check(1, 2, 7, 2, 3, 2, 0, 3);
    }

    #[test]
    fn f4x3_matches_reference() {
        check(1, 3, 10, 4, 3, 4, 0, 4);
        check(1, 3, 9, 2, 3, 4, 1, 5);
    }

    #[test]
    fn f3x2_matches_reference() {
        check(1, 2, 8, 3, 2, 3, 0, 6);
    }

    #[test]
    fn batched_matches_reference() {
        check(3, 2, 6, 2, 3, 2, 1, 7);
    }

    #[test]
    fn single_channel_single_kernel() {
        check(1, 1, 6, 1, 3, 2, 0, 8);
    }

    #[test]
    fn vector_path_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(42);
        // Exact tiling, ragged tiles, padding, multi-batch, odd F(e,r).
        for (n, cin, hw, cout, r, e, pad) in [
            (1, 3, 8, 4, 3, 2, 0),
            (2, 2, 7, 3, 3, 4, 1),
            (1, 1, 6, 2, 2, 3, 0),
            (1, 4, 9, 2, 3, 2, 1),
        ] {
            let input = Tensor4::random(n, cin, hw, hw, &mut rng);
            let weights = Tensor4::random(cout, cin, r, r, &mut rng);
            let params = ConvParams::new(1, pad);
            let plan = WinogradPlan::new(&weights, e);
            let s = conv2d_winograd_with_plan_path(&input, &plan, params, KernelPath::Scalar);
            let v = conv2d_winograd_with_plan_path(&input, &plan, params, KernelPath::Vector);
            let sb: Vec<u32> = s.as_slice().iter().map(|f| f.to_bits()).collect();
            let vb: Vec<u32> = v.as_slice().iter().map(|f| f.to_bits()).collect();
            assert_eq!(sb, vb, "n={n} cin={cin} hw={hw} cout={cout} F({e},{r}) pad={pad}");
        }
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let mut rng = StdRng::seed_from_u64(9);
        let weights = Tensor4::random(2, 3, 3, 3, &mut rng);
        let plan = WinogradPlan::new(&weights, 2);
        let a = Tensor4::random(1, 3, 6, 6, &mut rng);
        let b = Tensor4::random(1, 3, 6, 6, &mut rng);
        let params = ConvParams::new(1, 1);
        let out_a = conv2d_winograd_with_plan_path(&a, &plan, params, KernelPath::Vector);
        let out_b = conv2d_winograd_with_plan_path(&b, &plan, params, KernelPath::Vector);
        let want_a = conv2d_reference(&a, &weights, params);
        let want_b = conv2d_reference(&b, &weights, params);
        assert!(out_a.approx_eq(&want_a, 1e-3, 1e-3));
        assert!(out_b.approx_eq(&want_b, 1e-3, 1e-3));
    }

    #[test]
    #[should_panic(expected = "unit stride")]
    fn rejects_strided_convolution() {
        let input = Tensor4::zeros(1, 1, 6, 6);
        let weights = Tensor4::zeros(1, 1, 3, 3);
        let _ = conv2d_winograd(&input, &weights, ConvParams::new(2, 0), 2);
    }

    #[test]
    #[should_panic(expected = "square kernels")]
    fn rejects_rectangular_kernels() {
        let weights = Tensor4::zeros(1, 1, 3, 5);
        let _ = WinogradPlan::new(&weights, 2);
    }
}
