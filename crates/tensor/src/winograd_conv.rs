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
//! on `(cout, cin)`), and so is the input transform `P` out of the output-
//! channel loop (it depends only on `(n, ci, tile)`). Outputs whose tile
//! hangs past the edge are handled by zero-padding the virtual input and
//! discarding out-of-range outputs, so arbitrary output sizes work.
//!
//! Everything is `f32`: the transform coefficients are rounded once
//! ([`TransformsF32`]), every product folds in [`matmul_flat`]'s order,
//! and `Pi` folds `ci` ascending with a separately rounded multiply and add.
//! This is the bit-exact oracle of the dataflow crate's Winograd
//! executor, which keeps every one of those per-element folds.

use crate::conv_ref::ConvParams;
use crate::tensor::Tensor4;
use crate::winograd_math::{matmul_flat, TransformsF32};

/// Winograd convolution with tile edge `e` (square `r x r` kernels,
/// `weights.n = C_out`). Only unit stride is supported (the algorithm's
/// precondition, §2.3); padding is honoured. Per element: `J` folds
/// `G g G^T`, `P` folds `B^T d B`, `Pi` folds `P ⊙ J` over `ci` ascending
/// from `0.0`, and `Y` folds `A^T Pi A`, each product in [`matmul_flat`]'s
/// order.
pub fn conv2d_winograd(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    e: usize,
) -> Tensor4 {
    assert_eq!(params.stride, 1, "winograd requires unit stride");
    assert_eq!(weights.h, weights.w, "winograd requires square kernels");
    assert_eq!(input.c, weights.c, "C_in mismatch");
    let (cout, cin, r) = (weights.n, weights.c, weights.h);
    let t = TransformsF32::generate(e, r);
    let a = t.a();
    let aa = a * a;

    // J[co][ci] = G g G^T: a x a, once per kernel, hoisted out of every
    // spatial loop.
    let mut transformed = vec![0.0f32; cout * cin * aa];
    let mut g = vec![0.0f32; r * r];
    let mut g_tmp = vec![0.0f32; a * r];
    for (co_ci, j) in transformed.chunks_exact_mut(aa).enumerate() {
        let (co, ci) = (co_ci / cin, co_ci % cin);
        for (at, v) in g.iter_mut().enumerate() {
            *v = weights.at(co, ci, at / r, at % r);
        }
        matmul_flat(&t.g, &g, &mut g_tmp, a, r, r);
        matmul_flat(&g_tmp, &t.g_t, j, a, r, a);
    }

    let oh = params.out_extent(input.h, r);
    let ow = params.out_extent(input.w, r);
    let mut out = Tensor4::zeros(input.n, cout, oh, ow);

    let tiles_y = oh.div_ceil(e);
    let tiles_x = ow.div_ceil(e);

    // Flat scratch reused across tiles.
    let mut patch = vec![0.0f32; aa];
    let mut tmp = vec![0.0f32; aa];
    let mut p_all = vec![0.0f32; cin * aa]; // P per input channel
    let mut pi = vec![0.0f32; aa];
    let mut y_tmp = vec![0.0f32; e * a];
    let mut y_tile = vec![0.0f32; e * e];

    for n in 0..input.n {
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let oy = (ty * e) as isize - params.pad as isize;
                let ox = (tx * e) as isize - params.pad as isize;
                // Step 1: P = B^T d B for every input channel.
                for ci in 0..cin {
                    for y in 0..a {
                        for x in 0..a {
                            patch[y * a + x] =
                                input.at_padded(n, ci, oy + y as isize, ox + x as isize);
                        }
                    }
                    matmul_flat(&t.bt, &patch, &mut tmp, a, a, a);
                    matmul_flat(&tmp, &t.bt_t, &mut p_all[ci * aa..][..aa], a, a, a);
                }
                for co in 0..cout {
                    // Steps 2+3: Pi = sum_ci P ⊙ J, `ci` ascending.
                    pi.fill(0.0);
                    for ci in 0..cin {
                        let p = &p_all[ci * aa..][..aa];
                        let j = &transformed[(co * cin + ci) * aa..][..aa];
                        for (o, (&pv, &jv)) in pi.iter_mut().zip(p.iter().zip(j)) {
                            *o += pv * jv;
                        }
                    }
                    // Step 4: Y = A^T Pi A.
                    matmul_flat(&t.at, &pi, &mut y_tmp, e, a, a);
                    matmul_flat(&y_tmp, &t.at_t, &mut y_tile, e, a, e);
                    for dy in 0..e {
                        let yy = ty * e + dy;
                        if yy >= oh {
                            break;
                        }
                        for dx in 0..e {
                            let xx = tx * e + dx;
                            if xx < ow {
                                *out.at_mut(n, co, yy, xx) = y_tile[dy * e + dx];
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

    /// The price of the numeric contract, pinned: on deep channel sums
    /// the worst error stays within `tol * max|ref|` of the direct
    /// reference — `1e-5` for F(2,3), `5e-5` for F(4,3), whose transforms
    /// carry coefficients up to 8 and fractions like 1/6 that `f32` cannot
    /// hold exactly.
    #[test]
    fn error_stays_inside_its_envelope() {
        for (e, tol) in [(2, 1e-5), (4, 5e-5)] {
            for cin in [64, 256, 512] {
                let mut rng = StdRng::seed_from_u64(cin as u64 + e as u64);
                let input = Tensor4::random(1, cin, 8, 8, &mut rng);
                let weights = Tensor4::random(4, cin, 3, 3, &mut rng);
                let params = ConvParams::new(1, 1);
                let want = conv2d_reference(&input, &weights, params);
                let got = conv2d_winograd(&input, &weights, params, e);
                let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let err = got.max_abs_diff(&want) / scale;
                assert!(err <= tol, "F({e},3) C_in={cin}: error {err:e} of max|ref| > {tol:e}");
            }
        }
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
        let input = Tensor4::zeros(1, 1, 6, 6);
        let weights = Tensor4::zeros(1, 1, 3, 5);
        let _ = conv2d_winograd(&input, &weights, ConvParams::unit(), 2);
    }
}
