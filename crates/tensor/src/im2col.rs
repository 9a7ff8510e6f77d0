//! The im2col convolution path — cuDNN's "image2col" direct implementation
//! (paper §7: "the image2col method is usually better than the direct
//! convolution" among cuDNN's direct approaches).
//!
//! The input is unrolled into a `(C_in*Kh*Kw) x (Oh*Ow)` matrix whose
//! columns are the flattened sliding windows; convolution then becomes a
//! `C_out x (C_in*Kh*Kw)` by `(C_in*Kh*Kw) x (Oh*Ow)` GEMM.
//!
//! * **Materialised:** the unrolled matrix, once per image. It is the
//!   *extra I/O* this baseline pays relative to the paper's dataflow —
//!   [`im2col_materialised_elems`], and `dataflow::baselines::im2col_gemm`
//!   models exactly that. Row `(ci, dy, dx)` is a strided window of
//!   channel `ci`, filled by [`Tensor4::padded_window`] a row span at a
//!   time.
//! * **Borrowed:** the weight matrix. `Layout::Chw` kernels are stored in
//!   tap order, so the tensor's own storage is the GEMM's A operand;
//!   only `Cwh`/`Hwc` kernels are gathered into a copy.

use crate::conv_ref::ConvParams;
use crate::gemm::{gemm_with_path, MatRef};
use crate::kernel::KernelPath;
use crate::layout::Layout;
use crate::tensor::Tensor4;
use std::borrow::Cow;

/// Unrolls one image of `input` into the im2col matrix, row-major
/// `(C_in*Kh*Kw) x (Oh*Ow)`.
pub fn im2col(
    input: &Tensor4,
    n: usize,
    kh: usize,
    kw: usize,
    params: ConvParams,
) -> (Vec<f32>, usize, usize) {
    let oh = params.out_extent(input.h, kh);
    let ow = params.out_extent(input.w, kw);
    let rows = input.c * kh * kw;
    let cols = oh * ow;
    let mut m = vec![0.0f32; rows * cols];
    let pad = params.pad as isize;
    // Row `(ci, dy, dx)` is the `oh x ow` window of channel `ci` whose
    // top-left tap is `(dy - pad, dx - pad)`, stepping by the stride.
    for (row, dst) in m.chunks_exact_mut(cols).enumerate() {
        let (ci, dy, dx) = (row / (kh * kw), row / kw % kh, row % kw);
        let origin = (dy as isize - pad, dx as isize - pad);
        input.padded_window(n, ci, origin, params.stride, (oh, ow), dst);
    }
    (m, rows, cols)
}

/// The row-major `C_out x (C_in*Kh*Kw)` GEMM operand, taps in
/// `(ci, dy, dx)` order: `Layout::Chw` kernels already are that matrix and
/// are borrowed; `Cwh`/`Hwc` ones are gathered into a copy.
pub fn flatten_weights(weights: &Tensor4) -> Cow<'_, [f32]> {
    if weights.layout == Layout::Chw {
        return Cow::Borrowed(weights.as_slice());
    }
    let mut m = Vec::with_capacity(weights.len());
    for co in 0..weights.n {
        for ci in 0..weights.c {
            for dy in 0..weights.h {
                for dx in 0..weights.w {
                    m.push(weights.at(co, ci, dy, dx));
                }
            }
        }
    }
    Cow::Owned(m)
}

/// Full convolution via im2col + GEMM on the vector path; numerically
/// equivalent to [`crate::conv_ref::conv2d_reference`].
pub fn conv2d_im2col(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    threads: usize,
) -> Tensor4 {
    conv2d_im2col_with_path(input, weights, params, threads, KernelPath::Vector)
}

/// [`conv2d_im2col`] with an explicit GEMM kernel path — the two paths
/// are bit-identical (`tests/proptest_kernels.rs::im2col_paths_bit_identical`
/// diffs them).
pub fn conv2d_im2col_with_path(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    threads: usize,
    path: KernelPath,
) -> Tensor4 {
    assert_eq!(input.c, weights.c, "C_in mismatch");
    let (kh, kw) = (weights.h, weights.w);
    let oh = params.out_extent(input.h, kh);
    let ow = params.out_extent(input.w, kw);
    let w_flat = flatten_weights(weights);
    let w_ref = MatRef::new(&w_flat, weights.n, input.c * kh * kw);

    let mut out = Tensor4::zeros(input.n, weights.n, oh, ow);
    let image_len = weights.n * oh * ow;
    for n in 0..input.n {
        let (cols, rows_dim, cols_dim) = im2col(input, n, kh, kw, params);
        let col_ref = MatRef::new(&cols, rows_dim, cols_dim);
        let dst = &mut out.as_mut_slice()[n * image_len..(n + 1) * image_len];
        gemm_with_path(w_ref, col_ref, dst, threads, path);
    }
    out
}

/// Number of elements the im2col path *materialises* per image — the extra
/// slow-memory traffic of this baseline (written once, read once by GEMM).
pub fn im2col_materialised_elems(cin: usize, kh: usize, kw: usize, oh: usize, ow: usize) -> u64 {
    cin as u64 * kh as u64 * kw as u64 * oh as u64 * ow as u64
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
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(n, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(cout, cin, k, k, &mut rng);
        let params = ConvParams::new(stride, pad);
        let want = conv2d_reference(&input, &weights, params);
        let got = conv2d_im2col(&input, &weights, params, 2);
        assert!(
            got.approx_eq(&want, 1e-4, 1e-4),
            "mismatch: n={n} cin={cin} hw={hw} cout={cout} k={k} s={stride} p={pad}, \
             max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn matches_reference_basic() {
        check(1, 3, 8, 4, 3, 1, 0, 1);
    }

    #[test]
    fn matches_reference_with_padding() {
        check(1, 4, 7, 5, 3, 1, 1, 2);
    }

    #[test]
    fn matches_reference_strided() {
        check(1, 3, 11, 4, 3, 2, 1, 3);
        check(1, 3, 12, 2, 5, 4, 2, 4);
    }

    #[test]
    fn matches_reference_batched() {
        check(3, 2, 9, 3, 3, 1, 1, 5);
    }

    #[test]
    fn matches_reference_1x1_kernel() {
        check(1, 8, 6, 8, 1, 1, 0, 6);
    }

    #[test]
    fn path_variants_bit_identical() {
        let mut rng = StdRng::seed_from_u64(11);
        let input = Tensor4::random(2, 3, 9, 9, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1);
        let s = conv2d_im2col_with_path(&input, &weights, params, 2, KernelPath::Scalar);
        let v = conv2d_im2col_with_path(&input, &weights, params, 2, KernelPath::Vector);
        let sb: Vec<u32> = s.as_slice().iter().map(|f| f.to_bits()).collect();
        let vb: Vec<u32> = v.as_slice().iter().map(|f| f.to_bits()).collect();
        assert_eq!(sb, vb);
    }

    #[test]
    fn im2col_matrix_shape_and_content() {
        // input [[1,2],[3,4]], 1 channel, 1x1 kernel window, unit params:
        // the matrix is just the flattened image.
        let input = Tensor4::from_fn(1, 1, 2, 2, |_, _, h, w| (h * 2 + w + 1) as f32);
        let (m, rows, cols) = im2col(&input, 0, 1, 1, ConvParams::unit());
        assert_eq!((rows, cols), (1, 4));
        assert_eq!(m, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_window_extraction() {
        // 3x3 image, 2x2 kernel: 4 windows of 4 elements.
        let input = Tensor4::from_fn(1, 1, 3, 3, |_, _, h, w| (h * 3 + w + 1) as f32);
        let (m, rows, cols) = im2col(&input, 0, 2, 2, ConvParams::unit());
        assert_eq!((rows, cols), (4, 4));
        // First column = window at (0,0): [1,2,4,5] laid out over rows.
        let col0: Vec<f32> = (0..rows).map(|r| m[r * cols]).collect();
        assert_eq!(col0, vec![1.0, 2.0, 4.0, 5.0]);
        // Last column = window at (1,1): [5,6,8,9].
        let col3: Vec<f32> = (0..rows).map(|r| m[r * cols + 3]).collect();
        assert_eq!(col3, vec![5.0, 6.0, 8.0, 9.0]);
    }

    /// The per-element unroll `im2col` replaced: one `at_padded` per
    /// matrix element. The oracle the span-wise unroll is diffed against.
    fn im2col_oracle(
        input: &Tensor4,
        n: usize,
        kh: usize,
        kw: usize,
        params: ConvParams,
    ) -> (Vec<f32>, usize, usize) {
        let oh = params.out_extent(input.h, kh);
        let ow = params.out_extent(input.w, kw);
        let rows = input.c * kh * kw;
        let cols = oh * ow;
        let mut m = vec![0.0f32; rows * cols];
        for ci in 0..input.c {
            for dy in 0..kh {
                for dx in 0..kw {
                    let row = (ci * kh + dy) * kw + dx;
                    for y in 0..oh {
                        for x in 0..ow {
                            let iy = (y * params.stride + dy) as isize - params.pad as isize;
                            let ix = (x * params.stride + dx) as isize - params.pad as isize;
                            m[row * cols + y * ow + x] = input.at_padded(n, ci, iy, ix);
                        }
                    }
                }
            }
        }
        (m, rows, cols)
    }

    /// The per-element weight gather: `C_out x (C_in*Kh*Kw)` in tap
    /// order, whatever the tensor's layout.
    fn weights_oracle(weights: &Tensor4) -> Vec<f32> {
        let mut m = Vec::with_capacity(weights.len());
        for co in 0..weights.n {
            for ci in 0..weights.c {
                for dy in 0..weights.h {
                    for dx in 0..weights.w {
                        m.push(weights.at(co, ci, dy, dx));
                    }
                }
            }
        }
        m
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The unroll equals the per-element oracle, bit for bit: every input
    /// layout, stride 1..=4, pad `0..=k+1` (so whole output rows and
    /// columns whose window lies in the padding), `kh != kw`, and an image
    /// index past the first.
    #[test]
    fn im2col_matches_the_per_element_oracle() {
        let mut rng = StdRng::seed_from_u64(21);
        let base = Tensor4::random(2, 3, 7, 9, &mut rng);
        for layout in Layout::ALL {
            let input = base.to_layout(layout);
            for (kh, kw) in [(1, 1), (3, 2), (2, 3), (1, 4), (5, 3)] {
                for stride in 1..=4 {
                    for pad in 0..=kh.max(kw) + 1 {
                        let params = ConvParams::new(stride, pad);
                        for n in 0..input.n {
                            let (got, gr, gc) = im2col(&input, n, kh, kw, params);
                            let (want, wr, wc) = im2col_oracle(&input, n, kh, kw, params);
                            assert_eq!((gr, gc), (wr, wc));
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{layout} n={n} k={kh}x{kw} s={stride} p={pad}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `conv2d_im2col` gives the oracle pipeline's bits (per-element
    /// unroll, per-element weight gather, the same GEMM) on both paths,
    /// whatever the layout of the input and of the weights: `Chw` kernels
    /// are already the GEMM's A operand, `Cwh`/`Hwc` ones are not, and a
    /// `kh != kw` kernel tells the two apart.
    #[test]
    fn conv2d_im2col_bits_do_not_depend_on_the_weight_layout() {
        let mut rng = StdRng::seed_from_u64(22);
        let base_in = Tensor4::random(2, 3, 8, 7, &mut rng);
        let base_w = Tensor4::random(5, 3, 3, 2, &mut rng);
        for (stride, pad) in [(1, 1), (2, 0), (2, 3)] {
            let params = ConvParams::new(stride, pad);
            for in_layout in Layout::ALL {
                let input = base_in.to_layout(in_layout);
                for w_layout in Layout::ALL {
                    let weights = base_w.to_layout(w_layout);
                    let w_flat = weights_oracle(&weights);
                    let a = MatRef::new(&w_flat, weights.n, weights.c * weights.h * weights.w);
                    for path in [KernelPath::Scalar, KernelPath::Vector] {
                        let got = conv2d_im2col_with_path(&input, &weights, params, 1, path);
                        let mut want = vec![0.0f32; got.len()];
                        for (n, dst) in want.chunks_exact_mut(got.len() / input.n).enumerate() {
                            let (m, rows, cols) = im2col_oracle(&input, n, 3, 2, params);
                            gemm_with_path(a, MatRef::new(&m, rows, cols), dst, 1, path);
                        }
                        assert_eq!(
                            bits(got.as_slice()),
                            bits(&want),
                            "input {in_layout}, weights {w_layout}, s={stride} p={pad}, {path:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn materialised_volume_formula() {
        assert_eq!(im2col_materialised_elems(256, 3, 3, 56, 56), 256 * 9 * 56 * 56);
    }
}
