//! Golden-reference direct convolution (paper §2.2).
//!
//! A deliberately simple seven-loop implementation used as the correctness
//! oracle for every other convolution path (im2col, Winograd, and the tiled
//! dataflow executor). Clarity over speed; the fast paths live elsewhere.

use crate::tensor::Tensor4;

/// Convolution hyper-parameters shared by all implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    /// Stride `mu` (both spatial dims).
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl ConvParams {
    pub fn new(stride: usize, pad: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self { stride, pad }
    }

    /// Unit stride, no padding.
    pub fn unit() -> Self {
        Self { stride: 1, pad: 0 }
    }

    /// Output spatial extent for an input extent and kernel extent.
    pub fn out_extent(&self, in_extent: usize, k: usize) -> usize {
        (in_extent + 2 * self.pad - k) / self.stride + 1
    }
}

/// Direct convolution: `output[n][co][oh][ow] = sum_{ci,kh,kw}
/// input[n][ci][oh*s - p + kh][ow*s - p + kw] * weights[co][ci][kh][kw]`.
///
/// `weights` uses `n = C_out`. Panics on inconsistent shapes.
pub fn conv2d_reference(input: &Tensor4, weights: &Tensor4, params: ConvParams) -> Tensor4 {
    assert_eq!(input.c, weights.c, "C_in mismatch between input and weights");
    let (kh, kw) = (weights.h, weights.w);
    let oh = params.out_extent(input.h, kh);
    let ow = params.out_extent(input.w, kw);
    let mut out = Tensor4::zeros(input.n, weights.n, oh, ow);

    for n in 0..input.n {
        for co in 0..weights.n {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..input.c {
                        for dy in 0..kh {
                            for dx in 0..kw {
                                let iy = (y * params.stride + dy) as isize - params.pad as isize;
                                let ix = (x * params.stride + dx) as isize - params.pad as isize;
                                acc += input.at_padded(n, ci, iy, ix) * weights.at(co, ci, dy, dx);
                            }
                        }
                    }
                    *out.at_mut(n, co, y, x) = acc;
                }
            }
        }
    }
    out
}

/// The same convolution folded one input channel at a time: per output
/// element, `ci` ascending, `sum` from `0.0` over `(dy, dx)` ascending
/// (padding taps included, as zeros), then one `acc += sum`. Every
/// multiply and add rounds separately.
///
/// This is the bit-exact oracle of the direct dataflow executor, whose
/// stages fold channels in exactly this order whatever the tile; it
/// differs from [`conv2d_reference`] only in where the partial sums are
/// rounded.
pub fn conv2d_channel_staged(input: &Tensor4, weights: &Tensor4, params: ConvParams) -> Tensor4 {
    assert_eq!(input.c, weights.c, "C_in mismatch between input and weights");
    let (kh, kw) = (weights.h, weights.w);
    let oh = params.out_extent(input.h, kh);
    let ow = params.out_extent(input.w, kw);
    let mut out = Tensor4::zeros(input.n, weights.n, oh, ow);
    for n in 0..input.n {
        for co in 0..weights.n {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..input.c {
                        let mut sum = 0.0f32;
                        for dy in 0..kh {
                            for dx in 0..kw {
                                let iy = (y * params.stride + dy) as isize - params.pad as isize;
                                let ix = (x * params.stride + dx) as isize - params.pad as isize;
                                sum += input.at_padded(n, ci, iy, ix) * weights.at(co, ci, dy, dx);
                            }
                        }
                        acc += sum;
                    }
                    *out.at_mut(n, co, y, x) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1x1 kernel with weight 1 on a single channel is the identity.
        let input = Tensor4::from_fn(1, 1, 3, 3, |_, _, h, w| (h * 3 + w) as f32);
        let mut weights = Tensor4::zeros(1, 1, 1, 1);
        *weights.at_mut(0, 0, 0, 0) = 1.0;
        let out = conv2d_reference(&input, &weights, ConvParams::unit());
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn hand_computed_2x2_kernel() {
        // input 1x1x3x3 = [[1,2,3],[4,5,6],[7,8,9]], kernel [[1,0],[0,1]]
        // valid conv -> [[1+5, 2+6], [4+8, 5+9]].
        let input = Tensor4::from_fn(1, 1, 3, 3, |_, _, h, w| (h * 3 + w + 1) as f32);
        let mut weights = Tensor4::zeros(1, 1, 2, 2);
        *weights.at_mut(0, 0, 0, 0) = 1.0;
        *weights.at_mut(0, 0, 1, 1) = 1.0;
        let out = conv2d_reference(&input, &weights, ConvParams::unit());
        assert_eq!(out.h, 2);
        assert_eq!(out.w, 2);
        assert_eq!(out.at(0, 0, 0, 0), 6.0);
        assert_eq!(out.at(0, 0, 0, 1), 8.0);
        assert_eq!(out.at(0, 0, 1, 0), 12.0);
        assert_eq!(out.at(0, 0, 1, 1), 14.0);
    }

    #[test]
    fn padding_adds_zero_border() {
        // All-ones 3x3 input, all-ones 3x3 kernel, pad 1: centre output is
        // 9, corner outputs see only 4 contributing inputs.
        let input = Tensor4::from_fn(1, 1, 3, 3, |_, _, _, _| 1.0);
        let weights = Tensor4::from_fn(1, 1, 3, 3, |_, _, _, _| 1.0);
        let out = conv2d_reference(&input, &weights, ConvParams::new(1, 1));
        assert_eq!(out.h, 3);
        assert_eq!(out.at(0, 0, 1, 1), 9.0);
        assert_eq!(out.at(0, 0, 0, 0), 4.0);
        assert_eq!(out.at(0, 0, 0, 1), 6.0);
    }

    #[test]
    fn stride_subsamples_outputs() {
        let input = Tensor4::from_fn(1, 1, 5, 5, |_, _, h, w| (h * 5 + w) as f32);
        let mut weights = Tensor4::zeros(1, 1, 1, 1);
        *weights.at_mut(0, 0, 0, 0) = 1.0;
        let out = conv2d_reference(&input, &weights, ConvParams::new(2, 0));
        assert_eq!((out.h, out.w), (3, 3));
        assert_eq!(out.at(0, 0, 0, 0), 0.0);
        assert_eq!(out.at(0, 0, 1, 1), 12.0);
        assert_eq!(out.at(0, 0, 2, 2), 24.0);
    }

    #[test]
    fn channels_accumulate() {
        // Two input channels, each contributing 1 via a 1x1 kernel.
        let input = Tensor4::from_fn(1, 2, 2, 2, |_, c, _, _| (c + 1) as f32);
        let weights = Tensor4::from_fn(1, 2, 1, 1, |_, _, _, _| 1.0);
        let out = conv2d_reference(&input, &weights, ConvParams::unit());
        assert_eq!(out.at(0, 0, 0, 0), 3.0);
    }

    #[test]
    fn multiple_kernels_produce_independent_channels() {
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor4::random(1, 3, 4, 4, &mut rng);
        let weights = Tensor4::random(2, 3, 3, 3, &mut rng);
        let both = conv2d_reference(&input, &weights, ConvParams::unit());
        // Convolving with each kernel alone must reproduce each channel.
        for co in 0..2 {
            let single = Tensor4::from_fn(1, 3, 3, 3, |_, c, h, w| weights.at(co, c, h, w));
            let out = conv2d_reference(&input, &single, ConvParams::unit());
            for y in 0..both.h {
                for x in 0..both.w {
                    assert_eq!(out.at(0, 0, y, x), both.at(0, co, y, x));
                }
            }
        }
    }

    #[test]
    fn batches_are_independent() {
        let mut rng = StdRng::seed_from_u64(2);
        let input = Tensor4::random(3, 2, 5, 5, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let all = conv2d_reference(&input, &weights, ConvParams::new(1, 1));
        for n in 0..3 {
            let single = Tensor4::from_fn(1, 2, 5, 5, |_, c, h, w| input.at(n, c, h, w));
            let out = conv2d_reference(&single, &weights, ConvParams::new(1, 1));
            for co in 0..2 {
                for y in 0..all.h {
                    for x in 0..all.w {
                        assert_eq!(out.at(0, co, y, x), all.at(n, co, y, x));
                    }
                }
            }
        }
    }

    #[test]
    fn layout_of_input_does_not_change_result() {
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor4::random(1, 3, 6, 6, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let base = conv2d_reference(&input, &weights, ConvParams::new(2, 1));
        for layout in Layout::ALL {
            let out = conv2d_reference(&input.to_layout(layout), &weights, ConvParams::new(2, 1));
            assert_eq!(out.max_abs_diff(&base), 0.0, "layout {layout}");
        }
    }

    #[test]
    fn channel_staged_is_the_reference_up_to_rounding() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = ConvParams::new(2, 1);
        // One channel: the same fold term for term, so the same bits.
        let input = Tensor4::random(2, 1, 9, 9, &mut rng);
        let weights = Tensor4::random(3, 1, 3, 2, &mut rng);
        let one = conv2d_channel_staged(&input, &weights, params);
        let want = conv2d_reference(&input, &weights, params);
        assert_eq!(one.max_abs_diff(&want), 0.0);
        assert_eq!((one.n, one.c, one.h, one.w), (want.n, want.c, want.h, want.w));
        // Many: the partial sums round elsewhere.
        let input = Tensor4::random(2, 7, 9, 9, &mut rng).to_layout(Layout::Hwc);
        let weights = Tensor4::random(3, 7, 3, 2, &mut rng).to_layout(Layout::Cwh);
        let many = conv2d_channel_staged(&input, &weights, params);
        assert!(many.approx_eq(&conv2d_reference(&input, &weights, params), 1e-5, 1e-5));
    }

    #[test]
    fn linearity_in_input() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor4::random(1, 2, 4, 4, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let mut a2 = a.clone();
        for v in a2.as_mut_slice() {
            *v *= 2.0;
        }
        let out1 = conv2d_reference(&a, &weights, ConvParams::unit());
        let out2 = conv2d_reference(&a2, &weights, ConvParams::unit());
        let mut doubled = out1.clone();
        for v in doubled.as_mut_slice() {
            *v *= 2.0;
        }
        assert!(out2.approx_eq(&doubled, 1e-5, 1e-6));
    }
}
