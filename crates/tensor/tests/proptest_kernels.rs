//! Property tests for the kernel-path contract: the vector micro-kernels
//! are **bit-identical** to the scalar reference for arbitrary shapes,
//! thread counts, and input distributions — not "close", the same bits.
//! Sizes deliberately straddle the micro-tile edges (MR/NR remainders,
//! K-unroll tails, lane-width remainders at 8 and 16) where a reordered
//! accumulation would first show up.

use iolb_tensor::conv_ref::ConvParams;
use iolb_tensor::gemm::{gemm_with_path, MatRef};
use iolb_tensor::im2col::{conv2d_im2col, conv2d_im2col_with_path};
use iolb_tensor::kernel::KernelPath;
use iolb_tensor::layout::Layout;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_conv::{conv2d_winograd_with_plan_path, WinogradPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn random_tensor(rng: &mut StdRng, n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    let mut t = Tensor4::zeros(n, c, h, w);
    for v in t.as_mut_slice().iter_mut() {
        *v = rng.gen_range(-1.0..1.0);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Vector GEMM returns the same bits as scalar GEMM for arbitrary
    /// (m, k, n) — including sizes below one micro-tile, just over a
    /// lane width, and ragged remainders — at any thread count.
    #[test]
    fn gemm_paths_bit_identical(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        threads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut scalar = vec![0.0f32; m * n];
        let mut vector = vec![0.0f32; m * n];
        gemm_with_path(MatRef::new(&a, m, k), MatRef::new(&b, k, n), &mut scalar, threads, KernelPath::Scalar);
        gemm_with_path(MatRef::new(&a, m, k), MatRef::new(&b, k, n), &mut vector, threads, KernelPath::Vector);
        for (i, (s, v)) in scalar.iter().zip(&vector).enumerate() {
            prop_assert_eq!(
                s.to_bits(), v.to_bits(),
                "bit divergence at element {} of {}x{}x{} ({} threads): scalar {} vs vector {}",
                i, m, k, n, threads, s, v
            );
        }
    }

    /// Vector GEMM stays bit-identical on adversarial values: zeros
    /// (the zero-skip fold preserves `-0.0 + 0.0*b` sign semantics),
    /// denormals, and large-magnitude entries that make the fold order
    /// observable in the low mantissa bits.
    #[test]
    fn gemm_paths_bit_identical_on_adversarial_values(
        m in 1usize..16,
        k in 1usize..32,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spice = |rng: &mut StdRng| -> f32 {
            match rng.gen_range(0u8..6) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE / 2.0, // denormal
                3 => rng.gen_range(-1e6..1e6),
                _ => rng.gen_range(-1.0..1.0),
            }
        };
        let a: Vec<f32> = (0..m * k).map(|_| spice(&mut rng)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| spice(&mut rng)).collect();
        let mut scalar = vec![0.0f32; m * n];
        let mut vector = vec![0.0f32; m * n];
        gemm_with_path(MatRef::new(&a, m, k), MatRef::new(&b, k, n), &mut scalar, 1, KernelPath::Scalar);
        gemm_with_path(MatRef::new(&a, m, k), MatRef::new(&b, k, n), &mut vector, 1, KernelPath::Vector);
        for (s, v) in scalar.iter().zip(&vector) {
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }
    }

    /// im2col convolution (the GEMM consumer) produces the same bits on
    /// both paths for arbitrary shapes, strides, padding and layouts of
    /// the input and of the weights (`kh != kw`, so a weight matrix read
    /// in the wrong tap order cannot pass).
    #[test]
    fn im2col_paths_bit_identical(
        n in 1usize..3,
        cin in 1usize..5,
        cout in 1usize..6,
        hw in 5usize..12,
        kernel in (1usize..5, 1usize..5),
        stride in 1usize..5,
        pad in 0usize..3,
        layouts in (0usize..3, 0usize..3),
        threads in 1usize..3,
        seed in 0u64..1000,
    ) {
        let ((kh, kw), (in_layout, w_layout)) = (kernel, layouts);
        prop_assume!(hw + 2 * pad >= kh.max(kw));
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_tensor(&mut rng, n, cin, hw, hw).to_layout(Layout::ALL[in_layout]);
        let weights = random_tensor(&mut rng, cout, cin, kh, kw).to_layout(Layout::ALL[w_layout]);
        let params = ConvParams { stride, pad };
        let scalar = conv2d_im2col_with_path(&input, &weights, params, threads, KernelPath::Scalar);
        let vector = conv2d_im2col_with_path(&input, &weights, params, threads, KernelPath::Vector);
        prop_assert_eq!((scalar.n, scalar.c, scalar.h, scalar.w), (vector.n, vector.c, vector.h, vector.w));
        for (s, v) in scalar.as_slice().iter().zip(vector.as_slice()) {
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }
    }

    /// Winograd convolution on the vector path matches the scalar
    /// oracle bit-for-bit across tile sizes F(2,3)/F(4,3) and shapes
    /// that leave partial tiles at the right/bottom edges.
    #[test]
    fn winograd_paths_bit_identical(
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..5,
        hw in 6usize..14,
        e in 2usize..5,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_tensor(&mut rng, n, cin, hw, hw);
        let weights = random_tensor(&mut rng, cout, cin, 3, 3);
        let params = ConvParams { stride: 1, pad };
        let plan = WinogradPlan::new(&weights, e);
        let scalar = conv2d_winograd_with_plan_path(&input, &plan, params, KernelPath::Scalar);
        let vector = conv2d_winograd_with_plan_path(&input, &plan, params, KernelPath::Vector);
        prop_assert_eq!((scalar.n, scalar.c, scalar.h, scalar.w), (vector.n, vector.c, vector.h, vector.w));
        for (s, v) in scalar.as_slice().iter().zip(vector.as_slice()) {
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }
    }
}

/// Golden bits: `conv2d_im2col` on four ResNet-18-class shapes (channel
/// counts and extents cut down so the debug suite stays quick) hashes to
/// exactly these values — FNV-1a over every output's `to_bits`. The
/// constants were generated at the commit before the unroll went by row
/// spans and the weight matrix was borrowed, so the in-crate oracle
/// cannot drift together with the code it checks.
#[test]
fn im2col_outputs_on_resnet_class_shapes_are_pinned() {
    // (C_in, C_out, extent, kernel, stride, pad, golden)
    const GOLDEN: [(usize, usize, usize, usize, usize, usize, u64); 4] = [
        (3, 16, 32, 7, 2, 3, 0xed038fea0a15ebd2), // conv1: 7x7/s2/p3
        (16, 16, 14, 3, 1, 1, 0x2274e8afcfe7192b), // layer1-3: 3x3/s1/p1
        (16, 32, 14, 1, 2, 0, 0x2621257cf92ecacf), // downsample: 1x1/s2
        (16, 32, 14, 3, 2, 1, 0x4d8a565974bdd725), // layerN.0.conv1: 3x3/s2/p1
    ];
    let mut rng = StdRng::seed_from_u64(0x1_2C01);
    let mut got = Vec::new();
    for (cin, cout, hw, k, stride, pad, _) in GOLDEN {
        let input = random_tensor(&mut rng, 2, cin, hw, hw);
        let weights = random_tensor(&mut rng, cout, cin, k, k);
        let out = conv2d_im2col(&input, &weights, ConvParams { stride, pad }, 2);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for v in out.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        got.push(hash);
    }
    let want: Vec<u64> = GOLDEN.iter().map(|g| g.6).collect();
    assert_eq!(got, want, "{got:#018x?}");
}
