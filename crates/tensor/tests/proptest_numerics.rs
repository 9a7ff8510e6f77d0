//! Property tests for the numerics substrate: all convolution paths agree,
//! Winograd transforms are exact for arbitrary F(e, r), GEMM equals its
//! per-element oracle bit for bit, layouts round-trip.

use iolb_tensor::conv_ref::{conv2d_reference, ConvParams};
use iolb_tensor::gemm::{gemm, gemm_reference, MatRef};
use iolb_tensor::im2col::conv2d_im2col;
use iolb_tensor::layout::Layout;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_conv::conv2d_winograd;
use iolb_tensor::winograd_math::{apply_1d, correlate_1d, generate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The GEMM's K block: the `k` range below straddles one.
const KC: usize = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM equals its oracle bit for bit: arbitrary small sizes, `k`
    /// straddling one `KC` block, and shapes big enough for the row-band
    /// workers; at any thread count, on uniform values or on adversarial
    /// ones (signed zeros, denormals, magnitudes near 1e6 that make the
    /// fold order show in the low mantissa bits).
    #[test]
    fn gemm_bits_equal_the_oracle(
        shape in prop_oneof![
            (1usize..24, 1usize..24, 1usize..24),
            (1usize..6, KC - 8..KC + 40, 1usize..10),
            (64usize..72, 1usize..8, 64usize..72),
        ],
        threads in 1usize..5,
        adversarial in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let value = |rng: &mut StdRng| -> f32 {
            match if adversarial { rng.gen_range(0u8..6) } else { 5 } {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE / 2.0, // denormal
                3 => rng.gen_range(-1e6..1e6),
                _ => rng.gen_range(-1.0..1.0),
            }
        };
        let a: Vec<f32> = (0..m * k).map(|_| value(&mut rng)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| value(&mut rng)).collect();
        let (ar, br) = (MatRef::new(&a, m, k), MatRef::new(&b, k, n));
        let mut want = vec![0.0; m * n];
        gemm_reference(ar, br, &mut want);
        let mut got = vec![0.0; m * n];
        gemm(ar, br, &mut got, threads);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "element {} of {}x{}x{} ({} threads): {} vs {}", i, m, k, n, threads, g, w
            );
        }
    }

    /// Cook–Toom transforms computed for arbitrary (e, r) implement exact
    /// 1-D correlation.
    #[test]
    fn winograd_1d_exact_for_any_tile(
        e in 1usize..=6,
        r in 1usize..=4,
        seed in 0u64..1000,
    ) {
        prop_assume!(e + r - 1 <= 8); // conditioning limit of the points
        let t = generate(e, r);
        let mut rng = StdRng::seed_from_u64(seed);
        let g: Vec<f64> = (0..r).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let d: Vec<f64> = (0..e + r - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let got = apply_1d(&t, &g, &d);
        let want = correlate_1d(&g, &d);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-7, "{got:?} vs {want:?}");
        }
    }

    /// Layout conversion round-trips exactly and preserves every element.
    #[test]
    fn layout_roundtrip(
        c in 1usize..5,
        h in 1usize..6,
        w in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor4::random(2, c, h, w, &mut rng);
        for layout in Layout::ALL {
            let converted = t.to_layout(layout);
            let back = converted.to_layout(t.layout);
            prop_assert_eq!(back.as_slice(), t.as_slice());
        }
    }

    /// Convolution is invariant under input layout.
    #[test]
    fn conv_layout_invariant(
        cin in 1usize..4,
        hw in 4usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(1, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(2, cin, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1);
        let base = conv2d_reference(&input, &weights, params);
        for layout in Layout::ALL {
            let out = conv2d_reference(&input.to_layout(layout), &weights, params);
            prop_assert_eq!(out.max_abs_diff(&base), 0.0);
        }
    }

    /// im2col+GEMM and Winograd agree with the reference (and hence with
    /// each other) on unit-stride 3x3 shapes.
    #[test]
    fn all_paths_agree(
        cin in 1usize..3,
        hw in 5usize..9,
        cout in 1usize..4,
        pad in 0usize..=1,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(1, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(cout, cin, 3, 3, &mut rng);
        let params = ConvParams::new(1, pad);
        let reference = conv2d_reference(&input, &weights, params);
        let via_gemm = conv2d_im2col(&input, &weights, params, 2);
        let via_wino = conv2d_winograd(&input, &weights, params, 2);
        prop_assert!(via_gemm.approx_eq(&reference, 1e-3, 1e-3));
        prop_assert!(via_wino.approx_eq(&reference, 1e-3, 1e-3));
    }

    /// Convolution linearity: conv(a·x, w) = a·conv(x, w).
    #[test]
    fn conv_is_linear(
        scale in -4.0f32..4.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(1, 2, 6, 6, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let params = ConvParams::unit();
        let base = conv2d_reference(&input, &weights, params);
        let mut scaled_in = input.clone();
        for v in scaled_in.as_mut_slice() {
            *v *= scale;
        }
        let scaled_out = conv2d_reference(&scaled_in, &weights, params);
        let mut want = base.clone();
        for v in want.as_mut_slice() {
            *v *= scale;
        }
        prop_assert!(scaled_out.approx_eq(&want, 1e-3, 1e-3));
    }
}
