//! Golden output bits of the im2col convolution on ResNet-18-class
//! shapes, pinned at a commit before the kernels they check were last
//! rewritten. The per-element oracles (`gemm::gemm_reference`, the
//! in-crate unroll and weight-gather oracles) catch a change in the
//! fold; these constants also catch the oracle and the code drifting
//! together.

use iolb_tensor::conv_ref::ConvParams;
use iolb_tensor::im2col::conv2d_im2col;
use iolb_tensor::tensor::Tensor4;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(rng: &mut StdRng, n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    let mut t = Tensor4::zeros(n, c, h, w);
    for v in t.as_mut_slice().iter_mut() {
        *v = rng.gen_range(-1.0..1.0);
    }
    t
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
