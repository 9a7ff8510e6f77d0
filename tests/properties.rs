//! Cross-crate property-based tests (proptest): the invariants that must
//! hold for *arbitrary* convolution shapes and schedules, not just the
//! hand-picked ones.

use conv_iolb::core::epilogue::Epilogue;
use conv_iolb::core::optimality::{best_tile, divisors, padded_out, TileKind};
use conv_iolb::core::shapes::{ConvShape, WinogradTile};
use conv_iolb::core::{direct, winograd};
use conv_iolb::dataflow::config::ScheduleConfig;
use conv_iolb::dataflow::exec::{execute, execute_direct, execute_direct_fused, execute_winograd};
use conv_iolb::gpusim::TileAccess;
use conv_iolb::tensor::conv_ref::{conv2d_channel_staged, conv2d_reference, ConvParams};
use conv_iolb::tensor::im2col::conv2d_im2col;
use conv_iolb::tensor::layout::Layout;
use conv_iolb::tensor::ops::{maxpool2d, relu};
use conv_iolb::tensor::tensor::Tensor4;
use conv_iolb::tensor::winograd_conv::conv2d_winograd;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A conv output followed by the standalone `ops` passes: what a fused
/// executor must equal bit for bit.
fn with_epilogue(conv: Tensor4, epilogue: Epilogue) -> Tensor4 {
    match epilogue {
        Epilogue::None => conv,
        Epilogue::Relu => relu(&conv),
        Epilogue::ReluPool { k } => maxpool2d(&relu(&conv), k),
    }
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Strategy: small but varied convolution shapes (valid by construction).
fn small_shape() -> impl Strategy<Value = ConvShape> {
    (1usize..=3, 1usize..=4, 5usize..=10, 1usize..=6, 1usize..=3, 0usize..=1, 1usize..=2)
        .prop_map(|(batch, cin, hw, cout, k, pad, stride)| ConvShape {
            batch,
            cin,
            hin: hw,
            win: hw,
            cout,
            kh: k,
            kw: k,
            stride,
            pad,
        })
        .prop_filter("kernel fits", |s| s.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// im2col + GEMM computes the same convolution as the reference.
    #[test]
    fn im2col_equals_reference(shape in small_shape(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(shape.batch, shape.cin, shape.hin, shape.win, &mut rng);
        let weights = Tensor4::random(shape.cout, shape.cin, shape.kh, shape.kw, &mut rng);
        let params = ConvParams::new(shape.stride, shape.pad);
        let want = conv2d_reference(&input, &weights, params);
        let got = conv2d_im2col(&input, &weights, params, 2);
        prop_assert!(got.approx_eq(&want, 1e-3, 1e-3), "diff {}", got.max_abs_diff(&want));
    }

    /// Winograd F(2,3) computes the same convolution as the reference for
    /// any unit-stride 3x3 shape.
    #[test]
    fn winograd_equals_reference(
        cin in 1usize..=3,
        hw in 5usize..=9,
        cout in 1usize..=4,
        pad in 0usize..=1,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(1, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(cout, cin, 3, 3, &mut rng);
        let params = ConvParams::new(1, pad);
        let want = conv2d_reference(&input, &weights, params);
        let got = conv2d_winograd(&input, &weights, params, 2);
        prop_assert!(got.approx_eq(&want, 1e-3, 1e-3), "diff {}", got.max_abs_diff(&want));
    }

    /// The tiled direct executor matches the reference for any tile that
    /// divides the output.
    #[test]
    fn tiled_direct_executor_equals_reference(
        cin in 1usize..=3,
        cout_pow in 0u32..=2,
        seed in 0u64..1000,
        xi in 0usize..3,
        zi in 0usize..2,
    ) {
        let cout = 2usize.pow(cout_pow);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(1, cin, 10, 10, &mut rng); // hout = 8
        let weights = Tensor4::random(cout, cin, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0);
        let xs = [2usize, 4, 8];
        let zs = divisors(cout);
        let cfg = ScheduleConfig {
            x: xs[xi],
            y: 8,
            z: zs[zi.min(zs.len() - 1)],
            nxt: 1,
            nyt: 1,
            nzt: 1,
            sb_bytes: 48 * 1024,
            layout: Layout::Chw,
        };
        let want = conv2d_reference(&input, &weights, params);
        let got = execute_direct(&input, &weights, params, &cfg, 3);
        prop_assert!(got.approx_eq(&want, 1e-3, 1e-3), "diff {}", got.max_abs_diff(&want));
    }

    /// The tiled Winograd executor matches the reference.
    #[test]
    fn tiled_winograd_executor_equals_reference(
        cin in 1usize..=2,
        seed in 0u64..1000,
        pad in 0usize..=1,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hw = if pad == 1 { 8 } else { 10 }; // hout = 8 either way
        let input = Tensor4::random(1, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(2, cin, 3, 3, &mut rng);
        let params = ConvParams::new(1, pad);
        let cfg = ScheduleConfig {
            x: 4,
            y: 8,
            z: 2,
            nxt: 1,
            nyt: 1,
            nzt: 1,
            sb_bytes: 48 * 1024,
            layout: Layout::Chw,
        };
        let want = conv2d_reference(&input, &weights, params);
        let got = execute_winograd(&input, &weights, params, WinogradTile::F2X3, &cfg, 2);
        prop_assert!(got.approx_eq(&want, 1e-3, 1e-3), "diff {}", got.max_abs_diff(&want));
    }

    /// Lower bounds decrease in S and the dataflow model always dominates
    /// its own bound.
    #[test]
    fn bounds_monotone_and_dominated(
        cin in 8usize..=512,
        hw in 14usize..=128,
        cout in 8usize..=512,
        s1 in 256u32..=4096,
        factor in 2u32..=8,
    ) {
        let shape = ConvShape::square(cin, hw, cout, 3, 1, 1);
        let s1 = s1 as f64;
        let s2 = s1 * factor as f64;
        let b1 = direct::io_lower_bound(&shape, s1);
        let b2 = direct::io_lower_bound(&shape, s2);
        prop_assert!(b2 <= b1 + 1e-9, "bound not decreasing in S");
        let flow = direct::dataflow_optimal_io(&shape, s1, 1.0);
        prop_assert!(flow >= b1, "dataflow below its bound");
        let wb1 = winograd::io_lower_bound(&shape, WinogradTile::F2X3, s1);
        let wflow = winograd::dataflow_optimal_io(&shape, WinogradTile::F2X3, s1, 1.0);
        prop_assert!(wflow >= wb1, "winograd dataflow below its bound");
    }

    /// The integer tile solver respects the budget and never beats the
    /// relaxed (real-valued) Eq. 20 optimum on unpadded shapes.
    #[test]
    fn tile_solver_sound(
        cin in 8usize..=256,
        hw_pow in 2u32..=6,
        cout_pow in 3u32..=7,
        sb in 256f64..8192.0,
    ) {
        let hw = 2usize.pow(hw_pow); // power of two: padding is a no-op
        let cout = 2usize.pow(cout_pow);
        let shape = ConvShape::square(cin, hw + 2, cout, 3, 1, 0); // hout = hw
        prop_assume!(padded_out(&shape, TileKind::Direct) == (hw, hw));
        if let Some(choice) = best_tile(&shape, TileKind::Direct, sb) {
            prop_assert!(TileKind::Direct.accumulator_elems(&choice.tile) <= sb);
            prop_assert_eq!(hw % choice.tile.x, 0);
            prop_assert_eq!(hw % choice.tile.y, 0);
            prop_assert_eq!(cout % choice.tile.z, 0);
        }
    }

    /// Transaction counting: moved bytes always cover the useful payload,
    /// and coalescing efficiency stays in (0, 1].
    #[test]
    fn transactions_cover_payload(
        rows in 1u64..64,
        row_elems in 1u64..64,
        extra_stride in 0u64..128,
        tx_pow in 5u32..=7,
    ) {
        let access = TileAccess::tile(rows, row_elems, row_elems + extra_stride);
        let tx = 2u64.pow(tx_pow);
        prop_assert!(access.moved_bytes(tx) >= access.bytes());
        let eff = access.efficiency(tx);
        prop_assert!(eff > 0.0 && eff <= 1.0 + 1e-12);
    }

    /// Vertex counts: the literal DAG's computed-vertex count equals
    /// Lemma 4.8's closed form for arbitrary tiny shapes.
    #[test]
    fn dag_vertex_count_matches_lemma(
        cin in 1usize..=3,
        hw in 3usize..=5,
        cout in 1usize..=2,
        k in 2usize..=3,
    ) {
        prop_assume!(hw >= k);
        let shape = ConvShape::new(cin, hw, hw, cout, k, k, 1, 0);
        let dag = conv_iolb::pebble::conv_dag::direct_conv_dag(&shape);
        prop_assert_eq!(dag.computed_count(), direct::vertex_count(&shape));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The direct executor equals its oracle, `conv2d_channel_staged`
    /// followed by the `ops` epilogue, **bit for bit**: channel counts
    /// below, at and across the stage depth of 8 (1, 7, 8, 9, 19 — a
    /// ragged last stage); every lane-cascade width of `z`, two-chunk
    /// steps plus every remainder
    /// (32, 48, 52, 61, 64) and tails; tiles whose point count is every
    /// tail 1..7 past a multiple of 4 and of 8, and exact multiples of
    /// both, `y = 1` among them; stride 2, pad 0/1/3, `kh != kw`,
    /// non-CHW tensors, all three epilogues, one or three workers; and
    /// batch 2, so a worker meets a block-channel group twice and
    /// repacks its kernels.
    ///
    /// Three cases in four run on channels that cancel, as the Winograd
    /// twin below does: the second half of the input is minus the first
    /// on the same kernels (an odd channel out is `±0.0`), so every
    /// output is the rounding residue of its own channel fold and a
    /// reordered, merged or fused fold shows in every bit of it.
    #[test]
    fn direct_executor_bits_equal_the_oracle(
        channels in (0usize..12, 1usize..=2, 0usize..6),
        tile_blocks in (0usize..16, 1usize..=2, 1usize..=2),
        kernel in (1usize..=3, 1usize..=3, 1usize..=2, 0usize..3),
        layouts in (0usize..3, 0usize..3),
        epilogue_workers in (0usize..3, 0usize..2),
        seed in 0u64..1000,
    ) {
        let (zi, groups, ci) = channels;
        let (ti, blocks_h, blocks_w) = tile_blocks;
        let (kh, kw, stride, pad_i) = kernel;
        let (in_layout, w_layout) = layouts;
        let (epilogue_i, workers_i) = epilogue_workers;
        let z = [1usize, 3, 4, 8, 12, 20, 36, 32, 48, 52, 61, 64][zi];
        let cin = [1usize, 3, 7, 8, 9, 19][ci];
        // Points per block: 1 to 16, every residue mod 4 and mod 8.
        let (x, y) = [
            (1usize, 1usize), (2, 1), (1, 3), (2, 2), (5, 1), (2, 3), (7, 1), (2, 4),
            (3, 3), (2, 5), (11, 1), (3, 4), (13, 1), (7, 2), (3, 5), (4, 4),
        ][ti];
        let (hout, wout) = (x * blocks_h, y * blocks_w);
        // The input extents that give exactly that output; a pad too
        // wide for them is dropped.
        let span = |out: usize, k: usize| (out - 1) * stride + k;
        let pad = [0usize, 1, 3][pad_i];
        let pad = if span(hout, kh).min(span(wout, kw)) > 2 * pad { pad } else { 0 };
        let (hin, win) = (span(hout, kh) - 2 * pad, span(wout, kw) - 2 * pad);
        let params = ConvParams::new(stride, pad);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::random(2, cin, hin, win, &mut rng);
        let weights = Tensor4::random(z * groups, cin, kh, kw, &mut rng);
        // Channel `c` is `sign * channel twin` of the random tensors.
        let half = if seed % 4 == 0 { 0 } else { cin / 2 };
        let twin = |c: usize| match c {
            _ if half == 0 => (c, 1.0),
            c if c < half => (c, 1.0),
            c if c < 2 * half => (c - half, -1.0),
            c => (c, 0.0),
        };
        let input = Tensor4::from_fn(2, cin, hin, win, |n, c, h, w| {
            let (of, sign) = twin(c);
            sign * input.at(n, of, h, w)
        })
        .to_layout(Layout::ALL[in_layout]);
        let weights =
            Tensor4::from_fn(z * groups, cin, kh, kw, |o, c, h, w| weights.at(o, twin(c).0, h, w))
                .to_layout(Layout::ALL[w_layout]);
        let shape = conv_iolb::dataflow::exec::shape_of(&input, &weights, params);
        prop_assert_eq!((shape.hout(), shape.wout()), (hout, wout));
        let cfg = ScheduleConfig {
            x, y, z, nxt: 1, nyt: 1, nzt: 1, sb_bytes: 48 * 1024, layout: Layout::Chw,
        };
        // A pool window must tile the block: the largest one that does.
        let k = divisors(x).into_iter().filter(|k| y % k == 0).max().unwrap_or(1);
        let epilogue = match epilogue_i {
            0 => Epilogue::None,
            2 if k > 1 => Epilogue::ReluPool { k },
            _ => Epilogue::Relu,
        };
        let workers = [1, 3][workers_i];
        let got = execute_direct_fused(&input, &weights, params, &cfg, workers, epilogue);
        let want = with_epilogue(conv2d_channel_staged(&input, &weights, params), epilogue);
        prop_assert_eq!(bits(&got), bits(&want), "{:?} x{} y{} z{} {}", shape, x, y, z, epilogue);
    }

    /// The Winograd executor equals its oracle, the tensor-level
    /// `conv2d_winograd` followed by the `ops` epilogue, **bit for bit**:
    /// F(2,3) and F(4,3); every Hadamard lane width of
    /// `z` plus tails; channel counts below, at and across the stage
    /// depth; tile counts that are not multiples of 4 or 8; pad 0/1;
    /// non-CHW inputs and weights; all three epilogues; one or three
    /// workers; and batch 2, so a worker meets a block-channel group
    /// twice and repacks its kernels.
    ///
    /// Both sides fold in `f64` and round to `f32` once, which hides a
    /// last-place `f64` difference from all but one output in 2^29. So
    /// three cases in four run on channels that cancel: the second half
    /// of the input is minus the first on the same kernels (an odd
    /// channel out is `±0.0`), every sum comes down to its own rounding
    /// residue, and a fused multiply-add or a reordered fold shows in
    /// every bit of the output.
    #[test]
    fn winograd_executor_bits_equal_the_oracle(
        channels in (0usize..7, 1usize..=2, 0usize..6),
        extents in (0usize..2, 1usize..=5, 1usize..=5, 0usize..=1),
        tile in (0usize..4, 0usize..4),
        layouts in (0usize..3, 0usize..3),
        epilogue_workers in (0usize..3, 0usize..2),
        seed in 0u64..1000,
    ) {
        let (zi, groups, ci) = channels;
        let (fi, th, tw, pad) = extents;
        let (xi, yi) = tile;
        let (in_layout, w_layout) = layouts;
        let (epilogue_i, workers_i) = epilogue_workers;
        let wino = [WinogradTile::F2X3, WinogradTile::F4X3][fi];
        let z = [1usize, 3, 4, 8, 12, 16, 24][zi];
        let cin = [1usize, 3, 7, 8, 9, 17][ci];
        // `th x tw` Winograd tiles of output: 1 to 25, mostly not multiples of 4.
        let (hout, wout) = (th * wino.e, tw * wino.e);
        let params = ConvParams::new(1, pad);
        let mut rng = StdRng::seed_from_u64(seed);
        let (hin, win) = (hout + 2 - 2 * pad, wout + 2 - 2 * pad);
        let input = Tensor4::random(2, cin, hin, win, &mut rng);
        let weights = Tensor4::random(z * groups, cin, 3, 3, &mut rng);
        // Channel `c` is `sign * channel twin` of the random tensors.
        let half = if seed % 4 == 0 { 0 } else { cin / 2 };
        let twin = |c: usize| match c {
            _ if half == 0 => (c, 1.0),
            c if c < half => (c, 1.0),
            c if c < 2 * half => (c - half, -1.0),
            c => (c, 0.0),
        };
        let input = Tensor4::from_fn(2, cin, hin, win, |n, c, h, w| {
            let (of, sign) = twin(c);
            sign * input.at(n, of, h, w)
        })
        .to_layout(Layout::ALL[in_layout]);
        let weights =
            Tensor4::from_fn(z * groups, cin, 3, 3, |o, c, h, w| weights.at(o, twin(c).0, h, w))
                .to_layout(Layout::ALL[w_layout]);
        // Block extents: multiples of `e` that divide the output.
        let pick = |n: usize, i: usize| {
            let d: Vec<usize> = divisors(n).into_iter().filter(|d| d % wino.e == 0).collect();
            d[i % d.len()]
        };
        let (x, y) = (pick(hout, xi), pick(wout, yi));
        let cfg = ScheduleConfig {
            x, y, z, nxt: 1, nyt: 1, nzt: 1, sb_bytes: 48 * 1024, layout: Layout::Chw,
        };
        let k = divisors(x).into_iter().filter(|k| y % k == 0).max().unwrap_or(1);
        let epilogue = match epilogue_i {
            0 => Epilogue::None,
            2 if k > 1 => Epilogue::ReluPool { k },
            _ => Epilogue::Relu,
        };
        let workers = [1, 3][workers_i];
        let kind = TileKind::Winograd(wino);
        let got = execute(&input, &weights, params, kind, &cfg, epilogue, workers);
        let want = with_epilogue(conv2d_winograd(&input, &weights, params, wino.e), epilogue);
        prop_assert_eq!(
            bits(&got), bits(&want), "{:?} cin{} x{} y{} z{} {}", wino, cin, x, y, z, epilogue
        );
    }
}
