//! Tuning determinism (ISSUE 1 acceptance gate): the same seed must
//! reproduce the tuning trajectory to the bit.
//!
//! Run-to-run identity lives here; the parallel-vs-forced-serial check
//! (of `tune_batch`, the tuner's one parallel region) lives in
//! `determinism_serial.rs` — its own binary, because it
//! mutates `RAYON_NUM_THREADS` and environment writes must not race
//! sibling test threads' reads.

mod common;

use common::{assert_identical, run_tuning};
use conv_iolb::core::shapes::WinogradTile;
use conv_iolb::dataflow::exec::{execute_direct, execute_winograd};
use conv_iolb::dataflow::ScheduleConfig;
use conv_iolb::tensor::conv_ref::{conv2d_channel_staged, ConvParams};
use conv_iolb::tensor::layout::Layout;
use conv_iolb::tensor::tensor::Tensor4;
use conv_iolb::tensor::winograd_conv::conv2d_winograd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn same_seed_gives_identical_convergence_curves_with_rayon() {
    let a = run_tuning(0xD5EED);
    let b = run_tuning(0xD5EED);
    assert!(!a.curve.is_empty(), "tuning produced an empty curve");
    assert_identical(&a, &b, "run-to-run");
}

/// The kernel tier must be invisible to determinism: both dataflow
/// executors produce the bits of their tiling-free oracles
/// (`conv2d_channel_staged`, the tensor-level `conv2d_winograd`), so
/// nothing downstream of them (timing, tuning, replay) can depend on
/// which ISA tier a host dispatches to.
#[test]
fn executor_bits_equal_their_oracles() {
    let mut rng = StdRng::seed_from_u64(0xD5EED);
    let mut fill = |t: &mut Tensor4| {
        for v in t.as_mut_slice().iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
    };
    let mut input = Tensor4::zeros(2, 8, 8, 8);
    let mut weights = Tensor4::zeros(8, 8, 3, 3);
    fill(&mut input);
    fill(&mut weights);
    let params = ConvParams { stride: 1, pad: 1 };
    let cfg = ScheduleConfig {
        x: 4,
        y: 4,
        z: 2,
        nxt: 1,
        nyt: 1,
        nzt: 1,
        sb_bytes: 48 * 1024,
        layout: Layout::Chw,
    };

    let bits = |t: Tensor4| t.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(execute_direct(&input, &weights, params, &cfg, 4)),
        bits(conv2d_channel_staged(&input, &weights, params)),
        "direct executor bits differ from its oracle"
    );

    let tile = WinogradTile::F2X3;
    assert_eq!(
        bits(execute_winograd(&input, &weights, params, tile, &cfg, 4)),
        bits(conv2d_winograd(&input, &weights, params, tile.e)),
        "winograd executor bits differ from its oracle"
    );
}

#[test]
fn different_seeds_explore_differently() {
    // Guards against the determinism above being vacuous (e.g. a seed
    // that is never threaded into the search).
    let a = run_tuning(1);
    let b = run_tuning(2);
    assert!(
        a.best != b.best || a.curve.len() != b.curve.len() || a.to_best != b.to_best,
        "two different seeds produced byte-identical tuning runs"
    );
}
