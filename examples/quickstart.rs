//! Quickstart: bound a layer, schedule it, run it, verify it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use conv_iolb::autotune::plan::fast_config;
use conv_iolb::core::direct;
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::ConvShape;
use conv_iolb::dataflow::{analyze_direct, direct_kernel, execute_direct};
use conv_iolb::gpusim::{simulate, DeviceSpec};
use conv_iolb::tensor::conv_ref::{conv2d_reference, ConvParams};
use conv_iolb::tensor::tensor::Tensor4;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A ResNet-style 3x3 layer.
    let layer = ConvShape::square(256, 56, 128, 3, 1, 1);
    let device = DeviceSpec::gtx1080ti();
    println!("layer:  {layer}");
    println!(
        "device: {} ({} SMs, {} KiB smem/SM)\n",
        device.name,
        device.num_sms,
        device.smem_per_sm / 1024
    );

    // 1. Theory: how much traffic MUST move through S elements of fast
    //    memory? (Theorem 4.12.)
    let s = device.smem_per_sm as f64 / 4.0 / 2.0; // one block's share
    let bound = direct::io_lower_bound(&layer, s);
    println!("I/O lower bound at S = {s:.0} elems: {bound:.3e} elems");

    // 2. Schedule: the optimality-condition tile (xy = Rz).
    let cfg = fast_config(&layer, TileKind::Direct, &device).expect("plannable layer");
    println!("analytic schedule: {cfg}");
    let report = analyze_direct(&layer, &cfg);
    println!("{report}\n");

    // 3. Simulate on the GPU model.
    let kernel = direct_kernel(&layer, &cfg);
    let stats = simulate(&device, &kernel).expect("simulable kernel");
    println!(
        "simulated: {:.4} ms, {:.0} GFLOP/s, Q = {} elems ({} blocks/SM, {})",
        stats.time_ms,
        stats.gflops,
        stats.q_elems(),
        stats.blocks_per_sm,
        if stats.memory_bound { "memory-bound" } else { "compute-bound" },
    );
    println!("measured Q / lower bound = {:.2}x (near-optimal)\n", stats.q_elems() as f64 / bound);

    // 4. Execute the same schedule for real on the CPU and verify.
    let mut rng = StdRng::seed_from_u64(7);
    let small = ConvShape::square(16, 28, 8, 3, 1, 1); // small enough to run
    let input = Tensor4::random(1, small.cin, small.hin, small.win, &mut rng);
    let weights = Tensor4::random(small.cout, small.cin, 3, 3, &mut rng);
    let params = ConvParams::new(1, 1);
    let cfg_small = fast_config(&small, TileKind::Direct, &device).unwrap();
    let ours = execute_direct(&input, &weights, params, &cfg_small, 4);
    let reference = conv2d_reference(&input, &weights, params);
    assert!(ours.approx_eq(&reference, 1e-4, 1e-4), "dataflow execution must match the reference");
    println!("CPU execution of the tiled schedule matches the reference convolution. ✓");
}
