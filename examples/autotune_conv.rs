//! Auto-tune one convolution layer with the paper's engine and watch the
//! convergence curve.
//!
//! ```sh
//! cargo run --release --example autotune_conv
//! ```

use conv_iolb::autotune::engine::{tune, TuneParams};
use conv_iolb::autotune::plan::fast_config;
use conv_iolb::autotune::search::walk::ParallelRandomWalk;
use conv_iolb::autotune::{ConfigSpace, GbtCostModel, Measurer};
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::ConvShape;
use conv_iolb::gpusim::DeviceSpec;

fn main() {
    let shape = ConvShape::square(96, 27, 256, 5, 1, 2); // AlexNet conv2
    let device = DeviceSpec::v100();
    println!("tuning {shape} on {}\n", device.name);

    let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, true);
    println!("pruned searching domain: {} configurations", space.count());
    let full = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, false);
    println!("full (TVM-style) space:  {} configurations\n", full.count());

    let measurer = Measurer::new(device.clone(), shape, TileKind::Direct);
    let mut model = GbtCostModel::default();
    let seeds = fast_config(&shape, TileKind::Direct, &device).into_iter().collect();
    let mut searcher = ParallelRandomWalk::with_seeds(seeds);
    let params = TuneParams { max_measurements: 160, batch: 8, patience: 80, seed: 42 };

    let result = tune(&space, &measurer, &mut model, &mut searcher, params).expect("tunable layer");

    println!("{:>8} {:>12} {:>12}", "meas", "best ms", "best GF");
    let mut last = f64::INFINITY;
    for p in &result.curve {
        if p.best_ms < last {
            println!("{:>8} {:>12.5} {:>12.1}", p.measurement, p.best_ms, p.best_gflops);
            last = p.best_ms;
        }
    }
    println!(
        "\nbest: {} -> {:.5} ms ({:.1} GFLOP/s) after {} measurements",
        result.best, result.best_ms, result.best_gflops, result.measurements
    );

    // How good was the analytic (no-search) plan?
    if let Some(cfg) = fast_config(&shape, TileKind::Direct, &device) {
        if let Some(ms) = measurer.measure_ms(&cfg) {
            println!(
                "analytic optimality-condition plan: {cfg} -> {ms:.5} ms \
                 (tuning improved it {:.1}%)",
                (ms / result.best_ms - 1.0) * 100.0
            );
        }
    }
}
