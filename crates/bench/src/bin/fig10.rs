//! Figure 10 — batched direct convolution vs cuDNN stand-in on the 1080Ti:
//! `Hin = Win in {14, 56, 112}`, `C_out = 128`, `C_in = 256`,
//! `H_ker = W_ker = 3`, `mu = 1`, batch in {32, 64, 128}.

use iolb_bench::{banner, fmt_speedup};
use iolb_cnn::inference::{cudnn_direct_ms, ours_fast_ms};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;

fn main() {
    let device = DeviceSpec::gtx1080ti();
    banner(
        "Figure 10: batched direct convolution vs cuDNN stand-in",
        "Cout = 128, Cin = 256, 3x3, stride 1, GTX 1080 Ti (simulated)",
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>10}",
        "Hin/Win", "batch", "ours (ms)", "cudnn (ms)", "speedup"
    );
    // The paper's reference speedups are printed after the grid.
    for hw in [14usize, 56, 112] {
        for batch in [32usize, 64, 128] {
            let shape = ConvShape::square(256, hw, 128, 3, 1, 1).with_batch(batch);
            let ours =
                ours_fast_ms(&shape, TileKind::Direct, &device).expect("plannable batched shape");
            let base = cudnn_direct_ms(&shape, &device);
            println!(
                "{hw:>8} {batch:>8} {ours:>12.4} {base:>12.4} {:>10}",
                fmt_speedup(base / ours)
            );
        }
        println!();
    }
    println!("Paper reference: ~1.51x average; speedup grows with Hin/Win (small");
    println!("14x14 images show ~1.0x or below, 112x112 up to ~2.5x).");
}
