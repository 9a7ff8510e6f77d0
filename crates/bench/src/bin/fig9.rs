//! Figure 9 — relative speedup of the I/O-optimal dataflow over the cuDNN
//! stand-in on the 1080Ti, for the direct convolution at strides 1/2/4 and
//! for the Winograd algorithm; `H_ker = W_ker = 3`, `C_in = 256`,
//! `C_out in {128, 256, 512, 1024}`, `H_in = W_in in {14, 56, 112, 196,
//! 224}` — the paper's 16 sub-plots as 4 speedup tables.

use iolb_bench::{banner, fmt_speedup};
use iolb_cnn::inference::{cudnn_direct_ms, cudnn_winograd_ms, ours_fast_ms};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_gpusim::DeviceSpec;

const HW: [usize; 5] = [14, 56, 112, 196, 224];
const COUT: [usize; 4] = [128, 256, 512, 1024];

fn grid(device: &DeviceSpec, title: &str, run: impl Fn(&ConvShape) -> Option<(f64, f64)>) {
    println!("\n--- {title} ---");
    print!("{:>10}", "Win\\Cout");
    for c in COUT {
        print!("{c:>10}");
    }
    println!();
    let mut total = 0.0;
    let mut count = 0u32;
    for hw in HW {
        print!("{hw:>10}");
        for cout in COUT {
            let shape = ConvShape::square(256, hw, cout, 3, 1, 1).with_batch(1);
            let shape = ConvShape { cout, ..shape };
            match run(&shape) {
                Some((ours, base)) if ours.is_finite() && base.is_finite() => {
                    let s = base / ours;
                    total += s;
                    count += 1;
                    print!("{:>10}", fmt_speedup(s));
                }
                _ => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    if count > 0 {
        println!("  [{}] mean speedup: {}", device.name, fmt_speedup(total / count as f64));
    }
}

fn main() {
    let device = DeviceSpec::gtx1080ti();
    banner(
        "Figure 9: dataflow vs cuDNN stand-in, relative speedup",
        "3x3 kernels, Cin = 256, batch 1, GTX 1080 Ti (simulated)",
    );

    for mu in [1usize, 2, 4] {
        let d = device.clone();
        grid(&device, &format!("Direct convolution, stride mu = {mu}"), move |s| {
            let shape = ConvShape { stride: mu, ..*s };
            let ours = ours_fast_ms(&shape, TileKind::Direct, &d)?;
            Some((ours, cudnn_direct_ms(&shape, &d)))
        });
    }

    let d = device.clone();
    grid(&device, "Winograd algorithm (stride 1)", move |s| {
        // Our planner picks the better of F(2,3)/F(4,3); so does cuDNN.
        let best_ours = [WinogradTile::F2X3, WinogradTile::F4X3]
            .into_iter()
            .filter_map(|t| ours_fast_ms(s, TileKind::Winograd(t), &d))
            .fold(f64::INFINITY, f64::min);
        if !best_ours.is_finite() {
            return None;
        }
        Some((best_ours, cudnn_winograd_ms(s, &d)))
    });

    println!("\nPaper reference: ~3.32x average over the 16 sub-plots; speedups grow");
    println!("with Hin/Win, shrink with stride (paper observations 1 & 3).");
}
