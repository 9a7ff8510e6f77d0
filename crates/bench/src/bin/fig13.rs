//! Figure 13 — sensitivity across GPU architectures (1080Ti Pascal,
//! Titan X Maxwell, AMD gfx906): achieved GFLOP/s of our tuned dataflow vs
//! the TVM stand-in vs cuDNN/MIOpen, for the paper's four convolution
//! cases.

use iolb_bench::{banner, run_tuner, TunerKind};
use iolb_cnn::inference::{cudnn_direct_ms, cudnn_winograd_ms};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_gpusim::DeviceSpec;

struct Case {
    title: &'static str,
    shape: ConvShape,
    kind: TileKind,
}

fn main() {
    banner(
        "Figure 13: cross-architecture sensitivity",
        "GFLOP/s of ours (ATE) vs TVM stand-in vs cuDNN/MIOpen stand-in; budget 160",
    );
    let devices = [DeviceSpec::gtx1080ti(), DeviceSpec::titan_x(), DeviceSpec::gfx906()];
    let cases = [
        Case {
            title: "direct 28x28 s1 (Cin 512, Cout 128)",
            shape: ConvShape::square(512, 28, 128, 3, 1, 1),
            kind: TileKind::Direct,
        },
        Case {
            title: "direct 112x112 s1 (Cin 512, Cout 128)",
            shape: ConvShape::square(512, 112, 128, 3, 1, 1),
            kind: TileKind::Direct,
        },
        Case {
            title: "direct 112x112 s2 (Cin 512, Cout 128)",
            shape: ConvShape::square(512, 112, 128, 3, 2, 1),
            kind: TileKind::Direct,
        },
        Case {
            title: "winograd 112x112 s1 (Cin 512, Cout 128)",
            shape: ConvShape::square(512, 112, 128, 3, 1, 1),
            kind: TileKind::Winograd(WinogradTile::F2X3),
        },
    ];

    let budget = 160;
    for case in &cases {
        println!("\n--- {} ---", case.title);
        println!("{:<14} {:>12} {:>12} {:>14}", "device", "ours GF", "TVM GF", "cuDNN/MIOpen GF");
        for device in &devices {
            let ours = run_tuner(TunerKind::Ate, &case.shape, case.kind, device, budget, 23);
            let tvm = run_tuner(TunerKind::TvmSa, &case.shape, case.kind, device, budget, 23);
            let base_ms = match case.kind {
                TileKind::Direct => cudnn_direct_ms(&case.shape, device),
                TileKind::Winograd(_) => cudnn_winograd_ms(&case.shape, device),
            };
            // Report the baseline at the direct-equivalent flop count like
            // the tuners do for their own algorithm.
            let flops = case.kind.flops(&case.shape);
            let base_gf = flops / (base_ms * 1e-3) / 1e9;
            println!(
                "{:<14} {:>12.1} {:>12.1} {:>14.1}",
                device.name,
                ours.as_ref().map_or(f64::NAN, |r| r.best_gflops),
                tvm.as_ref().map_or(f64::NAN, |r| r.best_gflops),
                base_gf,
            );
        }
    }
    println!("\nPaper reference: ours > TVM > cuDNN/MIOpen on every architecture;");
    println!("ours/TVM ~ 1.0-1.3x, ours/cuDNN up to ~5x on the direct cases.");
}
