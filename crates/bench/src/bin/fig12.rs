//! Figure 12 — end-to-end CNN inference time, our planner vs the cuDNN
//! stand-in, on V100: SqueezeNet, VGG-19, ResNet-18, ResNet-34,
//! Inception-v3.

use iolb_bench::banner;
use iolb_cnn::inference::time_network;
use iolb_cnn::models;
use iolb_gpusim::DeviceSpec;

fn main() {
    let device = DeviceSpec::v100();
    banner(
        "Figure 12: end-to-end inference, ours vs cuDNN stand-in",
        "conv layers only, batch 1, Tesla V100 (simulated), fast-plan mode",
    );
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>9}",
        "network", "convs", "ours (ms)", "cudnn (ms)", "speedup"
    );
    // Paper's (ours, cuDNN) ms for reference: SqueezeNet (0.45, 1.20),
    // VGG-19 (2.76, 3.00), ResNet-18 (0.85, 0.87), ResNet-34 (1.35, 1.47),
    // Inception-v3 (4.46, 5.47).
    let nets = [
        models::squeezenet(),
        models::vgg19(),
        models::resnet18(),
        models::resnet34(),
        models::inception_v3(),
    ];
    for net in &nets {
        let t = time_network(net, &device);
        let convs: usize = net.layers.iter().map(|l| l.repeat).sum();
        println!(
            "{:<14} {:>8} {:>12.3} {:>12.3} {:>8.2}x",
            t.network,
            convs,
            t.ours_ms,
            t.baseline_ms,
            t.speedup()
        );
    }
    println!();
    println!("Per-layer detail for SqueezeNet (algorithm picks):");
    let t = time_network(&models::squeezenet(), &device);
    for l in t.layers.iter().take(10) {
        println!(
            "  {:<22} ours {:>8.4} ms  cudnn {:>8.4} ms  via {}",
            l.name, l.ours_ms, l.baseline_ms, l.algorithm
        );
    }
    println!("\nPaper reference speedups: SqueezeNet 2.67x, VGG-19 1.09x,");
    println!("ResNet-18 1.02x, ResNet-34 1.09x, Inception-v3 1.23x.");
}
