//! End-to-end CNN inference planning: per-layer algorithm selection and
//! timing for a whole network, ours vs the library baseline.
//!
//! ```sh
//! cargo run --release --example end_to_end [squeezenet|vgg19|resnet18|resnet34|inception]
//! ```

use conv_iolb::cnn::inference::time_network;
use conv_iolb::cnn::models;
use conv_iolb::gpusim::DeviceSpec;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "resnet18".into());
    let net = match which.as_str() {
        "squeezenet" => models::squeezenet(),
        "vgg19" => models::vgg19(),
        "resnet18" => models::resnet18(),
        "resnet34" => models::resnet34(),
        "inception" => models::inception_v3(),
        other => {
            eprintln!(
                "unknown network {other:?}; use squeezenet|vgg19|resnet18|resnet34|inception"
            );
            std::process::exit(2);
        }
    };
    let device = DeviceSpec::v100();
    println!(
        "{} on {}: {} conv layers, {:.2} GMACs\n",
        net.name,
        device.name,
        net.layers.iter().map(|l| l.repeat).sum::<usize>(),
        net.total_macs() as f64 / 1e9
    );

    let t = time_network(&net, &device);
    println!("{:<26} {:>10} {:>10} {:>8}  algorithm", "layer", "ours(ms)", "base(ms)", "speedup");
    for l in &t.layers {
        println!(
            "{:<26} {:>10.4} {:>10.4} {:>7.2}x  {}",
            l.name,
            l.ours_ms,
            l.baseline_ms,
            l.baseline_ms / l.ours_ms,
            l.algorithm
        );
    }
    println!(
        "\ntotal: ours {:.3} ms vs baseline {:.3} ms -> {:.2}x end-to-end speedup",
        t.ours_ms,
        t.baseline_ms,
        t.speedup()
    );
}
