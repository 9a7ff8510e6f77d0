//! Conv-layer inventories of the evaluation networks (paper Fig. 12 and
//! Table 2): AlexNet, SqueezeNet v1.0, VGG-19, ResNet-18/34 and
//! Inception-v3 — the standard published architectures at 224x224 (227
//! for AlexNet, 299 for Inception-v3) inference with batch 1.

use crate::layers::{ConvLayer, Network};
use iolb_core::shapes::ConvShape;

/// AlexNet's five conv layers (Table 2 tunes conv1–conv4).
pub fn alexnet() -> Network {
    Network {
        name: "AlexNet",
        layers: vec![
            ConvLayer::new("conv1", ConvShape::new(3, 227, 227, 96, 11, 11, 4, 0)),
            ConvLayer::new("conv2", ConvShape::new(96, 27, 27, 256, 5, 5, 1, 2)),
            ConvLayer::new("conv3", ConvShape::new(256, 13, 13, 384, 3, 3, 1, 1)),
            ConvLayer::new("conv4", ConvShape::new(384, 13, 13, 256, 3, 3, 1, 1)),
            ConvLayer::new("conv5", ConvShape::new(256, 13, 13, 256, 3, 3, 1, 1)),
        ],
    }
}

/// One SqueezeNet fire module: squeeze 1x1 then parallel expand 1x1/3x3.
fn fire(name: &str, hw: usize, cin: usize, squeeze: usize, expand: usize) -> Vec<ConvLayer> {
    vec![
        ConvLayer::new(
            format!("{name}.squeeze1x1"),
            ConvShape::new(cin, hw, hw, squeeze, 1, 1, 1, 0),
        ),
        ConvLayer::new(
            format!("{name}.expand1x1"),
            ConvShape::new(squeeze, hw, hw, expand, 1, 1, 1, 0),
        ),
        ConvLayer::new(
            format!("{name}.expand3x3"),
            ConvShape::new(squeeze, hw, hw, expand, 3, 3, 1, 1),
        ),
    ]
}

/// SqueezeNet v1.0 (Iandola et al. 2016).
pub fn squeezenet() -> Network {
    let mut layers = vec![ConvLayer::new("conv1", ConvShape::new(3, 224, 224, 96, 7, 7, 2, 0))];
    // After conv1 (109x109) and maxpool/2: 54x54 feature maps.
    layers.extend(fire("fire2", 54, 96, 16, 64));
    layers.extend(fire("fire3", 54, 128, 16, 64));
    layers.extend(fire("fire4", 54, 128, 32, 128));
    // maxpool/2: 27x27.
    layers.extend(fire("fire5", 27, 256, 32, 128));
    layers.extend(fire("fire6", 27, 256, 48, 192));
    layers.extend(fire("fire7", 27, 384, 48, 192));
    layers.extend(fire("fire8", 27, 384, 64, 256));
    // maxpool/2: 13x13.
    layers.extend(fire("fire9", 13, 512, 64, 256));
    layers.push(ConvLayer::new("conv10", ConvShape::new(512, 13, 13, 1000, 1, 1, 1, 0)));
    Network { name: "SqueezeNet", layers }
}

/// VGG-19 (Simonyan & Zisserman): 16 conv layers in five 3x3 groups.
pub fn vgg19() -> Network {
    let mut layers = Vec::new();
    let group = |layers: &mut Vec<ConvLayer>, idx: usize, hw, cin, cout, n: usize| {
        layers.push(ConvLayer::new(
            format!("conv{idx}_1"),
            ConvShape::new(cin, hw, hw, cout, 3, 3, 1, 1),
        ));
        if n > 1 {
            layers.push(ConvLayer::repeated(
                format!("conv{idx}_rest"),
                ConvShape::new(cout, hw, hw, cout, 3, 3, 1, 1),
                n - 1,
            ));
        }
    };
    group(&mut layers, 1, 224, 3, 64, 2);
    group(&mut layers, 2, 112, 64, 128, 2);
    group(&mut layers, 3, 56, 128, 256, 4);
    group(&mut layers, 4, 28, 256, 512, 4);
    group(&mut layers, 5, 14, 512, 512, 4);
    Network { name: "VGG-19", layers }
}

/// A ResNet basic-block stage: `blocks` blocks of two 3x3 convs, with the
/// first conv possibly strided (stage transition) plus its 1x1 downsample.
fn resnet_stage(
    layers: &mut Vec<ConvLayer>,
    idx: usize,
    hw_in: usize,
    cin: usize,
    cout: usize,
    blocks: usize,
    stride: usize,
) {
    let hw_out = hw_in / stride;
    if stride > 1 || cin != cout {
        layers.push(ConvLayer::new(
            format!("layer{idx}.0.conv1"),
            ConvShape::new(cin, hw_in, hw_in, cout, 3, 3, stride, 1),
        ));
        layers.push(ConvLayer::new(
            format!("layer{idx}.0.downsample"),
            ConvShape::new(cin, hw_in, hw_in, cout, 1, 1, stride, 0),
        ));
        layers.push(ConvLayer::new(
            format!("layer{idx}.0.conv2"),
            ConvShape::new(cout, hw_out, hw_out, cout, 3, 3, 1, 1),
        ));
        if blocks > 1 {
            layers.push(ConvLayer::repeated(
                format!("layer{idx}.rest"),
                ConvShape::new(cout, hw_out, hw_out, cout, 3, 3, 1, 1),
                2 * (blocks - 1),
            ));
        }
    } else {
        layers.push(ConvLayer::repeated(
            format!("layer{idx}"),
            ConvShape::new(cout, hw_out, hw_out, cout, 3, 3, 1, 1),
            2 * blocks,
        ));
    }
}

fn resnet(name: &'static str, blocks: [usize; 4]) -> Network {
    let mut layers = vec![ConvLayer::new("conv1", ConvShape::new(3, 224, 224, 64, 7, 7, 2, 3))];
    // maxpool/2 -> 56x56.
    resnet_stage(&mut layers, 1, 56, 64, 64, blocks[0], 1);
    resnet_stage(&mut layers, 2, 56, 64, 128, blocks[1], 2);
    resnet_stage(&mut layers, 3, 28, 128, 256, blocks[2], 2);
    resnet_stage(&mut layers, 4, 14, 256, 512, blocks[3], 2);
    Network { name, layers }
}

/// ResNet-18 (basic blocks [2, 2, 2, 2]).
pub fn resnet18() -> Network {
    resnet("ResNet-18", [2, 2, 2, 2])
}

/// ResNet-34 (basic blocks [3, 4, 6, 3]).
pub fn resnet34() -> Network {
    resnet("ResNet-34", [3, 4, 6, 3])
}

/// Inception-v3 (Szegedy et al.), 299x299 input — the torchvision layer
/// inventory with per-branch convs; symmetric and factorised (1x7/7x1)
/// kernels included. Branches within a block are folded with `repeat`
/// where identical across the repeated mixed blocks.
pub fn inception_v3() -> Network {
    let mut l: Vec<ConvLayer> = Vec::new();
    let mut add = |name: &str, cin, hw, cout, kh, kw, s, p, rep: usize| {
        l.push(ConvLayer::repeated(
            name,
            ConvShape { batch: 1, cin, hin: hw, win: hw, cout, kh, kw, stride: s, pad: p },
            rep,
        ));
    };
    // Stem.
    add("Conv2d_1a_3x3", 3, 299, 32, 3, 3, 2, 0, 1); // -> 149
    add("Conv2d_2a_3x3", 32, 149, 32, 3, 3, 1, 0, 1); // -> 147
    add("Conv2d_2b_3x3", 32, 147, 64, 3, 3, 1, 1, 1); // -> 147, pool -> 73
    add("Conv2d_3b_1x1", 64, 73, 80, 1, 1, 1, 0, 1);
    add("Conv2d_4a_3x3", 80, 73, 192, 3, 3, 1, 0, 1); // -> 71, pool -> 35
                                                      // Mixed 5b/5c/5d (35x35): 1x1, 5x5 branch, double-3x3 branch, pool-1x1.
    for (i, cin) in [(0usize, 192usize), (1, 256), (2, 288)] {
        let tag = ["5b", "5c", "5d"][i];
        add(&format!("Mixed_{tag}.branch1x1"), cin, 35, 64, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch5x5_1"), cin, 35, 48, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch5x5_2"), 48, 35, 64, 5, 5, 1, 2, 1);
        add(&format!("Mixed_{tag}.branch3x3dbl_1"), cin, 35, 64, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch3x3dbl_2"), 64, 35, 96, 3, 3, 1, 1, 1);
        add(&format!("Mixed_{tag}.branch3x3dbl_3"), 96, 35, 96, 3, 3, 1, 1, 1);
        add(
            &format!("Mixed_{tag}.branch_pool"),
            cin,
            35,
            if i == 0 { 32 } else { 64 },
            1,
            1,
            1,
            0,
            1,
        );
    }
    // Mixed 6a (grid reduction 35 -> 17).
    add("Mixed_6a.branch3x3", 288, 35, 384, 3, 3, 2, 0, 1);
    add("Mixed_6a.branch3x3dbl_1", 288, 35, 64, 1, 1, 1, 0, 1);
    add("Mixed_6a.branch3x3dbl_2", 64, 35, 96, 3, 3, 1, 1, 1);
    add("Mixed_6a.branch3x3dbl_3", 96, 35, 96, 3, 3, 2, 0, 1);
    // Mixed 6b..6e (17x17, factorised 7x1/1x7). Channel widths c7:
    // 128 (6b), 160 (6c, 6d), 192 (6e).
    for (tag, c7) in [("6b", 128usize), ("6c", 160), ("6d", 160), ("6e", 192)] {
        add(&format!("Mixed_{tag}.branch1x1"), 768, 17, 192, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch7x7_1"), 768, 17, c7, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch7x7_2"), c7, 17, c7, 1, 7, 1, 3, 1);
        add(&format!("Mixed_{tag}.branch7x7_3"), c7, 17, 192, 7, 1, 1, 3, 1);
        add(&format!("Mixed_{tag}.branch7x7dbl_1"), 768, 17, c7, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch7x7dbl_2"), c7, 17, c7, 7, 1, 1, 3, 1);
        add(&format!("Mixed_{tag}.branch7x7dbl_3"), c7, 17, c7, 1, 7, 1, 3, 1);
        add(&format!("Mixed_{tag}.branch7x7dbl_4"), c7, 17, c7, 7, 1, 1, 3, 1);
        add(&format!("Mixed_{tag}.branch7x7dbl_5"), c7, 17, 192, 1, 7, 1, 3, 1);
        add(&format!("Mixed_{tag}.branch_pool"), 768, 17, 192, 1, 1, 1, 0, 1);
    }
    // Mixed 7a (grid reduction 17 -> 8).
    add("Mixed_7a.branch3x3_1", 768, 17, 192, 1, 1, 1, 0, 1);
    add("Mixed_7a.branch3x3_2", 192, 17, 320, 3, 3, 2, 0, 1);
    add("Mixed_7a.branch7x7x3_1", 768, 17, 192, 1, 1, 1, 0, 1);
    add("Mixed_7a.branch7x7x3_2", 192, 17, 192, 1, 7, 1, 3, 1);
    add("Mixed_7a.branch7x7x3_3", 192, 17, 192, 7, 1, 1, 3, 1);
    add("Mixed_7a.branch7x7x3_4", 192, 17, 192, 3, 3, 2, 0, 1);
    // Mixed 7b / 7c (8x8).
    for (tag, cin) in [("7b", 1280usize), ("7c", 2048)] {
        add(&format!("Mixed_{tag}.branch1x1"), cin, 8, 320, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch3x3_1"), cin, 8, 384, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch3x3_2a"), 384, 8, 384, 1, 3, 1, 1, 1);
        add(&format!("Mixed_{tag}.branch3x3_2b"), 384, 8, 384, 3, 1, 1, 1, 1);
        add(&format!("Mixed_{tag}.branch3x3dbl_1"), cin, 8, 448, 1, 1, 1, 0, 1);
        add(&format!("Mixed_{tag}.branch3x3dbl_2"), 448, 8, 384, 3, 3, 1, 1, 1);
        add(&format!("Mixed_{tag}.branch3x3dbl_3a"), 384, 8, 384, 1, 3, 1, 1, 1);
        add(&format!("Mixed_{tag}.branch3x3dbl_3b"), 384, 8, 384, 3, 1, 1, 1, 1);
        add(&format!("Mixed_{tag}.branch_pool"), cin, 8, 192, 1, 1, 1, 0, 1);
    }
    Network { name: "Inception-v3", layers: l }
}

/// The five Fig. 12 networks plus AlexNet.
pub fn all_networks() -> Vec<Network> {
    vec![squeezenet(), vgg19(), resnet18(), resnet34(), inception_v3(), alexnet()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_validate() {
        for n in all_networks() {
            assert!(!n.layers.is_empty());
            for l in &n.layers {
                l.shape.validate().unwrap_or_else(|e| panic!("{}/{}: {e}", n.name, l.name));
            }
        }
    }

    #[test]
    fn alexnet_matches_table_2_shapes() {
        let net = alexnet();
        let c1 = &net.layers[0].shape;
        assert_eq!((c1.cin, c1.hin, c1.cout, c1.kh, c1.stride, c1.pad), (3, 227, 96, 11, 4, 0));
        assert_eq!(c1.hout(), 55);
        let c3 = &net.layers[2].shape;
        assert_eq!((c3.cin, c3.hin, c3.cout), (256, 13, 384));
        assert_eq!(c3.hout(), 13);
    }

    #[test]
    fn vgg19_has_16_conv_layers() {
        let total: usize = vgg19().layers.iter().map(|l| l.repeat).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn vgg19_flop_count_in_known_range() {
        // VGG-19 convs are ~19.5 GMACs at 224x224.
        let g = vgg19().total_macs() as f64 / 1e9;
        assert!((18.0..21.0).contains(&g), "VGG-19 GMACs {g}");
    }

    #[test]
    fn resnet18_flop_count_in_known_range() {
        // ResNet-18 is ~1.8 GMACs; convs dominate.
        let g = resnet18().total_macs() as f64 / 1e9;
        assert!((1.5..2.0).contains(&g), "ResNet-18 GMACs {g}");
    }

    #[test]
    fn resnet34_heavier_than_resnet18() {
        assert!(resnet34().total_macs() as f64 > 1.8 * resnet18().total_macs() as f64);
    }

    #[test]
    fn squeezenet_much_lighter_than_vgg() {
        // The SqueezeNet paper's headline: AlexNet-level accuracy, 50x
        // fewer parameters; conv work ~0.8 GMACs.
        let s = squeezenet().total_macs();
        let v = vgg19().total_macs();
        assert!(v > 15 * s, "vgg {v} squeeze {s}");
    }

    #[test]
    fn inception_has_factorised_kernels() {
        let net = inception_v3();
        assert!(net.layers.iter().any(|l| l.shape.kh == 1 && l.shape.kw == 7));
        assert!(net.layers.iter().any(|l| l.shape.kh == 7 && l.shape.kw == 1));
        // ~5.7 GMACs of conv work (ptflops reports 5.73 GMac for the
        // whole torchvision model, convs dominating).
        let g = net.total_macs() as f64 / 1e9;
        assert!((5.0..7.0).contains(&g), "Inception-v3 GMACs {g}");
    }

    #[test]
    fn resnet_spatial_bookkeeping_consistent() {
        // Every layer's input extent must match the stage plan.
        for net in [resnet18(), resnet34()] {
            for l in &net.layers {
                assert!(l.shape.validate().is_ok(), "{}: {}", net.name, l.name);
                assert!(l.shape.hout() >= 7, "{}: {} too small", net.name, l.name);
            }
        }
    }
}
