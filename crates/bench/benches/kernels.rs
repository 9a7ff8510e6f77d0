//! Criterion micro-benchmarks of the real CPU compute substrate:
//! reference conv vs im2col+GEMM vs Winograd vs the tiled dataflow
//! executors. These measure actual wall-clock on this machine (unlike the
//! fig*/tab* harnesses, which measure simulated GPU time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iolb_core::shapes::WinogradTile;
use iolb_dataflow::config::ScheduleConfig;
use iolb_dataflow::exec::{execute_direct, execute_winograd};
use iolb_tensor::conv_ref::{conv2d_reference, ConvParams};
use iolb_tensor::im2col::conv2d_im2col;
use iolb_tensor::layout::Layout;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_conv::conv2d_winograd;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn conv_paths(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // A small ResNet-ish layer kept modest so the reference path stays
    // benchable.
    let input = Tensor4::random(1, 32, 28, 28, &mut rng);
    let weights = Tensor4::random(32, 32, 3, 3, &mut rng);
    let params = ConvParams::new(1, 1);

    let mut group = c.benchmark_group("conv2d-28x28x32x32-3x3");
    group.sample_size(20);
    group.bench_function("reference", |b| {
        b.iter(|| black_box(conv2d_reference(&input, &weights, params)))
    });
    group.bench_function("im2col-gemm", |b| {
        b.iter(|| black_box(conv2d_im2col(&input, &weights, params, 4)))
    });
    group.bench_function("winograd-f2x3", |b| {
        b.iter(|| black_box(conv2d_winograd(&input, &weights, params, 2)))
    });
    group.bench_function("winograd-f4x3", |b| {
        b.iter(|| black_box(conv2d_winograd(&input, &weights, params, 4)))
    });
    let cfg = ScheduleConfig {
        x: 14,
        y: 14,
        z: 8,
        nxt: 1,
        nyt: 1,
        nzt: 1,
        sb_bytes: 48 * 1024,
        layout: Layout::Chw,
    };
    group.bench_function("dataflow-direct-4workers", |b| {
        b.iter(|| black_box(execute_direct(&input, &weights, params, &cfg, 4)))
    });
    let wcfg = ScheduleConfig { x: 14, y: 14, z: 8, ..cfg };
    group.bench_function("dataflow-winograd-4workers", |b| {
        b.iter(|| {
            black_box(execute_winograd(&input, &weights, params, WinogradTile::F2X3, &wcfg, 4))
        })
    });
    group.finish();
}

/// The dataflow executors on the ResNet-18 layers and tiles the tuner
/// serves them (the ones `benchmark/`'s `conv-exec` workload runs), one
/// worker: per-layer times behind `exec_winograd_gflops` and
/// `exec_direct_gflops`. Each 3x3/s1 layer is 231 MFLOP; `conv1` is 236,
/// `layer3.0.downsample` 12.8 and `layer4.0.conv1` 115.6.
fn dataflow_served(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let tile = |x, y, z| ScheduleConfig {
        x,
        y,
        z,
        nxt: 1,
        nyt: 1,
        nzt: 1,
        sb_bytes: 48 * 1024,
        layout: Layout::Chw,
    };
    // (layer, C_in, C_out, extent, kernel, stride, pad, direct tile,
    // Winograd tile where the tuner serves one). After the three 3x3
    // mid layers, the direct executor's slow classes: few output
    // channels to a block (`z < 16`: lanes mostly empty), one tap to a
    // channel (1x1), a `7 x 1` tile.
    let layers = [
        ("layer1", 64, 64, 56, 3, 1, 1, tile(8, 28, 16), Some(tile(8, 14, 16))),
        ("layer2", 128, 128, 28, 3, 1, 1, tile(14, 14, 32), Some(tile(4, 28, 16))),
        ("layer3", 256, 256, 14, 3, 1, 1, tile(14, 14, 32), Some(tile(14, 14, 8))),
        ("conv1", 3, 64, 224, 7, 2, 3, tile(16, 7, 4), None),
        ("layer3.0.downsample", 128, 256, 28, 1, 2, 0, tile(2, 14, 256), None),
        ("layer4.0.conv1", 256, 512, 14, 3, 2, 1, tile(7, 7, 8), None),
        ("layer4.rest", 512, 512, 7, 3, 1, 1, tile(7, 1, 32), None),
    ];
    for (name, cin, cout, hw, k, stride, pad, direct, wino) in layers {
        let input = Tensor4::random(1, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(cout, cin, k, k, &mut rng);
        let params = ConvParams::new(stride, pad);
        if let Some(wino) = wino {
            let mut group = c.benchmark_group("dataflow-winograd-served");
            group.sample_size(10);
            group.bench_function(name, |b| {
                b.iter(|| {
                    let tile = WinogradTile::F2X3;
                    black_box(execute_winograd(&input, &weights, params, tile, &wino, 1))
                })
            });
            group.finish();
        }
        let mut group = c.benchmark_group("dataflow-direct-served");
        group.sample_size(10);
        group.bench_function(name, |b| {
            b.iter(|| black_box(execute_direct(&input, &weights, params, &direct, 1)))
        });
        group.finish();
    }
}

/// `conv2d_im2col` on five ResNet-18 layers, one thread: the per-layer
/// times behind `exec_im2col_gflops` (ARCHITECTURE's im2col table). The
/// layers span the shapes the unroll and the GEMM find hard — `conv1`'s
/// `K = 147` and stride 2, `layer1`'s wide matrix, `layer3`, a 1x1/s2
/// downsample and `layer4`'s `N = 49`.
fn im2col_served(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    // (layer, C_in, C_out, extent, kernel, stride, pad)
    let layers = [
        ("conv1", 3, 64, 224, 7, 2, 3),
        ("layer1", 64, 64, 56, 3, 1, 1),
        ("layer3", 256, 256, 14, 3, 1, 1),
        ("layer3.0.downsample", 128, 256, 28, 1, 2, 0),
        ("layer4.rest", 512, 512, 7, 3, 1, 1),
    ];
    let mut group = c.benchmark_group("im2col-served");
    group.sample_size(10);
    for (name, cin, cout, hw, k, stride, pad) in layers {
        let input = Tensor4::random(1, cin, hw, hw, &mut rng);
        let weights = Tensor4::random(cout, cin, k, k, &mut rng);
        let params = ConvParams::new(stride, pad);
        group.bench_function(name, |b| {
            b.iter(|| black_box(conv2d_im2col(&input, &weights, params, 1)))
        });
    }
    group.finish();
}

fn gemm_scaling(c: &mut Criterion) {
    use iolb_tensor::gemm::{gemm, MatRef};
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    for n in [64usize, 128, 256] {
        let a: Vec<f32> = (0..n * n).map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0)).collect();
        let b_: Vec<f32> = (0..n * n).map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0)).collect();
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("{n}x{n}x{n}"), threads),
                &threads,
                |bench, &t| {
                    let mut c_buf = vec![0.0f32; n * n];
                    bench.iter(|| {
                        gemm(MatRef::new(&a, n, n), MatRef::new(&b_, n, n), &mut c_buf, t);
                        black_box(&c_buf);
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, conv_paths, dataflow_served, im2col_served, gemm_scaling);
criterion_main!(benches);
