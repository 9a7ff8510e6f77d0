//! Criterion benchmarks of the auto-tuning machinery: GBT training and
//! prediction, space enumeration/sampling, searcher proposal rounds, and
//! full (small-budget) tuning loops — the costs that determine how fast
//! the tuner itself runs, independent of kernel quality.

use criterion::{criterion_group, criterion_main, Criterion};
use iolb_autotune::cost_model::GbtCostModel;
use iolb_autotune::engine::{tune, TuneParams};
use iolb_autotune::features::featurize;
use iolb_autotune::gbt::{Gbrt, GbrtParams};
use iolb_autotune::search::walk::ParallelRandomWalk;
use iolb_autotune::search::{History, Searcher};
use iolb_autotune::{ConfigSpace, Measurer, NoModel};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn gbt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let rows: Vec<Vec<f64>> =
        (0..200).map(|_| (0..14).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
    let targets: Vec<f64> = rows.iter().map(|r| r[0] * r[0] + r[3] - r[7]).collect();
    let mut group = c.benchmark_group("gbt");
    group.sample_size(20);
    group.bench_function("fit-200x14", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(2);
            black_box(Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut r))
        })
    });
    let model = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut rng);
    group.bench_function("predict", |b| b.iter(|| black_box(model.predict(&rows[7]))));

    // The regime the tuner runs in: real feature rows (discrete tile
    // sizes, so ties and near-duplicate columns) at the history lengths a
    // budget-32 run refits on, plus 64 as the benchmark's
    // `autotune.gbt_fit_ms` probe does — same recipe.
    let shape = ConvShape::square(64, 56, 64, 3, 1, 1); // ResNet-18 layer1
    let device = DeviceSpec::v100();
    let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, true);
    let measurer = Measurer::new(device, shape, TileKind::Direct);
    let (mut rows, mut targets) = (Vec::new(), Vec::new());
    while rows.len() < 64 {
        let cfg = space.sample(&mut rng, 64).expect("layer1 has configurations");
        let Some(ms) = measurer.measure_ms(&cfg) else { continue };
        rows.push(featurize(&shape, TileKind::Direct, &cfg));
        targets.push(ms.ln());
    }
    for n in [8, 16, 24, 64] {
        group.bench_function(format!("fit-{n}"), |b| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(2);
                black_box(Gbrt::fit(&rows[..n], &targets[..n], GbrtParams::default(), &mut r))
            })
        });
    }
    group.finish();
}

fn space_ops(c: &mut Criterion) {
    let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
    let mut group = c.benchmark_group("config-space");
    group.sample_size(10);
    for pruned in [false, true] {
        let label = if pruned { "pruned" } else { "full" };
        let space = ConfigSpace::new(shape, TileKind::Direct, 96 * 1024, pruned);
        group.bench_function(format!("count-{label}"), |b| b.iter(|| black_box(space.count())));
        group.bench_function(format!("sample-{label}"), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(space.sample(&mut rng, 256)))
        });
    }
    group.finish();
}

fn search_round(c: &mut Criterion) {
    let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
    let space = ConfigSpace::new(shape, TileKind::Direct, 96 * 1024, true);
    let mut group = c.benchmark_group("search");
    group.sample_size(20);
    group.bench_function("walk-propose-round", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let h = History::new();
        let mut s = ParallelRandomWalk::new();
        b.iter(|| black_box(s.propose(&space, &NoModel, &h, 8, &mut rng)))
    });
    group.bench_function("tune-32-measurements", |b| {
        let measurer = Measurer::new(DeviceSpec::v100(), shape, TileKind::Direct);
        b.iter(|| {
            let mut model = GbtCostModel::default();
            let mut s = ParallelRandomWalk::new();
            black_box(tune(
                &space,
                &measurer,
                &mut model,
                &mut s,
                TuneParams { max_measurements: 32, batch: 8, patience: 32, seed: 5 },
            ))
        })
    });
    group.finish();
}

fn simulator(c: &mut Criterion) {
    use iolb_dataflow::config::ScheduleConfig;
    use iolb_dataflow::direct_kernel;
    use iolb_gpusim::simulate;
    use iolb_tensor::layout::Layout;
    let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
    let cfg = ScheduleConfig {
        x: 14,
        y: 14,
        z: 16,
        nxt: 7,
        nyt: 7,
        nzt: 4,
        sb_bytes: 32 * 1024,
        layout: Layout::Chw,
    };
    let device = DeviceSpec::gtx1080ti();
    c.bench_function("simulate-direct-kernel", |b| {
        b.iter(|| {
            let k = direct_kernel(&shape, &cfg);
            black_box(simulate(&device, &k).unwrap())
        })
    });
}

criterion_group!(benches, gbt, space_ops, search_round, simulator);
criterion_main!(benches);
