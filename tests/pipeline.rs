//! Cross-crate integration tests: the full theory → schedule → simulate →
//! verify pipeline, end to end.

use conv_iolb::autotune::engine::{tune, TuneParams};
use conv_iolb::autotune::plan::fast_config;
use conv_iolb::autotune::search::walk::ParallelRandomWalk;
use conv_iolb::autotune::{ConfigSpace, GbtCostModel, Measurer};
use conv_iolb::cnn::inference::time_network;
use conv_iolb::cnn::models;
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::{ConvShape, WinogradTile};
use conv_iolb::core::{direct, winograd};
use conv_iolb::dataflow::{direct_kernel, winograd_kernel};
use conv_iolb::gpusim::{simulate, DeviceSpec};
use conv_iolb::pebble::conv_dag::direct_conv_dag;
use conv_iolb::pebble::exact::min_io;
use conv_iolb::pebble::{pebble_topological, Eviction};

/// Theorem 4.12's bound must floor the simulator's measured traffic for
/// every schedule the planner can produce, on every device.
#[test]
fn simulated_traffic_respects_direct_lower_bound() {
    for device in DeviceSpec::all() {
        for (cin, hw, cout, k, s) in
            [(256usize, 56usize, 128usize, 3usize, 1usize), (64, 28, 64, 3, 1), (96, 27, 256, 5, 1)]
        {
            let shape = ConvShape::square(cin, hw, cout, k, s, k / 2);
            let Some(cfg) = fast_config(&shape, TileKind::Direct, &device) else {
                continue;
            };
            let stats = simulate(&device, &direct_kernel(&shape, &cfg)).unwrap();
            let bound = direct::io_lower_bound(&shape, cfg.sb_elems());
            assert!(
                stats.q_elems() as f64 >= bound,
                "{} {shape}: Q {} below bound {bound}",
                device.name,
                stats.q_elems()
            );
        }
    }
}

/// Same for the Winograd bound (Theorem 4.20).
#[test]
fn simulated_traffic_respects_winograd_lower_bound() {
    let device = DeviceSpec::v100();
    for hw in [28usize, 56] {
        let shape = ConvShape::square(128, hw, 64, 3, 1, 1);
        let tile = WinogradTile::F2X3;
        let kind = TileKind::Winograd(tile);
        let cfg = fast_config(&shape, kind, &device).expect("winograd plannable");
        let stats = simulate(&device, &winograd_kernel(&shape, tile, &cfg)).unwrap();
        let bound = winograd::io_lower_bound(&shape, tile, cfg.sb_elems());
        assert!(
            stats.q_elems() as f64 >= bound,
            "{shape}: Q {} below bound {bound}",
            stats.q_elems()
        );
    }
}

/// The pebbling sandwich on a literal conv DAG: analytic bound <= exact
/// optimum <= heuristic schedule.
#[test]
fn pebbling_sandwich_on_conv_dag() {
    let shape = ConvShape::new(1, 2, 2, 1, 2, 2, 1, 0);
    let dag = direct_conv_dag(&shape);
    for s in [5usize, 6, 8] {
        let bound = direct::io_lower_bound(&shape, s as f64);
        let exact = min_io(&dag, s, 1 << 24).expect("feasible pebbling");
        let heuristic = pebble_topological(&dag, s, Eviction::Belady).io;
        assert!(bound <= exact as f64 + 1e-9, "S={s}");
        assert!(exact <= heuristic, "S={s}");
    }
}

/// Tuning with the warm-started walker never ends worse than the analytic
/// plan it started from.
#[test]
fn tuning_never_regresses_from_analytic_plan() {
    let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
    let device = DeviceSpec::v100();
    let kind = TileKind::Direct;
    let measurer = Measurer::new(device.clone(), shape, kind);
    let analytic = fast_config(&shape, kind, &device).expect("plannable");
    let analytic_ms = measurer.measure_ms(&analytic).expect("measurable");

    let space = ConfigSpace::new(shape, kind, device.smem_per_sm, true);
    let mut model = GbtCostModel::default();
    let mut searcher = ParallelRandomWalk::with_seeds(vec![analytic]);
    let result = tune(
        &space,
        &measurer,
        &mut model,
        &mut searcher,
        TuneParams { max_measurements: 48, batch: 6, patience: 48, seed: 3 },
    )
    .expect("tunable");
    assert!(
        result.best_ms <= analytic_ms * 1.0001,
        "tuned {} worse than analytic {analytic_ms}",
        result.best_ms
    );
}

/// The served tuner never ends slower than the analytic plan it starts
/// from, on every distinct (shape, algorithm) pair of the model zoo at
/// the serving budget: the tile picked by `xy = Rz` is an upper bound on
/// every served config's cost.
#[test]
fn served_tuning_never_ends_slower_than_its_analytic_seed() {
    use conv_iolb::autotune::plan::{algo_candidates, tuner_setup};
    let device = DeviceSpec::v100();
    let mut pairs: Vec<(ConvShape, TileKind)> = Vec::new();
    for net in models::all_networks() {
        for layer in &net.layers {
            for (kind, _) in algo_candidates(&layer.shape) {
                if !pairs.contains(&(layer.shape, kind)) {
                    pairs.push((layer.shape, kind));
                }
            }
        }
    }
    assert_eq!(pairs.len(), 146, "the zoo's distinct (shape, algorithm) pairs");
    let mut slower = Vec::new();
    for &(shape, kind) in &pairs {
        let mut s = tuner_setup(&shape, kind, &device, 32, 7);
        let seed = fast_config(&shape, kind, &device).expect("plannable");
        let seed_ms = s.measurer.measure_ms(&seed).expect("measurable");
        let out =
            tune(&s.space, &s.measurer, &mut s.model, &mut s.searcher, s.params).expect("tunable");
        if out.best_ms > seed_ms {
            slower.push(format!("{shape} {kind:?}: {} > {seed_ms}", out.best_ms));
        }
    }
    assert!(
        slower.is_empty(),
        "{} pairs end slower than fast_config:\n{}",
        slower.len(),
        slower.join("\n")
    );
}

/// The pruned searching domain is a strict subset of the full space on
/// every AlexNet layer, with the Table 2 compression magnitude.
#[test]
fn pruned_domain_compression_on_alexnet() {
    let device = DeviceSpec::v100();
    for layer in &models::alexnet().layers {
        let full = ConfigSpace::new(layer.shape, TileKind::Direct, device.smem_per_sm, false);
        let pruned = ConfigSpace::new(layer.shape, TileKind::Direct, device.smem_per_sm, true);
        let (nf, np) = (full.count(), pruned.count());
        assert!(np < nf, "{}: pruned {np} not below full {nf}", layer.name);
        let ratio = np as f64 / nf as f64;
        assert!(
            (0.05..0.8).contains(&ratio),
            "{}: compression {ratio} outside expected band",
            layer.name
        );
    }
}

/// End-to-end: our planner beats the library baseline on the classic
/// residual networks, conv time summed across the whole network.
#[test]
fn end_to_end_speedup_on_resnets() {
    let device = DeviceSpec::v100();
    for net in [models::resnet18(), models::resnet34()] {
        let t = time_network(&net, &device);
        assert!(
            t.speedup() > 1.0,
            "{}: ours {} ms vs baseline {} ms",
            net.name,
            t.ours_ms,
            t.baseline_ms
        );
    }
}

/// Every network inventory is plannable end to end: no layer falls back to
/// an infinite time.
#[test]
fn every_layer_of_every_network_is_plannable() {
    let device = DeviceSpec::gtx1080ti();
    for net in models::all_networks() {
        let t = time_network(&net, &device);
        for l in &t.layers {
            assert!(l.ours_ms.is_finite(), "{}/{} unplannable", net.name, l.name);
        }
    }
}

/// The generic composite machinery (Theorem 4.6 evaluated numerically)
/// agrees with the closed forms within their derivation slack.
#[test]
fn generic_theorem_agrees_with_closed_forms() {
    use conv_iolb::core::composite;
    use conv_iolb::core::phi_psi::{direct_steps, winograd_steps};
    let shape = ConvShape::square(128, 28, 64, 3, 1, 1);
    let s = 2048.0;
    // Direct: closed form == generic (same T).
    let generic = composite::io_lower_bound(
        &direct_steps(shape.reuse_factor()),
        direct::vertex_count(&shape) as f64,
        s,
    );
    let closed = direct::io_lower_bound(&shape, s);
    let rel = (generic - closed).abs() / closed;
    assert!(rel < 0.02, "direct: generic {generic} closed {closed}");
    // Winograd: the numeric T is larger than Lemma 4.19's (the paper's
    // chain drops a step-3 term), so the generic bound is smaller but
    // within a small constant.
    let tile = WinogradTile::F2X3;
    let generic_w = composite::io_lower_bound(
        &winograd_steps(tile),
        winograd::vertex_count_leading(&shape, tile),
        s,
    );
    let closed_w = winograd::io_lower_bound(&shape, tile, s);
    assert!(generic_w > 0.0 && closed_w > 0.0);
    let ratio = closed_w / generic_w;
    assert!((1.0..8.0).contains(&ratio), "winograd: ratio {ratio}");
}
