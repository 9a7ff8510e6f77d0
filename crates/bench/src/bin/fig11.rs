//! Figure 11 — convergence of the four automation methods on AlexNet
//! conv1 (V100): best-found GFLOP/s vs number of measurements, plus the
//! cuDNN stand-in's flat baseline.
//!
//! With `--records <store.jsonl>` the runs go through a persistent
//! tuning-record store in **cache-only** mode: previously measured
//! configurations replay from the cache (bit-identical to re-measuring,
//! so every method's search trajectory — and the comparison — is
//! unchanged), fresh measurements are appended, and the store is saved
//! back; re-running the figure becomes incremental instead of starting
//! from scratch. Warm-starting is deliberately off here: records carry
//! no searcher identity, so it would seed each method with its
//! competitors' best configurations.

use iolb_bench::{
    banner, load_store_or_exit, records_flag, run_tuner, run_tuner_with_store, save_store_or_exit,
    StoreMode, TunerKind,
};
use iolb_cnn::inference::cudnn_direct_ms;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;

fn main() {
    let device = DeviceSpec::v100();
    let shape = ConvShape::new(3, 227, 227, 96, 11, 11, 4, 0); // AlexNet conv1
    banner(
        "Figure 11: search-method convergence on AlexNet conv1",
        "best GFLOP/s vs measurements, Tesla V100 (simulated); budget 320",
    );

    let budget = 320;
    let seeds: [u64; 3] = [17, 101, 4242];
    let methods = [TunerKind::Ate, TunerKind::TvmSa, TunerKind::TvmGa, TunerKind::TvmRandom];
    let records = records_flag();
    let mut store = records.as_deref().map(load_store_or_exit);
    let mut cache_hits = 0usize;
    let mut fresh = 0usize;
    // Search is stochastic; average the best-so-far curves over seeds.
    let results: Vec<_> = methods
        .iter()
        .map(|&m| {
            let runs: Vec<_> = seeds
                .iter()
                .map(|&s| match store.as_mut() {
                    Some(store) => {
                        let out = run_tuner_with_store(
                            m,
                            &shape,
                            TileKind::Direct,
                            &device,
                            budget,
                            s,
                            store,
                            StoreMode::CacheOnly,
                        )
                        .expect("tuning run");
                        cache_hits += out.cache_hits;
                        fresh += out.fresh_measurements;
                        out.result
                    }
                    None => run_tuner(m, &shape, TileKind::Direct, &device, budget, s)
                        .expect("tuning run"),
                })
                .collect();
            (m, runs)
        })
        .collect();

    // cuDNN baseline throughput (direct-algorithm flops over its time).
    let base_ms = cudnn_direct_ms(&shape, &device);
    let base_gflops = shape.flops() as f64 / (base_ms * 1e-3) / 1e9;

    let best_at = |r: &iolb_autotune::TuneResult, cp: usize| -> f64 {
        r.curve
            .iter()
            .take_while(|p| p.measurement <= cp)
            .map(|p| p.best_gflops)
            .fold(0.0, f64::max)
    };

    // Print the mean curves on a common measurement axis.
    let checkpoints: Vec<usize> = (1..=16).map(|i| i * budget / 16).collect();
    print!("{:>8}", "meas");
    for (m, _) in &results {
        print!("{:>14}", m.label());
    }
    println!("{:>14}", "cuDNN");
    for &cp in &checkpoints {
        print!("{cp:>8}");
        for (_, runs) in &results {
            let mean: f64 = runs.iter().map(|r| best_at(r, cp)).sum::<f64>() / runs.len() as f64;
            print!("{mean:>14.1}");
        }
        println!("{base_gflops:>14.1}");
    }

    println!();
    for (m, runs) in &results {
        let best = runs.iter().max_by(|a, b| a.best_gflops.total_cmp(&b.best_gflops)).unwrap();
        let mean: f64 = runs.iter().map(|r| r.best_gflops).sum::<f64>() / runs.len() as f64;
        println!(
            "{:<14} mean-final {:.1} GFLOP/s, best seed {:.1} GFLOP/s (cfg: {})",
            m.label(),
            mean,
            best.best_gflops,
            best.best
        );
    }
    println!("\nPaper reference: all methods improve over iterations; ATE finds better");
    println!("configurations in fewer steps than SA / GA / random, and all end above");
    println!("the cuDNN line.");

    if let (Some(store), Some(path)) = (&store, &records) {
        println!(
            "\nRecord store: {cache_hits} of {} attempts replayed from cache, {fresh} fresh",
            cache_hits + fresh
        );
        save_store_or_exit(store, path);
    }

    // What did the cost model learn? Refit a GBT on the ATE run's history
    // and rank features by permutation importance.
    {
        use iolb_autotune::features::{featurize, FEATURE_NAMES};
        use iolb_autotune::gbt::{Gbrt, GbrtParams};
        use iolb_autotune::{ConfigSpace, Measurer};
        use iolb_core::optimality::TileKind;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, true);
        let measurer = Measurer::new(device.clone(), shape, TileKind::Direct);
        let mut rng = StdRng::seed_from_u64(99);
        let mut rows = Vec::new();
        let mut costs = Vec::new();
        for _ in 0..240 {
            let Some(cfg) = space.sample(&mut rng, 256) else { continue };
            let Some(ms) = measurer.measure_ms(&cfg) else { continue };
            rows.push(featurize(&shape, TileKind::Direct, &cfg));
            costs.push(ms.ln());
        }
        let model = Gbrt::fit(&rows, &costs, GbrtParams::default(), &mut rng);
        let imp = model.permutation_importance(&rows, &costs, &mut rng);
        let mut ranked: Vec<(&str, f64)> = FEATURE_NAMES.iter().copied().zip(imp).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("\nCost-model permutation importance (top 6 of {} features):", ranked.len());
        for (name, score) in ranked.iter().take(6) {
            println!("  {name:<22} {score:.4}");
        }
    }
}
