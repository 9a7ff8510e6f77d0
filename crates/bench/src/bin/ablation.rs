//! Ablation studies, one per design choice of the tuning pipeline
//! (`docs/ARCHITECTURE.md`, "Data flow: from bound to served config"):
//!
//! A. **Cost model** — the guided walk with the GBT model vs the same walk
//!    model-free (pure random walk).
//! B. **Pruned domain** — the same searcher over the pruned vs full space.
//! C. **Warm start** — walker seeded at the analytic optimality-condition
//!    tile vs cold start.
//! D. **Eviction policy** — Belady vs LRU pebbling I/O on conv DAGs (the
//!    heuristic upper bounds in the theory validation).
//! E. **Optimality condition** — the analytic tile vs the best
//!    condition-violating tile at the same budget (why `xy = Rz` matters).

use iolb_autotune::engine::{tune, TuneParams};
use iolb_autotune::plan::fast_config;
use iolb_autotune::search::walk::ParallelRandomWalk;
use iolb_autotune::{ConfigSpace, GbtCostModel, Measurer, NoModel};
use iolb_bench::banner;
use iolb_core::optimality::{feasible_tiles, TileKind};
use iolb_core::shapes::ConvShape;
use iolb_dataflow::config::ScheduleConfig;
use iolb_gpusim::DeviceSpec;
use iolb_pebble::conv_dag::direct_conv_dag;
use iolb_pebble::{pebble_topological, Eviction};
use iolb_tensor::layout::Layout;

fn main() {
    banner("Ablations", "one experiment per design decision");
    let device = DeviceSpec::v100();
    let shape = ConvShape::square(96, 27, 256, 5, 1, 2); // AlexNet conv2
    let kind = TileKind::Direct;
    let budget = 120;
    let seeds: [u64; 3] = [5, 55, 555];

    let run = |pruned: bool, model_on: bool, warm: bool, seed: u64| -> f64 {
        let space = ConfigSpace::new(shape, kind, device.smem_per_sm, pruned);
        let measurer = Measurer::new(device.clone(), shape, kind);
        let warm_seeds = if warm {
            fast_config(&shape, kind, &device).into_iter().collect()
        } else {
            Vec::new()
        };
        let mut searcher = ParallelRandomWalk::with_seeds(warm_seeds);
        let params = TuneParams { max_measurements: budget, batch: 8, patience: budget, seed };
        let r = if model_on {
            let mut model = GbtCostModel::default();
            tune(&space, &measurer, &mut model, &mut searcher, params)
        } else {
            let mut model = NoModel;
            tune(&space, &measurer, &mut model, &mut searcher, params)
        };
        r.map_or(f64::INFINITY, |r| r.best_ms)
    };
    let mean = |f: &dyn Fn(u64) -> f64| -> f64 {
        seeds.iter().map(|&s| f(s)).sum::<f64>() / seeds.len() as f64
    };

    println!("\n[A] cost model (pruned space, warm start, mean of 3 seeds):");
    let with_model = mean(&|s| run(true, true, true, s));
    let without = mean(&|s| run(true, false, true, s));
    println!("  GBT-guided walk: {with_model:.5} ms");
    println!(
        "  model-free walk: {without:.5} ms   (model gain {:.1}%)",
        (without / with_model - 1.0) * 100.0
    );

    println!("\n[B] searching domain (GBT model, warm start):");
    let pruned = mean(&|s| run(true, true, true, s));
    let full = mean(&|s| run(false, true, true, s));
    println!("  pruned domain: {pruned:.5} ms");
    println!(
        "  full domain:   {full:.5} ms   (pruning gain {:.1}%)",
        (full / pruned - 1.0) * 100.0
    );

    println!("\n[C] warm start (GBT model, pruned space):");
    let warm = mean(&|s| run(true, true, true, s));
    let cold = mean(&|s| run(true, true, false, s));
    println!("  analytic warm start: {warm:.5} ms");
    println!(
        "  cold start:          {cold:.5} ms   (warm-start gain {:.1}%)",
        (cold / warm - 1.0) * 100.0
    );

    println!("\n[D] pebbling eviction policy (conv DAG, I/O of the schedule):");
    let small = ConvShape::new(3, 5, 5, 2, 3, 3, 1, 0);
    let dag = direct_conv_dag(&small);
    println!("  {:>4} {:>10} {:>10}", "S", "belady", "lru");
    for s in [16usize, 24, 48] {
        let b = pebble_topological(&dag, s, Eviction::Belady).io;
        let l = pebble_topological(&dag, s, Eviction::Lru).io;
        println!("  {s:>4} {b:>10} {l:>10}");
    }

    println!("\n[E] optimality condition, by on-chip volume class:");
    println!("  The condition xy = Rz balances input against weight traffic for a");
    println!("  *given* tile volume; it matters exactly where the schedule is");
    println!("  memory-bound. Sweeping volume classes makes the regime visible:");
    // A traffic-heavy layer (1x1 kernel, R = 1) on the bandwidth-poorest
    // device in the set.
    let mem_shape = ConvShape::new(512, 56, 56, 256, 1, 1, 1, 0);
    let mem_device = DeviceSpec::titan_x();
    let measurer = Measurer::new(mem_device, mem_shape, kind);
    let r = kind.reuse(&mem_shape);
    let best_split = |n: usize, cap: usize| -> usize {
        iolb_core::optimality::divisors(n).into_iter().rfind(|&d| d <= cap).unwrap_or(1)
    };
    println!("  {:<14} {:>14} {:>14} {:>10}", "volume class", "near (ms)", "far (ms)", "advantage");
    for (lo, hi) in [(128usize, 512usize), (512, 2048), (2048, 8192)] {
        let mut best_on: Option<(ScheduleConfig, f64)> = None;
        let mut best_off: Option<(ScheduleConfig, f64)> = None;
        for t in feasible_tiles(&mem_shape, kind, hi as f64) {
            if t.volume() < lo || t.volume() >= hi {
                continue;
            }
            let dev = {
                let (lhs, rhs) = ((t.x * t.y) as f64, r * t.z as f64);
                (lhs - rhs).abs() / lhs.max(rhs)
            };
            let nxt = best_split(t.x, 16);
            let nyt = best_split(t.y, 16);
            let nzt = best_split(t.z, (512 / (nxt * nyt)).max(1));
            let cfg = ScheduleConfig {
                x: t.x,
                y: t.y,
                z: t.z,
                nxt,
                nyt,
                nzt,
                sb_bytes: 32 * 1024,
                layout: Layout::Chw,
            };
            let Some(ms) = measurer.measure_ms(&cfg) else { continue };
            let slot = if dev < 0.3 {
                &mut best_on
            } else if dev > 0.7 {
                &mut best_off
            } else {
                continue;
            };
            if slot.as_ref().is_none_or(|&(_, b)| ms < b) {
                *slot = Some((cfg, ms));
            }
        }
        if let (Some((_, m1)), Some((_, m2))) = (best_on, best_off) {
            println!("  [{lo:>5},{hi:>5})  {m1:>14.5} {m2:>14.5} {:>9.2}x", m2 / m1);
        }
    }
}
