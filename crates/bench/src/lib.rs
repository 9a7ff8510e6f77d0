//! # iolb-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§7):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig9`  | dataflow vs cuDNN speedup grid (direct mu=1/2/4 + Winograd) |
//! | `fig10` | batched direct convolution speedups |
//! | `tab2`  | TVM vs ATE: space sizes, iterations, best GFLOP/s |
//! | `fig11` | best-GFLOP/s-vs-iteration curves for four search methods |
//! | `fig12` | end-to-end CNN inference times, ours vs cuDNN |
//! | `fig13` | cross-architecture sensitivity (1080Ti / Titan X / gfx906) |
//! | `theory`| lower-bound validation: pebbling sandwich + 1/sqrt(S) scaling |
//!
//! Plus `tune-cache`, the operational CLI over `iolb-records` and
//! `iolb-service` stores (stats/check/compact/merge/shard/evict/
//! serve-stats), and `ablation`/`probe` for model studies.
//!
//! This library holds the shared runners (planning, tuning, printing).
//!
//! ```
//! use iolb_bench::{fmt_speedup, TunerKind};
//!
//! assert_eq!(fmt_speedup(1.975), "1.98x");
//! // The paper's engine searches the pruned domain; the TVM stand-ins
//! // search the full one.
//! assert!(TunerKind::Ate.pruned());
//! assert!(!TunerKind::TvmSa.pruned());
//! ```

use iolb_autotune::engine::{tune, tune_with_store_mode, TuneParams, TuneResult};
use iolb_autotune::search::genetic::GeneticSearch;
use iolb_autotune::search::random::RandomSearch;
use iolb_autotune::search::sa::SimulatedAnnealing;
use iolb_autotune::search::walk::ParallelRandomWalk;
pub use iolb_autotune::StoreMode;
use iolb_autotune::{ConfigSpace, GbtCostModel, Measurer, NoModel, Searcher, StoreTuneResult};
use iolb_cnn::inference::fast_config;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_dataflow::baselines;
use iolb_dataflow::{direct_kernel, winograd_kernel};
use iolb_gpusim::{simulate, simulate_sequence, DeviceSpec};
use iolb_records::RecordStore;

/// Our dataflow's simulated time (ms) with the fast (analytic) plan.
pub fn ours_fast_ms(shape: &ConvShape, kind: TileKind, device: &DeviceSpec) -> Option<f64> {
    let cfg = fast_config(shape, kind, device)?;
    let kernel = match kind {
        TileKind::Direct => direct_kernel(shape, &cfg),
        TileKind::Winograd(t) => winograd_kernel(shape, t, &cfg),
    };
    simulate(device, &kernel).ok().map(|s| s.time_ms)
}

/// cuDNN stand-in time (ms) for the *direct* algorithm family: best of
/// im2col+GEMM and the naive direct kernel (paper §7: "the best one of two
/// direct implementations in cuDNN").
pub fn cudnn_direct_ms(shape: &ConvShape, device: &DeviceSpec) -> f64 {
    let mut best = f64::INFINITY;
    if let Ok(s) = simulate_sequence(device, &baselines::im2col_gemm(shape)) {
        best = best.min(s.time_ms);
    }
    if let Ok(s) = simulate_sequence(device, &baselines::naive_direct(shape)) {
        best = best.min(s.time_ms);
    }
    best
}

/// cuDNN stand-in time (ms) for the Winograd family (unfused pipeline,
/// best tile).
pub fn cudnn_winograd_ms(shape: &ConvShape, device: &DeviceSpec) -> f64 {
    let mut best = f64::INFINITY;
    for tile in [WinogradTile::F2X3, WinogradTile::F4X3] {
        if !shape.supports_winograd(tile) {
            continue;
        }
        if let Ok(s) = simulate_sequence(device, &baselines::winograd_unfused(shape, tile)) {
            best = best.min(s.time_ms);
        }
    }
    best
}

/// Which auto-tuner to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerKind {
    /// The paper's engine: GBT cost model + parallel random walk over the
    /// *pruned* space.
    Ate,
    /// TVM stand-in: GBT cost model + simulated annealing over the full
    /// space.
    TvmSa,
    /// TVM's GA tuner (model-free) over the full space.
    TvmGa,
    /// TVM's random tuner over the full space.
    TvmRandom,
}

impl TunerKind {
    pub fn label(&self) -> &'static str {
        match self {
            TunerKind::Ate => "ATE (ours)",
            TunerKind::TvmSa => "TVM XGB+SA",
            TunerKind::TvmGa => "TVM GA",
            TunerKind::TvmRandom => "TVM random",
        }
    }

    /// Whether this tuner searches the pruned domain.
    pub fn pruned(&self) -> bool {
        matches!(self, TunerKind::Ate)
    }
}

fn tuner_setup(
    kind: TunerKind,
    shape: &ConvShape,
    tile_kind: TileKind,
    device: &DeviceSpec,
    budget: usize,
    seed: u64,
) -> (ConfigSpace, Measurer, TuneParams, Box<dyn Searcher>) {
    let space = ConfigSpace::new(*shape, tile_kind, device.smem_per_sm, kind.pruned());
    let measurer = Measurer::new(device.clone(), *shape, tile_kind);
    let params =
        TuneParams { max_measurements: budget, batch: 8, patience: (budget / 2).max(24), seed };
    let searcher: Box<dyn Searcher> = match kind {
        TunerKind::Ate => {
            // The engine warm-starts one walker at the analytic
            // optimality-condition configuration — the theory picks the
            // starting point, the walk refines it.
            let seeds = fast_config(shape, tile_kind, device).into_iter().collect();
            Box::new(ParallelRandomWalk::with_seeds(seeds))
        }
        TunerKind::TvmSa => Box::new(SimulatedAnnealing::new()),
        TunerKind::TvmGa => Box::new(GeneticSearch::new()),
        TunerKind::TvmRandom => Box::new(RandomSearch),
    };
    (space, measurer, params, searcher)
}

/// Runs one tuner on one convolution; `budget` caps measurements.
pub fn run_tuner(
    kind: TunerKind,
    shape: &ConvShape,
    tile_kind: TileKind,
    device: &DeviceSpec,
    budget: usize,
    seed: u64,
) -> Option<TuneResult> {
    let (space, measurer, params, mut searcher) =
        tuner_setup(kind, shape, tile_kind, device, budget, seed);
    match kind {
        TunerKind::TvmGa | TunerKind::TvmRandom => {
            let mut model = NoModel;
            tune(&space, &measurer, &mut model, searcher.as_mut(), params)
        }
        _ => {
            let mut model = GbtCostModel::default();
            tune(&space, &measurer, &mut model, searcher.as_mut(), params)
        }
    }
}

/// [`run_tuner`] against a persistent tuning-record store: measurements
/// already in the store replay for free and fresh measurements are
/// written back.
///
/// `mode` picks how much the store may steer the run. Comparison
/// harnesses that tune the *same workload* with competing methods (or
/// several seeds) must use [`StoreMode::CacheOnly`] — records carry no
/// searcher identity, so warm-starting would hand each run its
/// competitors' best configurations and flatten the very curves being
/// compared. [`StoreMode::WarmStart`] is for production-style tuning
/// where any head start is pure win.
#[allow(clippy::too_many_arguments)] // run_tuner's signature plus store and mode
pub fn run_tuner_with_store(
    kind: TunerKind,
    shape: &ConvShape,
    tile_kind: TileKind,
    device: &DeviceSpec,
    budget: usize,
    seed: u64,
    store: &mut RecordStore,
    mode: StoreMode,
) -> Option<StoreTuneResult> {
    let (space, measurer, params, mut searcher) =
        tuner_setup(kind, shape, tile_kind, device, budget, seed);
    match kind {
        TunerKind::TvmGa | TunerKind::TvmRandom => {
            let mut model = NoModel;
            tune_with_store_mode(
                &space,
                &measurer,
                &mut model,
                searcher.as_mut(),
                params,
                store,
                mode,
            )
        }
        _ => {
            let mut model = GbtCostModel::default();
            tune_with_store_mode(
                &space,
                &measurer,
                &mut model,
                searcher.as_mut(),
                params,
                store,
                mode,
            )
        }
    }
}

/// Parses the shared `--records <path>` CLI flag of the tuning binaries.
/// Returns the path when present; exits with a usage message when the
/// flag is dangling.
pub fn records_flag() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--records" {
            match args.next() {
                Some(path) => return Some(path.into()),
                None => {
                    eprintln!("--records requires a path to a JSONL tuning-record store");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// The value after `flag` in a subcommand's arguments, parsed as a
/// number (`None` when the flag is absent, dangling or not numeric).
pub fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    flag_string(args, flag)?.parse().ok()
}

/// The value after `flag`, as a path.
pub fn flag_path(args: &[String], flag: &str) -> Option<std::path::PathBuf> {
    flag_string(args, flag).map(Into::into)
}

/// The value after `flag`, verbatim.
pub fn flag_string(args: &[String], flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).cloned()
}

/// Every value of a repeatable flag, in order (`--peer A --peer B`).
pub fn flag_strings(args: &[String], flag: &str) -> Vec<String> {
    let mut values = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == flag {
            if let Some(value) = it.next() {
                values.push(value.clone());
            }
        }
    }
    values
}

/// Loads a record store for a tuning binary, reporting (to stderr) any
/// lines the corruption-tolerant loader skipped.
pub fn load_store_or_exit(path: &std::path::Path) -> RecordStore {
    match RecordStore::load(path) {
        Ok((store, report)) => {
            for (line, reason) in &report.skipped {
                eprintln!("warning: {}:{line}: skipped record: {reason}", path.display());
            }
            eprintln!(
                "records: loaded {} record(s) across {} workload(s) from {}",
                store.len(),
                store.workload_count(),
                path.display()
            );
            store
        }
        Err(e) => {
            eprintln!("error: cannot read record store {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Saves a record store back to disk, printing a one-line summary.
pub fn save_store_or_exit(store: &RecordStore, path: &std::path::Path) {
    if let Err(e) = store.save(path) {
        eprintln!("error: cannot write record store {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "records: saved {} record(s) across {} workload(s) to {}",
        store.len(),
        store.workload_count(),
        path.display()
    );
}

/// Formats a ratio as the paper's "N.NNx" speedup.
pub fn fmt_speedup(r: f64) -> String {
    format!("{r:.2}x")
}

/// Prints a header banner for an experiment binary.
pub fn banner(title: &str, detail: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{detail}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_runner_produces_speedups() {
        let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
        let d = DeviceSpec::gtx1080ti();
        let ours = ours_fast_ms(&shape, TileKind::Direct, &d).unwrap();
        let base = cudnn_direct_ms(&shape, &d);
        assert!(ours > 0.0 && base.is_finite());
    }

    #[test]
    fn tuners_run_to_completion() {
        let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
        let d = DeviceSpec::v100();
        for kind in [TunerKind::Ate, TunerKind::TvmSa, TunerKind::TvmGa, TunerKind::TvmRandom] {
            let r = run_tuner(kind, &shape, TileKind::Direct, &d, 32, 1).unwrap();
            assert!(r.best_ms > 0.0, "{}", kind.label());
        }
    }
}
