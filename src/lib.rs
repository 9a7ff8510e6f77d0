//! # conv-iolb — I/O lower bounds for auto-tuning of convolutions in CNNs
//!
//! A from-scratch Rust reproduction of *"I/O Lower Bounds for Auto-tuning
//! of Convolutions in CNNs"* (Zhang, Xiao & Tan, PPoPP 2021): the general
//! composite-algorithm I/O lower-bound theory under the red-blue pebble
//! game, the closed-form bounds for direct and Winograd convolution, the
//! near-I/O-optimal dataflow designs, and the lower-bound-guided
//! auto-tuning engine — plus every substrate the evaluation needs (a
//! two-level GPU memory-hierarchy simulator, CPU convolution kernels,
//! pebble-game machinery, CNN layer inventories).
//!
//! This crate is the umbrella: it re-exports the workspace members under
//! one name and hosts the runnable `examples/` and the cross-crate
//! integration tests. See `docs/ARCHITECTURE.md` for the architecture and
//! `README.md` for paper-vs-measured results.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `iolb-core` | shapes, φ/ψ bounds, `T(S)`, Theorems 4.6/4.12/4.20, optimality condition |
//! | [`pebble`] | `iolb-pebble` | red-blue pebble game, exact/heuristic pebbling, S-partitions, conv DAGs |
//! | [`tensor`] | `iolb-tensor` | tensors, reference conv, im2col, GEMM, Winograd transforms |
//! | [`gpusim`] | `iolb-gpusim` | device presets, traffic model, occupancy, roofline engine |
//! | [`dataflow`] | `iolb-dataflow` | §5 dataflow schedules, baselines, CPU execution, analysis |
//! | [`records`] | `iolb-records` | persistent tuning-record store: JSONL codec, workload index, warm-start/transfer queries |
//! | [`autotune`] | `iolb-autotune` | §6 config spaces, GBT cost model, searchers, tuning loop, analytic planning |
//! | [`service`] | `iolb-service` | speculative background tuning: device shards, priority queue, eviction |
//! | [`cnn`] | `iolb-cnn` | network inventories, end-to-end inference timing |
//!
//! ## Quickstart
//!
//! ```
//! use conv_iolb::core::shapes::ConvShape;
//! use conv_iolb::core::direct;
//!
//! // How much traffic must ANY schedule of this layer move through a
//! // 16 KiB shared memory?
//! let layer = ConvShape::square(256, 56, 128, 3, 1, 1);
//! let q_min = direct::io_lower_bound(&layer, 4096.0);
//! // ... and how close does the paper's dataflow get?
//! let q_flow = direct::dataflow_optimal_io(&layer, 4096.0, 1.0);
//! assert!(q_flow >= q_min);
//! assert!(q_flow < 16.0 * q_min); // near-optimal: small constant factor
//! ```
//!
//! ## The tuning-record store
//!
//! Production tuning amortizes measurement cost across runs: every
//! measurement lands in a persistent [`records::RecordStore`] (a
//! versioned, canonical JSONL file), and later runs replay cached
//! measurements, warm-start their searchers from the best stored
//! records, and transfer-seed new layers from the nearest already-tuned
//! workload. Tuning the same layer twice against one store performs
//! strictly fewer simulator measurements the second time and never
//! returns a worse configuration:
//!
//! ```
//! use conv_iolb::autotune::{tune_with_store, ConfigSpace, GbtCostModel, Measurer, TuneParams};
//! use conv_iolb::autotune::search::walk::ParallelRandomWalk;
//! use conv_iolb::core::optimality::TileKind;
//! use conv_iolb::core::shapes::ConvShape;
//! use conv_iolb::gpusim::DeviceSpec;
//! use conv_iolb::records::RecordStore;
//!
//! let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
//! let device = DeviceSpec::v100();
//! let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, true);
//! let measurer = Measurer::new(device, shape, TileKind::Direct);
//! let params = TuneParams { max_measurements: 24, batch: 6, patience: 24, seed: 7 };
//! let mut store = RecordStore::new(); // or RecordStore::load("tuning.jsonl")
//! let run = |store: &mut RecordStore| {
//!     tune_with_store(
//!         &space, &measurer, &mut GbtCostModel::default(),
//!         &mut ParallelRandomWalk::new(), params, store,
//!     ).unwrap()
//! };
//! let cold = run(&mut store);
//! let warm = run(&mut store); // replays the cache, warm-starts the walk
//! assert!(warm.fresh_measurements < cold.fresh_measurements);
//! assert!(warm.result.best_ms <= cold.result.best_ms);
//! // store.save("tuning.jsonl") writes the canonical JSONL form.
//! ```

//! ## The tuning service
//!
//! [`service`] layers speculative background tuning on top of the
//! store: register a network, let pool-backed workers fill
//! device-sharded stores ahead of demand, then serve
//! `tune_or_wait` requests instantly — see `docs/ARCHITECTURE.md` and
//! `examples/service.rs`.

pub use iolb_autotune as autotune;
pub use iolb_cnn as cnn;
pub use iolb_core as core;
pub use iolb_dataflow as dataflow;
pub use iolb_gpusim as gpusim;
pub use iolb_pebble as pebble;
pub use iolb_records as records;
pub use iolb_service as service;
pub use iolb_tensor as tensor;

/// Crate version (workspace-wide).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_compile() {
        let shape = crate::core::ConvShape::square(64, 28, 32, 3, 1, 1);
        assert_eq!(shape.hout(), 28);
        assert!(!crate::VERSION.is_empty());
    }
}
