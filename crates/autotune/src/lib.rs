//! # iolb-autotune — the I/O-lower-bound-guided auto-tuning engine
//!
//! Reproduction of the paper's §6: a learned-cost-model auto-tuner whose
//! searching domain is pruned by the optimality condition `xy = Rz`
//! derived from the I/O lower bounds.
//!
//! * [`space`] — the Table 1 configuration space, full (TVM-style) and
//!   pruned (ATE) variants; Table 2's space-size comparison comes from
//!   [`space::ConfigSpace::count`].
//! * [`features`] — configuration featurisation for the model.
//! * [`gbt`] — gradient-boosted regression trees, from scratch (the
//!   XGBoost stand-in).
//! * [`cost_model`] — the trainable cost-model abstraction.
//! * [`search`] — four strategies: random, simulated annealing, genetic
//!   (the TVM baselines) and the paper's parallel random walk.
//! * [`measure`] — the template-manager stand-in: lowers a configuration
//!   through `iolb-dataflow` and times it on `iolb-gpusim`.
//! * [`engine`] — the train → search → measure loop (Fig. 8) with the
//!   paper's convergence criterion, plus the [`engine::tune_with_store`]
//!   variant backed by the persistent `iolb-records` store (measurement
//!   cache, warm start, cross-layer transfer).
//! * [`plan`] — the shared analytic planning defaults: per-layer
//!   algorithm candidates, the no-search [`plan::fast_config`], and the
//!   canonical [`plan::tuner_setup`] every layer-level consumer builds
//!   its runs from.
//! * [`fusion`] — the analytic fusion gate: decides from the composite
//!   I/O lower bound and a device cost model whether a conv→epilogue
//!   chain is tuned fused or falls back to per-layer workloads, before
//!   any measurement is spent.
//!
//! ```
//! use iolb_autotune::plan;
//! use iolb_core::optimality::TileKind;
//! use iolb_core::shapes::ConvShape;
//! use iolb_gpusim::DeviceSpec;
//!
//! // A tiny deterministic tuning run over the pruned space: the analytic
//! // optimality-condition config first, then uniform samples; no learned
//! // model.
//! let shape = ConvShape::square(32, 14, 32, 3, 1, 1);
//! let mut s = plan::tuner_setup(&shape, TileKind::Direct, &DeviceSpec::v100(), 16, 7);
//! let out = iolb_autotune::tune(&s.space, &s.measurer, &mut s.model, &mut s.searcher, s.params)
//!     .expect("feasible shape");
//! assert!(out.best_ms > 0.0 && out.measurements <= 16);
//! ```

#![allow(clippy::needless_range_loop)] // index loops read clearer in the tree learner
pub mod cost_model;
pub mod engine;
pub mod features;
pub mod fusion;
pub mod gbt;
pub mod measure;
pub mod plan;
pub mod search;
pub mod space;

pub use cost_model::{CostModel, GbtCostModel, NoModel};
pub use engine::{
    tune, tune_batch, tune_with_store, tune_with_store_mode, BatchTuneOutcome, CurvePoint,
    StoreMode, StoreTuneResult, TuneParams, TuneResult,
};
pub use fusion::{fusion_gate, FusionDecision};
pub use measure::Measurer;
pub use plan::TuneRequest;
pub use search::{History, Searcher};
pub use space::ConfigSpace;
