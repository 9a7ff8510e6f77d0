//! # iolb-records — the persistent tuning-record store
//!
//! The paper's auto-tuner (§6) re-measures every candidate schedule from
//! scratch on each invocation. A production tuning service amortizes
//! that cost across runs, layers and devices by logging every
//! measurement into a persistent store and consulting it first — the
//! role TVM's tuning logs and autotvm "transfer learning" records play.
//! This crate is that store:
//!
//! * [`record`] — the versioned record schema: a [`Workload`]
//!   fingerprint (layer shape + algorithm + device preset), the measured
//!   [`ScheduleConfig`](iolb_dataflow::config::ScheduleConfig), its
//!   cost, and the tuner seed that produced it.
//! * [`jsonl`] — a dependency-free, hand-rolled JSONL codec (the build
//!   environment is offline; no serde). Serialization is canonical and
//!   deterministic: the same store contents always produce the same
//!   bytes, so stores diff cleanly and replicate bit-identically.
//! * [`store`] — the in-memory index: keyed by workload fingerprint,
//!   top-k-by-cost queries, exact-config lookup (the measurement cache),
//!   nearest-workload queries by feature distance (cross-layer
//!   transfer), merge, and corruption-tolerant loading that
//!   skips and reports malformed lines instead of failing the run.
//!
//! ```
//! use iolb_core::optimality::TileKind;
//! use iolb_core::shapes::ConvShape;
//! use iolb_dataflow::config::ScheduleConfig;
//! use iolb_records::{RecordStore, TuningRecord, Workload};
//! use iolb_tensor::layout::Layout;
//!
//! let workload = Workload::new(
//!     ConvShape::square(64, 28, 32, 3, 1, 1), TileKind::Direct, "Tesla V100", 96 * 1024,
//! );
//! let config = ScheduleConfig {
//!     x: 7, y: 7, z: 8, nxt: 1, nyt: 1, nzt: 1, sb_bytes: 16 * 1024, layout: Layout::Chw,
//! };
//! let mut store = RecordStore::new();
//! store.insert(TuningRecord::new(workload.clone(), config, 0.25, 7).unwrap());
//! // Exact hits replay their stored cost; serialization is canonical.
//! assert_eq!(store.lookup(&workload, &config), Some(0.25));
//! let (reloaded, report) = RecordStore::from_jsonl(&store.to_jsonl());
//! assert!(report.is_clean());
//! assert_eq!(reloaded.to_jsonl(), store.to_jsonl());
//! ```

pub mod jsonl;
pub mod record;
pub mod store;

pub use record::{TuningRecord, Workload};
pub use store::{LoadReport, RecordStore};
