//! # iolb-pebble — red-blue pebble game substrate
//!
//! The paper's lower-bound theory (Theorems 4.6, 4.12, 4.20 in `iolb-core`)
//! is stated over the red-blue pebble game of Hong & Kung. This crate makes
//! that model *executable* so the bounds can be validated empirically:
//!
//! * [`dag`] — computation DAGs and the vertex-generation relation
//!   (Definition 4.2).
//! * [`game`] — the pebble game itself: legal moves, trace replay, I/O
//!   accounting. Re-computation is allowed, matching the paper's model
//!   (unlike red-blue-white pebbling, §8).
//! * [`strategies`] — heuristic pebbling schedules (LRU / Belady eviction)
//!   giving upper bounds on the optimal `Q`.
//! * [`exact`] — exact minimum-I/O search (0-1 BFS over pebble states) for
//!   tiny DAGs: ground truth for the sandwich
//!   `Q_lower <= Q_exact <= Q_heuristic`.
//! * [`flow`] — Dinic max-flow; minimum dominator sizes via Menger.
//! * [`partition`] — S-partition verification (Properties 1–4 of §2.1) and
//!   a greedy valid-partition builder upper-bounding `P(S)`.
//! * [`conv_dag`] — literal DAG builders for the direct convolution
//!   (Fig. 4) and the Winograd algorithm (Fig. 5), whose vertex counts
//!   reproduce Lemmas 4.8 and 4.14 exactly.
//!
//! ```
//! use iolb_core::shapes::ConvShape;
//! use iolb_pebble::conv_dag::direct_conv_dag;
//! use iolb_pebble::strategies::{pebble_topological, Eviction};
//!
//! // Pebble a tiny direct convolution with 16 red pebbles: the legal
//! // trace's I/O upper-bounds the true minimum, and a larger fast
//! // memory can never need more I/O under the same policy.
//! let dag = direct_conv_dag(&ConvShape::square(2, 4, 2, 3, 1, 0)); // unpadded
//! let small = pebble_topological(&dag, 16, Eviction::Lru);
//! let large = pebble_topological(&dag, 64, Eviction::Lru);
//! assert!(small.io >= large.io);
//! assert!(large.loads >= dag.inputs().len() as u64);
//! ```

#![allow(clippy::needless_range_loop)] // index loops read clearer in graph code
pub mod conv_dag;
pub mod dag;
pub mod exact;
pub mod flow;
pub mod game;
pub mod partition;
pub mod strategies;

pub use strategies::{pebble_topological, Eviction, StrategyOutcome};
