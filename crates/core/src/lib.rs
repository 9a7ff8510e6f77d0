//! # iolb-core — I/O lower-bound theory for CNN convolutions
//!
//! From-scratch implementation of the theory in *"I/O Lower Bounds for
//! Auto-tuning of Convolutions in CNNs"* (Zhang, Xiao & Tan, PPoPP 2021):
//!
//! * [`shapes`] — convolution geometry, reuse factor `R` (Eq. 13), Winograd
//!   tile parameters `F(e×e, r×r)`.
//! * [`phi_psi`] — the per-step maximum vertex-generation functions
//!   `phi_j`/`psi_j` with the paper's closed-form bounds
//!   (Lemmas 4.9–4.10, 4.15–4.18).
//! * [`composite`] — the general composite-algorithm machinery: numeric
//!   evaluation of `T(S)` (Theorem 4.5) and the I/O lower bound
//!   `Q ≥ S(|V|/T(2S) − 1)` (Theorem 4.6).
//! * [`direct`] — closed forms for the direct convolution: Lemma 4.8 vertex
//!   count, Lemma 4.11 `T(S)`, Theorem 4.12 bound, and the §5.2 dataflow
//!   I/O model (Eqs. 20–21) with the optimality condition `xy = Rz`.
//! * [`winograd`] — closed forms for the Winograd algorithm: Lemma 4.14,
//!   Lemma 4.19, Theorem 4.20, and the §5.3 dataflow model (Eqs. 22–23).
//! * [`optimality`] — integer tile selection under the Table 1 constraints.
//!
//! The crate is pure math: no I/O, no threads, no dependencies. The pebble
//! game substrate that *validates* these bounds lives in `iolb-pebble`; the
//! executable schedules live in `iolb-dataflow`.
//!
//! ## Units
//!
//! Fast-memory size `S` and all I/O volumes are measured in **elements**
//! (one `f32` word), matching the red-blue pebble game where a pebble holds
//! one value. Byte conversions belong to the simulator layer.
//!
//! ## Example
//!
//! ```
//! use iolb_core::shapes::ConvShape;
//! use iolb_core::{direct, winograd};
//! use iolb_core::shapes::WinogradTile;
//!
//! // ResNet-style 3x3 layer.
//! let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
//! let s = 4096.0; // fast memory: 4096 elements (16 KiB of f32)
//!
//! let q_direct = direct::io_lower_bound(&shape, s);
//! let q_wino = winograd::io_lower_bound(&shape, WinogradTile::F2X3, s);
//! assert!(q_direct > 0.0 && q_wino > 0.0);
//!
//! // The paper's dataflows sit within a small constant of their bounds.
//! assert!(direct::dataflow_optimal_io(&shape, s, 1.0) >= q_direct);
//! ```

#![allow(clippy::needless_range_loop)] // index loops read clearer in numeric code
pub mod composite;
pub mod direct;
pub mod epilogue;
pub mod matmul;
pub mod optimality;
pub mod phi_psi;
pub mod shapes;
pub mod winograd;

pub use epilogue::Epilogue;
pub use shapes::{ConvShape, ShapeError, WinogradTile};
