//! # iolb-dataflow — near-I/O-optimal convolution schedules
//!
//! The executable form of the paper's §5: dataflow designs derived from the
//! I/O lower bounds, lowered two ways —
//!
//! * to **simulator kernels** ([`direct::direct_kernel`],
//!   [`winograd::winograd_kernel`]) whose exact traffic the `iolb-gpusim`
//!   engine counts and times, and
//! * to **real CPU execution** ([`exec`]) with thread blocks on rayon
//!   workers and literal staging buffers, verified bit for bit against
//!   tiling-free oracles.
//!
//! [`config`] holds the Table 1 schedule configuration and its constraint
//! checking; [`baselines`] provides the cuDNN/MIOpen stand-ins (im2col +
//! GEMM, naive direct, unfused Winograd); [`analysis`] compares measured
//! traffic against the lower bounds.
//!
//! ```
//! use iolb_core::optimality::TileKind;
//! use iolb_core::shapes::ConvShape;
//! use iolb_dataflow::{analyze_direct, ScheduleConfig};
//! use iolb_tensor::layout::Layout;
//!
//! let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
//! let cfg = ScheduleConfig {
//!     x: 14, y: 14, z: 16, nxt: 7, nyt: 7, nzt: 4,
//!     sb_bytes: 32 * 1024, layout: Layout::Chw,
//! };
//! cfg.validate(&shape, TileKind::Direct, 96 * 1024, false).unwrap();
//! // The lowered schedule's exact traffic never beats the lower bound.
//! let report = analyze_direct(&shape, &cfg);
//! assert!(report.ratio >= 1.0);
//! ```

pub mod analysis;
pub mod baselines;
pub mod config;
pub mod direct;
pub mod exec;
mod micro;
pub mod winograd;

pub use analysis::{analyze_direct, analyze_winograd, OptimalityReport};
pub use config::{ConfigError, ScheduleConfig};
pub use direct::direct_kernel;
pub use exec::{execute_direct, execute_winograd};
pub use winograd::winograd_kernel;
