//! # iolb-gpusim — two-level memory-hierarchy GPU simulator
//!
//! Stand-in for the GPUs of the paper's evaluation (1080Ti, V100, Titan X,
//! gfx906). The red-blue pebble game abstracts a GPU as a small fast memory
//! (shared memory, `S`) talking to a large slow memory (global memory);
//! this crate makes that abstraction executable:
//!
//! * [`device`] — datasheet presets for the four evaluation GPUs.
//! * [`memory`] — exact transaction-level traffic counting with a
//!   coalescing model ([`memory::TileAccess`]).
//! * [`mod@occupancy`] — blocks-per-SM residency limits (shared memory,
//!   thread slots, block slots).
//! * [`kernel`] — kernel descriptions (grid x block shape x per-block
//!   work) and result statistics.
//! * [`engine`] — occupancy-aware wave scheduling with roofline timing.
//!
//! Design stance (see `docs/ARCHITECTURE.md`): traffic is counted
//! **exactly** — that is what the theory bounds — while time is a
//! monotone roofline model, good enough to rank schedules the way real
//! hardware does. Absolute ms/GFLOPs are not comparable to the paper's;
//! relative speedups are.
//!
//! ```
//! use iolb_gpusim::kernel::{BlockWork, KernelDesc};
//! use iolb_gpusim::memory::TileAccess;
//! use iolb_gpusim::occupancy::BlockShape;
//! use iolb_gpusim::{simulate, DeviceSpec};
//!
//! let device = DeviceSpec::v100();
//! let kernel = KernelDesc {
//!     name: "demo".into(),
//!     grid_blocks: 160,
//!     block: BlockShape { threads: 256, smem_bytes: 16 * 1024 },
//!     work: BlockWork::new(1 << 20).read(TileAccess::contiguous(4096)),
//! };
//! let stats = simulate(&device, &kernel).unwrap();
//! assert!(stats.time_ms > 0.0 && stats.q_elems() > 0);
//! ```

pub mod device;
pub mod engine;
pub mod kernel;
pub mod memory;
pub mod occupancy;

pub use device::DeviceSpec;
pub use engine::{simulate, simulate_sequence, SequenceStats, SimError};
pub use kernel::{BlockWork, KernelDesc, KernelStats};
pub use memory::{TileAccess, Traffic};
pub use occupancy::{occupancy, BlockShape, Limiter, Occupancy};
