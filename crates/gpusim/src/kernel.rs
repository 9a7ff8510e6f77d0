//! Kernel descriptions and execution statistics.
//!
//! A kernel is a grid of homogeneous thread blocks; each block declares its
//! resource shape, its arithmetic work and its global-memory accesses (as
//! [`TileAccess`] patterns). The schedule-lowering code in `iolb-dataflow`
//! produces these descriptions; the [`crate::engine`] turns them into time.

use crate::memory::{TileAccess, Traffic};
use crate::occupancy::BlockShape;

/// Per-block workload description.
#[derive(Debug, Clone, Default)]
pub struct BlockWork {
    /// FP32 operations executed by one block.
    pub flops: u64,
    /// Global-memory reads issued by one block.
    pub reads: Vec<TileAccess>,
    /// Global-memory writes issued by one block.
    pub writes: Vec<TileAccess>,
    /// Shared-memory bank-conflict slowdown factor (>= 1.0): multiplies
    /// compute time. Layout choices feed this.
    pub bank_conflict_factor: f64,
}

impl BlockWork {
    pub fn new(flops: u64) -> Self {
        Self { flops, reads: Vec::new(), writes: Vec::new(), bank_conflict_factor: 1.0 }
    }

    /// Adds a read access (builder style).
    pub fn read(mut self, a: TileAccess) -> Self {
        self.reads.push(a);
        self
    }

    /// Adds a write access (builder style).
    pub fn write(mut self, a: TileAccess) -> Self {
        self.writes.push(a);
        self
    }

    /// Sets the bank-conflict factor (builder style).
    pub fn with_bank_conflicts(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0);
        self.bank_conflict_factor = factor;
        self
    }

    /// Aggregates the block's traffic with a given transaction granule.
    pub(crate) fn traffic(&self, transaction_bytes: u64) -> Traffic {
        let mut t = Traffic::default();
        for &r in &self.reads {
            t.read(r, transaction_bytes);
        }
        for &w in &self.writes {
            t.write(w, transaction_bytes);
        }
        t
    }
}

/// A launchable kernel: `grid_blocks` copies of `work` at `block` shape.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Diagnostic name (shows up in traces).
    pub name: String,
    /// Number of thread blocks in the grid.
    pub grid_blocks: u64,
    /// Resource shape of each block.
    pub block: BlockShape,
    /// Per-block workload.
    pub work: BlockWork,
}

/// Simulation result for one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Simulated execution time, milliseconds.
    pub time_ms: f64,
    /// Achieved arithmetic rate, GFLOP/s.
    pub gflops: f64,
    /// Aggregated global-memory traffic.
    pub traffic: Traffic,
    /// Bytes moved over DRAM (with coalescing overhead).
    pub moved_bytes: u64,
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Number of waves the grid executed in.
    pub waves: u64,
    /// Whether the roofline was memory-bound.
    pub memory_bound: bool,
}

impl KernelStats {
    /// Useful slow-memory elements moved — the simulator's measured `Q`,
    /// directly comparable with the lower bounds (which count elements).
    pub fn q_elems(&self) -> u64 {
        self.traffic.total_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_work_builder() {
        let w = BlockWork::new(1000)
            .read(TileAccess::contiguous(64))
            .read(TileAccess::contiguous(32))
            .write(TileAccess::contiguous(16))
            .with_bank_conflicts(1.5);
        assert_eq!(w.flops, 1000);
        assert_eq!(w.reads.len(), 2);
        assert_eq!(w.writes.len(), 1);
        let t = w.traffic(32);
        assert_eq!(t.read_elems, 96);
        assert_eq!(t.write_elems, 16);
    }

    #[test]
    #[should_panic]
    fn bank_conflicts_below_one_rejected() {
        let _ = BlockWork::new(1).with_bank_conflicts(0.5);
    }
}
