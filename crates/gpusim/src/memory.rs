//! Transaction-level global-memory traffic model.
//!
//! The simulator's job is to count slow-memory traffic *exactly* (that is
//! the quantity the lower-bound theory speaks about) and to account for the
//! coalescing overhead real GPUs add on top: DRAM moves whole transactions
//! (32/64-byte granules), so a tile access whose rows are shorter than a
//! transaction still pays full granules per row.

/// One logical access to global memory: a 2-D tile of `rows x row_elems`
/// elements whose rows are contiguous, with `row_stride_elems` elements
/// between row starts in memory (`row_stride_elems >= row_elems`; equality
/// means fully contiguous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileAccess {
    /// Number of rows touched.
    pub rows: u64,
    /// Contiguous elements per row.
    pub row_elems: u64,
    /// Memory distance between consecutive row starts, in elements.
    pub row_stride_elems: u64,
}

impl TileAccess {
    /// Fully contiguous run of `elems` elements.
    pub fn contiguous(elems: u64) -> Self {
        Self { rows: 1, row_elems: elems, row_stride_elems: elems }
    }

    /// Strided 2-D tile.
    pub fn tile(rows: u64, row_elems: u64, row_stride_elems: u64) -> Self {
        assert!(row_stride_elems >= row_elems, "rows overlap");
        Self { rows, row_elems, row_stride_elems }
    }

    /// Useful payload in elements.
    pub fn elems(&self) -> u64 {
        self.rows * self.row_elems
    }

    /// Useful payload in bytes (`f32` elements).
    pub fn bytes(&self) -> u64 {
        self.elems() * 4
    }

    /// Number of DRAM transactions of `transaction_bytes` needed.
    ///
    /// Each row is a contiguous span; unaligned starts cost up to one
    /// extra transaction per row (we charge the expected half granule by
    /// rounding up from the span, the standard approximation). Rows whose
    /// stride places them within the same transaction as the previous row
    /// merge: if the whole tile footprint (rows*stride) fits the span
    /// rule better, use the contiguous count.
    pub fn transactions(&self, transaction_bytes: u64) -> u64 {
        assert!(transaction_bytes >= 4, "transactions smaller than an element");
        let elems_per_tx = transaction_bytes / 4;
        // Contiguous special case: the tile is one run.
        if self.row_stride_elems == self.row_elems || self.rows == 1 {
            return (self.elems()).div_ceil(elems_per_tx).max(u64::from(self.elems() > 0));
        }
        // If consecutive rows land inside one granule (tiny stride), the
        // footprint is what moves.
        if self.row_stride_elems < elems_per_tx {
            let footprint = (self.rows - 1) * self.row_stride_elems + self.row_elems;
            return footprint.div_ceil(elems_per_tx).max(1);
        }
        // General strided case: per-row granules.
        self.rows * self.row_elems.div_ceil(elems_per_tx).max(1)
    }

    /// Bytes actually moved over the DRAM pipe (transactions × granule).
    pub fn moved_bytes(&self, transaction_bytes: u64) -> u64 {
        self.transactions(transaction_bytes) * transaction_bytes
    }

    /// Coalescing efficiency: useful bytes / moved bytes, in (0, 1].
    pub fn efficiency(&self, transaction_bytes: u64) -> f64 {
        self.bytes() as f64 / self.moved_bytes(transaction_bytes) as f64
    }
}

/// Aggregated traffic of one kernel-block execution.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    /// Useful elements read from global memory.
    pub read_elems: u64,
    /// Useful elements written to global memory.
    pub write_elems: u64,
    /// DRAM transactions for reads.
    pub read_transactions: u64,
    /// DRAM transactions for writes.
    pub write_transactions: u64,
}

impl Traffic {
    /// Adds a read access.
    pub(crate) fn read(&mut self, access: TileAccess, transaction_bytes: u64) {
        self.read_elems += access.elems();
        self.read_transactions += access.transactions(transaction_bytes);
    }

    /// Adds a write access.
    pub(crate) fn write(&mut self, access: TileAccess, transaction_bytes: u64) {
        self.write_elems += access.elems();
        self.write_transactions += access.transactions(transaction_bytes);
    }

    /// Useful bytes in both directions.
    pub fn useful_bytes(&self) -> u64 {
        (self.read_elems + self.write_elems) * 4
    }

    /// Bytes moved over the DRAM pipe in both directions.
    pub(crate) fn moved_bytes(&self, transaction_bytes: u64) -> u64 {
        (self.read_transactions + self.write_transactions) * transaction_bytes
    }

    /// Total useful elements (the red-blue `Q` analogue).
    pub(crate) fn total_elems(&self) -> u64 {
        self.read_elems + self.write_elems
    }

    /// Scales the record by `n` identical repetitions.
    pub(crate) fn scaled(&self, n: u64) -> Traffic {
        Traffic {
            read_elems: self.read_elems * n,
            write_elems: self.write_elems * n,
            read_transactions: self.read_transactions * n,
            write_transactions: self.write_transactions * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_transactions_round_up() {
        let a = TileAccess::contiguous(100);
        // 100 elems * 4B = 400B; 32B granule -> ceil(400/32) = 13.
        assert_eq!(a.transactions(32), 13);
        assert_eq!(a.moved_bytes(32), 13 * 32);
        assert!((a.efficiency(32) - 400.0 / 416.0).abs() < 1e-12);
    }

    #[test]
    fn single_element_costs_full_granule() {
        let a = TileAccess::contiguous(1);
        assert_eq!(a.transactions(32), 1);
        assert!((a.efficiency(32) - 4.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn strided_tile_pays_per_row() {
        // 8 rows of 4 elems (16B) each, stride 1024: one 32B granule/row.
        let a = TileAccess::tile(8, 4, 1024);
        assert_eq!(a.transactions(32), 8);
        // Same payload contiguous: 32 elems = 128B = 4 granules.
        let c = TileAccess::contiguous(32);
        assert_eq!(c.transactions(32), 4);
        assert!(a.efficiency(32) < c.efficiency(32));
    }

    #[test]
    fn wide_rows_amortise_granules() {
        // Rows of 64 elems (256B): 8 granules per row regardless of stride.
        let a = TileAccess::tile(4, 64, 4096);
        assert_eq!(a.transactions(32), 32);
        assert!((a.efficiency(32) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_stride_rows_share_granules() {
        // 8 rows, 1 elem each, stride 2 elems: footprint 15 elems = 60B
        // -> 2 granules, not 8.
        let a = TileAccess::tile(8, 1, 2);
        assert_eq!(a.transactions(32), 2);
    }

    #[test]
    fn traffic_accumulates_and_scales() {
        let mut t = Traffic::default();
        t.read(TileAccess::contiguous(64), 32);
        t.write(TileAccess::contiguous(16), 32);
        assert_eq!(t.read_elems, 64);
        assert_eq!(t.write_elems, 16);
        assert_eq!(t.total_elems(), 80);
        assert_eq!(t.useful_bytes(), 320);
        let s = t.scaled(3);
        assert_eq!(s.total_elems(), 240);
    }

    #[test]
    fn amd_wider_granule_hurts_small_rows() {
        // 16B rows on a 64B-granule device waste 75%.
        let a = TileAccess::tile(4, 4, 4096);
        assert!((a.efficiency(64) - 0.25).abs() < 1e-12);
        assert!((a.efficiency(32) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rows overlap")]
    fn overlapping_rows_rejected() {
        let _ = TileAccess::tile(2, 8, 4);
    }
}
