//! Lowering of the paper's near-I/O-optimal **direct-convolution dataflow**
//! (§5.2, Fig. 6) to a simulator kernel.
//!
//! One thread block owns one `x * y * z` output sub-block, kept resident in
//! shared memory for the whole computation (full output reuse — the insight
//! from `phi_2` dominating the lower bound). The block walks the channel
//! dimension in stages; each stage loads one `x' * y'` input tile at a
//! single channel (`alpha = 1`, §5.2) plus the corresponding `z` kernel
//! slices, and accumulates partial sums. Inputs and weights are therefore
//! read exactly once per sub-block, and outputs written exactly once.
//! (The CPU executor stages several channels at a time —
//! `crate::exec` — which changes the on-chip footprint, not these reads.)

use crate::config::ScheduleConfig;
use iolb_core::direct as core_direct;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::{BlockShape, BlockWork, KernelDesc, TileAccess};
use iolb_tensor::layout::Layout;

/// Input halo extents `x' = (x-1)*mu + Kh`, `y' = (y-1)*mu + Kw`.
pub(crate) fn halo(shape: &ConvShape, x: usize, y: usize) -> (usize, usize) {
    ((x - 1) * shape.stride + shape.kh, (y - 1) * shape.stride + shape.kw)
}

/// The global-memory access pattern of one `x' * y'` single-channel input
/// tile under the given layout.
pub(crate) fn input_tile_access(
    shape: &ConvShape,
    layout: Layout,
    xp: usize,
    yp: usize,
) -> TileAccess {
    // Halo rows can extend past the image edge into (free) zero padding;
    // the physical row never exceeds the image row, so the stride clamps
    // to the tile row (a tiny, conservative traffic overcount at borders).
    match layout {
        // Rows of the image are contiguous: x' rows of y' elements.
        Layout::Chw => TileAccess::tile(xp as u64, yp as u64, shape.win.max(yp) as u64),
        // Columns contiguous: y' rows of x' elements.
        Layout::Cwh => TileAccess::tile(yp as u64, xp as u64, shape.hin.max(xp) as u64),
        // Channel-innermost: every element of the tile is isolated by a
        // stride of C_in — the worst coalescing for single-channel stages.
        Layout::Hwc => TileAccess::tile((xp * yp) as u64, 1, shape.cin.max(1) as u64),
    }
}

/// Shared-memory bank-conflict factor of the staging stores per layout.
/// CHW staging is conflict-free; CWH transposes on the way in; HWC
/// scatters. Values are the simulator's modelling knob, not measurements.
pub(crate) fn bank_conflict_factor(layout: Layout) -> f64 {
    match layout {
        Layout::Chw => 1.0,
        Layout::Cwh => 1.12,
        Layout::Hwc => 1.25,
    }
}

/// Builds the simulator kernel for the direct dataflow under `cfg`.
///
/// The caller is responsible for having validated `cfg` against the shape
/// (tests do both); this function asserts the divisibility invariants it
/// relies on.
pub fn direct_kernel(shape: &ConvShape, cfg: &ScheduleConfig) -> KernelDesc {
    // Tiles divide the (slightly) padded output extents; edge blocks run
    // as full tiles, as on real hardware.
    let (hout, wout) =
        iolb_core::optimality::padded_out(shape, iolb_core::optimality::TileKind::Direct);
    assert_eq!(hout % cfg.x, 0, "x must divide padded H_out");
    assert_eq!(wout % cfg.y, 0, "y must divide padded W_out");
    assert_eq!(shape.cout % cfg.z, 0, "z must divide C_out");

    let grid_blocks = (hout / cfg.x) as u64
        * (wout / cfg.y) as u64
        * (shape.cout / cfg.z) as u64
        * shape.batch as u64;

    let (xp, yp) = halo(shape, cfg.x, cfg.y);
    let flops = 2 * (cfg.x * cfg.y * cfg.z * shape.kh * shape.kw * shape.cin) as u64;

    let mut work = BlockWork::new(flops).with_bank_conflicts(bank_conflict_factor(cfg.layout));
    // Channel stages: one input tile + z kernel slices per input channel.
    // Weights are pre-packed at plan time into a stage-contiguous
    // [cin][z][Kh*Kw] layout (the one-time repack is amortised across
    // inference, as with cuDNN filter descriptors), so each stage's load
    // coalesces perfectly.
    let input_access = input_tile_access(shape, cfg.layout, xp, yp);
    let weight_access = TileAccess::contiguous((cfg.z * shape.kh * shape.kw) as u64);
    for _ in 0..shape.cin {
        work = work.read(input_access).read(weight_access);
    }
    // One write of the resident output sub-block.
    work =
        work.write(TileAccess::tile((cfg.x * cfg.z) as u64, cfg.y as u64, wout.max(cfg.y) as u64));

    KernelDesc {
        name: format!("direct-dataflow[{}x{}x{}]", cfg.x, cfg.y, cfg.z),
        grid_blocks,
        block: BlockShape { threads: cfg.threads(), smem_bytes: cfg.sb_bytes },
        work,
    }
}

/// Analytic I/O (elements) of this configuration per Eq. 20 + output
/// stores — the model the kernel's measured traffic must track.
pub fn analytic_io_elems(shape: &ConvShape, cfg: &ScheduleConfig) -> f64 {
    core_direct::dataflow_total_io(shape, cfg.x as f64, cfg.y as f64, cfg.z as f64)
}

/// Exact useful-element I/O of the lowered kernel (what the simulator will
/// count): per-block `cin * (x'y' + Kh Kw z)` reads plus `xyz` writes,
/// times the grid. Differs from Eq. 20 only by the halo
/// (`x' = (x-1)mu + Kh` vs the paper's `x' ~= mu x`).
pub(crate) fn exact_io_elems(shape: &ConvShape, cfg: &ScheduleConfig) -> u64 {
    let (hout, wout) =
        iolb_core::optimality::padded_out(shape, iolb_core::optimality::TileKind::Direct);
    let blocks = (hout / cfg.x) as u64
        * (wout / cfg.y) as u64
        * (shape.cout / cfg.z) as u64
        * shape.batch as u64;
    let (xp, yp) = halo(shape, cfg.x, cfg.y);
    let per_block_reads =
        shape.cin as u64 * ((xp * yp) as u64 + (shape.kh * shape.kw * cfg.z) as u64);
    let per_block_writes = (cfg.x * cfg.y * cfg.z) as u64;
    blocks * (per_block_reads + per_block_writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::optimality::TileKind;
    use iolb_gpusim::{simulate, DeviceSpec};

    fn shape() -> ConvShape {
        ConvShape::square(256, 56, 128, 3, 1, 1)
    }

    fn cfg() -> ScheduleConfig {
        ScheduleConfig {
            x: 14,
            y: 14,
            z: 16,
            nxt: 7,
            nyt: 7,
            nzt: 4,
            sb_bytes: 32 * 1024,
            layout: Layout::Chw,
        }
    }

    #[test]
    fn grid_covers_all_outputs() {
        let k = direct_kernel(&shape(), &cfg());
        // (56/14)^2 * (128/16) = 16 * 8 = 128 blocks.
        assert_eq!(k.grid_blocks, 128);
    }

    #[test]
    fn measured_io_matches_exact_formula() {
        let s = shape();
        let c = cfg();
        let k = direct_kernel(&s, &c);
        let stats = simulate(&DeviceSpec::gtx1080ti(), &k).unwrap();
        assert_eq!(stats.q_elems(), exact_io_elems(&s, &c));
    }

    #[test]
    fn exact_io_close_to_eq20_model() {
        // Halo inflates inputs by ((x+2)(y+2))/(xy) for 3x3 s1; with
        // x = y = 14 that is ~1.3 on the input term only.
        let s = shape();
        let c = cfg();
        let exact = exact_io_elems(&s, &c) as f64;
        let model = analytic_io_elems(&s, &c);
        assert!(exact >= model, "exact {exact} below model {model}");
        assert!(exact <= 1.5 * model, "exact {exact} far above model {model}");
    }

    #[test]
    fn io_above_lower_bound() {
        let s = shape();
        let c = cfg();
        let q = exact_io_elems(&s, &c) as f64;
        let lb = iolb_core::direct::io_lower_bound(&s, c.sb_elems());
        assert!(q >= lb, "measured {q} below bound {lb}");
    }

    #[test]
    fn optimal_tile_beats_skewed_tile() {
        // Same on-chip budget, tile at the optimality condition vs skewed.
        let s = shape();
        let good = cfg(); // xy = 196 ~ R z = 144
        let skew = ScheduleConfig { x: 2, y: 2, z: 128, nzt: 32, nxt: 1, nyt: 1, ..cfg() };
        assert!(skew.validate(&s, TileKind::Direct, 96 * 1024, false).is_ok());
        let q_good = exact_io_elems(&s, &good);
        let q_skew = exact_io_elems(&s, &skew);
        assert!(q_good < q_skew, "good {q_good} skew {q_skew}");
    }

    #[test]
    fn layout_changes_transactions_not_elements() {
        let s = shape();
        let d = DeviceSpec::gtx1080ti();
        let mut best = None;
        for layout in Layout::ALL {
            let c = ScheduleConfig { layout, ..cfg() };
            let stats = simulate(&d, &direct_kernel(&s, &c)).unwrap();
            // Useful elements are layout-invariant.
            assert_eq!(stats.q_elems(), exact_io_elems(&s, &c));
            let moved = stats.moved_bytes;
            best = Some(best.map_or(moved, |b: u64| b.min(moved)));
            if layout == Layout::Hwc {
                // Channel-innermost must move strictly more bytes than the
                // best (single-channel stages scatter).
                assert!(moved > best.unwrap());
            }
        }
    }

    #[test]
    fn batch_scales_grid() {
        let s = shape().with_batch(4);
        let k = direct_kernel(&s, &cfg());
        assert_eq!(k.grid_blocks, 4 * 128);
    }

    #[test]
    fn strided_conv_kernel() {
        let s = ConvShape::square(64, 111, 64, 3, 2, 1); // hout = 56
        let c = ScheduleConfig { z: 8, nzt: 2, sb_bytes: 24 * 1024, ..cfg() };
        let k = direct_kernel(&s, &c);
        assert_eq!(k.grid_blocks, (56 / 14) as u64 * (56 / 14) as u64 * 8);
        // Halo: x' = 13*2 + 3 = 29.
        assert_eq!(halo(&s, 14, 14), (29, 29));
    }
}
