//! Lowering of the paper's **Winograd dataflow** (§5.3, Fig. 7) to a
//! simulator kernel.
//!
//! One thread block owns an `x * y * z` output sub-block, subdivided into
//! `(x/e) * (y/e)` Winograd tiles per output channel. Two
//! `(e+r-1) x (e+r-1)` temporary arrays per in-flight tile hold the running
//! channel sum `Pi` and the stage's fresh partial product (the data whose
//! reuse `phi_3` says dominates the bound). The block slides along the
//! channel dimension: each stage loads one `(x+r-1) x (y+r-1)` input tile
//! at a single channel plus the stage's `z * r^2` weights, transforms
//! in-registers, multiplies and accumulates into the temporaries. Inputs
//! and weights are read once per sub-block; outputs written once.

use crate::config::ScheduleConfig;
use crate::direct::{bank_conflict_factor, input_tile_access};
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_core::winograd as core_wino;
use iolb_gpusim::{BlockShape, BlockWork, KernelDesc, TileAccess};

/// Builds the simulator kernel for the Winograd dataflow under `cfg`.
///
/// Requires unit stride, kernel edge `tile.r`, and `x`/`y` divisible by
/// `tile.e` (whole Winograd tiles per block).
pub fn winograd_kernel(shape: &ConvShape, tile: WinogradTile, cfg: &ScheduleConfig) -> KernelDesc {
    assert!(shape.supports_winograd(tile), "shape incompatible with F(e,r)");
    // Tiles divide the e-padded output extent; ragged edges run as full
    // (padded) tiles, exactly like practical Winograd kernels.
    let (hout, wout) =
        iolb_core::optimality::padded_out(shape, iolb_core::optimality::TileKind::Winograd(tile));
    assert_eq!(hout % cfg.x, 0, "x must divide padded H_out");
    assert_eq!(wout % cfg.y, 0, "y must divide padded W_out");
    assert_eq!(shape.cout % cfg.z, 0, "z must divide C_out");
    assert_eq!(cfg.x % tile.e, 0, "x must be a multiple of e");
    assert_eq!(cfg.y % tile.e, 0, "y must be a multiple of e");

    let grid_blocks = (hout / cfg.x) as u64
        * (wout / cfg.y) as u64
        * (shape.cout / cfg.z) as u64
        * shape.batch as u64;

    let a = tile.a();
    let tiles = (cfg.x / tile.e) * (cfg.y / tile.e);
    // Arithmetic per block. The transform matrices have 0/±1/±2/±1/2
    // entries, so practical kernels implement B^T d B and A^T Pi A with a
    // few additions per produced element (~4 ops per element of the a x a
    // result), not dense matmuls — this is where Winograd's arithmetic win
    // comes from.
    //  * input transform, once per (tile, channel),
    let t_in = tiles * shape.cin * 4 * a * a;
    //  * kernel transform, once per (z, channel),
    let t_ker = cfg.z * shape.cin * 4 * a * a;
    //  * elementwise multiply-accumulate per (tile, z, channel) — the a^2
    //    true multiplications per e^2 outputs,
    let t_mul = tiles * cfg.z * shape.cin * 2 * a * a;
    //  * output transform per (tile, z).
    let t_out = tiles * cfg.z * 4 * a * a;
    let flops = (t_in + t_ker + t_mul + t_out) as u64;

    let mut work = BlockWork::new(flops).with_bank_conflicts(bank_conflict_factor(cfg.layout));
    // Channel stages (mu = 1 halo: x' = x + r - 1).
    let xp = cfg.x + tile.r - 1;
    let yp = cfg.y + tile.r - 1;
    let input_access = input_tile_access(shape, cfg.layout, xp, yp);
    // Weights pre-packed stage-contiguously ([cin][z][r^2]); see the same
    // note in `direct_kernel`.
    let weight_access = TileAccess::contiguous((cfg.z * tile.r * tile.r) as u64);
    for _ in 0..shape.cin {
        work = work.read(input_access).read(weight_access);
    }
    work =
        work.write(TileAccess::tile((cfg.x * cfg.z) as u64, cfg.y as u64, wout.max(cfg.y) as u64));

    KernelDesc {
        name: format!(
            "winograd-dataflow[F({0}x{0},{1}x{1}) {2}x{3}x{4}]",
            tile.e, tile.r, cfg.x, cfg.y, cfg.z
        ),
        grid_blocks,
        block: BlockShape { threads: cfg.threads(), smem_bytes: cfg.sb_bytes },
        work,
    }
}

/// Analytic I/O (elements) of this configuration per Eq. 22 + output
/// stores.
pub fn analytic_io_elems(shape: &ConvShape, tile: WinogradTile, cfg: &ScheduleConfig) -> f64 {
    core_wino::dataflow_total_io(shape, tile, cfg.x as f64, cfg.y as f64, cfg.z as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScheduleConfig;
    use iolb_gpusim::{simulate, DeviceSpec};
    use iolb_tensor::layout::Layout;

    fn shape() -> ConvShape {
        ConvShape::square(256, 56, 128, 3, 1, 1)
    }

    /// Exact useful-element I/O of the lowered kernel: per block
    /// `cin * ((x+r-1)(y+r-1) + r^2 z)` reads plus `xyz` writes.
    fn exact_io_elems(shape: &ConvShape, tile: WinogradTile, cfg: &ScheduleConfig) -> u64 {
        let (hout, wout) = iolb_core::optimality::padded_out(
            shape,
            iolb_core::optimality::TileKind::Winograd(tile),
        );
        let blocks = (hout / cfg.x) as u64
            * (wout / cfg.y) as u64
            * (shape.cout / cfg.z) as u64
            * shape.batch as u64;
        let xp = (cfg.x + tile.r - 1) as u64;
        let yp = (cfg.y + tile.r - 1) as u64;
        let per_block_reads = shape.cin as u64 * (xp * yp + (tile.r * tile.r * cfg.z) as u64);
        blocks * (per_block_reads + (cfg.x * cfg.y * cfg.z) as u64)
    }

    fn cfg() -> ScheduleConfig {
        ScheduleConfig {
            x: 8,
            y: 8,
            z: 8,
            nxt: 4,
            nyt: 4,
            nzt: 4,
            sb_bytes: 24 * 1024,
            layout: Layout::Chw,
        }
    }

    const TILE: WinogradTile = WinogradTile::F2X3;

    #[test]
    fn grid_covers_all_outputs() {
        let k = winograd_kernel(&shape(), TILE, &cfg());
        assert_eq!(k.grid_blocks, 7 * 7 * 16);
    }

    #[test]
    fn measured_io_matches_exact_formula() {
        let s = shape();
        let c = cfg();
        let k = winograd_kernel(&s, TILE, &c);
        let stats = simulate(&DeviceSpec::v100(), &k).unwrap();
        assert_eq!(stats.q_elems(), exact_io_elems(&s, TILE, &c));
    }

    #[test]
    fn exact_io_close_to_eq22_model() {
        let s = shape();
        let c = cfg();
        let exact = exact_io_elems(&s, TILE, &c) as f64;
        let model = analytic_io_elems(&s, TILE, &c);
        assert!(exact >= model);
        // Halo factor (10/8)^2 ~ 1.56 on the input term only.
        assert!(exact <= 1.7 * model, "exact {exact} model {model}");
    }

    #[test]
    fn io_above_lower_bound() {
        let s = shape();
        let c = cfg();
        let q = exact_io_elems(&s, TILE, &c) as f64;
        let lb = core_wino::io_lower_bound(&s, TILE, c.sb_elems());
        assert!(q >= lb, "measured {q} below bound {lb}");
    }

    #[test]
    fn winograd_flops_below_direct_flops() {
        let s = shape();
        let c = cfg();
        let wk = winograd_kernel(&s, TILE, &c);
        let dk = crate::direct::direct_kernel(&s, &c);
        let w_total = wk.work.flops * wk.grid_blocks;
        let d_total = dk.work.flops * dk.grid_blocks;
        assert!(w_total < d_total, "winograd {w_total} flops not below direct {d_total}");
    }

    #[test]
    fn f4x3_moves_less_io_than_f2x3_at_same_tile() {
        // Same x,y,z: reads identical, but the larger e means x/e fewer
        // tiles... I/O identical actually; the win shows in flops.
        let s = shape();
        let c = cfg();
        let f2 = winograd_kernel(&s, WinogradTile::F2X3, &c);
        let f4 = winograd_kernel(&s, WinogradTile::F4X3, &c);
        assert!(f4.work.flops < f2.work.flops);
    }

    #[test]
    #[should_panic(expected = "multiple of e")]
    fn rejects_tile_not_multiple_of_e() {
        let s = shape();
        let c = ScheduleConfig { x: 7, nxt: 7, y: 8, ..cfg() };
        let _ = winograd_kernel(&s, WinogradTile::F4X3, &c);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn rejects_strided_shape() {
        let s = ConvShape::square(64, 56, 64, 3, 2, 1);
        let _ = winograd_kernel(&s, TILE, &cfg());
    }
}
