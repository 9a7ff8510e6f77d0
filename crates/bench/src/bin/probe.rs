//! Ad-hoc diagnostic: per-kernel timing breakdown for one Fig. 9 cell.

use iolb_autotune::plan::fast_config;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_dataflow::baselines;
use iolb_dataflow::direct_kernel;
use iolb_gpusim::{simulate, DeviceSpec};

fn main() {
    let device = DeviceSpec::gtx1080ti();
    for hw in [56usize, 196] {
        let shape = ConvShape::square(256, hw, 128, 3, 1, 1);
        println!("== {shape}");
        let cfg = fast_config(&shape, TileKind::Direct, &device).unwrap();
        println!("  ours cfg: {cfg}");
        let k = direct_kernel(&shape, &cfg);
        let s = simulate(&device, &k).unwrap();
        println!(
            "  ours: {:.4} ms, {:.0} GF, mem_bound={}, waves={}, blocks/sm={}, grid={}, moved={} MiB",
            s.time_ms,
            s.gflops,
            s.memory_bound,
            s.waves,
            s.blocks_per_sm,
            k.grid_blocks,
            s.moved_bytes / (1 << 20)
        );
        for kd in baselines::im2col_gemm(&shape) {
            let s = simulate(&device, &kd).unwrap();
            println!(
                "  {}: {:.4} ms, {:.0} GF, mem_bound={}, waves={}, blocks/sm={}, grid={}, moved={} MiB",
                s.name,
                s.time_ms,
                s.gflops,
                s.memory_bound,
                s.waves,
                s.blocks_per_sm,
                kd.grid_blocks,
                s.moved_bytes / (1 << 20)
            );
        }
    }

    // Winograd breakdown at 112.
    use iolb_core::shapes::WinogradTile;
    use iolb_dataflow::winograd_kernel;
    let shape = ConvShape::square(256, 112, 128, 3, 1, 1);
    println!("== winograd {shape}");
    for tile in [WinogradTile::F2X3, WinogradTile::F4X3] {
        let kind = TileKind::Winograd(tile);
        let Some(cfg) = fast_config(&shape, kind, &device) else {
            println!("  F({0},{1}): no config", tile.e, tile.r);
            continue;
        };
        let k = winograd_kernel(&shape, tile, &cfg);
        let s = simulate(&device, &k).unwrap();
        println!(
            "  ours F({},{}) cfg {}: {:.4} ms, {:.0} GF, mem_bound={}, blocks/sm={}, moved={} MiB, flops/blk={}",
            tile.e, tile.r, cfg, s.time_ms, s.gflops, s.memory_bound, s.blocks_per_sm,
            s.moved_bytes / (1 << 20), k.work.flops
        );
    }
    for kd in baselines::winograd_unfused(&shape, WinogradTile::F2X3) {
        let s = simulate(&device, &kd).unwrap();
        println!(
            "  {}: {:.4} ms, {:.0} GF, mem_bound={}, blocks/sm={}, moved={} MiB",
            s.name,
            s.time_ms,
            s.gflops,
            s.memory_bound,
            s.blocks_per_sm,
            s.moved_bytes / (1 << 20)
        );
    }
}
