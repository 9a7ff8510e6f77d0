//! Functional CPU execution of the tiled dataflows.
//!
//! The simulator establishes the schedules' I/O behaviour; this module
//! establishes their *correctness* by actually running them: thread blocks
//! become rayon-scoped worker tasks, shared memory becomes a per-worker
//! scratch buffer with exactly the schedule's staging structure (resident
//! output tile + one `x' * y' * alpha` input stage + the stage's weights,
//! the stage depth `alpha` being `micro::STAGE_GROUP` channels), and the
//! channel-sliding loop is executed literally.
//!
//! One entry point, [`execute`], runs the dataflow of the [`TileKind`] the
//! tuner serves over one block loop: block decode, stage loads, the
//! epilogue and the single write-back are shared, and each dataflow
//! supplies only its per-worker state and its fold of one stage into the
//! block. [`execute_direct`], [`execute_winograd`] and
//! [`execute_direct_fused`] are that call with the kind and the epilogue
//! filled in.
//!
//! Each dataflow is held by `to_bits` to an oracle that knows nothing of
//! tiles. The lanes change only *which* independent per-element folds run
//! side by side, never the order of terms within one output element:
//!
//! * **direct** — oracle `iolb_tensor::conv_ref::conv2d_channel_staged`.
//!   The resident tile is kept z-minor and a register tile of 4 output
//!   pixels x 32 output *channels*, or 8 x 16/8/4/1, is held across the
//!   channels of a stage: per channel, ascending, each element's `sum`
//!   runs through the `(dy, dx)`-ascending tap fold (input tap broadcast,
//!   weights repacked z-minor once per block-channel group so a stage's
//!   weights are one contiguous slice of the pack), followed by one
//!   `acc += sum`; the tile is transposed back to `(zc, oy, ox)` for the
//!   write-back;
//! * **Winograd** — oracle `iolb_tensor::winograd_conv::conv2d_winograd`.
//!   Every array is flat `f32`, as in the oracle, with independent
//!   matrices on the lanes, and the transform coefficients are the
//!   oracle's own `f32` roundings (`TransformsF32`). Each of the three
//!   two-sided transforms is two batched products: `J = G g G^T` once
//!   per block-channel group with output channels on the lanes,
//!   `P = B^T d B` of all tiles of a stage at once (the patches gathered
//!   a stage row at a time), and `A^T Pi A` of the whole block at once.
//!   `Pi += P ∘ J` keeps a register tile of 4 Winograd tiles x 16
//!   output channels, or 8 x 8/4, across the channels of a stage, each
//!   element folding `ci` ascending with a separately rounded multiply
//!   and add: `Pi` is read and written once per stage instead of once
//!   per channel.
//!
//! What a block reads from slow memory does not depend on the stage
//! depth: every input channel's halo tile, once, and its kernels, once
//! (`direct::exact_io_elems` / `winograd::exact_io_elems`). The depth
//! sets the on-chip footprint, `STAGE_GROUP * x'y' + x*y*z` floats beside
//! the weights.
//!
//! All inner stages live in `micro.rs`, compiled once per
//! [`iolb_tensor::kernel::Isa`] tier; packing and the transposition sit
//! *outside* the staging structure above — per stage it is still one
//! input stage in, one weight stage in, one update of the resident tile.
//!
//! The epilogue (ReLU, ReLU + non-overlapping max-pool) is applied to the
//! block's *resident* output tile before the single write-back, so the
//! intermediate conv output never touches the output tensor — and the
//! result is bit-identical to composing the unfused executor with the
//! standalone [`iolb_tensor::ops`] passes, because both sides share the
//! same per-element expressions.

use crate::config::ScheduleConfig;
use crate::micro;
use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_tensor::conv_ref::ConvParams;
use iolb_tensor::ops::relu_val;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_math::TransformsF32;

/// Derives the [`ConvShape`] of an input/weight pair.
pub fn shape_of(input: &Tensor4, weights: &Tensor4, params: ConvParams) -> ConvShape {
    ConvShape {
        batch: input.n,
        cin: input.c,
        hin: input.h,
        win: input.w,
        cout: weights.n,
        kh: weights.h,
        kw: weights.w,
        stride: params.stride,
        pad: params.pad,
    }
}

/// Executes the dataflow of `kind` on the CPU — direct (§5.2) or
/// Winograd (§5.3: per block, per `e x e` tile, the two temporary
/// `(a x a)` arrays accumulate the channel sum `Pi`, inverse-transformed
/// once at the end) — with `epilogue` applied to each block's resident
/// output tile before its single write-back, so no intermediate conv
/// tensor is ever materialized.
///
/// Requires `x | H_out`, `y | W_out`, `z | C_out` (as the schedule does),
/// for Winograd unit stride and `e | x`, `e | y`. A pool epilogue writes
/// the *pooled* tensor; its window must tile the output and the block
/// (`k | H_out`, `k | x`, `k | y`) — the same alignment the fused search
/// space enforces on every configuration it offers. `workers` caps the
/// number of OS threads processing blocks.
pub fn execute(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    kind: TileKind,
    cfg: &ScheduleConfig,
    epilogue: Epilogue,
    workers: usize,
) -> Tensor4 {
    assert_eq!(input.c, weights.c, "C_in mismatch");
    let shape = shape_of(input, weights, params);
    match kind {
        TileKind::Direct => {
            let (xp, yp) = crate::direct::halo(&shape, cfg.x, cfg.y);
            let pts = micro::point_offsets(cfg.x, cfg.y, shape.stride, yp);
            run_blocks(input, &shape, cfg, epilogue, workers, || DirectFold {
                weights,
                pts: &pts,
                z: cfg.z,
                kh: shape.kh,
                kw: shape.kw,
                xp,
                yp,
                w_pack: vec![0.0f32; shape.cin * shape.kh * shape.kw * cfg.z],
                acc: vec![0.0f32; cfg.x * cfg.y * cfg.z],
            })
        }
        TileKind::Winograd(tile) => {
            assert_eq!(params.stride, 1, "winograd requires unit stride");
            assert!(shape.supports_winograd(tile), "shape incompatible with F(e,r)");
            assert_eq!(cfg.x % tile.e, 0, "x must be a multiple of e");
            assert_eq!(cfg.y % tile.e, 0, "y must be a multiple of e");
            let m = TransformsF32::generate(tile.e, tile.r);
            let (tiles_h, tiles_w) = (cfg.x / tile.e, cfg.y / tile.e);
            run_blocks(input, &shape, cfg, epilogue, workers, || WinogradFold {
                weights,
                lanes: micro::WinogradLanes::new(&m, shape.cin, cfg.z, tiles_h, tiles_w),
            })
        }
    }
}

/// [`execute`] of the direct dataflow, no epilogue.
pub fn execute_direct(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    cfg: &ScheduleConfig,
    workers: usize,
) -> Tensor4 {
    execute(input, weights, params, TileKind::Direct, cfg, Epilogue::None, workers)
}

/// [`execute`] of the Winograd dataflow with tile `tile`, no epilogue.
pub fn execute_winograd(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    tile: WinogradTile,
    cfg: &ScheduleConfig,
    workers: usize,
) -> Tensor4 {
    execute(input, weights, params, TileKind::Winograd(tile), cfg, Epilogue::None, workers)
}

/// [`execute`] of a fused direct conv→epilogue chain.
pub fn execute_direct_fused(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    cfg: &ScheduleConfig,
    workers: usize,
    epilogue: Epilogue,
) -> Tensor4 {
    execute(input, weights, params, TileKind::Direct, cfg, epilogue, workers)
}

/// What a dataflow adds to the block loop: one worker's state, which
/// folds a block's input stages into its resident sums.
trait BlockFold {
    /// Prepares the kernels of output channels `oc0..oc0 + z`.
    fn pack(&mut self, oc0: usize);
    /// Starts a block: the resident sums are zero.
    fn clear(&mut self);
    /// Folds the input stages of channels `ci0..` — one `x' x y'` tile
    /// each, by rows, at most [`micro::STAGE_GROUP`] of them — into the
    /// block.
    fn fold(&mut self, staged: &[f32], ci0: usize);
    /// Writes the block's conv output into `tile`, `(zc, oy, ox)` order.
    fn output(&mut self, tile: &mut [f32]);
}

/// The direct dataflow's worker state: the resident tile `acc`, kept
/// z-minor, and the kernels of one block-channel group repacked z-minor,
/// so that a stage's weights are one contiguous slice of the pack.
struct DirectFold<'a> {
    weights: &'a Tensor4,
    /// [`micro::point_offsets`] of the block.
    pts: &'a [usize],
    z: usize,
    kh: usize,
    kw: usize,
    xp: usize,
    yp: usize,
    w_pack: Vec<f32>,
    acc: Vec<f32>,
}

impl BlockFold for DirectFold<'_> {
    fn pack(&mut self, oc0: usize) {
        micro::pack_weights_z_minor(self.weights, oc0, self.z, &mut self.w_pack);
    }

    fn clear(&mut self) {
        self.acc.fill(0.0);
    }

    fn fold(&mut self, staged: &[f32], ci0: usize) {
        let group = staged.len() / (self.xp * self.yp);
        let taps_z = self.kh * self.kw * self.z;
        let stage = micro::DirectStage {
            stage_in: staged,
            stage_w: &self.w_pack[ci0 * taps_z..][..group * taps_z],
            pts: self.pts,
            group,
            z: self.z,
            kh: self.kh,
            kw: self.kw,
            xp: self.xp,
            yp: self.yp,
        };
        micro::fold_stage(&mut self.acc, stage);
    }

    fn output(&mut self, tile: &mut [f32]) {
        micro::transpose_tile(&self.acc, self.z, tile);
    }
}

/// The Winograd dataflow's worker state: the block's running `Pi` and
/// the transformed kernels `J` of one block-channel group.
struct WinogradFold<'a> {
    weights: &'a Tensor4,
    lanes: micro::WinogradLanes<'a>,
}

impl BlockFold for WinogradFold<'_> {
    fn pack(&mut self, oc0: usize) {
        micro::pack_winograd_kernels(&mut self.lanes, self.weights, oc0);
    }

    fn clear(&mut self) {
        self.lanes.clear();
    }

    fn fold(&mut self, staged: &[f32], ci0: usize) {
        micro::winograd_fold_group(&mut self.lanes, staged, ci0);
    }

    fn output(&mut self, tile: &mut [f32]) {
        micro::winograd_output(&mut self.lanes, tile);
    }
}

/// The block loop of both dataflows: each worker takes a fresh
/// `new_fold()` and claims blocks until none are left; per block it
/// stages the input channels [`micro::STAGE_GROUP`] at a time, has the
/// fold consume them, and writes the resident tile back through the
/// epilogue.
fn run_blocks<F: BlockFold>(
    input: &Tensor4,
    shape: &ConvShape,
    cfg: &ScheduleConfig,
    epilogue: Epilogue,
    workers: usize,
    new_fold: impl Fn() -> F + Sync,
) -> Tensor4 {
    let (hout, wout) = (shape.hout(), shape.wout());
    assert_eq!(hout % cfg.x, 0, "x must divide H_out");
    assert_eq!(wout % cfg.y, 0, "y must divide W_out");
    assert_eq!(shape.cout % cfg.z, 0, "z must divide C_out");
    assert_epilogue_alignment(epilogue, hout, wout, cfg);

    let blocks_h = hout / cfg.x;
    let blocks_w = wout / cfg.y;
    let blocks_c = shape.cout / cfg.z;
    let total_blocks = blocks_h * blocks_w * blocks_c * shape.batch;

    let (out_h, out_w) = epilogue_out_dims(epilogue, hout, wout);
    let mut out = Tensor4::zeros(shape.batch, shape.cout, out_h, out_w);
    let image_len = shape.cout * out_h * out_w;
    let (xp, yp) = crate::direct::halo(shape, cfg.x, cfg.y);

    // Partition output storage by batch image; within an image blocks are
    // disjoint, so workers claim whole block indices via an atomic cursor.
    let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = workers.max(1).min(total_blocks.max(1));

    rayon::scope(|scope| {
        for _ in 0..workers {
            let (cursor, out_ptr, new_fold) = (&cursor, &out_ptr, &new_fold);
            scope.spawn(move |_| {
                // "Shared memory" of this worker: the input stages, the
                // fold's resident sums and the kernels of block-channel
                // group `packed` (blocks come `bc`-major, so a worker
                // packs once per group it meets, not per block, and holds
                // one group, not the whole tensor), and the resident tile
                // in write-back order.
                let mut fold = new_fold();
                let mut stage_in = vec![0.0f32; micro::STAGE_GROUP * xp * yp];
                let mut tile = vec![0.0f32; cfg.x * cfg.y * cfg.z];
                let mut packed = None;
                loop {
                    let b = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if b >= total_blocks {
                        break;
                    }
                    // Decode block coordinates.
                    let n = b / (blocks_h * blocks_w * blocks_c);
                    let rem = b % (blocks_h * blocks_w * blocks_c);
                    let bc = rem / (blocks_h * blocks_w);
                    let bh = (rem / blocks_w) % blocks_h;
                    let bw = rem % blocks_w;
                    let oy0 = bh * cfg.x;
                    let ox0 = bw * cfg.y;
                    let oc0 = bc * cfg.z;
                    if packed != Some(bc) {
                        fold.pack(oc0);
                        packed = Some(bc);
                    }
                    fold.clear();
                    // Channel-sliding stages (§5.2, §5.3): the block's
                    // x' * y' input tiles of the stage's channels (halo
                    // included, zero padding at the borders), then the
                    // update of the resident sums.
                    let iy0 = (oy0 * shape.stride) as isize - shape.pad as isize;
                    let ix0 = (ox0 * shape.stride) as isize - shape.pad as isize;
                    for ci0 in (0..shape.cin).step_by(micro::STAGE_GROUP) {
                        let group = micro::STAGE_GROUP.min(shape.cin - ci0);
                        let staged = &mut stage_in[..group * xp * yp];
                        for (c, dst) in staged.chunks_exact_mut(xp * yp).enumerate() {
                            input.padded_window(n, ci0 + c, (iy0, ix0), 1, (xp, yp), dst);
                        }
                        fold.fold(staged, ci0);
                    }
                    // Epilogue on the resident tile, then the single
                    // write-back.
                    fold.output(&mut tile);
                    write_back_with_epilogue(
                        &tile, epilogue, out_ptr, image_len, out_h, out_w, n, oc0, oy0, ox0, cfg,
                    );
                }
            });
        }
    });
    out
}

/// Panics unless a pool epilogue's window tiles both the conv output and
/// the block tile — the preconditions under which pooled write-backs of
/// different blocks stay disjoint.
fn assert_epilogue_alignment(epilogue: Epilogue, hout: usize, wout: usize, cfg: &ScheduleConfig) {
    if let Epilogue::ReluPool { k } = epilogue {
        assert_eq!(hout % k, 0, "pool window must tile H_out");
        assert_eq!(wout % k, 0, "pool window must tile W_out");
        assert_eq!(cfg.x % k, 0, "pool window must tile the x tile");
        assert_eq!(cfg.y % k, 0, "pool window must tile the y tile");
    }
}

/// Output-tensor spatial extents after the epilogue.
fn epilogue_out_dims(epilogue: Epilogue, hout: usize, wout: usize) -> (usize, usize) {
    match epilogue {
        Epilogue::None | Epilogue::Relu => (hout, wout),
        Epilogue::ReluPool { k } => (hout / k, wout / k),
    }
}

/// Applies `epilogue` to one block's resident `z * x * y` conv tile and
/// performs the block's only write-back. `Epilogue::None` copies each
/// block row as it is; `Relu` maps each element
/// through [`relu_val`]; `ReluPool` folds each `k x k` window with the
/// same `f32::max`-from-`NEG_INFINITY` fold as
/// [`iolb_tensor::ops::maxpool2d`], writing only the pooled cells —
/// that shared per-element arithmetic is what makes the fused output
/// bit-identical to the unfused composition.
#[allow(clippy::too_many_arguments)]
fn write_back_with_epilogue(
    tile: &[f32],
    epilogue: Epilogue,
    out_ptr: &SendPtr,
    image_len: usize,
    out_h: usize,
    out_w: usize,
    n: usize,
    oc0: usize,
    oy0: usize,
    ox0: usize,
    cfg: &ScheduleConfig,
) {
    match epilogue {
        Epilogue::None | Epilogue::Relu => {
            let fuse_relu = matches!(epilogue, Epilogue::Relu);
            // A block row is `y` contiguous floats of the tile and of
            // the output alike.
            for (row, src) in tile.chunks_exact(cfg.y).enumerate() {
                let (zc, oy) = (row / cfg.x, row % cfg.x);
                let off = n * image_len + ((oc0 + zc) * out_h + oy0 + oy) * out_w + ox0;
                // SAFETY: the tile has `z * x` rows and `x`, `y`, `z`
                // divide the output's extents, so the row lies inside
                // the output tensor; blocks write disjoint regions, so
                // nothing else refers to these `y` floats.
                let dst = unsafe { std::slice::from_raw_parts_mut(out_ptr.0.add(off), cfg.y) };
                if fuse_relu {
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d = relu_val(v);
                    }
                } else {
                    dst.copy_from_slice(src);
                }
            }
        }
        Epilogue::ReluPool { k } => {
            // Block origin in pooled coordinates (oy0/ox0 are multiples
            // of the block tile, which `k` tiles).
            let py0 = oy0 / k;
            let px0 = ox0 / k;
            for zc in 0..cfg.z {
                for py in 0..cfg.x / k {
                    for px in 0..cfg.y / k {
                        let mut m = f32::NEG_INFINITY;
                        for dy in 0..k {
                            for dx in 0..k {
                                let oy = py * k + dy;
                                let ox = px * k + dx;
                                m = m.max(relu_val(tile[(zc * cfg.x + oy) * cfg.y + ox]));
                            }
                        }
                        let c = oc0 + zc;
                        let off = n * image_len + (c * out_h + py0 + py) * out_w + (px0 + px);
                        // SAFETY: pooled regions of distinct blocks are
                        // disjoint because `k` tiles the block.
                        unsafe {
                            *out_ptr.0.add(off) = m;
                        }
                    }
                }
            }
        }
    }
}

/// Raw pointer wrapper asserting cross-thread safety: blocks write disjoint
/// regions of the output buffer.
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_tensor::conv_ref::conv2d_channel_staged;
    use iolb_tensor::layout::Layout;
    use iolb_tensor::ops::{maxpool2d, relu};
    use iolb_tensor::winograd_conv::conv2d_winograd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(x: usize, y: usize, z: usize) -> ScheduleConfig {
        ScheduleConfig { x, y, z, nxt: 1, nyt: 1, nzt: 1, sb_bytes: 48 * 1024, layout: Layout::Chw }
    }

    fn bits(t: &Tensor4) -> Vec<u32> {
        t.as_slice().iter().map(|f| f.to_bits()).collect()
    }

    /// A conv output followed by the standalone `iolb_tensor::ops`
    /// passes: what a fused executor must equal bit for bit.
    fn with_epilogue(conv: Tensor4, epilogue: Epilogue) -> Tensor4 {
        match epilogue {
            Epilogue::None => conv,
            Epilogue::Relu => relu(&conv),
            Epilogue::ReluPool { k } => maxpool2d(&relu(&conv), k),
        }
    }

    /// Holds the direct executor to its oracle, `conv2d_channel_staged`,
    /// by `to_bits`.
    fn assert_direct_is_oracle(
        input: &Tensor4,
        weights: &Tensor4,
        params: ConvParams,
        c: &ScheduleConfig,
        what: &str,
    ) {
        let got = execute_direct(input, weights, params, c, 3);
        let want = conv2d_channel_staged(input, weights, params);
        assert_eq!(bits(&got), bits(&want), "{what}");
    }

    /// Holds the Winograd executor to its oracle, `conv2d_winograd`, by
    /// `to_bits`.
    fn assert_winograd_is_oracle(
        input: &Tensor4,
        weights: &Tensor4,
        params: ConvParams,
        tile: WinogradTile,
        c: &ScheduleConfig,
        what: &str,
    ) {
        let got = execute_winograd(input, weights, params, tile, c, 3);
        let want = conv2d_winograd(input, weights, params, tile.e);
        assert_eq!(bits(&got), bits(&want), "{tile:?} {what}");
    }

    #[test]
    fn direct_exec_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor4::random(1, 4, 10, 10, &mut rng);
        let weights = Tensor4::random(8, 4, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        for (x, y, z) in [(8, 8, 8), (4, 4, 2), (2, 8, 4), (1, 1, 1)] {
            let what = format!("tile {x}x{y}x{z}");
            assert_direct_is_oracle(&input, &weights, params, &cfg(x, y, z), &what);
        }
    }

    #[test]
    fn direct_exec_with_padding_and_stride() {
        let mut rng = StdRng::seed_from_u64(2);
        let input = Tensor4::random(2, 3, 9, 9, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(2, 1); // 5x5 out
        assert_direct_is_oracle(&input, &weights, params, &cfg(5, 5, 2), "stride 2, pad 1");
    }

    #[test]
    fn direct_exec_single_worker_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let input = Tensor4::random(1, 2, 8, 8, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1);
        let a = execute_direct(&input, &weights, params, &cfg(4, 4, 2), 1);
        let b = execute_direct(&input, &weights, params, &cfg(4, 4, 2), 8);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn direct_exec_across_stages_and_lane_chunks_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        // 19 channels: two full stages and a ragged one of 3. z = 36: a
        // 32-lane step and a 4-lane one.
        let input = Tensor4::random(2, 19, 9, 9, &mut rng);
        let weights = Tensor4::random(72, 19, 3, 3, &mut rng);
        // Unit stride with padding (27 points: tails of 3), and stride 2
        // (25 points: tails of 1).
        for (params, x, y) in [(ConvParams::new(1, 1), 3, 9), (ConvParams::new(2, 1), 5, 5)] {
            let what = format!("stride {}", params.stride);
            assert_direct_is_oracle(&input, &weights, params, &cfg(x, y, 36), &what);
        }
    }

    /// ResNet-18 `layer4.rest` on the config the tuner serves for it: a
    /// `7 x 1` tile, so the lanes must come from `z`, not from `y`.
    #[test]
    fn direct_exec_single_column_tile_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(14);
        let input = Tensor4::random(1, 512, 7, 7, &mut rng);
        let weights = Tensor4::random(512, 512, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1); // 7x7 out
        assert_direct_is_oracle(&input, &weights, params, &cfg(7, 1, 32), "x7 y1 z32");
    }

    #[test]
    fn winograd_exec_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(4);
        let input = Tensor4::random(1, 3, 10, 10, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        for (tile, x, y, z) in [
            (WinogradTile::F2X3, 8, 8, 4),
            (WinogradTile::F2X3, 4, 4, 2),
            (WinogradTile::F2X3, 2, 2, 1),
            (WinogradTile::F4X3, 8, 8, 4),
        ] {
            let what = format!("tile {x}x{y}x{z}");
            assert_winograd_is_oracle(&input, &weights, params, tile, &cfg(x, y, z), &what);
        }
    }

    #[test]
    fn winograd_exec_with_padding() {
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor4::random(2, 2, 8, 8, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1); // 8x8 out
        let c = cfg(4, 8, 2);
        assert_winograd_is_oracle(&input, &weights, params, WinogradTile::F2X3, &c, "pad 1");
    }

    #[test]
    fn winograd_f4x3_exec() {
        let mut rng = StdRng::seed_from_u64(6);
        let input = Tensor4::random(1, 2, 10, 10, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        let c = cfg(8, 8, 2);
        assert_winograd_is_oracle(&input, &weights, params, WinogradTile::F4X3, &c, "F(4,3)");
    }

    /// The three tiles the tuner serves ResNet-18's Winograd layers
    /// (`layer1`, `layer2`, `layer3`), `cout` cut to two block-channel
    /// groups: 28 and 49 tiles per block, `z` of 16 and 8, 8 to 32
    /// stages per block.
    #[test]
    fn winograd_exec_served_tiles_match_oracle() {
        let mut rng = StdRng::seed_from_u64(15);
        for (cin, hw, x, y, z) in [(64, 56, 8, 14, 16), (128, 28, 4, 28, 16), (256, 14, 14, 14, 8)]
        {
            let input = Tensor4::random(1, cin, hw, hw, &mut rng);
            let weights = Tensor4::random(2 * z, cin, 3, 3, &mut rng);
            let params = ConvParams::new(1, 1);
            let what = format!("x{x} y{y} z{z} on {cin}x{hw}x{hw}");
            let c = cfg(x, y, z);
            assert_winograd_is_oracle(&input, &weights, params, WinogradTile::F2X3, &c, &what);
        }
    }

    /// The executor's half of the numeric contract's price: on deep
    /// channel sums its worst error stays within `tol * max|ref|` of the
    /// direct reference — `1e-5` for F(2,3), `5e-5` for F(4,3) (see
    /// `conv2d_winograd`'s envelope test for why F(4,3) is looser).
    #[test]
    fn winograd_error_stays_inside_its_envelope() {
        use iolb_tensor::conv_ref::conv2d_reference;
        for (tile, tol) in [(WinogradTile::F2X3, 1e-5), (WinogradTile::F4X3, 5e-5)] {
            for cin in [64, 256, 512] {
                let mut rng = StdRng::seed_from_u64(cin as u64 + tile.e as u64);
                let input = Tensor4::random(1, cin, 8, 8, &mut rng);
                let weights = Tensor4::random(4, cin, 3, 3, &mut rng);
                let params = ConvParams::new(1, 1);
                let want = conv2d_reference(&input, &weights, params);
                let got = execute_winograd(&input, &weights, params, tile, &cfg(8, 8, 4), 2);
                let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let err = got.max_abs_diff(&want) / scale;
                assert!(err <= tol, "{tile:?} C_in={cin}: error {err:e} of max|ref| > {tol:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "x must divide")]
    fn rejects_non_dividing_tile() {
        let input = Tensor4::zeros(1, 1, 8, 8);
        let weights = Tensor4::zeros(1, 1, 3, 3);
        let _ = execute_direct(&input, &weights, ConvParams::new(1, 0), &cfg(4, 3, 1), 1);
    }

    /// 2 input channels against 3-channel kernels: refused up front, not
    /// convolved over the first 2 kernel channels, nor failed inside a
    /// pool worker on a pack size.
    fn mismatched_channels(kind: TileKind) {
        let input = Tensor4::zeros(1, 2, 8, 8);
        let weights = Tensor4::zeros(4, 3, 3, 3);
        let params = ConvParams::new(1, 1);
        let _ = execute(&input, &weights, params, kind, &cfg(4, 8, 2), Epilogue::None, 1);
    }

    #[test]
    #[should_panic(expected = "C_in mismatch")]
    fn direct_rejects_c_in_mismatch() {
        mismatched_channels(TileKind::Direct);
    }

    #[test]
    #[should_panic(expected = "C_in mismatch")]
    fn winograd_rejects_c_in_mismatch() {
        mismatched_channels(TileKind::Winograd(WinogradTile::F2X3));
    }

    #[test]
    fn fused_direct_bit_identical_to_unfused_composition() {
        let mut rng = StdRng::seed_from_u64(9);
        let input = Tensor4::random(2, 3, 10, 10, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1); // 10x10 out
        let c = cfg(5, 10, 2);
        let conv = conv2d_channel_staged(&input, &weights, params);
        for epilogue in [Epilogue::Relu, Epilogue::ReluPool { k: 5 }] {
            let want = with_epilogue(conv.clone(), epilogue);
            for workers in [1, 4] {
                let got = execute_direct_fused(&input, &weights, params, &c, workers, epilogue);
                assert_eq!(bits(&got), bits(&want), "{epilogue} w={workers}");
            }
        }
    }

    #[test]
    fn fused_winograd_bit_identical_to_unfused_composition() {
        let mut rng = StdRng::seed_from_u64(10);
        let input = Tensor4::random(1, 3, 10, 10, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        for (tile, x, y, z) in [(WinogradTile::F2X3, 4, 8, 2), (WinogradTile::F4X3, 8, 8, 4)] {
            let c = cfg(x, y, z);
            let conv = conv2d_winograd(&input, &weights, params, tile.e);
            for epilogue in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
                let want = with_epilogue(conv.clone(), epilogue);
                for workers in [1, 4] {
                    let kind = TileKind::Winograd(tile);
                    let got = execute(&input, &weights, params, kind, &c, epilogue, workers);
                    assert_eq!(bits(&got), bits(&want), "{tile:?} {epilogue} w={workers}");
                }
            }
        }
    }

    #[test]
    fn fused_pool_output_is_pooled_shape() {
        let mut rng = StdRng::seed_from_u64(12);
        let input = Tensor4::random(1, 2, 10, 10, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1); // 10x10 out
        let got = execute_direct_fused(
            &input,
            &weights,
            params,
            &cfg(10, 10, 2),
            2,
            Epilogue::ReluPool { k: 2 },
        );
        assert_eq!((got.h, got.w), (5, 5));
        assert!(got.as_slice().iter().all(|&v| v >= 0.0), "relu precedes the pool");
    }

    #[test]
    #[should_panic(expected = "pool window must tile the x tile")]
    fn fused_pool_rejects_misaligned_block() {
        let input = Tensor4::zeros(1, 1, 10, 10);
        let weights = Tensor4::zeros(1, 1, 3, 3);
        // 10x10 out, x=5 but k=2 does not tile the 5-row block.
        let _ = execute_direct_fused(
            &input,
            &weights,
            ConvParams::new(1, 1),
            &cfg(5, 10, 1),
            1,
            Epilogue::ReluPool { k: 2 },
        );
    }

    /// FNV-1a over every output's `to_bits`.
    fn fnv1a(t: &Tensor4) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }

    /// Golden bits: both executors on ResNet-18-class shapes, each on a
    /// cut-down tile of the class the tuner serves it (channel counts and
    /// extents cut so the debug suite stays quick), hash to exactly these
    /// values. The direct constants were generated at the commit before
    /// the scalar arms left the executors; the Winograd ones when its
    /// contract moved from `f64` to `f32`, by both Winograd
    /// implementations alike. Neither the executors nor their oracles can
    /// drift unseen.
    #[test]
    fn executor_outputs_on_resnet_class_shapes_are_pinned() {
        const NONE: Epilogue = Epilogue::None;
        const RELU: Epilogue = Epilogue::Relu;
        const fn pool(k: usize) -> Epilogue {
            Epilogue::ReluPool { k }
        }
        type Conv = (usize, usize, usize, usize, usize, usize, usize);
        type Tile = (usize, usize, usize);
        // (C_in, C_out, H, W, kernel, stride, pad), (x, y, z), epilogue, golden
        const DIRECT: [(Conv, Tile, Epilogue, u64); 14] = [
            // conv1: 7x7/s2/p3
            ((3, 8, 32, 32, 7, 2, 3), (16, 8, 4), NONE, 0xd01a49bf6311885d),
            ((3, 8, 32, 32, 7, 2, 3), (16, 8, 4), RELU, 0xfc7a0657f82da114),
            ((3, 8, 32, 32, 7, 2, 3), (16, 8, 4), pool(2), 0x8992db3f9dfcdaca),
            // layer1-3: 3x3/s1/p1
            ((12, 32, 14, 14, 3, 1, 1), (14, 14, 16), NONE, 0x181842c7887c32f6),
            ((12, 32, 14, 14, 3, 1, 1), (14, 14, 16), RELU, 0x2b0e5d28c48a6200),
            ((12, 32, 14, 14, 3, 1, 1), (14, 14, 16), pool(2), 0x5c4bd85adbb9cb97),
            // downsample: 1x1/s2
            ((16, 64, 16, 16, 1, 2, 0), (2, 8, 64), NONE, 0xc3882f37a9fd61f9),
            ((16, 64, 16, 16, 1, 2, 0), (2, 8, 64), RELU, 0xa5a841e9d6b4645a),
            ((16, 64, 16, 16, 1, 2, 0), (2, 8, 64), pool(2), 0x5620f57f5ded81b1),
            // layer4.0.conv1: 3x3/s2/p1
            ((16, 16, 14, 14, 3, 2, 1), (7, 7, 8), NONE, 0xee37ba7caae6875b),
            ((16, 16, 14, 14, 3, 2, 1), (7, 7, 8), RELU, 0x0107fee8bf041699),
            ((16, 16, 14, 14, 3, 2, 1), (7, 7, 8), pool(7), 0xd06798a715a22cc7),
            // layer4.rest: 3x3/s1/p1 on a 7 x 1 tile, which no pool tiles
            ((32, 32, 7, 7, 3, 1, 1), (7, 1, 32), NONE, 0x6f31e5692901b9a3),
            ((32, 32, 7, 7, 3, 1, 1), (7, 1, 32), RELU, 0x8f0dd9bd0bf07889),
        ];
        // (tile, C_in, C_out, H, W), (x, y, z), golden; 3x3/s1/p1
        const WINOGRAD: [(WinogradTile, usize, usize, usize, usize, Tile, u64); 4] = [
            (WinogradTile::F2X3, 16, 32, 16, 28, (8, 14, 16), 0x8b7c2851dd4ba60d), // layer1
            (WinogradTile::F2X3, 12, 16, 8, 28, (4, 28, 16), 0xbdf4b0ed8e5724ad),  // layer2
            (WinogradTile::F2X3, 20, 16, 14, 14, (14, 14, 8), 0xe440191b448d4aa8), // layer3
            (WinogradTile::F4X3, 9, 8, 16, 16, (8, 8, 4), 0x1feae64df114d4a5),
        ];
        // Every row draws its tensors from the same seed.
        let seed = || StdRng::seed_from_u64(0x1_2C1C);
        let mut got = Vec::new();
        for ((cin, cout, h, w, k, stride, pad), (x, y, z), epilogue, _) in DIRECT {
            let mut rng = seed();
            let input = Tensor4::random(2, cin, h, w, &mut rng);
            let weights = Tensor4::random(cout, cin, k, k, &mut rng);
            let (params, c) = (ConvParams::new(stride, pad), cfg(x, y, z));
            got.push(fnv1a(&match epilogue {
                Epilogue::None => execute_direct(&input, &weights, params, &c, 2),
                _ => execute_direct_fused(&input, &weights, params, &c, 2, epilogue),
            }));
        }
        for (tile, cin, cout, h, w, (x, y, z), _) in WINOGRAD {
            let mut rng = seed();
            let input = Tensor4::random(2, cin, h, w, &mut rng);
            let weights = Tensor4::random(cout, cin, 3, 3, &mut rng);
            let params = ConvParams::new(1, 1);
            got.push(fnv1a(&execute_winograd(&input, &weights, params, tile, &cfg(x, y, z), 2)));
        }
        let want: Vec<u64> =
            DIRECT.iter().map(|row| row.3).chain(WINOGRAD.iter().map(|row| row.6)).collect();
        assert_eq!(got, want, "{got:#018x?}");
    }
}
