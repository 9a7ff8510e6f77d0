//! Functional CPU execution of the tiled dataflows.
//!
//! The simulator establishes the schedules' I/O behaviour; this module
//! establishes their *correctness* by actually running them: thread blocks
//! become rayon-scoped worker tasks, shared memory becomes a per-block
//! scratch buffer with exactly the schedule's staging structure (resident
//! output tile + one `x' * y' * alpha` input stage + the stage's weights;
//! the stage depth `alpha` is 1 channel on the scalar arms and
//! `micro::STAGE_GROUP` on the vector arms), and the channel-sliding loop
//! is executed literally. Every path is verified against
//! `iolb_tensor::conv_ref`.
//!
//! Both executors run the vector arm; the scalar arm is the oracle the
//! `*_with_path` entry points expose to tests (see [`KernelPath`]). The
//! vector variants change only *which* independent per-element folds run
//! side by side, never the order of terms within one output element, so
//! the two paths are bit-identical, like the rest of the compute
//! substrate:
//!
//! * **direct** — the resident tile is kept z-minor and a register tile
//!   of 4 output pixels x 32 output *channels*, or 8 x 16/8/4/1, is
//!   held across the channels of a stage: per channel, ascending, each
//!   element's `sum` runs through the `(dy, dx)`-ascending tap fold
//!   (input tap broadcast, weights repacked z-minor once per
//!   block-channel group so a stage's weights are one contiguous slice
//!   of the pack), followed by the one `acc += sum` the scalar path
//!   does; the tile is transposed back to `(zc, oy, ox)` for the
//!   write-back;
//! * **Winograd** — every array is flat `f64` with independent matrices
//!   on the lanes, so each of the three two-sided transforms is two
//!   batched products: `J = G g G^T` once per block-channel group (the
//!   scalar arm recomputes those bits per tile) with output channels on
//!   the lanes, `P = B^T d B` of all tiles of a stage at once, and
//!   `A^T Pi A` of the whole block at once. `Pi += P ∘ J` keeps a
//!   register tile of 4 Winograd tiles x 16/8/4/1 output channels
//!   across the channels of a stage, each element folding `ci`
//!   ascending: `Pi` is read and written once per stage instead of once
//!   per channel.
//!
//! What a block reads from slow memory does not change with the stage
//! depth: every input channel's halo tile, once, and its kernels, once
//! (`direct::exact_io_elems` / `winograd::exact_io_elems` count the
//! scalar and the vector arm alike). What grows is the on-chip footprint, from `x'y' + x*y*z` to
//! `STAGE_GROUP * x'y' + x*y*z` floats beside the weights.
//!
//! All inner stages live in `micro.rs`, compiled once per
//! [`iolb_tensor::kernel::Isa`] tier; packing and the transposition sit
//! *outside* the staging structure above — per stage it is still one
//! input stage in, one weight stage in, one update of the resident tile.
//!
//! Fused conv→epilogue chains run through [`execute_direct_fused`] /
//! [`execute_winograd_fused`]: the epilogue (ReLU, ReLU + non-overlapping
//! max-pool) is applied to the block's *resident* output tile before the
//! single write-back, so the intermediate conv output never touches the
//! output tensor — and the result is bit-identical to composing the
//! unfused executor with the standalone [`iolb_tensor::ops`] passes,
//! because both sides share the same per-element expressions.

use crate::config::ScheduleConfig;
use crate::micro;
use iolb_core::epilogue::Epilogue;
use iolb_core::shapes::{ConvShape, WinogradTile};
use iolb_tensor::conv_ref::ConvParams;
use iolb_tensor::kernel::KernelPath;
use iolb_tensor::ops::relu_val;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_math::Mat;

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

/// Executes the direct dataflow of §5.2 on the CPU.
///
/// Requires `x | H_out`, `y | W_out`, `z | C_out` (as the schedule does).
/// `workers` caps the number of OS threads processing blocks.
pub fn execute_direct(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    cfg: &ScheduleConfig,
    workers: usize,
) -> Tensor4 {
    execute_direct_with_path(input, weights, params, cfg, workers, KernelPath::Vector)
}

/// [`execute_direct`] with an explicit kernel path (tests diff the two).
pub fn execute_direct_with_path(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    cfg: &ScheduleConfig,
    workers: usize,
    path: KernelPath,
) -> Tensor4 {
    execute_direct_impl(input, weights, params, cfg, workers, path, Epilogue::None)
}

/// Executes a fused direct conv→epilogue chain: the epilogue is applied
/// to each block's resident output tile before its single write-back,
/// so no intermediate conv tensor is ever materialized. A pool epilogue
/// writes the *pooled* tensor; its window must tile the output and the
/// block (`k | H_out`, `k | x`, `k | y`) — the same alignment the fused
/// search space enforces on every configuration it offers.
pub fn execute_direct_fused(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    cfg: &ScheduleConfig,
    workers: usize,
    epilogue: Epilogue,
) -> Tensor4 {
    execute_direct_impl(input, weights, params, cfg, workers, KernelPath::Vector, epilogue)
}

/// [`execute_direct_fused`] with an explicit kernel path.
pub fn execute_direct_fused_with_path(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    cfg: &ScheduleConfig,
    workers: usize,
    path: KernelPath,
    epilogue: Epilogue,
) -> Tensor4 {
    execute_direct_impl(input, weights, params, cfg, workers, path, epilogue)
}

#[allow(clippy::too_many_arguments)]
fn execute_direct_impl(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    cfg: &ScheduleConfig,
    workers: usize,
    path: KernelPath,
    epilogue: Epilogue,
) -> Tensor4 {
    let shape = shape_of(input, weights, params);
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
    let (xp, yp) = crate::direct::halo(&shape, cfg.x, cfg.y);

    // Partition output storage by batch image; within an image blocks are
    // disjoint, so workers claim whole block indices via an atomic cursor.
    let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = workers.max(1).min(total_blocks.max(1));

    let pts = micro::point_offsets(cfg.x, cfg.y, shape.stride, yp);
    let taps = shape.kh * shape.kw;
    // Input channels per stage (the paper's stage depth `alpha`).
    let depth = match path {
        KernelPath::Scalar => 1,
        KernelPath::Vector => micro::STAGE_GROUP,
    };

    rayon::scope(|scope| {
        for _ in 0..workers {
            let cursor = &cursor;
            let shape = &shape;
            let out_ptr = &out_ptr;
            let pts = &pts;
            scope.spawn(move |_| {
                // "Shared memory" of this worker: resident output tile +
                // `depth` input stages + the stage's weights — on the
                // scalar path a buffer of its own, on the vector path a
                // slice of the kernels of block-channel group `packed`,
                // repacked z-minor: blocks come `bc`-major, so a worker
                // repacks once per group it meets, not per block, and
                // holds one group, not the whole tensor. And the
                // resident tile in write-back order (vector path only:
                // untouched, so never resident, on the scalar path).
                let mut acc = vec![0.0f32; cfg.x * cfg.y * cfg.z];
                let mut stage_in = vec![0.0f32; depth * xp * yp];
                let scalar_w = if path == KernelPath::Scalar { taps * cfg.z } else { 0 };
                let mut stage_w = vec![0.0f32; scalar_w];
                let mut w_pack = vec![0.0f32; shape.cin * taps * cfg.z];
                let mut packed = None;
                let mut tile = vec![0.0f32; acc.len()];
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
                    // Stage-loads the block's x' * y' input tile at
                    // channel `ci` (halo included, zero padding at the
                    // borders).
                    let stage = |ci: usize, dst: &mut [f32]| {
                        let iy0 = (oy0 * shape.stride) as isize - shape.pad as isize;
                        let ix0 = (ox0 * shape.stride) as isize - shape.pad as isize;
                        input.padded_window(n, ci, (iy0, ix0), 1, (xp, yp), dst)
                    };

                    acc.fill(0.0);
                    // Channel-sliding stages (§5.2): the input tiles and
                    // the z kernel slices of the stage's channels, then
                    // the partial-sum update of the resident tile.
                    match path {
                        KernelPath::Scalar => {
                            for ci in 0..shape.cin {
                                stage(ci, &mut stage_in);
                                micro::stage_kernels(weights, oc0, ci, cfg.z, &mut stage_w);
                                for zc in 0..cfg.z {
                                    for oy in 0..cfg.x {
                                        for ox in 0..cfg.y {
                                            let mut sum = 0.0f32;
                                            for dy in 0..shape.kh {
                                                let row = (oy * shape.stride + dy) * yp
                                                    + ox * shape.stride;
                                                let wrow = (zc * shape.kh + dy) * shape.kw;
                                                for dx in 0..shape.kw {
                                                    sum += stage_in[row + dx] * stage_w[wrow + dx];
                                                }
                                            }
                                            acc[(zc * cfg.x + oy) * cfg.y + ox] += sum;
                                        }
                                    }
                                }
                            }
                        }
                        // Same folds, output channels on the lanes and
                        // `depth` channels to a stage: the tile is kept
                        // z-minor and the weight stage is one contiguous
                        // slice of the pack.
                        KernelPath::Vector => {
                            if packed != Some(bc) {
                                micro::pack_weights_z_minor(weights, oc0, cfg.z, &mut w_pack);
                                packed = Some(bc);
                            }
                            for ci0 in (0..shape.cin).step_by(depth) {
                                let group = depth.min(shape.cin - ci0);
                                let staged = &mut stage_in[..group * xp * yp];
                                for (c, dst) in staged.chunks_exact_mut(xp * yp).enumerate() {
                                    stage(ci0 + c, dst);
                                }
                                let stage = micro::DirectStage {
                                    stage_in: staged,
                                    stage_w: &w_pack[ci0 * taps * cfg.z..][..group * taps * cfg.z],
                                    pts,
                                    group,
                                    z: cfg.z,
                                    kh: shape.kh,
                                    kw: shape.kw,
                                    xp,
                                    yp,
                                };
                                micro::fold_stage(&mut acc, stage);
                            }
                        }
                    }
                    // Epilogue on the resident tile, then the single
                    // write-back.
                    let resident = match path {
                        KernelPath::Scalar => &acc,
                        KernelPath::Vector => {
                            micro::transpose_tile(&acc, cfg.z, &mut tile);
                            &tile
                        }
                    };
                    write_back_with_epilogue(
                        resident, epilogue, out_ptr, image_len, out_h, out_w, n, oc0, oy0, ox0, cfg,
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
/// performs the block's only write-back. `Epilogue::None` reproduces the
/// unfused executors' write loop exactly; `Relu` maps each element
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

/// Executes the Winograd dataflow of §5.3 on the CPU: per block, per
/// `e x e` tile, the two temporary `(a x a)` arrays accumulate the channel
/// sum `Pi` which is inverse-transformed once at the end.
pub fn execute_winograd(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    tile: WinogradTile,
    cfg: &ScheduleConfig,
    workers: usize,
) -> Tensor4 {
    execute_winograd_with_path(input, weights, params, tile, cfg, workers, KernelPath::Vector)
}

/// [`execute_winograd`] with an explicit kernel path (tests diff the two).
#[allow(clippy::too_many_arguments)]
pub fn execute_winograd_with_path(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    tile: WinogradTile,
    cfg: &ScheduleConfig,
    workers: usize,
    path: KernelPath,
) -> Tensor4 {
    execute_winograd_impl(input, weights, params, tile, cfg, workers, path, Epilogue::None)
}

/// Executes a fused Winograd conv→epilogue chain (see
/// [`execute_direct_fused`]): the inverse-transformed tiles land in the
/// block's resident output tile as `f32` — the same values the unfused
/// path writes back — and the epilogue is applied there, before the
/// block's single write-back.
pub fn execute_winograd_fused(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    tile: WinogradTile,
    cfg: &ScheduleConfig,
    workers: usize,
    epilogue: Epilogue,
) -> Tensor4 {
    execute_winograd_impl(input, weights, params, tile, cfg, workers, KernelPath::Vector, epilogue)
}

/// [`execute_winograd_fused`] with an explicit kernel path.
#[allow(clippy::too_many_arguments)]
pub fn execute_winograd_fused_with_path(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    tile: WinogradTile,
    cfg: &ScheduleConfig,
    workers: usize,
    path: KernelPath,
    epilogue: Epilogue,
) -> Tensor4 {
    execute_winograd_impl(input, weights, params, tile, cfg, workers, path, epilogue)
}

#[allow(clippy::too_many_arguments)]
fn execute_winograd_impl(
    input: &Tensor4,
    weights: &Tensor4,
    params: ConvParams,
    tile: WinogradTile,
    cfg: &ScheduleConfig,
    workers: usize,
    path: KernelPath,
    epilogue: Epilogue,
) -> Tensor4 {
    assert_eq!(params.stride, 1, "winograd requires unit stride");
    let shape = shape_of(input, weights, params);
    assert!(shape.supports_winograd(tile), "shape incompatible with F(e,r)");
    let (hout, wout) = (shape.hout(), shape.wout());
    assert_eq!(hout % cfg.x, 0, "x must divide H_out");
    assert_eq!(wout % cfg.y, 0, "y must divide W_out");
    assert_eq!(shape.cout % cfg.z, 0, "z must divide C_out");
    assert_eq!(cfg.x % tile.e, 0, "x must be a multiple of e");
    assert_eq!(cfg.y % tile.e, 0, "y must be a multiple of e");
    assert_epilogue_alignment(epilogue, hout, wout, cfg);

    let m = micro::WinogradMats::generate(tile.e, tile.r);
    let e = tile.e;
    let blocks_h = hout / cfg.x;
    let blocks_w = wout / cfg.y;
    let blocks_c = shape.cout / cfg.z;
    let total_blocks = blocks_h * blocks_w * blocks_c * shape.batch;
    // Winograd tiles per block: along the height (x) and width (y) axes.
    let tiles_h = cfg.x / e;
    let tiles_w = cfg.y / e;

    let (out_h, out_w) = epilogue_out_dims(epilogue, hout, wout);
    let mut out = Tensor4::zeros(shape.batch, shape.cout, out_h, out_w);
    let image_len = shape.cout * out_h * out_w;
    let (xp, yp) = crate::direct::halo(&shape, cfg.x, cfg.y);
    let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = workers.max(1).min(total_blocks.max(1));
    // Input channels per stage (the paper's stage depth `alpha`).
    let depth = match path {
        KernelPath::Scalar => 1,
        KernelPath::Vector => micro::STAGE_GROUP,
    };

    rayon::scope(|scope| {
        for _ in 0..workers {
            let cursor = &cursor;
            let shape = &shape;
            let out_ptr = &out_ptr;
            let m = &m;
            scope.spawn(move |_| {
                // `depth` x' * y' input stages.
                let mut stage_in = vec![0.0f32; depth * xp * yp];
                // Block-resident output tile: the inverse-transformed
                // `f32` values land here (the exact bits the unfused
                // path would write back) so the epilogue can run on the
                // resident tile before the single write-back.
                let mut block_tile = vec![0.0f32; cfg.z * cfg.x * cfg.y];
                // The running Pi sums of the block, one arm's or the
                // other's. On the vector arm also the transformed
                // kernels of block-channel group `packed`: blocks come
                // `bc`-major, so a worker transforms once per group it
                // meets, not per block.
                let scalar_tiles = if path == KernelPath::Scalar { tiles_h * tiles_w } else { 0 };
                let mut scalar = ScalarWinograd::new(m, cfg.z, scalar_tiles);
                let mut lanes = micro::WinogradLanes::new(m, shape.cin, cfg.z, tiles_h, tiles_w);
                let mut packed = None;
                loop {
                    let b = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if b >= total_blocks {
                        break;
                    }
                    let n = b / (blocks_h * blocks_w * blocks_c);
                    let rem = b % (blocks_h * blocks_w * blocks_c);
                    let bc = rem / (blocks_h * blocks_w);
                    let bh = (rem / blocks_w) % blocks_h;
                    let bw = rem % blocks_w;
                    let oy0 = bh * cfg.x;
                    let ox0 = bw * cfg.y;
                    let oc0 = bc * cfg.z;
                    // Stage-loads the block's input tile at channel `ci`
                    // (halo included, zero padding at the borders).
                    let stage = |ci: usize, dst: &mut [f32]| {
                        let iy0 = oy0 as isize - shape.pad as isize;
                        let ix0 = ox0 as isize - shape.pad as isize;
                        input.padded_window(n, ci, (iy0, ix0), 1, (xp, yp), dst)
                    };
                    // Channel-sliding stages, then the output transform
                    // into the block-resident tile (the `f64 -> f32`
                    // conversion happens *there*, before any epilogue
                    // arithmetic).
                    match path {
                        KernelPath::Scalar => {
                            scalar.clear();
                            for ci in 0..shape.cin {
                                stage(ci, &mut stage_in);
                                micro::stage_kernels(weights, oc0, ci, cfg.z, &mut scalar.stage_w);
                                scalar.fold_stage(&stage_in, tiles_w, yp);
                            }
                            scalar.output(&mut block_tile, tiles_w, cfg);
                        }
                        // The same folds with independent ones side by
                        // side: `J` transformed once per block-channel
                        // group instead of once per tile, `z` at a time;
                        // `P` of a stage's channels for all tiles at
                        // once; `Pi += P ∘ J` with output channels on
                        // the lanes, channels ascending; one output
                        // transform for the whole block.
                        KernelPath::Vector => {
                            if packed != Some(bc) {
                                micro::pack_winograd_kernels(&mut lanes, weights, oc0);
                                packed = Some(bc);
                            }
                            lanes.clear();
                            for ci0 in (0..shape.cin).step_by(depth) {
                                let group = depth.min(shape.cin - ci0);
                                let staged = &mut stage_in[..group * xp * yp];
                                for (c, dst) in staged.chunks_exact_mut(xp * yp).enumerate() {
                                    stage(ci0 + c, dst);
                                }
                                micro::winograd_fold_group(&mut lanes, staged, ci0);
                            }
                            micro::winograd_output(&mut lanes, &mut block_tile);
                        }
                    }
                    // Epilogue on the resident tile, then the single
                    // write-back.
                    write_back_with_epilogue(
                        &block_tile,
                        epilogue,
                        out_ptr,
                        image_len,
                        out_h,
                        out_w,
                        n,
                        oc0,
                        oy0,
                        ox0,
                        cfg,
                    );
                }
            });
        }
    });
    out
}

/// Per-worker state of the Winograd scalar arm — the oracle the vector
/// arm is diffed against: two temporary `(a x a)` arrays per in-flight
/// (tile, zc), every product a fresh [`Mat::matmul`].
struct ScalarWinograd<'a> {
    m: &'a micro::WinogradMats,
    z: usize,
    /// The running Pi sums of the block, `pi[tile * z + zc]`.
    pi: Vec<Mat>,
    /// The stage's z kernel slices.
    stage_w: Vec<f32>,
    patch: Mat,
    g: Mat,
}

impl<'a> ScalarWinograd<'a> {
    fn new(m: &'a micro::WinogradMats, z: usize, tiles: usize) -> Self {
        let (r, a) = (m.t.r, m.t.a());
        Self {
            m,
            z,
            pi: vec![Mat::zeros(a, a); tiles * z],
            stage_w: vec![0.0f32; z * r * r],
            patch: Mat::zeros(a, a),
            g: Mat::zeros(r, r),
        }
    }

    /// Starts a block: `Pi = 0`.
    fn clear(&mut self) {
        for sum in self.pi.iter_mut() {
            sum.data.fill(0.0);
        }
    }

    /// Folds one channel — its input stage (row length `yp`) and
    /// `self.stage_w` — into `Pi`.
    fn fold_stage(&mut self, stage_in: &[f32], tiles_w: usize, yp: usize) {
        let (m, t) = (self.m, &self.m.t);
        let (e, r, a) = (t.e, t.r, t.a());
        for (tile, sums) in self.pi.chunks_exact_mut(self.z).enumerate() {
            let (th, tw) = (tile / tiles_w, tile % tiles_w);
            // Transform the (a x a) patch once per (tile, channel);
            // reuse across all z.
            for dy in 0..a {
                for dx in 0..a {
                    *self.patch.at_mut(dy, dx) = stage_in[(th * e + dy) * yp + tw * e + dx] as f64;
                }
            }
            let p = t.bt.matmul(&self.patch).matmul(&m.bt_t);
            for (zc, dst) in sums.iter_mut().enumerate() {
                for dy in 0..r {
                    for dx in 0..r {
                        *self.g.at_mut(dy, dx) = self.stage_w[(zc * r + dy) * r + dx] as f64;
                    }
                }
                let j = t.g.matmul(&self.g).matmul(&m.g_t);
                for idx in 0..a * a {
                    dst.data[idx] += p.data[idx] * j.data[idx];
                }
            }
        }
    }

    /// Inverse-transforms `Pi` into the `(zc, oy, ox)` block tile.
    fn output(&self, block_tile: &mut [f32], tiles_w: usize, cfg: &ScheduleConfig) {
        let (m, t) = (self.m, &self.m.t);
        for (tile, sums) in self.pi.chunks_exact(self.z).enumerate() {
            let (th, tw) = (tile / tiles_w, tile % tiles_w);
            for (zc, sum) in sums.iter().enumerate() {
                let y_tile = t.at.matmul(sum).matmul(&m.at_t);
                for dy in 0..t.e {
                    for dx in 0..t.e {
                        let oy = th * t.e + dy;
                        let ox = tw * t.e + dx;
                        block_tile[(zc * cfg.x + oy) * cfg.y + ox] = y_tile.at(dy, dx) as f32;
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
    use iolb_tensor::conv_ref::conv2d_reference;
    use iolb_tensor::layout::Layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BOTH_ARMS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Vector];

    /// Holds `run` to the reference on the scalar oracle and on the
    /// shipped vector arm alike.
    fn assert_both_arms_match(
        want: &Tensor4,
        tol: f32,
        what: &str,
        run: impl Fn(KernelPath) -> Tensor4,
    ) {
        for path in BOTH_ARMS {
            let got = run(path);
            assert!(
                got.approx_eq(want, tol, tol),
                "{path:?} {what}: diff {}",
                got.max_abs_diff(want)
            );
        }
    }

    fn cfg(x: usize, y: usize, z: usize) -> ScheduleConfig {
        ScheduleConfig { x, y, z, nxt: 1, nyt: 1, nzt: 1, sb_bytes: 48 * 1024, layout: Layout::Chw }
    }

    #[test]
    fn direct_exec_matches_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor4::random(1, 4, 10, 10, &mut rng);
        let weights = Tensor4::random(8, 4, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        let want = conv2d_reference(&input, &weights, params);
        for (x, y, z) in [(8, 8, 8), (4, 4, 2), (2, 8, 4), (1, 1, 1)] {
            assert_both_arms_match(&want, 1e-4, &format!("tile {x}x{y}x{z}"), |path| {
                execute_direct_with_path(&input, &weights, params, &cfg(x, y, z), 4, path)
            });
        }
    }

    #[test]
    fn direct_exec_with_padding_and_stride() {
        let mut rng = StdRng::seed_from_u64(2);
        let input = Tensor4::random(2, 3, 9, 9, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(2, 1); // 5x5 out
        let want = conv2d_reference(&input, &weights, params);
        assert_both_arms_match(&want, 1e-4, "stride 2, pad 1", |path| {
            execute_direct_with_path(&input, &weights, params, &cfg(5, 5, 2), 3, path)
        });
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
    fn winograd_exec_matches_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        let input = Tensor4::random(1, 3, 10, 10, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        let want = conv2d_reference(&input, &weights, params);
        for (x, y, z) in [(8, 8, 4), (4, 4, 2), (2, 2, 1)] {
            assert_both_arms_match(&want, 1e-3, &format!("tile {x}x{y}x{z}"), |path| {
                let c = cfg(x, y, z);
                execute_winograd_with_path(
                    &input,
                    &weights,
                    params,
                    WinogradTile::F2X3,
                    &c,
                    4,
                    path,
                )
            });
        }
    }

    #[test]
    fn winograd_exec_with_padding() {
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor4::random(2, 2, 8, 8, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1); // 8x8 out
        let want = conv2d_reference(&input, &weights, params);
        assert_both_arms_match(&want, 1e-3, "pad 1", |path| {
            let c = cfg(4, 8, 2);
            execute_winograd_with_path(&input, &weights, params, WinogradTile::F2X3, &c, 2, path)
        });
    }

    #[test]
    fn winograd_f4x3_exec() {
        let mut rng = StdRng::seed_from_u64(6);
        let input = Tensor4::random(1, 2, 10, 10, &mut rng);
        let weights = Tensor4::random(2, 2, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        let want = conv2d_reference(&input, &weights, params);
        assert_both_arms_match(&want, 1e-3, "F(4,3)", |path| {
            let c = cfg(8, 8, 2);
            execute_winograd_with_path(&input, &weights, params, WinogradTile::F4X3, &c, 2, path)
        });
    }

    #[test]
    fn direct_vector_path_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(7);
        // 19 channels: two full stages of the vector arm and a ragged
        // one of 3. z = 36: a 32-lane step and a 4-lane one.
        let input = Tensor4::random(2, 19, 9, 9, &mut rng);
        let weights = Tensor4::random(72, 19, 3, 3, &mut rng);
        // Unit stride with padding (27 points: tails of 3), and stride 2
        // (25 points: tails of 1).
        for (params, x, y) in [(ConvParams::new(1, 1), 3, 9), (ConvParams::new(2, 1), 5, 5)] {
            let c = cfg(x, y, 36);
            let s = execute_direct_with_path(&input, &weights, params, &c, 3, KernelPath::Scalar);
            let v = execute_direct_with_path(&input, &weights, params, &c, 3, KernelPath::Vector);
            let sb: Vec<u32> = s.as_slice().iter().map(|f| f.to_bits()).collect();
            let vb: Vec<u32> = v.as_slice().iter().map(|f| f.to_bits()).collect();
            assert_eq!(sb, vb, "stride {}", params.stride);
        }
    }

    /// ResNet-18 `layer4.rest` on the config the tuner serves for it: a
    /// `7 x 1` tile, so the lanes must come from `z`, not from `y`.
    #[test]
    fn direct_exec_single_column_tile_matches_reference() {
        let mut rng = StdRng::seed_from_u64(14);
        let input = Tensor4::random(1, 512, 7, 7, &mut rng);
        let weights = Tensor4::random(512, 512, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1); // 7x7 out
        let want = conv2d_reference(&input, &weights, params);
        assert_both_arms_match(&want, 1e-4, "x7 y1 z32", |path| {
            execute_direct_with_path(&input, &weights, params, &cfg(7, 1, 32), 1, path)
        });
    }

    /// The three tiles the tuner serves ResNet-18's Winograd layers
    /// (`layer1`, `layer2`, `layer3`), `cout` cut to two block-channel
    /// groups: 28 and 49 tiles per block, `z` of 16 and 8, 8 to 32
    /// stages per block.
    #[test]
    fn winograd_exec_served_tiles_match_reference() {
        let mut rng = StdRng::seed_from_u64(15);
        for (cin, hw, x, y, z) in [(64, 56, 8, 14, 16), (128, 28, 4, 28, 16), (256, 14, 14, 14, 8)]
        {
            let input = Tensor4::random(1, cin, hw, hw, &mut rng);
            let weights = Tensor4::random(2 * z, cin, 3, 3, &mut rng);
            let params = ConvParams::new(1, 1);
            let want = conv2d_reference(&input, &weights, params);
            let what = format!("x{x} y{y} z{z} on {cin}x{hw}x{hw}");
            assert_both_arms_match(&want, 1e-3, &what, |path| {
                let c = cfg(x, y, z);
                execute_winograd_with_path(
                    &input,
                    &weights,
                    params,
                    WinogradTile::F2X3,
                    &c,
                    1,
                    path,
                )
            });
        }
    }

    #[test]
    fn winograd_vector_path_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(8);
        let input = Tensor4::random(1, 3, 10, 10, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(1, 0); // 8x8 out
        for (tile, x, y, z) in [(WinogradTile::F2X3, 4, 4, 2), (WinogradTile::F4X3, 8, 8, 4)] {
            let c = cfg(x, y, z);
            let s = execute_winograd_with_path(
                &input,
                &weights,
                params,
                tile,
                &c,
                3,
                KernelPath::Scalar,
            );
            let v = execute_winograd_with_path(
                &input,
                &weights,
                params,
                tile,
                &c,
                3,
                KernelPath::Vector,
            );
            let sb: Vec<u32> = s.as_slice().iter().map(|f| f.to_bits()).collect();
            let vb: Vec<u32> = v.as_slice().iter().map(|f| f.to_bits()).collect();
            assert_eq!(sb, vb, "{tile:?}");
        }
    }

    #[test]
    #[should_panic(expected = "x must divide")]
    fn rejects_non_dividing_tile() {
        let input = Tensor4::zeros(1, 1, 8, 8);
        let weights = Tensor4::zeros(1, 1, 3, 3);
        let _ = execute_direct(&input, &weights, ConvParams::new(1, 0), &cfg(4, 3, 1), 1);
    }

    /// The fused contract, bitwise: fused conv→epilogue equals the bare
    /// conv followed by the standalone `iolb_tensor::ops` passes.
    fn assert_bits_eq(a: &Tensor4, b: &Tensor4, what: &str) {
        let ab: Vec<u32> = a.as_slice().iter().map(|f| f.to_bits()).collect();
        let bb: Vec<u32> = b.as_slice().iter().map(|f| f.to_bits()).collect();
        assert_eq!(ab, bb, "{what}");
    }

    fn unfused_composition(conv: &Tensor4, epilogue: Epilogue) -> Tensor4 {
        match epilogue {
            Epilogue::None => conv.clone(),
            Epilogue::Relu => iolb_tensor::ops::relu(conv),
            Epilogue::ReluPool { k } => {
                iolb_tensor::ops::maxpool2d(&iolb_tensor::ops::relu(conv), k)
            }
        }
    }

    #[test]
    fn fused_direct_bit_identical_to_unfused_composition() {
        let mut rng = StdRng::seed_from_u64(9);
        let input = Tensor4::random(2, 3, 10, 10, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let params = ConvParams::new(1, 1); // 10x10 out
        let c = cfg(5, 10, 2);
        for path in BOTH_ARMS {
            let conv = execute_direct_with_path(&input, &weights, params, &c, 3, path);
            for epilogue in [Epilogue::Relu, Epilogue::ReluPool { k: 5 }] {
                let want = unfused_composition(&conv, epilogue);
                for workers in [1, 4] {
                    let got = execute_direct_fused_with_path(
                        &input, &weights, params, &c, workers, path, epilogue,
                    );
                    assert_bits_eq(&got, &want, &format!("{path:?} {epilogue} w={workers}"));
                }
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
            for path in BOTH_ARMS {
                let conv = execute_winograd_with_path(&input, &weights, params, tile, &c, 3, path);
                for epilogue in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
                    let want = unfused_composition(&conv, epilogue);
                    for workers in [1, 4] {
                        let got = execute_winograd_fused_with_path(
                            &input, &weights, params, tile, &c, workers, path, epilogue,
                        );
                        assert_bits_eq(
                            &got,
                            &want,
                            &format!("{tile:?} {path:?} {epilogue} w={workers}"),
                        );
                    }
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
}
