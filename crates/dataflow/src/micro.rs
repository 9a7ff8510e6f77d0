//! Staging helpers and the ISA-dispatched inner kernels behind
//! [`crate::exec`].
//!
//! Nothing here knows about blocks, workers or epilogues: the executor
//! keeps the schedule's staging structure (input stages in, one resident
//! tile, one write-back) and calls in here for the things that decide how
//! fast a stage runs — handing the stage its weights as one contiguous
//! slice with output channels minor, and folding the stage into the
//! resident tile with output channels on the SIMD lanes. For Winograd the
//! weights are handed over already transformed, and the three transforms
//! run over many independent matrices at a time. Input stages are loaded
//! by `Tensor4::padded_window`, the same row-span loader `im2col` unrolls
//! its matrix with.

use iolb_tensor::kernel::Isa;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_math::{generate, matmul_flat, matmul_lanes_right, Mat, Transforms};

/// Stamps out `fn $name(args..)`: `$body(args..)` compiled once per
/// [`Isa`] tier, the tier picked per call by [`Isa::detect`] (a cached
/// flag test — nothing next to a stage). `$body` must be
/// `#[inline(always)]`: that is what makes each clone compile it, and
/// everything inlined into it, with the clone's target features.
///
/// Tests also get `fn $on(isa, args..)`, the same on an explicit tier
/// (clamped to what the CPU has), to diff the tiers against each other.
macro_rules! isa_dispatched {
    ($(#[$doc:meta])* fn $name:ident, $on:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) {
            isa_dispatched!(@on Isa::detect(), $body($($arg: $ty),*))
        }
        #[cfg(test)]
        pub(crate) fn $on(isa: Isa, $($arg: $ty),*) {
            isa_dispatched!(@on isa.min(Isa::detect()), $body($($arg: $ty),*))
        }
    };
    (@on $isa:expr, $body:ident($($arg:ident: $ty:ty),*)) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2($($arg: $ty),*) {
            $body($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512($($arg: $ty),*) {
            $body($($arg),*)
        }
        match $isa {
            // SAFETY: `Isa::detect` returns this tier only when the CPU
            // reports AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { avx512($($arg),*) },
            // SAFETY: as above, for AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { avx2($($arg),*) },
            _ => $body($($arg),*),
        }
    }};
}

/// Repacks the kernels of output channels `oc0..oc0 + z` z-minor:
/// `dst[((ci * kh + dy) * kw + dx) * z + zc]`, so the `kh * kw * z`
/// weights of one channel stage are one contiguous slice whose lanes
/// are output channels.
pub(crate) fn pack_weights_z_minor(weights: &Tensor4, oc0: usize, z: usize, dst: &mut [f32]) {
    let (cin, kh, kw) = (weights.c, weights.h, weights.w);
    let taps = cin * kh * kw;
    assert_eq!(dst.len(), taps * z, "weight pack size mismatch");
    let (sc, sh, sw) = weights.layout.strides(cin, kh, kw);
    let kernels = &weights.as_slice()[oc0 * taps..][..z * taps];
    if (sc, sh, sw) == (kh * kw, kw, 1) {
        // Kernels stored in tap order: the pack is the transpose of a
        // `z x taps` matrix, done in square blocks so that neither side
        // is walked with a stride of a whole row per element.
        const B: usize = 16;
        for zc0 in (0..z).step_by(B) {
            let z1 = (zc0 + B).min(z);
            for t0 in (0..taps).step_by(B) {
                for t in t0..(t0 + B).min(taps) {
                    let row = &mut dst[t * z..][zc0..z1];
                    for (v, zc) in row.iter_mut().zip(zc0..z1) {
                        *v = kernels[zc * taps + t];
                    }
                }
            }
        }
    } else {
        for zc in 0..z {
            let kernel = &kernels[zc * taps..][..taps];
            let mut t = 0;
            for ci in 0..cin {
                for dy in 0..kh {
                    for dx in 0..kw {
                        dst[t * z + zc] = kernel[ci * sc + dy * sh + dx * sw];
                        t += 1;
                    }
                }
            }
        }
    }
}

/// Offsets into an `x' x y'` input stage of the top-left tap of every
/// output pixel of an `x x y` block, in `(oy, ox)` order. Flattening the
/// block to this point list is what lets the micro-kernel fill its
/// registers from a `7 x 1` tile as well as from a `14 x 14` one.
pub(crate) fn point_offsets(x: usize, y: usize, stride: usize, yp: usize) -> Vec<usize> {
    (0..x).flat_map(|oy| (0..y).map(move |ox| oy * stride * yp + ox * stride)).collect()
}

/// Input channels per stage of both dataflows (the stage depth `alpha`
/// of §5.2 and §5.3): what is resident — the direct register tile of
/// `acc`, the Winograd `Pi` — is read and written once per stage
/// instead of once per channel. 8 serves both. Direct: on the
/// largest served tile (`x14 y14 z32`) the tile (25 KiB), the stage's
/// inputs (8 KiB) and its weights (9 KiB) still sit in a 48 KiB L1
/// together; 4 reads 3 to 7 % slower on the served ResNet-18 layers and
/// 16 the same as 8. Winograd: a stage's `P` (`8 a^2 tiles` doubles,
/// 28 KiB on the served 28-tile blocks) and the transform rows beside it
/// still sit in L1 when the Hadamard reads `P` back, while `Pi` (57 KiB
/// there), which cannot, is read and written 8x less often.
pub(crate) const STAGE_GROUP: usize = 8;

/// What one stage of the direct dataflow reads: the input stages of its
/// channels one after the other (`x' x y'` each, row length `yp`), their
/// weights z-minor (`stage_w[((c * kh + dy) * kw + dx) * z + zc]` — a
/// slice of [`pack_weights_z_minor`]'s pack) and the block's
/// [`point_offsets`] into one input stage.
#[derive(Clone, Copy)]
pub(crate) struct DirectStage<'a> {
    pub stage_in: &'a [f32],
    pub stage_w: &'a [f32],
    pub pts: &'a [usize],
    pub group: usize,
    pub z: usize,
    pub kh: usize,
    pub kw: usize,
    pub xp: usize,
    pub yp: usize,
}

isa_dispatched! {
    /// One stage of the direct dataflow — at most [`STAGE_GROUP`]
    /// channels — folded into the resident tile, output channels on the
    /// SIMD lanes.
    ///
    /// `acc` is the block's tile kept **z-minor** (`acc[p * z + zc]`, `p`
    /// indexing `s.pts`). The lane width cascades 32 → 16 → 8 → 4 → 1
    /// over `z` and the points go 4 (at 32 lanes) or 8 at a time, a
    /// shorter tail in one step of its own, so every `(p, zc)` is
    /// visited exactly once and sees the oracle's fold
    /// (`conv_ref::conv2d_channel_staged`): per channel, ascending, `sum`
    /// from `0.0` over `(dy, dx)` ascending, then one `acc += sum`.
    fn fold_stage, fold_stage_on = fold_stage_body(acc: &mut [f32], s: DirectStage<'_>)
}

#[inline(always)]
fn fold_stage_body(acc: &mut [f32], s: DirectStage<'_>) {
    let zc = fold_lanes::<4, 32>(acc, s, 0);
    let zc = fold_lanes::<8, 16>(acc, s, zc);
    let zc = fold_lanes::<8, 8>(acc, s, zc);
    let zc = fold_lanes::<8, 4>(acc, s, zc);
    fold_lanes::<8, 1>(acc, s, zc);
}

/// Most output pixels in one micro-step.
const PT: usize = 8;

/// Runs `P`-point x `L`-lane micro-steps over channels `zc..` while a
/// whole chunk of `L` fits below `z`; returns the first channel left
/// over. Every `(P, L)` [`fold_stage`] runs has eight independent add
/// chains — 4 points x two 16-lane vectors, or 8 points x one vector of
/// `L` lanes — which is what a multiply and an add port each four
/// cycles deep need to stay busy.
#[inline(always)]
fn fold_lanes<const P: usize, const L: usize>(
    acc: &mut [f32],
    s: DirectStage<'_>,
    mut zc: usize,
) -> usize {
    while zc + L <= s.z {
        let mut p = 0;
        while p + P <= s.pts.len() {
            micro_step::<P, L>(acc, s, p, zc);
            p += P;
        }
        // The tail, exactly as wide as it is.
        match s.pts.len() - p {
            0 => {}
            1 => micro_step::<1, L>(acc, s, p, zc),
            2 => micro_step::<2, L>(acc, s, p, zc),
            3 => micro_step::<3, L>(acc, s, p, zc),
            4 => micro_step::<4, L>(acc, s, p, zc),
            5 => micro_step::<5, L>(acc, s, p, zc),
            6 => micro_step::<6, L>(acc, s, p, zc),
            _ => micro_step::<7, L>(acc, s, p, zc),
        }
        zc += L;
    }
    zc
}

/// `$body` once per point `$j` of a `$p`-point micro-step, with `$j` a
/// literal: every `sum[$j]` is then a compile-time-constant index, which
/// is what lets the whole register tile live in registers (one
/// runtime-indexed access and it falls back to the stack — see
/// `unroll_rows!` in `iolb_tensor::gemm`).
macro_rules! each_point {
    ($p:expr, $j:ident => $body:block) => {
        each_point!(@at $p, $j, $body, 0 1 2 3 4 5 6 7)
    };
    (@at $p:expr, $j:ident, $body:block, $($at:literal)*) => {{
        $(if $p > $at {
            let $j = $at;
            $body
        })*
    }};
}
const _: () = assert!(PT == 8, "each_point! covers exactly 0..PT");

/// The register tile: `P <= PT` points x `L` channel lanes of `acc`,
/// loaded once, folded over the stage's channels in ascending order and
/// stored once. Per channel each lane of each point is one output
/// element's own serial fold — `sum` from `0.0`, `sum += in * w` over the
/// taps with the input tap broadcast across the lanes, then `acc += sum`,
/// every multiply and add separately rounded, no FMA — so neither `P`,
/// `L` nor the stage depth can change a bit.
#[inline(always)]
fn micro_step<const P: usize, const L: usize>(
    acc: &mut [f32],
    s: DirectStage<'_>,
    p: usize,
    zc: usize,
) {
    let (taps, chan_len) = (s.kh * s.kw, s.xp * s.yp);
    let mut off = [0usize; PT];
    let mut tile = [[0.0f32; L]; PT];
    each_point!(P, j => {
        off[j] = s.pts[p + j];
        tile[j].copy_from_slice(&acc[(p + j) * s.z + zc..][..L]);
    });
    for c in 0..s.group {
        let chan = &s.stage_in[c * chan_len..][..chan_len];
        let chan_w = &s.stage_w[c * taps * s.z..][..taps * s.z];
        let mut sum = [[0.0f32; L]; PT];
        for dy in 0..s.kh {
            // One bounds check per point and tap row, none per tap.
            let mut rows = [&chan[..0]; PT];
            each_point!(P, j => {
                rows[j] = &chan[off[j] + dy * s.yp..][..s.kw];
            });
            for dx in 0..s.kw {
                let w: [f32; L] = *chan_w[(dy * s.kw + dx) * s.z + zc..].first_chunk().unwrap();
                each_point!(P, j => {
                    let v = rows[j][dx];
                    for l in 0..L {
                        sum[j][l] += v * w[l];
                    }
                });
            }
        }
        each_point!(P, j => {
            for l in 0..L {
                tile[j][l] += sum[j][l];
            }
        });
    }
    each_point!(P, j => {
        acc[(p + j) * s.z + zc..][..L].copy_from_slice(&tile[j]);
    });
}

/// Transposes a z-minor tile (`src[p * z + zc]`) into the `(zc, oy, ox)`
/// order the write-back expects (`dst[zc * points + p]`).
pub(crate) fn transpose_tile(src: &[f32], z: usize, dst: &mut [f32]) {
    let points = src.len() / z;
    for (p, lanes) in src.chunks_exact(z).enumerate() {
        for (zc, &v) in lanes.iter().enumerate() {
            dst[zc * points + p] = v;
        }
    }
}

/// The `F(e, r)` transform matrices with their transposes hoisted: pure
/// permutations, computed once per call instead of once per tile.
pub(crate) struct WinogradMats {
    pub t: Transforms,
    /// `B`, `G^T` and `A`: the right-hand factors of the three
    /// two-sided transforms.
    pub bt_t: Mat,
    pub g_t: Mat,
    pub at_t: Mat,
}

impl WinogradMats {
    pub(crate) fn generate(e: usize, r: usize) -> Self {
        let t = generate(e, r);
        Self { bt_t: t.bt.t(), g_t: t.g.t(), at_t: t.at.t(), t }
    }
}

/// A zeroed `f64` buffer whose first element sits on a cache-line
/// boundary, so that a 64-byte vector of a row that starts on a multiple
/// of 8 elements never straddles two lines.
pub(crate) struct Lines {
    buf: Vec<f64>,
    off: usize,
    len: usize,
}

impl Lines {
    fn zeros(len: usize) -> Self {
        let buf = vec![0.0f64; len + 7];
        let off = buf.as_ptr().align_offset(64);
        Self { buf, off, len }
    }
}

impl std::ops::Deref for Lines {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl std::ops::DerefMut for Lines {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// Per-worker state of the lane-batched Winograd dataflow. Every array
/// is one flat `f64` buffer of `a x a` (or `e x a`, `a x r`, …) matrices
/// interleaved lane-minor, `buf[(row * cols + col) * lanes + lane]`: the
/// layout [`matmul_flat`] and [`matmul_lanes_right`] transform `lanes`
/// matrices at a time in.
pub(crate) struct WinogradLanes<'a> {
    m: &'a WinogradMats,
    z: usize,
    tiles_h: usize,
    tiles_w: usize,
    /// Offset of every tile's top-left corner in an input stage.
    corners: Vec<usize>,
    /// `J = G g G^T` of one block-channel group, stage after stage; the
    /// stage of channels `ci0..ci0 + g` starts at `ci0 * a*a * z` and
    /// has (channel, output channel) on the lanes:
    /// `[(k * g + c) * z + zc]`.
    j_pack: Lines,
    /// The block's running sums, `pi[(k * tiles + tile) * z + zc]`.
    pi: Lines,
    /// `P = B^T d B` of the staged channels, (channel, tile) on the
    /// lanes: `p[(k * g + c) * tiles + tile]`.
    p: Lines,
    /// The data operand of the transform under way (patches, kernels).
    operand: Lines,
    /// Its left product (one row of it for the input transform).
    left: Lines,
    /// The inverse-transformed block, `y[((dy * e + dx) * tiles + tile) * z + zc]`.
    y: Lines,
}

impl<'a> WinogradLanes<'a> {
    /// State for blocks of `tiles_h x tiles_w` tiles x `z` output
    /// channels over `cin` input channels.
    pub(crate) fn new(
        m: &'a WinogradMats,
        cin: usize,
        z: usize,
        tiles_h: usize,
        tiles_w: usize,
    ) -> Self {
        let (e, r, a) = (m.t.e, m.t.r, m.t.a());
        let tiles = tiles_h * tiles_w;
        let group = STAGE_GROUP.min(cin);
        Self {
            m,
            z,
            tiles_h,
            tiles_w,
            corners: point_offsets(tiles_h, tiles_w, e, tiles_w * e + r - 1),
            j_pack: Lines::zeros(cin * a * a * z),
            pi: Lines::zeros(a * a * tiles * z),
            p: Lines::zeros(group * a * a * tiles),
            operand: Lines::zeros(group * (a * a * tiles).max(r * r * z)),
            left: Lines::zeros((group * a * tiles.max(r * z)).max(e * a * tiles * z)),
            y: Lines::zeros(e * e * tiles * z),
        }
    }

    /// Starts a block: `Pi = 0`.
    pub(crate) fn clear(&mut self) {
        self.pi.fill(0.0);
    }
}

isa_dispatched! {
    /// Transforms the kernels of output channels `oc0..oc0 + z` into
    /// `w.j_pack`, once per (worker, block-channel group). Per stage:
    /// its kernels gathered lane-minor, then `G g G^T` for all of them
    /// at once.
    fn pack_winograd_kernels, pack_winograd_kernels_on = pack_winograd_kernels_body(
        w: &mut WinogradLanes<'_>,
        weights: &Tensor4,
        oc0: usize,
    )
}

#[inline(always)]
fn pack_winograd_kernels_body(w: &mut WinogradLanes<'_>, weights: &Tensor4, oc0: usize) {
    let (r, a, z) = (w.m.t.r, w.m.t.a(), w.z);
    let (cin, taps) = (weights.c, r * r);
    let (sc, sh, sw) = weights.layout.strides(cin, r, r);
    for (s, j) in w.j_pack.chunks_mut(STAGE_GROUP * a * a * z).enumerate() {
        let lanes = j.len() / (a * a);
        let g = &mut w.operand[..taps * lanes];
        let left = &mut w.left[..a * r * lanes];
        for c in 0..lanes / z {
            let ci = s * STAGE_GROUP + c;
            for zc in 0..z {
                let kernel = &weights.as_slice()[(oc0 + zc) * cin * taps..][..cin * taps];
                for dy in 0..r {
                    for dx in 0..r {
                        g[(dy * r + dx) * lanes + c * z + zc] =
                            kernel[ci * sc + dy * sh + dx * sw] as f64;
                    }
                }
            }
        }
        matmul_flat(&w.m.t.g.data, g, left, a, r, r * lanes);
        matmul_lanes_right(left, &w.m.g_t.data, j, a, r, a, lanes);
    }
}

isa_dispatched! {
    /// One stage of the Winograd dataflow folded into the block's `Pi`:
    /// `stage_in` holds the input stages (`x' x y'`, by rows) of
    /// channels `ci0..`, at most [`STAGE_GROUP`] of them, and the
    /// weight stage is their slice of `w.j_pack`. `P = B^T d B` of all
    /// tiles of all staged channels at once; then `Pi += P ∘ J` over
    /// the staged channels in ascending order.
    fn winograd_fold_group, winograd_fold_group_on = winograd_fold_group_body(
        w: &mut WinogradLanes<'_>,
        stage_in: &[f32],
        ci0: usize,
    )
}

/// [`fold_group_tile`] with the extents of the paper's two tiles as
/// constants: the transform loops then unroll and the patch gather has a
/// fixed stride — 15 to 25 % of the executor's time on the served tiles.
#[inline(always)]
fn winograd_fold_group_body(w: &mut WinogradLanes<'_>, stage_in: &[f32], ci0: usize) {
    match (w.m.t.e, w.m.t.r) {
        (2, 3) => fold_group_tile(w, stage_in, ci0, 2, 3),
        (4, 3) => fold_group_tile(w, stage_in, ci0, 4, 3),
        (e, r) => fold_group_tile(w, stage_in, ci0, e, r),
    }
}

#[inline(always)]
fn fold_group_tile(w: &mut WinogradLanes<'_>, stage_in: &[f32], ci0: usize, e: usize, r: usize) {
    let a = e + r - 1;
    let (aa, tiles) = (a * a, w.tiles_h * w.tiles_w);
    // An input stage is the block plus its halo, by rows.
    let (xp, yp) = (w.tiles_h * e + a - e, w.tiles_w * e + a - e);
    let group = stage_in.len() / (xp * yp);
    debug_assert_eq!(stage_in.len(), group * xp * yp);
    let lanes = group * tiles;
    let d = &mut w.operand[..aa * lanes];
    let left = &mut w.left[..a * lanes];
    // d[(dy, dx)][(channel, tile)]: the tiles' (overlapping) a x a
    // patches. A patch row is one contiguous run of the stage; its `a`
    // values go to the same lane of `a` consecutive rows of `d`.
    for (c, chan) in stage_in.chunks_exact(xp * yp).enumerate() {
        for dy in 0..a {
            let rows = &chan[dy * yp..];
            let d_dy = &mut d[dy * a * lanes + c * tiles..];
            for (t, &corner) in w.corners.iter().enumerate() {
                let patch_row = &rows[corner..][..a];
                for dx in 0..a {
                    d_dy[dx * lanes + t] = patch_row[dx] as f64;
                }
            }
        }
    }
    // P = B^T d B, one row of B^T at a time: the left product's row is
    // consumed while it is still in L1.
    for (bt_i, p_i) in w.m.t.bt.data.chunks_exact(a).zip(w.p.chunks_exact_mut(a * lanes)) {
        matmul_flat(bt_i, d, left, 1, a, a * lanes);
        matmul_lanes_right(left, &w.m.bt_t.data, p_i, 1, a, a, lanes);
    }
    let s = HadamardStage {
        p: &w.p[..aa * lanes],
        j: &w.j_pack[ci0 * aa * w.z..][..group * aa * w.z],
        group,
        tiles,
        z: w.z,
    };
    let zc = hadamard_lanes::<16>(&mut w.pi, s, 0);
    let zc = hadamard_lanes::<8>(&mut w.pi, s, zc);
    let zc = hadamard_lanes::<4>(&mut w.pi, s, zc);
    hadamard_lanes::<1>(&mut w.pi, s, zc);
}

/// What the Hadamard-accumulate of one stage reads: `P` and `J` of the
/// `group` staged channels (layouts as in [`WinogradLanes`]).
#[derive(Clone, Copy)]
struct HadamardStage<'a> {
    p: &'a [f64],
    j: &'a [f64],
    group: usize,
    tiles: usize,
    z: usize,
}

/// Tiles per Hadamard micro-step.
const TT: usize = 4;

/// Runs `L`-lane Hadamard micro-steps over channels `zc..` while a whole
/// chunk of `L` fits below `z`; returns the first channel left over.
#[inline(always)]
fn hadamard_lanes<const L: usize>(pi: &mut [f64], s: HadamardStage<'_>, mut zc: usize) -> usize {
    while zc + L <= s.z {
        // Coefficient by coefficient: a (tiles x group) by (group x z)
        // product into the coefficient's plane of `Pi`.
        let planes = pi.chunks_exact_mut(s.tiles * s.z);
        let stage = s.p.chunks_exact(s.group * s.tiles).zip(s.j.chunks_exact(s.group * s.z));
        for (pi_k, (p_k, j_k)) in planes.zip(stage) {
            let mut tile = 0;
            while tile + TT <= s.tiles {
                hadamard_step::<TT, L>(pi_k, p_k, j_k, s, tile, zc);
                tile += TT;
            }
            while tile < s.tiles {
                hadamard_step::<1, L>(pi_k, p_k, j_k, s, tile, zc);
                tile += 1;
            }
        }
        zc += L;
    }
    zc
}

/// The register tile: `T` tiles x `L` channel lanes of one coefficient
/// plane of `Pi`, loaded once, folded over the staged channels in
/// ascending order and stored once. Each lane of each tile is one `Pi`
/// element's own serial fold — `pi += p * j` is a separately rounded
/// multiply and add, no FMA — so neither `T`, `L` nor the group size can
/// change a bit.
#[inline(always)]
fn hadamard_step<const T: usize, const L: usize>(
    pi_k: &mut [f64],
    p_k: &[f64],
    j_k: &[f64],
    s: HadamardStage<'_>,
    tile: usize,
    zc: usize,
) {
    let mut acc = [[0.0f64; L]; T];
    for (t, a) in acc.iter_mut().enumerate() {
        a.copy_from_slice(&pi_k[(tile + t) * s.z + zc..][..L]);
    }
    // The same `T` tiles and `L` lanes of every staged channel.
    let p = p_k[tile..].windows(T).step_by(s.tiles);
    let j = j_k[zc..].windows(L).step_by(s.z);
    for (p, j) in p.zip(j) {
        for t in 0..T {
            for l in 0..L {
                acc[t][l] += p[t] * j[l];
            }
        }
    }
    for (t, a) in acc.iter().enumerate() {
        pi_k[(tile + t) * s.z + zc..][..L].copy_from_slice(a);
    }
}

isa_dispatched! {
    /// Inverse-transforms the block: `Y = A^T Pi A` for every (tile,
    /// channel) at once, rounded to `f32` into the `(zc, oy, ox)`
    /// resident tile the write-back expects.
    fn winograd_output, winograd_output_on = winograd_output_body(
        w: &mut WinogradLanes<'_>,
        block_tile: &mut [f32],
    )
}

#[inline(always)]
fn winograd_output_body(w: &mut WinogradLanes<'_>, block_tile: &mut [f32]) {
    let (e, a, z) = (w.m.t.e, w.m.t.a(), w.z);
    let tiles = w.tiles_h * w.tiles_w;
    let lanes = tiles * z;
    let left = &mut w.left[..e * a * lanes];
    matmul_flat(&w.m.t.at.data, &w.pi, left, e, a, a * lanes);
    matmul_lanes_right(left, &w.m.at_t.data, &mut w.y, e, a, e, lanes);
    let (x, y) = (w.tiles_h * e, w.tiles_w * e);
    for zc in 0..z {
        for th in 0..w.tiles_h {
            for dy in 0..e {
                let row = &mut block_tile[(zc * x + th * e + dy) * y..][..y];
                for tw in 0..w.tiles_w {
                    let tile = th * w.tiles_w + tw;
                    for dx in 0..e {
                        row[tw * e + dx] = w.y[((dy * e + dx) * tiles + tile) * z + zc] as f32;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every tier this CPU can run, narrowest first.
    fn tiers() -> Vec<Isa> {
        [Isa::Portable, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|t| *t <= Isa::detect())
            .collect()
    }

    fn random(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// "ISA tier never changes a bit", checked: the dispatcher only ever
    /// runs the widest clone the host has, so run every clone it has on
    /// the same stage and diff what they leave behind — the direct
    /// tile, and for Winograd the packed `J`, the running `Pi` (both
    /// `f64`, before any rounding to `f32` could hide a difference) and
    /// the inverse-transformed block.
    #[test]
    fn every_isa_tier_computes_the_same_bits() {
        let mut rng = StdRng::seed_from_u64(21);

        // Direct: a 3 x 5 block (15 points: an 8-point step and a tail
        // of 7, or three 4-point steps and a tail of 3), z = 61 (32 +
        // 16 + 8 + 4 + 1 lanes), 3 x 3 taps, 11 channels (a full stage
        // and a ragged one of 3).
        let (x, y, z, k, cin) = (3, 5, 61, 3, 11);
        let (xp, yp) = (x + k - 1, y + k - 1);
        let stage_in = random(cin * xp * yp, &mut rng);
        let w_pack = random(cin * k * k * z, &mut rng);
        let pts = point_offsets(x, y, 1, yp);
        let direct = |isa| {
            let mut acc = random(x * y * z, &mut StdRng::seed_from_u64(22));
            let stages = stage_in.chunks(STAGE_GROUP * xp * yp);
            for (stage_in, stage_w) in stages.zip(w_pack.chunks(STAGE_GROUP * k * k * z)) {
                let group = stage_in.len() / (xp * yp);
                let s =
                    DirectStage { stage_in, stage_w, pts: &pts, group, z, kh: k, kw: k, xp, yp };
                fold_stage_on(isa, &mut acc, s);
            }
            acc.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };

        // Winograd: 3 x 3 tiles (two 4-tile steps and a tail), z = 29,
        // 11 channels (a full stage and a stage of 3).
        let (tiles_h, tiles_w, cin) = (3, 3, 11);
        let weights = Tensor4::random(z, cin, 3, 3, &mut rng);
        let winograd = |isa, tile: (usize, usize)| {
            let m = WinogradMats::generate(tile.0, tile.1);
            let (xp, yp) = (tiles_h * tile.0 + tile.1 - 1, tiles_w * tile.0 + tile.1 - 1);
            let stage_in = random(cin * xp * yp, &mut StdRng::seed_from_u64(23));
            let mut w = WinogradLanes::new(&m, cin, z, tiles_h, tiles_w);
            pack_winograd_kernels_on(isa, &mut w, &weights, 0);
            for (g, stage) in stage_in.chunks(STAGE_GROUP * xp * yp).enumerate() {
                winograd_fold_group_on(isa, &mut w, stage, g * STAGE_GROUP);
            }
            let mut block = vec![0.0f32; z * tiles_h * tiles_w * tile.0 * tile.0];
            winograd_output_on(isa, &mut w, &mut block);
            let f64_bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            (
                f64_bits(&w.j_pack),
                f64_bits(&w.pi),
                block.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            )
        };

        let tiers = tiers();
        for &isa in &tiers[1..] {
            assert_eq!(direct(isa), direct(Isa::Portable), "fold_stage on {isa:?}");
            for tile in [(2, 3), (4, 3)] {
                assert_eq!(
                    winograd(isa, tile),
                    winograd(Isa::Portable, tile),
                    "Winograd F{tile:?} stage on {isa:?}"
                );
            }
        }
    }
}
