//! Staging helpers and the ISA-dispatched inner kernels behind
//! [`crate::exec`]'s vector path.
//!
//! Nothing here knows about blocks, workers or epilogues: the executors
//! keep the schedule's staging structure (one input stage in, one
//! resident tile, one write-back) and call in here for the three things
//! that decide how fast a stage runs — loading the input stage by rows,
//! handing the stage its weights as one contiguous z-minor slice, and
//! folding the stage into the resident tile with output channels on the
//! SIMD lanes.

use iolb_tensor::kernel::Isa;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_math::{matmul_flat, Mat, Transforms};

/// Stamps out `fn $name(args..)`: `$body(args..)` compiled once per
/// [`Isa`] tier, the tier picked per call by [`Isa::detect`] (a cached
/// flag test — nothing next to a stage). `$body` must be
/// `#[inline(always)]`: that is what makes each clone compile it, and
/// everything inlined into it, with the clone's target features.
macro_rules! isa_dispatched {
    ($(#[$doc:meta])* fn $name:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512($($arg: $ty),*) {
                    $body($($arg),*)
                }
                match Isa::detect() {
                    // SAFETY: `Isa::detect` returns this tier only when
                    // the CPU reports AVX-512F.
                    Isa::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: as above, for AVX2.
                    Isa::Avx2 => return unsafe { avx2($($arg),*) },
                    Isa::Portable => {}
                }
            }
            $body($($arg),*)
        }
    };
}

/// Loads the `rows x cols` window of channel `c` of image `n` whose
/// top-left corner is `(iy0, ix0)` into `dst` (row-major), zero-filling
/// whatever lies outside the image — `at_padded` semantics, one row at a
/// time: the in-image span of each row is a single `copy_from_slice`
/// when the layout's `w` stride is 1 (`Layout::Chw`) and a strided
/// gather otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_rows(
    input: &Tensor4,
    n: usize,
    c: usize,
    iy0: isize,
    ix0: isize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
) {
    assert_eq!(dst.len(), rows * cols, "stage buffer size mismatch");
    let (sc, sh, sw) = input.layout.strides(input.c, input.h, input.w);
    let image_len = input.c * input.h * input.w;
    let image = &input.as_slice()[n * image_len..][..image_len];
    // Columns `lo..hi` of the window lie inside the image.
    let lo = (-ix0).clamp(0, cols as isize) as usize;
    let hi = (input.w as isize - ix0).clamp(0, cols as isize) as usize;
    for (ty, row) in dst.chunks_exact_mut(cols).enumerate() {
        let iy = iy0 + ty as isize;
        if iy < 0 || iy >= input.h as isize || lo >= hi {
            row.fill(0.0);
            continue;
        }
        row[..lo].fill(0.0);
        row[hi..].fill(0.0);
        let src = c * sc + iy as usize * sh + (ix0 + lo as isize) as usize * sw;
        if sw == 1 {
            row[lo..hi].copy_from_slice(&image[src..src + (hi - lo)]);
        } else {
            for (i, v) in row[lo..hi].iter_mut().enumerate() {
                *v = image[src + i * sw];
            }
        }
    }
}

/// Stage-loads the `z` kernel slices of input channel `ci`, one slice
/// after the other: `dst[(zc * kh + dy) * kw + dx]`.
pub(crate) fn stage_kernels(weights: &Tensor4, oc0: usize, ci: usize, z: usize, dst: &mut [f32]) {
    let (kh, kw) = (weights.h, weights.w);
    for zc in 0..z {
        for dy in 0..kh {
            for dx in 0..kw {
                dst[(zc * kh + dy) * kw + dx] = weights.at(oc0 + zc, ci, dy, dx);
            }
        }
    }
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
    for zc in 0..z {
        let kernel = &weights.as_slice()[(oc0 + zc) * taps..][..taps];
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

/// Offsets into an `x' x y'` input stage of the top-left tap of every
/// output pixel of an `x x y` block, in `(oy, ox)` order. Flattening the
/// block to this point list is what lets the micro-kernel fill its
/// registers from a `7 x 1` tile as well as from a `14 x 14` one.
pub(crate) fn point_offsets(x: usize, y: usize, stride: usize, yp: usize) -> Vec<usize> {
    (0..x).flat_map(|oy| (0..y).map(move |ox| oy * stride * yp + ox * stride)).collect()
}

/// Output pixels per micro-step.
const PT: usize = 4;

/// What one channel stage of the direct dataflow reads: the input stage
/// (`x' x y'`, row length `yp`), the stage's weights z-minor
/// (`stage_w[(dy * kw + dx) * z + zc]`) and the block's
/// [`point_offsets`] into `stage_in`.
#[derive(Clone, Copy)]
pub(crate) struct DirectStage<'a> {
    pub stage_in: &'a [f32],
    pub stage_w: &'a [f32],
    pub pts: &'a [usize],
    pub z: usize,
    pub kh: usize,
    pub kw: usize,
    pub yp: usize,
}

isa_dispatched! {
    /// One channel stage of the direct dataflow folded into the resident
    /// tile, output channels on the SIMD lanes.
    ///
    /// `acc` is the block's tile kept **z-minor** (`acc[p * z + zc]`, `p`
    /// indexing `s.pts`). The lane width cascades 16 → 8 → 4 → 1 over
    /// `z` and the points go [`PT`] at a time (then singly), so every
    /// `(p, zc)` is visited exactly once and sees the scalar path's
    /// fold: `sum` from `0.0` over `(dy, dx)` ascending, then one
    /// `acc += sum`.
    fn fold_stage = fold_stage_body(acc: &mut [f32], s: DirectStage<'_>)
}

#[inline(always)]
fn fold_stage_body(acc: &mut [f32], s: DirectStage<'_>) {
    let zc = fold_lanes::<16>(acc, s, 0);
    let zc = fold_lanes::<8>(acc, s, zc);
    let zc = fold_lanes::<4>(acc, s, zc);
    fold_lanes::<1>(acc, s, zc);
}

/// Runs `L`-lane micro-steps over channels `zc..` while a whole chunk of
/// `L` fits below `z`; returns the first channel left over.
#[inline(always)]
fn fold_lanes<const L: usize>(acc: &mut [f32], s: DirectStage<'_>, mut zc: usize) -> usize {
    while zc + L <= s.z {
        let mut p = 0;
        while p + PT <= s.pts.len() {
            micro_step::<PT, L>(acc, s, p, zc);
            p += PT;
        }
        while p < s.pts.len() {
            micro_step::<1, L>(acc, s, p, zc);
            p += 1;
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
    ($p:expr, $j:ident => $body:block) => {{
        {
            let $j = 0;
            $body
        }
        if $p > 1 {
            let $j = 1;
            $body
        }
        if $p > 2 {
            let $j = 2;
            $body
        }
        if $p > 3 {
            let $j = 3;
            $body
        }
    }};
}
const _: () = assert!(PT == 4, "each_point! covers exactly 0..PT");

/// The register tile: `P <= PT` points x `L` channel lanes of `sum`,
/// held through the whole tap fold with the input tap broadcast across
/// the lanes. Each lane of each point is one output element's own
/// serial fold — `sum += in * w` is a separately rounded multiply and
/// add, no FMA — so neither `P` nor `L` can change a bit.
#[inline(always)]
fn micro_step<const P: usize, const L: usize>(
    acc: &mut [f32],
    s: DirectStage<'_>,
    p: usize,
    zc: usize,
) {
    let pts = &s.pts[p..p + P];
    let mut sum = [[0.0f32; L]; PT];
    for dy in 0..s.kh {
        for dx in 0..s.kw {
            let w = &s.stage_w[(dy * s.kw + dx) * s.z + zc..][..L];
            each_point!(P, j => {
                let v = s.stage_in[pts[j] + dy * s.yp + dx];
                for l in 0..L {
                    sum[j][l] += v * w[l];
                }
            });
        }
    }
    each_point!(P, j => {
        let a = &mut acc[(p + j) * s.z + zc..][..L];
        for l in 0..L {
            a[l] += sum[j][l];
        }
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

/// Per-worker state of [`winograd_stage`]: the hoisted transposes (pure
/// permutations of the transform matrices) and flat `f64` scratch.
pub(crate) struct WinogradScratch {
    /// `B` and `G^T`, row-major.
    bt_t: Vec<f64>,
    g_t: Vec<f64>,
    /// One `r x r` kernel slice.
    g: Vec<f64>,
    /// One `a x a` input patch.
    patch: Vec<f64>,
    /// Left product of either two-sided transform.
    mm_tmp: Vec<f64>,
    /// `P = B^T d B` of the current tile.
    p: Vec<f64>,
    /// `J = G g G^T` of every output channel of the block.
    j_all: Vec<f64>,
}

impl WinogradScratch {
    pub(crate) fn new(t: &Transforms, z: usize) -> Self {
        let aa = t.a() * t.a();
        Self {
            bt_t: t.bt.t().data,
            g_t: t.g.t().data,
            g: vec![0.0; t.r * t.r],
            patch: vec![0.0; aa],
            mm_tmp: vec![0.0; aa],
            p: vec![0.0; aa],
            j_all: vec![0.0; z * aa],
        }
    }
}

isa_dispatched! {
    /// One channel stage of the Winograd dataflow folded into the
    /// block's running `Pi` sums (`pi[(th * tiles_w + tw) * z + zc]`):
    /// `J = G g G^T` once per output channel from the staged kernel
    /// slices (`stage_w[(zc * r + dy) * r + dx]`), then per tile
    /// `P = B^T d B` from the staged input (row length `yp`) and
    /// `Pi += P ∘ J` for every channel. Every product goes through
    /// [`matmul_flat`], inlined here so it is compiled for the tier.
    fn winograd_stage = winograd_stage_body(
        pi: &mut [Mat],
        stage_in: &[f32],
        stage_w: &[f32],
        t: &Transforms,
        s: &mut WinogradScratch,
        tiles_w: usize,
        yp: usize,
    )
}

#[inline(always)]
fn winograd_stage_body(
    pi: &mut [Mat],
    stage_in: &[f32],
    stage_w: &[f32],
    t: &Transforms,
    s: &mut WinogradScratch,
    tiles_w: usize,
    yp: usize,
) {
    let (e, r, a) = (t.e, t.r, t.a());
    let aa = a * a;
    let z = stage_w.len() / (r * r);
    for (kernel, j) in stage_w.chunks_exact(r * r).zip(s.j_all.chunks_exact_mut(aa)) {
        for (g, &w) in s.g.iter_mut().zip(kernel) {
            *g = w as f64;
        }
        matmul_flat(&t.g.data, &s.g, &mut s.mm_tmp[..a * r], a, r, r);
        matmul_flat(&s.mm_tmp[..a * r], &s.g_t, j, a, r, a);
    }
    for (tile, tile_pi) in pi.chunks_exact_mut(z).enumerate() {
        let (th, tw) = (tile / tiles_w, tile % tiles_w);
        for (dy, row) in s.patch.chunks_exact_mut(a).enumerate() {
            let src = &stage_in[(th * e + dy) * yp + tw * e..][..a];
            for (d, &v) in row.iter_mut().zip(src) {
                *d = v as f64;
            }
        }
        matmul_flat(&t.bt.data, &s.patch, &mut s.mm_tmp, a, a, a);
        matmul_flat(&s.mm_tmp, &s.bt_t, &mut s.p, a, a, a);
        for (dst, j) in tile_pi.iter_mut().zip(s.j_all.chunks_exact(aa)) {
            for (o, (&pv, &jv)) in dst.data.iter_mut().zip(s.p.iter().zip(j)) {
                *o += pv * jv;
            }
        }
    }
}
