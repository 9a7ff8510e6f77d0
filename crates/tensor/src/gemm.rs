//! Blocked, multi-threaded GEMM: `C = A * B` for row-major `f32` matrices.
//!
//! This is the compute substrate behind the im2col convolution path (the
//! cuDNN-style baseline); the Winograd paths run their elementwise stage
//! with their own batched kernels, not through here. It uses classic
//! cache blocking (MC x KC x NC macro-tiles) around one register
//! micro-kernel: a 6-row micro-tile with fixed-width `[f32; LANES]` lane
//! accumulators and unrolled K-steps, written so the autovectorizer must
//! keep each output element in a SIMD lane. On `x86_64` the same body is
//! dispatched (by [`Isa::detect`]) to a `6x32` clone compiled with
//! 512-bit vectors when AVX-512F is present, else a `6x16` AVX2 clone,
//! else the `6x16` baseline build; no FMA — fused multiply-add would
//! change rounding.
//!
//! Every `C[i][j]` is a serial left-fold over `k` in ascending order, one
//! accumulator per element and `KC` block, so the micro-tile shape and
//! the lane width only change *which* independent folds run together,
//! never the order of terms within one: the kernel equals
//! [`gemm_reference`] bit for bit. The M dimension is split across rayon
//! workers — each worker owns a disjoint row band of `C`, so no
//! synchronisation is needed and the result is bit-identical to the
//! serial computation regardless of thread count.

use crate::kernel::Isa;
use rayon::prelude::*;

/// Row-major matrix view: `rows x cols`, leading dimension = `cols`.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    pub data: &'a [f32],
    pub rows: usize,
    pub cols: usize,
}

impl<'a> MatRef<'a> {
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer size mismatch");
        Self { data, rows, cols }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }
}

// Macro-tile sizes tuned for ~32 KiB L1 / 1 MiB L2; correctness does not
// depend on them (tests sweep odd sizes).
const MC: usize = 64;
const KC: usize = 512;
const NC: usize = 512;
// Register micro-tile: 6x16 = 12 lane-chunk accumulators of
// [f32; LANES], which together with two B-row chunks and one broadcast
// fits the 16 architectural 256-bit registers of AVX2.
const MR: usize = 6;
const NR: usize = 16;
// Elements per vector-kernel accumulator chunk (one 256-bit register
// of `f32`, or two 128-bit ones on SSE-only targets).
const LANES: usize = 8;
// AVX-512 tier: same 6-row tile, doubled lane width (6x32 = twelve
// 512-bit accumulators; zmm has 32 architectural registers, so the two
// B chunks and the broadcast fit with room to spare).
const NR512: usize = 32;
const LANES512: usize = 16;
// K-step unroll depth of the vector micro-kernel.
const KU: usize = 2;

// Every micro-panel width must divide NC: the shared packed-B slots of
// the parallel path are sized KC * NC, which covers a padded partial
// panel only when NC is a multiple of the panel width.
const _: () = assert!(NC.is_multiple_of(NR) && NC.is_multiple_of(NR512));

/// A register micro-kernel: accumulates an `mr x nr` tile of `C` from
/// packed A/B panels over `kc` terms. Passed as a generic (not a fn
/// pointer) so each driver monomorphizes with its kernel inlined.
trait MicroKernel: Fn(&[f32], &[f32], usize, &mut [f32], usize, usize, usize, usize) + Sync {}
impl<F: Fn(&[f32], &[f32], usize, &mut [f32], usize, usize, usize, usize) + Sync> MicroKernel
    for F
{
}

/// `$driver::<NR, _>($args.., &micro)` with the micro-tile width and
/// micro-kernel clone of the widest tier [`Isa::detect`] allows.
macro_rules! dispatch_micro {
    ($driver:ident($($arg:expr),*)) => {
        match Isa::detect() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => $driver::<NR512, _>($($arg,)* &vector_micro_avx512()),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => $driver::<NR, _>($($arg,)* &vector_micro_avx2()),
            _ => $driver::<NR, _>($($arg,)* &micro_kernel_vector_portable),
        }
    };
}

/// Single-threaded blocked GEMM: `c += a * b`. `c` must be
/// `a.rows * b.cols`, row-major.
fn gemm_acc_driver<const NRP: usize, F: MicroKernel>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    micro: &F,
) {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    assert_eq!(c.len(), a.rows * b.cols, "output buffer size mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);

    let mut a_pack = vec![0.0f32; MC.div_ceil(MR) * MR * KC];
    let mut b_pack = vec![0.0f32; KC * NC];

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b::<NRP>(b, pc, jc, kc, nc, &mut b_pack);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(a, ic, pc, mc, kc, &mut a_pack);
                macro_kernel::<NRP, _>(&a_pack, &b_pack, c, ic, jc, mc, nc, kc, n, micro);
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Packs an `mc x kc` block of `a` into row-panels of height `MR`.
fn pack_a(a: MatRef<'_>, ic: usize, pc: usize, mc: usize, kc: usize, out: &mut [f32]) {
    let mut dst = 0;
    let mut i = 0;
    while i < mc {
        let mr = MR.min(mc - i);
        for p in 0..kc {
            let col = &mut out[dst..dst + MR];
            for (r, slot) in col[..mr].iter_mut().enumerate() {
                *slot = a.at(ic + i + r, pc + p);
            }
            col[mr..].fill(0.0);
            dst += MR;
        }
        i += MR;
    }
}

/// Packs a `kc x nc` block of `b` into column-panels of width `NRP`.
fn pack_b<const NRP: usize>(
    b: MatRef<'_>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    out: &mut [f32],
) {
    let mut dst = 0;
    let mut j = 0;
    while j < nc {
        let nr = NRP.min(nc - j);
        for p in 0..kc {
            let src_at = (pc + p) * b.cols + jc + j;
            let row = &mut out[dst..dst + NRP];
            row[..nr].copy_from_slice(&b.data[src_at..src_at + nr]);
            row[nr..].fill(0.0);
            dst += NRP;
        }
        j += NRP;
    }
}

/// Runs the packed micro-kernels over one macro-tile.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const NRP: usize, F: MicroKernel>(
    a_pack: &[f32],
    b_pack: &[f32],
    c: &mut [f32],
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    ldc: usize,
    micro: &F,
) {
    let mut j = 0;
    while j < nc {
        let nr = NRP.min(nc - j);
        let b_panel = &b_pack[(j / NRP) * kc * NRP..][..kc * NRP];
        let mut i = 0;
        while i < mc {
            let mr = MR.min(mc - i);
            let a_panel = &a_pack[(i / MR) * kc * MR..][..kc * MR];
            micro(a_panel, b_panel, kc, c, (ic + i) * ldc + jc + j, ldc, mr, nr);
            i += MR;
        }
        j += NRP;
    }
}

/// Statement-level unroll over the vector micro-tile's row index: the
/// body is stamped out once per row with `$i` bound to a literal, so
/// every accumulator access below is a compile-time-constant index.
/// That is what lets SROA promote the whole `6x16` accumulator tile
/// into registers — one runtime-indexed access anywhere and the tile
/// falls back to the stack, costing a load+store per lane op (measured
/// ~2.5x slower).
macro_rules! unroll_rows {
    ($i:ident => $body:block) => {{
        {
            let $i: usize = 0;
            $body
        }
        {
            let $i: usize = 1;
            $body
        }
        {
            let $i: usize = 2;
            $body
        }
        {
            let $i: usize = 3;
            $body
        }
        {
            let $i: usize = 4;
            $body
        }
        {
            let $i: usize = 5;
            $body
        }
    }};
}
// unroll_rows! covers exactly 0..MR; vector_step splits B into two chunks.
const _: () = assert!(MR == 6 && NR == 2 * LANES && NR512 == 2 * LANES512);

/// One K-step of the vector micro-kernel: rank-1 update of the full
/// `MR x 2L` accumulator tile from fixed-size panel rows. The
/// `[f32; L]` chunks are the vectorization contract — every lane is an
/// independent output element's fold, so lane width never reorders
/// terms. `L` is the ISA tier's register width in `f32`s (8 for
/// AVX2/portable, 16 for AVX-512); `NRV == 2 * L` always.
#[inline(always)]
fn vector_step<const L: usize, const NRV: usize>(
    acc: &mut [[[f32; L]; 2]; MR],
    a_row: &[f32; MR],
    b_row: &[f32; NRV],
) {
    const { assert!(NRV == 2 * L) }
    let b0: [f32; L] = b_row[..L].try_into().unwrap();
    let b1: [f32; L] = b_row[L..].try_into().unwrap();
    unroll_rows!(i => {
        let av = a_row[i];
        for l in 0..L {
            acc[i][0][l] += av * b0[l];
        }
        for l in 0..L {
            acc[i][1][l] += av * b1[l];
        }
    });
}

/// `MR x NRV` vector micro-kernel body over `kc` terms: ascending `p`,
/// one accumulator per element from `0.0`, added into `c[c_off..]` at the
/// end; K-unrolled by [`KU`]. Edge tiles (`mr < MR` or `nr < NRV`)
/// write partially. Generic over the lane width so each ISA tier below stamps out
/// its own copy; `#[inline(always)]` so each wrapper compiles it with
/// its own target features.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel_vector_body<const L: usize, const NRV: usize>(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    c: &mut [f32],
    c_off: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[[0.0f32; L]; 2]; MR];
    let row_a = |p: usize| -> &[f32; MR] { a_panel[p * MR..].first_chunk().unwrap() };
    let row_b = |p: usize| -> &[f32; NRV] { b_panel[p * NRV..].first_chunk().unwrap() };
    let mut p = 0;
    while p + KU <= kc {
        vector_step::<L, NRV>(&mut acc, row_a(p), row_b(p));
        vector_step::<L, NRV>(&mut acc, row_a(p + 1), row_b(p + 1));
        p += KU;
    }
    while p < kc {
        vector_step::<L, NRV>(&mut acc, row_a(p), row_b(p));
        p += 1;
    }
    // Write-back. Every `acc` index below is a compile-time constant:
    // one runtime-indexed read would make the tile addressable and force
    // the register allocator to keep all accumulators on the stack
    // (measured ~2x slower). Partial tiles go through a spill copy.
    if mr == MR && nr == NRV {
        unroll_rows!(i => {
            let c_row = &mut c[c_off + i * ldc..][..NRV];
            for l in 0..L {
                c_row[l] += acc[i][0][l];
            }
            for l in 0..L {
                c_row[L + l] += acc[i][1][l];
            }
        });
    } else {
        let mut spill = [[0.0f32; NRV]; MR];
        unroll_rows!(i => {
            for l in 0..L {
                spill[i][l] = acc[i][0][l];
            }
            for l in 0..L {
                spill[i][L + l] = acc[i][1][l];
            }
        });
        for i in 0..mr {
            for j in 0..nr {
                c[c_off + i * ldc + j] += spill[i][j];
            }
        }
    }
}

/// Portable vector kernel: the body under the build's baseline features.
#[allow(clippy::too_many_arguments)]
fn micro_kernel_vector_portable(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    c: &mut [f32],
    c_off: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_kernel_vector_body::<LANES, NR>(a_panel, b_panel, kc, c, c_off, ldc, mr, nr);
}

/// The same body autovectorized with 256-bit registers. AVX2 widens the
/// lanes but every lane op is still an exactly-rounded IEEE mul/add, so
/// results stay bit-identical; FMA is deliberately *not* enabled.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn micro_kernel_vector_avx2(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    c: &mut [f32],
    c_off: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_kernel_vector_body::<LANES, NR>(a_panel, b_panel, kc, c, c_off, ldc, mr, nr);
}

/// The widest tier: 512-bit registers, a `6 x 32` micro-tile (twelve
/// zmm accumulators), still no FMA. Wider lanes only map more
/// *independent* element folds per instruction — each `C[i][j]` keeps
/// the exact same serial fold, so this tier too is bit-identical to the
/// others.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_vector_avx512(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    c: &mut [f32],
    c_off: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_kernel_vector_body::<LANES512, NR512>(a_panel, b_panel, kc, c, c_off, ldc, mr, nr);
}

/// Safe shim over the AVX2 kernel. Callers must hold [`Isa::Avx2`] or
/// wider from [`Isa::detect`] — `dispatch_micro!`, the only caller, does.
#[cfg(target_arch = "x86_64")]
fn vector_micro_avx2() -> impl MicroKernel {
    |a: &[f32], b: &[f32], kc: usize, c: &mut [f32], off: usize, ldc: usize, mr: usize, nr: usize|
        // SAFETY: `dispatch_micro!` takes this only on a detected `Isa::Avx2`.
        unsafe { micro_kernel_vector_avx2(a, b, kc, c, off, ldc, mr, nr) }
}

/// Safe shim over the AVX-512 kernel; same detection contract as above.
#[cfg(target_arch = "x86_64")]
fn vector_micro_avx512() -> impl MicroKernel {
    |a: &[f32], b: &[f32], kc: usize, c: &mut [f32], off: usize, ldc: usize, mr: usize, nr: usize|
        // SAFETY: `dispatch_micro!` takes this only on a detected `Isa::Avx512`.
        unsafe { micro_kernel_vector_avx512(a, b, kc, c, off, ldc, mr, nr) }
}

/// Multi-threaded GEMM: `c = a * b` (output overwritten), M split across
/// `threads` workers owning disjoint row bands of `C`. Its bits are
/// [`gemm_reference`]'s.
///
/// `B` is packed **once**, up front, into per-`(jc, pc)` macro-tile
/// panels that every band worker reads; only the (band-private) `A`
/// panels are packed inside the parallel region. The old scheme ran
/// the single-threaded GEMM per band, so each of `t` workers re-packed
/// the whole of `B` — `(t-1) * k * n` redundant pack traffic that grew
/// with the thread count. Each worker still owns a disjoint row band of
/// `C` and runs the same `jc -> pc -> ic` loop nest as the serial path,
/// so the result is bit-identical to `gemm(.., 1)` regardless of thread
/// count.
pub fn gemm(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], threads: usize) {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    assert_eq!(c.len(), a.rows * b.cols, "output buffer size mismatch");
    c.fill(0.0);
    let threads = threads.max(1).min(a.rows.max(1));
    if threads == 1 || a.rows * b.cols < 64 * 64 {
        dispatch_micro!(gemm_acc_driver(a, b, c));
        return;
    }
    dispatch_micro!(gemm_par_driver(a, b, c, threads));
}

fn gemm_par_driver<const NRP: usize, F: MicroKernel>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    threads: usize,
    micro: &F,
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);

    // Pack all of B serially (O(k*n) work against the O(m*k*n) compute
    // split below; the serial fraction vanishes as m grows). Panel
    // (jb, pb) lives at slot `jb * k_blocks + pb`, laid out exactly as
    // `pack_b` emits it.
    let k_blocks = k.div_ceil(KC);
    let n_blocks = n.div_ceil(NC);
    let slot = KC * NC;
    let mut b_pack = vec![0.0f32; k_blocks * n_blocks * slot];
    for jb in 0..n_blocks {
        let jc = jb * NC;
        let nc = NC.min(n - jc);
        for pb in 0..k_blocks {
            let pc = pb * KC;
            let kc = KC.min(k - pc);
            pack_b::<NRP>(b, pc, jc, kc, nc, &mut b_pack[(jb * k_blocks + pb) * slot..][..slot]);
        }
    }
    let b_pack = &b_pack;

    let band = m.div_ceil(threads);
    c.par_chunks_mut(band * n).enumerate().for_each(|(t, band_c)| {
        let row = t * band;
        let rows_here = band.min(m - row);
        let mut a_pack = vec![0.0f32; MC.div_ceil(MR) * MR * KC];
        for jb in 0..n_blocks {
            let jc = jb * NC;
            let nc = NC.min(n - jc);
            for pb in 0..k_blocks {
                let pc = pb * KC;
                let kc = KC.min(k - pc);
                let b_panel = &b_pack[(jb * k_blocks + pb) * slot..][..slot];
                let mut ic = 0;
                while ic < rows_here {
                    let mc = MC.min(rows_here - ic);
                    pack_a(a, row + ic, pc, mc, kc, &mut a_pack);
                    macro_kernel::<NRP, _>(&a_pack, b_panel, band_c, ic, jc, mc, nc, kc, n, micro);
                    ic += MC;
                }
            }
        }
    });
}

/// The bit-exact oracle of [`gemm`]: every `C[i][j]` folds `k` ascending
/// into a partial sum that starts at `0.0` and restarts every `KC` terms,
/// and each block's sum is added into an output that starts at `0.0`.
///
/// That is the kernel's order whatever the micro-tile, lane width or
/// thread count: the blocked loop nest packs one `KC` block at a time and
/// the micro-kernel adds a fresh accumulator into `C` once per block. A
/// plain triple loop differs from it in the last bits once `k > KC`.
pub fn gemm_reference(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    assert_eq!(c.len(), a.rows * b.cols, "output buffer size mismatch");
    for i in 0..a.rows {
        for j in 0..b.cols {
            let mut out = 0.0f32;
            for block in (0..a.cols).step_by(KC) {
                let mut acc = 0.0f32;
                for p in block..a.cols.min(block + KC) {
                    acc += a.at(i, p) * b.at(p, j);
                }
                out += acc;
            }
            c[i * b.cols + j] = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn check_against_reference(m: usize, k: usize, n: usize, threads: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_mat(&mut rng, m, k);
        let b = random_mat(&mut rng, k, n);
        let ar = MatRef::new(&a, m, k);
        let br = MatRef::new(&b, k, n);
        let mut want = vec![0.0; m * n];
        gemm_reference(ar, br, &mut want);
        let mut got = vec![f32::NAN; m * n];
        gemm(ar, br, &mut got, threads);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "({m}x{k}x{n}, t={threads}) bit mismatch at {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn small_exact_sizes() {
        check_against_reference(4, 8, 8, 1, 1);
        check_against_reference(8, 8, 16, 1, 2);
    }

    #[test]
    fn odd_edge_sizes() {
        // Exercise every partial-tile path.
        check_against_reference(1, 1, 1, 1, 3);
        check_against_reference(5, 7, 9, 1, 4);
        check_against_reference(67, 259, 131, 1, 5);
        check_against_reference(3, 300, 11, 1, 6);
    }

    #[test]
    fn multithreaded_matches_reference() {
        check_against_reference(97, 64, 83, 4, 7);
        check_against_reference(256, 128, 64, 8, 8);
        check_against_reference(97, 259, 131, 3, 11);
    }

    #[test]
    fn spanning_multiple_macro_tiles() {
        // `k > KC`: the output adds two partial sums, at one thread and on
        // the row bands.
        for threads in [1, 2, 3, 8] {
            check_against_reference(MC + 3, KC + 5, NC + 7, threads, 9);
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![10.0; 4];
        dispatch_micro!(gemm_acc_driver(MatRef::new(&a, 2, 2), MatRef::new(&b, 2, 2), &mut c));
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn identity_multiplication() {
        let n = 33;
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_mat(&mut rng, n, n);
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut c = vec![0.0; n * n];
        gemm(MatRef::new(&a, n, n), MatRef::new(&eye, n, n), &mut c, 3);
        for (g, w) in c.iter().zip(&a) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = vec![0.0; 6];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 4];
        gemm(MatRef::new(&a, 2, 3), MatRef::new(&b, 2, 3), &mut c, 1);
    }
}
