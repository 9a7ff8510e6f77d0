//! Winograd/Cook–Toom transform-matrix generation for arbitrary
//! `F(e x e, r x r)` (paper §2.3: matrices `A`, `B`, `L`).
//!
//! The 1-D algorithm `F(e, r)` computes `y = A^T [ (G g) ⊙ (B^T d) ]` with
//! `a = e + r - 1` multiplications, where `g` is the `r`-tap filter and `d`
//! the `a`-long input tile. We *derive* the matrices instead of hard-coding
//! them:
//!
//! 1. pick `a - 1` finite evaluation points (`0, 1, -1, 2, -2, ...`) plus
//!    the point at infinity;
//! 2. take `A^T` and `G` as the Vandermonde evaluation maps at those
//!    points (the infinity point becomes a unit row/column selecting the
//!    top coefficient);
//! 3. solve the bilinear identity
//!    `sum_l A^T[i,l] G[l,j] B^T[l,k] = [k == i + j]` for `B^T` — an
//!    overdetermined but consistent `(e*r) x a` linear system per column,
//!    solved by normal equations + Gaussian elimination.
//!
//! The derived matrices are validated in three ways: the residual of the
//! bilinear identity is checked at generation time; unit tests compare the
//! end-to-end pipeline against the canonical Lavin–Gray `F(2,3)`/`F(4,3)`
//! constants; and `winograd_conv` property-tests the full 2-D convolution
//! against the direct reference.
//!
//! 2-D tiles nest the 1-D algorithm:
//! `Y = A^T [ (G g G^T) ⊙ (B^T d B) ] A`.

/// Small dense row-major `f64` matrix — the substrate for transform
/// generation (tiny sizes, clarity over speed).
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Mat {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows[0].len();
        let mut m = Mat::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// `self * other`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul dim mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.at(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    *out.at_mut(i, j) += a * other.at(k, j);
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                *out.at_mut(j, i) = self.at(i, j);
            }
        }
        out
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut out = self.clone();
        for (o, b) in out.data.iter_mut().zip(&other.data) {
            *o *= b;
        }
        out
    }

    /// Max absolute difference.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// `out = lhs * rhs` over flat row-major `f64` slices (`m x k` times
/// `k x n`), preserving [`Mat::matmul`]'s fold order **exactly**: for
/// each output row, `k` ascends and rows of `rhs` whose `lhs`
/// coefficient is zero are skipped, so every `out[i][j]` sees the same
/// terms in the same order as [`Mat::matmul`] (the skip matters —
/// `-0.0 + 0.0*b` can flip a sign bit). The inner loop is a unit-stride
/// axpy over the output row: independent element folds side by side,
/// the shape the autovectorizer maps onto SIMD lanes. This is the
/// allocation-free substrate of the vectorized Winograd paths.
///
/// `#[inline(always)]` so a caller compiled for a wider instruction set
/// (an [`Isa`](crate::kernel::Isa) clone) gets this loop nest compiled
/// for it too, not a call into the baseline build.
#[inline(always)]
pub fn matmul_flat(lhs: &[f64], rhs: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for i in 0..m {
        let out_row = &mut out[i * n..][..n];
        for p in 0..k {
            let a = lhs[i * k + p];
            if a == 0.0 {
                continue;
            }
            let rhs_row = &rhs[p * n..][..n];
            for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                *o += a * b;
            }
        }
    }
}

/// The right half of a two-sided transform over `lanes` independent
/// matrices at once: `src` holds `lanes` row-major `m x k` matrices
/// interleaved lane-minor (`src[(i * k + p) * lanes + l]`), `coef` is one
/// `k x n` coefficient matrix, and
/// `out[(i * n + j) * lanes + l] = Σ_p src[(i * k + p) * lanes + l] * coef[p * n + j]`
/// with `p` ascending from `+0.0` — per lane, the fold of
/// `Mat::matmul(src_l, coef)`.
///
/// The left half needs no twin: with the data on the right,
/// [`matmul_flat`] over `n * lanes` columns already *is* the lane-batched
/// product, and it keeps [`Mat::matmul`]'s skip of zero **coefficients**.
/// Here the data is the left operand and [`Mat::matmul`] would skip zero
/// **data** terms, a branch per lane. This loop is dense instead, and no
/// bit can tell: an accumulator that starts at `+0.0` is never `-0.0`
/// (round-to-nearest yields `-0.0` only from `-0.0 + -0.0`), a skipped
/// term is `0 * finite = ±0`, and `acc + ±0 == acc` bit for bit when
/// `acc` is not `-0.0`. Non-zero data — infinities and NaNs included —
/// is skipped by neither form. (The coefficients are transform-matrix
/// entries, so always finite.)
///
/// `#[inline(always)]` for the same reason as [`matmul_flat`].
#[inline(always)]
pub fn matmul_lanes_right(
    src: &[f64],
    coef: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    lanes: usize,
) {
    debug_assert_eq!(src.len(), m * k * lanes);
    debug_assert_eq!(coef.len(), k * n);
    debug_assert_eq!(out.len(), m * n * lanes);
    let l = lanes_right_blocks::<32>(src, coef, out, m, k, n, lanes, 0);
    let l = lanes_right_blocks::<8>(src, coef, out, m, k, n, lanes, l);
    lanes_right_blocks::<1>(src, coef, out, m, k, n, lanes, l);
}

/// [`matmul_lanes_right`] over lanes `l..` in blocks of `W` while a whole
/// block fits; returns the first lane left over. A block's `W` folds
/// live in registers from `+0.0` to the store.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lanes_right_blocks<const W: usize>(
    src: &[f64],
    coef: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    lanes: usize,
    mut l: usize,
) -> usize {
    while l + W <= lanes {
        for i in 0..m {
            for j in 0..n {
                let mut acc = [0.0f64; W];
                for p in 0..k {
                    let c = coef[p * n + j];
                    let s = &src[(i * k + p) * lanes + l..][..W];
                    for w in 0..W {
                        acc[w] += s[w] * c;
                    }
                }
                out[(i * n + j) * lanes + l..][..W].copy_from_slice(&acc);
            }
        }
        l += W;
    }
    l
}

/// Solves `m x = b` by Gaussian elimination with partial pivoting.
/// `m` must be square and non-singular.
pub fn solve(m: &Mat, b: &[f64]) -> Vec<f64> {
    assert_eq!(m.rows, m.cols, "solve requires a square system");
    assert_eq!(b.len(), m.rows);
    let n = m.rows;
    let mut a = m.clone();
    let mut x: Vec<f64> = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        for r in col + 1..n {
            if a.at(r, col).abs() > a.at(piv, col).abs() {
                piv = r;
            }
        }
        assert!(a.at(piv, col).abs() > 1e-12, "singular system at column {col}");
        if piv != col {
            for j in 0..n {
                let tmp = a.at(col, j);
                *a.at_mut(col, j) = a.at(piv, j);
                *a.at_mut(piv, j) = tmp;
            }
            x.swap(col, piv);
        }
        // Eliminate below.
        for r in col + 1..n {
            let f = a.at(r, col) / a.at(col, col);
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                let v = a.at(col, j) * f;
                *a.at_mut(r, j) -= v;
            }
            x[r] -= x[col] * f;
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        x[col] /= a.at(col, col);
        let xc = x[col];
        for r in 0..col {
            x[r] -= a.at(r, col) * xc;
        }
    }
    x
}

/// The generated 1-D transform triple for `F(e, r)`.
#[derive(Debug, Clone)]
pub struct Transforms {
    /// Output tile edge.
    pub e: usize,
    /// Kernel edge.
    pub r: usize,
    /// `A^T`: `e x a` output interpolation map.
    pub at: Mat,
    /// `G` (the paper's `L`): `a x r` kernel evaluation map.
    pub g: Mat,
    /// `B^T`: `a x a` input transform.
    pub bt: Mat,
}

impl Transforms {
    /// Input tile edge `a = e + r - 1`.
    pub fn a(&self) -> usize {
        self.e + self.r - 1
    }
}

/// Standard evaluation-point sequence: `0, 1, -1, 2, -2, 3, -3, ...`
/// (small-magnitude points keep the Vandermonde systems well conditioned).
pub fn standard_points(count: usize) -> Vec<f64> {
    let mut pts = Vec::with_capacity(count);
    pts.push(0.0);
    let mut k = 1.0;
    while pts.len() < count {
        pts.push(k);
        if pts.len() < count {
            pts.push(-k);
        }
        k += 1.0;
    }
    pts.truncate(count);
    pts
}

/// Generates the `F(e, r)` transforms via Cook–Toom. Panics if the bilinear
/// identity residual exceeds `1e-8` (it never does for the tile sizes the
/// paper uses, `a <= 8`).
pub fn generate(e: usize, r: usize) -> Transforms {
    assert!(e >= 1 && r >= 1, "F(e,r) requires positive e, r");
    let a = e + r - 1;
    let pts = standard_points(a - 1);

    // A^T: e x a. Finite column l: p_l^i. Infinity column: e_{e-1}.
    let mut at = Mat::zeros(e, a);
    for i in 0..e {
        for (l, &p) in pts.iter().enumerate() {
            *at.at_mut(i, l) = p.powi(i as i32);
        }
    }
    *at.at_mut(e - 1, a - 1) = 1.0;

    // G: a x r. Finite row l: p_l^j. Infinity row: e_{r-1}.
    let mut g = Mat::zeros(a, r);
    for (l, &p) in pts.iter().enumerate() {
        for j in 0..r {
            *g.at_mut(l, j) = p.powi(j as i32);
        }
    }
    *g.at_mut(a - 1, r - 1) = 1.0;

    // Solve for B^T column by column: E x = b_k with
    // E[(i,j), l] = A^T[i,l] * G[l,j], b_k[(i,j)] = [k == i+j].
    // E is (e*r) x a with rank a (consistent system); use normal equations.
    let mut e_mat = Mat::zeros(e * r, a);
    for i in 0..e {
        for j in 0..r {
            for l in 0..a {
                *e_mat.at_mut(i * r + j, l) = at.at(i, l) * g.at(l, j);
            }
        }
    }
    let ete = e_mat.t().matmul(&e_mat); // a x a
    let mut bt = Mat::zeros(a, a);
    for k in 0..a {
        let mut b = vec![0.0; e * r];
        for i in 0..e {
            for j in 0..r {
                if i + j == k {
                    b[i * r + j] = 1.0;
                }
            }
        }
        // Normal equations RHS: E^T b.
        let mut etb = vec![0.0; a];
        for l in 0..a {
            for row in 0..e * r {
                etb[l] += e_mat.at(row, l) * b[row];
            }
        }
        let x = solve(&ete, &etb);
        // Verify consistency of the overdetermined system.
        for (row, &want) in b.iter().enumerate() {
            let got: f64 = (0..a).map(|l| e_mat.at(row, l) * x[l]).sum();
            assert!(
                (got - want).abs() < 1e-8,
                "F({e},{r}): bilinear identity residual {} at row {row}",
                (got - want).abs()
            );
        }
        for (l, &v) in x.iter().enumerate() {
            *bt.at_mut(l, k) = v;
        }
    }

    Transforms { e, r, at, g, bt }
}

/// Canonical Lavin–Gray `F(2,3)` constants — used as a unit-test oracle for
/// the generator (points `0, 1, -1` + infinity, conventional scaling).
pub fn canonical_f2x3() -> Transforms {
    let bt = Mat::from_rows(&[
        &[1.0, 0.0, -1.0, 0.0],
        &[0.0, 1.0, 1.0, 0.0],
        &[0.0, -1.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, -1.0],
    ]);
    let g =
        Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.5, 0.5, 0.5], &[0.5, -0.5, 0.5], &[0.0, 0.0, 1.0]]);
    let at = Mat::from_rows(&[&[1.0, 1.0, 1.0, 0.0], &[0.0, 1.0, -1.0, -1.0]]);
    Transforms { e: 2, r: 3, at, g, bt }
}

/// Canonical Lavin–Gray `F(4,3)` constants (points `0, 1, -1, 2, -2` + inf).
pub fn canonical_f4x3() -> Transforms {
    let bt = Mat::from_rows(&[
        &[4.0, 0.0, -5.0, 0.0, 1.0, 0.0],
        &[0.0, -4.0, -4.0, 1.0, 1.0, 0.0],
        &[0.0, 4.0, -4.0, -1.0, 1.0, 0.0],
        &[0.0, -2.0, -1.0, 2.0, 1.0, 0.0],
        &[0.0, 2.0, -1.0, -2.0, 1.0, 0.0],
        &[0.0, 4.0, 0.0, -5.0, 0.0, 1.0],
    ]);
    let g = Mat::from_rows(&[
        &[0.25, 0.0, 0.0],
        &[-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0],
        &[-1.0 / 6.0, 1.0 / 6.0, -1.0 / 6.0],
        &[1.0 / 24.0, 1.0 / 12.0, 1.0 / 6.0],
        &[1.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0],
        &[0.0, 0.0, 1.0],
    ]);
    let at = Mat::from_rows(&[
        &[1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
        &[0.0, 1.0, -1.0, 2.0, -2.0, 0.0],
        &[0.0, 1.0, 1.0, 4.0, 4.0, 0.0],
        &[0.0, 1.0, -1.0, 8.0, -8.0, 1.0],
    ]);
    Transforms { e: 4, r: 3, at, g, bt }
}

/// Applies the 1-D pipeline: `y = A^T [ (G g) ⊙ (B^T d) ]`.
pub fn apply_1d(t: &Transforms, g: &[f64], d: &[f64]) -> Vec<f64> {
    assert_eq!(g.len(), t.r);
    assert_eq!(d.len(), t.a());
    let a = t.a();
    let mut gg = vec![0.0; a];
    let mut dd = vec![0.0; a];
    for l in 0..a {
        for j in 0..t.r {
            gg[l] += t.g.at(l, j) * g[j];
        }
        for k in 0..a {
            dd[l] += t.bt.at(l, k) * d[k];
        }
    }
    let mut y = vec![0.0; t.e];
    for i in 0..t.e {
        for l in 0..a {
            y[i] += t.at.at(i, l) * gg[l] * dd[l];
        }
    }
    y
}

/// Direct 1-D valid correlation oracle: `y_i = sum_j d_{i+j} g_j`.
pub fn correlate_1d(g: &[f64], d: &[f64]) -> Vec<f64> {
    let e = d.len() + 1 - g.len();
    (0..e).map(|i| g.iter().enumerate().map(|(j, &gj)| gj * d[i + j]).sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn standard_points_distinct() {
        let pts = standard_points(7);
        assert_eq!(pts, vec![0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]);
    }

    #[test]
    fn solve_small_system() {
        let m = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&m, &[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let m = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&m, &[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    fn check_1d(e: usize, r: usize, seed: u64) {
        let t = generate(e, r);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let g: Vec<f64> = (0..r).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let d: Vec<f64> = (0..t.a()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let got = apply_1d(&t, &g, &d);
            let want = correlate_1d(&g, &d);
            for (gv, wv) in got.iter().zip(&want) {
                assert!((gv - wv).abs() < 1e-9, "F({e},{r}): {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn generated_f2x3_computes_correlation() {
        check_1d(2, 3, 1);
    }

    #[test]
    fn generated_f4x3_computes_correlation() {
        check_1d(4, 3, 2);
    }

    #[test]
    fn generated_f3x2_and_f3x4_compute_correlation() {
        check_1d(3, 2, 3);
        check_1d(3, 4, 4);
    }

    #[test]
    fn generated_f6x3_computes_correlation() {
        // Large tile: a = 8, points up to +-3 — still well conditioned.
        check_1d(6, 3, 5);
    }

    #[test]
    fn degenerate_f1xr_is_plain_dot_product() {
        check_1d(1, 3, 6);
        check_1d(1, 1, 7);
    }

    #[test]
    fn canonical_f2x3_matches_direct() {
        let t = canonical_f2x3();
        let g = [0.3, -0.7, 0.2];
        let d = [1.0, 2.0, -1.0, 0.5];
        let got = apply_1d(&t, &g, &d);
        let want = correlate_1d(&g, &d);
        for (gv, wv) in got.iter().zip(&want) {
            assert!((gv - wv).abs() < 1e-12);
        }
    }

    #[test]
    fn canonical_f4x3_matches_direct() {
        let t = canonical_f4x3();
        let g = [0.5, 0.25, -0.125];
        let d = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
        let got = apply_1d(&t, &g, &d);
        let want = correlate_1d(&g, &d);
        for (gv, wv) in got.iter().zip(&want) {
            assert!((gv - wv).abs() < 1e-9);
        }
    }

    #[test]
    fn generated_agrees_with_canonical_pipeline() {
        // Different scalings, same bilinear map: outputs must agree.
        let gen = generate(2, 3);
        let canon = canonical_f2x3();
        let g = [0.1, 0.9, -0.4];
        let d = [0.7, -0.3, 0.2, 1.1];
        let a = apply_1d(&gen, &g, &d);
        let b = apply_1d(&canon, &g, &d);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn mat_ops() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![2.0, 1.0, 4.0, 3.0]);
        assert_eq!(a.t().data, vec![1.0, 3.0, 2.0, 4.0]);
        let h = a.hadamard(&b);
        assert_eq!(h.data, vec![0.0, 2.0, 3.0, 0.0]);
    }

    /// `lanes` matrices of `rows x cols` in the flat lane-minor layout,
    /// seeded with the values the batched products must not trip on:
    /// both zeros, pairs that cancel exactly, and ordinary fractions.
    fn lane_matrices(rows: usize, cols: usize, lanes: usize, rng: &mut StdRng) -> Vec<Mat> {
        (0..lanes)
            .map(|_| {
                let mut m = Mat::zeros(rows, cols);
                for v in m.data.iter_mut() {
                    *v = match rng.gen_range(0..6) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1.0,
                        3 => -1.0,
                        _ => rng.gen_range(-1.0..1.0f32) as f64,
                    };
                }
                m
            })
            .collect()
    }

    fn interleave(mats: &[Mat]) -> Vec<f64> {
        let len = mats[0].data.len();
        (0..len).flat_map(|at| mats.iter().map(move |m| m.data[at])).collect()
    }

    /// `left * data * right` for every lane at once — [`matmul_flat`]
    /// over widened columns, then [`matmul_lanes_right`] — against the
    /// per-matrix [`Mat::matmul`] chain, bit for bit.
    fn check_two_sided(left: &Mat, right: &Mat, lanes: usize, rng: &mut StdRng) {
        let (m, k, n) = (left.rows, left.cols, right.cols);
        let data = lane_matrices(k, right.rows, lanes, rng);
        let flat = interleave(&data);
        let mut half = vec![0.0; m * right.rows * lanes];
        matmul_flat(&left.data, &flat, &mut half, m, k, right.rows * lanes);
        let mut got = vec![f64::NAN; m * n * lanes];
        matmul_lanes_right(&half, &right.data, &mut got, m, right.rows, n, lanes);
        for (l, d) in data.iter().enumerate() {
            let want = left.matmul(d).matmul(right);
            for (at, w) in want.data.iter().enumerate() {
                assert_eq!(
                    got[at * lanes + l].to_bits(),
                    w.to_bits(),
                    "lane {l} of {lanes}, element {at}: {} vs {w}",
                    got[at * lanes + l]
                );
            }
        }
    }

    #[test]
    fn batched_transforms_equal_the_per_matrix_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for (e, r) in [(2, 3), (4, 3)] {
            let t = generate(e, r);
            for lanes in [1, 3, 8, 28, 49] {
                check_two_sided(&t.bt, &t.bt.t(), lanes, &mut rng); // B^T d B
                check_two_sided(&t.g, &t.g.t(), lanes, &mut rng); // G g G^T
                check_two_sided(&t.at, &t.at.t(), lanes, &mut rng); // A^T Pi A
            }
        }
    }

    /// The case the dense right product has to get right: a zero
    /// *data* term, which [`Mat::matmul`] skips and the dense fold adds
    /// as `-0.0 * c = ∓0.0` — onto an accumulator that is `+0.0`, not
    /// `-0.0`, so both end on `+0.0`.
    #[test]
    fn dense_right_product_keeps_the_sign_of_zero() {
        let tmp = Mat::from_rows(&[&[-0.0, 1.0]]);
        let coef = Mat::from_rows(&[&[1.0, -1.0], &[0.0, -0.0]]);
        let want = tmp.matmul(&coef);
        let mut got = [f64::NAN; 2];
        matmul_lanes_right(&tmp.data, &coef.data, &mut got, 1, 2, 2, 1);
        assert_eq!(got.map(f64::to_bits), [want.data[0].to_bits(), want.data[1].to_bits()]);
    }

    #[test]
    fn multiplication_count_is_a() {
        // The whole point of Winograd: F(2,3) uses 4 multiplies, not 6.
        let t = generate(2, 3);
        assert_eq!(t.a(), 4);
        assert_eq!(t.at.cols, 4);
        assert_eq!(t.g.rows, 4);
    }
}
