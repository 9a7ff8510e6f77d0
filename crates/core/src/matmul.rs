//! Generality check: the classic matrix-multiplication I/O bound derived
//! through the paper's *composite* machinery.
//!
//! The paper's framework (Theorem 4.6) claims to cover "any arbitrary
//! composite algorithm". Dense `C = A·B` is the canonical test: it has the
//! same two-step structure as the direct convolution — a product step
//! (`n³` elementwise products `a_ik·b_kj`) followed by summation trees
//! (one per output, `n` leaves each) — and its optimal I/O is the textbook
//! `Θ(n³/√S)` (Hong & Kung 1981; Kwasniewski et al. 2019 sharpened the
//! constant to `2n³/√S`).
//!
//! Step 1's generation bound mirrors Lemma 4.9 with reuse factor `R`
//! replaced by the operand reuse of GEMM: a dominator budget of `h`
//! entries of `A` and `B` can generate at most `2S√h` products when the
//! minimum set is capped at `S` (the same `k₀ ≤ √h`-row counting argument,
//! with each `A`-entry reusable by at most the `S` active outputs' columns
//! — we keep the paper's √-form with R = 1 per-pair reuse folded into the
//! constant). Step 2 is Lemma 4.10 verbatim. The result reproduces the
//! `n³/√S` law with a constant within the same factor-of-4 family the
//! paper's conv bound carries.

use crate::phi_psi::{DirectProductStep, StepBound, SummationTreeStep};

/// Square matmul problem `C[n x n] = A[n x n] * B[n x n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulShape {
    pub n: usize,
}

impl MatmulShape {
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self { n }
    }

    /// Computed (internal + output) DAG vertices: `n³` products plus
    /// `n² (n - 1)` summation-tree vertices (Lemma 4.7 with `k = n`) —
    /// `2n³ - n²` in total, the matmul analogue of Lemma 4.8.
    pub fn vertex_count(&self) -> u64 {
        let n = self.n as u64;
        2 * n * n * n - n * n
    }
}

/// Step-bound sequence for matmul: the product step behaves like the
/// direct convolution's with unit sliding-window reuse (each `(a, b)` pair
/// multiplies once), so `phi_1(h) <= 2S sqrt(h)`.
pub fn matmul_steps() -> Vec<Box<dyn StepBound>> {
    vec![Box::new(DirectProductStep { reuse: 1.0 }), Box::new(SummationTreeStep)]
}

/// The composite-machinery matmul bound:
/// `Q >= (2n^3 - n^2) / (8 sqrt(2S) + 2 - 1/S) - S = Omega(n^3 / sqrt(S))`.
pub fn io_lower_bound(shape: &MatmulShape, s: f64) -> f64 {
    let v = shape.vertex_count() as f64;
    let denom = 8.0 * (2.0 * s).sqrt() + 2.0 - 1.0 / s;
    (v / denom - s).max(0.0)
}

/// I/O of the classic blocked GEMM schedule (square `b x b` output blocks
/// with `b = sqrt(S)` resident, operands streamed):
/// `Q ~= 2 n^3 / sqrt(S) + n^2` — the matmul analogue of Eq. 21.
pub fn blocked_schedule_io(shape: &MatmulShape, s: f64) -> f64 {
    let n = shape.n as f64;
    2.0 * n * n * n / s.sqrt() + n * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite;
    use crate::composite::t_bound;

    /// `T(S)` closed form, mirroring Lemma 4.11 with `R = 1`:
    /// `T(S) <= 4 S sqrt(S) + S - 1`.
    fn t_closed(s: f64) -> f64 {
        4.0 * s * s.sqrt() + s - 1.0
    }

    #[test]
    fn vertex_count_matches_tree_structure() {
        // n = 4: 64 products + 16 trees of (4-2) internal + 1 output.
        let m = MatmulShape::new(4);
        assert_eq!(m.vertex_count(), 64 + 16 * 3);
    }

    #[test]
    fn closed_t_matches_numeric_t() {
        let steps = matmul_steps();
        for s in [64.0, 1024.0, 16384.0] {
            let numeric = t_bound(&steps, s).t;
            let closed = t_closed(s);
            assert!(numeric <= closed * 1.0001, "S={s}: {numeric} > {closed}");
            assert!(numeric >= 0.999 * closed, "S={s}: {numeric} << {closed}");
        }
    }

    #[test]
    fn generic_theorem_matches_closed_bound() {
        let m = MatmulShape::new(512);
        let s = 1024.0;
        let generic = composite::io_lower_bound(&matmul_steps(), m.vertex_count() as f64, s);
        let closed = io_lower_bound(&m, s);
        let rel = (generic - closed).abs() / closed;
        assert!(rel < 0.02, "generic {generic} closed {closed}");
    }

    #[test]
    fn reproduces_the_inverse_sqrt_s_law() {
        let m = MatmulShape::new(1024);
        let q1 = io_lower_bound(&m, 256.0);
        let q4 = io_lower_bound(&m, 1024.0);
        let ratio = q1 / q4;
        assert!((1.9..2.1).contains(&ratio), "not 1/sqrt(S): {ratio}");
    }

    #[test]
    fn blocked_gemm_dominates_the_bound() {
        for n in [256usize, 1024] {
            let m = MatmulShape::new(n);
            for s in [256.0, 4096.0] {
                let q = blocked_schedule_io(&m, s);
                let lb = io_lower_bound(&m, s);
                assert!(q >= lb, "n={n} S={s}: blocked {q} < bound {lb}");
                // ... and within the generic bound's constant family
                // (8sqrt(2)/... ~ 23x between loose bound and schedule).
                assert!(q < 32.0 * lb.max(1.0), "n={n} S={s}: gap too large");
            }
        }
    }

    #[test]
    fn conv_with_1x1_kernel_degenerates_to_matmul_law() {
        // A 1x1-kernel convolution IS a matmul (C_out x C_in by
        // C_in x HW): both bounds must scale identically in S.
        use crate::shapes::ConvShape;
        let conv = ConvShape::square(256, 32, 256, 1, 1, 0);
        let m = MatmulShape::new(256); // same order of work
                                       // Same 1/sqrt(S) law (both ratios ~2 for a 4x S step); the small
                                       // spread comes from the -S slack at different problem volumes.
        let rc = crate::direct::io_lower_bound(&conv, 1024.0)
            / crate::direct::io_lower_bound(&conv, 4096.0);
        let rm = io_lower_bound(&m, 1024.0) / io_lower_bound(&m, 4096.0);
        assert!((rc - rm).abs() < 0.25, "conv {rc} vs matmul {rm}");
        assert!((1.8..2.3).contains(&rc) && (1.8..2.3).contains(&rm));
    }
}
