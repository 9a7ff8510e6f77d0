//! The general composite-algorithm lower bound (paper §4.1.3–4.1.4).
//!
//! Given a multi-step partition of a DAG into `n` sub-computations with
//! vertex-generation bounds `phi_j` / `psi_j`, Theorem 4.5 bounds the size
//! of any S-partition class by
//!
//! ```text
//! T(S) = S + max_{k_1+..+k_n <= S} ( phi_1(a_1) + ... + phi_n(a_n) ),
//!        a_1 = k_1,  a_j = k_j + psi_{j-1}(a_{j-1})
//! ```
//!
//! and Theorem 4.6 turns that into the I/O lower bound
//! `Q >= S * (|V| / T(2S) - 1)`.
//!
//! `T(S)` is a maximisation over a simplex of budget splits. The paper
//! evaluates it analytically for its two algorithms; we evaluate it
//! *numerically* for arbitrary step sequences so the theory is usable on new
//! composite algorithms. Because every `phi_j`/`psi_j` is non-decreasing,
//! the maximum is attained with the whole budget spent, so we search the
//! `(n-1)`-simplex by recursive coarse-to-fine grid refinement.

use crate::phi_psi::StepBound;

/// Evaluates the inner sum of Theorem 4.5 for a concrete budget split.
///
/// `ks` are the per-step budgets `k_j`; `s` is the fast-memory size (some
/// step bounds depend on it directly).
pub(crate) fn nested_sum(steps: &[Box<dyn StepBound>], s: f64, ks: &[f64]) -> f64 {
    assert_eq!(steps.len(), ks.len(), "one budget per step");
    let mut total = 0.0;
    let mut carry = 0.0; // psi_{j-1}(a_{j-1}); zero before the first step
    for (step, &k) in steps.iter().zip(ks) {
        let a = k + carry;
        total += step.phi(s, a);
        carry = step.psi(s, a);
    }
    total
}

/// Result of the `T(S)` maximisation.
#[derive(Debug, Clone)]
pub struct TBound {
    /// The bound `T(S)`.
    pub t: f64,
    /// The maximising budget split (informative; coordinates sum to <= S).
    pub split: Vec<f64>,
}

/// Numerically evaluates `T(S)` (Theorem 4.5, Eq. 5).
///
/// Uses recursive grid refinement on the budget simplex: at each level, each
/// free coordinate is sampled on a grid; the best cell is then refined. The
/// functions are smooth in practice (power laws, mins), so a handful of
/// refinement levels reach well under 0.1% relative error — the tests
/// validate this against the closed forms of Lemmas 4.11 and 4.19.
pub fn t_bound(steps: &[Box<dyn StepBound>], s: f64) -> TBound {
    assert!(!steps.is_empty(), "need at least one step");
    assert!(s > 0.0, "fast memory must be positive");
    let n = steps.len();
    if n == 1 {
        // Single-step algorithm: spend everything on the one step.
        return TBound { t: s + steps[0].phi(s, s), split: vec![s] };
    }

    // Free coordinates: k_1..k_{n-1}; k_n = S - sum (clamped at 0).
    let free = n - 1;
    // Grid resolution per level, chosen so that even 3 free dims stay cheap
    // (13^3 = 2197 evaluations per level).
    let grid = if free <= 1 { 65 } else { 13 };
    let levels = 6;

    let mut lo = vec![0.0f64; free];
    let mut hi = vec![s; free];
    let mut best_val = f64::NEG_INFINITY;
    let mut best_ks = vec![0.0f64; n];

    let mut idx = vec![0usize; free];
    let mut ks = vec![0.0f64; n];
    for _level in 0..levels {
        let mut level_best = f64::NEG_INFINITY;
        let mut level_best_pt = vec![0.0f64; free];
        idx.iter_mut().for_each(|i| *i = 0);
        'outer: loop {
            // Materialise the candidate point.
            let mut sum = 0.0;
            for d in 0..free {
                let frac = idx[d] as f64 / (grid - 1) as f64;
                ks[d] = lo[d] + frac * (hi[d] - lo[d]);
                sum += ks[d];
            }
            if sum <= s + 1e-9 {
                ks[n - 1] = (s - sum).max(0.0);
                let v = nested_sum(steps, s, &ks);
                if v > level_best {
                    level_best = v;
                    level_best_pt.copy_from_slice(&ks[..free]);
                }
                if v > best_val {
                    best_val = v;
                    best_ks.copy_from_slice(&ks);
                }
            }
            // Odometer increment.
            for d in 0..free {
                idx[d] += 1;
                if idx[d] < grid {
                    continue 'outer;
                }
                idx[d] = 0;
            }
            break;
        }
        // Refine around the level's best point: shrink each range to the
        // two neighbouring grid cells.
        for d in 0..free {
            let span = (hi[d] - lo[d]) / (grid - 1) as f64;
            lo[d] = (level_best_pt[d] - span).max(0.0);
            hi[d] = (level_best_pt[d] + span).min(s);
        }
    }

    TBound { t: s + best_val, split: best_ks }
}

/// The general I/O lower bound of Theorem 4.6:
/// `Q >= S * (|V| / T(2S) - 1)`, clamped at zero.
///
/// `v` is the number of internal + output vertices of the DAG (the vertices
/// that must be *computed*; pure inputs are excluded exactly as in the
/// paper's vertex counts of Lemmas 4.8/4.14).
pub fn io_lower_bound(steps: &[Box<dyn StepBound>], v: f64, s: f64) -> f64 {
    let t2s = t_bound(steps, 2.0 * s).t;
    (s * (v / t2s - 1.0)).max(0.0)
}

/// Same bound, but with a caller-supplied `T(2S)` (e.g. a closed form).
pub(crate) fn io_lower_bound_with_t(v: f64, s: f64, t_2s: f64) -> f64 {
    (s * (v / t_2s - 1.0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phi_psi::{direct_steps, winograd_steps, StepBound};
    use crate::shapes::WinogradTile;

    /// Lemma 4.11 closed form: `T(S) <= 4 S sqrt(R S) + S - 1`, attained at
    /// `k_1 = S, k_2 = 0`.
    #[test]
    fn direct_t_matches_lemma_4_11() {
        for (r, s) in [(9.0, 1024.0), (2.25, 4096.0), (9.0, 64.0)] {
            let steps = direct_steps(r);
            let got = t_bound(&steps, s);
            let closed = 4.0 * s * (r * s).sqrt() + s - 1.0;
            let rel = (got.t - closed).abs() / closed;
            assert!(rel < 1e-3, "R={r} S={s}: got {} want {closed} (rel {rel})", got.t);
            // Maximiser puts (almost) the whole budget on step 1.
            assert!(got.split[0] > 0.99 * s, "split = {:?}", got.split);
        }
    }

    /// Lemma 4.19: `T(S) = O(2 a^3/(er) S^1.5 + 6 a^2/(er) S)` for Winograd.
    ///
    /// The numeric maximiser evaluates the full nested expression of
    /// Theorem 4.5 and is therefore somewhat *larger* than the paper's
    /// chain (the Eq. 18 derivation drops the step-3 `phi_3(psi_2(...))`
    /// term, which contributes another `O(S^1.5)` with a comparable
    /// coefficient). Since Lemma 4.19 is an O-statement this only shifts
    /// the constant; we assert the numeric value stays within a small
    /// constant factor [0.25, 6] of the closed form across two decades of
    /// S, and that the S^1.5 growth rate matches.
    #[test]
    fn winograd_t_bracketed_by_lemma_4_19() {
        let tile = WinogradTile::F2X3;
        let a = tile.a() as f64;
        let er = (tile.e * tile.r) as f64;
        let closed = |s: f64| 2.0 * a.powi(3) / er * s * s.sqrt() + 6.0 * a * a / er * s;
        let mut ratios = Vec::new();
        for s in [256.0, 4096.0, 65536.0] {
            let steps = winograd_steps(tile);
            let got = t_bound(&steps, s).t;
            let c = closed(s);
            let ratio = got / c;
            assert!(
                (0.25..6.0).contains(&ratio),
                "S={s}: numeric T {got} vs closed {c} (ratio {ratio})"
            );
            ratios.push(ratio);
        }
        // Same asymptotic exponent: the ratio must be flat (within 50%)
        // across a 256x range of S.
        let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
            / ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.5, "ratios {ratios:?} not flat: T does not scale as S^1.5");
    }

    #[test]
    fn io_lower_bound_positive_for_large_dags() {
        let steps = direct_steps(9.0);
        // |V| = 1e9 computed vertices, S = 1024.
        let q = io_lower_bound(&steps, 1e9, 1024.0);
        assert!(q > 0.0);
        // Larger fast memory => smaller bound.
        let q_big_s = io_lower_bound(&steps, 1e9, 8192.0);
        assert!(q_big_s < q);
    }

    #[test]
    fn io_lower_bound_zero_for_tiny_dags() {
        let steps = direct_steps(9.0);
        // A DAG smaller than T(2S) fits entirely; bound clamps to zero.
        assert_eq!(io_lower_bound(&steps, 10.0, 1024.0), 0.0);
    }

    #[test]
    fn nested_sum_respects_psi_carry() {
        // Two synthetic steps where psi matters: step1 psi(h)=h, step2
        // phi(h)=h. Then sum = phi1(k1) + (k2 + k1).
        struct Lin;
        impl StepBound for Lin {
            fn phi(&self, _s: f64, h: f64) -> f64 {
                h
            }
            fn name(&self) -> &'static str {
                "lin"
            }
        }
        let steps: Vec<Box<dyn StepBound>> = vec![Box::new(Lin), Box::new(Lin)];
        let v = nested_sum(&steps, 100.0, &[30.0, 20.0]);
        // phi1(30) + phi2(20 + psi1(30)) = 30 + 50 = 80.
        assert!((v - 80.0).abs() < 1e-9);
    }

    #[test]
    fn t_bound_single_step() {
        struct Sqrt;
        impl StepBound for Sqrt {
            fn phi(&self, _s: f64, h: f64) -> f64 {
                h.sqrt()
            }
            fn name(&self) -> &'static str {
                "sqrt"
            }
        }
        let steps: Vec<Box<dyn StepBound>> = vec![Box::new(Sqrt)];
        let got = t_bound(&steps, 100.0);
        assert!((got.t - 110.0).abs() < 1e-6);
    }

    #[test]
    fn t_bound_monotone_in_s() {
        let steps = winograd_steps(WinogradTile::F4X3);
        let t1 = t_bound(&steps, 512.0).t;
        let t2 = t_bound(&steps, 1024.0).t;
        let t3 = t_bound(&steps, 2048.0).t;
        assert!(t1 < t2 && t2 < t3);
    }

    /// The refinement search must not miss an interior maximum: construct a
    /// two-step instance whose optimum is strictly interior and known.
    #[test]
    fn t_bound_finds_interior_optimum() {
        // phi1(h) = 20*sqrt(h), psi1 = 0, phi2(h) = 20*sqrt(h).
        // max over k1+k2=S of 20(sqrt(k1)+sqrt(k2)) is at k1=k2=S/2.
        struct HalfA;
        impl StepBound for HalfA {
            fn phi(&self, _s: f64, h: f64) -> f64 {
                20.0 * h.sqrt()
            }
            fn psi(&self, _s: f64, _h: f64) -> f64 {
                0.0
            }
            fn name(&self) -> &'static str {
                "half"
            }
        }
        let steps: Vec<Box<dyn StepBound>> = vec![Box::new(HalfA), Box::new(HalfA)];
        let s = 200.0;
        let got = t_bound(&steps, s);
        let expect = s + 2.0 * 20.0 * (s / 2.0).sqrt();
        assert!(
            (got.t - expect).abs() / expect < 1e-4,
            "got {} want {expect}, split {:?}",
            got.t,
            got.split
        );
        assert!((got.split[0] - 100.0).abs() < 2.0);
    }
}
