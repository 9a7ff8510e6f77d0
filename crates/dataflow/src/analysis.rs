//! Optimality analysis: how close a schedule's measured traffic sits to the
//! theoretical lower bound.

use crate::config::ScheduleConfig;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;

/// Comparison of a schedule against the theory.
#[derive(Debug, Clone)]
pub struct OptimalityReport {
    /// The algorithm analysed.
    pub algorithm: TileKind,
    /// Exact useful-element I/O of the lowered schedule.
    pub q_schedule: f64,
    /// The paper's analytic dataflow model (Eq. 20/22 + stores).
    pub q_model: f64,
    /// I/O lower bound at `S = S_b` elements (per-block fast memory, the
    /// red-blue `S` of one processor).
    pub q_lower: f64,
    /// `q_schedule / q_lower` — the near-optimality factor.
    pub ratio: f64,
    /// Relative deviation from the optimality condition `xy = Rz`.
    pub condition_deviation: f64,
}

/// Analyses a direct-dataflow configuration.
pub fn analyze_direct(shape: &ConvShape, cfg: &ScheduleConfig) -> OptimalityReport {
    let q_schedule = crate::direct::exact_io_elems(shape, cfg) as f64;
    let q_model = crate::direct::analytic_io_elems(shape, cfg);
    let q_lower = iolb_core::direct::io_lower_bound(shape, cfg.sb_elems());
    OptimalityReport {
        algorithm: TileKind::Direct,
        q_schedule,
        q_model,
        q_lower,
        ratio: q_schedule / q_lower.max(1.0),
        condition_deviation: iolb_core::direct::optimality_deviation(
            shape,
            cfg.x as f64,
            cfg.y as f64,
            cfg.z as f64,
        ),
    }
}

impl std::fmt::Display for OptimalityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: Q = {:.3e} (model {:.3e}, bound {:.3e}, ratio {:.2}x, condition dev {:.1}%)",
            self.algorithm,
            self.q_schedule,
            self.q_model,
            self.q_lower,
            self.ratio,
            self.condition_deviation * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_tensor::layout::Layout;

    fn shape() -> ConvShape {
        ConvShape::square(256, 56, 128, 3, 1, 1)
    }

    fn cfg() -> ScheduleConfig {
        ScheduleConfig {
            x: 14,
            y: 14,
            z: 16,
            nxt: 7,
            nyt: 7,
            nzt: 4,
            sb_bytes: 32 * 1024,
            layout: Layout::Chw,
        }
    }

    #[test]
    fn schedule_never_beats_bound() {
        let r = analyze_direct(&shape(), &cfg());
        assert!(r.ratio >= 1.0, "ratio {}", r.ratio);
        assert!(r.q_schedule >= r.q_model * 0.99);
    }

    #[test]
    fn near_optimal_config_has_small_ratio() {
        let r = analyze_direct(&shape(), &cfg());
        // The paper's near-optimality: a small constant factor. The
        // theoretical constant between Eq. 21 and Thm 4.12 is ~8*sqrt(2),
        // and the integer tile + halo add ~2x; anything below ~32 is
        // "near-optimal" in the paper's sense, and the test pins it.
        assert!(r.ratio < 32.0, "ratio {}", r.ratio);
        assert!(r.condition_deviation < 0.5);
    }

    #[test]
    fn skewed_config_ranks_worse() {
        let good = analyze_direct(&shape(), &cfg());
        let skew = ScheduleConfig { x: 2, y: 2, z: 128, nxt: 1, nyt: 1, nzt: 32, ..cfg() };
        let bad = analyze_direct(&shape(), &skew);
        assert!(bad.q_schedule > good.q_schedule);
        assert!(bad.condition_deviation > good.condition_deviation);
    }
}
