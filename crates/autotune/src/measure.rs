//! Measurement harness (paper Fig. 8, "Template Manager" box).
//!
//! In the paper, a configuration is compiled from the dataflow template
//! and timed on the GPU. Here the template lowering is
//! `iolb_dataflow::{direct,winograd}_kernel` and the "hardware" is the
//! `iolb-gpusim` engine — a consistent, configuration-sensitive cost
//! signal whose minima sit where the theory predicts.

use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_dataflow::config::ScheduleConfig;
use iolb_dataflow::{direct_kernel, winograd_kernel};
use iolb_gpusim::{simulate, DeviceSpec};

/// Measures configurations of one convolution on one device.
#[derive(Clone)]
pub struct Measurer {
    pub device: DeviceSpec,
    pub shape: ConvShape,
    pub kind: TileKind,
    /// Fused epilogue of the chain under measurement. When non-`None`,
    /// every measured time includes the analytic fused-epilogue term
    /// ([`crate::fusion::epilogue_fused_ms`]) on top of the simulated
    /// conv kernel — so fused and unfused records are comparable wall
    /// times, not conv-only times.
    pub epilogue: Epilogue,
}

impl Measurer {
    pub fn new(device: DeviceSpec, shape: ConvShape, kind: TileKind) -> Self {
        Self { device, shape, kind, epilogue: Epilogue::None }
    }

    /// The same measurer fused with `epilogue` (builder-style).
    pub fn with_epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = epilogue;
        self
    }

    /// Measured execution time in milliseconds, or `None` for
    /// configurations that fail to build — tiles whose staging footprint
    /// overflows their shared-memory allocation (TVM's compile-failure
    /// analogue; such candidates still consume tuning budget) or block
    /// shapes the device cannot launch.
    pub fn measure_ms(&self, cfg: &ScheduleConfig) -> Option<f64> {
        if cfg.validate(&self.shape, self.kind, self.device.smem_per_sm, false).is_err() {
            return None;
        }
        let kernel = match self.kind {
            TileKind::Direct => direct_kernel(&self.shape, cfg),
            TileKind::Winograd(t) => winograd_kernel(&self.shape, t, cfg),
        };
        let epi_ms = crate::fusion::epilogue_fused_ms(&self.shape, self.epilogue, &self.device);
        simulate(&self.device, &kernel).ok().map(|s| s.time_ms + epi_ms)
    }

    /// Arithmetic throughput in GFLOP/s for a measured time — the metric
    /// Table 2 and Figs. 11/13 report. Uses the *algorithm's* flop count
    /// (direct-equivalent for direct, transform-reduced for Winograd).
    pub(crate) fn gflops(&self, time_ms: f64) -> f64 {
        let flops = self.kind.flops(&self.shape) + self.epilogue.flops(&self.shape);
        flops / (time_ms * 1e-3) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_tensor::layout::Layout;

    fn measurer() -> Measurer {
        Measurer::new(DeviceSpec::v100(), ConvShape::square(64, 28, 32, 3, 1, 1), TileKind::Direct)
    }

    fn cfg() -> ScheduleConfig {
        ScheduleConfig {
            x: 7,
            y: 7,
            z: 8,
            nxt: 7,
            nyt: 7,
            nzt: 2,
            sb_bytes: 16 * 1024,
            layout: Layout::Chw,
        }
    }

    #[test]
    fn measurement_is_deterministic() {
        let m = measurer();
        let a = m.measure_ms(&cfg()).unwrap();
        let b = m.measure_ms(&cfg()).unwrap();
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn gflops_inversely_proportional_to_time() {
        let m = measurer();
        let g1 = m.gflops(1.0);
        let g2 = m.gflops(2.0);
        assert!((g1 / g2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn different_configs_measure_differently() {
        let m = measurer();
        let a = m.measure_ms(&cfg()).unwrap();
        let skew = ScheduleConfig { x: 1, y: 1, nxt: 1, nyt: 1, z: 32, nzt: 8, ..cfg() };
        let b = m.measure_ms(&skew).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn fused_measurement_adds_a_deterministic_epilogue_term() {
        use iolb_core::epilogue::Epilogue;
        let bare = measurer();
        let t_bare = bare.measure_ms(&cfg()).unwrap();
        for epilogue in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
            let fused = measurer().with_epilogue(epilogue);
            let t_fused = fused.measure_ms(&cfg()).unwrap();
            let epi = crate::fusion::epilogue_fused_ms(&fused.shape, epilogue, &fused.device);
            assert_ne!(epi, 0.0);
            assert_eq!(t_fused.to_bits(), (t_bare + epi).to_bits(), "{epilogue}: term not exact");
            // And repeatably so.
            assert_eq!(t_fused.to_bits(), fused.measure_ms(&cfg()).unwrap().to_bits());
        }
        // Relu only adds resident arithmetic, so its term is positive; a
        // fused pool *saves* write-back traffic and may come out ahead of
        // the bare conv — the sign is the model's call, exactness is ours.
        let relu = crate::fusion::epilogue_fused_ms(&bare.shape, Epilogue::Relu, &bare.device);
        assert!(relu > 0.0);
    }

    #[test]
    fn infeasible_config_returns_none() {
        let m = measurer();
        let big = ScheduleConfig { sb_bytes: 1024 * 1024, ..cfg() };
        assert!(m.measure_ms(&big).is_none());
    }
}
