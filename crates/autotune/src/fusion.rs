//! The analytic fusion gate (chain-level counterpart of `plan`).
//!
//! A fused conv→epilogue chain is worth tuning as one workload only when
//! the *model* says so: fusing trades the epilogue's extra kernel
//! launches and intermediate-tensor round trips for a little extra
//! arithmetic on the resident output tile. Both sides of that trade are
//! analytic — device launch overhead, DRAM bandwidth, sustained
//! arithmetic throughput, and the composite I/O lower bound from
//! [`iolb_core::epilogue::fused_io_lower_bound`] — so the gate decides
//! **before** any fresh measurement is spent. A chain the gate rejects
//! falls back to its per-layer workloads, whose records are shared with
//! every unfused request: the fallback costs zero extra measurements.

use iolb_core::epilogue::{fused_io_lower_bound, Epilogue};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;

use crate::space::ConfigSpace;

/// Bytes per tensor element (`f32`).
const ELEM_BYTES: f64 = 4.0;

/// Modeled wall time (ms) of running `epilogue` **unfused** after the
/// convolution: each stage is its own kernel launch reading its input
/// from and writing its output to DRAM. Relu is one launch; relu+pool is
/// two. Traffic comes from
/// [`Epilogue::unfused_epilogue_traffic`], arithmetic from
/// [`Epilogue::flops`].
pub fn epilogue_unfused_ms(shape: &ConvShape, epilogue: Epilogue, device: &DeviceSpec) -> f64 {
    let launches = match epilogue {
        Epilogue::None => 0.0,
        Epilogue::Relu => 1.0,
        Epilogue::ReluPool { .. } => 2.0,
    };
    if launches == 0.0 {
        return 0.0;
    }
    let traffic_bytes = epilogue.unfused_epilogue_traffic(shape) * ELEM_BYTES;
    let transfer_ms = traffic_bytes / (device.dram_gbps * 1e9) * 1e3;
    let compute_ms = epilogue.flops(shape) / (device.sustained_gflops() * 1e9) * 1e3;
    launches * device.launch_overhead_us * 1e-3 + transfer_ms + compute_ms
}

/// Modeled wall time (ms) the epilogue **adds to the fused kernel**: the
/// extra arithmetic on the resident tile plus the (never positive)
/// change in write-back traffic — a pool epilogue writes the pooled
/// tensor instead of the full conv output, so fusing *reduces* the conv
/// kernel's own store traffic. No launch term: the epilogue rides the
/// conv kernel's launch.
pub fn epilogue_fused_ms(shape: &ConvShape, epilogue: Epilogue, device: &DeviceSpec) -> f64 {
    if epilogue.is_none() {
        return 0.0;
    }
    let compute_ms = epilogue.flops(shape) / (device.sustained_gflops() * 1e9) * 1e3;
    let write_delta_bytes = epilogue.fused_write_delta(shape) * ELEM_BYTES;
    compute_ms + write_delta_bytes / (device.dram_gbps * 1e9) * 1e3
}

/// What the gate decided for one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionDecision {
    /// Tune and execute the chain as one fused workload.
    Fuse,
    /// Serve the chain as its per-layer workloads; the reason is a
    /// stable label for telemetry and logs.
    Fallback(&'static str),
}

impl FusionDecision {
    /// The fallback reason, if any.
    pub fn reason(&self) -> Option<&'static str> {
        match self {
            FusionDecision::Fuse => None,
            FusionDecision::Fallback(r) => Some(r),
        }
    }
}

/// The analytic fusion gate. Fuse only when **all** of:
///
/// 1. the epilogue's pool window tiles the conv output exactly
///    ([`Epilogue::fusable_on`] — the forced-loss case);
/// 2. the fused search space still offers tile choices (the pool grid
///    can empty it even when the extents divide);
/// 3. the modeled fused epilogue cost beats the modeled unfused
///    epilogue cost (launches + round trips vs resident arithmetic);
/// 4. the composite I/O lower bound of the fused chain does not exceed
///    the conv-only bound plus the unfused epilogue's round-trip
///    traffic — i.e. the theory agrees there is traffic to save.
///
/// Pure function of `(shape, kind, epilogue, device)`: zero
/// measurements, deterministic, and cheap enough to run per request.
pub fn fusion_gate(
    shape: &ConvShape,
    kind: TileKind,
    epilogue: Epilogue,
    device: &DeviceSpec,
) -> FusionDecision {
    if epilogue.is_none() {
        return FusionDecision::Fallback("no-epilogue");
    }
    if !epilogue.fusable_on(shape) {
        return FusionDecision::Fallback("pool-tiling");
    }
    let space = ConfigSpace::fused(*shape, kind, device.smem_per_sm, true, epilogue);
    if !space.tile_choices_nonempty() {
        return FusionDecision::Fallback("empty-space");
    }
    let fused_ms = epilogue_fused_ms(shape, epilogue, device);
    let unfused_ms = epilogue_unfused_ms(shape, epilogue, device);
    if fused_ms >= unfused_ms {
        return FusionDecision::Fallback("modeled-cost");
    }
    let s = device.smem_elems();
    let fused_bound = fused_io_lower_bound(shape, kind, epilogue, s);
    let conv_bound = match kind {
        TileKind::Direct => iolb_core::direct::io_lower_bound(shape, s),
        TileKind::Winograd(t) => iolb_core::winograd::io_lower_bound(shape, t, s),
    };
    if fused_bound > conv_bound + epilogue.unfused_epilogue_traffic(shape) {
        return FusionDecision::Fallback("io-bound");
    }
    FusionDecision::Fuse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn shape() -> ConvShape {
        ConvShape::square(64, 28, 32, 3, 1, 1) // 28x28 output
    }

    #[test]
    fn relu_and_aligned_pool_chains_fuse() {
        for epi in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
            let d = fusion_gate(&shape(), TileKind::Direct, epi, &device());
            assert_eq!(d, FusionDecision::Fuse, "{epi} should fuse");
        }
    }

    #[test]
    fn misaligned_pool_falls_back_without_measuring() {
        // 28 % 3 != 0: the forced-loss chain of the acceptance criteria.
        let d = fusion_gate(&shape(), TileKind::Direct, Epilogue::ReluPool { k: 3 }, &device());
        assert_eq!(d, FusionDecision::Fallback("pool-tiling"));
        assert_eq!(d.reason(), Some("pool-tiling"));
    }

    #[test]
    fn bare_conv_is_not_a_fusion_candidate() {
        let d = fusion_gate(&shape(), TileKind::Direct, Epilogue::None, &device());
        assert_eq!(d, FusionDecision::Fallback("no-epilogue"));
    }

    #[test]
    fn winograd_chains_pass_the_gate_too() {
        let kind = TileKind::Winograd(iolb_core::shapes::WinogradTile::F2X3);
        let d = fusion_gate(&shape(), kind, Epilogue::ReluPool { k: 2 }, &device());
        assert_eq!(d, FusionDecision::Fuse);
    }

    #[test]
    fn fused_epilogue_model_beats_unfused_on_real_devices() {
        for dev in [DeviceSpec::v100(), DeviceSpec::gtx1080ti(), DeviceSpec::titan_x()] {
            for epi in [Epilogue::Relu, Epilogue::ReluPool { k: 2 }] {
                let fused = epilogue_fused_ms(&shape(), epi, &dev);
                let unfused = epilogue_unfused_ms(&shape(), epi, &dev);
                assert!(
                    fused < unfused,
                    "{epi} on {}: fused {fused} !< unfused {unfused}",
                    dev.name
                );
            }
        }
    }

    #[test]
    fn unfused_cost_counts_launches_and_traffic() {
        assert_eq!(epilogue_unfused_ms(&shape(), Epilogue::None, &device()), 0.0);
        let relu = epilogue_unfused_ms(&shape(), Epilogue::Relu, &device());
        let pool = epilogue_unfused_ms(&shape(), Epilogue::ReluPool { k: 2 }, &device());
        assert!(relu > 0.0);
        assert!(pool > relu, "pool adds a second launch and more traffic");
    }
}
