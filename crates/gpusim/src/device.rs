//! GPU device specifications.
//!
//! The paper evaluates on NVIDIA 1080Ti (Pascal), Titan X (Maxwell),
//! V100 (Volta) and AMD gfx906 (Vega 20). We model each as a two-level
//! memory hierarchy — unlimited global memory behind a DRAM pipe, and
//! per-SM shared memory of size `S` — plus enough execution structure
//! (SM count, clocks, FMA lanes, occupancy limits) for roofline timing.
//! The numbers are the public datasheet values.

/// A GPU model for the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Streaming multiprocessors (NVIDIA) / compute units (AMD).
    pub num_sms: u32,
    /// Shared memory (LDS) per SM, in bytes — the fast memory `S_sm` of
    /// Table 1.
    pub smem_per_sm: u32,
    /// Maximum shared memory a single thread block may allocate, bytes.
    pub max_smem_per_block: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// FP32 FMA lanes per SM (each does 2 flops/cycle).
    pub fma_lanes_per_sm: u32,
    /// DRAM bandwidth, GB/s.
    pub dram_gbps: f64,
    /// Global-memory transaction size, bytes (coalescing granule).
    pub transaction_bytes: u32,
    /// Fixed kernel-launch overhead, microseconds.
    pub launch_overhead_us: f64,
    /// Fraction of peak FLOPs a well-tuned kernel sustains (instruction
    /// mix, scheduling stalls). Applied uniformly, so it cancels in the
    /// relative comparisons the experiments report.
    pub compute_efficiency: f64,
}

impl DeviceSpec {
    /// Peak FP32 throughput, GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.num_sms as f64 * self.fma_lanes_per_sm as f64 * 2.0 * self.clock_ghz
    }

    /// Sustained FP32 throughput after the efficiency derating, GFLOP/s.
    pub fn sustained_gflops(&self) -> f64 {
        self.peak_gflops() * self.compute_efficiency
    }

    /// Shared memory per SM in `f32` elements — the `S` the lower-bound
    /// formulas consume.
    pub fn smem_elems(&self) -> f64 {
        self.smem_per_sm as f64 / 4.0
    }

    /// NVIDIA GTX 1080 Ti (Pascal GP102).
    pub fn gtx1080ti() -> Self {
        DeviceSpec {
            name: "GTX 1080 Ti",
            num_sms: 28,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            clock_ghz: 1.582,
            fma_lanes_per_sm: 128,
            dram_gbps: 484.0,
            transaction_bytes: 32,
            launch_overhead_us: 5.0,
            compute_efficiency: 0.75,
        }
    }

    /// NVIDIA Tesla V100 (Volta GV100).
    pub fn v100() -> Self {
        DeviceSpec {
            name: "Tesla V100",
            num_sms: 80,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 96 * 1024,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            clock_ghz: 1.53,
            fma_lanes_per_sm: 64,
            dram_gbps: 900.0,
            transaction_bytes: 32,
            launch_overhead_us: 4.0,
            compute_efficiency: 0.8,
        }
    }

    /// NVIDIA GTX Titan X (Maxwell GM200).
    pub fn titan_x() -> Self {
        DeviceSpec {
            name: "GTX Titan X",
            num_sms: 24,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            clock_ghz: 1.075,
            fma_lanes_per_sm: 128,
            dram_gbps: 336.6,
            transaction_bytes: 32,
            launch_overhead_us: 5.0,
            compute_efficiency: 0.72,
        }
    }

    /// AMD gfx906 (Vega 20, the paper's "Pre-Wukong GPU"; MI50-class).
    pub fn gfx906() -> Self {
        DeviceSpec {
            name: "AMD gfx906",
            num_sms: 60,
            smem_per_sm: 64 * 1024,
            max_smem_per_block: 64 * 1024,
            max_threads_per_sm: 2560,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 40,
            clock_ghz: 1.725,
            fma_lanes_per_sm: 64,
            dram_gbps: 1024.0,
            transaction_bytes: 64,
            launch_overhead_us: 6.0,
            compute_efficiency: 0.7,
        }
    }

    /// All presets used by the evaluation.
    pub fn all() -> Vec<DeviceSpec> {
        vec![Self::gtx1080ti(), Self::v100(), Self::titan_x(), Self::gfx906()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_flops_match_datasheets() {
        // 1080Ti: 28 * 128 * 2 * 1.582 ~ 11.3 TFLOPs.
        let p = DeviceSpec::gtx1080ti().peak_gflops();
        assert!((11000.0..11700.0).contains(&p), "1080Ti peak {p}");
        // V100: 80 * 64 * 2 * 1.53 ~ 15.7 TFLOPs.
        let v = DeviceSpec::v100().peak_gflops();
        assert!((15000.0..16000.0).contains(&v), "V100 peak {v}");
        // Titan X: ~6.6 TFLOPs.
        let t = DeviceSpec::titan_x().peak_gflops();
        assert!((6000.0..7000.0).contains(&t), "TitanX peak {t}");
        // gfx906: 60 * 64 * 2 * 1.725 ~ 13.2 TFLOPs.
        let g = DeviceSpec::gfx906().peak_gflops();
        assert!((12500.0..14000.0).contains(&g), "gfx906 peak {g}");
    }

    #[test]
    fn smem_elems_is_bytes_over_4() {
        let d = DeviceSpec::gtx1080ti();
        assert_eq!(d.smem_elems(), 96.0 * 1024.0 / 4.0);
    }

    #[test]
    fn sustained_below_peak() {
        for d in DeviceSpec::all() {
            assert!(d.sustained_gflops() < d.peak_gflops());
        }
    }
}
