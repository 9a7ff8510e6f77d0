//! Schedule configurations — the paper's Table 1 searching domain.
//!
//! A configuration fixes everything the auto-tuner searches over: the
//! output tile `x * y * z`, the thread split `N_xt * N_yt * N_zt`, the
//! shared memory allocated to each block `S_b`, and the input layout.
//! [`ScheduleConfig::validate`] enforces the Table 1 constraints:
//!
//! * `x | H_out`, `y | W_out`, `z | C_out` (tile sizes are factors),
//! * `N_xt | x`, `N_yt | y`, `N_zt | z` (thread counts are factors),
//! * the tile's on-chip footprint fits `S_b`,
//! * `S_b <= S_sm / 2` (at least two resident blocks per SM),
//! * for the *pruned* domain additionally `z <= sqrt(S_b/R)` and
//!   `xy <= sqrt(S_b * R)` — the optimality-condition band.

use iolb_core::optimality::{padded_out, TileKind};
use iolb_core::shapes::ConvShape;
use iolb_tensor::layout::Layout;

/// A complete schedule configuration for either convolution dataflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleConfig {
    /// Output tile height `x` (divides `H_out`).
    pub x: usize,
    /// Output tile width `y` (divides `W_out`).
    pub y: usize,
    /// Output tile channels `z` (divides `C_out`).
    pub z: usize,
    /// Threads along the tile height (divides `x`).
    pub nxt: usize,
    /// Threads along the tile width (divides `y`).
    pub nyt: usize,
    /// Threads along the tile channels (divides `z`).
    pub nzt: usize,
    /// Shared memory per block, bytes.
    pub sb_bytes: u32,
    /// Input image layout.
    pub layout: Layout,
}

impl ScheduleConfig {
    /// Threads per block.
    pub fn threads(&self) -> u32 {
        (self.nxt * self.nyt * self.nzt) as u32
    }

    /// Shared memory per block in f32 elements.
    pub fn sb_elems(&self) -> f64 {
        self.sb_bytes as f64 / 4.0
    }

    /// Output-tile volume `x*y*z`.
    pub fn tile_volume(&self) -> usize {
        self.x * self.y * self.z
    }

    /// Relative deviation from the optimality condition `xy = Rz`
    /// (0 = exactly optimal).
    pub fn optimality_deviation(&self, shape: &ConvShape, kind: TileKind) -> f64 {
        let r = kind.reuse(shape);
        let lhs = (self.x * self.y) as f64;
        let rhs = r * self.z as f64;
        (lhs - rhs).abs() / lhs.max(rhs)
    }

    /// Structural (template-level) validation: tile factors, thread
    /// factors, the 1024-thread cap and the two-blocks-per-SM `S_b` cap.
    ///
    /// This is everything a TVM-style template knows when *enumerating*
    /// its space — whether the tile actually fits the allocated shared
    /// memory is only discovered when the candidate is compiled/measured
    /// (see [`ScheduleConfig::validate`] and `autotune::Measurer`).
    ///
    /// For Winograd kinds the spatial divisibility is checked against the
    /// padded output extent (real Winograd kernels pad ragged edges, e.g.
    /// AlexNet's 13x13 outputs under `F(2,3)`), and tiles must be
    /// multiples of `e`.
    pub fn validate_structural(
        &self,
        shape: &ConvShape,
        kind: TileKind,
        s_sm_bytes: u32,
    ) -> Result<(), ConfigError> {
        let (hout, wout) = padded_out(shape, kind);
        if self.x == 0 || self.y == 0 || self.z == 0 {
            return Err(ConfigError::ZeroTile);
        }
        if hout % self.x != 0 || wout % self.y != 0 || !shape.cout.is_multiple_of(self.z) {
            return Err(ConfigError::TileNotFactor);
        }
        if let TileKind::Winograd(t) = kind {
            if !self.x.is_multiple_of(t.e) || !self.y.is_multiple_of(t.e) {
                return Err(ConfigError::TileNotFactor);
            }
        }
        if self.nxt == 0 || self.nyt == 0 || self.nzt == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if !self.x.is_multiple_of(self.nxt)
            || !self.y.is_multiple_of(self.nyt)
            || !self.z.is_multiple_of(self.nzt)
        {
            return Err(ConfigError::ThreadsNotFactor);
        }
        if self.threads() > 1024 {
            return Err(ConfigError::TooManyThreads(self.threads()));
        }
        if self.sb_bytes * 2 > s_sm_bytes {
            return Err(ConfigError::SharedMemoryTooLarge {
                sb: self.sb_bytes,
                cap: s_sm_bytes / 2,
            });
        }
        Ok(())
    }

    /// Full validation: structural constraints plus the on-chip footprint
    /// check, and — when `pruned` — the optimality-condition band that
    /// defines the paper's reduced searching domain (§6.2).
    pub fn validate(
        &self,
        shape: &ConvShape,
        kind: TileKind,
        s_sm_bytes: u32,
        pruned: bool,
    ) -> Result<(), ConfigError> {
        self.validate_structural(shape, kind, s_sm_bytes)?;
        // On-chip footprint of the schedule's resident data: the fused
        // accumulators (see `TileKind::accumulator_elems`) plus staging.
        let tile = iolb_core::optimality::Tile { x: self.x, y: self.y, z: self.z };
        let footprint = kind.accumulator_elems(&tile) + self.stage_buffer_elems(shape, kind);
        if footprint > self.sb_elems() {
            return Err(ConfigError::TileExceedsSharedMemory {
                need: footprint as u64,
                have: self.sb_elems() as u64,
            });
        }
        if pruned {
            let r = kind.reuse(shape);
            let sb = self.sb_elems();
            let zf = self.z as f64;
            let xyf = (self.x * self.y) as f64;
            if zf > (sb / r).sqrt() * PRUNE_SLACK {
                return Err(ConfigError::OutsidePrunedDomain);
            }
            if xyf > (sb * r).sqrt() * PRUNE_SLACK {
                return Err(ConfigError::OutsidePrunedDomain);
            }
        }
        Ok(())
    }

    /// Elements of the per-stage staging buffers (the `x' * y' * 1` input
    /// tile plus the stage's weights) that share `S_b` with the resident
    /// tile, per §5.2/§5.3.
    pub(crate) fn stage_buffer_elems(&self, shape: &ConvShape, kind: TileKind) -> f64 {
        match kind {
            TileKind::Direct => {
                let xp = (self.x - 1) * shape.stride + shape.kh;
                let yp = (self.y - 1) * shape.stride + shape.kw;
                (xp * yp + shape.kh * shape.kw * self.z) as f64
            }
            TileKind::Winograd(t) => {
                let xp = self.x + t.r - 1;
                let yp = self.y + t.r - 1;
                (xp * yp + t.r * t.r * self.z) as f64
            }
        }
    }

    /// Projects this configuration onto another shape's divisor lattice:
    /// each tile extent snaps to the nearest-below divisor of the new
    /// output extent (falling back to the nearest-above when no smaller
    /// one satisfies the Winograd `e`-multiple constraint), and the
    /// thread split re-snaps to the projected tile the same way. Shared
    /// memory and layout carry over unchanged.
    ///
    /// Snapping *downward first* is what makes transfer safe: a smaller
    /// tile has a strictly smaller on-chip footprint and thread count,
    /// so for the direct dataflow a config valid on its donor shape
    /// projects to a config valid on any target with the same filter,
    /// stride and padding (the anchor-bucket invariant). Optimality is
    /// not preserved — callers gate the projection analytically
    /// (`Q_model/Q_lower`) before trusting it.
    pub fn project_onto(&self, shape: &ConvShape, kind: TileKind) -> ScheduleConfig {
        let (hout, wout) = padded_out(shape, kind);
        let e = match kind {
            TileKind::Winograd(t) => t.e,
            TileKind::Direct => 1,
        };
        let x = snap_divisor(hout, self.x, e);
        let y = snap_divisor(wout, self.y, e);
        let z = snap_divisor(shape.cout, self.z, 1);
        ScheduleConfig {
            x,
            y,
            z,
            nxt: snap_divisor(x, self.nxt, 1),
            nyt: snap_divisor(y, self.nyt, 1),
            nzt: snap_divisor(z, self.nzt, 1),
            ..*self
        }
    }
}

/// The largest divisor of `n` that is a multiple of `step` and at most
/// `want` — or, when every such divisor exceeds `want` (a Winograd tile
/// floor), the smallest one. `n` itself is always a candidate whenever
/// `step | n`, so the result is well-defined for every valid output
/// extent (padded extents are `e`-multiples by construction).
fn snap_divisor(n: usize, want: usize, step: usize) -> usize {
    let mut below: Option<usize> = None;
    let mut above: Option<usize> = None;
    for d in 1..=n {
        if !n.is_multiple_of(d) || !d.is_multiple_of(step) {
            continue;
        }
        if d <= want {
            below = Some(d);
        } else if above.is_none() {
            above = Some(d);
        }
    }
    below.or(above).unwrap_or_else(|| n.max(1))
}

/// Integer-factor slack on the pruned-domain inequalities: exact factor
/// triples rarely hit the real-valued optimum, so the domain keeps
/// configurations within 1.5x of the condition boundary (Table 2's
/// 20-55% space compression comes from this band).
pub(crate) const PRUNE_SLACK: f64 = 1.5;

/// Configuration validation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    ZeroTile,
    TileNotFactor,
    ZeroThreads,
    ThreadsNotFactor,
    TooManyThreads(u32),
    SharedMemoryTooLarge { sb: u32, cap: u32 },
    TileExceedsSharedMemory { need: u64, have: u64 },
    OutsidePrunedDomain,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroTile => write!(f, "tile dimension is zero"),
            ConfigError::TileNotFactor => write!(f, "tile does not divide the output shape"),
            ConfigError::ZeroThreads => write!(f, "thread split has a zero"),
            ConfigError::ThreadsNotFactor => write!(f, "thread split does not divide the tile"),
            ConfigError::TooManyThreads(n) => write!(f, "{n} threads exceeds 1024 per block"),
            ConfigError::SharedMemoryTooLarge { sb, cap } => {
                write!(f, "S_b = {sb} B exceeds the two-block cap {cap} B")
            }
            ConfigError::TileExceedsSharedMemory { need, have } => {
                write!(f, "tile footprint {need} elems exceeds S_b = {have} elems")
            }
            ConfigError::OutsidePrunedDomain => {
                write!(f, "violates the optimality-condition searching domain")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl std::fmt::Display for ScheduleConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile {}x{}x{} threads {}x{}x{} Sb={}KiB {}",
            self.x,
            self.y,
            self.z,
            self.nxt,
            self.nyt,
            self.nzt,
            self.sb_bytes / 1024,
            self.layout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::square(256, 56, 128, 3, 1, 1) // hout = wout = 56
    }

    fn valid_config() -> ScheduleConfig {
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

    const SSM: u32 = 96 * 1024;

    #[test]
    fn valid_config_passes() {
        let c = valid_config();
        assert_eq!(c.validate(&shape(), TileKind::Direct, SSM, false), Ok(()));
        assert_eq!(c.threads(), 196);
    }

    #[test]
    fn tile_must_divide_output() {
        let mut c = valid_config();
        c.x = 13; // 56 % 13 != 0
        assert_eq!(
            c.validate(&shape(), TileKind::Direct, SSM, false),
            Err(ConfigError::TileNotFactor)
        );
    }

    #[test]
    fn threads_must_divide_tile() {
        let mut c = valid_config();
        c.nxt = 3; // 14 % 3 != 0
        assert_eq!(
            c.validate(&shape(), TileKind::Direct, SSM, false),
            Err(ConfigError::ThreadsNotFactor)
        );
    }

    #[test]
    fn thread_cap_enforced() {
        let mut c = valid_config();
        c.x = 56;
        c.y = 56;
        c.nxt = 56;
        c.nyt = 56;
        c.nzt = 1;
        c.z = 1;
        c.sb_bytes = 48 * 1024;
        assert!(matches!(
            c.validate(&shape(), TileKind::Direct, SSM, false),
            Err(ConfigError::TooManyThreads(_)) | Err(ConfigError::TileExceedsSharedMemory { .. })
        ));
    }

    #[test]
    fn two_block_smem_cap() {
        let mut c = valid_config();
        c.sb_bytes = 64 * 1024; // > 96/2 KiB
        assert!(matches!(
            c.validate(&shape(), TileKind::Direct, SSM, false),
            Err(ConfigError::SharedMemoryTooLarge { .. })
        ));
    }

    #[test]
    fn footprint_must_fit() {
        let mut c = valid_config();
        c.sb_bytes = 4 * 1024; // 1024 elems < 14*14*16 tile
        assert!(matches!(
            c.validate(&shape(), TileKind::Direct, SSM, false),
            Err(ConfigError::TileExceedsSharedMemory { .. })
        ));
    }

    #[test]
    fn pruned_domain_rejects_skewed_tiles() {
        // Deep-z tile violates z <= sqrt(Sb/R): R = 9, Sb = 8192 elems
        // -> z cap ~ 2*sqrt(910) ~ 60; choose z = 128.
        let c = ScheduleConfig {
            x: 2,
            y: 2,
            z: 128,
            nxt: 1,
            nyt: 1,
            nzt: 32,
            sb_bytes: 32 * 1024,
            layout: Layout::Chw,
        };
        assert_eq!(c.validate(&shape(), TileKind::Direct, SSM, false), Ok(()));
        assert_eq!(
            c.validate(&shape(), TileKind::Direct, SSM, true),
            Err(ConfigError::OutsidePrunedDomain)
        );
    }

    #[test]
    fn pruned_domain_accepts_balanced_tiles() {
        // xy = 196, Rz = 9*16 = 144: near the condition, within slack.
        let c = valid_config();
        assert_eq!(c.validate(&shape(), TileKind::Direct, SSM, true), Ok(()));
        assert!(c.optimality_deviation(&shape(), TileKind::Direct) < 0.5);
    }

    #[test]
    fn stage_buffers_account_for_halo() {
        let c = valid_config();
        let s = shape();
        // x' = 13*1 + 3 = 16, y' = 16; weights 9 * 16.
        let elems = c.stage_buffer_elems(&s, TileKind::Direct);
        assert_eq!(elems, (16 * 16 + 9 * 16) as f64);
    }

    #[test]
    fn display_round_trip_contains_fields() {
        let c = valid_config();
        let s = format!("{c}");
        assert!(s.contains("14x14x16"));
        assert!(s.contains("CHW"));
    }

    #[test]
    fn projection_snaps_to_the_target_divisor_lattice() {
        let c = valid_config(); // tuned on 56x56 output
                                // hout = wout = 50, padded to 52 (a multiple of 4): the donor's
                                // 14 no longer divides, and the nearest-below divisor is 13.
        let target = ConvShape::square(256, 50, 128, 3, 1, 1);
        let p = c.project_onto(&target, TileKind::Direct);
        assert_eq!((p.x, p.y), (13, 13));
        assert_eq!(p.z, 16, "cout unchanged, z carries over exactly");
        assert!(p.x.is_multiple_of(p.nxt) && p.y.is_multiple_of(p.nyt));
        assert_eq!((p.sb_bytes, p.layout), (c.sb_bytes, c.layout));
        assert_eq!(p.validate(&target, TileKind::Direct, SSM, false), Ok(()));
        // Projecting onto the shape it already fits is the identity.
        assert_eq!(c.project_onto(&shape(), TileKind::Direct), c);
        assert_eq!(p.project_onto(&target, TileKind::Direct), p);
    }

    #[test]
    fn downward_projection_of_a_valid_direct_config_stays_valid() {
        let c = valid_config();
        assert_eq!(c.validate(&shape(), TileKind::Direct, SSM, false), Ok(()));
        // Same filter/stride/pad, jittered spatial and channel extents:
        // the anchor-bucket transfer case.
        for (hw, cout) in [(54, 128), (50, 120), (55, 124), (49, 127)] {
            let target = ConvShape::square(256, hw, cout, 3, 1, 1);
            let p = c.project_onto(&target, TileKind::Direct);
            assert_eq!(
                p.validate(&target, TileKind::Direct, SSM, false),
                Ok(()),
                "projection onto {hw}x{hw} cout={cout} must stay valid"
            );
            assert!(p.threads() <= c.threads(), "downward snap never adds threads");
        }
    }

    #[test]
    fn winograd_projection_respects_the_tile_multiple_floor() {
        let tile = iolb_core::shapes::WinogradTile::F4X3;
        let shape = ConvShape::square(64, 28, 64, 3, 1, 1); // padded out = 28
        let c = ScheduleConfig {
            x: 4,
            y: 4,
            z: 8,
            nxt: 2,
            nyt: 2,
            nzt: 4,
            sb_bytes: 32 * 1024,
            layout: Layout::Chw,
        };
        let kind = TileKind::Winograd(tile);
        assert_eq!(c.validate(&shape, kind, SSM, false), Ok(()));
        let target = ConvShape::square(64, 26, 64, 3, 1, 1);
        let p = c.project_onto(&target, kind);
        assert!(p.x.is_multiple_of(tile.e) && p.y.is_multiple_of(tile.e));
        let (hout, wout) = padded_out(&target, kind);
        assert!(hout.is_multiple_of(p.x) && wout.is_multiple_of(p.y));
    }
}
