//! Configuration spaces (paper §6.2, Table 1).
//!
//! The space spans the output tile `(x, y, z)` (factor triples), the thread
//! split `(N_xt, N_yt, N_zt)` (factors of the tile), the per-block shared
//! memory `S_b` and the layout. Two variants exist:
//!
//! * the **full** space — every configuration passing the structural
//!   constraints (what a TVM-style tuner searches);
//! * the **pruned** space — additionally inside the optimality-condition
//!   band `z <= sqrt(S_b/R)`, `xy <= sqrt(S_b R)` (what the paper's
//!   auto-tuning engine searches; Table 2 reports the resulting 20–50%
//!   compression).

use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::{divisors, TileKind};
use iolb_core::shapes::ConvShape;
use iolb_dataflow::config::ScheduleConfig;
use iolb_tensor::layout::Layout;
use rand::seq::SliceRandom;
use rand::Rng;

/// Shared-memory size choices offered to the tuner (bytes).
pub(crate) const SB_CHOICES: [u32; 6] =
    [8 * 1024, 16 * 1024, 24 * 1024, 32 * 1024, 40 * 1024, 48 * 1024];

/// A convolution's schedule search space on a given device.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    pub shape: ConvShape,
    pub kind: TileKind,
    /// Device shared memory per SM (bounds `S_b`).
    pub ssm_bytes: u32,
    /// Whether the optimality-condition pruning is applied.
    pub pruned: bool,
    /// Fused epilogue whose tiling constraints the space honours.
    pub epilogue: Epilogue,
    xs: Vec<usize>,
    ys: Vec<usize>,
    zs: Vec<usize>,
    sbs: Vec<u32>,
}

impl ConfigSpace {
    /// Builds the space. For Winograd kinds, tile dims are restricted to
    /// multiples of `e` dividing the `e`-padded output extent (ragged
    /// edges run as padded tiles).
    pub fn new(shape: ConvShape, kind: TileKind, ssm_bytes: u32, pruned: bool) -> Self {
        Self::fused(shape, kind, ssm_bytes, pruned, Epilogue::None)
    }

    /// The search space of a fused chain: a pool epilogue additionally
    /// restricts output tiles to multiples of the pool window `k` (so a
    /// block's output region pools entirely in registers — the fused
    /// executor never sees a window that straddles blocks). With
    /// [`Epilogue::None`] or [`Epilogue::Relu`] this is exactly
    /// [`new`](Self::new)'s space: relu is pointwise and constrains
    /// nothing.
    pub(crate) fn fused(
        shape: ConvShape,
        kind: TileKind,
        ssm_bytes: u32,
        pruned: bool,
        epilogue: Epilogue,
    ) -> Self {
        let e = match kind {
            TileKind::Direct => 1,
            TileKind::Winograd(t) => t.e,
        };
        // Tiles must respect both the Winograd e-grid and the pool
        // k-grid: multiples of lcm(e, k).
        let step = match epilogue {
            Epilogue::ReluPool { k } => e / gcd(e, k) * k,
            Epilogue::None | Epilogue::Relu => e,
        };
        let (hp, wp) = iolb_core::optimality::padded_out(&shape, kind);
        let keep = |d: &usize| (*d).is_multiple_of(step);
        let xs: Vec<usize> = divisors(hp).into_iter().filter(keep).collect();
        let ys: Vec<usize> = divisors(wp).into_iter().filter(keep).collect();
        let zs = divisors(shape.cout);
        let sbs: Vec<u32> = SB_CHOICES.iter().copied().filter(|&s| 2 * s <= ssm_bytes).collect();
        Self { shape, kind, ssm_bytes, pruned, epilogue, xs, ys, zs, sbs }
    }

    /// Whether the space offers at least one tile choice on every
    /// dimension — the fusion gate's structural check: a pool window
    /// that shares no divisors with the padded output extent empties
    /// `xs`/`ys` and the chain cannot be tuned fused at all.
    pub(crate) fn tile_choices_nonempty(&self) -> bool {
        !self.xs.is_empty() && !self.ys.is_empty() && !self.zs.is_empty() && !self.sbs.is_empty()
    }

    /// Membership check for this space's constraint set: the full (TVM)
    /// space applies only the *structural* template constraints — whether
    /// a tile actually fits its shared-memory allocation is discovered at
    /// measurement time, exactly as TVM discovers compile failures; the
    /// pruned (ATE) space additionally applies the footprint check and the
    /// optimality-condition band.
    fn admits(&self, cfg: &ScheduleConfig) -> bool {
        if self.pruned {
            cfg.validate(&self.shape, self.kind, self.ssm_bytes, true).is_ok()
        } else {
            cfg.validate_structural(&self.shape, self.kind, self.ssm_bytes).is_ok()
        }
    }

    /// Whether a configuration's tile and `S_b` lie on this space's grid
    /// (for a fused pool chain: tiles on the pool grid).
    fn on_grid(&self, cfg: &ScheduleConfig) -> bool {
        self.xs.contains(&cfg.x)
            && self.ys.contains(&cfg.y)
            && self.zs.contains(&cfg.z)
            && self.sbs.contains(&cfg.sb_bytes)
    }

    /// Whether a configuration belongs to this space.
    pub fn contains(&self, cfg: &ScheduleConfig) -> bool {
        self.on_grid(cfg) && self.admits(cfg)
    }

    /// Whether a warm seed (the analytic tile, a stored best) may be
    /// measured in this space: on the grid and buildable, but not held to
    /// the pruning band — the band can exclude the analytic tile itself.
    pub fn admits_seed(&self, cfg: &ScheduleConfig) -> bool {
        self.on_grid(cfg) && cfg.validate(&self.shape, self.kind, self.ssm_bytes, false).is_ok()
    }

    /// Iterates every valid configuration. The visitor returns `true` to
    /// continue, `false` to stop early.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&ScheduleConfig) -> bool) {
        for &x in &self.xs {
            for &y in &self.ys {
                for &z in &self.zs {
                    for &sb in &self.sbs {
                        for &layout in &Layout::ALL {
                            for &nxt in &divisors(x) {
                                for &nyt in &divisors(y) {
                                    for &nzt in &divisors(z) {
                                        let cfg = ScheduleConfig {
                                            x,
                                            y,
                                            z,
                                            nxt,
                                            nyt,
                                            nzt,
                                            sb_bytes: sb,
                                            layout,
                                        };
                                        if self.admits(&cfg) && !f(&cfg) {
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Exact size of the space (Table 2's "Size of Search Space" column).
    pub fn count(&self) -> u64 {
        let mut n = 0u64;
        self.for_each(|_| {
            n += 1;
            true
        });
        n
    }

    /// Uniformly-flavoured random sample (dimension-wise uniform with
    /// rejection on validity). Returns `None` if `max_tries` rejections
    /// occur (a practically-empty space).
    pub fn sample(&self, rng: &mut impl Rng, max_tries: usize) -> Option<ScheduleConfig> {
        for _ in 0..max_tries {
            let x = *self.xs.choose(rng)?;
            let y = *self.ys.choose(rng)?;
            let z = *self.zs.choose(rng)?;
            let nxt = *divisors(x).choose(rng)?;
            let nyt = *divisors(y).choose(rng)?;
            let nzt = *divisors(z).choose(rng)?;
            let sb_bytes = *self.sbs.choose(rng)?;
            let layout = *Layout::ALL.choose(rng)?;
            let cfg = ScheduleConfig { x, y, z, nxt, nyt, nzt, sb_bytes, layout };
            if self.admits(&cfg) {
                return Some(cfg);
            }
        }
        None
    }

    /// A random neighbour of `cfg`: one dimension moved to an adjacent
    /// choice (the random-walk step of §6.2). Falls back to a fresh sample
    /// if no valid neighbour is found quickly.
    pub fn neighbor(&self, cfg: &ScheduleConfig, rng: &mut impl Rng) -> ScheduleConfig {
        for _ in 0..64 {
            let mut next = *cfg;
            match rng.gen_range(0..8) {
                0 => next.x = adjacent(&self.xs, cfg.x, rng),
                1 => next.y = adjacent(&self.ys, cfg.y, rng),
                2 => next.z = adjacent(&self.zs, cfg.z, rng),
                3 => next.nxt = adjacent(&divisors(next.x), cfg.nxt, rng),
                4 => next.nyt = adjacent(&divisors(next.y), cfg.nyt, rng),
                5 => next.nzt = adjacent(&divisors(next.z), cfg.nzt, rng),
                6 => next.sb_bytes = adjacent(&self.sbs, cfg.sb_bytes, rng),
                _ => next.layout = *Layout::ALL.choose(rng).unwrap(),
            }
            // Tile moves can invalidate the thread split; re-legalise.
            if !next.x.is_multiple_of(next.nxt) {
                next.nxt = 1;
            }
            if !next.y.is_multiple_of(next.nyt) {
                next.nyt = 1;
            }
            if !next.z.is_multiple_of(next.nzt) {
                next.nzt = 1;
            }
            if next != *cfg && self.admits(&next) {
                return next;
            }
        }
        self.sample(rng, 256).unwrap_or(*cfg)
    }

    /// Crossover of two parents (for the genetic searcher): each dimension
    /// drawn from either parent, re-legalised.
    pub(crate) fn crossover(
        &self,
        a: &ScheduleConfig,
        b: &ScheduleConfig,
        rng: &mut impl Rng,
    ) -> ScheduleConfig {
        for _ in 0..32 {
            let pick = |rng: &mut dyn rand::RngCore| rng.gen_bool(0.5);
            let mut child = ScheduleConfig {
                x: if pick(rng) { a.x } else { b.x },
                y: if pick(rng) { a.y } else { b.y },
                z: if pick(rng) { a.z } else { b.z },
                nxt: if pick(rng) { a.nxt } else { b.nxt },
                nyt: if pick(rng) { a.nyt } else { b.nyt },
                nzt: if pick(rng) { a.nzt } else { b.nzt },
                sb_bytes: if pick(rng) { a.sb_bytes } else { b.sb_bytes },
                layout: if pick(rng) { a.layout } else { b.layout },
            };
            if !child.x.is_multiple_of(child.nxt) {
                child.nxt = 1;
            }
            if !child.y.is_multiple_of(child.nyt) {
                child.nyt = 1;
            }
            if !child.z.is_multiple_of(child.nzt) {
                child.nzt = 1;
            }
            if self.admits(&child) {
                return child;
            }
        }
        self.neighbor(a, rng)
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Moves one step up or down inside an ascending choice list; stays put at
/// the ends when the step would fall off.
fn adjacent<T: Copy + PartialEq>(choices: &[T], current: T, rng: &mut impl Rng) -> T {
    let Some(pos) = choices.iter().position(|&c| c == current) else {
        return choices[rng.gen_range(0..choices.len())];
    };
    let up = rng.gen_bool(0.5);
    let next = if up { (pos + 1).min(choices.len() - 1) } else { pos.saturating_sub(1) };
    choices[next]
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::shapes::WinogradTile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SSM: u32 = 96 * 1024;

    fn shape() -> ConvShape {
        ConvShape::square(64, 28, 32, 3, 1, 1)
    }

    #[test]
    fn pruned_space_is_strict_subset() {
        let full = ConfigSpace::new(shape(), TileKind::Direct, SSM, false);
        let pruned = ConfigSpace::new(shape(), TileKind::Direct, SSM, true);
        let nf = full.count();
        let np = pruned.count();
        assert!(np < nf, "pruned {np} not below full {nf}");
        assert!(np > 0);
        // Table 2 reports 20-55% compression; accept a generous band.
        let ratio = np as f64 / nf as f64;
        assert!((0.05..0.95).contains(&ratio), "compression ratio {ratio}");
        // Subset property: every pruned config is in the full space.
        pruned.for_each(|cfg| {
            assert!(full.contains(cfg), "pruned config {cfg} not in full space");
            true
        });
    }

    #[test]
    fn every_enumerated_config_is_structurally_valid() {
        // The full (TVM-style) space guarantees only the template-level
        // constraints; footprint feasibility is a measurement-time
        // discovery (like TVM compile failures).
        let space = ConfigSpace::new(shape(), TileKind::Direct, SSM, false);
        let mut n = 0;
        space.for_each(|cfg| {
            assert!(cfg.validate_structural(&space.shape, space.kind, SSM).is_ok());
            n += 1;
            true
        });
        assert!(n > 100, "space suspiciously small: {n}");

        // The pruned space guarantees full validity.
        let pruned = ConfigSpace::new(shape(), TileKind::Direct, SSM, true);
        pruned.for_each(|cfg| {
            assert!(cfg.validate(&pruned.shape, pruned.kind, SSM, true).is_ok());
            true
        });
    }

    #[test]
    fn winograd_space_restricts_to_e_multiples() {
        let space = ConfigSpace::new(shape(), TileKind::Winograd(WinogradTile::F2X3), SSM, false);
        space.for_each(|cfg| {
            assert_eq!(cfg.x % 2, 0);
            assert_eq!(cfg.y % 2, 0);
            true
        });
        assert!(space.count() > 0);
    }

    #[test]
    fn samples_are_valid_and_inside() {
        let space = ConfigSpace::new(shape(), TileKind::Direct, SSM, true);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let cfg = space.sample(&mut rng, 1000).expect("sample");
            assert!(space.contains(&cfg));
        }
    }

    #[test]
    fn neighbors_stay_inside_and_differ() {
        let space = ConfigSpace::new(shape(), TileKind::Direct, SSM, true);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = space.sample(&mut rng, 1000).unwrap();
        let mut moved = 0;
        for _ in 0..50 {
            let n = space.neighbor(&cfg, &mut rng);
            assert!(space.contains(&n));
            if n != cfg {
                moved += 1;
            }
        }
        assert!(moved > 25, "neighbor almost never moves: {moved}/50");
    }

    #[test]
    fn crossover_children_are_valid() {
        let space = ConfigSpace::new(shape(), TileKind::Direct, SSM, false);
        let mut rng = StdRng::seed_from_u64(3);
        let a = space.sample(&mut rng, 1000).unwrap();
        let b = space.sample(&mut rng, 1000).unwrap();
        for _ in 0..20 {
            let c = space.crossover(&a, &b, &mut rng);
            assert!(space.contains(&c));
        }
    }

    #[test]
    fn count_matches_for_each() {
        let space = ConfigSpace::new(shape(), TileKind::Direct, SSM, true);
        let mut n = 0u64;
        space.for_each(|_| {
            n += 1;
            true
        });
        assert_eq!(n, space.count());
    }

    #[test]
    fn smaller_device_smem_shrinks_space() {
        let big = ConfigSpace::new(shape(), TileKind::Direct, 96 * 1024, false);
        let small = ConfigSpace::new(shape(), TileKind::Direct, 32 * 1024, false);
        assert!(small.count() < big.count());
    }

    #[test]
    fn fused_pool_space_restricts_tiles_to_the_pool_grid() {
        let pool = Epilogue::ReluPool { k: 2 };
        let space = ConfigSpace::fused(shape(), TileKind::Direct, SSM, true, pool);
        assert!(space.tile_choices_nonempty());
        space.for_each(|cfg| {
            assert_eq!(cfg.x % 2, 0, "pool window must tile the block: {cfg}");
            assert_eq!(cfg.y % 2, 0);
            true
        });
        assert!(space.count() > 0);
        assert!(space.count() < ConfigSpace::new(shape(), TileKind::Direct, SSM, true).count());
        // Relu constrains nothing: its space is the bare-conv space.
        let relu = ConfigSpace::fused(shape(), TileKind::Direct, SSM, true, Epilogue::Relu);
        assert_eq!(relu.count(), ConfigSpace::new(shape(), TileKind::Direct, SSM, true).count());
    }

    #[test]
    fn fused_winograd_space_honours_both_grids() {
        // e = 2 (F2X3), pool k = 2: lcm is 2. With k = 4: lcm is 4.
        let kind = TileKind::Winograd(WinogradTile::F2X3);
        let space = ConfigSpace::fused(shape(), kind, SSM, false, Epilogue::ReluPool { k: 4 });
        space.for_each(|cfg| {
            assert_eq!(cfg.x % 4, 0);
            assert_eq!(cfg.y % 4, 0);
            true
        });
        assert!(space.count() > 0);
    }

    #[test]
    fn incompatible_pool_window_empties_the_tile_choices() {
        // Padded output of the 28x28/3x3/s1/p1 shape is 28: divisors
        // share nothing with a pool window of 13, so no fused tile exists.
        let space =
            ConfigSpace::fused(shape(), TileKind::Direct, SSM, true, Epilogue::ReluPool { k: 13 });
        assert!(!space.tile_choices_nonempty());
        assert_eq!(space.count(), 0);
    }

    #[test]
    fn adjacent_walks_stay_in_range() {
        let choices = [1usize, 2, 4, 8];
        let mut rng = StdRng::seed_from_u64(4);
        let mut cur = 4usize;
        for _ in 0..100 {
            cur = adjacent(&choices, cur, &mut rng);
            assert!(choices.contains(&cur));
        }
        // Unknown current value falls back to a random choice.
        let v = adjacent(&choices, 3, &mut rng);
        assert!(choices.contains(&v));
    }
}
