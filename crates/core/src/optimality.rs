//! Integer tile selection under the optimality condition (§5.2/§5.3 and the
//! Table 1 searching domain).
//!
//! The analytic optimum `x y = R z`, `x y z = S_b` is real-valued; real
//! schedules need `x | H_out`, `y | W_out`, `z | C_out` (Table 1: "tile
//! size which are the factor of Hout, Wout, Cout"). This module enumerates
//! factor triples, scores them by the Eq. 20/22 read volume, and returns the
//! best feasible tile. The auto-tuner uses the same machinery to build its
//! pruned searching domain.

use crate::shapes::{ConvShape, WinogradTile};

/// A concrete integer output tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile {
    /// Tile height `x` (divides `H_out`).
    pub x: usize,
    /// Tile width `y` (divides `W_out`).
    pub y: usize,
    /// Tile depth in output channels `z` (divides `C_out`).
    pub z: usize,
}

impl Tile {
    pub fn volume(&self) -> usize {
        self.x * self.y * self.z
    }
}

impl std::fmt::Display for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.x, self.y, self.z)
    }
}

/// Output extents a schedule's tiles must divide. Real kernels launch
/// `ceil(out/tile)` blocks with predicated edges; factor-constrained tiles
/// over a *slightly padded* extent model that while keeping the Table 1
/// "tile divides output" semantics. Direct extents round up to the next
/// multiple of 4 (>= 32), 2 (>= 8) or stay exact (< 8); Winograd extents
/// additionally round to multiples of the output tile edge `e`. The padded
/// rows are charged as full traffic — an overcount of a few percent that
/// only penalises our own schedules.
pub fn padded_out(shape: &ConvShape, kind: TileKind) -> (usize, usize) {
    fn lcm(a: usize, b: usize) -> usize {
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        a / gcd(a, b) * b
    }
    let quantum = |n: usize| -> usize {
        let q = match kind {
            TileKind::Direct => {
                if n >= 32 {
                    4
                } else if n >= 8 {
                    2
                } else {
                    1
                }
            }
            TileKind::Winograd(t) => {
                if n >= 32 {
                    lcm(t.e, 4)
                } else {
                    t.e
                }
            }
        };
        n.div_ceil(q) * q
    };
    (quantum(shape.hout()), quantum(shape.wout()))
}

/// All positive divisors of `n`, ascending.
pub fn divisors(n: usize) -> Vec<usize> {
    assert!(n > 0, "divisors of zero are unbounded");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Which algorithm the tile is for; affects both the on-chip budget
/// accounting and the reuse factor in the optimality condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileKind {
    /// Direct convolution: budget is the output tile itself (`xyz` partial
    /// sums stay resident), reuse factor `R = Wk Hk / mu^2`.
    Direct,
    /// Winograd: budget is the two temporary arrays,
    /// `2 (e+r-1)^2/e^2 * xyz`, reuse factor `r^2`.
    Winograd(WinogradTile),
}

impl TileKind {
    /// Reuse factor entering the optimality condition `x y = R z`.
    pub fn reuse(&self, shape: &ConvShape) -> f64 {
        match self {
            TileKind::Direct => shape.reuse_factor(),
            TileKind::Winograd(t) => (t.r * t.r) as f64,
        }
    }

    /// On-chip elements consumed by a tile under the *paper's* accounting
    /// (§5.3 keeps two temporary arrays per in-flight Winograd tile).
    pub fn onchip_elems(&self, tile: &Tile) -> f64 {
        match self {
            TileKind::Direct => tile.volume() as f64,
            TileKind::Winograd(t) => {
                crate::winograd::onchip_budget(*t, tile.x as f64, tile.y as f64, tile.z as f64)
            }
        }
    }

    /// Resident accumulator elements of the *implementation*: the direct
    /// dataflow keeps the `xyz` partial sums; the Winograd dataflow keeps
    /// one `(e+r-1)^2` accumulator per tile (`Pi += P ⊙ J` fuses the
    /// multiply into the accumulation, so the paper's second temporary
    /// array is never materialised — strictly less on-chip state for the
    /// same dataflow; see DESIGN.md).
    pub fn accumulator_elems(&self, tile: &Tile) -> f64 {
        match self {
            TileKind::Direct => tile.volume() as f64,
            TileKind::Winograd(t) => {
                let a = t.a() as f64;
                a * a / (t.e * t.e) as f64 * tile.volume() as f64
            }
        }
    }

    /// Read I/O volume for this tile (Eq. 20 or Eq. 22).
    pub fn read_io(&self, shape: &ConvShape, tile: &Tile) -> f64 {
        let (x, y, z) = (tile.x as f64, tile.y as f64, tile.z as f64);
        match self {
            TileKind::Direct => crate::direct::dataflow_read_io(shape, x, y, z),
            TileKind::Winograd(t) => crate::winograd::dataflow_read_io(shape, *t, x, y, z),
        }
    }

    /// Halo-exact read I/O: like [`TileKind::read_io`] but charging the
    /// true input staging extent `x' = (x-1)mu + K` instead of Eq. 20's
    /// `x' ~= mu x` approximation, with blocks counted over the padded
    /// extents. Eq. 20 ties all tiles of equal `xy` product; the halo
    /// breaks the tie in favour of square tiles, which is what a real tile
    /// loader pays.
    pub fn exact_read_io(&self, shape: &ConvShape, tile: &Tile) -> f64 {
        let (hp, wp) = padded_out(shape, *self);
        let blocks = (hp.div_ceil(tile.x) * wp.div_ceil(tile.y) * shape.cout.div_ceil(tile.z))
            as f64
            * shape.batch as f64;
        match self {
            TileKind::Direct => {
                let xp = ((tile.x - 1) * shape.stride + shape.kh) as f64;
                let yp = ((tile.y - 1) * shape.stride + shape.kw) as f64;
                blocks * shape.cin as f64 * (xp * yp + (shape.kh * shape.kw * tile.z) as f64)
            }
            TileKind::Winograd(t) => {
                let xp = (tile.x + t.r - 1) as f64;
                let yp = (tile.y + t.r - 1) as f64;
                blocks * shape.cin as f64 * (xp * yp + (t.r * t.r * tile.z) as f64)
            }
        }
    }
}

/// Result of a tile search.
#[derive(Debug, Clone)]
pub struct TileChoice {
    pub tile: Tile,
    /// Modelled read I/O (elements) at this tile.
    pub read_io: f64,
    /// Relative deviation from the optimality condition `xy = Rz`.
    pub deviation: f64,
}

/// Enumerates every feasible tile: factor triples of the *padded* output
/// extents (see [`padded_out`]) whose implementation footprint
/// ([`TileKind::accumulator_elems`]) fits in `sb` elements. Winograd tiles
/// are additionally multiples of `e`.
pub fn feasible_tiles(shape: &ConvShape, kind: TileKind, sb: f64) -> Vec<Tile> {
    let (hp, wp) = padded_out(shape, kind);
    let e = match kind {
        TileKind::Direct => 1,
        TileKind::Winograd(t) => t.e,
    };
    let mut out = Vec::new();
    for &x in divisors(hp).iter().filter(|&&d| d % e == 0) {
        for &y in divisors(wp).iter().filter(|&&d| d % e == 0) {
            for &z in &divisors(shape.cout) {
                let t = Tile { x, y, z };
                if kind.accumulator_elems(&t) <= sb {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Picks the feasible tile minimising the *halo-exact* read I/O
/// ([`TileKind::exact_read_io`]); ties broken by larger volume (better
/// amortisation of fixed costs), then smaller optimality-condition
/// deviation. The reported `read_io` is the halo-exact figure.
pub fn best_tile(shape: &ConvShape, kind: TileKind, sb: f64) -> Option<TileChoice> {
    let r = kind.reuse(shape);
    feasible_tiles(shape, kind, sb)
        .into_iter()
        .map(|tile| {
            let read_io = kind.exact_read_io(shape, &tile);
            let lhs = (tile.x * tile.y) as f64;
            let rhs = r * tile.z as f64;
            let deviation = (lhs - rhs).abs() / lhs.max(rhs);
            TileChoice { tile, read_io, deviation }
        })
        .min_by(|a, b| {
            a.read_io
                .total_cmp(&b.read_io)
                .then(b.tile.volume().cmp(&a.tile.volume()))
                .then(a.deviation.total_cmp(&b.deviation))
        })
}

/// The relaxed (real-valued) optimum read I/O for the same budget — a floor
/// no integer tile can beat. For `TileKind::Direct` with on-chip budget
/// `sb`: `xyz = sb`, `xy = Rz`; for Winograd the budget is deflated by the
/// temporary-array factor first.
pub fn relaxed_optimum_read_io(shape: &ConvShape, kind: TileKind, sb: f64) -> f64 {
    let r = kind.reuse(shape);
    let xyz = match kind {
        TileKind::Direct => sb,
        TileKind::Winograd(t) => {
            let a = t.a() as f64;
            sb * (t.e * t.e) as f64 / (2.0 * a * a)
        }
    };
    let z = (xyz / r).sqrt();
    let xy = r * z;
    let x = xy.sqrt();
    kind.read_io(shape, &Tile { x: 1, y: 1, z: 1 }) * 0.0 // keep shape borrow simple
        + match kind {
            TileKind::Direct => crate::direct::dataflow_read_io(shape, x, x, z),
            TileKind::Winograd(t) => crate::winograd::dataflow_read_io(shape, t, x, x, z),
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_are_complete_and_sorted() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(49), vec![1, 7, 49]);
        assert_eq!(divisors(56), vec![1, 2, 4, 7, 8, 14, 28, 56]);
    }

    #[test]
    fn feasible_tiles_respect_budget_and_divisibility() {
        let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
        let sb = 512.0;
        let tiles = feasible_tiles(&shape, TileKind::Direct, sb);
        assert!(!tiles.is_empty());
        for t in &tiles {
            assert_eq!(shape.hout() % t.x, 0);
            assert_eq!(shape.wout() % t.y, 0);
            assert_eq!(shape.cout % t.z, 0);
            assert!(t.volume() as f64 <= sb);
        }
    }

    #[test]
    fn best_tile_never_beats_relaxed_optimum() {
        for hw in [14usize, 28, 56] {
            let shape = ConvShape::square(128, hw, 64, 3, 1, 1);
            for sb in [256.0, 1024.0, 4096.0] {
                let best = best_tile(&shape, TileKind::Direct, sb).unwrap();
                let floor = relaxed_optimum_read_io(&shape, TileKind::Direct, sb);
                assert!(
                    best.read_io >= floor * 0.999,
                    "hw={hw} sb={sb}: integer {0} < relaxed {floor}",
                    best.read_io
                );
            }
        }
    }

    #[test]
    fn best_tile_close_to_relaxed_optimum_when_factors_rich() {
        // Hout=Wout=56 and Cout=64 have many divisors: the integer optimum
        // should land within 2x of the relaxed bound.
        let shape = ConvShape::square(256, 56, 64, 3, 1, 1);
        let sb = 2048.0;
        let best = best_tile(&shape, TileKind::Direct, sb).unwrap();
        let floor = relaxed_optimum_read_io(&shape, TileKind::Direct, sb);
        assert!(best.read_io < 2.0 * floor, "integer {} floor {floor}", best.read_io);
    }

    #[test]
    fn winograd_budget_includes_temporary_arrays() {
        let tile = Tile { x: 4, y: 4, z: 4 };
        let kind = TileKind::Winograd(WinogradTile::F2X3);
        // 2 * 16/4 * 64 = 512 elements.
        assert!((kind.onchip_elems(&tile) - 512.0).abs() < 1e-9);
        // Direct budget is just the volume.
        assert!((TileKind::Direct.onchip_elems(&tile) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn winograd_best_tile_feasible() {
        let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
        let kind = TileKind::Winograd(WinogradTile::F2X3);
        let sb = 6144.0;
        let best = best_tile(&shape, kind, sb).unwrap();
        assert!(kind.accumulator_elems(&best.tile) <= sb);
        // The paper's two-array accounting is exactly double the fused
        // implementation footprint.
        assert!(
            (kind.onchip_elems(&best.tile) - 2.0 * kind.accumulator_elems(&best.tile)).abs() < 1e-9
        );
        // Condition xy = r^2 z should be approachable with rich factors
        // (the halo-exact scorer shifts the optimum slightly toward deeper
        // z, so the Eq. 22 deviation is loose but bounded).
        assert!(best.deviation < 0.7, "deviation {}", best.deviation);
    }

    #[test]
    fn more_budget_means_no_more_io() {
        let shape = ConvShape::square(256, 56, 128, 3, 1, 1);
        let mut prev = f64::INFINITY;
        for sb in [128.0, 512.0, 2048.0, 8192.0] {
            let best = best_tile(&shape, TileKind::Direct, sb).unwrap();
            assert!(best.read_io <= prev * 1.0001, "sb={sb}");
            prev = best.read_io;
        }
    }

    #[test]
    fn tiny_budget_still_has_unit_tile() {
        let shape = ConvShape::square(8, 7, 3, 3, 1, 1);
        let best = best_tile(&shape, TileKind::Direct, 1.0).unwrap();
        assert_eq!(best.tile, Tile { x: 1, y: 1, z: 1 });
    }
}
