//! The paper's auto-tuning engine searcher: **parallel greedy random
//! walks** over the pruned searching domain (§6.2, "Searching Process").
//!
//! `n_s` walkers start from random configurations; each step, a walker
//! proposes a random neighbour and moves when the *predicted* cost
//! improves ("each random walk tends to converge on a configuration that
//! has lower predicted costs"). The converged walker positions become the
//! next measurement batch and are kept as the initial guesses for the
//! following round. "Parallel" is the paper's word for the `n_s`
//! independent walks (§8); they run one after another here, because one
//! walk step is a sub-microsecond model query (README, "Parallelism &
//! determinism"). The walkers are split over `RNG_STREAMS` chunks,
//! each with a seed derived from its chunk index.

use super::{dedupe, top_up, History, Searcher};
use crate::cost_model::CostModel;
use crate::features::featurize;
use crate::space::ConfigSpace;
use iolb_dataflow::config::ScheduleConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of RNG streams the walkers of one round are split over: chunk
/// `t` of the walker list draws from `base_seed ^ (t << 32)`. Part of the
/// seeded trajectory (changing it changes every tuned config), not a
/// thread count.
const RNG_STREAMS: usize = 4;

/// Parallel random-walk searcher (the ATE explorer).
pub struct ParallelRandomWalk {
    walkers: Vec<ScheduleConfig>,
    /// Walk steps per proposal round.
    pub steps_per_round: usize,
    /// Probability of restarting a converged walker from a fresh sample.
    pub restart_prob: f64,
    /// Analytic warm-start configurations (e.g. the optimality-condition
    /// tile): consumed as the first walker positions. This is the point of
    /// the lower-bound theory — the searcher starts where Eq. 20/22 says
    /// the optimum lives instead of cold.
    pub seeds: Vec<ScheduleConfig>,
}

impl ParallelRandomWalk {
    pub fn new() -> Self {
        Self { walkers: Vec::new(), steps_per_round: 12, restart_prob: 0.15, seeds: Vec::new() }
    }

    /// With analytic warm-start configurations.
    pub fn with_seeds(seeds: Vec<ScheduleConfig>) -> Self {
        Self { seeds, ..Self::new() }
    }
}

impl Default for ParallelRandomWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl Searcher for ParallelRandomWalk {
    fn propose(
        &mut self,
        space: &ConfigSpace,
        model: &dyn CostModel,
        history: &History,
        batch: usize,
        rng: &mut StdRng,
    ) -> Vec<ScheduleConfig> {
        // Warm starts first, then random seeds / occasional restarts.
        while self.walkers.len() < batch {
            if let Some(seed) = self.seeds.pop() {
                if space.contains(&seed) {
                    self.walkers.push(seed);
                }
                continue;
            }
            match space.sample(rng, 256) {
                Some(cfg) => self.walkers.push(cfg),
                None => break,
            }
        }
        for w in self.walkers.iter_mut() {
            if rng.gen_bool(self.restart_prob) {
                if let Some(fresh) = space.sample(rng, 256) {
                    *w = fresh;
                }
            }
        }
        if self.walkers.is_empty() {
            return Vec::new();
        }

        // Greedy walks: each chunk of walkers has its own derived seed.
        let chunk = self.walkers.len().div_ceil(RNG_STREAMS.min(self.walkers.len()));
        let base_seed: u64 = rng.gen();
        for (t, slice) in self.walkers.chunks_mut(chunk).enumerate() {
            let mut local = StdRng::seed_from_u64(base_seed ^ ((t as u64) << 32));
            for w in slice.iter_mut() {
                let mut cur = model.predict(&featurize(&space.shape, space.kind, w));
                for _ in 0..self.steps_per_round {
                    let cand = space.neighbor(w, &mut local);
                    let cost = model.predict(&featurize(&space.shape, space.kind, &cand));
                    if cost < cur {
                        *w = cand;
                        cur = cost;
                    }
                }
            }
        }

        let out = dedupe(self.walkers.clone(), history, batch);
        top_up(out, space, history, batch, rng)
    }

    fn warm_start(&mut self, seeds: &[ScheduleConfig]) {
        // `propose` consumes `self.seeds` back-to-front; append reversed
        // so the strongest (first) external seed is placed first.
        self.seeds.extend(seeds.iter().rev().copied());
    }

    fn name(&self) -> &'static str {
        "parallel-random-walk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::{CostModel, NoModel};
    use iolb_core::optimality::TileKind;
    use iolb_core::shapes::ConvShape;

    fn space(pruned: bool) -> ConfigSpace {
        ConfigSpace::new(
            ConvShape::square(64, 28, 32, 3, 1, 1),
            TileKind::Direct,
            96 * 1024,
            pruned,
        )
    }

    #[test]
    fn proposals_valid_even_without_model() {
        let space = space(true);
        let mut rng = StdRng::seed_from_u64(1);
        let h = History::new();
        let mut s = ParallelRandomWalk::new();
        let out = s.propose(&space, &NoModel, &h, 8, &mut rng);
        assert!(!out.is_empty());
        for cfg in &out {
            assert!(space.contains(cfg));
        }
    }

    /// Synthetic model with a clean gradient toward large tile volume.
    struct PreferBigTiles;
    impl CostModel for PreferBigTiles {
        fn predict(&self, f: &[f64]) -> f64 {
            100.0 - f[3] // log2 tile volume
        }
        fn train(&mut self, _: &[Vec<f64>], _: &[f64]) {}
        fn is_trained(&self) -> bool {
            true
        }
    }

    #[test]
    fn walkers_descend_the_predicted_cost() {
        let space = space(false);
        let mut rng = StdRng::seed_from_u64(2);
        let h = History::new();
        let mut s = ParallelRandomWalk { restart_prob: 0.0, ..ParallelRandomWalk::new() };
        let first = s.propose(&space, &PreferBigTiles, &h, 8, &mut rng);
        let v0: f64 =
            first.iter().map(|c| c.tile_volume() as f64).sum::<f64>() / first.len() as f64;
        for _ in 0..6 {
            let _ = s.propose(&space, &PreferBigTiles, &h, 8, &mut rng);
        }
        let last = s.propose(&space, &PreferBigTiles, &h, 8, &mut rng);
        let v1: f64 = last.iter().map(|c| c.tile_volume() as f64).sum::<f64>() / last.len() as f64;
        assert!(v1 > v0, "walkers did not descend: {v0} -> {v1}");
    }

    #[test]
    fn walks_are_deterministic_given_seed() {
        let space = space(true);
        let h = History::new();
        let run = || {
            let mut rng = StdRng::seed_from_u64(7);
            let mut s = ParallelRandomWalk::new();
            s.propose(&space, &NoModel, &h, 6, &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give the same proposals");
    }
}
