//! Uniform random search — TVM's `random` tuner baseline, and the served
//! tuner when seeded with the analytic tile.

use super::{dedupe, History, Searcher};
use crate::cost_model::CostModel;
use crate::space::ConfigSpace;
use iolb_dataflow::config::ScheduleConfig;
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// Samples configurations uniformly; ignores the cost model entirely.
/// Queued seeds are proposed first, in order, each as is; a seed that
/// fails [`ConfigSpace::admits_seed`] is dropped.
#[derive(Debug, Default)]
pub struct RandomSearch {
    seeds: VecDeque<ScheduleConfig>,
}

impl RandomSearch {
    /// With warm seeds (e.g. the optimality-condition tile) proposed
    /// before any sample.
    pub fn with_seeds(seeds: Vec<ScheduleConfig>) -> Self {
        Self { seeds: seeds.into() }
    }
}

impl Searcher for RandomSearch {
    fn propose(
        &mut self,
        space: &ConfigSpace,
        _model: &dyn CostModel,
        history: &History,
        batch: usize,
        rng: &mut StdRng,
    ) -> Vec<ScheduleConfig> {
        let mut proposals = Vec::with_capacity(batch * 4);
        while proposals.len() < batch {
            let Some(seed) = self.seeds.pop_front() else { break };
            if space.admits_seed(&seed) && !history.contains(&seed) && !proposals.contains(&seed) {
                proposals.push(seed);
            }
        }
        for _ in 0..batch * 8 {
            if let Some(cfg) = space.sample(rng, 256) {
                proposals.push(cfg);
            }
        }
        dedupe(proposals, history, batch)
    }

    fn warm_start(&mut self, seeds: &[ScheduleConfig]) {
        self.seeds.extend(seeds);
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::NoModel;
    use crate::engine::{tune_with_store, TuneParams};
    use crate::measure::Measurer;
    use iolb_core::optimality::TileKind;
    use iolb_core::shapes::ConvShape;
    use iolb_gpusim::DeviceSpec;
    use rand::SeedableRng;

    fn space(pruned: bool) -> ConfigSpace {
        ConfigSpace::new(
            ConvShape::square(64, 28, 32, 3, 1, 1),
            TileKind::Direct,
            96 * 1024,
            pruned,
        )
    }

    #[test]
    fn proposes_fresh_valid_configs() {
        let space = space(false);
        let mut rng = StdRng::seed_from_u64(1);
        let mut h = History::new();
        let mut s = RandomSearch::default();
        let first = s.propose(&space, &NoModel, &h, 8, &mut rng);
        assert!(!first.is_empty());
        for cfg in &first {
            assert!(space.contains(cfg));
            h.push(*cfg, 1.0);
        }
        // Next round avoids everything already measured.
        let second = s.propose(&space, &NoModel, &h, 8, &mut rng);
        for cfg in &second {
            assert!(!h.contains(cfg));
        }
    }

    #[test]
    fn seeds_are_proposed_first_in_order() {
        let space = space(true);
        let mut rng = StdRng::seed_from_u64(2);
        let seeds: Vec<ScheduleConfig> =
            (0..3).map(|_| space.sample(&mut rng, 256).unwrap()).collect();
        let mut s = RandomSearch::with_seeds(seeds.clone());
        let out = s.propose(&space, &NoModel, &History::new(), 8, &mut rng);
        assert_eq!(out.len(), 8);
        assert_eq!(out[..3], seeds[..]);
        // A batch smaller than the queue keeps the rest for the next round.
        let mut s = RandomSearch::with_seeds(seeds.clone());
        assert_eq!(s.propose(&space, &NoModel, &History::new(), 2, &mut rng), seeds[..2]);
        assert_eq!(s.propose(&space, &NoModel, &History::new(), 2, &mut rng)[0], seeds[2]);
    }

    #[test]
    fn a_seed_that_fails_the_seed_rule_is_dropped() {
        let space = space(true);
        let mut rng = StdRng::seed_from_u64(3);
        let good = space.sample(&mut rng, 256).unwrap();
        // x = 5 does not divide the 28-wide output: off the tile grid.
        let off_grid = ScheduleConfig { x: 5, nxt: 1, ..good };
        // A tile too large for its S_b: on the grid but unbuildable.
        let too_big = ScheduleConfig { x: 28, y: 28, z: 32, sb_bytes: 8 * 1024, ..good };
        assert!(!space.admits_seed(&off_grid) && !space.admits_seed(&too_big));
        let mut s = RandomSearch::with_seeds(vec![off_grid, too_big, good]);
        let out = s.propose(&space, &NoModel, &History::new(), 8, &mut rng);
        assert_eq!(out[0], good);
        assert!(!out.contains(&off_grid) && !out.contains(&too_big));
    }

    #[test]
    fn a_seed_outside_the_band_is_measured() {
        // The seed rule skips the pruning band: a buildable tile the band
        // excludes is still proposed.
        let pruned = space(true);
        let mut found = None;
        space(false).for_each(|cfg| {
            let hit = pruned.admits_seed(cfg) && !pruned.contains(cfg);
            if hit {
                found = Some(*cfg);
            }
            !hit
        });
        let seed = found.expect("a buildable tile outside the band");
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = RandomSearch::with_seeds(vec![seed]);
        assert_eq!(s.propose(&pruned, &NoModel, &History::new(), 4, &mut rng)[0], seed);
    }

    #[test]
    fn warm_start_seeds_are_measured() {
        let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
        let device = DeviceSpec::v100();
        let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, true);
        let measurer = Measurer::new(device, shape, TileKind::Direct);
        let mut rng = StdRng::seed_from_u64(55);
        let seeds: Vec<ScheduleConfig> =
            (0..2).map(|_| space.sample(&mut rng, 256).unwrap()).collect();
        let measured = |warm: &[ScheduleConfig]| {
            let mut s = RandomSearch::default();
            s.warm_start(warm);
            let params = TuneParams { max_measurements: 8, batch: 4, patience: 8, seed: 5 };
            let mut store = iolb_records::RecordStore::new();
            tune_with_store(&space, &measurer, &mut NoModel, &mut s, params, &mut store).unwrap();
            let wl = crate::engine::workload_for(&space, &measurer);
            store.records(&wl.fingerprint()).iter().map(|r| r.config).collect::<Vec<_>>()
        };
        let cold = measured(&[]);
        assert!(seeds.iter().any(|c| !cold.contains(c)), "control: samples alone hit the seeds");
        let warm = measured(&seeds);
        for seed in &seeds {
            assert!(warm.contains(seed), "warm seed {seed} never measured");
        }
    }

    #[test]
    fn without_seeds_the_proposals_are_the_seedless_searchers() {
        // Golden batch of the searcher before it took seeds: with an
        // empty queue the RNG stream, and so every `TunerKind::TvmRandom`
        // trajectory the figures pin, is unchanged.
        use iolb_tensor::layout::Layout::{Chw, Cwh, Hwc};
        let mut rng = StdRng::seed_from_u64(6);
        let out =
            RandomSearch::default().propose(&space(false), &NoModel, &History::new(), 8, &mut rng);
        let golden = [
            (4, 7, 4, 2, 7, 1, 40960, Chw),
            (28, 14, 2, 28, 7, 1, 8192, Hwc),
            (4, 28, 32, 1, 14, 2, 49152, Chw),
            (14, 14, 32, 7, 7, 4, 8192, Hwc),
            (1, 28, 1, 1, 2, 1, 49152, Cwh),
            (28, 7, 8, 2, 7, 2, 8192, Cwh),
            (14, 28, 1, 1, 7, 1, 8192, Cwh),
            (28, 7, 1, 7, 7, 1, 8192, Chw),
        ];
        let golden: Vec<ScheduleConfig> = golden
            .iter()
            .map(|&(x, y, z, nxt, nyt, nzt, sb_bytes, layout)| ScheduleConfig {
                x,
                y,
                z,
                nxt,
                nyt,
                nzt,
                sb_bytes,
                layout,
            })
            .collect();
        assert_eq!(out, golden);
    }
}
