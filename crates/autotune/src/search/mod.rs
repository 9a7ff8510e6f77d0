//! Search strategies over the configuration space.
//!
//! Four strategies, mirroring the paper's Fig. 11 comparison:
//!
//! * [`random::RandomSearch`] — uniform sampling (TVM's `random` tuner);
//!   seeded with the analytic tile, it is the served tuner
//!   ([`crate::plan::tuner_setup`]);
//! * [`sa::SimulatedAnnealing`] — model-guided annealing (TVM's XGBoost+SA
//!   tuner);
//! * [`genetic::GeneticSearch`] — a genetic algorithm (TVM's GA tuner);
//! * [`walk::ParallelRandomWalk`] — the paper's auto-tuning engine: `n_s`
//!   parallel greedy random walks over the *pruned* searching domain,
//!   each converging to a configuration with low predicted cost (§6.2,
//!   "Searching Process").

pub mod genetic;
pub mod random;
pub mod sa;
pub mod walk;

use crate::cost_model::CostModel;
use crate::space::ConfigSpace;
use iolb_dataflow::config::ScheduleConfig;
use rand::rngs::StdRng;

/// Measurement history shared with searchers so they avoid re-proposing
/// already-measured configurations.
#[derive(Debug, Default, Clone)]
pub struct History {
    entries: Vec<(ScheduleConfig, f64)>,
}

impl History {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a measured configuration.
    pub(crate) fn push(&mut self, cfg: ScheduleConfig, cost_ms: f64) {
        self.entries.push((cfg, cost_ms));
    }

    /// Whether `cfg` has been measured already.
    pub(crate) fn contains(&self, cfg: &ScheduleConfig) -> bool {
        self.entries.iter().any(|(c, _)| c == cfg)
    }

    /// All measurements.
    pub(crate) fn entries(&self) -> &[(ScheduleConfig, f64)] {
        &self.entries
    }

    /// The best (lowest-cost) measurement so far.
    #[cfg(test)]
    pub(crate) fn best(&self) -> Option<(ScheduleConfig, f64)> {
        self.entries.iter().min_by(|a, b| a.1.total_cmp(&b.1)).copied()
    }

    /// Whether no measurements exist yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A batch-proposing search strategy.
pub trait Searcher {
    /// Proposes up to `batch` *new* configurations to measure next.
    fn propose(
        &mut self,
        space: &ConfigSpace,
        model: &dyn CostModel,
        history: &History,
        batch: usize,
        rng: &mut StdRng,
    ) -> Vec<ScheduleConfig>;

    /// Seeds the searcher's internal population with externally-known
    /// strong configurations — the warm-start hook the tuning-record
    /// store uses to resume from the best of previous runs (best first).
    /// Callers guarantee the seeds belong to the space being searched.
    /// Stateless strategies may ignore this (the default).
    fn warm_start(&mut self, _seeds: &[ScheduleConfig]) {}

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Deduplicates proposals against the history and within the batch.
pub(crate) fn dedupe(
    proposals: Vec<ScheduleConfig>,
    history: &History,
    batch: usize,
) -> Vec<ScheduleConfig> {
    let mut out: Vec<ScheduleConfig> = Vec::with_capacity(batch);
    for p in proposals {
        if !history.contains(&p) && !out.contains(&p) {
            out.push(p);
            if out.len() == batch {
                break;
            }
        }
    }
    out
}

/// Tops a deduplicated batch up with fresh random samples — the
/// epsilon-exploration every practical tuner keeps so a converged
/// population cannot starve the measurement loop.
pub(crate) fn top_up(
    mut out: Vec<ScheduleConfig>,
    space: &ConfigSpace,
    history: &History,
    batch: usize,
    rng: &mut StdRng,
) -> Vec<ScheduleConfig> {
    let mut tries = 0;
    while out.len() < batch && tries < batch * 16 {
        tries += 1;
        if let Some(cfg) = space.sample(rng, 64) {
            if !history.contains(&cfg) && !out.contains(&cfg) {
                out.push(cfg);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_tensor::layout::Layout;

    fn cfg(x: usize) -> ScheduleConfig {
        ScheduleConfig {
            x,
            y: 7,
            z: 8,
            nxt: 1,
            nyt: 1,
            nzt: 1,
            sb_bytes: 16 * 1024,
            layout: Layout::Chw,
        }
    }

    #[test]
    fn history_tracks_best() {
        let mut h = History::new();
        assert!(h.best().is_none());
        h.push(cfg(1), 5.0);
        h.push(cfg(2), 2.0);
        h.push(cfg(4), 9.0);
        let (best, cost) = h.best().unwrap();
        assert_eq!(best.x, 2);
        assert_eq!(cost, 2.0);
        assert!(h.contains(&cfg(4)));
        assert!(!h.contains(&cfg(7)));
    }

    #[test]
    fn dedupe_removes_history_and_batch_duplicates() {
        let mut h = History::new();
        h.push(cfg(1), 1.0);
        let out = dedupe(vec![cfg(1), cfg(2), cfg(2), cfg(4), cfg(7)], &h, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].x, 2);
        assert_eq!(out[1].x, 4);
    }
}
