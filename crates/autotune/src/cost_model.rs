//! The learned cost model (paper Fig. 8, "Cost Model" box).
//!
//! Wraps the from-scratch GBT ensemble behind a small trait so searchers
//! can also run model-free. `NoModel` scores everything equally; it is
//! the served model ([`crate::plan::tuner_setup`]: the analytic seed
//! first, then uniform samples; no learned model) and, under the walk,
//! the ablation the benches exercise. The GBT steers the paper's engine
//! in the figure harnesses.

use crate::gbt::{Gbrt, GbrtParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Predicts the cost (milliseconds; lower is better) of a feature vector.
pub trait CostModel: Send + Sync {
    /// Predicted cost of one configuration's features.
    fn predict(&self, features: &[f64]) -> f64;
    /// Re-trains from scratch on the measurement history.
    fn train(&mut self, rows: &[Vec<f64>], costs: &[f64]);
    /// Whether the model has been trained at least once.
    fn is_trained(&self) -> bool;
}

/// GBT-backed cost model (the paper's XGBoost stand-in). Trains on
/// log-cost for scale robustness; predictions return to linear space.
pub struct GbtCostModel {
    model: Option<Gbrt>,
    params: GbrtParams,
    seed: u64,
}

impl GbtCostModel {
    pub(crate) fn new(params: GbrtParams, seed: u64) -> Self {
        Self { model: None, params, seed }
    }
}

impl Default for GbtCostModel {
    fn default() -> Self {
        Self::new(GbrtParams::default(), 0x5eed)
    }
}

impl CostModel for GbtCostModel {
    fn predict(&self, features: &[f64]) -> f64 {
        match &self.model {
            Some(m) => m.predict(features).exp(),
            None => 1.0,
        }
    }

    fn train(&mut self, rows: &[Vec<f64>], costs: &[f64]) {
        if rows.is_empty() {
            return;
        }
        let log_costs: Vec<f64> = costs.iter().map(|c| c.max(1e-9).ln()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.model = Some(Gbrt::fit(rows, &log_costs, self.params, &mut rng));
    }

    fn is_trained(&self) -> bool {
        self.model.is_some()
    }
}

/// A model that knows nothing: constant predictions. Guided searchers
/// degrade gracefully to unguided exploration with it.
#[derive(Default)]
pub struct NoModel;

impl CostModel for NoModel {
    fn predict(&self, _features: &[f64]) -> f64 {
        1.0
    }
    fn train(&mut self, _rows: &[Vec<f64>], _costs: &[f64]) {}
    fn is_trained(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_model_is_flat() {
        let m = GbtCostModel::default();
        assert!(!m.is_trained());
        assert_eq!(m.predict(&[1.0, 2.0]), m.predict(&[5.0, -3.0]));
    }

    #[test]
    fn trained_model_orders_simple_costs() {
        let rows: Vec<Vec<f64>> = (1..=60).map(|i| vec![i as f64, 1.0]).collect();
        let costs: Vec<f64> = (1..=60).map(|i| i as f64 * 0.1).collect();
        let mut m = GbtCostModel::default();
        m.train(&rows, &costs);
        assert!(m.is_trained());
        assert!(m.predict(&[5.0, 1.0]) < m.predict(&[55.0, 1.0]));
    }

    #[test]
    fn log_space_handles_wide_cost_ranges() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let costs: Vec<f64> = (0..40).map(|i| 10f64.powi(i / 10)).collect();
        let mut m = GbtCostModel::default();
        m.train(&rows, &costs);
        let lo = m.predict(&[2.0]);
        let hi = m.predict(&[38.0]);
        assert!(hi / lo > 100.0, "hi {hi} lo {lo}");
    }

    #[test]
    fn empty_training_is_a_noop() {
        let mut m = GbtCostModel::default();
        m.train(&[], &[]);
        assert!(!m.is_trained());
    }

    #[test]
    fn no_model_is_constant() {
        let mut m = NoModel;
        m.train(&[vec![1.0]], &[5.0]);
        assert!(!m.is_trained());
        assert_eq!(m.predict(&[9.9]), 1.0);
    }
}
