//! Gradient-boosted regression trees, from scratch — the XGBoost stand-in
//! behind the auto-tuning engine's cost model (paper §6.1: "We use XGBoost
//! method to train a gradient tree boosting model as the cost model").
//!
//! Squared-error boosting: each round fits a depth-limited CART regression
//! tree to the current residuals and adds it with a learning-rate shrink.
//! Splits minimise within-leaf variance via exact search over sorted
//! feature values. Row subsampling (stochastic gradient boosting) is
//! supported. Data sizes in the tuner are hundreds of rows, so the exact
//! method is plenty fast.
//!
//! ## Parallelism and determinism
//!
//! Everything here is serial. Boosting rounds depend on each other, and
//! the per-row and per-tree maps inside a round cost well under a
//! microsecond per item against a ~12 µs pool hand-off, at the 16–256
//! rows and 60 trees the tuner fits — far below the "one item ≥ 100
//! hand-offs" rule (README, "Parallelism & determinism"). A fit or a
//! prediction is a pure function of its inputs and the caller's RNG.

use rand::seq::SliceRandom;
use rand::Rng;

/// A single regression-tree node (arena-allocated inside [`Tree`]).
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the `< threshold` child.
        left: usize,
        /// Arena index of the `>= threshold` child.
        right: usize,
    },
}

/// A CART regression tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

/// Tree-growing hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 5, min_samples_leaf: 2 }
    }
}

impl Tree {
    /// Fits a tree to `(rows, targets)` restricted to `index` (row ids).
    pub fn fit(rows: &[Vec<f64>], targets: &[f64], index: &[usize], params: TreeParams) -> Tree {
        assert_eq!(rows.len(), targets.len());
        assert!(!index.is_empty(), "cannot fit on an empty sample");
        let mut tree = Tree { nodes: Vec::new() };
        let mut idx = index.to_vec();
        tree.grow(rows, targets, &mut idx, params.max_depth, params);
        tree
    }

    fn grow(
        &mut self,
        rows: &[Vec<f64>],
        targets: &[f64],
        index: &mut [usize],
        depth: usize,
        params: TreeParams,
    ) -> usize {
        let mean = index.iter().map(|&i| targets[i]).sum::<f64>() / index.len() as f64;
        if depth == 0 || index.len() < 2 * params.min_samples_leaf {
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf { value: mean });
            return id;
        }
        match best_split(rows, targets, index, params.min_samples_leaf) {
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: mean });
                id
            }
            Some((feature, threshold)) => {
                // Partition the index in place.
                let mid = partition(rows, index, feature, threshold);
                // Reserve our slot before growing children.
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: mean }); // placeholder
                let (left_idx, right_idx) = index.split_at_mut(mid);
                let left = self.grow(rows, targets, left_idx, depth - 1, params);
                let right = self.grow(rows, targets, right_idx, depth - 1, params);
                self.nodes[id] = Node::Split { feature, threshold, left, right };
                id
            }
        }
    }

    /// Predicts one row. The root is node 0.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    at = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a bare stump.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Finds the variance-minimising `(feature, threshold)` split, or `None`
/// when no split improves on the parent (constant targets / too few rows).
fn best_split(
    rows: &[Vec<f64>],
    targets: &[f64],
    index: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let n = index.len();
    let num_features = rows[index[0]].len();
    let total_sum: f64 = index.iter().map(|&i| targets[i]).sum();
    let total_sq: f64 = index.iter().map(|&i| targets[i] * targets[i]).sum();
    let parent_sse = total_sq - total_sum * total_sum / n as f64;
    if parent_sse <= 1e-12 {
        return None;
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    let mut order: Vec<usize> = index.to_vec();
    for f in 0..num_features {
        order.sort_by(|&a, &b| rows[a][f].total_cmp(&rows[b][f]));
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (k, &i) in order.iter().enumerate().take(n - 1) {
            left_sum += targets[i];
            left_sq += targets[i] * targets[i];
            let left_n = k + 1;
            let right_n = n - left_n;
            if left_n < min_leaf || right_n < min_leaf {
                continue;
            }
            let v_here = rows[i][f];
            let v_next = rows[order[k + 1]][f];
            if v_next <= v_here {
                continue; // no threshold separates equal values
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse = (left_sq - left_sum * left_sum / left_n as f64)
                + (right_sq - right_sum * right_sum / right_n as f64);
            if best.as_ref().is_none_or(|&(_, _, b)| sse < b) {
                best = Some((f, (v_here + v_next) / 2.0, sse));
            }
        }
    }
    best.filter(|&(_, _, sse)| sse < parent_sse - 1e-12).map(|(f, t, _)| (f, t))
}

/// Partitions `index` so rows with `row[feature] < threshold` come first;
/// returns the boundary.
fn partition(rows: &[Vec<f64>], index: &mut [usize], feature: usize, threshold: f64) -> usize {
    let mut mid = 0;
    for k in 0..index.len() {
        if rows[index[k]][feature] < threshold {
            index.swap(mid, k);
            mid += 1;
        }
    }
    mid
}

/// Gradient-boosted tree ensemble with squared loss.
#[derive(Debug, Clone)]
pub struct Gbrt {
    base: f64,
    trees: Vec<Tree>,
    learning_rate: f64,
}

/// Boosting hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GbrtParams {
    pub n_trees: usize,
    pub learning_rate: f64,
    pub tree: TreeParams,
    /// Row-subsampling fraction per round (stochastic boosting).
    pub subsample: f64,
}

impl Default for GbrtParams {
    fn default() -> Self {
        Self { n_trees: 60, learning_rate: 0.15, tree: TreeParams::default(), subsample: 0.85 }
    }
}

impl Gbrt {
    /// Fits the ensemble. Requires at least one row.
    pub fn fit(rows: &[Vec<f64>], targets: &[f64], params: GbrtParams, rng: &mut impl Rng) -> Gbrt {
        assert_eq!(rows.len(), targets.len());
        assert!(!rows.is_empty(), "cannot fit on an empty dataset");
        let n = rows.len();
        let base = targets.iter().sum::<f64>() / n as f64;
        let mut preds = vec![base; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let all: Vec<usize> = (0..n).collect();
        let sub = ((n as f64 * params.subsample).ceil() as usize).clamp(1, n);
        for _ in 0..params.n_trees {
            let residuals: Vec<f64> = targets.iter().zip(&preds).map(|(t, p)| t - p).collect();
            let index: Vec<usize> = if sub == n {
                all.clone()
            } else {
                let mut shuffled = all.clone();
                shuffled.shuffle(rng);
                shuffled.truncate(sub);
                shuffled
            };
            let tree = Tree::fit(rows, &residuals, &index, params.tree);
            for (p, row) in preds.iter_mut().zip(rows) {
                *p += params.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        Gbrt { base, trees, learning_rate: params.learning_rate }
    }

    /// Predicts one row: the base plus the shrunk sum of the trees'
    /// leaves, added in tree order.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let tree_sum = self.trees.iter().map(|t| t.predict(row)).sum::<f64>();
        self.base + self.learning_rate * tree_sum
    }

    /// Predicts many rows at once, in row order.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|row| self.predict(row)).collect()
    }

    /// Root-mean-square error over a dataset.
    pub fn rmse(&self, rows: &[Vec<f64>], targets: &[f64]) -> f64 {
        let preds = self.predict_batch(rows);
        let se: f64 = preds
            .iter()
            .zip(targets)
            .map(|(p, t)| {
                let d = p - t;
                d * d
            })
            .sum();
        (se / rows.len() as f64).sqrt()
    }

    /// Number of boosted trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the ensemble has no trees (prediction = base mean).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Permutation feature importance: the RMSE increase when feature
    /// `f`'s column is shuffled (Breiman). Returns one non-negative score
    /// per feature; larger = the model leans on it harder. Diagnostics for
    /// "what did the cost model learn?" — the tuner itself never needs it.
    pub fn permutation_importance(
        &self,
        rows: &[Vec<f64>],
        targets: &[f64],
        rng: &mut impl Rng,
    ) -> Vec<f64> {
        assert!(!rows.is_empty());
        let base = self.rmse(rows, targets);
        let num_features = rows[0].len();
        let n = rows.len();
        let mut scores = Vec::with_capacity(num_features);
        let mut scratch: Vec<Vec<f64>> = rows.to_vec();
        for f in 0..num_features {
            // Shuffle column f in the scratch copy.
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(rng);
            for (i, &src) in perm.iter().enumerate() {
                scratch[i][f] = rows[src][f];
            }
            let shuffled = self.rmse(&scratch, targets);
            scores.push((shuffled - base).max(0.0));
            // Restore the column.
            for (i, row) in rows.iter().enumerate() {
                scratch[i][f] = row[f];
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn single_tree_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let idx: Vec<usize> = (0..20).collect();
        let tree =
            Tree::fit(&rows, &targets, &idx, TreeParams { max_depth: 2, min_samples_leaf: 1 });
        assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn constant_targets_give_stump() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets = vec![2.5; 10];
        let idx: Vec<usize> = (0..10).collect();
        let tree = Tree::fit(&rows, &targets, &idx, TreeParams::default());
        assert_eq!(tree.len(), 1);
        assert!((tree.predict(&[100.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn boosting_reduces_training_error() {
        // y = x0^2 + 3 x1 with noise-free data.
        let mut r = rng();
        let rows: Vec<Vec<f64>> =
            (0..200).map(|_| vec![r.gen_range(-2.0..2.0), r.gen_range(-1.0..1.0)]).collect();
        let targets: Vec<f64> = rows.iter().map(|v| v[0] * v[0] + 3.0 * v[1]).collect();
        let short = Gbrt::fit(
            &rows,
            &targets,
            GbrtParams { n_trees: 5, ..GbrtParams::default() },
            &mut rng(),
        );
        let long = Gbrt::fit(
            &rows,
            &targets,
            GbrtParams { n_trees: 80, ..GbrtParams::default() },
            &mut rng(),
        );
        let e_short = short.rmse(&rows, &targets);
        let e_long = long.rmse(&rows, &targets);
        assert!(e_long < e_short, "80 trees {e_long} !< 5 trees {e_short}");
        assert!(e_long < 0.3, "training rmse too high: {e_long}");
    }

    #[test]
    fn generalises_on_smooth_function() {
        let mut r = rng();
        let make = |r: &mut StdRng, n: usize| -> (Vec<Vec<f64>>, Vec<f64>) {
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| vec![r.gen_range(0.0..4.0), r.gen_range(0.0..4.0)]).collect();
            let y = rows.iter().map(|v| (v[0] - 2.0).abs() + 0.5 * v[1]).collect();
            (rows, y)
        };
        let (train_x, train_y) = make(&mut r, 400);
        let (test_x, test_y) = make(&mut r, 100);
        let model = Gbrt::fit(&train_x, &train_y, GbrtParams::default(), &mut rng());
        let err = model.rmse(&test_x, &test_y);
        assert!(err < 0.4, "test rmse {err}");
    }

    #[test]
    fn ranks_monotone_function_correctly() {
        // What the tuner actually needs: ranking, not calibration.
        let rows: Vec<Vec<f64>> = (1..=50).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let targets: Vec<f64> = rows.iter().map(|v| v[0].powf(1.5)).collect();
        let model = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut rng());
        let lo = model.predict(&[5.0, 3.0]);
        let hi = model.predict(&[45.0, 3.0]);
        assert!(hi > lo * 2.0, "hi {hi} lo {lo}");
    }

    #[test]
    fn single_row_dataset() {
        let model = Gbrt::fit(&[vec![1.0, 2.0]], &[7.0], GbrtParams::default(), &mut rng());
        assert!((model.predict(&[1.0, 2.0]) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn predict_is_deterministic() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..30).map(|i| (i * i) as f64).collect();
        let model = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut rng());
        let a = model.predict(&[13.0]);
        let b = model.predict(&[13.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_importance_identifies_the_informative_feature() {
        let mut r = rng();
        // y depends on feature 0 only; feature 1 is noise.
        let rows: Vec<Vec<f64>> =
            (0..150).map(|_| vec![r.gen_range(-2.0..2.0), r.gen_range(-2.0..2.0)]).collect();
        let targets: Vec<f64> = rows.iter().map(|v| 3.0 * v[0]).collect();
        let model = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut rng());
        let imp = model.permutation_importance(&rows, &targets, &mut rng());
        assert_eq!(imp.len(), 2);
        assert!(
            imp[0] > 5.0 * imp[1].max(1e-6),
            "importance did not separate signal from noise: {imp:?}"
        );
    }

    #[test]
    fn predict_batch_matches_per_row_predict() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..64).map(|i| (i * 3) as f64).collect();
        let model = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut rng());
        let batch = model.predict_batch(&rows);
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(got.to_bits(), model.predict(row).to_bits());
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        // With min 5 per leaf and 8 rows, only one split is possible at
        // most; depth stays shallow.
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let idx: Vec<usize> = (0..8).collect();
        let tree =
            Tree::fit(&rows, &targets, &idx, TreeParams { max_depth: 10, min_samples_leaf: 5 });
        assert!(tree.len() <= 3, "tree has {} nodes", tree.len());
    }
}
