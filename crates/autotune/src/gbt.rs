//! Gradient-boosted regression trees, from scratch — the XGBoost stand-in
//! behind the auto-tuning engine's cost model (paper §6.1: "We use XGBoost
//! method to train a gradient tree boosting model as the cost model").
//!
//! Squared-error boosting: each round fits a depth-limited CART regression
//! tree to the current residuals and adds it with a learning-rate shrink.
//! Splits minimise within-leaf variance by exact greedy search. Row
//! subsampling (stochastic gradient boosting) is supported.
//!
//! ## The split search: sorted once, tie order kept
//!
//! A tuning run refits this model every round and a simulated measurement
//! costs a microsecond, so the fit *is* the tuner's wall-clock. The search
//! therefore sorts **once per fit** (`Presorted`), not once per node and
//! feature: every tree keeps, per node and per feature, the node's rows in
//! scan order, and a split only partitions those lists stably into the
//! children's ranges. A node's scan is one pass per feature with no branch
//! per candidate — an SSE at every position, `+∞` where no threshold
//! separates equal values, first minimum kept by select.
//!
//! The order is part of the contract, because equally good splits are told
//! apart by the rounding of running sums and so by the order rows are
//! added in (redundant features — one a monotone function of another —
//! make such ties routine). The reference semantics, kept under
//! `#[cfg(test)]` as the oracle, re-sorts a node's rows for feature `f` by
//! a stable sort on top of the order left by feature `f − 1`, starting
//! from the node's order in `index`: lexicographic by
//! `(x_f, x_{f−1}, …, x_0, position in index)` under `total_cmp`. So
//! `Presorted` holds `G_f(i)`, the dense rank of `(x_f, …, x_0)` over all
//! rows, and a node's list for `f` is its rows by `(G_f, position)`.
//! `index` itself must stay the in-place *swap* partition it always was:
//! it fixes the order each node's mean and totals are summed in, it keeps
//! left rows in order (so left lists need no work) and permutes right rows
//! (so right lists get their runs of equal `G_f` re-ordered by the new
//! positions). No hyper-parameter, RNG draw or summation order differs
//! from the sort-per-node search; every tree is bit-identical to it.
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
    ///
    /// Contract, asserted rather than mis-sorted or wrapped around:
    /// `index` must hold **distinct** row ids (a sample without
    /// replacement — the split search orders ties by a row's position in
    /// `index`, which a repeated id does not have), every row must have
    /// the same length, and `rows.len()` must fit the `u32` row ids the
    /// search works on.
    ///
    /// Non-finite values are not rejected and behave as they always have:
    /// features are ordered by `f64::total_cmp` and a NaN feature or
    /// threshold never compares `<`, so such rows fall to the right child
    /// (when a whole node does, its left child is an empty leaf valued
    /// NaN that no query reaches); any NaN or infinite target makes
    /// every candidate's squared error NaN, so no split is taken and the
    /// tree is a single leaf holding the non-finite mean.
    pub fn fit(rows: &[Vec<f64>], targets: &[f64], index: &[usize], params: TreeParams) -> Tree {
        Tree::fit_presorted(&Presorted::new(rows), targets, index, params)
    }

    /// [`Tree::fit`] on a matrix that is already ranked — what
    /// [`Gbrt::fit`] calls once per boosting round.
    fn fit_presorted(
        data: &Presorted,
        targets: &[f64],
        index: &[usize],
        params: TreeParams,
    ) -> Tree {
        assert_eq!(data.n, targets.len());
        assert!(!index.is_empty(), "cannot fit on an empty sample");
        let mut grower = Grower::new(data, targets, index, params.min_samples_leaf);
        grower.grow(0, index.len(), params.max_depth);
        Tree { nodes: grower.nodes }
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

/// The training matrix as the split search reads it, built once per fit.
struct Presorted {
    /// Row count.
    n: usize,
    num_features: usize,
    /// Features, column-major: `vals[f * n + i]` is `rows[i][f]`.
    vals: Vec<f64>,
    /// `rank[f * n + i]` is `G_f(i)`: the dense rank of the key
    /// `(x_f, x_{f-1}, …, x_0)` of row `i` under `total_cmp`.
    rank: Vec<u32>,
    /// The first feature `f` whose `G_f` tells every row apart (and with
    /// it every later one): from there on no list has ties to order.
    distinct_from: usize,
}

impl Presorted {
    fn new(rows: &[Vec<f64>]) -> Presorted {
        let n = rows.len();
        assert!(u32::try_from(n).is_ok(), "gbt: {n} rows do not fit u32 row ids");
        let num_features = rows.first().map_or(0, Vec::len);
        let mut vals = vec![0.0; num_features * n];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), num_features, "gbt: every row must have the same length");
            for (f, &v) in row.iter().enumerate() {
                vals[f * n + i] = v;
            }
        }
        // The cascade of stable sorts the per-node search used to re-run:
        // after pass `f` the rows are ordered by `(x_f, …, x_0, row id)`.
        let mut rank = vec![0u32; num_features * n];
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut distinct_from = num_features;
        for f in 0..num_features {
            let col = &vals[f * n..(f + 1) * n];
            order.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let (below, at) = rank.split_at_mut(f * n);
            let below = &below[f.saturating_sub(1) * n..];
            // The first row's rank is the 0 `rank` starts as.
            let mut g = 0u32;
            for pair in order.windows(2) {
                let (a, b) = (pair[0] as usize, pair[1] as usize);
                // `total_cmp` is equality of bit patterns.
                let same = col[a].to_bits() == col[b].to_bits() && (f == 0 || below[a] == below[b]);
                g += u32::from(!same);
                at[b] = g;
            }
            if g as usize + 1 == n {
                distinct_from = distinct_from.min(f);
            }
        }
        Presorted { n, num_features, vals, rank, distinct_from }
    }

    fn col(&self, f: usize) -> &[f64] {
        &self.vals[f * self.n..(f + 1) * self.n]
    }

    fn rank(&self, f: usize) -> &[u32] {
        &self.rank[f * self.n..(f + 1) * self.n]
    }
}

/// Marks a row outside the sample in [`Grower::pos`].
const UNSAMPLED: u32 = u32::MAX;

/// Grows one tree. A node is a range `lo..hi` of `index` and, for every
/// feature, the same range of that feature's list.
struct Grower<'a> {
    data: &'a Presorted,
    targets: &'a [f64],
    /// `min_samples_leaf`, at least 1 (a leaf needs a row; 0 never
    /// behaved differently from 1).
    min_leaf: usize,
    /// The sample. Split by the swap partition [`Grower::partition`],
    /// whose order is the order every node's mean and totals are summed in.
    index: Vec<u32>,
    /// `pos[i]`: where row `i` sits in `index`; refreshed over a node's
    /// range by [`Grower::split_lists`] before it is read.
    pos: Vec<u32>,
    /// `lists[f * m + lo..f * m + hi]` (`m = index.len()`): the node's
    /// rows ordered by `(G_f, pos)` — the scan order of feature `f`.
    lists: Vec<u32>,
    /// Right-child rows of the list being partitioned.
    spill: Vec<u32>,
    nodes: Vec<Node>,
}

impl<'a> Grower<'a> {
    fn new(data: &'a Presorted, targets: &'a [f64], sample: &[usize], min_leaf: usize) -> Self {
        let (n, m) = (data.n, sample.len());
        let mut pos = vec![UNSAMPLED; n];
        let mut index = Vec::with_capacity(m);
        for (k, &i) in sample.iter().enumerate() {
            assert!(pos[i] == UNSAMPLED, "Tree::fit: index must hold distinct row ids");
            pos[i] = k as u32;
            index.push(i as u32);
        }
        // Root lists: a stable counting sort of `index` by `G_f` is the
        // order `(G_f, pos)`.
        let mut lists = vec![0u32; data.num_features * m];
        let mut slot = vec![0u32; n + 1];
        for (f, list) in lists.chunks_exact_mut(m).enumerate() {
            let rank = data.rank(f);
            slot.fill(0);
            for &i in &index {
                slot[rank[i as usize] as usize + 1] += 1;
            }
            for g in 0..n {
                slot[g + 1] += slot[g];
            }
            for &i in &index {
                let s = &mut slot[rank[i as usize] as usize];
                list[*s as usize] = i;
                *s += 1;
            }
        }
        Grower {
            data,
            targets,
            min_leaf: min_leaf.max(1),
            index,
            pos,
            lists,
            spill: vec![0; m],
            nodes: Vec::new(),
        }
    }

    /// Grows the subtree over `index[lo..hi]`; returns its arena id.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let n = hi - lo;
        let total_sum = self.index[lo..hi].iter().map(|&i| self.targets[i as usize]).sum::<f64>();
        // Our slot comes before the children's; a split overwrites it.
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: total_sum / n as f64 });
        if depth == 0 || n < 2 * self.min_leaf {
            return id;
        }
        let Some((feature, threshold)) = self.best_split(lo, hi, total_sum) else { return id };
        let mid = self.partition(lo, hi, feature, threshold);
        // A child that stays a leaf reads `index` only.
        let splittable = |len: usize| depth > 1 && len >= 2 * self.min_leaf;
        let (left_splits, right_splits) = (splittable(mid - lo), splittable(hi - mid));
        if left_splits || right_splits {
            self.split_lists(lo, mid, hi, right_splits);
        }
        let left = self.grow(lo, mid, depth - 1);
        let right = self.grow(mid, hi, depth - 1);
        self.nodes[id] = Node::Split { feature, threshold, left, right };
        id
    }

    /// Finds the variance-minimising `(feature, threshold)` split of the
    /// node `lo..hi`, or `None` when no split improves on the parent
    /// (constant targets / too few rows). Of equally good candidates the
    /// first in `(feature, scan position)` order wins.
    fn best_split(&self, lo: usize, hi: usize, total_sum: f64) -> Option<(usize, f64)> {
        let n = hi - lo;
        let targets = self.targets;
        let total_sq: f64 =
            self.index[lo..hi].iter().map(|&i| targets[i as usize] * targets[i as usize]).sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        if parent_sse <= 1e-12 {
            return None;
        }

        let m = self.index.len();
        // Candidate `k` puts `list[..=k]` left; both sides keep `min_leaf`.
        let (first, end) = (self.min_leaf - 1, n - self.min_leaf);
        let mut best = (f64::INFINITY, 0usize, 0usize); // (sse, feature, k)
        for f in 0..self.data.num_features {
            let col = self.data.col(f);
            let list = &self.lists[f * m + lo..f * m + hi];
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for &i in &list[..first] {
                let t = targets[i as usize];
                left_sum += t;
                left_sq += t * t;
            }
            // No branch per candidate: an SSE everywhere, +inf where no
            // threshold separates equal values, first minimum by select.
            let (mut best_sse, mut best_k) = (f64::INFINITY, 0usize);
            let mut v_here = col[list[first] as usize];
            for (k, pair) in (first..end).zip(list[first..=end].windows(2)) {
                let t = targets[pair[0] as usize];
                left_sum += t;
                left_sq += t * t;
                let left_n = k + 1;
                let right_n = n - left_n;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n as f64)
                    + (right_sq - right_sum * right_sum / right_n as f64);
                let v_next = col[pair[1] as usize];
                let sse = if v_next <= v_here { f64::INFINITY } else { sse };
                v_here = v_next;
                let better = sse < best_sse;
                best_sse = if better { sse } else { best_sse };
                best_k = if better { k } else { best_k };
            }
            if best_sse < best.0 {
                best = (best_sse, f, best_k);
            }
        }
        let (sse, f, k) = best;
        (sse < parent_sse - 1e-12).then(|| {
            let (col, list) = (self.data.col(f), &self.lists[f * m + lo..]);
            (f, (col[list[k] as usize] + col[list[k + 1] as usize]) / 2.0)
        })
    }

    /// Partitions `index[lo..hi]` so rows with `row[feature] < threshold`
    /// come first; returns the boundary. Must stay this swap partition:
    /// left rows keep their order, right rows are permuted, and that
    /// order is the order the children's sums are taken in.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let col = self.data.col(feature);
        let mut mid = lo;
        for k in lo..hi {
            if col[self.index[k] as usize] < threshold {
                self.index.swap(mid, k);
                mid += 1;
            }
        }
        mid
    }

    /// Stably partitions every feature list of `lo..hi` into the
    /// children's ranges after `index` was partitioned at `mid`. The left
    /// lists come out in order (left rows keep their relative positions);
    /// in the right lists rows of equal `G_f` are put back in order of
    /// their new positions, which only a right child that will scan its
    /// lists needs (`fix_right`).
    fn split_lists(&mut self, lo: usize, mid: usize, hi: usize, fix_right: bool) {
        for k in lo..hi {
            self.pos[self.index[k] as usize] = k as u32;
        }
        let m = self.index.len();
        let pos = &self.pos;
        for (f, list) in self.lists.chunks_exact_mut(m).enumerate() {
            let list = &mut list[lo..hi];
            let spill = &mut self.spill[..hi - lo];
            // Both stores always happen and only the cursors are
            // conditional: which side a row falls on is a coin toss.
            let (mut w, mut s) = (0, 0);
            for r in 0..list.len() {
                let i = list[r];
                let left = (pos[i as usize] as usize) < mid;
                list[w] = i;
                spill[s] = i;
                w += usize::from(left);
                s += usize::from(!left);
            }
            let right = &mut list[w..];
            right.copy_from_slice(&spill[..s]);
            if fix_right && f < self.data.distinct_from {
                let rank = self.data.rank(f);
                let mut start = 0;
                for end in 1..=right.len() {
                    if end == right.len()
                        || rank[right[end] as usize] != rank[right[start] as usize]
                    {
                        if end - start > 1 {
                            right[start..end].sort_unstable_by_key(|&i| pos[i as usize]);
                        }
                        start = end;
                    }
                }
            }
        }
    }
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
    /// Fits the ensemble. Requires at least one row; [`Tree::fit`]'s
    /// contract on `rows` applies.
    pub fn fit(rows: &[Vec<f64>], targets: &[f64], params: GbrtParams, rng: &mut impl Rng) -> Gbrt {
        let data = Presorted::new(rows);
        Gbrt::boost(rows, targets, params, rng, |residuals, index| {
            Tree::fit_presorted(&data, residuals, index, params.tree)
        })
    }

    /// The boosting loop around a tree fitter `(residuals, sample) -> Tree`.
    /// Draws from `rng` exactly one `shuffle` of `0..n` per tree when
    /// `subsample` keeps fewer than `n` rows, and nothing otherwise.
    fn boost(
        rows: &[Vec<f64>],
        targets: &[f64],
        params: GbrtParams,
        rng: &mut impl Rng,
        mut fit_tree: impl FnMut(&[f64], &[usize]) -> Tree,
    ) -> Gbrt {
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
            let tree = fit_tree(&residuals, &index);
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

/// The split search this module shipped before the presort — every node
/// re-sorts every feature — kept verbatim as the oracle the tests hold the
/// presorted search to, bit for bit.
#[cfg(test)]
mod reference {
    use super::{Node, Tree, TreeParams};

    impl Tree {
        pub(super) fn fit_reference(
            rows: &[Vec<f64>],
            targets: &[f64],
            index: &[usize],
            params: TreeParams,
        ) -> Tree {
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

    /// `a` and `b` are the same tree to the bit. NaN leaves (an empty
    /// child's `0.0 / 0.0`) compare equal whatever their sign and payload.
    fn assert_same_tree(a: &Tree, b: &Tree, case: &str) {
        assert_eq!(a.nodes.len(), b.nodes.len(), "{case}: node count");
        for (id, pair) in a.nodes.iter().zip(&b.nodes).enumerate() {
            let same = match pair {
                (Node::Leaf { value: x }, Node::Leaf { value: y }) => {
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
                }
                (
                    Node::Split { feature: f, threshold: t, left: l, right: r },
                    Node::Split { feature: g, threshold: u, left: m, right: s },
                ) => f == g && l == m && r == s && t.to_bits() == u.to_bits(),
                _ => false,
            };
            assert!(same, "{case}: node {id}: {:?} vs reference {:?}", pair.0, pair.1);
        }
    }

    /// Rows built to tie: every feature takes at most `levels` values from
    /// a palette holding both zeros, some rows are copies of earlier ones,
    /// and some features are monotone copies of others (`2·a + 1`,
    /// `a + 8·b`) — equal split quality by construction, so rounding in
    /// the running sums, i.e. the order rows are added in, picks the split.
    fn tie_heavy_rows(r: &mut StdRng, n: usize, num_features: usize) -> Vec<Vec<f64>> {
        const PALETTE: [f64; 6] = [0.0, -0.0, 1.0, -1.5, 2.0, 0.25];
        let levels = r.gen_range(1..=PALETTE.len());
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 && r.gen_range(0..6) == 0 {
                let copy = rows[r.gen_range(0..i)].clone();
                rows.push(copy);
                continue;
            }
            rows.push((0..num_features).map(|_| PALETTE[r.gen_range(0..levels)]).collect());
        }
        for f in 1..num_features {
            let (a, b) = (r.gen_range(0..f), r.gen_range(0..f));
            match r.gen_range(0..4) {
                0 => rows.iter_mut().for_each(|row| row[f] = 2.0 * row[a] + 1.0),
                1 => rows.iter_mut().for_each(|row| row[f] = row[a] + 8.0 * row[b]),
                _ => {}
            }
        }
        rows
    }

    fn tie_heavy_targets(r: &mut StdRng, rows: &[Vec<f64>]) -> Vec<f64> {
        let kind = r.gen_range(0..3);
        rows.iter()
            .map(|row| match kind {
                0 => r.gen_range(-3.0..3.0),
                1 => [0.0, -0.0, 0.1, 0.7, -1.3][r.gen_range(0..5usize)],
                _ => row[0] * 0.3 - row[row.len() - 1] * 0.7 + r.gen_range(-0.05..0.05),
            })
            .collect()
    }

    #[test]
    fn presorted_search_is_bit_identical_to_sort_per_node() {
        let mut r = StdRng::seed_from_u64(0x0AC1E);
        for case in 0..1500 {
            let n = r.gen_range(1..=70);
            let num_features = r.gen_range(1..=14);
            let rows = tie_heavy_rows(&mut r, n, num_features);
            let targets = tie_heavy_targets(&mut r, &rows);
            let queries = tie_heavy_rows(&mut r, 16, num_features);
            let params = GbrtParams {
                n_trees: 6,
                learning_rate: 0.15,
                tree: TreeParams {
                    max_depth: r.gen_range(1..=6),
                    min_samples_leaf: r.gen_range(1..=5),
                },
                subsample: if r.gen_range(0..2) == 0 { 0.85 } else { 1.0 },
            };
            let label = format!("case {case}: {n}x{num_features} {params:?}");
            let seed = r.gen_range(0..u64::MAX);
            let got = Gbrt::fit(&rows, &targets, params, &mut StdRng::seed_from_u64(seed));
            let want = Gbrt::boost(
                &rows,
                &targets,
                params,
                &mut StdRng::seed_from_u64(seed),
                |residuals, index| Tree::fit_reference(&rows, residuals, index, params.tree),
            );
            assert_eq!(got.base.to_bits(), want.base.to_bits(), "{label}");
            for (t, (a, b)) in got.trees.iter().zip(&want.trees).enumerate() {
                assert_same_tree(a, b, &format!("{label}, tree {t}"));
            }
            for row in rows.iter().chain(&queries) {
                assert_eq!(got.predict(row).to_bits(), want.predict(row).to_bits(), "{label}");
            }
        }
    }

    #[test]
    fn non_finite_values_behave_as_in_the_reference() {
        let mut r = StdRng::seed_from_u64(0xBAD);
        let odd = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN];
        for case in 0..300 {
            let n = r.gen_range(2..=40);
            let num_features = r.gen_range(1..=5);
            let mut rows = tie_heavy_rows(&mut r, n, num_features);
            let mut targets = tie_heavy_targets(&mut r, &rows);
            for _ in 0..r.gen_range(1..=6) {
                rows[r.gen_range(0..n)][r.gen_range(0..num_features)] = odd[r.gen_range(0..6usize)];
            }
            let mut index: Vec<usize> = (0..n).collect();
            index.shuffle(&mut r);
            index.truncate(r.gen_range(1..=n));
            if case % 3 == 0 {
                targets[index[r.gen_range(0..index.len())]] = odd[r.gen_range(0..4usize)];
            }
            let params =
                TreeParams { max_depth: r.gen_range(1..=6), min_samples_leaf: r.gen_range(1..=3) };
            let got = Tree::fit(&rows, &targets, &index, params);
            let want = Tree::fit_reference(&rows, &targets, &index, params);
            assert_same_tree(&got, &want, &format!("case {case}"));
            if case % 3 == 0 {
                assert_eq!(got.len(), 1, "a non-finite target must leave a stump");
            }
        }
    }

    #[test]
    #[should_panic(expected = "Tree::fit: index must hold distinct row ids")]
    fn repeated_row_ids_are_refused() {
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        Tree::fit(&rows, &[1.0, 2.0, 3.0, 4.0], &[0, 2, 2], TreeParams::default());
    }
}
