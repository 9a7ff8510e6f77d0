//! Dinic max-flow on unit-vertex-capacity graphs.
//!
//! The S-partition's Property 2 asks whether a vertex set has a *dominator*
//! of size at most `S` — a set of vertices hitting every input-to-target
//! path. By Menger's theorem the minimum dominator size equals the maximum
//! number of vertex-disjoint input-to-target paths, which we compute with a
//! standard vertex-split max-flow: each DAG vertex `v` becomes `v_in ->
//! v_out` with capacity 1 (infinite for sources/sinks-adjacent arcs as
//! appropriate); each DAG edge `u -> v` becomes `u_out -> v_in` with
//! infinite capacity.

use crate::dag::{Dag, VertexId};

const INF: i64 = i64::MAX / 4;

/// A directed flow network with integer capacities (Dinic's algorithm).
pub(crate) struct FlowNet {
    /// Adjacency: per node, indices into `edges`.
    adj: Vec<Vec<usize>>,
    /// Flat edge list; edge `i ^ 1` is the reverse of edge `i`.
    to: Vec<usize>,
    cap: Vec<i64>,
}

impl FlowNet {
    /// Network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n], to: Vec::new(), cap: Vec::new() }
    }

    /// Adds a directed edge `u -> v` with capacity `c` (plus its residual).
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, c: i64) {
        let id = self.to.len();
        self.to.push(v);
        self.cap.push(c);
        self.to.push(u);
        self.cap.push(0);
        self.adj[u].push(id);
        self.adj[v].push(id + 1);
    }

    /// Maximum flow from `s` to `t`.
    pub(crate) fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert_ne!(s, t, "source equals sink");
        let n = self.adj.len();
        let mut flow = 0i64;
        loop {
            // BFS level graph.
            let mut level = vec![usize::MAX; n];
            level[s] = 0;
            let mut queue = vec![s];
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &e in &self.adj[u] {
                    let v = self.to[e];
                    if self.cap[e] > 0 && level[v] == usize::MAX {
                        level[v] = level[u] + 1;
                        queue.push(v);
                    }
                }
            }
            if level[t] == usize::MAX {
                return flow;
            }
            // DFS blocking flow with iteration pointers.
            let mut iter = vec![0usize; n];
            loop {
                let pushed = self.dfs(s, t, INF, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: i64, level: &[usize], iter: &mut [usize]) -> i64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.adj[u].len() {
            let e = self.adj[u][iter[u]];
            let v = self.to[e];
            if self.cap[e] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[e]), level, iter);
                if pushed > 0 {
                    self.cap[e] -= pushed;
                    self.cap[e ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }
}

/// Minimum dominator size for `targets` in `dag`: the smallest number of
/// vertices hitting every path from an input of the DAG to a target vertex
/// (vertices of `targets` themselves may serve as dominators, as in the
/// paper where `D_i` may intersect `V_i`).
///
/// Construction: super-source -> every input's `in` node (infinite);
/// every vertex split `v_in -> v_out` with capacity 1; DAG edge `u -> v`
/// as `u_out -> v_in` (infinite); every target's **out** node -> super-sink
/// (infinite). Note the target's own unit split edge sits on the path, so
/// a target can "dominate itself", matching Definition 4.2 where a path to
/// `v` contains `v`.
pub fn min_dominator_size(dag: &Dag, targets: &[VertexId]) -> i64 {
    if targets.is_empty() {
        return 0;
    }
    let n = dag.len();
    let source = 2 * n;
    let sink = 2 * n + 1;
    let mut net = FlowNet::new(2 * n + 2);
    for v in 0..n {
        net.add_edge(v, n + v, 1); // v_in -> v_out, unit vertex capacity
    }
    for u in 0..n as VertexId {
        for &v in dag.succs(u) {
            net.add_edge(n + u as usize, v as usize, INF);
        }
    }
    for &i in &dag.inputs() {
        net.add_edge(source, i as usize, INF);
    }
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t as usize] = true;
    }
    for (v, &it) in is_target.iter().enumerate() {
        if it {
            net.add_edge(n + v, sink, INF);
        }
    }
    net.max_flow(source, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_flow_basic() {
        // s -0-> a -1-> t with caps 3, 2: flow 2.
        let mut net = FlowNet::new(3);
        net.add_edge(0, 1, 3);
        net.add_edge(1, 2, 2);
        assert_eq!(net.max_flow(0, 2), 2);
    }

    #[test]
    fn max_flow_parallel_paths() {
        // Two disjoint unit paths.
        let mut net = FlowNet::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn max_flow_needs_augmenting_path_reversal() {
        // Classic case where a greedy path must be partially undone.
        let mut net = FlowNet::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    fn diamond() -> Dag {
        let mut d = Dag::new();
        let a = d.add_vertex();
        let b = d.add_vertex();
        let c = d.add_vertex();
        let e = d.add_vertex();
        d.add_edge(a, b);
        d.add_edge(a, c);
        d.add_edge(b, e);
        d.add_edge(c, e);
        d
    }

    #[test]
    fn dominator_of_diamond_sink_is_one() {
        // The single input 0 dominates 3 (also {3} itself).
        let d = diamond();
        assert_eq!(min_dominator_size(&d, &[3]), 1);
    }

    #[test]
    fn dominator_of_two_independent_chains() {
        // Two disjoint chains: dominating both sinks needs 2 vertices.
        let mut d = Dag::new();
        let a0 = d.add_vertex();
        let a1 = d.add_vertex();
        let b0 = d.add_vertex();
        let b1 = d.add_vertex();
        d.add_edge(a0, a1);
        d.add_edge(b0, b1);
        assert_eq!(min_dominator_size(&d, &[a1, b1]), 2);
    }

    #[test]
    fn dominator_grows_with_fanin() {
        // k independent inputs all feeding one output: min dominator of
        // the output alone is 1 (itself), but dominating the full middle
        // layer takes k vertices.
        let mut d = Dag::new();
        let inputs: Vec<_> = (0..4).map(|_| d.add_vertex()).collect();
        let mids: Vec<_> = (0..4).map(|_| d.add_vertex()).collect();
        let out = d.add_vertex();
        for i in 0..4 {
            d.add_edge(inputs[i], mids[i]);
            d.add_edge(mids[i], out);
        }
        assert_eq!(min_dominator_size(&d, &[out]), 1);
        assert_eq!(min_dominator_size(&d, &mids), 4);
    }

    #[test]
    fn empty_target_needs_nothing() {
        let d = diamond();
        assert_eq!(min_dominator_size(&d, &[]), 0);
    }

    #[test]
    fn dominator_bounded_by_target_count() {
        // Each target can always dominate itself.
        let d = diamond();
        assert!(min_dominator_size(&d, &[1, 2, 3]) <= 3);
    }
}
