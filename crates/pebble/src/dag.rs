//! Computation DAGs for the red-blue pebble game (paper §2.1).
//!
//! Vertices are operations, edges are data dependencies.

/// Vertex identifier (index into the DAG's vertex arrays).
pub type VertexId = u32;

/// A directed acyclic graph.
#[derive(Debug, Clone)]
pub struct Dag {
    preds: Vec<Vec<VertexId>>,
    succs: Vec<Vec<VertexId>>,
}

impl Dag {
    /// Empty DAG.
    pub fn new() -> Self {
        Self { preds: Vec::new(), succs: Vec::new() }
    }

    /// Adds a vertex; returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = self.preds.len() as VertexId;
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Adds a dependency edge `from -> to`. Panics on self-loops; cycle
    /// freedom is checked by `Dag::try_topo_order`.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) {
        assert_ne!(from, to, "self-loop");
        assert!((from as usize) < self.len() && (to as usize) < self.len());
        self.preds[to as usize].push(from);
        self.succs[from as usize].push(to);
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the DAG has no vertices.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Immediate predecessors of `v`.
    pub fn preds(&self, v: VertexId) -> &[VertexId] {
        &self.preds[v as usize]
    }

    /// Immediate successors of `v`.
    pub fn succs(&self, v: VertexId) -> &[VertexId] {
        &self.succs[v as usize]
    }

    /// Vertices with no predecessors (the game's initial blue pebbles).
    pub fn inputs(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId).filter(|&v| self.preds(v).is_empty()).collect()
    }

    /// Vertices with no successors (must hold blue pebbles at game end).
    pub fn outputs(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId).filter(|&v| self.succs(v).is_empty()).collect()
    }

    /// Vertices that are neither inputs nor outputs.
    pub fn internals(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId)
            .filter(|&v| !self.preds(v).is_empty() && !self.succs(v).is_empty())
            .collect()
    }

    /// Number of computed vertices (internal + output) — the `|V|` entering
    /// Theorem 4.6 (pure inputs are never "computed").
    pub fn computed_count(&self) -> u64 {
        (0..self.len() as VertexId).filter(|&v| !self.preds(v).is_empty()).count() as u64
    }

    /// A topological order (Kahn). Panics if the graph has a cycle — use
    /// [`Dag::try_topo_order`] for a checked variant.
    pub(crate) fn topo_order(&self) -> Vec<VertexId> {
        self.try_topo_order().expect("graph has a cycle")
    }

    /// Topological order, or `None` if cyclic.
    pub(crate) fn try_topo_order(&self) -> Option<Vec<VertexId>> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.preds[v].len()).collect();
        let mut queue: Vec<VertexId> =
            (0..n as VertexId).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &s in self.succs(v) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Vertex-generation test (Definition 4.2): does `blockers` generate
    /// `target`, i.e. does *every* path from an input to `target` pass
    /// through some vertex of `blockers`? Implemented as reachability from
    /// the inputs with `blockers` removed.
    pub fn generates(&self, blockers: &[VertexId], target: VertexId) -> bool {
        let mut blocked = vec![false; self.len()];
        for &b in blockers {
            blocked[b as usize] = true;
        }
        if blocked[target as usize] {
            // A vertex trivially generates itself (every path "contains" it).
            return true;
        }
        // BFS from inputs avoiding blocked vertices; if we reach `target`,
        // some path evades the blockers.
        let mut seen = vec![false; self.len()];
        let mut queue: Vec<VertexId> =
            self.inputs().into_iter().filter(|&v| !blocked[v as usize]).collect();
        for &v in &queue {
            seen[v as usize] = true;
        }
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            if v == target {
                return false;
            }
            for &s in self.succs(v) {
                if !seen[s as usize] && !blocked[s as usize] {
                    seen[s as usize] = true;
                    queue.push(s);
                }
            }
        }
        true
    }

    /// The full generated set `Theta(blockers)` (Definition 4.2): all
    /// vertices generated by `blockers`. `O(V * E)` — fine for the test
    /// DAG sizes this crate targets.
    pub fn generated_set(&self, blockers: &[VertexId]) -> Vec<VertexId> {
        // Complement view: run the blocked BFS once, everything NOT reached
        // is generated.
        let mut blocked = vec![false; self.len()];
        for &b in blockers {
            blocked[b as usize] = true;
        }
        let mut reach = vec![false; self.len()];
        let mut queue: Vec<VertexId> =
            self.inputs().into_iter().filter(|&v| !blocked[v as usize]).collect();
        for &v in &queue {
            reach[v as usize] = true;
        }
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &s in self.succs(v) {
                if !reach[s as usize] && !blocked[s as usize] {
                    reach[s as usize] = true;
                    queue.push(s);
                }
            }
        }
        (0..self.len() as VertexId).filter(|&v| !reach[v as usize]).collect()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }
}

impl Default for Dag {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: 0 -> {1, 2} -> 3.
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
    fn inputs_outputs_internals() {
        let d = diamond();
        assert_eq!(d.inputs(), vec![0]);
        assert_eq!(d.outputs(), vec![3]);
        assert_eq!(d.internals(), vec![1, 2]);
        assert_eq!(d.computed_count(), 3);
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = diamond();
        let order = d.topo_order();
        let pos: Vec<usize> =
            (0..4).map(|v| order.iter().position(|&x| x == v as u32).unwrap()).collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_detection() {
        let mut d = Dag::new();
        let a = d.add_vertex();
        let b = d.add_vertex();
        d.add_edge(a, b);
        d.add_edge(b, a);
        assert!(d.try_topo_order().is_none());
    }

    #[test]
    fn generates_blocks_all_paths() {
        let d = diamond();
        // {1,2} generates 3: both paths from input 0 to 3 pass through them.
        assert!(d.generates(&[1, 2], 3));
        // {1} alone does not: the path through 2 evades it.
        assert!(!d.generates(&[1], 3));
        // The input itself generates everything.
        assert!(d.generates(&[0], 3));
        // A vertex generates itself.
        assert!(d.generates(&[3], 3));
    }

    #[test]
    fn generated_set_is_downstream_closure() {
        let d = diamond();
        let theta = d.generated_set(&[1, 2]);
        assert_eq!(theta, vec![1, 2, 3]);
        let theta0 = d.generated_set(&[0]);
        assert_eq!(theta0, vec![0, 1, 2, 3]);
        let theta_none: Vec<VertexId> = d.generated_set(&[]);
        assert!(theta_none.is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut d = Dag::new();
        let a = d.add_vertex();
        d.add_edge(a, a);
    }

    #[test]
    fn chain_generation() {
        // 0 -> 1 -> 2 -> 3: {2} generates 3 but not 1.
        let mut d = Dag::new();
        let v: Vec<_> = (0..4).map(|_| d.add_vertex()).collect();
        for i in 0..3 {
            d.add_edge(v[i], v[i + 1]);
        }
        assert!(d.generates(&[2], 3));
        assert!(!d.generates(&[2], 1));
        assert_eq!(d.generated_set(&[1]), vec![1, 2, 3]);
    }
}
