//! Exact minimum-I/O pebbling for tiny DAGs via 0-1 BFS over game states.
//!
//! A state is the pair of bitmasks (red pebbles, blue pebbles); moves are
//! edges with weight 1 (load/store) or 0 (compute/free-red). The minimum
//! `Q` is the shortest distance from the initial state (inputs blue) to any
//! state where all outputs are blue. This is exponential (`4^n` states) and
//! only intended for validation DAGs of up to ~12 vertices, where it gives
//! ground truth to sandwich against the analytic bounds:
//! `Q_lower <= Q_exact <= Q_heuristic`.
//!
//! Pruning that preserves optimality:
//! * blue pebbles are never freed (slow memory is unlimited; discarding a
//!   blue pebble can only remove options);
//! * a store is only attempted on vertices not already blue;
//! * a load is only attempted if the vertex is not already red.
//!
//! Re-computation is fully explored (any vertex whose predecessors are red
//! may be recomputed), matching the paper's model.

use crate::dag::{Dag, VertexId};
use std::collections::{HashMap, VecDeque};

/// Maximum DAG size the exact search accepts.
pub(crate) const MAX_EXACT_VERTICES: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    red: u32,
    blue: u32,
}

/// Computes the exact minimum I/O `Q` of a complete red-blue pebbling with
/// `s` red pebbles. Returns `None` when no complete pebbling exists (any
/// vertex with in-degree `d` needs `s >= d + 1`) **or** when the search
/// exceeds `node_limit` explored states (safety valve).
///
/// Panics if the DAG has more than `MAX_EXACT_VERTICES` vertices.
pub fn min_io(dag: &Dag, s: usize, node_limit: usize) -> Option<u64> {
    let n = dag.len();
    assert!(n <= MAX_EXACT_VERTICES, "exact search limited to {MAX_EXACT_VERTICES} vertices");
    assert!(s >= 1);

    let inputs = dag.inputs();
    let outputs = dag.outputs();
    let mut goal_mask: u32 = 0;
    for &o in &outputs {
        goal_mask |= 1 << o;
    }
    let mut input_mask: u32 = 0;
    for &i in &inputs {
        input_mask |= 1 << i;
    }
    // Precompute predecessor masks.
    let pred_mask: Vec<u32> =
        (0..n as VertexId).map(|v| dag.preds(v).iter().fold(0u32, |m, &p| m | (1 << p))).collect();

    let start = State { red: 0, blue: input_mask };
    let mut dist: HashMap<State, u64> = HashMap::new();
    dist.insert(start, 0);
    // 0-1 BFS deque.
    let mut deque: VecDeque<(State, u64)> = VecDeque::new();
    deque.push_back((start, 0));
    let mut explored = 0usize;

    while let Some((state, d)) = deque.pop_front() {
        if dist.get(&state).copied() != Some(d) {
            continue; // stale entry
        }
        if state.blue & goal_mask == goal_mask {
            return Some(d);
        }
        explored += 1;
        if explored > node_limit {
            return None;
        }

        let red_count = state.red.count_ones() as usize;

        let push = |next: State,
                    nd: u64,
                    dist: &mut HashMap<State, u64>,
                    deque: &mut VecDeque<(State, u64)>| {
            let better = dist.get(&next).is_none_or(|&old| nd < old);
            if better {
                dist.insert(next, nd);
                if nd == d {
                    deque.push_front((next, nd));
                } else {
                    deque.push_back((next, nd));
                }
            }
        };

        for v in 0..n as u32 {
            let bit = 1u32 << v;
            let is_red = state.red & bit != 0;
            let is_blue = state.blue & bit != 0;

            // Compute (cost 0): non-input, preds all red, v not red, room.
            if input_mask & bit == 0
                && !is_red
                && red_count < s
                && state.red & pred_mask[v as usize] == pred_mask[v as usize]
            {
                push(State { red: state.red | bit, blue: state.blue }, d, &mut dist, &mut deque);
            }
            // Free red (cost 0).
            if is_red {
                push(State { red: state.red & !bit, blue: state.blue }, d, &mut dist, &mut deque);
            }
            // Load (cost 1): blue, not red, room.
            if is_blue && !is_red && red_count < s {
                push(
                    State { red: state.red | bit, blue: state.blue },
                    d + 1,
                    &mut dist,
                    &mut deque,
                );
            }
            // Store (cost 1): red, not already blue.
            if is_red && !is_blue {
                push(
                    State { red: state.red, blue: state.blue | bit },
                    d + 1,
                    &mut dist,
                    &mut deque,
                );
            }
        }
    }
    // Exhausted the reachable space without meeting the goal — only
    // possible when S is too small to ever compute some vertex.
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{pebble_topological, Eviction};

    fn chain(len: usize) -> Dag {
        let mut d = Dag::new();
        let vs: Vec<_> = (0..len).map(|_| d.add_vertex()).collect();
        for i in 0..len - 1 {
            d.add_edge(vs[i], vs[i + 1]);
        }
        d
    }

    #[test]
    fn single_edge_needs_two_ios() {
        // input -> output: load + store. Computing the output requires its
        // predecessor red *and* a free slot, so S = 2 is the minimum.
        let d = chain(2);
        assert_eq!(min_io(&d, 2, 1 << 20), Some(2));
        // S = 1 cannot pebble an in-degree-1 vertex at all.
        assert_eq!(min_io(&d, 1, 1 << 20), None);
    }

    #[test]
    fn chain_needs_one_load_one_store_regardless_of_length() {
        for len in [3, 4, 5] {
            let d = chain(len);
            assert_eq!(min_io(&d, 2, 1 << 22), Some(2), "len {len}");
        }
    }

    #[test]
    fn diamond_min_io() {
        // in -> {a, b} -> out. S=3: load the input once, compute a, b, out
        // (evicting in before out), store out: Q = 2.
        let mut d = Dag::new();
        let i = d.add_vertex();
        let a = d.add_vertex();
        let b = d.add_vertex();
        let o = d.add_vertex();
        d.add_edge(i, a);
        d.add_edge(i, b);
        d.add_edge(a, o);
        d.add_edge(b, o);
        assert_eq!(min_io(&d, 3, 1 << 22), Some(2));
        // S=2 is infeasible: `out` has in-degree 2, needing both preds red
        // plus a free slot.
        assert_eq!(min_io(&d, 2, 1 << 22), None);
    }

    #[test]
    fn summation_tree_exact_matches_hand_count() {
        // 3 inputs summed pairwise: (i0+i1)+i2. S=2 forces nothing extra:
        // load i0, i1, compute s1 needs 3 slots... S=3: loads 3, store 1.
        let mut d = Dag::new();
        let i0 = d.add_vertex();
        let i1 = d.add_vertex();
        let i2 = d.add_vertex();
        let s1 = d.add_vertex();
        let s2 = d.add_vertex();
        d.add_edge(i0, s1);
        d.add_edge(i1, s1);
        d.add_edge(s1, s2);
        d.add_edge(i2, s2);
        assert_eq!(min_io(&d, 3, 1 << 22), Some(4));
    }

    #[test]
    fn recomputation_beats_spilling_when_cheap() {
        // Shared cheap intermediate consumed by two far-apart outputs:
        //   i -> m; m -> o1; m -> o2.
        // With S=2 the pebbler can recompute m for o2 instead of storing
        // it: Q = load(i) + store(o1) + store(o2) = 3. A no-recompute model
        // (red-blue-white) would pay 4 (store m or reload i).
        let mut d = Dag::new();
        let i = d.add_vertex();
        let m = d.add_vertex();
        let o1 = d.add_vertex();
        let o2 = d.add_vertex();
        d.add_edge(i, m);
        d.add_edge(m, o1);
        d.add_edge(m, o2);
        let q = min_io(&d, 2, 1 << 22).unwrap();
        assert_eq!(q, 3);
    }

    #[test]
    fn exact_at_most_heuristic() {
        // Sandwich property on a few small DAGs.
        let mut dense = Dag::new();
        let ins: Vec<_> = (0..3).map(|_| dense.add_vertex()).collect();
        for _ in 0..3 {
            let o = dense.add_vertex();
            for &i in &ins {
                dense.add_edge(i, o);
            }
        }
        for s in [4, 5, 6] {
            let exact = min_io(&dense, s, 1 << 22).unwrap();
            let heur = pebble_topological(&dense, s, Eviction::Belady).io;
            assert!(exact <= heur, "S={s}: exact {exact} > heuristic {heur}");
            // Compulsory traffic: all 3 inputs + 3 outputs move at least once.
            assert!(exact >= 6, "S={s}: exact {exact} below compulsory 6");
        }
    }

    #[test]
    fn smaller_s_never_cheaper() {
        let mut d = Dag::new();
        let ins: Vec<_> = (0..4).map(|_| d.add_vertex()).collect();
        let mut mids = Vec::new();
        for pair in ins.chunks(2) {
            let m = d.add_vertex();
            d.add_edge(pair[0], m);
            d.add_edge(pair[1], m);
            mids.push(m);
        }
        let o = d.add_vertex();
        d.add_edge(mids[0], o);
        d.add_edge(mids[1], o);
        let mut prev = u64::MAX;
        for s in (3..=7).rev() {
            let q = min_io(&d, s, 1 << 22).unwrap();
            assert!(q >= prev.min(q), "sanity");
            assert!(q >= 5); // 4 input loads + 1 output store
            if prev != u64::MAX {
                assert!(q >= prev, "S={s}: Q {q} < Q at larger S {prev}");
            }
            prev = q;
        }
    }

    #[test]
    fn node_limit_returns_none() {
        let d = chain(6);
        assert_eq!(min_io(&d, 2, 1), None);
    }

    #[test]
    #[should_panic(expected = "exact search limited")]
    fn oversized_dag_rejected() {
        let d = chain(MAX_EXACT_VERTICES + 1);
        let _ = min_io(&d, 2, 1 << 10);
    }
}
