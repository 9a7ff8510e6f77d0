//! Heuristic pebbling strategies — legal complete traces whose I/O gives an
//! *upper bound* on the DAG's true minimum `Q`.
//!
//! Together with the analytic lower bounds from `iolb-core`, these sandwich
//! the exact optimum: `Q_lower <= Q_exact <= Q_heuristic`. Two eviction
//! policies are provided: LRU and Belady-style furthest-next-use (computed
//! offline against the fixed topological compute order, so "next use" is
//! exact, making this the classic optimal-replacement policy for the chosen
//! compute order).

use crate::dag::{Dag, VertexId};
use crate::game::{Game, Move};

/// Eviction policy used when a red pebble must be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Evict the least-recently-used red pebble.
    Lru,
    /// Evict the pebble whose next use (in the fixed compute order) is
    /// furthest in the future — Belady's MIN for the given order.
    Belady,
}

/// Result of running a strategy.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// The legal move trace.
    pub trace: Vec<Move>,
    /// Total I/O (loads + stores).
    pub io: u64,
    /// Loads only.
    pub loads: u64,
    /// Stores only.
    pub stores: u64,
}

/// Pebbles the whole DAG in topological order with write-back eviction:
/// computes every non-input vertex exactly once; when fast memory is full,
/// evicts per `policy`, storing the victim first if it is still needed and
/// not already blue. Returns the outcome (trace replays legally and
/// completes by construction; tests verify via `replay_complete`).
///
/// Panics if `s` is smaller than the DAG's maximum in-degree + 1 (no legal
/// single-pass schedule exists below that).
pub fn pebble_topological(dag: &Dag, s: usize, policy: Eviction) -> StrategyOutcome {
    let max_indeg = (0..dag.len() as VertexId).map(|v| dag.preds(v).len()).max().unwrap_or(0);
    assert!(s > max_indeg, "S = {s} below max in-degree + 1 = {}", max_indeg + 1);

    let order: Vec<VertexId> =
        dag.topo_order().into_iter().filter(|&v| !dag.preds(v).is_empty()).collect();

    // For Belady: positions at which each vertex is used as a predecessor,
    // in compute order.
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); dag.len()];
    for (pos, &v) in order.iter().enumerate() {
        for &p in dag.preds(v) {
            uses[p as usize].push(pos);
        }
    }
    // Per-vertex cursor into its use list.
    let mut use_cursor: Vec<usize> = vec![0; dag.len()];

    let mut game = Game::new(dag, s);
    let mut trace: Vec<Move> = Vec::new();
    // Remaining-successor counts to know whether a victim is still needed.
    let mut remaining: Vec<usize> = (0..dag.len()).map(|v| uses[v].len()).collect();
    // LRU clock.
    let mut last_touch: Vec<u64> = vec![0; dag.len()];
    let mut clock: u64 = 0;
    // Vertices currently red and *not pinned* (pinned = predecessor of the
    // vertex being computed right now).
    let mut pinned: Vec<bool> = vec![false; dag.len()];

    let apply = |game: &mut Game, trace: &mut Vec<Move>, m: Move| {
        game.apply(m).unwrap_or_else(|e| panic!("strategy generated illegal move {m:?}: {e}"));
        trace.push(m);
    };

    for (pos, &v) in order.iter().enumerate() {
        // Pin predecessors.
        for &p in dag.preds(v) {
            pinned[p as usize] = true;
        }

        // Ensure each predecessor is red.
        for &p in dag.preds(v) {
            if game.is_red(p) {
                clock += 1;
                last_touch[p as usize] = clock;
                continue;
            }
            make_room(
                dag,
                &mut game,
                &mut trace,
                &pinned,
                &remaining,
                &last_touch,
                &uses,
                &use_cursor,
                pos,
                policy,
            );
            // Either blue (input or stored earlier) — load it. Internal
            // vertices are always stored before eviction, so blue holds.
            assert!(game.is_blue(p), "vertex {p} neither red nor blue");
            apply(&mut game, &mut trace, Move::Load(p));
            clock += 1;
            last_touch[p as usize] = clock;
        }

        // Room for the result itself.
        if !game.is_red(v) {
            make_room(
                dag,
                &mut game,
                &mut trace,
                &pinned,
                &remaining,
                &last_touch,
                &uses,
                &use_cursor,
                pos,
                policy,
            );
        }
        apply(&mut game, &mut trace, Move::Compute(v));
        clock += 1;
        last_touch[v as usize] = clock;

        // Unpin and account the uses.
        for &p in dag.preds(v) {
            pinned[p as usize] = false;
            remaining[p as usize] -= 1;
            use_cursor[p as usize] += 1;
            // Drop pebbles that will never be used again and need no store.
            if remaining[p as usize] == 0 && game.is_red(p) && !dag.succs(p).is_empty() {
                apply(&mut game, &mut trace, Move::FreeRed(p));
            }
        }

        // Outputs go straight to slow memory.
        if dag.succs(v).is_empty() {
            apply(&mut game, &mut trace, Move::Store(v));
            apply(&mut game, &mut trace, Move::FreeRed(v));
        }
    }

    debug_assert!(game.is_complete());
    StrategyOutcome { trace, io: game.io(), loads: game.loads(), stores: game.stores() }
}

/// Frees one red slot if the game is at capacity, per the eviction policy;
/// stores the victim first when it is still needed and not blue.
#[allow(clippy::too_many_arguments)]
fn make_room(
    dag: &Dag,
    game: &mut Game,
    trace: &mut Vec<Move>,
    pinned: &[bool],
    remaining: &[usize],
    last_touch: &[u64],
    uses: &[Vec<usize>],
    use_cursor: &[usize],
    now: usize,
    policy: Eviction,
) {
    if game.red_count() < game.s {
        return;
    }
    // Candidate victims: red, not pinned.
    let victim = (0..dag.len() as VertexId)
        .filter(|&v| game.is_red(v) && !pinned[v as usize])
        .max_by_key(|&v| match policy {
            Eviction::Lru => u64::MAX - last_touch[v as usize],
            Eviction::Belady => {
                // Next use position after `now`; vertices never used again
                // sort last (best victims).
                let next = uses[v as usize]
                    .get(use_cursor[v as usize])
                    .copied()
                    .filter(|&p| p >= now)
                    .unwrap_or(usize::MAX);
                next as u64
            }
        })
        .expect("no evictable red pebble: S too small for pinned set");
    let needs_store = remaining[victim as usize] > 0 && !game.is_blue(victim);
    if needs_store {
        game.apply(Move::Store(victim)).expect("store of red victim");
        trace.push(Move::Store(victim));
    }
    game.apply(Move::FreeRed(victim)).expect("free of red victim");
    trace.push(Move::FreeRed(victim));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::replay_complete;

    /// Binary summation tree over `k` inputs (sequential chain, matching
    /// Lemma 4.7's structure).
    fn summation_chain(k: usize) -> Dag {
        let mut d = Dag::new();
        let inputs: Vec<_> = (0..k).map(|_| d.add_vertex()).collect();
        let mut acc = {
            let v = d.add_vertex();
            d.add_edge(inputs[0], v);
            d.add_edge(inputs[1], v);
            v
        };
        for &inp in &inputs[2..] {
            let v = d.add_vertex();
            d.add_edge(acc, v);
            d.add_edge(inp, v);
            acc = v;
        }
        d
    }

    /// Dense bipartite layer: every one of `m` outputs reads all `k` inputs.
    fn dense_layer(k: usize, m: usize) -> Dag {
        let mut d = Dag::new();
        let inputs: Vec<_> = (0..k).map(|_| d.add_vertex()).collect();
        for _ in 0..m {
            let o = d.add_vertex();
            for &i in &inputs {
                d.add_edge(i, o);
            }
        }
        d
    }

    #[test]
    fn traces_replay_legally_and_complete() {
        for policy in [Eviction::Lru, Eviction::Belady] {
            for dag in [summation_chain(8), dense_layer(4, 5)] {
                for s in [5, 8, 16] {
                    let out = pebble_topological(&dag, s, policy);
                    let q = replay_complete(&dag, s, &out.trace).unwrap();
                    assert_eq!(q, out.io, "reported I/O must match replay");
                }
            }
        }
    }

    #[test]
    fn ample_memory_moves_only_inputs_and_outputs() {
        // With S >= |V|, each input loads once, each output stores once.
        let dag = summation_chain(6);
        let out = pebble_topological(&dag, dag.len(), Eviction::Belady);
        assert_eq!(out.loads, 6);
        assert_eq!(out.stores, 1);
    }

    #[test]
    fn scarce_memory_costs_more() {
        let dag = dense_layer(8, 8);
        let tight = pebble_topological(&dag, 9, Eviction::Belady);
        let ample = pebble_topological(&dag, 64, Eviction::Belady);
        assert!(tight.io >= ample.io);
        assert_eq!(ample.loads, 8);
        assert_eq!(ample.stores, 8);
    }

    #[test]
    fn belady_never_worse_than_lru_on_dense_layer() {
        // For a fixed compute order Belady is the optimal replacement; on
        // this structured DAG it must not lose to LRU.
        let dag = dense_layer(10, 6);
        for s in [11, 12, 14] {
            let b = pebble_topological(&dag, s, Eviction::Belady);
            let l = pebble_topological(&dag, s, Eviction::Lru);
            assert!(b.io <= l.io, "S={s}: belady {} > lru {}", b.io, l.io);
        }
    }

    #[test]
    fn io_at_least_compulsory_traffic() {
        // Every complete pebbling loads each *used* input at least once and
        // stores each output at least once.
        let dag = dense_layer(6, 4);
        let out = pebble_topological(&dag, 8, Eviction::Lru);
        assert!(out.loads >= 6);
        assert!(out.stores >= 4);
    }

    #[test]
    #[should_panic(expected = "below max in-degree")]
    fn rejects_impossible_capacity() {
        let dag = dense_layer(4, 2);
        let _ = pebble_topological(&dag, 3, Eviction::Lru);
    }

    #[test]
    fn summation_tree_io_matches_hand_count() {
        // Chain of k-1 adds with S large enough to keep the accumulator
        // and one input: loads = k, stores = 1.
        let dag = summation_chain(5);
        let out = pebble_topological(&dag, 3, Eviction::Belady);
        assert_eq!(out.loads, 5);
        assert_eq!(out.stores, 1);
        assert_eq!(out.io, 6);
    }
}
