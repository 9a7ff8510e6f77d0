//! Property tests for the pebble-game substrate: random layered DAGs,
//! strategy legality, the exact-vs-heuristic sandwich, and S-partition
//! machinery.

use iolb_pebble::dag::{Dag, VertexId};
use iolb_pebble::exact::min_io;
use iolb_pebble::flow::min_dominator_size;
use iolb_pebble::game::replay_complete;
use iolb_pebble::partition::greedy_partition;
use iolb_pebble::strategies::{pebble_topological, Eviction};
use proptest::prelude::*;

/// A random layered DAG: `widths[0]` inputs, each later vertex draws 1-2
/// predecessors from the previous layer (acyclic by construction).
fn layered_dag() -> impl Strategy<Value = Dag> {
    (
        2usize..=4,                               // input layer width
        prop::collection::vec(1usize..=4, 1..=3), // internal layer widths
        any::<u64>(),
    )
        .prop_map(|(inputs, layers, seed)| {
            let mut dag = Dag::new();
            let mut prev: Vec<VertexId> = (0..inputs).map(|_| dag.add_vertex()).collect();
            let mut state = seed;
            let mut next_rand = move || {
                // xorshift64 — deterministic, no external RNG needed.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for &width in &layers {
                let mut layer = Vec::with_capacity(width);
                for _ in 0..width {
                    let v = dag.add_vertex();
                    let npred = 1 + (next_rand() as usize % 2).min(prev.len() - 1);
                    // Distinct predecessors from the previous layer.
                    let start = next_rand() as usize % prev.len();
                    for k in 0..npred {
                        dag.add_edge(prev[(start + k) % prev.len()], v);
                    }
                    layer.push(v);
                }
                prev = layer;
            }
            dag
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Heuristic traces replay legally, complete the game, and report
    /// exactly the I/O the replay counts.
    #[test]
    fn heuristic_traces_are_legal_and_complete(dag in layered_dag(), extra in 0usize..4) {
        let max_indeg = (0..dag.len() as VertexId)
            .map(|v| dag.preds(v).len())
            .max()
            .unwrap_or(0);
        let s = max_indeg + 1 + extra;
        for policy in [Eviction::Belady, Eviction::Lru] {
            let out = pebble_topological(&dag, s, policy);
            let q = replay_complete(&dag, s, &out.trace)
                .unwrap_or_else(|e| panic!("illegal trace: {e}"));
            prop_assert_eq!(q, out.io);
            // Compulsory floor: every used input loads once; every
            // *computed* output stores once (an orphaned input with no
            // successors starts blue and needs neither).
            let used_inputs = dag
                .inputs()
                .iter()
                .filter(|&&v| !dag.succs(v).is_empty())
                .count() as u64;
            let computed_outputs = dag
                .outputs()
                .iter()
                .filter(|&&v| !dag.preds(v).is_empty())
                .count() as u64;
            prop_assert!(out.io >= used_inputs + computed_outputs);
        }
    }

    /// Exact pebbling never exceeds the heuristic's I/O, and more red
    /// pebbles never hurt.
    #[test]
    fn exact_below_heuristic_and_monotone(dag in layered_dag()) {
        prop_assume!(dag.len() <= 12);
        let max_indeg = (0..dag.len() as VertexId)
            .map(|v| dag.preds(v).len())
            .max()
            .unwrap_or(0);
        let s_lo = max_indeg + 1;
        let s_hi = s_lo + 3;
        let e_lo = min_io(&dag, s_lo, 1 << 22);
        let e_hi = min_io(&dag, s_hi, 1 << 22);
        if let (Some(lo), Some(hi)) = (e_lo, e_hi) {
            prop_assert!(hi <= lo, "more memory increased I/O: {lo} -> {hi}");
            let heur = pebble_topological(&dag, s_lo, Eviction::Belady).io;
            prop_assert!(lo <= heur, "exact {lo} above heuristic {heur}");
        }
    }

    /// Greedy partitions are always valid S-partitions.
    #[test]
    fn greedy_partition_valid(dag in layered_dag(), s in 1usize..=6) {
        let p = greedy_partition(&dag, s);
        prop_assert!(p.verify(&dag, s).is_ok());
        // And class count shrinks (weakly) as S grows.
        let p2 = greedy_partition(&dag, s + 2);
        prop_assert!(p2.len() <= p.len());
    }

    /// Min-dominator sizes are monotone under target-set inclusion and
    /// bounded by the input count and the target count.
    #[test]
    fn dominator_bounds(dag in layered_dag()) {
        let outputs = dag.outputs();
        let dom_all = min_dominator_size(&dag, &outputs);
        prop_assert!(dom_all <= outputs.len() as i64);
        prop_assert!(dom_all <= dag.inputs().len() as i64);
        if outputs.len() > 1 {
            let dom_one = min_dominator_size(&dag, &outputs[..1]);
            prop_assert!(dom_one <= dom_all);
        }
    }

    /// The generated-set relation is consistent with the generation test.
    #[test]
    fn generated_set_consistent(dag in layered_dag()) {
        let inputs = dag.inputs();
        prop_assume!(!inputs.is_empty());
        let blockers = &inputs[..1.max(inputs.len() / 2)];
        let theta = dag.generated_set(blockers);
        for v in 0..dag.len() as VertexId {
            let in_theta = theta.contains(&v);
            prop_assert_eq!(
                in_theta,
                dag.generates(blockers, v),
                "vertex {} disagreement", v
            );
        }
    }
}
