//! The red-blue pebble game (paper §2.1, Hong & Kung 1981).
//!
//! Red pebbles = fast memory (at most `S` at any time); blue pebbles = slow
//! memory (unlimited). Legal moves:
//!
//! * **Load** — place a red pebble on a vertex holding a blue pebble;
//! * **Store** — place a blue pebble on a vertex holding a red pebble;
//! * **Compute** — place a red pebble on a non-input vertex all of whose
//!   predecessors hold red pebbles;
//! * **Free** — remove a red or blue pebble.
//!
//! The game starts with blue pebbles on every input and ends when every
//! output holds a blue pebble. The I/O cost `Q` is the number of loads
//! plus stores. Unlike the red-blue-white variant, *re-computation is
//! allowed* — the paper leans on this for Winograd (§8).

use crate::dag::{Dag, VertexId};

/// A single move of the game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Copy slow -> fast (costs 1 I/O).
    Load(VertexId),
    /// Copy fast -> slow (costs 1 I/O).
    Store(VertexId),
    /// Evaluate a vertex into fast memory (free).
    Compute(VertexId),
    /// Drop a red pebble (free).
    FreeRed(VertexId),
    /// Drop a blue pebble (free).
    FreeBlue(VertexId),
}

/// Errors raised by illegal moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GameError {
    /// Load target holds no blue pebble.
    LoadWithoutBlue(VertexId),
    /// Store source holds no red pebble.
    StoreWithoutRed(VertexId),
    /// Compute target is an input vertex (inputs are only ever loaded).
    ComputeInput(VertexId),
    /// Some predecessor lacks a red pebble.
    ComputeMissingPred { vertex: VertexId, missing: VertexId },
    /// Fast memory full: placing a red pebble would exceed `S`.
    RedCapacityExceeded(VertexId),
    /// Freeing a pebble that is not there.
    FreeMissing(VertexId),
}

impl std::fmt::Display for GameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GameError::LoadWithoutBlue(v) => write!(f, "load of {v}: no blue pebble"),
            GameError::StoreWithoutRed(v) => write!(f, "store of {v}: no red pebble"),
            GameError::ComputeInput(v) => write!(f, "compute of input vertex {v}"),
            GameError::ComputeMissingPred { vertex, missing } => {
                write!(f, "compute of {vertex}: predecessor {missing} not red")
            }
            GameError::RedCapacityExceeded(v) => {
                write!(f, "placing red on {v} exceeds capacity S")
            }
            GameError::FreeMissing(v) => write!(f, "free of {v}: pebble absent"),
        }
    }
}

impl std::error::Error for GameError {}

/// Live game state.
#[derive(Debug, Clone)]
pub(crate) struct Game<'a> {
    dag: &'a Dag,
    /// Fast-memory capacity `S`.
    pub s: usize,
    red: Vec<bool>,
    blue: Vec<bool>,
    red_count: usize,
    loads: u64,
    stores: u64,
}

impl<'a> Game<'a> {
    /// Fresh game: blue pebbles on all inputs, no red pebbles.
    pub fn new(dag: &'a Dag, s: usize) -> Self {
        assert!(s >= 1, "need at least one red pebble");
        let mut blue = vec![false; dag.len()];
        for v in dag.inputs() {
            blue[v as usize] = true;
        }
        Self { dag, s, red: vec![false; dag.len()], blue, red_count: 0, loads: 0, stores: 0 }
    }

    /// Whether `v` currently holds a red pebble.
    pub(crate) fn is_red(&self, v: VertexId) -> bool {
        self.red[v as usize]
    }

    /// Whether `v` currently holds a blue pebble.
    pub(crate) fn is_blue(&self, v: VertexId) -> bool {
        self.blue[v as usize]
    }

    /// Number of red pebbles in use.
    pub(crate) fn red_count(&self) -> usize {
        self.red_count
    }

    /// Loads so far.
    pub(crate) fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores so far.
    pub(crate) fn stores(&self) -> u64 {
        self.stores
    }

    /// Total I/O `Q` so far.
    pub(crate) fn io(&self) -> u64 {
        self.loads + self.stores
    }

    /// Applies one move, enforcing legality.
    pub(crate) fn apply(&mut self, m: Move) -> Result<(), GameError> {
        match m {
            Move::Load(v) => {
                if !self.blue[v as usize] {
                    return Err(GameError::LoadWithoutBlue(v));
                }
                if !self.red[v as usize] {
                    if self.red_count >= self.s {
                        return Err(GameError::RedCapacityExceeded(v));
                    }
                    self.red[v as usize] = true;
                    self.red_count += 1;
                }
                self.loads += 1;
                Ok(())
            }
            Move::Store(v) => {
                if !self.red[v as usize] {
                    return Err(GameError::StoreWithoutRed(v));
                }
                self.blue[v as usize] = true;
                self.stores += 1;
                Ok(())
            }
            Move::Compute(v) => {
                if self.dag.preds(v).is_empty() {
                    return Err(GameError::ComputeInput(v));
                }
                for &p in self.dag.preds(v) {
                    if !self.red[p as usize] {
                        return Err(GameError::ComputeMissingPred { vertex: v, missing: p });
                    }
                }
                if !self.red[v as usize] {
                    if self.red_count >= self.s {
                        return Err(GameError::RedCapacityExceeded(v));
                    }
                    self.red[v as usize] = true;
                    self.red_count += 1;
                }
                Ok(())
            }
            Move::FreeRed(v) => {
                if !self.red[v as usize] {
                    return Err(GameError::FreeMissing(v));
                }
                self.red[v as usize] = false;
                self.red_count -= 1;
                Ok(())
            }
            Move::FreeBlue(v) => {
                if !self.blue[v as usize] {
                    return Err(GameError::FreeMissing(v));
                }
                self.blue[v as usize] = false;
                Ok(())
            }
        }
    }

    /// True when every output vertex holds a blue pebble — the game's goal.
    pub(crate) fn is_complete(&self) -> bool {
        self.dag.outputs().iter().all(|&v| self.blue[v as usize])
    }
}

/// Replays a whole trace on a fresh game; returns the final game or the
/// first illegal move's error with its index.
pub(crate) fn replay<'a>(
    dag: &'a Dag,
    s: usize,
    trace: &[Move],
) -> Result<Game<'a>, (usize, GameError)> {
    let mut game = Game::new(dag, s);
    for (i, &m) in trace.iter().enumerate() {
        game.apply(m).map_err(|e| (i, e))?;
    }
    Ok(game)
}

/// Replays and additionally demands completion; returns total I/O `Q`.
pub fn replay_complete(dag: &Dag, s: usize, trace: &[Move]) -> Result<u64, String> {
    let game = replay(dag, s, trace).map_err(|(i, e)| format!("move {i}: {e}"))?;
    if !game.is_complete() {
        return Err("trace does not blue-pebble all outputs".into());
    }
    Ok(game.io())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0,1 inputs -> 2 -> 3 chain.
    fn chain() -> Dag {
        let mut d = Dag::new();
        let a = d.add_vertex();
        let b = d.add_vertex();
        let c = d.add_vertex();
        let e = d.add_vertex();
        d.add_edge(a, c);
        d.add_edge(b, c);
        d.add_edge(c, e);
        d
    }

    #[test]
    fn minimal_legal_playthrough() {
        let d = chain();
        let trace = [
            Move::Load(0),
            Move::Load(1),
            Move::Compute(2),
            Move::FreeRed(0),
            Move::FreeRed(1),
            Move::Compute(3),
            Move::Store(3),
        ];
        let q = replay_complete(&d, 3, &trace).unwrap();
        assert_eq!(q, 3); // two loads + one store
    }

    #[test]
    fn capacity_enforced() {
        let d = chain();
        let mut g = Game::new(&d, 1);
        g.apply(Move::Load(0)).unwrap();
        assert_eq!(g.apply(Move::Load(1)), Err(GameError::RedCapacityExceeded(1)));
    }

    #[test]
    fn compute_requires_red_predecessors() {
        let d = chain();
        let mut g = Game::new(&d, 3);
        g.apply(Move::Load(0)).unwrap();
        assert_eq!(
            g.apply(Move::Compute(2)),
            Err(GameError::ComputeMissingPred { vertex: 2, missing: 1 })
        );
    }

    #[test]
    fn inputs_cannot_be_computed() {
        let d = chain();
        let mut g = Game::new(&d, 3);
        assert_eq!(g.apply(Move::Compute(0)), Err(GameError::ComputeInput(0)));
    }

    #[test]
    fn load_requires_blue() {
        let d = chain();
        let mut g = Game::new(&d, 3);
        assert_eq!(g.apply(Move::Load(2)), Err(GameError::LoadWithoutBlue(2)));
    }

    #[test]
    fn store_requires_red() {
        let d = chain();
        let mut g = Game::new(&d, 3);
        assert_eq!(g.apply(Move::Store(2)), Err(GameError::StoreWithoutRed(2)));
    }

    #[test]
    fn free_requires_presence() {
        let d = chain();
        let mut g = Game::new(&d, 3);
        assert_eq!(g.apply(Move::FreeRed(0)), Err(GameError::FreeMissing(0)));
        assert_eq!(g.apply(Move::FreeBlue(2)), Err(GameError::FreeMissing(2)));
        // Inputs start blue; freeing their blue is legal (if unwise).
        assert!(g.apply(Move::FreeBlue(0)).is_ok());
    }

    #[test]
    fn incomplete_trace_rejected() {
        let d = chain();
        let trace = [Move::Load(0), Move::Load(1), Move::Compute(2)];
        assert!(replay_complete(&d, 3, &trace).is_err());
    }

    #[test]
    fn recomputation_is_legal() {
        // Compute 2, drop it, recompute it — allowed (unlike red-blue-white).
        let d = chain();
        let trace = [
            Move::Load(0),
            Move::Load(1),
            Move::Compute(2),
            Move::FreeRed(2),
            Move::Compute(2),
            Move::FreeRed(0),
            Move::FreeRed(1),
            Move::Compute(3),
            Move::Store(3),
        ];
        let q = replay_complete(&d, 3, &trace).unwrap();
        assert_eq!(q, 3);
    }

    #[test]
    fn reload_after_store_counts_io() {
        let d = chain();
        // Store 2, evict, reload: 2 extra I/Os versus keeping it red.
        // (S = 3: vertex 2 has in-degree 2, so computing it needs both
        // predecessors red plus a free slot.)
        let trace = [
            Move::Load(0),
            Move::Load(1),
            Move::Compute(2),
            Move::Store(2),
            Move::FreeRed(2),
            Move::FreeRed(0),
            Move::FreeRed(1),
            Move::Load(2),
            Move::Compute(3),
            Move::Store(3),
        ];
        let q = replay_complete(&d, 3, &trace).unwrap();
        assert_eq!(q, 5);
    }

    #[test]
    fn io_monotonically_counts_loads_and_stores() {
        let d = chain();
        let mut g = Game::new(&d, 4);
        assert_eq!(g.io(), 0);
        g.apply(Move::Load(0)).unwrap();
        assert_eq!((g.loads(), g.stores(), g.io()), (1, 0, 1));
        g.apply(Move::Load(1)).unwrap();
        g.apply(Move::Compute(2)).unwrap();
        g.apply(Move::Store(2)).unwrap();
        assert_eq!((g.loads(), g.stores(), g.io()), (2, 1, 3));
    }
}
