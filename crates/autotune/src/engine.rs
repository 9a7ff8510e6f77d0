//! The auto-tuning loop (paper §6.3, Fig. 8).
//!
//! Each iteration: (1) *Model Training* — refit the cost model on the
//! measurement history; (2) *Configuration Searching* — the explorer
//! proposes a batch of promising configurations; (3) *Dataset Updating* —
//! the batch is measured (on the simulator) and appended. Tuning stops
//! after a fixed budget or when the best measured time has not improved
//! for `patience` consecutive measurements, mirroring the paper's
//! "until the measurement runtime ... does not decrease for hundreds of
//! iterations".
//!
//! ## Parallelism and determinism
//!
//! The paper measures proposal batches in parallel because a measurement
//! on a real GPU costs seconds. Here it is one ~1 µs simulator call
//! (< 1 % of a run) against a ~12 µs pool hand-off, so **one tuning run
//! is serial from end to end** — train, search, measure, fold — and a
//! pure function of `(space, measurer, params.seed)` and, store-backed,
//! of the store's records for the workload. The one parallel grain in the
//! tuner is *across* runs: [`tune_batch`] hands each unique workload's
//! whole hermetic run (1.5–1.8 ms, 125–150 hand-offs) to a pool worker
//! and collects the outcomes in request order, so its result does not
//! depend on the thread count either. README's "Parallelism &
//! determinism" table lists every parallel site in the workspace under
//! the same rule: a site is parallel only if one item is ≥ 100 hand-offs.
//!
//! ## The record store
//!
//! [`tune_with_store`] is the loop production services run: identical to
//! [`tune`] except that an [`iolb_records::RecordStore`] sits between
//! the searcher and the simulator. Known configurations replay their
//! stored cost instead of re-measuring (the store is a *measurement
//! cache*; the simulator is deterministic, so a replayed cost equals a
//! re-measured one bit for bit), the best stored configurations seed the
//! searcher's population (*warm start* — exact-workload records first,
//! falling back to the nearest compatible workload by feature distance,
//! *cross-layer transfer*), and every fresh measurement is written back,
//! so measurement cost amortizes across runs, layers and networks.

use crate::cost_model::CostModel;
use crate::features::featurize;
use crate::measure::Measurer;
use crate::search::{History, Searcher};
use crate::space::ConfigSpace;
use iolb_dataflow::config::ScheduleConfig;
use iolb_gpusim::DeviceSpec;
use iolb_records::{RecordStore, TuningRecord, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Tuning budget and convergence knobs.
#[derive(Debug, Clone, Copy)]
pub struct TuneParams {
    /// Maximum number of measurements.
    pub max_measurements: usize,
    /// Proposals measured per iteration.
    pub batch: usize,
    /// Stop when this many consecutive measurements fail to improve the
    /// best.
    pub patience: usize,
    /// RNG seed (tuning is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for TuneParams {
    fn default() -> Self {
        Self { max_measurements: 256, batch: 8, patience: 64, seed: 0xA7E }
    }
}

/// One point of the convergence curve (Fig. 11's series).
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Measurement index (1-based).
    pub measurement: usize,
    /// Best time found so far, ms.
    pub best_ms: f64,
    /// Best throughput so far, GFLOP/s.
    pub best_gflops: f64,
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best configuration found.
    pub best: ScheduleConfig,
    /// Its measured time, ms.
    pub best_ms: f64,
    /// Its throughput, GFLOP/s.
    pub best_gflops: f64,
    /// Total measurement attempts spent (budget consumed, including build
    /// failures).
    pub measurements: usize,
    /// Attempt index at which the best configuration was found — Table 2's
    /// "Iterations" column (trials until the reported solution).
    pub to_best: usize,
    /// Best-so-far curve, one point per measurement.
    pub curve: Vec<CurvePoint>,
    /// Name of the search strategy used.
    pub searcher: &'static str,
}

/// Running bookkeeping of one tuning loop: history, best-so-far,
/// patience and the convergence curve, folded in proposal order.
struct TuneState {
    history: History,
    curve: Vec<CurvePoint>,
    best: Option<(ScheduleConfig, f64)>,
    stall: usize,
    // Failed builds (footprint overflows, unlaunchable blocks) consume
    // budget exactly like TVM's compile failures do.
    attempts: usize,
    to_best: usize,
}

impl TuneState {
    fn new() -> Self {
        Self {
            history: History::new(),
            curve: Vec::new(),
            best: None,
            stall: 0,
            attempts: 0,
            to_best: 0,
        }
    }

    /// Whether the loop should keep going.
    fn live(&self, params: &TuneParams) -> bool {
        self.attempts < params.max_measurements && self.stall < params.patience
    }

    /// (1) Model training on the accumulated history.
    fn train(&self, space: &ConfigSpace, model: &mut dyn CostModel) {
        if self.history.is_empty() {
            return;
        }
        let rows: Vec<Vec<f64>> = self
            .history
            .entries()
            .iter()
            .map(|(c, _)| featurize(&space.shape, space.kind, c))
            .collect();
        let costs: Vec<f64> = self.history.entries().iter().map(|(_, t)| *t).collect();
        model.train(&rows, &costs);
    }

    /// (3) Dataset updating, one configuration at a time, in proposal
    /// order.
    fn fold(&mut self, cfg: ScheduleConfig, measurement: Option<f64>, measurer: &Measurer) {
        self.attempts += 1;
        let Some(ms) = measurement else {
            // Build failure: budget spent, nothing learned.
            self.stall += 1;
            return;
        };
        self.history.push(cfg, ms);
        let improved = self.best.as_ref().is_none_or(|&(_, b)| ms < b);
        if improved {
            self.best = Some((cfg, ms));
            self.to_best = self.attempts;
            self.stall = 0;
        } else {
            self.stall += 1;
        }
        let (_, best_ms) = self.best.unwrap();
        self.curve.push(CurvePoint {
            measurement: self.attempts,
            best_ms,
            best_gflops: measurer.gflops(best_ms),
        });
    }

    fn into_result(self, measurer: &Measurer, searcher: &'static str) -> Option<TuneResult> {
        self.best.map(|(cfg, ms)| TuneResult {
            best: cfg,
            best_ms: ms,
            best_gflops: measurer.gflops(ms),
            measurements: self.attempts,
            to_best: self.to_best,
            curve: self.curve,
            searcher,
        })
    }
}

/// Runs the full tuning loop.
///
/// Returns `None` only if the space yields no measurable configuration at
/// all (practically: an infeasible shape/device pairing).
pub fn tune(
    space: &ConfigSpace,
    measurer: &Measurer,
    model: &mut dyn CostModel,
    searcher: &mut dyn Searcher,
    params: TuneParams,
) -> Option<TuneResult> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut state = TuneState::new();

    while state.live(&params) {
        // (1) Model training.
        state.train(space, model);
        // (2) Configuration searching.
        let mut batch = searcher.propose(space, model, &state.history, params.batch, &mut rng);
        if batch.is_empty() {
            break;
        }
        // (3) Dataset updating: measure and fold in proposal order,
        // truncated to the remaining budget.
        batch.truncate(params.max_measurements - state.attempts);
        for cfg in batch {
            state.fold(cfg, measurer.measure_ms(&cfg), measurer);
        }
    }

    state.into_result(measurer, searcher.name())
}

/// The [`Workload`] identity of a tuning problem — the record store's
/// primary key for everything this `(space, measurer)` pair measures.
pub fn workload_for(space: &ConfigSpace, measurer: &Measurer) -> Workload {
    Workload::new(space.shape, space.kind, measurer.device.name, measurer.device.smem_per_sm)
        .with_epilogue(measurer.epilogue)
}

/// Outcome of a store-backed tuning run: the ordinary [`TuneResult`]
/// plus how the store changed the economics of the run.
#[derive(Debug, Clone)]
pub struct StoreTuneResult {
    /// The tuning outcome. `measurements` counts budget spent, i.e.
    /// cache replays *and* fresh measurements — identical semantics to
    /// [`tune`], so curves stay comparable.
    pub result: TuneResult,
    /// Attempts answered by the store without touching the simulator.
    pub cache_hits: usize,
    /// Attempts that actually invoked the simulator (including build
    /// failures, which are never cached).
    pub fresh_measurements: usize,
    /// Configurations used to warm-start the searcher.
    pub warm_seeded: usize,
    /// Whether the warm start came from a *different* workload
    /// (cross-layer transfer) rather than an exact fingerprint match.
    pub transferred: bool,
}

/// Measures a batch through the store: exact hits replay their stored
/// cost, misses go to the simulator. Returns the per-config
/// `(cost, was_hit)` in proposal order.
fn measure_batch_cached(
    measurer: &Measurer,
    batch: &[ScheduleConfig],
    store: &RecordStore,
    fingerprint: &str,
) -> Vec<(Option<f64>, bool)> {
    // One index probe per batch (the fingerprint is loop-invariant);
    // per-config lookup is then a scan of this workload's records only.
    let records = store.records(fingerprint);
    batch
        .iter()
        .map(|c| match records.iter().find(|r| r.config == *c) {
            Some(hit) => (Some(hit.cost_ms), true),
            None => (measurer.measure_ms(c), false),
        })
        .collect()
}

/// How a store-backed tuning run may use the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Replay cached measurements *and* seed the searcher from the
    /// store's best records (exact workload first, nearest compatible
    /// workload as the transfer fallback). The production default.
    WarmStart,
    /// Replay cached measurements only. The search trajectory is
    /// bit-identical to a storeless run (a replayed cost equals a
    /// re-measured one), so head-to-head tuner comparisons stay honest
    /// while still amortizing simulator time — what the `fig11`/`tab2`
    /// comparison binaries use, where warm-starting one method from a
    /// competitor's records would corrupt the comparison.
    CacheOnly,
}

/// [`tune`], backed by a persistent [`RecordStore`] in
/// [`StoreMode::WarmStart`]: cached measurements replay for free, the
/// searcher warm-starts from the best stored records, and every fresh
/// measurement is written back to the store.
///
/// Determinism carries over: the store's queries and canonical ordering
/// are deterministic, replayed costs are bit-identical to re-measured
/// ones, and the fold stays serial in proposal order. Two runs against
/// equal stores produce identical results *and* identical stores.
pub fn tune_with_store(
    space: &ConfigSpace,
    measurer: &Measurer,
    model: &mut dyn CostModel,
    searcher: &mut dyn Searcher,
    params: TuneParams,
    store: &mut RecordStore,
) -> Option<StoreTuneResult> {
    tune_with_store_mode(space, measurer, model, searcher, params, store, StoreMode::WarmStart)
}

/// [`tune_with_store`] with an explicit [`StoreMode`].
#[allow(clippy::too_many_arguments)] // the tune() signature plus store and mode
pub fn tune_with_store_mode(
    space: &ConfigSpace,
    measurer: &Measurer,
    model: &mut dyn CostModel,
    searcher: &mut dyn Searcher,
    params: TuneParams,
    store: &mut RecordStore,
    mode: StoreMode,
) -> Option<StoreTuneResult> {
    let workload = workload_for(space, measurer);
    let fingerprint = workload.fingerprint();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut state = TuneState::new();
    let mut cache_hits = 0usize;
    let mut fresh_measurements = 0usize;

    // Fold a batch through the cache, tallying hits and writing fresh
    // successes back to the store.
    let mut fold_cached =
        |state: &mut TuneState, store: &mut RecordStore, batch: Vec<ScheduleConfig>| {
            let measured = measure_batch_cached(measurer, &batch, store, &fingerprint);
            for (cfg, (measurement, was_hit)) in batch.into_iter().zip(measured) {
                if was_hit {
                    cache_hits += 1;
                } else {
                    fresh_measurements += 1;
                    if let Some(ms) = measurement {
                        if let Ok(rec) = TuningRecord::new(workload.clone(), cfg, ms, params.seed) {
                            store.insert(rec);
                        }
                    }
                }
                state.fold(cfg, measurement, measurer);
            }
        };

    // Warm start: replay the store's best configurations for this
    // workload (or, transferring, the nearest compatible one) as the
    // zeroth batch, and seed the searcher's population with them. The
    // replay puts their costs into the history, so the cost model is
    // trained before the first proposal round — the "guided first batch"
    // that cold runs pay full price for.
    let (mut warm, transferred) = match mode {
        StoreMode::WarmStart => store.warm_start_configs(&workload, params.batch.max(1)),
        StoreMode::CacheOnly => (Vec::new(), false),
    };
    warm.retain(|c| space.contains(c));
    warm.truncate(params.max_measurements);
    let warm_seeded = warm.len();
    // Transfer only counts if at least one transferred config survived
    // the space filter (a neighbour's tiles need not divide this layer).
    let transferred = transferred && !warm.is_empty();
    searcher.warm_start(&warm);
    if !warm.is_empty() {
        fold_cached(&mut state, store, warm);
        // Replaying the store best-first means every warm config after
        // the first looked like "no improvement"; that is cache priming,
        // not the search stalling, so it must not eat into patience.
        state.stall = 0;
    }

    while state.live(&params) {
        state.train(space, model);
        let mut batch = searcher.propose(space, model, &state.history, params.batch, &mut rng);
        if batch.is_empty() {
            break;
        }
        batch.truncate(params.max_measurements - state.attempts);
        fold_cached(&mut state, store, batch);
    }

    let result = state.into_result(measurer, searcher.name())?;
    Some(StoreTuneResult { result, cache_hits, fresh_measurements, warm_seeded, transferred })
}

/// Outcome of a [`tune_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchTuneOutcome {
    /// Per original request, in order: the tuning outcome of its unique
    /// representative (duplicates share their representative's result,
    /// cloned). `None` for infeasible workloads.
    pub results: Vec<Option<StoreTuneResult>>,
    /// Union of every run's records — what the batch learned.
    pub store: RecordStore,
    /// Hermetic tuning runs actually performed (one per unique workload).
    pub unique_runs: usize,
    /// Requests that rode along on another request's run for free.
    pub deduped: usize,
}

/// Tunes a whole batch of related workloads — "one network on one
/// device" — sharing the canonical tuner setup across batch members.
///
/// The batch is first deduplicated by workload fingerprint
/// ([`crate::plan::dedup_requests`]): repeated layer shapes become one
/// tuning run whose result fans out to every occurrence. Each unique
/// workload then runs the canonical [`crate::plan::tuner_setup`] against
/// a **fresh private store** — exactly the hermetic per-workload run the
/// tuning service's background workers perform, so a batch-tuned config
/// is bit-identical to an eager [`tune_with_store`] run of the same
/// `(workload, budget, seed)`, and the unique runs fan out across pool
/// workers — the tuner's only parallel region (results are collected in
/// request order, so the outcome is independent of scheduling).
///
/// Hermeticity is deliberate: sharing measurements *across* members
/// would make each result depend on batch composition and completion
/// order, breaking replay. What the batch shares is the planning —
/// dedup, setup construction — which Li et al.'s analytical DSE shows is
/// the cheap part; the measurements it *avoids* are the duplicated ones.
pub fn tune_batch(
    requests: &[crate::plan::TuneRequest],
    device: &DeviceSpec,
    budget: usize,
    seed: u64,
) -> BatchTuneOutcome {
    let (unique, representative) = crate::plan::dedup_requests(requests.iter().copied(), device);
    let runs: Vec<Option<(StoreTuneResult, RecordStore)>> = unique
        .par_iter()
        .map(|req| {
            let mut private = RecordStore::new();
            let mut s = crate::plan::tuner_setup_fused(
                &req.shape,
                req.kind,
                req.epilogue,
                device,
                budget,
                seed,
            );
            let out = tune_with_store(
                &s.space,
                &s.measurer,
                &mut s.model,
                &mut s.searcher,
                s.params,
                &mut private,
            )?;
            Some((out, private))
        })
        .collect();
    let mut store = RecordStore::new();
    let mut results_by_unique: Vec<Option<StoreTuneResult>> = Vec::with_capacity(runs.len());
    for run in runs {
        match run {
            Some((out, private)) => {
                store.merge(private);
                results_by_unique.push(Some(out));
            }
            None => results_by_unique.push(None),
        }
    }
    let results =
        representative.iter().map(|&at| results_by_unique[at].clone()).collect::<Vec<_>>();
    BatchTuneOutcome {
        results,
        store,
        unique_runs: unique.len(),
        deduped: requests.len() - unique.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::{GbtCostModel, NoModel};
    use crate::search::random::RandomSearch;
    use crate::search::walk::ParallelRandomWalk;
    use iolb_core::optimality::TileKind;
    use iolb_core::shapes::ConvShape;
    use iolb_gpusim::DeviceSpec;

    fn setup(pruned: bool) -> (ConfigSpace, Measurer) {
        let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
        let device = DeviceSpec::v100();
        let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, pruned);
        let measurer = Measurer::new(device, shape, TileKind::Direct);
        (space, measurer)
    }

    #[test]
    fn tuning_finds_a_config_and_curve_is_monotone() {
        let (space, measurer) = setup(true);
        let mut model = GbtCostModel::default();
        let mut searcher = ParallelRandomWalk::new();
        let params = TuneParams { max_measurements: 48, batch: 6, patience: 48, seed: 1 };
        let result = tune(&space, &measurer, &mut model, &mut searcher, params).unwrap();
        assert!(result.best_ms > 0.0);
        assert!(result.measurements <= 48);
        // Best-so-far must be non-increasing in time, non-decreasing in
        // GFLOP/s.
        for w in result.curve.windows(2) {
            assert!(w[1].best_ms <= w[0].best_ms);
            assert!(w[1].best_gflops >= w[0].best_gflops - 1e-9);
        }
    }

    #[test]
    fn tuning_is_deterministic_given_seed() {
        let (space, measurer) = setup(true);
        let run = || {
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune(
                &space,
                &measurer,
                &mut model,
                &mut searcher,
                TuneParams { max_measurements: 24, batch: 4, patience: 24, seed: 9 },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_ms, b.best_ms);
    }

    #[test]
    fn best_config_beats_random_average() {
        let (space, measurer) = setup(true);
        let mut model = GbtCostModel::default();
        let mut searcher = ParallelRandomWalk::new();
        let result = tune(
            &space,
            &measurer,
            &mut model,
            &mut searcher,
            TuneParams { max_measurements: 64, batch: 8, patience: 64, seed: 2 },
        )
        .unwrap();
        // Average cost of pure random samples.
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0.0;
        let mut n = 0;
        for _ in 0..32 {
            if let Some(cfg) = space.sample(&mut rng, 256) {
                if let Some(ms) = measurer.measure_ms(&cfg) {
                    total += ms;
                    n += 1;
                }
            }
        }
        let avg = total / n as f64;
        assert!(result.best_ms < avg, "tuned {} not below random average {avg}", result.best_ms);
    }

    #[test]
    fn patience_stops_early() {
        let (space, measurer) = setup(true);
        let mut model = NoModel;
        let mut searcher = RandomSearch;
        let result = tune(
            &space,
            &measurer,
            &mut model,
            &mut searcher,
            TuneParams { max_measurements: 10_000, batch: 8, patience: 12, seed: 4 },
        )
        .unwrap();
        assert!(result.measurements < 10_000, "patience did not trigger: {}", result.measurements);
    }

    #[test]
    fn pruned_space_converges_at_least_as_fast() {
        // The paper's Table 2 claim, in miniature: measurements-to-best on
        // the pruned space do not exceed those on the full space by much;
        // and the pruned best is competitive.
        let (full, measurer) = setup(false);
        let (pruned, _) = setup(true);
        let run = |space: &ConfigSpace| {
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune(
                space,
                &measurer,
                &mut model,
                &mut searcher,
                TuneParams { max_measurements: 64, batch: 8, patience: 64, seed: 5 },
            )
            .unwrap()
        };
        let rf = run(&full);
        let rp = run(&pruned);
        // The pruned-space optimum is within 25% of the full-space one.
        assert!(
            rp.best_ms <= rf.best_ms * 1.25,
            "pruned best {} vs full best {}",
            rp.best_ms,
            rf.best_ms
        );
    }

    #[test]
    fn store_backed_tuning_matches_plain_tuning_on_empty_store() {
        // With nothing cached, tune_with_store must walk the exact same
        // trajectory as tune (no hits, no warm seeds, same RNG stream).
        let (space, measurer) = setup(true);
        let params = TuneParams { max_measurements: 32, batch: 4, patience: 32, seed: 21 };
        let plain = {
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune(&space, &measurer, &mut model, &mut searcher, params).unwrap()
        };
        let mut store = iolb_records::RecordStore::new();
        let cached = {
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune_with_store(&space, &measurer, &mut model, &mut searcher, params, &mut store)
                .unwrap()
        };
        assert_eq!(cached.cache_hits, 0);
        assert_eq!(cached.warm_seeded, 0);
        assert!(!cached.transferred);
        assert_eq!(cached.fresh_measurements, cached.result.measurements);
        assert_eq!(cached.result.best, plain.best);
        assert_eq!(cached.result.best_ms.to_bits(), plain.best_ms.to_bits());
        assert_eq!(cached.result.measurements, plain.measurements);
        // Every successful fresh measurement was recorded.
        assert_eq!(store.len(), cached.result.curve.len());
    }

    #[test]
    fn second_run_hits_the_cache_and_never_regresses() {
        let (space, measurer) = setup(true);
        // patience == budget so both runs spend the whole budget: the
        // strict fresh-measurement reduction is then exactly the hits.
        let params = TuneParams { max_measurements: 40, batch: 8, patience: 40, seed: 33 };
        let mut store = iolb_records::RecordStore::new();
        let run = |store: &mut iolb_records::RecordStore| {
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune_with_store(&space, &measurer, &mut model, &mut searcher, params, store).unwrap()
        };
        let first = run(&mut store);
        let second = run(&mut store);
        assert!(second.warm_seeded > 0, "second run found no warm seeds");
        assert!(second.cache_hits > 0, "second run never hit the cache");
        assert!(
            second.fresh_measurements < first.fresh_measurements,
            "second run re-measured as much as the first ({} vs {})",
            second.fresh_measurements,
            first.fresh_measurements
        );
        assert!(
            second.result.best_ms <= first.result.best_ms,
            "warm-started best {} regressed past cold best {}",
            second.result.best_ms,
            first.result.best_ms
        );
    }

    #[test]
    fn cache_only_mode_replays_without_changing_the_trajectory() {
        // In CacheOnly mode a second run must walk the *identical*
        // trajectory to a storeless run — only cheaper.
        let (space, measurer) = setup(true);
        let params = TuneParams { max_measurements: 32, batch: 8, patience: 32, seed: 13 };
        let plain = {
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune(&space, &measurer, &mut model, &mut searcher, params).unwrap()
        };
        let mut store = iolb_records::RecordStore::new();
        let run = |store: &mut iolb_records::RecordStore| {
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune_with_store_mode(
                &space,
                &measurer,
                &mut model,
                &mut searcher,
                params,
                store,
                StoreMode::CacheOnly,
            )
            .unwrap()
        };
        let first = run(&mut store);
        let second = run(&mut store);
        for cached in [&first, &second] {
            assert_eq!(cached.warm_seeded, 0);
            assert!(!cached.transferred);
            assert_eq!(cached.result.best, plain.best);
            assert_eq!(cached.result.best_ms.to_bits(), plain.best_ms.to_bits());
            assert_eq!(cached.result.measurements, plain.measurements);
            assert_eq!(cached.result.to_best, plain.to_best);
        }
        // ... but the second run replays instead of re-measuring.
        assert_eq!(first.cache_hits, 0);
        assert!(second.cache_hits > 0);
        assert!(second.fresh_measurements < first.fresh_measurements);
    }

    #[test]
    fn transfer_seeds_from_the_nearest_workload() {
        let device = DeviceSpec::v100();
        let near = ConvShape::square(64, 28, 32, 3, 1, 1);
        let target = ConvShape::square(32, 28, 32, 3, 1, 1);
        let params = TuneParams { max_measurements: 24, batch: 6, patience: 24, seed: 5 };
        let mut store = iolb_records::RecordStore::new();
        // Populate the store with the neighbour layer only.
        {
            let space = ConfigSpace::new(near, TileKind::Direct, device.smem_per_sm, true);
            let measurer = Measurer::new(device.clone(), near, TileKind::Direct);
            let mut model = GbtCostModel::default();
            let mut searcher = ParallelRandomWalk::new();
            tune_with_store(&space, &measurer, &mut model, &mut searcher, params, &mut store)
                .unwrap();
        }
        let space = ConfigSpace::new(target, TileKind::Direct, device.smem_per_sm, true);
        let measurer = Measurer::new(device, target, TileKind::Direct);
        let mut model = GbtCostModel::default();
        let mut searcher = ParallelRandomWalk::new();
        let out = tune_with_store(&space, &measurer, &mut model, &mut searcher, params, &mut store)
            .unwrap();
        // Same spatial extents: the neighbour's configs that survive the
        // space filter seed the run, flagged as a transfer.
        assert!(out.transferred, "no cross-workload transfer happened");
        assert!(out.warm_seeded > 0);
        assert_eq!(out.cache_hits, 0, "different workload must not hit the cache");
        // The target workload's fresh measurements are now stored too.
        let wl = workload_for(&space, &measurer);
        assert!(!store.top_k(&wl, 1).is_empty());
    }

    #[test]
    fn tune_batch_dedupes_and_matches_eager_runs() {
        use crate::plan::{tuner_setup, TuneRequest};
        let device = DeviceSpec::v100();
        let a = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
        let b = ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0);
        // Four requests, two unique workloads: a appears three times.
        let requests: Vec<TuneRequest> =
            [a, a, b, a].iter().map(|&shape| TuneRequest::bare(shape, TileKind::Direct)).collect();
        let out = tune_batch(&requests, &device, 12, 7);
        assert_eq!(out.unique_runs, 2);
        assert_eq!(out.deduped, 2);
        assert_eq!(out.results.len(), 4);
        // Duplicates share their representative's result bit-for-bit.
        let first = out.results[0].as_ref().unwrap();
        for dup in [1, 3] {
            let r = out.results[dup].as_ref().unwrap();
            assert_eq!(r.result.best, first.result.best);
            assert_eq!(r.result.best_ms.to_bits(), first.result.best_ms.to_bits());
        }
        // Each unique run is bit-identical to the eager single-workload
        // run of the same (workload, budget, seed) — hermeticity.
        let mut batch_fresh = 0;
        for (req, result) in [(requests[0], first), (requests[2], out.results[2].as_ref().unwrap())]
        {
            let mut store = RecordStore::new();
            let mut s = tuner_setup(&req.shape, req.kind, &device, 12, 7);
            let eager = tune_with_store(
                &s.space,
                &s.measurer,
                &mut s.model,
                &mut s.searcher,
                s.params,
                &mut store,
            )
            .unwrap();
            assert_eq!(result.result.best, eager.result.best);
            assert_eq!(result.result.best_ms.to_bits(), eager.result.best_ms.to_bits());
            assert_eq!(result.fresh_measurements, eager.fresh_measurements);
            batch_fresh += result.fresh_measurements;
        }
        // The merged store holds exactly the unique runs' records, and
        // the batch spent exactly one run per unique workload: repeats
        // cost zero measurements.
        assert_eq!(out.store.workload_count(), 2);
        let total: usize =
            [0, 2].iter().map(|&i| out.results[i].as_ref().unwrap().fresh_measurements).sum();
        assert_eq!(total, batch_fresh);
    }

    #[test]
    fn tune_batch_reports_infeasible_members_without_sinking_the_batch() {
        use crate::plan::TuneRequest;
        // A device with no usable shared memory makes every run infeasible.
        let ok = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
        let device = DeviceSpec::v100();
        let hopeless = DeviceSpec { smem_per_sm: 1, ..device.clone() };
        let requests = [TuneRequest::bare(ok, TileKind::Direct)];
        let out = tune_batch(&requests, &hopeless, 8, 7);
        assert!(out.results[0].is_none());
        assert!(out.store.is_empty());
        let out = tune_batch(&requests, &device, 8, 7);
        assert!(out.results[0].is_some());
    }
}
