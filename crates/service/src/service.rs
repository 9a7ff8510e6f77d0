//! The tuning service: speculative background tuning over sharded stores.
//!
//! A [`TuningService`] owns a [`ShardedStore`], a tiered priority
//! `WorkQueue`, and a set of background tuner workers on the rayon
//! shim's persistent pool. Registering a network enqueues every layer ×
//! algorithm-candidate workload (plus shape-perturbation neighbors),
//! prioritized by predicted I/O-bound gap; workers drain the queue in
//! the background and write records back under a fresh-measurement
//! budget. Requests are served through batch **sessions**
//! ([`crate::session`]): [`TuningService::submit`] dedupes a whole
//! network's workloads into one tracked batch group, and
//! [`TuningService::tune_or_wait`] is the one-element session — answered
//! from the shard, by stealing an in-flight background job, or by tuning
//! on the waiting thread.
//!
//! ## The determinism contract
//!
//! Background workers race, so every per-workload tuning run is
//! **hermetic**: it is driven by the canonical
//! [`iolb_autotune::plan::tuner_setup`] against a fresh private store,
//! making its trajectory a pure function of `(workload, budget, seed)`.
//! No run observes any other record — a workload is only ever tuned
//! while its shard holds nothing for it, at most once at a time — so
//! the drained store is independent of worker count, interleaving and
//! queue order, and identical to what eager per-workload
//! [`tune_with_store`](iolb_autotune::engine::tune_with_store) calls
//! produce. Both claim paths run the one [`tune_hermetic`]. The price
//! is deliberate: the speculative path gives up cross-workload transfer
//! seeding (which would make results depend on completion order) in
//! exchange for reproducibility; transfer stays available to eager
//! callers that choose a shared store.
//!
//! The one scheduling-dependent quantity is *which speculative jobs ran*
//! before the background budget ran out — never what any completed job
//! measured. A request for an untuned workload simply tunes on the
//! waiting session's thread.
//!
//! ## Speculation
//!
//! With [`ServiceConfig::speculate_neighbors`] on, registration also
//! stages every channel-halved/-doubled neighbor of each layer at the
//! lowest tier. Neighbors rank like every other job, by the analytic
//! I/O-bound gap alone (see [`crate::queue`]): nothing is learned from
//! traffic, so the drain order is a function of what was registered.
//! A client request for a speculated workload is a plain shard hit, or
//! promotes the pending neighbor job into its session.

use crate::queue::{shape_perturbations, Job, JobTier, PushOutcome, WorkQueue};
use crate::shard::{
    DirLock, DirMergeReport, EvictionPolicy, ShardLoadReport, ShardedStore, LOCK_TIMEOUT,
};
use crate::telemetry::{MetricsSnapshot, Registry, Telemetry};
use iolb_autotune::engine::tune_hermetic;
use iolb_autotune::plan::{algo_candidates, TuneRequest};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_dataflow::config::ScheduleConfig;
use iolb_gpusim::DeviceSpec;
use iolb_records::RecordStore;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Service-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Measurement budget of each per-workload tuning run (speculative
    /// and session-inline alike — they must match for replay to be
    /// exact).
    pub budget_per_workload: usize,
    /// Total *fresh* (simulator-touching) measurements the speculative
    /// path may spend; once exhausted, pending background queue entries
    /// are dropped (batch jobs survive: a session is blocked on them).
    /// A **soft** cap: it is checked before each claim, not mid-run
    /// (clamping a run would change its trajectory and break replay),
    /// so concurrent workers can overshoot by up to
    /// `workers × budget_per_workload`. Session requests are user work
    /// and never budget-limited.
    pub background_budget: usize,
    /// Background workers spawned onto the persistent pool per
    /// `TuningService::kick`. `0` disables background tuning; the
    /// queue then drains only via [`TuningService::drain`] or waiting
    /// sessions.
    pub workers: usize,
    /// Whether registering a network also enqueues shape-perturbation
    /// neighbors of its layers (at lower priority).
    pub speculate_neighbors: bool,
    /// How long directory writers ([`TuningService::save`],
    /// [`TuningService::sync_dir`], the daemon's startup lock) wait for
    /// the shard directory's advisory [`DirLock`] before failing with a
    /// typed [`crate::shard::LockError::Timeout`].
    pub lock_timeout: Duration,
    /// Tuner seed shared by every per-workload run.
    pub seed: u64,
    /// Anchor floor of the store's secondary index
    /// ([`iolb_autotune::plan::anchor_dim`]): dimensions at or below it
    /// stay exact, larger ones bucket to the next power of two.
    pub anchor_floor: usize,
    /// The anchored-transfer gap bound, in permille (an integer so the
    /// config stays `Eq`): a transferred config is served as a
    /// zero-measurement anchored hit only when the analytic
    /// `Q_model / Q_lower` gate ([`crate::queue::transfer_admissible`])
    /// proves it within `transfer_gap_permille / 1000` of the target's
    /// I/O lower bound. Transfers outside the bound are served
    /// provisionally with a background re-tune. `1000` (ratio 1.0)
    /// demands the provable optimum and in practice re-tunes everything.
    pub transfer_gap_permille: u32,
}

impl ServiceConfig {
    /// The transfer gate's gap bound as a ratio.
    pub(crate) fn transfer_gap_bound(&self) -> f64 {
        self.transfer_gap_permille as f64 / 1000.0
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            budget_per_workload: 32,
            background_budget: 100_000,
            workers: 2,
            speculate_neighbors: true,
            lock_timeout: LOCK_TIMEOUT,
            seed: 7,
            anchor_floor: iolb_autotune::plan::ANCHOR_FLOOR,
            transfer_gap_permille: 2000,
        }
    }
}

/// Where a [`ServeResult`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// The shard already held records for the workload: zero work.
    /// Duplicate requests within one session also report this — their
    /// result replays from the record their representative produced.
    ShardHit,
    /// A background worker (or another session) was tuning the workload;
    /// the session blocked until it finished and took its result.
    Stolen,
    /// The waiting session tuned the workload on its own thread.
    /// `cancelled_speculative` reports whether a pending background
    /// queue entry for the same workload was absorbed into the session
    /// (the speculative duplicate).
    Inline { cancelled_speculative: bool },
    /// An exact miss answered from the workload's anchor bucket: a
    /// bucket-mate's tuned config, re-costed on the requested shape by
    /// one deterministic simulator evaluation — zero fresh tuning
    /// measurements. `retune` reports whether the analytic gate could
    /// *not* prove the transfer within the configured gap bound, so the
    /// result is provisional and a background re-tune was enqueued at
    /// `JobTier::Transfer`.
    Anchored { retune: bool },
}

/// Outcome of one served request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Best known configuration for the workload.
    pub config: ScheduleConfig,
    /// Its measured cost (ms), bit-identical to what an eager
    /// store-backed tuning run measures.
    pub cost_ms: f64,
    pub source: ServeSource,
    /// Simulator invocations this request itself triggered (0 for hits
    /// and steals).
    pub fresh_measurements: usize,
    /// Store replays this request itself used.
    pub cache_hits: usize,
    /// Whether this result is for a **fused chain** workload — i.e. a
    /// fused request that passed the analytic gate. `false` for bare
    /// convs and for fused requests the gate rewrote to their per-layer
    /// fallback (whose `cost_ms` is then the conv-only time).
    pub fused: bool,
}

/// Declares the service's counters **once**: each row is a
/// [`ServiceStats`] field and the name its counter is stored and scraped
/// under in the [`Telemetry`] registry. The struct, the names the bump
/// sites use (`COUNTER`) and both directions of the read-only view
/// ([`ServiceStats::from_metrics`], [`ServiceStats::counters`]) are
/// generated from this table, so a new counter is one new row plus its
/// bump.
macro_rules! service_counters {
    ($($(#[$doc:meta])* $field:ident = $name:literal,)*) => {
        /// Monotonic counters describing service activity: a read-only
        /// view over the service's [`Telemetry`] registry, built by
        /// [`from_metrics`](Self::from_metrics) and never stored.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServiceStats {
            $($(#[$doc])* pub $field: usize,)*
        }

        /// Registry name of each [`ServiceStats`] counter, by field.
        pub(crate) struct CounterNames {
            $(pub(crate) $field: &'static str,)*
        }

        pub(crate) const COUNTER: CounterNames = CounterNames { $($field: $name,)* };

        impl ServiceStats {
            /// Reads the view out of a registry snapshot. A counter the
            /// snapshot does not hold (never bumped) reads 0.
            pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
                let read = |name: &str| metrics.counter(name).unwrap_or(0) as usize;
                Self { $($field: read(COUNTER.$field),)* }
            }

            /// The view run backwards: every field as the `(registry
            /// name, value)` pair it is stored and scraped under, in
            /// table order.
            pub fn counters(&self) -> Vec<(String, u64)> {
                vec![$((COUNTER.$field.to_string(), self.$field as u64),)*]
            }
        }
    };
}

service_counters! {
    /// Layer workloads enqueued by registration.
    enqueued = "iolb_service_enqueued_total",
    /// Shape-perturbation neighbors enqueued by registration.
    speculative_enqueued = "iolb_service_speculative_enqueued_total",
    /// Queue jobs created (or promoted) on behalf of batch sessions.
    batch_enqueued = "iolb_service_batch_enqueued_total",
    /// Jobs tuned by the background path (workers or [`TuningService::drain`]).
    background_tuned = "iolb_service_background_tuned_total",
    /// Workloads tuned on a waiting session's thread.
    inline_tuned = "iolb_service_inline_tuned_total",
    /// Requests answered instantly from the shards (including duplicate
    /// requests deduplicated within one session).
    shard_hits = "iolb_service_shard_hits_total",
    /// Requests that waited for an in-flight job someone else ran.
    stolen = "iolb_service_stolen_total",
    /// Exact misses answered from the anchor bucket (provisional serves
    /// included): zero fresh tuning measurements each.
    anchored_hits = "iolb_anchor_hits_total",
    /// Anchored serves the analytic gate could not prove within the gap
    /// bound: served provisionally with a background re-tune enqueued.
    transfer_retunes = "iolb_transfer_retunes_total",
    /// Queue jobs created (or promoted) at the transfer re-tune tier.
    transfer_enqueued = "iolb_service_transfer_enqueued_total",
    /// Pending background jobs absorbed into a session because a client
    /// requested the same workload.
    cancelled_speculative = "iolb_service_cancelled_speculative_total",
    /// Pending background jobs dropped when the budget ran out.
    budget_dropped = "iolb_service_budget_dropped_total",
    /// Total simulator invocations across background and session tuning.
    fresh_measurements = "iolb_service_fresh_measurements_total",
    /// Total store replays across background and session tuning.
    cache_hits = "iolb_service_cache_hits_total",
    /// Workloads that turned out to have no measurable configuration.
    infeasible = "iolb_service_infeasible_total",
    /// Batch sessions submitted.
    batch_groups = "iolb_service_batch_groups_total",
    /// Requests across all batch sessions.
    batch_requests = "iolb_service_batch_requests_total",
    /// Requests that deduplicated onto another request in their session.
    batch_deduped = "iolb_service_batch_deduped_total",
    /// Completed sessions ("served networks").
    networks_served = "iolb_sessions_total",
    /// Unique fused chains that passed the analytic fusion gate at
    /// session submit.
    fused_blocks = "iolb_fused_blocks_total",
    /// Unique fused chains the gate rewrote to their per-layer fallback.
    fusion_fallbacks = "iolb_fusion_fallbacks_total",
}

/// Gauge names of the two live numbers a [`ServiceSnapshot`] carries.
const QUEUE_LEN_GAUGE: &str = "iolb_queue_len";
const BUDGET_LEFT_GAUGE: &str = "iolb_budget_left";

/// File name of the stats sidecar a [`TuningService::save`] /
/// [`TuningService::sync_dir`] writes next to the manifest, so
/// `tune-cache serve-stats` / `metrics` can report queue depth, remaining
/// budget and the service counters from a directory instead of only
/// in-process. Its body is the [`MetricsSnapshot`] line encoding.
pub(crate) const STATS_FILE: &str = "service-stats.jsonl";

/// First line of the stats sidecar. A file that starts with anything
/// else — a foreign version, the pre-registry `service-stats.tsv`
/// dialect — is ignored whole (stale telemetry is worse than none).
const SIDECAR_HEADER: &str = "{\"schema\":\"iolb-service-stats\",\"v\":2}";

/// The part of a registry snapshot that outlives the process: the
/// counters the table declares plus the two live gauges, so operators
/// can read a directory's history offline (`tune-cache serve-stats`,
/// `metrics`) and across restarts. Nothing the service decides reads
/// them back. Everything else in the registry — latency histograms,
/// daemon and eviction counters — is process-lifetime by design, and
/// a name the table does not declare (say, a counter an older build
/// wrote) is dropped, both when a sidecar is read and when one is
/// written.
fn persisted(metrics: &MetricsSnapshot) -> MetricsSnapshot {
    let mut counters = ServiceStats::from_metrics(metrics).counters();
    counters.retain(|(_, value)| *value > 0);
    counters.sort();
    MetricsSnapshot {
        counters,
        gauges: metrics
            .gauges
            .iter()
            .filter(|(name, _)| name == QUEUE_LEN_GAUGE || name == BUDGET_LEFT_GAUGE)
            .cloned()
            .collect(),
        histograms: Vec::new(),
    }
}

/// Parses a stats sidecar, tolerantly: lines that are not metric lines
/// are skipped, and so are metrics [`persisted`] would not write. `None`
/// unless the text starts with the current header.
fn parse_sidecar(text: &str) -> Option<MetricsSnapshot> {
    let mut lines = text.lines();
    if lines.next()?.trim_end() != SIDECAR_HEADER {
        return None;
    }
    let mut metrics = Registry::default();
    for line in lines {
        let _ = metrics.decode_line(line);
    }
    Some(persisted(&metrics.snapshot()))
}

/// Loads the stats sidecar of a shard directory, if one exists and
/// carries the current header: the table's counters and the two gauges.
pub fn load_sidecar(dir: impl AsRef<Path>) -> std::io::Result<Option<MetricsSnapshot>> {
    let path = dir.as_ref().join(STATS_FILE);
    if !path.exists() {
        return Ok(None);
    }
    Ok(parse_sidecar(&std::fs::read_to_string(path)?))
}

/// Writes the stats sidecar into a shard directory (atomically).
fn save_sidecar(dir: &Path, metrics: &MetricsSnapshot) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut text = format!("{SIDECAR_HEADER}\n");
    metrics.encode_lines(&mut text);
    let tmp = dir.join(format!("{STATS_FILE}.tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(tmp, dir.join(STATS_FILE))
}

/// A point-in-time view of a service's observable state: the counters
/// plus the two live numbers (queue depth and the remaining background
/// budget). Like [`ServiceStats`]
/// it is only ever read out of a [`MetricsSnapshot`] — live
/// ([`TuningService::snapshot`]), off the wire, or from the sidecar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    pub stats: ServiceStats,
    pub queue_len: usize,
    pub budget_left: usize,
}

impl ServiceSnapshot {
    /// Reads the view out of a registry snapshot (absent names read 0).
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let gauge = |name: &str| {
            metrics.gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v as usize)
        };
        Self {
            stats: ServiceStats::from_metrics(metrics),
            queue_len: gauge(QUEUE_LEN_GAUGE),
            budget_left: gauge(BUDGET_LEFT_GAUGE),
        }
    }

    /// The view of a shard directory's stats sidecar, if it has one.
    pub fn load(dir: impl AsRef<Path>) -> std::io::Result<Option<Self>> {
        Ok(load_sidecar(dir)?.map(|metrics| Self::from_metrics(&metrics)))
    }
}

pub(crate) struct State {
    pub(crate) shards: ShardedStore,
    pub(crate) queue: WorkQueue,
    /// Fingerprints currently being tuned (by a worker or a waiting
    /// session). At most one tuner per workload, ever.
    pub(crate) in_flight: BTreeSet<String>,
    /// Workloads that yielded no measurable configuration — remembered
    /// so neither waiters nor workers retry them forever.
    pub(crate) infeasible: BTreeSet<String>,
    pub(crate) budget_left: usize,
    pub(crate) next_group: u64,
    /// The service's metrics registry (a handle on
    /// [`Inner::telemetry`]). The service counters are bumped
    /// through it with the state lock held, so a snapshot taken under
    /// the lock is consistent with the queue and the shards.
    pub(crate) telemetry: Telemetry,
    /// The persisted counters as of the last [`TuningService::sync_dir`]
    /// (or the values restored at open): what the registry counts on top
    /// of them is what this process still owes the shared sidecar.
    last_synced: MetricsSnapshot,
}

impl State {
    /// Re-books a promoted queue entry's counter under its new tier.
    /// Shared by every promotion site so the stats cannot drift between
    /// the registration and session paths.
    pub(crate) fn rebook_promotion(&mut self, from: JobTier, to: JobTier) {
        self.telemetry.rebook(enqueued_counter(from), enqueued_counter(to));
    }

    /// A copy of the registry with the queue-depth and budget gauges
    /// refreshed. Taken with the state lock held (`self` is only reachable
    /// through it), so it is consistent with the queue and the shards.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        self.telemetry.gauge(QUEUE_LEN_GAUGE, self.queue.len() as u64);
        self.telemetry.gauge(BUDGET_LEFT_GAUGE, self.budget_left as u64);
        self.telemetry.snapshot()
    }
}

/// The counter queue jobs of a tier are booked under.
fn enqueued_counter(tier: JobTier) -> &'static str {
    match tier {
        JobTier::Batch { .. } => COUNTER.batch_enqueued,
        JobTier::Transfer => COUNTER.transfer_enqueued,
        JobTier::Registered => COUNTER.enqueued,
        JobTier::Neighbor => COUNTER.speculative_enqueued,
    }
}

pub(crate) struct Inner {
    pub(crate) state: Mutex<State>,
    /// Signalled whenever the queue, the in-flight set or the shards
    /// change: waiting sessions and `drain` re-check on it.
    pub(crate) changed: Condvar,
    pub(crate) config: ServiceConfig,
    /// Latency histograms and counters for the serving paths. Purely
    /// observational: nothing here ever feeds a tuning trajectory.
    pub(crate) telemetry: Telemetry,
}

/// The speculative background-tuning service. Cheap to clone between
/// threads (`Arc` inside); all state is interior.
#[derive(Clone)]
pub struct TuningService {
    pub(crate) inner: Arc<Inner>,
}

impl TuningService {
    /// A service over an existing sharded store. The store's anchor
    /// index is (re)bucketed under the service's configured floor.
    pub fn new(mut shards: ShardedStore, config: ServiceConfig) -> Self {
        shards.set_anchor_floor(config.anchor_floor);
        let budget_left = config.background_budget;
        let telemetry = Telemetry::new();
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    shards,
                    queue: WorkQueue::new(),
                    in_flight: BTreeSet::new(),
                    infeasible: BTreeSet::new(),
                    budget_left,
                    next_group: 0,
                    telemetry: telemetry.clone(),
                    last_synced: MetricsSnapshot::default(),
                }),
                changed: Condvar::new(),
                config,
                telemetry,
            }),
        }
    }

    /// Opens (or initializes) a service over a shard directory. The
    /// stats sidecar's counters, if any, seed the registry, so the
    /// counters operators read keep counting across restarts instead of
    /// resetting every time a daemon or `tune-net` process reopens the
    /// directory; only the counters [`ServiceStats`] declares are
    /// restored. The restored values also become the sync baseline: a
    /// later [`sync_dir`](Self::sync_dir) contributes only what *this*
    /// process added on top of them. Queue depth and remaining budget
    /// are *not* restored: pending work died with the previous process
    /// and the budget is per-process by design. A service writes the
    /// directory back, so it loads as a writer
    /// ([`ShardedStore::load_for_write`]): a shard the manifest lists but
    /// that cannot be read fails the open instead of being dropped from
    /// the next manifest.
    pub fn open(
        dir: impl AsRef<Path>,
        config: ServiceConfig,
    ) -> std::io::Result<(Self, ShardLoadReport)> {
        let dir = dir.as_ref();
        let (shards, report) = ShardedStore::load_for_write(dir)?;
        let service = Self::new(shards, config);
        if let Some(sidecar) = load_sidecar(dir)? {
            let mut st = service.lock();
            for (name, value) in &sidecar.counters {
                st.telemetry.incr(name, *value);
            }
            st.last_synced = persisted(&st.metrics());
        }
        Ok((service, report))
    }

    pub(crate) fn config(&self) -> ServiceConfig {
        self.inner.config
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("service state poisoned")
    }

    /// Current counters (a view of the registry, read under the state
    /// lock).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::from_metrics(&self.lock().telemetry.counters())
    }

    /// Pending (not yet claimed) jobs.
    pub fn queue_len(&self) -> usize {
        self.lock().queue.len()
    }

    /// The full observable state in one consistent snapshot.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot::from_metrics(&self.metrics())
    }

    /// The service's metrics registry (shared with the daemon when this
    /// service is served over a socket).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// A point-in-time copy of the metrics registry, queue-depth and
    /// budget gauges included, taken under the state lock — the whole of
    /// what the wire `Stats` response carries.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.lock().metrics()
    }

    /// A deep copy of the shards. Held lock time is the clone only, so
    /// expensive follow-ups (merging, disk writes) never stall serving.
    fn snapshot_shards(&self) -> ShardedStore {
        self.lock().shards.clone()
    }

    /// Cross-shard merge-out of everything the service knows (a snapshot).
    pub fn merged_store(&self) -> RecordStore {
        self.snapshot_shards().merged()
    }

    /// Persists the shards (and LRU metadata) plus the stats sidecar to
    /// a directory, under the directory's advisory [`DirLock`].
    /// **Overwrites** the directory's records with this service's view;
    /// use [`sync_dir`](Self::sync_dir) when other processes write the
    /// same directory. The disk write (including fsyncs) happens on a
    /// snapshot, outside the service lock — concurrent serving stays
    /// instant.
    pub fn save(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        let _lock = DirLock::acquire(dir, self.inner.config.lock_timeout)?;
        self.save_locked(dir).map(|_| ())
    }

    /// [`save`](Self::save) for a caller that already holds the
    /// directory's [`DirLock`] (the daemon holds it for its lifetime).
    /// Returns the number of records written.
    pub(crate) fn save_locked(&self, dir: &Path) -> std::io::Result<usize> {
        let (shards, sidecar) = {
            let st = self.lock();
            (st.shards.clone(), persisted(&st.metrics()))
        };
        shards.save(dir)?;
        save_sidecar(dir, &sidecar)?;
        Ok(shards.len())
    }

    /// Cross-process persistence: under one hold of the directory's
    /// advisory lock, merges this service's records into the directory
    /// (union semantics — nothing any other process wrote is lost) and
    /// folds this process's counter *deltas since its last sync* into
    /// the stats sidecar. Counters merge additively, so N concurrent
    /// `tune-net` processes each contribute their telemetry instead of
    /// the last writer erasing the others' — which matters because
    /// [`open`](Self::open) restores the sidecar into live state. Only
    /// the counters the table declares are written back.
    /// (Queue depth and remaining budget are point-in-time gauges, not
    /// counters; they stay last-writer.) Mixing the overwrite-style
    /// [`save`](Self::save) with `sync_dir` on one directory can double
    /// count telemetry — pick one persistence style per directory, as
    /// with the record files themselves.
    pub fn sync_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<DirMergeReport> {
        let dir = dir.as_ref();
        let shards = self.lock().shards.clone();
        let _lock = DirLock::acquire(dir, self.inner.config.lock_timeout)?;
        let report = shards.merge_into_dir_locked(dir)?;
        let mut sidecar = load_sidecar(dir)?.unwrap_or_default();
        let previous_baseline = {
            let mut st = self.lock();
            let live = persisted(&st.metrics());
            // Disk counters plus this process's increments; the gauges
            // are the live ones.
            sidecar.gauges.clear();
            sidecar.merge(&live.counters_since(&st.last_synced));
            std::mem::replace(&mut st.last_synced, live)
        };
        if let Err(e) = save_sidecar(dir, &sidecar) {
            // The delta never landed: roll the baseline back so the next
            // sync re-contributes it.
            self.lock().last_synced = previous_baseline;
            return Err(e);
        }
        Ok(report)
    }

    /// Applies an eviction policy to the shards now.
    pub fn evict(&self, policy: &EvictionPolicy) -> usize {
        self.lock().shards.evict(policy)
    }

    pub(crate) fn enqueue_locked(st: &mut State, job: Job, gap: f64) -> bool {
        let fingerprint = job.fingerprint();
        if !st.shards.records(&job.workload()).is_empty()
            || st.in_flight.contains(&fingerprint)
            || st.infeasible.contains(&fingerprint)
        {
            return false;
        }
        let tier = job.tier;
        match st.queue.push(job, gap) {
            PushOutcome::Added => {
                st.telemetry.incr(enqueued_counter(tier), 1);
                true
            }
            PushOutcome::Promoted { from } => {
                st.rebook_promotion(from, tier);
                false
            }
            PushOutcome::AlreadyPending => false,
        }
    }

    /// Registers a network on a device: enqueues every layer × algorithm
    /// candidate (and, if configured, shape-perturbation neighbors at
    /// lower priority), then kicks the background workers. Returns how
    /// many jobs the queue gained. A layer that was already pending as
    /// some earlier layer's perturbation neighbor is promoted to
    /// registered priority.
    pub fn register_network(&self, net: &impl register::LayerSource, device: &DeviceSpec) -> usize {
        // Candidate jobs are cheap to enumerate; do it without the lock.
        let mut candidates: Vec<Job> = Vec::new();
        let mut stage = |shape: ConvShape, tier: JobTier| {
            for (kind, _) in algo_candidates(&shape) {
                candidates.push(Job {
                    shape,
                    kind,
                    epilogue: iolb_core::epilogue::Epilogue::None,
                    device: device.clone(),
                    tier,
                    enqueued_at: None,
                });
            }
        };
        for layer in net.layer_shapes() {
            stage(*layer, JobTier::Registered);
            if self.inner.config.speculate_neighbors {
                for neighbor in shape_perturbations(layer) {
                    stage(neighbor, JobTier::Neighbor);
                }
            }
        }
        // Snapshot what the service already knows so re-registration
        // (the supported dedupe path) skips the priority computation —
        // io_gap runs a tile-space enumeration per workload. The
        // snapshot is advisory; enqueue_locked re-checks authoritatively.
        let (settled, pending_rank) = {
            let st = self.lock();
            let mut settled: BTreeSet<String> = st.in_flight.clone();
            settled.extend(st.infeasible.iter().cloned());
            for (_, shard) in st.shards.shards() {
                settled.extend(shard.fingerprints().map(str::to_string));
            }
            let pending_rank: BTreeMap<String, u8> =
                st.queue.pending().map(|(fp, tier)| (fp.to_string(), tier.rank())).collect();
            (settled, pending_rank)
        };
        // Priorities for the jobs that actually need them, lock-free:
        // io_gap is a pure function of the workload, and a VGG-scale
        // registration must not stall concurrent serves.
        let jobs: Vec<(Job, f64)> = candidates
            .into_iter()
            .filter_map(|job| {
                let fp = job.fingerprint();
                if settled.contains(&fp) {
                    return None;
                }
                if let Some(&rank) = pending_rank.get(&fp) {
                    // Pending at an equal-or-stronger tier: nothing to
                    // do. Still staged when this push would promote it.
                    if rank <= job.tier.rank() {
                        return None;
                    }
                }
                let gap = crate::queue::io_gap(&job.shape, job.kind, device);
                Some((job, gap))
            })
            .collect();
        let mut added = 0;
        {
            let mut st = self.lock();
            for (job, gap) in jobs {
                added += usize::from(Self::enqueue_locked(&mut st, job, gap));
            }
        }
        if added > 0 {
            self.inner.changed.notify_all();
            self.kick();
        }
        added
    }

    /// Spawns up to `config.workers` background workers onto the
    /// persistent pool. Each worker claims queued jobs until the queue
    /// is empty (or only budget-dropped work remains) and then exits, so
    /// kicking an idle service is free and kicking repeatedly is safe.
    ///
    /// On hosts whose pool has zero workers (single core) this is a
    /// no-op rather than an inline drain: `rayon::spawn` would run the
    /// worker loop on the calling thread, turning "register and move
    /// on" into "block until the whole queue is tuned". There is no
    /// background parallelism to exploit there anyway — the queue
    /// drains via [`drain`](Self::drain) and waiting sessions instead.
    pub(crate) fn kick(&self) {
        if rayon::pool_thread_count() == 0 || self.lock().queue.is_empty() {
            return;
        }
        for _ in 0..self.inner.config.workers {
            let service = self.clone();
            rayon::spawn(move || while service.claim_and_run_one() {});
        }
    }

    /// Blocks until the queue is empty and nothing is in flight,
    /// *helping* with queued jobs on the calling thread while it waits
    /// (so a drain completes even with `workers == 0`, and on hosts
    /// whose pool has no threads). Speculative budget accounting applies
    /// exactly as it does to workers.
    pub fn drain(&self) {
        loop {
            if self.claim_and_run_one() {
                continue;
            }
            // Nothing claimable: either truly done, or background jobs
            // are still in flight — wait for them to land, then re-check
            // (a worker may have exposed nothing new, or a waiter may
            // have enqueued more work meanwhile).
            let mut st = self.lock();
            loop {
                if !st.queue.is_empty() {
                    break; // claimable again
                }
                if st.in_flight.is_empty() {
                    return;
                }
                st = self.inner.changed.wait(st).expect("service state poisoned");
            }
        }
    }

    /// Claims the highest-priority runnable job and tunes it on the
    /// calling thread. Returns `false` when nothing was claimable
    /// (empty queue, or only budget-dropped background work). Batch-tier
    /// jobs are user work: they survive budget exhaustion and are never
    /// billed to the background budget.
    fn claim_and_run_one(&self) -> bool {
        let claimed = {
            let mut st = self.lock();
            if st.budget_left == 0 {
                let dropped = st.queue.clear_droppable();
                if dropped > 0 {
                    st.telemetry.incr(COUNTER.budget_dropped, dropped as u64);
                    self.inner.changed.notify_all();
                }
            }
            loop {
                let Some(job) = st.queue.pop_first() else { break None };
                let fingerprint = job.fingerprint();
                // Registration dedupes, but a workload can be satisfied
                // (or fail) between enqueue and claim; skip stale entries.
                if !st.shards.records(&job.workload()).is_empty()
                    || st.in_flight.contains(&fingerprint)
                    || st.infeasible.contains(&fingerprint)
                {
                    continue;
                }
                st.in_flight.insert(fingerprint.clone());
                break Some((job, fingerprint));
            }
        };
        let Some((job, fingerprint)) = claimed else {
            return false;
        };
        let telemetry = &self.inner.telemetry;
        if let Some(at) = job.enqueued_at {
            telemetry.observe_since("iolb_queue_wait_us", at);
        }
        let started = std::time::Instant::now();
        let (config, request) =
            (self.inner.config, TuneRequest::fused(job.shape, job.kind, job.epilogue));
        let outcome = self.guard_claimed(&[fingerprint.as_str()], || {
            tune_hermetic(&request, &job.device, config.budget_per_workload, config.seed)
        });
        telemetry.observe_since(&format!("iolb_drain_{}_us", job.tier.label()), started);
        crate::log_event!(
            Debug,
            "queue.drained",
            tier = job.tier.label(),
            fingerprint = fingerprint,
            tuned = u8::from(outcome.is_some()),
        );
        let mut st = self.lock();
        st.in_flight.remove(&fingerprint);
        match outcome {
            Some((out, private)) => {
                telemetry.incr(COUNTER.background_tuned, 1);
                telemetry.incr(COUNTER.fresh_measurements, out.fresh_measurements as u64);
                telemetry.incr(COUNTER.cache_hits, out.cache_hits as u64);
                if job.tier.droppable() {
                    st.budget_left = st.budget_left.saturating_sub(out.fresh_measurements);
                }
                st.shards.merge_flat(private);
            }
            None => {
                telemetry.incr(COUNTER.infeasible, 1);
                st.infeasible.insert(fingerprint);
            }
        }
        drop(st);
        self.inner.changed.notify_all();
        true
    }

    /// Runs `tune` for workloads this thread claimed (their fingerprints
    /// are in the in-flight set), with panic cleanup: if the tuner
    /// panics, the fingerprints leave the in-flight set and waiters are
    /// woken *before* the panic resumes — otherwise every later session
    /// waiting on those workloads would block forever on a job that no
    /// longer exists. On success the caller clears the in-flight entries
    /// as it books the results. (On the background path the resumed
    /// panic is then caught by the pool's worker loop, which survives.
    /// Waiting sessions additionally re-arm jobs they find neither
    /// queued, in flight, nor finished.) The one guard of both claim
    /// paths: [`Self::claim_and_run_one`] and the session's inline batch.
    pub(crate) fn guard_claimed<T>(&self, claimed: &[&str], tune: impl FnOnce() -> T) -> T {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(tune)) {
            Ok(outcome) => outcome,
            Err(payload) => {
                let mut st = self.lock();
                for fingerprint in claimed {
                    st.in_flight.remove(*fingerprint);
                }
                drop(st);
                self.inner.changed.notify_all();
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Serves the best configuration for a single workload — the
    /// one-element [`session`](crate::session): shard hit, steal of an
    /// in-flight background job, or tune on this thread (absorbing any
    /// pending background duplicate into the request).
    ///
    /// Returns `None` only for workloads with no measurable
    /// configuration at all. The returned cost is bit-identical to what
    /// an eager [`tune_with_store`](iolb_autotune::engine::tune_with_store)
    /// run of the same workload measures.
    pub fn tune_or_wait(
        &self,
        shape: &ConvShape,
        kind: TileKind,
        device: &DeviceSpec,
    ) -> Option<ServeResult> {
        let requests = [crate::session::TuneRequest::bare(*shape, kind)];
        self.submit(&requests, device).wait().pop().expect("one result per request")
    }

    /// Serves a fused conv→epilogue chain — the one-element fused
    /// session. The analytic fusion gate runs inside
    /// [`submit`](Self::submit): a rejected chain is served as its bare
    /// conv (the result's `fused` flag reports which happened).
    pub fn tune_or_wait_fused(
        &self,
        shape: &ConvShape,
        kind: TileKind,
        epilogue: iolb_core::epilogue::Epilogue,
        device: &DeviceSpec,
    ) -> Option<ServeResult> {
        let requests = [crate::session::TuneRequest::fused(*shape, kind, epilogue)];
        self.submit(&requests, device).wait().pop().expect("one result per request")
    }
}

/// Minimal "network" view the service needs: just the layer shapes.
///
/// `iolb-cnn` sits *above* this crate (its inference timer calls into
/// the service), so the service cannot name `iolb_cnn::Network`
/// directly. Anything that exposes its conv-layer shapes — a network, a
/// slice of shapes, a single shape — registers via this trait;
/// `iolb-cnn` implements it for its `Network` type.
pub mod register {
    use iolb_core::shapes::ConvShape;

    /// Anything with conv layers to register.
    pub trait LayerSource {
        /// The conv-layer shapes, in order.
        fn layer_shapes(&self) -> Vec<&ConvShape>;
    }

    impl LayerSource for [ConvShape] {
        fn layer_shapes(&self) -> Vec<&ConvShape> {
            self.iter().collect()
        }
    }

    impl LayerSource for Vec<ConvShape> {
        fn layer_shapes(&self) -> Vec<&ConvShape> {
            self.iter().collect()
        }
    }

    impl LayerSource for ConvShape {
        fn layer_shapes(&self) -> Vec<&ConvShape> {
            vec![self]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            budget_per_workload: 12,
            background_budget: 10_000,
            workers: 0, // tests drive the queue deterministically
            speculate_neighbors: false,
            ..ServiceConfig::default()
        }
    }

    // 1x1 layers keep algorithm candidates to `direct` only: fast tests.
    fn shapes() -> Vec<ConvShape> {
        vec![ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0), ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0)]
    }

    #[test]
    fn register_drain_then_hit() {
        let service = TuningService::new(ShardedStore::new(), small_config());
        let added = service.register_network(&shapes(), &device());
        assert_eq!(added, 2);
        assert_eq!(service.queue_len(), 2);
        service.drain();
        assert_eq!(service.queue_len(), 0);
        let stats = service.stats();
        assert_eq!(stats.background_tuned, 2);
        assert!(stats.fresh_measurements > 0);
        for shape in shapes() {
            let out = service.tune_or_wait(&shape, TileKind::Direct, &device()).unwrap();
            assert_eq!(out.source, ServeSource::ShardHit);
            assert_eq!(out.fresh_measurements, 0);
            assert!(out.cost_ms > 0.0);
        }
        assert_eq!(service.stats().shard_hits, 2);
        assert_eq!(
            service.stats().fresh_measurements,
            stats.fresh_measurements,
            "hits must not measure"
        );
    }

    #[test]
    fn drain_populates_queue_wait_and_drain_histograms() {
        let service = TuningService::new(ShardedStore::new(), small_config());
        service.register_network(&shapes(), &device());
        service.drain();
        let metrics = service.metrics();
        assert_eq!(
            metrics.histogram("iolb_queue_wait_us").unwrap().count(),
            2,
            "every drained job observes its queue wait"
        );
        assert_eq!(metrics.histogram("iolb_drain_registered_us").unwrap().count(), 2);
        assert!(
            metrics.histogram("iolb_drain_batch_us").is_none(),
            "no batch job ran, so no batch drain histogram exists"
        );
    }

    #[test]
    fn inline_tune_cancels_the_speculative_duplicate() {
        let service = TuningService::new(ShardedStore::new(), small_config());
        service.register_network(&shapes(), &device());
        let shape = shapes()[0];
        let out = service.tune_or_wait(&shape, TileKind::Direct, &device()).unwrap();
        assert_eq!(out.source, ServeSource::Inline { cancelled_speculative: true });
        assert!(out.fresh_measurements > 0);
        assert_eq!(service.stats().cancelled_speculative, 1);
        assert_eq!(service.queue_len(), 1, "only the other layer remains queued");
        // Serving the same workload again is a pure hit.
        let again = service.tune_or_wait(&shape, TileKind::Direct, &device()).unwrap();
        assert_eq!(again.source, ServeSource::ShardHit);
        assert_eq!(again.config, out.config);
        assert_eq!(again.cost_ms.to_bits(), out.cost_ms.to_bits());
    }

    #[test]
    fn anchored_misses_serve_from_the_bucket_with_zero_fresh_measurements() {
        // A generous gap bound: the in-bucket transfer is admissible.
        let config = ServiceConfig { transfer_gap_permille: 1_000_000, ..small_config() };
        let service = TuningService::new(ShardedStore::new(), config);
        let warm = ConvShape::new(32, 56, 56, 16, 1, 1, 1, 0);
        let warmed = service.tune_or_wait(&warm, TileKind::Direct, &device()).unwrap();
        let fresh_before = service.stats().fresh_measurements;
        // Same anchor bucket (52 and 56 both round to 64), no records.
        let jittered = ConvShape::new(32, 52, 52, 16, 1, 1, 1, 0);
        let out = service.tune_or_wait(&jittered, TileKind::Direct, &device()).unwrap();
        assert_eq!(out.source, ServeSource::Anchored { retune: false });
        assert_eq!(out.fresh_measurements, 0);
        assert_eq!(
            service.stats().fresh_measurements,
            fresh_before,
            "anchored serves never touch the tuner"
        );
        assert_eq!(
            out.config,
            warmed.config.project_onto(&jittered, TileKind::Direct),
            "the served config is the donor's, projected"
        );
        assert!(out.cost_ms > 0.0);
        let stats = service.stats();
        assert_eq!((stats.anchored_hits, stats.transfer_retunes), (1, 0));
        assert_eq!(service.queue_len(), 0, "an admissible transfer is final");
        assert_eq!(service.metrics().counter("iolb_anchor_hits_total"), Some(1));
        assert_eq!(service.metrics().counter("iolb_transfer_retunes_total"), None);
    }

    #[test]
    fn gate_failure_serves_provisionally_and_converges_to_the_exact_config() {
        // Gap bound 1.0 demands the provable optimum: the transfer is
        // served but flagged for a background re-tune.
        let config = ServiceConfig { transfer_gap_permille: 1000, ..small_config() };
        let service = TuningService::new(ShardedStore::new(), config);
        let warm = ConvShape::new(32, 56, 56, 16, 1, 1, 1, 0);
        service.tune_or_wait(&warm, TileKind::Direct, &device()).unwrap();
        let jittered = ConvShape::new(32, 52, 52, 16, 1, 1, 1, 0);
        let out = service.tune_or_wait(&jittered, TileKind::Direct, &device()).unwrap();
        assert_eq!(out.source, ServeSource::Anchored { retune: true });
        assert_eq!(out.fresh_measurements, 0);
        let stats = service.stats();
        assert_eq!((stats.anchored_hits, stats.transfer_retunes), (1, 1));
        assert_eq!(stats.transfer_enqueued, 1);
        assert_eq!(service.queue_len(), 1, "the re-tune waits at transfer tier");
        assert_eq!(service.metrics().counter("iolb_transfer_retunes_total"), Some(1));
        // Draining the transfer job converges the workload to the same
        // bits an eager tune of the jittered shape produces.
        service.drain();
        let again = service.tune_or_wait(&jittered, TileKind::Direct, &device()).unwrap();
        assert_eq!(again.source, ServeSource::ShardHit);
        let eager = TuningService::new(ShardedStore::new(), small_config())
            .tune_or_wait(&jittered, TileKind::Direct, &device())
            .unwrap();
        assert_eq!(again.config, eager.config, "re-tune must converge to the exact config");
        assert_eq!(again.cost_ms.to_bits(), eager.cost_ms.to_bits());
    }

    #[test]
    fn registration_dedupes_against_everything() {
        let service = TuningService::new(ShardedStore::new(), small_config());
        assert_eq!(service.register_network(&shapes(), &device()), 2);
        assert_eq!(service.register_network(&shapes(), &device()), 0, "queued dedupe");
        service.drain();
        assert_eq!(service.register_network(&shapes(), &device()), 0, "stored dedupe");
    }

    #[test]
    fn neighbors_enqueue_at_lower_priority() {
        let config = ServiceConfig { speculate_neighbors: true, ..small_config() };
        let service = TuningService::new(ShardedStore::new(), config);
        let shape = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
        let added = service.register_network(&shape, &device());
        // 1 layer + 4 channel perturbations, all direct-only.
        assert_eq!(added, 5);
        let stats = service.stats();
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.speculative_enqueued, 4);
        // The layer drains first; its neighbors follow by I/O gap alone,
        // fingerprint breaking ties.
        let mut expected: Vec<(u64, String)> = shape_perturbations(&shape)
            .into_iter()
            .map(|n| {
                let gap = crate::queue::io_gap(&n, TileKind::Direct, &device());
                let request = TuneRequest::bare(n, TileKind::Direct);
                (gap.to_bits(), request.workload(&device()).fingerprint())
            })
            .collect();
        expected.sort_by(|(ga, fa), (gb, fb)| gb.cmp(ga).then_with(|| fa.cmp(fb)));
        let mut st = service.lock();
        assert_eq!(st.queue.pop_first().map(|job| job.tier), Some(JobTier::Registered));
        let drained: Vec<String> =
            std::iter::from_fn(|| st.queue.pop_first()).map(|job| job.fingerprint()).collect();
        let expected: Vec<String> = expected.into_iter().map(|(_, fp)| fp).collect();
        assert_eq!(drained, expected, "neighbors drain in io_gap order");
    }

    #[test]
    fn budget_exhaustion_drops_the_queue_but_not_inline_requests() {
        let config = ServiceConfig { background_budget: 0, ..small_config() };
        let service = TuningService::new(ShardedStore::new(), config);
        service.register_network(&shapes(), &device());
        service.drain();
        let stats = service.stats();
        assert_eq!(stats.background_tuned, 0);
        assert_eq!(stats.budget_dropped, 2);
        // The user path still works.
        let out = service.tune_or_wait(&shapes()[0], TileKind::Direct, &device()).unwrap();
        assert!(matches!(out.source, ServeSource::Inline { .. }));
        assert!(out.fresh_measurements > 0);
    }

    #[test]
    fn infeasible_workloads_are_remembered_not_retried() {
        let service = TuningService::new(ShardedStore::new(), small_config());
        // A shape whose footprint can never fit: absurd kernel.
        let shape = ConvShape::new(1, 1, 1, 1, 1, 1, 1, 0);
        let device = DeviceSpec { smem_per_sm: 1, ..device() };
        let first = service.tune_or_wait(&shape, TileKind::Direct, &device);
        assert!(first.is_none());
        let measured = service.stats().fresh_measurements;
        let second = service.tune_or_wait(&shape, TileKind::Direct, &device);
        assert!(second.is_none());
        assert_eq!(service.stats().fresh_measurements, measured, "no retry measurement");
        assert_eq!(service.stats().infeasible, 1, "only the first attempt counts");
    }

    #[test]
    fn background_workers_race_safely_with_waiters() {
        // Real workers on the pool + a concurrent tune_or_wait caller:
        // whatever the interleaving, the result matches a drained run.
        let config = ServiceConfig { workers: 2, ..small_config() };
        let service = TuningService::new(ShardedStore::new(), config);
        service.register_network(&shapes(), &device());
        let shape = shapes()[0];
        let out = service.tune_or_wait(&shape, TileKind::Direct, &device()).unwrap();
        service.drain();
        let reference = TuningService::new(ShardedStore::new(), small_config());
        let expected = reference.tune_or_wait(&shape, TileKind::Direct, &device()).unwrap();
        assert_eq!(out.config, expected.config);
        assert_eq!(out.cost_ms.to_bits(), expected.cost_ms.to_bits());
    }

    #[test]
    fn a_panicking_tune_leaves_the_in_flight_set_and_resumes() {
        let service = TuningService::new(ShardedStore::new(), small_config());
        service.lock().in_flight.insert("claimed".to_string());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.guard_claimed(&["claimed"], || panic!("tuner failed"))
        }));
        assert!(unwound.is_err(), "the panic resumes past the guard");
        assert!(service.lock().in_flight.is_empty(), "a dead claim must not block waiters");
        // A run that returns leaves the claim for its caller to book.
        service.lock().in_flight.insert("claimed".to_string());
        assert_eq!(service.guard_claimed(&["claimed"], || 7), 7);
        assert!(service.lock().in_flight.contains("claimed"));
    }

    #[test]
    fn promoting_a_pending_neighbor_rebooks_it_at_batch_tier() {
        let config = ServiceConfig {
            speculate_neighbors: true,
            background_budget: 0, // nothing tunes in the background
            ..small_config()
        };
        let service = TuningService::new(ShardedStore::new(), config);
        let shape = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
        service.register_network(&shape, &device());
        assert_eq!(service.stats().speculative_enqueued, 4);
        // Request a neighbor while its speculative job is still queued:
        // the job is absorbed into the session (promotion), and its
        // enqueue is re-booked from the neighbor tier to the batch tier.
        let neighbor = ConvShape { cin: 64, ..shape };
        let out = service.tune_or_wait(&neighbor, TileKind::Direct, &device()).unwrap();
        assert_eq!(out.source, ServeSource::Inline { cancelled_speculative: true });
        let stats = service.stats();
        assert_eq!((stats.speculative_enqueued, stats.batch_enqueued), (3, 1));
        assert_eq!(stats.cancelled_speculative, 1);
    }

    #[test]
    fn snapshot_sidecar_round_trips_and_tolerates_noise() {
        let service = TuningService::new(ShardedStore::new(), small_config());
        service.register_network(&shapes(), &device());
        service.tune_or_wait(&shapes()[0], TileKind::Direct, &device()).unwrap();
        let snap = service.snapshot();
        assert_eq!(snap.queue_len, 1);
        let sidecar = persisted(&service.metrics());
        let mut text = format!("{SIDECAR_HEADER}\n");
        sidecar.encode_lines(&mut text);
        let parsed = parse_sidecar(&text).unwrap();
        assert_eq!(parsed, sidecar);
        assert_eq!(ServiceSnapshot::from_metrics(&parsed), snap);
        // Unknown keys and junk lines are skipped, not fatal.
        let noisy = format!("{text}{{\"unknown_key\":5}}\nnot a line\n");
        assert_eq!(parse_sidecar(&noisy).unwrap(), sidecar);
        // Foreign versions are ignored whole — the pre-registry TSV
        // dialect included.
        let foreign = text.replace("\"v\":2", "\"v\":999");
        assert!(parse_sidecar(&foreign).is_none());
        assert!(parse_sidecar("# iolb-service stats v1\nenqueued\t3\n").is_none());
    }

    #[test]
    fn save_writes_the_sidecar_and_open_restores_it() {
        let dir = std::env::temp_dir().join(format!(
            "iolb-service-sidecar-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig { speculate_neighbors: true, ..small_config() };
        let service = TuningService::new(ShardedStore::new(), config);
        service.register_network(&shapes(), &device());
        service.drain();
        // A request for a speculated neighbor, so the restored counters
        // are non-trivial.
        let neighbor = ConvShape { cin: 16, ..shapes()[0] };
        service.tune_or_wait(&neighbor, TileKind::Direct, &device()).unwrap();
        service.save(&dir).unwrap();
        let sidecar = ServiceSnapshot::load(&dir).unwrap().expect("sidecar written by save");
        assert_eq!(sidecar.stats, service.stats());
        assert_eq!(sidecar.queue_len, 0);
        assert_eq!(sidecar.budget_left, service.snapshot().budget_left);
        // Round trip: a reopened service continues the persisted history...
        let (reopened, report) = TuningService::open(&dir, config).unwrap();
        assert!(report.is_clean(), "warnings: {:?}", report.warnings);
        assert_eq!(reopened.stats(), service.stats(), "counters must survive the restart");
        assert!(reopened.stats().shard_hits > 0);
        // ...while the queue and budget start fresh (per-process state).
        assert_eq!(reopened.queue_len(), 0);
        assert_eq!(reopened.snapshot().budget_left, config.background_budget);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_dir_merges_counters_additively_across_writers() {
        let dir = std::env::temp_dir().join(format!(
            "iolb-service-syncstats-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Two independent "processes" (services) sync into one directory.
        let a = TuningService::new(ShardedStore::new(), small_config());
        a.register_network(&shapes()[0], &device());
        a.drain();
        a.sync_dir(&dir).unwrap();
        let b = TuningService::new(ShardedStore::new(), small_config());
        b.register_network(&shapes()[1], &device());
        b.drain();
        b.sync_dir(&dir).unwrap();
        // The sidecar holds the SUM of both writers' counters, not the
        // last writer's view.
        let snap = ServiceSnapshot::load(&dir).unwrap().expect("sidecar written");
        assert_eq!(
            snap.stats.fresh_measurements,
            a.stats().fresh_measurements + b.stats().fresh_measurements
        );
        assert_eq!(snap.stats.background_tuned, 2);
        // Re-syncing without new activity contributes nothing.
        a.sync_dir(&dir).unwrap();
        let again = ServiceSnapshot::load(&dir).unwrap().unwrap();
        assert_eq!(again.stats, snap.stats, "idempotent re-sync");
        // A service opened from the directory restores the merged view
        // and contributes only what it adds on top.
        let (reopened, _) = TuningService::open(&dir, small_config()).unwrap();
        assert_eq!(reopened.stats(), snap.stats);
        reopened.tune_or_wait(&shapes()[0], TileKind::Direct, &device()).unwrap();
        // A sync whose sidecar write fails (its temp file's path is
        // occupied by a directory) rolls the baseline back...
        let blocker = dir.join(format!("{STATS_FILE}.tmp.{}", std::process::id()));
        std::fs::create_dir(&blocker).unwrap();
        assert!(reopened.sync_dir(&dir).is_err(), "the sidecar write must fail");
        std::fs::remove_dir(&blocker).unwrap();
        // ...so the next sync re-contributes the delta, exactly once.
        reopened.sync_dir(&dir).unwrap();
        let after = ServiceSnapshot::load(&dir).unwrap().unwrap();
        assert_eq!(after.stats.shard_hits, snap.stats.shard_hits + 1);
        assert_eq!(after.stats.fresh_measurements, snap.stats.fresh_measurements);
        // A pre-registry sidecar left in the directory is ignored, not an
        // error.
        std::fs::write(dir.join("service-stats.tsv"), "# iolb-service stats v1\nenqueued\t3\n")
            .unwrap();
        let (again, report) = TuningService::open(&dir, small_config()).unwrap();
        assert!(report.is_clean(), "warnings: {:?}", report.warnings);
        assert_eq!(again.stats(), after.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
