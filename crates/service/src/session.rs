//! Batch tuning sessions: the network-level request path.
//!
//! A client serving a whole CNN does not want one round-trip per layer —
//! it wants to hand the service *all* its workloads and collect results
//! as they land. A session does exactly that:
//!
//! 1. [`submit`] **dedupes** the requests by workload fingerprint
//!    (repeated layer shapes — VGG's stacked 3×3 blocks — become one
//!    job with fan-out waiters), classifies each unique workload
//!    against the service (already stored → instant; already being
//!    tuned → steal when it lands), and enqueues the rest as one
//!    tracked **batch group**: [`JobTier::Batch`] members outrank every
//!    speculative neighbor in the queue, survive budget exhaustion, and
//!    are never billed to the background budget (they are user work).
//! 2. [`wait`] **collects**: it claims whatever of its jobs are still
//!    queued and tunes them on the calling thread as one batch
//!    ([`iolb_autotune::engine::tune_batch`] — the canonical hermetic
//!    per-workload runs, fanned across the pool), steals results that
//!    background workers produce meanwhile, and returns one result per
//!    original request, in order.
//!
//! Because every run is hermetic (see [`crate::service`] module docs),
//! a batch-tuned config is bit-identical to an eager
//! [`iolb_autotune::engine::tune_with_store`] run of the same workload —
//! batching changes *how much* work happens (duplicates are free,
//! setup is shared, no speculation rides along), never *what* any
//! workload's result is.
//!
//! The session path is **transport-abstracted** through the [`Backend`]
//! trait (submit/wait/sync/stats): the in-process [`TuningService`]
//! implements it directly, and [`crate::daemon::SocketBackend`]
//! implements it over the daemon's Unix-socket wire protocol — so every
//! consumer (notably `iolb_cnn::time_network_with_backend`) runs
//! identically embedded or client/server.
//!
//! [`submit`]: TuningService::submit
//! [`wait`]: SessionHandle::wait

use crate::queue::{io_gap, transfer_admissible, Job, JobTier, PushOutcome};
use crate::service::{
    kind_counter, ServeResult, ServeSource, ServiceSnapshot, State, TuningService, COUNTER,
    KIND_COUNTER,
};
use crate::telemetry::MetricsSnapshot;
use iolb_autotune::engine::tune_batch;
use iolb_autotune::fusion::fusion_gate;
use iolb_autotune::measure::Measurer;
use iolb_autotune::plan::dedup_requests;
pub use iolb_autotune::plan::TuneRequest;
use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;
use iolb_records::Workload;
use std::sync::MutexGuard;

/// How a unique session member got (or will get) its records.
#[derive(Debug, Clone, Copy)]
enum Resolution {
    /// The shard already held records at submit time: zero work.
    Hit,
    /// Someone else (a background worker, another session) tuned it
    /// while this session waited.
    Stolen,
    /// This session tuned it on the waiting thread.
    Inline { fresh_measurements: usize, cache_hits: usize },
    /// An anchor-bucket neighbor donated its config at submit time.
    /// `cost_ms` is the donor config re-costed on *this* shape by one
    /// deterministic simulator evaluation (never a fresh measurement);
    /// `retune` records that the analytic gate failed, so the serve is
    /// provisional and a [`JobTier::Transfer`] re-tune was enqueued.
    Anchored { config: iolb_dataflow::config::ScheduleConfig, cost_ms: f64, retune: bool },
    /// No measurable configuration exists.
    Infeasible,
}

/// A donor candidate pulled from the anchor index under the phase-1
/// lock, evaluated (gate + re-cost) outside the lock.
struct AnchorEval {
    config: iolb_dataflow::config::ScheduleConfig,
    cost_ms: f64,
    admissible: bool,
}

/// One unique workload within a session.
struct Member {
    shape: ConvShape,
    kind: TileKind,
    /// Gate-approved epilogue ([`Epilogue::None`] for bare convs and for
    /// fused requests the gate rewrote to their per-layer fallback).
    epilogue: Epilogue,
    workload: Workload,
    fingerprint: String,
    resolution: Option<Resolution>,
    /// A pending background job for this workload was absorbed into the
    /// session at submit (the "cancelled speculative duplicate").
    cancelled_speculative: bool,
}

/// A submitted batch: results are collected with [`wait`](Self::wait).
///
/// Dropping a handle without waiting is safe: its queued jobs stay in
/// the queue at batch priority and are picked up by background workers,
/// [`TuningService::drain`], or any later session that needs the same
/// workloads.
pub struct SessionHandle {
    service: TuningService,
    device: DeviceSpec,
    group: u64,
    members: Vec<Member>,
    /// Per original request: (member index, whether this request is the
    /// member's first occurrence — duplicates report as shard hits).
    requests: Vec<(usize, bool)>,
    /// When the session was submitted; drives the session-latency
    /// histogram at collect time. Observational only.
    started: std::time::Instant,
}

impl TuningService {
    /// Dedupes and submits a batch of requests on a device as one
    /// tracked group. Returns immediately; background workers are kicked
    /// so the batch tunes concurrently with whatever the caller does
    /// before [`SessionHandle::wait`].
    ///
    /// Fused requests pass the server-side analytic [`fusion_gate`]
    /// first; a chain the gate rejects is **rewritten to its bare-conv
    /// request** before dedup, so it shares records (and measurements)
    /// with every unfused request for the same layer — the fallback
    /// costs zero extra fresh measurements.
    pub fn submit(&self, requests: &[TuneRequest], device: &DeviceSpec) -> SessionHandle {
        // The gate runs server-side, so embedded and daemon clients get
        // identical decisions. Unique chains are counted per fused
        // fingerprint (a VGG block repeated five times is one fused
        // block, not five).
        let mut fused_chains = std::collections::BTreeSet::new();
        let mut fallback_chains = std::collections::BTreeSet::new();
        let gated = requests.iter().map(|r| {
            if r.epilogue.is_none() {
                return *r;
            }
            let decision = fusion_gate(&r.shape, r.kind, r.epilogue, device);
            let fingerprint = r.workload(device).fingerprint();
            match decision.reason() {
                None => {
                    fused_chains.insert(fingerprint);
                    *r
                }
                Some(reason) => {
                    if fallback_chains.insert(fingerprint.clone()) {
                        crate::log_event!(
                            Debug,
                            "fusion.fallback",
                            fingerprint = fingerprint,
                            reason = reason,
                        );
                    }
                    TuneRequest::bare(r.shape, r.kind)
                }
            }
        });
        // Dedup by workload fingerprint, preserving first-seen order —
        // the same network-level planning step the engine's tune_batch
        // uses, so the two layers can never disagree on what counts as
        // a duplicate.
        let (unique, representative) = dedup_requests(gated, device);
        let mut members: Vec<Member> = unique
            .iter()
            .map(|req| {
                let workload = req.workload(device);
                Member {
                    shape: req.shape,
                    kind: req.kind,
                    epilogue: req.epilogue,
                    fingerprint: workload.fingerprint(),
                    workload,
                    resolution: None,
                    cancelled_speculative: false,
                }
            })
            .collect();
        let mut seen = vec![false; members.len()];
        let request_map: Vec<(usize, bool)> = representative
            .into_iter()
            .map(|at| {
                let first = !seen[at];
                seen[at] = true;
                (at, first)
            })
            .collect();
        // Book the group and snapshot what the service already knows, so
        // the expensive io_gap priorities are only computed for members
        // that actually need a queue job — and outside the lock. The
        // same snapshot pulls each fresh miss's best anchor-bucket donor
        // (config + donor shape), so the transfer gate and the donor
        // re-cost also run outside the lock.
        let (group, needs_gap, donors) = {
            let mut st = self.lock();
            st.telemetry.incr(COUNTER.batch_groups, 1);
            st.telemetry.incr(COUNTER.batch_requests, requests.len() as u64);
            st.telemetry.incr(COUNTER.batch_deduped, (requests.len() - members.len()) as u64);
            st.telemetry.incr(COUNTER.fused_blocks, fused_chains.len() as u64);
            st.telemetry.incr(COUNTER.fusion_fallbacks, fallback_chains.len() as u64);
            let group = st.next_group;
            st.next_group += 1;
            // A fingerprint that is merely *queued* (a pending transfer
            // re-tune, or another session's batch job) still serves
            // anchored — only a settled record, a known-infeasible
            // verdict, or an in-flight tuning pre-empts the bucket.
            let wants_donor: Vec<bool> = members
                .iter()
                .map(|m| {
                    st.shards.records(&m.workload).is_empty()
                        && !st.infeasible.contains(&m.fingerprint)
                        && !st.in_flight.contains(&m.fingerprint)
                })
                .collect();
            let needs_gap: Vec<bool> = members
                .iter()
                .zip(&wants_donor)
                .map(|(m, &wanted)| wanted && !st.queue.contains(&m.fingerprint))
                .collect();
            let donors: Vec<Option<(iolb_dataflow::config::ScheduleConfig, ConvShape)>> = members
                .iter()
                .zip(&wants_donor)
                .map(|(m, &wanted)| {
                    if !wanted {
                        return None;
                    }
                    st.shards.anchor_donor(&m.workload).map(|rec| (rec.config, rec.workload.shape))
                })
                .collect();
            (group, needs_gap, donors)
        };
        let gaps: Vec<Option<f64>> = members
            .iter()
            .zip(&needs_gap)
            .map(|(m, &needed)| needed.then(|| io_gap(&m.shape, m.kind, device)))
            .collect();
        // Evaluate each donor outside the lock: project the donated
        // config onto the target's divisor lattice, then run the
        // analytic admission gate plus one deterministic simulator
        // re-cost on the *target* shape. An unevaluable donor (the
        // projection fails to validate) falls through to the normal
        // miss path.
        let gap_bound = self.config().transfer_gap_bound();
        let anchor_evals: Vec<Option<AnchorEval>> = members
            .iter()
            .zip(&donors)
            .map(|(m, donor)| {
                let (cfg, donor_shape) = donor.as_ref()?;
                let cfg = cfg.project_onto(&m.shape, m.kind);
                if let Epilogue::ReluPool { k } = m.epilogue {
                    // The donor's tile was on the pool grid for *its*
                    // shape; projection can move it off the target's.
                    // An off-grid tile cannot execute fused — fall
                    // through to the normal miss path.
                    if !cfg.x.is_multiple_of(k) || !cfg.y.is_multiple_of(k) {
                        return None;
                    }
                }
                let cost_ms = Measurer::new(device.clone(), m.shape, m.kind)
                    .with_epilogue(m.epilogue)
                    .measure_ms(&cfg)?;
                let admissible =
                    transfer_admissible(&m.shape, donor_shape, m.kind, device, &cfg, gap_bound);
                Some(AnchorEval { config: cfg, cost_ms, admissible })
            })
            .collect();
        // Authoritative classification + enqueue, under one lock.
        let mut pushed = false;
        {
            let mut st = self.lock();
            for ((member, gap), anchor) in members.iter_mut().zip(gaps).zip(anchor_evals) {
                if !st.shards.records(&member.workload).is_empty() {
                    member.resolution = Some(Resolution::Hit);
                    confirm_speculation(&mut st, &member.fingerprint);
                    continue;
                }
                if st.infeasible.contains(&member.fingerprint) {
                    member.resolution = Some(Resolution::Infeasible);
                    continue;
                }
                if st.in_flight.contains(&member.fingerprint) {
                    continue; // steal when it lands
                }
                if let Some(eval) = anchor {
                    // Anchored serve: the bucket mate's config answers
                    // this request with zero fresh measurements. An
                    // admissible transfer is final; a gate failure is
                    // served provisionally and re-tuned in the
                    // background at transfer tier.
                    member.resolution = Some(Resolution::Anchored {
                        config: eval.config,
                        cost_ms: eval.cost_ms,
                        retune: !eval.admissible,
                    });
                    if !eval.admissible {
                        let gap = gap.unwrap_or_else(|| io_gap(&member.shape, member.kind, device));
                        let job = Job {
                            shape: member.shape,
                            kind: member.kind,
                            epilogue: member.epilogue,
                            device: device.clone(),
                            tier: JobTier::Transfer,
                            perturbation: None,
                            enqueued_at: None,
                        };
                        match st.queue.push(job, gap) {
                            PushOutcome::Added => {
                                st.telemetry.incr(COUNTER.transfer_enqueued, 1);
                                pushed = true;
                            }
                            PushOutcome::Promoted { from, perturbation } => {
                                st.rebook_promotion(from, JobTier::Transfer, perturbation);
                            }
                            PushOutcome::AlreadyPending => {}
                        }
                    }
                    continue;
                }
                // Pending (ours or anyone's) or brand new: push at batch
                // tier. The gap was precomputed unless the snapshot saw
                // the workload pending/settled; the rare race re-computes
                // under the lock (correctness over elegance).
                let gap = gap.unwrap_or_else(|| io_gap(&member.shape, member.kind, device));
                let job = Job {
                    shape: member.shape,
                    kind: member.kind,
                    epilogue: member.epilogue,
                    device: device.clone(),
                    tier: JobTier::Batch { group },
                    perturbation: None,
                    enqueued_at: None,
                };
                match st.queue.push(job, gap) {
                    PushOutcome::Added => {
                        st.telemetry.incr(COUNTER.batch_enqueued, 1);
                        pushed = true;
                    }
                    PushOutcome::Promoted { from, perturbation } => {
                        // A pending background duplicate was absorbed
                        // into this session — the batch-path "cancel the
                        // speculative duplicate".
                        st.rebook_promotion(from, JobTier::Batch { group }, perturbation);
                        st.telemetry.incr(COUNTER.cancelled_speculative, 1);
                        member.cancelled_speculative = true;
                    }
                    PushOutcome::AlreadyPending => {
                        // An earlier session already owns this workload
                        // at batch tier; we steal its landing.
                    }
                }
            }
        }
        if pushed {
            self.inner.changed.notify_all();
        }
        self.kick();
        crate::log_event!(
            Info,
            "session.submit",
            group = group,
            requests = request_map.len(),
            unique = members.len(),
        );
        SessionHandle {
            service: self.clone(),
            device: device.clone(),
            group,
            members,
            requests: request_map,
            started: std::time::Instant::now(),
        }
    }
}

/// How a [`Backend`] request can fail. The in-process backend never
/// fails; the socket backend surfaces transport, protocol and
/// daemon-reported errors separately so callers can tell "the socket
/// died" from "the daemon refused".
#[derive(Debug)]
pub enum BackendError {
    /// The transport failed (socket I/O).
    Transport(std::io::Error),
    /// The peer spoke the protocol wrong (truncated/oversized frame,
    /// foreign version, malformed message).
    Protocol(String),
    /// The daemon processed the request and reported an error.
    Remote(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Transport(e) => write!(f, "backend transport failed: {e}"),
            BackendError::Protocol(m) => write!(f, "backend protocol error: {m}"),
            BackendError::Remote(m) => write!(f, "daemon error: {m}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

/// What a [`Backend::sync`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Whether the backend had durable storage to flush (the daemon
    /// persists its shard directory; a plain in-process service has no
    /// directory attached at the trait level and reports `false` —
    /// embedded callers persist explicitly via
    /// [`TuningService::sync_dir`]).
    pub persisted: bool,
    /// Total records the backend holds after the sync.
    pub total: usize,
}

/// What [`Backend::stats`] reports: the backend's metrics registry
/// (counters, gauges, latency histograms) and the typed
/// [`ServiceSnapshot`] view read out of it. For a fleet the registry is
/// the order-free merge across live peers (counters and gauges add
/// saturating; histograms merge bucket-wise).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    pub snapshot: ServiceSnapshot,
    pub metrics: MetricsSnapshot,
}

impl StatsReport {
    /// The report over one registry snapshot — the only way one is built,
    /// so the view can never disagree with the metrics beside it.
    pub fn from_metrics(metrics: MetricsSnapshot) -> Self {
        Self { snapshot: ServiceSnapshot::from_metrics(&metrics), metrics }
    }
}

/// Transport-independent face of the tuning service: everything the
/// request path needs. Implemented by the in-process [`TuningService`]
/// and by [`crate::daemon::SocketBackend`] (the daemon client), so the
/// same calling code serves from an embedded service or over a socket.
pub trait Backend {
    /// The in-flight batch handle this backend hands out.
    type Session: BackendSession;

    /// Submits a batch of requests on a device as one deduplicated
    /// session (see [`TuningService::submit`] for the semantics every
    /// backend must preserve).
    fn submit_batch(
        &self,
        requests: &[TuneRequest],
        device: &DeviceSpec,
    ) -> Result<Self::Session, BackendError>;

    /// Asks the backend to flush whatever durable state it owns.
    fn sync(&self) -> Result<SyncOutcome, BackendError>;

    /// A consistent snapshot of the backend's counters, live state and
    /// metrics registry.
    fn stats(&self) -> Result<StatsReport, BackendError>;

    /// Serves one workload — the one-element session.
    fn tune_or_wait_via(
        &self,
        shape: &ConvShape,
        kind: TileKind,
        device: &DeviceSpec,
    ) -> Result<Option<ServeResult>, BackendError> {
        let session = self.submit_batch(&[TuneRequest::bare(*shape, kind)], device)?;
        Ok(session.wait()?.pop().expect("one result per request"))
    }
}

/// A submitted batch on some [`Backend`]: query its shape, then block
/// for the results.
pub trait BackendSession {
    /// Original requests in the session.
    fn request_count(&self) -> usize;

    /// Unique workloads after fingerprint dedup.
    fn unique_workloads(&self) -> usize;

    /// Blocks until every member resolves; one result per original
    /// request, in request order (`None` = infeasible workload).
    fn wait(self) -> Result<Vec<Option<ServeResult>>, BackendError>;
}

impl Backend for TuningService {
    type Session = SessionHandle;

    fn submit_batch(
        &self,
        requests: &[TuneRequest],
        device: &DeviceSpec,
    ) -> Result<SessionHandle, BackendError> {
        Ok(self.submit(requests, device))
    }

    fn sync(&self) -> Result<SyncOutcome, BackendError> {
        Ok(SyncOutcome { persisted: false, total: self.lock().shards.len() })
    }

    fn stats(&self) -> Result<StatsReport, BackendError> {
        Ok(StatsReport::from_metrics(self.metrics()))
    }
}

impl BackendSession for SessionHandle {
    fn request_count(&self) -> usize {
        SessionHandle::request_count(self)
    }

    fn unique_workloads(&self) -> usize {
        SessionHandle::unique_workloads(self)
    }

    fn wait(self) -> Result<Vec<Option<ServeResult>>, BackendError> {
        Ok(SessionHandle::wait(self))
    }
}

/// A client request confirmed a speculated workload: count the hit once.
fn confirm_speculation(st: &mut State, fingerprint: &str) {
    if let Some(kind) = st.speculative_origin.remove(fingerprint) {
        st.telemetry.incr(&kind_counter(KIND_COUNTER.hits, kind), 1);
    }
}

impl SessionHandle {
    /// The session's batch-group id.
    pub fn group(&self) -> u64 {
        self.group
    }

    /// Unique workloads in this session (after dedup).
    pub fn unique_workloads(&self) -> usize {
        self.members.len()
    }

    /// Original requests in this session.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Blocks until every member workload is resolved, helping with the
    /// session's own queued jobs on the calling thread (so a session
    /// completes even with zero workers on a single-core host), then
    /// returns one result per original request, in request order.
    /// Duplicate requests share their representative's records and
    /// report as shard hits; infeasible workloads yield `None`.
    pub fn wait(mut self) -> Vec<Option<ServeResult>> {
        'progress: loop {
            // Claim every job of ours still in the queue (whatever tier
            // or group staged it — promotion makes this almost always
            // batch tier) and tune the whole set as one hermetic batch.
            let claimed: Vec<(usize, Job)> = {
                let mut st = self.service.lock();
                let mut claimed = Vec::new();
                for (at, member) in self.members.iter().enumerate() {
                    if member.resolution.is_none() && !st.in_flight.contains(&member.fingerprint) {
                        if let Some(job) = st.queue.take(&member.fingerprint) {
                            // Absorbing a background-tier duplicate is
                            // the session-path "cancel the speculative
                            // duplicate".
                            st.in_flight.insert(member.fingerprint.clone());
                            claimed.push((at, job));
                        }
                    }
                }
                claimed
            };
            if !claimed.is_empty() {
                self.run_claimed(claimed);
                continue 'progress;
            }
            let mut st = self.service.lock();
            loop {
                let mut lost = false;
                let mut all_resolved = true;
                for member in &mut self.members {
                    if member.resolution.is_some() {
                        continue;
                    }
                    if !st.shards.records(&member.workload).is_empty() {
                        member.resolution = Some(Resolution::Stolen);
                        confirm_speculation(&mut st, &member.fingerprint);
                        continue;
                    }
                    if st.infeasible.contains(&member.fingerprint) {
                        member.resolution = Some(Resolution::Infeasible);
                        continue;
                    }
                    all_resolved = false;
                    if st.queue.contains(&member.fingerprint) {
                        // Claimable: go around the claim loop again.
                        drop(st);
                        continue 'progress;
                    }
                    if !st.in_flight.contains(&member.fingerprint) {
                        // Neither stored, queued, nor in flight: the job
                        // was lost (a panicked worker). Re-arm it.
                        let gap = 1.0; // re-arm priority is irrelevant: we claim it ourselves next
                        let job = Job {
                            shape: member.shape,
                            kind: member.kind,
                            epilogue: member.epilogue,
                            device: self.device.clone(),
                            tier: JobTier::Batch { group: self.group },
                            perturbation: None,
                            enqueued_at: None,
                        };
                        if let PushOutcome::Added = st.queue.push(job, gap) {
                            lost = true;
                        }
                    }
                }
                if all_resolved {
                    return self.collect(st);
                }
                if lost {
                    drop(st);
                    continue 'progress;
                }
                // Everything outstanding is in flight elsewhere: wait
                // for a landing, then re-check.
                st = self.service.inner.changed.wait(st).expect("service state poisoned");
            }
        }
    }

    /// Tunes the claimed jobs as one batch on this thread, with the
    /// same panic hygiene as the background path: on unwind the claimed
    /// fingerprints leave the in-flight set and waiters are woken before
    /// the panic resumes.
    fn run_claimed(&mut self, claimed: Vec<(usize, Job)>) {
        let config = self.service.config();
        let requests: Vec<TuneRequest> = claimed
            .iter()
            .map(|(_, job)| TuneRequest::fused(job.shape, job.kind, job.epilogue))
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tune_batch(&requests, &self.device, config.budget_per_workload, config.seed)
        }));
        let mut st = self.service.lock();
        for (at, _) in &claimed {
            st.in_flight.remove(&self.members[*at].fingerprint);
        }
        let batch = match outcome {
            Ok(batch) => batch,
            Err(payload) => {
                drop(st);
                self.service.inner.changed.notify_all();
                std::panic::resume_unwind(payload);
            }
        };
        st.shards.merge_flat(batch.store);
        for ((at, _), result) in claimed.iter().zip(batch.results) {
            let member = &mut self.members[*at];
            match result {
                Some(out) => {
                    st.telemetry.incr(COUNTER.inline_tuned, 1);
                    st.telemetry.incr(COUNTER.fresh_measurements, out.fresh_measurements as u64);
                    st.telemetry.incr(COUNTER.cache_hits, out.cache_hits as u64);
                    member.resolution = Some(Resolution::Inline {
                        fresh_measurements: out.fresh_measurements,
                        cache_hits: out.cache_hits,
                    });
                }
                None => {
                    st.telemetry.incr(COUNTER.infeasible, 1);
                    st.infeasible.insert(member.fingerprint.clone());
                    member.resolution = Some(Resolution::Infeasible);
                }
            }
        }
        drop(st);
        self.service.inner.changed.notify_all();
    }

    /// Builds the per-request results under the final lock.
    fn collect(&self, mut st: MutexGuard<'_, State>) -> Vec<Option<ServeResult>> {
        // Tallied per request, bumped once per counter at the end: the
        // hit path takes the registry lock a fixed number of times per
        // session, however many layers the network has.
        let (mut shard_hits, mut stolen, mut anchored_hits, mut transfer_retunes) = (0, 0, 0, 0);
        let mut out = Vec::with_capacity(self.requests.len());
        for &(at, first) in &self.requests {
            let member = &self.members[at];
            let resolution = member.resolution.expect("collect after full resolution");
            if matches!(resolution, Resolution::Infeasible) {
                out.push(None);
                continue;
            }
            if let Resolution::Anchored { config, cost_ms, retune } = resolution {
                // Anchored members (and their fan-out duplicates) replay
                // the transferred config; the store holds no record for
                // this exact fingerprint, so there is nothing to touch.
                anchored_hits += 1;
                transfer_retunes += u64::from(retune);
                crate::log_event!(
                    Debug,
                    "session.result",
                    group = self.group,
                    fingerprint = member.fingerprint,
                    source = "anchor",
                    fresh = 0usize,
                );
                out.push(Some(ServeResult {
                    config,
                    cost_ms,
                    source: ServeSource::Anchored { retune },
                    fresh_measurements: 0,
                    cache_hits: 0,
                    fused: !member.epilogue.is_none(),
                }));
                continue;
            }
            st.shards.touch(&member.fingerprint);
            let best =
                st.shards.best(&member.workload).expect("resolved member has records").clone();
            let (source, fresh_measurements, cache_hits) = if !first {
                // Fan-out duplicate: replays its representative's record.
                shard_hits += 1;
                (ServeSource::ShardHit, 0, 0)
            } else {
                match resolution {
                    Resolution::Hit => {
                        shard_hits += 1;
                        (ServeSource::ShardHit, 0, 0)
                    }
                    Resolution::Stolen => {
                        stolen += 1;
                        (ServeSource::Stolen, 0, 0)
                    }
                    Resolution::Inline { fresh_measurements, cache_hits } => (
                        // inline_tuned was counted when the tune ran.
                        ServeSource::Inline { cancelled_speculative: member.cancelled_speculative },
                        fresh_measurements,
                        cache_hits,
                    ),
                    Resolution::Infeasible => unreachable!("handled above"),
                    Resolution::Anchored { .. } => unreachable!("handled above"),
                }
            };
            let source_label = match source {
                ServeSource::ShardHit => "hit",
                ServeSource::Stolen => "stolen",
                ServeSource::Inline { .. } => "inline",
                ServeSource::Anchored { .. } => "anchor",
            };
            crate::log_event!(
                Debug,
                "session.result",
                group = self.group,
                fingerprint = member.fingerprint,
                source = source_label,
                fresh = fresh_measurements,
            );
            out.push(Some(ServeResult {
                config: best.config,
                cost_ms: best.cost_ms,
                source,
                fresh_measurements,
                cache_hits,
                fused: !member.epilogue.is_none(),
            }));
        }
        let telemetry = &st.telemetry;
        telemetry.observe_since("iolb_session_us", self.started);
        telemetry.incr(COUNTER.networks_served, 1);
        telemetry.incr(COUNTER.shard_hits, shard_hits);
        telemetry.incr(COUNTER.stolen, stolen);
        telemetry.incr(COUNTER.anchored_hits, anchored_hits);
        telemetry.incr(COUNTER.transfer_retunes, transfer_retunes);
        out
    }
}
