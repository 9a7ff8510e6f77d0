//! The tiered work queue: what to tune next, and why.
//!
//! The service fills its stores *before* workloads are requested, so it
//! has to decide which pending workload deserves measurement budget
//! first. Four tiers exist, in strictly descending priority:
//!
//! 1. **Batch** — members of a client batch session ([`crate::session`]):
//!    a caller is blocked on these *right now*, so they outrank all
//!    background work. Each batch job carries its session's group id so
//!    completion can be counted per group.
//! 2. **Transfer** — re-tunes behind provisionally-served anchored
//!    transfers: a client already *received* a config for these, so
//!    nobody blocks, but the served answer is only analytically bounded
//!    — closing that gap outranks speculative fill.
//! 3. **Registered** — layers of a registered network: background fill
//!    ahead of demand.
//! 4. **Neighbor** — shape-perturbation speculation about networks
//!    nobody has asked for yet.
//!
//! Within a tier the paper's thesis supplies the ranking: a workload
//! whose analytic dataflow I/O (the Eq. 20/22 cost model evaluated at
//! the no-search [`fast_config`] schedule) sits far above its I/O lower
//! bound has the most to gain from search, so its **I/O-bound gap**
//! `Q_model / Q_lower` is its priority, on every tier alike. Ties break
//! on the workload fingerprint, keeping the drain order — and therefore
//! the budget cutoff — fully deterministic.
//!
//! A workload pending at a weaker tier is *promoted* when re-pushed at a
//! stronger one (neighbor → registered when a speculated shape turns out
//! to be a real layer; anything → batch when a client asks for it), and
//! never demoted.
//!
//! [`fast_config`]: iolb_autotune::plan::fast_config

use iolb_autotune::plan::fast_config;
use iolb_core::epilogue::Epilogue;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_gpusim::DeviceSpec;
use iolb_records::Workload;
use std::collections::BTreeMap;

/// Priority tier of a pending job. Ordering is priority: batch members
/// (a client is waiting) before transfer re-tunes (a client holds a
/// provisional answer) before registered layers (background fill)
/// before speculative neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobTier {
    /// Member of a client batch session; `group` identifies the session
    /// so completion is countable per group.
    Batch { group: u64 },
    /// Background re-tune behind a provisionally-served anchored
    /// transfer: the client already has a (bounded but unproven) answer,
    /// so nothing blocks on this — but it outranks plain background fill.
    Transfer,
    /// Layer of a registered network.
    Registered,
    /// Shape-perturbation neighbor.
    Neighbor,
}

impl JobTier {
    /// Smaller drains first. Batch jobs share one rank regardless of
    /// group: which session submitted first must not starve another.
    pub(crate) fn rank(self) -> u8 {
        match self {
            Self::Batch { .. } => 0,
            Self::Transfer => 1,
            Self::Registered => 2,
            Self::Neighbor => 3,
        }
    }

    /// Whether budget exhaustion may drop this job. Batch jobs are user
    /// work — a session is blocked on them — so they are never dropped
    /// and never billed to the speculative budget.
    pub(crate) fn droppable(self) -> bool {
        !matches!(self, Self::Batch { .. })
    }

    /// Stable tag for telemetry (the per-tier drain-latency histograms).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Self::Batch { .. } => "batch",
            Self::Transfer => "transfer",
            Self::Registered => "registered",
            Self::Neighbor => "neighbor",
        }
    }
}

/// One pending tuning task.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub shape: ConvShape,
    pub kind: TileKind,
    /// Fused epilogue of the chain ([`Epilogue::None`] for bare convs —
    /// all background registration and speculation; only session batch
    /// and transfer jobs ever carry a chain).
    pub epilogue: Epilogue,
    pub device: DeviceSpec,
    pub tier: JobTier,
    /// When the job entered the queue — stamped by [`WorkQueue::push`]
    /// (and preserved across tier promotion), read by the claim paths
    /// for the queue-wait histogram. Observational only: never part of
    /// the drain order or the tuning trajectory.
    pub enqueued_at: Option<std::time::Instant>,
}

impl Job {
    /// The record-store identity of this job.
    pub(crate) fn workload(&self) -> Workload {
        Workload::new(self.shape, self.kind, self.device.name, self.device.smem_per_sm)
            .with_epilogue(self.epilogue)
    }

    pub(crate) fn fingerprint(&self) -> String {
        self.workload().fingerprint()
    }
}

/// The predicted I/O-bound gap of a workload: analytic dataflow I/O of
/// the no-search schedule over the I/O lower bound at that schedule's
/// stage-buffer size (both in elements). Always `>= 1` for feasible
/// workloads; infeasible ones (no valid fast config) rank last at 1.
pub fn io_gap(shape: &ConvShape, kind: TileKind, device: &DeviceSpec) -> f64 {
    let Some(cfg) = fast_config(shape, kind, device) else {
        return 1.0;
    };
    let s = cfg.sb_elems();
    let (q_model, q_lower) = match kind {
        TileKind::Direct => (
            iolb_dataflow::direct::analytic_io_elems(shape, &cfg),
            iolb_core::direct::io_lower_bound(shape, s),
        ),
        TileKind::Winograd(t) => (
            iolb_dataflow::winograd::analytic_io_elems(shape, t, &cfg),
            iolb_core::winograd::io_lower_bound(shape, t, s),
        ),
    };
    let gap = q_model / q_lower.max(1.0);
    if gap.is_finite() {
        gap.max(1.0)
    } else {
        1.0
    }
}

/// The I/O-bound gap of a *given* configuration on a shape: its analytic
/// dataflow I/O over the shape's I/O lower bound at the configuration's
/// stage-buffer size. `None` when the configuration does not validate on
/// the shape — a transferred config that cannot even launch has no gap.
pub(crate) fn config_io_gap(
    shape: &ConvShape,
    kind: TileKind,
    device: &DeviceSpec,
    cfg: &iolb_dataflow::config::ScheduleConfig,
) -> Option<f64> {
    cfg.validate(shape, kind, device.smem_per_sm, false).ok()?;
    let s = cfg.sb_elems();
    let (q_model, q_lower) = match kind {
        TileKind::Direct => (
            iolb_dataflow::direct::analytic_io_elems(shape, cfg),
            iolb_core::direct::io_lower_bound(shape, s),
        ),
        TileKind::Winograd(t) => (
            iolb_dataflow::winograd::analytic_io_elems(shape, t, cfg),
            iolb_core::winograd::io_lower_bound(shape, t, s),
        ),
    };
    let gap = q_model / q_lower.max(1.0);
    gap.is_finite().then(|| gap.max(1.0))
}

/// The anchored-transfer gate: whether serving `cfg` (tuned for `donor`)
/// to `target` is provably within `gap_bound` of the analytic optimum.
/// Three conditions, all under the one bound:
///
/// 1. `cfg` validates on the target shape;
/// 2. the target's I/O-bound gap *at `cfg`* is at most `gap_bound`
///    times the gap of the target's own analytic reference schedule
///    ([`io_gap`]) — the transferred schedule moves no more data,
///    relative to the target's I/O lower bound, than `gap_bound` times
///    what the target could provably reach without tuning. The ratio of
///    the two gaps cancels the lower-bound scale, so the condition stays
///    meaningful even for layers whose absolute `Q_lower` is degenerate
///    (1x1 convolutions at large `S_b` bound to zero);
/// 3. the two shapes' I/O lower bounds (at `cfg`'s stage-buffer size)
///    are within `gap_bound` of each other — bucket-mates whose
///    analytic difficulty genuinely differs never merge.
pub fn transfer_admissible(
    target: &ConvShape,
    donor: &ConvShape,
    kind: TileKind,
    device: &DeviceSpec,
    cfg: &iolb_dataflow::config::ScheduleConfig,
    gap_bound: f64,
) -> bool {
    let Some(gap) = config_io_gap(target, kind, device, cfg) else {
        return false;
    };
    if gap > gap_bound * io_gap(target, kind, device) {
        return false;
    }
    let s = cfg.sb_elems();
    let lower = |shape: &ConvShape| {
        let q = match kind {
            TileKind::Direct => iolb_core::direct::io_lower_bound(shape, s),
            TileKind::Winograd(t) => iolb_core::winograd::io_lower_bound(shape, t, s),
        };
        q.max(1.0)
    };
    let (a, b) = (lower(target), lower(donor));
    let ratio = if a > b { a / b } else { b / a };
    ratio.is_finite() && ratio <= gap_bound
}

/// Speculative neighbors of a layer shape: the channel-halved/-doubled
/// variants (the axes along which CNN families actually vary between
/// versions — VGG-16 vs VGG-19, ResNet widths). Spatial extents and
/// kernel geometry stay fixed: those perturbations change the algorithm
/// candidates themselves and transfer poorly.
pub(crate) fn shape_perturbations(shape: &ConvShape) -> Vec<ConvShape> {
    let mut out: Vec<ConvShape> = Vec::new();
    let mut push = |candidate: ConvShape| {
        if candidate != *shape && candidate.validate().is_ok() && !out.contains(&candidate) {
            out.push(candidate);
        }
    };
    push(ConvShape { cin: shape.cin * 2, ..*shape });
    if shape.cin.is_multiple_of(2) {
        push(ConvShape { cin: shape.cin / 2, ..*shape });
    }
    push(ConvShape { cout: shape.cout * 2, ..*shape });
    if shape.cout.is_multiple_of(2) {
        push(ConvShape { cout: shape.cout / 2, ..*shape });
    }
    out
}

/// Queue ordering key: tier rank first ([`JobTier::rank`]), then larger I/O-bound gap first, then fingerprint. The
/// float is compared through its IEEE bit pattern, which is
/// order-preserving for the non-negative finite gaps [`io_gap`]
/// produces.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct JobKey {
    rank: u8,
    gap_descending: std::cmp::Reverse<u64>,
    fingerprint: String,
}

/// What [`WorkQueue::push`] did with a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushOutcome {
    /// The workload was new: the queue grew.
    Added,
    /// The workload was already pending at a *weaker* tier and has been
    /// lifted to the incoming job's tier (the queue did not grow).
    /// Reports the displaced tier.
    Promoted { from: JobTier },
    /// The workload was already pending at an equal-or-better tier.
    AlreadyPending,
}

/// Deterministic tiered priority queue of pending jobs, deduplicated by
/// workload fingerprint.
#[derive(Debug, Default)]
pub(crate) struct WorkQueue {
    jobs: BTreeMap<JobKey, Job>,
    by_fingerprint: BTreeMap<String, JobKey>,
}

impl WorkQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub(crate) fn contains(&self, fingerprint: &str) -> bool {
        self.by_fingerprint.contains_key(fingerprint)
    }

    /// Every pending workload fingerprint with its tier, in fingerprint
    /// order. Registration snapshots this to avoid recomputing
    /// priorities for already-pending workloads.
    pub(crate) fn pending(&self) -> impl Iterator<Item = (&str, JobTier)> {
        self.by_fingerprint.iter().map(|(fp, key)| (fp.as_str(), self.jobs[key].tier))
    }

    /// Enqueues a job at the given [`io_gap`] priority (computed by the
    /// caller so it can happen outside any service lock — the gap is a
    /// pure function of the workload). A workload already pending at a
    /// weaker tier is *promoted* to the incoming tier — a job someone is
    /// waiting on must never drain at (or be budget-dropped from)
    /// background priority just because speculation staged it first.
    pub(crate) fn push(&mut self, mut job: Job, gap: f64) -> PushOutcome {
        job.enqueued_at.get_or_insert_with(std::time::Instant::now);
        let fingerprint = job.fingerprint();
        if let Some(existing_key) = self.by_fingerprint.get(&fingerprint) {
            let existing = &self.jobs[existing_key];
            if existing.tier.rank() <= job.tier.rank() {
                return PushOutcome::AlreadyPending;
            }
            // Same fingerprint = same workload = same gap: keep the
            // key's gap, lift the tier.
            let old_key = existing_key.clone();
            let displaced = self.jobs.remove(&old_key).expect("pending job for indexed key");
            let from = displaced.tier;
            let new_key = JobKey { rank: job.tier.rank(), ..old_key };
            self.by_fingerprint.insert(fingerprint, new_key.clone());
            self.jobs.insert(new_key, Job { tier: job.tier, ..displaced });
            return PushOutcome::Promoted { from };
        }
        let key = JobKey {
            rank: job.tier.rank(),
            gap_descending: std::cmp::Reverse(gap.to_bits()),
            fingerprint: fingerprint.clone(),
        };
        self.by_fingerprint.insert(fingerprint, key.clone());
        self.jobs.insert(key, job);
        PushOutcome::Added
    }

    /// Removes and returns the highest-priority job.
    pub(crate) fn pop_first(&mut self) -> Option<Job> {
        let (key, job) = self.jobs.pop_first()?;
        self.by_fingerprint.remove(&key.fingerprint);
        Some(job)
    }

    /// Removes and returns a pending job by workload fingerprint — the
    /// session claim path: a waiter tunes the jobs it needs itself,
    /// whatever tier (or group) staged them.
    pub(crate) fn take(&mut self, fingerprint: &str) -> Option<Job> {
        let key = self.by_fingerprint.remove(fingerprint)?;
        self.jobs.remove(&key)
    }

    /// Drops every *droppable* pending job (budget exhaustion). Batch
    /// jobs survive: sessions are blocked on them and user work is never
    /// budget-limited. Returns how many jobs were dropped.
    pub(crate) fn clear_droppable(&mut self) -> usize {
        let doomed: Vec<JobKey> =
            self.jobs.iter().filter(|(_, j)| j.tier.droppable()).map(|(k, _)| k.clone()).collect();
        for key in &doomed {
            self.jobs.remove(key);
            self.by_fingerprint.remove(&key.fingerprint);
        }
        doomed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(cin: usize, tier: JobTier) -> Job {
        Job {
            shape: ConvShape::square(cin, 28, 32, 3, 1, 1),
            kind: TileKind::Direct,
            epilogue: Epilogue::None,
            device: DeviceSpec::v100(),
            tier,
            enqueued_at: None,
        }
    }

    fn push(q: &mut WorkQueue, j: Job) -> PushOutcome {
        let gap = io_gap(&j.shape, j.kind, &j.device);
        q.push(j, gap)
    }

    #[test]
    fn io_gap_is_at_least_one_and_feasible_shapes_exceed_it() {
        let d = DeviceSpec::v100();
        let gap = io_gap(&ConvShape::square(256, 56, 128, 3, 1, 1), TileKind::Direct, &d);
        assert!(gap >= 1.0 && gap.is_finite());
    }

    #[test]
    fn tiers_drain_batch_then_transfer_then_registered_then_neighbor() {
        let mut q = WorkQueue::new();
        assert_eq!(push(&mut q, job(64, JobTier::Neighbor)), PushOutcome::Added);
        assert_eq!(push(&mut q, job(128, JobTier::Registered)), PushOutcome::Added);
        assert_eq!(push(&mut q, job(16, JobTier::Transfer)), PushOutcome::Added);
        assert_eq!(push(&mut q, job(32, JobTier::Batch { group: 1 })), PushOutcome::Added);
        assert_eq!(q.pop_first().unwrap().tier, JobTier::Batch { group: 1 });
        assert_eq!(q.pop_first().unwrap().tier, JobTier::Transfer);
        assert_eq!(q.pop_first().unwrap().tier, JobTier::Registered);
        assert_eq!(q.pop_first().unwrap().tier, JobTier::Neighbor);
    }

    #[test]
    fn transfer_jobs_are_droppable_and_promotable() {
        assert!(JobTier::Transfer.droppable(), "nobody blocks on a provisional re-tune");
        let mut q = WorkQueue::new();
        push(&mut q, job(64, JobTier::Registered));
        assert_eq!(
            push(&mut q, job(64, JobTier::Transfer)),
            PushOutcome::Promoted { from: JobTier::Registered }
        );
        assert_eq!(
            push(&mut q, job(64, JobTier::Batch { group: 4 })),
            PushOutcome::Promoted { from: JobTier::Transfer }
        );
    }

    #[test]
    fn config_io_gap_bounds_the_gate() {
        let d = DeviceSpec::v100();
        let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
        let cfg = fast_config(&shape, TileKind::Direct, &d).unwrap();
        // The fast config's gap at its own shape matches io_gap.
        let own = config_io_gap(&shape, TileKind::Direct, &d, &cfg).unwrap();
        assert_eq!(own.to_bits(), io_gap(&shape, TileKind::Direct, &d).to_bits());
        // An invalid config (absurd staging buffer) has no gap.
        let broken = iolb_dataflow::config::ScheduleConfig { sb_bytes: 1024 * 1024 * 1024, ..cfg };
        assert!(config_io_gap(&shape, TileKind::Direct, &d, &broken).is_none());
    }

    #[test]
    fn transfer_admissibility_tightens_with_the_bound() {
        let d = DeviceSpec::v100();
        let donor = ConvShape::new(96, 64, 64, 24, 1, 1, 1, 0);
        let target = ConvShape::new(96, 54, 54, 24, 1, 1, 1, 0);
        // Donor configs land on the target through the divisor-lattice
        // projection — the same step the session serve path takes.
        let cfg = fast_config(&donor, TileKind::Direct, &d)
            .unwrap()
            .project_onto(&target, TileKind::Direct);
        // A generous bound admits the in-bucket neighbor; a bound of
        // exactly 1.0 demands the provable optimum and rejects it.
        assert!(transfer_admissible(&target, &donor, TileKind::Direct, &d, &cfg, 1e6));
        assert!(!transfer_admissible(&target, &donor, TileKind::Direct, &d, &cfg, 1.0));
        // A config that cannot validate on the target is never admissible.
        let broken = iolb_dataflow::config::ScheduleConfig { sb_bytes: 1024 * 1024 * 1024, ..cfg };
        assert!(!transfer_admissible(&target, &donor, TileKind::Direct, &d, &broken, 1e6));
        // Analytically distant shapes never merge even when the config
        // happens to validate on both.
        let far = ConvShape::new(96, 8, 8, 24, 1, 1, 1, 0);
        if config_io_gap(&far, TileKind::Direct, &d, &cfg).is_some() {
            assert!(!transfer_admissible(&far, &donor, TileKind::Direct, &d, &cfg, 1.5));
        }
    }

    #[test]
    fn queue_dedupes_by_fingerprint_and_cancels() {
        let mut q = WorkQueue::new();
        assert_eq!(push(&mut q, job(64, JobTier::Registered)), PushOutcome::Added);
        assert_eq!(
            push(&mut q, job(64, JobTier::Registered)),
            PushOutcome::AlreadyPending,
            "duplicate workload must not enqueue"
        );
        assert_eq!(q.len(), 1);
        let fp = job(64, JobTier::Registered).fingerprint();
        assert!(q.contains(&fp));
        assert!(q.take(&fp).is_some());
        assert!(q.take(&fp).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn stronger_push_promotes_and_reports_the_displaced_tier() {
        let mut q = WorkQueue::new();
        // The neighbor of one layer aliases a later registered layer.
        assert_eq!(push(&mut q, job(64, JobTier::Neighbor)), PushOutcome::Added);
        assert_eq!(push(&mut q, job(128, JobTier::Registered)), PushOutcome::Added);
        assert_eq!(
            push(&mut q, job(64, JobTier::Registered)),
            PushOutcome::Promoted { from: JobTier::Neighbor },
            "a registered layer lifts its pending neighbor alias"
        );
        // A weaker push never demotes.
        assert_eq!(push(&mut q, job(64, JobTier::Neighbor)), PushOutcome::AlreadyPending);
        // A batch push lifts a registered job and reports where from.
        assert_eq!(
            push(&mut q, job(64, JobTier::Batch { group: 9 })),
            PushOutcome::Promoted { from: JobTier::Registered }
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_first().unwrap().tier, JobTier::Batch { group: 9 });
        assert_eq!(q.pop_first().unwrap().tier, JobTier::Registered);
    }

    #[test]
    fn take_claims_by_fingerprint_across_tiers() {
        let mut q = WorkQueue::new();
        push(&mut q, job(64, JobTier::Neighbor));
        push(&mut q, job(128, JobTier::Batch { group: 2 }));
        let fp = job(64, JobTier::Neighbor).fingerprint();
        let taken = q.take(&fp).expect("pending job claimable by fingerprint");
        assert_eq!(taken.shape.cin, 64);
        assert!(q.take(&fp).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn budget_drop_spares_batch_jobs() {
        let mut q = WorkQueue::new();
        push(&mut q, job(64, JobTier::Registered));
        push(&mut q, job(32, JobTier::Neighbor));
        push(&mut q, job(128, JobTier::Batch { group: 3 }));
        assert_eq!(q.clear_droppable(), 2, "registered + neighbor jobs drop");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_first().unwrap().tier, JobTier::Batch { group: 3 });
    }

    #[test]
    fn drain_order_is_deterministic() {
        let build = || {
            let mut q = WorkQueue::new();
            for cin in [64, 32, 128, 16] {
                push(&mut q, job(cin, JobTier::Registered));
            }
            let mut order = Vec::new();
            while let Some(j) = q.pop_first() {
                order.push(j.fingerprint());
            }
            order
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn perturbations_are_valid_distinct_shapes() {
        let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
        let neighbors = shape_perturbations(&shape);
        assert_eq!(neighbors.len(), 4, "cin and cout, halved and doubled");
        for (at, n) in neighbors.iter().enumerate() {
            assert!(n.validate().is_ok());
            assert_ne!(*n, shape);
            assert!(!neighbors[..at].contains(n), "neighbors are distinct");
        }
        // Odd channel counts halve away.
        let odd = ConvShape::square(3, 28, 32, 3, 1, 1);
        assert!(shape_perturbations(&odd).iter().all(|n| n.cin != 1 || n.cout != 32));
    }
}
