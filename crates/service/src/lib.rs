//! # iolb-service — speculative background tuning over sharded stores
//!
//! The production face of the auto-tuner: the paper makes tuning cheap
//! enough (I/O-lower-bound pruning, §6) that a service can afford to
//! tune **ahead of demand**. This crate turns the passive
//! `iolb-records` store into that service:
//!
//! * [`shard`] — device-sharded stores: one canonical JSONL file per
//!   device fingerprint under a manifest index, cross-shard merge,
//!   persisted LRU stamps, an [`EvictionPolicy`] for long-lived stores
//!   (coldest-workload truncation that never drops a workload's
//!   best-cost record), and the cross-process protocol: an advisory
//!   [`DirLock`] plus [`ShardedStore::merge_into_dir`] so any number of
//!   OS processes append to one directory without corruption. Readers
//!   load tolerantly; writers use [`ShardedStore::load_for_write`],
//!   which refuses a manifest-listed shard it cannot read rather than
//!   save a manifest that drops it.
//! * [`queue`] — the tiered work queue: client batch jobs before
//!   transfer re-tunes before registered layers before
//!   shape-perturbation neighbors, ranked within a tier by predicted
//!   I/O-bound gap `Q_model / Q_lower` alone, drained in a
//!   deterministic order.
//! * [`session`] — batch tuning sessions, the network-level request
//!   path: [`TuningService::submit`] dedupes a whole network's
//!   workloads into one tracked group (repeated layer shapes become one
//!   job with fan-out waiters) and [`SessionHandle::wait`] collects
//!   results as they land.
//! * [`service`] — the [`TuningService`]: background tuner workers on
//!   the rayon shim's persistent pool fill the shards in idle time
//!   under a measurement budget, [`TuningService::tune_or_wait`] (the
//!   one-element session) answers single requests, and the service
//!   counters persist in a stats sidecar for operators to read offline
//!   and across restarts.
//! * [`wire`] — the daemon protocol: length-prefixed, versioned frames
//!   of the record codec's flat-JSON lines, read and written by one
//!   frame reader and one frame writer through a connection's
//!   [`wire::Scratch`]; hostile input yields typed errors, never panics.
//! * [`daemon`] — the resident shard server: a [`Daemon`] owns a shard
//!   directory (one advisory flock for its lifetime), serves
//!   Submit/Wait/Sync/Stats/Pull/Shutdown over a Unix domain socket
//!   and, optionally, TCP, with cross-client fingerprint dedup, batched
//!   persistence on a merge interval, and periodic anti-entropy pulls
//!   from fleet peers (absorbed with the commutative
//!   [`ShardedStore::absorb`] union); [`SocketBackend`] is the client
//!   half, one connection type over either transport.
//! * [`fleet`] — the client-side fleet router: [`FleetRouter`]
//!   consistent-hashes workload fingerprints across N daemons
//!   ([`PeerAddr`] specs, Unix or TCP), re-routes a dead peer's key
//!   range to the survivors, and re-submits its in-flight slice —
//!   hermetic tuning makes the failed-over results bit-identical.
//! * [`telemetry`] — dependency-free observability: a [`Telemetry`]
//!   metrics registry (monotonic counters, gauges, log-spaced
//!   [`LatencyHistogram`]s with exact quantile readout and associative
//!   merge), Prometheus-style exposition, and a leveled structured
//!   event log (JSONL sink via `IOLB_EVENT_LOG`). Strictly
//!   observational: no wall-clock reading feeds tuning decisions, so
//!   instrumented runs stay bit-identical to bare ones.
//!
//! The request path is transport-abstracted through [`Backend`]
//! (submit/wait/sync/stats): the in-process [`TuningService`], the
//! socket client and the fleet router implement the same trait, so
//! callers run embedded, client/server, or against a replicated fleet
//! without code changes.
//!
//! Per-workload tuning runs are *hermetic* (see the [`service`] module
//! docs), so a drained service reproduces exactly what eager
//! `tune_with_store` runs produce — bit-identical costs — regardless of
//! worker count or scheduling.
//!
//! ```
//! use iolb_core::optimality::TileKind;
//! use iolb_core::shapes::ConvShape;
//! use iolb_gpusim::DeviceSpec;
//! use iolb_service::{ServeSource, ServiceConfig, ShardedStore, TuningService};
//!
//! let config = ServiceConfig {
//!     budget_per_workload: 12,
//!     workers: 0, // doctest: drain on this thread, deterministically
//!     speculate_neighbors: false,
//!     ..ServiceConfig::default()
//! };
//! let service = TuningService::new(ShardedStore::new(), config);
//! let layer = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
//! let device = DeviceSpec::v100();
//!
//! // Speculate: enqueue the layer, fill the store in the background.
//! service.register_network(&layer, &device);
//! service.drain();
//!
//! // Serve: the request replays instantly from the shard.
//! let out = service.tune_or_wait(&layer, TileKind::Direct, &device).unwrap();
//! assert_eq!(out.source, ServeSource::ShardHit);
//! assert_eq!(out.fresh_measurements, 0);
//! ```

pub mod daemon;
pub mod fleet;
pub mod queue;
pub mod service;
pub mod session;
pub mod shard;
pub mod telemetry;
pub mod wire;

pub use daemon::{Daemon, DaemonConfig, SocketBackend, MAX_CONNECTIONS, SOCKET_FILE};
pub use fleet::{FleetRouter, PeerAddr};
pub use queue::io_gap;
pub use service::{
    load_sidecar, register, ServeResult, ServeSource, ServiceConfig, ServiceSnapshot, ServiceStats,
    TuningService,
};
pub use session::{
    Backend, BackendError, BackendSession, SessionHandle, StatsReport, SyncOutcome, TuneRequest,
};
pub use shard::{
    shard_file_name, DirLock, DirMergeReport, EvictionPolicy, LockError, ShardLoadReport,
    ShardedStore, LOCK_TIMEOUT,
};
pub(crate) use telemetry::log_event;
pub use telemetry::{HistogramSnapshot, LatencyHistogram, MetricsSnapshot, Telemetry, NUM_BUCKETS};
pub use wire::{WireError, MAX_FRAME_BYTES, WIRE_VERSION};
