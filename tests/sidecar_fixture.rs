//! Stats sidecar back-compat. `tests/fixtures/sidecar_v2/` holds a
//! `service-stats.jsonl` written by the build that still kept per-kind
//! speculation counters (`iolb_speculation_*{kind="…"}`), with neighbor
//! speculation on. This build must open it, restore every counter its
//! counter table declares, and neither report nor write back a name the
//! table does not declare.

use conv_iolb::service::{load_sidecar, ServiceConfig, ServiceStats, TuningService};
use std::path::{Path, PathBuf};

/// The prefix of the per-kind counters the fixture carries.
const STALE: &str = "iolb_speculation_";

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sidecar_v2/service-stats.jsonl")
}

/// A scratch shard directory holding only a copy of the fixture sidecar.
fn copy_of_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iolb-sidecar-v2-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture(), dir.join("service-stats.jsonl")).unwrap();
    dir
}

fn sidecar_text(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("service-stats.jsonl")).unwrap()
}

#[test]
fn parent_written_sidecar_opens_and_sheds_undeclared_counters() {
    let fixture_text = std::fs::read_to_string(fixture()).unwrap();
    assert!(fixture_text.contains(STALE), "premise: the fixture carries per-kind counters");
    let config = ServiceConfig { workers: 0, speculate_neighbors: false, ..Default::default() };
    // The table's counters, as the fixture holds them.
    let restored = ServiceStats {
        enqueued: 2,
        speculative_enqueued: 8,
        background_tuned: 5,
        shard_hits: 2,
        fresh_measurements: 60,
        batch_groups: 2,
        batch_requests: 2,
        networks_served: 2,
        ..ServiceStats::default()
    };

    let dir = copy_of_fixture("save");
    let read = load_sidecar(&dir).unwrap().expect("the fixture's header is current");
    assert!(read.counters.iter().all(|(name, _)| !name.starts_with(STALE)), "{read:?}");
    let (service, report) = TuningService::open(&dir, config).unwrap();
    assert!(report.is_clean(), "warnings: {:?}", report.warnings);
    assert_eq!(service.stats(), restored);
    let metrics = service.metrics();
    assert!(metrics.counters.iter().all(|(name, _)| !name.starts_with(STALE)), "{metrics:?}");
    assert!(!metrics.to_prometheus().contains(STALE));
    // Queue depth and budget are per-process: not restored.
    let snapshot = service.snapshot();
    assert_eq!((snapshot.queue_len, snapshot.budget_left), (0, config.background_budget));
    service.save(&dir).unwrap();
    assert!(!sidecar_text(&dir).contains(STALE), "save wrote a stale name back");
    let (reopened, _) = TuningService::open(&dir, config).unwrap();
    assert_eq!(reopened.stats(), restored);
    let _ = std::fs::remove_dir_all(&dir);

    // sync_dir merges into the sidecar on disk, which still holds the
    // stale names: it must write only the table's counters.
    let dir = copy_of_fixture("sync");
    let (service, _) = TuningService::open(&dir, config).unwrap();
    service.sync_dir(&dir).unwrap();
    assert!(!sidecar_text(&dir).contains(STALE), "sync_dir wrote a stale name back");
    let (reopened, _) = TuningService::open(&dir, config).unwrap();
    assert_eq!(reopened.stats(), restored, "the sync re-counted nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
