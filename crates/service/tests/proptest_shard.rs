//! Property tests for the sharded store:
//!
//! * splitting a flat store into device shards and merging the shards
//!   back is the identity on the record set (canonical JSONL equality);
//! * eviction never removes a workload's best-cost record, whatever the
//!   policy, the record population or the LRU history.
//!
//! Plus the on-disk round trip of the committed fixture store:
//! split → save → load → save writes a byte-identical directory.

use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_dataflow::config::ScheduleConfig;
use iolb_records::{RecordStore, TuningRecord, Workload};
use iolb_service::{EvictionPolicy, ShardedStore};
use iolb_tensor::layout::Layout;
use proptest::prelude::*;

const DEVICES: [(&str, u32); 3] =
    [("Tesla V100", 96 * 1024), ("GTX 1080 Ti", 96 * 1024), ("Titan X", 64 * 1024)];

/// Builds one record from drawn coordinates. Costs are quantized to
/// strictly positive multiples of 2^-8 so duplicate workload+config
/// pairs collapse deterministically.
fn record(device: usize, cin_pow: u32, x: usize, cost_q: u32) -> TuningRecord {
    let (name, smem) = DEVICES[device % DEVICES.len()];
    let workload = Workload::new(
        ConvShape::square(1 << (cin_pow % 5 + 4), 28, 32, 3, 1, 1),
        TileKind::Direct,
        name,
        smem,
    );
    let config = ScheduleConfig {
        x: [1, 2, 4, 7, 14, 28][x % 6],
        y: 7,
        z: 8,
        nxt: 1,
        nyt: 1,
        nzt: 1,
        sb_bytes: 16 * 1024,
        layout: Layout::Chw,
    };
    TuningRecord::new(workload, config, (cost_q % 256 + 1) as f64 / 256.0, 7).unwrap()
}

fn flat_store(draws: &[(usize, u32, usize, u32)]) -> RecordStore {
    let mut store = RecordStore::new();
    for &(device, cin, x, cost) in draws {
        store.insert(record(device, cin, x, cost));
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_split_then_merge_is_identity(
        draws in prop::collection::vec((0usize..3, 0u32..5, 0usize..6, 0u32..256), 0..80),
    ) {
        let flat = flat_store(&draws);
        let sharded = ShardedStore::from_flat(flat.clone());
        // Same record multiset, same canonical bytes.
        prop_assert_eq!(sharded.len(), flat.len());
        prop_assert_eq!(sharded.merged().to_jsonl(), flat.to_jsonl());
        // And sharding is idempotent: re-splitting the merge changes nothing.
        let resharded = ShardedStore::from_flat(sharded.merged());
        prop_assert_eq!(resharded.merged().to_jsonl(), flat.to_jsonl());
    }

    #[test]
    fn eviction_never_removes_a_best_record(
        draws in prop::collection::vec((0usize..3, 0u32..5, 0usize..6, 0u32..256), 1..80),
        touches in prop::collection::vec(0usize..80, 0..40),
        max_records in 0usize..64,
        top_k in 0usize..5,
    ) {
        let flat = flat_store(&draws);
        let mut sharded = ShardedStore::from_flat(flat.clone());
        // An arbitrary LRU history over the existing workloads.
        let fingerprints: Vec<String> =
            flat.fingerprints().map(str::to_string).collect();
        for &t in &touches {
            sharded.touch(&fingerprints[t % fingerprints.len()]);
        }
        let before = sharded.len();
        let dropped = sharded.evict(&EvictionPolicy { max_records, top_k });
        prop_assert_eq!(sharded.len() + dropped, before, "drop accounting");
        // The budget is met up to the one-record-per-workload floor.
        prop_assert!(sharded.len() <= max_records.max(flat.workload_count()));
        // No workload lost its best-cost record.
        let merged = sharded.merged();
        for (fp, recs) in flat.entries() {
            let kept = merged.records(fp);
            prop_assert!(!kept.is_empty(), "workload {} evicted entirely", fp);
            prop_assert_eq!(
                kept[0].cost_ms.to_bits(),
                recs[0].cost_ms.to_bits(),
                "best record of {} lost", fp
            );
        }
    }
}

/// Every file of a directory, by name, with its bytes.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| {
            let e = e.expect("directory entry");
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fixture_store_round_trips_through_a_shard_directory_byte_identically() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/tuning_records.jsonl");
    let (flat, report) = RecordStore::load(fixture).expect("fixture readable");
    assert!(report.is_clean() && flat.len() == 80);
    let base = std::env::temp_dir().join(format!("iolb-shard-fixture-{}", std::process::id()));
    let (first, second) = (base.join("first"), base.join("second"));
    let _ = std::fs::remove_dir_all(&base);

    ShardedStore::from_flat(flat.clone()).save(&first).expect("save split fixture");
    let (loaded, report) = ShardedStore::load(&first).expect("load shard directory");
    assert!(report.is_clean(), "warnings: {:?}", report.warnings);
    loaded.save(&second).expect("re-save loaded directory");

    assert_eq!(dir_contents(&first), dir_contents(&second));
    assert_eq!(loaded.len(), 80);
    assert!(loaded.merged().to_jsonl() == flat.to_jsonl(), "record set changed on the way");
    let _ = std::fs::remove_dir_all(&base);
}
