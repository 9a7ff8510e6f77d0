//! ISSUE 2 acceptance gates for the tuning-record store:
//!
//! * tuning the same layer twice against one store performs strictly
//!   fewer simulator measurements on the second run and returns a
//!   configuration whose cost is <= the first run's best;
//! * store files written by one run load bit-identically in another
//!   (deterministic, canonical serialization).

use conv_iolb::autotune::search::walk::ParallelRandomWalk;
use conv_iolb::autotune::{
    tune_with_store, ConfigSpace, GbtCostModel, Measurer, StoreTuneResult, TuneParams,
};
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::ConvShape;
use conv_iolb::gpusim::DeviceSpec;
use conv_iolb::records::RecordStore;

fn tune_once(store: &mut RecordStore) -> StoreTuneResult {
    let shape = ConvShape::square(64, 28, 32, 3, 1, 1);
    let device = DeviceSpec::v100();
    let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, true);
    let measurer = Measurer::new(device, shape, TileKind::Direct);
    // patience == budget: both runs spend the full budget, so "strictly
    // fewer fresh measurements" is exactly "at least one cache hit".
    let params = TuneParams { max_measurements: 48, batch: 8, patience: 48, seed: 0xA7E };
    tune_with_store(
        &space,
        &measurer,
        &mut GbtCostModel::default(),
        &mut ParallelRandomWalk::new(),
        params,
        store,
    )
    .expect("tunable layer")
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("iolb-acceptance-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn second_run_measures_strictly_less_and_never_regresses() {
    let path = temp_path("warm");
    // Cold run against an empty store; persist the store to disk.
    let mut store = RecordStore::new();
    let cold = tune_once(&mut store);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.fresh_measurements, cold.result.measurements);
    store.save(&path).expect("save");

    // Warm run against the *reloaded* store — the full persist cycle.
    let (mut reloaded, report) = RecordStore::load(&path).expect("load");
    assert!(report.is_clean(), "skipped lines: {:?}", report.skipped);
    let warm = tune_once(&mut reloaded);
    std::fs::remove_file(&path).ok();

    assert!(warm.warm_seeded > 0, "no warm-start seeds found");
    assert!(warm.cache_hits > 0, "no measurement was replayed");
    assert!(
        warm.fresh_measurements < cold.fresh_measurements,
        "second run must perform strictly fewer measurements: {} vs {}",
        warm.fresh_measurements,
        cold.fresh_measurements
    );
    assert!(
        warm.result.best_ms <= cold.result.best_ms,
        "warm-start regressed: {} vs {}",
        warm.result.best_ms,
        cold.result.best_ms
    );
}

#[test]
fn stores_serialize_bit_identically_across_runs() {
    // Two independent cold runs of the same tuning problem must produce
    // byte-identical store files.
    let mut a = RecordStore::new();
    let mut b = RecordStore::new();
    tune_once(&mut a);
    tune_once(&mut b);
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "two identical runs wrote different stores");

    // And a save -> load -> save cycle is the identity on the bytes.
    let pa = temp_path("bits-a");
    let pb = temp_path("bits-b");
    a.save(&pa).expect("save");
    let (loaded, report) = RecordStore::load(&pa).expect("load");
    assert!(report.is_clean());
    loaded.save(&pb).expect("re-save");
    let bytes_a = std::fs::read(&pa).expect("read a");
    let bytes_b = std::fs::read(&pb).expect("read b");
    std::fs::remove_file(&pa).ok();
    std::fs::remove_file(&pb).ok();
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "save/load/save changed the file");
}

#[test]
fn store_backed_network_tuning_is_incremental() {
    use conv_iolb::autotune::plan::{algo_candidates, tuner_setup};
    use conv_iolb::cnn::inference::TUNER_SEED;
    use conv_iolb::cnn::layers::{ConvLayer, Network};
    let net = Network {
        name: "mini",
        layers: vec![
            ConvLayer::new("c1", ConvShape::new(16, 28, 28, 8, 1, 1, 1, 0)),
            ConvLayer::new("c2", ConvShape::new(8, 28, 28, 16, 1, 1, 1, 0)),
        ],
    };
    let device = DeviceSpec::v100();
    // One pass over the network: every layer x algorithm candidate tuned
    // against the shared store; returns (summed best ms, fresh measurements).
    let pass = |store: &mut RecordStore| {
        let (mut ms, mut fresh) = (0.0, 0);
        for layer in &net.layers {
            let mut best = f64::INFINITY;
            for (kind, _) in algo_candidates(&layer.shape) {
                let mut s = tuner_setup(&layer.shape, kind, &device, 12, TUNER_SEED);
                let out = tune_with_store(
                    &s.space,
                    &s.measurer,
                    &mut s.model,
                    &mut s.searcher,
                    s.params,
                    store,
                )
                .expect("1x1 layers are tunable");
                fresh += out.fresh_measurements;
                best = best.min(out.result.best_ms);
            }
            ms += best * layer.repeat as f64;
        }
        (ms, fresh)
    };
    let mut store = RecordStore::new();
    let (t1, fresh1) = pass(&mut store);
    let (t2, fresh2) = pass(&mut store);
    assert!(t1.is_finite() && t2.is_finite());
    assert!(fresh2 < fresh1);
    assert!(t2 <= t1 + 1e-12);
}
