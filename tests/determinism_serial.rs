//! Parallel-vs-serial tuning equivalence (ISSUE 1 acceptance gate): one
//! `tune` run (serial inside — the check keeps a fan-out from creeping
//! back in unnoticed) and one `tune_batch` (the tuner's parallel region)
//! at thread caps 1 and 8. Isolated in its own test binary: this is the
//! only test that mutates the environment (`RAYON_NUM_THREADS`), and on
//! glibc a `setenv` racing `getenv` from another thread is undefined
//! behavior. A dedicated
//! binary with a single test means no sibling test thread is reading
//! the environment while this one writes it (the rayon shim re-reads
//! the variable on every parallel call, but all worker threads are
//! joined before each mutation below).

mod common;

use common::{assert_identical, run_tuning};
use conv_iolb::autotune::{tune_batch, BatchTuneOutcome, TuneRequest};
use conv_iolb::core::epilogue::Epilogue;
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::{ConvShape, WinogradTile};
use conv_iolb::gpusim::DeviceSpec;

/// Six unique workloads — direct, Winograd and one fused chain — with
/// duplicates in between, so the fan-out has more members than any
/// thread cap below and the dedup map is not the identity.
fn batch_requests() -> Vec<TuneRequest> {
    let a = ConvShape::square(32, 14, 32, 3, 1, 1);
    let b = ConvShape::square(16, 28, 32, 3, 1, 1);
    let c = ConvShape::new(32, 14, 14, 16, 1, 1, 1, 0);
    let d = ConvShape::new(16, 14, 14, 32, 1, 1, 1, 0);
    vec![
        TuneRequest::bare(a, TileKind::Direct),
        TuneRequest::bare(a, TileKind::Winograd(WinogradTile::F2X3)),
        TuneRequest::bare(a, TileKind::Direct),
        TuneRequest::fused(b, TileKind::Direct, Epilogue::Relu),
        TuneRequest::bare(b, TileKind::Direct),
        TuneRequest::bare(c, TileKind::Direct),
        TuneRequest::fused(b, TileKind::Direct, Epilogue::Relu),
        TuneRequest::bare(d, TileKind::Direct),
        TuneRequest::bare(c, TileKind::Direct),
    ]
}

fn assert_same_batch(serial: &BatchTuneOutcome, parallel: &BatchTuneOutcome) {
    assert_eq!(serial.unique_runs, 6);
    assert_eq!((serial.unique_runs, serial.deduped), (parallel.unique_runs, parallel.deduped));
    assert_eq!(serial.results.len(), parallel.results.len());
    for (i, (s, p)) in serial.results.iter().zip(&parallel.results).enumerate() {
        let (s, p) = (s.as_ref().expect("feasible"), p.as_ref().expect("feasible"));
        assert_eq!(s.result.best, p.result.best, "request {i}: best configs differ");
        assert_eq!(s.result.best_ms.to_bits(), p.result.best_ms.to_bits(), "request {i}: best_ms");
        assert_eq!(s.fresh_measurements, p.fresh_measurements, "request {i}: fresh measurements");
    }
    assert_eq!(serial.store.to_jsonl(), parallel.store.to_jsonl(), "merged stores differ");
}

#[test]
fn parallel_run_matches_forced_serial_run() {
    let device = DeviceSpec::v100();
    let requests = batch_requests();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_tuning(0xA7E);
    let serial_batch = tune_batch(&requests, &device, 16, 7);
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let parallel = run_tuning(0xA7E);
    let parallel_batch = tune_batch(&requests, &device, 16, 7);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_identical(&serial, &parallel, "serial-vs-parallel");
    assert_same_batch(&serial_batch, &parallel_batch);
}
