//! `tune-bench kernels` → `tune-cache check-bench` round trip, plus the
//! validator's rejection cases over hand-tampered artifacts — the CI
//! gate that keeps a broken or regressed kernel benchmark from landing.

use std::path::PathBuf;
use std::process::{Command, Output};

const TUNE_BENCH: &str = env!("CARGO_BIN_EXE_tune-bench");
const TUNE_CACHE: &str = env!("CARGO_BIN_EXE_tune-cache");

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iolb-check-bench-{tag}-{}.json", std::process::id()))
}

fn check_bench(path: &PathBuf) -> Output {
    Command::new(TUNE_CACHE)
        .arg("check-bench")
        .arg(path)
        .output()
        .expect("run tune-cache check-bench")
}

/// A minimal well-formed kernels artifact (header + one GEMM row + one
/// conv row) with internally consistent speedup and roofline fields;
/// the conv row's bound is 0, so it carries no `roofline_gap`.
fn valid_kernels_text() -> String {
    concat!(
        "{\"schema\":\"iolb-bench-kernels\",\"v\":1,\"sizes\":\"64\",\"networks\":\"alexnet\",",
        "\"reps\":1,\"threads\":1,\"sram_kib\":32,\"rows\":2}\n",
        "{\"row\":\"gemm\",\"name\":\"gemm-64\",\"algo\":\"blocked\",\"shape\":\"64x64x64\",",
        "\"gflop\":0.000524288,\"scalar_gflops\":5.0,\"vector_gflops\":15.0,\"speedup\":3.0,",
        "\"q_lower_bytes\":1000.0,\"q_sched_bytes\":4000.0,\"roofline_gap\":4.0}\n",
        "{\"row\":\"conv\",\"name\":\"alexnet/conv1\",\"algo\":\"im2col\",",
        "\"shape\":\"3x227x227->96 11x11/4+0\",\"gflop\":0.21,\"scalar_gflops\":4.0,",
        "\"vector_gflops\":8.0,\"speedup\":2.0,\"q_lower_bytes\":0,\"q_sched_bytes\":500.0}\n",
    )
    .to_string()
}

#[test]
fn kernels_sweep_round_trips_through_check_bench() {
    let out_path = temp_file("roundtrip");
    // GEMM-only micro sweep: conv layers are exercised by the tensor
    // crate's bit-identity tests and would dominate this test's runtime.
    let sweep = Command::new(TUNE_BENCH)
        .args(["kernels", "--sizes", "32,48", "--networks", "", "--reps", "1", "-o"])
        .arg(&out_path)
        .output()
        .expect("run tune-bench kernels");
    assert!(sweep.status.success(), "sweep failed: {}", String::from_utf8_lossy(&sweep.stderr));
    let text = std::fs::read_to_string(&out_path).expect("artifact written");
    assert!(text.starts_with("{\"schema\":\"iolb-bench-kernels\",\"v\":2,"));
    assert_eq!(text.lines().count(), 3, "header + one row per swept size");
    assert_eq!(text.matches("\"threads\":1").count(), 3, "every row carries its thread count");

    let check = check_bench(&out_path);
    assert!(
        check.status.success(),
        "check-bench rejected a fresh sweep: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(stdout.contains("check-bench OK"), "unexpected stdout: {stdout}");
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn valid_synthetic_artifact_passes() {
    let path = temp_file("valid");
    std::fs::write(&path, valid_kernels_text()).unwrap();
    let out = check_bench(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejects_vector_slower_than_scalar_on_largest_gemm() {
    let path = temp_file("slow-vector");
    let text = valid_kernels_text()
        .replace("\"vector_gflops\":15.0,\"speedup\":3.0", "\"vector_gflops\":4.0,\"speedup\":0.8");
    std::fs::write(&path, text).unwrap();
    let out = check_bench(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("vector path lost to scalar"), "unexpected stderr: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejects_inconsistent_speedup() {
    let path = temp_file("bad-speedup");
    let text = valid_kernels_text().replace("\"speedup\":3.0", "\"speedup\":9.0");
    std::fs::write(&path, text).unwrap();
    let out = check_bench(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("inconsistent with GFLOP/s ratio"), "unexpected stderr: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejects_schedule_below_bound() {
    let path = temp_file("below-bound");
    let text = valid_kernels_text().replace(
        "\"q_lower_bytes\":1000.0,\"q_sched_bytes\":4000.0",
        "\"q_lower_bytes\":5000.0,\"q_sched_bytes\":4000.0",
    );
    std::fs::write(&path, text).unwrap();
    let out = check_bench(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fewer bytes"), "unexpected stderr: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejects_roofline_gap_on_a_zero_bound_and_its_absence_on_a_positive_one() {
    let path = temp_file("gap-presence");
    for text in [
        valid_kernels_text()
            .replace("\"q_sched_bytes\":500.0}", "\"q_sched_bytes\":500.0,\"roofline_gap\":0}"),
        valid_kernels_text().replace(",\"roofline_gap\":4.0", ""),
    ] {
        assert_ne!(text, valid_kernels_text());
        std::fs::write(&path, text).unwrap();
        let out = check_bench(&path);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("present exactly when"), "unexpected stderr: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejects_row_count_mismatch() {
    let path = temp_file("row-count");
    let text = valid_kernels_text().replace("\"rows\":2", "\"rows\":3");
    std::fs::write(&path, text).unwrap();
    let out = check_bench(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("declares 3 row(s), found 2"), "unexpected stderr: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejects_unknown_schema() {
    let path = temp_file("schema");
    std::fs::write(&path, "{\"schema\":\"iolb-bench-nonsense\",\"v\":1}\n").unwrap();
    let out = check_bench(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected schema"), "unexpected stderr: {stderr}");
    let _ = std::fs::remove_file(&path);
}
