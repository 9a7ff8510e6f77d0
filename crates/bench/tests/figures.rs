//! The paper-figure binaries print the same bytes they printed when their
//! fixtures were written.
//!
//! Each test runs one binary with no arguments and compares its stdout
//! with `tests/fixtures/figures/<bin>.txt` byte for byte. Every binary is
//! deterministic (fixed seeds, serial tuning runs, a simulator in place of
//! a GPU), and debug and release builds print the same bytes, so any
//! difference is a change in what the reproduction computes. A change
//! that means to move a figure regenerates its fixture in the same commit:
//! `cargo run --release -p iolb-bench --bin <bin> > crates/bench/tests/fixtures/figures/<bin>.txt`.

use std::path::Path;
use std::process::Command;

fn assert_stdout_matches_fixture(bin: &str, exe: &str) {
    let output = Command::new(exe).output().unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/figures")
        .join(format!("{bin}.txt"));
    let expected = std::fs::read(&fixture)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", fixture.display()));
    if output.stdout != expected {
        let got = String::from_utf8_lossy(&output.stdout);
        let want = String::from_utf8_lossy(&expected);
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "{bin} stdout differs from {} (first differing line: {line:?})\n--- got ---\n{got}\n--- want ---\n{want}",
            fixture.display()
        );
    }
}

macro_rules! figure_tests {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_stdout_matches_fixture(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

figure_tests!(fig9, fig10, fig11, fig12, fig13, tab2, theory, ablation);
