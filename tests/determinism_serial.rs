//! Parallel-vs-serial tuning equivalence (ISSUE 1 acceptance gate),
//! isolated in its own test binary: this is the only test that mutates
//! the environment (`RAYON_NUM_THREADS`), and on glibc a `setenv` racing
//! `getenv` from another thread is undefined behavior. A dedicated
//! binary with a single test means no sibling test thread is reading
//! the environment while this one writes it (the rayon shim re-reads
//! the variable on every parallel call, but all worker threads are
//! joined before each mutation below).

mod common;

use common::{assert_identical, run_tuning};

#[test]
fn parallel_run_matches_forced_serial_run() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_tuning(0xA7E);
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let parallel = run_tuning(0xA7E);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_identical(&serial, &parallel, "serial-vs-parallel");
}
