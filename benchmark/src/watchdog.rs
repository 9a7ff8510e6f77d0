//! Liveness guard. Every blocking call the benchmark makes names itself
//! here first; if the process is still running at the deadline the
//! watchdog reports the operation it is stuck in as failed and exits
//! non-zero instead of hanging. (The hang is real on a 2-core host: the
//! daemon serves connections on the one-worker compute pool, so a second
//! connection is not read until the first closes — ROADMAP item 1.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which operation the process is in, and how many it has started.
struct Watch {
    operation: Mutex<&'static str>,
    started: AtomicU64,
}

impl Watch {
    const fn new() -> Self {
        Self { operation: Mutex::new("start-up"), started: AtomicU64::new(0) }
    }

    fn enter(&self, operation: &'static str) {
        *self.operation.lock().expect("watchdog label poisoned") = operation;
        self.started.fetch_add(1, Ordering::Relaxed);
    }

    fn stalled_in(&self) -> (&'static str, u64) {
        let operation = *self.operation.lock().expect("watchdog label poisoned");
        (operation, self.started.load(Ordering::Relaxed))
    }
}

static WATCH: Watch = Watch::new();

/// Exit code of a run the watchdog had to end.
pub const STALLED: i32 = 3;

/// Names the blocking operation about to start.
pub fn enter(operation: &'static str) {
    WATCH.enter(operation);
}

/// The deadline for a run asked to measure for `seconds`: 120 s for the
/// driver's run lengths, never beyond the driver's own 180 s limit.
pub fn limit(seconds: f64) -> Duration {
    Duration::from_secs_f64((60.0 + 3.0 * seconds).clamp(120.0, 170.0))
}

/// Starts the guard for this process. The thread is detached on
/// purpose: it must outlive a main thread that never returns.
pub fn arm(what: String, limit: Duration) {
    let deadline = Instant::now() + limit;
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            let (operation, count) = WATCH.stalled_in();
            eprintln!(
                "FAILED {what}: still in `{operation}` (operation #{count}) after {} s; \
                 counted as failed, no result",
                limit.as_secs()
            );
            std::process::exit(STALLED);
        })
        .expect("cannot start the watchdog thread");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_is_120s_for_driver_run_lengths_and_capped_below_180s() {
        assert_eq!(limit(2.0), Duration::from_secs(120));
        assert_eq!(limit(20.0), Duration::from_secs(120));
        assert_eq!(limit(60.0), Duration::from_secs(170));
    }

    #[test]
    fn enter_names_the_operation_and_counts_it() {
        let watch = Watch::new();
        assert_eq!(watch.stalled_in(), ("start-up", 0));
        watch.enter("client.submit");
        watch.enter("client.wait");
        assert_eq!(watch.stalled_in(), ("client.wait", 2));
    }
}
