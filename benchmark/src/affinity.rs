//! Pins a workload's process to one CPU.
//!
//! The workloads are closed loops with one client: the client thread and
//! the daemon's handler thread never run at the same time, they hand the
//! turn back and forth. Left to the scheduler they sit on different
//! vCPUs, every hand-over wakes an idle vCPU through the hypervisor, and
//! how long that takes depends on what else the *host* is doing: the
//! same commit read `serve_p50_ms` 0.47–0.85 ms across runs, and whole
//! runs sat in one mode or the other. On one CPU the hand-over is a
//! context switch: 0.337–0.341 ms across runs (README, "Threads and
//! noise"). Threads started later inherit the mask.

// `std` already links the C library on Linux; these are its wrappers of
// the two system calls, declared here because `std` does not expose them.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t` is 1024 bits.
const WORDS: usize = 16;

fn set(mask: &[u64; WORDS]) -> bool {
    // SAFETY: `mask` points to `WORDS * 8` readable bytes, the size
    // passed; pid 0 is the calling thread; the call writes nothing.
    unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
}

/// Restricts the calling thread (and every thread it starts from now on)
/// to the lowest-numbered CPU it may run on; returns that CPU, or `None`
/// when the kernel refuses — the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is `WORDS * 8` writable bytes, the size passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    set(&one).then_some(word * 64 + bit)
}

/// Lets the calling thread run on every CPU again (the kernel keeps only
/// those the process is allowed). For the child process that measures
/// the thread pool, which inherits its parent's pin.
pub fn unpin() -> bool {
    set(&[u64::MAX; WORDS])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_unpinning_gives_them_back() {
        // Affinity is per thread, so this test cannot disturb the others.
        std::thread::spawn(|| {
            let before = std::thread::available_parallelism().unwrap().get();
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread pin itself");
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            let inherited =
                std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
            assert_eq!(inherited.join().unwrap(), 1, "new threads inherit the pin to CPU {cpu}");
            assert!(unpin());
            assert!(std::thread::available_parallelism().unwrap().get() >= before);
        })
        .join()
        .unwrap();
    }
}
