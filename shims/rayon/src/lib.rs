//! Offline stand-in for the `rayon` crate: the four primitives the
//! workspace uses — `par_iter().map().collect()`,
//! `par_chunks_mut().enumerate().for_each()`, [`scope`] and [`spawn`] —
//! backed by a **persistent worker pool** (like the real crate's global
//! pool).
//!
//! The build environment has no network access, so the real crates.io
//! `rayon` cannot be vendored. This shim keeps call sites
//! source-compatible for that subset and preserves the property the
//! auto-tuner depends on: **order-preserving results**.
//! `par_iter().map(f).collect::<Vec<_>>()` returns outputs in input
//! order regardless of thread interleaving, so a caller that reduces the
//! collected vector serially is bit-for-bit deterministic.
//!
//! Work is split into contiguous chunks, one per worker, capped by
//! [`current_num_threads`]. Inputs of fewer than two elements per
//! potential worker run inline on the calling thread.
//!
//! ## Who calls it, and why only they do
//!
//! Handing a two-item batch to the pool and getting it back costs ~12 µs
//! on the 2-vCPU reference host (`rayon.handoff_us` in the repository
//! benchmark). The workspace's rule is that **a site is parallel only if
//! one work item is ≥ 100 hand-offs**; everything finer is a plain serial
//! loop at its call site, not a thresholded parallel one. What is left
//! (README, "Parallelism & determinism", has the measured table):
//!
//! | primitive | caller | one work item |
//! |-----------|--------|---------------|
//! | `par_iter().map().collect()` | `iolb_autotune::engine::tune_batch` | one unique workload's whole hermetic tuning run (~3 ms) |
//! | `par_chunks_mut().enumerate().for_each()` | `iolb_tensor::gemm` row bands | one band of `C` rows of a conv-sized GEMM (ms) |
//! | [`scope`] | `iolb_dataflow::exec` direct and Winograd executors | a worker's share of one layer's output blocks (ms) |
//! | [`spawn`] | `iolb_service::TuningService::kick` | a background worker draining the job queue, one tuning run per job |
//!
//! None of these regions nests inside another.
//!
//! ## The pool
//!
//! Worker threads are spawned once, on the first parallel call, and then
//! persist for the life of the process ([`pool_thread_count`] of them —
//! `available_parallelism - 1`, the calling thread being the +1). Every
//! parallel primitive turns its chunks into a batch of tasks; pool
//! workers *help* with the batch, and the **caller always works on its
//! own batch too**, so a batch completes even if every pool worker is
//! busy elsewhere (the service's background workers, another daemon
//! connection's `tune_batch`) — and a nested call, should one appear,
//! cannot deadlock.
//!
//! Idle workers block on the job queue and **read no environment
//! variables**; `RAYON_NUM_THREADS` is consulted only by the thread that
//! issues a parallel call, so tests that mutate it between (not during)
//! parallel regions stay free of `setenv`/`getenv` races.
//!
//! ```
//! use rayon::prelude::*;
//!
//! // Order-preserving: collect returns results in input order no matter
//! // how the pool interleaves the chunks.
//! let doubled: Vec<i32> = vec![1, 2, 3, 4].par_iter().map(|&x| x * 2).collect();
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//! ```

use std::num::NonZeroUsize;

mod pool {
    //! The persistent worker pool and the caller-helps batch protocol.
    //!
    //! Safety model: a batch's tasks may borrow the caller's stack (the
    //! closures are `'a`, not `'static`). [`run_batch`] transmutes them
    //! to `'static` to cross the queue, which is sound because it does
    //! not return — on the success *and* the panic path — until every
    //! task of the batch has finished running, so no borrow outlives its
    //! referent. Task panics are caught, the batch is still drained to
    //! completion, and the first payload is resumed on the caller.

    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

    /// A type-erased batch task. `'static` only after the [`run_batch`]
    /// transmute; see the module docs for why that is sound.
    type Task = Box<dyn FnOnce() + Send + 'static>;

    /// A job handed to a pool worker: "help some batch until it has no
    /// unclaimed tasks left".
    type HelperJob = Box<dyn FnOnce() + Send + 'static>;

    struct Pool {
        sender: mpsc::Sender<HelperJob>,
        workers: usize,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();

    fn pool() -> &'static Pool {
        POOL.get_or_init(|| {
            // The caller participates in every batch, so the pool itself
            // only needs `cores - 1` threads to saturate the machine.
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .saturating_sub(1);
            let (sender, receiver) = mpsc::channel::<HelperJob>();
            let receiver = Arc::new(Mutex::new(receiver));
            for i in 0..workers {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("iolb-rayon-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while dequeuing, never while
                        // running a job.
                        let job = { receiver.lock().unwrap().recv() };
                        match job {
                            // A panicking job must not kill the worker:
                            // batch helpers already catch per-task (so
                            // this never fires for them), but detached
                            // `spawn` jobs reach here raw, and a dead
                            // worker would shrink the pool forever.
                            Ok(job) => {
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break, // channel closed: process exit
                        }
                    })
                    .expect("failed to spawn pool worker");
            }
            Pool { sender, workers }
        })
    }

    /// Number of persistent worker threads backing the pool (excluding
    /// callers, which always help with their own batches). Exposed so
    /// tests can pin pool persistence: the set of distinct worker-thread
    /// ids observed across arbitrarily many parallel calls can never
    /// exceed this.
    pub fn pool_thread_count() -> usize {
        pool().workers
    }

    /// Fire-and-forget: enqueues a `'static` job onto the persistent pool
    /// (mirrors `rayon::spawn`). Unlike batches there is no completion
    /// barrier — the caller never helps and never waits, so the job runs
    /// whenever a worker is idle. On a single-core host the pool has zero
    /// workers and the job would never run; it is executed inline instead,
    /// preserving the "spawn always eventually runs" contract.
    pub fn spawn_detached(job: Box<dyn FnOnce() + Send + 'static>) {
        let p = pool();
        if p.workers == 0 {
            return job();
        }
        let _ = p.sender.send(job);
    }

    /// Shared state of one batch of tasks.
    struct Batch {
        /// Task slots; each index is claimed exactly once via `next`, so
        /// the claimer has exclusive access to its cell.
        slots: Box<[std::cell::UnsafeCell<Option<Task>>]>,
        next: AtomicUsize,
        /// Tasks not yet finished (claimed-and-running included).
        remaining: Mutex<usize>,
        done: Condvar,
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    }

    // SAFETY: slot access is serialized by the `next` counter (each index
    // claimed exactly once), everything else is lock-protected.
    unsafe impl Sync for Batch {}

    /// Claims and runs one task. Returns `false` when no unclaimed tasks
    /// remain.
    fn run_one(batch: &Batch) -> bool {
        let idx = batch.next.fetch_add(1, Ordering::SeqCst);
        if idx >= batch.slots.len() {
            return false;
        }
        // SAFETY: `idx` was claimed exactly once (fetch_add), giving this
        // thread exclusive access to the slot.
        let task = unsafe { (*batch.slots[idx].get()).take() }.expect("task slot claimed twice");
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            batch.panic.lock().unwrap().get_or_insert(payload);
        }
        let mut remaining = batch.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            batch.done.notify_all();
        }
        true
    }

    /// Runs a batch of tasks across the pool, returning only when every
    /// task has completed. The caller executes tasks too, so completion
    /// does not depend on pool workers being free.
    pub fn run_batch<'a>(tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        let count = tasks.len();
        match count {
            0 => return,
            1 => {
                // Nothing to distribute.
                return (tasks.into_iter().next().unwrap())();
            }
            _ => {}
        }
        // SAFETY: extending the closures' lifetime to 'static is sound
        // because this function does not return until all of them have
        // run (see the wait below, reached on the panic path as well —
        // task panics are caught, not propagated mid-batch).
        let slots: Box<[std::cell::UnsafeCell<Option<Task>>]> = tasks
            .into_iter()
            .map(|t| {
                let t: Task = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'a>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(t)
                };
                std::cell::UnsafeCell::new(Some(t))
            })
            .collect();
        let batch = Arc::new(Batch {
            slots,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let p = pool();
        for _ in 0..p.workers.min(count - 1) {
            let helper = Arc::clone(&batch);
            // A send error means zero workers (single-core host); the
            // caller simply runs the whole batch below.
            let _ = p.sender.send(Box::new(move || while run_one(&helper) {}));
        }
        while run_one(&batch) {}
        let mut remaining = batch.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap();
        }
        drop(remaining);
        let payload = batch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Shared state of one [`scope`](super::scope): a dynamic task queue
    /// (spawns may spawn), drained cooperatively by pool helpers and the
    /// scope's caller.
    pub(crate) struct ScopeShared {
        state: Mutex<ScopeState>,
        wake: Condvar,
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    }

    struct ScopeState {
        queue: VecDeque<Task>,
        /// Tasks currently executing (claimed but unfinished).
        active: usize,
    }

    impl ScopeShared {
        pub(crate) fn new() -> Self {
            Self {
                state: Mutex::new(ScopeState { queue: VecDeque::new(), active: 0 }),
                wake: Condvar::new(),
                panic: Mutex::new(None),
            }
        }

        /// Enqueues a scope task (already lifetime-erased by the caller,
        /// which guarantees to drain the scope before returning) and asks
        /// the pool for a helper.
        pub(crate) fn push(self: &Arc<Self>, task: Task) {
            {
                let mut state = self.state.lock().unwrap();
                state.queue.push_back(task);
                self.wake.notify_all();
            }
            let shared = Arc::clone(self);
            let _ = pool().sender.send(Box::new(move || shared.help()));
        }

        /// Runs queued tasks until the queue is momentarily empty.
        fn help(&self) {
            loop {
                let task = {
                    let mut state = self.state.lock().unwrap();
                    match state.queue.pop_front() {
                        Some(t) => {
                            state.active += 1;
                            t
                        }
                        None => return,
                    }
                };
                self.finish_one(task);
            }
        }

        fn finish_one(&self, task: Task) {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                self.panic.lock().unwrap().get_or_insert(payload);
            }
            let mut state = self.state.lock().unwrap();
            state.active -= 1;
            if state.active == 0 {
                self.wake.notify_all();
            }
        }

        /// Caller-side drain: works the queue and waits until every task
        /// (including ones spawned by running tasks) has finished, then
        /// propagates the first task panic, if any.
        pub(crate) fn drain(&self) {
            loop {
                let task = {
                    let mut state = self.state.lock().unwrap();
                    loop {
                        if let Some(t) = state.queue.pop_front() {
                            state.active += 1;
                            break Some(t);
                        }
                        if state.active == 0 {
                            break None;
                        }
                        // A running task may spawn more work; wake on
                        // either a new task or full completion.
                        state = self.wake.wait(state).unwrap();
                    }
                };
                match task {
                    Some(t) => self.finish_one(t),
                    None => break,
                }
            }
            if let Some(payload) = self.panic.lock().unwrap().take() {
                resume_unwind(payload);
            }
        }
    }
}

pub use pool::pool_thread_count;

/// Spawns a fire-and-forget task on the persistent pool (mirrors
/// `rayon::spawn`).
///
/// The task runs when a pool worker is free; there is no join handle and
/// no completion barrier. Long-lived background tasks (e.g. the tuning
/// service's speculative workers) each occupy one pool worker while they
/// run, but can never starve batch primitives: batch callers always help
/// with their own batches, so `par_iter` completes even with every pool
/// worker busy. On single-core hosts (zero pool workers) the task runs
/// inline, so spawned work always eventually executes.
///
/// A panicking task is caught and discarded so the pool worker survives
/// (the real crate aborts the process instead; with no process to
/// restart us here, a swallowed panic beats a silently shrinking pool).
/// Tasks that must surface failures should catch their own panics.
pub fn spawn<F>(f: F)
where
    F: FnOnce() + Send + 'static,
{
    pool::spawn_detached(Box::new(f));
}

/// Number of worker threads parallel operations may use (mirrors
/// `rayon::current_num_threads`).
///
/// Honors `RAYON_NUM_THREADS` like the real crate's global pool; the
/// variable is re-read on every call (only by the thread issuing the
/// parallel call — idle pool workers never touch the environment), so
/// tests can force serial execution for equivalence checks. Setting it
/// to 1 bypasses the pool entirely: every primitive runs inline.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Structured task scope (mirrors `rayon::scope`).
///
/// Spawned tasks run on the persistent pool (the scoping thread helps)
/// and are all finished before `scope` returns.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let shared = std::sync::Arc::new(pool::ScopeShared::new());
    let scope = Scope { shared: std::sync::Arc::clone(&shared), _marker: std::marker::PhantomData };
    // If `f` itself panics, the already-spawned tasks still borrow the
    // caller's stack: drain them before unwinding further.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
    shared.drain();
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Task spawner handed to the [`scope`] closure.
pub struct Scope<'scope, 'env: 'scope> {
    shared: std::sync::Arc<pool::ScopeShared>,
    _marker: std::marker::PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let shared = std::sync::Arc::clone(&self.shared);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let inner =
                Scope { shared: std::sync::Arc::clone(&shared), _marker: std::marker::PhantomData };
            body(&inner);
        });
        // SAFETY: `scope` drains every spawned task (panic path included)
        // before it returns, so the `'scope` borrows inside the closure
        // cannot outlive their referents.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(task)
        };
        self.shared.push(task);
    }
}

/// How many elements each worker must get before `par_iter` hands
/// chunks to the pool; shorter slices run inline.
const MIN_LEN: usize = 2;

/// Workers for `pieces` units of work: at most the thread cap, at least
/// one (the caller).
#[inline]
fn worker_count(pieces: usize) -> usize {
    current_num_threads().min(pieces).max(1)
}

/// Order-preserving parallel map over a slice.
fn par_map_slice<'a, T, R, F>(slice: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let workers = worker_count(slice.len() / MIN_LEN);
    if workers <= 1 {
        return slice.iter().map(f).collect();
    }
    let chunk = slice.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(slice.len());
    out.resize_with(slice.len(), || None);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slice
        .chunks(chunk)
        .zip(out.chunks_mut(chunk))
        .map(|(input, output)| {
            Box::new(move || {
                for (slot, item) in output.iter_mut().zip(input) {
                    *slot = Some(f(item));
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    pool::run_batch(tasks);
    out.into_iter().map(|slot| slot.expect("worker filled every slot")).collect()
}

/// Parallel for-each over disjoint mutable chunks.
fn par_for_each_chunks_mut<T, F>(slice: &mut [T], chunk: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let pieces = slice.len().div_ceil(chunk).max(1);
    let workers = worker_count(pieces);
    if workers <= 1 || pieces <= 1 {
        for (i, c) in slice.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    // Hand each worker a contiguous run of whole chunks so at most
    // `workers` pool tasks exist no matter how fine the chunking is.
    let per_worker = pieces.div_ceil(workers);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slice
        .chunks_mut(per_worker * chunk)
        .enumerate()
        .map(|(g, group)| {
            Box::new(move || {
                for (i, c) in group.chunks_mut(chunk).enumerate() {
                    f(g * per_worker + i, c);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    pool::run_batch(tasks);
}

/// `.par_iter()` on slices (mirrors `rayon::iter::IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    type Item: Sync + 'a;
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// `.par_chunks_mut()` on slices.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_chunks_mut(&'a mut self, chunk: usize) -> ParChunksMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_chunks_mut(&'a mut self, chunk: usize) -> ParChunksMut<'a, T> {
        ParChunksMut { slice: self, chunk }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_chunks_mut(&'a mut self, chunk: usize) -> ParChunksMut<'a, T> {
        ParChunksMut { slice: self, chunk }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap { slice: self.slice, f }
    }
}

/// Mapped parallel iterator: terminal ops preserve input order.
pub struct ParMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Collects mapped values **in input order**.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(par_map_slice(self.slice, &self.f))
    }
}

/// Parallel iterator over disjoint mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { slice: self.slice, chunk: self.chunk }
    }
}

pub struct ParChunksMutEnumerate<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        par_for_each_chunks_mut(self.slice, self.chunk, &|i, c| f((i, c)));
    }
}

pub mod prelude {
    //! One-stop imports (mirrors `rayon::prelude`).
    pub use super::{IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_collect_matches_serial_on_tiny_inputs() {
        for n in 0..5usize {
            let input: Vec<usize> = (0..n).collect();
            let out: Vec<usize> = input.par_iter().map(|&x| x + 1).collect();
            assert_eq!(out, (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunks_mut_partitions_exactly() {
        let mut v = vec![0u32; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i as u32;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 10) as u32);
        }
    }

    #[test]
    fn scope_joins_spawned_tasks() {
        let mut left = 0u64;
        let mut right = 0u64;
        super::scope(|s| {
            s.spawn(|_| left = 1);
            s.spawn(|_| right = 2);
        });
        assert_eq!((left, right), (1, 2));
    }

    #[test]
    fn parallel_map_is_deterministic_across_runs() {
        let input: Vec<f64> = (0..4096).map(|i| i as f64 * 0.37).collect();
        let run = || -> f64 {
            let parts: Vec<f64> = input.par_iter().map(|&x| x.sin()).collect();
            parts.iter().sum()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    /// The ROADMAP pool contract: parallel calls reuse one persistent set
    /// of worker threads instead of spawning fresh OS threads per call.
    /// Rust `ThreadId`s are never reused within a process, so with
    /// spawn-per-call the distinct non-caller ids observed across many
    /// calls would grow with every call; with the pool they are bounded
    /// by the pool size.
    #[test]
    fn worker_pool_persists_across_calls() {
        use std::collections::HashSet;
        let caller = std::thread::current().id();
        let mut observed: HashSet<std::thread::ThreadId> = HashSet::new();
        for _ in 0..8 {
            let input: Vec<u64> = (0..64).collect();
            let ids: Vec<std::thread::ThreadId> = input
                .par_iter()
                .map(|_| {
                    // Give helpers a chance to claim chunks so the test
                    // actually observes pool threads.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    std::thread::current().id()
                })
                .collect();
            observed.extend(ids.into_iter().filter(|&id| id != caller));
        }
        assert!(
            observed.len() <= super::pool_thread_count(),
            "saw {} distinct worker threads across 8 calls but the pool only has {} — \
             parallel calls are spawning fresh OS threads",
            observed.len(),
            super::pool_thread_count()
        );
    }

    /// A panicking task must propagate to the caller without wedging the
    /// pool for subsequent batches.
    #[test]
    fn task_panics_propagate_and_pool_survives() {
        let input: Vec<u64> = (0..256).collect();
        let boom = std::panic::catch_unwind(|| {
            let _: Vec<u64> =
                input.par_iter().map(|&x| if x == 137 { panic!("boom") } else { x }).collect();
        });
        assert!(boom.is_err(), "panic in a parallel task was swallowed");
        // The pool still works afterwards.
        let out: Vec<u64> = input.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, (1..=256).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_runs_detached_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            super::spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // No join handle by design: poll with a generous deadline.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < 8 {
            assert!(std::time::Instant::now() < deadline, "spawned tasks never ran");
            std::thread::yield_now();
        }
        // Spawned tasks must not wedge the batch machinery.
        let input: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    /// A panicking spawned job must not kill its pool worker: later
    /// spawns and batches still run on the full pool.
    #[test]
    fn panicking_spawn_does_not_shrink_the_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        for _ in 0..super::pool_thread_count().max(1) + 1 {
            // On a zero-worker pool spawn runs inline and the panic
            // reaches the caller (documented); catch it so the test
            // exercises both modes.
            let _ = std::panic::catch_unwind(|| super::spawn(|| panic!("boom")));
        }
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            super::spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while done.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "pool lost its workers to panicking spawns"
            );
            std::thread::yield_now();
        }
        let input: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let outer: Vec<u64> = (0..8).collect();
        let sums: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..100).map(|i| o * 100 + i).collect();
                let mapped: Vec<u64> = inner.par_iter().map(|&x| x * 2).collect();
                mapped.iter().sum()
            })
            .collect();
        let expect: Vec<u64> =
            (0..8u64).map(|o| (0..100).map(|i| (o * 100 + i) * 2).sum()).collect();
        assert_eq!(sums, expect);
    }
}
