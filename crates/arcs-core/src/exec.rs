//! The persistent worker-pool execution engine.
//!
//! Before this module, every parallel stage (binner shards, BitOp
//! stripes, optimizer batches) paid `std::thread::scope` spawn cost per
//! call — BENCH_pr2.json honestly records a 0.711× "speedup" at 4 threads
//! on a 1-CPU container largely because of it. The paper's interactive
//! remine → smooth → cluster loop (Figs 10/15) issues many short parallel
//! calls, which is exactly the workload that amortizes a reusable pool.
//!
//! Design (std-only — the reproduction mandate forbids new dependencies):
//!
//! * **One lazily spawned process-wide pool** ([`ExecPool::global`]),
//!   sized from [`default_threads`] — the only pool there is. Workers
//!   are spawned on first use, never before, and live for the rest of
//!   the process; a purely sequential process never creates a thread.
//! * **Injector queue**: a `Mutex<VecDeque<Task>>` + `Condvar`. Work
//!   units are whole shards (thousands of rows / a grid stripe / a batch
//!   chunk), so queue traffic is a handful of pushes per parallel call
//!   and the mutex is never contended on the data path.
//! * **Caller participation**: [`ExecPool::run_shards`] enqueues
//!   `workers − 1` helper units and then claims shards itself alongside
//!   them. The submitting thread always makes progress, so a saturated
//!   or single-worker pool (or even a pool whose spawns failed) can
//!   never deadlock a caller, and nested parallel calls degrade to
//!   sequential execution instead of self-blocking.
//! * **Panic containment**: every shard runs under
//!   [`std::panic::catch_unwind`], and the worker loop wraps each task in
//!   a second `catch_unwind` — a panicking shard surfaces as an `Err`
//!   slot for the caller's retry logic and can never kill a pool worker
//!   or wedge the queue. Completion is tracked by a latch whose guards
//!   decrement on `Drop`, so even a unit that unwinds still signals.
//! * **Replay-selection determinism**: shards are *claimed* in any
//!   order, but results land in per-shard slots and are consumed by the
//!   caller strictly in shard order — the same sequential-replay rule the
//!   optimizer uses for candidate selection. Scheduling therefore
//!   changes wall-clock time only, never results: outputs are
//!   bit-identical at any thread count and any pool size.
//!
//! The bounded-retry/sequential-fallback contract shared by all parallel
//! stages lives here too ([`ExecPool::run_isolated`]) — the only shard
//! panic handling in the pipeline — so the binner, BitOp and optimizer
//! account for faults identically at every thread count and input size
//! (see [`RecoveryStats`] for the contract).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

use crate::error::ArcsError;
use crate::metrics::{default_threads, RecoveryStats};

/// Maximum bounded retries for a panicked shard before the sequential
/// fallback path recomputes it (see [`ExecPool::run_isolated`]).
pub const MAX_SHARD_RETRIES: usize = 2;

/// Per-call scheduling statistics reported by the pool. These describe
/// the *schedule*, not the work — steals and queue depth legitimately
/// vary run to run and across thread counts, while the computed results
/// stay bit-identical. Tests comparing stats across thread counts must
/// therefore normalize these fields (see
/// [`RecoveryStats::faults_only`](crate::metrics::RecoveryStats::faults_only)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Shard tasks executed through this call (caller-inline + stolen).
    pub tasks_run: u64,
    /// Shards executed by pool workers rather than the submitting thread.
    pub steals: u64,
    /// Deepest injector backlog observed while submitting this call's
    /// helper units.
    pub max_queue_depth: u64,
    /// Worker slots the call was actually scheduled across after
    /// clamping (submitting thread included).
    pub effective_workers: u64,
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Worker main loop: pop → run under `catch_unwind` → repeat, for the
/// rest of the process.
fn worker_loop(pool: &ExecPool) {
    loop {
        let task = {
            let mut tasks = pool.tasks.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                if let Some(task) = tasks.pop_front() {
                    break task;
                }
                tasks =
                    pool.work_ready.wait(tasks).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // A panicking task must never kill the worker: shard-level
        // unwinds are already caught and boxed into result slots, but
        // this second net guarantees the pool survives even a task that
        // panics outside that envelope.
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

/// Completion latch: counts outstanding helper units. Guards decrement on
/// `Drop`, so a unit that unwinds still signals completion and can never
/// wedge a waiter.
#[derive(Default)]
struct Latch {
    count: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn wait(&self) {
        let mut count = self.count.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        while *count > 0 {
            count = self.done.wait(count).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

struct LatchGuard(Arc<Latch>);

impl LatchGuard {
    fn register(latch: &Arc<Latch>) -> LatchGuard {
        let mut count = latch.count.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        *count += 1;
        drop(count);
        LatchGuard(Arc::clone(latch))
    }
}

impl Drop for LatchGuard {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        *count -= 1;
        if *count == 0 {
            self.0.done.notify_all();
        }
    }
}

/// Waits for every outstanding helper unit on `Drop` — placed on the
/// caller's stack *before* it starts claiming shards, so the shared
/// stack context outlives every unit even if the caller unwinds.
struct CompletionGuard<'a>(&'a Latch);

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// The persistent worker pool. See the [module docs](self) for the design.
pub struct ExecPool {
    /// The injector queue the workers pop from.
    tasks: Mutex<VecDeque<Task>>,
    work_ready: Condvar,
    size: usize,
    spawn: Once,
    live_workers: AtomicUsize,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("size", &self.size)
            .field("live_workers", &self.live_workers.load(Ordering::Relaxed))
            .finish()
    }
}

impl ExecPool {
    /// The lazily initialised process-wide pool, sized from
    /// [`default_threads`]. Its workers live for the rest of the process.
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ExecPool {
            tasks: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            size: default_threads(),
            spawn: Once::new(),
            live_workers: AtomicUsize::new(0),
        })
    }

    /// Spawns the workers exactly once and returns how many are live.
    /// The workers are detached: they serve the pool for the rest of the
    /// process. A failed spawn (thread exhaustion) leaves a smaller pool
    /// rather than failing the call — `run_shards` callers still complete
    /// via caller participation.
    fn ensure_workers(&'static self) -> usize {
        self.spawn.call_once(|| {
            for i in 0..self.size {
                let spawned = std::thread::Builder::new()
                    .name(format!("arcs-exec-{i}"))
                    .spawn(move || worker_loop(self));
                if spawned.is_ok() {
                    self.live_workers.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        self.live_workers.load(Ordering::Relaxed)
    }

    /// Pushes a task onto the injector and returns the queue depth after
    /// the push (for `max_queue_depth` accounting).
    fn submit(&self, task: Task) -> usize {
        let depth = {
            let mut tasks = self.tasks.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            tasks.push_back(task);
            tasks.len()
        };
        self.work_ready.notify_one();
        depth
    }

    /// Runs `f(index, item)` over every item of `items`, fanning the
    /// shards across up to `threads` worker slots (the submitting thread
    /// participates). Returns per-item results **in item order** —
    /// `Err` slots are caught shard panics for the caller's retry logic
    /// — plus the call's scheduling stats.
    ///
    /// Results are bit-identical at any thread count and pool size: the
    /// schedule decides only *who* computes a shard, never which shards
    /// exist or the order the caller consumes them in.
    pub fn run_shards<T, R, F>(
        &'static self,
        threads: usize,
        items: &[T],
        f: F,
    ) -> (Vec<std::thread::Result<R>>, PoolStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = threads.max(1).min(n.max(1));
        let mut stats = PoolStats { effective_workers: workers as u64, ..PoolStats::default() };
        if n == 0 {
            return (Vec::new(), stats);
        }
        if workers == 1 {
            let results = items
                .iter()
                .enumerate()
                .map(|(i, item)| catch_unwind(AssertUnwindSafe(|| f(i, item))))
                .collect();
            stats.tasks_run = n as u64;
            return (results, stats);
        }
        let live = self.ensure_workers();

        let slots: Vec<OnceLock<std::thread::Result<R>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let steals = AtomicU64::new(0);
        let ctx = ShardCtx { items, f: &f, slots: &slots, next: &next, steals: &steals };

        // Lifetime erasure: helper units receive the context as a plain
        // address. This is the `std::thread::scope` pattern without the
        // per-call spawn — sound because `CompletionGuard` (below) blocks
        // this stack frame until every unit has finished, so the address
        // can never dangle.
        let ctx_addr = &ctx as *const ShardCtx<'_, T, R, F> as usize;
        let latch = Arc::new(Latch::default());
        {
            let completion = CompletionGuard(&latch);
            if live > 0 {
                for _ in 0..workers - 1 {
                    let guard = LatchGuard::register(&latch);
                    let depth = self.submit(Box::new(move || {
                        let _guard = guard;
                        // SAFETY: see `ctx_addr` above — the caller's
                        // CompletionGuard keeps `ctx` alive until this
                        // unit's LatchGuard drops.
                        let ctx = unsafe { &*(ctx_addr as *const ShardCtx<'_, T, R, F>) };
                        ctx.run(true);
                    }));
                    stats.max_queue_depth = stats.max_queue_depth.max(depth as u64);
                }
            }
            ctx.run(false);
            drop(completion); // blocks until all helper units are done
        }

        stats.tasks_run = n as u64;
        stats.steals = steals.load(Ordering::Relaxed);
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("every shard index is claimed and filled exactly once")
            })
            .collect();
        (results, stats)
    }

    /// Runs `unit` over every item under the one panic-isolation
    /// contract every parallel stage shares (documented on
    /// [`RecoveryStats`]), at any thread count and input size:
    ///
    /// * a typed error from `unit` propagates — deterministic failures
    ///   are not retried;
    /// * a panicked item is retried up to [`MAX_SHARD_RETRIES`] times
    ///   through `unit` (so any failpoint in it stays armed), then
    ///   recomputed once by `fallback`, which leaves the failpoint out;
    /// * a panic in `fallback` becomes [`ArcsError::WorkerPanicked`]
    ///   labelled `stage`.
    ///
    /// Every attempt recomputes the item from scratch, so the results —
    /// returned in item order — are bit-identical to a fault-free run.
    pub fn run_isolated<T, R, U, F>(
        &'static self,
        stage: &'static str,
        threads: usize,
        items: &[T],
        unit: U,
        fallback: F,
    ) -> Result<(Vec<R>, RecoveryStats), ArcsError>
    where
        T: Sync,
        R: Send,
        U: Fn(&T) -> Result<R, ArcsError> + Sync,
        F: Fn(&T) -> Result<R, ArcsError>,
    {
        let (attempts, pool_stats) = self.run_shards(threads, items, |_, item| unit(item));
        let mut stats = RecoveryStats::default();
        stats.record_pool(&pool_stats);
        let mut results = Vec::with_capacity(items.len());
        for (attempt, item) in attempts.into_iter().zip(items) {
            let result = match attempt {
                Ok(result) => result?,
                Err(_) => {
                    stats.worker_panics += 1;
                    run_recovered(&mut stats, stage, || unit(item), || fallback(item))?
                }
            };
            results.push(result);
        }
        Ok((results, stats))
    }
}

/// Shared per-call context for `run_shards`: the work list, the shard
/// function, the ordered result slots and the claim counter.
struct ShardCtx<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    slots: &'a [OnceLock<std::thread::Result<R>>],
    next: &'a AtomicUsize,
    steals: &'a AtomicU64,
}

impl<T, R, F> ShardCtx<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    fn run(&self, is_pool_worker: bool) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items.len() {
                return;
            }
            if is_pool_worker {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.f)(i, &self.items[i])));
            let _ = self.slots[i].set(result);
        }
    }
}

/// The retry ladder behind [`ExecPool::run_isolated`]. The caller has
/// already caught the item's *initial* panic and counted it in
/// `stats.worker_panics`. This helper then:
///
/// 1. retries `attempt` up to [`MAX_SHARD_RETRIES`] times, incrementing
///    `shard_retries` **before** each attempt and `worker_panics` for
///    each retry that panics;
/// 2. on exhaustion increments `sequential_fallbacks` once and runs
///    `final_attempt` (the fault-free sequential recomputation);
/// 3. maps a panic on that final pass to
///    [`ArcsError::WorkerPanicked`] with the given `stage` label.
///
/// Typed errors (`Err`) returned by either closure propagate immediately
/// — only panics are retried.
fn run_recovered<R>(
    stats: &mut RecoveryStats,
    stage: &'static str,
    mut attempt: impl FnMut() -> Result<R, ArcsError>,
    final_attempt: impl FnOnce() -> Result<R, ArcsError>,
) -> Result<R, ArcsError> {
    for _ in 0..MAX_SHARD_RETRIES {
        stats.shard_retries += 1;
        match catch_unwind(AssertUnwindSafe(&mut attempt)) {
            Ok(result) => return result,
            Err(_) => stats.worker_panics += 1,
        }
    }
    stats.sequential_fallbacks += 1;
    match catch_unwind(AssertUnwindSafe(final_attempt)) {
        Ok(result) => result,
        Err(panic) => {
            Err(ArcsError::WorkerPanicked { stage, message: crate::error::panic_message(panic) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_shards_returns_results_in_item_order() {
        let pool = ExecPool::global();
        let items: Vec<usize> = (0..64).collect();
        let (results, stats) = pool.run_shards(4, &items, |i, &item| {
            assert_eq!(i, item);
            item * 2
        });
        let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(stats.tasks_run, 64);
        assert_eq!(stats.effective_workers, 4);
    }

    /// The pool's size is the machine's parallelism, so this also runs
    /// at whatever pool size the host gives it.
    #[test]
    fn results_are_identical_at_any_thread_count_and_pool_size() {
        let items: Vec<u64> = (0..97).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 8] {
            let (results, stats) =
                ExecPool::global().run_shards(threads, &items, |_, &x| x * x + 1);
            let values: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, reference, "threads={threads}");
            assert_eq!(stats.tasks_run, items.len() as u64);
        }
    }

    #[test]
    fn a_panicking_shard_is_isolated_and_the_pool_survives() {
        let pool = ExecPool::global();
        let items: Vec<usize> = (0..8).collect();
        let (results, _) = pool.run_shards(4, &items, |_, &item| {
            if item == 3 {
                panic!("boom on shard 3");
            }
            item
        });
        for (i, result) in results.iter().enumerate() {
            if i == 3 {
                assert!(result.is_err(), "shard 3 should surface its panic");
            } else {
                assert_eq!(*result.as_ref().unwrap(), i);
            }
        }
        // The pool must survive the panic and serve subsequent calls.
        let (again, stats) = pool.run_shards(4, &items, |_, &item| item + 1);
        assert!(again.into_iter().all(|r| r.is_ok()));
        assert_eq!(stats.tasks_run, 8);
    }

    #[test]
    fn every_shard_panicking_does_not_wedge_the_queue() {
        let pool = ExecPool::global();
        let items: Vec<usize> = (0..16).collect();
        let (results, _) = pool.run_shards(8, &items, |_, _| -> usize {
            panic!("all shards die");
        });
        assert_eq!(results.len(), 16);
        assert!(results.iter().all(|r| r.is_err()));
        // And the workers are still alive for a healthy follow-up call.
        let (ok, _) = pool.run_shards(8, &items, |_, &item| item);
        assert!(ok.into_iter().all(|r| r.is_ok()));
    }

    #[test]
    fn empty_and_single_item_inputs_take_the_inline_path() {
        let pool = ExecPool::global();
        let (results, stats) = pool.run_shards::<usize, usize, _>(4, &[], |_, &x| x);
        assert!(results.is_empty());
        assert_eq!(stats.tasks_run, 0);

        let (results, stats) = pool.run_shards(4, &[41usize], |_, &x| x + 1);
        assert_eq!(results.into_iter().next().unwrap().unwrap(), 42);
        assert_eq!(stats.effective_workers, 1, "one item needs one worker");
    }

    #[test]
    fn global_pool_is_shared_and_reused() {
        let a = ExecPool::global() as *const ExecPool;
        let b = ExecPool::global() as *const ExecPool;
        assert_eq!(a, b);
        let items: Vec<usize> = (0..10).collect();
        let (results, _) = ExecPool::global().run_shards(2, &items, |_, &x| x);
        assert_eq!(results.len(), 10);
    }

    #[test]
    fn run_isolated_applies_one_contract_at_any_thread_count() {
        let pool = ExecPool::global();
        let items: Vec<u32> = (0..4).collect();
        for threads in [1, 4] {
            // Item 2 panics on every pooled attempt; the fallback recomputes it.
            let (values, stats) = pool
                .run_isolated(
                    "test",
                    threads,
                    &items,
                    |&x| if x == 2 { panic!("persistent") } else { Ok(x * 10) },
                    |&x| Ok(x * 10),
                )
                .unwrap();
            assert_eq!(values, vec![0, 10, 20, 30], "threads = {threads}");
            let tally = (stats.worker_panics, stats.shard_retries, stats.sequential_fallbacks);
            assert_eq!(tally, (3, 2, 1), "threads = {threads}");

            let typed = pool.run_isolated(
                "test",
                threads,
                &items,
                |_| Err::<u32, _>(ArcsError::InvalidConfig("typed".to_string())),
                |&x| Ok(x),
            );
            assert!(matches!(typed, Err(ArcsError::InvalidConfig(_))), "threads = {threads}");
        }
    }

    #[test]
    fn run_recovered_retries_then_falls_back_with_the_documented_tally() {
        // Persistent panic: MAX_SHARD_RETRIES retries (each counted
        // before the attempt), each retry panic counted, one fallback.
        let mut stats = RecoveryStats::default();
        let out = run_recovered(
            &mut stats,
            "test",
            || -> Result<u32, ArcsError> { panic!("persistent") },
            || Ok(7),
        );
        assert_eq!(out.unwrap(), 7);
        assert_eq!(stats.shard_retries, MAX_SHARD_RETRIES as u64);
        assert_eq!(stats.worker_panics, MAX_SHARD_RETRIES as u64);
        assert_eq!(stats.sequential_fallbacks, 1);

        // Transient panic: first retry succeeds — no fallback.
        let mut stats = RecoveryStats::default();
        let flaky = std::cell::Cell::new(true);
        let out = run_recovered(
            &mut stats,
            "test",
            || {
                if flaky.replace(false) {
                    panic!("transient");
                }
                Ok(11)
            },
            || Ok(0),
        );
        assert_eq!(out.unwrap(), 11);
        assert_eq!(stats.shard_retries, 2, "counted before each attempt");
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.sequential_fallbacks, 0);
    }

    #[test]
    fn run_recovered_propagates_typed_errors_without_retrying() {
        let mut stats = RecoveryStats::default();
        let out: Result<u32, ArcsError> = run_recovered(
            &mut stats,
            "test",
            || Err(ArcsError::InvalidConfig("typed".to_string())),
            || Ok(0),
        );
        assert!(out.is_err());
        assert_eq!(stats.shard_retries, 1, "the attempt itself is counted");
        assert_eq!(stats.worker_panics, 0, "typed errors are not panics");
        assert_eq!(stats.sequential_fallbacks, 0);
    }

    #[test]
    fn run_recovered_reports_a_final_pass_panic_as_worker_panicked() {
        let mut stats = RecoveryStats::default();
        let out: Result<u32, ArcsError> = run_recovered(
            &mut stats,
            "binning",
            || panic!("always"),
            || panic!("even the fallback"),
        );
        match out {
            Err(ArcsError::WorkerPanicked { stage, .. }) => assert_eq!(stage, "binning"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
