//! The scoped worker pool and barrier-stepped shard loop.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread;

/// The first panic payload captured across a fleet of workers. Workers
/// never unwind through `thread::scope` themselves — they stash the
/// payload here and return normally, and the *calling* thread re-raises
/// it after the scope has joined. Keeping unwinding off the scoped
/// threads sidesteps scope's own "a scoped thread panicked" panic and
/// keeps panic propagation single-sourced.
struct FirstPanic(Mutex<Option<Box<dyn Any + Send>>>);

impl FirstPanic {
    fn new() -> Self {
        FirstPanic(Mutex::new(None))
    }

    fn store(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Re-raises the stored panic on the current thread, if any.
    fn rethrow(self) {
        if let Some(payload) = self.0.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
    }
}

/// A boxed one-shot task for [`WorkerPool::run`].
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (0 resets to the initial
/// serial default). Drivers wire this to a `--workers N` flag once;
/// library code picks it up via [`WorkerPool::with_default_workers`].
pub fn set_default_workers(workers: usize) {
    DEFAULT_WORKERS.store(workers, Ordering::Relaxed);
}

/// The process-wide default worker count; 1 (serial) unless
/// [`set_default_workers`] was called.
pub fn default_workers() -> usize {
    match DEFAULT_WORKERS.load(Ordering::Relaxed) {
        0 => 1,
        n => n,
    }
}

/// The hardware parallelism available to this process (at least 1).
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed-width pool of scoped workers. Creating one is free — threads
/// are spawned per call and joined before the call returns, so borrowed
/// data may flow into tasks.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool running at most `workers` tasks concurrently (min 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized by [`default_workers`].
    pub fn with_default_workers() -> Self {
        WorkerPool::new(default_workers())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task, returning results **in task order**. Workers
    /// claim tasks from a shared index, so long tasks overlap short
    /// ones; with one worker the tasks run inline on the calling thread.
    ///
    /// # Panics
    /// Re-raises the first task panic after all workers have stopped.
    pub fn run<'a, T: Send>(&self, tasks: Vec<Task<'a, T>>) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let slots: Vec<Mutex<Option<Task<'a, T>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let first_panic = FirstPanic::new();
        let poisoned = AtomicBool::new(false);
        let slots_ref = &slots;
        let results_ref = &results;
        let next = &next;
        thread::scope(|scope| {
            for _ in 0..workers {
                let first_panic = &first_panic;
                let poisoned = &poisoned;
                scope.spawn(move || loop {
                    if poisoned.load(Ordering::SeqCst) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let task = slots_ref[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .expect("task claimed twice");
                    match catch_unwind(AssertUnwindSafe(task)) {
                        Ok(out) => {
                            *results_ref[i]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner) = Some(out);
                        }
                        Err(panic) => {
                            poisoned.store(true, Ordering::SeqCst);
                            first_panic.store(panic);
                            break;
                        }
                    }
                });
            }
        });
        first_panic.rethrow();
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("worker finished without storing a result")
            })
            .collect()
    }

    /// Maps `f` over `items` on the pool; results in item order.
    pub fn map<I: Send, T: Send>(&self, items: Vec<I>, f: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
        let f = &f;
        self.run(
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| Box::new(move || f(i, item)) as Task<'_, T>)
                .collect(),
        )
    }

    /// Advances every shard by `ticks` steps, with a barrier after each
    /// tick: no shard starts tick `k + 1` until all shards finished tick
    /// `k`. Within a tick, workers claim shards one at a time from a
    /// shared index, so a slow shard never holds back shards queued
    /// behind it. `step` receives the shard's global index; shards are
    /// independent, so which worker steps a shard is invisible in the
    /// result.
    ///
    /// # Panics
    /// If `step` panics, every worker stops at the end of that tick
    /// (still meeting the barrier, so nobody deadlocks) and the first
    /// panic is re-raised.
    pub fn step_ticks<S: Send>(
        &self,
        shards: &mut [S],
        ticks: u64,
        step: impl Fn(usize, &mut S) + Sync,
    ) {
        if shards.is_empty() || ticks == 0 {
            return;
        }
        let workers = self.workers.min(shards.len());
        if workers == 1 {
            for _ in 0..ticks {
                for (i, shard) in shards.iter_mut().enumerate() {
                    step(i, shard);
                }
            }
            return;
        }
        let n = shards.len();
        // Each claim locks one shard once; the locks are uncontended,
        // since the claim index hands every shard to exactly one worker.
        let shards: Vec<Mutex<&mut S>> = shards.iter_mut().map(Mutex::new).collect();
        // Claim counters alternate by tick parity: tick `k` drains
        // `next[k % 2]` while the other, reset at the end of tick
        // `k - 1`, waits at zero for tick `k + 1`.
        let next = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let barrier = Barrier::new(workers);
        let poisoned = AtomicBool::new(false);
        let first_panic = FirstPanic::new();
        let (shards, next, step) = (&shards, &next, &step);
        thread::scope(|scope| {
            for _ in 0..workers {
                let barrier = &barrier;
                let poisoned = &poisoned;
                let first_panic = &first_panic;
                scope.spawn(move || {
                    for tick in 0..ticks {
                        let claim = &next[(tick % 2) as usize];
                        loop {
                            let i = claim.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let mut shard =
                                shards[i].lock().unwrap_or_else(PoisonError::into_inner);
                            let result = catch_unwind(AssertUnwindSafe(|| step(i, &mut shard)));
                            if let Err(panic) = result {
                                poisoned.store(true, Ordering::SeqCst);
                                first_panic.store(panic);
                                break;
                            }
                        }
                        // Everyone meets the barrier, poisoned or not,
                        // so a panicking tick cannot deadlock the rest.
                        // Past it no worker claims from this tick's
                        // counter, so its leader may rewind it.
                        if barrier.wait().is_leader() {
                            claim.store(0, Ordering::Relaxed);
                        }
                        // Double barrier: snapshot the stop flag while
                        // no worker can be computing (writes to
                        // `poisoned` happen only in the step phase,
                        // which both waits fence off). Checking after a
                        // single wait is racy: a fast worker could start
                        // the next tick and poison it before a slow
                        // worker finished checking, splitting the fleet
                        // across two ticks and deadlocking the barrier.
                        let stop = poisoned.load(Ordering::SeqCst);
                        barrier.wait();
                        if stop {
                            break;
                        }
                    }
                });
            }
        });
        first_panic.rethrow();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, usize>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger finish times so completion order differs
                    // from task order.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 7) as u64 * 50,
                    ));
                    i * i
                }) as Task<'_, usize>
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_map() {
        let serial = WorkerPool::new(1).map((0..20).collect(), |i, v: i32| v * 3 + i as i32);
        let parallel = WorkerPool::new(8).map((0..20).collect(), |i, v: i32| v * 3 + i as i32);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let pool = WorkerPool::new(16);
        let out: Vec<i32> = pool.run(Vec::new());
        assert!(out.is_empty());
        let out = pool.map(vec![1], |_, v: i32| v + 1);
        assert_eq!(out, vec![2]);
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn step_ticks_matches_serial_stepping() {
        // Each shard accumulates a function of (index, tick); any
        // cross-tick reordering would change the value.
        let run = |workers: usize| {
            let mut shards: Vec<(usize, u64)> = (0..9).map(|i| (0usize, i as u64)).collect();
            WorkerPool::new(workers).step_ticks(&mut shards, 50, |idx, shard| {
                shard.0 += 1;
                shard.1 = shard
                    .1
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(idx as u64);
            });
            shards
        };
        let serial = run(1);
        assert!(serial.iter().all(|s| s.0 == 50));
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(16));
    }

    #[test]
    fn step_ticks_with_skewed_shard_costs_matches_serial_stepping() {
        // Every fifth shard costs 100x the others, so which worker
        // claims which shard varies from tick to tick; each shard's
        // state must still equal serial stepping.
        let run = |workers: usize| {
            let mut shards: Vec<(usize, u64)> = (0..12).map(|i| (0usize, i as u64)).collect();
            WorkerPool::new(workers).step_ticks(&mut shards, 40, |idx, shard| {
                let rounds = if idx % 5 == 0 { 20_000 } else { 200 };
                for _ in 0..rounds {
                    shard.1 = shard
                        .1
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(idx as u64 | 1);
                }
                shard.0 += 1;
            });
            shards
        };
        let serial = run(1);
        assert!(serial.iter().all(|s| s.0 == 40));
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    #[test]
    fn barrier_keeps_shards_in_lockstep() {
        use std::sync::atomic::AtomicU64;
        // Every shard checks that no other shard is more than one tick
        // ahead when it steps.
        let ticks: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let ticks = &ticks;
        let mut shards: Vec<usize> = (0..4).collect();
        WorkerPool::new(4).step_ticks(&mut shards, 100, |idx, _| {
            let mine = ticks[idx].fetch_add(1, Ordering::SeqCst);
            for other in ticks {
                let t = other.load(Ordering::SeqCst);
                assert!(
                    t >= mine && t <= mine + 1,
                    "shard ran ahead of the barrier: {t} vs {mine}"
                );
            }
        });
    }

    #[test]
    fn run_propagates_panics() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, ()>> = (0..8)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("task 5 failed");
                    }
                }) as Task<'_, ()>
            })
            .collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        assert!(err.is_err());
    }

    #[test]
    fn step_ticks_propagates_panics_without_deadlock() {
        let mut shards: Vec<u64> = vec![0; 6];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::new(3).step_ticks(&mut shards, 10, |idx, shard| {
                if idx == 4 && *shard == 3 {
                    panic!("shard 4 died at tick 3");
                }
                *shard += 1;
            });
        }));
        assert!(err.is_err());
    }

    #[test]
    fn default_workers_roundtrip() {
        assert_eq!(default_workers(), 1);
        set_default_workers(6);
        assert_eq!(default_workers(), 6);
        assert_eq!(WorkerPool::with_default_workers().workers(), 6);
        set_default_workers(0);
        assert_eq!(default_workers(), 1);
        assert!(available_workers() >= 1);
    }
}
