//! Reusable rank-thread pool.
//!
//! A fault sweep or lab batch calls [`crate::Machine::run`] thousands of
//! times; spawning and joining `p` OS threads per call dominated the
//! wall-clock cost of small runs. This pool keeps finished rank threads
//! parked on private job channels and hands them to the next run, so a
//! sweep at fixed `p` pays thread creation once.
//!
//! The jobs a run dispatches borrow from its stack frame (the rank
//! closure, the result slots), so they are not `'static`. [`Crew`]
//! provides the scoped-spawn guarantee `std::thread::scope` gives:
//! every dispatched job has finished — and been dropped — before the
//! borrows expire. The guarantee is enforced by `Crew`'s destructor,
//! which blocks until each job has signalled completion through an
//! owned channel sender whose signal fires on drop (so a panicking job
//! still signals). The single `unsafe` in this crate is the lifetime
//! erasure of the boxed job; it is sound because the destructor cannot
//! be skipped while the enclosing `Machine::run` frame unwinds.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Mutex, OnceLock, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A parked worker: the sending half of its private job channel.
struct Worker {
    tx: Sender<Job>,
}

/// Ceiling on parked workers; beyond it, workers are dropped and their
/// threads exit when the channel disconnects.
const IDLE_CAP: usize = 4096;

/// Parked threads are not free: even fully blocked, each one taxes the
/// small runs that follow (measurably ~1 µs per parked thread per
/// `Machine::run` at small `p` — scheduler/allocator bookkeeping, seen
/// on single-core hosts). So the pool tracks demand: when a run
/// finishes, the idle list is trimmed to twice that run's rank count,
/// but never below this floor. Consecutive same-`p` runs (a sweep's
/// hot loop) stay fully pooled; dropping from `p = 1024` to a small-`p`
/// phase sheds the oversized fleet after the first small run instead of
/// taxing every one that follows.
const IDLE_FLOOR: usize = 64;

fn idle() -> &'static Mutex<Vec<Worker>> {
    static IDLE: OnceLock<Mutex<Vec<Worker>>> = OnceLock::new();
    IDLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_idle() -> std::sync::MutexGuard<'static, Vec<Worker>> {
    idle().lock().unwrap_or_else(PoisonError::into_inner)
}

fn take_worker() -> Worker {
    if let Some(w) = lock_idle().pop() {
        return w;
    }
    let (tx, rx) = std::sync::mpsc::channel::<Job>();
    std::thread::Builder::new()
        .name("psse-rank".into())
        .spawn(move || worker_loop(rx))
        .expect("spawn rank worker thread");
    Worker { tx }
}

fn worker_loop(rx: Receiver<Job>) {
    // Exits when the channel disconnects (the Worker handle was dropped,
    // e.g. evicted from the idle list).
    while let Ok(job) = rx.recv() {
        // A panic is already caught and converted inside the job wrapper
        // (see Machine::run); this outer catch only shields the worker
        // from a panicking Drop of the job's captures.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Signals completion when dropped, whether the job ran, panicked, or
/// was dropped unexecuted — exactly the cases [`Crew`] must count.
struct DoneGuard(Sender<()>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// One run's worth of pooled workers. Dispatch jobs with
/// [`Crew::execute`]; the destructor blocks until every job has
/// completed and only then returns the workers to the idle pool.
pub(crate) struct Crew {
    workers: Vec<Worker>,
    dispatched: usize,
    done_tx: Sender<()>,
    done_rx: Receiver<()>,
}

impl Crew {
    pub(crate) fn new() -> Crew {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        Crew {
            workers: Vec::new(),
            dispatched: 0,
            done_tx,
            done_rx,
        }
    }

    /// Run `job` on a pooled worker thread. The job may borrow from the
    /// caller's frame: `Crew`'s destructor keeps those borrows alive
    /// until the job has finished and been dropped.
    pub(crate) fn execute<'scope, F>(&mut self, job: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let done = DoneGuard(self.done_tx.clone());
        let wrapper: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let _done = done; // signals after `job` (and its captures) are gone
            job();
        });
        // SAFETY: the wrapper (and the `'scope` borrows it captures) is
        // dropped before its DoneGuard signals, and `Crew::drop` blocks
        // until `dispatched` signals have been received before the
        // `'scope` frame can unwind past it. The transmute only erases
        // the lifetime; the vtable and layout are unchanged.
        let wrapper: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapper) };
        self.dispatched += 1;
        let worker = take_worker();
        match worker.tx.send(wrapper) {
            Ok(()) => self.workers.push(worker),
            Err(send_err) => {
                // The pooled thread is gone (its spawn must have failed
                // mid-construction); run the job on a fresh dedicated
                // thread instead. The job is already `'static`-erased.
                let job = send_err.0;
                std::thread::Builder::new()
                    .name("psse-rank".into())
                    .spawn(move || {
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    })
                    .expect("spawn fallback rank thread");
            }
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        for _ in 0..self.dispatched {
            // Cannot fail: we hold one `done_tx`, so the channel never
            // disconnects, and every dispatched wrapper owns a DoneGuard
            // that signals when the wrapper is dropped — run or not.
            let _ = self.done_rx.recv();
        }
        let cap = (2 * self.dispatched).clamp(IDLE_FLOOR, IDLE_CAP);
        let mut idle = lock_idle();
        while let Some(w) = self.workers.pop() {
            if idle.len() >= IDLE_CAP {
                break; // dropped workers let their threads exit
            }
            idle.push(w);
        }
        // Demand-based trim (see IDLE_FLOOR): drop parked workers beyond
        // what a run of this size plausibly needs again.
        if idle.len() > cap {
            idle.truncate(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn jobs_run_and_crew_waits() {
        let counter = AtomicUsize::new(0);
        {
            let mut crew = Crew::new();
            for _ in 0..8 {
                crew.execute(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop blocks until all 8 ran
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn borrowed_state_is_released_before_drop_returns() {
        let mut values = [0usize; 4];
        {
            let mut crew = Crew::new();
            for (i, v) in values.iter_mut().enumerate() {
                crew.execute(move || *v = i + 1);
            }
        }
        assert_eq!(values, [1, 2, 3, 4]);
    }

    #[test]
    fn panicking_job_still_signals() {
        let mut crew = Crew::new();
        crew.execute(|| panic!("deliberate"));
        drop(crew); // must not hang
    }

    #[test]
    fn workers_are_reused_across_crews() {
        // Run two batches and check the idle pool does not grow past the
        // first batch's size (i.e. batch two reused batch one's threads).
        let run = || {
            let mut crew = Crew::new();
            for _ in 0..4 {
                crew.execute(std::thread::yield_now);
            }
        };
        run();
        let after_first = lock_idle().len();
        run();
        let after_second = lock_idle().len();
        assert!(
            after_second <= after_first.max(4),
            "second batch must reuse parked workers: {after_first} -> {after_second}"
        );
    }

    #[test]
    fn small_run_trims_an_oversized_idle_pool() {
        // A big crew parks a large fleet; the next small crew must shed
        // it down to its own demand (other tests sharing the process
        // pool can only trim further, never inflate past IDLE_CAP).
        let big = 150;
        {
            let mut crew = Crew::new();
            for _ in 0..big {
                crew.execute(std::thread::yield_now);
            }
        }
        {
            let mut crew = Crew::new();
            for _ in 0..2 {
                crew.execute(std::thread::yield_now);
            }
        }
        let idle_now = lock_idle().len();
        assert!(
            idle_now < big,
            "idle pool must be trimmed after a small run: {idle_now}"
        );
    }

    #[test]
    fn concurrent_crews_do_not_share_workers_mid_job() {
        // Two crews running simultaneously must get disjoint workers;
        // otherwise two blocking ranks could serialize on one thread.
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut crews: Vec<Crew> = Vec::new();
        for _ in 0..2 {
            let mut crew = Crew::new();
            for _ in 0..4 {
                let b = Arc::clone(&barrier);
                crew.execute(move || {
                    b.wait(); // deadlocks unless all 8 jobs run concurrently
                });
            }
            crews.push(crew);
        }
        drop(crews);
    }
}
