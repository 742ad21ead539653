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
//! still signals). The first of this crate's two `unsafe` blocks is the
//! lifetime erasure of the boxed job; it is sound because the
//! destructor cannot be skipped while the enclosing `Machine::run`
//! frame unwinds.
//!
//! A spawn the OS refuses is an error, not a panic: [`Crew::execute`]
//! returns it with the job dropped unrun, and `Machine::run` fails the
//! run instead of waiting forever on ranks that were dispatched and are
//! parked on ranks that never will be.
//!
//! ## Two malloc arenas per core
//!
//! glibc gives each new thread its own malloc arena, up to 8 per core,
//! and an arena keeps the high-water mark of every allocation that ever
//! passed through it. The pool keeps at least [`IDLE_FLOOR`] rank
//! threads parked, each bound to the arena it first allocated in, so an
//! uncapped process holds the sum of a dozen or more arena peaks rather
//! than the peak of their sum: 21 MB in 15 arenas of a 32 MB resident
//! set over a live heap of 4 MB on a 2-core host (DESIGN §6 has the
//! table). The first time the pool spawns a worker it therefore caps
//! glibc at two arenas per core that can run at once ([`arena_cap`]).
//! Two, not one: a thread keeps the arena it was first given, so
//! threads running at once share an arena lock by chance, and at one
//! arena per core that cost the ledger's `tools-cli` workload 5 % of
//! its wall time on 2 cores; at two it costs none (CHANGES.md has the
//! runs). The cap must be set before the rank threads allocate — glibc
//! fixes its arena limit the first time a thread needs an arena once
//! eight exist, and ignores a later call — and it changes no number a
//! run computes. A `MALLOC_ARENA_MAX` (or `glibc.malloc.arena_max`
//! tunable) already in the environment is glibc's own setting and is
//! left in force. The `mallopt` call is this crate's second `unsafe`;
//! on targets other than Linux with glibc it compiles to nothing.

#![allow(unsafe_code)]

use std::io;
use std::num::NonZeroUsize;
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

/// The arena ceiling for a process that can run `cores` threads at
/// once: two arenas per core, or `None` — leave glibc alone — when the
/// environment already sets glibc's own limit (`preset`) or the core
/// count is unknown.
#[cfg_attr(not(all(target_os = "linux", target_env = "gnu")), allow(dead_code))]
fn arena_cap(cores: Option<NonZeroUsize>, preset: bool) -> Option<i32> {
    let cores = cores.filter(|_| !preset)?;
    Some(i32::try_from(cores.get().saturating_mul(2)).unwrap_or(i32::MAX))
}

/// Apply [`arena_cap`] once per process (see the module docs).
fn cap_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let preset = std::env::var_os("MALLOC_ARENA_MAX").is_some()
                || std::env::var("GLIBC_TUNABLES")
                    .is_ok_and(|t| t.contains("glibc.malloc.arena_max"));
            let cores = std::thread::available_parallelism().ok();
            let Some(cap) = arena_cap(cores, preset) else {
                return;
            };
            /// `M_ARENA_MAX` in glibc's `malloc.h`.
            const M_ARENA_MAX: std::os::raw::c_int = -8;
            extern "C" {
                fn mallopt(
                    param: std::os::raw::c_int,
                    value: std::os::raw::c_int,
                ) -> std::os::raw::c_int;
            }
            // SAFETY: `mallopt` is glibc's thread-safe setter of a malloc
            // tunable; it takes two integers, touches no caller memory,
            // and `M_ARENA_MAX` with a positive value only bounds how
            // many arenas later threads may create. Its status return
            // (0 on an unknown parameter) needs no handling: the cap
            // changes footprint, never a result.
            unsafe { mallopt(M_ARENA_MAX, cap) };
        });
    }
}

/// A parked worker, or a fresh one when none is parked.
fn take_worker() -> io::Result<Worker> {
    #[cfg(test)]
    if failpoint::armed() {
        return spawn_worker();
    }
    if let Some(w) = lock_idle().pop() {
        return Ok(w);
    }
    spawn_worker()
}

fn spawn_worker() -> io::Result<Worker> {
    cap_arenas();
    #[cfg(test)]
    failpoint::spawn()?;
    let (tx, rx) = std::sync::mpsc::channel::<Job>();
    std::thread::Builder::new()
        .name("psse-rank".into())
        .spawn(move || worker_loop(rx))?;
    Ok(Worker { tx })
}

/// Test-only failpoint: make the `k`-th worker spawn on this thread
/// fail as an exhausted OS would. While armed, parked workers are
/// bypassed so every take is a spawn, whatever other tests left idle.
#[cfg(test)]
pub(crate) mod failpoint {
    use std::cell::Cell;
    use std::io;

    thread_local! {
        /// Spawns left before the failing one, counting it.
        static LEFT: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Fail this thread's `k`-th spawn from now on (`k >= 1`).
    pub(crate) fn fail_spawn(k: usize) {
        LEFT.set(Some(k));
    }

    pub(super) fn armed() -> bool {
        LEFT.get().is_some()
    }

    pub(super) fn spawn() -> io::Result<()> {
        match LEFT.get() {
            Some(1) => {
                LEFT.set(None);
                Err(io::Error::other("injected spawn failure"))
            }
            Some(k) => {
                LEFT.set(Some(k - 1));
                Ok(())
            }
            None => Ok(()),
        }
    }
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
    ///
    /// # Errors
    ///
    /// The OS refused a thread. The job has then been dropped unrun, so
    /// the destructor does not wait for it.
    pub(crate) fn execute<'scope, F>(&mut self, job: F) -> io::Result<()>
    where
        F: FnOnce() + Send + 'scope,
    {
        let worker = take_worker()?;
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
        match worker.tx.send(wrapper) {
            Ok(()) => {
                self.workers.push(worker);
                Ok(())
            }
            Err(send_err) => {
                // The pooled thread is gone (it died after an earlier
                // job); run the job on a fresh dedicated thread instead. The job is already `'static`-erased;
                // if that spawn fails too, the closure holding it is
                // dropped unrun and its DoneGuard still signals.
                let job = send_err.0;
                std::thread::Builder::new()
                    .name("psse-rank".into())
                    .spawn(move || {
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    })
                    .map(drop)
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
                })
                .unwrap();
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
                crew.execute(move || *v = i + 1).unwrap();
            }
        }
        assert_eq!(values, [1, 2, 3, 4]);
    }

    #[test]
    fn panicking_job_still_signals() {
        let mut crew = Crew::new();
        crew.execute(|| panic!("deliberate")).unwrap();
        drop(crew); // must not hang
    }

    #[test]
    fn workers_are_reused_across_crews() {
        // Run two batches and check the idle pool does not grow past the
        // first batch's size (i.e. batch two reused batch one's threads).
        let run = || {
            let mut crew = Crew::new();
            for _ in 0..4 {
                crew.execute(std::thread::yield_now).unwrap();
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
                crew.execute(std::thread::yield_now).unwrap();
            }
        }
        {
            let mut crew = Crew::new();
            for _ in 0..2 {
                crew.execute(std::thread::yield_now).unwrap();
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
                })
                .unwrap();
            }
            crews.push(crew);
        }
        drop(crews);
    }

    #[test]
    fn a_refused_spawn_drops_the_job_and_the_crew_still_drains() {
        let ran = AtomicUsize::new(0);
        {
            let mut crew = Crew::new();
            failpoint::fail_spawn(3);
            for _ in 0..2 {
                crew.execute(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            }
            let err = crew
                .execute(|| {
                    ran.fetch_add(100, Ordering::SeqCst);
                })
                .unwrap_err();
            assert_eq!(err.to_string(), "injected spawn failure");
            assert_eq!(crew.dispatched, 2);
        } // must not wait for the refused job
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn two_arenas_per_core_unless_glibc_is_already_told() {
        let cores = |n| NonZeroUsize::new(n);
        assert_eq!(arena_cap(cores(1), false), Some(2));
        assert_eq!(arena_cap(cores(2), false), Some(4));
        assert_eq!(arena_cap(cores(96), false), Some(192));
        assert_eq!(arena_cap(cores(usize::MAX), false), Some(i32::MAX));
        assert_eq!(arena_cap(cores(2), true), None);
        assert_eq!(arena_cap(None, false), None);
        assert_eq!(arena_cap(None, true), None);
    }
}
