//! Fixed-size worker pool with order-preserving reassembly.
//!
//! Workers pull indices from a shared atomic counter — the classic
//! self-scheduling loop — and write each result into its slot of one
//! pre-sized output vector, filled with a caller-given vacant value
//! until then. The output is therefore in *input* order regardless of
//! which worker finished when, which is what makes lab CSVs
//! byte-identical for any `--jobs` value, and it is the only place a
//! result is kept: a 2¹⁸-key sweep on two workers holds what it holds
//! on one, plus the workers.
//!
//! Panic containment: a panic inside `f` is caught per item, the worker
//! moves on, and every remaining item still runs. The first panic (by
//! *input* index, so deterministically — not by wall-clock) is re-raised
//! after every item has run. Callers that want a panic to become
//! per-item data instead (the lab does) wrap their own `catch_unwind`
//! inside `f`.
//!
//! A worker thread the OS refuses is not an error: the pool stops
//! spawning, prints one warning to stderr, and the workers already
//! started drain the queue — or, if none started, the caller's thread
//! runs every item. The output is the same either way.

use std::any::Any;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::Scope;

/// Map `f` over `items` using `jobs` worker threads (at least one, at
/// most one per item), returning results in input order and how many
/// workers ran. `f` receives `(worker, index, &item)`, `worker` below
/// that count. One worker runs inline on the caller's thread (no pool
/// overhead). `vacant` fills the output until an item's result replaces
/// it; choose one that owns no heap memory.
///
/// A panicking item does not poison the pool: every other item still
/// runs, and the lowest-index panic is re-raised once all have run; nor
/// does a refused thread (see the module docs).
pub fn run_ordered<I, T, F>(jobs: usize, items: &[I], vacant: T, f: F) -> (Vec<T>, usize)
where
    I: Sync,
    T: Clone + Send,
    F: Fn(usize, usize, &I) -> T + Sync,
{
    let jobs = jobs.min(items.len()).max(1);
    let run = |w: usize, i: usize| catch_unwind(AssertUnwindSafe(|| f(w, i, &items[i])));
    let mut sink = Sink {
        out: vec![vacant; items.len()],
        first_panic: None,
    };
    if jobs == 1 {
        for i in 0..items.len() {
            sink.land(i, run(0, i));
        }
        return (sink.finish(), 1);
    }
    let next = AtomicUsize::new(0);
    let sink = Mutex::new(sink);
    let work = |w: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let out = run(w, i);
        // `land` cannot panic while holding the lock, but poison
        // tolerance costs nothing and keeps it total.
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .land(i, out);
    };
    let workers = std::thread::scope(|scope| {
        let work = &work;
        for w in 0..jobs {
            if let Err(e) = spawn(scope, move || work(w)) {
                let ran = w.max(1);
                eprintln!(
                    "warning: the OS refused lab worker thread {} of {jobs} ({e}); \
                     continuing with {ran} worker(s)",
                    w + 1
                );
                if w == 0 {
                    work(0);
                }
                return ran;
            }
        }
        jobs
    });
    let out = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
    (out.finish(), workers)
}

/// Start a worker thread in `scope`, or say why the OS refused it.
fn spawn<'scope>(
    scope: &'scope Scope<'scope, '_>,
    work: impl FnOnce() + Send + 'scope,
) -> io::Result<()> {
    #[cfg(test)]
    failpoint::spawn()?;
    std::thread::Builder::new()
        .spawn_scoped(scope, work)
        .map(drop)
}

/// The output vector and the lowest-index panic so far.
struct Sink<T> {
    out: Vec<T>,
    first_panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl<T> Sink<T> {
    /// Item `i`'s result, or the panic `f` raised for it.
    fn land(&mut self, i: usize, ran: Result<T, Box<dyn Any + Send>>) {
        match ran {
            Ok(r) => self.out[i] = r,
            Err(payload) => {
                if self.first_panic.as_ref().is_none_or(|&(at, _)| i < at) {
                    self.first_panic = Some((i, payload));
                }
            }
        }
    }

    /// The outputs in input order, or the lowest-index panic re-raised.
    fn finish(self) -> Vec<T> {
        if let Some((_, payload)) = self.first_panic {
            resume_unwind(payload);
        }
        self.out
    }
}

/// Test-only failpoint: make this thread's next pool refuse the spawn
/// of worker `k`, as an exhausted OS would.
#[cfg(test)]
pub(crate) mod failpoint {
    use std::cell::Cell;
    use std::io;

    thread_local! {
        /// Spawns left before the refused one.
        static LEFT: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Refuse this thread's spawn of worker `k` (`0` is the first).
    pub(crate) fn fail_spawn(k: usize) {
        LEFT.set(Some(k));
    }

    pub(super) fn spawn() -> io::Result<()> {
        match LEFT.get() {
            Some(0) => {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let (got, _) = run_ordered(jobs, &items, 0, |_, _, &x| {
                // Stagger completion so out-of-order finishes actually happen.
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                x * x
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c"];
        let (got, _) = run_ordered(2, &items, String::new(), |_, i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let (got, _): (Vec<u8>, _) = run_ordered(8, &[] as &[u8], 0, |_, _, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn workers_are_numbered_below_the_clamped_count() {
        let items: Vec<u64> = (0..40).collect();
        for (jobs, used) in [(0, 1), (1, 1), (4, 4), (200, 40)] {
            let (got, workers) = run_ordered(jobs, &items, (0, 0), |w, _, &x| (w, x));
            assert_eq!(workers, used, "jobs={jobs}");
            assert!(got.iter().all(|&(w, _)| w < used), "jobs={jobs}");
            assert_eq!(got.iter().map(|&(_, x)| x).collect::<Vec<_>>(), items);
        }
    }

    #[test]
    fn panicking_item_does_not_stop_the_others() {
        // One poisoned item out of 32: every other item must still run,
        // and the panic must re-surface deterministically (it is the
        // only one here) after the pool drains.
        use std::sync::atomic::AtomicU64;
        for jobs in [1, 4] {
            let items: Vec<u64> = (0..32).collect();
            let ran = AtomicU64::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_ordered(jobs, &items, 0, |_, _, &x| {
                    if x == 5 {
                        panic!("item 5 is cursed");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }));
            let payload = caught.expect_err("the panic must re-surface");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(msg.contains("cursed"), "{msg}");
            assert_eq!(ran.load(Ordering::Relaxed), 31, "jobs={jobs}");
        }
    }

    #[test]
    fn first_panic_by_input_index_wins() {
        // Several items panic; the re-raised payload must be the
        // lowest-index one regardless of which worker hit which first.
        let items: Vec<u64> = (0..64).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_ordered(8, &items, 0, |_, i, _| {
                if i % 10 == 3 {
                    panic!("panic at index {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "panic at index 3");
    }

    #[test]
    fn a_slow_first_item_still_lands_first() {
        // Item 0 runs until every other item has finished on the other
        // worker, so all of them land before it.
        use std::sync::atomic::AtomicBool;
        let items: Vec<u64> = (0..50).collect();
        let rest_done = AtomicUsize::new(0);
        let first_started = AtomicBool::new(false);
        let (got, _) = run_ordered(2, &items, 0, |_, i, &x| {
            if i == 0 {
                first_started.store(true, Ordering::SeqCst);
                while rest_done.load(Ordering::SeqCst) < items.len() - 1 {
                    std::thread::yield_now();
                }
            } else {
                while !first_started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                rest_done.fetch_add(1, Ordering::SeqCst);
            }
            x + 1
        });
        assert_eq!(got, (1..=50).collect::<Vec<u64>>());
        assert_eq!(got.capacity(), items.len(), "the output is built once");
    }

    #[test]
    fn a_refused_thread_leaves_the_sweep_to_the_workers_that_started() {
        // Four workers asked for; the OS refuses the first spawn (the
        // caller's thread runs everything) or the third (two run).
        let items: Vec<u64> = (0..40).collect();
        for (refused, ran) in [(0, 1), (2, 2)] {
            failpoint::fail_spawn(refused);
            let (got, workers) = run_ordered(4, &items, (0, 0), |w, _, &x| (w, x * x));
            assert_eq!(workers, ran, "refused={refused}");
            assert!(got.iter().all(|&(w, _)| w < ran), "refused={refused}");
            let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(got.iter().map(|&(_, y)| y).collect::<Vec<_>>(), squares);
        }
    }
}
