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

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` using `jobs` worker threads (at least one, at
/// most one per item), returning results in input order. `f` receives
/// `(worker, index, &item)`, `worker` in `0..jobs`. One worker runs
/// inline on the caller's thread (no pool overhead). `vacant` fills
/// the output until an item's result replaces it; choose one that owns
/// no heap memory.
///
/// A panicking item does not poison the pool: every other item still
/// runs, and the lowest-index panic is re-raised once all have run
/// (see the module docs).
pub fn run_ordered<I, T, F>(jobs: usize, items: &[I], vacant: T, f: F) -> Vec<T>
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
        return sink.finish();
    }
    let next = AtomicUsize::new(0);
    let sink = Mutex::new(sink);
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (next, sink, run) = (&next, &sink, &run);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = run(w, i);
                // `land` cannot panic while holding the lock, but
                // poison tolerance costs nothing and keeps it total.
                sink.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .land(i, out);
            });
        }
    });
    sink.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .finish()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = run_ordered(jobs, &items, 0, |_, _, &x| {
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
        let got = run_ordered(2, &items, String::new(), |_, i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u8> = run_ordered(8, &[] as &[u8], 0, |_, _, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn workers_are_numbered_below_the_clamped_count() {
        let items: Vec<u64> = (0..40).collect();
        for (jobs, used) in [(0, 1), (1, 1), (4, 4), (200, 40)] {
            let got = run_ordered(jobs, &items, (0, 0), |w, _, &x| (w, x));
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
        let got = run_ordered(2, &items, 0, |_, i, &x| {
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
}
