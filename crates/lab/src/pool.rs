//! Fixed-size worker pool with order-preserving reassembly.
//!
//! Workers pull indices from a shared atomic counter — the classic
//! self-scheduling loop — and write each result into its slot of a
//! pre-sized output vector. The output is therefore in *input* order
//! regardless of which worker finished when, which is what makes lab
//! CSVs byte-identical for any `--jobs` value.
//!
//! Panic containment: a panic inside `f` is caught per item, the worker
//! moves on, and every remaining item still runs. The first panic (by
//! *input* index, so deterministically — not by wall-clock) is re-raised
//! after reassembly. Callers that want a panic to become per-item data
//! instead (the lab does) wrap their own `catch_unwind` inside `f`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` using `jobs` worker threads (at least one, at
/// most one per item), returning results in input order. `f` receives
/// `(worker, index, &item)`, `worker` in `0..jobs`. One worker runs
/// inline on the caller's thread (no pool overhead).
///
/// A panicking item does not poison the pool: every other item still
/// runs, and the lowest-index panic is re-raised once reassembly is
/// complete (see the module docs).
pub fn run_ordered<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, usize, &I) -> T + Sync,
{
    let jobs = jobs.min(items.len()).max(1);
    if jobs == 1 {
        return reassemble(
            items.len(),
            items
                .iter()
                .enumerate()
                .map(|(i, item)| catch_unwind(AssertUnwindSafe(|| f(0, i, item)))),
        );
    }
    let next = AtomicUsize::new(0);
    // One slot per item, so one bad item cannot leave any unfilled.
    let slots: Vec<Mutex<Option<Slot<T>>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = catch_unwind(AssertUnwindSafe(|| f(w, i, &items[i])));
                // A peer's panic while holding this lock cannot happen
                // (each slot has exactly one writer), but poison
                // tolerance costs nothing and keeps the reassembly
                // below total.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    reassemble(
        items.len(),
        slots.into_iter().map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker pool filled every slot")
        }),
    )
}

/// An item's result, or the panic payload `f` raised for it.
type Slot<T> = Result<T, Box<dyn std::any::Any + Send>>;

/// Drain every slot in input order, then re-raise the first panic (by
/// index, so deterministically) if there was one.
fn reassemble<T>(len: usize, slots: impl Iterator<Item = Slot<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    let mut first_panic = None;
    for slot in slots {
        match slot {
            Ok(r) => out.push(r),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = run_ordered(jobs, &items, |_, _, &x| {
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
        let got = run_ordered(2, &items, |_, i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u8> = run_ordered(8, &[] as &[u8], |_, _, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn workers_are_numbered_below_the_clamped_count() {
        let items: Vec<u64> = (0..40).collect();
        for (jobs, used) in [(0, 1), (1, 1), (4, 4), (200, 40)] {
            let got = run_ordered(jobs, &items, |w, _, &x| (w, x));
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
                run_ordered(jobs, &items, |_, _, &x| {
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
            run_ordered(8, &items, |_, i, _| {
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
}
