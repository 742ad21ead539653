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
use std::time::Instant;

use psse_metrics::saturating_nanos;

/// Resolve the worker count: an explicit `jobs >= 1` wins; `0` means the
/// machine's available parallelism (1 if that cannot be determined).
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs >= 1 {
        return jobs;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` using `jobs` worker threads, returning results
/// in input order. `f` receives `(index, &item)`. With `jobs <= 1` the
/// loop runs inline on the caller's thread (no pool overhead).
///
/// A panicking item does not poison the pool: every other item still
/// runs, and the lowest-index panic is re-raised once reassembly is
/// complete (see the module docs).
pub fn run_ordered<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_workers(worker_count(jobs, items.len()), items, |_, i, item| {
        f(i, item)
    })
}

/// Worker threads actually used: at least one, at most one per item.
fn worker_count(jobs: usize, items: usize) -> usize {
    jobs.max(1).min(items.max(1))
}

/// An item's result, or the panic payload `f` raised for it.
type Slot<T> = Result<T, Box<dyn std::any::Any + Send>>;

/// The one worker loop behind both entry points: `f` receives `(worker,
/// index, &item)`; every item runs whatever its siblings do; results
/// come back in input order and the lowest-index panic is re-raised
/// after the last item has run. `jobs` is already clamped by
/// [`worker_count`]; one worker runs inline on the caller's thread.
fn run_workers<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, usize, &I) -> T + Sync,
{
    if jobs <= 1 {
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

/// One worker's accounting over a [`run_ordered_timed`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSpan {
    /// Nanoseconds spent inside `f` (busy; the rest of the pool's wall
    /// clock was idle or contended).
    pub busy_ns: u64,
    /// Items this worker completed.
    pub items: u64,
}

/// Host-side timing of one pool invocation: per-item wall-clock (input
/// order) and per-worker busy spans. The *structure* — lengths, item
/// order, worker count — is deterministic; only the nanosecond values
/// vary between runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolProfile {
    /// Worker threads actually used (after clamping to the item count).
    pub jobs: usize,
    /// Wall-clock of the whole map call, nanoseconds.
    pub wall_ns: u64,
    /// Wall-clock per item in input order, nanoseconds.
    pub item_ns: Vec<u64>,
    /// Per-worker busy time and item counts, indexed by worker id.
    pub workers: Vec<WorkerSpan>,
}

impl PoolProfile {
    /// Fraction of `jobs · wall_ns` spent busy, in `[0, 1]`. This is
    /// the number the self-profile report prints per worker: low
    /// utilization on a sweep means the tail of slow keys serialized.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.workers
            .get(worker)
            .map_or(0.0, |w| w.busy_ns as f64 / self.wall_ns as f64)
    }
}

/// [`run_ordered`] plus host-side timing: returns the results in input
/// order and a [`PoolProfile`] of where the wall-clock went. The clock
/// lives in the closure handed to the shared worker loop, so only this
/// entry point reads it.
pub fn run_ordered_timed<I, T, F>(jobs: usize, items: &[I], f: F) -> (Vec<T>, PoolProfile)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = worker_count(jobs, items.len());
    let started = Instant::now();
    let spans: Vec<Mutex<WorkerSpan>> = (0..jobs)
        .map(|_| Mutex::new(WorkerSpan::default()))
        .collect();
    let timed = run_workers(jobs, items, |w, i, item| {
        let t0 = Instant::now();
        let r = f(i, item);
        let ns = saturating_nanos(t0.elapsed().as_secs_f64());
        // Each span has one writer, its worker; the lock is never
        // contended.
        let mut span = spans[w].lock().unwrap_or_else(PoisonError::into_inner);
        span.busy_ns = span.busy_ns.saturating_add(ns);
        span.items += 1;
        (r, ns)
    });
    let (out, item_ns) = timed.into_iter().unzip();
    let profile = PoolProfile {
        jobs,
        wall_ns: saturating_nanos(started.elapsed().as_secs_f64()),
        item_ns,
        workers: spans
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect(),
    };
    (out, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = run_ordered(jobs, &items, |_, &x| {
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
        let got = run_ordered(2, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u8> = run_ordered(8, &[] as &[u8], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn resolve_jobs_explicit_wins() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
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
                run_ordered(jobs, &items, |_, &x| {
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
            run_ordered(8, &items, |i, _| {
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
    fn timed_variant_accounts_every_item_and_worker() {
        let items: Vec<u64> = (0..40).collect();
        for jobs in [1, 4] {
            let (got, prof) = run_ordered_timed(jobs, &items, |_, &x| {
                // A little spin so busy times are nonzero.
                let mut acc = x;
                for i in 0..10_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(acc);
                x * 2
            });
            assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(prof.jobs, jobs);
            assert_eq!(prof.item_ns.len(), items.len());
            assert_eq!(prof.workers.len(), jobs);
            // Every item was claimed by exactly one worker.
            let claimed: u64 = prof.workers.iter().map(|w| w.items).sum();
            assert_eq!(claimed, items.len() as u64);
            // Busy time is at most jobs × wall time (and > 0 here).
            let busy: u64 = prof.workers.iter().map(|w| w.busy_ns).sum();
            assert!(busy > 0);
            for w in 0..jobs {
                let u = prof.utilization(w);
                assert!((0.0..=1.5).contains(&u), "utilization {u}");
            }
        }
    }
}
