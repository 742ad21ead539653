//! A memory budget CI can hold: peak live heap bytes per rank, and
//! allocator calls per rank, of the engine's shapes of run — each
//! counted program scheduled and priced, plus a faulted run — under a
//! counting global allocator, so the numbers are exact and repeat.
//!
//! At `p = 10^5`–`10^6` host cost is bytes touched per rank, not
//! arithmetic, so the footprint is what a user waits on and what decides
//! whether a run fits at all. Each ceiling sits a little above what the
//! engine needs today and well below what it needed before programs
//! stayed where they were built, ranks shared one wire slab, analytic
//! runs priced straight into the profile, and the profile of a flat,
//! fault-free, untraced run shrank to one cache line per rank — which
//! these ceilings hold: no such run can allocate an overhead block or a
//! per-rank event `Vec` and stay under them (DESIGN §11.3 has the table).
//!
//! The counters are process-wide, so only the thread inside `measure`
//! is counted (the harness's own threads allocate while a test runs),
//! all `p = 10^5` arms share one `#[test]`, and `measure` admits one
//! thread at a time.

use psse_event::prelude::*;
use psse_sim::prelude::{FaultPlan, FaultSpec, RecoveryPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// The system allocator, counting live bytes, their peak, and calls —
/// of the thread that is inside [`measure`], and of no other.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` and `Copy`: reading it from inside the allocator neither
    // allocates nor registers a destructor.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn measured() -> bool {
    MEASURED.try_with(Cell::get).unwrap_or(false)
}

fn grew(bytes: usize) {
    if measured() {
        CALLS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if measured() {
        LIVE.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing block may have to move: old and new coexist.
        grew(new_size);
        shrank(layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one run cost the heap, over what was live before it.
struct Footprint {
    peak_bytes: usize,
    calls: usize,
}

impl Footprint {
    /// Print the run's cost per rank and hold it to its ceilings.
    fn within(&self, run: &str, p: usize, max_bytes_per_rank: f64, max_calls: f64) {
        let bytes_per_rank = self.peak_bytes as f64 / p as f64;
        let calls = self.calls as f64;
        println!("{run:16} p={p}: {bytes_per_rank:.0} B/rank, {calls} calls");
        assert!(
            bytes_per_rank <= max_bytes_per_rank,
            "{run}: {bytes_per_rank} B/rank"
        );
        assert!(calls <= max_calls, "{run}: {calls} calls");
    }
}

/// Run `run`, check its totals, and report its footprint (outcome
/// included: it is still alive when the peak is read). Nothing `run`
/// allocates is freed outside it except the outcome, so the live count
/// only ever drifts upward between calls and the baseline absorbs it.
fn measure<P>(
    expected: OpTotals,
    run: impl FnOnce() -> EventOutcome<P>,
) -> (Footprint, EventOutcome<P>) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    CALLS.store(0, Relaxed);
    MEASURED.set(true);
    let out = run();
    MEASURED.set(false);
    let footprint = Footprint {
        peak_bytes: PEAK.load(Relaxed) - before,
        calls: CALLS.load(Relaxed),
    };
    let got = OpTotals {
        msgs: out.profile.total_msgs_sent(),
        words: out.profile.total_words_sent(),
        flops: out.profile.total_flops(),
    };
    assert_eq!(got, expected);
    // A flat, fault-free, untraced profile is its `RankStats` and
    // nothing else (the faulted arm is the one run here that is not).
    let flat = out.profile.total_retries() == 0;
    assert_eq!(out.profile.overheads().is_empty(), flat);
    assert!(out.profile.events.is_empty());
    (footprint, out)
}

const WORDS: usize = 1 << 14;
const M: usize = 1 << 12;

fn events_cfg() -> SimConfig {
    SimConfig {
        backend: Backend::Events,
        max_message_words: M,
        ..SimConfig::default()
    }
}

/// Counted binomial allreduce on the analytic path: one clock and one
/// depart time per rank while it walks, then the profile (one 64-byte
/// `RankStats` per rank — no overhead block, no event logs) beside the
/// clocks, in a handful of allocations however large `p` is.
fn fast_binomial(p: usize) {
    let totals = BinomialAllreduce::expected_totals(p as u64, WORDS as u64, M as u64);
    let make = BinomialAllreduce::counted(Tag(0), WORDS);
    fast("fast binomial", p, &events_cfg(), make, totals);
}

/// Any counted program on the analytic path: the profile plus one
/// depart (phased: arrival) time per rank, in a handful of allocations
/// however many transfers it makes.
fn fast<P, F>(run: &str, p: usize, cfg: &SimConfig, make: F, totals: OpTotals)
where
    P: RankProgram + Send,
    F: Fn(usize, usize) -> P + Sync,
{
    let (cost, out) = measure(totals, || run_programs(p, cfg, make).unwrap());
    assert!(out.programs.is_empty(), "priced, not scheduled");
    cost.within(run, p, 80.0, 8.0);
}

#[test]
fn bytes_and_allocations_per_rank_stay_in_budget() {
    let p = 100_000;
    fast_binomial(p);

    // Scheduled halo exchange: no rank allocates anything of its own.
    let cfg = SimConfig {
        backend: Backend::Events,
        ..SimConfig::default()
    };
    let totals = Stencil1D::expected_totals(p as u64, p as u64, 1, 2, 1 << 16);
    let (cost, out) = measure(totals, || {
        EventMachine::run_general(p, &cfg, Stencil1D::counted(p, 1, 2)).unwrap()
    });
    assert_eq!(out.programs.len(), p);
    // Peaks mid-run (136 B program + 192 B slot + 8 B worklist entry +
    // the slab doubling to 131 072 cells), so only the slot's 64 bytes
    // of the split show here; at collection the run is at 392.
    cost.within("stencil", p, 448.0, 0.01 * p as f64);
    fast("fast stencil", p, &cfg, Stencil1D::counted(p, 1, 2), totals);

    // The 2.5D skeleton, the ledger's grid.
    let (q, c, b) = (64, 4, 4);
    let totals = Matmul25D::expected_totals(q as u64, c as u64, b);
    let (cost, out) = measure(totals, || {
        EventMachine::run_general(q * q * c, &cfg, Matmul25D::counted(q, c, b)).unwrap()
    });
    assert_eq!(out.programs.len(), q * q * c);
    // Mid-run peak again: 27 145 parked wires double the slab to
    // 32 768 cells, 144 B/rank while old and new block coexist.
    cost.within("2.5D matmul", q * q * c, 456.0, f64::INFINITY);
    fast(
        "fast 2.5D",
        q * q * c,
        &cfg,
        Matmul25D::counted(q, c, b),
        totals,
    );

    // Scheduled sample sort, the ledger's shape: `p(p − 1)` transfers of
    // each all-to-all, so the slab's parked wires are most of it. A
    // counted rank keeps no per-source tables: with two `Vec` headers
    // per peer (48·p bytes) it was 43 456 B/rank in 1 053 calls.
    let (p_ss, bs) = (512, 512);
    let totals = SampleSort::expected_totals(p_ss as u64, bs as u64, 1 << 16);
    let (cost, out) = measure(totals, || {
        EventMachine::run_general(p_ss, &cfg, SampleSort::counted(bs)).unwrap()
    });
    assert_eq!(out.programs.len(), p_ss);
    cost.within("samplesort", p_ss, 20_480.0, 64.0);
    fast(
        "fast samplesort",
        p_ss,
        &cfg,
        SampleSort::counted(bs),
        totals,
    );

    // The ledger's drop + delay plan, priced in closed form with one
    // `Meter` per rank: each meter, its boxed fault state and
    // link-sequence arena, plus the profile and its overhead blocks
    // collected from them (477 B/rank; scheduled, it was 621).
    let faulted = SimConfig {
        faults: Some(FaultPlan {
            spec: FaultSpec {
                seed: 1,
                drop_rate: 0.05,
                delay_rate: 0.05,
                delay_seconds: 2e-6,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 24,
                retry_backoff: 1e-8,
                checkpoint: None,
            },
        }),
        ..events_cfg()
    };
    let totals = BinomialAllreduce::expected_totals(p as u64, WORDS as u64, M as u64);
    let (cost, out) = measure(totals, || {
        run_programs(p, &faulted, BinomialAllreduce::counted(Tag(0), WORDS)).unwrap()
    });
    assert!(out.profile.total_retries() > 0, "the fault plan must bite");
    assert!(out.programs.is_empty(), "priced, not scheduled");
    cost.within("faulted binomial", p, 512.0, f64::INFINITY);

    // The same allreduce through the scheduler, no faults.
    let (cost, _out) = measure(totals, || {
        EventMachine::run_general(p, &events_cfg(), BinomialAllreduce::counted(Tag(0), WORDS))
            .unwrap()
    });
    // Peaks at collection (slots + programs + profile); one empty
    // `Vec` per rank would add 24 and fail.
    cost.within("general binomial", p, 344.0, f64::INFINITY);
}

/// The analytic budget at the headline rank count (CI `mega-scale` job).
#[test]
#[ignore = "mega-scale: run in release (CI mega-scale job)"]
fn fast_binomial_1m_ranks_stays_in_budget() {
    fast_binomial(1_000_000);
}
