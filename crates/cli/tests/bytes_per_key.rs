//! A memory budget CI can hold for `psse lab run`: peak live heap bytes
//! per key of a ~10⁴-key model sweep, cold and resumed, under a counting
//! global allocator, so the numbers are exact and repeat.
//!
//! A spec may expand to 2²⁰ runs, so the bytes a sweep holds per key
//! decide whether a capped sweep fits at all. Each ceiling sits a little
//! above what the command needs today and well below what it needed
//! while every result was also copied into the engine's memo, every key
//! carried its own machine and fault plan, and the CSV was built as one
//! string (775 B/key cold, 825 resumed; DESIGN's lab section has the
//! table, structure by structure). The default self-profile is printed
//! and held near its own cost (~1 610 B/key before, its records and
//! JSON tree being most of it).
//!
//! The same grid also runs through `Lab::run_sweep`, the library entry
//! point every other sweep (the figure benches, `psse faults sweep`)
//! uses, with the engine still alive when the peak is read: no entry
//! point keeps a second copy of its results (522 B/key while the `&self`
//! entry points copied each result into a memo).
//!
//! The counters are process-wide and count every thread while
//! `measure` runs, the worker pool's included; the runs share one
//! `#[test]`, so no other test allocates meanwhile. A `--jobs 2` sweep
//! is held to what the same sweep needed on `--jobs 1` plus a fixed
//! allowance per worker thread: the pool keeps each result once,
//! whatever the worker count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use psse_lab::prelude::*;

/// The system allocator, counting live bytes and their peak while
/// [`measure`] runs.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static MEASURING: AtomicBool = AtomicBool::new(false);

fn grew(bytes: usize) {
    if MEASURING.load(Relaxed) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if MEASURING.load(Relaxed) {
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

/// 160 × 64 = 10 240 matmul model keys: the shape of the ledger's
/// `lab-model-cold` matmul sweep, rounded `p` duplicates included.
const SPEC: &str = "kind = model\nalg = matmul\nn = 8192\np = geom:4:100000:160\n\
                    mem = geomf:1e3:1e9:64\n";
const KEYS: usize = 160 * 64;

/// Per-worker allowance of a `--jobs 2` sweep over the same sweep's
/// `--jobs 1` peak, in bytes: a thread's spawn records and a key in
/// flight on each worker, with room to spare.
const PER_WORKER: f64 = 16384.0;

/// Run `f` and return its peak live heap over what was live before
/// it, in bytes per key, with what it returned, which is still alive
/// when the peak is read.
fn peak_of<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    MEASURING.store(true, Relaxed);
    let kept = f();
    MEASURING.store(false, Relaxed);
    ((PEAK.load(Relaxed) - before) as f64 / KEYS as f64, kept)
}

/// Run `psse lab run --jobs <jobs> <flags>` and return its peak live
/// heap in bytes per key. Its stdout is dropped after the peak is read;
/// the command fails the test.
fn measure(run: &str, jobs: usize, flags: Vec<String>, ceiling: f64) -> f64 {
    let mut argv: Vec<String> = ["lab", "run", "--jobs"].map(String::from).to_vec();
    argv.push(jobs.to_string());
    argv.extend(flags);
    let (per_key, (outcome, out)) = peak_of(|| {
        let mut out = String::new();
        (psse_cli::run(&argv, &mut out), out)
    });
    outcome.unwrap_or_else(|e| panic!("{run}: {e}\n{out}"));
    assert!(out.contains("10240 ok"), "{run}: {out}");
    println!("{run:18} {per_key:7.0} B/key (ceiling {ceiling:.0})");
    per_key
}

#[test]
fn lab_run_bytes_per_key_stay_in_budget() {
    let dir = std::env::temp_dir().join(format!("psse-bytes-per-key-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).display().to_string();
    std::fs::write(dir.join("grid.spec"), SPEC).unwrap();
    let spec = file("grid.spec");
    let sweep = |journal: &str, extra: &[&str]| -> Vec<String> {
        let journal = file(journal);
        let mut flags = vec!["--spec", &spec, "--journal", &journal, "--scaling"];
        flags.extend(extra);
        let outputs = ["--out", "--pareto"]
            .into_iter()
            .zip(["a.csv", "a.pareto.csv"]);
        (flags.into_iter().map(String::from))
            .chain(outputs.flat_map(|(flag, name)| [flag.to_string(), file(name)]))
            .collect()
    };

    let cold = sweep("grid.journal", &["--profile", "off"]);
    let cold_ceiling = 400.0;
    let cold_peak = measure("cold", 1, cold, cold_ceiling);
    assert!(cold_peak <= cold_ceiling);
    let csv = std::fs::read(dir.join("a.csv")).unwrap();

    let resumed = sweep("grid.journal", &["--profile", "off", "--resume"]);
    let resumed_ceiling = 450.0;
    assert!(measure("resumed", 1, resumed, resumed_ceiling) <= resumed_ceiling);
    assert_eq!(std::fs::read(dir.join("a.csv")).unwrap(), csv);

    // The default profile lands next to the CSV.
    let profiled = sweep("grid.journal", &[]);
    let profiled_ceiling = 1700.0;
    assert!(measure("default profile", 1, profiled, profiled_ceiling) <= profiled_ceiling);
    assert!(Path::new(&file("a.csv.profile.json")).exists());
    assert_eq!(std::fs::read(dir.join("a.csv")).unwrap(), csv);

    // Cold again on two workers, into a journal of its own: what one
    // worker needed, plus the allowance for each worker.
    let parallel = sweep("jobs2.journal", &["--profile", "off"]);
    let parallel_ceiling = cold_peak + 2.0 * PER_WORKER / KEYS as f64;
    assert!(measure("cold, --jobs 2", 2, parallel, parallel_ceiling) <= parallel_ceiling);
    assert_eq!(std::fs::read(dir.join("a.csv")).unwrap(), csv);

    // The library's `&self` entry point, held to the cold ceiling with
    // the engine and its results alive when the peak is read.
    let (per_key, (lab, sweep)) = peak_of(|| {
        let lab = Lab::new(LabConfig {
            jobs: 1,
            ..LabConfig::default()
        });
        let spec = SweepSpec::parse(SPEC).unwrap();
        let sweep = lab.run_sweep(ExpandedSweep::new(spec.expand()));
        (lab, sweep)
    });
    println!(
        "{:18} {per_key:7.0} B/key (ceiling {cold_ceiling:.0})",
        "Lab::run_sweep"
    );
    assert_eq!((sweep.results.len(), sweep.failures()), (KEYS, 0));
    assert_eq!(sweep_csv(&sweep.keys, &sweep.results).into_bytes(), csv);
    assert!(per_key <= cold_ceiling);
    drop((lab, sweep));
    let _ = std::fs::remove_dir_all(&dir);
}
