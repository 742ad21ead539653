//! One benchmark run: one workload, one seed, one process.
//!
//! Closed loop, one driver thread: the next iteration starts when the
//! previous one has finished and been checked. Set-up (input generation
//! from the seed, journal pre-population, two discarded warm-up
//! iterations) is repeated [`SETUP_ROUNDS`] times and reported as a
//! median, so work a later change moves into set-up shows. End-to-end
//! numbers come from iterations with tracing off; a traced run measures
//! a shorter untraced window first, then repeats one iteration under
//! spans and runs the workload's per-layer probes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::check::{stat_drift, Checks};
use crate::gen::Scale;
use crate::host::{cpu_seconds, high_percentile, iqr_share, median, peak_rss_mb};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::Tracer;
use crate::workloads::{self, LayerMetrics, Workload};

/// Set-up repetitions per run (median reported).
const SETUP_ROUNDS: usize = 3;
/// Discarded warm-up iterations per set-up round: allocator first touch
/// and the rank-thread pool are warm before anything is timed.
const WARMUPS: usize = 2;
/// Fewest measured iterations, however short the window.
const MIN_ITERS: usize = 3;
/// Most traced iterations (fewer when one takes over a second).
const TRACED_REPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Emit per-layer metrics from a traced run instead of end-to-end.
    pub trace: bool,
    /// Shrunken sizes (smoke test).
    pub quick: bool,
    /// Output directory (scratch space, trace dumps).
    pub out: PathBuf,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// No operation failed and no pinned statistic drifted.
    pub correct: bool,
    /// Operations and consistency checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// `(name, value, unit)` — every end-to-end metric (untraced run) or
    /// every per-layer metric (traced run), in table order.
    pub metrics: LayerMetrics,
    /// Failure notes and bookkeeping for the human report.
    pub notes: Vec<String>,
}

impl BenchResult {
    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Default output directory: next to the build products, which the
/// root `.gitignore` already covers.
pub fn default_out() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("psse-ledger")
}

/// `PSSE_*` variables change what the programs under test do (worker
/// counts, fast-path switches): clear them, and say which were set.
fn clear_psse_env() -> Vec<String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PSSE_"))
        .collect();
    for k in &set {
        std::env::remove_var(k);
    }
    set
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One untimed restore, one timed iteration, one untimed check.
/// Returns `(wall seconds, CPU seconds)` of the iteration alone.
fn one_iteration(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<(f64, f64), String> {
    w.restore()?;
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    tr.span("iter", |tr| w.iterate(tr));
    let spent = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
    w.verify(checks);
    Ok(spent)
}

/// Run one workload as `opts` says.
pub fn run(opts: &BenchOpts) -> Result<BenchResult, String> {
    let cleared = clear_psse_env();
    let scale = if opts.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let mut w = workloads::build(&opts.workload, opts.seed, scale)?;
    let scratch = Scratch(opts.out.join(format!(
        "scratch-{}-{}",
        opts.workload,
        std::process::id()
    )));
    let mut checks = Checks::default();
    let mut off = Tracer::new(false);

    let mut setup_secs = Vec::with_capacity(SETUP_ROUNDS);
    for round in 0..SETUP_ROUNDS {
        let dir = scratch.0.join(format!("setup{round}"));
        let t0 = Instant::now();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        w.setup(&dir)?;
        for _ in 0..WARMUPS {
            one_iteration(w.as_mut(), &mut off, &mut checks)?;
        }
        setup_secs.push(t0.elapsed().as_secs_f64());
    }

    // A traced run spends half its window on the untraced reference.
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (mut wall, mut cpu) = (Vec::new(), 0.0);
    let t0 = Instant::now();
    while wall.len() < MIN_ITERS || t0.elapsed().as_secs_f64() < window {
        let (w_s, c_s) = one_iteration(w.as_mut(), &mut off, &mut checks)?;
        wall.push(w_s);
        cpu += c_s;
    }
    let rss = peak_rss_mb();
    let wall_s = median(&wall);
    let digest = w.stat_digest()?;
    let drift = stat_drift(&opts.workload, opts.seed, opts.quick, &digest)?;

    let mut notes = vec![
        format!("stat digest {digest} (seed {})", opts.seed),
        format!(
            "{} iterations: min {:.6} s, median {wall_s:.6} s, max {:.6} s, IQR/median {:.4}",
            wall.len(),
            wall.iter().copied().fold(f64::INFINITY, f64::min),
            wall.iter().copied().fold(0.0, f64::max),
            iqr_share(&wall)
        ),
        format!("set-up rounds: {setup_secs:.3?} s"),
        format!("PSSE_* variables cleared: {cleared:?}"),
    ];
    let metrics = if opts.trace {
        traced(w.as_mut(), opts, &wall, &mut checks, drift)?
    } else {
        let values = [
            median(&setup_secs),
            wall_s,
            w.work_units() as f64 / wall_s,
            cpu / wall.len() as f64,
            rss,
        ];
        notes.push(format!(
            "work unit: {} {} per iteration",
            w.work_units(),
            w.unit()
        ));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.0, v, m.1))
            .collect()
    };
    notes.extend(checks.notes.iter().cloned());
    if drift > 0 {
        notes.push(format!(
            "STAT DRIFT: digest {digest} differs from the pin in pins.json"
        ));
    }
    Ok(BenchResult {
        correct: checks.failed == 0 && drift == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        notes,
    })
}

/// The traced part of a run: one iteration under spans, the workload's
/// layer probes, the span dump, and the per-layer metric list (every
/// table entry, `0` where this workload does not exercise the layer).
fn traced(
    w: &mut dyn Workload,
    opts: &BenchOpts,
    untraced: &[f64],
    checks: &mut Checks,
    drift: u64,
) -> Result<LayerMetrics, String> {
    let mut tr = Tracer::new(true);
    // Repeat the traced iteration while it is cheap, so span-derived
    // numbers are means over a few iterations rather than one sample.
    let (mut traced_secs, t0) = (Vec::new(), Instant::now());
    while traced_secs.is_empty()
        || (traced_secs.len() < TRACED_REPS && t0.elapsed().as_secs_f64() < 1.0)
    {
        traced_secs.push(one_iteration(w, &mut tr, checks)?.0);
    }
    let iter_self = tr.self_times().get("iter").copied().unwrap_or(0.0) / traced_secs.len() as f64;
    let mut layer = tr.span("probes", |tr| w.layer_probes(tr, checks))?;
    let (hi_pct, hi_s) = high_percentile(untraced);
    layer.extend([
        ("driver.iters", untraced.len() as f64, "count"),
        ("driver.iter_hi_s", hi_s, "s"),
        ("driver.iter_hi_pct", hi_pct, "%"),
        (
            "driver.trace_overhead_ratio",
            median(&traced_secs) / median(untraced),
            "ratio",
        ),
        // Iteration time outside every layer call: the driver's own.
        ("driver.residual_s", iter_self, "s"),
        ("driver.fail_frac", checks.fail_frac(), "ratio"),
        ("driver.stat_drift", drift as f64, "count"),
    ]);
    write_trace(&opts.out, &opts.workload, opts.seed, &tr)?;
    for (name, _, unit) in &layer {
        let known = PER_LAYER.iter().any(|m| m.0 == *name && m.1 == *unit);
        if !known {
            return Err(format!(
                "`{name}` [{unit}] is not in the per-layer metric table"
            ));
        }
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = layer.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            (name, value, unit)
        })
        .collect())
}

/// Write `trace.<workload>.json`: the spans and their self times.
fn write_trace(out: &Path, workload: &str, seed: u64, tr: &Tracer) -> Result<(), String> {
    let path = out.join(format!("trace.{workload}.json"));
    let doc = Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("root_total_s", Json::Num(tr.root_total())),
        (
            "self_time_s",
            Json::obj(tr.self_times().into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("spans", tr.to_json()),
    ]);
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}
