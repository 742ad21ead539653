//! Self-profiling walkthrough: run a sweep through the lab engine and
//! read the profile it records about itself — per-key wall-clock,
//! worker utilization, cache temperature, and the Eq. 1/2 metric
//! series the runs exported while executing.
//!
//! The same report is what `psse lab run` writes next to the sweep CSV
//! as `<out>.profile.json` (see `DESIGN.md` §10).
//!
//! Run with: `cargo run --release --example self_profile`

use psse::metrics::{Histogram, Json};
use psse::prelude::*;

fn main() {
    // 1. Declare a small 2.5D-matmul model sweep (same text the CLI
    //    accepts via `psse lab run --spec <file>`).
    let spec = SweepSpec::parse(
        "kind = model\n\
         alg = matmul\n\
         machine = jaketown\n\
         n = 8192\n\
         p = pow2:8:512\n\
         mem = geomf:1e6:1e7:4\n",
    )
    .expect("valid spec");

    // 2. Run it profiled. `run_sweep` and `run_sweep_profiled` are one
    //    sweep loop; asking for the profile only makes that loop time
    //    each key and hand it a metrics registry, so the results are
    //    the values the unprofiled call returns.
    let lab = Lab::new(LabConfig::default());
    let (sweep, profile) = lab.run_sweep_profiled(ExpandedSweep::new(spec.expand()));
    let (feasible, infeasible) = sweep.feasibility();
    println!(
        "ran {} evaluations ({feasible} feasible, {infeasible} infeasible) \
         on {} worker(s)\n",
        sweep.results.len(),
        profile.jobs
    );

    // 3. The human-readable report: the five slowest keys plus
    //    per-worker busy/idle bars. This is exactly what the CLI prints.
    print!("{}", profile.render());

    // 4. The same data programmatically. Structure is deterministic:
    //    runs are in spec order, so reruns differ only in the
    //    nanosecond values.
    let slowest = profile.top_slowest(1)[0];
    println!(
        "\nslowest key : {} ({} ns host wall-clock, cached={})",
        profile.runs[slowest].label, profile.runs[slowest].wall_ns, profile.runs[slowest].cached
    );
    println!(
        "worker 0    : {:.1}% busy over a {} ns sweep",
        100.0 * profile.utilization(0),
        profile.wall_ns
    );

    // 5. The metric series exported during execution. `virt.*` series
    //    are recorded per key occurrence (identical across worker
    //    counts and cache temperature); here we pull the modeled-time
    //    histogram back out of the snapshot JSON.
    let virt = profile
        .metrics
        .get("virt.time_ns")
        .expect("virt.time_ns is always recorded");
    let h = psse::metrics::registry::histogram_from_json(virt).expect("canonical histogram JSON");
    print_hist("virt.time_ns", &h);

    // 6. The whole profile round-trips through canonical JSON — what
    //    the CLI writes to disk parses back to an equal value.
    let text = profile.to_json().to_string();
    let reparsed = SweepProfile::from_json(&Json::parse(&text).expect("valid JSON"))
        .expect("canonical profile JSON");
    assert_eq!(reparsed, profile, "profile JSON must round-trip");
    println!("\nprofile JSON: {} bytes, round-trips exactly", text.len());
}

fn print_hist(name: &str, h: &Histogram) {
    println!(
        "\n{name}: {} samples, mean {:.3e} ns, p50 {} ns, max {} ns",
        h.count(),
        h.mean(),
        h.quantile(0.5).unwrap_or(0),
        h.max().unwrap_or(0)
    );
}
