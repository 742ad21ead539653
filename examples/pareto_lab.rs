//! psse-lab walkthrough: declare a sweep, run it on every core, and
//! extract the (time, energy) Pareto frontier plus the detected
//! perfect-strong-scaling range — cross-checked against the paper's
//! closed forms.
//!
//! Run with: `cargo run --release --example pareto_lab`

use psse::prelude::*;

fn main() {
    // 1. Declare the sweep: a 2.5D matmul (p, M) grid on the Table I
    //    machine. The same text works from the CLI:
    //    `psse lab run --spec <file> --jobs 8 --pareto front.csv`.
    let spec = SweepSpec::parse(
        "kind = model\n\
         alg = matmul\n\
         machine = jaketown\n\
         n = 8192\n\
         p = pow2:1:1024\n\
         mem = geomf:7e4:7e7:24\n",
    )
    .expect("valid spec");
    println!(
        "sweep: {} runs (alg `{}`, machine `{}`)",
        spec.len(),
        spec.key.alg,
        spec.machine_name
    );

    // 2. Run it. The pool uses every core; results come back in spec
    //    order, so the output is identical for any worker count. A
    //    repeated key runs once; a second run of the spec runs again
    //    unless a cache dir (`LabConfig::cache_dir`) holds its results.
    let lab = Lab::new(LabConfig::default());
    let sweep = lab.run_spec(&spec);
    let (feasible, infeasible) = sweep.feasibility();
    let stats = lab.cache_stats();
    println!(
        "ran {} evaluations ({feasible} feasible, {infeasible} infeasible); \
         cache: {} misses, {} hits",
        sweep.results.len(),
        stats.misses,
        stats.hits
    );

    // 3. The (T, E) Pareto frontier over the feasible runs: every point
    //    on it is a run no other run beats on both time and energy.
    let idx: Vec<usize> = (0..sweep.keys.len())
        .filter(|&i| matches!(&sweep.results[i], Ok(r) if r.feasible))
        .collect();
    let pts: Vec<(f64, f64)> = idx
        .iter()
        .map(|&i| {
            let r = sweep.results[i].as_ref().unwrap();
            (r.time, r.energy)
        })
        .collect();
    let frontier = pareto_indices(&pts);
    println!(
        "\nPareto frontier ({} of {} feasible runs):",
        frontier.len(),
        pts.len()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "p", "M (words)", "T (s)", "E (J)"
    );
    for &fi in &frontier {
        let key = &sweep.keys[idx[fi]];
        let (t, e) = pts[fi];
        println!("{:>6} {:>12.3e} {:>12.4e} {:>12.4e}", key.p, key.mem, t, e);
    }

    // 4. Each frontier point sits inside the paper's perfect strong
    //    scaling band [p_min, p_max] for its memory (bounds.rs, Eq. 9).
    for &fi in &frontier {
        let key = &sweep.keys[idx[fi]];
        let r = sweep.results[idx[fi]].as_ref().unwrap();
        let band = ClassicalMatMul
            .strong_scaling_range(key.n, r.mem_used)
            .expect("2.5D matmul scales perfectly");
        assert!(band.contains(key.p as f64));
    }
    println!("\nevery frontier point lies inside its [p_min, p_max] band (Eq. 9)");

    // 5. A fixed-memory p-ladder recovers the band by measurement: T
    //    drops as 1/p while E stays flat, exactly between the closed-form
    //    endpoints.
    let mem = 1.0e6;
    let ladder = SweepSpec::parse(&format!(
        "kind = model\nalg = matmul\nmachine = jaketown\nn = 8192\np = 64..512..8\nmem = {mem}\n"
    ))
    .unwrap();
    let run = lab.run_spec(&ladder);
    let samples: Vec<(u64, f64, f64)> = run
        .keys
        .iter()
        .zip(&run.results)
        .filter_map(|(k, r)| {
            let r = r.as_ref().ok()?;
            r.feasible.then_some((k.p, r.time, r.energy))
        })
        .collect();
    let detected = detect_scaling_range(&samples, 1e-9).expect("a scaling range");
    let closed = ClassicalMatMul.strong_scaling_range(8192, mem).unwrap();
    println!(
        "detected perfect strong scaling for p in [{}, {}] at M = {mem:.0} \
         (closed form: [{:.0}, {:.0}])",
        detected.p_min, detected.p_max, closed.p_min, closed.p_max
    );
}
