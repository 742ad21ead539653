//! Regenerates paper **Fig. 3**: "Limits of communication strong scaling
//! for matrix multiplication" — `W·p` (bandwidth cost × processors)
//! versus `p`, for classical (`ω = 3`) and Strassen-like
//! (`ω0 = log₂7`) matmul.
//!
//! The flat region is perfect strong scaling (communication volume per
//! processor shrinks like `1/p`); past `p = n^ω/M^(ω/2)` the
//! memory-independent lower bound takes over and `W·p` rises as
//! `p^(1/3)` (classical) / `p^(1−2/ω0)` (Strassen-like) — the
//! Strassen-like curve leaves the flat region **earlier**, exactly as in
//! the paper's figure.
//!
//! A second section cross-checks the flat region against *measured*
//! words from real 2.5D runs on the simulator.

use super::Artifact;
use crate::report::{ascii_plot_loglog, banner, sci, svg_plot, Scale, Table};
use psse_algos::prelude::*;
use psse_core::prelude::*;
use psse_kernels::matrix::Matrix;
use psse_sim::machine::SimConfig;

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("Figure 3: limits of communication strong scaling");

    // Model curves. Problem first fits at p_min = n²/M = 64 processors;
    // classical scaling saturates at p_min^(3/2) = 512 (the paper's
    // x-axis tick labels are p_min, p_min^(3/2)).
    let n: u64 = 1 << 13;
    let mem = (n as f64) * (n as f64) / 64.0;
    let classical = fig3_series(n, mem, 3.0, 28, 64.0);
    let strassen = fig3_series(n, mem, STRASSEN_OMEGA, 28, 64.0);

    let mut table = Table::new(&[
        "p",
        "W*p classical",
        "perfect(cl)",
        "W*p strassen-like",
        "perfect(st)",
    ]);
    for (c, s) in classical.iter().zip(&strassen) {
        table.row(&[
            c.p.to_string(),
            sci(c.words_times_p),
            if c.perfect { "yes" } else { "no" }.into(),
            sci(s.words_times_p),
            if s.perfect { "yes" } else { "no" }.into(),
        ]);
    }
    println!("{}", table.render());
    out.push(("fig3_strong_scaling.csv", table.to_csv()));

    let c_pts: Vec<(f64, f64)> = classical
        .iter()
        .map(|pt| (pt.p as f64, pt.words_times_p))
        .collect();
    let s_pts: Vec<(f64, f64)> = strassen
        .iter()
        .map(|pt| (pt.p as f64, pt.words_times_p))
        .collect();
    println!(
        "{}",
        ascii_plot_loglog(&[("classical", &c_pts), ("strassen-like", &s_pts)], 64, 16)
    );
    out.push((
        "fig3_strong_scaling.svg",
        svg_plot(
            "Fig. 3: limits of communication strong scaling",
            "p (processors)",
            "W * p (bandwidth cost x processors)",
            &[("classical", &c_pts), ("strassen-like", &s_pts)],
            Scale::Log,
            Scale::Log,
        ),
    ));

    let p_limit_cl = classical.iter().rfind(|pt| pt.perfect).unwrap().p;
    let p_limit_st = strassen.iter().rfind(|pt| pt.perfect).unwrap().p;
    println!(
        "scaling limit (classical):     p ≈ {p_limit_cl}  (theory: n³/M^(3/2) = {})",
        sci((n as f64).powi(3) / mem.powf(1.5))
    );
    println!(
        "scaling limit (strassen-like): p ≈ {p_limit_st}  (theory: n^ω/M^(ω/2) = {})",
        sci((n as f64).powf(STRASSEN_OMEGA) / mem.powf(STRASSEN_OMEGA / 2.0))
    );
    assert!(
        p_limit_st < p_limit_cl,
        "Strassen-like scaling must saturate earlier (paper Fig. 3)"
    );

    // Measured cross-check: run 2.5D matmul with fixed per-rank memory
    // (fixed q = 8, so the shift phase dominates) and growing
    // replication c — the flat region made real. At toy sizes the O(1)
    // skew/replication terms are visible, so we assert the *shape*:
    // per-rank W falls monotonically while p grows 4x, and W·p stays
    // within a small constant (past the limit it would grow without
    // bound).
    banner("Fig. 3 cross-check: measured W·p on the simulator (2.5D runs)");
    let nn = 64usize;
    let a = Matrix::random(nn, nn, 1);
    let b = Matrix::random(nn, nn, 2);
    let mut mtable = Table::new(&["p", "c", "max W/rank (words)", "W*p", "vs c=1"]);
    let mut base: Option<f64> = None;
    let mut prev_w = u64::MAX;
    for c in [1usize, 2, 4] {
        let p = 64 * c; // q = 8 fixed ⇒ fixed block size / memory per rank
        let (_, profile) = matmul_25d(&a, &b, p, c, SimConfig::counters_only()).unwrap();
        let w = profile.max_words_sent();
        let wp = w as f64 * p as f64;
        let flat = match base {
            None => {
                base = Some(wp);
                "ref".to_string()
            }
            Some(b0) => format!("{:.2}x", wp / b0),
        };
        mtable.row(&[p.to_string(), c.to_string(), w.to_string(), sci(wp), flat]);
        assert!(w < prev_w, "per-rank W must fall as p grows at fixed M");
        assert!(wp <= base.unwrap() * 2.5, "W·p must stay within a constant");
        prev_w = w;
    }
    println!("{}", mtable.render());
    out.push(("fig3_measured.csv", mtable.to_csv()));
    println!(
        "Per-rank W falls monotonically while p grows 4x and W·p stays within\n\
         a small constant of the 2D baseline — the flat region, measured\n\
         (algorithmic O(1) skew/replication terms account for the drift;\n\
         past the scaling limit W·p would grow as p^(1/3))."
    );
    out
}
