//! Scaling-band audit for the non-linear-algebra workloads: where does
//! perfect strong scaling survive once the algorithm is a sort or a
//! stencil instead of a matmul?
//!
//! * **Stencil** (`psse_core::costs::HaloStencilModel`): S is constant
//!   per sweep and W is a surface term `Θ(h·n/√p)`, so inside
//!   `[p_min, p_max] = [n²/M, (n/2h)²]` the volume term dominates and
//!   `T·p` stays flat to within the quantified surface + latency
//!   residuals — an ε-perfect band whose width is machine-dependent
//!   (unlike matmul's unconditional band).
//! * **Sample sort** (`SampleSortModel`): W attains the
//!   Scquizzato–Silvestri `Ω(n/p)` bound, but `S = 2(p−1)` grows with
//!   `p` — the same mechanism as the paper's §IV FFT counterexample —
//!   so no perfect band exists and `T·p` blows up past the compute
//!   crossover. The bench quantifies that departure.
//!
//! Both sections cross-check the model against *measured* counters from
//! real simulator runs: the stencil's closed form is matched exactly,
//! the sort's within the splitter-sample constant.

use super::Artifact;
use crate::report::{ascii_plot_loglog, banner, sci, Table};
use psse_algos::prelude::*;
use psse_core::costs::{Algorithm, HaloStencilModel, SampleSortModel};
use psse_core::params::MachineParams;
use psse_sim::machine::SimConfig;

/// Flat-network machine for the band charts: latency low enough that
/// the stencil's constant-S floor stays a labelled residual instead of
/// drowning the surface term (see the model tests for the arithmetic).
fn machine() -> MachineParams {
    MachineParams::builder()
        .gamma_t(1e-9)
        .beta_t(1e-8)
        .alpha_t(1e-7)
        .gamma_e(1e-9)
        .beta_e(1e-8)
        .alpha_e(1e-7)
        .max_message_words(1e4)
        .build()
        .unwrap()
}

fn stencil_band(out: &mut Vec<Artifact>) {
    banner("Stencil: ε-perfect scaling band from surface-to-volume");
    let alg = HaloStencilModel { halo: 1, iters: 4 };
    let mp = machine();
    let n: u64 = 1 << 12;
    let mem = (n * n) as f64 / 16.0; // one copy at p_min = 16
    let range = alg.strong_scaling_range(n, mem).unwrap();
    println!(
        "band: p_min = {} (tile fits), p_max = {} (tile side = 2h)",
        sci(range.p_min),
        sci(range.p_max)
    );

    // The structural band [p_min, p_max] says where the decomposition
    // is *valid*; the ε-band is where T·p actually stays within ε of
    // flat. The surface term grows like √p relative to the fixed
    // volume, so the ε-band is a strict prefix of the structural band —
    // the chart shows both, and the CSV records the drift per point.
    const EPS: f64 = 0.10;
    let mut table = Table::new(&["p", "W*p", "T*p", "Tp/Tp_min", "in_band", "eps_perfect"]);
    let mut pts = Vec::new();
    let mut tp_min = 0.0f64;
    let mut eps_edge = 0u64;
    let mut p = 16u64;
    while p <= 1 << 14 {
        let m = alg.min_memory(n, p);
        let in_band = range.contains(p as f64);
        match alg.costs(n, p, m, &mp) {
            Ok(c) => {
                let tp = mp.time(&c) * p as f64;
                if tp_min == 0.0 {
                    tp_min = tp;
                }
                let drift = (tp / tp_min - 1.0).abs();
                let eps_ok = in_band && drift <= EPS;
                if eps_ok {
                    eps_edge = p;
                }
                table.row(&[
                    p.to_string(),
                    sci(c.words * p as f64),
                    sci(tp),
                    format!("{:.4}", tp / tp_min),
                    if in_band { "yes" } else { "no" }.into(),
                    if eps_ok { "yes" } else { "no" }.into(),
                ]);
                pts.push((p as f64, tp));
            }
            Err(_) => {
                // Past p_max the halo exceeds the tile: the model
                // rejects instead of extrapolating.
                table.row(&[
                    p.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "no (rejected)".into(),
                    "no".into(),
                ]);
            }
        }
        p *= 2;
    }
    println!("{}", table.render());
    out.push(("scaling_band_stencil.csv", table.to_csv()));
    println!("{}", ascii_plot_loglog(&[("stencil T*p", &pts)], 64, 12));
    println!(
        "ε-perfect band (ε = {:.0}%): 16 ≤ p ≤ {eps_edge} on this machine \
         (structural band continues to {}; the 1/√p surface term plus the \
         constant-latency floor take over first)",
        EPS * 100.0,
        sci(range.p_max)
    );
    assert!(
        eps_edge >= 4096,
        "the ε-band must span at least 16..4096 on the flat-network machine, got {eps_edge}"
    );

    // Measured cross-check: the model's W is the exact surface closed
    // form, so simulator counters must match it to the word.
    let ns = 64usize;
    let grid = random_grid(ns, 2);
    for p in [4usize, 16] {
        let (_, profile) =
            halo_stencil(&grid, ns, 1, 4, Decomp::TwoD, p, SimConfig::counters_only()).unwrap();
        let c = alg
            .costs(
                ns as u64,
                p as u64,
                alg.min_memory(ns as u64, p as u64),
                &mp,
            )
            .unwrap();
        let measured = profile.total_words_sent() as f64 / p as f64;
        assert_eq!(
            measured, c.words,
            "p={p}: measured words must equal the surface closed form"
        );
        println!("measured p={p}: W = {measured} words/rank — matches model exactly");
    }
}

fn samplesort_departure(out: &mut Vec<Artifact>) {
    banner("Sample sort: departure from 1/p (no perfect band exists)");
    let alg = SampleSortModel;
    let mp = machine();
    let n: u64 = 1 << 20;
    assert!(
        alg.strong_scaling_range(n, 1e9).is_none(),
        "sorting must report no perfect strong scaling range"
    );

    let mut table = Table::new(&["p", "W*p", "S", "T*p", "Tp/Tp_min"]);
    let mut pts = Vec::new();
    let mut tp_min = 0.0f64;
    let mut last_ratio = 0.0f64;
    let mut p = 16u64;
    while p <= 1 << 12 {
        let m = alg.min_memory(n, p);
        let c = alg.costs(n, p, m, &mp).unwrap();
        let tp = mp.time(&c) * p as f64;
        if tp_min == 0.0 {
            tp_min = tp;
        }
        last_ratio = tp / tp_min;
        table.row(&[
            p.to_string(),
            sci(c.words * p as f64),
            sci(c.messages),
            sci(tp),
            format!("{:.3}", last_ratio),
        ]);
        pts.push((p as f64, tp));
        p *= 2;
    }
    println!("{}", table.render());
    out.push(("samplesort_departure.csv", table.to_csv()));
    println!("{}", ascii_plot_loglog(&[("samplesort T*p", &pts)], 64, 12));
    println!(
        "departure at p = 4096: T*p has grown {last_ratio:.1}x — the α·2(p−1) \
         all-to-all latency term (paper §IV's FFT mechanism), compounded past \
         p³ ≈ n by the (p−1)² splitter-sample words"
    );
    assert!(
        last_ratio > 10.0,
        "the latency term must dominate by an order of magnitude: {last_ratio}"
    );

    // Measured cross-check: real runs attain Ω(n/p) within the
    // splitter-sample constant and pay exactly 2(p−1) messages.
    let ns = 1usize << 14;
    let keys = random_keys(ns, 3);
    for p in [4usize, 8, 16] {
        let (_, profile) = sample_sort(&keys, p, SimConfig::counters_only()).unwrap();
        let measured = profile.total_words_sent() as f64 / p as f64;
        let bound = ns as f64 / p as f64;
        assert!(
            measured >= (1.0 - 1.0 / p as f64) * bound * 0.9
                && measured <= 1.1 * (bound + ((p - 1) * (p - 1)) as f64),
            "p={p}: measured {measured} vs Ω(n/p) = {bound}"
        );
        assert_eq!(profile.max_msgs_sent() as usize, 2 * (p - 1));
        println!(
            "measured p={p}: W = {measured} words/rank (bound {bound}), S = {} msgs",
            profile.max_msgs_sent()
        );
    }
}

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    stencil_band(&mut out);
    samplesort_departure(&mut out);
    println!("\nscaling_band_workloads: all assertions passed");
    out
}
