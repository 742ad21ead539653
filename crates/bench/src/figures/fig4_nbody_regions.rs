//! Regenerates paper **Fig. 4(a–c)**: possible executions of the
//! data-replicating n-body algorithm in the `(p, M)` plane for fixed
//! `n`, with contrived-but-illustrative machine parameters (as in the
//! paper: "these graphs are for illustrative purposes only, and use
//! contrived parameters").
//!
//! * **(a)** energy as a function of `M` (independent of `p`!), the
//!   minimum at `M = M0`, and equally spaced constant-runtime contours;
//! * **(b)** the runs feasible within an energy budget and within a
//!   per-processor power budget;
//! * **(c)** the runs feasible within a runtime cap and a total power
//!   budget, plus the minimum-energy line `M = M0`.
//!
//! The feasible region is bounded by the thick 1D (`M = n/p`) and 2D
//! (`M = n/√p`) limits. Each panel is emitted as a CSV grid and an ASCII
//! region map; the §V closed forms are cross-checked against the grid.

use super::Artifact;
use crate::report::{banner, sci, svg_plot, Scale, Table};
use psse_core::costs::{Algorithm, DirectNBody};
use psse_core::params::MachineParams;
use psse_lab::prelude::{Lab, LabConfig, RunKey};

/// Contrived machine, tuned so that `M0 = sqrt(B/D) = 1000` sits
/// mid-wedge for `n = 10⁴`, the flop energy baseline is ~1 J, and the
/// communication and memory energies at `M0` are ~0.5 J each — a clearly
/// visible dip, with the `M0` line feasible for `p ∈ [10, 100]`.
fn contrived() -> MachineParams {
    MachineParams::builder()
        .gamma_t(1e-9)
        .beta_t(2e-8)
        .alpha_t(1e-6)
        .gamma_e(1e-9)
        .beta_e(4e-6)
        .alpha_e(1e-4)
        .delta_e(5e-4)
        .epsilon_e(0.0)
        .max_message_words(100.0)
        .mem_words(1e12)
        .build()
        .unwrap()
}

const F: f64 = 10.0;
const N: u64 = 10_000;

fn feasible(nb: &DirectNBody, p: u64, m: f64) -> bool {
    nb.memory_range(N, p)
        .is_ok_and(|(lo, hi)| (lo..=hi).contains(&m))
}

/// Render an ASCII map over the (p, M) plane; `class` returns a marker
/// character for feasible cells.
fn region_map(title: &str, class: impl Fn(u64, f64) -> char) {
    let nb = DirectNBody {
        flops_per_interaction: F,
    };
    println!("\n{title}");
    println!("  M (rows, log-spaced high→low) vs p (cols, 6..100)");
    let m_lo = nb.min_memory(N, 100);
    let m_hi = nb.max_useful_memory(N, 6);
    for mi in (0..18).rev() {
        let m = m_lo * (m_hi / m_lo).powf(mi as f64 / 17.0);
        let mut line = format!("  M={:>9.1} |", m);
        for pi in 0..48 {
            let p = (6.0 * (100.0f64 / 6.0).powf(pi as f64 / 47.0)).round() as u64;
            line.push(if feasible(&nb, p, m) {
                class(p, m)
            } else {
                ' '
            });
        }
        println!("{line}");
    }
    println!("               +{}", "-".repeat(48));
    println!("                p = 6 .. 100 (log)");
}

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("Figure 4: executions of the data-replicating n-body algorithm");
    let mp = contrived();
    let nb = DirectNBody {
        flops_per_interaction: F,
    };
    let at = |p: u64, m: f64| nb.evaluate(&mp, N, p, m).unwrap();

    let optimum = nb.energy_optimum(&mp, N).unwrap();
    let (m0, e_star) = (optimum.m0, optimum.e_star);
    let (p_lo, p_hi) = (optimum.p_lo, optimum.p_hi);
    println!("n = {N}, f = {F}");
    println!("M0 (energy-optimal memory)   = {}", sci(m0));
    println!("E* (minimum energy)          = {} J", sci(e_star));
    println!(
        "M0 feasible for p in         [{}, {}]",
        sci(p_lo),
        sci(p_hi)
    );

    // Panel (a): energy vs M (p-independent) + time contours.
    banner("Fig. 4(a): energy (independent of p) and constant-time contours");
    let mut ta = Table::new(&["M", "E (J)", "E/E*"]);
    let m_lo = nb.min_memory(N, 100);
    let m_hi = nb.max_useful_memory(N, 6);
    for i in 0..25 {
        let m = m_lo * (m_hi / m_lo).powf(i as f64 / 24.0);
        let cfg = at(50, m);
        ta.row(&[
            sci(m),
            sci(cfg.energy),
            format!("{:.3}", cfg.energy / e_star),
        ]);
    }
    println!("{}", ta.render());
    out.push(("fig4a_energy_vs_memory.csv", ta.to_csv()));
    let e_curve: Vec<(f64, f64)> = (0..60)
        .map(|i| {
            let m = m_lo * (m_hi / m_lo).powf(i as f64 / 59.0);
            (m, at(50, m).energy)
        })
        .collect();
    out.push((
        "fig4a_energy_vs_memory.svg",
        svg_plot(
            "Fig. 4(a): n-body energy vs memory (independent of p)",
            "M (words per processor)",
            "E (J)",
            &[("E(M)", &e_curve)],
            Scale::Log,
            Scale::Log,
        ),
    ));

    // The (p, M) grid with T and E for external contour plotting —
    // routed through the psse-lab batch engine: the keys expand in the
    // same nested order as the old inline loop, the pool executes them
    // on every core, and the runner prices n-body with the identical
    // `DirectNBody::evaluate` floats, so the CSV bytes are unchanged.
    let lab = Lab::new(LabConfig::default());
    let mut keys = Vec::new();
    for pi in 0..30 {
        let p = (6.0 * (100.0f64 / 6.0).powf(pi as f64 / 29.0)).round() as u64;
        for mi in 0..30 {
            let m = m_lo * (m_hi / m_lo).powf(mi as f64 / 29.0);
            let mut k = RunKey::model("nbody", N, p, mp.clone());
            k.f = F;
            k.mem = m;
            keys.push(k);
        }
    }
    let results = lab.run_keys(&keys);
    let mut grid = Table::new(&["p", "M", "T", "E", "P"]);
    for (k, r) in keys.iter().zip(&results) {
        let r = r.as_ref().expect("n-body model run");
        if r.feasible {
            grid.row(&[
                k.p.to_string(),
                sci(k.mem),
                sci(r.time),
                sci(r.energy),
                sci(r.energy / r.time),
            ]);
        }
    }
    out.push(("fig4_grid.csv", grid.to_csv()));

    let t_mid = at(30, m0).time;
    region_map(
        "Fig. 4(a) region: '=' cells within the feasible wedge; 'T' on the\n\
         T ≈ T(p=30, M0) contour; 'E' on the minimum-energy line M ≈ M0",
        |p, m| {
            let cfg = at(p, m);
            if (m / m0).ln().abs() < 0.15 {
                'E'
            } else if (cfg.time / t_mid).ln().abs() < 0.08 {
                'T'
            } else {
                '='
            }
        },
    );

    // Panel (b): energy budget and per-processor power budget.
    banner("Fig. 4(b): runs within an energy budget / per-processor power budget");
    let emax = e_star * 1.3;
    let pmax_proc = nb.average_power(&mp, 1.0, m0).unwrap() * 1.5;
    let m_cap = nb.max_memory_given_proc_power(&mp, pmax_proc).unwrap();
    println!("energy budget Emax = 1.3·E* = {} J", sci(emax));
    println!(
        "per-proc power budget = {} W  → memory cap M ≤ {}",
        sci(pmax_proc),
        sci(m_cap)
    );
    region_map(
        "'e' = within Emax; 'w' = within per-proc power cap; 'b' = both",
        |p, m| {
            let cfg = at(p, m);
            let e_ok = cfg.energy <= emax;
            let w_ok = m <= m_cap;
            match (e_ok, w_ok) {
                (true, true) => 'b',
                (true, false) => 'e',
                (false, true) => 'w',
                (false, false) => '.',
            }
        },
    );
    let fastest = nb.min_time_given_emax(&mp, N, emax).unwrap();
    println!(
        "minimum runtime within Emax: T = {} s at p = {}, M = {} (2D boundary)",
        sci(fastest.time),
        sci(fastest.p),
        sci(fastest.mem)
    );

    // Panel (c): runtime cap and total power budget.
    banner("Fig. 4(c): runs within a max time / total power budget");
    let tmax = nb.tmax_threshold(&mp).unwrap() * 2.0;
    // Budget sized so the Tmax region and the power region overlap (the
    // paper's "minimum energy and runtime given total power limit" dot).
    let p_total = nb.average_power(&mp, 70.0, m0).unwrap();
    println!(
        "runtime cap Tmax = {} s; total power budget = {} W",
        sci(tmax),
        sci(p_total)
    );
    region_map(
        "'t' = meets Tmax; 'w' = within total power; 'b' = both; '.' = neither",
        |p, m| {
            let cfg = at(p, m);
            let t_ok = cfg.time <= tmax;
            let w_ok = nb.average_power(&mp, p as f64, m).unwrap() <= p_total;
            match (t_ok, w_ok) {
                (true, true) => 'b',
                (true, false) => 't',
                (false, true) => 'w',
                (false, false) => '.',
            }
        },
    );
    let cheapest = nb.min_energy_given_tmax(&mp, N, tmax).unwrap();
    println!(
        "minimum energy within Tmax: E = {} J at p = {}, M = {}",
        sci(cheapest.energy),
        sci(cheapest.p),
        sci(cheapest.mem)
    );

    // Cross-checks: closed forms vs brute-force over the grid.
    banner("closed-form vs grid cross-checks");
    let mut best_e = f64::MAX;
    let mut best_m = 0.0;
    for mi in 0..4000 {
        let m = m_lo * (m_hi / m_lo).powf(mi as f64 / 3999.0);
        let e = at(50, m).energy;
        if e < best_e {
            best_e = e;
            best_m = m;
        }
    }
    println!(
        "grid argmin M = {} vs closed-form M0 = {}  (ratio {:.4})",
        sci(best_m),
        sci(m0),
        best_m / m0
    );
    println!(
        "grid min E   = {} vs closed-form E*  = {}  (ratio {:.6})",
        sci(best_e),
        sci(e_star),
        best_e / e_star
    );
    assert!((best_m / m0 - 1.0).abs() < 0.01);
    assert!((best_e / e_star - 1.0).abs() < 1e-4);
    println!("OK: Section V closed forms match the brute-force grid.");
    out
}
