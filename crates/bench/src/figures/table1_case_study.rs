//! Regenerates paper **Table I**: the parameters of the §VI case-study
//! machine (dual-socket Intel Sandy Bridge "Jaketown"), plus the model's
//! predictions for the case-study run that Figs. 6–7 are built on.

use super::Artifact;
use crate::report::{banner, sci, Table};
use psse_core::energy::{e_matmul_25d, gflops_per_watt};
use psse_core::machines::{jaketown, table2};
use psse_core::tech_scaling::CaseStudy;
use psse_core::time::t_matmul_25d;

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("Table I: case-study machine parameters (Jaketown)");
    let mp = jaketown();

    let mut t = Table::new(&["parameter", "value", "unit"]);
    t.row(&["gamma_t".into(), sci(mp.gamma_t), "s/flop".into()]);
    t.row(&["beta_t".into(), sci(mp.beta_t), "s/word".into()]);
    t.row(&["alpha_t".into(), sci(mp.alpha_t), "s/msg".into()]);
    t.row(&["gamma_e".into(), sci(mp.gamma_e), "J/flop".into()]);
    t.row(&["beta_e".into(), sci(mp.beta_e), "J/word".into()]);
    t.row(&["alpha_e".into(), sci(mp.alpha_e), "J/msg".into()]);
    t.row(&["delta_e".into(), sci(mp.delta_e), "J/word/s".into()]);
    t.row(&["epsilon_e".into(), sci(mp.epsilon_e), "J/s".into()]);
    t.row(&["M".into(), sci(mp.mem_words), "words".into()]);
    t.row(&["m".into(), sci(mp.max_message_words), "words".into()]);
    println!("{}", t.render());
    out.push(("table1_parameters.csv", t.to_csv()));

    // Derivations the paper describes in §VI.
    banner("Table I derivation checks");
    let sb = &table2()[0]; // Sandy Bridge 2687W row
    println!(
        "peak FP: {:.1} GFLOP/s  →  gamma_t = 1/peak = {} (table: {})",
        sb.peak_gflops(),
        sci(sb.gamma_t()),
        sci(mp.gamma_t)
    );
    println!(
        "TDP {} W  →  gamma_e = TDP/peak = {} (table: {})",
        sb.tdp_w,
        sci(sb.gamma_e()),
        sci(mp.gamma_e)
    );
    println!(
        "QPI 25.6 GB/s, 4-byte words  →  beta_t = {} (table: {})",
        sci(4.0 / 25.6e9),
        sci(mp.beta_t)
    );

    // The §VI model evaluation these parameters feed.
    banner("case-study model evaluation (2.5D matmul, n = 35000, p = 2)");
    let study = CaseStudy::default();
    let mem = study.memory(&mp);
    let t_run = t_matmul_25d(&mp, study.n, study.p, mem);
    let e_run = e_matmul_25d(&mp, study.n, mem);
    let nf = study.n as f64;
    let mut m = Table::new(&["quantity", "value"]);
    m.row(&["memory used/socket (words)".into(), sci(mem)]);
    m.row(&["predicted runtime T (s)".into(), sci(t_run)]);
    m.row(&["predicted energy E (J)".into(), sci(e_run)]);
    m.row(&["average power E/T (W)".into(), sci(e_run / t_run)]);
    m.row(&[
        "efficiency (GFLOPS/W)".into(),
        format!("{:.3}", gflops_per_watt(nf * nf * nf, e_run)),
    ]);
    m.row(&[
        "peak-only efficiency (GFLOPS/W)".into(),
        format!("{:.3}", sb.gflops_per_watt()),
    ]);
    println!("{}", m.render());
    out.push(("table1_case_study_eval.csv", m.to_csv()));
    println!(
        "Note (paper): with p = 2 and n = 35000 this point is outside the\n\
         theoretical strong-scaling region; the model still prices it."
    );
    out
}
