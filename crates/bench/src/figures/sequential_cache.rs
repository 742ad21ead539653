//! The sequential two-level machine (paper Fig. 1(a) and Eqs. 3–4),
//! exercised for real: naive vs blocked matmul driven through the LRU
//! cache simulator, measured traffic vs the `Ω(F/√M)` lower bound, and
//! the sequential energy-optimal cache size.

use super::Artifact;
use crate::report::{ascii_plot_loglog, banner, sci, Table};
use psse_algos::seq_matmul::{choose_tile, instrumented_matmul, SeqVariant};
use psse_core::params::MachineParams;
use psse_core::sequential::{
    blocked_matmul_costs, optimal_fast_memory, sequential_energy, sequential_time,
    traffic_vs_lower_bound,
};
use psse_kernels::matrix::Matrix;

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("measured traffic: naive vs blocked matmul vs the Eq. 3 bound");
    let n = 64usize;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut t = Table::new(&[
        "fast mem (words)",
        "naive W",
        "blocked W",
        "blocked/bound",
        "model W (blocked)",
    ]);
    let mut naive_pts = Vec::new();
    let mut blocked_pts = Vec::new();
    let mut bound_pts = Vec::new();
    for log_m in [9u32, 10, 11, 12] {
        let fast = 1u64 << log_m;
        let (_, sn) = instrumented_matmul(&a, &b, SeqVariant::Naive, fast, 1).unwrap();
        let tile = choose_tile(fast);
        let (_, sb) = instrumented_matmul(&a, &b, SeqVariant::Blocked { tile }, fast, 1).unwrap();
        let ratio = traffic_vs_lower_bound(n as u64, fast as f64, sb.words_moved as f64);
        let model = blocked_matmul_costs(n as u64, fast as f64, 1.0).words;
        t.row(&[
            fast.to_string(),
            sn.words_moved.to_string(),
            sb.words_moved.to_string(),
            format!("{ratio:.2}"),
            sci(model),
        ]);
        naive_pts.push((fast as f64, sn.words_moved as f64));
        blocked_pts.push((fast as f64, sb.words_moved as f64));
        bound_pts.push((fast as f64, sb.words_moved as f64 / ratio));
        assert!(ratio >= 1.0, "measured traffic must respect the bound");
    }
    println!("{}", t.render());
    out.push(("sequential_traffic.csv", t.to_csv()));
    println!(
        "{}",
        ascii_plot_loglog(
            &[
                ("naive", &naive_pts),
                ("blocked", &blocked_pts),
                ("lower bound", &bound_pts),
            ],
            60,
            14
        )
    );
    println!(
        "Blocked traffic hugs the Ω(F/sqrt(M)) bound within a small constant;\n\
         naive traffic stays ~n³ regardless of M (LRU thrashing).\n"
    );

    banner("sequential energy: the cache size that minimizes energy");
    let mp = MachineParams::builder()
        .gamma_t(1e-9)
        .beta_t(1e-8)
        .alpha_t(1e-7)
        .gamma_e(1e-9)
        .beta_e(1e-7)
        .delta_e(1e-6)
        .max_message_words(8.0)
        .build()
        .unwrap();
    let n_model = 1u64 << 11;
    let (m_star, e_star) = optimal_fast_memory(&mp, n_model, 48.0).unwrap();
    println!(
        "n = {n_model}: energy-optimal fast memory M* = {} words (E = {} J)",
        sci(m_star),
        sci(e_star)
    );
    let mut t = Table::new(&["M (words)", "T (s)", "E (J)", "E/E*"]);
    for f in [0.1, 0.3, 1.0, 3.0, 10.0] {
        let m = m_star * f;
        let c = blocked_matmul_costs(n_model, m, mp.max_message_words);
        let e = sequential_energy(&mp, &c, m);
        t.row(&[
            sci(m),
            sci(sequential_time(&mp, &c)),
            sci(e),
            format!("{:.3}", e / e_star),
        ]);
    }
    println!("{}", t.render());
    out.push(("sequential_energy.csv", t.to_csv()));
    println!(
        "The sequential analogue of the paper's M0: below M* communication\n\
         energy dominates, above it the powered-memory term does — 'race to\n\
         halt' (max cache) is not energy-optimal even sequentially."
    );
    out
}
