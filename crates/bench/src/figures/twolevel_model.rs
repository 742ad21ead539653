//! The two-level machine model (paper Fig. 2 and Eqs. 12/17) exercised
//! end-to-end: the analytic model priced against real 2.5D-matmul and
//! n-body runs on a *hierarchical* simulated machine (cheap intra-node
//! links, expensive inter-node links).

use super::Artifact;
use crate::report::{banner, sci, Table};
use psse_algos::prelude::*;
use psse_core::twolevel::TwoLevelParams;
use psse_kernels::matrix::Matrix;
use psse_kernels::nbody::random_particles;

fn two_level(nodes: u64, cores: u64) -> TwoLevelParams {
    TwoLevelParams {
        nodes,
        cores_per_node: cores,
        gamma_t: 1e-9,
        gamma_e: 2e-9,
        beta_n_t: 2e-8, // inter-node: 20x slower than intra
        beta_n_e: 4e-8,
        beta_l_t: 1e-9,
        beta_l_e: 2e-9,
        delta_n_e: 1e-9,
        delta_l_e: 1e-10,
        epsilon_e: 1e-5,
        mem_node: 1e6,
        mem_local: 1e4,
    }
}

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("Eq. 17 workload: n-body on the hierarchical simulator");
    let particles = random_particles(256, 1);
    let mut t = Table::new(&[
        "nodes",
        "cores",
        "p",
        "T meas (s)",
        "E meas (J)",
        "intra words",
        "inter words",
        "E model (J)",
    ]);
    for (nodes, cores) in [(4u64, 4u64), (8, 4), (16, 4)] {
        let tl = two_level(nodes, cores);
        let p = (nodes * cores) as usize;
        let cfg = sim_config_two_level(&tl);
        // Layout: pr ring across all ranks; node-major ids mean ring
        // neighbours are mostly intra-node.
        let (_, profile) = nbody_replicated(&particles, p, 1, cfg).unwrap();
        let m = measure_two_level(&profile, &tl);
        let (_t_model, e_model) = tl.nbody_point(256, 20.0);
        t.row(&[
            nodes.to_string(),
            cores.to_string(),
            p.to_string(),
            sci(m.time),
            sci(m.energy),
            profile.total_words_intra().to_string(),
            profile.total_words_inter().to_string(),
            sci(e_model),
        ]);
    }
    println!("{}", t.render());
    out.push(("twolevel_nbody.csv", t.to_csv()));
    println!(
        "Most ring traffic stays on cheap intra-node links (node-major rank\n\
         layout); the analytic Eq. 17 model prices the same machine for\n\
         comparison (its algorithm walks all pr blocks, so absolute numbers\n\
         differ by algorithmic constants — the scaling shape is the point).\n"
    );

    banner("Eq. 12 workload: 2.5D matmul on the hierarchical simulator");
    let n = 64;
    let a = Matrix::random(n, n, 2);
    let b = Matrix::random(n, n, 3);
    let mut t = Table::new(&[
        "layout",
        "T meas (s)",
        "E meas (J)",
        "intra words",
        "inter words",
    ]);
    // Same p = 64 machine, increasingly node-aligned layer placement:
    // with layer-major rank ids, each 2.5D layer (16 ranks) spans
    // 16/cores nodes; fibers cross nodes. Vary cores per node.
    for cores in [1u64, 4, 16] {
        let tl = two_level(64 / cores, cores);
        let cfg = sim_config_two_level(&tl);
        let (cm, profile) = matmul_25d(&a, &b, 64, 4, cfg).unwrap();
        assert!(cm.max_abs_diff(&psse_kernels::gemm::matmul(&a, &b)) < 1e-9);
        let m = measure_two_level(&profile, &tl);
        t.row(&[
            format!("{} nodes x {cores} cores", 64 / cores),
            sci(m.time),
            sci(m.energy),
            profile.total_words_intra().to_string(),
            profile.total_words_inter().to_string(),
        ]);
    }
    println!("{}", t.render());
    out.push(("twolevel_matmul.csv", t.to_csv()));
    println!(
        "Fatter nodes keep more of the 2.5D traffic on intra-node links,\n\
         cutting both runtime and communication energy — the co-design\n\
         lever the two-level model (Fig. 2) exists to expose."
    );

    banner("analytic two-level scaling (Eq. 17): energy flat in node count");
    let mut t = Table::new(&["nodes", "T model (s)", "E model (J)"]);
    let mut base_e = None;
    for nodes in [4u64, 8, 16, 32] {
        let tl = two_level(nodes, 8);
        let (tm, em) = tl.nbody_point(1 << 20, 20.0);
        let e0 = *base_e.get_or_insert(em);
        t.row(&[nodes.to_string(), sci(tm), sci(em)]);
        assert!(
            (em / e0 - 1.0).abs() < 1e-9,
            "two-level energy must be flat"
        );
    }
    println!("{}", t.render());
    out.push(("twolevel_scaling.csv", t.to_csv()));
    println!("Perfect strong scaling survives the two-level refinement.");
    out
}
