//! Regenerates paper **Table II**: `γt`, `γe` and peak GFLOPS/W for the
//! eleven processors, derived from their published frequency / core /
//! SIMD / TDP specifications, and checks the paper's §VII observations:
//! no device approaches 10 GFLOPS/W, and the efficiency "poles" are
//! high-throughput GPUs and low-power parts.

use super::Artifact;
use crate::report::{banner, sci, Table};
use psse_core::machines::table2;

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("Table II: example machine parameters");
    let specs = table2();

    let mut t = Table::new(&[
        "processor",
        "freq (GHz)",
        "cores",
        "SIMD",
        "TDP (W)",
        "peak (GFLOP/s)",
        "gamma_t (s/flop)",
        "gamma_e (J/flop)",
        "GFLOPS/W",
    ]);
    for s in &specs {
        t.row(&[
            s.name.to_string(),
            format!("{}", s.freq_ghz),
            s.cores.to_string(),
            s.simd_width.to_string(),
            format!("{}", s.tdp_w),
            format!("{:.2}", s.peak_gflops()),
            sci(s.gamma_t()),
            sci(s.gamma_e()),
            format!("{:.3}", s.gflops_per_watt()),
        ]);
    }
    println!("{}", t.render());
    out.push(("table2_machines.csv", t.to_csv()));

    banner("Section VII observations");
    let max_eff = specs
        .iter()
        .map(|s| s.gflops_per_watt())
        .fold(0.0f64, f64::max);
    println!("best efficiency in the table: {max_eff:.3} GFLOPS/W (paper: none approach 10)");
    assert!(max_eff < 10.0);

    let mut sorted = specs.clone();
    sorted.sort_by(|a, b| {
        b.gflops_per_watt()
            .partial_cmp(&a.gflops_per_watt())
            .unwrap()
    });
    println!("\nefficiency ranking (two poles: big GPUs and low-power parts):");
    for (i, s) in sorted.iter().enumerate() {
        println!(
            "  {:>2}. {:<28} {:>7.3} GFLOPS/W  ({:>7.1} W TDP)",
            i + 1,
            s.name,
            s.gflops_per_watt(),
            s.tdp_w
        );
    }
    let top3: Vec<&str> = sorted.iter().take(3).map(|s| s.name).collect();
    assert!(top3.contains(&"Nvidia GTX590"));
    assert!(top3.contains(&"ARM Cortex A9 (0.8 GHz)"));
    println!("\nOK: Table II derivations and §VII observations reproduced.");
    out
}
