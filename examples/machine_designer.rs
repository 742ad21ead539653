//! Hardware/software co-design with the energy model (paper §VI–VII):
//! start from real processors (Table II), ask what efficiency the model
//! predicts for a full algorithm run (not just peak), and how much the
//! energy parameters must improve to hit a target.
//!
//! Run with: `cargo run --release --example machine_designer`

use psse::core::machines::{jaketown, table2};
use psse::core::tech_scaling::{multiplier_for_target, scale_all_energy, CaseStudy};
use psse::prelude::*;

fn main() {
    println!("== Table II processors: peak efficiency (GFLOPS/W) ==");
    let mut specs = table2();
    specs.sort_by(|a, b| {
        b.gflops_per_watt()
            .partial_cmp(&a.gflops_per_watt())
            .unwrap()
    });
    for s in &specs {
        println!(
            "  {:<28} peak {:>8.1} GFLOP/s  TDP {:>6.1} W  ->  {:>6.3} GFLOPS/W",
            s.name,
            s.peak_gflops(),
            s.tdp_w,
            s.gflops_per_watt()
        );
    }
    println!(
        "\n(paper §VII: none approach 10 GFLOPS/W; the poles are big GPUs and\n\
         low-power parts)"
    );

    println!("\n== modelled whole-run efficiency vs peak (Jaketown, 2.5D matmul) ==");
    let base = jaketown();
    let study = CaseStudy::default();
    let model_eff = study.gflops_per_watt(&base);
    println!(
        "  peak-only estimate: {:.3} GFLOPS/W",
        table2()[0].gflops_per_watt()
    );
    println!("  whole-run model:    {model_eff:.3} GFLOPS/W (communication + DRAM included)");

    println!("\n== design question: reach 75 GFLOPS/W ==");
    let target = 75.0;
    let k = multiplier_for_target(&base, study, target)
        .expect("target reachable by scaling energy parameters");
    println!(
        "  all energy parameters must improve by {k:.1}x (~{:.1} process generations\n\
         at one halving per generation)",
        k.log2()
    );
    let future = scale_all_energy(&base, 1.0 / k);
    println!(
        "  check: scaled machine delivers {:.1} GFLOPS/W",
        study.gflops_per_watt(&future)
    );

    println!("\n== what if only one component improves? ==");
    use psse::core::tech_scaling::{scale_param, EnergyParam};
    for p in EnergyParam::fig6_set() {
        let scaled = scale_param(&base, p, 1.0 / k);
        println!(
            "  {:>8} alone {k:.0}x better -> {:>7.3} GFLOPS/W",
            p.symbol(),
            study.gflops_per_watt(&scaled)
        );
    }
    println!(
        "\n  Improving a single component saturates (Amdahl for energy):\n\
         target components that serve the whole system (paper §VI)."
    );

    println!("\n== n-body intrinsic efficiency ceiling per machine ==");
    for s in table2().iter().take(4) {
        // A coarse machine: the processor's gamma_t/gamma_e with the
        // Jaketown link and memory prices.
        let mp = MachineParams {
            gamma_t: s.gamma_t(),
            gamma_e: s.gamma_e(),
            ..jaketown()
        };
        let nb = DirectNBody::default();
        println!(
            "  {:<28} best-case n-body: {:>6.3} GFLOPS/W at M0 = {:.2e} words",
            s.name,
            nb.gflops_per_watt_at_optimum(&mp).unwrap(),
            nb.m0(&mp).unwrap()
        );
    }
}
