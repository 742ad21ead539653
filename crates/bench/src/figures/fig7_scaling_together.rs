//! Regenerates paper **Fig. 7**: GFLOPS/W of the §VI case study as **all**
//! energy parameters improve together by a multiplier over current
//! technology. The paper's headline: a desired efficiency of
//! 75 GFLOPS/W is reached "after 5 generations" (multiplier ≈ 32).

use super::Artifact;
use crate::report::{ascii_plot_loglog, banner, svg_plot, Scale, Table};
use psse_core::energy::gflops_per_watt;
use psse_core::machines::jaketown;
use psse_core::tech_scaling::{fig7_series, multiplier_for_target, scale_all_energy, CaseStudy};
use psse_lab::prelude::{Lab, LabConfig, RunKey};

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("Figure 7: scaling gamma_e, beta_e, delta_e together");
    let base = jaketown();
    let study = CaseStudy::default();

    let multipliers: Vec<f64> = (0..=10).map(|i| 2f64.powi(i)).collect();
    let series = fig7_series(&base, study, &multipliers);

    // The same sweep through the psse-lab engine: one matmul model run
    // per multiplier; the lab's closed-form pricing reproduces
    // `fig7_series` bit-for-bit (asserted per row).
    let lab = Lab::new(LabConfig::default());
    let keys: Vec<RunKey> = multipliers
        .iter()
        .map(|&k| {
            let scaled = scale_all_energy(&base, 1.0 / k);
            let mut key = RunKey::model("matmul", study.n, study.p, scaled.clone());
            key.mem = study.memory(&scaled);
            key
        })
        .collect();
    let results = lab.run_keys(&keys);

    let mut table = Table::new(&["improvement multiplier", "generations", "GFLOPS/W"]);
    let mut pts = Vec::new();
    for (i, (k, eff)) in series.iter().enumerate() {
        let r = results[i].as_ref().expect("matmul model run");
        let lab_eff = gflops_per_watt(r.flops, r.energy);
        assert_eq!(lab_eff.to_bits(), eff.to_bits());
        table.row(&[
            format!("{k}"),
            format!("{:.1}", k.log2()),
            format!("{lab_eff:.3}"),
        ]);
        pts.push((*k, lab_eff));
    }
    println!("{}", table.render());
    out.push(("fig7_scaling_together.csv", table.to_csv()));
    println!("{}", ascii_plot_loglog(&[("GFLOPS/W", &pts)], 64, 14));
    out.push((
        "fig7_scaling_together.svg",
        svg_plot(
            "Fig. 7: scaling all energy parameters together",
            "improvement multiplier over current technology",
            "GFLOPS/W",
            &[("GFLOPS/W", &pts)],
            Scale::Log,
            Scale::Log,
        ),
    ));

    let target = 75.0;
    let k = multiplier_for_target(&base, study, target).unwrap();
    println!(
        "target {target} GFLOPS/W reached at multiplier {:.1} = {:.2} generations \
         (paper: ~5 generations)",
        k,
        k.log2()
    );
    assert!(
        (4.0..=6.5).contains(&k.log2()),
        "expected ≈5 generations, got {:.2}",
        k.log2()
    );
    println!("OK: Fig. 7 shape reproduced.");
    out
}
