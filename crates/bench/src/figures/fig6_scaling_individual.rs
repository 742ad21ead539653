//! Regenerates paper **Fig. 6**: GFLOPS/W of 2.5D matrix multiplication
//! on the Table I ("Jaketown") machine as `γe`, `βe`, `δe` are halved
//! **independently**, one process generation at a time
//! (`p = 2`, `n = 35000`, as in §VI).
//!
//! Expected shapes (paper text): scaling `βe` alone has almost no
//! effect; scaling `γe` alone saturates after about 5 generations (once
//! flop energy falls to the level of the unscaled memory term).

use super::Artifact;
use crate::report::{ascii_plot_loglog, banner, sci, svg_plot, trace_events_table, Scale, Table};
use psse_algos::prelude::{matmul_25d, sim_config_from};
use psse_core::energy::gflops_per_watt;
use psse_core::machines::jaketown;
use psse_core::params::MachineParams;
use psse_core::tech_scaling::{
    fig6_series, scale_all_energy, scale_param, CaseStudy, EnergyParam, Fig6Row,
};
use psse_kernels::matrix::Matrix;
use psse_lab::prelude::{Lab, LabConfig, RunKey};
use psse_sim::machine::SimConfig;
use psse_trace::Trace;

/// Table I's machine after `gen` generations: γe, βe, δe halved alone,
/// then all three together — the four columns of Fig. 6.
fn scaled_machines(base: &MachineParams, gen: u32) -> [MachineParams; 4] {
    let f = 0.5f64.powi(gen as i32);
    [
        scale_param(base, EnergyParam::GammaE, f),
        scale_param(base, EnergyParam::BetaE, f),
        scale_param(base, EnergyParam::DeltaE, f),
        scale_all_energy(base, f),
    ]
}

/// An empty Fig. 6 table; `push_row` appends a generation.
fn fig6_table() -> Table {
    Table::new(&[
        "generation",
        "halve gamma_e",
        "halve beta_e",
        "halve delta_e",
        "all three",
    ])
}

fn push_row(table: &mut Table, gen: u32, effs: [f64; 4]) {
    let mut cells = vec![gen.to_string()];
    cells.extend(effs.iter().map(|e| format!("{e:.3}")));
    table.row(&cells);
}

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("Figure 6: scaling gamma_e, beta_e, delta_e independently");
    let base = jaketown();
    let study = CaseStudy::default();
    println!(
        "case study: 2.5D matmul, n = {}, p = {}, M = {} words",
        study.n,
        study.p,
        sci(study.memory(&base))
    );
    println!(
        "baseline efficiency: {:.3} GFLOPS/W\n",
        study.gflops_per_watt(&base)
    );

    let generations = 10;
    let rows = fig6_series(&base, study, generations);

    // The same sweep routed through the psse-lab batch engine: one
    // matmul model run per (generation, scaled-machine) cell. The lab
    // prices 2.5D matmul with the exact `e_matmul_25d` closed form, so
    // every cell reproduces `fig6_series` bit-for-bit (asserted below)
    // and the emitted CSV is byte-identical to the checked-in file.
    let lab = Lab::new(LabConfig::default());
    let mut keys = Vec::new();
    for gen in 0..=generations {
        for m in scaled_machines(&base, gen) {
            let mut k = RunKey::model("matmul", study.n, study.p, m.clone());
            k.mem = study.memory(&m);
            keys.push(k);
        }
    }
    let results = lab.run_keys(&keys);
    let cell = |i: usize| {
        let r = results[i].as_ref().expect("matmul model run");
        gflops_per_watt(r.flops, r.energy)
    };

    let at = |r: &Fig6Row, p: EnergyParam| r.per_param.iter().find(|(q, _)| *q == p).unwrap().1;
    let mut table = fig6_table();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 4];
    for (gi, row) in rows.iter().enumerate() {
        let effs: [f64; 4] = std::array::from_fn(|j| cell(4 * gi + j));
        // Lab-priced cells agree with the closed-form series exactly.
        assert_eq!(effs[0].to_bits(), at(row, EnergyParam::GammaE).to_bits());
        assert_eq!(effs[1].to_bits(), at(row, EnergyParam::BetaE).to_bits());
        assert_eq!(effs[2].to_bits(), at(row, EnergyParam::DeltaE).to_bits());
        assert_eq!(effs[3].to_bits(), row.together.to_bits());
        push_row(&mut table, row.generation, effs);
        let x = (row.generation + 1) as f64; // log plot needs x > 0
        for (s, e) in series.iter_mut().zip(effs) {
            s.push((x, e));
        }
    }
    println!("{}", table.render());
    out.push(("fig6_scaling_individual.csv", table.to_csv()));

    println!(
        "{}",
        ascii_plot_loglog(
            &[
                ("gamma_e", &series[0]),
                ("beta_e", &series[1]),
                ("delta_e", &series[2]),
                ("all", &series[3]),
            ],
            64,
            16
        )
    );
    out.push((
        "fig6_scaling_individual.svg",
        svg_plot(
            "Fig. 6: scaling gamma_e, beta_e, delta_e independently",
            "process generation + 1 (halving per generation)",
            "GFLOPS/W",
            &[
                ("gamma_e", &series[0]),
                ("beta_e", &series[1]),
                ("delta_e", &series[2]),
                ("all three", &series[3]),
            ],
            Scale::Linear,
            Scale::Log,
        ),
    ));

    // The paper's qualitative findings, asserted.
    let first = &rows[0];
    let beta_gain =
        at(&rows[generations as usize], EnergyParam::BetaE) / at(first, EnergyParam::BetaE);
    let gamma_gain_early = at(&rows[5], EnergyParam::GammaE) / at(first, EnergyParam::GammaE);
    let gamma_gain_late = at(&rows[10], EnergyParam::GammaE) / at(&rows[5], EnergyParam::GammaE);
    println!(
        "beta_e total gain after {generations} generations: ×{beta_gain:.3} (paper: almost none)"
    );
    println!("gamma_e gain gen 0→5: ×{gamma_gain_early:.2}; gen 5→10: ×{gamma_gain_late:.2} (paper: saturates ~gen 5)");
    assert!(beta_gain < 1.1);
    assert!(gamma_gain_early > 3.0 * gamma_gain_late);
    println!("OK: Fig. 6 shapes reproduced.");

    // Trace-driven variant: record ONE small 2.5D run on the simulator
    // and re-price the recorded event DAG for every generation. Energy
    // parameters do not change the DAG, so a single recording serves
    // all rows; the CSV has exactly the analytic table's shape.
    banner("Figure 6 (trace-driven): re-pricing one recorded 2.5D run");
    let cfg = SimConfig {
        record_trace: true,
        ..sim_config_from(&base)
    };
    let (tn, tp, tc) = (32, 8, 2);
    let ma = Matrix::random(tn, tn, 1);
    let mb = Matrix::random(tn, tn, 2);
    let (_, profile) = matmul_25d(&ma, &mb, tp, tc, cfg.clone()).expect("2.5D run");
    let trace = Trace::from_run(&cfg, &profile).expect("trace recorded");
    trace
        .check_consistency(&profile)
        .expect("replay must reproduce the live run bit-for-bit");
    println!(
        "recorded 2.5D matmul: n = {tn}, p = {tp}, c = {tc}; {} events, makespan {} s",
        trace.n_events(),
        sci(trace.makespan)
    );
    let flops = profile.total_flops() as f64;
    let gflops_per_watt = |m: &MachineParams| {
        let measured = trace.reprice(m).expect("re-price recorded DAG");
        flops / measured.energy / 1e9
    };
    let mut ttable = fig6_table();
    for gen in 0..=generations {
        let effs = scaled_machines(&base, gen).map(|m| gflops_per_watt(&m));
        push_row(&mut ttable, gen, effs);
    }
    println!("{}", ttable.render());
    out.push(("fig6_scaling_individual_trace.csv", ttable.to_csv()));
    out.push(("fig6_trace_events.csv", trace_events_table(&trace).to_csv()));

    let (analytic, traced) = (table.to_csv(), ttable.to_csv());
    assert_eq!(analytic.lines().next(), traced.lines().next());
    assert_eq!(analytic.lines().count(), traced.lines().count());
    println!("OK: trace-driven CSV matches the analytic table's shape.");
    out
}
