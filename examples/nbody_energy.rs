//! The §V optimization suite on the direct n-body problem: minimum
//! energy, deadlines, budgets, and power caps — answered in closed form
//! and cross-checked against a real simulated run.
//!
//! Run with: `cargo run --release --example nbody_energy`

use psse::core::costs::DirectNBody;
use psse::core::optimize::numeric;
use psse::prelude::*;

fn main() {
    let machine = MachineParams::builder()
        .gamma_t(1e-9)
        .beta_t(2e-8)
        .alpha_t(1e-6)
        .gamma_e(1e-9)
        .beta_e(4e-6)
        .alpha_e(1e-4)
        .delta_e(5e-4)
        .max_message_words(100.0)
        .mem_words(1e12)
        .build()
        .unwrap();
    let f = 10.0;
    let n: u64 = 10_000;
    let nb = DirectNBody {
        flops_per_interaction: f,
    };

    println!("== Question 1: minimum energy for the computation ==");
    let optimum = nb.energy_optimum(&machine, n).unwrap();
    let (m0, e_star) = (optimum.m0, optimum.e_star);
    let (p_lo, p_hi) = (optimum.p_lo, optimum.p_hi);
    println!("energy-optimal memory  M0 = {m0:.1} words/processor (independent of n, p)");
    println!(
        "minimum energy         E* = {e_star:.4} J, attainable for p in [{p_lo:.0}, {p_hi:.0}]"
    );
    println!("('race to halt' is NOT optimal here: max memory would waste DRAM energy)");

    println!("\n== Question 2: minimum energy under a deadline ==");
    let threshold = nb.tmax_threshold(&machine).unwrap();
    for tmax in [threshold * 2.0, threshold / 2.0] {
        let cfg = nb.min_energy_given_tmax(&machine, n, tmax).unwrap();
        println!(
            "Tmax = {tmax:.5} s -> run at p = {:.0}, M = {:.0}: E = {:.4} J{}",
            cfg.p,
            cfg.mem,
            cfg.energy,
            if cfg.energy > e_star * 1.0001 {
                "  (deadline costs energy)"
            } else {
                "  (= E*, deadline is free)"
            }
        );
    }

    println!("\n== Question 3: minimum runtime under an energy budget ==");
    for factor in [1.05, 1.5, 3.0] {
        let cfg = nb
            .min_time_given_emax(&machine, n, e_star * factor)
            .unwrap();
        println!(
            "Emax = {factor:.2}·E* -> fastest run T = {:.6} s at p = {:.0} (2D boundary M = n/sqrt(p))",
            cfg.time, cfg.p
        );
    }

    println!("\n== Question 4: power caps ==");
    let p_proc_cap = nb.average_power(&machine, 1.0, m0).unwrap() * 1.5;
    let m_cap = nb
        .max_memory_given_proc_power(&machine, p_proc_cap)
        .unwrap();
    println!("per-processor cap {p_proc_cap:.3} W -> memory capped at M <= {m_cap:.0} words");
    let total_cap = 50.0;
    let p_max = nb.max_p_given_total_power(&machine, total_cap, m0).unwrap();
    println!("total cap {total_cap} W at M0 -> at most p = {p_max:.1} processors");

    println!("\n== Question 5: target efficiency -> machine constraint ==");
    let eff = nb.gflops_per_watt_at_optimum(&machine).unwrap();
    let target = 10.0 * eff;
    let k = nb.energy_improvement_for_target(&machine, target).unwrap();
    println!("current best-case efficiency: {eff:.4} GFLOPS/W");
    println!("to reach {target:.3} GFLOPS/W, all energy prices must improve by {k:.1}x");

    println!("\n== closed form vs numeric optimizer ==");
    let p_mid = ((p_lo * p_hi).sqrt()).round() as u64;
    let numeric_cfg = numeric::argmin_energy_memory(&nb, &machine, n, p_mid).unwrap();
    println!(
        "numeric argmin at p = {p_mid}: M = {:.1} (closed form {m0:.1}), E = {:.4} (E* {e_star:.4})",
        numeric_cfg.mem, numeric_cfg.energy
    );

    println!("\n== and measured: the real algorithm on the simulator ==");
    let particles = psse::kernels::nbody::random_particles(256, 7);
    let cfg = sim_config_from(&machine);
    println!("     p   c        T (s)        E (J)");
    for c in [1usize, 2, 4] {
        let (_, profile) = nbody_replicated(&particles, 16, c, cfg.clone()).unwrap();
        let m = measure(&profile, &machine);
        println!(
            "{:>6}  {c:>2}   {:>10.3e}   {:>10.3e}",
            16 * c,
            m.time,
            m.energy
        );
    }
    println!("(replication: same energy, c times faster — the theorem, measured)");
}
