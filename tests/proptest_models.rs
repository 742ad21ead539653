//! Property-based tests of the analytical models: the paper's theorems
//! hold for *every* machine, not just the ones in the unit tests.

use proptest::prelude::*;
use psse::core::costs::{Algorithm, ClassicalMatMul, DirectNBody, StrassenMatMul};
use psse::core::energy::{e_matmul_25d, e_matmul_fast_lm, e_nbody};
use psse::core::optimize::numeric::golden_section_min;
use psse::core::time::{t_matmul_25d, t_nbody};
use psse::prelude::*;

/// A random but physically sensible machine.
fn machines() -> impl Strategy<Value = MachineParams> {
    (
        1e-13..1e-8f64, // gamma_t
        1e-11..1e-6f64, // beta_t
        1e-9..1e-4f64,  // alpha_t
        1e-12..1e-7f64, // gamma_e
        1e-11..1e-5f64, // beta_e
        0.0..1e-4f64,   // alpha_e
        1e-12..1e-4f64, // delta_e
        0.0..1.0f64,    // epsilon_e
        1.0..1e6f64,    // max message words
    )
        .prop_map(|(gt, bt, at, ge, be, ae, de, ee, m)| {
            MachineParams::builder()
                .gamma_t(gt)
                .beta_t(bt)
                .alpha_t(at)
                .gamma_e(ge)
                .beta_e(be)
                .alpha_e(ae)
                .delta_e(de)
                .epsilon_e(ee)
                .max_message_words(m)
                .build()
                .expect("strategy produces valid machines")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline theorem, classical matmul: for any machine and any
    /// (n, M, p) inside the scaling range, energy is independent of p.
    #[test]
    fn matmul_energy_independent_of_p(
        mp in machines(),
        n_exp in 10u32..16,
        p0_exp in 2u32..6,
        c_exp in 1u32..4,
    ) {
        let n = 1u64 << n_exp;
        let p0 = 1u64 << (2 * p0_exp); // square
        let mem = ClassicalMatMul.min_memory(n, p0);
        let range = ClassicalMatMul.strong_scaling_range(n, mem).unwrap();
        let p1 = p0 << c_exp;
        prop_assume!(range.contains(p1 as f64));

        let c0 = ClassicalMatMul.costs(n, p0, mem, &mp).unwrap();
        let c1 = ClassicalMatMul.costs(n, p1, mem, &mp).unwrap();
        let e0 = mp.energy(p0, &c0, mem, mp.time(&c0));
        let e1 = mp.energy(p1, &c1, mem, mp.time(&c1));
        prop_assert!((e1 / e0 - 1.0).abs() < 1e-9);

        // And runtime divides exactly by the processor factor.
        let t0 = mp.time(&c0);
        let t1 = mp.time(&c1);
        prop_assert!((t0 / t1 / (p1 as f64 / p0 as f64) - 1.0).abs() < 1e-9);
    }

    /// Same theorem for Strassen-like matmul at any exponent. The
    /// scaling headroom is `p_min^(ω/2−1)`, so small exponents need a
    /// large `p_min` for any room at all — we start from p0 = 256, where
    /// ω ≥ 2.5 leaves at least a factor 4.
    #[test]
    fn strassen_energy_independent_of_p(
        mp in machines(),
        omega in 2.5..3.0f64,
        n_exp in 10u32..16,
    ) {
        let alg = StrassenMatMul { omega };
        let n = 1u64 << n_exp;
        let p0 = 256u64;
        let mem = alg.min_memory(n, p0);
        let range = alg.strong_scaling_range(n, mem).unwrap();
        let p1 = 512u64;
        prop_assert!(range.contains(p1 as f64), "headroom {}", range.headroom());
        let c0 = alg.costs(n, p0, mem, &mp).unwrap();
        let c1 = alg.costs(n, p1, mem, &mp).unwrap();
        let e0 = mp.energy(p0, &c0, mem, mp.time(&c0));
        let e1 = mp.energy(p1, &c1, mem, mp.time(&c1));
        prop_assert!((e1 / e0 - 1.0).abs() < 1e-9);
    }

    /// Closed-form energies equal the generic Eq. 2 evaluation
    /// everywhere in the valid (p, M) region.
    #[test]
    fn closed_forms_match_generic(
        mp in machines(),
        n_exp in 10u32..16,
        frac in 0.0..1.0f64,
    ) {
        let n = 1u64 << n_exp;
        let p = 64u64;

        let (lo, hi) = ClassicalMatMul.memory_range(n, p).unwrap();
        let mem = lo + frac * (hi - lo);
        let c = ClassicalMatMul.costs(n, p, mem, &mp).unwrap();
        let generic = mp.energy(p, &c, mem, mp.time(&c));
        let closed = e_matmul_25d(&mp, n, mem);
        prop_assert!((closed / generic - 1.0).abs() < 1e-9);

        let alg = StrassenMatMul::default();
        let (lo, hi) = alg.memory_range(n, p).unwrap();
        let mem = lo + frac * (hi - lo);
        let c = alg.costs(n, p, mem, &mp).unwrap();
        let generic = mp.energy(p, &c, mem, mp.time(&c));
        let closed = e_matmul_fast_lm(&mp, n, mem, alg.omega);
        prop_assert!((closed / generic - 1.0).abs() < 1e-9);

        let nb = DirectNBody::default();
        let (lo, hi) = nb.memory_range(n, p).unwrap();
        let mem = lo + frac * (hi - lo);
        let c = nb.costs(n, p, mem, &mp).unwrap();
        let generic = mp.energy(p, &c, mem, mp.time(&c));
        let closed = e_nbody(&mp, n, mem, nb.flops_per_interaction);
        prop_assert!((closed / generic - 1.0).abs() < 1e-9);
    }

    /// M0 is a true argmin: any perturbation raises the energy; and the
    /// closed-form E* matches a golden-section search.
    #[test]
    fn m0_is_global_minimum(
        mp in machines(),
        f in 1.0..100.0f64,
        perturb in prop::sample::select(vec![0.25, 0.5, 0.8, 1.25, 2.0, 4.0]),
    ) {
        let nb = DirectNBody { flops_per_interaction: f };
        let n = 1u64 << 20;
        let m0 = nb.m0(&mp).unwrap();
        prop_assume!(m0.is_finite() && m0 > 1.0);
        let e_star = nb.energy_optimum(&mp, n).unwrap().e_star;
        prop_assert!(e_nbody(&mp, n, m0 * perturb, f) >= e_star * (1.0 - 1e-12));
        let (_, e_num) = golden_section_min(
            |m| e_nbody(&mp, n, m, f),
            m0 / 1e3,
            m0 * 1e3,
            1e-12,
        );
        prop_assert!((e_num / e_star - 1.0).abs() < 1e-9);
    }

    /// Deadline/budget optimizers: feasible, binding, and monotone.
    #[test]
    fn deadline_and_budget_optimizers_are_consistent(
        mp in machines(),
        f in 1.0..100.0f64,
        slack in 1.05..10.0f64,
    ) {
        let nb = DirectNBody { flops_per_interaction: f };
        let n = 1u64 << 20;
        let e_star = nb.energy_optimum(&mp, n).unwrap().e_star;
        let threshold = nb.tmax_threshold(&mp).unwrap();

        // Loose deadline: global optimum; tight: more energy, deadline met.
        let loose = nb.min_energy_given_tmax(&mp, n, threshold * slack).unwrap();
        prop_assert!((loose.energy / e_star - 1.0).abs() < 1e-9);
        let tight = nb.min_energy_given_tmax(&mp, n, threshold / slack).unwrap();
        prop_assert!(tight.energy >= e_star * (1.0 - 1e-12));
        let t_actual = t_nbody(&mp, n, tight.p.round().max(1.0) as u64, tight.mem, f);
        prop_assert!(t_actual <= threshold / slack * 1.01);

        // Budget: binding with equality, monotone in the budget.
        let fast1 = nb.min_time_given_emax(&mp, n, e_star * slack).unwrap();
        let fast2 = nb.min_time_given_emax(&mp, n, e_star * slack * 2.0).unwrap();
        prop_assert!(fast2.time <= fast1.time * (1.0 + 1e-9));
        prop_assert!((fast1.energy / (e_star * slack) - 1.0).abs() < 1e-6);
    }

    /// Runtime closed forms are monotone: more processors or more memory
    /// never slow the data-replicating algorithms down.
    #[test]
    fn runtime_monotonicity(
        mp in machines(),
        n_exp in 10u32..16,
    ) {
        let n = 1u64 << n_exp;
        let mem = 1e6;
        let t1 = t_matmul_25d(&mp, n, 64, mem);
        let t2 = t_matmul_25d(&mp, n, 128, mem);
        prop_assert!(t2 < t1);
        let t3 = t_matmul_25d(&mp, n, 64, mem * 4.0);
        prop_assert!(t3 <= t1 * (1.0 + 1e-12));
        let t4 = t_nbody(&mp, n, 64, mem, 20.0);
        let t5 = t_nbody(&mp, n, 64, mem * 2.0, 20.0);
        prop_assert!(t5 <= t4 * (1.0 + 1e-12));
    }

    /// GFLOPS/W at the optimum is independent of problem size — §V.F's
    /// "pure machine constraint" claim.
    #[test]
    fn efficiency_at_optimum_is_size_invariant(
        mp in machines(),
        f in 1.0..100.0f64,
    ) {
        let nb = DirectNBody { flops_per_interaction: f };
        let g = nb.gflops_per_watt_at_optimum(&mp).unwrap();
        for n_exp in [14u32, 18, 22] {
            let n = 1u64 << n_exp;
            let nf = n as f64;
            let direct = f * nf * nf / nb.energy_optimum(&mp, n).unwrap().e_star / 1e9;
            prop_assert!((direct / g - 1.0).abs() < 1e-9);
        }
    }
}
