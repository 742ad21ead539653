//! Acceptance tests for the analysis layer: the detected
//! perfect-strong-scaling range for n-body agrees with the `psse-core`
//! closed forms, and the (T, E) Pareto frontier for 2.5D matmul
//! respects the pmin/pmax band from `bounds.rs`.

use psse_core::costs::{Algorithm, ClassicalMatMul, DirectNBody};
use psse_core::params::MachineParams;
use psse_lab::prelude::*;

/// The Fig. 4 contrived machine (M0 = 1000 for n = 10⁴, f = 10).
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

const N: u64 = 10_000;
const F: f64 = 10.0;

/// Run an n-body model p-ladder at fixed memory and return the feasible
/// `(p, T, E)` samples in ascending p.
fn nbody_ladder(mem: f64, ps: impl Iterator<Item = u64>) -> Vec<(u64, f64, f64)> {
    let lab = Lab::new(LabConfig::default());
    let keys: Vec<RunKey> = ps
        .map(|p| {
            let mut k = RunKey::model("nbody", N, p, contrived());
            k.f = F;
            k.mem = mem;
            k
        })
        .collect();
    let results = lab.run_keys(&keys);
    keys.iter()
        .zip(&results)
        .filter_map(|(k, r)| {
            let r = r.as_ref().ok()?;
            r.feasible.then_some((k.p, r.time, r.energy))
        })
        .collect()
}

#[test]
fn nbody_detected_range_matches_closed_form() {
    // Closed form (paper Eq. 16 region): p ∈ [n/M, n²/M²] at fixed M.
    let mem = 500.0;
    let range = DirectNBody {
        flops_per_interaction: F,
    }
    .strong_scaling_range(N, mem)
    .unwrap();
    assert_eq!(range.p_min, N as f64 / mem); // 20
    assert_eq!(range.p_max, (N as f64 / mem).powi(2)); // 400

    // Integer ladder straddling the band on both sides.
    let samples = nbody_ladder(mem, (1..=120).map(|i| 5 * i));
    let detected = detect_scaling_range(&samples, 1e-9).unwrap();
    // Perfect strong scaling holds across the *entire* feasible band —
    // the detector must recover exactly the closed-form endpoints.
    assert_eq!(detected.p_min as f64, range.p_min);
    assert_eq!(detected.p_max as f64, range.p_max);
    assert!(range.contains(detected.p_min as f64));
    assert!(range.contains(detected.p_max as f64));
}

#[test]
fn nbody_detected_range_at_m0_matches_optimizer() {
    // Cross-check against the §V.A optimum: at the energy-optimal
    // memory M0, the feasible processor range is its band.
    let mp = contrived();
    let nb = DirectNBody {
        flops_per_interaction: F,
    };
    let opt = nb.energy_optimum(&mp, N).unwrap();
    let (m0, p_lo, p_hi) = (opt.m0, opt.p_lo, opt.p_hi);

    let samples = nbody_ladder(m0, 1..=200);
    let detected = detect_scaling_range(&samples, 1e-9).unwrap();
    assert_eq!(detected.p_min, p_lo.ceil() as u64);
    assert_eq!(detected.p_max, p_hi.floor() as u64);
    // And energy across the detected band equals E* (flat at minimum).
    let e_star = opt.e_star;
    for &(_, _, e) in &samples {
        assert!((e / e_star - 1.0).abs() < 1e-9);
    }
}

#[test]
fn matmul_25d_frontier_respects_pmin_pmax_band() {
    let n = 8192u64;
    let machine = psse_core::machines::jaketown();
    let alg = ClassicalMatMul;

    // Grid: p over powers of two, M log-spaced over the union of all
    // per-p memory bands; infeasible (p, M) combinations are flagged by
    // the runner and excluded from the frontier.
    let ps: Vec<u64> = (0..12).map(|k| 1u64 << k).collect();
    let m_lo = alg.min_memory(n, *ps.last().unwrap());
    let m_hi = alg.max_useful_memory(n, ps[0]);
    let mems: Vec<f64> = (0..40)
        .map(|i| m_lo * (m_hi / m_lo).powf(i as f64 / 39.0))
        .collect();

    let lab = Lab::new(LabConfig {
        jobs: 4,
        ..LabConfig::default()
    });
    let mut keys = Vec::new();
    for &p in &ps {
        for &m in &mems {
            let mut k = RunKey::model("matmul", n, p, machine.clone());
            k.mem = m;
            keys.push(k);
        }
    }
    let results = lab.run_keys(&keys);

    let idx: Vec<usize> = (0..keys.len())
        .filter(|&i| matches!(&results[i], Ok(r) if r.feasible))
        .collect();
    assert!(idx.len() > 50, "grid too sparse: {} feasible", idx.len());
    let pts: Vec<(f64, f64)> = idx
        .iter()
        .map(|&i| {
            let r = results[i].as_ref().unwrap();
            (r.time, r.energy)
        })
        .collect();
    let frontier = pareto_indices(&pts);
    assert!(!frontier.is_empty());

    // Every frontier point must sit inside the strong-scaling band
    // [pmin(M), pmax(M)] from bounds.rs for its own memory.
    for &fi in &frontier {
        let key = &keys[idx[fi]];
        let r = results[idx[fi]].as_ref().unwrap();
        let band = alg
            .strong_scaling_range(n, r.mem_used)
            .expect("2.5D matmul has a strong-scaling range");
        assert!(
            band.contains(key.p as f64),
            "frontier point p = {} outside [{:.3e}, {:.3e}] at M = {:.3e}",
            key.p,
            band.p_min,
            band.p_max,
            r.mem_used
        );
    }

    // The frontier's minimum energy approaches the closed-form E*
    // (the grid brackets M0, so the best grid point is within a few %).
    let e_star = ClassicalMatMul.energy_optimum(&machine, n).unwrap().e_star;
    let best_e = frontier
        .iter()
        .map(|&fi| pts[fi].1)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_e >= e_star * (1.0 - 1e-9) && best_e <= e_star * 1.10,
        "frontier min energy {best_e:.4e} vs closed-form E* {e_star:.4e}"
    );

    // Frontier shape sanity: sorted by time, energies strictly decrease.
    let mut ordered: Vec<(f64, f64)> = frontier.iter().map(|&fi| pts[fi]).collect();
    ordered.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for w in ordered.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}
