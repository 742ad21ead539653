//! Execute one [`RunKey`]: model evaluation or simulator run.
//!
//! Both kinds look `key.alg` up in [`psse_algos::table`], the one place
//! an algorithm name is matched, and call what they find; a model key
//! with an HBL kernel prices the kernel's derived model instead. A model
//! run is one [`Algorithm::evaluate`]: the §V closed forms for n-body
//! and 2.5D matmul (and kernels of their shape), so a sweep regenerates
//! the figure benches' CSVs byte for byte, and Eqs. 1–2 for the rest.
//! Simulator runs execute the real distributed algorithm on the virtual
//! machine and price the recorded [`Profile`](psse_sim::prelude::Profile).

use psse_algos::prelude::{measure, measure_into, sim_config_from};
use psse_algos::table::{self, Check, Shape};
use psse_core::costs::{clamp_memory, Algorithm};
use psse_core::summary::finite;

use crate::key::{RunKey, RunKind};
use crate::result::{digest_f64s, RunResult};

/// Execute one run. Deterministic: equal keys produce equal results,
/// bit-for-bit, which is what makes the content-addressed cache sound.
pub fn execute(key: &RunKey) -> Result<RunResult, String> {
    execute_watched(key, None, None)
}

/// `r`, or the key's error when finite prices priced its `T`, `E` or
/// `P` to infinity or NaN: a row of `inf` and `NaN` is no result.
fn priced(r: RunResult) -> Result<RunResult, String> {
    for (quantity, x) in [("T", r.time), ("E", r.energy), ("P", r.power())] {
        finite(quantity, x).map_err(|e| e.to_string())?;
    }
    Ok(r)
}

/// [`execute`], optionally exporting virtual-cost attribution into a
/// metrics registry and under a wall-clock budget.
///
/// With a registry, a simulator run's per-rank Eq. 1/2 term breakdown
/// and raw counters land under `sim.*`
/// (`psse_algos::bridge::measure_into`) and an active fault plan
/// describes itself under `faults.*`; model runs have no per-rank
/// profile and export nothing. The returned [`RunResult`] is
/// bit-identical with and without a registry — exports are a pure
/// side-channel, so cached and fresh executions stay interchangeable.
///
/// With a `timeout`, a simulator run's config carries a
/// [`psse_sim::CancelFlag`] whose deadline is the budget: once it
/// passes, the run unwinds cooperatively (blocked receivers are woken
/// through the poison machinery) and this function returns a
/// deterministic `timeout: ...` error instead of hanging the sweep.
/// Model runs are closed-form evaluations and never watched.
pub fn execute_watched(
    key: &RunKey,
    registry: Option<&psse_metrics::Registry>,
    timeout: Option<std::time::Duration>,
) -> Result<RunResult, String> {
    if key.kind == RunKind::Model {
        return execute_model(key);
    }
    let flag = timeout.map(psse_sim::CancelFlag::after);
    match (execute_simulate(key, registry, flag.clone()), timeout) {
        // Any failure once the deadline has passed is the budget's
        // doing; normalize to one deterministic message.
        (Err(_), Some(limit)) if flag.is_some_and(|f| f.is_cancelled()) => Err(format!(
            "timeout: run exceeded the {:.3}s wall-clock budget and was cancelled",
            limit.as_secs_f64()
        )),
        (other, _) => other,
    }
}

fn execute_model(key: &RunKey) -> Result<RunResult, String> {
    let table_model;
    let alg: &dyn Algorithm = match &key.kernel {
        Some(model) => model.cost(),
        None => {
            table_model = table::model(&key.alg)?.costs(key.f, key.halo, key.iters);
            &*table_model
        }
    };
    // `mem = 0` is the least memory at (n, p); `clamp_mem` folds an
    // out-of-band request into the band instead of flagging it, by the
    // predicate of `feasible()` in `psse_bench::figures::fig4_nbody_regions`.
    let (lo, hi) = alg.memory_range(key.n, key.p).map_err(|e| e.to_string())?;
    let mem = if key.mem == 0.0 { lo } else { key.mem };
    let mem_eff = if key.clamp_mem {
        clamp_memory(mem, lo, hi)
    } else {
        mem
    };
    let feasible = (lo..=hi).contains(&mem_eff);
    let cfg = alg
        .evaluate(&key.machine, key.n, key.p, mem_eff)
        .map_err(|e| e.to_string())?;
    let mut r = RunResult::model(feasible, cfg.time, cfg.energy, mem_eff);
    r.flops = alg.total_flops(key.n);
    priced(r)
}

fn execute_simulate(
    key: &RunKey,
    registry: Option<&psse_metrics::Registry>,
    cancel: Option<psse_sim::CancelFlag>,
) -> Result<RunResult, String> {
    let sim = table::simulator(&key.alg)?;
    let mut shape = Shape::new(key.n as usize, key.p as usize, key.c as usize, key.seed);
    shape.halo = key.halo as usize;
    shape.iters = key.iters as usize;
    // A spec has no panel key: a SUMMA row reads `c` as the panel width.
    shape.panel = Some(shape.c.max(1));
    let mut cfg = sim_config_from(&key.machine);
    cfg.faults = key.faults.as_deref().cloned();
    cfg.backend = key.backend;
    // Time budget: the flag never changes virtual costs (it is only
    // consulted, never priced), so a watched run that completes is
    // bit-identical to an unwatched one.
    cfg.cancel = cancel;

    // A sweep asks for the sequential reference only where it is exact
    // and no dearer than the run — not a serial n³ product per key.
    let exact = sim.check == Check::Exact;
    let run = sim.run(&shape, cfg, exact).map_err(|e| e.to_string())?;
    if exact && !run.verified {
        return Err("output does not match the sequential reference".into());
    }
    let verified = sim.check != Check::Tolerance;
    let (output_digest, profile) = (digest_f64s(&run.output), run.profile);

    let m = match registry {
        Some(reg) => {
            if let Some(plan) = &key.faults {
                plan.export_metrics(reg, "faults")?;
            }
            measure_into(&profile, &key.machine, reg, "sim")?
        }
        None => measure(&profile, &key.machine),
    };
    priced(RunResult {
        feasible: true,
        verified,
        time: m.time,
        energy: m.energy,
        flops: profile.total_flops() as f64,
        words: profile.total_words_sent() as f64,
        msgs: profile.total_msgs_sent() as f64,
        mem_used: profile.max_mem_peak() as f64,
        retries: profile.total_retries(),
        checkpoint_words: profile.total_checkpoint_words(),
        resilience_words: profile.resilience_words(),
        resilience_msgs: profile.resilience_msgs(),
        output_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::costs::ClassicalMatMul;
    use psse_core::machines::jaketown;
    use psse_core::params::MachineParams;

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

    #[test]
    fn nbody_model_matches_the_closed_forms_bitwise() {
        let mp = contrived();
        let mut key = RunKey::model("nbody", 10_000, 50, mp.clone());
        key.f = 10.0;
        key.mem = 1000.0;
        let r = execute(&key).unwrap();
        let time = psse_core::time::t_nbody(&mp, 10_000, 50, 1000.0, 10.0);
        let energy = psse_core::energy::e_nbody(&mp, 10_000, 1000.0, 10.0);
        assert_eq!(r.time.to_bits(), time.to_bits());
        assert_eq!(r.energy.to_bits(), energy.to_bits());
        assert!(r.feasible);
    }

    #[test]
    fn infeasible_memory_is_flagged_not_rejected() {
        let mp = contrived();
        let mut key = RunKey::model("nbody", 10_000, 50, mp);
        key.f = 10.0;
        key.mem = 1e11; // far above max_useful_memory
        let r = execute(&key).unwrap();
        assert!(!r.feasible);
        // Clamped variant folds back into range and is feasible.
        key.clamp_mem = true;
        let r2 = execute(&key).unwrap();
        assert!(r2.feasible);
        assert!(r2.mem_used < 1e11);
    }

    #[test]
    fn default_memory_is_minimal() {
        let key = RunKey::model("matmul", 4096, 64, jaketown());
        let r = execute(&key).unwrap();
        let lo = ClassicalMatMul.min_memory(4096, 64);
        assert_eq!(r.mem_used, lo);
        assert!(r.feasible);
    }

    #[test]
    fn unknown_algorithms_error() {
        let key = RunKey::model("nope", 64, 4, jaketown());
        assert!(execute(&key).unwrap_err().contains("unknown model"));
        let key = RunKey::simulate("nope", 64, 4, jaketown());
        assert!(execute(&key).unwrap_err().contains("unknown simulator"));
    }

    #[test]
    fn watched_run_with_headroom_is_bit_identical() {
        let mut key = RunKey::simulate("mm25d", 32, 4, jaketown());
        key.c = 1;
        let plain = execute(&key).unwrap();
        let watched =
            execute_watched(&key, None, Some(std::time::Duration::from_secs(600))).unwrap();
        assert_eq!(plain, watched);
        // Model runs are never watched; same equivalence for free.
        let mkey = RunKey::model("nbody", 1000, 10, jaketown());
        assert_eq!(
            execute(&mkey).unwrap(),
            execute_watched(&mkey, None, Some(std::time::Duration::from_millis(1))).unwrap()
        );
    }

    #[test]
    fn exhausted_watchdog_budget_fails_with_timeout() {
        let mut key = RunKey::simulate("mm25d", 32, 4, jaketown());
        key.c = 1;
        // A zero budget fires the watchdog before the first send.
        let err = execute_watched(&key, None, Some(std::time::Duration::ZERO)).unwrap_err();
        assert!(err.starts_with("timeout:"), "{err}");
        assert!(err.contains("cancelled"), "{err}");
    }

    #[test]
    fn simulate_samplesort_verifies_against_serial_sort() {
        let mut key = RunKey::simulate("samplesort", 256, 4, jaketown());
        key.seed = 11;
        let r = execute(&key).unwrap();
        assert!(r.verified, "samplesort runs are checked in-run");
        assert!(r.words > 0.0 && r.msgs > 0.0);
        // Deterministic: equal keys, equal digests.
        assert_eq!(r, execute(&key).unwrap());
        key.seed = 12;
        assert_ne!(r.output_digest, execute(&key).unwrap().output_digest);
    }

    #[test]
    fn simulate_stencil_picks_the_decomposition_from_p() {
        // p = 4 is a perfect square dividing n = 32: 2-D blocks, W per
        // sweep = 4·(2hb + 2h(b+2h)) summed over ranks.
        let mut key = RunKey::simulate("stencil", 32, 4, jaketown());
        key.halo = 1;
        key.iters = 2;
        let r4 = execute(&key).unwrap();
        let b = 32 / 2;
        assert_eq!(r4.words as u64, 4 * 2 * (2 * b + 2 * (b + 2)));
        // p = 2 is not a square: 1-D slabs, W per sweep = p·2hn.
        key.p = 2;
        let r2 = execute(&key).unwrap();
        assert_eq!(r2.words as u64, 2 * 2 * (2 * 32));
        // Same grid, same sweeps: identical output digests across
        // decompositions (the stencil math is decomposition-blind).
        assert_eq!(r4.output_digest, r2.output_digest);
    }

    #[test]
    fn simulate_mm25d_is_deterministic_and_digested() {
        let mut key = RunKey::simulate("mm25d", 32, 4, jaketown());
        key.c = 1;
        let r1 = execute(&key).unwrap();
        let r2 = execute(&key).unwrap();
        assert_eq!(r1, r2);
        assert_ne!(r1.output_digest, 0);
        assert!(r1.time > 0.0 && r1.energy > 0.0);
        // Different input seed, different product.
        key.seed = 7;
        let r3 = execute(&key).unwrap();
        assert_ne!(r1.output_digest, r3.output_digest);
    }
}
