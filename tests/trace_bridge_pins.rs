//! Trace replay prices exactly as the live bridge does: the replay
//! parameters of a machine are those of the simulator config
//! `psse_algos::bridge` builds for it, and re-pricing a recording is
//! `bridge::measure` of its replayed profile, bit for bit.

use psse::core::machines::PRESETS;
use psse::core::twolevel::TwoLevelParams;
use psse::kernels::Matrix;
use psse::prelude::*;
use psse::sim::machine::SimConfig;
use psse::trace::{ReplayParams, Trace};

/// Every preset, and each once more with unbounded messages (`m = ∞`).
fn machines() -> Vec<MachineParams> {
    PRESETS
        .iter()
        .flat_map(|(_, preset)| {
            let mp = preset();
            let unbounded = MachineParams {
                max_message_words: f64::INFINITY,
                ..mp.clone()
            };
            [mp, unbounded]
        })
        .collect()
}

fn two_level() -> TwoLevelParams {
    TwoLevelParams {
        nodes: 4,
        cores_per_node: 2,
        gamma_t: 1e-9,
        gamma_e: 2e-9,
        beta_n_t: 2e-8,
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

#[test]
fn replay_params_of_a_machine_are_its_sim_config_s() {
    for mp in machines() {
        assert_eq!(
            ReplayParams::from(&mp),
            ReplayParams::from(&sim_config_from(&mp)),
            "{mp:?}"
        );
    }
    let tl = two_level();
    assert_eq!(
        ReplayParams::from(&tl),
        ReplayParams::from(&sim_config_two_level(&tl))
    );
}

/// A recorded 2.5D run (n = 16, p = 8, c = 2), clean or under a
/// retrying link-fault plan.
fn recorded(faults: Option<FaultPlan>) -> Trace {
    let cfg = SimConfig {
        record_trace: true,
        faults,
        ..sim_config_from(&PRESETS[0].1())
    };
    let a = Matrix::random(16, 16, 1);
    let b = Matrix::random(16, 16, 2);
    let (_, profile) = matmul_25d(&a, &b, 8, 2, cfg.clone()).unwrap();
    let trace = Trace::from_run(&cfg, &profile).unwrap();
    trace.check_consistency(&profile).unwrap();
    trace
}

fn bits(m: Measured) -> [u64; 3] {
    [m.time.to_bits(), m.energy.to_bits(), m.power.to_bits()]
}

#[test]
fn reprice_is_measure_of_the_replay() {
    let plan = FaultPlan {
        spec: FaultSpec {
            seed: 3,
            drop_rate: 0.1,
            duplicate_rate: 0.05,
            ..FaultSpec::default()
        },
        recovery: RecoveryPolicy {
            max_retries: 24,
            retry_backoff: 1e-8,
            checkpoint: None,
        },
    };
    let faulted = recorded(Some(plan));
    let own = faulted.replay(&faulted.params).unwrap();
    assert!(own.resilience_words() > 0, "the plan must bite");
    for trace in [recorded(None), faulted] {
        for mp in machines() {
            let rp = ReplayParams::from(&mp);
            let replayed = trace.replay(&rp).unwrap();
            assert_eq!(trace.summarize(&rp).unwrap(), summarize(&replayed));
            assert_eq!(
                bits(trace.reprice(&mp).unwrap()),
                bits(measure(&replayed, &mp)),
                "{mp:?}"
            );
        }
    }
}
