//! Cannon's algorithm, pinned bit for bit: for each shape and machine
//! below, the makespan bits, a digest of every rank's counters and
//! clock, and a digest of the product's bits. The values were captured
//! from Cannon's own `q × q` multiply-shift closure; any rewrite of
//! `cannon_matmul` must reproduce them exactly.

use psse_algos::prelude::*;
use psse_kernels::matrix::Matrix;
use psse_sim::machine::Hierarchy;
use psse_sim::prelude::*;

/// FNV-1a over `words`' little-endian bytes, continuing from `h`.
fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for x in words {
        for byte in x.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Every rank's counters, clock bits and overhead block, in rank order.
fn rank_digest(profile: &Profile) -> u64 {
    profile.ranks().fold(FNV_BASIS, |h, (s, o)| {
        fnv(
            h,
            [
                s.flops,
                s.words_sent,
                s.msgs_sent,
                s.words_recvd,
                s.msgs_recvd,
                s.mem_current,
                s.mem_peak,
                s.finish_time.to_bits(),
                o.words_sent_intra,
                o.msgs_sent_intra,
                o.retries,
                o.retrans_words,
                o.retrans_msgs,
                o.checkpoint_words,
                o.checkpoint_msgs,
                o.crashes_recovered,
            ],
        )
    })
}

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    makespan_bits: u64,
    ranks: u64,
    output: u64,
}

fn run(n: usize, p: usize, cfg: SimConfig) -> Pin {
    let a = Matrix::random(n, n, 31);
    let b = Matrix::random(n, n, 32);
    let (c, profile) = cannon_matmul(&a, &b, p, cfg).unwrap();
    Pin {
        makespan_bits: profile.makespan.to_bits(),
        ranks: rank_digest(&profile),
        output: fnv(FNV_BASIS, c.as_slice().iter().map(|x| x.to_bits())),
    }
}

const SHAPES: [(usize, usize); 3] = [(16, 16), (60, 36), (32, 64)];

/// Check every shape under `cfg` against `pins`, reporting all
/// mismatches at once.
fn check(what: &str, cfg: SimConfig, pins: [Pin; 3]) {
    let mut bad = Vec::new();
    for ((n, p), pin) in SHAPES.into_iter().zip(pins) {
        let got = run(n, p, cfg.clone());
        if got != pin {
            bad.push(format!("{what} (n, p) = ({n}, {p}): {got:x?}"));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

fn pin(makespan_bits: u64, ranks: u64, output: u64) -> Pin {
    Pin {
        makespan_bits,
        ranks,
        output,
    }
}

#[test]
fn counters_only() {
    check(
        "counters-only",
        SimConfig::counters_only(),
        [
            pin(0, 0x60d0_9bf1_5bff_8fa5, 0xa2fd_f7bc_6234_210a),
            pin(0, 0x4337_a56f_08ef_1171, 0x52a1_3683_4823_6c1f),
            pin(0, 0xd680_6755_7e0a_5ae5, 0x7cd0_e3f6_7100_2c94),
        ],
    );
}

#[test]
fn seven_word_messages() {
    let cfg = SimConfig {
        max_message_words: 7,
        ..SimConfig::default()
    };
    check(
        "m = 7",
        cfg,
        [
            pin(
                0x3efb_0b7c_be75_23cd,
                0x311f_e37b_5c1b_73c5,
                0xa2fd_f7bc_6234_210a,
            ),
            pin(
                0x3f2a_bd1a_a821_f27d,
                0x326a_a0e6_0f59_12d9,
                0x52a1_3683_4823_6c1f,
            ),
            pin(
                0x3f0b_0b7c_be75_23d2,
                0xf119_c081_aa3c_b9a5,
                0x7cd0_e3f6_7100_2c94,
            ),
        ],
    );
}

#[test]
fn three_cores_per_node() {
    let cfg = SimConfig {
        hierarchy: Some(Hierarchy {
            cores_per_node: 3,
            intra_beta_t: 1e-9,
            intra_alpha_t: 1e-7,
        }),
        ..SimConfig::default()
    };
    check(
        "hierarchy",
        cfg,
        [
            pin(
                0x3ee4_890a_3b7e_6c7c,
                0xf11a_c76c_75dc_d724,
                0xa2fd_f7bc_6234_210a,
            ),
            pin(
                0x3f02_dfd6_94cc_ab40,
                0x26c8_cf95_2ba2_5849,
                0x52a1_3683_4823_6c1f,
            ),
            pin(
                0x3ef4_890a_3b7e_6c7a,
                0x2717_2e1b_7552_ff7a,
                0x7cd0_e3f6_7100_2c94,
            ),
        ],
    );
}

#[test]
fn retried_link_faults() {
    let cfg = SimConfig {
        faults: Some(FaultPlan {
            spec: FaultSpec {
                seed: 7,
                drop_rate: 0.05,
                corrupt_rate: 0.02,
                duplicate_rate: 0.02,
                delay_rate: 0.05,
                delay_seconds: 1e-6,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 24,
                retry_backoff: 1e-8,
                checkpoint: None,
            },
        }),
        ..SimConfig::default()
    };
    let a = Matrix::random(16, 16, 31);
    let (_, profile) = cannon_matmul(&a, &a, 16, cfg.clone()).unwrap();
    assert!(
        profile.ranks().any(|(_, o)| o.retries > 0),
        "the plan must bite"
    );
    check(
        "faults",
        cfg,
        [
            pin(
                0x3ef0_698d_3ff7_9a5d,
                0x8020_c1a1_091b_c249,
                0xa2fd_f7bc_6234_210a,
            ),
            pin(
                0x3f0b_536d_9051_4672,
                0x88e2_6e4d_1177_469d,
                0x52a1_3683_4823_6c1f,
            ),
            pin(
                0x3eff_3865_b349_5440,
                0xbd4c_cf5a_c54c_24b6,
                0x7cd0_e3f6_7100_2c94,
            ),
        ],
    );
}
