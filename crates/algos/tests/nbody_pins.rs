//! The replicated n-body algorithms, pinned bit for bit: for each grid
//! below, a digest of the output's bits, the makespan bits, a digest of
//! every rank's counters and clock, and a digest of every rank's
//! recorded events (times, peers, tags, sizes). The values were captured
//! when `nbody_replicated` and `nbody_simulate` each spelled out their
//! own layout check and layer walk; any rewrite must send the same
//! messages under the same tags and reproduce them exactly.

use psse_algos::nbody::{nbody_replicated, nbody_simulate};
use psse_kernels::nbody::random_particles;
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

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    output: u64,
    makespan_bits: u64,
    ranks: u64,
    events: u64,
}

fn pin(output: impl IntoIterator<Item = f64>, profile: &Profile) -> Pin {
    let ranks = profile.ranks().fold(FNV_BASIS, |h, (s, _)| {
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
            ],
        )
    });
    let events = profile.events.iter().flatten().fold(FNV_BASIS, |h, e| {
        let kind = format!("{:?}", e.kind);
        fnv(
            fnv(h, [e.t_start.to_bits(), e.t_end.to_bits()]),
            kind.bytes().map(u64::from),
        )
    });
    Pin {
        output: fnv(FNV_BASIS, output.into_iter().map(f64::to_bits)),
        makespan_bits: profile.makespan.to_bits(),
        ranks,
        events,
    }
}

fn cfg() -> SimConfig {
    SimConfig {
        record_trace: true,
        ..SimConfig::default()
    }
}

/// `(pr, c)` grids: the ring (`c = 1`) and one replicated layout.
const GRIDS: [(usize, usize); 2] = [(4, 1), (8, 2)];

fn check(what: &str, run: impl Fn(usize, usize) -> Pin, pins: [Pin; 2]) {
    let mut bad = Vec::new();
    for ((pr, c), want) in GRIDS.into_iter().zip(pins) {
        let got = run(pr, c);
        if got != want {
            bad.push(format!("{what} (pr, c) = ({pr}, {c}): {got:x?}"));
        }
    }
    assert!(bad.is_empty(), "pins moved:\n{}", bad.join("\n"));
}

#[test]
fn simulate_is_pinned_bit_for_bit() {
    let ps = random_particles(32, 41);
    check(
        "nbody_simulate",
        |pr, c| {
            let (out, profile) = nbody_simulate(&ps, pr, c, 3, 1e-3, cfg()).unwrap();
            let words = out
                .iter()
                .flat_map(|p| p.pos.into_iter().chain(p.vel).chain([p.mass]));
            pin(words, &profile)
        },
        [
            Pin {
                output: 0x9b0a_181f_0b33_8275,
                makespan_bits: 0x3efc_b6d6_26a3_e9e9,
                ranks: 0x40d8_4997_98b3_d5b5,
                events: 0x6ce9_06d3_4b68_30bd,
            },
            Pin {
                output: 0x3406_0f1c_0b8d_ddc8,
                makespan_bits: 0x3ef9_c84a_7e75_c924,
                ranks: 0x1ba8_1621_2793_9d85,
                events: 0xad30_5a99_99c9_5595,
            },
        ],
    );
}

#[test]
fn replicated_forces_are_pinned_bit_for_bit() {
    let ps = random_particles(32, 42);
    check(
        "nbody_replicated",
        |pr, c| {
            let (acc, profile) = nbody_replicated(&ps, pr, c, cfg()).unwrap();
            pin(acc.into_iter().flatten(), &profile)
        },
        [
            Pin {
                output: 0x06e0_97af_793b_74e9,
                makespan_bits: 0x3ee3_0ac9_b291_0c57,
                ranks: 0x6f8e_5f8a_ba3a_ffb5,
                events: 0xc439_2faf_73d3_1305,
            },
            Pin {
                output: 0x3041_c585_6881_203d,
                makespan_bits: 0x3ed8_b67c_a0b1_de2b,
                ranks: 0xa7a6_1bbf_dcf3_bd25,
                events: 0x7af9_60bd_cfad_eca1,
            },
        ],
    );
}
