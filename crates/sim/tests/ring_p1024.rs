//! The thread machine's scale canary: a `p = 1024` ring completes, and a
//! world past `MAX_THREAD_RANKS` is refused.
//!
//! One OS thread per rank is the backend's ceiling (`p ≲ 10³`), so the
//! largest ring it is expected to host is worth a test of its own: 1024
//! rank threads, every one blocked in a receive at some point, no
//! timeout to fall back on. A lost wake-up here is a hang, which is why
//! CI loops this crate's release suite under `timeout`.

use psse_sim::prelude::*;

#[test]
fn ring_of_1024_ranks_completes() {
    const P: usize = 1024;
    const STEPS: u64 = 4;
    let out = Machine::run(P, SimConfig::counters_only(), |rank| {
        let right = (rank.rank() + 1) % rank.size();
        let left = (rank.rank() + rank.size() - 1) % rank.size();
        let mut block = vec![rank.rank() as f64; 256];
        for step in 0..STEPS {
            block = rank.sendrecv(right, Tag(step), block, left, Tag(step))?;
        }
        Ok(block[0])
    })
    .expect("p = 1024 ring");
    assert_eq!(out.results.len(), P);
    assert_eq!(out.profile.total_msgs_sent(), STEPS * P as u64);
    // After four shifts to the right every rank holds the block that
    // started four places to its left.
    for (r, &v) in out.results.iter().enumerate() {
        assert_eq!(v, ((r + P - STEPS as usize) % P) as f64);
    }
}

/// Past the ceiling the machine refuses before it spawns anything: the
/// alternative is an abort inside `std::thread` once the process runs
/// out of memory mappings (`psse simulate --p 70000` did, exit 134).
#[test]
fn a_world_past_the_ceiling_is_a_typed_error() {
    use psse_sim::machine::MAX_THREAD_RANKS;
    let err = Machine::run(MAX_THREAD_RANKS + 1, SimConfig::counters_only(), |_| Ok(()))
        .expect_err("p = 16 385 is over the ceiling");
    match err {
        SimError::InvalidConfig(msg) => {
            assert!(
                msg.contains("16384") && msg.contains("event engine"),
                "{msg}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
