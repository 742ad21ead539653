//! The thread machine's scale canary: a `p = 1024` ring completes.
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
