//! Fuzz-style property tests of the point-to-point layer: random matched
//! communication schedules must deliver every payload intact, conserve
//! traffic, and produce bit-identical profiles on re-execution.

use proptest::prelude::*;
use psse_sim::meter::{charge_chunks, chunk_count};
use psse_sim::prelude::*;

/// A randomly generated transfer: src → dst with a unique tag and a
/// payload derived from (src, tag).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    src: usize,
    dst: usize,
    tag: u64,
    len: usize,
}

fn payload_for(t: &Transfer) -> Vec<f64> {
    (0..t.len)
        .map(|i| (t.src * 1_000_003 + t.tag as usize * 97 + i) as f64)
        .collect()
}

/// Strategy: a world size and a set of transfers with unique tags.
fn schedules() -> impl Strategy<Value = (usize, Vec<Transfer>)> {
    (2usize..7).prop_flat_map(|p| {
        let transfer =
            (0usize..p, 0usize..p, 0usize..400).prop_map(move |(src, dst, len)| Transfer {
                src,
                dst: if src == dst { (dst + 1) % p } else { dst },
                tag: 0, // assigned below
                len,
            });
        (Just(p), prop::collection::vec(transfer, 1..40)).prop_map(|(p, mut ts)| {
            for (i, t) in ts.iter_mut().enumerate() {
                t.tag = i as u64; // unique tags: no matching ambiguity
            }
            (p, ts)
        })
    })
}

fn run_schedule(p: usize, transfers: &[Transfer], cfg: SimConfig) -> SimOutcome<usize> {
    Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        // Deterministic per-rank order: first all sends (eager, never
        // block), then all receives in schedule order.
        for t in transfers.iter().filter(|t| t.src == me) {
            rank.send(t.dst, Tag(t.tag), payload_for(t))?;
        }
        let mut received = 0usize;
        for t in transfers.iter().filter(|t| t.dst == me) {
            let data = rank.recv(t.src, Tag(t.tag))?;
            assert_eq!(data, payload_for(t), "payload corrupted in transit");
            received += 1;
        }
        Ok(received)
    })
    .expect("schedule must complete")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every payload arrives intact; word/message totals balance; the
    /// profile is deterministic across executions.
    #[test]
    fn random_schedules_deliver_and_conserve((p, transfers) in schedules()) {
        let out1 = run_schedule(p, &transfers, SimConfig::default());
        let total_received: usize = out1.results.iter().sum();
        prop_assert_eq!(total_received, transfers.len());

        let (sent, recvd) = out1.profile.words_balance();
        prop_assert_eq!(sent, recvd);
        let expected_words: u64 = transfers.iter().map(|t| t.len as u64).sum();
        prop_assert_eq!(sent, expected_words);

        // Determinism: an identical re-run yields an identical profile.
        let out2 = run_schedule(p, &transfers, SimConfig::default());
        prop_assert_eq!(out1.profile, out2.profile);
    }

    /// Message splitting: with a tiny message cap, message counts equal
    /// the sum of per-transfer ceil(len/m), and payloads still arrive
    /// intact (checked inside run_schedule).
    #[test]
    fn random_schedules_split_consistently(
        (p, transfers) in schedules(),
        m in 1usize..17,
    ) {
        let cfg = SimConfig {
            max_message_words: m,
            ..SimConfig::counters_only()
        };
        let out = run_schedule(p, &transfers, cfg);
        let expected_msgs: u64 = transfers
            .iter()
            .map(|t| if t.len == 0 { 1 } else { t.len.div_ceil(m) } as u64)
            .sum();
        let total_msgs: u64 = out.profile.per_rank().iter().map(|s| s.msgs_sent).sum();
        prop_assert_eq!(total_msgs, expected_msgs);
    }

    /// Virtual makespan is invariant to receive order: permuting the
    /// receive sequence of a rank cannot change send-side clocks, and
    /// the final clock is the max over arrivals either way.
    #[test]
    fn makespan_invariant_to_receive_order((p, transfers) in schedules(), flip in any::<bool>()) {
        let transfers = &transfers;
        let run = |reversed: bool| {
            Machine::run(p, SimConfig::default(), |rank| {
                let me = rank.rank();
                for t in transfers.iter().filter(|t| t.src == me) {
                    rank.send(t.dst, Tag(t.tag), payload_for(t))?;
                }
                let mut mine: Vec<&Transfer> =
                    transfers.iter().filter(|t| t.dst == me).collect();
                if reversed {
                    mine.reverse();
                }
                for t in mine {
                    rank.recv(t.src, Tag(t.tag))?;
                }
                Ok(rank.now())
            })
            .expect("schedule must complete")
        };
        let a = run(false);
        let b = run(flip);
        // Per-rank final clocks agree (max over the same arrival set).
        for (x, y) in a.results.iter().zip(&b.results) {
            prop_assert!((x - y).abs() < 1e-15);
        }
        prop_assert!((a.profile.makespan - b.profile.makespan).abs() < 1e-15);
    }

    /// The one chunk-charging primitive: `⌈words/m⌉` chunks (one for an
    /// empty transfer) of at most `m` words that sum to `words`, and a
    /// clock equal to the left-to-right fold of `α + β·k`.
    #[test]
    fn charge_chunks_splits_and_folds(
        words in 0u64..5000,
        m in 1u64..300,
        alpha in 0.0f64..1e-3,
        beta in 0.0f64..1e-6,
        start in 0.0f64..10.0,
    ) {
        let mut time = start;
        let mut ks = Vec::new();
        charge_chunks(&mut time, words, m, alpha, beta, |k| ks.push(k));
        prop_assert_eq!(ks.len(), chunk_count(words as usize, m as usize));
        prop_assert_eq!(ks.len() as u64, words.div_ceil(m).max(1));
        prop_assert_eq!(ks.iter().sum::<u64>(), words);
        prop_assert!(ks.iter().all(|&k| k <= m));
        let fold = ks.iter().fold(start, |t, &k| t + (alpha + beta * k as f64));
        prop_assert_eq!(time.to_bits(), fold.to_bits());
    }
}
