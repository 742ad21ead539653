//! Property-based tests of the collective library: correctness over
//! random group shapes, payload sizes and subgroup layouts, plus
//! determinism and traffic-conservation invariants.

use proptest::prelude::*;
use psse_sim::prelude::*;

fn counters() -> SimConfig {
    SimConfig::counters_only()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Broadcast delivers the root's payload to every member for any
    /// world size, root and payload length.
    #[test]
    fn broadcast_any_shape(p in 1usize..10, root_pick in 0usize..10, len in 0usize..200) {
        let root = root_pick % p;
        let out = Machine::run(p, counters(), move |rank| {
            let group = Group::world(rank.size());
            let data = if rank.rank() == root {
                Some((0..len).map(|i| i as f64).collect())
            } else {
                None
            };
            rank.broadcast(Tag(0), &group, root, data)
        })
        .unwrap();
        let expect: Vec<f64> = (0..len).map(|i| i as f64).collect();
        for r in out.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// broadcast_large agrees with broadcast for any shape.
    #[test]
    fn broadcast_variants_agree(p in 1usize..10, len in 1usize..300, seed in 0u64..1000) {
        let out = Machine::run(p, counters(), move |rank| {
            let group = Group::world(rank.size());
            let payload: Vec<f64> = (0..len).map(|i| (i as f64) + seed as f64).collect();
            let a = rank.broadcast(
                Tag(0),
                &group,
                0,
                (rank.rank() == 0).then(|| payload.clone()),
            )?;
            let b = rank.broadcast_large(
                Tag(10_000),
                &group,
                0,
                (rank.rank() == 0).then(|| payload.clone()),
            )?;
            Ok(a == b && a == payload)
        })
        .unwrap();
        prop_assert!(out.results.iter().all(|&ok| ok));
    }

    /// All reduction flavours compute the same sums.
    #[test]
    fn reductions_agree(p in 1usize..9, len in 1usize..60, seed in 0u64..1000) {
        let out = Machine::run(p, counters(), move |rank| {
            let me = rank.rank() as f64 + seed as f64;
            let group = Group::world(rank.size());
            let data: Vec<f64> = (0..len).map(|i| me * (i as f64 + 1.0)).collect();
            let binomial = rank.reduce_sum(Tag(0), &group, 0, data.clone())?;
            let large = if group.len() <= 64 {
                rank.reduce_sum_large(Tag(10_000), &group, 0, data.clone())?
            } else {
                binomial.clone()
            };
            let allred = rank.allreduce_sum_group(Tag(20_000), &group, data)?;
            Ok((binomial, large, allred))
        })
        .unwrap();
        // Expected sums.
        let total: f64 = (0..p).map(|r| r as f64 + seed as f64).sum();
        let expect: Vec<f64> = (0..len).map(|i| total * (i as f64 + 1.0)).collect();
        let close = |a: &[f64]| a.iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-9);
        for (rank_id, (binomial, large, allred)) in out.results.iter().enumerate() {
            if rank_id == 0 {
                prop_assert!(close(binomial.as_ref().unwrap()));
                prop_assert!(close(large.as_ref().unwrap()));
            } else {
                prop_assert!(binomial.is_none());
            }
            prop_assert!(close(allred));
        }
    }

    /// reduce_scatter chunks tile the summed vector for any (p, len).
    #[test]
    fn reduce_scatter_tiles(p in 1usize..9, mult in 1usize..8) {
        let len = p * mult + (mult % 3); // sometimes non-divisible
        let out = Machine::run(p, counters(), move |rank| {
            let group = Group::world(rank.size());
            let data: Vec<f64> = (0..len).map(|i| (rank.rank() + i) as f64).collect();
            rank.reduce_scatter_sum(Tag(0), &group, data)
        })
        .unwrap();
        // Reassemble and compare to the serial sum.
        let mut whole = Vec::new();
        for chunk in &out.results {
            whole.extend_from_slice(chunk);
        }
        prop_assert_eq!(whole.len(), len);
        for (i, v) in whole.iter().enumerate() {
            let expect: f64 = (0..p).map(|r| (r + i) as f64).sum();
            prop_assert!((v - expect).abs() < 1e-9);
        }
    }

    /// Both all-to-alls transpose arbitrary block matrices identically.
    #[test]
    fn alltoalls_agree(log_p in 0u32..4, len in 1usize..20) {
        let p = 1usize << log_p;
        let out = Machine::run(p, counters(), move |rank| {
            let group = Group::world(rank.size());
            let me = rank.rank();
            let blocks: Vec<Vec<f64>> =
                (0..p).map(|j| vec![(me * 31 + j) as f64; len]).collect();
            let a = rank.alltoall(Tag(0), &group, blocks.clone())?;
            let b = rank.alltoall_hypercube(Tag(10_000), &group, blocks)?;
            Ok(a == b)
        })
        .unwrap();
        prop_assert!(out.results.iter().all(|&ok| ok));
    }

    /// Collectives on disjoint subgroups don't interfere, for random
    /// splits of the world.
    #[test]
    fn disjoint_subgroups_are_isolated(p in 2usize..10, cut_pick in 1usize..9) {
        let cut = 1 + (cut_pick % (p - 1)).min(p - 2);
        let out = Machine::run(p, counters(), move |rank| {
            let me = rank.rank();
            let group = if me < cut {
                Group::new((0..cut).collect())?
            } else {
                Group::new((cut..rank.size()).collect())?
            };
            rank.allreduce_sum_group(Tag(0), &group, vec![me as f64])
        })
        .unwrap();
        let low: f64 = (0..cut).map(|r| r as f64).sum();
        let high: f64 = (cut..p).map(|r| r as f64).sum();
        for (me, r) in out.results.iter().enumerate() {
            let expect = if me < cut { low } else { high };
            prop_assert_eq!(r[0], expect, "rank {}", me);
        }
    }

    /// Words sent equal words received, whatever the traffic pattern.
    #[test]
    fn traffic_is_conserved(p in 1usize..8, len in 0usize..100, seed in 0u64..100) {
        let profile = Machine::run(p, counters(), move |rank| {
            let group = Group::world(rank.size());
            let data: Vec<f64> = vec![seed as f64; len + 1];
            rank.allreduce_sum_group(Tag(0), &group, data.clone())?;
            rank.allgather(Tag(10_000), &group, data)?;
            Ok(())
        })
        .unwrap()
        .profile;
        let (sent, recvd) = profile.words_balance();
        prop_assert_eq!(sent, recvd);
        let msgs_sent: u64 = profile.per_rank().iter().map(|s| s.msgs_sent).sum();
        let msgs_recvd: u64 = profile.per_rank().iter().map(|s| s.msgs_recvd).sum();
        prop_assert_eq!(msgs_sent, msgs_recvd);
    }

    /// Virtual makespans are deterministic for randomized programs.
    #[test]
    fn makespan_is_deterministic(p in 2usize..8, rounds in 1usize..5, seed in 0u64..50) {
        let run = || {
            Machine::run(p, SimConfig::default(), move |rank| {
                let group = Group::world(rank.size());
                let mut x = vec![(rank.rank() as u64 ^ seed) as f64; 32];
                for round in 0..rounds {
                    rank.compute(1000 + (seed % 7) * 100);
                    x = rank.allreduce_sum_group(Tag(round as u64 * 1000), &group, x)?;
                }
                Ok(x[0])
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.profile, b.profile);
        prop_assert_eq!(a.results, b.results);
    }
}
