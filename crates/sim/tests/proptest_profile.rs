//! A profile folds its sums and maxima once, as it is built: whatever
//! the counters, every `total_*`, `max_*` and the makespan must equal a
//! recomputation over [`Profile::per_rank`], for a profile built by
//! `from_parts` and for one composed by `then`.

use proptest::prelude::*;
use psse_sim::{Profile, RankStats};

/// A counter up to 2⁴⁰, zero half the time so maxima tie.
fn counter() -> impl Strategy<Value = u64> {
    (any::<bool>(), 0u64..1 << 40).prop_map(|(zero, x)| if zero { 0 } else { x })
}

/// A clock, zero a third of the time.
fn clock() -> impl Strategy<Value = f64> {
    (0u8..3, 0.0f64..1e3).prop_map(|(zero, t)| if zero == 0 { 0.0 } else { t })
}

fn rank_stats() -> impl Strategy<Value = RankStats> {
    (
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
        clock(),
    )
        .prop_map(
            |(flops, words_sent, msgs_sent, words_recvd, msgs_recvd, mem_current, mem_peak, t)| {
                RankStats {
                    flops,
                    words_sent,
                    msgs_sent,
                    words_recvd,
                    msgs_recvd,
                    mem_current,
                    mem_peak,
                    finish_time: t,
                }
            },
        )
}

/// Two worlds of the same size, `p` in 0..64.
fn two_worlds() -> impl Strategy<Value = (Vec<RankStats>, Vec<RankStats>)> {
    (0usize..64).prop_flat_map(|p| {
        (
            prop::collection::vec(rank_stats(), p..p + 1),
            prop::collection::vec(rank_stats(), p..p + 1),
        )
    })
}

/// Every folded sum and maximum against a fresh pass over the ranks.
fn assert_folds(profile: &Profile) {
    let ranks = profile.per_rank();
    let sum = |of: fn(&RankStats) -> u64| ranks.iter().map(of).sum::<u64>();
    let max = |of: fn(&RankStats) -> u64| ranks.iter().map(of).max().unwrap_or(0);
    assert_eq!(profile.total_flops(), sum(|r| r.flops));
    assert_eq!(profile.total_words_sent(), sum(|r| r.words_sent));
    assert_eq!(profile.total_msgs_sent(), sum(|r| r.msgs_sent));
    assert_eq!(profile.max_flops(), max(|r| r.flops));
    assert_eq!(profile.max_words_sent(), max(|r| r.words_sent));
    assert_eq!(profile.max_msgs_sent(), max(|r| r.msgs_sent));
    assert_eq!(profile.max_mem_peak(), max(|r| r.mem_peak));
}

fn built(ranks: Vec<RankStats>) -> Profile {
    Profile::from_parts(ranks, Vec::new(), Vec::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folds_equal_a_pass_over_the_ranks((a, b) in two_worlds()) {
        let latest = a.iter().map(|r| r.finish_time).fold(0.0_f64, f64::max);
        let (a, b) = (built(a), built(b));
        assert_folds(&a);
        assert_folds(&b);
        prop_assert_eq!(a.makespan.to_bits(), latest.to_bits());

        let both = a.then(&b);
        assert_folds(&both);
        prop_assert_eq!(both.makespan.to_bits(), (a.makespan + b.makespan).to_bits());
    }
}
