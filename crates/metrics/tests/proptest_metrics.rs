//! Property-based tests for the metrics layer: histogram merge is
//! exactly associative and commutative (the guarantee that makes
//! per-worker shard reduction deterministic), snapshots are canonical
//! regardless of recording order, and histogram JSON round-trips.

use proptest::prelude::*;
use psse_metrics::prelude::*;

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Samples spanning every octave regime: exact small buckets, mid-range
/// log-linear buckets, and near-overflow values.
fn sample() -> impl Strategy<Value = u64> {
    (0u64..3, any::<u64>()).prop_map(|(regime, raw)| match regime {
        0 => raw % 64,
        1 => raw % 1_000_000,
        _ => raw,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, b) == merge(b, a), down to full state equality.
    #[test]
    fn merge_is_commutative(
        xs in prop::collection::vec(sample(), 0..40),
        ys in prop::collection::vec(sample(), 0..40),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)) — so any
    /// reduction-tree shape over worker shards gives the same result.
    #[test]
    fn merge_is_associative(
        xs in prop::collection::vec(sample(), 0..30),
        ys in prop::collection::vec(sample(), 0..30),
        zs in prop::collection::vec(sample(), 0..30),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merging shards equals recording the concatenated sample stream
    /// directly — sharding loses nothing.
    #[test]
    fn sharding_is_lossless(
        xs in prop::collection::vec(sample(), 0..40),
        ys in prop::collection::vec(sample(), 0..40),
    ) {
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(merged, hist_of(&all));
    }

    /// A histogram survives the JSON round-trip with full state
    /// equality (buckets, count, exact sum, min, max).
    #[test]
    fn histogram_json_round_trips(xs in prop::collection::vec(sample(), 0..60)) {
        let h = hist_of(&xs);
        let text = histogram_to_json(&h).to_string();
        let parsed = Json::parse(&text).unwrap();
        let back = histogram_from_json(&parsed).unwrap();
        prop_assert_eq!(back, h);
    }

    /// Snapshot JSON is canonical: recording the same multiset of
    /// samples in any order yields identical bytes.
    #[test]
    fn snapshot_is_order_independent(
        xs in prop::collection::vec(sample(), 1..40),
        seed in any::<u64>(),
    ) {
        let reg_a = Registry::new();
        let ha = reg_a.histogram("wall_ns").unwrap();
        for &v in &xs {
            ha.record(v);
        }
        reg_a.counter("runs").unwrap().add(xs.len() as u64);

        // Same samples, deterministically shuffled, registered in the
        // opposite metric order.
        let mut perm = xs.clone();
        let mut state = seed;
        for i in (1..perm.len()).rev() {
            // splitmix64 step — keeps the shuffle self-contained.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            perm.swap(i, (z % (i as u64 + 1)) as usize);
        }
        let reg_b = Registry::new();
        reg_b.counter("runs").unwrap().add(perm.len() as u64);
        let hb = reg_b.histogram("wall_ns").unwrap();
        for &v in &perm {
            hb.record(v);
        }

        prop_assert_eq!(
            reg_a.snapshot().to_json().to_string(),
            reg_b.snapshot().to_json().to_string()
        );
    }

    /// Arbitrary JSON trees round-trip through emit → parse.
    #[test]
    fn json_value_round_trips(
        ints in prop::collection::vec(any::<u64>(), 0..8),
        bits in prop::collection::vec(any::<u64>(), 0..4),
        // Printable ASCII plus the characters the emitter escapes.
        chars in prop::collection::vec(0u8..100, 0..24),
    ) {
        let floats: Vec<Json> = bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .filter(|f| f.is_finite())
            .map(Json::Float)
            .collect();
        let s: String = chars
            .iter()
            .map(|&c| match c {
                95 => '"',
                96 => '\\',
                97 => '\n',
                98 => '\t',
                99 => '\u{1}',
                c => (b' ' + c) as char,
            })
            .collect();
        let v = Json::obj(vec![
            // Signed coverage: interpret the raw u64 as i64.
            ("ints", Json::Arr(ints.iter().map(|&i| Json::Int(i as i64 as i128)).collect())),
            ("floats", Json::Arr(floats)),
            ("s", Json::Str(s)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        prop_assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
