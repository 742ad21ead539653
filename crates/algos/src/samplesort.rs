//! Distributed sample sort (Scquizzato–Silvestri lower-bound family).
//!
//! The first priced workload outside linear algebra / n-body: sorting
//! `n` keys on `p` ranks by **regular sampling**:
//!
//! 1. each rank sorts its `n/p` local keys,
//! 2. each rank picks `p − 1` evenly spaced samples from its sorted
//!    block; an allgather shares all `p·(p − 1)` candidates and every
//!    rank deterministically selects the same `p − 1` splitters,
//! 3. the local block is partitioned into `p` buckets by splitter and a
//!    pairwise **all-to-all** redistributes every key to its bucket
//!    owner,
//! 4. each rank sorts the concatenation of its received (sorted) runs,
//!    charged as a `⌈log₂ p⌉`-level merge; the concatenation of rank
//!    outputs in rank order is the globally sorted sequence.
//!
//! Every sort is `psse_kernels::sort::sort_total`, whose output any
//! correct sort in `f64::total_cmp` order would match bit for bit.
//!
//! Cost shape: `F = Θ((n/p)·log n)`, `W = Θ(n/p)` (every key crosses the
//! network once — the Scquizzato–Silvestri sorting bandwidth bound
//! `Ω(n/p)` is attained within a small constant), but `S = Θ(p)`: the
//! all-to-all sends one message per peer, so the latency term `αt·S`
//! *grows* with `p` instead of shrinking. That is exactly the paper's
//! FFT counterexample shape — sample sort has no perfect strong scaling
//! range, and `crate::samplesort` + `psse-core`'s `SampleSortModel`
//! quantify the departure from `1/p`.

use psse_kernels::ceil_log2;
use psse_kernels::rng::XorShift64;
use psse_kernels::sort::{sort_flops, sort_total};
use psse_sim::prelude::*;

/// Tag base for the splitter allgather (ring offsets `0..p−1`).
const SS_SAMPLE: u64 = 0;
/// Tag base for the bucket all-to-all (offsets `0..TAG_WINDOW`).
const SS_EXCHANGE: u64 = 1 << 20;

/// Deterministic seeded keys in `[-1, 1)` — the canonical input of the
/// sorting workload (same generator family as the n-body particles).
pub fn random_keys(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Sort `keys` on `p` ranks by regular-sampling sample sort. Requires
/// `p | n` and `n ≥ p²` (each rank must hold enough keys to sample).
/// Returns the globally sorted keys plus the execution profile.
pub fn sample_sort(
    keys: &[f64],
    p: usize,
    cfg: SimConfig,
) -> Result<(Vec<f64>, Profile), SimError> {
    let n = keys.len();
    if p == 0 {
        return Err(SimError::Algorithm("samplesort: p must be >= 1".into()));
    }
    if !n.is_multiple_of(p) || n == 0 {
        return Err(SimError::Algorithm(format!(
            "samplesort: key count must be a positive multiple of p (n = {n}, p = {p})"
        )));
    }
    let bs = n / p;
    if bs < p {
        return Err(SimError::Algorithm(format!(
            "samplesort: need n ≥ p² so each rank can sample p − 1 keys \
             (n = {n}, p = {p})"
        )));
    }
    let s = p - 1; // samples per rank

    let out = Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        // Working set: local block + bucket staging + the shared
        // splitter candidates. The received keys are allocated when
        // they arrive (their size is data-dependent).
        let base_words = (2 * bs + p * s) as u64;
        rank.alloc(base_words)?;

        // Phase 1: local sort.
        let mut block: Vec<f64> = keys[me * bs..(me + 1) * bs].to_vec();
        sort_total(&mut block);
        rank.compute(sort_flops(bs));

        // Phase 2: regular samples + splitter agreement. Sample i sits
        // at position (i+1)·bs/p of the sorted block; the ring
        // allgather shares all p·(p−1) candidates and every rank sorts
        // them identically, so all ranks agree on the p − 1 splitters.
        let group = Group::world(p);
        let samples: Vec<f64> = (1..p).map(|i| block[i * bs / p]).collect();
        let gathered = rank.allgather(Tag(SS_SAMPLE), &group, samples)?;
        let mut candidates: Vec<f64> = gathered.into_iter().flatten().collect();
        sort_total(&mut candidates);
        rank.compute(sort_flops(p * s));
        let splitters: Vec<f64> = (0..s).map(|j| candidates[(j + 1) * s]).collect();

        // Phase 3: partition the sorted block into p buckets — bucket d
        // holds the keys in (splitter[d−1], splitter[d]] — and exchange
        // all-to-all. p − 1 binary searches find the cut points.
        let mut cuts = Vec::with_capacity(p + 1);
        cuts.push(0usize);
        for sp in &splitters {
            cuts.push(block.partition_point(|x| x.total_cmp(sp).is_le()));
        }
        cuts.push(bs);
        rank.compute(s as u64 * ceil_log2(bs.max(2)));
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|d| block[cuts[d]..cuts[d + 1]].to_vec())
            .collect();
        let received = rank.alltoall(Tag(SS_EXCHANGE), &group, blocks)?;

        // Phase 4: sort the received sorted runs together (charged as
        // their p-way merge: one comparison per key per merge level,
        // ⌈log₂ p⌉ levels).
        let total: usize = received.iter().map(Vec::len).sum();
        rank.alloc(total as u64)?;
        let mut bucket: Vec<f64> = received.into_iter().flatten().collect();
        sort_total(&mut bucket);
        rank.compute(total as u64 * ceil_log2(p));

        rank.free(base_words + total as u64)?;
        Ok(bucket)
    })?;

    // Bucket d on rank d holds exactly the keys between splitters d−1
    // and d: the concatenation in rank order is globally sorted.
    let mut sorted = Vec::with_capacity(n);
    for bucket in &out.results {
        sorted.extend_from_slice(bucket);
    }
    Ok((sorted, out.profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_sorted(keys: &[f64]) -> Vec<f64> {
        let mut v = keys.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn matches_serial_sort() {
        for (n, p) in [(64usize, 1usize), (64, 4), (256, 8), (1024, 16), (4096, 4)] {
            let keys = random_keys(n, 11 + n as u64);
            let (sorted, _) = sample_sort(&keys, p, SimConfig::counters_only()).unwrap();
            assert_eq!(sorted.len(), n, "n={n} p={p}: length preserved");
            // Bit-identical to the serial sort: same multiset, same
            // total order, no arithmetic performed on keys.
            let reference = serial_sorted(&keys);
            for (i, (a, b)) in sorted.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} p={p} index {i}");
            }
        }
    }

    #[test]
    fn handles_duplicate_keys() {
        let mut keys = random_keys(512, 3);
        for i in 0..256 {
            keys[2 * i + 1] = keys[2 * i]; // every key duplicated
        }
        let (sorted, _) = sample_sort(&keys, 8, SimConfig::counters_only()).unwrap();
        assert_eq!(sorted, serial_sorted(&keys));
    }

    #[test]
    fn words_scale_as_n_over_p() {
        // The exchange moves ~(n/p)·(p−1)/p words per rank; the sample
        // allgather adds (p−1)² — lower-order while p² ≪ n.
        let n = 1 << 16;
        let keys = random_keys(n, 5);
        let (_, p8) = sample_sort(&keys, 8, SimConfig::counters_only()).unwrap();
        let (_, p16) = sample_sort(&keys, 16, SimConfig::counters_only()).unwrap();
        let ratio = p8.max_words_sent() as f64 / p16.max_words_sent() as f64;
        assert!((1.5..=2.4).contains(&ratio), "W should ~halve: {ratio}");
    }

    #[test]
    fn message_count_grows_linearly_with_p() {
        // The scaling-breaker: S = 2(p−1) per rank (allgather ring +
        // pairwise all-to-all), growing with p instead of shrinking.
        let n = 1 << 14;
        let keys = random_keys(n, 7);
        for p in [4usize, 8, 16] {
            let (_, profile) = sample_sort(&keys, p, SimConfig::counters_only()).unwrap();
            assert_eq!(
                profile.max_msgs_sent(),
                2 * (p as u64 - 1),
                "p={p}: latency cost is linear in p"
            );
        }
    }

    #[test]
    fn flops_scale_with_p() {
        let n = 1 << 14;
        let keys = random_keys(n, 9);
        let (_, p4) = sample_sort(&keys, 4, SimConfig::counters_only()).unwrap();
        let (_, p16) = sample_sort(&keys, 16, SimConfig::counters_only()).unwrap();
        let ratio = p4.max_flops() as f64 / p16.max_flops() as f64;
        // Not perfectly 4: the block shrinks by 4 but log(block) only
        // drops by 2 bits; still clearly parallel.
        assert!(ratio > 3.0, "flop ratio {ratio}");
    }

    #[test]
    fn rerun_is_bit_identical() {
        let keys = random_keys(4096, 13);
        let (s1, p1) = sample_sort(&keys, 8, SimConfig::counters_only()).unwrap();
        let (s2, p2) = sample_sort(&keys, 8, SimConfig::counters_only()).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn rejects_bad_configurations() {
        let keys = random_keys(100, 1);
        // p does not divide n.
        assert!(sample_sort(&keys, 3, SimConfig::counters_only()).is_err());
        // n < p²: not enough keys to sample.
        let keys = random_keys(64, 2);
        assert!(sample_sort(&keys, 16, SimConfig::counters_only()).is_err());
        // Empty input.
        assert!(sample_sort(&[], 1, SimConfig::counters_only()).is_err());
        // p = 0.
        assert!(sample_sort(&keys, 0, SimConfig::counters_only()).is_err());
    }
}
