//! Lower-bound certification: the communication measured on the
//! simulator must respect the paper's lower bounds (§III) — and the
//! communication-avoiding algorithms must sit within modest constants of
//! them. These tests tie all three layers together: theory (psse-core),
//! substrate (psse-sim) and algorithms (psse-algos).

use psse::core::bounds::{memory_independent_word_bound, parallel_word_lower_bound};
use psse::kernels::nbody::random_particles;
use psse::kernels::Matrix;
use psse::prelude::*;
use psse::sim::machine::SimConfig;

/// Average words sent per rank of a profile.
fn avg_words(profile: &psse::sim::Profile) -> f64 {
    profile.total_words_sent() as f64 / profile.p() as f64
}

#[test]
fn cannon_respects_and_nearly_attains_the_2d_bound() {
    // 2D: M = Θ(n²/p); the memory-dependent bound gives
    // W = Ω(F/√M − (I+O)) per processor, which for Cannon's balanced
    // blocks is Θ(n²/√p).
    let n = 64u64;
    for p in [4u64, 16, 64] {
        let a = Matrix::random(n as usize, n as usize, 1);
        let b = Matrix::random(n as usize, n as usize, 2);
        let (_, profile) = cannon_matmul(&a, &b, p as usize, SimConfig::counters_only()).unwrap();
        let nf = n as f64;
        let mem = 4.0 * nf * nf / p as f64; // measured footprint: 4 blocks
        let flops = nf * nf * nf / p as f64; // multiplies (model counts n³)
        let io = 3.0 * nf * nf / p as f64;
        let bound = parallel_word_lower_bound(flops, mem, io, 0.0);
        let measured = avg_words(&profile);
        assert!(
            measured >= bound,
            "p={p}: measured {measured} below bound {bound}"
        );
        // Near-optimality: within a factor 8 of the *undiscounted*
        // memory-dependent term F/√M (the I+O discount makes the formal
        // bound weak at toy scale).
        let term = flops / mem.sqrt();
        assert!(
            measured < 8.0 * term,
            "p={p}: measured {measured} far above F/sqrt(M) = {term}"
        );
    }
}

#[test]
fn matmul_25d_beats_the_2d_bound_but_not_the_memory_independent_one() {
    let n = 64u64;
    let p = 256u64;
    let c = 4;
    let a = Matrix::random(n as usize, n as usize, 3);
    let b = Matrix::random(n as usize, n as usize, 4);
    let (_, p25) = matmul_25d(&a, &b, p as usize, c as usize, SimConfig::counters_only()).unwrap();
    let (_, p2d) = cannon_matmul(&a, &b, 64, SimConfig::counters_only()).unwrap();

    // Replication buys real communication: per-rank average words on
    // p = 256 ranks are well below the 2D per-rank average on 64 ranks.
    assert!(avg_words(&p25) < avg_words(&p2d));

    // But no algorithm goes below the memory-independent bound
    // W = Ω(n²/p^(2/3)) (constants: ours is a lower bound with constant
    // 1; the measured run must be at or above a small fraction of it).
    let mi = memory_independent_word_bound(n, p, 3.0);
    assert!(
        avg_words(&p25) >= mi / 8.0,
        "measured {} vs memory-independent bound {mi}",
        avg_words(&p25)
    );
}

#[test]
fn nbody_replication_tracks_the_word_model() {
    // Model: W = n²/(p·M) per rank with M = Θ(c·n/p) block words. The
    // ring algorithm's measured traffic (4 words/particle) should track
    // the model shape across c within a constant.
    let n = 256usize;
    let particles = random_particles(n, 5);
    let mut ratios = Vec::new();
    for c in [1usize, 2, 4] {
        let pr = 16;
        let p = pr * c;
        let (_, profile) = nbody_replicated(&particles, pr, c, SimConfig::counters_only()).unwrap();
        let nf = n as f64;
        let mem = nf / pr as f64; // particles resident per rank (one block)
        let model_w = nf * nf / (p as f64 * mem);
        ratios.push(avg_words(&profile) / model_w);
    }
    // Constant across c within 2x (same algorithm family, same units).
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 2.0,
        "measured/model ratio should be stable across c: {ratios:?}"
    );
}

#[test]
fn fft_naive_alltoall_attains_its_word_cost() {
    // Model: W = Θ(n/p) per rank (2 words per complex value, and only
    // (p−1)/p of the data actually moves).
    let n = 4096usize;
    let mut rng = psse::kernels::rng::XorShift64::new(7);
    let x: Vec<psse::kernels::Complex64> = (0..n)
        .map(|_| psse::kernels::Complex64::new(rng.next_f64(), rng.next_f64()))
        .collect();
    for p in [4usize, 8, 16] {
        let (_, profile) =
            distributed_fft(&x, p, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
        let measured = avg_words(&profile);
        let model = 2.0 * n as f64 / p as f64; // words (2 per complex)
        let ratio = measured / model;
        assert!(
            (0.5..=1.1).contains(&ratio),
            "p={p}: measured {measured} vs model {model}"
        );
    }
}

#[test]
fn samplesort_attains_the_scquizzato_silvestri_bound() {
    // Two independent certificates. (1) The shipped samplesort kernel
    // (the bucket-counting nest, every key against every splitter)
    // derives σ = 2 through the HBL LP — the n-body exponent family —
    // confirming sorting's all-pairs comparison structure. (2) The
    // *exchange* the simulator actually runs is governed by the
    // Scquizzato–Silvestri Ω(n/p) words-per-rank bound (arXiv:1307.1805),
    // which regular sampling attains: every key crosses the network at
    // most once.
    let text = std::fs::read_to_string("specs/kernels/samplesort.kernel").unwrap();
    let kernel = Kernel::parse(&text).unwrap();
    let (cost, _) = derive(&kernel).unwrap();
    assert_eq!(cost.sigma, Rational::int(2));
    assert_eq!((cost.depth, cost.rmax), (2, 1));

    let n = 1usize << 14;
    let keys = random_keys(n, 21);
    for p in [4usize, 8, 16] {
        let (_, profile) = sample_sort(&keys, p, SimConfig::counters_only()).unwrap();
        let bound = n as f64 / p as f64;
        let measured = avg_words(&profile);
        // Attainment within constants: a rank keeps the ≈1/p of its
        // keys that land in its own bucket (free self-sends), so the
        // exchange moves (p−1)/p of each block, plus the (p−1)²
        // splitter samples on top.
        let lo = (1.0 - 1.0 / p as f64) * bound * 0.9;
        let hi = 1.1 * (bound + ((p - 1) * (p - 1)) as f64);
        assert!(
            (lo..=hi).contains(&measured),
            "p={p}: measured {measured} outside [{lo}, {hi}] around bound {bound}"
        );
        // But the latency attains Θ(p), not Θ(1): 2(p−1) messages per
        // rank (sample allgather + pairwise all-to-all) — the term that
        // denies sorting a perfect strong scaling range (paper §IV's
        // FFT counterexample, same mechanism).
        assert_eq!(profile.max_msgs_sent() as usize, 2 * (p - 1));
    }
}

#[test]
fn stencil_respects_the_skewed_kernel_bound() {
    // The skewed space-time stencil kernel also derives σ = 2, giving
    // W = Ω(G/(p·M)) for G total grid updates. A plain halo-exchange
    // sweep (no temporal blocking) holds M = n²/p, where the bound
    // degenerates to Ω(iters) — respected by orders of magnitude, but
    // *not* attained: attaining it requires time-tiling. What the
    // measured traffic does match exactly is the surface closed form
    // iters·(2hb + 2h(b+2h)) per rank, b = n/√p.
    let text = std::fs::read_to_string("specs/kernels/stencil3.kernel").unwrap();
    let kernel = Kernel::parse(&text).unwrap();
    let (cost, _) = derive(&kernel).unwrap();
    assert_eq!(cost.sigma, Rational::int(2));
    assert_eq!(cost.depth, 3);

    let n = 64usize;
    let (halo, iters) = (1usize, 4usize);
    let grid = random_grid(n, 22);
    for p in [4usize, 16] {
        let (_, profile) = halo_stencil(
            &grid,
            n,
            halo,
            iters,
            Decomp::TwoD,
            p,
            SimConfig::counters_only(),
        )
        .unwrap();
        let mem = (n * n) as f64 / p as f64;
        let updates = (iters * n * n) as f64;
        let bound = updates / (p as f64 * mem.powf(cost.sigma.to_f64() - 1.0));
        let measured = avg_words(&profile);
        assert!(
            measured >= bound,
            "p={p}: measured {measured} below HBL bound {bound}"
        );
        let b = n / (p as f64).sqrt() as usize;
        let surface = (iters * (2 * halo * b + 2 * halo * (b + 2 * halo))) as f64;
        assert_eq!(measured, surface, "p={p}");
    }
}

#[test]
fn strassen_leaf_traffic_matches_the_fum_bound() {
    // Non-leader leaf ranks send exactly (n/2^k)² = n²/p^(2/ω0) words —
    // the memory-independent Strassen bound of Ballard et al.
    let n = 32u64;
    let p = 49u64; // k = 2
    let a = Matrix::random(n as usize, n as usize, 8);
    let b = Matrix::random(n as usize, n as usize, 9);
    let (_, profile) =
        strassen_distributed(&a, &b, p as usize, SimConfig::counters_only()).unwrap();
    let bound = memory_independent_word_bound(n, p, psse::core::STRASSEN_OMEGA);
    // p^(2/ω0) = 4^k exactly for p = 7^k.
    let leaf_words = (n as f64 / 4.0).powi(2);
    assert!((leaf_words / bound - 1.0).abs() < 1e-9);
    // Rank 1 is a deepest-level non-leader: its sends equal the bound.
    assert_eq!(profile.per_rank()[1].words_sent as f64, leaf_words);
}
