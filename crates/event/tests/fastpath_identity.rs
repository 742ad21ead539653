//! Differential enforcement of the analytic fast path: for every
//! machine and chunking, [`EventMachine::run`] (fast path eligible) and
//! [`EventMachine::run_general`] (fast path forced off) must produce
//! **byte-identical** profiles — same counters, same `f64` bits in
//! every clock. The fast path's claim is not "close", it is "the same
//! arithmetic in the same order"; these tests hold it to that.
//!
//! Engagement itself (that `run` really does take the fast path on the
//! headline workload) is pinned by unit tests inside `fastpath.rs`;
//! here a fixed `p = 10^5` fixture additionally pins the makespan to
//! exact bits so any silent arithmetic change — in either path — fails
//! loudly.

use proptest::prelude::*;
use psse_event::prelude::*;

/// Bit-exact profile comparison: `PartialEq` on `Profile` covers every
/// counter, but compares clocks with `f64 ==`; chase it with `to_bits`
/// so the assertion really is byte identity.
fn assert_profiles_identical(fast: &psse_sim::Profile, general: &psse_sim::Profile) {
    assert_eq!(fast, general);
    assert_eq!(fast.makespan.to_bits(), general.makespan.to_bits());
    for (a, b) in fast.per_rank.iter().zip(&general.per_rank) {
        assert_eq!(a.finish_time.to_bits(), b.finish_time.to_bits());
    }
}

/// `run` prices `make`'s programs in closed form, and `run_general`
/// schedules the same programs to the same bytes.
fn assert_paths_agree<P: RankProgram>(p: usize, cfg: &SimConfig, make: impl Fn(usize, usize) -> P) {
    let fast = EventMachine::run(p, cfg, &make).unwrap();
    assert!(fast.programs.is_empty(), "p = {p}: priced, not scheduled");
    let general = EventMachine::run_general(p, cfg, &make).unwrap();
    assert_profiles_identical(&fast.profile, &general.profile);
}

/// Machines spanning the pricing space: zero prices (the degenerate
/// counters-only calendar), defaults, and adversarially lopsided
/// latency/bandwidth ratios; `m` down to 1 exercises heavy chunking.
fn arb_cfg() -> impl Strategy<Value = SimConfig> {
    (
        prop::sample::select(vec![0.0f64, 1e-9, 3.5e-8]),
        prop::sample::select(vec![0.0f64, 1e-8, 7e-7]),
        prop::sample::select(vec![0.0f64, 1e-6, 1e-3]),
        1usize..129,
    )
        .prop_map(|(gamma_t, beta_t, alpha_t, max_message_words)| SimConfig {
            backend: Backend::Events,
            gamma_t,
            beta_t,
            alpha_t,
            max_message_words,
            ..SimConfig::default()
        })
}

proptest! {
    #[test]
    fn binomial_fast_path_is_byte_identical(
        cfg in arb_cfg(),
        p in 1usize..161,
        words in 0usize..301,
    ) {
        let fast = EventMachine::run(p, &cfg, BinomialAllreduce::counted(Tag(3), words)).unwrap();
        let general =
            EventMachine::run_general(p, &cfg, BinomialAllreduce::counted(Tag(3), words)).unwrap();
        assert_profiles_identical(&fast.profile, &general.profile);
    }

    #[test]
    fn recursive_doubling_fast_path_is_byte_identical(
        cfg in arb_cfg(),
        logp in 0u32..8,
        words in 0usize..301,
    ) {
        let p = 1usize << logp;
        let fast =
            EventMachine::run(p, &cfg, RecursiveDoublingAllreduce::counted(Tag(5), words)).unwrap();
        let general =
            EventMachine::run_general(p, &cfg, RecursiveDoublingAllreduce::counted(Tag(5), words))
                .unwrap();
        assert_profiles_identical(&fast.profile, &general.profile);
    }

    #[test]
    fn ring_fast_path_is_byte_identical(
        cfg in arb_cfg(),
        p in 1usize..49,
        words in 0usize..301,
    ) {
        let fast = EventMachine::run(p, &cfg, RingAllreduce::counted(Tag(9), words)).unwrap();
        let general =
            EventMachine::run_general(p, &cfg, RingAllreduce::counted(Tag(9), words)).unwrap();
        assert_profiles_identical(&fast.profile, &general.profile);
    }

    /// Any slab count and halo width, and in every case the degenerate
    /// worlds: `p = 1` (halos wrap locally, no traffic), `p = 2` (north
    /// and south are one rank), each with a halo the whole slab deep.
    #[test]
    fn stencil_fast_path_is_byte_identical(
        cfg in arb_cfg(),
        p in 1usize..17,
        rows in 1usize..5,
        h in 1usize..5,
        iters in 0usize..4,
    ) {
        let h = h.min(rows);
        assert_paths_agree(p, &cfg, Stencil1D::counted(p * rows, h, iters));
        for (p, rows) in [(1, 1), (1, 3), (2, 1), (2, 3)] {
            assert_paths_agree(p, &cfg, Stencil1D::counted(p * rows, rows, iters));
        }
    }

    /// Every grid up to `q = 6` with `c | q`: `q = 1` (every shift a
    /// self-send), `c = 1` (no replication, no reduce), `c = q` (one
    /// shift round), and a reduce tree of uneven depth (`c = 3`, `6`);
    /// `b = 0` sends empty blocks.
    #[test]
    fn matmul_25d_fast_path_is_byte_identical(cfg in arb_cfg(), b in 0u64..5) {
        for q in 1usize..7 {
            for c in (1..=q).filter(|c| q % c == 0) {
                assert_paths_agree(q * q * c, &cfg, Matmul25D::counted(q, c, b));
            }
        }
    }

    /// Any world with `p | bs`, and in every case the one-key-per-bucket
    /// world `bs = p` (one-word buckets; at `p = 1` nothing is sent).
    #[test]
    fn samplesort_fast_path_is_byte_identical(
        cfg in arb_cfg(),
        p in 1usize..13,
        per in 1usize..5,
    ) {
        assert_paths_agree(p, &cfg, SampleSort::counted(p * per));
        assert_paths_agree(p, &cfg, SampleSort::counted(p));
    }
}

/// The pinned `p = 10^5` fixture: exact totals, fast ≡ general, and the
/// makespan's exact bit pattern. The pinned bits guard *both* paths
/// against silent arithmetic drift (a change to either shows up as a
/// mismatch here before it shows up anywhere else).
#[test]
fn pinned_fixture_p100k() {
    const P: usize = 100_000;
    const WORDS: usize = 8;
    // Default machine: α = 1e-6, β = 1e-8, γ = 1e-9, m = 2^16.
    let cfg = SimConfig {
        backend: Backend::Events,
        ..SimConfig::default()
    };
    let fast = EventMachine::run(P, &cfg, BinomialAllreduce::counted(Tag(0), WORDS)).unwrap();
    let t = BinomialAllreduce::expected_totals(P as u64, WORDS as u64, 1 << 16);
    assert_eq!(fast.profile.total_msgs_sent(), t.msgs);
    assert_eq!(fast.profile.total_words_sent(), t.words);
    assert_eq!(fast.profile.total_flops(), t.flops);
    assert_eq!(
        fast.profile.makespan.to_bits(),
        PINNED_MAKESPAN_BITS,
        "makespan drifted: got {:e} (bits {:#018x})",
        fast.profile.makespan,
        fast.profile.makespan.to_bits()
    );
    let general =
        EventMachine::run_general(P, &cfg, BinomialAllreduce::counted(Tag(0), WORDS)).unwrap();
    assert_profiles_identical(&fast.profile, &general.profile);
}

/// `f64::to_bits` of the fixture's makespan (3.5776…e-5 s), captured
/// from the general (scheduled) executor.
const PINNED_MAKESPAN_BITS: u64 = 0x3f02_c1c5_fff6_674a;
