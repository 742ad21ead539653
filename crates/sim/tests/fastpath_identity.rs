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
//! loudly, and two faulted fixtures pin the binomial allreduce's
//! metered pricing the same way. Under a fault plan or a hierarchy a
//! run may also fail; there the two paths must return the same error.

use proptest::prelude::*;
use psse_sim::machine::Hierarchy;
use psse_sim::prelude::*;
use psse_sim::prelude::{CheckpointPolicy, CrashEvent, FaultPlan, FaultSpec, RecoveryPolicy};

/// Bit-exact profile comparison: `PartialEq` on `Profile` covers every
/// counter, but compares clocks with `f64 ==`; chase it with `to_bits`
/// so the assertion really is byte identity.
fn assert_profiles_identical(fast: &psse_sim::Profile, general: &psse_sim::Profile) {
    assert_eq!(fast, general);
    assert_eq!(fast.makespan.to_bits(), general.makespan.to_bits());
    for (a, b) in fast.per_rank().iter().zip(general.per_rank()) {
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
    machines([0.0, 1e-9, 3.5e-8], [0.0, 1e-8, 7e-7], [0.0, 1e-6, 1e-3])
}

/// Machines at any of the given `γ`, `β` and `α`, with `m` in 1–128.
fn machines<const N: usize>(
    gammas: [f64; N],
    betas: [f64; N],
    alphas: [f64; N],
) -> impl Strategy<Value = SimConfig> {
    (
        prop::sample::select(gammas.to_vec()),
        prop::sample::select(betas.to_vec()),
        prop::sample::select(alphas.to_vec()),
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

/// A machine at most as dear as the default one, so a rank's clock
/// stays in the milliseconds and crosses at most a few hundred
/// checkpoint boundaries; `m` down to 1 as in [`arb_cfg`].
fn arb_cheap_cfg() -> impl Strategy<Value = SimConfig> {
    machines([0.0, 1e-9], [0.0, 1e-8], [0.0, 1e-6])
}

/// A fault plan from every corner the meter prices: all four link
/// faults, retries 0–4 (at 0 a drop is fatal and a corruption silent),
/// coordinated checkpoints on or off, and a crash that a checkpoint
/// recovers from or that kills its rank. A checkpoint costs less than
/// its interval on an [`arb_cheap_cfg`] machine.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let seconds = || prop::sample::select(vec![0.0f64, 1e-6, 1e-5, 1e-3]);
    let rate = || prop::sample::select(vec![0.0f64, 0.05, 0.2]);
    let interval = prop::sample::select(vec![1e-5f64, 1e-4]);
    (
        any::<u64>(),
        (rate(), rate(), rate(), rate(), seconds()),
        0u32..5,
        (any::<bool>(), interval, 0u64..9, seconds()),
        (any::<bool>(), 0usize..8, seconds()),
    )
        .prop_map(
            |(seed, (drop, corrupt, dup, delay, delay_s), retries, cp, crash)| FaultPlan {
                spec: FaultSpec {
                    seed,
                    drop_rate: drop,
                    corrupt_rate: corrupt,
                    duplicate_rate: dup,
                    delay_rate: delay,
                    delay_seconds: delay_s,
                    crashes: crash
                        .0
                        .then_some(CrashEvent {
                            rank: crash.1,
                            at: crash.2,
                        })
                        .into_iter()
                        .collect(),
                },
                recovery: RecoveryPolicy {
                    max_retries: retries,
                    retry_backoff: 1e-7,
                    checkpoint: cp.0.then_some(CheckpointPolicy {
                        interval: cp.1,
                        words: cp.2,
                        restart_seconds: cp.3,
                    }),
                },
            },
        )
}

/// A two-level machine, or none: nodes of 1 (every edge inter-node)
/// to 8 cores, at intra-node prices cheaper than the machine's.
fn arb_hierarchy() -> impl Strategy<Value = Option<Hierarchy>> {
    (any::<bool>(), prop::sample::select(vec![1usize, 2, 3, 8])).prop_map(|(on, cores)| {
        on.then_some(Hierarchy {
            cores_per_node: cores,
            intra_beta_t: 1e-9,
            intra_alpha_t: 1e-7,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any fault plan, hierarchy and chunking, `run` and
    /// `run_general` agree — equal profiles or equal errors — and every
    /// run that succeeds was priced, not scheduled.
    #[test]
    fn faulted_binomial_fast_path_is_byte_identical(
        cfg in arb_cheap_cfg(),
        plan in (any::<bool>(), arb_plan()),
        hierarchy in arb_hierarchy(),
        p in prop::sample::select(vec![1usize, 2, 3, 4, 5, 7, 8, 13, 31, 64, 100]),
        words in 0usize..301,
    ) {
        let cfg = SimConfig {
            faults: plan.0.then_some(plan.1),
            hierarchy,
            ..cfg
        };
        prop_assume!(cfg.tracks_overheads());
        let make = BinomialAllreduce::counted(Tag(3), words);
        match (EventMachine::run(p, &cfg, &make), EventMachine::run_general(p, &cfg, &make)) {
            (Ok(fast), Ok(general)) => {
                prop_assert!(fast.programs.is_empty(), "p = {p}: priced, not scheduled");
                assert_profiles_identical(&fast.profile, &general.profile);
            }
            (Err(fast), Err(general)) => prop_assert_eq!(fast, general),
            (fast, general) => {
                prop_assert!(false, "run {fast:?} but run_general {general:?}");
            }
        }
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
    assert_eq!(rank_digest(&general.profile), PINNED_DIGEST);
    assert_profiles_identical(&fast.profile, &general.profile);
}

/// `f64::to_bits` of the fixture's makespan (3.5776…e-5 s), captured
/// from the general (scheduled) executor.
const PINNED_MAKESPAN_BITS: u64 = 0x3f02_c1c5_fff6_674a;

/// [`rank_digest`] of the fixture's scheduled profile.
const PINNED_DIGEST: u64 = 0xcbc3_fadd_5aa5_151d;

/// FNV-1a over every rank's counters, clock bits and overhead block,
/// in rank order: one number that moves if any rank's accounting does.
fn rank_digest(profile: &psse_sim::Profile) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, o) in profile.ranks() {
        for x in [
            s.flops,
            s.words_sent,
            s.msgs_sent,
            s.words_recvd,
            s.msgs_recvd,
            s.mem_current,
            s.mem_peak,
            s.finish_time.to_bits(),
            o.words_sent_intra,
            o.msgs_sent_intra,
            o.retries,
            o.retrans_words,
            o.retrans_msgs,
            o.checkpoint_words,
            o.checkpoint_msgs,
            o.crashes_recovered,
        ] {
            for byte in x.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// What a binomial fixture pins: makespan bits, retries, the resilience
/// traffic and [`rank_digest`].
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    makespan_bits: u64,
    retries: u64,
    resilience_words: u64,
    resilience_msgs: u64,
    digest: u64,
}

/// Run a counted binomial allreduce of `words` under `cfg` through the
/// scheduler, hold it to `pin`, and require `run` to give the same bytes.
fn assert_pin(p: usize, words: usize, cfg: &SimConfig, pin: Pin) -> psse_sim::Profile {
    let make = BinomialAllreduce::counted(Tag(0), words);
    let general = EventMachine::run_general(p, cfg, &make).unwrap();
    let t =
        BinomialAllreduce::expected_totals(p as u64, words as u64, cfg.max_message_words as u64);
    let profile = &general.profile;
    assert_eq!(profile.total_msgs_sent(), t.msgs);
    assert_eq!(profile.total_words_sent(), t.words);
    assert_eq!(profile.total_flops(), t.flops);
    let got = Pin {
        makespan_bits: profile.makespan.to_bits(),
        retries: profile.total_retries(),
        resilience_words: profile.resilience_words(),
        resilience_msgs: profile.resilience_msgs(),
        digest: rank_digest(profile),
    };
    assert_eq!(got, pin, "makespan {:e}", profile.makespan);
    let fast = EventMachine::run(p, cfg, &make).unwrap();
    assert_profiles_identical(&fast.profile, profile);
    general.profile
}

/// The flat binomial in the ledger's chunked shape: four messages per
/// transfer, at `p = 10^5` and at `p = 2^17 + 1`, a world one rank past
/// a power of two, whose last rank hangs off rank 0 alone.
#[test]
fn pinned_chunked_fixtures() {
    let cfg = SimConfig {
        backend: Backend::Events,
        max_message_words: 1 << 12,
        ..SimConfig::default()
    };
    let clean = |makespan_bits, digest| Pin {
        makespan_bits,
        retries: 0,
        resilience_words: 0,
        resilience_msgs: 0,
        digest,
    };
    // 5.8172…e-3 s
    let pin = clean(0x3f77_d3d3_9e9a_81bc, 0x9cba_2c21_a936_ff6e);
    assert_pin(100_000, 1 << 14, &cfg, pin);
    // 6.1693…e-3 s
    let pin = clean(0x3f79_44fe_1476_0c4b, 0xf59c_0862_dc4d_a6f7);
    assert_pin((1 << 17) + 1, 1 << 14, &cfg, pin);
}

/// The ledger's faulted `event-mega` case (fault seed 1): drops and
/// delays on every link, retried with exponential backoff, at
/// `p = 10^5`.
#[test]
fn pinned_faulted_fixture_p100k() {
    let cfg = SimConfig {
        backend: Backend::Events,
        max_message_words: 1 << 12,
        faults: Some(FaultPlan {
            spec: FaultSpec {
                seed: 1,
                drop_rate: 0.05,
                delay_rate: 0.05,
                delay_seconds: 2e-6,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 24,
                retry_backoff: 1e-8,
                checkpoint: None,
            },
        }),
        ..SimConfig::default()
    };
    let pin = Pin {
        makespan_bits: 0x3f7e_b60a_e0d1_07fe, // 7.4978…e-3 s
        retries: 10_435,
        resilience_words: 170_967_040,
        resilience_msgs: 41_740,
        digest: 0x14da_bef5_5661_c0ef,
    };
    assert_pin(100_000, 1 << 14, &cfg, pin);
}

/// Every fault kind at once on a two-level machine with heavy chunking:
/// duplicates, corruptions caught by the ack checksum, coordinated
/// checkpoints and one crash recovered from the last of them.
#[test]
fn pinned_faulted_fixture_hierarchy_checkpoint_crash() {
    let cfg = SimConfig {
        backend: Backend::Events,
        max_message_words: 37,
        hierarchy: Some(Hierarchy {
            cores_per_node: 8,
            intra_beta_t: 1e-9,
            intra_alpha_t: 1e-7,
        }),
        faults: Some(FaultPlan {
            spec: FaultSpec {
                seed: 7,
                drop_rate: 0.05,
                corrupt_rate: 0.05,
                duplicate_rate: 0.05,
                delay_rate: 0.05,
                delay_seconds: 3e-6,
                crashes: vec![CrashEvent { rank: 5, at: 2e-5 }],
            },
            recovery: RecoveryPolicy {
                max_retries: 6,
                retry_backoff: 1e-7,
                checkpoint: Some(CheckpointPolicy {
                    interval: 1e-5,
                    words: 64,
                    restart_seconds: 4e-6,
                }),
            },
        }),
        ..SimConfig::default()
    };
    let pin = Pin {
        makespan_bits: 0x3f52_9787_45af_0c0e, // 1.1347…e-3 s
        retries: 310,
        resilience_words: 2_739_288,
        resilience_msgs: 85_564,
        digest: 0x157a_5e48_3bfd_8b76,
    };
    let profile = assert_pin(1000, 100, &cfg, pin);
    assert_eq!(profile.total_crashes_recovered(), 1);
    assert!(profile.total_checkpoint_words() > 0);
    assert!(profile.total_msgs_intra() > 0);
}
