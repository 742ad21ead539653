//! The event backend's fidelity contract: byte-identical output to the
//! thread-per-rank machine, including traces and fault counters.

use psse_faults::{CheckpointPolicy, CrashEvent, FaultPlan, FaultSpec, RecoveryPolicy};
use psse_sim::machine::Hierarchy;
use psse_sim::prelude::*;
use psse_sim::{Machine, SimError};

fn cfg(backend: Backend) -> SimConfig {
    SimConfig {
        gamma_t: 1e-9,
        beta_t: 1e-6,
        alpha_t: 1e-3,
        max_message_words: 37, // force multi-chunk transfers
        record_trace: true,
        backend,
        ..SimConfig::default()
    }
}

fn busy_plan() -> FaultPlan {
    FaultPlan {
        spec: FaultSpec {
            seed: 42,
            drop_rate: 0.2,
            corrupt_rate: 0.1,
            duplicate_rate: 0.1,
            delay_rate: 0.1,
            delay_seconds: 2e-3,
            crashes: vec![CrashEvent { rank: 1, at: 0.004 }],
        },
        recovery: RecoveryPolicy {
            max_retries: 10,
            retry_backoff: 1e-4,
            checkpoint: Some(CheckpointPolicy {
                interval: 0.05,
                words: 256,
                restart_seconds: 0.01,
            }),
        },
    }
}

/// The anchor test: the resumable [`BinomialAllreduce`] program driven
/// through the *thread* backend must be bit-identical — profile, trace,
/// per-rank results — to the native `Rank::allreduce_sum` collective.
/// If this holds, the program is a faithful transliteration, and the
/// cross-backend tests below then pin the event executor to it.
#[test]
fn binomial_program_matches_native_collective_on_threads() {
    for p in [1, 2, 3, 5, 8, 13, 16] {
        let data: Vec<f64> = (0..96).map(|i| i as f64 * 0.5).collect();
        let native = {
            let d = data.clone();
            Machine::run(p, cfg(Backend::Threads), move |rank| {
                rank.allreduce_sum(Tag(9), d.clone())
            })
            .unwrap()
        };
        let program = run_programs(
            p,
            &cfg(Backend::Threads),
            BinomialAllreduce::with_data(Tag(9), data.clone()),
        )
        .unwrap();
        assert_eq!(native.profile, program.profile, "p={p}");
        for (r, prog) in program.programs.iter().enumerate() {
            assert_eq!(
                native.results[r],
                prog.result().unwrap().to_vec(),
                "p={p} rank {r}"
            );
        }
    }
}

/// Thread and event backends produce byte-identical profiles (traces
/// on, multi-chunk transfers) for every built-in allreduce program.
#[test]
fn backends_bit_identical_clean_runs() {
    let data: Vec<f64> = (0..80).map(|i| (i as f64).sin()).collect();
    for p in [1, 2, 6, 16, 24] {
        let a = run_programs(
            p,
            &cfg(Backend::Threads),
            BinomialAllreduce::with_data(Tag(0), data.clone()),
        )
        .unwrap();
        let b = run_programs(
            p,
            &cfg(Backend::Events),
            BinomialAllreduce::with_data(Tag(0), data.clone()),
        )
        .unwrap();
        assert_eq!(a.profile, b.profile, "binomial p={p}");
        for (x, y) in a.programs.iter().zip(&b.programs) {
            assert_eq!(x.result().unwrap(), y.result().unwrap(), "binomial p={p}");
        }

        let a = run_programs(
            p,
            &cfg(Backend::Threads),
            RingAllreduce::with_data(Tag(0), data.clone()),
        )
        .unwrap();
        let b = run_programs(
            p,
            &cfg(Backend::Events),
            RingAllreduce::with_data(Tag(0), data.clone()),
        )
        .unwrap();
        assert_eq!(a.profile, b.profile, "ring p={p}");
    }
    for p in [2, 8, 32] {
        let a = run_programs(
            p,
            &cfg(Backend::Threads),
            RecursiveDoublingAllreduce::with_data(Tag(0), data.clone()),
        )
        .unwrap();
        let b = run_programs(
            p,
            &cfg(Backend::Events),
            RecursiveDoublingAllreduce::with_data(Tag(0), data.clone()),
        )
        .unwrap();
        assert_eq!(a.profile, b.profile, "rd p={p}");
    }
}

/// Fault injection — drops with retries, corruption, duplicates,
/// delays, a crash absorbed by checkpoint/restart — prices identically
/// on both backends, down to the trace and the resilience counters.
#[test]
fn backends_bit_identical_under_faults() {
    let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
    for p in [2, 5, 12] {
        let faulted = |backend| SimConfig {
            faults: Some(busy_plan()),
            ..cfg(backend)
        };
        let a = run_programs(
            p,
            &faulted(Backend::Threads),
            BinomialAllreduce::with_data(Tag(3), data.clone()),
        )
        .unwrap();
        let b = run_programs(
            p,
            &faulted(Backend::Events),
            BinomialAllreduce::with_data(Tag(3), data.clone()),
        )
        .unwrap();
        assert_eq!(a.profile, b.profile, "p={p}");
        if p >= 12 {
            assert!(a.profile.total_retries() > 0, "plan must actually fire");
        }
    }
}

/// Hierarchical (intra/inter-node) pricing is mirrored too.
#[test]
fn backends_bit_identical_with_hierarchy() {
    let mk = |backend| SimConfig {
        hierarchy: Some(Hierarchy {
            cores_per_node: 4,
            intra_alpha_t: 1e-5,
            intra_beta_t: 1e-8,
        }),
        ..cfg(backend)
    };
    let data: Vec<f64> = vec![1.0; 50];
    let a = run_programs(
        12,
        &mk(Backend::Threads),
        RingAllreduce::with_data(Tag(0), data.clone()),
    )
    .unwrap();
    let b = run_programs(
        12,
        &mk(Backend::Events),
        RingAllreduce::with_data(Tag(0), data.clone()),
    )
    .unwrap();
    assert_eq!(a.profile, b.profile);
    assert!(a.profile.total_words_intra() > 0);
}

/// The counted 2.5D matmul skeleton matches across backends (the
/// thread backend materializes zero-filled payloads of the same
/// lengths, so all pricing is equal).
#[test]
fn backends_bit_identical_matmul_skeleton() {
    let mk = |backend| SimConfig {
        max_message_words: 1 << 16,
        ..cfg(backend)
    };
    let (q, c, b) = (4, 2, 5);
    let a = run_programs(
        q * q * c,
        &mk(Backend::Threads),
        Matmul25D::counted(q, c, b),
    )
    .unwrap();
    let ev = run_programs(q * q * c, &mk(Backend::Events), Matmul25D::counted(q, c, b)).unwrap();
    assert_eq!(a.profile, ev.profile);
    let t = Matmul25D::expected_totals(q as u64, c as u64, b);
    assert_eq!(ev.profile.total_msgs_sent(), t.msgs);
    assert_eq!(ev.profile.total_words_sent(), t.words);
    assert_eq!(ev.profile.total_flops(), t.flops);
}

/// A program that receives a message nobody sends is reported as a
/// proven deadlock with the full blocked set — no timeout, no sleep.
#[test]
fn deadlock_is_proven_with_blocked_set() {
    struct RecvForever;
    impl RankProgram for RecvForever {
        fn next(&mut self, _d: Option<Delivered>) -> Step {
            Step::Recv {
                src: 0,
                tag: Tag(77),
            }
        }
    }
    let t0 = std::time::Instant::now();
    let err = EventMachine::run(3, &cfg(Backend::Events), |_r, _p| RecvForever).unwrap_err();
    match &err {
        SimError::Deadlock { rank, blocked } => {
            assert_eq!(*rank, 0);
            assert_eq!(*blocked, vec![0, 1, 2]);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    assert_eq!(deadlock_on_both_executors(3, |_r, _p| RecvForever), err);
    assert!(t0.elapsed().as_secs() < 2, "deadlock proof must not sleep");
}

/// Run programs that cannot finish through [`run_programs`] on the
/// thread machine and on the worklist executor: both must prove the
/// deadlock, with one report — same blocked set, `rank == blocked[0]`.
fn deadlock_on_both_executors<P, F>(p: usize, make: F) -> SimError
where
    P: RankProgram + Send,
    F: Fn(usize, usize) -> P + Sync,
{
    let [threads, events] = [Backend::Threads, Backend::Events].map(|backend| {
        run_programs(p, &cfg(backend), &make)
            .err()
            .unwrap_or_else(|| panic!("{backend}: programs that cannot finish returned Ok"))
    });
    assert_eq!(threads, events, "one deadlock report across executors");
    match &events {
        SimError::Deadlock { rank, blocked } => assert_eq!(*rank, blocked[0]),
        other => panic!("expected Deadlock, got {other:?}"),
    }
    events
}

/// A partial deadlock — some ranks finish, the rest wait on each other
/// — still reports exactly the blocked ranks.
#[test]
fn partial_deadlock_reports_only_blocked_ranks() {
    struct Half {
        me: usize,
        st: u8,
    }
    impl RankProgram for Half {
        fn next(&mut self, _d: Option<Delivered>) -> Step {
            // Even ranks finish immediately; odd ranks wait for a
            // message their (even) left neighbour never sends.
            if self.me.is_multiple_of(2) {
                return Step::Done;
            }
            match self.st {
                0 => {
                    self.st = 1;
                    Step::Recv {
                        src: self.me - 1,
                        tag: Tag(5),
                    }
                }
                _ => Step::Done,
            }
        }
    }
    let err = EventMachine::run(4, &cfg(Backend::Events), |me, _p| Half { me, st: 0 }).unwrap_err();
    match &err {
        SimError::Deadlock { rank, blocked } => {
            assert_eq!(*rank, 1);
            assert_eq!(*blocked, vec![1, 3]);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    assert_eq!(
        deadlock_on_both_executors(4, |me, _p| Half { me, st: 0 }),
        err
    );
}

/// Self-sends are free and immediately receivable on the event backend,
/// exactly like the thread backend.
#[test]
fn self_send_is_free_and_receivable() {
    struct SelfSend {
        st: u8,
    }
    impl RankProgram for SelfSend {
        fn next(&mut self, d: Option<Delivered>) -> Step {
            self.st += 1;
            match self.st {
                1 => Step::Send {
                    dest: 0,
                    tag: Tag(5),
                    payload: Payload::Data(std::sync::Arc::new(vec![42.0])),
                },
                2 => Step::Recv {
                    src: 0,
                    tag: Tag(5),
                },
                _ => {
                    let d = d.expect("delivery");
                    assert_eq!(d.values(), &[42.0]);
                    Step::Done
                }
            }
        }
    }
    let out = EventMachine::run(1, &cfg(Backend::Events), |_m, _p| SelfSend { st: 0 }).unwrap();
    assert_eq!(out.profile.per_rank()[0].msgs_sent, 0);
    assert_eq!(out.profile.per_rank()[0].words_sent, 0);
    assert_eq!(out.profile.makespan, 0.0);
}

/// Errors surface like the thread backend's triage: the lowest-ranked
/// real failure wins.
#[test]
fn lowest_ranked_error_wins() {
    struct BadPeer {
        me: usize,
        st: u8,
    }
    impl RankProgram for BadPeer {
        fn next(&mut self, _d: Option<Delivered>) -> Step {
            if self.st == 0 {
                self.st = 1;
                if self.me <= 1 {
                    // Ranks 0 and 1 both address an out-of-range peer.
                    return Step::Send {
                        dest: 99,
                        tag: Tag(0),
                        payload: Payload::Counted(4),
                    };
                }
            }
            Step::Done
        }
    }
    let err =
        EventMachine::run(3, &cfg(Backend::Events), |me, _p| BadPeer { me, st: 0 }).unwrap_err();
    assert!(
        matches!(err, SimError::RankOutOfRange { rank: 99, size: 3 }),
        "{err:?}"
    );
}

/// Sample sort — data mode with real keys, data-dependent bucket sizes
/// — is byte-identical across backends, and the counted skeleton
/// matches its closed form.
#[test]
fn backends_bit_identical_samplesort() {
    let keys: Vec<f64> = (0..240).map(|i| ((i * 37) % 240) as f64 - 120.0).collect();
    for p in [1usize, 4, 8] {
        let a = run_programs(
            p,
            &cfg(Backend::Threads),
            SampleSort::with_data(keys.clone()),
        )
        .unwrap();
        let b = run_programs(
            p,
            &cfg(Backend::Events),
            SampleSort::with_data(keys.clone()),
        )
        .unwrap();
        assert_eq!(a.profile, b.profile, "samplesort p={p}");
        let mut sorted = Vec::new();
        for (x, y) in a.programs.iter().zip(&b.programs) {
            assert_eq!(x.result().unwrap(), y.result().unwrap(), "p={p}");
            sorted.extend_from_slice(x.result().unwrap());
        }
        let mut expect = keys.clone();
        expect.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(sorted, expect, "p={p}: concatenated buckets are sorted");
    }
    let skel = run_programs(8, &cfg(Backend::Events), SampleSort::counted(64)).unwrap();
    let t = SampleSort::expected_totals(8, 64, 37);
    assert_eq!(skel.profile.total_msgs_sent(), t.msgs);
    assert_eq!(skel.profile.total_words_sent(), t.words);
    assert_eq!(skel.profile.total_flops(), t.flops);
}

/// The halo stencil — data mode — is byte-identical across backends
/// and under faults, and matches the closed form exactly.
#[test]
fn backends_bit_identical_stencil() {
    let n = 16usize;
    let grid: Vec<f64> = (0..n * n).map(|i| (i as f64).sin()).collect();
    for p in [1usize, 2, 4, 8] {
        let mk = || Stencil1D::with_data(grid.clone(), n, 1, 3);
        let a = run_programs(p, &cfg(Backend::Threads), mk()).unwrap();
        let b = run_programs(p, &cfg(Backend::Events), mk()).unwrap();
        assert_eq!(a.profile, b.profile, "stencil p={p}");
        for (x, y) in a.programs.iter().zip(&b.programs) {
            assert_eq!(x.result().unwrap(), y.result().unwrap(), "p={p}");
        }
        let t = Stencil1D::expected_totals(p as u64, n as u64, 1, 3, 37);
        assert_eq!(a.profile.total_words_sent(), t.words, "p={p}");
        assert_eq!(a.profile.total_flops(), t.flops, "p={p}");
    }
}

/// Both new workloads under the full fault plan (drops, corruption,
/// duplicates, delays, crash + checkpoint/restart): thread and event
/// backends price identically, and the recovered numerics equal the
/// fault-free run bit-for-bit.
#[test]
fn new_workloads_bit_identical_under_faults() {
    let keys: Vec<f64> = (0..120).map(|i| ((i * 53) % 120) as f64).collect();
    let n = 12usize;
    let grid: Vec<f64> = (0..n * n).map(|i| (i as f64).cos()).collect();
    let faulted = |backend| SimConfig {
        faults: Some(busy_plan()),
        ..cfg(backend)
    };
    for p in [4usize, 6] {
        let a = run_programs(
            p,
            &faulted(Backend::Threads),
            SampleSort::with_data(keys.clone()),
        )
        .unwrap();
        let b = run_programs(
            p,
            &faulted(Backend::Events),
            SampleSort::with_data(keys.clone()),
        )
        .unwrap();
        let clean = run_programs(
            p,
            &cfg(Backend::Threads),
            SampleSort::with_data(keys.clone()),
        )
        .unwrap();
        assert_eq!(a.profile, b.profile, "samplesort faulted p={p}");
        for ((x, y), z) in a.programs.iter().zip(&b.programs).zip(&clean.programs) {
            assert_eq!(x.result().unwrap(), y.result().unwrap());
            assert_eq!(
                x.result().unwrap(),
                z.result().unwrap(),
                "faults change bits"
            );
        }

        let mk = || Stencil1D::with_data(grid.clone(), n, 1, 2);
        let a = run_programs(p, &faulted(Backend::Threads), mk()).unwrap();
        let b = run_programs(p, &faulted(Backend::Events), mk()).unwrap();
        let clean = run_programs(p, &cfg(Backend::Threads), mk()).unwrap();
        assert_eq!(a.profile, b.profile, "stencil faulted p={p}");
        for ((x, y), z) in a.programs.iter().zip(&b.programs).zip(&clean.programs) {
            assert_eq!(x.result().unwrap(), y.result().unwrap());
            assert_eq!(
                x.result().unwrap(),
                z.result().unwrap(),
                "faults change bits"
            );
        }
    }
}
