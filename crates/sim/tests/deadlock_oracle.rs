//! The deadlock proof against a serial oracle.
//!
//! Random message scripts — a global send/receive order that is
//! deadlock-free by construction, projected onto per-rank programs, with
//! a fraction of the *sends* then dropped so their receivers (and every
//! rank downstream of them) block — run as rank programs through
//! `run_programs` on both executors, and through a serial fixpoint that
//! needs neither. Each executor must return `Ok` exactly when the
//! oracle's blocked set is empty, and otherwise `Deadlock` with that set
//! and its lowest rank. Nothing here reads a clock: a wrong or missing
//! proof shows as a mismatch or a hang.

use psse_faults::rng::SplitMix64;
use psse_sim::prelude::*;
use std::collections::HashMap;

const SCRIPTS: u64 = 3000;

#[derive(Debug, Clone, Copy)]
enum Op {
    Send { dest: usize, tag: u64 },
    Recv { src: usize, tag: u64 },
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One script: `p` and each rank's program.
fn script(seed: u64) -> (usize, Vec<Vec<Op>>) {
    let mut rng = SplitMix64::new(seed);
    let p = 2 + below(&mut rng, 23);
    let messages = 1 + below(&mut rng, 120);
    // Half the scripts are clean, so `Ok` is tested as often as not.
    let drop_rate = if rng.next_u64() & 1 == 0 {
        0.0
    } else {
        0.3 * rng.next_f64()
    };
    let mut programs = vec![Vec::new(); p];
    // Walk a global order: each step either issues a new send or
    // receives a message already in flight, so every receive follows its
    // send and the undropped script always completes.
    let mut in_flight: Vec<(usize, usize, u64)> = Vec::new();
    let mut sent = 0;
    while sent < messages || !in_flight.is_empty() {
        if sent < messages && (in_flight.is_empty() || rng.next_u64() & 1 == 0) {
            let (src, dest, tag) = (below(&mut rng, p), below(&mut rng, p), rng.next_u64() % 3);
            // A dropped send leaves the script; its receive stays.
            if rng.next_f64() >= drop_rate {
                programs[src].push(Op::Send { dest, tag });
            }
            in_flight.push((src, dest, tag));
            sent += 1;
        } else {
            let (src, dest, tag) = in_flight.swap_remove(below(&mut rng, in_flight.len()));
            programs[dest].push(Op::Recv { src, tag });
        }
    }
    (p, programs)
}

/// Serial worklist fixpoint over per-`(dest, src, tag)` message counts:
/// run each runnable rank until it finishes or meets an empty queue; a
/// send re-queues the rank parked on its key. Returns the ascending set
/// of ranks that never finish.
fn oracle(programs: &[Vec<Op>]) -> Vec<usize> {
    let p = programs.len();
    let mut pc = vec![0usize; p];
    let mut queued: HashMap<(usize, usize, u64), usize> = HashMap::new();
    let mut parked: Vec<Option<(usize, u64)>> = vec![None; p];
    let mut worklist: Vec<usize> = (0..p).collect();
    while let Some(r) = worklist.pop() {
        while let Some(&op) = programs[r].get(pc[r]) {
            match op {
                Op::Send { dest, tag } => {
                    *queued.entry((dest, r, tag)).or_default() += 1;
                    if parked[dest] == Some((r, tag)) {
                        parked[dest] = None;
                        worklist.push(dest);
                    }
                }
                Op::Recv { src, tag } => match queued.get_mut(&(r, src, tag)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => {
                        parked[r] = Some((src, tag));
                        break;
                    }
                },
            }
            pc[r] += 1;
        }
    }
    (0..p).filter(|&r| pc[r] < programs[r].len()).collect()
}

/// One rank's script as a rank program: one step per op, then `Done`.
struct Script<'a> {
    ops: &'a [Op],
    pc: usize,
}

impl RankProgram for Script<'_> {
    fn next(&mut self, _: Option<Delivered>) -> Step {
        let Some(&op) = self.ops.get(self.pc) else {
            return Step::Done;
        };
        self.pc += 1;
        match op {
            Op::Send { dest, tag } => Step::Send {
                dest,
                tag: Tag(tag),
                payload: Payload::Counted(1),
            },
            Op::Recv { src, tag } => Step::Recv { src, tag: Tag(tag) },
        }
    }
}

fn run(p: usize, programs: &[Vec<Op>], backend: Backend) -> Result<(), SimError> {
    let cfg = SimConfig {
        backend,
        ..SimConfig::counters_only()
    };
    let script = |r: usize, _| Script {
        ops: &programs[r],
        pc: 0,
    };
    run_programs(p, &cfg, script).map(|_| ())
}

#[test]
fn both_executors_agree_with_the_serial_oracle_on_every_script() {
    let mut deadlocks = 0;
    for seed in 0..SCRIPTS {
        let (p, programs) = script(seed);
        let expect = oracle(&programs);
        deadlocks += usize::from(!expect.is_empty());
        for backend in [Backend::Threads, Backend::Events] {
            match run(p, &programs, backend) {
                Ok(()) => assert!(
                    expect.is_empty(),
                    "seed {seed} ({backend}): ran to completion, oracle blocks {expect:?}"
                ),
                Err(SimError::Deadlock { rank, blocked }) => {
                    assert_eq!(blocked, expect, "seed {seed} ({backend}): blocked set");
                    assert_eq!(rank, expect[0], "seed {seed} ({backend}): reporting rank");
                }
                Err(other) => panic!("seed {seed} ({backend}): unexpected {other:?}"),
            }
        }
    }
    // The generator must exercise both outcomes, or the test proves
    // nothing about one of them.
    assert!(
        deadlocks > SCRIPTS as usize / 5 && deadlocks < SCRIPTS as usize * 4 / 5,
        "{deadlocks} of {SCRIPTS} scripts deadlock"
    );
}
