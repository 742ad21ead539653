//! The discrete-event executor: `p = 10^5`–`10^6` ranks in one process.
//!
//! One OS thread per rank caps [`crate::Machine`] at
//! [`crate::machine::MAX_THREAD_RANKS`]. This executor removes the
//! thread: each rank is a resumable [`RankProgram`] (the built-in ones
//! are in [`crate::programs`]), and one process runs all of them from a
//! **FIFO worklist** of runnable ranks. Every rank is priced by the same
//! pricing core [`crate::Rank`] wraps, so both executors produce
//! byte-identical profiles, traces and fault counters; this module adds
//! only transport and matching (one shared wire slab, per-`(src, tag)`
//! FIFO delivery). [`crate::run_programs`] picks the executor from
//! [`SimConfig::backend`].
//!
//! ## Why the scheduler needs no clock
//!
//! A rank's profile is a pure function of its own operation sequence
//! plus, for each receive, the `(depart_time, n_chunks, words)` of the
//! matching transfer. Matching is per-`(src, tag)` FIFO, and each
//! `(src, tag)` key has a single sender whose sends are totally ordered
//! by its own program — so *which* wire matches *which* receive is
//! fixed by the programs alone. *When* a rank's steps execute on the
//! host cannot change *what* they compute, so any order that runs every
//! runnable rank eventually yields the same bytes. The executor picks
//! the simplest such order: a `VecDeque` of runnable rank ids seeded
//! `0..p`; pop a rank, run it until it blocks in `Recv` or finishes,
//! deliver its sends, push each receiver that delivery woke. No time
//! keys, no sequence numbers, no tuning. The unit test below seeds the
//! worklist ascending, descending and shuffled and asserts identical
//! profiles and results.
//!
//! ## The hot path
//!
//! A rank costs what it uses. Programs stay in the `Vec` they were
//! built into and come back in the outcome as that same allocation; a
//! rank's executor state is one fixed-size `Slot`; undelivered wires of
//! every rank share one recycling slab owned by the run (`slab`, no
//! steady-state allocation), reachable from the destination's slot by
//! `(src, tag)`. A delivery to a rank parked on exactly that
//! `(src, tag)` is priced on the spot — the wire never touches the slab
//! at all. Direct delivery is sound because a parked rank's queue for
//! its awaited key is empty by construction (it parked on
//! `pop() == None` and every later matching wire would have been
//! delivered directly), and pricing early is invisible because the
//! receiver is parked and its meter depends only on its own state and
//! the wire. Every `p`-sized reservation is fallible: a world the host
//! cannot hold is an `InvalidConfig`, not an abort.
//!
//! An **analytic fast path** (`fastpath`) prices built-in counted
//! programs in closed form without building a world, byte-identical to
//! the scheduler (when it engages: [`EventMachine::run`]).
//! `tests/bytes_per_rank.rs` holds the per-rank budget under a counting
//! allocator.
//!
//! ## Deadlock
//!
//! Sends are eager, so a rank can only block in `Recv`. When the
//! worklist is empty and some ranks are still live, every live rank is
//! blocked on an empty `(src, tag)` queue that no future send can fill
//! — a *proven* deadlock, reported as [`SimError::Deadlock`] with the
//! full blocked set, in zero wall-clock time.
//!
//! ## Example
//!
//! ```
//! use psse_sim::prelude::*;
//!
//! let cfg = SimConfig {
//!     backend: Backend::Events,
//!     ..SimConfig::default()
//! };
//! // A real allreduce over 10_000 ranks, in-process, no threads.
//! let out = run_programs(10_000, &cfg, BinomialAllreduce::counted(Tag(0), 8)).unwrap();
//! let t = BinomialAllreduce::expected_totals(10_000, 8, 1 << 16);
//! assert_eq!(out.profile.total_msgs_sent(), t.msgs);
//! assert_eq!(out.profile.total_words_sent(), t.words);
//! assert_eq!(out.profile.total_flops(), t.flops);
//! ```

mod fastpath;
mod slab;

use crate::error::SimResult;
use crate::machine::check_world;
use crate::meter::Meter;
use crate::profile::per_rank;
use crate::program::{Delivered, Payload, RankProgram, Step};
use crate::{Profile, SimConfig, SimError, Tag};
use slab::{Inbox, Slab, Wire};
use std::collections::VecDeque;

/// Executor health counters for one run: how hard the hot-path
/// structures worked. Zero on the analytic fast path and on the thread
/// backend (nothing is scheduled or parked there). Per-run by design:
/// this is the engine's only telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Peak number of undelivered wires parked in the run's slab at any
    /// one moment, machine-wide. Exact: the slab is shared by all ranks.
    /// (Before the shared slab this was a sum of per-rank peaks, an
    /// upper bound that no single moment need have reached.)
    pub slab_live_peak: u64,
    /// Deliveries that reused a freed slab cell instead of growing.
    pub slab_recycled: u64,
    /// Always 0 — nothing in the executor can overflow. The field exists
    /// only because `crates/ledger` (frozen under `BENCHMARK.json`
    /// `paths`) reads it; it goes with the ledger's metric and the
    /// `psse-event` shim when the ledger is next revised.
    pub calq_overflow: u64,
}

/// The result of running programs on the event backend: the finished
/// programs (which carry any algorithm results) plus the run's profile.
pub struct EventOutcome<P> {
    /// The per-rank programs after completion, indexed by rank id —
    /// or **empty** when the run was priced analytically: nothing ran,
    /// so there is nothing finished to hand back (an analytic claim is
    /// only made by counted programs, which carry no results).
    pub programs: Vec<P>,
    /// Per-rank counters, traces, and the virtual makespan — the same
    /// `Profile` the thread backend produces, byte-identical.
    pub profile: Profile,
    /// Executor health counters (not part of the byte-identity
    /// contract; they describe the engine, not the simulated machine).
    pub stats: ExecStats,
}

// Manual impl so `P` needs no `Debug` bound (programs are elided).
impl<P> std::fmt::Debug for EventOutcome<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventOutcome")
            .field("p", &self.profile.p())
            .field("profile", &self.profile)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A receive the rank is parked on: `(src, tag, t0)`.
type Waiting = (usize, Tag, f64);

/// One rank's executor state, fixed size: the program stays in the
/// `Vec` it was built into and parked wires live in the run's [`Slab`].
/// All a rank may still own on the heap is what its run asks for — the
/// meter's trace, its overhead counters and fault state, an inbox map
/// if it spilled.
struct Slot {
    meter: Meter,
    /// Undelivered transfers to this rank, findable by `(src, tag)` in
    /// FIFO order (see `slab`).
    inbox: Inbox,
    /// `Some` exactly while the rank is blocked in `Recv`.
    waiting: Option<Waiting>,
    pending: Option<Delivered>,
}

impl Slot {
    /// Complete the receive begun at `t0` with its matching `wire`.
    #[inline]
    fn deliver(&mut self, cfg: &SimConfig, t0: f64, src: usize, tag: Tag, wire: Wire) {
        self.meter
            .recv(cfg, t0, src, tag, wire.departure, wire.words);
        self.pending = Some(Delivered {
            words: wire.words,
            data: wire.data,
        });
    }
}

/// An outgoing transfer buffered during a rank's turn:
/// `(dest, src, tag, wire)`.
type Outgoing = (usize, usize, Tag, Wire);

/// Run rank `r` until it blocks, completes, or fails. Outgoing
/// transfers to other ranks are buffered in `out` (delivery is the
/// caller's job); self-sends land in the rank's own inbox immediately
/// (a self-send is instantly receivable).
fn advance<P: RankProgram>(
    r: usize,
    program: &mut P,
    slot: &mut Slot,
    slab: &mut Slab,
    cfg: &SimConfig,
    out: &mut Vec<Outgoing>,
) -> SimResult<()> {
    // A parked rank is only ever made runnable by a direct delivery,
    // which completes the receive it was parked on.
    debug_assert!(slot.waiting.is_none());
    loop {
        let delivered = slot.pending.take();
        match program.next(delivered) {
            Step::Compute { flops } => slot.meter.compute(cfg, flops),
            Step::CollBegin { op } => slot.meter.mark_collective_begin(cfg, op),
            Step::CollEnd { op } => slot.meter.mark_collective_end(cfg, op),
            Step::Send { dest, tag, payload } => {
                let words = payload.words();
                let mut data = match payload {
                    Payload::Counted(_) => None,
                    Payload::Data(d) => Some(d),
                };
                let departure = slot.meter.send(cfg, dest, tag, words, data.as_mut())?;
                let wire = Wire {
                    departure,
                    words,
                    data,
                };
                if dest == r {
                    slab.push(&mut slot.inbox, r, tag.0, wire);
                } else {
                    out.push((dest, r, tag, wire));
                }
            }
            Step::Recv { src, tag } => {
                let t0 = slot.meter.begin_recv(src)?;
                match slab.pop(&mut slot.inbox, src, tag.0) {
                    Some(wire) => slot.deliver(cfg, t0, src, tag, wire),
                    None => {
                        slot.waiting = Some((src, tag, t0));
                        return Ok(());
                    }
                }
            }
            Step::Done => {
                if let Some(e) = slot.meter.take_fault_error() {
                    return Err(e);
                }
                return Ok(());
            }
            Step::Fail(e) => return Err(e),
        }
    }
}

/// Collapse a finished run into its outcome, or the error the thread
/// backend's triage would surface: the lowest-ranked real failure wins;
/// otherwise all-blocked is a proven deadlock.
fn finish<P>(
    cfg: &SimConfig,
    programs: Vec<P>,
    slots: Vec<Slot>,
    stats: ExecStats,
    errors: Vec<(usize, SimError)>,
) -> SimResult<EventOutcome<P>> {
    if let Some((_, err)) = errors.into_iter().min_by_key(|(r, _)| *r) {
        return Err(err);
    }
    let is_blocked = |(r, s): (usize, &Slot)| s.waiting.is_some().then_some(r);
    let n_blocked = slots.iter().enumerate().filter_map(is_blocked).count();
    if n_blocked > 0 {
        let blocked = per_rank(n_blocked, slots.iter().enumerate().filter_map(is_blocked))?;
        return Err(SimError::Deadlock {
            rank: blocked[0],
            blocked,
        });
    }
    Ok(EventOutcome {
        programs,
        profile: Profile::collect(cfg, slots.into_iter().map(|s| s.meter.into_parts(cfg)))?,
        stats,
    })
}

/// Has the run's cancel flag (if any) been raised, or its deadline
/// passed?
fn cancelled(cfg: &SimConfig) -> bool {
    cfg.cancel.as_ref().is_some_and(|flag| flag.is_cancelled())
}

/// Construct the world's `p` programs, in rank order, into the `Vec`
/// they will run in and be returned in. `rank0` is rank 0's program
/// when the caller already had to construct it.
fn build<P>(
    p: usize,
    rank0: Option<P>,
    mut make: impl FnMut(usize, usize) -> P,
) -> SimResult<Vec<P>> {
    let rest = (rank0.is_some() as usize..p).map(|r| make(r, p));
    per_rank(p, rank0.into_iter().chain(rest))
}

/// The discrete-event machine.
pub struct EventMachine;

impl EventMachine {
    /// Run `p` rank programs on the event executor.
    ///
    /// When every program claims the same analytic program and the
    /// configuration lets the closed form price it, the run is priced
    /// (`fastpath`) — byte-identical output, no scheduling. A traced run
    /// is never priced; a flat, fault-free one always is; a run under a
    /// fault plan or a hierarchy is priced when it is the binomial
    /// allreduce, whose pricer drives the scheduler's own
    /// `Meter` per rank, in each rank's program order, with the departs
    /// the scheduler would deliver — so every fault decision, checkpoint
    /// and crash lands on the same bits. Otherwise runnable ranks are
    /// taken from a FIFO worklist seeded `0..p`; each rank runs greedily
    /// until it blocks in `Recv` or finishes. Deterministic by
    /// construction and byte-identical to the thread backend (see the
    /// module docs).
    ///
    /// The dispatch is decided without materialising the world, and
    /// `make` runs exactly `p` times whichever way it goes. If rank 0's
    /// program claims nothing, or a claim the configuration rules out,
    /// it is kept and the rest built, in rank order, and scheduled. If
    /// its claim is priced, every further `make(r, p)` is asked for its
    /// claim and dropped, and the program is priced straight into the
    /// profile; [`EventOutcome::programs`] is then empty. The two
    /// exceptions build the world afresh and schedule it, with the
    /// outcome of [`EventMachine::run_general`]: a rank `d > 0` whose
    /// claim differs from rank 0's stops the stream (`p + d + 1`
    /// calls), and a metered rank that fails — retries exhausted, or a
    /// crash with no checkpoint — ends the closed form (`2p` calls), so
    /// the error reported is the scheduler's.
    pub fn run<P, F>(p: usize, cfg: &SimConfig, mut make: F) -> SimResult<EventOutcome<P>>
    where
        P: RankProgram,
        F: FnMut(usize, usize) -> P,
    {
        check_world(p, cfg)?;
        let program = make(0, p);
        let mut rank0 = None;
        match program.analytic().filter(|op| fastpath::eligible(cfg, op)) {
            Some(op) => {
                drop(program);
                if let Some(profile) = fastpath::price(p, cfg, op, |r| make(r, p).analytic())? {
                    return Ok(EventOutcome {
                        programs: Vec::new(),
                        profile,
                        stats: ExecStats::default(),
                    });
                }
            }
            None => rank0 = Some(program),
        }
        run_worklist(cfg, build(p, rank0, make)?, per_rank(p, 0..p)?.into())
    }

    /// [`EventMachine::run`] with the analytic fast path disabled: the
    /// scheduled executor, unconditionally. This is the oracle half of
    /// the fast-path differential tests (`fastpath_identity`).
    pub fn run_general<P, F>(p: usize, cfg: &SimConfig, make: F) -> SimResult<EventOutcome<P>>
    where
        P: RankProgram,
        F: FnMut(usize, usize) -> P,
    {
        check_world(p, cfg)?;
        run_worklist(cfg, build(p, None, make)?, per_rank(p, 0..p)?.into())
    }
}

/// The one scheduled executor. `runnable` is the initial worklist — a
/// permutation of `0..p`; the public entry points pass `0..p`, the
/// order-independence test passes others. The programs run where they
/// were built and leave in the outcome as the same allocation.
fn run_worklist<P: RankProgram>(
    cfg: &SimConfig,
    mut programs: Vec<P>,
    mut runnable: VecDeque<usize>,
) -> SimResult<EventOutcome<P>> {
    let p = programs.len();
    let fresh = |r| Slot {
        meter: Meter::new(r, p, cfg),
        inbox: Inbox::new(),
        waiting: None,
        pending: None,
    };
    let mut slots = per_rank(p, (0..p).map(fresh))?;
    let mut slab = Slab::new();
    let mut errors: Vec<(usize, SimError)> = Vec::new();
    let mut out: Vec<Outgoing> = Vec::new();
    // Every rank is on the worklist at most once: it is pushed at seed
    // time and at each parked → runnable transition, and popped before
    // it can park again.
    while let Some(r) = runnable.pop_front() {
        // Cooperative cancellation: a time budget can abandon a hung run
        // between turns (the loop never sleeps, so one check per pop is
        // cheap and prompt).
        if cancelled(cfg) {
            return Err(SimError::Cancelled);
        }
        if let Err(e) = advance(r, &mut programs[r], &mut slots[r], &mut slab, cfg, &mut out) {
            errors.push((r, e));
        }
        // Deliver this turn's sends. A receiver parked on exactly this
        // (src, tag) gets the wire priced on the spot (its queue for
        // the key is provably empty) and becomes runnable.
        for (dest, src, tag, wire) in out.drain(..) {
            let slot = &mut slots[dest];
            match slot.waiting {
                Some((wsrc, wtag, t0)) if wsrc == src && wtag == tag => {
                    slot.waiting = None;
                    slot.deliver(cfg, t0, src, tag, wire);
                    runnable.push_back(dest);
                }
                _ => slab.push(&mut slot.inbox, src, tag.0, wire),
            }
        }
    }
    let stats = ExecStats {
        slab_live_peak: slab.peak_live,
        slab_recycled: slab.recycled,
        calq_overflow: 0,
    };
    // Free the run's scratch before `finish` reserves the profile.
    drop((slab, runnable, out));
    finish(cfg, programs, slots, stats, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{Matmul25D, SampleSort};
    use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy, SplitMix64};

    /// The three initial worklists the test seeds: ascending (what the
    /// public entry points use), descending, and a seeded Fisher–Yates
    /// shuffle.
    fn orders(p: usize) -> [VecDeque<usize>; 3] {
        let mut shuffled: Vec<usize> = (0..p).collect();
        let mut rng = SplitMix64::new(0x5eed);
        for i in (1..p).rev() {
            shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        [
            (0..p).collect(),
            (0..p).rev().collect(),
            shuffled.into_iter().collect(),
        ]
    }

    /// A program that refuses a step (`Step::Fail`) fails its rank with
    /// that error on either executor, and the lowest refusing rank's
    /// error is the run's.
    #[test]
    fn a_refusal_fails_the_run_alike_on_both_executors() {
        struct RefuseFrom(usize, usize);
        impl RankProgram for RefuseFrom {
            fn next(&mut self, _: Option<Delivered>) -> Step {
                match self.0 >= self.1 {
                    true => Step::Fail(SimError::Algorithm(format!("rank {} refuses", self.0))),
                    false => Step::Done,
                }
            }
        }
        let make = |r, _| RefuseFrom(r, 2);
        let events = EventMachine::run_general(4, &SimConfig::default(), make).unwrap_err();
        let threads = crate::run_programs(4, &SimConfig::default(), make).unwrap_err();
        assert_eq!(events, SimError::Algorithm("rank 2 refuses".into()));
        assert_eq!(threads, events);
    }

    /// Run the same programs once per initial order.
    fn in_every_order<P: RankProgram>(
        cfg: &SimConfig,
        p: usize,
        make: impl Fn(usize, usize) -> P,
    ) -> [EventOutcome<P>; 3] {
        orders(p)
            .map(|order| run_worklist(cfg, (0..p).map(|r| make(r, p)).collect(), order).unwrap())
    }

    /// Schedule independence, stated directly: whatever order ranks
    /// first take their turns in, the profile — per-rank counters,
    /// clocks, traces, retry counts — and the program results are the
    /// same. This is the property that lets the scheduler be a plain
    /// FIFO.
    #[test]
    fn profile_and_results_do_not_depend_on_worklist_order() {
        // Traced, faulted sample sort with real keys (data-dependent
        // bucket sizes, retries, multi-chunk transfers).
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-6,
            alpha_t: 1e-3,
            max_message_words: 37,
            record_trace: true,
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: 42,
                    drop_rate: 0.2,
                    corrupt_rate: 0.1,
                    duplicate_rate: 0.1,
                    delay_rate: 0.1,
                    delay_seconds: 2e-3,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 10,
                    retry_backoff: 1e-4,
                    checkpoint: None,
                },
            }),
            ..SimConfig::default()
        };
        let keys: Vec<f64> = (0..240).map(|i| ((i * 37) % 240) as f64 - 120.0).collect();
        let [asc, desc, shuffled] = in_every_order(&cfg, 8, SampleSort::with_data(keys));
        assert!(asc.profile.total_retries() > 0, "the fault plan must bite");
        for other in [desc, shuffled] {
            assert_eq!(asc.profile, other.profile);
            for (x, y) in asc.programs.iter().zip(&other.programs) {
                assert_eq!(x.result().unwrap(), y.result().unwrap());
            }
        }

        // The counted 2.5D matmul skeleton (replication, shifts, layer
        // reduction) on the default machine.
        let (q, c, b) = (4, 2, 5);
        let [asc, desc, shuffled] = in_every_order(
            &SimConfig::default(),
            q * q * c,
            Matmul25D::counted(q, c, b),
        );
        let t = Matmul25D::expected_totals(q as u64, c as u64, b);
        assert_eq!(asc.profile.total_msgs_sent(), t.msgs);
        assert_eq!(asc.profile, desc.profile);
        assert_eq!(asc.profile, shuffled.profile);
    }

    /// Ranks `1..p` each send rank 0 three transfers of distinct sizes
    /// under one tag; rank 0 collects from the highest rank down —
    /// against arrival order, so its receives scan far and its inbox
    /// spills into keyed chains mid-run.
    struct ReverseGather {
        me: usize,
        p: usize,
        /// Transfers sent (leaves) or received (rank 0) so far.
        done: usize,
    }

    impl RankProgram for ReverseGather {
        fn next(&mut self, delivered: Option<Delivered>) -> Step {
            let tag = Tag(7);
            if self.me > 0 {
                if self.done == 3 {
                    return Step::Done;
                }
                self.done += 1;
                let payload = Payload::Counted(10 * self.me + self.done);
                return Step::Send {
                    dest: 0,
                    tag,
                    payload,
                };
            }
            if let Some(d) = delivered {
                let src = self.p - 1 - (self.done - 1) / 3;
                assert_eq!(d.words, 10 * src + 1 + (self.done - 1) % 3, "per-key FIFO");
            }
            if self.done == 3 * (self.p - 1) {
                return Step::Done;
            }
            self.done += 1;
            let src = self.p - 1 - (self.done - 1) / 3;
            Step::Recv { src, tag }
        }
    }

    /// Per-`(src, tag)` FIFO matching survives an inbox that changes
    /// form under it, and the bytes are the thread backend's.
    #[test]
    fn out_of_order_receives_match_fifo_and_the_thread_backend() {
        let p = 48;
        let make = |me, p| ReverseGather { me, p, done: 0 };
        let events = EventMachine::run(p, &SimConfig::default(), make).unwrap();
        assert_eq!(events.stats.slab_live_peak, 3 * (p as u64 - 1) - 1);
        let threads = SimConfig {
            backend: crate::Backend::Threads,
            ..SimConfig::default()
        };
        let threads = crate::run_programs(p, &threads, make).unwrap();
        assert_eq!(events.profile, threads.profile);
    }
}
