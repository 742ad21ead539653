//! Closed-form pricing of native counted programs.
//!
//! A counted program moves no data — its entire observable output is
//! the per-rank Eq. 1/2 counters and virtual clocks, and those are a
//! pure function of the message DAG (see [`crate::event`]). For every
//! built-in counted program the DAG is known in closed form, so
//! instead of scheduling its wires one by one, this module walks each
//! rank's pricing sequence directly over arrays — sends as the chunks
//! `crate::meter::charge_chunks` cuts, each at its `chunk_charge`,
//! and the same `max(clock, depart)` joins. The stencil, the 2.5D
//! skeleton and sample sort share one pricer, [`phased`], which reads
//! the program's [`Phases`] description — the same one the scheduler
//! steps (`crate::programs::Phased`), carried in the claim itself — so
//! there is no second copy of those programs to drift. Every program is
//! such a description, the allreduces too, but they keep pricers of
//! their own that walk the same trees and rounds rank-major
//! ([`binomial`], [`pairwise`]): [`phased`] sweeps every rank once per
//! phase, which for the binomial's `2⌈log₂p⌉` levels re-reads the
//! lanes once per level where the rank-major walk reads them twice in
//! all (at `p = 2^20`, about 8× slower end to end, and still about 3×
//! with both sweeps stepping by the level's stride). The
//! result is byte-identical to the general executor (enforced by the
//! `fastpath_identity` differential tests against
//! `EventMachine::run_general`, which forces the general path, and by
//! the step pins of `program_steps`).
//!
//! When the fast path engages is decided from the configuration and
//! rank 0's claim ([`eligible`]); every rank's program must then claim
//! the *same* [`AnalyticOp`] (data-mode programs claim none):
//!
//! * a traced run is always scheduled (a trace lists every event);
//! * on a flat, fault-free machine every claim is priced, each rank's
//!   lane its clock (a phased program's: its `RankStats`) and the prices
//!   of a transfer one shared [`Prices`];
//! * under a fault plan or a hierarchy only the binomial allreduce is,
//!   with one `Meter` per rank as its lane. A meter's output is a pure
//!   function of its own call sequence plus, per receive, the
//!   sender's [`Departure`] — fault decisions are keyed on the seed, the
//!   link and the sender's own transfer count, and checkpoints and
//!   crashes on the rank's own clock — and the binomial pricer makes
//!   each rank's calls in that rank's program order, with the departs
//!   the scheduler would deliver. So retries, delays, duplicates,
//!   checkpoint epilogues, crash recovery and intra-node prices come out
//!   bit for bit through the one pricing core, with no second copy of
//!   the fault semantics. The pairwise and phased pricers keep
//!   scheduling there: the first shares one counter lane across ranks,
//!   the second folds a phase's receives into one `max`, which a
//!   checkpoint or crash between two receives would observe.
//!
//! The remaining claims are *streamed*: each `make(r, p)` is
//! constructed, asked, and dropped, so an analytic run never holds `p`
//! programs. A flat phased program is then priced straight into the
//! `Vec<RankStats>` the profile will own — the clock of a rank in flight
//! is its `finish_time` — plus one `f64` of arrival time per rank. A
//! flat allreduce walks one `f64` clock and one depart per rank, and
//! writes the profile once from the clocks when the walk is done: its
//! counters are closed form ([`binomial_stats`], or the one lane a
//! pairwise round prices for every rank). Either way the peak is the
//! profile plus 8 bytes per rank. A metered binomial adds a `Meter` per
//! rank, collected into the profile as the scheduler collects its own.
//!
//! Once engaged it honours [`SimConfig::cancel`] like the scheduler
//! does: checked up front and once per pass, round or phase, so a
//! time budget can abandon a large ring or sample sort.

use super::cancelled;
use crate::error::SimResult;
use crate::meter::{charge_chunks, chunk_charge, chunk_count, Departure, Meter};
use crate::profile::per_rank;
use crate::program::AnalyticOp;
use crate::programs::{PairwiseSchedule, Phases, RecursiveDoubling, Ring};
use crate::{Profile, RankStats, SimConfig, SimError, Tag};

/// The flat-machine prices of one transfer size: a collective's, or a
/// phase's, whose every transfer carries the same `words`. The phased
/// pricer's lane is a rank's `RankStats` itself — the one cache line the
/// general path can touch on a trace-less, fault-less, flat run — with
/// `finish_time` as the running clock. The allreduces' lane is the
/// clock alone: their counters are the same closed form for every rank
/// (the pairwise collectives) or for every rank with as many children
/// (the binomial tree), written once when the walk is done.
struct Prices {
    /// What the messages of one transfer add to the sender's clock, in
    /// order, as runs `(charge, messages)`: the chunks `charge_chunks`
    /// cuts `words` into, each at its `chunk_charge`, bit-equal
    /// neighbours folded (full chunks, then the remainder — two runs at
    /// most, so a transfer of a billion messages is still 32 bytes of
    /// prices; an unused run has no messages). Derived once; every send
    /// replays it.
    charges: [(f64, u64); 2],
    /// Messages per transfer.
    n_chunks: u64,
    /// What merging one received block adds to the clock: `γ·words`.
    merge: f64,
    words: u64,
}

impl Prices {
    fn new(cfg: &SimConfig, words: usize) -> Self {
        let (m, alpha, beta) = (cfg.max_message_words as u64, cfg.alpha_t, cfg.beta_t);
        let (mut charges, mut runs) = ([(0.0f64, 0u64); 2], 0);
        charge_chunks(&mut 0.0, words as u64, m, alpha, beta, |k| {
            let charge = chunk_charge(k, alpha, beta);
            match charges[..runs].last_mut() {
                Some((last, n)) if last.to_bits() == charge.to_bits() => *n += 1,
                _ => {
                    charges[runs] = (charge, 1);
                    runs += 1;
                }
            }
        });
        Prices {
            n_chunks: charges.iter().map(|&(_, n)| n).sum(),
            charges,
            merge: cfg.gamma_t * words as f64,
            words: words as u64,
        }
    }

    /// Advance every clock of `clocks` by one transfer's messages: each
    /// lane adds the same charges in the same order a lone
    /// `charge_chunks` would, lane-innermost so the loop vectorises.
    #[inline]
    fn charge(&self, clocks: &mut [f64]) {
        for &(charge, n) in &self.charges {
            for _ in 0..n {
                for clock in &mut *clocks {
                    *clock += charge;
                }
            }
        }
    }

    /// A flat-machine `Meter::send`; returns the depart time (the
    /// sender's clock after the last chunk).
    #[inline]
    fn send(&self, lane: &mut RankStats) -> f64 {
        self.charge(std::slice::from_mut(&mut lane.finish_time));
        lane.msgs_sent += self.n_chunks;
        lane.words_sent += self.words;
        lane.finish_time
    }

    /// `Meter::recv`.
    #[inline]
    fn recv(&self, lane: &mut RankStats, depart: f64) {
        lane.finish_time = lane.finish_time.max(depart);
        lane.words_recvd += self.words;
        lane.msgs_recvd += self.n_chunks;
    }

    /// `Meter::compute` of one flop per word.
    #[inline]
    fn compute(&self, lane: &mut RankStats) {
        lane.flops += self.words;
        lane.finish_time += self.merge;
    }
}

/// `Meter::compute`.
#[inline]
fn compute(lane: &mut RankStats, cfg: &SimConfig, flops: u64) {
    lane.flops += flops;
    lane.finish_time += cfg.gamma_t * flops as f64;
}

/// One rank's pricing state in the binomial walk, priced at `Pr`: what
/// every transfer of the walk shares. Each method is the `Meter` call
/// the scheduler's slot makes for the same step.
trait Lane<Pr> {
    /// `Meter::send` to `dest`; returns the depart time.
    fn send(&mut self, pr: &Pr, dest: usize) -> SimResult<f64>;
    /// `Meter::begin_recv`, then `Meter::recv` of the transfer from
    /// `src` that departed at `depart`.
    fn recv(&mut self, pr: &Pr, src: usize, depart: f64) -> SimResult<()>;
    /// `Meter::compute` of one flop per word.
    fn merge(&mut self, pr: &Pr);
    /// The rank's program is done: a crash its last operations left
    /// pending fails it, as `Step::Done` does on the scheduler.
    fn done(&mut self) -> SimResult<()>;
}

/// The flat lane: the rank's clock, moved by the same float operations
/// in the same order as [`Prices::send`], [`Prices::recv`] and
/// [`Prices::compute`] move `finish_time`. Its counters are
/// [`binomial_stats`], and nothing it does can fail.
impl Lane<Prices> for f64 {
    #[inline]
    fn send(&mut self, pr: &Prices, _dest: usize) -> SimResult<f64> {
        pr.charge(std::slice::from_mut(self));
        Ok(*self)
    }

    #[inline]
    fn recv(&mut self, _pr: &Prices, _src: usize, depart: f64) -> SimResult<()> {
        *self = self.max(depart);
        Ok(())
    }

    #[inline]
    fn merge(&mut self, pr: &Prices) {
        *self += pr.merge;
    }

    #[inline]
    fn done(&mut self) -> SimResult<()> {
        Ok(())
    }
}

/// A metered walk's prices: the machine, and the transfer size.
struct Metered<'a> {
    cfg: &'a SimConfig,
    words: usize,
    /// Messages per transfer, as `Meter::send` reports them.
    n_chunks: usize,
}

/// The tag every metered transfer carries. An untraced meter reads a
/// tag only to record it, and a traced run is never priced.
const UNRECORDED: Tag = Tag(0);

/// The metered lane: the scheduler's own pricing core.
impl Lane<Metered<'_>> for Meter {
    #[inline]
    fn send(&mut self, pr: &Metered<'_>, dest: usize) -> SimResult<f64> {
        let departure = Meter::send(self, pr.cfg, dest, UNRECORDED, pr.words, None)?;
        Ok(departure.depart_time)
    }

    #[inline]
    fn recv(&mut self, pr: &Metered<'_>, src: usize, depart: f64) -> SimResult<()> {
        let t0 = self.begin_recv(src)?;
        let departure = Departure {
            n_chunks: pr.n_chunks,
            depart_time: depart,
        };
        Meter::recv(self, pr.cfg, t0, src, UNRECORDED, departure, pr.words);
        Ok(())
    }

    #[inline]
    fn merge(&mut self, pr: &Metered<'_>) {
        self.compute(pr.cfg, pr.words as u64);
    }

    #[inline]
    fn done(&mut self) -> SimResult<()> {
        self.take_fault_error().map_or(Ok(()), Err)
    }
}

/// Can `op`, rank 0's claim, be priced in closed form under `cfg`?
/// Never when traced; always on a flat, fault-free machine; under a
/// fault plan or a hierarchy only the binomial allreduce, whose pricer
/// drives a `Meter` per rank (see the module docs).
pub(crate) fn eligible(cfg: &SimConfig, op: &AnalyticOp) -> bool {
    !cfg.record_trace
        && (!cfg.tracks_overheads() || matches!(op, AnalyticOp::BinomialAllreduce { .. }))
}

/// `len` copies of `value`, reserved fallibly (see [`per_rank`]).
fn filled<T: Clone>(len: usize, value: T) -> SimResult<Vec<T>> {
    per_rank(len, std::iter::repeat_n(value, len))
}

/// Do ranks `1..p` all claim `op`? Asks `claim(r)` once each, in
/// order, up to the first rank that disagrees; then polls the cancel
/// flag.
fn agreed(
    p: usize,
    cfg: &SimConfig,
    op: AnalyticOp,
    claim: impl FnMut(usize) -> Option<AnalyticOp>,
) -> SimResult<bool> {
    if (1..p).map(claim).any(|claimed| claimed != Some(op)) {
        return Ok(false);
    }
    if cancelled(cfg) {
        return Err(SimError::Cancelled);
    }
    Ok(true)
}

/// Price `op`, which rank 0 of an [`eligible`] run claims, on `p`
/// ranks. `claim(r)` is rank `r`'s own claim, asked once each for
/// `1..p` in order; the first rank that disagrees ends the attempt with
/// `Ok(None)` and the caller falls back to the general executor.
pub(crate) fn price(
    p: usize,
    cfg: &SimConfig,
    op: AnalyticOp,
    claim: impl FnMut(usize) -> Option<AnalyticOp>,
) -> SimResult<Option<Profile>> {
    if cfg.tracks_overheads() {
        return metered(p, cfg, op, claim);
    }
    // Reserve before streaming: an absurd `p` fails here, at once. The
    // allreduces price clocks and write their lanes when done; a phased
    // program prices into its lanes.
    let is_phased = matches!(
        op,
        AnalyticOp::Stencil1D(_) | AnalyticOp::Matmul25D(_) | AnalyticOp::SampleSort(_)
    );
    let (clocks, lanes) = if is_phased {
        (Vec::new(), filled(p, RankStats::default())?)
    } else {
        (filled(p, 0.0f64)?, Vec::new())
    };
    if !agreed(p, cfg, op, claim)? {
        return Ok(None);
    }
    let lanes = match op {
        AnalyticOp::BinomialAllreduce { words } => {
            flat_binomial(clocks, cfg, &Prices::new(cfg, words))?
        }
        AnalyticOp::RecursiveDoublingAllreduce { words } => {
            pairwise::<RecursiveDoubling>(clocks, cfg, &Prices::new(cfg, words))?
        }
        AnalyticOp::RingAllreduce { words } => {
            pairwise::<Ring>(clocks, cfg, &Prices::new(cfg, words))?
        }
        AnalyticOp::Stencil1D(program) => phased(lanes, cfg, &program)?,
        AnalyticOp::Matmul25D(program) => phased(lanes, cfg, &program)?,
        AnalyticOp::SampleSort(program) => phased(lanes, cfg, &program)?,
    };
    // An `eligible` run has no overhead block and no event logs, as the
    // general path reports without a hierarchy, a fault plan or tracing.
    let profile = Profile::from_parts(lanes, Vec::new(), Vec::new());
    debug_assert!(profile.assert_balanced().is_ok());
    Ok(Some(profile))
}

/// Price the binomial allreduce `op` under a fault plan or a hierarchy,
/// one `Meter` per rank, and collect the meters as the scheduler does.
/// A meter that fails — retries exhausted, a crash with no checkpoint,
/// surfaced mid-walk or pending at its rank's end — ends the attempt
/// with `Ok(None)` too: the caller then builds and schedules the world,
/// so the error, and which rank's error wins, are the scheduler's own.
/// That costs `2p` calls of `make`, as a dissenting rank costs up to
/// `2p`.
fn metered(
    p: usize,
    cfg: &SimConfig,
    op: AnalyticOp,
    claim: impl FnMut(usize) -> Option<AnalyticOp>,
) -> SimResult<Option<Profile>> {
    let AnalyticOp::BinomialAllreduce { words } = op else {
        unreachable!("only the binomial allreduce is eligible under a plan or a hierarchy");
    };
    // Reserve before streaming, as on a flat machine.
    let mut meters = per_rank(p, std::iter::empty())?;
    if !agreed(p, cfg, op, claim)? {
        return Ok(None);
    }
    meters.extend((0..p).map(|r| Meter::new(r, p, cfg)));
    let pr = Metered {
        cfg,
        words,
        n_chunks: chunk_count(words, cfg.max_message_words),
    };
    match binomial(&mut meters, cfg, &pr) {
        Ok(()) => Profile::collect(cfg, meters.into_iter().map(|m| m.into_parts(cfg))).map(Some),
        Err(SimError::Cancelled) => Err(SimError::Cancelled),
        Err(_) => Ok(None),
    }
}

/// `BinomialAllreduce`: reduce pass in *descending* rank order — at
/// level `k` a parent `v` (with `v mod 2^(k+1) = 0`) receives from
/// child `v + 2^k > v`, and the child's single reduce send is its last
/// reduce action, so processing high ranks first has every depart time
/// ready. Broadcast pass in *ascending* order: rank `v > 0` receives
/// from parent `v − lowbit(v) < v`, then fans to children `> v`. Each
/// lane so makes its rank's calls in program order, with every depart
/// its receives need already priced.
fn binomial<Pr, L: Lane<Pr>>(lanes: &mut [L], cfg: &SimConfig, pr: &Pr) -> SimResult<()> {
    let p = lanes.len();
    // depart[c] = depart time of c's reduce send (each rank sends at
    // most once in the reduce tree).
    let mut depart = filled(p, 0.0f64)?;
    for v in (0..p).rev() {
        let mut mask = 1usize;
        while mask < p {
            if v & mask != 0 {
                depart[v] = lanes[v].send(pr, v - mask)?;
                break;
            }
            let child = v + mask;
            if child < p {
                lanes[v].recv(pr, child, depart[child])?;
                lanes[v].merge(pr);
            }
            mask <<= 1;
        }
    }
    if cancelled(cfg) {
        return Err(SimError::Cancelled);
    }
    // depart[c] now re-used for c's *incoming* broadcast edge.
    for v in 0..p {
        let fan_start = if v == 0 {
            p.next_power_of_two() >> 1
        } else {
            let lowbit = v & v.wrapping_neg();
            lanes[v].recv(pr, v - lowbit, depart[v])?;
            lowbit >> 1
        };
        let mut mask = fan_start;
        while mask > 0 {
            let child = v + mask;
            if child < p {
                depart[child] = lanes[v].send(pr, child)?;
            }
            mask >>= 1;
        }
        lanes[v].done()?;
    }
    Ok(())
}

/// The flat binomial walk over `clocks`, one per rank, then the lanes
/// written from them once the walk has freed its departs.
fn flat_binomial(mut clocks: Vec<f64>, cfg: &SimConfig, pr: &Prices) -> SimResult<Vec<RankStats>> {
    let p = clocks.len();
    binomial(&mut clocks, cfg, pr)?;
    let lane = |(v, finish_time)| binomial_stats(v, p, pr, finish_time);
    per_rank(p, clocks.into_iter().enumerate().map(lane))
}

/// Rank `v`'s counters in the flat binomial walk, whose clock ended at
/// `finish_time`. Its children are the ranks `v + mask < p` for every
/// `mask` below `lowbit(v)` (every `mask < p` for rank 0): it receives
/// and merges one block from each and, in the broadcast, sends each
/// one; every rank but 0 also sends one block up and receives one down.
fn binomial_stats(v: usize, p: usize, pr: &Prices, finish_time: f64) -> RankStats {
    // The masks below `bound` are the powers of two under it.
    let bound = match v {
        0 => p,
        _ => (v & v.wrapping_neg()).min(p - v),
    };
    let children = (usize::BITS - (bound - 1).leading_zeros()) as u64;
    let transfers = children + (v > 0) as u64;
    RankStats {
        flops: children * pr.words,
        words_sent: transfers * pr.words,
        msgs_sent: transfers * pr.n_chunks,
        words_recvd: transfers * pr.words,
        msgs_recvd: transfers * pr.n_chunks,
        finish_time,
        ..RankStats::default()
    }
}

/// The pairwise-round allreduces: per round every rank sends to its
/// peer, then receives and merges — so price each round in two sweeps
/// (all sends, then all recv+computes), which is exactly each rank's
/// own program order with every depart time ready. Every rank performs
/// the same operations on the same sizes, so only the clocks differ:
/// the sweeps run over dense `f64` arrays, in loops a compiler can
/// vectorise — each lane still adds the same charges in the same order
/// — one lane is priced per round for the counters all ranks share, and
/// the two are joined at the end. The receive sweep walks the
/// schedule's [`PairwiseSchedule::recv_run`]s — stretches of consecutive
/// ranks whose peers are consecutive too (the ring's rotation is two,
/// recursive doubling's xor-stride `p / 2^r`) — so a lane-round is a
/// zipped slice step, not a peer computation. The ring's `O(p)` rounds
/// make this `O(p²)` work — still the cheap side of `O(p²)` scheduled
/// events, but the reason the cancel flag is polled here. `clock` holds
/// every rank's clock, and the lanes are written from it at the end.
fn pairwise<S: PairwiseSchedule>(
    mut clock: Vec<f64>,
    cfg: &SimConfig,
    pr: &Prices,
) -> SimResult<Vec<RankStats>> {
    let p = clock.len();
    let mut counters = RankStats::default();
    let mut depart = filled(p, 0.0f64)?;
    for round in 0..S::rounds(p) {
        if cancelled(cfg) {
            return Err(SimError::Cancelled);
        }
        pr.send(&mut counters);
        pr.recv(&mut counters, 0.0);
        pr.compute(&mut counters);
        pr.charge(&mut clock);
        depart.copy_from_slice(&clock);
        let mut v = 0;
        while v < p {
            let (peer, len) = S::recv_run(v, round, p);
            for (clock, depart) in clock[v..v + len].iter_mut().zip(&depart[peer..peer + len]) {
                *clock = clock.max(*depart) + pr.merge;
            }
            v += len;
        }
    }
    drop(depart);
    let lane = |finish_time| RankStats {
        finish_time,
        ..counters
    };
    per_rank(p, clock.into_iter().map(lane))
}

/// Price a [`Phases`] program, the description `programs::Phased`
/// steps. Between a rank's sends and its next compute, its clock only
/// meets `max(clock, depart)` joins, and `max` is exact and order-free:
/// the phase's receives end the clock at the largest of itself and the
/// departs sent its way. So one sweep prices every rank's sends in
/// program order, folding each depart into its destination's `arrive`,
/// and a second joins and computes — one `f64` per rank however many
/// transfers a phase has; the receives themselves are never read. A
/// self-send is free and its receive a no-op (`Meter::send`,
/// `Meter::recv`), so neither prices anything here.
fn phased(
    mut lanes: Vec<RankStats>,
    cfg: &SimConfig,
    program: &impl Phases,
) -> SimResult<Vec<RankStats>> {
    let mut arrive = filled(lanes.len(), f64::NEG_INFINITY)?;
    for phase in 0..program.count() {
        if cancelled(cfg) {
            return Err(SimError::Cancelled);
        }
        let pr = Prices::new(cfg, program.words(phase));
        for r in 0..lanes.len() {
            for (dest, _) in (0..).map_while(|i| program.transfer(phase, r, i, true)) {
                if dest != r {
                    let depart = pr.send(&mut lanes[r]);
                    arrive[dest] = arrive[dest].max(depart);
                    lanes[dest].words_recvd += pr.words;
                    lanes[dest].msgs_recvd += pr.n_chunks;
                }
            }
        }
        for (r, (lane, arrive)) in lanes.iter_mut().zip(&mut arrive).enumerate() {
            lane.finish_time = lane.finish_time.max(*arrive);
            *arrive = f64::NEG_INFINITY;
            for flops in (0..).map_while(|i| program.compute(phase, r, i)) {
                compute(lane, cfg, flops);
            }
        }
    }
    Ok(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventMachine, EventOutcome};
    use crate::machine::{CancelFlag, Hierarchy};
    use crate::program::{Delivered, RankProgram, Step};
    use crate::programs::{
        BinomialAllreduce, Matmul25D, OpTotals, RingAllreduce, SampleSort, Stencil1D,
    };
    use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy};

    const WORDS: usize = 100;

    /// Was the run priced in closed form? Byte-identity can't tell
    /// (identical output is the whole point); the outcome's programs
    /// can: an analytic run has none to hand back, a scheduled run
    /// hands back all `p`.
    fn priced<P>(out: &EventOutcome<P>) -> bool {
        assert!(out.programs.is_empty() || out.programs.len() == out.profile.p());
        out.programs.is_empty()
    }

    /// The three configurations that observe individual events.
    fn observing_cfgs() -> [(&'static str, SimConfig); 3] {
        let traced = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let faulted = SimConfig {
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: 1,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 1,
                    retry_backoff: 1e-9,
                    checkpoint: None,
                },
            }),
            ..SimConfig::default()
        };
        let hierarchical = SimConfig {
            hierarchy: Some(Hierarchy {
                cores_per_node: 4,
                intra_beta_t: 1e-9,
                intra_alpha_t: 1e-7,
            }),
            ..SimConfig::default()
        };
        [
            ("trace", traced),
            ("faults", faulted),
            ("hierarchy", hierarchical),
        ]
    }

    /// `make`, counting its calls.
    fn counting<'a, P>(
        calls: &'a mut usize,
        make: impl Fn(usize, usize) -> P + 'a,
    ) -> impl FnMut(usize, usize) -> P + 'a {
        move |r, p| {
            *calls += 1;
            make(r, p)
        }
    }

    /// A counted binomial rank whose claim is whatever the test says.
    struct Claiming {
        inner: BinomialAllreduce,
        claim: Option<AnalyticOp>,
    }

    impl RankProgram for Claiming {
        fn next(&mut self, delivered: Option<Delivered>) -> Step {
            self.inner.next(delivered)
        }
        fn analytic(&self) -> Option<AnalyticOp> {
            self.claim
        }
    }

    /// Counted binomial ranks that all claim it, except that rank
    /// `dissenter` claims `claim`.
    fn all_but(dissenter: usize, claim: Option<AnalyticOp>) -> impl Fn(usize, usize) -> Claiming {
        let make = BinomialAllreduce::counted(Tag(0), WORDS);
        move |r, p| {
            let inner = make(r, p);
            let claim = if r == dissenter {
                claim
            } else {
                inner.analytic()
            };
            Claiming { inner, claim }
        }
    }

    /// The fast path must actually engage on every counted program —
    /// the headline binomial, and the phased programs at the shapes the
    /// ledger's `event-mega` runs them: pin the dispatch decision, that
    /// `make` ran once per rank, and the closed-form totals.
    #[test]
    fn engages_for_every_counted_program() {
        fn pinned<P: RankProgram>(p: usize, make: impl Fn(usize, usize) -> P, t: OpTotals) {
            let mut calls = 0;
            let out = EventMachine::run(p, &SimConfig::default(), counting(&mut calls, make));
            let out = out.unwrap();
            assert!(priced(&out), "p = {p}");
            assert_eq!(calls, p, "each rank constructed once, asked, dropped");
            let got = OpTotals {
                msgs: out.profile.total_msgs_sent(),
                words: out.profile.total_words_sent(),
                flops: out.profile.total_flops(),
            };
            assert_eq!(got, t);
            assert!(out.profile.events.is_empty(), "untraced: no event logs");
            assert!(out.profile.overheads().is_empty());
        }
        let m = 1 << 16;
        let binomial = BinomialAllreduce::expected_totals(64, WORDS as u64, m);
        pinned(64, BinomialAllreduce::counted(Tag(0), WORDS), binomial);
        let p = 100_000;
        let stencil = Stencil1D::expected_totals(p as u64, p as u64, 1, 2, m);
        pinned(p, Stencil1D::counted(p, 1, 2), stencil);
        let (q, c, b) = (64, 4, 4);
        let mm = Matmul25D::expected_totals(q as u64, c as u64, b);
        pinned(q * q * c, Matmul25D::counted(q, c, b), mm);
        let sort = SampleSort::expected_totals(512, 512, m);
        pinned(512, SampleSort::counted(512), sort);
    }

    /// Tracing always schedules; a fault plan or a hierarchy prices the
    /// binomial allreduce and schedules a phased program; data mode
    /// schedules. Priced or scheduled from rank 0 on, each program is
    /// built exactly once.
    #[test]
    fn guards_refuse_trace_faults_hierarchy_and_data() {
        for (what, cfg) in observing_cfgs() {
            let metered = what != "trace";
            let binomial = AnalyticOp::BinomialAllreduce { words: WORDS };
            assert_eq!(eligible(&cfg, &binomial), metered, "{what}");
            let mut calls = 0;
            let make = counting(&mut calls, BinomialAllreduce::counted(Tag(0), WORDS));
            let out = EventMachine::run(8, &cfg, make).unwrap();
            assert_eq!(priced(&out), metered, "{what}");
            assert_eq!(calls, 8, "{what}");
            let general =
                EventMachine::run_general(8, &cfg, BinomialAllreduce::counted(Tag(0), WORDS));
            assert_eq!(out.profile, general.unwrap().profile, "{what}");

            let mut calls = 0;
            let make = counting(&mut calls, Stencil1D::counted(8, 1, 2));
            let out = EventMachine::run(8, &cfg, make).unwrap();
            assert!(!priced(&out), "{what}: phased programs schedule");
            assert_eq!(calls, 8, "{what}: rank 0's program is kept");
        }
        let mut calls = 0;
        let data_mode = BinomialAllreduce::with_data(Tag(0), vec![1.0; 8]);
        let out =
            EventMachine::run(8, &SimConfig::default(), counting(&mut calls, data_mode)).unwrap();
        assert!(!priced(&out), "data mode claims nothing");
        assert_eq!(calls, 8, "rank 0's program is kept, not rebuilt");
        assert_eq!(out.programs[7].result(), Some(&[8.0; 8][..]));
    }

    /// One rank that claims nothing — or the same collective at another
    /// size — sends the whole run to the scheduler, with the outcome
    /// `run_general` gives. A dissenter after rank 0 is the one case
    /// that constructs programs twice: the streamed ranks `0..=d`, then
    /// the whole world.
    #[test]
    fn a_dissenting_rank_falls_back_to_the_scheduler() {
        let p = 12;
        let cfg = SimConfig::default();
        let other_size = Some(AnalyticOp::BinomialAllreduce { words: WORDS + 1 });
        for claim in [None, other_size] {
            for d in [0, 5, p - 1] {
                let mut calls = 0;
                let out =
                    EventMachine::run(p, &cfg, counting(&mut calls, all_but(d, claim))).unwrap();
                assert!(!priced(&out), "rank {d} claims {claim:?}");
                // The stream stops at the first rank that differs from
                // rank 0 (which is rank 1 when rank 0 is the odd one),
                // unless rank 0 claims nothing and is simply kept.
                let streamed = match (d, claim) {
                    (0, None) => 0,
                    (0, Some(_)) => 2,
                    _ => d + 1,
                };
                assert_eq!(calls, p + streamed, "rank {d} claims {claim:?}");
                let general = EventMachine::run_general(p, &cfg, all_but(d, claim)).unwrap();
                assert_eq!(out.profile, general.profile);
                assert_eq!(out.stats, general.stats);
            }
        }
        // The control: with no dissenter the same programs are priced.
        let out = EventMachine::run(p, &cfg, all_but(p, None)).unwrap();
        assert!(priced(&out));
        let general = EventMachine::run_general(p, &cfg, all_but(p, None)).unwrap();
        assert_eq!(out.profile, general.profile);
    }

    /// A raised cancel flag abandons the run on the analytic path
    /// exactly as it does on the scheduled one — a counted ring at
    /// large `p` is `O(p²)` sweeps a time budget must be able to stop.
    #[test]
    fn cancel_flag_is_honoured_on_both_paths() {
        let flag = CancelFlag::new();
        flag.cancel();
        let cfg = SimConfig {
            cancel: Some(flag),
            ..SimConfig::default()
        };
        for p in [1, 64] {
            let fast = EventMachine::run(p, &cfg, RingAllreduce::counted(Tag(0), 100));
            assert!(matches!(fast, Err(SimError::Cancelled)), "run, p={p}");
            let general = EventMachine::run_general(p, &cfg, RingAllreduce::counted(Tag(0), 100));
            assert!(
                matches!(general, Err(SimError::Cancelled)),
                "general, p={p}"
            );
        }
    }

    /// A world that cannot exist is refused identically by both entry
    /// points, before any program is constructed: `p = 0` and a bad
    /// configuration with today's messages, and a `p` whose per-rank
    /// state the host cannot reserve with a typed error naming `p` and
    /// the bytes — not the allocator's abort.
    #[test]
    fn invalid_worlds_fail_alike_on_both_paths() {
        let both = |p: usize, cfg: &SimConfig| {
            let make = |_: usize, _: usize| -> BinomialAllreduce {
                panic!("an invalid world constructs no program")
            };
            let fast = EventMachine::run(p, cfg, make).unwrap_err();
            let general = EventMachine::run_general(p, cfg, make).unwrap_err();
            assert_eq!(fast, general);
            fast
        };
        assert_eq!(
            both(0, &SimConfig::default()),
            SimError::InvalidConfig("world size p must be >= 1".into())
        );
        let no_words = SimConfig {
            max_message_words: 0,
            ..SimConfig::default()
        };
        assert_eq!(
            both(1 << 40, &no_words),
            SimError::InvalidConfig("max_message_words must be at least 1".into())
        );

        let p = 1usize << 40;
        let make = BinomialAllreduce::counted(Tag(0), WORDS);
        for (entry, err) in [
            ("run", EventMachine::run(p, &SimConfig::default(), &make)),
            (
                "run_general",
                EventMachine::run_general(p, &SimConfig::default(), &make),
            ),
        ] {
            let Err(SimError::InvalidConfig(msg)) = err else {
                panic!("{entry}: expected InvalidConfig, got {err:?}");
            };
            assert!(msg.contains("p = 1099511627776"), "{entry}: {msg}");
            assert!(msg.contains("bytes"), "{entry}: {msg}");
        }
    }
}
