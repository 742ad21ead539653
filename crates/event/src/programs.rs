//! Built-in rank programs: the paper's real algorithms in resumable
//! form, with closed-form Eq. 1 count helpers for exact verification.
//!
//! [`BinomialAllreduce`] replays `psse-sim`'s
//! `Rank::allreduce_sum` (binomial reduce to rank 0, binomial
//! broadcast back, including the nested collective trace markers)
//! step-for-step, so on the thread backend it is bit-identical to the
//! native collective — that test is the anchor of the whole backend's
//! fidelity. [`RecursiveDoublingAllreduce`] and [`RingAllreduce`] are
//! the classic alternatives with different S/W trade-offs, and
//! [`Matmul25D`] is the communication skeleton of the paper's 2.5D
//! matrix multiply (replication, Cannon-style shifts, layer reduction)
//! in counted form for `p = 10^5`–`10^6` runs. Beyond linear algebra,
//! [`SampleSort`] is the regular-sampling distributed sort (the
//! Scquizzato–Silvestri bound family: `W = Θ(n/p)` attained, but
//! `S = Θ(p)` — the scaling-breaker) and [`Stencil1D`] the iterated
//! periodic halo-exchange stencil (surface `W = Θ(h·n)` per slab,
//! `S = 2` per sweep).
//!
//! Every program supports *counted* payloads (words priced, no buffers
//! allocated — mandatory at mega-scale) and the allreduces, the sort
//! and the stencil also run in *data* mode carrying real values (used
//! by the cross-backend identity tests, where results must match too).

use crate::program::{AnalyticOp, RankProgram};
use crate::step::{Delivered, Payload, Step};
use psse_kernels::stencil::{box_sweep, extend_periodic};
use psse_sim::{SharedPayload, Tag};
use std::marker::PhantomData;
use std::sync::Arc;

/// Exact Eq. 1 operation totals for a program over the whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTotals {
    /// Total messages sent across links (after splitting at `m` words).
    pub msgs: u64,
    /// Total words sent across links.
    pub words: u64,
    /// Total flops charged.
    pub flops: u64,
}

/// Messages for one transfer of `words` words under message cap `m` —
/// the `⌈k/m⌉` of Eq. 1 (an empty transfer still costs one message).
fn chunks(words: u64, m: u64) -> u64 {
    if words == 0 {
        1
    } else {
        words.div_ceil(m)
    }
}

/// The payload a program sends: real data when it has any, counted
/// words otherwise.
#[derive(Debug, Clone)]
enum Buf {
    Counted(usize),
    Data(SharedPayload),
}

impl Buf {
    fn words(&self) -> usize {
        match self {
            Buf::Counted(w) => *w,
            Buf::Data(d) => d.len(),
        }
    }

    /// The real values, if this buffer carries any.
    fn data(&self) -> Option<&[f64]> {
        match self {
            Buf::Data(d) => Some(d),
            Buf::Counted(_) => None,
        }
    }

    /// Adopt a delivered payload as-is (zero-copy: the same `Arc`).
    fn from_delivered(d: &Delivered) -> Buf {
        match &d.data {
            Some(data) => Buf::Data(Arc::clone(data)),
            None => Buf::Counted(d.words),
        }
    }

    fn payload(&self) -> Payload {
        match self {
            Buf::Counted(w) => Payload::Counted(*w),
            Buf::Data(d) => Payload::Data(Arc::clone(d)),
        }
    }

    /// Merge a delivered contribution elementwise (data mode only; the
    /// arithmetic itself is free — the matching `Compute` step prices
    /// the adds, exactly like `reduce_sum_impl`).
    fn merge(&mut self, d: &Delivered) {
        assert_eq!(
            d.words,
            self.words(),
            "reduce contributions disagree in length"
        );
        if let Buf::Data(acc) = self {
            let acc = Arc::make_mut(acc);
            for (a, b) in acc.iter_mut().zip(d.values()) {
                *a += b;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Binomial allreduce (the native collective, resumable)
// ---------------------------------------------------------------------

enum ArState {
    Begin,
    BeginReduce,
    Reduce,
    ReduceMerge,
    EndReduce,
    BeginBcast,
    BcastRoot,
    BcastFan,
    EndBcast,
    End,
    Done,
}

/// `Rank::allreduce_sum` as a resumable program: binomial-tree reduce
/// to rank 0 (`⌈log₂p⌉` rounds, one `n`-flop merge per child), then
/// binomial-tree broadcast back at tag offset 64 — the exact step and
/// trace-marker sequence of the thread backend's native collective.
pub struct BinomialAllreduce {
    tag: Tag,
    acc: Buf,
    st: ArState,
    p: usize,
    me: usize,
    mask: usize,
    round: u64,
    fan_mask: usize,
}

impl BinomialAllreduce {
    /// Counted mode: price an allreduce of `words` words per rank
    /// without allocating payloads (the mega-scale form).
    pub fn counted(tag: Tag, words: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Self::new(tag, Buf::Counted(words), me, p)
    }

    /// Data mode: really sum `data` across all ranks (every rank ends
    /// with the elementwise global sum, retrievable via
    /// [`BinomialAllreduce::result`]).
    pub fn with_data(tag: Tag, data: Vec<f64>) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Self::new(tag, Buf::Data(Arc::new(data.clone())), me, p)
    }

    fn new(tag: Tag, acc: Buf, me: usize, p: usize) -> Self {
        BinomialAllreduce {
            tag,
            acc,
            st: ArState::Begin,
            p,
            me,
            mask: 1,
            round: 0,
            fan_mask: 0,
        }
    }

    /// The reduced values (data mode, after the run completes).
    pub fn result(&self) -> Option<&[f64]> {
        self.acc.data()
    }

    /// Closed-form Eq. 1 totals: the reduce and broadcast trees each
    /// have `p − 1` edges carrying `n` words, and every reduce edge
    /// costs one `n`-flop merge at its head.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let edges = 2 * (p - 1);
        OpTotals {
            msgs: edges * chunks(n, m),
            words: edges * n,
            flops: (p - 1) * n,
        }
    }
}

impl RankProgram for BinomialAllreduce {
    /// Counted runs are analytically priceable; data mode must step so
    /// payloads actually merge.
    fn analytic(&self) -> Option<AnalyticOp> {
        match self.acc {
            Buf::Counted(words) => Some(AnalyticOp::BinomialAllreduce { words }),
            Buf::Data(_) => None,
        }
    }

    fn next(&mut self, delivered: Option<Delivered>) -> Step {
        let (g, v) = (self.p, self.me); // world group, root 0: v == me
        loop {
            match self.st {
                ArState::Begin => {
                    self.st = ArState::BeginReduce;
                    return Step::CollBegin {
                        op: "allreduce_sum",
                    };
                }
                ArState::BeginReduce => {
                    self.st = ArState::Reduce;
                    return Step::CollBegin { op: "reduce_sum" };
                }
                ArState::Reduce => {
                    if self.mask >= g {
                        self.st = ArState::EndReduce;
                        continue;
                    }
                    if v & self.mask != 0 {
                        // Child: one send to the parent ends my reduce.
                        let parent = v - self.mask;
                        let tag = self.tag.offset(self.round);
                        self.st = ArState::EndReduce;
                        return Step::Send {
                            dest: parent,
                            tag,
                            payload: self.acc.payload(),
                        };
                    }
                    let child = v + self.mask;
                    if child < g {
                        let tag = self.tag.offset(self.round);
                        self.st = ArState::ReduceMerge;
                        return Step::Recv { src: child, tag };
                    }
                    self.mask <<= 1;
                    self.round += 1;
                }
                ArState::ReduceMerge => {
                    let d = delivered.as_ref().expect("recv step delivers");
                    let flops = self.acc.words() as u64;
                    self.acc.merge(d);
                    self.mask <<= 1;
                    self.round += 1;
                    self.st = ArState::Reduce;
                    return Step::Compute { flops };
                }
                ArState::EndReduce => {
                    self.st = ArState::BeginBcast;
                    return Step::CollEnd { op: "reduce_sum" };
                }
                ArState::BeginBcast => {
                    self.st = ArState::BcastRoot;
                    return Step::CollBegin { op: "broadcast" };
                }
                ArState::BcastRoot => {
                    if v == 0 {
                        self.fan_mask = g.next_power_of_two() >> 1;
                        self.st = ArState::BcastFan;
                        continue;
                    }
                    let lowbit = v & v.wrapping_neg();
                    let round = lowbit.trailing_zeros() as u64;
                    self.st = ArState::BcastFan; // fan starts after recv
                    self.fan_mask = lowbit >> 1;
                    return Step::Recv {
                        src: v - lowbit,
                        tag: self.tag.offset(64 + round),
                    };
                }
                ArState::BcastFan => {
                    if let Some(d) = delivered.as_ref() {
                        // The broadcast payload replaces my buffer
                        // (zero-copy: the same Arc fans out below).
                        self.acc = Buf::from_delivered(d);
                    }
                    while self.fan_mask > 0 {
                        let mask = self.fan_mask;
                        self.fan_mask >>= 1;
                        let child = v + mask;
                        if child < g {
                            let round = mask.trailing_zeros() as u64;
                            return Step::Send {
                                dest: child,
                                tag: self.tag.offset(64 + round),
                                payload: self.acc.payload(),
                            };
                        }
                    }
                    self.st = ArState::EndBcast;
                }
                ArState::EndBcast => {
                    self.st = ArState::End;
                    return Step::CollEnd { op: "broadcast" };
                }
                ArState::End => {
                    self.st = ArState::Done;
                    return Step::CollEnd {
                        op: "allreduce_sum",
                    };
                }
                ArState::Done => return Step::Done,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pairwise-round allreduces (recursive doubling, ring)
// ---------------------------------------------------------------------

/// The shape of a pairwise-round allreduce: in each of `rounds(p)`
/// rounds every rank sends one block to `send_peer`, receives one from
/// `recv_peer` and merges it. This is the whole difference between
/// recursive doubling and the ring — the stepped program
/// ([`PairwiseAllreduce`]) and the closed-form pricing
/// (`crate::fastpath`) are both written once against it.
pub trait PairwiseSchedule {
    /// Collective name used for the trace markers.
    const OP: &'static str;
    /// Forward the block last received (ring) rather than the running
    /// sum (recursive doubling).
    const FORWARDS_RECEIVED: bool;
    /// Number of exchange rounds on `p` ranks (panics if the schedule
    /// does not support `p`).
    fn rounds(p: usize) -> usize;
    /// Who `me` sends to in round `r`.
    fn send_peer(me: usize, r: usize, p: usize) -> usize;
    /// Who `me` receives from in round `r`.
    fn recv_peer(me: usize, r: usize, p: usize) -> usize {
        Self::recv_run(me, r, p).0
    }
    /// Round `r`'s receive pattern from `me` on, as a run `(peer, len)`:
    /// ranks `me .. me + len` receive from `peer .. peer + len`, one to
    /// one (`len ≥ 1`). This is what lets the closed form price a round
    /// over slices instead of asking for one peer at a time.
    fn recv_run(me: usize, r: usize, p: usize) -> (usize, usize);
    /// The analytic claim of a counted run (see [`AnalyticOp`]).
    fn analytic(words: usize) -> AnalyticOp;
}

/// Schedule of [`RecursiveDoublingAllreduce`]: partner `me ⊕ 2^r`.
pub struct RecursiveDoubling;

impl PairwiseSchedule for RecursiveDoubling {
    const OP: &'static str = "allreduce_rd";
    const FORWARDS_RECEIVED: bool = false;
    fn rounds(p: usize) -> usize {
        assert!(
            p.is_power_of_two(),
            "recursive doubling requires p to be a power of two, got {p}"
        );
        p.trailing_zeros() as usize
    }
    fn send_peer(me: usize, r: usize, _p: usize) -> usize {
        me ^ (1usize << r)
    }
    fn recv_run(me: usize, r: usize, _p: usize) -> (usize, usize) {
        // Up to the end of `me`'s block of `2^r` ranks.
        let stride = 1usize << r;
        (me ^ stride, stride - (me & (stride - 1)))
    }
    fn analytic(words: usize) -> AnalyticOp {
        AnalyticOp::RecursiveDoublingAllreduce { words }
    }
}

/// Schedule of [`RingAllreduce`]: send right, receive from the left.
pub struct Ring;

impl PairwiseSchedule for Ring {
    const OP: &'static str = "allreduce_ring";
    const FORWARDS_RECEIVED: bool = true;
    fn rounds(p: usize) -> usize {
        p - 1
    }
    fn send_peer(me: usize, _r: usize, p: usize) -> usize {
        (me + 1) % p
    }
    fn recv_run(me: usize, _r: usize, p: usize) -> (usize, usize) {
        // The rotation by one: rank 0 wraps, everyone else runs on.
        if me == 0 {
            (p - 1, 1)
        } else {
            (me - 1, p - me)
        }
    }
    fn analytic(words: usize) -> AnalyticOp {
        AnalyticOp::RingAllreduce { words }
    }
}

enum PwState {
    Begin,
    Round,
    Sent,
    Merge,
    End,
    Done,
}

/// A pairwise-round allreduce as a resumable program: per round, send
/// to `S::send_peer`, receive from `S::recv_peer`, charge an `n`-flop
/// merge; round `r` travels at tag offset `r`. Use it through the
/// [`RecursiveDoublingAllreduce`] and [`RingAllreduce`] aliases.
pub struct PairwiseAllreduce<S> {
    tag: Tag,
    /// The accumulated sum.
    acc: Buf,
    /// The block to send next when it is not `acc` (ring: the block
    /// last received).
    fwd: Option<Buf>,
    st: PwState,
    p: usize,
    me: usize,
    round: usize,
    rounds: usize,
    schedule: PhantomData<S>,
}

/// Recursive-doubling allreduce (`p` a power of two): `log₂p` rounds of
/// pairwise exchange with partner `me ⊕ 2^k`, each followed by an
/// `n`-flop merge. Latency-optimal: every rank is done after `log₂p`
/// sends, at the cost of `p·log₂p` total messages.
pub type RecursiveDoublingAllreduce = PairwiseAllreduce<RecursiveDoubling>;

/// Naive ring allreduce: in each of `p − 1` rounds every rank forwards
/// the block it last received (initially its own contribution) to its
/// right neighbour and accumulates the block arriving from the left.
/// After `p − 1` rounds every original block has visited every rank, so
/// all ranks hold the global sum. `O(p²)` total messages — the
/// bandwidth-hungry baseline the tree algorithms beat.
pub type RingAllreduce = PairwiseAllreduce<Ring>;

impl<S: PairwiseSchedule> PairwiseAllreduce<S> {
    /// Counted mode (see [`BinomialAllreduce::counted`]).
    pub fn counted(tag: Tag, words: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Self::new(tag, Buf::Counted(words), me, p)
    }

    /// Data mode: every rank ends with the elementwise global sum.
    pub fn with_data(tag: Tag, data: Vec<f64>) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Self::new(tag, Buf::Data(Arc::new(data.clone())), me, p)
    }

    fn new(tag: Tag, acc: Buf, me: usize, p: usize) -> Self {
        PairwiseAllreduce {
            tag,
            acc,
            fwd: None,
            st: PwState::Begin,
            p,
            me,
            round: 0,
            rounds: S::rounds(p),
            schedule: PhantomData,
        }
    }

    /// The reduced values (data mode, after the run completes).
    pub fn result(&self) -> Option<&[f64]> {
        self.acc.data()
    }
}

impl RecursiveDoublingAllreduce {
    /// Closed-form totals: every rank sends `n` words in each of the
    /// `log₂p` rounds and merges once per round.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let rounds = p.trailing_zeros() as u64;
        OpTotals {
            msgs: p * rounds * chunks(n, m),
            words: p * rounds * n,
            flops: p * rounds * n,
        }
    }
}

impl RingAllreduce {
    /// Closed-form totals: `p` ranks each send `n` words and merge once
    /// in each of the `p − 1` rounds.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let rounds = p - 1;
        OpTotals {
            msgs: p * rounds * chunks(n, m),
            words: p * rounds * n,
            flops: p * rounds * n,
        }
    }
}

impl<S: PairwiseSchedule> RankProgram for PairwiseAllreduce<S> {
    /// Counted runs are analytically priceable; data mode must step.
    fn analytic(&self) -> Option<AnalyticOp> {
        match self.acc {
            Buf::Counted(words) => Some(S::analytic(words)),
            Buf::Data(_) => None,
        }
    }

    fn next(&mut self, delivered: Option<Delivered>) -> Step {
        loop {
            match self.st {
                PwState::Begin => {
                    self.st = PwState::Round;
                    return Step::CollBegin { op: S::OP };
                }
                PwState::Round => {
                    if self.round >= self.rounds {
                        self.st = PwState::End;
                        continue;
                    }
                    self.st = PwState::Sent;
                    return Step::Send {
                        dest: S::send_peer(self.me, self.round, self.p),
                        tag: self.tag.offset(self.round as u64),
                        payload: self.fwd.as_ref().unwrap_or(&self.acc).payload(),
                    };
                }
                PwState::Sent => {
                    self.st = PwState::Merge;
                    return Step::Recv {
                        src: S::recv_peer(self.me, self.round, self.p),
                        tag: self.tag.offset(self.round as u64),
                    };
                }
                PwState::Merge => {
                    let d = delivered.as_ref().expect("recv step delivers");
                    let flops = self.acc.words() as u64;
                    self.acc.merge(d);
                    if S::FORWARDS_RECEIVED {
                        self.fwd = Some(Buf::from_delivered(d));
                    }
                    self.round += 1;
                    self.st = PwState::Round;
                    return Step::Compute { flops };
                }
                PwState::End => {
                    self.st = PwState::Done;
                    return Step::CollEnd { op: S::OP };
                }
                PwState::Done => return Step::Done,
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2.5D matmul (counted communication skeleton)
// ---------------------------------------------------------------------

/// Tag offsets for the matmul's three phases (Tag is a flat `u64`
/// namespace; these programs own their whole tag window).
const MM_REP_A: u64 = 0;
const MM_REP_B: u64 = 1;
const MM_SHIFT: u64 = 16;
const MM_REDUCE: u64 = 1 << 40;

enum MmState {
    Begin,
    RepSend,
    RepRecvA,
    RepRecvB,
    RoundCompute,
    ShiftSendA,
    ShiftSendB,
    ShiftRecvA,
    ShiftRecvB,
    Reduce,
    ReduceMerge,
    End,
    Done,
}

/// The communication skeleton of the paper's 2.5D matrix multiply on a
/// `q × q × c` grid (`p = q²c`, `c | q`), counted payloads only:
///
/// 1. **Replication** — layer 0 sends its A and B blocks (`b²` words
///    each) up to the `c − 1` other layers;
/// 2. **Shift-multiply** — `s = q/c` Cannon rounds per layer, each
///    `2b³` flops then an A-shift right and B-shift down of `b²` words;
/// 3. **Layer reduction** — binomial reduce of the `b²`-word C block
///    across the `c` layers of each `(i, j)`, one `b²`-flop merge per
///    edge.
///
/// [`Matmul25D::expected_totals`] gives the exact Eq. 1 counts, so a
/// `p = 10^6` run can be verified word-for-word against the closed
/// form.
pub struct Matmul25D {
    q: usize,
    c: usize,
    /// Block words: `b²`.
    bw: usize,
    /// Block dimension `b`.
    b: u64,
    st: MmState,
    /// Grid coordinates: row, column, layer.
    i: usize,
    j: usize,
    k: usize,
    /// Replication fan-out cursor (layer-0 ranks): next layer, phase.
    rep_layer: usize,
    rep_b: bool,
    /// Shift round cursor.
    round: usize,
    /// Layer-reduce mask walk.
    mask: usize,
    red_round: u64,
}

impl Matmul25D {
    /// Build the per-rank constructor for a `q × q × c` grid with block
    /// dimension `b` (so blocks are `b²` words). Panics unless
    /// `c >= 1`, `q % c == 0`.
    pub fn counted(q: usize, c: usize, b: u64) -> impl Fn(usize, usize) -> Self + Sync {
        assert!(c >= 1, "2.5D grid needs c >= 1");
        assert_eq!(q % c, 0, "2.5D grid needs c | q (got q={q}, c={c})");
        move |me, p| {
            assert_eq!(p, q * q * c, "p must equal q*q*c");
            let k = me / (q * q);
            let i = (me % (q * q)) / q;
            let j = me % q;
            Matmul25D {
                q,
                c,
                bw: (b * b) as usize,
                b,
                st: MmState::Begin,
                i,
                j,
                k,
                rep_layer: 1,
                rep_b: false,
                round: 0,
                mask: 1,
                red_round: 0,
            }
        }
    }

    fn id(&self, i: usize, j: usize, k: usize) -> usize {
        k * self.q * self.q + i * self.q + j
    }

    /// Shift rounds per layer: `s = q / c`.
    fn s(&self) -> usize {
        self.q / self.c
    }

    /// Closed-form Eq. 1 totals for the whole machine (blocks of `b²`
    /// words assumed not to split, i.e. `b² ≤ m`):
    ///
    /// * replication: `q² · 2(c−1)` sends;
    /// * shifts: `p · s · 2` sends and `p · s · 2b³` flops;
    /// * reduction: `q² · (c−1)` sends and `q² · (c−1) · b²` flops.
    pub fn expected_totals(q: u64, c: u64, b: u64) -> OpTotals {
        let p = q * q * c;
        let s = q / c;
        let bw = b * b;
        let sends = q * q * 2 * (c - 1) + p * s * 2 + q * q * (c - 1);
        OpTotals {
            msgs: sends,
            words: sends * bw,
            flops: p * s * 2 * b * b * b + q * q * (c - 1) * bw,
        }
    }
}

impl RankProgram for Matmul25D {
    /// Always counted, so always analytically priceable.
    fn analytic(&self) -> Option<AnalyticOp> {
        Some(AnalyticOp::Matmul25D {
            q: self.q,
            c: self.c,
            b: self.b,
        })
    }

    fn next(&mut self, delivered: Option<Delivered>) -> Step {
        let (q, c, bw) = (self.q, self.c, self.bw);
        loop {
            match self.st {
                MmState::Begin => {
                    self.st = if c == 1 {
                        MmState::RoundCompute
                    } else if self.k == 0 {
                        MmState::RepSend
                    } else {
                        MmState::RepRecvA
                    };
                    return Step::CollBegin { op: "matmul_25d" };
                }
                MmState::RepSend => {
                    if self.rep_layer >= c {
                        self.st = MmState::RoundCompute;
                        continue;
                    }
                    let dest = self.id(self.i, self.j, self.rep_layer);
                    let tag = if self.rep_b {
                        self.rep_layer += 1;
                        Tag(MM_REP_B)
                    } else {
                        Tag(MM_REP_A)
                    };
                    self.rep_b = !self.rep_b;
                    return Step::Send {
                        dest,
                        tag,
                        payload: Payload::Counted(bw),
                    };
                }
                MmState::RepRecvA => {
                    self.st = MmState::RepRecvB;
                    return Step::Recv {
                        src: self.id(self.i, self.j, 0),
                        tag: Tag(MM_REP_A),
                    };
                }
                MmState::RepRecvB => {
                    self.st = MmState::RoundCompute;
                    return Step::Recv {
                        src: self.id(self.i, self.j, 0),
                        tag: Tag(MM_REP_B),
                    };
                }
                MmState::RoundCompute => {
                    let _ = delivered; // replication payload is counted
                    if self.round >= self.s() {
                        self.st = MmState::Reduce;
                        continue;
                    }
                    self.st = MmState::ShiftSendA;
                    return Step::Compute {
                        flops: 2 * self.b * self.b * self.b,
                    };
                }
                MmState::ShiftSendA => {
                    let right = self.id(self.i, (self.j + 1) % q, self.k);
                    self.st = MmState::ShiftSendB;
                    return Step::Send {
                        dest: right,
                        tag: Tag(MM_SHIFT + 2 * self.round as u64),
                        payload: Payload::Counted(bw),
                    };
                }
                MmState::ShiftSendB => {
                    let down = self.id((self.i + 1) % q, self.j, self.k);
                    self.st = MmState::ShiftRecvA;
                    return Step::Send {
                        dest: down,
                        tag: Tag(MM_SHIFT + 2 * self.round as u64 + 1),
                        payload: Payload::Counted(bw),
                    };
                }
                MmState::ShiftRecvA => {
                    let left = self.id(self.i, (self.j + q - 1) % q, self.k);
                    self.st = MmState::ShiftRecvB;
                    return Step::Recv {
                        src: left,
                        tag: Tag(MM_SHIFT + 2 * self.round as u64),
                    };
                }
                MmState::ShiftRecvB => {
                    let up = self.id((self.i + q - 1) % q, self.j, self.k);
                    self.round += 1;
                    self.st = MmState::RoundCompute;
                    return Step::Recv {
                        src: up,
                        tag: Tag(MM_SHIFT + 2 * (self.round as u64 - 1) + 1),
                    };
                }
                MmState::Reduce => {
                    // Binomial reduce of C across layers, root layer 0.
                    let v = self.k;
                    if self.mask >= c {
                        self.st = MmState::End;
                        continue;
                    }
                    if v & self.mask != 0 {
                        let parent = self.id(self.i, self.j, v - self.mask);
                        let tag = Tag(MM_REDUCE + self.red_round);
                        self.st = MmState::End;
                        return Step::Send {
                            dest: parent,
                            tag,
                            payload: Payload::Counted(bw),
                        };
                    }
                    let child_v = v + self.mask;
                    if child_v < c {
                        let child = self.id(self.i, self.j, child_v);
                        let tag = Tag(MM_REDUCE + self.red_round);
                        self.st = MmState::ReduceMerge;
                        return Step::Recv { src: child, tag };
                    }
                    self.mask <<= 1;
                    self.red_round += 1;
                }
                MmState::ReduceMerge => {
                    debug_assert!(delivered.is_some(), "recv step delivers");
                    self.mask <<= 1;
                    self.red_round += 1;
                    self.st = MmState::Reduce;
                    return Step::Compute { flops: bw as u64 };
                }
                MmState::End => {
                    self.st = MmState::Done;
                    return Step::CollEnd { op: "matmul_25d" };
                }
                MmState::Done => return Step::Done,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Distributed sample sort (regular sampling, direct exchanges)
// ---------------------------------------------------------------------

/// Tag for the splitter-sample exchange.
const SS_SAMPLE: u64 = 1 << 20;
/// Tag for the bucket all-to-all.
const SS_EXCHANGE: u64 = 1 << 21;

/// `⌈log₂ x⌉` for comparison accounting (0 for `x ≤ 1`).
pub(crate) fn ceil_log2(x: usize) -> u64 {
    if x < 2 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as u64
    }
}

/// Comparisons charged for sorting `x` keys: `x·⌈log₂ x⌉`.
pub(crate) fn sort_flops(x: usize) -> u64 {
    x as u64 * ceil_log2(x)
}

enum SsState {
    Begin,
    LocalSort,
    SampleSend,
    SampleRecv,
    SplitterCompute,
    Partition,
    ExchangeSend,
    ExchangeRecv,
    Merge,
    End,
    Done,
}

/// Distributed sample sort as a resumable program: local sort, direct
/// exchange of `p − 1` regular samples per rank, deterministic splitter
/// agreement, bucket all-to-all, local merge. The same shape as
/// `psse-algos`' `sample_sort` (identical per-rank `W = (p−1)·(p−1) +
/// (exchange)` and `S = 2(p−1)`, so the `S = Θ(p)` scaling-breaker
/// shows up at mega-scale too); in data mode the per-rank results equal
/// the closure algorithm's buckets exactly.
///
/// Counted mode assumes perfectly uniform buckets (`bs/p` words each,
/// requiring `p | bs`), which makes [`SampleSort::expected_totals`] an
/// exact closed form; data mode carries the real keys with
/// data-dependent bucket sizes.
pub struct SampleSort {
    me: usize,
    p: usize,
    /// Keys per rank.
    bs: usize,
    st: SsState,
    /// `None` in counted mode; the sorted local block in data mode.
    block: Option<Vec<f64>>,
    /// Sample sets by source rank (data mode; empty when counted).
    candidates: Vec<Vec<f64>>,
    /// Outgoing buckets (data mode), indexed by destination.
    buckets: Vec<Vec<f64>>,
    /// Received buckets by source rank (data mode; empty when counted).
    received: Vec<Vec<f64>>,
    /// Words received (all modes; drives the merge charge).
    recv_words: usize,
    /// Final sorted bucket (data mode).
    out: Option<Vec<f64>>,
    /// Destination / source cursor within a phase.
    cursor: usize,
    /// Source whose delivery the next resumption carries.
    pending: Option<usize>,
    /// Shared sample payload (data mode, sent to every peer).
    sample_buf: Option<SharedPayload>,
}

impl SampleSort {
    /// Counted-mode constructor: `bs` keys per rank, uniform buckets.
    /// Panics (per rank) unless `p | bs` and `bs ≥ p`.
    pub fn counted(bs: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| {
            assert!(bs >= p, "samplesort: need bs >= p (bs={bs}, p={p})");
            assert_eq!(bs % p, 0, "counted samplesort needs p | bs");
            Self::new(me, p, bs, None)
        }
    }

    /// Data-mode constructor: sorts `keys` (length a multiple of `p`,
    /// block size at least `p`).
    pub fn with_data(keys: Vec<f64>) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| {
            let n = keys.len();
            assert_eq!(n % p, 0, "samplesort: p must divide the key count");
            let bs = n / p;
            assert!(bs >= p, "samplesort: need n >= p²");
            let block = keys[me * bs..(me + 1) * bs].to_vec();
            Self::new(me, p, bs, Some(block))
        }
    }

    fn new(me: usize, p: usize, bs: usize, block: Option<Vec<f64>>) -> Self {
        // Per-source tables only where keys travel: a counted rank
        // keeps none (`48·p` bytes each, otherwise).
        let by_source = || match block {
            Some(_) => vec![Vec::new(); p],
            None => Vec::new(),
        };
        SampleSort {
            me,
            p,
            bs,
            st: SsState::Begin,
            candidates: by_source(),
            buckets: Vec::new(),
            received: by_source(),
            block,
            recv_words: 0,
            out: None,
            cursor: 0,
            pending: None,
            sample_buf: None,
        }
    }

    /// The rank's sorted bucket (data mode, after completion); the
    /// concatenation across ranks is the globally sorted sequence.
    pub fn result(&self) -> Option<&[f64]> {
        self.out.as_deref()
    }

    /// Exact Eq. 1 totals for the counted skeleton (`s = p − 1` samples
    /// per rank, uniform `bs/p`-word buckets):
    ///
    /// * samples: `p(p−1)` transfers of `s` words;
    /// * exchange: `p(p−1)` transfers of `bs/p` words;
    /// * flops: local sorts + splitter sorts + `p−1` binary-search cuts
    ///   + `⌈log₂p⌉`-level merges.
    pub fn expected_totals(p: u64, bs: u64, m: u64) -> OpTotals {
        let s = p - 1;
        let per = bs / p;
        let msgs = p * s * (chunks(s, m) + chunks(per, m));
        let words = p * s * (s + per);
        let flops = p
            * (sort_flops(bs as usize)
                + sort_flops((p * s) as usize)
                + s * ceil_log2(bs as usize)
                + bs * ceil_log2(p as usize));
        OpTotals { msgs, words, flops }
    }

    /// Advance the peer cursor past `me`; returns the next peer or
    /// `None` when the phase is exhausted.
    fn next_peer(&mut self) -> Option<usize> {
        if self.cursor == self.me {
            self.cursor += 1;
        }
        if self.cursor < self.p {
            let d = self.cursor;
            self.cursor += 1;
            Some(d)
        } else {
            None
        }
    }
}

impl RankProgram for SampleSort {
    /// Counted runs are analytically priceable; data mode must step so
    /// the keys actually move.
    fn analytic(&self) -> Option<AnalyticOp> {
        let bs = self.bs;
        self.block
            .is_none()
            .then_some(AnalyticOp::SampleSort { bs })
    }

    fn next(&mut self, delivered: Option<Delivered>) -> Step {
        let mut delivered = delivered;
        let (p, bs, s) = (self.p, self.bs, self.p - 1);
        loop {
            match self.st {
                SsState::Begin => {
                    self.st = SsState::LocalSort;
                    return Step::CollBegin { op: "samplesort" };
                }
                SsState::LocalSort => {
                    if let Some(block) = &mut self.block {
                        block.sort_by(|a, b| a.total_cmp(b));
                        // Regular samples at positions (i+1)·bs/p.
                        let samples: Vec<f64> = (1..p).map(|i| block[i * bs / p]).collect();
                        self.candidates[self.me] = samples.clone();
                        self.sample_buf = Some(Arc::new(samples));
                    }
                    self.cursor = 0;
                    self.st = SsState::SampleSend;
                    return Step::Compute {
                        flops: sort_flops(bs),
                    };
                }
                SsState::SampleSend => match self.next_peer() {
                    Some(dest) => {
                        let payload = match &self.sample_buf {
                            Some(buf) => Payload::Data(Arc::clone(buf)),
                            None => Payload::Counted(s),
                        };
                        return Step::Send {
                            dest,
                            tag: Tag(SS_SAMPLE),
                            payload,
                        };
                    }
                    None => {
                        self.cursor = 0;
                        self.st = SsState::SampleRecv;
                    }
                },
                SsState::SampleRecv => {
                    if let (Some(src), Some(d)) = (self.pending.take(), delivered.take()) {
                        if self.block.is_some() {
                            self.candidates[src] = d.values().to_vec();
                        }
                    }
                    match self.next_peer() {
                        Some(src) => {
                            self.pending = Some(src);
                            return Step::Recv {
                                src,
                                tag: Tag(SS_SAMPLE),
                            };
                        }
                        None => self.st = SsState::SplitterCompute,
                    }
                }
                SsState::SplitterCompute => {
                    self.st = SsState::Partition;
                    return Step::Compute {
                        flops: sort_flops(p * s),
                    };
                }
                SsState::Partition => {
                    if let Some(block) = &self.block {
                        // All ranks sort the identical candidate
                        // multiset (rank order), so all agree on the
                        // p − 1 splitters — same rule as the closure
                        // algorithm.
                        let mut cand: Vec<f64> =
                            self.candidates.iter().flatten().copied().collect();
                        cand.sort_by(|a, b| a.total_cmp(b));
                        let splitters: Vec<f64> = (0..s).map(|j| cand[(j + 1) * s]).collect();
                        let mut cuts = vec![0usize];
                        for sp in &splitters {
                            cuts.push(block.partition_point(|x| x.total_cmp(sp).is_le()));
                        }
                        cuts.push(bs);
                        self.buckets = (0..p)
                            .map(|d| block[cuts[d]..cuts[d + 1]].to_vec())
                            .collect();
                        self.received[self.me] = self.buckets[self.me].clone();
                        self.recv_words += self.buckets[self.me].len();
                    } else {
                        self.recv_words += bs / p; // own uniform bucket
                    }
                    self.cursor = 0;
                    self.st = SsState::ExchangeSend;
                    return Step::Compute {
                        flops: s as u64 * ceil_log2(bs),
                    };
                }
                SsState::ExchangeSend => match self.next_peer() {
                    Some(dest) => {
                        let payload = if self.block.is_some() {
                            Payload::Data(Arc::new(std::mem::take(&mut self.buckets[dest])))
                        } else {
                            Payload::Counted(bs / p)
                        };
                        return Step::Send {
                            dest,
                            tag: Tag(SS_EXCHANGE),
                            payload,
                        };
                    }
                    None => {
                        self.cursor = 0;
                        self.st = SsState::ExchangeRecv;
                    }
                },
                SsState::ExchangeRecv => {
                    if let (Some(src), Some(d)) = (self.pending.take(), delivered.take()) {
                        self.recv_words += d.words;
                        if self.block.is_some() {
                            self.received[src] = d.values().to_vec();
                        }
                    }
                    match self.next_peer() {
                        Some(src) => {
                            self.pending = Some(src);
                            return Step::Recv {
                                src,
                                tag: Tag(SS_EXCHANGE),
                            };
                        }
                        None => self.st = SsState::Merge,
                    }
                }
                SsState::Merge => {
                    if self.block.is_some() {
                        let mut bucket: Vec<f64> =
                            self.received.iter().flatten().copied().collect();
                        bucket.sort_by(|a, b| a.total_cmp(b));
                        self.out = Some(bucket);
                    }
                    self.st = SsState::End;
                    return Step::Compute {
                        flops: self.recv_words as u64 * ceil_log2(p),
                    };
                }
                SsState::End => {
                    self.st = SsState::Done;
                    return Step::CollEnd { op: "samplesort" };
                }
                SsState::Done => return Step::Done,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Iterated halo-exchange stencil (1-D slab decomposition)
// ---------------------------------------------------------------------

/// Tag base for halo exchanges (4 tags per sweep).
const ST_HALO: u64 = 1 << 22;

/// Flops of one sweep of a `rows × n` slab with halo width `h`: a
/// `(2h+1)²`-point box per cell.
pub(crate) fn sweep_flops(rows: usize, n: usize, h: usize) -> u64 {
    let k = 2 * h as u64 + 1;
    (rows * n) as u64 * k * k
}

enum StState {
    Begin,
    IterStart,
    SendTop,
    SendBottom,
    RecvBottom,
    RecvTop,
    Update,
    End,
    Done,
}

/// The iterated periodic box stencil on `p` row slabs as a resumable
/// program: each sweep sends the `h` top rows north and the `h` bottom
/// rows south (`2` messages of `h·n` words per rank — the halo
/// *surface*), then updates the `(n/p)·n` interior (the *volume*). In
/// data mode the update is `psse_kernels::stencil::box_sweep` — the
/// kernel `psse-algos`' `serial_stencil` and `halo_stencil` run — so
/// per-rank results are bit-identical to the serial reference at any
/// `p`.
///
/// [`Stencil1D::expected_totals`] is exact for both modes (the halo
/// sizes are data-independent, unlike [`SampleSort`]'s buckets).
pub struct Stencil1D {
    me: usize,
    p: usize,
    /// Grid side.
    n: usize,
    /// Halo width.
    h: usize,
    iters: usize,
    /// Rows per rank: `n/p`.
    rows: usize,
    st: StState,
    /// Sweep counter.
    t: usize,
    /// `None` in counted mode; the local row slab in data mode.
    block: Option<Vec<f64>>,
    halo_top: Vec<f64>,
    halo_bottom: Vec<f64>,
}

impl Stencil1D {
    /// Counted-mode constructor. Panics (per rank) unless `p | n`,
    /// `1 ≤ h ≤ n/p`.
    pub fn counted(n: usize, h: usize, iters: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Self::new(me, p, n, h, iters, None)
    }

    /// Data-mode constructor over a row-major `n × n` grid.
    pub fn with_data(
        grid: Vec<f64>,
        n: usize,
        h: usize,
        iters: usize,
    ) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| {
            assert_eq!(grid.len(), n * n, "stencil: grid must be n×n");
            let rows = n / p;
            let block = grid[me * rows * n..(me + 1) * rows * n].to_vec();
            Self::new(me, p, n, h, iters, Some(block))
        }
    }

    fn new(me: usize, p: usize, n: usize, h: usize, iters: usize, block: Option<Vec<f64>>) -> Self {
        assert!(p >= 1 && n.is_multiple_of(p), "stencil: p must divide n");
        assert!(h >= 1 && h <= n / p, "stencil: need 1 <= h <= n/p");
        Stencil1D {
            me,
            p,
            n,
            h,
            iters,
            rows: n / p,
            st: StState::Begin,
            t: 0,
            block,
            halo_top: Vec::new(),
            halo_bottom: Vec::new(),
        }
    }

    /// The rank's final row slab (data mode, after completion).
    pub fn result(&self) -> Option<&[f64]> {
        self.block.as_deref()
    }

    /// Exact Eq. 1 totals: `2` halo transfers of `h·n` words per rank
    /// and sweep (none at `p = 1` — self-halos wrap locally), and
    /// `(n/p)·n·(2h+1)²` flops per rank and sweep.
    pub fn expected_totals(p: u64, n: u64, h: u64, iters: u64, m: u64) -> OpTotals {
        let k = 2 * h + 1;
        let (msgs, words) = if p == 1 {
            (0, 0)
        } else {
            (p * iters * 2 * chunks(h * n, m), p * iters * 2 * h * n)
        };
        OpTotals {
            msgs,
            words,
            flops: p * iters * (n / p) * n * k * k,
        }
    }

    fn tag(&self, off: u64) -> Tag {
        Tag(ST_HALO + 4 * self.t as u64 + off)
    }

    /// One periodic sweep of the local slab using the received halos:
    /// stack them around the slab, wrap the columns, run the kernel.
    fn update(&mut self) {
        let (n, h, rows) = (self.n, self.h, self.rows);
        let Some(block) = &mut self.block else { return };
        let vr = rows + 2 * h;
        let mut vert = Vec::with_capacity(vr * n);
        vert.extend_from_slice(&self.halo_top);
        vert.extend_from_slice(block);
        vert.extend_from_slice(&self.halo_bottom);
        let ext = extend_periodic(&vert, vr, n, 0, h);
        box_sweep(&ext, n + 2 * h, rows, n, h, block);
    }
}

impl RankProgram for Stencil1D {
    /// Counted runs are analytically priceable; data mode must step so
    /// the halos actually carry rows.
    fn analytic(&self) -> Option<AnalyticOp> {
        let (n, h, iters) = (self.n, self.h, self.iters);
        self.block
            .is_none()
            .then_some(AnalyticOp::Stencil1D { n, h, iters })
    }

    fn next(&mut self, delivered: Option<Delivered>) -> Step {
        let mut delivered = delivered;
        let (p, n, h, rows) = (self.p, self.n, self.h, self.rows);
        let north = (self.me + p - 1) % p;
        let south = (self.me + 1) % p;
        loop {
            match self.st {
                StState::Begin => {
                    self.st = StState::IterStart;
                    return Step::CollBegin { op: "stencil" };
                }
                StState::IterStart => {
                    if self.t >= self.iters {
                        self.st = StState::End;
                        continue;
                    }
                    if p == 1 {
                        // Periodic self-halos, no traffic.
                        if let Some(block) = &self.block {
                            self.halo_top = block[(rows - h) * n..].to_vec();
                            self.halo_bottom = block[..h * n].to_vec();
                        }
                        self.st = StState::Update;
                    } else {
                        self.st = StState::SendTop;
                    }
                }
                StState::SendTop => {
                    let payload = match &self.block {
                        Some(block) => Payload::Data(Arc::new(block[..h * n].to_vec())),
                        None => Payload::Counted(h * n),
                    };
                    self.st = StState::SendBottom;
                    return Step::Send {
                        dest: north,
                        tag: self.tag(0),
                        payload,
                    };
                }
                StState::SendBottom => {
                    let payload = match &self.block {
                        Some(block) => Payload::Data(Arc::new(block[(rows - h) * n..].to_vec())),
                        None => Payload::Counted(h * n),
                    };
                    self.st = StState::RecvBottom;
                    return Step::Send {
                        dest: south,
                        tag: self.tag(1),
                        payload,
                    };
                }
                StState::RecvBottom => {
                    // South's top rows are my bottom halo.
                    self.st = StState::RecvTop;
                    return Step::Recv {
                        src: south,
                        tag: self.tag(0),
                    };
                }
                StState::RecvTop => {
                    if let Some(d) = delivered.take() {
                        self.halo_bottom = d.values().to_vec();
                    }
                    // North's bottom rows are my top halo.
                    self.st = StState::Update;
                    return Step::Recv {
                        src: north,
                        tag: self.tag(1),
                    };
                }
                StState::Update => {
                    if let Some(d) = delivered.take() {
                        self.halo_top = d.values().to_vec();
                    }
                    self.update();
                    self.t += 1;
                    self.st = StState::IterStart;
                    return Step::Compute {
                        flops: sweep_flops(rows, n, h),
                    };
                }
                StState::End => {
                    self.st = StState::Done;
                    return Step::CollEnd { op: "stencil" };
                }
                StState::Done => return Step::Done,
            }
        }
    }
}
