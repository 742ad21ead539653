//! Built-in rank programs: the paper's real algorithms in resumable
//! form, with closed-form Eq. 1 count helpers for exact verification.
//!
//! Every program is written once, as a [`Phases`] description, and run
//! as a [`Phased`] rank — the only
//! [`RankProgram`](crate::program::RankProgram) here — on either
//! executor. [`crate::EventMachine::run`] prices a counted run in
//! closed form: the
//! stencil, the 2.5D skeleton and the sort from the same description
//! the stepper reads, the allreduces by rank-major walks of the same
//! trees and rounds.
//!
//! The programs: [`BinomialAllreduce`] is the tree of
//! [`crate::Rank::allreduce_sum`] itself ([`Binomial`] over the whole
//! machine: reduce to rank 0, broadcast back, each nested in its own
//! collective markers), so on the thread machine it is bit-identical to
//! the native collective — that test is the anchor of the event
//! backend's fidelity; [`RecursiveDoublingAllreduce`] and
//! [`RingAllreduce`], the classic alternatives with different S/W
//! trade-offs; [`Matmul25D`], the communication skeleton of the paper's
//! 2.5D matrix multiply (replication, Cannon-style shifts, layer
//! reduction) in counted form for `p = 10^5`–`10^6` runs;
//! [`SampleSort`], the regular-sampling distributed sort (the
//! Scquizzato–Silvestri bound family: `W = Θ(n/p)` attained, but `S =
//! Θ(p)` — the scaling-breaker); and [`Stencil1D`], the iterated
//! periodic halo-exchange stencil (surface `W = Θ(h·n)` per slab, `S =
//! 2` per sweep).
//!
//! Every program supports *counted* payloads (words priced, no buffers
//! allocated — mandatory at mega-scale) and the allreduces, the sort
//! and the stencil also run in *data* mode carrying real values (used
//! by the cross-backend identity tests, where results must match too).

pub use crate::collectives::Binomial;
pub use crate::phases::{Hook, Item, Phased, Phases};

use crate::collectives::{adopt, merge, Sweep};
use crate::error::SimResult;
use crate::meter::chunk_count;
use crate::program::{AnalyticOp, Delivered, Payload};
use crate::{SharedPayload, Tag};
use psse_kernels::ceil_log2;
use psse_kernels::sort::{sort_flops, sort_total};
use psse_kernels::stencil::{box_sweep, extend_periodic};
use std::convert::Infallible;
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

// ---------------------------------------------------------------------
// Binomial allreduce (the native collective, over the whole machine)
// ---------------------------------------------------------------------

/// [`crate::Rank::allreduce_sum`] as a resumable program: binomial-tree
/// reduce to rank 0 (`⌈log₂p⌉` levels, one `n`-flop merge per child),
/// then binomial-tree broadcast back at tag offset 64 — the one
/// [`Binomial`] description the collective itself runs.
pub type BinomialAllreduce = Phased<BinomialPhases>;

/// [`BinomialAllreduce`] as phases: the [`Binomial`] allreduce over the
/// whole machine, its group a bare rank count.
pub type BinomialPhases = Binomial<usize>;

impl BinomialAllreduce {
    /// Counted mode: price an allreduce of `words` words per rank
    /// without allocating payloads (the mega-scale form).
    pub fn counted(tag: Tag, words: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Phased::new(Binomial::new(p, tag, words, Sweep::Allreduce), me, None)
    }

    /// Data mode: really sum `data` across all ranks (every rank ends
    /// with the elementwise global sum, retrievable via
    /// [`BinomialAllreduce::result`]).
    pub fn with_data(tag: Tag, data: Vec<f64>) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| {
            let d = Binomial::new(p, tag, data.len(), Sweep::Allreduce);
            Phased::new(d, me, Some(Arc::new(data.clone())))
        }
    }

    /// The reduced values (data mode, after the run completes).
    pub fn result(&self) -> Option<&[f64]> {
        self.data.as_deref().map(Vec::as_slice)
    }

    /// Closed-form Eq. 1 totals: the reduce and broadcast trees each
    /// have `p − 1` edges carrying `n` words, and every reduce edge
    /// costs one `n`-flop merge at its head.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let edges = 2 * (p - 1);
        OpTotals {
            msgs: edges * chunk_count(n as usize, m as usize) as u64,
            words: edges * n,
            flops: (p - 1) * n,
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
/// ([`PairwiseAllreduce`]) and [`crate::EventMachine::run`]'s
/// closed-form pricing are
/// both written once against it.
pub trait PairwiseSchedule: Copy {
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
#[derive(Clone, Copy)]
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
#[derive(Clone, Copy)]
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

/// A pairwise-round allreduce as a resumable program: per round, send
/// to `S::send_peer`, receive from `S::recv_peer`, charge an `n`-flop
/// merge; round `r` travels at tag offset `r`. Use it through the
/// [`RecursiveDoublingAllreduce`] and [`RingAllreduce`] aliases.
pub type PairwiseAllreduce<S> = Phased<PairwisePhases<S>>;

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

/// [`PairwiseAllreduce`] as phases, one per round.
#[derive(Clone, Copy)]
pub struct PairwisePhases<S> {
    tag: Tag,
    p: usize,
    words: usize,
    schedule: PhantomData<S>,
}

/// A data-mode allreduce rank's running sum, and the block it forwards
/// when that is not the sum (ring: the block last received).
pub struct RunningSum {
    acc: SharedPayload,
    fwd: Option<SharedPayload>,
}

impl<S: PairwiseSchedule> PairwiseAllreduce<S> {
    /// Counted mode (see [`BinomialAllreduce::counted`]).
    pub fn counted(tag: Tag, words: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Phased::new(PairwisePhases::new(tag, p, words), me, None)
    }

    /// Data mode: every rank ends with the elementwise global sum.
    pub fn with_data(tag: Tag, data: Vec<f64>) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| {
            let acc = Arc::new(data.clone());
            let d = PairwisePhases::new(tag, p, data.len());
            Phased::new(d, me, Some(RunningSum { acc, fwd: None }))
        }
    }

    /// The reduced values (data mode, after the run completes).
    pub fn result(&self) -> Option<&[f64]> {
        self.data.as_ref().map(|sum| &sum.acc[..])
    }
}

impl RecursiveDoublingAllreduce {
    /// Closed-form totals: every rank sends `n` words in each of the
    /// `log₂p` rounds and merges once per round.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let rounds = p.trailing_zeros() as u64;
        OpTotals {
            msgs: p * rounds * chunk_count(n as usize, m as usize) as u64,
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
            msgs: p * rounds * chunk_count(n as usize, m as usize) as u64,
            words: p * rounds * n,
            flops: p * rounds * n,
        }
    }
}

impl<S: PairwiseSchedule> PairwisePhases<S> {
    fn new(tag: Tag, p: usize, words: usize) -> Self {
        S::rounds(p); // panics if the schedule does not support `p`
        PairwisePhases {
            tag,
            p,
            words,
            schedule: PhantomData,
        }
    }
}

impl<S: PairwiseSchedule> Phases for PairwisePhases<S> {
    type Data = RunningSum;
    #[inline]
    fn op(&self) -> &'static str {
        S::OP
    }
    #[inline]
    fn count(&self) -> usize {
        S::rounds(self.p)
    }
    #[inline]
    fn words(&self, _: usize) -> usize {
        self.words
    }
    #[inline]
    fn transfer(&self, round: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
        let tag = self.tag.offset(round as u64);
        (i == 0).then(|| match send {
            true => (S::send_peer(r, round, self.p), tag),
            false => (S::recv_peer(r, round, self.p), tag),
        })
    }
    #[inline]
    fn compute(&self, _: usize, _: usize, i: usize) -> Option<u64> {
        (i == 0).then_some(self.words as u64)
    }
    fn claim(self) -> Option<AnalyticOp> {
        Some(S::analytic(self.words))
    }
}

impl<S: PairwiseSchedule> Hook<PairwisePhases<S>> for RunningSum {
    fn payload(&mut self, _: &PairwisePhases<S>, _: Item) -> Payload {
        Payload::Data(Arc::clone(self.fwd.as_ref().unwrap_or(&self.acc)))
    }

    fn absorb(&mut self, _: &PairwisePhases<S>, _: Item, d: Delivered) -> SimResult<()> {
        merge(&mut self.acc, &d)?;
        if S::FORWARDS_RECEIVED {
            self.fwd = Some(adopt(d));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 2.5D matmul (counted communication skeleton)
// ---------------------------------------------------------------------

/// Tag offsets for the matmul's three phases (Tag is a flat `u64`
/// namespace; these programs own their whole tag window). Replication
/// sends A at `MM_REP`, B at `MM_REP + 1`.
const MM_REP: u64 = 0;
const MM_SHIFT: u64 = 16;
const MM_REDUCE: u64 = 1 << 40;

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
pub type Matmul25D = Phased<Matmul25DPhases>;

/// [`Matmul25D`] as phases, on rank `k·q² + i·q + j`: replication, the
/// `q/c` shift rounds, then one phase per level of the layer reduce.
/// Every round's `2b³`-flop multiply precedes its sends, so it closes
/// the phase before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Matmul25DPhases {
    q: usize,
    c: usize,
    /// Shift rounds `q/c`; the reduce starts at phase `1 + q/c`.
    rounds: usize,
    b: u64,
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
            let rounds = q / c;
            Phased::new(Matmul25DPhases { q, c, rounds, b }, me, None)
        }
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

impl Matmul25DPhases {
    /// The reduce level of `phase`, as its mask `2^level`.
    #[inline]
    fn mask(&self, phase: usize) -> usize {
        1 << (phase - 1 - self.rounds)
    }

    /// Does layer `k` merge a child's block at reduce level `mask`? Its
    /// bits up to `mask` are clear and layer `k + mask` exists.
    #[inline]
    fn merges(&self, k: usize, mask: usize) -> bool {
        k & (2 * mask - 1) == 0 && k + mask < self.c
    }
}

impl Phases for Matmul25DPhases {
    type Data = Infallible;
    #[inline]
    fn op(&self) -> &'static str {
        "matmul_25d"
    }
    #[inline]
    fn count(&self) -> usize {
        1 + self.rounds + ceil_log2(self.c) as usize
    }
    #[inline]
    fn words(&self, _: usize) -> usize {
        (self.b * self.b) as usize
    }
    /// Rank `r`'s transfer `n` of `phase`: sent, or received. Rank
    /// `(i, j, k)` is `k·q² + i·q + j`, so a peer is `r` moved along one
    /// axis.
    #[inline]
    fn transfer(&self, phase: usize, r: usize, n: usize, send: bool) -> Option<(usize, Tag)> {
        let (q, qq) = (self.q, self.q * self.q);
        if phase == 0 {
            // Layer 0 sends A then B to each layer above; each of those
            // receives the pair from layer 0.
            let k = r / qq;
            let (layer, has) = match send {
                true => (1 + n / 2, k == 0 && n < 2 * (self.c - 1)),
                false => (0, k > 0 && n < 2),
            };
            return has.then(|| (r % qq + layer * qq, Tag(MM_REP + n as u64 % 2)));
        }
        if phase <= self.rounds {
            // A goes right (along j, stride 1) and B down (along i,
            // stride q); they arrive from the left and from above.
            if n > 1 {
                return None;
            }
            let tag = Tag(MM_SHIFT + 2 * (phase - 1) as u64 + n as u64);
            let step = if send { 1 } else { q - 1 };
            let (x, stride) = if n == 0 { (r % q, 1) } else { (r / q % q, q) };
            return Some((r - x * stride + (x + step) % q * stride, tag));
        }
        // A layer sends to its parent at the level of its lowest set bit.
        let (k, mask) = (r / qq, self.mask(phase));
        let tag = Tag(MM_REDUCE + (phase - 1 - self.rounds) as u64);
        match send {
            true if n == 0 && k & mask != 0 && k & (mask - 1) == 0 => Some((r - mask * qq, tag)),
            false if n == 0 && self.merges(k, mask) => Some((r + mask * qq, tag)),
            _ => None,
        }
    }
    #[inline]
    fn compute(&self, phase: usize, r: usize, n: usize) -> Option<u64> {
        let (b, rounds, qq) = (self.b, self.rounds, self.q * self.q);
        match n {
            0 if phase < rounds => Some(2 * b * b * b),
            0 if phase > rounds && self.merges(r / qq, self.mask(phase)) => Some(b * b),
            _ => None,
        }
    }
    fn claim(self) -> Option<AnalyticOp> {
        Some(AnalyticOp::Matmul25D(self))
    }
}

// ---------------------------------------------------------------------
// Distributed sample sort (regular sampling, direct exchanges)
// ---------------------------------------------------------------------

/// Tag for the splitter-sample exchange.
const SS_SAMPLE: u64 = 1 << 20;
/// Tag for the bucket all-to-all.
const SS_EXCHANGE: u64 = 1 << 21;

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
pub type SampleSort = Phased<SampleSortPhases>;

/// [`SampleSort`] as phases: the local sort; the `p − 1`-word sample
/// all-to-all, then the splitter sort and the cuts; the `bs/p`-word
/// bucket all-to-all, then the merge of the `bs` keys received (own
/// bucket included). Peers go in rank order, skipping self.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSortPhases {
    p: usize,
    bs: usize,
}

/// A data-mode sort rank's keys.
pub struct SortKeys {
    me: usize,
    /// The local block; after the merge, the rank's sorted bucket.
    keys: Vec<f64>,
    /// What each rank sent, by source: samples, then buckets (own
    /// included).
    from: Vec<Vec<f64>>,
    /// Outgoing buckets, by destination.
    buckets: Vec<Vec<f64>>,
    /// Own samples, shared with every peer.
    samples: Option<SharedPayload>,
}

impl SampleSort {
    /// Counted-mode constructor: `bs` keys per rank, uniform buckets.
    /// Panics (per rank) unless `p | bs` and `bs ≥ p`.
    pub fn counted(bs: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| {
            assert!(bs >= p, "samplesort: need bs >= p (bs={bs}, p={p})");
            assert_eq!(bs % p, 0, "counted samplesort needs p | bs");
            Phased::new(SampleSortPhases { p, bs }, me, None)
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
            let data = SortKeys {
                me,
                keys: keys[me * bs..(me + 1) * bs].to_vec(),
                from: vec![Vec::new(); p],
                buckets: Vec::new(),
                samples: None,
            };
            Phased::new(SampleSortPhases { p, bs }, me, Some(data))
        }
    }

    /// The rank's sorted bucket (data mode, after completion); the
    /// concatenation across ranks is the globally sorted sequence.
    pub fn result(&self) -> Option<&[f64]> {
        self.data.as_ref().map(|data| &data.keys[..])
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
        let chunks = |words: u64| chunk_count(words as usize, m as usize) as u64;
        let msgs = p * s * (chunks(s) + chunks(per));
        let words = p * s * (s + per);
        let flops = p
            * (sort_flops(bs as usize)
                + sort_flops((p * s) as usize)
                + s * ceil_log2(bs as usize)
                + bs * ceil_log2(p as usize));
        OpTotals { msgs, words, flops }
    }
}

impl Phases for SampleSortPhases {
    type Data = SortKeys;
    #[inline]
    fn op(&self) -> &'static str {
        "samplesort"
    }
    #[inline]
    fn count(&self) -> usize {
        3
    }
    #[inline]
    fn words(&self, phase: usize) -> usize {
        [0, self.p - 1, self.bs / self.p][phase]
    }
    /// A rank's peers, sent to and received from alike.
    #[inline]
    fn transfer(&self, phase: usize, r: usize, i: usize, _: bool) -> Option<(usize, Tag)> {
        let tag = Tag(if phase == 1 { SS_SAMPLE } else { SS_EXCHANGE });
        (phase > 0 && i + 1 < self.p).then(|| (i + (i >= r) as usize, tag))
    }
    #[inline]
    fn compute(&self, phase: usize, _: usize, i: usize) -> Option<u64> {
        let (p, bs, s) = (self.p, self.bs, self.p - 1);
        match (phase, i) {
            (0, 0) => Some(sort_flops(bs)),
            (1, 0) => Some(sort_flops(p * s)),
            (1, 1) => Some(s as u64 * ceil_log2(bs)),
            (2, 0) => Some(bs as u64 * ceil_log2(p)),
            _ => None,
        }
    }
    fn claim(self) -> Option<AnalyticOp> {
        Some(AnalyticOp::SampleSort(self))
    }
}

impl Hook<SampleSortPhases> for SortKeys {
    fn payload(&mut self, _: &SampleSortPhases, at: Item) -> Payload {
        Payload::Data(match at.phase {
            1 => Arc::clone(self.samples.as_ref().expect("sampled in phase 0")),
            _ => Arc::new(std::mem::take(&mut self.buckets[at.peer])),
        })
    }

    fn absorb(&mut self, _: &SampleSortPhases, at: Item, d: Delivered) -> SimResult<()> {
        self.from[at.peer] = d.values().to_vec();
        Ok(())
    }

    fn work(&mut self, d: &SampleSortPhases, at: Item, flops: u64) -> u64 {
        let (p, bs, s, me) = (d.p, d.bs, d.p - 1, self.me);
        match (at.phase, at.i) {
            (0, _) => {
                sort_total(&mut self.keys);
                // Regular samples at positions (i+1)·bs/p.
                let samples: Vec<f64> = (1..p).map(|i| self.keys[i * bs / p]).collect();
                self.from[me] = samples.clone();
                self.samples = Some(Arc::new(samples));
            }
            (1, 0) => {
                // All ranks sort the identical candidate multiset (rank
                // order), so all agree on the p − 1 splitters — same rule
                // as the closure algorithm. The cuts are phase 1's
                // second compute.
                let mut cand: Vec<f64> = self.from.iter_mut().flat_map(std::mem::take).collect();
                sort_total(&mut cand);
                let mut cuts = vec![0usize];
                for j in 0..s {
                    let sp = cand[(j + 1) * s];
                    cuts.push(self.keys.partition_point(|x| x.total_cmp(&sp).is_le()));
                }
                cuts.push(bs);
                self.buckets = (0..p)
                    .map(|d| self.keys[cuts[d]..cuts[d + 1]].to_vec())
                    .collect();
                self.from[me] = self.buckets[me].clone();
            }
            (2, _) => {
                let mut bucket: Vec<f64> = self.from.iter().flatten().copied().collect();
                sort_total(&mut bucket);
                self.keys = bucket;
                return self.keys.len() as u64 * ceil_log2(p);
            }
            _ => {}
        }
        flops
    }
}

// ---------------------------------------------------------------------
// Iterated halo-exchange stencil (1-D slab decomposition)
// ---------------------------------------------------------------------

/// Tag base for halo exchanges (4 tags per sweep).
const ST_HALO: u64 = 1 << 22;

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
pub type Stencil1D = Phased<StencilPhases>;

/// [`Stencil1D`] as phases: one per sweep — the halo north, the halo
/// south (none at `p = 1`: the halos wrap locally), then the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilPhases {
    p: usize,
    /// Grid side.
    n: usize,
    /// Halo width.
    h: usize,
    iters: usize,
}

/// A data-mode stencil rank's row slab and the halos around it.
pub struct StencilSlab {
    block: Vec<f64>,
    /// By receive: the bottom halo (south's top rows), then the top
    /// (north's bottom rows).
    halos: [Vec<f64>; 2],
}

impl Stencil1D {
    /// Counted-mode constructor. Panics (per rank) unless `p | n`,
    /// `1 ≤ h ≤ n/p`.
    pub fn counted(n: usize, h: usize, iters: usize) -> impl Fn(usize, usize) -> Self + Sync {
        move |me, p| Phased::new(StencilPhases::new(p, n, h, iters), me, None)
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
            let d = StencilPhases::new(p, n, h, iters);
            let rows = n / p;
            let slab = StencilSlab {
                block: grid[me * rows * n..(me + 1) * rows * n].to_vec(),
                halos: [Vec::new(), Vec::new()],
            };
            Phased::new(d, me, Some(slab))
        }
    }

    /// The rank's final row slab (data mode, after completion).
    pub fn result(&self) -> Option<&[f64]> {
        self.data.as_ref().map(|slab| &slab.block[..])
    }

    /// Exact Eq. 1 totals: `2` halo transfers of `h·n` words per rank
    /// and sweep (none at `p = 1` — self-halos wrap locally), and
    /// `(n/p)·n·(2h+1)²` flops per rank and sweep.
    pub fn expected_totals(p: u64, n: u64, h: u64, iters: u64, m: u64) -> OpTotals {
        let k = 2 * h + 1;
        let (msgs, words) = if p == 1 {
            (0, 0)
        } else {
            (
                p * iters * 2 * chunk_count((h * n) as usize, m as usize) as u64,
                p * iters * 2 * h * n,
            )
        };
        OpTotals {
            msgs,
            words,
            flops: p * iters * (n / p) * n * k * k,
        }
    }
}

impl StencilPhases {
    fn new(p: usize, n: usize, h: usize, iters: usize) -> Self {
        assert!(p >= 1 && n.is_multiple_of(p), "stencil: p must divide n");
        assert!(h >= 1 && h <= n / p, "stencil: need 1 <= h <= n/p");
        StencilPhases { p, n, h, iters }
    }
}

impl Phases for StencilPhases {
    type Data = StencilSlab;
    #[inline]
    fn op(&self) -> &'static str {
        "stencil"
    }
    #[inline]
    fn count(&self) -> usize {
        self.iters
    }
    #[inline]
    fn words(&self, _: usize) -> usize {
        self.h * self.n
    }
    /// Rank `r`'s halo transfer `i` of sweep `phase`, sent or received:
    /// transfer 0 carries top rows north, 1 bottom rows south — so a
    /// rank first receives its bottom halo from the south.
    #[inline]
    fn transfer(&self, phase: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
        if self.p == 1 || i > 1 {
            return None;
        }
        let north = (i == 0) == send;
        let peer = (r + if north { self.p - 1 } else { 1 }) % self.p;
        Some((peer, Tag(ST_HALO + 4 * phase as u64 + i as u64)))
    }
    #[inline]
    fn compute(&self, _: usize, _: usize, i: usize) -> Option<u64> {
        // A `(2h+1)²`-point box per cell of the slab.
        let k = 2 * self.h as u64 + 1;
        (i == 0).then(|| (self.n / self.p * self.n) as u64 * k * k)
    }
    fn claim(self) -> Option<AnalyticOp> {
        Some(AnalyticOp::Stencil1D(self))
    }
}

impl Hook<StencilPhases> for StencilSlab {
    fn payload(&mut self, d: &StencilPhases, at: Item) -> Payload {
        let (b, hn) = (&self.block, d.h * d.n);
        let rows = [&b[..hn], &b[b.len() - hn..]][at.i];
        Payload::Data(Arc::new(rows.to_vec()))
    }

    fn absorb(&mut self, _: &StencilPhases, at: Item, d: Delivered) -> SimResult<()> {
        self.halos[at.i] = d.values().to_vec();
        Ok(())
    }

    /// One periodic sweep of the slab: stack the halos around it (its
    /// own rows when it is the only slab), wrap the columns, run the
    /// kernel.
    fn work(&mut self, d: &StencilPhases, _: Item, flops: u64) -> u64 {
        let (n, h, b) = (d.n, d.h, &self.block);
        let rows = b.len() / n;
        let (top, bottom) = match d.p {
            1 => (&b[(rows - h) * n..], &b[..h * n]),
            _ => (&self.halos[1][..], &self.halos[0][..]),
        };
        let ext = extend_periodic(&[top, b, bottom].concat(), rows + 2 * h, n, 0, h);
        box_sweep(&ext, n + 2 * h, rows, n, h, &mut self.block);
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{RankProgram, Step};

    /// What [`Phases`] promises its interpreters, over `p` ranks: a rank
    /// that is not a multiple of a phase's stride has no item in it, and
    /// the sections start in order, within the phases.
    fn holds<D: Phases>(what: &str, d: D, p: usize) {
        let n = d.sections().len();
        let starts: Vec<usize> = (0..n).map(|s| d.section_start(s)).collect();
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "{what}: section starts {starts:?} decrease"
        );
        assert!(
            starts.iter().all(|&s| s <= d.count()),
            "{what}: a section of {starts:?} starts past phase {}",
            d.count()
        );
        for phase in 0..d.count() {
            let stride = d.stride(phase);
            assert!(stride >= 1, "{what}: phase {phase} has stride 0");
            for r in (0..p).filter(|r| r % stride != 0) {
                // `None` at index 0 is an empty list.
                let first = (
                    d.transfer(phase, r, 0, true),
                    d.transfer(phase, r, 0, false),
                );
                assert_eq!(
                    (first, d.compute(phase, r, 0)),
                    ((None, None), None),
                    "{what}: rank {r} has items in phase {phase}, stride {stride}"
                );
            }
        }
    }

    /// Every built-in description over the degenerate shapes the step
    /// pins run.
    #[test]
    fn descriptions_keep_their_promises() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for sweep in [Sweep::Reduce, Sweep::Broadcast, Sweep::Allreduce] {
                let d = Binomial::new(p, Tag(5), 7, sweep);
                holds(&format!("binomial {} p={p}", d.op()), d, p);
            }
        }
        for p in [1usize, 2, 5] {
            holds(
                &format!("ring p={p}"),
                PairwisePhases::<Ring>::new(Tag(7), p, 7),
                p,
            );
            for (rows, h) in [(1, 1), (3, 1), (3, 3)] {
                let d = StencilPhases::new(p, p * rows, h, 2);
                holds(&format!("stencil p={p} rows={rows} h={h}"), d, p);
            }
            for bs in [p, 3 * p] {
                holds(
                    &format!("sort p={p} bs={bs}"),
                    SampleSortPhases { p, bs },
                    p,
                );
            }
        }
        for p in [1usize, 2, 8] {
            let d = PairwisePhases::<RecursiveDoubling>::new(Tag(9), p, 7);
            holds(&format!("recursive doubling p={p}"), d, p);
        }
        for q in [1usize, 2, 6] {
            for c in [1, 3, q].into_iter().filter(|c| q % c == 0) {
                let d = Matmul25DPhases {
                    q,
                    c,
                    rounds: q / c,
                    b: 2,
                };
                holds(&format!("2.5D q={q} c={c}"), d, q * q * c);
            }
        }
    }

    /// One rank has no tree, so both sections are empty: each is still
    /// bracketed by its markers, as the native collective's are.
    #[test]
    fn empty_sections_keep_their_markers() {
        let mut rank = BinomialAllreduce::counted(Tag(0), 4)(0, 1);
        let markers: Vec<(bool, &str)> = std::iter::from_fn(|| match rank.next(None) {
            Step::CollBegin { op } => Some((true, op)),
            Step::CollEnd { op } => Some((false, op)),
            Step::Done => None,
            step => panic!("one rank has nothing to do, got {step:?}"),
        })
        .collect();
        assert_eq!(
            markers,
            [
                (true, "allreduce_sum"),
                (true, "reduce_sum"),
                (false, "reduce_sum"),
                (true, "broadcast"),
                (false, "broadcast"),
                (false, "allreduce_sum"),
            ]
        );
    }
}
