//! Bulk-synchronous programs: one description, several interpreters.
//!
//! A [`Phases`] description says, per phase, each rank's sends and
//! receives (peer and tag) and its computes, optionally grouped into
//! named sections nested inside the program's own collective. One
//! stepper, [`Phased`], turns a description into a [`RankProgram`] for
//! any executor — a [`crate::Rank`] through
//! [`crate::Rank::run_program`], or [`crate::EventMachine`]'s scheduler
//! — and its closed-form pricer reads the same description. With
//! data, a [`Hook`] supplies each payload, absorbs each delivery and does
//! each compute's real work.
//!
//! The collectives of [`crate::collectives`] and the algorithm programs
//! of [`crate::programs`] are all such descriptions.

use crate::error::SimResult;
use crate::program::{AnalyticOp, Delivered, Payload, RankProgram, Step};
use crate::Tag;
use std::convert::Infallible;

/// A bulk-synchronous program, written once and read by every
/// interpreter: [`Phased`] steps it for one rank, and
/// [`crate::EventMachine::run`] prices a counted run of it in closed
/// form. In each phase every rank
/// makes its sends, in order, then its receives, then its computes; a
/// transfer is received in the phase it is sent. Items are asked for by
/// index — position `r`'s `i`-th send of `phase` — and `None` ends the
/// list, so no interpreter holds one.
///
/// Ranks are named by *position*: `0..len` over the program's members,
/// mapped to machine ranks by [`Phases::rank`] (the identity for a
/// program over the whole machine, which is what the closed form
/// prices). The pricer asks `p` times per phase from another crate, so
/// an implementation marks its item methods `#[inline]`.
pub trait Phases: Copy {
    /// What a rank holds in data mode; [`Infallible`] for a program
    /// that only runs counted.
    type Data: Hook<Self>;
    /// Collective name of the trace markers around the whole program.
    fn op(&self) -> &'static str;
    /// Collectives nested inside [`Phases::op`], in order: section `s`
    /// runs from phase [`Phases::section_start`]`(s)` up to the next
    /// section's start, the last one to the end. Each is bracketed by
    /// its own markers, an empty one too.
    #[inline]
    fn sections(&self) -> &'static [&'static str] {
        &[]
    }
    /// The first phase of section `s`: never below the one before it,
    /// never past [`Phases::count`].
    #[inline]
    fn section_start(&self, _s: usize) -> usize {
        0
    }
    /// Number of phases.
    fn count(&self) -> usize;
    /// Only positions that are multiples of `stride(phase)` have items
    /// in `phase`; the stepper skips it for the others without asking.
    #[inline]
    fn stride(&self, _phase: usize) -> usize {
        1
    }
    /// The machine rank at position `at`.
    #[inline]
    fn rank(&self, at: usize) -> usize {
        at
    }
    /// Words of every counted transfer of `phase`; a program that only
    /// runs with data, whose hook supplies every payload, keeps the
    /// default.
    #[inline]
    fn words(&self, _phase: usize) -> usize {
        0
    }
    /// Position `r`'s `i`-th send of `phase` (`send`), or its `i`-th
    /// receive, as `(peer, tag)`.
    fn transfer(&self, phase: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)>;
    /// The flops of position `r`'s `i`-th compute of `phase`; none by
    /// default.
    #[inline]
    fn compute(&self, _phase: usize, _r: usize, _i: usize) -> Option<u64> {
        None
    }
    /// What a counted run of this program claims (see [`AnalyticOp`]);
    /// nothing by default.
    #[inline]
    fn claim(self) -> Option<AnalyticOp> {
        None
    }
}

/// One item of a phase, as a [`Hook`] is told of it: the phase, the
/// item's index in its list, and the position of the peer it goes to or
/// comes from (for a compute, the rank's own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// The phase.
    pub phase: usize,
    /// The item's index among the phase's sends, receives or computes.
    pub i: usize,
    /// The peer's position.
    pub peer: usize,
}

/// The real work of a data-mode rank of `D`, item by item.
pub trait Hook<D> {
    /// The payload of a send.
    fn payload(&mut self, d: &D, at: Item) -> Payload;
    /// Take in what a receive delivered; an error fails the rank there
    /// ([`Step::Fail`]).
    fn absorb(&mut self, d: &D, at: Item, delivered: Delivered) -> SimResult<()>;
    /// Do a compute the description charges `flops`; return the flops
    /// really done (by default, no work beyond the charge).
    #[inline]
    fn work(&mut self, _d: &D, _at: Item, flops: u64) -> u64 {
        flops
    }
}

/// A counted-only program never has data to work on.
impl<D> Hook<D> for Infallible {
    fn payload(&mut self, _: &D, _: Item) -> Payload {
        match *self {}
    }
    fn absorb(&mut self, _: &D, _: Item, _: Delivered) -> SimResult<()> {
        match *self {}
    }
}

enum Stage {
    Begin,
    /// At the start of `phase` (at `count()`, the end): the section
    /// markers due there, then the stride test.
    Open,
    Send,
    Recv,
    Compute,
    Done,
}

/// One rank of a [`Phases`] program, as a resumable program: a
/// `CollBegin` marker, then phase by phase the rank's sends, receives
/// and computes, each section bracketed by markers of its own, then
/// `CollEnd`. A phase whose stride the rank's position is not a
/// multiple of is skipped whole. Counted, a send carries `words(phase)`
/// and a compute charges the described flops; with data, the rank's
/// [`Hook`] supplies each payload, absorbs each delivery and does each
/// compute's work.
pub struct Phased<D: Phases> {
    d: D,
    /// The rank's position.
    me: usize,
    /// Where the rank is: the phase, the stage within it, and the index
    /// of the stage's next item.
    phase: usize,
    stage: Stage,
    /// Section markers made (see [`Phased::marker_due`]).
    marks: u32,
    i: usize,
    /// `None` when counted.
    pub(crate) data: Option<D::Data>,
}

impl<D: Phases> Phased<D> {
    /// Position `me` of `d`, counted (`data` is `None`) or with data.
    pub(crate) fn new(d: D, me: usize, data: Option<D::Data>) -> Self {
        Phased {
            d,
            me,
            phase: 0,
            stage: Stage::Begin,
            marks: 0,
            i: 0,
            data,
        }
    }

    /// The phase the next section marker is due at the start of: marker
    /// `m` — `2s` begins section `s`, `2s + 1` ends it — at the start of
    /// section `⌈m/2⌉`, the end counting as the start of one past the
    /// last.
    fn marker_due(&self) -> Option<usize> {
        let (m, n) = (self.marks as usize, self.d.sections().len());
        (m < 2 * n).then(|| match m.div_ceil(2) {
            s if s < n => self.d.section_start(s),
            _ => self.d.count(),
        })
    }

    /// The next section marker, made.
    fn marker(&mut self) -> Step {
        let (m, op) = (self.marks, self.d.sections()[self.marks as usize / 2]);
        self.marks += 1;
        match m % 2 {
            0 => Step::CollBegin { op },
            _ => Step::CollEnd { op },
        }
    }
}

impl<D: Phases> RankProgram for Phased<D> {
    /// Counted runs are analytically priceable; data mode must step so
    /// the values actually move.
    fn analytic(&self) -> Option<AnalyticOp> {
        self.data.is_none().then(|| self.d.claim()).flatten()
    }

    fn next(&mut self, delivered: Option<Delivered>) -> Step {
        let (d, me) = (self.d, self.me);
        if let (Some(delivered), Some(data)) = (delivered, &mut self.data) {
            // It answers this phase's receive `i − 1`.
            let (phase, i) = (self.phase, self.i - 1);
            let (peer, _) = d
                .transfer(phase, me, i, false)
                .expect("a delivery answers a receive");
            if let Err(e) = data.absorb(&d, Item { phase, i, peer }, delivered) {
                self.stage = Stage::Done;
                return Step::Fail(e);
            }
        }
        loop {
            let (phase, i) = (self.phase, self.i);
            let step = match self.stage {
                Stage::Begin => {
                    self.stage = Stage::Open;
                    return Step::CollBegin { op: d.op() };
                }
                Stage::Open => {
                    let stop = match self.marker_due() {
                        Some(at) if at == phase => return self.marker(),
                        Some(at) => at,
                        None if phase == d.count() => {
                            self.stage = Stage::Done;
                            return Step::CollEnd { op: d.op() };
                        }
                        None => d.count(),
                    };
                    // Sit out, up to the next marker, the phases whose
                    // stride this rank is not a multiple of.
                    while self.phase < stop && me % d.stride(self.phase) != 0 {
                        self.phase += 1;
                    }
                    if self.phase < stop {
                        self.stage = Stage::Send;
                    }
                    continue;
                }
                Stage::Send => d
                    .transfer(phase, me, i, true)
                    .map(|(dest, tag)| Step::Send {
                        dest: d.rank(dest),
                        tag,
                        payload: match &mut self.data {
                            Some(data) => data.payload(
                                &d,
                                Item {
                                    phase,
                                    i,
                                    peer: dest,
                                },
                            ),
                            None => Payload::Counted(d.words(phase)),
                        },
                    }),
                Stage::Recv => d
                    .transfer(phase, me, i, false)
                    .map(|(src, tag)| Step::Recv {
                        src: d.rank(src),
                        tag,
                    }),
                Stage::Compute => d.compute(phase, me, i).map(|flops| Step::Compute {
                    flops: match &mut self.data {
                        Some(data) => data.work(&d, Item { phase, i, peer: me }, flops),
                        None => flops,
                    },
                }),
                Stage::Done => return Step::Done,
            };
            if let Some(step) = step {
                self.i += 1;
                return step;
            }
            self.i = 0;
            self.stage = match self.stage {
                Stage::Send => Stage::Recv,
                Stage::Recv => Stage::Compute,
                _ => {
                    self.phase += 1;
                    Stage::Open
                }
            };
        }
    }
}
