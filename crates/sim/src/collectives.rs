//! Collective operations over rank groups.
//!
//! All collectives operate on a [`Group`] — an ordered list of member
//! ranks shared (identically!) by every participant — and a base
//! [`Tag`]. Each collective uses tag offsets in `[0, TAG_WINDOW)` above
//! the base tag for its internal rounds, so concurrent communication
//! phases must space their base tags at least [`TAG_WINDOW`] apart, and a
//! tag must not be reused for two transfers that can be simultaneously
//! outstanding between the same pair of ranks.
//!
//! Implementations are the classic ones whose costs the paper's models
//! assume: binomial-tree broadcast/reduce (`log p` rounds), ring
//! allgather (`p − 1` rounds of `n/p` words), and pairwise all-to-all
//! (`p − 1` exchanges — the "naive" all-to-all of the FFT analysis).
//!
//! Each is written once, as a [`Phases`] description over a `Copy` view
//! of the group whose positions count from the root, and each `Rank`
//! method is one [`Rank::run_program`] of it — the large-message pair is
//! two, inside markers of its own. The binomial tree, [`Binomial`], is
//! also the event backend's allreduce
//! ([`crate::programs::BinomialAllreduce`]): the same description over
//! the whole machine, whose group is a bare rank count ([`Members`]).

use crate::error::{SimError, SimResult};
use crate::message::{SharedPayload, Tag};
use crate::phases::{Hook, Item, Phased, Phases};
use crate::program::{AnalyticOp, Delivered, Payload};
use crate::rank::Rank;
use psse_kernels::ceil_log2;
use std::ops::Range;
use std::sync::Arc;

/// Number of tag offsets a single collective may consume.
pub const TAG_WINDOW: u64 = 128;

/// An ordered set of ranks participating in a collective. All members
/// must construct an identical `Group` (same order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<usize>,
}

impl Group {
    /// Group over explicit members. Must be non-empty and duplicate-free.
    pub fn new(members: Vec<usize>) -> SimResult<Group> {
        if members.is_empty() {
            return Err(SimError::Algorithm("empty group".into()));
        }
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != members.len() {
            return Err(SimError::Algorithm("duplicate ranks in group".into()));
        }
        Ok(Group { members })
    }

    /// The world group `0..p`.
    pub fn world(p: usize) -> Group {
        Group {
            members: (0..p).collect(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members: only `Group::world(0)`, since
    /// [`Group::new`] refuses an empty member list.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in group order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Global rank of group index `i`.
    pub fn member(&self, i: usize) -> usize {
        self.members[i]
    }

    /// Group index of global rank `r`, if a member.
    pub fn index_of(&self, r: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == r)
    }

    fn my_index(&self, rank: &Rank) -> SimResult<usize> {
        self.index_of(rank.rank()).ok_or_else(|| {
            SimError::Algorithm(format!(
                "rank {} is not a member of group {:?}",
                rank.rank(),
                self.members
            ))
        })
    }

    /// The group rooted at machine rank `root`, and `rank`'s position in
    /// it; a root that is no member is refused in the name of `what`.
    fn view(&self, rank: &Rank, root: usize, what: &str) -> SimResult<(GroupView<'_>, usize)> {
        let me = self.my_index(rank)?;
        let root = self
            .index_of(root)
            .ok_or_else(|| SimError::Algorithm(format!("{what} root {root} not in group")))?;
        let view = GroupView {
            members: &self.members,
            root,
        };
        Ok((view, view.position(me)))
    }

    /// [`Group::view`] rooted at the first member, where every position
    /// is its group index (that root is always a member, so the refusal
    /// needs no name).
    fn unrooted(&self, rank: &Rank) -> SimResult<(GroupView<'_>, usize)> {
        self.view(rank, self.members[0], "")
    }
}

/// The members of a collective as its description sees them:
/// positions `0..size`, counted from the root, each a machine rank.
pub trait Members: Copy {
    /// Number of members.
    fn size(&self) -> usize;
    /// The machine rank at position `at`.
    fn rank(&self, at: usize) -> usize;
    /// Is every position its own rank, over the whole machine — the
    /// shape the closed-form pricers walk?
    #[inline]
    fn is_world(&self) -> bool {
        false
    }
}

/// A bare count `p` is the whole machine, rooted at rank 0: eight bytes
/// per rank program, however large `p`.
impl Members for usize {
    #[inline]
    fn size(&self) -> usize {
        *self
    }
    #[inline]
    fn rank(&self, at: usize) -> usize {
        at
    }
    #[inline]
    fn is_world(&self) -> bool {
        true
    }
}

/// A [`Group`] rooted at one of its members: position `v` is group index
/// `(v + root) mod g`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupView<'a> {
    members: &'a [usize],
    /// The root's group index.
    root: usize,
}

impl GroupView<'_> {
    /// The group index of position `at`.
    #[inline]
    fn index(&self, at: usize) -> usize {
        (at + self.root) % self.members.len()
    }

    /// The position of group index `i`.
    #[inline]
    fn position(&self, i: usize) -> usize {
        let g = self.members.len();
        (i + g - self.root) % g
    }

    /// The root's `k`-th peer, as a position: the `k`-th other member
    /// in group order.
    #[inline]
    fn other(&self, k: usize) -> Option<usize> {
        let index = k + (k >= self.root) as usize;
        (index < self.members.len()).then(|| self.position(index))
    }
}

impl Members for GroupView<'_> {
    #[inline]
    fn size(&self) -> usize {
        self.members.len()
    }
    #[inline]
    fn rank(&self, at: usize) -> usize {
        self.members[self.index(at)]
    }
}

/// Words `[i·len/g, (i+1)·len/g)`: chunk `i` of `len` split over `g`.
fn chunk(len: usize, g: usize, i: usize) -> Range<usize> {
    i * len / g..(i + 1) * len / g
}

/// A shared buffer as an owned `Vec`: copied only while another holder
/// (a transfer still in flight) shares it.
fn owned(data: SharedPayload) -> Vec<f64> {
    Arc::try_unwrap(data).unwrap_or_else(|shared| (*shared).clone())
}

/// Add a delivered contribution into `acc` elementwise, or refuse one
/// of another length. The arithmetic itself is free: the matching
/// `Compute` step prices the adds.
pub(crate) fn merge(acc: &mut SharedPayload, d: &Delivered) -> SimResult<()> {
    if d.words != acc.len() {
        return Err(SimError::Algorithm(format!(
            "reduce contributions disagree in length: {} vs {}",
            d.words,
            acc.len()
        )));
    }
    for (a, b) in Arc::make_mut(acc).iter_mut().zip(d.values()) {
        *a += b;
    }
    Ok(())
}

/// A delivered payload, as-is (zero-copy: the same `Arc`).
pub(crate) fn adopt(d: Delivered) -> SharedPayload {
    d.data.expect("a data-mode program is delivered data")
}

/// The root must bring what it broadcasts.
fn root_data(data: Option<Vec<f64>>) -> SimResult<Vec<f64>> {
    data.ok_or_else(|| SimError::Algorithm("broadcast root must supply data".into()))
}

/// A collective needs one block per member of its group of `g`.
fn one_per_member(what: &str, blocks: usize, g: usize) -> SimResult<()> {
    match blocks == g {
        true => Ok(()),
        false => Err(SimError::Algorithm(format!(
            "{what} needs one block per member: got {blocks}, group size {g}"
        ))),
    }
}

// ---------------------------------------------------------------------
// The binomial tree: reduce, broadcast, and the one then the other
// ---------------------------------------------------------------------

/// Which halves of the binomial tree a [`Binomial`] walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sweep {
    /// Leaves to root (`reduce_sum`).
    Reduce,
    /// Root to leaves (`broadcast`).
    Broadcast,
    /// The reduce, then the broadcast at tag offset 64, in the sections
    /// `reduce_sum` and `broadcast` of `allreduce_sum`.
    Allreduce,
}

/// The binomial tree of `reduce_sum`, `broadcast` and `allreduce_sum`
/// over the members `G`, by position — the virtual index, root at 0. A
/// reduce has a phase per level, masks ascending; a broadcast a phase
/// per level, masks descending; `⌈log₂g⌉` levels each. At the level of
/// mask `2^k` a position whose lowest set bit is the mask is a child of
/// `v − mask`; a position whose low `k + 1` bits are clear is the parent
/// of `v + mask`, if that position exists. A reduce level moves child to
/// parent at tag offset `k` and the parent merges `words` words; a
/// broadcast level moves parent to child at `k` (at `64 + k` after a
/// reduce). Every position with a part in a level is a multiple of its
/// mask — the level's stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binomial<G> {
    group: G,
    tag: Tag,
    words: usize,
    sweep: Sweep,
}

impl<G: Members> Binomial<G> {
    pub(crate) fn new(group: G, tag: Tag, words: usize, sweep: Sweep) -> Self {
        Binomial {
            group,
            tag,
            words,
            sweep,
        }
    }

    /// Levels of each tree, `⌈log₂g⌉` (derived, not stored, so the
    /// description stays small).
    #[inline]
    fn levels(&self) -> usize {
        ceil_log2(self.group.size()) as usize
    }

    /// `phase` as its level's mask, and whether it broadcasts.
    #[inline]
    fn level(&self, phase: usize) -> (usize, bool) {
        let levels = self.levels();
        match self.sweep {
            Sweep::Broadcast => (1 << (levels - 1 - phase), true),
            _ if phase < levels => (1 << phase, false),
            _ => (1 << (2 * levels - 1 - phase), true),
        }
    }
}

impl<G: Members> Phases for Binomial<G> {
    type Data = SharedPayload;
    #[inline]
    fn op(&self) -> &'static str {
        match self.sweep {
            Sweep::Reduce => "reduce_sum",
            Sweep::Broadcast => "broadcast",
            Sweep::Allreduce => "allreduce_sum",
        }
    }
    #[inline]
    fn sections(&self) -> &'static [&'static str] {
        match self.sweep {
            Sweep::Allreduce => &["reduce_sum", "broadcast"],
            _ => &[],
        }
    }
    #[inline]
    fn section_start(&self, s: usize) -> usize {
        s * self.levels()
    }
    #[inline]
    fn count(&self) -> usize {
        match self.sweep {
            Sweep::Allreduce => 2 * self.levels(),
            _ => self.levels(),
        }
    }
    #[inline]
    fn stride(&self, phase: usize) -> usize {
        self.level(phase).0
    }
    #[inline]
    fn rank(&self, at: usize) -> usize {
        self.group.rank(at)
    }
    #[inline]
    fn words(&self, _: usize) -> usize {
        self.words
    }
    /// Toward the root when a reduce sends or a broadcast receives.
    #[inline]
    fn transfer(&self, phase: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
        let (mask, broadcast) = self.level(phase);
        let k = mask.trailing_zeros() as u64;
        let after_reduce = broadcast && self.sweep == Sweep::Allreduce;
        let tag = self.tag.offset(if after_reduce { 64 + k } else { k });
        let low = r & (2 * mask - 1);
        match send != broadcast {
            _ if i > 0 => None,
            true => (low == mask).then(|| (r - mask, tag)),
            false => (low == 0 && r + mask < self.group.size()).then(|| (r + mask, tag)),
        }
    }
    #[inline]
    fn compute(&self, phase: usize, r: usize, i: usize) -> Option<u64> {
        let merges = !self.level(phase).1 && self.transfer(phase, r, i, false).is_some();
        merges.then_some(self.words as u64)
    }
    #[inline]
    fn claim(self) -> Option<AnalyticOp> {
        let priced = self.sweep == Sweep::Allreduce && self.group.is_world();
        priced.then_some(AnalyticOp::BinomialAllreduce { words: self.words })
    }
}

/// A data-mode binomial rank's running sum: a reduce level merges the
/// child's, a broadcast level adopts the parent's (zero-copy: the same
/// `Arc` fans out).
impl<G: Members> Hook<Binomial<G>> for SharedPayload {
    #[inline]
    fn payload(&mut self, _: &Binomial<G>, _: Item) -> Payload {
        Payload::Data(Arc::clone(self))
    }

    fn absorb(&mut self, d: &Binomial<G>, at: Item, got: Delivered) -> SimResult<()> {
        match d.level(at.phase) {
            (_, false) => merge(self, &got),
            (_, true) => {
                *self = adopt(got);
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rings, exchanges and linear collectives (thread ranks, with data)
// ---------------------------------------------------------------------

/// Position `r`'s ring neighbour in phase `t` of a `g`-member ring, at
/// tag offset `t`: right when it sends, left when it receives.
fn ring(g: usize, tag: Tag, t: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
    let peer = (if send { r + 1 } else { r + g - 1 }) % g;
    (i == 0).then(|| (peer, tag.offset(t as u64)))
}

/// The ring of [`Rank::allgather`].
#[derive(Clone, Copy)]
struct Allgather<'a> {
    group: GroupView<'a>,
    tag: Tag,
}

/// The blocks a member has, by origin, and the one it forwards next:
/// forwarding one is a reference-count bump.
struct Circulating {
    blocks: Vec<Option<SharedPayload>>,
    current: SharedPayload,
}

impl Phases for Allgather<'_> {
    type Data = Circulating;
    fn op(&self) -> &'static str {
        "allgather"
    }
    fn count(&self) -> usize {
        self.group.size() - 1
    }
    fn rank(&self, at: usize) -> usize {
        self.group.rank(at)
    }
    fn transfer(&self, t: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
        ring(self.group.size(), self.tag, t, r, i, send)
    }
}

impl Hook<Allgather<'_>> for Circulating {
    fn payload(&mut self, _: &Allgather<'_>, _: Item) -> Payload {
        Payload::Data(Arc::clone(&self.current))
    }

    /// What arrives from the left in phase `t` set out `t` hops before
    /// it.
    fn absorb(&mut self, d: &Allgather<'_>, at: Item, got: Delivered) -> SimResult<()> {
        let g = d.group.size();
        self.current = adopt(got);
        self.blocks[(at.peer + g - at.phase) % g] = Some(Arc::clone(&self.current));
        Ok(())
    }
}

/// The exchanges of [`Rank::alltoall`]: in phase `s − 1` member `v`
/// sends to `v + s` and receives from `v − s`.
#[derive(Clone, Copy)]
struct Alltoall<'a> {
    group: GroupView<'a>,
    tag: Tag,
}

/// The blocks a member sends, by destination, and those it has
/// received, by source (its own in its place from the start).
struct Exchanged {
    outgoing: Vec<Vec<f64>>,
    incoming: Vec<Vec<f64>>,
}

impl Phases for Alltoall<'_> {
    type Data = Exchanged;
    fn op(&self) -> &'static str {
        "alltoall"
    }
    fn count(&self) -> usize {
        self.group.size() - 1
    }
    fn rank(&self, at: usize) -> usize {
        self.group.rank(at)
    }
    fn transfer(&self, phase: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
        let (g, s) = (self.group.size(), phase + 1);
        let peer = (if send { r + s } else { r + g - s }) % g;
        (i == 0).then(|| (peer, self.tag.offset(s as u64 % TAG_WINDOW)))
    }
}

impl Hook<Alltoall<'_>> for Exchanged {
    fn payload(&mut self, _: &Alltoall<'_>, at: Item) -> Payload {
        Payload::Data(Arc::new(std::mem::take(&mut self.outgoing[at.peer])))
    }

    fn absorb(&mut self, _: &Alltoall<'_>, at: Item, got: Delivered) -> SimResult<()> {
        self.incoming[at.peer] = owned(adopt(got));
        Ok(())
    }
}

/// Linear scatter (the root sends each other member its block) or
/// gather (each other member sends the root its block), in one phase
/// under the base tag; the root's `i`-th transfer is with its `i`-th
/// peer in group order. What a member holds is its blocks — the root
/// one per member, by group index; another member its one.
#[derive(Clone, Copy)]
struct Linear<'a> {
    group: GroupView<'a>,
    tag: Tag,
    gather: bool,
}

impl Linear<'_> {
    /// Where the block sent to or received from position `at` is kept.
    fn slot(&self, at: usize) -> usize {
        if at == 0 {
            0
        } else {
            self.group.index(at)
        }
    }
}

impl Phases for Linear<'_> {
    type Data = Vec<Vec<f64>>;
    fn op(&self) -> &'static str {
        ["scatter", "gather"][self.gather as usize]
    }
    fn count(&self) -> usize {
        1
    }
    fn rank(&self, at: usize) -> usize {
        self.group.rank(at)
    }
    fn transfer(&self, _: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
        let peer = match (r == 0, send == self.gather) {
            (true, false) => self.group.other(i),
            (false, true) => (i == 0).then_some(0),
            _ => None,
        };
        peer.map(|at| (at, self.tag))
    }
}

impl Hook<Linear<'_>> for Vec<Vec<f64>> {
    fn payload(&mut self, d: &Linear<'_>, at: Item) -> Payload {
        Payload::Data(Arc::new(std::mem::take(&mut self[d.slot(at.peer)])))
    }

    fn absorb(&mut self, d: &Linear<'_>, at: Item, got: Delivered) -> SimResult<()> {
        self[d.slot(at.peer)] = owned(adopt(got));
        Ok(())
    }
}

/// The ring of [`Rank::reduce_scatter_sum`] over `len` words: chunk
/// `c` sets out from position `c + 1` and travels right, each host
/// adding its own words of it, to end at position `c` fully reduced.
#[derive(Clone, Copy)]
struct ReduceScatter<'a> {
    group: GroupView<'a>,
    tag: Tag,
    len: usize,
}

impl ReduceScatter<'_> {
    /// The words of chunk `c`.
    fn chunk(&self, c: usize) -> Range<usize> {
        chunk(self.len, self.group.size(), c)
    }

    /// The chunk position `r` receives in phase `t`.
    fn arriving(&self, t: usize, r: usize) -> usize {
        let g = self.group.size();
        (r + 2 * g - t - 2) % g
    }
}

/// A reduce-scatter member's own words, and the chunk in flight.
struct RingSum {
    data: Vec<f64>,
    flight: Option<SharedPayload>,
}

impl Phases for ReduceScatter<'_> {
    type Data = RingSum;
    fn op(&self) -> &'static str {
        "reduce_scatter_sum"
    }
    fn count(&self) -> usize {
        self.group.size() - 1
    }
    fn rank(&self, at: usize) -> usize {
        self.group.rank(at)
    }
    fn transfer(&self, t: usize, r: usize, i: usize, send: bool) -> Option<(usize, Tag)> {
        ring(self.group.size(), self.tag, t, r, i, send)
    }
    fn compute(&self, t: usize, r: usize, i: usize) -> Option<u64> {
        (i == 0).then(|| self.chunk(self.arriving(t, r)).len() as u64)
    }
}

impl Hook<ReduceScatter<'_>> for RingSum {
    fn payload(&mut self, _: &ReduceScatter<'_>, _: Item) -> Payload {
        Payload::Data(self.flight.take().expect("a chunk is in hand"))
    }

    fn absorb(&mut self, d: &ReduceScatter<'_>, at: Item, got: Delivered) -> SimResult<()> {
        let c = d.arriving(at.phase, (at.peer + 1) % d.group.size());
        let span = d.chunk(c);
        if got.words != span.len() {
            return Err(SimError::Algorithm(format!(
                "reduce-scatter contributions disagree in length: chunk {c} \
                 expected {} got {}",
                span.len(),
                got.words
            )));
        }
        let mut acc = adopt(got);
        for (a, b) in Arc::make_mut(&mut acc).iter_mut().zip(&self.data[span]) {
            *a += b;
        }
        self.flight = Some(acc);
        Ok(())
    }
}

/// The cube of [`Rank::alltoall_hypercube`]: in phase `k` every member
/// exchanges with the one across dimension `k`, forwarding the records
/// whose destination differs from its own in bit `k`.
#[derive(Clone, Copy)]
struct Hypercube<'a> {
    group: GroupView<'a>,
    tag: Tag,
}

/// The records a member holds, `(source, destination, block)`. On the
/// wire each is self-describing — `[src, dest, len, data...]` — so
/// block lengths may vary across members.
struct Records {
    me: usize,
    held: Vec<(usize, usize, Vec<f64>)>,
}

impl Phases for Hypercube<'_> {
    type Data = Records;
    fn op(&self) -> &'static str {
        "alltoall_hypercube"
    }
    fn count(&self) -> usize {
        self.group.size().trailing_zeros() as usize
    }
    fn rank(&self, at: usize) -> usize {
        self.group.rank(at)
    }
    fn transfer(&self, k: usize, r: usize, i: usize, _: bool) -> Option<(usize, Tag)> {
        (i == 0).then(|| (r ^ (1 << k), self.tag.offset(k as u64)))
    }
}

impl Hook<Hypercube<'_>> for Records {
    fn payload(&mut self, _: &Hypercube<'_>, at: Item) -> Payload {
        let (bit, me) = (1 << at.phase, self.me);
        let (keep, forward): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|(_, dest, _)| dest & bit == me & bit);
        self.held = keep;
        let wire_len: usize = forward.iter().map(|(_, _, d)| d.len() + 3).sum();
        let mut payload = Vec::with_capacity(wire_len);
        for (src, dest, data) in &forward {
            payload.extend([*src as f64, *dest as f64, data.len() as f64]);
            payload.extend_from_slice(data);
        }
        Payload::Data(Arc::new(payload))
    }

    /// Unpack a round's records, trusting no header: each must name a
    /// source and a destination in the group — one that agrees with
    /// this member in every bit routed so far — and a length that fits
    /// the payload. A corrupt header is refused by its place.
    fn absorb(&mut self, d: &Hypercube<'_>, at: Item, got: Delivered) -> SimResult<()> {
        let (g, routed) = (d.group.size(), (2 << at.phase) - 1);
        let field = |x: f64, below: usize| {
            (x >= 0.0 && x.fract() == 0.0 && x < below as f64).then_some(x as usize)
        };
        let words = got.values();
        let mut off = 0;
        while off < words.len() {
            let rest = &words[off..];
            let header = match rest {
                [s, t, n, ..] => (field(*s, g), field(*t, g), field(*n, rest.len() - 2)),
                _ => (None, None, None),
            };
            let (Some(s), Some(t), Some(n)) = header else {
                return Err(corrupt(d, at, off));
            };
            if (t ^ self.me) & routed != 0 {
                return Err(corrupt(d, at, off));
            }
            self.held.push((s, t, rest[3..3 + n].to_vec()));
            off += 3 + n;
        }
        Ok(())
    }
}

/// The refusal of the record at word `off` of what receive `at`
/// delivered.
fn corrupt(d: &Hypercube<'_>, at: Item, off: usize) -> SimError {
    SimError::Algorithm(format!(
        "hypercube all-to-all: corrupt record at word {off} of the round-{} payload \
         from rank {}",
        at.phase,
        d.group.rank(at.peer)
    ))
}

impl Rank {
    /// Run description `d` from position `me` with `data` — one
    /// [`Rank::run_program`] — and hand the data back.
    fn collective<D: Phases>(&mut self, d: D, me: usize, data: D::Data) -> SimResult<D::Data> {
        let mut program = Phased::new(d, me, Some(data));
        self.run_program(&mut program)?;
        Ok(program.data.expect("a data-mode program keeps its data"))
    }

    /// Broadcast from the group member with global rank `root`. The root
    /// passes `Some(data)`, everyone else `None`; all members return the
    /// broadcast data. Binomial tree: `⌈log₂g⌉` rounds.
    pub fn broadcast(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Option<Vec<f64>>,
    ) -> SimResult<Vec<f64>> {
        let (view, me) = group.view(self, root, "broadcast")?;
        // One shared allocation fans out through the whole tree: each
        // edge clones a reference, never the words.
        let data = match me {
            0 => Arc::new(root_data(data)?),
            _ => SharedPayload::default(),
        };
        let tree = Binomial::new(view, tag, data.len(), Sweep::Broadcast);
        self.collective(tree, me, data).map(owned)
    }

    /// Element-wise sum-reduction to the group member with global rank
    /// `root` (binomial tree, `⌈log₂g⌉` rounds). Returns `Some(sum)` on
    /// the root, `None` elsewhere. All contributions must have equal
    /// length.
    pub fn reduce_sum(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Vec<f64>,
    ) -> SimResult<Option<Vec<f64>>> {
        let (view, me) = group.view(self, root, "reduce")?;
        let tree = Binomial::new(view, tag, data.len(), Sweep::Reduce);
        let sum = self.collective(tree, me, Arc::new(data))?;
        Ok((me == 0).then(|| owned(sum)))
    }

    /// All-reduce (sum): reduce to the first group member, then
    /// broadcast. `2·⌈log₂g⌉` rounds; every member returns the sum.
    pub fn allreduce_sum(&mut self, tag: Tag, data: Vec<f64>) -> SimResult<Vec<f64>> {
        // The whole machine is a bare rank count: no member list to build.
        let tree = Binomial::new(self.size(), tag, data.len(), Sweep::Allreduce);
        self.collective(tree, self.rank(), Arc::new(data))
            .map(owned)
    }

    /// [`Rank::allreduce_sum`] over an explicit group.
    pub fn allreduce_sum_group(
        &mut self,
        tag: Tag,
        group: &Group,
        data: Vec<f64>,
    ) -> SimResult<Vec<f64>> {
        let (view, me) = group.view(self, group.member(0), "reduce")?;
        let tree = Binomial::new(view, tag, data.len(), Sweep::Allreduce);
        self.collective(tree, me, Arc::new(data)).map(owned)
    }

    /// Ring allgather: every member contributes a block; all members
    /// return the concatenation of all blocks in group order. `g − 1`
    /// rounds; each rank sends every block once (total `g·(g−1)` block
    /// transfers — the bandwidth-optimal ring).
    pub fn allgather(
        &mut self,
        tag: Tag,
        group: &Group,
        block: Vec<f64>,
    ) -> SimResult<Vec<Vec<f64>>> {
        let (view, me) = group.unrooted(self)?;
        let current = Arc::new(block);
        let mut blocks = vec![None; group.len()];
        blocks[me] = Some(Arc::clone(&current));
        let ring = Circulating { blocks, current };
        let Circulating { blocks, current } =
            self.collective(Allgather { group: view, tag }, me, ring)?;
        // Materializing the caller's Vecs is the only point a block may
        // be copied (when a forwarded reference is still in flight).
        drop(current);
        Ok(blocks
            .into_iter()
            .map(|b| owned(b.expect("ring filled")))
            .collect())
    }

    /// Pairwise all-to-all: member `i` sends `blocks[j]` to member `j`
    /// and returns the blocks received from every member (indexed by
    /// group position). `g − 1` exchange rounds — the "naive" all-to-all
    /// whose costs (`W = data`, `S = p`) the paper's FFT analysis quotes.
    pub fn alltoall(
        &mut self,
        tag: Tag,
        group: &Group,
        mut blocks: Vec<Vec<f64>>,
    ) -> SimResult<Vec<Vec<f64>>> {
        one_per_member("alltoall", blocks.len(), group.len())?;
        let (view, me) = group.unrooted(self)?;
        let mut incoming = vec![Vec::new(); group.len()];
        incoming[me] = std::mem::take(&mut blocks[me]);
        let exchange = Exchanged {
            outgoing: blocks,
            incoming,
        };
        let done = self.collective(Alltoall { group: view, tag }, me, exchange)?;
        Ok(done.incoming)
    }

    /// Linear scatter from `root`: the root supplies one block per
    /// member (in group order) and each member returns its block. The
    /// standard large-message building block (root sends each block
    /// exactly once — no tree amplification).
    pub fn scatter(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        blocks: Option<Vec<Vec<f64>>>,
    ) -> SimResult<Vec<f64>> {
        let (view, me) = group.view(self, root, "scatter")?;
        let blocks = match me {
            0 => {
                let blocks = blocks
                    .ok_or_else(|| SimError::Algorithm("scatter root must supply blocks".into()))?;
                one_per_member("scatter", blocks.len(), group.len())?;
                blocks
            }
            _ => vec![Vec::new()],
        };
        let linear = Linear {
            group: view,
            tag,
            gather: false,
        };
        let mut blocks = self.collective(linear, me, blocks)?;
        let mine = if me == 0 { view.root } else { 0 };
        Ok(std::mem::take(&mut blocks[mine]))
    }

    /// Linear gather to `root`: every member contributes a block; the
    /// root returns all blocks in group order, others `None`.
    pub fn gather(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        block: Vec<f64>,
    ) -> SimResult<Option<Vec<Vec<f64>>>> {
        let (view, me) = group.view(self, root, "gather")?;
        let blocks = match me {
            0 => {
                let mut blocks = vec![Vec::new(); group.len()];
                blocks[view.root] = block;
                blocks
            }
            _ => vec![block],
        };
        let linear = Linear {
            group: view,
            tag,
            gather: true,
        };
        let blocks = self.collective(linear, me, blocks)?;
        Ok((me == 0).then_some(blocks))
    }

    /// Ring reduce-scatter (sum): every member contributes an equal-length
    /// vector; member `i` returns the `i`-th chunk of the element-wise
    /// sum. Bandwidth-optimal: `g − 1` rounds, each moving `≈ len/g`
    /// words per rank (`(g−1)/g · len` total per rank).
    pub fn reduce_scatter_sum(
        &mut self,
        tag: Tag,
        group: &Group,
        data: Vec<f64>,
    ) -> SimResult<Vec<f64>> {
        let (view, me) = group.unrooted(self)?;
        let ring = ReduceScatter {
            group: view,
            tag,
            len: data.len(),
        };
        // Position `me` starts chunk `me − 1` on its way.
        let start = ring.chunk((me + group.len() - 1) % group.len());
        let flight = Some(Arc::new(data[start].to_vec()));
        let sum = self.collective(ring, me, RingSum { data, flight })?;
        Ok(owned(
            sum.flight.expect("the last chunk in is this member's"),
        ))
    }

    /// Large-message broadcast (van de Geijn scatter + allgather): the
    /// root sends each word once and every rank relays `≈ (g−1)/g` of
    /// the payload — total `≈ 2·len` words moved versus the binomial
    /// tree's `len·log g` from the root. Prefer this over
    /// [`Rank::broadcast`] when `len ≫ g·αt/βt`.
    pub fn broadcast_large(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Option<Vec<f64>>,
    ) -> SimResult<Vec<f64>> {
        self.with_collective("broadcast_large", |rk| {
            let g = group.len();
            if g as u64 >= TAG_WINDOW {
                return Err(SimError::Algorithm(format!(
                    "broadcast_large supports groups below {TAG_WINDOW} members, got {g}"
                )));
            }
            if g == 1 {
                return root_data(data);
            }
            let (_, me) = group.view(rk, root, "broadcast")?;
            // Scatter segment lengths must be agreed by all ranks: ship
            // the total length in the segment payloads' first word.
            let blocks = match me {
                0 => {
                    let data = root_data(data)?;
                    let len = data.len();
                    let segment = |i| [&[len as f64], &data[chunk(len, g, i)]].concat();
                    Some((0..g).map(segment).collect())
                }
                _ => None,
            };
            let my_seg = rk.scatter(tag, group, root, blocks)?;
            let segments = rk.allgather(tag.offset(1), group, my_seg)?;
            Ok(segments.iter().flat_map(|seg| &seg[1..]).copied().collect())
        })
    }

    /// Large-message sum-reduction to `root` (reduce-scatter + gather):
    /// every rank moves `≈ 2·(g−1)/g · len` words versus the binomial
    /// tree's `len·log g` on internal nodes.
    pub fn reduce_sum_large(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Vec<f64>,
    ) -> SimResult<Option<Vec<f64>>> {
        self.with_collective("reduce_sum_large", |rk| {
            let g = group.len();
            if g > 64 {
                return Err(SimError::Algorithm(format!(
                    "reduce_sum_large supports groups of at most 64 members \
                     (tag-window layout), got {g}"
                )));
            }
            if g == 1 {
                return Ok(Some(data));
            }
            group.view(rk, root, "reduce")?;
            let chunk = rk.reduce_scatter_sum(tag, group, data)?;
            let gathered = rk.gather(tag.offset(64), group, root, chunk)?;
            Ok(gathered.map(|chunks| chunks.concat()))
        })
    }

    /// Hypercube (store-and-forward) all-to-all: `log₂g` rounds, each
    /// exchanging half of the data with a cube neighbour — the
    /// "tree-based all-to-all" of the paper's FFT analysis
    /// (`W = (data/2)·log p`, `S = log p` per rank). Requires a
    /// power-of-two group and equal-length blocks.
    pub fn alltoall_hypercube(
        &mut self,
        tag: Tag,
        group: &Group,
        blocks: Vec<Vec<f64>>,
    ) -> SimResult<Vec<Vec<f64>>> {
        let g = group.len();
        if !g.is_power_of_two() {
            return Err(SimError::Algorithm(format!(
                "hypercube all-to-all needs a power-of-two group, got {g}"
            )));
        }
        one_per_member("alltoall", blocks.len(), g)?;
        let (view, me) = group.unrooted(self)?;
        let held = blocks.into_iter().enumerate().map(|(d, b)| (me, d, b));
        let records = Records {
            me,
            held: held.collect(),
        };
        let cube = Hypercube { group: view, tag };
        let records = self.collective(cube, me, records)?;
        // Every record is now addressed to me (each round checked its
        // routed bits); order by source.
        let mut out: Vec<Option<Vec<f64>>> = vec![None; g];
        for (src, _, data) in records.held {
            out[src] = Some(data);
        }
        out.into_iter()
            .enumerate()
            .map(|(src, b)| {
                b.ok_or_else(|| {
                    SimError::Algorithm(format!("hypercube all-to-all missing block from {src}"))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, SimConfig};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    /// The message of the `SimError::Algorithm` a `p`-rank run of `body`
    /// fails with.
    fn refusal<T: Send>(p: usize, body: impl Fn(&mut Rank) -> SimResult<T> + Sync) -> String {
        match Machine::run(p, cfg(), body) {
            Err(SimError::Algorithm(msg)) => msg,
            other => panic!("expected an algorithm refusal, got {:?}", other.err()),
        }
    }

    #[test]
    fn group_construction() {
        assert!(Group::new(vec![]).is_err());
        assert!(Group::new(vec![1, 2, 1]).is_err());
        let g = Group::new(vec![3, 1, 4]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.index_of(4), Some(2));
        assert_eq!(g.index_of(9), None);
        assert_eq!(g.member(0), 3);
        assert_eq!(Group::world(4).members(), &[0, 1, 2, 3]);
        assert!(!g.is_empty());
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in 0..p {
                let out = Machine::run(p, cfg(), |rank| {
                    let group = Group::world(rank.size());
                    let data = if rank.rank() == root {
                        Some(vec![root as f64, 99.0])
                    } else {
                        None
                    };
                    rank.broadcast(Tag(0), &group, root, data)
                })
                .unwrap();
                for v in out.results {
                    assert_eq!(v, vec![root as f64, 99.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn broadcast_critical_path_is_logarithmic() {
        // With pure latency costs, binomial broadcast takes ⌈log₂p⌉·α.
        let cfg = SimConfig {
            gamma_t: 0.0,
            beta_t: 0.0,
            alpha_t: 1.0,
            ..SimConfig::default()
        };
        for p in [2usize, 4, 8, 16] {
            let out = Machine::run(p, cfg.clone(), |rank| {
                let group = Group::world(rank.size());
                let data = if rank.rank() == 0 {
                    Some(vec![1.0])
                } else {
                    None
                };
                rank.broadcast(Tag(0), &group, 0, data)?;
                Ok(())
            })
            .unwrap();
            let expected = (p as f64).log2().ceil();
            assert!(
                (out.profile.makespan - expected).abs() < 1e-9,
                "p={p}: makespan {} vs expected {expected}",
                out.profile.makespan
            );
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1usize, 2, 6, 9] {
            let out = Machine::run(p, cfg(), |rank| {
                let group = Group::world(rank.size());
                let data = vec![rank.rank() as f64, 1.0];
                rank.reduce_sum(Tag(0), &group, 0, data)
            })
            .unwrap();
            let total: f64 = (0..p).map(|r| r as f64).sum();
            assert_eq!(out.results[0], Some(vec![total, p as f64]));
            for r in 1..p {
                assert_eq!(out.results[r], None);
            }
        }
    }

    #[test]
    fn reduce_rejects_length_mismatch() {
        let r = Machine::run(2, cfg(), |rank| {
            let group = Group::world(rank.size());
            let data = vec![0.0; 1 + rank.rank()];
            rank.reduce_sum(Tag(0), &group, 0, data)
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))));
        let msg = refusal(2, |rank| {
            rank.reduce_sum(Tag(0), &Group::world(2), 0, vec![0.0; 1 + rank.rank()])
        });
        assert_eq!(msg, "reduce contributions disagree in length: 2 vs 1");
    }

    #[test]
    fn allreduce_gives_everyone_the_sum() {
        let out = Machine::run(7, cfg(), |rank| {
            rank.allreduce_sum(Tag(0), vec![rank.rank() as f64])
        })
        .unwrap();
        for v in out.results {
            assert_eq!(v, vec![21.0]);
        }
    }

    /// The world allreduce walks the tree over a bare rank count; it is
    /// the group allreduce over the world group, down to the trace and
    /// the fault counters.
    #[test]
    fn world_allreduce_is_the_world_group_allreduce() {
        let faulted = SimConfig {
            record_trace: true,
            max_message_words: 3,
            faults: Some(psse_faults::FaultPlan {
                spec: psse_faults::FaultSpec {
                    seed: 3,
                    drop_rate: 0.2,
                    duplicate_rate: 0.1,
                    ..Default::default()
                },
                recovery: psse_faults::RecoveryPolicy {
                    max_retries: 32,
                    ..Default::default()
                },
            }),
            ..cfg()
        };
        for p in [1usize, 2, 3, 5, 8, 13] {
            let run = |world: bool| {
                Machine::run(p, faulted.clone(), move |rank| {
                    let data = vec![rank.rank() as f64 * 0.5; 7];
                    match world {
                        true => rank.allreduce_sum(Tag(4), data),
                        false => rank.allreduce_sum_group(Tag(4), &Group::world(p), data),
                    }
                })
                .unwrap()
            };
            let (world, group) = (run(true), run(false));
            assert_eq!(world.profile, group.profile, "p={p}");
            assert_eq!(world.results, group.results, "p={p}");
        }
    }

    #[test]
    fn allgather_orders_blocks_by_group_index() {
        let out = Machine::run(5, cfg(), |rank| {
            let group = Group::world(rank.size());
            let block = vec![rank.rank() as f64; rank.rank() + 1]; // ragged
            rank.allgather(Tag(0), &group, block)
        })
        .unwrap();
        for blocks in out.results {
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(b.len(), i + 1);
                assert!(b.iter().all(|&x| x == i as f64));
            }
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        let p = 6;
        let out = Machine::run(p, cfg(), |rank| {
            let group = Group::world(rank.size());
            let me = rank.rank();
            // Block for j encodes (me, j).
            let blocks: Vec<Vec<f64>> = (0..p).map(|j| vec![(me * 100 + j) as f64]).collect();
            rank.alltoall(Tag(0), &group, blocks)
        })
        .unwrap();
        for (me, received) in out.results.iter().enumerate() {
            for (j, b) in received.iter().enumerate() {
                assert_eq!(b, &vec![(j * 100 + me) as f64], "rank {me} from {j}");
            }
        }
    }

    #[test]
    fn alltoall_wrong_block_count_rejected() {
        let r = Machine::run(3, cfg(), |rank| {
            let group = Group::world(rank.size());
            rank.alltoall(Tag(0), &group, vec![vec![]; 2])
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))));
        // The scatter root's blocks, one per member too.
        let msg = refusal(3, |rank| {
            let blocks = (rank.rank() == 1).then(|| vec![vec![1.0]; 4]);
            rank.scatter(Tag(0), &Group::world(3), 1, blocks)
        });
        assert_eq!(
            msg,
            "scatter needs one block per member: got 4, group size 3"
        );
    }

    #[test]
    fn subgroup_collectives_are_independent() {
        // Two disjoint groups run allreduce concurrently with the same
        // base tag — no cross-talk because sources differ.
        let out = Machine::run(6, cfg(), |rank| {
            let me = rank.rank();
            let group = if me < 3 {
                Group::new(vec![0, 1, 2]).unwrap()
            } else {
                Group::new(vec![3, 4, 5]).unwrap()
            };
            rank.allreduce_sum_group(Tag(0), &group, vec![me as f64])
        })
        .unwrap();
        for me in 0..6 {
            let expect = if me < 3 { 3.0 } else { 12.0 };
            assert_eq!(out.results[me], vec![expect], "rank {me}");
        }
    }

    #[test]
    fn non_member_rank_is_rejected() {
        let r = Machine::run(2, cfg(), |rank| {
            let group = Group::new(vec![0]).unwrap();
            if rank.rank() == 1 {
                rank.allreduce_sum_group(Tag(0), &group, vec![1.0])
            } else {
                Ok(Vec::new())
            }
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))));
        // Nor may a root be anything but a member: each rooted
        // collective refuses rank 9 on every member.
        let group = Group::world(2);
        let data = || Some(vec![1.0; 4]);
        type Body<'a> = &'a (dyn Fn(&mut Rank) -> SimResult<()> + Sync);
        let rooted: [(&str, Body); 6] = [
            ("broadcast root 9 not in group", &|rank| {
                rank.broadcast(Tag(0), &group, 9, data()).map(drop)
            }),
            ("reduce root 9 not in group", &|rank| {
                rank.reduce_sum(Tag(0), &group, 9, vec![1.0]).map(drop)
            }),
            ("scatter root 9 not in group", &|rank| {
                rank.scatter(Tag(0), &group, 9, Some(vec![vec![1.0]; 2]))
                    .map(drop)
            }),
            ("gather root 9 not in group", &|rank| {
                rank.gather(Tag(0), &group, 9, vec![1.0]).map(drop)
            }),
            ("broadcast root 9 not in group", &|rank| {
                rank.broadcast_large(Tag(0), &group, 9, data()).map(drop)
            }),
            ("reduce root 9 not in group", &|rank| {
                rank.reduce_sum_large(Tag(0), &group, 9, vec![1.0; 4])
                    .map(drop)
            }),
        ];
        for (expect, body) in rooted {
            assert_eq!(refusal(2, body), expect);
        }
    }

    #[test]
    fn roots_must_supply_their_data() {
        // The root passes `None`; the others wait on it in vain, and the
        // root's refusal is the run's error.
        for g in [1usize, 3] {
            let group = Group::world(g);
            let msg = refusal(g, |rank| rank.broadcast(Tag(0), &group, g - 1, None));
            assert_eq!(msg, "broadcast root must supply data", "g={g}");
            let msg = refusal(g, |rank| rank.scatter(Tag(0), &group, g - 1, None));
            assert_eq!(msg, "scatter root must supply blocks", "g={g}");
            let msg = refusal(g, |rank| rank.broadcast_large(Tag(0), &group, g - 1, None));
            assert_eq!(msg, "broadcast root must supply data", "g={g}");
        }
    }

    #[test]
    fn scatter_distributes_blocks() {
        for p in [1usize, 2, 5, 8] {
            for root in [0, p - 1] {
                let out = Machine::run(p, cfg(), move |rank| {
                    let group = Group::world(rank.size());
                    let blocks = if rank.rank() == root {
                        Some((0..p).map(|i| vec![i as f64; i + 1]).collect())
                    } else {
                        None
                    };
                    rank.scatter(Tag(0), &group, root, blocks)
                })
                .unwrap();
                for (i, b) in out.results.iter().enumerate() {
                    assert_eq!(b, &vec![i as f64; i + 1], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn gather_collects_blocks_in_order() {
        let out = Machine::run(5, cfg(), |rank| {
            let group = Group::world(rank.size());
            rank.gather(Tag(0), &group, 2, vec![rank.rank() as f64])
        })
        .unwrap();
        for (i, r) in out.results.iter().enumerate() {
            if i == 2 {
                let blocks = r.as_ref().unwrap();
                for (j, b) in blocks.iter().enumerate() {
                    assert_eq!(b, &vec![j as f64]);
                }
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn reduce_scatter_sums_chunks() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let len = 24; // divisible by all tested p
            let out = Machine::run(p, cfg(), move |rank| {
                let group = Group::world(rank.size());
                // Contribution of rank r: value r+1 everywhere.
                let data = vec![(rank.rank() + 1) as f64; len];
                rank.reduce_scatter_sum(Tag(0), &group, data)
            })
            .unwrap();
            let total: f64 = (1..=p).map(|r| r as f64).sum();
            let mut covered = 0;
            for (i, chunk) in out.results.iter().enumerate() {
                // Near-equal chunks: [i·len/p, (i+1)·len/p).
                let expect_len = (i + 1) * len / p - i * len / p;
                assert_eq!(chunk.len(), expect_len, "p={p} rank={i}");
                covered += chunk.len();
                assert!(
                    chunk.iter().all(|&x| x == total),
                    "p={p} rank={i}: {chunk:?}"
                );
            }
            assert_eq!(covered, len, "chunks must tile the vector");
        }
    }

    #[test]
    fn reduce_scatter_moves_fewer_words_than_binomial_reduce() {
        let p = 8;
        let len = 1 << 12;
        let ring = Machine::run(p, SimConfig::counters_only(), move |rank| {
            let group = Group::world(rank.size());
            rank.reduce_scatter_sum(Tag(0), &group, vec![1.0; len])?;
            Ok(())
        })
        .unwrap()
        .profile;
        let binomial = Machine::run(p, SimConfig::counters_only(), move |rank| {
            let group = Group::world(rank.size());
            rank.reduce_sum(Tag(0), &group, 0, vec![1.0; len])?;
            Ok(())
        })
        .unwrap()
        .profile;
        // Ring: every rank sends (p−1)/p·len < len; binomial senders
        // ship the full vector. And binomial internal nodes *receive*
        // up to log p full vectors, versus (p−1)/p·len on the ring.
        assert!(ring.max_words_sent() < binomial.max_words_sent());
        let ring_recv = ring.per_rank().iter().map(|s| s.words_recvd).max().unwrap();
        let bin_recv = binomial
            .per_rank()
            .iter()
            .map(|s| s.words_recvd)
            .max()
            .unwrap();
        assert!(
            ring_recv < bin_recv,
            "ring {ring_recv} vs binomial {bin_recv}"
        );
    }

    #[test]
    fn broadcast_large_matches_binomial_result() {
        for p in [1usize, 2, 3, 6, 8] {
            let out = Machine::run(p, cfg(), move |rank| {
                let group = Group::world(rank.size());
                let data = if rank.rank() == 0 {
                    Some((0..37).map(|i| i as f64).collect())
                } else {
                    None
                };
                rank.broadcast_large(Tag(0), &group, 0, data)
            })
            .unwrap();
            let expect: Vec<f64> = (0..37).map(|i| i as f64).collect();
            for r in out.results {
                assert_eq!(r, expect, "p={p}");
            }
        }
    }

    #[test]
    fn broadcast_large_root_sends_less_than_binomial() {
        let p = 8;
        let len = 1 << 14;
        let run = |large: bool| {
            Machine::run(p, SimConfig::counters_only(), move |rank| {
                let group = Group::world(rank.size());
                let data = if rank.rank() == 0 {
                    Some(vec![1.0; len])
                } else {
                    None
                };
                if large {
                    rank.broadcast_large(Tag(0), &group, 0, data)?;
                } else {
                    rank.broadcast(Tag(0), &group, 0, data)?;
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let large = run(true);
        let binomial = run(false);
        // Binomial root sends log2(8) = 3 full copies; scatter+allgather
        // root sends ~2 copies' worth.
        let root_large = large.per_rank()[0].words_sent;
        let root_binomial = binomial.per_rank()[0].words_sent;
        assert!(
            root_large < root_binomial,
            "large {root_large} vs binomial {root_binomial}"
        );
    }

    #[test]
    fn reduce_sum_large_matches_binomial() {
        for p in [1usize, 2, 4, 6] {
            let len = 24;
            let out = Machine::run(p, cfg(), move |rank| {
                let group = Group::world(rank.size());
                let data = vec![(rank.rank() + 1) as f64; len];
                rank.reduce_sum_large(Tag(0), &group, 0, data)
            })
            .unwrap();
            let total: f64 = (1..=p).map(|r| r as f64).sum();
            assert_eq!(out.results[0], Some(vec![total; len]), "p={p}");
            for r in &out.results[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn oversized_groups_rejected_by_large_collectives() {
        // The caps are checked before anything else, so one rank whose
        // group names more ranks than the machine has meets them.
        let wide = |g: usize| Group::new((0..g).collect()).unwrap();
        let msg = refusal(1, |rank| {
            rank.broadcast_large(Tag(0), &wide(128), 0, Some(vec![1.0]))
        });
        assert_eq!(
            msg,
            "broadcast_large supports groups below 128 members, got 128"
        );
        let msg = refusal(1, |rank| {
            rank.reduce_sum_large(Tag(0), &wide(65), 0, vec![1.0])
        });
        assert_eq!(
            msg,
            "reduce_sum_large supports groups of at most 64 members \
             (tag-window layout), got 65"
        );
        // Just under the caps they run.
        for g in [64usize, 127] {
            let group = wide(g);
            let out = Machine::run(g, SimConfig::counters_only(), |rank| {
                let data = (rank.rank() == 0).then(|| vec![1.0; 3]);
                let got = rank.broadcast_large(Tag(0), &group, 0, data)?;
                if g <= 64 {
                    rank.reduce_sum_large(Tag(512), &group, 0, got.clone())?;
                }
                Ok(got)
            })
            .unwrap();
            assert!(out.results.iter().all(|v| v == &[1.0; 3]), "g={g}");
        }
    }

    #[test]
    fn reduce_scatter_rejects_length_mismatch() {
        let r = Machine::run(3, cfg(), |rank| {
            let group = Group::world(rank.size());
            let data = vec![1.0; 9 + rank.rank() * 3];
            rank.reduce_scatter_sum(Tag(0), &group, data)
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))));
        // Only rank 1 sees a chunk of the wrong length, so its refusal
        // is the run's.
        let msg = refusal(2, |rank| {
            let data = vec![1.0; 4 + rank.rank()];
            rank.reduce_scatter_sum(Tag(0), &Group::world(2), data)
        });
        assert_eq!(
            msg,
            "reduce-scatter contributions disagree in length: chunk 1 expected 3 got 2"
        );
    }

    #[test]
    fn hypercube_alltoall_transposes_blocks() {
        let p = 8;
        let out = Machine::run(p, cfg(), |rank| {
            let group = Group::world(rank.size());
            let me = rank.rank();
            let blocks: Vec<Vec<f64>> = (0..p).map(|j| vec![(me * 100 + j) as f64, 0.5]).collect();
            rank.alltoall_hypercube(Tag(0), &group, blocks)
        })
        .unwrap();
        for (me, received) in out.results.iter().enumerate() {
            for (j, b) in received.iter().enumerate() {
                assert_eq!(b, &vec![(j * 100 + me) as f64, 0.5], "rank {me} from {j}");
            }
        }
    }

    #[test]
    fn hypercube_alltoall_message_count_is_logarithmic() {
        // S = log₂p messages per rank (one exchange per cube dimension),
        // versus p − 1 for the pairwise algorithm.
        let p = 16;
        let run = |hyper: bool| {
            Machine::run(p, SimConfig::counters_only(), move |rank| {
                let group = Group::world(rank.size());
                let blocks: Vec<Vec<f64>> = (0..p).map(|_| vec![1.0; 8]).collect();
                if hyper {
                    rank.alltoall_hypercube(Tag(0), &group, blocks)?;
                } else {
                    rank.alltoall(Tag(0), &group, blocks)?;
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let hyper = run(true);
        let naive = run(false);
        assert_eq!(hyper.per_rank()[0].msgs_sent, 4); // log2(16)
        assert_eq!(naive.per_rank()[0].msgs_sent, 15); // p − 1
                                                       // The price: the hypercube moves more words.
        assert!(hyper.per_rank()[0].words_sent > naive.per_rank()[0].words_sent);
    }

    #[test]
    fn hypercube_rejects_bad_inputs() {
        let r = Machine::run(3, cfg(), |rank| {
            let group = Group::world(rank.size());
            rank.alltoall_hypercube(Tag(0), &group, vec![vec![]; 3])
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))), "non power of two");
        let msg = refusal(4, |rank| {
            rank.alltoall_hypercube(Tag(0), &Group::world(4), vec![vec![]; 3])
        });
        assert_eq!(
            msg,
            "alltoall needs one block per member: got 3, group size 4"
        );
    }

    #[test]
    fn hypercube_supports_ragged_blocks() {
        // Records are self-describing, so block lengths may vary.
        let p = 4;
        let out = Machine::run(p, cfg(), |rank| {
            let group = Group::world(rank.size());
            let me = rank.rank();
            let blocks: Vec<Vec<f64>> = (0..p).map(|j| vec![me as f64; j + 1]).collect();
            rank.alltoall_hypercube(Tag(0), &group, blocks)
        })
        .unwrap();
        for (me, received) in out.results.iter().enumerate() {
            for (j, b) in received.iter().enumerate() {
                assert_eq!(b, &vec![j as f64; me + 1], "rank {me} from {j}");
            }
        }
    }

    #[test]
    fn hypercube_single_rank_is_identity() {
        let out = Machine::run(1, cfg(), |rank| {
            let group = Group::world(1);
            rank.alltoall_hypercube(Tag(0), &group, vec![vec![3.0]])
        })
        .unwrap();
        assert_eq!(out.results[0], vec![vec![3.0]]);
    }

    #[test]
    fn reduction_charges_flops() {
        let out = Machine::run(4, cfg(), |rank| {
            let group = Group::world(rank.size());
            rank.reduce_sum(Tag(0), &group, 0, vec![1.0; 100])?;
            Ok(())
        })
        .unwrap();
        // 3 pairwise merges of 100 elements happen somewhere in the tree.
        assert_eq!(out.profile.total_flops(), 300);
    }
}
