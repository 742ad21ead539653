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

use crate::error::{SimError, SimResult};
use crate::message::{SharedPayload, Tag};
use crate::rank::Rank;
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

    /// Whether the group has a single member.
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
}

impl Rank {
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
        self.with_collective("broadcast", |rk| rk.broadcast_impl(tag, group, root, data))
    }

    fn broadcast_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Option<Vec<f64>>,
    ) -> SimResult<Vec<f64>> {
        let g = group.len();
        let me = group.my_index(self)?;
        let root_idx = group
            .index_of(root)
            .ok_or_else(|| SimError::Algorithm(format!("broadcast root {root} not in group")))?;
        let v = (me + g - root_idx) % g; // virtual index, root at 0
                                         // One shared allocation fans out through the whole tree: each
                                         // edge clones a reference, never the words.
        let data: SharedPayload = if v == 0 {
            Arc::new(
                data.ok_or_else(|| SimError::Algorithm("broadcast root must supply data".into()))?,
            )
        } else {
            // Receive from the parent in the binomial tree.
            let mut mask = 1usize;
            let mut round = 0u64;
            loop {
                if v & mask != 0 {
                    let parent = group.member((v - mask + root_idx) % g);
                    break self.recv_shared(parent, tag.offset(round))?;
                }
                mask <<= 1;
                round += 1;
                if mask >= g {
                    return Err(SimError::Algorithm("broadcast tree malformed".into()));
                }
            }
        };
        // Forward to children: all set bits below my lowest set bit.
        let lowest = if v == 0 {
            g.next_power_of_two()
        } else {
            v & v.wrapping_neg()
        };
        let mut mask = lowest >> 1;
        while mask > 0 {
            let child_v = v + mask;
            if child_v < g {
                let child = group.member((child_v + root_idx) % g);
                let round = mask.trailing_zeros() as u64;
                self.send_shared(child, tag.offset(round), Arc::clone(&data))?;
            }
            mask >>= 1;
        }
        // At most one copy, and only if a child transfer is still in
        // flight when we materialize the caller's Vec.
        Ok(Arc::try_unwrap(data).unwrap_or_else(|shared| (*shared).clone()))
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
        self.with_collective("reduce_sum", |rk| {
            rk.reduce_sum_impl(tag, group, root, data)
        })
    }

    fn reduce_sum_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Vec<f64>,
    ) -> SimResult<Option<Vec<f64>>> {
        let g = group.len();
        let me = group.my_index(self)?;
        let root_idx = group
            .index_of(root)
            .ok_or_else(|| SimError::Algorithm(format!("reduce root {root} not in group")))?;
        let v = (me + g - root_idx) % g;
        let len = data.len();
        let mut acc = data;
        let mut mask = 1usize;
        let mut round = 0u64;
        while mask < g {
            if v & mask != 0 {
                let parent = group.member((v - mask + root_idx) % g);
                self.send(parent, tag.offset(round), acc)?;
                return Ok(None);
            }
            let child_v = v + mask;
            if child_v < g {
                let child = group.member((child_v + root_idx) % g);
                let other = self.recv(child, tag.offset(round))?;
                if other.len() != len {
                    return Err(SimError::Algorithm(format!(
                        "reduce contributions disagree in length: {} vs {len}",
                        other.len()
                    )));
                }
                // The reduction itself is real work: one add per element.
                self.compute(len as u64);
                for (a, b) in acc.iter_mut().zip(&other) {
                    *a += b;
                }
            }
            mask <<= 1;
            round += 1;
        }
        Ok(Some(acc))
    }

    /// All-reduce (sum): reduce to the first group member, then
    /// broadcast. `2·⌈log₂g⌉` rounds; every member returns the sum.
    pub fn allreduce_sum(&mut self, tag: Tag, data: Vec<f64>) -> SimResult<Vec<f64>> {
        let group = Group::world(self.size());
        self.allreduce_sum_group(tag, &group, data)
    }

    /// [`Rank::allreduce_sum`] over an explicit group.
    pub fn allreduce_sum_group(
        &mut self,
        tag: Tag,
        group: &Group,
        data: Vec<f64>,
    ) -> SimResult<Vec<f64>> {
        self.with_collective("allreduce_sum", |rk| {
            let root = group.member(0);
            let reduced = rk.reduce_sum(tag, group, root, data)?;
            rk.broadcast(tag.offset(64), group, root, reduced)
        })
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
        self.with_collective("allgather", |rk| rk.allgather_impl(tag, group, block))
    }

    fn allgather_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        block: Vec<f64>,
    ) -> SimResult<Vec<Vec<f64>>> {
        let g = group.len();
        let me = group.my_index(self)?;
        let mut blocks: Vec<Option<SharedPayload>> = vec![None; g];
        let right = group.member((me + 1) % g);
        let left = group.member((me + g - 1) % g);
        // Each block travels the ring as one shared allocation: a rank
        // keeps a reference and forwards the same buffer, so the g − 1
        // per-hop clones become reference-count bumps.
        let mut current: SharedPayload = Arc::new(block);
        blocks[me] = Some(Arc::clone(&current));
        for step in 0..g.saturating_sub(1) {
            let incoming = self.sendrecv_shared(
                right,
                tag.offset(step as u64),
                current,
                left,
                tag.offset(step as u64),
            )?;
            let src_idx = (me + g - 1 - step) % g;
            blocks[src_idx] = Some(Arc::clone(&incoming));
            current = incoming;
        }
        drop(current);
        // Materializing the caller's Vecs is the only point a block may
        // be copied (when a forwarded reference is still in flight).
        Ok(blocks
            .into_iter()
            .map(|b| {
                let b = b.expect("ring filled");
                Arc::try_unwrap(b).unwrap_or_else(|shared| (*shared).clone())
            })
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
        blocks: Vec<Vec<f64>>,
    ) -> SimResult<Vec<Vec<f64>>> {
        self.with_collective("alltoall", |rk| rk.alltoall_impl(tag, group, blocks))
    }

    fn alltoall_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        mut blocks: Vec<Vec<f64>>,
    ) -> SimResult<Vec<Vec<f64>>> {
        let g = group.len();
        if blocks.len() != g {
            return Err(SimError::Algorithm(format!(
                "alltoall needs one block per member: got {}, group size {g}",
                blocks.len()
            )));
        }
        let me = group.my_index(self)?;
        let mut out: Vec<Option<Vec<f64>>> = vec![None; g];
        out[me] = Some(std::mem::take(&mut blocks[me]));
        for step in 1..g {
            let to_idx = (me + step) % g;
            let from_idx = (me + g - step) % g;
            let recvd = self.sendrecv(
                group.member(to_idx),
                tag.offset(step as u64 % TAG_WINDOW),
                std::mem::take(&mut blocks[to_idx]),
                group.member(from_idx),
                tag.offset(step as u64 % TAG_WINDOW),
            )?;
            out[from_idx] = Some(recvd);
        }
        Ok(out
            .into_iter()
            .map(|b| b.expect("all slots filled"))
            .collect())
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
        self.with_collective("scatter", |rk| rk.scatter_impl(tag, group, root, blocks))
    }

    fn scatter_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        blocks: Option<Vec<Vec<f64>>>,
    ) -> SimResult<Vec<f64>> {
        let g = group.len();
        let me = group.my_index(self)?;
        let root_idx = group
            .index_of(root)
            .ok_or_else(|| SimError::Algorithm(format!("scatter root {root} not in group")))?;
        if me == root_idx {
            let mut blocks = blocks
                .ok_or_else(|| SimError::Algorithm("scatter root must supply blocks".into()))?;
            if blocks.len() != g {
                return Err(SimError::Algorithm(format!(
                    "scatter needs one block per member: got {}, group size {g}",
                    blocks.len()
                )));
            }
            for i in 0..g {
                if i != root_idx {
                    self.send(group.member(i), tag, std::mem::take(&mut blocks[i]))?;
                }
            }
            Ok(std::mem::take(&mut blocks[root_idx]))
        } else {
            self.recv(root, tag)
        }
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
        self.with_collective("gather", |rk| rk.gather_impl(tag, group, root, block))
    }

    fn gather_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        block: Vec<f64>,
    ) -> SimResult<Option<Vec<Vec<f64>>>> {
        let g = group.len();
        let me = group.my_index(self)?;
        let root_idx = group
            .index_of(root)
            .ok_or_else(|| SimError::Algorithm(format!("gather root {root} not in group")))?;
        if me == root_idx {
            let mut out: Vec<Option<Vec<f64>>> = vec![None; g];
            out[root_idx] = Some(block);
            for i in 0..g {
                if i != root_idx {
                    out[i] = Some(self.recv(group.member(i), tag)?);
                }
            }
            Ok(Some(
                out.into_iter().map(|b| b.expect("gathered")).collect(),
            ))
        } else {
            self.send(root, tag, block)?;
            Ok(None)
        }
    }

    /// Chunk boundaries for splitting `len` words over `g` members.
    fn chunk_bounds(len: usize, g: usize, i: usize) -> (usize, usize) {
        (i * len / g, (i + 1) * len / g)
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
        self.with_collective("reduce_scatter_sum", |rk| {
            rk.reduce_scatter_sum_impl(tag, group, data)
        })
    }

    fn reduce_scatter_sum_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        data: Vec<f64>,
    ) -> SimResult<Vec<f64>> {
        let g = group.len();
        let me = group.my_index(self)?;
        let len = data.len();
        if g == 1 {
            return Ok(data);
        }
        let right = group.member((me + 1) % g);
        let left = group.member((me + g - 1) % g);
        // Chunk c starts at rank (c+1) mod g and travels rightward,
        // accumulating each host's contribution, ending at rank c.
        let start_chunk = (me + g - 1) % g;
        let (s0, s1) = Self::chunk_bounds(len, g, start_chunk);
        let mut in_flight = data[s0..s1].to_vec();
        for t in 0..g - 1 {
            let incoming = self.sendrecv(
                right,
                tag.offset(t as u64),
                in_flight,
                left,
                tag.offset(t as u64),
            )?;
            // The chunk arriving at step t is (me - t - 2) mod g.
            let c = (me + 2 * g - t - 2) % g;
            let (c0, c1) = Self::chunk_bounds(len, g, c);
            if incoming.len() != c1 - c0 {
                return Err(SimError::Algorithm(format!(
                    "reduce-scatter contributions disagree in length: chunk {c} \
                     expected {} got {}",
                    c1 - c0,
                    incoming.len()
                )));
            }
            let mut acc = incoming;
            self.compute((c1 - c0) as u64);
            for (a, b) in acc.iter_mut().zip(&data[c0..c1]) {
                *a += b;
            }
            in_flight = acc;
        }
        // After g−1 steps the fully reduced chunk `me` is in hand.
        Ok(in_flight)
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
            rk.broadcast_large_impl(tag, group, root, data)
        })
    }

    fn broadcast_large_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Option<Vec<f64>>,
    ) -> SimResult<Vec<f64>> {
        let g = group.len();
        if g as u64 >= TAG_WINDOW {
            return Err(SimError::Algorithm(format!(
                "broadcast_large supports groups below {TAG_WINDOW} members, got {g}"
            )));
        }
        if g == 1 {
            return data
                .ok_or_else(|| SimError::Algorithm("broadcast root must supply data".into()));
        }
        let me = group.my_index(self)?;
        let root_idx = group
            .index_of(root)
            .ok_or_else(|| SimError::Algorithm(format!("broadcast root {root} not in group")))?;
        // Scatter segment lengths must be agreed by all ranks: ship the
        // total length in the segment payloads' first word.
        let blocks = if me == root_idx {
            let data =
                data.ok_or_else(|| SimError::Algorithm("broadcast root must supply data".into()))?;
            let len = data.len();
            Some(
                (0..g)
                    .map(|i| {
                        let (b0, b1) = Self::chunk_bounds(len, g, i);
                        let mut seg = Vec::with_capacity(b1 - b0 + 1);
                        seg.push(len as f64);
                        seg.extend_from_slice(&data[b0..b1]);
                        seg
                    })
                    .collect(),
            )
        } else {
            None
        };
        let my_seg = self.scatter(tag, group, root, blocks)?;
        let segments = self.allgather(tag.offset(1), group, my_seg)?;
        let mut out = Vec::new();
        for seg in segments {
            out.extend_from_slice(&seg[1..]);
        }
        Ok(out)
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
            rk.reduce_sum_large_impl(tag, group, root, data)
        })
    }

    fn reduce_sum_large_impl(
        &mut self,
        tag: Tag,
        group: &Group,
        root: usize,
        data: Vec<f64>,
    ) -> SimResult<Option<Vec<f64>>> {
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
        let me = group.my_index(self)?;
        let root_idx = group
            .index_of(root)
            .ok_or_else(|| SimError::Algorithm(format!("reduce root {root} not in group")))?;
        let len = data.len();
        let chunk = self.reduce_scatter_sum(tag, group, data)?;
        let gathered = self.gather(tag.offset(64), group, root, chunk)?;
        if me != root_idx {
            return Ok(None);
        }
        let mut out = Vec::with_capacity(len);
        for c in gathered.expect("root gathers") {
            out.extend_from_slice(&c);
        }
        Ok(Some(out))
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
        self.with_collective("alltoall_hypercube", |rk| {
            rk.alltoall_hypercube_impl(tag, group, blocks)
        })
    }

    fn alltoall_hypercube_impl(
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
        if blocks.len() != g {
            return Err(SimError::Algorithm(format!(
                "alltoall needs one block per member: got {}, group size {g}",
                blocks.len()
            )));
        }
        let me = group.my_index(self)?;
        if g == 1 {
            return Ok(blocks);
        }
        // Records in flight: (source index, dest index, payload). Records
        // are self-describing on the wire ([src, dest, len, data...]) so
        // block lengths may vary across ranks.
        let mut records: Vec<(usize, usize, Vec<f64>)> = blocks
            .into_iter()
            .enumerate()
            .map(|(d, b)| (me, d, b))
            .collect();
        let rounds = g.trailing_zeros();
        for k in 0..rounds {
            let bit = 1usize << k;
            let partner = group.member(me ^ bit);
            let (keep, forward): (Vec<_>, Vec<_>) = records
                .into_iter()
                .partition(|(_, dest, _)| dest & bit == me & bit);
            let wire_len: usize = forward.iter().map(|(_, _, d)| d.len() + 3).sum();
            let mut payload = Vec::with_capacity(wire_len);
            for (src, dest, data) in &forward {
                payload.push(*src as f64);
                payload.push(*dest as f64);
                payload.push(data.len() as f64);
                payload.extend_from_slice(data);
            }
            let incoming = self.sendrecv(
                partner,
                tag.offset(k as u64),
                payload,
                partner,
                tag.offset(k as u64),
            )?;
            records = keep;
            let mut off = 0usize;
            while off < incoming.len() {
                let src = incoming[off] as usize;
                let dest = incoming[off + 1] as usize;
                let len = incoming[off + 2] as usize;
                records.push((src, dest, incoming[off + 3..off + 3 + len].to_vec()));
                off += 3 + len;
            }
        }
        // Every record is now addressed to me; order by source.
        let mut out: Vec<Option<Vec<f64>>> = vec![None; g];
        for (src, dest, data) in records {
            if dest != me {
                return Err(SimError::Algorithm(
                    "hypercube routing bug: misdelivered record".into(),
                ));
            }
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
        // Construct the error without running 200 threads by calling the
        // guard path directly on a small world with an oversized group
        // definition being impossible — instead check the documented cap
        // through a 65+-member artificial check.
        let members: Vec<usize> = (0..65).collect();
        let g = Group::new(members).unwrap();
        assert_eq!(g.len(), 65);
        // The cap itself is validated in-run for reduce_sum_large; the
        // broadcast_large cap is TAG_WINDOW. Both are compile-time
        // constants worth pinning:
        const { assert!(64 < TAG_WINDOW) };
    }

    #[test]
    fn reduce_scatter_rejects_length_mismatch() {
        let r = Machine::run(3, cfg(), |rank| {
            let group = Group::world(rank.size());
            let data = vec![1.0; 9 + rank.rank() * 3];
            rank.reduce_scatter_sum(Tag(0), &group, data)
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))));
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
