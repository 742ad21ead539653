//! Per-rank mailbox: a slab of in-flight [`Wire`]s with free-list
//! recycling, plus an index of `(src, tag)` FIFO chains threaded
//! through the slab.
//!
//! The previous mailbox was `HashMap<(usize, u64), VecDeque<Wire>>` per
//! rank: every delivery paid a SipHash of the key, a map probe, and —
//! on a fresh key — a `VecDeque` allocation, all on the scheduler's
//! critical path. At `p = 10^5` a single binomial allreduce pushes
//! ~2·10^5 wires through those maps.
//!
//! Here a delivery is: grab a node from the slab free list (an index
//! bump in steady state — no allocation once the high-water mark is
//! reached), thread it onto the tail of its `(src, tag)` chain, done.
//! The chain index is still a hash map — workloads like sample sort
//! legitimately hold `O(p)` live keys per rank, so any linear scan
//! would be quadratic — but it is keyed by a fixed-width `(u32, u64)`
//! pair under a cheap multiplicative hash (the Firefox/rustc "Fx"
//! function) instead of tuple-of-`usize` under SipHash, and its values
//! are two `u32` indices, not owning containers.
//!
//! Matching order is untouched: chains are per-`(src, tag)` FIFO, which
//! is exactly the `VecDeque` semantics, and the simulator's no-wildcard
//! matching rule means FIFO-per-key is the whole ordering contract.

use psse_sim::{Departure, SharedPayload};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One transfer on the virtual wire: what the sender's meter returned,
/// plus the payload (optional, so counted transfers carry no
/// allocation) — everything the receiver's meter needs.
#[derive(Debug)]
pub(crate) struct Wire {
    /// Chunk count and departure time, from `Meter::send`.
    pub departure: Departure,
    /// Total payload words.
    pub words: usize,
    /// The payload, when it was a real buffer.
    pub data: Option<SharedPayload>,
}

/// The Fx multiplicative hash (as used by rustc): fast, fixed-width,
/// and deterministic — no per-process random state, so mailbox
/// iteration order could never vary across runs even if we iterated
/// (we don't; all reads are keyed).
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Slab sentinel: "no node".
const NIL: u32 = u32::MAX;

/// One slab cell: a parked wire plus the link to the next wire in its
/// `(src, tag)` chain (or the next free cell, when on the free list).
struct WireNode {
    wire: Wire,
    next: u32,
}

/// Head and tail of one `(src, tag)` FIFO chain in the slab.
struct Chain {
    head: u32,
    tail: u32,
}

/// A rank's mailbox: slab + chain index. See the module docs.
pub(crate) struct Mailbox {
    nodes: Vec<WireNode>,
    /// Head of the free list (`NIL` when the slab must grow).
    free: u32,
    chains: HashMap<(u32, u64), Chain, FxBuildHasher>,
    /// Wires currently parked here.
    live: usize,
    /// High-water mark of `live`.
    peak_live: usize,
    /// Deliveries served from the free list (steady-state recycling).
    recycled: u64,
}

/// A wire-shaped hole left in a slab cell while its real wire is out.
fn placeholder() -> Wire {
    Wire {
        departure: Departure {
            n_chunks: 0,
            depart_time: 0.0,
        },
        words: 0,
        data: None,
    }
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox {
            nodes: Vec::new(),
            free: NIL,
            chains: HashMap::default(),
            live: 0,
            peak_live: 0,
            recycled: 0,
        }
    }

    /// Wires currently parked in this mailbox.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of parked wires (`ExecStats::slab_live_peak`).
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Deliveries that reused a freed slab cell (`ExecStats::slab_recycled`).
    pub(crate) fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Park `wire` at the back of the `(src, tag)` chain.
    pub(crate) fn push(&mut self, src: usize, tag: u64, wire: Wire) {
        let idx = match self.free {
            NIL => {
                self.nodes.push(WireNode { wire, next: NIL });
                (self.nodes.len() - 1) as u32
            }
            idx => {
                let node = &mut self.nodes[idx as usize];
                self.free = node.next;
                node.wire = wire;
                node.next = NIL;
                self.recycled += 1;
                idx
            }
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.chains.entry((src as u32, tag)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                self.nodes[chain.tail as usize].next = idx;
                chain.tail = idx;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Chain {
                    head: idx,
                    tail: idx,
                });
            }
        }
    }

    /// Take the front wire of the `(src, tag)` chain, freeing its cell.
    pub(crate) fn pop(&mut self, src: usize, tag: u64) -> Option<Wire> {
        let key = (src as u32, tag);
        let chain = self.chains.get_mut(&key)?;
        let idx = chain.head;
        let node = &mut self.nodes[idx as usize];
        let wire = std::mem::replace(&mut node.wire, placeholder());
        let next = node.next;
        if next == NIL {
            self.chains.remove(&key);
        } else {
            chain.head = next;
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.live -= 1;
        Some(wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(words: usize) -> Wire {
        Wire {
            departure: Departure {
                n_chunks: 1,
                depart_time: 0.5,
            },
            words,
            data: None,
        }
    }

    /// Per-key FIFO order survives interleaved keys and recycling.
    #[test]
    fn per_key_fifo_with_recycling() {
        let mut mb = Mailbox::new();
        mb.push(3, 7, wire(10));
        mb.push(3, 7, wire(11));
        mb.push(4, 7, wire(20));
        mb.push(3, 8, wire(30));
        assert_eq!(mb.live(), 4);
        assert_eq!(mb.pop(3, 7).unwrap().words, 10);
        assert_eq!(mb.pop(4, 7).unwrap().words, 20);
        assert!(mb.pop(4, 7).is_none());
        assert_eq!(mb.pop(3, 7).unwrap().words, 11);
        // Freed cells get reused: no slab growth for the next pushes.
        let cap = mb.nodes.len();
        mb.push(5, 9, wire(40));
        mb.push(5, 9, wire(41));
        mb.push(5, 9, wire(42));
        assert_eq!(mb.nodes.len(), cap);
        assert_eq!(mb.recycled(), 3);
        assert_eq!(mb.pop(5, 9).unwrap().words, 40);
        assert_eq!(mb.pop(5, 9).unwrap().words, 41);
        assert_eq!(mb.pop(5, 9).unwrap().words, 42);
        assert_eq!(mb.pop(3, 8).unwrap().words, 30);
        assert_eq!(mb.live(), 0);
        assert_eq!(mb.peak_live(), 4);
    }
}
