//! The run's wire store: one [`Slab`] of in-flight [`Wire`]s shared by
//! every rank, with free-list recycling, plus a 16-byte per-destination
//! [`Inbox`] that finds that destination's wires by `(src, tag)`.
//!
//! A delivery is: take a cell from the slab's free list (an index bump
//! in steady state — the slab only grows while the *machine-wide*
//! number of parked wires sets a new record), link it behind the
//! destination's last parked wire, done. Nothing is allocated per rank:
//! a destination's parked wires form a list threaded through the shared
//! cells, in arrival order, and a receive takes the first whose
//! `(src, tag)` matches — per-key FIFO, because the first match is the
//! oldest. Programs mostly receive in the order their peers send (halo
//! exchanges, tree collectives, grid shifts, sample sort's all-to-all
//! under the ascending worklist), so the match is at or near the head
//! however long the list is.
//!
//! Nothing obliges a program to, and `O(p)` wires can legitimately sit
//! parked on one rank, so a scan could go quadratic. The first receive
//! that has to step past more than [`SPILL`] parked wires therefore
//! moves that destination's wires out of the slab into per-`(src, tag)`
//! queues under a map of its own, where they stay keyed for the rest of
//! the run — the one per-rank allocation, paid only by ranks whose
//! receive order asks for it. The map belongs to the destination on
//! purpose: one machine-wide `(dest, src, tag)` table scatters a rank's
//! few hundred live keys over megabytes, and every receive then misses
//! the cache (measured on sample sort at `p = 512`: a third slower).
//!
//! Matching order is the same in both forms: per-`(src, tag)` FIFO, and
//! the simulator's no-wildcard matching rule makes that the whole
//! ordering contract.

use crate::meter::Departure;
use crate::SharedPayload;
use std::collections::{HashMap, VecDeque};

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

/// Slab sentinel: "no cell".
const NIL: u32 = u32::MAX;

/// Parked wires a receive may step past in a destination's list; one
/// more and the destination spills into keyed queues (see the module
/// docs). It bounds the linear part of every receive, and leaves room
/// for the scans in-order programs do need: a 2.5D shift steps past one
/// wire per round its other neighbour has run ahead (16 on the ledger's
/// grid) and should not pay for a map.
const SPILL: usize = 32;

/// One slab cell: a parked wire, its matching key, and the link to the
/// next cell of its destination's list (or the next free cell).
struct Cell {
    wire: Wire,
    src: u32,
    next: u32,
    tag: u64,
}

/// One destination's parked wires. See the module docs.
pub(crate) struct Inbox(Parked);

enum Parked {
    /// Cells of the run's [`Slab`] in arrival order (`head == NIL` when
    /// empty; `tail` is meaningful only otherwise).
    List { head: u32, tail: u32 },
    /// Per-`(src, tag)` queues, once a receive scanned past [`SPILL`].
    /// Boxed so that the inbox of a rank that never spills — nearly
    /// every rank — stays 16 bytes.
    #[allow(clippy::box_collection)]
    Keyed(Box<HashMap<(u32, u64), VecDeque<Wire>>>),
}

impl Inbox {
    pub(crate) fn new() -> Self {
        Inbox(Parked::List {
            head: NIL,
            tail: NIL,
        })
    }
}

/// Every parked wire of one run (those of spilled inboxes excepted).
pub(crate) struct Slab {
    cells: Vec<Cell>,
    /// Head of the free list (`NIL` when the slab must grow).
    free: u32,
    /// Wires currently parked, machine-wide, in either form.
    live: u64,
    /// High-water mark of `live` (`ExecStats::slab_live_peak`).
    pub(crate) peak_live: u64,
    /// Deliveries that reused a freed cell (`ExecStats::slab_recycled`).
    pub(crate) recycled: u64,
}

impl Slab {
    pub(crate) fn new() -> Self {
        Slab {
            cells: Vec::new(),
            free: NIL,
            live: 0,
            peak_live: 0,
            recycled: 0,
        }
    }

    /// Take the wire out of cell `idx` and put the cell on the free list.
    fn release(&mut self, idx: u32) -> Wire {
        let hole = Wire {
            departure: Departure {
                n_chunks: 0,
                depart_time: 0.0,
            },
            words: 0,
            data: None,
        };
        let cell = &mut self.cells[idx as usize];
        cell.next = std::mem::replace(&mut self.free, idx);
        std::mem::replace(&mut cell.wire, hole)
    }

    /// Park `wire` in `inbox`, behind every earlier wire of `(src, tag)`.
    pub(crate) fn push(&mut self, inbox: &mut Inbox, src: usize, tag: u64, wire: Wire) {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        let (head, tail) = match &mut inbox.0 {
            Parked::List { head, tail } => (head, tail),
            Parked::Keyed(queues) => {
                return queues.entry((src as u32, tag)).or_default().push_back(wire)
            }
        };
        let cell = Cell {
            wire,
            src: src as u32,
            next: NIL,
            tag,
        };
        let idx = match self.free {
            NIL => {
                self.cells.push(cell);
                (self.cells.len() - 1) as u32
            }
            idx => {
                self.free = self.cells[idx as usize].next;
                self.cells[idx as usize] = cell;
                self.recycled += 1;
                idx
            }
        };
        if *head == NIL {
            *head = idx;
        } else {
            self.cells[*tail as usize].next = idx;
        }
        *tail = idx;
    }

    /// Take the oldest wire of `(src, tag)` out of `inbox`.
    pub(crate) fn pop(&mut self, inbox: &mut Inbox, src: usize, tag: u64) -> Option<Wire> {
        let key = (src as u32, tag);
        let wire = match &mut inbox.0 {
            Parked::Keyed(queues) => {
                let queue = queues.get_mut(&key)?;
                let wire = queue.pop_front();
                if queue.is_empty() {
                    queues.remove(&key);
                }
                wire
            }
            Parked::List { head, tail } => {
                let (mut prev, mut idx, mut skipped) = (NIL, *head, 0);
                // `get` fails exactly at `NIL`: the list holds no match.
                while let Some(cell) = self.cells.get(idx as usize) {
                    if (cell.src, cell.tag) == key {
                        break;
                    }
                    (prev, idx) = (idx, cell.next);
                    skipped += 1;
                }
                let found = (idx != NIL).then(|| {
                    let next = self.cells[idx as usize].next;
                    match prev {
                        NIL => *head = next,
                        prev => self.cells[prev as usize].next = next,
                    }
                    if next == NIL {
                        *tail = prev;
                    }
                    self.release(idx)
                });
                if skipped > SPILL {
                    // This destination receives out of arrival order:
                    // key what is left, oldest first, so every queue
                    // keeps its key's FIFO order.
                    let mut queues: Box<HashMap<_, VecDeque<_>>> = Box::default();
                    let mut rest = *head;
                    while let Some(cell) = self.cells.get(rest as usize) {
                        let (key, next) = ((cell.src, cell.tag), cell.next);
                        queues.entry(key).or_default().push_back(self.release(rest));
                        rest = next;
                    }
                    inbox.0 = Parked::Keyed(queues);
                }
                found
            }
        };
        self.live -= wire.is_some() as u64;
        wire
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

    fn words(wire: Option<Wire>) -> Option<usize> {
        wire.map(|w| w.words)
    }

    /// Per-key FIFO order survives interleaved keys and recycling.
    #[test]
    fn per_key_fifo_with_recycling() {
        let (mut slab, mut mb) = (Slab::new(), Inbox::new());
        slab.push(&mut mb, 3, 7, wire(10));
        slab.push(&mut mb, 3, 7, wire(11));
        slab.push(&mut mb, 4, 7, wire(20));
        slab.push(&mut mb, 3, 8, wire(30));
        assert_eq!(slab.live, 4);
        assert_eq!(words(slab.pop(&mut mb, 3, 7)), Some(10));
        assert_eq!(words(slab.pop(&mut mb, 4, 7)), Some(20));
        assert!(slab.pop(&mut mb, 4, 7).is_none());
        assert_eq!(words(slab.pop(&mut mb, 3, 7)), Some(11));
        // Freed cells get reused: no slab growth for the next pushes.
        let cap = slab.cells.len();
        slab.push(&mut mb, 5, 9, wire(40));
        slab.push(&mut mb, 5, 9, wire(41));
        slab.push(&mut mb, 5, 9, wire(42));
        assert_eq!(slab.cells.len(), cap);
        assert_eq!(slab.recycled, 3);
        assert_eq!(words(slab.pop(&mut mb, 5, 9)), Some(40));
        assert_eq!(words(slab.pop(&mut mb, 5, 9)), Some(41));
        assert_eq!(words(slab.pop(&mut mb, 5, 9)), Some(42));
        assert_eq!(words(slab.pop(&mut mb, 3, 8)), Some(30));
        assert_eq!(slab.live, 0);
        assert_eq!(slab.peak_live, 4);
        assert!(matches!(mb.0, Parked::List { head: NIL, .. }));
    }

    /// Two destinations share the slab — and each other's freed cells —
    /// without sharing wires, even under the same `(src, tag)`.
    #[test]
    fn destinations_interleaving_one_key_stay_apart() {
        let (mut slab, mut a, mut b) = (Slab::new(), Inbox::new(), Inbox::new());
        for i in 0..3 {
            slab.push(&mut a, 1, 5, wire(100 + i));
            slab.push(&mut b, 1, 5, wire(200 + i));
        }
        assert_eq!(words(slab.pop(&mut b, 1, 5)), Some(200));
        assert_eq!(words(slab.pop(&mut a, 1, 5)), Some(100));
        // `a` parks its next wire in the cell `a` just freed, the one
        // after in the cell `b` freed.
        slab.push(&mut a, 1, 5, wire(103));
        slab.push(&mut a, 1, 5, wire(104));
        assert_eq!((slab.cells.len(), slab.recycled), (6, 2));
        for want in [101, 102, 103, 104] {
            assert_eq!(words(slab.pop(&mut a, 1, 5)), Some(want));
        }
        assert!(slab.pop(&mut a, 1, 5).is_none());
        for want in [201, 202] {
            assert_eq!(words(slab.pop(&mut b, 1, 5)), Some(want));
        }
        assert_eq!((slab.live, slab.peak_live), (0, 6));
    }

    /// A receive that has to scan far moves the list into keyed queues;
    /// per-key FIFO order holds across the switch and after it.
    #[test]
    fn spilling_keeps_per_key_fifo() {
        let (mut slab, mut mb) = (Slab::new(), Inbox::new());
        let n = SPILL + 4;
        // Two wires per source, interleaved with a second tag.
        for round in 0..2 {
            for src in 0..n {
                slab.push(&mut mb, src, 7, wire(10 * src + round));
                if src == 2 {
                    slab.push(&mut mb, src, 8, wire(999));
                }
            }
        }
        // In arrival order the list serves any number of wires as it is.
        assert_eq!(words(slab.pop(&mut mb, 0, 7)), Some(0));
        assert!(matches!(mb.0, Parked::List { .. }));
        // Against it, the first long scan spills — hit or miss.
        for miss in [false, true] {
            let (mut slab, mut mb) = (Slab::new(), Inbox::new());
            for src in 0..n {
                slab.push(&mut mb, src, 7, wire(src));
            }
            let last = if miss { n } else { n - 1 };
            assert_eq!(words(slab.pop(&mut mb, last, 7)), (!miss).then_some(last));
            assert!(matches!(mb.0, Parked::Keyed(_)));
            assert_eq!(words(slab.pop(&mut mb, 1, 7)), Some(1));
            assert_eq!(slab.live as usize, n - 1 - !miss as usize);
        }
        for src in (1..n).rev() {
            assert_eq!(words(slab.pop(&mut mb, src, 7)), Some(10 * src));
            assert_eq!(words(slab.pop(&mut mb, src, 7)), Some(10 * src + 1));
            assert!(slab.pop(&mut mb, src, 7).is_none());
        }
        assert!(matches!(mb.0, Parked::Keyed(_)));
        assert_eq!(words(slab.pop(&mut mb, 0, 7)), Some(1));
        assert_eq!(words(slab.pop(&mut mb, 2, 8)), Some(999));
        assert_eq!(words(slab.pop(&mut mb, 2, 8)), Some(999));
        // Spilled for good: later wires queue under the same map, and
        // the cells the spill emptied are back on the free list.
        slab.push(&mut mb, 4, 7, wire(5));
        slab.push(&mut mb, 4, 7, wire(6));
        assert_eq!(words(slab.pop(&mut mb, 4, 7)), Some(5));
        assert_eq!(words(slab.pop(&mut mb, 4, 7)), Some(6));
        assert_eq!(slab.live, 0);
        let cap = slab.cells.len();
        slab.push(&mut Inbox::new(), 0, 0, wire(1));
        assert_eq!(slab.cells.len(), cap);
    }
}
