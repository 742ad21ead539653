//! Sequential two-level memory simulator (paper Fig. 1(a)): a
//! fully-associative LRU fast memory in front of a slow memory, counting
//! the words and messages (lines) that cross the boundary.
//!
//! This is the executable substrate for the paper's sequential bounds
//! (Eqs. 3–4): `psse-algos::seq_matmul` drives real matmul kernels
//! through [`FastMemory::access`] and compares the measured traffic to
//! `Ω(F/√M)`.

use std::collections::HashMap;

/// Traffic counters of a [`FastMemory`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Misses (line fetched from slow memory).
    pub misses: u64,
    /// Dirty lines written back to slow memory.
    pub writebacks: u64,
    /// Words moved across the slow/fast boundary (fetches + writebacks).
    pub words_moved: u64,
    /// Messages (line transfers) across the boundary.
    pub lines_moved: u64,
}

/// A fully-associative, write-back, LRU cache over a word-addressed
/// memory. Capacity and line size are in words; capacity must be a
/// positive multiple of the line size.
#[derive(Debug)]
pub struct FastMemory {
    line_words: u64,
    max_lines: usize,
    stats: MemStats,
    // line id -> slot index
    map: HashMap<u64, usize>,
    // intrusive doubly-linked LRU list over slots
    slots: Vec<Slot>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    dirty: bool,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl FastMemory {
    /// Create a fast memory of `capacity_words` with `line_words`-word
    /// lines.
    ///
    /// # Panics
    /// If `line_words == 0` or `capacity_words < line_words`.
    pub fn new(capacity_words: u64, line_words: u64) -> Self {
        assert!(line_words > 0, "line size must be positive");
        assert!(
            capacity_words >= line_words,
            "capacity must hold at least one line"
        );
        let max_lines = (capacity_words / line_words) as usize;
        FastMemory {
            line_words,
            max_lines,
            stats: MemStats::default(),
            map: HashMap::with_capacity(max_lines),
            slots: Vec::with_capacity(max_lines),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.max_lines as u64 * self.line_words
    }

    /// Current counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Touch word `addr` (`write = true` marks the line dirty). Returns
    /// whether the access hit in fast memory.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        let line = addr / self.line_words;
        if let Some(&idx) = self.map.get(&line) {
            self.detach(idx);
            self.push_front(idx);
            if write {
                self.slots[idx].dirty = true;
            }
            return true;
        }
        // Miss: fetch the line, evicting LRU if full.
        self.stats.misses += 1;
        self.stats.words_moved += self.line_words;
        self.stats.lines_moved += 1;
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else if self.slots.len() < self.max_lines {
            self.slots.push(Slot {
                line: 0,
                dirty: false,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            // Evict the least recently used line.
            let victim = self.tail;
            self.detach(victim);
            let old = self.slots[victim];
            self.map.remove(&old.line);
            if old.dirty {
                self.stats.writebacks += 1;
                self.stats.words_moved += self.line_words;
                self.stats.lines_moved += 1;
            }
            victim
        };
        self.slots[idx] = Slot {
            line,
            dirty: write,
            prev: NIL,
            next: NIL,
        };
        self.map.insert(line, idx);
        self.push_front(idx);
        false
    }

    /// Read convenience wrapper.
    pub fn read(&mut self, addr: u64) -> bool {
        self.access(addr, false)
    }

    /// Write convenience wrapper.
    pub fn write(&mut self, addr: u64) -> bool {
        self.access(addr, true)
    }

    /// Flush all dirty lines (end-of-run writeback accounting).
    pub fn flush(&mut self) {
        let dirty: u64 = self.slots.iter().filter(|s| s.dirty).count() as u64;
        for s in self.slots.iter_mut() {
            s.dirty = false;
        }
        self.stats.writebacks += dirty;
        self.stats.words_moved += dirty * self.line_words;
        self.stats.lines_moved += dirty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_first_touch() {
        let mut m = FastMemory::new(64, 8);
        assert!(!m.read(0)); // compulsory miss
        assert!(m.read(1)); // same line
        assert!(m.read(7));
        assert!(!m.read(8)); // next line
        let s = m.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.misses, 2);
        assert_eq!(s.words_moved, 16);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut m = FastMemory::new(16, 8); // 2 lines
        m.read(0); // line 0
        m.read(8); // line 1
        m.read(0); // touch line 0 (now MRU)
        m.read(16); // line 2 evicts line 1
        assert!(m.read(0), "line 0 must still be resident");
        assert!(!m.read(8), "line 1 must have been evicted");
    }

    #[test]
    fn writebacks_count_dirty_evictions_only() {
        let mut m = FastMemory::new(16, 8);
        m.write(0); // dirty line 0
        m.read(8); // clean line 1
        m.read(16); // evicts LRU = line 0 (dirty) -> writeback
        let s = m.stats();
        assert_eq!(s.writebacks, 1);
        // 3 fetches + 1 writeback = 4 line moves.
        assert_eq!(s.lines_moved, 4);
        assert_eq!(s.words_moved, 32);
    }

    #[test]
    fn flush_writes_back_resident_dirty_lines() {
        let mut m = FastMemory::new(32, 8);
        m.write(0);
        m.write(8);
        m.read(16);
        m.flush();
        assert_eq!(m.stats().writebacks, 2);
        m.flush();
        assert_eq!(m.stats().writebacks, 2, "flush is idempotent");
    }

    #[test]
    fn word_granularity_lines() {
        let mut m = FastMemory::new(4, 1);
        m.read(0);
        m.read(1);
        m.read(2);
        m.read(3);
        m.read(4); // evicts 0
        assert!(!m.read(0));
        assert_eq!(m.capacity_words(), 4);
    }

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut m = FastMemory::new(1024, 16);
        for a in 0..4096u64 {
            m.read(a);
        }
        let s = m.stats();
        assert_eq!(s.misses, 4096 / 16);
        assert_eq!(s.accesses, 4096);
    }

    #[test]
    fn streaming_larger_than_cache_thrashes_on_reuse() {
        // Touch a working set 2x the cache twice: second pass misses
        // everything again (LRU worst case).
        let mut m = FastMemory::new(256, 8);
        for _ in 0..2 {
            for a in 0..512u64 {
                m.read(a);
            }
        }
        assert_eq!(m.stats().misses, 2 * 512 / 8);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_capacity_below_line() {
        let _ = FastMemory::new(4, 8);
    }
}
