//! SplitMix64 — the deterministic generator behind every fault decision.
//!
//! The simulator needs fault outcomes that are a pure function of
//! `(seed, who, what, when)` and **independent of thread interleaving**:
//! rank 3's fifth transfer to rank 7 must be dropped (or not) regardless
//! of what the other ranks were doing on the wall clock. A stateful
//! shared RNG cannot provide that, so fault decisions are made by
//! *keyed hashing*: the plan seed and the decision coordinates are mixed
//! through the splitmix64 finalizer and the resulting word is mapped to
//! `[0, 1)`. The sequential [`SplitMix64`] stream is also provided for
//! callers that want a cheap deterministic sequence (e.g. perturbation
//! magnitudes).

/// The splitmix64 odd constant (the golden ratio in 0.64 fixed point).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output mix: a bijective avalanche on 64 bits.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash word to a uniform `f64` in `[0, 1)` using the top 53 bits.
#[inline]
#[must_use]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Hash a seed and up to a handful of decision coordinates into one
/// well-mixed word. Order-sensitive: `hash_key(s, &[a, b])` differs from
/// `hash_key(s, &[b, a])`.
#[must_use]
pub fn hash_key(seed: u64, parts: &[u64]) -> u64 {
    let mut h = KeyHasher::new(seed);
    for &p in parts {
        h.push(p);
    }
    h.finish()
}

/// The canonical word stream of a byte string, fed to `f`: its length,
/// then the bytes packed into little-endian 8-byte words, the last one
/// zero-padded. The length word keeps `("ab", "c")` and `("a", "bc")`
/// apart.
#[inline]
pub fn packed_words(bytes: &[u8], mut f: impl FnMut(u64)) {
    f(bytes.len() as u64);
    let mut packer = BytePacker::default();
    packer.feed(bytes, &mut f);
    packer.finish(f);
}

/// The packing of [`packed_words`] for a byte string that arrives in
/// pieces: feed the pieces in order, then [`BytePacker::finish`] flushes
/// the zero-padded tail. The words do not depend on where the pieces
/// were cut. (The length word is the caller's to emit — it has to come
/// first, so the caller must know it up front.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BytePacker {
    word: u64,
    fill: u32,
}

impl BytePacker {
    /// Pack `bytes` after everything fed so far; each completed word
    /// goes to `sink`.
    #[inline]
    pub fn feed(&mut self, mut bytes: &[u8], mut sink: impl FnMut(u64)) {
        // Top up a word left partial by the previous piece.
        while self.fill != 0 {
            let Some((&b, rest)) = bytes.split_first() else {
                return;
            };
            self.push_byte(b, &mut sink);
            bytes = rest;
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            sink(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.push_byte(b, &mut sink);
        }
    }

    #[inline]
    fn push_byte(&mut self, b: u8, sink: &mut impl FnMut(u64)) {
        self.word |= (b as u64) << (8 * self.fill);
        self.fill += 1;
        if self.fill == 8 {
            sink(self.word);
            *self = BytePacker::default();
        }
    }

    /// Flush the last, zero-padded word (nothing when the bytes fed so
    /// far fill whole words).
    #[inline]
    pub fn finish(self, mut sink: impl FnMut(u64)) {
        if self.fill != 0 {
            sink(self.word);
        }
    }
}

/// The fold behind [`hash_key`], one word at a time: pushing
/// `parts[0], parts[1], ...` and finishing equals `hash_key(seed,
/// parts)`, so a caller that produces its words on the fly needs no
/// intermediate vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// Start a chain from `seed`.
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        KeyHasher(mix64(seed ^ GOLDEN))
    }

    /// Fold one word into the chain.
    #[inline]
    pub fn push(&mut self, part: u64) {
        self.0 = mix64(self.0.wrapping_add(GOLDEN) ^ mix64(part.wrapping_add(GOLDEN)));
    }

    /// The chain's current value.
    #[inline]
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A sequential splitmix64 stream (Steele, Lea & Flood 2014). Passes
/// BigCrush; one add and one mix per output word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a stream from a seed. Any seed (including 0) is fine.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Next uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Not constant, not obviously correlated.
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn unit_f64_is_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn hash_key_is_order_sensitive_and_stable() {
        let h1 = hash_key(1, &[2, 3]);
        assert_eq!(h1, hash_key(1, &[2, 3]));
        assert_ne!(h1, hash_key(1, &[3, 2]));
        assert_ne!(h1, hash_key(2, &[2, 3]));
    }

    #[test]
    fn key_hasher_streams_the_same_fold() {
        let parts = [7u64, 0, u64::MAX, 42];
        let mut h = KeyHasher::new(9);
        assert_eq!(h.finish(), hash_key(9, &[]));
        for (i, &p) in parts.iter().enumerate() {
            h.push(p);
            assert_eq!(h.finish(), hash_key(9, &parts[..=i]));
        }
    }

    #[test]
    fn byte_packing_is_length_prefixed_and_cut_independent() {
        let words = |bytes: &[u8]| {
            let mut w = Vec::new();
            packed_words(bytes, |x| w.push(x));
            w
        };
        assert_eq!(words(b""), [0]);
        assert_eq!(
            words(b"abcdefghi"),
            [
                9,
                u64::from_le_bytes(*b"abcdefgh"),
                u64::from_le_bytes(*b"i\0\0\0\0\0\0\0"),
            ]
        );
        // Any cut of the stream packs to the same words.
        let text = b"the quick brown fox jumps over the lazy dog";
        for cut in 0..=text.len() {
            let mut w = vec![text.len() as u64];
            let mut p = BytePacker::default();
            p.feed(&text[..cut], |x| w.push(x));
            p.feed(&text[cut..], |x| w.push(x));
            p.finish(|x| w.push(x));
            assert_eq!(w, words(text), "cut at {cut}");
        }
    }

    #[test]
    fn hash_key_is_roughly_uniform() {
        // Crude balance check: the unit mapping of 4k hashed keys should
        // land ~half below 0.5.
        let n = 4096;
        let below = (0..n)
            .filter(|&i| unit_f64(hash_key(9, &[i, i * 31])) < 0.5)
            .count();
        assert!((1700..2400).contains(&below), "badly skewed: {below}/{n}");
    }
}
