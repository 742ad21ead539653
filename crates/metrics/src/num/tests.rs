//! The writer against `core::fmt`, and the tables against exact
//! arithmetic.

use super::tables::{POW5_INV_LEN, POW5_INV_SPLIT, POW5_LEN, POW5_SPLIT};
use super::*;

/// Both layouts of `v`, or a description of how they differ from
/// `format!`.
fn check(v: f64) -> Result<(), String> {
    let (mut debug, mut display) = (String::new(), String::new());
    push_f64_debug(&mut debug, v);
    push_f64_display(&mut display, v);
    let (want_debug, want_display) = (format!("{v:?}"), format!("{v}"));
    if debug == want_debug && display == want_display {
        Ok(())
    } else {
        Err(format!(
            "{:#018x}: {{:?}} {want_debug} got {debug}; {{}} {want_display} got {display}",
            v.to_bits()
        ))
    }
}

/// Check every value, reporting the first few mismatches.
fn check_all(values: impl IntoIterator<Item = f64>) {
    let (mut count, mut bad) = (0u64, Vec::new());
    for v in values {
        count += 1;
        if let Err(e) = check(v) {
            bad.push(e);
        }
    }
    assert!(
        bad.is_empty(),
        "{} mismatches in {count} values:\n{}",
        bad.len(),
        bad[..bad.len().min(10)].join("\n")
    );
}

/// Each value with both its neighbours.
fn with_neighbours(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

#[test]
fn edge_table_matches_core_fmt() {
    let mut values = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        9007199254740991.0,
        9007199254740993.0,
        // Exact ties between two shortest candidates: `core::fmt`
        // rounds them up.
        2f64.powi(-25),
        f64::from_bits(0x4310_0000_0000_0001),
    ];
    values.extend(with_neighbours(2f64.powi(53)));
    values.extend(with_neighbours(1e-4));
    values.extend(with_neighbours(1e16));
    for k in -324..=308 {
        values.extend(with_neighbours(format!("1e{k}").parse().unwrap()));
    }
    for k in 0..52 + 2046u64 {
        // Every power of two: subnormals by their one set bit, normals
        // by their exponent field.
        let bits = if k < 52 { 1 << k } else { (k - 51) << 52 };
        values.extend(with_neighbours(f64::from_bits(bits)));
    }
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    check_all(values.into_iter().chain(negated));
    assert_eq!(fmt_u64(0), "0");
    assert_eq!(fmt_u64(u64::MAX), u64::MAX.to_string());
}

fn fmt_u64(v: u64) -> String {
    let mut s = String::new();
    push_u64(&mut s, v);
    s
}

#[test]
fn integers_match_core_fmt() {
    let mut v = 1u64;
    for _ in 0..20 {
        for w in [v - 1, v, v + 1, v.wrapping_mul(7)] {
            assert_eq!(fmt_u64(w), w.to_string());
        }
        v = v.wrapping_mul(10);
    }
    let mut bytes = Vec::new();
    push_u64(&mut bytes, 90210);
    assert_eq!(bytes, b"90210");
}

/// splitmix64: every bit pattern is as likely as any other.
fn splitmix(seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed;
    std::iter::repeat_with(move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

#[test]
fn a_million_bit_patterns_match_core_fmt() {
    check_all(splitmix(1).take(1_000_000).map(f64::from_bits));
}

/// Short decimals, `m × 10^x` with at most six digits: the values
/// whose shortest form ends in zeros Ryu must drop exactly.
#[test]
fn a_million_short_decimals_match_core_fmt() {
    let values = splitmix(2).take(1_000_000).map(|r| {
        let digits = 1 + (r % 6) as u32;
        let m = (r >> 8) % 10u64.pow(digits);
        let x = ((r >> 40) % 640) as i32 - 330;
        let v: f64 = format!("{m}e{x}").parse().unwrap();
        if r >> 63 == 1 {
            -v
        } else {
            v
        }
    });
    check_all(values);
}

/// 10⁸ bit patterns; run with
/// `cargo test --release -p psse-metrics -- --ignored`.
#[test]
#[ignore = "about two minutes in release"]
fn a_hundred_million_bit_patterns_match_core_fmt() {
    check_all(splitmix(3).take(100_000_000).map(f64::from_bits));
}

/// A natural number as little-endian 64-bit limbs, for checking the
/// tables without the arithmetic under test.
#[derive(PartialEq, Eq)]
struct Big(Vec<u64>);

/// By value: more limbs is larger, then the top limbs decide.
impl Ord for Big {
    fn cmp(&self, other: &Big) -> std::cmp::Ordering {
        let (a, b) = (self.0.iter().rev(), other.0.iter().rev());
        self.0.len().cmp(&other.0.len()).then_with(|| a.cmp(b))
    }
}

impl PartialOrd for Big {
    fn partial_cmp(&self, other: &Big) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Big {
    fn from_u128(v: u128) -> Big {
        Big(vec![v as u64, (v >> 64) as u64]).trimmed()
    }

    fn pow2(j: usize) -> Big {
        let mut limbs = vec![0; j / 64 + 1];
        limbs[j / 64] = 1 << (j % 64);
        Big(limbs)
    }

    /// Drop high zero limbs, so `Ord` compares values.
    fn trimmed(mut self) -> Big {
        while self.0.len() > 1 && self.0.last() == Some(&0) {
            self.0.pop();
        }
        self
    }

    fn mul(&self, other: &Big) -> Big {
        let mut out = vec![0u64; self.0.len() + other.0.len()];
        for (i, &a) in self.0.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.0.iter().enumerate() {
                let t = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + other.0.len()] = carry as u64;
        }
        Big(out).trimmed()
    }

    fn bit_len(&self) -> usize {
        let top = self.0.len() - 1;
        64 * top + 64 - self.0[top].leading_zeros() as usize
    }

    fn bit(&self, k: usize) -> u128 {
        self.0
            .get(k / 64)
            .map_or(0, |&l| (l >> (k % 64)) as u128 & 1)
    }
}

fn entry(e: &[u64; 2]) -> u128 {
    e[0] as u128 | (e[1] as u128) << 64
}

/// Every entry from `5^q`, built by repeated ×5: `inv = floor(2^j /
/// 5^q) + 1` holds iff `(inv - 1) 5^q <= 2^j < inv 5^q`, and the
/// forward entry is the top 125 bits of `5^q`.
#[test]
fn tables_are_exact() {
    let five = Big::from_u128(5);
    let mut pow5 = Big::from_u128(1);
    for q in 0..POW5_INV_LEN.max(POW5_LEN) {
        let len = pow5.bit_len();
        if q < POW5_INV_LEN {
            let inv = entry(&POW5_INV_SPLIT[q]);
            let j = Big::pow2(len - 1 + 125);
            assert!(Big::from_u128(inv - 1).mul(&pow5) <= j, "inverse entry {q}");
            assert!(j < Big::from_u128(inv).mul(&pow5), "inverse entry {q}");
        }
        if q < POW5_LEN {
            let top = (0..125).fold(0u128, |acc, b| {
                let k = (len + b).checked_sub(125);
                acc | k.map_or(0, |k| pow5.bit(k)) << b
            });
            assert_eq!(entry(&POW5_SPLIT[q]), top, "forward entry {q}");
        }
        pow5 = pow5.mul(&five);
    }
}
