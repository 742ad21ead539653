//! Sorting `f64` keys in IEEE 754 total order.
//!
//! [`f64::total_cmp`] is a total order on bit patterns: no two distinct
//! patterns compare equal. So every correct sort by it — stable or not,
//! any algorithm — leaves the same bits, and [`sort_total`] can sort
//! integers instead of calling the comparator and still equal
//! `sort_by(f64::total_cmp)` bit for bit.

/// Comparisons charged for sorting `x` keys: `x·⌈log₂ x⌉`.
#[inline]
pub fn sort_flops(x: usize) -> u64 {
    x as u64 * crate::ceil_log2(x)
}

/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// Sort `keys` ascending in [`f64::total_cmp`] order
/// (`-NaN < -inf < … < -0.0 < +0.0 < … < +inf < +NaN`, NaNs by
/// payload), in place and without allocating.
///
/// Each key is replaced by its order-preserving integer (the transform
/// `total_cmp` applies before it compares), the integers are sorted by
/// `to_bits`, and each is mapped back.
pub fn sort_total(keys: &mut [f64]) {
    for k in keys.iter_mut() {
        *k = f64::from_bits(to_key(k.to_bits()));
    }
    keys.sort_unstable_by_key(|k| k.to_bits());
    for k in keys.iter_mut() {
        *k = f64::from_bits(from_key(k.to_bits()));
    }
}

/// `bits` as an unsigned integer in total order: a negative has every
/// bit flipped (a larger magnitude sorts first, every negative below
/// every positive), a positive only its sign bit.
fn to_key(bits: u64) -> u64 {
    bits ^ (((bits as i64 >> 63) as u64) | SIGN)
}

/// The inverse of [`to_key`]: a key with its top bit clear came from a
/// negative.
fn from_key(key: u64) -> u64 {
    key ^ (((!key as i64 >> 63) as u64) | SIGN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_and_order_like_total_cmp() {
        let values = [
            f64::from_bits(0xfff8_0000_0000_0001), // -NaN, payload 1
            f64::NEG_INFINITY,
            -1.5,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.5,
            f64::INFINITY,
            f64::from_bits(0x7ff0_0000_0000_0001), // +sNaN
            f64::NAN,
        ];
        for (i, a) in values.iter().enumerate() {
            assert_eq!(from_key(to_key(a.to_bits())), a.to_bits());
            for b in &values[i..] {
                let by_key = to_key(a.to_bits()).cmp(&to_key(b.to_bits()));
                assert_eq!(by_key, a.total_cmp(b), "{a:?} vs {b:?}");
            }
        }
    }
}
