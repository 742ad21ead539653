//! Shortest round-trip number writing, without `core::fmt`.
//!
//! Every float the workspace prints for a machine — lab CSVs, trace
//! text, Chrome exports, [`Json`](crate::Json) — goes through this
//! module, and each layout writes exactly the bytes `core::fmt` writes:
//!
//! - [`push_f64_debug`] is `format!("{v:?}")`: decimal with at least one
//!   fractional digit (`2.0`, `0.001`), or `d.ddde<x>` when
//!   `|v| < 1e-4` or `|v| >= 1e16` (`1e16`, `1.5e-5`); `-0.0`, `inf`,
//!   `-inf`, `NaN`.
//! - [`push_f64_display`] is `format!("{v}")`: decimal only, whole
//!   numbers without a fraction (`2`, `1e20` as twenty-one digits).
//! - [`push_u64`] is `format!("{v}")` of an integer.
//!
//! The digits are Ryu's (Adams, PLDI 2018): one multiply by a 125-bit
//! power of five (`tables.rs`) brackets the shortest decimal that reads
//! back as `v`. One rule differs from the reference: when two shortest
//! candidates are equally close, `core::fmt` takes the larger, so this
//! module does too (2⁻²⁵ prints `2.9802322387695313e-8`, not `…12e-8`).
//! `tests.rs` compares both layouts with `format!` over an edge table
//! and a million random bit patterns, and rebuilds every table entry in
//! exact arithmetic.

mod tables;

use tables::{POW5_INV_SPLIT, POW5_SPLIT};

/// Where the writer appends its bytes, which are always ASCII.
pub trait Sink {
    /// Append `ascii` (every byte below 0x80).
    fn put(&mut self, ascii: &[u8]);
}

impl Sink for String {
    fn put(&mut self, ascii: &[u8]) {
        self.push_str(std::str::from_utf8(ascii).expect("the writer emits ASCII"));
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }
}

/// Append `v` in decimal: the bytes of `format!("{v}")`.
pub fn push_u64<S: Sink + ?Sized>(out: &mut S, v: u64) {
    let mut buf = [0u8; 20];
    let n = decimal_len(v);
    put_digits(v, &mut buf[..n]);
    out.put(&buf[..n]);
}

/// Append `v` as `format!("{v:?}")` does: shortest round-trip digits,
/// exponent form outside `1e-4 <= |v| < 1e16`, and always a `.` or an
/// exponent on a finite value.
pub fn push_f64_debug<S: Sink + ?Sized>(out: &mut S, v: f64) {
    push_f64(out, v, true);
}

/// Append `v` as `format!("{v}")` does: shortest round-trip digits laid
/// out in decimal, with no exponent and no fraction on a whole number.
pub fn push_f64_display<S: Sink + ?Sized>(out: &mut S, v: f64) {
    push_f64(out, v, false);
}

/// `"00".."99"`, two digits per entry.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Digits in `v`'s decimal form.
#[inline]
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Write `v`, which has exactly `dst.len()` decimal digits, into `dst`.
#[inline]
fn put_digits(mut v: u64, dst: &mut [u8]) {
    let mut at = dst.len();
    // Eight digits at a time in 32-bit arithmetic, four independent
    // pairs each.
    while at >= 8 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        at -= 8;
        let (hi, lo) = (low / 10_000, low % 10_000);
        for (k, quad) in [(0, hi), (4, lo)] {
            let (a, b) = (2 * (quad / 100) as usize, 2 * (quad % 100) as usize);
            dst[at + k..at + k + 2].copy_from_slice(&PAIRS[a..a + 2]);
            dst[at + k + 2..at + k + 4].copy_from_slice(&PAIRS[b..b + 2]);
        }
    }
    let mut v = v as u32;
    while at >= 2 {
        let d = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        dst[at..at + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if at == 1 {
        dst[0] = b'0' + (v % 10) as u8;
    }
}

fn push_f64<S: Sink + ?Sized>(out: &mut S, v: f64, debug: bool) {
    // The longest short form is `-2.2250738585072014e-308`, 24 bytes;
    // only `{}` of a very large or very small value needs more.
    let mut buf = [b'0'; 40];
    match layout(v, debug, &mut buf) {
        Ok(len) => out.put(&buf[..len]),
        Err(long) => out.put(&long),
    }
}

/// Lay `v` out in `buf`, which holds `0`s, and return the length; a
/// `{}` too long for `buf` comes back as its own bytes instead.
fn layout(v: f64, debug: bool, buf: &mut [u8; 40]) -> Result<usize, Vec<u8>> {
    if !v.is_finite() {
        let text: &[u8] = match (v.is_nan(), v < 0.0) {
            (true, _) => b"NaN",
            (false, true) => b"-inf",
            (false, false) => b"inf",
        };
        buf[..text.len()].copy_from_slice(text);
        return Ok(text.len());
    }
    let sign = v.is_sign_negative() as usize;
    if sign == 1 {
        buf[0] = b'-';
    }
    if v == 0.0 {
        buf[sign + 1] = b'.';
        return Ok(sign + 1 + 2 * debug as usize);
    }
    let (m, exp) = d2d(v.to_bits());
    let n = decimal_len(m);
    // `v` is `0.d₁d₂…dₙ × 10^point`.
    let point = exp + n as i32;
    let abs = v.abs();
    if debug && !(1e-4..1e16).contains(&abs) {
        // `d₁.d₂…dₙe<point - 1>`, or `d₁e<point - 1>`.
        put_digits(m, &mut buf[sign + 1..sign + 1 + n]);
        buf[sign] = buf[sign + 1];
        buf[sign + 1] = b'.';
        let mut at = sign + if n > 1 { n + 1 } else { 1 };
        buf[at] = b'e';
        buf[at + 1] = b'-';
        at += 1 + (point < 1) as usize;
        let x = (point - 1).unsigned_abs() as u64;
        let x_len = decimal_len(x);
        put_digits(x, &mut buf[at..at + x_len]);
        return Ok(at + x_len);
    }
    let len = sign
        + if point <= 0 {
            2 + point.unsigned_abs() as usize + n
        } else if (point as usize) < n {
            n + 1
        } else {
            point as usize + 2 * debug as usize
        };
    if len > buf.len() {
        let mut long = vec![b'0'; len];
        long[0] = buf[0];
        decimal(&mut long[sign..], m, n, point, debug);
        return Err(long);
    }
    decimal(&mut buf[sign..len], m, n, point, debug);
    Ok(len)
}

/// Write the `n` digits `m` as `0.d₁d₂…dₙ × 10^point` in decimal into
/// `d`, which holds `0`s and is exactly long enough; a whole number
/// ends in `.0` when `frac`.
fn decimal(d: &mut [u8], m: u64, n: usize, point: i32, frac: bool) {
    if point <= 0 {
        d[1] = b'.';
        let at = d.len() - n;
        put_digits(m, &mut d[at..]);
    } else if (point as usize) < n {
        let p = point as usize;
        put_digits(m, &mut d[1..]);
        d.copy_within(1..=p, 0);
        d[p] = b'.';
    } else {
        put_digits(m, &mut d[..n]);
        if frac {
            let dot = d.len() - 2;
            d[dot] = b'.';
        }
    }
}

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
const POW5_INV_BITS: i32 = 125;
const POW5_BITS: i32 = 125;

/// `ceil(log2(5^e))` for `e >= 1`, and 1 for `e = 0`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `(m × mul) >> j` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: &[u64; 2], j: i32) -> u64 {
    let low = (m as u128 * mul[0] as u128) >> 64;
    let high = m as u128 * mul[1] as u128;
    ((low + high) >> (j - 64)) as u64
}

/// The shortest `m × 10^e` that reads back as the finite, nonzero f64
/// with `bits` (the sign is ignored). Of two equally close shortest
/// candidates it returns the larger.
fn d2d(bits: u64) -> (u64, i32) {
    let ieee_m = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_e = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // `v = m2 × 2^(e2 + 2)`: two extra bits hold the interval's halves.
    let (e2, m2) = if ieee_e == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_m)
    } else {
        (
            ieee_e - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_m,
        )
    };
    // Round-to-even reading accepts the interval's ends when `m2` is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // 0 at a power of two, where the gap below `v` is half as wide.
    let mm_shift = (ieee_m != 0 || ieee_e <= 1) as u64;
    let scale = |mul: &[u64; 2], j: i32| {
        (
            mul_shift(mv, mul, j),
            mul_shift(mv + 2, mul, j),
            mul_shift(mv - 1 - mm_shift, mul, j),
        )
    };
    // `vr`, `vp`, `vm`: the value and the interval's ends, times
    // `10^-e10`, truncated; `vm_tz` is whether `vm`'s truncation was
    // exact. (Ryu's reference also tracks `vr`'s, to round an exact tie
    // to even; `core::fmt` rounds it up, which needs no tracking.)
    let (mut vr, mut vp, mut vm);
    let e10;
    let mut vm_tz = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - (e2 > 3) as u32;
        e10 = q as i32;
        let k = POW5_INV_BITS + pow5bits(q as i32) - 1;
        (vr, vp, vm) = scale(&POW5_INV_SPLIT[q as usize], -e2 + q as i32 + k);
        // At most one of mv, mp, mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_tz = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= multiple_of_pow5(mv + 2, q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITS;
        (vr, vp, vm) = scale(&POW5_SPLIT[i as usize], q as i32 - k);
        if q <= 1 {
            // mp = mv + 2 has one trailing zero bit; mm = mv - 1 -
            // mm_shift has one iff mm_shift is 1.
            if accept_bounds {
                vm_tz = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_tz {
        // Rare: the lower end may itself be the shortest decimal, so
        // track whether every digit removed from it was zero.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_tz &= vm % 10 == 0;
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_tz {
            while vm % 10 == 0 {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        // `vm_tz` implies `accept_bounds`: an exact `vm` is inside.
        vr + ((vr == vm && !vm_tz) || last >= 5) as u64
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + (vr == vm || round_up) as u64
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests;
