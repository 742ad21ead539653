//! Radix-2 Cooley–Tukey FFT over a self-contained complex type.
//!
//! The paper's FFT analysis (§IV) prices the standard parallel algorithm:
//! local FFT work interleaved with data exchanges. This module supplies
//! the *local* pieces — an iterative in-place radix-2 transform, twiddle
//! application, and a naive DFT used as the test oracle — which
//! `psse-algos::fft` composes into the distributed transform.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` components. Self-contained to keep the
/// workspace dependency-free (`num-complex` is out of scope).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Construct from rectangular components.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// The additive identity.
    pub const ZERO: Complex64 = Complex64::new(0.0, 0.0);

    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64::new(1.0, 0.0);

    /// `e^(iθ)`.
    pub fn from_polar(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// Modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Complex64::new(self.re * s, self.im * s)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, o: Complex64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT (negative exponent convention).
    Forward,
    /// Inverse DFT (positive exponent, **including** the `1/n` scaling).
    Inverse,
}

/// Whether `n` is a power of two (the radix-2 requirement).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place bit-reversal permutation (length must be a power of two).
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    assert!(is_power_of_two(n), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// In-place iterative radix-2 FFT. `data.len()` must be a power of two.
pub fn fft_in_place(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    assert!(is_power_of_two(n), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    bit_reverse_permute(data);
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::from_polar(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex64::ONE;
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    if dir == Direction::Inverse {
        let inv_n = 1.0 / n as f64;
        for x in data.iter_mut() {
            *x = x.scale(inv_n);
        }
    }
}

/// Out-of-place forward FFT convenience wrapper.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut v = input.to_vec();
    fft_in_place(&mut v, Direction::Forward);
    v
}

/// Out-of-place inverse FFT convenience wrapper (includes `1/n`).
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let mut v = input.to_vec();
    fft_in_place(&mut v, Direction::Inverse);
    v
}

/// Naive `O(n²)` DFT — the correctness oracle.
pub fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64;
            *o += x * Complex64::from_polar(ang);
        }
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for o in out.iter_mut() {
            *o = o.scale(inv);
        }
    }
    out
}

/// Flop count of a radix-2 FFT of length `n`: `5·n·log₂n` (the standard
/// real-operation count: each butterfly is one complex multiply (6 real
/// flops) and two complex adds (4), i.e. 10 per 2 points per stage).
pub fn fft_flops(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    5 * n * n.ilog2() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = XorShift64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0)); // (1+2i)(3-i) = 5+5i
        assert!((a.abs() - 5f64.sqrt()).abs() < 1e-15);
        assert_eq!(a.norm_sqr(), 5.0);
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let x = random_signal(n, n as u64);
            let fast = fft(&x);
            let slow = dft_naive(&x, Direction::Forward);
            assert!(max_err(&fast, &slow) < 1e-9 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn inverse_recovers_input() {
        let x = random_signal(1024, 3);
        let y = ifft(&fft(&x));
        assert!(max_err(&x, &y) < 1e-11);
    }

    #[test]
    fn parseval_energy_conservation() {
        let x = random_signal(512, 4);
        let y = fft(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / 512.0;
        assert!((ex - ey).abs() / ex < 1e-12);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        for c in fft(&x) {
            assert!((c - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let x = vec![Complex64::ONE; 16];
        let y = fft(&x);
        assert!((y[0] - Complex64::new(16.0, 0.0)).abs() < 1e-12);
        for c in &y[1..] {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let x = random_signal(128, 5);
        let y = random_signal(128, 6);
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        let lhs = fft(&sum);
        let fx = fft(&x);
        let fy = fft(&y);
        let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(&a, &b)| a + b).collect();
        assert!(max_err(&lhs, &rhs) < 1e-11);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut v = vec![Complex64::ZERO; 12];
        fft_in_place(&mut v, Direction::Forward);
    }

    #[test]
    fn bit_reverse_is_involution() {
        let mut v: Vec<usize> = (0..64).collect();
        bit_reverse_permute(&mut v);
        let mut w = v.clone();
        bit_reverse_permute(&mut w);
        assert_eq!(w, (0..64).collect::<Vec<_>>());
        assert_ne!(v, (0..64).collect::<Vec<_>>());
        // Spot check: index 1 (000001) maps to 32 (100000) for 64 points.
        assert_eq!(v[1], 32);
    }

    #[test]
    fn flop_count_shape() {
        assert_eq!(fft_flops(1), 0);
        assert_eq!(fft_flops(8), 5 * 8 * 3);
        // n log n growth: doubling n slightly more than doubles flops.
        assert!(fft_flops(2048) > 2 * fft_flops(1024));
    }
}
