//! # psse-kernels — local compute kernels
//!
//! Sequential building blocks used by the distributed algorithms of
//! `psse-algos`:
//!
//! * [`matrix`] — a dense row-major [`matrix::Matrix`] with block
//!   extraction/insertion (the unit of communication in the distributed
//!   matmul/LU algorithms);
//! * [`gemm`] — cache-blocked matrix multiplication (`C += A·B`);
//! * [`strassen`] — Strassen's recursive matrix multiplication with a
//!   classical-GEMM cutoff;
//! * [`lu`] — LU factorization (with and without partial pivoting) and
//!   triangular solves;
//! * [`fft`] — an iterative radix-2 Cooley–Tukey FFT over our own
//!   [`fft::Complex64`], plus a naive DFT reference;
//! * [`nbody`] — softened gravitational pairwise force accumulation;
//! * [`sort`] — in-place sorting of `f64` keys in IEEE 754 total order;
//! * [`stencil`] — the periodic box-stencil sweep over a halo-extended
//!   buffer (the one box-sweep kernel of the serial reference and both
//!   simulator backends);
//! * [`rng`] — a tiny deterministic xorshift generator for reproducible
//!   workload construction without external dependencies.
//!
//! Everything here is deterministic and dependency-free; `rand` and
//! `proptest` appear only in dev-dependencies for testing.

#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN alongside non-positive values;
// `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Index-based loops are kept where the index participates in the math
// (grid coordinates, butterfly strides); iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod fft;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod nbody;
pub mod qr;
pub mod rng;
pub mod sort;
pub mod stencil;
pub mod strassen;

pub use fft::Complex64;
pub use matrix::Matrix;

/// `⌈log₂ x⌉`, 0 for `x ≤ 1`: the depth of a binary tree over `x`
/// leaves, as comparison and tree-level counts charge it. `#[inline]`
/// because the event engine's pricers call it per step from another
/// crate.
#[inline]
pub fn ceil_log2(x: usize) -> u64 {
    if x < 2 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as u64
    }
}
