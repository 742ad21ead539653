//! `strassen_with_cutoff`, pinned bit for bit: for each size and cutoff
//! below, a digest of the product's bits. The values were captured from
//! the recursion that spelled its seven operand pairs and its combine
//! inline; any rewrite must perform the same block operations in the
//! same order and so reproduce them exactly.

use psse_kernels::matrix::Matrix;
use psse_kernels::strassen::strassen_with_cutoff;

/// FNV-1a over the little-endian bytes of every entry's bits.
fn digest(m: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in m.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const SIZES: [usize; 5] = [1, 7, 16, 33, 47];
const CUTOFFS: [usize; 3] = [1, 4, 16];

/// `PINS[s][c]` is the digest at `SIZES[s]`, `CUTOFFS[c]`.
const PINS: [[u64; 3]; 5] = [
    [0x2709c32544d092b3, 0x2709c32544d092b3, 0x2709c32544d092b3],
    [0x5d7b765760b93d9b, 0x1093761604d50c4e, 0x4318949191cbcd96],
    [0x768addc8e63b50d2, 0x38c8543de2cc34f8, 0x9e87ca3f78832991],
    [0xa5e8a3ab6e9b0102, 0x83fff47ef1362437, 0xa462249063a5f98f],
    [0x4e733be38468c61a, 0xd23a6533ab26fbf9, 0x89b72d8be827e73b],
];

#[test]
fn products_are_pinned_bit_for_bit() {
    let mut bad = Vec::new();
    for (s, &n) in SIZES.iter().enumerate() {
        let a = Matrix::random(n, n, 100 + n as u64);
        let b = Matrix::random(n, n, 200 + n as u64);
        for (c, &cutoff) in CUTOFFS.iter().enumerate() {
            let got = digest(&strassen_with_cutoff(&a, &b, cutoff));
            if got != PINS[s][c] {
                bad.push(format!("n = {n}, cutoff = {cutoff}: {got:#018x}"));
            }
        }
    }
    assert!(bad.is_empty(), "products moved:\n{}", bad.join("\n"));
}
