//! Automatic communication lower bounds from loop nests.
//!
//! Write the kernel, not the bound: the HBL linear program derives the
//! communication exponent σ_HBL from the array subscripts alone, and the
//! bridge prices the resulting `W = Ω(#iter / M^(σ-1))` bound through
//! the paper's Eq. 1/2 machine model.
//!
//! Run with: `cargo run --release --example hbl_bounds`

use psse::prelude::*;

fn main() {
    // 1. A kernel in the text grammar — this is all the analyzer sees.
    let matmul = Kernel::parse(
        "kernel = matmul\n\
         for i in 0..n\n\
         for j in 0..n\n\
         for k in 0..n\n\
         C[i,j] += A[i,k] * B[k,j]\n",
    )
    .unwrap();
    let hbl = analyze(&matmul).unwrap();
    println!("matmul: sigma = {} (exact rational)", hbl.sigma);
    println!(
        "bound : {}",
        hbl.bound_string(matmul.indices.len()).unwrap()
    );
    for (r, s) in matmul.refs.iter().zip(&hbl.exponents) {
        println!("        s({}) = {s}", r.render(&matmul.indices));
    }

    // 2. The n-body kernel: the same array read through two index maps
    //    is two references.
    let nbody = Kernel::parse(
        "kernel = nbody\n\
         for i in 0..n\n\
         for j in 0..n\n\
         F[i] += P[i] * P[j]\n",
    )
    .unwrap();
    let hbl = analyze(&nbody).unwrap();
    println!("\nnbody : sigma = {}", hbl.sigma);
    println!("bound : {}", hbl.bound_string(nbody.indices.len()).unwrap());

    // 3. Bridge to the paper's machine model: the derived cost model
    //    prices the energy-optimal memory and the perfect-strong-scaling
    //    processor range, bit-for-bit identical to the hand-written
    //    optimizers in psse-core.
    let machine = jaketown();
    let (cost, derived) = derive(&nbody).unwrap();
    println!(
        "\nfamily: {:?} (depth {}, rmax {})",
        cost.family(),
        cost.depth,
        cost.rmax
    );
    let n = 10_000_000;
    let opt = cost.energy_optimum(&machine, n).unwrap();
    println!(
        "n = {n}: M0 = {:.4e} words, E* = {:.4e} J for p in [{:.4}, {:.4}]",
        opt.m0, opt.e_star, opt.p_lo, opt.p_hi
    );
    let _ = derived; // the full analysis rides along for reporting

    // 4. Kernels also live in files; the CLI and the lab read the same
    //    grammar (`psse bound solve --kernel specs/kernels/matmul.kernel`,
    //    `kernel = <file>` in a sweep spec).
    let path = format!("{}/specs/kernels/tensor.kernel", env!("CARGO_MANIFEST_DIR"));
    let tensor = Kernel::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let hbl = analyze(&tensor).unwrap();
    println!(
        "\n{} (from specs/kernels): sigma = {}, {}",
        tensor.name,
        hbl.sigma,
        hbl.bound_string(tensor.indices.len()).unwrap()
    );
    assert_eq!(hbl.sigma, Rational::new(3, 2).unwrap());
}
