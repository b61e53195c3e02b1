//! Bit pins of the divide & conquer solve with vectors.
//!
//! The merges multiply by the secular eigenvectors one row panel of `Z`
//! at a time; the pins hold the bits of the solve to one fixed value on
//! every SIMD dispatch path and thread budget. The orders span one merge
//! (26), several levels inside one panel (300) and merges wider than one
//! panel (777), on low-deflation tridiagonals from a fixed generator.

use tseig_matrix::SymTridiagonal;
use tseig_tridiag::dandc;

/// A tridiagonal with entries uniform in `[-1, 1)` (an LCG, so the pins
/// depend on no crate's generator).
fn random_tridiagonal(n: usize, seed: u64) -> SymTridiagonal {
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let d = (0..n).map(|_| next()).collect();
    let e = (0..n - 1).map(|_| next()).collect();
    SymTridiagonal::new(d, e)
}

/// FNV-1a over the bits of the eigenvalues, then the eigenvectors.
fn bits_hash(vals: &[f64], z: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals.iter().chain(z) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn stedc_bits_and_flops_are_pinned() {
    for (n, want, flops) in [
        (26, 0x2adb_ff25_2c3b_ceab, 35_152),
        (300, 0xd0a2_a18f_7099_f526, 12_010_348),
        (777, 0x168d_a64a_5669_d578, 50_667_276),
    ] {
        let t = random_tridiagonal(n, 12_345 + n as u64);
        let f0 = tseig_kernels::flops::snapshot();
        let (vals, z) = dandc::stedc(&t).unwrap();
        let got_flops = tseig_kernels::flops::snapshot().since(&f0).total();
        let got = bits_hash(&vals, z.as_slice());
        assert_eq!(
            (got, got_flops),
            (want, flops),
            "n = {n}: D&C bits and counted flops"
        );
    }
}
