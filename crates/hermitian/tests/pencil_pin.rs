//! Bit-level pins of the Hermitian-definite pencil solve at C64 and C32.
//!
//! A seeded pencil of order 67 (not a multiple of the band width 6) goes
//! through `solve_generalized` with eigenvectors; the hash covers every
//! eigenvalue and every eigenvector entry. The Cholesky factor, the
//! `L^-1 A L^-H` transform, the standard solve and the back-substitution
//! all feed those bits, so a change to any of them that alters one bit
//! fails here. The pencil residual and `B`-orthonormality are checked
//! too, so a pin cannot be re-recorded on a wrong answer.

use tseig_hermitian::generalized::{b_orthogonality, generalized_residual, solve_generalized};
use tseig_hermitian::{validate, HermScalar, HermitianEigen, VERIFY_BOUND};
use tseig_matrix::{CMatrix, CMatrixG, C32, C64};

const N: usize = 67;

/// FNV-1a over a stream of `f64` bit patterns.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The pencil `(A, B)`: `A` random Hermitian, `B` Hermitian positive
/// definite with its spectrum in `[1, 3]`.
fn pencil() -> (CMatrix, CMatrix) {
    let a = validate::rand_hermitian(N, 91);
    let spectrum: Vec<f64> = (0..N).map(|i| 1.0 + 2.0 * i as f64 / N as f64).collect();
    (a, validate::hermitian_with_spectrum(&spectrum, 92))
}

fn pencil_hash<T: HermScalar>(a: &CMatrixG<T>, b: &CMatrixG<T>) -> u64 {
    let r = solve_generalized(a, b, &HermitianEigen::new().nb(6)).unwrap();
    let x = r.eigenvectors.as_ref().expect("vectors");
    assert_eq!((r.eigenvalues.len(), x.cols()), (N, N));
    let residual = generalized_residual(a, b, &r.eigenvalues, x);
    let orthogonality = b_orthogonality(b, x);
    assert!(residual < VERIFY_BOUND, "pencil residual {residual}");
    assert!(
        orthogonality < VERIFY_BOUND,
        "B-orthogonality {orthogonality}"
    );
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for &l in &r.eigenvalues {
        h.eat(l);
    }
    for &z in x.as_slice() {
        h.eat(z.re());
        h.eat(z.im());
    }
    h.0
}

#[test]
fn c64_pencil_solve_pinned() {
    let (a, b) = pencil();
    assert_eq!(pencil_hash::<C64>(&a, &b), 0xddfa_2c10_6253_1aea);
}

#[test]
fn c32_pencil_solve_pinned() {
    let (a, b) = pencil();
    let (a, b) = (
        CMatrixG::<C32>::from_cmatrix(&a),
        CMatrixG::from_cmatrix(&b),
    );
    assert_eq!(pencil_hash(&a, &b), 0x950a_eaa3_daca_485d);
}
