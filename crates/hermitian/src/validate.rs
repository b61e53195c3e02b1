//! Validation utilities for the Hermitian pipeline.
//!
//! The eigenvalue oracle uses the classical *real embedding*: for
//! `A = X + iY` Hermitian (`X` symmetric, `Y` antisymmetric), the real
//! `2n x 2n` matrix `[[X, -Y], [Y, X]]` is symmetric with each eigenvalue
//! of `A` appearing exactly twice — so the real pipeline (already
//! validated against closed forms) certifies the complex one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tseig_matrix::{c64, CMatrix, CMatrixG, ComplexScalar, Matrix};

/// Random dense Hermitian matrix with entries in the unit box.
pub fn rand_hermitian(n: usize, seed: u64) -> CMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = CMatrix::from_fn(n, n, |_, _| {
        c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    a.hermitize_from_lower();
    a
}

/// Hermitian matrix with a prescribed (real) spectrum: random unitary
/// similarity built from complex Householder reflections.
pub fn hermitian_with_spectrum(lambda: &[f64], seed: u64) -> CMatrix {
    use tseig_kernels::householder::{larf_left, larf_right, larfg};
    use tseig_matrix::C64;
    let n = lambda.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = CMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = c64(lambda[i], 0.0);
    }
    let mut work = vec![C64::ZERO; n];
    for k in 0..n {
        let len = n - k;
        if len < 2 {
            continue;
        }
        let mut x: Vec<C64> = (0..len - 1)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let alpha = c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let (_, tau) = larfg(alpha, &mut x);
        let mut v = vec![C64::ONE];
        v.extend_from_slice(&x);
        // A <- H^H A H  (unitary similarity preserves the spectrum).
        let lda = a.ld();
        larf_left(
            &v,
            tau.conj(),
            len,
            n,
            &mut a.as_mut_slice()[k..],
            lda,
            &mut work,
        );
        // Right application on columns k..n.
        larf_right(
            &v,
            tau,
            n,
            len,
            &mut a.as_mut_slice()[k * lda..],
            lda,
            &mut work,
        );
    }
    a.hermitize_from_lower();
    a
}

/// Real symmetric `2n x 2n` embedding `[[X, -Y], [Y, X]]`. Components
/// are widened to `f64` for narrower element types, so the oracle runs
/// at full precision either way.
pub fn real_embedding<T: ComplexScalar>(a: &CMatrixG<T>) -> Matrix {
    let n = a.rows();
    Matrix::from_fn(2 * n, 2 * n, |i, j| {
        let (bi, ii) = (i / n, i % n);
        let (bj, jj) = (j / n, j % n);
        match (bi, bj) {
            (0, 0) | (1, 1) => a[(ii, jj)].re(),
            (0, 1) => -a[(ii, jj)].im(),
            _ => a[(ii, jj)].im(),
        }
    })
}

/// Oracle eigenvalues of a Hermitian matrix: solve the real embedding
/// (every eigenvalue doubled) and take every second one.
pub fn real_embedding_eigenvalues<T: ComplexScalar>(a: &CMatrixG<T>) -> Vec<f64> {
    let m = real_embedding(a);
    let f = tseig_onestage_free_eig(&m);
    f.iter().step_by(2).copied().collect()
}

/// Eigenvalues of a real symmetric matrix without depending on
/// `tseig-onestage` (QR on the Jacobi oracle would be circular enough —
/// use the independent Jacobi reference from `tseig-kernels`).
fn tseig_onestage_free_eig(m: &Matrix) -> Vec<f64> {
    tseig_kernels::reference::jacobi_eigen(m, false)
        .expect("oracle convergence")
        .eigenvalues
}

/// Scaled residual `max |A Z - Z diag(lambda)| / (||A||_1 n eps)`,
/// with `eps` the element type's precision so the usual O(1)–O(100)
/// acceptance range holds for C32 and C64 alike.
pub fn hermitian_residual<T: ComplexScalar>(
    a: &CMatrixG<T>,
    lambda: &[f64],
    z: &CMatrixG<T>,
) -> f64 {
    let n = a.rows();
    let az = a.multiply(z);
    let mut worst = 0.0f64;
    for j in 0..z.cols() {
        for i in 0..n {
            let diff = az[(i, j)] - z[(i, j)].scale(lambda[j]);
            worst = worst.max(diff.abs());
        }
    }
    let norm1 = (0..n)
        .map(|j| (0..n).map(|i| a[(i, j)].abs()).sum::<f64>())
        .fold(0.0f64, f64::max);
    worst / (norm1.max(f64::MIN_POSITIVE) * n as f64 * T::EPS / 2.0)
}

/// `||Z^H Z - I||_max / (n eps)` with the element type's `eps`.
pub fn unitary_error<T: ComplexScalar>(z: &CMatrixG<T>) -> f64 {
    let k = z.cols();
    if k == 0 {
        return 0.0; // an empty basis is trivially unitary (and 0/0 is NaN)
    }
    let g = z.adjoint().multiply(z);
    let mut worst = 0.0f64;
    for j in 0..k {
        for i in 0..k {
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((g[(i, j)] - T::new(target, 0.0)).abs());
        }
    }
    worst / (z.rows() as f64 * T::EPS / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::norms;

    #[test]
    fn embedding_doubles_spectrum() {
        let n = 8;
        let a = rand_hermitian(n, 50);
        let m = real_embedding(&a);
        // The embedding is symmetric.
        for i in 0..2 * n {
            for j in 0..2 * n {
                assert!((m[(i, j)] - m[(j, i)]).abs() < 1e-15);
            }
        }
        let all = tseig_kernels::reference::jacobi_eigen(&m, false)
            .unwrap()
            .eigenvalues;
        // Pairs.
        for p in 0..n {
            assert!((all[2 * p] - all[2 * p + 1]).abs() < 1e-9, "pair {p}");
        }
    }

    #[test]
    fn prescribed_spectrum_generator() {
        let lambda: Vec<f64> = (0..10).map(|i| i as f64 - 4.0).collect();
        let a = hermitian_with_spectrum(&lambda, 51);
        // Hermitian.
        for i in 0..10 {
            assert!(a[(i, i)].im.abs() < 1e-12);
            for j in 0..10 {
                assert!((a[(i, j)] - a[(j, i)].conj()).abs() < 1e-12);
            }
        }
        // Not still diagonal.
        assert!(a[(9, 0)].abs() > 1e-8);
        let got = real_embedding_eigenvalues(&a);
        assert!(norms::eigenvalue_distance(&got, &lambda) < 1e-9);
    }

    #[test]
    fn residual_zero_for_diagonal() {
        let n = 4;
        let a = CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                c64(i as f64 + 1.0, 0.0)
            } else {
                c64(0.0, 0.0)
            }
        });
        let z = CMatrix::identity(n);
        assert_eq!(hermitian_residual(&a, &[1.0, 2.0, 3.0, 4.0], &z), 0.0);
        assert_eq!(unitary_error(&z), 0.0);
    }
}
