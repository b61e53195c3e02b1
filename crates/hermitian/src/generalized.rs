//! Generalized Hermitian-definite eigenproblem `A x = lambda B x`
//! (`zhegv`/`chegv` equivalent), generic over the complex element width.
//!
//! Same reduction as the real driver (`dsygv` ITYPE=1), in complex
//! arithmetic:
//!
//! 1. `B = L L^H` (complex Cholesky, real positive pivots),
//! 2. `C = L^-1 A L^-H` — standard Hermitian with the pencil's
//!    (real) eigenvalues,
//! 3. [`crate::HermitianEigen`] two-stage solve on `C`,
//! 4. `x = L^-H y`; the eigenvectors are `B`-orthonormal:
//!    `X^H B X = I`.
//!
//! Both inputs are screened (`screen_hermitian` — non-finite,
//! non-hermitian, or non-real-diagonal entries are located); steps 1, 2
//! and 4 with their recovery rungs (independent scaling of `A` and `B`,
//! [`Recovery::CholeskyShiftRetry`](crate::Recovery),
//! [`Recovery::PencilSymmetrized`](crate::Recovery)) and the opt-in
//! pencil verification are `tseig_kernels::pencil`, the code the real
//! driver runs, monomorphized at the complex type.

use crate::backtransform::HermScalar;
use crate::driver::{HermitianEigen, HermitianResult};
use tseig_kernels::pencil;
use tseig_kernels::scaling::screen_hermitian;
use tseig_matrix::{CMatrixG, ComplexScalar, Error, Result};

/// Solve the Hermitian-definite pencil `A x = lambda B x` with the
/// two-stage pipeline configured in `opts` for the standard stage —
/// `CMatrix` gives the `zhegv`-equivalent solve, `CMatrixG<C32>` the
/// `chegv`-equivalent one. Returned eigenvectors satisfy `X^H B X = I`.
pub fn solve_generalized<T: HermScalar>(
    a: &CMatrixG<T>,
    b: &CMatrixG<T>,
    opts: &HermitianEigen,
) -> Result<HermitianResult<T>> {
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        let (ac, br, bc) = (a.cols(), b.rows(), b.cols());
        let msg = format!("pencil shapes {n}x{ac} and {br}x{bc}");
        return Err(Error::DimensionMismatch(msg));
    }
    let anorm = screen_hermitian(a)?;
    let bnorm = screen_hermitian(b)?;
    let (lda, ldb) = (a.ld().max(1), b.ld().max(1));
    let (mut l, mut c) = (CMatrixG::zeros(n, n), CMatrixG::zeros(n, n));
    let (ls, cs, ctrl) = (l.as_mut_slice(), c.as_mut_slice(), opts.control());
    let (a, b) = (a.as_slice(), b.as_slice());
    let reduced = pencil::reduce(n, a, lda, anorm, b, ldb, bnorm, ls, cs, ctrl)?;

    let (inner, level) = opts.pencil_inner(&reduced);
    let mut result = inner.solve(&c)?;

    let z = result.eigenvectors.as_mut().map(|z| z.as_mut_slice());
    let (lambda, diagnostics) = (&mut result.eigenvalues, &mut result.diagnostics);
    reduced.finish(n, l.as_slice(), lambda, z, diagnostics, ctrl)?;
    let x = result.eigenvectors.as_ref().map(|x| x.as_slice());
    let lambda = &result.eigenvalues;
    result.diagnostics.verify = pencil::verify(n, a, lda, Some((b, ldb)), lambda, x, level)?;
    Ok(result)
}

/// Scaled pencil residual
/// `max_j ||A x_j - lambda_j B x_j|| / ((||A|| + |lambda_j| ||B||) n eps)`
/// with the element type's `eps`.
pub fn generalized_residual<T: ComplexScalar>(
    a: &CMatrixG<T>,
    b: &CMatrixG<T>,
    lambda: &[f64],
    x: &CMatrixG<T>,
) -> f64 {
    if a.cols() != x.rows() || b.cols() != x.rows() || x.cols() != lambda.len() {
        return f64::INFINITY;
    }
    let (n, b) = (a.rows(), Some((b.as_slice(), b.ld().max(1))));
    pencil::residual_worst(n, a.as_slice(), a.ld().max(1), b, lambda, x.as_slice()).0
}

/// `||X^H B X - I||_max / (n eps)` with the element type's `eps`.
pub fn b_orthogonality<T: ComplexScalar>(b: &CMatrixG<T>, x: &CMatrixG<T>) -> f64 {
    if b.cols() != x.rows() {
        return f64::INFINITY;
    }
    let (n, b) = (x.rows(), Some((b.as_slice(), b.ld().max(1))));
    pencil::gram_error(n, b, x.as_slice(), x.cols()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{hermitian_with_spectrum, rand_hermitian, real_embedding_eigenvalues};
    use crate::{Recovery, VerifyLevel};
    use tseig_kernels::cholesky::{hegst, potrf, POTRF_NB};
    use tseig_matrix::{norms, CMatrix, C32, C64};
    use tseig_tridiag::EigenRange;

    /// Hermitian positive definite with spectrum in [1, 2].
    fn hpd(n: usize, seed: u64) -> CMatrix {
        let lambda: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
        hermitian_with_spectrum(&lambda, seed)
    }

    fn to_c32(a: &CMatrix) -> CMatrixG<C32> {
        CMatrixG::from_fn(a.rows(), a.cols(), |i, j| {
            C32::new(a[(i, j)].re(), a[(i, j)].im())
        })
    }

    /// Pencil oracle: eigenvalues of C = L^-1 A L^-H via the real
    /// embedding of C.
    fn oracle(a: &CMatrix, b: &CMatrix) -> Vec<f64> {
        let n = a.rows();
        let mut l = b.clone();
        potrf(n, l.as_mut_slice(), n, POTRF_NB).unwrap();
        let mut c = a.clone();
        c.hermitize_from_lower();
        hegst(n, c.as_mut_slice(), n, l.as_slice(), n);
        real_embedding_eigenvalues(&c)
    }

    #[test]
    fn cholesky_reconstructs() {
        let n = 12;
        let b = hpd(n, 1);
        let mut l = b.clone();
        potrf(n, l.as_mut_slice(), n, POTRF_NB).unwrap();
        let llh = l.multiply(&l.adjoint());
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (llh[(i, j)] - b[(i, j)]).abs() < 1e-12 * n as f64,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let n = 5;
        let mut b = CMatrix::identity(n);
        b[(3, 3)] = C64::new(-1.0, 0.0);
        assert!(potrf(n, b.clone().as_mut_slice(), n, POTRF_NB).is_err());
        let a = rand_hermitian(n, 2);
        assert!(solve_generalized(&a, &b, &HermitianEigen::new()).is_err());
    }

    #[test]
    fn reduces_to_standard_when_b_is_identity() {
        let n = 20;
        let a = rand_hermitian(n, 3);
        let id = CMatrix::identity(n);
        let gen_r = solve_generalized(&a, &id, &HermitianEigen::new().nb(4)).unwrap();
        let std_r = HermitianEigen::new().nb(4).solve(&a).unwrap();
        assert!(norms::eigenvalue_distance(&gen_r.eigenvalues, &std_r.eigenvalues) < 1e-10);
    }

    #[test]
    fn zhegv_matches_oracle_c64() {
        let n = 16;
        let a = rand_hermitian(n, 4);
        let b = hpd(n, 5);
        let r = solve_generalized(&a, &b, &HermitianEigen::new().nb(4)).unwrap();
        let want = oracle(&a, &b);
        assert!(
            norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-8,
            "\n got {:?}\nwant {want:?}",
            r.eigenvalues
        );
        let x = r.eigenvectors.as_ref().unwrap();
        assert!(generalized_residual(&a, &b, &r.eigenvalues, x) < 1000.0);
        assert!(b_orthogonality(&b, x) < 1000.0);
    }

    #[test]
    fn chegv_matches_oracle_c32() {
        let n = 12;
        let a64 = rand_hermitian(n, 6);
        let b64 = hpd(n, 7);
        let a = to_c32(&a64);
        let b = to_c32(&b64);
        let r = solve_generalized(&a, &b, &HermitianEigen::new().nb(4)).unwrap();
        // Oracle in f64 on the narrowed data.
        let a_back = CMatrix::from_fn(n, n, |i, j| C64::new(a[(i, j)].re(), a[(i, j)].im()));
        let b_back = CMatrix::from_fn(n, n, |i, j| C64::new(b[(i, j)].re(), b[(i, j)].im()));
        let want = oracle(&a_back, &b_back);
        for (got, want) in r.eigenvalues.iter().zip(&want) {
            assert!(
                (got - want).abs() < 1e-3,
                "c32 eigenvalue {got} vs oracle {want}"
            );
        }
        let x = r.eigenvectors.as_ref().unwrap();
        assert!(generalized_residual(&a, &b, &r.eigenvalues, x) < 1000.0);
        assert!(b_orthogonality(&b, x) < 1000.0);
    }

    #[test]
    fn verify_checks_the_pencil() {
        let n = 14;
        let a = rand_hermitian(n, 8);
        let b = hpd(n, 9);
        let r = solve_generalized(
            &a,
            &b,
            &HermitianEigen::new().nb(4).verify(VerifyLevel::Full),
        )
        .unwrap();
        let rep = r.diagnostics.verify.expect("verify requested");
        assert!(rep.residual < 1000.0 && rep.orthogonality < 1000.0);
    }

    #[test]
    fn order_zero_pencil_passes_full_verification() {
        // An empty basis measures 0, not 0/0 = NaN.
        let empty = CMatrix::zeros(0, 0);
        let r = solve_generalized(
            &empty,
            &empty,
            &HermitianEigen::new().verify(VerifyLevel::Full),
        )
        .unwrap();
        assert!(r.eigenvalues.is_empty());
        let rep = r.diagnostics.verify.expect("verify requested");
        assert_eq!((rep.residual, rep.orthogonality), (0.0, 0.0));
        assert_eq!(b_orthogonality(&empty, &empty), 0.0);
        assert_eq!(crate::validate::unitary_error(&empty), 0.0);
    }

    #[test]
    fn near_semidefinite_b_is_rescued_by_shift() {
        let n = 10;
        let a = rand_hermitian(n, 10);
        let lambda: Vec<f64> = (0..n)
            .map(|i| if i == 0 { -1e-14 } else { 1.0 + i as f64 })
            .collect();
        let b = hermitian_with_spectrum(&lambda, 11);
        let r = solve_generalized(&a, &b, &HermitianEigen::new().nb(4)).unwrap();
        assert!(r.diagnostics.degraded);
        assert!(
            r.diagnostics
                .recoveries
                .iter()
                .any(|x| matches!(x, Recovery::CholeskyShiftRetry { .. })),
            "{:?}",
            r.diagnostics.recoveries
        );
    }

    #[test]
    fn value_range_selects_in_the_pencil_units() {
        // A = diag(1..6) s, B = I: (1.5 s, 3.5 s] holds 2 s and 3 s at
        // every scale, also where A is scaled into the safe window.
        for s in [1.0, 1e200, 1e-200] {
            let a = CMatrix::from_fn(6, 6, |i, j| {
                C64::new(if i == j { (i + 1) as f64 * s } else { 0.0 }, 0.0)
            });
            let opts = HermitianEigen::new()
                .nb(2)
                .range(EigenRange::Value(1.5 * s, 3.5 * s));
            let r = solve_generalized(&a, &CMatrix::identity(6), &opts).unwrap();
            assert_eq!(r.eigenvalues.len(), 2, "s = {s}: {:?}", r.eigenvalues);
            for (got, want) in r.eigenvalues.iter().zip([2.0 * s, 3.0 * s]) {
                assert!(
                    (got - want).abs() <= 1e-12 * want,
                    "s = {s}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn screening_locates_offenders() {
        let n = 6;
        let a = rand_hermitian(n, 12);
        let b = hpd(n, 13);
        let mut bad = a.clone();
        bad[(2, 4)] = C64::new(f64::NAN, 0.0);
        match solve_generalized(&bad, &b, &HermitianEigen::new()) {
            Err(Error::InvalidData { .. }) => {}
            other => panic!("wrong screening result: {other:?}"),
        }
        let mut bad_b = b.clone();
        bad_b[(1, 0)] += C64::new(10.0, 0.0); // breaks hermiticity
        match solve_generalized(&a, &bad_b, &HermitianEigen::new()) {
            Err(Error::InvalidData { .. }) => {}
            other => panic!("wrong screening result: {other:?}"),
        }
    }
}
