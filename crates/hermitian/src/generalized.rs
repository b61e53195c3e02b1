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
//! Ladder parity with `tseig-core`'s `solve_generalized`: both inputs
//! are screened (`screen_hermitian` — non-finite, non-hermitian, or
//! non-real-diagonal entries are located), each is scaled into the safe
//! norm window independently, Cholesky breakdown is retried on
//! `B + delta I` and recorded as [`Recovery::CholeskyShiftRetry`], an
//! ill-conditioned factor records [`Recovery::PencilSymmetrized`], and
//! opt-in verification checks the *pencil* residual and
//! `B`-orthonormality.
//!
//! The factorization, the transform and the back-substitution are the
//! generic Cholesky kernels of `tseig-kernels` (`potrf`, `hegst`,
//! `trsm_left`) the real driver runs, monomorphized at the complex type:
//! blocked, with contracts and flop/byte accounting.

use crate::backtransform::HermScalar;
use crate::driver::{HermitianEigen, HermitianResult};
use tseig_kernels::cholesky::{hegst, potrf, trsm_left, POTRF_NB};
use tseig_kernels::scaling::{safe_scale_factor, scale_cmatrix, screen_hermitian};
use tseig_kernels::Trans;
use tseig_matrix::diagnostics::{
    Recorder, Recovery, VerifyLevel, VerifyReport, MAX_SHIFT_ATTEMPTS, VERIFY_BOUND,
};
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
    if a.rows() != a.cols() || b.rows() != b.cols() || a.rows() != b.rows() {
        return Err(Error::DimensionMismatch(format!(
            "pencil shapes {}x{} and {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let n = a.rows();
    let anorm = screen_hermitian(a)?;
    let bnorm = screen_hermitian(b)?;
    let rec = Recorder::new();
    let sa = safe_scale_factor(anorm);
    let sb = safe_scale_factor(bnorm);

    // The pencil phases poll the lifecycle control between the standard
    // solve's own checkpoints.
    let ctrl = opts.control();
    ctrl.checkpoint()?;

    // 1. B = L L^H with the shifted-retry rung.
    let load_b = || {
        let mut l = b.clone();
        if let Some(s) = sb {
            scale_cmatrix(&mut l, s);
        }
        l
    };
    let factor = |l: &mut CMatrixG<T>| potrf(n, l.as_mut_slice(), n.max(1), POTRF_NB);
    let mut l = load_b();
    if let Err(breakdown) = factor(&mut l) {
        let bscaled = bnorm * sb.unwrap_or(1.0);
        let mut shift = bscaled.max(1.0) * n as f64 * T::EPS;
        let mut rescued = None;
        for attempt in 1..=MAX_SHIFT_ATTEMPTS {
            l = load_b();
            for i in 0..n {
                let d = l[(i, i)].re() + shift;
                l[(i, i)] = T::new(d, 0.0);
            }
            if factor(&mut l).is_ok() {
                rescued = Some(attempt);
                break;
            }
            shift *= 100.0;
        }
        match rescued {
            Some(attempts) => rec.record(Recovery::CholeskyShiftRetry { shift, attempts }),
            None => return Err(breakdown),
        }
    }
    let mut dmin = f64::INFINITY;
    let mut dmax = 0.0f64;
    for i in 0..n {
        let d = l[(i, i)].re();
        dmin = dmin.min(d);
        dmax = dmax.max(d);
    }
    let cond = if dmin > 0.0 {
        (dmax / dmin).powi(2)
    } else {
        f64::INFINITY
    };
    if cond > 1.0 / T::EPS.sqrt() {
        rec.record(Recovery::PencilSymmetrized { cond });
    }

    // 2. C = L^-1 A L^-H (made exactly Hermitian by hegst).
    ctrl.checkpoint()?;
    let mut c = a.clone();
    if let Some(s) = sa {
        scale_cmatrix(&mut c, s);
    }
    c.hermitize_from_lower();
    let ldc = c.ld().max(1);
    hegst(n, c.as_mut_slice(), ldc, l.as_slice(), l.ld().max(1));

    // 3. Standard Hermitian two-stage solve.
    let mut result = opts.solve(&c)?;

    // 4. x = L^-H y, plus sqrt(sb) to restore X^H B X = I against the
    // unscaled B.
    ctrl.checkpoint()?;
    if let Some(z) = result.eigenvectors.as_mut() {
        let k = z.cols();
        let (ldz, ldl) = (z.ld().max(1), l.ld().max(1));
        trsm_left(
            Trans::Yes,
            n,
            k,
            T::ONE,
            l.as_slice(),
            ldl,
            z.as_mut_slice(),
            ldz,
        );
        if let Some(s) = sb {
            let f = s.sqrt();
            for v in z.as_mut_slice() {
                *v = v.scale(f);
            }
        }
    }
    if sa.is_some() || sb.is_some() {
        let back = sb.unwrap_or(1.0) / sa.unwrap_or(1.0);
        for v in &mut result.eigenvalues {
            *v *= back;
        }
        result.diagnostics.scaled_by = Some(sa.unwrap_or(1.0) / sb.unwrap_or(1.0));
    }
    let pre = rec.take();
    if !pre.is_empty() {
        result.diagnostics.degraded = true;
        result.diagnostics.recoveries.splice(0..0, pre);
    }
    // Pencil-level verification replaces the inner (standard-C) report.
    let level = opts.verify_level();
    if level != VerifyLevel::Off {
        if let Some(z) = result.eigenvectors.as_ref() {
            let residual = generalized_residual(a, b, &result.eigenvalues, z);
            if residual > VERIFY_BOUND || residual.is_nan() {
                return Err(Error::VerificationFailed {
                    index: 0,
                    measure: "generalized residual".to_string(),
                    value: residual,
                    bound: VERIFY_BOUND,
                });
            }
            let orthogonality = if level == VerifyLevel::Full {
                let o = b_orthogonality(b, z);
                if o > VERIFY_BOUND || o.is_nan() {
                    return Err(Error::VerificationFailed {
                        index: 0,
                        measure: "B-orthogonality".to_string(),
                        value: o,
                        bound: VERIFY_BOUND,
                    });
                }
                o
            } else {
                0.0
            };
            result.diagnostics.verify = Some(VerifyReport {
                residual,
                orthogonality,
            });
        }
    }
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
    let ax = a.multiply(x);
    let bx = b.multiply(x);
    let norm1 = |m: &CMatrixG<T>| {
        (0..m.cols())
            .map(|j| (0..m.rows()).map(|i| m[(i, j)].abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
    };
    let na = norm1(a);
    let nb = norm1(b);
    let n = a.rows() as f64;
    let mut worst = 0.0f64;
    for (j, &lj) in lambda.iter().enumerate() {
        let mut num = 0.0f64;
        for i in 0..a.rows() {
            let diff = ax[(i, j)] - bx[(i, j)].scale(lj);
            num = num.max(diff.abs());
        }
        let den = (na + lj.abs() * nb).max(f64::MIN_POSITIVE) * n * T::EPS / 2.0;
        worst = worst.max(num / den);
    }
    worst
}

/// `||X^H B X - I||_max / (n eps)` with the element type's `eps`.
pub fn b_orthogonality<T: ComplexScalar>(b: &CMatrixG<T>, x: &CMatrixG<T>) -> f64 {
    if b.cols() != x.rows() {
        return f64::INFINITY;
    }
    let k = x.cols();
    if k == 0 {
        return 0.0; // an empty basis is trivially B-orthonormal (and 0/0 is NaN)
    }
    let g = x.adjoint().multiply(&b.multiply(x));
    let mut worst = 0.0f64;
    for j in 0..k {
        for i in 0..k {
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((g[(i, j)] - T::new(target, 0.0)).abs());
        }
    }
    worst / (x.rows() as f64 * T::EPS / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{hermitian_with_spectrum, rand_hermitian, real_embedding_eigenvalues};
    use tseig_matrix::{norms, CMatrix, C32, C64};

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
