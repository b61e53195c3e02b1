//! Generalized symmetric-definite eigenproblem `A x = lambda B x`.
//!
//! The historical root of the two-stage idea (paper §2 cites Grimes &
//! Simon's out-of-core *generalized* solvers as the first use of a
//! two-stage reduction). The standard reduction (`dsygv` ITYPE=1):
//!
//! 1. `B = L L^T` (Cholesky),
//! 2. `C = L^-1 A L^-T` — a *standard* symmetric problem with the same
//!    eigenvalues as the pencil `(A, B)`,
//! 3. solve `C y = lambda y` with the two-stage pipeline,
//! 4. back-substitute `x = L^-T y`; the eigenvectors are
//!    `B`-orthonormal: `X^T B X = I`.
//!
//! This is a first-class driver, not a wrapper: both pencil matrices are
//! screened on entry (NaN/Inf and asymmetry with offender location),
//! and steps 1, 2 and 4 with their recovery rungs (`DSYGV` scaling, the
//! Cholesky shift retry, the conditioning record) and the pencil-level
//! verification are `tseig_kernels::pencil`, the code the complex driver
//! runs. Every detour lands in the result's `SolveDiagnostics`. All
//! working storage lives in a reusable [`GenPlan`].

use crate::driver::{SymmetricEigen, TwoStageResult};
use crate::plan::SolvePlan;
use tseig_kernels::pencil;
use tseig_kernels::scaling::screen_symmetric;
use tseig_matrix::{Error, Matrix, Result};

/// Reusable buffers of the generalized driver: the Cholesky factor, the
/// transformed standard matrix, and the standard solve's own
/// [`SolvePlan`]. Repeated same-size solves touch the allocator only
/// through the scheduled/fallback machinery of the inner solve.
#[derive(Default)]
pub struct GenPlan {
    /// Cholesky factor of (scaled, possibly shifted) `B`.
    l: Matrix,
    /// `C = L^-1 A L^-T`, then overwritten by the standard pipeline.
    c: Matrix,
    /// Buffers of the standard two-stage solve.
    inner: SolvePlan,
}

impl GenPlan {
    pub fn new() -> GenPlan {
        GenPlan::default()
    }

    /// Bytes of heap capacity currently retained (excluding the inner
    /// standard-solve plan's transient scheduler state).
    pub fn footprint_bytes(&self) -> usize {
        self.l.capacity_bytes() + self.c.capacity_bytes() + self.inner.footprint_bytes()
    }
}

/// Solve `A x = lambda B x` for symmetric `A` and SPD `B`, using the
/// two-stage pipeline configured in `opts` for the standard stage.
///
/// The returned eigenvectors (if requested) satisfy `X^T B X = I`.
pub fn solve_generalized(a: &Matrix, b: &Matrix, opts: &SymmetricEigen) -> Result<TwoStageResult> {
    let mut plan = GenPlan::new();
    solve_generalized_with_plan(a, b, opts, &mut plan)
}

/// [`solve_generalized`] into a caller-owned [`GenPlan`]: identical
/// results, but the factor/transform buffers and the inner standard
/// plan persist across calls (the batch path holds one plan per
/// worker).
pub fn solve_generalized_with_plan(
    a: &Matrix,
    b: &Matrix,
    opts: &SymmetricEigen,
    plan: &mut GenPlan,
) -> Result<TwoStageResult> {
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        let (ac, br, bc) = (a.cols(), b.rows(), b.cols());
        let msg = format!("pencil shapes {n}x{ac} and {br}x{bc}");
        return Err(Error::DimensionMismatch(msg));
    }
    // Screen both matrices before touching either: non-finite entries and
    // gross asymmetry are surfaced with their location.
    let anorm = screen_symmetric(a)?;
    let bnorm = screen_symmetric(b)?;
    let (lda, ldb) = (a.ld().max(1), b.ld().max(1));
    plan.l.reset_to(n, n);
    plan.c.reset_to(n, n);
    let (l, c, ctrl) = (plan.l.as_mut_slice(), plan.c.as_mut_slice(), opts.control());
    let (a, b) = (a.as_slice(), b.as_slice());
    let reduced = pencil::reduce(n, a, lda, anorm, b, ldb, bnorm, l, c, ctrl)?;

    let (inner, level) = opts.pencil_inner(&reduced);
    inner.solve_into(&plan.c, &mut plan.inner)?;
    let mut result = plan.inner.take_result();

    let z = result.eigenvectors.as_mut().map(|z| z.as_mut_slice());
    let (lambda, diagnostics) = (&mut result.eigenvalues, &mut result.diagnostics);
    reduced.finish(n, plan.l.as_slice(), lambda, z, diagnostics, ctrl)?;
    let x = result.eigenvectors.as_ref().map(|x| x.as_slice());
    let lambda = &result.eigenvalues;
    result.diagnostics.verify = pencil::verify(n, a, lda, Some((b, ldb)), lambda, x, level)?;
    Ok(result)
}

/// Scaled residual for the generalized problem:
/// `max_j ||A x_j - lambda_j B x_j|| / ((||A|| + |lambda_j| ||B||) n eps)`.
pub fn generalized_residual(a: &Matrix, b: &Matrix, lambda: &[f64], x: &Matrix) -> f64 {
    // Mismatched shapes make the residual meaningless; report it loudly
    // as "infinitely bad" rather than aborting a diagnostic routine.
    if a.cols() != x.rows() || b.cols() != x.rows() || x.cols() != lambda.len() {
        return f64::INFINITY;
    }
    let (n, b) = (a.rows(), Some((b.as_slice(), b.ld().max(1))));
    pencil::residual_worst(n, a.as_slice(), a.ld().max(1), b, lambda, x.as_slice()).0
}

/// `||X^T B X - I||_max / (n eps)` — B-orthonormality of the vectors.
pub fn b_orthogonality(b: &Matrix, x: &Matrix) -> f64 {
    // Same loud-failure convention as `generalized_residual`.
    if b.cols() != x.rows() {
        return f64::INFINITY;
    }
    let (n, b) = (x.rows(), Some((b.as_slice(), b.ld().max(1))));
    pencil::gram_error(n, b, x.as_slice(), x.cols()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_kernels::cholesky::{hegst, potrf};
    use tseig_kernels::scaling::scale_matrix;
    use tseig_matrix::diagnostics::{Recovery, VerifyLevel};
    use tseig_matrix::gen;
    use tseig_tridiag::EigenRange;

    fn spd(n: usize, seed: u64) -> Matrix {
        let g = gen::random_symmetric(n, seed);
        let mut m = g.multiply(&g.transpose()).unwrap();
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    }

    /// SPD with eigenvalues spread over [1/kappa, 1].
    fn spd_with_condition(n: usize, kappa: f64, seed: u64) -> Matrix {
        let lambda: Vec<f64> = (0..n)
            .map(|i| kappa.powf(-(i as f64) / (n - 1) as f64))
            .collect();
        gen::symmetric_with_spectrum(&lambda, seed)
    }

    /// Dense scalar oracle for the pencil: eigenvalues of L^-1 A L^-T by
    /// Jacobi iteration.
    fn oracle_pencil_eigenvalues(a: &Matrix, b: &Matrix) -> Vec<f64> {
        let n = a.rows();
        let mut l = b.clone();
        potrf(n, l.as_mut_slice(), n, 8).unwrap();
        let mut c = a.clone();
        c.symmetrize_from_lower();
        hegst(n, c.as_mut_slice(), n, l.as_slice(), n);
        let mut ev = tseig_kernels::reference::jacobi_eigen(&c, false)
            .unwrap()
            .eigenvalues;
        ev.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(ev.len(), n);
        ev
    }

    #[test]
    fn reduces_to_standard_when_b_is_identity() {
        let n = 40;
        let a = gen::random_symmetric(n, 10);
        let id = Matrix::identity(n);
        let gen_r = solve_generalized(&a, &id, &SymmetricEigen::new().nb(6)).unwrap();
        let std_r = SymmetricEigen::new().nb(6).solve(&a).unwrap();
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&gen_r.eigenvalues, &std_r.eigenvalues)
                < 1e-10
        );
    }

    #[test]
    fn random_pencil_residuals() {
        let n = 50;
        let a = gen::random_symmetric(n, 11);
        let b = spd(n, 12);
        let r = solve_generalized(&a, &b, &SymmetricEigen::new().nb(8)).unwrap();
        let x = r.eigenvectors.as_ref().unwrap();
        assert!(generalized_residual(&a, &b, &r.eigenvalues, x) < 1000.0);
        assert!(b_orthogonality(&b, x) < 1000.0);
        assert!(r.eigenvalues.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn matches_scalar_oracle() {
        let n = 24;
        let a = gen::random_symmetric(n, 20);
        let b = spd(n, 21);
        let r = solve_generalized(&a, &b, &SymmetricEigen::new().nb(4)).unwrap();
        let want = oracle_pencil_eigenvalues(&a, &b);
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-9,
            "\n got {:?}\nwant {want:?}",
            r.eigenvalues
        );
    }

    #[test]
    fn ill_conditioned_b_stays_accurate() {
        // kappa(B) swept up to 1e12: eigenvalues still match the scalar
        // oracle to a kappa-scaled tolerance, vectors stay B-orthonormal,
        // and the 1e12 pencil records its conditioning hazard.
        let n = 20;
        for (kappa, seed) in [(1e4, 30u64), (1e8, 31), (1e12, 32)] {
            let a = gen::random_symmetric(n, seed);
            let b = spd_with_condition(n, kappa, seed + 100);
            let r = solve_generalized(&a, &b, &SymmetricEigen::new().nb(4)).unwrap();
            let x = r.eigenvectors.as_ref().unwrap();
            // dsygv-style forward-error model: the reduction is backward
            // stable for C = L^-1 A L^-T, so the pencil-level measures
            // grow like sqrt(kappa(B)) = kappa(L).
            let res = generalized_residual(&a, &b, &r.eigenvalues, x);
            assert!(res < 1e3 * kappa.sqrt(), "kappa={kappa}: residual {res}");
            // B-orthogonality is measured against B itself, so its loss
            // tracks kappa(B) (not kappa(L)): X comes out orthonormal
            // against the *factored* (shift-perturbed, rounded) B.
            let orth = b_orthogonality(&b, x);
            assert!(orth < 10.0 * kappa, "kappa={kappa}: B-orthogonality {orth}");
            let want = oracle_pencil_eigenvalues(&a, &b);
            // Relative-to-spread accuracy degrades like kappa * eps.
            let spread = want.last().unwrap() - want.first().unwrap();
            let tol = 1e3 * kappa * f64::EPSILON * spread.max(1.0);
            for (got, want) in r.eigenvalues.iter().zip(&want) {
                assert!(
                    (got - want).abs() < tol,
                    "kappa={kappa}: {got} vs {want} (tol {tol:.3e})"
                );
            }
            if kappa >= 1e12 {
                assert!(
                    r.diagnostics
                        .recoveries
                        .iter()
                        .any(|x| matches!(x, Recovery::PencilSymmetrized { .. })),
                    "kappa={kappa} must record the conditioning hazard: {:?}",
                    r.diagnostics.recoveries
                );
            }
        }
    }

    #[test]
    fn extreme_pencil_norms_are_rescaled() {
        // One matrix at a time leaves the safe window (scaling both by
        // 1e±200 would put lambda at 1e-400, below the f64 denormals);
        // the driver scales it in and the eigenvalues come back in the
        // original units (lambda scales as A/B).
        let n = 14;
        let a0 = gen::random_symmetric(n, 40);
        let b0 = spd(n, 41);
        let want = oracle_pencil_eigenvalues(&a0, &b0);

        // Tiny A: lambda = 1e-200 * lambda0.
        let mut a = a0.clone();
        scale_matrix(&mut a, 1e-200);
        let r = solve_generalized(&a, &b0, &SymmetricEigen::new().nb(4)).unwrap();
        assert!(r.diagnostics.scaled_by.is_some());
        let back: Vec<f64> = r.eigenvalues.iter().map(|l| l * 1e200).collect();
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&back, &want) < 1e-7,
            "tiny A:\n got {back:?}\nwant {want:?}"
        );
        assert!(b_orthogonality(&b0, r.eigenvectors.as_ref().unwrap()) < 1000.0);

        // Huge B: lambda = 1e-200 * lambda0, vectors B-orthonormal
        // against the *input* (huge) B.
        let mut b = b0.clone();
        scale_matrix(&mut b, 1e200);
        let r = solve_generalized(&a0, &b, &SymmetricEigen::new().nb(4)).unwrap();
        assert!(r.diagnostics.scaled_by.is_some());
        let back: Vec<f64> = r.eigenvalues.iter().map(|l| l * 1e200).collect();
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&back, &want) < 1e-7,
            "huge B:\n got {back:?}\nwant {want:?}"
        );
        assert!(b_orthogonality(&b, r.eigenvectors.as_ref().unwrap()) < 1000.0);
    }

    #[test]
    fn near_semidefinite_b_is_rescued_by_shift() {
        // B with one pivot pushed a hair negative: plain Cholesky breaks
        // down, the shifted retry factors B + delta I, and the event is
        // recorded as a degradation.
        let n = 12;
        let a = gen::random_symmetric(n, 50);
        let lambda: Vec<f64> = (0..n)
            .map(|i| if i == 0 { -1e-14 } else { 1.0 + i as f64 })
            .collect();
        let b = gen::symmetric_with_spectrum(&lambda, 51);
        let r = solve_generalized(&a, &b, &SymmetricEigen::new().nb(4)).unwrap();
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
    fn verify_level_checks_the_pencil() {
        let n = 18;
        let a = gen::random_symmetric(n, 60);
        let b = spd(n, 61);
        let r = solve_generalized(
            &a,
            &b,
            &SymmetricEigen::new().nb(4).verify(VerifyLevel::Full),
        )
        .unwrap();
        let rep = r.diagnostics.verify.expect("verify requested");
        assert!(rep.residual < 1000.0 && rep.orthogonality < 1000.0);
    }

    #[test]
    fn order_zero_pencil_passes_full_verification() {
        // An empty basis measures 0, not 0/0 = NaN.
        let empty = Matrix::zeros(0, 0);
        let r = solve_generalized(
            &empty,
            &empty,
            &SymmetricEigen::new().verify(VerifyLevel::Full),
        )
        .unwrap();
        assert!(r.eigenvalues.is_empty());
        let rep = r.diagnostics.verify.expect("verify requested");
        assert_eq!((rep.residual, rep.orthogonality), (0.0, 0.0));
        assert_eq!(b_orthogonality(&empty, &empty), 0.0);
    }

    #[test]
    fn plan_reuse_matches_fresh() {
        let mut plan = GenPlan::new();
        let opts = SymmetricEigen::new().nb(4);
        for seed in [70u64, 71, 72] {
            let a = gen::random_symmetric(16, seed);
            let b = spd(16, seed + 10);
            let with_plan = solve_generalized_with_plan(&a, &b, &opts, &mut plan).unwrap();
            let fresh = solve_generalized(&a, &b, &opts).unwrap();
            assert_eq!(
                with_plan.eigenvalues, fresh.eigenvalues,
                "plan reuse changed the result"
            );
        }
        assert!(plan.footprint_bytes() > 0);
    }

    #[test]
    fn subset_of_pencil() {
        let n = 36;
        let a = gen::random_symmetric(n, 13);
        let b = spd(n, 14);
        let full = solve_generalized(&a, &b, &SymmetricEigen::new().nb(6)).unwrap();
        let part = solve_generalized(
            &a,
            &b,
            &SymmetricEigen::new()
                .nb(6)
                .method(tseig_tridiag::Method::BisectionInverse)
                .fraction(0.25),
        )
        .unwrap();
        assert_eq!(part.eigenvalues.len(), 9);
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&part.eigenvalues, &full.eigenvalues[..9])
                < 1e-9
        );
        let x = part.eigenvectors.as_ref().unwrap();
        assert!(generalized_residual(&a, &b, &part.eigenvalues, x) < 1000.0);
    }

    #[test]
    fn value_range_selects_in_the_pencil_units() {
        // A = diag(1..6) s, B = I: (1.5 s, 3.5 s] holds 2 s and 3 s at
        // every scale, also where A is scaled into the safe window.
        for s in [1.0, 1e200, 1e-200] {
            let a = Matrix::from_fn(6, 6, |i, j| if i == j { (i + 1) as f64 * s } else { 0.0 });
            let opts = SymmetricEigen::new()
                .nb(2)
                .range(EigenRange::Value(1.5 * s, 3.5 * s));
            let r = solve_generalized(&a, &Matrix::identity(6), &opts).unwrap();
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
    fn rejects_indefinite_b() {
        let a = gen::random_symmetric(5, 15);
        let mut b = Matrix::identity(5);
        b[(2, 2)] = -1.0;
        assert!(solve_generalized(&a, &b, &SymmetricEigen::new()).is_err());
    }

    #[test]
    fn rejects_nan_in_either_matrix() {
        let a = gen::random_symmetric(6, 16);
        let b = spd(6, 17);
        let mut bad_a = a.clone();
        bad_a[(3, 1)] = f64::NAN;
        bad_a[(1, 3)] = f64::NAN;
        match solve_generalized(&bad_a, &b, &SymmetricEigen::new()) {
            Err(Error::InvalidData { .. }) => {}
            other => panic!("wrong screening result: {other:?}"),
        }
        let mut bad_b = b.clone();
        bad_b[(0, 5)] = f64::INFINITY;
        bad_b[(5, 0)] = f64::INFINITY;
        match solve_generalized(&a, &bad_b, &SymmetricEigen::new()) {
            Err(Error::InvalidData { .. }) => {}
            other => panic!("wrong screening result: {other:?}"),
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = gen::random_symmetric(5, 16);
        let b = Matrix::identity(6);
        assert!(solve_generalized(&a, &b, &SymmetricEigen::new()).is_err());
    }
}
