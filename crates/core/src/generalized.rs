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
//! each is scaled into the `DSYGV` safe-norm window independently, a
//! Cholesky breakdown is retried on the shifted pencil `(A, B + delta I)`
//! (recorded as a degradation), an ill-conditioned factor triggers an
//! explicit re-symmetrization record, and every detour lands in the
//! result's [`SolveDiagnostics`]. All working storage lives in a
//! reusable [`GenPlan`] (the old driver silently `clone`d `B` on every
//! call).

use crate::driver::{SymmetricEigen, TwoStageResult, VERIFY_BOUND};
use crate::plan::SolvePlan;
use tseig_kernels::blas3::{gemm, Trans};
use tseig_kernels::cholesky::{hegst, potrf_lower, trsm_left_lower, POTRF_NB};
use tseig_kernels::scaling::{safe_scale_factor, scale_matrix, screen_symmetric};
use tseig_matrix::diagnostics::{
    Recorder, Recovery, VerifyLevel, VerifyReport, MAX_SHIFT_ATTEMPTS,
};
use tseig_matrix::{norms, Error, Matrix, Result};

/// Estimated `kappa(B)` beyond which the pencil counts as
/// ill-conditioned (`1/sqrt(eps)`, the point where `L^-1 A L^-T` loses
/// half the digits).
fn cond_threshold() -> f64 {
    1.0 / f64::EPSILON.sqrt()
}

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
    // Screen both matrices before touching either: non-finite entries and
    // gross asymmetry are surfaced with their location.
    let anorm = screen_symmetric(a)?;
    let bnorm = screen_symmetric(b)?;
    let rec = Recorder::new();
    // DSYGV-style scaling: each matrix moves into the safe-norm window
    // independently; the pencil eigenvalues pick up the ratio sa/sb,
    // undone on exit.
    let sa = safe_scale_factor(anorm);
    let sb = safe_scale_factor(bnorm);

    // Phase-boundary lifecycle polls: the pencil phases (factor,
    // transform, back-substitution) run between the standard solve's own
    // checkpoints, so each gets its own.
    let ctrl = opts.control();
    ctrl.checkpoint()?;

    // 1. B = L L^T, with the shifted-retry rung.
    let load_b = |l: &mut Matrix| {
        l.copy_from(b);
        if let Some(s) = sb {
            scale_matrix(l, s);
        }
    };
    load_b(&mut plan.l);
    if let Err(breakdown) = potrf_lower(&mut plan.l, POTRF_NB) {
        let bscaled = bnorm * sb.unwrap_or(1.0);
        let mut shift = bscaled.max(1.0) * n as f64 * f64::EPSILON;
        let mut rescued = None;
        for attempt in 1..=MAX_SHIFT_ATTEMPTS {
            load_b(&mut plan.l);
            for i in 0..n {
                plan.l[(i, i)] += shift;
            }
            if potrf_lower(&mut plan.l, POTRF_NB).is_ok() {
                rescued = Some(attempt);
                break;
            }
            shift *= 100.0;
        }
        match rescued {
            Some(attempts) => rec.record(Recovery::CholeskyShiftRetry { shift, attempts }),
            // Genuinely indefinite: report the original breakdown, not
            // the last shifted one.
            None => return Err(breakdown),
        }
    }
    // Diagonal spread of L as a cheap condition estimate: kappa(B) ~
    // (dmax/dmin)^2.
    let mut dmin = f64::INFINITY;
    let mut dmax = 0.0f64;
    for i in 0..n {
        let d = plan.l[(i, i)];
        dmin = dmin.min(d);
        dmax = dmax.max(d);
    }
    // kappa(B) ~ (dmax/dmin)^2 — the squared diagonal spread of L.
    let cond = if dmin > 0.0 {
        (dmax / dmin).powi(2)
    } else {
        f64::INFINITY
    };

    // 2. C = L^-1 A L^-T into the plan's buffer (the sygst kernel, with
    // the clone replaced by plan-owned storage).
    ctrl.checkpoint()?;
    plan.c.copy_from(a);
    if let Some(s) = sa {
        scale_matrix(&mut plan.c, s);
    }
    plan.c.symmetrize_from_lower();
    let ldc = plan.c.ld().max(1);
    hegst(
        n,
        plan.c.as_mut_slice(),
        ldc,
        plan.l.as_slice(),
        plan.l.ld().max(1),
    );
    // The two one-sided triangular solves leave C symmetric only to
    // rounding amplified by kappa(L), which hegst averages away; when L
    // is ill-conditioned that asymmetry is a real accuracy hazard, so it
    // is recorded.
    if cond > cond_threshold() {
        rec.record(Recovery::PencilSymmetrized { cond });
    }

    // 3. Standard two-stage solve on the plan's buffers.
    opts.solve_into(&plan.c, &mut plan.inner)?;
    let mut result = plan.inner.take_result();

    // 4. x = L^-T y, plus the B-scaling compensation: the vectors are
    // orthonormal against sb*B, so sqrt(sb) restores X^T B X = I.
    ctrl.checkpoint()?;
    if let Some(z) = result.eigenvectors.as_mut() {
        let k = z.cols();
        let ldz = z.ld().max(1);
        trsm_left_lower(Trans::Yes, n, k, 1.0, &plan.l, z.as_mut_slice(), ldz);
        if let Some(s) = sb {
            let f = s.sqrt();
            for v in z.as_mut_slice() {
                *v *= f;
            }
        }
    }
    // The solved pencil was (sa A, sb B): eigenvalues carry sa/sb.
    if sa.is_some() || sb.is_some() {
        let back = sb.unwrap_or(1.0) / sa.unwrap_or(1.0);
        for v in &mut result.eigenvalues {
            *v *= back;
        }
        result.diagnostics.scaled_by = Some(sa.unwrap_or(1.0) / sb.unwrap_or(1.0));
    }
    // Fold the pencil-level recoveries in ahead of the standard solve's.
    let pre = rec.take();
    if !pre.is_empty() {
        result.diagnostics.degraded = true;
        result.diagnostics.recoveries.splice(0..0, pre);
    }
    // Pencil-level verification replaces the inner report (which judged
    // C, not (A, B)).
    let level = opts.verify_level();
    if level != VerifyLevel::Off {
        if let Some(z) = result.eigenvectors.as_ref() {
            let (residual, worst) = generalized_residual_worst(a, b, &result.eigenvalues, z);
            if residual > VERIFY_BOUND || residual.is_nan() {
                return Err(Error::VerificationFailed {
                    index: worst,
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

/// `C <- op(A) * B` through the packed SIMD engine (the residual paths
/// used to run the naive schoolbook `Matrix::multiply`).
fn engine_mm(transa: Trans, a: &Matrix, bm: &Matrix) -> Matrix {
    let (m, k) = match transa {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    };
    let n = bm.cols();
    let mut c = Matrix::zeros(m, n);
    let ldc = c.ld().max(1);
    gemm(
        transa,
        Trans::No,
        m,
        n,
        k,
        1.0,
        a.as_slice(),
        a.ld().max(1),
        bm.as_slice(),
        bm.ld().max(1),
        0.0,
        c.as_mut_slice(),
        ldc,
    );
    c
}

/// Scaled residual for the generalized problem:
/// `max_j ||A x_j - lambda_j B x_j|| / ((||A|| + |lambda_j| ||B||) n eps)`.
pub fn generalized_residual(a: &Matrix, b: &Matrix, lambda: &[f64], x: &Matrix) -> f64 {
    generalized_residual_worst(a, b, lambda, x).0
}

/// [`generalized_residual`] plus the index of the worst eigenpair.
fn generalized_residual_worst(a: &Matrix, b: &Matrix, lambda: &[f64], x: &Matrix) -> (f64, usize) {
    // Mismatched shapes make the residual meaningless; report it loudly
    // as "infinitely bad" rather than aborting a diagnostic routine.
    if a.cols() != x.rows() || b.cols() != x.rows() || x.cols() != lambda.len() {
        return (f64::INFINITY, 0);
    }
    let ax = engine_mm(Trans::No, a, x);
    let bx = engine_mm(Trans::No, b, x);
    let na = norms::norm1(a);
    let nb = norms::norm1(b);
    let n = a.rows() as f64;
    let mut worst = 0.0f64;
    let mut worst_j = 0usize;
    for (j, &lj) in lambda.iter().enumerate() {
        let mut num = 0.0f64;
        for i in 0..a.rows() {
            num = num.max((ax.col(j)[i] - lj * bx.col(j)[i]).abs());
        }
        let den = (na + lj.abs() * nb).max(norms::EPS) * n * norms::EPS;
        if num / den > worst {
            worst = num / den;
            worst_j = j;
        }
    }
    (worst, worst_j)
}

/// `||X^T B X - I||_max / (n eps)` — B-orthonormality of the vectors.
pub fn b_orthogonality(b: &Matrix, x: &Matrix) -> f64 {
    // Same loud-failure convention as `generalized_residual`.
    if b.cols() != x.rows() {
        return f64::INFINITY;
    }
    let k = x.cols();
    if k == 0 {
        return 0.0; // an empty basis is trivially B-orthonormal (and 0/0 is NaN)
    }
    let bx = engine_mm(Trans::No, b, x);
    let xtbx = engine_mm(Trans::Yes, x, &bx);
    let mut worst = 0.0f64;
    for j in 0..k {
        for i in 0..k {
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((xtbx[(i, j)] - target).abs());
        }
    }
    worst / (x.rows() as f64 * norms::EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::gen;

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
        potrf_lower(&mut l, 8).unwrap();
        let c = tseig_kernels::cholesky::sygst(a, &l);
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
