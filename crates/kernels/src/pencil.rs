//! Hermitian-definite pencils `A x = lambda B x` and the post-solve
//! verifier, generic over the four element types.
//!
//! Both pencil drivers (`tseig-core`'s f64 `solve_generalized` and
//! `tseig-hermitian`'s C64/C32 one) run the `dsygv`/`zhegv` ITYPE=1
//! reduction through this module and keep only their input screening and
//! their standard solve:
//!
//! 1. [`reduce`]: `DSYGV` joint scaling (`A` and `B` move into the safe
//!    norm window independently), `s_B B = L L^H` by [`potrf`] with the
//!    shifted retry ([`Recovery::CholeskyShiftRetry`]), the `kappa(B)`
//!    estimate ([`Recovery::PencilSymmetrized`]), and
//!    `C = L^-1 (s_A A) L^-H` by [`hegst`], into caller-owned buffers;
//! 2. the driver solves `C y = mu y` without verification, a `Value`
//!    range mapped into `C`'s units by [`Reduced::inner_bounds`];
//! 3. [`Reduced::finish`]: `x = L^-H y` by [`trsm_left`], `sqrt(s_B)` on
//!    the vectors and `s_B / s_A` on the eigenvalues, so `X^H B X = I`
//!    holds against the unscaled `B`, and the reduction's recoveries
//!    ahead of the standard solve's;
//! 4. [`verify`] with `B`: the generalized residual and
//!    `B`-orthonormality against the input pencil.
//!
//! [`verify`] without `B` is the standard problem's verifier, the one
//! both eigensolver drivers run; the SVD driver runs its pieces
//! [`check_sorted`] and [`check_bound`]. Every scaled measure divides by
//! `n` times the element type's unit roundoff `eps / 2` and floors a
//! zero norm at `f64::MIN_POSITIVE`, so it does not depend on the
//! input's scale and one [`VERIFY_BOUND`] serves all four types.

use crate::blas3::engine::GemmScalar;
use crate::cholesky::{hegst, potrf, trsm_left, POTRF_NB};
use crate::contract;
use crate::scaling::safe_scale_factor;
use crate::Trans;
use tseig_matrix::diagnostics::{
    Recovery, SolveDiagnostics, VerifyLevel, VerifyReport, MAX_SHIFT_ATTEMPTS, VERIFY_BOUND,
};
use tseig_matrix::{ComplexScalar, Ctrl, Error, Result};

/// A pencil reduced to standard form by [`reduce`]: the scale factors
/// of `A` and `B` and the recoveries the reduction took.
#[derive(Debug)]
pub struct Reduced {
    sa: Option<f64>,
    sb: Option<f64>,
    recoveries: Vec<Recovery>,
}

/// Reduce the order-`n` pencil `(A, B)` (full Hermitian storage,
/// `B` positive definite; `anorm`/`bnorm` their max-abs norms from the
/// driver's screening) to standard form: `l` receives `L`, `c` receives
/// `C`, both `n x n` with leading dimension `max(n, 1)`. `ctrl` is polled
/// before the factorization and before the transform.
///
/// A Cholesky breakdown is retried on `s_B B + shift I`, the shift
/// starting at `max(||s_B B||, 1) n eps` and growing 100x for up to
/// [`MAX_SHIFT_ATTEMPTS`] attempts; a `B` that outlasts them returns the
/// original breakdown.
pub fn reduce<T: GemmScalar>(
    n: usize,
    a: &[T],
    lda: usize,
    anorm: f64,
    b: &[T],
    ldb: usize,
    bnorm: f64,
    l: &mut [T],
    c: &mut [T],
    ctrl: &Ctrl,
) -> Result<Reduced> {
    let ld = n.max(1);
    if contract::enabled() {
        contract::require_mat("pencil::reduce", "a", a, n, n, lda);
        contract::require_mat("pencil::reduce", "b", b, n, n, ldb);
        contract::require_mat("pencil::reduce", "l", l, n, n, ld);
        contract::require_mat("pencil::reduce", "c", c, n, n, ld);
    }
    let (sa, sb) = (safe_scale_factor(anorm), safe_scale_factor(bnorm));
    let mut recoveries = Vec::new();
    ctrl.checkpoint()?;

    load(n, b, ldb, sb, l);
    if let Err(breakdown) = potrf(n, l, ld, POTRF_NB) {
        let mut shift = (bnorm * sb.unwrap_or(1.0)).max(1.0) * n as f64 * T::EPS;
        let mut rescued = None;
        for attempt in 1..=MAX_SHIFT_ATTEMPTS {
            load(n, b, ldb, sb, l);
            for i in 0..n {
                l[i + i * ld] = T::new(l[i + i * ld].re() + shift, 0.0);
            }
            if potrf(n, l, ld, POTRF_NB).is_ok() {
                rescued = Some(attempt);
                break;
            }
            shift *= 100.0;
        }
        // Genuinely indefinite: report the original breakdown, not the
        // last shifted one.
        let attempts = rescued.ok_or(breakdown)?;
        recoveries.push(Recovery::CholeskyShiftRetry { shift, attempts });
    }
    // kappa(B) ~ (hi/lo)^2, the squared spread of the diagonal of L (its
    // pivots are positive). Beyond 1/sqrt(eps) the two one-sided solves
    // of the transform leave C asymmetric by more than rounding; hegst
    // averages that away, and the hazard is recorded.
    let pivots = (0..n).map(|i| l[i + i * ld].re());
    let (lo, hi) = pivots.fold((f64::INFINITY, 0.0f64), |(a, b), d| (a.min(d), b.max(d)));
    let cond = (hi / lo).powi(2);
    if cond > 1.0 / T::EPS.sqrt() {
        recoveries.push(Recovery::PencilSymmetrized { cond });
    }

    ctrl.checkpoint()?;
    load(n, a, lda, sa, c);
    for j in 0..n {
        c[j + j * ld] = T::new(c[j + j * ld].re(), 0.0);
        for i in j + 1..n {
            c[j + i * ld] = c[i + j * ld].conj();
        }
    }
    hegst(n, c, ld, l, ld);
    Ok(Reduced { sa, sb, recoveries })
}

/// Copy the `n x n` matrix `src` (leading dimension `lds`) into `dst`
/// (leading dimension `max(n, 1)`), times `s` if given.
fn load<T: ComplexScalar>(n: usize, src: &[T], lds: usize, s: Option<f64>, dst: &mut [T]) {
    for j in 0..n {
        let (from, to) = (&src[j * lds..j * lds + n], &mut dst[j * n..j * n + n]);
        to.iter_mut()
            .zip(from)
            .for_each(|(d, &v)| *d = s.map_or(v, |s| v.scale(s)));
    }
}

impl Reduced {
    /// The pencil's eigenvalue bounds `(vl, vu]` in the units of `C`,
    /// whose eigenvalues are `lambda s_A / s_B`.
    pub fn inner_bounds(&self, vl: f64, vu: f64) -> (f64, f64) {
        let f = self.sa.unwrap_or(1.0) / self.sb.unwrap_or(1.0);
        (vl * f, vu * f)
    }

    /// Turn the standard solve of `C` into the pencil's solution in
    /// place: the eigenvalues `lambda` and, if given, the eigenvectors in
    /// `z` (columns of length `n`, leading dimension `max(n, 1)`); `l` is
    /// the factor [`reduce`] left. The scaling and the reduction's
    /// recoveries go into the standard solve's `diagnostics`. `ctrl` is
    /// polled first.
    pub fn finish<T: GemmScalar>(
        self,
        n: usize,
        l: &[T],
        lambda: &mut [f64],
        z: Option<&mut [T]>,
        diagnostics: &mut SolveDiagnostics,
        ctrl: &Ctrl,
    ) -> Result<()> {
        ctrl.checkpoint()?;
        if let Some(z) = z {
            let ld = n.max(1);
            trsm_left(Trans::Yes, n, z.len() / ld, T::ONE, l, ld, z, ld);
            // The vectors are orthonormal against s_B B; sqrt(s_B)
            // restores X^H B X = I.
            if let Some(s) = self.sb {
                z.iter_mut().for_each(|v| *v = v.scale(s.sqrt()));
            }
        }
        if self.sa.is_some() || self.sb.is_some() {
            let (sa, sb) = (self.sa.unwrap_or(1.0), self.sb.unwrap_or(1.0));
            lambda.iter_mut().for_each(|v| *v *= sb / sa);
            diagnostics.scaled_by = Some(sa / sb);
        }
        diagnostics.degraded |= !self.recoveries.is_empty();
        diagnostics.recoveries.splice(0..0, self.recoveries);
        Ok(())
    }
}

/// Verify a computed solution of the order-`n` Hermitian problem
/// `A x = lambda x` (`b` is `None`) or pencil `A x = lambda B x`, both
/// matrices in full storage, at `level`; `None` at `Off`.
///
/// * The eigenvalues are finite and ascending.
/// * With vectors (`x`: `lambda.len()` columns of length `n`, leading
///   dimension `max(n, 1)`), the residual
///   `max_j ||A x_j - lambda_j B x_j||_max / ((||A||_1 + |lambda_j| ||B||_1) n eps/2)`
///   is within [`VERIFY_BOUND`].
/// * At `Full`, so is `||X^H B X - I||_max / (n eps/2)`.
///
/// A violation, a NaN measure included, is [`Error::VerificationFailed`]
/// naming the worst column.
pub fn verify<T: ComplexScalar>(
    n: usize,
    a: &[T],
    lda: usize,
    b: Option<(&[T], usize)>,
    lambda: &[f64],
    x: Option<&[T]>,
    level: VerifyLevel,
) -> Result<Option<VerifyReport>> {
    if level == VerifyLevel::Off {
        return Ok(None);
    }
    check_sorted("eigenvalue", lambda, f64::NEG_INFINITY, true)?;
    let Some(x) = x else {
        return Ok(Some(VerifyReport::default()));
    };
    let (residual, orthogonality) = match b {
        None => ("scaled residual", "orthogonality"),
        Some(_) => ("generalized residual", "B-orthogonality"),
    };
    let residual = check_bound(residual, residual_worst(n, a, lda, b, lambda, x))?;
    let orthogonality = match level {
        VerifyLevel::Full => check_bound(orthogonality, gram_error(n, b, x, lambda.len()))?,
        _ => 0.0,
    };
    Ok(Some(VerifyReport {
        residual,
        orthogonality,
    }))
}

/// The residual measure of [`verify`] and the column that attains it.
pub fn residual_worst<T: ComplexScalar>(
    n: usize,
    a: &[T],
    lda: usize,
    b: Option<(&[T], usize)>,
    lambda: &[f64],
    x: &[T],
) -> (f64, usize) {
    let na = norm1(n, a, lda);
    let nb = b.map_or(0.0, |(b, ldb)| norm1(n, b, ldb));
    let (mut ax, mut bx) = (vec![T::ZERO; n], vec![T::ZERO; n]);
    let mut worst = (0.0, 0);
    for ((j, &lj), xj) in lambda.iter().enumerate().zip(x.chunks(n.max(1))) {
        apply(n, Some((a, lda)), xj, &mut ax);
        apply(n, b, xj, &mut bx);
        // The column's largest entry (a NaN kept); its row is not reported.
        let (num, _) = ax
            .iter()
            .zip(&bx)
            .fold((0.0, 0), |m, (&p, &q)| worse(m, (p - q.scale(lj)).abs(), 0));
        worst = worse(worst, num / unit(na + lj.abs() * nb, n, T::EPS), j);
    }
    worst
}

/// The orthogonality measure of [`verify`] over the `k` columns of `x`
/// (`0` for an empty basis), and the column that attains it.
pub fn gram_error<T: ComplexScalar>(
    n: usize,
    b: Option<(&[T], usize)>,
    x: &[T],
    k: usize,
) -> (f64, usize) {
    let mut bx = vec![T::ZERO; n];
    let mut worst = (0.0, 0);
    let columns = || x.chunks(n.max(1)).take(k);
    for (j, xj) in columns().enumerate() {
        apply(n, b, xj, &mut bx);
        for (i, xi) in columns().enumerate() {
            let g = xi
                .iter()
                .zip(&bx)
                .fold(T::ZERO, |s, (&p, &q)| s + p.conj() * q);
            let target = T::new(if i == j { 1.0 } else { 0.0 }, 0.0);
            worst = worse(worst, (g - target).abs() / unit(1.0, n, T::EPS), j);
        }
    }
    worst
}

/// Fail unless every value is finite and at least `floor`, and they are
/// sorted, ascending or descending; `what` names the values in the error.
pub fn check_sorted(what: &str, values: &[f64], floor: f64, ascending: bool) -> Result<()> {
    if let Some(j) = values.iter().position(|v| !v.is_finite()) {
        return Err(failed(format!("{what} finiteness"), j, values[j], f64::MAX));
    }
    if let Some(j) = values.iter().position(|&v| v < floor) {
        return Err(failed(format!("{what} sign"), j, values[j], floor));
    }
    let sign = if ascending { 1.0 } else { -1.0 };
    if let Some(j) = (1..values.len()).find(|&j| (values[j] - values[j - 1]) * sign < 0.0) {
        let step = (values[j] - values[j - 1]) * sign;
        return Err(failed(format!("{what} ordering"), j, step, 0.0));
    }
    Ok(())
}

/// `value` if it is within [`VERIFY_BOUND`]; a larger or NaN value is
/// [`Error::VerificationFailed`] for `measure` at column `index`.
pub fn check_bound(measure: &str, (value, index): (f64, usize)) -> Result<f64> {
    // A poisoned vector yields a NaN measure, which must fail rather
    // than slip past `>`.
    if value > VERIFY_BOUND || value.is_nan() {
        return Err(failed(measure.to_string(), index, value, VERIFY_BOUND));
    }
    Ok(value)
}

fn failed(measure: String, index: usize, value: f64, bound: f64) -> Error {
    Error::VerificationFailed {
        index,
        measure,
        value,
        bound,
    }
}

/// `norm n eps/2`, the scale of a backward error, with a zero norm
/// floored at the smallest normal number rather than at `eps`: the
/// measure of a tiny-norm matrix must not shrink with the matrix.
fn unit(norm: f64, n: usize, eps: f64) -> f64 {
    norm.max(f64::MIN_POSITIVE) * n as f64 * (eps / 2.0)
}

/// The worse of the running `(measure, column)` and `m` at column `j`;
/// the first NaN wins and stays.
fn worse(worst: (f64, usize), m: f64, j: usize) -> (f64, usize) {
    let take = m > worst.0 || (m.is_nan() && !worst.0.is_nan());
    if take {
        (m, j)
    } else {
        worst
    }
}

/// One-norm (largest column sum of moduli) of the `n x n` matrix `a`.
fn norm1<T: ComplexScalar>(n: usize, a: &[T], lda: usize) -> f64 {
    (0..n)
        .map(|j| a[j * lda..j * lda + n].iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// `y = B x` for the `n x n` matrix `B`, or `y = x` when `b` is `None`
/// (the identity); column by column and uncounted: verification is not
/// part of the solve's flops.
fn apply<T: ComplexScalar>(n: usize, b: Option<(&[T], usize)>, x: &[T], y: &mut [T]) {
    let Some((b, ldb)) = b else {
        return y.copy_from_slice(x);
    };
    y.fill(T::ZERO);
    for (p, &xp) in x.iter().enumerate() {
        if xp != T::ZERO {
            let col = &b[p * ldb..p * ldb + n];
            y.iter_mut().zip(col).for_each(|(yi, &bip)| *yi += bip * xp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{at_every_type, hpd, rand_hermitian};
    use tseig_matrix::{CMatrixG, C64};

    /// A pencil `(A, B)` of order `n` with a known solution: `B = L0 L0^H`
    /// and `A = L0 D L0^H` with `D = diag(1, ..., n)`, so `C ~ D` and the
    /// identity is its eigenbasis.
    fn known_pencil<T: GemmScalar>(n: usize) -> (CMatrixG<T>, CMatrixG<T>, Vec<f64>) {
        let b = hpd::<T>(n, 7);
        let mut l0 = b.clone();
        potrf(n, l0.as_mut_slice(), n, POTRF_NB).unwrap();
        let lambda: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let d = CMatrixG::from_fn(n, n, |i, j| {
            T::new(if i == j { lambda[i] } else { 0.0 }, 0.0)
        });
        let mut a = l0.multiply(&d).multiply(&l0.adjoint());
        a.hermitize_from_lower();
        (a, b, lambda)
    }

    /// [`reduce`] into fresh buffers: the reduction, `L` and `C`.
    fn reduced<T: GemmScalar>(
        a: &CMatrixG<T>,
        b: &CMatrixG<T>,
    ) -> Result<(Reduced, CMatrixG<T>, CMatrixG<T>)> {
        let n = a.rows();
        let (mut l, mut c) = (CMatrixG::zeros(n, n), CMatrixG::zeros(n, n));
        let (sa, sb) = (a.as_slice(), b.as_slice());
        let (anorm, bnorm) = (a.max_abs(), b.max_abs());
        let (ls, cs) = (l.as_mut_slice(), c.as_mut_slice());
        let p = reduce(n, sa, n, anorm, sb, n, bnorm, ls, cs, &Ctrl::NONE)?;
        Ok((p, l, c))
    }

    /// Reduce, solve `C ~ D` by the identity, finish and verify at `Full`.
    fn solve_known<T: GemmScalar>(
        a: &CMatrixG<T>,
        b: &CMatrixG<T>,
        lambda: &[f64],
    ) -> Result<(Vec<f64>, SolveDiagnostics)> {
        let n = a.rows();
        let (pencil, l, _) = reduced(a, b)?;
        let (mut mu, mut x) = (lambda.to_vec(), CMatrixG::<T>::identity(n));
        let mut diag = SolveDiagnostics::default();
        let z = Some(x.as_mut_slice());
        pencil.finish(n, l.as_slice(), &mut mu, z, &mut diag, &Ctrl::NONE)?;
        let (b, x) = (Some((b.as_slice(), n)), Some(x.as_slice()));
        diag.verify = verify(n, a.as_slice(), n, b, &mu, x, VerifyLevel::Full)?;
        Ok((mu, diag))
    }

    fn check_solves_known_pencil<T: GemmScalar>() {
        let (a, b, lambda) = known_pencil::<T>(12);
        let (mu, diag) = solve_known(&a, &b, &lambda).unwrap();
        assert_eq!(mu, lambda);
        assert!(diag.is_clean() && diag.scaled_by.is_none(), "{diag:?}");
        let rep = diag.verify.unwrap();
        assert!(rep.residual < 100.0 && rep.orthogonality < 100.0, "{rep:?}");
    }

    #[test]
    fn solves_a_known_pencil() {
        at_every_type!(check_solves_known_pencil);
    }

    #[test]
    fn extreme_norms_are_scaled_and_undone() {
        // One matrix at a time leaves the safe window; the eigenvalues
        // come back in the input's units (lambda scales as A / B) and the
        // vectors are B-orthonormal against the input B.
        let (a0, b0, lambda) = known_pencil::<C64>(10);
        for (sa, sb) in [(1e-200, 1.0), (1.0, 1e200), (1e200, 1.0)] {
            let a = CMatrixG::from_fn(10, 10, |i, j| a0[(i, j)].scale(sa));
            let b = CMatrixG::from_fn(10, 10, |i, j| b0[(i, j)].scale(sb));
            let want: Vec<f64> = lambda.iter().map(|l| l * sa / sb).collect();
            // C ~ D in the scaled units: hand finish D's eigenvalues.
            let inner: Vec<f64> = {
                let (p, _, _) = reduced(&a, &b).unwrap();
                let (lo, _) = p.inner_bounds(1.0, 1.0);
                want.iter().map(|w| w * lo).collect()
            };
            let (mu, diag) = solve_known(&a, &b, &inner).unwrap();
            assert!(diag.scaled_by.is_some());
            for (m, w) in mu.iter().zip(&want) {
                assert!((m - w).abs() <= 1e-14 * w.abs(), "{sa} {sb}: {m} vs {w}");
            }
            let rep = diag.verify.unwrap();
            assert!(rep.residual < 100.0 && rep.orthogonality < 100.0, "{rep:?}");
        }
    }

    fn check_value_bounds_follow_the_scaling<T: GemmScalar>() {
        // A = diag(1..6) s, B = I: the bounds (1.5 s, 3.5 s] hold the
        // pencil's eigenvalues 2 s and 3 s, and their images hold the
        // same two diagonal entries of C at every scale.
        let scales: &[f64] = if T::EPS > f64::EPSILON {
            &[1.0, 1e30, 1e-30]
        } else {
            &[1.0, 1e200, 1e-200]
        };
        for &s in scales {
            let n = 6;
            let a = CMatrixG::<T>::from_fn(n, n, |i, j| {
                T::new(if i == j { (i + 1) as f64 * s } else { 0.0 }, 0.0)
            });
            let (pencil, _, c) = reduced(&a, &CMatrixG::identity(n)).unwrap();
            let (vl, vu) = pencil.inner_bounds(1.5 * s, 3.5 * s);
            let picked: Vec<usize> = (0..n)
                .filter(|&i| vl < c[(i, i)].re() && c[(i, i)].re() <= vu)
                .collect();
            assert_eq!(picked, [1, 2], "s = {s}");
        }
    }

    #[test]
    fn value_bounds_follow_the_scaling() {
        at_every_type!(check_value_bounds_follow_the_scaling);
    }

    fn check_recovery_rungs<T: GemmScalar>() {
        let n = 8;
        let a = rand_hermitian::<T>(n, 3);
        let diag_b = |d0: f64| {
            CMatrixG::<T>::from_fn(n, n, |i, j| {
                let d = if i == 0 { d0 } else { 2.0 };
                T::new(if i == j { d } else { 0.0 }, 0.0)
            })
        };
        // One pivot a hair below zero: the first shift, n eps, rescues
        // it, and the finished solve is degraded.
        let (p, l, _) = reduced(&a, &diag_b(-(n as f64) * T::EPS / 4.0)).unwrap();
        let mut diag = SolveDiagnostics::default();
        p.finish(n, l.as_slice(), &mut [], None, &mut diag, &Ctrl::NONE)
            .unwrap();
        assert!(diag.degraded);
        assert!(
            matches!(
                diag.recoveries[..],
                [Recovery::CholeskyShiftRetry { attempts: 1, .. }, ..]
            ),
            "{:?}",
            diag.recoveries
        );
        // A pivot of -1 outlasts every shift: the original breakdown.
        let err = reduced(&a, &diag_b(-1.0)).unwrap_err();
        assert!(err.to_string().contains("pivot -1.000e0 at 0"), "{err}");
        // kappa(B) = 1/eps is past 1/sqrt(eps).
        let (p, _, _) = reduced(&a, &diag_b(T::EPS)).unwrap();
        assert!(
            matches!(p.recoveries[..], [Recovery::PencilSymmetrized { .. }]),
            "{:?}",
            p.recoveries
        );
    }

    #[test]
    fn recovery_rungs_of_the_reduction() {
        at_every_type!(check_recovery_rungs);
    }

    fn check_verifier_rejects_wrong_pairs<T: GemmScalar>() {
        let n = 100;
        let z = CMatrixG::<T>::identity(n);
        let zs = Some(z.as_slice());
        // The identity and zero eigenvalues are wrong for any nonzero A,
        // by a residual as large as A itself; a 1e-30 norm must not hide
        // that (an eps-floored norm scored it 0.8).
        let a = rand_hermitian::<T>(n, 5);
        let tiny = CMatrixG::from_fn(n, n, |i, j| a[(i, j)].scale(1e-30));
        let err = verify(
            n,
            tiny.as_slice(),
            n,
            None,
            &vec![0.0; n],
            zs,
            VerifyLevel::Residual,
        );
        assert!(
            matches!(&err, Err(Error::VerificationFailed { measure, value, .. })
                if measure == "scaled residual" && *value > VERIFY_BOUND),
            "{err:?}"
        );
        // The pencil residual with B = I fails the same way.
        let b = Some((z.as_slice(), n));
        let err = verify(
            n,
            tiny.as_slice(),
            n,
            b,
            &vec![0.0; n],
            zs,
            VerifyLevel::Residual,
        );
        assert!(
            matches!(err, Err(Error::VerificationFailed { .. })),
            "{err:?}"
        );
        // A NaN in a vector fails and names its column; so do a NaN and
        // a descending eigenvalue.
        let zero = CMatrixG::<T>::zeros(n, n);
        let mut poisoned = z.clone();
        poisoned[(3, 7)] = T::new(f64::NAN, 0.0);
        let err = verify(
            n,
            zero.as_slice(),
            n,
            None,
            &vec![0.0; n],
            Some(poisoned.as_slice()),
            VerifyLevel::Full,
        );
        assert!(
            matches!(err, Err(Error::VerificationFailed { index: 7, .. })),
            "{err:?}"
        );
        for (lambda, what) in [([0.0, f64::NAN], "finiteness"), ([1.0, 0.0], "ordering")] {
            let err = verify(
                2,
                zero.as_slice(),
                n,
                None,
                &lambda,
                None,
                VerifyLevel::Full,
            );
            assert!(
                matches!(&err, Err(Error::VerificationFailed { index: 1, measure, .. })
                    if measure == &format!("eigenvalue {what}")),
                "{err:?}"
            );
        }
        // The exact decomposition of the zero matrix passes, at order 0
        // too.
        let rep = verify(
            n,
            zero.as_slice(),
            n,
            None,
            &vec![0.0; n],
            zs,
            VerifyLevel::Full,
        );
        assert_eq!(rep.unwrap(), Some(VerifyReport::default()));
        let rep = verify::<T>(0, &[], 1, None, &[], Some(&[]), VerifyLevel::Full);
        assert_eq!(rep.unwrap(), Some(VerifyReport::default()));
        let off = verify(
            n,
            tiny.as_slice(),
            n,
            None,
            &[1.0, 0.0],
            zs,
            VerifyLevel::Off,
        );
        assert_eq!(off.unwrap(), None);
    }

    #[test]
    fn verifier_rejects_wrong_pairs() {
        at_every_type!(check_verifier_rejects_wrong_pairs);
    }

    #[test]
    fn sorted_check_reads_both_directions() {
        assert!(check_sorted("singular value", &[3.0, 2.0, 2.0, 0.0], 0.0, false).is_ok());
        assert!(check_sorted("singular value", &[1.0, 2.0], 0.0, false).is_err());
        assert!(check_sorted("singular value", &[1.0, -2.0], 0.0, false).is_err());
        assert!(check_sorted("eigenvalue", &[-1.0, 2.0], f64::NEG_INFINITY, true).is_ok());
        assert!(check_bound("m", (VERIFY_BOUND, 0)).is_ok());
        assert!(check_bound("m", (f64::NAN, 0)).is_err());
    }
}
