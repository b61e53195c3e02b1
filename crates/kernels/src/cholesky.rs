//! Cholesky factorization and triangular solves, generic over the four
//! element types.
//!
//! Substrate for the *generalized* symmetric (Hermitian) eigenproblem
//! `A x = lambda B x` (the setting the two-stage idea was first invented
//! for — Grimes & Simon's out-of-core solvers, paper §2): factor
//! `B = L L^H`, transform `C = L^-1 A L^-H`, solve the standard problem,
//! back-substitute the eigenvectors. On the real types `L^H` is `L^T`
//! and every conjugation below is the identity.
//!
//! The kernels take LAPACK-style `(slice, ld)` operands; the whole
//! pencil reduction built from them is [`crate::pencil`].

use crate::blas3::engine::GemmScalar;
use crate::blas3::{syrk_lower, Trans};
use crate::contract;
use crate::flops::{add, add_bytes, Level};
use tseig_matrix::{chaos, ComplexScalar, Error, Result};

/// Block size the generalized drivers factor their `B` with.
pub const POTRF_NB: usize = 32;

/// Blocked Cholesky factorization `A = L L^H` of the Hermitian positive
/// definite order-`n` matrix in `a` (lower triangle referenced and
/// overwritten with `L`, strict upper triangle zeroed, diagonal real).
/// Fails with [`Error::InvalidArgument`] if a non-positive pivot shows
/// the matrix is not positive definite.
pub fn potrf<T: GemmScalar>(n: usize, a: &mut [T], lda: usize, nb: usize) -> Result<()> {
    let nb = nb.max(1);
    if contract::enabled() {
        contract::require_mat("potrf", "a", a, n, n, lda);
        contract::require_finite_lower("potrf", "a", a, n, lda);
    }
    if chaos::fire(chaos::Site::CholBreakdown) {
        return Err(Error::InvalidArgument(
            "matrix not positive definite (pivot -1.000e0 at 0) [chaos]".to_string(),
        ));
    }
    add(Level::L3, (T::MULADD_FLOPS / 2) * (n * n * n / 3) as u64);
    // The stored triangle is read and written once per rank-nb update.
    add_bytes(
        Level::L3,
        (n * n) as u64 * n.div_ceil(nb).max(1) as u64 * T::BYTES,
    );
    let mut j0 = 0;
    while j0 < n {
        let jb = nb.min(n - j0);
        // Diagonal block: unblocked Cholesky.
        for j in j0..j0 + jb {
            // a[j][j] -= sum_k |a[j][k]|^2 over this block's prior columns.
            let mut s = a[j + j * lda].re();
            for k in j0..j {
                s -= a[j + k * lda].abs2();
            }
            if s <= 0.0 {
                return Err(Error::InvalidArgument(format!(
                    "matrix not positive definite (pivot {s:.3e} at {j})"
                )));
            }
            let ljj = T::new(s.sqrt(), 0.0);
            a[j + j * lda] = ljj;
            // Column below the diagonal within the block.
            for i in j + 1..n {
                let mut v = a[i + j * lda];
                for k in j0..j {
                    v -= a[i + k * lda] * a[j + k * lda].conj();
                }
                a[i + j * lda] = v / ljj;
            }
        }
        // Trailing update: A22 -= L21 L21^H (only for columns beyond the
        // block; the in-block corrections were done scalar above).
        let r0 = j0 + jb;
        if r0 < n {
            let rows = n - r0;
            let (head, tail) = a.split_at_mut(r0 * lda);
            let l21 = &head[r0 + j0 * lda..];
            syrk_lower(
                Trans::No,
                rows,
                jb,
                -1.0,
                l21,
                lda,
                1.0,
                &mut tail[r0..],
                lda,
            );
        }
        j0 += jb;
    }
    // Zero the strict upper triangle so L can be used densely.
    for j in 0..n {
        a[j * lda..j * lda + j].fill(T::ZERO);
    }
    Ok(())
}

/// Solve `op(L) X = alpha B` in place (`X` overwrites `B`), `L` the
/// leading `m x m` lower triangle of `l` (non-unit), `B` `m x n`;
/// `Trans::Yes` is `L^H`.
pub fn trsm_left<T: ComplexScalar>(
    trans: Trans,
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    if contract::enabled() {
        contract::require_mat("trsm_left", "l", l, m, m, ldl);
        contract::require_mat("trsm_left", "b", b, m, n, ldb);
        contract::require_no_alias("trsm_left", "l", l, "b", b);
        contract::require_finite_lower("trsm_left", "l", l, m, ldl);
        contract::require_finite_mat("trsm_left", "b", b, m, n, ldb);
    }
    add(Level::L3, (T::MULADD_FLOPS / 2) * (m * m * n) as u64);
    // L's triangle is re-streamed once per B column, B read and written.
    add_bytes(
        Level::L3,
        T::BYTES * ((m * m / 2) as u64 * n.max(1) as u64 + 2 * (m * n) as u64),
    );
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + m];
        if alpha != T::ONE {
            for v in col.iter_mut() {
                *v *= alpha;
            }
        }
        match trans {
            Trans::No => {
                // Forward substitution.
                for i in 0..m {
                    let xi = col[i] / l[i + i * ldl];
                    col[i] = xi;
                    if xi != T::ZERO {
                        for r in i + 1..m {
                            col[r] -= l[r + i * ldl] * xi;
                        }
                    }
                }
            }
            Trans::Yes => {
                // Backward substitution with L^H (columns of L are rows
                // of L^H; the axpy direction flips).
                for i in (0..m).rev() {
                    let mut s = col[i];
                    for r in i + 1..m {
                        s -= l[r + i * ldl].conj() * col[r];
                    }
                    col[i] = s / l[i + i * ldl].conj();
                }
            }
        }
    }
}

/// Solve `X L^H = B` in place (`X` overwrites `B`), `L` the leading
/// `n x n` lower triangle of `l` (non-unit), `B` `m x n`.
pub fn trsm_right<T: ComplexScalar>(
    m: usize,
    n: usize,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    if contract::enabled() {
        contract::require_mat("trsm_right", "l", l, n, n, ldl);
        contract::require_mat("trsm_right", "b", b, m, n, ldb);
        contract::require_no_alias("trsm_right", "l", l, "b", b);
        contract::require_finite_lower("trsm_right", "l", l, n, ldl);
        contract::require_finite_mat("trsm_right", "b", b, m, n, ldb);
    }
    add(Level::L3, (T::MULADD_FLOPS / 2) * (m * n * n) as u64);
    // Each column j of B re-reads columns 0..j (X so far) plus L's row j.
    add_bytes(
        Level::L3,
        T::BYTES * ((m * n) as u64 * n.div_ceil(2).max(1) as u64 + (n * n / 2) as u64),
    );
    // (X L^H)[:, j] = sum_{k <= j} X[:, k] * conj(L[j, k])  =>  forward
    // over j.
    for j in 0..n {
        let ljj = l[j + j * ldl].conj();
        // col_j = (b_j - sum_{k<j} x_k * conj(L[j,k])) / conj(L[j,j])
        for k in 0..j {
            let ljk = l[j + k * ldl].conj();
            if ljk == T::ZERO {
                continue;
            }
            let (xk, xj) = split_two(b, k, j, ldb, m);
            for i in 0..m {
                xj[i] -= ljk * xk[i];
            }
        }
        for v in b[j * ldb..j * ldb + m].iter_mut() {
            *v = *v / ljj;
        }
    }
}

/// Disjoint mutable views of columns `k < j`.
fn split_two<T>(b: &mut [T], k: usize, j: usize, ldb: usize, m: usize) -> (&[T], &mut [T]) {
    debug_assert!(k < j);
    let (head, tail) = b.split_at_mut(j * ldb);
    (&head[k * ldb..k * ldb + m], &mut tail[..m])
}

/// Transform the generalized problem to standard form in place
/// (`dsygst`/`zhegst` ITYPE=1): `a` holds the full Hermitian `A` (both
/// triangles) on entry and `C = L^-1 A L^-H` on return, made exactly
/// Hermitian (the two one-sided solves leave it so only to rounding);
/// `l` is the Cholesky factor of `B`.
pub fn hegst<T: ComplexScalar>(n: usize, a: &mut [T], lda: usize, l: &[T], ldl: usize) {
    if contract::enabled() {
        contract::require_mat("hegst", "a", a, n, n, lda);
        contract::require_mat("hegst", "l", l, n, n, ldl);
        contract::require_finite_mat("hegst", "a", a, n, n, lda);
        contract::require_finite_lower("hegst", "l", l, n, ldl);
    }
    // X = L^-1 A, then C = X L^-H.
    trsm_left(Trans::No, n, n, T::ONE, l, ldl, a, lda);
    trsm_right(n, n, l, ldl, a, lda);
    for j in 0..n {
        for i in j + 1..n {
            let v = (a[i + j * lda] + a[j + i * lda].conj()).scale(0.5);
            a[i + j * lda] = v;
            a[j + i * lda] = v.conj();
        }
        a[j + j * lda] = T::new(a[j + j * lda].re(), 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{hpd, rand_hermitian, rand_mat};
    use tseig_matrix::{CMatrixG, C64};

    /// `L` of a seeded positive definite matrix of order `n`.
    fn factor<T: GemmScalar>(n: usize, nb: usize, seed: u64) -> (CMatrixG<T>, CMatrixG<T>) {
        let b = hpd::<T>(n, seed);
        let mut l = b.clone();
        potrf(n, l.as_mut_slice(), n, nb).unwrap();
        (b, l)
    }

    fn check_reconstructs<T: GemmScalar>(n: usize, nb: usize, tol: f64) {
        let (b, l) = factor::<T>(n, nb, n as u64);
        // L is lower triangular with a real positive diagonal.
        for j in 0..n {
            assert!(l[(j, j)].re() > 0.0 && l[(j, j)].im() == 0.0);
            assert!((0..j).all(|i| l[(i, j)] == T::ZERO));
        }
        let llh = l.multiply(&l.adjoint());
        assert!(llh.max_diff(&b) < tol * n as f64, "n={n} nb={nb}");
    }

    #[test]
    fn cholesky_reconstructs() {
        for (n, nb) in [(10, 4), (25, 8), (17, 32)] {
            check_reconstructs::<f64>(n, nb, 1e-9);
        }
        for (n, nb) in [(12, 1), (12, 5), (12, 32)] {
            check_reconstructs::<C64>(n, nb, 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = CMatrixG::<f64>::identity(3);
        a[(1, 1)] = -1.0;
        assert!(potrf(3, a.as_mut_slice(), 3, 2).is_err());
        let mut b = CMatrixG::<C64>::identity(5);
        b[(3, 3)] = C64::new(-1.0, 0.0);
        assert!(potrf(5, b.as_mut_slice(), 5, 2).is_err());
    }

    fn check_trsm_left<T: GemmScalar>(n: usize) {
        let (_, l) = factor::<T>(n, 4, 3);
        let x0 = rand_hermitian::<T>(n, 4);
        // B = op(L) X0 ; solve op(L) X = B ; expect X == X0.
        for (trans, op_l) in [(Trans::No, l.clone()), (Trans::Yes, l.adjoint())] {
            let mut b = op_l.multiply(&x0);
            trsm_left(trans, n, n, T::ONE, l.as_slice(), n, b.as_mut_slice(), n);
            assert!(b.max_diff(&x0) < 1e-9, "{trans:?}");
        }
    }

    #[test]
    fn trsm_left_solves() {
        check_trsm_left::<f64>(12);
        check_trsm_left::<C64>(12);
    }

    fn check_trsm_right<T: GemmScalar>(n: usize) {
        let (_, l) = factor::<T>(n, 3, 5);
        let x0 = rand_mat::<T>(n, n, 6);
        // B = X0 L^H ; solve X L^H = B.
        let mut b = x0.multiply(&l.adjoint());
        trsm_right(n, n, l.as_slice(), n, b.as_mut_slice(), n);
        assert!(b.max_diff(&x0) < 1e-9);
    }

    #[test]
    fn trsm_right_solves() {
        check_trsm_right::<f64>(10);
        check_trsm_right::<C64>(10);
    }

    fn check_hegst<T: GemmScalar>(n: usize) {
        // C = L^-1 A L^-H has the same eigenvalues as the pencil (A, B):
        // L C L^H == A, and C is exactly Hermitian.
        let (_, l) = factor::<T>(n, 4, 7);
        let a = rand_hermitian::<T>(n, 8);
        let mut c = a.clone();
        hegst(n, c.as_mut_slice(), n, l.as_slice(), n);
        assert_eq!(c, c.adjoint());
        let recon = l.multiply(&c).multiply(&l.adjoint());
        assert!(recon.max_diff(&a) < 1e-8 * n as f64);
    }

    #[test]
    fn sygst_transform_is_similar() {
        check_hegst::<f64>(14);
        check_hegst::<C64>(14);
    }
}
