//! Blocked QR factorization and explicit Q formation.
//!
//! The first stage of the two-stage reduction QR-factorizes each
//! sub-diagonal panel; [`geqrf`] is that panel factorization. [`orgqr`]
//! materializes `Q` explicitly and exists mainly so tests can verify
//! orthogonality directly.

use crate::blas3::engine::GemmScalar;
use crate::blas3::Trans;
use crate::contract;
use crate::householder::{larfb_with_work, larfg, larft, BlockReflector, Side};
use tseig_matrix::workspace::{reset_zeroed, MemReq};
use tseig_matrix::{ComplexScalar, Matrix, Scalar};

/// Reusable workspace for [`geqrf_ws`]: one buffer per scratch object the
/// allocating entry points create per call. After the first call at a
/// given shape the capacities are warm and subsequent calls never touch
/// the allocator.
#[derive(Debug, Default)]
pub struct QrWs<T> {
    /// `geqr2` row workspace (length `n` of the current panel).
    pub work: Vec<T>,
    /// `geqr2` reflector head buffer (length `m`).
    pub u: Vec<T>,
    /// Explicit-V panel of the blocked update (column-major, `ld` = its
    /// row count).
    pub v: Vec<T>,
    /// `T` factor of the blocked update (`kk x kk`, column-major).
    pub t: Vec<T>,
    /// `larfb` workspace (`2 * k * n` for a left application).
    pub larfb: Vec<T>,
}

impl<T: Default> QrWs<T> {
    /// Fresh, empty workspace (buffers grow on first use).
    pub fn new() -> QrWs<T> {
        QrWs::default()
    }

    /// Bytes of heap capacity currently retained.
    pub fn capacity_bytes(&self) -> usize {
        (self.work.capacity()
            + self.u.capacity()
            + self.v.capacity()
            + self.t.capacity()
            + self.larfb.capacity())
            * std::mem::size_of::<T>()
    }
}

/// Workspace requirement of [`geqrf_ws`] for an `m x n` panel factored
/// with block size `nb`.
pub fn geqrf_req(m: usize, n: usize, nb: usize) -> MemReq {
    let nb = nb.max(1).min(n.max(1));
    MemReq::f64s(n) // geqr2 work
        .and(MemReq::f64s(m)) // geqr2 u
        .and(MemReq::f64s(m * nb)) // V
        .and(MemReq::f64s(nb * nb)) // T
        .and(MemReq::f64s(2 * nb * n)) // larfb work
}

/// Unblocked QR (LAPACK `geqr2`/`zgeqr2`): on return the upper triangle
/// of `a` holds `R` (with a real diagonal), the strict lower triangle
/// holds the reflector tails `v`, and `tau[j]` the scalar factors, so
/// `A = H_1 ... H_k R`.
pub fn geqr2<T: ComplexScalar>(m: usize, n: usize, a: &mut [T], lda: usize, tau: &mut [T]) {
    let mut work = Vec::new();
    let mut u = Vec::new();
    geqr2_ws(m, n, a, lda, tau, &mut work, &mut u);
}

/// [`geqr2`] with caller-owned scratch: `work` and `u` are resized (not
/// reallocated, once warm) to `n` and `m` elements. Identical arithmetic
/// in identical order, so results are bitwise-equal to [`geqr2`].
pub fn geqr2_ws<T: ComplexScalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    tau: &mut [T],
    work: &mut Vec<T>,
    u: &mut Vec<T>,
) {
    if contract::enabled() {
        contract::require_mat("geqr2", "a", a, m, n, lda);
        contract::require_vec("geqr2", "tau", tau, n.min(m));
        contract::require_finite_mat("geqr2", "a", a, m, n, lda);
    }
    let k = m.min(n);
    work.clear();
    work.resize(n, T::ZERO);
    u.clear();
    u.resize(m, T::ZERO);
    for j in 0..k {
        // Generate reflector for column j, rows j..m.
        let (beta, t) = {
            let col = &mut a[j * lda..j * lda + m];
            let (head, tail) = col.split_at_mut(j + 1);
            larfg(head[j], tail)
        };
        a[j + j * lda] = beta;
        tau[j] = t;
        if t == T::ZERO || j + 1 == n {
            continue;
        }
        // Materialize u = [1, v] and apply H^H to the trailing columns.
        let mlen = m - j;
        u[0] = T::ONE;
        for r in 1..mlen {
            u[r] = a[j + r + j * lda];
        }
        let ncols = n - j - 1;
        // Flops and bytes are accounted inside larf_left.
        crate::householder::larf_left(
            &u[..mlen],
            t.conj(),
            mlen,
            ncols,
            &mut a[j + (j + 1) * lda..],
            lda,
            work,
        );
    }
}

/// Blocked QR (LAPACK `geqrf`): panel `geqr2` + `larft`/`larfb` trailing
/// update with block size `nb`.
pub fn geqrf<T: GemmScalar>(m: usize, n: usize, a: &mut [T], lda: usize, tau: &mut [T], nb: usize) {
    let mut ws = QrWs::new();
    geqrf_ws(m, n, a, lda, tau, nb, &mut ws);
}

/// [`geqrf`] with caller-owned scratch (see [`QrWs`]). Identical
/// arithmetic in identical order, so results are bitwise-equal to
/// [`geqrf`]; the stage-1 planned path calls this with the plan's warm
/// workspace so repeated panels never allocate.
pub fn geqrf_ws<T: GemmScalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    tau: &mut [T],
    nb: usize,
    ws: &mut QrWs<T>,
) {
    if contract::enabled() {
        contract::require_mat("geqrf", "a", a, m, n, lda);
        contract::require_vec("geqrf", "tau", tau, n.min(m));
        contract::require_finite_mat("geqrf", "a", a, m, n, lda);
    }
    let k = m.min(n);
    if k == 0 {
        return;
    }
    let nb = nb.max(1);
    let mut j = 0;
    while j < k {
        let jb = nb.min(k - j);
        // Factor the panel a[j..m, j..j+jb].
        {
            let QrWs { work, u, .. } = ws;
            geqr2_ws(
                m - j,
                jb,
                &mut a[j + j * lda..],
                lda,
                &mut tau[j..],
                work,
                u,
            );
        }
        if j + jb < n {
            // Build clean V and T for the panel, then update the trailing
            // matrix with a blocked reflector.
            let QrWs { v, t, larfb, .. } = ws;
            let (panel, tau) = (&a[j + j * lda..], &tau[j..j + jb]);
            v_t_from_panel(panel, lda, Storev::Columns, m - j, jb, tau, v, t);
            let wlen = 2 * jb * (n - j - jb);
            larfb.clear();
            larfb.resize(wlen, T::ZERO);
            larfb_with_work(
                Side::Left,
                Trans::Yes,
                m - j,
                n - j - jb,
                jb,
                v,
                m - j,
                t,
                jb,
                &mut a[j + (j + jb) * lda..],
                lda,
                larfb,
            );
        }
        j += jb;
    }
}

/// How a factored panel stores its reflectors (LAPACK's `STOREV`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storev {
    /// Down the columns, below the diagonal: `geqrf`, `sytrd` and
    /// `gebrd`'s left reflectors. Entry `r` of reflector `c` is
    /// `a[r + c * lda]`.
    Columns,
    /// Along the rows, right of the diagonal: `gebrd`'s right
    /// reflectors. Entry `r` of reflector `c` is `a[c + r * lda]`, taken
    /// as stored (no conjugation).
    Rows,
}

/// Build reflectors `0 .. kk` of a factored panel into the block
/// reflector `p` acting on rows `r0 .. r0 + mm`, reusing `p`'s storage:
/// the explicit `mm x kk` `V` (unit diagonal, zeros above, the stored
/// entries below) and its `T` factor. No allocation once `p` is warm.
#[allow(clippy::too_many_arguments)]
pub fn block_reflector_into<T: Scalar>(
    a: &[T],
    lda: usize,
    storev: Storev,
    r0: usize,
    mm: usize,
    kk: usize,
    tau: &[T],
    p: &mut BlockReflector<T>,
) {
    (p.r0, p.rows, p.k) = (r0, mm, kk);
    v_t_from_panel(a, lda, storev, mm, kk, tau, &mut p.v, &mut p.t);
}

/// Fill `v` with the explicit-V form of a factored panel (`mm x kk`,
/// column-major, `ld = mm`) and write its `T` factor (`kk x kk`),
/// resizing both in place.
#[allow(clippy::too_many_arguments)]
fn v_t_from_panel<T: Scalar>(
    a: &[T],
    lda: usize,
    storev: Storev,
    mm: usize,
    kk: usize,
    tau: &[T],
    v: &mut Vec<T>,
    t: &mut Vec<T>,
) {
    let (rs, cs) = match storev {
        Storev::Columns => (1, lda),
        Storev::Rows => (lda, 1),
    };
    reset_zeroed(v, mm * kk);
    for col in 0..kk {
        v[col + col * mm] = T::ONE;
        for r in col + 1..mm {
            v[r + col * mm] = a[r * rs + col * cs];
        }
    }
    reset_zeroed(t, kk * kk);
    larft(mm, kk, v, mm, tau, t, kk);
}

/// Form the leading `m x m` orthogonal factor `Q = H_1 ... H_k`
/// explicitly from a `geqrf`-factored matrix.
pub fn orgqr(m: usize, k: usize, a: &[f64], lda: usize, tau: &[f64]) -> Matrix {
    if contract::enabled() {
        contract::require_mat("orgqr", "a", a, m, k, lda);
        contract::require_vec("orgqr", "tau", tau, k);
    }
    let mut q = Matrix::identity(m);
    let mut u = vec![0.0f64; m];
    let mut work = vec![0.0f64; m];
    for j in (0..k).rev() {
        let mlen = m - j;
        u[0] = 1.0;
        for r in 1..mlen {
            u[r] = a[j + r + j * lda];
        }
        let ldq = q.rows();
        crate::householder::larf_left(
            &u[..mlen],
            tau[j],
            mlen,
            m,
            &mut q.as_mut_slice()[j..],
            ldq,
            &mut work,
        );
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{norms, CMatrixG, C64};

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn check_qr(m: usize, n: usize, nb: usize, seed: u64) {
        let a0 = rand_mat(m, n, seed);
        let mut a = a0.clone();
        let k = m.min(n);
        let mut tau = vec![0.0; k];
        geqrf(m, n, a.as_mut_slice(), m, &mut tau, nb);
        let q = orgqr(m, k, a.as_slice(), m, &tau);
        // R = upper triangle of factored a.
        let mut r = Matrix::zeros(m, n);
        for j in 0..n {
            for i in 0..=j.min(m - 1) {
                r[(i, j)] = a[(i, j)];
            }
        }
        let qr = q.multiply(&r).unwrap();
        assert!(
            qr.approx_eq(&a0, 1e-12),
            "QR != A for m={m} n={n} nb={nb}: err {}",
            norms::frobenius(&{
                let mut d = qr.clone();
                for (x, y) in d.as_mut_slice().iter_mut().zip(a0.as_slice()) {
                    *x -= *y;
                }
                d
            })
        );
        // Q orthogonal.
        assert!(norms::orthogonality(&q) < 100.0, "Q not orthogonal");
    }

    /// Unblocked `geqr2` at any element type: `Q R = A` with `Q`
    /// materialized by applying the reflectors to `I` in reverse, and
    /// `Q` unitary.
    fn check_geqr2<T: ComplexScalar>(m: usize, n: usize, seed: u64) {
        let a0 = crate::testutil::rand_mat::<T>(m, n, seed);
        let mut a = a0.clone();
        let mut tau = vec![T::ZERO; m.min(n)];
        geqr2(m, n, a.as_mut_slice(), m, &mut tau);
        let mut q = CMatrixG::<T>::identity(m);
        let mut u = vec![T::ZERO; m];
        let mut work = vec![T::ZERO; m];
        for j in (0..m.min(n)).rev() {
            let rows = m - j;
            u[0] = T::ONE;
            for r in 1..rows {
                u[r] = a[(j + r, j)];
            }
            crate::householder::larf_left(
                &u[..rows],
                tau[j],
                rows,
                m,
                &mut q.as_mut_slice()[j..],
                m,
                &mut work,
            );
        }
        let r = CMatrixG::from_fn(m, n, |i, j| if i <= j { a[(i, j)] } else { T::ZERO });
        assert!(q.multiply(&r).max_diff(&a0) < 1e-12, "QR != A");
        assert!(q.multiply(&q.adjoint()).max_diff(&CMatrixG::identity(m)) < 1e-12);
        // R has a real diagonal.
        assert!((0..m.min(n)).all(|i| a[(i, i)].im() == 0.0));
    }

    #[test]
    fn qr_square_unblocked_equivalent() {
        check_qr(6, 6, 1, 1);
        check_geqr2::<f64>(8, 5, 11);
        check_geqr2::<C64>(8, 5, 11);
    }

    #[test]
    fn qr_tall_blocked() {
        check_qr(20, 8, 3, 2);
        check_qr(33, 12, 5, 3);
    }

    #[test]
    fn qr_wide_matrix() {
        check_qr(6, 11, 4, 4);
    }

    #[test]
    fn qr_block_larger_than_matrix() {
        check_qr(5, 5, 64, 5);
    }

    #[test]
    fn blocked_matches_unblocked() {
        let m = 18;
        let n = 10;
        let a0 = rand_mat(m, n, 6);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut tau1 = vec![0.0; n];
        let mut tau2 = vec![0.0; n];
        geqr2(m, n, a1.as_mut_slice(), m, &mut tau1);
        geqrf(m, n, a2.as_mut_slice(), m, &mut tau2, 4);
        assert!(a1.approx_eq(&a2, 1e-12));
        for (t1, t2) in tau1.iter().zip(&tau2) {
            assert!((t1 - t2).abs() < 1e-12);
        }
    }

    #[test]
    fn r_is_upper_triangular() {
        let m = 12;
        let n = 7;
        let mut a = rand_mat(m, n, 7);
        let mut tau = vec![0.0; n];
        geqrf(m, n, a.as_mut_slice(), m, &mut tau, 3);
        // The factored form stores v below the diagonal — that's fine; we
        // just verify Q^T A0 is upper triangular via the reconstruction
        // test above. Here check tau values are in the valid range
        // [0, 2] for real reflectors.
        for t in tau {
            assert!((0.0..=2.0).contains(&t), "tau {t} out of range");
        }
    }
}
