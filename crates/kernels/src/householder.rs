//! Householder reflector tool-chain: `larfg`, `larf`, `larft`, `larfb`,
//! generic over the four element types.
//!
//! Conventions (LAPACK-compatible, `zlarfg`-style for complex types):
//!
//! * A reflector is `H = I - tau u u^H` with `u = [1, v]^T`; `larfg`
//!   returns a real `beta` and `tau` and overwrites its input with `v`
//!   (the part below the implicit leading 1). On the real types `u^H`
//!   is `u^T`, `H` is symmetric and every conjugation below is the
//!   identity.
//! * Block reflectors use the compact WY form `H_1 H_2 ... H_k =
//!   I - V T V^H`, where `V` is unit lower-trapezoidal. Our `larft`/`larfb`
//!   take `V` with **explicit** unit diagonal and explicit zeros above it —
//!   callers materialize that (cheap, `k` is a block size) — because the
//!   bulge-chasing back-transformation builds `V` blocks (the paper's
//!   *diamonds*) that never lived inside a factored matrix.
//! * [`Trans::Yes`] asks for the conjugate transpose `H^H` (the plain
//!   transpose on the real types).

use crate::blas3::engine::GemmScalar;
use crate::blas3::{gemm_t, trmm_upper_left, Op, Trans};
use crate::contract;
use crate::flops::{add, add_bytes, Level};
use tseig_matrix::{ComplexScalar, Scalar};

/// Which side a (block) reflector is applied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Generate an elementary reflector for the vector `[alpha, x]`: on
/// return `H^H [alpha, x]^T = [beta, 0]^T` with `beta` real, `x` holds
/// `v`, and the function returns `(beta, tau)`. `tau == 0` means
/// `H == I`. The norm is the scaled [`nrm2`](crate::blas1::nrm2), so
/// inputs near the overflow or underflow threshold still produce a
/// reflector that annihilates the tail.
pub fn larfg<T: ComplexScalar>(alpha: T, x: &mut [T]) -> (T, T) {
    contract::require_finite_vec("larfg", "x", x, x.len());
    let xnorm = crate::blas1::nrm2(x);
    let (are, aim) = (alpha.re(), alpha.im());
    if xnorm == 0.0 && aim == 0.0 {
        return (alpha, T::ZERO);
    }
    add(Level::L1, T::MULADD_FLOPS * x.len() as u64);
    add_bytes(Level::L1, 2 * T::BYTES * x.len() as u64);
    let norm = if aim == 0.0 {
        are.hypot(xnorm)
    } else {
        are.hypot(aim).hypot(xnorm)
    };
    let beta = -norm.copysign(are);
    let tau = T::new((beta - are) / beta, -aim / beta);
    let inv = T::ONE / (alpha - T::new(beta, 0.0));
    for v in x.iter_mut() {
        *v *= inv;
    }
    (T::new(beta, 0.0), tau)
}

/// Apply `H = I - tau u u^H` from the left: `C <- H C`, where `u` is the
/// **full** reflector vector of length `m` (leading 1 stored explicitly).
/// Pass `conj(tau)` to apply `H^H`.
pub fn larf_left<T: Scalar>(
    u: &[T],
    tau: T,
    m: usize,
    n: usize,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if contract::enabled() {
        contract::require_vec("larf_left", "u", u, m);
        contract::require_vec("larf_left", "work", work, n);
        contract::require_mat("larf_left", "c", c, m, n, ldc);
        contract::require_no_alias("larf_left", "u", u, "c", c);
        contract::require_finite_vec("larf_left", "u", u, m);
    }
    if tau == T::ZERO {
        return;
    }
    add(Level::L2, 2 * T::MULADD_FLOPS * (m * n) as u64);
    // C read and written once, u/work streamed per column sweep.
    add_bytes(Level::L2, T::BYTES * (2 * m * n + m + 2 * n) as u64);
    // work = C^H u, conjugated: work_j = u^H C(:, j).
    for j in 0..n {
        let col = &c[j * ldc..j * ldc + m];
        let mut s = T::ZERO;
        for i in 0..m {
            s += col[i] * u[i].conj();
        }
        work[j] = s;
    }
    // C -= tau u work^T
    for j in 0..n {
        let t = tau * work[j];
        if t == T::ZERO {
            continue;
        }
        let col = &mut c[j * ldc..j * ldc + m];
        for i in 0..m {
            col[i] -= t * u[i];
        }
    }
}

/// Apply `H = I - tau u u^H` from the right: `C <- C H`, `u` of length `n`.
pub fn larf_right<T: Scalar>(
    u: &[T],
    tau: T,
    m: usize,
    n: usize,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if contract::enabled() {
        contract::require_vec("larf_right", "u", u, n);
        contract::require_vec("larf_right", "work", work, m);
        contract::require_mat("larf_right", "c", c, m, n, ldc);
        contract::require_no_alias("larf_right", "u", u, "c", c);
        contract::require_finite_vec("larf_right", "u", u, n);
    }
    if tau == T::ZERO {
        return;
    }
    add(Level::L2, 2 * T::MULADD_FLOPS * (m * n) as u64);
    // C read and written once, u/work streamed per column sweep.
    add_bytes(Level::L2, T::BYTES * (2 * m * n + 2 * m + n) as u64);
    // work = C u
    work[..m].fill(T::ZERO);
    for j in 0..n {
        let t = u[j];
        if t == T::ZERO {
            continue;
        }
        let col = &c[j * ldc..j * ldc + m];
        for i in 0..m {
            work[i] += t * col[i];
        }
    }
    // C -= tau work u^H
    for j in 0..n {
        let t = tau * u[j].conj();
        if t == T::ZERO {
            continue;
        }
        let col = &mut c[j * ldc..j * ldc + m];
        for i in 0..m {
            col[i] -= t * work[i];
        }
    }
}

/// Apply `H = I - tau u u^H` two-sided to a Hermitian matrix:
/// `A <- H^H A H` (order `n`, **full dense** storage, both triangles kept
/// in sync). Used by the bulge-chasing kernels on small cache-resident
/// blocks.
///
/// Uses the Hermitian rank-2 form: `w = tau (A u - (conj(tau)/2)
/// (u^H A u) u)`, then `A <- A - u w^H - w u^H`.
pub fn larf_sym_two_sided<T: ComplexScalar>(
    u: &[T],
    tau: T,
    n: usize,
    a: &mut [T],
    lda: usize,
    work: &mut [T],
) {
    if contract::enabled() {
        contract::require_vec("larf_sym_two_sided", "u", u, n);
        contract::require_vec("larf_sym_two_sided", "work", work, n);
        contract::require_mat("larf_sym_two_sided", "a", a, n, n, lda);
        contract::require_no_alias("larf_sym_two_sided", "u", u, "a", a);
        contract::require_finite_vec("larf_sym_two_sided", "u", u, n);
    }
    if tau == T::ZERO {
        return;
    }
    add(Level::L2, 2 * T::MULADD_FLOPS * (n * n) as u64);
    // A read and written once, u/work streamed per column sweep.
    add_bytes(Level::L2, T::BYTES * (2 * n * n + 2 * n) as u64);
    // work = A u  (A is fully stored Hermitian here)
    work[..n].fill(T::ZERO);
    for j in 0..n {
        let t = u[j];
        if t == T::ZERO {
            continue;
        }
        let col = &a[j * lda..j * lda + n];
        for i in 0..n {
            work[i] += t * col[i];
        }
    }
    // u^H A u is real for Hermitian A; its imaginary part is rounding.
    let uau: f64 = (0..n).map(|i| (u[i].conj() * work[i]).re()).sum();
    let half = tau.conj().scale(0.5).scale(uau);
    for i in 0..n {
        work[i] = tau * (work[i] - half * u[i]);
    }
    for j in 0..n {
        let (wj, uj) = (work[j].conj(), u[j].conj());
        let col = &mut a[j * lda..j * lda + n];
        for i in 0..n {
            col[i] -= u[i] * wj + work[i] * uj;
        }
    }
}

/// Form the upper-triangular block-reflector factor `T` (forward,
/// column-wise) such that `H_1 ... H_k = I - V T V^H`.
///
/// `V` is `m x k` with explicit unit diagonal and zeros above; `tau[i]`
/// belongs to column `i`. `T` (`k x k`, `ldt >= k`) is fully written:
/// entries below the diagonal are set to zero so `T` can be fed to
/// general (non-triangular) multiplies.
pub fn larft<T: Scalar>(
    m: usize,
    k: usize,
    v: &[T],
    ldv: usize,
    tau: &[T],
    t: &mut [T],
    ldt: usize,
) {
    if contract::enabled() {
        contract::require_mat("larft", "v", v, m, k, ldv);
        contract::require_vec("larft", "tau", tau, k);
        contract::require_mat("larft", "t", t, k, k, ldt);
        contract::require_no_alias("larft", "v", v, "t", t);
        contract::require_finite_mat("larft", "v", v, m, k, ldv);
        contract::require_finite_vec("larft", "tau", tau, k);
    }
    add(Level::L3, (T::MULADD_FLOPS / 2) * (m * k * k) as u64);
    // V streamed once per column pair, T is k x k and cache-resident.
    add_bytes(Level::L3, T::BYTES * (m * k + 2 * k * k) as u64);
    for i in 0..k {
        // Zero below-diagonal part of column i.
        for l in i + 1..k {
            t[l + i * ldt] = T::ZERO;
        }
        if tau[i] == T::ZERO {
            t[i + i * ldt] = T::ZERO;
            for l in 0..i {
                t[l + i * ldt] = T::ZERO;
            }
            continue;
        }
        // w = V(:, 0..i)^H * V(:, i)
        for l in 0..i {
            let vl = &v[l * ldv..l * ldv + m];
            let vi = &v[i * ldv..i * ldv + m];
            let mut s = T::ZERO;
            for r in 0..m {
                s += vl[r].conj() * vi[r];
            }
            t[l + i * ldt] = -tau[i] * s;
        }
        // T(0..i, i) = T(0..i, 0..i) * w  (in place, top-down).
        for l in 0..i {
            let mut s = T::ZERO;
            for q in l..i {
                s += t[l + q * ldt] * t[q + i * ldt];
            }
            t[l + i * ldt] = s;
        }
        t[i + i * ldt] = tau[i];
    }
}

/// Apply a block reflector `H = I - V T V^H` (or `H^H`) to `C`.
///
/// * `side == Left`:  `C (m x n) <- op(H) C`, `V` is `m x k`.
/// * `side == Right`: `C (m x n) <- C op(H)`, `V` is `n x k`.
///
/// `V` carries explicit unit diagonal / explicit zeros above (see module
/// docs); `T` is the `k x k` factor from [`larft`] with a clean lower
/// triangle.
#[allow(clippy::too_many_arguments)]
pub fn larfb<T: GemmScalar>(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    v: &[T],
    ldv: usize,
    t: &[T],
    ldt: usize,
    c: &mut [T],
    ldc: usize,
) {
    let wlen = match side {
        Side::Left => k * n,
        Side::Right => m * k,
    };
    let mut work = vec![T::ZERO; 2 * wlen];
    larfb_with_work(side, trans, m, n, k, v, ldv, t, ldt, c, ldc, &mut work);
}

/// [`larfb`] with caller-provided workspace (`work.len() >= 2*k*n` for
/// `Left`, `>= 2*m*k` for `Right`). The back-transformation applies tens
/// of thousands of small block reflectors; reusing the workspace keeps
/// the allocator out of the inner loop.
#[allow(clippy::too_many_arguments)]
pub fn larfb_with_work<T: GemmScalar>(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    v: &[T],
    ldv: usize,
    t: &[T],
    ldt: usize,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if contract::enabled() {
        let vrows = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let wlen = match side {
            Side::Left => 2 * k * n,
            Side::Right => 2 * m * k,
        };
        contract::require_mat("larfb", "v", v, vrows, k, ldv);
        contract::require_mat("larfb", "t", t, k, k, ldt);
        contract::require_mat("larfb", "c", c, m, n, ldc);
        contract::require_vec("larfb", "work", work, wlen);
        contract::require_no_alias("larfb", "v", v, "c", c);
        contract::require_no_alias("larfb", "t", t, "c", c);
        contract::require_no_alias("larfb", "work", work, "c", c);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (one, zero) = (T::ONE, T::ZERO);
    let kern = T::kernel();
    let vh = Op::of::<T>(Trans::Yes);
    match side {
        Side::Left => {
            // W = V^H C  (k x n); W <- op(T) W (triangular); C -= V W.
            let w = &mut work[..k * n];
            gemm_t(kern, vh, Op::No, k, n, m, one, v, ldv, c, ldc, zero, w, k);
            trmm_upper_left(trans, k, n, one, t, ldt, w, k);
            gemm_t(
                kern,
                Op::No,
                Op::No,
                m,
                n,
                k,
                -one,
                v,
                ldv,
                w,
                k,
                one,
                c,
                ldc,
            );
        }
        Side::Right => {
            // W = C V (m x k); W <- W op(T); C -= W V^H.
            let (w, w2) = work[..2 * m * k].split_at_mut(m * k);
            gemm_t(
                kern,
                Op::No,
                Op::No,
                m,
                k,
                n,
                one,
                c,
                ldc,
                v,
                ldv,
                zero,
                w,
                m,
            );
            let topt = Op::of::<T>(trans);
            gemm_t(kern, Op::No, topt, m, k, k, one, w, m, t, ldt, zero, w2, m);
            gemm_t(kern, Op::No, vh, m, n, k, -one, w2, m, v, ldv, one, c, ldc);
        }
    }
}

/// A stored block reflector `H = I - V T V^H` acting on rows
/// `r0 .. r0 + rows` of the matrix it is applied to: a stage-1 panel
/// (`V` unit lower trapezoidal) or a back-transform diamond (`V` a
/// parallelogram whose top `k x k` block is unit lower triangular).
/// `V` is `rows x k` column-major with `ld = rows`, its unit diagonal
/// and the zeros above it explicit; `T` is `k x k` upper triangular with
/// a clean lower part ([`larft`]).
#[derive(Clone, Debug, Default)]
pub struct BlockReflector<T> {
    /// First row the reflector touches.
    pub r0: usize,
    /// Row count of `V`.
    pub rows: usize,
    /// Column count of `V` (the number of elementary reflectors).
    pub k: usize,
    /// Diamond support width: column `p` of `V` is zero below row
    /// `p + band` (the back-transform's parallelogram); unused by the
    /// trapezoidal stage-1 panels.
    pub band: usize,
    pub v: Vec<T>,
    pub t: Vec<T>,
}

impl<T> BlockReflector<T> {
    /// Bytes of heap capacity retained by `V` and `T`.
    pub fn capacity_bytes(&self) -> usize {
        (self.v.capacity() + self.t.capacity()) * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rand_hermitian, rand_mat, rand_vec};
    use tseig_matrix::{c64, CMatrixG, C64};

    /// Dense H = I - tau u u^H.
    fn dense_h<T: ComplexScalar>(u: &[T], tau: T) -> CMatrixG<T> {
        let n = u.len();
        CMatrixG::from_fn(n, n, |i, j| {
            let id = if i == j { T::ONE } else { T::ZERO };
            id - tau * u[i] * u[j].conj()
        })
    }

    /// `[1, v]` from a reflector tail.
    fn full_u<T: ComplexScalar>(v: &[T]) -> Vec<T> {
        let mut u = vec![T::ONE];
        u.extend_from_slice(v);
        u
    }

    /// `larfg` on `[alpha, x0]`: `H^H [alpha, x0]` must be `[beta, 0..]`
    /// with `beta` real and `|beta| = ||[alpha, x0]||`, all to within
    /// `tol * ||[alpha, x0]||`. Returns `tau`.
    fn check_annihilates<T: ComplexScalar>(alpha: T, x0: &[T], tol: f64) -> T {
        let mut x = x0.to_vec();
        let (beta, tau) = larfg(alpha, &mut x);
        let y: Vec<T> = std::iter::once(alpha).chain(x0.iter().copied()).collect();
        let norm = crate::blas1::nrm2(&y);
        let hh = dense_h(&full_u(&x), tau).adjoint();
        let mut resid = vec![T::ZERO; y.len()];
        for (i, r) in resid.iter_mut().enumerate() {
            let mut s = T::ZERO;
            for (j, &yj) in y.iter().enumerate() {
                s += hh[(i, j)] * yj;
            }
            *r = s - if i == 0 { beta } else { T::ZERO };
        }
        assert_eq!(beta.im(), 0.0, "beta must be real");
        assert!(
            crate::blas1::nrm2(&resid) <= tol * norm,
            "H^H x != beta e1: {:e} vs {:e}",
            crate::blas1::nrm2(&resid),
            norm
        );
        assert!((ComplexScalar::abs(beta) - norm).abs() <= tol * norm);
        tau
    }

    #[test]
    fn larfg_annihilates() {
        check_annihilates(0.0, &[3.0, 4.0], 1e-14 / 5.0);
        check_annihilates(
            c64(0.3, -0.7),
            &[c64(1.0, 0.5), c64(-0.2, 0.8)],
            1e-13 / 1.5,
        );
    }

    #[test]
    fn larfg_extreme_scales_annihilate() {
        // Near the overflow and underflow thresholds the norm must be
        // the scaled one: an unscaled sum of squares overflows to inf
        // (tau = NaN) or underflows to zero (tau = 0, nothing
        // annihilated).
        for s in [1e200, 1e-200] {
            for tau in [
                check_annihilates(s, &[s], 8.0 * f64::EPSILON),
                check_annihilates(c64(s, 0.0), &[c64(s, 0.0)], 8.0 * f64::EPSILON).re,
                check_annihilates(c64(s, -s), &[c64(0.5 * s, s)], 8.0 * f64::EPSILON).re,
            ] {
                assert!(tau.is_finite() && tau != 0.0, "scale {s:e}: tau {tau}");
            }
        }
    }

    #[test]
    fn larfg_zero_tail_gives_identity() {
        let mut x = vec![0.0, 0.0];
        let (beta, tau) = larfg(7.5, &mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(beta, 7.5);
        let mut x = vec![C64::ZERO; 2];
        let (beta, tau) = larfg(c64(7.5, 0.0), &mut x);
        assert_eq!((beta, tau), (c64(7.5, 0.0), C64::ZERO));
        // A complex alpha still needs a reflector to make beta real.
        let tau = check_annihilates(c64(3.0, 4.0), &[C64::ZERO], 1e-15);
        assert_ne!(tau, C64::ZERO);
    }

    /// `H H^H = I` (for a real reflector also `H^2 = I`).
    fn check_unitary<T: ComplexScalar>(alpha: T, len: usize, seed: u64, tol: f64) {
        let mut x = rand_vec::<T>(len, seed);
        let (_, tau) = larfg(alpha, &mut x);
        let h = dense_h(&full_u(&x), tau);
        let hh = h.multiply(&h.adjoint());
        assert!(
            hh.max_diff(&CMatrixG::identity(len + 1)) < tol,
            "H H^H != I"
        );
    }

    #[test]
    fn reflector_is_orthogonal_involution() {
        check_unitary(0.7, 5, 1, 1e-13);
        check_unitary(c64(1.0, 0.2), 3, 1, 1e-13);
    }

    fn check_larf<T: ComplexScalar>(m: usize, n: usize, seed: u64) {
        let c0 = rand_mat::<T>(m, n, seed);
        let mut x = rand_vec::<T>(m - 1, seed + 1);
        let (_, tau) = larfg(T::new(0.3, -0.4), &mut x);
        let u = full_u(&x);
        let h = dense_h(&u, tau);
        let mut work = vec![T::ZERO; m.max(n)];

        let mut c = c0.clone();
        larf_left(&u, tau, m, n, c.as_mut_slice(), m, &mut work);
        assert!(c.max_diff(&h.multiply(&c0)) < 1e-13);

        // From the right, on the n x m adjoint, with u of length m.
        let c0h = c0.adjoint();
        let mut cr = c0h.clone();
        larf_right(&u, tau, n, m, cr.as_mut_slice(), n, &mut work);
        assert!(cr.max_diff(&c0h.multiply(&h)) < 1e-13);
    }

    #[test]
    fn larf_left_right_match_dense() {
        check_larf::<f64>(6, 4, 2);
        check_larf::<C64>(5, 4, 9);
    }

    fn check_two_sided<T: ComplexScalar>(n: usize, seed: u64) {
        let a0 = rand_hermitian::<T>(n, seed);
        let mut a = a0.clone();
        let mut x = rand_vec::<T>(n - 1, seed + 1);
        let (_, tau) = larfg(T::new(-0.2, 0.1), &mut x);
        let u = full_u(&x);
        let h = dense_h(&u, tau);
        let mut work = vec![T::ZERO; n];
        larf_sym_two_sided(&u, tau, n, a.as_mut_slice(), n, &mut work);
        let want = h.adjoint().multiply(&a0).multiply(&h);
        assert!(a.max_diff(&want) < 1e-12);
    }

    #[test]
    fn two_sided_matches_h_a_h() {
        check_two_sided::<f64>(5, 4);
        check_two_sided::<C64>(7, 4);
    }

    /// Build k random reflectors in explicit-V form plus their taus.
    fn random_v_tau<T: ComplexScalar>(m: usize, k: usize, seed: u64) -> (CMatrixG<T>, Vec<T>) {
        let mut v = CMatrixG::zeros(m, k);
        let mut taus = Vec::with_capacity(k);
        for i in 0..k {
            let mut x = rand_vec::<T>(m - i - 1, seed + i as u64);
            let (_, tau) = larfg(T::new(0.5, 0.1), &mut x);
            v[(i, i)] = T::ONE;
            for (r, &val) in x.iter().enumerate() {
                v[(i + 1 + r, i)] = val;
            }
            taus.push(tau);
        }
        (v, taus)
    }

    /// H = H_1 H_2 ... H_k as a dense product.
    fn dense_block_h<T: ComplexScalar>(v: &CMatrixG<T>, taus: &[T]) -> CMatrixG<T> {
        let m = v.rows();
        let mut h = CMatrixG::identity(m);
        for (i, &tau) in taus.iter().enumerate() {
            let u: Vec<T> = (0..m).map(|r| v[(r, i)]).collect();
            h = h.multiply(&dense_h(&u, tau));
        }
        h
    }

    fn check_larft<T: ComplexScalar>(m: usize, k: usize, seed: u64) {
        let (v, taus) = random_v_tau::<T>(m, k, seed);
        let mut t = vec![T::ONE; k * k];
        larft(m, k, v.as_slice(), m, &taus, &mut t, k);
        // I - V T V^H must equal H_1 H_2 H_3.
        let tmat = CMatrixG::from_fn(k, k, |i, j| t[i + j * k]);
        let vtv = v.multiply(&tmat).multiply(&v.adjoint());
        let got = CMatrixG::from_fn(m, m, |i, j| {
            let id = if i == j { T::ONE } else { T::ZERO };
            id - vtv[(i, j)]
        });
        assert!(
            got.max_diff(&dense_block_h(&v, &taus)) < 1e-13,
            "compact WY mismatch"
        );
        // Lower triangle of T is clean.
        for j in 0..k {
            for i in j + 1..k {
                assert_eq!(t[i + j * k], T::ZERO);
            }
        }
    }

    #[test]
    fn larft_compact_wy_identity() {
        check_larft::<f64>(8, 3, 10);
        check_larft::<C64>(7, 3, 10);
    }

    /// `larfb` against the dense block reflector, both transposes:
    /// `Left` is `op(H) C`, `Right` is `C op(H)`.
    fn check_larfb<T: GemmScalar>(side: Side, m: usize, n: usize, k: usize, seed: u64) {
        let vrows = if side == Side::Left { m } else { n };
        let (v, taus) = random_v_tau::<T>(vrows, k, seed);
        let mut t = vec![T::ZERO; k * k];
        larft(vrows, k, v.as_slice(), vrows, &taus, &mut t, k);
        let h = dense_block_h(&v, &taus);
        let c0 = rand_mat::<T>(m, n, seed + 1);
        for (trans, op_h) in [(Trans::No, h.clone()), (Trans::Yes, h.adjoint())] {
            let mut c = c0.clone();
            larfb(
                side,
                trans,
                m,
                n,
                k,
                v.as_slice(),
                vrows,
                &t,
                k,
                c.as_mut_slice(),
                m,
            );
            let want = match side {
                Side::Left => op_h.multiply(&c0),
                Side::Right => c0.multiply(&op_h),
            };
            assert!(c.max_diff(&want) < 1e-12, "{side:?} {trans:?}");
        }
    }

    #[test]
    fn larfb_left_both_trans() {
        check_larfb::<f64>(Side::Left, 9, 5, 4, 20);
        check_larfb::<C64>(Side::Left, 9, 5, 4, 20);
    }

    #[test]
    fn larfb_right_both_trans() {
        check_larfb::<f64>(Side::Right, 5, 9, 3, 30);
        check_larfb::<C64>(Side::Right, 5, 9, 3, 30);
    }
}
