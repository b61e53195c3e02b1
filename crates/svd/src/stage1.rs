//! Stage 1 of the two-stage SVD: dense to band-bidiagonal reduction
//! (`ge2bb`).
//!
//! The general-matrix counterpart of `tseig-core`'s `sy2sb`. For each
//! panel of `b` columns the algorithm
//!
//! 1. QR-factorizes the column panel `A[j0.., j0..j0+b]` (zeroing it
//!    below the diagonal) and applies `Q^T` to the trailing columns as a
//!    blocked reflector (`larfb`, all Level-3), then
//! 2. LQ-factorizes the row panel `A[j0..j0+b, j0+b..n]` (via QR of its
//!    transpose), leaving a lower-triangular block in columns
//!    `j0+b..j0+2b` — which caps the superdiagonal extent of every row
//!    at exactly `b` — and applies the right factor to the trailing rows
//!    as a blocked reflector.
//!
//! The result is upper-triangular band form: `A = Q1 B P1^T` with `B`
//! of bandwidth `b`, every flop `gemm`-class. `Q1`/`P1` panels are
//! retained for the back-transformation of the singular vectors.

use tseig_kernels::backtransform::apply_q;
use tseig_kernels::contract;
use tseig_kernels::householder::{larfb_with_work, BlockReflector, Side};
use tseig_kernels::qr::{block_reflector_into, geqrf_ws, QrWs, Storev};
use tseig_kernels::Trans;
use tseig_matrix::workspace::reset_f64s;
use tseig_matrix::{Ctrl, GeBandMatrix, Matrix};

/// Result of the stage-1 reduction.
pub struct BandBidiForm {
    /// The upper-band matrix `B` (logical bandwidth `b = kl()`, with
    /// `ku = 2b` fill diagonals ready for the bulge chase).
    pub band: GeBandMatrix,
    /// Left panels composing `Q1` in application order, each acting on
    /// the rows `r0 .. r0 + rows`.
    pub qpanels: Vec<BlockReflector<f64>>,
    /// Right panels composing `P1` in application order, each acting on
    /// the columns `r0 .. r0 + rows`.
    pub ppanels: Vec<BlockReflector<f64>>,
    /// Bandwidth.
    pub b: usize,
}

/// Reduce a square dense matrix to upper band form with bandwidth `b`:
/// `A = Q1 B P1^T`. `ib` is the inner blocking of the panel QR
/// (defaults to `b` when 0).
pub fn ge2bb(a: &Matrix, b: usize, ib: usize) -> BandBidiForm {
    match ge2bb_with(a, b, ib, &Ctrl::NONE) {
        Ok(form) => form,
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`ge2bb`] under a request control: polls `ctrl` once per panel — an
/// armed cancel or expired deadline aborts between panels with the
/// structured error and no partial output escapes.
pub fn ge2bb_with(
    a: &Matrix,
    b: usize,
    ib: usize,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<BandBidiForm> {
    assert_eq!(
        a.rows(),
        a.cols(),
        "two-stage reduction expects a square matrix"
    );
    let n = a.rows();
    if contract::enabled() {
        contract::require_mat("ge2bb", "a", a.as_slice(), n, n, a.ld());
        contract::require_finite_mat("ge2bb", "a", a.as_slice(), n, n, a.ld());
    }
    let b = b.max(1);
    let ib = if ib == 0 { b } else { ib };
    let mut work = a.clone();
    let lda = work.ld().max(1);
    let mut qpanels = Vec::new();
    let mut ppanels = Vec::new();
    let mut tau = Vec::new();
    let mut qr = QrWs::new();
    let mut rp = Vec::new(); // transposed row panel
    let mut lb = Vec::new(); // larfb workspace

    let mut j0 = 0usize;
    while j0 < n {
        ctrl.checkpoint()?;
        let jb = b.min(n - j0);
        let m0 = n - j0;
        // QR of the column panel: zero it below the diagonal.
        reset_f64s(&mut tau, jb);
        {
            let panel = &mut work.as_mut_slice()[j0 + j0 * lda..];
            geqrf_ws(m0, jb, panel, lda, &mut tau, ib, &mut qr);
        }
        let mut qp = BlockReflector::default();
        let panel = &work.as_slice()[j0 + j0 * lda..];
        block_reflector_into(panel, lda, Storev::Columns, j0, m0, jb, &tau, &mut qp);
        let wcols = n - j0 - jb;
        if wcols > 0 {
            // Trailing update C <- Q^T C on columns j0+jb..n.
            reset_f64s(&mut lb, 2 * jb * wcols);
            larfb_with_work(
                Side::Left,
                Trans::Yes,
                m0,
                wcols,
                jb,
                &qp.v,
                m0,
                &qp.t,
                jb,
                &mut work.as_mut_slice()[j0 + (j0 + jb) * lda..],
                lda,
                &mut lb,
            );
        }
        // Clear the stored reflector tails so the band harvest below
        // sees the true (banded) matrix; R itself stays.
        for c in 0..jb {
            for i in j0 + c + 1..n {
                work[(i, j0 + c)] = 0.0;
            }
        }
        qpanels.push(qp);

        // LQ of the row panel via QR of its transpose: rows j0..j0+jb
        // become [L 0] with L lower triangular in columns j0+jb..j0+2b.
        if wcols > 1 {
            let w = wcols;
            let kk = w.min(jb);
            reset_f64s(&mut rp, w * jb);
            for c in 0..jb {
                for i in 0..w {
                    rp[i + c * w] = work[(j0 + c, j0 + jb + i)];
                }
            }
            reset_f64s(&mut tau, kk);
            geqrf_ws(w, jb, &mut rp, w, &mut tau, ib, &mut qr);
            let mut pp = BlockReflector::default();
            block_reflector_into(&rp, w, Storev::Columns, j0 + jb, w, kk, &tau, &mut pp);
            // Row panel <- [Rt^T 0] (the lower-trapezoidal L).
            for c in 0..jb {
                for i in 0..w {
                    work[(j0 + c, j0 + jb + i)] =
                        if i <= c && i < kk { rp[i + c * w] } else { 0.0 };
                }
            }
            // Trailing rows: C <- C P with P = H_1 ... H_kk.
            let mrows = n - j0 - jb;
            reset_f64s(&mut lb, 2 * mrows * kk);
            larfb_with_work(
                Side::Right,
                Trans::No,
                mrows,
                w,
                kk,
                &pp.v,
                w,
                &pp.t,
                kk,
                &mut work.as_mut_slice()[(j0 + jb) + (j0 + jb) * lda..],
                lda,
                &mut lb,
            );
            ppanels.push(pp);
        }
        j0 += jb;
    }

    // Harvest the band (upper triangle only: the subdiagonal is zero by
    // construction, the superdiagonal extent is capped at b).
    let mut band = GeBandMatrix::zeros(n, b, 2 * b);
    for j in 0..n {
        for i in j.saturating_sub(b)..=j {
            band.set(i, j, work[(i, j)]);
        }
    }
    Ok(BandBidiForm {
        band,
        qpanels,
        ppanels,
        b,
    })
}

/// Apply `Q1` to `u` from the left: `u <- Q1 u` with
/// `Q1 = Q_0 Q_1 ... Q_last` (last panel applied first), over column
/// panels of `u` on the pool. With `u = U_b` this completes the left
/// singular vectors.
pub fn apply_q1(panels: &[BlockReflector<f64>], u: &mut Matrix) {
    let ldu = u.ld();
    apply_q(&[], panels, u.as_mut_slice(), ldu, 1, 0);
}

/// Apply `P1` to `v` from the left (acting on the column coordinate
/// space): `v <- P1 v` with `P1 = P_0 P_1 ... P_last`. With `v = V_b`
/// this completes the right singular vectors.
pub fn apply_p1(panels: &[BlockReflector<f64>], v: &mut Matrix) {
    apply_q1(panels, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::norms;

    fn rand_mat(n: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn check(n: usize, b: usize, seed: u64) {
        let a = rand_mat(n, seed);
        let form = ge2bb(&a, b, 0);
        // The harvested band must reproduce A as Q1 B P1^T.
        let mut q1 = Matrix::identity(n);
        apply_q1(&form.qpanels, &mut q1);
        let mut p1 = Matrix::identity(n);
        apply_p1(&form.ppanels, &mut p1);
        assert!(norms::orthogonality(&q1) < 100.0, "Q1 not orthogonal");
        assert!(norms::orthogonality(&p1) < 100.0, "P1 not orthogonal");
        let recon = q1
            .multiply(&form.band.to_dense())
            .unwrap()
            .multiply(&p1.transpose())
            .unwrap();
        let tol = 200.0 * norms::norm1(&a) * n as f64 * norms::EPS;
        assert!(
            recon.approx_eq(&a, tol),
            "Q1 B P1^T != A (n={n}, b={b}), err {}",
            {
                let mut diff = recon.clone();
                for (x, y) in diff.as_mut_slice().iter_mut().zip(a.as_slice()) {
                    *x -= *y;
                }
                diff.max_abs()
            }
        );
    }

    #[test]
    fn exact_tiles() {
        check(24, 4, 1);
        check(32, 8, 2);
    }

    #[test]
    fn ragged_tail() {
        check(37, 5, 3);
        check(26, 8, 4);
    }

    #[test]
    fn band_wider_than_matrix() {
        check(6, 8, 5);
    }

    #[test]
    fn tiny() {
        check(1, 2, 6);
        check(2, 2, 7);
        check(3, 2, 8);
    }

    #[test]
    fn singular_values_preserved() {
        let n = 30;
        let b = 5;
        let a = rand_mat(n, 9);
        let form = ge2bb(&a, b, 3);
        let bd = form.band.to_dense();
        let want =
            tseig_kernels::reference::jacobi_eigen(&a.transpose().multiply(&a).unwrap(), false)
                .unwrap()
                .eigenvalues;
        let got =
            tseig_kernels::reference::jacobi_eigen(&bd.transpose().multiply(&bd).unwrap(), false)
                .unwrap()
                .eigenvalues;
        assert!(
            norms::eigenvalue_distance(&got, &want) < 1e-9,
            "stage 1 changed the singular values"
        );
    }

    #[test]
    fn flops_are_level3() {
        // The whole point of the two-stage form: stage 1 is gemm-bound
        // where the one-stage gebrd is gemv-bound.
        let n = 120;
        let a = rand_mat(n, 10);
        let (_, counts) = tseig_kernels::flops::measure(|| ge2bb(&a, 8, 0));
        let frac = counts.l3 as f64 / counts.total().max(1) as f64;
        assert!(frac > 0.90, "ge2bb L3 fraction {frac}");
    }
}
