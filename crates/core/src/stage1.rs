//! Stage 1: dense to symmetric band reduction (`sy2sb`).
//!
//! The panel loop — Bischof–Lang SBR-style QR panels and the symmetric
//! rank-2k two-sided update, all Level-3 — is the element-generic
//! [`tseig_kernels::stage1::reduce_ws`], shared with the Hermitian
//! pipeline. This module is its `f64` entry point: it runs the loop on a
//! dense working copy and extracts the band into [`SymBandMatrix`]
//! storage (with the workspace diagonals the bulge chase needs). `V` and
//! `T` are retained per panel for the back-transformation (`Q1`
//! application, paper Fig. 3a).

use tseig_kernels::contract;
use tseig_kernels::householder::BlockReflector;
use tseig_kernels::qr::geqrf_req;
use tseig_kernels::stage1::reduce_ws;
use tseig_matrix::workspace::MemReq;
use tseig_matrix::{Ctrl, Matrix, SymBandMatrix};

/// One panel's block reflector: `Q_k = I - V T V^T` acting on rows
/// `r0..n` (`V` is `(n - r0) x kb` with explicit unit diagonal, `T` is
/// `kb x kb` upper triangular with a clean lower triangle).
pub type Q1Panel = BlockReflector<f64>;

/// Reusable scratch of the stage-1 reduction (panel QR workspace plus
/// the intermediates of the rank-2k update); retains capacity across
/// panels and solves.
pub type Stage1Ws = tseig_kernels::stage1::Stage1Ws<f64>;

/// Result of the stage-1 reduction.
pub struct BandForm {
    /// The symmetric band matrix `B` (with `nb` extra workspace
    /// diagonals ready for the bulge chase).
    pub band: SymBandMatrix,
    /// Panel reflectors composing `Q1` in application order.
    pub panels: Vec<Q1Panel>,
    /// Semi-bandwidth.
    pub nb: usize,
}

impl BandForm {
    /// Bytes of heap capacity retained by the band store and every
    /// panel's `(V, T)` pair (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        self.band.capacity_bytes()
            + self
                .panels
                .iter()
                .map(Q1Panel::capacity_bytes)
                .sum::<usize>()
    }
}

impl Default for BandForm {
    /// The empty (order-0) band form.
    fn default() -> Self {
        BandForm {
            band: SymBandMatrix::zeros(0, 0, 0),
            panels: Vec::new(),
            nb: 0,
        }
    }
}

/// Workspace requirement of [`sy2sb_ws`] for an order-`n` problem
/// (excluding the caller's `work` copy and the [`BandForm`] output —
/// see [`sy2sb_out_req`]).
pub fn sy2sb_ws_req(n: usize, nb: usize, ib: usize) -> MemReq {
    let nb = nb.max(1);
    let ib = if ib == 0 { nb } else { ib };
    if n <= nb {
        return MemReq::EMPTY;
    }
    let m0 = n - nb; // largest sub-panel row count
    MemReq::f64s(nb) // tau
        .and(geqrf_req(m0, nb, ib))
        .and(MemReq::f64s(2 * m0 * nb)) // vt + w
        .and(MemReq::f64s(2 * nb * nb)) // mm + tm
}

/// Requirement of [`sy2sb_ws`]'s outputs: the band store plus every
/// panel's `(V, T)` pair.
pub fn sy2sb_out_req(n: usize, nb: usize) -> MemReq {
    let nb = nb.max(1);
    let mut req = MemReq::f64s((2 * nb + 1) * n); // band + workspace diagonals
    let mut j0 = 0usize;
    // tidy: allow(checkpoint-loop) -- pure sizing arithmetic, no solver work
    while j0 + nb < n {
        let m = n - (j0 + nb);
        let kb = nb.min(m);
        req = req.and(MemReq::f64s(m * kb + kb * kb));
        j0 += nb;
    }
    req
}

/// Reduce the dense symmetric `a` (lower triangle referenced) to band
/// form with semi-bandwidth `nb`. `ib` is the inner blocking of the panel
/// QR (defaults to `nb` when 0).
pub fn sy2sb(a: &Matrix, nb: usize, ib: usize) -> BandForm {
    let mut work = Matrix::zeros(0, 0);
    let mut out = BandForm::default();
    let mut ws = Stage1Ws::new();
    // An inert control never fails a checkpoint.
    let _ = sy2sb_ws(a, nb, ib, true, &mut work, &mut out, &mut ws, &Ctrl::NONE);
    out
}

/// Planned variant of [`sy2sb`]: the dense working copy, the band/panel
/// outputs and all QR/update scratch live in caller-owned storage, so a
/// warmed-up plan runs the reduction without heap allocation.
/// `parallel` selects the rayon BLAS-3 variants (the scheduled pipeline)
/// or the strictly serial ones (the allocation-free plan path).
/// Polls `ctrl` once per panel; an armed cancel or expired deadline
/// aborts between panels with the structured error (outputs are then
/// partial but the storage stays reusable).
#[allow(clippy::too_many_arguments)]
pub fn sy2sb_ws(
    a: &Matrix,
    nb: usize,
    ib: usize,
    parallel: bool,
    work: &mut Matrix,
    out: &mut BandForm,
    ws: &mut Stage1Ws,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    if contract::enabled() {
        contract::require_mat("sy2sb", "a", a.as_slice(), n, n, a.ld());
        contract::require_finite_lower("sy2sb", "a", a.as_slice(), n, a.ld());
    }
    let nb = nb.max(1);
    work.copy_from(a);
    let lda = work.ld();
    reduce_ws(
        n,
        work.as_mut_slice(),
        lda,
        nb,
        ib,
        parallel,
        &mut out.panels,
        ws,
        ctrl,
    )?;
    out.band.refill_from_dense_lower(work, nb, nb);
    out.nb = nb;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    /// Materialize Q1 = Q_0 Q_1 ... Q_K explicitly (tests only).
    pub(crate) fn form_q1(bf: &BandForm, n: usize) -> Matrix {
        let mut q = Matrix::identity(n);
        // Apply Q_k from the right: Q <- Q * (I - V T V^T), k ascending
        // gives Q = Q_0 Q_1 ... Q_K.
        for p in &bf.panels {
            let m = n - p.r0;
            let kb = p.k;
            tseig_kernels::householder::larfb(
                tseig_kernels::householder::Side::Right,
                tseig_kernels::Trans::No,
                n,
                m,
                kb,
                &p.v,
                m,
                &p.t,
                kb,
                &mut q.as_mut_slice()[p.r0 * n..],
                n,
            );
        }
        q
    }

    fn check(n: usize, nb: usize, seed: u64) {
        let a = gen::random_symmetric(n, seed);
        let bf = sy2sb(&a, nb, 0);
        // Band must actually be banded.
        assert_eq!(bf.band.bandwidth(), nb);
        assert_eq!(bf.band.max_below_subdiagonal(nb), 0.0);
        // A == Q1 B Q1^T.
        let q = form_q1(&bf, n);
        assert!(
            norms::orthogonality(&q) < 100.0,
            "Q1 not orthogonal n={n} nb={nb}"
        );
        let b = bf.band.to_dense();
        let qbqt = q.multiply(&b).unwrap().multiply(&q.transpose()).unwrap();
        let tol = 200.0 * norms::norm1(&a) * n as f64 * norms::EPS;
        assert!(
            qbqt.approx_eq(&a, tol),
            "Q1 B Q1^T != A (n={n}, nb={nb}), err {}",
            {
                let mut d = qbqt.clone();
                for (x, y) in d.as_mut_slice().iter_mut().zip(a.as_slice()) {
                    *x -= *y;
                }
                d.max_abs()
            }
        );
    }

    #[test]
    fn exact_tiles() {
        check(48, 8, 1);
    }

    #[test]
    fn ragged_tail() {
        check(50, 8, 2);
        check(37, 5, 3);
    }

    #[test]
    fn band_one_is_tridiagonal_path() {
        check(20, 1, 4);
    }

    #[test]
    fn wide_band() {
        check(30, 12, 5);
    }

    #[test]
    fn already_banded_matrix_unchanged_spectrum() {
        let n = 40;
        let nb = 6;
        let lambda = gen::linspace(-4.0, 4.0, n);
        let a = gen::symmetric_with_spectrum(&lambda, 7);
        let bf = sy2sb(&a, nb, 3);
        let t = bf.band.to_dense();
        let got = tseig_kernels::reference::jacobi_eigen(&t, false)
            .unwrap()
            .eigenvalues;
        assert!(norms::eigenvalue_distance(&got, &lambda) < 1e-10);
    }

    #[test]
    fn no_panels_when_band_covers_matrix() {
        let a = gen::random_symmetric(6, 9);
        let bf = sy2sb(&a, 8, 0);
        assert!(bf.panels.is_empty());
        assert!(bf.band.to_dense().approx_eq(
            &{
                let mut s = a.clone();
                s.symmetrize_from_lower();
                s
            },
            1e-15
        ));
    }
}
