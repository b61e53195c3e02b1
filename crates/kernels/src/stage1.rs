//! Stage 1 of the two-stage reduction at any element type: dense
//! Hermitian (symmetric, on the real types) to band.
//!
//! Bischof–Lang SBR-style block reduction. For each panel `k` (columns
//! `j0..j0+nb`), the sub-panel below the band — rows `r0 = j0+nb .. n` —
//! is QR-factorized; the resulting block reflector `Q_k = I - V T V^H`
//! is applied to both sides of the trailing Hermitian block through the
//! rank-2k form
//!
//! ```text
//! W = A V T,   M = V^H W,   X = W - 1/2 V (T^H M),
//! A <- A - V X^H - X V^H              (syr2k / her2k)
//! ```
//!
//! Everything is Level-3 (`gemm`/`symm`/`syr2k`, optionally
//! rayon-parallel): the compute-bound recasting that motivates the whole
//! two-stage design. Only the lower triangle of `A` is read or written.
//! `V` and `T` are kept per panel for the back-transformation (`Q1`
//! application, paper Fig. 3a).
//!
//! [`reduce_ws`] is the one panel loop of both pipelines: `tseig-core`
//! extracts its `f64` band storage from the result, `tseig-hermitian`
//! its dense complex band.

use crate::blas3::engine::GemmScalar;
use crate::blas3::{
    gemm, gemm_par, symm_lower_left, symm_lower_left_par, syr2k_lower, syr2k_lower_par, Trans,
};
use crate::householder::BlockReflector;
use crate::qr::{block_reflector_into, geqrf_ws, QrWs, Storev};
use tseig_matrix::workspace::reset_zeroed;
use tseig_matrix::Ctrl;

/// Reusable scratch of the stage-1 reduction: panel QR workspace plus the
/// four intermediates of the rank-2k update. All buffers retain capacity
/// across panels and solves.
#[derive(Default)]
pub struct Stage1Ws<T> {
    tau: Vec<T>,
    qr: QrWs<T>,
    vt: Vec<T>,
    w: Vec<T>,
    mm: Vec<T>,
    tm: Vec<T>,
}

impl<T: Default> Stage1Ws<T> {
    pub fn new() -> Self {
        Stage1Ws::default()
    }

    /// Retained capacity in bytes (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        (self.tau.capacity()
            + self.vt.capacity()
            + self.w.capacity()
            + self.mm.capacity()
            + self.tm.capacity())
            * std::mem::size_of::<T>()
            + self.qr.capacity_bytes()
    }
}

/// Reduce the order-`n` Hermitian `a` (lower triangle referenced, leading
/// dimension `lda`) in place to band form with semi-bandwidth `nb`: on
/// return the lower triangle of `a` holds the band (zero below it) and
/// `panels` the block reflectors composing `Q1`, in application order.
/// `ib` is the inner blocking of the panel QR (0 picks `nb`). `parallel`
/// selects the rayon BLAS-3 variants or the strictly serial ones (the
/// allocation-free plan path). `panels` is a grow-only pool: its slots
/// are reused by index, so a warmed-up caller reduces without heap
/// allocation.
///
/// Polls `ctrl` once per panel; an armed cancel or expired deadline
/// aborts between panels with the structured error (`a` and `panels` are
/// then partial but stay reusable).
#[allow(clippy::too_many_arguments)]
pub fn reduce_ws<T: GemmScalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
    ib: usize,
    parallel: bool,
    panels: &mut Vec<BlockReflector<T>>,
    ws: &mut Stage1Ws<T>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    let nb = nb.max(1);
    let ib = if ib == 0 { nb } else { ib };
    let mut npanels = 0usize;

    let mut j0 = 0usize;
    while j0 + nb < n {
        ctrl.checkpoint()?;
        let r0 = j0 + nb;
        let m = n - r0; // rows of the sub-panel
        let kb = nb.min(m); // reflector count of this panel

        // QR-factorize the sub-panel A[r0.., j0..j0+nb] in place.
        reset_zeroed(&mut ws.tau, kb);
        geqrf_ws(
            m,
            nb,
            &mut a[r0 + j0 * lda..],
            lda,
            &mut ws.tau,
            ib,
            &mut ws.qr,
        );
        // Extract the clean V and T into the (reused) panel slot.
        if panels.len() <= npanels {
            panels.push(BlockReflector::default());
        }
        let p = &mut panels[npanels];
        npanels += 1;
        let panel = &a[r0 + j0 * lda..];
        block_reflector_into(panel, lda, Storev::Columns, r0, m, kb, &ws.tau, p);
        // Zero the annihilated part of the panel in A (below the R
        // factor) so the band extraction sees the true band; R itself
        // (the new band block) stays.
        for jj in 0..nb {
            let col = &mut a[(j0 + jj) * lda..];
            for x in &mut col[(r0 + jj + 1).min(n)..n] {
                *x = T::ZERO;
            }
        }
        // Two-sided trailing update A2 <- Q^H A2 Q on A[r0.., r0..].
        two_sided_update(n, a, lda, p, parallel, ws);
        j0 += nb;
    }
    panels.truncate(npanels);
    Ok(())
}

/// `A2 <- (I - V T V^H)^H A2 (I - V T V^H)` for the trailing Hermitian
/// block starting at `p.r0`, via the rank-2k form.
fn two_sided_update<T: GemmScalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    p: &BlockReflector<T>,
    parallel: bool,
    ws: &mut Stage1Ws<T>,
) {
    let (r0, kb) = (p.r0, p.k);
    let m = n - r0;
    if m == 0 || kb == 0 {
        return;
    }
    let (one, zero) = (T::ONE, T::ZERO);
    let (v, t) = (&p.v[..], &p.t[..]);
    let gemm_big = if parallel { gemm_par } else { gemm };
    let symm = if parallel {
        symm_lower_left_par
    } else {
        symm_lower_left
    };
    let syr2k = if parallel {
        syr2k_lower_par
    } else {
        syr2k_lower
    };
    // X1 = V T  (m x kb)
    reset_zeroed(&mut ws.vt, m * kb);
    gemm_big(
        Trans::No,
        Trans::No,
        m,
        kb,
        kb,
        one,
        v,
        m,
        t,
        kb,
        zero,
        &mut ws.vt,
        m,
    );
    // W = A2 * X1 (Hermitian multiply, lower storage)
    reset_zeroed(&mut ws.w, m * kb);
    let a2 = &a[r0 + r0 * lda..];
    symm(m, kb, one, a2, lda, &ws.vt, m, zero, &mut ws.w, m);
    // M = V^H W (kb x kb)
    reset_zeroed(&mut ws.mm, kb * kb);
    gemm(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        m,
        one,
        v,
        m,
        &ws.w,
        m,
        zero,
        &mut ws.mm,
        kb,
    );
    // TM = T^H M
    reset_zeroed(&mut ws.tm, kb * kb);
    gemm(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        kb,
        one,
        t,
        kb,
        &ws.mm,
        kb,
        zero,
        &mut ws.tm,
        kb,
    );
    // X = W - 1/2 V TM (accumulated in place: W doubles as X)
    gemm_big(
        Trans::No,
        Trans::No,
        m,
        kb,
        kb,
        T::from_f64(-0.5),
        v,
        m,
        &ws.tm,
        kb,
        one,
        &mut ws.w,
        m,
    );
    // A2 -= V X^H + X V^H
    let a2 = &mut a[r0 + r0 * lda..];
    syr2k(m, kb, -1.0, v, m, &ws.w, m, 1.0, a2, lda);
}

#[cfg(test)]
mod tests {
    use crate::blas3::engine::GemmScalar;
    use crate::householder::{larfb, BlockReflector, Side};
    use crate::testutil::{band_form, embedded_eigenvalues, rand_hermitian, tol};
    use crate::Trans;
    use tseig_matrix::{norms, CMatrixG, C32, C64};

    /// Materialize `Q1 = Q_0 Q_1 ...` explicitly.
    fn form_q1<T: GemmScalar>(panels: &[BlockReflector<T>], n: usize) -> CMatrixG<T> {
        let mut q = CMatrixG::identity(n);
        // Q <- Q (I - V T V^H), panels ascending.
        for p in panels {
            let c = &mut q.as_mut_slice()[p.r0 * n..];
            larfb(
                Side::Right,
                Trans::No,
                n,
                p.rows,
                p.k,
                &p.v,
                p.rows,
                &p.t,
                p.k,
                c,
                n,
            );
        }
        q
    }

    fn band_structure_and_reconstruction_at<T: GemmScalar>() {
        let n = 24;
        let nb = 5;
        let a = rand_hermitian::<T>(n, 41);
        let (band, panels) = band_form(&a, nb);
        // Banded.
        for j in 0..n {
            for i in j + nb + 1..n {
                assert_eq!(band[(i, j)], T::ZERO);
            }
        }
        // Q1 B Q1^H == A.
        let q = form_q1(&panels, n);
        let qbq = q.multiply(&band).multiply(&q.adjoint());
        assert!(
            qbq.max_diff(&a) < tol::<T>(1e-11) * n as f64,
            "Q1 B Q1^H != A"
        );
        // Q1 unitary.
        assert!(q.multiply(&q.adjoint()).max_diff(&CMatrixG::identity(n)) < tol::<T>(1e-11));
    }

    #[test]
    fn band_structure_and_reconstruction() {
        band_structure_and_reconstruction_at::<f64>();
        band_structure_and_reconstruction_at::<f32>();
        band_structure_and_reconstruction_at::<C64>();
        band_structure_and_reconstruction_at::<C32>();
    }

    fn spectrum_preserved_at<T: GemmScalar>() {
        let n = 20;
        let a = rand_hermitian::<T>(n, 42);
        let (band, _) = band_form(&a, 4);
        let want = embedded_eigenvalues(&a);
        let got = embedded_eigenvalues(&band);
        assert!(
            norms::eigenvalue_distance(&got, &want) < tol::<T>(1e-9),
            "band spectrum differs"
        );
    }

    #[test]
    fn spectrum_preserved() {
        spectrum_preserved_at::<f64>();
        spectrum_preserved_at::<f32>();
        spectrum_preserved_at::<C64>();
        spectrum_preserved_at::<C32>();
    }

    fn wide_band_no_panels_at<T: GemmScalar>() {
        let a = rand_hermitian::<T>(5, 43);
        let (band, panels) = band_form(&a, 8);
        assert!(panels.is_empty());
        assert!(band.max_diff(&a) < 1e-14);
    }

    #[test]
    fn wide_band_no_panels() {
        wide_band_no_panels_at::<f64>();
        wide_band_no_panels_at::<f32>();
        wide_band_no_panels_at::<C64>();
        wide_band_no_panels_at::<C32>();
    }
}
