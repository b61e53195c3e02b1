//! Stage 1 (Hermitian): dense to Hermitian band (`he2hb`).
//!
//! Mirror of `tseig_core::stage1::sy2sb` in complex arithmetic: QR-factor
//! each sub-panel, apply `Q = I - V T V^H` two-sided via the Hermitian
//! rank-2k form
//!
//! ```text
//! W = A V T,  M = V^H W,  X = W - 1/2 V (T^H M),
//! A <- A - V X^H - X V^H            (her2k)
//! ```

use tseig_kernels::blas3::engine::{gemm_par, GemmScalar};
use tseig_kernels::blas3::{symm_lower_left_par, syr2k_lower_par, Op};
use tseig_kernels::householder::larft;
use tseig_kernels::qr::geqr2;
use tseig_matrix::{CMatrixG, ComplexScalar, Ctrl, C64};

/// One panel's block reflector, acting on rows `r0..n`.
pub struct Q1PanelC<T: ComplexScalar = C64> {
    pub r0: usize,
    /// `(n - r0) x kb`, explicit unit diagonal.
    pub v: CMatrixG<T>,
    /// `kb x kb` upper triangular, clean lower part.
    pub t: Vec<T>,
}

/// Result of the Hermitian band reduction. The band is kept as a dense
/// Hermitian matrix with entries zeroed outside the band (complex band
/// storage would mirror `SymBandMatrix`; dense keeps this crate compact
/// while stage 2 still only touches band-window blocks).
pub struct BandFormC<T: ComplexScalar = C64> {
    pub band: CMatrixG<T>,
    pub panels: Vec<Q1PanelC<T>>,
    pub nb: usize,
}

/// Reduce the dense Hermitian `a` (lower triangle referenced) to band
/// form with semi-bandwidth `nb`.
pub fn he2hb<T: ComplexScalar + GemmScalar>(a: &CMatrixG<T>, nb: usize) -> BandFormC<T> {
    match he2hb_with(a, nb, &Ctrl::NONE) {
        Ok(form) => form,
        // Unreachable: the inert control never fails a checkpoint.
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`he2hb`] under a request control: polls `ctrl` once per panel so an
/// armed cancel or expired deadline aborts between panels with the
/// structured error and no partial output escapes.
pub fn he2hb_with<T: ComplexScalar + GemmScalar>(
    a: &CMatrixG<T>,
    nb: usize,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<BandFormC<T>> {
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    let nb = nb.max(1);
    let mut a = a.clone();
    a.hermitize_from_lower();
    let lda = a.ld();
    let mut panels = Vec::new();

    let mut j0 = 0usize;
    while j0 + nb < n {
        ctrl.checkpoint()?;
        let r0 = j0 + nb;
        let m = n - r0;
        let kb = nb.min(m);
        let mut tau = vec![T::ZERO; kb];
        {
            let panel = &mut a.as_mut_slice()[r0 + j0 * lda..];
            geqr2(m, nb, panel, lda, &mut tau);
        }
        // Extract clean V and T.
        let mut v = CMatrixG::zeros(m, kb);
        for col in 0..kb {
            v[(col, col)] = T::ONE;
            for r in col + 1..m {
                v[(r, col)] = a.as_slice()[r0 + r + (j0 + col) * lda];
            }
        }
        let mut t = vec![T::ZERO; kb * kb];
        larft(m, kb, v.as_slice(), m, &tau, &mut t, kb);
        // Zero the annihilated part below the R factor, and mirror the
        // panel's new band block into the upper triangle.
        for jj in 0..nb {
            for i in (r0 + jj + 1).min(n)..n {
                a[(i, j0 + jj)] = T::ZERO;
            }
        }
        for jj in 0..nb {
            for i in j0 + jj..n.min(r0 + jj + 1) {
                let val = a[(i, j0 + jj)];
                a[(j0 + jj, i)] = val.conj();
            }
        }
        two_sided_update(&mut a, r0, &v, &t);
        panels.push(Q1PanelC { r0, v, t });
        j0 += nb;
    }

    // Zero everything outside the band for a clean band form, and make
    // the matrix exactly Hermitian.
    for j in 0..n {
        for i in j + nb + 1..n {
            a[(i, j)] = T::ZERO;
        }
    }
    a.hermitize_from_lower();
    Ok(BandFormC {
        band: a,
        panels,
        nb,
    })
}

/// `A2 <- Q^H A2 Q` on the trailing block at `r0` (Hermitian rank-2k).
fn two_sided_update<T: ComplexScalar + GemmScalar>(
    a: &mut CMatrixG<T>,
    r0: usize,
    v: &CMatrixG<T>,
    t: &[T],
) {
    let n = a.rows();
    let lda = a.ld();
    let m = n - r0;
    let kb = v.cols();
    if m == 0 || kb == 0 {
        return;
    }
    // VT = V T.
    let mut vt = CMatrixG::zeros(m, kb);
    gemm_par(
        Op::No,
        Op::No,
        m,
        kb,
        kb,
        T::ONE,
        v.as_slice(),
        m,
        t,
        kb,
        T::ZERO,
        vt.as_mut_slice(),
        m,
    );
    // W = A2 VT (Hermitian multiply).
    let mut w = CMatrixG::zeros(m, kb);
    {
        let a2 = &a.as_slice()[r0 + r0 * lda..];
        symm_lower_left_par(
            m,
            kb,
            T::ONE,
            a2,
            lda,
            vt.as_slice(),
            m,
            T::ZERO,
            w.as_mut_slice(),
            m,
        );
    }
    // M = V^H W.
    let mut mm = vec![T::ZERO; kb * kb];
    gemm_par(
        Op::ConjTrans,
        Op::No,
        kb,
        kb,
        m,
        T::ONE,
        v.as_slice(),
        m,
        w.as_slice(),
        m,
        T::ZERO,
        &mut mm,
        kb,
    );
    // TM = T^H M.
    let mut tm = vec![T::ZERO; kb * kb];
    gemm_par(
        Op::ConjTrans,
        Op::No,
        kb,
        kb,
        kb,
        T::ONE,
        t,
        kb,
        &mm,
        kb,
        T::ZERO,
        &mut tm,
        kb,
    );
    // X = W - 1/2 V TM.
    let mut x = w;
    gemm_par(
        Op::No,
        Op::No,
        m,
        kb,
        kb,
        T::new(-0.5, 0.0),
        v.as_slice(),
        m,
        &tm,
        kb,
        T::ONE,
        x.as_mut_slice(),
        m,
    );
    // A2 -= V X^H + X V^H.
    {
        let a2 = &mut a.as_mut_slice()[r0 + r0 * lda..];
        syr2k_lower_par(m, kb, -1.0, v.as_slice(), m, x.as_slice(), m, 1.0, a2, lda);
    }
    // Restore exact Hermitian symmetry of the trailing block (the upper
    // triangle is stale after the lower-only update).
    for j in r0..n {
        for i in j + 1..n {
            let val = a[(i, j)];
            a[(j, i)] = val.conj();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{rand_hermitian, real_embedding_eigenvalues};
    use tseig_kernels::householder::{larfb, Side};
    use tseig_kernels::Trans;
    use tseig_matrix::CMatrix;

    /// Materialize Q1 = Q_0 Q_1 ... explicitly (tests only).
    pub(crate) fn form_q1(bf: &BandFormC, n: usize) -> CMatrix {
        let mut q = CMatrix::identity(n);
        // Q <- Q (I - V T V^H), panels ascending.
        for p in &bf.panels {
            let m = n - p.r0;
            let kb = p.v.cols();
            larfb(
                Side::Right,
                Trans::No,
                n,
                m,
                kb,
                p.v.as_slice(),
                m,
                &p.t,
                kb,
                &mut q.as_mut_slice()[p.r0 * n..],
                n,
            );
        }
        q
    }

    #[test]
    fn band_structure_and_reconstruction() {
        let n = 24;
        let nb = 5;
        let a = rand_hermitian(n, 41);
        let bf = he2hb(&a, nb);
        // Banded.
        for j in 0..n {
            for i in j + nb + 1..n {
                assert_eq!(bf.band[(i, j)], C64::ZERO);
            }
        }
        // Q1 B Q1^H == A.
        let q = form_q1(&bf, n);
        let qbq = q.multiply(&bf.band).multiply(&q.adjoint());
        assert!(qbq.max_diff(&a) < 1e-11 * n as f64, "Q1 B Q1^H != A");
        // Q1 unitary.
        assert!(q.multiply(&q.adjoint()).max_diff(&CMatrix::identity(n)) < 1e-11);
    }

    #[test]
    fn spectrum_preserved() {
        let n = 20;
        let a = rand_hermitian(n, 42);
        let bf = he2hb(&a, 4);
        let want = real_embedding_eigenvalues(&a);
        let got = real_embedding_eigenvalues(&bf.band);
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&got, &want) < 1e-9,
            "band spectrum differs"
        );
    }

    #[test]
    fn wide_band_no_panels() {
        let a = rand_hermitian(5, 43);
        let bf = he2hb(&a, 8);
        assert!(bf.panels.is_empty());
        assert!(bf.band.max_diff(&a) < 1e-14);
    }
}
