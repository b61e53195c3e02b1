//! Stage 1 (Hermitian): dense to Hermitian band (`he2hb`).
//!
//! The panel loop — complex QR panels and the `her2k`-form two-sided
//! update — is the element-generic
//! [`tseig_kernels::stage1::reduce_ws`] the real pipeline runs too.
//! This module is its complex entry point: it runs the loop on a dense
//! working copy and extracts the band into the same [`SymBandMatrix`]
//! storage the real pipeline uses (with the `nb` workspace diagonals the
//! bulge chase needs).

use tseig_kernels::blas3::engine::GemmScalar;
use tseig_kernels::householder::BlockReflector;
use tseig_kernels::stage1::{reduce_ws, Stage1Ws};
use tseig_matrix::{CMatrixG, ComplexScalar, Ctrl, SymBandMatrix, C64};

/// One panel's block reflector `I - V T V^H`, acting on rows `r0..n`.
pub type Q1PanelC<T = C64> = BlockReflector<T>;

/// Result of the Hermitian band reduction.
pub struct BandFormC<T: ComplexScalar = C64> {
    /// The Hermitian band matrix `B` (lower band storage, real diagonal,
    /// `nb` extra workspace diagonals ready for the bulge chase).
    pub band: SymBandMatrix<T>,
    pub panels: Vec<Q1PanelC<T>>,
    pub nb: usize,
}

/// Reduce the dense Hermitian `a` (lower triangle referenced) to band
/// form with semi-bandwidth `nb`. Polls `ctrl` once per panel so an
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
    let mut work = a.clone();
    let lda = work.ld();
    let mut panels = Vec::new();
    let mut ws = Stage1Ws::new();
    reduce_ws(
        n,
        work.as_mut_slice(),
        lda,
        nb,
        0,
        true,
        &mut panels,
        &mut ws,
        ctrl,
    )?;
    // The reduction leaves the band (zero below it) in the lower
    // triangle, which is all the band storage keeps.
    let mut band = SymBandMatrix::default();
    band.refill_from_lower(n, work.as_slice(), lda, nb, nb);
    Ok(BandFormC { band, panels, nb })
}
