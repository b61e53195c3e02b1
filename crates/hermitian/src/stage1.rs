//! Stage 1 (Hermitian): dense to Hermitian band (`he2hb`).
//!
//! The panel loop — complex QR panels and the `her2k`-form two-sided
//! update — is the element-generic
//! [`tseig_kernels::stage1::reduce_ws`] the real pipeline runs too.
//! This module is its complex entry point: the band is kept as a dense
//! Hermitian matrix with entries zeroed outside the band (complex band
//! storage would mirror `SymBandMatrix`; dense keeps this crate compact
//! while stage 2 still only touches band-window blocks).

use tseig_kernels::blas3::engine::GemmScalar;
use tseig_kernels::householder::BlockReflector;
use tseig_kernels::stage1::{reduce_ws, Stage1Ws};
use tseig_matrix::{CMatrixG, ComplexScalar, Ctrl, C64};

/// One panel's block reflector `I - V T V^H`, acting on rows `r0..n`.
pub type Q1PanelC<T = C64> = BlockReflector<T>;

/// Result of the Hermitian band reduction.
pub struct BandFormC<T: ComplexScalar = C64> {
    pub band: CMatrixG<T>,
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
    let mut band = a.clone();
    let lda = band.ld();
    let mut panels = Vec::new();
    let mut ws = Stage1Ws::new();
    reduce_ws(
        n,
        band.as_mut_slice(),
        lda,
        nb,
        0,
        true,
        &mut panels,
        &mut ws,
        ctrl,
    )?;
    // The reduction leaves the band (zero below it) in the lower
    // triangle only; mirror it to make the matrix exactly Hermitian.
    band.hermitize_from_lower();
    Ok(BandFormC { band, panels, nb })
}
