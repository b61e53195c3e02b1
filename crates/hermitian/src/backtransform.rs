//! Hermitian back-transformation `Z = Q1 (Q2 (D E))`.
//!
//! The diamond-blocked `Q2` application, the `Q1` block reflectors and
//! the fused single pass over cache-sized column panels are the
//! element-generic [`tseig_kernels::backtransform`] the real pipeline
//! runs too — the commutation argument for the diamond reordering only
//! involves row supports, so it holds for complex reflectors verbatim.
//! The only Hermitian addition is the unitary diagonal `D` (the phase
//! fold from stage 2): the real tridiagonal eigenvectors `E` become
//! eigenvectors of the complex tridiagonal as `D E`, which is applied
//! before the shared pass.

use crate::stage1::Q1PanelC;
use crate::stage2::V2Set;
use tseig_kernels::backtransform as bt;
use tseig_kernels::blas3::engine::GemmScalar;
use tseig_matrix::{CMatrixG, ComplexScalar, C32, C64};

/// Column-panel width for the cache-local distribution of `E` at `C64`:
/// complex elements are twice the size of real ones, so this is half
/// the real pipeline's for the same cache footprint.
pub const DEFAULT_PANEL_COLS: usize = bt::default_panel_cols::<C64>();

/// A complex element type the Hermitian driver runs end to end
/// (`C32` or `C64`).
pub trait HermScalar: ComplexScalar + GemmScalar {}

impl HermScalar for C64 {}

impl HermScalar for C32 {}

/// Fused single-pass back-transformation `E <- Q1 Q2 D E`: `D` (when
/// given) scales the rows of `E`, then per column panel the full diamond
/// sequence and the reverse `Q1` chain run while the panel is
/// cache-resident, parallel over the panels.
pub fn apply_q<T: HermScalar>(
    v2: &V2Set<T>,
    panels: &[Q1PanelC<T>],
    phases: Option<&[T]>,
    e: &mut CMatrixG<T>,
    ell: usize,
    panel_cols: usize,
) {
    let n = v2.n();
    assert_eq!(e.rows(), n, "E must have n rows");
    let ldc = e.ld();
    if let Some(d) = phases {
        assert_eq!(d.len(), n, "D must have n phases");
        bt::scale_rows(d, e.as_mut_slice(), ldc);
    }
    bt::apply_q(v2.sweeps(), panels, e.as_mut_slice(), ldc, ell, panel_cols);
}
