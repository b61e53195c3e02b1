//! Two-stage **Hermitian** eigensolver — the complex counterpart of
//! `tseig-core`.
//!
//! The paper's algorithm is stated for "symmetric (or hermitian)"
//! matrices; this crate carries the complex case end to end:
//!
//! 1. [`stage1::he2hb_with`] — dense Hermitian → Hermitian band storage
//!    (`SymBandMatrix<T>`, the real pipeline's), through the
//!    element-generic panel loop of `tseig_kernels::stage1` (complex
//!    Householder panels and the `her2k`-form two-sided update),
//! 2. [`stage2::reduce`] — band → tridiagonal bulge chasing with the
//!    element-generic chase of `tseig_kernels::stage2`, the three kernels
//!    the real pipeline runs; every sub-diagonal produced by an
//!    elimination is *real* by `larfg`'s convention,
//! 3. phase folding — any residual complex off-diagonals are rotated real
//!    by a unitary diagonal `D` (LAPACK `zhetrd` convention), so the
//!    tridiagonal eigensolve happens entirely in **real** arithmetic via
//!    `tseig-tridiag`,
//! 4. [`backtransform`] — `Z = Q1 Q2 D E`: `D` is folded in while `E` is
//!    complexified, then the diamond-blocked fused pass of
//!    `tseig_kernels::backtransform` — the one the real pipeline runs.
//!
//! Stages 1, 2 and 4 are thin entry points over code shared with the real
//! pipeline; the driver is still this crate's own.
//!
//! Entry point: [`driver::HermitianEigen`]. Validation helpers (complex
//! residual/orthogonality, a real `2n x 2n` embedding oracle) live in
//! [`validate`].
//!
//! The whole pipeline is generic over the complex element width through
//! [`HermScalar`]: `CMatrixG<C64>` (= `CMatrix`) gives the
//! `zheev`-equivalent solve, `CMatrixG<C32>` the `cheev`-equivalent one,
//! both with verification tolerances scaled by the element type's
//! epsilon. Every kernel it runs — the Householder, QR and Cholesky
//! tool-chain, the structured BLAS-3 and the packed SIMD GEMM engine — is
//! the one `tseig-kernels` runs for the real pipeline, monomorphized at
//! the complex type.

pub mod backtransform;
mod ckernels;
pub mod driver;
pub mod generalized;
pub mod stage1;
pub mod stage2;
pub mod validate;

pub use backtransform::HermScalar;
pub use driver::{HermitianEigen, HermitianResult, VERIFY_BOUND};
pub use stage2::Scheduler;
pub use tseig_matrix::diagnostics::{Recovery, SolveDiagnostics, VerifyLevel, VerifyReport};
