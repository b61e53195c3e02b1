//! Singular value decomposition on the `tseig` substrate.
//!
//! The paper's §4.1 compares the symmetric eigenproblem against the
//! authors' two-stage SVD work [17]: the SVD costs `8/3 n^3 + 4 n^3 +
//! 4 n^3` where the eigenproblem costs `4/3 n^3 + 2 n^3 + 2 n^3` — the
//! lack of symmetry doubles every term, and the `O(n^2)` bulge chase
//! (the Amdahl fraction) is *relatively* smaller, which is why the
//! paper's eigenproblem is the harder parallelization target. This crate
//! makes that comparison concrete:
//!
//! * [`bdsqr`] — implicit-shift Golub–Kahan QR on a bidiagonal matrix,
//!   with singular-vector accumulation (the `dbdsqr` role),
//! * [`drivers::gesvd`] — the one-stage pipeline: `gebrd`
//!   bidiagonalization (from `tseig-onestage`, all `gemv`-bound),
//!   [`bdsqr`], and the blocked reflector back-transformation of
//!   `U`/`V`,
//! * flop-profile tests that verify the §4.1 ratios with the global
//!   counters.

pub mod bdsqr;
pub mod drivers;
pub mod stage1;
pub mod stage2;

pub use bdsqr::bdsqr;
pub use drivers::{gesvd, GeSvd, Svd, SvdBatch, SvdMethod, SvdPlan};
