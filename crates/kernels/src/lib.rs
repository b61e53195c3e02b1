//! From-scratch BLAS-like kernels and Householder transformations.
//!
//! This crate is the computational substrate of the two-stage eigensolver.
//! It mirrors the split the paper relies on:
//!
//! * **Level-1/2 kernels** ([`blas1`], [`blas2`]) — memory-bound: `symv`,
//!   `gemv`, `ger`, `syr2`. These dominate the *one-stage* reduction and
//!   are the reason it cannot scale (paper §4, Table 2).
//! * **Level-3 kernels** ([`blas3`]) — compute-bound, cache-blocked and
//!   optionally rayon-parallel: `gemm`, `syrk`, `syr2k`, `trmm`. These
//!   dominate the *two-stage* pipeline.
//! * **Householder tool-chain** ([`householder`], [`qr`]) — `larfg`,
//!   `larf`, `larft`, `larfb`, blocked QR: the building blocks of both
//!   reduction stages and of the back-transformation.
//! * **The three layers of the two-stage pipeline** ([`stage1`],
//!   [`stage2`], [`backtransform`]) — the blocked band reduction, the
//!   bulge chase on band storage and the diamond-blocked
//!   back-transformation, written once for all four element types;
//!   `tseig-core` and `tseig-hermitian` are thin entry points over them.
//! * **Rotation sequences** ([`rot`]) — the deferred Givens rotations of
//!   the tridiagonal and bidiagonal QR iterations, applied to cache-sized
//!   row strips of the vector matrix, serially or on the pool (the LAPACK
//!   `dlasr` role).
//! * **Cholesky tool-chain** ([`cholesky`]) — `potrf`, `trsm`, `hegst`:
//!   the reduction of a generalized problem to standard form.
//! * **Pencils and verification** ([`pencil`]) — the whole reduction of
//!   `A x = lambda B x` to standard form and back (scaling, the Cholesky
//!   shift ladder, the transform, the back-substitution) for both pencil
//!   drivers, and the one post-solve verifier of the eigensolvers.
//! * **Flop accounting** ([`flops`]) — relaxed atomic counters, split by
//!   BLAS level, used to *measure* the complexity columns of the paper's
//!   Table 1 instead of trusting the formulas.
//! * **Contracts** ([`contract`]) — debug-build argument validation
//!   (dimensions, leading-dimension bounds, slice coverage, alias
//!   overlap) at every public kernel entry point, plus opt-in NaN/Inf
//!   poison detection behind the `paranoid` feature. Compiles out in
//!   release builds.
//! * **Reference oracle** ([`reference`]) — a cyclic Jacobi eigensolver,
//!   independent of everything above, that tests compare against.
//!
//! All kernels follow LAPACK conventions: column-major storage passed as
//! `(&[T], ld)` pairs, lower-triangular symmetric (Hermitian) storage.
//! The Level-3, Householder, QR and Cholesky kernels are generic over
//! the four element types (`f32`, `f64`, `C32`, `C64`): each conjugation
//! is written in and is the identity on the real types, so the real and
//! the Hermitian pipelines run one copy of every kernel.

// BLAS-style entry points pass every dimension/stride explicitly; the
// argument counts are the interface, not an accident.
#![allow(clippy::too_many_arguments)]

pub mod backtransform;
pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod cholesky;
pub mod contract;
pub mod flops;
pub mod householder;
pub mod pencil;
pub mod qr;
pub mod reference;
pub mod rot;
pub mod scaling;
pub mod stage1;
pub mod stage2;
#[cfg(test)]
mod testutil;

pub use blas3::Trans;
