//! Baseline one-stage symmetric eigensolver (LAPACK `dsyevd`-style).
//!
//! This crate is the comparison target of every speedup figure in the
//! paper: the classic pipeline that reduces the dense matrix *directly*
//! to tridiagonal form with blocked Householder transformations
//! ([`sytrd`]), solves the tridiagonal problem, and back-transforms the
//! eigenvectors with the single orthogonal factor `Q1` ([`ormtr`]).
//!
//! Its defining property — and the reason the two-stage algorithm beats
//! it — is that every panel step performs a symmetric matrix-vector
//! product (`symv`) with the *entire trailing submatrix*: `~4/3 n^3` flops
//! executed at memory-bandwidth speed (`beta` in the paper's model,
//! Eq. (4)), which no number of cores can accelerate once the bus
//! saturates: `lim_{p->inf} t_1s = 4/3 n^3 / beta`.
//!
//! The implementation parallelizes everything that *can* be parallelized
//! (the `symv` itself, the `syr2k` trailing updates, the blocked
//! back-transformation) so the comparison against the two-stage pipeline
//! is honest — the paper compared against multi-threaded MKL, not against
//! a strawman.

pub mod bidiagonal;
pub mod driver;
pub mod ormtr;
pub mod sytrd;

pub use driver::{syev, OneStageOptions, OneStageResult};
