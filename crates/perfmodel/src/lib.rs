//! Section-4 performance model of the paper.
//!
//! The model predicts when the two-stage algorithm beats the one-stage
//! one from four machine/problem parameters:
//!
//! * `alpha` — execution rate of `gemm` (flop/s): the compute-bound rate,
//! * `beta`  — execution rate of `gemv`/`symv` (flop/s): the
//!   memory-bound rate (the paper's Table 3 quotes it in bytes/s terms;
//!   we use flop/s uniformly — a `gemv` performs 1 flop per 4 bytes
//!   streamed, so the two differ by a constant),
//! * `p`     — core count,
//! * `D`     — band width after stage 1 (`nb`),
//! * `f`     — fraction of eigenvectors wanted, `0 < f <= 1`.
//!
//! Equations reproduced:
//!
//! * Eq. (4): `t_1s = 4/3 n^3 / beta + 2 n^3 f / (alpha p)`
//! * Eq. (5): `t_2s = 4/3 n^3 / (alpha p) + 6 D n^2 / (alpha p') + 4 n^3 f / (alpha p)`
//! * Eq. (6): crossover `n(alpha, beta, D, f, p) = 9 beta D / (2 alpha p - 3 f beta - 2 beta)`
//! * Eqs. (9)–(10): bulge-chasing compute/communication time vs `nb`,
//!   whose minimum predicts the optimal tile size (Figure 5, `nb ~ 80`
//!   on the paper's hardware).
//!
//! [`measure_machine`] measures `alpha` and `beta` on the *current*
//! machine with the workspace's own kernels, reproducing Table 3's
//! parameter table for this host.

pub mod calibrate;
pub mod model;

pub use calibrate::{measure_machine, MachineParams};
pub use model::{crossover_n, t_bulge_comm, t_bulge_exec, t_one_stage, t_two_stage, ModelParams};
