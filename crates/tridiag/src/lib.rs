//! Symmetric tridiagonal eigensolvers.
//!
//! Both reduction pipelines (one-stage and two-stage) end at a symmetric
//! tridiagonal matrix `T`; this crate computes its eigendecomposition
//! `T = E diag(lambda) E^T`. The paper's experiments use three tridiagonal
//! solvers, all reproduced here:
//!
//! * [`qr_iteration`] — implicit-shift QL/QR (`steqr`), the classic
//!   `O(n^3)`-with-vectors method, also used as the leaf solver of D&C,
//! * [`dandc`] — divide & conquer with deflation and a secular-equation
//!   solver (`stedc`), the paper's Figure-4a solver,
//! * [`sturm`] + [`inverse_iteration`] — bisection and inverse iteration,
//!   which together play the role of MRRR (`DSYEVR`) in Figures 4b/4d:
//!   an `O(n^2)`-class method that can compute an arbitrary *subset* of
//!   the spectrum (the fraction `f` of Eqs. (4)–(5)).
//!
//! [`Method`] selects between them at the driver level, and
//! [`EigenRange`] expresses which part of the spectrum is wanted.

pub mod dandc;
pub mod inverse_iteration;
pub mod phases;
pub mod qr_iteration;
pub mod secular;
pub mod sturm;

pub use phases::PhaseTimings;

use tseig_matrix::diagnostics::{Recorder, Recovery};
use tseig_matrix::{Ctrl, Error, Matrix, MemReq, Result, SymTridiagonal};

/// Tridiagonal eigensolver selection (paper Table 1's three methods).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Method {
    /// Implicit-shift QR iteration (`steqr`). Robust, `O(n^3)` when
    /// vectors are wanted.
    Qr,
    /// Divide & conquer (`stedc`). Fastest full-spectrum solver;
    /// `4..8/3 n^3` worst case, far less with deflation.
    #[default]
    DivideAndConquer,
    /// Bisection + inverse iteration. `O(n k)` for `k` eigenpairs —
    /// the subset solver (stand-in for MRRR, see DESIGN.md).
    BisectionInverse,
}

/// Which eigenpairs to compute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EigenRange {
    /// The whole spectrum.
    All,
    /// Eigenvalues with ascending indices `lo..hi` (half-open).
    Index(usize, usize),
    /// Eigenvalues in the half-open value interval `(vl, vu]`
    /// (LAPACK `RANGE='V'` convention), located by Sturm counts.
    Value(f64, f64),
}

impl EigenRange {
    /// Resolve to a concrete half-open index range for order `n`.
    /// Returns `None` for a `Value` range, which needs the matrix — use
    /// [`Self::resolve_for`].
    pub fn resolve(&self, n: usize) -> Option<(usize, usize)> {
        match *self {
            EigenRange::All => Some((0, n)),
            EigenRange::Index(lo, hi) => Some((lo.min(n), hi.min(n))),
            EigenRange::Value(..) => None,
        }
    }

    /// Resolve to index space against a concrete tridiagonal matrix
    /// (`Value` intervals become index ranges through Sturm counts,
    /// since the reduction preserves the spectrum exactly).
    pub fn resolve_for(&self, t: &SymTridiagonal) -> (usize, usize) {
        let n = t.n();
        match *self {
            EigenRange::Value(vl, vu) => {
                let lo = sturm::sturm_count(t, vl);
                let hi = sturm::sturm_count(t, vu);
                (lo.min(n), hi.min(n))
            }
            // resolve is None only for Value, handled above.
            _ => self.resolve(n).unwrap_or((0, n)),
        }
    }

    /// Number of eigenpairs selected for order `n` (`Index`/`All` only —
    /// `Value` ranges are resolved against a matrix and count as 0 here).
    pub fn count(&self, n: usize) -> usize {
        match self.resolve(n) {
            Some((lo, hi)) => hi.saturating_sub(lo),
            None => 0,
        }
    }
}

/// Eigen-decomposition of a tridiagonal matrix: ascending eigenvalues and
/// (optionally) the matching eigenvector columns.
pub struct TridiagEigen {
    pub eigenvalues: Vec<f64>,
    /// `n x k` eigenvector matrix, present when vectors were requested.
    pub eigenvectors: Option<Matrix>,
}

/// One-call façade: solve `T` with the chosen method and range.
///
/// `want_vectors == false` always routes eigenvalues to the cheapest path
/// (QR without accumulation for `All`, bisection for `Index`).
pub fn solve(
    t: &SymTridiagonal,
    method: Method,
    range: EigenRange,
    want_vectors: bool,
) -> Result<TridiagEigen> {
    solve_with_diag(
        t,
        method,
        range,
        want_vectors,
        &Recorder::new(),
        &Ctrl::NONE,
    )
}

/// [`solve`] with a recovery recorder threaded through every phase: a QR
/// iteration-cap failure falls back to bisection + inverse iteration for
/// the selected range (recorded, not fatal), and the D&C / bisection /
/// inverse-iteration internals record their own fallbacks. `ctrl` is
/// polled inside every iteration loop (QR per eigenvalue, D&C per
/// subproblem, inverse iteration per eigenvector), so an armed cancel or
/// expired deadline surfaces as the structured error.
pub fn solve_with_diag(
    t: &SymTridiagonal,
    method: Method,
    range: EigenRange,
    want_vectors: bool,
    rec: &Recorder,
    ctrl: &Ctrl,
) -> Result<TridiagEigen> {
    let n = t.n();
    let (lo, hi) = range.resolve_for(t);
    if !want_vectors {
        let vals = match range {
            EigenRange::All => {
                let mut d = t.diag().to_vec();
                let mut e = t.off_diag().to_vec();
                let mut ee = Vec::new();
                match qr_iteration::steqr_ws(&mut d, &mut e, None, &mut ee, ctrl) {
                    Ok(()) => d,
                    Err(Error::NoConvergence { index, .. }) => {
                        rec.record(Recovery::QrFallbackToBisection { index, size: n });
                        sturm::bisect_with(t, 0, n, rec, ctrl)?
                    }
                    Err(other) => return Err(other),
                }
            }
            EigenRange::Index(..) | EigenRange::Value(..) => {
                sturm::bisect_with(t, lo, hi, rec, ctrl)?
            }
        };
        return Ok(TridiagEigen {
            eigenvalues: vals,
            eigenvectors: None,
        });
    }
    match method {
        Method::Qr => {
            let mut d = t.diag().to_vec();
            let mut e = t.off_diag().to_vec();
            let mut z = Matrix::identity(n);
            let mut ee = Vec::new();
            match qr_iteration::steqr_ws(&mut d, &mut e, Some(&mut z), &mut ee, ctrl) {
                Ok(()) => {
                    let (zsel, vals) = select_columns(z, &d, lo, hi);
                    Ok(TridiagEigen {
                        eigenvalues: vals,
                        eigenvectors: Some(zsel),
                    })
                }
                Err(Error::NoConvergence { index, .. }) => {
                    rec.record(Recovery::QrFallbackToBisection { index, size: n });
                    let vals = sturm::bisect_with(t, lo, hi, rec, ctrl)?;
                    let zb = inverse_iteration::stein_with(t, &vals, rec, ctrl)?;
                    Ok(TridiagEigen {
                        eigenvalues: vals,
                        eigenvectors: Some(zb),
                    })
                }
                Err(other) => Err(other),
            }
        }
        Method::DivideAndConquer => {
            let (vals, z) = dandc::stedc_with(t, rec, ctrl)?;
            let (zsel, vals) = select_columns(z, &vals, lo, hi);
            Ok(TridiagEigen {
                eigenvalues: vals,
                eigenvectors: Some(zsel),
            })
        }
        Method::BisectionInverse => {
            let vals = sturm::bisect_with(t, lo, hi, rec, ctrl)?;
            let z = inverse_iteration::stein_with(t, &vals, rec, ctrl)?;
            Ok(TridiagEigen {
                eigenvalues: vals,
                eigenvectors: Some(z),
            })
        }
    }
}

/// Retained workspace for the planned full-spectrum QR solve
/// ([`steqr_planned`]): the `(d, e)` working copies, the QR work buffer
/// (off-diagonal scratch, pending rotations and strip tile), and the
/// accumulated eigenvector matrix.
#[derive(Default)]
pub struct TridiagWs {
    vals: Vec<f64>,
    off: Vec<f64>,
    ee: Vec<f64>,
    z: Matrix,
}

impl TridiagWs {
    pub fn new() -> Self {
        TridiagWs::default()
    }

    /// Ascending eigenvalues of the last [`steqr_planned`] call.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.vals
    }

    /// Eigenvector matrix of the last [`steqr_planned`] call.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.z
    }

    /// Move the results out (the buffers stay usable, but cold).
    pub fn take_results(&mut self) -> (Vec<f64>, Matrix) {
        (std::mem::take(&mut self.vals), std::mem::take(&mut self.z))
    }

    /// Exchange the result buffers with caller-owned slots. Used by plan
    /// reuse: the slots ping-pong between the workspace and the caller,
    /// so both stay warm and no copy (or allocation) happens.
    pub fn swap_results(&mut self, vals: &mut Vec<f64>, z: &mut Matrix) {
        std::mem::swap(&mut self.vals, vals);
        std::mem::swap(&mut self.z, z);
    }

    /// Retained capacity in bytes (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        (self.vals.capacity() + self.off.capacity() + self.ee.capacity())
            * std::mem::size_of::<f64>()
            + self.z.capacity_bytes()
    }
}

/// Workspace requirement of [`steqr_planned`] for order `n`.
pub fn steqr_planned_req(n: usize) -> MemReq {
    MemReq::f64s(n) // vals
        .and(MemReq::f64s(n.saturating_sub(1))) // off
        .and(MemReq::f64s(qr_iteration::work_len(n, true))) // ee: off-diagonals, pending rotations, strip tile
        .and(MemReq::f64s(n * n)) // z
}

/// Planned full-spectrum QR solve with eigenvectors: eigenvalues land in
/// `ws.eigenvalues()` (ascending) and eigenvectors in
/// `ws.eigenvectors()`. Equivalent to
/// `solve_with_diag(t, Method::Qr, EigenRange::All, true, rec)` —
/// bit-identical results, including the recorded bisection fallback when
/// QR hits its iteration cap — but allocation-free once `ws` has warmed
/// up to order `n` (the fallback path still allocates; it is a recovery,
/// not a hot path).
pub fn steqr_planned(
    t: &SymTridiagonal,
    rec: &Recorder,
    ws: &mut TridiagWs,
    ctrl: &Ctrl,
) -> Result<()> {
    let n = t.n();
    ws.vals.clear();
    ws.vals.reserve_exact(n);
    ws.vals.extend_from_slice(t.diag());
    ws.off.clear();
    ws.off.reserve_exact(n.saturating_sub(1));
    ws.off.extend_from_slice(t.off_diag());
    ws.z.reset_to_identity(n);
    match qr_iteration::steqr_ws(&mut ws.vals, &mut ws.off, Some(&mut ws.z), &mut ws.ee, ctrl) {
        Ok(()) => Ok(()),
        Err(Error::NoConvergence { index, .. }) => {
            rec.record(Recovery::QrFallbackToBisection { index, size: n });
            let vals = sturm::bisect_with(t, 0, n, rec, ctrl)?;
            let zb = inverse_iteration::stein_with(t, &vals, rec, ctrl)?;
            ws.vals.clear();
            ws.vals.extend_from_slice(&vals);
            ws.z = zb;
            Ok(())
        }
        Err(other) => Err(other),
    }
}

/// Columns `lo..hi` of `z` and their eigenvalues; the full range hands
/// `z` back without a copy.
fn select_columns(z: Matrix, vals: &[f64], lo: usize, hi: usize) -> (Matrix, Vec<f64>) {
    if lo == 0 && hi == z.cols() {
        return (z, vals.to_vec());
    }
    let n = z.rows();
    let k = hi - lo;
    let mut out = Matrix::zeros(n, k);
    for (jj, j) in (lo..hi).enumerate() {
        out.col_mut(jj).copy_from_slice(z.col(j));
    }
    (out, vals[lo..hi].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    #[test]
    fn facade_all_methods_agree() {
        let t = gen::laplacian_1d(40);
        let exact = gen::laplacian_1d_eigenvalues(40);
        for m in [
            Method::Qr,
            Method::DivideAndConquer,
            Method::BisectionInverse,
        ] {
            let r = solve(&t, m, EigenRange::All, true).unwrap();
            assert!(
                norms::eigenvalue_distance(&r.eigenvalues, &exact) < 1e-11,
                "{m:?} eigenvalues wrong"
            );
            let z = r.eigenvectors.unwrap();
            assert!(
                norms::eigen_residual(&t.to_dense(), &r.eigenvalues, &z) < 100.0,
                "{m:?}"
            );
            assert!(norms::orthogonality(&z) < 100.0, "{m:?}");
        }
    }

    #[test]
    fn facade_subset() {
        let t = gen::laplacian_1d(30);
        let exact = gen::laplacian_1d_eigenvalues(30);
        let r = solve(&t, Method::BisectionInverse, EigenRange::Index(5, 12), true).unwrap();
        assert_eq!(r.eigenvalues.len(), 7);
        assert!(norms::eigenvalue_distance(&r.eigenvalues, &exact[5..12]) < 1e-11);
        let z = r.eigenvectors.unwrap();
        assert_eq!(z.cols(), 7);
        assert!(norms::eigen_residual(&t.to_dense(), &r.eigenvalues, &z) < 100.0);
    }

    #[test]
    fn facade_values_only() {
        let t = gen::clement(25);
        let r = solve(&t, Method::DivideAndConquer, EigenRange::All, false).unwrap();
        assert!(r.eigenvectors.is_none());
        assert!(norms::eigenvalue_distance(&r.eigenvalues, &gen::clement_eigenvalues(25)) < 1e-11);
    }

    #[test]
    fn range_resolution() {
        assert_eq!(EigenRange::All.resolve(5), Some((0, 5)));
        assert_eq!(EigenRange::Index(2, 9).resolve(5), Some((2, 5)));
        assert_eq!(EigenRange::Value(0.0, 1.0).resolve(5), None);
        assert_eq!(EigenRange::Index(1, 3).count(5), 2);
    }

    #[test]
    fn value_range_selects_interval() {
        let t = gen::laplacian_1d(30);
        let exact = gen::laplacian_1d_eigenvalues(30);
        let (vl, vu) = (1.0, 3.0);
        let r = solve(
            &t,
            Method::BisectionInverse,
            EigenRange::Value(vl, vu),
            true,
        )
        .unwrap();
        let want: Vec<f64> = exact
            .iter()
            .copied()
            .filter(|&x| x > vl && x <= vu)
            .collect();
        assert_eq!(r.eigenvalues.len(), want.len());
        assert!(norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-11);
        let z = r.eigenvectors.unwrap();
        assert!(norms::eigen_residual(&t.to_dense(), &r.eigenvalues, &z) < 100.0);
        // Empty interval.
        let r = solve(
            &t,
            Method::BisectionInverse,
            EigenRange::Value(10.0, 20.0),
            false,
        )
        .unwrap();
        assert!(r.eigenvalues.is_empty());
    }
}
