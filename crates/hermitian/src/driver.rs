//! Hermitian eigensolver driver.
//!
//! `A = Z diag(lambda) Z^H` for dense Hermitian `A`, through the
//! two-stage pipeline with the tridiagonal eigensolve done entirely in
//! *real* arithmetic (phases folded back in during the transformation).

use crate::backtransform::{apply_q, HermScalar};
use crate::stage1::he2hb_with;
use crate::stage2::{reduce_scheduled, reduce_with, Scheduler};
use std::time::Instant;
use tseig_kernels::pencil::{self, Reduced};
use tseig_kernels::scaling;
use tseig_matrix::diagnostics::{Recorder, SolveDiagnostics, VerifyLevel};
use tseig_matrix::{CMatrixG, ComplexScalar, Ctrl, Error, Result, C64};
use tseig_tridiag::{EigenRange, Method, PhaseTimings};

/// Scaled-measure acceptance bound for [`HermitianEigen::verify`].
pub use tseig_matrix::diagnostics::VERIFY_BOUND;

/// Result of a Hermitian eigensolve. Eigenvalues are always `f64` (the
/// tridiagonal solve runs in full precision for every complex width);
/// eigenvectors carry the input's element type.
#[derive(Clone, Debug)]
pub struct HermitianResult<T: ComplexScalar = C64> {
    /// Ascending (real) eigenvalues of the selected range.
    pub eigenvalues: Vec<f64>,
    /// Matching complex eigenvectors, if requested.
    pub eigenvectors: Option<CMatrixG<T>>,
    /// Phase wall-times.
    pub timings: PhaseTimings,
    /// Robustness-layer report: fallbacks, norm scaling, verification.
    pub diagnostics: SolveDiagnostics,
}

/// Builder for the two-stage Hermitian eigensolver.
///
/// ```
/// use tseig_hermitian::{HermitianEigen, validate};
/// let a = validate::hermitian_with_spectrum(
///     &(0..24).map(|i| i as f64).collect::<Vec<_>>(), 7);
/// let r = HermitianEigen::new().nb(4).solve(&a).unwrap();
/// assert!((r.eigenvalues[23] - 23.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct HermitianEigen {
    nb: usize,
    ell: usize,
    method: Method,
    range: EigenRange,
    want_vectors: bool,
    scheduler: Scheduler,
    verify: VerifyLevel,
    ctrl: Ctrl,
}

impl Default for HermitianEigen {
    fn default() -> Self {
        HermitianEigen {
            nb: 32,
            ell: 0,
            method: Method::DivideAndConquer,
            range: EigenRange::All,
            want_vectors: true,
            scheduler: Scheduler::Serial,
            verify: VerifyLevel::Off,
            ctrl: Ctrl::NONE,
        }
    }
}

impl HermitianEigen {
    pub fn new() -> Self {
        Self::default()
    }

    /// Band width (`nb`).
    pub fn nb(mut self, nb: usize) -> Self {
        self.nb = nb.max(1);
        self
    }

    /// Diamond grouping (`0` = `nb/2`).
    pub fn ell(mut self, ell: usize) -> Self {
        self.ell = ell;
        self
    }

    /// Tridiagonal eigensolver.
    pub fn method(mut self, m: Method) -> Self {
        self.method = m;
        self
    }

    /// Eigenpair selection.
    pub fn range(mut self, r: EigenRange) -> Self {
        self.range = r;
        self
    }

    /// Compute eigenvectors or not.
    pub fn vectors(mut self, want: bool) -> Self {
        self.want_vectors = want;
        self
    }

    /// Stage-2 scheduler (serial kernel loop, static pipelined lists, or
    /// the dynamic task runtime — all bit-identical in results).
    pub fn scheduler(mut self, s: Scheduler) -> Self {
        self.scheduler = s;
        self
    }

    /// Opt-in post-solve verification against the original input; see
    /// the real driver's `SymmetricEigen::verify` for semantics.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Attach a lifecycle control (cancellation token, deadline,
    /// heartbeat): the solve polls it at every phase boundary and
    /// stage-2 sweep, surfacing `Error::Cancelled` /
    /// `Error::DeadlineExceeded` cooperatively.
    pub fn ctrl(mut self, ctrl: Ctrl) -> Self {
        self.ctrl = ctrl;
        self
    }

    /// The attached lifecycle control.
    pub fn control(&self) -> &Ctrl {
        &self.ctrl
    }

    /// The standard solve of a pencil reduced to `C`, unverified and
    /// with a `Value` range in `C`'s units, and the verification level
    /// the generalized driver runs on the pencil in its place.
    pub(crate) fn pencil_inner(&self, pencil: &Reduced) -> (HermitianEigen, VerifyLevel) {
        let mut inner = self.clone().verify(VerifyLevel::Off);
        if let EigenRange::Value(vl, vu) = inner.range {
            let (vl, vu) = pencil.inner_bounds(vl, vu);
            inner.range = EigenRange::Value(vl, vu);
        }
        (inner, self.verify)
    }

    /// Solve the dense Hermitian eigenproblem (lower triangle of `a`
    /// referenced; the diagonal's imaginary part is ignored). Generic
    /// over the complex element width: `CMatrix` (= `CMatrixG<C64>`)
    /// gives the `zheev`-equivalent solve, `CMatrixG<C32>` the
    /// `cheev`-equivalent one with verification tolerances scaled to
    /// the narrower epsilon.
    ///
    /// Carries the same robustness layer as the real driver: input
    /// screening ([`Error::InvalidData`]), norm scaling with eigenvalue
    /// rescaling on exit, scheduler and tridiagonal fallback chains, and
    /// optional verification — all reported in [`SolveDiagnostics`].
    pub fn solve<T: HermScalar>(&self, a: &CMatrixG<T>) -> Result<HermitianResult<T>> {
        if a.rows() != a.cols() {
            return Err(Error::DimensionMismatch(format!(
                "matrix is {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let timings = PhaseTimings::default();

        let anorm = scaling::screen_hermitian(a)?;

        if n == 0 {
            return Ok(HermitianResult {
                eigenvalues: vec![],
                eigenvectors: self.want_vectors.then(|| CMatrixG::zeros(0, 0)),
                timings,
                diagnostics: SolveDiagnostics::default(),
            });
        }
        if n == 1 {
            return self.solve_order_one(a, timings);
        }

        let ell = if self.ell == 0 {
            (self.nb / 2).max(1)
        } else {
            self.ell
        };

        // Norm scaling (same window as the real driver); `Value` range
        // bounds select in the scaled spectrum, so they scale too.
        let sigma = scaling::safe_scale_factor(anorm);
        let scaled = sigma.map(|s| {
            let mut b = a.clone();
            scaling::scale_cmatrix(&mut b, s);
            b
        });
        let work: &CMatrixG<T> = scaled.as_ref().unwrap_or(a);
        let range = match (sigma, self.range) {
            (Some(s), EigenRange::Value(vl, vu)) => EigenRange::Value(vl * s, vu * s),
            (_, r) => r,
        };

        let rec = Recorder::new();
        let mut timings = timings;

        let t0 = Instant::now();
        let bf = he2hb_with(work, self.nb, &self.ctrl)?;
        timings.stage1 = t0.elapsed();

        // Stage 2 with the serial-path fallback on scheduled failure.
        let t1 = Instant::now();
        // The scheduled arm consumes a copy of the band so the serial
        // fallback still has the stage-1 band to start from.
        let scheduled = (self.scheduler != Scheduler::Serial)
            .then(|| reduce_scheduled(bf.band.clone(), self.nb, self.scheduler, &self.ctrl));
        let chase = rec.or_serial(&self.ctrl, scheduled, || reduce_with(bf.band, &self.ctrl))?;
        timings.stage2 = t1.elapsed();
        timings.reduction = timings.stage1 + timings.stage2;

        let t2 = Instant::now();
        let sol = tseig_tridiag::solve_with_diag(
            &chase.tridiagonal,
            self.method,
            range,
            self.want_vectors,
            &rec,
            &self.ctrl,
        )?;
        timings.tridiag_solve = t2.elapsed();

        let eigenvectors = if self.want_vectors {
            let t3 = Instant::now();
            self.ctrl.checkpoint()?;
            let Some(e_real) = sol.eigenvectors else {
                return Err(Error::Runtime(
                    "tridiagonal solver returned no eigenvectors although vectors \
                     were requested"
                        .into(),
                ));
            };
            // Complexify with the phase fold `D` applied on the way,
            // then the fused one-pass Q2 + Q1 chain.
            let d = &chase.phases;
            let mut z = CMatrixG::from_fn(e_real.rows(), e_real.cols(), |i, j| {
                T::new(e_real[(i, j)], 0.0) * d[i]
            });
            apply_q(&chase.v2, &bf.panels, None, &mut z, ell, 0);
            timings.backtransform = t3.elapsed();
            Some(z)
        } else {
            None
        };

        let mut eigenvalues = sol.eigenvalues;
        if let Some(s) = sigma {
            for v in &mut eigenvalues {
                *v /= s;
            }
        }

        let mut diagnostics = SolveDiagnostics::from_recorder(&rec);
        diagnostics.scaled_by = sigma;

        // Opt-in verification against the original input.
        let z = eigenvectors.as_ref().map(|z| z.as_slice());
        let (lda, level) = (a.ld().max(1), self.verify);
        diagnostics.verify = pencil::verify(n, a.as_slice(), lda, None, &eigenvalues, z, level)?;

        Ok(HermitianResult {
            eigenvalues,
            eigenvectors,
            timings,
            diagnostics,
        })
    }

    /// Order-1 problem: the (real part of the) single diagonal entry.
    fn solve_order_one<T: ComplexScalar>(
        &self,
        a: &CMatrixG<T>,
        timings: PhaseTimings,
    ) -> Result<HermitianResult<T>> {
        let a00 = a[(0, 0)].re();
        let include = match self.range {
            EigenRange::All => true,
            EigenRange::Index(lo, hi) => lo == 0 && hi >= 1,
            EigenRange::Value(vl, vu) => vl < a00 && a00 <= vu,
        };
        let k = usize::from(include);
        let eigenvalues = if include { vec![a00] } else { vec![] };
        let eigenvectors = self.want_vectors.then(|| {
            let mut z = CMatrixG::zeros(1, k);
            if include {
                z[(0, 0)] = T::ONE;
            }
            z
        });
        Ok(HermitianResult {
            eigenvalues,
            eigenvectors,
            timings,
            diagnostics: SolveDiagnostics::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{
        hermitian_residual, hermitian_with_spectrum, rand_hermitian, real_embedding_eigenvalues,
        unitary_error,
    };
    use tseig_matrix::{norms, CMatrix};

    fn check(a: &CMatrix, r: &HermitianResult, tol: f64) {
        let z = r.eigenvectors.as_ref().expect("vectors");
        let res = hermitian_residual(a, &r.eigenvalues, z);
        let uni = unitary_error(z);
        assert!(res < tol, "residual {res}");
        assert!(uni < tol, "unitarity {uni}");
    }

    #[test]
    fn prescribed_spectrum_recovered() {
        let n = 30;
        let lambda: Vec<f64> = (0..n).map(|i| -2.0 + 0.3 * i as f64).collect();
        let a = hermitian_with_spectrum(&lambda, 80);
        let r = HermitianEigen::new().nb(6).solve(&a).unwrap();
        assert!(norms::eigenvalue_distance(&r.eigenvalues, &lambda) < 1e-10);
        check(&a, &r, 500.0);
    }

    #[test]
    fn random_hermitian_vs_embedding_oracle() {
        let n = 24;
        let a = rand_hermitian(n, 81);
        let want = real_embedding_eigenvalues(&a);
        let r = HermitianEigen::new().nb(5).solve(&a).unwrap();
        assert!(norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-9);
        check(&a, &r, 500.0);
    }

    #[test]
    fn real_input_matches_real_pipeline() {
        // A real symmetric matrix run through the Hermitian pipeline
        // must agree with the real two-stage solver.
        let n = 26;
        let ar = tseig_matrix::gen::random_symmetric(n, 82);
        let ac = CMatrix::from_real(&ar);
        let rh = HermitianEigen::new().nb(4).solve(&ac).unwrap();
        let want = tseig_kernels::reference::jacobi_eigen(&ar, false)
            .unwrap()
            .eigenvalues;
        assert!(norms::eigenvalue_distance(&rh.eigenvalues, &want) < 1e-9);
        // Vectors should be essentially real up to a global unit phase
        // per column; check residual instead of realness.
        check(&ac, &rh, 500.0);
    }

    #[test]
    fn all_methods_and_nb_values() {
        let n = 20;
        let a = rand_hermitian(n, 83);
        let want = real_embedding_eigenvalues(&a);
        for m in [
            Method::Qr,
            Method::DivideAndConquer,
            Method::BisectionInverse,
        ] {
            for nb in [2usize, 4, 9, 32] {
                let r = HermitianEigen::new().nb(nb).method(m).solve(&a).unwrap();
                assert!(
                    norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-9,
                    "{m:?} nb={nb}"
                );
                check(&a, &r, 500.0);
            }
        }
    }

    #[test]
    fn schedulers_equivalent_end_to_end() {
        let n = 26;
        let a = rand_hermitian(n, 88);
        let serial = HermitianEigen::new().nb(5).solve(&a).unwrap();
        for s in [Scheduler::Static(3), Scheduler::Dynamic(2)] {
            let r = HermitianEigen::new().nb(5).scheduler(s).solve(&a).unwrap();
            // Stage 2 is bit-identical under every scheduler, so the
            // whole solve is too.
            assert_eq!(r.eigenvalues, serial.eigenvalues, "{s:?}");
            check(&a, &r, 500.0);
        }
    }

    #[test]
    fn subset_selection() {
        let n = 22;
        let a = rand_hermitian(n, 84);
        let full = HermitianEigen::new().nb(4).solve(&a).unwrap();
        let part = HermitianEigen::new()
            .nb(4)
            .method(Method::BisectionInverse)
            .range(EigenRange::Index(3, 9))
            .solve(&a)
            .unwrap();
        assert_eq!(part.eigenvalues.len(), 6);
        assert!(norms::eigenvalue_distance(&part.eigenvalues, &full.eigenvalues[3..9]) < 1e-9);
        check(&a, &part, 500.0);
    }

    #[test]
    fn values_only() {
        let a = rand_hermitian(12, 85);
        let r = HermitianEigen::new()
            .nb(3)
            .vectors(false)
            .solve(&a)
            .unwrap();
        assert!(r.eigenvectors.is_none());
        assert_eq!(r.eigenvalues.len(), 12);
    }

    #[test]
    fn c32_end_to_end_cheev_equivalent() {
        // The cheev-equivalent solve: narrow a C64 Hermitian matrix to
        // C32, run the full generic pipeline (band reduction, chase,
        // real tridiagonal solve, fused back-transform) and check
        // against the f64 real-embedding oracle with f32-scaled
        // tolerances. `VerifyLevel::Full` exercises the T::EPS-scaled
        // built-in verification on the narrow path too.
        use tseig_matrix::{CMatrixG, C32};
        let n = 24;
        let a64 = rand_hermitian(n, 89);
        let a = CMatrixG::<C32>::from_cmatrix(&a64);
        let want = real_embedding_eigenvalues(&a);
        let r = HermitianEigen::new()
            .nb(5)
            .verify(VerifyLevel::Full)
            .solve(&a)
            .unwrap();
        assert!(
            norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-3,
            "C32 eigenvalues off the f64 oracle"
        );
        let z = r.eigenvectors.as_ref().expect("vectors");
        let res = hermitian_residual(&a, &r.eigenvalues, z);
        let uni = unitary_error(z);
        assert!(res < 500.0, "C32 residual {res}");
        assert!(uni < 500.0, "C32 unitarity {uni}");
        let v = r.diagnostics.verify.expect("verify report");
        assert!(v.residual <= VERIFY_BOUND && v.orthogonality <= VERIFY_BOUND);
    }

    #[test]
    fn c32_schedulers_bitwise_identical() {
        // The scheduler equivalence argument is element-type blind: the
        // C32 chase must be bit-identical under every scheduler too.
        use tseig_matrix::{CMatrixG, C32};
        let a = CMatrixG::<C32>::from_cmatrix(&rand_hermitian(26, 90));
        let serial = HermitianEigen::new().nb(5).solve(&a).unwrap();
        for s in [Scheduler::Static(3), Scheduler::Dynamic(2)] {
            let r = HermitianEigen::new().nb(5).scheduler(s).solve(&a).unwrap();
            assert_eq!(r.eigenvalues, serial.eigenvalues, "{s:?}");
        }
    }

    #[test]
    fn tiny_sizes() {
        for n in [1usize, 2, 3] {
            let a = rand_hermitian(n, 86 + n as u64);
            let r = HermitianEigen::new().nb(2).solve(&a).unwrap();
            assert_eq!(r.eigenvalues.len(), n);
            check(&a, &r, 500.0);
        }
    }
}
