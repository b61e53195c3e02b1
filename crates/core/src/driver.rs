//! Two-stage eigensolver driver: the crate's public entry point.
//!
//! [`SymmetricEigen`] is a builder over the full pipeline
//! (stage 1 → stage 2 → tridiagonal solve → `Q2`/`Q1` back-transform)
//! with the tuning knobs the paper studies: band/tile width `nb`
//! (Figure 5), reflector grouping `ell`, the stage-2 scheduler
//! (dynamic vs static, §3), the tridiagonal method (Figures 4a/4b) and
//! the eigenvector fraction `f` (Figure 4d).

use crate::backtransform::{self, apply_q};
use crate::plan::SolvePlan;
use crate::stage1;
use crate::stage2::{self, Stage2Schedule};
use std::time::Instant;
use tseig_kernels::scaling;
use tseig_kernels::stage2::{stage2_ws_req, v2_req};
use tseig_matrix::diagnostics::{Recorder, SolveDiagnostics, VerifyLevel, VerifyReport};
use tseig_matrix::workspace::MemReq;
use tseig_matrix::{norms, Ctrl, Error, Matrix, Result};
use tseig_tridiag::{EigenRange, Method, PhaseTimings};

/// Scaled-measure acceptance bound for [`SymmetricEigen::verify`].
pub use tseig_matrix::diagnostics::VERIFY_BOUND;

/// Stage-2 scheduler selection: the runtime's one chase scheduler enum
/// (serial by default).
pub use tseig_runtime::chase::Scheduler;

/// Result of a two-stage eigensolve.
#[derive(Clone, Debug)]
pub struct TwoStageResult {
    /// Ascending eigenvalues (of the selected range).
    pub eigenvalues: Vec<f64>,
    /// Matching eigenvectors of the original matrix, if requested.
    pub eigenvectors: Option<Matrix>,
    /// Phase wall-times (Figure 1b): `stage1`, `stage2`,
    /// `tridiag_solve`, `backtransform`.
    pub timings: PhaseTimings,
    /// What the robustness layer did: fallbacks taken, norm scaling
    /// applied, verification measures. `diagnostics.is_clean()` means the
    /// solve ran the paved road end to end.
    pub diagnostics: SolveDiagnostics,
}

/// Builder for the two-stage symmetric eigensolver.
///
/// ```
/// use tseig_core::SymmetricEigen;
/// let a = tseig_matrix::gen::symmetric_with_spectrum(
///     &tseig_matrix::gen::linspace(-1.0, 1.0, 48), 3);
/// let r = SymmetricEigen::new().nb(6).solve(&a).unwrap();
/// assert_eq!(r.eigenvalues.len(), 48);
/// ```
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    nb: usize,
    ib: usize,
    ell: usize,
    panel_cols: usize,
    method: Method,
    range: EigenRange,
    fraction: Option<f64>,
    want_vectors: bool,
    scheduler: Scheduler,
    verify: VerifyLevel,
    ctrl: Ctrl,
}

impl Default for SymmetricEigen {
    fn default() -> Self {
        SymmetricEigen {
            nb: 48,
            ib: 0,
            ell: 0,
            panel_cols: 0,
            method: Method::DivideAndConquer,
            range: EigenRange::All,
            fraction: None,
            want_vectors: true,
            scheduler: Scheduler::Serial,
            verify: VerifyLevel::Off,
            ctrl: Ctrl::NONE,
        }
    }
}

impl SymmetricEigen {
    /// Defaults: `nb = 48`, D&C, all eigenpairs with vectors, serial
    /// stage-2 scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Band/tile width (the paper's `nb`; Figure 5 sweeps this knob).
    pub fn nb(mut self, nb: usize) -> Self {
        self.nb = nb.max(1);
        self
    }

    /// Inner blocking of the stage-1 panel QR (`0` = same as `nb`).
    pub fn ib(mut self, ib: usize) -> Self {
        self.ib = ib;
        self
    }

    /// Sweeps grouped per diamond block in the `Q2` application
    /// (`0` = `nb / 2`, at least 1: the half-band grouping measured best
    /// here; the paper groups `nb`).
    pub fn ell(mut self, ell: usize) -> Self {
        self.ell = ell;
        self
    }

    /// Column-panel width of the `E` distribution (`0` = default).
    pub fn panel_cols(mut self, pc: usize) -> Self {
        self.panel_cols = pc;
        self
    }

    /// Tridiagonal eigensolver.
    pub fn method(mut self, m: Method) -> Self {
        self.method = m;
        self
    }

    /// Select an index range of eigenpairs.
    pub fn range(mut self, r: EigenRange) -> Self {
        self.range = r;
        self
    }

    /// Select the lowest `fraction` of the spectrum (the paper's `f`,
    /// Figure 4d uses `f = 0.2`). Clamped to `(0, 1]` at solve time;
    /// overrides [`Self::range`].
    pub fn fraction(mut self, f: f64) -> Self {
        self.fraction = Some(f);
        self
    }

    /// Whether eigenvectors are computed at all.
    pub fn vectors(mut self, want: bool) -> Self {
        self.want_vectors = want;
        self
    }

    /// Stage-2 scheduler.
    pub fn scheduler(mut self, s: Scheduler) -> Self {
        self.scheduler = s;
        self
    }

    /// Opt-in post-solve verification: check the computed eigenpairs
    /// against the *original* input (finite ascending eigenvalues, the
    /// per-column residual bound, and with [`VerifyLevel::Full`] the
    /// eigenvector orthogonality bound). A violation surfaces as
    /// [`Error::VerificationFailed`] naming the offending eigenpair; a
    /// pass stores the measures in the result's diagnostics.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Attach a request lifecycle control: cooperative cancellation,
    /// wall-clock deadline, progress heartbeat. Every phase of the
    /// pipeline polls it at its natural loop boundary; an armed cancel
    /// or expired deadline surfaces as [`Error::Cancelled`] /
    /// [`Error::DeadlineExceeded`] while the caller's [`SolvePlan`]
    /// stays valid and reusable for the next solve.
    pub fn ctrl(mut self, ctrl: Ctrl) -> Self {
        self.ctrl = ctrl;
        self
    }

    /// The attached lifecycle control (inert by default).
    pub fn control(&self) -> &Ctrl {
        &self.ctrl
    }

    /// Configured verification depth (the generalized driver reads this
    /// to run pencil-level checks in place of the inner standard ones).
    pub(crate) fn verify_level(&self) -> VerifyLevel {
        self.verify
    }

    /// Run the solver on the dense symmetric matrix `a` (lower triangle
    /// referenced).
    ///
    /// Robustness layer (LAPACK `DSYEV`-style): the input is screened for
    /// non-finite entries and gross asymmetry ([`Error::InvalidData`]),
    /// scaled into the safe norm window when its norm is extreme
    /// (eigenvalues are rescaled on exit), and every convergence failure
    /// inside the pipeline is absorbed by a fallback chain recorded in
    /// the result's [`SolveDiagnostics`].
    pub fn solve(&self, a: &Matrix) -> Result<TwoStageResult> {
        let mut plan = SolvePlan::new();
        self.solve_into(a, &mut plan)?;
        Ok(plan.take_result())
    }

    /// [`Self::solve`] into a caller-owned [`SolvePlan`]: identical
    /// results (the plain `solve` is literally this with a fresh plan),
    /// but every buffer of the pipeline persists in `plan`, so repeated
    /// same-size solves reuse all of it.
    ///
    /// On the strictly planned path — [`Scheduler::Serial`],
    /// [`Method::Qr`], [`EigenRange::All`] with vectors,
    /// [`VerifyLevel::Off`], input norm inside the safe window, and no
    /// recovery event — a warmed-up plan performs **zero heap
    /// allocations**. Other configurations still reuse the plan's
    /// buffers but may allocate in the scheduled/fallback machinery.
    ///
    /// Results are read from the plan ([`SolvePlan::eigenvalues`],
    /// [`SolvePlan::eigenvectors`], ...) or moved out with
    /// [`SolvePlan::take_result`]. On error the plan's result slots are
    /// unspecified but the plan itself remains valid for further solves.
    pub fn solve_into(&self, a: &Matrix, plan: &mut SolvePlan) -> Result<()> {
        if a.rows() != a.cols() {
            let msg = format!("matrix is {}x{}, must be square", a.rows(), a.cols()); // tidy: allow(plan-no-alloc) -- rejected input, never on the hot path
            return Err(Error::DimensionMismatch(msg));
        }
        let n = a.rows();

        // Screen: reject NaN/Inf and asymmetry beyond rounding before any
        // arithmetic can smear them across the spectrum. The returned
        // norm drives the scaling decision below.
        let anorm = scaling::screen_symmetric(a)?;

        // Trivial orders return immediately; n == 0 in particular must
        // not reach the fraction-to-index conversion (which clamps the
        // count to at least one eigenpair).
        if n == 0 {
            plan.set_trivial(vec![], self.want_vectors.then(|| Matrix::zeros(0, 0))); // tidy: allow(plan-no-alloc) -- empty vec allocates nothing; n == 0 exit
            return Ok(());
        }

        // Half-band grouping keeps the diamond padding overhead
        // ((nb + ell - 1)/nb extra flops) at ~1.5x while the blocks stay
        // Level-3 sized — measured optimum across nb on this machine.
        let ell = if self.ell == 0 {
            (self.nb / 2).max(1)
        } else {
            self.ell
        };
        let range = match self.fraction {
            Some(f) => {
                if !(f > 0.0 && f <= 1.0) {
                    let msg = format!("fraction {f} outside (0, 1]"); // tidy: allow(plan-no-alloc) -- rejected input, never on the hot path
                    return Err(Error::InvalidArgument(msg));
                }
                EigenRange::Index(0, ((f * n as f64).ceil() as usize).clamp(1, n))
            }
            None => self.range,
        };

        if n == 1 {
            self.solve_order_one(a, range, plan);
            return Ok(());
        }

        // Norm scaling: an extreme-norm input is solved as sigma * A so
        // every intermediate stays in the comfortable exponent range;
        // eigenvalues are divided back by sigma on exit. `Value` range
        // bounds select in the scaled spectrum, so they scale too.
        let sigma = scaling::safe_scale_factor(anorm);
        let input: &Matrix = match sigma {
            Some(s) => {
                plan.scaled.copy_from(a);
                scaling::scale_matrix(&mut plan.scaled, s);
                &plan.scaled
            }
            None => a,
        };
        let range = match (sigma, range) {
            (Some(s), EigenRange::Value(vl, vu)) => EigenRange::Value(vl * s, vu * s),
            (_, r) => r,
        };

        let rec = Recorder::new();
        let mut timings = PhaseTimings::default();
        let serial = self.scheduler == Scheduler::Serial;

        // Stage 1: dense -> band, into the plan's working copy and band
        // form. The serial scheduler gets the strictly serial BLAS-3
        // variants (the allocation-free path); the scheduled ones keep
        // the rayon variants. The threaded variants give the same bits
        // under any thread budget and any SIMD path (every output element
        // is summed by one worker in a fixed order), but not the same
        // bits as the serial ones.
        let t0 = Instant::now();
        stage1::sy2sb_ws(
            input,
            self.nb,
            self.ib,
            !serial,
            &mut plan.work,
            &mut plan.bf,
            &mut plan.s1,
            &self.ctrl,
        )?;
        timings.stage1 = t0.elapsed();

        // Stage 2: band -> tridiagonal (bulge chasing). A scheduled
        // execution that dies (worker panic, runtime error) is re-run on
        // the serial path, which shares no scheduler machinery. The
        // static scheduler's task list and wait lists are cached in the
        // plan and rebuilt only when `(n, bandwidth, threads)` changes —
        // not on every solve.
        let t1 = Instant::now();
        let scheduled = match self.scheduler {
            Scheduler::Serial => None,
            Scheduler::Static(threads) => {
                let b = plan.bf.band.bandwidth();
                let stale = !plan
                    .sched
                    .as_ref()
                    .is_some_and(|s| s.n() == n && s.bandwidth() == b && s.threads() == threads);
                if stale {
                    plan.sched = None;
                }
                let sched = plan
                    .sched
                    .get_or_insert_with(|| Stage2Schedule::new(n, b, threads));
                let band = plan.bf.band.clone(); // tidy: allow(plan-no-alloc) -- scheduled arm, documented to allocate; the chase consumes the band
                Some(stage2::reduce_static_prepared(band, sched, &self.ctrl))
            }
            Scheduler::Dynamic(_) => {
                let band = plan.bf.band.clone(); // tidy: allow(plan-no-alloc) -- scheduled arm, documented to allocate; the chase consumes the band
                Some(stage2::reduce_scheduled(band, self.scheduler, &self.ctrl))
            }
        };
        let scheduled = scheduled.map(|r| r.map(|c| (plan.tri, plan.v2) = (c.tridiagonal, c.v2)));
        rec.or_serial(&self.ctrl, scheduled, || {
            plan.band.copy_from(&plan.bf.band);
            stage2::reduce_ws(
                &mut plan.band,
                &mut plan.v2,
                &mut plan.s2,
                &mut plan.tri,
                &self.ctrl,
            )
        })?;
        timings.stage2 = t1.elapsed();
        timings.reduction = timings.stage1 + timings.stage2;

        // Tridiagonal eigensolve, with the recovery recorder threaded
        // through (QR -> bisection, D&C -> QR, perturbed-shift retries).
        // The full-spectrum QR solve with vectors runs on the planned
        // path (caller-owned state, allocation-free when warm); every
        // other method/range combination goes through the facade.
        let t2 = Instant::now();
        if self.planned_qr() {
            tseig_tridiag::steqr_planned(&plan.tri, &rec, &mut plan.td, &self.ctrl)?;
            plan.td.swap_results(&mut plan.evals, &mut plan.evecs);
            plan.has_vectors = true;
        } else {
            let sol = tseig_tridiag::solve_with_diag(
                &plan.tri,
                self.method,
                range,
                self.want_vectors,
                &rec,
                &self.ctrl,
            )?;
            plan.evals = sol.eigenvalues;
            plan.has_vectors = self.want_vectors;
            if self.want_vectors {
                let Some(z) = sol.eigenvectors else {
                    return Err(Error::Runtime(
                        "tridiagonal solver returned no eigenvectors although vectors \
                         were requested"
                            .into(),
                    ));
                };
                plan.evecs = z;
            }
        }
        timings.tridiag_solve = t2.elapsed();

        // Back-transformation Z = Q1 (Q2 E).
        if self.want_vectors {
            let t3 = Instant::now();
            // Fused single pass: per column panel, the full diamond
            // sequence and then the reverse Q1 chain while the panel is
            // cache-resident (one traversal of Z, no barrier between
            // the Q2 and Q1 applications). The serial scheduler applies
            // it through the plan's diamond storage; the scheduled ones
            // keep the rayon panel loop. Panels are disjoint, so the
            // results are identical.
            if serial {
                backtransform::apply_q_ws(
                    &plan.v2,
                    &plan.bf.panels,
                    &mut plan.evecs,
                    ell,
                    self.panel_cols,
                    &mut plan.bt,
                    &self.ctrl,
                )?;
            } else {
                // The rayon panel loop is uninterruptible; one poll at
                // the phase boundary bounds the overshoot to this phase.
                self.ctrl.checkpoint()?;
                apply_q(
                    &plan.v2,
                    &plan.bf.panels,
                    &mut plan.evecs,
                    ell,
                    self.panel_cols,
                );
            }
            timings.backtransform = t3.elapsed();
        }

        // Undo the norm scaling on the eigenvalues.
        if let Some(s) = sigma {
            for v in &mut plan.evals {
                *v /= s;
            }
        }

        let mut diagnostics = SolveDiagnostics::from_recorder(&rec);
        diagnostics.scaled_by = sigma;

        // Opt-in verification against the ORIGINAL input: the unscaled
        // eigenvalues and back-transformed vectors must reproduce `a`,
        // whatever path (scaled, fallback) produced them.
        if self.verify != VerifyLevel::Off {
            diagnostics.verify = Some(verify_solution(
                a,
                &plan.evals,
                plan.has_vectors.then_some(&plan.evecs),
                self.verify,
            )?);
        }

        plan.timings = timings;
        plan.diagnostics = diagnostics;
        Ok(())
    }

    /// Workspace requirement of a warmed-up [`SolvePlan`] for an
    /// order-`n` solve with this configuration (the `f64` buffers; the
    /// thread-local GEMM pack storage is accounted separately by
    /// [`tseig_kernels::blas3::engine::pack_req`]). After any number of
    /// same-size solves, [`SolvePlan::footprint_bytes`] must not exceed
    /// this — the plan never retains more than it advertises. Only a
    /// vectors solve counts the eigenvector slot and the back-transform,
    /// and only the planned QR path (QR, vectors, full spectrum, no
    /// fraction) the tridiagonal QR state.
    pub fn plan_req(&self, n: usize) -> MemReq {
        if n <= 1 {
            return MemReq::f64s(n).and(MemReq::f64s(n * n));
        }
        let nb = self.nb.max(1);
        let ell = if self.ell == 0 {
            (self.nb / 2).max(1)
        } else {
            self.ell
        };
        let pc = if self.panel_cols == 0 {
            backtransform::DEFAULT_PANEL_COLS
        } else {
            self.panel_cols
        };
        let mut req = MemReq::f64s(n * n) // stage-1 working copy
            .and(stage1::sy2sb_ws_req(n, nb, self.ib))
            .and(stage1::sy2sb_out_req(n, nb)) // band form + panels
            .and(MemReq::f64s((2 * nb + 1) * n)) // chase working band
            .and(v2_req::<f64>(n, nb))
            .and(stage2_ws_req::<f64>(nb))
            .and(MemReq::f64s(n).and(MemReq::f64s(n - 1))) // tridiagonal
            .and(MemReq::f64s(n)); // eigenvalue slot
        if self.planned_qr() {
            req = req.and(tseig_tridiag::steqr_planned_req(n));
        }
        if self.want_vectors {
            req = req
                .and(crate::backtransform::bt_req(n, nb, ell, pc, n))
                .and(MemReq::f64s(n * n)); // eigenvector slot
        }
        req
    }

    /// Does the tridiagonal solve run on the planned QR path (full
    /// spectrum with vectors, caller-owned state)? The effective range is
    /// `All` only when no fraction overrides [`Self::range`]; norm
    /// scaling leaves `EigenRange::All` as it is, so this holds before
    /// and after it.
    fn planned_qr(&self) -> bool {
        self.method == Method::Qr
            && self.want_vectors
            && self.fraction.is_none()
            && self.range == EigenRange::All
    }

    /// The order-1 eigenproblem is its own answer; solving it through the
    /// band pipeline would only launder `a[(0,0)]` through no-op stages.
    fn solve_order_one(&self, a: &Matrix, range: EigenRange, plan: &mut SolvePlan) {
        let a00 = a[(0, 0)];
        let include = match range {
            EigenRange::All => true,
            EigenRange::Index(lo, hi) => lo == 0 && hi >= 1,
            // LAPACK RANGE='V' half-open convention (vl, vu].
            EigenRange::Value(vl, vu) => vl < a00 && a00 <= vu,
        };
        let k = usize::from(include);
        let eigenvalues = if include { vec![a00] } else { vec![] };
        let eigenvectors = self.want_vectors.then(|| {
            let mut z = Matrix::zeros(1, k);
            if include {
                z[(0, 0)] = 1.0;
            }
            z
        });
        plan.set_trivial(eigenvalues, eigenvectors);
    }
}

/// Check a computed eigendecomposition against the matrix it claims to
/// decompose. Eigenvalues must be finite and ascending; with vectors the
/// per-column scaled residual (and for [`VerifyLevel::Full`] the pairwise
/// orthogonality) must stay under [`VERIFY_BOUND`].
fn verify_solution(
    a: &Matrix,
    lambda: &[f64],
    z: Option<&Matrix>,
    level: VerifyLevel,
) -> Result<VerifyReport> {
    let n = a.rows();
    for (j, &lam) in lambda.iter().enumerate() {
        if !lam.is_finite() {
            return Err(Error::VerificationFailed {
                index: j,
                measure: "eigenvalue finiteness".into(),
                value: lam,
                bound: f64::MAX,
            });
        }
        if j > 0 && lam < lambda[j - 1] {
            return Err(Error::VerificationFailed {
                index: j,
                measure: "eigenvalue ordering".into(),
                value: lam - lambda[j - 1],
                bound: 0.0,
            });
        }
    }
    let Some(z) = z else {
        return Ok(VerifyReport::default());
    };
    let az = a.multiply(z)?;
    let denom = norms::norm1(a).max(norms::EPS) * n as f64 * norms::EPS;
    let mut worst = (0usize, 0.0f64);
    for (j, &lam) in lambda.iter().enumerate() {
        let azc = az.col(j);
        let zc = z.col(j);
        let mut colmax = 0.0f64;
        for i in 0..n {
            colmax = colmax.max((azc[i] - lam * zc[i]).abs());
        }
        let m = colmax / denom;
        if m > worst.1 || m.is_nan() {
            worst = (j, m);
        }
    }
    // The NaN check matters: a poisoned vector yields a NaN measure,
    // which must fail verification rather than slip past `>`.
    if worst.1 > VERIFY_BOUND || worst.1.is_nan() {
        return Err(Error::VerificationFailed {
            index: worst.0,
            measure: "scaled residual".into(),
            value: worst.1,
            bound: VERIFY_BOUND,
        });
    }
    let residual = worst.1;
    let mut orthogonality = 0.0;
    if level == VerifyLevel::Full {
        let scale = n as f64 * norms::EPS;
        let mut worst = (0usize, 0.0f64);
        for j in 0..z.cols() {
            for i in 0..=j {
                let dot: f64 = z.col(i).iter().zip(z.col(j)).map(|(x, y)| x * y).sum();
                let target = if i == j { 1.0 } else { 0.0 };
                let m = (dot - target).abs() / scale;
                if m > worst.1 || m.is_nan() {
                    worst = (j, m);
                }
            }
        }
        // The NaN check matters: a poisoned vector yields a NaN measure,
        // which must fail verification rather than slip past `>`.
        if worst.1 > VERIFY_BOUND || worst.1.is_nan() {
            return Err(Error::VerificationFailed {
                index: worst.0,
                measure: "orthogonality".into(),
                value: worst.1,
                bound: VERIFY_BOUND,
            });
        }
        orthogonality = worst.1;
    }
    Ok(VerifyReport {
        residual,
        orthogonality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    fn residual_ok(a: &Matrix, r: &TwoStageResult, tol: f64) {
        let z = r.eigenvectors.as_ref().expect("vectors");
        let res = norms::eigen_residual(a, &r.eigenvalues, z);
        let orth = norms::orthogonality(z);
        assert!(res < tol, "residual {res}");
        assert!(orth < tol, "orthogonality {orth}");
    }

    #[test]
    fn values_only_plan_req_is_tight() {
        // A values-only plan never holds an eigenvector slot, the
        // back-transform state or the n x n tridiagonal QR vectors, so
        // plan_req must not advertise them: the batch driver's memory
        // admission trusts the figure. Stay within one n x n of the
        // warm footprint, and never under it.
        let n = 96;
        let a = gen::random_symmetric(n, 41);
        for method in [Method::Qr, Method::DivideAndConquer] {
            let eigen = SymmetricEigen::new().nb(8).method(method).vectors(false);
            let mut plan = SolvePlan::new();
            eigen.solve_into(&a, &mut plan).unwrap();
            eigen.solve_into(&a, &mut plan).unwrap();
            let got = plan.footprint_bytes();
            let req = eigen.plan_req(n).total_bytes();
            assert!(got <= req, "{method:?}: footprint {got} > req {req}");
            assert!(
                req < got + 8 * n * n,
                "{method:?}: req {req} over-advertises footprint {got}"
            );
        }
    }

    #[test]
    fn qr_vectors_fraction_returns_lowest_pairs() {
        // A fraction overrides the default `All` range, so a QR solve
        // with vectors must not take the full-spectrum planned path.
        let n = 40;
        let a = gen::random_symmetric(n, 43);
        let k = (0.25 * n as f64).ceil() as usize;
        let full = SymmetricEigen::new()
            .nb(6)
            .vectors(false)
            .solve(&a)
            .unwrap();
        let eigen = SymmetricEigen::new()
            .nb(6)
            .method(Method::Qr)
            .vectors(true)
            .fraction(0.25);
        let r = eigen.solve(&a).unwrap();
        assert_eq!(r.eigenvalues.len(), k);
        assert_eq!(r.eigenvectors.as_ref().expect("vectors").cols(), k);
        for (got, want) in r.eigenvalues.iter().zip(&full.eigenvalues[..k]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        residual_ok(&a, &r, 500.0);
        assert!(
            eigen.plan_req(n).total_bytes()
                < SymmetricEigen::new()
                    .nb(6)
                    .method(Method::Qr)
                    .vectors(true)
                    .plan_req(n)
                    .total_bytes()
        );
    }

    #[test]
    fn full_pipeline_prescribed_spectrum() {
        let n = 70;
        let lambda = gen::linspace(-5.0, 3.0, n);
        let a = gen::symmetric_with_spectrum(&lambda, 41);
        let r = SymmetricEigen::new().nb(8).solve(&a).unwrap();
        assert!(norms::eigenvalue_distance(&r.eigenvalues, &lambda) < 1e-11);
        residual_ok(&a, &r, 500.0);
        // Phase timings populated.
        assert!(r.timings.stage1.as_nanos() > 0);
        assert!(r.timings.stage2.as_nanos() > 0);
    }

    #[test]
    fn various_nb_values() {
        let n = 50;
        let a = gen::random_symmetric(n, 42);
        let want = tseig_kernels::reference::jacobi_eigen(&a, false)
            .unwrap()
            .eigenvalues;
        for nb in [2, 5, 10, 25, 49, 64] {
            let r = SymmetricEigen::new().nb(nb).solve(&a).unwrap();
            assert!(
                norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-10,
                "nb={nb}"
            );
            residual_ok(&a, &r, 500.0);
        }
    }

    #[test]
    fn all_tridiagonal_methods() {
        let n = 40;
        let a = gen::random_symmetric(n, 43);
        for m in [
            Method::Qr,
            Method::DivideAndConquer,
            Method::BisectionInverse,
        ] {
            let r = SymmetricEigen::new().nb(6).method(m).solve(&a).unwrap();
            residual_ok(&a, &r, 500.0);
        }
    }

    #[test]
    fn subset_fraction() {
        let n = 50;
        let a = gen::random_symmetric(n, 44);
        let full = SymmetricEigen::new().nb(6).solve(&a).unwrap();
        let r = SymmetricEigen::new()
            .nb(6)
            .method(Method::BisectionInverse)
            .range(EigenRange::Index(0, 10))
            .solve(&a)
            .unwrap();
        assert_eq!(r.eigenvalues.len(), 10);
        assert!(norms::eigenvalue_distance(&r.eigenvalues, &full.eigenvalues[..10]) < 1e-10);
        residual_ok(&a, &r, 500.0);
    }

    #[test]
    fn values_only() {
        let a = gen::random_symmetric(30, 45);
        let r = SymmetricEigen::new()
            .nb(4)
            .vectors(false)
            .solve(&a)
            .unwrap();
        assert!(r.eigenvectors.is_none());
    }

    #[test]
    fn schedulers_equivalent_end_to_end() {
        let n = 60;
        let a = gen::random_symmetric(n, 46);
        let serial = SymmetricEigen::new().nb(6).solve(&a).unwrap();
        for s in [Scheduler::Static(2), Scheduler::Dynamic(4)] {
            let r = SymmetricEigen::new().nb(6).scheduler(s).solve(&a).unwrap();
            // Same kernels in serial-equivalent order: identical values.
            assert!(
                norms::eigenvalue_distance(&r.eigenvalues, &serial.eigenvalues) < 1e-13,
                "{s:?}"
            );
            residual_ok(&a, &r, 500.0);
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(3, 4);
        assert!(SymmetricEigen::new().solve(&a).is_err());
    }

    #[test]
    fn tiny_matrices() {
        for n in [1, 2, 3] {
            let a = gen::random_symmetric(n, 47 + n as u64);
            let r = SymmetricEigen::new().nb(2).solve(&a).unwrap();
            assert_eq!(r.eigenvalues.len(), n);
            residual_ok(&a, &r, 500.0);
        }
    }
}
