//! SVD drivers at full-ladder parity with the eigensolvers.
//!
//! Two pipelines reach the same bidiagonal QR finish:
//!
//! * **one-stage** — `gebrd` (all `gemv`-bound, the paper's §4.1
//!   baseline), `bdsqr`, and the back-transformation with `gebrd`'s
//!   reflectors grouped into blocked panels (the `dormbr` role);
//! * **two-stage** — [`crate::stage1::ge2bb`] (BLAS-3 dense→band) then
//!   the [`crate::stage2`] bulge chase under a Serial/Static/Dynamic
//!   scheduler, back-transformation from the panel and chase reflector
//!   sets, `bdsqr`.
//!
//! Both run the same production ladder as the symmetric driver: input
//! screening with offender location, `DSYEV`-style safe scaling,
//! recovery rungs (scheduler fallback, `bdsqr` cap → eps-perturbed
//! retry) recorded in [`SolveDiagnostics`], and opt-in verification.

use crate::bdsqr::bdsqr_with;
use crate::stage1::{apply_p1, apply_q1, ge2bb_with};
use crate::stage2::{reduce_scheduled, reduce_ws, BvSet, Stage2Exec, Stage2Ws};
use std::time::Duration;
use tseig_kernels::backtransform::{apply_q, apply_q_ws, default_panel_cols, BtPlan};
use tseig_kernels::householder::BlockReflector;
use tseig_kernels::qr::{block_reflector_into, Storev};
use tseig_kernels::scaling::{safe_scale_factor, scale_matrix, screen_general};
use tseig_matrix::diagnostics::{Recorder, Recovery, SolveDiagnostics, VerifyLevel, VerifyReport};
use tseig_matrix::{Ctrl, Deadline, Error, Matrix, MemBudget, MemReq, Result};
use tseig_onestage::bidiagonal::gebrd_with;

/// Thin SVD of an `m x n` matrix (`m >= n`): `A = U diag(s) V^T` with
/// `U` `m x n`, `V` `n x n`, `s` descending non-negative.
#[derive(Debug)]
pub struct Svd {
    pub u: Matrix,
    pub s: Vec<f64>,
    pub v: Matrix,
    /// What the robustness ladder did on the way to the answer.
    pub diagnostics: SolveDiagnostics,
}

/// Pipeline selection for [`GeSvd`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SvdMethod {
    /// Two-stage for values-only solves on square matrices of order
    /// `>= two_stage_min_n`, one-stage otherwise. Vector solves stay
    /// one-stage: the chase back-transform applies its reflectors one
    /// at a time, and measured at n=1024 that cost still outweighs the
    /// BLAS-3 reduction win (see `BENCH_*_svd_two_stage.json`).
    #[default]
    Auto,
    /// Always the one-stage `gebrd` pipeline.
    OneStage,
    /// Always the two-stage pipeline (square input required).
    TwoStage,
}

/// Reusable buffers of the SVD driver, mirroring `SolvePlan`'s ownership
/// model: the dense working copy, the bidiagonal, the chase reflector
/// set and scratch, and the one-stage back-transform's single reflector
/// panel and serial apply scratch live here and are reused across
/// solves of the same shape instead of being reallocated. The `bdsqr`
/// accumulators `Ub`/`Vb` become the result's `U`/`V` in place (a tall
/// `U` is copied into its `m x n` frame), so each vector solve allocates
/// them once, as a copy out would.
#[derive(Default)]
pub struct SvdPlan {
    work: Matrix,
    ub: Matrix,
    vb: Matrix,
    bv: BvSet,
    ws: Stage2Ws,
    d: Vec<f64>,
    e: Vec<f64>,
    d0: Vec<f64>,
    e0: Vec<f64>,
    panel: BlockReflector<f64>,
    bt: BtPlan<f64>,
}

impl SvdPlan {
    pub fn new() -> SvdPlan {
        SvdPlan::default()
    }

    /// Bytes of heap capacity currently retained.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.work.capacity_bytes()
            + self.ub.capacity_bytes()
            + self.vb.capacity_bytes()
            + self.bv.capacity_bytes()
            + self.ws.capacity_bytes()
            + self.panel.capacity_bytes()
            + self.bt.capacity_bytes()
            + (self.d.capacity() + self.e.capacity() + self.d0.capacity() + self.e0.capacity())
                * size_of::<f64>()
    }
}

/// Builder-style SVD driver (the `gesvd` role).
#[derive(Clone, Debug)]
pub struct GeSvd {
    nb: usize,
    ib: usize,
    method: SvdMethod,
    scheduler: Stage2Exec,
    vectors: bool,
    verify: VerifyLevel,
    two_stage_min_n: usize,
    ctrl: Ctrl,
}

impl Default for GeSvd {
    fn default() -> Self {
        GeSvd {
            nb: 32,
            ib: 0,
            method: SvdMethod::Auto,
            scheduler: Stage2Exec::Serial,
            vectors: true,
            verify: VerifyLevel::Off,
            two_stage_min_n: 768,
            ctrl: Ctrl::NONE,
        }
    }
}

impl GeSvd {
    pub fn new() -> Self {
        GeSvd::default()
    }

    /// Bandwidth of the two-stage reduction.
    pub fn nb(mut self, nb: usize) -> Self {
        self.nb = nb.max(2);
        self
    }

    /// Inner blocking of the stage-1 panel QR (0 = `nb`).
    pub fn ib(mut self, ib: usize) -> Self {
        self.ib = ib;
        self
    }

    /// Pipeline selection.
    pub fn method(mut self, m: SvdMethod) -> Self {
        self.method = m;
        self
    }

    /// Stage-2 scheduler for the two-stage path.
    pub fn scheduler(mut self, s: Stage2Exec) -> Self {
        self.scheduler = s;
        self
    }

    /// Compute singular vectors (default) or values only.
    pub fn vectors(mut self, want: bool) -> Self {
        self.vectors = want;
        self
    }

    /// Opt-in post-solve verification.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// `Auto` routes values-only solves on square matrices of at least
    /// this order through the two-stage pipeline. The default (768) sits
    /// between the measured crossover bounds — one-stage still ahead at
    /// n=512, two-stage 1.4x ahead at n=1024 (see
    /// `BENCH_*_svd_two_stage.json`).
    pub fn two_stage_min_n(mut self, n: usize) -> Self {
        self.two_stage_min_n = n;
        self
    }

    /// Attach a request control (cancel token / deadline / heartbeat).
    /// Every long-running loop of the solve polls it at its phase
    /// boundary; an abort surfaces as `Error::Cancelled` or
    /// `Error::DeadlineExceeded` and leaves the plan valid for reuse.
    pub fn ctrl(mut self, ctrl: Ctrl) -> Self {
        self.ctrl = ctrl;
        self
    }

    /// The attached request control.
    pub fn control(&self) -> &Ctrl {
        &self.ctrl
    }

    /// Workspace requirement of [`Self::solve_with_plan`] for an
    /// `m x n` input under this configuration — the admission-control
    /// sizing used by [`SvdBatch::mem_budget`]. Pure arithmetic, no
    /// allocation.
    pub fn plan_req(&self, m: usize, n: usize) -> MemReq {
        let b = self.nb.max(2);
        MemReq::f64s(m * n) // dense working copy
            .and(MemReq::f64s(n * n).times(2)) // Ub / Vb accumulators
            .and(MemReq::f64s((3 * b + 2) * n)) // band form + bulge fill
            .and(MemReq::f64s(2 * n * (b + 1))) // chase reflector slots
            .and(MemReq::f64s(4 * n)) // bidiagonal + retry snapshot
            .and(MemReq::f64s(
                (m + b) * b + 2 * b * n.min(default_panel_cols::<f64>()),
            )) // one-stage panel + scratch
    }

    /// Compute the SVD with internally-allocated buffers.
    pub fn solve(&self, a: &Matrix) -> Result<Svd> {
        let mut plan = SvdPlan::new();
        self.solve_with_plan(a, &mut plan)
    }

    /// Compute the SVD reusing a caller-owned [`SvdPlan`]'s buffers (the
    /// batch path: one plan per worker, warm after the first solve of a
    /// shape).
    pub fn solve_with_plan(&self, a: &Matrix, plan: &mut SvdPlan) -> Result<Svd> {
        let (m, n) = (a.rows(), a.cols());
        assert!(
            m >= n,
            "gesvd expects m >= n; factor the transpose otherwise"
        );
        if n == 0 {
            return Ok(Svd {
                u: Matrix::zeros(m, 0),
                s: vec![],
                v: Matrix::zeros(0, 0),
                diagnostics: SolveDiagnostics::default(),
            });
        }
        // Screening: every entry finite, with the offender located.
        let anorm = screen_general(a)?;
        // Admission boundary: a pre-cancelled or expired request aborts
        // before the working copy is touched, keeping the plan warm.
        self.ctrl.checkpoint()?;
        let rec = Recorder::new();
        // DSYEV-style safe scaling into [sqrt(smlnum), sqrt(bignum)].
        let sigma = safe_scale_factor(anorm);
        plan.work.copy_from(a);
        if let Some(s) = sigma {
            scale_matrix(&mut plan.work, s);
        }

        let two_stage = match self.method {
            SvdMethod::OneStage => false,
            SvdMethod::TwoStage => {
                assert_eq!(m, n, "two-stage SVD requires a square matrix");
                true
            }
            SvdMethod::Auto => {
                m == n && n >= self.two_stage_min_n && self.nb >= 2 && n > 2 && !self.vectors
            }
        };

        let mut out = if two_stage {
            self.solve_two_stage(plan, &rec)?
        } else {
            self.solve_one_stage(plan, &rec)?
        };

        // Undo the input scaling on the singular values.
        if let Some(s) = sigma {
            for v in &mut out.s {
                *v /= s;
            }
        }
        out.diagnostics = SolveDiagnostics::from_recorder(&rec);
        out.diagnostics.scaled_by = sigma;
        if self.verify != VerifyLevel::Off && self.vectors {
            use tseig_matrix::norms;
            let residual = svd_residual(a, &out);
            let orthogonality = if self.verify == VerifyLevel::Full {
                norms::orthogonality(&out.u).max(norms::orthogonality(&out.v))
            } else {
                0.0
            };
            out.diagnostics.verify = Some(VerifyReport {
                residual,
                orthogonality,
            });
        }
        Ok(out)
    }

    /// Run `bdsqr`, absorbing an iteration-cap failure with one
    /// eps-perturbed retry (recorded as a degradation).
    #[allow(clippy::too_many_arguments)]
    fn bdsqr_with_retry(
        &self,
        plan: &mut SvdPlan,
        rec: &Recorder,
        n: usize,
        with_vectors: bool,
    ) -> Result<()> {
        plan.d0.clear();
        plan.d0.extend_from_slice(&plan.d);
        plan.e0.clear();
        plan.e0.extend_from_slice(&plan.e);
        let reset_uv = |plan: &mut SvdPlan| {
            if with_vectors {
                plan.ub.reset_to(n, n);
                plan.vb.reset_to(n, n);
                for j in 0..n {
                    plan.ub[(j, j)] = 1.0;
                    plan.vb[(j, j)] = 1.0;
                }
            } else {
                plan.ub.reset_to(0, 0);
                plan.vb.reset_to(0, 0);
            }
        };
        reset_uv(plan);
        let first = {
            let SvdPlan { d, e, ub, vb, .. } = plan;
            let (u, v) = if with_vectors {
                (Some(&mut *ub), Some(&mut *vb))
            } else {
                (None, None)
            };
            bdsqr_with(d, e, u, v, &self.ctrl)
        };
        match first {
            Ok(()) => Ok(()),
            Err(Error::NoConvergence { index, .. }) => {
                // The sweep stalled (or the chaos site fired). Restore
                // the bidiagonal, nudge the superdiagonal at machine
                // precision to break the stall, and re-run once.
                rec.record(Recovery::BdsqrPerturbedRetry { index });
                plan.d.clear();
                plan.d.extend_from_slice(&plan.d0);
                plan.e.clear();
                plan.e.extend_from_slice(&plan.e0);
                for v in plan.e.iter_mut() {
                    *v *= 1.0 - 4.0 * f64::EPSILON;
                }
                reset_uv(plan);
                let SvdPlan { d, e, ub, vb, .. } = plan;
                let (u, v) = if with_vectors {
                    (Some(&mut *ub), Some(&mut *vb))
                } else {
                    (None, None)
                };
                bdsqr_with(d, e, u, v, &self.ctrl)
            }
            Err(e) => Err(e),
        }
    }

    /// Two-stage pipeline on the (square, pre-scaled) working copy.
    fn solve_two_stage(&self, plan: &mut SvdPlan, rec: &Recorder) -> Result<Svd> {
        let n = plan.work.rows();
        let form = ge2bb_with(&plan.work, self.nb, self.ib, &self.ctrl)?;
        // Scheduled bulge chase, with the serial path (into the plan's
        // reflector set and scratch) as recovery rung.
        let scheduled = (self.scheduler != Stage2Exec::Serial).then(|| {
            reduce_scheduled(clone_band(&form.band), self.scheduler, &self.ctrl)
                .map(|c| (plan.bv, plan.d, plan.e) = (c.bv, c.d, c.e))
        });
        rec.or_serial(&self.ctrl, scheduled, || {
            let SvdPlan { bv, ws, d, e, .. } = &mut *plan;
            reduce_ws(&mut clone_band(&form.band), bv, ws, d, e, &self.ctrl)
        })?;
        self.bdsqr_with_retry(plan, rec, n, self.vectors)?;
        if !self.vectors {
            return Ok(Svd {
                u: Matrix::zeros(n, 0),
                s: plan.d.clone(),
                v: Matrix::zeros(n, 0),
                diagnostics: SolveDiagnostics::default(),
            });
        }
        // U = Q1 (L_chase Ub), V = P1 (R_chase Vb).
        self.ctrl.checkpoint()?;
        let mut u = std::mem::take(&mut plan.ub);
        plan.bv.apply_left(&mut u);
        apply_q1(&form.qpanels, &mut u);
        let mut v = std::mem::take(&mut plan.vb);
        plan.bv.apply_right(&mut v);
        apply_p1(&form.ppanels, &mut v);
        Ok(Svd {
            u,
            s: plan.d.clone(),
            v,
            diagnostics: SolveDiagnostics::default(),
        })
    }

    /// One-stage pipeline on the (pre-scaled) working copy.
    fn solve_one_stage(&self, plan: &mut SvdPlan, rec: &Recorder) -> Result<Svd> {
        let (m, n) = (plan.work.rows(), plan.work.cols());
        let (tauq, taup, d, e) = gebrd_with(&mut plan.work, &self.ctrl)?;
        plan.d = d;
        plan.e = e;
        self.bdsqr_with_retry(plan, rec, n, self.vectors)?;
        if !self.vectors {
            return Ok(Svd {
                u: Matrix::zeros(m, 0),
                s: plan.d.clone(),
                v: Matrix::zeros(n, 0),
                diagnostics: SolveDiagnostics::default(),
            });
        }
        // U = Q [Ub; 0] with Q = H_0 H_1 ... (left reflectors, stored in
        // columns), V = P Vb with P = G_0 G_1 ... (right reflectors,
        // stored in rows; G_j acts on rows j+1..n).
        let mut u = if m == n {
            std::mem::take(&mut plan.ub)
        } else {
            let mut u = Matrix::zeros(m, n);
            u.set_sub_matrix(0, 0, &plan.ub);
            u
        };
        let mut v = std::mem::take(&mut plan.vb);
        self.apply_gebrd_side(plan, Storev::Columns, &tauq, &mut u)?;
        self.apply_gebrd_side(plan, Storev::Rows, &taup, &mut v)?;
        Ok(Svd {
            u,
            s: plan.d.clone(),
            v,
            diagnostics: SolveDiagnostics::default(),
        })
    }

    /// `C <- H_0 H_1 ... H_{k-1} C` for one side's reflectors of the
    /// `gebrd` factor in `plan.work` (`k = tau.len()`), `nb` at a time:
    /// each panel is built into the plan's one panel slot and applied,
    /// last panel first. `Serial` runs the planned loop, polling `ctrl`
    /// per column panel; other schedulers run the column panels on the
    /// pool, polling between reflector panels.
    fn apply_gebrd_side(
        &self,
        plan: &mut SvdPlan,
        storev: Storev,
        tau: &[f64],
        c: &mut Matrix,
    ) -> Result<()> {
        let SvdPlan {
            work, panel, bt, ..
        } = plan;
        let (nb, lda, ldc) = (self.nb.max(1), work.ld(), c.ld());
        // Right reflector j starts one row below left reflector j.
        let shift = usize::from(storev == Storev::Rows);
        for j0 in (0..tau.len()).step_by(nb).rev() {
            let (r0, kb) = (j0 + shift, nb.min(tau.len() - j0));
            let stored = &work.as_slice()[j0 + r0 * lda..];
            let tau = &tau[j0..j0 + kb];
            block_reflector_into(stored, lda, storev, r0, c.rows() - r0, kb, tau, panel);
            let panels = std::slice::from_ref(&*panel);
            if self.scheduler == Stage2Exec::Serial {
                apply_q_ws(&[], panels, c.as_mut_slice(), ldc, 1, 0, bt, &self.ctrl)?;
            } else {
                self.ctrl.checkpoint()?;
                apply_q(&[], panels, c.as_mut_slice(), ldc, 1, 0);
            }
        }
        Ok(())
    }
}

/// Deep copy of a band matrix (the chase consumes its input; the
/// recovery rung needs a pristine one).
fn clone_band(band: &tseig_matrix::GeBandMatrix) -> tseig_matrix::GeBandMatrix {
    let mut c = tseig_matrix::GeBandMatrix::zeros(band.n(), band.kl(), band.ku());
    c.as_mut_slice().copy_from_slice(band.as_slice());
    c
}

/// Worker pool streaming many SVD requests through per-worker
/// [`SvdPlan`]s — the SVD face of `tseig-core`'s `BatchDriver`, with the
/// same guarantees: `results[i]` corresponds to `inputs[i]`, and a
/// request that fails (screening, non-convergence, even a panicking
/// kernel) produces an `Err` in its own slot while the rest of the
/// batch completes.
#[derive(Clone, Debug)]
pub struct SvdBatch {
    gesvd: GeSvd,
    threads: usize,
    deadline: Option<Duration>,
    batch_deadline: Option<Duration>,
    mem_budget: Option<MemBudget>,
}

impl SvdBatch {
    /// Batch over the given driver configuration; workers default to the
    /// machine's available parallelism.
    pub fn new(gesvd: GeSvd) -> SvdBatch {
        SvdBatch {
            gesvd,
            threads: 0,
            deadline: None,
            batch_deadline: None,
            mem_budget: None,
        }
    }

    /// Number of concurrent workers (`0` = available parallelism, `1` =
    /// one worker streaming the whole batch through one plan).
    pub fn threads(mut self, t: usize) -> SvdBatch {
        self.threads = t;
        self
    }

    /// Per-request wall-clock budget: each solve gets a fresh deadline
    /// of `d`, and an overrun aborts that request alone with
    /// `Error::DeadlineExceeded` (the sibling requests are unaffected).
    pub fn deadline(mut self, d: Duration) -> SvdBatch {
        self.deadline = Some(d);
        self
    }

    /// Whole-batch wall-clock budget, queue-time aware: a request
    /// claimed with the batch budget already spent fails at admission,
    /// and a claimed request's effective deadline never extends past
    /// what remains of the batch budget.
    pub fn batch_deadline(mut self, d: Duration) -> SvdBatch {
        self.batch_deadline = Some(d);
        self
    }

    /// Memory admission ceiling, checked against
    /// [`GeSvd::plan_req`] sizing before any allocation for the
    /// request: an oversized input fails with `Error::BudgetExceeded`
    /// without disturbing the worker's warm plan.
    pub fn mem_budget(mut self, b: MemBudget) -> SvdBatch {
        self.mem_budget = Some(b);
        self
    }

    /// Admission decision for one `m x n` request under the configured
    /// memory budget. Pure arithmetic — performs no allocation.
    pub fn admit(&self, m: usize, n: usize) -> Result<()> {
        match self.mem_budget {
            Some(b) => b.admit(self.gesvd.plan_req(m, n).total_bytes()),
            None => Ok(()),
        }
    }

    /// Per-request driver under the governance knobs: admission check,
    /// then the base configuration with the effective deadline
    /// (min of per-request budget and the batch budget's remainder)
    /// attached on top of any caller-supplied control.
    fn request_driver(&self, a: &Matrix, batch: Option<&Deadline>) -> Result<GeSvd> {
        self.admit(a.rows(), a.cols())?;
        if let Some(bd) = batch {
            if bd.expired() {
                return Err(Error::DeadlineExceeded {
                    elapsed: bd.elapsed(),
                    budget: bd.budget(),
                });
            }
        }
        let budget = match (self.deadline, batch) {
            (Some(p), Some(bd)) => Some(p.min(bd.remaining())),
            (Some(p), None) => Some(p),
            (None, Some(bd)) => Some(bd.remaining()),
            (None, None) => None,
        };
        let mut gesvd = self.gesvd.clone();
        if let Some(budget) = budget {
            let ctrl = gesvd.control().clone().with_deadline(Deadline::new(budget));
            gesvd = gesvd.ctrl(ctrl);
        }
        Ok(gesvd)
    }

    /// Factor every input (each `m x n` with `m >= n`).
    pub fn solve_all(&self, inputs: &[Matrix]) -> Vec<Result<Svd>> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let batch = self.batch_deadline.map(Deadline::new);
        let solve_one = |a: &Matrix, plan: &mut SvdPlan| -> Result<Svd> {
            let gesvd = self.request_driver(a, batch.as_ref())?;
            match catch_unwind(AssertUnwindSafe(|| gesvd.solve_with_plan(a, plan))) {
                Ok(r) => r,
                Err(payload) => {
                    // The plan may hold partially-written state after the
                    // unwind; rebuild it.
                    *plan = SvdPlan::new();
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    Err(Error::Runtime(format!("svd panicked: {msg}")))
                }
            }
        };
        let workers = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
        .clamp(1, inputs.len().max(1));
        if workers <= 1 {
            let mut plan = SvdPlan::new();
            return inputs.iter().map(|a| solve_one(a, &mut plan)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<Svd>>>> =
            (0..inputs.len()).map(|_| Mutex::new(None)).collect();
        let flops = tseig_kernels::flops::scope();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let _charged = flops.enter();
                    let mut plan = SvdPlan::new();
                    // tidy: allow(checkpoint-loop) -- governance runs per claim (request_driver); the solve polls its own ctrl
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs.len() {
                            break;
                        }
                        let r = solve_one(&inputs[i], &mut plan);
                        *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .unwrap_or_else(|| {
                        Err(Error::Runtime(
                            "worker exited before writing its result slot".to_string(),
                        ))
                    })
            })
            .collect()
    }
}

/// Compute the thin SVD with default options (full vectors, auto
/// pipeline). For `m < n`, pass the transpose and swap `u`/`v`.
pub fn gesvd(a: &Matrix) -> Result<Svd> {
    GeSvd::new().solve(a)
}

/// Scaled SVD residual `||A - U S V^T||_max / (||A||_1 max(m,n) eps)`.
pub fn svd_residual(a: &Matrix, svd: &Svd) -> f64 {
    use tseig_matrix::norms;
    let n = svd.s.len();
    let mut us = svd.u.clone();
    for j in 0..n {
        let col = us.col_mut(j);
        for val in col.iter_mut() {
            *val *= svd.s[j];
        }
    }
    let recon = us.multiply(&svd.v.transpose()).expect("shapes");
    let mut diff = 0.0f64;
    for (x, y) in recon.as_slice().iter().zip(a.as_slice()) {
        diff = diff.max((x - y).abs());
    }
    diff / (norms::norm1(a).max(norms::EPS) * a.rows().max(a.cols()) as f64 * norms::EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn oracle_svals(a: &Matrix) -> Vec<f64> {
        let ata = a.transpose().multiply(a).unwrap();
        let mut v: Vec<f64> = tseig_kernels::reference::jacobi_eigen(&ata, false)
            .unwrap()
            .eigenvalues
            .iter()
            .map(|x| x.max(0.0).sqrt())
            .collect();
        v.reverse();
        v
    }

    fn check(a: &Matrix, tag: &str) {
        let svd = gesvd(a).unwrap();
        let want = oracle_svals(a);
        assert!(
            norms::eigenvalue_distance(&svd.s, &want) < 1e-9,
            "{tag}: singular values\n got {:?}\nwant {want:?}",
            svd.s
        );
        assert!(
            svd_residual(a, &svd) < 500.0,
            "{tag}: residual {}",
            svd_residual(a, &svd)
        );
        assert!(norms::orthogonality(&svd.u) < 200.0, "{tag}: U");
        assert!(norms::orthogonality(&svd.v) < 200.0, "{tag}: V");
    }

    #[test]
    fn square_random() {
        check(&rand_mat(20, 20, 100), "square20");
        check(&rand_mat(33, 33, 101), "square33");
    }

    #[test]
    fn batch_matches_one_at_a_time_and_isolates_failures() {
        let mut inputs: Vec<Matrix> = (0..5)
            .map(|s| rand_mat(18 + 2 * (s % 2), 14, 700 + s as u64))
            .collect();
        inputs[3][(4, 4)] = f64::NAN;
        let driver = GeSvd::new().nb(4);
        let sequential: Vec<_> = inputs.iter().map(|a| driver.solve(a)).collect();
        for threads in [1, 3] {
            let batch = SvdBatch::new(driver.clone())
                .threads(threads)
                .solve_all(&inputs);
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                match (b, s) {
                    (Ok(b), Ok(s)) => {
                        assert_eq!(b.s, s.s, "request {i}");
                        assert_eq!(b.u.as_slice(), s.u.as_slice(), "request {i}");
                    }
                    (Err(_), Err(_)) => assert_eq!(i, 3, "only the poisoned request fails"),
                    _ => panic!("request {i}: batch/sequential outcome mismatch"),
                }
            }
        }
    }

    #[test]
    fn cancel_then_resolve_on_same_plan_is_bitwise() {
        // A cancelled request must leave the plan valid: re-solving on
        // the same plan with the cancel cleared is bitwise identical to
        // a fresh ungoverned solve, under every scheduler.
        use tseig_matrix::CancelToken;
        let a = rand_mat(24, 24, 900);
        for sched in [
            Stage2Exec::Serial,
            Stage2Exec::Static(3),
            Stage2Exec::Dynamic(4),
        ] {
            let drv = GeSvd::new()
                .method(SvdMethod::TwoStage)
                .nb(4)
                .scheduler(sched);
            let fresh = drv.solve(&a).unwrap();
            let mut plan = SvdPlan::new();
            // Warm the plan, then cancel a request against it.
            drv.solve_with_plan(&a, &mut plan).unwrap();
            let pre = CancelToken::new();
            pre.cancel();
            let governed = drv.clone().ctrl(Ctrl::new().with_cancel(pre));
            match governed.solve_with_plan(&a, &mut plan) {
                Err(Error::Cancelled) => {}
                other => panic!("{sched:?}: expected Cancelled, got {other:?}"),
            }
            let resolved = drv.solve_with_plan(&a, &mut plan).unwrap();
            assert_eq!(resolved.s, fresh.s, "{sched:?}: singular values");
            assert_eq!(resolved.u.as_slice(), fresh.u.as_slice(), "{sched:?}: U");
            assert_eq!(resolved.v.as_slice(), fresh.v.as_slice(), "{sched:?}: V");
        }
    }

    /// The unblocked back-transform the blocked panels replace: one
    /// `larf_left` per reflector of one side of `gebrd`'s factor, last
    /// reflector first (the test oracle).
    fn unblocked_side(fac: &Matrix, storev: Storev, tau: &[f64], c: &mut Matrix) {
        let shift = usize::from(storev == Storev::Rows);
        let (ldc, ncols) = (c.ld(), c.cols());
        let mut work = vec![0.0; ncols];
        for j in (0..tau.len()).rev() {
            let r0 = j + shift;
            let v: Vec<f64> = (0..c.rows() - r0)
                .map(|r| match (r, storev) {
                    (0, _) => 1.0,
                    (_, Storev::Columns) => fac[(r0 + r, j)],
                    (_, Storev::Rows) => fac[(j, r0 + r)],
                })
                .collect();
            let (len, c) = (v.len(), &mut c.as_mut_slice()[r0..]);
            tseig_kernels::householder::larf_left(&v, tau[j], len, ncols, c, ldc, &mut work);
        }
    }

    /// Blocked `U = Q C_u` and `V = P C_v` under `Serial` and `Static(2)`
    /// against the unblocked oracle, within `c n eps`; both schedulers
    /// give the same bits. Returns the `gebrd` reflector scalars.
    fn blocked_matches_unblocked(a: &Matrix, nb: usize) -> (Vec<f64>, Vec<f64>) {
        let (m, n) = (a.rows(), a.cols());
        let mut fac = a.clone();
        let (tauq, taup, _, _) = gebrd_with(&mut fac, &Ctrl::NONE).unwrap();
        let (cu, cv) = (rand_mat(m, n, 5 + m as u64), rand_mat(n, n, 6 + n as u64));
        let (mut want_u, mut want_v) = (cu.clone(), cv.clone());
        unblocked_side(&fac, Storev::Columns, &tauq, &mut want_u);
        unblocked_side(&fac, Storev::Rows, &taup, &mut want_v);
        let tol = 10.0 * m as f64 * norms::EPS;
        let mut bits = None;
        for sched in [Stage2Exec::Serial, Stage2Exec::Static(2)] {
            let drv = GeSvd::new().nb(nb).scheduler(sched);
            let mut plan = SvdPlan::new();
            plan.work = fac.clone();
            let (mut u, mut v) = (cu.clone(), cv.clone());
            drv.apply_gebrd_side(&mut plan, Storev::Columns, &tauq, &mut u)
                .unwrap();
            drv.apply_gebrd_side(&mut plan, Storev::Rows, &taup, &mut v)
                .unwrap();
            let tag = format!("{m}x{n} nb={nb} {sched:?}");
            assert!(u.approx_eq(&want_u, tol), "{tag}: U off the oracle");
            assert!(v.approx_eq(&want_v, tol), "{tag}: V off the oracle");
            let got = (u.as_slice().to_vec(), v.as_slice().to_vec());
            assert_eq!(bits.get_or_insert_with(|| got.clone()), &got, "{tag}");
        }
        (tauq, taup)
    }

    #[test]
    fn blocked_back_transform_matches_unblocked_oracle() {
        let nb = 8;
        // n = 1 and 2, n < nb, n = nb - 1, nb, nb + 1, several panels,
        // and tall inputs (one with m > n = nb + 1).
        for (m, n) in [
            (1, 1),
            (2, 2),
            (3, 2),
            (5, 5),
            (7, 7),
            (8, 8),
            (9, 9),
            (27, 27),
        ] {
            blocked_matches_unblocked(&rand_mat(m, n, (m * 31 + n) as u64), nb);
        }
        for (m, n) in [(40, 17), (25, 9), (6, 1)] {
            blocked_matches_unblocked(&rand_mat(m, n, (m * 31 + n) as u64), nb);
        }
    }

    #[test]
    fn blocked_back_transform_with_zero_tau_reflectors() {
        // Rank 5 as diag(B, 0): every reflector past the block finds its
        // column (or row) already zero, so its tau is exactly 0.
        let (m, n, k) = (30, 21, 5);
        let b = rand_mat(k, k, 930);
        let a = Matrix::from_fn(m, n, |i, j| if i < k && j < k { b[(i, j)] } else { 0.0 });
        let (tauq, taup) = blocked_matches_unblocked(&a, 8);
        assert!(tauq[k..].iter().chain(&taup[k..]).all(|&t| t == 0.0));
        let svd = GeSvd::new().nb(8).solve(&a).unwrap();
        assert!(svd.s[k] <= 1e-14 * svd.s[0], "{:?}", svd.s);
        assert!(svd_residual(&a, &svd) < 500.0);
        assert!(norms::orthogonality(&svd.u) < 200.0);
        assert!(norms::orthogonality(&svd.v) < 200.0);
    }

    #[test]
    fn one_stage_polls_once_per_gebrd_column() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let n = 40;
        let a = rand_mat(n, n, 940);
        for values_only in [true, false] {
            let hb = Arc::new(AtomicU64::new(0));
            GeSvd::new()
                .method(SvdMethod::OneStage)
                .vectors(!values_only)
                .ctrl(Ctrl::new().with_heartbeat(hb.clone()))
                .solve(&a)
                .unwrap();
            let polls = hb.load(Ordering::Relaxed);
            assert!(polls >= n as u64, "{polls} polls at n = {n}");
        }
    }

    #[test]
    fn cancel_mid_gebrd_leaves_the_plan_reusable() {
        // A watcher cancels once the heartbeat shows `gebrd` under way.
        // The solve must end `Cancelled`, and a re-solve on the same
        // plan must match a fresh one bitwise. The cancel lands inside
        // `gebrd` (fewer than n polls in all) unless the watcher is
        // descheduled for the whole reduction, so the first claim is
        // retried a few times.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use tseig_matrix::CancelToken;
        let n = 160;
        let a = rand_mat(n, n, 950);
        let drv = GeSvd::new().method(SvdMethod::OneStage);
        let fresh = drv.solve(&a).unwrap();
        let mut plan = SvdPlan::new();
        let mut inside = false;
        for _ in 0..5 {
            let (hb, token) = (Arc::new(AtomicU64::new(0)), CancelToken::new());
            let ctrl = Ctrl::new()
                .with_heartbeat(hb.clone())
                .with_cancel(token.clone());
            let governed = drv.clone().ctrl(ctrl);
            let watcher = std::thread::spawn(move || {
                while hb.load(Ordering::Relaxed) < 4 {
                    std::hint::spin_loop();
                }
                token.cancel();
                hb
            });
            let r = governed.solve_with_plan(&a, &mut plan);
            let polls = watcher.join().unwrap().load(Ordering::Relaxed);
            match r {
                Err(Error::Cancelled) => inside |= polls < n as u64,
                Ok(_) => {}
                Err(e) => panic!("expected Cancelled, got {e:?}"),
            }
            let again = drv.solve_with_plan(&a, &mut plan).unwrap();
            assert_eq!(again.s, fresh.s, "singular values after a cancel");
            assert_eq!(again.u.as_slice(), fresh.u.as_slice(), "U after a cancel");
            assert_eq!(again.v.as_slice(), fresh.v.as_slice(), "V after a cancel");
            if inside {
                break;
            }
        }
        assert!(inside, "no cancel landed inside gebrd in five tries");
    }

    #[test]
    fn batch_admission_rejects_only_the_oversized_request() {
        // MemBudget admission is per request: the oversized input fails
        // with the structured need/limit pair before any allocation,
        // siblings are bitwise identical to an ungoverned run.
        let small = 12usize;
        let inputs = vec![
            rand_mat(small, small, 910),
            rand_mat(4 * small, 4 * small, 911),
            rand_mat(small, small, 912),
        ];
        let driver = GeSvd::new().nb(4);
        let limit = driver.plan_req(small, small).total_bytes();
        let plain = SvdBatch::new(driver.clone()).threads(1).solve_all(&inputs);
        for threads in [1, 2] {
            let governed = SvdBatch::new(driver.clone())
                .threads(threads)
                .mem_budget(MemBudget::bytes(limit))
                .solve_all(&inputs);
            for (i, r) in governed.iter().enumerate() {
                if i == 1 {
                    match r {
                        Err(Error::BudgetExceeded { need, limit: l }) => {
                            assert!(*need > *l, "need {need} <= limit {l}");
                        }
                        other => panic!("expected BudgetExceeded, got {other:?}"),
                    }
                } else {
                    let (g, p) = (r.as_ref().unwrap(), plain[i].as_ref().unwrap());
                    assert_eq!(g.s, p.s, "request {i}");
                    assert_eq!(g.u.as_slice(), p.u.as_slice(), "request {i}");
                }
            }
        }
    }

    #[test]
    fn zero_batch_deadline_fails_every_request_structurally() {
        let inputs: Vec<Matrix> = (0..3).map(|s| rand_mat(10, 10, 920 + s)).collect();
        let out = SvdBatch::new(GeSvd::new().nb(4))
            .threads(2)
            .batch_deadline(Duration::ZERO)
            .solve_all(&inputs);
        assert!(out
            .iter()
            .all(|r| matches!(r, Err(Error::DeadlineExceeded { .. }))));
    }

    #[test]
    fn tall_random() {
        check(&rand_mat(30, 12, 102), "tall30x12");
        check(&rand_mat(25, 24, 103), "tall25x24");
    }

    #[test]
    fn two_stage_matches_one_stage() {
        for (n, nb, seed) in [(24, 4, 108), (37, 5, 109), (48, 8, 110)] {
            let a = rand_mat(n, n, seed);
            let one = GeSvd::new().method(SvdMethod::OneStage).solve(&a).unwrap();
            for sched in [
                Stage2Exec::Serial,
                Stage2Exec::Static(3),
                Stage2Exec::Dynamic(4),
            ] {
                let two = GeSvd::new()
                    .method(SvdMethod::TwoStage)
                    .nb(nb)
                    .scheduler(sched)
                    .solve(&a)
                    .unwrap();
                assert!(
                    norms::eigenvalue_distance(&one.s, &two.s) < 1e-9,
                    "n={n} nb={nb} {sched:?}: singular values disagree"
                );
                assert!(
                    svd_residual(&a, &two) < 500.0,
                    "n={n} nb={nb} {sched:?}: two-stage residual {}",
                    svd_residual(&a, &two)
                );
                assert!(norms::orthogonality(&two.u) < 200.0);
                assert!(norms::orthogonality(&two.v) < 200.0);
            }
        }
    }

    #[test]
    fn two_stage_reconstruction_bound() {
        // U Sigma V^T must reconstruct A to the same scaled bound on
        // both pipelines.
        let n = 40;
        let a = rand_mat(n, n, 111);
        let one = GeSvd::new().method(SvdMethod::OneStage).solve(&a).unwrap();
        let two = GeSvd::new()
            .method(SvdMethod::TwoStage)
            .nb(6)
            .solve(&a)
            .unwrap();
        let r1 = svd_residual(&a, &one);
        let r2 = svd_residual(&a, &two);
        assert!(r1 < 500.0 && r2 < 500.0, "residuals {r1} {r2}");
    }

    #[test]
    fn values_only_skips_vectors() {
        let a = rand_mat(26, 26, 112);
        let full = gesvd(&a).unwrap();
        let vals = GeSvd::new()
            .method(SvdMethod::TwoStage)
            .nb(4)
            .vectors(false)
            .solve(&a)
            .unwrap();
        assert_eq!(vals.u.cols(), 0);
        assert!(norms::eigenvalue_distance(&full.s, &vals.s) < 1e-10);
    }

    #[test]
    fn screening_rejects_nan_with_location() {
        let mut a = rand_mat(8, 8, 113);
        a[(5, 2)] = f64::NAN;
        match gesvd(&a) {
            Err(Error::InvalidData { row: 5, col: 2, .. }) => {}
            other => panic!("wrong screening result: {other:?}"),
        }
    }

    #[test]
    fn extreme_scaling_recovered() {
        // Norm far outside the safe window: the driver scales in, solves,
        // and rescales the singular values back.
        let n = 12;
        let a0 = rand_mat(n, n, 114);
        let mut a = a0.clone();
        scale_matrix(&mut a, 1e-290);
        let svd = gesvd(&a).unwrap();
        assert!(svd.diagnostics.scaled_by.is_some());
        let want = oracle_svals(&a0);
        let got: Vec<f64> = svd.s.iter().map(|s| s * 1e290).collect();
        assert!(
            norms::eigenvalue_distance(&got, &want) < 1e-6,
            "rescaled singular values off:\n got {got:?}\nwant {want:?}"
        );
    }

    #[test]
    fn verify_populates_report() {
        let a = rand_mat(16, 16, 115);
        let svd = GeSvd::new().verify(VerifyLevel::Full).solve(&a).unwrap();
        let rep = svd.diagnostics.verify.expect("verify requested");
        assert!(rep.residual < 500.0 && rep.orthogonality < 200.0);
    }

    #[test]
    fn plan_reuse_matches_fresh() {
        let mut plan = SvdPlan::new();
        let drv = GeSvd::new().method(SvdMethod::TwoStage).nb(4);
        for seed in [116, 117, 118] {
            let a = rand_mat(21, 21, seed);
            let with_plan = drv.solve_with_plan(&a, &mut plan).unwrap();
            let fresh = drv.solve(&a).unwrap();
            assert_eq!(with_plan.s, fresh.s, "plan reuse changed the result");
        }
        assert!(plan.footprint_bytes() > 0);
    }

    #[test]
    fn rank_deficient() {
        // Outer product: rank 2.
        let x = rand_mat(18, 2, 104);
        let y = rand_mat(12, 2, 105);
        let a = x.multiply(&y.transpose()).unwrap();
        let svd = gesvd(&a).unwrap();
        assert!(
            svd.s[2] < 1e-10 * svd.s[0].max(1.0),
            "rank not detected: {:?}",
            svd.s
        );
        assert!(svd_residual(&a, &svd) < 500.0);
    }

    #[test]
    fn known_singular_values() {
        // diag(5, 3, 1) embedded: exact singular values.
        let mut a = Matrix::zeros(5, 3);
        a[(0, 0)] = 5.0;
        a[(1, 1)] = -3.0; // sign flips into U
        a[(2, 2)] = 1.0;
        let svd = gesvd(&a).unwrap();
        assert!((svd.s[0] - 5.0).abs() < 1e-12);
        assert!((svd.s[1] - 3.0).abs() < 1e-12);
        assert!((svd.s[2] - 1.0).abs() < 1e-12);
        assert!(svd_residual(&a, &svd) < 100.0);
    }

    #[test]
    fn section_4_1_flop_ratio() {
        // Paper §4.1: the SVD bidiagonalization costs ~2x the symmetric
        // tridiagonalization (8/3 vs 4/3 n^3) — verify by counters.
        let n = 120;
        let a = gen::random_symmetric(n, 106);
        let (_, c_brd) = tseig_kernels::flops::measure(|| {
            let mut m = a.clone();
            tseig_onestage::bidiagonal::gebrd(&mut m)
        });
        let (_, c_trd) =
            tseig_kernels::flops::measure(|| tseig_onestage::sytrd::sytrd(a.clone(), 32));
        let ratio = c_brd.total() as f64 / c_trd.total() as f64;
        assert!((1.4..2.6).contains(&ratio), "BRD/TRD flop ratio {ratio}");
    }

    #[test]
    fn empty_and_single_column() {
        let a = Matrix::zeros(4, 0);
        let svd = gesvd(&a).unwrap();
        assert!(svd.s.is_empty());
        let a = rand_mat(6, 1, 107);
        let svd = gesvd(&a).unwrap();
        let want: f64 = a.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((svd.s[0] - want).abs() < 1e-12);
    }
}
