//! Precomputed solve plans: every buffer the two-stage pipeline needs,
//! allocated once and reused across solves.
//!
//! [`SolvePlan`] is the allocation story of the driver turned inside
//! out: instead of each stage conjuring its scratch on entry (and
//! dropping it on exit), the plan owns the dense working copy, the band
//! store, the stage-2 reflector set, the tridiagonal solver state, the
//! back-transform diamonds and the result slots, and the stages carve
//! from it. Buffers whose lifetimes do not overlap are shared: the
//! divide & conquer solve uses the dead stage-1 working copy as its
//! merge region. A warmed-up plan (one solve of the target size) runs the
//! entire serial pipeline — stage 1, bulge chase, QR tridiagonal solve,
//! fused back-transform — without touching the heap; see
//! [`SymmetricEigen::solve_into`](crate::SymmetricEigen::solve_into)
//! for the exact conditions.
//!
//! Sizing is first-class: [`SymmetricEigen::plan_req`](crate::SymmetricEigen::plan_req)
//! composes every stage's `*_req` function into one [`MemReq`](tseig_matrix::workspace::MemReq), and
//! [`SolvePlan::footprint_bytes`] reports what a plan actually retains,
//! so tests can pin `footprint <= req` — the buffers never quietly
//! outgrow their advertised requirement (the failure mode the pack
//! buffers had before their shrink policy).

use crate::backtransform::BtPlan;
use crate::stage1::{BandForm, Stage1Ws};
use crate::stage2::{Stage2Schedule, Stage2Ws, V2Set};
use tseig_matrix::diagnostics::SolveDiagnostics;
use tseig_matrix::{Matrix, SymBandMatrix, SymTridiagonal};
use tseig_tridiag::dandc::StedcWs;
use tseig_tridiag::{PhaseTimings, TridiagWs};

use crate::driver::TwoStageResult;

/// All storage of one two-stage eigensolve, reusable across solves.
///
/// Create once with [`SolvePlan::new`], pass to
/// [`SymmetricEigen::solve_into`](crate::SymmetricEigen::solve_into)
/// repeatedly; every buffer warms up to the problem size on the first
/// solve and is reused (capacity-retaining, exact-reservation) on the
/// next. Results are read through the accessors or moved out with
/// [`SolvePlan::take_result`].
#[derive(Default)]
pub struct SolvePlan {
    /// Scaled copy of the input when its norm falls outside the safe
    /// window (rare; empty on the paved road).
    pub(crate) scaled: Matrix,
    /// Stage-1 dense working copy (overwritten by the reduction). Dead
    /// once stage 1 has written the band form, so the divide & conquer
    /// solve borrows it as its merge region.
    pub(crate) work: Matrix,
    /// Stage-1 output: band matrix + `Q1` panel reflectors.
    pub(crate) bf: BandForm,
    /// Stage-1 QR / rank-2k scratch.
    pub(crate) s1: Stage1Ws,
    /// Stage-2 working band (the chase reduces it in place).
    pub(crate) band: SymBandMatrix,
    /// Stage-2 output: the `Q2` reflector set.
    pub(crate) v2: V2Set,
    /// Stage-2 kernel scratch.
    pub(crate) s2: Stage2Ws,
    /// The tridiagonal matrix produced by the chase.
    pub(crate) tri: SymTridiagonal,
    /// Cached static-scheduler task list + wait lists; rebuilt only when
    /// `(n, bandwidth, threads)` changes.
    pub(crate) sched: Option<Stage2Schedule>,
    /// Tridiagonal QR solver state (planned full-spectrum path).
    pub(crate) td: TridiagWs,
    /// Divide & conquer row panels and index arrays (planned
    /// full-spectrum path).
    pub(crate) dc: StedcWs,
    /// Back-transform diamonds and panel scratch.
    pub(crate) bt: BtPlan,
    /// Final eigenvalues (ascending, rescaled).
    pub(crate) evals: Vec<f64>,
    /// Final eigenvectors; meaningful iff `has_vectors`.
    pub(crate) evecs: Matrix,
    pub(crate) has_vectors: bool,
    pub(crate) timings: PhaseTimings,
    pub(crate) diagnostics: SolveDiagnostics,
}

impl SolvePlan {
    /// An empty plan; buffers warm up on the first solve.
    pub fn new() -> Self {
        SolvePlan::default()
    }

    /// Ascending eigenvalues of the last solve.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.evals
    }

    /// Eigenvectors of the last solve, if they were requested.
    pub fn eigenvectors(&self) -> Option<&Matrix> {
        self.has_vectors.then_some(&self.evecs)
    }

    /// Phase wall-times of the last solve.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// Robustness diagnostics of the last solve.
    pub fn diagnostics(&self) -> &SolveDiagnostics {
        &self.diagnostics
    }

    /// Move the last solve's results out as an owned [`TwoStageResult`].
    /// The result buffers go cold (the next solve re-reserves them); all
    /// internal scratch stays warm.
    pub fn take_result(&mut self) -> TwoStageResult {
        TwoStageResult {
            eigenvalues: std::mem::take(&mut self.evals),
            eigenvectors: self.has_vectors.then(|| std::mem::take(&mut self.evecs)),
            timings: std::mem::take(&mut self.timings),
            diagnostics: std::mem::take(&mut self.diagnostics),
        }
    }

    /// Clone the last solve's results into an owned [`TwoStageResult`],
    /// leaving the plan's buffers warm.
    pub fn to_result(&self) -> TwoStageResult {
        TwoStageResult {
            eigenvalues: self.evals.clone(),
            eigenvectors: self.has_vectors.then(|| self.evecs.clone()),
            timings: self.timings,
            diagnostics: self.diagnostics.clone(),
        }
    }

    /// Fill the output slots for the trivial orders (`n <= 1`) that skip
    /// the pipeline.
    pub(crate) fn set_trivial(&mut self, evals: Vec<f64>, evecs: Option<Matrix>) {
        self.evals = evals;
        self.has_vectors = evecs.is_some();
        self.evecs = evecs.unwrap_or_default();
        self.timings = PhaseTimings::default();
        self.diagnostics = SolveDiagnostics::default();
    }

    /// Total `f64` heap capacity retained by the plan's buffers, in
    /// bytes. Compare against
    /// [`SymmetricEigen::plan_req`](crate::SymmetricEigen::plan_req):
    /// after any number of same-size solves the footprint must not
    /// exceed the advertised requirement. (Scheduler bookkeeping —
    /// task and wait lists of integers — is excluded, as is the
    /// thread-local GEMM pack storage, which
    /// [`tseig_kernels::blas3::engine::pack_req`] accounts separately.)
    pub fn footprint_bytes(&self) -> usize {
        self.scaled.capacity_bytes()
            + self.work.capacity_bytes()
            + self.bf.capacity_bytes()
            + self.s1.capacity_bytes()
            + self.band.capacity_bytes()
            + self.v2.capacity_bytes()
            + self.s2.capacity_bytes()
            + self.tri.capacity_bytes()
            + self.td.capacity_bytes()
            + self.dc.capacity_bytes()
            + self.bt.capacity_bytes()
            + self.evals.capacity() * std::mem::size_of::<f64>()
            + self.evecs.capacity_bytes()
    }
}
