//! Batched driver: stream many eigenproblems through a shared worker
//! pool, each worker reusing one [`SolvePlan`].
//!
//! The point of the plan layer is amortization, and a batch is where it
//! pays: every worker allocates its pipeline buffers once and then
//! solves request after request allocation-free (same-size requests on
//! the serial planned path; mixed sizes grow the plan to the largest
//! request and stay there). Failures are isolated — a matrix that is
//! non-symmetric, non-finite, or even panics a kernel produces an `Err`
//! in its own slot while the rest of the batch completes normally.
//!
//! On top of isolation sits *lifecycle governance* (DESIGN.md §13):
//! per-request and whole-batch deadlines, memory admission control
//! (requests whose [`SymmetricEigen::plan_req`] footprint exceeds the
//! configured [`MemBudget`] are rejected *before* any allocation), and a
//! stuck-worker watchdog that cancels a request whose progress
//! heartbeat stops advancing, quarantines the worker's plan, and lets
//! the worker rebuild and carry on with the rest of its stream.

use crate::driver::{SymmetricEigen, TwoStageResult};
use crate::generalized::{solve_generalized_with_plan, GenPlan};
use crate::plan::SolvePlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tseig_matrix::{CancelToken, Ctrl, Deadline, Error, Matrix, MemBudget, Result};

/// Worker pool that solves a slice of eigenproblems with per-worker
/// [`SolvePlan`] reuse.
///
/// ```
/// use tseig_core::{BatchDriver, SymmetricEigen};
/// use tseig_matrix::gen;
/// let inputs: Vec<_> = (0..4).map(|s| gen::random_symmetric(24, s)).collect();
/// let results = BatchDriver::new(SymmetricEigen::new().nb(6)).solve_all(&inputs);
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
#[derive(Clone, Debug)]
pub struct BatchDriver {
    eigen: SymmetricEigen,
    threads: usize,
    deadline: Option<Duration>,
    batch_deadline: Option<Duration>,
    mem_budget: Option<MemBudget>,
    watchdog: Option<Duration>,
}

impl BatchDriver {
    /// Batch over the given solver configuration; workers default to the
    /// machine's available parallelism.
    pub fn new(eigen: SymmetricEigen) -> Self {
        BatchDriver {
            eigen,
            threads: 0,
            deadline: None,
            batch_deadline: None,
            mem_budget: None,
            watchdog: None,
        }
    }

    /// Number of concurrent workers (the queue depth: at most this many
    /// requests are in flight). `0` = available parallelism; `1` = a
    /// single worker streaming the whole batch through one plan.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Wall budget for each individual request, measured from the moment
    /// a worker claims it (queue time does not count against it).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Wall budget for the whole batch, measured from submission. A
    /// request claimed late runs under `min(per-request budget, batch
    /// time remaining)` — queue time eats into the batch budget, so a
    /// batch never blows through its deadline by the length of one more
    /// request.
    pub fn batch_deadline(mut self, d: Duration) -> Self {
        self.batch_deadline = Some(d);
        self
    }

    /// Bytes ceiling per request: a request whose
    /// [`SymmetricEigen::plan_req`] footprint exceeds the budget is
    /// rejected with [`Error::BudgetExceeded`] *before* any allocation.
    pub fn mem_budget(mut self, b: MemBudget) -> Self {
        self.mem_budget = Some(b);
        self
    }

    /// Stuck-worker watchdog: a request whose checkpoint heartbeat does
    /// not advance for this long is cancelled cooperatively, its
    /// worker's plan quarantined (rebuilt before the next claim), and
    /// the event counted in [`PoolEvents::stuck`].
    pub fn watchdog(mut self, heartbeat: Duration) -> Self {
        self.watchdog = Some(heartbeat);
        self
    }

    fn worker_count(&self, jobs: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        t.clamp(1, jobs.max(1))
    }

    /// Admission check for an order-`n` request: its plan footprint
    /// against the configured memory budget. Pure arithmetic — performs
    /// no allocation, so a rejection costs nothing. `Ok` when no budget
    /// is configured.
    pub fn admit(&self, n: usize) -> Result<()> {
        match self.mem_budget {
            Some(b) => b.admit(self.eigen.plan_req(n).total_bytes()),
            None => Ok(()),
        }
    }

    fn governance(&self) -> Governance {
        Governance {
            per_request: self.deadline,
            batch: self.batch_deadline.map(Deadline::new),
            watchdog: self.watchdog,
        }
    }

    /// Solve every input; `results[i]` corresponds to `inputs[i]`
    /// regardless of completion order. One bad matrix yields an `Err` in
    /// its slot and nothing else.
    pub fn solve_all(&self, inputs: &[Matrix]) -> Vec<Result<TwoStageResult>> {
        self.solve_all_governed(inputs).0
    }

    /// [`BatchDriver::solve_all`] plus the pool's lifecycle event
    /// counts (watchdog detections and post-quarantine rescues).
    pub fn solve_all_governed(
        &self,
        inputs: &[Matrix],
    ) -> (Vec<Result<TwoStageResult>>, PoolEvents) {
        self.pool_map(
            inputs,
            SolvePlan::new,
            |a| self.admit(a.rows()).map(|()| a),
            |a, plan, ctrl| {
                self.eigen.clone().ctrl(ctrl.clone()).solve_into(a, plan)?;
                Ok(plan.take_result())
            },
            |_, r| r,
        )
    }

    /// Solve every generalized pencil `A x = lambda B x` (symmetric `A`,
    /// SPD `B`), `results[i]` for `inputs[i]`, with the same isolation
    /// guarantees as [`BatchDriver::solve_all`]: each worker streams its
    /// requests through one `GenPlan`, and a breakdown (indefinite `B`,
    /// poisoned entries, a panicking kernel) fails only its own slot.
    pub fn solve_all_generalized(
        &self,
        inputs: &[(Matrix, Matrix)],
    ) -> Vec<Result<TwoStageResult>> {
        self.solve_all_generalized_governed(inputs).0
    }

    /// [`BatchDriver::solve_all_generalized`] plus pool lifecycle event
    /// counts.
    pub fn solve_all_generalized_governed(
        &self,
        inputs: &[(Matrix, Matrix)],
    ) -> (Vec<Result<TwoStageResult>>, PoolEvents) {
        self.pool_map(
            inputs,
            GenPlan::new,
            |p| self.admit(p.0.rows()).map(|()| p),
            |(a, b), plan, ctrl| {
                solve_generalized_with_plan(a, b, &self.eigen.clone().ctrl(ctrl.clone()), plan)
            },
            |_, r| r,
        )
    }

    /// The worker pool behind every batch entry point, open to any job,
    /// plan and output type. Workers claim jobs in order from an atomic
    /// counter, each owning one plan (`new_plan`) for its whole stream;
    /// `outputs[i]` belongs to `jobs[i]` whatever the completion order.
    /// Every job runs three phases on the worker that claims it:
    ///
    /// - `prepare` parses and admits the job. It runs before the
    ///   request's [`Ctrl`] exists, so it is outside the deadline and
    ///   the watchdog window.
    /// - `solve` runs under the request's [`Ctrl`]: a fresh token, the
    ///   effective deadline `min(per-request, batch remaining)` and the
    ///   worker's heartbeat. It is the only phase governance sees.
    /// - `finish` turns the job and its result into the output and
    ///   never fails.
    ///
    /// A panic in `prepare` or `solve` fails its own job with
    /// [`Error::Runtime`]. A worker whose solve panicked rebuilds its
    /// plan at once; one whose request the watchdog cancelled
    /// quarantines the plan (an unwound or wedged solve may have left it
    /// half-written) and rebuilds it before its next solve, and
    /// completing that solve counts as a rescue.
    pub fn pool_map<'a, J, Q, P, R, E, O>(
        &self,
        jobs: &'a [J],
        new_plan: impl Fn() -> P + Sync,
        prepare: impl Fn(&'a J) -> std::result::Result<Q, E> + Sync,
        solve: impl Fn(Q, &mut P, &Ctrl) -> std::result::Result<R, E> + Sync,
        finish: impl Fn(&'a J, std::result::Result<R, E>) -> O + Sync,
    ) -> (Vec<O>, PoolEvents)
    where
        J: Sync,
        E: From<Error>,
        O: Send,
    {
        let workers = self.worker_count(jobs.len());
        let gov = self.governance();
        let prepare_job = |j: &'a J| {
            catch_unwind(AssertUnwindSafe(|| prepare(j)))
                .unwrap_or_else(|p| Err(panic_error("request preparation", p).into()))
        };
        let solve_job = |q: Q, plan: &mut P, ctrl: &Ctrl| {
            catch_unwind(AssertUnwindSafe(|| solve(q, plan, ctrl))).unwrap_or_else(|p| {
                *plan = new_plan();
                Err(panic_error("solver", p).into())
            })
        };
        if workers <= 1 && !gov.armed() {
            let mut plan = new_plan();
            let outputs = jobs
                .iter()
                .map(|j| {
                    finish(
                        j,
                        prepare_job(j).and_then(|q| solve_job(q, &mut plan, &Ctrl::NONE)),
                    )
                })
                .collect();
            return (outputs, PoolEvents::default());
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<O>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        let views: Vec<WorkerView> = (0..workers).map(|_| WorkerView::new()).collect();
        let done = AtomicBool::new(false);
        let stuck = AtomicUsize::new(0);
        let rescues = AtomicUsize::new(0);
        let flops = tseig_kernels::flops::scope();
        std::thread::scope(|s| {
            // Shadow everything the `move` closures need as references:
            // scoped threads may only borrow locals declared before the
            // scope, and loop/map locals (`view`, `interval`) force `move`.
            let (next, slots, rescues_ref, gov, new_plan, prepare_job, solve_job, finish, flops) = (
                &next,
                &slots,
                &rescues,
                &gov,
                &new_plan,
                &prepare_job,
                &solve_job,
                &finish,
                &flops,
            );
            let handles: Vec<_> = views
                .iter()
                .map(|view| {
                    s.spawn(move || {
                        let _charged = flops.enter();
                        let mut plan = new_plan();
                        let mut generation = 0u64;
                        let mut quarantined = false;
                        // tidy: allow(checkpoint-loop) -- governance runs per claim (prepare + request_ctrl); the solve polls its own ctrl
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                break;
                            }
                            let r = prepare_job(&jobs[i]).and_then(|q| {
                                let (ctrl, token) = gov.request_ctrl(&view.hb)?;
                                if quarantined {
                                    plan = new_plan();
                                }
                                generation += 1;
                                view.set(Some((generation, token.clone())));
                                let r = solve_job(q, &mut plan, &ctrl);
                                view.set(None);
                                // A cancelled token here can only be the
                                // watchdog's doing (nobody else holds it):
                                // the solve unwound mid-phase, so the plan
                                // is suspect until rebuilt.
                                if token.is_cancelled() {
                                    quarantined = true;
                                } else if quarantined && r.is_ok() {
                                    quarantined = false;
                                    rescues_ref.fetch_add(1, Ordering::Relaxed);
                                }
                                r
                            });
                            let out = finish(&jobs[i], r);
                            *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                        }
                    })
                })
                .collect();
            let (views_ref, done_ref, stuck_ref) = (&views, &done, &stuck);
            let wd = gov.watchdog.map(|interval| {
                s.spawn(move || watchdog_loop(views_ref, interval, done_ref, stuck_ref))
            });
            for h in handles {
                let _ = h.join();
            }
            done.store(true, Ordering::Release);
            if let Some(h) = wd {
                let _ = h.join();
            }
        });
        let outputs = slots
            .into_iter()
            .zip(jobs)
            .map(|(m, j)| {
                // Every claimed index writes its slot before the scope
                // ends; an empty slot means the worker died mid-claim.
                m.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .unwrap_or_else(|| {
                        let e =
                            Error::Runtime("worker exited before writing its result slot".into());
                        finish(j, Err(e.into()))
                    })
            })
            .collect();
        let events = PoolEvents {
            stuck: stuck.load(Ordering::Relaxed),
            rescues: rescues.load(Ordering::Relaxed),
        };
        (outputs, events)
    }
}

/// Lifecycle events observed by the pool while a batch ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolEvents {
    /// Watchdog detections: requests whose heartbeat went stale past the
    /// configured interval and were cancelled cooperatively.
    pub stuck: usize,
    /// Workers that completed a later request cleanly on a rebuilt plan
    /// after a watchdog quarantine — the pool healed instead of losing
    /// the worker's whole stream.
    pub rescues: usize,
}

/// Per-batch governance, resolved once at submission. The batch deadline
/// starts its clock here, so time spent queued behind other requests
/// counts against it.
struct Governance {
    per_request: Option<Duration>,
    batch: Option<Deadline>,
    watchdog: Option<Duration>,
}

impl Governance {
    fn armed(&self) -> bool {
        self.per_request.is_some() || self.batch.is_some() || self.watchdog.is_some()
    }

    /// The control for one request claimed now: fresh token, effective
    /// deadline `min(per-request, batch remaining)`, shared heartbeat.
    /// `Err` when the batch budget is already spent — the request fails
    /// without running.
    fn request_ctrl(&self, hb: &Arc<AtomicU64>) -> Result<(Ctrl, CancelToken)> {
        let mut budget = self.per_request;
        if let Some(b) = &self.batch {
            if b.expired() {
                return Err(Error::DeadlineExceeded {
                    elapsed: b.elapsed(),
                    budget: b.budget(),
                });
            }
            let rem = b.remaining();
            budget = Some(budget.map_or(rem, |d| d.min(rem)));
        }
        let token = CancelToken::new();
        let mut ctrl = Ctrl::new()
            .with_cancel(token.clone())
            .with_heartbeat(hb.clone());
        if let Some(d) = budget {
            ctrl = ctrl.with_deadline(Deadline::new(d));
        }
        Ok((ctrl, token))
    }
}

/// What the watchdog sees of one worker: its heartbeat counter (shared
/// with the in-flight request's [`Ctrl`]) and the token of the request
/// currently running, tagged with a generation so a stale observation
/// never cancels the *next* request.
struct WorkerView {
    hb: Arc<AtomicU64>,
    inflight: Mutex<Option<(u64, CancelToken)>>,
}

impl WorkerView {
    fn new() -> WorkerView {
        WorkerView {
            hb: Arc::new(AtomicU64::new(0)),
            inflight: Mutex::new(None),
        }
    }

    fn set(&self, entry: Option<(u64, CancelToken)>) {
        *self.inflight.lock().unwrap_or_else(|p| p.into_inner()) = entry;
    }

    fn get(&self) -> Option<(u64, CancelToken)> {
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// One watchdog observation per worker: what generation/heartbeat we
/// last saw and when it last moved.
#[derive(Clone, Copy)]
struct Observed {
    generation: u64,
    beat: u64,
    since: Instant,
}

/// Watchdog loop: sample every worker's heartbeat a few times per
/// interval; a worker whose in-flight request keeps the same generation
/// while its heartbeat stays flat for a full interval is wedged between
/// checkpoints — cancel its token (once) and count it. Purely
/// cooperative: the worker unwinds at its next poll, and the chaos
/// stall loop breaks on the same token.
fn watchdog_loop(views: &[WorkerView], interval: Duration, done: &AtomicBool, stuck: &AtomicUsize) {
    // Stuck detection compares observation timestamps against the full
    // interval, so the tick only sets the sampling (and shutdown-latency)
    // granularity: cap it so a generous interval cannot hold the batch
    // join hostage for seconds after the last worker finishes.
    let tick = (interval / 4).clamp(Duration::from_millis(1), Duration::from_millis(10));
    let mut seen: Vec<Option<Observed>> = vec![None; views.len()];
    // tidy: allow(checkpoint-loop) -- the watchdog is the governor: it polls worker heartbeats, not a Ctrl
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now = Instant::now();
        for (view, slot) in views.iter().zip(seen.iter_mut()) {
            let Some((generation, token)) = view.get() else {
                *slot = None;
                continue;
            };
            let beat = view.hb.load(Ordering::Relaxed);
            let fresh = Observed {
                generation,
                beat,
                since: now,
            };
            match slot {
                Some(o) if o.generation == generation && o.beat == beat => {
                    if now.duration_since(o.since) >= interval && !token.is_cancelled() {
                        token.cancel();
                        stuck.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => *slot = Some(fresh),
            }
        }
    }
}

fn panic_error(phase: &str, payload: Box<dyn std::any::Any + Send>) -> Error {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    Error::Runtime(format!("{phase} panicked: {msg}"))
}

/// Scalar element type of one batch request — the `--scalar` axis of
/// `tseig batch`. Real requests (`F32`/`F64`) solve through this crate's
/// f64 pipeline; complex ones (`C32`/`C64`) through `tseig-hermitian`.
/// The discriminant doubles as the index into
/// [`BatchSummary::by_scalar`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScalarTag {
    F32 = 0,
    #[default]
    F64 = 1,
    C32 = 2,
    C64 = 3,
}

impl ScalarTag {
    /// All tags, in `by_scalar` index order.
    pub const ALL: [ScalarTag; 4] = [
        ScalarTag::F32,
        ScalarTag::F64,
        ScalarTag::C32,
        ScalarTag::C64,
    ];

    /// Parse the CLI / JSONL spelling.
    pub fn parse(s: &str) -> Option<ScalarTag> {
        match s {
            "f32" => Some(ScalarTag::F32),
            "f64" => Some(ScalarTag::F64),
            "c32" => Some(ScalarTag::C32),
            "c64" => Some(ScalarTag::C64),
            _ => None,
        }
    }

    /// The canonical spelling (what goes back out in JSONL).
    pub fn name(self) -> &'static str {
        match self {
            ScalarTag::F32 => "f32",
            ScalarTag::F64 => "f64",
            ScalarTag::C32 => "c32",
            ScalarTag::C64 => "c64",
        }
    }
}

/// Aggregate view of a finished batch (what `tseig batch` prints).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchSummary {
    /// Number of requests.
    pub total: usize,
    /// Requests that produced a result on the paved road.
    pub clean: usize,
    /// Requests that produced a result through a recovery path
    /// (fallback taken or norm scaling applied).
    pub degraded: usize,
    /// Requests that returned an error.
    pub failed: usize,
    /// Per-scalar-type request counts, indexed by [`ScalarTag`]
    /// discriminant (mixed-type batches tag each request individually).
    pub by_scalar: [usize; 4],
    /// Requests that ran out of their wall budget
    /// ([`Error::DeadlineExceeded`]); a subset of `failed`.
    pub deadline_exceeded: usize,
    /// Watchdog detections — see [`PoolEvents::stuck`].
    pub stuck_workers: usize,
    /// Post-quarantine recoveries — see [`PoolEvents::rescues`].
    pub worker_rescues: usize,
    /// Wall time of the whole batch, if the caller measured it.
    pub wall: Duration,
}

impl BatchSummary {
    /// Fold a result slice (and optional wall time) into counts. Every
    /// request is tagged [`ScalarTag::F64`]; mixed-type callers build
    /// the summary with [`BatchSummary::record`] instead.
    pub fn of(results: &[Result<TwoStageResult>], wall: Duration) -> BatchSummary {
        let mut s = BatchSummary {
            wall,
            ..BatchSummary::default()
        };
        for r in results {
            if let Err(Error::DeadlineExceeded { .. }) = r {
                s.deadline_exceeded += 1;
            }
            s.record(
                ScalarTag::F64,
                r.as_ref().map(|t| t.diagnostics.is_clean()).map_err(|_| ()),
            );
        }
        s
    }

    /// Fold the pool's lifecycle events into the summary.
    pub fn with_events(mut self, ev: PoolEvents) -> BatchSummary {
        self.stuck_workers = ev.stuck;
        self.worker_rescues = ev.rescues;
        self
    }

    /// Count one request of the given element type: `Ok(true)` clean,
    /// `Ok(false)` degraded, `Err(())` failed. The typed entry point for
    /// mixed-type batches whose complex requests solve outside
    /// [`BatchDriver`].
    pub fn record(&mut self, tag: ScalarTag, outcome: std::result::Result<bool, ()>) {
        self.total += 1;
        self.by_scalar[tag as usize] += 1;
        match outcome {
            Ok(true) => self.clean += 1,
            Ok(false) => self.degraded += 1,
            Err(()) => self.failed += 1,
        }
    }

    /// `"f32:0 f64:3 c32:1 c64:2"` — the per-type counts as one
    /// printable token list.
    pub fn scalar_counts(&self) -> String {
        ScalarTag::ALL
            .iter()
            .map(|t| format!("{}:{}", t.name(), self.by_scalar[*t as usize]))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::gen;

    fn bitwise_eq(a: &TwoStageResult, b: &TwoStageResult) {
        assert_eq!(a.eigenvalues, b.eigenvalues);
        match (&a.eigenvectors, &b.eigenvectors) {
            (Some(x), Some(y)) => assert_eq!(x.as_slice(), y.as_slice()),
            (None, None) => {}
            _ => panic!("vector presence differs"),
        }
    }

    #[test]
    fn batch_matches_one_at_a_time_bitwise() {
        let inputs: Vec<Matrix> = (0..6)
            .map(|s| gen::random_symmetric(20 + 4 * (s as usize % 3), 900 + s))
            .collect();
        let eigen = SymmetricEigen::new().nb(5);
        let sequential: Vec<_> = inputs.iter().map(|a| eigen.solve(a).unwrap()).collect();
        for threads in [1, 3] {
            let batch = BatchDriver::new(eigen.clone())
                .threads(threads)
                .solve_all(&inputs);
            for (b, s) in batch.iter().zip(&sequential) {
                bitwise_eq(b.as_ref().unwrap(), s);
            }
        }
    }

    #[test]
    fn one_bad_matrix_does_not_abort_the_batch() {
        let mut inputs: Vec<Matrix> = (0..4).map(|s| gen::random_symmetric(16, s)).collect();
        inputs[2][(3, 3)] = f64::NAN;
        let results = BatchDriver::new(SymmetricEigen::new().nb(4))
            .threads(2)
            .solve_all(&inputs);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert!(results[2].is_err());
        assert!(results[3].is_ok());
    }

    #[test]
    fn generalized_batch_matches_one_at_a_time_bitwise() {
        let pencils: Vec<(Matrix, Matrix)> = (0..5)
            .map(|s| {
                let n = 16 + 4 * (s as usize % 2);
                let a = gen::random_symmetric(n, 300 + s);
                let b = gen::symmetric_with_spectrum(&gen::linspace(1.0, 4.0, n), 400 + s);
                (a, b)
            })
            .collect();
        let eigen = SymmetricEigen::new().nb(4);
        let sequential: Vec<_> = pencils
            .iter()
            .map(|(a, b)| crate::generalized::solve_generalized(a, b, &eigen).unwrap())
            .collect();
        for threads in [1, 3] {
            let batch = BatchDriver::new(eigen.clone())
                .threads(threads)
                .solve_all_generalized(&pencils);
            for (r, s) in batch.iter().zip(&sequential) {
                bitwise_eq(r.as_ref().unwrap(), s);
            }
        }
    }

    #[test]
    fn one_indefinite_pencil_fails_alone() {
        let mut pencils: Vec<(Matrix, Matrix)> = (0..4)
            .map(|s| {
                (
                    gen::random_symmetric(12, 500 + s),
                    gen::symmetric_with_spectrum(&gen::linspace(1.0, 2.0, 12), 600 + s),
                )
            })
            .collect();
        pencils[1].1[(5, 5)] = -50.0; // drives B indefinite
        let results = BatchDriver::new(SymmetricEigen::new().nb(4))
            .threads(2)
            .solve_all_generalized(&pencils);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert!(results[3].is_ok());
    }

    #[test]
    fn summary_counts() {
        let mut inputs: Vec<Matrix> = (0..3).map(|s| gen::random_symmetric(12, 70 + s)).collect();
        inputs[1][(0, 0)] = f64::INFINITY;
        let results = BatchDriver::new(SymmetricEigen::new().nb(4)).solve_all(&inputs);
        let s = BatchSummary::of(&results, Duration::from_millis(1));
        assert_eq!((s.total, s.failed), (3, 1));
        assert_eq!(s.clean + s.degraded, 2);
        // `of` tags everything f64.
        assert_eq!(s.by_scalar, [0, 3, 0, 0]);
    }

    #[test]
    fn mixed_type_recording() {
        let mut s = BatchSummary::default();
        s.record(ScalarTag::C32, Ok(true));
        s.record(ScalarTag::C64, Ok(false));
        s.record(ScalarTag::F32, Err(()));
        s.record(ScalarTag::F64, Ok(true));
        assert_eq!((s.total, s.clean, s.degraded, s.failed), (4, 2, 1, 1));
        assert_eq!(s.by_scalar, [1, 1, 1, 1]);
        assert_eq!(s.scalar_counts(), "f32:1 f64:1 c32:1 c64:1");
        // Tag spellings round-trip.
        for t in ScalarTag::ALL {
            assert_eq!(ScalarTag::parse(t.name()), Some(t));
        }
        assert_eq!(ScalarTag::parse("f16"), None);
    }

    #[test]
    fn empty_batch() {
        let results = BatchDriver::new(SymmetricEigen::new()).solve_all(&[]);
        assert!(results.is_empty());
    }

    #[test]
    fn mem_budget_rejects_only_the_oversized_request() {
        let eigen = SymmetricEigen::new().nb(4);
        let inputs = vec![
            gen::random_symmetric(12, 1),
            gen::random_symmetric(48, 2), // over budget
            gen::random_symmetric(12, 3),
        ];
        // Admit order 12, reject order 48.
        let limit = eigen.plan_req(12).total_bytes();
        assert!(eigen.plan_req(48).total_bytes() > limit);
        for threads in [1, 2] {
            let driver = BatchDriver::new(eigen.clone())
                .threads(threads)
                .mem_budget(MemBudget::bytes(limit));
            let (results, ev) = driver.solve_all_governed(&inputs);
            assert!(results[0].is_ok());
            assert!(matches!(
                results[1],
                Err(Error::BudgetExceeded { need, limit: l })
                    if need == eigen.plan_req(48).total_bytes() && l == limit
            ));
            assert!(results[2].is_ok());
            assert_eq!(ev, PoolEvents::default());
        }
    }

    #[test]
    fn zero_deadline_fails_every_request_structurally() {
        let inputs: Vec<Matrix> = (0..3).map(|s| gen::random_symmetric(16, 40 + s)).collect();
        // Per-request budget of zero: the first checkpoint reports it.
        let results = BatchDriver::new(SymmetricEigen::new().nb(4))
            .threads(1)
            .deadline(Duration::ZERO)
            .solve_all(&inputs);
        for r in &results {
            assert!(matches!(r, Err(Error::DeadlineExceeded { .. })), "{r:?}");
        }
        // Batch budget of zero: requests fail at claim, before running.
        let results = BatchDriver::new(SymmetricEigen::new().nb(4))
            .threads(2)
            .batch_deadline(Duration::ZERO)
            .solve_all(&inputs);
        for r in &results {
            assert!(matches!(r, Err(Error::DeadlineExceeded { .. })), "{r:?}");
        }
        let s = BatchSummary::of(&results, Duration::ZERO);
        assert_eq!((s.failed, s.deadline_exceeded), (3, 3));
    }

    #[test]
    fn governed_results_match_ungoverned_bitwise() {
        // Generous budgets: governance is armed (per-request ctrl,
        // watchdog running) but never trips, and the numbers must be
        // bit-identical to the ungoverned run.
        let inputs: Vec<Matrix> = (0..4).map(|s| gen::random_symmetric(20, 50 + s)).collect();
        let eigen = SymmetricEigen::new().nb(5);
        let plain = BatchDriver::new(eigen.clone())
            .threads(2)
            .solve_all(&inputs);
        let (governed, ev) = BatchDriver::new(eigen)
            .threads(2)
            .deadline(Duration::from_secs(600))
            .batch_deadline(Duration::from_secs(3600))
            .mem_budget(MemBudget::bytes(usize::MAX))
            .watchdog(Duration::from_secs(600))
            .solve_all_governed(&inputs);
        assert_eq!(ev, PoolEvents::default());
        for (p, g) in plain.iter().zip(&governed) {
            bitwise_eq(p.as_ref().unwrap(), g.as_ref().unwrap());
        }
    }

    #[test]
    fn summary_with_events() {
        let s = BatchSummary::default().with_events(PoolEvents {
            stuck: 2,
            rescues: 1,
        });
        assert_eq!((s.stuck_workers, s.worker_rescues), (2, 1));
    }
}
