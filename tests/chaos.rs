//! Deterministic fault injection through the whole recovery ladder.
//!
//! Built only with `--features chaos` (see the `[[test]]` entry in
//! `crates/core/Cargo.toml`). Each test installs a [`chaos::Plan`],
//! runs a solve, and asserts the failure either *recovered* — residual
//! within the workspace bound and the detour recorded in
//! [`SolveDiagnostics`] — or surfaced as a structured [`Error`]. No
//! panic may escape `solve` in either case.
//!
//! The injection counters are process-global, so every test serialises
//! on [`CHAOS_LOCK`] and resets the plan before releasing it.

use std::sync::Mutex;
use tseig_core::{Recovery, Scheduler, SolvePlan, SymmetricEigen, TwoStageResult};
use tseig_matrix::chaos::{self, Plan, Site};
use tseig_matrix::{gen, norms, Error, Matrix};
use tseig_tridiag::{EigenRange, Method};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with `plan` installed, serialised against other chaos tests,
/// and always reset the global plan afterwards (even if `f` asserts).
fn with_plan<T>(plan: Plan, f: impl FnOnce() -> T) -> T {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    struct ResetOnDrop;
    impl Drop for ResetOnDrop {
        fn drop(&mut self) {
            chaos::reset();
        }
    }
    let _reset = ResetOnDrop;
    chaos::install(plan);
    f()
}

fn residual_ok(a: &Matrix, r: &TwoStageResult) {
    let z = r.eigenvectors.as_ref().expect("vectors");
    let res = norms::eigen_residual(a, &r.eigenvalues, z);
    let orth = norms::orthogonality(z);
    assert!(res < 500.0, "residual {res}");
    assert!(orth < 500.0, "orthogonality {orth}");
}

fn has<F: Fn(&Recovery) -> bool>(r: &TwoStageResult, pred: F) -> bool {
    r.diagnostics.recoveries.iter().any(pred)
}

/// The acceptance-criteria run: one solve absorbs a task panic, a NaN
/// in the secular solver, and a QR convergence failure, and still
/// produces a correct (degraded) answer.
#[test]
fn full_ladder_in_one_solve_dynamic() {
    let a = gen::symmetric_with_spectrum(&gen::linspace(-2.0, 2.0, 80), 11);
    let plan = Plan::new()
        .with(Site::TaskPanic, 1)
        .with(Site::SecularNan, 1)
        .with(Site::QrNoConv, 1);
    let r = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(8)
            .scheduler(Scheduler::Dynamic(4))
            .method(Method::DivideAndConquer)
            .solve(&a)
            .expect("ladder must recover, not fail")
    });
    assert!(r.diagnostics.degraded);
    assert!(
        has(&r, |x| matches!(x, Recovery::SchedulerFallback { .. })),
        "task panic must fall back to the serial stage-2 schedule: {:?}",
        r.diagnostics.recoveries
    );
    assert!(
        has(&r, |x| matches!(x, Recovery::DcFallbackToQr { .. })),
        "secular NaN must re-solve the subproblem by QR: {:?}",
        r.diagnostics.recoveries
    );
    assert!(
        has(&r, |x| matches!(x, Recovery::QrFallbackToBisection { .. })),
        "QR stall must fall back to bisection: {:?}",
        r.diagnostics.recoveries
    );
    residual_ok(&a, &r);
}

/// The default vector solve runs the planned D&C, which merges in the
/// plan's stage-1 working copy and writes into its result slots. A NaN
/// secular root there must be re-solved by QR, and must leave nothing
/// behind: the next solve on the same plan is bitwise a fresh plan's.
#[test]
fn planned_dc_recovers_a_secular_nan_and_leaves_no_stale_state() {
    let n = 120;
    let a = gen::random_symmetric(n, 31);
    let b = gen::random_symmetric(n, 32);
    for scheduler in [Scheduler::Serial, Scheduler::Static(2)] {
        let eigen = SymmetricEigen::new().nb(8).scheduler(scheduler);
        let mut plan = SolvePlan::new();
        let (r, next, fresh) = with_plan(Plan::new().with(Site::SecularNan, 1), || {
            eigen
                .solve_into(&a, &mut plan)
                .expect("ladder must recover, not fail");
            let r = plan.to_result();
            chaos::reset();
            eigen.solve_into(&b, &mut plan).expect("clean solve");
            let fresh = eigen.solve(&b).expect("clean solve");
            (r, plan.to_result(), fresh)
        });
        assert!(
            has(&r, |x| matches!(x, Recovery::DcFallbackToQr { .. })),
            "{scheduler:?}: secular NaN must re-solve the subproblem by QR: {:?}",
            r.diagnostics.recoveries
        );
        residual_ok(&a, &r);
        assert!(next.diagnostics.is_clean(), "{scheduler:?}");
        assert_eq!(next.eigenvalues, fresh.eigenvalues, "{scheduler:?}");
        assert_eq!(
            next.eigenvectors.as_ref().expect("vectors").as_slice(),
            fresh.eigenvectors.as_ref().expect("vectors").as_slice(),
            "{scheduler:?}"
        );
    }
}

#[test]
fn task_panic_recovers_under_static_work_stealing() {
    let a = gen::symmetric_with_spectrum(&gen::linspace(-1.0, 3.0, 64), 12);
    let plan = Plan::new().with(Site::TaskPanic, 1);
    let r = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(8)
            .scheduler(Scheduler::Static(4))
            .solve(&a)
            .expect("recovered solve")
    });
    // Whether the static schedule routed through the task runtime (and
    // hit the injection) or not, the solve must succeed; if the panic
    // fired, it must be visible as a recorded recovery.
    if chaos::reached(Site::TaskPanic) > 0 {
        assert!(has(&r, |x| matches!(x, Recovery::SchedulerFallback { .. })));
        assert!(r.diagnostics.degraded);
    }
    residual_ok(&a, &r);
}

#[test]
fn inverse_iteration_retries_on_injected_stall() {
    let a = gen::symmetric_with_spectrum(&gen::linspace(-1.0, 1.0, 32), 13);
    let plan = Plan::new().with(Site::SteinNoConv, 1);
    let r = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(4)
            .method(Method::BisectionInverse)
            .solve(&a)
            .expect("retry must rescue inverse iteration")
    });
    assert!(
        has(&r, |x| matches!(
            x,
            Recovery::InverseIterationRetry { attempts, .. } if *attempts >= 1
        )),
        "{:?}",
        r.diagnostics.recoveries
    );
    assert!(r.diagnostics.degraded);
    residual_ok(&a, &r);
}

#[test]
fn inverse_iteration_exhaustion_is_a_structured_error() {
    let a = gen::symmetric_with_spectrum(&gen::linspace(-1.0, 1.0, 24), 14);
    // Three injected stalls exhaust the retry budget for one vector.
    let plan = Plan::new().with(Site::SteinNoConv, 3);
    let err = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(4)
            .method(Method::BisectionInverse)
            .solve(&a)
            .expect_err("exhausted retries must surface as an error")
    });
    assert!(
        matches!(err, Error::NoConvergence { .. }),
        "expected NoConvergence, got {err:?}"
    );
}

#[test]
fn bisection_retries_on_injected_nan() {
    let a = gen::symmetric_with_spectrum(&gen::linspace(0.0, 5.0, 28), 15);
    let plan = Plan::new().with(Site::BisectNan, 1);
    let r = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(4)
            .method(Method::BisectionInverse)
            .solve(&a)
            .expect("bisection retry must recover")
    });
    assert!(
        has(&r, |x| matches!(x, Recovery::BisectionRetry { .. })),
        "{:?}",
        r.diagnostics.recoveries
    );
    residual_ok(&a, &r);
}

#[test]
fn qr_method_falls_back_to_bisection() {
    let lambda = gen::linspace(-3.0, 3.0, 40);
    let a = gen::symmetric_with_spectrum(&lambda, 16);
    let plan = Plan::new().with(Site::QrNoConv, 1);
    let r = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(6)
            .method(Method::Qr)
            .solve(&a)
            .expect("QR stall must fall back")
    });
    assert!(has(&r, |x| matches!(
        x,
        Recovery::QrFallbackToBisection { .. }
    )));
    assert!(norms::eigenvalue_distance(&r.eigenvalues, &lambda) < 1e-9);
    residual_ok(&a, &r);
}

#[test]
fn values_only_qr_stall_still_returns_the_spectrum() {
    let lambda = gen::linspace(-1.0, 4.0, 36);
    let a = gen::symmetric_with_spectrum(&lambda, 17);
    let plan = Plan::new().with(Site::QrNoConv, 1);
    let r = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(6)
            .vectors(false)
            .method(Method::Qr)
            .solve(&a)
            .expect("values-only fallback")
    });
    assert!(r.eigenvectors.is_none());
    assert!(has(&r, |x| matches!(
        x,
        Recovery::QrFallbackToBisection { .. }
    )));
    assert!(norms::eigenvalue_distance(&r.eigenvalues, &lambda) < 1e-9);
}

#[test]
fn values_only_subset_survives_bisection_nan() {
    // A values-only index range goes straight to bisection regardless of
    // the configured method — the injected NaN must trigger the retry.
    let a = gen::symmetric_with_spectrum(&gen::linspace(-2.0, 2.0, 30), 18);
    let plan = Plan::new().with(Site::BisectNan, 1);
    let r = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(4)
            .vectors(false)
            .range(EigenRange::Index(0, 6))
            .solve(&a)
            .expect("subset recovery")
    });
    assert_eq!(r.eigenvalues.len(), 6);
    assert!(has(&r, |x| matches!(x, Recovery::BisectionRetry { .. })));
}

#[test]
fn batch_isolates_an_injected_qr_failure() {
    // One forced convergence failure inside a batch: the hit request
    // degrades (QR -> bisection recovery), every other request stays
    // clean, and nothing aborts or errors.
    let plan = Plan::new().with(Site::QrNoConv, 1);
    let inputs: Vec<Matrix> = (0..4).map(|s| gen::random_symmetric(24, 60 + s)).collect();
    let results = with_plan(plan, || {
        tseig_core::BatchDriver::new(SymmetricEigen::new().nb(6).method(Method::Qr))
            .threads(1)
            .solve_all(&inputs)
    });
    let mut degraded = 0usize;
    for (a, r) in inputs.iter().zip(&results) {
        let r = r.as_ref().expect("no request may fail outright");
        residual_ok(a, r);
        if r.diagnostics.degraded {
            degraded += 1;
            assert!(has(r, |x| matches!(
                x,
                Recovery::QrFallbackToBisection { .. }
            )));
        }
    }
    assert_eq!(degraded, 1, "exactly the injected failure degrades");
}

#[test]
fn chol_breakdown_is_rescued_by_shift() {
    // An injected Cholesky breakdown on a perfectly good SPD B: the
    // driver reloads B with a diagonal shift, refactors (the chaos
    // budget is spent), and reports the detour.
    let n = 24;
    let a = gen::random_symmetric(n, 71);
    let b = gen::symmetric_with_spectrum(&gen::linspace(1.0, 3.0, n), 72);
    let plan = Plan::new().with(Site::CholBreakdown, 1);
    let r = with_plan(plan, || {
        tseig_core::solve_generalized(&a, &b, &SymmetricEigen::new().nb(6))
            .expect("shift retry must rescue the injected breakdown")
    });
    assert!(r.diagnostics.degraded);
    assert!(
        has(&r, |x| matches!(x, Recovery::CholeskyShiftRetry { .. })),
        "{:?}",
        r.diagnostics.recoveries
    );
    // The shift is O(n eps ||B||): the pencil residual must stay healthy.
    let x = r.eigenvectors.as_ref().expect("vectors");
    let res = tseig_core::generalized::generalized_residual(&a, &b, &r.eigenvalues, x);
    assert!(res < 500.0, "pencil residual {res}");
}

#[test]
fn chol_breakdown_exhausting_all_shifts_is_a_structured_error() {
    // Enough injected breakdowns to outlast every shift escalation: the
    // driver must surface the original structured error, not panic.
    let n = 16;
    let a = gen::random_symmetric(n, 73);
    let b = gen::symmetric_with_spectrum(&gen::linspace(1.0, 2.0, n), 74);
    let plan = Plan::new().with(Site::CholBreakdown, 4); // initial + 3 retries
    let r = with_plan(plan, || {
        tseig_core::solve_generalized(&a, &b, &SymmetricEigen::new().nb(4))
    });
    match r {
        Err(Error::InvalidArgument(msg)) => {
            assert!(msg.contains("positive definite"), "{msg}")
        }
        other => panic!("expected the Cholesky breakdown error, got {other:?}"),
    }
}

#[test]
fn gen_batch_isolates_an_injected_breakdown() {
    // A mixed batch of pencils with one injected Cholesky breakdown:
    // the hit request degrades through the shift rung, everything else
    // stays clean, and no request errors.
    let pencils: Vec<(Matrix, Matrix)> = (0..4)
        .map(|s| {
            (
                gen::random_symmetric(20, 80 + s),
                gen::symmetric_with_spectrum(&gen::linspace(1.0, 4.0, 20), 90 + s),
            )
        })
        .collect();
    // skip(2): requests 0 and 1 factor cleanly (one potrf tick each on a
    // single worker), request 2 takes the hit, its retry consumes tick 3.
    let plan = Plan::new().with(Site::CholBreakdown, 1).skip(2);
    let results = with_plan(plan, || {
        tseig_core::BatchDriver::new(SymmetricEigen::new().nb(5))
            .threads(1)
            .solve_all_generalized(&pencils)
    });
    let mut degraded = Vec::new();
    for (i, ((a, b), r)) in pencils.iter().zip(&results).enumerate() {
        let r = r.as_ref().expect("no request may fail outright");
        let x = r.eigenvectors.as_ref().expect("vectors");
        let res = tseig_core::generalized::generalized_residual(a, b, &r.eigenvalues, x);
        assert!(res < 500.0, "request {i}: pencil residual {res}");
        if r.diagnostics.degraded {
            degraded.push(i);
            assert!(has(r, |x| matches!(x, Recovery::CholeskyShiftRetry { .. })));
        }
    }
    assert_eq!(degraded, vec![2], "exactly the injected failure degrades");
}

// ---------------------------------------------------------------------
// Request-lifecycle governance under the injected stall.
// ---------------------------------------------------------------------

/// The watchdog regression: one worker wedges inside a checkpoint (the
/// injected stall never yields the heartbeat), the watchdog cancels it
/// cooperatively, and the pool keeps draining. Exactly one stuck-worker
/// detection and — because the quarantined worker then completes its
/// next request on a rebuilt plan — exactly one rescue.
#[test]
fn watchdog_cancels_a_stalled_worker_and_counts_the_rescue() {
    let inputs: Vec<Matrix> = (0..3).map(|s| gen::random_symmetric(24, 200 + s)).collect();
    // A stall far longer than the watchdog interval; it only ends when
    // the watchdog's cancel lands.
    let plan = Plan::new().with(Site::Stall { ticks: 60_000 }, 1);
    let (results, events) = with_plan(plan, || {
        tseig_core::BatchDriver::new(SymmetricEigen::new().nb(4))
            .threads(1)
            .watchdog(std::time::Duration::from_millis(40))
            .solve_all_governed(&inputs)
    });
    assert!(
        matches!(results[0], Err(Error::Cancelled)),
        "the stalled request must be cancelled by the watchdog: {:?}",
        results[0]
    );
    for (i, r) in results.iter().enumerate().skip(1) {
        let r = r.as_ref().expect("sibling requests must stay clean");
        residual_ok(&inputs[i], r);
    }
    assert_eq!(events.stuck, 1, "exactly one watchdog detection");
    assert_eq!(events.rescues, 1, "the quarantined worker must recover");
    let summary =
        tseig_core::BatchSummary::of(&results, std::time::Duration::ZERO).with_events(events);
    assert_eq!(
        (
            summary.stuck_workers,
            summary.worker_rescues,
            summary.failed
        ),
        (1, 1, 1)
    );
}

/// Batch isolation under a per-request deadline: the one stalled
/// request burns through its budget (virtual clock, so the assertion
/// never races real time) and fails structurally; every sibling result
/// is bitwise identical to an ungoverned run.
#[test]
fn stalled_request_exceeds_its_deadline_and_siblings_stay_bitwise_clean() {
    let inputs: Vec<Matrix> = (0..4).map(|s| gen::random_symmetric(24, 210 + s)).collect();
    let eigen = SymmetricEigen::new().nb(4).method(Method::Qr);
    // The baseline runs under an empty plan: outside the lock it could
    // consume a fault another test armed.
    let baseline: Vec<_> = with_plan(Plan::new(), || {
        inputs.iter().map(|a| eigen.solve(a).unwrap()).collect()
    });
    let budget = std::time::Duration::from_millis(50);
    let plan = Plan::new().with(Site::Stall { ticks: 60_000 }, 1);
    let (results, _) = with_plan(plan, || {
        tseig_core::BatchDriver::new(eigen.clone())
            .threads(1)
            .deadline(budget)
            .solve_all_governed(&inputs)
    });
    match &results[0] {
        Err(Error::DeadlineExceeded { elapsed, budget: b }) => {
            assert_eq!(*b, budget);
            assert!(*elapsed >= *b);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    for (i, r) in results.iter().enumerate().skip(1) {
        let r = r.as_ref().expect("sibling requests must stay clean");
        assert_eq!(
            r.eigenvalues, baseline[i].eigenvalues,
            "request {i}: eigenvalues drifted under governance"
        );
        assert_eq!(
            r.eigenvectors.as_ref().unwrap().as_slice(),
            baseline[i].eigenvectors.as_ref().unwrap().as_slice(),
            "request {i}: eigenvectors drifted under governance"
        );
    }
    let summary = tseig_core::BatchSummary::of(&results, std::time::Duration::ZERO);
    assert_eq!((summary.deadline_exceeded, summary.failed), (1, 1));
}

/// Deadline overshoot is bounded by one checkpoint interval: the stall
/// advances the virtual clock 1 ms per tick and the checkpoint breaks
/// out as soon as the budget is gone, so the reported `elapsed` lands
/// just past `budget` — nowhere near the 500 ms the uninterrupted stall
/// would have burned.
#[test]
fn deadline_overshoot_is_bounded_by_one_checkpoint_interval() {
    let a = gen::random_symmetric(24, 220);
    let budget = std::time::Duration::from_millis(30);
    let plan = Plan::new().with(Site::Stall { ticks: 500 }, 1);
    let err = with_plan(plan, || {
        SymmetricEigen::new()
            .nb(4)
            .ctrl(tseig_matrix::Ctrl::new().with_deadline(tseig_matrix::Deadline::new(budget)))
            .solve(&a)
            .expect_err("the stalled solve must run out of budget")
    });
    match err {
        Error::DeadlineExceeded { elapsed, budget: b } => {
            assert_eq!(b, budget);
            assert!(elapsed >= budget);
            assert!(
                elapsed <= budget + std::time::Duration::from_millis(100),
                "overshoot {elapsed:?} not bounded by a checkpoint interval"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}
