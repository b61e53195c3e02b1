//! Deterministic fault injection through the SVD recovery ladder.
//!
//! Built only with `--features chaos` (see the `[[test]]` entry in
//! `crates/svd/Cargo.toml`). Same contract as the core ladder tests:
//! an injected failure either *recovers* — result within bounds, the
//! detour recorded in `SolveDiagnostics` — or surfaces as a structured
//! `Error`; no panic escapes the driver.

use std::sync::Mutex;
use std::time::Duration;
use tseig_matrix::chaos::{self, Plan, Site};
use tseig_matrix::diagnostics::Recovery;
use tseig_matrix::{norms, Ctrl, Deadline, Error, Matrix};
use tseig_svd::drivers::{svd_residual, GeSvd, Svd, SvdMethod};
use tseig_svd::gesvd;
use tseig_svd::stage2::Stage2Exec;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

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

fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
}

fn result_ok(a: &Matrix, svd: &Svd) {
    assert!(
        svd_residual(a, svd) < 500.0,
        "residual {}",
        svd_residual(a, svd)
    );
    assert!(norms::orthogonality(&svd.u) < 500.0);
    assert!(norms::orthogonality(&svd.v) < 500.0);
}

fn has<F: Fn(&Recovery) -> bool>(svd: &Svd, pred: F) -> bool {
    svd.diagnostics.recoveries.iter().any(pred)
}

/// An injected `bdsqr` iteration-cap failure is absorbed by the
/// perturbed retry on the one-stage pipeline.
#[test]
fn bdsqr_stall_recovers_one_stage() {
    let a = rand_mat(24, 20, 1);
    let plan = Plan::new().with(Site::BdsqrNoConv, 1);
    let svd = with_plan(plan, || {
        gesvd(&a).expect("perturbed retry must rescue bdsqr")
    });
    assert!(svd.diagnostics.degraded);
    assert!(
        has(&svd, |x| matches!(x, Recovery::BdsqrPerturbedRetry { .. })),
        "{:?}",
        svd.diagnostics.recoveries
    );
    result_ok(&a, &svd);
}

/// Same rung on the two-stage pipeline, under every scheduler.
#[test]
fn bdsqr_stall_recovers_two_stage() {
    for sched in [
        Stage2Exec::Serial,
        Stage2Exec::Static(3),
        Stage2Exec::Dynamic(4),
    ] {
        let a = rand_mat(26, 26, 2);
        let plan = Plan::new().with(Site::BdsqrNoConv, 1);
        let svd = with_plan(plan, || {
            GeSvd::new()
                .method(SvdMethod::TwoStage)
                .nb(4)
                .scheduler(sched)
                .solve(&a)
                .expect("perturbed retry must rescue bdsqr")
        });
        assert!(svd.diagnostics.degraded, "{sched:?}");
        assert!(
            has(&svd, |x| matches!(x, Recovery::BdsqrPerturbedRetry { .. })),
            "{sched:?}: {:?}",
            svd.diagnostics.recoveries
        );
        result_ok(&a, &svd);
    }
}

/// Two injected stalls exhaust the single retry: structured error, no
/// panic.
#[test]
fn bdsqr_double_stall_is_a_structured_error() {
    let a = rand_mat(16, 16, 3);
    let plan = Plan::new().with(Site::BdsqrNoConv, 2);
    let err = with_plan(plan, || {
        gesvd(&a).expect_err("exhausted retries must surface as an error")
    });
    assert!(
        matches!(err, Error::NoConvergence { .. }),
        "expected NoConvergence, got {err:?}"
    );
}

/// A worker panic inside the scheduled bulge chase falls back to the
/// serial chase and is recorded.
#[test]
fn chase_task_panic_falls_back_to_serial() {
    let a = rand_mat(30, 30, 4);
    let plan = Plan::new().with(Site::TaskPanic, 1);
    let svd = with_plan(plan, || {
        GeSvd::new()
            .method(SvdMethod::TwoStage)
            .nb(4)
            .scheduler(Stage2Exec::Dynamic(4))
            .solve(&a)
            .expect("serial fallback must rescue the chase")
    });
    if chaos::reached(Site::TaskPanic) > 0 {
        assert!(
            has(&svd, |x| matches!(x, Recovery::SchedulerFallback { .. })),
            "{:?}",
            svd.diagnostics.recoveries
        );
        assert!(svd.diagnostics.degraded);
    }
    result_ok(&a, &svd);
}

/// The serial rerun after a scheduled-chase panic runs under the
/// request's control: a deadline that expires during the rerun surfaces
/// as `DeadlineExceeded` at the rerun's next sweep, instead of the rerun
/// ignoring it and stalling to completion.
#[test]
fn deadline_expiring_in_the_serial_rerun_is_honoured() {
    let (n, nb) = (30, 4);
    let a = rand_mat(n, n, 5);
    // Checkpoints before the chase: the driver's admission checkpoint
    // plus those of stage 1 (counted on a probe). The next one is the
    // fallback's own check; the stall is armed a few sweeps into the
    // rerun after it. `skip` also delays the task panic, so the panic
    // fires on a later task of the scheduled chase.
    let stage1 = with_plan(Plan::new(), || {
        tseig_svd::stage1::ge2bb_with(&a, nb, 0, &Ctrl::NONE).unwrap();
        chaos::reached(Site::Stall { ticks: 0 })
    });
    let stall_at = 1 + stage1 + 1 + 5;
    assert!(
        stall_at < tseig_svd::stage2::chase_task_specs(n, nb).len() as u64,
        "the skipped task panic must still fire"
    );
    let budget = Duration::from_millis(200);
    let plan = Plan::new()
        .with(Site::TaskPanic, 1)
        .with(Site::Stall { ticks: 5_000 }, 1)
        .skip(stall_at);
    let (err, panics, stalls) = with_plan(plan, || {
        let err = GeSvd::new()
            .method(SvdMethod::TwoStage)
            .nb(nb)
            .scheduler(Stage2Exec::Dynamic(2))
            .ctrl(Ctrl::new().with_deadline(Deadline::new(budget)))
            .solve(&a)
            .expect_err("the stalled rerun must run out of budget");
        (
            err,
            chaos::reached(Site::TaskPanic),
            chaos::reached(Site::Stall { ticks: 0 }),
        )
    });
    assert!(panics > stall_at, "the scheduled chase must have panicked");
    assert!(stalls > stall_at, "the rerun must have reached the stall");
    match err {
        Error::DeadlineExceeded { elapsed, budget: b } => {
            assert_eq!(b, budget);
            // Honoured at the stalled checkpoint: the overshoot is one
            // checkpoint interval, not the 5 s stall.
            assert!(
                elapsed < budget + Duration::from_millis(1_000),
                "deadline ignored by the rerun: {elapsed:?}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

/// One poisoned request in a stream of solves degrades alone: the other
/// requests come out clean (the ladder does not leak state across
/// solves).
#[test]
fn single_poisoned_solve_degrades_alone() {
    let inputs: Vec<Matrix> = (0..4).map(|s| rand_mat(18, 18, 50 + s)).collect();
    let plan = Plan::new().with(Site::BdsqrNoConv, 1);
    let results: Vec<Svd> = with_plan(plan, || {
        inputs
            .iter()
            .map(|a| gesvd(a).expect("no request may fail outright"))
            .collect()
    });
    let mut degraded = 0usize;
    for (a, svd) in inputs.iter().zip(&results) {
        result_ok(a, svd);
        if svd.diagnostics.degraded {
            degraded += 1;
            assert!(has(svd, |x| matches!(
                x,
                Recovery::BdsqrPerturbedRetry { .. }
            )));
        }
    }
    assert_eq!(degraded, 1, "exactly the injected failure degrades");
}
