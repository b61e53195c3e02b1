//! Fault injection through the Hermitian drivers (`--features chaos`):
//! a task panic inside the dynamic stage-2 schedule must fall back to
//! the serial schedule and still deliver a correct, degraded result, and
//! an injected Cholesky breakdown of a pencil's `B` must be rescued by
//! the shift rung or, past every shift, surface as a structured error,
//! at C64 and C32.

use std::sync::Mutex;
use tseig_hermitian::generalized::{generalized_residual, solve_generalized};
use tseig_hermitian::{validate, HermScalar, HermitianEigen, Recovery, Scheduler};
use tseig_matrix::chaos::{self, Plan, Site};
use tseig_matrix::{norms, CMatrixG, Error, C32, C64};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn task_panic_falls_back_to_serial_stage2() {
    let lambda: Vec<f64> = (0..48).map(|i| i as f64 / 10.0).collect();
    let a = validate::hermitian_with_spectrum(&lambda, 21);
    let (r, reached) = with_plan(Plan::new().with(Site::TaskPanic, 1), || {
        let r = HermitianEigen::new()
            .nb(8)
            .scheduler(Scheduler::Dynamic(4))
            .solve(&a)
            .expect("panic must be absorbed by the serial fallback");
        (r, chaos::reached(Site::TaskPanic))
    });

    if reached > 0 {
        assert!(r.diagnostics.degraded);
        assert!(
            r.diagnostics
                .recoveries
                .iter()
                .any(|x| matches!(x, Recovery::SchedulerFallback { .. })),
            "{:?}",
            r.diagnostics.recoveries
        );
    }
    let z = r.eigenvectors.as_ref().expect("vectors");
    assert!(validate::hermitian_residual(&a, &r.eigenvalues, z) < 500.0);
    assert!(validate::unitary_error(z) < 500.0);
    assert!(norms::eigenvalue_distance(&r.eigenvalues, &lambda) < 1e-9);
}

/// Run `f` with `plan` armed, serialized against the other tests.
fn with_plan<R>(plan: Plan, f: impl FnOnce() -> R) -> R {
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

/// A random Hermitian `A` and a `B` with its spectrum in `[1, hi]`.
fn pencil<T: HermScalar>(n: usize, hi: f64, seed: u64) -> (CMatrixG<T>, CMatrixG<T>) {
    let spectrum: Vec<f64> = (0..n)
        .map(|i| 1.0 + (hi - 1.0) * i as f64 / (n - 1) as f64)
        .collect();
    let a = validate::rand_hermitian(n, seed);
    let b = validate::hermitian_with_spectrum(&spectrum, seed + 1);
    (CMatrixG::from_cmatrix(&a), CMatrixG::from_cmatrix(&b))
}

fn check_chol_breakdown_is_rescued_by_shift<T: HermScalar>() {
    // An injected Cholesky breakdown on a good HPD B: the driver reloads
    // B with a diagonal shift, refactors (the chaos budget is spent), and
    // reports the detour.
    let (a, b) = pencil::<T>(24, 3.0, 71);
    let r = with_plan(Plan::new().with(Site::CholBreakdown, 1), || {
        solve_generalized(&a, &b, &HermitianEigen::new().nb(6))
            .expect("shift retry must rescue the injected breakdown")
    });
    assert!(r.diagnostics.degraded);
    assert!(
        r.diagnostics
            .recoveries
            .iter()
            .any(|x| matches!(x, Recovery::CholeskyShiftRetry { .. })),
        "{:?}",
        r.diagnostics.recoveries
    );
    // The shift is O(n eps ||B||): the pencil residual must stay healthy.
    let x = r.eigenvectors.as_ref().expect("vectors");
    let res = generalized_residual(&a, &b, &r.eigenvalues, x);
    assert!(res < 500.0, "pencil residual {res}");
}

#[test]
fn chol_breakdown_is_rescued_by_shift_c64() {
    check_chol_breakdown_is_rescued_by_shift::<C64>();
}

#[test]
fn chol_breakdown_is_rescued_by_shift_c32() {
    check_chol_breakdown_is_rescued_by_shift::<C32>();
}

fn check_chol_breakdown_exhausting_all_shifts<T: HermScalar>() {
    // Enough injected breakdowns to outlast every shift escalation: the
    // driver must surface the original structured error, not panic.
    let (a, b) = pencil::<T>(16, 2.0, 73);
    let plan = Plan::new().with(Site::CholBreakdown, 4); // initial + 3 retries
    let r = with_plan(plan, || {
        solve_generalized(&a, &b, &HermitianEigen::new().nb(4))
    });
    match r {
        Err(Error::InvalidArgument(msg)) => {
            assert!(msg.contains("positive definite"), "{msg}")
        }
        other => panic!("expected the Cholesky breakdown error, got {other:?}"),
    }
}

#[test]
fn chol_breakdown_exhausting_all_shifts_is_a_structured_error_c64() {
    check_chol_breakdown_exhausting_all_shifts::<C64>();
}

#[test]
fn chol_breakdown_exhausting_all_shifts_is_a_structured_error_c32() {
    check_chol_breakdown_exhausting_all_shifts::<C32>();
}
