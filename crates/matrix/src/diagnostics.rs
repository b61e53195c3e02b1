//! Solve-time diagnostics: what the robustness layer did on the way to
//! an answer.
//!
//! The drivers (`tseig-core`, `tseig-hermitian`) thread a [`Recorder`]
//! through every phase; phases that absorb a failure (a convergence cap,
//! a poisoned value, a panicked worker) append a [`Recovery`] event
//! instead of dying. The driver folds the events into a
//! [`SolveDiagnostics`] returned alongside the result, so a caller can
//! distinguish a clean solve from one that took a fallback path —
//! LAPACK's `INFO` code, but with a story attached.

use crate::{Ctrl, Result};
use std::fmt;
use std::sync::Mutex;

/// A failure the fallback ladder absorbed.
#[derive(Clone, Debug, PartialEq)]
pub enum Recovery {
    /// The scheduled stage-2 execution failed (e.g. a worker panicked);
    /// the bulge chase was re-run on the serial path.
    SchedulerFallback { error: String },
    /// A D&C merge produced a non-finite value (secular-equation
    /// breakdown); the subproblem of the given order was re-solved by QR
    /// iteration.
    DcFallbackToQr { size: usize },
    /// QR iteration hit its cap at eigenvalue `index` of a subproblem of
    /// the given order; bisection + inverse iteration took over.
    QrFallbackToBisection { index: usize, size: usize },
    /// Inverse iteration needed `attempts` extra perturbed-shift attempts
    /// for eigenvector `index` (LAPACK `DSTEIN`-style retries).
    InverseIterationRetry { index: usize, attempts: usize },
    /// Bisection returned a non-finite value for eigenvalue `index` and
    /// the bisection was redone.
    BisectionRetry { index: usize },
    /// Cholesky factorization of the pencil's `B` broke down (non-positive
    /// pivot); the factorization was retried with `B + shift*I` after
    /// `attempts` escalations. The pencil solved is a perturbation of the
    /// input, so the solve is flagged degraded.
    CholeskyShiftRetry { shift: f64, attempts: usize },
    /// The pencil's `B` looked ill-conditioned (estimated `kappa(B)` —
    /// the squared diagonal spread of its Cholesky factor `L` — beyond
    /// `1/sqrt(eps)`); the transformed matrix `C = L^-1 A L^-T` was
    /// explicitly re-symmetrized before the standard solve.
    PencilSymmetrized { cond: f64 },
    /// The bidiagonal QR (`bdsqr`) hit its iteration cap; the bidiagonal
    /// was perturbed at machine precision and the sweep re-run.
    BdsqrPerturbedRetry { index: usize },
}

impl fmt::Display for Recovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Recovery::SchedulerFallback { error } => {
                write!(f, "stage-2 scheduler failed ({error}); re-ran serially")
            }
            Recovery::DcFallbackToQr { size } => {
                write!(f, "D&C merge broke down at order {size}; re-solved by QR")
            }
            Recovery::QrFallbackToBisection { index, size } => write!(
                f,
                "QR hit its iteration cap at eigenvalue {index} (order {size}); \
                 fell back to bisection + inverse iteration"
            ),
            Recovery::InverseIterationRetry { index, attempts } => write!(
                f,
                "inverse iteration retried eigenvector {index} with {attempts} \
                 perturbed shift(s)"
            ),
            Recovery::BisectionRetry { index } => {
                write!(f, "bisection redone for non-finite eigenvalue {index}")
            }
            Recovery::CholeskyShiftRetry { shift, attempts } => write!(
                f,
                "Cholesky breakdown on B; refactored with B + {shift:.3e} I \
                 after {attempts} attempt(s)"
            ),
            Recovery::PencilSymmetrized { cond } => write!(
                f,
                "ill-conditioned pencil (estimated kappa(B) {cond:.3e}); \
                 C = L^-1 A L^-T explicitly re-symmetrized"
            ),
            Recovery::BdsqrPerturbedRetry { index } => write!(
                f,
                "bidiagonal QR hit its iteration cap at value {index}; \
                 retried from an eps-perturbed bidiagonal"
            ),
        }
    }
}

/// Post-solve verification measures, both in the scaled LAPACK form
/// where values of order 1–100 are healthy (see `norms`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// `max_i ||A v_i - lambda_i v_i||_inf / (||A||_1 n eps)`.
    pub residual: f64,
    /// `||V^T V - I||_max / (n eps)`; `0` when only
    /// [`VerifyLevel::Residual`] was requested.
    pub orthogonality: f64,
}

/// What a solve did beyond the happy path.
#[derive(Clone, Debug, Default)]
pub struct SolveDiagnostics {
    /// True when any fallback was taken (`recoveries` is non-empty).
    /// The answer still met its residual bound — it just cost more.
    pub degraded: bool,
    /// Recovery events in the order they were recorded.
    pub recoveries: Vec<Recovery>,
    /// Factor the input was multiplied by before reduction because its
    /// norm fell outside the safe window `[sqrt(smlnum), sqrt(bignum)]`;
    /// eigenvalues are rescaled back by `1/factor` on exit.
    pub scaled_by: Option<f64>,
    /// Verification measures when a [`VerifyLevel`] other than `Off` was
    /// requested and vectors were available.
    pub verify: Option<VerifyReport>,
}

impl SolveDiagnostics {
    /// Drain `rec` into a diagnostics value; `degraded` reflects whether
    /// any event was recorded.
    pub fn from_recorder(rec: &Recorder) -> SolveDiagnostics {
        let recoveries = rec.take();
        SolveDiagnostics {
            degraded: !recoveries.is_empty(),
            recoveries,
            scaled_by: None,
            verify: None,
        }
    }

    /// No fallback, no scaling: the solve ran the paved road end to end.
    pub fn is_clean(&self) -> bool {
        !self.degraded && self.scaled_by.is_none()
    }
}

impl fmt::Display for SolveDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "solve {}",
            if self.degraded { "degraded" } else { "clean" }
        )?;
        if let Some(s) = self.scaled_by {
            writeln!(f, "  input scaled by {s:.3e} (norm outside safe window)")?;
        }
        for r in &self.recoveries {
            writeln!(f, "  recovery: {r}")?;
        }
        if let Some(v) = self.verify {
            writeln!(
                f,
                "  verified: residual {:.1}, orthogonality {:.1} (scaled; <1000 passes)",
                v.residual, v.orthogonality
            )?;
        }
        Ok(())
    }
}

/// Opt-in post-solve verification depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyLevel {
    /// No verification (the default).
    #[default]
    Off,
    /// Check every eigenvalue is finite and ascending, and (with
    /// vectors) the per-column residual bound.
    Residual,
    /// `Residual` plus the `||V^T V - I||` orthogonality bound.
    Full,
}

/// Thread-safe recovery-event sink threaded through the solver phases.
///
/// Phases run under rayon and the task runtime, so recording must be
/// `Sync`; a poisoned lock (a panicking test thread) degrades to the
/// inner value rather than propagating the panic.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Recovery>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Append one recovery event.
    pub fn record(&self, r: Recovery) {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(r);
    }

    /// Finish a phase that may run on a scheduler: `scheduled` is the
    /// scheduled run's outcome, `None` when the serial path was chosen
    /// outright, and `serial` runs the phase serially. A failed scheduled
    /// run is re-run by `serial` and recorded as
    /// [`Recovery::SchedulerFallback`] — unless `ctrl` is armed: a cancel
    /// or expired deadline drains the scheduled pool and surfaces as such
    /// a failure, so the control's structured error is returned instead
    /// of spending what is left of the budget on a rerun. The rerun
    /// itself runs under `ctrl` too.
    pub fn or_serial<T>(
        &self,
        ctrl: &Ctrl,
        scheduled: Option<std::result::Result<T, String>>,
        serial: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        match scheduled {
            Some(Ok(done)) => Ok(done),
            Some(Err(error)) => {
                ctrl.checkpoint()?;
                self.record(Recovery::SchedulerFallback { error });
                serial()
            }
            None => serial(),
        }
    }

    /// Drain all recorded events (oldest first).
    pub fn take(&self) -> Vec<Recovery> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_in_order() {
        let rec = Recorder::new();
        assert!(rec.is_empty());
        rec.record(Recovery::BisectionRetry { index: 3 });
        rec.record(Recovery::DcFallbackToQr { size: 40 });
        let events = rec.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Recovery::BisectionRetry { index: 3 });
        assert!(rec.is_empty());
    }

    #[test]
    fn diagnostics_from_recorder_sets_degraded() {
        let rec = Recorder::new();
        let d = SolveDiagnostics::from_recorder(&rec);
        assert!(!d.degraded);
        assert!(d.is_clean());
        rec.record(Recovery::SchedulerFallback {
            error: "boom".into(),
        });
        let d = SolveDiagnostics::from_recorder(&rec);
        assert!(d.degraded);
        assert!(!d.is_clean());
        assert_eq!(d.recoveries.len(), 1);
    }

    #[test]
    fn display_mentions_every_event() {
        let d = SolveDiagnostics {
            degraded: true,
            recoveries: vec![
                Recovery::QrFallbackToBisection { index: 5, size: 20 },
                Recovery::InverseIterationRetry {
                    index: 2,
                    attempts: 1,
                },
            ],
            scaled_by: Some(1e-155),
            verify: Some(VerifyReport {
                residual: 12.0,
                orthogonality: 3.0,
            }),
        };
        let s = d.to_string();
        assert!(s.contains("degraded"));
        assert!(s.contains("scaled"));
        assert!(s.contains("bisection"));
        assert!(s.contains("perturbed shift"));
        assert!(s.contains("verified"));
    }
}
