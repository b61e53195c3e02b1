//! Phase timing shared by both eigensolver pipelines.
//!
//! The paper's Figure 1 reports the *percentage of total time* spent in
//! the three phases of a full eigensolve — reduction to tridiagonal,
//! tridiagonal eigensolve, eigenvector back-transformation — for the
//! one-stage and two-stage pipelines. Both drivers fill this struct, so
//! every solve result carries its own split ([`PhaseTimings::percentages`]);
//! the ledger's traced run reports the same split as `*.share`.

use std::time::Duration;

/// Wall-clock time of each eigensolver phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Reduction to tridiagonal form. For the two-stage pipeline this is
    /// the sum of [`Self::stage1`] and [`Self::stage2`].
    pub reduction: Duration,
    /// Two-stage only: dense -> band.
    pub stage1: Duration,
    /// Two-stage only: band -> tridiagonal (bulge chasing).
    pub stage2: Duration,
    /// Eigensolve of the tridiagonal matrix ("Eig of T").
    pub tridiag_solve: Duration,
    /// Back-transformation of the eigenvectors ("Update Z"), i.e. the
    /// application of Q1 (and Q2 for the two-stage pipeline).
    pub backtransform: Duration,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.reduction + self.tridiag_solve + self.backtransform
    }

    /// `(reduction, solve, backtransform)` as percentages of the total —
    /// the three bars of the paper's Figure 1.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let tot = self.total().as_secs_f64();
        if tot == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.reduction.as_secs_f64() / tot,
            100.0 * self.tridiag_solve.as_secs_f64() / tot,
            100.0 * self.backtransform.as_secs_f64() / tot,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_hundred() {
        let t = PhaseTimings {
            reduction: Duration::from_millis(60),
            tridiag_solve: Duration::from_millis(30),
            backtransform: Duration::from_millis(10),
            ..Default::default()
        };
        let (a, b, c) = t.percentages();
        assert!((a + b + c - 100.0).abs() < 1e-9);
        assert!((a - 60.0).abs() < 1e-9);
    }

    #[test]
    fn zero_total_is_safe() {
        let t = PhaseTimings::default();
        assert_eq!(t.percentages(), (0.0, 0.0, 0.0));
    }
}
