//! Sturm-sequence counts and bisection eigenvalues (`stebz`).
//!
//! The bisection solver computes any index range of eigenvalues in
//! `O(n log(1/tol))` per eigenvalue, embarrassingly parallel over
//! eigenvalue indices (rayon). Together with inverse iteration it is this
//! repo's subset solver — the role MRRR plays in the paper's Figures
//! 4b/4d.

use rayon::prelude::*;
use tseig_matrix::chaos;
use tseig_matrix::diagnostics::{Recorder, Recovery};
use tseig_matrix::{Ctrl, Error, Result, SymTridiagonal};

/// Number of eigenvalues of `T` at most `x` (ties count), via the Sturm
/// (LDL^T inertia) recurrence with LAPACK `dstebz`'s pivot safeguard:
/// a pivot within `pivmin` of zero is treated as `-pivmin`, i.e. an
/// eigenvalue sitting exactly at `x` is counted.
pub fn sturm_count(t: &SymTridiagonal, x: f64) -> usize {
    let d = t.diag();
    let e = t.off_diag();
    let n = d.len();
    if n == 0 {
        return 0;
    }
    let max_e2 = e.iter().fold(1.0f64, |m, &v| m.max(v * v));
    let pivmin = f64::MIN_POSITIVE * max_e2;
    let mut count = 0usize;
    let mut q = d[0] - x;
    if q.abs() <= pivmin {
        q = -pivmin;
    }
    if q <= 0.0 {
        count += 1;
    }
    for i in 1..n {
        q = d[i] - x - e[i - 1] * e[i - 1] / q;
        if q.abs() <= pivmin {
            q = -pivmin;
        }
        if q <= 0.0 {
            count += 1;
        }
    }
    count
}

/// Eigenvalues with ascending indices `lo..hi` (half-open), each located
/// by bisection to near machine precision. Parallel over indices.
pub fn bisect_eigenvalues(t: &SymTridiagonal, lo: usize, hi: usize) -> Result<Vec<f64>> {
    bisect_with(t, lo, hi, &Recorder::new(), &Ctrl::NONE)
}

/// [`bisect_eigenvalues`] with a recovery recorder: a non-finite result
/// (which would silently poison every downstream eigenvector) is redone
/// once and recorded; a second failure becomes a structured error.
/// Polls `ctrl` at entry and per retried eigenvalue (the parallel
/// bisection itself is uninterruptible but bounded).
pub fn bisect_with(
    t: &SymTridiagonal,
    lo: usize,
    hi: usize,
    rec: &Recorder,
    ctrl: &Ctrl,
) -> Result<Vec<f64>> {
    let n = t.n();
    ctrl.checkpoint()?;
    if lo >= hi {
        return Ok(vec![]);
    }
    if hi > n {
        return Err(Error::InvalidArgument(format!(
            "eigenvalue index range {lo}..{hi} out of bounds for order {n}"
        )));
    }
    let (mut glo, mut ghi) = t.gershgorin_bounds();
    // Widen slightly so strict inequalities behave at the boundary, by
    // an amount relative to the spectrum's magnitude (LAPACK `dstebz`'s
    // `tnorm`): an absolute widening would swamp a spectrum far below 1.
    let tnorm = glo.abs().max(ghi.abs());
    glo -= 1e-12 * tnorm + f64::MIN_POSITIVE;
    ghi += 1e-12 * tnorm + f64::MIN_POSITIVE;

    let mut vals: Vec<f64> = (lo..hi)
        .into_par_iter()
        .map(|k| {
            let v = bisect_one(t, k, glo, ghi);
            if chaos::fire(chaos::Site::BisectNan) {
                f64::NAN
            } else {
                v
            }
        })
        .collect();
    for (i, v) in vals.iter_mut().enumerate() {
        if !v.is_finite() {
            ctrl.checkpoint()?;
            rec.record(Recovery::BisectionRetry { index: lo + i });
            *v = bisect_one(t, lo + i, glo, ghi);
            if !v.is_finite() {
                return Err(Error::NoConvergence {
                    index: lo + i,
                    iterations: 120,
                });
            }
        }
    }
    Ok(vals)
}

/// Locate eigenvalue with ascending index `k` (0-based) in `[glo, ghi]`.
fn bisect_one(t: &SymTridiagonal, k: usize, glo: f64, ghi: f64) -> f64 {
    let mut lo = glo;
    let mut hi = ghi;
    // Absolute tolerance relative to the spectrum scale.
    let tol = f64::EPSILON * (lo.abs().max(hi.abs()) + f64::MIN_POSITIVE);
    for _ in 0..120 {
        let mid = 0.5 * (lo + hi);
        if hi - lo <= 2.0 * tol || mid == lo || mid == hi {
            break;
        }
        // count < k+1  <=>  fewer than k+1 eigenvalues below mid  <=>
        // eigenvalue k is at or above mid.
        if sturm_count(t, mid) < k + 1 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    #[test]
    fn count_against_known_spectrum() {
        let n = 15;
        let t = gen::clement(n);
        let eig = gen::clement_eigenvalues(n); // -14, -12, ..., 14
        assert_eq!(sturm_count(&t, -100.0), 0);
        assert_eq!(sturm_count(&t, 100.0), n);
        // 0 is an exact eigenvalue of the odd Clement matrix: counting is
        // "at most x", so it flips across it.
        assert_eq!(sturm_count(&t, -1e-9), 7);
        assert_eq!(sturm_count(&t, 1e-9), 8);
        for (k, &l) in eig.iter().enumerate() {
            assert_eq!(sturm_count(&t, l - 1e-6), k, "below eigenvalue {k}");
            assert_eq!(sturm_count(&t, l + 1e-6), k + 1, "above eigenvalue {k}");
        }
    }

    #[test]
    fn count_monotone_in_x() {
        let t = gen::wilkinson(17);
        let (lo, hi) = t.gershgorin_bounds();
        let mut prev = 0;
        for i in 0..50 {
            let x = lo + (hi - lo) * i as f64 / 49.0;
            let c = sturm_count(&t, x);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn bisection_full_spectrum() {
        let n = 40;
        let t = gen::laplacian_1d(n);
        let vals = bisect_eigenvalues(&t, 0, n).unwrap();
        let exact = gen::laplacian_1d_eigenvalues(n);
        assert!(norms::eigenvalue_distance(&vals, &exact) < 1e-13);
    }

    #[test]
    fn bisection_subset_matches_full() {
        let n = 33;
        let t = gen::clement(n);
        let full = bisect_eigenvalues(&t, 0, n).unwrap();
        let sub = bisect_eigenvalues(&t, 10, 20).unwrap();
        assert!(norms::eigenvalue_distance(&sub, &full[10..20]) < 1e-13);
    }

    #[test]
    fn bisection_edge_cases() {
        let t = gen::laplacian_1d(5);
        assert!(bisect_eigenvalues(&t, 3, 3).unwrap().is_empty());
        assert!(bisect_eigenvalues(&t, 0, 6).is_err());
        let single = SymTridiagonal::new(vec![42.0], vec![]);
        let v = bisect_eigenvalues(&single, 0, 1).unwrap();
        assert!((v[0] - 42.0).abs() < 1e-10);
    }

    #[test]
    fn bisection_resolves_spectra_at_every_scale() {
        // diag(1..6) s: eigenvalues 2 s and 3 s, also far below 1, where
        // an absolute widening of the search interval left a bisection
        // tolerance of about 1e-28 and returned 2.2e-28 twice.
        for s in [1e-200, 1.4e-146, 1e-20, 1.0, 1e200] {
            let t = SymTridiagonal::new((1..=6).map(|i| i as f64 * s).collect(), vec![0.0; 5]);
            let v = bisect_eigenvalues(&t, 1, 3).unwrap();
            for (got, want) in v.iter().zip([2.0 * s, 3.0 * s]) {
                assert!(
                    (got - want).abs() <= 1e-13 * want,
                    "s = {s}: {got:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn wilkinson_close_pair_separated() {
        // Bisection resolves the famously close top pair of W21+.
        let t = gen::wilkinson(21);
        let v = bisect_eigenvalues(&t, 19, 21).unwrap();
        assert!(v[1] > v[0]);
        assert!(v[1] - v[0] < 1e-10); // genuinely close
    }
}
