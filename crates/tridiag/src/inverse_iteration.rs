//! Inverse iteration for selected eigenvectors (`stein`).
//!
//! Given precomputed eigenvalues (from bisection), each eigenvector is
//! obtained by a few iterations of `(T - lambda I) x_{k+1} = x_k` using a
//! partially-pivoted tridiagonal LU solve, with modified Gram–Schmidt
//! reorthogonalization inside clusters of close eigenvalues. Cost is
//! `O(n)` per iteration per vector — the `O(n^2)`-class subset solver of
//! the paper's Figure 4d.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tseig_matrix::chaos;
use tseig_matrix::diagnostics::{Recorder, Recovery};
use tseig_matrix::{Ctrl, Error, Matrix, Result, SymTridiagonal};

/// Partially-pivoted LU of a (shifted) tridiagonal matrix, `dgttrf`-style.
struct TriLu {
    /// Diagonal of `U`.
    d: Vec<f64>,
    /// First super-diagonal of `U`.
    du: Vec<f64>,
    /// Second super-diagonal of `U` (pivoting fill-in).
    du2: Vec<f64>,
    /// Multipliers of `L`.
    dl: Vec<f64>,
    /// `swapped[i]` — rows `i`, `i+1` were exchanged at step `i`.
    swapped: Vec<bool>,
}

impl TriLu {
    /// Factor `T - lambda I`. Zero pivots are replaced by a tiny value —
    /// exactly what inverse iteration wants, since `T - lambda I` is
    /// nearly singular by construction.
    fn factor(t: &SymTridiagonal, lambda: f64) -> TriLu {
        let n = t.n();
        let mut d: Vec<f64> = t.diag().iter().map(|&x| x - lambda).collect();
        let mut du: Vec<f64> = t.off_diag().to_vec();
        let mut dl: Vec<f64> = t.off_diag().to_vec();
        let mut du2 = vec![0.0f64; n.saturating_sub(2)];
        let mut swapped = vec![false; n.saturating_sub(1)];
        // Zero pivots become a small *relative* quantity: the solve then
        // grows by ~1/(eps ||T||) — large (inverse iteration converges in
        // one step) but comfortably finite.
        let tiny = f64::EPSILON * (1.0 + t.norm1());
        for i in 0..n.saturating_sub(1) {
            if d[i].abs() >= dl[i].abs() {
                // No row exchange.
                let piv = if d[i] != 0.0 { d[i] } else { tiny };
                d[i] = piv;
                let fact = dl[i] / piv;
                dl[i] = fact;
                d[i + 1] -= fact * du[i];
            } else {
                // Exchange rows i and i+1.
                let fact = d[i] / dl[i];
                d[i] = dl[i];
                dl[i] = fact;
                let temp = du[i];
                du[i] = d[i + 1];
                d[i + 1] = temp - fact * d[i + 1];
                if i + 2 < n {
                    du2[i] = du[i + 1];
                    du[i + 1] *= -fact;
                }
                swapped[i] = true;
            }
        }
        if n > 0 && d[n - 1] == 0.0 {
            d[n - 1] = tiny;
        }
        TriLu {
            d,
            du,
            du2,
            dl,
            swapped,
        }
    }

    /// Solve `(T - lambda I) x = b` in place.
    fn solve(&self, b: &mut [f64]) {
        let n = self.d.len();
        // Forward: apply L^{-1} P.
        for i in 0..n.saturating_sub(1) {
            if self.swapped[i] {
                b.swap(i, i + 1);
            }
            b[i + 1] -= self.dl[i] * b[i];
        }
        // Back substitution with U.
        if n == 0 {
            return;
        }
        b[n - 1] /= self.d[n - 1];
        if n >= 2 {
            b[n - 2] = (b[n - 2] - self.du[n - 2] * b[n - 1]) / self.d[n - 2];
        }
        for i in (0..n.saturating_sub(2)).rev() {
            b[i] = (b[i] - self.du[i] * b[i + 1] - self.du2[i] * b[i + 2]) / self.d[i];
        }
    }
}

/// Extra shifted-solve attempts per eigenvector before reporting
/// failure, each from a freshly perturbed shift (LAPACK `DSTEIN`'s
/// `EXTRA`-retry idea).
const MAX_ATTEMPTS: usize = 3;

/// Inverse-iteration steps per attempt.
const MAX_ITS: usize = 5;

/// Compute eigenvectors for the given (ascending) eigenvalues by inverse
/// iteration. Returns an `n x k` matrix whose column `j` pairs with
/// `lambda[j]`.
pub fn stein(t: &SymTridiagonal, lambda: &[f64]) -> Result<Matrix> {
    stein_with(t, lambda, &Recorder::new(), &Ctrl::NONE)
}

/// [`stein`] with a recovery recorder: an attempt whose iterates stay
/// degenerate (zero or non-finite growth on every step) is retried up to
/// [`MAX_ATTEMPTS`] times with a randomly perturbed shift; retries are
/// recorded, exhaustion becomes `Error::NoConvergence`. Polls `ctrl`
/// once per eigenvector.
pub fn stein_with(
    t: &SymTridiagonal,
    lambda: &[f64],
    rec: &Recorder,
    ctrl: &Ctrl,
) -> Result<Matrix> {
    let n = t.n();
    let k = lambda.len();
    let mut z = Matrix::zeros(n, k);
    if n == 0 || k == 0 {
        return Ok(z);
    }
    // Work on T / 2^p, 2^p the power of two at or below ||T||_1. The
    // scaling is exact above the underflow threshold, so it moves no bit
    // of a normalized iterate, and it keeps the solve's growth of about
    // 1 / (eps ||T||) from overflowing the 2-norm when ||T|| is tiny.
    let scale =
        f64::from_bits(t.norm1().max(f64::MIN_POSITIVE).to_bits() & f64::INFINITY.to_bits());
    let scaled = |x: &[f64]| x.iter().map(|v| v / scale).collect::<Vec<f64>>();
    let t = &SymTridiagonal::new(scaled(t.diag()), scaled(t.off_diag()));
    let lambda: &[f64] = &scaled(lambda);
    let onenrm = t.norm1().max(f64::MIN_POSITIVE);
    // Cluster threshold. LAPACK dstein uses 1e-3 * ||T||, but a pair of
    // eigenvalues separated by just over that still loses ~||T||/gap of
    // orthogonality to rounding; one observed failure had a gap of
    // 1.0088 * ORTOL. A 10x wider window costs a few extra dot products
    // and removes the cliff.
    let ortol = 1e-2 * onenrm;
    // Minimum eigenvalue separation we enforce by perturbation so the
    // shifted solves inside a cluster differ.
    let sep = 10.0 * f64::EPSILON * onenrm;
    // Fixed seed: eigenvectors are reproducible across runs.
    let mut rng = StdRng::seed_from_u64(0x57E1_0001);

    let mut cluster_start = 0usize;
    let mut prev_used = f64::NEG_INFINITY;
    for j in 0..k {
        ctrl.checkpoint()?;
        if j > 0 && lambda[j] - lambda[j - 1] >= ortol {
            cluster_start = j;
        }
        let mut lam = lambda[j];
        if j > cluster_start && lam - prev_used < sep {
            lam = prev_used + sep;
        }
        prev_used = lam;

        let mut stored = false;
        for attempt in 0..MAX_ATTEMPTS {
            // DSTEIN-style retry: re-shift by a small random multiple of
            // eps*||T|| so the new factorization is not the one that just
            // failed.
            let lam_try = if attempt == 0 {
                lam
            } else {
                lam + attempt as f64 * f64::EPSILON * onenrm * rng.gen_range(0.5..1.5)
            };
            // Chaos: poison a whole attempt (as if every iterate came
            // back degenerate) to exercise the retry ladder.
            let poisoned = chaos::fire(chaos::Site::SteinNoConv);
            let lu = TriLu::factor(t, lam_try);
            let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            normalize(&mut x);
            let mut valid = false;
            for _it in 0..MAX_ITS {
                lu.solve(&mut x);
                // Reorthogonalize within the cluster. Two modified
                // Gram-Schmidt passes: the first can cancel most of `x`
                // when it lies nearly in the cluster span, leaving the
                // survivor contaminated at the sqrt(eps) level; the second
                // pass scrubs that ("twice is enough").
                for _pass in 0..2 {
                    for c in cluster_start..j {
                        let zc = z.col(c);
                        let dot: f64 = x.iter().zip(zc).map(|(a, b)| a * b).sum();
                        for (xi, zi) in x.iter_mut().zip(zc) {
                            *xi -= dot * zi;
                        }
                    }
                }
                let growth = norm2(&x);
                if poisoned || growth == 0.0 || !growth.is_finite() {
                    // Degenerate direction (e.g. fully absorbed by the
                    // cluster); restart from fresh randomness.
                    for v in x.iter_mut() {
                        *v = rng.gen_range(-1.0..1.0);
                    }
                    normalize(&mut x);
                    valid = false;
                    continue;
                }
                normalize(&mut x);
                valid = true;
                // One inverse-iteration step on a tridiagonal almost always
                // converges; the growth test mirrors LAPACK's acceptance.
                if growth > (0.1 / (n as f64).sqrt()) / (f64::EPSILON * onenrm) {
                    break;
                }
            }
            if valid {
                if attempt > 0 {
                    rec.record(Recovery::InverseIterationRetry {
                        index: j,
                        attempts: attempt,
                    });
                }
                z.col_mut(j).copy_from_slice(&x);
                stored = true;
                break;
            }
        }
        if !stored {
            return Err(Error::NoConvergence {
                index: j,
                iterations: MAX_ATTEMPTS * MAX_ITS,
            });
        }
    }
    Ok(z)
}

fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn normalize(x: &mut [f64]) {
    let nrm = norm2(x);
    if nrm > 0.0 {
        for v in x {
            *v /= nrm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sturm::bisect_eigenvalues;
    use tseig_matrix::{gen, norms};

    #[test]
    fn lu_solves_shifted_system() {
        let t = gen::laplacian_1d(8);
        let lam = 0.12345; // not an eigenvalue
        let lu = TriLu::factor(&t, lam);
        let x0: Vec<f64> = (0..8).map(|i| (i as f64) - 3.0).collect();
        // b = (T - lam I) x0
        let mut b = t.mul_vec(&x0);
        for (bi, xi) in b.iter_mut().zip(&x0) {
            *bi -= lam * xi;
        }
        lu.solve(&mut b);
        for (got, want) in b.iter().zip(&x0) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn full_spectrum_vectors() {
        let n = 35;
        let t = gen::laplacian_1d(n);
        let vals = bisect_eigenvalues(&t, 0, n).unwrap();
        let z = stein(&t, &vals).unwrap();
        assert!(norms::eigen_residual(&t.to_dense(), &vals, &z) < 100.0);
        assert!(norms::orthogonality(&z) < 100.0);
    }

    #[test]
    fn vectors_do_not_depend_on_the_scale() {
        // Across the drivers' scaling window (outside it the Sturm
        // recurrence's e^2 under- or overflows, so they scale into it).
        // The solve's growth is about 1 / (eps ||T||): unscaled, its
        // 2-norm overflowed at the window's lower edge.
        let n = 12;
        let base = gen::laplacian_1d(n);
        let at = |s: f64| {
            let scaled = |x: &[f64]| x.iter().map(|v| v * s).collect();
            let t = SymTridiagonal::new(scaled(base.diag()), scaled(base.off_diag()));
            let vals = bisect_eigenvalues(&t, 3, 7).unwrap();
            stein(&t, &vals).unwrap()
        };
        let want = at(1.0);
        for s in [1.4e-146, 1e-20, 1e100] {
            let z = at(s);
            for j in 0..z.cols() {
                let sign = z.col(j)[0].signum() * want.col(j)[0].signum();
                for (got, w) in z.col(j).iter().zip(want.col(j)) {
                    assert!((got * sign - w).abs() < 1e-10, "s = {s}: {got} vs {w}");
                }
            }
        }
    }

    #[test]
    fn subset_vectors() {
        let n = 50;
        let t = gen::clement(n);
        let vals = bisect_eigenvalues(&t, 40, 50).unwrap();
        let z = stein(&t, &vals).unwrap();
        assert_eq!(z.cols(), 10);
        assert!(norms::eigen_residual(&t.to_dense(), &vals, &z) < 100.0);
        assert!(norms::orthogonality(&z) < 100.0);
    }

    #[test]
    fn wilkinson_cluster_orthogonal() {
        // The top pairs of W21+ agree to ~1e-14; reorthogonalization must
        // keep their vectors orthogonal.
        let n = 21;
        let t = gen::wilkinson(n);
        let vals = bisect_eigenvalues(&t, 0, n).unwrap();
        let z = stein(&t, &vals).unwrap();
        assert!(norms::orthogonality(&z) < 200.0);
        assert!(norms::eigen_residual(&t.to_dense(), &vals, &z) < 200.0);
    }

    #[test]
    fn gap_just_above_old_cluster_threshold_stays_orthogonal() {
        // Regression: this matrix (random_tridiag recipe, n = 40,
        // seed = 137) has eigenvalues 19 and 20 separated by
        // 1.0088 * (1e-3 * ||T||_1) — just outside the old
        // reorthogonalization window — and their inverse-iteration
        // vectors came out with a scaled orthogonality of ~1063.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 40;
        let mut rng = StdRng::seed_from_u64(137);
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let t = SymTridiagonal::new(d, e);
        let vals = bisect_eigenvalues(&t, 0, n).unwrap();
        let z = stein(&t, &vals).unwrap();
        assert!(norms::orthogonality(&z) < 500.0);
        assert!(norms::eigen_residual(&t.to_dense(), &vals, &z) < 500.0);
    }

    #[test]
    fn empty_inputs() {
        let t = gen::laplacian_1d(4);
        let z = stein(&t, &[]).unwrap();
        assert_eq!(z.cols(), 0);
    }
}
