//! Secular-equation root finder (LAPACK `dlaed4`'s role).
//!
//! Divide & conquer reduces each merge step to the eigenproblem of
//! `D + rho z z^T` with `D = diag(d)` ascending and `rho > 0`, whose
//! eigenvalues are the roots of the *secular equation*
//!
//! ```text
//! f(lambda) = 1 + rho * sum_j z_j^2 / (d_j - lambda) = 0 .
//! ```
//!
//! `f` is strictly increasing between consecutive poles, so root `i` lives
//! in `(d_i, d_{i+1})` (and root `k-1` in `(d_{k-1}, d_{k-1} + rho ||z||^2]`).
//!
//! The numerically critical part is not the eigenvalue itself but the
//! differences `d_j - lambda_i`, which the eigenvector formula divides by.
//! Like `dlaed4`, the solver therefore works in a *shifted frame*: it
//! picks the closest pole `sigma` as origin, solves for `mu = lambda -
//! sigma` with a safeguarded Newton iteration, and returns the whole
//! difference table `delta_j = d_j - lambda = (d_j - sigma) - mu`
//! evaluated in that frame — no catastrophic cancellation even when
//! `lambda` is within machine precision of a pole.

/// One solved secular root.
#[derive(Clone, Debug)]
pub struct SecularRoot {
    /// The eigenvalue `lambda_i`.
    pub lambda: f64,
    /// `delta[j] = d_j - lambda`, accurate to a few ulps even for tiny
    /// values.
    pub delta: Vec<f64>,
}

/// Solve for root `i` (0-based, ascending) of the secular equation with
/// poles `d` (strictly ascending), weights `z` and `rho > 0`.
pub fn solve_root(i: usize, d: &[f64], z: &[f64], rho: f64) -> SecularRoot {
    let mut delta = vec![0.0; d.len()];
    let lambda = solve_root_into(i, d, z, rho, &mut delta);
    SecularRoot { lambda, delta }
}

/// [`solve_root`] into a caller-owned difference table: writes
/// `delta[j] = d_j - lambda` (using `delta` as the shifted-frame scratch
/// on the way) and returns `lambda`. The divide & conquer merge passes
/// column `i` of its `k x k` eigenvector region, so the table becomes
/// that column in place (LAPACK `dlaed4` writing into `dlaed3`'s `Q`).
pub fn solve_root_into(i: usize, d: &[f64], z: &[f64], rho: f64, delta: &mut [f64]) -> f64 {
    let k = d.len();
    assert!(i < k && z.len() == k && delta.len() == k && rho > 0.0);
    if k == 1 {
        let mu = rho * z[0] * z[0];
        delta[0] = -mu;
        return d[0] + mu;
    }

    let sumz2: f64 = z.iter().map(|v| v * v).sum();
    let shift = |delta: &mut [f64], sigma: f64| {
        for (dd, &x) in delta.iter_mut().zip(d) {
            *dd = x - sigma;
        }
    };
    // Choose the shift origin sigma and the bracket for mu.
    let (sigma_idx, mut lo, mut hi) = if i == k - 1 {
        // Last root: to the right of the last pole.
        let mut hi = rho * sumz2;
        // Guarantee g(hi) >= 0 despite rounding.
        shift(delta, d[k - 1]);
        let mut guard = 0;
        while eval_g(delta, z, rho, hi).0 < 0.0 && guard < 60 {
            hi *= 2.0;
            guard += 1;
        }
        (k - 1, 0.0, hi)
    } else {
        let gap = d[i + 1] - d[i];
        let mid = 0.5 * gap;
        // Evaluate f at the interval midpoint in the frame of d[i].
        shift(delta, d[i]);
        let (fmid, _) = eval_g(delta, z, rho, mid);
        if fmid >= 0.0 {
            // Root is in the left half: origin at d[i], mu in (0, mid].
            (i, 0.0, mid)
        } else {
            // Root in the right half: origin at d[i+1], mu in [-mid, 0).
            (i + 1, -mid, 0.0)
        }
    };

    let sigma = d[sigma_idx];
    shift(delta, sigma);

    // Safeguarded Newton on g(mu) = 1 + rho sum z^2/(dd_j - mu), which is
    // strictly increasing on the bracket. Invariant: g(lo) < 0 < g(hi)
    // (limits at the open pole endpoints).
    let mut mu = 0.5 * (lo + hi);
    for _ in 0..200 {
        let width = hi - lo;
        if width <= f64::EPSILON * lo.abs().max(hi.abs()).max(f64::MIN_POSITIVE) {
            break;
        }
        let (g, gp) = eval_g(delta, z, rho, mu);
        if g == 0.0 {
            break;
        }
        if g < 0.0 {
            lo = mu;
        } else {
            hi = mu;
        }
        let newton = mu - g / gp;
        mu = if newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        if mu == lo || mu == hi {
            break;
        }
    }

    for dd in delta.iter_mut() {
        *dd -= mu;
    }
    sigma + mu
}

/// Evaluate `g(mu) = 1 + rho sum z_j^2/(dd_j - mu)` and its derivative.
fn eval_g(dd: &[f64], z: &[f64], rho: f64, mu: f64) -> (f64, f64) {
    let mut s = 0.0;
    let mut sp = 0.0;
    for (j, &zj) in z.iter().enumerate() {
        let den = dd[j] - mu;
        let t = zj * zj / den;
        s += t;
        sp += t / den;
    }
    (1.0 + rho * s, rho * sp)
}

/// Reference evaluation of the secular function at `lambda` (tests and
/// diagnostics).
pub fn secular_f(d: &[f64], z: &[f64], rho: f64, lambda: f64) -> f64 {
    1.0 + rho
        * d.iter()
            .zip(z)
            .map(|(&dj, &zj)| zj * zj / (dj - lambda))
            .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::Matrix;

    /// Brute-force eigenvalues of D + rho z z^T via Jacobi.
    fn brute(d: &[f64], z: &[f64], rho: f64) -> Vec<f64> {
        let k = d.len();
        let a = Matrix::from_fn(k, k, |i, j| {
            (if i == j { d[i] } else { 0.0 }) + rho * z[i] * z[j]
        });
        tseig_kernels::reference::jacobi_eigen(&a, false)
            .unwrap()
            .eigenvalues
    }

    #[test]
    fn single_pole() {
        let r = solve_root(0, &[2.0], &[0.5], 3.0);
        assert!((r.lambda - (2.0 + 3.0 * 0.25)).abs() < 1e-14);
        assert!((r.delta[0] + 0.75).abs() < 1e-14);
    }

    #[test]
    fn interlacing_holds() {
        let d = [0.0, 1.0, 2.5, 4.0];
        let z = [0.3, 0.4, 0.5, 0.2];
        let rho = 1.7;
        for i in 0..4 {
            let r = solve_root(i, &d, &z, rho);
            assert!(r.lambda > d[i], "root {i} below its pole");
            if i + 1 < 4 {
                assert!(r.lambda < d[i + 1], "root {i} above next pole");
            }
            // Residual of the secular equation.
            let f = secular_f(&d, &z, rho, r.lambda);
            assert!(f.abs() < 1e-8, "root {i}: f = {f}");
            // delta consistency.
            for (j, &dj) in d.iter().enumerate() {
                assert!((r.delta[j] - (dj - r.lambda)).abs() < 1e-10 * (1.0 + dj.abs()));
            }
        }
    }

    #[test]
    fn matches_brute_force() {
        let d = [-1.0, -0.2, 0.1, 0.9, 2.0];
        let z = [0.5, 0.1, 0.7, 0.3, 0.4];
        let rho = 0.8;
        let want = brute(&d, &z, rho);
        for (i, &w) in want.iter().enumerate() {
            let r = solve_root(i, &d, &z, rho);
            assert!(
                (r.lambda - w).abs() < 1e-10,
                "root {i}: {} vs {w}",
                r.lambda
            );
        }
    }

    #[test]
    fn tiny_weight_root_hugs_pole() {
        // z_1 tiny: root 1 must be just above d_1, and delta[1] must
        // still be accurate (the shifted frame's whole purpose).
        let d = [0.0, 1.0, 2.0];
        let z = [0.6, 1e-10, 0.6];
        let rho = 1.0;
        let r = solve_root(1, &d, &z, rho);
        // The true root is d_1 + ~1e-20 — it *rounds to d_1 in f64*.
        // lambda may therefore equal 1.0 exactly; what must stay accurate
        // is the difference table (the whole point of the shifted frame).
        assert!(r.lambda >= 1.0 && r.lambda < 1.0 + 1e-8);
        assert!(
            r.delta[1] < 0.0 && r.delta[1] > -1e-12,
            "delta {}",
            r.delta[1]
        );
        // Residual evaluated in the shifted frame.
        let g: f64 = 1.0 + rho * (0..3).map(|j| z[j] * z[j] / r.delta[j]).sum::<f64>();
        assert!(g.abs() < 1e-8, "g = {g}");
    }

    #[test]
    fn close_poles() {
        let d = [0.0, 1e-13, 1.0];
        let z = [0.5, 0.5, 0.5];
        let rho = 2.0;
        for i in 0..3 {
            let r = solve_root(i, &d, &z, rho);
            assert!(r.lambda >= d[i]);
            if i + 1 < 3 {
                assert!(r.lambda <= d[i + 1] + 1e-12);
            }
        }
    }

    #[test]
    fn last_root_bound() {
        let d = [0.0, 1.0];
        let z = [
            std::f64::consts::FRAC_1_SQRT_2,
            std::f64::consts::FRAC_1_SQRT_2,
        ];
        let rho = 10.0;
        let r = solve_root(1, &d, &z, rho);
        // lambda_max <= d_max + rho ||z||^2 = 1 + 10.
        assert!(r.lambda > 1.0 && r.lambda <= 11.0 + 1e-9);
        let want = brute(&d, &z, rho);
        assert!((r.lambda - want[1]).abs() < 1e-9);
    }

    #[test]
    fn large_k_random_against_brute() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let k = 20;
        let mut d: Vec<f64> = (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Ensure strict separation.
        for i in 1..k {
            if d[i] - d[i - 1] < 1e-6 {
                d[i] = d[i - 1] + 1e-6;
            }
        }
        let z: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
        let rho = 1.3;
        let want = brute(&d, &z, rho);
        for (i, &w) in want.iter().enumerate() {
            let r = solve_root(i, &d, &z, rho);
            assert!(
                (r.lambda - w).abs() < 1e-8 * (1.0 + w.abs()),
                "root {i}: {} vs {w}",
                r.lambda,
            );
        }
    }
}
