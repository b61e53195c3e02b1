//! Divide & conquer tridiagonal eigensolver (`stedc`).
//!
//! Cuppen's method as engineered in LAPACK (`dlaed0..4`), the solver
//! behind the paper's Figure 4a:
//!
//! 1. Split `T` in half by subtracting a rank-one coupling:
//!    `T = diag(T1', T2') + rho u u^T` with `u` supported on the two
//!    boundary rows, the sub-diagonals of `T1'`/`T2'` untouched.
//! 2. Solve both halves recursively (in parallel — `rayon::join`), QR
//!    iteration at the leaves.
//! 3. *Deflate*: eigenpairs whose coupling weight `z_j` is negligible, or
//!    pairs of nearly equal eigenvalues (merged by a Givens rotation),
//!    pass through untouched — this is where D&C gains its speed.
//! 4. Solve the secular equation for the surviving eigenvalues
//!    ([`crate::secular`]), then rebuild the weight vector `z` from the
//!    computed roots (Gu–Eisenstat) so the eigenvectors of the rank-one
//!    update are orthogonal to working precision *by construction*.
//! 5. Back-transform with one big `gemm` — the compute-bound heart of the
//!    method.

use crate::secular;
use crate::{inverse_iteration, sturm};
use tseig_kernels::blas3::{gemm_par, Trans};
use tseig_matrix::chaos;
use tseig_matrix::diagnostics::{Recorder, Recovery};
use tseig_matrix::{Ctrl, Error, Matrix, Result, SymTridiagonal};

/// Subproblems at or below this order are solved directly by QR
/// iteration (LAPACK's `SMLSIZ`).
const SMLSIZ: usize = 25;

/// Divide & conquer eigendecomposition: ascending eigenvalues and the
/// full eigenvector matrix.
pub fn stedc(t: &SymTridiagonal) -> Result<(Vec<f64>, Matrix)> {
    stedc_with(t, &Recorder::new(), &Ctrl::NONE)
}

/// [`stedc`] with a recovery recorder: a merge whose output contains a
/// non-finite value (secular-equation breakdown) falls back to QR
/// iteration on that subproblem; a QR leaf hitting its cap falls back to
/// bisection + inverse iteration. Both are recorded. Polls `ctrl` once
/// per subproblem (every recursion node) so cancel and deadline cut the
/// recursion cooperatively.
pub fn stedc_with(t: &SymTridiagonal, rec: &Recorder, ctrl: &Ctrl) -> Result<(Vec<f64>, Matrix)> {
    let n = t.n();
    if n == 0 {
        return Ok((vec![], Matrix::zeros(0, 0)));
    }
    let mut d = t.diag().to_vec();
    let mut e = t.off_diag().to_vec();
    solve_rec(&mut d, &mut e, rec, ctrl)
}

/// Solve the subproblem `(d, e)` by QR iteration with the
/// bisection + inverse-iteration safety net — the shared tail of every
/// fallback path.
fn solve_by_qr(d0: &[f64], e0: &[f64], rec: &Recorder, ctrl: &Ctrl) -> Result<(Vec<f64>, Matrix)> {
    let n = d0.len();
    let mut dr = d0.to_vec();
    let mut er = e0.to_vec();
    let mut z = Matrix::identity(n);
    let mut ee = Vec::new();
    match crate::qr_iteration::steqr_ws(&mut dr, &mut er, Some(&mut z), &mut ee, ctrl) {
        Ok(()) => Ok((dr, z)),
        Err(Error::NoConvergence { index, .. }) => {
            rec.record(Recovery::QrFallbackToBisection { index, size: n });
            let t = SymTridiagonal::new(d0.to_vec(), e0.to_vec());
            let vals = sturm::bisect_with(&t, 0, n, rec, ctrl)?;
            let zb = inverse_iteration::stein_with(&t, &vals, rec, ctrl)?;
            Ok((vals, zb))
        }
        Err(other) => Err(other),
    }
}

fn solve_rec(
    d: &mut [f64],
    e: &mut [f64],
    rec: &Recorder,
    ctrl: &Ctrl,
) -> Result<(Vec<f64>, Matrix)> {
    let n = d.len();
    ctrl.checkpoint()?;
    if n <= SMLSIZ {
        return solve_by_qr(d, e, rec, ctrl);
    }
    // Snapshot the untorn subproblem: the merge fallback below re-solves
    // it whole if the secular machinery breaks down.
    let d0 = d.to_vec();
    let e0 = e.to_vec();
    let m = n / 2;
    let rho = e[m - 1];
    let sign = if rho >= 0.0 { 1.0 } else { -1.0 };
    let rho_abs = rho.abs();

    // Rank-one tear: subtract rho_abs from the two boundary diagonals.
    let (d1, d2) = d.split_at_mut(m);
    let (e1, e2x) = e.split_at_mut(m - 1);
    let e2 = &mut e2x[1..]; // skip the coupling entry e[m-1]
    d1[m - 1] -= rho_abs;
    d2[0] -= rho_abs;

    let scope = tseig_kernels::flops::scope();
    let (left, right) = rayon::join(
        || {
            let _charged = scope.enter();
            solve_rec(d1, e1, rec, ctrl)
        },
        || {
            let _charged = scope.enter();
            solve_rec(d2, e2, rec, ctrl)
        },
    );
    let (vals1, q1) = left?;
    let (vals2, q2) = right?;

    // Coupling weights z = Q^T u.
    let mut z = Vec::with_capacity(n);
    for j in 0..m {
        z.push(q1[(m - 1, j)]);
    }
    for j in 0..n - m {
        z.push(sign * q2[(0, j)]);
    }
    let mut d_all = Vec::with_capacity(n);
    d_all.extend_from_slice(&vals1);
    d_all.extend_from_slice(&vals2);

    // Column j of the block-diagonal Q.
    let q_col = |j: usize, out: &mut [f64]| {
        out.fill(0.0);
        if j < m {
            out[..m].copy_from_slice(q1.col(j));
        } else {
            out[m..].copy_from_slice(q2.col(j - m));
        }
    };

    // A secular-equation breakdown surfaces as a non-finite eigenvalue
    // or eigenvector entry; catch it here and re-solve this whole
    // subproblem by QR from the pre-tear snapshot.
    match merge(&d_all, &z, rho_abs, n, q_col) {
        Ok((vals, zq))
            if vals.iter().all(|v| v.is_finite())
                && zq.as_slice().iter().all(|v| v.is_finite()) =>
        {
            Ok((vals, zq))
        }
        Ok(_) | Err(Error::NoConvergence { .. }) => {
            rec.record(Recovery::DcFallbackToQr { size: n });
            solve_by_qr(&d0, &e0, rec, ctrl)
        }
        Err(other) => Err(other),
    }
}

/// Merge two solved halves through the rank-one update
/// `diag(d_all) + rho_abs * z z^T` (in the basis of block-diag `Q`).
fn merge(
    d_all: &[f64],
    z_in: &[f64],
    rho_abs: f64,
    n: usize,
    q_col: impl Fn(usize, &mut [f64]),
) -> Result<(Vec<f64>, Matrix)> {
    let eps = f64::EPSILON;

    // Sort by d value.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d_all[a].total_cmp(&d_all[b]));

    // Normalize z, fold its norm into rho.
    let znorm2: f64 = z_in.iter().map(|v| v * v).sum();
    let rho_eff = rho_abs * znorm2;

    // Fully decoupled (rho == 0): spectra just interleave.
    if rho_eff == 0.0 {
        let mut zq = Matrix::zeros(n, n);
        let mut vals = Vec::with_capacity(n);
        let mut buf = vec![0.0; n];
        for (jj, &j) in order.iter().enumerate() {
            vals.push(d_all[j]);
            q_col(j, &mut buf);
            zq.col_mut(jj).copy_from_slice(&buf);
        }
        return Ok((vals, zq));
    }
    let zscale = znorm2.sqrt();
    // (block factors consumed only through `q_col`)

    // Entries in sorted order: (d, z, source column); rotations below
    // mutate d/z and the materialized Q columns.
    let mut dv: Vec<f64> = order.iter().map(|&j| d_all[j]).collect();
    let mut zv: Vec<f64> = order.iter().map(|&j| z_in[j] / zscale).collect();
    // Materialize Q columns in sorted order (n x n) — also the matrix the
    // final gemm consumes.
    let mut q = Matrix::zeros(n, n);
    {
        let mut buf = vec![0.0; n];
        for (jj, &j) in order.iter().enumerate() {
            q_col(j, &mut buf);
            q.col_mut(jj).copy_from_slice(&buf);
        }
    }

    let dmax = dv.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let zmax = zv.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let tol = 8.0 * eps * dmax.max(rho_eff * zmax);

    // Deflation pass.
    let mut survivors: Vec<usize> = Vec::new(); // indices into dv/zv/q cols
    let mut deflated: Vec<usize> = Vec::new();
    for j in 0..n {
        if rho_eff * zv[j].abs() <= tol {
            zv[j] = 0.0;
            deflated.push(j);
            continue;
        }
        if let Some(&p) = survivors.last() {
            let (z1, z2) = (zv[p], zv[j]);
            let tau = z1.hypot(z2);
            let c = z2 / tau;
            let s = z1 / tau;
            if ((dv[j] - dv[p]) * c * s).abs() <= tol {
                // Rotate the pair: p deflates with z=0, j survives with
                // weight tau.
                zv[j] = tau;
                zv[p] = 0.0;
                let (d1v, d2v) = (dv[p], dv[j]);
                dv[p] = c * c * d1v + s * s * d2v;
                dv[j] = s * s * d1v + c * c * d2v;
                let (qp, qj) = q.cols_mut_pair(p, j);
                for r in 0..n {
                    let (a, b) = (qp[r], qj[r]);
                    qp[r] = c * a - s * b;
                    qj[r] = s * a + c * b;
                }
                survivors.pop();
                deflated.push(p);
            }
        }
        survivors.push(j);
    }

    let k = survivors.len();
    let mut vals_out: Vec<(f64, usize, bool)> = Vec::with_capacity(n); // (lambda, col, from_secular)

    let znd_cols = if k > 0 {
        let ds: Vec<f64> = survivors.iter().map(|&j| dv[j]).collect();
        let zs: Vec<f64> = survivors.iter().map(|&j| zv[j]).collect();

        // Solve all k secular roots (each root independent — rayon).
        use rayon::prelude::*;
        let mut roots: Vec<secular::SecularRoot> = (0..k)
            .into_par_iter()
            .map(|i| secular::solve_root(i, &ds, &zs, rho_eff))
            .collect();
        // Chaos: a NaN root models a secular solve that walked out of
        // its bracket; the caller's finiteness check must catch it.
        if chaos::fire(chaos::Site::SecularNan) {
            if let Some(r0) = roots.first_mut() {
                r0.lambda = f64::NAN;
            }
        }
        let roots = roots;

        // Gu–Eisenstat: recompute weights from the computed roots so the
        // eigenvectors are orthogonal regardless of secular rounding.
        let mut zhat = vec![0.0f64; k];
        for j in 0..k {
            // zhat_j^2 = (lambda_j - d_j) * prod_{i != j} (lambda_i - d_j)/(d_i - d_j)
            let mut prod = -roots[j].delta[j]; // lambda_j - d_j >= 0
            for i in 0..k {
                if i == j {
                    continue;
                }
                prod *= -roots[i].delta[j] / (ds[i] - ds[j]);
            }
            zhat[j] = prod.abs().sqrt().copysign(zs[j]);
        }

        // Eigenvectors of the rank-one problem: column i has entries
        // zhat_j / (d_j - lambda_i), normalized.
        let mut v = Matrix::zeros(k, k);
        for (i, root) in roots.iter().enumerate() {
            let col = v.col_mut(i);
            let mut nrm = 0.0;
            for (j, cv) in col.iter_mut().enumerate() {
                let val = zhat[j] / root.delta[j];
                *cv = val;
                nrm += val * val;
            }
            let inv = 1.0 / nrm.sqrt();
            for cv in col.iter_mut() {
                *cv *= inv;
            }
        }

        // Back-transform: Znd = Qs * V with Qs the survivor columns.
        let mut qs = Matrix::zeros(n, k);
        for (jj, &j) in survivors.iter().enumerate() {
            qs.col_mut(jj).copy_from_slice(q.col(j));
        }
        let mut znd = Matrix::zeros(n, k);
        gemm_par(
            Trans::No,
            Trans::No,
            n,
            k,
            k,
            1.0,
            qs.as_slice(),
            n,
            v.as_slice(),
            k,
            0.0,
            znd.as_mut_slice(),
            n,
        );
        for (i, r) in roots.iter().enumerate() {
            vals_out.push((r.lambda, i, true));
        }
        znd
    } else {
        Matrix::zeros(n, 0)
    };

    for &j in &deflated {
        vals_out.push((dv[j], j, false));
    }
    vals_out.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut vals = Vec::with_capacity(n);
    let mut zq = Matrix::zeros(n, n);
    for (jj, &(lambda, col, from_secular)) in vals_out.iter().enumerate() {
        vals.push(lambda);
        let src = if from_secular {
            znd_cols.col(col)
        } else {
            q.col(col)
        };
        zq.col_mut(jj).copy_from_slice(src);
    }
    Ok((vals, zq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    fn check(t: &SymTridiagonal, exact: Option<&[f64]>, tag: &str) {
        let (vals, z) = stedc(t).unwrap();
        if let Some(exact) = exact {
            assert!(
                norms::eigenvalue_distance(&vals, exact) < 1e-11,
                "{tag}: eigenvalues wrong"
            );
        }
        let dense = t.to_dense();
        let res = norms::eigen_residual(&dense, &vals, &z);
        let orth = norms::orthogonality(&z);
        assert!(res < 200.0, "{tag}: residual {res}");
        assert!(orth < 200.0, "{tag}: orthogonality {orth}");
    }

    #[test]
    fn small_leaf_path() {
        let t = gen::laplacian_1d(10);
        check(&t, Some(&gen::laplacian_1d_eigenvalues(10)), "laplacian10");
    }

    #[test]
    fn single_merge() {
        let n = 40; // one level of merging above SMLSIZ
        let t = gen::laplacian_1d(n);
        check(&t, Some(&gen::laplacian_1d_eigenvalues(n)), "laplacian40");
    }

    #[test]
    fn deep_recursion() {
        let n = 150;
        let t = gen::laplacian_1d(n);
        check(&t, Some(&gen::laplacian_1d_eigenvalues(n)), "laplacian150");
    }

    #[test]
    fn clement_exact_integers() {
        let n = 64;
        let t = gen::clement(n);
        check(&t, Some(&gen::clement_eigenvalues(n)), "clement64");
    }

    #[test]
    fn wilkinson_close_pairs() {
        let t = gen::wilkinson(51);
        check(&t, None, "wilkinson51");
    }

    #[test]
    fn negative_coupling() {
        // Off-diagonals all negative exercise the sign handling of the
        // rank-one tear.
        let n = 60;
        let t = gen::laplacian_1d(n); // e = -1 everywhere
        let (vals, _) = stedc(&t).unwrap();
        assert!(norms::eigenvalue_distance(&vals, &gen::laplacian_1d_eigenvalues(n)) < 1e-11);
    }

    #[test]
    fn zero_coupling_splits_cleanly() {
        // e[m-1] == 0: two independent blocks.
        let n = 52;
        let m = n / 2;
        let mut d = vec![0.0; n];
        let mut e = vec![0.5; n - 1];
        for (i, dv) in d.iter_mut().enumerate() {
            *dv = (i % 7) as f64;
        }
        e[m - 1] = 0.0;
        let t = SymTridiagonal::new(d, e);
        check(&t, None, "split");
    }

    #[test]
    fn heavy_deflation_identity_like() {
        // Constant diagonal with tiny couplings: nearly everything
        // deflates.
        let n = 80;
        let d = vec![3.0; n];
        let e = vec![1e-300; n - 1];
        let t = SymTridiagonal::new(d, e);
        let (vals, z) = stedc(&t).unwrap();
        for v in &vals {
            assert!((v - 3.0).abs() < 1e-12);
        }
        assert!(norms::orthogonality(&z) < 100.0);
    }

    #[test]
    fn random_spectra_match_qr() {
        use crate::qr_iteration::steqr;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..3 {
            let n = 70 + trial * 13;
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let t = SymTridiagonal::new(d.clone(), e.clone());
            let (vals, z) = stedc(&t).unwrap();
            let mut dq = d.clone();
            let mut eq = e.clone();
            steqr(&mut dq, &mut eq, None).unwrap();
            assert!(
                norms::eigenvalue_distance(&vals, &dq) < 1e-10,
                "trial {trial}: D&C vs QR eigenvalues"
            );
            assert!(norms::eigen_residual(&t.to_dense(), &vals, &z) < 200.0);
            assert!(norms::orthogonality(&z) < 200.0);
        }
    }
}
