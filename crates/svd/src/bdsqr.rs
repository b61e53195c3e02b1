//! Implicit-shift Golub–Kahan QR on an upper bidiagonal matrix
//! (the `dbdsqr` role).
//!
//! Each sweep applies alternating right/left Givens rotations chasing a
//! bulge down the bidiagonal; the shift comes from the trailing `2x2` of
//! `B^T B` (Wilkinson). Rotations are accumulated into `U` (left) and
//! `V` (right) when supplied, so `B = U' diag(s) V'^T` composes with the
//! caller's transformations. Deflation splits at negligible
//! super-diagonals; a negligible *diagonal* is handled by the classical
//! row-annihilation sweep so singular matrices converge too.

use tseig_kernels::contract;
use tseig_kernels::flops::{self, Level};
use tseig_matrix::{chaos, Ctrl, Error, Matrix, Result};

const MAX_ITER_PER_VALUE: usize = 60;

/// Flops of a sweep's Wilkinson shift and starting pair.
const SHIFT_FLOPS: u64 = 20;
/// Flops of one bidiagonal step: two Givens rotations (6 each, as
/// `dlartg` is counted) and 16 for rotating `d`, `e` and the bulge.
const STEP_FLOPS: u64 = 28;
/// Flops of one step of the zero-diagonal row annihilation: one Givens
/// rotation and the two updates of the coupling.
const ANNIHILATE_FLOPS: u64 = 8;
/// Flops per row of one column-pair rotation (`drot`).
const ROT_FLOPS: u64 = 6;
/// Bytes of one step: `d` and `e` entries read and written back.
const STEP_BYTES: u64 = 64;

/// Charge one sweep of `steps` bidiagonal steps (`shift` flops ahead of
/// them) and `rot_rows` rotated vector rows, once per sweep.
fn charge_sweep(shift: u64, step: u64, steps: u64, rot_rows: u64) {
    flops::add(Level::L1, shift + step * steps + ROT_FLOPS * rot_rows);
    flops::add_bytes(Level::L1, STEP_BYTES * steps + 32 * rot_rows);
}

/// Diagonalize the upper bidiagonal `(d, e)` in place: on success `d`
/// holds the singular values, descending, non-negative; `e` is
/// destroyed.
///
/// `u`/`v` (if given) must have `n` columns; the rotations are applied
/// from the right (`U <- U G`), and columns are permuted/sign-flipped
/// along with `d`, so passing the bidiagonalization's factors yields the
/// full SVD.
pub fn bdsqr(
    d: &mut [f64],
    e: &mut [f64],
    u: Option<&mut Matrix>,
    v: Option<&mut Matrix>,
) -> Result<()> {
    bdsqr_with(d, e, u, v, &Ctrl::NONE)
}

/// [`bdsqr`] under a request control: polls `ctrl` once per deflation
/// step of the outer sweep loop — an armed cancel or expired deadline
/// aborts with the structured error (the bidiagonal is left
/// partially-rotated; callers snapshot `(d, e)` before entry, as
/// the retry rung already does).
pub fn bdsqr_with(
    d: &mut [f64],
    e: &mut [f64],
    mut u: Option<&mut Matrix>,
    mut v: Option<&mut Matrix>,
    ctrl: &Ctrl,
) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    assert!(e.len() + 1 == n || (n == 1 && e.is_empty()));
    if let Some(m) = u.as_ref() {
        assert_eq!(m.cols(), n, "U must have n columns");
    }
    if let Some(m) = v.as_ref() {
        assert_eq!(m.cols(), n, "V must have n columns");
    }
    if contract::enabled() {
        contract::require_vec("bdsqr", "d", d, n);
        contract::require_vec("bdsqr", "e", e, n.saturating_sub(1));
        contract::require_finite_vec("bdsqr", "d", d, n);
        contract::require_finite_vec("bdsqr", "e", e, n.saturating_sub(1));
    }
    if chaos::fire(chaos::Site::BdsqrNoConv) {
        return Err(Error::NoConvergence {
            index: n - 1,
            iterations: MAX_ITER_PER_VALUE * n,
        });
    }
    let eps = f64::EPSILON;

    // Iterate on the trailing index of the active block.
    let mut m = n - 1;
    let mut iter_budget = MAX_ITER_PER_VALUE * n;
    while m > 0 {
        ctrl.checkpoint()?;
        // Deflate converged tail entries.
        while m > 0 && e[m - 1].abs() <= eps * (d[m - 1].abs() + d[m].abs()) {
            e[m - 1] = 0.0;
            m -= 1;
        }
        if m == 0 {
            break;
        }
        // Find the start of the active block.
        let mut l = m;
        while l > 0 && e[l - 1].abs() > eps * (d[l - 1].abs() + d[l].abs()) {
            l -= 1;
        }
        if iter_budget == 0 {
            return Err(Error::NoConvergence {
                index: m,
                iterations: MAX_ITER_PER_VALUE * n,
            });
        }
        iter_budget -= 1;

        // A negligible diagonal inside the block forces a split: rotate
        // the offending row's super-diagonal away to the right with left
        // rotations, then retry.
        let mut split = false;
        for k in l..m {
            if d[k].abs()
                <= eps * (d.iter().fold(0.0f64, |a, &b| a.max(b.abs())) + f64::MIN_POSITIVE)
            {
                annihilate_row(d, e, k, m, u.as_deref_mut());
                split = true;
                break;
            }
        }
        if split {
            continue;
        }

        golub_kahan_step(d, e, l, m, u.as_deref_mut(), v.as_deref_mut());
    }

    // Make singular values non-negative (flip the U column sign).
    for (j, dv) in d.iter_mut().enumerate() {
        if *dv < 0.0 {
            *dv = -*dv;
            if let Some(um) = u.as_deref_mut() {
                for r in 0..um.rows() {
                    um[(r, j)] = -um[(r, j)];
                }
            }
        }
    }
    // Sort descending, permuting U/V columns.
    for i in 0..n.saturating_sub(1) {
        let mut kmax = i;
        for j in i + 1..n {
            if d[j] > d[kmax] {
                kmax = j;
            }
        }
        if kmax != i {
            d.swap(i, kmax);
            if let Some(um) = u.as_deref_mut() {
                let (a, b) = um.cols_mut_pair(i, kmax);
                a.swap_with_slice(b);
            }
            if let Some(vm) = v.as_deref_mut() {
                let (a, b) = vm.cols_mut_pair(i, kmax);
                a.swap_with_slice(b);
            }
        }
    }
    Ok(())
}

/// `(c, s, r)` with `c*a + s*b = r`, `-s*a + c*b = 0`.
#[inline]
fn givens(a: f64, b: f64) -> (f64, f64, f64) {
    if b == 0.0 {
        (1.0, 0.0, a)
    } else {
        let r = a.hypot(b).copysign(if a >= 0.0 { 1.0 } else { -1.0 });
        (a / r, b / r, r)
    }
}

/// Apply `X <- X G(j1, j2; c, s)` to the columns of `x`
/// (`col_j1' = c col_j1 + s col_j2`, `col_j2' = -s col_j1 + c col_j2`).
fn rot_cols(x: &mut Matrix, j1: usize, j2: usize, c: f64, s: f64) {
    let (a, b) = x.cols_mut_pair(j1, j2);
    for i in 0..a.len() {
        let (p, q) = (a[i], b[i]);
        a[i] = c * p + s * q;
        b[i] = -s * p + c * q;
    }
}

/// One implicit-shift sweep on the block `l..=m`.
fn golub_kahan_step(
    d: &mut [f64],
    e: &mut [f64],
    l: usize,
    m: usize,
    mut u: Option<&mut Matrix>,
    mut v: Option<&mut Matrix>,
) {
    // Each step rotates one column pair of V and one of U.
    let rows = u.as_ref().map_or(0, |x| x.rows()) + v.as_ref().map_or(0, |x| x.rows());
    charge_sweep(
        SHIFT_FLOPS,
        STEP_FLOPS,
        (m - l) as u64,
        (rows * (m - l)) as u64,
    );
    // Wilkinson shift from the trailing 2x2 of B^T B.
    let dm1 = d[m - 1];
    let em2 = if m >= 2 && m - 1 > l { e[m - 2] } else { 0.0 };
    let dm = d[m];
    let em1 = e[m - 1];
    let t11 = dm1 * dm1 + em2 * em2;
    let t12 = dm1 * em1;
    let t22 = dm * dm + em1 * em1;
    let delta = 0.5 * (t11 - t22);
    let mu = if delta == 0.0 && t12 == 0.0 {
        t22
    } else {
        let denom = delta
            + delta
                .hypot(t12)
                .copysign(if delta >= 0.0 { 1.0 } else { -1.0 });
        if denom == 0.0 {
            t22
        } else {
            t22 - t12 * t12 / denom
        }
    };

    let mut y = d[l] * d[l] - mu;
    let mut z = d[l] * e[l];

    for k in l..m {
        // Right rotation on columns (k, k+1): zero z against y. For
        // k == l the pair is the virtual shifted vector; afterwards it is
        // (e[k-1], bulge at (k-1, k+1)).
        let (c, s, r) = givens(y, z);
        if k > l {
            e[k - 1] = r;
        }
        let (dk, ek, dk1) = (d[k], e[k], d[k + 1]);
        d[k] = c * dk + s * ek;
        e[k] = -s * dk + c * ek;
        let bulge_below = s * dk1; // new entry at (k+1, k)
        d[k + 1] = c * dk1;
        if let Some(vm) = v.as_deref_mut() {
            rot_cols(vm, k, k + 1, c, s);
        }
        // Left rotation on rows (k, k+1): zero the (k+1, k) bulge.
        let (c2, s2, r2) = givens(d[k], bulge_below);
        d[k] = r2;
        let (ek, dk1) = (e[k], d[k + 1]);
        e[k] = c2 * ek + s2 * dk1;
        d[k + 1] = -s2 * ek + c2 * dk1;
        if let Some(um) = u.as_deref_mut() {
            rot_cols(um, k, k + 1, c2, s2);
        }
        if k + 1 < m {
            // Bulge at (k, k+2) becomes the next step's z.
            let ek1 = e[k + 1];
            z = s2 * ek1;
            e[k + 1] = c2 * ek1;
            y = e[k];
        }
    }
}

/// Diagonal `d[k]` is (numerically) zero: annihilate `e[k]` by rotating
/// row `k` against rows `k+1..=m` from the left (Golub–Reinsch
/// cancellation), splitting the block.
fn annihilate_row(d: &mut [f64], e: &mut [f64], k: usize, m: usize, mut u: Option<&mut Matrix>) {
    let rows = u.as_ref().map_or(0, |x| x.rows());
    charge_sweep(0, ANNIHILATE_FLOPS, (m - k) as u64, (rows * (m - k)) as u64);
    let mut f = e[k];
    e[k] = 0.0;
    for i in k + 1..=m {
        // Rotate rows (i, k) to zero the (k, i) entry f against d[i];
        // this pushes the coupling one column right (to (k, i+1)).
        let (c, s, r) = givens(d[i], f);
        d[i] = r;
        if let Some(um) = u.as_deref_mut() {
            rot_cols(um, i, k, c, s);
        }
        if i < m {
            f = -s * e[i];
            e[i] *= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::norms;

    /// Oracle: singular values of the bidiagonal as sqrt of the
    /// eigenvalues of B^T B via the Jacobi reference.
    fn oracle_singular_values(d: &[f64], e: &[f64]) -> Vec<f64> {
        let n = d.len();
        let mut b = Matrix::zeros(n, n);
        for j in 0..n {
            b[(j, j)] = d[j];
            if j + 1 < n {
                b[(j, j + 1)] = e[j];
            }
        }
        let btb = b.transpose().multiply(&b).unwrap();
        let mut vals: Vec<f64> = tseig_kernels::reference::jacobi_eigen(&btb, false)
            .unwrap()
            .eigenvalues
            .iter()
            .map(|x| x.max(0.0).sqrt())
            .collect();
        vals.reverse(); // descending
        vals
    }

    fn dense_bidiag(d: &[f64], e: &[f64]) -> Matrix {
        let n = d.len();
        let mut b = Matrix::zeros(n, n);
        for j in 0..n {
            b[(j, j)] = d[j];
            if j + 1 < n {
                b[(j, j + 1)] = e[j];
            }
        }
        b
    }

    fn check(d0: Vec<f64>, e0: Vec<f64>, tag: &str) {
        let n = d0.len();
        let b = dense_bidiag(&d0, &e0);
        let want = oracle_singular_values(&d0, &e0);
        let mut d = d0.clone();
        let mut e = e0.clone();
        let mut u = Matrix::identity(n);
        let mut v = Matrix::identity(n);
        bdsqr(&mut d, &mut e, Some(&mut u), Some(&mut v)).unwrap();
        assert!(d.windows(2).all(|w| w[0] >= w[1]), "{tag}: not descending");
        assert!(d.iter().all(|&x| x >= 0.0), "{tag}: negative sv");
        assert!(
            norms::eigenvalue_distance(&d, &want) < 1e-9,
            "{tag}: singular values wrong\n got {d:?}\nwant {want:?}"
        );
        // Reconstruction: U diag(d) V^T == B.
        let mut sig = Matrix::zeros(n, n);
        for j in 0..n {
            sig[(j, j)] = d[j];
        }
        let recon = u.multiply(&sig).unwrap().multiply(&v.transpose()).unwrap();
        assert!(
            recon.approx_eq(&b, 1e-10 * (1.0 + b.max_abs()) * n as f64),
            "{tag}: U S V^T != B"
        );
        assert!(norms::orthogonality(&u) < 200.0, "{tag}: U not orthogonal");
        assert!(norms::orthogonality(&v) < 200.0, "{tag}: V not orthogonal");
    }

    #[test]
    fn two_by_two() {
        check(vec![3.0, 1.0], vec![2.0], "2x2");
        check(vec![1.0, 1.0], vec![1e-3], "near-diagonal");
    }

    #[test]
    fn random_bidiagonals() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(90);
        for trial in 0..5 {
            let n = 5 + trial * 7;
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check(d, e, &format!("random{trial}"));
        }
    }

    #[test]
    fn graded_bidiagonal() {
        let n = 12;
        let d: Vec<f64> = (0..n).map(|i| 10f64.powi(-(i as i32) / 3)).collect();
        let e = vec![0.5; n - 1];
        check(d, e, "graded");
    }

    #[test]
    fn exactly_singular() {
        // Zero diagonal in the middle: rank-deficient bidiagonal.
        let d = vec![2.0, 0.0, 1.0, 3.0];
        let e = vec![1.0, 1.0, 0.5];
        check(d, e, "singular");
        // Smallest singular value must be (near) zero.
        let mut dd = vec![2.0, 0.0, 1.0, 3.0];
        let mut ee = vec![1.0, 1.0, 0.5];
        bdsqr(&mut dd, &mut ee, None, None).unwrap();
        assert!(dd[3] < 1e-12, "zero sv not found: {dd:?}");
    }

    #[test]
    fn already_diagonal() {
        check(vec![3.0, -1.0, 2.0], vec![0.0, 0.0], "diag");
    }

    #[test]
    fn counted_flops_split_into_steps_and_rotations() {
        // A nonsingular bidiagonal runs only Golub-Kahan sweeps, and
        // vectors add exactly two n-row rotations per step. So the
        // difference of the two counts gives the step count, and the
        // values-only count must then split into whole sweeps.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 40;
        let mut rng = StdRng::seed_from_u64(91);
        let d0: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..2.0)).collect();
        let e0: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (mut d, mut e) = (d0.clone(), e0.clone());
        let (_, values) = flops::measure(|| bdsqr(&mut d, &mut e, None, None).unwrap());
        let (mut d, mut e) = (d0, e0);
        let (mut u, mut v) = (Matrix::identity(n), Matrix::identity(n));
        let (_, vectors) =
            flops::measure(|| bdsqr(&mut d, &mut e, Some(&mut u), Some(&mut v)).unwrap());
        assert!(values.total() > 0, "values-only bdsqr charged nothing");
        let rot = vectors.total() - values.total();
        let per_step = 2 * ROT_FLOPS * n as u64;
        assert_eq!(rot % per_step, 0, "rotation flops {rot}");
        let steps = rot / per_step;
        let shifts = values.total() - STEP_FLOPS * steps;
        assert_eq!(shifts % SHIFT_FLOPS, 0, "shift flops {shifts}");
        let sweeps = shifts / SHIFT_FLOPS;
        assert!(
            0 < sweeps && sweeps <= steps,
            "{sweeps} sweeps, {steps} steps"
        );
        // The rotations dominate: up to 12 n / 28 times the scalar work.
        assert!(rot > 5 * values.total(), "rot {rot} values {values:?}");
    }

    #[test]
    fn single_element() {
        let mut d = vec![-4.0];
        let mut e: Vec<f64> = vec![];
        let mut u = Matrix::identity(1);
        bdsqr(&mut d, &mut e, Some(&mut u), None).unwrap();
        assert_eq!(d[0], 4.0);
        assert_eq!(u[(0, 0)], -1.0);
    }
}
