//! Implicit-shift QL iteration (`steqr`).
//!
//! The workhorse tridiagonal solver: Wilkinson-shifted implicit QL with
//! deflation, optionally accumulating the plane rotations into an
//! eigenvector matrix. Port of the EISPACK `imtql2` / LAPACK `dsteqr`
//! algorithm. With accumulation the cost is `O(n^3)`; without, `O(n^2)`.
//!
//! The sweeps compute only on `(d, e)`. With accumulation each sweep's
//! rotations are recorded in a pending buffer and applied to row strips
//! of `Z` by [`tseig_kernels::rot`] on the calling thread, whenever the
//! buffer cannot take the next sweep and once before the final sort.
//! The buffer and the one strip tile live in the caller's work buffer
//! ([`work_len`]), within the kernel's 896 KiB budget, so a warm planned
//! solve allocates nothing. The kernel gives every element the same
//! rotations in the same order and with the same expressions as a
//! one-rotation-at-a-time update, so the bits do not depend on the
//! budget.

use tseig_kernels::rot::{self, Job, Pattern, Pending};
use tseig_matrix::chaos;
use tseig_matrix::{Ctrl, Error, Matrix, Result};

/// Maximum QL iterations per eigenvalue before declaring failure.
const MAX_ITER: usize = 50;

/// Diagonalize the tridiagonal `(d, e)` in place: on success `d` holds the
/// eigenvalues in ascending order and `e` is destroyed.
///
/// If `z` is `Some`, the rotations are accumulated from the right
/// (`Z <- Z G`), so passing the identity yields the eigenvectors of `T`,
/// and passing an existing transform `Q` yields the eigenvectors of
/// `Q T Q^T`. `z` must have `n` columns (any number of rows), and its
/// columns are permuted into ascending-eigenvalue order alongside `d`.
pub fn steqr(d: &mut [f64], e: &mut [f64], z: Option<&mut Matrix>) -> Result<()> {
    let mut ee = Vec::new();
    steqr_ws(d, e, z, &mut ee, &Ctrl::NONE)
}

/// Length of the work buffer [`steqr_ws`] uses at order `n`: the
/// off-diagonal copy and, with vectors, the pending rotations and one
/// strip tile.
pub fn work_len(n: usize, vectors: bool) -> usize {
    if !vectors || n == 0 {
        return n;
    }
    n + 2 * rot::pending_cap(n, 1, 1) + rot::tile_len(n)
}

/// [`steqr`] with a caller-owned work buffer `ee` (the off-diagonal
/// copy, the pending rotations and the strip tile; see [`work_len`]):
/// allocation-free once `ee` has warmed up. Bit-identical to the
/// allocating entry point. Polls `ctrl` once per QR sweep; an armed
/// cancel or expired deadline aborts with the structured error, leaving
/// `Z` with an unspecified subset of the rotations.
pub fn steqr_ws(
    d: &mut [f64],
    e: &mut [f64],
    z: Option<&mut Matrix>,
    ee: &mut Vec<f64>,
    ctrl: &Ctrl,
) -> Result<()> {
    let n = d.len();
    if let Some(zm) = z.as_ref() {
        assert_eq!(zm.cols(), n, "Z must have n columns");
    }
    let block = z.map(|zm| {
        let (rows, ld) = (zm.rows(), zm.ld());
        Block {
            a: zm.as_mut_slice(),
            rows,
            ld,
        }
    });
    tseig_matrix::workspace::reset_f64s(ee, work_len(n, block.is_some()));
    steqr_in(d, e, block, ee, ctrl)
}

/// The `rows x n` eigenvector block [`steqr_in`] accumulates into:
/// column-major with leading dimension `ld`, so it can be a diagonal
/// block of a larger matrix.
pub(crate) struct Block<'a> {
    pub a: &'a mut [f64],
    pub rows: usize,
    pub ld: usize,
}

/// The QL iteration of [`steqr_ws`] on a strided eigenvector block and
/// a work slice of at least [`work_len`]`(n, z.is_some())` elements
/// (zeroed here), so the divide & conquer leaves can run in place in
/// their diagonal block of the output.
pub(crate) fn steqr_in(
    d: &mut [f64],
    e: &[f64],
    mut z: Option<Block<'_>>,
    work: &mut [f64],
    ctrl: &Ctrl,
) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    let eps = f64::EPSILON;
    // The off-diagonal copy has length n: the sweep uses e[m] as scratch
    // even when m == n-1 (EISPACK sizes E(N) for the same reason).
    let vectors = z.is_some();
    let work = &mut work[..work_len(n, vectors)];
    work.fill(0.0);
    let (e_work, rest) = work.split_at_mut(n);
    e_work[..n - 1].copy_from_slice(&e[..n.saturating_sub(1)]);
    let e = e_work;
    let (cs, tile) = rest.split_at_mut(if vectors {
        2 * rot::pending_cap(n, 1, 1)
    } else {
        0
    });
    let mut pending = Pending::new(cs);
    // The rotations pending on the block, applied strip by strip.
    let flush = |pending: &mut Pending<'_>, zb: &mut Block<'_>, tile: &mut [f64]| {
        rot::apply(
            &mut Job {
                pending,
                a: zb.a,
                rows: zb.rows,
                cols: n,
                lda: zb.ld,
            },
            tile,
        );
    };
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Poll per QR sweep: a single eigenvalue can burn up to
            // MAX_ITER shifted sweeps, so the per-l granularity alone
            // would be too coarse under a tight deadline.
            ctrl.checkpoint()?;
            // Find the first negligible off-diagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] converged
            }
            iter += 1;
            // Chaos: a forced cap exercises the QR -> bisection fallback
            // without waiting for a genuinely pathological matrix.
            if iter > MAX_ITER || chaos::fire(chaos::Site::QrNoConv) {
                return Err(Error::NoConvergence {
                    index: l,
                    iterations: MAX_ITER,
                });
            }
            // Wilkinson shift from the leading 2x2 of the active block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            if let Some(zb) = z.as_mut() {
                if !pending.has_room(m - l) {
                    flush(&mut pending, zb, tile);
                }
                pending.begin(Pattern::Backward, m - 1);
            }
            // Implicit QL sweep from m-1 down to l.
            let mut i = m;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: split the matrix.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if vectors {
                    // Z <- Z * G(i, i+1, c, s): z_i' = c z_i - s z_{i+1},
                    // z_{i+1}' = s z_i + c z_{i+1}, recorded as (c, -s).
                    pending.push(c, -s);
                }
            }
            if r == 0.0 && i > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    if let Some(zb) = z.as_mut() {
        flush(&mut pending, zb, tile);
    }
    // Sort ascending (selection sort, LAPACK-style), permuting Z columns.
    for i in 0..n.saturating_sub(1) {
        let mut kmin = i;
        for j in i + 1..n {
            if d[j] < d[kmin] {
                kmin = j;
            }
        }
        if kmin != i {
            d.swap(i, kmin);
            if let Some(zb) = z.as_mut() {
                // kmin > i: split between the two columns.
                let (head, tail) = zb.a.split_at_mut(kmin * zb.ld);
                head[i * zb.ld..][..zb.rows].swap_with_slice(&mut tail[..zb.rows]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    #[test]
    fn empty_and_single() {
        let mut d: Vec<f64> = vec![];
        let mut e: Vec<f64> = vec![];
        steqr(&mut d, &mut e, None).unwrap();
        let mut d = vec![5.0];
        let mut e = vec![];
        steqr(&mut d, &mut e, None).unwrap();
        assert_eq!(d, vec![5.0]);
    }

    #[test]
    fn two_by_two_exact() {
        // [[2, -1], [-1, 2]] -> {1, 3}.
        let mut d = vec![2.0, 2.0];
        let mut e = vec![-1.0];
        let mut z = Matrix::identity(2);
        steqr(&mut d, &mut e, Some(&mut z)).unwrap();
        assert!((d[0] - 1.0).abs() < 1e-14);
        assert!((d[1] - 3.0).abs() < 1e-14);
        assert!(norms::orthogonality(&z) < 10.0);
    }

    #[test]
    fn laplacian_exact_values() {
        let n = 60;
        let t = gen::laplacian_1d(n);
        let mut d = t.diag().to_vec();
        let mut e = t.off_diag().to_vec();
        steqr(&mut d, &mut e, None).unwrap();
        let exact = gen::laplacian_1d_eigenvalues(n);
        assert!(norms::eigenvalue_distance(&d, &exact) < 1e-12);
    }

    #[test]
    fn clement_with_vectors() {
        let n = 31;
        let t = gen::clement(n);
        let mut d = t.diag().to_vec();
        let mut e = t.off_diag().to_vec();
        let mut z = Matrix::identity(n);
        steqr(&mut d, &mut e, Some(&mut z)).unwrap();
        assert!(norms::eigenvalue_distance(&d, &gen::clement_eigenvalues(n)) < 1e-11);
        assert!(norms::eigen_residual(&t.to_dense(), &d, &z) < 100.0);
        assert!(norms::orthogonality(&z) < 100.0);
    }

    #[test]
    fn wilkinson_close_pairs() {
        // W21+ has famously close eigenvalue pairs; QR must still deliver
        // orthogonal vectors (rotation accumulation is immune to
        // clustering).
        let n = 21;
        let t = gen::wilkinson(n);
        let mut d = t.diag().to_vec();
        let mut e = t.off_diag().to_vec();
        let mut z = Matrix::identity(n);
        steqr(&mut d, &mut e, Some(&mut z)).unwrap();
        assert!(norms::eigen_residual(&t.to_dense(), &d, &z) < 100.0);
        assert!(norms::orthogonality(&z) < 100.0);
        // The top pair is closer than 1e-10 but distinct.
        assert!(d[n - 1] - d[n - 2] < 1e-10);
    }

    #[test]
    fn accumulates_into_existing_transform() {
        // Pass a random orthogonal-ish Z with more rows than columns and
        // verify Z columns are rotated consistently: Z_out = Z_in * E
        // where E are the eigenvectors from an identity start.
        let n = 12;
        let t = gen::laplacian_1d(n);
        let q = {
            // any full-rank matrix will do for the linearity check
            gen::random_symmetric(n, 5)
        };
        let mut d1 = t.diag().to_vec();
        let mut e1 = t.off_diag().to_vec();
        let mut z1 = Matrix::identity(n);
        steqr(&mut d1, &mut e1, Some(&mut z1)).unwrap();

        let mut d2 = t.diag().to_vec();
        let mut e2 = t.off_diag().to_vec();
        let mut z2 = q.clone();
        steqr(&mut d2, &mut e2, Some(&mut z2)).unwrap();

        let want = q.multiply(&z1).unwrap();
        // Columns can differ in sign only if rotations were identical —
        // they are, since the same sweep sequence ran.
        assert!(z2.approx_eq(&want, 1e-10));
    }

    #[test]
    fn already_diagonal_sorted() {
        let mut d = vec![3.0, 1.0, 2.0];
        let mut e = vec![0.0, 0.0];
        let mut z = Matrix::identity(3);
        steqr(&mut d, &mut e, Some(&mut z)).unwrap();
        assert_eq!(d, vec![1.0, 2.0, 3.0]);
        // Z is the permutation matrix sending old->sorted.
        assert_eq!(z[(1, 0)], 1.0);
        assert_eq!(z[(2, 1)], 1.0);
        assert_eq!(z[(0, 2)], 1.0);
    }
}
