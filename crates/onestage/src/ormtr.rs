//! Blocked application of the one-stage orthogonal factor (`dormtr`).
//!
//! After `A = Q1 T Q1^T`, the eigenvectors of `A` are `Q1 E` where `E`
//! are the eigenvectors of `T`. `Q1 = H_0 H_1 ... H_{n-2}` is applied
//! from the left in reverse reflector order, `nb` reflectors at a time
//! through the compact WY representation — all Level-3 work, the `2 n^3 f`
//! term of the paper's Eq. (4).

use crate::sytrd::TridiagFactor;
use rayon::prelude::*;
use tseig_kernels::blas3::Trans;
use tseig_kernels::householder::{larfb, larft, Side};
use tseig_matrix::Matrix;

/// `C <- Q1 C` with `Q1` from [`crate::sytrd::sytrd`]. `C` must have `n`
/// rows; any number of columns (eigenvector subsets included).
pub fn ormtr_left(f: &TridiagFactor, c: &mut Matrix) {
    let n = f.a.rows();
    assert_eq!(c.rows(), n, "C must have n rows");
    if n <= 1 || c.cols() == 0 {
        return;
    }
    let nb = f.nb.max(1);
    let ncols = c.cols();
    let nrefl = n - 1; // reflectors j = 0..n-1 (trailing ones may be trivial)

    // Column-parallel: each worker applies the whole reflector sequence
    // to its own panel of C — no inter-thread traffic (same layout the
    // paper uses for the Q2 application).
    let threads = rayon::current_num_threads();
    let jb = ncols.div_ceil(threads.max(1)).max(16).min(ncols);
    let ldc = c.ld();
    let scope = tseig_kernels::flops::scope();
    c.as_mut_slice().par_chunks_mut(jb * ldc).for_each(|panel| {
        let pcols = panel.len() / ldc + usize::from(panel.len() % ldc != 0);
        let _charged = scope.enter();
        apply_panel(f, n, nb, nrefl, panel, ldc, pcols);
    });
}

fn apply_panel(
    f: &TridiagFactor,
    n: usize,
    nb: usize,
    nrefl: usize,
    c: &mut [f64],
    ldc: usize,
    ncols: usize,
) {
    // Blocks of reflectors [j0, j0+kb), applied in reverse block order.
    let lda = f.a.ld();
    let nblocks = nrefl.div_ceil(nb);
    for b in (0..nblocks).rev() {
        let j0 = b * nb;
        let kb = nb.min(nrefl - j0);
        // Reflector j acts on rows j+1..n; the block's V is (n - j0 - 1) x kb
        // with column l having its unit at local row l.
        let mrows = n - j0 - 1;
        let mut v = Matrix::zeros(mrows, kb);
        for l in 0..kb {
            let j = j0 + l;
            v[(l, l)] = 1.0;
            for r in (j + 2)..n {
                v[(r - j0 - 1, l)] = f.a.as_slice()[r + j * lda];
            }
        }
        let mut t = vec![0.0f64; kb * kb];
        larft(
            mrows,
            kb,
            v.as_slice(),
            mrows,
            &f.tau[j0..j0 + kb],
            &mut t,
            kb,
        );
        larfb(
            Side::Left,
            Trans::No,
            mrows,
            ncols,
            kb,
            v.as_slice(),
            mrows,
            &t,
            kb,
            &mut c[j0 + 1..],
            ldc,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sytrd::sytrd;
    use tseig_matrix::{gen, norms};

    #[test]
    fn q_is_orthogonal() {
        let a = gen::random_symmetric(40, 11);
        let f = sytrd(a, 8);
        let mut q = Matrix::identity(40);
        ormtr_left(&f, &mut q);
        assert!(norms::orthogonality(&q) < 100.0);
    }

    #[test]
    fn applying_q_to_subset_matches_full() {
        let n = 30;
        let a = gen::random_symmetric(n, 12);
        let f = sytrd(a, 4);
        let mut full = Matrix::identity(n);
        ormtr_left(&f, &mut full);
        // Subset: just columns 3..7 of the identity.
        let mut sub = Matrix::from_fn(n, 4, |i, j| if i == j + 3 { 1.0 } else { 0.0 });
        ormtr_left(&f, &mut sub);
        for jj in 0..4 {
            for i in 0..n {
                assert!((sub[(i, jj)] - full[(i, jj + 3)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn reconstructs_a_from_t() {
        // Q T Q^T must equal the original A.
        let n = 25;
        let a0 = gen::random_symmetric(n, 13);
        let f = sytrd(a0.clone(), 6);
        let mut q = Matrix::identity(n);
        ormtr_left(&f, &mut q);
        let t = f.tridiagonal().to_dense();
        let qtqt = q.multiply(&t).unwrap().multiply(&q.transpose()).unwrap();
        let tol = 100.0 * norms::norm1(&a0) * n as f64 * norms::EPS;
        assert!(qtqt.approx_eq(&a0, tol), "Q T Q^T != A");
    }

    #[test]
    fn trivial_sizes() {
        let f = sytrd(Matrix::identity(1), 4);
        let mut c = Matrix::identity(1);
        ormtr_left(&f, &mut c);
        assert_eq!(c[(0, 0)], 1.0);
    }
}
