//! Blocked application of the one-stage orthogonal factor (`dormtr`).
//!
//! After `A = Q1 T Q1^T`, the eigenvectors of `A` are `Q1 E` where `E`
//! are the eigenvectors of `T`. `Q1 = H_0 H_1 ... H_{n-2}` is applied
//! from the left in reverse reflector order, `nb` reflectors at a time
//! through the compact WY representation — all Level-3 work, the `2 n^3 f`
//! term of the paper's Eq. (4).

use crate::sytrd::TridiagFactor;
use rayon::prelude::*;
use tseig_kernels::backtransform::apply_q;
use tseig_kernels::flops;
use tseig_kernels::householder::BlockReflector;
use tseig_kernels::qr::{block_reflector_into, Storev};
use tseig_matrix::Matrix;

/// `C <- Q1 C` with `Q1` from [`crate::sytrd::sytrd`]. `C` must have `n`
/// rows; any number of columns (eigenvector subsets included).
///
/// Each block of `nb` reflectors is built once (explicit `V`, `T` from
/// `larft`), over the pool; the blocks then run in reverse order on
/// every cache-sized column panel of `C` through the back-transform's
/// panel loop.
pub fn ormtr_left(f: &TridiagFactor, c: &mut Matrix) {
    let n = f.a.rows();
    assert_eq!(c.rows(), n, "C must have n rows");
    if n <= 1 || c.cols() == 0 {
        return;
    }
    let nb = f.nb.max(1);
    let nrefl = n - 1; // reflector j acts on rows j+1..n
    let lda = f.a.ld();
    let scope = flops::scope();
    let blocks: Vec<BlockReflector<f64>> = (0..nrefl.div_ceil(nb))
        .into_par_iter()
        .map(|b| {
            let _charged = scope.enter();
            let (j0, kb) = (b * nb, nb.min(nrefl - b * nb));
            let (r0, mm) = (j0 + 1, n - j0 - 1);
            let (stored, tau) = (&f.a.as_slice()[r0 + j0 * lda..], &f.tau[j0..j0 + kb]);
            let mut p = BlockReflector::default();
            block_reflector_into(stored, lda, Storev::Columns, r0, mm, kb, tau, &mut p);
            p
        })
        .collect();
    let ldc = c.ld();
    apply_q(&[], &blocks, c.as_mut_slice(), ldc, 1, 0);
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
