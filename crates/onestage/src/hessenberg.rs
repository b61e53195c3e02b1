//! One-stage Hessenberg reduction (`dgehd2`-class).
//!
//! Not part of the eigensolver pipeline — it exists to reproduce the
//! *third row of the paper's Table 2*: the Hessenberg reduction performs
//! ~10 `gemv`-class memory-bound operations per element (vs 4 `symv` for
//! the symmetric tridiagonal reduction), which is why nonsymmetric
//! reductions are even more bandwidth-starved. Only its tests run it;
//! EXPERIMENTS.md (Table 2) quotes the seed host's rate.

use tseig_kernels::householder::{larf_left, larf_right, larfg};
use tseig_matrix::Matrix;

/// Reduce a general square matrix to upper Hessenberg form in place:
/// `A = Q H Q^T`. Returns the reflector scalars; reflector `j`'s tail is
/// stored below the first sub-diagonal of column `j`.
pub fn gehrd(a: &mut Matrix) -> Vec<f64> {
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    let lda = a.ld();
    let mut tau = vec![0.0f64; n.saturating_sub(1)];
    let mut u = vec![0.0f64; n];
    let mut work = vec![0.0f64; n];
    for j in 0..n.saturating_sub(2) {
        let rows = n - j - 1; // reflector acts on rows j+1..n
        let (beta, tj) = {
            let col = &mut a.as_mut_slice()[j * lda..j * lda + n];
            let (head, tail) = col.split_at_mut(j + 2);
            larfg(head[j + 1], &mut tail[..n - j - 2])
        };
        tau[j] = tj;
        if tj == 0.0 {
            continue;
        }
        u[0] = 1.0;
        for r in 1..rows {
            u[r] = a[(j + 1 + r, j)];
        }
        a[(j + 1, j)] = beta;
        // Left: A(j+1:n, j+1:n) <- H A(j+1:n, j+1:n)   (2 gemv-class passes)
        larf_left(
            &u[..rows],
            tj,
            rows,
            n - j - 1,
            &mut a.as_mut_slice()[(j + 1) + (j + 1) * lda..],
            lda,
            &mut work,
        );
        // Right: A(0:n, j+1:n) <- A(0:n, j+1:n) H      (2 more)
        larf_right(
            &u[..rows],
            tj,
            n,
            rows,
            &mut a.as_mut_slice()[(j + 1) * lda..],
            lda,
            &mut work,
        );
        // Keep the reflector tail stored below the sub-diagonal.
        for r in 1..rows {
            a[(j + 1 + r, j)] = u[r];
        }
    }
    tau
}

/// Materialize `Q` from a [`gehrd`]-factored matrix (tests).
pub fn orghr(a: &Matrix, tau: &[f64]) -> Matrix {
    let n = a.rows();
    let mut q = Matrix::identity(n);
    let mut u = vec![0.0f64; n];
    let mut work = vec![0.0f64; n];
    for j in (0..n.saturating_sub(2)).rev() {
        let rows = n - j - 1;
        u[0] = 1.0;
        for r in 1..rows {
            u[r] = a[(j + 1 + r, j)];
        }
        let ldq = q.ld();
        larf_left(
            &u[..rows],
            tau[j],
            rows,
            n,
            &mut q.as_mut_slice()[j + 1..],
            ldq,
            &mut work,
        );
    }
    q
}

/// Extract the Hessenberg matrix `H` from the factored form (tests).
pub fn hessenberg_of(a: &Matrix) -> Matrix {
    let n = a.rows();
    Matrix::from_fn(n, n, |i, j| if i <= j + 1 { a[(i, j)] } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    #[test]
    fn reduction_reconstructs() {
        let n = 30;
        // General (nonsymmetric) input.
        let a0 = {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(21);
            Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
        };
        let mut a = a0.clone();
        let tau = gehrd(&mut a);
        let q = orghr(&a, &tau);
        assert!(norms::orthogonality(&q) < 200.0);
        let h = hessenberg_of(&a);
        let qhqt = q.multiply(&h).unwrap().multiply(&q.transpose()).unwrap();
        assert!(qhqt.approx_eq(&a0, 1e-11 * n as f64), "Q H Q^T != A");
    }

    #[test]
    fn structure_is_hessenberg() {
        let n = 16;
        let mut a = gen::random_symmetric(n, 22);
        let _ = gehrd(&mut a);
        let h = hessenberg_of(&a);
        for j in 0..n {
            for i in j + 2..n {
                assert_eq!(h[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn gemv_flop_profile() {
        // The HRD must be almost entirely Level-2 flops — Table 2's point.
        let n = 96;
        let a = gen::random_symmetric(n, 23);
        let (_, counts) = tseig_kernels::flops::measure(|| {
            let mut m = a.clone();
            gehrd(&mut m)
        });
        let frac = counts.l2 as f64 / counts.total().max(1) as f64;
        assert!(frac > 0.95, "HRD L2 fraction {frac}");
        // ~10/3 n^3 flops leading order.
        let coeff = counts.total() as f64 / (n as f64).powi(3);
        assert!((2.0..5.0).contains(&coeff), "HRD flops {coeff} n^3");
    }

    #[test]
    fn tiny_sizes() {
        for n in [0usize, 1, 2] {
            let mut a = Matrix::identity(n);
            let tau = gehrd(&mut a);
            assert_eq!(tau.len(), n.saturating_sub(1));
        }
    }
}
