//! One-stage bidiagonal reduction (`dgebd2`-class).
//!
//! Reproduces the *second row of the paper's Table 2* (BRD = 4 `gemv`
//! per element) and the §4.1 complexity comparison against the authors'
//! earlier SVD work: the bidiagonalization of a general matrix costs
//! `8/3 n^3` — double the symmetric reduction — because symmetry cannot
//! be exploited, and every flop is `gemv`-class memory-bound in the
//! one-stage form.

use tseig_kernels::contract;
use tseig_kernels::householder::{larf_left, larf_right, larfg};
use tseig_matrix::{Ctrl, Matrix, Result};

/// `(tauq, taup, d, e)`: the left/right reflector scalars and the
/// bidiagonal (`d` diagonal, `e` super-diagonal).
pub type Bidiagonal = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

/// Reduce an `m x n` matrix (`m >= n`) to upper bidiagonal form in
/// place: `A = Q B P^T`. The left reflector `j` is stored below the
/// diagonal of column `j`, the right one right of the superdiagonal of
/// row `j`.
pub fn gebrd(a: &mut Matrix) -> Bidiagonal {
    match gebrd_with(a, &Ctrl::NONE) {
        Ok(r) => r,
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`gebrd`] under a request control: polls `ctrl` once per column, so
/// a cancel or expired deadline aborts the reduction with the
/// structured error (`a` is then partly reduced).
pub fn gebrd_with(a: &mut Matrix, ctrl: &Ctrl) -> Result<Bidiagonal> {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "gebrd expects m >= n (tall)");
    let lda = a.ld();
    if contract::enabled() {
        contract::require_mat("gebrd", "a", a.as_slice(), m, n, lda);
        contract::require_finite_mat("gebrd", "a", a.as_slice(), m, n, lda);
    }
    let mut tauq = vec![0.0f64; n];
    let mut taup = vec![0.0f64; n.saturating_sub(1)];
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n.saturating_sub(1)];
    let mut u = vec![0.0f64; m.max(n)];
    let mut work = vec![0.0f64; m.max(n)];

    for j in 0..n {
        ctrl.checkpoint()?;
        // Left reflector: annihilate column j below the diagonal.
        let rows = m - j;
        let (beta, tq) = {
            let col = &mut a.as_mut_slice()[j * lda..j * lda + m];
            let (head, tail) = col.split_at_mut(j + 1);
            larfg(head[j], &mut tail[..m - j - 1])
        };
        tauq[j] = tq;
        d[j] = beta;
        if tq != 0.0 && j + 1 < n {
            u[0] = 1.0;
            for r in 1..rows {
                u[r] = a[(j + r, j)];
            }
            larf_left(
                &u[..rows],
                tq,
                rows,
                n - j - 1,
                &mut a.as_mut_slice()[j + (j + 1) * lda..],
                lda,
                &mut work,
            );
        }
        // Right reflector: annihilate row j beyond the super-diagonal.
        if j + 1 < n {
            let cols = n - j - 1;
            // Gather row j, columns j+1..n.
            for (c, uc) in u.iter_mut().take(cols).enumerate() {
                *uc = a[(j, j + 1 + c)];
            }
            let (head, tail) = u.split_at_mut(1);
            let (beta_r, tp) = larfg(head[0], &mut tail[..cols - 1]);
            taup[j] = tp;
            e[j] = beta_r;
            u[0] = 1.0;
            if tp != 0.0 && j + 1 < m {
                larf_right(
                    &u[..cols],
                    tp,
                    m - j - 1,
                    cols,
                    &mut a.as_mut_slice()[(j + 1) + (j + 1) * lda..],
                    lda,
                    &mut work,
                );
            }
            // Store the right reflector tail in row j.
            for c in 0..cols {
                a[(j, j + 1 + c)] = u[c];
            }
            a[(j, j + 1)] = beta_r;
        }
    }
    Ok((tauq, taup, d, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::gen;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn singular_values_preserved() {
        // The bidiagonal form has the same singular values as A, i.e.
        // B^T B has the same eigenvalues as A^T A.
        let (m, n) = (24, 18);
        let a0 = rand_mat(m, n, 31);
        let mut a = a0.clone();
        let (_, _, d, e) = gebrd(&mut a);
        // Build B^T B (tridiagonal-ish) densely from (d, e).
        let mut b = Matrix::zeros(n, n);
        for j in 0..n {
            b[(j, j)] = d[j];
            if j + 1 < n {
                b[(j, j + 1)] = e[j];
            }
        }
        let btb = b.transpose().multiply(&b).unwrap();
        let ata = a0.transpose().multiply(&a0).unwrap();
        let want = tseig_kernels::reference::jacobi_eigen(&ata, false)
            .unwrap()
            .eigenvalues;
        let got = tseig_kernels::reference::jacobi_eigen(&btb, false)
            .unwrap()
            .eigenvalues;
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&got, &want) < 1e-9,
            "singular values changed"
        );
    }

    #[test]
    fn gemv_flop_profile() {
        // BRD is entirely Level-2 — Table 2's point — and costs
        // ~8/3 n^3 for square input (vs 4/3 for the symmetric TRD).
        let n = 96;
        let a = gen::random_symmetric(n, 32);
        let (_, counts) = tseig_kernels::flops::measure(|| {
            let mut m = a.clone();
            gebrd(&mut m)
        });
        let frac = counts.l2 as f64 / counts.total().max(1) as f64;
        assert!(frac > 0.95, "BRD L2 fraction {frac}");
        let coeff = counts.total() as f64 / (n as f64).powi(3);
        assert!((1.8..3.6).contains(&coeff), "BRD flops {coeff} n^3");
    }

    #[test]
    fn square_and_tall() {
        for (m, n) in [(10, 10), (20, 12), (3, 1)] {
            let a0 = rand_mat(m, n, (m * 100 + n) as u64);
            let mut a = a0.clone();
            let (tauq, taup, d, e) = gebrd(&mut a);
            assert_eq!(tauq.len(), n);
            assert_eq!(taup.len(), n.saturating_sub(1));
            assert_eq!(d.len(), n);
            assert_eq!(e.len(), n.saturating_sub(1));
        }
    }
}
