//! Checks of the complex kernels the Hermitian pipeline runs.
//!
//! The Householder, QR and structured BLAS-3 kernels live in
//! `tseig-kernels`, generic over the element type; this module holds no
//! code of its own. Its tests pin the `C64` instantiations the Hermitian
//! stages call against dense complex products, from the caller's side.

#[cfg(test)]
mod tests {
    use tseig_kernels::blas3::engine::gemm_par;
    use tseig_kernels::blas3::{symm_lower_left, syr2k_lower, Op};
    use tseig_kernels::householder::{larf_left, larf_right, larfg, larft};
    use tseig_kernels::qr::geqr2;
    use tseig_matrix::{c64, CMatrix, ComplexScalar, C64};

    fn rand_cmat(m: usize, n: usize, seed: u64) -> CMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        CMatrix::from_fn(m, n, |_, _| {
            c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    fn rand_hermitian(n: usize, seed: u64) -> CMatrix {
        let mut a = rand_cmat(n, n, seed);
        a.hermitize_from_lower();
        a
    }

    #[test]
    fn zgemm_all_ops_vs_naive() {
        let (m, n, k) = (5, 6, 4);
        let a = rand_cmat(m, k, 1);
        let b = rand_cmat(k, n, 2);
        let want = a.multiply(&b);
        let ah = a.adjoint();
        let bh = b.adjoint();
        for (oa, ob, am, bm) in [
            (Op::No, Op::No, &a, &b),
            (Op::ConjTrans, Op::No, &ah, &b),
            (Op::No, Op::ConjTrans, &a, &bh),
            (Op::ConjTrans, Op::ConjTrans, &ah, &bh),
        ] {
            let mut c = CMatrix::zeros(m, n);
            gemm_par(
                oa,
                ob,
                m,
                n,
                k,
                C64::ONE,
                am.as_slice(),
                am.rows(),
                bm.as_slice(),
                bm.rows(),
                C64::ZERO,
                c.as_mut_slice(),
                m,
            );
            assert!(c.max_diff(&want) < 1e-13, "{oa:?} {ob:?}");
        }
    }

    #[test]
    fn zhemm_matches_dense() {
        let n = 7;
        let k = 3;
        let a = rand_hermitian(n, 3);
        let b = rand_cmat(n, k, 4);
        let mut c = CMatrix::zeros(n, k);
        symm_lower_left(
            n,
            k,
            C64::ONE,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            C64::ZERO,
            c.as_mut_slice(),
            n,
        );
        assert!(c.max_diff(&a.multiply(&b)) < 1e-13);
    }

    #[test]
    fn zher2k_matches_dense() {
        let n = 6;
        let k = 3;
        let x = rand_cmat(n, k, 5);
        let y = rand_cmat(n, k, 6);
        let mut a = rand_hermitian(n, 7);
        let want = {
            let mut w = a.clone();
            let xyh = x.multiply(&y.adjoint());
            let yxh = y.multiply(&x.adjoint());
            for j in 0..n {
                for i in 0..n {
                    let adds = (xyh[(i, j)] + yxh[(i, j)]).scale(0.5);
                    w[(i, j)] += adds;
                }
            }
            w.hermitize_from_lower();
            w
        };
        syr2k_lower(
            n,
            k,
            0.5,
            x.as_slice(),
            n,
            y.as_slice(),
            n,
            1.0,
            a.as_mut_slice(),
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!((a[(i, j)] - want[(i, j)]).abs() < 1e-13, "({i},{j})");
            }
        }
    }

    #[test]
    fn zlarfg_real_beta_and_annihilation() {
        let alpha = c64(0.3, -0.7);
        let mut x = vec![c64(1.0, 0.5), c64(-0.2, 0.8)];
        let x0 = x.clone();
        let (beta, tau) = larfg(alpha, &mut x);
        assert_eq!(beta.im(), 0.0, "beta must be real");
        let beta = beta.re();
        // H^H [alpha, x] must equal [beta, 0, 0] with beta real.
        let v = [C64::ONE, x[0], x[1]];
        let orig = [alpha, x0[0], x0[1]];
        // H^H y = y - conj(tau) v (v^H y).
        let vhy: C64 = orig
            .iter()
            .zip(&v)
            .map(|(y, vi)| y.mul_conj(*vi))
            .fold(C64::ZERO, |a, b| a + b);
        let out: Vec<C64> = orig
            .iter()
            .zip(&v)
            .map(|(y, vi)| *y - *vi * tau.conj() * vhy)
            .collect();
        assert!((out[0] - c64(beta, 0.0)).abs() < 1e-13, "{:?}", out[0]);
        assert!(out[1].abs() < 1e-13 && out[2].abs() < 1e-13);
        // |beta| == ||[alpha, x]||.
        let nrm = (alpha.abs2() + x0[0].abs2() + x0[1].abs2()).sqrt();
        assert!((beta.abs() - nrm).abs() < 1e-13);
    }

    #[test]
    fn reflector_unitary() {
        let mut x = vec![c64(0.4, -0.1), c64(0.2, 0.9), c64(-0.6, 0.3)];
        let (_, tau) = larfg(c64(1.0, 0.2), &mut x);
        let mut v = vec![C64::ONE];
        v.extend_from_slice(&x);
        let n = v.len();
        // H = I - tau v v^H; check H H^H = I.
        let h = CMatrix::from_fn(n, n, |i, j| {
            let idp = if i == j { C64::ONE } else { C64::ZERO };
            idp - tau * v[i] * v[j].conj()
        });
        let prod = h.multiply(&h.adjoint());
        assert!(prod.max_diff(&CMatrix::identity(n)) < 1e-13);
    }

    #[test]
    fn zlarf_left_right_match_dense() {
        let (m, n) = (5, 4);
        let mut x = vec![c64(0.3, 0.2), c64(-0.4, 0.6), c64(0.1, -0.9), c64(0.5, 0.0)];
        let (_, tau) = larfg(c64(0.7, -0.3), &mut x);
        let mut v = vec![C64::ONE];
        v.extend_from_slice(&x);
        let h = CMatrix::from_fn(m, m, |i, j| {
            let idp = if i == j { C64::ONE } else { C64::ZERO };
            idp - tau * v[i] * v[j].conj()
        });
        let c0 = rand_cmat(m, n, 9);
        let mut work = vec![C64::ZERO; m.max(n)];

        let mut c = c0.clone();
        larf_left(&v, tau, m, n, c.as_mut_slice(), m, &mut work);
        assert!(c.max_diff(&h.multiply(&c0)) < 1e-13);

        let c0t = rand_cmat(n, m, 10);
        let mut cr = c0t.clone();
        larf_right(&v, tau, n, m, cr.as_mut_slice(), n, &mut work);
        assert!(cr.max_diff(&c0t.multiply(&h)) < 1e-13);
    }

    #[test]
    fn zlarft_block_identity() {
        let m = 7;
        let k = 3;
        let mut v = CMatrix::zeros(m, k);
        let mut taus = vec![C64::ZERO; k];
        for c in 0..k {
            let mut tail: Vec<C64> = (0..m - c - 1)
                .map(|r| {
                    c64(
                        ((r + c) % 3) as f64 * 0.3 - 0.2,
                        ((r * c + 1) % 4) as f64 * 0.25,
                    )
                })
                .collect();
            let (_, tau) = larfg(c64(0.4, 0.1), &mut tail);
            v[(c, c)] = C64::ONE;
            for (r, &val) in tail.iter().enumerate() {
                v[(c + 1 + r, c)] = val;
            }
            taus[c] = tau;
        }
        let mut t = vec![C64::ZERO; k * k];
        larft(m, k, v.as_slice(), m, &taus, &mut t, k);
        // Dense product H_1 H_2 H_3.
        let mut hprod = CMatrix::identity(m);
        for c in 0..k {
            let vc: Vec<C64> = (0..m).map(|r| v[(r, c)]).collect();
            let hc = CMatrix::from_fn(m, m, |i, j| {
                let idp = if i == j { C64::ONE } else { C64::ZERO };
                idp - taus[c] * vc[i] * vc[j].conj()
            });
            hprod = hprod.multiply(&hc);
        }
        // I - V T V^H.
        let tm = CMatrix::from_fn(k, k, |i, j| t[i + j * k]);
        let vtv = v.multiply(&tm).multiply(&v.adjoint());
        let got = CMatrix::from_fn(m, m, |i, j| {
            let idp = if i == j { C64::ONE } else { C64::ZERO };
            idp - vtv[(i, j)]
        });
        assert!(got.max_diff(&hprod) < 1e-12);
    }

    #[test]
    fn zgeqr2_reconstructs() {
        let (m, n) = (8, 5);
        let a0 = rand_cmat(m, n, 11);
        let mut a = a0.clone();
        let mut tau = vec![C64::ZERO; n];
        geqr2(m, n, a.as_mut_slice(), m, &mut tau);
        // Materialize Q by applying reflectors to I in reverse.
        let mut q = CMatrix::identity(m);
        let mut u = vec![C64::ZERO; m];
        let mut work = vec![C64::ZERO; m];
        for j in (0..n).rev() {
            let rows = m - j;
            u[0] = C64::ONE;
            for r in 1..rows {
                u[r] = a[(j + r, j)];
            }
            let ldq = q.ld();
            larf_left(
                &u[..rows],
                tau[j],
                rows,
                m,
                &mut q.as_mut_slice()[j..],
                ldq,
                &mut work,
            );
        }
        let r = CMatrix::from_fn(m, n, |i, j| if i <= j { a[(i, j)] } else { C64::ZERO });
        assert!(q.multiply(&r).max_diff(&a0) < 1e-12, "QR != A");
        // Q unitary.
        assert!(q.multiply(&q.adjoint()).max_diff(&CMatrix::identity(m)) < 1e-12);
    }
}
