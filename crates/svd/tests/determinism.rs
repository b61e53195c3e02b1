//! SVD solves must give the same bits under every scheduler, thread
//! budget and SIMD path, and those bits are pinned.
//!
//! The one-stage back-transform runs its reflector panels either in the
//! planned serial loop (`Serial`) or over column panels on the pool
//! (any other scheduler); every output element is computed by the same
//! kernel sequence either way. The two-stage chase runs the same tasks
//! in a dependency-respecting order, and its `Q1`/`P1` panels go through
//! the same column-panel loop. So `Serial` and `Static(2)` agree bitwise,
//! and the pins below hold under any `RAYON_NUM_THREADS` and
//! `TSEIG_SIMD`.

use tseig_matrix::{norms, Matrix};
use tseig_svd::drivers::svd_residual;
use tseig_svd::stage2::Stage2Exec;
use tseig_svd::{GeSvd, Svd, SvdMethod};

fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
}

/// FNV-1a over the bits of `s`, `U` and `V`.
///
/// The pins were recorded when the one-stage back-transform moved to
/// blocked reflector panels, with the residual and orthogonality
/// checked alongside.
fn svd_hash(r: &Svd) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in r.s.iter().chain(r.u.as_slice()).chain(r.v.as_slice()) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pinned(label: &str, a: &Matrix, method: SvdMethod, want: u64) {
    for scheduler in [Stage2Exec::Serial, Stage2Exec::Static(2)] {
        let r = GeSvd::new()
            .method(method)
            .scheduler(scheduler)
            .solve(a)
            .unwrap();
        let res = svd_residual(a, &r);
        let orth = norms::orthogonality(&r.u).max(norms::orthogonality(&r.v));
        assert!(res < 500.0, "{label} {scheduler:?}: residual {res}");
        assert!(orth < 200.0, "{label} {scheduler:?}: orthogonality {orth}");
        assert_eq!(svd_hash(&r), want, "{label} {scheduler:?}: solve bits");
    }
}

#[test]
fn one_stage_square_solve_is_pinned() {
    pinned(
        "one-stage 130x130",
        &rand_mat(130, 130, 61),
        SvdMethod::OneStage,
        0x3741_c7f2_6ee2_ca32,
    );
}

#[test]
fn one_stage_tall_solve_is_pinned() {
    pinned(
        "one-stage 150x97",
        &rand_mat(150, 97, 62),
        SvdMethod::OneStage,
        0x41c9_e4a6_6c0f_7412,
    );
}

#[test]
fn two_stage_square_solve_is_pinned() {
    pinned(
        "two-stage 130x130",
        &rand_mat(130, 130, 63),
        SvdMethod::TwoStage,
        0xf37c_d87c_5325_c000,
    );
}

/// FNV-1a over the bits of `d`, `U` and `V` of a direct `bdsqr` run.
fn bdsqr_hash(d: &[f64], u: &Matrix, v: &Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in d.iter().chain(u.as_slice()).chain(v.as_slice()) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn singular_bidiagonal_bdsqr_is_pinned() {
    // Exact zeros on the diagonal send `bdsqr` through the row
    // annihilation (fixed-pivot rotations of `U`) as well as the
    // Golub-Kahan sweeps; n = 90 spans several 32-row strips. Recorded
    // before the rotations were deferred, with the reconstruction and
    // orthogonality checked alongside (max |B - U S V^T| 9.8e-15,
    // orthogonality 0.4).
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let n = 90;
    let mut rng = StdRng::seed_from_u64(64);
    let mut d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let mut e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for k in [0, 17, 40, 41, 89] {
        d[k] = 0.0;
    }
    let b = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            d[i]
        } else if j == i + 1 {
            e[i]
        } else {
            0.0
        }
    });
    let (mut u, mut v) = (Matrix::identity(n), Matrix::identity(n));
    tseig_svd::bdsqr(&mut d, &mut e, Some(&mut u), Some(&mut v)).unwrap();
    let sig = Matrix::from_fn(n, n, |i, j| if i == j { d[i] } else { 0.0 });
    let recon = u.multiply(&sig).unwrap().multiply(&v.transpose()).unwrap();
    let mut res = 0.0f64;
    for j in 0..n {
        for i in 0..n {
            res = res.max((recon[(i, j)] - b[(i, j)]).abs());
        }
    }
    let orth = norms::orthogonality(&u).max(norms::orthogonality(&v));
    assert!(res < 1e-13, "reconstruction {res:e}");
    assert!(orth < 200.0, "orthogonality {orth}");
    assert!(
        d[n - 1] < 1e-12,
        "zero singular value not found: {}",
        d[n - 1]
    );
    assert_eq!(bdsqr_hash(&d, &u, &v), 0x8ce9_eac4_71e9_e6a1, "bdsqr bits");
}
