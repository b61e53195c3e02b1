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
