//! Entry-point contract tests: every public BLAS-3 kernel must reject
//! undersized leading dimensions, short slices, and aliased in/out
//! operands in debug builds, and (under `paranoid`) NaN/Inf input poison
//! — while never firing on valid calls.
//!
//! The `#[should_panic]` tests are debug-only: contracts compile to
//! nothing in release builds, which the release benchmark relies on.

use proptest::prelude::*;
use tseig_kernels::blas3::{
    diamond_left, gemm, gemm_par, gemm_par_with, gemm_unpacked, symm_lower_left,
    symm_lower_left_par, syr2k_lower, syr2k_lower_par, syrk_lower, trmm_unit_lower_left,
    trmm_upper_left, Trans,
};
use tseig_kernels::cholesky::{hegst, potrf, trsm_left, trsm_right};
use tseig_kernels::householder::{larf_left, larfb_with_work, Side};
use tseig_kernels::qr::geqr2;
use tseig_matrix::{c64, C64};

fn filled(len: usize, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Complex entries with independent real and imaginary parts.
fn cfilled(len: usize, seed: u64) -> Vec<C64> {
    let re = filled(len, seed);
    let im = filled(len, seed + 1000);
    re.iter().zip(&im).map(|(&r, &i)| c64(r, i)).collect()
}

/// Carve an aliased (read, write) view pair from one buffer, the way a
/// caller slicing from leaked or raw-parts storage could. The kernels'
/// alias contract must abort before a single element is dereferenced, so
/// the overlap is never actually exercised.
fn aliased_pair<T>(buf: &mut [T]) -> (&[T], &mut [T]) {
    let ptr = buf.as_mut_ptr();
    let len = buf.len();
    // SAFETY: both views cover one live allocation; the contract under
    // test panics on the pointer ranges before any element access.
    let r = unsafe { std::slice::from_raw_parts(ptr, len) }; // tidy: allow(unsafe-allowlist) -- alias-contract test

    // SAFETY: as above — aborted by the contract before any access.
    let w = unsafe { std::slice::from_raw_parts_mut(ptr, len) }; // tidy: allow(unsafe-allowlist) -- alias-contract test
    (r, w)
}

// ---------------------------------------------------------------------
// Bad leading dimension / short slice, one test per public entry point.
// ---------------------------------------------------------------------

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn gemm_rejects_small_lda() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 16];
    // a is the No-trans 4 x 2 operand: lda must be >= 4.
    gemm(
        Trans::No,
        Trans::No,
        4,
        4,
        2,
        1.0,
        &a,
        3,
        &b,
        2,
        0.0,
        &mut c,
        4,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn gemm_par_rejects_short_b() {
    let a = filled(8, 1);
    let b = filled(5, 2); // needs (4-1)*2 + 2 = 8
    let mut c = vec![0.0; 16];
    gemm_par(
        Trans::No,
        Trans::No,
        4,
        4,
        2,
        1.0,
        &a,
        4,
        &b,
        2,
        0.0,
        &mut c,
        4,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn gemm_par_with_rejects_small_ldc() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 16];
    gemm_par_with(
        2,
        Trans::No,
        Trans::No,
        4,
        4,
        2,
        1.0,
        &a,
        4,
        &b,
        2,
        0.0,
        &mut c,
        3,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn gemm_unpacked_rejects_small_lda() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 16];
    gemm_unpacked(
        Trans::No,
        Trans::No,
        4,
        4,
        2,
        1.0,
        &a,
        3,
        &b,
        2,
        0.0,
        &mut c,
        4,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn syrk_rejects_short_a() {
    let a = filled(7, 1); // No-trans 4 x 2 operand needs 1*4 + 4 = 8
    let mut c = vec![0.0; 16];
    syrk_lower(Trans::No, 4, 2, 1.0, &a, 4, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn syr2k_rejects_small_ldb() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 16];
    syr2k_lower(4, 2, 1.0, &a, 4, &b, 3, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn syr2k_par_rejects_short_c() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 15]; // needs 3*4 + 4 = 16
    syr2k_lower_par(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn symm_rejects_small_lda() {
    let a = filled(16, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 8];
    symm_lower_left(4, 2, 1.0, &a, 3, &b, 4, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn symm_par_rejects_short_b() {
    let a = filled(16, 1);
    let b = filled(7, 2); // 4 x 2 with ldb 4 needs 8
    let mut c = vec![0.0; 8];
    symm_lower_left_par(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn trmm_rejects_small_ldt() {
    let t = filled(16, 1);
    let mut b = vec![0.0; 16];
    trmm_upper_left(Trans::No, 4, 4, 1.0, &t, 3, &mut b, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn trmm_unit_lower_rejects_small_ldl() {
    let l = filled(16, 1);
    let mut b = vec![0.0; 16];
    trmm_unit_lower_left(Trans::No, 4, 4, &l, 3, &mut b, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn trmm_unit_lower_rejects_short_b() {
    let l = filled(16, 1);
    let mut b = vec![0.0; 15]; // 4 x 4 with ldb 4 needs 16
    trmm_unit_lower_left(Trans::Yes, 4, 4, &l, 4, &mut b, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn diamond_left_rejects_small_ldc() {
    // A 3-reflector diamond of height 5 (band 3): C needs ldc >= 5.
    let (v, t) = (filled(15, 1), filled(9, 2));
    let mut c = filled(20, 3);
    let mut work = vec![0.0; 12];
    diamond_left(3, 5, 3, &v, 5, &t, 3, &mut c, 4, 4, &mut work);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn diamond_left_rejects_small_ldv() {
    let (v, t) = (filled(15, 1), filled(9, 2));
    let mut c = filled(20, 3);
    let mut work = vec![0.0; 12];
    diamond_left(3, 5, 3, &v, 4, &t, 3, &mut c, 5, 4, &mut work);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn diamond_left_rejects_short_work() {
    let (v, t) = (filled(15, 1), filled(9, 2));
    let mut c = filled(20, 3);
    let mut work = vec![0.0; 11]; // k x n = 3 x 4 needs 12
    diamond_left(3, 5, 3, &v, 5, &t, 3, &mut c, 5, 4, &mut work);
}

// ---------------------------------------------------------------------
// Aliased in/out operands.
// ---------------------------------------------------------------------

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn diamond_left_rejects_aliased_v_and_c() {
    let t = filled(9, 2);
    let mut buf = filled(20, 1);
    let (v, c) = aliased_pair(&mut buf);
    let mut work = vec![0.0; 12];
    diamond_left(3, 5, 3, v, 5, &t, 3, c, 5, 4, &mut work);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn gemm_rejects_aliased_a_and_c() {
    let mut buf = filled(16, 1);
    let b = filled(16, 2);
    let (a, c) = aliased_pair(&mut buf);
    gemm(Trans::No, Trans::No, 4, 4, 4, 1.0, a, 4, &b, 4, 0.0, c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn syr2k_rejects_aliased_b_and_c() {
    let a = filled(8, 1);
    let mut buf = filled(16, 2);
    let (b, c) = aliased_pair(&mut buf);
    syr2k_lower(4, 2, 1.0, &a, 4, b, 4, 0.0, c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn symm_rejects_aliased_b_and_c() {
    let a = filled(16, 1);
    let mut buf = filled(16, 2);
    let (b, c) = aliased_pair(&mut buf);
    symm_lower_left(4, 2, 1.0, &a, 4, b, 4, 0.0, c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn trmm_rejects_aliased_t_and_b() {
    let mut buf = filled(16, 1);
    let (t, b) = aliased_pair(&mut buf);
    trmm_upper_left(Trans::No, 4, 4, 1.0, t, 4, b, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn trmm_unit_lower_rejects_aliased_l_and_b() {
    let mut buf = filled(16, 1);
    let (l, b) = aliased_pair(&mut buf);
    trmm_unit_lower_left(Trans::No, 4, 4, l, 4, b, 4);
}

// ---------------------------------------------------------------------
// The generic entry points at C64: the same contracts guard the complex
// instances.
// ---------------------------------------------------------------------

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn larf_left_rejects_small_ldc_c64() {
    let u = cfilled(4, 1);
    let mut c = cfilled(16, 2);
    let mut work = vec![C64::ZERO; 4];
    larf_left(&u, C64::ONE, 4, 4, &mut c, 3, &mut work);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn larfb_rejects_small_ldv_c64() {
    let (v, t) = (cfilled(8, 1), cfilled(4, 2));
    let mut c = cfilled(12, 3);
    let mut work = vec![C64::ZERO; 12];
    larfb_with_work(
        Side::Left,
        Trans::No,
        4,
        3,
        2,
        &v,
        3,
        &t,
        2,
        &mut c,
        4,
        &mut work,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn geqr2_rejects_small_lda_c64() {
    let mut a = cfilled(12, 1);
    let mut tau = vec![C64::ZERO; 3];
    geqr2(4, 3, &mut a, 3, &mut tau);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn potrf_rejects_small_lda_c64() {
    let mut a = cfilled(16, 1);
    let _ = potrf(4, &mut a, 3, 2);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn trsm_left_rejects_short_b_c64() {
    let l = cfilled(16, 1);
    let mut b = cfilled(7, 2); // 4 x 2 with ldb 4 needs 8
    trsm_left(Trans::Yes, 4, 2, C64::ONE, &l, 4, &mut b, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn hegst_rejects_small_ldl_c64() {
    let mut a = cfilled(16, 1);
    let l = cfilled(16, 2);
    hegst(4, &mut a, 4, &l, 3);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn syr2k_rejects_small_ldb_c64() {
    let (a, b) = (cfilled(8, 1), cfilled(8, 2));
    let mut c = cfilled(16, 3);
    syr2k_lower(4, 2, 1.0, &a, 4, &b, 3, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn symm_par_rejects_short_b_c64() {
    let a = cfilled(16, 1);
    let b = cfilled(7, 2);
    let mut c = cfilled(8, 3);
    symm_lower_left_par(4, 2, C64::ONE, &a, 4, &b, 4, C64::ZERO, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn trmm_rejects_small_ldt_c64() {
    let t = cfilled(16, 1);
    let mut b = cfilled(16, 2);
    trmm_upper_left(Trans::Yes, 4, 4, C64::ONE, &t, 3, &mut b, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn larf_left_rejects_aliased_u_and_c_c64() {
    let mut buf = cfilled(16, 1);
    let (u, c) = aliased_pair(&mut buf);
    let mut work = vec![C64::ZERO; 4];
    larf_left(u, C64::ONE, 4, 4, c, 4, &mut work);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn larfb_rejects_aliased_v_and_c_c64() {
    let t = cfilled(4, 1);
    let mut buf = cfilled(16, 2);
    let (v, c) = aliased_pair(&mut buf);
    let mut work = vec![C64::ZERO; 12];
    larfb_with_work(Side::Left, Trans::No, 4, 3, 2, v, 4, &t, 2, c, 4, &mut work);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn trsm_right_rejects_aliased_l_and_b_c64() {
    let mut buf = cfilled(16, 1);
    let (l, b) = aliased_pair(&mut buf);
    trsm_right(4, 4, l, 4, b, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn symm_rejects_aliased_b_and_c_c64() {
    let a = cfilled(16, 1);
    let mut buf = cfilled(16, 2);
    let (b, c) = aliased_pair(&mut buf);
    symm_lower_left(4, 2, C64::ONE, &a, 4, b, 4, C64::ZERO, c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn diamond_left_rejects_aliased_t_and_c_c64() {
    let v = cfilled(15, 1);
    let mut buf = cfilled(20, 2);
    let (t, c) = aliased_pair(&mut buf);
    let mut work = vec![C64::ZERO; 12];
    diamond_left(3, 5, 3, &v, 5, t, 3, c, 5, 4, &mut work);
}

// ---------------------------------------------------------------------
// `paranoid`: NaN/Inf input poison detection, scoped to the read set.
// ---------------------------------------------------------------------

#[cfg(feature = "paranoid")]
mod paranoid {
    use super::*;
    use tseig_kernels::householder::{larfg, larft};

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn gemm_catches_nan_in_a() {
        let mut a = filled(8, 1);
        a[5] = f64::NAN;
        let b = filled(8, 2);
        let mut c = vec![0.0; 16];
        gemm(
            Trans::No,
            Trans::No,
            4,
            4,
            2,
            1.0,
            &a,
            4,
            &b,
            2,
            0.0,
            &mut c,
            4,
        );
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn syrk_catches_inf_in_a() {
        let mut a = filled(8, 1);
        a[0] = f64::INFINITY;
        let mut c = vec![0.0; 16];
        syrk_lower(Trans::No, 4, 2, 1.0, &a, 4, 0.0, &mut c, 4);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn symm_catches_nan_in_lower_triangle() {
        let mut a = filled(16, 1);
        a[2] = f64::NAN; // (2, 0): strictly lower, inside the read set
        let b = filled(8, 2);
        let mut c = vec![0.0; 8];
        symm_lower_left(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    fn symm_ignores_nan_in_mirrored_triangle() {
        // The strictly-upper triangle of a `symm_lower_left` operand is
        // outside the read contract; poison there must not fire.
        let mut a = filled(16, 1);
        a[4] = f64::NAN; // (0, 1): strictly upper
        let b = filled(8, 2);
        let mut c = vec![0.0; 8];
        symm_lower_left(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
        assert!(c.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn trmm_catches_nan_in_upper_triangle() {
        let mut t = filled(16, 1);
        t[4] = f64::NAN; // (0, 1): inside the upper read set
        let mut b = vec![0.0; 16];
        trmm_upper_left(Trans::No, 4, 4, 1.0, &t, 4, &mut b, 4);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn larfg_catches_nan_imaginary_part_c64() {
        let mut x = cfilled(4, 1);
        x[2] = c64(0.5, f64::NAN);
        larfg(C64::ONE, &mut x);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn larft_catches_inf_in_tau_c64() {
        let v = cfilled(8, 1);
        let mut tau = cfilled(2, 2);
        tau[1] = c64(f64::INFINITY, 0.0);
        let mut t = vec![C64::ZERO; 4];
        larft(4, 2, &v, 4, &tau, &mut t, 2);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn potrf_catches_nan_in_lower_triangle_c64() {
        let mut a = cfilled(16, 1);
        a[3] = c64(f64::NAN, 0.0); // (3, 0): strictly lower
        let _ = potrf(4, &mut a, 4, 2);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn trsm_right_catches_nan_in_b_c64() {
        let l = cfilled(16, 1);
        let mut b = cfilled(16, 2);
        b[9] = c64(0.0, f64::NAN);
        trsm_right(4, 4, &l, 4, &mut b, 4);
    }
}

// ---------------------------------------------------------------------
// Contracts never fire on valid calls.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random well-formed calls — arbitrary shapes, slack in every
    /// leading dimension — must pass every contract (a panic fails the
    /// test) and produce finite output.
    #[test]
    fn contracts_accept_valid_calls(
        m in 1usize..20, n in 1usize..20, k in 1usize..20,
        sa in 0usize..3, sb in 0usize..3, sc in 0usize..3,
        seed in 0u64..500,
    ) {
        // gemm: C (m x n) += A (m x k) B (k x n), padded strides.
        let (lda, ldb, ldc) = (m + sa, k + sb, m + sc);
        let a = filled(lda * k, seed);
        let b = filled(ldb * n, seed + 1);
        let mut c = vec![0.0; ldc * n];
        gemm(Trans::No, Trans::No, m, n, k, 1.0, &a, lda, &b, ldb, 0.5, &mut c, ldc);
        prop_assert!(c.iter().all(|v| v.is_finite()));

        // syrk/syr2k: C (n x n, lower) from n x k operands.
        let ldx = n + sa;
        let x = filled(ldx * k, seed + 2);
        let y = filled(ldx * k, seed + 3);
        let lds = n + sc;
        let mut s = vec![0.0; lds * n];
        syrk_lower(Trans::No, n, k, 1.0, &x, ldx, 0.0, &mut s, lds);
        syr2k_lower(n, k, 1.0, &x, ldx, &y, ldx, 1.0, &mut s, lds);
        prop_assert!(s.iter().all(|v| v.is_finite()));

        // symm: C (m x k) = A (m x m, lower) B (m x k).
        let ldsy = m + sb;
        let sym = filled(ldsy * m, seed + 4);
        let rhs = filled((m + sa) * k, seed + 5);
        let mut out = vec![0.0; (m + sc) * k];
        symm_lower_left(m, k, 1.0, &sym, ldsy, &rhs, m + sa, 0.0, &mut out, m + sc);
        prop_assert!(out.iter().all(|v| v.is_finite()));

        // trmm: B (k x n) = T (k x k, upper) B.
        let ldt = k + sa;
        let t = filled(ldt * k, seed + 6);
        let mut rhs2 = filled((k + sb) * n, seed + 7);
        trmm_upper_left(Trans::Yes, k, n, 1.0, &t, ldt, &mut rhs2, k + sb);
        prop_assert!(rhs2.iter().all(|v| v.is_finite()));

        // trmm_unit_lower_left: B (k x n) = L (k x k, unit lower) B.
        trmm_unit_lower_left(Trans::No, k, n, &t, ldt, &mut rhs2, k + sb);
        prop_assert!(rhs2.iter().all(|v| v.is_finite()));

        // diamond_left: C (h x n) -= V T V^T C, V an h x k diamond of
        // band m.
        let h = k + m - 1;
        let v = filled((h + sa) * k, seed + 8);
        let mut cd = filled((h + sc) * n, seed + 9);
        let mut work = vec![0.0; k * n];
        diamond_left(k, h, m, &v, h + sa, &t, ldt, &mut cd, h + sc, n, &mut work);
        prop_assert!(cd.iter().all(|v| v.is_finite()));
    }
}
