//! Differential tests for the per-type SIMD dispatch paths of the
//! generic packed engine (f32 / C32 / C64; the `f64` table has its own
//! suite in `simd_dispatch.rs`).
//!
//! Two independent contracts are pinned here:
//!
//! 1. **Bitwise path equivalence.** Every kernel `T::available()`
//!    reports must agree *bitwise* with that type's portable scalar
//!    microkernel: the complex kernels keep two k-ordered real FMA
//!    chains per `C(i, j)` and combine them with the one shared scalar
//!    routine, so vector width must not change a single bit. The
//!    `TSEIG_SIMD` override is process-global, so the cross-value runs
//!    (`scalar`/`avx2`/`avx512`) live in the CI matrix, not here.
//! 2. **Correctness against a naive oracle.** The packed engine with
//!    the *selected* kernel matches a textbook triple loop evaluated at
//!    higher precision, within a k-scaled tolerance, over ragged shapes
//!    and all `Op` combinations (`No`/`Trans`/`ConjTrans`) — this is
//!    what certifies the conjugation-in-packing fold.

use proptest::prelude::*;
use tseig_kernels::blas3::engine::{gemm, gemm_par, gemm_with_kernel, zgemm_oracle, GemmScalar};
use tseig_kernels::blas3::simd::SimdScalar;
use tseig_kernels::blas3::Op;
use tseig_matrix::{c64, C32, C64};

/// Exact bit-pattern equality per element type (plain `==` would let
/// `-0.0 == 0.0` and NaN mismatches slip through).
trait BitEq: Copy {
    fn bit_eq(self, other: Self) -> bool;
}

impl BitEq for f32 {
    fn bit_eq(self, other: Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl BitEq for f64 {
    fn bit_eq(self, other: Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl BitEq for C32 {
    fn bit_eq(self, other: Self) -> bool {
        self.re.to_bits() == other.re.to_bits() && self.im.to_bits() == other.im.to_bits()
    }
}

impl BitEq for C64 {
    fn bit_eq(self, other: Self) -> bool {
        self.re.to_bits() == other.re.to_bits() && self.im.to_bits() == other.im.to_bits()
    }
}

fn rand_pairs(len: usize, seed: u64) -> Vec<(f64, f64)> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

fn op_dims(op: Op, rows: usize, cols: usize) -> (usize, usize) {
    match op {
        Op::No => (rows, cols),
        Op::Trans | Op::ConjTrans => (cols, rows),
    }
}

/// Run one shape through every available dispatch path of `T` and
/// require bitwise agreement with `T`'s scalar kernel (always the last
/// entry of the availability table).
#[allow(clippy::too_many_arguments)]
fn check_all_paths<T: GemmScalar + BitEq + std::fmt::Debug>(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    beta: T,
    seed: u64,
    from: impl Fn(f64, f64) -> T,
) {
    let (am, an) = op_dims(opa, m, k);
    let (bm, bn) = op_dims(opb, k, n);
    let a: Vec<T> = rand_pairs((am * an).max(1), seed)
        .into_iter()
        .map(|(x, y)| from(x, y))
        .collect();
    let b: Vec<T> = rand_pairs((bm * bn).max(1), seed + 1)
        .into_iter()
        .map(|(x, y)| from(x, y))
        .collect();
    let c0: Vec<T> = rand_pairs(m * n, seed + 2)
        .into_iter()
        .map(|(x, y)| from(x, y))
        .collect();

    let avail = T::available();
    let scalar = *avail.last().unwrap();
    let mut want = c0.clone();
    gemm_with_kernel(
        scalar,
        opa,
        opb,
        m,
        n,
        k,
        alpha,
        &a,
        am.max(1),
        &b,
        bm.max(1),
        beta,
        &mut want,
        m,
    );

    for kern in avail {
        let mut got = c0.clone();
        gemm_with_kernel(
            kern,
            opa,
            opb,
            m,
            n,
            k,
            alpha,
            &a,
            am.max(1),
            &b,
            bm.max(1),
            beta,
            &mut got,
            m,
        );
        for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.bit_eq(w),
                "kernel {} not bitwise equal to scalar at flat index {idx} \
                 (opa={opa:?} opb={opb:?} m={m} n={n} k={k} got={g:?} want={w:?})",
                kern.name
            );
        }
    }
}

/// Naive triple-loop oracle in the *wide* complex type: `op` semantics
/// spelled out entry-wise, accumulation in C64 regardless of `T`.
#[allow(clippy::too_many_arguments)]
fn naive_gemm_c64(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: C64,
    a: &[C64],
    lda: usize,
    b: &[C64],
    ldb: usize,
    beta: C64,
    c: &mut [C64],
    ldc: usize,
) {
    let fetch = |op: Op, s: &[C64], ld: usize, i: usize, j: usize| match op {
        Op::No => s[i + j * ld],
        Op::Trans => s[j + i * ld],
        Op::ConjTrans => s[j + i * ld].conj(),
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = C64::ZERO;
            for p in 0..k {
                acc += fetch(opa, a, lda, i, p) * fetch(opb, b, ldb, p, j);
            }
            c[i + j * ldc] = alpha * acc + beta * c[i + j * ldc];
        }
    }
}

const ALL_OPS: [Op; 3] = [Op::No, Op::Trans, Op::ConjTrans];

fn op_from(sel: u8) -> Op {
    ALL_OPS[sel as usize % 3]
}

// ---------------------------------------------------------------------
// Dispatch-table sanity per element type.
// ---------------------------------------------------------------------

fn check_table<T: SimdScalar>() {
    let avail = T::available();
    assert_eq!(avail.last().unwrap().name, "scalar");
    let mut names: Vec<&str> = avail.iter().map(|k| k.name).collect();
    names.dedup();
    assert_eq!(names.len(), avail.len(), "duplicate kernel names");
    assert!(avail.iter().any(|k| std::ptr::eq(*k, T::selected())));
    for k in avail {
        assert!(std::ptr::eq(T::by_name(k.name).unwrap(), *k));
    }
}

#[test]
fn dispatch_tables_cover_this_machine_per_type() {
    check_table::<f32>();
    check_table::<f64>();
    check_table::<C32>();
    check_table::<C64>();
    // The four tables expose the same ISA names on one machine: the
    // complex and f32 kernels gate on the same feature detection.
    let names = |v: &[&'static str]| v.join(",");
    let f64n: Vec<_> = <f64 as SimdScalar>::available()
        .iter()
        .map(|k| k.name)
        .collect();
    for (t, got) in [
        (
            "f32",
            <f32 as SimdScalar>::available()
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>(),
        ),
        (
            "C32",
            <C32 as SimdScalar>::available()
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>(),
        ),
        (
            "C64",
            <C64 as SimdScalar>::available()
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>(),
        ),
    ] {
        assert_eq!(names(&got), names(&f64n), "{t} table diverges from f64");
    }
}

// ---------------------------------------------------------------------
// Deterministic tail-shape sweeps, bitwise across paths.
// ---------------------------------------------------------------------

fn tail_dims<T: SimdScalar>() -> Vec<usize> {
    let mut dims: Vec<usize> = vec![1, 2, 3];
    for kern in T::available() {
        dims.extend_from_slice(&[kern.mr - 1, kern.mr, kern.mr + 1, kern.nr, kern.nr + 1]);
    }
    dims.sort_unstable();
    dims.dedup();
    dims.retain(|&d| d > 0);
    dims
}

#[test]
fn c64_paths_match_scalar_on_tail_shapes() {
    let mut seed = 2000;
    for &m in &tail_dims::<C64>() {
        for &n in &tail_dims::<C64>() {
            for k in [1usize, 7, 255, 256, 257] {
                seed += 3;
                check_all_paths(
                    Op::No,
                    Op::ConjTrans,
                    m,
                    n,
                    k,
                    C64::ONE,
                    C64 { re: 0.5, im: -1.0 },
                    seed,
                    |x, y| C64 { re: x, im: y },
                );
            }
        }
    }
}

#[test]
fn c32_paths_match_scalar_on_tail_shapes() {
    let mut seed = 3000;
    for &m in &tail_dims::<C32>() {
        for &n in &tail_dims::<C32>() {
            for k in [1usize, 7, 255, 256, 257] {
                seed += 3;
                check_all_paths(
                    Op::No,
                    Op::ConjTrans,
                    m,
                    n,
                    k,
                    C32 { re: 1.0, im: 0.0 },
                    C32 { re: 0.5, im: -1.0 },
                    seed,
                    |x, y| C32 {
                        re: x as f32,
                        im: y as f32,
                    },
                );
            }
        }
    }
}

#[test]
fn f32_paths_match_scalar_on_tail_shapes() {
    let mut seed = 4000;
    for &m in &tail_dims::<f32>() {
        for &n in &tail_dims::<f32>() {
            for k in [1usize, 7, 255, 256, 257] {
                seed += 3;
                check_all_paths(Op::No, Op::No, m, n, k, 1.0f32, 1.0f32, seed, |x, _| {
                    x as f32
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Ragged all-Op property tests: bitwise across paths, and the selected
// path against the wide naive oracle.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn c64_paths_match_scalar_ragged(
        m in 1usize..40, n in 1usize..40, k in 0usize..280,
        ar in -2.0f64..2.0, ai in -2.0f64..2.0,
        br in -2.0f64..2.0, bi in -2.0f64..2.0,
        opa in 0u8..3, opb in 0u8..3, seed in 0u64..10_000,
    ) {
        check_all_paths(
            op_from(opa), op_from(opb), m, n, k,
            C64 { re: ar, im: ai }, C64 { re: br, im: bi },
            seed, |x, y| C64 { re: x, im: y },
        );
    }

    #[test]
    fn c32_paths_match_scalar_ragged(
        m in 1usize..40, n in 1usize..40, k in 0usize..280,
        ar in -2.0f64..2.0, ai in -2.0f64..2.0,
        br in -2.0f64..2.0, bi in -2.0f64..2.0,
        opa in 0u8..3, opb in 0u8..3, seed in 0u64..10_000,
    ) {
        check_all_paths(
            op_from(opa), op_from(opb), m, n, k,
            C32 { re: ar as f32, im: ai as f32 }, C32 { re: br as f32, im: bi as f32 },
            seed + 20_000, |x, y| C32 { re: x as f32, im: y as f32 },
        );
    }

    #[test]
    fn f32_paths_match_scalar_ragged(
        m in 1usize..60, n in 1usize..60, k in 0usize..280,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        opa in 0u8..3, opb in 0u8..3, seed in 0u64..10_000,
    ) {
        check_all_paths(
            op_from(opa), op_from(opb), m, n, k, alpha as f32, beta as f32,
            seed + 40_000, |x, _| x as f32,
        );
    }

    /// The C32 engine (selected path, conj folded into packing) against
    /// the naive C64 triple loop: `|err| <= fudge * (k+2) * eps_f32 *
    /// scale`, where scale bounds every intermediate (entries in the
    /// unit box, |alpha|,|beta| <= 2*sqrt(2)).
    #[test]
    fn c32_engine_matches_wide_naive_oracle(
        m in 1usize..24, n in 1usize..24, k in 0usize..140,
        ar in -2.0f64..2.0, ai in -2.0f64..2.0,
        opa in 0u8..3, opb in 0u8..3, seed in 0u64..10_000,
    ) {
        let (opa, opb) = (op_from(opa), op_from(opb));
        let (am, an) = op_dims(opa, m, k);
        let (bm, bn) = op_dims(opb, k, n);
        let ap = rand_pairs((am * an).max(1), seed + 60_000);
        let bp = rand_pairs((bm * bn).max(1), seed + 60_001);
        let cp = rand_pairs(m * n, seed + 60_002);
        // f32 data, exact in both precisions.
        let narrow = |x: f64| x as f32 as f64;
        let a32: Vec<C32> = ap.iter().map(|&(x, y)| C32 { re: x as f32, im: y as f32 }).collect();
        let b32: Vec<C32> = bp.iter().map(|&(x, y)| C32 { re: x as f32, im: y as f32 }).collect();
        let mut c32: Vec<C32> = cp.iter().map(|&(x, y)| C32 { re: x as f32, im: y as f32 }).collect();
        let a64: Vec<C64> = ap.iter().map(|&(x, y)| C64 { re: narrow(x), im: narrow(y) }).collect();
        let b64: Vec<C64> = bp.iter().map(|&(x, y)| C64 { re: narrow(x), im: narrow(y) }).collect();
        let mut c64v: Vec<C64> = cp.iter().map(|&(x, y)| C64 { re: narrow(x), im: narrow(y) }).collect();
        let alpha32 = C32 { re: ar as f32, im: ai as f32 };
        let alpha64 = C64 { re: narrow(ar), im: narrow(ai) };

        gemm(opa, opb, m, n, k, alpha32, &a32, am.max(1), &b32, bm.max(1),
             C32 { re: 1.0, im: 0.0 }, &mut c32, m);
        naive_gemm_c64(opa, opb, m, n, k, alpha64, &a64, am.max(1), &b64, bm.max(1),
                       C64::ONE, &mut c64v, m);

        let scale = 4.0 * (k as f64 + 2.0);
        let tol = 16.0 * (k as f64 + 2.0) * f32::EPSILON as f64 * scale.max(1.0);
        for (idx, (g, w)) in c32.iter().zip(&c64v).enumerate() {
            let err = ((g.re as f64 - w.re).powi(2) + (g.im as f64 - w.im).powi(2)).sqrt();
            prop_assert!(
                err <= tol,
                "C32 engine off the C64 oracle at {idx}: err={err:e} tol={tol:e} \
                 (opa={opa:?} opb={opb:?} m={m} n={n} k={k})"
            );
        }
    }

    /// Same oracle check for f32 against a naive f64 triple loop.
    #[test]
    fn f32_engine_matches_wide_naive_oracle(
        m in 1usize..24, n in 1usize..24, k in 0usize..140,
        alpha in -2.0f64..2.0,
        opa in 0u8..3, opb in 0u8..3, seed in 0u64..10_000,
    ) {
        let (opa, opb) = (op_from(opa), op_from(opb));
        let (am, an) = op_dims(opa, m, k);
        let (bm, bn) = op_dims(opb, k, n);
        let ap = rand_pairs((am * an).max(1), seed + 80_000);
        let bp = rand_pairs((bm * bn).max(1), seed + 80_001);
        let cp = rand_pairs(m * n, seed + 80_002);
        let a32: Vec<f32> = ap.iter().map(|&(x, _)| x as f32).collect();
        let b32: Vec<f32> = bp.iter().map(|&(x, _)| x as f32).collect();
        let mut c32: Vec<f32> = cp.iter().map(|&(x, _)| x as f32).collect();
        let alpha32 = alpha as f32;

        gemm(opa, opb, m, n, k, alpha32, &a32, am.max(1), &b32, bm.max(1),
             1.0f32, &mut c32, m);

        let fetch = |op: Op, s: &[f32], ld: usize, i: usize, j: usize| match op {
            Op::No => s[i + j * ld] as f64,
            Op::Trans | Op::ConjTrans => s[j + i * ld] as f64,
        };
        let tol = 16.0 * (k as f64 + 2.0) * f32::EPSILON as f64 * (2.0 * k as f64 + 2.0).max(1.0);
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += fetch(opa, &a32, am.max(1), i, p) * fetch(opb, &b32, bm.max(1), p, j);
                }
                let want = alpha32 as f64 * acc + cp[i + j * m].0 as f32 as f64;
                let got = c32[i + j * m] as f64;
                prop_assert!(
                    (got - want).abs() <= tol,
                    "f32 engine off the f64 oracle at ({i},{j}): got={got:e} want={want:e} \
                     tol={tol:e} (opa={opa:?} opb={opb:?} m={m} n={n} k={k})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The parallel packed C64 engine against the naive triple-loop oracle.
// ---------------------------------------------------------------------

/// Deterministic pseudo-random complex value from an index mix.
fn cval(seed: u64, i: usize) -> C64 {
    let mut x = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 31;
    let re = ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    let im = (((x.wrapping_mul(0x94d049bb133111eb)) >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    c64(re, im)
}

fn cmat(rows: usize, ld: usize, cols: usize, seed: u64) -> Vec<C64> {
    let _ = rows;
    (0..ld * cols).map(|i| cval(seed, i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Packed complex GEMM against the naive triple-loop oracle on
    /// ragged shapes, all four conj-op combos, `k` straddling the
    /// packed engine's `KC = 256` so multiple depth panels (and the
    /// `beta`-after-first-panel path) are exercised, with padded `ld`s.
    #[test]
    fn packed_zgemm_matches_oracle_ragged(
        m in 1usize..40,
        n in 1usize..24,
        k in 200usize..320,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        for (opa, opb) in [
            (Op::No, Op::No),
            (Op::No, Op::ConjTrans),
            (Op::ConjTrans, Op::No),
            (Op::ConjTrans, Op::ConjTrans),
        ] {
            let (ar, ac) = match opa { Op::No => (m, k), _ => (k, m) };
            let (br, bc) = match opb { Op::No => (k, n), _ => (n, k) };
            let (lda, ldb, ldc) = (ar + pad, br + pad, m + pad);
            let a = cmat(ar, lda, ac, seed);
            let b = cmat(br, ldb, bc, seed ^ 0x55);
            let c0 = cmat(m, ldc, n, seed ^ 0xaa);
            let alpha = cval(seed ^ 0x77, 1);
            let beta = cval(seed ^ 0x77, 2);

            let mut packed = c0.clone();
            gemm_par(opa, opb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut packed, ldc);
            let mut naive = c0.clone();
            zgemm_oracle(opa, opb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut naive, ldc);

            let scale = k as f64;
            for j in 0..n {
                for i in 0..m {
                    let d = (packed[i + j * ldc] - naive[i + j * ldc]).abs();
                    prop_assert!(
                        d < 1e-12 * scale,
                        "mismatch at ({i},{j}): {d:e} (opa={opa:?}, opb={opb:?}, m={m}, n={n}, k={k})"
                    );
                }
            }
        }
    }
}
