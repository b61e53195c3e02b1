//! Level-1 BLAS: vector-vector kernels.
//!
//! Strided variants carry an `inc` suffix; the common unit-stride paths are
//! plain slices so the compiler can vectorize them.

use crate::contract;
use crate::flops::{add, add_bytes, Level};
use tseig_matrix::ComplexScalar;

/// `x . y` (unit stride).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    contract::require_vec("dot", "y", y, x.len());
    contract::require_finite_vec("dot", "x", x, x.len());
    contract::require_finite_vec("dot", "y", y, x.len());
    add(Level::L1, 2 * x.len() as u64);
    add_bytes(Level::L1, 16 * x.len() as u64);
    dot_contig(x, y)
}

/// Eight-lane unrolled dot product over contiguous slices: eight
/// independent `mul_add` accumulators so the reduction vectorizes
/// despite FP non-associativity.
///
/// This is the workspace's single SIMD-aware dot implementation — the
/// BLAS-2/3 kernels and the back-transformation all route through it.
/// It deliberately does **no** contract checks and **no** flop
/// accounting: composite kernels charge their own aggregate counts
/// exactly once per public entry point ([`dot`] is the accounted
/// Level-1 wrapper).
#[inline]
pub fn dot_contig(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let chunks = x.len() / 8;
    for c in 0..chunks {
        let xo = &x[c * 8..c * 8 + 8];
        let yo = &y[c * 8..c * 8 + 8];
        for l in 0..8 {
            acc[l] = xo[l].mul_add(yo[l], acc[l]);
        }
    }
    let mut s = acc.iter().sum::<f64>();
    for i in chunks * 8..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y <- alpha x + y` (unit stride).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    contract::require_vec("axpy", "y", y, x.len());
    contract::require_no_alias("axpy", "x", x, "y", y);
    contract::require_finite_vec("axpy", "x", x, x.len());
    if alpha == 0.0 {
        return;
    }
    add(Level::L1, 2 * x.len() as u64);
    // x read once, y read and written.
    add_bytes(Level::L1, 24 * x.len() as u64);
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

/// `x <- alpha x`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    add(Level::L1, x.len() as u64);
    add_bytes(Level::L1, 16 * x.len() as u64);
    for v in x {
        *v *= alpha;
    }
}

/// Euclidean norm with scaling against overflow/underflow (LAPACK
/// `dnrm2`/`dznrm2` semantics: a complex entry contributes its real and
/// imaginary parts as two components), accumulated in `f64`.
pub fn nrm2<T: ComplexScalar>(x: &[T]) -> f64 {
    add(Level::L1, T::MULADD_FLOPS * x.len() as u64);
    add_bytes(Level::L1, T::BYTES * x.len() as u64);
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    let mut component = |v: f64| {
        if v != 0.0 {
            let a = v.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a).powi(2);
                scale = a;
            } else {
                ssq += (a / scale).powi(2);
            }
        }
    };
    for &v in x {
        component(v.re());
        if T::IS_COMPLEX {
            component(v.im());
        }
    }
    scale * ssq.sqrt()
}

/// Index of the element with the largest absolute value; `None` for an
/// empty vector.
pub fn iamax(x: &[f64]) -> Option<usize> {
    add(Level::L1, x.len() as u64);
    add_bytes(Level::L1, 8 * x.len() as u64);
    let mut best = None;
    let mut best_abs = f64::NEG_INFINITY;
    for (i, &v) in x.iter().enumerate() {
        if v.abs() > best_abs {
            best_abs = v.abs();
            best = Some(i);
        }
    }
    best
}

/// Copy `x` into `y`.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// Swap the contents of two vectors.
#[inline]
pub fn swap(x: &mut [f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    x.swap_with_slice(y);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn nrm2_basic_and_extreme() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(nrm2::<f64>(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
        // Values whose squares would overflow naively.
        let big = 1e200;
        let n = nrm2(&[big, big]);
        assert!((n - big * 2.0f64.sqrt()).abs() / n < 1e-15);
        // Values whose squares would underflow naively.
        let small = 1e-200;
        let n = nrm2(&[small, small]);
        assert!((n - small * 2.0f64.sqrt()).abs() / n < 1e-15);
        // A complex entry counts its real and imaginary parts, scaled
        // the same way.
        for x in [1.0, big, small] {
            let n = nrm2(&[tseig_matrix::c64(3.0 * x, -4.0 * x)]);
            assert!((n - 5.0 * x).abs() / n < 1e-15, "{x}");
        }
    }

    #[test]
    fn iamax_picks_largest_abs() {
        assert_eq!(iamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(iamax(&[]), None);
        // First of equal magnitudes wins (BLAS convention).
        assert_eq!(iamax(&[2.0, -2.0]), Some(0));
    }

    #[test]
    fn copy_swap() {
        let x = [1.0, 2.0];
        let mut y = [0.0, 0.0];
        copy(&x, &mut y);
        assert_eq!(y, x);
        let mut a = [1.0];
        let mut b = [2.0];
        swap(&mut a, &mut b);
        assert_eq!((a[0], b[0]), (2.0, 1.0));
    }
}
