//! Norms and eigensolver residual checks.
//!
//! Every test, example and benchmark in the workspace validates results
//! through the two canonical measures:
//!
//! * backward error  `||A Z - Z diag(lambda)||_max / (||A||_1 * n * eps)`,
//! * orthogonality   `||Z^T Z - I||_max / (n * eps)`.
//!
//! Values of order 1–100 are excellent; values above ~1e3 indicate a bug.

use crate::dense::Matrix;

/// Machine epsilon for `f64` (LAPACK's `dlamch('E')`).
pub const EPS: f64 = f64::EPSILON / 2.0;

/// Frobenius norm.
pub fn frobenius(a: &Matrix) -> f64 {
    a.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// 1-norm (maximum absolute column sum).
pub fn norm1(a: &Matrix) -> f64 {
    (0..a.cols())
        .map(|j| a.col(j).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Infinity norm (maximum absolute row sum).
pub fn norm_inf(a: &Matrix) -> f64 {
    let mut sums = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (i, v) in a.col(j).iter().enumerate() {
            sums[i] += v.abs();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

/// `max(acc, x)` that keeps a NaN: once either side is NaN the result
/// is NaN. `f64::max` returns the other operand instead, so a measure
/// folded with it would score a NaN entry as 0.
pub fn max_nan(acc: f64, x: f64) -> f64 {
    if acc.is_nan() || x.is_nan() {
        f64::NAN
    } else {
        acc.max(x)
    }
}

/// Euclidean norm of a vector.
pub fn vec_norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Scaled residual `||A Z - Z diag(lambda)||_max / (||A||_1 n eps)`.
///
/// `z` holds eigenvectors in its columns; `lambda[j]` is the eigenvalue
/// paired with column `j`. `z` may contain fewer columns than `n` (subset
/// computations). NaN if any entry of `z`, `lambda` or `A Z` is NaN.
pub fn eigen_residual(a: &Matrix, lambda: &[f64], z: &Matrix) -> f64 {
    assert_eq!(a.rows(), a.cols());
    assert_eq!(z.rows(), a.rows());
    assert_eq!(z.cols(), lambda.len());
    // The asserts above make multiply infallible; keep the diagnostic
    // loud-failure convention anyway instead of aborting.
    let Ok(az) = a.multiply(z) else {
        return f64::INFINITY;
    };
    let mut max = 0.0f64;
    for (j, &lam) in lambda.iter().enumerate() {
        let azc = az.col(j);
        let zc = z.col(j);
        for i in 0..a.rows() {
            max = max_nan(max, (azc[i] - lam * zc[i]).abs());
        }
    }
    let denom = norm1(a).max(EPS) * a.rows() as f64 * EPS;
    max / denom
}

/// Scaled orthogonality `||Z^T Z - I||_max / (n eps)` over the columns
/// present in `z`. NaN if any entry of `z` is NaN.
pub fn orthogonality(z: &Matrix) -> f64 {
    let n = z.rows();
    let k = z.cols();
    if k == 0 {
        return 0.0; // an empty basis is trivially orthonormal (and 0/0 is NaN)
    }
    let mut max = 0.0f64;
    for j in 0..k {
        for i in 0..=j {
            let dot: f64 = z.col(i).iter().zip(z.col(j)).map(|(a, b)| a * b).sum();
            let target = if i == j { 1.0 } else { 0.0 };
            max = max_nan(max, (dot - target).abs());
        }
    }
    max / (n as f64 * EPS)
}

/// Max-norm distance between two ascending-sorted eigenvalue lists,
/// scaled by `max(1, |lambda|_max)`. Panics on length mismatch.
pub fn eigenvalue_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let scale = a.iter().chain(b).fold(1.0f64, |m, &v| m.max(v.abs()));
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
        / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn norms_of_known_matrix() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(norm1(&a), 6.0);
        assert_eq!(norm_inf(&a), 7.0);
        assert!((frobenius(&a) - 30.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn residual_zero_for_exact_eigenpairs() {
        // Diagonal matrix: unit vectors are exact eigenvectors.
        let n = 4;
        let a = Matrix::from_fn(n, n, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let z = Matrix::identity(n);
        let lambda = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(eigen_residual(&a, &lambda, &z), 0.0);
        assert_eq!(orthogonality(&z), 0.0);
    }

    #[test]
    fn residual_detects_wrong_eigenvalue() {
        let n = 4;
        let a = Matrix::identity(n);
        let z = Matrix::identity(n);
        let lambda = [1.0, 1.0, 1.0, 2.0]; // last one is wrong
        assert!(eigen_residual(&a, &lambda, &z) > 1e10);
    }

    #[test]
    fn empty_basis_is_orthonormal() {
        assert_eq!(orthogonality(&Matrix::zeros(0, 0)), 0.0);
        assert_eq!(orthogonality(&Matrix::zeros(5, 0)), 0.0);
    }

    #[test]
    fn orthogonality_detects_skew() {
        let mut z = Matrix::identity(3);
        z[(0, 1)] = 0.5;
        assert!(orthogonality(&z) > 1e12);
    }

    #[test]
    fn measures_keep_a_nan_in_z() {
        // A NaN anywhere in Z (here in the last column, after healthy
        // ones) must not score as a healthy eigenbasis.
        let n = 4;
        let a = Matrix::from_fn(n, n, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let lambda = [1.0, 2.0, 3.0, 4.0];
        for (i, j) in [(0, 0), (3, 3), (1, 2)] {
            let mut z = Matrix::identity(n);
            z[(i, j)] = f64::NAN;
            assert!(eigen_residual(&a, &lambda, &z).is_nan(), "({i}, {j})");
            assert!(orthogonality(&z).is_nan(), "({i}, {j})");
        }
        let z = Matrix::identity(n);
        assert!(eigen_residual(&a, &[1.0, 2.0, 3.0, f64::NAN], &z).is_nan());
        assert!(max_nan(f64::NAN, 1.0).is_nan() && max_nan(1.0, f64::NAN).is_nan());
        assert_eq!(max_nan(1.0, 2.0), 2.0);
    }

    #[test]
    fn eigenvalue_distance_scales() {
        assert_eq!(eigenvalue_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let d = eigenvalue_distance(&[0.0, 100.0], &[0.0, 101.0]);
        assert!((d - 1.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn subset_residual_supported() {
        let a = gen::laplacian_2d(3, 3);
        // One column, deliberately not an eigenvector: just shape-check.
        let z = Matrix::from_fn(9, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let r = eigen_residual(&a, &[4.0], &z);
        assert!(r.is_finite() && r > 0.0);
    }
}
