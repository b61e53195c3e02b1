//! Seeded inputs shared by the unit tests, generic over the element
//! type: a real type draws one uniform `[-1, 1)` value per entry, a
//! complex type an independent real and imaginary part.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tseig_matrix::{CMatrixG, ComplexScalar};

/// `n` seeded entries.
pub fn rand_vec<T: ComplexScalar>(n: usize, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let re = rng.gen_range(-1.0..1.0);
            let im = if T::IS_COMPLEX {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            };
            T::new(re, im)
        })
        .collect()
}

/// Seeded `m x n` matrix, filled column by column.
pub fn rand_mat<T: ComplexScalar>(m: usize, n: usize, seed: u64) -> CMatrixG<T> {
    let v = rand_vec(m * n, seed);
    CMatrixG::from_fn(m, n, |i, j| v[i + j * m])
}

/// Seeded Hermitian (symmetric, for a real type) matrix of order `n`.
pub fn rand_hermitian<T: ComplexScalar>(n: usize, seed: u64) -> CMatrixG<T> {
    let mut a = rand_mat(n, n, seed);
    a.hermitize_from_lower();
    a
}

/// Hermitian positive definite `G G^H + n I` of order `n`.
pub fn hpd<T: ComplexScalar>(n: usize, seed: u64) -> CMatrixG<T> {
    let g = rand_hermitian::<T>(n, seed);
    let mut a = g.multiply(&g.adjoint());
    for i in 0..n {
        a[(i, i)] += T::from_f64(n as f64);
    }
    a
}
