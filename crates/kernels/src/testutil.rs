//! Seeded inputs shared by the unit tests, generic over the element
//! type: a real type draws one uniform `[-1, 1)` value per entry, a
//! complex type an independent real and imaginary part.

use crate::blas3::engine::GemmScalar;
use crate::householder::BlockReflector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tseig_matrix::{CMatrixG, ComplexScalar};

/// Run the generic check `$check::<T>()` at all four element types.
macro_rules! at_every_type {
    ($check:ident) => {
        $check::<f64>();
        $check::<f32>();
        $check::<tseig_matrix::C64>();
        $check::<tseig_matrix::C32>();
    };
}
pub(crate) use at_every_type;

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

/// `x` scaled from `f64` precision to `T`'s: a tolerance written for
/// `f64`/`C64` (where this is the identity) at the same multiple of the
/// unit roundoff.
pub fn tol<T: ComplexScalar>(x: f64) -> f64 {
    x * (T::EPS / f64::EPSILON)
}

/// Stage-2 reflectors with the bulge chase's geometry at order `n` and
/// semi-bandwidth `nb`, as the chase stores them (`sweeps[s][k] =
/// (start, tau, v)`, `v[0] == 1`): the reflector of sweep `s` at depth
/// `k` starts at row `s + 1 + k nb` and spans up to `nb` rows. Each is a
/// seeded `larfg` reflector, so the product is unitary; the diamond
/// reordering depends on nothing but these row supports.
pub fn chase_sweeps<T: ComplexScalar>(
    n: usize,
    nb: usize,
    seed: u64,
) -> Vec<Vec<(usize, T, Vec<T>)>> {
    let nsweeps = if nb > 1 { n.saturating_sub(2) } else { 0 };
    (0..nsweeps)
        .map(|s| {
            let depth = (n - 3 - s) / nb + 1;
            (0..depth)
                .map(|k| {
                    let start = s + 1 + k * nb;
                    let len = (start + nb - 1).min(n - 1) - start + 1;
                    let mut v = rand_vec::<T>(len, seed ^ ((s * 4099 + k) as u64) << 8);
                    let (_, tau) = crate::householder::larfg(v[0], &mut v[1..]);
                    v[0] = T::ONE;
                    (start, tau, v)
                })
                .collect()
        })
        .collect()
}

/// The dense band form of the Hermitian `a` at semi-bandwidth `nb`
/// through the shared stage-1 loop (upper triangle mirrored), and its
/// `Q1` panels.
pub fn band_form<T: GemmScalar>(
    a: &CMatrixG<T>,
    nb: usize,
) -> (CMatrixG<T>, Vec<BlockReflector<T>>) {
    let n = a.rows();
    let mut band = a.clone();
    let mut panels = Vec::new();
    let mut ws = crate::stage1::Stage1Ws::new();
    let ctrl = tseig_matrix::Ctrl::NONE;
    let r = crate::stage1::reduce_ws(
        n,
        band.as_mut_slice(),
        n,
        nb,
        0,
        true,
        &mut panels,
        &mut ws,
        &ctrl,
    );
    assert!(r.is_ok(), "an inert control never cancels");
    band.hermitize_from_lower();
    (band, panels)
}

/// Scaled unitarity error `max |Z^H Z - I| / (rows eps / 2)` of the
/// columns of `z`, with `eps` the element type's precision.
pub fn unitary_error<T: ComplexScalar>(z: &CMatrixG<T>) -> f64 {
    let g = z.adjoint().multiply(z);
    let mut worst = 0.0f64;
    for j in 0..z.cols() {
        for i in 0..z.cols() {
            let target = T::new(if i == j { 1.0 } else { 0.0 }, 0.0);
            worst = worst.max((g[(i, j)] - target).abs());
        }
    }
    worst / (z.rows() as f64 * T::EPS / 2.0)
}

/// Eigenvalues (ascending) of the Hermitian `a` through the Jacobi
/// oracle on its real `2n x 2n` embedding `[[Re, -Im], [Im, Re]]`,
/// whose spectrum is `a`'s with every eigenvalue doubled.
pub fn embedded_eigenvalues<T: ComplexScalar>(a: &CMatrixG<T>) -> Vec<f64> {
    let n = a.rows();
    let m = tseig_matrix::Matrix::from_fn(2 * n, 2 * n, |i, j| {
        let x = a[(i % n, j % n)];
        match (i < n, j < n) {
            (true, true) | (false, false) => x.re(),
            (true, false) => -x.im(),
            (false, true) => x.im(),
        }
    });
    let eig = crate::reference::jacobi_eigen(&m, false);
    assert!(eig.is_ok(), "Jacobi oracle did not converge");
    eig.map(|e| e.eigenvalues.iter().step_by(2).copied().collect())
        .unwrap_or_default()
}
