//! Property tests for the Hermitian pipeline.

use proptest::prelude::*;
use tseig_hermitian::{validate, HermitianEigen};
use tseig_matrix::norms;

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Full pipeline vs the real-embedding oracle on random Hermitian
    /// input, across band widths.
    #[test]
    fn pipeline_matches_embedding(n in 2usize..22, nb in 1usize..8, seed in 0u64..300) {
        let a = validate::rand_hermitian(n, seed);
        let want = validate::real_embedding_eigenvalues(&a);
        let r = HermitianEigen::new().nb(nb).solve(&a).unwrap();
        prop_assert!(
            norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-8,
            "eigenvalues differ (n={}, nb={})", n, nb
        );
        let z = r.eigenvectors.as_ref().unwrap();
        prop_assert!(validate::hermitian_residual(&a, &r.eigenvalues, z) < 1000.0);
        prop_assert!(validate::unitary_error(z) < 1000.0);
        // Trace invariant (diagonal of a Hermitian matrix is real).
        let tr: f64 = (0..n).map(|i| a[(i, i)].re).sum();
        let sl: f64 = r.eigenvalues.iter().sum();
        prop_assert!((tr - sl).abs() < 1e-8 * (1.0 + tr.abs()));
    }

    /// Prescribed spectra are recovered through the complex pipeline.
    #[test]
    fn prescribed_spectrum(n in 2usize..20, seed in 0u64..300, lo in -3.0f64..0.0, w in 0.5f64..5.0) {
        let lambda = tseig_matrix::gen::linspace(lo, lo + w, n);
        let a = validate::hermitian_with_spectrum(&lambda, seed);
        let r = HermitianEigen::new().nb(4).solve(&a).unwrap();
        prop_assert!(norms::eigenvalue_distance(&r.eigenvalues, &lambda) < 1e-8);
    }
}

/// End-to-end solve at an `n` that is *not* divisible by the fused
/// back-transform's column-panel width (`DEFAULT_PANEL_COLS = 64`), so
/// the panel loop runs a full panel plus a ragged tail — against the
/// independent `2n x 2n` real-embedding oracle.
#[test]
fn end_to_end_at_ragged_panel_width() {
    let n = 67;
    assert!(n > tseig_hermitian::backtransform::DEFAULT_PANEL_COLS);
    assert!(n % tseig_hermitian::backtransform::DEFAULT_PANEL_COLS != 0);
    let a = validate::rand_hermitian(n, 2024);
    let want = validate::real_embedding_eigenvalues(&a);
    let r = HermitianEigen::new().nb(8).solve(&a).unwrap();
    assert!(norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-8);
    let z = r.eigenvectors.as_ref().unwrap();
    assert!(validate::hermitian_residual(&a, &r.eigenvalues, z) < 1000.0);
    assert!(validate::unitary_error(z) < 1000.0);
}
