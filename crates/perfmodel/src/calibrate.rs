//! Measure the model parameters on the current machine (Table 3).
//!
//! `alpha` = achieved `gemm` rate, `beta` = achieved `symv` rate, both
//! with this workspace's own kernels (the same ones both pipelines run
//! on), `p` = rayon thread count.

use std::time::Instant;
use tseig_kernels::blas2::symv_lower;
use tseig_kernels::blas3::{gemm_par, Trans};
use tseig_matrix::Matrix;

use crate::model::ModelParams;

/// Measured machine parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineParams {
    /// Sequential `gemm` rate per core, flop/s.
    pub alpha_core: f64,
    /// Parallel `gemm` rate, flop/s (~ `alpha_core * p` for good kernels).
    pub alpha_par: f64,
    /// `symv` rate, flop/s (memory-bound).
    pub beta: f64,
    /// Worker count.
    pub p: usize,
}

impl MachineParams {
    /// Convert to model parameters for a given band width and fraction.
    pub fn model(&self, d: usize, f: f64) -> ModelParams {
        ModelParams {
            alpha: self.alpha_core,
            beta: self.beta,
            p: self.p,
            d,
            f,
        }
    }
}

/// Run short calibration kernels. `n` controls the working-set size; it
/// should comfortably exceed the last-level cache for an honest `beta`
/// (1500–3000 is reasonable).
pub fn measure_machine(n: usize) -> MachineParams {
    let n = n.max(64);
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 29) % 83) as f64 / 83.0 - 0.5);
    let mut c = Matrix::zeros(n, n);

    // Parallel gemm rate.
    let t0 = Instant::now();
    gemm_par(
        Trans::No,
        Trans::No,
        n,
        n,
        n,
        1.0,
        a.as_slice(),
        n,
        b.as_slice(),
        n,
        0.0,
        c.as_mut_slice(),
        n,
    );
    let alpha_par = 2.0 * (n as f64).powi(3) / t0.elapsed().as_secs_f64();

    // Sequential (single-thread-equivalent) gemm rate on a smaller block.
    let ns = (n / 2).max(64);
    let t1 = Instant::now();
    tseig_kernels::blas3::gemm(
        Trans::No,
        Trans::No,
        ns,
        ns,
        ns,
        1.0,
        a.as_slice(),
        n,
        b.as_slice(),
        n,
        0.0,
        c.as_mut_slice(),
        n,
    );
    let alpha_core = 2.0 * (ns as f64).powi(3) / t1.elapsed().as_secs_f64();

    // symv rate: repeat to amortize timer resolution.
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let reps = (4usize).max(200_000_000 / (2 * n * n)).min(64);
    let t2 = Instant::now();
    for _ in 0..reps {
        symv_lower(n, 1.0, a.as_slice(), n, &x, 0.0, &mut y);
    }
    let beta = reps as f64 * 2.0 * (n as f64) * (n as f64) / t2.elapsed().as_secs_f64();

    MachineParams {
        alpha_core,
        alpha_par,
        beta,
        p: rayon::current_num_threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_peak_is_sane() {
        let peak = tseig_kernels::blas3::simd::fma_peak();
        assert!(peak > 1e6, "peak {peak:.3e}");
        // On optimized builds the register-resident loop must beat the
        // memory-bound symv rate by a wide margin.
        #[cfg(not(debug_assertions))]
        {
            let m = measure_machine(256);
            assert!(peak > m.beta, "peak {peak:.3e} vs beta {:.3e}", m.beta);
        }
    }

    #[test]
    fn calibration_returns_sane_rates() {
        let m = measure_machine(256);
        assert!(m.alpha_core > 1e6, "alpha {:.3e}", m.alpha_core);
        assert!(m.beta > 1e6, "beta {:.3e}", m.beta);
        assert!(m.p >= 1);
        // gemm must beat symv — the premise of the whole paper. Only
        // meaningful on optimized builds: debug codegen flattens the
        // kernel differences entirely.
        #[cfg(not(debug_assertions))]
        assert!(
            m.alpha_par > m.beta * 0.5,
            "alpha_par {:.3e} vs beta {:.3e}",
            m.alpha_par,
            m.beta
        );
    }

    #[test]
    fn model_conversion() {
        let m = MachineParams {
            alpha_core: 2e9,
            alpha_par: 8e9,
            beta: 5e8,
            p: 4,
        };
        let p = m.model(64, 0.2);
        assert_eq!(p.d, 64);
        assert_eq!(p.f, 0.2);
        assert_eq!(p.p, 4);
    }
}
