//! Back-transformation: fused single-pass `apply_q` vs the unfused
//! `apply_q2` + `apply_q1` pair.
//!
//! Both run the same diamond-blocked `Q2` and blocked `Q1` math through
//! the same SIMD-dispatched kernels; the fused pass applies both to each
//! column panel of `Z` while it is cache-resident, so the win it must
//! show here is purely the saved traversal of the `n x n` eigenvector
//! matrix and the removed barrier between the stages (paper Fig. 3).
//!
//! The saved traversal only costs anything when the working set
//! (reflector blocks + `Z`) exceeds the last-level cache — below that,
//! the eigenvector panels never leave L3 between the two unfused passes
//! and the variants tie. `n` is sized to put the working set past a
//! ~100 MiB LLC. End-to-end claims go through the ledger
//! (`ledger/README.md`), which times the back-transform layer of a full
//! solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tseig_bench::{default_nb, workload};
use tseig_core::backtransform::{apply_q, apply_q1, apply_q2};

/// Hermitian counterpart: fused one-pass `D + Q2 + Q1` against the
/// unfused trio, through the same shared pass and packed complex engine.
/// `n` is kept moderate (the complex chase setup is Level-2 and
/// dominates the bench wall-time); at this size the working set still
/// fits L3, so parity — not a win — is the expected (and
/// asserted-by-eye) outcome; the case exists to track the complex fused
/// path over time.
fn backtransform_hermitian(c: &mut Criterion) {
    use tseig_kernels::backtransform as bt;
    let n = 768;
    let nb = 24;
    let ell = (nb / 2).max(1);
    let a = tseig_hermitian::validate::rand_hermitian(n, 0xC1);
    let bf = tseig_hermitian::stage1::he2hb_with(&a, nb, &tseig_matrix::Ctrl::NONE).unwrap();
    let chase = tseig_hermitian::stage2::reduce(bf.band.clone());
    let e = tseig_matrix::CMatrix::identity(n);

    let mut g = c.benchmark_group("backtransform_hermitian");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("unfused_d_q2_q1", n), |b| {
        b.iter(|| {
            let mut z = e.clone();
            bt::scale_rows(&chase.phases, z.as_mut_slice(), n);
            bt::apply_q(chase.v2.sweeps(), &[], z.as_mut_slice(), n, ell, 0);
            bt::apply_q(&[], &bf.panels, z.as_mut_slice(), n, ell, 0);
            z
        })
    });
    g.bench_function(BenchmarkId::new("fused_apply_q", n), |b| {
        b.iter(|| {
            let mut z = e.clone();
            let phases = Some(&chase.phases[..]);
            tseig_hermitian::backtransform::apply_q(&chase.v2, &bf.panels, phases, &mut z, ell, 0);
            z
        })
    });
    g.finish();
}

fn backtransform(c: &mut Criterion) {
    let n = 2560;
    let a = workload(n, 0xB7);
    let nb = default_nb(n);
    let ell = (nb / 2).max(1);
    let bf = tseig_core::stage1::sy2sb(&a, nb, 0);
    let chase = tseig_core::stage2::reduce(bf.band.clone());
    let e = tseig_matrix::Matrix::identity(n);

    let mut g = c.benchmark_group("backtransform");
    g.sample_size(10);

    g.bench_function(BenchmarkId::new("unfused_q2_then_q1", n), |b| {
        b.iter(|| {
            let mut z = e.clone();
            apply_q2(&chase.v2, &mut z, ell, 0);
            apply_q1(&bf.panels, &mut z, 0);
            z
        })
    });
    g.bench_function(BenchmarkId::new("fused_apply_q", n), |b| {
        b.iter(|| {
            let mut z = e.clone();
            apply_q(&chase.v2, &bf.panels, &mut z, ell, 0);
            z
        })
    });
    g.finish();
}

criterion_group!(benches, backtransform, backtransform_hermitian);
criterion_main!(benches);
