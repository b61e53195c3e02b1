//! Batched and one-at-a-time solves must be bitwise equal — for every
//! scheduler. The batch driver reuses plans and runs requests
//! concurrently, but each request's arithmetic is the same kernel
//! sequence in the same order, so there is no tolerance here: `==`.

use tseig_core::{BatchDriver, Scheduler, SymmetricEigen, TwoStageResult};
use tseig_matrix::{gen, norms, Matrix};
use tseig_tridiag::Method;

fn assert_bitwise(label: &str, a: &TwoStageResult, b: &TwoStageResult) {
    assert_eq!(a.eigenvalues, b.eigenvalues, "{label}: eigenvalues differ");
    let (za, zb) = (
        a.eigenvectors.as_ref().expect("vectors"),
        b.eigenvectors.as_ref().expect("vectors"),
    );
    assert_eq!(za.as_slice(), zb.as_slice(), "{label}: eigenvectors differ");
}

#[test]
fn batch_is_bitwise_equal_to_sequential_for_every_scheduler() {
    let inputs: Vec<Matrix> = (0..5).map(|s| gen::random_symmetric(40, 300 + s)).collect();
    for scheduler in [
        Scheduler::Serial,
        Scheduler::Static(2),
        Scheduler::Dynamic(3),
    ] {
        for method in [Method::Qr, Method::DivideAndConquer] {
            let eigen = SymmetricEigen::new()
                .nb(6)
                .method(method)
                .scheduler(scheduler);
            let sequential: Vec<_> = inputs.iter().map(|m| eigen.solve(m).unwrap()).collect();
            for threads in [1, 2] {
                let batch = BatchDriver::new(eigen.clone())
                    .threads(threads)
                    .solve_all(&inputs);
                for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                    assert_bitwise(
                        &format!("{scheduler:?}/{method:?}/t{threads}/input{i}"),
                        b.as_ref().unwrap(),
                        s,
                    );
                }
            }
        }
    }
}

#[test]
fn plan_reuse_across_sizes_is_bitwise_equal_to_fresh_plans() {
    // Shrinking and growing the problem size between solves must not
    // change a single bit: every stage re-derives its shape from the
    // input, and the capacity-retaining buffers zero what they reuse.
    let sizes = [48, 16, 33, 48, 7];
    let eigen = SymmetricEigen::new().nb(8).method(Method::Qr);
    let mut plan = tseig_core::SolvePlan::new();
    for (k, &n) in sizes.iter().enumerate() {
        let a = gen::random_symmetric(n, 500 + k as u64);
        eigen.solve_into(&a, &mut plan).unwrap();
        let fresh = eigen.solve(&a).unwrap();
        assert_eq!(fresh.eigenvalues.as_slice(), plan.eigenvalues(), "n={n}");
        assert_eq!(
            fresh.eigenvectors.as_ref().unwrap().as_slice(),
            plan.eigenvectors().unwrap().as_slice(),
            "n={n}"
        );
    }
}

/// FNV-1a over the bits of the eigenvalues and eigenvectors.
fn result_hash(r: &TwoStageResult) -> u64 {
    let z = r.eigenvectors.as_ref().expect("vectors");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in r.eigenvalues.iter().chain(z.as_slice()) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn standard_and_generalized_solves_are_pinned() {
    // Recorded when the back-transform's diamonds moved to the fused
    // diamond kernel (one FMA chain per element); the f64 instances of
    // the generic Householder, QR and Cholesky kernels keep every bit.
    let eigen = SymmetricEigen::new().nb(8);
    let a = gen::random_symmetric(70, 41);
    let standard = eigen.solve(&a).unwrap();
    let g = gen::random_symmetric(50, 42);
    let mut b = g.multiply(&g.transpose()).unwrap();
    for i in 0..50 {
        b[(i, i)] += 50.0;
    }
    let pencil = tseig_core::solve_generalized(&gen::random_symmetric(50, 43), &b, &eigen).unwrap();
    assert_eq!(
        (result_hash(&standard), result_hash(&pencil)),
        (0x7dd7_67b7_3d5b_09f4, 0xd826_6a63_0218_6ce8),
        "standard / generalized solve bits"
    );
}

#[test]
fn default_block_solve_is_pinned_for_every_scheduler() {
    // The default `nb = 48` groups 24 sweeps per diamond, so the
    // back-transform's diamond kernel runs at the in-pipeline size (the
    // pin above, at `nb = 8`, only builds 4-wide diamonds). The threaded
    // stage 1 sums every output element on one worker in a fixed order,
    // and the diamond kernel computes every element as one fixed-order
    // FMA chain, so the `Static(2)` pin holds under any thread budget
    // (`RAYON_NUM_THREADS`) and any SIMD path; it differs from the serial
    // pin. Both values were recorded when the diamonds moved to the fused
    // kernel, with the residual and orthogonality checked below.
    let a = gen::random_symmetric(300, 44);
    for (scheduler, want) in [
        (Scheduler::Serial, 0x471c_96a0_b15a_7071),
        (Scheduler::Static(2), 0xdf9c_d0b9_0891_d362),
    ] {
        let r = SymmetricEigen::new()
            .scheduler(scheduler)
            .solve(&a)
            .unwrap();
        let z = r.eigenvectors.as_ref().expect("vectors");
        let res = norms::eigen_residual(&a, &r.eigenvalues, z);
        let orth = norms::orthogonality(z);
        assert!(res < 500.0, "{scheduler:?}: residual {res}");
        assert!(orth < 500.0, "{scheduler:?}: orthogonality {orth}");
        assert_eq!(
            result_hash(&r),
            want,
            "{scheduler:?}: default-nb solve bits"
        );
    }
}
