//! Back-transformation `Z = Q1 (Q2 E)` (paper §6, Fig. 3).
//!
//! The diamond-blocked `Q2` application, the `Q1` block reflectors and
//! the fused single pass over cache-sized column panels are the
//! element-generic [`tseig_kernels::backtransform`], shared with the
//! Hermitian pipeline (its module docs derive the diamond reordering and
//! the parallelogram-split kernel). This module is the `f64` entry
//! point: it hands the chase's [`V2Set`] and the stage-1 panels to the
//! shared pass, and sizes the plan storage ([`bt_req`]).

use crate::stage1::Q1Panel;
use crate::stage2::V2Set;
use tseig_kernels::backtransform as bt;
use tseig_matrix::workspace::MemReq;
use tseig_matrix::{Ctrl, Matrix};
use tseig_runtime::chase::depth_of_sweep;

/// Column-panel width used for the cache-local distribution of `E`.
/// Chosen so a panel of a few thousand rows plus a diamond block fit in
/// a per-core L2 cache; the ledger's traced back-transform replays the
/// pipeline with it.
pub const DEFAULT_PANEL_COLS: usize = bt::default_panel_cols::<f64>();

/// Retained storage of the planned back-transformation (diamond
/// sequence, build scratch and per-panel apply scratch).
pub type BtPlan = bt::BtPlan<f64>;

/// Requirement of the planned back-transformation for an order-`n`,
/// bandwidth-`nb` chase with diamond grouping `ell`, applied to `cols`
/// columns in panels of `panel_cols`: exact diamond storage (replayed
/// from the chase geometry) plus the per-panel apply scratch.
pub fn bt_req(n: usize, nb: usize, ell: usize, panel_cols: usize, cols: usize) -> MemReq {
    let ell = ell.max(1);
    let pc = if panel_cols == 0 {
        DEFAULT_PANEL_COLS
    } else {
        panel_cols
    };
    let nsweeps = if nb > 1 { n.saturating_sub(2) } else { 0 };
    let mut elems = 0usize;
    let mut kd_max = 0usize;
    if nsweeps > 0 {
        let nblocks = nsweeps.div_ceil(ell);
        for blk in 0..nblocks {
            let s0 = blk * ell;
            let s1 = (s0 + ell).min(nsweeps);
            let max_depth = (s0..s1)
                .map(|s| depth_of_sweep(n, nb, s))
                .max()
                .unwrap_or(0);
            for k in 0..max_depth {
                let mut kb = 0usize;
                let mut r0 = usize::MAX;
                let mut rend = 0usize;
                for s in s0..s1 {
                    if k >= depth_of_sweep(n, nb, s) {
                        continue;
                    }
                    let start = s + 1 + k * nb;
                    let len = (start + nb - 1).min(n - 1) - start + 1;
                    r0 = r0.min(start);
                    rend = rend.max(start + len);
                    kb += 1;
                }
                if kb == 0 {
                    continue;
                }
                let height = rend - r0;
                elems += height * kb + kb * kb; // V + T
                kd_max = kd_max.max(kb);
            }
        }
    }
    let scratch = 2 * kd_max.max(nb) * pc.min(cols);
    MemReq::f64s(elems).and(MemReq::f64s(scratch))
}

/// Planned fused back-transformation `E <- Q1 Q2 E`: [`apply_q`] run
/// serially through `plan`'s retained diamond storage and scratch —
/// allocation-free once the plan has warmed up to the problem shape, and
/// bit-identical to [`apply_q`]. Polls `ctrl` once per column panel.
pub fn apply_q_ws(
    v2: &V2Set,
    panels: &[Q1Panel],
    e: &mut Matrix,
    ell: usize,
    panel_cols: usize,
    plan: &mut BtPlan,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    assert_eq!(e.rows(), v2.n(), "E must have n rows");
    let ldc = e.ld();
    let sweeps = v2.sweeps();
    bt::apply_q_ws(
        sweeps,
        panels,
        e.as_mut_slice(),
        ldc,
        ell,
        panel_cols,
        plan,
        ctrl,
    )
}

/// Fused single-pass back-transformation `E <- Q1 Q2 E`: per column
/// panel, the full diamond sequence and then the reverse `Q1` chain run
/// while the panel is cache-resident — one pass over the eigenvector
/// matrix instead of one for `Q2` and one for `Q1`, with no
/// synchronization barrier between the stages (the panels are fully
/// independent, Fig. 3). `ell` is the number of sweeps grouped per
/// diamond; `panel_cols` the column-panel width (0 picks
/// [`DEFAULT_PANEL_COLS`]).
pub fn apply_q(v2: &V2Set, panels: &[Q1Panel], e: &mut Matrix, ell: usize, panel_cols: usize) {
    assert_eq!(e.rows(), v2.n(), "E must have n rows");
    let ldc = e.ld();
    bt::apply_q(v2.sweeps(), panels, e.as_mut_slice(), ldc, ell, panel_cols);
}

/// Naive reference `E <- Q2 E`: reflectors applied one at a time in
/// exact reverse chase order (Level-2): the "naive implementation" the
/// paper compares against, and the tests' oracle for the diamond
/// reordering.
pub fn apply_q2_naive(v2: &V2Set, e: &mut Matrix) {
    assert_eq!(e.rows(), v2.n());
    let ldc = e.ld();
    bt::apply_naive(v2.sweeps(), e.as_mut_slice(), ldc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::sy2sb;
    use crate::stage2::reduce;
    use tseig_matrix::{gen, norms, SymBandMatrix};

    /// `E <- Q2 E` alone: the kernel pass with no `Q1` panels.
    fn only_q2(v2: &V2Set, e: &mut Matrix, ell: usize, panel_cols: usize) {
        let ldc = e.ld();
        bt::apply_q(v2.sweeps(), &[], e.as_mut_slice(), ldc, ell, panel_cols);
    }

    /// `G <- Q1 G` alone: the kernel pass with no chase sweeps.
    fn only_q1(panels: &[Q1Panel], g: &mut Matrix, panel_cols: usize) {
        let ldc = g.ld();
        bt::apply_q(&[], panels, g.as_mut_slice(), ldc, 1, panel_cols);
    }

    fn chase_setup(n: usize, b: usize, seed: u64) -> (Matrix, V2Set, Matrix) {
        // Build a band matrix, chase it, return (dense band, V2, T dense).
        let a = gen::random_symmetric(n, seed);
        let mut dense = Matrix::zeros(n, n);
        for j in 0..n {
            for i in j..(j + b + 1).min(n) {
                dense[(i, j)] = a[(i, j)];
                dense[(j, i)] = a[(i, j)];
            }
        }
        let band = SymBandMatrix::from_dense_lower(&dense, b, b);
        let r = reduce(band);
        let t = r.tridiagonal.to_dense();
        (dense, r.v2, t)
    }

    #[test]
    fn naive_q2_reconstructs_band() {
        // B == Q2 T Q2^T: apply Q2 to T's eigen-identity — here simply
        // verify Q2 (applied to I) is orthogonal and Q2 T Q2^T == B.
        let (bdense, v2, t) = chase_setup(18, 3, 1);
        let mut q2 = Matrix::identity(18);
        apply_q2_naive(&v2, &mut q2);
        assert!(norms::orthogonality(&q2) < 100.0);
        let recon = q2.multiply(&t).unwrap().multiply(&q2.transpose()).unwrap();
        let tol = 100.0 * norms::norm1(&bdense) * 18.0 * norms::EPS;
        assert!(recon.approx_eq(&bdense, tol), "Q2 T Q2^T != B");
    }

    #[test]
    fn diamond_matches_naive_various_ell() {
        for (n, b, seed) in [(20, 3, 2), (35, 5, 3), (24, 4, 4)] {
            let (_, v2, _) = chase_setup(n, b, seed);
            let e0 = gen::random_symmetric(n, seed + 100);
            let mut naive = e0.clone();
            apply_q2_naive(&v2, &mut naive);
            for ell in [1, 2, 3, 8, 64] {
                let mut fast = e0.clone();
                only_q2(&v2, &mut fast, ell, 7);
                assert!(
                    fast.approx_eq(&naive, 1e-11),
                    "diamond != naive (n={n}, b={b}, ell={ell})"
                );
            }
        }
    }

    #[test]
    fn q2_on_subset_of_columns() {
        let (_, v2, _) = chase_setup(22, 4, 5);
        let full = {
            let mut e = Matrix::identity(22);
            only_q2(&v2, &mut e, 4, 0);
            e
        };
        // Applying to 3 columns must equal the matching slice.
        let mut sub = Matrix::from_fn(22, 3, |i, j| if i == j + 5 { 1.0 } else { 0.0 });
        only_q2(&v2, &mut sub, 4, 2);
        for j in 0..3 {
            for i in 0..22 {
                assert!((sub[(i, j)] - full[(i, j + 5)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn q1_reconstruction() {
        let n = 40;
        let nb = 6;
        let a = gen::random_symmetric(n, 6);
        let bf = sy2sb(&a, nb, 0);
        let mut q1 = Matrix::identity(n);
        only_q1(&bf.panels, &mut q1, 16);
        assert!(norms::orthogonality(&q1) < 100.0);
        let b = bf.band.to_dense();
        let recon = q1.multiply(&b).unwrap().multiply(&q1.transpose()).unwrap();
        let tol = 200.0 * norms::norm1(&a) * n as f64 * norms::EPS;
        assert!(recon.approx_eq(&a, tol), "Q1 B Q1^T != A");
    }

    #[test]
    fn q1_panel_parallel_independence() {
        // Different panel widths give identical results.
        let n = 30;
        let a = gen::random_symmetric(n, 7);
        let bf = sy2sb(&a, 5, 0);
        let e = gen::random_symmetric(n, 8);
        let mut r1 = e.clone();
        let mut r2 = e.clone();
        only_q1(&bf.panels, &mut r1, 1);
        only_q1(&bf.panels, &mut r2, 64);
        assert!(r1.approx_eq(&r2, 1e-12));
    }

    #[test]
    fn fused_apply_q_matches_unfused_oracles() {
        // apply_q (fused single pass) against the Level-2 naive Q2
        // followed by a serial Q1 (one panel): the full unfused oracle
        // chain, across band widths and panel widths.
        for (n, nb, seed) in [(36, 4, 21), (45, 6, 22)] {
            let a = gen::random_symmetric(n, seed);
            let bf = sy2sb(&a, nb, 0);
            let chase = reduce(bf.band.clone());
            let e0 = gen::random_symmetric(n, seed + 50);

            let mut want = e0.clone();
            apply_q2_naive(&chase.v2, &mut want);
            only_q1(&bf.panels, &mut want, n + 1); // serial: one panel

            for pc in [1, 5, 0] {
                let mut fused = e0.clone();
                apply_q(&chase.v2, &bf.panels, &mut fused, 3, pc);
                assert!(
                    fused.approx_eq(&want, 1e-11),
                    "fused != naive Q2 + serial Q1 (n={n}, nb={nb}, pc={pc})"
                );
            }

            // And against the unfused blocked pair.
            let mut unfused = e0.clone();
            only_q2(&chase.v2, &mut unfused, 3, 0);
            only_q1(&bf.panels, &mut unfused, 0);
            let mut fused = e0.clone();
            apply_q(&chase.v2, &bf.panels, &mut fused, 3, 0);
            assert!(fused.approx_eq(&unfused, 1e-11));
        }
    }

    #[test]
    fn empty_cases() {
        let (_, v2, _) = chase_setup(10, 2, 9);
        let mut empty = Matrix::zeros(10, 0);
        only_q2(&v2, &mut empty, 4, 0);
        only_q1(&[], &mut empty, 0);
        let mut e = Matrix::identity(10);
        apply_q(&v2, &[], &mut e, 4, 0); // no Q1 panels: fused == Q2 only
        let mut q2 = Matrix::identity(10);
        only_q2(&v2, &mut q2, 4, 0);
        assert!(e.approx_eq(&q2, 1e-13));
    }
}
