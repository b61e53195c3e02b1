//! Back-transformation `Z = Q1 (Q2 E)` (paper §6, Fig. 3).
//!
//! ## Applying `Q2` — the hard part
//!
//! `Q2 = H_{(0,0)} H_{(0,1)} ... H_{(s,k)} ...` is the chase-ordered
//! product of all bulge-chasing reflectors, so `E <- Q2 E` applies them
//! in *reverse* chase order. Applied one by one this is Level-2 and
//! memory-bound — the naive implementation the paper rejects.
//!
//! The Level-3 reformulation groups reflectors of `ell` **consecutive
//! sweeps at the same chase depth `k`** into a *diamond* block: their
//! supports shift down one row per sweep, giving a parallelogram `V` of
//! height `<= nb + ell - 1` that is exactly the forward-columnwise
//! structure `larft`/`larfb` want. Two facts make the reordering legal
//! (each is a swap of *commuting* factors, i.e. reflectors with disjoint
//! row ranges):
//!
//! * within a block of `ell` sweeps, the chase-ordered product equals
//!   `G_K G_{K-1} ... G_0` where `G_k` is the diamond at depth `k`
//!   (ascending sweep order inside the diamond);
//! * whole sweep-blocks stay in chase order.
//!
//! So `E <- Q2 E` is: for sweep-blocks from last to first, for `k`
//! ascending, `E <- (I - V_k T_k V_k^T) E` on the diamond's row range.
//!
//! ## The diamond kernel — microkernel GEMM on the parallelogram split
//!
//! A diamond's `V` is a parallelogram: column `c` is supported on local
//! rows `c..c+len_c`, so the top `k x k` block `L` is **unit lower
//! triangular** and the body `B` (rows `k..h`) is rectangular. The
//! application `C <- (I - V T V^T) C` therefore splits into
//!
//! ```text
//! W  = L^T C_top + B^T C_body     triangular (zero-free) + packed GEMM
//! W <- T W                        small trmm
//! C_top  -= L W                   triangular (zero-free)
//! C_body -= B W                   packed GEMM
//! ```
//!
//! The two rectangular products — the O(nb) x cols x O(nb) flops of the
//! body — run through the SIMD-dispatched packed microkernel
//! (`kernels::blas3::simd`). The three `k x k` triangular products
//! (`trmm_unit_lower_left` both ways, `trmm_upper_left` for `T W`) are
//! column-vectorized: 16 columns of `W` at a time are transposed into a
//! stack tile and four rows accumulate in registers, each sum in the
//! scalar loop's order, so they are several times faster than a
//! row-at-a-time loop and bit-identical to it.
//!
//! ## Applying `Q1`, and the fused single pass
//!
//! `Q1` is plain reverse-order blocked reflectors from stage 1
//! (`larfb`). [`apply_q`] fuses both applications: the columns of `E`
//! are split into panels sized for the L2 cache (Fig. 3c), and every
//! panel applies the *entire* diamond sequence **and then** the reverse
//! `Q1` chain while it is cache-resident — one pass over the `n x k`
//! eigenvector matrix instead of two, and no barrier between the `Q2`
//! and `Q1` stages. [`apply_q2`]/[`apply_q1`] remain as the unfused
//! halves for benches and tests. All per-panel workspace comes from a
//! grow-only thread-local scratch buffer, so the allocator never runs
//! inside the panel loop.

use crate::stage1::Q1Panel;
use crate::stage2::V2Set;
use rayon::prelude::*;
use std::cell::RefCell;
use tseig_kernels::blas3::{gemm, trmm_unit_lower_left, trmm_upper_left, Trans};
use tseig_kernels::flops;
use tseig_kernels::householder::{larfb_with_work, larft, Side};
use tseig_matrix::workspace::{reset_f64s, MemReq};
use tseig_matrix::{Ctrl, Matrix};
use tseig_runtime::chase::depth_of_sweep;

/// Column-panel width used for the cache-local distribution of `E`.
/// Chosen so a panel of a few thousand rows plus a diamond block fit in
/// a per-core L2 cache; exposed for the Figure-5-style tuning bench.
pub const DEFAULT_PANEL_COLS: usize = 128;

thread_local! {
    /// Per-thread back-transform workspace, grow-only: holds the
    /// `2 * k * cols` diamond scratch or the `2 * kb * cols` `larfb`
    /// workspace, reused across panels and across calls so the
    /// allocator stays out of the panel loop entirely.
    static BT_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// One prebuilt diamond block: `I - V T V^T` acting on rows
/// `r0 .. r0 + v.rows()`. Column `c` of `V` is supported on local rows
/// `c .. c + len[c]` (the parallelogram structure): the top `k x k`
/// block is unit lower triangular, the rest is the rectangular body the
/// GEMM path consumes.
struct Diamond {
    r0: usize,
    v: Matrix,
    t: Vec<f64>,
}

/// Build the diamond sequence in *application order* for `E <- Q2 E`
/// (sweep-blocks descending, depth ascending within each block).
/// One stored stage-2 reflector: `(start row, tau, v)`.
type Reflector = (usize, f64, Vec<f64>);

fn build_diamonds(v2: &V2Set, ell: usize) -> Vec<Diamond> {
    let mut plan = BtPlan::new();
    build_diamonds_ws(v2, ell, &mut plan);
    plan.diamonds
}

/// Rebuild the diamond sequence into `plan`'s retained storage: diamond
/// slots, member scratch and `tau` buffers are reused by index, so a
/// warmed-up plan rebuilds without heap allocation. Bit-identical output
/// to [`build_diamonds`].
fn build_diamonds_ws(v2: &V2Set, ell: usize, plan: &mut BtPlan) {
    let ell = ell.max(1);
    let nsweeps = v2.sweep_count();
    let mut nd = 0usize;
    if nsweeps == 0 {
        plan.diamonds.truncate(0);
        return;
    }
    let nblocks = nsweeps.div_ceil(ell);
    for blk in (0..nblocks).rev() {
        let s0 = blk * ell;
        let s1 = (s0 + ell).min(nsweeps); // exclusive
        let max_depth = (s0..s1).map(|s| v2.sweep(s).len()).max().unwrap_or(0);
        for k in 0..max_depth {
            // Gather the reflectors (s, k) for s in s0..s1 that exist.
            plan.members.clear();
            plan.members
                .extend((s0..s1).filter(|&s| v2.sweep(s).get(k).is_some_and(|r| !r.2.is_empty())));
            if plan.members.is_empty() {
                continue;
            }
            let member = |i: usize| -> &Reflector { &v2.sweep(plan.members[i])[k] };
            // Diamond geometry: reflector of sweep s starts at
            // s + 1 + k*nb; sweeps ascend, so starts ascend one by one.
            let r0 = member(0).0;
            let rend = (0..plan.members.len())
                .map(|i| {
                    let r = member(i);
                    r.0 + r.2.len()
                })
                .max()
                .unwrap_or(r0);
            let height = rend - r0;
            let kb = plan.members.len();
            if plan.diamonds.len() <= nd {
                plan.diamonds.push(Diamond {
                    r0: 0,
                    v: Matrix::zeros(0, 0),
                    t: Vec::new(), // tidy: allow(plan-no-alloc) -- empty placeholder; the pool grows only while the plan is cold
                });
            }
            reset_f64s(&mut plan.tau, kb);
            let d = &mut plan.diamonds[nd];
            d.r0 = r0;
            d.v.reset_to(height, kb);
            for col in 0..kb {
                let r = member(col);
                let off = r.0 - r0;
                debug_assert_eq!(off, col, "diamond columns shift one row per sweep");
                for (i, &val) in r.2.iter().enumerate() {
                    d.v[(off + i, col)] = val;
                }
                plan.tau[col] = r.1;
            }
            reset_f64s(&mut d.t, kb * kb);
            larft(height, kb, d.v.as_slice(), height, &plan.tau, &mut d.t, kb);
            nd += 1;
        }
    }
    plan.diamonds.truncate(nd);
}

/// Retained storage of the planned back-transformation: the diamond
/// sequence (rebuilt in place each solve — its values depend on the
/// reflectors, but its shape only on `(n, nb, ell)`), the member/`tau`
/// build scratch, and the per-panel apply scratch the thread-local
/// buffer provides on the parallel path.
#[derive(Default)]
pub struct BtPlan {
    diamonds: Vec<Diamond>,
    /// Sweep indices of the diamond currently being gathered.
    members: Vec<usize>,
    tau: Vec<f64>,
    scratch: Vec<f64>,
}

impl BtPlan {
    pub fn new() -> Self {
        BtPlan::default()
    }

    /// Retained capacity in bytes (footprint tests). Counts the f64
    /// payloads (diamond `V`/`T`, `tau`, apply scratch) plus the member
    /// index scratch.
    pub fn capacity_bytes(&self) -> usize {
        let diamonds: usize = self
            .diamonds
            .iter()
            .map(|d| d.v.capacity_bytes() + d.t.capacity() * std::mem::size_of::<f64>())
            .sum();
        diamonds
            + (self.tau.capacity() + self.scratch.capacity()) * std::mem::size_of::<f64>()
            + self.members.capacity() * std::mem::size_of::<usize>()
    }
}

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

/// Workspace length one panel of `cols` columns needs: two `k x cols`
/// diamond blocks or the `2 * kb * cols` `larfb` workspace, whichever
/// is larger.
fn scratch_len(diamonds: &[Diamond], q1: &[Q1Panel], cols: usize) -> usize {
    let kd = diamonds.iter().map(|d| d.v.cols()).max().unwrap_or(0);
    let kq = q1.iter().map(|p| p.v.cols()).max().unwrap_or(0);
    2 * kd.max(kq) * cols
}

/// The shared panel pipeline: parallel over column panels of `e`, each
/// panel applies every diamond (the `Q2` sequence) and then the reverse
/// `Q1` chain while cache-resident. Either half may be empty.
fn apply_pipeline(diamonds: &[Diamond], q1: &[Q1Panel], e: &mut Matrix, panel_cols: usize) {
    if e.cols() == 0 || (diamonds.is_empty() && q1.is_empty()) {
        return;
    }
    let pc = if panel_cols == 0 {
        DEFAULT_PANEL_COLS
    } else {
        panel_cols
    };
    let ldc = e.ld();
    let need = scratch_len(diamonds, q1, pc.min(e.cols()));
    let scope = flops::scope();
    e.as_mut_slice().par_chunks_mut(pc * ldc).for_each(|panel| {
        let cols = panel.len() / ldc;
        let _charged = scope.enter();
        BT_SCRATCH.with(|scratch| {
            let work = &mut *scratch.borrow_mut();
            if work.len() < need {
                work.resize(need, 0.0);
            }
            for d in diamonds {
                apply_diamond(d, panel, ldc, cols, work);
            }
            for p in q1.iter().rev() {
                let rows = p.v.rows();
                larfb_with_work(
                    Side::Left,
                    Trans::No,
                    rows,
                    cols,
                    p.v.cols(),
                    p.v.as_slice(),
                    rows,
                    &p.t,
                    p.v.cols(),
                    &mut panel[p.r0..],
                    ldc,
                    &mut work[..2 * p.v.cols() * cols],
                );
            }
        });
    });
}

/// Serial twin of [`apply_pipeline`]: same panel split, same per-panel
/// kernel sequence, but a plain loop with plan-owned scratch instead of
/// rayon + the thread-local buffer. Bit-identical results (the panels
/// are independent; within a panel the two paths run the same code).
fn apply_pipeline_serial(
    diamonds: &[Diamond],
    q1: &[Q1Panel],
    e: &mut Matrix,
    panel_cols: usize,
    scratch: &mut Vec<f64>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    if e.cols() == 0 || (diamonds.is_empty() && q1.is_empty()) {
        return Ok(());
    }
    let pc = if panel_cols == 0 {
        DEFAULT_PANEL_COLS
    } else {
        panel_cols
    };
    let ldc = e.ld();
    let need = scratch_len(diamonds, q1, pc.min(e.cols()));
    if scratch.len() < need {
        reset_f64s(scratch, need);
    }
    for panel in e.as_mut_slice().chunks_mut(pc * ldc) {
        ctrl.checkpoint()?;
        let cols = panel.len() / ldc;
        for d in diamonds {
            apply_diamond(d, panel, ldc, cols, scratch);
        }
        for p in q1.iter().rev() {
            let rows = p.v.rows();
            larfb_with_work(
                Side::Left,
                Trans::No,
                rows,
                cols,
                p.v.cols(),
                p.v.as_slice(),
                rows,
                &p.t,
                p.v.cols(),
                &mut panel[p.r0..],
                ldc,
                &mut scratch[..2 * p.v.cols() * cols],
            );
        }
    }
    Ok(())
}

/// Planned fused back-transformation `E <- Q1 Q2 E`: [`apply_q`] run
/// serially through `plan`'s retained diamond storage and scratch —
/// allocation-free once the plan has warmed up to the problem shape, and
/// bit-identical to [`apply_q`].
pub fn apply_q_ws(
    v2: &V2Set,
    panels: &[Q1Panel],
    e: &mut Matrix,
    ell: usize,
    panel_cols: usize,
    plan: &mut BtPlan,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    let n = v2.n();
    assert_eq!(e.rows(), n, "E must have n rows");
    build_diamonds_ws(v2, ell, plan);
    apply_pipeline_serial(
        &plan.diamonds,
        panels,
        e,
        panel_cols,
        &mut plan.scratch,
        ctrl,
    )
}

/// `E <- Q2 E` using diamond-blocked reflectors, parallel over column
/// panels of `E`. `ell` is the number of sweeps grouped per diamond;
/// `panel_cols` the column-panel width (0 picks
/// [`DEFAULT_PANEL_COLS`]).
pub fn apply_q2(v2: &V2Set, e: &mut Matrix, ell: usize, panel_cols: usize) {
    let n = v2.n();
    assert_eq!(e.rows(), n, "E must have n rows");
    if e.cols() == 0 || v2.sweep_count() == 0 {
        return;
    }
    let diamonds = build_diamonds(v2, ell);
    apply_pipeline(&diamonds, &[], e, panel_cols);
}

/// Fused single-pass back-transformation `E <- Q1 Q2 E`: per column
/// panel, the full diamond sequence and then the reverse `Q1` chain run
/// while the panel is cache-resident — one pass over the eigenvector
/// matrix instead of the two that separate [`apply_q2`] + [`apply_q1`]
/// calls would make, with no synchronization barrier between the
/// stages (the panels are fully independent, Fig. 3).
pub fn apply_q(v2: &V2Set, panels: &[Q1Panel], e: &mut Matrix, ell: usize, panel_cols: usize) {
    let n = v2.n();
    assert_eq!(e.rows(), n, "E must have n rows");
    let diamonds = if v2.sweep_count() == 0 {
        Vec::new()
    } else {
        build_diamonds(v2, ell)
    };
    apply_pipeline(&diamonds, panels, e, panel_cols);
}

/// Apply one diamond `C <- (I - V T V^T) C` through the packed
/// microkernel on the parallelogram split (see the module docs): the
/// unit-lower-triangular top `L` of `V` goes through the zero-free
/// `trmm_unit_lower_left`, the rectangular body `B` through two packed
/// `gemm`s that carry all the Level-3 flops. `work` provides at least
/// `2 * k * cols` scratch.
fn apply_diamond(d: &Diamond, panel: &mut [f64], ldc: usize, cols: usize, work: &mut [f64]) {
    let k = d.v.cols();
    let h = d.v.rows();
    let body = h - k;
    let vdata = d.v.as_slice();
    let (w, w2) = work[..2 * k * cols].split_at_mut(k * cols);
    // W = L^T C_top: copy the top rows, then the triangular product.
    for j in 0..cols {
        w[j * k..(j + 1) * k].copy_from_slice(&panel[d.r0 + j * ldc..][..k]);
    }
    trmm_unit_lower_left(Trans::Yes, k, cols, vdata, h, w, k);
    // W += B^T C_body: packed-GEMM over the parallelogram body.
    if body > 0 {
        gemm(
            Trans::Yes,
            Trans::No,
            k,
            cols,
            body,
            1.0,
            &vdata[k..],
            h,
            &panel[d.r0 + k..],
            ldc,
            1.0,
            w,
            k,
        );
    }
    // W <- T W (T upper triangular with clean lower part).
    trmm_upper_left(Trans::No, k, cols, 1.0, &d.t, k, w, k);
    // C_body -= B W.
    if body > 0 {
        gemm(
            Trans::No,
            Trans::No,
            body,
            cols,
            k,
            -1.0,
            &vdata[k..],
            h,
            w,
            k,
            1.0,
            &mut panel[d.r0 + k..],
            ldc,
        );
    }
    // C_top -= L W via the second scratch block.
    w2.copy_from_slice(w);
    trmm_unit_lower_left(Trans::No, k, cols, vdata, h, w2, k);
    for j in 0..cols {
        let cseg = &mut panel[d.r0 + j * ldc..][..k];
        let wcol = &w2[j * k..(j + 1) * k];
        for (c, &x) in cseg.iter_mut().zip(wcol) {
            *c -= x;
        }
    }
}

/// Naive reference `E <- Q2 E`: reflectors applied one at a time in
/// exact reverse chase order (Level-2). Used by tests as the oracle for
/// the diamond reordering, and by the benches as the "naive
/// implementation" the paper compares against.
pub fn apply_q2_naive(v2: &V2Set, e: &mut Matrix) {
    let n = v2.n();
    assert_eq!(e.rows(), n);
    let ncols = e.cols();
    let ldc = e.ld();
    let mut work = vec![0.0f64; ncols];
    for s in (0..v2.sweep_count()).rev() {
        for (r0, tau, v) in v2.sweep(s).iter().rev() {
            if v.is_empty() {
                continue;
            }
            tseig_kernels::householder::larf_left(
                v,
                *tau,
                v.len(),
                ncols,
                &mut e.as_mut_slice()[*r0..],
                ldc,
                &mut work,
            );
        }
    }
}

/// `G <- Q1 G`: stage-1 panels applied in reverse order with blocked
/// reflectors, parallel over column panels of `G`.
pub fn apply_q1(panels: &[Q1Panel], g: &mut Matrix, panel_cols: usize) {
    apply_pipeline(&[], panels, g, panel_cols);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::sy2sb;
    use crate::stage2::reduce;
    use tseig_matrix::{gen, norms, SymBandMatrix};

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
                apply_q2(&v2, &mut fast, ell, 7);
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
            apply_q2(&v2, &mut e, 4, 0);
            e
        };
        // Applying to 3 columns must equal the matching slice.
        let mut sub = Matrix::from_fn(22, 3, |i, j| if i == j + 5 { 1.0 } else { 0.0 });
        apply_q2(&v2, &mut sub, 4, 2);
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
        apply_q1(&bf.panels, &mut q1, 16);
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
        apply_q1(&bf.panels, &mut r1, 1);
        apply_q1(&bf.panels, &mut r2, 64);
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
            apply_q1(&bf.panels, &mut want, n + 1); // serial: one panel

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
            apply_q2(&chase.v2, &mut unfused, 3, 0);
            apply_q1(&bf.panels, &mut unfused, 0);
            let mut fused = e0.clone();
            apply_q(&chase.v2, &bf.panels, &mut fused, 3, 0);
            assert!(fused.approx_eq(&unfused, 1e-11));
        }
    }

    #[test]
    fn empty_cases() {
        let (_, v2, _) = chase_setup(10, 2, 9);
        let mut empty = Matrix::zeros(10, 0);
        apply_q2(&v2, &mut empty, 4, 0);
        apply_q1(&[], &mut empty, 0);
        let mut e = Matrix::identity(10);
        apply_q(&v2, &[], &mut e, 4, 0); // no Q1 panels: fused == Q2 only
        let mut q2 = Matrix::identity(10);
        apply_q2(&v2, &mut q2, 4, 0);
        assert!(e.approx_eq(&q2, 1e-13));
    }
}
