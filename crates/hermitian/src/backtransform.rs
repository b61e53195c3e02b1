//! Hermitian back-transformation `Z = Q1 (Q2 (D E))`.
//!
//! Mirror of the real diamond-blocked scheme (`tseig_core::backtransform`)
//! in complex arithmetic, with the extra unitary diagonal `D` (the phase
//! fold from stage 2) applied first: the real tridiagonal eigenvectors
//! `E` become eigenvectors of the complex tridiagonal as `D E`, then the
//! chase and band reflectors are applied exactly like the real case —
//! the commutation argument for the diamond reordering only involves row
//! supports, so it transfers verbatim.
//!
//! Like the real pipeline, [`apply_q`] fuses the whole chain into **one
//! pass over the eigenvector matrix**: the columns of `E` are split into
//! cache-sized panels and each panel applies `D`, every diamond of the
//! `Q2` sequence, and then the reverse `Q1` chain while it is
//! cache-resident — no barrier between the three stages, and all
//! per-panel workspace comes from a grow-only thread-local scratch so
//! the allocator never runs inside the panel loop. The block reflectors
//! are applied by the generic `larfb` of `tseig-kernels`, so all the
//! Level-3 flops of the back-transform run through the same packed
//! engine as the real driver. [`apply_phases`], [`apply_q2`] and
//! [`apply_q1`] remain as the unfused pieces for tests and benches.

use crate::stage1::Q1PanelC;
use crate::stage2::V2SetC;
use rayon::prelude::*;
use std::cell::RefCell;
use tseig_kernels::blas3::engine::GemmScalar;
use tseig_kernels::flops;
use tseig_kernels::householder::{larf_left, larfb_with_work, larft, Side};
use tseig_kernels::Trans;
use tseig_matrix::{CMatrixG, ComplexScalar, C32, C64};

/// Column-panel width for the cache-local distribution of `E`. Complex
/// elements are twice the size of real ones, so this is half the real
/// pipeline's `DEFAULT_PANEL_COLS` for the same cache footprint.
pub const DEFAULT_PANEL_COLS: usize = 64;

/// A complex element type the Hermitian driver can run end-to-end: it
/// must go through the packed GEMM engine (`GemmScalar`) and bring a
/// per-thread grow-only back-transform scratch buffer. Thread-locals
/// cannot be generic, so each width owns a concrete static and exposes
/// it through [`HermScalar::with_bt_scratch`].
pub trait HermScalar: ComplexScalar + GemmScalar {
    /// Run `f` on this type's per-thread back-transform workspace
    /// (grow-only, reused across panels and across calls).
    fn with_bt_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
}

thread_local! {
    static BT_SCRATCH_C64: RefCell<Vec<C64>> = const { RefCell::new(Vec::new()) };
    static BT_SCRATCH_C32: RefCell<Vec<C32>> = const { RefCell::new(Vec::new()) };
}

impl HermScalar for C64 {
    fn with_bt_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        BT_SCRATCH_C64.with(|s| f(&mut s.borrow_mut()))
    }
}

impl HermScalar for C32 {
    fn with_bt_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        BT_SCRATCH_C32.with(|s| f(&mut s.borrow_mut()))
    }
}

/// Scale row `j` of `e` by `phases[j]` (apply `D`).
pub fn apply_phases<T: ComplexScalar>(phases: &[T], e: &mut CMatrixG<T>) {
    let n = e.rows();
    assert_eq!(phases.len(), n);
    for j in 0..e.cols() {
        let col = e.col_mut(j);
        for i in 0..n {
            col[i] *= phases[i];
        }
    }
}

struct DiamondC<T: ComplexScalar> {
    r0: usize,
    v: CMatrixG<T>,
    t: Vec<T>,
}

fn build_diamonds<T: ComplexScalar>(v2: &V2SetC<T>, ell: usize) -> Vec<DiamondC<T>> {
    let ell = ell.max(1);
    let nsweeps = v2.sweep_count();
    let mut out = Vec::new();
    if nsweeps == 0 {
        return out;
    }
    let nblocks = nsweeps.div_ceil(ell);
    for blk in (0..nblocks).rev() {
        let s0 = blk * ell;
        let s1 = (s0 + ell).min(nsweeps);
        let max_depth = (s0..s1).map(|s| v2.sweep(s).len()).max().unwrap_or(0);
        for k in 0..max_depth {
            let members: Vec<&(usize, T, Vec<T>)> = (s0..s1)
                .filter_map(|s| v2.sweep(s).get(k))
                .filter(|r| !r.2.is_empty())
                .collect();
            if members.is_empty() {
                continue;
            }
            let r0 = members[0].0;
            let rend = members.iter().map(|r| r.0 + r.2.len()).max().unwrap();
            let height = rend - r0;
            let kb = members.len();
            let mut v = CMatrixG::zeros(height, kb);
            let mut tau = vec![T::ZERO; kb];
            for (col, r) in members.iter().enumerate() {
                let off = r.0 - r0;
                for (i, &val) in r.2.iter().enumerate() {
                    v[(off + i, col)] = val;
                }
                tau[col] = r.1;
            }
            let mut t = vec![T::ZERO; kb * kb];
            larft(height, kb, v.as_slice(), height, &tau, &mut t, kb);
            out.push(DiamondC { r0, v, t });
        }
    }
    out
}

/// Workspace length one panel of `cols` columns needs: the
/// `2 * k * cols` `larfb` scratch of the widest block in either
/// half of the chain.
fn scratch_len<T: ComplexScalar>(
    diamonds: &[DiamondC<T>],
    q1: &[Q1PanelC<T>],
    cols: usize,
) -> usize {
    let kd = diamonds.iter().map(|d| d.v.cols()).max().unwrap_or(0);
    let kq = q1.iter().map(|p| p.v.cols()).max().unwrap_or(0);
    2 * kd.max(kq) * cols
}

/// The shared panel pipeline: parallel over column panels of `e`, each
/// panel applies `D` (when given), every diamond (the `Q2` sequence)
/// and then the reverse `Q1` chain while cache-resident. Any piece may
/// be empty.
fn apply_pipeline<T: HermScalar>(
    phases: Option<&[T]>,
    diamonds: &[DiamondC<T>],
    q1: &[Q1PanelC<T>],
    e: &mut CMatrixG<T>,
    panel_cols: usize,
) {
    if e.cols() == 0 || (phases.is_none() && diamonds.is_empty() && q1.is_empty()) {
        return;
    }
    let pc = if panel_cols == 0 {
        DEFAULT_PANEL_COLS
    } else {
        panel_cols
    };
    let nrows = e.rows();
    let ldc = e.ld();
    let need = scratch_len(diamonds, q1, pc.min(e.cols()));
    let scope = flops::scope();
    e.as_mut_slice().par_chunks_mut(pc * ldc).for_each(|panel| {
        let cols = panel.len() / ldc;
        let _charged = scope.enter();
        T::with_bt_scratch(|work| {
            if work.len() < need {
                work.resize(need, T::ZERO);
            }
            if let Some(d) = phases {
                for j in 0..cols {
                    let col = &mut panel[j * ldc..j * ldc + nrows];
                    for (v, &p) in col.iter_mut().zip(d) {
                        *v *= p;
                    }
                }
            }
            for d in diamonds {
                let rows = d.v.rows();
                larfb_with_work(
                    Side::Left,
                    Trans::No,
                    rows,
                    cols,
                    d.v.cols(),
                    d.v.as_slice(),
                    rows,
                    &d.t,
                    d.v.cols(),
                    &mut panel[d.r0..],
                    ldc,
                    &mut work[..2 * d.v.cols() * cols],
                );
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

/// Fused single-pass back-transformation `E <- Q1 Q2 D E`: per column
/// panel, the phase fold, the full diamond sequence and then the
/// reverse `Q1` chain all run while the panel is cache-resident — one
/// pass over the eigenvector matrix instead of the three that separate
/// [`apply_phases`] + [`apply_q2`] + [`apply_q1`] calls would make,
/// with no synchronization barrier between the stages (the panels are
/// fully independent).
pub fn apply_q<T: HermScalar>(
    v2: &V2SetC<T>,
    panels: &[Q1PanelC<T>],
    phases: Option<&[T]>,
    e: &mut CMatrixG<T>,
    ell: usize,
    panel_cols: usize,
) {
    let n = v2.n();
    assert_eq!(e.rows(), n, "E must have n rows");
    if let Some(d) = phases {
        assert_eq!(d.len(), n, "D must have n phases");
    }
    let diamonds = if v2.sweep_count() == 0 {
        Vec::new()
    } else {
        build_diamonds(v2, ell.max(1))
    };
    apply_pipeline(phases, &diamonds, panels, e, panel_cols);
}

/// `E <- Q2 E` with diamond-blocked complex reflectors, parallel over
/// column panels.
pub fn apply_q2<T: HermScalar>(v2: &V2SetC<T>, e: &mut CMatrixG<T>, ell: usize, panel_cols: usize) {
    let n = v2.n();
    assert_eq!(e.rows(), n);
    if e.cols() == 0 || v2.sweep_count() == 0 {
        return;
    }
    let diamonds = build_diamonds(v2, ell.max(1));
    apply_pipeline(None, &diamonds, &[], e, panel_cols);
}

/// Naive reference `E <- Q2 E`, reflectors one at a time in exact
/// reverse chase order (test oracle for the diamond reordering).
pub fn apply_q2_naive<T: ComplexScalar>(v2: &V2SetC<T>, e: &mut CMatrixG<T>) {
    let n = v2.n();
    assert_eq!(e.rows(), n);
    let ncols = e.cols();
    let ldc = e.ld();
    let mut work = vec![T::ZERO; ncols];
    for s in (0..v2.sweep_count()).rev() {
        for (r0, tau, v) in v2.sweep(s).iter().rev() {
            if v.is_empty() {
                continue;
            }
            larf_left(
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

/// `G <- Q1 G`: stage-1 panels in reverse order, parallel over column
/// panels.
pub fn apply_q1<T: HermScalar>(panels: &[Q1PanelC<T>], g: &mut CMatrixG<T>, panel_cols: usize) {
    apply_pipeline(None, &[], panels, g, panel_cols);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::he2hb;
    use crate::stage2::reduce;
    use crate::validate::{rand_hermitian, unitary_error};
    use tseig_matrix::CMatrix;

    fn banded(n: usize, b: usize, seed: u64) -> CMatrix {
        let a = rand_hermitian(n, seed);
        let mut out = CMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i.abs_diff(j) <= b {
                    out[(i, j)] = a[(i, j)];
                }
            }
        }
        out.hermitize_from_lower();
        out
    }

    #[test]
    fn diamond_matches_naive() {
        for (n, b, seed) in [(14, 3, 70), (20, 4, 71)] {
            let band = banded(n, b, seed);
            let r = reduce(band, b);
            let e0 = {
                let re = tseig_matrix::gen::random_symmetric(n, seed + 5);
                CMatrix::from_real(&re)
            };
            let mut naive = e0.clone();
            apply_q2_naive(&r.v2, &mut naive);
            for ell in [1usize, 2, 4, 16] {
                let mut fast = e0.clone();
                apply_q2(&r.v2, &mut fast, ell, 5);
                assert!(
                    fast.max_diff(&naive) < 1e-11,
                    "diamond != naive (n={n}, b={b}, ell={ell})"
                );
            }
        }
    }

    #[test]
    fn measured_flops_include_worker_threads() {
        // `flops::measure` counts the calling thread's charges plus those
        // of workers that entered its scope. The scheduled chase and the
        // panel-parallel back-transform charge on worker threads, so each
        // must measure exactly what its single-thread run measures.
        use crate::stage2::{reduce_scheduled, reduce_with, Scheduler};
        use tseig_matrix::Ctrl;
        let (n, b) = (40, 4);
        let band = banded(n, b, 74);
        let (serial, want) = flops::measure(|| reduce_with(band.clone(), b, &Ctrl::NONE).unwrap());
        assert!(want.total() > 0);
        for sched in [Scheduler::Static(2), Scheduler::Dynamic(2)] {
            let (_, got) =
                flops::measure(|| reduce_scheduled(band.clone(), b, sched, &Ctrl::NONE).unwrap());
            assert_eq!(got, want, "{sched:?}");
        }
        let e0 = CMatrix::from_real(&tseig_matrix::gen::random_symmetric(n, 75));
        // One n-column panel runs on the calling thread; 4-column panels
        // fan out over the pool.
        let bt =
            |panel_cols| flops::measure(|| apply_q2(&serial.v2, &mut e0.clone(), 4, panel_cols)).1;
        let one_panel = bt(n);
        assert!(one_panel.total() > 0);
        assert_eq!(bt(4), one_panel);
    }

    #[test]
    fn q1_is_unitary_application() {
        let n = 18;
        let a = rand_hermitian(n, 72);
        let bf = he2hb(&a, 4);
        let mut q = CMatrix::identity(n);
        apply_q1(&bf.panels, &mut q, 7);
        assert!(unitary_error(&q) < 200.0);
        // Q1 B Q1^H == A.
        let recon = q.multiply(&bf.band).multiply(&q.adjoint());
        assert!(recon.max_diff(&a) < 1e-10 * n as f64);
    }

    #[test]
    fn fused_apply_q_matches_unfused_chain() {
        // The fused one-pass D + Q2 + Q1 against the unfused trio
        // (naive Level-2 Q2 for the reflector ordering, serial Q1),
        // across panel widths, with and without the phase fold.
        use tseig_matrix::c64;
        for (n, b, seed) in [(22, 3, 90), (31, 5, 91)] {
            let band = banded(n, b, seed);
            let bf = he2hb(&band, b);
            let chase = reduce(bf.band.clone(), b);
            let e0 = {
                let re = tseig_matrix::gen::random_symmetric(n, seed + 7);
                CMatrix::from_real(&re)
            };
            let phases: Vec<_> = (0..n)
                .map(|i| {
                    let th = 0.37 * i as f64;
                    c64(th.cos(), th.sin())
                })
                .collect();

            let mut want = e0.clone();
            apply_phases(&phases, &mut want);
            apply_q2_naive(&chase.v2, &mut want);
            apply_q1(&bf.panels, &mut want, n + 1); // serial: one panel

            for pc in [1usize, 5, 0] {
                let mut fused = e0.clone();
                apply_q(&chase.v2, &bf.panels, Some(&phases), &mut fused, 3, pc);
                assert!(
                    fused.max_diff(&want) < 1e-11,
                    "fused != D + naive Q2 + serial Q1 (n={n}, b={b}, pc={pc})"
                );
            }

            // Without phases the fused pass is just Q1 Q2.
            let mut want2 = e0.clone();
            apply_q2(&chase.v2, &mut want2, 3, 0);
            apply_q1(&bf.panels, &mut want2, 0);
            let mut fused2 = e0.clone();
            apply_q(&chase.v2, &bf.panels, None, &mut fused2, 3, 0);
            assert!(fused2.max_diff(&want2) < 1e-11);
        }
    }

    #[test]
    fn phases_scale_rows() {
        use tseig_matrix::c64;
        let mut e = CMatrix::identity(3);
        let p = [c64(0.0, 1.0), c64(1.0, 0.0), c64(-1.0, 0.0)];
        apply_phases(&p, &mut e);
        assert_eq!(e[(0, 0)], c64(0.0, 1.0));
        assert_eq!(e[(2, 2)], c64(-1.0, 0.0));
    }
}
