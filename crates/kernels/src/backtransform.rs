//! Back-transformation `Z = Q1 (Q2 E)` (paper §6, Fig. 3) at any
//! element type.
//!
//! ## Applying `Q2` — the hard part
//!
//! `Q2 = H_{(0,0)} H_{(0,1)} ... H_{(s,k)} ...` is the chase-ordered
//! product of all bulge-chasing reflectors, so `E <- Q2 E` applies them
//! in *reverse* chase order. Applied one by one this is Level-2 and
//! memory-bound — the naive implementation the paper rejects
//! ([`apply_naive`]).
//!
//! The Level-3 reformulation groups reflectors of `ell` **consecutive
//! sweeps at the same chase depth `k`** into a *diamond* block: their
//! supports shift down one row per sweep, giving a parallelogram `V` of
//! height `<= nb + ell - 1` that is exactly the forward-columnwise
//! structure `larft` wants. Two facts make the reordering legal (each is
//! a swap of *commuting* factors, i.e. reflectors with disjoint row
//! ranges, so the argument holds for real and complex reflectors alike):
//!
//! * within a block of `ell` sweeps, the chase-ordered product equals
//!   `G_K G_{K-1} ... G_0` where `G_k` is the diamond at depth `k`
//!   (ascending sweep order inside the diamond);
//! * whole sweep-blocks stay in chase order.
//!
//! So `E <- Q2 E` is: for sweep-blocks from last to first, for `k`
//! ascending, `E <- (I - V_k T_k V_k^H) E` on the diamond's row range.
//!
//! ## The diamond kernel — one fused pass per column block
//!
//! A diamond's `V` is a parallelogram: column `c` is supported on local
//! rows `c .. c + band` (clipped to the height `h`), so its top `k x k`
//! block is unit lower triangular and a triangle of zeros sits below
//! its last rows. Each diamond is applied by one call of the fused
//! kernel [`blas3::diamond_left`], which for every register block of
//! panel columns
//!
//! ```text
//! W  = V^H C       accumulated in registers over V's rows (rows of V^H
//!                  transposed once per diamond into a stack tile)
//! W <- T W         in registers, T's column segments against W
//! C -= V W         in row blocks, V's column segments against W
//! ```
//!
//! with each output element one fixed-order FMA chain, so the bits are
//! the same on every SIMD path, thread budget and panel width. Nothing
//! is packed or transposed besides that tile, and the index ranges skip
//! every vector of a register block that holds only `V`'s stored zeros
//! (a vector at a triangle's edge still multiplies its zeros). The kernel charges a diamond's
//! structured counts (three `k x k` triangular products and two GEMMs
//! over the `(h - k) x k` body), so the counted flops do not depend on
//! how it runs.
//!
//! ## Applying `Q1`, and the fused single pass
//!
//! `Q1` is plain reverse-order blocked reflectors from stage 1
//! (`larfb`). [`apply_q`] fuses both applications: the columns of `E`
//! are split into panels sized for the L2 cache (Fig. 3c), and every
//! panel applies the *entire* diamond sequence **and then** the reverse
//! `Q1` chain while it is cache-resident — one pass over the `n x k`
//! eigenvector matrix instead of two, and no barrier between the `Q2`
//! and `Q1` stages. Either half may be empty, which gives the unfused
//! `Q2`-only and `Q1`-only applications. [`apply_q`] builds the diamonds
//! and runs the panels on rayon, each panel with its own scratch;
//! [`apply_q_ws`] builds them and runs the panels in plain loops through
//! a plan's retained storage, polling the request control once per
//! panel. Both build each diamond the same way and run the same
//! per-panel body, so their results are bit-identical.
//!
//! The reflectors of `Q2` come in as the chase's sweep list
//! (`sweeps[s][k] = (start row, tau, v)`, `v[0] == 1`), which both the
//! real and the Hermitian chase hand out.

use crate::blas3::engine::GemmScalar;
use crate::blas3::{self, Trans};
use crate::flops;
use crate::householder::{larf_left, larfb_with_work, larft, BlockReflector, Side};
use rayon::prelude::*;
use tseig_matrix::workspace::reset_zeroed;
use tseig_matrix::{Ctrl, Scalar};

/// Bytes of one row of a default column panel: a panel of a few
/// thousand rows plus a diamond block fits in a per-core L2 cache.
const PANEL_ROW_BYTES: usize = 1024;

/// Default column-panel width at element type `T`: 128 columns of
/// `f64`, 64 of `C64` — the same cache footprint for every type.
pub const fn default_panel_cols<T>() -> usize {
    PANEL_ROW_BYTES / std::mem::size_of::<T>()
}

/// One stored stage-2 reflector: `(start row, tau, v)` with `v[0] == 1`.
pub type Reflector<T> = (usize, T, Vec<T>);

/// Retained storage of the planned back-transformation: the diamond
/// sequence (rebuilt in place each solve — its values depend on the
/// reflectors, but its shape only on `(n, nb, ell)`), the `tau` build
/// scratch, and the per-panel apply scratch.
#[derive(Default)]
pub struct BtPlan<T> {
    diamonds: Vec<BlockReflector<T>>,
    tau: Vec<T>,
    scratch: Vec<T>,
}

impl<T: Default> BtPlan<T> {
    pub fn new() -> Self {
        BtPlan::default()
    }

    /// Retained capacity in bytes (footprint tests): the diamond `V`/`T`
    /// payloads, `tau` and the apply scratch.
    pub fn capacity_bytes(&self) -> usize {
        let diamonds: usize = self.diamonds.iter().map(|d| d.capacity_bytes()).sum();
        diamonds + (self.tau.capacity() + self.scratch.capacity()) * std::mem::size_of::<T>()
    }
}

/// The diamonds of `E <- Q2 E` in *application order* (sweep-blocks
/// descending, depth ascending within each block), each as the sweep
/// range `s0 .. s1` and the depth `k` of its members; a `(block, depth)`
/// pair without a stored reflector yields nothing.
fn diamond_specs<T>(
    sweeps: &[Vec<Reflector<T>>],
    ell: usize,
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let ell = ell.max(1);
    let nsweeps = sweeps.len();
    (0..nsweeps.div_ceil(ell)).rev().flat_map(move |blk| {
        let (s0, s1) = (blk * ell, (blk * ell + ell).min(nsweeps));
        let max_depth = sweeps[s0..s1].iter().map(Vec::len).max().unwrap_or(0);
        (0..max_depth)
            .map(move |k| (s0, s1, k))
            .filter(move |&(s0, s1, k)| members(sweeps, s0, s1, k).next().is_some())
    })
}

/// The stored reflectors `(s, k)` of sweeps `s0 .. s1`, ascending.
fn members<T>(
    sweeps: &[Vec<Reflector<T>>],
    s0: usize,
    s1: usize,
    k: usize,
) -> impl Iterator<Item = &Reflector<T>> + '_ {
    sweeps[s0..s1]
        .iter()
        .filter_map(move |sw| sw.get(k).filter(|r| !r.2.is_empty()))
}

/// Build one diamond (sweeps `s0 .. s1` at depth `k`) into `d`, reusing
/// its storage and the `tau` scratch: gather the members' vectors into
/// the parallelogram `V` and form `T` with `larft`.
fn build_diamond<T: Scalar>(
    sweeps: &[Vec<Reflector<T>>],
    (s0, s1, k): (usize, usize, usize),
    d: &mut BlockReflector<T>,
    tau: &mut Vec<T>,
) {
    // Diamond geometry: reflector of sweep s starts at s + 1 + k*nb;
    // sweeps ascend, so starts ascend one by one.
    let r0 = members(sweeps, s0, s1, k).next().map_or(0, |r| r.0);
    let (mut kb, mut rend, mut band) = (0, r0, 0);
    for r in members(sweeps, s0, s1, k) {
        kb += 1;
        rend = rend.max(r.0 + r.2.len());
        band = band.max(r.2.len());
    }
    let height = rend - r0;
    (d.r0, d.rows, d.k, d.band) = (r0, height, kb, band);
    reset_zeroed(tau, kb);
    reset_zeroed(&mut d.v, height * kb);
    for (col, r) in members(sweeps, s0, s1, k).enumerate() {
        let off = r.0 - r0;
        debug_assert_eq!(off, col, "diamond columns shift one row per sweep");
        d.v[off + col * height..][..r.2.len()].copy_from_slice(&r.2);
        tau[col] = r.1;
    }
    reset_zeroed(&mut d.t, kb * kb);
    larft(height, kb, &d.v, height, tau, &mut d.t, kb);
}

/// Build the diamond sequence into `plan`'s retained storage: diamond
/// slots and the `tau` buffer are reused by index, so a warmed-up plan
/// rebuilds without heap allocation.
fn build_diamonds_ws<T: Scalar>(sweeps: &[Vec<Reflector<T>>], ell: usize, plan: &mut BtPlan<T>) {
    let mut nd = 0usize;
    for spec in diamond_specs(sweeps, ell) {
        if plan.diamonds.len() <= nd {
            plan.diamonds.push(BlockReflector::default());
        }
        build_diamond(sweeps, spec, &mut plan.diamonds[nd], &mut plan.tau);
        nd += 1;
    }
    plan.diamonds.truncate(nd);
}

/// The panel width `panel_cols` asks for (0 picks
/// [`default_panel_cols`]).
fn panel_width<T>(panel_cols: usize) -> usize {
    if panel_cols == 0 {
        default_panel_cols::<T>()
    } else {
        panel_cols
    }
}

/// Workspace length one panel of `cols` columns needs: the `k x cols`
/// block `W` of the widest diamond or the `2 * kb * cols` `larfb`
/// workspace, whichever is larger.
fn scratch_len<T>(diamonds: &[BlockReflector<T>], q1: &[BlockReflector<T>], cols: usize) -> usize {
    let kd = diamonds.iter().map(|d| d.k).max().unwrap_or(0);
    let kq = q1.iter().map(|p| p.k).max().unwrap_or(0);
    kd.max(2 * kq) * cols
}

/// Fused back-transformation `E <- Q1 Q2 E`, parallel over column panels
/// of `E` (`ldc` rows, column-major), each panel with its own scratch;
/// the diamonds are built over the pool first. `sweeps` are the chase's
/// reflectors (empty for `Q1` only), `q1` the stage-1 panels (empty for
/// `Q2` only); `ell` is the number of sweeps grouped per diamond,
/// `panel_cols` the column-panel width (0 picks [`default_panel_cols`]).
pub fn apply_q<T: GemmScalar>(
    sweeps: &[Vec<Reflector<T>>],
    q1: &[BlockReflector<T>],
    e: &mut [T],
    ldc: usize,
    ell: usize,
    panel_cols: usize,
) {
    let scope = flops::scope();
    let specs: Vec<_> = diamond_specs(sweeps, ell).collect();
    let diamonds: Vec<BlockReflector<T>> = specs
        .into_par_iter()
        .map(|spec| {
            let _charged = scope.enter();
            let mut d = BlockReflector::default();
            build_diamond(sweeps, spec, &mut d, &mut Vec::new());
            d
        })
        .collect();
    if e.is_empty() || (diamonds.is_empty() && q1.is_empty()) {
        return;
    }
    let pc = panel_width::<T>(panel_cols);
    let need = scratch_len(&diamonds, q1, pc.min(e.len() / ldc));
    e.par_chunks_mut(pc * ldc).for_each(|panel| {
        let _charged = scope.enter();
        let mut work = vec![T::ZERO; need];
        apply_panel(&diamonds, q1, panel, ldc, &mut work);
    });
}

/// Planned [`apply_q`]: the same diamonds and panels in serial loops
/// through `plan`'s retained diamond storage and scratch —
/// allocation-free once the plan has warmed up to the problem shape, and
/// bit-identical to [`apply_q`]. Polls `ctrl` once per panel; an armed
/// cancel or expired deadline aborts between panels with the structured
/// error.
#[allow(clippy::too_many_arguments)]
pub fn apply_q_ws<T: GemmScalar>(
    sweeps: &[Vec<Reflector<T>>],
    q1: &[BlockReflector<T>],
    e: &mut [T],
    ldc: usize,
    ell: usize,
    panel_cols: usize,
    plan: &mut BtPlan<T>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    build_diamonds_ws(sweeps, ell, plan);
    let BtPlan {
        diamonds, scratch, ..
    } = plan;
    if e.is_empty() || (diamonds.is_empty() && q1.is_empty()) {
        return Ok(());
    }
    let pc = panel_width::<T>(panel_cols);
    let need = scratch_len(diamonds, q1, pc.min(e.len() / ldc));
    if scratch.len() < need {
        reset_zeroed(scratch, need);
    }
    for panel in e.chunks_mut(pc * ldc) {
        ctrl.checkpoint()?;
        apply_panel(diamonds, q1, panel, ldc, scratch);
    }
    Ok(())
}

/// The per-panel body of both loops: every diamond (the `Q2` sequence)
/// through the fused diamond kernel, then the reverse `Q1` chain, on one
/// cache-resident column panel.
fn apply_panel<T: GemmScalar>(
    diamonds: &[BlockReflector<T>],
    q1: &[BlockReflector<T>],
    panel: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    let cols = panel.len() / ldc;
    for d in diamonds {
        let (k, h) = (d.k, d.rows);
        let c = &mut panel[d.r0..];
        let w = &mut work[..k * cols];
        blas3::diamond_left(k, h, d.band, &d.v, h, &d.t, k, c, ldc, cols, w);
    }
    for p in q1.iter().rev() {
        larfb_with_work(
            Side::Left,
            Trans::No,
            p.rows,
            cols,
            p.k,
            &p.v,
            p.rows,
            &p.t,
            p.k,
            &mut panel[p.r0..],
            ldc,
            &mut work[..2 * p.k * cols],
        );
    }
}

/// Naive reference `E <- Q2 E`: reflectors applied one at a time in
/// exact reverse chase order (Level-2). The oracle for the diamond
/// reordering, and the "naive implementation" the paper compares
/// against.
pub fn apply_naive<T: Scalar>(sweeps: &[Vec<Reflector<T>>], e: &mut [T], ldc: usize) {
    let ncols = e.len().checked_div(ldc).unwrap_or(0);
    let mut work = vec![T::ZERO; ncols];
    for sweep in sweeps.iter().rev() {
        for (r0, tau, v) in sweep.iter().rev() {
            if v.is_empty() {
                continue;
            }
            larf_left(v, *tau, v.len(), ncols, &mut e[*r0..], ldc, &mut work);
        }
    }
}

/// `E <- D E` for the diagonal `D = diag(d)`: scale row `i` of `E`
/// (`d.len()` rows, leading dimension `ldc`) by `d[i]`.
pub fn scale_rows<T: Scalar>(d: &[T], e: &mut [T], ldc: usize) {
    if ldc == 0 {
        return;
    }
    for col in e.chunks_mut(ldc) {
        for (v, &p) in col.iter_mut().zip(d) {
            *v *= p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::simd::MicroKernel;
    use crate::testutil::{
        at_every_type, band_form, chase_sweeps, rand_hermitian, rand_mat, tol, unitary_error,
    };
    use tseig_matrix::{CMatrixG, ComplexScalar};

    /// `(n, nb, ell)` shapes for the diamond kernel. At (80, 12, 24)
    /// every full sweep-block builds 24-wide diamonds and the last one (6
    /// sweeps) narrower ones; (70, 40, 30) spans several register blocks
    /// at every type; (150, 110, 24) builds diamonds taller than the
    /// kernel's 128-row stack tile. All of them end in bottom-edge
    /// diamonds whose reflectors are cut short by the matrix order.
    const KERNEL_SHAPES: [(usize, usize, usize); 3] = [(80, 12, 24), (70, 40, 30), (150, 110, 24)];
    /// Column counts: one column, both sides of the 8-column register
    /// block, and a full default panel.
    const KERNEL_COLS: [usize; 5] = [1, 7, 8, 9, 128];

    fn kernel_diamonds<T: GemmScalar>(n: usize, nb: usize, ell: usize) -> BtPlan<T> {
        let mut plan = BtPlan::new();
        build_diamonds_ws(&chase_sweeps::<T>(n, nb, n as u64), ell, &mut plan);
        plan
    }

    fn diamond_kernel_matches_naive_at<T: GemmScalar>() {
        for (n, nb, ell) in KERNEL_SHAPES {
            let ds = kernel_diamonds::<T>(n, nb, ell).diamonds;
            assert!(ds.iter().any(|d| d.k == ell), "no full diamond at {n}/{nb}");
            assert!(
                ds.iter().any(|d| d.k < ell),
                "no narrow diamond at {n}/{nb}"
            );
            let short = |d: &BlockReflector<T>| d.rows < d.k - 1 + d.band;
            assert!(ds.iter().any(short), "no bottom-edge diamond at {n}/{nb}");
            let sweeps = chase_sweeps::<T>(n, nb, n as u64);
            for cols in KERNEL_COLS {
                let e0 = rand_mat::<T>(n, cols, (n + cols) as u64);
                let mut naive = e0.clone();
                apply_naive(&sweeps, naive.as_mut_slice(), n);
                let mut fast = e0.clone();
                apply_q(&sweeps, &[], fast.as_mut_slice(), n, ell, 0);
                assert!(
                    fast.max_diff(&naive) < tol::<T>(1e-11),
                    "{}: diamond kernel != naive (n={n}, nb={nb}, ell={ell}, cols={cols})",
                    T::TAG
                );
            }
        }
    }

    #[test]
    fn diamond_kernel_matches_naive() {
        at_every_type!(diamond_kernel_matches_naive_at);
    }

    fn diamond_kernel_bits_agree_on_every_path_at<T: GemmScalar>() {
        for (n, nb, ell) in KERNEL_SHAPES {
            let plan = kernel_diamonds::<T>(n, nb, ell);
            for cols in KERNEL_COLS {
                let e0 = rand_mat::<T>(n, cols, (2 * n + cols) as u64);
                let run = |kern: &MicroKernel<T>| {
                    let mut e = e0.clone();
                    let mut work = vec![T::ZERO; ell * cols];
                    for d in &plan.diamonds {
                        let (k, h) = (d.k, d.rows);
                        let c = &mut e.as_mut_slice()[d.r0..];
                        let w = &mut work[..k * cols];
                        blas3::diamond_left_with(
                            kern, k, h, d.band, &d.v, h, &d.t, k, c, n, cols, w,
                        );
                    }
                    bits(&e)
                };
                // The scalar body, always last, is the reference.
                let paths = T::available();
                let want = run(paths[paths.len() - 1]);
                for kern in paths {
                    assert_eq!(run(kern), want, "{} {} cols={cols}", T::TAG, kern.name);
                }
            }
        }
    }

    #[test]
    fn diamond_kernel_bits_agree_on_every_path() {
        at_every_type!(diamond_kernel_bits_agree_on_every_path_at);
    }

    fn diamond_matches_naive_at<T: GemmScalar>() {
        for (n, b, seed) in [(14, 3, 70), (20, 4, 71)] {
            let sweeps = chase_sweeps::<T>(n, b, seed);
            let e0 = rand_mat::<T>(n, n, seed + 5);
            let mut naive = e0.clone();
            apply_naive(&sweeps, naive.as_mut_slice(), n);
            for ell in [1usize, 2, 4, 16] {
                let mut fast = e0.clone();
                apply_q(&sweeps, &[], fast.as_mut_slice(), n, ell, 5);
                assert!(
                    fast.max_diff(&naive) < tol::<T>(1e-11),
                    "diamond != naive (n={n}, b={b}, ell={ell})"
                );
            }
        }
    }

    #[test]
    fn diamond_matches_naive() {
        at_every_type!(diamond_matches_naive_at);
    }

    fn measured_flops_include_worker_threads_at<T: GemmScalar>() {
        // `flops::measure` counts the calling thread's charges plus those
        // of workers that entered its scope: the panel-parallel
        // back-transform charges on worker threads, so it must measure
        // exactly what its single-panel run measures.
        let (n, b) = (40, 4);
        let sweeps = chase_sweeps::<T>(n, b, 74);
        let e0 = rand_mat::<T>(n, n, 75);
        // One n-column panel runs on the calling thread; 4-column panels
        // fan out over the pool.
        let bt = |panel_cols| {
            let mut e = e0.clone();
            flops::measure(|| apply_q(&sweeps, &[], e.as_mut_slice(), n, 4, panel_cols)).1
        };
        let one_panel = bt(n);
        assert!(one_panel.total() > 0);
        assert_eq!(bt(4), one_panel);
    }

    #[test]
    fn measured_flops_include_worker_threads() {
        at_every_type!(measured_flops_include_worker_threads_at);
    }

    fn q1_is_unitary_application_at<T: GemmScalar>() {
        let n = 18;
        let a = rand_hermitian::<T>(n, 72);
        let (band, panels) = band_form(&a, 4);
        let mut q = CMatrixG::<T>::identity(n);
        apply_q(&[], &panels, q.as_mut_slice(), n, 1, 7);
        assert!(unitary_error(&q) < 200.0);
        // Q1 B Q1^H == A.
        let recon = q.multiply(&band).multiply(&q.adjoint());
        assert!(recon.max_diff(&a) < tol::<T>(1e-10) * n as f64);
    }

    #[test]
    fn q1_is_unitary_application() {
        at_every_type!(q1_is_unitary_application_at);
    }

    fn fused_apply_q_matches_unfused_chain_at<T: GemmScalar>() {
        // The fused one-pass Q2 + Q1 after the phase fold D against the
        // unfused trio (naive Level-2 Q2 for the reflector ordering,
        // serial Q1), across panel widths, with and without D.
        for (n, b, seed) in [(22, 3, 90), (31, 5, 91)] {
            let (_, panels) = band_form(&rand_hermitian::<T>(n, seed), b);
            let sweeps = chase_sweeps::<T>(n, b, seed + 3);
            let e0 = rand_mat::<T>(n, n, seed + 7);
            let phases: Vec<T> = (0..n)
                .map(|i| {
                    let th = 0.37 * i as f64;
                    T::new(th.cos(), th.sin())
                })
                .collect();

            let mut want = e0.clone();
            scale_rows(&phases, want.as_mut_slice(), n);
            apply_naive(&sweeps, want.as_mut_slice(), n);
            apply_q(&[], &panels, want.as_mut_slice(), n, 3, n + 1); // serial: one panel

            for pc in [1usize, 5, 0] {
                let mut fused = e0.clone();
                scale_rows(&phases, fused.as_mut_slice(), n);
                apply_q(&sweeps, &panels, fused.as_mut_slice(), n, 3, pc);
                assert!(
                    fused.max_diff(&want) < tol::<T>(1e-11),
                    "fused != D + naive Q2 + serial Q1 (n={n}, b={b}, pc={pc})"
                );
            }

            // Without phases the fused pass is just Q1 Q2.
            let mut want2 = e0.clone();
            apply_q(&sweeps, &[], want2.as_mut_slice(), n, 3, 0);
            apply_q(&[], &panels, want2.as_mut_slice(), n, 3, 0);
            let mut fused2 = e0.clone();
            apply_q(&sweeps, &panels, fused2.as_mut_slice(), n, 3, 0);
            assert!(fused2.max_diff(&want2) < tol::<T>(1e-11));
        }
    }

    #[test]
    fn fused_apply_q_matches_unfused_chain() {
        at_every_type!(fused_apply_q_matches_unfused_chain_at);
    }

    fn phases_scale_rows_at<T: GemmScalar>() {
        let mut e = CMatrixG::<T>::identity(3);
        let p = [T::new(0.0, 1.0), T::new(1.0, 0.0), T::new(-1.0, 0.0)];
        scale_rows(&p, e.as_mut_slice(), 3);
        assert_eq!(e[(0, 0)], T::new(0.0, 1.0));
        assert_eq!(e[(2, 2)], T::new(-1.0, 0.0));
    }

    #[test]
    fn phases_scale_rows() {
        at_every_type!(phases_scale_rows_at);
    }

    /// Bit patterns of `x` (real and imaginary parts widened exactly to
    /// `f64`), so `-0.0` and `0.0` compare unequal.
    fn bits<T: ComplexScalar>(x: &CMatrixG<T>) -> Vec<(u64, u64)> {
        let s = x.as_slice().iter();
        s.map(|v| (v.re().to_bits(), v.im().to_bits())).collect()
    }

    fn serial_and_rayon_loops_agree_bitwise_at<T: GemmScalar>() {
        let (n, b) = (45, 6);
        let (_, panels) = band_form(&rand_hermitian::<T>(n, 95), b);
        let sweeps = chase_sweeps::<T>(n, b, 96);
        let e0 = rand_mat::<T>(n, 29, 97);
        let mut plan = BtPlan::new();
        // Every panel width gives the same bits too: columns are
        // independent all the way through the diamond kernel.
        let mut want = None;
        for pc in [1usize, 5, 8, 0] {
            let mut par = e0.clone();
            apply_q(&sweeps, &panels, par.as_mut_slice(), n, 4, pc);
            let par = bits(&par);
            assert_eq!(
                want.get_or_insert_with(|| par.clone()),
                &par,
                "{} pc={pc}",
                T::TAG
            );
            // A cold plan, then the same plan warm.
            for _ in 0..2 {
                let mut ser = e0.clone();
                let e = ser.as_mut_slice();
                apply_q_ws(&sweeps, &panels, e, n, 4, pc, &mut plan, &Ctrl::NONE).unwrap();
                assert_eq!(bits(&ser), par, "{} pc={pc}", T::TAG);
            }
        }
    }

    #[test]
    fn serial_and_rayon_loops_agree_bitwise() {
        at_every_type!(serial_and_rayon_loops_agree_bitwise_at);
    }
}
