//! Divide & conquer tridiagonal eigensolver (`stedc`).
//!
//! Cuppen's method as engineered in LAPACK (`dlaed0..4`), the solver
//! behind the paper's Figure 4a:
//!
//! 1. Split `T` in half by subtracting a rank-one coupling:
//!    `T = diag(T1', T2') + rho u u^T` with `u` supported on the two
//!    boundary rows, the sub-diagonals of `T1'`/`T2'` untouched.
//! 2. Solve both halves recursively (in parallel — `rayon::join`), QR
//!    iteration at the leaves. Each half solves into its diagonal block
//!    of the output `Z` (zero elsewhere), so `Z`'s columns are the
//!    block-diagonal `Q` of the merge above.
//! 3. *Deflate*: eigenpairs whose coupling weight `z_j` is negligible, or
//!    pairs of nearly equal eigenvalues (merged by a Givens rotation,
//!    applied in place to `Z`'s columns), pass through untouched — this
//!    is where D&C gains its speed.
//! 4. Solve the secular equation for the surviving eigenvalues
//!    ([`crate::secular`]), each root writing its difference table into
//!    its column of a `k x k` region `V`, then rebuild the weight vector
//!    `z` from the computed roots (Gu–Eisenstat) and scale `V`'s columns
//!    into the eigenvectors of the rank-one update, orthogonal to working
//!    precision *by construction*.
//! 5. Back-transform in place, one row panel of `Z` at a time: gather the
//!    panel's rows (survivor columns first), multiply the survivor part
//!    by `V` with `gemm` — the compute-bound heart of the method — and
//!    scatter the panel back in ascending-eigenvalue order.
//!
//! The planned entry point [`stedc_planned`] runs the whole recursion in
//! caller-owned storage: the output `Z` and eigenvalue slots, an `n x n`
//! merge region for the `V`s (the two-stage driver lends its dead
//! stage-1 working copy), and a [`StedcWs`] with the row panels and the
//! `O(n)` index arrays. Concurrent subtrees own disjoint slices of every
//! region. [`stedc`] and [`stedc_with`] run it on a fresh workspace.

use crate::qr_iteration::{self, Block};
use crate::secular;
use crate::{inverse_iteration, sturm};
use rayon::prelude::*;
use tseig_kernels::blas3::{gemm_par, Trans};
use tseig_matrix::chaos;
use tseig_matrix::diagnostics::{Recorder, Recovery};
use tseig_matrix::{Ctrl, Error, Matrix, MemReq, Result, SymTridiagonal};

/// Subproblems at or below this order are solved directly by QR
/// iteration (LAPACK's `SMLSIZ`).
const SMLSIZ: usize = 25;

/// Rows of `Z` one merge gathers, multiplies and scatters at a time.
/// Rows are independent, and `gemm` sums every output element over the
/// same `KC` blocks whatever the number of rows, so the panels give the
/// bits of one product over all rows.
pub const PANEL_ROWS: usize = 256;

/// `f64` arrays of the node's order one merge uses.
const F_ARRAYS: usize = 7;

/// Index arrays of the node's order one merge uses.
const I_ARRAYS: usize = 4;

/// Divide & conquer eigendecomposition: ascending eigenvalues and the
/// full eigenvector matrix.
pub fn stedc(t: &SymTridiagonal) -> Result<(Vec<f64>, Matrix)> {
    stedc_with(t, &Recorder::new(), &Ctrl::NONE)
}

/// [`stedc`] with a recovery recorder: a merge whose output contains a
/// non-finite value (secular-equation breakdown) falls back to QR
/// iteration on that subproblem; a QR leaf hitting its cap falls back to
/// bisection + inverse iteration. Both are recorded. Polls `ctrl` once
/// per subproblem (every recursion node) so cancel and deadline cut the
/// recursion cooperatively. [`stedc_planned`] on a fresh workspace.
pub fn stedc_with(t: &SymTridiagonal, rec: &Recorder, ctrl: &Ctrl) -> Result<(Vec<f64>, Matrix)> {
    let n = t.n();
    let mut ws = StedcWs::new();
    let mut merge = vec![0.0; stedc_merge_len(n)];
    let mut vals = Vec::new();
    let mut z = Matrix::default();
    stedc_planned(t, rec, ctrl, &mut ws, &mut merge, &mut vals, &mut z)?;
    Ok((vals, z))
}

/// Retained scratch of [`stedc_planned`] beside its merge region: the
/// row panels (which the QR leaves also use as their work buffer) and
/// the `O(n)` value and index arrays of the merges.
#[derive(Default)]
pub struct StedcWs {
    panel: Vec<f64>,
    vals: Vec<f64>,
    idx: Vec<usize>,
}

impl StedcWs {
    pub fn new() -> Self {
        StedcWs::default()
    }

    /// Retained capacity in bytes (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        (self.panel.capacity() + self.vals.capacity()) * std::mem::size_of::<f64>()
            + self.idx.capacity() * std::mem::size_of::<usize>()
    }
}

/// Length of the merge region [`stedc_planned`] needs at order `n`: one
/// `k x k` eigenvector matrix per merge, `k <= n`, with concurrent
/// subtrees in disjoint parts.
pub fn stedc_merge_len(n: usize) -> usize {
    if n > SMLSIZ {
        n * n
    } else {
        0
    }
}

/// Requirement of the merge region (see [`stedc_merge_len`]).
pub fn stedc_merge_req(n: usize) -> MemReq {
    MemReq::f64s(stedc_merge_len(n))
}

/// Requirement of the [`StedcWs`] an order-`n` solve retains: the row
/// panels and the `O(n)` arrays.
pub fn stedc_ws_req(n: usize) -> MemReq {
    MemReq::f64s(panel_width(n) * n + F_ARRAYS * n).and(MemReq::of::<usize>(I_ARRAYS * n))
}

/// Workspace requirement of [`stedc_planned`] at order `n` beside its
/// outputs: the merge region plus the [`StedcWs`].
pub fn stedc_req(n: usize) -> MemReq {
    stedc_merge_req(n).and(stedc_ws_req(n))
}

/// Panel elements per row of the order-`n` solve: a node of order `m`
/// owns `panel_width * m` of them, enough for its merge's
/// `min(PANEL_ROWS, m) x m` panel and, at a leaf, for the QR work
/// buffer (whose length per row grows with the leaf order).
fn panel_width(n: usize) -> usize {
    let leaf = SMLSIZ.min(n).max(1);
    PANEL_ROWS
        .min(n)
        .max(qr_iteration::work_len(leaf, true).div_ceil(leaf))
}

/// Planned divide & conquer: the ascending eigenvalues of `t` land in
/// `vals` and its eigenvectors in `z` (`n x n`), bit-identical to
/// [`stedc_with`] with the same fallbacks recorded. `merge` is the
/// scratch region of [`stedc_merge_len`]`(n)` elements (contents
/// ignored and clobbered); everything else lives in `ws`, `vals` and
/// `z`, so once they have warmed up to order `n` only the recovery paths
/// allocate.
#[allow(clippy::too_many_arguments)]
pub fn stedc_planned(
    t: &SymTridiagonal,
    rec: &Recorder,
    ctrl: &Ctrl,
    ws: &mut StedcWs,
    merge: &mut [f64],
    vals: &mut Vec<f64>,
    z: &mut Matrix,
) -> Result<()> {
    let n = t.n();
    let need = stedc_merge_len(n);
    if merge.len() < need {
        return Err(Error::InvalidArgument(
            "stedc_planned: merge region shorter than n * n".into(),
        ));
    }
    let w = panel_width(n);
    vals.clear();
    vals.reserve_exact(n);
    vals.extend_from_slice(t.diag());
    z.reset_to(n, n);
    tseig_matrix::workspace::reset_f64s(&mut ws.panel, w * n);
    tseig_matrix::workspace::reset_f64s(&mut ws.vals, F_ARRAYS * n);
    ws.idx.clear();
    ws.idx.reserve_exact(I_ARRAYS * n);
    ws.idx.resize(I_ARRAYS * n, 0);
    if n == 0 {
        return Ok(());
    }
    let ctx = Ctx {
        t,
        rec,
        ctrl,
        ldz: n,
        w,
    };
    let part = Part {
        z: z.as_mut_slice(),
        d: vals,
        v: &mut merge[..need],
        pan: &mut ws.panel,
        f: &mut ws.vals,
        idx: &mut ws.idx,
    };
    solve_node_ws(&ctx, 0, part)
}

/// What every node of one solve shares.
struct Ctx<'a> {
    /// The untorn matrix: the recovery paths rebuild a node's subproblem
    /// from it.
    t: &'a SymTridiagonal,
    rec: &'a Recorder,
    ctrl: &'a Ctrl,
    /// Leading dimension of `Z` (the order of `t`).
    ldz: usize,
    /// [`panel_width`] of the solve.
    w: usize,
}

/// The storage one subtree owns. A node of order `n` at offset `off`
/// owns columns `off..off + n` of `Z` (whole columns, rows `off..off +
/// n` its diagonal block), its `n` eigenvalue slots (the torn diagonal
/// on entry), `n^2` of the merge region, `w * n` panel elements and
/// `n` of every scratch array.
struct Part<'a> {
    z: &'a mut [f64],
    d: &'a mut [f64],
    v: &'a mut [f64],
    pan: &'a mut [f64],
    f: &'a mut [f64],
    idx: &'a mut [usize],
}

impl Part<'_> {
    /// The parts of the children of orders `m` and `n - m`.
    fn halves(&mut self, m: usize, ldz: usize, w: usize) -> (Part<'_>, Part<'_>) {
        let (zl, zr) = self.z.split_at_mut(m * ldz);
        let (dl, dr) = self.d.split_at_mut(m);
        let (vl, vr) = self.v.split_at_mut(m * m);
        let (pl, pr) = self.pan.split_at_mut(w * m);
        let (fl, fr) = self.f.split_at_mut(F_ARRAYS * m);
        let (il, ir) = self.idx.split_at_mut(I_ARRAYS * m);
        (
            Part {
                z: zl,
                d: dl,
                v: vl,
                pan: pl,
                f: fl,
                idx: il,
            },
            Part {
                z: zr,
                d: dr,
                v: vr,
                pan: pr,
                f: fr,
                idx: ir,
            },
        )
    }
}

/// Solve the node of order `p.d.len()` at offset `off` into its part.
fn solve_node_ws(ctx: &Ctx<'_>, off: usize, mut p: Part<'_>) -> Result<()> {
    let n = p.d.len();
    ctx.ctrl.checkpoint()?;
    if n <= SMLSIZ {
        return leaf_ws(ctx, off, p);
    }
    let m = n / 2;
    let rho = ctx.t.off_diag()[off + m - 1];
    let sign = if rho >= 0.0 { 1.0 } else { -1.0 };
    let rho_abs = rho.abs();

    // Rank-one tear: subtract rho_abs from the two boundary diagonals.
    p.d[m - 1] -= rho_abs;
    p.d[m] -= rho_abs;

    let scope = tseig_kernels::flops::scope();
    let (left, right) = p.halves(m, ctx.ldz, ctx.w);
    let (left, right) = rayon::join(
        || {
            let _charged = scope.enter();
            solve_node_ws(ctx, off, left)
        },
        || {
            let _charged = scope.enter();
            solve_node_ws(ctx, off + m, right)
        },
    );
    left?;
    right?;

    // A secular-equation breakdown surfaces as a non-finite eigenvalue
    // or eigenvector entry; catch it here and re-solve this whole
    // subproblem by QR from its untorn matrix.
    if merge_ws(ctx, off, m, sign, rho_abs, &mut p) {
        return Ok(());
    }
    ctx.rec.record(Recovery::DcFallbackToQr { size: n });
    let (d0, e0) = untorn(ctx.t, off, n);
    let (vals, zq) = solve_by_qr(&d0, &e0, ctx.rec, ctx.ctrl)?;
    store(ctx.ldz, off, &mut p, &vals, &zq);
    Ok(())
}

/// A leaf: QR iteration in place on its diagonal block of `Z`, with its
/// panel share as the work buffer.
fn leaf_ws(ctx: &Ctx<'_>, off: usize, mut p: Part<'_>) -> Result<()> {
    let (n, ldz) = (p.d.len(), ctx.ldz);
    for j in 0..n {
        p.z[off + j + j * ldz] = 1.0;
    }
    let block = Block {
        a: &mut p.z[off..],
        rows: n,
        ld: ldz,
    };
    let e = &ctx.t.off_diag()[off..off + n - 1];
    match qr_iteration::steqr_in(p.d, e, Some(block), p.pan, ctx.ctrl) {
        Ok(()) => Ok(()),
        Err(Error::NoConvergence { index, .. }) => {
            ctx.rec
                .record(Recovery::QrFallbackToBisection { index, size: n });
            let (d0, e0) = untorn(ctx.t, off, n);
            let (vals, zb) = bisect_and_stein(d0, e0, ctx.rec, ctx.ctrl)?;
            store(ldz, off, &mut p, &vals, &zb);
            Ok(())
        }
        Err(other) => Err(other),
    }
}

/// The subproblem of the node of order `n` at offset `off` before its
/// own tear: `t`'s entries with the ancestors' tears at the two ends
/// (the same subtractions the recursion made).
fn untorn(t: &SymTridiagonal, off: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
    let (d, e) = (t.diag(), t.off_diag());
    let mut d0 = d[off..off + n].to_vec();
    let e0 = e[off..off + n - 1].to_vec();
    if off > 0 {
        d0[0] -= e[off - 1].abs();
    }
    if off + n < d.len() {
        d0[n - 1] -= e[off + n - 1].abs();
    }
    (d0, e0)
}

/// Write a recovery path's eigenpairs into the node's part.
fn store(ldz: usize, off: usize, p: &mut Part<'_>, vals: &[f64], zq: &Matrix) {
    let n = vals.len();
    p.d.copy_from_slice(vals);
    for j in 0..n {
        p.z[off + j * ldz..][..n].copy_from_slice(zq.col(j));
    }
}

/// Bisection + inverse iteration on `(d, e)`: the last rung of the
/// ladder.
fn bisect_and_stein(
    d0: Vec<f64>,
    e0: Vec<f64>,
    rec: &Recorder,
    ctrl: &Ctrl,
) -> Result<(Vec<f64>, Matrix)> {
    let n = d0.len();
    let t = SymTridiagonal::new(d0, e0);
    let vals = sturm::bisect_with(&t, 0, n, rec, ctrl)?;
    let zb = inverse_iteration::stein_with(&t, &vals, rec, ctrl)?;
    Ok((vals, zb))
}

/// Solve the subproblem `(d, e)` by QR iteration with the
/// bisection + inverse-iteration safety net — the shared tail of every
/// fallback path.
fn solve_by_qr(d0: &[f64], e0: &[f64], rec: &Recorder, ctrl: &Ctrl) -> Result<(Vec<f64>, Matrix)> {
    let n = d0.len();
    let mut dr = d0.to_vec();
    let mut er = e0.to_vec();
    let mut z = Matrix::identity(n);
    let mut ee = Vec::new();
    match crate::qr_iteration::steqr_ws(&mut dr, &mut er, Some(&mut z), &mut ee, ctrl) {
        Ok(()) => Ok((dr, z)),
        Err(Error::NoConvergence { index, .. }) => {
            rec.record(Recovery::QrFallbackToBisection { index, size: n });
            bisect_and_stein(d0.to_vec(), e0.to_vec(), rec, ctrl)
        }
        Err(other) => Err(other),
    }
}

/// Columns `a` and `b` (`a != b`) of the node's block: rows `r0..r0 +
/// n` of columns `a` and `b` of `z`.
fn col_pair(
    z: &mut [f64],
    ldz: usize,
    r0: usize,
    n: usize,
    a: usize,
    b: usize,
) -> (&mut [f64], &mut [f64]) {
    let (lo, hi) = (a.min(b), a.max(b));
    let (head, tail) = z.split_at_mut(hi * ldz);
    let (x, y) = (&mut head[lo * ldz + r0..][..n], &mut tail[r0..][..n]);
    if a < b {
        (x, y)
    } else {
        (y, x)
    }
}

/// Merge two solved halves through the rank-one update
/// `diag(d) + rho_abs * z z^T` in the basis of the block-diagonal `Q`
/// that the children left in the node's block of `Z`. On return the
/// node's eigenvalues are in `p.d` (ascending) and its eigenvectors in
/// its block; `false` means a non-finite value came out and the caller
/// must re-solve the node.
fn merge_ws(
    ctx: &Ctx<'_>,
    off: usize,
    m: usize,
    sign: f64,
    rho_abs: f64,
    p: &mut Part<'_>,
) -> bool {
    let (n, ldz, r0) = (p.d.len(), ctx.ldz, off);
    let eps = f64::EPSILON;
    let mut f = p.f.chunks_exact_mut(n);
    let mut next = || f.next().unwrap_or_default();
    let (zin, dv, zv, ds, zs, zhat, lam) = (next(), next(), next(), next(), next(), next(), next());
    let mut ix = p.idx.chunks_exact_mut(n);
    let mut next = || ix.next().unwrap_or_default();
    let (order, surv, defl, perm) = (next(), next(), next(), next());

    // Coupling weights z = Q^T u: the last row of Q1, the first of Q2.
    for (j, w) in zin.iter_mut().enumerate() {
        *w = if j < m {
            p.z[r0 + m - 1 + j * ldz]
        } else {
            sign * p.z[r0 + m + j * ldz]
        };
    }

    // Sort by d value (ties keep their order).
    let d_all = &*p.d;
    for (j, o) in order.iter_mut().enumerate() {
        *o = j;
    }
    order.sort_unstable_by(|&a, &b| d_all[a].total_cmp(&d_all[b]).then(a.cmp(&b)));
    for (dj, &j) in dv.iter_mut().zip(order.iter()) {
        *dj = d_all[j];
    }

    // Normalize z, fold its norm into rho.
    let znorm2: f64 = zin.iter().map(|v| v * v).sum();
    let rho_eff = rho_abs * znorm2;

    // Entries in sorted order: survivors (a stack, since a rotation can
    // deflate the last one) and deflated columns.
    let (mut k, mut nd) = (0, 0);
    if rho_eff == 0.0 {
        // Fully decoupled: the spectra just interleave.
        for (j, x) in defl.iter_mut().enumerate() {
            *x = j;
        }
        nd = n;
    } else {
        let zscale = znorm2.sqrt();
        for (zj, &j) in zv.iter_mut().zip(order.iter()) {
            *zj = zin[j] / zscale;
        }
        let dmax = dv.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let zmax = zv.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let tol = 8.0 * eps * dmax.max(rho_eff * zmax);

        // Deflation pass; rotations act on Q's columns in place.
        for j in 0..n {
            if rho_eff * zv[j].abs() <= tol {
                zv[j] = 0.0;
                defl[nd] = j;
                nd += 1;
                continue;
            }
            if k > 0 {
                let p_ = surv[k - 1];
                let (z1, z2) = (zv[p_], zv[j]);
                let tau = z1.hypot(z2);
                let c = z2 / tau;
                let s = z1 / tau;
                if ((dv[j] - dv[p_]) * c * s).abs() <= tol {
                    // Rotate the pair: p deflates with z=0, j survives
                    // with weight tau.
                    zv[j] = tau;
                    zv[p_] = 0.0;
                    let (d1v, d2v) = (dv[p_], dv[j]);
                    dv[p_] = c * c * d1v + s * s * d2v;
                    dv[j] = s * s * d1v + c * c * d2v;
                    let (qp, qj) = col_pair(p.z, ldz, r0, n, order[p_], order[j]);
                    for (a, b) in qp.iter_mut().zip(qj.iter_mut()) {
                        let (x, y) = (*a, *b);
                        *a = c * x - s * y;
                        *b = s * x + c * y;
                    }
                    k -= 1;
                    defl[nd] = p_;
                    nd += 1;
                }
            }
            surv[k] = j;
            k += 1;
        }
    }

    // The rank-one eigenvectors, one column of V per secular root.
    let v = &mut p.v[..k * k];
    if k > 0 {
        for (i, &j) in surv[..k].iter().enumerate() {
            ds[i] = dv[j];
            zs[i] = zv[j];
        }
        let (ds, zs) = (&ds[..k], &zs[..k]);
        // Each root is independent: column i of V takes d_j - lambda_i.
        let roots = v
            .par_chunks_mut(k)
            .enumerate()
            .map(|(i, col)| secular::solve_root_into(i, ds, zs, rho_eff, col));
        // tidy: allow(plan-no-alloc) -- the pool returns its k results in a list
        let roots: Vec<f64> = roots.collect();
        lam[..k].copy_from_slice(&roots);
        // Chaos: a NaN root models a secular solve that walked out of
        // its bracket; the finiteness check below must catch it.
        if chaos::fire(chaos::Site::SecularNan) {
            lam[0] = f64::NAN;
        }

        // Gu–Eisenstat: recompute weights from the computed roots so the
        // eigenvectors are orthogonal regardless of secular rounding:
        // zhat_j^2 = (lambda_j - d_j) prod_{i != j} (lambda_i - d_j)/(d_i - d_j),
        // the factors taken in ascending i for every j.
        let zhat = &mut zhat[..k];
        for (j, h) in zhat.iter_mut().enumerate() {
            *h = -v[j + j * k]; // lambda_j - d_j >= 0
        }
        for (i, col) in v.chunks_exact(k).enumerate() {
            let di = ds[i];
            for j in (0..i).chain(i + 1..k) {
                zhat[j] *= -col[j] / (di - ds[j]);
            }
        }
        for (h, &zj) in zhat.iter_mut().zip(zs) {
            *h = h.abs().sqrt().copysign(zj);
        }

        // Column i takes zhat_j / (d_j - lambda_i), normalized.
        for col in v.chunks_exact_mut(k) {
            let mut nrm = 0.0;
            for (cv, &h) in col.iter_mut().zip(zhat.iter()) {
                let val = h / *cv;
                *cv = val;
                nrm += val * val;
            }
            let inv = 1.0 / nrm.sqrt();
            for cv in col.iter_mut() {
                *cv *= inv;
            }
        }
    }

    // Output order: ascending eigenvalue, secular roots before deflated
    // columns on ties. Source s < k is root s, s >= k deflated column
    // s - k.
    for (t, &j) in defl[..nd].iter().enumerate() {
        lam[k + t] = dv[j];
    }
    for (s, x) in perm.iter_mut().enumerate() {
        *x = s;
    }
    perm.sort_unstable_by(|&a, &b| lam[a].total_cmp(&lam[b]).then(a.cmp(&b)));
    for (dj, &s) in p.d.iter_mut().zip(perm.iter()) {
        *dj = lam[s];
    }
    if !p.d.iter().all(|x| x.is_finite()) {
        return false;
    }

    // Back-transform, one row panel at a time.
    let mut finite = true;
    for i0 in (0..n).step_by(PANEL_ROWS) {
        let rows = PANEL_ROWS.min(n - i0);
        let pan = &mut p.pan[..rows * n];
        // Gather the panel's rows of Q, survivors first.
        for (c, dst) in pan.chunks_exact_mut(rows).enumerate() {
            let j = if c < k { surv[c] } else { defl[c - k] };
            dst.copy_from_slice(&p.z[r0 + i0 + order[j] * ldz..][..rows]);
        }
        if k > 0 {
            // Survivor rows times V into the (now free) first k columns
            // of the panel's rows of Z, then back beside the deflated.
            gemm_par(
                Trans::No,
                Trans::No,
                rows,
                k,
                k,
                1.0,
                &pan[..rows * k],
                rows,
                v,
                k,
                0.0,
                &mut p.z[r0 + i0..],
                ldz,
            );
            for (c, dst) in pan[..rows * k].chunks_exact_mut(rows).enumerate() {
                dst.copy_from_slice(&p.z[r0 + i0 + c * ldz..][..rows]);
            }
        }
        finite &= pan.iter().all(|x| x.is_finite());
        for (jj, &s) in perm.iter().enumerate() {
            p.z[r0 + i0 + jj * ldz..][..rows].copy_from_slice(&pan[s * rows..][..rows]);
        }
    }
    finite
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    fn check(t: &SymTridiagonal, exact: Option<&[f64]>, tag: &str) {
        let (vals, z) = stedc(t).unwrap();
        if let Some(exact) = exact {
            assert!(
                norms::eigenvalue_distance(&vals, exact) < 1e-11,
                "{tag}: eigenvalues wrong"
            );
        }
        let dense = t.to_dense();
        let res = norms::eigen_residual(&dense, &vals, &z);
        let orth = norms::orthogonality(&z);
        assert!(res < 200.0, "{tag}: residual {res}");
        assert!(orth < 200.0, "{tag}: orthogonality {orth}");
    }

    #[test]
    fn small_leaf_path() {
        let t = gen::laplacian_1d(10);
        check(&t, Some(&gen::laplacian_1d_eigenvalues(10)), "laplacian10");
    }

    #[test]
    fn single_merge() {
        let n = 40; // one level of merging above SMLSIZ
        let t = gen::laplacian_1d(n);
        check(&t, Some(&gen::laplacian_1d_eigenvalues(n)), "laplacian40");
    }

    #[test]
    fn deep_recursion() {
        let n = 150;
        let t = gen::laplacian_1d(n);
        check(&t, Some(&gen::laplacian_1d_eigenvalues(n)), "laplacian150");
    }

    #[test]
    fn clement_exact_integers() {
        let n = 64;
        let t = gen::clement(n);
        check(&t, Some(&gen::clement_eigenvalues(n)), "clement64");
    }

    #[test]
    fn wilkinson_close_pairs() {
        let t = gen::wilkinson(51);
        check(&t, None, "wilkinson51");
    }

    #[test]
    fn negative_coupling() {
        // Off-diagonals all negative exercise the sign handling of the
        // rank-one tear.
        let n = 60;
        let t = gen::laplacian_1d(n); // e = -1 everywhere
        let (vals, _) = stedc(&t).unwrap();
        assert!(norms::eigenvalue_distance(&vals, &gen::laplacian_1d_eigenvalues(n)) < 1e-11);
    }

    #[test]
    fn zero_coupling_splits_cleanly() {
        // e[m-1] == 0: two independent blocks.
        let n = 52;
        let m = n / 2;
        let mut d = vec![0.0; n];
        let mut e = vec![0.5; n - 1];
        for (i, dv) in d.iter_mut().enumerate() {
            *dv = (i % 7) as f64;
        }
        e[m - 1] = 0.0;
        let t = SymTridiagonal::new(d, e);
        check(&t, None, "split");
    }

    #[test]
    fn heavy_deflation_identity_like() {
        // Constant diagonal with tiny couplings: nearly everything
        // deflates.
        let n = 80;
        let d = vec![3.0; n];
        let e = vec![1e-300; n - 1];
        let t = SymTridiagonal::new(d, e);
        let (vals, z) = stedc(&t).unwrap();
        for v in &vals {
            assert!((v - 3.0).abs() < 1e-12);
        }
        assert!(norms::orthogonality(&z) < 100.0);
    }

    #[test]
    fn random_spectra_match_qr() {
        use crate::qr_iteration::steqr;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..3 {
            let n = 70 + trial * 13;
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let t = SymTridiagonal::new(d.clone(), e.clone());
            let (vals, z) = stedc(&t).unwrap();
            let mut dq = d.clone();
            let mut eq = e.clone();
            steqr(&mut dq, &mut eq, None).unwrap();
            assert!(
                norms::eigenvalue_distance(&vals, &dq) < 1e-10,
                "trial {trial}: D&C vs QR eigenvalues"
            );
            assert!(norms::eigen_residual(&t.to_dense(), &vals, &z) < 200.0);
            assert!(norms::orthogonality(&z) < 200.0);
        }
    }
}
