//! Stage 2 of the two-stage SVD: band to bidiagonal bulge chase.
//!
//! The general-band counterpart of `tseig-core`'s symmetric chase. The
//! input is the upper-triangular band produced by [`crate::stage1::ge2bb`]
//! (bandwidth `b`, stored in a [`GeBandMatrix`] with `kl = b` and
//! `ku = 2b` so bulge fill never leaves the store); the output is the
//! upper bidiagonal `(d, e)` plus the full set of chase reflectors for
//! the `U`/`V` back-transformation.
//!
//! Each sweep `s` eliminates row `s` beyond the superdiagonal and chases
//! the resulting bulge off the bottom-right corner:
//!
//! * task `(s, 0)` — `gbelr`: a *right* reflector over columns
//!   `s+1 ..= min(s+b, n-1)` annihilates row `s` past the superdiagonal;
//!   applying it to the rows below fills a `b`-wide block under the
//!   diagonal.
//! * task `(s, k >= 1)` — `gbcle+gbelr`: a *left* reflector over rows
//!   `a ..= r_k` (`a = s+1+(k-1)b`, `r_k = min(s+kb, n-1)`) annihilates
//!   the fill in column `a` below the diagonal; applying it to the
//!   trailing columns pushes the bulge right, and a second *right*
//!   reflector over columns `a+b ..= r_{k+1}` pushes it down. Unlike the
//!   symmetric chase, every task annihilates fill its *predecessor's*
//!   applications fully materialized, so tasks never read each other's
//!   reflectors — ordering comes from band-interval overlap alone.
//!
//! The task set, its exact interval footprints and the static owners are
//! the runtime's `Geometry::Bidiagonal` (`tseig_runtime::chase`), which
//! `xtask graphcheck` certifies race-free over the same sweep as the
//! symmetric band geometry; the same footprints drive the Serial / Static
//! / Dynamic arms of [`reduce_scheduled`]. This module supplies only the
//! kernels and how one `(s, k)` task runs them ([`chase_task_specs`]
//! exports the declared specs).

use tseig_kernels::contract;
use tseig_kernels::flops::{self, add, add_bytes, Level};
use tseig_kernels::householder::{larf_left, larf_right, larfg};
use tseig_matrix::workspace::{reset_f64s, MemReq};
use tseig_matrix::{Ctrl, GeBandMatrix, Matrix};
use tseig_runtime::chase::{self, Chase, ChaseTask, Geometry, BAND_SPACE};
use tseig_runtime::verify::TaskSpec;
use tseig_runtime::{shadow, Access};

/// One `(sweep, step)` reflector slot: the optional left reflector
/// (absent for step 0) and the optional right reflector (absent when the
/// bulge has already reached the border). A reflector acts on the
/// contiguous index range `start .. start + v.len()` with an explicit
/// leading 1 in `v[0]`.
#[derive(Clone, Debug, Default)]
pub struct BvSlot {
    /// Left reflector row origin.
    pub l0: usize,
    /// Left reflector scalar.
    pub ltau: f64,
    /// Left reflector vector (empty = absent).
    pub lv: Vec<f64>,
    /// Right reflector column origin.
    pub r0: usize,
    /// Right reflector scalar.
    pub rtau: f64,
    /// Right reflector vector (empty = absent).
    pub rv: Vec<f64>,
}

/// The full set of stage-2 chase reflectors, indexed `[sweep][step]`.
/// Storage is retained across [`reset`](BvSet::reset)s at the same shape
/// so a warmed-up plan refills it without touching the allocator.
#[derive(Debug, Default)]
pub struct BvSet {
    n: usize,
    b: usize,
    sweeps: Vec<Vec<BvSlot>>,
}

impl BvSet {
    /// Fresh set for an order-`n`, bandwidth-`b` chase.
    pub fn new(n: usize, b: usize) -> BvSet {
        let mut set = BvSet::default();
        set.reset(n, b);
        set
    }

    /// Matrix order this set was shaped for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth this set was shaped for.
    pub fn bandwidth(&self) -> usize {
        self.b
    }

    /// Reshape for an `(n, b)` chase, clearing every slot but keeping
    /// buffer capacity (allocation-free once warm at a fixed shape).
    pub fn reset(&mut self, n: usize, b: usize) {
        self.n = n;
        self.b = b;
        let ns = if n > 2 && b > 1 { n - 2 } else { 0 };
        self.sweeps.truncate(ns);
        // tidy: allow(checkpoint-loop) -- workspace reshaping, no solver iteration
        while self.sweeps.len() < ns {
            self.sweeps.push(Vec::new());
        }
        for (s, sweep) in self.sweeps.iter_mut().enumerate() {
            let steps = Geometry::Bidiagonal.steps_of_sweep(n, b, s);
            sweep.truncate(steps);
            // tidy: allow(checkpoint-loop) -- workspace reshaping, no solver iteration
            while sweep.len() < steps {
                sweep.push(BvSlot::default());
            }
            for slot in sweep.iter_mut() {
                slot.l0 = 0;
                slot.ltau = 0.0;
                slot.lv.clear();
                slot.r0 = 0;
                slot.rtau = 0.0;
                slot.rv.clear();
            }
        }
    }

    /// Store the left reflector of slot `(s, k)` from a scratch slice.
    fn store_left(&mut self, s: usize, k: usize, l0: usize, tau: f64, v: &[f64]) {
        let slot = &mut self.sweeps[s][k];
        slot.l0 = l0;
        slot.ltau = tau;
        slot.lv.clear();
        slot.lv.reserve_exact(v.len());
        slot.lv.extend_from_slice(v);
    }

    /// Store the right reflector of slot `(s, k)` from a scratch slice.
    fn store_right(&mut self, s: usize, k: usize, r0: usize, tau: f64, v: &[f64]) {
        let slot = &mut self.sweeps[s][k];
        slot.r0 = r0;
        slot.rtau = tau;
        slot.rv.clear();
        slot.rv.reserve_exact(v.len());
        slot.rv.extend_from_slice(v);
    }

    /// Apply the accumulated *left* chase reflectors to `u` (first
    /// applied in the chase = outermost factor), i.e.
    /// `u <- L_(0,1) L_(0,2) ... L_(last) u`. With `u = U_b` this
    /// completes the left singular vectors of the band matrix.
    // tidy: allow(task-storage) -- main-thread dense back-transform after the chase
    pub fn apply_left(&self, u: &mut Matrix) {
        assert_eq!(u.rows(), self.n, "row count must match the chase order");
        let nc = u.cols();
        let ldu = u.ld();
        let mut work = vec![0.0f64; nc];
        for sweep in self.sweeps.iter().rev() {
            for slot in sweep.iter().rev() {
                if slot.lv.is_empty() || slot.ltau == 0.0 {
                    continue;
                }
                let len = slot.lv.len();
                larf_left(
                    &slot.lv,
                    slot.ltau,
                    len,
                    nc,
                    &mut u.as_mut_slice()[slot.l0..],
                    ldu,
                    &mut work,
                );
            }
        }
    }

    /// Apply the accumulated *right* chase reflectors to `v` (acting on
    /// the column coordinate space, so on `v`'s rows):
    /// `v <- R_(0,0) R_(0,1) ... R_(last) v`. With `v = V_b` this
    /// completes the right singular vectors of the band matrix.
    // tidy: allow(task-storage) -- main-thread dense back-transform after the chase
    pub fn apply_right(&self, v: &mut Matrix) {
        assert_eq!(v.rows(), self.n, "row count must match the chase order");
        let nc = v.cols();
        let ldv = v.ld();
        let mut work = vec![0.0f64; nc];
        for sweep in self.sweeps.iter().rev() {
            for slot in sweep.iter().rev() {
                if slot.rv.is_empty() || slot.rtau == 0.0 {
                    continue;
                }
                let len = slot.rv.len();
                larf_left(
                    &slot.rv,
                    slot.rtau,
                    len,
                    nc,
                    &mut v.as_mut_slice()[slot.r0..],
                    ldv,
                    &mut work,
                );
            }
        }
    }

    /// Bytes of heap capacity retained (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sweeps
            .iter()
            .map(|sweep| {
                sweep
                    .iter()
                    .map(|slot| (slot.lv.capacity() + slot.rv.capacity()) * size_of::<f64>())
                    .sum::<usize>()
                    + sweep.capacity() * size_of::<BvSlot>()
            })
            .sum()
    }
}

/// Workspace requirement of the chase kernels for bandwidth `b`: one
/// dense scratch rectangle (at most `(2b+1) x (b+1)` either way), one
/// `larf` work row, one reflector vector.
pub fn stage2_ws_req(b: usize) -> MemReq {
    let w = 2 * b + 1;
    MemReq::f64s(w * (b + 1))
        .and(MemReq::f64s(w))
        .and(MemReq::f64s(b + 1))
}

/// Reusable scratch of the chase kernels.
#[derive(Debug, Default)]
pub struct Stage2Ws {
    scratch: Vec<f64>,
    work: Vec<f64>,
    v: Vec<f64>,
}

impl Stage2Ws {
    pub fn new() -> Stage2Ws {
        Stage2Ws::default()
    }

    /// Bytes of heap capacity retained (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        (self.scratch.capacity() + self.work.capacity() + self.v.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Result of the stage-2 reduction: the bidiagonal and the reflector set
/// of the chase.
pub struct ChaseResult {
    /// Diagonal of the bidiagonal form (length `n`).
    pub d: Vec<f64>,
    /// Superdiagonal (length `n - 1`).
    pub e: Vec<f64>,
    /// Chase reflectors for the back-transformation.
    pub bv: BvSet,
}

/// Report a band touch over the inclusive diagonal-index interval
/// `[lo, hi]`.
fn touch_band(lo: usize, hi: usize, access: Access) {
    shadow::touch(BAND_SPACE, lo as u64, hi as u64 + 1, access);
}

/// Whole-band finite/shape contract at the driver entry points.
// tidy: allow(task-storage) -- whole-band main-thread contract before any task runs
fn band_contract(kernel: &'static str, band: &GeBandMatrix) {
    if contract::enabled() {
        let ab = band.as_slice();
        contract::require_vec(kernel, "ab", ab, ab.len());
        contract::require_finite_vec(kernel, "ab", ab, ab.len());
    }
}

/// `(a, r_k, r_{k+1})` bounds of chase task `(s, k >= 1)`.
fn bounds(n: usize, b: usize, s: usize, k: usize) -> (usize, usize, usize) {
    let a = s + 1 + (k - 1) * b;
    let rk = (s + k * b).min(n - 1);
    let rk1 = (s + (k + 1) * b).min(n - 1);
    (a, rk, rk1)
}

/// Copy the band rectangle `rows r0 .. r0+m x cols c0 .. c0+l` into
/// column-major dense scratch (leading dimension `m`). The caller must
/// have sized `scratch`; the rectangle's own diagonal-interval touch is
/// reported here (always inside the caller's covering span).
fn rect_to_dense(
    band: &GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    scratch: &mut [f64],
) {
    touch_band(r0.min(c0), (r0 + m - 1).max(c0 + l - 1), Access::Read);
    for c in 0..l {
        for r in 0..m {
            scratch[r + c * m] = band.get(r0 + r, c0 + c);
        }
    }
}

/// Inverse of [`rect_to_dense`]. Every `(i, j)` of the rectangle must be
/// inside the band store (the chase geometry guarantees it).
fn rect_from_dense(
    band: &mut GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    scratch: &[f64],
) {
    touch_band(r0.min(c0), (r0 + m - 1).max(c0 + l - 1), Access::Write);
    for c in 0..l {
        for r in 0..m {
            band.set(r0 + r, c0 + c, scratch[r + c * m]);
        }
    }
}

/// Apply the right reflector `(v[..l], tau)` (columns `c0 ..`) to the
/// band rectangle `rows r0 .. r0+m x cols c0 .. c0+l` through dense
/// scratch.
#[allow(clippy::too_many_arguments)]
fn rect_apply_right(
    band: &mut GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    v: &[f64],
    tau: f64,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
) {
    if tau == 0.0 || m == 0 || l == 0 {
        return;
    }
    reset_f64s(scratch, m * l);
    reset_f64s(work, m);
    rect_to_dense(band, r0, c0, m, l, scratch);
    larf_right(&v[..l], tau, m, l, scratch, m, work);
    rect_from_dense(band, r0, c0, m, l, scratch);
}

/// Apply the left reflector `(v[..m], tau)` (rows `r0 ..`) to the band
/// rectangle `rows r0 .. r0+m x cols c0 .. c0+l` through dense scratch.
#[allow(clippy::too_many_arguments)]
fn rect_apply_left(
    band: &mut GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    v: &[f64],
    tau: f64,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
) {
    if tau == 0.0 || m == 0 || l == 0 {
        return;
    }
    reset_f64s(scratch, m * l);
    reset_f64s(work, l);
    rect_to_dense(band, r0, c0, m, l, scratch);
    larf_left(&v[..m], tau, m, l, scratch, m, work);
    rect_from_dense(band, r0, c0, m, l, scratch);
}

/// `gbelr` head kernel of sweep `s`: generate the right reflector that
/// annihilates row `s` past the superdiagonal and apply it to the rows
/// below. Returns `(column origin, tau)`; the reflector vector is left
/// in `v`.
fn gbelr_head_ws(
    band: &mut GeBandMatrix,
    s: usize,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> (usize, f64) {
    let n = band.n();
    let b = band.kl();
    let c1 = (s + b).min(n - 1);
    let l = c1 - s; // columns s+1 ..= c1
    debug_assert!(l >= 2, "head task needs fill to annihilate");
    touch_band(s, c1, Access::Write);
    reset_f64s(v, l);
    for (idx, vi) in v.iter_mut().enumerate() {
        *vi = band.get(s, s + 1 + idx);
    }
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        larfg(head[0], tail)
    };
    v[0] = 1.0;
    band.set(s, s + 1, beta);
    for j in s + 2..=c1 {
        band.set(s, j, 0.0);
    }
    add(Level::L1, 2 * l as u64);
    add_bytes(Level::L1, 16 * l as u64);
    // Rows s+1 ..= c1 are the only others with entries in those columns.
    rect_apply_right(band, s + 1, s + 1, c1 - s, l, v, tau, scratch, work);
    (s + 1, tau)
}

/// `gbcle` kernel of task `(s, k >= 1)`: generate the left reflector that
/// annihilates the bulge in column `a` below the diagonal and apply it to
/// the trailing columns. Returns `(row origin, tau)`; the vector is left
/// in `v`.
fn gbcle_ws(
    band: &mut GeBandMatrix,
    s: usize,
    k: usize,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> (usize, f64) {
    let n = band.n();
    let b = band.kl();
    let (a, rk, rk1) = bounds(n, b, s, k);
    debug_assert!(rk > a, "left reflector needs >= 2 rows");
    touch_band(a, rk1, Access::Write);
    let ll = rk - a + 1;
    reset_f64s(v, ll);
    for (idx, vi) in v.iter_mut().enumerate() {
        *vi = band.get(a + idx, a);
    }
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        larfg(head[0], tail)
    };
    v[0] = 1.0;
    band.set(a, a, beta);
    for i in a + 1..=rk {
        band.set(i, a, 0.0);
    }
    add(Level::L1, 2 * ll as u64);
    add_bytes(Level::L1, 16 * ll as u64);
    rect_apply_left(band, a, a + 1, ll, rk1 - a, v, tau, scratch, work);
    (a, tau)
}

/// Trailing `gbelr` kernel of task `(s, k >= 1)`: generate the right
/// reflector that pushes the bulge in row `a` back inside bandwidth `b`
/// and apply it to the rows below. `None` when the bulge has already
/// reached the border.
fn gbelr_tail_ws(
    band: &mut GeBandMatrix,
    s: usize,
    k: usize,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> Option<(usize, f64)> {
    let n = band.n();
    let b = band.kl();
    let (a, _rk, rk1) = bounds(n, b, s, k);
    let c0 = a + b;
    if c0 + 1 > rk1 {
        return None;
    }
    touch_band(a, rk1, Access::Write);
    let rl = rk1 - c0 + 1;
    reset_f64s(v, rl);
    for (idx, vi) in v.iter_mut().enumerate() {
        *vi = band.get(a, c0 + idx);
    }
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        larfg(head[0], tail)
    };
    v[0] = 1.0;
    band.set(a, c0, beta);
    for j in c0 + 1..=rk1 {
        band.set(a, j, 0.0);
    }
    add(Level::L1, 2 * rl as u64);
    add_bytes(Level::L1, 16 * rl as u64);
    rect_apply_right(band, a + 1, c0, rk1 - a, rl, v, tau, scratch, work);
    Some((c0, tau))
}

/// Serial chase of one sweep with caller-owned scratch.
fn run_sweep_ws(band: &mut GeBandMatrix, bv: &mut BvSet, ws: &mut Stage2Ws, s: usize) {
    let n = band.n();
    let b = band.kl();
    let steps = Geometry::Bidiagonal.steps_of_sweep(n, b, s);
    if steps == 0 {
        return;
    }
    let (c0, tau) = gbelr_head_ws(band, s, &mut ws.scratch, &mut ws.work, &mut ws.v);
    bv.store_right(s, 0, c0, tau, &ws.v);
    for k in 1..steps {
        let (l0, ltau) = gbcle_ws(band, s, k, &mut ws.scratch, &mut ws.work, &mut ws.v);
        bv.store_left(s, k, l0, ltau, &ws.v);
        if let Some((r0, rtau)) =
            gbelr_tail_ws(band, s, k, &mut ws.scratch, &mut ws.work, &mut ws.v)
        {
            bv.store_right(s, k, r0, rtau, &ws.v);
        }
    }
}

/// Reduce an upper-band matrix (logical bandwidth `kl`, with `ku >= 2*kl`
/// fill diagonals) to bidiagonal form. Serial, allocating entry point.
pub fn reduce(mut band: GeBandMatrix) -> ChaseResult {
    let mut bv = BvSet::default();
    let mut ws = Stage2Ws::default();
    let mut d = Vec::new();
    let mut e = Vec::new();
    // An inert control never fails a checkpoint.
    let _ = reduce_ws(&mut band, &mut bv, &mut ws, &mut d, &mut e, &Ctrl::NONE);
    ChaseResult { d, e, bv }
}

/// Planned variant of [`reduce`]: band, reflector set, scratch, and the
/// bidiagonal output all live in caller-owned storage. Polls `ctrl` once
/// per sweep — an armed cancel or expired deadline aborts between sweeps
/// with the structured error, leaving the caller's plan reusable.
pub fn reduce_ws(
    band: &mut GeBandMatrix,
    bv: &mut BvSet,
    ws: &mut Stage2Ws,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    let n = band.n();
    let b = band.kl();
    assert!(
        band.ku() >= 2 * b,
        "bulge chase needs ku >= 2*kl fill diagonals"
    );
    band_contract("ge2bd", band);
    bv.reset(n, b);
    if n > 2 && b > 1 {
        for s in 0..n - 2 {
            ctrl.checkpoint()?;
            run_sweep_ws(band, bv, ws, s);
        }
    }
    reset_f64s(d, n);
    reset_f64s(e, n.saturating_sub(1));
    band.to_bidiagonal_into(d, e);
    Ok(())
}

/// Scheduler selection for the chase (the runtime's one scheduler enum).
pub use tseig_runtime::chase::Scheduler as Stage2Exec;

impl Chase for BvSet {
    type Band = GeBandMatrix;
    type Ctx = flops::Scope;
    const GEOMETRY: Geometry = Geometry::Bidiagonal;
    const TAGS: [&'static str; 2] = ["gbelr", "gbcle+gbelr"];

    /// Task `(s, 0)` is the `gbelr` head, `(s, k >= 1)` the
    /// `gbcle`+`gbelr` pair. Each task writes only its own reflector
    /// slot; band touches are reported by the kernels, the slot touch
    /// here.
    fn run_task(
        &mut self,
        band: &mut GeBandMatrix,
        scope: &flops::Scope,
        n: usize,
        b: usize,
        t: ChaseTask,
    ) {
        let _charged = scope.enter();
        let slot = Geometry::Bidiagonal.slot(n, b, t.s, t.k);
        let mut scratch = Vec::new();
        let mut work = Vec::new();
        let mut v = Vec::new();
        if t.k == 0 {
            let (c0, tau) = gbelr_head_ws(band, t.s, &mut scratch, &mut work, &mut v);
            shadow::touch_region(slot, Access::Write);
            self.store_right(t.s, 0, c0, tau, &v);
        } else {
            let (l0, ltau) = gbcle_ws(band, t.s, t.k, &mut scratch, &mut work, &mut v);
            shadow::touch_region(slot, Access::Write);
            self.store_left(t.s, t.k, l0, ltau, &v);
            if let Some((r0, rtau)) = gbelr_tail_ws(band, t.s, t.k, &mut scratch, &mut work, &mut v)
            {
                self.store_right(t.s, t.k, r0, rtau, &v);
            }
        }
    }
}

/// The chase task set as *declared* specs — the same
/// `(tag, priority, regions)` triples [`reduce_scheduled`] submits,
/// exported for offline verification (`xtask graphcheck`).
pub fn chase_task_specs(n: usize, b: usize) -> Vec<TaskSpec> {
    BvSet::GEOMETRY.specs(n, b, BvSet::TAGS)
}

/// Run the bulge chase under the chosen scheduler: [`reduce_ws`] for
/// `Serial`, the shared chase executor otherwise. Produces the same
/// bidiagonal and reflector set as [`reduce`], bitwise. The serial loop
/// checkpoints `ctrl` per sweep; the executor's workers poll it between
/// task claims and drain on an armed cancel or expired deadline with
/// `Err(tseig_runtime::STOPPED_BY_POLL)`.
pub fn reduce_scheduled(
    band: GeBandMatrix,
    exec: Stage2Exec,
    ctrl: &Ctrl,
) -> Result<ChaseResult, String> {
    let (n, b) = (band.n(), band.kl());
    assert!(
        band.ku() >= 2 * b,
        "bulge chase needs ku >= 2*kl fill diagonals"
    );
    if exec == Stage2Exec::Serial {
        let (mut band, mut bv, mut d, mut e) = (band, BvSet::default(), Vec::new(), Vec::new());
        reduce_ws(
            &mut band,
            &mut bv,
            &mut Stage2Ws::default(),
            &mut d,
            &mut e,
            ctrl,
        )
        .map_err(|e| e.to_string())?;
        return Ok(ChaseResult { d, e, bv });
    }
    band_contract("reduce_scheduled", &band);
    let (band, bv) = chase::run(exec, band, BvSet::new(n, b), flops::scope(), n, b, &|| {
        ctrl.poll_stop()
    })?;
    let (mut d, mut e) = (vec![0.0; n], vec![0.0; n.saturating_sub(1)]);
    band.to_bidiagonal_into(&mut d, &mut e);
    Ok(ChaseResult { d, e, bv })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_band(n: usize, b: usize, seed: u64) -> GeBandMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i <= j && j <= i + b {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        GeBandMatrix::from_dense(&dense, b, 2 * b)
    }

    fn bidiagonal_dense(d: &[f64], e: &[f64]) -> Matrix {
        let n = d.len();
        let mut m = Matrix::zeros(n, n);
        for j in 0..n {
            m[(j, j)] = d[j];
            if j + 1 < n {
                m[(j, j + 1)] = e[j];
            }
        }
        m
    }

    fn check_reduce(n: usize, b: usize, seed: u64) {
        let band = random_band(n, b, seed);
        let dense0 = band.to_dense();
        let res = reduce(band);
        // U_chase B_bid V_chase^T must reconstruct the band matrix.
        let bbid = bidiagonal_dense(&res.d, &res.e);
        let mut w = Matrix::identity(n);
        res.bv.apply_left(&mut w);
        let mut z = Matrix::identity(n);
        res.bv.apply_right(&mut z);
        let recon = w.multiply(&bbid).unwrap().multiply(&z.transpose()).unwrap();
        let tol = 1e-12 * (n as f64);
        assert!(
            recon.approx_eq(&dense0, tol),
            "chase reconstruction failed n={n} b={b}: err {}",
            {
                let mut diff = recon.clone();
                for (x, y) in diff.as_mut_slice().iter_mut().zip(dense0.as_slice()) {
                    *x -= *y;
                }
                diff.max_abs()
            }
        );
    }

    #[test]
    fn chase_reconstructs_band() {
        check_reduce(3, 2, 1);
        check_reduce(9, 2, 2);
        check_reduce(13, 3, 3);
        check_reduce(16, 5, 4);
        check_reduce(24, 8, 5);
        check_reduce(10, 16, 6); // bandwidth wider than the matrix
    }

    #[test]
    fn chase_leaves_bidiagonal_only() {
        for (n, b) in [(12, 3), (17, 4)] {
            let mut band = random_band(n, b, (n + b) as u64);
            let mut bv = BvSet::default();
            let mut ws = Stage2Ws::default();
            let (mut d, mut e) = (Vec::new(), Vec::new());
            reduce_ws(&mut band, &mut bv, &mut ws, &mut d, &mut e, &Ctrl::NONE).unwrap();
            assert_eq!(
                band.max_outside_bidiagonal(),
                0.0,
                "entries left outside the bidiagonal n={n} b={b}"
            );
        }
    }

    #[test]
    fn singular_values_preserved() {
        let (n, b) = (14, 3);
        let band = random_band(n, b, 7);
        let dense0 = band.to_dense();
        let res = reduce(band);
        let bbid = bidiagonal_dense(&res.d, &res.e);
        let want = tseig_kernels::reference::jacobi_eigen(
            &dense0.transpose().multiply(&dense0).unwrap(),
            false,
        )
        .unwrap()
        .eigenvalues;
        let got = tseig_kernels::reference::jacobi_eigen(
            &bbid.transpose().multiply(&bbid).unwrap(),
            false,
        )
        .unwrap()
        .eigenvalues;
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&got, &want) < 1e-9,
            "chase changed the singular values"
        );
    }

    #[test]
    fn trivial_shapes() {
        // b <= 1 or n <= 2: already bidiagonal, no tasks.
        for (n, b) in [(0, 2), (1, 2), (2, 3), (6, 1), (6, 0)] {
            let band = random_band(n, b.max(1), 9);
            let dense0 = band.to_dense();
            assert!(Geometry::Bidiagonal.tasks(n, b).is_empty());
            let res = reduce(GeBandMatrix::from_dense(&dense0, b, 2 * b));
            let bbid = bidiagonal_dense(&res.d, &res.e);
            // With no chase the bidiagonal is just the stored part.
            for j in 0..n {
                assert_eq!(bbid[(j, j)], dense0[(j, j)]);
            }
        }
    }

    #[test]
    fn schedulers_match_serial_bitwise() {
        let (n, b) = (21, 4);
        let band = random_band(n, b, 11);
        let serial = reduce(GeBandMatrix::from_dense(&band.to_dense(), b, 2 * b));
        for exec in [Stage2Exec::Static(3), Stage2Exec::Dynamic(4)] {
            let got = reduce_scheduled(
                GeBandMatrix::from_dense(&band.to_dense(), b, 2 * b),
                exec,
                &Ctrl::NONE,
            )
            .unwrap();
            assert_eq!(serial.d, got.d, "d differs under {exec:?}");
            assert_eq!(serial.e, got.e, "e differs under {exec:?}");
        }
    }

    #[test]
    fn cancel_during_scheduled_chase() {
        // A token cancelled mid-chase must drain the pool (no hang, no
        // partial-result corruption) for both scheduled backends; a
        // pre-cancelled token must stop before any real work. Run under
        // TSan in CI: the cancel write races the worker polls by design,
        // and the atomics must make that race benign.
        use tseig_matrix::CancelToken;
        let (n, b) = (48, 4);
        let band = random_band(n, b, 29);
        for exec in [Stage2Exec::Dynamic(4), Stage2Exec::Static(3)] {
            let tok = CancelToken::new();
            let ctrl = Ctrl::new().with_cancel(tok.clone());
            let t = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                tok.cancel();
            });
            // Either outcome is legal (the chase may finish first); what
            // matters is termination and a clean drain, which TSan and
            // the shadow checker audit.
            let _ = reduce_scheduled(band.clone(), exec, &ctrl);
            t.join().unwrap();

            let pre = CancelToken::new();
            pre.cancel();
            let ctrl = Ctrl::new().with_cancel(pre);
            let err = match reduce_scheduled(band.clone(), exec, &ctrl) {
                Err(e) => e,
                Ok(_) => panic!("pre-cancelled chase must not succeed ({exec:?})"),
            };
            assert_eq!(err, tseig_runtime::STOPPED_BY_POLL, "{exec:?}");
        }
    }

    #[test]
    fn task_count_matches_slot_shape() {
        for (n, b) in [(6, 2), (13, 3), (24, 5), (33, 8)] {
            let tasks = Geometry::Bidiagonal.tasks(n, b);
            let total: usize = (0..n - 2)
                .map(|s| Geometry::Bidiagonal.steps_of_sweep(n, b, s))
                .sum();
            assert_eq!(tasks.len(), total);
            let bv = BvSet::new(n, b);
            let stored: usize = bv.sweeps.iter().map(Vec::len).sum();
            assert_eq!(stored, total);
        }
    }

    #[test]
    fn warm_reset_is_allocation_stable() {
        let (n, b) = (18, 4);
        let mut band = random_band(n, b, 13);
        let dense0 = band.to_dense();
        let mut bv = BvSet::default();
        let mut ws = Stage2Ws::default();
        let (mut d, mut e) = (Vec::new(), Vec::new());
        reduce_ws(&mut band, &mut bv, &mut ws, &mut d, &mut e, &Ctrl::NONE).unwrap();
        let warm = bv.capacity_bytes() + ws.capacity_bytes();
        // Re-run at the same shape: capacities must not grow.
        let mut band2 = GeBandMatrix::from_dense(&dense0, b, 2 * b);
        reduce_ws(&mut band2, &mut bv, &mut ws, &mut d, &mut e, &Ctrl::NONE).unwrap();
        assert_eq!(warm, bv.capacity_bytes() + ws.capacity_bytes());
    }
}
