//! Stage 2: band to tridiagonal reduction by column-wise bulge chasing.
//!
//! Sweep `s` annihilates column `s` of the band below the first
//! sub-diagonal and chases the resulting bulge off the bottom of the
//! matrix. Following the paper (§5.2, Fig. 2), each sweep is decomposed
//! into three cache-resident kernel types:
//!
//! * [`hbceu`] — *column eliminate + update*: generate the sweep's first
//!   reflector from column `s`, apply it two-sided to the symmetric
//!   diagonal block (the red triangle of Fig. 2a);
//! * [`hbrel`] — *right-eliminate*: apply the previous reflector from the
//!   right to the sub-band block (creating the triangular bulge of
//!   Fig. 2b), annihilate **only the bulge's first column** (the paper's
//!   delayed annihilation — the remaining columns wait for the next
//!   sweeps), and, while the block is cache-hot, apply the new reflector
//!   from the left to its remaining columns;
//! * [`hblru`] — *left-right update*: apply the new reflector two-sided
//!   to the next symmetric diagonal block (Fig. 2c).
//!
//! The reflectors are recorded in [`V2Set`] — indexed by `(sweep, chase
//! depth)` — for the back-transformation.
//!
//! Execution: [`reduce`] runs the kernel sequence serially,
//! [`reduce_scheduled`] runs it through the shared chase executor of
//! `tseig_runtime::chase` (dynamic task runtime or static pipelined
//! scheduler), with dependences inferred from the exact diagonal row span
//! each task touches plus its V2 reflector slots (the paper's data
//! translation layer, at interval granularity). This module supplies only
//! the kernels and how one `(s, k)` task runs them. All three produce
//! bit-identical results to the serial order because the schedulers only
//! reorder tasks whose data regions are disjoint.
//!
//! The declarations are certified rather than trusted: `xtask graphcheck`
//! model-checks the band geometry's specs ([`chase_task_specs`]) offline
//! (`tseig_runtime::verify`), and every storage helper reports its actual
//! touches to the debug-only shadow checker (`tseig_runtime::shadow`).

use tseig_kernels::contract;
use tseig_kernels::flops::{self, add, add_bytes, Level};
use tseig_kernels::householder::{larf_left, larf_right, larf_sym_two_sided, larfg};
use tseig_matrix::workspace::{reset_f64s, MemReq};
use tseig_matrix::{Ctrl, SymBandMatrix, SymTridiagonal};
use tseig_runtime::chase::{
    self, depth_of_sweep, Chase, ChaseSchedule, ChaseTask, Geometry, BAND_SPACE,
};
use tseig_runtime::verify::TaskSpec;
use tseig_runtime::{shadow, Access};

/// The Householder reflectors generated by the bulge chase, indexed by
/// `(sweep, chase depth)`. Reflector `(s, k)` acts on global rows
/// `start .. start + v.len()` of any matrix it is applied to, where
/// `start = s + 1 + k * nb` (clamped near the matrix edge).
#[derive(Default)]
pub struct V2Set {
    n: usize,
    nb: usize,
    /// `sweeps[s][k] = (start_row, tau, v)`, `v[0] == 1`.
    sweeps: Vec<Vec<(usize, f64, Vec<f64>)>>,
}

impl V2Set {
    pub(crate) fn new(n: usize, nb: usize) -> Self {
        let nsweeps = n.saturating_sub(2);
        let mut sweeps = Vec::with_capacity(nsweeps);
        for s in 0..nsweeps {
            let depth = depth_of_sweep(n, nb, s);
            sweeps.push(vec![(0usize, 0.0f64, Vec::new()); depth]);
        }
        V2Set { n, nb, sweeps }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Band width the reflectors were generated for.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of sweeps.
    pub fn sweep_count(&self) -> usize {
        self.sweeps.len()
    }

    /// Reflectors of sweep `s`: slice of `(start_row, tau, v)`.
    pub fn sweep(&self, s: usize) -> &[(usize, f64, Vec<f64>)] {
        &self.sweeps[s]
    }

    /// Total count of (non-trivial) generated reflectors (diagnostics).
    pub fn reflector_count(&self) -> usize {
        self.sweeps
            .iter()
            .map(|s| s.iter().filter(|(_, _, v)| !v.is_empty()).count())
            .sum()
    }

    fn store(&mut self, s: usize, k: usize, start: usize, tau: f64, v: Vec<f64>) {
        self.sweeps[s][k] = (start, tau, v);
    }

    /// Store a reflector by copying into the slot's retained buffer. Once
    /// the slot has warmed up to its reflector length this allocates
    /// nothing; cold slots reserve exactly `v.len()`.
    fn store_from_slice(&mut self, s: usize, k: usize, start: usize, tau: f64, v: &[f64]) {
        let slot = &mut self.sweeps[s][k];
        slot.0 = start;
        slot.1 = tau;
        slot.2.clear();
        slot.2.reserve_exact(v.len());
        slot.2.extend_from_slice(v);
    }

    /// Reset for a new chase. Same shape keeps every slot's reflector
    /// buffer (capacity-retaining, the solve-plan reuse path); a shape
    /// change rebuilds the structure from scratch.
    pub(crate) fn reset(&mut self, n: usize, nb: usize) {
        if self.n == n && self.nb == nb {
            for sweep in &mut self.sweeps {
                for slot in sweep.iter_mut() {
                    slot.0 = 0;
                    slot.1 = 0.0;
                    slot.2.clear();
                }
            }
        } else {
            *self = V2Set::new(n, nb);
        }
    }

    /// Retained reflector payload capacity in bytes (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        self.sweeps
            .iter()
            .flat_map(|s| s.iter())
            .map(|(_, _, v)| v.capacity() * std::mem::size_of::<f64>())
            .sum()
    }
}

/// Exact reflector-payload requirement of the chase's [`V2Set`] for an
/// order-`n`, bandwidth-`b` problem.
pub fn v2_req(n: usize, b: usize) -> MemReq {
    let mut elems = 0usize;
    if n > 2 && b > 1 {
        for s in 0..n - 2 {
            for k in 0..depth_of_sweep(n, b, s) {
                let r0 = s + 1 + k * b;
                let r1 = (r0 + b - 1).min(n - 1);
                elems += r1 - r0 + 1;
            }
        }
    }
    MemReq::f64s(elems)
}

/// Scratch requirement of the three chase kernels for bandwidth `b`:
/// dense block scratch (`<= b x b`), apply workspace, one reflector.
pub fn stage2_ws_req(b: usize) -> MemReq {
    MemReq::f64s(b * b)
        .and(MemReq::f64s(b))
        .and(MemReq::f64s(b))
}

/// Reusable scratch for the serial chase kernels: the dense block copy,
/// the reflector-application workspace, and the current reflector. All
/// buffers retain capacity across sweeps and solves.
#[derive(Default)]
pub struct Stage2Ws {
    scratch: Vec<f64>,
    work: Vec<f64>,
    v: Vec<f64>,
}

impl Stage2Ws {
    pub fn new() -> Self {
        Stage2Ws::default()
    }

    /// Retained capacity in bytes (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        (self.scratch.capacity() + self.work.capacity() + self.v.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Result of the bulge chase.
pub struct ChaseResult {
    pub tridiagonal: SymTridiagonal,
    pub v2: V2Set,
}

// ---------------------------------------------------------------------
// Band block scratch helpers. All kernels copy their working set into a
// small dense scratch (<= nb x 2nb), operate there — that is the "block
// loaded into the cache memory" of the paper — and write back.
// ---------------------------------------------------------------------

/// Band entries in a rectangular block rows `[.., r1]`, columns `[c0, ..]`
/// (with `c0 <= r1`) occupy exactly the diagonal index interval
/// `[c0, r1]`; this maps it to the shadow-checker region of the band
/// space. All storage helpers below report their touches through this
/// before accessing the slab, so a task reaching outside its declared
/// span fails loudly in debug builds.
fn touch_band(c0: usize, r1: usize, access: Access) {
    shadow::touch(BAND_SPACE, c0 as u64, r1 as u64 + 1, access);
}

/// Copy the symmetric block `A[r0..r0+l, r0..r0+l]` into dense `scratch`
/// (both triangles filled), `l <= scratch_ld`. The stored lower triangle
/// of each band column is contiguous, so the copy is slice-to-slice.
fn sym_to_dense(band: &SymBandMatrix, r0: usize, l: usize, scratch: &mut [f64], ld: usize) {
    touch_band(r0, r0 + l - 1, Access::Read);
    let ldab = band.ldab();
    let ab = band.as_slice();
    for j in 0..l {
        let c = r0 + j;
        let len = l - j;
        let src = &ab[c * ldab..c * ldab + len];
        scratch[j + j * ld..j + j * ld + len].copy_from_slice(src);
        // Mirror into the upper triangle.
        for i in j + 1..l {
            scratch[j + i * ld] = src[i - j];
        }
    }
}

fn sym_from_dense(band: &mut SymBandMatrix, r0: usize, l: usize, scratch: &[f64], ld: usize) {
    touch_band(r0, r0 + l - 1, Access::Write);
    let ldab = band.ldab();
    let ab = band.as_mut_slice();
    for j in 0..l {
        let c = r0 + j;
        let len = l - j;
        ab[c * ldab..c * ldab + len].copy_from_slice(&scratch[j + j * ld..j + j * ld + len]);
    }
}

/// Copy the rectangular block `A[r0..r0+rl, c0..c0+cl]` (strictly below
/// the diagonal, within the stored diagonals) into dense `scratch`.
fn rect_to_dense(
    band: &SymBandMatrix,
    r0: usize,
    rl: usize,
    c0: usize,
    cl: usize,
    scratch: &mut [f64],
    ld: usize,
) {
    touch_band(c0, r0 + rl - 1, Access::Read);
    let ldab = band.ldab();
    let ab = band.as_slice();
    debug_assert!(r0 > c0 + cl - 1 && r0 + rl - 1 - c0 < ldab);
    for j in 0..cl {
        let c = c0 + j;
        let off = c * ldab + (r0 - c);
        scratch[j * ld..j * ld + rl].copy_from_slice(&ab[off..off + rl]);
    }
}

fn rect_from_dense(
    band: &mut SymBandMatrix,
    r0: usize,
    rl: usize,
    c0: usize,
    cl: usize,
    scratch: &[f64],
    ld: usize,
) {
    touch_band(c0, r0 + rl - 1, Access::Write);
    let ldab = band.ldab();
    let ab = band.as_mut_slice();
    for j in 0..cl {
        let c = c0 + j;
        let off = c * ldab + (r0 - c);
        ab[off..off + rl].copy_from_slice(&scratch[j * ld..j * ld + rl]);
    }
}

// ---------------------------------------------------------------------
// The three kernels.
// ---------------------------------------------------------------------

/// Kernel 1 (`xHBCEU`): start sweep `s` — annihilate column `s` below the
/// first sub-diagonal and update the symmetric diamond block two-sided.
/// Returns `(start_row, tau, v)` of the generated reflector.
pub fn hbceu(band: &mut SymBandMatrix, s: usize) -> (usize, f64, Vec<f64>) {
    let mut ws = Stage2Ws::new();
    let (r0, tau) = hbceu_ws(band, s, &mut ws.scratch, &mut ws.work, &mut ws.v);
    (r0, tau, ws.v)
}

/// Workspace variant of [`hbceu`]: the reflector is left in `v`, scratch
/// buffers are reused (allocation-free once warmed up). Bit-identical to
/// the allocating entry point.
fn hbceu_ws(
    band: &mut SymBandMatrix,
    s: usize,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> (usize, f64) {
    let n = band.n();
    let b = band.bandwidth();
    let r0 = s + 1;
    let r1 = (s + b).min(n - 1);
    let l = r1 - r0 + 1; // reflector length, >= 2 by construction
                         // Column s is gathered and written back below.
    touch_band(s, r1, Access::Write);
    // Gather x = A[r0..=r1, s].
    v.clear();
    v.reserve_exact(l);
    v.extend((0..l).map(|i| band.get(r0 + i, s)));
    let (head, tail) = v.split_at_mut(1);
    let (beta, tau) = larfg(head[0], tail);
    v[0] = 1.0;
    // Write back the annihilated column.
    band.set(r0, s, beta);
    for i in 1..l {
        band.set(r0 + i, s, 0.0);
    }
    add(Level::L1, 2 * l as u64);
    // Column gather + annihilated write-back.
    add_bytes(Level::L1, 16 * l as u64);
    // Two-sided update of the symmetric block (red triangle, Fig. 2a).
    let ld = l;
    reset_f64s(scratch, l * l);
    reset_f64s(work, l);
    sym_to_dense(band, r0, l, scratch, ld);
    larf_sym_two_sided(v, tau, l, scratch, ld, work);
    sym_from_dense(band, r0, l, scratch, ld);
    (r0, tau)
}

/// Kernel 2 (`xHBREL`): chase step — apply the previous reflector
/// (rows `pr0..pr0+pl`) from the right to the sub-band block below it,
/// annihilate the first column of the resulting bulge, and left-update
/// the remaining columns while the block is cache-hot. Returns the new
/// reflector `(start_row, tau, v)`, or `None` if the chase ran off the
/// matrix.
pub fn hbrel(
    band: &mut SymBandMatrix,
    prev: (usize, f64, &[f64]),
) -> Option<(usize, f64, Vec<f64>)> {
    let mut ws = Stage2Ws::new();
    hbrel_ws(band, prev, &mut ws.scratch, &mut ws.work, &mut ws.v).map(|(r0, tau)| (r0, tau, ws.v))
}

/// Workspace variant of [`hbrel`]: the new reflector is left in `v` (only
/// on `Some`), scratch buffers are reused. Bit-identical to the
/// allocating entry point.
fn hbrel_ws(
    band: &mut SymBandMatrix,
    prev: (usize, f64, &[f64]),
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> Option<(usize, f64)> {
    let n = band.n();
    let b = band.bandwidth();
    let (pr0, ptau, pv) = prev;
    let pl = pv.len();
    let br0 = pr0 + pl; // first row below the previous reflector's range
    if br0 >= n {
        return None;
    }
    let br1 = (br0 + b - 1).min(n - 1);
    let rl = br1 - br0 + 1;
    // Block rows br0..=br1, columns pr0..pr0+pl.
    let ld = rl;
    reset_f64s(scratch, rl * pl);
    reset_f64s(work, rl.max(pl));
    rect_to_dense(band, br0, rl, pr0, pl, scratch, ld);
    // Right application creates the triangular bulge (Fig. 2b).
    larf_right(pv, ptau, rl, pl, scratch, ld, work);
    if rl < 2 {
        // Single-row block: the right update lands exactly on the band
        // edge (no fill), so there is nothing to annihilate and the
        // chase is complete.
        rect_from_dense(band, br0, rl, pr0, pl, scratch, ld);
        return None;
    }
    // Annihilate the first column of the bulge (delayed annihilation).
    v.clear();
    v.reserve_exact(rl);
    v.extend_from_slice(&scratch[..rl]);
    let new_tau = {
        let (head, tail) = v.split_at_mut(1);
        let (beta, tau) = larfg(head[0], tail);
        scratch[0] = beta;
        scratch[1..rl].fill(0.0);
        tau
    };
    v[0] = 1.0;
    // Left-update the remaining columns with the new reflector.
    if pl > 1 {
        larf_left(v, new_tau, rl, pl - 1, &mut scratch[ld..], ld, work);
    }
    rect_from_dense(band, br0, rl, pr0, pl, scratch, ld);
    Some((br0, new_tau))
}

/// Kernel 3 (`xHBLRU`): apply the new reflector two-sided to the next
/// symmetric diagonal block (green block, Fig. 2c).
pub fn hblru(band: &mut SymBandMatrix, refl: (usize, f64, &[f64])) {
    let mut scratch = Vec::new();
    let mut work = Vec::new();
    hblru_ws(band, refl, &mut scratch, &mut work);
}

/// Workspace variant of [`hblru`]. Bit-identical to the allocating entry
/// point.
fn hblru_ws(
    band: &mut SymBandMatrix,
    refl: (usize, f64, &[f64]),
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
) {
    let (r0, tau, v) = refl;
    if tau == 0.0 {
        return;
    }
    let l = v.len();
    let ld = l;
    reset_f64s(scratch, l * l);
    reset_f64s(work, l);
    sym_to_dense(band, r0, l, scratch, ld);
    larf_sym_two_sided(v, tau, l, scratch, ld, work);
    sym_from_dense(band, r0, l, scratch, ld);
}

// ---------------------------------------------------------------------
// Serial driver.
// ---------------------------------------------------------------------

/// Debug-only entry contract for the chase drivers: the band store must
/// be a well-formed `ldab x n` slab and (under `paranoid`) all finite.
// tidy: allow(task-storage) -- whole-band read-only contract, runs on the main thread before any task is scheduled
fn band_contract(kernel: &'static str, band: &SymBandMatrix) {
    if !contract::enabled() {
        return;
    }
    let ldab = band.ldab();
    contract::require_mat(kernel, "band", band.as_slice(), ldab, band.n(), ldab);
    contract::require_finite_vec(kernel, "band", band.as_slice(), band.as_slice().len());
}

/// Run the full bulge chase serially. The band matrix is consumed (it is
/// reduced in place); its workspace diagonals must be at least `nb` deep.
pub fn reduce(mut band: SymBandMatrix) -> ChaseResult {
    let mut v2 = V2Set::new(band.n(), band.bandwidth());
    let mut ws = Stage2Ws::new();
    let mut tri = SymTridiagonal::new(Vec::new(), Vec::new());
    // An inert control never fails a checkpoint.
    let _ = reduce_ws(&mut band, &mut v2, &mut ws, &mut tri, &Ctrl::NONE);
    ChaseResult {
        tridiagonal: tri,
        v2,
    }
}

/// Planned serial chase: reduce `band` in place, record the reflectors in
/// `v2` and the tridiagonal result in `tri`, all through caller-owned
/// storage. Allocation-free once every buffer has warmed up to the
/// problem shape; bit-identical to [`reduce`]. Polls `ctrl` once per
/// sweep — an armed cancel or expired deadline aborts between sweeps
/// with the structured error, leaving the caller's plan reusable.
pub fn reduce_ws(
    band: &mut SymBandMatrix,
    v2: &mut V2Set,
    ws: &mut Stage2Ws,
    tri: &mut SymTridiagonal,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    let n = band.n();
    let b = band.bandwidth();
    assert!(
        band.extra() >= b,
        "bulge chase needs nb workspace diagonals"
    );
    band_contract("reduce", band);
    v2.reset(n, b);
    if b >= 1 && n > 2 && b > 1 {
        for s in 0..n - 2 {
            ctrl.checkpoint()?;
            run_sweep_ws(band, s, v2, ws);
        }
    }
    tri.reset_to(n);
    let (d, e) = tri.parts_mut();
    band.to_tridiagonal_into(d, e);
    Ok(())
}

fn run_sweep_ws(band: &mut SymBandMatrix, s: usize, v2: &mut V2Set, ws: &mut Stage2Ws) {
    let n = band.n();
    if s + 2 >= n {
        return;
    }
    let Stage2Ws { scratch, work, v } = ws;
    let (start, tau) = hbceu_ws(band, s, scratch, work, v);
    v2.store_from_slice(s, 0, start, tau, v);
    let mut k = 1usize;
    // tidy: allow(checkpoint-loop) -- per-sweep reflector chain; reduce_ws polls once per sweep
    loop {
        // The previous reflector is read straight from its V2 slot (the
        // values just stored there are bit-identical to the kernel
        // output the unplanned path threads through locals).
        let step = {
            let prev = &v2.sweeps[s][k - 1];
            hbrel_ws(band, (prev.0, prev.1, &prev.2), scratch, work, v)
        };
        let Some((ns, nt)) = step else { break };
        hblru_ws(band, (ns, nt, v), scratch, work);
        v2.store_from_slice(s, k, ns, nt, v);
        k += 1;
    }
    debug_assert_eq!(k, depth_of_sweep(n, band.bandwidth(), s), "sweep {s} depth");
}

// ---------------------------------------------------------------------
// Scheduled drivers (dynamic DAG / static pipeline).
// ---------------------------------------------------------------------

/// How the bulge-chasing task graph is executed (the runtime's one
/// scheduler enum).
pub use tseig_runtime::chase::Scheduler as Stage2Exec;

/// Precomputed static-scheduler plan for one `(n, b, threads)` chase
/// shape. A solve plan builds it once and [`reduce_static_prepared`]
/// reuses it for every solve of the same shape.
pub type Stage2Schedule = ChaseSchedule<V2Set>;

impl Chase for V2Set {
    type Band = SymBandMatrix;
    type Ctx = flops::Scope;
    const GEOMETRY: Geometry = Geometry::Band;
    const TAGS: [&'static str; 2] = ["hbceu", "hbrel+hblru"];

    /// Task `(s, 0)` is `hbceu`, `(s, k >= 1)` the `hbrel`+`hblru` pair.
    /// Each task writes its own V2 slot and reads the slot `(s, k-1)` its
    /// same-sweep predecessor wrote; band touches are reported by the
    /// storage helpers, slot touches here.
    fn run_task(
        &mut self,
        band: &mut SymBandMatrix,
        scope: &flops::Scope,
        n: usize,
        b: usize,
        t: ChaseTask,
    ) {
        let _charged = scope.enter();
        let slot = |k| Geometry::Band.slot(n, b, t.s, k);
        if t.k == 0 {
            let (start, tau, v) = hbceu(band, t.s);
            shadow::touch_region(slot(0), Access::Write);
            self.store(t.s, 0, start, tau, v);
        } else {
            shadow::touch_region(slot(t.k - 1), Access::Read);
            let prev = self.sweeps[t.s][t.k - 1].clone();
            let Some((ns, nt, nv)) = hbrel(band, (prev.0, prev.1, &prev.2)) else {
                return;
            };
            hblru(band, (ns, nt, &nv));
            shadow::touch_region(slot(t.k), Access::Write);
            self.store(t.s, t.k, ns, nt, nv);
        }
    }
}

/// The chase task set as *declared* specs — the same
/// `(tag, priority, regions)` triples the scheduled drivers submit,
/// exported for offline verification (`xtask graphcheck`).
pub fn chase_task_specs(n: usize, b: usize) -> Vec<TaskSpec> {
    V2Set::GEOMETRY.specs(n, b, V2Set::TAGS)
}

/// Run the bulge chase under the chosen scheduler: [`reduce_ws`] for
/// `Serial`, the shared chase executor otherwise. Produces the same
/// tridiagonal matrix and reflector set as [`reduce`]. The serial loop
/// checkpoints `ctrl` per sweep; the executor's workers poll it between
/// task claims and drain on an armed cancel or expired deadline with
/// `Err(tseig_runtime::STOPPED_BY_POLL)`.
pub fn reduce_scheduled(
    band: SymBandMatrix,
    exec: Stage2Exec,
    ctrl: &Ctrl,
) -> Result<ChaseResult, String> {
    let (n, b) = (band.n(), band.bandwidth());
    assert!(
        band.extra() >= b,
        "bulge chase needs nb workspace diagonals"
    );
    band_contract("reduce_scheduled", &band);
    if exec == Stage2Exec::Serial {
        let mut band = band;
        let mut v2 = V2Set::new(n, b);
        let mut tri = SymTridiagonal::new(Vec::new(), Vec::new());
        reduce_ws(&mut band, &mut v2, &mut Stage2Ws::new(), &mut tri, ctrl)
            .map_err(|e| e.to_string())?;
        return Ok(ChaseResult {
            tridiagonal: tri,
            v2,
        });
    }
    let (band, v2) = chase::run(exec, band, V2Set::new(n, b), flops::scope(), n, b, &|| {
        ctrl.poll_stop()
    })?;
    Ok(ChaseResult {
        tridiagonal: band.to_tridiagonal(),
        v2,
    })
}

/// Run the bulge chase under a precomputed static schedule. Bit-identical
/// to `reduce_scheduled(band, Stage2Exec::Static(threads))` with a
/// matching plan, minus the per-solve wait-list derivation.
pub fn reduce_static_prepared(
    band: SymBandMatrix,
    plan: &Stage2Schedule,
    ctrl: &Ctrl,
) -> Result<ChaseResult, String> {
    let (n, b) = (band.n(), band.bandwidth());
    assert!(
        band.extra() >= b,
        "bulge chase needs nb workspace diagonals"
    );
    assert!(
        plan.n() == n && plan.bandwidth() == b,
        "static schedule shape mismatch: plan ({}, {}), band ({n}, {b})",
        plan.n(),
        plan.bandwidth(),
    );
    band_contract("reduce_static_prepared", &band);
    let (band, v2) = plan.run(band, V2Set::new(n, b), flops::scope(), &|| ctrl.poll_stop())?;
    Ok(ChaseResult {
        tridiagonal: band.to_tridiagonal(),
        v2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms, Matrix};
    use tseig_runtime::Region;

    fn band_of(n: usize, b: usize, seed: u64) -> (Matrix, SymBandMatrix) {
        let a = gen::random_symmetric(n, seed);
        let mut dense_band = Matrix::zeros(n, n);
        for j in 0..n {
            for i in j..(j + b + 1).min(n) {
                dense_band[(i, j)] = a[(i, j)];
                dense_band[(j, i)] = a[(i, j)];
            }
        }
        let band = SymBandMatrix::from_dense_lower(&dense_band, b, b);
        (dense_band, band)
    }

    #[test]
    fn chase_reaches_tridiagonal() {
        let (_, band) = band_of(30, 4, 1);
        let r = reduce(band.clone());
        // No fill left anywhere below the first sub-diagonal: check by
        // re-running and inspecting the band (reduce consumed its copy).
        let r2 = reduce(band);
        assert_eq!(r.tridiagonal.diag(), r2.tridiagonal.diag());
    }

    #[test]
    fn spectrum_preserved() {
        for (n, b, seed) in [(25, 3, 2), (40, 5, 3), (33, 8, 4), (20, 19, 5)] {
            let (dense, band) = band_of(n, b, seed);
            let want = tseig_kernels::reference::jacobi_eigen(&dense, false)
                .unwrap()
                .eigenvalues;
            let r = reduce(band);
            let got = tseig_tridiag::sturm::bisect_eigenvalues(&r.tridiagonal, 0, n).unwrap();
            assert!(
                norms::eigenvalue_distance(&got, &want) < 1e-10,
                "spectrum changed (n={n}, b={b})"
            );
        }
    }

    #[test]
    fn no_fill_outside_workspace() {
        // The SymBandMatrix `set` panics on writes outside the stored
        // diagonals, so simply completing is already a proof; make it
        // explicit with the final matrix too.
        let (_, band) = band_of(50, 6, 6);
        let r = reduce(band);
        assert_eq!(r.v2.nb(), 6);
        assert!(r.v2.reflector_count() > 0);
    }

    #[test]
    fn v2_reflectors_well_formed() {
        let (_, band) = band_of(24, 4, 7);
        let r = reduce(band);
        let n = 24;
        for s in 0..r.v2.sweep_count() {
            for (k, (start, tau, v)) in r.v2.sweep(s).iter().enumerate() {
                assert!(!v.is_empty(), "empty reflector ({s},{k})");
                assert_eq!(*start, s + 1 + k * 4, "start row of ({s},{k})");
                assert!(start + v.len() <= n);
                assert_eq!(v[0], 1.0);
                assert!((0.0..=2.0).contains(tau));
            }
        }
    }

    #[test]
    fn bandwidth_one_noop() {
        let (dense, band) = band_of(10, 1, 8);
        let r = reduce(band);
        assert_eq!(r.v2.reflector_count(), 0);
        // Already tridiagonal: d/e match the input.
        for i in 0..10 {
            assert_eq!(r.tridiagonal.diag()[i], dense[(i, i)]);
        }
    }

    #[test]
    fn schedulers_match_serial() {
        let (_, band) = band_of(60, 5, 9);
        let serial = reduce(band.clone());
        for exec in [
            Stage2Exec::Dynamic(4),
            Stage2Exec::Static(3),
            Stage2Exec::Static(1),
        ] {
            let r = reduce_scheduled(band.clone(), exec, &Ctrl::NONE).unwrap();
            // Bit-identical results: every scheduler runs the same
            // kernels in a serial-equivalent order.
            assert_eq!(
                r.tridiagonal.diag(),
                serial.tridiagonal.diag(),
                "{exec:?} d"
            );
            assert_eq!(
                r.tridiagonal.off_diag(),
                serial.tridiagonal.off_diag(),
                "{exec:?} e"
            );
            assert_eq!(r.v2.reflector_count(), serial.v2.reflector_count());
            for s in 0..serial.v2.sweep_count() {
                assert_eq!(r.v2.sweep(s), serial.v2.sweep(s), "{exec:?} sweep {s}");
            }
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
        let (_, band) = band_of(120, 5, 23);
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
    fn boundary_shapes_preserve_spectrum() {
        // Shapes chosen so sweeps cross the (n - 2 - s) % nb == 0
        // boundary and the last reflector of a sweep is clamped short at
        // the matrix edge; the serial and scheduled chases must agree
        // bit-for-bit and preserve the spectrum.
        for (n, b, seed) in [(14, 4, 11), (18, 4, 12), (13, 3, 13), (11, 9, 14)] {
            let (dense, band) = band_of(n, b, seed);
            let want = tseig_kernels::reference::jacobi_eigen(&dense, false)
                .unwrap()
                .eigenvalues;
            let serial = reduce(band.clone());
            let got = tseig_tridiag::sturm::bisect_eigenvalues(&serial.tridiagonal, 0, n).unwrap();
            assert!(
                norms::eigenvalue_distance(&got, &want) < 1e-10,
                "spectrum changed (n={n}, b={b})"
            );
            // Clamped reflectors still start at s + 1 + k*nb and end
            // exactly at the matrix edge.
            for s in 0..serial.v2.sweep_count() {
                for (k, (start, _, v)) in serial.v2.sweep(s).iter().enumerate() {
                    assert_eq!(*start, s + 1 + k * b, "start row (n={n} b={b} s={s} k={k})");
                    assert!(
                        start + v.len() <= n,
                        "reflector overruns the edge (n={n} b={b} s={s} k={k})"
                    );
                }
            }
            let dynamic =
                reduce_scheduled(band.clone(), Stage2Exec::Dynamic(3), &Ctrl::NONE).unwrap();
            assert_eq!(serial.tridiagonal.diag(), dynamic.tridiagonal.diag());
            assert_eq!(
                serial.tridiagonal.off_diag(),
                dynamic.tridiagonal.off_diag()
            );
        }
    }

    /// Run every task of the chase serially with the shadow checker armed
    /// by its declared footprint — `narrow` may shrink one task's band
    /// span first — and return the number of validated touches, or the
    /// checker's panic message.
    fn shadow_checked_chase(
        n: usize,
        b: usize,
        seed: u64,
        narrow: Option<ChaseTask>,
    ) -> Result<u64, String> {
        let (_, mut band) = band_of(n, b, seed);
        let mut v2 = V2Set::new(n, b);
        let mut touches = 0;
        for t in Geometry::Band.tasks(n, b) {
            let mut regions = Geometry::Band.regions(n, b, t);
            if narrow == Some(t) {
                let (lo, hi) = Geometry::row_span(n, b, t);
                assert!(hi > lo + 1);
                // Chop the last row off the declared span.
                regions[0] = (
                    Region::span(BAND_SPACE, lo as u64, hi as u64),
                    Access::Write,
                );
            }
            shadow::enter_task("chase", &regions);
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                v2.run_task(&mut band, &flops::Scope::default(), n, b, t)
            }));
            touches += shadow::exit_task();
            if let Err(p) = ran {
                return Err(p.downcast_ref::<String>().cloned().unwrap_or_default());
            }
        }
        Ok(touches)
    }

    #[cfg(debug_assertions)]
    #[test]
    fn narrowed_declaration_caught_by_shadow_checker() {
        // Acceptance mutation: narrow one task's declared band span by a
        // row. graphcheck cannot see this (it checks declarations against
        // declarations) — the shadow checker compares against the touches
        // the kernels actually perform and must abort the run.
        let err = shadow_checked_chase(18, 3, 21, Some(ChaseTask { s: 2, k: 1 })).unwrap_err();
        assert!(
            err.contains("outside its declared footprint"),
            "expected a shadow violation, got: {err}"
        );
    }

    #[test]
    fn task_touches_validated_in_debug() {
        // The kernels' storage helpers must actually report to the shadow
        // checker: every access in a debug run is validated against the
        // task's declared footprint (and counted); release builds compile
        // the checker out and count 0.
        let touches = shadow_checked_chase(20, 3, 22, None).unwrap();
        if shadow::enabled() {
            assert!(touches > 0, "instrumentation went dead");
        } else {
            assert_eq!(touches, 0);
        }
    }

    #[test]
    fn depth_formula_consistent() {
        for (n, b) in [(10, 3), (30, 4), (17, 5), (9, 2)] {
            let (_, band) = band_of(n, b, 10);
            let r = reduce(band);
            for s in 0..r.v2.sweep_count() {
                let depth = depth_of_sweep(n, b, s);
                assert_eq!(r.v2.sweep(s).len(), depth, "n={n} b={b} s={s}");
                // The last reflector must reach the matrix edge.
                if depth > 0 {
                    let (start, _, v) = &r.v2.sweep(s)[depth - 1];
                    assert!(start + v.len() >= n - 1);
                }
            }
        }
    }
}
