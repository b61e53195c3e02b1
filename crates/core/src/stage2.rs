//! Stage 2 (real): the `f64` entry points of the bulge chase.
//!
//! The chase itself — the three band kernels `hbceu`/`hbrel`/`hblru`
//! (paper §5.2, Fig. 2), the reflector store [`V2Set`] and the serial
//! sweep loop — is the element-generic [`tseig_kernels::stage2`], shared
//! with the Hermitian pipeline. This module is its real glue:
//! [`reduce_ws`] runs the serial loop and extracts the tridiagonal,
//! [`reduce_scheduled`] runs the same `(sweep, depth)` task set through
//! the shared chase executor of `tseig_runtime::chase` (dynamic task
//! runtime or static pipelined scheduler), with dependences inferred
//! from the exact diagonal row span each task touches plus its V2
//! reflector slots (the paper's data translation layer, at interval
//! granularity). All three produce bit-identical results to the serial
//! order because the schedulers only reorder tasks whose data regions
//! are disjoint.
//!
//! The declarations are certified rather than trusted: `xtask graphcheck`
//! model-checks the band geometry's specs ([`chase_task_specs`]) offline
//! (`tseig_runtime::verify`), and the kernels report every band block
//! they touch to the debug-only shadow checker (`tseig_runtime::shadow`)
//! through the touch argument this glue hands them.

use tseig_kernels::flops;
use tseig_kernels::stage2::{band_contract, chase_task};
use tseig_matrix::{Ctrl, SymBandMatrix, SymTridiagonal};
use tseig_runtime::chase::{self, touch_band, Chase, ChaseSchedule, ChaseTask, Geometry};
use tseig_runtime::verify::TaskSpec;
use tseig_runtime::{shadow, Access};

/// The chase's reflectors, indexed by `(sweep, chase depth)`.
pub type V2Set = tseig_kernels::stage2::V2Set<f64>;

/// Reusable scratch of the serial chase kernels.
pub type Stage2Ws = tseig_kernels::stage2::Stage2Ws<f64>;

/// Result of the bulge chase.
pub struct ChaseResult {
    pub tridiagonal: SymTridiagonal,
    pub v2: V2Set,
}

/// Run the full bulge chase serially. The band matrix is consumed (it is
/// reduced in place); its workspace diagonals must be at least `nb` deep.
pub fn reduce(band: SymBandMatrix) -> ChaseResult {
    match reduce_scheduled(band, Stage2Exec::Serial, &Ctrl::NONE) {
        Ok(r) => r,
        // Unreachable: the inert control never fails a checkpoint.
        Err(e) => unreachable!("inert control failed: {e}"),
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
    tseig_kernels::stage2::reduce_ws(band, v2, ws, ctrl)?;
    tri.reset_to(band.n());
    let (d, e) = tri.parts_mut();
    band.to_tridiagonal_into(d, e);
    Ok(())
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
pub type Stage2Schedule = ChaseSchedule<SymChase>;

/// The real chase as a task set of the shared executor: the reflector
/// store the tasks fill.
pub struct SymChase(V2Set);

impl Chase for SymChase {
    type Band = SymBandMatrix;
    type Ctx = flops::Scope;
    const GEOMETRY: Geometry = Geometry::Band;
    const TAGS: [&'static str; 2] = ["hbceu", "hbrel+hblru"];

    /// Task `(s, 0)` is `hbceu`, `(s, k >= 1)` the `hbrel`+`hblru` pair.
    /// Each task writes its own V2 slot and reads the slot `(s, k-1)` its
    /// same-sweep predecessor wrote; the kernels report their band
    /// touches, slot touches are reported here.
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
        if t.k > 0 {
            shadow::touch_region(slot(t.k - 1), Access::Read);
        }
        if chase_task(&mut self.0, band, t.s, t.k, &touch_band) {
            shadow::touch_region(slot(t.k), Access::Write);
        }
    }
}

/// The chase task set as *declared* specs — the same
/// `(tag, priority, regions)` triples the scheduled drivers submit,
/// exported for offline verification (`xtask graphcheck`).
pub fn chase_task_specs(n: usize, b: usize) -> Vec<TaskSpec> {
    SymChase::GEOMETRY.specs(n, b, SymChase::TAGS)
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
    if exec == Stage2Exec::Serial {
        let mut band = band;
        let mut v2 = V2Set::new(n, b);
        let mut tri = SymTridiagonal::new(Vec::new(), Vec::new());
        reduce_ws(&mut band, &mut v2, &mut Stage2Ws::default(), &mut tri, ctrl)
            .map_err(|e| e.to_string())?;
        return Ok(ChaseResult {
            tridiagonal: tri,
            v2,
        });
    }
    band_contract("reduce_scheduled", &band);
    let store = SymChase(V2Set::new(n, b));
    let (band, SymChase(v2)) = chase::run(exec, band, store, flops::scope(), n, b, &|| {
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
        plan.n() == n && plan.bandwidth() == b,
        "static schedule shape mismatch: plan ({}, {}), band ({n}, {b})",
        plan.n(),
        plan.bandwidth(),
    );
    band_contract("reduce_static_prepared", &band);
    let store = SymChase(V2Set::new(n, b));
    let (band, SymChase(v2)) = plan.run(band, store, flops::scope(), &|| ctrl.poll_stop())?;
    Ok(ChaseResult {
        tridiagonal: band.to_tridiagonal(),
        v2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::gen;
    use tseig_runtime::chase::BAND_SPACE;
    use tseig_runtime::Region;

    fn band_of(n: usize, b: usize, seed: u64) -> SymBandMatrix {
        SymBandMatrix::from_dense_lower(&gen::random_symmetric(n, seed), b, b)
    }

    #[test]
    fn schedulers_match_serial() {
        // (60, 5) plus shapes whose sweeps cross the (n - 2 - s) % nb == 0
        // boundary and clamp their last reflector at the matrix edge.
        for (n, b, seed) in [
            (60, 5, 9),
            (14, 4, 11),
            (18, 4, 12),
            (13, 3, 13),
            (11, 9, 14),
        ] {
            let band = band_of(n, b, seed);
            let serial = reduce(band.clone());
            for exec in [
                Stage2Exec::Dynamic(4),
                Stage2Exec::Dynamic(3),
                Stage2Exec::Static(3),
                Stage2Exec::Static(1),
            ] {
                let r = reduce_scheduled(band.clone(), exec, &Ctrl::NONE).unwrap();
                // Bit-identical results: every scheduler runs the same
                // kernels in a serial-equivalent order.
                assert_eq!(
                    r.tridiagonal.diag(),
                    serial.tridiagonal.diag(),
                    "{exec:?} d (n={n}, b={b})"
                );
                assert_eq!(
                    r.tridiagonal.off_diag(),
                    serial.tridiagonal.off_diag(),
                    "{exec:?} e (n={n}, b={b})"
                );
                assert_eq!(r.v2.reflector_count(), serial.v2.reflector_count());
                for s in 0..serial.v2.sweeps().len() {
                    assert_eq!(
                        r.v2.sweeps()[s],
                        serial.v2.sweeps()[s],
                        "{exec:?} sweep {s} (n={n}, b={b})"
                    );
                }
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
        let band = band_of(120, 5, 23);
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
        let mut band = band_of(n, b, seed);
        let mut store = SymChase(V2Set::new(n, b));
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
                store.run_task(&mut band, &flops::Scope::default(), n, b, t)
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
}
