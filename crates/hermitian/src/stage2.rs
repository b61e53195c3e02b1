//! Stage 2 (Hermitian): band to tridiagonal bulge chasing.
//!
//! The chase is the element-generic [`tseig_kernels::stage2`] the real
//! pipeline runs too — the same three kernels with delayed annihilation,
//! on the same lower band storage, monomorphized at the complex type.
//! `larfg` makes every annihilation result *real*, so the final
//! tridiagonal is real up to the entries no sweep ever touches;
//! [`phase_fold`] rotates those real too with a unitary diagonal that is
//! handed to the back-transformation.
//!
//! This module is the complex glue: [`reduce`] runs the serial sweep
//! loop, [`reduce_scheduled`] runs the same `(sweep, depth)` task set
//! through the shared chase executor of `tseig_runtime::chase`. The
//! chase geometry is the real one (`Geometry::Band`), so the same
//! declared footprints and the same certification apply, and every
//! schedule is bit-identical to the serial order.

use tseig_kernels::flops;
pub use tseig_kernels::stage2::V2Set;
use tseig_kernels::stage2::{band_contract, chase_task, phase_fold, reduce_ws, Stage2Ws};
use tseig_matrix::{ComplexScalar, Ctrl, SymBandMatrix, SymTridiagonal, C64};
use tseig_runtime::chase::{self, touch_band, Chase, ChaseTask, Geometry};
use tseig_runtime::verify::TaskSpec;
use tseig_runtime::{shadow, Access};

/// Result of the Hermitian chase: real tridiagonal + reflectors + the
/// unitary diagonal phases folded out of the off-diagonals. The
/// tridiagonal is always `f64` — the real solver downstream runs at
/// full precision regardless of the complex element width.
pub struct ChaseResultC<T: ComplexScalar = C64> {
    pub tridiagonal: SymTridiagonal,
    pub v2: V2Set<T>,
    /// `phases[j]` scales row `j` of the real tridiagonal eigenvectors:
    /// eigenvectors of the complex tridiagonal are `diag(phases) * E`.
    pub phases: Vec<T>,
}

/// Run the bulge chase on the stage-1 band.
pub fn reduce<T: ComplexScalar>(band: SymBandMatrix<T>) -> ChaseResultC<T> {
    match reduce_with(band, &Ctrl::NONE) {
        Ok(r) => r,
        // Unreachable: the inert control never fails a checkpoint.
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`reduce`] polling a lifecycle control at every sweep boundary.
pub fn reduce_with<T: ComplexScalar>(
    mut band: SymBandMatrix<T>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<ChaseResultC<T>> {
    let mut v2 = V2Set::new(band.n(), band.bandwidth());
    reduce_ws(&mut band, &mut v2, &mut Stage2Ws::default(), ctrl)?;
    let (tridiagonal, phases) = phase_fold(&band);
    Ok(ChaseResultC {
        tridiagonal,
        v2,
        phases,
    })
}

// ---------------------------------------------------------------------
// Scheduled drivers (dynamic DAG / static pipeline).
// ---------------------------------------------------------------------

/// How the Hermitian bulge-chasing task graph is executed (the runtime's
/// one scheduler enum, shared with the real pipeline).
pub use tseig_runtime::chase::Scheduler;

/// The Hermitian chase as a task set of the shared executor: the
/// reflector store the tasks fill.
pub struct HermChase<T: ComplexScalar>(V2Set<T>);

impl<T: ComplexScalar> Chase for HermChase<T> {
    type Band = SymBandMatrix<T>;
    type Ctx = flops::Scope;
    const GEOMETRY: Geometry = Geometry::Band;
    const TAGS: [&'static str; 2] = ["zhbceu", "zhbrel+zhblru"];

    /// Task `(s, 0)` is `zhbceu`, `(s, k >= 1)` the `zhbrel`+`zhblru`
    /// pair. Each task writes its own V2 slot and reads the slot
    /// `(s, k-1)` its same-sweep predecessor wrote; the kernels report
    /// their band touches, slot touches are reported here.
    fn run_task(
        &mut self,
        band: &mut SymBandMatrix<T>,
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

/// The Hermitian chase task set as *declared* specs — the same
/// `(tag, priority, regions)` triples [`reduce_scheduled`] submits,
/// exported for offline verification.
pub fn chase_task_specs(n: usize, b: usize) -> Vec<TaskSpec> {
    HermChase::<C64>::GEOMETRY.specs(n, b, HermChase::<C64>::TAGS)
}

/// Run the Hermitian bulge chase under the chosen scheduler:
/// [`reduce_with`] for `Serial`, the shared chase executor otherwise.
/// Produces the same tridiagonal, reflector set and phases as [`reduce`]
/// — bit-identical, because the schedulers only reorder tasks whose data
/// regions are disjoint. The serial loop checkpoints `ctrl` per sweep;
/// the executor's workers poll it between task claims and drain on an
/// armed cancel or expired deadline with
/// `Err(tseig_runtime::STOPPED_BY_POLL)`. `nb` is the stage-1 bandwidth
/// the band already carries; debug builds check that they agree.
pub fn reduce_scheduled<T: ComplexScalar>(
    band: SymBandMatrix<T>,
    nb: usize,
    sched: Scheduler,
    ctrl: &Ctrl,
) -> Result<ChaseResultC<T>, String> {
    let (n, b) = (band.n(), band.bandwidth());
    debug_assert_eq!(b, nb.max(1), "chase nb does not match the band");
    if sched == Scheduler::Serial {
        return reduce_with(band, ctrl).map_err(|e| e.to_string());
    }
    band_contract("reduce_scheduled", &band);
    let store = HermChase(V2Set::new(n, b));
    let (band, HermChase(v2)) = chase::run(sched, band, store, flops::scope(), n, b, &|| {
        ctrl.poll_stop()
    })?;
    let (tridiagonal, phases) = phase_fold(&band);
    Ok(ChaseResultC {
        tridiagonal,
        v2,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::he2hb_with;
    use crate::validate::{rand_hermitian, real_embedding_eigenvalues};
    use tseig_matrix::norms;

    /// Band storage of a seeded Hermitian matrix cut to semi-bandwidth
    /// `b`, with `b` workspace diagonals.
    fn banded_hermitian(n: usize, b: usize, seed: u64) -> SymBandMatrix<C64> {
        let a = rand_hermitian(n, seed);
        let mut band = SymBandMatrix::default();
        band.refill_from_lower(n, a.as_slice(), a.ld(), b, b);
        band
    }

    #[test]
    fn schedulers_match_serial() {
        let n = 40;
        let b = 5;
        let a = banded_hermitian(n, b, 65);
        let serial = reduce(a.clone());
        for sched in [
            Scheduler::Dynamic(4),
            Scheduler::Static(3),
            Scheduler::Static(1),
        ] {
            let r = reduce_scheduled(a.clone(), b, sched, &Ctrl::NONE).unwrap();
            // Bit-identical results: every scheduler runs the same
            // kernels in a serial-equivalent order.
            assert_eq!(
                r.tridiagonal.diag(),
                serial.tridiagonal.diag(),
                "{sched:?} d"
            );
            assert_eq!(
                r.tridiagonal.off_diag(),
                serial.tridiagonal.off_diag(),
                "{sched:?} e"
            );
            assert_eq!(r.phases, serial.phases, "{sched:?} phases");
            assert_eq!(r.v2.reflector_count(), serial.v2.reflector_count());
            for s in 0..serial.v2.sweeps().len() {
                assert_eq!(
                    r.v2.sweeps()[s],
                    serial.v2.sweeps()[s],
                    "{sched:?} sweep {s}"
                );
            }
        }
    }

    #[test]
    fn cancel_during_scheduled_chase() {
        // The Hermitian twin of the real chase's check: a token cancelled
        // mid-chase must drain the pool for both scheduled backends, and
        // a pre-cancelled token must stop before any real work. Run
        // under TSan in CI: the cancel write races the worker polls by
        // design, and the atomics must make that race benign.
        use tseig_matrix::CancelToken;
        let (n, b) = (120, 5);
        let band = banded_hermitian(n, b, 67);
        for sched in [Scheduler::Dynamic(4), Scheduler::Static(3)] {
            let tok = CancelToken::new();
            let ctrl = Ctrl::new().with_cancel(tok.clone());
            let t = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                tok.cancel();
            });
            // Either outcome is legal (the chase may finish first); what
            // matters is termination and a clean drain.
            let _ = reduce_scheduled(band.clone(), b, sched, &ctrl);
            t.join().unwrap();

            let pre = CancelToken::new();
            pre.cancel();
            let ctrl = Ctrl::new().with_cancel(pre);
            let err = match reduce_scheduled(band.clone(), b, sched, &ctrl) {
                Err(e) => e,
                Ok(_) => panic!("pre-cancelled chase must not succeed ({sched:?})"),
            };
            assert_eq!(err, tseig_runtime::STOPPED_BY_POLL, "{sched:?}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn narrowed_declaration_caught_by_shadow_checker() {
        // Acceptance mutation, Hermitian side: narrow one task's declared
        // band span by a row; the shadow checker must fail the task when
        // the kernels touch the chopped row.
        use tseig_runtime::chase::BAND_SPACE;
        use tseig_runtime::Region;
        let (n, b) = (18, 3);
        let mut a = banded_hermitian(n, b, 66);
        let mut store = HermChase(V2Set::new(n, b));
        let victim = ChaseTask { s: 2, k: 1 };
        // Its predecessors run unchecked, so the victim reads real
        // reflectors.
        for t in Geometry::Band.tasks(n, b) {
            if t == victim {
                break;
            }
            store.run_task(&mut a, &flops::Scope::default(), n, b, t);
        }
        let mut regions = Geometry::Band.regions(n, b, victim);
        let (lo, hi) = Geometry::row_span(n, b, victim);
        assert!(hi > lo + 1);
        regions[0] = (
            Region::span(BAND_SPACE, lo as u64, hi as u64),
            Access::Write,
        );
        shadow::enter_task("narrowed", &regions);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.run_task(&mut a, &flops::Scope::default(), n, b, victim)
        }));
        shadow::exit_task();
        let err = ran.expect_err("the narrowed task must trip the checker");
        let err = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            err.contains("outside its declared footprint"),
            "expected a shadow violation, got: {err}"
        );
    }

    #[test]
    fn measured_flops_include_worker_threads() {
        // `flops::measure` counts the calling thread's charges plus those
        // of workers that entered its scope. The scheduled chase charges
        // on worker threads, so it must measure exactly what its serial
        // run measures. (The panel-parallel back-transform half of this
        // check runs in `tseig_kernels::backtransform` at all four
        // element types.)
        let (n, b) = (40, 4);
        let band = banded_hermitian(n, b, 74);
        let (_, want) = flops::measure(|| reduce_with(band.clone(), &Ctrl::NONE).unwrap());
        assert!(want.total() > 0);
        for sched in [Scheduler::Static(2), Scheduler::Dynamic(2)] {
            let (_, got) =
                flops::measure(|| reduce_scheduled(band.clone(), b, sched, &Ctrl::NONE).unwrap());
            assert_eq!(got, want, "{sched:?}");
        }
    }

    #[test]
    fn full_pipeline_spectrum() {
        let n = 18;
        let a = rand_hermitian(n, 64);
        let bf = he2hb_with(&a, 4, &Ctrl::NONE).unwrap();
        let want = real_embedding_eigenvalues(&a);
        let r = reduce(bf.band);
        let got = tseig_tridiag::sturm::bisect_eigenvalues(&r.tridiagonal, 0, n).unwrap();
        assert!(norms::eigenvalue_distance(&got, &want) < 1e-9);
    }
}
