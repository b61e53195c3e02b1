//! Stage 2 (Hermitian): band to tridiagonal bulge chasing.
//!
//! The same three-kernel column-wise chase as the real pipeline
//! ([`zhbceu`]/[`zhbrel`]/[`zhblru`], delayed annihilation), in complex
//! arithmetic. `zlarfg` makes every annihilation result *real*, so the
//! final tridiagonal is real up to the entries no sweep ever touches;
//! [`phase_fold`] rotates those real too with a unitary diagonal that is
//! handed to the back-transformation.
//!
//! The band is kept in the dense Hermitian matrix produced by stage 1;
//! every kernel works on a copied square or rectangular window (the
//! cache-resident blocks of the paper), then writes it back and mirrors
//! the conjugate triangle so the dense matrix stays exactly Hermitian.
//!
//! Execution mirrors the real `tseig_core::stage2`: [`reduce`] runs the
//! kernel sequence serially, [`reduce_scheduled`] runs the same `(sweep,
//! depth)` task set through the shared chase executor of
//! `tseig_runtime::chase`. The chase geometry is the real one
//! (`Geometry::Band`), so the same declared footprints and the same
//! certification apply, and every schedule is bit-identical to the
//! serial order.

use crate::ckernels::{zlarf_left, zlarf_right, zlarfg};
use tseig_kernels::flops;
use tseig_matrix::{CMatrixG, ComplexScalar, Ctrl, SymTridiagonal, C64};
use tseig_runtime::chase::{self, depth_of_sweep, Chase, ChaseTask, Geometry, BAND_SPACE};
use tseig_runtime::verify::TaskSpec;
use tseig_runtime::{shadow, Access};

/// One stored stage-2 reflector: `(start row, tau, v)` with `v[0] == 1`.
type ReflectorC<T = C64> = (usize, T, Vec<T>);

/// The complex reflector set of the chase, indexed `(sweep, depth)`.
/// Reflector `(s, k)` starts at global row `s + 1 + k * nb` (clamped at
/// the matrix edge) — the same geometry as the real `V2Set`.
pub struct V2SetC<T: ComplexScalar = C64> {
    n: usize,
    nb: usize,
    sweeps: Vec<Vec<ReflectorC<T>>>,
}

impl<T: ComplexScalar> V2SetC<T> {
    fn new(n: usize, nb: usize) -> Self {
        let nsweeps = n.saturating_sub(2);
        let mut sweeps = Vec::with_capacity(nsweeps);
        for s in 0..nsweeps {
            let depth = depth_of_sweep(n, nb, s);
            sweeps.push(vec![(0usize, T::ZERO, Vec::new()); depth]);
        }
        V2SetC { n, nb, sweeps }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn nb(&self) -> usize {
        self.nb
    }

    pub fn sweep_count(&self) -> usize {
        self.sweeps.len()
    }

    pub fn sweep(&self, s: usize) -> &[ReflectorC<T>] {
        &self.sweeps[s]
    }

    /// Total count of non-trivial generated reflectors (diagnostics).
    pub fn reflector_count(&self) -> usize {
        self.sweeps
            .iter()
            .map(|s| s.iter().filter(|(_, _, v)| !v.is_empty()).count())
            .sum()
    }

    fn store(&mut self, s: usize, k: usize, start: usize, tau: T, v: Vec<T>) {
        self.sweeps[s][k] = (start, tau, v);
    }
}

/// Result of the Hermitian chase: real tridiagonal + reflectors + the
/// unitary diagonal phases folded out of the off-diagonals. The
/// tridiagonal is always `f64` — the real solver downstream runs at
/// full precision regardless of the complex element width.
pub struct ChaseResultC<T: ComplexScalar = C64> {
    pub tridiagonal: SymTridiagonal,
    pub v2: V2SetC<T>,
    /// `phases[j]` scales row `j` of the real tridiagonal eigenvectors:
    /// eigenvectors of the complex tridiagonal are `diag(phases) * E`.
    pub phases: Vec<T>,
}

/// Band entries of a block with rows `[.., r1]`, columns `[c0, ..]`
/// (`c0 <= r1`) occupy exactly the diagonal index interval `[c0, r1]` —
/// the Hermitian mirror `(j, i)` of an entry `(i, j)` lands in the same
/// interval, so one touch covers both triangles. Every kernel below
/// reports its block through this before accessing the dense matrix; a
/// task reaching outside its declared span fails loudly in debug builds.
fn touch_band(c0: usize, r1: usize, access: Access) {
    shadow::touch(BAND_SPACE, c0 as u64, r1 as u64 + 1, access);
}

/// Kernel 1 (`zHBCEU`): start sweep `s` — annihilate column `s` below
/// the first sub-diagonal (to a *real* `beta`, courtesy of `zlarfg`) and
/// update the symmetric diamond block two-sided. Returns the generated
/// reflector `(start_row, tau, v)`.
pub fn zhbceu<T: ComplexScalar>(a: &mut CMatrixG<T>, s: usize, b: usize) -> ReflectorC<T> {
    let n = a.rows();
    let r0 = s + 1;
    let r1 = (s + b).min(n - 1);
    let l = r1 - r0 + 1;
    // Column s (and its conjugate mirror) is gathered and rewritten.
    touch_band(s, r1, Access::Write);
    let mut v = vec![T::ZERO; l];
    for i in 0..l {
        v[i] = a[(r0 + i, s)];
    }
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        zlarfg(head[0], tail)
    };
    v[0] = T::ONE;
    a[(r0, s)] = T::new(beta, 0.0);
    a[(s, r0)] = T::new(beta, 0.0);
    for i in 1..l {
        a[(r0 + i, s)] = T::ZERO;
        a[(s, r0 + i)] = T::ZERO;
    }
    two_sided_window(a, r0, l, &v, tau);
    (r0, tau, v)
}

/// Kernel 2 (`zHBREL`): chase step — apply the previous reflector from
/// the right to the sub-band block below it (creating the bulge),
/// annihilate **only the bulge's first column** (delayed annihilation)
/// and left-update the remaining columns while the block is cache-hot.
/// Returns the new reflector, or `None` when the chase ran off the
/// matrix edge.
pub fn zhbrel<T: ComplexScalar>(
    a: &mut CMatrixG<T>,
    b: usize,
    prev: (usize, T, &[T]),
) -> Option<ReflectorC<T>> {
    let n = a.rows();
    let (pr0, ptau, pv) = prev;
    let pl = pv.len();
    let br0 = pr0 + pl;
    if br0 >= n {
        return None;
    }
    let br1 = (br0 + b - 1).min(n - 1);
    let rl = br1 - br0 + 1;
    // Copy block A[br0..=br1, pr0..pr0+pl] (write-back is reported by
    // `write_back_rect`).
    touch_band(pr0, br1, Access::Read);
    let mut blk = vec![T::ZERO; rl * pl];
    for j in 0..pl {
        for i in 0..rl {
            blk[i + j * rl] = a[(br0 + i, pr0 + j)];
        }
    }
    let mut work = vec![T::ZERO; rl.max(pl)];
    // Right-apply the previous reflector (creates the bulge).
    zlarf_right(pv, ptau, rl, pl, &mut blk, rl, &mut work);
    if rl < 2 {
        write_back_rect(a, br0, rl, pr0, pl, &blk);
        return None;
    }
    // Annihilate the bulge's first column (delayed annihilation).
    let mut nv = vec![T::ZERO; rl];
    nv.copy_from_slice(&blk[..rl]);
    let (nbeta, ntau) = {
        let (head, tail) = nv.split_at_mut(1);
        zlarfg(head[0], tail)
    };
    nv[0] = T::ONE;
    blk[0] = T::new(nbeta, 0.0);
    blk[1..rl].fill(T::ZERO);
    // Left-apply the new reflector's H^H to the remaining columns.
    if pl > 1 {
        zlarf_left(&nv, ntau.conj(), rl, pl - 1, &mut blk[rl..], rl, &mut work);
    }
    write_back_rect(a, br0, rl, pr0, pl, &blk);
    Some((br0, ntau, nv))
}

/// Kernel 3 (`zHBLRU`): apply the new reflector two-sided to the next
/// symmetric diagonal window.
pub fn zhblru<T: ComplexScalar>(a: &mut CMatrixG<T>, refl: (usize, T, &[T])) {
    let (r0, tau, v) = refl;
    two_sided_window(a, r0, v.len(), v, tau);
}

/// Run the bulge chase on a banded dense Hermitian matrix (entries
/// outside semi-bandwidth `nb` must be zero — stage 1 guarantees it).
pub fn reduce<T: ComplexScalar>(a: CMatrixG<T>, nb: usize) -> ChaseResultC<T> {
    match reduce_with(a, nb, &Ctrl::NONE) {
        Ok(r) => r,
        // Unreachable: the inert control never fails a checkpoint.
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`reduce`] polling a lifecycle control at every sweep boundary.
pub fn reduce_with<T: ComplexScalar>(
    mut a: CMatrixG<T>,
    nb: usize,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<ChaseResultC<T>> {
    let n = a.rows();
    let b = nb.max(1);
    let mut v2 = V2SetC::new(n, b);
    if n > 2 && b > 1 {
        for s in 0..n - 2 {
            ctrl.checkpoint()?;
            run_sweep(&mut a, s, b, &mut v2);
        }
    }
    let (tridiagonal, phases) = phase_fold(&a);
    Ok(ChaseResultC {
        tridiagonal,
        v2,
        phases,
    })
}

fn run_sweep<T: ComplexScalar>(a: &mut CMatrixG<T>, s: usize, b: usize, v2: &mut V2SetC<T>) {
    let n = a.rows();
    if s + 2 >= n {
        return;
    }
    let (mut start, mut tau, mut v) = zhbceu(a, s, b);
    v2.store(s, 0, start, tau, v.clone());
    let mut k = 1usize;
    // tidy: allow(checkpoint-loop) -- per-sweep reflector chain; reduce_ws polls once per sweep
    while let Some((ns, nt, nv)) = zhbrel(a, b, (start, tau, &v)) {
        zhblru(a, (ns, nt, &nv));
        v2.store(s, k, ns, nt, nv.clone());
        (start, tau, v) = (ns, nt, nv);
        k += 1;
    }
    debug_assert_eq!(k, depth_of_sweep(n, b, s), "sweep {s} depth");
    let _ = (start, tau, v);
}

// ---------------------------------------------------------------------
// Scheduled drivers (dynamic DAG / static pipeline).
// ---------------------------------------------------------------------

/// How the Hermitian bulge-chasing task graph is executed (the runtime's
/// one scheduler enum, shared with the real pipeline).
pub use tseig_runtime::chase::Scheduler;

impl<T: ComplexScalar> Chase for V2SetC<T> {
    type Band = CMatrixG<T>;
    type Ctx = flops::Scope;
    const GEOMETRY: Geometry = Geometry::Band;
    const TAGS: [&'static str; 2] = ["zhbceu", "zhbrel+zhblru"];

    /// Task `(s, 0)` is `zhbceu`, `(s, k >= 1)` the `zhbrel`+`zhblru`
    /// pair. Each task writes its own V2 slot and reads the slot
    /// `(s, k-1)` its same-sweep predecessor wrote; band touches are
    /// reported by the kernels, slot touches here.
    fn run_task(
        &mut self,
        a: &mut CMatrixG<T>,
        scope: &flops::Scope,
        n: usize,
        b: usize,
        t: ChaseTask,
    ) {
        let _charged = scope.enter();
        let slot = |k| Geometry::Band.slot(n, b, t.s, k);
        if t.k == 0 {
            let (start, tau, v) = zhbceu(a, t.s, b);
            shadow::touch_region(slot(0), Access::Write);
            self.store(t.s, 0, start, tau, v);
        } else {
            shadow::touch_region(slot(t.k - 1), Access::Read);
            let prev = self.sweeps[t.s][t.k - 1].clone();
            let Some((ns, nt, nv)) = zhbrel(a, b, (prev.0, prev.1, &prev.2)) else {
                return;
            };
            zhblru(a, (ns, nt, &nv));
            shadow::touch_region(slot(t.k), Access::Write);
            self.store(t.s, t.k, ns, nt, nv);
        }
    }
}

/// The Hermitian chase task set as *declared* specs — the same
/// `(tag, priority, regions)` triples [`reduce_scheduled`] submits,
/// exported for offline verification.
pub fn chase_task_specs(n: usize, b: usize) -> Vec<TaskSpec> {
    V2SetC::<C64>::GEOMETRY.specs(n, b, V2SetC::<C64>::TAGS)
}

/// Run the Hermitian bulge chase under the chosen scheduler:
/// [`reduce_with`] for `Serial`, the shared chase executor otherwise.
/// Produces the same tridiagonal, reflector set and phases as [`reduce`]
/// — bit-identical, because the schedulers only reorder tasks whose data
/// regions are disjoint. The serial loop checkpoints `ctrl` per sweep;
/// the executor's workers poll it between task claims and drain on an
/// armed cancel or expired deadline with
/// `Err(tseig_runtime::STOPPED_BY_POLL)`.
pub fn reduce_scheduled<T: ComplexScalar>(
    a: CMatrixG<T>,
    nb: usize,
    sched: Scheduler,
    ctrl: &Ctrl,
) -> Result<ChaseResultC<T>, String> {
    if sched == Scheduler::Serial {
        return reduce_with(a, nb, ctrl).map_err(|e| e.to_string());
    }
    let (n, b) = (a.rows(), nb.max(1));
    let (a, v2) = chase::run(sched, a, V2SetC::new(n, b), flops::scope(), n, b, &|| {
        ctrl.poll_stop()
    })?;
    let (tridiagonal, phases) = phase_fold(&a);
    Ok(ChaseResultC {
        tridiagonal,
        v2,
        phases,
    })
}

/// `A[r0..r0+l, r0..r0+l] <- H^H (.) H` on a copied window.
fn two_sided_window<T: ComplexScalar>(a: &mut CMatrixG<T>, r0: usize, l: usize, v: &[T], tau: T) {
    if tau == T::ZERO {
        return;
    }
    touch_band(r0, r0 + l - 1, Access::Write);
    let mut blk = vec![T::ZERO; l * l];
    for j in 0..l {
        for i in 0..l {
            blk[i + j * l] = a[(r0 + i, r0 + j)];
        }
    }
    let mut work = vec![T::ZERO; l];
    zlarf_left(v, tau.conj(), l, l, &mut blk, l, &mut work);
    zlarf_right(v, tau, l, l, &mut blk, l, &mut work);
    for j in 0..l {
        for i in 0..l {
            a[(r0 + i, r0 + j)] = blk[i + j * l];
        }
        // Snap the diagonal real (Hermitian invariant up to rounding).
        a[(r0 + j, r0 + j)] = T::new(a[(r0 + j, r0 + j)].re(), 0.0);
    }
}

/// Write a strictly-sub-diagonal block back, mirroring the conjugate
/// into the upper triangle.
fn write_back_rect<T: ComplexScalar>(
    a: &mut CMatrixG<T>,
    r0: usize,
    rl: usize,
    c0: usize,
    cl: usize,
    blk: &[T],
) {
    touch_band(c0, r0 + rl - 1, Access::Write);
    for j in 0..cl {
        for i in 0..rl {
            let val = blk[i + j * rl];
            a[(r0 + i, c0 + j)] = val;
            a[(c0 + j, r0 + i)] = val.conj();
        }
    }
}

/// Extract the tridiagonal and rotate its off-diagonals real with a
/// unitary diagonal: `T_complex = D T_real D^H`, `D = diag(phases)`.
// tidy: allow(task-storage) -- main-thread read-only extraction, runs after all tasks completed
pub fn phase_fold<T: ComplexScalar>(a: &CMatrixG<T>) -> (SymTridiagonal, Vec<T>) {
    let n = a.rows();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n.saturating_sub(1)];
    let mut phases = vec![T::ONE; n];
    for j in 0..n {
        d[j] = a[(j, j)].re();
    }
    for j in 0..n.saturating_sub(1) {
        let ej = a[(j + 1, j)];
        let m = ej.abs();
        e[j] = m;
        phases[j + 1] = if m == 0.0 {
            phases[j]
        } else {
            // p_{j+1} = e_j p_j / |e_j| makes conj(p_{j+1}) e_j p_j real.
            (ej * phases[j]).scale(1.0 / m)
        };
    }
    (SymTridiagonal::new(d, e), phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::he2hb;
    use crate::validate::{rand_hermitian, real_embedding_eigenvalues};
    use tseig_matrix::{c64, norms, CMatrix};

    fn banded_hermitian(n: usize, b: usize, seed: u64) -> CMatrix {
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
    fn chase_spectrum_preserved() {
        for (n, b, seed) in [(14, 3, 60), (20, 5, 61), (11, 10, 62)] {
            let a = banded_hermitian(n, b, seed);
            let want = real_embedding_eigenvalues(&a);
            let r = reduce(a, b);
            let got = tseig_tridiag::sturm::bisect_eigenvalues(&r.tridiagonal, 0, n).unwrap();
            assert!(
                norms::eigenvalue_distance(&got, &want) < 1e-9,
                "spectrum changed (n={n}, b={b})"
            );
            // Off-diagonals are non-negative real by construction.
            assert!(r.tridiagonal.off_diag().iter().all(|&x| x >= 0.0));
            // Phases are unit modulus.
            assert!(r.phases.iter().all(|p| (p.abs() - 1.0).abs() < 1e-12));
        }
    }

    #[test]
    fn q2_reconstructs_band() {
        // B == Q2 (D T_real D^H) Q2^H with Q2 from the stored reflectors.
        let n = 12;
        let b = 3;
        let a0 = banded_hermitian(n, b, 63);
        let r = reduce(a0.clone(), b);
        // Build Q2 = H_1 H_2 ... (chase order) densely.
        let mut q2 = CMatrix::identity(n);
        let mut work = vec![C64::ZERO; n];
        for s in (0..r.v2.sweep_count()).rev() {
            for (start, tau, v) in r.v2.sweep(s).iter().rev() {
                let ldq = q2.ld();
                zlarf_left(
                    v,
                    *tau,
                    v.len(),
                    n,
                    &mut q2.as_mut_slice()[*start..],
                    ldq,
                    &mut work,
                );
            }
        }
        // T_complex = D T D^H.
        let t = r.tridiagonal.to_dense();
        let tc = CMatrix::from_fn(n, n, |i, j| {
            r.phases[i] * c64(t[(i, j)], 0.0) * r.phases[j].conj()
        });
        let recon = q2.multiply(&tc).multiply(&q2.adjoint());
        assert!(recon.max_diff(&a0) < 1e-10 * n as f64, "Q2 T Q2^H != B");
    }

    #[test]
    fn schedulers_match_serial() {
        let n = 40;
        let b = 5;
        let a = banded_hermitian(n, b, 65);
        let serial = reduce(a.clone(), b);
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
            for s in 0..serial.v2.sweep_count() {
                assert_eq!(r.v2.sweep(s), serial.v2.sweep(s), "{sched:?} sweep {s}");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn narrowed_declaration_caught_by_shadow_checker() {
        // Acceptance mutation, Hermitian side: narrow one task's declared
        // band span by a row; the shadow checker must fail the task when
        // the kernels touch the chopped row.
        use tseig_runtime::Region;
        let (n, b) = (18, 3);
        let mut a = banded_hermitian(n, b, 66);
        let mut v2 = V2SetC::new(n, b);
        let victim = ChaseTask { s: 2, k: 1 };
        // Its predecessors run unchecked, so the victim reads real
        // reflectors.
        for t in Geometry::Band.tasks(n, b) {
            if t == victim {
                break;
            }
            v2.run_task(&mut a, &flops::Scope::default(), n, b, t);
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
            v2.run_task(&mut a, &flops::Scope::default(), n, b, victim)
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
    fn full_pipeline_spectrum() {
        let n = 18;
        let a = rand_hermitian(n, 64);
        let bf = he2hb(&a, 4);
        let want = real_embedding_eigenvalues(&a);
        let r = reduce(bf.band.clone(), 4);
        let got = tseig_tridiag::sturm::bisect_eigenvalues(&r.tridiagonal, 0, n).unwrap();
        assert!(norms::eigenvalue_distance(&got, &want) < 1e-9);
    }
}
