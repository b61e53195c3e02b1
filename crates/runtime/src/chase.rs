//! The bulge-chase executor shared by every stage-2 frontend.
//!
//! Every chase in the workspace — the symmetric/Hermitian band chase
//! (one element-generic kernel set, driven by a real and a Hermitian
//! frontend) and the band-bidiagonal SVD chase — runs the same task set:
//! sweep `s` starts with a head task `(s, 0)` and pushes its bulge down
//! the band with chase steps `(s, k >= 1)`. Each task touches one
//! contiguous diagonal-index interval of the band plus reflector slots,
//! so the whole scheduling side is written once here (the paper's QUARK
//! model, §3: the runtime is shared, a stage supplies only its kernels and
//! their data footprints):
//!
//! * [`Geometry`] — task enumeration in sweep-major order, the exact band
//!   row spans, the reflector-slot numbering, the declared footprints
//!   ([`Geometry::specs`], the input of `xtask graphcheck`) and the
//!   round-robin static owners. Two geometries exist: the
//!   symmetric/Hermitian [`Geometry::Band`] chase and the
//!   [`Geometry::Bidiagonal`] chase.
//! * [`Chase`] — what a frontend implements on its reflector store: the
//!   geometry, two task tags, and how to run one `(s, k)` task.
//! * [`run`] and [`ChaseSchedule`] — the two parallel [`Scheduler`] arms:
//!   the dynamic superscalar runtime and the static pipelined scheduler
//!   (with the wait lists derived once per shape and cached). They share
//!   the band and the store between workers through [`DataCell`]s, which
//!   is sound because the declared footprints order every conflicting
//!   pair of tasks. [`Scheduler::Serial`] is each frontend's own
//!   allocation-free sweep loop; it never reaches this module.
//!
//! Both arms run the same kernels in a serial-equivalent order, so the
//! results are bitwise identical to the frontend's serial loop.

use crate::graph::{Access, Priority, Region, TaskGraph};
use crate::verify::TaskSpec;
use crate::{DataCell, Runtime, StaticSchedule};
use std::marker::PhantomData;
use std::sync::Arc;

/// Region space of the band's diagonal-index intervals: entry `(i, j)`
/// lies in `[min(i, j), max(i, j)]`.
pub const BAND_SPACE: u32 = 0;
/// Region space of reflector slots, one point per `(sweep, step)`.
pub const SLOT_SPACE: u32 = 1;

/// Report a touch of the band's diagonal-index span `[lo, hi]` to the
/// debug-build shadow checker, as a write when `write`. The band
/// frontends hand this to the element-generic chase kernels of
/// `tseig-kernels`, which report every band block through it.
pub fn touch_band(lo: usize, hi: usize, write: bool) {
    let access = if write { Access::Write } else { Access::Read };
    crate::shadow::touch(BAND_SPACE, lo as u64, hi as u64 + 1, access);
}

/// How the chase's task graph is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The frontend's sequential sweep loop (lowest overhead).
    #[default]
    Serial,
    /// Static pipelined scheduler on `n` workers: sweeps assigned
    /// round-robin, synchronization by progress counters (the paper's
    /// preference for the memory-bound chase on few cores).
    Static(usize),
    /// Dynamic superscalar runtime on `n` workers with region-inferred
    /// dependences.
    Dynamic(usize),
}

/// One unit of chase work: sweep `s`, chase depth `k` (`k == 0` is the
/// sweep head).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseTask {
    pub s: usize,
    pub k: usize,
}

/// The two chase task geometries. Both share the band row spans; they
/// differ in how many steps a sweep runs and in which reflector slots a
/// task stores and reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Geometry {
    /// Symmetric or Hermitian band to tridiagonal. Step `k >= 1` reads
    /// the reflector its predecessor `(s, k - 1)` stored; a sweep whose
    /// last bulge block has a single row runs one trailing step that
    /// stores no reflector.
    Band,
    /// General upper band to bidiagonal. Every task stores its own slot
    /// and reads none: each step annihilates fill its predecessor fully
    /// materialized, so ordering comes from the band intervals alone.
    Bidiagonal,
}

/// Number of reflectors sweep `s` of a [`Geometry::Band`] chase stores:
/// reflector `k` exists while its row range `[s+1+k*b, ..]` has at least
/// two rows.
pub fn depth_of_sweep(n: usize, b: usize, s: usize) -> usize {
    if s + 2 >= n {
        return 0;
    }
    (n - 2 - s - 1) / b + 1
}

impl Geometry {
    /// Number of tasks sweep `s` runs.
    pub fn steps_of_sweep(self, n: usize, b: usize, s: usize) -> usize {
        match self {
            // Step k >= 1 exists while the block below reflector k-1 is
            // non-empty (s + k*b <= n - 2), plus the head.
            Geometry::Band if s + 2 < n => (n - 2 - s) / b + 1,
            // One head plus one step per b columns of fill.
            Geometry::Bidiagonal if n > 2 && b > 1 && s + 2 < n => (n - 3 - s) / b + 2,
            _ => 0,
        }
    }

    /// Every task of an order-`n`, bandwidth-`b` chase in the serial
    /// (sweep-major) order.
    pub fn tasks(self, n: usize, b: usize) -> Vec<ChaseTask> {
        let mut tasks = Vec::new();
        if n <= 2 || b <= 1 {
            return tasks;
        }
        for s in 0..n - 2 {
            for k in 0..self.steps_of_sweep(n, b, s) {
                tasks.push(ChaseTask { s, k });
            }
        }
        tasks
    }

    /// Exact inclusive diagonal-index span `[lo, hi]` of the band entries
    /// task `t` touches: the head covers `[s, min(s+b, n-1)]`, a chase
    /// step `[s+1+(k-1)b, min(s+(k+1)b, n-1)]`.
    pub fn row_span(n: usize, b: usize, t: ChaseTask) -> (usize, usize) {
        let lo = if t.k == 0 {
            t.s
        } else {
            t.s + 1 + (t.k - 1) * b
        };
        let hi = (t.s + (t.k + 1) * b).min(n - 1);
        (lo, hi)
    }

    /// Reflector slot region of `(s, k)`. The stride is the step count of
    /// sweep 0, the longest, so slot ids never collide across sweeps.
    pub fn slot(self, n: usize, b: usize, s: usize, k: usize) -> Region {
        let stride = self.steps_of_sweep(n, b, 0);
        Region::point(SLOT_SPACE, (s * stride + k) as u64)
    }

    /// Declared footprint of task `t`: the exact band span (Write, every
    /// kernel reads and writes its blocks), the slot it stores and, in
    /// the band geometry, the predecessor slot it reads. Exactness
    /// matters twice: a touch outside these regions trips the shadow
    /// checker, and spans one index wider would serialize `(s, k)` and
    /// `(s, k + 2)`, which are adjacent but disjoint.
    pub fn regions(self, n: usize, b: usize, t: ChaseTask) -> Vec<(Region, Access)> {
        let (lo, hi) = Self::row_span(n, b, t);
        let mut regions = vec![(
            Region::span(BAND_SPACE, lo as u64, hi as u64 + 1),
            Access::Write,
        )];
        let stores = match self {
            Geometry::Band => t.k < depth_of_sweep(n, b, t.s),
            Geometry::Bidiagonal => true,
        };
        if stores {
            regions.push((self.slot(n, b, t.s, t.k), Access::Write));
        }
        if self == Geometry::Band && t.k > 0 {
            regions.push((self.slot(n, b, t.s, t.k - 1), Access::Read));
        }
        regions
    }

    /// The task set as declared `(tag, priority, regions)` specs, tagged
    /// `tags[0]` for sweep heads (high priority: they sit on the critical
    /// path) and `tags[1]` for chase steps — exactly what the executors
    /// submit, exported for offline verification.
    pub fn specs(self, n: usize, b: usize, tags: [&'static str; 2]) -> Vec<TaskSpec> {
        self.tasks(n, b)
            .into_iter()
            .map(|t| {
                let (tag, priority) = meta(tags, t);
                TaskSpec {
                    tag,
                    priority,
                    regions: self.regions(n, b, t),
                }
            })
            .collect()
    }

    /// Static-scheduler owner of every task (sweep round-robin over
    /// `threads` workers), in the order of [`Geometry::tasks`].
    pub fn owners(self, n: usize, b: usize, threads: usize) -> Vec<usize> {
        let threads = threads.max(1);
        self.tasks(n, b).iter().map(|t| t.s % threads).collect()
    }
}

fn meta(tags: [&'static str; 2], t: ChaseTask) -> (&'static str, Priority) {
    if t.k == 0 {
        (tags[0], Priority::High)
    } else {
        (tags[1], Priority::Normal)
    }
}

/// A chase frontend, implemented by its reflector store: the store and
/// the band are the two pieces of state the tasks share.
pub trait Chase: Send + Sized + 'static {
    /// The band storage the kernels reduce in place.
    type Band: Send + 'static;
    /// Read-only context captured on the calling thread and handed to
    /// every task of a run (the frontends pass their flop-measurement
    /// scope, so charges made on worker threads reach the caller's
    /// measurement).
    type Ctx: Send + Sync + 'static;
    /// Task geometry of this chase.
    const GEOMETRY: Geometry;
    /// Task tags (trace and verification): sweep head, chase step.
    const TAGS: [&'static str; 2];

    /// Run task `t` of an order-`n`, bandwidth-`b` chase. The executors
    /// call this only while `t` holds its declared footprint; the kernels
    /// report their band touches, and slot touches are reported against
    /// [`Geometry::slot`], to the debug-build shadow checker.
    fn run_task(
        &mut self,
        band: &mut Self::Band,
        ctx: &Self::Ctx,
        n: usize,
        b: usize,
        t: ChaseTask,
    );
}

/// Band, store and context shared by the workers of one scheduled run.
struct Shared<C: Chase> {
    band: DataCell<C::Band>,
    store: DataCell<C>,
    ctx: C::Ctx,
}

impl<C: Chase> Shared<C> {
    fn new(band: C::Band, store: C, ctx: C::Ctx) -> Arc<Self> {
        Arc::new(Shared {
            band: DataCell::new(band),
            store: DataCell::new(store),
            ctx,
        })
    }

    /// # Safety
    /// The caller must hold the declared footprint of `t`, so that no
    /// concurrently running task touches the same band rows or slots.
    unsafe fn run_task(&self, n: usize, b: usize, t: ChaseTask) {
        // SAFETY: forwarded from the caller; the footprint covers every
        // band row and slot the task reaches through both cells.
        unsafe {
            let band = self.band.get_mut();
            self.store.get_mut().run_task(band, &self.ctx, n, b, t)
        }
    }

    fn into_parts(this: Arc<Self>) -> Result<(C::Band, C), String> {
        let shared = Arc::try_unwrap(this).map_err(|_| "chase state still shared".to_string())?;
        Ok((shared.band.into_inner(), shared.store.into_inner()))
    }
}

/// Run the order-`n`, bandwidth-`b` chase of `band` on the parallel
/// scheduler `sched`, storing reflectors in `store`; every task gets
/// `ctx`. The workers poll `poll` between task claims and drain on
/// `true`, returning `Err(`[`STOPPED_BY_POLL`](crate::STOPPED_BY_POLL)`)`.
/// A task panic surfaces as `Err` with the panic message.
///
/// # Panics
/// On [`Scheduler::Serial`]: the serial chase is the frontend's own loop.
pub fn run<C: Chase>(
    sched: Scheduler,
    band: C::Band,
    store: C,
    ctx: C::Ctx,
    n: usize,
    b: usize,
    poll: &(dyn Fn() -> bool + Sync),
) -> Result<(C::Band, C), String> {
    match sched {
        Scheduler::Serial => unreachable!("the serial chase runs in the frontend's own loop"),
        Scheduler::Static(threads) => {
            ChaseSchedule::<C>::new(n, b, threads).run(band, store, ctx, poll)
        }
        Scheduler::Dynamic(threads) => {
            let shared = Shared::new(band, store, ctx);
            let mut graph = TaskGraph::new();
            for t in C::GEOMETRY.tasks(n, b) {
                let (tag, priority) = meta(C::TAGS, t);
                let cells = shared.clone();
                graph.add_task(tag, priority, &C::GEOMETRY.regions(n, b, t), move || {
                    // SAFETY: the task graph runs this closure only once
                    // every conflicting predecessor finished, and never
                    // next to a task whose declared regions overlap.
                    unsafe { cells.run_task(n, b, t) }
                });
            }
            Runtime::new(threads).run_with_poll(graph, poll)?;
            Shared::into_parts(shared)
        }
    }
}

/// Precomputed static-scheduler plan for one `(n, b, threads)` shape of
/// chase `C`: the task list plus the derived cross-worker wait lists.
///
/// Deriving the waits replays the region protocol through a shadow task
/// graph — O(tasks · regions) work that depends only on the shape. A
/// solve plan builds this once and reuses it for every solve of the same
/// shape.
pub struct ChaseSchedule<C> {
    n: usize,
    b: usize,
    tasks: Vec<ChaseTask>,
    sched: StaticSchedule,
    chase: PhantomData<fn() -> C>,
}

impl<C: Chase> ChaseSchedule<C> {
    /// Derive the schedule for an order-`n`, bandwidth-`b` chase on
    /// `threads` workers.
    pub fn new(n: usize, b: usize, threads: usize) -> Self {
        let g = C::GEOMETRY;
        let tasks = g.tasks(n, b);
        let regions: Vec<_> = tasks.iter().map(|&t| g.regions(n, b, t)).collect();
        let sched = StaticSchedule::derive(threads, &g.owners(n, b, threads), &regions);
        ChaseSchedule {
            n,
            b,
            tasks,
            sched,
            chase: PhantomData,
        }
    }

    /// Matrix order the schedule was derived for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth the schedule was derived for.
    pub fn bandwidth(&self) -> usize {
        self.b
    }

    /// Worker count the schedule was derived for.
    pub fn threads(&self) -> usize {
        self.sched.threads()
    }

    /// Run the chase of `band` under this schedule (see [`run`]); the
    /// band must have the schedule's shape.
    pub fn run(
        &self,
        band: C::Band,
        store: C,
        ctx: C::Ctx,
        poll: &(dyn Fn() -> bool + Sync),
    ) -> Result<(C::Band, C), String> {
        let (n, b) = (self.n, self.b);
        let shared = Shared::new(band, store, ctx);
        self.sched.execute_with_poll(
            |i| {
                let (cells, t) = (shared.clone(), self.tasks[i]);
                // SAFETY: the static schedule's waits order every
                // conflicting pair of tasks, derived from the same
                // declared regions as the dynamic graph.
                Box::new(move || unsafe { cells.run_task(n, b, t) })
            },
            poll,
        )?;
        Shared::into_parts(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shadow, verify, STOPPED_BY_POLL};

    /// A toy chase whose "kernel" folds the task id into every band entry
    /// of its declared span (and, in the band geometry, the predecessor's
    /// reflector) — an order-sensitive hash, so any reordering of
    /// conflicting tasks changes the result.
    struct Toy<const BIDIAGONAL: bool> {
        slots: Vec<u64>,
    }

    impl<const BIDIAGONAL: bool> Chase for Toy<BIDIAGONAL> {
        type Band = Vec<u64>;
        const GEOMETRY: Geometry = if BIDIAGONAL {
            Geometry::Bidiagonal
        } else {
            Geometry::Band
        };
        type Ctx = ();
        const TAGS: [&'static str; 2] = ["head", "step"];

        fn run_task(&mut self, band: &mut Vec<u64>, _: &(), n: usize, b: usize, t: ChaseTask) {
            let g = Self::GEOMETRY;
            let (lo, hi) = Geometry::row_span(n, b, t);
            shadow::touch(BAND_SPACE, lo as u64, hi as u64 + 1, Access::Write);
            let mut h = (t.s * 1000 + t.k) as u64;
            if g == Geometry::Band && t.k > 0 {
                let prev = g.slot(n, b, t.s, t.k - 1);
                shadow::touch_region(prev, Access::Read);
                h ^= self.slots[prev.lo() as usize];
            }
            for x in &mut band[lo..=hi] {
                *x = x.wrapping_mul(31).wrapping_add(h);
                h = h.rotate_left(7) ^ *x;
            }
            if g == Geometry::Bidiagonal || t.k < depth_of_sweep(n, b, t.s) {
                let slot = g.slot(n, b, t.s, t.k);
                shadow::touch_region(slot, Access::Write);
                self.slots[slot.lo() as usize] = h;
            }
        }
    }

    fn toy<const BI: bool>(n: usize, b: usize) -> (Vec<u64>, Toy<BI>) {
        let slots = vec![0; (n.saturating_sub(2)) * Toy::<BI>::GEOMETRY.steps_of_sweep(n, b, 0)];
        ((0..n as u64).collect(), Toy { slots })
    }

    /// The reference: every task in sweep-major order on this thread.
    fn toy_serial<const BI: bool>(n: usize, b: usize) -> (Vec<u64>, Vec<u64>) {
        let (mut band, mut store) = toy::<BI>(n, b);
        for t in Toy::<BI>::GEOMETRY.tasks(n, b) {
            store.run_task(&mut band, &(), n, b, t);
        }
        (band, store.slots)
    }

    fn toy_run<const BI: bool>(sched: Scheduler, n: usize, b: usize) -> (Vec<u64>, Vec<u64>) {
        let (band, store) = toy::<BI>(n, b);
        let (band, store) = run(sched, band, store, (), n, b, &|| false).unwrap();
        (band, store.slots)
    }

    #[test]
    fn schedulers_match_serial() {
        // Every arm, both geometries, shapes on and off the b-alignment
        // boundary: bitwise the serial result.
        for (n, b) in [(20, 3), (24, 4), (14, 5), (13, 2), (9, 8)] {
            let band = toy_serial::<false>(n, b);
            let bidi = toy_serial::<true>(n, b);
            for sched in [
                Scheduler::Static(1),
                Scheduler::Static(3),
                Scheduler::Dynamic(4),
            ] {
                assert_eq!(
                    toy_run::<false>(sched, n, b),
                    band,
                    "band {sched:?} n={n} b={b}"
                );
                assert_eq!(
                    toy_run::<true>(sched, n, b),
                    bidi,
                    "bidi {sched:?} n={n} b={b}"
                );
            }
        }
    }

    #[test]
    fn cached_schedule_is_reusable() {
        let (n, b) = (30, 4);
        let plan = ChaseSchedule::<Toy<false>>::new(n, b, 2);
        assert_eq!((plan.n(), plan.bandwidth(), plan.threads()), (n, b, 2));
        let want = toy_serial::<false>(n, b);
        for _ in 0..3 {
            let (band, store) = toy::<false>(n, b);
            let (band, store) = plan.run(band, store, (), &|| false).unwrap();
            assert_eq!((band, store.slots), want);
        }
    }

    #[test]
    fn poll_stops_every_arm() {
        for sched in [Scheduler::Static(2), Scheduler::Dynamic(2)] {
            let store = Toy::<true> { slots: vec![0; 64] };
            let err = run(sched, vec![0u64; 12], store, (), 12, 3, &|| true).err();
            assert_eq!(err.as_deref(), Some(STOPPED_BY_POLL), "{sched:?}");
        }
    }

    #[test]
    fn steps_exceed_depth_exactly_on_nb_boundary() {
        // When (n - 2 - s) is an exact multiple of b, the last bulge
        // block of a band sweep has a single row: the sweep runs one more
        // task (the final right-application) than it stores reflectors.
        for n in 5..40 {
            for b in 2..10 {
                for s in 0..n - 2 {
                    let depth = depth_of_sweep(n, b, s);
                    let steps = Geometry::Band.steps_of_sweep(n, b, s);
                    let extra = usize::from((n - 2 - s) % b == 0);
                    assert_eq!(steps, depth + extra, "n={n} b={b} s={s}");
                }
            }
        }
    }

    #[test]
    fn geometries_certified_race_free() {
        // The checks `xtask graphcheck` runs over its sweep, pinned here
        // on a few instances of both geometries: conflict-pair
        // dependence coverage, acyclicity, priority sanity, and
        // static/dynamic consistency.
        for g in [Geometry::Band, Geometry::Bidiagonal] {
            for (n, b) in [(20, 3), (24, 4), (14, 5), (13, 2), (33, 8)] {
                let specs = g.specs(n, b, ["head", "step"]);
                assert!(!specs.is_empty());
                let sum = verify::check_graph(&specs);
                assert!(sum.ok(), "{g:?} (n={n}, b={b}): {:?}", sum.violations);
                for threads in 1..=4 {
                    let owners = g.owners(n, b, threads);
                    let st = verify::check_static(&specs, &owners, threads);
                    assert!(
                        st.ok(),
                        "{g:?} (n={n}, b={b}, t={threads}): {:?}",
                        st.violations
                    );
                }
            }
        }
    }

    #[test]
    fn exact_spans_drop_spurious_same_sweep_edges() {
        // Tasks (s, k) and (s, k+2) are disjoint: spans [s+1+(k-1)b,
        // s+(k+1)b] and [s+1+(k+1)b, s+(k+3)b]. An nb-chunk declaration
        // rounded both to tile boundaries and serialized them; the exact
        // spans must not.
        let (n, b) = (20, 3);
        for g in [Geometry::Band, Geometry::Bidiagonal] {
            let tasks = g.tasks(n, b);
            let id = |s, k| tasks.iter().position(|&t| t == ChaseTask { s, k }).unwrap();
            let specs = g.specs(n, b, ["head", "step"]);
            let edges = verify::infer_edges(&specs);
            // Chain within the sweep is intact...
            assert!(edges[id(0, 1)].contains(&id(0, 2)), "{g:?}");
            // ...but the disjoint (s, k) -> (s, k+2) pair carries no edge
            // and is not even a conflict.
            assert!(!edges[id(0, 1)].contains(&id(0, 3)), "{g:?}");
            assert!(!verify::conflict_pairs(&specs)
                .iter()
                .any(|&(i, j, _)| (i, j) == (id(0, 1), id(0, 3))));
            // Cross-sweep ordering survives the tightening.
            assert!(edges[id(0, 1)].contains(&id(1, 0)) || edges[id(0, 2)].contains(&id(1, 0)));
        }
    }

    #[test]
    fn deleted_edge_caught_by_graphcheck() {
        // Remove one real dependence edge between adjacent conflicting
        // tasks (adjacent ids have no intermediate path): conflict
        // coverage must fail.
        let specs = Geometry::Band.specs(16, 3, ["head", "step"]);
        let mut edges = verify::infer_edges(&specs);
        let victim = (0..specs.len() - 1)
            .find(|&i| edges[i].contains(&(i + 1)))
            .expect("some adjacent pair must be directly ordered");
        edges[victim].retain(|&v| v != victim + 1);
        let sum = verify::check_graph_with_edges(&specs, &edges);
        assert!(
            sum.violations.iter().any(|v| matches!(
                v,
                verify::Violation::UncoveredConflict { first, second, .. }
                    if *first == victim && *second == victim + 1
            )),
            "deleted edge not caught: {:?}",
            sum.violations
        );
    }
}
