//! Global flop accounting, split by BLAS level.
//!
//! The paper's Table 1 states the asymptotic flop counts of each phase
//! (`4/3 n^3` for the reduction, `4 n^3` for the eigenvector update, …).
//! Rather than trusting those formulas, every kernel in this crate adds its
//! exact flop count to one of three relaxed atomic counters — one
//! `fetch_add` per *kernel call*, so the accounting overhead is negligible
//! — and the `table1` benchmark reads them back to verify the complexity
//! claims empirically.
//!
//! The level split also powers the Amdahl analysis of §4: Level-1/2 flops
//! are memory-bound ("the Amdahl fraction"); Level-3 flops are
//! compute-bound.

//! Alongside the flop counters, each kernel also charges an estimate of
//! the main-memory **bytes moved** (compulsory reads/writes plus the
//! cache-block revisits its loop nest actually incurs), so benchmarks
//! can report arithmetic intensity (flop/byte) — the quantity that
//! decides on which side of the roofline a kernel lands.
//!
//! The counters are process-global, so two solves running at once (two
//! tests in one binary, two batch workers) both land in them. [`measure`]
//! therefore also keeps counters of its own: every charge made on the
//! measuring thread — or on a helper thread running inside the
//! measurement's [`Scope`] — is added to them too, and nothing else is.
//! Parallel sections whose workers call charging kernels carry the scope
//! across with [`scope`] and [`Scope::enter`].

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static L1: AtomicU64 = AtomicU64::new(0);
static L2: AtomicU64 = AtomicU64::new(0);
static L3: AtomicU64 = AtomicU64::new(0);

static B1: AtomicU64 = AtomicU64::new(0);
static B2: AtomicU64 = AtomicU64::new(0);
static B3: AtomicU64 = AtomicU64::new(0);

/// Which counter a kernel charges its flops to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Vector-vector work (`dot`, `axpy`, `nrm2`, …).
    L1,
    /// Matrix-vector work (`gemv`, `symv`, `ger`, `syr2`, unblocked
    /// reflector application).
    L2,
    /// Matrix-matrix work (`gemm`, `syrk`, `syr2k`, `trmm`, blocked
    /// reflector application).
    L3,
}

/// Charge `count` flops to `level`.
#[inline]
pub fn add(level: Level, count: u64) {
    match level {
        Level::L1 => L1.fetch_add(count, Ordering::Relaxed),
        Level::L2 => L2.fetch_add(count, Ordering::Relaxed),
        Level::L3 => L3.fetch_add(count, Ordering::Relaxed),
    };
    SCOPE.with(|scope| {
        for sink in scope.borrow().iter() {
            sink[level as usize].fetch_add(count, Ordering::Relaxed);
        }
    });
}

/// Charge `count` bytes of estimated memory traffic to `level`.
#[inline]
pub fn add_bytes(level: Level, count: u64) {
    match level {
        Level::L1 => B1.fetch_add(count, Ordering::Relaxed),
        Level::L2 => B2.fetch_add(count, Ordering::Relaxed),
        Level::L3 => B3.fetch_add(count, Ordering::Relaxed),
    };
}

/// Snapshot of the three byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteCounts {
    pub l1: u64,
    pub l2: u64,
    pub l3: u64,
}

impl ByteCounts {
    /// Total estimated bytes moved across all levels.
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.l3
    }

    /// Element-wise difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &ByteCounts) -> ByteCounts {
        ByteCounts {
            l1: self.l1.saturating_sub(earlier.l1),
            l2: self.l2.saturating_sub(earlier.l2),
            l3: self.l3.saturating_sub(earlier.l3),
        }
    }
}

/// Read the current byte counters.
pub fn bytes_snapshot() -> ByteCounts {
    ByteCounts {
        l1: B1.load(Ordering::Relaxed),
        l2: B2.load(Ordering::Relaxed),
        l3: B3.load(Ordering::Relaxed),
    }
}

/// Arithmetic intensity (flop/byte); `NaN`-free: zero bytes yields 0.
pub fn intensity(flops: u64, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        flops as f64 / bytes as f64
    }
}

/// Snapshot of the three counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlopCounts {
    pub l1: u64,
    pub l2: u64,
    pub l3: u64,
}

impl FlopCounts {
    /// Total flops across all levels.
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.l3
    }

    /// Fraction of the flops that is memory-bound (Level 1 + Level 2) —
    /// the paper's "Amdahl fraction".
    pub fn memory_bound_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.l1 + self.l2) as f64 / t as f64
        }
    }

    /// Element-wise difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &FlopCounts) -> FlopCounts {
        FlopCounts {
            l1: self.l1.saturating_sub(earlier.l1),
            l2: self.l2.saturating_sub(earlier.l2),
            l3: self.l3.saturating_sub(earlier.l3),
        }
    }
}

/// Read the current counters.
pub fn snapshot() -> FlopCounts {
    FlopCounts {
        l1: L1.load(Ordering::Relaxed),
        l2: L2.load(Ordering::Relaxed),
        l3: L3.load(Ordering::Relaxed),
    }
}

/// Reset all counters to zero. Tests that assert exact counts should
/// instead take two [`snapshot`]s and diff them with
/// [`FlopCounts::since`], because other threads may run concurrently.
pub fn reset() {
    L1.store(0, Ordering::Relaxed);
    L2.store(0, Ordering::Relaxed);
    L3.store(0, Ordering::Relaxed);
    B1.store(0, Ordering::Relaxed);
    B2.store(0, Ordering::Relaxed);
    B3.store(0, Ordering::Relaxed);
}

/// Per-level flop counters of one [`measure`] call.
type Sink = Arc<[AtomicU64; 3]>;

thread_local! {
    /// The measurements charges made on this thread are added to.
    static SCOPE: RefCell<Vec<Sink>> = const { RefCell::new(Vec::new()) };
}

/// The measurements active on the current thread, to be carried into
/// work the thread hands to helper threads (see [`Scope::enter`]).
#[derive(Clone, Default)]
pub struct Scope(Vec<Sink>);

/// The current thread's measurement scope. Allocation-free while no
/// measurement is active (and so is entering an empty scope).
pub fn scope() -> Scope {
    SCOPE.with(|scope| Scope(scope.borrow().clone()))
}

impl Scope {
    /// Count this thread's charges in this scope's measurements until the
    /// returned guard drops (also on unwind), which restores the thread's
    /// own scope.
    pub fn enter(&self) -> Entered {
        Entered {
            saved: SCOPE.with(|scope| scope.replace(self.0.clone())),
            thread_bound: PhantomData,
        }
    }
}

/// Guard of [`Scope::enter`]; restores the thread's previous scope on
/// drop. Not `Send`: it must drop on the thread that entered.
pub struct Entered {
    saved: Vec<Sink>,
    thread_bound: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        SCOPE.with(|scope| *scope.borrow_mut() = saved);
    }
}

/// Measure the flops charged by `f`, per level: the charges made on the
/// calling thread while `f` runs, plus those of helper threads that
/// entered its [`Scope`] — and not those of unrelated work running at
/// the same time.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, FlopCounts) {
    let sink: Sink = Arc::default();
    let mut inner = scope();
    inner.0.push(sink.clone());
    let entered = inner.enter();
    let r = f();
    drop(entered);
    let [l1, l2, l3] = &*sink;
    let counts = FlopCounts {
        l1: l1.load(Ordering::Relaxed),
        l2: l2.load(Ordering::Relaxed),
        l3: l3.load(Ordering::Relaxed),
    };
    (r, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_only_its_own_work() {
        // A charge on an unrelated thread while the measurement runs is
        // not counted; one on a helper thread inside the scope is; the
        // global counters see both.
        let g0 = snapshot();
        let (_, d) = measure(|| {
            add(Level::L1, 10);
            std::thread::scope(|t| {
                let inner = scope();
                t.spawn(move || {
                    let _entered = inner.enter();
                    add(Level::L2, 20)
                });
                t.spawn(|| add(Level::L3, 1000));
            });
            let (_, nested) = measure(|| add(Level::L3, 30));
            assert_eq!(nested.total(), 30);
        });
        assert_eq!((d.l1, d.l2, d.l3), (10, 20, 30));
        let g = snapshot().since(&g0);
        assert!(g.l1 >= 10 && g.l2 >= 20 && g.l3 >= 1030);
        // Outside any measurement the thread's scope is empty again.
        assert!(scope().0.is_empty());
    }

    #[test]
    fn bytes_counters_accumulate() {
        let before = bytes_snapshot();
        add_bytes(Level::L3, 100);
        add_bytes(Level::L2, 40);
        let d = bytes_snapshot().since(&before);
        assert!(d.l3 >= 100 && d.l2 >= 40);
        assert!(d.total() >= 140);
        assert_eq!(intensity(200, 100), 2.0);
        assert_eq!(intensity(5, 0), 0.0);
    }

    #[test]
    fn memory_bound_fraction_bounds() {
        let c = FlopCounts {
            l1: 1,
            l2: 1,
            l3: 2,
        };
        assert!((c.memory_bound_fraction() - 0.5).abs() < 1e-15);
        assert_eq!(FlopCounts::default().memory_bound_fraction(), 0.0);
    }
}
