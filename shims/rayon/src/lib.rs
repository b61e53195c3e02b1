//! Std-backed shim for the subset of rayon used by this workspace.
//!
//! The build environment has no crates.io access, so this crate
//! reimplements — on `std::thread::scope` — exactly the surface the
//! eigensolver needs: `join`, `current_num_threads`, and eager parallel
//! iterators over ranges, vectors, slice windows and mutable slice
//! chunks. Work is distributed dynamically: worker threads pull items
//! off a shared queue, so unequal per-item cost (triangular column
//! panels, ragged tails) still balances.
//!
//! A global thread budget (`RAYON_NUM_THREADS` or the machine's
//! available parallelism) bounds the *total* number of live workers
//! across nested calls, so recursive `join` (divide and conquer) cannot
//! fork an unbounded thread tree.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Number of threads parallel calls may use in total: the
/// `RAYON_NUM_THREADS` environment variable if set and positive,
/// otherwise the machine's available parallelism.
pub fn current_num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Live workers across all nested parallel calls (the caller's thread
/// counts as one).
static ACTIVE: AtomicUsize = AtomicUsize::new(1);

/// RAII claim on extra worker threads from the global budget.
struct ThreadClaim(usize);

impl ThreadClaim {
    /// Claim up to `want` extra threads, possibly zero.
    fn take(want: usize) -> ThreadClaim {
        let limit = current_num_threads();
        let mut granted = 0;
        while granted < want {
            let cur = ACTIVE.load(Ordering::Relaxed);
            if cur >= limit {
                break;
            }
            if ACTIVE
                .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                granted += 1;
            }
        }
        ThreadClaim(granted)
    }
}

impl Drop for ThreadClaim {
    fn drop(&mut self) {
        if self.0 > 0 {
            ACTIVE.fetch_sub(self.0, Ordering::Relaxed);
        }
    }
}

/// Run both closures, potentially in parallel, and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let claim = ThreadClaim::take(1);
    if claim.0 == 0 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (ra, rb)
    })
}

/// Dynamic parallel map over owned items, preserving order.
fn drive<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let claim = ThreadClaim::take((n - 1).min(current_num_threads().saturating_sub(1)));
    if claim.0 == 0 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let results = Mutex::new(Vec::with_capacity(n));
    let worker = || loop {
        let next = queue.lock().unwrap().next();
        let Some((i, item)) = next else { break };
        let r = f(item);
        results.lock().unwrap().push((i, r));
    };
    std::thread::scope(|s| {
        for _ in 0..claim.0 {
            s.spawn(worker);
        }
        worker();
    });
    let mut pairs = results.into_inner().unwrap();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// An eager parallel iterator: the item list is materialized up front
/// and consumed by `map`/`for_each` with dynamic load balancing.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        drive(self.items, f);
    }

    pub fn map<R, F>(self, f: F) -> MapParIter<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        MapParIter {
            items: self.items,
            f,
        }
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// A mapped parallel iterator; the map runs when it is consumed.
pub struct MapParIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, F, R> MapParIter<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        drive(self.items, self.f).into_iter().collect()
    }

    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let f = self.f;
        drive(self.items, move |item| g(f(item)));
    }
}

/// Owned-collection / range entry point (`into_par_iter`).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Shared-slice views (`par_windows`).
pub trait ParallelSlice<T: Sync> {
    fn par_windows(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_windows(&self, size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.windows(size).collect(),
        }
    }
}

/// Mutable-slice views (`par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]> {
        assert!(chunk > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_disjoint() {
        let mut v = vec![0u64; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(p, c)| {
            for x in c {
                *x = p as u64;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, (i / 10) as u64);
        }
    }

    #[test]
    fn windows_map() {
        let b = [0usize, 3, 7, 10];
        let spans: Vec<usize> = b.par_windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(spans, vec![3, 4, 3]);
    }

    #[test]
    fn nested_join_bounded() {
        fn rec(d: usize) -> usize {
            if d == 0 {
                return 1;
            }
            let (a, b) = join(|| rec(d - 1), || rec(d - 1));
            a + b
        }
        assert_eq!(rec(10), 1024);
    }
}
