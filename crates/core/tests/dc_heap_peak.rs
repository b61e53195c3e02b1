//! Heap peak of a warm planned divide & conquer solve.
//!
//! The default solve (D&C with vectors, full spectrum) keeps every
//! `n x n`-class buffer of its merges in the [`SolvePlan`]: the `V`
//! matrices in the dead stage-1 working copy, the eigenvectors in the
//! result slot, the row panels in the plan's D&C workspace. So on a warm
//! plan the live heap may grow by no more than the D&C workspace
//! requirement plus the GEMM pack buffers of the workers (a fresh worker
//! thread packs into its own thread-local buffers). A merge that mints
//! its own `n x n` buffers (the block-diagonal `Q`, the product, the
//! sorted output) grows it by several `n^2`.
//!
//! A tracking `#[global_allocator]` keeps the live byte count and its
//! peak. Everything lives in ONE test function: a second `#[test]` would
//! run on a sibling thread and its allocations would count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tseig_core::{SolvePlan, SymmetricEigen};
use tseig_kernels::blas3::engine::pack_req;
use tseig_matrix::gen;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System`; the counters are lock-free
// atomics and touch no allocator state.
// tidy: allow(unsafe-allowlist) -- test-only tracking allocator
unsafe impl GlobalAlloc for PeakAlloc {
    // tidy: allow(unsafe-allowlist) -- GlobalAlloc methods are unsafe fns
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // tidy: allow(unsafe-allowlist) -- delegates to System with the caller's layout
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // tidy: allow(unsafe-allowlist) -- GlobalAlloc methods are unsafe fns
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // tidy: allow(unsafe-allowlist) -- delegates to System with the caller's layout
        unsafe { System.dealloc(ptr, layout) }
    }

    // tidy: allow(unsafe-allowlist) -- GlobalAlloc methods are unsafe fns
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // tidy: allow(unsafe-allowlist) -- delegates to System with the caller's layout
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[test]
fn warm_dc_solve_grows_the_heap_by_its_workspace_at_most() {
    // A dense random matrix: its tridiagonal deflates little, so the top
    // merges keep nearly all n columns (a Laplacian deflates most of
    // them and would hide the cost).
    let n = 512;
    let a = gen::random_symmetric(n, 2026);
    // The serial scheduler keeps stage 1, the chase and the
    // back-transform allocation-free on a warm plan, so the D&C is what
    // is measured.
    let eigen = SymmetricEigen::new().nb(16);
    let mut plan = SolvePlan::new();
    eigen.solve_into(&a, &mut plan).unwrap();
    let warm = plan.eigenvectors().unwrap().clone();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    eigen.solve_into(&a, &mut plan).unwrap();
    let growth = PEAK.load(Ordering::SeqCst).saturating_sub(before);

    let workers = rayon::current_num_threads() + 1;
    let allowance = tseig_tridiag::dandc::stedc_req(n).total_bytes()
        + workers * pack_req::<f64>(n, n, n).total_bytes();
    let mib = |b: usize| b as f64 / (1u64 << 20) as f64;
    assert!(
        growth <= allowance,
        "a warm D&C solve grew the heap by {:.2} MiB ({:.1} n^2 f64s); \
         the workspace and the pack buffers account for {:.2} MiB",
        mib(growth),
        growth as f64 / (8 * n * n) as f64,
        mib(allowance),
    );
    assert!(plan.diagnostics().is_clean());
    assert_eq!(plan.eigenvectors().unwrap().as_slice(), warm.as_slice());
    println!(
        "growth {:.2} MiB, allowance {:.2} MiB",
        mib(growth),
        mib(allowance)
    );
}
