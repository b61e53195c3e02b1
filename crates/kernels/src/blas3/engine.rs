//! The element-type-generic packed GEMM engine.
//!
//! This module is the one copy of the BLIS-style packed loop nest the
//! whole project runs on, generic over [`Scalar`]: the `f64` entry
//! points in [`super`] monomorphize it with the dispatched SIMD
//! microkernel (bitwise identical to the pre-generic engine — the
//! differential dispatch suite pins that), the Hermitian pipeline
//! monomorphizes it (and the structured Level-3, Householder and
//! Cholesky kernels built on it) at [`C64`]/[`C32`], and the
//! single-precision real path at `f32` — each type behind its own
//! runtime-dispatched microkernel table in [`super::simd`].
//!
//! ## Conjugation lives in the pack, not the loop
//!
//! The operand op vocabulary is [`Op`] (`No` / `Trans` / `ConjTrans`).
//! `ConjTrans` is folded into the O(n²) packing gather — the packed
//! strip simply holds conjugated values — so the O(n³) microkernel loop
//! is identical for all nine op combinations, exactly the way the
//! transpose itself has always been absorbed by packing. For `f64`,
//! `Scalar::conj` is the identity and `ConjTrans` degenerates to
//! `Trans`.
//!
//! ## Per-type plumbing: [`GemmScalar`]
//!
//! Two things cannot be written generically: the `thread_local!`
//! grow-only pack buffers (a thread-local cannot be generic) and the
//! default microkernel for the type. [`GemmScalar`] supplies both; it
//! is implemented for exactly the four element types of the project
//! (`f32` / `f64` / `C32` / `C64`). Every impl routes the kernel choice
//! to its type's [`SimdScalar`] dispatch table and owns a per-thread
//! buffer pair, so mixed-type call sequences on one thread never thrash
//! one arena.
//!
//! ## Byte-traffic model
//!
//! [`packed_bytes`] charges the packed-engine model — each operand is
//! packed once per cache block that revisits it (`A` once per `jc`
//! panel, `B` once), `C` is read+written once per rank-`KC` update —
//! weighted by `T::BYTES`. This is the same model the `f64` counters
//! have used since the packed engine landed, shared by every element
//! type so arithmetic-intensity reports stay comparable between the
//! real and complex columns.

use super::simd::{MicroKernel, SimdScalar};
use super::{Op, KC};
use crate::contract;
use crate::flops::{add, add_bytes, Level};
use rayon::prelude::*;
use std::cell::RefCell;
use tseig_matrix::{ComplexScalar, Scalar, C32, C64};

/// Element type the packed engine can drive end to end: a [`Scalar`]
/// with the [`ComplexScalar`] component surface (which the Householder,
/// QR and Cholesky kernels built on the engine use), plus the two
/// per-type singletons the generic code cannot own — the default
/// register tile and the per-thread pack-buffer pair.
pub trait GemmScalar: SimdScalar + ComplexScalar {
    /// The microkernel the public entry points dispatch to: the type's
    /// runtime-selected SIMD tile.
    fn kernel() -> &'static MicroKernel<Self>;

    /// Run `f` with this thread's grow-only `(packed A, packed B)`
    /// buffers; reused across the whole `jc`/`pc`/`ic` nest and across
    /// calls, keeping the allocator out of the hot loop.
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<Self>) -> R) -> R;
}

thread_local! {
    /// Per-thread `f64` `(packed A, packed B)` buffers. Grow on demand;
    /// a bounded shrink at the top of each nest (see
    /// [`shrink_pack_buf`]) keeps long-lived pool threads from retaining
    /// one historical peak forever.
    static PACK_BUFS_F64: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Per-thread `C64` pack buffers (separate so mixed real/complex
    /// call sequences on one thread never thrash one arena).
    static PACK_BUFS_C64: RefCell<(Vec<C64>, Vec<C64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Per-thread `f32` pack buffers.
    static PACK_BUFS_F32: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Per-thread `C32` pack buffers.
    static PACK_BUFS_C32: RefCell<(Vec<C32>, Vec<C32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Shrink once the retained capacity exceeds this multiple of what the
/// current nest needs. Hysteresis: a steady stream of same-sized GEMMs
/// never triggers it, so the zero-allocation hot path stays warm.
const PACK_SHRINK_FACTOR: usize = 4;

/// Never bother shrinking below this footprint — churn on kilobyte-sized
/// buffers costs more than it frees.
const PACK_SHRINK_MIN_BYTES: usize = 1 << 20;

/// Bounded-retention policy for a per-thread pack buffer: if the buffer
/// holds more than [`PACK_SHRINK_FACTOR`]x what this whole nest can use
/// and that excess is above [`PACK_SHRINK_MIN_BYTES`], release the
/// excess. Called once per nest with the nest's *maximum* block need, so
/// ragged tail blocks inside a nest can never cause grow/shrink thrash.
fn shrink_pack_buf<T: Scalar>(buf: &mut Vec<T>, need: usize) {
    let bytes = buf.capacity().saturating_mul(std::mem::size_of::<T>());
    if bytes > PACK_SHRINK_MIN_BYTES && buf.capacity() > PACK_SHRINK_FACTOR * need {
        buf.truncate(need);
        buf.shrink_to(need.max(1));
    }
}

/// Bytes of pack-buffer capacity retained by *this thread* for `f64`
/// nests. Footprint introspection for tests and services watching
/// long-lived workers.
pub fn pack_footprint_bytes_f64() -> usize {
    PACK_BUFS_F64.with(|bufs| {
        let (ap, bp) = &*bufs.borrow();
        (ap.capacity() + bp.capacity()) * std::mem::size_of::<f64>()
    })
}

/// Bytes of pack-buffer capacity retained by *this thread* for `C64`
/// nests.
pub fn pack_footprint_bytes_c64() -> usize {
    PACK_BUFS_C64.with(|bufs| {
        let (ap, bp) = &*bufs.borrow();
        (ap.capacity() + bp.capacity()) * std::mem::size_of::<C64>()
    })
}

/// Bytes of pack-buffer capacity retained by *this thread* for `f32`
/// nests.
pub fn pack_footprint_bytes_f32() -> usize {
    PACK_BUFS_F32.with(|bufs| {
        let (ap, bp) = &*bufs.borrow();
        (ap.capacity() + bp.capacity()) * std::mem::size_of::<f32>()
    })
}

/// Bytes of pack-buffer capacity retained by *this thread* for `C32`
/// nests.
pub fn pack_footprint_bytes_c32() -> usize {
    PACK_BUFS_C32.with(|bufs| {
        let (ap, bp) = &*bufs.borrow();
        (ap.capacity() + bp.capacity()) * std::mem::size_of::<C32>()
    })
}

/// Pack-buffer requirement of one `m x n x k` nest for element type `T`
/// (both strips summed): what [`gemm_into_with`] will retain after a
/// warm-up call of this shape.
pub fn pack_req<T: GemmScalar>(m: usize, n: usize, k: usize) -> tseig_matrix::MemReq {
    let kern = T::kernel();
    let kc = KC.min(k.max(1));
    let a_need = kern.mc.min(m.max(1)).div_ceil(kern.mr) * kern.mr * kc;
    let b_need = kern.nc.min(n.max(1)).div_ceil(kern.nr) * kern.nr * kc;
    tseig_matrix::MemReq::of::<T>(a_need + b_need)
}

impl GemmScalar for f64 {
    #[inline]
    fn kernel() -> &'static MicroKernel<f64> {
        super::simd::selected()
    }

    #[inline]
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
        PACK_BUFS_F64.with(|bufs| {
            let (ap, bp) = &mut *bufs.borrow_mut();
            f(ap, bp)
        })
    }
}

impl GemmScalar for C64 {
    #[inline]
    fn kernel() -> &'static MicroKernel<C64> {
        <C64 as SimdScalar>::selected()
    }

    #[inline]
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<C64>, &mut Vec<C64>) -> R) -> R {
        PACK_BUFS_C64.with(|bufs| {
            let (ap, bp) = &mut *bufs.borrow_mut();
            f(ap, bp)
        })
    }
}

impl GemmScalar for f32 {
    #[inline]
    fn kernel() -> &'static MicroKernel<f32> {
        <f32 as SimdScalar>::selected()
    }

    #[inline]
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
        PACK_BUFS_F32.with(|bufs| {
            let (ap, bp) = &mut *bufs.borrow_mut();
            f(ap, bp)
        })
    }
}

impl GemmScalar for C32 {
    #[inline]
    fn kernel() -> &'static MicroKernel<C32> {
        <C32 as SimdScalar>::selected()
    }

    #[inline]
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<C32>, &mut Vec<C32>) -> R) -> R {
        PACK_BUFS_C32.with(|bufs| {
            let (ap, bp) = &mut *bufs.borrow_mut();
            f(ap, bp)
        })
    }
}

/// Stored dimensions `(rows, cols)` of the operand behind `op(X)` when
/// `op(X)` is `rows_of_op x cols_of_op`.
pub(crate) fn op_dims(op: Op, rows_of_op: usize, cols_of_op: usize) -> (usize, usize) {
    match op {
        Op::No => (rows_of_op, cols_of_op),
        Op::Trans | Op::ConjTrans => (cols_of_op, rows_of_op),
    }
}

/// Entry contract shared by the generic `gemm`-shaped entry points
/// (mirror of the `f64` contract in [`super`], on the [`Op`]
/// vocabulary).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_contract<T: Scalar>(
    kernel: &str,
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &[T],
    ldc: usize,
) {
    if !contract::enabled() {
        return;
    }
    let (ar, ac) = op_dims(opa, m, k);
    let (br, bc) = op_dims(opb, k, n);
    contract::require_mat(kernel, "a", a, ar, ac, lda);
    contract::require_mat(kernel, "b", b, br, bc, ldb);
    contract::require_mat(kernel, "c", c, m, n, ldc);
    contract::require_no_alias(kernel, "a", a, "c", c);
    contract::require_no_alias(kernel, "b", b, "c", c);
    contract::require_finite_mat(kernel, "a", a, ar, ac, lda);
    contract::require_finite_mat(kernel, "b", b, br, bc, ldb);
}

/// Estimated memory traffic of one packed `gemm` call, in bytes, on the
/// packed-engine model: `A` is packed once per `jc` panel (read +
/// write), `B` once in total, and `C` is read+written once per
/// rank-`KC` update. `nc` is the column-panel width of the kernel that
/// will run the nest.
pub fn packed_bytes<T: Scalar>(nc: usize, m: usize, n: usize, k: usize) -> u64 {
    let njc = n.div_ceil(nc.max(1)).max(1) as u64;
    let npc = k.div_ceil(KC).max(1) as u64;
    let (m, n, k) = (m as u64, n as u64, k as u64);
    T::BYTES * (2 * m * k * njc + 2 * k * n + 2 * m * n * npc)
}

/// `C <- alpha op(A) op(B) + beta C` on the packed engine, serial.
///
/// `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`; all
/// column-major with the given leading dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: GemmScalar>(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let kern = T::kernel();
    gemm_contract("engine::gemm", opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, packed_bytes::<T>(kern.nc, m, n, k));
    scale_c(beta, m, n, c, ldc);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_into_with(kern, opa, opb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// [`gemm`] forced through a specific dispatch path — the generic
/// counterpart of the `f64` `blas3::gemm_with_kernel`, and the public
/// entry for differential tests and benches that compare ISA paths of
/// one element type in a single process. Production code goes through
/// [`gemm`], which picks `T::kernel()`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_kernel<T: GemmScalar>(
    kern: &MicroKernel<T>,
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    gemm_contract("engine::gemm", opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, packed_bytes::<T>(kern.nc, m, n, k));
    scale_c(beta, m, n, c, ldc);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_into_with(kern, opa, opb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Parallel [`gemm`]: the same packed nest behind the same two rayon
/// splits as the `f64` `gemm_par` (disjoint `jc` column panels when the
/// problem is wide, private-accumulator `ic` row blocks when tall and
/// narrow), falling back to the serial nest when the fork/join overhead
/// would dominate.
#[allow(clippy::too_many_arguments)]
pub fn gemm_par<T: GemmScalar>(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let work = m.saturating_mul(n).saturating_mul(k);
    let threads = rayon::current_num_threads();
    if work < 64 * 64 * 64 || threads == 1 {
        gemm(opa, opb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    gemm_contract(
        "engine::gemm_par",
        opa,
        opb,
        m,
        n,
        k,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
    );
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, packed_bytes::<T>(T::kernel().nc, m, n, k));
    if alpha == T::ZERO || k == 0 {
        scale_c(beta, m, n, c, ldc);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    par_nest(
        T::kernel(),
        threads,
        opa,
        opb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// Naive triple-loop `gemm` — the **test oracle and bench baseline**
/// the packed engine is differential-tested and speedup-measured
/// against. Not called by any solver. Byte accounting keeps the
/// streamed model its unblocked access pattern actually has (`A`/`B`
/// read once, `C` read and written once).
#[allow(clippy::too_many_arguments)]
pub fn zgemm_oracle<T: Scalar>(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, T::BYTES * (m * k + k * n + 2 * m * n) as u64);
    scale_c(beta, m, n, c, ldc);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    let at = |i: usize, p: usize| match opa {
        Op::No => a[i + p * lda],
        Op::Trans => a[p + i * lda],
        Op::ConjTrans => a[p + i * lda].conj(),
    };
    let bt = |p: usize, j: usize| match opb {
        Op::No => b[p + j * ldb],
        Op::Trans => b[j + p * ldb],
        Op::ConjTrans => b[j + p * ldb].conj(),
    };
    for j in 0..n {
        for i in 0..m {
            let mut s = T::ZERO;
            for p in 0..k {
                s += at(i, p) * bt(p, j);
            }
            c[i + j * ldc] += alpha * s;
        }
    }
}

/// The two-way parallel split over the packed nest: no contracts, no
/// counters, and the caller has already rejected the degenerate shapes
/// (`alpha == 0`, any zero dimension). Shared verbatim by the `f64`
/// `gemm_par` wrapper in [`super`] and the generic [`gemm_par`] here —
/// the panel arithmetic is element-type independent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_nest<T: GemmScalar>(
    kern: &'static MicroKernel<T>,
    threads: usize,
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let threads = threads.max(1);
    let (mr, nr) = (kern.mr, kern.nr);
    if n >= 2 * nr * threads || m < 2 * mr * threads {
        // Column-panel split of the jc loop: two NR-aligned panels per
        // worker (NR = the dispatched tile width); panels are disjoint
        // column ranges of C, data-race free by construction.
        let jb = n
            .div_ceil(2 * threads)
            .next_multiple_of(nr)
            .max(nr)
            .min(n.max(1));
        c[..(n - 1) * ldc + m]
            .par_chunks_mut(jb * ldc)
            .enumerate()
            .for_each(|(p, cpanel)| {
                let j0 = p * jb;
                let jn = jb.min(n - j0);
                // Panel disjointness invariants: every worker's column
                // range starts on an NR boundary and stays inside C.
                debug_assert_eq!(j0 % nr, 0, "jc panel start not NR-aligned");
                debug_assert!(j0 < n && jn > 0, "empty jc panel scheduled");
                debug_assert!(
                    cpanel.len() >= (jn - 1) * ldc + m,
                    "jc panel does not cover its {jn} columns of C"
                );
                let bsub = match opb {
                    Op::No => &b[j0 * ldb..],
                    Op::Trans | Op::ConjTrans => &b[j0..],
                };
                scale_c(beta, m, jn, cpanel, ldc);
                gemm_into_with(
                    kern, opa, opb, m, jn, k, alpha, a, lda, bsub, ldb, cpanel, ldc,
                );
            });
    } else {
        // Row-block split of the ic loop: C's rows are strided slices
        // that cannot be handed out as disjoint `&mut`, so each worker
        // computes its MR-aligned row block into a private buffer;
        // the (cheap, O(mn)) reduction adds them back serially.
        let ib = m
            .div_ceil(2 * threads)
            .next_multiple_of(mr)
            .max(mr)
            .min(m.max(1));
        let blocks: Vec<usize> = (0..m.div_ceil(ib)).collect();
        let partials: Vec<(usize, usize, Vec<T>)> = blocks
            .into_par_iter()
            .map(|p| {
                let i0 = p * ib;
                let mb = ib.min(m - i0);
                // Block disjointness invariants: every worker's row range
                // starts on an MR boundary and stays inside C.
                debug_assert_eq!(i0 % mr, 0, "ic block start not MR-aligned");
                debug_assert!(i0 < m && mb > 0, "empty ic block scheduled");
                let asub = match opa {
                    Op::No => &a[i0..],
                    Op::Trans | Op::ConjTrans => &a[i0 * lda..],
                };
                let mut pbuf = vec![T::ZERO; mb * n];
                gemm_into_with(
                    kern, opa, opb, mb, n, k, alpha, asub, lda, b, ldb, &mut pbuf, mb,
                );
                (i0, mb, pbuf)
            })
            .collect();
        scale_c(beta, m, n, c, ldc);
        for (i0, mb, pbuf) in partials {
            for j in 0..n {
                let src = &pbuf[j * mb..(j + 1) * mb];
                let dst = &mut c[i0 + j * ldc..][..mb];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += *s;
                }
            }
        }
    }
}

/// The packed loop nest: `C += alpha op(A) op(B)`, no scaling, no flop
/// accounting, on an explicit microkernel — the cache blocking and the
/// packing formats follow the kernel's `(MR, NR)` shape.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_into_with<T: GemmScalar>(
    kern: &MicroKernel<T>,
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    T::with_pack_bufs(|ap, bp| {
        // Bounded retention (once per nest, against the nest's maximum
        // block shapes): a worker that ran one huge solve must not pin
        // peak-sized pack buffers for the rest of its life.
        let kc_max = KC.min(k);
        shrink_pack_buf(ap, kern.mc.min(m).div_ceil(kern.mr) * kern.mr * kc_max);
        shrink_pack_buf(bp, kern.nc.min(n).div_ceil(kern.nr) * kern.nr * kc_max);
        let mut jc = 0;
        while jc < n {
            let nc = kern.nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                pack_b(opb, b, ldb, pc, jc, kc, nc, kern.nr, bp);
                let mut ic = 0;
                while ic < m {
                    let mc = kern.mc.min(m - ic);
                    pack_a(opa, a, lda, ic, pc, mc, kc, kern.mr, ap);
                    macrokernel(kern, mc, nc, kc, alpha, ap, bp, ic, jc, c, ldc);
                    ic += mc;
                }
                pc += kc;
            }
            jc += nc;
        }
    });
}

/// All `MR x NR` tiles of one `(ic, jc, pc)` block: `jr` outer over `B`
/// strips, `ir` inner over `A` strips, so the whole packed `A` panel
/// (L2-resident) is swept once per `B` strip (L1-resident).
#[allow(clippy::too_many_arguments)]
fn macrokernel<T: 'static + Copy>(
    kern: &MicroKernel<T>,
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: T,
    ap: &[T],
    bp: &[T],
    ic: usize,
    jc: usize,
    c: &mut [T],
    ldc: usize,
) {
    let (mr, nr) = (kern.mr, kern.nr);
    let mstrips = mc.div_ceil(mr);
    let nstrips = nc.div_ceil(nr);
    for t in 0..nstrips {
        let nr_eff = nr.min(nc - t * nr);
        let bstrip = &bp[t * nr * kc..(t + 1) * nr * kc];
        for s in 0..mstrips {
            let mr_eff = mr.min(mc - s * mr);
            let astrip = &ap[s * mr * kc..(s + 1) * mr * kc];
            let off = (ic + s * mr) + (jc + t * nr) * ldc;
            kern.run(
                kc,
                alpha,
                astrip,
                bstrip,
                &mut c[off..],
                ldc,
                mr_eff,
                nr_eff,
            );
        }
    }
}

/// Pack `op(A)[ic..ic+mc, pc..pc+kc]` into `mr`-row strips: element
/// `(i, p)` of strip `s` lands at `buf[s*mr*kc + p*mr + i]`, short edge
/// strips zero-padded to `mr` rows. `No`: strip columns are contiguous
/// column segments of `A`. `Trans`/`ConjTrans`: strip rows are
/// contiguous column segments of `A` — the transpose is absorbed here,
/// in O(mk) work, and `ConjTrans` additionally conjugates each gathered
/// value so the microkernel never sees a conjugation.
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Scalar>(
    opa: Op,
    a: &[T],
    lda: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    buf: &mut Vec<T>,
) {
    let strips = mc.div_ceil(mr);
    let need = strips * mr * kc;
    if buf.len() < need {
        buf.resize(need, T::ZERO);
    }
    for s in 0..strips {
        let r0 = s * mr;
        let rows = mr.min(mc - r0);
        let dst = &mut buf[s * mr * kc..(s + 1) * mr * kc];
        match opa {
            Op::No => {
                for p in 0..kc {
                    let src = &a[ic + r0 + (pc + p) * lda..][..rows];
                    let d = &mut dst[p * mr..p * mr + mr];
                    d[..rows].copy_from_slice(src);
                    if rows < mr {
                        d[rows..].fill(T::ZERO);
                    }
                }
            }
            Op::Trans => {
                for i in 0..rows {
                    let src = &a[pc + (ic + r0 + i) * lda..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        dst[p * mr + i] = v;
                    }
                }
                if rows < mr {
                    for p in 0..kc {
                        dst[p * mr + rows..(p + 1) * mr].fill(T::ZERO);
                    }
                }
            }
            Op::ConjTrans => {
                for i in 0..rows {
                    let src = &a[pc + (ic + r0 + i) * lda..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        dst[p * mr + i] = v.conj();
                    }
                }
                if rows < mr {
                    for p in 0..kc {
                        dst[p * mr + rows..(p + 1) * mr].fill(T::ZERO);
                    }
                }
            }
        }
    }
}

/// Pack `op(B)[pc..pc+kc, jc..jc+nc]` into `nr`-column strips: element
/// `(p, j)` of strip `t` lands at `buf[t*nr*kc + p*nr + j]`, short edge
/// strips zero-padded to `nr` columns. As with [`pack_a`], `ConjTrans`
/// conjugates during the gather.
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Scalar>(
    opb: Op,
    b: &[T],
    ldb: usize,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    nr: usize,
    buf: &mut Vec<T>,
) {
    let strips = nc.div_ceil(nr);
    let need = strips * nr * kc;
    if buf.len() < need {
        buf.resize(need, T::ZERO);
    }
    for t in 0..strips {
        let c0 = t * nr;
        let cols = nr.min(nc - c0);
        let dst = &mut buf[t * nr * kc..(t + 1) * nr * kc];
        match opb {
            Op::No => {
                for j in 0..cols {
                    let src = &b[pc + (jc + c0 + j) * ldb..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        dst[p * nr + j] = v;
                    }
                }
                if cols < nr {
                    for p in 0..kc {
                        dst[p * nr + cols..(p + 1) * nr].fill(T::ZERO);
                    }
                }
            }
            Op::Trans => {
                for p in 0..kc {
                    let src = &b[jc + c0 + (pc + p) * ldb..][..cols];
                    let d = &mut dst[p * nr..p * nr + nr];
                    d[..cols].copy_from_slice(src);
                    if cols < nr {
                        d[cols..].fill(T::ZERO);
                    }
                }
            }
            Op::ConjTrans => {
                for p in 0..kc {
                    let src = &b[jc + c0 + (pc + p) * ldb..][..cols];
                    let d = &mut dst[p * nr..p * nr + nr];
                    for (j, &v) in src.iter().enumerate() {
                        d[j] = v.conj();
                    }
                    if cols < nr {
                        d[cols..].fill(T::ZERO);
                    }
                }
            }
        }
    }
}

/// `C <- beta C` on the addressed `m x n` region; `beta == 1` is a
/// no-op and `beta == 0` overwrites (so `C` may start uninitialized).
pub(crate) fn scale_c<T: Scalar>(beta: T, m: usize, n: usize, c: &mut [T], ldc: usize) {
    if beta == T::ONE {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::c64;

    fn cval(i: usize) -> C64 {
        c64((i % 13) as f64 - 6.0, ((i * 7) % 11) as f64 - 5.0)
    }

    #[test]
    fn complex_gemm_matches_oracle_all_ops() {
        let (m, n, k) = (13, 9, 21);
        let (lda, ldb, ldc) = (m.max(k) + 2, k.max(n) + 1, m + 3);
        let a: Vec<C64> = (0..lda * (m.max(k) + 2)).map(cval).collect();
        let b: Vec<C64> = (0..ldb * (k.max(n) + 2)).map(|i| cval(i + 5)).collect();
        let alpha = c64(1.25, -0.5);
        let beta = c64(0.75, 0.25);
        for opa in [Op::No, Op::Trans, Op::ConjTrans] {
            for opb in [Op::No, Op::Trans, Op::ConjTrans] {
                let c0: Vec<C64> = (0..ldc * n).map(|i| cval(i + 11)).collect();
                let mut want = c0.clone();
                zgemm_oracle(
                    opa, opb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc,
                );
                for entry in [gemm::<C64>, gemm_par::<C64>] {
                    let mut c = c0.clone();
                    entry(
                        opa, opb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc,
                    );
                    for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
                        assert!(
                            (got - w).abs() <= 1e-10 * (1.0 + w.abs()),
                            "{opa:?}/{opb:?} idx {i}: {got:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn complex_gemm_par_matches_serial() {
        let (m, n, k) = (70, 65, 300); // k straddles KC = 256
        let ld = m.max(n).max(k) + 1;
        let a: Vec<C64> = (0..ld * ld).map(cval).collect();
        let b: Vec<C64> = (0..ld * ld).map(|i| cval(i + 3)).collect();
        let mut c1 = vec![C64::ZERO; m * n];
        let mut c2 = vec![C64::ZERO; m * n];
        gemm(
            Op::ConjTrans,
            Op::No,
            m,
            n,
            k,
            C64::ONE,
            &a,
            ld,
            &b,
            ld,
            C64::ZERO,
            &mut c1,
            m,
        );
        gemm_par(
            Op::ConjTrans,
            Op::No,
            m,
            n,
            k,
            C64::ONE,
            &a,
            ld,
            &b,
            ld,
            C64::ZERO,
            &mut c2,
            m,
        );
        // Both run the same packed nest over the same KC split; the
        // parallel split only partitions C, so results are identical.
        assert_eq!(c1, c2);
    }

    #[test]
    fn f64_engine_path_matches_f64_public_gemm_bitwise() {
        // The generic engine monomorphized at f64 must be the very same
        // computation as the historical f64 entry point.
        let (m, n, k) = (37, 29, 300);
        let ld = 40usize.max(k) + 1;
        let a: Vec<f64> = (0..ld * ld).map(|i| (i % 17) as f64 - 8.0).collect();
        let b: Vec<f64> = (0..ld * ld).map(|i| (i % 19) as f64 - 9.0).collect();
        let mut c1 = vec![0.25f64; m * n];
        let mut c2 = c1.clone();
        super::super::gemm(
            super::super::Trans::Yes,
            super::super::Trans::No,
            m,
            n,
            k,
            1.5,
            &a,
            ld,
            &b,
            ld,
            0.5,
            &mut c1,
            m,
        );
        gemm(
            Op::Trans,
            Op::No,
            m,
            n,
            k,
            1.5,
            &a,
            ld,
            &b,
            ld,
            0.5,
            &mut c2,
            m,
        );
        assert_eq!(c1, c2);
    }

    #[test]
    fn conj_in_pack_is_identity_for_f64() {
        // For f64, ConjTrans must be exactly Trans (conj is identity).
        let (m, n, k) = (11, 7, 5);
        let a: Vec<f64> = (0..k * m).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n * k).map(|i| (i as f64).sin()).collect();
        let mut c1 = vec![0.0f64; m * n];
        let mut c2 = vec![0.0f64; m * n];
        gemm(
            Op::Trans,
            Op::ConjTrans,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c1,
            m,
        );
        gemm(
            Op::ConjTrans,
            Op::Trans,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c2,
            m,
        );
        assert_eq!(c1, c2);
    }
}
