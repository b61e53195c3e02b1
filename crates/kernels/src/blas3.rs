//! Level-3 BLAS: cache-blocked, compute-bound matrix-matrix kernels.
//!
//! `gemm` is the kernel whose execution rate is the `alpha` parameter of
//! the paper's performance model (Table 3); everything the two-stage
//! pipeline gains comes from recasting `symv` work into these kernels.
//!
//! ## The packed loop nest
//!
//! [`gemm`] is organized BLIS-style around *packed* panels:
//!
//! ```text
//! for jc in 0..n step NC            // B panel picks its L3 slice
//!   for pc in 0..k step KC          // rank-KC update
//!     pack op(B)[pc.., jc..]  ->  Bp   (KC x NC, NR-column strips)
//!     for ic in 0..m step MC        // A panel sized for L2
//!       pack op(A)[ic.., pc..] ->  Ap   (MC x KC, MR-row strips)
//!       for jr, ir:  microkernel(Ap strip, Bp strip)  // MR x NR tile
//! ```
//!
//! Packing copies each operand once per cache block into contiguous,
//! zero-padded micro-panels, so the microkernel always streams unit-stride
//! memory regardless of `lda`/`ldb` *and* of the transpose flags — all
//! four of `NN`/`NT`/`TN`/`TT` share this one fast path; the transpose
//! only changes the gather pattern of the (O(n^2)) pack, never the
//! (O(n^3)) compute loop. Zero-padding the edge strips to full `MR`/`NR`
//! removes every edge case from the microkernel.
//!
//! The packing buffers are per-thread and grow-only (`thread_local`), so
//! they are reused across the whole `jc`/`pc`/`ic` nest and across calls
//! from the same thread — the allocator stays out of the hot loop.
//!
//! [`gemm_par`] parallelizes the packed nest itself: over `jc` column
//! panels when `n` is wide enough (each worker packs its own panels into
//! its thread-local buffers and owns a disjoint column range of `C`), and
//! over `ic` row blocks with private accumulators when the problem is
//! tall and narrow.
//!
//! The seed's unpacked kernel is kept as [`gemm_unpacked`] — it is the
//! baseline the `table2_kernels` bench compares the packed path against.
//!
//! ## Microkernel dispatch
//!
//! The register tile itself lives in [`simd`]: explicit AVX-512 (24x8)
//! and AVX2+FMA (4x12) `std::arch` kernels plus a portable scalar 16x4
//! fallback, selected once at first call (`TSEIG_SIMD` overrides for
//! testing/benchmarking). The packing formats are parameterized by the
//! selected `(MR, NR)`, so this file's macrokernel loop is shared by
//! every ISA path.

pub mod blocking;
pub mod engine;
pub mod simd;

use crate::contract;
use crate::flops::{add, add_bytes, Level};
use engine::GemmScalar;
use rayon::prelude::*;
use simd::MicroKernel;
use tseig_matrix::{ComplexScalar, Scalar};

/// Transpose flag, LAPACK-style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the transpose.
    Yes,
}

/// Operand op of the element-type-generic engine: the *one* shared
/// transpose/conjugate vocabulary of the project. The real pipeline's
/// LAPACK-style [`Trans`] maps into it losslessly (`conj` is the
/// identity on `f64`, so `Trans::Yes` ≡ `Op::Trans` ≡ `Op::ConjTrans`
/// there); the Hermitian pipeline re-exports this enum as its operand
/// op so both stacks speak the same dialect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    No,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose (`X^H`); folded into the pack step,
    /// so it costs nothing in the O(n³) loop.
    ConjTrans,
}

impl From<Trans> for Op {
    #[inline]
    fn from(t: Trans) -> Op {
        match t {
            Trans::No => Op::No,
            Trans::Yes => Op::Trans,
        }
    }
}

impl Op {
    /// The op `trans` stands for at element type `T`: [`Trans::Yes`] is
    /// the conjugate transpose, which on the real types is the plain
    /// transpose (and stays [`Op::Trans`], the pack path the real
    /// kernels have always taken).
    #[inline]
    pub fn of<T: Scalar>(trans: Trans) -> Op {
        match trans {
            Trans::No => Op::No,
            Trans::Yes if T::IS_COMPLEX => Op::ConjTrans,
            Trans::Yes => Op::Trans,
        }
    }
}

pub use blocking::KC;
/// Register-tile height of the **unpacked baseline** (`gemm_unpacked`);
/// the packed path takes its tile shape from [`simd::selected`].
const MR: usize = 16;
/// Register-tile width of the unpacked baseline.
const NR: usize = 4;
/// Row-block size of the unpacked baseline's A sub-block (~half an L2);
/// also the byte-traffic model's re-stream granularity.
const MC: usize = 256;
/// Column-block reference size used by the byte-traffic model.
const NC: usize = 1024;

/// `C <- alpha op(A) op(B) + beta C`, at any element type
/// ([`Trans::Yes`] is the conjugate transpose, see [`Op::of`]).
///
/// `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`; all column-major
/// with the given leading dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: GemmScalar>(
    transa: Trans,
    transb: Trans,
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
    gemm_t(
        T::kernel(),
        Op::of::<T>(transa),
        Op::of::<T>(transb),
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

/// [`gemm`] forced through a specific dispatch path. The public entry
/// for differential tests and benches that compare ISA paths in one
/// process; production code goes through [`gemm`], which picks
/// [`simd::selected`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_kernel(
    kern: &MicroKernel,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_t(
        kern,
        transa.into(),
        transb.into(),
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

/// The body of [`gemm`] at any element type: contract, counters
/// (`T::MULADD_FLOPS` per multiply-add, bytes on the packed model with
/// this module's fixed [`NC`]-wide column panels), `beta` scaling and
/// the packed nest of [`engine`] on an explicit microkernel. The
/// generic structured kernels built on `gemm` (`larfb`) call it
/// directly, so their `f64` instances charge exactly what [`gemm`]
/// charges.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_t<T: GemmScalar>(
    kern: &simd::MicroKernel<T>,
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
    engine::gemm_contract("gemm", opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, engine::packed_bytes::<T>(NC, m, n, k));
    engine::scale_c(beta, m, n, c, ldc);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    engine::gemm_into_with(kern, opa, opb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// The packed loop nest on the type's dispatched microkernel: `C +=
/// alpha op(A) op(B)`, no scaling, no flop accounting. Shared by the
/// structured kernels built on it (`syr2k`, `symm`, `trmm`).
#[allow(clippy::too_many_arguments)]
fn gemm_into<T: GemmScalar>(
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
    engine::gemm_into_with(
        T::kernel(),
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
        c,
        ldc,
    );
}

/// Parallel [`gemm`] over the packed loop nest. Wide problems split the
/// `jc` loop: each worker owns a disjoint `NR`-aligned column panel of
/// `C` and packs its own panels into thread-local buffers. Tall-narrow
/// problems (too few column panels to balance) split the `ic` loop
/// instead, each worker accumulating its row block into a private buffer
/// that is summed into `C` afterwards. Falls back to the sequential
/// kernel for small problems where the fork/join overhead would
/// dominate.
#[allow(clippy::too_many_arguments)]
pub fn gemm_par<T: GemmScalar>(
    transa: Trans,
    transb: Trans,
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
        gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    gemm_par_with(
        threads, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
    );
}

/// [`gemm_par`] with an explicit worker-count hint; exposed so tests can
/// exercise the panel arithmetic of both parallel splits deterministically
/// regardless of the machine's thread count.
#[allow(clippy::too_many_arguments)]
pub fn gemm_par_with<T: GemmScalar>(
    threads: usize,
    transa: Trans,
    transb: Trans,
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
    let (opa, opb) = (Op::of::<T>(transa), Op::of::<T>(transb));
    engine::gemm_contract("gemm_par", opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, engine::packed_bytes::<T>(NC, m, n, k));
    if alpha == T::ZERO || k == 0 {
        engine::scale_c(beta, m, n, c, ldc);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    // The split itself (jc column panels / ic row blocks with private
    // accumulators) is element-type independent and lives once in the
    // generic engine.
    engine::par_nest(
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

/// The seed's unpacked `gemm` — the `N/N` and `N/T` cases run a
/// register-tiled microkernel straight off the strided operands, `T/N`
/// is lane-split dot products, `T/T` a naive triple loop. Kept as the
/// baseline the `table2_kernels` bench measures the packed path against.
#[allow(clippy::too_many_arguments)]
pub fn gemm_unpacked(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    engine::gemm_contract(
        "gemm_unpacked",
        transa.into(),
        transb.into(),
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
    add(Level::L3, (2 * m * n * k) as u64);
    // Traffic model: A read once per (k-block, i-block), B re-streamed
    // once per MC row block, C read+written once per k-block.
    {
        let npc = k.div_ceil(KC).max(1) as u64;
        let nic = m.div_ceil(MC).max(1) as u64;
        let (mu, nu, ku) = (m as u64, n as u64, k as u64);
        add_bytes(Level::L3, 8 * (mu * ku + ku * nu * nic + 2 * mu * nu * npc));
    }
    engine::scale_c(beta, m, n, c, ldc);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    match (transa, transb) {
        (Trans::No, Trans::No) => gemm_nn(m, n, k, alpha, a, lda, b, ldb, c, ldc),
        (Trans::Yes, Trans::No) => gemm_tn(m, n, k, alpha, a, lda, b, ldb, c, ldc),
        (Trans::No, Trans::Yes) => gemm_nt(m, n, k, alpha, a, lda, b, ldb, c, ldc),
        (Trans::Yes, Trans::Yes) => gemm_tt(m, n, k, alpha, a, lda, b, ldb, c, ldc),
    }
}

/// `C += alpha A B` straight off the strided operands (seed baseline).
fn gemm_nn(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        // Row blocking: the active A sub-block (MC x KC, ~0.5 MB) stays
        // L2-resident while the whole width of B/C streams past it.
        let mut i0 = 0;
        while i0 < m {
            let ib = MC.min(m - i0);
            let i_full_end = i0 + (ib / MR) * MR;
            let mut j = 0;
            while j + NR <= n {
                let mut i = i0;
                while i < i_full_end {
                    microkernel_8x4(i, j, k0, kb, alpha, a, lda, b, ldb, c, ldc);
                    i += MR;
                }
                // Row remainder: scalar columns.
                if i < i0 + ib {
                    for jj in j..j + NR {
                        edge_col(i, i0 + ib, jj, k0, kb, alpha, a, lda, b, ldb, c, ldc);
                    }
                }
                j += NR;
            }
            // Column remainder.
            while j < n {
                edge_col(i0, i0 + ib, j, k0, kb, alpha, a, lda, b, ldb, c, ldc);
                j += 1;
            }
            i0 += ib;
        }
        k0 += kb;
    }
}

/// One `MR x NR` register tile of `C += alpha A B` over `k0..k0+kb`
/// (unpacked baseline).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel_8x4(
    i: usize,
    j: usize,
    k0: usize,
    kb: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut acc = [[0.0f64; MR]; NR];
    let mut av = [0.0f64; MR];
    for kk in k0..k0 + kb {
        let acol = &a[i + kk * lda..i + kk * lda + MR];
        av.copy_from_slice(acol);
        for jj in 0..NR {
            let bv = b[kk + (j + jj) * ldb];
            for ii in 0..MR {
                acc[jj][ii] = av[ii].mul_add(bv, acc[jj][ii]);
            }
        }
    }
    for jj in 0..NR {
        let ccol = &mut c[i + (j + jj) * ldc..i + (j + jj) * ldc + MR];
        for ii in 0..MR {
            ccol[ii] += alpha * acc[jj][ii];
        }
    }
}

/// Scalar edge path: rows `i0..m` of column `j` (unpacked baseline).
#[inline]
#[allow(clippy::too_many_arguments)]
fn edge_col(
    i0: usize,
    m: usize,
    j: usize,
    k0: usize,
    kb: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let cj = &mut c[j * ldc + i0..j * ldc + m];
    for kk in k0..k0 + kb {
        let t = alpha * b[kk + j * ldb];
        if t == 0.0 {
            continue;
        }
        let acol = &a[i0 + kk * lda..m + kk * lda];
        for (cv, av) in cj.iter_mut().zip(acol) {
            *cv += t * av;
        }
    }
}

/// `C += alpha A^T B`: contiguous dot products of `A` and `B` columns,
/// through the shared eight-lane core in [`crate::blas1::dot_contig`]
/// (unpacked baseline).
fn gemm_tn(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        let bcol = &b[j * ldb..j * ldb + k];
        for i in 0..m {
            let acol = &a[i * lda..i * lda + k];
            c[i + j * ldc] += alpha * crate::blas1::dot_contig(acol, bcol);
        }
    }
}

/// `C += alpha A B^T` (unpacked baseline): register-tiled; `op(B)`
/// elements `b[(j+jj) + kk*ldb]` are contiguous across the tile's
/// columns.
fn gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        let mut i0 = 0;
        while i0 < m {
            let ib = MC.min(m - i0);
            let i_full_end = i0 + (ib / MR) * MR;
            let mut j = 0;
            while j + NR <= n {
                let mut i = i0;
                while i < i_full_end {
                    microkernel_8x4_nt(i, j, k0, kb, alpha, a, lda, b, ldb, c, ldc);
                    i += MR;
                }
                if i < i0 + ib {
                    for jj in j..j + NR {
                        edge_col_nt(i, i0 + ib, jj, k0, kb, alpha, a, lda, b, ldb, c, ldc);
                    }
                }
                j += NR;
            }
            while j < n {
                edge_col_nt(i0, i0 + ib, j, k0, kb, alpha, a, lda, b, ldb, c, ldc);
                j += 1;
            }
            i0 += ib;
        }
        k0 += kb;
    }
}

/// `MR x NR` tile of `C += alpha A B^T` (unpacked baseline).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel_8x4_nt(
    i: usize,
    j: usize,
    k0: usize,
    kb: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut acc = [[0.0f64; MR]; NR];
    let mut av = [0.0f64; MR];
    for kk in k0..k0 + kb {
        let acol = &a[i + kk * lda..i + kk * lda + MR];
        av.copy_from_slice(acol);
        let brow = &b[j + kk * ldb..j + kk * ldb + NR];
        for jj in 0..NR {
            let bv = brow[jj];
            for ii in 0..MR {
                acc[jj][ii] = av[ii].mul_add(bv, acc[jj][ii]);
            }
        }
    }
    for jj in 0..NR {
        let ccol = &mut c[i + (j + jj) * ldc..i + (j + jj) * ldc + MR];
        for ii in 0..MR {
            ccol[ii] += alpha * acc[jj][ii];
        }
    }
}

/// Scalar edge path of the `N/T` kernel (unpacked baseline).
#[inline]
#[allow(clippy::too_many_arguments)]
fn edge_col_nt(
    i0: usize,
    m: usize,
    j: usize,
    k0: usize,
    kb: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let cj = &mut c[j * ldc + i0..j * ldc + m];
    for kk in k0..k0 + kb {
        let t = alpha * b[j + kk * ldb];
        if t == 0.0 {
            continue;
        }
        let acol = &a[i0 + kk * lda..m + kk * lda];
        for (cv, av) in cj.iter_mut().zip(acol) {
            *cv += t * av;
        }
    }
}

/// `C += alpha A^T B^T` (unpacked baseline; naive, correctness only).
fn gemm_tt(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let acol = &a[i * lda..i * lda + k];
            let mut s = 0.0;
            for l in 0..k {
                s += acol[l] * b[j + l * ldb];
            }
            c[i + j * ldc] += alpha * s;
        }
    }
}

/// Hermitian (symmetric, on the real types) rank-k update of the lower
/// triangle: `C <- alpha A A^H + beta C` (`trans == No`, `A` is
/// `n x k`) or `C <- alpha A^H A + beta C` (`trans == Yes`, `A` is
/// `k x n`). `alpha` and `beta` are real, so `C` stays Hermitian; its
/// diagonal is kept exactly real.
#[allow(clippy::too_many_arguments)]
pub fn syrk_lower<T: GemmScalar>(
    trans: Trans,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[T],
    lda: usize,
    beta: f64,
    c: &mut [T],
    ldc: usize,
) {
    if contract::enabled() {
        let (ar, ac) = engine::op_dims(trans.into(), n, k);
        contract::require_mat("syrk_lower", "a", a, ar, ac, lda);
        contract::require_mat("syrk_lower", "c", c, n, n, ldc);
        contract::require_no_alias("syrk_lower", "a", a, "c", c);
        contract::require_finite_mat("syrk_lower", "a", a, ar, ac, lda);
    }
    add(Level::L3, (T::MULADD_FLOPS / 2) * (n * n * k) as u64);
    add_bytes(Level::L3, {
        let npc = k.div_ceil(KC).max(1) as u64;
        T::BYTES * (2 * (n * k) as u64 + (n * n) as u64 * npc)
    });
    scale_lower(beta, n, c, ldc);
    if alpha == 0.0 || n == 0 || k == 0 {
        return;
    }
    match trans {
        Trans::No => {
            for kk in 0..k {
                let acol = &a[kk * lda..kk * lda + n];
                for j in 0..n {
                    let t = acol[j].conj().scale(alpha);
                    if t == T::ZERO {
                        continue;
                    }
                    let ccol = &mut c[j * ldc..j * ldc + n];
                    for i in j..n {
                        ccol[i] += t * acol[i];
                    }
                }
            }
        }
        Trans::Yes => {
            for j in 0..n {
                let aj = &a[j * lda..j * lda + k];
                for i in j..n {
                    let ai = &a[i * lda..i * lda + k];
                    let mut s = T::ZERO;
                    for l in 0..k {
                        s += ai[l].conj() * aj[l];
                    }
                    c[i + j * ldc] += s.scale(alpha);
                }
            }
        }
    }
    real_diagonal(n, c, ldc);
}

/// Drop the rounding-level imaginary parts a Hermitian update leaves on
/// the diagonal of an order-`n` matrix; the identity on the real types.
fn real_diagonal<T: ComplexScalar>(n: usize, c: &mut [T], ldc: usize) {
    if T::IS_COMPLEX {
        for j in 0..n {
            c[j + j * ldc] = T::new(c[j + j * ldc].re(), 0.0);
        }
    }
}

/// Scale the lower triangle (diagonal included) of an order-`n` matrix
/// by the real `beta`.
fn scale_lower<T: ComplexScalar>(beta: f64, n: usize, c: &mut [T], ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc + j..j * ldc + n];
        if beta == 0.0 {
            col.fill(T::ZERO);
        } else {
            for v in col {
                *v = v.scale(beta);
            }
        }
    }
}

/// Column-panel width of the blocked `syr2k`: diagonal blocks of this
/// order run the rank-1 kernel, everything below goes through the packed
/// `gemm`.
const SYR2K_JB: usize = 64;

/// Traffic model shared by the serial and parallel `syr2k`: `A`/`B`
/// each packed twice (once per `gemm` role), the `C` triangle
/// read+written once per rank-`KC` update.
fn syr2k_bytes<T: Scalar>(n: usize, k: usize) -> u64 {
    let npc = k.div_ceil(KC).max(1) as u64;
    T::BYTES * (4 * (n * k) as u64 + (n * n) as u64 * npc)
}

/// Hermitian (symmetric, on the real types) rank-2k update of the lower
/// triangle: `C <- alpha (A B^H + B A^H) + beta C`, with `A`, `B` both
/// `n x k` and `alpha`, `beta` real so `C` stays Hermitian (its diagonal
/// is kept exactly real).
///
/// This is the trailing-matrix update of both the one-stage (`latrd` +
/// `syr2k`) and the first stage of the two-stage reduction. Blocked:
/// `SYR2K_JB`-wide diagonal blocks run the rank-1 kernel, the strictly
/// sub-diagonal part of each column panel is two packed `gemm`s.
#[allow(clippy::too_many_arguments)]
pub fn syr2k_lower<T: GemmScalar>(
    n: usize,
    k: usize,
    alpha: f64,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: f64,
    c: &mut [T],
    ldc: usize,
) {
    syr2k_contract("syr2k_lower", n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (n * n * k) as u64);
    add_bytes(Level::L3, syr2k_bytes::<T>(n, k));
    scale_lower(beta, n, c, ldc);
    if alpha == 0.0 || n == 0 || k == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let jn = SYR2K_JB.min(n - j0);
        syr2k_panel(n, k, alpha, j0, jn, a, lda, b, ldb, &mut c[j0 * ldc..], ldc);
        j0 += jn;
    }
}

/// Entry contract shared by the serial and parallel `syr2k`: `A`, `B`
/// are `n x k`, `C` covers an order-`n` triangle, nothing aliases `C`.
#[allow(clippy::too_many_arguments)]
fn syr2k_contract<T: Scalar>(
    kernel: &str,
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
    contract::require_mat(kernel, "a", a, n, k, lda);
    contract::require_mat(kernel, "b", b, n, k, ldb);
    contract::require_mat(kernel, "c", c, n, n, ldc);
    contract::require_no_alias(kernel, "a", a, "c", c);
    contract::require_no_alias(kernel, "b", b, "c", c);
    contract::require_finite_mat(kernel, "a", a, n, k, lda);
    contract::require_finite_mat(kernel, "b", b, n, k, ldb);
}

/// Accumulate the `syr2k` update of the column panel `j0..j0+jn` into
/// `cpanel` (which starts at column `j0` of `C`): the diagonal block by
/// the rank-1 kernel, the rows below it by two packed `gemm`s.
#[allow(clippy::too_many_arguments)]
fn syr2k_panel<T: GemmScalar>(
    n: usize,
    k: usize,
    alpha: f64,
    j0: usize,
    jn: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    cpanel: &mut [T],
    ldc: usize,
) {
    syr2k_diag(
        jn,
        k,
        alpha,
        &a[j0..],
        lda,
        &b[j0..],
        ldb,
        &mut cpanel[j0..],
        ldc,
    );
    let rows_below = n - j0 - jn;
    if rows_below > 0 {
        let r0 = j0 + jn;
        let (calpha, bh) = (T::from_f64(alpha), Op::of::<T>(Trans::Yes));
        let below = &mut cpanel[r0..];
        gemm_into(
            Op::No,
            bh,
            rows_below,
            jn,
            k,
            calpha,
            &a[r0..],
            lda,
            &b[j0..],
            ldb,
            below,
            ldc,
        );
        gemm_into(
            Op::No,
            bh,
            rows_below,
            jn,
            k,
            calpha,
            &b[r0..],
            ldb,
            &a[j0..],
            lda,
            below,
            ldc,
        );
    }
}

/// Rank-1-loop `syr2k` on a diagonal block (accumulate only; scaling and
/// accounting are the callers' responsibility).
#[allow(clippy::too_many_arguments)]
fn syr2k_diag<T: ComplexScalar>(
    n: usize,
    k: usize,
    alpha: f64,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    for kk in 0..k {
        let acol = &a[kk * lda..kk * lda + n];
        let bcol = &b[kk * ldb..kk * ldb + n];
        for j in 0..n {
            let ta = acol[j].conj().scale(alpha);
            let tb = bcol[j].conj().scale(alpha);
            if ta == T::ZERO && tb == T::ZERO {
                continue;
            }
            let ccol = &mut c[j * ldc..j * ldc + n];
            for i in j..n {
                ccol[i] += bcol[i] * ta + acol[i] * tb;
            }
        }
    }
    real_diagonal(n, c, ldc);
}

/// Parallel [`syr2k_lower`]: column panels of the lower triangle are
/// disjoint, one rayon task each; within a panel the sub-diagonal block
/// runs the packed `gemm` with per-thread packing buffers.
#[allow(clippy::too_many_arguments)]
pub fn syr2k_lower_par<T: GemmScalar>(
    n: usize,
    k: usize,
    alpha: f64,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: f64,
    c: &mut [T],
    ldc: usize,
) {
    if n * n * k < 48 * 48 * 48 || rayon::current_num_threads() == 1 {
        syr2k_lower(n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    syr2k_contract("syr2k_lower_par", n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (n * n * k) as u64);
    add_bytes(Level::L3, syr2k_bytes::<T>(n, k));
    let jb = SYR2K_JB;
    c[..(n - 1) * ldc + n]
        .par_chunks_mut(jb * ldc)
        .enumerate()
        .for_each(|(p, cpanel)| {
            let j0 = p * jb;
            let jn = jb.min(n - j0);
            // Scale this panel's triangle columns (rows j..n of column j).
            for jj in 0..jn {
                let col = &mut cpanel[jj * ldc + j0 + jj..jj * ldc + n];
                if beta == 0.0 {
                    col.fill(T::ZERO);
                } else if beta != 1.0 {
                    for v in col {
                        *v = v.scale(beta);
                    }
                }
            }
            if alpha == 0.0 || k == 0 {
                return;
            }
            syr2k_panel(n, k, alpha, j0, jn, a, lda, b, ldb, cpanel, ldc);
        });
}

/// Traffic model of `symm_lower_left`: the stored triangle is read once,
/// `B` is re-streamed once per `A` column sweep that falls out of cache
/// (modeled as once per `MC` rows), `C` read+written once.
fn symm_bytes<T: Scalar>(m: usize, k: usize) -> u64 {
    let sweeps = m.div_ceil(MC).max(1) as u64;
    T::BYTES * ((m * m / 2) as u64 + (m * k) as u64 * sweeps + 2 * (m * k) as u64)
}

/// Hermitian (symmetric, on the real types) times rectangular multiply:
/// `C <- alpha A B + beta C` with `A` Hermitian of order `m` (lower
/// triangle stored; the imaginary part of its diagonal is ignored) and
/// `B`, `C` `m x k`. One single pass over the stored triangle serves
/// both the lower part and its mirrored upper part; with `k` columns of
/// `B`, each loaded element of `A` is reused `2k` times — Level-3
/// intensity.
///
/// This is the `A2 * (V T)` product at the heart of the stage-1 trailing
/// update.
#[allow(clippy::too_many_arguments)]
pub fn symm_lower_left<T: GemmScalar>(
    m: usize,
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
    symm_contract("symm_lower_left", m, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * m * k) as u64);
    add_bytes(Level::L3, symm_bytes::<T>(m, k));
    engine::scale_c(beta, m, k, c, ldc);
    if alpha == T::ZERO {
        return;
    }
    symm_into(m, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Entry contract shared by the serial and parallel `symm`: `A` is a
/// stored lower triangle of order `m` (only that triangle is poison-
/// scanned), `B` and `C` are `m x k`, nothing aliases `C`.
#[allow(clippy::too_many_arguments)]
fn symm_contract<T: Scalar>(
    kernel: &str,
    m: usize,
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
    contract::require_mat(kernel, "a", a, m, m, lda);
    contract::require_mat(kernel, "b", b, m, k, ldb);
    contract::require_mat(kernel, "c", c, m, k, ldc);
    contract::require_no_alias(kernel, "a", a, "c", c);
    contract::require_no_alias(kernel, "b", b, "c", c);
    contract::require_finite_lower(kernel, "a", a, m, lda);
    contract::require_finite_mat(kernel, "b", b, m, k, ldb);
}

/// Accumulate-only body of [`symm_lower_left`] (no scaling, no
/// accounting): one pass over the stored triangle.
#[allow(clippy::too_many_arguments)]
fn symm_into<T: ComplexScalar>(
    m: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    for ja in 0..m {
        let acol = &a[ja * lda..ja * lda + m];
        for jb in 0..k {
            let bcol = &b[jb * ldb..jb * ldb + m];
            let ccol = &mut c[jb * ldc..jb * ldc + m];
            let t = alpha * bcol[ja];
            // Diagonal + lower part: column ja of A times b[ja].
            ccol[ja] += t.scale(acol[ja].re());
            let mut s = T::ZERO;
            for i in ja + 1..m {
                ccol[i] += t * acol[i];
                s += acol[i].conj() * bcol[i];
            }
            // Mirrored upper part: row ja of A dotted with b.
            ccol[ja] += alpha * s;
        }
    }
}

/// Row-block height of [`symm_lower_left_par`]: a multiple of every
/// microkernel's `MR` (24, 16, 4 and 48, 8, 2), so no block but the last
/// packs a zero-padded edge strip. Fixed, not derived from the thread
/// budget, so the blocks — and the bits — are the same under any budget.
const SYMM_MB: usize = 144;

/// Parallel [`symm_lower_left`]: the rows of `C` are cut into fixed
/// [`SYMM_MB`]-high blocks, and one worker computes each block whole
/// from three packed `gemm`s over the full inner dimension — the row
/// strip `A[i0..i1, ..i0] B[..i0]`, the diagonal block (mirrored into a
/// dense Hermitian tile) times `B[i0..i1]`, and the column strip
/// `A[i1.., i0..i1]^H B[i1..]` — into a private tile that is then
/// written once into `C` as `beta C + alpha tile`. Nothing is summed
/// across workers, so the result does not depend on the thread budget;
/// it differs in rounding from the serial [`symm_lower_left`].
#[allow(clippy::too_many_arguments)]
pub fn symm_lower_left_par<T: GemmScalar>(
    m: usize,
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
    if m * m * k < 48 * 48 * 48 {
        symm_lower_left(m, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    symm_contract("symm_lower_left_par", m, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * m * k) as u64);
    add_bytes(Level::L3, symm_bytes::<T>(m, k));
    if alpha == T::ZERO {
        engine::scale_c(beta, m, k, c, ldc);
        return;
    }
    let tiles: Vec<Vec<T>> = (0..m.div_ceil(SYMM_MB))
        .into_par_iter()
        .map(|p| {
            let (i0, i1) = (p * SYMM_MB, ((p + 1) * SYMM_MB).min(m));
            let mb = i1 - i0;
            let mut tile = vec![T::ZERO; mb * k];
            if i0 > 0 {
                gemm_into(
                    Op::No,
                    Op::No,
                    mb,
                    k,
                    i0,
                    T::ONE,
                    &a[i0..],
                    lda,
                    b,
                    ldb,
                    &mut tile,
                    mb,
                );
            }
            // The diagonal block as a dense Hermitian tile, so it too runs
            // at packed-gemm speed (the rank-1 `symm_into` would not).
            let mut diag = vec![T::ZERO; mb * mb];
            for j in 0..mb {
                let acol = &a[i0 + (i0 + j) * lda..][..mb];
                diag[j + j * mb] = T::new(acol[j].re(), 0.0);
                for i in j + 1..mb {
                    diag[i + j * mb] = acol[i];
                    diag[j + i * mb] = acol[i].conj();
                }
            }
            gemm_into(
                Op::No,
                Op::No,
                mb,
                k,
                mb,
                T::ONE,
                &diag,
                mb,
                &b[i0..],
                ldb,
                &mut tile,
                mb,
            );
            if i1 < m {
                gemm_into(
                    Op::of::<T>(Trans::Yes),
                    Op::No,
                    mb,
                    k,
                    m - i1,
                    T::ONE,
                    &a[i1 + i0 * lda..],
                    lda,
                    &b[i1..],
                    ldb,
                    &mut tile,
                    mb,
                );
            }
            tile
        })
        .collect();
    for (p, tile) in tiles.iter().enumerate() {
        let mb = tile.len() / k;
        for (j, tcol) in tile.chunks_exact(mb).enumerate() {
            let ccol = &mut c[p * SYMM_MB + j * ldc..][..mb];
            for (cv, &t) in ccol.iter_mut().zip(tcol) {
                *cv = if beta == T::ZERO {
                    alpha * t
                } else {
                    beta * *cv + alpha * t
                };
            }
        }
    }
}

/// Diagonal-block order above which `trmm_upper_left` switches to the
/// blocked algorithm (diagonal `trmm` + packed `gemm` off the diagonal).
const TRMM_TB: usize = 64;

/// Triangular multiply `B <- alpha op(T) B` with `T` a `k x k`
/// **upper-triangular, non-unit** matrix and `B` `k x n`; `Trans::Yes`
/// is `T^H`. Used by the blocked reflector application (`larfb`) and the
/// diamond back-transform, where `T` is the compact WY factor — there
/// `k` is a block size and the column-vectorized diagonal-block kernel
/// (`tri_apply`) does all of it; for larger `k` the off-diagonal work
/// is routed through the packed `gemm`.
#[allow(clippy::too_many_arguments)]
pub fn trmm_upper_left<T: GemmScalar>(
    trans: Trans,
    k: usize,
    n: usize,
    alpha: T,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    if contract::enabled() {
        contract::require_mat("trmm_upper_left", "t", t, k, k, ldt);
        contract::require_mat("trmm_upper_left", "b", b, k, n, ldb);
        contract::require_no_alias("trmm_upper_left", "t", t, "b", b);
        contract::require_finite_upper("trmm_upper_left", "t", t, k, ldt);
    }
    add(Level::L3, (T::MULADD_FLOPS / 2) * (n * k * k) as u64);
    add_bytes(
        Level::L3,
        T::BYTES * ((k * k / 2) as u64 + 2 * (k * n) as u64),
    );
    if k == 0 || n == 0 {
        return;
    }
    if k <= TRMM_TB {
        trmm_diag(trans, k, n, alpha, t, ldt, b, ldb);
        return;
    }
    // Blocked: split T into TB-order diagonal blocks T11 and the
    // rectangular coupling T12 above the diagonal; the coupling term goes
    // through the packed gemm via a scratch block (cold path — every
    // in-pipeline caller has k <= TRMM_TB).
    let nblocks = k.div_ceil(TRMM_TB);
    let mut w = vec![T::ZERO; TRMM_TB * n];
    let blocks: Vec<usize> = match trans {
        // Top-down: B1 <- alpha (T11 B1 + T12 B2) uses B2 before B2 is
        // overwritten.
        Trans::No => (0..nblocks).collect(),
        // Bottom-up: B2 <- alpha (T22^H B2 + T12^H B1) uses B1 before B1
        // is overwritten.
        Trans::Yes => (0..nblocks).rev().collect(),
    };
    for blk in blocks {
        let i0 = blk * TRMM_TB;
        let ib = TRMM_TB.min(k - i0);
        let wblk = &mut w[..ib * n];
        let coupled = match trans {
            Trans::No => k - i0 - ib,
            Trans::Yes => i0,
        };
        if coupled > 0 {
            wblk.fill(T::ZERO);
            match trans {
                // W = alpha * T12 * B2, reading B2 = rows i0+ib.. of B.
                Trans::No => gemm_into(
                    Op::No,
                    Op::No,
                    ib,
                    n,
                    coupled,
                    alpha,
                    &t[i0 + (i0 + ib) * ldt..],
                    ldt,
                    &b[i0 + ib..],
                    ldb,
                    wblk,
                    ib,
                ),
                // W = alpha * T12^H * B1, T12 = rows 0..i0 of columns
                // i0..i0+ib, B1 = rows 0..i0 of B.
                Trans::Yes => gemm_into(
                    Op::of::<T>(Trans::Yes),
                    Op::No,
                    ib,
                    n,
                    coupled,
                    alpha,
                    &t[i0 * ldt..],
                    ldt,
                    b,
                    ldb,
                    wblk,
                    ib,
                ),
            }
        }
        trmm_diag(
            trans,
            ib,
            n,
            alpha,
            &t[i0 + i0 * ldt..],
            ldt,
            &mut b[i0..],
            ldb,
        );
        if coupled > 0 {
            for j in 0..n {
                let dst = &mut b[i0 + j * ldb..][..ib];
                let src = &wblk[j * ib..(j + 1) * ib];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += *s;
                }
            }
        }
    }
}

/// In-place triangular multiply on a diagonal block (`k <= TRMM_TB` in
/// the blocked path, any `k` as called): `b_i <- alpha sum_{l >= i}
/// T(i,l) b_l` (`Trans::No`) or `alpha sum_{l <= i} conj(T(l,i)) b_l`
/// (`Trans::Yes`), each sum ascending from zero — see [`tri_apply`].
#[allow(clippy::too_many_arguments)]
fn trmm_diag<T: Scalar>(
    trans: Trans,
    k: usize,
    n: usize,
    alpha: T,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    let put = |_: usize, _: T, s: T| alpha * s;
    match trans {
        Trans::No => tri_apply(Span::Tail(0), k, n, |i, l| t[i + l * ldt], b, ldb, put),
        Trans::Yes => tri_apply(
            Span::Head(1),
            k,
            n,
            |i, l| t[l + i * ldt].conj(),
            b,
            ldb,
            put,
        ),
    }
}

/// In-place triangular multiply `B <- op(L) B` with `L` a `k x k`
/// **unit lower-triangular** matrix (implicit ones on the diagonal; only
/// the strictly-lower entries of `l` are read) and `B` `k x n`;
/// `Trans::Yes` is `L^H`.
///
/// The top `k x k` block of a diamond's parallelogram `V` is exactly
/// unit lower triangular; the back-transform applies whole diamonds
/// through [`diamond_left`], and this kernel stays as the zero-free
/// triangular product on its own. It runs through the column-vectorized
/// `tri_apply`: `b_i += sum_{p < i}
/// L(i,p) b_p` (row 0 untouched) or `b_i += sum_{p > i} conj(L(p,i))
/// b_p`, each sum ascending from zero.
pub fn trmm_unit_lower_left<T: Scalar>(
    trans: Trans,
    k: usize,
    n: usize,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    if contract::enabled() {
        contract::require_mat("trmm_unit_lower_left", "l", l, k, k, ldl);
        contract::require_mat("trmm_unit_lower_left", "b", b, k, n, ldb);
        contract::require_no_alias("trmm_unit_lower_left", "l", l, "b", b);
    }
    add(Level::L3, (T::MULADD_FLOPS / 2) * (n * k * k) as u64);
    add_bytes(
        Level::L3,
        T::BYTES * ((k * k / 2) as u64 + 2 * (k * n) as u64),
    );
    if k == 0 || n == 0 {
        return;
    }
    // Which rows receive a sum decides the sign of a zero: row 0 of
    // `L B` sums nothing and is left as it is, while row k-1 of `L^H B`
    // also sums nothing but gets `+ 0.0` (a -0.0 there becomes +0.0),
    // as the scalar loops these kernels replaced did.
    match trans {
        Trans::No => tri_apply(
            Span::Head(0),
            k,
            n,
            |i, p| l[i + p * ldl],
            b,
            ldb,
            |i, old, s| if i == 0 { old } else { old + s },
        ),
        Trans::Yes => tri_apply(
            Span::Tail(1),
            k,
            n,
            |i, p| l[p + i * ldl].conj(),
            b,
            ldb,
            |_, old, s| old + s,
        ),
    }
}

/// Apply one diamond block reflector of the back-transform from the
/// left: `C <- (I - V T V^H) C`, `C` the `h x n` block at leading
/// dimension `ldc`, through the dispatched fused kernel (see
/// [`simd::DiamondFn`] for the layout of `V` and `T`). `work` holds at
/// least `k * n` elements.
///
/// One pass per block of columns: `W = V^H C` accumulated in
/// registers, `T W`, then `C -= V (T W)` in row blocks — no packing, no
/// transposes of `C`, and each output element one fixed-order FMA
/// chain, so every dispatch path gives the same bits. It charges a
/// diamond's structured counts, whatever zeros it skips or multiplies:
/// three `k x k` triangular products and, when `h > k`, two GEMMs over
/// the `(h - k) x k` body — the terms the pinned back-transform flop
/// totals are made of.
#[allow(clippy::too_many_arguments)]
pub fn diamond_left<T: GemmScalar>(
    k: usize,
    h: usize,
    band: usize,
    v: &[T],
    ldv: usize,
    t: &[T],
    ldt: usize,
    c: &mut [T],
    ldc: usize,
    n: usize,
    work: &mut [T],
) {
    diamond_left_with(T::kernel(), k, h, band, v, ldv, t, ldt, c, ldc, n, work);
}

/// [`diamond_left`] through an explicit dispatch path (differential
/// tests run every entry of [`simd::SimdScalar::available`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn diamond_left_with<T: GemmScalar>(
    kern: &MicroKernel<T>,
    k: usize,
    h: usize,
    band: usize,
    v: &[T],
    ldv: usize,
    t: &[T],
    ldt: usize,
    c: &mut [T],
    ldc: usize,
    n: usize,
    work: &mut [T],
) {
    if contract::enabled() {
        contract::require_mat("diamond_left", "v", v, h, k, ldv);
        contract::require_mat("diamond_left", "t", t, k, k, ldt);
        contract::require_mat("diamond_left", "c", c, h, n, ldc);
        contract::require_vec("diamond_left", "work", work, k * n);
        contract::require_no_alias("diamond_left", "v", v, "c", c);
        contract::require_no_alias("diamond_left", "t", t, "c", c);
        assert!(
            h >= k && (k == 0 || band >= 1),
            "diamond_left: a parallelogram needs h >= k and band >= 1 (h = {h}, k = {k}, band = {band})"
        );
    }
    let tri = (T::MULADD_FLOPS / 2) * (n * k * k) as u64;
    add(Level::L3, 3 * tri);
    add_bytes(
        Level::L3,
        3 * T::BYTES * ((k * k / 2) as u64 + 2 * (k * n) as u64),
    );
    let body = h.saturating_sub(k);
    if body > 0 {
        add(Level::L3, 2 * T::MULADD_FLOPS * (body * n * k) as u64);
        add_bytes(
            Level::L3,
            engine::packed_bytes::<T>(NC, k, n, body) + engine::packed_bytes::<T>(NC, body, n, k),
        );
    }
    kern.run_diamond(k, h, band, v, ldv, t, ldt, c, ldc, n, work);
}

/// Columns of the right-hand side one [`tri_apply`] pass transposes into
/// its stack tile: the inner loop runs across them, unit-stride.
const TRI_JB: usize = 16;
/// Rows of the stack tiles: the `k` range is walked in blocks of this
/// many rows, so any `k` runs on fixed-size stack buffers.
const TRI_KB: usize = 64;
/// Output rows per register block; each loaded tile row feeds all of
/// them.
const TRI_RB: usize = 4;

/// The index range output row `i` of a triangular product sums over:
/// `Head(d)` is `0 .. i + d`, `Tail(d)` is `i + d .. k` (clipped to
/// `0..k`).
#[derive(Clone, Copy)]
enum Span {
    Head(usize),
    Tail(usize),
}

impl Span {
    fn range(self, i: usize, k: usize) -> (usize, usize) {
        match self {
            Span::Head(d) => (0, (i + d).min(k)),
            Span::Tail(d) => ((i + d).min(k), k),
        }
    }
}

/// Column-vectorized in-place triangular product: for every output
/// `(i, j)`, `s = sum_{p in span(i)} a(i, p) B(p, j)` over the input
/// `B`, accumulated from zero in ascending `p` with a separate multiply
/// and add (no FMA), then stored as `B(i, j) <- put(i, B(i, j), s)`.
/// That is exactly the operation order of a scalar row-at-a-time loop,
/// so the result bits do not depend on the blocking below.
///
/// `TRI_JB` columns of `B` at a time are transposed into a stack tile,
/// so the innermost loop runs across columns, unit-stride, and
/// vectorizes; `TRI_RB` output rows share each loaded tile row in
/// registers. Row blocks of `TRI_KB` bound the tiles for any `k`. Each
/// row block is finished before it is stored, and row blocks run in the
/// order that keeps the in-place update sound: a head span (`span(i)`
/// below `i`) bottom-up, a tail span top-down, so a block only reads rows
/// of `B` no stored block has overwritten.
fn tri_apply<T: Scalar>(
    span: Span,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> T,
    b: &mut [T],
    ldb: usize,
    put: impl Fn(usize, T, T) -> T,
) {
    let mut x = [[T::ZERO; TRI_JB]; TRI_KB];
    let mut acc = [[T::ZERO; TRI_JB]; TRI_KB];
    let nblocks = k.div_ceil(TRI_KB);
    for j0 in (0..n).step_by(TRI_JB) {
        let jn = TRI_JB.min(n - j0);
        for blk in 0..nblocks {
            let blk = match span {
                Span::Head(_) => nblocks - 1 - blk,
                Span::Tail(_) => blk,
            };
            let i0 = blk * TRI_KB;
            let i1 = (i0 + TRI_KB).min(k);
            // Union of the rows' spans: heads grow and tails shrink with i.
            let (plo, phi) = match span {
                Span::Head(_) => span.range(i1 - 1, k),
                Span::Tail(_) => span.range(i0, k),
            };
            let acc = &mut acc[..i1 - i0];
            if plo == phi {
                // No row of the block sums anything (the first tile
                // would have started every sum from zero).
                acc.fill([T::ZERO; TRI_JB]);
            }
            for p0 in (plo..phi).step_by(TRI_KB) {
                let p1 = (p0 + TRI_KB).min(phi);
                load_tile(b, ldb, j0, jn, p0, p1, &mut x);
                let x = &x[..p1 - p0];
                let first = p0 == plo;
                let mut i = i0;
                while i + TRI_RB <= i1 {
                    tri_rows::<T, TRI_RB>(span, k, i, p0, first, x, &a, &mut acc[i - i0..]);
                    i += TRI_RB;
                }
                while i < i1 {
                    tri_rows::<T, 1>(span, k, i, p0, first, x, &a, &mut acc[i - i0..]);
                    i += 1;
                }
            }
            for jj in 0..jn {
                let col = &mut b[i0 + (j0 + jj) * ldb..][..i1 - i0];
                let sums = acc.iter().map(|row| row[jj]);
                for ((i, v), s) in (i0..).zip(col.iter_mut()).zip(sums) {
                    *v = put(i, *v, s);
                }
            }
        }
    }
}

/// Transpose rows `p0 .. p1` of columns `j0 .. j0 + jn` of `B` into the
/// tile, `x[p - p0][jj] = B(p, j0 + jj)`, in 4 x 4 blocks. Lanes past
/// `jn` get copies of the last column; nothing reads their sums.
fn load_tile<T: Scalar>(
    b: &[T],
    ldb: usize,
    j0: usize,
    jn: usize,
    p0: usize,
    p1: usize,
    x: &mut [[T; TRI_JB]],
) {
    let np = p1 - p0;
    for jj in (0..jn).step_by(4) {
        let cols: [&[T]; 4] = std::array::from_fn(|q| {
            let j = j0 + (jj + q).min(jn - 1);
            &b[p0 + j * ldb..p1 + j * ldb]
        });
        let mut p = 0;
        while p + 4 <= np {
            let v: [&[T]; 4] = std::array::from_fn(|q| &cols[q][p..p + 4]);
            for (r, xr) in x[p..p + 4].iter_mut().enumerate() {
                xr[jj..jj + 4].copy_from_slice(&[v[0][r], v[1][r], v[2][r], v[3][r]]);
            }
            p += 4;
        }
        for (xr, p) in x[p..np].iter_mut().zip(p..) {
            xr[jj..jj + 4].copy_from_slice(&[cols[0][p], cols[1][p], cols[2][p], cols[3][p]]);
        }
    }
}

/// Register block of [`tri_apply`]: rows `i .. i + R` accumulate their
/// spans' share of the tile `x` (rows `p0 .. p0 + x.len()` of `B`) into
/// `acc`. A row's share splits into a head only it needs, the stretch
/// every row of the block needs (where one tile-row load feeds all `R`
/// rows), and a tail only it needs — in ascending `p`. The first tile
/// starts every sum from zero.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tri_rows<T: Scalar, const R: usize>(
    span: Span,
    k: usize,
    i: usize,
    p0: usize,
    first: bool,
    x: &[[T; TRI_JB]],
    a: &impl Fn(usize, usize) -> T,
    acc: &mut [[T; TRI_JB]],
) {
    let p1 = p0 + x.len();
    let mut lo = [0usize; R];
    let mut hi = [0usize; R];
    for r in 0..R {
        let (l, h) = span.range(i + r, k);
        lo[r] = l.clamp(p0, p1);
        hi[r] = h.clamp(lo[r], p1);
    }
    let common_lo = lo.iter().copied().max().unwrap_or(p0);
    let common_hi = hi.iter().copied().min().unwrap_or(p0).max(common_lo);
    let mut s = [[T::ZERO; TRI_JB]; R];
    if !first {
        s.copy_from_slice(&acc[..R]);
    }
    for r in 0..R {
        for p in lo[r]..common_lo.min(hi[r]) {
            axpy_row(&mut s[r], a(i + r, p), &x[p - p0]);
        }
    }
    for p in common_lo..common_hi {
        let xp = &x[p - p0];
        for (r, sr) in s.iter_mut().enumerate() {
            axpy_row(sr, a(i + r, p), xp);
        }
    }
    for r in 0..R {
        for p in common_hi.max(lo[r])..hi[r] {
            axpy_row(&mut s[r], a(i + r, p), &x[p - p0]);
        }
    }
    acc[..R].copy_from_slice(&s);
}

/// `s += c * x` across one tile row: a separate multiply and add per
/// element, never fused.
#[inline(always)]
fn axpy_row<T: Scalar>(s: &mut [T; TRI_JB], c: T, x: &[T; TRI_JB]) {
    for (sv, &xv) in s.iter_mut().zip(x) {
        *sv += c * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rand_hermitian, rand_mat as rand_cmat, rand_vec};
    use tseig_matrix::{CMatrixG, Matrix, C32, C64};

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        a.multiply(b).unwrap()
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn gemm_all_transpose_combos() {
        let m = 7;
        let n = 9;
        let k = 5;
        let a = rand_mat(m, k, 1);
        let b = rand_mat(k, n, 2);
        let want = naive(&a, &b);
        let at = a.transpose();
        let bt = b.transpose();
        for (ta, tb, am, bm) in [
            (Trans::No, Trans::No, &a, &b),
            (Trans::Yes, Trans::No, &at, &b),
            (Trans::No, Trans::Yes, &a, &bt),
            (Trans::Yes, Trans::Yes, &at, &bt),
        ] {
            let mut c = Matrix::zeros(m, n);
            gemm(
                ta,
                tb,
                m,
                n,
                k,
                1.0,
                am.as_slice(),
                am.rows(),
                bm.as_slice(),
                bm.rows(),
                0.0,
                c.as_mut_slice(),
                m,
            );
            assert!(c.approx_eq(&want, 1e-13), "combo {ta:?} {tb:?} wrong");
        }
    }

    #[test]
    fn gemm_packed_matches_unpacked_across_blocks() {
        // Shapes straddling the MR/NR/KC/MC boundaries: packed and
        // unpacked paths must agree to rounding.
        for (m, n, k, seed) in [
            (16, 4, 256, 30),
            (17, 5, 257, 31),
            (15, 3, 255, 32),
            (300, 40, 70, 33),
            (33, 1030, 12, 34),
            (1, 1, 1, 35),
        ] {
            let a = rand_mat(m, k, seed);
            let b = rand_mat(k, n, seed + 100);
            let mut c1 = rand_mat(m, n, seed + 200);
            let mut c2 = c1.clone();
            gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.3,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                0.7,
                c1.as_mut_slice(),
                m,
            );
            gemm_unpacked(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.3,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                0.7,
                c2.as_mut_slice(),
                m,
            );
            assert!(c1.approx_eq(&c2, 1e-11), "(m,n,k)=({m},{n},{k})");
        }
    }

    #[test]
    fn gemm_unpacked_all_transpose_combos() {
        let m = 19;
        let n = 11;
        let k = 23;
        let a = rand_mat(m, k, 40);
        let b = rand_mat(k, n, 41);
        let want = naive(&a, &b);
        let at = a.transpose();
        let bt = b.transpose();
        for (ta, tb, am, bm) in [
            (Trans::No, Trans::No, &a, &b),
            (Trans::Yes, Trans::No, &at, &b),
            (Trans::No, Trans::Yes, &a, &bt),
            (Trans::Yes, Trans::Yes, &at, &bt),
        ] {
            let mut c = Matrix::zeros(m, n);
            gemm_unpacked(
                ta,
                tb,
                m,
                n,
                k,
                1.0,
                am.as_slice(),
                am.rows(),
                bm.as_slice(),
                bm.rows(),
                0.0,
                c.as_mut_slice(),
                m,
            );
            assert!(c.approx_eq(&want, 1e-13), "combo {ta:?} {tb:?} wrong");
        }
    }

    #[test]
    fn gemm_with_padded_ldc() {
        // ldc > m: rows m..ldc of each C column must stay untouched.
        let (m, n, k, ldc) = (21, 9, 17, 29);
        let a = rand_mat(m, k, 50);
        let b = rand_mat(k, n, 51);
        let mut c = vec![7.5f64; ldc * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            &mut c,
            ldc,
        );
        let want = naive(&a, &b);
        for j in 0..n {
            for i in 0..m {
                assert!((c[i + j * ldc] - want[(i, j)]).abs() < 1e-13);
            }
            for i in m..ldc {
                assert_eq!(c[i + j * ldc], 7.5, "padding clobbered at ({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = rand_mat(6, 4, 3);
        let b = rand_mat(4, 5, 4);
        let c0 = rand_mat(6, 5, 5);
        let mut c = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            6,
            5,
            4,
            2.0,
            a.as_slice(),
            6,
            b.as_slice(),
            4,
            -3.0,
            c.as_mut_slice(),
            6,
        );
        let want = naive(&a, &b);
        for j in 0..5 {
            for i in 0..6 {
                let w = 2.0 * want[(i, j)] - 3.0 * c0[(i, j)];
                assert!((c[(i, j)] - w).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn gemm_par_matches_sequential() {
        let m = 130;
        let n = 117;
        let k = 83;
        let a = rand_mat(m, k, 6);
        let b = rand_mat(k, n, 7);
        let mut c1 = Matrix::zeros(m, n);
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c1.as_mut_slice(),
            m,
        );
        // Exercise the jc split with several worker-count hints,
        // including ones that do not divide n.
        for threads in [2, 3, 7] {
            let mut c2 = Matrix::zeros(m, n);
            gemm_par_with(
                threads,
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.0,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                0.0,
                c2.as_mut_slice(),
                m,
            );
            assert!(c1.approx_eq(&c2, 1e-12), "threads={threads}");
        }
    }

    #[test]
    fn gemm_par_transb_matches() {
        let m = 96;
        let n = 101;
        let k = 64;
        let a = rand_mat(m, k, 8);
        let bt = rand_mat(n, k, 9);
        let mut c1 = Matrix::zeros(m, n);
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.5,
            a.as_slice(),
            m,
            bt.as_slice(),
            n,
            0.0,
            c1.as_mut_slice(),
            m,
        );
        for threads in [2, 5] {
            let mut c2 = Matrix::zeros(m, n);
            gemm_par_with(
                threads,
                Trans::No,
                Trans::Yes,
                m,
                n,
                k,
                1.5,
                a.as_slice(),
                m,
                bt.as_slice(),
                n,
                0.0,
                c2.as_mut_slice(),
                m,
            );
            assert!(c1.approx_eq(&c2, 1e-12), "threads={threads}");
        }
    }

    #[test]
    fn gemm_par_tall_narrow_row_split() {
        // n too narrow for a column split: the ic-parallel path with
        // private accumulators must take over and still match, beta
        // applied exactly once.
        let m = 400;
        let n = 6;
        let k = 90;
        let a = rand_mat(m, k, 60);
        let b = rand_mat(k, n, 61);
        let c0 = rand_mat(m, n, 62);
        let mut c1 = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            2.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            -0.5,
            c1.as_mut_slice(),
            m,
        );
        for threads in [2, 3, 8] {
            let mut c2 = c0.clone();
            gemm_par_with(
                threads,
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                2.0,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                -0.5,
                c2.as_mut_slice(),
                m,
            );
            assert!(c1.approx_eq(&c2, 1e-12), "threads={threads}");
        }
        // Transposed A: the row split offsets into A's columns.
        let at = rand_mat(k, m, 63);
        let mut c3 = c0.clone();
        let mut c4 = c0.clone();
        gemm(
            Trans::Yes,
            Trans::No,
            m,
            n,
            k,
            1.0,
            at.as_slice(),
            k,
            b.as_slice(),
            k,
            1.0,
            c3.as_mut_slice(),
            m,
        );
        gemm_par_with(
            4,
            Trans::Yes,
            Trans::No,
            m,
            n,
            k,
            1.0,
            at.as_slice(),
            k,
            b.as_slice(),
            k,
            1.0,
            c4.as_mut_slice(),
            m,
        );
        assert!(c3.approx_eq(&c4, 1e-12));
    }

    #[test]
    fn gemm_par_short_final_chunk() {
        // n chosen so the last column panel is a single short column and
        // the C slice ends mid-panel ((n-1)*ldc + m).
        let m = 70;
        let n = 65;
        let k = 64;
        let a = rand_mat(m, k, 70);
        let b = rand_mat(k, n, 71);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c1.as_mut_slice(),
            m,
        );
        gemm_par_with(
            8,
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c2.as_mut_slice(),
            m,
        );
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    fn check_syrk<T: GemmScalar>(n: usize, k: usize, seed: u64) {
        let a = rand_cmat::<T>(n, k, seed);
        let want = a.multiply(&a.adjoint());
        let ah = a.adjoint();
        for (trans, op_a, lda) in [(Trans::No, &a, n), (Trans::Yes, &ah, k)] {
            let mut c = CMatrixG::<T>::zeros(n, n);
            syrk_lower(
                trans,
                n,
                k,
                1.0,
                op_a.as_slice(),
                lda,
                0.0,
                c.as_mut_slice(),
                n,
            );
            for j in 0..n {
                assert_eq!(c[(j, j)].im(), 0.0, "{trans:?}: diagonal not real");
                for i in j..n {
                    let d = ComplexScalar::abs(c[(i, j)] - want[(i, j)]);
                    assert!(d < 1e-13, "{trans:?} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn syrk_matches_gemm() {
        check_syrk::<f64>(8, 5, 10);
        check_syrk::<C64>(8, 5, 10);
    }

    fn check_syr2k<T: GemmScalar>(n: usize, k: usize, seed: u64) {
        let a = rand_cmat::<T>(n, k, seed);
        let b = rand_cmat::<T>(n, k, seed + 1);
        let c0 = rand_hermitian::<T>(n, seed + 2);
        let abh = a.multiply(&b.adjoint());
        let bah = b.multiply(&a.adjoint());
        for beta in [0.0, 1.0] {
            let mut c = c0.clone();
            syr2k_lower(
                n,
                k,
                0.5,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                beta,
                c.as_mut_slice(),
                n,
            );
            for j in 0..n {
                assert_eq!(c[(j, j)].im(), 0.0, "diagonal not real");
                for i in j..n {
                    let w = (abh[(i, j)] + bah[(i, j)]).scale(0.5) + c0[(i, j)].scale(beta);
                    let d = ComplexScalar::abs(c[(i, j)] - w);
                    assert!(d < 1e-13, "beta={beta} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn syr2k_matches_gemm_pair() {
        check_syr2k::<f64>(9, 4, 11);
        check_syr2k::<C64>(6, 3, 5);
    }

    #[test]
    fn syr2k_blocked_crosses_panel_boundary() {
        // n > SYR2K_JB so the blocked serial path runs its gemm arm;
        // check against the rank-1 diagonal kernel on the full triangle.
        let n = 150;
        let k = 20;
        let a = rand_mat(n, k, 26);
        let b = rand_mat(n, k, 27);
        let c0 = rand_mat(n, n, 28);
        let mut c1 = c0.clone();
        syr2k_lower(
            n,
            k,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.5,
            c1.as_mut_slice(),
            n,
        );
        // Oracle: full dense alpha(AB^T + BA^T) + beta C on the triangle.
        let abt = naive(&a, &b.transpose());
        let bat = naive(&b, &a.transpose());
        for j in 0..n {
            for i in j..n {
                let w = abt[(i, j)] + bat[(i, j)] + 0.5 * c0[(i, j)];
                assert!((c1[(i, j)] - w).abs() < 1e-11, "mismatch at ({i},{j})");
            }
            for i in 0..j {
                assert_eq!(
                    c1[(i, j)],
                    c0[(i, j)],
                    "upper triangle touched at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn syr2k_par_matches_sequential() {
        let n = 150;
        let k = 40;
        let a = rand_mat(n, k, 13);
        let b = rand_mat(n, k, 14);
        let mut c1 = rand_mat(n, n, 15);
        let mut c2 = c1.clone();
        syr2k_lower(
            n,
            k,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.5,
            c1.as_mut_slice(),
            n,
        );
        syr2k_lower_par(
            n,
            k,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.5,
            c2.as_mut_slice(),
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!(
                    (c1[(i, j)] - c2[(i, j)]).abs() < 1e-11,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    fn check_symm<T: GemmScalar>(m: usize, k: usize, seed: u64) {
        let full = rand_hermitian::<T>(m, seed);
        let b = rand_cmat::<T>(m, k, seed + 1);
        let mut a = full.clone();
        for j in 0..m {
            // Only the lower triangle and the diagonal's real part are read.
            a[(j, j)] = T::new(full[(j, j)].re(), 0.25);
            for i in 0..j {
                a[(i, j)] = T::new(f64::NAN, f64::NAN);
            }
        }
        let c0 = rand_cmat::<T>(m, k, seed + 2);
        let mut c = c0.clone();
        let (alpha, beta) = (T::new(2.0, 0.5), T::new(-1.0, 0.0));
        symm_lower_left(
            m,
            k,
            alpha,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            beta,
            c.as_mut_slice(),
            m,
        );
        let want = full.multiply(&b);
        for j in 0..k {
            for i in 0..m {
                let w = alpha * want[(i, j)] + beta * c0[(i, j)];
                assert!(ComplexScalar::abs(c[(i, j)] - w) < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn symm_matches_dense() {
        check_symm::<f64>(9, 4, 20);
        check_symm::<C64>(7, 3, 3);
    }

    #[test]
    fn symm_par_matches_sequential() {
        let m = 200;
        let k = 24;
        let a = tseig_matrix::gen::random_symmetric(m, 23);
        let b = rand_mat(m, k, 24);
        let mut c1 = rand_mat(m, k, 25);
        let mut c2 = c1.clone();
        symm_lower_left(
            m,
            k,
            1.5,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.5,
            c1.as_mut_slice(),
            m,
        );
        symm_lower_left_par(
            m,
            k,
            1.5,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.5,
            c2.as_mut_slice(),
            m,
        );
        assert!(c1.approx_eq(&c2, 1e-10));
    }

    fn check_trmm<T: GemmScalar>(k: usize, n: usize, seed: u64, tol: f64) {
        let mut t = rand_cmat::<T>(k, k, seed);
        for j in 0..k {
            for i in j + 1..k {
                t[(i, j)] = T::ZERO; // make upper triangular
            }
        }
        let b0 = rand_cmat::<T>(k, n, seed + 1);
        let alpha = T::new(1.5, -0.25);
        for (trans, op_t) in [(Trans::No, t.clone()), (Trans::Yes, t.adjoint())] {
            let mut b = b0.clone();
            trmm_upper_left(trans, k, n, alpha, t.as_slice(), k, b.as_mut_slice(), k);
            let mut want = op_t.multiply(&b0);
            for v in want.as_mut_slice() {
                *v *= alpha;
            }
            assert!(b.max_diff(&want) < tol, "{trans:?} k={k}");
        }
    }

    #[test]
    fn trmm_matches_dense_triangular_product() {
        check_trmm::<f64>(6, 4, 16, 1e-13);
        check_trmm::<C64>(6, 4, 16, 1e-13);
        // k > TRMM_TB: the blocked path with the packed gemm on the
        // coupling blocks.
        check_trmm::<C64>(150, 7, 18, 1e-11);
    }

    #[test]
    fn trmm_blocked_large_k() {
        // k > TRMM_TB exercises the blocked path with the packed gemm on
        // the coupling blocks, both transposes, odd n.
        let k = 150;
        let n = 7;
        let mut t = rand_mat(k, k, 18);
        for j in 0..k {
            for i in j + 1..k {
                t[(i, j)] = 0.0;
            }
        }
        let b0 = rand_mat(k, n, 19);
        let mut b = b0.clone();
        trmm_upper_left(Trans::No, k, n, 1.5, t.as_slice(), k, b.as_mut_slice(), k);
        let mut want = naive(&t, &b0);
        for v in want.as_mut_slice() {
            *v *= 1.5;
        }
        assert!(b.approx_eq(&want, 1e-11));

        let mut b2 = b0.clone();
        trmm_upper_left(Trans::Yes, k, n, 1.5, t.as_slice(), k, b2.as_mut_slice(), k);
        let mut want2 = naive(&t.transpose(), &b0);
        for v in want2.as_mut_slice() {
            *v *= 1.5;
        }
        assert!(b2.approx_eq(&want2, 1e-11));
    }

    /// The scalar row-at-a-time loop `trmm_diag` replaced: `NR` columns
    /// per pass, each sum ascending from zero. Kept as the bitwise oracle
    /// of the column-vectorized kernel.
    #[allow(clippy::too_many_arguments)]
    fn trmm_diag_scalar<T: Scalar>(
        trans: Trans,
        k: usize,
        n: usize,
        alpha: T,
        t: &[T],
        ldt: usize,
        b: &mut [T],
        ldb: usize,
    ) {
        let mut j = 0;
        while j < n {
            let jn = NR.min(n - j);
            match trans {
                Trans::No => {
                    for i in 0..k {
                        let mut s = [T::ZERO; NR];
                        for l in i..k {
                            let tv = t[i + l * ldt];
                            for (jj, sv) in s.iter_mut().enumerate().take(jn) {
                                *sv += tv * b[l + (j + jj) * ldb];
                            }
                        }
                        for (jj, sv) in s.iter().enumerate().take(jn) {
                            b[i + (j + jj) * ldb] = alpha * *sv;
                        }
                    }
                }
                Trans::Yes => {
                    for i in (0..k).rev() {
                        let mut s = [T::ZERO; NR];
                        for l in 0..=i {
                            let tv = t[l + i * ldt].conj();
                            for (jj, sv) in s.iter_mut().enumerate().take(jn) {
                                *sv += tv * b[l + (j + jj) * ldb];
                            }
                        }
                        for (jj, sv) in s.iter().enumerate().take(jn) {
                            b[i + (j + jj) * ldb] = alpha * *sv;
                        }
                    }
                }
            }
            j += jn;
        }
    }

    /// The scalar loop `trmm_unit_lower_left` replaced (then `f64`-only;
    /// the conjugation is the identity there).
    fn trmm_unit_lower_scalar<T: Scalar>(
        trans: Trans,
        k: usize,
        n: usize,
        l: &[T],
        ldl: usize,
        b: &mut [T],
        ldb: usize,
    ) {
        let mut j = 0;
        while j < n {
            let jn = NR.min(n - j);
            match trans {
                Trans::No => {
                    for i in (1..k).rev() {
                        let mut s = [T::ZERO; NR];
                        for p in 0..i {
                            let lv = l[i + p * ldl];
                            for (jj, sv) in s.iter_mut().enumerate().take(jn) {
                                *sv += lv * b[p + (j + jj) * ldb];
                            }
                        }
                        for (jj, sv) in s.iter().enumerate().take(jn) {
                            b[i + (j + jj) * ldb] += *sv;
                        }
                    }
                }
                Trans::Yes => {
                    for i in 0..k {
                        let mut s = [T::ZERO; NR];
                        for p in i + 1..k {
                            let lv = l[p + i * ldl].conj();
                            for (jj, sv) in s.iter_mut().enumerate().take(jn) {
                                *sv += lv * b[p + (j + jj) * ldb];
                            }
                        }
                        for (jj, sv) in s.iter().enumerate().take(jn) {
                            b[i + (j + jj) * ldb] += *sv;
                        }
                    }
                }
            }
            j += jn;
        }
    }

    fn assert_same_bits<T: GemmScalar>(got: &[T], want: &[T], what: &str) {
        let bits = |v: &[T]| -> Vec<(u64, u64)> {
            v.iter()
                .map(|x| (x.re().to_bits(), x.im().to_bits()))
                .collect()
        };
        assert!(bits(got) == bits(want), "{what}: bits differ");
    }

    /// Both triangular kernels against their scalar loops, bit for bit:
    /// every `k` up to past one 64-row block, ragged `n`, both
    /// transposes, padded leading dimensions, NaN in every entry the
    /// kernels must not read and -0.0 in the first and last row of `B`.
    fn check_tri_bits<T: GemmScalar>(seed: u64) {
        let alpha = T::new(0.75, -0.5);
        for k in 0..=70usize {
            let (lda, ldb) = (k + 2, k + 1);
            let mut upper = rand_vec::<T>(lda * k, seed + k as u64);
            let mut unit_lower = upper.clone();
            for j in 0..k {
                for i in 0..k {
                    let nan = T::new(f64::NAN, 0.0);
                    if i > j {
                        upper[i + j * lda] = nan;
                    } else {
                        unit_lower[i + j * lda] = nan;
                    }
                }
            }
            for n in [0usize, 1, 3, 16, 17, 37] {
                let mut b0 = rand_vec::<T>(ldb * n, seed + 1000 + k as u64);
                for j in 0..n.min(2) {
                    for i in [0, k.max(1) - 1] {
                        b0[i + j * ldb] = T::new(-0.0, -0.0);
                    }
                }
                for trans in [Trans::No, Trans::Yes] {
                    let what = format!("{trans:?} k={k} n={n}");
                    let (mut got, mut want) = (b0.clone(), b0.clone());
                    trmm_diag(trans, k, n, alpha, &upper, lda, &mut got, ldb);
                    trmm_diag_scalar(trans, k, n, alpha, &upper, lda, &mut want, ldb);
                    assert_same_bits(&got, &want, &format!("trmm_diag {what}"));
                    let (mut got, mut want) = (b0.clone(), b0.clone());
                    trmm_unit_lower_left(trans, k, n, &unit_lower, lda, &mut got, ldb);
                    trmm_unit_lower_scalar(trans, k, n, &unit_lower, lda, &mut want, ldb);
                    assert_same_bits(&got, &want, &format!("trmm_unit_lower_left {what}"));
                }
            }
        }
    }

    #[test]
    fn triangular_kernels_match_the_scalar_loops_bitwise() {
        check_tri_bits::<f64>(1);
        check_tri_bits::<f32>(2);
        check_tri_bits::<C32>(3);
        check_tri_bits::<C64>(4);
    }

    #[test]
    fn trmm_unit_lower_matches_dense() {
        let k = 9;
        let n = 6;
        let mut l = rand_mat(k, k, 90);
        let mut dense = Matrix::zeros(k, k);
        for j in 0..k {
            for i in 0..k {
                if i > j {
                    dense[(i, j)] = l[(i, j)];
                } else if i == j {
                    dense[(i, j)] = 1.0;
                    l[(i, j)] = f64::NAN; // prove diagonal is implicit
                } else {
                    l[(i, j)] = f64::NAN; // prove upper part unread
                }
            }
        }
        let b0 = rand_mat(k, n, 91);
        let mut b = b0.clone();
        trmm_unit_lower_left(Trans::No, k, n, l.as_slice(), k, b.as_mut_slice(), k);
        assert!(b.approx_eq(&naive(&dense, &b0), 1e-13));

        let mut b2 = b0.clone();
        trmm_unit_lower_left(Trans::Yes, k, n, l.as_slice(), k, b2.as_mut_slice(), k);
        assert!(b2.approx_eq(&naive(&dense.transpose(), &b0), 1e-13));
    }

    #[test]
    fn gemm_every_dispatch_path_matches_scalar_bitwise() {
        // The kernels share KC blocking and FMA accumulation order, so
        // every ISA path must agree with the scalar tile bit for bit.
        for (m, n, k) in [(40, 29, 17), (97, 65, 300), (24, 8, 256), (5, 13, 9)] {
            let a = rand_mat(m, k, 80);
            let b = rand_mat(k, n, 81);
            let c0 = rand_mat(m, n, 82);
            let mut want = c0.clone();
            gemm_with_kernel(
                &simd::SCALAR,
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.5,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                1.0,
                want.as_mut_slice(),
                m,
            );
            for kern in simd::available() {
                let mut c = c0.clone();
                gemm_with_kernel(
                    kern,
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    k,
                    1.5,
                    a.as_slice(),
                    m,
                    b.as_slice(),
                    k,
                    1.0,
                    c.as_mut_slice(),
                    m,
                );
                for (i, (&got, &w)) in c.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        got, w,
                        "kernel {} differs at {i} (m={m},n={n},k={k})",
                        kern.name
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_sizes_are_noops() {
        let mut c = [1.0f64];
        gemm(
            Trans::No,
            Trans::No,
            0,
            0,
            0,
            1.0,
            &[],
            1,
            &[],
            1,
            1.0,
            &mut c,
            1,
        );
        assert_eq!(c[0], 1.0);
        gemm(
            Trans::No,
            Trans::No,
            1,
            1,
            0,
            1.0,
            &[],
            1,
            &[],
            1,
            0.5,
            &mut c,
            1,
        );
        assert_eq!(c[0], 0.5);
    }
}
