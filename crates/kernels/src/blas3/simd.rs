//! Explicit-SIMD GEMM microkernels with one-time runtime dispatch, for
//! all four element types of the engine (`f32` / `f64` / `C32` / `C64`).
//!
//! The packed loop nest in [`super`] is ISA-agnostic: it packs `op(A)`
//! into `mr`-row strips and `op(B)` into `nr`-column strips, then calls
//! one [`MicroKernel`] per register tile. This module owns the tile
//! shapes and their implementations:
//!
//! | type  | `scalar` | `avx2`  | `avx512` | notes |
//! |-------|----------|---------|----------|-------|
//! | `f64` | 16 x 4   | 4 x 12  | 24 x 8   | avx512: 3 zmm per column x 8 + 3 loads + 1 broadcast = 28 of 32 regs |
//! | `f32` | 16 x 4   | 8 x 12  | 48 x 8   | lane-doubled ports of the `f64` tiles |
//! | `C64` | 8 x 4    | 2 x 6   | 8 x 4    | dual accumulators: 2x regs per tile element |
//! | `C32` | 8 x 4    | 4 x 6   | 16 x 4   | dual accumulators at 2x the `C64` lane count |
//!
//! Cache blocking (`mc`/`nc`) is derived per tile shape and element
//! size in [`super::blocking`]; `KC` is shared by everything.
//!
//! Each descriptor also carries the same ISA's body of the fused
//! diamond kernel of the back-transform ([`DiamondFn`], section "Diamond
//! kernel" below), so one dispatch choice covers both. The same choice
//! also picks the AVX-512 rotation chains of [`crate::rot`]
//! ([`rot_chains`], section "Rotation chains"), which keep the portable
//! loops' bits.
//!
//! **Dispatch** happens once per element type, at the first
//! `gemm`-family call: the `TSEIG_SIMD` environment variable (`avx512`
//! / `avx2` / `scalar`) is honored when the requested ISA is available,
//! otherwise detection order is `avx512` → `avx2` → `scalar` via
//! [`std::arch::is_x86_feature_detected!`]. [`SimdScalar::available`]
//! exposes every kernel the machine supports so tests and benches can
//! run each path explicitly in one process (the env override is a
//! process-wide choice). The historical free functions [`available`],
//! [`by_name`] and [`selected`] remain the `f64` entry points.
//!
//! **Numerical contract (real types):** for a fixed problem every
//! kernel of a type produces *bitwise identical* results. Each `C(i,j)`
//! is a k-ordered chain of fused multiply-adds regardless of the tile
//! shape (packing only regroups rows/columns, never the `k` loop), and
//! the writeback computes `c + alpha * acc` with a separate multiply
//! and add (not an FMA) to match the scalar path rounding-for-rounding.
//!
//! **Numerical contract (complex types):** every complex kernel keeps
//! *two* k-ordered real-FMA accumulator chains per `C(i,j)` component:
//!
//! ```text
//! s1.re += a.re * b.re      s1.im += a.im * b.re      (chain 1)
//! s2.re += a.im * b.im      s2.im += a.re * b.im      (chain 2)
//! t = (s1.re - s2.re, s1.im + s2.im);   c += alpha * t
//! ```
//!
//! This is exactly the register shape the SIMD kernels want — chain 1
//! is `fmadd(a, broadcast(b.re))` on the interleaved vector, chain 2 is
//! `fmadd(pair_swap(a), broadcast(b.im))` — and the scalar kernels run
//! the same two chains with scalar `mul_add`, so all dispatch paths of
//! a complex type are bitwise identical too. The combine + writeback is
//! always done in scalar code (SIMD kernels spill their accumulators to
//! a stack buffer first; ~0.4% of the FMA work at `kc = 256`), which
//! removes any vectorized-final-rounding divergence by construction.
//! Conjugation never reaches the kernels: the pack step folds it in via
//! [`super::Op`]. The differential proptests in `tests/simd_dispatch.rs`
//! and `tests/complex_dispatch.rs` pin all of this down.

use super::blocking::BlockingParams;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;
use tseig_matrix::{c32, c64, Scalar, C32, C64};

/// Signature every microkernel implements: one `mr x nr` tile of
/// `C += alpha * Ap * Bp` from packed strips. `ap` is the `mr * kc`
/// zero-padded A strip, `bp` the `nr * kc` B strip; edge tiles compute
/// on the padding and store only the `mr_eff x nr_eff` valid corner.
/// Generic over the element type so the one packed loop nest in
/// [`super::engine`] serves all four element types; the default keeps
/// every pre-generic `f64` signature reading exactly as before.
pub type MicroFn<T = f64> = fn(
    kc: usize,
    alpha: T,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
);

/// One dispatchable register-tile kernel plus the cache blocking that
/// fits its shape (`mc` a multiple of `mr`, `nc` a multiple of `nr`;
/// `KC` is shared so every kernel splits the `k` loop identically and
/// stays bitwise-comparable). Generic over the element type; the
/// `f64` default keeps the historical name for the real dispatch table.
pub struct MicroKernel<T: 'static = f64> {
    /// Dispatch name (`avx512` / `avx2` / `scalar`), matching the
    /// `TSEIG_SIMD` values.
    pub name: &'static str,
    /// Register-tile height.
    pub mr: usize,
    /// Register-tile width.
    pub nr: usize,
    /// Row-block size of the packed `A` panel (about half an L2).
    pub mc: usize,
    /// Column-block size of the packed `B` panel (an L3 slice).
    pub nc: usize,
    func: MicroFn<T>,
    /// The fused diamond kernel of the same ISA (see "Diamond kernel").
    diamond: DiamondFn<T>,
}

impl<T: 'static> MicroKernel<T> {
    /// Build a kernel descriptor from explicit blocking values.
    pub const fn new(
        name: &'static str,
        mr: usize,
        nr: usize,
        mc: usize,
        nc: usize,
        func: MicroFn<T>,
        diamond: DiamondFn<T>,
    ) -> Self {
        MicroKernel {
            name,
            mr,
            nr,
            mc,
            nc,
            func,
            diamond,
        }
    }

    /// Build a kernel descriptor with its cache blocking taken from a
    /// [`BlockingParams`] derivation — the tile shape and the blocking
    /// come from the same place and cannot drift apart. Every static in
    /// this module's dispatch tables is built this way.
    pub const fn from_blocking(
        name: &'static str,
        b: BlockingParams,
        func: MicroFn<T>,
        diamond: DiamondFn<T>,
    ) -> Self {
        MicroKernel {
            name,
            mr: b.mr,
            nr: b.nr,
            mc: b.mc,
            nc: b.nc,
            func,
            diamond,
        }
    }

    /// Run the kernel on one packed tile.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        kc: usize,
        alpha: T,
        ap: &[T],
        bp: &[T],
        c: &mut [T],
        ldc: usize,
        mr_eff: usize,
        nr_eff: usize,
    ) {
        (self.func)(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff)
    }

    /// Run this ISA's diamond kernel (see [`DiamondFn`]).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_diamond(
        &self,
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
        (self.diamond)(k, h, band, v, ldv, t, ldt, c, ldc, n, work)
    }
}

// ---------------------------------------------------------------------------
// Dispatch tables
// ---------------------------------------------------------------------------

/// Portable `f64` fallback tile, also the oracle the SIMD paths are
/// differential-tested against. Shape matches the pre-SIMD packed
/// engine (two 8-wide FMA rows by four columns).
pub static SCALAR: MicroKernel = MicroKernel::from_blocking(
    "scalar",
    BlockingParams::for_scalar::<f64>(16, 4),
    mk_scalar,
    diamond_scalar_f64,
);

/// AVX2+FMA `f64` tile.
#[cfg(target_arch = "x86_64")]
pub static AVX2: MicroKernel = MicroKernel::from_blocking(
    "avx2",
    BlockingParams::for_scalar::<f64>(4, 12),
    mk_avx2_entry,
    diamond_avx2_f64,
);

/// AVX-512F `f64` tile.
#[cfg(target_arch = "x86_64")]
pub static AVX512: MicroKernel = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<f64>(24, 8),
    mk_avx512_entry,
    diamond_avx512_f64,
);

/// Portable `f32` fallback tile (same shape as the `f64` one; the
/// compiler autovectorizes at twice the lane count).
pub static SCALAR_F32: MicroKernel<f32> = MicroKernel::from_blocking(
    "scalar",
    BlockingParams::for_scalar::<f32>(16, 4),
    mk_scalar_f32,
    diamond_scalar_f32,
);

/// AVX2+FMA `f32` tile: the 4x12 `f64` tile at 8 lanes per ymm.
#[cfg(target_arch = "x86_64")]
pub static AVX2_F32: MicroKernel<f32> = MicroKernel::from_blocking(
    "avx2",
    BlockingParams::for_scalar::<f32>(8, 12),
    mk_avx2_f32_entry,
    diamond_avx2_f32,
);

/// AVX-512F `f32` tile: the 24x8 `f64` tile at 16 lanes per zmm.
#[cfg(target_arch = "x86_64")]
pub static AVX512_F32: MicroKernel<f32> = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<f32>(48, 8),
    mk_avx512_f32_entry,
    diamond_avx512_f32,
);

/// Portable `C64` tile: the dual-accumulator chains on scalar
/// `f64::mul_add` (512-byte accumulator footprint, same as the real
/// scalar tile). Also the complex differential-testing oracle.
pub static SCALAR_C64: MicroKernel<C64> = MicroKernel::from_blocking(
    "scalar",
    BlockingParams::for_scalar::<C64>(8, 4),
    mk_scalar_c64,
    diamond_scalar_c64,
);

/// AVX2+FMA `C64` tile: 2 complex per ymm, 6 columns — 12 accumulator
/// ymm + the `A` vector, its pair-swap, and two broadcasts fill the
/// 16-register file (a 4x3 shape would need 18).
#[cfg(target_arch = "x86_64")]
pub static AVX2_C64: MicroKernel<C64> = MicroKernel::from_blocking(
    "avx2",
    BlockingParams::for_scalar::<C64>(2, 6),
    mk_avx2_c64_entry,
    diamond_avx2_c64,
);

/// AVX-512F `C64` tile: 8 complex rows (2 zmm) x 4 columns — 16
/// accumulator zmm (two chains x 2 registers x 4 columns), 16 FMAs per
/// `k` step against 12 load-port ops, so the loop is FMA-bound.
#[cfg(target_arch = "x86_64")]
pub static AVX512_C64: MicroKernel<C64> = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<C64>(8, 4),
    mk_avx512_c64_entry,
    diamond_avx512_c64,
);

/// Portable `C32` tile: same shape as the `C64` one at `f32` components.
pub static SCALAR_C32: MicroKernel<C32> = MicroKernel::from_blocking(
    "scalar",
    BlockingParams::for_scalar::<C32>(8, 4),
    mk_scalar_c32,
    diamond_scalar_c32,
);

/// AVX2+FMA `C32` tile: the `C64` 2x6 shape at twice the lane count.
#[cfg(target_arch = "x86_64")]
pub static AVX2_C32: MicroKernel<C32> = MicroKernel::from_blocking(
    "avx2",
    BlockingParams::for_scalar::<C32>(4, 6),
    mk_avx2_c32_entry,
    diamond_avx2_c32,
);

/// AVX-512F `C32` tile: the `C64` 8x4 shape at twice the lane count.
#[cfg(target_arch = "x86_64")]
pub static AVX512_C32: MicroKernel<C32> = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<C32>(16, 4),
    mk_avx512_c32_entry,
    diamond_avx512_c32,
);

/// Every `f64` kernel this machine can execute, best first. Tests and
/// benches iterate this to exercise each dispatch path in-process.
/// (Kept as a free function for back-compat; [`SimdScalar::available`]
/// is the per-type generalization.)
pub fn available() -> &'static [&'static MicroKernel] {
    static AVAIL: OnceLock<Vec<&'static MicroKernel>> = OnceLock::new();
    AVAIL.get_or_init(|| {
        #[allow(unused_mut)]
        let mut v: Vec<&'static MicroKernel> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                v.push(&AVX512);
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                v.push(&AVX2);
            }
        }
        v.push(&SCALAR);
        v
    })
}

/// Look an `f64` kernel up by its dispatch name, `None` when the
/// machine does not support it (or the name is unknown).
pub fn by_name(name: &str) -> Option<&'static MicroKernel> {
    available().iter().copied().find(|k| k.name == name)
}

/// The kernel the packed `f64` engine uses, chosen once at first call:
/// `TSEIG_SIMD` when set to a supported name, otherwise the best
/// detected ISA. An unsupported or unknown override falls back to auto
/// detection rather than failing — the env knob exists for testing and
/// benchmarking, not as a hard requirement.
pub fn selected() -> &'static MicroKernel {
    static SELECTED: OnceLock<&'static MicroKernel> = OnceLock::new();
    SELECTED.get_or_init(|| select_env(available()))
}

/// Apply the `TSEIG_SIMD` override to an availability table (shared by
/// every element type's `selected()`): a supported name wins, anything
/// else falls back to the best detected kernel.
fn select_env<T: 'static>(avail: &[&'static MicroKernel<T>]) -> &'static MicroKernel<T> {
    if let Ok(want) = std::env::var("TSEIG_SIMD") {
        if let Some(k) = avail.iter().copied().find(|k| k.name == want.trim()) {
            return k;
        }
    }
    avail[0]
}

/// Element types with a runtime-dispatched microkernel table: the
/// per-type face of the one dispatch mechanism (`OnceLock` + feature
/// detection + `TSEIG_SIMD` override) the `f64` path has always used.
/// Implemented for exactly the four engine types.
pub trait SimdScalar: Scalar + 'static {
    /// Every kernel of this element type the machine can execute, best
    /// first; the portable `scalar` kernel is always present and last.
    fn available() -> &'static [&'static MicroKernel<Self>];

    /// The kernel the packed engine uses for this element type, chosen
    /// once at first call (see [`selected`] for the override rules).
    fn selected() -> &'static MicroKernel<Self>;

    /// Look a kernel of this element type up by dispatch name.
    fn by_name(name: &str) -> Option<&'static MicroKernel<Self>> {
        Self::available().iter().copied().find(|k| k.name == name)
    }
}

impl SimdScalar for f64 {
    #[inline]
    fn available() -> &'static [&'static MicroKernel<f64>] {
        available()
    }
    #[inline]
    fn selected() -> &'static MicroKernel<f64> {
        selected()
    }
}

/// Per-type dispatch table + selection cache. A macro because statics
/// cannot be generic: each element type owns its `OnceLock` pair.
macro_rules! simd_dispatch {
    ($t:ty, $scalar:ident, $avx2:ident, $avx512:ident) => {
        impl SimdScalar for $t {
            fn available() -> &'static [&'static MicroKernel<$t>] {
                static AVAIL: OnceLock<Vec<&'static MicroKernel<$t>>> = OnceLock::new();
                AVAIL.get_or_init(|| {
                    #[allow(unused_mut)]
                    let mut v: Vec<&'static MicroKernel<$t>> = Vec::new();
                    #[cfg(target_arch = "x86_64")]
                    {
                        if is_x86_feature_detected!("avx512f") {
                            v.push(&$avx512);
                        }
                        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                            v.push(&$avx2);
                        }
                    }
                    v.push(&$scalar);
                    v
                })
            }

            fn selected() -> &'static MicroKernel<$t> {
                static SEL: OnceLock<&'static MicroKernel<$t>> = OnceLock::new();
                SEL.get_or_init(|| select_env(<$t as SimdScalar>::available()))
            }
        }
    };
}

simd_dispatch!(f32, SCALAR_F32, AVX2_F32, AVX512_F32);
simd_dispatch!(C64, SCALAR_C64, AVX2_C64, AVX512_C64);
simd_dispatch!(C32, SCALAR_C32, AVX2_C32, AVX512_C32);

// ---------------------------------------------------------------------------
// f64 kernels
// ---------------------------------------------------------------------------

/// Scalar 16x4 tile: plain `mul_add` chains the compiler may
/// autovectorize; semantics identical to the SIMD tiles by construction.
fn mk_scalar(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    const MR: usize = 16;
    const NR: usize = 4;
    let mut acc = [[0.0f64; MR]; NR];
    let (achunks, _) = ap.as_chunks::<MR>();
    let (bchunks, _) = bp.as_chunks::<NR>();
    for p in 0..kc {
        let av: &[f64; MR] = &achunks[p];
        let bv: &[f64; NR] = &bchunks[p];
        for jj in 0..NR {
            let bvj = bv[jj];
            for ii in 0..MR {
                acc[jj][ii] = av[ii].mul_add(bvj, acc[jj][ii]);
            }
        }
    }
    if mr_eff == MR && nr_eff == NR {
        for jj in 0..NR {
            let ccol = &mut c[jj * ldc..jj * ldc + MR];
            for ii in 0..MR {
                ccol[ii] += alpha * acc[jj][ii];
            }
        }
    } else {
        for jj in 0..nr_eff {
            let ccol = &mut c[jj * ldc..][..mr_eff];
            for ii in 0..mr_eff {
                ccol[ii] += alpha * acc[jj][ii];
            }
        }
    }
}

/// Safe entry for the AVX-512 tile: checks every slice bound the
/// intrinsics body relies on, then calls into the `target_feature` fn.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx512_entry(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 24 * kc && bp.len() >= 8 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    if mr_eff == 24 && nr_eff == 8 {
        assert!(c.len() >= 7 * ldc + 24, "full C tile out of bounds");
    }
    // SAFETY: this entry is only reachable through the AVX512 kernel
    // descriptor, which `available()` registers iff
    // `is_x86_feature_detected!("avx512f")`; the slice bounds the body
    // dereferences are asserted just above.
    unsafe { mk_avx512_24x8(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 24x8 AVX-512F tile: 24 zmm accumulators (three per column), one
/// column broadcast per FMA.
///
/// # Safety
///
/// Caller must guarantee the `avx512f` target feature is available and
/// that `ap.len() >= 24*kc`, `bp.len() >= 8*kc`, and `c` covers the
/// `mr_eff x nr_eff` output tile at leading dimension `ldc` (the full
/// `24 x 8` tile when `mr_eff == 24 && nr_eff == 8`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx512_24x8(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 24;
    const NR: usize = 8;
    // SAFETY: all pointer arithmetic below stays inside the bounds the
    // safe entry asserted: `ap` is read at `p*24 + 0..24` for p < kc,
    // `bp` at `p*8 + 0..8`, and `c` only on the full-tile path that
    // asserted `7*ldc + 24` coverage.
    unsafe {
        let mut acc = [[_mm512_setzero_pd(); 3]; NR];
        let mut aptr = ap.as_ptr();
        let mut bptr = bp.as_ptr();
        for _ in 0..kc {
            let a0 = _mm512_loadu_pd(aptr);
            let a1 = _mm512_loadu_pd(aptr.add(8));
            let a2 = _mm512_loadu_pd(aptr.add(16));
            for (jj, accj) in acc.iter_mut().enumerate() {
                let bv = _mm512_set1_pd(*bptr.add(jj));
                accj[0] = _mm512_fmadd_pd(a0, bv, accj[0]);
                accj[1] = _mm512_fmadd_pd(a1, bv, accj[1]);
                accj[2] = _mm512_fmadd_pd(a2, bv, accj[2]);
            }
            aptr = aptr.add(MR);
            bptr = bptr.add(NR);
        }
        if mr_eff == MR && nr_eff == NR {
            // Writeback is mul-then-add (not FMA) so every kernel's
            // rounding matches the scalar tile bitwise.
            let va = _mm512_set1_pd(alpha);
            for (jj, accj) in acc.iter().enumerate() {
                let cp = c.as_mut_ptr().add(jj * ldc);
                for (q, &av) in accj.iter().enumerate() {
                    let cv = _mm512_loadu_pd(cp.add(8 * q));
                    _mm512_storeu_pd(cp.add(8 * q), _mm512_add_pd(cv, _mm512_mul_pd(av, va)));
                }
            }
        } else {
            let mut buf = [0.0f64; MR * NR];
            for (jj, accj) in acc.iter().enumerate() {
                for (q, &av) in accj.iter().enumerate() {
                    _mm512_storeu_pd(buf.as_mut_ptr().add(jj * MR + 8 * q), av);
                }
            }
            for jj in 0..nr_eff {
                for ii in 0..mr_eff {
                    c[ii + jj * ldc] += alpha * buf[jj * MR + ii];
                }
            }
        }
    }
}

/// Safe entry for the AVX2 tile; same bounds discipline as the AVX-512
/// entry.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx2_entry(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 4 * kc && bp.len() >= 12 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    if mr_eff == 4 && nr_eff == 12 {
        assert!(c.len() >= 11 * ldc + 4, "full C tile out of bounds");
    }
    // SAFETY: only reachable through the AVX2 kernel descriptor, which
    // `available()` registers iff `avx2` and `fma` are detected; slice
    // bounds asserted above.
    unsafe { mk_avx2_4x12(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 4x12 AVX2+FMA tile: 12 ymm accumulators, one `A` load and one
/// broadcast per FMA pair.
///
/// # Safety
///
/// Caller must guarantee the `avx2` and `fma` target features are
/// available and that `ap.len() >= 4*kc`, `bp.len() >= 12*kc`, and `c`
/// covers the `mr_eff x nr_eff` output tile at leading dimension `ldc`
/// (the full `4 x 12` tile when `mr_eff == 4 && nr_eff == 12`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx2_4x12(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 4;
    const NR: usize = 12;
    // SAFETY: pointer arithmetic stays inside the bounds the safe entry
    // asserted (`ap` at `p*4 + 0..4`, `bp` at `p*12 + 0..12`, `c` only
    // on the asserted full-tile path).
    unsafe {
        let mut acc = [_mm256_setzero_pd(); NR];
        let mut aptr = ap.as_ptr();
        let mut bptr = bp.as_ptr();
        for _ in 0..kc {
            let av = _mm256_loadu_pd(aptr);
            for (jj, a) in acc.iter_mut().enumerate() {
                let bv = _mm256_broadcast_sd(&*bptr.add(jj));
                *a = _mm256_fmadd_pd(av, bv, *a);
            }
            aptr = aptr.add(MR);
            bptr = bptr.add(NR);
        }
        if mr_eff == MR && nr_eff == NR {
            let va = _mm256_set1_pd(alpha);
            for (jj, a) in acc.iter().enumerate() {
                let cp = c.as_mut_ptr().add(jj * ldc);
                let cv = _mm256_loadu_pd(cp);
                _mm256_storeu_pd(cp, _mm256_add_pd(cv, _mm256_mul_pd(*a, va)));
            }
        } else {
            let mut buf = [0.0f64; MR * NR];
            for (jj, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(buf.as_mut_ptr().add(jj * MR), *a);
            }
            for jj in 0..nr_eff {
                for ii in 0..mr_eff {
                    c[ii + jj * ldc] += alpha * buf[jj * MR + ii];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f32 kernels
// ---------------------------------------------------------------------------

/// Scalar 16x4 `f32` tile: the `f64` scalar tile verbatim at `f32`.
fn mk_scalar_f32(
    kc: usize,
    alpha: f32,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    const MR: usize = 16;
    const NR: usize = 4;
    let mut acc = [[0.0f32; MR]; NR];
    let (achunks, _) = ap.as_chunks::<MR>();
    let (bchunks, _) = bp.as_chunks::<NR>();
    for p in 0..kc {
        let av: &[f32; MR] = &achunks[p];
        let bv: &[f32; NR] = &bchunks[p];
        for jj in 0..NR {
            let bvj = bv[jj];
            for ii in 0..MR {
                acc[jj][ii] = av[ii].mul_add(bvj, acc[jj][ii]);
            }
        }
    }
    for jj in 0..nr_eff {
        let ccol = &mut c[jj * ldc..][..mr_eff];
        for ii in 0..mr_eff {
            ccol[ii] += alpha * acc[jj][ii];
        }
    }
}

/// Safe entry for the `f32` AVX-512 tile; same bounds discipline as the
/// `f64` entries.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx512_f32_entry(
    kc: usize,
    alpha: f32,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 48 * kc && bp.len() >= 8 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    if mr_eff == 48 && nr_eff == 8 {
        assert!(c.len() >= 7 * ldc + 48, "full C tile out of bounds");
    }
    // SAFETY: only reachable through the AVX512_F32 kernel descriptor,
    // registered iff `is_x86_feature_detected!("avx512f")`; slice
    // bounds asserted above.
    unsafe { mk_avx512_f32_48x8(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 48x8 AVX-512F `f32` tile: the 24x8 `f64` tile at 16 lanes per zmm
/// (24 accumulators, three per column, one broadcast per FMA).
///
/// # Safety
///
/// Caller must guarantee the `avx512f` target feature is available and
/// that `ap.len() >= 48*kc`, `bp.len() >= 8*kc`, and `c` covers the
/// `mr_eff x nr_eff` output tile at leading dimension `ldc` (the full
/// `48 x 8` tile when `mr_eff == 48 && nr_eff == 8`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx512_f32_48x8(
    kc: usize,
    alpha: f32,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 48;
    const NR: usize = 8;
    // SAFETY: pointer arithmetic stays inside the bounds the safe entry
    // asserted (`ap` at `p*48 + 0..48`, `bp` at `p*8 + 0..8`, `c` only
    // on the asserted full-tile path).
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); 3]; NR];
        let mut aptr = ap.as_ptr();
        let mut bptr = bp.as_ptr();
        for _ in 0..kc {
            let a0 = _mm512_loadu_ps(aptr);
            let a1 = _mm512_loadu_ps(aptr.add(16));
            let a2 = _mm512_loadu_ps(aptr.add(32));
            for (jj, accj) in acc.iter_mut().enumerate() {
                let bv = _mm512_set1_ps(*bptr.add(jj));
                accj[0] = _mm512_fmadd_ps(a0, bv, accj[0]);
                accj[1] = _mm512_fmadd_ps(a1, bv, accj[1]);
                accj[2] = _mm512_fmadd_ps(a2, bv, accj[2]);
            }
            aptr = aptr.add(MR);
            bptr = bptr.add(NR);
        }
        if mr_eff == MR && nr_eff == NR {
            let va = _mm512_set1_ps(alpha);
            for (jj, accj) in acc.iter().enumerate() {
                let cp = c.as_mut_ptr().add(jj * ldc);
                for (q, &av) in accj.iter().enumerate() {
                    let cv = _mm512_loadu_ps(cp.add(16 * q));
                    _mm512_storeu_ps(cp.add(16 * q), _mm512_add_ps(cv, _mm512_mul_ps(av, va)));
                }
            }
        } else {
            let mut buf = [0.0f32; MR * NR];
            for (jj, accj) in acc.iter().enumerate() {
                for (q, &av) in accj.iter().enumerate() {
                    _mm512_storeu_ps(buf.as_mut_ptr().add(jj * MR + 16 * q), av);
                }
            }
            for jj in 0..nr_eff {
                for ii in 0..mr_eff {
                    c[ii + jj * ldc] += alpha * buf[jj * MR + ii];
                }
            }
        }
    }
}

/// Safe entry for the `f32` AVX2 tile.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx2_f32_entry(
    kc: usize,
    alpha: f32,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 8 * kc && bp.len() >= 12 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    if mr_eff == 8 && nr_eff == 12 {
        assert!(c.len() >= 11 * ldc + 8, "full C tile out of bounds");
    }
    // SAFETY: only reachable through the AVX2_F32 kernel descriptor,
    // registered iff `avx2` and `fma` are detected; slice bounds
    // asserted above.
    unsafe { mk_avx2_f32_8x12(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 8x12 AVX2+FMA `f32` tile: the 4x12 `f64` tile at 8 lanes per ymm.
///
/// # Safety
///
/// Caller must guarantee the `avx2` and `fma` target features are
/// available and that `ap.len() >= 8*kc`, `bp.len() >= 12*kc`, and `c`
/// covers the `mr_eff x nr_eff` output tile at leading dimension `ldc`
/// (the full `8 x 12` tile when `mr_eff == 8 && nr_eff == 12`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx2_f32_8x12(
    kc: usize,
    alpha: f32,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 12;
    // SAFETY: pointer arithmetic stays inside the bounds the safe entry
    // asserted (`ap` at `p*8 + 0..8`, `bp` at `p*12 + 0..12`, `c` only
    // on the asserted full-tile path).
    unsafe {
        let mut acc = [_mm256_setzero_ps(); NR];
        let mut aptr = ap.as_ptr();
        let mut bptr = bp.as_ptr();
        for _ in 0..kc {
            let av = _mm256_loadu_ps(aptr);
            for (jj, a) in acc.iter_mut().enumerate() {
                let bv = _mm256_broadcast_ss(&*bptr.add(jj));
                *a = _mm256_fmadd_ps(av, bv, *a);
            }
            aptr = aptr.add(MR);
            bptr = bptr.add(NR);
        }
        if mr_eff == MR && nr_eff == NR {
            let va = _mm256_set1_ps(alpha);
            for (jj, a) in acc.iter().enumerate() {
                let cp = c.as_mut_ptr().add(jj * ldc);
                let cv = _mm256_loadu_ps(cp);
                _mm256_storeu_ps(cp, _mm256_add_ps(cv, _mm256_mul_ps(*a, va)));
            }
        } else {
            let mut buf = [0.0f32; MR * NR];
            for (jj, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(buf.as_mut_ptr().add(jj * MR), *a);
            }
            for jj in 0..nr_eff {
                for ii in 0..mr_eff {
                    c[ii + jj * ldc] += alpha * buf[jj * MR + ii];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Complex kernels (dual-accumulator contract)
// ---------------------------------------------------------------------------

/// Generate, per complex type, the shared combine/writeback helper and
/// the portable scalar tile of the dual-accumulator contract (module
/// docs): the two component-FMA chains per `C(i,j)` live in interleaved
/// `(re, im)` stack buffers — the exact memory image of the SIMD
/// kernels' spilled accumulator registers — and the combine
/// `t = (s1.re - s2.re, s1.im + s2.im); c += alpha * t` is one scalar
/// code path every kernel of the type funnels through, which is what
/// makes all dispatch paths bitwise identical.
macro_rules! complex_kernels {
    ($combine:ident, $scalar_fn:ident, $ct:ty, $ft:ty, $mk:path, $mr:expr, $nr:expr) => {
        /// Combine the two spilled accumulator chains and write the
        /// `mr_eff x nr_eff` corner back: shared by the scalar and SIMD
        /// tiles of this complex type (see the module's complex
        /// contract). `s1`/`s2` hold interleaved `(re, im)` pairs,
        /// column `jj` at offset `jj * 2 * mr`.
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn $combine(
            s1: &[$ft],
            s2: &[$ft],
            mr: usize,
            alpha: $ct,
            c: &mut [$ct],
            ldc: usize,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            for jj in 0..nr_eff {
                for ii in 0..mr_eff {
                    let o = jj * 2 * mr + 2 * ii;
                    let t = $mk(s1[o] - s2[o], s1[o + 1] + s2[o + 1]);
                    c[ii + jj * ldc] += alpha * t;
                }
            }
        }

        /// Portable complex tile: the dual-accumulator chains on scalar
        /// component `mul_add`, also the differential oracle for this
        /// type's SIMD tiles.
        #[allow(clippy::too_many_arguments)]
        fn $scalar_fn(
            kc: usize,
            alpha: $ct,
            ap: &[$ct],
            bp: &[$ct],
            c: &mut [$ct],
            ldc: usize,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            const MR: usize = $mr;
            const NR: usize = $nr;
            let mut s1 = [0.0 as $ft; 2 * MR * NR];
            let mut s2 = [0.0 as $ft; 2 * MR * NR];
            let (achunks, _) = ap.as_chunks::<MR>();
            let (bchunks, _) = bp.as_chunks::<NR>();
            for p in 0..kc {
                let av: &[$ct; MR] = &achunks[p];
                let bv: &[$ct; NR] = &bchunks[p];
                for jj in 0..NR {
                    let b = bv[jj];
                    for ii in 0..MR {
                        let a = av[ii];
                        let o = jj * 2 * MR + 2 * ii;
                        s1[o] = a.re.mul_add(b.re, s1[o]);
                        s1[o + 1] = a.im.mul_add(b.re, s1[o + 1]);
                        s2[o] = a.im.mul_add(b.im, s2[o]);
                        s2[o + 1] = a.re.mul_add(b.im, s2[o + 1]);
                    }
                }
            }
            $combine(&s1, &s2, MR, alpha, c, ldc, mr_eff, nr_eff);
        }
    };
}

complex_kernels!(combine_c64, mk_scalar_c64, C64, f64, c64, 8, 4);
complex_kernels!(combine_c32, mk_scalar_c32, C32, f32, c32, 8, 4);

/// Safe entry for the `C64` AVX-512 tile.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx512_c64_entry(
    kc: usize,
    alpha: C64,
    ap: &[C64],
    bp: &[C64],
    c: &mut [C64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 8 * kc && bp.len() >= 4 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    // SAFETY: only reachable through the AVX512_C64 kernel descriptor,
    // registered iff `is_x86_feature_detected!("avx512f")`; slice
    // bounds asserted above, and the writeback goes through the
    // bounds-checked scalar combine.
    unsafe { mk_avx512_c64_8x4(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 8x4 AVX-512F `C64` tile on the dual-accumulator contract: chain 1 is
/// `fmadd(a, set1(b.re))` on the interleaved vector (2 zmm = 8 complex
/// rows), chain 2 is `fmadd(pair_swap(a), set1(b.im))` where the pair
/// swap is `_mm512_permute_pd::<0x55>`. 16 accumulator zmm + the two
/// `A` vectors, their swaps, and two broadcasts ≈ 22 of 32 registers;
/// 16 FMAs per `k` step against 12 load-port ops, so the loop is
/// FMA-bound. Accumulators are unconditionally spilled to stack buffers
/// and combined in scalar code ([`combine_c64`]) — the cost is ~0.4% of
/// the FMA work at `kc = 256` and it buys bitwise identity with the
/// scalar tile on every path, full tiles included.
///
/// # Safety
///
/// Caller must guarantee the `avx512f` target feature is available and
/// that `ap.len() >= 8*kc` and `bp.len() >= 4*kc` (`C64` is a
/// `#[repr(C)]` `(re, im)` pair, so the strips are read as interleaved
/// `f64` at twice the element count).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx512_c64_8x4(
    kc: usize,
    alpha: C64,
    ap: &[C64],
    bp: &[C64],
    c: &mut [C64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 4;
    // SAFETY: `C64` is `#[repr(C)] { re: f64, im: f64 }`, so `ap`/`bp`
    // reinterpret as `2 * len` interleaved f64; reads stay at
    // `p*16 + 0..16` (`ap`) and `p*8 + 0..8` (`bp`) for p < kc, inside
    // the bounds the safe entry asserted. `c` is only written through
    // the bounds-checked scalar combine.
    unsafe {
        let apf = ap.as_ptr() as *const f64;
        let bpf = bp.as_ptr() as *const f64;
        let mut acc1 = [[_mm512_setzero_pd(); 2]; NR];
        let mut acc2 = [[_mm512_setzero_pd(); 2]; NR];
        for p in 0..kc {
            let a0 = _mm512_loadu_pd(apf.add(2 * MR * p));
            let a1 = _mm512_loadu_pd(apf.add(2 * MR * p + 8));
            let a0s = _mm512_permute_pd::<0x55>(a0);
            let a1s = _mm512_permute_pd::<0x55>(a1);
            let bb = bpf.add(2 * NR * p);
            for jj in 0..NR {
                let br = _mm512_set1_pd(*bb.add(2 * jj));
                let bi = _mm512_set1_pd(*bb.add(2 * jj + 1));
                acc1[jj][0] = _mm512_fmadd_pd(a0, br, acc1[jj][0]);
                acc1[jj][1] = _mm512_fmadd_pd(a1, br, acc1[jj][1]);
                acc2[jj][0] = _mm512_fmadd_pd(a0s, bi, acc2[jj][0]);
                acc2[jj][1] = _mm512_fmadd_pd(a1s, bi, acc2[jj][1]);
            }
        }
        let mut s1 = [0.0f64; 2 * MR * NR];
        let mut s2 = [0.0f64; 2 * MR * NR];
        for jj in 0..NR {
            for q in 0..2 {
                _mm512_storeu_pd(s1.as_mut_ptr().add(jj * 2 * MR + 8 * q), acc1[jj][q]);
                _mm512_storeu_pd(s2.as_mut_ptr().add(jj * 2 * MR + 8 * q), acc2[jj][q]);
            }
        }
        combine_c64(&s1, &s2, MR, alpha, c, ldc, mr_eff, nr_eff);
    }
}

/// Safe entry for the `C64` AVX2 tile.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx2_c64_entry(
    kc: usize,
    alpha: C64,
    ap: &[C64],
    bp: &[C64],
    c: &mut [C64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 2 * kc && bp.len() >= 6 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    // SAFETY: only reachable through the AVX2_C64 kernel descriptor,
    // registered iff `avx2` and `fma` are detected; slice bounds
    // asserted above, writeback through the bounds-checked scalar
    // combine.
    unsafe { mk_avx2_c64_2x6(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 2x6 AVX2+FMA `C64` tile on the dual-accumulator contract (pair swap
/// via `_mm256_permute_pd::<0x5>`): 12 accumulator ymm + the `A`
/// vector, its swap, and two broadcasts fill the 16-register file.
///
/// # Safety
///
/// Caller must guarantee the `avx2` and `fma` target features are
/// available and that `ap.len() >= 2*kc` and `bp.len() >= 6*kc`
/// (strips read as interleaved `f64`, see [`mk_avx512_c64_8x4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx2_c64_2x6(
    kc: usize,
    alpha: C64,
    ap: &[C64],
    bp: &[C64],
    c: &mut [C64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 2;
    const NR: usize = 6;
    // SAFETY: strips reinterpret as interleaved f64 (`C64` is
    // `#[repr(C)]`); reads stay at `p*4 + 0..4` (`ap`) and
    // `p*12 + 0..12` (`bp`) for p < kc, inside the asserted bounds.
    unsafe {
        let apf = ap.as_ptr() as *const f64;
        let bpf = bp.as_ptr() as *const f64;
        let mut acc1 = [_mm256_setzero_pd(); NR];
        let mut acc2 = [_mm256_setzero_pd(); NR];
        for p in 0..kc {
            let a = _mm256_loadu_pd(apf.add(2 * MR * p));
            let asw = _mm256_permute_pd::<0x5>(a);
            let bb = bpf.add(2 * NR * p);
            for jj in 0..NR {
                let br = _mm256_broadcast_sd(&*bb.add(2 * jj));
                let bi = _mm256_broadcast_sd(&*bb.add(2 * jj + 1));
                acc1[jj] = _mm256_fmadd_pd(a, br, acc1[jj]);
                acc2[jj] = _mm256_fmadd_pd(asw, bi, acc2[jj]);
            }
        }
        let mut s1 = [0.0f64; 2 * MR * NR];
        let mut s2 = [0.0f64; 2 * MR * NR];
        for jj in 0..NR {
            _mm256_storeu_pd(s1.as_mut_ptr().add(jj * 2 * MR), acc1[jj]);
            _mm256_storeu_pd(s2.as_mut_ptr().add(jj * 2 * MR), acc2[jj]);
        }
        combine_c64(&s1, &s2, MR, alpha, c, ldc, mr_eff, nr_eff);
    }
}

/// Safe entry for the `C32` AVX-512 tile.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx512_c32_entry(
    kc: usize,
    alpha: C32,
    ap: &[C32],
    bp: &[C32],
    c: &mut [C32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 16 * kc && bp.len() >= 4 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    // SAFETY: only reachable through the AVX512_C32 kernel descriptor,
    // registered iff `is_x86_feature_detected!("avx512f")`; slice
    // bounds asserted above, writeback through the bounds-checked
    // scalar combine.
    unsafe { mk_avx512_c32_16x4(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 16x4 AVX-512F `C32` tile: the `C64` 8x4 dual-accumulator shape at 16
/// `f32` lanes per zmm (pair swap via `_mm512_permute_ps::<0xB1>`).
///
/// # Safety
///
/// Caller must guarantee the `avx512f` target feature is available and
/// that `ap.len() >= 16*kc` and `bp.len() >= 4*kc` (`C32` is a
/// `#[repr(C)]` `(re, im)` pair, so strips are read as interleaved
/// `f32` at twice the element count).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx512_c32_16x4(
    kc: usize,
    alpha: C32,
    ap: &[C32],
    bp: &[C32],
    c: &mut [C32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 16;
    const NR: usize = 4;
    // SAFETY: strips reinterpret as interleaved f32 (`C32` is
    // `#[repr(C)]`); reads stay at `p*32 + 0..32` (`ap`) and
    // `p*8 + 0..8` (`bp`) for p < kc, inside the asserted bounds.
    unsafe {
        let apf = ap.as_ptr() as *const f32;
        let bpf = bp.as_ptr() as *const f32;
        let mut acc1 = [[_mm512_setzero_ps(); 2]; NR];
        let mut acc2 = [[_mm512_setzero_ps(); 2]; NR];
        for p in 0..kc {
            let a0 = _mm512_loadu_ps(apf.add(2 * MR * p));
            let a1 = _mm512_loadu_ps(apf.add(2 * MR * p + 16));
            let a0s = _mm512_permute_ps::<0xB1>(a0);
            let a1s = _mm512_permute_ps::<0xB1>(a1);
            let bb = bpf.add(2 * NR * p);
            for jj in 0..NR {
                let br = _mm512_set1_ps(*bb.add(2 * jj));
                let bi = _mm512_set1_ps(*bb.add(2 * jj + 1));
                acc1[jj][0] = _mm512_fmadd_ps(a0, br, acc1[jj][0]);
                acc1[jj][1] = _mm512_fmadd_ps(a1, br, acc1[jj][1]);
                acc2[jj][0] = _mm512_fmadd_ps(a0s, bi, acc2[jj][0]);
                acc2[jj][1] = _mm512_fmadd_ps(a1s, bi, acc2[jj][1]);
            }
        }
        let mut s1 = [0.0f32; 2 * MR * NR];
        let mut s2 = [0.0f32; 2 * MR * NR];
        for jj in 0..NR {
            for q in 0..2 {
                _mm512_storeu_ps(s1.as_mut_ptr().add(jj * 2 * MR + 16 * q), acc1[jj][q]);
                _mm512_storeu_ps(s2.as_mut_ptr().add(jj * 2 * MR + 16 * q), acc2[jj][q]);
            }
        }
        combine_c32(&s1, &s2, MR, alpha, c, ldc, mr_eff, nr_eff);
    }
}

/// Safe entry for the `C32` AVX2 tile.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn mk_avx2_c32_entry(
    kc: usize,
    alpha: C32,
    ap: &[C32],
    bp: &[C32],
    c: &mut [C32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        ap.len() >= 4 * kc && bp.len() >= 6 * kc,
        "packed strip too short"
    );
    assert!(
        c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
        "C tile out of bounds"
    );
    // SAFETY: only reachable through the AVX2_C32 kernel descriptor,
    // registered iff `avx2` and `fma` are detected; slice bounds
    // asserted above, writeback through the bounds-checked scalar
    // combine.
    unsafe { mk_avx2_c32_4x6(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
}

/// 4x6 AVX2+FMA `C32` tile: the `C64` 2x6 dual-accumulator shape at 8
/// `f32` lanes per ymm (pair swap via `_mm256_permute_ps::<0xB1>`).
///
/// # Safety
///
/// Caller must guarantee the `avx2` and `fma` target features are
/// available and that `ap.len() >= 4*kc` and `bp.len() >= 6*kc`
/// (strips read as interleaved `f32`, see [`mk_avx512_c32_16x4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx2_c32_4x6(
    kc: usize,
    alpha: C32,
    ap: &[C32],
    bp: &[C32],
    c: &mut [C32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 4;
    const NR: usize = 6;
    // SAFETY: strips reinterpret as interleaved f32 (`C32` is
    // `#[repr(C)]`); reads stay at `p*8 + 0..8` (`ap`) and
    // `p*12 + 0..12` (`bp`) for p < kc, inside the asserted bounds.
    unsafe {
        let apf = ap.as_ptr() as *const f32;
        let bpf = bp.as_ptr() as *const f32;
        let mut acc1 = [_mm256_setzero_ps(); NR];
        let mut acc2 = [_mm256_setzero_ps(); NR];
        for p in 0..kc {
            let a = _mm256_loadu_ps(apf.add(2 * MR * p));
            let asw = _mm256_permute_ps::<0xB1>(a);
            let bb = bpf.add(2 * NR * p);
            for jj in 0..NR {
                let br = _mm256_broadcast_ss(&*bb.add(2 * jj));
                let bi = _mm256_broadcast_ss(&*bb.add(2 * jj + 1));
                acc1[jj] = _mm256_fmadd_ps(a, br, acc1[jj]);
                acc2[jj] = _mm256_fmadd_ps(asw, bi, acc2[jj]);
            }
        }
        let mut s1 = [0.0f32; 2 * MR * NR];
        let mut s2 = [0.0f32; 2 * MR * NR];
        for jj in 0..NR {
            _mm256_storeu_ps(s1.as_mut_ptr().add(jj * 2 * MR), acc1[jj]);
            _mm256_storeu_ps(s2.as_mut_ptr().add(jj * 2 * MR), acc2[jj]);
        }
        combine_c32(&s1, &s2, MR, alpha, c, ldc, mr_eff, nr_eff);
    }
}

// ---------------------------------------------------------------------------
// Diamond kernel
// ---------------------------------------------------------------------------

/// Signature of the fused diamond kernel of the back-transform: `C <- (I
/// - V T V^H) C` for one diamond block reflector, `C` the `h x n` block
/// at leading dimension `ldc`. `V` is `h x k` (leading dimension `ldv`):
/// column `p` holds its reflector on rows `p .. min(p + band, h)`, the
/// unit diagonal stored, and zeros on every other row — the
/// parallelogram the diamond builder lays out. `T` is the `k x k` upper
/// triangular factor (leading dimension `ldt`; its strictly lower part
/// is never read). `work` holds at least `k * n` elements.
pub type DiamondFn<T = f64> = fn(
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
);

/// Rows of `V` one pass of [`diamond_body`] transposes into its stack
/// tile; a taller diamond is transposed again for every column block.
const DIAMOND_TILE_ROWS: usize = 128;

/// A vector of [`Lanes::N`] components: the unit [`diamond_body`] is
/// written over, so one loop nest serves every ISA and element type.
/// Complex elements are interleaved `(re, im)` component pairs.
///
/// # Safety
///
/// Every method executes the implementing type's ISA, so it may only run
/// where that ISA is available (the portable [`Port`] needs none).
trait Lanes: Copy {
    /// Component type (`f64` or `f32`).
    type F: Copy + Default + std::ops::Neg<Output = Self::F>;
    /// Components per vector.
    const N: usize;
    /// # Safety: see [`Lanes`].
    unsafe fn splat(x: Self::F) -> Self;
    /// # Safety: see [`Lanes`]; `p` is readable for `N` components.
    unsafe fn load(p: *const Self::F) -> Self;
    /// # Safety: see [`Lanes`]; `p` is writable for `N` components.
    unsafe fn store(self, p: *mut Self::F);
    /// The first `m < N` components at `p`, zeros in the other lanes.
    /// # Safety: see [`Lanes`]; `p` is readable for `m` components.
    unsafe fn load_part(p: *const Self::F, m: usize) -> Self;
    /// Store the first `m < N` components at `p`.
    /// # Safety: see [`Lanes`]; `p` is writable for `m` components.
    unsafe fn store_part(self, p: *mut Self::F, m: usize);
    /// `self * b + c` with one rounding. # Safety: see [`Lanes`].
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// # Safety: see [`Lanes`].
    unsafe fn sub(self, b: Self) -> Self;
    /// Even lanes `self - b`, odd lanes `self + b`: the complex combine
    /// `(s1.re - s2.re, s1.im + s2.im)`. # Safety: see [`Lanes`].
    unsafe fn addsub(self, b: Self) -> Self;
    /// Swap every `(re, im)` pair. # Safety: see [`Lanes`].
    unsafe fn swap_pairs(self) -> Self;
}

/// [`Lanes`] for one `std::arch` vector type, from its intrinsics.
macro_rules! simd_lanes {
    ($v:ty, $f:ty, $n:expr, $splat:ident, $load:ident, $store:ident, $fmadd:ident, $sub:ident,
     |$a:ident, $b:ident| $addsub:expr, |$x:ident| $swap:expr,
     |$lp:ident, $lm:ident| $load_part:expr, |$sx:ident, $sp:ident, $sm:ident| $store_part:expr) => {
        #[cfg(target_arch = "x86_64")]
        impl Lanes for $v {
            type F = $f;
            const N: usize = $n;
            /// # Safety: see [`Lanes`].
            #[inline(always)]
            unsafe fn splat(x: $f) -> Self {
                $splat(x)
            }
            /// # Safety: see [`Lanes::load`].
            #[inline(always)]
            unsafe fn load(p: *const $f) -> Self {
                $load(p)
            }
            /// # Safety: see [`Lanes::store`].
            #[inline(always)]
            unsafe fn store(self, p: *mut $f) {
                $store(p, self)
            }
            /// # Safety: see [`Lanes::load_part`].
            #[inline(always)]
            unsafe fn load_part($lp: *const $f, $lm: usize) -> Self {
                $load_part
            }
            /// # Safety: see [`Lanes::store_part`].
            #[inline(always)]
            unsafe fn store_part(self, $sp: *mut $f, $sm: usize) {
                let $sx = self;
                $store_part
            }
            /// # Safety: see [`Lanes`].
            #[inline(always)]
            unsafe fn fmadd(self, b: Self, c: Self) -> Self {
                $fmadd(self, b, c)
            }
            /// # Safety: see [`Lanes`].
            #[inline(always)]
            unsafe fn sub(self, b: Self) -> Self {
                $sub(self, b)
            }
            /// # Safety: see [`Lanes`].
            #[inline(always)]
            unsafe fn addsub(self, b: Self) -> Self {
                let ($a, $b) = (self, b);
                $addsub
            }
            /// # Safety: see [`Lanes`].
            #[inline(always)]
            unsafe fn swap_pairs(self) -> Self {
                let $x = self;
                $swap
            }
        }
    };
}

// Partial loads and stores are masked: a masked-off lane is neither
// read nor written, so they never touch memory past `m`.
simd_lanes!(
    __m512d,
    f64,
    8,
    _mm512_set1_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_fmadd_pd,
    _mm512_sub_pd,
    |a, b| _mm512_mask_sub_pd(_mm512_add_pd(a, b), 0x55, a, b),
    |x| _mm512_permute_pd::<0x55>(x),
    |p, m| _mm512_maskz_loadu_pd(((1u32 << m) - 1) as __mmask8, p),
    |x, p, m| _mm512_mask_storeu_pd(p, ((1u32 << m) - 1) as __mmask8, x)
);
simd_lanes!(
    __m512,
    f32,
    16,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_fmadd_ps,
    _mm512_sub_ps,
    |a, b| _mm512_mask_sub_ps(_mm512_add_ps(a, b), 0x5555, a, b),
    |x| _mm512_permute_ps::<0xB1>(x),
    |p, m| _mm512_maskz_loadu_ps(((1u32 << m) - 1) as __mmask16, p),
    |x, p, m| _mm512_mask_storeu_ps(p, ((1u32 << m) - 1) as __mmask16, x)
);
simd_lanes!(
    __m256d,
    f64,
    4,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_fmadd_pd,
    _mm256_sub_pd,
    |a, b| _mm256_addsub_pd(a, b),
    |x| _mm256_permute_pd::<0b0101>(x),
    |p, m| _mm256_maskload_pd(p, mask_epi64(m)),
    |x, p, m| _mm256_maskstore_pd(p, mask_epi64(m), x)
);
simd_lanes!(
    __m256,
    f32,
    8,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_fmadd_ps,
    _mm256_sub_ps,
    |a, b| _mm256_addsub_ps(a, b),
    |x| _mm256_permute_ps::<0xB1>(x),
    |p, m| _mm256_maskload_ps(p, mask_epi32(m)),
    |x, p, m| _mm256_maskstore_ps(p, mask_epi32(m), x)
);

/// AVX2 lane mask of the first `m` of four 64-bit lanes.
///
/// # Safety
///
/// AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn mask_epi64(m: usize) -> __m256i {
    let m = i64::try_from(m).unwrap_or(i64::MAX);
    _mm256_cmpgt_epi64(_mm256_set1_epi64x(m), _mm256_setr_epi64x(0, 1, 2, 3))
}

/// AVX2 lane mask of the first `m` of eight 32-bit lanes.
///
/// # Safety
///
/// AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn mask_epi32(m: usize) -> __m256i {
    let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    _mm256_cmpgt_epi32(_mm256_set1_epi32(i32::try_from(m).unwrap_or(i32::MAX)), idx)
}

/// Portable lanes: a plain array, every operation lane by lane with the
/// component type's `mul_add`, `-` and `+` — the scalar body of every
/// element type, bit for bit the same arithmetic as the SIMD lanes.
#[derive(Clone, Copy)]
struct Port<F, const N: usize>([F; N]);

/// [`Lanes`] for [`Port`] at one component type.
macro_rules! port_lanes {
    ($f:ty, $n:expr) => {
        impl Lanes for Port<$f, $n> {
            type F = $f;
            const N: usize = $n;
            /// # Safety: none.
            #[inline(always)]
            unsafe fn splat(x: $f) -> Self {
                Port([x; $n])
            }
            /// # Safety: see [`Lanes::load`].
            #[inline(always)]
            unsafe fn load(p: *const $f) -> Self {
                Port(p.cast::<[$f; $n]>().read_unaligned())
            }
            /// # Safety: see [`Lanes::store`].
            #[inline(always)]
            unsafe fn store(self, p: *mut $f) {
                p.cast::<[$f; $n]>().write_unaligned(self.0)
            }
            /// # Safety: see [`Lanes::load_part`].
            #[inline(always)]
            unsafe fn load_part(p: *const $f, m: usize) -> Self {
                let mut x = [<$f>::default(); $n];
                std::ptr::copy_nonoverlapping(p, x.as_mut_ptr(), m);
                Port(x)
            }
            /// # Safety: see [`Lanes::store_part`].
            #[inline(always)]
            unsafe fn store_part(self, p: *mut $f, m: usize) {
                std::ptr::copy_nonoverlapping(self.0.as_ptr(), p, m);
            }
            /// # Safety: none.
            #[inline(always)]
            unsafe fn fmadd(self, b: Self, c: Self) -> Self {
                let mut r = c.0;
                for (i, ri) in r.iter_mut().enumerate() {
                    *ri = self.0[i].mul_add(b.0[i], *ri);
                }
                Port(r)
            }
            /// # Safety: none.
            #[inline(always)]
            unsafe fn sub(self, b: Self) -> Self {
                let mut r = self.0;
                for (ri, bi) in r.iter_mut().zip(b.0) {
                    *ri -= bi;
                }
                Port(r)
            }
            /// # Safety: none.
            #[inline(always)]
            unsafe fn addsub(self, b: Self) -> Self {
                let lane = |i: usize| {
                    if i % 2 == 0 {
                        self.0[i] - b.0[i]
                    } else {
                        self.0[i] + b.0[i]
                    }
                };
                Port(std::array::from_fn(lane))
            }
            /// # Safety: none.
            #[inline(always)]
            unsafe fn swap_pairs(self) -> Self {
                Port(std::array::from_fn(|i| self.0[i ^ 1]))
            }
        }
    };
}

port_lanes!(f64, 4);
port_lanes!(f32, 8);

/// Load the first `m` components at `p`, zeros in the other lanes.
///
/// # Safety
///
/// [`Lanes`] ISA; `p` readable for `m.min(N)` components.
#[inline(always)]
unsafe fn load_n<V: Lanes>(p: *const V::F, m: usize) -> V {
    if m >= V::N {
        V::load(p)
    } else {
        V::load_part(p, m)
    }
}

/// Store the first `m` components of `x` at `p`.
///
/// # Safety
///
/// [`Lanes`] ISA; `p` writable for `m.min(N)` components.
#[inline(always)]
unsafe fn store_n<V: Lanes>(x: V, p: *mut V::F, m: usize) {
    if m >= V::N {
        x.store(p)
    } else {
        x.store_part(p, m)
    }
}

/// Vectors `QLO .. QHI` of a `KV`-vector block of `valid` consecutive
/// elements at `p` (`E` components each), zero-filled past `valid`; the
/// other vectors are left zero and never read.
///
/// # Safety
///
/// [`Lanes`] ISA; `p` readable for `valid.min(QHI * N / E)` elements.
#[inline(always)]
unsafe fn load_block<
    V: Lanes,
    const E: usize,
    const KV: usize,
    const QLO: usize,
    const QHI: usize,
>(
    p: *const V::F,
    valid: usize,
) -> [V; KV] {
    let lanes = V::N / E;
    let mut x = [V::splat(V::F::default()); KV];
    for (q, xq) in x.iter_mut().enumerate().take(QHI).skip(QLO) {
        let m = valid.saturating_sub(q * lanes).min(lanes);
        if m > 0 {
            *xq = load_n(p.add(q * V::N), m * E);
        }
    }
    x
}

/// Write one accumulator column of a register block to `valid`
/// consecutive elements at `p`: the chains combined (complex: `s1 ∓ s2`
/// by lane), then stored, or subtracted from what `p` holds when `sub`.
///
/// # Safety
///
/// [`Lanes`] ISA; `p` readable and writable for `valid.min(KV * N / E)`
/// elements.
#[inline(always)]
unsafe fn put_block<V: Lanes, const E: usize, const KV: usize>(
    s1: &[V; KV],
    s2: &[V; KV],
    p: *mut V::F,
    valid: usize,
    sub: bool,
) {
    let lanes = V::N / E;
    for q in 0..KV {
        let m = valid.saturating_sub(q * lanes).min(lanes) * E;
        if m == 0 {
            break;
        }
        let s = if E == 2 { s1[q].addsub(s2[q]) } else { s1[q] };
        let dst = p.add(q * V::N);
        let x = if sub { load_n::<V>(dst, m).sub(s) } else { s };
        store_n(x, dst, m);
    }
}

/// The accumulators of a `KV`-vector by `NR`-column register block: one
/// chain per element, two for complex elements (the GEMM's dual-chain
/// contract).
struct Acc<V, const KV: usize, const NR: usize> {
    s1: [[V; KV]; NR],
    s2: [[V; KV]; NR],
}

impl<V: Lanes, const KV: usize, const NR: usize> Acc<V, KV, NR> {
    /// All chains at `+0`.
    ///
    /// # Safety
    ///
    /// [`Lanes`] ISA.
    #[inline(always)]
    unsafe fn zero() -> Self {
        let z = [[V::splat(V::F::default()); KV]; NR];
        Acc { s1: z, s2: z }
    }

    /// One step of the chains of vectors `QLO .. QHI`: `s1[j] += a *
    /// b_j.re`, and for complex elements also `s2[j] += swap(a) *
    /// b_j.im`, where `b(j)` points at element `b_j`.
    ///
    /// # Safety
    ///
    /// [`Lanes`] ISA; every `b(j)` readable for `E` components.
    #[inline(always)]
    unsafe fn step<const E: usize, const QLO: usize, const QHI: usize>(
        &mut self,
        a: &[V; KV],
        b: impl Fn(usize) -> *const V::F,
    ) {
        let sw: [V; KV] = std::array::from_fn(|q| if E == 2 { a[q].swap_pairs() } else { a[q] });
        let live = QLO..QHI.min(KV);
        for jj in 0..NR {
            let p = b(jj);
            let br = V::splat(*p);
            for (s, x) in self.s1[jj][live.clone()].iter_mut().zip(&a[live.clone()]) {
                *s = x.fmadd(br, *s);
            }
            if E == 2 {
                let bi = V::splat(*p.add(1));
                for (s, x) in self.s2[jj][live.clone()].iter_mut().zip(&sw[live.clone()]) {
                    *s = x.fmadd(bi, *s);
                }
            }
        }
    }
}

/// The rows of `lo .. hi` on which exactly vectors `QLO .. QHI` of a
/// register block are active, vector `q` being active on `st[q] ..
/// en[q]` (both nondecreasing in `q`, so every row's active vectors are
/// a range); empty when `QHI > KV`.
#[inline(always)]
fn span<const KV: usize, const QLO: usize, const QHI: usize>(
    st: &[usize; KV],
    en: &[usize; KV],
    lo: usize,
    hi: usize,
) -> (usize, usize) {
    if QHI > KV {
        return (lo, lo);
    }
    let a = st[QHI - 1]
        .max(if QLO == 0 { lo } else { en[QLO - 1] })
        .max(lo);
    let b = st
        .get(QHI)
        .copied()
        .unwrap_or(usize::MAX)
        .min(en[QLO])
        .min(hi);
    (a, b.max(a))
}

/// Run `$f::<generics.., QLO, QHI>(.., a, b, ..)` over every span of
/// `lo .. hi` (`KV <= 3`), with the span's active vectors as const
/// generics so only their accumulators are touched. Both ends of the
/// active range only grow with the row, so the spans in this fixed
/// order ascend: every chain still steps in ascending order.
macro_rules! each_span {
    ($st:expr, $en:expr, $lo:expr, $hi:expr, $kv:ident, |$a:ident, $b:ident| $f:ident::<$($g:ident),*>($($arg:expr),* $(,)?)) => {{
        each_span!(@one 0, 1, $st, $en, $lo, $hi, $kv, $a, $b, $f, [$($g),*], [$($arg),*]);
        each_span!(@one 0, 2, $st, $en, $lo, $hi, $kv, $a, $b, $f, [$($g),*], [$($arg),*]);
        each_span!(@one 0, 3, $st, $en, $lo, $hi, $kv, $a, $b, $f, [$($g),*], [$($arg),*]);
        each_span!(@one 1, 2, $st, $en, $lo, $hi, $kv, $a, $b, $f, [$($g),*], [$($arg),*]);
        each_span!(@one 1, 3, $st, $en, $lo, $hi, $kv, $a, $b, $f, [$($g),*], [$($arg),*]);
        each_span!(@one 2, 3, $st, $en, $lo, $hi, $kv, $a, $b, $f, [$($g),*], [$($arg),*]);
    }};
    (@one $qlo:literal, $qhi:literal, $st:expr, $en:expr, $lo:expr, $hi:expr, $kv:ident, $a:ident, $b:ident, $f:ident, [$($g:ident),*], [$($arg:expr),*]) => {
        let ($a, $b) = span::<$kv, $qlo, $qhi>(&$st, &$en, $lo, $hi);
        if $a < $b {
            $f::<$($g),*, $qlo, $qhi>($($arg),*);
        }
    };
}

/// Step 1 over rows `a .. b` of `V^H`, tile row `i - t0` holding row
/// `i`: every active chain of the column block steps once per row
/// against the broadcast `C(i, j)`.
///
/// # Safety
///
/// [`Lanes`] ISA; the tile rows are written; `cols[j]` is column `j` of
/// `C`, readable on rows `a .. b`.
#[inline(always)]
unsafe fn vh_rows<
    V: Lanes,
    const E: usize,
    const KV: usize,
    const NR: usize,
    const QLO: usize,
    const QHI: usize,
>(
    acc: &mut Acc<V, KV, NR>,
    tile: *const [V; KV],
    t0: usize,
    a: usize,
    b: usize,
    cols: &[*const V::F; NR],
) {
    for i in a..b {
        acc.step::<E, QLO, QHI>(&*tile.add(i - t0), |jj| cols[jj].add(i * E));
    }
}

/// Steps 2 and 3 over columns `a .. b` of `M` (`T` or `V`): every active
/// chain of the row block steps once per column `p`, against the
/// column's segment at `m + p * ldm` (its first `valid(p)` elements) and
/// the broadcast `W(p, j)`.
///
/// # Safety
///
/// [`Lanes`] ISA; each segment readable for `valid(p)` elements; `w[j]`
/// is column `j` of `W`, readable on rows `a .. b`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn m_cols<
    V: Lanes,
    const E: usize,
    const KV: usize,
    const NR: usize,
    const QLO: usize,
    const QHI: usize,
>(
    acc: &mut Acc<V, KV, NR>,
    m: *const V::F,
    ldm: usize,
    valid: impl Fn(usize) -> usize,
    a: usize,
    b: usize,
    w: &[*mut V::F; NR],
) {
    for p in a..b {
        let x = load_block::<V, E, KV, QLO, QHI>(m.add(p * ldm * E), valid(p));
        acc.step::<E, QLO, QHI>(&x, |jj| w[jj].add(p * E).cast_const());
    }
}

/// Rows `r0 .. r1` of `V^H` restricted to columns `c0 .. c1`, one tile
/// row of `KV` vectors per row of `V`, zero past `c1`.
///
/// # Safety
///
/// [`Lanes`] ISA; `tile` writable for `r1 - r0` rows; `v` covers those
/// rows and columns at `ldv`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn fill_tile<V: Lanes, const E: usize, const KV: usize>(
    tile: *mut [V; KV],
    v: *const V::F,
    ldv: usize,
    c0: usize,
    c1: usize,
    r0: usize,
    r1: usize,
) {
    let lanes = V::N / E;
    for i in r0..r1 {
        let row: [V; KV] = std::array::from_fn(|q| {
            let mut buf = [V::F::default(); 16];
            for e in 0..lanes {
                let p = c0 + q * lanes + e;
                if p < c1 {
                    let src = v.add((i + p * ldv) * E);
                    buf[e * E] = *src;
                    if E == 2 {
                        buf[e * E + 1] = -*src.add(1);
                    }
                }
            }
            V::load(buf.as_ptr())
        });
        tile.add(i - r0).write(row);
    }
}

/// The one loop nest of every [`DiamondFn`] body, `C <- C - V (T (V^H
/// C))`, over `NR`-column blocks of `C`, with `KV`-vector register
/// blocks of `KV * N / E` elements:
///
/// 1. `W = V^H C` into `w` (`k x n`, leading dimension `k`): per block
///    of `V`'s columns, rows of `V^H` are transposed once into a stack
///    tile, and each column block of `C` accumulates its `W` rows in
///    registers over `V`'s rows, broadcasting `C(i, j)`.
/// 2. `W <- T W` in place, per column block: `T`'s column segments
///    against broadcast `W(l, j)`, `l` ascending, row blocks of `W`
///    ascending so every `W(l, j)` is read before it is overwritten.
/// 3. `C -= V W`, per row block of `C`: `V`'s column segments against
///    broadcast `W(p, j)`, `p` ascending.
///
/// Every output element is one FMA chain (two for complex elements, the
/// GEMM's dual-chain contract, combined once at the end) started from
/// `+0` and run in ascending order over its index range; `C` is
/// updated by one subtraction at the end. The blockings only decide
/// which of `V`'s stored zeros (and `T`'s masked lower lanes) join a
/// chain, never which nonzero terms or in what order — and a zero term
/// leaves a chain started from `+0` unchanged for finite data — so the
/// bits do not depend on `KV`, `NR` or the ISA. The index ranges skip
/// every vector of a register block that holds only zeros ([`span`]):
/// rows above a vector's first diagonal or below its last column's end
/// in step 1, `T`'s rows below `l` in step 2, and columns whose support
/// misses a vector's rows in step 3; a vector at a triangle's edge still
/// multiplies its zeros.
///
/// # Safety
///
/// [`Lanes`] ISA; `k, n, band >= 1`, `h >= k`; `v` covers `h x k` at
/// `ldv >= h`, `t` covers `k x k` at `ldt >= k`, `c` covers `h x n` at
/// `ldc >= h` and `w` `k * n` elements, all counted in elements of `E`
/// components; `c` and `w` overlap nothing else.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn diamond_body<V: Lanes, const E: usize, const KV: usize, const NR: usize>(
    k: usize,
    h: usize,
    band: usize,
    v: *const V::F,
    ldv: usize,
    t: *const V::F,
    ldt: usize,
    c: *mut V::F,
    ldc: usize,
    n: usize,
    w: *mut V::F,
) {
    const { assert!(KV <= 3, "each_span! covers blocks of up to 3 vectors") };
    let lanes = V::N / E;
    let cb = KV * lanes;
    let mut tile_buf = std::mem::MaybeUninit::<[[V; KV]; DIAMOND_TILE_ROWS]>::uninit();
    let tile = tile_buf.as_mut_ptr().cast::<[V; KV]>();
    // Step 1: W = V^H C. Vector `q` of a column block covers columns
    // `c0 + q lanes ..`; its rows run from its first diagonal to the end
    // of its last column.
    for c0 in (0..k).step_by(cb) {
        let c1 = (c0 + cb).min(k);
        let live = |q: usize| c0 + q * lanes < c1;
        let st: [usize; KV] =
            std::array::from_fn(|q| if live(q) { c0 + q * lanes } else { usize::MAX });
        let en: [usize; KV] = std::array::from_fn(|q| {
            let last = (c0 + q * lanes + lanes).min(c1) - 1;
            if live(q) {
                h.min(last + band)
            } else {
                usize::MAX
            }
        });
        let (r0, r1) = (c0, h.min(c1 - 1 + band));
        let once = r1 - r0 <= DIAMOND_TILE_ROWS;
        if once {
            fill_tile::<V, E, KV>(tile, v, ldv, c0, c1, r0, r1);
        }
        for j0 in (0..n).step_by(NR) {
            let jn = NR.min(n - j0);
            let cols: [*const V::F; NR] =
                std::array::from_fn(|jj| c.add((j0 + jj.min(jn - 1)) * ldc * E).cast_const());
            let mut acc = Acc::<V, KV, NR>::zero();
            for q0 in (r0..r1).step_by(DIAMOND_TILE_ROWS) {
                let q1 = (q0 + DIAMOND_TILE_ROWS).min(r1);
                if !once {
                    fill_tile::<V, E, KV>(tile, v, ldv, c0, c1, q0, q1);
                }
                each_span!(st, en, q0, q1, KV, |a, b| vh_rows::<V, E, KV, NR>(
                    &mut acc, tile, q0, a, b, &cols
                ));
            }
            for jj in 0..jn {
                let dst = w.add((c0 + (j0 + jj) * k) * E);
                put_block::<V, E, KV>(&acc.s1[jj], &acc.s2[jj], dst, c1 - c0, false);
            }
        }
    }
    for j0 in (0..n).step_by(NR) {
        let jn = NR.min(n - j0);
        let wcol: [*mut V::F; NR] = std::array::from_fn(|jj| w.add((j0 + jj.min(jn - 1)) * k * E));
        // Step 2: W <- T W. Vector `q` of a row block joins at `l = c0 +
        // q lanes`, reading rows `c0 ..= l` of T's column `l`.
        for c0 in (0..k).step_by(cb) {
            let c1 = (c0 + cb).min(k);
            let live = |q: usize| c0 + q * lanes < c1;
            let st: [usize; KV] =
                std::array::from_fn(|q| if live(q) { c0 + q * lanes } else { usize::MAX });
            let en: [usize; KV] = std::array::from_fn(|q| if live(q) { k } else { usize::MAX });
            let mut acc = Acc::<V, KV, NR>::zero();
            let tc = t.add(c0 * E);
            let valid = |l: usize| (l + 1).min(c1) - c0;
            each_span!(st, en, c0, k, KV, |a, b| m_cols::<V, E, KV, NR>(
                &mut acc, tc, ldt, valid, a, b, &wcol
            ));
            for ((w, s1), s2) in wcol.iter().zip(&acc.s1).zip(&acc.s2).take(jn) {
                put_block::<V, E, KV>(s1, s2, w.add(c0 * E), c1 - c0, false);
            }
        }
        // Step 3: C -= V W. Vector `q` of a row block covers rows `i0 + q
        // lanes ..`; the columns whose support meets them run from the
        // first reaching its top row to the last starting at its bottom.
        for i0 in (0..h).step_by(cb) {
            let i1 = (i0 + cb).min(h);
            let live = |q: usize| i0 + q * lanes < i1;
            let st: [usize; KV] = std::array::from_fn(|q| {
                if live(q) {
                    (i0 + q * lanes + 1).saturating_sub(band)
                } else {
                    usize::MAX
                }
            });
            let en: [usize; KV] = std::array::from_fn(|q| {
                if live(q) {
                    (i0 + q * lanes + lanes).min(i1).min(k)
                } else {
                    usize::MAX
                }
            });
            let mut acc = Acc::<V, KV, NR>::zero();
            let vi = v.add(i0 * E);
            let valid = |_: usize| i1 - i0;
            each_span!(st, en, 0, k, KV, |a, b| m_cols::<V, E, KV, NR>(
                &mut acc, vi, ldv, valid, a, b, &wcol
            ));
            for jj in 0..jn {
                let dst = c.add((i0 + (j0 + jj) * ldc) * E);
                put_block::<V, E, KV>(&acc.s1[jj], &acc.s2[jj], dst, i1 - i0, true);
            }
        }
    }
}

/// A safe [`DiamondFn`] entry over one [`diamond_body`] instance: asserts
/// every bound the body relies on, then runs it — the portable body
/// directly, a SIMD body through a nested `unsafe fn` compiled for its
/// ISA.
macro_rules! diamond_entry {
    ($name:ident, $t:ty, $v:ty, $e:expr, $kv:expr, $nr:expr) => {
        diamond_entry!(@safe #[cfg(all())] $name, $t, diamond_body::<$v, $e, $kv, $nr>, {});
    };
    ($feat:literal, $name:ident, $t:ty, $v:ty, $e:expr, $kv:expr, $nr:expr) => {
        diamond_entry!(@safe #[cfg(target_arch = "x86_64")] $name, $t, body, {
            /// # Safety
            ///
            /// The CPU features this function enables are available;
            /// the pointer preconditions of [`diamond_body`].
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn body(
                k: usize,
                h: usize,
                band: usize,
                v: *const <$v as Lanes>::F,
                ldv: usize,
                t: *const <$v as Lanes>::F,
                ldt: usize,
                c: *mut <$v as Lanes>::F,
                ldc: usize,
                n: usize,
                w: *mut <$v as Lanes>::F,
            ) {
                diamond_body::<$v, $e, $kv, $nr>(k, h, band, v, ldv, t, ldt, c, ldc, n, w)
            }
        });
    };
    (@safe #[$cfg:meta] $name:ident, $t:ty, $body:expr, { $($item:item)* }) => {
        #[$cfg]
        #[allow(clippy::too_many_arguments)]
        fn $name(
            k: usize,
            h: usize,
            band: usize,
            v: &[$t],
            ldv: usize,
            t: &[$t],
            ldt: usize,
            c: &mut [$t],
            ldc: usize,
            n: usize,
            work: &mut [$t],
        ) {
            $($item)*
            if k == 0 || n == 0 {
                return;
            }
            assert!(h >= k && band >= 1, "diamond geometry");
            assert!(ldv >= h && ldt >= k && ldc >= h, "diamond leading dimension");
            assert!(v.len() >= (k - 1) * ldv + h, "diamond V out of bounds");
            assert!(t.len() >= (k - 1) * ldt + k, "diamond T out of bounds");
            assert!(c.len() >= (n - 1) * ldc + h, "diamond C out of bounds");
            assert!(work.len() >= k * n, "diamond workspace too short");
            let (v, t) = (v.as_ptr().cast(), t.as_ptr().cast());
            let (c, w) = (c.as_mut_ptr().cast(), work.as_mut_ptr().cast());
            // SAFETY: bounds asserted above; `c` and `work` are distinct
            // `&mut` borrows. A SIMD entry is only reachable through its
            // descriptor, which `available()` registers once the ISA is
            // detected.
            unsafe { $body(k, h, band, v, ldv, t, ldt, c, ldc, n, w) }
        }
    };
}

// Register blocks: `KV` vectors by `NR` columns, chosen so the
// accumulators, the `KV` operand vectors (and their pair swaps) and the
// broadcasts fit the register file — the AVX-512 `f64` block is the
// 24 x 8 GEMM tile.
diamond_entry!(diamond_scalar_f64, f64, Port<f64, 4>, 1, 3, 4);
diamond_entry!("avx2,fma", diamond_avx2_f64, f64, __m256d, 1, 3, 4);
diamond_entry!("avx512f", diamond_avx512_f64, f64, __m512d, 1, 3, 8);
diamond_entry!(diamond_scalar_f32, f32, Port<f32, 8>, 1, 3, 4);
diamond_entry!("avx2,fma", diamond_avx2_f32, f32, __m256, 1, 3, 4);
diamond_entry!("avx512f", diamond_avx512_f32, f32, __m512, 1, 2, 8);
diamond_entry!(diamond_scalar_c64, C64, Port<f64, 4>, 2, 2, 2);
diamond_entry!("avx2,fma", diamond_avx2_c64, C64, __m256d, 2, 2, 2);
diamond_entry!("avx512f", diamond_avx512_c64, C64, __m512d, 2, 2, 4);
diamond_entry!(diamond_scalar_c32, C32, Port<f32, 8>, 2, 2, 2);
diamond_entry!("avx2,fma", diamond_avx2_c32, C32, __m256, 2, 2, 2);
diamond_entry!("avx512f", diamond_avx512_c32, C32, __m512, 2, 2, 4);

// ---------------------------------------------------------------------------
// Rotation chains
// ---------------------------------------------------------------------------
//
// The inner loops of `crate::rot`: a chain of plane rotations over the
// 32-row columns of a strip tile, the carried column held in four zmm
// registers. Each element is computed as `c*p + s*q` or `-s*p + c*q`
// with separate multiplies and adds (no FMA), exactly the portable
// loops' expressions, so every body gives the same bits. The AVX-512
// bodies exist because the portable loops auto-vectorize to ymm only.

/// Rows of a rotation tile column (`crate::rot::STRIP`).
const ROT_ROWS: usize = 32;

/// The rotation-chain bodies of one ISA, for [`crate::rot`]: forward
/// (`(f + t, f + t + 1)`), backward (`(f - t, f - t + 1)`) and fixed
/// pivot (`(f + t, pivot)`), over tile columns of 32 rows, `cs` holding
/// the `(c, s)` pairs in application order.
pub struct RotChains {
    pub forward: fn(tile: &mut [f64], f: usize, cs: &[f64]),
    pub backward: fn(tile: &mut [f64], f: usize, cs: &[f64]),
    pub pivot: fn(tile: &mut [f64], f: usize, pivot: usize, cs: &[f64]),
}

/// The AVX-512 chains when the `f64` dispatch ([`selected`]) runs
/// AVX-512, `None` when the caller's portable loops should run.
pub fn rot_chains() -> Option<&'static RotChains> {
    if selected().name == "avx512" {
        rot_chains_avx512()
    } else {
        None
    }
}

/// The AVX-512 chains when this machine has AVX-512F, whatever the
/// dispatch choice (differential tests).
pub fn rot_chains_avx512() -> Option<&'static RotChains> {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Some(&ROT_AVX512);
        }
    }
    None
}

#[cfg(target_arch = "x86_64")]
static ROT_AVX512: RotChains = RotChains {
    forward: rot_forward_avx512_entry,
    backward: rot_backward_avx512_entry,
    pivot: rot_pivot_avx512_entry,
};

/// Safe entry of the forward chain: touches tile columns `f..=f + k`.
#[cfg(target_arch = "x86_64")]
fn rot_forward_avx512_entry(tile: &mut [f64], f: usize, cs: &[f64]) {
    let k = cs.len() / 2;
    assert!(
        is_x86_feature_detected!("avx512f"),
        "rot chain needs avx512f"
    );
    assert!(tile.len() >= (f + k + 1) * ROT_ROWS, "rot tile too short");
    // SAFETY: the feature and the tile columns `f..=f + k` the body
    // dereferences are asserted just above.
    unsafe { rot_forward_avx512(tile, f, cs) }
}

/// Safe entry of the backward chain: touches tile columns
/// `f + 1 - k..=f + 1`.
#[cfg(target_arch = "x86_64")]
fn rot_backward_avx512_entry(tile: &mut [f64], f: usize, cs: &[f64]) {
    let k = cs.len() / 2;
    assert!(
        is_x86_feature_detected!("avx512f"),
        "rot chain needs avx512f"
    );
    assert!(k <= f + 1, "rot backward chain runs past column 0");
    assert!(tile.len() >= (f + 2) * ROT_ROWS, "rot tile too short");
    // SAFETY: the feature, `f + 1 - k >= 0` and the last column `f + 1`
    // the body dereferences are asserted just above.
    unsafe { rot_backward_avx512(tile, f, cs) }
}

/// Safe entry of the fixed-pivot chain: touches tile columns
/// `f..f + k` and `pivot`.
#[cfg(target_arch = "x86_64")]
fn rot_pivot_avx512_entry(tile: &mut [f64], f: usize, pivot: usize, cs: &[f64]) {
    let k = cs.len() / 2;
    assert!(
        is_x86_feature_detected!("avx512f"),
        "rot chain needs avx512f"
    );
    assert!(
        tile.len() >= (f + k).max(pivot + 1) * ROT_ROWS,
        "rot tile too short"
    );
    assert!(pivot < f || pivot >= f + k, "rot pivot inside its run");
    // SAFETY: the feature and every column the body dereferences are
    // asserted just above; the pivot column is distinct from the run.
    unsafe { rot_pivot_avx512(tile, f, pivot, cs) }
}

/// Forward chain: column `f + t` is carried into rotation `t` (first
/// operand), which stores it finished and carries column `f + t + 1`.
///
/// # Safety
///
/// Caller must guarantee `avx512f` and `tile.len() >= (f + k + 1) * 32`
/// for `k = cs.len() / 2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rot_forward_avx512(tile: &mut [f64], f: usize, cs: &[f64]) {
    use std::arch::x86_64::*;
    // SAFETY: every access is to a 32-row column `f..=f + k` of `tile`,
    // in bounds by the caller's contract.
    unsafe {
        let t = tile.as_mut_ptr();
        let mut x = [_mm512_setzero_pd(); 4];
        for (l, xl) in x.iter_mut().enumerate() {
            *xl = _mm512_loadu_pd(t.add(f * ROT_ROWS + 8 * l));
        }
        let mut j = f;
        for g in cs.chunks_exact(2) {
            let (c, s, ns) = (
                _mm512_set1_pd(g[0]),
                _mm512_set1_pd(g[1]),
                _mm512_set1_pd(-g[1]),
            );
            let out = t.add(j * ROT_ROWS);
            let next = t.add((j + 1) * ROT_ROWS);
            for (l, xl) in x.iter_mut().enumerate() {
                let (p, q) = (*xl, _mm512_loadu_pd(next.add(8 * l)));
                let a = _mm512_add_pd(_mm512_mul_pd(c, p), _mm512_mul_pd(s, q));
                _mm512_storeu_pd(out.add(8 * l), a);
                *xl = _mm512_add_pd(_mm512_mul_pd(ns, p), _mm512_mul_pd(c, q));
            }
            j += 1;
        }
        for (l, xl) in x.iter().enumerate() {
            _mm512_storeu_pd(t.add(j * ROT_ROWS + 8 * l), *xl);
        }
    }
}

/// Backward chain: column `f + 1 - t` is carried into rotation `t`
/// (second operand), which stores it finished and carries column
/// `f - t`.
///
/// # Safety
///
/// Caller must guarantee `avx512f`, `k <= f + 1` and
/// `tile.len() >= (f + 2) * 32` for `k = cs.len() / 2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rot_backward_avx512(tile: &mut [f64], f: usize, cs: &[f64]) {
    use std::arch::x86_64::*;
    // SAFETY: every access is to a 32-row column `f + 1 - k..=f + 1` of
    // `tile`, in bounds by the caller's contract.
    unsafe {
        let t = tile.as_mut_ptr();
        let mut x = [_mm512_setzero_pd(); 4];
        for (l, xl) in x.iter_mut().enumerate() {
            *xl = _mm512_loadu_pd(t.add((f + 1) * ROT_ROWS + 8 * l));
        }
        let mut j = f + 1;
        for g in cs.chunks_exact(2) {
            let (c, s, ns) = (
                _mm512_set1_pd(g[0]),
                _mm512_set1_pd(g[1]),
                _mm512_set1_pd(-g[1]),
            );
            let out = t.add(j * ROT_ROWS);
            let prev = t.add((j - 1) * ROT_ROWS);
            for (l, xl) in x.iter_mut().enumerate() {
                let (p, q) = (_mm512_loadu_pd(prev.add(8 * l)), *xl);
                let b = _mm512_add_pd(_mm512_mul_pd(ns, p), _mm512_mul_pd(c, q));
                _mm512_storeu_pd(out.add(8 * l), b);
                *xl = _mm512_add_pd(_mm512_mul_pd(c, p), _mm512_mul_pd(s, q));
            }
            j -= 1;
        }
        for (l, xl) in x.iter().enumerate() {
            _mm512_storeu_pd(t.add(j * ROT_ROWS + 8 * l), *xl);
        }
    }
}

/// Fixed-pivot chain: column `pivot` is carried through every rotation
/// (second operand) and meets columns `f, f + 1, ...`.
///
/// # Safety
///
/// Caller must guarantee `avx512f`, that `tile` holds the 32-row
/// columns `f..f + k` and `pivot` for `k = cs.len() / 2`, and that
/// `pivot` is not among `f..f + k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rot_pivot_avx512(tile: &mut [f64], f: usize, pivot: usize, cs: &[f64]) {
    use std::arch::x86_64::*;
    // SAFETY: every access is to a 32-row column `f..f + k` or `pivot`
    // of `tile`, in bounds by the caller's contract.
    unsafe {
        let t = tile.as_mut_ptr();
        let mut x = [_mm512_setzero_pd(); 4];
        for (l, xl) in x.iter_mut().enumerate() {
            *xl = _mm512_loadu_pd(t.add(pivot * ROT_ROWS + 8 * l));
        }
        for (i, g) in cs.chunks_exact(2).enumerate() {
            let (c, s, ns) = (
                _mm512_set1_pd(g[0]),
                _mm512_set1_pd(g[1]),
                _mm512_set1_pd(-g[1]),
            );
            let col = t.add((f + i) * ROT_ROWS);
            for (l, xl) in x.iter_mut().enumerate() {
                let (p, q) = (_mm512_loadu_pd(col.add(8 * l)), *xl);
                let a = _mm512_add_pd(_mm512_mul_pd(c, p), _mm512_mul_pd(s, q));
                _mm512_storeu_pd(col.add(8 * l), a);
                *xl = _mm512_add_pd(_mm512_mul_pd(ns, p), _mm512_mul_pd(c, q));
            }
        }
        for (l, xl) in x.iter().enumerate() {
            _mm512_storeu_pd(t.add(pivot * ROT_ROWS + 8 * l), *xl);
        }
    }
}

// ---------------------------------------------------------------------------
// FMA peak probe
// ---------------------------------------------------------------------------

/// Measured register-resident FMA throughput (flop/s) of the *selected*
/// dispatch path — the "machine peak" denominator for fraction-of-peak
/// reporting. The probe runs eight independent vector accumulator
/// chains with no memory traffic in the timed loop, enough parallelism
/// to cover the FMA latency on both issue ports, using the same vector
/// width the selected microkernel issues (an explicit-zmm kernel must be
/// judged against a zmm ceiling; the compiler's autovectorized loops
/// often stop at ymm). The estimate is a floor of true peak — loop
/// overhead only ever flatters the kernel being judged, never the
/// machine.
pub fn fma_peak() -> f64 {
    let iters: u64 = 5_000_000;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let rate = match selected().name {
            #[cfg(target_arch = "x86_64")]
            "avx512" if is_x86_feature_detected!("avx512f") => {
                // SAFETY: avx512f presence re-checked by the guard above.
                unsafe { peak_probe_avx512(iters) }
            }
            #[cfg(target_arch = "x86_64")]
            "avx2" if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => {
                // SAFETY: avx2+fma presence re-checked by the guard above.
                unsafe { peak_probe_avx2(iters) }
            }
            _ => peak_probe_portable(iters),
        };
        best = best.max(rate);
    }
    best
}

/// [`fma_peak`] per element type: the same measured `f64` FMA ceiling,
/// rescaled by lane count. Single-precision lanes are twice as many per
/// vector, so the `f32`/`C32` ceiling is `2x` the measured double
/// ceiling; complex flops are *component* flops in all our accounting
/// (a complex mul-add is `MULADD_FLOPS` real flops), so complex types
/// share their component precision's ceiling rather than getting one of
/// their own.
pub fn fma_peak_for(bytes_per_component: usize) -> f64 {
    match bytes_per_component {
        4 => 2.0 * fma_peak(),
        _ => fma_peak(),
    }
}

/// Portable probe: eight independent eight-lane `mul_add` chains the
/// compiler autovectorizes at whatever width it prefers. Returns flop/s.
fn peak_probe_portable(iters: u64) -> f64 {
    const LANES: usize = 8;
    const CHAINS: usize = 8;
    let x = std::hint::black_box([1.000_000_01f64; LANES]);
    let y = std::hint::black_box([0.999_999_99f64; LANES]);
    let mut acc = [[0.0f64; LANES]; CHAINS];
    let t = std::time::Instant::now();
    for _ in 0..iters {
        for chain in &mut acc {
            for l in 0..LANES {
                chain[l] = x[l].mul_add(y[l], chain[l]);
            }
        }
    }
    let dt = t.elapsed().as_secs_f64();
    std::hint::black_box(&acc);
    (iters * (CHAINS * LANES * 2) as u64) as f64 / dt
}

/// AVX-512 probe: eight independent zmm `vfmadd` chains (latency x
/// throughput needs >= 8 in flight). Returns flop/s.
///
/// # Safety
///
/// The CPU must support AVX-512F; callers check
/// `is_x86_feature_detected!("avx512f")` first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn peak_probe_avx512(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let x = _mm512_set1_pd(1.000_000_01);
    let y = _mm512_set1_pd(0.999_999_99);
    let mut a0 = _mm512_setzero_pd();
    let mut a1 = _mm512_setzero_pd();
    let mut a2 = _mm512_setzero_pd();
    let mut a3 = _mm512_setzero_pd();
    let mut a4 = _mm512_setzero_pd();
    let mut a5 = _mm512_setzero_pd();
    let mut a6 = _mm512_setzero_pd();
    let mut a7 = _mm512_setzero_pd();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        a0 = _mm512_fmadd_pd(x, y, a0);
        a1 = _mm512_fmadd_pd(x, y, a1);
        a2 = _mm512_fmadd_pd(x, y, a2);
        a3 = _mm512_fmadd_pd(x, y, a3);
        a4 = _mm512_fmadd_pd(x, y, a4);
        a5 = _mm512_fmadd_pd(x, y, a5);
        a6 = _mm512_fmadd_pd(x, y, a6);
        a7 = _mm512_fmadd_pd(x, y, a7);
    }
    let dt = t.elapsed().as_secs_f64();
    let fold = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(a0, a1), _mm512_add_pd(a2, a3)),
        _mm512_add_pd(_mm512_add_pd(a4, a5), _mm512_add_pd(a6, a7)),
    );
    let mut sink = [0.0f64; 8];
    _mm512_storeu_pd(sink.as_mut_ptr(), fold);
    std::hint::black_box(&sink);
    (iters * (8 * 8 * 2) as u64) as f64 / dt
}

/// AVX2+FMA probe: eight independent ymm `vfmadd` chains. Returns
/// flop/s.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA; callers check
/// `is_x86_feature_detected!` for both first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn peak_probe_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let x = _mm256_set1_pd(1.000_000_01);
    let y = _mm256_set1_pd(0.999_999_99);
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    let mut a2 = _mm256_setzero_pd();
    let mut a3 = _mm256_setzero_pd();
    let mut a4 = _mm256_setzero_pd();
    let mut a5 = _mm256_setzero_pd();
    let mut a6 = _mm256_setzero_pd();
    let mut a7 = _mm256_setzero_pd();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        a0 = _mm256_fmadd_pd(x, y, a0);
        a1 = _mm256_fmadd_pd(x, y, a1);
        a2 = _mm256_fmadd_pd(x, y, a2);
        a3 = _mm256_fmadd_pd(x, y, a3);
        a4 = _mm256_fmadd_pd(x, y, a4);
        a5 = _mm256_fmadd_pd(x, y, a5);
        a6 = _mm256_fmadd_pd(x, y, a6);
        a7 = _mm256_fmadd_pd(x, y, a7);
    }
    let dt = t.elapsed().as_secs_f64();
    let fold = _mm256_add_pd(
        _mm256_add_pd(a0, a1),
        _mm256_add_pd(
            _mm256_add_pd(a2, a3),
            _mm256_add_pd(_mm256_add_pd(a4, a5), _mm256_add_pd(a6, a7)),
        ),
    );
    let mut sink = [0.0f64; 4];
    _mm256_storeu_pd(sink.as_mut_ptr(), fold);
    std::hint::black_box(&sink);
    (iters * (8 * 4 * 2) as u64) as f64 / dt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_peak_probe_is_sane() {
        // Cheap sanity only (full-rate runs belong to the bench): the
        // probe must return a positive, finite rate on every path.
        assert!(peak_probe_portable(10_000).is_finite());
        // The full probe at its real iteration count is only quick on
        // optimized builds; debug interpretation of the loop takes
        // tens of seconds.
        #[cfg(not(debug_assertions))]
        {
            let p = fma_peak();
            assert!(p > 0.0 && p.is_finite(), "peak {p:.3e}");
            let p32 = fma_peak_for(4);
            assert!(
                p32 > p,
                "f32 ceiling must exceed f64 ({p32:.3e} vs {p:.3e})"
            );
        }
    }

    #[test]
    fn scalar_always_available_and_last() {
        let av = available();
        assert_eq!(av.last().map(|k| k.name), Some("scalar"));
        assert!(by_name("scalar").is_some());
        assert!(by_name("no-such-isa").is_none());
    }

    #[test]
    fn per_type_tables_are_coherent() {
        fn check<T: SimdScalar>() {
            let av = <T as SimdScalar>::available();
            assert_eq!(av.last().map(|k| k.name), Some("scalar"));
            let sel = <T as SimdScalar>::selected();
            assert!(av.iter().any(|k| k.name == sel.name));
            for k in av {
                assert_eq!(k.mc % k.mr, 0, "{}: mc must be a multiple of mr", k.name);
                assert_eq!(k.nc % k.nr, 0, "{}: nc must be a multiple of nr", k.name);
                assert!(k.mr >= 1 && k.nr >= 1);
                assert!(<T as SimdScalar>::by_name(k.name).is_some());
            }
            // Same ISA menu for every type: a TSEIG_SIMD override that
            // one type honors must be honorable by all.
            let names: Vec<_> = av.iter().map(|k| k.name).collect();
            let f64_names: Vec<_> = available().iter().map(|k| k.name).collect();
            assert_eq!(names, f64_names);
        }
        check::<f64>();
        check::<f32>();
        check::<C64>();
        check::<C32>();
    }

    #[test]
    fn blocking_fits_tiles() {
        for k in available() {
            assert_eq!(k.mc % k.mr, 0, "{}: mc must be a multiple of mr", k.name);
            assert_eq!(k.nc % k.nr, 0, "{}: nc must be a multiple of nr", k.name);
            assert!(k.mr >= 1 && k.nr >= 1);
        }
    }

    #[test]
    fn selected_is_available() {
        let sel = selected();
        assert!(available().iter().any(|k| k.name == sel.name));
    }

    #[test]
    fn tiles_match_scalar_on_one_strip() {
        // One packed strip per kernel shape, ragged edges included.
        for k in available() {
            for kc in [1usize, 3, 7, 32] {
                let ap: Vec<f64> = (0..k.mr * kc).map(|i| (i % 13) as f64 - 6.0).collect();
                let bp: Vec<f64> = (0..k.nr * kc).map(|i| (i % 7) as f64 - 3.0).collect();
                for (mr_eff, nr_eff) in [(k.mr, k.nr), (k.mr - k.mr / 2, k.nr - k.nr / 2)] {
                    let ldc = k.mr + 3;
                    let mut c = vec![0.5f64; ldc * k.nr];
                    let mut want = c.clone();
                    k.run(kc, 1.25, &ap, &bp, &mut c, ldc, mr_eff, nr_eff);
                    // Oracle: direct per-element fma chain.
                    for jj in 0..nr_eff {
                        for ii in 0..mr_eff {
                            let mut acc = 0.0f64;
                            for p in 0..kc {
                                acc = ap[p * k.mr + ii].mul_add(bp[p * k.nr + jj], acc);
                            }
                            want[ii + jj * ldc] += 1.25 * acc;
                        }
                    }
                    for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
                        assert_eq!(got, w, "{} kc={kc} idx={i}", k.name);
                    }
                }
            }
        }
    }

    #[test]
    fn f32_tiles_match_fma_oracle_on_one_strip() {
        for k in <f32 as SimdScalar>::available() {
            for kc in [1usize, 3, 7, 32] {
                let ap: Vec<f32> = (0..k.mr * kc).map(|i| (i % 13) as f32 - 6.0).collect();
                let bp: Vec<f32> = (0..k.nr * kc).map(|i| (i % 7) as f32 - 3.0).collect();
                for (mr_eff, nr_eff) in [(k.mr, k.nr), (k.mr - k.mr / 2, k.nr - k.nr / 2)] {
                    let ldc = k.mr + 3;
                    let mut c = vec![0.5f32; ldc * k.nr];
                    let mut want = c.clone();
                    k.run(kc, 1.25, &ap, &bp, &mut c, ldc, mr_eff, nr_eff);
                    for jj in 0..nr_eff {
                        for ii in 0..mr_eff {
                            let mut acc = 0.0f32;
                            for p in 0..kc {
                                acc = ap[p * k.mr + ii].mul_add(bp[p * k.nr + jj], acc);
                            }
                            want[ii + jj * ldc] += 1.25 * acc;
                        }
                    }
                    for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            w.to_bits(),
                            "{} kc={kc} idx={i}: {got} vs {w}",
                            k.name
                        );
                    }
                }
            }
        }
    }

    /// Dual-accumulator oracle + bitwise cross-kernel check on one
    /// packed strip, for both complex types.
    macro_rules! complex_strip_check {
        ($name:ident, $t:ty, $ft:ty, $mk:path) => {
            #[test]
            fn $name() {
                let alpha = $mk(1.25 as $ft, -0.5 as $ft);
                for k in <$t as SimdScalar>::available() {
                    for kc in [1usize, 3, 7, 32] {
                        let ap: Vec<$t> = (0..k.mr * kc)
                            .map(|i| {
                                $mk(
                                    (i % 13) as $ft - 6.0 as $ft,
                                    ((i * 7) % 11) as $ft - 5.0 as $ft,
                                )
                            })
                            .collect();
                        let bp: Vec<$t> = (0..k.nr * kc)
                            .map(|i| {
                                $mk(
                                    (i % 7) as $ft - 3.0 as $ft,
                                    ((i * 5) % 9) as $ft - 4.0 as $ft,
                                )
                            })
                            .collect();
                        for (mr_eff, nr_eff) in [(k.mr, k.nr), (k.mr - k.mr / 2, k.nr - k.nr / 2)] {
                            let ldc = k.mr + 3;
                            let mut c = vec![$mk(0.5 as $ft, -0.25 as $ft); ldc * k.nr];
                            let mut want = c.clone();
                            k.run(kc, alpha, &ap, &bp, &mut c, ldc, mr_eff, nr_eff);
                            // Oracle: the dual-accumulator contract, per
                            // element, straight from the module docs.
                            for jj in 0..nr_eff {
                                for ii in 0..mr_eff {
                                    let (mut s1r, mut s1i) = (0.0 as $ft, 0.0 as $ft);
                                    let (mut s2r, mut s2i) = (0.0 as $ft, 0.0 as $ft);
                                    for p in 0..kc {
                                        let a = ap[p * k.mr + ii];
                                        let b = bp[p * k.nr + jj];
                                        s1r = a.re.mul_add(b.re, s1r);
                                        s1i = a.im.mul_add(b.re, s1i);
                                        s2r = a.im.mul_add(b.im, s2r);
                                        s2i = a.re.mul_add(b.im, s2i);
                                    }
                                    let t = $mk(s1r - s2r, s1i + s2i);
                                    let i = ii + jj * ldc;
                                    want[i] += alpha * t;
                                }
                            }
                            for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
                                assert!(
                                    got.re.to_bits() == w.re.to_bits()
                                        && got.im.to_bits() == w.im.to_bits(),
                                    "{} kc={kc} idx={i}: {got:?} vs {w:?}",
                                    k.name
                                );
                            }
                        }
                    }
                }
            }
        };
    }

    complex_strip_check!(c64_tiles_match_dual_acc_oracle, C64, f64, c64);
    complex_strip_check!(c32_tiles_match_dual_acc_oracle, C32, f32, c32);
}
