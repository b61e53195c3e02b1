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
//! **One body per kernel.** Each SIMD kernel here — the GEMM tile
//! ([`gemm_body`]), the diamond kernel, the rotation chain and the FMA
//! probe — is one generic function over the private [`Lanes`] trait (a
//! vector of `N` components), and each (element type, ISA) pair is a
//! one-line instance that compiles it under `#[target_feature]`. The
//! intrinsics appear only in the `simd_lanes!` invocations and the AVX2
//! `mask_epi*` helpers (`xtask tidy` rule `intrinsics-in-lanes`), so
//! adding an ISA means one `simd_lanes!` plus one instance line per
//! kernel. The portable scalar GEMM tiles and the portable rotation
//! loops of [`crate::rot`] are written separately on purpose: they are
//! the independent oracles the SIMD bodies are tested against.
//!
//! **Dispatch** happens once per element type, at the first
//! `gemm`-family call: the `TSEIG_SIMD` environment variable (`avx512`
//! / `avx2` / `scalar`) is honored when the requested ISA is available,
//! otherwise detection order is `avx512` → `avx2` → `scalar` via
//! [`std::arch::is_x86_feature_detected!`]. [`SimdScalar::available`]
//! exposes every kernel the machine supports so tests and benches can
//! run each path explicitly in one process (the env override is a
//! process-wide choice). The free functions [`available`], [`by_name`]
//! and [`selected`] forward to the `f64` table.
//!
//! **Numerical contract (real types):** for a fixed problem every
//! kernel of a type produces *bitwise identical* results. Each `C(i,j)`
//! is a k-ordered chain of fused multiply-adds regardless of the tile
//! shape (packing only regroups rows/columns, never the `k` loop), and
//! the writeback computes `c + alpha * acc` with a separate multiply
//! and add (not an FMA) to match the scalar path rounding-for-rounding.
//! Partial tiles load and store `C` through masked lanes, so the same
//! operations run on every element of the `mr_eff x nr_eff` corner and
//! nothing outside it is touched.
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
//! the stack first; ~0.4% of the FMA work at `kc = 256`), which
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

/// AVX2+FMA `f64` tile: 12 ymm accumulators, one `A` load and one
/// broadcast per FMA pair.
#[cfg(target_arch = "x86_64")]
pub static AVX2: MicroKernel = MicroKernel::from_blocking(
    "avx2",
    BlockingParams::for_scalar::<f64>(4, 12),
    mk_avx2_f64,
    diamond_avx2_f64,
);

/// AVX-512F `f64` tile: 24 zmm accumulators (three per column), one
/// column broadcast per FMA.
#[cfg(target_arch = "x86_64")]
pub static AVX512: MicroKernel = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<f64>(24, 8),
    mk_avx512_f64,
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
    mk_avx2_f32,
    diamond_avx2_f32,
);

/// AVX-512F `f32` tile: the 24x8 `f64` tile at 16 lanes per zmm.
#[cfg(target_arch = "x86_64")]
pub static AVX512_F32: MicroKernel<f32> = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<f32>(48, 8),
    mk_avx512_f32,
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
    mk_avx2_c64,
    diamond_avx2_c64,
);

/// AVX-512F `C64` tile: 8 complex rows (2 zmm) x 4 columns — 16
/// accumulator zmm (two chains x 2 registers x 4 columns), 16 FMAs per
/// `k` step against 12 load-port ops, so the loop is FMA-bound.
#[cfg(target_arch = "x86_64")]
pub static AVX512_C64: MicroKernel<C64> = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<C64>(8, 4),
    mk_avx512_c64,
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
    mk_avx2_c32,
    diamond_avx2_c32,
);

/// AVX-512F `C32` tile: the `C64` 8x4 shape at twice the lane count.
#[cfg(target_arch = "x86_64")]
pub static AVX512_C32: MicroKernel<C32> = MicroKernel::from_blocking(
    "avx512",
    BlockingParams::for_scalar::<C32>(16, 4),
    mk_avx512_c32,
    diamond_avx512_c32,
);

/// Every `f64` kernel this machine can execute, best first: the `f64`
/// face of [`SimdScalar::available`]. Tests and benches iterate this
/// to exercise each dispatch path in-process.
pub fn available() -> &'static [&'static MicroKernel] {
    <f64 as SimdScalar>::available()
}

/// Look an `f64` kernel up by its dispatch name, `None` when the
/// machine does not support it (or the name is unknown).
pub fn by_name(name: &str) -> Option<&'static MicroKernel> {
    <f64 as SimdScalar>::by_name(name)
}

/// The kernel the packed `f64` engine uses, chosen once at first call:
/// `TSEIG_SIMD` when set to a supported name, otherwise the best
/// detected ISA. An unsupported or unknown override falls back to auto
/// detection rather than failing — the env knob exists for testing and
/// benchmarking, not as a hard requirement.
pub fn selected() -> &'static MicroKernel {
    <f64 as SimdScalar>::selected()
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
/// detection + `TSEIG_SIMD` override). Implemented for exactly the four
/// engine types.
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

simd_dispatch!(f64, SCALAR, AVX2, AVX512);
simd_dispatch!(f32, SCALAR_F32, AVX2_F32, AVX512_F32);
simd_dispatch!(C64, SCALAR_C64, AVX2_C64, AVX512_C64);
simd_dispatch!(C32, SCALAR_C32, AVX2_C32, AVX512_C32);

// ---------------------------------------------------------------------------
// Portable tiles and per-type writebacks
// ---------------------------------------------------------------------------

/// Generate, per real type, the portable scalar tile — plain `mul_add`
/// chains the compiler may autovectorize, the differential oracle of
/// the type's SIMD tiles — and the SIMD tiles' writeback ([`TileOut`]):
/// `c + alpha * acc` per vector, a separate multiply and add as in the
/// scalar tile, through masked lanes on a partial tile.
macro_rules! real_kernels {
    ($scalar_fn:ident, $t:ty, $mr:expr, $nr:expr) => {
        /// Portable real tile: one `mul_add` chain per `C(i,j)`, the
        /// differential oracle of this type's SIMD tiles.
        #[allow(clippy::too_many_arguments)]
        fn $scalar_fn(
            kc: usize,
            alpha: $t,
            ap: &[$t],
            bp: &[$t],
            c: &mut [$t],
            ldc: usize,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            const MR: usize = $mr;
            const NR: usize = $nr;
            let mut acc = [[0.0 as $t; MR]; NR];
            let (achunks, _) = ap.as_chunks::<MR>();
            let (bchunks, _) = bp.as_chunks::<NR>();
            for p in 0..kc {
                let av: &[$t; MR] = &achunks[p];
                let bv: &[$t; NR] = &bchunks[p];
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

        impl TileOut for $t {
            type F = $t;
            /// # Safety: see [`TileOut::put`].
            #[inline(always)]
            unsafe fn put<V: Lanes<F = $t>, const MV: usize, const NR: usize>(
                acc: &Acc<V, MV, NR>,
                alpha: $t,
                c: &mut [$t],
                ldc: usize,
                mr_eff: usize,
                nr_eff: usize,
            ) {
                let va = V::splat(alpha);
                // Constant trip counts: the loops unroll and the
                // accumulators stay in their registers.
                for (jj, col) in acc.s1.iter().enumerate() {
                    for (q, x) in col.iter().enumerate() {
                        let m = mr_eff.saturating_sub(q * V::N).min(V::N);
                        if jj < nr_eff && m > 0 {
                            let p = c.as_mut_ptr().add(jj * ldc + q * V::N);
                            store_n(load_n::<V>(p, m).add(x.mul(va)), p, m);
                        }
                    }
                }
            }
        }
    };
}

real_kernels!(mk_scalar, f64, 16, 4);
real_kernels!(mk_scalar_f32, f32, 16, 4);

/// Generate, per complex type, the shared combine/writeback helper, the
/// portable scalar tile of the dual-accumulator contract (module docs)
/// and the SIMD tiles' writeback ([`TileOut`]): the two component-FMA
/// chains per `C(i,j)` live in interleaved `(re, im)` buffers — the
/// scalar tile's stack arrays, the SIMD tiles' spilled accumulator
/// registers — and the combine `t = (s1.re - s2.re, s1.im + s2.im);
/// c += alpha * t` is one scalar code path every kernel of the type
/// funnels through, which is what makes all dispatch paths bitwise
/// identical.
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

        impl TileOut for $ct {
            type F = $ft;
            /// # Safety: see [`TileOut::put`].
            #[inline(always)]
            unsafe fn put<V: Lanes<F = $ft>, const MV: usize, const NR: usize>(
                acc: &Acc<V, MV, NR>,
                alpha: $ct,
                c: &mut [$ct],
                ldc: usize,
                mr_eff: usize,
                nr_eff: usize,
            ) {
                const {
                    assert!(std::mem::size_of::<V>() == V::N * std::mem::size_of::<$ft>());
                };
                // A `[[V; MV]; NR]` array is the interleaved image the
                // combine reads: column `jj` at `jj * MV * N` components.
                let spill = |s: &[[V; MV]; NR]| {
                    std::slice::from_raw_parts(s.as_ptr().cast::<$ft>(), MV * NR * V::N)
                };
                $combine(
                    spill(&acc.s1),
                    spill(&acc.s2),
                    MV * V::N / 2,
                    alpha,
                    c,
                    ldc,
                    mr_eff,
                    nr_eff,
                );
            }
        }
    };
}

complex_kernels!(combine_c64, mk_scalar_c64, C64, f64, c64, 8, 4);
complex_kernels!(combine_c32, mk_scalar_c32, C32, f32, c32, 8, 4);

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// A vector of [`Lanes::N`] components: the unit every SIMD body of
/// this module ([`gemm_body`], [`diamond_body`], [`rot_body`],
/// [`peak_probe`]) is written over, so one loop serves every ISA and
/// element type. Complex elements are interleaved `(re, im)` component
/// pairs.
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
    /// # Safety: see [`Lanes`].
    unsafe fn mul(self, b: Self) -> Self;
    /// # Safety: see [`Lanes`].
    unsafe fn add(self, b: Self) -> Self;
    /// Even lanes `self - b`, odd lanes `self + b`: the complex combine
    /// `(s1.re - s2.re, s1.im + s2.im)`. # Safety: see [`Lanes`].
    unsafe fn addsub(self, b: Self) -> Self;
    /// Swap every `(re, im)` pair. # Safety: see [`Lanes`].
    unsafe fn swap_pairs(self) -> Self;
}

/// [`Lanes`] for one `std::arch` vector type, from its intrinsics.
macro_rules! simd_lanes {
    ($v:ty, $f:ty, $n:expr, $splat:ident, $load:ident, $store:ident, $fmadd:ident, $sub:ident,
     $mul:ident, $add:ident, |$a:ident, $b:ident| $addsub:expr, |$x:ident| $swap:expr,
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
            unsafe fn mul(self, b: Self) -> Self {
                $mul(self, b)
            }
            /// # Safety: see [`Lanes`].
            #[inline(always)]
            unsafe fn add(self, b: Self) -> Self {
                $add(self, b)
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
    _mm512_mul_pd,
    _mm512_add_pd,
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
    _mm512_mul_ps,
    _mm512_add_ps,
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
    _mm256_mul_pd,
    _mm256_add_pd,
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
    _mm256_mul_ps,
    _mm256_add_ps,
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
            unsafe fn mul(self, b: Self) -> Self {
                Port(std::array::from_fn(|i| self.0[i] * b.0[i]))
            }
            /// # Safety: none.
            #[inline(always)]
            unsafe fn add(self, b: Self) -> Self {
                Port(std::array::from_fn(|i| self.0[i] + b.0[i]))
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
port_lanes!(f64, 8);
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
// GEMM tiles
// ---------------------------------------------------------------------------

/// How an element type's SIMD tiles write their accumulators back:
/// real types `c + alpha * acc` per vector (see `real_kernels!`),
/// complex types through the scalar combine (see `complex_kernels!`).
trait TileOut: Copy {
    /// Component type (`f64` or `f32`).
    type F;
    /// `C += alpha * acc` on the `mr_eff x nr_eff` corner of `c` (at
    /// leading dimension `ldc`), touching no other element.
    ///
    /// # Safety
    ///
    /// [`Lanes`] ISA; `c` covers the corner; `mr_eff <= MV * N / E` and
    /// `nr_eff <= NR` for the element's `E` components.
    unsafe fn put<V: Lanes<F = Self::F>, const MV: usize, const NR: usize>(
        acc: &Acc<V, MV, NR>,
        alpha: Self,
        c: &mut [Self],
        ldc: usize,
        mr_eff: usize,
        nr_eff: usize,
    );
}

/// The one loop of every SIMD GEMM tile: an `MV`-vector by `NR`-column
/// register tile (`MV * N / E` rows of `E`-component elements) of
/// `C += alpha * Ap * Bp`. Per `k` step it loads the `MV` vectors of the
/// `A` strip and steps every chain once ([`Acc::step`]): `fmadd(a,
/// splat(b))` for real elements, and for complex ones also
/// `fmadd(swap_pairs(a), splat(b.im))` on the second chain. The
/// element type's [`TileOut`] writes the corner back.
///
/// # Safety
///
/// [`Lanes`] ISA; `ap` readable for `kc * MV * N` components, `bp` for
/// `kc * NR * E`; `c` covers the `mr_eff x nr_eff` corner at `ldc`,
/// `mr_eff <= MV * N / E` and `nr_eff <= NR`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_body<
    T: TileOut,
    V: Lanes<F = T::F>,
    const E: usize,
    const MV: usize,
    const NR: usize,
>(
    kc: usize,
    alpha: T,
    ap: *const V::F,
    bp: *const V::F,
    c: &mut [T],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = Acc::<V, MV, NR>::zero();
    for p in 0..kc {
        let a: [V; MV] = std::array::from_fn(|q| V::load(ap.add((p * MV + q) * V::N)));
        acc.step::<E, 0, MV>(&a, |jj| bp.add((p * NR + jj) * E));
    }
    T::put(&acc, alpha, c, ldc, mr_eff, nr_eff);
}

/// A safe [`MicroFn`] entry over one [`gemm_body`] instance: asserts
/// every bound the body relies on, then runs it through a nested
/// `unsafe fn` compiled for its ISA.
macro_rules! gemm_entry {
    ($feat:literal, $name:ident, $t:ty, $v:ty, $e:expr, $mv:expr, $nr:expr) => {
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        fn $name(
            kc: usize,
            alpha: $t,
            ap: &[$t],
            bp: &[$t],
            c: &mut [$t],
            ldc: usize,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            /// # Safety
            ///
            /// The CPU features this function enables are available;
            /// the preconditions of [`gemm_body`].
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn body(
                kc: usize,
                alpha: $t,
                ap: *const <$v as Lanes>::F,
                bp: *const <$v as Lanes>::F,
                c: &mut [$t],
                ldc: usize,
                mr_eff: usize,
                nr_eff: usize,
            ) {
                gemm_body::<$t, $v, $e, $mv, $nr>(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff)
            }
            const MR: usize = $mv * <$v as Lanes>::N / $e;
            assert!(
                ap.len() >= MR * kc && bp.len() >= $nr * kc,
                "packed strip too short"
            );
            assert!(mr_eff <= MR && nr_eff <= $nr, "C corner larger than the tile");
            assert!(
                c.len() >= (nr_eff.max(1) - 1) * ldc + mr_eff,
                "C tile out of bounds"
            );
            let (ap, bp) = (ap.as_ptr().cast(), bp.as_ptr().cast());
            // SAFETY: bounds asserted above (a complex element is a
            // `#[repr(C)]` `(re, im)` pair, so the strips read as `E`
            // components per element). The entry is only reachable
            // through its descriptor, which `available()` registers once
            // the ISA is detected.
            unsafe { body(kc, alpha, ap, bp, c, ldc, mr_eff, nr_eff) }
        }
    };
}

// Register tiles: `MV` vectors by `NR` columns (see the module table).
gemm_entry!("avx2,fma", mk_avx2_f64, f64, __m256d, 1, 1, 12);
gemm_entry!("avx512f", mk_avx512_f64, f64, __m512d, 1, 3, 8);
gemm_entry!("avx2,fma", mk_avx2_f32, f32, __m256, 1, 1, 12);
gemm_entry!("avx512f", mk_avx512_f32, f32, __m512, 1, 3, 8);
gemm_entry!("avx2,fma", mk_avx2_c64, C64, __m256d, 2, 1, 6);
gemm_entry!("avx512f", mk_avx512_c64, C64, __m512d, 2, 2, 4);
gemm_entry!("avx2,fma", mk_avx2_c32, C32, __m256, 2, 1, 6);
gemm_entry!("avx512f", mk_avx512_c32, C32, __m512, 2, 2, 4);

// ---------------------------------------------------------------------------
// Rotation chains
// ---------------------------------------------------------------------------
//
// The inner loops of `crate::rot`: a chain of plane rotations over the
// 32-row columns of a strip tile, the carried column held in vector
// registers. Each element is computed as `c*p + s*q` or `-s*p + c*q`
// with separate multiplies and adds (no FMA), exactly the portable
// loops' expressions, so every body gives the same bits. The AVX-512
// instance exists because the portable loops auto-vectorize to ymm only.

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
    forward: rot_forward_avx512,
    backward: rot_backward_avx512,
    pivot: rot_pivot_avx512,
};

/// Forward chain: column `f + t` is carried into rotation `t` (first
/// operand), which stores it finished and carries column `f + t + 1`.
/// Touches tile columns `f..=f + k`.
#[cfg(target_arch = "x86_64")]
fn rot_forward_avx512(tile: &mut [f64], f: usize, cs: &[f64]) {
    let k = cs.len() / 2;
    assert!(
        is_x86_feature_detected!("avx512f"),
        "rot chain needs avx512f"
    );
    assert!(tile.len() >= (f + k + 1) * ROT_ROWS, "rot tile too short");
    // SAFETY: the feature and the tile columns `f..=f + k` the chain
    // dereferences are asserted just above.
    unsafe { rot_avx512::<true, false>(tile.as_mut_ptr(), f, f + k, cs, |t| (f + t + 1, f + t)) }
}

/// Backward chain: column `f + 1 - t` is carried into rotation `t`
/// (second operand), which stores it finished and carries column
/// `f - t`. Touches tile columns `f + 1 - k..=f + 1`.
#[cfg(target_arch = "x86_64")]
fn rot_backward_avx512(tile: &mut [f64], f: usize, cs: &[f64]) {
    let k = cs.len() / 2;
    assert!(
        is_x86_feature_detected!("avx512f"),
        "rot chain needs avx512f"
    );
    assert!(k <= f + 1, "rot backward chain runs past column 0");
    assert!(tile.len() >= (f + 2) * ROT_ROWS, "rot tile too short");
    // SAFETY: the feature, `f + 1 - k >= 0` and the last column `f + 1`
    // the chain dereferences are asserted just above.
    unsafe {
        rot_avx512::<false, true>(tile.as_mut_ptr(), f + 1, f + 1 - k, cs, |t| {
            (f - t, f + 1 - t)
        })
    }
}

/// Fixed-pivot chain: column `pivot` is carried through every rotation
/// (second operand) and meets columns `f, f + 1, ...`. Touches tile
/// columns `f..f + k` and `pivot`.
#[cfg(target_arch = "x86_64")]
fn rot_pivot_avx512(tile: &mut [f64], f: usize, pivot: usize, cs: &[f64]) {
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
    // SAFETY: the feature and every column the chain dereferences are
    // asserted just above; the pivot column is distinct from the run.
    unsafe { rot_avx512::<false, false>(tile.as_mut_ptr(), pivot, pivot, cs, |t| (f + t, f + t)) }
}

/// [`rot_body`] on zmm registers.
///
/// # Safety
///
/// `avx512f` is available; the preconditions of [`rot_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rot_avx512<const CARRY_P: bool, const KEEP_A: bool>(
    tile: *mut f64,
    carry: usize,
    end: usize,
    cs: &[f64],
    cols: impl Fn(usize) -> (usize, usize),
) {
    rot_body::<__m512d, 4, CARRY_P, KEEP_A>(tile, carry, end, cs, cols)
}

/// The one rotation-chain body: tile column `carry` is loaded into `RV`
/// vectors and carried through the rotations; rotation `t` meets column
/// `cols(t).0` and stores its finished column to `cols(t).1`, and the
/// carried column ends in column `end`. The carried column is the
/// rotation's first operand `p` when `CARRY_P` (else its second, `q`),
/// and it goes on as `c*p + s*q` when `KEEP_A` (else as `-s*p + c*q`).
///
/// # Safety
///
/// [`Lanes`] ISA; `tile` holds the 32-row columns `carry`, `end` and
/// every `cols(t)` for `t < cs.len() / 2`.
#[inline(always)]
unsafe fn rot_body<V: Lanes<F = f64>, const RV: usize, const CARRY_P: bool, const KEEP_A: bool>(
    tile: *mut f64,
    carry: usize,
    end: usize,
    cs: &[f64],
    cols: impl Fn(usize) -> (usize, usize),
) {
    const { assert!(RV * V::N == ROT_ROWS, "RV vectors hold one tile column") };
    let at = |j: usize, l: usize| tile.add(j * ROT_ROWS + l * V::N);
    let mut x: [V; RV] = std::array::from_fn(|l| V::load(at(carry, l)));
    for (t, g) in cs.chunks_exact(2).enumerate() {
        let (c, s, ns) = (V::splat(g[0]), V::splat(g[1]), V::splat(-g[1]));
        let (met, out) = cols(t);
        for (l, xl) in x.iter_mut().enumerate() {
            let y = V::load(at(met, l));
            let (p, q) = if CARRY_P { (*xl, y) } else { (y, *xl) };
            let a = c.mul(p).add(s.mul(q));
            let b = ns.mul(p).add(c.mul(q));
            let (keep, done) = if KEEP_A { (a, b) } else { (b, a) };
            done.store(at(out, l));
            *xl = keep;
        }
    }
    for (l, xl) in x.iter().enumerate() {
        xl.store(at(end, l));
    }
}

// ---------------------------------------------------------------------------
// FMA peak probe
// ---------------------------------------------------------------------------

/// Measured register-resident FMA throughput (flop/s) of the *selected*
/// dispatch path — the "machine peak" denominator for fraction-of-peak
/// reporting. The probe ([`peak_probe`]) runs eight independent vector
/// accumulator chains with no memory traffic in the timed loop, enough
/// parallelism to cover the FMA latency on both issue ports, using the
/// same vector width the selected microkernel issues (an explicit-zmm
/// kernel must be judged against a zmm ceiling; the compiler's
/// autovectorized loops often stop at ymm). The estimate is a floor of
/// true peak — loop overhead only ever flatters the kernel being
/// judged, never the machine.
pub fn fma_peak() -> f64 {
    /// # Safety
    ///
    /// `avx512f` is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn probe_avx512(iters: u64) -> f64 {
        peak_probe::<__m512d>(iters)
    }
    /// # Safety
    ///
    /// `avx2` and `fma` are available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn probe_avx2(iters: u64) -> f64 {
        peak_probe::<__m256d>(iters)
    }
    let iters: u64 = 5_000_000;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let rate = match selected().name {
            #[cfg(target_arch = "x86_64")]
            "avx512" if is_x86_feature_detected!("avx512f") => {
                // SAFETY: avx512f presence re-checked by the guard above.
                unsafe { probe_avx512(iters) }
            }
            #[cfg(target_arch = "x86_64")]
            "avx2" if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => {
                // SAFETY: avx2+fma presence re-checked by the guard above.
                unsafe { probe_avx2(iters) }
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

/// Portable probe: eight chains of eight-lane [`Port`] vectors, which
/// the compiler autovectorizes at whatever width it prefers.
fn peak_probe_portable(iters: u64) -> f64 {
    // SAFETY: `Port` lanes need no ISA.
    unsafe { peak_probe::<Port<f64, 8>>(iters) }
}

/// The one FMA probe: eight independent `fmadd` chains of `V` vectors
/// (latency x throughput needs >= 8 in flight). Returns flop/s.
///
/// # Safety
///
/// [`Lanes`] ISA.
#[inline(always)]
unsafe fn peak_probe<V: Lanes<F = f64>>(iters: u64) -> f64 {
    const CHAINS: usize = 8;
    let x = V::splat(std::hint::black_box(1.000_000_01));
    let y = V::splat(std::hint::black_box(0.999_999_99));
    let mut acc = [V::splat(0.0); CHAINS];
    let t = std::time::Instant::now();
    for _ in 0..iters {
        for a in &mut acc {
            *a = x.fmadd(y, *a);
        }
    }
    let dt = t.elapsed().as_secs_f64();
    std::hint::black_box(&acc);
    (iters * (CHAINS * V::N * 2) as u64) as f64 / dt
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
