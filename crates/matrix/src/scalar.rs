//! The element-type abstraction shared by the real and Hermitian
//! pipelines.
//!
//! [`Scalar`] is the *complete* surface the packed BLAS-3 engine in
//! `tseig-kernels` needs from an element type: ring operations, a
//! conjugation (identity for the real types), a fused multiply-add with
//! a pinned evaluation order, and the flop/byte weights the performance
//! counters charge. Implementations exist for the classic four-type
//! table — `f32`/`f64` for the symmetric pipeline and [`C32`]/[`C64`]
//! for the Hermitian one — and every driver runs on the same
//! monomorphized engine.
//!
//! [`ComplexScalar`] is the extra surface the Householder, QR and
//! Cholesky kernels and the Hermitian pipeline need beyond the engine:
//! component accessors, magnitudes and scaling, all routed through
//! `f64` so the scalar control logic (Householder norms, phase
//! extraction, verification bounds) is written once and is *more*
//! accurate than the component precision at `C32`. The real types
//! implement it too, as complex numbers with a zero imaginary part, so
//! one generic kernel serves all four types.
//!
//! ## Determinism contract
//!
//! [`Scalar::mul_add`] is the only arithmetic the engine's inner loop
//! performs, and its evaluation order is part of the type's contract:
//!
//! * `f64`: a single hardware FMA (`f64::mul_add`), exactly what the
//!   pre-generic engine issued — so the generic engine monomorphized at
//!   `f64` stays **bitwise identical** to the historical kernels.
//! * `C64`: each component is a chain of two real FMAs in a fixed order
//!   (see [`C64::mul_add`]); every microkernel shape then produces
//!   bitwise identical complex results for the same `k` ordering, the
//!   same property the real dispatch paths already guarantee.

use crate::complex::{c32, c64, C32, C64};
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Element type of a dense BLAS-3 operand: `f32`, `f64`, [`C32`] or
/// [`C64`] — the classic `ssyev`/`dsyev`/`cheev`/`zheev` four-type
/// table.
///
/// The bounds are what the packed engine's loop nest actually uses:
/// `Copy` packing, ring arithmetic, `Send + Sync` for the rayon splits,
/// `Default` (= zero) for buffer growth.
pub trait Scalar:
    Copy
    + PartialEq
    + Debug
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// Additive identity; also the zero-padding value of packed strips.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Real flops charged per multiply-add pair on this type: 2 for
    /// `f64`, 8 for [`C64`] (4 real multiplies + 4 real adds). This is
    /// the conventional `zgemm = 8mnk` accounting, so Gflop/s stay
    /// comparable across element-type columns.
    const MULADD_FLOPS: u64;
    /// Bytes per element (8 / 16); the byte-traffic model's unit.
    const BYTES: u64;
    /// Whether conjugation is distinct from identity. Lets shared code
    /// document (and tests assert) which ops collapse for real types.
    const IS_COMPLEX: bool;

    /// Complex conjugate; identity on `f64`. The engine applies this in
    /// the O(n^2) pack step, never in the O(n^3) compute loop.
    fn conj(self) -> Self;

    /// `self * b + acc` with the pinned evaluation order documented on
    /// each implementation — the one arithmetic op of the engine's
    /// inner loop.
    fn mul_add(self, b: Self, acc: Self) -> Self;

    /// All components finite (paranoid poison scans).
    fn is_finite(self) -> bool;

    /// Embed a real scalar (used by scaling paths and test generators).
    fn from_f64(x: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const MULADD_FLOPS: u64 = 2;
    const BYTES: u64 = 8;
    const IS_COMPLEX: bool = false;

    #[inline(always)]
    fn conj(self) -> Self {
        self
    }

    /// One hardware FMA — the exact op the pre-generic `f64` engine
    /// issued, keeping the monomorphized engine bitwise identical.
    #[inline(always)]
    fn mul_add(self, b: Self, acc: Self) -> Self {
        f64::mul_add(self, b, acc)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
}

impl Scalar for C64 {
    const ZERO: Self = C64::ZERO;
    const ONE: Self = C64::ONE;
    const MULADD_FLOPS: u64 = 8;
    const BYTES: u64 = 16;
    const IS_COMPLEX: bool = true;

    #[inline(always)]
    fn conj(self) -> Self {
        C64::conj(self)
    }

    #[inline(always)]
    fn mul_add(self, b: Self, acc: Self) -> Self {
        C64::mul_add(self, b, acc)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        C64::is_finite(self)
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        c64(x, 0.0)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const MULADD_FLOPS: u64 = 2;
    const BYTES: u64 = 4;
    const IS_COMPLEX: bool = false;

    #[inline(always)]
    fn conj(self) -> Self {
        self
    }

    /// One hardware FMA at `f32` — the same pinned single-op contract as
    /// the `f64` impl, so every `f32` dispatch path is bitwise-comparable.
    #[inline(always)]
    fn mul_add(self, b: Self, acc: Self) -> Self {
        f32::mul_add(self, b, acc)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        // tidy: allow(lossy-cast) -- rounding to f32 is this method's contract
        x as f32
    }
}

impl Scalar for C32 {
    const ZERO: Self = C32::ZERO;
    const ONE: Self = C32::ONE;
    const MULADD_FLOPS: u64 = 8;
    const BYTES: u64 = 8;
    const IS_COMPLEX: bool = true;

    #[inline(always)]
    fn conj(self) -> Self {
        C32::conj(self)
    }

    #[inline(always)]
    fn mul_add(self, b: Self, acc: Self) -> Self {
        C32::mul_add(self, b, acc)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        C32::is_finite(self)
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        // tidy: allow(lossy-cast) -- rounding to f32 is this method's contract
        c32(x as f32, 0.0)
    }
}

/// The surface the generic kernels need beyond [`Scalar`]: component
/// access, magnitudes and real scaling, all `f64`-valued. `C32` widens
/// its components on read and rounds on write, so the scalar
/// bookkeeping (reflector norms, phases, verification) runs in `f64` for
/// both precisions and only the O(n³) BLAS-3 traffic is narrow.
///
/// `f64` and `f32` implement it as the complex numbers with a zero
/// imaginary part: `im()` is `0`, `new` drops its imaginary argument,
/// and every method is the plain real operation (for `f64` the exact
/// op the real-only kernels always issued), so a generic kernel
/// monomorphized at `f64` keeps every bit.
pub trait ComplexScalar: Scalar + Div<Output = Self> {
    /// Machine epsilon of the *component* type, as `f64`; verification
    /// and convergence bounds scale with this.
    const EPS: f64;
    /// Lower-case LAPACK-style type tag (`"c32"` / `"c64"`), used by
    /// diagnostics and the batch JSONL schema.
    const TAG: &'static str;

    /// Build from `f64` components (rounding to component precision).
    fn new(re: f64, im: f64) -> Self;
    /// Real part, widened to `f64`.
    fn re(self) -> f64;
    /// Imaginary part, widened to `f64`.
    fn im(self) -> f64;
    /// Modulus in `f64`, overflow-safe in the component type.
    fn abs(self) -> f64;
    /// Squared modulus in `f64`.
    fn abs2(self) -> f64;
    /// Multiply by a real `f64` scalar (rounding the product).
    fn scale(self, s: f64) -> Self;
    /// `self * other.conj()`.
    fn mul_conj(self, other: Self) -> Self;
}

impl ComplexScalar for f64 {
    const EPS: f64 = f64::EPSILON;
    const TAG: &'static str = "f64";

    #[inline(always)]
    fn new(re: f64, _im: f64) -> Self {
        re
    }

    #[inline(always)]
    fn re(self) -> f64 {
        self
    }

    #[inline(always)]
    fn im(self) -> f64 {
        0.0
    }

    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
    }

    #[inline(always)]
    fn abs2(self) -> f64 {
        self * self
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        self * s
    }

    #[inline(always)]
    fn mul_conj(self, other: Self) -> Self {
        self * other
    }
}

impl ComplexScalar for f32 {
    const EPS: f64 = f32::EPSILON as f64;
    const TAG: &'static str = "f32";

    #[inline(always)]
    fn new(re: f64, _im: f64) -> Self {
        // tidy: allow(lossy-cast) -- rounding to f32 is this method's contract
        re as f32
    }

    #[inline(always)]
    fn re(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn im(self) -> f64 {
        0.0
    }

    #[inline(always)]
    fn abs(self) -> f64 {
        (self as f64).abs()
    }

    #[inline(always)]
    fn abs2(self) -> f64 {
        let x = self as f64;
        x * x
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        // tidy: allow(lossy-cast) -- product rounds back to f32
        (self as f64 * s) as f32
    }

    #[inline(always)]
    fn mul_conj(self, other: Self) -> Self {
        self * other
    }
}

impl ComplexScalar for C64 {
    const EPS: f64 = f64::EPSILON;
    const TAG: &'static str = "c64";

    #[inline(always)]
    fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    #[inline(always)]
    fn re(self) -> f64 {
        self.re
    }

    #[inline(always)]
    fn im(self) -> f64 {
        self.im
    }

    #[inline(always)]
    fn abs(self) -> f64 {
        C64::abs(self)
    }

    #[inline(always)]
    fn abs2(self) -> f64 {
        C64::abs2(self)
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        C64::scale(self, s)
    }

    #[inline(always)]
    fn mul_conj(self, other: Self) -> Self {
        C64::mul_conj(self, other)
    }
}

impl ComplexScalar for C32 {
    const EPS: f64 = f32::EPSILON as f64;
    const TAG: &'static str = "c32";

    #[inline(always)]
    fn new(re: f64, im: f64) -> Self {
        // tidy: allow(lossy-cast) -- rounding to component precision is the contract
        c32(re as f32, im as f32)
    }

    #[inline(always)]
    fn re(self) -> f64 {
        self.re as f64
    }

    #[inline(always)]
    fn im(self) -> f64 {
        self.im as f64
    }

    #[inline(always)]
    fn abs(self) -> f64 {
        // Widen first: hypot in f64 cannot overflow on f32 components.
        (self.re as f64).hypot(self.im as f64)
    }

    #[inline(always)]
    fn abs2(self) -> f64 {
        let (re, im) = (self.re as f64, self.im as f64);
        re * re + im * im
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        // tidy: allow(lossy-cast) -- product rounds back to component precision
        c32(
            (self.re as f64 * s) as f32, // tidy: allow(lossy-cast) -- see above
            (self.im as f64 * s) as f32, // tidy: allow(lossy-cast) -- see above
        )
    }

    #[inline(always)]
    fn mul_conj(self, other: Self) -> Self {
        c32(
            self.re * other.re + self.im * other.im,
            self.im * other.re - self.re * other.im,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn identities_behave() {
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
        assert_eq!(C64::ZERO + C64::ONE, c64(1.0, 0.0));
        assert_eq!(<f64 as Scalar>::conj(3.5), 3.5);
        assert_eq!(<C64 as Scalar>::conj(c64(1.0, 2.0)), c64(1.0, -2.0));
        fn is_complex<T: Scalar>() -> bool {
            T::IS_COMPLEX
        }
        assert!(!is_complex::<f64>());
        assert!(is_complex::<C64>());
    }

    #[test]
    fn mul_add_matches_mul_then_add_to_rounding() {
        // The fused forms differ from mul-then-add only in rounding;
        // on representable products they agree exactly.
        assert_eq!(<f64 as Scalar>::mul_add(3.0, 4.0, 5.0), 17.0);
        let z = <C64 as Scalar>::mul_add(c64(1.0, 2.0), c64(3.0, -1.0), c64(0.5, 0.25));
        assert_eq!(z, c64(1.0 * 3.0 + 2.0 * 1.0 + 0.5, -1.0 + 6.0 + 0.25));
    }

    #[test]
    fn weights_match_convention() {
        assert_eq!(f64::MULADD_FLOPS, 2);
        assert_eq!(C64::MULADD_FLOPS, 8);
        assert_eq!(f64::BYTES, 8);
        assert_eq!(C64::BYTES, 16);
        assert_eq!(<f32 as Scalar>::MULADD_FLOPS, 2);
        assert_eq!(<C32 as Scalar>::MULADD_FLOPS, 8);
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(<C32 as Scalar>::BYTES, 8);
    }

    #[test]
    fn complex_scalar_routes_through_f64() {
        let z = <C32 as ComplexScalar>::new(1.5, -2.5);
        assert_eq!(z, c32(1.5, -2.5));
        assert_eq!(z.re(), 1.5);
        assert_eq!(z.im(), -2.5);
        assert_eq!(ComplexScalar::abs2(z), 1.5 * 1.5 + 2.5 * 2.5);
        // abs widens before hypot: f32::MAX components stay finite.
        let big = c32(f32::MAX, f32::MAX);
        assert!(ComplexScalar::abs(big).is_finite());
        // EPS scales with the component precision.
        assert_eq!(<C32 as ComplexScalar>::EPS, f32::EPSILON as f64);
        assert_eq!(<C64 as ComplexScalar>::EPS, f64::EPSILON);
        assert_eq!(<C32 as ComplexScalar>::TAG, "c32");
        // C64 accessors are exact.
        let w = <C64 as ComplexScalar>::new(3.0, 4.0);
        assert_eq!(ComplexScalar::abs(w), 5.0);
        assert_eq!(w.scale(2.0), c64(6.0, 8.0));
    }

    #[test]
    fn reals_are_complex_with_zero_imaginary_part() {
        let x = <f64 as ComplexScalar>::new(-2.5, 7.0);
        assert_eq!(x, -2.5);
        assert_eq!((x.re(), x.im()), (-2.5, 0.0));
        assert_eq!(ComplexScalar::abs2(x), 6.25);
        assert_eq!(x.scale(2.0), -5.0);
        assert_eq!(x.mul_conj(3.0), -7.5);
        let y = <f32 as ComplexScalar>::new(1.5, 1.0);
        assert_eq!((y.re(), y.im()), (1.5, 0.0));
        assert_eq!(<f32 as ComplexScalar>::EPS, f32::EPSILON as f64);
        assert_eq!(<f64 as ComplexScalar>::TAG, "f64");
    }

    #[test]
    fn from_f64_embeds_reals() {
        assert_eq!(<C64 as Scalar>::from_f64(-2.5), c64(-2.5, 0.0));
        assert_eq!(<f64 as Scalar>::from_f64(-2.5), -2.5);
    }
}
