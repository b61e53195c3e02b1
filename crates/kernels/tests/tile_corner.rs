//! Every GEMM tile writes only the `mr_eff x nr_eff` corner it owns.
//!
//! For every dispatch path of the four element types, a `gemm` runs into
//! a `C` whose leading dimension `ldc = m + 3` leaves three padding rows
//! below every column, plus a guard tail past the last column. Both
//! hold a signaling NaN: a plain load and store moves it unchanged, but
//! any arithmetic quiets it, so even a stray `c + alpha * 0` on a lane
//! outside the corner changes its bits. The shapes `m in 1..=49` and
//! `n in 1..=13` hit every row and column remainder of every tile (the
//! largest tile is 48 rows, the widest 12 columns), at `beta` 0 and 1.
//! The `m x n` block itself must be bitwise the portable scalar path's.

use tseig_kernels::blas3::engine::{gemm_with_kernel, GemmScalar};
use tseig_kernels::blas3::Op;
use tseig_matrix::{C32, C64};

/// Elements past the last column, also poisoned.
const GUARD: usize = 64;

/// What the test needs of an element type beyond the engine's traits.
trait Elem: GemmScalar {
    /// A deterministic, exactly representable test value.
    fn val(i: usize) -> Self;
    /// A signaling NaN in every component.
    fn poison() -> Self;
    /// The bit patterns of the components.
    fn bits(self) -> (u64, u64);
}

fn small(i: usize) -> f64 {
    (i % 13) as f64 - 6.0 + 0.25 * ((i * 7) % 5) as f64
}

impl Elem for f64 {
    fn val(i: usize) -> Self {
        small(i)
    }
    fn poison() -> Self {
        f64::from_bits(0x7ff0_0000_0000_0001)
    }
    fn bits(self) -> (u64, u64) {
        (self.to_bits(), 0)
    }
}

impl Elem for f32 {
    fn val(i: usize) -> Self {
        small(i) as f32
    }
    fn poison() -> Self {
        f32::from_bits(0x7f80_0001)
    }
    fn bits(self) -> (u64, u64) {
        (u64::from(self.to_bits()), 0)
    }
}

impl Elem for C64 {
    fn val(i: usize) -> Self {
        C64 {
            re: small(i),
            im: small(3 * i + 1),
        }
    }
    fn poison() -> Self {
        C64 {
            re: f64::poison(),
            im: f64::poison(),
        }
    }
    fn bits(self) -> (u64, u64) {
        (self.re.to_bits(), self.im.to_bits())
    }
}

impl Elem for C32 {
    fn val(i: usize) -> Self {
        C32 {
            re: small(i) as f32,
            im: small(3 * i + 1) as f32,
        }
    }
    fn poison() -> Self {
        C32 {
            re: f32::poison(),
            im: f32::poison(),
        }
    }
    fn bits(self) -> (u64, u64) {
        (u64::from(self.re.to_bits()), u64::from(self.im.to_bits()))
    }
}

fn tiles_write_only_their_corner<T: Elem>() {
    let scalar = T::by_name("scalar").expect("scalar path");
    let k = 7;
    let alpha = T::val(11);
    for m in 1..=49 {
        for n in 1..=13 {
            let a: Vec<T> = (0..m * k).map(T::val).collect();
            let b: Vec<T> = (0..k * n).map(|i| T::val(5 * i + 2)).collect();
            let ldc = m + 3;
            let pad = |i: usize| i >= ldc * n || i % ldc >= m;
            let c0: Vec<T> = (0..ldc * n + GUARD)
                .map(|i| {
                    if pad(i) {
                        T::poison()
                    } else {
                        T::val(3 * i + 1)
                    }
                })
                .collect();
            for beta in [T::ZERO, T::ONE] {
                let run = |kern| {
                    let mut c = c0.clone();
                    gemm_with_kernel(
                        kern,
                        Op::No,
                        Op::No,
                        m,
                        n,
                        k,
                        alpha,
                        &a,
                        m,
                        &b,
                        k,
                        beta,
                        &mut c,
                        ldc,
                    );
                    c
                };
                let want = run(scalar);
                for kern in T::available() {
                    let got = run(kern);
                    for (i, g) in got.iter().enumerate() {
                        let w = if pad(i) { c0[i] } else { want[i] };
                        assert_eq!(
                            g.bits(),
                            w.bits(),
                            "{} {}: m={m} n={n} beta={beta:?} index {i} ({})",
                            std::any::type_name::<T>(),
                            kern.name,
                            if pad(i) { "padding" } else { "block" },
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_tiles_write_only_their_corner() {
    tiles_write_only_their_corner::<f64>();
    tiles_write_only_their_corner::<f32>();
    tiles_write_only_their_corner::<C64>();
    tiles_write_only_their_corner::<C32>();
}
