//! Runtime contracts for kernel entry points.
//!
//! Every public BLAS-1/2/3, Householder and factorization entry point
//! validates its arguments through this module **in debug builds**:
//! dimension/leading-dimension bounds, slice-length coverage of the
//! addressed region, and pointer-range alias checks between input and
//! output operands. A violated contract aborts with the kernel name, the
//! argument name, and the violated bound — instead of the opaque
//! `index out of bounds` (or, worse, silently wrong numbers) the raw
//! loop nests would produce.
//!
//! In release builds (`debug_assertions` off) every check compiles to
//! nothing: the checks sit outside the `O(n^3)` loops and inside
//! `if cfg!(debug_assertions)` blocks, so the hot paths the ledger times
//! in its release build are untouched.
//!
//! The opt-in `paranoid` cargo feature adds non-finite (NaN/Inf) *input
//! poison* detection on top, in debug builds only. That is deliberately
//! not part of the default contract: NaN can be a legitimate in-band
//! value in partially-initialized workspaces (e.g. the mirrored triangle
//! a `symv_lower` caller never reads), so poison checks scan exactly the
//! region a kernel's contract says it reads — and nothing else.

use tseig_matrix::Scalar;

/// True when contract checks are active (debug builds).
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Validate a column-major matrix operand: `ld >= rows.max(1)` and the
/// slice covers the addressed region `(cols-1)*ld + rows`.
///
/// `kernel`/`arg` name the call site in the failure message.
#[inline]
#[track_caller]
pub fn require_mat<T>(kernel: &str, arg: &str, s: &[T], rows: usize, cols: usize, ld: usize) {
    if enabled() {
        assert!(
            ld >= rows.max(1),
            "{kernel}: leading dimension of `{arg}` too small: ld{arg} = {ld} < max(rows, 1) = {} \
             (rows = {rows}, cols = {cols})",
            rows.max(1)
        );
        let needed = if rows == 0 || cols == 0 {
            0
        } else {
            (cols - 1) * ld + rows
        };
        assert!(
            s.len() >= needed,
            "{kernel}: `{arg}` slice too short: len = {} < (cols-1)*ld + rows = {needed} \
             (rows = {rows}, cols = {cols}, ld{arg} = {ld})",
            s.len()
        );
    }
}

/// Validate a vector operand: the slice must hold at least `n` elements.
#[inline]
#[track_caller]
pub fn require_vec<T>(kernel: &str, arg: &str, s: &[T], n: usize) {
    if enabled() {
        assert!(
            s.len() >= n,
            "{kernel}: `{arg}` slice too short: len = {} < n = {n}",
            s.len()
        );
    }
}

/// Reject pointer-range overlap between a read operand and the write
/// operand. BLAS semantics assume no aliasing; with Rust slices the
/// borrow checker usually enforces this, but distinct `&[f64]`/`&mut
/// [f64]` arguments can still overlap when carved out of raw parts or
/// leaked buffers — and an aliased `gemm` quietly reads its own partial
/// output.
#[inline]
#[track_caller]
pub fn require_no_alias<T>(kernel: &str, in_name: &str, a: &[T], out_name: &str, c: &[T]) {
    if enabled() {
        if a.is_empty() || c.is_empty() {
            return;
        }
        let ar = a.as_ptr_range();
        let cr = c.as_ptr_range();
        assert!(
            ar.end <= cr.start || cr.end <= ar.start,
            "{kernel}: input `{in_name}` ({} elems) overlaps output `{out_name}` ({} elems); \
             kernels require non-aliased operands",
            a.len(),
            c.len()
        );
    }
}

/// `paranoid` only: every element of the addressed `rows x cols` region
/// (leading dimension `ld`) must be finite.
#[inline]
#[track_caller]
pub fn require_finite_mat<T: Scalar>(
    kernel: &str,
    arg: &str,
    s: &[T],
    rows: usize,
    cols: usize,
    ld: usize,
) {
    #[cfg(feature = "paranoid")]
    if enabled() {
        for j in 0..cols {
            for i in 0..rows {
                let v = s[i + j * ld];
                assert!(
                    v.is_finite(),
                    "{kernel}: non-finite input poison in `{arg}` at ({i}, {j}): {v:?}"
                );
            }
        }
    }
    #[cfg(not(feature = "paranoid"))]
    let _ = (kernel, arg, s, rows, cols, ld);
}

/// `paranoid` only: the stored lower triangle (diagonal included) of an
/// order-`n` operand must be finite. The mirrored upper triangle is
/// *outside* the read contract of `sy*`/`symv` kernels and may hold
/// anything.
#[inline]
#[track_caller]
pub fn require_finite_lower<T: Scalar>(kernel: &str, arg: &str, s: &[T], n: usize, ld: usize) {
    #[cfg(feature = "paranoid")]
    if enabled() {
        for j in 0..n {
            for i in j..n {
                let v = s[i + j * ld];
                assert!(
                    v.is_finite(),
                    "{kernel}: non-finite input poison in lower triangle of `{arg}` \
                     at ({i}, {j}): {v:?}"
                );
            }
        }
    }
    #[cfg(not(feature = "paranoid"))]
    let _ = (kernel, arg, s, n, ld);
}

/// `paranoid` only: the stored upper triangle (diagonal included) of an
/// order-`n` operand must be finite. Counterpart of
/// [`require_finite_lower`] for upper-triangular kernels (`trmm` on the
/// compact WY factor `T`).
#[inline]
#[track_caller]
pub fn require_finite_upper<T: Scalar>(kernel: &str, arg: &str, s: &[T], n: usize, ld: usize) {
    #[cfg(feature = "paranoid")]
    if enabled() {
        for j in 0..n {
            for i in 0..=j {
                let v = s[i + j * ld];
                assert!(
                    v.is_finite(),
                    "{kernel}: non-finite input poison in upper triangle of `{arg}` \
                     at ({i}, {j}): {v:?}"
                );
            }
        }
    }
    #[cfg(not(feature = "paranoid"))]
    let _ = (kernel, arg, s, n, ld);
}

/// `paranoid` only: every element of a vector operand must be finite.
#[inline]
#[track_caller]
pub fn require_finite_vec<T: Scalar>(kernel: &str, arg: &str, s: &[T], n: usize) {
    #[cfg(feature = "paranoid")]
    if enabled() {
        for (i, v) in s[..n].iter().enumerate() {
            assert!(
                v.is_finite(),
                "{kernel}: non-finite input poison in `{arg}` at {i}: {v:?}"
            );
        }
    }
    #[cfg(not(feature = "paranoid"))]
    let _ = (kernel, arg, s, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_operands_pass() {
        let a = vec![0.0; 7 * 3];
        require_mat("t", "a", &a, 7, 3, 7);
        require_mat("t", "a", &a, 5, 3, 7); // ld > rows with slack
        require_mat("t", "a", &a, 0, 0, 1); // degenerate
        require_vec("t", "x", &a, 21);
        require_no_alias("t", "a", &a[..10], "c", &a[10..]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "leading dimension")]
    fn small_ld_is_caught() {
        let a = vec![0.0; 12];
        require_mat("gemm", "a", &a, 4, 3, 3);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "slice too short")]
    fn short_slice_is_caught() {
        let a = vec![0.0; 11];
        require_mat("gemm", "a", &a, 4, 3, 4);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "overlaps output")]
    fn aliased_operands_are_caught() {
        let buf = [0.0; 16];
        // Overlapping halves carved from one allocation.
        require_no_alias("gemm", "a", &buf[..10], "c", &buf[6..]);
    }

    #[test]
    fn disjoint_ranges_from_one_allocation_pass() {
        let buf = vec![0.0; 16];
        require_no_alias("gemm", "a", &buf[..8], "c", &buf[8..]);
        require_no_alias("gemm", "a", &[], "c", &buf);
    }

    #[cfg(feature = "paranoid")]
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn paranoid_catches_nan() {
        let mut a = vec![0.0; 9];
        a[4] = f64::NAN;
        require_finite_mat("gemm", "a", &a, 3, 3, 3);
    }

    #[cfg(feature = "paranoid")]
    #[test]
    fn paranoid_ignores_poison_outside_the_contract() {
        // NaN in the mirrored (upper) triangle is legal for lower-triangle
        // kernels: require_finite_lower must not scan it.
        let n = 3;
        let mut a = vec![1.0; n * n];
        a[3] = f64::NAN; // (0,1): strictly upper
        require_finite_lower("symv", "a", &a, n, n);
    }
}
