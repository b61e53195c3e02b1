//! Workspace requirement arithmetic for the solve-plan layer.
//!
//! Every stage of the two-stage pipeline exports a `*_req(...)` sizing
//! function built from [`MemReq`] values; a [`SolvePlan`] (see
//! `tseig-core`) allocates once against the combined requirement and then
//! carves its per-solve buffers out of retained capacity. The type is a
//! byte-accounting analogue of faer's `StackReq`: `and` sums requirements
//! that live side by side, `or` takes the max of requirements whose
//! lifetimes never overlap.
//!
//! The requirements are *bounds for reporting and testing*, not an
//! arena: the plan owns typed buffers (matrices, vectors) whose combined
//! retained capacity a test asserts against the advertised requirement,
//! so a kernel that silently grows its footprint past its `*_req` fails
//! in CI rather than in a long-lived service.

/// A memory requirement in bytes (element counts folded in by the
/// `for_f64`-style constructors).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemReq {
    bytes: usize,
}

impl MemReq {
    /// The empty requirement.
    pub const EMPTY: MemReq = MemReq { bytes: 0 };

    /// Requirement of `n` bytes.
    pub fn bytes(n: usize) -> MemReq {
        MemReq { bytes: n }
    }

    /// Requirement of `n` elements of type `T`.
    pub fn of<T>(n: usize) -> MemReq {
        MemReq {
            bytes: n.saturating_mul(std::mem::size_of::<T>()),
        }
    }

    /// Requirement of `n` `f64` elements (the workspace's common case).
    pub fn f64s(n: usize) -> MemReq {
        MemReq::of::<f64>(n)
    }

    /// Combined requirement of two buffers that exist at the same time.
    #[must_use]
    pub fn and(self, other: MemReq) -> MemReq {
        MemReq {
            bytes: self.bytes.saturating_add(other.bytes),
        }
    }

    /// Requirement of two buffers whose lifetimes never overlap: the
    /// larger of the two can serve both.
    #[must_use]
    pub fn or(self, other: MemReq) -> MemReq {
        MemReq {
            bytes: self.bytes.max(other.bytes),
        }
    }

    /// `self` repeated `k` times side by side.
    #[must_use]
    pub fn times(self, k: usize) -> MemReq {
        MemReq {
            bytes: self.bytes.saturating_mul(k),
        }
    }

    /// Total requirement in bytes.
    pub fn total_bytes(self) -> usize {
        self.bytes
    }

    /// Sum of side-by-side requirements (`and` over an iterator).
    pub fn all(reqs: impl IntoIterator<Item = MemReq>) -> MemReq {
        reqs.into_iter().fold(MemReq::EMPTY, MemReq::and)
    }

    /// Max of mutually exclusive requirements (`or` over an iterator).
    pub fn any(reqs: impl IntoIterator<Item = MemReq>) -> MemReq {
        reqs.into_iter().fold(MemReq::EMPTY, MemReq::or)
    }
}

/// Reset `buf` to `len` zeroed elements without amortized growth: once
/// the buffer has warmed up to its peak size this performs no allocation,
/// and a cold buffer allocates exactly `len` (so retained footprints stay
/// within the advertised `*_req` bounds instead of doubling past them).
/// Contents are bit-identical to a fresh `vec![0.0; len]`.
pub fn reset_f64s(buf: &mut Vec<f64>, len: usize) {
    reset_zeroed(buf, len);
}

/// [`reset_f64s`] at any element type.
pub fn reset_zeroed<T: crate::Scalar>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.reserve_exact(len);
    buf.resize(len, T::ZERO);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinators() {
        let a = MemReq::f64s(4); // 32 bytes
        let b = MemReq::bytes(100);
        assert_eq!(a.and(b).total_bytes(), 132);
        assert_eq!(a.or(b).total_bytes(), 100);
        assert_eq!(a.times(3).total_bytes(), 96);
        assert_eq!(MemReq::all([a, b, a]).total_bytes(), 164);
        assert_eq!(MemReq::any([a, b, a]).total_bytes(), 100);
        assert_eq!(MemReq::EMPTY.total_bytes(), 0);
    }

    #[test]
    fn reset_is_exact_and_retains_capacity() {
        let mut buf = Vec::new();
        reset_f64s(&mut buf, 10);
        assert_eq!(buf, vec![0.0; 10]);
        assert_eq!(buf.capacity(), 10);
        buf[3] = 5.0;
        reset_f64s(&mut buf, 7);
        assert_eq!(buf, vec![0.0; 7]);
        assert_eq!(buf.capacity(), 10);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let huge = MemReq::bytes(usize::MAX);
        assert_eq!(huge.and(huge).total_bytes(), usize::MAX);
        assert_eq!(MemReq::of::<f64>(usize::MAX).total_bytes(), usize::MAX);
    }
}
