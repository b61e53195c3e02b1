//! Symmetric (Hermitian) band storage (lower), with workspace
//! sub-diagonals for bulges.
//!
//! The bulge-chasing stage of the two-stage algorithm works on a symmetric
//! band matrix of semi-bandwidth `b = nb`. While a bulge is being chased it
//! temporarily creates fill-in up to `b` rows *below* the band. To let that
//! happen without reallocation, [`SymBandMatrix`] stores `b + extra + 1`
//! diagonals in LAPACK lower-band layout: element `A(i, j)` (with
//! `j <= i <= j + b + extra`) lives at `ab[(i - j) + j * ldab]`.
//!
//! Only the lower triangle is stored; `get`/`set` transparently apply the
//! Hermitian symmetry `A(i, j) == conj(A(j, i))`, which is plain symmetry
//! for the real element types.

use crate::dense::Matrix;
use crate::scalar::ComplexScalar;
use crate::tridiagonal::SymTridiagonal;

/// Symmetric (Hermitian) matrix in lower band storage with workspace
/// rows, at any of the four element types.
#[derive(Clone, Debug, PartialEq)]
pub struct SymBandMatrix<T = f64> {
    n: usize,
    /// Semi-bandwidth of the *logical* band (number of sub-diagonals that
    /// hold matrix data when no bulge is in flight).
    bandwidth: usize,
    /// Extra sub-diagonals kept as bulge workspace.
    extra: usize,
    /// `ldab x n` column-major buffer, `ldab = bandwidth + extra + 1`.
    ab: Vec<T>,
}

impl<T: ComplexScalar> Default for SymBandMatrix<T> {
    /// The empty order-0 band matrix.
    fn default() -> Self {
        SymBandMatrix::zeros(0, 0, 0)
    }
}

impl<T: ComplexScalar> SymBandMatrix<T> {
    /// Zero-filled band matrix of order `n`, semi-bandwidth `bandwidth`,
    /// with `extra` workspace sub-diagonals.
    pub fn zeros(n: usize, bandwidth: usize, extra: usize) -> Self {
        let ldab = bandwidth + extra + 1;
        SymBandMatrix {
            n,
            bandwidth,
            extra,
            ab: vec![T::ZERO; ldab * n],
        }
    }

    /// Order of the matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Logical semi-bandwidth.
    #[inline]
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Number of workspace sub-diagonals below the logical band.
    #[inline]
    pub fn extra(&self) -> usize {
        self.extra
    }

    /// Leading dimension of the band buffer.
    #[inline]
    pub fn ldab(&self) -> usize {
        self.bandwidth + self.extra + 1
    }

    /// Read `A(i, j)`; an upper-triangle read returns the conjugate of the
    /// stored mirror, and elements outside the stored band read as zero.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        if r - c > self.bandwidth + self.extra {
            return T::ZERO;
        }
        let v = self.ab[(r - c) + c * self.ldab()];
        if i >= j {
            v
        } else {
            v.conj()
        }
    }

    /// Write `A(i, j)` (and implicitly `A(j, i) = conj(A(i, j))`). Panics
    /// outside the stored diagonals.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let (i, j, v) = if i >= j { (i, j, v) } else { (j, i, v.conj()) };
        assert!(
            i - j <= self.bandwidth + self.extra && i < self.n,
            "write outside stored band: ({i},{j}), bw {} extra {}",
            self.bandwidth,
            self.extra
        );
        let ldab = self.ldab();
        self.ab[(i - j) + j * ldab] = v;
    }

    /// Stored part of column `j`: `A(j..=min(j+bw+extra, n-1), j)`,
    /// starting at the diagonal element.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        let ldab = self.ldab();
        let len = (self.n - j).min(ldab);
        &self.ab[j * ldab..j * ldab + len]
    }

    /// Mutable stored part of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        let ldab = self.ldab();
        let len = (self.n - j).min(ldab);
        &mut self.ab[j * ldab..j * ldab + len]
    }

    /// Raw band buffer (column-major, `ldab x n`).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.ab
    }

    /// Raw band buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.ab
    }

    /// Reset in place to the lower band of the order-`n` Hermitian matrix
    /// held column-major in `a` (leading dimension `lda`; only its lower
    /// triangle is referenced, and the diagonal's imaginary part is
    /// dropped), reusing the buffer. The shape `(n, bandwidth, extra)`
    /// may change; once the buffer capacity covers the largest shape
    /// seen, this is allocation-free.
    pub fn refill_from_lower(
        &mut self,
        n: usize,
        a: &[T],
        lda: usize,
        bandwidth: usize,
        extra: usize,
    ) {
        let ldab = bandwidth + extra + 1;
        self.n = n;
        self.bandwidth = bandwidth;
        self.extra = extra;
        self.ab.clear();
        self.ab.reserve_exact(ldab * n);
        self.ab.resize(ldab * n, T::ZERO);
        for j in 0..n {
            let len = (n - j).min(bandwidth + 1);
            let src = &a[j + j * lda..j + j * lda + len];
            let dst = &mut self.ab[j * ldab..j * ldab + len];
            dst.copy_from_slice(src);
            dst[0] = T::new(dst[0].re(), 0.0);
        }
    }

    /// Overwrite `self` with a copy of `other`, reusing the buffer
    /// (allocation-free once capacity covers `other`'s buffer).
    pub fn copy_from(&mut self, other: &SymBandMatrix<T>) {
        self.n = other.n;
        self.bandwidth = other.bandwidth;
        self.extra = other.extra;
        self.ab.clear();
        self.ab.extend_from_slice(&other.ab);
    }

    /// Bytes of heap capacity retained by the band buffer.
    pub fn capacity_bytes(&self) -> usize {
        self.ab.capacity() * std::mem::size_of::<T>()
    }
}

impl SymBandMatrix {
    /// Extract the lower band of a dense symmetric matrix (only the lower
    /// triangle of `a` is referenced).
    pub fn from_dense_lower(a: &Matrix, bandwidth: usize, extra: usize) -> Self {
        let mut b = SymBandMatrix::default();
        b.refill_from_dense_lower(a, bandwidth, extra);
        b
    }

    /// Expand to a dense symmetric [`Matrix`] (both triangles filled).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in j..(j + self.bandwidth + self.extra + 1).min(self.n) {
                let v = self.get(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// Extract the symmetric tridiagonal `(d, e)` from the first two
    /// stored diagonals. Valid once the bulge chase has driven the band to
    /// tridiagonal form.
    pub fn to_tridiagonal(&self) -> SymTridiagonal {
        let mut t = SymTridiagonal::new(Vec::new(), Vec::new());
        t.reset_to(self.n);
        let (d, e) = t.parts_mut();
        self.to_tridiagonal_into(d, e);
        t
    }

    /// [`Self::to_tridiagonal`] into caller-owned storage: `d` must have
    /// length `n` and `e` length `n - 1` (or both empty for `n == 0`).
    pub fn to_tridiagonal_into(&self, d: &mut [f64], e: &mut [f64]) {
        assert_eq!(d.len(), self.n);
        assert_eq!(e.len(), self.n.saturating_sub(1));
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = self.get(j, j);
        }
        for (j, ej) in e.iter_mut().enumerate() {
            *ej = self.get(j + 1, j);
        }
    }

    /// Reset in place to the lower band of the dense symmetric `a`,
    /// reusing the buffer (see [`Self::refill_from_lower`]). Same values
    /// as [`Self::from_dense_lower`].
    pub fn refill_from_dense_lower(&mut self, a: &Matrix, bandwidth: usize, extra: usize) {
        assert_eq!(a.rows(), a.cols());
        self.refill_from_lower(a.rows(), a.as_slice(), a.ld(), bandwidth, extra);
    }

    /// Largest absolute value found strictly below sub-diagonal `k`
    /// (within the stored workspace rows). Used by tests to assert that
    /// bulge chasing leaves no fill-in behind: after the chase,
    /// `max_below_subdiagonal(1) == 0`.
    pub fn max_below_subdiagonal(&self, k: usize) -> f64 {
        let mut m = 0.0f64;
        for j in 0..self.n {
            for i in (j + k + 1)..(j + self.bandwidth + self.extra + 1).min(self.n) {
                m = m.max(self.get(i, j).abs());
            }
        }
        m
    }
}

/// General (non-symmetric) square band matrix in LAPACK band layout.
///
/// The SVD's band-bidiagonal bulge chase works on an *upper* band of `ku`
/// logical super-diagonals, but while a bulge is in flight the left
/// reflectors create fill-in up to `kl` rows below the diagonal and the
/// right reflectors up to `ku` extra columns beyond it. All stored
/// diagonals are allocated up front so the chase never reallocates:
/// element `A(i, j)` with `j - ku <= i <= j + kl` lives at
/// `ab[(ku + i - j) + j * ldab]`, `ldab = kl + ku + 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct GeBandMatrix {
    n: usize,
    /// Stored sub-diagonals (bulge workspace below the diagonal).
    kl: usize,
    /// Stored super-diagonals (logical band plus bulge workspace).
    ku: usize,
    /// `ldab x n` column-major buffer, `ldab = kl + ku + 1`.
    ab: Vec<f64>,
}

impl Default for GeBandMatrix {
    /// The empty order-0 band matrix.
    fn default() -> Self {
        GeBandMatrix::zeros(0, 0, 0)
    }
}

impl GeBandMatrix {
    /// Zero-filled general band matrix of order `n` with `kl` stored
    /// sub-diagonals and `ku` stored super-diagonals.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let ldab = kl + ku + 1;
        GeBandMatrix {
            n,
            kl,
            ku,
            ab: vec![0.0; ldab * n],
        }
    }

    /// Extract the `(kl, ku)` band of a dense square matrix.
    pub fn from_dense(a: &Matrix, kl: usize, ku: usize) -> Self {
        assert_eq!(a.rows(), a.cols());
        let n = a.rows();
        let mut b = GeBandMatrix::zeros(n, kl, ku);
        for j in 0..n {
            for i in j.saturating_sub(ku)..(j + kl + 1).min(n) {
                b.set(i, j, a[(i, j)]);
            }
        }
        b
    }

    /// Order of the matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored sub-diagonals.
    #[inline]
    pub fn kl(&self) -> usize {
        self.kl
    }

    /// Stored super-diagonals.
    #[inline]
    pub fn ku(&self) -> usize {
        self.ku
    }

    /// Leading dimension of the band buffer.
    #[inline]
    pub fn ldab(&self) -> usize {
        self.kl + self.ku + 1
    }

    /// `true` iff `(i, j)` lies inside the stored diagonals.
    #[inline]
    pub fn in_store(&self, i: usize, j: usize) -> bool {
        i < self.n && j < self.n && i + self.ku >= j && i <= j + self.kl
    }

    /// Read `A(i, j)`; elements outside the stored band read as zero.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if self.in_store(i, j) {
            self.ab[(self.ku + i - j) + j * self.ldab()]
        } else {
            0.0
        }
    }

    /// Write `A(i, j)`. Panics outside the stored diagonals.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            self.in_store(i, j),
            "write outside stored band: ({i},{j}), kl {} ku {}",
            self.kl,
            self.ku
        );
        let ldab = self.ldab();
        self.ab[(self.ku + i - j) + j * ldab] = v;
    }

    /// Raw band buffer (column-major, `ldab x n`).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.ab
    }

    /// Raw band buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.ab
    }

    /// Expand to a dense [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in j.saturating_sub(self.ku)..(j + self.kl + 1).min(self.n) {
                m[(i, j)] = self.get(i, j);
            }
        }
        m
    }

    /// Extract the upper bidiagonal `(d, e)` from the diagonal and first
    /// super-diagonal into caller-owned storage: `d` must have length `n`
    /// and `e` length `n - 1` (both empty for `n == 0`). Valid once the
    /// bulge chase has driven the band to bidiagonal form.
    pub fn to_bidiagonal_into(&self, d: &mut [f64], e: &mut [f64]) {
        assert_eq!(d.len(), self.n);
        assert_eq!(e.len(), self.n.saturating_sub(1));
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = self.get(j, j);
        }
        for (j, ej) in e.iter_mut().enumerate() {
            *ej = self.get(j, j + 1);
        }
    }

    /// Largest absolute value stored off the main diagonal and first
    /// super-diagonal. Zero once the chase has finished.
    pub fn max_outside_bidiagonal(&self) -> f64 {
        let mut m = 0.0f64;
        for j in 0..self.n {
            for i in j.saturating_sub(self.ku)..(j + self.kl + 1).min(self.n) {
                if i == j || (j == i + 1) {
                    continue;
                }
                m = m.max(self.get(i, j).abs());
            }
        }
        m
    }

    /// Reset in place to a zero band of the given shape, reusing the
    /// buffer; allocation-free once capacity covers the largest shape
    /// seen.
    pub fn reset(&mut self, n: usize, kl: usize, ku: usize) {
        let ldab = kl + ku + 1;
        self.n = n;
        self.kl = kl;
        self.ku = ku;
        self.ab.clear();
        self.ab.reserve_exact(ldab * n);
        self.ab.resize(ldab * n, 0.0);
    }

    /// Bytes of heap capacity retained by the band buffer.
    pub fn capacity_bytes(&self) -> usize {
        self.ab.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_dense_band_dense() {
        let n = 6;
        let bw = 2;
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i.abs_diff(j) <= bw {
                (1 + i + j) as f64
            } else {
                0.0
            }
        });
        a.symmetrize_from_lower();
        let b = SymBandMatrix::from_dense_lower(&a, bw, 3);
        assert!(b.to_dense().approx_eq(&a, 0.0));
    }

    #[test]
    fn symmetry_of_get_set() {
        let mut b = SymBandMatrix::zeros(5, 2, 0);
        b.set(1, 3, 7.0); // upper-triangle write goes to the lower store
        assert_eq!(b.get(3, 1), 7.0);
        assert_eq!(b.get(1, 3), 7.0);
        // Outside the band reads as zero.
        assert_eq!(b.get(4, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn write_outside_band_panics() {
        let mut b = SymBandMatrix::zeros(5, 1, 0);
        b.set(3, 0, 1.0);
    }

    #[test]
    fn column_slices() {
        let mut b = SymBandMatrix::zeros(4, 1, 1);
        b.set(2, 2, 5.0);
        b.set(3, 2, 6.0);
        assert_eq!(b.col(2), &[5.0, 6.0]); // truncated near the edge
        assert_eq!(b.col(3), &[0.0]);
        b.col_mut(3)[0] = 9.0;
        assert_eq!(b.get(3, 3), 9.0);
    }

    #[test]
    fn tridiagonal_extraction() {
        let mut b = SymBandMatrix::zeros(3, 2, 0);
        for j in 0..3 {
            b.set(j, j, (j + 1) as f64);
        }
        b.set(1, 0, -1.0);
        b.set(2, 1, -2.0);
        let t = b.to_tridiagonal();
        assert_eq!(t.diag(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.off_diag(), &[-1.0, -2.0]);
    }

    #[test]
    fn geband_roundtrip_and_bounds() {
        let n = 6;
        let (kl, ku) = (1, 3);
        let a = Matrix::from_fn(n, n, |i, j| {
            if i + ku >= j && i <= j + kl {
                (1 + 2 * i + 3 * j) as f64
            } else {
                0.0
            }
        });
        let b = GeBandMatrix::from_dense(&a, kl, ku);
        assert!(b.to_dense().approx_eq(&a, 0.0));
        assert_eq!(b.get(5, 0), 0.0); // outside band reads as zero
        assert!(!b.in_store(0, 5));
        assert!(b.in_store(0, 3));
    }

    #[test]
    #[should_panic]
    fn geband_write_outside_band_panics() {
        let mut b = GeBandMatrix::zeros(5, 1, 2);
        b.set(4, 0, 1.0);
    }

    #[test]
    fn geband_bidiagonal_extraction() {
        let mut b = GeBandMatrix::zeros(3, 0, 2);
        for j in 0..3 {
            b.set(j, j, (j + 1) as f64);
        }
        b.set(0, 1, -1.0);
        b.set(1, 2, -2.0);
        assert_eq!(b.max_outside_bidiagonal(), 0.0);
        b.set(0, 2, 0.25);
        assert_eq!(b.max_outside_bidiagonal(), 0.25);
        let (mut d, mut e) = (vec![0.0; 3], vec![0.0; 2]);
        b.to_bidiagonal_into(&mut d, &mut e);
        assert_eq!(d, vec![1.0, 2.0, 3.0]);
        assert_eq!(e, vec![-1.0, -2.0]);
    }

    #[test]
    fn geband_reset_reuses_buffer() {
        let mut b = GeBandMatrix::zeros(8, 2, 4);
        let cap = b.capacity_bytes();
        b.set(3, 3, 9.0);
        b.reset(6, 2, 4);
        assert_eq!(b.get(3, 3), 0.0);
        assert_eq!(b.n(), 6);
        assert!(b.capacity_bytes() >= cap.min(b.ldab() * 6 * 8));
    }

    #[test]
    fn max_below_subdiagonal_detects_fill() {
        let mut b = SymBandMatrix::zeros(5, 1, 2);
        assert_eq!(b.max_below_subdiagonal(1), 0.0);
        b.set(3, 0, 0.5); // fill-in two diagonals below the band edge
        assert_eq!(b.max_below_subdiagonal(1), 0.5);
        assert_eq!(b.max_below_subdiagonal(3), 0.0);
    }
}
