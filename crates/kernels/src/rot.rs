//! Deferred plane rotations applied to row strips of a vector matrix
//! (the LAPACK `dlasr` role).
//!
//! The QR sweeps of `steqr` and `bdsqr` compute only on the tridiagonal
//! or bidiagonal. Each rotation's `(c, s)` goes into a [`Pending`]
//! buffer, and [`apply`] (serial) or [`apply_par`] (on the pool) later
//! applies the whole buffer to the vector matrix. Three patterns cover
//! both solvers ([`Pattern`]): adjacent column pairs walked forward or
//! backward (a QR sweep), and a fixed pivot column rotated against a
//! run of columns (`bdsqr`'s zero-diagonal row annihilation).
//!
//! A column rotation acts on every row independently. So the matrix is
//! cut into row strips of [`STRIP`] rows, and each strip takes every
//! pending rotation in order before the next strip starts:
//!
//! 1. the strip is copied into a contiguous tile, limited to the column
//!    window the pending sequences touch (in place, the two pieces of
//!    each rotation sit a whole column stride apart, which defeats the
//!    cache and the prefetcher);
//! 2. each sequence runs as a chain: the column carried from one
//!    rotation into the next stays in a strip-sized array and meets one
//!    new tile column per rotation;
//! 3. the tile is written back.
//!
//! Every element receives the same rotations in the same order as a
//! one-rotation-at-a-time loop over full columns, through the same
//! expressions (`c*p + s*q` and `-s*p + c*q`: multiply, then add, no
//! FMA). The results are therefore bitwise those of that loop, for any
//! strip partition and any thread count. A caller whose rotation is
//! written `c*p - s*q`, `s*p + c*q` records `(c, -s)`: negation is
//! exact, so the bits still agree.
//!
//! The kernel charges no flops: the solvers charge each rotation when
//! they record it.

use crate::blas3::simd;
use crate::contract;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Rows of one strip tile.
pub const STRIP: usize = 32;

/// Byte budget that a solve's pending `(c, s)` pairs and strip tiles
/// share (see [`pending_cap`]): 896 KiB, so that with the block lists
/// and stacks of an apply an n = 768 SVD's memory peak grows by less
/// than 1 MiB. A larger budget means fewer applies (each one copies
/// `U` and `V` in and out once).
pub const BUDGET_BYTES: usize = 7 << 17;

/// Sequences one [`Pending`] buffer holds between two applies.
const MAX_RUNS: usize = 256;

/// Which columns the rotations of one recorded sequence couple.
/// Rotation `t` of the sequence (counted from 0 in application order)
/// with recorded `(c, s)` maps the column pair `(x, y)` it names to
/// `x' = c*x + s*y`, `y' = -s*x + c*y`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// `(first + t, first + t + 1)`: a sweep down the diagonal.
    Forward,
    /// `(first - t, first - t + 1)`: a sweep up the diagonal.
    Backward,
    /// `(first + t, pivot)`: one column against a run of columns to its
    /// right.
    Pivot(usize),
}

/// One recorded sequence: its pattern, its first column and its length.
#[derive(Clone, Copy, Debug)]
struct Run {
    pattern: Pattern,
    first: usize,
    len: usize,
}

impl Run {
    /// First and last column the sequence touches (`len > 0`).
    fn span(&self) -> (usize, usize) {
        match self.pattern {
            Pattern::Forward => (self.first, self.first + self.len),
            Pattern::Backward => (self.first + 1 - self.len, self.first + 1),
            Pattern::Pivot(p) => (self.first.min(p), (self.first + self.len - 1).max(p)),
        }
    }
}

/// Rotations recorded for one matrix and not yet applied: `(c, s)`
/// pairs in a caller-owned slice, in application order, plus the list
/// of sequences they form.
pub struct Pending<'w> {
    cs: &'w mut [f64],
    len: usize,
    runs: [Run; MAX_RUNS],
    nruns: usize,
}

impl<'w> Pending<'w> {
    /// An empty buffer recording into `cs`, two entries per rotation.
    pub fn new(cs: &'w mut [f64]) -> Pending<'w> {
        let empty = Run {
            pattern: Pattern::Forward,
            first: 0,
            len: 0,
        };
        Pending {
            cs,
            len: 0,
            runs: [empty; MAX_RUNS],
            nruns: 0,
        }
    }

    /// Rotations the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.cs.len() / 2
    }

    /// Rotations recorded and not yet applied.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a new sequence of up to `k` rotations fits before the
    /// next apply.
    pub fn has_room(&self, k: usize) -> bool {
        self.nruns < MAX_RUNS && self.len + k <= self.capacity()
    }

    /// Open a new sequence; the rotations [`push`](Self::push)ed until
    /// the next `begin` belong to it. Check [`has_room`](Self::has_room)
    /// first.
    pub fn begin(&mut self, pattern: Pattern, first: usize) {
        if self.nruns > 0 && self.runs[self.nruns - 1].len == 0 {
            self.nruns -= 1;
        }
        assert!(
            self.nruns < MAX_RUNS,
            "rot: {MAX_RUNS} sequences pending; apply before opening another"
        );
        self.runs[self.nruns] = Run {
            pattern,
            first,
            len: 0,
        };
        self.nruns += 1;
    }

    /// Record the next rotation of the open sequence.
    #[inline]
    pub fn push(&mut self, c: f64, s: f64) {
        assert!(self.nruns > 0, "rot: push without an open sequence");
        let i = 2 * self.len;
        self.cs[i] = c;
        self.cs[i + 1] = s;
        self.len += 1;
        self.runs[self.nruns - 1].len += 1;
    }

    /// The non-empty sequences with their `(c, s)` pairs, and the
    /// column window they touch together.
    fn view(&self) -> Option<Seqs<'_>> {
        let runs = &self.runs[..self.nruns];
        let (lo, hi) = runs
            .iter()
            .filter(|r| r.len > 0)
            .map(Run::span)
            .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))?;
        Some(Seqs {
            runs,
            cs: &self.cs[..2 * self.len],
            lo,
            width: hi - lo + 1,
        })
    }

    fn clear(&mut self) {
        self.len = 0;
        self.nruns = 0;
    }
}

/// A borrowed view of the pending sequences, in tile coordinates
/// relative to column `lo` of a `width`-column window.
#[derive(Clone, Copy)]
struct Seqs<'a> {
    runs: &'a [Run],
    cs: &'a [f64],
    lo: usize,
    width: usize,
}

/// One matrix and the rotations pending on it: the `rows x cols`
/// column-major `a` with leading dimension `lda`.
pub struct Job<'a, 'w> {
    pub pending: &'a mut Pending<'w>,
    pub a: &'a mut [f64],
    pub rows: usize,
    pub cols: usize,
    pub lda: usize,
}

impl<'a, 'w> Job<'a, 'w> {
    /// The job of the rotations pending on `x`.
    pub fn on(pending: &'a mut Pending<'w>, x: &'a mut tseig_matrix::Matrix) -> Job<'a, 'w> {
        let (rows, cols, lda) = (x.rows(), x.cols(), x.ld());
        Job {
            pending,
            a: x.as_mut_slice(),
            rows,
            cols,
            lda,
        }
    }
}

/// The debug contracts of a [`Job`]'s fields, and its pending
/// sequences.
fn checked<'p>(
    kernel: &str,
    pending: &'p Pending<'_>,
    a: &[f64],
    rows: usize,
    cols: usize,
    lda: usize,
) -> Option<Seqs<'p>> {
    contract::require_mat(kernel, "a", a, rows, cols, lda);
    let seqs = pending.view()?;
    assert!(
        seqs.lo + seqs.width <= cols,
        "{kernel}: pending rotations touch column {} of a {cols}-column matrix",
        seqs.lo + seqs.width - 1,
    );
    Some(seqs)
}

/// Elements of one strip tile over `cols` columns.
pub fn tile_len(cols: usize) -> usize {
    STRIP * cols
}

/// Strips of a `rows`-row matrix.
fn strips(rows: usize) -> usize {
    rows.div_ceil(STRIP)
}

/// Strip tiles [`apply_par`] can use on a `rows`-row matrix: one per
/// thread of the pool's budget, at most one per strip, at least one.
pub fn workers(rows: usize) -> usize {
    rayon::current_num_threads().min(strips(rows)).max(1)
}

/// Rotations each of `mats` pending buffers holds when they share
/// [`BUDGET_BYTES`] with `tiles` strip tiles over `cols` columns. At
/// least one full sweep (`cols` rotations), so a sweep never waits on
/// an apply; at most `cols^2`, so a small solve does not claim the
/// whole budget.
pub fn pending_cap(cols: usize, mats: usize, tiles: usize) -> usize {
    let f64s = BUDGET_BYTES / std::mem::size_of::<f64>();
    let free = f64s.saturating_sub(tiles * tile_len(cols)) / (2 * mats.max(1));
    free.min(cols * cols).max(cols)
}

/// Apply every rotation pending in `job` to its matrix, strip by strip
/// on the calling thread, and clear the buffer. `tile` holds at least
/// [`tile_len`]`(cols)` elements.
pub fn apply(job: &mut Job<'_, '_>, tile: &mut [f64]) {
    let Job {
        pending,
        a,
        rows,
        cols,
        lda,
    } = job;
    let (rows, lda) = (*rows, *lda);
    contract::require_vec("rot::apply", "tile", tile, tile_len(*cols));
    if let Some(seqs) = checked("rot::apply", pending, a, rows, *cols, lda) {
        let mut block = Strided {
            a: &mut a[seqs.lo * lda..],
            lda,
        };
        strip_loop(seqs, rows, &mut block, tile);
    }
    pending.clear();
}

/// [`apply`] for several matrices at once, on the pool: every matrix is
/// cut into row blocks on strip boundaries (as few as keep every worker
/// busy), and each worker takes its own tile of `tiles` (one
/// [`tile_len`] of the widest matrix each) and pulls blocks from one
/// queue until it is empty. Bitwise the same as [`apply`], whatever the
/// number of tiles or threads.
pub fn apply_par(jobs: &mut [Job<'_, '_>], tiles: &mut [f64]) {
    let cols = jobs.iter().map(|j| j.cols).max().unwrap_or(0);
    let rows = jobs.iter().map(|j| j.rows).max().unwrap_or(0);
    let per = tile_len(cols);
    contract::require_vec("rot::apply_par", "tiles", tiles, per);
    let nw = (tiles.len() / per.max(1)).min(strips(rows)).max(1);
    if nw == 1 {
        for job in jobs.iter_mut() {
            apply(job, &mut tiles[..per]);
        }
        return;
    }
    // With two workers and `U`, `V` to rotate, each matrix is one block:
    // the rows of one matrix can differ a lot in cost (subnormal entries
    // gather in some rows), the two matrices hardly do.
    let parts = nw.div_ceil(jobs.len().max(1));
    let mut blocks: Vec<Block<'_>> = Vec::new();
    for job in jobs.iter_mut() {
        let Job {
            pending,
            a,
            rows,
            cols,
            lda,
        } = job;
        let (rows, lda) = (*rows, *lda);
        let Some(seqs) = checked("rot::apply_par", pending, a, rows, *cols, lda) else {
            continue;
        };
        let ns = strips(rows);
        let k = parts.min(ns).max(1);
        let bound = |b: usize| (b * ns / k * STRIP).min(rows);
        let first = blocks.len();
        blocks.extend((0..k).map(|b| Block {
            seqs,
            rows: bound(b + 1) - bound(b),
            cols: Vec::with_capacity(seqs.width),
        }));
        let window = &mut a[seqs.lo * lda..];
        for col in window.chunks_mut(lda).take(seqs.width) {
            let mut rest = &mut col[..rows];
            for b in blocks[first..].iter_mut() {
                let (head, tail) = rest.split_at_mut(b.rows);
                b.cols.push(head);
                rest = tail;
            }
        }
    }
    let queue = Mutex::new(blocks.into_iter());
    tiles
        .chunks_mut(per)
        .take(nw)
        .collect::<Vec<_>>()
        .into_par_iter()
        .for_each(|tile| loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some(mut b) = next else { break };
            strip_loop(b.seqs, b.rows, &mut b, tile);
        });
    for job in jobs.iter_mut() {
        job.pending.clear();
    }
}

/// Column access to a row block of the matrix: window column `j`,
/// starting at the block's first row.
trait Cols {
    fn col(&mut self, j: usize) -> &mut [f64];
}

/// The whole matrix from the window's first column on.
struct Strided<'a> {
    a: &'a mut [f64],
    lda: usize,
}

impl Cols for Strided<'_> {
    fn col(&mut self, j: usize) -> &mut [f64] {
        &mut self.a[j * self.lda..]
    }
}

/// One row block of one matrix, the unit a worker pulls from the
/// queue: a slice per window column.
struct Block<'a> {
    seqs: Seqs<'a>,
    rows: usize,
    cols: Vec<&'a mut [f64]>,
}

impl Cols for Block<'_> {
    fn col(&mut self, j: usize) -> &mut [f64] {
        self.cols[j]
    }
}

/// Run every sequence of `seqs` over the first `rows` rows of `block`,
/// one strip at a time through `tile`.
fn strip_loop(seqs: Seqs<'_>, rows: usize, block: &mut impl Cols, tile: &mut [f64]) {
    let wide = simd::rot_chains();
    let tile = &mut tile[..tile_len(seqs.width)];
    let mut r0 = 0;
    while r0 < rows {
        let h = (rows - r0).min(STRIP);
        for (j, t) in tile.chunks_exact_mut(STRIP).enumerate() {
            t[..h].copy_from_slice(&block.col(j)[r0..r0 + h]);
            // Rows past the matrix compute on zeros and are dropped.
            t[h..].fill(0.0);
        }
        let mut off = 0;
        for run in seqs.runs.iter().filter(|r| r.len > 0) {
            let cs = &seqs.cs[off..off + 2 * run.len];
            off += 2 * run.len;
            let f = run.first - seqs.lo;
            match (run.pattern, wide) {
                (Pattern::Forward, Some(k)) => (k.forward)(tile, f, cs),
                (Pattern::Forward, None) => forward(tile, f, cs),
                (Pattern::Backward, Some(k)) => (k.backward)(tile, f, cs),
                (Pattern::Backward, None) => backward(tile, f, cs),
                (Pattern::Pivot(p), Some(k)) => (k.pivot)(tile, f, p - seqs.lo, cs),
                (Pattern::Pivot(p), None) => pivot(tile, f, p - seqs.lo, cs),
            }
        }
        for (j, t) in tile.chunks_exact(STRIP).enumerate() {
            block.col(j)[r0..r0 + h].copy_from_slice(&t[..h]);
        }
        r0 += h;
    }
}

/// Tile column `j`.
#[inline(always)]
fn col(tile: &[f64], j: usize) -> &[f64] {
    &tile[j * STRIP..(j + 1) * STRIP]
}

/// Forward chain from tile column `f`: column `f + t` is carried into
/// rotation `t`, which finishes it and carries column `f + t + 1` on.
fn forward(tile: &mut [f64], f: usize, cs: &[f64]) {
    let mut x = [0.0f64; STRIP];
    x.copy_from_slice(col(tile, f));
    let mut j = f;
    for g in cs.chunks_exact(2) {
        let (c, s) = (g[0], g[1]);
        let (head, tail) = tile.split_at_mut((j + 1) * STRIP);
        let out = &mut head[j * STRIP..];
        for ((o, x), &q) in out.iter_mut().zip(x.iter_mut()).zip(&tail[..STRIP]) {
            let p = *x;
            *o = c * p + s * q;
            *x = -s * p + c * q;
        }
        j += 1;
    }
    tile[j * STRIP..(j + 1) * STRIP].copy_from_slice(&x);
}

/// Backward chain from tile column `f`: column `f + 1 - t` is carried
/// into rotation `t` (as its second column), which finishes it and
/// carries column `f - t` on.
fn backward(tile: &mut [f64], f: usize, cs: &[f64]) {
    let mut x = [0.0f64; STRIP];
    x.copy_from_slice(col(tile, f + 1));
    let mut j = f + 1;
    for g in cs.chunks_exact(2) {
        let (c, s) = (g[0], g[1]);
        let (head, tail) = tile.split_at_mut(j * STRIP);
        let out = &mut tail[..STRIP];
        for ((o, x), &p) in out
            .iter_mut()
            .zip(x.iter_mut())
            .zip(&head[(j - 1) * STRIP..])
        {
            let q = *x;
            *x = c * p + s * q;
            *o = -s * p + c * q;
        }
        j -= 1;
    }
    tile[j * STRIP..(j + 1) * STRIP].copy_from_slice(&x);
}

/// Fixed-pivot chain: tile column `pv` is carried through every
/// rotation (as its second column) and meets columns `f, f + 1, ...`.
fn pivot(tile: &mut [f64], f: usize, pv: usize, cs: &[f64]) {
    let mut x = [0.0f64; STRIP];
    x.copy_from_slice(col(tile, pv));
    for (t, g) in cs.chunks_exact(2).enumerate() {
        let (c, s) = (g[0], g[1]);
        let j = f + t;
        for (o, x) in tile[j * STRIP..(j + 1) * STRIP]
            .iter_mut()
            .zip(x.iter_mut())
        {
            let (p, q) = (*o, *x);
            *o = c * p + s * q;
            *x = -s * p + c * q;
        }
    }
    tile[pv * STRIP..(pv + 1) * STRIP].copy_from_slice(&x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One recorded sequence of the tests: pattern, first column and
    /// its `(c, s)` pairs.
    type Seq = (Pattern, usize, Vec<(f64, f64)>);

    fn filled(rows: usize, cols: usize, lda: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..lda * cols.max(1))
            .map(|i| {
                if i % lda < rows {
                    rng.gen_range(-1.0..1.0)
                } else {
                    f64::NAN // padding rows must never be touched
                }
            })
            .collect()
    }

    /// A random rotation: `c^2 + s^2 = 1`.
    fn givens(rng: &mut StdRng) -> (f64, f64) {
        let t: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        (t.cos(), t.sin())
    }

    /// Random sequences of every pattern on `cols` columns.
    fn random_seqs(cols: usize, count: usize, seed: u64) -> Vec<Seq> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let a = rng.gen_range(0..cols - 1);
                let b = rng.gen_range(a + 1..cols);
                let (pattern, first, len) = match i % 3 {
                    0 => (Pattern::Forward, a, b - a),
                    1 => (Pattern::Backward, b - 1, b - a),
                    _ => (Pattern::Pivot(a), a + 1, b - a),
                };
                (pattern, first, (0..len).map(|_| givens(&mut rng)).collect())
            })
            .collect()
    }

    /// The reference: one rotation at a time over full column pairs.
    fn naive(a: &mut [f64], rows: usize, lda: usize, seqs: &[Seq]) {
        for (pattern, first, cs) in seqs {
            for (t, &(c, s)) in cs.iter().enumerate() {
                let (x, y) = match *pattern {
                    Pattern::Forward => (first + t, first + t + 1),
                    Pattern::Backward => (first - t, first - t + 1),
                    Pattern::Pivot(p) => (first + t, p),
                };
                for r in 0..rows {
                    let (p, q) = (a[x * lda + r], a[y * lda + r]);
                    a[x * lda + r] = c * p + s * q;
                    a[y * lda + r] = -s * p + c * q;
                }
            }
        }
    }

    /// Record `seqs` into a buffer of `cap` rotations, applying through
    /// `tiles` tiles whenever the next sequence does not fit and at the
    /// end; returns the number of applies.
    fn deferred(
        a: &mut [f64],
        rows: usize,
        cols: usize,
        lda: usize,
        seqs: &[Seq],
        cap: usize,
        tiles: usize,
    ) -> usize {
        let mut cs = vec![0.0; 2 * cap];
        let mut tile = vec![0.0; tiles * tile_len(cols)];
        let mut p = Pending::new(&mut cs);
        let mut applies = 0;
        let mut flush = |p: &mut Pending<'_>, a: &mut [f64]| {
            let mut job = Job {
                pending: p,
                a,
                rows,
                cols,
                lda,
            };
            if tiles == 1 {
                apply(&mut job, &mut tile);
            } else {
                apply_par(&mut [job], &mut tile);
            }
            applies += 1;
        };
        for (pattern, first, rs) in seqs {
            if !p.has_room(rs.len()) {
                flush(&mut p, a);
            }
            p.begin(*pattern, *first);
            for &(c, s) in rs {
                p.push(c, s);
            }
        }
        flush(&mut p, a);
        applies
    }

    fn bits(a: &[f64]) -> Vec<u64> {
        a.iter().map(|x| x.to_bits()).collect()
    }

    fn check(
        rows: usize,
        cols: usize,
        pad: usize,
        seqs: &[Seq],
        cap: usize,
        tiles: usize,
    ) -> usize {
        let lda = rows + pad;
        let mut want = filled(rows, cols, lda, 7);
        let mut got = want.clone();
        naive(&mut want, rows, lda, seqs);
        let applies = deferred(&mut got, rows, cols, lda, seqs, cap, tiles);
        assert_eq!(
            bits(&got),
            bits(&want),
            "rows {rows} cols {cols} tiles {tiles}"
        );
        applies
    }

    fn one(pattern: Pattern, first: usize, len: usize, seed: u64) -> Vec<Seq> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![(pattern, first, (0..len).map(|_| givens(&mut rng)).collect())]
    }

    #[test]
    fn rot_forward_chain_matches_naive() {
        check(70, 20, 3, &one(Pattern::Forward, 0, 19, 1), 64, 1);
        check(70, 20, 0, &one(Pattern::Forward, 5, 9, 2), 64, 1);
    }

    #[test]
    fn rot_backward_chain_matches_naive() {
        check(70, 20, 3, &one(Pattern::Backward, 18, 19, 3), 64, 1);
        check(70, 20, 0, &one(Pattern::Backward, 12, 4, 4), 64, 1);
    }

    #[test]
    fn rot_fixed_pivot_matches_naive() {
        check(70, 20, 3, &one(Pattern::Pivot(4), 5, 15, 5), 64, 1);
        check(70, 20, 0, &one(Pattern::Pivot(0), 1, 1, 6), 64, 1);
    }

    #[test]
    fn rot_mixed_sequences_match_naive_at_every_shape() {
        // Rows a multiple of the strip, not a multiple, smaller than one
        // strip, one and zero rows; square, wide and tall.
        for (rows, cols) in [
            (64, 40),
            (70, 40),
            (5, 40),
            (1, 12),
            (0, 12),
            (100, 20),
            (33, 33),
        ] {
            let seqs = random_seqs(cols, 30, rows as u64 + 11);
            check(rows, cols, 2, &seqs, 4 * cols * cols, 1);
        }
    }

    #[test]
    fn rot_several_applies_per_solve_match_naive() {
        let seqs = random_seqs(50, 200, 12);
        let applies = check(90, 50, 1, &seqs, 60, 1);
        assert!(applies > 10, "only {applies} applies");
    }

    #[test]
    fn rot_pooled_strips_match_serial_for_every_tile_count() {
        let seqs = random_seqs(40, 60, 13);
        for tiles in [2, 3, 5] {
            for rows in [0, 1, 31, 97, 200] {
                check(rows, 40, 1, &seqs, 300, tiles);
            }
        }
    }

    #[test]
    fn rot_pooled_apply_takes_several_matrices() {
        let (cols, rows) = (30, 75);
        let (sa, sb) = (random_seqs(cols, 20, 14), random_seqs(cols, 25, 15));
        let mut want_a = filled(rows, cols, rows, 16);
        let mut want_b = filled(rows, cols, rows, 17);
        let (mut a, mut b) = (want_a.clone(), want_b.clone());
        naive(&mut want_a, rows, rows, &sa);
        naive(&mut want_b, rows, rows, &sb);
        let (mut ca, mut cb) = (vec![0.0; 2 * 2000], vec![0.0; 2 * 2000]);
        let (mut pa, mut pb) = (Pending::new(&mut ca), Pending::new(&mut cb));
        for (p, seqs) in [(&mut pa, &sa), (&mut pb, &sb)] {
            for (pattern, first, rs) in seqs {
                p.begin(*pattern, *first);
                rs.iter().for_each(|&(c, s)| p.push(c, s));
            }
        }
        let mut tiles = vec![0.0; 2 * tile_len(cols)];
        let mut jobs = [
            Job {
                pending: &mut pa,
                a: &mut a,
                rows,
                cols,
                lda: rows,
            },
            Job {
                pending: &mut pb,
                a: &mut b,
                rows,
                cols,
                lda: rows,
            },
        ];
        apply_par(&mut jobs, &mut tiles);
        assert!(pa.is_empty() && pb.is_empty());
        assert_eq!(bits(&a), bits(&want_a));
        assert_eq!(bits(&b), bits(&want_b));
    }

    #[test]
    fn rot_empty_sequences_are_dropped() {
        let mut cs = vec![0.0; 8];
        let mut p = Pending::new(&mut cs);
        p.begin(Pattern::Forward, 3);
        p.begin(Pattern::Backward, 1);
        p.push(0.6, 0.8);
        assert_eq!(p.len(), 1);
        let mut a = filled(4, 3, 4, 18);
        let mut want = a.clone();
        naive(&mut want, 4, 4, &[(Pattern::Backward, 1, vec![(0.6, 0.8)])]);
        apply(
            &mut Job {
                pending: &mut p,
                a: &mut a,
                rows: 4,
                cols: 3,
                lda: 4,
            },
            &mut vec![0.0; tile_len(3)],
        );
        assert_eq!(bits(&a), bits(&want));
        assert!(p.is_empty());
    }

    #[test]
    fn rot_avx512_chains_match_the_portable_loops() {
        // The selected dispatch runs one of the two in the tests above;
        // here both run on the same tiles, including subnormal entries.
        let Some(k) = simd::rot_chains_avx512() else {
            return;
        };
        let cols = 40;
        let mut rng = StdRng::seed_from_u64(19);
        let mut tile: Vec<f64> = (0..tile_len(cols))
            .map(|i| match i % 7 {
                0 => 1e-310 * rng.gen_range(-1.0..1.0),
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        let cs: Vec<f64> = (0..30)
            .flat_map(|_| {
                let (c, s) = givens(&mut rng);
                [c, s]
            })
            .collect();
        let mut want = tile.clone();
        forward(&mut want, 3, &cs);
        (k.forward)(&mut tile, 3, &cs);
        assert_eq!(bits(&tile), bits(&want), "forward");
        backward(&mut want, 35, &cs);
        (k.backward)(&mut tile, 35, &cs);
        assert_eq!(bits(&tile), bits(&want), "backward");
        pivot(&mut want, 8, 2, &cs);
        (k.pivot)(&mut tile, 8, 2, &cs);
        assert_eq!(bits(&tile), bits(&want), "pivot");
    }

    #[test]
    fn rot_budget_holds_a_sweep_and_stays_small_for_small_solves() {
        assert_eq!(pending_cap(25, 1, 1), 625);
        assert_eq!(pending_cap(100_000, 2, 2), 100_000);
        let n = 768;
        let cap = pending_cap(n, 2, 2);
        assert!(cap >= n);
        assert!(2 * 2 * cap * 8 + 2 * tile_len(n) * 8 <= BUDGET_BYTES);
    }
}
