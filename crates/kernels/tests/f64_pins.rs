//! Bitwise pins of the `f64` Householder, QR, Cholesky and structured
//! BLAS-3 kernels.
//!
//! Each case runs one kernel on seeded inputs and hashes the output bits
//! together with the flop and byte counter deltas the call charged. The
//! expected hashes were recorded before these kernels became generic
//! over the element type; a refactor that changes a single output bit,
//! the operation order behind it, or one counter charge fails here.
//!
//! The counters are process-global, so everything runs inside one
//! `#[test]`: no other test in this binary can charge them concurrently.

use tseig_kernels::blas3::{symm_lower_left, syr2k_lower, syrk_lower, trmm_upper_left, Trans};
use tseig_kernels::cholesky::{hegst, potrf, trsm_left, trsm_right};
use tseig_kernels::flops;
use tseig_kernels::householder::{
    larf_left, larf_right, larf_sym_two_sided, larfb, larfb_with_work, larfg, larft, Side,
};
use tseig_kernels::qr::{geqr2, geqrf};
use tseig_matrix::{gen, Matrix};

/// SplitMix64 stream of values in `[-1, 1)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next()).collect()
    }
}

/// FNV-1a over 64-bit words.
struct Hash(u64);

impl Hash {
    fn new() -> Hash {
        Hash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Run `f`, then hash what it wrote into the hasher plus the flop and
/// byte counters it charged, per level.
fn pin(f: impl FnOnce(&mut Hash)) -> u64 {
    let (f0, b0) = (flops::snapshot(), flops::bytes_snapshot());
    let mut h = Hash::new();
    f(&mut h);
    let (df, db) = (
        flops::snapshot().since(&f0),
        flops::bytes_snapshot().since(&b0),
    );
    for w in [df.l1, df.l2, df.l3, db.l1, db.l2, db.l3] {
        h.word(w);
    }
    h.0
}

/// `k` reflectors in explicit-V form (unit diagonal, zeros above) of
/// height `m`, plus their `tau`s; column `zero_col` gets a zero tail so
/// `tau == 0` paths run too.
fn reflectors(m: usize, k: usize, zero_col: usize, rng: &mut Rng) -> (Vec<f64>, Vec<f64>) {
    let mut v = vec![0.0; m * k];
    let mut taus = Vec::with_capacity(k);
    for c in 0..k {
        let mut tail = rng.vec(m - c - 1);
        if c == zero_col {
            tail.iter_mut().for_each(|x| *x = 0.0);
        }
        let (_, tau) = larfg(rng.next(), &mut tail);
        v[c + c * m] = 1.0;
        v[c + 1 + c * m..(c + 1) * m].copy_from_slice(&tail);
        taus.push(tau);
    }
    (v, taus)
}

/// Upper-triangular `k x k` factor of `k` fresh reflectors of height `m`.
fn t_factor(m: usize, k: usize, rng: &mut Rng) -> (Vec<f64>, Vec<f64>) {
    let (v, taus) = reflectors(m, k, k / 2, rng);
    let mut t = vec![0.0; k * k];
    larft(m, k, &v, m, &taus, &mut t, k);
    (v, t)
}

/// Symmetric positive definite `n x n`: `G G^T + n I`.
fn spd(n: usize, seed: u64) -> Matrix {
    let g = gen::random_symmetric(n, seed);
    let mut a = g.multiply(&g.transpose()).expect("square");
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn cases() -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    let mut rng = Rng(0x5eed);

    out.push((
        "larfg",
        pin(|h| {
            for (alpha, len, scale) in [
                (0.7, 9, 1.0),
                (-0.3, 17, 1.0),
                (0.0, 5, 1.0),
                (2.5, 4, 0.0),
                (1e200, 3, 1e200),
                (-1e-200, 3, 1e-200),
            ] {
                let mut x: Vec<f64> = rng.vec(len).iter().map(|v| v * scale).collect();
                let (beta, tau) = larfg(alpha, &mut x);
                h.f64s(&[beta, tau]);
                h.f64s(&x);
            }
        }),
    ));

    for (name, side) in [("larf_left", Side::Left), ("larf_right", Side::Right)] {
        let (m, n, ldc) = (37, 23, 40);
        let len = if side == Side::Left { m } else { n };
        let mut u = rng.vec(len);
        let (_, tau) = larfg(1.0, &mut u[1..]);
        u[0] = 1.0;
        let mut c = rng.vec(ldc * n);
        let mut work = vec![0.0; m.max(n)];
        out.push((
            name,
            pin(|h| {
                match side {
                    Side::Left => larf_left(&u, tau, m, n, &mut c, ldc, &mut work),
                    Side::Right => larf_right(&u, tau, m, n, &mut c, ldc, &mut work),
                }
                h.f64s(&c);
            }),
        ));
    }

    {
        let (n, lda) = (29, 31);
        let s = gen::random_symmetric(n, 7);
        let mut a = vec![0.0; lda * n];
        for j in 0..n {
            for i in 0..n {
                a[i + j * lda] = s[(i, j)];
            }
        }
        let mut u = rng.vec(n);
        let (_, tau) = larfg(-0.4, &mut u[1..]);
        u[0] = 1.0;
        let mut work = vec![0.0; n];
        out.push((
            "larf_sym_two_sided",
            pin(|h| {
                larf_sym_two_sided(&u, tau, n, &mut a, lda, &mut work);
                h.f64s(&a);
            }),
        ));
    }

    {
        let (m, k) = (41, 7);
        let (v, taus) = reflectors(m, k, 3, &mut rng);
        let mut t = vec![7.0; k * k];
        out.push((
            "larft",
            pin(|h| {
                larft(m, k, &v, m, &taus, &mut t, k);
                h.f64s(&t);
            }),
        ));
    }

    // larfb / larfb_with_work: both sides, both transposes, a small
    // block (scalar trmm) and a wide one (blocked trmm, k > 64).
    for k in [7usize, 70] {
        for side in [Side::Left, Side::Right] {
            for trans in [Trans::No, Trans::Yes] {
                let (m, n) = match side {
                    Side::Left => (k + 19, 13),
                    Side::Right => (11, k + 23),
                };
                let vrows = if side == Side::Left { m } else { n };
                let (v, t) = t_factor(vrows, k, &mut rng);
                let ldc = m + 2;
                let c0 = rng.vec(ldc * n);
                let mut c = c0.clone();
                out.push((
                    "larfb",
                    pin(|h| {
                        larfb(side, trans, m, n, k, &v, vrows, &t, k, &mut c, ldc);
                        h.f64s(&c);
                    }),
                ));
                let mut c = c0;
                let wlen = 2 * k * if side == Side::Left { n } else { m };
                let mut work = vec![0.0; wlen];
                out.push((
                    "larfb_with_work",
                    pin(|h| {
                        larfb_with_work(
                            side, trans, m, n, k, &v, vrows, &t, k, &mut c, ldc, &mut work,
                        );
                        h.f64s(&c);
                    }),
                ));
            }
        }
    }

    for k in [20usize, 150] {
        for trans in [Trans::No, Trans::Yes] {
            let (n, ldt, ldb) = (17, k + 1, k + 3);
            let mut t = rng.vec(ldt * k);
            for j in 0..k {
                for i in j + 1..k {
                    t[i + j * ldt] = f64::NAN; // never read: below the diagonal
                }
            }
            let mut b = rng.vec(ldb * n);
            out.push((
                "trmm_upper_left",
                pin(|h| {
                    trmm_upper_left(trans, k, n, 0.75, &t, ldt, &mut b, ldb);
                    h.f64s(&b);
                }),
            ));
        }
    }

    for (m, n) in [(45usize, 17usize), (12, 30)] {
        let lda = m + 1;
        let mut a = rng.vec(lda * n);
        let mut tau = vec![0.0; m.min(n)];
        out.push((
            "geqr2",
            pin(|h| {
                geqr2(m, n, &mut a, lda, &mut tau);
                h.f64s(&a);
                h.f64s(&tau);
            }),
        ));
        let mut a = rng.vec(lda * n);
        let mut tau = vec![0.0; m.min(n)];
        out.push((
            "geqrf",
            pin(|h| {
                geqrf(m, n, &mut a, lda, &mut tau, 5);
                h.f64s(&a);
                h.f64s(&tau);
            }),
        ));
    }

    for (n, nb) in [(75usize, 16usize), (30, 1), (40, 64)] {
        let mut l = spd(n, n as u64);
        out.push((
            "potrf_lower",
            pin(|h| {
                potrf(n, l.as_mut_slice(), n, nb).expect("spd");
                h.f64s(l.as_slice());
            }),
        ));
    }
    {
        let mut a = Matrix::identity(6);
        a[(4, 4)] = -2.0;
        out.push((
            "potrf_lower",
            pin(|h| {
                let err = potrf(6, a.as_mut_slice(), 6, 2).expect_err("indefinite");
                for b in err.to_string().bytes() {
                    h.word(u64::from(b));
                }
            }),
        ));
    }

    let mut l = spd(33, 3);
    potrf(33, l.as_mut_slice(), 33, 8).expect("spd");
    for (trans, alpha) in [
        (Trans::No, 1.0),
        (Trans::No, 1.5),
        (Trans::Yes, 1.0),
        (Trans::Yes, -0.5),
    ] {
        let (m, n, ldb) = (33, 19, 35);
        let mut b = rng.vec(ldb * n);
        out.push((
            "trsm_left_lower",
            pin(|h| {
                trsm_left(trans, m, n, alpha, l.as_slice(), 33, &mut b, ldb);
                h.f64s(&b);
            }),
        ));
    }
    {
        let (m, n, ldb) = (21, 33, 24);
        let mut b = rng.vec(ldb * n);
        out.push((
            "trsm_right_lower_trans",
            pin(|h| {
                trsm_right(m, n, l.as_slice(), 33, &mut b, ldb);
                h.f64s(&b);
            }),
        ));
    }
    {
        let a = gen::random_symmetric(33, 4);
        out.push((
            "sygst",
            pin(|h| {
                let mut c = a.clone();
                c.symmetrize_from_lower();
                hegst(33, c.as_mut_slice(), 33, l.as_slice(), 33);
                h.f64s(c.as_slice());
            }),
        ));
    }

    for trans in [Trans::No, Trans::Yes] {
        let (n, k) = (70, 9);
        let lda = if trans == Trans::No { n + 1 } else { k + 1 };
        let acols = if trans == Trans::No { k } else { n };
        let a = rng.vec(lda * acols);
        let ldc = n + 2;
        let mut c = rng.vec(ldc * n);
        out.push((
            "syrk_lower",
            pin(|h| {
                syrk_lower(trans, n, k, -0.5, &a, lda, 0.25, &mut c, ldc);
                h.f64s(&c);
            }),
        ));
    }

    for (alpha, beta) in [(-1.0, 1.0), (0.5, 0.0), (1.25, 0.3)] {
        let (n, k, ld) = (150, 9, 153);
        let a = rng.vec(ld * k);
        let b = rng.vec(ld * k);
        let mut c = rng.vec(ld * n);
        out.push((
            "syr2k_lower",
            pin(|h| {
                syr2k_lower(n, k, alpha, &a, ld, &b, ld, beta, &mut c, ld);
                h.f64s(&c);
            }),
        ));
    }

    for (alpha, beta) in [(1.0, 0.0), (0.8, 0.5)] {
        let (m, k, lda, ldb) = (150, 11, 151, 152);
        let a = rng.vec(lda * m);
        let b = rng.vec(ldb * k);
        let mut c = rng.vec(ldb * k);
        out.push((
            "symm_lower_left",
            pin(|h| {
                symm_lower_left(m, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldb);
                h.f64s(&c);
            }),
        ));
    }

    out
}

#[test]
fn f64_kernel_bits_and_counters_are_pinned() {
    let got = cases();
    let want: &[(&str, u64)] = &[
        ("larfg", 0x74e84ad8bae3c275),
        ("larf_left", 0xa08824a2858313f7),
        ("larf_right", 0xc0baae57083590ae),
        ("larf_sym_two_sided", 0xbd5d9e75664855d0),
        ("larft", 0x2967c9bad4225b0f),
        ("larfb", 0x472875069b4c066c),
        ("larfb_with_work", 0x472875069b4c066c),
        ("larfb", 0x8c39f44b89e78e87),
        ("larfb_with_work", 0x8c39f44b89e78e87),
        ("larfb", 0xf03deaffc89cbf69),
        ("larfb_with_work", 0xf03deaffc89cbf69),
        ("larfb", 0xd3c6a5647ac7dc49),
        ("larfb_with_work", 0xd3c6a5647ac7dc49),
        ("larfb", 0x7d955180fdc9eb3d),
        ("larfb_with_work", 0x7d955180fdc9eb3d),
        ("larfb", 0x8c6c92ef935a773a),
        ("larfb_with_work", 0x8c6c92ef935a773a),
        ("larfb", 0x961ee6050032ca21),
        ("larfb_with_work", 0x961ee6050032ca21),
        ("larfb", 0xc371cdcda22a6b21),
        ("larfb_with_work", 0xc371cdcda22a6b21),
        ("trmm_upper_left", 0x777857993a1bed66),
        ("trmm_upper_left", 0x614d59d80e1ec7c6),
        ("trmm_upper_left", 0xcd6647ccad3e08e3),
        ("trmm_upper_left", 0xd46d3c799458a325),
        ("geqr2", 0xc7a55d729680d261),
        ("geqrf", 0xc5b57f0f7054e5c2),
        ("geqr2", 0xc3cf53d46f9101cb),
        ("geqrf", 0x1f87c41a95ab5f97),
        ("potrf_lower", 0xf4a79542a46d404b),
        ("potrf_lower", 0x773cb2c1a49cc733),
        ("potrf_lower", 0x4a42f128aa388bbb),
        ("potrf_lower", 0xe43503a4457a4c7c),
        ("trsm_left_lower", 0x5618999ee1d857b9),
        ("trsm_left_lower", 0xd7e45517ee6c74ec),
        ("trsm_left_lower", 0x232a0fca86b2777d),
        ("trsm_left_lower", 0x0d5f9a6a89952594),
        ("trsm_right_lower_trans", 0xd818e043f5ebaa00),
        ("sygst", 0xac0478bc34aa093e),
        ("syrk_lower", 0x4dc9df4f6f764134),
        ("syrk_lower", 0x7e754b8ccfa9d777),
        ("syr2k_lower", 0x9f91e5b2bd21cbf8),
        ("syr2k_lower", 0x86e357b139894be8),
        ("syr2k_lower", 0x19a62397d57b706b),
        ("symm_lower_left", 0x145cae0809466eb0),
        ("symm_lower_left", 0x35cf7843f49b2bf8),
    ];
    let listing: String = got
        .iter()
        .map(|(name, hash)| format!("        (\"{name}\", 0x{hash:016x}),\n"))
        .collect();
    assert_eq!(got.len(), want.len(), "pins:\n{listing}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "case {i} changed; pins now:\n{listing}");
    }
}
