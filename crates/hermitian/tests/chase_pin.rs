//! Bit-level pin of the complex bulge chase at C64 and C32.
//!
//! The stage-1 band of a seeded Hermitian matrix (n = 40, nb = 5) goes
//! through the serial chase; the hash covers everything the chase hands
//! on: the real tridiagonal `d`/`e`, the phase-fold diagonal, and every
//! stored reflector `(start, tau, v)`. A change of the chase's storage
//! or kernels that alters a single bit of that output fails here.

use tseig_hermitian::stage1::he2hb_with;
use tseig_hermitian::stage2::{reduce_scheduled, Scheduler};
use tseig_hermitian::{validate, HermScalar};
use tseig_matrix::{CMatrixG, Ctrl, C32, C64};

/// FNV-1a over a stream of `f64` bit patterns.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_c<T: HermScalar>(&mut self, z: T) {
        self.eat(z.re());
        self.eat(z.im());
    }
}

fn chase_hash<T: HermScalar>(a: &CMatrixG<T>) -> u64 {
    let nb = 5;
    let bf = he2hb_with(a, nb, &Ctrl::NONE).unwrap();
    let r = reduce_scheduled(bf.band, nb, Scheduler::Serial, &Ctrl::NONE).unwrap();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for &x in r.tridiagonal.diag().iter().chain(r.tridiagonal.off_diag()) {
        h.eat(x);
    }
    for &p in &r.phases {
        h.eat_c(p);
    }
    for sweep in r.v2.sweeps() {
        for (start, tau, v) in sweep {
            h.eat(*start as f64);
            h.eat_c(*tau);
            for &x in v {
                h.eat_c(x);
            }
        }
    }
    h.0
}

#[test]
fn c64_chase_output_pinned() {
    let a: CMatrixG<C64> = validate::rand_hermitian(40, 17);
    assert_eq!(chase_hash(&a), 0x28e3_cc18_1e79_e2fe);
}

#[test]
fn c32_chase_output_pinned() {
    let a = CMatrixG::<C32>::from_cmatrix(&validate::rand_hermitian(40, 17));
    assert_eq!(chase_hash(&a), 0xe02f_3151_a216_707c);
}
