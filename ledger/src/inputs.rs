//! Seeded inputs of the four workloads. The same `--seed` always gives the
//! same matrices and the same batch stream; the library only ever sees
//! these generated inputs.

use std::fmt::Write as _;

use tseig_core::ScalarTag;
use tseig_matrix::{gen, CMatrix, ComplexScalar, Matrix, C64};

use crate::{Scale, Workload};

/// SplitMix64: a small, well-mixed generator for seeds and batch data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `[-1, 1)`, rounded to six decimals so the JSONL text of
    /// a value is short and parses back to exactly the same `f64`.
    pub fn short(&mut self) -> f64 {
        (self.uniform() * 1e6).round() / 1e6
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of input `k` of workload `w` under the run seed `seed`.
pub fn derive(seed: u64, w: Workload, k: u64) -> u64 {
    let stream = (Workload::ALL.iter().position(|&x| x == w).unwrap_or(0) as u64) << 32 | k;
    let mut r = Rng::new(seed ^ Rng::new(stream).next_u64());
    r.next_u64()
}

/// The two alternating inputs of an eig workload: dense random symmetric
/// with entries uniform in `[-1, 1]`, as in the paper's experiments.
pub fn eig_inputs(w: Workload, scale: Scale, seed: u64) -> [Matrix; 2] {
    let n = w.order(scale);
    [0, 1].map(|k| gen::random_symmetric(n, derive(seed, w, k)))
}

/// The two alternating inputs of the svd workload: dense general square
/// with entries uniform in `[-1, 1)`.
pub fn svd_inputs(scale: Scale, seed: u64) -> [Matrix; 2] {
    let w = Workload::SvdVectors;
    let n = w.order(scale);
    [0, 1].map(|k| {
        let mut rng = Rng::new(derive(seed, w, k));
        Matrix::from_fn(n, n, |_, _| rng.uniform())
    })
}

/// Batch orders and how many requests of each order every scalar type
/// gets. The counts are fixed so the mix of work does not depend on the
/// seed. An n = 128 request works inside the 2 MiB L2, an n = 512 one
/// (2 MiB per real matrix, 4 MiB per complex one) far beyond it; the one
/// n = 512 request per type does most of the pass's flops and half its
/// JSONL text. 32 requests keep a pass short enough (2-3 s on the host
/// of README.md) for about eight passes in a run.
pub fn batch_sizes(scale: Scale) -> &'static [(usize, usize)] {
    match scale {
        Scale::Full => &[(128, 5), (256, 2), (512, 1)],
        Scale::Smoke => &[(32, 1), (64, 1)],
    }
}

/// The scalar types of the batch, in rotation order.
pub const BATCH_TAGS: [ScalarTag; 4] = [
    ScalarTag::F32,
    ScalarTag::F64,
    ScalarTag::C32,
    ScalarTag::C64,
];

/// One batch request as the CLI solves it: real requests hold the matrix
/// after the CLI's f32 rounding, complex ones the Hermitian matrix after
/// the C32 rounding of both components.
pub struct Request {
    pub tag: ScalarTag,
    pub n: usize,
    pub matrix: RequestMatrix,
}

pub enum RequestMatrix {
    Real(Matrix),
    Complex(CMatrix),
}

/// The batch-mixed stream: the requests and their JSONL text.
pub struct BatchStream {
    pub requests: Vec<Request>,
    pub jsonl: String,
}

/// Build the batch stream for `seed`: scalar types rotate f32, f64, c32,
/// c64; each type gets the orders of [`batch_sizes`] in one fixed
/// shuffled order. Only the data depends on `seed`: where the large
/// requests sit in the stream decides how well the two pool workers
/// balance, and that must not change from seed to seed.
pub fn batch_stream(scale: Scale, seed: u64) -> BatchStream {
    let w = Workload::BatchMixed;
    let mut order_rng = Rng::new(derive(0, w, 0));
    let per_type: Vec<Vec<usize>> = BATCH_TAGS
        .iter()
        .map(|_| {
            let mut ns: Vec<usize> = batch_sizes(scale)
                .iter()
                .flat_map(|&(n, c)| std::iter::repeat_n(n, c))
                .collect();
            for i in (1..ns.len()).rev() {
                ns.swap(i, order_rng.below(i + 1));
            }
            ns
        })
        .collect();
    let total: usize = per_type.iter().map(Vec::len).sum();
    let mut requests = Vec::with_capacity(total);
    let mut jsonl = String::new();
    for k in 0..total {
        let t = k % BATCH_TAGS.len();
        let tag = BATCH_TAGS[t];
        let n = per_type[t][k / BATCH_TAGS.len()];
        let mut rng = Rng::new(derive(seed, w, 1 + k as u64));
        let _ = write!(
            jsonl,
            "{{\"id\": \"r{k}\", \"scalar\": \"{}\", \"n\": {n}, \"data\": [",
            tag.name()
        );
        let matrix = match tag {
            ScalarTag::F32 | ScalarTag::F64 => {
                let mut a = Matrix::zeros(n, n);
                for j in 0..n {
                    for i in j..n {
                        let v = rng.short();
                        a[(i, j)] = v;
                        a[(j, i)] = v;
                    }
                }
                push_values(&mut jsonl, a.as_slice().iter().copied());
                if tag == ScalarTag::F32 {
                    a.as_mut_slice()
                        .iter_mut()
                        .for_each(|v| *v = *v as f32 as f64);
                }
                RequestMatrix::Real(a)
            }
            ScalarTag::C32 | ScalarTag::C64 => {
                let mut a = CMatrix::zeros(n, n);
                for j in 0..n {
                    for i in j..n {
                        let re = rng.short();
                        let im = if i == j { 0.0 } else { rng.short() };
                        a[(i, j)] = C64::new(re, im);
                        a[(j, i)] = C64::new(re, -im);
                    }
                }
                push_values(&mut jsonl, a.as_slice().iter().flat_map(|z| [z.re, z.im]));
                if tag == ScalarTag::C32 {
                    let round = |x: f64| x as f32 as f64;
                    a.as_mut_slice()
                        .iter_mut()
                        .for_each(|z| *z = C64::new(round(z.re), round(z.im)));
                }
                RequestMatrix::Complex(a)
            }
        };
        jsonl.push_str("]}\n");
        requests.push(Request { tag, n, matrix });
    }
    BatchStream { requests, jsonl }
}

fn push_values(out: &mut String, vals: impl Iterator<Item = f64>) {
    for (k, v) in vals.enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
}
