//! Table 2 / Table 3: kernel execution rates — `gemm` (the model's
//! `alpha`) vs `symv`/`gemv` (the model's `beta`). The gap between the
//! two lines is the entire argument of the paper.
//!
//! Besides raw rates, each kernel's **arithmetic intensity** (flop/byte,
//! from the accounting hooks in `tseig_kernels::flops`) is reported: the
//! Level-3 kernels land far above any machine's roofline ridge point
//! (compute-bound), the Level-2 kernels far below it (bandwidth-bound).
//! At n = 1024 three gemm variants are compared: the SIMD-dispatched
//! microkernel (`gemm_simd`, what `gemm` now runs), the packed loop nest
//! pinned to the portable scalar microkernel (`gemm_packed`, comparable
//! with the pre-dispatch baseline), and the seed's unpacked kernel
//! (`gemm_unpacked`). The SIMD rate is also reported as a fraction of
//! the machine's measured FMA peak (`perfmodel::measure_fma_peak`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tseig_bench::workload;
use tseig_kernels::blas2::{gemv, symv_lower};
use tseig_kernels::blas3::engine::zgemm_oracle;
use tseig_kernels::blas3::{
    engine, gemm, gemm_par, gemm_unpacked, gemm_with_kernel, simd, Op, Trans,
};
use tseig_kernels::flops;
use tseig_matrix::{c64, Matrix, C32, C64};

/// Dense complex workload (reproducible, well-scaled).
fn cworkload(n: usize, seed: u64) -> Vec<C64> {
    let re = workload(n, seed);
    let im = workload(n, seed ^ 0x5a5a);
    (0..n * n)
        .map(|i| c64(re.as_slice()[i], im.as_slice()[i]))
        .collect()
}

/// Run `f` once and report the arithmetic intensity its accounting
/// hooks recorded.
fn intensity_of(label: &str, f: impl FnOnce()) {
    let f0 = flops::snapshot();
    let b0 = flops::bytes_snapshot();
    f();
    let df = flops::snapshot().since(&f0);
    let db = flops::bytes_snapshot().since(&b0);
    println!(
        "{label:<40} {:>12} flop {:>12} byte  intensity {:>7.2} flop/byte",
        df.total(),
        db.total(),
        flops::intensity(df.total(), db.total()),
    );
}

fn kernels(c: &mut Criterion) {
    let n = 512;
    let a = workload(n, 0x72);
    let b = workload(n, 0x73);
    let x = vec![1.0f64; n];

    let mut g = c.benchmark_group("table2_kernels");
    g.sample_size(10);

    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    g.bench_function(BenchmarkId::new("gemm", n), |bch| {
        let mut cm = Matrix::zeros(n, n);
        bch.iter(|| {
            gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                cm.as_mut_slice(),
                n,
            )
        })
    });
    g.bench_function(BenchmarkId::new("gemm_par", n), |bch| {
        let mut cm = Matrix::zeros(n, n);
        bch.iter(|| {
            gemm_par(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                cm.as_mut_slice(),
                n,
            )
        })
    });

    g.throughput(Throughput::Elements((2 * n * n) as u64));
    g.bench_function(BenchmarkId::new("symv", n), |bch| {
        let mut y = vec![0.0f64; n];
        bch.iter(|| symv_lower(n, 1.0, a.as_slice(), n, &x, 0.0, &mut y))
    });
    g.bench_function(BenchmarkId::new("gemv", n), |bch| {
        let mut y = vec![0.0f64; n];
        bch.iter(|| gemv(Trans::No, n, n, 1.0, a.as_slice(), n, &x, 0.0, &mut y))
    });

    // Microkernel comparison at n = 1024 (single-threaded): the
    // SIMD-dispatched path must beat the scalar packed baseline, which
    // in turn must beat the seed's unpacked loop nest.
    let n = 1024;
    let a = workload(n, 0x74);
    let b = workload(n, 0x75);
    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    g.bench_function(BenchmarkId::new("gemm_simd", n), |bch| {
        let kern = simd::selected();
        let mut cm = Matrix::zeros(n, n);
        bch.iter(|| {
            gemm_with_kernel(
                kern,
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                cm.as_mut_slice(),
                n,
            )
        })
    });
    // Pinned to the portable scalar microkernel: directly comparable
    // with the pre-dispatch `gemm_packed` baseline in the BENCH history.
    g.bench_function(BenchmarkId::new("gemm_packed", n), |bch| {
        let mut cm = Matrix::zeros(n, n);
        bch.iter(|| {
            gemm_with_kernel(
                &simd::SCALAR,
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                cm.as_mut_slice(),
                n,
            )
        })
    });
    g.bench_function(BenchmarkId::new("gemm_unpacked", n), |bch| {
        let mut cm = Matrix::zeros(n, n);
        bch.iter(|| {
            gemm_unpacked(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                cm.as_mut_slice(),
                n,
            )
        })
    });

    // Complex GEMM through the same generic packed engine (portable 8x4
    // C64 microkernel): the Hermitian pipeline's GEMM. Throughput in
    // real flops at the conventional 8mnk complex accounting.
    let za = cworkload(n, 0x76);
    let zb = cworkload(n, 0x77);
    g.throughput(Throughput::Elements((8 * n * n * n) as u64));
    g.bench_function(BenchmarkId::new("zgemm_packed", n), |bch| {
        let mut zc = vec![C64::ZERO; n * n];
        bch.iter(|| {
            engine::gemm_par(
                Op::No,
                Op::ConjTrans,
                n,
                n,
                n,
                c64(1.0, 0.0),
                &za,
                n,
                &zb,
                n,
                C64::ZERO,
                &mut zc,
                n,
            )
        })
    });
    // The narrow-component lanes: f32 and C32 through the same generic
    // engine with their own dispatched microkernels. At twice the FMA
    // lanes per vector these should run about 2x their 8-byte-component
    // counterparts (gemm_simd and zgemm_packed above).
    let sa: Vec<f32> = workload(n, 0x7a)
        .as_slice()
        .iter()
        .map(|&x| x as f32)
        .collect();
    let sb: Vec<f32> = workload(n, 0x7b)
        .as_slice()
        .iter()
        .map(|&x| x as f32)
        .collect();
    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    g.bench_function(BenchmarkId::new("sgemm_packed", n), |bch| {
        let mut sc = vec![0.0f32; n * n];
        bch.iter(|| {
            engine::gemm(
                Op::No,
                Op::No,
                n,
                n,
                n,
                1.0f32,
                &sa,
                n,
                &sb,
                n,
                0.0f32,
                &mut sc,
                n,
            )
        })
    });
    let ca: Vec<C32> = cworkload(n, 0x7c)
        .iter()
        .map(|z| C32 {
            re: z.re as f32,
            im: z.im as f32,
        })
        .collect();
    let cb: Vec<C32> = cworkload(n, 0x7d)
        .iter()
        .map(|z| C32 {
            re: z.re as f32,
            im: z.im as f32,
        })
        .collect();
    g.throughput(Throughput::Elements((8 * n * n * n) as u64));
    g.bench_function(BenchmarkId::new("cgemm_packed", n), |bch| {
        let mut cc = vec![C32::ZERO; n * n];
        bch.iter(|| {
            engine::gemm(
                Op::No,
                Op::ConjTrans,
                n,
                n,
                n,
                C32 { re: 1.0, im: 0.0 },
                &ca,
                n,
                &cb,
                n,
                C32::ZERO,
                &mut cc,
                n,
            )
        })
    });

    // The naive triple-loop baseline is criterion-benched at n = 512
    // only (at 1024 one iteration takes minutes); the 1024 packed-vs-
    // naive ratio is measured once below.
    let nn = 512;
    let za5 = cworkload(nn, 0x78);
    let zb5 = cworkload(nn, 0x79);
    g.throughput(Throughput::Elements((8 * nn * nn * nn) as u64));
    g.bench_function(BenchmarkId::new("zgemm_naive", nn), |bch| {
        let mut zc = vec![C64::ZERO; nn * nn];
        bch.iter(|| {
            zgemm_oracle(
                Op::No,
                Op::ConjTrans,
                nn,
                nn,
                nn,
                c64(1.0, 0.0),
                &za5,
                nn,
                &zb5,
                nn,
                C64::ZERO,
                &mut zc,
                nn,
            )
        })
    });
    g.finish();

    // Arithmetic-intensity table (model estimates, not hardware
    // counters): Level-3 far above the roofline ridge, Level-2 below.
    println!("\narithmetic intensity (estimated):");
    let mut cm = Matrix::zeros(n, n);
    intensity_of("gemm_packed/1024", || {
        gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.0,
            cm.as_mut_slice(),
            n,
        )
    });
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    intensity_of("symv/1024", || {
        symv_lower(n, 1.0, a.as_slice(), n, &x, 0.0, &mut y)
    });
    intensity_of("gemv/1024", || {
        gemv(Trans::No, n, n, 1.0, a.as_slice(), n, &x, 0.0, &mut y)
    });

    // Fraction of machine peak: the selected microkernel's achieved rate
    // against the register-resident FMA throughput ceiling.
    let peak = tseig_perfmodel::calibrate::measure_fma_peak();
    let kern = simd::selected();
    let flop = 2.0 * (n as f64).powi(3);
    let mut rate = 0.0f64;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        gemm_with_kernel(
            kern,
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.0,
            cm.as_mut_slice(),
            n,
        );
        rate = rate.max(flop / t.elapsed().as_secs_f64());
    }
    println!(
        "\nfma peak (measured) {:.2} Gflop/s; gemm_simd/{n} [{}] {:.2} Gflop/s = {:.1}% of peak",
        peak / 1e9,
        kern.name,
        rate / 1e9,
        100.0 * rate / peak,
    );

    // Packed complex vs naive complex at n = 1024, measured once here
    // because the naive loop is far too slow for a criterion group (one
    // ConjTrans operand so both sides exercise the conj-in-packing
    // path). 8mnk real-flop accounting on both sides.
    let za = cworkload(n, 0x7a);
    let zb = cworkload(n, 0x7b);
    let mut zc = vec![C64::ZERO; n * n];
    let zflop = 8.0 * (n as f64).powi(3);
    let mut packed_rate = 0.0f64;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        engine::gemm_par(
            Op::No,
            Op::ConjTrans,
            n,
            n,
            n,
            c64(1.0, 0.0),
            &za,
            n,
            &zb,
            n,
            C64::ZERO,
            &mut zc,
            n,
        );
        packed_rate = packed_rate.max(zflop / t.elapsed().as_secs_f64());
    }
    let mut naive_rate = 0.0f64;
    for _ in 0..2 {
        let t = std::time::Instant::now();
        zgemm_oracle(
            Op::No,
            Op::ConjTrans,
            n,
            n,
            n,
            c64(1.0, 0.0),
            &za,
            n,
            &zb,
            n,
            C64::ZERO,
            &mut zc,
            n,
        );
        naive_rate = naive_rate.max(zflop / t.elapsed().as_secs_f64());
    }
    println!(
        "zgemm_packed/{n} {:.2} Gflop/s vs zgemm_naive/{n} {:.2} Gflop/s = {:.2}x",
        packed_rate / 1e9,
        naive_rate / 1e9,
        packed_rate / naive_rate,
    );
}

criterion_group!(benches, kernels);
criterion_main!(benches);
