//! The traced run: per-layer metrics of one workload.
//!
//! Every layer is timed from outside, by replaying the workload's solve
//! layer by layer ([`crate::layers`]) on the workload's own input. Each
//! number is the median of [`reps`] repetitions after one warm-up; flop
//! and byte counts are exact kernel counts (`tseig_kernels::flops`), the
//! bytes computed from each kernel's loop nest, not measured. The same
//! replays run a second time in a one-thread process
//! ([`one_thread_layers`]) for the per-layer 2-thread speedups.
//!
//! Every replay's result must be bitwise the checked result of the
//! library call it decomposes, on the workload's own input; anything else
//! counts as a failed operation. So a traced run whose per-layer numbers
//! no longer describe the end-to-end program reports `correct: false`.

use std::time::Instant;

use tseig_core::backtransform::DEFAULT_PANEL_COLS;
use tseig_core::{Scheduler, SolvePlan};
use tseig_kernels::blas2::symv_lower;
use tseig_kernels::blas3::engine::{gemm, GemmScalar};
use tseig_kernels::blas3::simd::fma_peak;
use tseig_kernels::blas3::{gemm_par, Op, Trans};
use tseig_matrix::{CMatrixG, ComplexScalar, C32, C64};
use tseig_onestage::{syev, OneStageOptions};
use tseig_svd::stage2::Stage2Exec;
use tseig_svd::{Svd, SvdMethod, SvdPlan};
use tseig_tridiag::EigenRange;

use crate::check::{self, Tally};
use crate::inputs::{RequestMatrix, Rng};
use crate::jobs::{e2e_svd, eig_config, BatchJob, EigJob, Job, SvdJob};
use crate::layers::{
    herm_replay, svd_replay, EigConfig, EigReplay, HermConfig, Tracer, EIG_NB, LAYERS, SVD_NB,
};
use crate::report::{cpu_seconds, median, Metric};
use crate::{Scale, Workload, THREADS};

/// Measured repetitions of every traced quantity.
pub fn reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Smoke => 2,
    }
}

/// Ok when `replay` yields bitwise the numbers of `library`.
fn same_bits(
    replay: impl IntoIterator<Item = f64>,
    library: impl IntoIterator<Item = f64>,
) -> Result<(), String> {
    if replay
        .into_iter()
        .map(f64::to_bits)
        .eq(library.into_iter().map(f64::to_bits))
    {
        Ok(())
    } else {
        Err("the replay's result is not bitwise the library's".into())
    }
}

/// A complex eigenvector matrix as the batch output flattens it.
fn flat<T: ComplexScalar>(z: &Option<CMatrixG<T>>) -> impl Iterator<Item = f64> + '_ {
    z.iter()
        .flat_map(|z| z.as_slice().iter().flat_map(|v| [v.re(), v.im()]))
}

/// Time `f`, in seconds.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The workload's e2e operation on input 0: once cold, then `reps` times
/// timed, each output checked. Returns the wall seconds of the timed
/// operations and the CPU seconds they used.
fn e2e_ops(job: &mut dyn Job, reps: usize, tally: &mut Tally) -> (Vec<f64>, f64) {
    job.op(0);
    tally.add(job.verify(0));
    let mut cpu = 0.0;
    let wall = (0..reps)
        .map(|_| {
            let c0 = cpu_seconds();
            let t = timed(|| job.op(0));
            cpu += cpu_seconds() - c0;
            tally.add(job.verify(0));
            t
        })
        .collect();
    (wall, cpu)
}

/// What a workload's traced run measured, before it becomes metrics.
struct Breakdown {
    /// Replay spans; repetitions `1..=reps` are the measured ones.
    tracer: Tracer,
    /// The untraced library call the layers decompose.
    pipeline_s: Vec<f64>,
    /// Wall time of one replay with the tracer on and off.
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    /// Wall and CPU seconds of the workload's e2e operations.
    e2e_wall_s: f64,
    e2e_cpu_s: f64,
    /// One-stage baseline, and the two-stage time it is compared with.
    onestage_s: Vec<f64>,
    twostage_s: f64,
    footprint_bytes: usize,
    req_bytes: usize,
    tasks: usize,
    /// A layer timed off the solve's path (its share is 0).
    off_path: Option<&'static str>,
    tally: Tally,
}

/// Kernel-layer rates, each the median of `reps` calls.
fn kernels(scale: Scale, tr: &mut Tracer) -> Vec<Metric> {
    let reps = reps(scale);
    let n = match scale {
        Scale::Full => 1024,
        Scale::Smoke => 128,
    };
    let peak = tr.layer("kernels.fma_peak", fma_peak) / 1e9;
    let mut out = vec![Metric::new("kernels.fma_peak_gflops", peak, "Gflop/s", 3)];
    let mut rng = Rng::new(0x5eed);
    let raw: Vec<f64> = (0..2 * n * n).map(|_| 0.5 * rng.uniform()).collect();
    fn rate<T: GemmScalar>(
        n: usize,
        raw: &[f64],
        opb: Op,
        from: impl Fn(f64) -> T,
        reps: usize,
        tr: &mut Tracer,
    ) -> f64 {
        let a: Vec<T> = raw[..n * n].iter().map(|&x| from(x)).collect();
        let b: Vec<T> = raw[n * n..].iter().map(|&x| from(x)).collect();
        let mut c = vec![T::ZERO; n * n];
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                tr.layer("kernels.gemm", || {
                    gemm(
                        Op::No,
                        opb,
                        n,
                        n,
                        n,
                        T::ONE,
                        &a,
                        n,
                        &b,
                        n,
                        T::ZERO,
                        &mut c,
                        n,
                    )
                });
                t.elapsed().as_secs_f64()
            })
            .collect();
        std::hint::black_box(&c);
        (T::MULADD_FLOPS * (n * n * n) as u64) as f64 / median(&times) / 1e9
    }
    out.push(Metric::new(
        "kernels.gemm_gflops.f64",
        rate::<f64>(n, &raw, Op::No, |x| x, reps, tr),
        "Gflop/s",
        reps,
    ));
    out.push(Metric::new(
        "kernels.gemm_gflops.f32",
        rate::<f32>(n, &raw, Op::No, |x| x as f32, reps, tr),
        "Gflop/s",
        reps,
    ));
    let c64 = |x: f64| C64 {
        re: x,
        im: -0.5 * x,
    };
    out.push(Metric::new(
        "kernels.gemm_gflops.c64",
        rate::<C64>(n, &raw, Op::ConjTrans, c64, reps, tr),
        "Gflop/s",
        reps,
    ));
    let c32 = |x: f64| C32 {
        re: x as f32,
        im: -0.5 * x as f32,
    };
    out.push(Metric::new(
        "kernels.gemm_gflops.c32",
        rate::<C32>(n, &raw, Op::ConjTrans, c32, reps, tr),
        "Gflop/s",
        reps,
    ));

    let mut c = vec![0.0f64; n * n];
    let par: Vec<f64> = (0..reps)
        .map(|_| {
            timed(|| {
                tr.layer("kernels.gemm_par", || {
                    gemm_par(
                        Trans::No,
                        Trans::No,
                        n,
                        n,
                        n,
                        1.0,
                        &raw[..n * n],
                        n,
                        &raw[n * n..],
                        n,
                        0.0,
                        &mut c,
                        n,
                    )
                })
            })
        })
        .collect();
    std::hint::black_box(&c);
    out.push(Metric::new(
        "kernels.gemm_par_gflops.f64",
        2.0 * (n as f64).powi(3) / median(&par) / 1e9,
        "Gflop/s",
        reps,
    ));

    // symv is the memory-bound kernel of the one-stage reduction: at four
    // times the gemm order its matrix (128 MiB) is larger than the L3, so
    // every call streams it from memory.
    let m = 4 * n;
    let a: Vec<f64> = (0..m * m).map(|_| rng.uniform()).collect();
    let x = vec![1.0f64; m];
    let mut y = vec![0.0f64; m];
    const CALLS: usize = 20;
    let symv: Vec<f64> = (0..reps)
        .map(|_| {
            timed(|| {
                tr.layer("kernels.symv", || {
                    (0..CALLS).for_each(|_| symv_lower(m, 1.0, &a, m, &x, 0.0, &mut y))
                })
            })
        })
        .collect();
    std::hint::black_box(&y);
    out.push(Metric::new(
        "kernels.symv_gflops",
        (CALLS * 2 * m * m) as f64 / median(&symv) / 1e9,
        "Gflop/s",
        reps,
    ));
    out
}

/// The eig workloads: the pipeline call is the e2e `SymmetricEigen::solve_into`.
fn eig(w: Workload, scale: Scale, seed: u64, tr: Tracer) -> Breakdown {
    let reps = reps(scale);
    let cfg = eig_config(w);
    let mut job = EigJob::new(w, scale, seed);
    let mut tally = Tally::default();
    let (pipeline_s, e2e_cpu_s) = e2e_ops(&mut job, reps, &mut tally);

    let a = job.input(0).clone();
    let mut tr = tr;
    let mut rp = EigReplay::default();
    let mut traced_s = Vec::new();
    for rep in 0..=reps {
        tr.set_rep(rep);
        let mut r = Ok(());
        let t = timed(|| {
            let root = tr.begin("solve");
            r = rp.solve(&a, cfg, &mut tr);
            tr.end(root);
        });
        // The job's plan holds the checked library result of input 0.
        let plan = job.plan();
        let outcome = r.map_err(|e| e.to_string()).and_then(|()| {
            same_bits(
                rp.evals
                    .iter()
                    .chain(rp.evecs.iter().flat_map(|z| z.as_slice()))
                    .copied(),
                plan.eigenvalues()
                    .iter()
                    .chain(plan.eigenvectors().into_iter().flat_map(|z| z.as_slice()))
                    .copied(),
            )
        });
        if rep == 0 || outcome.is_err() {
            tally.add(Tally::of("eig replay", outcome));
        }
        if rep > 0 {
            traced_s.push(t);
        }
    }
    let off_path = (!cfg.vectors).then_some("backtransform");
    if off_path.is_some() {
        for rep in 1..=reps {
            tr.set_rep(rep);
            if let Err(e) = rp.backtransform_columns(DEFAULT_PANEL_COLS, false, &mut tr) {
                tally.add(Tally::of("back-transform of one panel", Err(e.to_string())));
            }
        }
    }
    let mut off = Tracer::off();
    let untraced_s = (0..reps)
        .map(|_| timed(|| drop(rp.solve(&a, cfg, &mut off))))
        .collect();

    let opts = OneStageOptions::default();
    let onestage_s = (0..reps)
        .map(|_| {
            let mut r = None;
            let t = timed(|| {
                r = Some(tr.layer("onestage", || syev(&a, EigenRange::All, cfg.vectors, &opts)))
            });
            if let Some(Err(e)) = r {
                tally.add(Tally::of("one-stage syev", Err(e.to_string())));
            }
            t
        })
        .collect();
    let n = a.rows();
    Breakdown {
        tracer: tr,
        twostage_s: median(&pipeline_s),
        e2e_wall_s: pipeline_s.iter().sum(),
        pipeline_s,
        traced_s,
        untraced_s,
        e2e_cpu_s,
        onestage_s,
        footprint_bytes: job.plan().footprint_bytes(),
        req_bytes: job.eigen().plan_req(n).total_bytes(),
        tasks: tseig_core::stage2::chase_task_specs(n, EIG_NB).len(),
        off_path,
        tally,
    }
}

/// The svd workload: the e2e op is the `Auto` route (one-stage with
/// vectors today); the layers decompose the two-stage route, whose
/// library call is the pipeline call.
fn svd(scale: Scale, seed: u64, tr: Tracer) -> Breakdown {
    let reps = reps(scale);
    let mut job = SvdJob::new(scale, seed);
    let mut tally = Tally::default();
    let (e2e, e2e_cpu_s) = e2e_ops(&mut job, reps, &mut tally);
    let a = job.input(0).clone();
    let n = a.cols();

    let mut tr = tr;
    // Each route once cold, then `reps` times timed; returns the times
    // and the cold result once it passed its check.
    let timed_route = |method: SvdMethod,
                       name: &'static str,
                       tr: &mut Tracer,
                       tally: &mut Tally|
     -> (Vec<f64>, Option<Svd>) {
        let d = e2e_svd().method(method);
        let mut plan = SvdPlan::new();
        let mut first = None;
        let times = (0..=reps)
            .map(|rep| {
                let mut r = None;
                let t = timed(|| r = Some(tr.layer(name, || d.solve_with_plan(&a, &mut plan))));
                let outcome = match r {
                    Some(Ok(s)) if rep == 0 => check::svd(&a, &s).map(|()| first = Some(s)),
                    Some(Ok(_)) => Ok(()),
                    Some(Err(e)) => Err(e.to_string()),
                    None => Err("no result".into()),
                };
                if rep == 0 || outcome.is_err() {
                    tally.add(Tally::of(name, outcome));
                }
                t
            })
            .skip(1)
            .collect();
        (times, first)
    };
    let (pipeline_s, library) = timed_route(SvdMethod::TwoStage, "pipeline", &mut tr, &mut tally);
    let (onestage_s, _) = timed_route(SvdMethod::OneStage, "onestage", &mut tr, &mut tally);

    let sched = Stage2Exec::Static(THREADS);
    let mut traced_s = Vec::new();
    for rep in 0..=reps {
        tr.set_rep(rep);
        let mut r = None;
        let t = timed(|| {
            let root = tr.begin("solve");
            r = Some(svd_replay(&a, sched, &mut tr));
            tr.end(root);
        });
        let outcome = match (r, &library) {
            (Some(Ok((u, s, v))), Some(want)) => same_bits(
                s.iter().chain(u.as_slice()).chain(v.as_slice()).copied(),
                want.s
                    .iter()
                    .chain(want.u.as_slice())
                    .chain(want.v.as_slice())
                    .copied(),
            ),
            (Some(Ok(_)), None) => Err("no checked two-stage result to compare with".into()),
            (Some(Err(e)), _) => Err(e.to_string()),
            (None, _) => Err("no result".into()),
        };
        if rep == 0 || outcome.is_err() {
            tally.add(Tally::of("svd replay", outcome));
        }
        if rep > 0 {
            traced_s.push(t);
        }
    }
    let mut off = Tracer::off();
    let untraced_s = (0..reps)
        .map(|_| timed(|| drop(svd_replay(&a, sched, &mut off))))
        .collect();
    Breakdown {
        tracer: tr,
        twostage_s: median(&pipeline_s),
        pipeline_s,
        traced_s,
        untraced_s,
        e2e_wall_s: e2e.iter().sum(),
        e2e_cpu_s,
        onestage_s,
        footprint_bytes: job.plan().footprint_bytes(),
        req_bytes: e2e_svd().plan_req(n, n).total_bytes(),
        tasks: tseig_svd::stage2::chase_task_specs(n, SVD_NB).len(),
        off_path: None,
        tally,
    }
}

/// How `tseig batch` solves one request (its defaults: band 48, D&C,
/// serial scheduler, vectors), replayed.
fn batch_config() -> (EigConfig, HermConfig) {
    (
        EigConfig {
            scheduler: Scheduler::Serial,
            vectors: true,
        },
        HermConfig {
            nb: EIG_NB,
            scheduler: tseig_hermitian::Scheduler::Serial,
            vectors: true,
        },
    )
}

/// Replay every request of the stream once; returns the seconds spent on
/// real requests. With `want`, the checked output line of each request,
/// every result is compared bitwise with the CLI's.
fn batch_replay(
    job: &BatchJob,
    c32: &[Option<CMatrixG<C32>>],
    rp: &mut EigReplay,
    tr: &mut Tracer,
    want: Option<&[Option<&str>]>,
    tally: &mut Tally,
) -> f64 {
    let (ecfg, hcfg) = batch_config();
    let mut real_s = 0.0;
    let root = tr.begin("pass");
    for (k, req) in job.stream().requests.iter().enumerate() {
        let same = |replay: &mut dyn Iterator<Item = f64>| -> Result<(), String> {
            let Some(want) = want else { return Ok(()) };
            let (l, z) = check::batch_result(want[k].ok_or("no output line")?)?;
            same_bits(replay, l.into_iter().chain(z))
        };
        let span = tr.begin("request");
        let outcome = match (&req.matrix, &c32[k]) {
            (RequestMatrix::Real(a), _) => {
                let t = Instant::now();
                let r = rp.solve(a, ecfg, tr);
                real_s += t.elapsed().as_secs_f64();
                r.map_err(|e| e.to_string()).and_then(|()| {
                    let z = rp.evecs.iter().flat_map(|z| z.as_slice());
                    same(&mut rp.evals.iter().chain(z).copied())
                })
            }
            (RequestMatrix::Complex(a), None) => herm_replay(a, hcfg, tr)
                .map_err(|e| e.to_string())
                .and_then(|(l, z)| same(&mut l.iter().copied().chain(flat(&z)))),
            (RequestMatrix::Complex(_), Some(a32)) => herm_replay(a32, hcfg, tr)
                .map_err(|e| e.to_string())
                .and_then(|(l, z)| same(&mut l.iter().copied().chain(flat(&z)))),
        };
        tr.end(span);
        if want.is_some() || outcome.is_err() {
            tally.add(Tally::of(&format!("batch replay r{k}"), outcome));
        }
    }
    tr.end(root);
    real_s
}

/// The C32 copies the Hermitian replay of c32 requests runs on.
fn c32_inputs(job: &BatchJob) -> Vec<Option<CMatrixG<C32>>> {
    job.stream()
        .requests
        .iter()
        .map(|r| match (&r.matrix, r.tag) {
            (RequestMatrix::Complex(a), tseig_core::ScalarTag::C32) => {
                Some(CMatrixG::<C32>::from_cmatrix(a))
            }
            _ => None,
        })
        .collect()
}

/// The batch workload: the e2e op is a 2-worker pass; the pipeline call
/// same stream through one worker, whose wall time minus the library
/// solves is the CLI's JSONL parsing and formatting.
fn batch(scale: Scale, seed: u64, tr: Tracer) -> Breakdown {
    let reps = reps(scale);
    let mut job = BatchJob::new(scale, seed, THREADS);
    let mut tally = Tally::default();
    let (e2e, e2e_cpu_s) = e2e_ops(&mut job, reps, &mut tally);

    let mut one = BatchJob::new(scale, seed, 1);
    let mut tr = tr;
    let pipeline_s: Vec<f64> = (0..=reps)
        .map(|r| {
            let t = timed(|| tr.layer("pipeline", || one.op(r)));
            tally.add(one.verify(r));
            t
        })
        .skip(1)
        .collect();
    drop(one);

    // The job's last output is the checked library result.
    let text = job.output();
    let want = check::batch_lines(job.stream(), &text);
    let c32 = c32_inputs(&job);
    let mut rp = EigReplay::default();
    let mut traced_s = Vec::new();
    let mut real_s = Vec::new();
    for rep in 0..=reps {
        tr.set_rep(rep);
        let mut real = 0.0;
        let want = (rep == 0).then_some(&want[..]);
        let t = timed(|| real = batch_replay(&job, &c32, &mut rp, &mut tr, want, &mut tally));
        if rep > 0 {
            traced_s.push(t);
            real_s.push(real);
        }
    }
    let mut off = Tracer::off();
    let untraced_s = (0..reps)
        .map(|_| {
            timed(|| {
                batch_replay(&job, &c32, &mut rp, &mut off, None, &mut tally);
            })
        })
        .collect();

    let reals: Vec<_> = job
        .stream()
        .requests
        .iter()
        .filter_map(|r| match &r.matrix {
            RequestMatrix::Real(a) => Some(a),
            RequestMatrix::Complex(_) => None,
        })
        .collect();
    let opts = OneStageOptions::default();
    let onestage_s = (0..reps)
        .map(|_| {
            timed(|| {
                for a in &reals {
                    if let Err(e) = tr.layer("onestage", || syev(a, EigenRange::All, true, &opts)) {
                        tally.add(Tally::of("one-stage syev", Err(e.to_string())));
                    }
                }
            })
        })
        .collect();

    let (ecfg, _) = batch_config();
    let largest = reals.iter().max_by_key(|a| a.rows()).copied();
    let mut plan = SolvePlan::new();
    let (footprint_bytes, req_bytes) = match largest {
        Some(a) => {
            if let Err(e) = ecfg.eigen().solve_into(a, &mut plan) {
                tally.add(Tally::of("plan footprint solve", Err(e.to_string())));
            }
            (
                plan.footprint_bytes(),
                ecfg.eigen().plan_req(a.rows()).total_bytes(),
            )
        }
        None => (0, 0),
    };
    let tasks = job
        .stream()
        .requests
        .iter()
        .map(|r| match r.matrix {
            RequestMatrix::Real(_) => tseig_core::stage2::chase_task_specs(r.n, EIG_NB).len(),
            RequestMatrix::Complex(_) => {
                tseig_hermitian::stage2::chase_task_specs(r.n, EIG_NB).len()
            }
        })
        .sum();
    Breakdown {
        tracer: tr,
        pipeline_s,
        traced_s,
        untraced_s,
        e2e_wall_s: e2e.iter().sum(),
        e2e_cpu_s,
        onestage_s,
        twostage_s: median(&real_s),
        footprint_bytes,
        req_bytes,
        tasks,
        off_path: None,
        tally,
    }
}

/// Per-layer metrics of workload `w`, except the 2-thread speedups (the
/// caller has them from [`one_thread_layers`]). Returns the metrics, the
/// layer medians, the tally of every checked output and the spans.
pub fn traced(
    w: Workload,
    scale: Scale,
    seed: u64,
) -> (Vec<Metric>, Vec<(&'static str, f64)>, Tally, Tracer) {
    let reps = reps(scale);
    let mut tr = Tracer::new(w.name());
    let mut out = kernels(scale, &mut tr);
    let peak = out[0].value;
    let b = match w {
        Workload::EigVectors | Workload::EigValues => eig(w, scale, seed, tr),
        Workload::SvdVectors => svd(scale, seed, tr),
        Workload::BatchMixed => batch(scale, seed, tr),
    };
    let pipeline = median(&b.pipeline_s);
    let threads = w.threads_per_request() as f64;
    let mut layer_s = Vec::new();
    let mut on_path_s = 0.0;
    for name in LAYERS {
        let times: Vec<f64> = (1..=reps).map(|r| b.tracer.total(name, r).0).collect();
        let t = median(&times);
        let (_, flops, bytes) = b.tracer.total(name, reps);
        let on_path = b.off_path != Some(name);
        if on_path {
            on_path_s += t;
        }
        let gflops = if t > 0.0 { flops as f64 / t / 1e9 } else { 0.0 };
        out.push(Metric::new(format!("{name}.time_s"), t, "s", reps));
        out.push(Metric::new(
            format!("{name}.share"),
            if on_path { t / pipeline } else { 0.0 },
            "fraction",
            reps,
        ));
        out.push(Metric::new(
            format!("{name}.flops"),
            flops as f64,
            "flop",
            1,
        ));
        out.push(Metric::new(
            format!("{name}.bytes_computed"),
            bytes as f64,
            "B",
            1,
        ));
        out.push(Metric::new(
            format!("{name}.gflops"),
            gflops,
            "Gflop/s",
            reps,
        ));
        out.push(Metric::new(
            format!("{name}.frac_peak"),
            gflops / (peak * threads),
            "fraction",
            reps,
        ));
        layer_s.push((name, t));
    }
    let overhead = pipeline - on_path_s;
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let onestage = median(&b.onestage_s);
    let (traced, untraced) = (median(&b.traced_s), median(&b.untraced_s));
    out.extend([
        Metric::new("stage2.tasks", b.tasks as f64, "count", 1),
        Metric::new("pipeline.time_s", pipeline, "s", reps),
        Metric::new("pipeline.overhead_s", overhead, "s", reps),
        Metric::new(
            "pipeline.overhead_share",
            overhead / pipeline,
            "fraction",
            reps,
        ),
        Metric::new(
            "pipeline.busy_frac",
            b.e2e_cpu_s / (THREADS as f64 * b.e2e_wall_s),
            "fraction",
            reps,
        ),
        Metric::new("plan.footprint_mb", mib(b.footprint_bytes), "MiB", 1),
        Metric::new("plan.req_mb", mib(b.req_bytes), "MiB", 1),
        Metric::new("onestage.time_s", onestage, "s", reps),
        Metric::new("onestage.speedup", onestage / b.twostage_s, "x", reps),
        Metric::new(
            "trace.overhead_frac",
            (traced - untraced) / untraced,
            "fraction",
            reps,
        ),
    ]);
    (out, layer_s, b.tally, b.tracer)
}

/// Layer medians of the one-thread configuration: the serial scheduler
/// everywhere, in a process whose rayon budget is one thread (the caller
/// sets `RAYON_NUM_THREADS=1`).
pub fn one_thread_layers(
    w: Workload,
    scale: Scale,
    seed: u64,
) -> (Vec<(&'static str, f64)>, Tally) {
    let reps = reps(scale);
    let mut tr = Tracer::new(w.name());
    let mut tally = Tally::default();
    match w {
        Workload::EigVectors | Workload::EigValues => {
            let a = crate::inputs::eig_inputs(w, scale, seed)[0].clone();
            let cfg = EigConfig {
                scheduler: Scheduler::Serial,
                ..eig_config(w)
            };
            let mut rp = EigReplay::default();
            for rep in 0..=reps {
                tr.set_rep(rep);
                if let Err(e) = rp.solve(&a, cfg, &mut tr) {
                    tally.add(Tally::of("one-thread eig replay", Err(e.to_string())));
                }
                if !cfg.vectors && rep > 0 {
                    if let Err(e) = rp.backtransform_columns(DEFAULT_PANEL_COLS, true, &mut tr) {
                        tally.add(Tally::of("one-thread back-transform", Err(e.to_string())));
                    }
                }
            }
        }
        Workload::SvdVectors => {
            let a = crate::inputs::svd_inputs(scale, seed)[0].clone();
            for rep in 0..=reps {
                tr.set_rep(rep);
                if let Err(e) = svd_replay(&a, Stage2Exec::Serial, &mut tr) {
                    tally.add(Tally::of("one-thread svd replay", Err(e.to_string())));
                }
            }
        }
        Workload::BatchMixed => {
            let job = BatchJob::new(scale, seed, 1);
            let c32 = c32_inputs(&job);
            let mut rp = EigReplay::default();
            for rep in 0..=reps {
                tr.set_rep(rep);
                batch_replay(&job, &c32, &mut rp, &mut tr, None, &mut tally);
            }
        }
    }
    let layers = LAYERS
        .iter()
        .map(|&name| {
            (
                name,
                median(&(1..=reps).map(|r| tr.total(name, r).0).collect::<Vec<_>>()),
            )
        })
        .collect();
    (layers, tally)
}
