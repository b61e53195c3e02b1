//! Library backing the `tseig` binary (kept as a lib so the argument
//! parsing and command logic are unit-testable).

use std::io::{BufRead, Write};
use std::time::Duration;
use tseig_core::{BatchDriver, BatchSummary, ScalarTag, Scheduler, SymmetricEigen, VerifyLevel};
use tseig_hermitian::HermitianEigen;
use tseig_matrix::{
    io as mmio, norms, CMatrix, CMatrixG, ComplexScalar, Ctrl, Deadline, Error, Matrix, MemBudget,
    C32,
};
use tseig_tridiag::{EigenRange, Method};

/// Usage text.
pub const USAGE: &str = "\
usage:
  tseig eig   <A.mtx> [--nb N] [--method dc|qr|bisect] [--values-only]
              [--fraction F] [--range LO:HI] [--one-stage] [--vectors-out Z.mtx]
              [--verify] [--verbose]
  tseig batch <in.jsonl> [-o out.jsonl] [--kind eig|svd|gen] [--nb N]
              [--method dc|qr|bisect] [--scheduler serial|static:T|dynamic:T]
              [--threads T] [--vectors] [--scalar f32|f64|c32|c64]
              [--deadline-ms MS] [--mem-budget BYTES] [--watchdog-ms MS]
  tseig svd   <A.mtx> [--values-only] [--u-out U.mtx] [--v-out V.mtx]
  tseig info  <A.mtx>

  --verify   re-check the computed eigenpairs against the input
             (fails with a nonzero exit on a violated residual bound)
  --verbose  print solve diagnostics (fallbacks, scaling, verification)

batch: each input line is one request; the line format depends on --kind:
  eig (default): {\"id\": \"r1\", \"n\": 3, \"data\": [column-major n*n entries]}
  svd:           {\"id\": \"r1\", \"m\": 4, \"n\": 3, \"data\": [column-major m*n entries]}
  gen:           {\"id\": \"r1\", \"n\": 3, \"a\": [n*n entries], \"b\": [n*n SPD entries]}
and each output line one result (always tagged with its element type),
  {\"id\": \"r1\", \"scalar\": \"f64\", \"ok\": true, \"degraded\": false, \"eigenvalues\": [...]}
  {\"id\": \"r2\", \"scalar\": \"f64\", \"ok\": false, \"error\": \"...\"}
(svd results carry \"singular_values\" — and \"u\"/\"v\" under --vectors —
instead of \"eigenvalues\"). A malformed or unsolvable request fails
alone; the batch keeps going.
--threads is the queue depth (concurrent workers, 0 = all cores); each
worker reuses one solve plan across its requests.
--scalar sets the default element type; a per-request \"scalar\" key
overrides it, so one batch may mix all four. Complex requests (c32/c64,
Hermitian input) carry 2*n*n entries in \"data\", interleaved re,im, and
solve through the Hermitian pipeline; eigenvectors come back in the same
interleaved layout. f32/c32 parse every entry at 32-bit precision (c32
also computes at it); real f32 requests then solve through the f64
pipeline, so f32 is I/O precision only. Eigenvalues are always f64.
--kind gen solves A x = lambda B x (symmetric/Hermitian A, SPD B) at all
four element types; --kind svd is real-only (f32/f64).
--deadline-ms caps each request's wall clock (overruns fail that line
with \"error_kind\": \"deadline_exceeded\"); --mem-budget rejects requests
whose solve plan would exceed BYTES before allocating anything
(\"budget_exceeded\"); --watchdog-ms cancels a worker whose progress
heartbeat stays flat for MS and quarantines its plan. A governed abort
fails its own request only — the batch always drains and exits 0.";

/// Workload of one `tseig batch` run: standard eigenproblems (the
/// default), SVDs, or generalized `A x = lambda B x` pencils.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchKind {
    #[default]
    Eig,
    Svd,
    Gen,
}

/// Request-lifecycle knobs of one batch run (`--deadline-ms`,
/// `--mem-budget`, `--watchdog-ms`); all optional, all per request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchGovernor {
    /// Wall-clock budget per request, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Admission ceiling on the per-request plan size, bytes.
    pub mem_budget: Option<usize>,
    /// Stuck-worker watchdog interval, milliseconds.
    pub watchdog_ms: Option<u64>,
}

impl BatchKind {
    fn parse(s: &str) -> Option<BatchKind> {
        match s {
            "eig" => Some(BatchKind::Eig),
            "svd" => Some(BatchKind::Svd),
            "gen" => Some(BatchKind::Gen),
            _ => None,
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Cli {
    Eig {
        path: String,
        nb: usize,
        method: Method,
        values_only: bool,
        fraction: Option<f64>,
        range: Option<(usize, usize)>,
        one_stage: bool,
        vectors_out: Option<String>,
        verify: bool,
        verbose: bool,
    },
    Batch {
        path: String,
        out: Option<String>,
        kind: BatchKind,
        nb: usize,
        method: Method,
        scheduler: Scheduler,
        threads: usize,
        vectors: bool,
        scalar: ScalarTag,
        governor: BatchGovernor,
    },
    Svd {
        path: String,
        values_only: bool,
        u_out: Option<String>,
        v_out: Option<String>,
    },
    Info {
        path: String,
    },
}

impl Cli {
    /// Parse arguments (without the program name).
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut it = args.iter();
        let cmd = it.next().ok_or("missing command")?;
        let path = it.next().ok_or("missing matrix file")?.clone();
        let rest: Vec<&String> = it.collect();
        let flag_value = |name: &str| -> Option<&str> {
            rest.iter()
                .position(|a| a.as_str() == name)
                .and_then(|i| rest.get(i + 1))
                .map(|s| s.as_str())
        };
        let has_flag = |name: &str| rest.iter().any(|a| a.as_str() == name);
        match cmd.as_str() {
            "eig" => {
                let nb = match flag_value("--nb") {
                    Some(v) => v.parse().map_err(|_| format!("bad --nb {v}"))?,
                    None => 48,
                };
                let method = match flag_value("--method").unwrap_or("dc") {
                    "dc" => Method::DivideAndConquer,
                    "qr" => Method::Qr,
                    "bisect" => Method::BisectionInverse,
                    other => return Err(format!("unknown method {other}")),
                };
                let fraction = match flag_value("--fraction") {
                    Some(v) => Some(v.parse().map_err(|_| format!("bad --fraction {v}"))?),
                    None => None,
                };
                let range = match flag_value("--range") {
                    Some(v) => {
                        let (lo, hi) = v
                            .split_once(':')
                            .ok_or_else(|| format!("bad --range {v}, expected LO:HI"))?;
                        Some((
                            lo.parse().map_err(|_| format!("bad range start {lo}"))?,
                            hi.parse().map_err(|_| format!("bad range end {hi}"))?,
                        ))
                    }
                    None => None,
                };
                Ok(Cli::Eig {
                    path,
                    nb,
                    method,
                    values_only: has_flag("--values-only"),
                    fraction,
                    range,
                    one_stage: has_flag("--one-stage"),
                    vectors_out: flag_value("--vectors-out").map(String::from),
                    verify: has_flag("--verify"),
                    verbose: has_flag("--verbose"),
                })
            }
            "batch" => {
                let nb = match flag_value("--nb") {
                    Some(v) => v.parse().map_err(|_| format!("bad --nb {v}"))?,
                    None => 48,
                };
                let method = match flag_value("--method").unwrap_or("dc") {
                    "dc" => Method::DivideAndConquer,
                    "qr" => Method::Qr,
                    "bisect" => Method::BisectionInverse,
                    other => return Err(format!("unknown method {other}")),
                };
                let scheduler = match flag_value("--scheduler").unwrap_or("serial") {
                    "serial" => Scheduler::Serial,
                    other => {
                        let (kind, t) = other
                            .split_once(':')
                            .ok_or_else(|| format!("bad --scheduler {other}"))?;
                        let t: usize = t
                            .parse()
                            .map_err(|_| format!("bad scheduler threads {t}"))?;
                        match kind {
                            "static" => Scheduler::Static(t),
                            "dynamic" => Scheduler::Dynamic(t),
                            _ => return Err(format!("unknown scheduler {kind}")),
                        }
                    }
                };
                let threads = match flag_value("--threads") {
                    Some(v) => v.parse().map_err(|_| format!("bad --threads {v}"))?,
                    None => 0,
                };
                let scalar = match flag_value("--scalar") {
                    Some(v) => ScalarTag::parse(v)
                        .ok_or_else(|| format!("bad --scalar {v}, expected f32|f64|c32|c64"))?,
                    None => ScalarTag::F64,
                };
                let kind = match flag_value("--kind") {
                    Some(v) => BatchKind::parse(v)
                        .ok_or_else(|| format!("bad --kind {v}, expected eig|svd|gen"))?,
                    None => BatchKind::Eig,
                };
                let governor = BatchGovernor {
                    deadline_ms: match flag_value("--deadline-ms") {
                        Some(v) => Some(v.parse().map_err(|_| format!("bad --deadline-ms {v}"))?),
                        None => None,
                    },
                    mem_budget: match flag_value("--mem-budget") {
                        Some(v) => Some(v.parse().map_err(|_| format!("bad --mem-budget {v}"))?),
                        None => None,
                    },
                    watchdog_ms: match flag_value("--watchdog-ms") {
                        Some(v) => Some(v.parse().map_err(|_| format!("bad --watchdog-ms {v}"))?),
                        None => None,
                    },
                };
                Ok(Cli::Batch {
                    path,
                    out: flag_value("-o").map(String::from),
                    kind,
                    nb,
                    method,
                    scheduler,
                    threads,
                    vectors: has_flag("--vectors"),
                    scalar,
                    governor,
                })
            }
            "svd" => Ok(Cli::Svd {
                path,
                values_only: has_flag("--values-only"),
                u_out: flag_value("--u-out").map(String::from),
                v_out: flag_value("--v-out").map(String::from),
            }),
            "info" => Ok(Cli::Info { path }),
            other => Err(format!("unknown command {other}")),
        }
    }
}

/// Execute a parsed command. File access is injected so tests can use
/// in-memory buffers.
pub fn run<R: BufRead, W: Write>(
    cli: &Cli,
    mut open: impl FnMut(&str) -> Result<R, String>,
    mut create: impl FnMut(&str) -> Result<W, String>,
) -> Result<(), String> {
    match cli {
        Cli::Info { path } => {
            let a = mmio::read_matrix_market(open(path)?).map_err(|e| e.to_string())?;
            let n = a.rows();
            let mut sym = a.rows() == a.cols();
            if sym {
                'outer: for j in 0..n {
                    for i in 0..j {
                        if (a[(i, j)] - a[(j, i)]).abs() > 1e-12 * (1.0 + a[(i, j)].abs()) {
                            sym = false;
                            break 'outer;
                        }
                    }
                }
            }
            println!(
                "{} x {}  symmetric: {}  1-norm: {:.6e}",
                a.rows(),
                a.cols(),
                sym,
                norms::norm1(&a)
            );
            Ok(())
        }
        Cli::Eig {
            path,
            nb,
            method,
            values_only,
            fraction,
            range,
            one_stage,
            vectors_out,
            verify,
            verbose,
        } => {
            let a = mmio::read_matrix_market(open(path)?).map_err(|e| e.to_string())?;
            if a.rows() != a.cols() {
                return Err(format!(
                    "eig needs a square matrix, got {}x{}",
                    a.rows(),
                    a.cols()
                ));
            }
            let want_vectors = !values_only || vectors_out.is_some();
            let erange = match range {
                Some((lo, hi)) => {
                    if lo >= hi || *hi > a.rows() {
                        return Err(format!(
                            "bad --range {lo}:{hi}: need 0 <= LO < HI <= {}",
                            a.rows()
                        ));
                    }
                    EigenRange::Index(*lo, *hi)
                }
                None => EigenRange::All,
            };
            let t0 = std::time::Instant::now();
            let (vals, vecs) = if *one_stage {
                if *verify {
                    return Err("--verify is only available for the two-stage solver".into());
                }
                let r = tseig_onestage::syev(
                    &a,
                    match fraction {
                        Some(f) => {
                            let k = ((f * a.rows() as f64).ceil() as usize).clamp(1, a.rows());
                            EigenRange::Index(0, k)
                        }
                        None => erange,
                    },
                    want_vectors,
                    &tseig_onestage::OneStageOptions {
                        nb: *nb,
                        method: *method,
                    },
                )
                .map_err(|e| e.to_string())?;
                if *verbose {
                    eprintln!("one-stage solver: no solve diagnostics available");
                }
                (r.eigenvalues, r.eigenvectors)
            } else {
                let mut builder = SymmetricEigen::new()
                    .nb(*nb)
                    .method(*method)
                    .range(erange)
                    .vectors(want_vectors);
                if let Some(f) = fraction {
                    builder = builder.fraction(*f);
                }
                if *verify {
                    builder = builder.verify(VerifyLevel::Full);
                }
                let r = builder.solve(&a).map_err(|e| e.to_string())?;
                if *verbose {
                    eprint!("{}", r.diagnostics);
                }
                (r.eigenvalues, r.eigenvectors)
            };
            eprintln!(
                "solved {}x{} in {:.2?} ({} eigenvalues, {})",
                a.rows(),
                a.cols(),
                t0.elapsed(),
                vals.len(),
                if *one_stage { "one-stage" } else { "two-stage" },
            );
            if let Some(z) = vecs.as_ref() {
                eprintln!(
                    "residual {:.1}, orthogonality {:.1}",
                    norms::eigen_residual(&a, &vals, z),
                    norms::orthogonality(z)
                );
            }
            for v in &vals {
                println!("{v:.17e}");
            }
            if let (Some(out), Some(z)) = (vectors_out, vecs.as_ref()) {
                mmio::write_matrix_market(z, create(out)?).map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        Cli::Batch {
            path,
            out,
            kind,
            nb,
            method,
            scheduler,
            threads,
            vectors,
            scalar,
            governor,
        } => {
            let input = open(path)?;
            let t0 = std::time::Instant::now();
            let (lines, mut summary) = match kind {
                BatchKind::Eig => batch_eig(
                    input, *nb, *method, *scheduler, *threads, *vectors, *scalar, *governor,
                )?,
                BatchKind::Svd => batch_svd(
                    input, *nb, *scheduler, *threads, *vectors, *scalar, *governor,
                )?,
                BatchKind::Gen => batch_gen(
                    input, *nb, *method, *scheduler, *threads, *vectors, *scalar, *governor,
                )?,
            };
            let wall = t0.elapsed();
            summary.wall = wall;
            match out {
                Some(p) => {
                    let mut w = create(p)?;
                    for l in &lines {
                        writeln!(w, "{l}").map_err(|e| e.to_string())?;
                    }
                }
                None => {
                    for l in &lines {
                        println!("{l}");
                    }
                }
            }
            let lifecycle =
                if summary.deadline_exceeded + summary.stuck_workers + summary.worker_rescues > 0 {
                    format!(
                        "; {} deadline-exceeded, {} stuck, {} rescued",
                        summary.deadline_exceeded, summary.stuck_workers, summary.worker_rescues,
                    )
                } else {
                    String::new()
                };
            eprintln!(
                "batch[{}]: {} requests in {:.2?} ({} clean, {} degraded, {} failed{}; {})",
                match kind {
                    BatchKind::Eig => "eig",
                    BatchKind::Svd => "svd",
                    BatchKind::Gen => "gen",
                },
                summary.total,
                wall,
                summary.clean,
                summary.degraded,
                summary.failed,
                lifecycle,
                summary.scalar_counts(),
            );
            Ok(())
        }
        Cli::Svd {
            path,
            values_only,
            u_out,
            v_out,
        } => {
            let a = mmio::read_matrix_market(open(path)?).map_err(|e| e.to_string())?;
            let transposed = a.rows() < a.cols();
            let work = if transposed { a.transpose() } else { a.clone() };
            let t0 = std::time::Instant::now();
            let svd = tseig_svd::gesvd(&work).map_err(|e| e.to_string())?;
            eprintln!(
                "svd of {}x{} in {:.2?} (residual {:.1})",
                a.rows(),
                a.cols(),
                t0.elapsed(),
                tseig_svd::drivers::svd_residual(&work, &svd)
            );
            for s in &svd.s {
                println!("{s:.17e}");
            }
            if !values_only {
                let (u, v) = if transposed {
                    (&svd.v, &svd.u)
                } else {
                    (&svd.u, &svd.v)
                };
                if let Some(out) = u_out {
                    mmio::write_matrix_market(u, create(out)?).map_err(|e| e.to_string())?;
                }
                if let Some(out) = v_out {
                    mmio::write_matrix_market(v, create(out)?).map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        }
    }
}

/// Parallel columns out of one JSONL batch parse: ids, scalar tags, and
/// the per-line request-or-error slots.
type ParsedBatch<Q> = (Vec<String>, Vec<ScalarTag>, Vec<Result<Q, String>>);

/// Parse the JSONL stream for one batch run: `parse` maps a line to
/// `(id, tag, request-or-error)`, collecting the three columns so a
/// malformed line becomes a failed slot, never a batch abort.
fn read_requests<R: BufRead, Q>(
    input: R,
    mut parse: impl FnMut(&str, usize) -> (String, ScalarTag, Result<Q, String>),
) -> Result<ParsedBatch<Q>, String> {
    let mut ids = Vec::new();
    let mut tags = Vec::new();
    let mut requests = Vec::new();
    for (k, line) in input.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let (id, tag, req) = parse(&line, k);
        ids.push(id);
        tags.push(tag);
        requests.push(req);
    }
    Ok((ids, tags, requests))
}

/// Apply the governance knobs to a [`BatchDriver`].
fn governed_driver(driver: BatchDriver, gov: BatchGovernor) -> BatchDriver {
    let mut driver = driver;
    if let Some(ms) = gov.deadline_ms {
        driver = driver.deadline(Duration::from_millis(ms));
    }
    if let Some(b) = gov.mem_budget {
        driver = driver.mem_budget(MemBudget::bytes(b));
    }
    if let Some(ms) = gov.watchdog_ms {
        driver = driver.watchdog(Duration::from_millis(ms));
    }
    driver
}

/// The Hermitian driver for one request under the governance knobs
/// (complex requests solve sequentially, so only the per-request
/// deadline applies; the pool watchdog never sees them).
fn governed_herm(herm: &HermitianEigen, gov: BatchGovernor) -> HermitianEigen {
    match gov.deadline_ms {
        Some(ms) => herm
            .clone()
            .ctrl(Ctrl::new().with_deadline(Deadline::new(Duration::from_millis(ms)))),
        None => herm.clone(),
    }
}

/// `--kind eig`: standard symmetric/Hermitian eigenproblems. Real
/// requests (f64, plus f32 after the parse-time rounding) go through the
/// shared worker pool; complex ones solve one at a time through the
/// Hermitian pipeline.
#[allow(clippy::too_many_arguments)]
fn batch_eig<R: BufRead>(
    input: R,
    nb: usize,
    method: Method,
    scheduler: Scheduler,
    threads: usize,
    vectors: bool,
    scalar: ScalarTag,
    gov: BatchGovernor,
) -> Result<(Vec<String>, BatchSummary), String> {
    let (ids, tags, requests) = read_requests(input, |line, k| parse_batch_line(line, k, scalar))?;
    let mats: Vec<Matrix> = requests
        .iter()
        .filter_map(|r| match r {
            Ok(BatchRequest::Real(m)) => Some(m.clone()),
            _ => None,
        })
        .collect();
    let eigen = SymmetricEigen::new()
        .nb(nb)
        .method(method)
        .scheduler(scheduler)
        .vectors(vectors);
    let herm = herm_options(nb, method, scheduler, vectors);
    let (solved, events) =
        governed_driver(BatchDriver::new(eigen).threads(threads), gov).solve_all_governed(&mats);
    // Merge solver results back into request order, solving the complex
    // requests in place and tallying everything by type.
    let mut summary = BatchSummary::default().with_events(events);
    let mut solved_it = solved.into_iter();
    let mut lines: Vec<String> = Vec::with_capacity(requests.len());
    for ((id, tag), req) in ids.iter().zip(&tags).zip(&requests) {
        let outcome: Result<SolvedLine, LineError> = match req {
            Err(e) => Err(LineError::parse(e.clone())),
            Ok(BatchRequest::Real(_)) => solved_it
                .next()
                .expect("one result per parsed real request")
                .map(|r| SolvedLine::real(&r))
                .map_err(|e| LineError::of(&e)),
            Ok(BatchRequest::C64(a)) => governed_herm(&herm, gov)
                .solve(a)
                .map(|r| SolvedLine::complex(&r))
                .map_err(|e| LineError::of(&e)),
            Ok(BatchRequest::C32(a)) => governed_herm(&herm, gov)
                .solve(a)
                .map(|r| SolvedLine::complex(&r))
                .map_err(|e| LineError::of(&e)),
        };
        push_outcome(&mut lines, &mut summary, id, *tag, vectors, outcome);
    }
    Ok((lines, summary))
}

/// `--kind gen`: generalized pencils `A x = lambda B x`. Real pencils
/// stream through `BatchDriver::solve_all_generalized`'s worker pool
/// (per-worker `GenPlan` reuse); complex ones solve through the
/// Hermitian-definite driver.
#[allow(clippy::too_many_arguments)]
fn batch_gen<R: BufRead>(
    input: R,
    nb: usize,
    method: Method,
    scheduler: Scheduler,
    threads: usize,
    vectors: bool,
    scalar: ScalarTag,
    gov: BatchGovernor,
) -> Result<(Vec<String>, BatchSummary), String> {
    let (ids, tags, requests) = read_requests(input, |line, k| parse_gen_line(line, k, scalar))?;
    let pencils: Vec<(Matrix, Matrix)> = requests
        .iter()
        .filter_map(|r| match r {
            Ok(GenRequest::Real(a, b)) => Some((a.clone(), b.clone())),
            _ => None,
        })
        .collect();
    let eigen = SymmetricEigen::new()
        .nb(nb)
        .method(method)
        .scheduler(scheduler)
        .vectors(vectors);
    let herm = herm_options(nb, method, scheduler, vectors);
    let (solved, events) = governed_driver(BatchDriver::new(eigen).threads(threads), gov)
        .solve_all_generalized_governed(&pencils);
    let mut summary = BatchSummary::default().with_events(events);
    let mut solved_it = solved.into_iter();
    let mut lines: Vec<String> = Vec::with_capacity(requests.len());
    for ((id, tag), req) in ids.iter().zip(&tags).zip(&requests) {
        let outcome: Result<SolvedLine, LineError> = match req {
            Err(e) => Err(LineError::parse(e.clone())),
            Ok(GenRequest::Real(..)) => solved_it
                .next()
                .expect("one result per parsed real pencil")
                .map(|r| SolvedLine::real(&r))
                .map_err(|e| LineError::of(&e)),
            Ok(GenRequest::C64(a, b)) => {
                tseig_hermitian::generalized::solve_generalized(a, b, &governed_herm(&herm, gov))
                    .map(|r| SolvedLine::complex(&r))
                    .map_err(|e| LineError::of(&e))
            }
            Ok(GenRequest::C32(a, b)) => {
                tseig_hermitian::generalized::solve_generalized(a, b, &governed_herm(&herm, gov))
                    .map(|r| SolvedLine::complex(&r))
                    .map_err(|e| LineError::of(&e))
            }
        };
        push_outcome(&mut lines, &mut summary, id, *tag, vectors, outcome);
    }
    Ok((lines, summary))
}

/// `--kind svd`: thin SVDs through `SvdBatch`'s worker pool. Real-only;
/// wide inputs factor the transpose with `u`/`v` swapped back.
#[allow(clippy::too_many_arguments)]
fn batch_svd<R: BufRead>(
    input: R,
    nb: usize,
    scheduler: Scheduler,
    threads: usize,
    vectors: bool,
    scalar: ScalarTag,
    gov: BatchGovernor,
) -> Result<(Vec<String>, BatchSummary), String> {
    let (ids, tags, requests) = read_requests(input, |line, k| parse_svd_line(line, k, scalar))?;
    // Tall-or-square working copies, remembering which were transposed.
    let mut transposed = Vec::with_capacity(requests.len());
    let mats: Vec<Matrix> = requests
        .iter()
        .filter_map(|r| match r {
            Ok(m) => {
                let t = m.rows() < m.cols();
                transposed.push(t);
                Some(if t { m.transpose() } else { m.clone() })
            }
            _ => None,
        })
        .collect();
    let driver = tseig_svd::GeSvd::new()
        .nb(nb.max(2))
        .scheduler(scheduler)
        .vectors(vectors);
    let mut batch = tseig_svd::SvdBatch::new(driver).threads(threads);
    if let Some(ms) = gov.deadline_ms {
        batch = batch.deadline(Duration::from_millis(ms));
    }
    if let Some(b) = gov.mem_budget {
        batch = batch.mem_budget(MemBudget::bytes(b));
    }
    let solved = batch.solve_all(&mats);
    let mut summary = BatchSummary::default();
    let mut solved_it = solved.into_iter().zip(transposed);
    let mut lines: Vec<String> = Vec::with_capacity(requests.len());
    for ((id, tag), req) in ids.iter().zip(&tags).zip(&requests) {
        let outcome: Result<(tseig_svd::Svd, bool), LineError> = match req {
            Err(e) => Err(LineError::parse(e.clone())),
            Ok(_) => {
                let (r, t) = solved_it.next().expect("one result per parsed request");
                r.map(|svd| (svd, t)).map_err(|e| LineError::of(&e))
            }
        };
        match outcome {
            Ok((svd, t)) => {
                summary.record(*tag, Ok(!svd.diagnostics.degraded));
                lines.push(svd_ok_line(id, *tag, &svd, t, vectors));
            }
            Err(e) => {
                summary.record(*tag, Err(()));
                if e.is_deadline() {
                    summary.deadline_exceeded += 1;
                }
                lines.push(batch_error_line(id, *tag, &e));
            }
        }
    }
    Ok((lines, summary))
}

/// The Hermitian builder mirroring one batch's eig/gen configuration.
fn herm_options(nb: usize, method: Method, scheduler: Scheduler, vectors: bool) -> HermitianEigen {
    HermitianEigen::new()
        .nb(nb)
        .method(method)
        .scheduler(scheduler)
        .vectors(vectors)
}

/// One request's failure as it lands in the JSONL output: the message
/// plus a machine-readable kind so a caller can distinguish governance
/// aborts (deadline, budget, cancel) from numerical failures without
/// parsing prose.
struct LineError {
    kind: &'static str,
    msg: String,
}

impl LineError {
    /// A malformed input line (never reached a solver).
    fn parse(msg: String) -> LineError {
        LineError { kind: "parse", msg }
    }

    /// Classify a solver error.
    fn of(e: &Error) -> LineError {
        let kind = match e {
            Error::Cancelled => "cancelled",
            Error::DeadlineExceeded { .. } => "deadline_exceeded",
            Error::BudgetExceeded { .. } => "budget_exceeded",
            _ => "solve",
        };
        LineError {
            kind,
            msg: e.to_string(),
        }
    }

    fn is_deadline(&self) -> bool {
        self.kind == "deadline_exceeded"
    }
}

/// Fold one solved/failed request into its output line and the summary.
fn push_outcome(
    lines: &mut Vec<String>,
    summary: &mut BatchSummary,
    id: &str,
    tag: ScalarTag,
    vectors: bool,
    outcome: Result<SolvedLine, LineError>,
) {
    match outcome {
        Ok(r) => {
            summary.record(tag, Ok(!r.degraded));
            lines.push(batch_ok_line(id, tag, &r, vectors));
        }
        Err(e) => {
            summary.record(tag, Err(()));
            if e.is_deadline() {
                summary.deadline_exceeded += 1;
            }
            lines.push(batch_error_line(id, tag, &e));
        }
    }
}

/// Extract the raw value text following `"key":` in a flat JSON object
/// (no nested objects; string values must not contain escaped quotes).
/// Occurrences of the quoted key text that are not followed by `:` —
/// e.g. an `"id"` value that happens to spell a key name — are skipped.
fn json_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(pos) = line[from..].find(&needle) {
        let at = from + pos + needle.len();
        match line[at..].trim_start().strip_prefix(':') {
            None => {
                from = at;
                continue;
            }
            Some(rest) => {
                let rest = rest.trim_start();
                return if let Some(r) = rest.strip_prefix('"') {
                    r.find('"').map(|e| &r[..e])
                } else if let Some(r) = rest.strip_prefix('[') {
                    r.find(']').map(|e| &r[..e])
                } else {
                    let end = rest.find([',', '}']).unwrap_or(rest.len());
                    Some(rest[..end].trim())
                };
            }
        }
    }
    None
}

/// One parsed batch request: a real symmetric matrix (f64 compute — f32
/// requests round their entries at parse time) or a complex Hermitian
/// one at either width.
#[derive(Debug)]
enum BatchRequest {
    Real(Matrix),
    C64(CMatrix),
    C32(CMatrixG<C32>),
}

/// Parse one batch request line:
/// `{"id": ..., "scalar": ..., "n": N, "data": [...]}`.
/// `id` is optional (defaults to the 0-based line number), as is
/// `scalar` (defaults to the `--scalar` flag). The matrix is dense
/// column-major: `n * n` entries for real types, `2 * n * n` interleaved
/// re,im for complex ones. Returns the id and element type alongside the
/// matrix or a description of what is wrong with the line.
fn parse_batch_line(
    line: &str,
    lineno: usize,
    default_scalar: ScalarTag,
) -> (String, ScalarTag, Result<BatchRequest, String>) {
    let id = json_value(line, "id")
        .map(String::from)
        .unwrap_or_else(|| lineno.to_string());
    let tag = json_value(line, "scalar")
        .map(|s| ScalarTag::parse(s).ok_or_else(|| format!("bad \"scalar\" {s:?}")))
        .unwrap_or(Ok(default_scalar));
    let tag_or_default = *tag.as_ref().unwrap_or(&default_scalar);
    let req = (|| -> Result<BatchRequest, String> {
        let tag = tag?;
        let n: usize = json_value(line, "n")
            .ok_or("missing \"n\"")?
            .parse()
            .map_err(|_| "bad \"n\"".to_string())?;
        let vals = read_entries(line, "data", n, tag)?;
        Ok(match tag {
            // f32 is I/O precision: entries round through f32, the
            // solve itself runs the f64 pipeline.
            ScalarTag::F32 => {
                BatchRequest::Real(Matrix::from_fn(n, n, |i, j| vals[i + j * n] as f32 as f64))
            }
            ScalarTag::F64 => BatchRequest::Real(Matrix::from_fn(n, n, |i, j| vals[i + j * n])),
            ScalarTag::C64 => BatchRequest::C64(CMatrix::from_fn(n, n, |i, j| {
                let p = 2 * (i + j * n);
                ComplexScalar::new(vals[p], vals[p + 1])
            })),
            // C32::new rounds both components to f32; the whole solve
            // then runs at 32-bit precision.
            ScalarTag::C32 => BatchRequest::C32(CMatrixG::<C32>::from_fn(n, n, |i, j| {
                let p = 2 * (i + j * n);
                ComplexScalar::new(vals[p], vals[p + 1])
            })),
        })
    })();
    (id, tag_or_default, req)
}

/// One parsed generalized request: a `(A, B)` pencil at any of the four
/// element types.
#[derive(Debug)]
enum GenRequest {
    Real(Matrix, Matrix),
    C64(CMatrix, CMatrix),
    C32(CMatrixG<C32>, CMatrixG<C32>),
}

/// Parse a comma-separated float array (the inside of a JSON `[...]`).
fn parse_floats(data: &str) -> Result<Vec<f64>, String> {
    let mut vals = Vec::new();
    for tok in data.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        vals.push(
            tok.parse::<f64>()
                .map_err(|_| format!("bad number {tok:?}"))?,
        );
    }
    Ok(vals)
}

/// Read the dense order-`n` matrix of element type `tag` stored under
/// `key`: `n * n` entries, or `2 * n * n` interleaved re,im for complex
/// types. The count is computed with checked arithmetic and nothing sized
/// from `n` is allocated: the entries are parsed as they appear in the
/// line and only then compared with the count, so a line claiming a huge
/// `n` fails alone instead of aborting the batch on an allocation.
fn read_entries(line: &str, key: &str, n: usize, tag: ScalarTag) -> Result<Vec<f64>, String> {
    let complex = matches!(tag, ScalarTag::C32 | ScalarTag::C64);
    let expect = n
        .checked_mul(n)
        .and_then(|nn| nn.checked_mul(if complex { 2 } else { 1 }))
        .ok_or_else(|| format!("\"n\" = {n} is too large: the entry count overflows"))?;
    let vals = parse_floats(json_value(line, key).ok_or(format!("missing \"{key}\""))?)
        .map_err(|e| format!("{e} in \"{key}\""))?;
    if vals.len() != expect {
        return Err(format!(
            "\"{key}\" holds {} entries, expected {} = {} for scalar {}",
            vals.len(),
            if complex { "2*n*n" } else { "n*n" },
            expect,
            tag.name(),
        ));
    }
    Ok(vals)
}

/// Parse one `--kind gen` request line:
/// `{"id": ..., "scalar": ..., "n": N, "a": [...], "b": [...]}`.
/// Both matrices are dense column-major, `n * n` entries each for real
/// types and `2 * n * n` interleaved re,im for complex ones.
fn parse_gen_line(
    line: &str,
    lineno: usize,
    default_scalar: ScalarTag,
) -> (String, ScalarTag, Result<GenRequest, String>) {
    let id = json_value(line, "id")
        .map(String::from)
        .unwrap_or_else(|| lineno.to_string());
    let tag = json_value(line, "scalar")
        .map(|s| ScalarTag::parse(s).ok_or_else(|| format!("bad \"scalar\" {s:?}")))
        .unwrap_or(Ok(default_scalar));
    let tag_or_default = *tag.as_ref().unwrap_or(&default_scalar);
    let req = (|| -> Result<GenRequest, String> {
        let tag = tag?;
        let n: usize = json_value(line, "n")
            .ok_or("missing \"n\"")?
            .parse()
            .map_err(|_| "bad \"n\"".to_string())?;
        let av = read_entries(line, "a", n, tag)?;
        let bv = read_entries(line, "b", n, tag)?;
        Ok(match tag {
            ScalarTag::F32 => GenRequest::Real(
                Matrix::from_fn(n, n, |i, j| av[i + j * n] as f32 as f64),
                Matrix::from_fn(n, n, |i, j| bv[i + j * n] as f32 as f64),
            ),
            ScalarTag::F64 => GenRequest::Real(
                Matrix::from_fn(n, n, |i, j| av[i + j * n]),
                Matrix::from_fn(n, n, |i, j| bv[i + j * n]),
            ),
            ScalarTag::C64 => {
                let build = |v: &[f64]| {
                    CMatrix::from_fn(n, n, |i, j| {
                        let p = 2 * (i + j * n);
                        ComplexScalar::new(v[p], v[p + 1])
                    })
                };
                GenRequest::C64(build(&av), build(&bv))
            }
            ScalarTag::C32 => {
                let build = |v: &[f64]| {
                    CMatrixG::<C32>::from_fn(n, n, |i, j| {
                        let p = 2 * (i + j * n);
                        ComplexScalar::new(v[p], v[p + 1])
                    })
                };
                GenRequest::C32(build(&av), build(&bv))
            }
        })
    })();
    (id, tag_or_default, req)
}

/// Parse one `--kind svd` request line:
/// `{"id": ..., "scalar": ..., "m": M, "n": N, "data": [...]}`.
/// `m` defaults to `n` (square); the matrix is dense column-major with
/// `m * n` entries. Real-only — complex tags fail the line alone.
fn parse_svd_line(
    line: &str,
    lineno: usize,
    default_scalar: ScalarTag,
) -> (String, ScalarTag, Result<Matrix, String>) {
    let id = json_value(line, "id")
        .map(String::from)
        .unwrap_or_else(|| lineno.to_string());
    let tag = json_value(line, "scalar")
        .map(|s| ScalarTag::parse(s).ok_or_else(|| format!("bad \"scalar\" {s:?}")))
        .unwrap_or(Ok(default_scalar));
    let tag_or_default = *tag.as_ref().unwrap_or(&default_scalar);
    let req = (|| -> Result<Matrix, String> {
        let tag = tag?;
        if matches!(tag, ScalarTag::C32 | ScalarTag::C64) {
            return Err("--kind svd supports real scalars only (f32|f64)".to_string());
        }
        let n: usize = json_value(line, "n")
            .ok_or("missing \"n\"")?
            .parse()
            .map_err(|_| "bad \"n\"".to_string())?;
        let m: usize = match json_value(line, "m") {
            Some(v) => v.parse().map_err(|_| "bad \"m\"".to_string())?,
            None => n,
        };
        let expect = m
            .checked_mul(n)
            .ok_or_else(|| format!("\"m\" x \"n\" = {m} x {n} overflows the entry count"))?;
        let vals = parse_floats(json_value(line, "data").ok_or("missing \"data\"")?)
            .map_err(|e| format!("{e} in \"data\""))?;
        if vals.len() != expect {
            return Err(format!(
                "\"data\" holds {} entries, expected m*n = {expect}",
                vals.len(),
            ));
        }
        Ok(if tag == ScalarTag::F32 {
            Matrix::from_fn(m, n, |i, j| vals[i + j * m] as f32 as f64)
        } else {
            Matrix::from_fn(m, n, |i, j| vals[i + j * m])
        })
    })();
    (id, tag_or_default, req)
}

fn svd_ok_line(
    id: &str,
    tag: ScalarTag,
    svd: &tseig_svd::Svd,
    transposed: bool,
    vectors: bool,
) -> String {
    let mut s = format!(
        "{{\"id\": \"{id}\", \"scalar\": \"{}\", \"ok\": true, \"degraded\": {}, \"singular_values\": [",
        tag.name(),
        svd.diagnostics.degraded
    );
    push_json_floats(&mut s, &svd.s);
    s.push(']');
    if vectors {
        // A transposed (wide) request factored A^T = U S V^T, so the
        // input's left vectors are the factorization's right ones.
        let (u, v) = if transposed {
            (&svd.v, &svd.u)
        } else {
            (&svd.u, &svd.v)
        };
        s.push_str(", \"u\": [");
        push_json_floats(&mut s, u.as_slice());
        s.push_str("], \"v\": [");
        push_json_floats(&mut s, v.as_slice());
        s.push(']');
    }
    s.push('}');
    s
}

fn push_json_floats(out: &mut String, vals: &[f64]) {
    for (k, v) in vals.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v:.17e}"));
    }
}

/// A solved request flattened to what the output line needs, whatever
/// pipeline produced it: eigenvalues are always f64, vector data is
/// column-major (real) or column-major interleaved re,im (complex).
struct SolvedLine {
    degraded: bool,
    eigenvalues: Vec<f64>,
    vectors: Option<Vec<f64>>,
}

impl SolvedLine {
    fn real(r: &tseig_core::TwoStageResult) -> SolvedLine {
        SolvedLine {
            degraded: r.diagnostics.degraded,
            eigenvalues: r.eigenvalues.clone(),
            vectors: r.eigenvectors.as_ref().map(|z| z.as_slice().to_vec()),
        }
    }

    fn complex<T: ComplexScalar>(r: &tseig_hermitian::HermitianResult<T>) -> SolvedLine {
        SolvedLine {
            degraded: r.diagnostics.degraded,
            eigenvalues: r.eigenvalues.clone(),
            vectors: r
                .eigenvectors
                .as_ref()
                .map(|z| z.as_slice().iter().flat_map(|v| [v.re(), v.im()]).collect()),
        }
    }
}

fn batch_ok_line(id: &str, tag: ScalarTag, r: &SolvedLine, vectors: bool) -> String {
    let mut s = format!(
        "{{\"id\": \"{id}\", \"scalar\": \"{}\", \"ok\": true, \"degraded\": {}, \"eigenvalues\": [",
        tag.name(),
        r.degraded
    );
    push_json_floats(&mut s, &r.eigenvalues);
    s.push(']');
    if vectors {
        if let Some(z) = r.vectors.as_ref() {
            s.push_str(", \"eigenvectors\": [");
            push_json_floats(&mut s, z);
            s.push(']');
        }
    }
    s.push('}');
    s
}

fn batch_error_line(id: &str, tag: ScalarTag, err: &LineError) -> String {
    // The error text goes into a JSON string: strip the characters that
    // could break framing rather than implement a full escaper.
    let clean: String = err
        .msg
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' | '\r' => ' ',
            '\\' => '/',
            c => c,
        })
        .collect();
    format!(
        "{{\"id\": \"{id}\", \"scalar\": \"{}\", \"ok\": false, \"error_kind\": \"{}\", \"error\": \"{clean}\"}}",
        tag.name(),
        err.kind,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_eig_defaults() {
        let c = Cli::parse(&args("eig A.mtx")).unwrap();
        match c {
            Cli::Eig {
                path,
                nb,
                method,
                values_only,
                fraction,
                range,
                one_stage,
                vectors_out,
                verify,
                verbose,
            } => {
                assert_eq!(path, "A.mtx");
                assert_eq!(nb, 48);
                assert_eq!(method, Method::DivideAndConquer);
                assert!(!values_only && !one_stage);
                assert!(fraction.is_none() && range.is_none() && vectors_out.is_none());
                assert!(!verify && !verbose);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_eig_full() {
        let c = Cli::parse(&args(
            "eig A.mtx --nb 16 --method bisect --values-only --fraction 0.2 --one-stage --vectors-out Z.mtx --verify --verbose",
        ))
        .unwrap();
        match c {
            Cli::Eig {
                nb,
                method,
                values_only,
                fraction,
                one_stage,
                vectors_out,
                verify,
                verbose,
                ..
            } => {
                assert_eq!(nb, 16);
                assert_eq!(method, Method::BisectionInverse);
                assert!(values_only && one_stage);
                assert_eq!(fraction, Some(0.2));
                assert_eq!(vectors_out.as_deref(), Some("Z.mtx"));
                assert!(verify && verbose);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_range_and_errors() {
        let c = Cli::parse(&args("eig A.mtx --range 3:9")).unwrap();
        match c {
            Cli::Eig { range, .. } => assert_eq!(range, Some((3, 9))),
            _ => panic!(),
        }
        assert!(Cli::parse(&args("eig A.mtx --range 3-9")).is_err());
        assert!(Cli::parse(&args("frobnicate A.mtx")).is_err());
        assert!(Cli::parse(&args("eig")).is_err());
        assert!(Cli::parse(&[]).is_err());
    }

    #[test]
    fn end_to_end_eig_in_memory() {
        // Build a small symmetric mtx in memory, run `eig`, no files.
        let a = tseig_matrix::gen::symmetric_with_spectrum(
            &tseig_matrix::gen::linspace(1.0, 5.0, 12),
            3,
        );
        let mut mtx = Vec::new();
        tseig_matrix::io::write_matrix_market_symmetric(&a, &mut mtx).unwrap();
        let cli = Cli::parse(&args("eig mem.mtx --nb 4 --verify --verbose")).unwrap();
        let mtx_text = String::from_utf8(mtx).unwrap();
        run(
            &cli,
            |_| {
                Ok(std::io::BufReader::new(std::io::Cursor::new(
                    mtx_text.clone().into_bytes(),
                )))
            },
            |_| Ok::<std::io::Cursor<Vec<u8>>, String>(std::io::Cursor::new(Vec::new())),
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_svd_in_memory() {
        let a = Matrix::from_fn(8, 5, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
        let mut mtx = Vec::new();
        tseig_matrix::io::write_matrix_market(&a, &mut mtx).unwrap();
        let cli = Cli::parse(&args("svd mem.mtx --values-only")).unwrap();
        let text = String::from_utf8(mtx).unwrap();
        run(
            &cli,
            |_| {
                Ok(std::io::BufReader::new(std::io::Cursor::new(
                    text.clone().into_bytes(),
                )))
            },
            |_| Ok::<std::io::Cursor<Vec<u8>>, String>(std::io::Cursor::new(Vec::new())),
        )
        .unwrap();
    }

    #[test]
    fn parse_batch_flags() {
        let c = Cli::parse(&args(
            "batch in.jsonl -o out.jsonl --nb 8 --method qr --scheduler static:2 --threads 3 --vectors",
        ))
        .unwrap();
        match c {
            Cli::Batch {
                path,
                out,
                kind,
                nb,
                method,
                scheduler,
                threads,
                vectors,
                scalar,
                governor,
            } => {
                assert_eq!(path, "in.jsonl");
                assert_eq!(out.as_deref(), Some("out.jsonl"));
                assert_eq!(kind, BatchKind::Eig);
                assert_eq!(nb, 8);
                assert_eq!(method, Method::Qr);
                assert_eq!(scheduler, Scheduler::Static(2));
                assert_eq!(threads, 3);
                assert!(vectors);
                assert_eq!(scalar, ScalarTag::F64);
                assert_eq!(governor, BatchGovernor::default());
            }
            _ => panic!("wrong command"),
        }
        match Cli::parse(&args("batch in.jsonl --scalar c32")).unwrap() {
            Cli::Batch { scalar, .. } => assert_eq!(scalar, ScalarTag::C32),
            _ => panic!("wrong command"),
        }
        for (flag, want) in [
            ("eig", BatchKind::Eig),
            ("svd", BatchKind::Svd),
            ("gen", BatchKind::Gen),
        ] {
            match Cli::parse(&args(&format!("batch in.jsonl --kind {flag}"))).unwrap() {
                Cli::Batch { kind, .. } => assert_eq!(kind, want),
                _ => panic!("wrong command"),
            }
        }
        assert!(Cli::parse(&args("batch in.jsonl --kind lu")).is_err());
        assert!(Cli::parse(&args("batch in.jsonl --scheduler bogus:2")).is_err());
        assert!(Cli::parse(&args("batch in.jsonl --scheduler static")).is_err());
        assert!(Cli::parse(&args("batch in.jsonl --scalar f16")).is_err());
    }

    #[test]
    fn parse_governance_flags() {
        match Cli::parse(&args(
            "batch in.jsonl --deadline-ms 250 --mem-budget 1048576 --watchdog-ms 500",
        ))
        .unwrap()
        {
            Cli::Batch { governor, .. } => assert_eq!(
                governor,
                BatchGovernor {
                    deadline_ms: Some(250),
                    mem_budget: Some(1048576),
                    watchdog_ms: Some(500),
                }
            ),
            _ => panic!("wrong command"),
        }
        assert!(Cli::parse(&args("batch in.jsonl --deadline-ms fast")).is_err());
        assert!(Cli::parse(&args("batch in.jsonl --mem-budget lots")).is_err());
        assert!(Cli::parse(&args("batch in.jsonl --watchdog-ms soon")).is_err());
    }

    #[test]
    fn governed_batch_reports_structured_error_kinds() {
        // A 2x2 under a 16-byte memory budget must fail admission with
        // the machine-readable kind; an ungoverned sibling line solves.
        let jsonl = "\
{\"id\": \"a\", \"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}\n";
        let cli = Cli::parse(&args("batch mem.jsonl --nb 4 --method qr --mem-budget 16")).unwrap();
        let text = run_batch_in_memory(&cli, jsonl);
        assert!(
            text.contains("\"ok\": false") && text.contains("\"error_kind\": \"budget_exceeded\""),
            "missing structured budget error: {text}"
        );
        // Zero deadline: structured deadline_exceeded on every line.
        let cli = Cli::parse(&args("batch mem.jsonl --nb 4 --method qr --deadline-ms 0")).unwrap();
        let text = run_batch_in_memory(&cli, jsonl);
        assert!(
            text.contains("\"error_kind\": \"deadline_exceeded\""),
            "missing structured deadline error: {text}"
        );
        // Generous governance: the line solves exactly as ungoverned.
        let cli = Cli::parse(&args(
            "batch mem.jsonl --nb 4 --method qr --deadline-ms 60000 --mem-budget 104857600 --watchdog-ms 60000",
        ))
        .unwrap();
        let governed = run_batch_in_memory(&cli, jsonl);
        let cli = Cli::parse(&args("batch mem.jsonl --nb 4 --method qr")).unwrap();
        let plain = run_batch_in_memory(&cli, jsonl);
        assert_eq!(governed, plain, "governance changed a healthy result");
    }

    /// Run a batch command over an in-memory JSONL input, returning the
    /// stdout lines (no `-o`: lines print to stdout, captured here via a
    /// shared sink on the output path instead).
    fn run_batch_in_memory(cli: &Cli, jsonl: &str) -> String {
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out2 = out.clone();
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let jsonl = jsonl.as_bytes().to_vec();
        let cli = match cli {
            Cli::Batch { out, .. } if out.is_none() => {
                let mut c = cli.clone();
                if let Cli::Batch { out, .. } = &mut c {
                    *out = Some("mem.out".into());
                }
                c
            }
            _ => cli.clone(),
        };
        run(
            &cli,
            |_| Ok(std::io::BufReader::new(std::io::Cursor::new(jsonl.clone()))),
            move |_| Ok(SharedSink(out2.clone())),
        )
        .unwrap();
        let bytes = out.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn batch_line_roundtrip() {
        let (id, tag, m) = parse_batch_line(
            "{\"id\": \"r7\", \"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}",
            0,
            ScalarTag::F64,
        );
        assert_eq!((id.as_str(), tag), ("r7", ScalarTag::F64));
        match m.unwrap() {
            BatchRequest::Real(m) => assert_eq!(m[(0, 1)], 1.0),
            _ => panic!("wrong request kind"),
        }
        // Missing id falls back to the line number; bad payloads report.
        let (id, _, m) = parse_batch_line("{\"n\": 2, \"data\": [1.0]}", 4, ScalarTag::F64);
        assert_eq!(id, "4");
        assert!(m.unwrap_err().contains("expected n*n"));
        let (_, _, m) = parse_batch_line("{\"data\": [1.0]}", 0, ScalarTag::F64);
        assert!(m.unwrap_err().contains("missing"));
    }

    #[test]
    fn batch_line_scalar_types() {
        // Per-line "scalar" overrides the batch default; complex data is
        // 2*n*n interleaved re,im.
        let line = "{\"id\": \"z\", \"scalar\": \"c64\", \"n\": 2, \
                    \"data\": [2.0,0.0, 0.0,1.0, 0.0,-1.0, 2.0,0.0]}";
        let (id, tag, m) = parse_batch_line(line, 0, ScalarTag::F64);
        assert_eq!((id.as_str(), tag), ("z", ScalarTag::C64));
        match m.unwrap() {
            BatchRequest::C64(a) => {
                assert_eq!(a[(1, 0)].im, 1.0);
                assert_eq!(a[(0, 1)].im, -1.0);
            }
            _ => panic!("wrong request kind"),
        }
        // A real-length payload under a complex tag is rejected.
        let (_, tag, m) = parse_batch_line(
            "{\"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}",
            0,
            ScalarTag::C32,
        );
        assert_eq!(tag, ScalarTag::C32);
        assert!(m.unwrap_err().contains("expected 2*n*n"));
        // f32 rounds entries at parse time (I/O precision).
        let (_, tag, m) = parse_batch_line("{\"n\": 1, \"data\": [0.1]}", 0, ScalarTag::F32);
        assert_eq!(tag, ScalarTag::F32);
        match m.unwrap() {
            BatchRequest::Real(a) => assert_eq!(a[(0, 0)], 0.1f32 as f64),
            _ => panic!("wrong request kind"),
        }
        // Unknown per-line scalar fails the line alone.
        let (_, _, m) = parse_batch_line(
            "{\"scalar\": \"f16\", \"n\": 1, \"data\": [1.0]}",
            0,
            ScalarTag::F64,
        );
        assert!(m.unwrap_err().contains("bad \"scalar\""));
    }

    #[test]
    fn end_to_end_batch_in_memory() {
        // Three requests: two valid, one malformed. The malformed line
        // must fail alone while the others solve.
        let jsonl = "\
{\"id\": \"a\", \"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}\n\
{\"id\": \"broken\", \"n\": 3, \"data\": [1.0, 2.0]}\n\
{\"id\": \"b\", \"n\": 1, \"data\": [5.0]}\n";
        let cli = Cli::parse(&args("batch mem.jsonl -o out.jsonl --nb 4 --method qr")).unwrap();
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out2 = out.clone();
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        run(
            &cli,
            |_| {
                Ok(std::io::BufReader::new(std::io::Cursor::new(
                    jsonl.as_bytes().to_vec(),
                )))
            },
            move |_| Ok(SharedSink(out2.clone())),
        )
        .unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"id\": \"a\"") && lines[0].contains("\"ok\": true"));
        // [[2,1],[1,2]] -> eigenvalues {1, 3}: parse them back out.
        let vals: Vec<f64> = json_value(lines[0], "eigenvalues")
            .unwrap()
            .split(',')
            .map(|t| t.trim().parse().unwrap())
            .collect();
        assert_eq!(vals.len(), 2);
        assert!((vals[0] - 1.0).abs() < 1e-12 && (vals[1] - 3.0).abs() < 1e-12);
        assert!(lines[1].contains("\"id\": \"broken\"") && lines[1].contains("\"ok\": false"));
        assert!(lines[2].contains("\"id\": \"b\"") && lines[2].contains("5.00000000000000000e0"));
    }

    /// Run `tseig <argv>` over `jsonl` in memory; the output lines.
    fn batch_in_memory(argv: &str, jsonl: &str) -> Vec<String> {
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let cli = Cli::parse(&args(argv)).unwrap();
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = out.clone();
        let input = jsonl.as_bytes().to_vec();
        run(
            &cli,
            |_| Ok(std::io::BufReader::new(std::io::Cursor::new(input.clone()))),
            move |_| Ok(SharedSink(sink.clone())),
        )
        .unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        text.lines().map(String::from).collect()
    }

    #[test]
    fn oversized_n_fails_its_line_alone() {
        // A huge `n` with no data, an `n` whose n*n overflows, and a
        // complex `n` whose 2*n*n overflows must each fail their own slot
        // without allocating n*n entries; the neighbours still solve.
        let eig = "\
{\"id\": \"a\", \"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}\n\
{\"id\": \"huge\", \"n\": 100000, \"data\": []}\n\
{\"id\": \"overflow\", \"n\": 5000000000, \"data\": [1.0]}\n\
{\"id\": \"zover\", \"scalar\": \"c64\", \"n\": 3037000500, \"data\": []}\n\
{\"id\": \"b\", \"n\": 1, \"data\": [5.0]}\n";
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --nb 4", eig);
        assert_eq!(lines.len(), 5);
        for (line, id) in lines.iter().zip(["a", "huge", "overflow", "zover", "b"]) {
            assert!(line.contains(&format!("\"id\": \"{id}\"")), "{line}");
            let ok = matches!(id, "a" | "b");
            assert!(line.contains(&format!("\"ok\": {ok}")), "{line}");
        }
        assert!(
            lines[1].contains("expected n*n = 10000000000"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("overflows"), "{}", lines[2]);
        assert!(lines[3].contains("overflows"), "{}", lines[3]);

        let gen = "\
{\"id\": \"huge\", \"n\": 100000, \"a\": [], \"b\": []}\n\
{\"id\": \"r\", \"n\": 1, \"a\": [3.0], \"b\": [1.0]}\n\
{\"id\": \"overflow\", \"n\": 5000000000, \"a\": [], \"b\": []}\n";
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --kind gen --nb 4", gen);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\": true"), "{}", lines[1]);
        assert!(lines[2].contains("\"ok\": false") && lines[2].contains("overflows"));

        let svd = "{\"id\": \"overflow\", \"m\": 5000000000, \"n\": 5000000000, \"data\": []}\n\
{\"id\": \"s\", \"n\": 1, \"data\": [2.0]}\n";
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --kind svd", svd);
        assert!(lines[0].contains("\"ok\": false") && lines[0].contains("overflows"));
        assert!(lines[1].contains("\"ok\": true"), "{}", lines[1]);
    }

    #[test]
    fn end_to_end_mixed_type_batch() {
        // One request per element type — the same 2x2 spectrum {1, 3}
        // posed real ([[2,1],[1,2]]) and Hermitian ([[2,-i],[i,2]]) —
        // plus a c32 line with a short payload that must fail alone.
        // The --scalar default covers the untagged f32 line; the others
        // override per line.
        let jsonl = "\
{\"id\": \"d\", \"scalar\": \"f64\", \"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}\n\
{\"id\": \"s\", \"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}\n\
{\"id\": \"z\", \"scalar\": \"c64\", \"n\": 2, \"data\": [2,0, 0,1, 0,-1, 2,0]}\n\
{\"id\": \"c\", \"scalar\": \"c32\", \"n\": 2, \"data\": [2,0, 0,1, 0,-1, 2,0]}\n\
{\"id\": \"short\", \"scalar\": \"c32\", \"n\": 2, \"data\": [2,0]}\n";
        let cli = Cli::parse(&args(
            "batch mem.jsonl -o out.jsonl --nb 4 --scalar f32 --vectors",
        ))
        .unwrap();
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out2 = out.clone();
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        run(
            &cli,
            |_| {
                Ok(std::io::BufReader::new(std::io::Cursor::new(
                    jsonl.as_bytes().to_vec(),
                )))
            },
            move |_| Ok(SharedSink(out2.clone())),
        )
        .unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let spectrum = |line: &str, tol: f64| {
            let vals: Vec<f64> = json_value(line, "eigenvalues")
                .unwrap()
                .split(',')
                .map(|t| t.trim().parse().unwrap())
                .collect();
            assert_eq!(vals.len(), 2, "{line}");
            assert!(
                (vals[0] - 1.0).abs() < tol && (vals[1] - 3.0).abs() < tol,
                "{line}"
            );
        };
        for (line, id, tag, tol) in [
            (lines[0], "d", "f64", 1e-12),
            (lines[1], "s", "f32", 1e-12), // f32 I/O, f64 compute: exact inputs
            (lines[2], "z", "c64", 1e-12),
            (lines[3], "c", "c32", 1e-5),
        ] {
            assert!(line.contains(&format!("\"id\": \"{id}\"")), "{line}");
            assert!(line.contains(&format!("\"scalar\": \"{tag}\"")), "{line}");
            assert!(line.contains("\"ok\": true"), "{line}");
            spectrum(line, tol);
            // --vectors: real payloads carry n*n entries, complex 2*n*n.
            let z: Vec<&str> = json_value(line, "eigenvectors")
                .unwrap()
                .split(',')
                .collect();
            assert_eq!(z.len(), if tag.starts_with('c') { 8 } else { 4 }, "{line}");
        }
        assert!(lines[4].contains("\"id\": \"short\"") && lines[4].contains("\"ok\": false"));
        assert!(lines[4].contains("\"scalar\": \"c32\""));
    }

    #[test]
    fn end_to_end_gen_batch() {
        // A real pencil, the same spectrum posed Hermitian (both against
        // identity B -> eigenvalues {1, 3}), and an indefinite-B line
        // that must fail alone.
        let jsonl = "\
{\"id\": \"r\", \"n\": 2, \"a\": [2.0, 1.0, 1.0, 2.0], \"b\": [1.0, 0.0, 0.0, 1.0]}\n\
{\"id\": \"z\", \"scalar\": \"c64\", \"n\": 2, \"a\": [2,0, 0,1, 0,-1, 2,0], \"b\": [1,0, 0,0, 0,0, 1,0]}\n\
{\"id\": \"indef\", \"n\": 2, \"a\": [2.0, 1.0, 1.0, 2.0], \"b\": [-1.0, 0.0, 0.0, 1.0]}\n";
        let cli = Cli::parse(&args("batch mem.jsonl -o out.jsonl --kind gen --nb 4")).unwrap();
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out2 = out.clone();
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        run(
            &cli,
            |_| {
                Ok(std::io::BufReader::new(std::io::Cursor::new(
                    jsonl.as_bytes().to_vec(),
                )))
            },
            move |_| Ok(SharedSink(out2.clone())),
        )
        .unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (line, id, tag) in [(lines[0], "r", "f64"), (lines[1], "z", "c64")] {
            assert!(line.contains(&format!("\"id\": \"{id}\"")), "{line}");
            assert!(line.contains(&format!("\"scalar\": \"{tag}\"")), "{line}");
            assert!(line.contains("\"ok\": true"), "{line}");
            let vals: Vec<f64> = json_value(line, "eigenvalues")
                .unwrap()
                .split(',')
                .map(|t| t.trim().parse().unwrap())
                .collect();
            assert_eq!(vals.len(), 2, "{line}");
            assert!(
                (vals[0] - 1.0).abs() < 1e-10 && (vals[1] - 3.0).abs() < 1e-10,
                "{line}"
            );
        }
        assert!(lines[2].contains("\"id\": \"indef\"") && lines[2].contains("\"ok\": false"));
        assert!(lines[2].contains("positive definite"), "{}", lines[2]);
    }

    #[test]
    fn end_to_end_svd_batch() {
        // A square diagonal (singular values {4, 3}), a wide request
        // (factored via its transpose), and a complex tag that the
        // real-only svd kind must reject alone.
        let jsonl = "\
{\"id\": \"sq\", \"n\": 2, \"data\": [3.0, 0.0, 0.0, 4.0]}\n\
{\"id\": \"wide\", \"m\": 2, \"n\": 3, \"data\": [3.0, 0.0, 0.0, 4.0, 0.0, 0.0]}\n\
{\"id\": \"cplx\", \"scalar\": \"c64\", \"n\": 2, \"data\": [1,0, 0,0, 0,0, 1,0]}\n";
        let cli = Cli::parse(&args(
            "batch mem.jsonl -o out.jsonl --kind svd --nb 4 --vectors",
        ))
        .unwrap();
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out2 = out.clone();
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        run(
            &cli,
            |_| {
                Ok(std::io::BufReader::new(std::io::Cursor::new(
                    jsonl.as_bytes().to_vec(),
                )))
            },
            move |_| Ok(SharedSink(out2.clone())),
        )
        .unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (line, id, ucount) in [(lines[0], "sq", 4), (lines[1], "wide", 4)] {
            assert!(line.contains(&format!("\"id\": \"{id}\"")), "{line}");
            assert!(line.contains("\"ok\": true"), "{line}");
            let vals: Vec<f64> = json_value(line, "singular_values")
                .unwrap()
                .split(',')
                .map(|t| t.trim().parse().unwrap())
                .collect();
            assert_eq!(vals.len(), 2, "{line}");
            assert!(
                (vals[0] - 4.0).abs() < 1e-12 && (vals[1] - 3.0).abs() < 1e-12,
                "{line}"
            );
            // --vectors: "u" carries m*k entries (k = min(m, n) = 2).
            let u: Vec<&str> = json_value(line, "u").unwrap().split(',').collect();
            assert_eq!(u.len(), ucount, "{line}");
        }
        assert!(lines[2].contains("\"id\": \"cplx\"") && lines[2].contains("\"ok\": false"));
        assert!(lines[2].contains("real scalars only"), "{}", lines[2]);
    }

    #[test]
    fn gen_line_parsing() {
        // Ids spelling key names must not confuse the flat extractor.
        let (id, tag, req) = parse_gen_line(
            "{\"id\": \"a\", \"n\": 1, \"a\": [2.0], \"b\": [1.0]}",
            0,
            ScalarTag::F64,
        );
        assert_eq!((id.as_str(), tag), ("a", ScalarTag::F64));
        match req.unwrap() {
            GenRequest::Real(a, b) => {
                assert_eq!(a[(0, 0)], 2.0);
                assert_eq!(b[(0, 0)], 1.0);
            }
            _ => panic!("wrong request kind"),
        }
        let (_, _, req) = parse_gen_line("{\"n\": 2, \"a\": [1.0]}", 0, ScalarTag::F64);
        let e = req.unwrap_err();
        assert!(e.contains("\"a\"") && e.contains("expected n*n"), "{e}");
        let (_, _, req) = parse_gen_line("{\"n\": 1, \"a\": [1.0]}", 0, ScalarTag::F64);
        assert!(req.unwrap_err().contains("missing \"b\""));
    }

    #[test]
    fn info_rejects_missing_file_gracefully() {
        let cli = Cli::parse(&args("info nope.mtx")).unwrap();
        let r = run(
            &cli,
            |p| {
                Err::<std::io::BufReader<std::io::Cursor<Vec<u8>>>, String>(format!(
                    "cannot open {p}"
                ))
            },
            |_| Err::<std::io::Cursor<Vec<u8>>, String>("no".into()),
        );
        assert!(r.is_err());
    }
}
