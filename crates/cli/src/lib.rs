//! Library backing the `tseig` binary (kept as a lib so the argument
//! parsing and command logic are unit-testable).

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::time::Duration;
use tseig_core::{
    solve_generalized_with_plan, BatchDriver, BatchSummary, GenPlan, ScalarTag, Scheduler,
    SolvePlan, SymmetricEigen, TwoStageResult, VerifyLevel,
};
use tseig_hermitian::{HermitianEigen, HermitianResult};
use tseig_matrix::{
    io as mmio, norms, CMatrix, CMatrixG, ComplexScalar, Ctrl, Error, Matrix, MemBudget, C32, C64,
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
            let t0 = std::time::Instant::now();
            let mut lines = Vec::new();
            for (k, line) in open(path)?.lines().enumerate() {
                let line = line.map_err(|e| e.to_string())?;
                if !line.trim().is_empty() {
                    lines.push((k, line));
                }
            }
            let eigen = SymmetricEigen::new()
                .nb(*nb)
                .method(*method)
                .scheduler(*scheduler)
                .vectors(*vectors);
            let herm = HermitianEigen::new()
                .nb(*nb)
                .method(*method)
                .scheduler(*scheduler)
                .vectors(*vectors);
            let driver =
                governed_driver(BatchDriver::new(eigen.clone()).threads(*threads), *governor);
            let default = *scalar;
            let (done, events) = match kind {
                BatchKind::Eig => driver.pool_map(
                    &lines,
                    SolvePlan::new,
                    |(_, l)| parse_batch_line(l, default, |n| driver.admit(n)),
                    |req, plan, ctrl| solve_eig(req, plan, ctrl, &eigen, &herm),
                    |l, r| finish_eig(l, default, r),
                ),
                BatchKind::Gen => driver.pool_map(
                    &lines,
                    GenPlan::new,
                    |(_, l)| parse_gen_line(l, default, |n| driver.admit(n)),
                    |req, plan, ctrl| solve_gen(req, plan, ctrl, &eigen, &herm),
                    |l, r| finish_eig(l, default, r),
                ),
                BatchKind::Svd => {
                    let gesvd = tseig_svd::GeSvd::new()
                        .nb((*nb).max(2))
                        .scheduler(*scheduler)
                        .vectors(*vectors);
                    let admit = |m, n| match governor.mem_budget {
                        Some(b) => MemBudget::bytes(b).admit(gesvd.plan_req(m, n).total_bytes()),
                        None => Ok(()),
                    };
                    driver.pool_map(
                        &lines,
                        tseig_svd::SvdPlan::new,
                        |(_, l)| parse_svd_line(l, default, admit),
                        |(a, transposed), plan, ctrl| {
                            let svd = gesvd.clone().ctrl(ctrl.clone()).solve_with_plan(&a, plan)?;
                            Ok((svd, transposed))
                        },
                        |l, r| finish_svd(l, default, *vectors, r),
                    )
                }
            };
            let mut summary = BatchSummary::default().with_events(events);
            for d in &done {
                summary.record(d.tag, d.outcome.map_err(|_| ()));
                if d.outcome == Err("deadline_exceeded") {
                    summary.deadline_exceeded += 1;
                }
            }
            let lines = done.into_iter().map(|d| d.text);
            let wall = t0.elapsed();
            summary.wall = wall;
            match out {
                Some(p) => {
                    let mut w = create(p)?;
                    for l in lines {
                        writeln!(w, "{l}").map_err(|e| e.to_string())?;
                    }
                }
                None => {
                    for l in lines {
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

/// One `tseig batch` input line: its 0-based line number (the default
/// id) and its text.
type Line = (usize, String);

/// One finished output line and what the summary counts of it.
struct Done {
    text: String,
    tag: ScalarTag,
    /// `Ok(clean)`, or the failure's `error_kind`.
    outcome: Result<bool, &'static str>,
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

/// One request's failure as it lands in the JSONL output: the message
/// plus a machine-readable kind so a caller can distinguish governance
/// aborts (deadline, budget, cancel) from numerical failures without
/// parsing prose.
struct LineError {
    kind: &'static str,
    msg: String,
}

impl From<String> for LineError {
    /// A malformed input line (never reached a solver).
    fn from(msg: String) -> LineError {
        LineError { kind: "parse", msg }
    }
}

impl From<Error> for LineError {
    /// Classify a solver, admission or governance error.
    fn from(e: Error) -> LineError {
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
}

/// Extract the raw value text following `"key":` in a flat JSON object
/// (no nested objects). A string value ends at the first quote no
/// backslash escapes, and comes back with its escapes as written.
/// Occurrences of the quoted key text that are not followed by `:` —
/// e.g. an `"id"` value that happens to spell a key name — are skipped.
fn json_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = key_occurrences(line, key).next()?;
    if let Some(r) = rest.strip_prefix('"') {
        let mut escaped = false;
        r.bytes()
            .position(|c| {
                let close = c == b'"' && !escaped;
                escaped = c == b'\\' && !escaped;
                close
            })
            .map(|e| &r[..e])
    } else if let Some(r) = rest.strip_prefix('[') {
        r.find(']').map(|e| &r[..e])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// The text after each `"key":` of a flat JSON object, in line order
/// (quoted key text not followed by `:` is a value, not the key).
fn key_occurrences<'a>(line: &'a str, key: &str) -> impl Iterator<Item = &'a str> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(pos) = line[from..].find(&needle) {
            let at = from + pos + needle.len();
            from = at;
            if let Some(rest) = line[at..].trim_start().strip_prefix(':') {
                return Some(rest.trim_start());
            }
        }
        None
    })
}

/// Fail a request line that repeats one of the request keys: a flat
/// extractor would silently pick the first copy.
fn reject_duplicate_keys(line: &str) -> Result<(), String> {
    for key in ["id", "scalar", "n", "m", "data", "a", "b"] {
        if key_occurrences(line, key).nth(1).is_some() {
            return Err(format!("duplicate key \"{key}\""));
        }
    }
    Ok(())
}

/// The element type of one line: its `"scalar"` key, else the
/// `--scalar` default.
fn line_scalar(line: &str, default: ScalarTag) -> Result<ScalarTag, String> {
    match json_value(line, "scalar") {
        Some(s) => ScalarTag::parse(s).ok_or_else(|| format!("bad \"scalar\" {s:?}")),
        None => Ok(default),
    }
}

/// An optional dimension key (`"n"`, `"m"`).
fn read_dim(line: &str, key: &str) -> Result<Option<usize>, String> {
    json_value(line, key)
        .map(|v| v.parse().map_err(|_| format!("bad \"{key}\"")))
        .transpose()
}

/// The required order `"n"`.
fn read_n(line: &str) -> Result<usize, String> {
    read_dim(line, "n")?.ok_or_else(|| "missing \"n\"".to_string())
}

fn is_complex(tag: ScalarTag) -> bool {
    matches!(tag, ScalarTag::C32 | ScalarTag::C64)
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

/// One parsed generalized request: a `(A, B)` pencil at any of the four
/// element types.
#[derive(Debug)]
enum GenRequest {
    Real(Matrix, Matrix),
    C64(CMatrix, CMatrix),
    C32(CMatrixG<C32>, CMatrixG<C32>),
}

/// What every eig and gen line is checked for before any entry is
/// parsed: no repeated key, a known element type, an order `n`, and an
/// entry count per matrix (`n * n`, or `2 * n * n` interleaved re,im for
/// complex types) computed with checked arithmetic, so a line claiming a
/// huge `n` fails alone. A real request's `n` must then pass `admit`;
/// complex requests are not admitted (there is no Hermitian plan to
/// size).
fn request_shape(
    line: &str,
    default_scalar: ScalarTag,
    admit: impl Fn(usize) -> tseig_matrix::Result<()>,
) -> Result<(ScalarTag, usize, usize), LineError> {
    reject_duplicate_keys(line)?;
    let tag = line_scalar(line, default_scalar)?;
    let n = read_n(line)?;
    let expect = n
        .checked_mul(n)
        .and_then(|nn| nn.checked_mul(if is_complex(tag) { 2 } else { 1 }))
        .ok_or_else(|| format!("\"n\" = {n} is too large: the entry count overflows"))?;
    if !is_complex(tag) {
        admit(n)?;
    }
    Ok((tag, n, expect))
}

/// Parse one `--kind eig` request line:
/// `{"id": ..., "scalar": ..., "n": N, "data": [...]}`.
/// `id` is optional (defaults to the 0-based line number), as is
/// `scalar` (defaults to the `--scalar` flag). The matrix is dense
/// column-major, and is parsed only once [`request_shape`] passes.
fn parse_batch_line(
    line: &str,
    default_scalar: ScalarTag,
    admit: impl Fn(usize) -> tseig_matrix::Result<()>,
) -> Result<BatchRequest, LineError> {
    let (tag, n, expect) = request_shape(line, default_scalar, admit)?;
    let vals = read_entries(line, "data", expect, tag)?;
    Ok(match tag {
        ScalarTag::F32 | ScalarTag::F64 => BatchRequest::Real(real_matrix(n, n, vals, tag)?),
        ScalarTag::C64 => BatchRequest::C64(complex_matrix(n, &vals)),
        ScalarTag::C32 => BatchRequest::C32(complex_matrix(n, &vals)),
    })
}

/// Parse one `--kind gen` request line:
/// `{"id": ..., "scalar": ..., "n": N, "a": [...], "b": [...]}`.
/// Both matrices are dense column-major, and are parsed only once
/// [`request_shape`] passes.
fn parse_gen_line(
    line: &str,
    default_scalar: ScalarTag,
    admit: impl Fn(usize) -> tseig_matrix::Result<()>,
) -> Result<GenRequest, LineError> {
    let (tag, n, expect) = request_shape(line, default_scalar, admit)?;
    let av = read_entries(line, "a", expect, tag)?;
    let bv = read_entries(line, "b", expect, tag)?;
    Ok(match tag {
        ScalarTag::F32 | ScalarTag::F64 => {
            GenRequest::Real(real_matrix(n, n, av, tag)?, real_matrix(n, n, bv, tag)?)
        }
        ScalarTag::C64 => GenRequest::C64(complex_matrix(n, &av), complex_matrix(n, &bv)),
        ScalarTag::C32 => GenRequest::C32(complex_matrix(n, &av), complex_matrix(n, &bv)),
    })
}

/// Parse one `--kind svd` request line:
/// `{"id": ..., "scalar": ..., "m": M, "n": N, "data": [...]}`.
/// `m` defaults to `n` (square); the matrix is dense column-major with
/// `m * n` entries. Real-only — complex tags fail the line alone. The
/// shape passes `admit` (rows, cols of the tall-or-square working
/// matrix) before the data array is parsed. Returns that working matrix
/// and whether it is the input's transpose.
fn parse_svd_line(
    line: &str,
    default_scalar: ScalarTag,
    admit: impl Fn(usize, usize) -> tseig_matrix::Result<()>,
) -> Result<(Matrix, bool), LineError> {
    reject_duplicate_keys(line)?;
    let tag = line_scalar(line, default_scalar)?;
    if is_complex(tag) {
        return Err("--kind svd supports real scalars only (f32|f64)"
            .to_string()
            .into());
    }
    let n = read_n(line)?;
    let m = read_dim(line, "m")?.unwrap_or(n);
    let expect = m
        .checked_mul(n)
        .ok_or_else(|| format!("\"m\" x \"n\" = {m} x {n} overflows the entry count"))?;
    admit(m.max(n), m.min(n))?;
    let data = json_value(line, "data").ok_or_else(|| "missing \"data\"".to_string())?;
    let vals = parse_floats(data, expect).map_err(|e| format!("{e} in \"data\""))?;
    if vals.len() != expect {
        return Err(format!(
            "\"data\" holds {} entries, expected m*n = {expect}",
            vals.len()
        )
        .into());
    }
    let a = real_matrix(m, n, vals, tag)?;
    Ok(if m < n {
        (a.transpose(), true)
    } else {
        (a, false)
    })
}

/// Parse a comma-separated float array (the inside of a JSON `[...]`)
/// that should hold `expect` entries. The empty array is valid; an
/// empty element (`[1,,2]`, `[1,2,]`) is not. Capacity is reserved for
/// `expect` entries but never more than the text can hold (an entry
/// takes at least two bytes with its comma), so a line claiming a huge
/// count allocates nothing sized from it.
fn parse_floats(data: &str, expect: usize) -> Result<Vec<f64>, String> {
    let mut vals = Vec::with_capacity(expect.min(data.len() / 2 + 1));
    if data.trim().is_empty() {
        return Ok(vals);
    }
    for tok in data.split(',') {
        match tok.trim() {
            "" => return Err("empty array element".to_string()),
            tok => vals.push(tok.parse().map_err(|_| format!("bad number {tok:?}"))?),
        }
    }
    Ok(vals)
}

/// Read the `expect` entries of element type `tag` stored under `key`;
/// the count is compared once the entries are parsed.
fn read_entries(line: &str, key: &str, expect: usize, tag: ScalarTag) -> Result<Vec<f64>, String> {
    let data = json_value(line, key).ok_or(format!("missing \"{key}\""))?;
    let vals = parse_floats(data, expect).map_err(|e| format!("{e} in \"{key}\""))?;
    if vals.len() != expect {
        return Err(format!(
            "\"{key}\" holds {} entries, expected {} = {} for scalar {}",
            vals.len(),
            if is_complex(tag) { "2*n*n" } else { "n*n" },
            expect,
            tag.name(),
        ));
    }
    Ok(vals)
}

/// The real `rows x cols` matrix over column-major `vals`. f32 is I/O
/// precision: its entries round through f32, and the solve itself runs
/// the f64 pipeline.
fn real_matrix(
    rows: usize,
    cols: usize,
    mut vals: Vec<f64>,
    tag: ScalarTag,
) -> tseig_matrix::Result<Matrix> {
    if tag == ScalarTag::F32 {
        for v in &mut vals {
            *v = *v as f32 as f64;
        }
    }
    Matrix::from_col_major(rows, cols, vals)
}

/// The order-`n` complex matrix over column-major interleaved re,im
/// `vals`. `C32::new` rounds both components, and a c32 solve then runs
/// at 32-bit precision throughout.
fn complex_matrix<T: ComplexScalar>(n: usize, vals: &[f64]) -> CMatrixG<T> {
    CMatrixG::from_fn(n, n, |i, j| {
        let p = 2 * (i + j * n);
        T::new(vals[p], vals[p + 1])
    })
}

/// A solved eig or gen request, from whichever pipeline its element
/// type runs.
enum Solved {
    Real(TwoStageResult),
    C64(HermitianResult<C64>),
    C32(HermitianResult<C32>),
}

/// Solve one `--kind eig` request under the pool's `ctrl`: a real one
/// in the worker's plan, a complex one through the Hermitian pipeline.
fn solve_eig(
    req: BatchRequest,
    plan: &mut SolvePlan,
    ctrl: &Ctrl,
    eigen: &SymmetricEigen,
    herm: &HermitianEigen,
) -> Result<Solved, LineError> {
    let herm = || herm.clone().ctrl(ctrl.clone());
    Ok(match req {
        BatchRequest::Real(a) => {
            eigen.clone().ctrl(ctrl.clone()).solve_into(&a, plan)?;
            Solved::Real(plan.take_result())
        }
        BatchRequest::C64(a) => Solved::C64(herm().solve(&a)?),
        BatchRequest::C32(a) => Solved::C32(herm().solve(&a)?),
    })
}

/// Solve one `--kind gen` pencil under the pool's `ctrl`: a real one in
/// the worker's plan, a complex one through the Hermitian-definite
/// driver.
fn solve_gen(
    req: GenRequest,
    plan: &mut GenPlan,
    ctrl: &Ctrl,
    eigen: &SymmetricEigen,
    herm: &HermitianEigen,
) -> Result<Solved, LineError> {
    use tseig_hermitian::generalized::solve_generalized;
    let herm = || herm.clone().ctrl(ctrl.clone());
    Ok(match req {
        GenRequest::Real(a, b) => Solved::Real(solve_generalized_with_plan(
            &a,
            &b,
            &eigen.clone().ctrl(ctrl.clone()),
            plan,
        )?),
        GenRequest::C64(a, b) => Solved::C64(solve_generalized(&a, &b, &herm())?),
        GenRequest::C32(a, b) => Solved::C32(solve_generalized(&a, &b, &herm())?),
    })
}

/// The output line of one eig or gen request.
fn finish_eig(line: &Line, default: ScalarTag, r: Result<Solved, LineError>) -> Done {
    let tag = line_scalar(&line.1, default).unwrap_or(default);
    let ok = r.map(|solved| match &solved {
        Solved::Real(x) => eig_line(
            line,
            tag,
            x.diagnostics.degraded,
            &x.eigenvalues,
            x.eigenvectors.as_ref().map(Matrix::as_slice),
        ),
        Solved::C64(x) => eig_line(
            line,
            tag,
            x.diagnostics.degraded,
            &x.eigenvalues,
            x.eigenvectors.as_ref().map(CMatrixG::as_slice),
        ),
        Solved::C32(x) => eig_line(
            line,
            tag,
            x.diagnostics.degraded,
            &x.eigenvalues,
            x.eigenvectors.as_ref().map(CMatrixG::as_slice),
        ),
    });
    finished(line, tag, ok)
}

/// The output line of one `--kind svd` request.
fn finish_svd(
    line: &Line,
    default: ScalarTag,
    vectors: bool,
    r: Result<(tseig_svd::Svd, bool), LineError>,
) -> Done {
    let tag = line_scalar(&line.1, default).unwrap_or(default);
    let ok = r.map(|(svd, transposed)| {
        let degraded = svd.diagnostics.degraded;
        // A transposed (wide) request factored A^T = U S V^T, so the
        // input's left vectors are the factorization's right ones.
        let (u, v) = if transposed {
            (&svd.v, &svd.u)
        } else {
            (&svd.u, &svd.v)
        };
        let uv = if vectors {
            u.as_slice().len() + v.as_slice().len()
        } else {
            0
        };
        let mut s = line_start(line, tag, true, svd.s.len() + uv);
        let _ = write!(s, ", \"degraded\": {degraded}");
        push_json_floats(&mut s, "singular_values", svd.s.iter().copied());
        if vectors {
            push_json_floats(&mut s, "u", u.as_slice().iter().copied());
            push_json_floats(&mut s, "v", v.as_slice().iter().copied());
        }
        s.push('}');
        (degraded, s)
    });
    finished(line, tag, ok)
}

/// A finished line from its `(degraded, text)` ok line or its failure.
fn finished(line: &Line, tag: ScalarTag, r: Result<(bool, String), LineError>) -> Done {
    match r {
        Ok((degraded, text)) => Done {
            text,
            tag,
            outcome: Ok(!degraded),
        },
        Err(e) => Done {
            text: error_line(line, tag, &e),
            tag,
            outcome: Err(e.kind),
        },
    }
}

/// `{"id": "<id>", "scalar": "<tag>", "ok": <ok>`, with room reserved
/// for `floats` more values so the line is written without regrowing.
fn line_start(line: &Line, tag: ScalarTag, ok: bool, floats: usize) -> String {
    let (k, text) = line;
    let id = json_value(text, "id");
    // One `{:.17e}` value and its comma take at most 26 bytes.
    let mut s = String::with_capacity(128 + id.map_or(20, str::len) + 26 * floats);
    s.push_str("{\"id\": \"");
    match id {
        Some(id) => s.push_str(id),
        None => {
            let _ = write!(s, "{k}");
        }
    }
    let _ = write!(s, "\", \"scalar\": \"{}\", \"ok\": {ok}", tag.name());
    s
}

/// The ok line of an eig or gen result: its eigenvalues, then its
/// eigenvectors when solved for (column-major; complex entries as
/// interleaved re,im).
fn eig_line<T: ComplexScalar>(
    line: &Line,
    tag: ScalarTag,
    degraded: bool,
    values: &[f64],
    vectors: Option<&[T]>,
) -> (bool, String) {
    let per = if T::IS_COMPLEX { 2 } else { 1 };
    let mut s = line_start(
        line,
        tag,
        true,
        values.len() + vectors.map_or(0, |z| per * z.len()),
    );
    let _ = write!(s, ", \"degraded\": {degraded}");
    push_json_floats(&mut s, "eigenvalues", values.iter().copied());
    match vectors {
        Some(z) if T::IS_COMPLEX => push_json_floats(
            &mut s,
            "eigenvectors",
            z.iter().flat_map(|v| [v.re(), v.im()]),
        ),
        Some(z) => push_json_floats(&mut s, "eigenvectors", z.iter().map(|v| v.re())),
        None => {}
    }
    s.push('}');
    (degraded, s)
}

/// Append `, "key": [v0,v1,...]`, each value as `{:.17e}` written in
/// place.
fn push_json_floats(out: &mut String, key: &str, vals: impl IntoIterator<Item = f64>) {
    let _ = write!(out, ", \"{key}\": [");
    for (k, v) in vals.into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v:.17e}");
    }
    out.push(']');
}

fn error_line(line: &Line, tag: ScalarTag, err: &LineError) -> String {
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
    let mut s = line_start(line, tag, false, 0);
    let _ = write!(
        s,
        ", \"error_kind\": \"{}\", \"error\": \"{clean}\"}}",
        err.kind
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The id and element type a line's output echoes (`lineno` stands
    /// in for a missing id), and the request or parse error, unadmitted.
    fn parse_eig(
        line: &str,
        lineno: usize,
        scalar: ScalarTag,
    ) -> (String, ScalarTag, Result<BatchRequest, String>) {
        let id = json_value(line, "id").map_or_else(|| lineno.to_string(), String::from);
        let tag = line_scalar(line, scalar).unwrap_or(scalar);
        (
            id,
            tag,
            parse_batch_line(line, scalar, |_| Ok(())).map_err(|e| e.msg),
        )
    }

    /// [`parse_eig`] for a `--kind gen` line.
    fn parse_gen(
        line: &str,
        lineno: usize,
        scalar: ScalarTag,
    ) -> (String, ScalarTag, Result<GenRequest, String>) {
        let id = json_value(line, "id").map_or_else(|| lineno.to_string(), String::from);
        let tag = line_scalar(line, scalar).unwrap_or(scalar);
        (
            id,
            tag,
            parse_gen_line(line, scalar, |_| Ok(())).map_err(|e| e.msg),
        )
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
        let (id, tag, m) = parse_eig(
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
        let (id, _, m) = parse_eig("{\"n\": 2, \"data\": [1.0]}", 4, ScalarTag::F64);
        assert_eq!(id, "4");
        assert!(m.unwrap_err().contains("expected n*n"));
        let (_, _, m) = parse_eig("{\"data\": [1.0]}", 0, ScalarTag::F64);
        assert!(m.unwrap_err().contains("missing"));
    }

    #[test]
    fn batch_line_scalar_types() {
        // Per-line "scalar" overrides the batch default; complex data is
        // 2*n*n interleaved re,im.
        let line = "{\"id\": \"z\", \"scalar\": \"c64\", \"n\": 2, \
                    \"data\": [2.0,0.0, 0.0,1.0, 0.0,-1.0, 2.0,0.0]}";
        let (id, tag, m) = parse_eig(line, 0, ScalarTag::F64);
        assert_eq!((id.as_str(), tag), ("z", ScalarTag::C64));
        match m.unwrap() {
            BatchRequest::C64(a) => {
                assert_eq!(a[(1, 0)].im, 1.0);
                assert_eq!(a[(0, 1)].im, -1.0);
            }
            _ => panic!("wrong request kind"),
        }
        // A real-length payload under a complex tag is rejected.
        let (_, tag, m) = parse_eig(
            "{\"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}",
            0,
            ScalarTag::C32,
        );
        assert_eq!(tag, ScalarTag::C32);
        assert!(m.unwrap_err().contains("expected 2*n*n"));
        // f32 rounds entries at parse time (I/O precision).
        let (_, tag, m) = parse_eig("{\"n\": 1, \"data\": [0.1]}", 0, ScalarTag::F32);
        assert_eq!(tag, ScalarTag::F32);
        match m.unwrap() {
            BatchRequest::Real(a) => assert_eq!(a[(0, 0)], 0.1f32 as f64),
            _ => panic!("wrong request kind"),
        }
        // Unknown per-line scalar fails the line alone.
        let (_, _, m) = parse_eig(
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
    fn empty_array_elements_fail_their_line() {
        // An empty element (inside or trailing) is a parse error, not a
        // skipped entry: each of these would otherwise solve as the 2x2
        // [[2,1],[1,3]]. The empty array stays valid for n = 0.
        let eig = r#"{"id": "inner", "n": 2, "data": [2,,1,1,3]}
{"id": "trailing", "n": 2, "data": [2,1,1,3,]}
{"id": "lead", "n": 2, "data": [,2,1,1,3]}
{"id": "empty", "n": 0, "data": []}
{"id": "ok", "n": 2, "data": [2,1,1,3]}
"#;
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --nb 4", eig);
        assert_eq!(lines.len(), 5);
        for line in &lines[..3] {
            assert!(line.contains("\"ok\": false"), "{line}");
            assert!(line.contains("\"error_kind\": \"parse\""), "{line}");
            assert!(line.contains("empty array element"), "{line}");
        }
        assert!(lines[3].contains("\"ok\": true"), "{}", lines[3]);
        assert!(lines[4].contains("\"ok\": true"), "{}", lines[4]);

        let gen = r#"{"id": "a", "n": 1, "a": [2,], "b": [1]}
{"id": "b", "n": 1, "a": [2], "b": [,1]}
"#;
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --kind gen --nb 4", gen);
        for line in &lines {
            assert!(line.contains("\"error_kind\": \"parse\""), "{line}");
            assert!(line.contains("empty array element"), "{line}");
        }
        let svd = "{\"id\": \"s\", \"m\": 2, \"n\": 1, \"data\": [1,,2]}\n";
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --kind svd", svd);
        assert!(
            lines[0].contains("\"error_kind\": \"parse\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("empty array element"), "{}", lines[0]);
    }

    #[test]
    fn duplicate_keys_fail_their_line() {
        // The flat extractor returns the first copy of a key, so a
        // repeated key must fail the line instead of solving n = 2.
        let eig = r#"{"id": "dup_n", "n": 2, "n": 3, "data": [2,1,1,3]}
{"id": "x", "id": "y", "n": 1, "data": [1]}
{"id": "dup_data", "n": 1, "data": [1], "data": [2]}
{"id": "dup_scalar", "scalar": "f64", "scalar": "f32", "n": 1, "data": [1]}
{"id": "n", "n": 1, "data": [4]}
"#;
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --nb 4", eig);
        assert_eq!(lines.len(), 5);
        for (line, key) in lines.iter().zip(["n", "id", "data", "scalar"]) {
            assert!(line.contains("\"error_kind\": \"parse\""), "{line}");
            assert!(line.contains(&format!("duplicate key '{key}'")), "{line}");
        }
        // A value that spells a key name is not a second key.
        assert!(lines[4].contains("\"id\": \"n\"") && lines[4].contains("\"ok\": true"));

        for (kind, line, key) in [
            ("gen", "{\"n\": 1, \"a\": [2], \"b\": [1], \"a\": [3]}", "a"),
            ("gen", "{\"n\": 1, \"a\": [2], \"b\": [1], \"b\": [1]}", "b"),
            ("svd", "{\"m\": 1, \"m\": 2, \"n\": 1, \"data\": [1]}", "m"),
        ] {
            let lines =
                batch_in_memory(&format!("batch mem.jsonl -o out.jsonl --kind {kind}"), line);
            assert!(
                lines[0].contains("\"error_kind\": \"parse\""),
                "{}",
                lines[0]
            );
            assert!(
                lines[0].contains(&format!("duplicate key '{key}'")),
                "{}",
                lines[0]
            );
        }
        let (id, _, req) = parse_gen(
            "{\"id\": \"b\", \"n\": 1, \"a\": [2], \"b\": [1]}",
            0,
            ScalarTag::F64,
        );
        assert_eq!(id, "b");
        assert!(req.is_ok());
    }

    #[test]
    fn gen_line_parsing() {
        // Ids spelling key names must not confuse the flat extractor.
        let (id, tag, req) = parse_gen(
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
        let (_, _, req) = parse_gen("{\"n\": 2, \"a\": [1.0]}", 0, ScalarTag::F64);
        let e = req.unwrap_err();
        assert!(e.contains("\"a\"") && e.contains("expected n*n"), "{e}");
        let (_, _, req) = parse_gen("{\"n\": 1, \"a\": [1.0]}", 0, ScalarTag::F64);
        assert!(req.unwrap_err().contains("missing \"b\""));
    }

    #[test]
    fn escaped_quote_in_id_stays_valid_json() {
        // The id ends at the first unescaped quote and is echoed with its
        // escape as written; the sibling line still solves.
        let jsonl = r#"{"id": "a\"b", "n": 1, "data": [2.0]}
{"id": "c", "n": 1, "data": [3.0]}
"#;
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl", jsonl);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains(r#""id": "a\"b", "scalar""#),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"ok\": true"), "{}", lines[0]);
        assert!(lines[1].contains("\"id\": \"c\"") && lines[1].contains("\"ok\": true"));
    }

    #[test]
    fn admission_runs_before_the_data_array_is_parsed() {
        // An over-budget real request fails admission on its declared
        // shape, so its malformed data array is never read; a complex
        // request has no plan to size and reports the parse error.
        let eig = r#"{"id": "big", "n": 64, "data": [1,,2]}
{"id": "zbig", "scalar": "c64", "n": 64, "data": [1,,2]}
{"id": "ok", "n": 1, "data": [2]}
"#;
        let lines = batch_in_memory("batch mem.jsonl -o out.jsonl --mem-budget 4096", eig);
        assert!(
            lines[0].contains("\"error_kind\": \"budget_exceeded\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"error_kind\": \"parse\""),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"ok\": true"), "{}", lines[2]);
        for (kind, line) in [
            ("gen", r#"{"id": "big", "n": 64, "a": [1,,2], "b": []}"#),
            ("svd", r#"{"id": "big", "m": 64, "n": 64, "data": [1,,2]}"#),
        ] {
            let argv = format!("batch mem.jsonl -o out.jsonl --kind {kind} --mem-budget 4096");
            let lines = batch_in_memory(&argv, line);
            assert!(
                lines[0].contains("\"error_kind\": \"budget_exceeded\""),
                "{kind}: {}",
                lines[0]
            );
        }
    }

    /// A JSONL array of the order-`n` test matrix of element type `tag`:
    /// symmetric (Hermitian) with a dominant diagonal, shifted by `seed`.
    fn test_matrix(n: usize, tag: &str, seed: usize) -> String {
        let mut v = Vec::new();
        for j in 0..n {
            for i in 0..n {
                let re = (1 + (i + j + seed) % 5) as f64 + if i == j { n as f64 } else { 0.0 };
                v.push(format!("{re}"));
                if tag.starts_with('c') {
                    v.push(format!("{}", (i as f64 - j as f64) * 0.25));
                }
            }
        }
        v.join(",")
    }

    #[test]
    fn batch_output_is_independent_of_worker_count() {
        let m = test_matrix;
        let eig = format!(
            "{{\"id\": \"d\", \"scalar\": \"f64\", \"n\": 6, \"data\": [{}]}}\n\
             {{\"id\": \"s\", \"scalar\": \"f32\", \"n\": 5, \"data\": [{}]}}\n\
             {{\"id\": \"z\", \"scalar\": \"c64\", \"n\": 7, \"data\": [{}]}}\n\
             {{\"id\": \"bad\", \"n\": 3, \"data\": [1.0]}}\n\
             {{\"id\": \"c\", \"scalar\": \"c32\", \"n\": 6, \"data\": [{}]}}\n\
             {{\"n\": 9, \"data\": [{}]}}\n",
            m(6, "f64", 0),
            m(5, "f32", 1),
            m(7, "c64", 2),
            m(6, "c32", 3),
            m(9, "f64", 4),
        );
        let gen = format!(
            "{{\"id\": \"r\", \"n\": 5, \"a\": [{}], \"b\": [{}]}}\n\
             {{\"id\": \"z\", \"scalar\": \"c64\", \"n\": 4, \"a\": [{}], \"b\": [{}]}}\n\
             {{\"id\": \"indef\", \"n\": 2, \"a\": [2, 1, 1, 2], \"b\": [-1, 0, 0, 1]}}\n\
             {{\"id\": \"c\", \"scalar\": \"c32\", \"n\": 5, \"a\": [{}], \"b\": [{}]}}\n",
            m(5, "f64", 5),
            m(5, "f64", 6),
            m(4, "c64", 7),
            m(4, "c64", 8),
            m(5, "c32", 9),
            m(5, "c32", 10),
        );
        let svd = format!(
            "{{\"id\": \"sq\", \"n\": 6, \"data\": [{}]}}\n\
             {{\"id\": \"wide\", \"m\": 2, \"n\": 3, \"data\": [3, 0, 0, 4, 1, 1]}}\n\
             {{\"id\": \"tall\", \"scalar\": \"f32\", \"m\": 3, \"n\": 2, \"data\": [3, 0, 1, 0, 4, 1]}}\n",
            m(6, "f64", 11),
        );
        let runs = |argv: &str, jsonl: &str| -> Vec<Vec<String>> {
            [1, 2, 3]
                .iter()
                .map(|t| {
                    let argv = format!("batch mem.jsonl -o out.jsonl --nb 4 --threads {t} {argv}");
                    batch_in_memory(&argv, jsonl)
                })
                .collect()
        };
        for (argv, jsonl, ids) in [
            ("--vectors", &eig, &["d", "s", "z", "bad", "c", "5"][..]),
            ("--kind gen --vectors", &gen, &["r", "z", "indef", "c"][..]),
            ("--kind svd --vectors", &svd, &["sq", "wide", "tall"][..]),
        ] {
            let runs = runs(argv, jsonl);
            for (line, id) in runs[0].iter().zip(ids) {
                assert!(line.starts_with(&format!("{{\"id\": \"{id}\"")), "{line}");
            }
            assert_eq!(runs[0].len(), ids.len(), "{argv}");
            assert_eq!(runs[0], runs[1], "{argv}: 1 vs 2 workers");
            assert_eq!(runs[0], runs[2], "{argv}: 1 vs 3 workers");
        }
        // Under a zero deadline every well-formed line runs out of budget
        // at its first checkpoint and the malformed one still reports its
        // parse error: the deadline never sees the parse. The message of
        // a deadline error carries the elapsed time, so compare the line
        // up to it.
        let head = |line: &String| line.split(", \"error\":").next().map(String::from);
        let runs = runs("--vectors --deadline-ms 0", &eig);
        for run in &runs {
            for (line, id) in run.iter().zip(["d", "s", "z", "bad", "c", "5"]) {
                let kind = if id == "bad" {
                    "parse"
                } else {
                    "deadline_exceeded"
                };
                assert!(
                    line.contains(&format!("\"error_kind\": \"{kind}\"")),
                    "{line}"
                );
            }
            let heads: Vec<_> = run.iter().map(head).collect();
            assert_eq!(heads, runs[0].iter().map(head).collect::<Vec<_>>());
        }
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
