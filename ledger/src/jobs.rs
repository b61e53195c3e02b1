//! The end-to-end operation of each workload, as a user of the library
//! issues it, with its check.
//!
//! The loop is closed: the next operation starts only after the previous
//! one returned and was checked. Inputs are generated when a job is
//! built, before any timing starts. Every `SymmetricEigen` and `GeSvd`
//! keeps the library defaults except the scheduler, `Static(2)`; the
//! batch goes through `tseig batch --vectors --threads 2` in process,
//! reading its JSONL stream from memory and writing into memory.

use std::cell::RefCell;
use std::io::{Cursor, Write};
use std::rc::Rc;

use tseig_cli::Cli;
use tseig_core::{Scheduler, SolvePlan, SymmetricEigen};
use tseig_matrix::Matrix;
use tseig_svd::stage2::Stage2Exec;
use tseig_svd::{GeSvd, Svd, SvdPlan};

use crate::check::{self, CheckBuf, Moments, Tally, EPS64};
use crate::inputs::{self, BatchStream};
use crate::layers::EigConfig;
use crate::{Scale, Workload, THREADS};

/// One workload's end-to-end operation.
pub trait Job {
    /// Requests one operation completes.
    fn requests(&self) -> usize;
    /// The timed operation; `rep` selects which input it runs on.
    fn op(&mut self, rep: usize);
    /// Check the result of the last `op(rep)` (never timed).
    fn verify(&mut self, rep: usize) -> Tally;
}

/// The job of workload `w`, with its inputs generated from `seed`.
pub fn new(w: Workload, scale: Scale, seed: u64) -> Box<dyn Job> {
    match w {
        Workload::EigVectors | Workload::EigValues => Box::new(EigJob::new(w, scale, seed)),
        Workload::BatchMixed => Box::new(BatchJob::new(scale, seed, THREADS)),
        Workload::SvdVectors => Box::new(SvdJob::new(scale, seed)),
    }
}

/// Eigenvalues-only results are compared with a residual-checked
/// reference solve up to this order; above it the reference would cost
/// more than the measured solves and the spectral invariants stand alone.
const REFERENCE_MAX_N: usize = 512;

/// The e2e configuration of the eig workloads.
pub fn eig_config(w: Workload) -> EigConfig {
    EigConfig {
        scheduler: Scheduler::Static(THREADS),
        vectors: w == Workload::EigVectors,
    }
}

/// Repeated solves on one warm `SolvePlan`, two inputs alternating.
pub struct EigJob {
    name: &'static str,
    eigen: SymmetricEigen,
    vectors: bool,
    inputs: [Matrix; 2],
    moments: [Moments; 2],
    reference: [Option<Result<Vec<f64>, String>>; 2],
    plan: SolvePlan,
    last: Result<(), String>,
    checked: [Option<u64>; 2],
    buf: CheckBuf,
}

impl EigJob {
    pub fn new(w: Workload, scale: Scale, seed: u64) -> EigJob {
        let cfg = eig_config(w);
        let inputs = inputs::eig_inputs(w, scale, seed);
        let n = w.order(scale);
        let mut buf = CheckBuf::new(if cfg.vectors || n <= REFERENCE_MAX_N {
            n
        } else {
            0
        });
        let reference = [0, 1].map(|k| {
            (!cfg.vectors && n <= REFERENCE_MAX_N).then(|| {
                let a = &inputs[k];
                let r = EigConfig {
                    scheduler: Scheduler::Serial,
                    vectors: true,
                }
                .eigen()
                .solve(a)
                .map_err(|e| e.to_string())?;
                let z = r
                    .eigenvectors
                    .ok_or("reference solve returned no vectors")?;
                check::eig_vectors(a, &r.eigenvalues, &z, EPS64, &mut buf)
                    .map_err(|e| format!("reference solve: {e}"))?;
                Ok(r.eigenvalues)
            })
        });
        EigJob {
            name: w.name(),
            eigen: cfg.eigen(),
            vectors: cfg.vectors,
            moments: [Moments::of(&inputs[0]), Moments::of(&inputs[1])],
            inputs,
            reference,
            plan: SolvePlan::new(),
            last: Ok(()),
            checked: [None; 2],
            buf,
        }
    }

    /// The plan the solves run on (its footprint is a traced metric).
    pub fn plan(&self) -> &SolvePlan {
        &self.plan
    }

    pub fn eigen(&self) -> &SymmetricEigen {
        &self.eigen
    }

    pub fn input(&self, k: usize) -> &Matrix {
        &self.inputs[k % 2]
    }

    /// Check the eigenpairs of input `k`.
    fn check(&mut self, k: usize, evals: &[f64], z: Option<&Matrix>) -> Result<(), String> {
        let k = k % 2;
        if self.vectors {
            let z = z.ok_or("no eigenvectors")?;
            check::eig_vectors(&self.inputs[k], evals, z, EPS64, &mut self.buf)
        } else {
            let reference = match &self.reference[k] {
                Some(Err(e)) => return Err(e.clone()),
                Some(Ok(r)) => Some(r.as_slice()),
                None => None,
            };
            check::eig_values(&self.moments[k], evals, reference)
        }
    }
}

impl Job for EigJob {
    fn requests(&self) -> usize {
        1
    }

    fn op(&mut self, rep: usize) {
        self.last = self
            .eigen
            .solve_into(&self.inputs[rep % 2], &mut self.plan)
            .map_err(|e| e.to_string());
    }

    fn verify(&mut self, rep: usize) -> Tally {
        let k = rep % 2;
        let outcome = match self.last.clone() {
            Err(e) => Err(e),
            Ok(()) => {
                let plan = std::mem::take(&mut self.plan);
                let evals = plan.eigenvalues();
                let z = plan.eigenvectors();
                let fp = check::fingerprint(&[evals, z.map_or(&[][..], Matrix::as_slice)]);
                let mut seen = self.checked[k];
                let r = check::once(&mut seen, fp, || self.check(k, evals, z));
                self.checked[k] = seen;
                self.plan = plan;
                r
            }
        };
        Tally::of(&format!("{} solve {rep}", self.name), outcome)
    }
}

/// Repeated thin SVDs with vectors on one `SvdPlan`, two inputs
/// alternating, through the default (`Auto`) route.
pub struct SvdJob {
    svd: GeSvd,
    inputs: [Matrix; 2],
    plan: SvdPlan,
    last: Option<Result<Svd, String>>,
    checked: [Option<u64>; 2],
}

impl SvdJob {
    pub fn new(scale: Scale, seed: u64) -> SvdJob {
        SvdJob {
            svd: e2e_svd(),
            inputs: inputs::svd_inputs(scale, seed),
            plan: SvdPlan::new(),
            last: None,
            checked: [None; 2],
        }
    }

    pub fn plan(&self) -> &SvdPlan {
        &self.plan
    }

    pub fn input(&self, k: usize) -> &Matrix {
        &self.inputs[k % 2]
    }
}

/// The e2e `GeSvd`: library defaults except the `Static(2)` chase
/// scheduler.
pub fn e2e_svd() -> GeSvd {
    GeSvd::new().scheduler(Stage2Exec::Static(THREADS))
}

impl Job for SvdJob {
    fn requests(&self) -> usize {
        1
    }

    fn op(&mut self, rep: usize) {
        self.last = Some(
            self.svd
                .solve_with_plan(&self.inputs[rep % 2], &mut self.plan)
                .map_err(|e| e.to_string()),
        );
    }

    fn verify(&mut self, rep: usize) -> Tally {
        let k = rep % 2;
        // Taking the result drops it here, outside the timed region.
        let outcome = match self.last.take() {
            None => Err("no result".to_string()),
            Some(Err(e)) => Err(e),
            Some(Ok(r)) => {
                let fp = check::fingerprint(&[r.u.as_slice(), &r.s, r.v.as_slice()]);
                check::once(&mut self.checked[k], fp, || check::svd(&self.inputs[k], &r))
            }
        };
        Tally::of(&format!("svd solve {rep}"), outcome)
    }
}

/// In-memory output file of the batch CLI.
struct Sink(Rc<RefCell<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One pass of the batch stream through `tseig batch --vectors`.
pub struct BatchJob {
    cli: Cli,
    stream: BatchStream,
    sink: Rc<RefCell<Vec<u8>>>,
    last: Result<(), String>,
    checked: Option<u64>,
}

impl BatchJob {
    /// The stream of `seed` through `--threads threads` pool workers.
    pub fn new(scale: Scale, seed: u64, threads: usize) -> BatchJob {
        let args: Vec<String> = [
            "batch",
            "batch-mixed.jsonl",
            "-o",
            "batch-mixed.out.jsonl",
            "--vectors",
            "--threads",
            &threads.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = Cli::parse(&args).expect("the ledger's batch command line parses");
        let stream = inputs::batch_stream(scale, seed);
        // The output buffer is sized and touched up front so its pages
        // are resident before the memory baseline is taken: the sink is
        // the harness's file, not the program's memory.
        let bytes: usize = stream
            .requests
            .iter()
            .map(|r| {
                let per = if matches!(r.matrix, inputs::RequestMatrix::Complex(_)) {
                    2
                } else {
                    1
                };
                128 + 26 * (r.n + per * r.n * r.n)
            })
            .sum();
        let mut out = vec![0u8; bytes];
        out.clear();
        BatchJob {
            cli,
            stream,
            sink: Rc::new(RefCell::new(out)),
            last: Ok(()),
            checked: None,
        }
    }

    pub fn stream(&self) -> &BatchStream {
        &self.stream
    }

    /// The JSONL output of the last pass.
    pub fn output(&self) -> String {
        String::from_utf8_lossy(&self.sink.borrow()).into_owned()
    }
}

impl Job for BatchJob {
    fn requests(&self) -> usize {
        self.stream.requests.len()
    }

    fn op(&mut self, _rep: usize) {
        self.sink.borrow_mut().clear();
        let text = self.stream.jsonl.as_bytes();
        let sink = &self.sink;
        self.last = tseig_cli::run(
            &self.cli,
            |_| Ok(Cursor::new(text)),
            |_| Ok(Sink(Rc::clone(sink))),
        );
    }

    fn verify(&mut self, rep: usize) -> Tally {
        let requests = self.requests() as u64;
        if let Err(e) = &self.last {
            eprintln!("ledger: batch pass {rep}: {e}");
            return Tally {
                attempted: requests,
                failed: requests,
            };
        }
        let out = self.sink.borrow();
        let fp = check::fingerprint_bytes(&out);
        if self.checked == Some(fp) {
            return Tally {
                attempted: requests,
                failed: 0,
            };
        }
        let tally = match std::str::from_utf8(&out) {
            Ok(text) => check::batch_output(&self.stream, text),
            Err(_) => Tally {
                attempted: requests,
                failed: requests,
            },
        };
        if tally.failed == 0 && self.checked.is_none() {
            self.checked = Some(fp);
        }
        tally
    }
}
