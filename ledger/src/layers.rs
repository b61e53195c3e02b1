//! Layer-by-layer replays of the library's solves, and the spans that
//! time them.
//!
//! Each replay calls the public function of every layer in the order the
//! library's entry point calls it, with the same arguments, so it computes
//! bitwise what the entry point computes (the `same_program` test holds
//! them to that).
//! The replay only adds a [`Tracer`] span around each layer call; the
//! span records wall time and the exact flop and computed-byte counts the
//! kernels charged while it was open.

use std::fmt::Write as _;
use std::time::Instant;

use tseig_core::backtransform::{apply_q, apply_q_ws, BtPlan};
use tseig_core::stage1::{sy2sb_ws, BandForm, Stage1Ws};
use tseig_core::stage2::{self, Stage2Schedule, Stage2Ws};
use tseig_core::{Scheduler, SymmetricEigen, V2Set};
use tseig_hermitian::{HermScalar, HermitianEigen};
use tseig_kernels::{flops, scaling};
use tseig_matrix::{CMatrixG, Ctrl, Error, Matrix, Result, SymBandMatrix, SymTridiagonal};
use tseig_svd::stage2::Stage2Exec;
use tseig_tridiag::{EigenRange, Method};

/// The layers every workload's pipeline runs, in pipeline order: dense to
/// band, bulge chase, condensed-form (tridiagonal or bidiagonal) solve,
/// eigen/singular-vector back-transform.
pub const LAYERS: [&str; 4] = ["stage1", "stage2", "tridiag", "backtransform"];

/// One timed layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub rep: usize,
    /// Flops and computed bytes the kernels charged while the span was
    /// open (the counters are process-wide, so they are exact only while
    /// nothing else runs kernels).
    pub flops: u64,
    pub bytes: u64,
}

/// In-memory span recorder. A disabled tracer records nothing and only
/// calls through, which is how the traced run measures its own overhead.
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    epoch: Instant,
    rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            enabled: true,
            workload,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new("")
        }
    }

    /// Repetition number stamped on the spans that follow.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
            rep: self.rep,
            flops: flops::snapshot().total(),
            bytes: flops::bytes_snapshot().total(),
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.epoch.elapsed().as_secs_f64();
        let s = &mut self.spans[id];
        s.end = end;
        s.flops = flops::snapshot().total() - s.flops;
        s.bytes = flops::bytes_snapshot().total() - s.bytes;
        self.open.retain(|&o| o != id);
    }

    /// Run `f` inside a span called `name`.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds, flops and bytes of every `name` span of repetition `rep`.
    pub fn total(&self, name: &str, rep: usize) -> (f64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .fold((0.0, 0, 0), |(t, f, b), s| {
                (t + s.end - s.start, f + s.flops, b + s.bytes)
            })
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"workload\": \"{}\", \"rep\": {}, \"flops\": {}, \"bytes_computed\": {}}}}}{}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                self.workload,
                s.rep,
                s.flops,
                s.bytes,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Band width of a default-built `SymmetricEigen` (and of `tseig batch`,
/// whose `--nb` defaults to the same value).
pub const EIG_NB: usize = 48;

/// Band width of a default-built `GeSvd`.
pub const SVD_NB: usize = 32;

/// Configuration of a real symmetric solve: library defaults except the
/// scheduler and whether vectors are wanted.
#[derive(Clone, Copy, Debug)]
pub struct EigConfig {
    pub scheduler: Scheduler,
    pub vectors: bool,
}

impl EigConfig {
    /// The library entry point with exactly this configuration.
    pub fn eigen(self) -> SymmetricEigen {
        SymmetricEigen::new()
            .scheduler(self.scheduler)
            .vectors(self.vectors)
    }
}

/// Replay of `SymmetricEigen::solve_into` (D&C, full spectrum). Owns the
/// same buffers as a `SolvePlan` and reuses them across solves.
#[derive(Default)]
pub struct EigReplay {
    scaled: Matrix,
    work: Matrix,
    bf: BandForm,
    s1: Stage1Ws,
    band: SymBandMatrix,
    v2: V2Set,
    s2: Stage2Ws,
    tri: SymTridiagonal,
    sched: Option<Stage2Schedule>,
    bt: BtPlan,
    /// Ascending eigenvalues of the last solve.
    pub evals: Vec<f64>,
    /// Eigenvectors of the last solve, if wanted.
    pub evecs: Option<Matrix>,
}

impl EigReplay {
    pub fn solve(&mut self, a: &Matrix, cfg: EigConfig, tr: &mut Tracer) -> Result<()> {
        let n = a.rows();
        if n < 2 || a.cols() != n {
            return Err(Error::InvalidArgument(format!(
                "replay needs a square matrix of order >= 2, got {}x{}",
                n,
                a.cols()
            )));
        }
        let anorm = scaling::screen_symmetric(a)?;
        let sigma = scaling::safe_scale_factor(anorm);
        let EigReplay {
            scaled,
            work,
            bf,
            s1,
            band,
            v2,
            s2,
            tri,
            sched,
            bt,
            ..
        } = self;
        let input: &Matrix = match sigma {
            Some(s) => {
                scaled.copy_from(a);
                scaling::scale_matrix(scaled, s);
                scaled
            }
            None => a,
        };
        let serial = cfg.scheduler == Scheduler::Serial;
        let ell = (EIG_NB / 2).max(1);

        tr.layer("stage1", || {
            sy2sb_ws(input, EIG_NB, 0, !serial, work, bf, s1, &Ctrl::NONE)
        })?;
        tr.layer("stage2", || match cfg.scheduler {
            Scheduler::Serial => {
                band.copy_from(&bf.band);
                stage2::reduce_ws(band, v2, s2, tri, &Ctrl::NONE)
            }
            Scheduler::Static(threads) => {
                let b = bf.band.bandwidth();
                if !sched
                    .as_ref()
                    .is_some_and(|s| s.n() == n && s.bandwidth() == b && s.threads() == threads)
                {
                    *sched = None;
                }
                let plan = sched.get_or_insert_with(|| Stage2Schedule::new(n, b, threads));
                let c = stage2::reduce_static_prepared(bf.band.clone(), plan, &Ctrl::NONE)
                    .map_err(Error::Runtime)?;
                *tri = c.tridiagonal;
                *v2 = c.v2;
                Ok(())
            }
            Scheduler::Dynamic(_) => Err(Error::InvalidArgument(
                "the ledger replays the serial and static schedulers only".into(),
            )),
        })?;
        let sol = tr.layer("tridiag", || {
            tseig_tridiag::solve(tri, Method::DivideAndConquer, EigenRange::All, cfg.vectors)
        })?;
        self.evals = sol.eigenvalues;
        self.evecs = match (cfg.vectors, sol.eigenvectors) {
            (false, _) => None,
            (true, None) => {
                return Err(Error::Runtime(
                    "tridiagonal solve returned no vectors".into(),
                ))
            }
            (true, Some(mut z)) => {
                tr.layer("backtransform", || {
                    if serial {
                        apply_q_ws(v2, &bf.panels, &mut z, ell, 0, bt, &Ctrl::NONE)
                    } else {
                        apply_q(v2, &bf.panels, &mut z, ell, 0);
                        Ok(())
                    }
                })?;
                Some(z)
            }
        };
        if let Some(s) = sigma {
            self.evals.iter_mut().for_each(|v| *v /= s);
        }
        Ok(())
    }

    /// Apply the last solve's `Q = Q1 Q2` to the first `cols` columns of
    /// the identity inside a `backtransform` span: the back-transform a
    /// values-only solve skips, measured on its own reflectors.
    pub fn backtransform_columns(
        &mut self,
        cols: usize,
        serial: bool,
        tr: &mut Tracer,
    ) -> Result<()> {
        let n = self.v2.n();
        let mut e = Matrix::zeros(n, cols.min(n));
        for j in 0..e.cols() {
            e[(j, j)] = 1.0;
        }
        let ell = (EIG_NB / 2).max(1);
        let EigReplay { bf, v2, bt, .. } = self;
        tr.layer("backtransform", || {
            if serial {
                apply_q_ws(v2, &bf.panels, &mut e, ell, 0, bt, &Ctrl::NONE)
            } else {
                apply_q(v2, &bf.panels, &mut e, ell, 0);
                Ok(())
            }
        })
    }
}

/// Configuration of a Hermitian solve (D&C, full spectrum).
#[derive(Clone, Copy, Debug)]
pub struct HermConfig {
    pub nb: usize,
    pub scheduler: tseig_hermitian::Scheduler,
    pub vectors: bool,
}

impl HermConfig {
    /// The library entry point with exactly this configuration.
    pub fn eigen(self) -> HermitianEigen {
        HermitianEigen::new()
            .nb(self.nb)
            .scheduler(self.scheduler)
            .vectors(self.vectors)
    }
}

/// Replay of `HermitianEigen::solve`: eigenvalues and, if wanted,
/// eigenvectors.
pub fn herm_replay<T: HermScalar>(
    a: &CMatrixG<T>,
    cfg: HermConfig,
    tr: &mut Tracer,
) -> Result<(Vec<f64>, Option<CMatrixG<T>>)> {
    if a.rows() < 2 || a.cols() != a.rows() {
        return Err(Error::InvalidArgument(
            "replay needs a square matrix of order >= 2".into(),
        ));
    }
    let anorm = scaling::screen_hermitian(a)?;
    let ell = (cfg.nb / 2).max(1);
    let sigma = scaling::safe_scale_factor(anorm);
    let scaled = sigma.map(|s| {
        let mut b = a.clone();
        scaling::scale_cmatrix(&mut b, s);
        b
    });
    let work = scaled.as_ref().unwrap_or(a);
    let bf = tr.layer("stage1", || {
        tseig_hermitian::stage1::he2hb_with(work, cfg.nb, &Ctrl::NONE)
    })?;
    let chase = tr
        .layer("stage2", || {
            tseig_hermitian::stage2::reduce_scheduled(
                bf.band.clone(),
                cfg.nb,
                cfg.scheduler,
                &Ctrl::NONE,
            )
        })
        .map_err(Error::Runtime)?;
    let sol = tr.layer("tridiag", || {
        tseig_tridiag::solve(
            &chase.tridiagonal,
            Method::DivideAndConquer,
            EigenRange::All,
            cfg.vectors,
        )
    })?;
    let z = match (cfg.vectors, sol.eigenvectors) {
        (false, _) => None,
        (true, None) => {
            return Err(Error::Runtime(
                "tridiagonal solve returned no vectors".into(),
            ))
        }
        (true, Some(e)) => Some(tr.layer("backtransform", || {
            let mut z = CMatrixG::from_fn(e.rows(), e.cols(), |i, j| T::new(e[(i, j)], 0.0));
            tseig_hermitian::backtransform::apply_q(
                &chase.v2,
                &bf.panels,
                Some(&chase.phases),
                &mut z,
                ell,
                0,
            );
            z
        })),
    };
    let mut evals = sol.eigenvalues;
    if let Some(s) = sigma {
        evals.iter_mut().for_each(|v| *v /= s);
    }
    Ok((evals, z))
}

/// Replay of the two-stage route of `GeSvd::solve` with vectors (square
/// input, default band width): returns `(U, s, V)`.
pub fn svd_replay(
    a: &Matrix,
    scheduler: Stage2Exec,
    tr: &mut Tracer,
) -> Result<(Matrix, Vec<f64>, Matrix)> {
    let n = a.cols();
    if n < 3 || a.rows() != n {
        return Err(Error::InvalidArgument(
            "replay needs a square matrix of order >= 3".into(),
        ));
    }
    let anorm = scaling::screen_general(a)?;
    let sigma = scaling::safe_scale_factor(anorm);
    let mut work = a.clone();
    if let Some(s) = sigma {
        scaling::scale_matrix(&mut work, s);
    }
    let form = tr.layer("stage1", || {
        tseig_svd::stage1::ge2bb_with(&work, SVD_NB, 0, &Ctrl::NONE)
    })?;
    let chase = tr
        .layer("stage2", || {
            tseig_svd::stage2::reduce_scheduled(form.band.clone(), scheduler, &Ctrl::NONE)
        })
        .map_err(Error::Runtime)?;
    let (mut d, mut e) = (chase.d.clone(), chase.e.clone());
    let (mut ub, mut vb) = (Matrix::identity(n), Matrix::identity(n));
    tr.layer("tridiag", || {
        tseig_svd::bdsqr::bdsqr_with(&mut d, &mut e, Some(&mut ub), Some(&mut vb), &Ctrl::NONE)
    })?;
    let (u, v) = tr.layer("backtransform", || {
        let mut u = ub.clone();
        chase.bv.apply_left(&mut u);
        tseig_svd::stage1::apply_q1(&form.qpanels, &mut u);
        let mut v = vb.clone();
        chase.bv.apply_right(&mut v);
        tseig_svd::stage1::apply_p1(&form.ppanels, &mut v);
        (u, v)
    });
    if let Some(s) = sigma {
        d.iter_mut().for_each(|v| *v /= s);
    }
    Ok((u, d, v))
}
