//! The tseig performance ledger.
//!
//! One benchmark for the whole workspace: four fixed workloads run through
//! the library's public entry points, every output is checked outside the
//! timed region, and every number is printed as one JSON line. The
//! end-to-end run (`--trace 0`) measures what a user of the library sees;
//! the traced run (`--trace 1`) replays the same solves layer by layer
//! (stage 1, bulge chase, tridiagonal solve, back-transform) and reports
//! per-layer time, exact flop counts and computed bytes. See `README.md`
//! for the workloads, the metric names and which layer metric should move
//! which end-to-end metric.

pub mod check;
pub mod inputs;
pub mod jobs;
pub mod layers;
pub mod report;
pub mod trace;

/// Problem sizes: the measured configuration, or a tiny one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// n <= 128, two warm repetitions, eight batch requests.
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// The four workloads of the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All eigenpairs of a dense random symmetric f64 matrix (D&C).
    EigVectors,
    /// Eigenvalues only, larger matrix, same generator.
    EigValues,
    /// A JSONL stream of mixed-type eig requests through `tseig batch`.
    BatchMixed,
    /// Thin SVD with both vector sets of a general square f64 matrix.
    SvdVectors,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EigVectors,
        Workload::EigValues,
        Workload::BatchMixed,
        Workload::SvdVectors,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EigVectors => "eig-f64-vectors",
            Workload::EigValues => "eig-f64-values",
            Workload::BatchMixed => "batch-mixed",
            Workload::SvdVectors => "svd-f64-vectors",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Matrix order of the eig and svd workloads; for the batch, the
    /// largest of the orders it draws from [`inputs::batch_sizes`].
    ///
    /// Both eig inputs fit in the 105 MiB L3 of the 2-vCPU host the
    /// workloads were sized for (README.md): 18 and 50 MiB, and
    /// eig-f64-values' input plus the solver's working copy about fill
    /// it. On that host an input beyond the L3 (n = 4096, 128 MiB) takes
    /// ~4.3 s a solve: three fresh processes then leave room for about
    /// three warm solves a run, and a run took 31-39 s instead of 25.
    pub fn order(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::EigVectors, Scale::Full) => 1536,
            (Workload::EigVectors, Scale::Smoke) => 96,
            (Workload::EigValues, Scale::Full) => 2560,
            (Workload::EigValues, Scale::Smoke) => 128,
            (Workload::SvdVectors, Scale::Full) => 768,
            (Workload::SvdVectors, Scale::Smoke) => 64,
            (Workload::BatchMixed, _) => inputs::batch_sizes(scale)
                .iter()
                .map(|&(n, _)| n)
                .max()
                .unwrap_or(0),
        }
    }

    /// Threads one request uses inside the library: the eig and svd
    /// workloads run the `Static(2)` scheduler and rayon on both cores;
    /// the batch solves each request serially and gets its parallelism
    /// from two pool workers.
    pub fn threads_per_request(self) -> usize {
        match self {
            Workload::BatchMixed => 1,
            _ => 2,
        }
    }
}

/// Threads the benchmark loads the machine with (`nproc` of the host the
/// workloads were sized for).
pub const THREADS: usize = 2;
