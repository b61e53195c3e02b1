//! Same-program guard: the layer-by-layer replays the traced run times
//! compute bitwise what the library entry points compute with the same
//! configuration. With this, per-layer numbers describe the program the
//! end-to-end run measures.

use tseig_core::{Scheduler, SolvePlan};
use tseig_hermitian::validate::rand_hermitian;
use tseig_ledger::inputs;
use tseig_ledger::layers::{
    herm_replay, svd_replay, EigConfig, EigReplay, HermConfig, Tracer, EIG_NB, LAYERS,
};
use tseig_ledger::{Scale, Workload};
use tseig_matrix::{gen, CMatrixG, ComplexScalar, C32};
use tseig_svd::stage2::Stage2Exec;
use tseig_svd::{GeSvd, SvdMethod};

/// The `[profile.release]` lines of a manifest, comments and blanks
/// dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn release_profile_is_the_workspace_s() {
    // The ledger is a workspace of its own, so the repository's release
    // profile does not reach it; it carries a copy, which must not drift.
    let own = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    let workspace = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
    assert!(!own.is_empty());
    assert_eq!(own, workspace);
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn cbits<T: ComplexScalar>(z: &CMatrixG<T>) -> Vec<(u64, u64)> {
    z.as_slice()
        .iter()
        .map(|v| (v.re().to_bits(), v.im().to_bits()))
        .collect()
}

#[test]
fn eig_replay_is_solve_into() {
    for w in [Workload::EigVectors, Workload::EigValues] {
        let smoke = inputs::eig_inputs(w, Scale::Smoke, 7)[0].clone();
        for a in [smoke, gen::random_symmetric(200, 8)] {
            for scheduler in [Scheduler::Static(2), Scheduler::Serial] {
                let cfg = EigConfig {
                    scheduler,
                    vectors: w == Workload::EigVectors,
                };
                let mut plan = SolvePlan::new();
                cfg.eigen()
                    .solve_into(&a, &mut plan)
                    .expect("library solve");
                let mut rp = EigReplay::default();
                let mut tr = Tracer::new("test");
                // Twice: the second replay runs on warm buffers, like the
                // library's second solve on a warm plan.
                for rep in 0..2 {
                    tr.set_rep(rep);
                    rp.solve(&a, cfg, &mut tr).expect("replay");
                    let what = format!("{} n={} {scheduler:?} rep {rep}", w.name(), a.rows());
                    assert_eq!(
                        bits(&rp.evals),
                        bits(plan.eigenvalues()),
                        "eigenvalues, {what}"
                    );
                    match (&rp.evecs, plan.eigenvectors()) {
                        (Some(z), Some(y)) => {
                            assert_eq!(bits(z.as_slice()), bits(y.as_slice()), "vectors, {what}")
                        }
                        (None, None) => {}
                        _ => panic!("vectors present on one side only, {what}"),
                    }
                }
                for name in LAYERS {
                    let spanned = tr.spans().iter().any(|s| s.name == name);
                    assert_eq!(
                        spanned,
                        name != "backtransform" || cfg.vectors,
                        "{name} span"
                    );
                }
            }
        }
    }
}

#[test]
fn hermitian_replay_is_solve() {
    let a = rand_hermitian(90, 5);
    let configs = [
        // `tseig batch`'s configuration, then the library default band.
        HermConfig {
            nb: EIG_NB,
            scheduler: tseig_hermitian::Scheduler::Serial,
            vectors: true,
        },
        HermConfig {
            nb: 32,
            scheduler: tseig_hermitian::Scheduler::Static(2),
            vectors: true,
        },
    ];
    for cfg in configs {
        let want = cfg.eigen().solve(&a).expect("library solve");
        let (vals, z) = herm_replay(&a, cfg, &mut Tracer::off()).expect("replay");
        assert_eq!(bits(&vals), bits(&want.eigenvalues), "{cfg:?}");
        assert_eq!(
            cbits(&z.expect("vectors")),
            cbits(&want.eigenvectors.expect("vectors")),
            "{cfg:?}"
        );

        let a32 = CMatrixG::<C32>::from_cmatrix(&a);
        let want = cfg.eigen().solve(&a32).expect("library solve");
        let (vals, z) = herm_replay(&a32, cfg, &mut Tracer::off()).expect("replay");
        assert_eq!(bits(&vals), bits(&want.eigenvalues), "c32 {cfg:?}");
        assert_eq!(
            cbits(&z.expect("vectors")),
            cbits(&want.eigenvectors.expect("vectors")),
            "c32 {cfg:?}"
        );
    }
}

#[test]
fn svd_replay_is_two_stage_solve() {
    let a = inputs::svd_inputs(Scale::Smoke, 3)[0].clone();
    for scheduler in [Stage2Exec::Static(2), Stage2Exec::Serial] {
        let want = GeSvd::new()
            .method(SvdMethod::TwoStage)
            .scheduler(scheduler)
            .solve(&a)
            .expect("library solve");
        let (u, s, v) = svd_replay(&a, scheduler, &mut Tracer::off()).expect("replay");
        assert_eq!(bits(&s), bits(&want.s), "{scheduler:?}");
        assert_eq!(bits(u.as_slice()), bits(want.u.as_slice()), "{scheduler:?}");
        assert_eq!(bits(v.as_slice()), bits(want.v.as_slice()), "{scheduler:?}");
    }
}
