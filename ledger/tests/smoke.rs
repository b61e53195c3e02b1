//! `ledger --scale smoke` end to end, and every failure class counted.

use std::process::Command;

use tseig_core::SymmetricEigen;
use tseig_ledger::check::{self, CheckBuf, Moments, Tally, BOUND, EPS64};
use tseig_ledger::jobs::{BatchJob, Job};
use tseig_ledger::{Scale, Workload};
use tseig_matrix::{gen, norms, Matrix};
use tseig_svd::GeSvd;

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
/// The file lists one metric per line and `per_layer` after `end_to_end`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer = text.find("\"per_layer\"").expect("per_layer section");
    let body = match section {
        "end_to_end" => &text[e2e..layer],
        _ => &text[layer..],
    };
    let quoted = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let metrics: Vec<_> = body
        .lines()
        .filter_map(|l| Some((quoted(l, "name")?, quoted(l, "unit")?)))
        .collect();
    assert!(!metrics.is_empty(), "no metrics in {section}");
    metrics
}

fn ledger(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--scale", "smoke", "--seed", "5"])
        .args(args)
        .output()
        .expect("run the ledger");
    assert!(
        out.status.success(),
        "ledger {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn smoke_run_prints_every_metric_without_failures() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = ledger(&["--trace", trace]);
        let lines: Vec<&str> = out.lines().collect();
        for w in Workload::ALL {
            let of = |metric: &str| {
                let key = format!("\"workload\": \"{}\", \"metric\": \"{metric}\",", w.name());
                lines.iter().find(|l| l.contains(&key)).copied()
            };
            for (name, unit) in declared(section) {
                let line =
                    of(&name).unwrap_or_else(|| panic!("{} does not print {name}", w.name()));
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{line}: unit is not {unit}"
                );
            }
            let fail = of("fail_frac").expect("fail_frac line");
            assert!(fail.contains("\"value\": 0,"), "{fail}");
        }
        let summary = lines.last().expect("summary line");
        assert!(
            summary.contains("\"correct\": true") && summary.contains("\"failed\": 0,"),
            "{summary}"
        );
    }
    // Run on one workload, as BENCHMARK.json's command is, the summary
    // carries every end-to-end metric.
    let out = ledger(&["--workload", "batch-mixed", "--trace", "0"]);
    let summary = out.lines().last().expect("summary line");
    for (name, unit) in declared("end_to_end") {
        assert!(
            summary.contains(&format!("\"{name}\": {{\"value\": ")),
            "{summary} lacks {name}"
        );
        assert!(
            summary.contains(&format!("\"unit\": \"{unit}\"")),
            "{summary} lacks unit {unit}"
        );
    }
}

fn fails(outcome: Result<(), String>) -> bool {
    Tally::of("deliberately corrupted result", outcome).failed == 1
}

#[test]
fn each_failure_class_counts() {
    let n = 64;
    let a = gen::random_symmetric(n, 11);
    let r = SymmetricEigen::new().solve(&a).expect("solve");
    let z = r.eigenvectors.as_ref().expect("vectors");
    let mut buf = CheckBuf::new(n);
    // One eigenvalue moved past the bound of each check: some entry of a
    // unit eigenvector is at least 1/sqrt(n), so the residual of the
    // nudged pair exceeds twice the bound.
    let step = 2.0 * BOUND * n as f64 * EPS64 * norms::norm1(&a) * (n as f64).sqrt();
    let nudged = |by: f64| {
        let mut l = r.eigenvalues.clone();
        l[n / 2] += by;
        l
    };

    assert!(check::eig_vectors(&a, &r.eigenvalues, z, EPS64, &mut buf).is_ok());
    assert!(
        fails(check::eig_vectors(&a, &nudged(step), z, EPS64, &mut buf)),
        "residual"
    );
    let mut skew = z.clone();
    skew[(0, 1)] += 1e-6;
    assert!(
        fails(check::eig_vectors(
            &a,
            &r.eigenvalues,
            &skew,
            EPS64,
            &mut buf
        )),
        "orthogonality"
    );

    let m = Moments::of(&a);
    let reference = Some(r.eigenvalues.as_slice());
    assert!(check::eig_values(&m, &r.eigenvalues, reference).is_ok());
    assert!(
        fails(check::eig_values(&m, &nudged(step), reference)),
        "reference deviation"
    );
    assert!(
        fails(check::eig_values(&m, &nudged(n as f64 * step), None)),
        "trace invariant"
    );
    // Spread apart at the ends: order and trace kept, ||A||_F^2 broken.
    let mut spread = nudged(0.0);
    spread[0] -= 1e-2;
    spread[n - 1] += 1e-2;
    assert!(
        fails(check::eig_values(&m, &spread, None)),
        "Frobenius invariant"
    );

    let g = Matrix::from_fn(n, n, |i, j| {
        ((i * 7 + j * 3) % 11) as f64 - 5.0 + if i == j { 20.0 } else { 0.0 }
    });
    let mut s = GeSvd::new().solve(&g).expect("svd");
    assert!(check::svd(&g, &s).is_ok());
    // The largest singular value raised (order kept); max|u_i v_j| of its
    // pair is at least 1/n.
    s.s[0] += 2.0 * BOUND * n as f64 * EPS64 * norms::norm1(&g) * n as f64;
    assert!(fails(check::svd(&g, &s)), "svd residual");

    // An error return counts.
    assert!(fails(Err("solver error".into())));

    // Batch: a clean pass, then an `"ok": false` line, a corrupted
    // eigenvalue and a missing line each count as one failure.
    let mut job = BatchJob::new(Scale::Smoke, 2, 2);
    job.op(0);
    assert_eq!(
        job.verify(0),
        Tally {
            attempted: 8,
            failed: 0
        }
    );
    let text = job.output();
    let first = text.lines().next().expect("output line");
    let failed_line = first.replacen("\"ok\": true", "\"ok\": false", 1);
    // The smallest eigenvalue moved down by 1: still ascending, far past
    // the residual bound.
    let at = first.find("\"eigenvalues\": [").expect("eigenvalues") + 16;
    let end = at + first[at..].find(',').expect("two eigenvalues");
    let lowest: f64 = first[at..end].parse().expect("a number");
    let corrupted = format!("{}{}{}", &first[..at], lowest - 1.0, &first[end..]);
    let without_first: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
    for (what, out) in [
        ("ok false", text.replacen(first, &failed_line, 1)),
        ("corrupted eigenvalue", text.replacen(first, &corrupted, 1)),
        ("missing line", without_first),
    ] {
        assert_eq!(
            check::batch_output(job.stream(), &out),
            Tally {
                attempted: 8,
                failed: 1
            },
            "{what}"
        );
    }
}
