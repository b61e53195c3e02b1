//! `xtask graphcheck` — offline race-freedom certification of the
//! stage-2 task graphs (feature `graphcheck`).
//!
//! Every bulge-chasing frontend schedules through the one chase executor
//! of `tseig_runtime::chase`, which declares the task footprints of two
//! distinct geometries: the symmetric/Hermitian band chase and the
//! band-bidiagonal chase. The checker enumerates the *real* graphs each
//! geometry submits (through the frontends' exported `chase_task_specs`),
//! not a model of them. For every `(geometry, n, b)` instance of a fixed
//! sweep it proves, via `tseig_runtime::verify`:
//!
//! * the inferred dependence graph is acyclic (edges only run forward in
//!   submission order);
//! * every conflicting task pair — overlapping declared regions with at
//!   least one `Write` — is ordered by a dependence path (RAW/WAW/WAR
//!   completeness);
//! * for each thread count, the derived static schedule is valid and its
//!   happens-before relation covers every dynamic-graph edge;
//! * the priority lanes never invert a dependence.
//!
//! The result is a machine-readable certificate (JSON, schema
//! `tseig-graphcheck/1`) that CI runs gating and uploads as an artifact;
//! violations also render as GitHub annotations via [`crate::Diag`].
//!
//! What this does *not* prove: that the declarations match what the
//! kernels actually touch. That direction is covered dynamically by the
//! footprint shadow checker (`tseig_runtime::shadow`) in every debug
//! test run — see DESIGN.md §11 for the split.

use crate::Diag;
use tseig_runtime::chase::Geometry;
use tseig_runtime::verify::{self, TaskSpec};

/// Matrix sizes of the sweep — small enough to enumerate exhaustively,
/// varied enough to cover edge alignment (`n - 2` divisible and not
/// divisible by `b`, `b >= n`, single-sweep and many-sweep shapes).
const SWEEP_N: &[usize] = &[6, 9, 13, 16, 24, 33, 48];
/// Bandwidths of the sweep.
const SWEEP_B: &[usize] = &[2, 3, 5, 8];
/// Static-scheduler worker counts checked per instance.
const SWEEP_THREADS: &[usize] = &[1, 2, 3, 4, 6];

type SpecFn = fn(usize, usize) -> Vec<TaskSpec>;

/// The production chase geometries, by name, with the file their
/// declarations live in (for annotations) and a frontend exporting the
/// specs it schedules. The real and Hermitian eigensolver chases share
/// the band geometry (the `frontends_share_the_band_geometry` test pins
/// that); the SVD chase is the bidiagonal one.
const BUILDERS: &[(&str, &str, SpecFn, Geometry)] = &[
    (
        "band",
        "crates/runtime/src/chase.rs",
        tseig_core::stage2::chase_task_specs,
        Geometry::Band,
    ),
    (
        "bidiagonal",
        "crates/runtime/src/chase.rs",
        tseig_svd::stage2::chase_task_specs,
        Geometry::Bidiagonal,
    ),
];

/// Verification result of one `(builder, n, b)` instance.
#[derive(Debug)]
pub struct InstanceReport {
    pub builder: &'static str,
    /// Source file of the builder's declarations (annotation target).
    pub file: &'static str,
    pub n: usize,
    pub b: usize,
    pub tasks: usize,
    pub edges: usize,
    pub conflict_pairs: usize,
    /// Worker counts whose static schedules were checked.
    pub threads: Vec<usize>,
    /// Rendered violations; empty means certified.
    pub violations: Vec<String>,
}

impl InstanceReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check one instance of one builder: the dynamic graph once, then the
/// derived static schedule per worker count.
fn check_instance(
    builder: &'static str,
    file: &'static str,
    specs_of: SpecFn,
    geometry: Geometry,
    n: usize,
    b: usize,
) -> InstanceReport {
    let specs = specs_of(n, b);
    let sum = verify::check_graph(&specs);
    let mut violations: Vec<String> = sum.violations.iter().map(|v| v.to_string()).collect();
    for &threads in SWEEP_THREADS {
        let owners = geometry.owners(n, b, threads);
        let st = verify::check_static(&specs, &owners, threads);
        violations.extend(
            st.violations
                .iter()
                .map(|v| format!("static({threads} workers): {v}")),
        );
    }
    InstanceReport {
        builder,
        file,
        n,
        b,
        tasks: sum.tasks,
        edges: sum.edges,
        conflict_pairs: sum.conflict_pairs,
        threads: SWEEP_THREADS.to_vec(),
        violations,
    }
}

/// Run the full sweep over both geometries.
pub fn run_sweep() -> Vec<InstanceReport> {
    let mut reports = Vec::new();
    for &(builder, file, specs_of, geometry) in BUILDERS {
        for &n in SWEEP_N {
            for &b in SWEEP_B {
                reports.push(check_instance(builder, file, specs_of, geometry, n, b));
            }
        }
    }
    reports
}

/// Render the sweep as the `tseig-graphcheck/1` certificate: one JSON
/// object per instance, `"ok"` summarizing the whole run. Hand-rolled —
/// xtask stays serde-free.
pub fn certificate_json(reports: &[InstanceReport]) -> String {
    let mut out = String::from("{\n  \"schema\": \"tseig-graphcheck/1\",\n");
    out.push_str(&format!(
        "  \"ok\": {},\n  \"instances\": [\n",
        reports.iter().all(InstanceReport::ok)
    ));
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"builder\": \"{}\", \"n\": {}, \"b\": {}, \"tasks\": {}, \
             \"edges\": {}, \"conflict_pairs\": {}, \"threads\": {:?}, \
             \"violations\": [{}]}}{}\n",
            r.builder,
            r.n,
            r.b,
            r.tasks,
            r.edges,
            r.conflict_pairs,
            r.threads,
            r.violations
                .iter()
                .map(|v| format!("\"{}\"", json_escape(v)))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Violations as [`Diag`]s (for `--github` annotation output), anchored
/// on the builder's declaration file.
pub fn diags(reports: &[InstanceReport]) -> Vec<Diag> {
    reports
        .iter()
        .flat_map(|r| {
            r.violations.iter().map(move |v| Diag {
                path: r.file.to_string(),
                line: 1,
                rule: "graphcheck",
                msg: format!("(builder={}, n={}, b={}) {v}", r.builder, r.n, r.b),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_certifies_every_builder() {
        let reports = run_sweep();
        assert_eq!(
            reports.len(),
            BUILDERS.len() * SWEEP_N.len() * SWEEP_B.len()
        );
        for r in &reports {
            assert!(
                r.ok(),
                "{} (n={}, b={}) not certified: {:?}",
                r.builder,
                r.n,
                r.b,
                r.violations
            );
            assert!(r.tasks > 0, "empty instance in sweep");
        }
        assert!(diags(&reports).is_empty());
    }

    #[test]
    fn certificate_shape() {
        let reports = run_sweep();
        let cert = certificate_json(&reports);
        assert!(cert.contains("\"schema\": \"tseig-graphcheck/1\""));
        assert!(cert.contains("\"ok\": true"));
        assert!(cert.contains("\"builder\": \"band\""));
        assert!(cert.contains("\"builder\": \"bidiagonal\""));
        // Parseable enough for CI consumers: balanced braces/brackets.
        assert_eq!(cert.matches('{').count(), cert.matches('}').count());
        assert_eq!(cert.matches('[').count(), cert.matches(']').count());
    }

    #[test]
    fn frontends_share_the_band_geometry() {
        // The Hermitian chase is certified through the real one: same
        // task order, priorities and footprints, only the tags differ.
        let shape = |specs: Vec<TaskSpec>| -> Vec<_> {
            specs.into_iter().map(|t| (t.priority, t.regions)).collect()
        };
        for &n in SWEEP_N {
            for &b in SWEEP_B {
                assert_eq!(
                    shape(tseig_hermitian::stage2::chase_task_specs(n, b)),
                    shape(tseig_core::stage2::chase_task_specs(n, b)),
                    "n={n} b={b}"
                );
            }
        }
    }

    #[test]
    fn violations_render_as_annotations() {
        let reports = vec![InstanceReport {
            builder: "core",
            file: "crates/core/src/stage2.rs",
            n: 9,
            b: 2,
            tasks: 3,
            edges: 1,
            conflict_pairs: 2,
            threads: vec![1],
            violations: vec!["conflict between tasks 0 and 2 not covered".to_string()],
        }];
        let cert = certificate_json(&reports);
        assert!(cert.contains("\"ok\": false"));
        let d = diags(&reports);
        assert_eq!(d.len(), 1);
        assert!(d[0]
            .github()
            .starts_with("::error file=crates/core/src/stage2.rs,"));
    }
}
