//! Rule `result-unwrap`: non-test code must not `.unwrap()`/`.expect(`
//! a solver result.
//!
//! The robustness layer goes to some trouble to return structured errors
//! (`Error::InvalidData`, `Error::NoConvergence`, ...) and diagnostics
//! instead of dying; a caller that unwraps them turns every recoverable
//! condition back into a panic with an opaque backtrace. Applies to all
//! crate library sources *and* `examples/` (which double as user-facing
//! documentation — they must model error propagation, not unwrapping).
//! Tests are exempt; deliberate sites escape with
//! `// tidy: allow(result-unwrap) -- reason`.

use crate::source::SourceFile;
use crate::Diag;

/// A line is only flagged when it mentions one of these solver-result
/// producers (call or field) *and* unwraps/expects on the same line.
const SOLVER_TOKENS: &[&str] = &[
    ".solve(",
    "solve_generalized(",
    "solve_with_diag(",
    "syev(",
    "gesvd(",
    "stedc(",
    "steqr(",
    "stein(",
    "bisect_eigenvalues(",
    ".eigenvectors",
];

const UNWRAP_NEEDLES: &[&str] = &[".unwrap()", ".expect("];

/// Does the rule apply to this workspace-relative path?
pub fn applies_to(rel_path: &str) -> bool {
    rel_path.starts_with("examples/")
        || (rel_path.starts_with("crates/") && rel_path.contains("/src/"))
}

pub fn check(file: &SourceFile, diags: &mut Vec<Diag>) {
    if !applies_to(&file.rel_path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let code = &line.code;
        if SOLVER_TOKENS.iter().any(|t| code.contains(t))
            && UNWRAP_NEEDLES.iter().any(|n| code.contains(n))
            && !file.allows(lineno, "result-unwrap")
        {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: lineno,
                rule: "result-unwrap",
                msg: "solver result unwrapped in non-test code; propagate the error \
                      (`?`) so screening/convergence failures stay structured"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diag> {
        let f = SourceFile::parse(path, src);
        let mut d = Vec::new();
        check(&f, &mut d);
        d
    }

    #[test]
    fn unwrapped_solve_in_example_fails() {
        let d = run(
            "examples/quickstart.rs",
            "fn main() { let r = SymmetricEigen::new().solve(&a).unwrap(); }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "result-unwrap");
    }

    #[test]
    fn expect_on_eigenvectors_fails() {
        let d = run(
            "crates/cli/src/lib.rs",
            "fn f() { let z = r.eigenvectors.expect(\"vectors\"); }\n",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn propagated_and_unrelated_unwraps_pass() {
        let src = "fn main() -> Result<(), E> {\n    let r = s.solve(&a)?;\n    let n: usize = arg.parse().unwrap();\n    Ok(())\n}\n";
        assert!(run("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn tests_and_escapes_are_exempt() {
        let test_src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { s.solve(&a).unwrap(); }\n}\n";
        assert!(run("crates/core/src/driver.rs", test_src).is_empty());
        let escaped =
            "fn f() { s.solve(&a).unwrap(); } // tidy: allow(result-unwrap) -- controlled input\n";
        assert!(run("crates/cli/src/lib.rs", escaped).is_empty());
        // tests/ trees are out of scope entirely.
        assert!(run(
            "crates/core/tests/x.rs",
            "fn f() { s.solve(&a).unwrap(); }\n"
        )
        .is_empty());
    }
}
