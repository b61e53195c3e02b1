//! Rule `checkpoint-loop`: convergence loops must poll the request control.
//!
//! Request-lifecycle governance is cooperative: a cancel or deadline only
//! takes effect when the running phase reaches a `Ctrl::checkpoint()` (or
//! a scheduler `poll_stop`). The long-running loops live in the
//! driver/stage layer — panel loops, sweep loops, QR/bdsqr convergence
//! loops, batch worker claim loops — so this rule guards the invariant
//! structurally: every `while`/`loop` body in those files must contain a
//! `checkpoint(`/`poll_stop(` call, or carry a line-level
//! `// tidy: allow(checkpoint-loop) -- reason` waiver on its header
//! explaining why the loop is exempt (pure sizing arithmetic, per-sweep
//! inner chains already polled by the sweep loop, the watchdog itself).
//!
//! Only the outermost tracked loop of a nest is checked: a loop nested
//! inside a tracked loop runs at most one outer iteration between the
//! outer loop's polls, which is exactly the checkpoint granularity the
//! design asks for. `for` loops are out of scope — the convergence-style
//! suspects are iteration-capped `while`/`loop` bodies.

use crate::source::SourceFile;
use crate::Diag;

/// The driver/stage layer: files owning the long-running solver loops
/// (including the stage-1 panel loop, the stage-2 sweep loop and the
/// back-transform panel loop the pipelines share from `kernels`).
pub fn applies_to(rel_path: &str) -> bool {
    let in_solver_crate = [
        "crates/core/src/",
        "crates/hermitian/src/",
        "crates/kernels/src/",
        "crates/svd/src/",
        "crates/tridiag/src/",
    ]
    .iter()
    .any(|p| rel_path.starts_with(p));
    if !in_solver_crate {
        return false;
    }
    let name = rel_path.rsplit('/').next().unwrap_or("");
    matches!(
        name,
        "driver.rs"
            | "drivers.rs"
            | "batch.rs"
            | "stage1.rs"
            | "stage2.rs"
            | "backtransform.rs"
            | "generalized.rs"
            | "bdsqr.rs"
            | "qr_iteration.rs"
            | "dandc.rs"
            | "sturm.rs"
            | "inverse_iteration.rs"
    )
}

/// Is this code line the header of a tracked loop?
fn is_loop_header(code: &str) -> bool {
    let t = code.trim_start();
    t.starts_with("while ") || t.starts_with("while(") || t == "loop" || t.starts_with("loop {")
}

/// Walk from the header line to the loop's matching close brace,
/// returning `(last_line_1based, concatenated_code)`.
fn loop_span(file: &SourceFile, header_line: usize) -> (usize, String) {
    let mut depth: i64 = 0;
    let mut opened = false;
    let mut body = String::new();
    let mut j = header_line - 1;
    while j < file.lines.len() {
        let code = &file.lines[j].code;
        body.push_str(code);
        body.push('\n');
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            break;
        }
        j += 1;
    }
    (j + 1, body)
}

pub fn check(file: &SourceFile, diags: &mut Vec<Diag>) {
    if !applies_to(&file.rel_path) {
        return;
    }
    let mut i = 0usize;
    while i < file.lines.len() {
        let line = &file.lines[i];
        if line.in_test || !is_loop_header(&line.code) {
            i += 1;
            continue;
        }
        let header_line = i + 1;
        let (last_line, body) = loop_span(file, header_line);
        let polls = body.contains("checkpoint(") || body.contains("poll_stop(");
        if !polls && !file.allows(header_line, "checkpoint-loop") {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: header_line,
                rule: "checkpoint-loop",
                msg: "`while`/`loop` body in a driver/stage file never polls the request \
                      control; call `ctrl.checkpoint()?` (or a scheduler `poll_stop`) per \
                      iteration, or waive with `// tidy: allow(checkpoint-loop) -- reason`"
                    .to_string(),
            });
        }
        // Outermost-only: nested tracked loops run under the outer poll.
        i = last_line;
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
    fn unpolled_convergence_loop_fails() {
        let src = "pub fn sweep(n: usize) {\n    let mut m = n;\n    while m > 0 {\n        m -= 1;\n    }\n}\n";
        let d = run("crates/svd/src/bdsqr.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].line, d[0].rule), (3, "checkpoint-loop"));
    }

    #[test]
    fn checkpointed_loop_passes() {
        let src = "pub fn sweep(ctrl: &Ctrl, n: usize) -> Result<()> {\n    let mut m = n;\n    while m > 0 {\n        ctrl.checkpoint()?;\n        m -= 1;\n    }\n    Ok(())\n}\n";
        assert!(run("crates/svd/src/bdsqr.rs", src).is_empty());
    }

    #[test]
    fn poll_stop_satisfies_the_rule() {
        let src = "fn drain() {\n    loop {\n        if poll_stop() { break; }\n    }\n}\n";
        assert!(run("crates/core/src/batch.rs", src).is_empty());
    }

    #[test]
    fn header_waiver_is_honoured_in_both_positions() {
        let trailing = "fn size(n: usize) {\n    let mut j = 0;\n    while j < n { // tidy: allow(checkpoint-loop) -- pure sizing arithmetic\n        j += 1;\n    }\n}\n";
        assert!(run("crates/core/src/stage1.rs", trailing).is_empty());
        let above = "fn size(n: usize) {\n    let mut j = 0;\n    // tidy: allow(checkpoint-loop) -- pure sizing arithmetic\n    while j < n {\n        j += 1;\n    }\n}\n";
        assert!(run("crates/core/src/stage1.rs", above).is_empty());
    }

    #[test]
    fn inner_loop_is_covered_by_the_outer_poll() {
        let src = "fn sweep(ctrl: &Ctrl, n: usize) -> Result<()> {\n    let mut m = n;\n    while m > 0 {\n        ctrl.checkpoint()?;\n        let mut l = m;\n        while l > 0 {\n            l -= 1;\n        }\n        m -= 1;\n    }\n    Ok(())\n}\n";
        assert!(run("crates/svd/src/bdsqr.rs", src).is_empty());
    }

    #[test]
    fn sibling_loop_after_a_nest_is_still_checked() {
        let src = "fn f(ctrl: &Ctrl, n: usize) -> Result<()> {\n    while n > 0 {\n        ctrl.checkpoint()?;\n    }\n    let mut k = n;\n    while k > 0 {\n        k -= 1;\n    }\n    Ok(())\n}\n";
        let d = run("crates/core/src/stage2.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn shared_panel_loops_in_kernels_are_checked() {
        let src = "fn reduce(n: usize) {\n    let mut j0 = 0;\n    while j0 < n {\n        j0 += 8;\n    }\n}\n";
        for path in [
            "crates/kernels/src/stage1.rs",
            "crates/kernels/src/stage2.rs",
            "crates/kernels/src/backtransform.rs",
        ] {
            let d = run(path, src);
            assert_eq!(d.len(), 1, "{path}");
            assert_eq!((d[0].line, d[0].rule), (3, "checkpoint-loop"));
        }
        // The kernel files proper stay out of scope.
        assert!(run("crates/kernels/src/qr.rs", src).is_empty());
        assert!(run("crates/kernels/src/blas3.rs", src).is_empty());
    }

    #[test]
    fn other_files_and_test_code_are_out_of_scope() {
        let src = "fn f(n: usize) {\n    let mut m = n;\n    while m > 0 { m -= 1; }\n}\n";
        assert!(run("crates/matrix/src/dense.rs", src).is_empty());
        assert!(run("crates/core/src/plan.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(n: usize) { let mut m = n; while m > 0 { m -= 1; } }\n}\n";
        assert!(run("crates/svd/src/bdsqr.rs", test_src).is_empty());
    }
}
